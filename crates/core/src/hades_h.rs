//! HADES-H: the hybrid hardware–software protocol (Section V-D).
//!
//! Remote operations use the full HADES NIC hardware (line-granularity
//! Bloom filters, partial-line fetches, Intend-to-commit/Ack/Validation).
//! Local operations stay in software, exactly as in the baseline: records
//! are fetched whole, checked for read atomicity, and tracked in software
//! read/write sets with Fig 1 versions. Local conflicts are found by
//! *Local Validation* — re-reading local record versions — performed after
//! all Acks arrive. The only processor-side hardware retained is the
//! partial directory lock (Locking Buffers): at commit the software passes
//! its local record addresses to the NIC, which builds the equivalent of
//! local read/write filters and locks the directory with them.
//!
//! Updates applied at a node — whether by the local software path or by a
//! remote transaction's NIC Validation — bump the record version, which is
//! what lets other local transactions' validation discover L–R conflicts
//! (the paper's "they will discover it at that time and squash
//! themselves").
//!
//! The remote path is HADES's own ([`Hades`]); this module supplies the
//! software local path, [`SwLocal`].

use crate::driver::{Ev, Sim};
use crate::hades::{FallbackTarget, Hades, LocalPath};
use crate::runtime::{apply_write, Cluster, ResolvedOp};
use crate::stats::SquashReason;
use hades_bloom::{LockFailure, LockingBuffers};
use hades_sim::ids::NodeId;
use hades_sim::time::Cycles;
use hades_storage::record::RecordId;
use hades_telemetry::event::{EventKind, Phase as TracePhase};
use hades_telemetry::profile::ProfPhase;

/// HADES-H's software local path: Baseline's whole-record software
/// read/write sets, guarded by the retained Locking Buffers.
#[derive(Debug)]
pub struct SwLocal;

/// HADES-H's per-slot local-path state.
#[derive(Debug, Default)]
pub struct SwSlot {
    /// Software read set over *local* records: (rid, version at read).
    local_reads: Vec<(RecordId, u64)>,
    /// Software write set over *local* records: (rid, version at fetch).
    local_writes: Vec<(RecordId, u64)>,
}

/// The HADES-H protocol simulator.
///
/// # Examples
///
/// ```no_run
/// use hades_core::hades_h::HadesHSim;
/// use hades_core::runtime::{Cluster, WorkloadSet};
/// use hades_sim::config::SimConfig;
/// use hades_storage::db::Database;
/// use hades_workloads::catalog::AppId;
///
/// let cfg = SimConfig::isca_default();
/// let mut db = Database::new(cfg.shape.nodes);
/// let app = AppId::parse("TATP").unwrap().build(&mut db, 0.01);
/// let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
/// let stats = HadesHSim::new(Cluster::new(cfg, db), ws, 100, 1_000).run();
/// println!("{:.0} txn/s", stats.throughput());
/// ```
pub type HadesHSim = Sim<Hades<SwLocal>>;

impl LocalPath for SwLocal {
    type Slot = SwSlot;
    const START_STAGGER: u64 = 43;
    const REPLICATION: bool = false;
    const VERSIONED: bool = true;

    fn new_slot(_cl: &Cluster, _node: usize) -> SwSlot {
        SwSlot::default()
    }

    fn reset(x: &mut SwSlot) {
        x.local_reads.clear();
        x.local_writes.clear();
    }

    /// Record granularity for the software path.
    fn fallback_footprint(op: &ResolvedOp, reads: &mut Vec<u64>, writes: &mut Vec<u64>) {
        if op.is_write() {
            writes.extend(&op.record_lines);
        } else {
            reads.extend(&op.record_lines);
        }
    }

    /// The retained hardware primitive still guards the directory, at
    /// record granularity.
    fn local_blocker(op: &ResolvedOp, bufs: &LockingBuffers, token: u64) -> Option<u64> {
        op.record_lines.iter().find_map(|&l| {
            if op.is_write() {
                bufs.blocks_write_excluding(l, token)
            } else {
                bufs.blocks_read(l).filter(|&o| o != token)
            }
        })
    }

    /// Software local path: fetch the whole record, check atomicity, track
    /// in read/write sets with versions — exactly like the baseline.
    fn on_local_op(sim: &mut HadesHSim, si: usize, att: u32, op: &ResolvedOp) {
        let now = sim.q.now();
        let (node, core) = (sim.slots[si].node, sim.slots[si].core);
        let sw = sim.cl.cfg.sw;
        let (mem_lat, _evicted) = sim.cl.access_lines(node, core, &op.record_lines);
        let nlines = op.record_lines.len() as u64;
        let atomicity = (sw.atomicity_check_per_line + sw.atomicity_copy_per_line) * nlines;
        let set_cost = if op.is_write() {
            sw.wset_insert + sw.set_copy_per_line * nlines
        } else {
            sw.rset_insert
        };
        let v = sim.cl.db.record(op.rid).version();
        let x = &mut sim.ext[si].local;
        let set = if op.is_write() {
            &mut x.local_writes
        } else {
            &mut x.local_reads
        };
        if !set.iter().any(|(r, _)| *r == op.rid) {
            set.push((op.rid, v));
        }
        let done = sim
            .cl
            .run_on_core(node, core, now, mem_lat + atomicity + set_cost);
        sim.q.push_at(done, Ev::OpDone { si, att });
    }

    /// Software passes its local record addresses to the NIC (per-record
    /// cost); the NIC builds the equivalent LocalRead/WriteBFs over the
    /// records of every op this node serves, promoted partitions
    /// included, and locks the directory with them.
    fn lock_local(sim: &mut HadesHSim, si: usize, now: Cycles) -> Option<(Vec<u64>, Cycles)> {
        let node = sim.slots[si].node;
        let token = sim.token(si);
        let bloom = sim.cl.cfg.bloom;
        let txn = sim.slots[si].txn.as_deref().expect("txn active");
        let served = txn.ops().filter(|o| sim.cl.route(o.home) == node);
        let footprint = FallbackTarget::build::<Self>(served, bloom);
        let write_lines = footprint.writes.iter().map(|h| h.line()).collect();
        let x = &sim.ext[si].local;
        let n_local = x.local_reads.len() + x.local_writes.len();
        let pass_cost = sim.cl.cfg.sw.rdma_issue + Cycles::new(10) * n_local as u64;
        let lines = footprint.reads.len() + footprint.writes.len();
        let build_cost = bloom.bf_op * lines.max(1) as u64;
        let lock = footprint.try_lock_at(&mut sim.cl.lock_bufs[node.0 as usize], now, token);
        match lock {
            Ok(()) => sim.ext[si].holds_local_lock = true,
            Err(LockFailure::NoFreeBuffer) if sim.cl.cfg.overload.degrade_on_saturation => {
                // Saturation fallback: commit without a buffer. HADES-H
                // already software-validates its local footprint (Local
                // Validation, Section V-D), so the degraded commit keeps
                // correctness and only loses the hardware commit window.
                sim.degraded_commit(now, node, Some(sim.slots[si].slot));
            }
            Err(_) => {
                sim.squash(si, SquashReason::LockFailed);
                return None;
            }
        }
        Some((write_lines, pass_cost + build_cost + bloom.lock_buffer_load))
    }

    /// Local Validation: re-read every local record in the read and write
    /// sets and compare versions (Section V-D), then finish the commit.
    fn after_acks(sim: &mut HadesHSim, si: usize, att: u32, now: Cycles) {
        sim.cl.obs_enter(si, ProfPhase::Validate, now);
        if sim.cl.tracer.is_enabled() {
            sim.trace(now, si, EventKind::PhaseBegin(TracePhase::Validate));
        }
        let (node, core) = (sim.slots[si].node, sim.slots[si].core);
        let sw = sim.cl.cfg.sw;
        let x = &sim.ext[si].local;
        let entries: Vec<(RecordId, u64)> = x
            .local_reads
            .iter()
            .chain(&x.local_writes)
            .copied()
            .collect();
        let mut cost = Cycles::ZERO;
        let mut ok = true;
        for (rid, v) in &entries {
            cost += sw.validate_per_record;
            let first_line = [sim.cl.db.record(*rid).lines().next().expect("record")];
            let (lat, _) = sim.cl.access_lines(node, core, &first_line);
            cost += lat;
            if sim.cl.db.record(*rid).version() != *v {
                ok = false;
            }
        }
        let done = sim.cl.run_on_core(node, core, now, cost);
        if sim.cl.tracer.is_enabled() {
            sim.trace(done, si, EventKind::PhaseEnd(TracePhase::Validate));
        }
        if !ok {
            sim.squash(si, SquashReason::ValidationFailed);
            return;
        }
        sim.finish_commit(si, att, done);
    }

    /// Merges local updates into the records, bumping their versions.
    fn apply_local(sim: &mut HadesHSim, si: usize, ops: &[&ResolvedOp], now: Cycles) -> Cycles {
        let (node, core) = (sim.slots[si].node, sim.slots[si].core);
        let sw = sim.cl.cfg.sw;
        let mut local_cost = Cycles::ZERO;
        for (k, op) in ops.iter().enumerate() {
            let (lat, _) = sim.cl.access_lines(node, core, &op.write_lines);
            local_cost += sw.wset_commit_per_record + sw.version_update + lat;
            apply_write(&mut sim.cl.db, op);
            sim.cl.migration_note_write(now, op.home);
            // Each record's version moves once per commit.
            if !ops[..k].iter().any(|o| o.rid == op.rid) {
                sim.cl.db.record_mut(op.rid).bump_version();
            }
        }
        local_cost
    }

    /// Local transactions have no filters in HADES-H.
    fn local_exact_ok(_sim: &HadesHSim, _nb: usize, _writes: &[u64], _reads: &[u64]) -> bool {
        true
    }

    /// No check against the participant's local transactions: they will
    /// discover the conflict at their own Local Validation (Section V-D).
    fn squash_local_conflicts(
        _sim: &mut HadesHSim,
        _nb: usize,
        _origin: NodeId,
        _writes: &[u64],
    ) -> Cycles {
        Cycles::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Experiment, Protocol, Run};
    use hades_sim::config::SimConfig;
    use hades_storage::db::Database;
    use hades_workloads::catalog::AppId;
    use hades_workloads::smallbank::{Smallbank, SmallbankConfig};

    #[test]
    fn local_validation_catches_conflicts() {
        let cfg = SimConfig::isca_default().with_local_fraction(0.9);
        let mut db = Database::new(cfg.shape.nodes);
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts: 400,
                hotspot: Some((4, 0.9)),
            },
        );
        let out = Run::loaded(Protocol::HadesH, cfg, db, Box::new(sb), 0, 300).run();
        assert!(
            out.stats.squashes_for(SquashReason::ValidationFailed) > 0
                || out.stats.squashes_for(SquashReason::LockFailed) > 0,
            "expected software-validation squashes, got {:?}",
            out.stats.squash_reasons
        );
    }

    #[test]
    fn performance_between_baseline_and_hades() {
        // Fig 9's ordering: Baseline <= HADES-H <= HADES (roughly).
        let ex = Experiment {
            warmup: 50,
            measure: 300,
            ..Experiment::quick()
        };
        let app = AppId::parse("HT-wA").unwrap();
        let [b, h, full] =
            Protocol::ALL.map(|p| Run::apps(p, &ex, &[app]).run().stats.throughput());
        assert!(
            h > b * 0.95,
            "HADES-H ({h:.0}) should beat Baseline ({b:.0})"
        );
        assert!(
            full > h * 0.9,
            "HADES ({full:.0}) should be at least comparable to HADES-H ({h:.0})"
        );
    }
}
