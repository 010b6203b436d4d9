//! The optimized software-only protocol (*SW-Impl* / *Baseline*).
//!
//! A FaRM-style OCC protocol (Section II/III) with the optimizations the
//! paper credits to prior work: batched per-node lock/unlock messages,
//! writes and unlocks sent without serialization, no stalling on unlock
//! completion, and no locking of the read set. Records carry Fig 1
//! metadata; conflicts are detected by version validation under write
//! locks (the lock CAS checks the version, as in FaRM's
//! version-in-lock-word).
//!
//! Every software operation is charged its [`SwCosts`] latency and
//! attributed to a Fig 3 overhead category; at commit the transaction's
//! wall time is folded in (network waits attributed per DESIGN.md §6),
//! which is how the reproduction regenerates the Section III motivation
//! study.
//!
//! [`SwCosts`]: hades_sim::config::SwCosts

use crate::driver::{Engine, Ev, Sim, SlotCore};
use crate::runtime::{apply_write, next_node, Cluster, CoreVerb, OpRef, ResolvedOp, ResolvedTxn};
use crate::stats::{Overhead, Phase, RunStats, SquashReason};
use hades_net::fabric::wire_size;
use hades_sim::config::{MembershipParams, ReplicationParams, RetryParams};
use hades_sim::ids::NodeId;
use hades_sim::time::Cycles;
use hades_storage::record::RecordId;
use hades_telemetry::event::{EventKind, Phase as TracePhase, RecoveryKind, Verb};
use hades_telemetry::profile::ProfPhase;
use std::rc::Rc;

fn cat_index(cat: Overhead) -> usize {
    match cat {
        Overhead::ManageSets => 0,
        Overhead::UpdateVersion => 1,
        Overhead::ReadAtomicity => 2,
        Overhead::RdBeforeWr => 3,
        Overhead::ConflictDetection => 4,
        Overhead::Other => 5,
    }
}

/// Baseline's per-slot state: Fig 1 software read/write sets, record
/// locks and the Fig 3 cost ledger of the current attempt.
#[derive(Debug, Default)]
pub struct BaselineSlot {
    attempt_start: Cycles,
    valid_end: Cycles,
    /// Charged cycles per Fig 3 category for the current attempt.
    cat: [u64; 6],
    read_versions: Vec<(RecordId, u64)>,
    write_versions: Vec<(RecordId, u64)>,
    locked: Vec<RecordId>,
    lock_ok: bool,
    validate_ok: bool,
    fallback_locks: Vec<RecordId>,
    /// The fallback lock batch being polled, rebuilt in place at every
    /// poll.
    fallback_batch: Vec<RecordId>,
    /// The lock list's distinct routed homes in node order, rebuilt in
    /// place at every poll.
    fallback_homes: Vec<NodeId>,
    /// The transaction's write set, `(record, logical home)`, sorted and
    /// deduplicated; refreshed by [`Sim::fill_write_set`] when the lock
    /// round begins, and read by the rounds that follow it.
    wset: Vec<(RecordId, NodeId)>,
    /// Response ids already processed this attempt (dedup for duplicated
    /// LockResp/ValidateResp copies under fault injection).
    resp_seen: Vec<u32>,
    /// Next response id to assign this attempt.
    rsp_next: u32,
    /// Bumped at every validation round so a stale `RpcTimeout` armed for
    /// an earlier round cannot abort a later one.
    rpc_epoch: u32,
    /// Past the point of no return: local writes applied and remote
    /// applies shipped. A crash after this point finalizes the ledger.
    durable: bool,
}

use ev::BaselineEv;

/// Kept in a private module: the variants are wire messages and timers,
/// not public API.
mod ev {
    use super::*;

    /// Baseline's own events.
    #[derive(Debug)]
    pub enum BaselineEv {
        /// A remote whole-record fetch response arrived at the origin.
        RemoteFetch {
            si: usize,
            att: u32,
            lines: usize,
            is_write: bool,
        },
        /// A lock round's response (one per participant node).
        LockResp {
            si: usize,
            att: u32,
            acquired: Vec<RecordId>,
            ok: bool,
            rsp_id: u32,
            from: NodeId,
            ep: u64,
        },
        /// A read-validation round's response.
        ValidateResp {
            si: usize,
            att: u32,
            ok: bool,
            rsp_id: u32,
            from: NodeId,
            ep: u64,
        },
        /// Validation-round watchdog (armed only when a fault injector is
        /// active): if responses are still outstanding when it fires, the
        /// attempt aborts and retries instead of hanging forever.
        RpcTimeout { si: usize, att: u32, epoch: u32 },
        /// Commit-time write application at a remote home node (one-way).
        RemoteApply { ops: Vec<OpRef>, owner: u64 },
        /// Abort-time record unlocks at a remote home node (one-way).
        RemoteUnlock { rids: Vec<RecordId>, owner: u64 },
    }
}

// Every event moves through the queue; keep fat payloads boxed.
const _: () = assert!(std::mem::size_of::<Ev<BaselineEv>>() <= 64);

/// The Baseline engine. Its only cluster-wide state is the record locks
/// a crashed node's transactions still hold, per dead node, released at
/// reconfiguration (or restart).
#[derive(Debug)]
pub struct Baseline {
    orphan_locks: Vec<Vec<(RecordId, u64)>>,
}

/// The Baseline protocol simulator.
///
/// # Examples
///
/// ```no_run
/// use hades_core::baseline::BaselineSim;
/// use hades_core::runtime::{Cluster, WorkloadSet};
/// use hades_sim::config::SimConfig;
/// use hades_storage::db::Database;
/// use hades_workloads::catalog::AppId;
///
/// let cfg = SimConfig::isca_default();
/// let mut db = Database::new(cfg.shape.nodes);
/// let app = AppId::parse("HT-wA").unwrap().build(&mut db, 0.01);
/// let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
/// let sim = BaselineSim::new(Cluster::new(cfg, db), ws, 100, 1_000);
/// let stats = sim.run();
/// println!("throughput: {:.0} txn/s", stats.throughput());
/// ```
pub type BaselineSim = Sim<Baseline>;

impl Engine for Baseline {
    type Slot = BaselineSlot;
    type Ev = BaselineEv;
    const START_STAGGER: u64 = 37;
    const CRASHES_NEED_MEMBERSHIP: bool = true;
    const FENCE_VERB: Verb = Verb::LockResp;

    fn new(cl: &Cluster) -> Self {
        Baseline {
            orphan_locks: vec![Vec::new(); cl.cfg.shape.nodes],
        }
    }

    fn new_slot(_cl: &Cluster, _node: usize) -> BaselineSlot {
        BaselineSlot {
            lock_ok: true,
            validate_ok: true,
            ..BaselineSlot::default()
        }
    }

    fn reset_attempt(x: &mut BaselineSlot) {
        x.cat = [0; 6];
        x.read_versions.clear();
        x.write_versions.clear();
        x.locked.clear();
        x.lock_ok = true;
        x.validate_ok = true;
        x.fallback_locks.clear();
        x.resp_seen.clear();
        x.rsp_next = 0;
        x.rpc_epoch = 0;
        x.durable = false;
    }

    fn begin_attempt(x: &mut BaselineSlot, now: Cycles, app_cost: Cycles) {
        x.attempt_start = now;
        x.cat[cat_index(Overhead::Other)] += app_cost.get();
    }

    fn plan_fallback(txn: &ResolvedTxn, x: &mut BaselineSlot) {
        let rids = &mut x.fallback_locks;
        rids.clear();
        rids.extend(txn.ops().map(|op| op.rid));
        rids.sort_unstable();
        rids.dedup();
    }

    fn exec_stage(sim: &mut Sim<Self>, si: usize, att: u32) {
        sim.on_exec_stage(si, att)
    }

    fn exec_done(sim: &mut Sim<Self>, si: usize, att: u32) {
        if sim.slots[si].fallback {
            let now = sim.q.now();
            sim.slots[si].exec_end = now;
            if sim.cl.tracer.is_enabled() {
                sim.trace(now, si, EventKind::PhaseEnd(TracePhase::Exec));
            }
            sim.begin_commit(si, att, now);
        } else {
            sim.begin_validation(si, att);
        }
    }

    fn fallback_lock(sim: &mut Sim<Self>, si: usize, att: u32) {
        sim.on_fallback_lock(si, att)
    }

    fn handle(sim: &mut Sim<Self>, ev: BaselineEv) {
        match ev {
            BaselineEv::RemoteFetch {
                si,
                att,
                lines,
                is_write,
            } if sim.alive(si, att) => sim.on_remote_fetch(si, att, lines, is_write),
            BaselineEv::LockResp {
                si,
                att,
                acquired,
                ok,
                rsp_id,
                from,
                ep,
            } => {
                if sim.cl.membership.should_fence(ep, from) {
                    // A stale lock grant from a node declared dead: the
                    // coordinator's abort sweep reclaims any lock it
                    // carried, so dropping it is safe.
                    sim.fence_verb(sim.slots[si].node, Verb::LockResp);
                } else {
                    sim.on_lock_resp(si, att, acquired, ok, rsp_id);
                }
            }
            BaselineEv::ValidateResp {
                si,
                att,
                ok,
                rsp_id,
                from,
                ep,
            } => {
                if sim.cl.membership.should_fence(ep, from) {
                    sim.fence_verb(sim.slots[si].node, Verb::ValidateResp);
                } else if sim.alive(si, att) {
                    sim.on_validate_resp(si, att, ok, rsp_id);
                }
            }
            BaselineEv::RpcTimeout { si, att, epoch } if sim.alive(si, att) => {
                sim.on_rpc_timeout(si, att, epoch)
            }
            BaselineEv::RemoteApply { ops, owner } => sim.on_remote_apply(ops, owner),
            BaselineEv::RemoteUnlock { rids, owner } => {
                for rid in rids {
                    sim.cl.db.record_mut(rid).unlock(owner);
                }
            }
            _ => {} // stale event for a squashed attempt
        }
    }

    fn squash(sim: &mut Sim<Self>, si: usize, reason: SquashReason) {
        sim.abort(si, reason)
    }

    fn past_no_return(x: &BaselineSlot) -> bool {
        x.durable
    }

    fn in_handshake(c: &SlotCore, _x: &BaselineSlot) -> bool {
        // The software protocol keeps its locks on the records
        // themselves, so only in-flight rounds — whose unlock routing
        // was decided under the old map — need fencing; there is no NIC
        // filter state to hand over.
        c.outstanding > 0 && !c.awaiting_start
    }

    fn commit_phases(
        c: &SlotCore,
        x: &BaselineSlot,
        txn: &ResolvedTxn,
        stats: &mut RunStats,
        now: Cycles,
    ) {
        fold_overheads(c, x, txn, stats, now);
        stats
            .phases
            .add(Phase::Validation, x.valid_end.saturating_sub(c.exec_end));
        stats
            .phases
            .add(Phase::Commit, now.saturating_sub(x.valid_end));
    }

    /// Sweeps the transaction's footprint for locks still held by the
    /// slot's token — validated locks, fallback locks, and acquisitions
    /// orphaned by dropped responses alike — and stashes them; the
    /// failure detector releases them when it declares the node dead.
    fn on_crash(sim: &mut Sim<Self>, si: usize) {
        let token = sim.token(si);
        let txn = sim.slots[si].txn.as_ref().expect("txn set");
        let mut rids: Vec<RecordId> = txn.ops().map(|op| op.rid).collect();
        rids.sort_unstable();
        rids.dedup();
        let nb = sim.slots[si].node.0 as usize;
        for rid in rids {
            if sim.cl.db.record(rid).locked_by(token) {
                sim.p.orphan_locks[nb].push((rid, token));
            }
        }
    }

    /// Releases any orphaned locks the failure detector has not already
    /// drained.
    fn on_restart(sim: &mut Sim<Self>, node: NodeId) {
        sim.release_orphans(node);
    }

    /// Releases the record locks the dead node's transactions still held
    /// so survivors stop aborting on them.
    fn on_death(sim: &mut Sim<Self>, dead: NodeId) {
        sim.release_orphans(dead);
    }

    fn finish(&self, _cl: &Cluster, _stats: &mut RunStats) -> u64 {
        0 // the software protocol has no replica-prepare queues
    }
}

/// Folds the committing transaction's wall time into the Fig 3
/// categories: charged costs as recorded; the uncharged remainder of
/// each phase attributed per DESIGN.md §6.
fn fold_overheads(
    c: &SlotCore,
    x: &BaselineSlot,
    txn: &ResolvedTxn,
    stats: &mut RunStats,
    now: Cycles,
) {
    let exec_wall = c.exec_end.saturating_sub(x.attempt_start).get();
    let valid_wall = x.valid_end.saturating_sub(c.exec_end).get();
    let commit_wall = now.saturating_sub(x.valid_end).get();
    // Execution remainder: network waits. Attribute to RD-before-WR in
    // proportion to remote write fetches (reads are fundamental).
    let (mut rw, mut rr) = (0u64, 0u64);
    for op in txn.ops() {
        if !op.is_local_to(c.node) {
            if op.is_write() {
                rw += 1;
            } else {
                rr += 1;
            }
        }
    }
    let cat = x.cat;
    let exec_charged: u64 = cat[cat_index(Overhead::Other)]
        + cat[cat_index(Overhead::ReadAtomicity)]
        + cat[cat_index(Overhead::RdBeforeWr)]
        + cat[cat_index(Overhead::ManageSets)];
    let exec_rem = exec_wall.saturating_sub(exec_charged);
    let (rd_b4_wr_extra, other_extra) = match exec_rem.checked_div(rw + rr) {
        None => (0, exec_rem),
        Some(_) => {
            let w = exec_rem * rw / (rw + rr);
            (w, exec_rem - w)
        }
    };
    // Validation remainder: lock + re-read round trips.
    let valid_rem = valid_wall.saturating_sub(cat[cat_index(Overhead::ConflictDetection)]);
    let o = &mut stats.overhead;
    o.add(Overhead::ManageSets, Cycles::new(cat[0]));
    o.add(Overhead::UpdateVersion, Cycles::new(cat[1]));
    o.add(Overhead::ReadAtomicity, Cycles::new(cat[2]));
    o.add(Overhead::RdBeforeWr, Cycles::new(cat[3] + rd_b4_wr_extra));
    o.add(Overhead::ConflictDetection, Cycles::new(cat[4] + valid_rem));
    o.add(
        Overhead::Other,
        Cycles::new(cat[5] + other_extra + commit_wall),
    );
}

impl Sim<Baseline> {
    fn charge(&mut self, si: usize, cat: Overhead, c: Cycles) {
        self.ext[si].cat[cat_index(cat)] += c.get();
    }

    fn release_orphans(&mut self, node: NodeId) {
        for (rid, token) in std::mem::take(&mut self.p.orphan_locks[node.0 as usize]) {
            self.cl.db.record_mut(rid).unlock(token);
        }
    }

    /// The physical node serving `rid`'s partition.
    fn routed_home(&self, rid: RecordId) -> NodeId {
        self.cl.route(self.cl.db.home(rid))
    }

    /// Refreshes the slot's write set from its transaction.
    fn fill_write_set(&mut self, si: usize) {
        let txn = self.slots[si].txn.as_deref().expect("txn active");
        let wset = &mut self.ext[si].wset;
        wset.clear();
        wset.extend(
            txn.ops()
                .filter(|op| op.is_write())
                .map(|op| (op.rid, op.home)),
        );
        wset.sort_unstable();
        wset.dedup();
    }

    /// The write set's next routed home after `after`, in node order,
    /// other than `skip`.
    fn next_wset_node(&self, si: usize, after: Option<NodeId>, skip: NodeId) -> Option<NodeId> {
        let homes = self.ext[si].wset.iter().map(|&(_, h)| self.cl.route(h));
        next_node(homes, after, Some(skip))
    }

    /// Whether `rid` is in the slot's write set.
    fn in_wset(&self, si: usize, rid: RecordId) -> bool {
        self.ext[si].wset.iter().any(|&(r, _)| r == rid)
    }

    /// The read-set records validation re-reads: those not also written
    /// (the write lock already covers them).
    fn rset(&self, si: usize) -> impl Iterator<Item = (RecordId, u64)> + '_ {
        self.ext[si]
            .read_versions
            .iter()
            .copied()
            .filter(move |&(rid, _)| !self.in_wset(si, rid))
    }

    fn on_exec_stage(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let stage_idx = self.slots[si].stage;
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let txn = Rc::clone(self.slots[si].txn.as_ref().expect("txn active"));
        let ops = &txn.stages[stage_idx];
        if ops.is_empty() {
            self.slots[si].outstanding = 1;
            self.q.push_at(now, Ev::OpDone { si, att });
            return;
        }
        self.slots[si].outstanding = ops.len() as u32;
        let fallback = self.slots[si].fallback;
        let mut cursor = now;
        for op in ops {
            let index_cost = sw.index_per_level * op.depth as u64 + sw.app_per_request;
            self.charge(si, Overhead::Other, index_cost);
            if self.cl.route(op.home) == node {
                let (mem_lat, _evicted) = self.cl.access_lines(node, core, &op.record_lines);
                let nlines = op.record_lines.len() as u64;
                let atomicity = (sw.atomicity_check_per_line + sw.atomicity_copy_per_line) * nlines;
                let (set_cost, set_cat, fetch_cat, atom_cat) = if op.is_write() {
                    (
                        sw.wset_insert + sw.set_copy_per_line * nlines,
                        Overhead::ManageSets,
                        Overhead::RdBeforeWr,
                        Overhead::RdBeforeWr,
                    )
                } else {
                    (
                        sw.rset_insert,
                        Overhead::ManageSets,
                        Overhead::Other,
                        Overhead::ReadAtomicity,
                    )
                };
                self.charge(si, fetch_cat, mem_lat);
                self.charge(si, atom_cat, atomicity);
                self.charge(si, set_cat, set_cost);
                cursor = self.cl.run_on_core(
                    node,
                    core,
                    cursor,
                    index_cost + mem_lat + atomicity + set_cost,
                );
                self.record_versions(si, op, fallback);
                self.q.push_at(cursor, Ev::OpDone { si, att });
            } else {
                let target = self.cl.route(op.home);
                cursor = self.cl.run_on_core(node, core, cursor, index_cost);
                let sent = self.cl.issue(
                    cursor,
                    CoreVerb {
                        node,
                        core,
                        dst: target,
                        bytes: wire_size(0, 64),
                        verb: Verb::Read,
                        wrs: 1,
                        fault_exempt: false,
                    },
                );
                self.charge(si, Overhead::Other, sent.cost);
                cursor = sent.depart;
                let arrive = sent.arrival;
                if self.cl.membership.enabled() {
                    // A fetch aimed at a node that dies before responding
                    // would hang the slot forever; the watchdog converts
                    // the silence into a retry.
                    self.q.push_at(
                        cursor + MembershipParams::FETCH_TIMEOUT,
                        Ev::FetchTimeout {
                            si,
                            att,
                            stage: stage_idx,
                        },
                    );
                }
                if self.crashed[target.0 as usize] {
                    // Dead home: no response ever comes back.
                    continue;
                }
                let (svc, _evicted) = self.cl.access_lines_nic(target, &op.record_lines);
                let resp_sz = wire_size(op.record_lines.len(), 64);
                let back = self
                    .cl
                    .send(arrive + svc, target, node, resp_sz, Verb::ReadResp)
                    .only();
                self.record_versions(si, op, fallback);
                let lines = op.record_lines.len();
                let is_write = op.is_write();
                let ev = BaselineEv::RemoteFetch {
                    si,
                    att,
                    lines,
                    is_write,
                };
                self.q.push_at(back, ev.into());
            }
        }
    }

    fn record_versions(&mut self, si: usize, op: &ResolvedOp, fallback: bool) {
        if fallback {
            return;
        }
        let v = self.cl.db.record(op.rid).version();
        let x = &mut self.ext[si];
        if op.is_write() {
            if !x.write_versions.iter().any(|(r, _)| *r == op.rid) {
                x.write_versions.push((op.rid, v));
            }
        } else if !x.read_versions.iter().any(|(r, _)| *r == op.rid) {
            x.read_versions.push((op.rid, v));
        }
    }

    fn on_remote_fetch(&mut self, si: usize, att: u32, lines: usize, is_write: bool) {
        let now = self.q.now();
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let nlines = lines as u64;
        let poll = sw.rdma_poll;
        let atomicity = (sw.atomicity_check_per_line + sw.atomicity_copy_per_line) * nlines;
        let set_cost = if is_write {
            sw.wset_insert + sw.set_copy_per_line * nlines
        } else {
            sw.rset_insert
        };
        self.charge(si, Overhead::ConflictDetection, poll);
        self.charge(
            si,
            if is_write {
                Overhead::RdBeforeWr
            } else {
                Overhead::ReadAtomicity
            },
            atomicity,
        );
        self.charge(si, Overhead::ManageSets, set_cost);
        let done = self
            .cl
            .run_on_core(node, core, now, poll + atomicity + set_cost);
        self.q.push_at(done, Ev::OpDone { si, att });
    }

    fn begin_validation(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        self.slots[si].exec_end = now;
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseEnd(TracePhase::Exec));
        }
        // Rather than lock across an epoch boundary a node died in,
        // abort and retry in the new epoch.
        if self.straddles(si) {
            self.abort(si, SquashReason::CommitTimeout);
            return;
        }
        // Self-fence (DESIGN.md §16): a coordinator that could not renew
        // its own lease refuses to open the 2PC handshake.
        if self.cl.self_fence_check(now, self.slots[si].node) {
            self.abort(si, SquashReason::SelfFenced);
            return;
        }
        self.cl.obs_enter(si, ProfPhase::Lock, now);
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let token = self.token(si);
        self.fill_write_set(si);
        if self.ext[si].wset.is_empty() {
            self.begin_read_validation(si, att, now);
            return;
        }
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Lock));
        }
        self.ext[si].rpc_epoch += 1;
        let epoch = self.ext[si].rpc_epoch;
        let mem_ep = self.cl.membership.epoch();
        let mut outstanding = 0u32;
        let mut cursor = now;
        // Placement is routed through the membership layer: a partition
        // whose primary died may now be homed here or at a promoted
        // backup (identity mapping when membership is off).
        let wset_len = self.ext[si].wset.len();
        let mut any_local = false;
        let mut ok = true;
        let mut cost = Cycles::ZERO;
        for i in 0..wset_len {
            let (rid, home) = self.ext[si].wset[i];
            if self.cl.route(home) != node {
                continue;
            }
            any_local = true;
            cost += sw.lock_local;
            let expected = self.expected_write_version(si, rid);
            let mut rec = self.cl.db.record_mut(rid);
            if rec.version() == expected && rec.try_lock(token) {
                self.ext[si].locked.push(rid);
            } else {
                ok = false;
            }
        }
        if any_local {
            outstanding += 1;
            self.charge(si, Overhead::ConflictDetection, cost);
            cursor = self.cl.run_on_core(node, core, cursor, cost);
            let rsp_id = self.next_rsp_id(si);
            let ev = BaselineEv::LockResp {
                si,
                att,
                acquired: Vec::new(),
                ok,
                rsp_id,
                from: node,
                ep: mem_ep,
            };
            self.q.push_at(cursor, ev.into());
        }
        let mut next = self.next_wset_node(si, None, node);
        while let Some(dst) = next {
            next = self.next_wset_node(si, Some(dst), node);
            outstanding += 1;
            let batch = self.ext[si]
                .wset
                .iter()
                .filter(|&&(_, h)| self.cl.route(h) == dst)
                .count();
            let sent = self.cl.issue(
                cursor,
                CoreVerb {
                    node,
                    core,
                    dst,
                    bytes: wire_size(0, 64) + batch * 16,
                    verb: Verb::Lock,
                    wrs: batch as u64,
                    fault_exempt: true,
                },
            );
            self.charge(si, Overhead::ConflictDetection, sent.cost);
            cursor = sent.depart;
            let arrive = sent.arrival;
            if self.crashed[dst.0 as usize] {
                // A dead participant takes no locks and sends no reply;
                // the round's RpcTimeout watchdog aborts the attempt.
                continue;
            }
            let mut svc = Cycles::ZERO;
            let mut ok = true;
            let mut acquired = Vec::with_capacity(batch);
            for i in 0..wset_len {
                let (rid, home) = self.ext[si].wset[i];
                if self.cl.route(home) != dst {
                    continue;
                }
                let first_line = [self.cl.db.record(rid).lines().next().expect("record")];
                let (lat, _) = self.cl.access_lines_nic(dst, &first_line);
                svc += lat;
                let expected = self.expected_write_version(si, rid);
                let mut rec = self.cl.db.record_mut(rid);
                if rec.version() == expected && rec.try_lock(token) {
                    acquired.push(rid);
                } else {
                    ok = false;
                }
            }
            let rsp_id = self.next_rsp_id(si);
            let backs = self
                .cl
                .send(arrive + svc, dst, node, wire_size(0, 64), Verb::LockResp);
            // Every delivered copy reports the acquisitions; the last one
            // takes the list itself.
            for (k, back) in backs.into_iter().enumerate() {
                let acquired = if k + 1 == backs.len() {
                    std::mem::take(&mut acquired)
                } else {
                    acquired.clone()
                };
                let ev = BaselineEv::LockResp {
                    si,
                    att,
                    acquired,
                    ok,
                    rsp_id,
                    from: dst,
                    ep: mem_ep,
                };
                self.q.push_at(back, ev.into());
            }
        }
        self.slots[si].outstanding = outstanding;
        self.cl.obs_round_begin(si, Verb::Lock, outstanding, now);
        if self.cl.injector_active() && outstanding > 0 {
            let deadline = cursor + ReplicationParams::ACK_TIMEOUT;
            let ev = BaselineEv::RpcTimeout { si, att, epoch };
            self.q.push_at(deadline, ev.into());
        }
    }

    /// Assigns the next per-attempt response id for `si` (LockResp /
    /// ValidateResp deduplication under fault injection).
    fn next_rsp_id(&mut self, si: usize) -> u32 {
        let x = &mut self.ext[si];
        let id = x.rsp_next;
        x.rsp_next += 1;
        id
    }

    fn expected_write_version(&self, si: usize, rid: RecordId) -> u64 {
        self.ext[si]
            .write_versions
            .iter()
            .find(|(r, _)| *r == rid)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    fn on_lock_resp(
        &mut self,
        si: usize,
        att: u32,
        acquired: Vec<RecordId>,
        ok: bool,
        rsp_id: u32,
    ) {
        if !self.alive(si, att) {
            // Stale response for an aborted attempt: release its orphaned
            // acquisitions — but never a record the slot's *current*
            // attempt has re-locked (owner tokens are per-slot, so a late
            // duplicate could otherwise steal the fresh lock).
            let token = self.token(si);
            for rid in acquired {
                if self.cl.injector_active() && self.ext[si].locked.contains(&rid) {
                    continue;
                }
                self.cl.db.record_mut(rid).unlock(token);
            }
            return;
        }
        if self.ext[si].resp_seen.contains(&rsp_id) {
            return; // duplicated copy of an already-processed response
        }
        self.ext[si].resp_seen.push(rsp_id);
        self.ext[si].locked.extend(acquired);
        if !ok {
            self.ext[si].lock_ok = false;
        }
        self.charge(si, Overhead::ConflictDetection, self.cl.cfg.sw.rdma_poll);
        let s = &mut self.slots[si];
        debug_assert!(s.outstanding > 0);
        s.outstanding -= 1;
        if s.outstanding > 0 {
            return;
        }
        if !self.ext[si].lock_ok {
            self.abort(si, SquashReason::RecordLockBusy);
            return;
        }
        let now = self.q.now();
        self.cl.obs_round_end(si, now);
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseEnd(TracePhase::Lock));
        }
        self.begin_read_validation(si, att, now);
    }

    fn begin_read_validation(&mut self, si: usize, att: u32, now: Cycles) {
        self.cl.obs_enter(si, ProfPhase::Validate, now);
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let token = self.token(si);
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Validate));
        }
        if self.rset(si).next().is_none() {
            if self.cl.tracer.is_enabled() {
                self.trace(now, si, EventKind::PhaseEnd(TracePhase::Validate));
            }
            self.begin_commit(si, att, now);
            return;
        }
        self.ext[si].rpc_epoch += 1;
        let epoch = self.ext[si].rpc_epoch;
        let mem_ep = self.cl.membership.epoch();
        let mut outstanding = 0u32;
        let mut cursor = now;
        let reads = self.ext[si].read_versions.len();
        if self.rset(si).any(|(rid, _)| self.routed_home(rid) == node) {
            outstanding += 1;
            let mut cost = Cycles::ZERO;
            let mut ok = true;
            for i in 0..reads {
                let (rid, v) = self.ext[si].read_versions[i];
                if self.in_wset(si, rid) || self.routed_home(rid) != node {
                    continue;
                }
                cost += sw.validate_per_record;
                let first_line = [self.cl.db.record(rid).lines().next().expect("record")];
                let (lat, _) = self.cl.access_lines(node, core, &first_line);
                cost += lat;
                let rec = self.cl.db.record(rid);
                if rec.version() != v || (rec.is_locked() && !rec.locked_by(token)) {
                    ok = false;
                }
            }
            self.charge(si, Overhead::ConflictDetection, cost);
            cursor = self.cl.run_on_core(node, core, cursor, cost);
            let rsp_id = self.next_rsp_id(si);
            let ev = BaselineEv::ValidateResp {
                si,
                att,
                ok,
                rsp_id,
                from: node,
                ep: mem_ep,
            };
            self.q.push_at(cursor, ev.into());
        }
        let next_dst = |sim: &Self, after| {
            let homes = sim.rset(si).map(|(rid, _)| sim.routed_home(rid));
            next_node(homes, after, Some(node))
        };
        let mut next = next_dst(self, None);
        while let Some(dst) = next {
            next = next_dst(self, Some(dst));
            outstanding += 1;
            let entries = self
                .rset(si)
                .filter(|&(rid, _)| self.routed_home(rid) == dst)
                .count();
            let sent = self.cl.issue(
                cursor,
                CoreVerb {
                    node,
                    core,
                    dst,
                    bytes: wire_size(0, 64),
                    verb: Verb::Validate,
                    wrs: 1,
                    fault_exempt: true,
                },
            );
            self.charge(si, Overhead::ConflictDetection, sent.cost);
            self.charge(
                si,
                Overhead::ConflictDetection,
                sw.validate_per_record * entries as u64,
            );
            cursor = sent.depart;
            let arrive = sent.arrival;
            if self.crashed[dst.0 as usize] {
                // A dead participant validates nothing and sends no
                // reply; the RpcTimeout watchdog aborts the attempt.
                continue;
            }
            let mut svc = Cycles::ZERO;
            let mut ok = true;
            for i in 0..reads {
                let (rid, v) = self.ext[si].read_versions[i];
                if self.in_wset(si, rid) || self.routed_home(rid) != dst {
                    continue;
                }
                let first_line = [self.cl.db.record(rid).lines().next().expect("record")];
                let (lat, _) = self.cl.access_lines_nic(dst, &first_line);
                svc += lat;
                let rec = self.cl.db.record(rid);
                if rec.version() != v || (rec.is_locked() && !rec.locked_by(token)) {
                    ok = false;
                }
            }
            let rsp_id = self.next_rsp_id(si);
            for back in self.cl.send(
                arrive + svc,
                dst,
                node,
                wire_size(0, 64),
                Verb::ValidateResp,
            ) {
                let ev = BaselineEv::ValidateResp {
                    si,
                    att,
                    ok,
                    rsp_id,
                    from: dst,
                    ep: mem_ep,
                };
                self.q.push_at(back, ev.into());
            }
        }
        self.slots[si].outstanding = outstanding;
        self.cl
            .obs_round_begin(si, Verb::Validate, outstanding, now);
        if self.cl.injector_active() && outstanding > 0 {
            let deadline = cursor + ReplicationParams::ACK_TIMEOUT;
            let ev = BaselineEv::RpcTimeout { si, att, epoch };
            self.q.push_at(deadline, ev.into());
        }
    }

    fn on_validate_resp(&mut self, si: usize, att: u32, ok: bool, rsp_id: u32) {
        if self.ext[si].resp_seen.contains(&rsp_id) {
            return; // duplicated copy of an already-processed response
        }
        self.ext[si].resp_seen.push(rsp_id);
        if !ok {
            self.ext[si].validate_ok = false;
        }
        self.charge(si, Overhead::ConflictDetection, self.cl.cfg.sw.rdma_poll);
        let s = &mut self.slots[si];
        debug_assert!(s.outstanding > 0);
        s.outstanding -= 1;
        if s.outstanding > 0 {
            return;
        }
        if !self.ext[si].validate_ok {
            self.abort(si, SquashReason::ValidationFailed);
            return;
        }
        let now = self.q.now();
        self.cl.obs_round_end(si, now);
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseEnd(TracePhase::Validate));
        }
        self.begin_commit(si, att, now);
    }

    /// A validation-round response never arrived (dropped LockResp /
    /// ValidateResp under fault injection): give up on the round and
    /// retry the attempt from scratch.
    fn on_rpc_timeout(&mut self, si: usize, att: u32, epoch: u32) {
        if self.ext[si].rpc_epoch != epoch || self.slots[si].outstanding == 0 {
            return; // the round completed; watchdog is stale
        }
        debug_assert!(self.alive(si, att));
        let now = self.q.now();
        self.cl.fabric.injector_mut().recovery.timeout_retries += 1;
        self.trace(
            now,
            si,
            EventKind::Recovery {
                action: RecoveryKind::TimeoutRetry,
            },
        );
        self.slots[si].outstanding = 0;
        self.abort(si, SquashReason::CommitTimeout);
    }

    fn begin_commit(&mut self, si: usize, att: u32, now: Cycles) {
        self.ext[si].valid_end = now;
        // Rather than apply writes with routing decisions made in a
        // configuration where a node has since died, abort (the fallback
        // path reaches here without passing begin_validation).
        if self.straddles(si) {
            self.abort(si, SquashReason::CommitTimeout);
            return;
        }
        // Self-fence at the decide point too: the fallback path reaches
        // here without passing begin_validation, and a handshake whose
        // coordinator was excommunicated mid-validation must not apply
        // writes (the promoted backup is already serving its partitions).
        if self.cl.self_fence_check(now, self.slots[si].node) {
            self.abort(si, SquashReason::SelfFenced);
            return;
        }
        self.cl.note_commit_guard(self.slots[si].node);
        self.cl.obs_enter(si, ProfPhase::Commit, now);
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Commit));
        }
        // Point of no return: from here the commit's effects land even if
        // the coordinator crashes (the ledger finalizes at crash time).
        self.ext[si].durable = true;
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let token = self.token(si);
        let txn = Rc::clone(self.slots[si].txn.as_ref().expect("txn active"));
        let mut local_cost = Cycles::ZERO;
        for op in txn.ops().filter(|op| op.is_write()) {
            if self.cl.route(op.home) == node {
                let nlines = op.write_lines.len().max(1) as u64;
                let (lat, _) = self.cl.access_lines(node, core, &op.write_lines);
                self.charge(si, Overhead::ManageSets, sw.wset_commit_per_record);
                self.charge(si, Overhead::UpdateVersion, sw.version_update);
                self.charge(si, Overhead::Other, lat + sw.set_copy_per_line * nlines);
                local_cost += sw.wset_commit_per_record
                    + sw.version_update
                    + lat
                    + sw.set_copy_per_line * nlines;
                apply_write(&mut self.cl.db, op);
                self.cl.migration_note_write(now, op.home);
                let mut rec = self.cl.db.record_mut(op.rid);
                rec.bump_version();
                rec.unlock(token);
            }
        }
        if self.slots[si].fallback {
            for i in 0..self.ext[si].fallback_locks.len() {
                let rid = self.ext[si].fallback_locks[i];
                self.cl.db.record_mut(rid).unlock(token);
            }
        }
        let mut cursor = self.cl.run_on_core(node, core, now, local_cost);
        // One Write per remote home, in the order the homes first appear
        // among the written ops; it carries handles to its ops.
        let remote_home = |sim: &Self, op: &ResolvedOp| {
            let phys = sim.cl.route(op.home);
            (op.is_write() && phys != node).then_some(phys)
        };
        for (k, op) in txn.ops().enumerate() {
            let Some(dst) = remote_home(self, op) else {
                continue;
            };
            if txn.ops().take(k).any(|o| remote_home(self, o) == Some(dst)) {
                continue; // this home's Write already went out
            }
            let ops: Vec<OpRef> = txn
                .positioned_ops()
                .skip(k)
                .filter(|&(_, _, o)| remote_home(self, o) == Some(dst))
                .map(|(stage, i, _)| OpRef::new(&txn, stage, i))
                .collect();
            let bytes: usize = ops.iter().map(|op| op.record_lines.len() * 64).sum();
            let stage = sw.wset_commit_per_record * ops.len() as u64;
            cursor = self.cl.run_on_core(node, core, cursor, stage);
            let sent = self.cl.issue(
                cursor,
                CoreVerb {
                    node,
                    core,
                    dst,
                    bytes: wire_size(0, 64) + bytes,
                    verb: Verb::Write,
                    wrs: 1,
                    fault_exempt: false,
                },
            );
            self.charge(si, Overhead::ManageSets, stage + sent.cost);
            self.charge(
                si,
                Overhead::UpdateVersion,
                sw.version_update * ops.len() as u64,
            );
            cursor = sent.depart;
            let ev = BaselineEv::RemoteApply { ops, owner: token };
            self.q.push_at(sent.arrival, ev.into());
        }
        self.q.push_at(cursor, Ev::CommitDone { si, att });
    }

    fn on_remote_apply(&mut self, ops: Vec<OpRef>, owner: u64) {
        let now = self.q.now();
        for op in &ops {
            let (_lat, _) = self.cl.access_lines_nic(op.home, &op.write_lines);
            apply_write(&mut self.cl.db, op);
            self.cl.migration_note_write(now, op.home);
            let mut rec = self.cl.db.record_mut(op.rid);
            rec.bump_version();
            rec.unlock(owner);
        }
    }

    fn abort(&mut self, si: usize, reason: SquashReason) {
        let now = self.q.now();
        self.cl.obs_abort(si, reason.label(), now);
        let token = self.token(si);
        if self.slots[si].fallback {
            // Fallback aborts only happen on membership-epoch straddles
            // or fetch timeouts; release whatever node-ordered batches
            // the attempt had already acquired.
            for i in 0..self.ext[si].fallback_locks.len() {
                let rid = self.ext[si].fallback_locks[i];
                if self.cl.db.record(rid).locked_by(token) {
                    self.cl.db.record_mut(rid).unlock(token);
                }
            }
        }
        if self.cl.injector_active() {
            // A dropped LockResp can leave a remotely acquired lock the
            // coordinator never learned about; sweep the whole write set
            // for records still held by this slot's token.
            self.fill_write_set(si);
            for i in 0..self.ext[si].wset.len() {
                let rid = self.ext[si].wset[i].0;
                let x = &self.ext[si];
                if !x.locked.contains(&rid) && self.cl.db.record(rid).locked_by(token) {
                    self.ext[si].locked.push(rid);
                }
            }
        }
        let node = self.slots[si].node;
        let held = self.ext[si].locked.len();
        for i in 0..held {
            let rid = self.ext[si].locked[i];
            if self.routed_home(rid) == node {
                self.cl.db.record_mut(rid).unlock(token);
            }
        }
        // One Unlock per remote home, in the order the homes first appear
        // among the held locks.
        let core = self.slots[si].core;
        let mut cursor = now;
        let mut unlocks_done = Cycles::ZERO;
        for i in 0..held {
            let locked = &self.ext[si].locked;
            let dst = self.routed_home(locked[i]);
            if dst == node || locked[..i].iter().any(|&r| self.routed_home(r) == dst) {
                continue;
            }
            let rids: Vec<RecordId> = locked[i..]
                .iter()
                .copied()
                .filter(|&r| self.routed_home(r) == dst)
                .collect();
            let sent = self.cl.issue(
                cursor,
                CoreVerb {
                    node,
                    core,
                    dst,
                    bytes: wire_size(0, 64),
                    verb: Verb::Unlock,
                    wrs: 1,
                    fault_exempt: false,
                },
            );
            cursor = sent.depart;
            let arrive = sent.arrival;
            unlocks_done = unlocks_done.max(arrive);
            let ev = BaselineEv::RemoteUnlock { rids, owner: token };
            self.q.push_at(arrive, ev.into());
        }
        self.ext[si].locked.clear();
        if self.meas.measuring() {
            self.meas.stats.note_squash(node.0, reason);
        }
        self.slots[si].awaiting_start = true;
        // Owner tokens are per-slot, not per-attempt: the next attempt
        // must not re-lock a record before a delayed Unlock from this
        // attempt lands and releases it out from under the new holder.
        self.schedule_retry(si, cursor, unlocks_done, false);
    }

    /// Fallback: acquire record locks one *node* at a time (batched CAS
    /// message per node, in node order). All-or-nothing per batch: if any
    /// record in the batch is busy, the batch's acquisitions are released
    /// and the batch retried. Node-ordered acquisition makes waits point
    /// only "forward", so fallback transactions cannot deadlock.
    ///
    /// Each poll re-reads the routing: the cursor names the cursor-th
    /// distinct routed home of the (sorted) lock list in node order, and
    /// the batch is the locks homed there, in list order.
    fn on_fallback_lock(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let token = self.token(si);
        let mut homes = std::mem::take(&mut self.ext[si].fallback_homes);
        homes.clear();
        homes.extend(
            self.ext[si]
                .fallback_locks
                .iter()
                .map(|&rid| self.routed_home(rid)),
        );
        homes.sort_unstable();
        homes.dedup();
        let home = homes.get(self.slots[si].fallback_cursor).copied();
        self.ext[si].fallback_homes = homes;
        let Some(home) = home else {
            self.q.push_at(now, Ev::ExecStage { si, att });
            return;
        };
        if self.crashed[home.0 as usize] {
            // The batch's (routed) host is down: retry after the usual
            // lock backoff — reconfiguration will reroute the batch.
            self.q
                .push_at(now + RetryParams::LOCK_RETRY, Ev::FallbackLock { si, att });
            return;
        }
        let mut batch = std::mem::take(&mut self.ext[si].fallback_batch);
        batch.clear();
        batch.extend(
            self.ext[si]
                .fallback_locks
                .iter()
                .copied()
                .filter(|&rid| self.routed_home(rid) == home),
        );
        let lock_cost = self.cl.cfg.sw.lock_local * batch.len() as u64;
        self.charge(si, Overhead::ConflictDetection, lock_cost);
        let mut when = self.cl.run_on_core(node, core, now, lock_cost);
        if home != node {
            // One round trip carries the whole batch of CAS operations.
            let arrive = self.cl.send_fault_exempt(
                when,
                node,
                home,
                wire_size(0, 64) + batch.len() * 16,
                Verb::Lock,
            );
            let mut svc = Cycles::ZERO;
            for &rid in &batch {
                let first_line = [self.cl.db.record(rid).lines().next().expect("record")];
                let (lat, _) = self.cl.access_lines_nic(home, &first_line);
                svc += lat;
            }
            when = self.cl.send_fault_exempt(
                arrive + svc,
                home,
                node,
                wire_size(0, 64),
                Verb::LockResp,
            );
        }
        let acquired = batch
            .iter()
            .take_while(|&&rid| self.cl.db.record_mut(rid).try_lock(token))
            .count();
        if acquired == batch.len() {
            self.slots[si].fallback_cursor += 1;
            self.q.push_at(when, Ev::FallbackLock { si, att });
        } else {
            // Release this batch's acquired prefix and retry it.
            for &rid in &batch[..acquired] {
                self.cl.db.record_mut(rid).unlock(token);
            }
            self.q
                .push_at(when + RetryParams::LOCK_RETRY, Ev::FallbackLock { si, att });
        }
        self.ext[si].fallback_batch = batch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Experiment, Protocol, Run};
    use crate::runtime::RunOutcome;
    use hades_sim::config::SimConfig;
    use hades_storage::db::Database;
    use hades_workloads::catalog::AppId;
    use hades_workloads::smallbank::{Smallbank, SmallbankConfig};

    fn run_app(app_name: &str, warmup: u64, measure: u64) -> RunOutcome {
        let ex = Experiment {
            warmup,
            measure,
            ..Experiment::quick()
        };
        Run::apps(Protocol::Baseline, &ex, &[AppId::parse(app_name).unwrap()]).run()
    }

    #[test]
    fn overheads_are_majority_of_time() {
        // Section III: overhead categories are 59–71% of execution time.
        let out = run_app("HT-wA", 50, 300);
        let frac = out.stats.overhead.overhead_fraction();
        assert!(
            (0.40..0.85).contains(&frac),
            "overhead fraction {frac} outside plausible band"
        );
    }

    #[test]
    fn phases_cover_all_three() {
        let out = run_app("Smallbank", 20, 200);
        assert!(out.stats.phases.execution > 0);
        assert!(out.stats.phases.total() > 0);
    }

    #[test]
    fn aborts_happen_under_extreme_contention() {
        let cfg = SimConfig::isca_default();
        let mut db = Database::new(cfg.shape.nodes);
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts: 1_000,
                hotspot: Some((4, 0.95)),
            },
        );
        let out = Run::loaded(Protocol::Baseline, cfg, db, Box::new(sb), 0, 400).run();
        assert!(out.stats.squashes > 0, "hotspot contention must abort");
    }

    #[test]
    fn read_only_workload_skips_locking() {
        // A pure-read run should produce zero record-lock aborts.
        let out = run_app("HT-wB", 0, 200);
        assert!(out.stats.squashes_for(SquashReason::RecordLockBusy) <= 200);
        assert!(out.stats.committed >= 200);
    }
}
