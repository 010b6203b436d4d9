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

use crate::runtime::{
    apply_write, owner_token, resolve, Cluster, CoreVerb, Measurement, MigrationAction, ResolvedOp,
    ResolvedTxn, WorkloadSet,
};
use crate::stats::{Overhead, Phase, RunStats, SquashReason};
use hades_fault::InjectedFault;
use hades_net::fabric::wire_size;
use hades_sim::engine::EventQueue;
use hades_sim::ids::{CoreId, NodeId, SlotId};
use hades_sim::rng::SimRng;
use hades_sim::time::Cycles;
use hades_storage::record::RecordId;
use hades_telemetry::event::{EventKind, Phase as TracePhase, RecoveryKind, Verb, NO_SLOT};
use hades_telemetry::profile::ProfPhase;

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

#[derive(Debug)]
struct Slot {
    node: NodeId,
    slot: SlotId,
    core: CoreId,
    attempt: u32,
    consec_squashes: u32,
    fallback: bool,
    txn: Option<ResolvedTxn>,
    first_start: Cycles,
    attempt_start: Cycles,
    exec_end: Cycles,
    valid_end: Cycles,
    stage: usize,
    outstanding: u32,
    /// Charged cycles per Fig 3 category for the current attempt.
    cat: [u64; 6],
    read_versions: Vec<(RecordId, u64)>,
    write_versions: Vec<(RecordId, u64)>,
    locked: Vec<RecordId>,
    lock_ok: bool,
    validate_ok: bool,
    fallback_locks: Vec<RecordId>,
    fallback_cursor: usize,
    /// Response ids already processed this attempt (dedup for duplicated
    /// LockResp/ValidateResp copies under fault injection).
    resp_seen: Vec<u32>,
    /// Next response id to assign this attempt.
    rsp_next: u32,
    /// Bumped at every validation round so a stale `RpcTimeout` armed for
    /// an earlier round cannot abort a later one.
    rpc_epoch: u32,
    /// Configuration epoch this attempt started in (straddle detection).
    epoch: u64,
    /// Past the point of no return: local writes applied and remote
    /// applies shipped. A crash after this point finalizes the ledger.
    durable: bool,
    /// A retry/restart `Start` is legitimately pending for this slot even
    /// though `txn` is still set (disambiguates stale duplicate Starts
    /// deferred across a crash window).
    awaiting_start: bool,
}

#[derive(Debug)]
enum Ev {
    Start {
        si: usize,
    },
    ExecStage {
        si: usize,
        att: u32,
    },
    OpDone {
        si: usize,
        att: u32,
    },
    /// A remote whole-record fetch response arrived at the origin.
    RemoteFetch {
        si: usize,
        att: u32,
        lines: usize,
        is_write: bool,
    },
    LockResp {
        si: usize,
        att: u32,
        acquired: Vec<RecordId>,
        ok: bool,
        rsp_id: u32,
        from: NodeId,
        ep: u64,
    },
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
    RpcTimeout {
        si: usize,
        att: u32,
        epoch: u32,
    },
    /// Commit-time write application at a remote home node (one-way).
    RemoteApply {
        ops: Vec<ResolvedOp>,
        owner: u64,
    },
    RemoteUnlock {
        rids: Vec<RecordId>,
        owner: u64,
    },
    FallbackLock {
        si: usize,
        att: u32,
    },
    Committed {
        si: usize,
        att: u32,
    },
    /// Scheduled node crash (fault plan; only armed when the membership
    /// layer is on — the software protocol has no lease machinery of its
    /// own, so failover is its only recovery path).
    NodeCrash {
        node: NodeId,
    },
    /// Scheduled node restart: release stashed orphan locks and resume.
    NodeRestart {
        node: NodeId,
    },
    /// Membership layer: a node renews its cluster lease (control plane,
    /// no fabric traffic).
    LeaseRenew {
        node: NodeId,
    },
    /// Membership layer: periodic failure-detector sweep over missed
    /// lease renewals.
    MembershipTick,
    /// Membership layer: an exec-phase remote fetch has been outstanding
    /// too long (its home may be dead forever) — abort and retry.
    FetchTimeout {
        si: usize,
        att: u32,
        stage: usize,
    },
    /// Planned reconfiguration: advance the live-migration state machine
    /// (announce → copy chunks → catch-up → cutover; DESIGN.md §15).
    MigrationTick,
}

// Every event moves through the queue; keep fat payloads boxed.
const _: () = assert!(std::mem::size_of::<Ev>() <= 64);

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
#[derive(Debug)]
pub struct BaselineSim {
    cl: Cluster,
    q: EventQueue<Ev>,
    ws: WorkloadSet,
    meas: Measurement,
    slots: Vec<Slot>,
    slot_rngs: Vec<SimRng>,
    draining: bool,
    locality: Option<f64>,
    /// Nodes currently down under the fault plan (membership runs only).
    crashed: Vec<bool>,
    /// Pending restart time of each crashed node.
    restart_at: Vec<Option<Cycles>>,
    /// Record locks a crashed node's transactions still hold, released
    /// at reconfiguration (or restart), per dead node.
    orphan_locks: Vec<Vec<(RecordId, u64)>>,
    /// Net committed RMW delta since the start of the run (warmup
    /// included) — the conservation-check ledger.
    pub total_sum_delta: i64,
    /// Total commits since the start of the run.
    pub total_commits: u64,
}

impl BaselineSim {
    /// Builds a Baseline run: `warmup` commits discarded, then `measure`
    /// commits recorded.
    pub fn new(mut cl: Cluster, ws: WorkloadSet, warmup: u64, measure: u64) -> Self {
        let shape = cl.cfg.shape;
        let spn = shape.slots_per_node();
        let m = shape.slots_per_core;
        let mut slots = Vec::with_capacity(shape.nodes * spn);
        let mut slot_rngs = Vec::with_capacity(shape.nodes * spn);
        for n in 0..shape.nodes {
            for s in 0..spn {
                slots.push(Slot {
                    node: NodeId(n as u16),
                    slot: SlotId(s as u16),
                    core: SlotId(s as u16).core(m),
                    attempt: 0,
                    consec_squashes: 0,
                    fallback: false,
                    txn: None,
                    first_start: Cycles::ZERO,
                    attempt_start: Cycles::ZERO,
                    exec_end: Cycles::ZERO,
                    valid_end: Cycles::ZERO,
                    stage: 0,
                    outstanding: 0,
                    cat: [0; 6],
                    read_versions: Vec::new(),
                    write_versions: Vec::new(),
                    locked: Vec::new(),
                    lock_ok: true,
                    validate_ok: true,
                    fallback_locks: Vec::new(),
                    fallback_cursor: 0,
                    resp_seen: Vec::new(),
                    rsp_next: 0,
                    rpc_epoch: 0,
                    epoch: 0,
                    durable: false,
                    awaiting_start: false,
                });
                slot_rngs.push(cl.rng.fork());
            }
        }
        let apps = ws.len();
        let locality = cl.cfg.local_fraction;
        let nodes = shape.nodes;
        BaselineSim {
            cl,
            q: EventQueue::new(),
            ws,
            meas: Measurement::new(warmup, measure, apps),
            slots,
            slot_rngs,
            draining: false,
            locality,
            crashed: vec![false; nodes],
            restart_at: vec![None; nodes],
            orphan_locks: vec![Vec::new(); nodes],
            total_sum_delta: 0,
            total_commits: 0,
        }
    }

    /// Runs to completion (including draining in-flight transactions) and
    /// returns the measured statistics.
    pub fn run(self) -> RunStats {
        self.run_full().stats
    }

    /// Runs to completion, returning the statistics together with the
    /// final cluster state and the all-run commit ledger (for invariant
    /// checks).
    pub fn run_full(mut self) -> crate::runtime::RunOutcome {
        for si in 0..self.slots.len() {
            self.q
                .push_at(Cycles::new(si as u64 * 37), Ev::Start { si });
        }
        // The software protocol has no lease machinery, so crash events
        // are only meaningful when the membership layer can reconfigure
        // around them. Gating keeps membership-off runs byte-identical.
        if self.cl.membership.enabled() {
            for crash in self.cl.fabric.injector().crashes().to_vec() {
                self.q.push_at(
                    crash.at,
                    Ev::NodeCrash {
                        node: NodeId(crash.node),
                    },
                );
                if let Some(r) = crash.restart_at {
                    self.q.push_at(
                        r,
                        Ev::NodeRestart {
                            node: NodeId(crash.node),
                        },
                    );
                }
            }
            let interval = self.cl.membership.renew_interval();
            for n in 0..self.cl.cfg.shape.nodes {
                self.q.push_at(
                    interval,
                    Ev::LeaseRenew {
                        node: NodeId(n as u16),
                    },
                );
            }
            self.q
                .push_at(interval + Cycles::new(1), Ev::MembershipTick);
        }
        if self.cl.cfg.migration.enabled() {
            self.q
                .push_at(self.cl.cfg.migration.start_at, Ev::MigrationTick);
        }
        while let Some((_, ev)) = self.q.pop() {
            self.handle(ev);
        }
        let mut stats = self.meas.stats;
        stats.profile = self.cl.profile.take().map(|b| *b);
        let (spans, timeseries) = self.cl.finish_observability();
        stats.spans = spans;
        stats.timeseries = timeseries;
        stats.node_verbs = self.cl.verbs_by_node.clone();
        stats.messages = self.cl.fabric.messages_sent();
        stats.verbs = *self.cl.fabric.verb_counts();
        stats.batching = self.cl.fabric.take_batch_stats();
        stats.llc_eviction_squashes = self.cl.mems.iter().map(|m| m.eviction_squashes()).sum();
        let inj = self.cl.fabric.injector();
        stats.faults = inj.faults;
        stats.recovery = inj.recovery;
        stats.dropped_messages = inj.faults.drops;
        stats.membership = self.cl.membership.stats;
        stats.migration = self.cl.migration_stats();
        stats.nemesis = self.cl.nemesis_stats(self.q.now());
        crate::runtime::RunOutcome {
            stats,
            cluster: self.cl,
            total_sum_delta: self.total_sum_delta,
            total_commits: self.total_commits,
            // The software protocol has no replica-prepare queues.
            replica_pending_leaked: 0,
        }
    }

    fn alive(&self, si: usize, att: u32) -> bool {
        self.slots[si].attempt == att && self.slots[si].txn.is_some()
    }

    fn charge(&mut self, si: usize, cat: Overhead, c: Cycles) {
        self.slots[si].cat[cat_index(cat)] += c.get();
    }

    fn token(&self, si: usize) -> u64 {
        owner_token(self.slots[si].node, self.slots[si].slot)
    }

    /// Transactions currently running on `node` (admission-control load
    /// signal); admission-deferred slots hold no txn and do not count.
    fn inflight_at(&self, node: NodeId) -> usize {
        self.slots
            .iter()
            .filter(|s| s.node == node && s.txn.is_some())
            .count()
    }

    fn write_set(&self, si: usize) -> Vec<(RecordId, NodeId)> {
        let mut v: Vec<(RecordId, NodeId)> = self.slots[si]
            .txn
            .as_ref()
            .expect("txn active")
            .ops()
            .filter(|op| op.is_write())
            .map(|op| (op.rid, op.home))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Stamps a transaction-lifecycle trace event for `si`'s slot.
    fn trace(&self, at: Cycles, si: usize, kind: EventKind) {
        let s = &self.slots[si];
        self.cl.tracer.emit(at, s.node.0, s.slot.0 as u32, kind);
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Start { si } => self.on_start(si),
            Ev::ExecStage { si, att } if self.alive(si, att) => self.on_exec_stage(si, att),
            Ev::OpDone { si, att } if self.alive(si, att) => self.on_op_done(si, att),
            Ev::RemoteFetch {
                si,
                att,
                lines,
                is_write,
            } if self.alive(si, att) => self.on_remote_fetch(si, att, lines, is_write),
            Ev::LockResp {
                si,
                att,
                acquired,
                ok,
                rsp_id,
                from,
                ep,
            } => {
                let node = self.slots[si].node;
                if self.cl.membership.should_fence(ep, from) {
                    // A stale lock grant from a node declared dead: the
                    // coordinator's abort sweep reclaims any lock it
                    // carried, so dropping it is safe.
                    self.fence_verb(node, Verb::LockResp);
                } else {
                    self.on_lock_resp(si, att, acquired, ok, rsp_id);
                }
            }
            Ev::ValidateResp {
                si,
                att,
                ok,
                rsp_id,
                from,
                ep,
            } => {
                let node = self.slots[si].node;
                if self.cl.membership.should_fence(ep, from) {
                    self.fence_verb(node, Verb::ValidateResp);
                } else if self.alive(si, att) {
                    self.on_validate_resp(si, att, ok, rsp_id);
                }
            }
            Ev::RpcTimeout { si, att, epoch } if self.alive(si, att) => {
                self.on_rpc_timeout(si, att, epoch)
            }
            Ev::RemoteApply { ops, owner } => self.on_remote_apply(ops, owner),
            Ev::RemoteUnlock { rids, owner } => {
                for rid in rids {
                    self.cl.db.record_mut(rid).unlock(owner);
                }
            }
            Ev::FallbackLock { si, att } if self.alive(si, att) => self.on_fallback_lock(si, att),
            Ev::Committed { si, att } if self.alive(si, att) => self.on_committed(si, att),
            Ev::NodeCrash { node } => self.on_node_crash(node),
            Ev::NodeRestart { node } => self.on_node_restart(node),
            Ev::LeaseRenew { node } => self.on_lease_renew(node),
            Ev::MembershipTick => self.on_membership_tick(),
            Ev::FetchTimeout { si, att, stage } if self.alive(si, att) => {
                let s = &self.slots[si];
                if s.stage == stage && s.outstanding > 0 {
                    self.abort(si, SquashReason::CommitTimeout);
                }
            }
            Ev::MigrationTick => self.on_migration_tick(),
            _ => {} // stale event for a squashed attempt
        }
    }

    /// Planned-reconfiguration tick: drives the cluster's migration state
    /// machine; at cutover, aborts the lock/validation rounds that
    /// straddle the routing flip and retries them (DESIGN.md §15). The
    /// software protocol keeps its locks on the records themselves, so
    /// only in-flight rounds — whose unlock routing was decided under the
    /// old map — need fencing; there is no NIC filter state to hand over.
    fn on_migration_tick(&mut self) {
        if self.draining {
            return; // like the detector, the plan freezes once the run drains
        }
        let now = self.q.now();
        match self.cl.migration_step(now) {
            MigrationAction::Rearm(at) => self.q.push_at(at, Ev::MigrationTick),
            MigrationAction::Cutover(moves) => {
                let mut fenced = 0u64;
                for si in 0..self.slots.len() {
                    let s = &self.slots[si];
                    if s.outstanding == 0 || s.durable || s.awaiting_start || s.txn.is_none() {
                        continue;
                    }
                    let touches = s
                        .txn
                        .as_ref()
                        .expect("txn checked above")
                        .ops()
                        .any(|o| moves.iter().any(|&(src, _)| o.home == src));
                    if !touches {
                        continue;
                    }
                    let node = self.slots[si].node;
                    self.fence_verb(node, Verb::LockResp);
                    fenced += 1;
                    // The abort's remote unlocks route via the pre-cutover
                    // map, releasing the locks where they were taken.
                    self.slots[si].outstanding = 0;
                    self.abort(si, SquashReason::CommitTimeout);
                }
                self.cl.finish_cutover(now, &[], fenced);
            }
            MigrationAction::Done => {}
        }
    }

    fn on_start(&mut self, si: usize) {
        if self.draining {
            self.slots[si].txn = None;
            return;
        }
        let down = self.slots[si].node.0 as usize;
        if self.crashed[down] {
            // The node is down: defer this slot until the restart.
            if let Some(r) = self.restart_at[down] {
                self.q.push_at(r, Ev::Start { si });
            }
            return;
        }
        if self.slots[si].txn.is_some() && !self.slots[si].awaiting_start {
            // Stale duplicate: a pre-crash backoff Start deferred to the
            // restart instant collides with the crash handler's own
            // restart Start. The slot is already running this attempt.
            return;
        }
        let now = self.q.now();
        let retry_limit = self.cl.fallback_threshold();
        // Admission control gates new transactions only, never retries.
        // Baseline has no Locking Buffers, so its occupancy signal is the
        // bank's (always-zero) occupancy; the in-flight and abort-rate
        // signals do the work.
        if self.slots[si].txn.is_none() && self.cl.admission.active() {
            let node = self.slots[si].node;
            let nb = node.0 as usize;
            let inflight = self.inflight_at(node);
            let occupancy = self.cl.lock_bufs[nb].occupancy();
            if !self.cl.admission.admit(node, inflight, occupancy) {
                if self.cl.tracer.is_enabled() {
                    self.trace(now, si, EventKind::AdmissionThrottled);
                }
                if self.meas.measuring() && !self.draining {
                    self.meas.stats.overload.admission_throttled += 1;
                }
                self.cl.obs_admission(now);
                self.q
                    .push_at(now + self.cl.cfg.overload.admit_retry, Ev::Start { si });
                return;
            }
        }
        let fresh = self.slots[si].txn.is_none();
        if fresh {
            let (node, core) = (self.slots[si].node, self.slots[si].core);
            let (app, mut spec) =
                self.ws
                    .next_txn(node, core, &self.cl.db, &mut self.slot_rngs[si]);
            if let Some(f) = self.locality {
                hades_workloads::spec::apply_locality(
                    &mut spec,
                    node,
                    f,
                    &self.cl.db,
                    &mut self.slot_rngs[si],
                );
            }
            let txn = resolve(&self.cl.db, &spec, app);
            let s = &mut self.slots[si];
            s.txn = Some(txn);
            s.first_start = now;
            s.consec_squashes = 0;
        }
        {
            let s = &mut self.slots[si];
            s.fallback = s.consec_squashes >= retry_limit;
            s.attempt_start = now;
            s.stage = 0;
            s.outstanding = 0;
            s.cat = [0; 6];
            s.read_versions.clear();
            s.write_versions.clear();
            s.locked.clear();
            s.lock_ok = true;
            s.validate_ok = true;
            s.resp_seen.clear();
            s.rsp_next = 0;
            s.rpc_epoch = 0;
            s.durable = false;
            s.awaiting_start = false;
        }
        self.slots[si].epoch = self.cl.membership.epoch();
        {
            let node = self.slots[si].node.0;
            let spn = self.cl.cfg.shape.slots_per_node();
            self.cl.obs_start(si, node, (si % spn) as u32, now, fresh);
        }
        let att = self.slots[si].attempt;
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::TxnBegin { attempt: att });
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Exec));
        }
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let app_cost = self.cl.cfg.sw.app_per_txn;
        self.charge(si, Overhead::Other, app_cost);
        let done = self.cl.run_on_core(node, core, now, app_cost);
        if self.slots[si].fallback {
            let mut rids: Vec<RecordId> = self.slots[si]
                .txn
                .as_ref()
                .expect("txn set")
                .ops()
                .map(|op| op.rid)
                .collect();
            rids.sort_unstable();
            rids.dedup();
            let s = &mut self.slots[si];
            s.fallback_locks = rids;
            s.fallback_cursor = 0;
            if self.meas.measuring() {
                self.meas.stats.fallbacks += 1;
            }
            self.q.push_at(done, Ev::FallbackLock { si, att });
        } else {
            self.q.push_at(done, Ev::ExecStage { si, att });
        }
    }

    fn on_exec_stage(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let stage_idx = self.slots[si].stage;
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let ops: Vec<ResolvedOp> =
            self.slots[si].txn.as_ref().expect("txn active").stages[stage_idx].clone();
        if ops.is_empty() {
            self.slots[si].outstanding = 1;
            self.q.push_at(now, Ev::OpDone { si, att });
            return;
        }
        self.slots[si].outstanding = ops.len() as u32;
        let fallback = self.slots[si].fallback;
        let mut cursor = now;
        for op in &ops {
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
                        reliable: true,
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
                        cursor + self.cl.membership.params().fetch_timeout,
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
                let back =
                    self.cl
                        .send_faulty_one(arrive + svc, target, node, resp_sz, Verb::ReadResp);
                self.record_versions(si, op, fallback);
                self.q.push_at(
                    back,
                    Ev::RemoteFetch {
                        si,
                        att,
                        lines: op.record_lines.len(),
                        is_write: op.is_write(),
                    },
                );
            }
        }
    }

    fn record_versions(&mut self, si: usize, op: &ResolvedOp, fallback: bool) {
        if fallback {
            return;
        }
        let v = self.cl.db.record(op.rid).version();
        let s = &mut self.slots[si];
        if op.is_write() {
            if !s.write_versions.iter().any(|(r, _)| *r == op.rid) {
                s.write_versions.push((op.rid, v));
            }
        } else if !s.read_versions.iter().any(|(r, _)| *r == op.rid) {
            s.read_versions.push((op.rid, v));
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

    fn on_op_done(&mut self, si: usize, att: u32) {
        let s = &mut self.slots[si];
        debug_assert!(s.outstanding > 0);
        s.outstanding -= 1;
        if s.outstanding > 0 {
            return;
        }
        let stages = s.txn.as_ref().expect("txn active").stages.len();
        if s.stage + 1 < stages {
            s.stage += 1;
            let now = self.q.now();
            self.q.push_at(now, Ev::ExecStage { si, att });
        } else if s.fallback {
            let now = self.q.now();
            self.slots[si].exec_end = now;
            if self.cl.tracer.is_enabled() {
                self.trace(now, si, EventKind::PhaseEnd(TracePhase::Exec));
            }
            self.begin_commit(si, att, now);
        } else {
            self.begin_validation(si, att);
        }
    }

    fn begin_validation(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        self.slots[si].exec_end = now;
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseEnd(TracePhase::Exec));
        }
        // Epoch straddle: a node died since this attempt started, so its
        // routing decisions may be stale. Abort and retry in the new
        // epoch rather than lock across the boundary. Planned-migration
        // epoch bumps do not abort here: the dual-routing window keeps
        // the source authoritative until the cutover fences actual
        // straddlers.
        if self.cl.membership.epoch_aware()
            && self.slots[si].epoch != self.cl.membership.epoch()
            && self.cl.membership.death_since(self.slots[si].epoch)
        {
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
        let wset = self.write_set(si);
        if wset.is_empty() {
            self.begin_read_validation(si, att, now);
            return;
        }
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Lock));
        }
        self.slots[si].rpc_epoch += 1;
        let epoch = self.slots[si].rpc_epoch;
        let mem_ep = self.cl.membership.epoch();
        let mut outstanding = 0u32;
        let mut cursor = now;
        // Placement is routed through the membership layer: a partition
        // whose primary died may now be homed here or at a promoted
        // backup (identity mapping when membership is off).
        let locals: Vec<RecordId> = wset
            .iter()
            .filter(|(_, h)| self.cl.route(*h) == node)
            .map(|(r, _)| *r)
            .collect();
        if !locals.is_empty() {
            outstanding += 1;
            let mut ok = true;
            let mut cost = Cycles::ZERO;
            for rid in &locals {
                cost += sw.lock_local;
                let expected = self.expected_write_version(si, *rid);
                let rec = self.cl.db.record_mut(*rid);
                if rec.version() == expected && rec.try_lock(token) {
                    self.slots[si].locked.push(*rid);
                } else {
                    ok = false;
                }
            }
            self.charge(si, Overhead::ConflictDetection, cost);
            cursor = self.cl.run_on_core(node, core, cursor, cost);
            let rsp_id = self.next_rsp_id(si);
            self.q.push_at(
                cursor,
                Ev::LockResp {
                    si,
                    att,
                    acquired: Vec::new(),
                    ok,
                    rsp_id,
                    from: node,
                    ep: mem_ep,
                },
            );
        }
        let mut nodes: Vec<NodeId> = wset
            .iter()
            .map(|(_, h)| self.cl.route(*h))
            .filter(|p| *p != node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        for dst in nodes {
            outstanding += 1;
            let rids: Vec<RecordId> = wset
                .iter()
                .filter(|(_, h)| self.cl.route(*h) == dst)
                .map(|(r, _)| *r)
                .collect();
            let sent = self.cl.issue(
                cursor,
                CoreVerb {
                    node,
                    core,
                    dst,
                    bytes: wire_size(0, 64) + rids.len() * 16,
                    verb: Verb::Lock,
                    wrs: rids.len() as u64,
                    reliable: false,
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
            let mut acquired = Vec::new();
            for rid in &rids {
                let first_line = [self.cl.db.record(*rid).lines().next().expect("record")];
                let (lat, _) = self.cl.access_lines_nic(dst, &first_line);
                svc += lat;
                let expected = self.expected_write_version(si, *rid);
                let rec = self.cl.db.record_mut(*rid);
                if rec.version() == expected && rec.try_lock(token) {
                    acquired.push(*rid);
                } else {
                    ok = false;
                }
            }
            let rsp_id = self.next_rsp_id(si);
            for back in
                self.cl
                    .send_faulty(arrive + svc, dst, node, wire_size(0, 64), Verb::LockResp)
            {
                self.q.push_at(
                    back,
                    Ev::LockResp {
                        si,
                        att,
                        acquired: acquired.clone(),
                        ok,
                        rsp_id,
                        from: dst,
                        ep: mem_ep,
                    },
                );
            }
        }
        self.slots[si].outstanding = outstanding;
        self.cl.obs_round_begin(si, Verb::Lock, outstanding, now);
        if self.cl.injector_active() && outstanding > 0 {
            let deadline = cursor + self.cl.cfg.repl.ack_timeout;
            self.q.push_at(deadline, Ev::RpcTimeout { si, att, epoch });
        }
    }

    /// Assigns the next per-attempt response id for `si` (LockResp /
    /// ValidateResp deduplication under fault injection).
    fn next_rsp_id(&mut self, si: usize) -> u32 {
        let s = &mut self.slots[si];
        let id = s.rsp_next;
        s.rsp_next += 1;
        id
    }

    fn expected_write_version(&self, si: usize, rid: RecordId) -> u64 {
        self.slots[si]
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
                if self.cl.injector_active() && self.slots[si].locked.contains(&rid) {
                    continue;
                }
                self.cl.db.record_mut(rid).unlock(token);
            }
            return;
        }
        if self.slots[si].resp_seen.contains(&rsp_id) {
            return; // duplicated copy of an already-processed response
        }
        self.slots[si].resp_seen.push(rsp_id);
        self.slots[si].locked.extend(acquired);
        if !ok {
            self.slots[si].lock_ok = false;
        }
        self.charge(si, Overhead::ConflictDetection, self.cl.cfg.sw.rdma_poll);
        let s = &mut self.slots[si];
        debug_assert!(s.outstanding > 0);
        s.outstanding -= 1;
        if s.outstanding > 0 {
            return;
        }
        if !self.slots[si].lock_ok {
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
        let wset: Vec<RecordId> = self.write_set(si).iter().map(|(r, _)| *r).collect();
        let rset: Vec<(RecordId, u64)> = self.slots[si]
            .read_versions
            .iter()
            .filter(|(rid, _)| !wset.contains(rid))
            .copied()
            .collect();
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Validate));
        }
        if rset.is_empty() {
            if self.cl.tracer.is_enabled() {
                self.trace(now, si, EventKind::PhaseEnd(TracePhase::Validate));
            }
            self.begin_commit(si, att, now);
            return;
        }
        self.slots[si].rpc_epoch += 1;
        let epoch = self.slots[si].rpc_epoch;
        let mem_ep = self.cl.membership.epoch();
        let mut outstanding = 0u32;
        let mut cursor = now;
        let locals: Vec<(RecordId, u64)> = rset
            .iter()
            .filter(|(rid, _)| self.cl.route(self.cl.db.record(*rid).home()) == node)
            .copied()
            .collect();
        if !locals.is_empty() {
            outstanding += 1;
            let mut cost = Cycles::ZERO;
            let mut ok = true;
            for (rid, v) in &locals {
                cost += sw.validate_per_record;
                let first_line = [self.cl.db.record(*rid).lines().next().expect("record")];
                let (lat, _) = self.cl.access_lines(node, core, &first_line);
                cost += lat;
                let rec = self.cl.db.record(*rid);
                if rec.version() != *v || (rec.is_locked() && !rec.locked_by(token)) {
                    ok = false;
                }
            }
            self.charge(si, Overhead::ConflictDetection, cost);
            cursor = self.cl.run_on_core(node, core, cursor, cost);
            let rsp_id = self.next_rsp_id(si);
            self.q.push_at(
                cursor,
                Ev::ValidateResp {
                    si,
                    att,
                    ok,
                    rsp_id,
                    from: node,
                    ep: mem_ep,
                },
            );
        }
        let mut nodes: Vec<NodeId> = rset
            .iter()
            .map(|(rid, _)| self.cl.route(self.cl.db.record(*rid).home()))
            .filter(|p| *p != node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        for dst in nodes {
            outstanding += 1;
            let entries: Vec<(RecordId, u64)> = rset
                .iter()
                .filter(|(rid, _)| self.cl.route(self.cl.db.record(*rid).home()) == dst)
                .copied()
                .collect();
            let sent = self.cl.issue(
                cursor,
                CoreVerb {
                    node,
                    core,
                    dst,
                    bytes: wire_size(0, 64),
                    verb: Verb::Validate,
                    wrs: 1,
                    reliable: false,
                },
            );
            self.charge(si, Overhead::ConflictDetection, sent.cost);
            self.charge(
                si,
                Overhead::ConflictDetection,
                sw.validate_per_record * entries.len() as u64,
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
            for (rid, v) in &entries {
                let first_line = [self.cl.db.record(*rid).lines().next().expect("record")];
                let (lat, _) = self.cl.access_lines_nic(dst, &first_line);
                svc += lat;
                let rec = self.cl.db.record(*rid);
                if rec.version() != *v || (rec.is_locked() && !rec.locked_by(token)) {
                    ok = false;
                }
            }
            let rsp_id = self.next_rsp_id(si);
            for back in self.cl.send_faulty(
                arrive + svc,
                dst,
                node,
                wire_size(0, 64),
                Verb::ValidateResp,
            ) {
                self.q.push_at(
                    back,
                    Ev::ValidateResp {
                        si,
                        att,
                        ok,
                        rsp_id,
                        from: dst,
                        ep: mem_ep,
                    },
                );
            }
        }
        self.slots[si].outstanding = outstanding;
        self.cl
            .obs_round_begin(si, Verb::Validate, outstanding, now);
        if self.cl.injector_active() && outstanding > 0 {
            let deadline = cursor + self.cl.cfg.repl.ack_timeout;
            self.q.push_at(deadline, Ev::RpcTimeout { si, att, epoch });
        }
    }

    fn on_validate_resp(&mut self, si: usize, att: u32, ok: bool, rsp_id: u32) {
        if self.slots[si].resp_seen.contains(&rsp_id) {
            return; // duplicated copy of an already-processed response
        }
        self.slots[si].resp_seen.push(rsp_id);
        if !ok {
            self.slots[si].validate_ok = false;
        }
        self.charge(si, Overhead::ConflictDetection, self.cl.cfg.sw.rdma_poll);
        let s = &mut self.slots[si];
        debug_assert!(s.outstanding > 0);
        s.outstanding -= 1;
        if s.outstanding > 0 {
            return;
        }
        if !self.slots[si].validate_ok {
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
        if self.slots[si].rpc_epoch != epoch || self.slots[si].outstanding == 0 {
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
        self.slots[si].valid_end = now;
        // Epoch straddle: abort rather than apply writes with routing
        // decisions made in a configuration where a node has since died.
        // (The fallback path reaches here without passing
        // begin_validation.) Planned-migration bumps commit through.
        if self.cl.membership.epoch_aware()
            && self.slots[si].epoch != self.cl.membership.epoch()
            && self.cl.membership.death_since(self.slots[si].epoch)
        {
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
        self.slots[si].durable = true;
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let token = self.token(si);
        let all_ops: Vec<ResolvedOp> = self.slots[si]
            .txn
            .as_ref()
            .expect("txn active")
            .ops()
            .cloned()
            .collect();
        let mut local_cost = Cycles::ZERO;
        let mut remote: Vec<(NodeId, Vec<ResolvedOp>)> = Vec::new();
        for op in all_ops.into_iter().filter(|op| op.is_write()) {
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
                apply_write(&mut self.cl.db, &op);
                self.cl.migration_note_write(now, op.home);
                let rec = self.cl.db.record_mut(op.rid);
                rec.bump_version();
                rec.unlock(token);
            } else {
                let phys = self.cl.route(op.home);
                match remote.iter_mut().find(|(n, _)| *n == phys) {
                    Some((_, v)) => v.push(op),
                    None => remote.push((phys, vec![op])),
                }
            }
        }
        if self.slots[si].fallback {
            let rids = self.slots[si].fallback_locks.clone();
            for rid in rids {
                self.cl.db.record_mut(rid).unlock(token);
            }
        }
        let mut cursor = self.cl.run_on_core(node, core, now, local_cost);
        for (dst, ops) in remote {
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
                    reliable: true,
                },
            );
            self.charge(si, Overhead::ManageSets, stage + sent.cost);
            self.charge(
                si,
                Overhead::UpdateVersion,
                sw.version_update * ops.len() as u64,
            );
            cursor = sent.depart;
            let arrive = sent.arrival;
            self.q
                .push_at(arrive, Ev::RemoteApply { ops, owner: token });
        }
        self.q.push_at(cursor, Ev::Committed { si, att });
    }

    fn on_remote_apply(&mut self, ops: Vec<ResolvedOp>, owner: u64) {
        let now = self.q.now();
        for op in ops {
            let (_lat, _) = self.cl.access_lines_nic(op.home, &op.write_lines);
            apply_write(&mut self.cl.db, &op);
            self.cl.migration_note_write(now, op.home);
            let rec = self.cl.db.record_mut(op.rid);
            rec.bump_version();
            rec.unlock(owner);
        }
    }

    /// Folds the committing transaction's wall time into the Fig 3
    /// categories: charged costs as recorded; the uncharged remainder of
    /// each phase attributed per DESIGN.md §6.
    fn fold_overheads(&mut self, si: usize, now: Cycles) {
        let s = &self.slots[si];
        let _charged: u64 = s.cat.iter().sum();
        let exec_wall = s.exec_end.saturating_sub(s.attempt_start).get();
        let valid_wall = s.valid_end.saturating_sub(s.exec_end).get();
        let commit_wall = now.saturating_sub(s.valid_end).get();
        // Execution remainder: network waits. Attribute to RD-before-WR in
        // proportion to remote write fetches (reads are fundamental).
        let txn = s.txn.as_ref().expect("txn active");
        let node = s.node;
        let (mut rw, mut rr) = (0u64, 0u64);
        for op in txn.ops() {
            if !op.is_local_to(node) {
                if op.is_write() {
                    rw += 1;
                } else {
                    rr += 1;
                }
            }
        }
        let exec_charged: u64 = s.cat[cat_index(Overhead::Other)]
            + s.cat[cat_index(Overhead::ReadAtomicity)]
            + s.cat[cat_index(Overhead::RdBeforeWr)]
            + s.cat[cat_index(Overhead::ManageSets)];
        let exec_rem = exec_wall.saturating_sub(exec_charged);
        let (rd_b4_wr_extra, other_extra) = match exec_rem.checked_div(rw + rr) {
            None => (0, exec_rem),
            Some(_) => {
                let w = exec_rem * rw / (rw + rr);
                (w, exec_rem - w)
            }
        };
        // Validation remainder: lock + re-read round trips.
        let valid_charged = s.cat[cat_index(Overhead::ConflictDetection)];
        let valid_rem = valid_wall.saturating_sub(valid_charged);
        let cat = s.cat;
        let stats = &mut self.meas.stats;
        stats
            .overhead
            .add(Overhead::ManageSets, Cycles::new(cat[0]));
        stats
            .overhead
            .add(Overhead::UpdateVersion, Cycles::new(cat[1]));
        stats
            .overhead
            .add(Overhead::ReadAtomicity, Cycles::new(cat[2]));
        stats
            .overhead
            .add(Overhead::RdBeforeWr, Cycles::new(cat[3] + rd_b4_wr_extra));
        stats
            .overhead
            .add(Overhead::ConflictDetection, Cycles::new(cat[4] + valid_rem));
        stats.overhead.add(
            Overhead::Other,
            Cycles::new(cat[5] + other_extra + commit_wall),
        );
    }

    fn on_committed(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        {
            let s = &self.slots[si];
            let (node, latency) = (s.node.0, now.saturating_sub(s.first_start));
            let record = self.meas.measuring() && !self.draining;
            self.cl.obs_commit(si, node, now, latency, record);
        }
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseEnd(TracePhase::Commit));
            self.trace(now, si, EventKind::TxnCommit);
        }
        if self.meas.measuring() && !self.draining {
            self.fold_overheads(si, now);
        }
        let txn = self.slots[si].txn.take().expect("txn active");
        let txn_attempts = self.slots[si].consec_squashes as u64 + 1;
        self.slots[si].attempt = att + 1;
        self.slots[si].consec_squashes = 0;
        self.total_sum_delta += txn.sum_delta;
        self.total_commits += 1;
        self.cl.admission.note_outcome(self.slots[si].node, false);
        if self.meas.measuring() && !self.draining {
            let s = &self.slots[si];
            let stats = &mut self.meas.stats;
            if self.cl.cfg.overload.enabled() {
                stats.overload.max_attempts = stats.overload.max_attempts.max(txn_attempts);
            }
            stats.committed += 1;
            stats.note_commit_node(s.node.0);
            stats.committed_per_app[txn.app] += 1;
            stats.committed_sum_delta += txn.sum_delta;
            stats.latency.record(now.saturating_sub(s.first_start));
            stats
                .phases
                .add(Phase::Execution, s.exec_end.saturating_sub(s.first_start));
            stats
                .phases
                .add(Phase::Validation, s.valid_end.saturating_sub(s.exec_end));
            stats
                .phases
                .add(Phase::Commit, now.saturating_sub(s.valid_end));
        }
        if !self.draining && self.meas.on_commit(now) {
            self.draining = true;
        }
        self.q.push_at(now, Ev::Start { si });
    }

    fn abort(&mut self, si: usize, reason: SquashReason) {
        let now = self.q.now();
        self.cl
            .obs_abort(si, self.slots[si].node.0, reason.label(), now);
        if self.cl.tracer.is_enabled() {
            self.trace(
                now,
                si,
                EventKind::TxnAbort {
                    reason: reason.label(),
                },
            );
        }
        let token = self.token(si);
        if self.slots[si].fallback {
            // Fallback aborts only happen on membership-epoch straddles
            // or fetch timeouts; release whatever node-ordered batches
            // the attempt had already acquired.
            for rid in self.slots[si].fallback_locks.clone() {
                if self.cl.db.record(rid).locked_by(token) {
                    self.cl.db.record_mut(rid).unlock(token);
                }
            }
        }
        let mut locked = std::mem::take(&mut self.slots[si].locked);
        if self.cl.injector_active() {
            // A dropped LockResp can leave a remotely acquired lock the
            // coordinator never learned about; sweep the whole write set
            // for records still held by this slot's token.
            for (rid, _) in self.write_set(si) {
                if !locked.contains(&rid) && self.cl.db.record(rid).locked_by(token) {
                    locked.push(rid);
                }
            }
        }
        let node = self.slots[si].node;
        let mut remote_unlocks: Vec<(NodeId, Vec<RecordId>)> = Vec::new();
        for rid in locked {
            let phys = self.cl.route(self.cl.db.record(rid).home());
            if phys == node {
                self.cl.db.record_mut(rid).unlock(token);
            } else {
                match remote_unlocks.iter_mut().find(|(n, _)| *n == phys) {
                    Some((_, v)) => v.push(rid),
                    None => remote_unlocks.push((phys, vec![rid])),
                }
            }
        }
        let core = self.slots[si].core;
        let mut cursor = now;
        let mut unlocks_done = Cycles::ZERO;
        for (dst, rids) in remote_unlocks {
            let sent = self.cl.issue(
                cursor,
                CoreVerb {
                    node,
                    core,
                    dst,
                    bytes: wire_size(0, 64),
                    verb: Verb::Unlock,
                    wrs: 1,
                    reliable: true,
                },
            );
            cursor = sent.depart;
            let arrive = sent.arrival;
            unlocks_done = unlocks_done.max(arrive);
            self.q
                .push_at(arrive, Ev::RemoteUnlock { rids, owner: token });
        }
        if self.meas.measuring() {
            self.meas.stats.note_squash(node.0, reason);
        }
        let s = &mut self.slots[si];
        s.attempt += 1;
        s.consec_squashes += 1;
        s.awaiting_start = true;
        let attempts = s.consec_squashes;
        let (backoff, boosted) = self.cl.contended_backoff(attempts);
        if boosted {
            if self.cl.tracer.is_enabled() {
                self.trace(now, si, EventKind::StarvationBoost { attempt: attempts });
            }
            if self.meas.measuring() && !self.draining {
                self.meas.stats.overload.starvation_boosts += 1;
            }
        }
        self.cl.admission.note_outcome(node, true);
        let mut restart = cursor + backoff;
        if self.cl.injector_active() {
            // Owner tokens are per-slot, not per-attempt: the next attempt
            // must not re-lock a record before a delayed Unlock from this
            // attempt lands and releases it out from under the new holder.
            restart = restart.max(unlocks_done);
        }
        self.q.push_at(restart, Ev::Start { si });
    }

    /// Fallback: acquire record locks one *node* at a time (batched CAS
    /// message per node, in node order). All-or-nothing per batch: if any
    /// record in the batch is busy, the batch's acquisitions are released
    /// and the batch retried. Node-ordered acquisition makes waits point
    /// only "forward", so fallback transactions cannot deadlock.
    fn on_fallback_lock(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let token = self.token(si);
        // Group the (sorted) lock list by home node; the cursor indexes the
        // distinct-node batches.
        let rids = self.slots[si].fallback_locks.clone();
        let mut batches: Vec<(NodeId, Vec<RecordId>)> = Vec::new();
        for rid in rids {
            let phys = self.cl.route(self.cl.db.record(rid).home());
            match batches.iter_mut().find(|(n, _)| *n == phys) {
                Some((_, v)) => v.push(rid),
                None => batches.push((phys, vec![rid])),
            }
        }
        batches.sort_by_key(|(n, _)| *n);
        let cursor = self.slots[si].fallback_cursor;
        if cursor >= batches.len() {
            self.q.push_at(now, Ev::ExecStage { si, att });
            return;
        }
        let (home, batch) = batches[cursor].clone();
        if self.crashed[home.0 as usize] {
            // The batch's (routed) host is down: retry after the usual
            // lock backoff — reconfiguration will reroute the batch.
            let retry = self.cl.cfg.retry.lock_retry;
            self.q.push_at(now + retry, Ev::FallbackLock { si, att });
            return;
        }
        let lock_cost = self.cl.cfg.sw.lock_local * batch.len() as u64;
        self.charge(si, Overhead::ConflictDetection, lock_cost);
        let mut when = self.cl.run_on_core(node, core, now, lock_cost);
        if home != node {
            // One round trip carries the whole batch of CAS operations.
            let arrive = self.cl.send_verb(
                when,
                node,
                home,
                wire_size(0, 64) + batch.len() * 16,
                Verb::Lock,
            );
            let mut svc = Cycles::ZERO;
            for rid in &batch {
                let first_line = [self.cl.db.record(*rid).lines().next().expect("record")];
                let (lat, _) = self.cl.access_lines_nic(home, &first_line);
                svc += lat;
            }
            when = self
                .cl
                .send_verb(arrive + svc, home, node, wire_size(0, 64), Verb::LockResp);
        }
        let mut acquired = Vec::new();
        let mut all_ok = true;
        for rid in &batch {
            if self.cl.db.record_mut(*rid).try_lock(token) {
                acquired.push(*rid);
            } else {
                all_ok = false;
                break;
            }
        }
        if all_ok {
            self.slots[si].fallback_cursor += 1;
            self.q.push_at(when, Ev::FallbackLock { si, att });
        } else {
            // Release this batch's partial acquisitions and retry it.
            for rid in acquired {
                self.cl.db.record_mut(rid).unlock(token);
            }
            let retry = self.cl.cfg.retry.lock_retry;
            self.q.push_at(when + retry, Ev::FallbackLock { si, att });
        }
    }

    /// Counts and traces a stale verb dropped by the epoch fence.
    fn fence_verb(&mut self, node: NodeId, verb: Verb) {
        let now = self.q.now();
        self.cl.membership.stats.verbs_fenced += 1;
        if self.cl.tracer.is_enabled() {
            self.cl
                .tracer
                .emit(now, node.0, NO_SLOT, EventKind::VerbFenced { verb });
        }
    }

    /// Node crash (membership runs only — the software protocol has no
    /// lease machinery, so failover is its only recovery path). Commits
    /// past the point of no return finalize the ledger; every record
    /// lock the node's transactions still hold is stashed for release at
    /// reconfiguration (or restart), and the slots are wiped.
    fn on_node_crash(&mut self, node: NodeId) {
        let now = self.q.now();
        let nb = node.0 as usize;
        let restart = self
            .cl
            .fabric
            .injector()
            .crashes()
            .iter()
            .filter(|c| c.node == node.0 && c.at <= now)
            .filter_map(|c| c.restart_at)
            .filter(|&r| r > now)
            .max();
        self.crashed[nb] = true;
        self.restart_at[nb] = restart;
        self.cl.fabric.injector_mut().faults.crashes += 1;
        if self.cl.tracer.is_enabled() {
            self.cl.tracer.emit(
                now,
                node.0,
                NO_SLOT,
                EventKind::FaultInjected {
                    fault: InjectedFault::NodeCrash,
                },
            );
        }
        let spn = self.cl.cfg.shape.slots_per_node();
        for slot in 0..spn {
            let si = nb * spn + slot;
            if self.slots[si].txn.is_none() {
                continue;
            }
            if self.slots[si].durable {
                // Local writes are applied and remote applies are one-way
                // messages already in flight: the commit survives the
                // crash, so its delta belongs in the ledger.
                let txn = self.slots[si].txn.as_ref().expect("txn set");
                self.total_sum_delta += txn.sum_delta;
                self.total_commits += 1;
            }
            // Sweep the transaction's footprint for locks still held by
            // this slot's token — validated locks, fallback locks, and
            // acquisitions orphaned by dropped responses alike — and
            // stash them; the failure detector releases them when it
            // declares the node dead.
            let token = self.token(si);
            let mut rids: Vec<RecordId> = self.slots[si]
                .txn
                .as_ref()
                .expect("txn set")
                .ops()
                .map(|op| op.rid)
                .collect();
            rids.sort_unstable();
            rids.dedup();
            for rid in rids {
                if self.cl.db.record(rid).locked_by(token) {
                    self.orphan_locks[nb].push((rid, token));
                }
            }
            let s = &mut self.slots[si];
            s.txn = None;
            s.attempt += 1;
            s.consec_squashes = 0;
            s.fallback = false;
            s.stage = 0;
            s.outstanding = 0;
            s.read_versions.clear();
            s.write_versions.clear();
            s.locked.clear();
            s.lock_ok = true;
            s.validate_ok = true;
            s.fallback_locks.clear();
            s.fallback_cursor = 0;
            s.resp_seen.clear();
            s.rsp_next = 0;
            s.rpc_epoch = 0;
            s.durable = false;
            s.awaiting_start = false;
            if let Some(r) = restart {
                self.q.push_at(r, Ev::Start { si });
            }
        }
    }

    /// Node restart: release any orphaned locks the failure detector has
    /// not already drained, then resume the node's slots.
    fn on_node_restart(&mut self, node: NodeId) {
        let now = self.q.now();
        let nb = node.0 as usize;
        if !self.crashed[nb] {
            return;
        }
        self.crashed[nb] = false;
        self.restart_at[nb] = None;
        self.cl.fabric.injector_mut().faults.restarts += 1;
        if self.cl.tracer.is_enabled() {
            self.cl.tracer.emit(
                now,
                node.0,
                NO_SLOT,
                EventKind::FaultInjected {
                    fault: InjectedFault::NodeRestart,
                },
            );
        }
        for (rid, token) in std::mem::take(&mut self.orphan_locks[nb]) {
            self.cl.db.record_mut(rid).unlock(token);
        }
    }

    fn on_lease_renew(&mut self, node: NodeId) {
        if self.draining {
            return;
        }
        let now = self.q.now();
        if !self.crashed[node.0 as usize] && self.cl.renewal_lands(now, node) {
            self.cl.membership.note_renewal(node, now);
        }
        self.q.push_at(
            now + self.cl.renewal_interval_for(now, node),
            Ev::LeaseRenew { node },
        );
    }

    /// Failure-detector sweep: nodes whose renewals went silent past the
    /// suspicion deadline are declared dead — with quorum gating on, only
    /// when a majority view backs the declaration — and the cluster
    /// reconfigures around them.
    fn on_membership_tick(&mut self) {
        if self.draining {
            return;
        }
        let now = self.q.now();
        for dead in self.cl.membership_scan(now) {
            self.on_membership_death(dead);
        }
        self.q.push_at(
            now + self.cl.membership.renew_interval(),
            Ev::MembershipTick,
        );
    }

    /// Reconfiguration after a death declaration: advance the epoch and
    /// promote backups (cluster side), then release the record locks the
    /// dead node's transactions still held so survivors stop aborting on
    /// them. In-flight commits that straddle the epoch abort themselves
    /// at their next validation/commit step unless already durable.
    fn on_membership_death(&mut self, dead: NodeId) {
        let now = self.q.now();
        if !self.cl.reconfigure_after_death(dead, now) {
            return;
        }
        for (rid, token) in std::mem::take(&mut self.orphan_locks[dead.0 as usize]) {
            self.cl.db.record_mut(rid).unlock(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RunOutcome;
    use hades_sim::config::SimConfig;
    use hades_storage::db::Database;
    use hades_workloads::catalog::AppId;
    use hades_workloads::smallbank::{Smallbank, SmallbankConfig, INITIAL_BALANCE, OFF_BALANCE};

    fn run_app(app_name: &str, warmup: u64, measure: u64) -> RunOutcome {
        let cfg = SimConfig::isca_default();
        let mut db = Database::new(cfg.shape.nodes);
        let app = AppId::parse(app_name).unwrap().build(&mut db, 0.005);
        let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
        BaselineSim::new(Cluster::new(cfg, db), ws, warmup, measure).run_full()
    }

    #[test]
    fn commits_transactions_and_measures_throughput() {
        let out = run_app("HT-wB", 50, 300);
        assert_eq!(out.stats.committed, 300);
        assert!(out.total_commits >= 350);
        assert!(out.stats.throughput() > 0.0);
        assert!(out.stats.mean_latency() > Cycles::ZERO);
        assert!(out.stats.p95_latency() >= out.stats.mean_latency());
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
    fn conservation_invariant_holds_under_contention() {
        // Smallbank money must be conserved: final total == initial total
        // + sum of committed RMW deltas, even with a contended hotspot.
        let cfg = SimConfig::isca_default();
        let mut db = Database::new(cfg.shape.nodes);
        let accounts = 2_000u64;
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts,
                hotspot: Some((20, 0.7)), // force conflicts
            },
        );
        let (checking, savings) = (sb.checking(), sb.savings());
        let initial = 2 * accounts * INITIAL_BALANCE;
        let ws = WorkloadSet::single(Box::new(sb), cfg.shape.cores_per_node);
        let out = BaselineSim::new(Cluster::new(cfg, db), ws, 0, 600).run_full();
        let db = &out.cluster.db;
        let mut total = 0u64;
        for t in [checking, savings] {
            for a in 0..accounts {
                let rid = db.lookup(t, a).unwrap().rid;
                total = total.wrapping_add(db.record(rid).read_u64(OFF_BALANCE as usize));
            }
        }
        assert_eq!(
            total,
            initial.wrapping_add(out.total_sum_delta as u64),
            "money not conserved: committed={}, squashes={}",
            out.total_commits,
            out.stats.squashes
        );
        // And nothing is left locked after the drain.
        for t in [checking, savings] {
            for a in 0..accounts {
                let rid = db.lookup(t, a).unwrap().rid;
                assert!(!db.record(rid).is_locked(), "account {a} left locked");
            }
        }
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
        let ws = WorkloadSet::single(Box::new(sb), cfg.shape.cores_per_node);
        let out = BaselineSim::new(Cluster::new(cfg, db), ws, 0, 400).run_full();
        assert!(out.stats.squashes > 0, "hotspot contention must abort");
    }

    #[test]
    fn message_loss_times_out_and_conserves_money() {
        // Dropping and duplicating validation-round responses must be
        // absorbed by the RpcTimeout/abort/retry path: every measured
        // commit still lands, money is conserved, and no record lock
        // leaks past the drain.
        use hades_fault::FaultPlan;
        let cfg = SimConfig::isca_default();
        let mut db = Database::new(cfg.shape.nodes);
        let accounts = 1_000u64;
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts,
                hotspot: Some((16, 0.5)),
            },
        );
        let (checking, savings) = (sb.checking(), sb.savings());
        let initial = 2 * accounts * INITIAL_BALANCE;
        let ws = WorkloadSet::single(Box::new(sb), cfg.shape.cores_per_node);
        let mut cl = Cluster::new(cfg, db);
        cl.install_fault_plan(
            FaultPlan::none()
                .with_seed(7)
                .drop_verb(Verb::LockResp, 0.05)
                .drop_verb(Verb::ValidateResp, 0.05)
                .dup_verb(Verb::LockResp, 0.05),
        );
        let out = BaselineSim::new(cl, ws, 0, 400).run_full();
        assert_eq!(out.stats.committed, 400);
        assert!(out.stats.faults.drops > 0, "plan must actually drop");
        assert!(
            out.stats.recovery.timeout_retries > 0,
            "dropped responses must surface as timeout retries"
        );
        let db = &out.cluster.db;
        let mut total = 0u64;
        for t in [checking, savings] {
            for a in 0..accounts {
                let rid = db.lookup(t, a).unwrap().rid;
                total = total.wrapping_add(db.record(rid).read_u64(OFF_BALANCE as usize));
            }
        }
        assert_eq!(
            total,
            initial.wrapping_add(out.total_sum_delta as u64),
            "money not conserved under injected loss"
        );
        for t in [checking, savings] {
            for a in 0..accounts {
                let rid = db.lookup(t, a).unwrap().rid;
                assert!(!db.record(rid).is_locked(), "account {a} left locked");
            }
        }
    }

    #[test]
    fn read_only_workload_skips_locking() {
        // A pure-read run should produce zero record-lock aborts.
        let out = run_app("HT-wB", 0, 200);
        assert!(out.stats.squashes_for(SquashReason::RecordLockBusy) <= 200);
        assert!(out.stats.committed >= 200);
    }
}
