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

use crate::runtime::{
    apply_write, owner_token, resolve, Cluster, CoreVerb, Measurement, MigrationAction, ResolvedOp,
    ResolvedTxn, RunOutcome, Stall, WorkloadSet,
};
use crate::stats::{Phase, SquashReason};
use hades_bloom::{BloomFilter, LockFailure, Signature};
use hades_fault::InjectedFault;
use hades_net::fabric::wire_size;
use hades_net::nic::RemoteTxKey;
use hades_sim::engine::EventQueue;
use hades_sim::ids::{CoreId, NodeId, SlotId};
use hades_sim::rng::SimRng;
use hades_sim::time::Cycles;
use hades_storage::record::RecordId;
use hades_telemetry::event::{EventKind, Phase as TracePhase, RecoveryKind, Verb, NO_SLOT};
use hades_telemetry::profile::ProfPhase;
use std::collections::HashSet;

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
    exec_end: Cycles,
    stage: usize,
    outstanding: u32,
    /// Software read set over *local* records: (rid, version at read).
    local_reads: Vec<(RecordId, u64)>,
    /// Software write set over *local* records: (rid, version at fetch).
    local_writes: Vec<(RecordId, u64)>,
    /// Remote lines already fetched and reusable locally.
    fetched: HashSet<u64>,
    remote: hades_net::nic::TxRemoteTable,
    acks_outstanding: u32,
    commit_failed: bool,
    holds_local_lock: bool,
    unsquashable: bool,
    fallback_nodes: Vec<NodeId>,
    fallback_cursor: usize,
    /// Squashed and waiting for its restart event (guards against a second
    /// squash in the same window double-scheduling the transaction).
    awaiting_start: bool,
    /// Ack ids already counted this commit (dedup for duplicated Ack
    /// copies under fault injection).
    acks_seen: Vec<u32>,
    /// When this commit's handshake started (lease-margin check under a
    /// crash plan).
    commit_start: Cycles,
    /// Configuration epoch this attempt started in (straddle detection).
    epoch: u64,
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
    /// A local op ready to execute (possibly a retry after a Locking
    /// Buffer denial, which `stall` then describes). The op is boxed to
    /// keep every event small.
    LocalOp {
        si: usize,
        att: u32,
        op: Box<ResolvedOp>,
        stall: Option<Stall>,
    },
    /// A remote request arrives at the home node's NIC (or retries after
    /// a Locking Buffer denial).
    RemoteReq {
        si: usize,
        att: u32,
        op: Box<ResolvedOp>,
        stall: Option<Stall>,
    },
    RemoteResp {
        si: usize,
        att: u32,
        lines: Vec<u64>,
    },
    OpDone {
        si: usize,
        att: u32,
    },
    BeginCommit {
        si: usize,
        att: u32,
    },
    IntendArrive {
        si: usize,
        att: u32,
        node: NodeId,
        write_lines: Vec<u64>,
        ack_id: u32,
        ep: u64,
    },
    AckArrive {
        si: usize,
        att: u32,
        ok: bool,
        ack_id: u32,
        from: NodeId,
        ep: u64,
    },
    /// Commit watchdog (armed only when a fault injector is active): if
    /// Acks are still outstanding when it fires, the commit handshake lost
    /// a message and the transaction squashes and retries.
    CommitTimeout {
        si: usize,
        att: u32,
    },
    ValidationArrive {
        node: NodeId,
        key: RemoteTxKey,
        ops: Vec<ResolvedOp>,
    },
    SquashArrive {
        si: usize,
        att: u32,
    },
    ClearRemote {
        node: NodeId,
        key: RemoteTxKey,
    },
    CommitDone {
        si: usize,
        att: u32,
    },
    FallbackLock {
        si: usize,
        att: u32,
    },
    /// Scheduled node crash (fault plan): all in-flight transaction state
    /// at the node is lost.
    NodeCrash {
        node: NodeId,
    },
    /// Scheduled node restart: broadcast recovery Clears and resume the
    /// node's slots.
    NodeRestart {
        node: NodeId,
    },
    /// A participant lease expires: if the coordinator is crashed and its
    /// Locking Buffer is still held here, reclaim it.
    LeaseExpire {
        node: NodeId,
        key: RemoteTxKey,
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
    /// too long (its home may be dead forever) — squash and retry.
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
#[derive(Debug)]
pub struct HadesHSim {
    cl: Cluster,
    q: EventQueue<Ev>,
    ws: WorkloadSet,
    meas: Measurement,
    slots: Vec<Slot>,
    slot_rngs: Vec<SimRng>,
    poisoned: Vec<HashSet<RemoteTxKey>>,
    draining: bool,
    locality: Option<f64>,
    local_probes: u64,
    local_fps: u64,
    /// Nodes currently down under the fault plan.
    crashed: Vec<bool>,
    /// Pending restart time of each crashed node.
    restart_at: Vec<Option<Cycles>>,
    /// Net committed RMW delta over the entire run.
    pub total_sum_delta: i64,
    /// Commits over the entire run.
    pub total_commits: u64,
}

impl HadesHSim {
    /// Builds a HADES-H run.
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
                    exec_end: Cycles::ZERO,
                    stage: 0,
                    outstanding: 0,
                    local_reads: Vec::new(),
                    local_writes: Vec::new(),
                    fetched: HashSet::new(),
                    remote: hades_net::nic::TxRemoteTable::new(),
                    acks_outstanding: 0,
                    commit_failed: false,
                    holds_local_lock: false,
                    unsquashable: false,
                    fallback_nodes: Vec::new(),
                    fallback_cursor: 0,
                    awaiting_start: false,
                    acks_seen: Vec::new(),
                    commit_start: Cycles::ZERO,
                    epoch: 0,
                });
                slot_rngs.push(cl.rng.fork());
            }
        }
        let apps = ws.len();
        let locality = cl.cfg.local_fraction;
        let nodes = shape.nodes;
        // Every Locking-Buffer stall re-arms after the same delay, so the
        // re-arms ride the queue's FIFO retry lane.
        let q = EventQueue::with_retry_delay(cl.cfg.retry.lock_retry);
        HadesHSim {
            cl,
            q,
            ws,
            meas: Measurement::new(warmup, measure, apps),
            slots,
            slot_rngs,
            poisoned: vec![HashSet::new(); nodes],
            draining: false,
            locality,
            local_probes: 0,
            local_fps: 0,
            crashed: vec![false; nodes],
            restart_at: vec![None; nodes],
            total_sum_delta: 0,
            total_commits: 0,
        }
    }

    /// Runs to completion and returns the measured statistics.
    pub fn run(self) -> crate::stats::RunStats {
        self.run_full().stats
    }

    /// Runs to completion, returning statistics plus final cluster state
    /// and the whole-run ledger.
    pub fn run_full(mut self) -> RunOutcome {
        for si in 0..self.slots.len() {
            self.q
                .push_at(Cycles::new(si as u64 * 43), Ev::Start { si });
        }
        for crash in self.cl.fabric.injector().crashes().to_vec() {
            let node = NodeId(crash.node);
            self.q.push_at(crash.at, Ev::NodeCrash { node });
            if let Some(r) = crash.restart_at {
                self.q.push_at(r, Ev::NodeRestart { node });
            }
        }
        if self.cl.membership.enabled() {
            let interval = self.cl.membership.renew_interval();
            for n in 0..self.cl.cfg.shape.nodes {
                self.q.push_at(
                    interval,
                    Ev::LeaseRenew {
                        node: NodeId(n as u16),
                    },
                );
            }
            // Sweep just after each renewal round so a live node is never
            // observed mid-interval as silent.
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
        let mut probes = self.local_probes;
        let mut fps = self.local_fps;
        for nic in &self.cl.nics {
            let (p, _h, f) = nic.probe_stats();
            probes += p;
            fps += f;
        }
        stats.conflict_checks = probes;
        stats.false_positive_conflicts = fps;
        stats.membership = self.cl.membership.stats;
        stats.migration = self.cl.migration_stats();
        stats.nemesis = self.cl.nemesis_stats(self.q.now());
        let inj = self.cl.fabric.injector();
        stats.faults = inj.faults;
        stats.recovery = inj.recovery;
        stats.dropped_messages = inj.faults.drops;
        RunOutcome {
            stats,
            cluster: self.cl,
            total_sum_delta: self.total_sum_delta,
            total_commits: self.total_commits,
            // HADES-H carries no replica-prepare queues.
            replica_pending_leaked: 0,
        }
    }

    fn alive(&self, si: usize, att: u32) -> bool {
        self.slots[si].attempt == att && self.slots[si].txn.is_some()
    }

    fn key_of(&self, si: usize) -> RemoteTxKey {
        RemoteTxKey {
            origin: self.slots[si].node,
            slot: self.slots[si].slot,
        }
    }

    fn token(&self, si: usize) -> u64 {
        owner_token(self.slots[si].node, self.slots[si].slot)
    }

    /// Whether the fault plan schedules node crashes (gates lease and
    /// restart machinery so crash-free runs stay on the fast path).
    fn crash_plan_active(&self) -> bool {
        self.cl.fabric.injector().plan().has_crashes()
    }

    /// Drops a stale fabric verb at `node` (epoch fencing): the sender
    /// was declared dead in an older configuration epoch, so its
    /// straggling traffic must not touch post-failover state.
    fn fence_verb(&mut self, node: NodeId, verb: Verb) {
        let now = self.q.now();
        self.cl.membership.stats.verbs_fenced += 1;
        if self.cl.tracer.is_enabled() {
            self.cl
                .tracer
                .emit(now, node.0, NO_SLOT, EventKind::VerbFenced { verb });
        }
    }

    /// Transactions currently running on `node` (admission-control load
    /// signal); admission-deferred slots hold no txn and do not count.
    fn inflight_at(&self, node: NodeId) -> usize {
        self.slots
            .iter()
            .filter(|s| s.node == node && s.txn.is_some())
            .count()
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Start { si } => self.on_start(si),
            Ev::ExecStage { si, att } if self.alive(si, att) => self.on_exec_stage(si, att),
            Ev::LocalOp { si, att, op, stall } if self.alive(si, att) => {
                self.on_local_op(si, att, op, stall)
            }
            Ev::RemoteReq { si, att, op, stall } => self.on_remote_req(si, att, op, stall),
            Ev::RemoteResp { si, att, lines } if self.alive(si, att) => {
                self.slots[si].fetched.extend(lines);
                self.on_op_done(si, att);
            }
            Ev::OpDone { si, att } if self.alive(si, att) => self.on_op_done(si, att),
            Ev::BeginCommit { si, att } if self.alive(si, att) => self.on_begin_commit(si, att),
            Ev::IntendArrive {
                si,
                att,
                node,
                write_lines,
                ack_id,
                ep,
            } => {
                let sender = self.slots[si].node;
                if self.cl.membership.should_fence(ep, sender) {
                    self.fence_verb(node, Verb::Intend);
                } else {
                    self.on_intend_arrive(si, att, node, write_lines, ack_id);
                }
            }
            Ev::AckArrive {
                si,
                att,
                ok,
                ack_id,
                from,
                ep,
            } => {
                if self.cl.membership.should_fence(ep, from) {
                    let at = self.slots[si].node;
                    self.fence_verb(at, Verb::Ack);
                } else if self.alive(si, att) {
                    self.on_ack(si, att, ok, ack_id);
                }
            }
            Ev::CommitTimeout { si, att } if self.alive(si, att) => self.on_commit_timeout(si),
            Ev::ValidationArrive { node, key, ops } => self.on_validation_arrive(node, key, ops),
            Ev::SquashArrive { si, att } if self.alive(si, att) && !self.slots[si].unsquashable => {
                self.squash(si, SquashReason::LazyConflict);
            }
            Ev::ClearRemote { node, key } => {
                self.cl.nics[node.0 as usize].clear_remote_tx(key);
                self.cl.lock_bufs[node.0 as usize].unlock(owner_token(key.origin, key.slot));
                self.poisoned[node.0 as usize].remove(&key);
            }
            Ev::CommitDone { si, att } if self.alive(si, att) => self.on_commit_done(si, att),
            Ev::FallbackLock { si, att } if self.alive(si, att) => self.on_fallback_lock(si, att),
            Ev::NodeCrash { node } => self.on_node_crash(node),
            Ev::NodeRestart { node } => self.on_node_restart(node),
            Ev::LeaseExpire { node, key } => self.on_lease_expire(node, key),
            Ev::LeaseRenew { node } => self.on_lease_renew(node),
            Ev::MembershipTick => self.on_membership_tick(),
            Ev::FetchTimeout { si, att, stage } if self.alive(si, att) => {
                let s = &self.slots[si];
                if s.stage == stage && s.outstanding > 0 && !s.unsquashable {
                    self.squash(si, SquashReason::CommitTimeout);
                }
            }
            Ev::MigrationTick => self.on_migration_tick(),
            _ => {}
        }
    }

    /// Planned-reconfiguration tick: drives the cluster's migration state
    /// machine; at cutover, fences the in-flight commit handshakes that
    /// straddle the routing flip and retries them, then hands the
    /// hardware state to the destination (DESIGN.md §15).
    fn on_migration_tick(&mut self) {
        if self.draining {
            return; // like the detector, the plan freezes once the run drains
        }
        let now = self.q.now();
        match self.cl.migration_step(now) {
            MigrationAction::Rearm(at) => self.q.push_at(at, Ev::MigrationTick),
            MigrationAction::Cutover(moves) => {
                // Fence-then-flip: only slots mid commit handshake (Acks
                // still outstanding) touching a moving partition squash —
                // their Intends locked directories at the old primary.
                // Exec-phase slots survive; they route at commit time,
                // and their NIC filter entries travel with the cutover.
                // Unsquashable slots (Validations already in flight to
                // the pre-cutover primaries) leave their filter entries
                // behind too: those Validations clear them at the source.
                let mut fenced: Vec<RemoteTxKey> = Vec::new();
                let mut exclude: Vec<RemoteTxKey> = Vec::new();
                for si in 0..self.slots.len() {
                    let s = &self.slots[si];
                    if s.txn.is_none() {
                        continue;
                    }
                    if s.unsquashable {
                        exclude.push(self.key_of(si));
                        continue;
                    }
                    if s.acks_outstanding == 0 {
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
                    self.fence_verb(node, Verb::Intend);
                    fenced.push(self.key_of(si));
                    // The squash's Clears route via the pre-cutover map,
                    // finding the locked directories at the source.
                    self.squash(si, SquashReason::CommitTimeout);
                }
                let n = fenced.len() as u64;
                exclude.extend(fenced);
                self.cl.finish_cutover(now, &exclude, n);
            }
            MigrationAction::Done => {}
        }
    }

    /// Stamps a transaction-lifecycle trace event for `si`'s slot.
    fn trace(&self, at: Cycles, si: usize, kind: EventKind) {
        let s = &self.slots[si];
        self.cl.tracer.emit(at, s.node.0, s.slot.0 as u32, kind);
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
            s.stage = 0;
            s.outstanding = 0;
            s.local_reads.clear();
            s.local_writes.clear();
            s.fetched.clear();
            s.remote.clear();
            s.acks_outstanding = 0;
            s.commit_failed = false;
            s.holds_local_lock = false;
            s.unsquashable = false;
            s.awaiting_start = false;
            s.acks_seen.clear();
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
        let done = self.cl.run_on_core(node, core, now, app_cost);
        if self.slots[si].fallback {
            let txn = self.slots[si].txn.as_ref().expect("txn set");
            let mut nodes: Vec<NodeId> = txn.ops().map(|op| op.home).collect();
            nodes.sort_unstable();
            nodes.dedup();
            let s = &mut self.slots[si];
            s.fallback_nodes = nodes;
            s.fallback_cursor = 0;
            if self.meas.measuring() && !self.draining {
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
        let mut cursor = now;
        for op in ops {
            let index_cost = sw.index_per_level * op.depth as u64 + sw.app_per_request;
            // Routed placement: a partition promoted onto this node after
            // a failover is served on the local software path (identity
            // when the membership layer is off).
            if self.cl.route(op.home) == node {
                cursor = self.cl.run_on_core(node, core, cursor, index_cost);
                self.q.push_at(
                    cursor,
                    Ev::LocalOp {
                        si,
                        att,
                        op: Box::new(op),
                        stall: None,
                    },
                );
            } else {
                let all_fetched = op
                    .read_lines
                    .iter()
                    .chain(&op.write_partial)
                    .all(|l| self.slots[si].fetched.contains(l));
                if all_fetched {
                    let reuse =
                        index_cost + self.cl.cfg.mem.l1_rt * op.read_lines.len().max(1) as u64;
                    cursor = self.cl.run_on_core(node, core, cursor, reuse);
                    self.note_remote_tracking(si, &op);
                    self.q.push_at(cursor, Ev::OpDone { si, att });
                } else {
                    cursor = self.cl.run_on_core(node, core, cursor, index_cost);
                    self.note_remote_tracking(si, &op);
                    let sent = self.cl.issue(
                        cursor,
                        CoreVerb {
                            node,
                            core,
                            dst: self.cl.route(op.home),
                            bytes: wire_size(0, 64),
                            verb: Verb::Read,
                            wrs: 1,
                            reliable: true,
                        },
                    );
                    cursor = sent.depart;
                    let arrive = sent.arrival;
                    self.q.push_at(
                        arrive,
                        Ev::RemoteReq {
                            si,
                            att,
                            op: Box::new(op),
                            stall: None,
                        },
                    );
                    // A home that dies forever mid-fetch would hang this
                    // slot; the membership layer bounds the wait.
                    if self.cl.membership.enabled() {
                        let deadline = cursor + self.cl.membership.params().fetch_timeout;
                        self.q.push_at(
                            deadline,
                            Ev::FetchTimeout {
                                si,
                                att,
                                stage: stage_idx,
                            },
                        );
                    }
                }
            }
        }
    }

    fn note_remote_tracking(&mut self, si: usize, op: &ResolvedOp) {
        let s = &mut self.slots[si];
        if op.is_write() {
            s.remote.note_write(op.home, &op.write_lines);
        }
        if !op.read_lines.is_empty() {
            s.remote.note_read(op.home);
        }
    }

    /// Software local path: fetch the whole record, check atomicity, track
    /// in read/write sets with versions — exactly like the baseline.
    fn on_local_op(&mut self, si: usize, att: u32, op: Box<ResolvedOp>, stall: Option<Stall>) {
        let now = self.q.now();
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let token = self.token(si);
        let sw = self.cl.cfg.sw;
        // The retained hardware primitive still guards the directory, at
        // record granularity.
        let stall = self.cl.lock_stall(node, stall, |bufs| {
            op.record_lines.iter().find_map(|&l| {
                if op.is_write() {
                    bufs.blocks_write_excluding(l, token)
                } else {
                    bufs.blocks_read(l).filter(|&o| o != token)
                }
            })
        });
        if let Some(Stall { holder, .. }) = stall {
            if self.cl.tracer.is_enabled() {
                self.trace(now, si, EventKind::LockStall { holder });
            }
            self.q.push_retry(Ev::LocalOp { si, att, op, stall });
            return;
        }
        let (mem_lat, _evicted) = self.cl.access_lines(node, core, &op.record_lines);
        let nlines = op.record_lines.len() as u64;
        let atomicity = (sw.atomicity_check_per_line + sw.atomicity_copy_per_line) * nlines;
        let set_cost = if op.is_write() {
            sw.wset_insert + sw.set_copy_per_line * nlines
        } else {
            sw.rset_insert
        };
        let v = self.cl.db.record(op.rid).version();
        let s = &mut self.slots[si];
        if op.is_write() {
            if !s.local_writes.iter().any(|(r, _)| *r == op.rid) {
                s.local_writes.push((op.rid, v));
            }
        } else if !s.local_reads.iter().any(|(r, _)| *r == op.rid) {
            s.local_reads.push((op.rid, v));
        }
        let done = self
            .cl
            .run_on_core(node, core, now, mem_lat + atomicity + set_cost);
        self.q.push_at(done, Ev::OpDone { si, att });
    }

    /// Remote path: identical to HADES (NIC hardware).
    fn on_remote_req(&mut self, si: usize, att: u32, op: Box<ResolvedOp>, stall: Option<Stall>) {
        let now = self.q.now();
        if !self.alive(si, att) {
            return;
        }
        // Route at arrival: after a failover the promoted primary
        // services the partition (identity when membership is off).
        let home = self.cl.route(op.home);
        let nb = home.0 as usize;
        if self.crashed[nb] {
            // The home node is down: the RDMA read blocks until it
            // restarts and the NIC comes back. A forever-dead home drops
            // the request — the coordinator's fetch timeout cleans up.
            if let Some(r) = self.restart_at[nb] {
                self.q.push_at(r, Ev::RemoteReq { si, att, op, stall });
            }
            return;
        }
        let origin = self.slots[si].node;
        let key = RemoteTxKey {
            origin,
            slot: self.slots[si].slot,
        };
        let token = owner_token(key.origin, key.slot);
        let stall = self
            .cl
            .lock_stall(home, stall, |bufs| op.lock_blocker(bufs, token));
        if let Some(Stall { holder, .. }) = stall {
            self.cl
                .tracer
                .emit(now, home.0, NO_SLOT, EventKind::LockStall { holder });
            self.q.push_retry(Ev::RemoteReq { si, att, op, stall });
            return;
        }
        let bloom = self.cl.cfg.bloom;
        let mut svc = Cycles::ZERO;
        let mut fetch_lines: Vec<u64> = Vec::new();
        if !op.read_lines.is_empty() {
            self.cl.nics[nb].record_remote_read(now, key, &op.read_lines);
            svc += bloom.bf_op * op.read_lines.len() as u64;
            fetch_lines.extend(&op.read_lines);
        }
        if op.is_write() {
            self.cl.nics[nb].record_remote_write(now, key, &op.write_partial);
            svc += bloom.bf_op * op.write_partial.len().max(1) as u64;
            fetch_lines.extend(&op.write_partial);
        }
        fetch_lines.sort_unstable();
        fetch_lines.dedup();
        let (mem_lat, _victims) = self.cl.access_lines_nic(home, &fetch_lines);
        svc += mem_lat;
        let back = if home == origin {
            // Reconfiguration promoted the partition onto the requester
            // itself while the request was in flight: the response
            // needs no fabric hop.
            now + svc
        } else {
            self.cl.send_faulty_one(
                now + svc,
                home,
                origin,
                wire_size(fetch_lines.len(), 64),
                Verb::ReadResp,
            )
        };
        self.q.push_at(
            back,
            Ev::RemoteResp {
                si,
                att,
                lines: fetch_lines,
            },
        );
    }

    fn on_op_done(&mut self, si: usize, att: u32) {
        let s = &mut self.slots[si];
        debug_assert!(s.outstanding > 0);
        s.outstanding -= 1;
        if s.outstanding > 0 {
            return;
        }
        let stages = s.txn.as_ref().expect("txn active").stages.len();
        let now = self.q.now();
        if s.stage + 1 < stages {
            s.stage += 1;
            self.q.push_at(now, Ev::ExecStage { si, att });
        } else {
            self.q.push_at(now, Ev::BeginCommit { si, att });
        }
    }

    /// The local record lines of this transaction, split (reads, writes) at
    /// record granularity.
    fn local_footprint(&self, si: usize) -> (Vec<u64>, Vec<u64>) {
        let node = self.slots[si].node;
        let txn = self.slots[si].txn.as_ref().expect("txn active");
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for op in txn.ops().filter(|o| o.home == node) {
            if op.is_write() {
                writes.extend(&op.record_lines);
            } else {
                reads.extend(&op.record_lines);
            }
        }
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable();
        writes.dedup();
        (reads, writes)
    }

    /// Commit: NIC builds local BFs from record addresses, locks the
    /// directory, checks L–R conflicts, runs the distributed commit.
    fn on_begin_commit(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        // Epoch straddle: a node died while this attempt executed. Its
        // footprint may reference the dead node's directories, so resolve
        // it as an abort and retry on the new epoch (routing is
        // re-evaluated at restart). Planned-migration epoch bumps do not
        // squash here: the dual-routing window keeps the source
        // authoritative until the cutover fences actual straddlers.
        if self.cl.membership.epoch_aware()
            && self.slots[si].epoch != self.cl.membership.epoch()
            && self.cl.membership.death_since(self.slots[si].epoch)
        {
            self.squash(si, SquashReason::CommitTimeout);
            return;
        }
        // Self-fence (DESIGN.md §16): a coordinator that could not renew
        // its own lease must assume it has been partitioned away and
        // refuse the handshake — the cluster may already have promoted
        // its backups.
        if self.cl.self_fence_check(now, self.slots[si].node) {
            self.squash(si, SquashReason::SelfFenced);
            return;
        }
        self.slots[si].exec_end = now;
        self.cl.obs_enter(si, ProfPhase::Lock, now);
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseEnd(TracePhase::Exec));
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Commit));
        }
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let nb = node.0 as usize;
        let token = self.token(si);
        let bloom = self.cl.cfg.bloom;
        let sw = self.cl.cfg.sw;
        if self.slots[si].fallback {
            self.finish_commit(si, att, now);
            return;
        }
        let (read_lines, write_lines) = self.local_footprint(si);
        // Software passes addresses to the NIC (per-record cost); the NIC
        // builds the equivalent LocalRead/WriteBFs.
        let n_local = self.slots[si].local_reads.len() + self.slots[si].local_writes.len();
        let pass_cost = sw.rdma_issue + Cycles::new(10) * n_local as u64;
        let build_cost = bloom.bf_op * (read_lines.len() + write_lines.len()).max(1) as u64;
        let mut rd = BloomFilter::new(bloom.nic_read_bits, bloom.hashes);
        let mut wr = BloomFilter::new(bloom.nic_write_bits, bloom.hashes);
        for &l in &read_lines {
            rd.insert(l);
        }
        for &l in &write_lines {
            wr.insert(l);
        }
        let lock = self.cl.lock_bufs[nb].try_lock_at(
            now,
            token,
            Signature::Conventional(rd),
            Signature::Conventional(wr),
            &write_lines,
            &read_lines,
        );
        match lock {
            Ok(()) => self.slots[si].holds_local_lock = true,
            Err(LockFailure::NoFreeBuffer) if self.cl.cfg.overload.degrade_on_saturation => {
                // Saturation fallback: commit without a buffer. HADES-H
                // already software-validates its local footprint (Local
                // Validation, Section V-D), so the degraded commit keeps
                // correctness and only loses the hardware commit window.
                if self.cl.tracer.is_enabled() {
                    self.trace(now, si, EventKind::DegradedCommit);
                }
                if self.meas.measuring() && !self.draining {
                    self.meas.stats.overload.degraded_commits += 1;
                }
                self.cl.obs_degrade(now);
            }
            Err(_) => {
                self.squash(si, SquashReason::LockFailed);
                return;
            }
        }
        // L–R conflicts: our local writes vs remote transactions at our NIC.
        let own_key = self.key_of(si);
        let conflicts = self.cl.nics[nb].probe_writes_against(now, &write_lines, Some(own_key));
        let mut cursor = self.cl.run_on_core(
            node,
            core,
            now,
            pass_cost + build_cost + bloom.lock_buffer_load,
        );
        for c in conflicts {
            self.poison_and_squash_remote(node, c.with, cursor);
        }
        // Distributed commit. Logical homes are routed to their current
        // primaries; two partitions promoted onto one physical node share
        // a single Intend (their NIC filter state already lives merged at
        // that node).
        let mut intend_targets: Vec<(NodeId, Vec<u64>)> = Vec::new();
        for dst in self.slots[si].remote.nodes() {
            let phys = self.cl.route(dst);
            if phys == node {
                // Promoted onto us mid-epoch: unreachable past the
                // straddle check above, but harmless — the lines were
                // validated by the local directory lock.
                continue;
            }
            let writes = self.slots[si].remote.writes_at(dst);
            match intend_targets.iter_mut().find(|(p, _)| *p == phys) {
                Some(e) => {
                    e.1.extend(writes);
                    e.1.sort_unstable();
                    e.1.dedup();
                }
                None => intend_targets.push((phys, writes)),
            }
        }
        if intend_targets.is_empty() {
            self.local_validation(si, att, cursor);
            return;
        }
        self.slots[si].acks_outstanding = intend_targets.len() as u32;
        self.slots[si].acks_seen.clear();
        self.slots[si].commit_start = cursor;
        self.cl.obs_enter(si, ProfPhase::Commit, cursor);
        self.cl
            .obs_round_begin(si, Verb::Intend, intend_targets.len() as u32, cursor);
        let ep = self.cl.membership.epoch();
        for (ack_id, (dst, writes)) in intend_targets.into_iter().enumerate() {
            let bytes = wire_size(0, 64) + writes.len() * 8;
            cursor = self.cl.run_on_core(node, core, cursor, Cycles::new(20));
            for arrive in self.cl.send_faulty(cursor, node, dst, bytes, Verb::Intend) {
                self.q.push_at(
                    arrive,
                    Ev::IntendArrive {
                        si,
                        att,
                        node: dst,
                        write_lines: writes.clone(),
                        ack_id: ack_id as u32,
                        ep,
                    },
                );
            }
        }
        if self.cl.injector_active() {
            let deadline = cursor + self.cl.cfg.repl.ack_timeout;
            self.q.push_at(deadline, Ev::CommitTimeout { si, att });
        }
    }

    fn poison_and_squash_remote(&mut self, node: NodeId, key: RemoteTxKey, now: Cycles) {
        let nb = node.0 as usize;
        self.cl.nics[nb].clear_remote_tx(key);
        self.poisoned[nb].insert(key);
        let spn = self.cl.cfg.shape.slots_per_node();
        let vsi = key.origin.0 as usize * spn + key.slot.0 as usize;
        let att = self.slots[vsi].attempt;
        self.cl.obs_abort_source(vsi, node.0);
        if key.origin == node {
            // A promoted partition serviced in place: the "remote"
            // transaction is the node's own, so the squash notification
            // needs no fabric hop.
            self.q.push_at(now, Ev::SquashArrive { si: vsi, att });
            return;
        }
        let arrive = self
            .cl
            .send_faulty_one(now, node, key.origin, wire_size(0, 64), Verb::Squash);
        self.q.push_at(arrive, Ev::SquashArrive { si: vsi, att });
    }

    /// Sends an Ack back to the coordinator (as one or more copies under
    /// fault injection; the coordinator deduplicates by `ack_id`).
    #[allow(clippy::too_many_arguments)] // one arg per wire field
    fn send_ack(
        &mut self,
        at: Cycles,
        src: NodeId,
        dst: NodeId,
        si: usize,
        att: u32,
        ok: bool,
        ack_id: u32,
    ) {
        let ep = self.cl.membership.epoch();
        for back in self
            .cl
            .send_faulty(at, src, dst, wire_size(0, 64), Verb::Ack)
        {
            self.q.push_at(
                back,
                Ev::AckArrive {
                    si,
                    att,
                    ok,
                    ack_id,
                    from: src,
                    ep,
                },
            );
        }
    }

    /// Intend-to-commit at remote `y`: lock, check against *remote*
    /// transactions only (local ones have no filters in HADES-H), Ack.
    fn on_intend_arrive(
        &mut self,
        si: usize,
        att: u32,
        node: NodeId,
        write_lines: Vec<u64>,
        ack_id: u32,
    ) {
        let now = self.q.now();
        if !self.alive(si, att) || self.crashed[node.0 as usize] {
            // A crashed participant stays silent; the coordinator's
            // commit timeout turns the missing Ack into a clean abort.
            return;
        }
        let nb = node.0 as usize;
        let key = self.key_of(si);
        let origin = key.origin;
        let bloom = self.cl.cfg.bloom;
        if self.poisoned[nb].contains(&key) {
            self.send_ack(now, node, origin, si, att, false, ack_id);
            return;
        }
        let token = owner_token(key.origin, key.slot);
        if self.cl.injector_active() && self.cl.lock_bufs[nb].holds(token) {
            // Duplicated Intend copy: the first copy already locked and
            // probed; just re-Ack (the coordinator dedups by ack_id).
            self.send_ack(now, node, origin, si, att, true, ack_id);
            return;
        }
        let (rd, wr) = self.cl.nics[nb].filters_for_locking(key);
        let read_lines = self.cl.nics[nb].exact_reads(key);
        let lock = self.cl.lock_bufs[nb].try_lock_at(
            now,
            token,
            Signature::Conventional(rd),
            Signature::Conventional(wr),
            &write_lines,
            &read_lines,
        );
        if let Err(fail) = lock {
            // Saturation fallback at the participant: NIC-side software
            // validation of the exact sets replaces the full bank.
            let degraded_ok = self.cl.cfg.overload.degrade_on_saturation
                && fail == LockFailure::NoFreeBuffer
                && self.cl.nics[nb].exact_validate(&write_lines, &read_lines, Some(key));
            if !degraded_ok {
                self.send_ack(now, node, origin, si, att, false, ack_id);
                return;
            }
            if self.cl.tracer.is_enabled() {
                self.cl
                    .tracer
                    .emit(now, node.0, NO_SLOT, EventKind::DegradedCommit);
            }
            if self.meas.measuring() && !self.draining {
                self.meas.stats.overload.degraded_commits += 1;
            }
            self.cl.obs_degrade(now);
        }
        // Participant lease (crash plans only): if the coordinator dies
        // holding this Locking Buffer, reclaim it when the lease runs out.
        if self.crash_plan_active() {
            let lease = self.cl.fabric.injector().lease();
            self.q.push_at(now + lease, Ev::LeaseExpire { node, key });
        }
        let svc = bloom.lock_buffer_load + bloom.bf_op * write_lines.len().max(1) as u64;
        let conflicts = self.cl.nics[nb].probe_writes_against(now, &write_lines, Some(key));
        for c in conflicts {
            self.poison_and_squash_remote(node, c.with, now);
        }
        // No check against y's local transactions: they will discover the
        // conflict at their own Local Validation (Section V-D).
        self.send_ack(now + svc, node, origin, si, att, true, ack_id);
    }

    fn on_ack(&mut self, si: usize, att: u32, ok: bool, ack_id: u32) {
        if self.slots[si].acks_seen.contains(&ack_id) {
            return; // duplicated copy of an already-counted Ack
        }
        self.slots[si].acks_seen.push(ack_id);
        if !ok {
            self.slots[si].commit_failed = true;
        }
        let s = &mut self.slots[si];
        debug_assert!(s.acks_outstanding > 0);
        s.acks_outstanding -= 1;
        if s.acks_outstanding > 0 {
            return;
        }
        let now = self.q.now();
        self.cl.obs_round_end(si, now);
        if self.slots[si].commit_failed {
            self.squash(si, SquashReason::LockFailed);
            return;
        }
        // Lease margin (crash plans only): if the handshake dragged past
        // half the lease, participants may already be reclaiming our
        // locks — abort instead of committing on possibly-stale grants.
        if self.crash_plan_active() {
            let lease = self.cl.fabric.injector().lease();
            if now > self.slots[si].commit_start + Cycles::new(lease.get() / 2) {
                self.squash(si, SquashReason::CommitTimeout);
                return;
            }
        }
        self.local_validation(si, att, now);
    }

    /// The commit watchdog fired with Acks still missing: a commit
    /// handshake message was lost. Squash and retry with backoff.
    fn on_commit_timeout(&mut self, si: usize) {
        if self.slots[si].acks_outstanding == 0 || self.slots[si].unsquashable {
            return; // handshake completed; watchdog is stale
        }
        self.slots[si].acks_outstanding = 0;
        self.squash(si, SquashReason::CommitTimeout);
    }

    /// Local Validation: re-read every local record in the read and write
    /// sets and compare versions (Section V-D).
    fn local_validation(&mut self, si: usize, att: u32, now: Cycles) {
        self.cl.obs_enter(si, ProfPhase::Validate, now);
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Validate));
        }
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let sw = self.cl.cfg.sw;
        let entries: Vec<(RecordId, u64)> = self.slots[si]
            .local_reads
            .iter()
            .chain(&self.slots[si].local_writes)
            .copied()
            .collect();
        let mut cost = Cycles::ZERO;
        let mut ok = true;
        for (rid, v) in &entries {
            cost += sw.validate_per_record;
            let first_line = [self.cl.db.record(*rid).lines().next().expect("record")];
            let (lat, _) = self.cl.access_lines(node, core, &first_line);
            cost += lat;
            if self.cl.db.record(*rid).version() != *v {
                ok = false;
            }
        }
        let done = self.cl.run_on_core(node, core, now, cost);
        if self.cl.tracer.is_enabled() {
            self.trace(done, si, EventKind::PhaseEnd(TracePhase::Validate));
        }
        if !ok {
            self.squash(si, SquashReason::ValidationFailed);
            return;
        }
        self.finish_commit(si, att, done);
    }

    /// Merge local updates (bumping versions), push Validation + updates,
    /// unlock.
    fn finish_commit(&mut self, si: usize, att: u32, now: Cycles) {
        self.cl.obs_enter(si, ProfPhase::Commit, now);
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        // Re-check the fence at the decide point: the membership tick can
        // excommunicate this node between commit entry and here (the slot
        // is still squashable — `unsquashable` is only set below).
        if self.cl.self_fence_check(now, node) {
            self.squash(si, SquashReason::SelfFenced);
            return;
        }
        self.cl.note_commit_guard(node);
        let nb = node.0 as usize;
        let token = self.token(si);
        self.slots[si].unsquashable = true;
        let sw = self.cl.cfg.sw;
        let txn = self.slots[si].txn.as_ref().expect("txn active").clone();
        let mut local_cost = Cycles::ZERO;
        let mut bumped: Vec<RecordId> = Vec::new();
        // Partitions promoted onto this node count as local under the
        // routed placement. Conversely, an op that was local at execute
        // time stays local even if a planned cutover has since repointed
        // its partition: the Validation fan-out below covers only the
        // exec-time remote footprint, so it must be applied here.
        let remote_homes = self.slots[si].remote.nodes();
        let local_ops: Vec<ResolvedOp> = txn
            .ops()
            .filter(|o| {
                o.is_write() && (self.cl.route(o.home) == node || !remote_homes.contains(&o.home))
            })
            .cloned()
            .collect();
        for op in &local_ops {
            let (lat, _) = self.cl.access_lines(node, core, &op.write_lines);
            local_cost += sw.wset_commit_per_record + sw.version_update + lat;
            apply_write(&mut self.cl.db, op);
            self.cl.migration_note_write(now, op.home);
            if !bumped.contains(&op.rid) {
                self.cl.db.record_mut(op.rid).bump_version();
                bumped.push(op.rid);
            }
        }
        let mut cursor = self.cl.run_on_core(node, core, now, local_cost);
        let mut last_arrival = Cycles::ZERO;
        // Logical homes sharing a promoted primary share one Validation.
        let mut val_targets: Vec<(NodeId, Vec<ResolvedOp>)> = Vec::new();
        for dst in self.slots[si].remote.nodes() {
            let phys = self.cl.route(dst);
            if phys == node {
                continue; // applied above
            }
            let ops: Vec<ResolvedOp> = txn
                .ops()
                .filter(|o| o.is_write() && o.home == dst)
                .cloned()
                .collect();
            match val_targets.iter_mut().find(|(p, _)| *p == phys) {
                Some(e) => e.1.extend(ops),
                None => val_targets.push((phys, ops)),
            }
        }
        for (dst, ops) in val_targets {
            let lines: usize = ops.iter().map(|o| o.write_lines.len()).sum();
            let arrive =
                self.cl
                    .send_faulty_one(cursor, node, dst, wire_size(lines, 64), Verb::Validation);
            last_arrival = last_arrival.max(arrive);
            let key = self.key_of(si);
            self.q.push_at(
                arrive,
                Ev::ValidationArrive {
                    node: dst,
                    key,
                    ops,
                },
            );
        }
        if self.slots[si].holds_local_lock {
            self.cl.lock_bufs[nb].unlock(token);
            self.slots[si].holds_local_lock = false;
        }
        cursor = self
            .cl
            .run_on_core(node, core, cursor, self.cl.cfg.bloom.bf_op);
        if self.cl.injector_active() {
            // A delayed Validation must land (unlocking the remote Locking
            // Buffer) before this slot's next transaction can reuse the
            // per-slot owner token at the same node.
            cursor = cursor.max(last_arrival);
        }
        self.q.push_at(cursor, Ev::CommitDone { si, att });
    }

    /// Remote Validation: apply updates *and bump versions* so the home
    /// node's local transactions detect the conflict at their own Local
    /// Validation.
    fn on_validation_arrive(&mut self, node: NodeId, key: RemoteTxKey, ops: Vec<ResolvedOp>) {
        let nb = node.0 as usize;
        let now = self.q.now();
        let mut bumped: Vec<RecordId> = Vec::new();
        for op in &ops {
            let (_lat, _victims) = self.cl.access_lines_nic(node, &op.write_lines);
            apply_write(&mut self.cl.db, op);
            self.cl.migration_note_write(now, op.home);
            if !bumped.contains(&op.rid) {
                self.cl.db.record_mut(op.rid).bump_version();
                bumped.push(op.rid);
            }
        }
        self.cl.nics[nb].clear_remote_tx(key);
        self.cl.lock_bufs[nb].unlock(owner_token(key.origin, key.slot));
        self.poisoned[nb].remove(&key);
    }

    fn squash(&mut self, si: usize, reason: SquashReason) {
        if self.slots[si].awaiting_start || self.slots[si].txn.is_none() {
            return; // already squashed in this window
        }
        let now = self.q.now();
        debug_assert!(
            !self.slots[si].unsquashable,
            "squash past point of no return"
        );
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
        self.slots[si].awaiting_start = true;
        let node = self.slots[si].node;
        let nb = node.0 as usize;
        let token = self.token(si);
        if self.slots[si].holds_local_lock {
            self.cl.lock_bufs[nb].unlock(token);
        }
        let key = self.key_of(si);
        let mut clear_nodes: Vec<NodeId> = self.slots[si]
            .remote
            .nodes()
            .into_iter()
            .map(|d| self.cl.route(d))
            .collect();
        clear_nodes.sort_unstable();
        clear_nodes.dedup();
        let mut clears_done = Cycles::ZERO;
        for dst in clear_nodes {
            if dst == node {
                // A partition promoted onto us: clear its state in place.
                self.cl.nics[nb].clear_remote_tx(key);
                self.cl.lock_bufs[nb].unlock(token);
                self.poisoned[nb].remove(&key);
                continue;
            }
            let arrive = self
                .cl
                .send_faulty_one(now, node, dst, wire_size(0, 64), Verb::Clear);
            clears_done = clears_done.max(arrive);
            self.q.push_at(arrive, Ev::ClearRemote { node: dst, key });
        }
        if self.meas.measuring() && !self.draining {
            self.meas.stats.note_squash(node.0, reason);
        }
        let s = &mut self.slots[si];
        s.local_reads.clear();
        s.local_writes.clear();
        s.fetched.clear();
        s.remote.clear();
        s.acks_outstanding = 0;
        s.commit_failed = false;
        s.holds_local_lock = false;
        s.acks_seen.clear();
        s.attempt += 1;
        s.consec_squashes += 1;
        let attempts = s.consec_squashes;
        let timeout_recovery = reason == SquashReason::CommitTimeout && self.cl.injector_active();
        let backoff = if timeout_recovery {
            let step = {
                let inj = self.cl.fabric.injector_mut();
                inj.recovery.timeout_retries += 1;
                inj.retry().step(attempts.saturating_sub(1))
            };
            self.trace(
                now,
                si,
                EventKind::Recovery {
                    action: RecoveryKind::TimeoutRetry,
                },
            );
            step
        } else {
            let (step, boosted) = self.cl.contended_backoff(attempts);
            if boosted {
                if self.cl.tracer.is_enabled() {
                    self.trace(now, si, EventKind::StarvationBoost { attempt: attempts });
                }
                if self.meas.measuring() && !self.draining {
                    self.meas.stats.overload.starvation_boosts += 1;
                }
            }
            step
        };
        self.cl.admission.note_outcome(node, true);
        let mut restart = now + backoff;
        if self.cl.injector_active() {
            // The next attempt reuses this slot's owner token; wait for the
            // Clears to land so a delayed Clear cannot wipe fresh state.
            restart = restart.max(clears_done);
        }
        self.q.push_at(restart, Ev::Start { si });
    }

    fn on_commit_done(&mut self, si: usize, att: u32) {
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
        let txn = self.slots[si].txn.take().expect("txn active");
        let txn_attempts = self.slots[si].consec_squashes as u64 + 1;
        self.slots[si].attempt = att + 1;
        self.slots[si].consec_squashes = 0;
        self.slots[si].unsquashable = false;
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
                .add(Phase::Validation, now.saturating_sub(s.exec_end));
        }
        if !self.draining && self.meas.on_commit(now) {
            self.draining = true;
        }
        self.q.push_at(now, Ev::Start { si });
    }

    fn on_fallback_lock(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let cursor = self.slots[si].fallback_cursor;
        let nodes = self.slots[si].fallback_nodes.clone();
        if cursor >= nodes.len() {
            self.q.push_at(now, Ev::ExecStage { si, att });
            return;
        }
        let target = nodes[cursor];
        let node = self.slots[si].node;
        let token = self.token(si);
        let bloom = self.cl.cfg.bloom;
        let txn = self.slots[si].txn.as_ref().expect("txn active");
        let mut reads: Vec<u64> = Vec::new();
        let mut writes: Vec<u64> = Vec::new();
        for op in txn.ops().filter(|o| o.home == target) {
            // Record granularity for the software path.
            if op.is_write() {
                writes.extend(&op.record_lines);
            } else {
                reads.extend(&op.record_lines);
            }
        }
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable();
        writes.dedup();
        let mut rd = BloomFilter::new(bloom.nic_read_bits, bloom.hashes);
        let mut wr = BloomFilter::new(bloom.nic_write_bits, bloom.hashes);
        for &l in &reads {
            rd.insert(l);
        }
        for &l in &writes {
            wr.insert(l);
        }
        // Routed placement: the lock lives at the partition's current
        // primary (identity when the membership layer is off).
        let phys = self.cl.route(target);
        let rt_overhead = if phys == node {
            Cycles::ZERO
        } else {
            self.cl.cfg.net.rt
        };
        let tb = phys.0 as usize;
        let already = self.cl.lock_bufs[tb].holds(token);
        let ok = already
            || self.cl.lock_bufs[tb]
                .try_lock_at(
                    now,
                    token,
                    Signature::Conventional(rd),
                    Signature::Conventional(wr),
                    &writes,
                    &reads,
                )
                .is_ok();
        let when = now + rt_overhead + bloom.lock_buffer_load;
        if ok {
            if phys == node {
                self.slots[si].holds_local_lock = true;
            } else {
                // Tracked by logical home so squash routes the Clear.
                self.slots[si].remote.note_read(target);
            }
            self.slots[si].fallback_cursor += 1;
            self.q.push_at(when, Ev::FallbackLock { si, att });
        } else {
            self.q.push_at(
                when + self.cl.cfg.retry.lock_retry,
                Ev::FallbackLock { si, att },
            );
        }
    }

    /// Node crash (fault plan): every in-flight transaction originating
    /// at the node is wiped. Transactions past the point of no return
    /// have already applied their writes and shipped their Validations on
    /// the reliable transport, so the ledger records them as committed;
    /// everything else simply vanishes — its footprint at other nodes is
    /// reclaimed by participant leases and the restart broadcast.
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
            if self.slots[si].unsquashable {
                // Effects are already durable/in flight: finalize the
                // ledger before discarding the slot.
                let txn = self.slots[si].txn.as_ref().expect("txn set");
                self.total_sum_delta += txn.sum_delta;
                self.total_commits += 1;
            }
            let token = self.token(si);
            if self.slots[si].holds_local_lock {
                self.cl.lock_bufs[nb].unlock(token);
            }
            let s = &mut self.slots[si];
            s.txn = None;
            s.attempt += 1;
            s.consec_squashes = 0;
            s.fallback = false;
            s.stage = 0;
            s.outstanding = 0;
            s.local_reads.clear();
            s.local_writes.clear();
            s.fetched.clear();
            s.remote.clear();
            s.acks_outstanding = 0;
            s.acks_seen.clear();
            s.commit_failed = false;
            s.holds_local_lock = false;
            s.unsquashable = false;
            s.fallback_nodes.clear();
            s.fallback_cursor = 0;
            s.awaiting_start = false;
            if let Some(r) = restart {
                self.q.push_at(r, Ev::Start { si });
            }
        }
    }

    /// Node restart: broadcast recovery Clears for every slot's owner
    /// token (releasing anything the wiped transactions left at other
    /// nodes) and resume.
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
        let spn = self.cl.cfg.shape.slots_per_node();
        let nodes = self.cl.cfg.shape.nodes;
        for slot in 0..spn {
            let key = RemoteTxKey {
                origin: node,
                slot: SlotId(slot as u16),
            };
            for m in 0..nodes {
                if m == nb {
                    continue;
                }
                let dst = NodeId(m as u16);
                let arrive = self
                    .cl
                    .send_faulty_one(now, node, dst, wire_size(0, 64), Verb::Clear);
                self.q.push_at(arrive, Ev::ClearRemote { node: dst, key });
            }
        }
    }

    /// Participant lease expiry: if the coordinator is (still) crashed
    /// and its Locking Buffer is still held here, convert the orphaned
    /// partial lock into a clean release.
    fn on_lease_expire(&mut self, node: NodeId, key: RemoteTxKey) {
        let nb = node.0 as usize;
        let token = owner_token(key.origin, key.slot);
        if !self.crashed[key.origin.0 as usize] || !self.cl.lock_bufs[nb].holds(token) {
            return;
        }
        let now = self.q.now();
        self.cl.lock_bufs[nb].unlock(token);
        self.cl.nics[nb].clear_remote_tx(key);
        self.poisoned[nb].remove(&key);
        self.cl.fabric.injector_mut().recovery.lease_expiries += 1;
        if self.cl.tracer.is_enabled() {
            self.cl.tracer.emit(
                now,
                node.0,
                NO_SLOT,
                EventKind::Recovery {
                    action: RecoveryKind::LeaseExpire,
                },
            );
        }
    }

    /// Cluster-lease renewal (membership layer): a live node refreshes
    /// its liveness timestamp; crashed nodes stay silent and age out.
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

    /// Failure-detector sweep (membership layer): nodes whose renewals
    /// went silent past the suspicion deadline are declared dead — with
    /// quorum gating on, only when a majority view backs the declaration
    /// — and the cluster reconfigures around them.
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

    /// Reconfiguration after a death declaration: advance the epoch,
    /// promote backups, rebuild hardware state (cluster side), and drop
    /// poison entries referencing the dead node. HADES-H carries no
    /// replica-prepare queues, so there is nothing further to resolve.
    fn on_membership_death(&mut self, dead: NodeId) {
        let now = self.q.now();
        if !self.cl.reconfigure_after_death(dead, now) {
            return;
        }
        let db = dead.0 as usize;
        self.poisoned[db].clear();
        for (r, p) in self.poisoned.iter_mut().enumerate() {
            if r != db {
                p.retain(|k| k.origin != dead);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_sim::config::SimConfig;
    use hades_storage::db::Database;
    use hades_workloads::catalog::AppId;
    use hades_workloads::smallbank::{Smallbank, SmallbankConfig, INITIAL_BALANCE, OFF_BALANCE};

    fn run_app(app_name: &str, warmup: u64, measure: u64) -> RunOutcome {
        let cfg = SimConfig::isca_default();
        let mut db = Database::new(cfg.shape.nodes);
        let app = AppId::parse(app_name).unwrap().build(&mut db, 0.005);
        let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
        HadesHSim::new(Cluster::new(cfg, db), ws, warmup, measure).run_full()
    }

    #[test]
    fn commits_and_measures() {
        let out = run_app("HT-wA", 50, 300);
        assert_eq!(out.stats.committed, 300);
        assert!(out.stats.throughput() > 0.0);
    }

    #[test]
    fn conservation_invariant_holds_under_contention() {
        let cfg = SimConfig::isca_default();
        let mut db = Database::new(cfg.shape.nodes);
        let accounts = 2_000u64;
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts,
                hotspot: Some((20, 0.7)),
            },
        );
        let (checking, savings) = (sb.checking(), sb.savings());
        let initial = 2 * accounts * INITIAL_BALANCE;
        let ws = WorkloadSet::single(Box::new(sb), cfg.shape.cores_per_node);
        let out = HadesHSim::new(Cluster::new(cfg, db), ws, 0, 600).run_full();
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
            "money not conserved: commits={}, squashes={}",
            out.total_commits,
            out.stats.squashes
        );
    }

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
        let ws = WorkloadSet::single(Box::new(sb), cfg.shape.cores_per_node);
        let out = HadesHSim::new(Cluster::new(cfg, db), ws, 0, 300).run_full();
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
        let mk = || {
            let cfg = SimConfig::isca_default();
            let mut db = Database::new(cfg.shape.nodes);
            let app = AppId::parse("HT-wA").unwrap().build(&mut db, 0.005);
            let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
            (Cluster::new(cfg, db), ws)
        };
        let (cl, ws) = mk();
        let base = crate::baseline::BaselineSim::new(cl, ws, 50, 300).run();
        let (cl, ws) = mk();
        let hybrid = HadesHSim::new(cl, ws, 50, 300).run();
        let (cl, ws) = mk();
        let hades = crate::hades::HadesSim::new(cl, ws, 50, 300).run();
        let b = base.throughput();
        let h = hybrid.throughput();
        let full = hades.throughput();
        assert!(
            h > b * 0.95,
            "HADES-H ({h:.0}) should beat Baseline ({b:.0})"
        );
        assert!(
            full > h * 0.9,
            "HADES ({full:.0}) should be at least comparable to HADES-H ({h:.0})"
        );
    }

    #[test]
    fn message_loss_times_out_and_conserves_money() {
        // Dropping/duplicating the Intend/Ack handshake must be absorbed
        // by the commit-timeout path: all commits land, money is
        // conserved, and no NIC filters or Locking Buffers leak.
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
                .with_seed(5)
                .drop_verb(Verb::Intend, 0.05)
                .drop_verb(Verb::Ack, 0.05)
                .dup_verb(Verb::Intend, 0.05)
                .dup_verb(Verb::Ack, 0.05),
        );
        let out = HadesHSim::new(cl, ws, 0, 400).run_full();
        assert_eq!(out.stats.committed, 400);
        assert!(out.stats.faults.drops > 0, "plan must actually drop");
        assert!(
            out.stats.recovery.timeout_retries > 0,
            "dropped handshakes must surface as timeout retries"
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
        for (n, bufs) in out.cluster.lock_bufs.iter().enumerate() {
            assert_eq!(bufs.occupied(), 0, "node {n} left lock buffers held");
        }
        for (n, nic) in out.cluster.nics.iter().enumerate() {
            assert_eq!(nic.active_remote_txs(), 0, "node {n} NIC left filters");
        }
    }

    #[test]
    fn no_state_leaks_after_drain() {
        let out = run_app("Map-wB", 0, 200);
        for (n, bufs) in out.cluster.lock_bufs.iter().enumerate() {
            assert_eq!(bufs.occupied(), 0, "node {n} left lock buffers held");
        }
        for (n, nic) in out.cluster.nics.iter().enumerate() {
            assert_eq!(nic.active_remote_txs(), 0, "node {n} NIC left filters");
        }
    }
}
