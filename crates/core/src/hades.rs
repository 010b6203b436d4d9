//! The hardware-only HADES protocol (Section V-A).
//!
//! Local accesses are tracked at cache-line granularity by real Bloom
//! filters beside the directory (Module 3) and `WrTX_ID` tags in the LLC
//! (Module 2); remote accesses are tracked by Bloom filters in the home
//! node's SmartNIC (Module 4a). L–L conflicts are detected *eagerly* at
//! access time (the second accessor squashes itself); L–R and R–R
//! conflicts *lazily* when the first transaction commits (the committer
//! squashes the other). Commit partially locks each involved directory via
//! Locking Buffers (Section V-B) and runs the Intend-to-commit → Ack →
//! Validation flow of Table II — one network round trip on the critical
//! path, with updates pushed one-way afterwards.
//!
//! There are no record versions, no read/write-set software bookkeeping,
//! no read-atomicity checks and no read-before-write fetches: exactly the
//! rows of Table I.

use crate::runtime::{
    apply_write, owner_token, resolve, Cluster, CoreVerb, Measurement, MigrationAction, ResolvedOp,
    ResolvedTxn, RunOutcome, Stall, WorkloadSet,
};
use crate::stats::{Phase, SquashReason};
use hades_bloom::{BloomFilter, DualWriteFilter, LineHash, LockFailure, Signature};
use hades_fault::InjectedFault;
use hades_net::fabric::wire_size;
use hades_net::nic::RemoteTxKey;
use hades_sim::engine::EventQueue;
use hades_sim::ids::{CoreId, NodeId, SlotId};
use hades_sim::rng::SimRng;
use hades_sim::time::Cycles;
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
    // Module 3: this transaction's local filters (real bit vectors).
    read_bf: BloomFilter,
    write_bf: DualWriteFilter,
    exact_reads: HashSet<u64>,
    exact_writes: HashSet<u64>,
    /// Module 1 filter bits: lines already recorded this transaction.
    recorded: HashSet<u64>,
    /// Remote lines already fetched and reusable locally.
    fetched: HashSet<u64>,
    /// Module 4b: remote writes grouped by home node + involved nodes.
    remote: hades_net::nic::TxRemoteTable,
    committing: bool,
    acks_outstanding: u32,
    /// Ack sequence ids already counted for this commit (duplicate
    /// deliveries under fault injection are ignored).
    acks_seen: Vec<u32>,
    /// When this commit's handshake started (lease-margin check under a
    /// crash plan).
    commit_start: Cycles,
    commit_failed: bool,
    holds_local_lock: bool,
    /// Point of no return: all Acks received.
    unsquashable: bool,
    fallback_nodes: Vec<NodeId>,
    fallback_cursor: usize,
    /// Squashed and waiting for its restart event (guards against a second
    /// squash in the same window double-scheduling the transaction).
    awaiting_start: bool,
    /// Remote replica nodes this commit shipped prepares to (Section V-A).
    replica_targets: Vec<NodeId>,
    /// Configuration epoch this attempt started under; a commit that
    /// straddles an epoch change aborts instead of committing against a
    /// reconfigured cluster.
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
    /// Intend-to-commit arrives at a remote node. Carries the sender's
    /// configuration epoch so stale verbs from dead nodes are fenced.
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
        /// Participant that sent the Ack (epoch-fence identity).
        from: NodeId,
        /// Sender's configuration epoch at send time.
        ep: u64,
    },
    /// Validation + updates arrive at a remote node (one-way).
    ValidationArrive {
        node: NodeId,
        key: RemoteTxKey,
        ops: Vec<ResolvedOp>,
    },
    /// A squash request reaches the target's origin node.
    SquashArrive {
        si: usize,
        att: u32,
    },
    /// Clear a squashed transaction's state at a node it touched.
    ClearRemote {
        node: NodeId,
        key: RemoteTxKey,
    },
    CommitDone {
        si: usize,
        att: u32,
    },
    /// Fallback: acquire the directory lock at the next involved node.
    FallbackLock {
        si: usize,
        att: u32,
    },
    /// Replica prepare (Section V-A): persist updates to temporary durable
    /// storage at a replica node, then Ack.
    ReplicaPrepare {
        si: usize,
        att: u32,
        node: NodeId,
        lines: usize,
        ack_id: u32,
    },
    /// Replica finalize: move the prepared update to permanent storage.
    ReplicaCommit {
        node: NodeId,
        key: RemoteTxKey,
    },
    /// Coordinator gives up on missing Acks (message-loss runs).
    CommitTimeout {
        si: usize,
        att: u32,
    },
    /// Periodic context switch on a core: clear the Module 1 filter bits
    /// of its slots without squashing their transactions (Section VI).
    ContextSwitch {
        node: NodeId,
        core: CoreId,
    },
    /// Scheduled node crash (fault plan): all in-flight transaction state
    /// at the node is lost.
    NodeCrash {
        node: NodeId,
    },
    /// Scheduled node restart: replay durable replica state, broadcast
    /// recovery Clears, and resume the node's slots.
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

/// The HADES protocol simulator.
///
/// # Examples
///
/// ```no_run
/// use hades_core::hades::HadesSim;
/// use hades_core::runtime::{Cluster, WorkloadSet};
/// use hades_sim::config::SimConfig;
/// use hades_storage::db::Database;
/// use hades_workloads::catalog::AppId;
///
/// let cfg = SimConfig::isca_default();
/// let mut db = Database::new(cfg.shape.nodes);
/// let app = AppId::parse("TPC-C").unwrap().build(&mut db, 0.01);
/// let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
/// let stats = HadesSim::new(Cluster::new(cfg, db), ws, 100, 1_000).run();
/// println!("{:.0} txn/s", stats.throughput());
/// ```
#[derive(Debug)]
pub struct HadesSim {
    cl: Cluster,
    q: EventQueue<Ev>,
    ws: WorkloadSet,
    meas: Measurement,
    slots: Vec<Slot>,
    slot_rngs: Vec<SimRng>,
    /// Remote transactions poisoned at a node by a committer's conflict
    /// detection (their Intend-to-commit must be NACKed).
    poisoned: Vec<HashSet<RemoteTxKey>>,
    draining: bool,
    locality: Option<f64>,
    local_probes: u64,
    local_fps: u64,
    /// Replica prepares pending finalize, per node (drain invariant).
    replica_pending: Vec<HashSet<RemoteTxKey>>,
    replica_persists: u64,
    /// Nodes currently down under the fault plan.
    crashed: Vec<bool>,
    /// Pending restart time of each crashed node.
    restart_at: Vec<Option<Cycles>>,
    /// Commits that were past the point of no return when their
    /// coordinator crashed (their effects are ledger-final); failover
    /// resolves straddling replica prepares against this set.
    durable_at_crash: HashSet<RemoteTxKey>,
    /// Net committed RMW delta over the entire run.
    pub total_sum_delta: i64,
    /// Commits over the entire run.
    pub total_commits: u64,
}

impl HadesSim {
    /// Builds a HADES run: `warmup` commits discarded, `measure` commits
    /// recorded.
    pub fn new(mut cl: Cluster, ws: WorkloadSet, warmup: u64, measure: u64) -> Self {
        let shape = cl.cfg.shape;
        let spn = shape.slots_per_node();
        let m = shape.slots_per_core;
        let bloom = cl.cfg.bloom;
        let mut slots = Vec::with_capacity(shape.nodes * spn);
        let mut slot_rngs = Vec::with_capacity(shape.nodes * spn);
        for n in 0..shape.nodes {
            let llc_sets = cl.mems[n].llc_sets();
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
                    read_bf: BloomFilter::new(bloom.core_read_bits, bloom.hashes),
                    write_bf: DualWriteFilter::new(
                        bloom.core_write_bf1_bits,
                        bloom.core_write_bf2_bits,
                        llc_sets,
                    ),
                    exact_reads: HashSet::new(),
                    exact_writes: HashSet::new(),
                    recorded: HashSet::new(),
                    fetched: HashSet::new(),
                    remote: hades_net::nic::TxRemoteTable::new(),
                    committing: false,
                    acks_outstanding: 0,
                    acks_seen: Vec::new(),
                    commit_start: Cycles::ZERO,
                    commit_failed: false,
                    holds_local_lock: false,
                    unsquashable: false,
                    fallback_nodes: Vec::new(),
                    fallback_cursor: 0,
                    awaiting_start: false,
                    replica_targets: Vec::new(),
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
        HadesSim {
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
            replica_pending: vec![HashSet::new(); nodes],
            replica_persists: 0,
            crashed: vec![false; nodes],
            restart_at: vec![None; nodes],
            durable_at_crash: HashSet::new(),
            total_sum_delta: 0,
            total_commits: 0,
        }
    }

    /// Replica prepares still awaiting finalize at `node` (diagnostics).
    pub fn replica_pending_at(&self, node: NodeId) -> usize {
        self.replica_pending[node.0 as usize].len()
    }

    /// Whether the fault plan schedules node crashes (gates lease and
    /// restart machinery so crash-free runs stay on the fast path).
    fn crash_plan_active(&self) -> bool {
        self.cl.fabric.injector().plan().has_crashes()
    }

    /// Sends one Ack (loss-eligible) from `src` back to the coordinator;
    /// every delivered copy carries `ack_id` so duplicates are ignored.
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

    /// Stamps a transaction-lifecycle trace event for `si`'s slot.
    fn trace(&self, at: Cycles, si: usize, kind: EventKind) {
        let s = &self.slots[si];
        self.cl.tracer.emit(at, s.node.0, s.slot.0 as u32, kind);
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
                .push_at(Cycles::new(si as u64 * 41), Ev::Start { si });
        }
        if let Some(interval) = self.cl.cfg.context_switch_interval {
            let shape = self.cl.cfg.shape;
            for n in 0..shape.nodes {
                for c in 0..shape.cores_per_node {
                    // Stagger cores so switches do not align cluster-wide.
                    let stagger = Cycles::new((n * shape.cores_per_node + c) as u64 * 97);
                    self.q.push_at(
                        interval + stagger,
                        Ev::ContextSwitch {
                            node: NodeId(n as u16),
                            core: CoreId(c as u16),
                        },
                    );
                }
            }
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
        stats.llc_eviction_squashes = self.cl.mems.iter().map(|m| m.eviction_squashes()).sum();
        let mut probes = self.local_probes;
        let mut fps = self.local_fps;
        for nic in &self.cl.nics {
            let (p, _h, f) = nic.probe_stats();
            probes += p;
            fps += f;
        }
        stats.conflict_checks = probes;
        stats.false_positive_conflicts = fps;
        stats.replica_persists = self.replica_persists;
        stats.membership = self.cl.membership.stats;
        stats.migration = self.cl.migration_stats();
        stats.nemesis = self.cl.nemesis_stats(self.q.now());
        let inj = self.cl.fabric.injector();
        stats.faults = inj.faults;
        stats.recovery = inj.recovery;
        stats.dropped_messages = inj.faults.drops;
        let replica_pending_leaked: u64 = self.replica_pending.iter().map(|p| p.len() as u64).sum();
        // Replica-drain invariant: every prepare is finalized, cleared,
        // lease-reclaimed, replayed at restart, or drained by failover.
        // The only sanctioned leak is a forever-crash with the membership
        // layer off — nobody is left to reconfigure around the dead node.
        let forever_crash = inj.crashes().iter().any(|c| c.is_forever());
        if !forever_crash || self.cl.membership.enabled() {
            assert_eq!(
                replica_pending_leaked, 0,
                "replica prepares leaked at run end"
            );
        }
        RunOutcome {
            stats,
            cluster: self.cl,
            total_sum_delta: self.total_sum_delta,
            total_commits: self.total_commits,
            replica_pending_leaked,
        }
    }

    fn alive(&self, si: usize, att: u32) -> bool {
        self.slots[si].attempt == att && self.slots[si].txn.is_some()
    }

    fn si_of(&self, node: NodeId, slot: SlotId) -> usize {
        node.0 as usize * self.cl.cfg.shape.slots_per_node() + slot.0 as usize
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

    /// Transactions currently running on `node` (admission-control load
    /// signal). Slots waiting on an admission deferral hold no txn and
    /// do not count.
    fn inflight_at(&self, node: NodeId) -> usize {
        self.slots
            .iter()
            .filter(|s| s.node == node && s.txn.is_some())
            .count()
    }

    /// Software validation for a degraded local commit: the committing
    /// slot's exact line lists against every other active slot on the
    /// same node (writes vs read∪write, reads vs write). Exact sets, so
    /// no false positives.
    fn local_exact_validate(&self, si: usize, write_lines: &[u64], read_lines: &[u64]) -> bool {
        let node = self.slots[si].node;
        self.slots.iter().enumerate().all(|(j, s)| {
            j == si
                || s.node != node
                || s.txn.is_none()
                || (write_lines
                    .iter()
                    .all(|l| !s.exact_reads.contains(l) && !s.exact_writes.contains(l))
                    && read_lines.iter().all(|l| !s.exact_writes.contains(l)))
        })
    }

    /// Participant-side variant of [`Self::local_exact_validate`]: the
    /// committer is remote, so every slot of node `nb` is checked.
    fn local_exact_validate_node(
        &self,
        nb: usize,
        write_lines: &[u64],
        read_lines: &[u64],
    ) -> bool {
        let spn = self.cl.cfg.shape.slots_per_node();
        (0..spn).all(|other| {
            let s = &self.slots[nb * spn + other];
            s.txn.is_none()
                || (write_lines
                    .iter()
                    .all(|l| !s.exact_reads.contains(l) && !s.exact_writes.contains(l))
                    && read_lines.iter().all(|l| !s.exact_writes.contains(l)))
        })
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
                // Epoch fence: an Intend stamped before its sender was
                // declared dead must not lock post-failover directories.
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
            Ev::ValidationArrive { node, key, ops } => self.on_validation_arrive(node, key, ops),
            Ev::SquashArrive { si, att } => self.on_squash_arrive(si, att),
            Ev::ClearRemote { node, key } => {
                self.cl.nics[node.0 as usize].clear_remote_tx(key);
                self.cl.lock_bufs[node.0 as usize].unlock(owner_token(key.origin, key.slot));
                self.poisoned[node.0 as usize].remove(&key);
                self.replica_pending[node.0 as usize].remove(&key);
            }
            Ev::CommitDone { si, att } if self.alive(si, att) => self.on_commit_done(si, att),
            Ev::FallbackLock { si, att } if self.alive(si, att) => self.on_fallback_lock(si, att),
            Ev::ReplicaPrepare {
                si,
                att,
                node,
                lines,
                ack_id,
            } => self.on_replica_prepare(si, att, node, lines, ack_id),
            Ev::ReplicaCommit { node, key } => {
                self.replica_pending[node.0 as usize].remove(&key);
            }
            Ev::CommitTimeout { si, att } if self.alive(si, att) => {
                let s = &self.slots[si];
                if s.committing && s.acks_outstanding > 0 && !s.unsquashable {
                    self.squash(si, SquashReason::CommitTimeout);
                }
            }
            Ev::ContextSwitch { node, core } => self.on_context_switch(node, core),
            Ev::NodeCrash { node } => self.on_node_crash(node),
            Ev::NodeRestart { node } => self.on_node_restart(node),
            Ev::LeaseExpire { node, key } => self.on_lease_expire(node, key),
            Ev::LeaseRenew { node } => self.on_lease_renew(node),
            Ev::MembershipTick => self.on_membership_tick(),
            Ev::FetchTimeout { si, att, stage } if self.alive(si, att) => {
                let s = &self.slots[si];
                if s.stage == stage && s.outstanding > 0 && !s.committing && !s.unsquashable {
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
                    if !s.committing {
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
        // Admission control gates *new* transactions only — a slot
        // retrying an in-flight transaction is never deferred.
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
            s.read_bf.clear();
            s.write_bf.clear();
            s.exact_reads.clear();
            s.exact_writes.clear();
            s.recorded.clear();
            s.fetched.clear();
            s.remote.clear();
            s.committing = false;
            s.acks_outstanding = 0;
            s.acks_seen.clear();
            s.commit_failed = false;
            s.holds_local_lock = false;
            s.unsquashable = false;
            s.awaiting_start = false;
            s.replica_targets.clear();
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
            // Pessimistic mode: partially lock every involved directory
            // before executing (Section VI livelock avoidance).
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
            // Index walk + application compute: fundamental, same as
            // Baseline.
            let index_cost = sw.index_per_level * op.depth as u64 + sw.app_per_request;
            // Routed placement: a partition promoted onto this node after
            // a failover is served on the local path (identity when the
            // membership layer is off).
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
                // Remote lines already fetched this transaction are reused
                // locally at L1 cost.
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

    /// Eager L–L detection and local tracking (Table II, Local Read/Write).
    fn on_local_op(&mut self, si: usize, att: u32, op: Box<ResolvedOp>, stall: Option<Stall>) {
        let now = self.q.now();
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let me = self.slots[si].slot;
        let token = self.token(si);
        let bloom = self.cl.cfg.bloom;
        // Locking Buffers: a committing transaction may block this access;
        // retry until it unlocks (Fig 7).
        let stall = self
            .cl
            .lock_stall(node, stall, |bufs| op.lock_blocker(bufs, token));
        if let Some(Stall { holder, .. }) = stall {
            if self.cl.tracer.is_enabled() {
                self.trace(now, si, EventKind::LockStall { holder });
            }
            self.q.push_retry(Ev::LocalOp { si, att, op, stall });
            return;
        }
        let nb = node.0 as usize;
        // Eager checks against the directory WrTX_ID tags.
        let lines: Vec<u64> = op
            .read_lines
            .iter()
            .chain(&op.write_lines)
            .copied()
            .collect();
        for &line in &lines {
            if let Some(owner) = self.cl.mems[nb].write_owner(line) {
                if owner != me {
                    self.squash(si, SquashReason::EagerLocal);
                    return;
                }
            }
        }
        // Writes additionally probe the other local transactions' read
        // filters. Each written line is hashed once, for those probes and
        // for our own write filter below.
        let write_hashes: Vec<LineHash> = op.write_lines.iter().map(|&l| l.into()).collect();
        if op.is_write() {
            let spn = self.cl.cfg.shape.slots_per_node();
            for other in 0..spn {
                let osi = nb * spn + other;
                if osi == si || self.slots[osi].txn.is_none() {
                    continue;
                }
                self.local_probes += 1;
                let hit = write_hashes
                    .iter()
                    .any(|&h| self.slots[osi].read_bf.contains(h));
                if hit {
                    let real = op
                        .write_lines
                        .iter()
                        .any(|&l| self.slots[osi].exact_reads.contains(&l));
                    if !real {
                        self.local_fps += 1;
                    }
                    self.squash(si, SquashReason::EagerLocal);
                    return;
                }
            }
        }
        // Survived: record the access. First touch of a line goes to the
        // directory (LLC RT); repeats are filtered by the Module 1 bits.
        let mut cost = Cycles::ZERO;
        let mut victims: Vec<SlotId> = Vec::new();
        for &line in &op.read_lines {
            if self.slots[si].recorded.contains(&line) {
                cost += self.cl.cfg.mem.l1_rt;
                continue;
            }
            let (lat, ev) = self.cl.access_lines(node, core, &[line]);
            cost += lat.max(self.cl.cfg.mem.llc_rt) + bloom.bf_op;
            victims.extend(ev);
            self.slots[si].read_bf.insert(line);
            self.slots[si].exact_reads.insert(line);
            self.slots[si].recorded.insert(line);
        }
        for (&line, &h) in op.write_lines.iter().zip(&write_hashes) {
            if self.slots[si].exact_writes.contains(&line) {
                cost += self.cl.cfg.mem.l1_rt;
                continue;
            }
            let evs = self.cl.mems[nb].tag_write(line, me);
            victims.extend(evs);
            cost += self.cl.cfg.mem.llc_rt + bloom.bf_op + bloom.crc;
            self.slots[si].write_bf.insert(h);
            self.slots[si].exact_writes.insert(line);
            self.slots[si].recorded.insert(line);
        }
        for v in victims {
            let vsi = self.si_of(node, v);
            if vsi != si && self.slots[vsi].txn.is_some() && !self.slots[vsi].unsquashable {
                self.squash(vsi, SquashReason::LlcEviction);
            }
        }
        if !self.alive(si, att) {
            return; // the eviction cascade squashed us
        }
        let done = self.cl.run_on_core(node, core, now, cost);
        self.q.push_at(done, Ev::OpDone { si, att });
    }

    /// A remote access serviced at the home node's NIC (Table II, Remote
    /// Read/Write).
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
        // Committing transactions' Locking Buffers stall this access.
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
            // Only partially written lines are recorded at access time and
            // fetched; fully overwritten lines are neither (Table II).
            self.cl.nics[nb].record_remote_write(now, key, &op.write_partial);
            svc += bloom.bf_op * op.write_partial.len().max(1) as u64;
            fetch_lines.extend(&op.write_partial);
        }
        fetch_lines.sort_unstable();
        fetch_lines.dedup();
        let (mem_lat, victims) = self.cl.access_lines_nic(home, &fetch_lines);
        svc += mem_lat;
        for v in victims {
            let vsi = self.si_of(home, v);
            if self.slots[vsi].txn.is_some() && !self.slots[vsi].unsquashable {
                self.squash(vsi, SquashReason::LlcEviction);
            }
        }
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

    /// Commit at the local node (Table II, "Transaction Commit, at Local
    /// Node x", steps 1–3).
    fn on_begin_commit(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        // Epoch straddle: a node died while this attempt executed. Its
        // footprint may reference the dead node's directories, so resolve
        // it as an abort and retry on the new epoch (routing is
        // re-evaluated at restart). Epoch bumps from a *planned*
        // migration do not squash here: the dual-routing window keeps the
        // source's directories authoritative until the cutover, which
        // fences the few handshakes that actually straddle the flip.
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
        self.slots[si].committing = true;
        self.cl.obs_enter(si, ProfPhase::Lock, now);
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseEnd(TracePhase::Exec));
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Commit));
        }
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let nb = node.0 as usize;
        let token = self.token(si);
        let me = self.slots[si].slot;
        let bloom = self.cl.cfg.bloom;
        if self.slots[si].fallback {
            // Locks were taken up front; jump straight to the finish.
            self.finish_commit(si, att, now);
            return;
        }
        // Step 1: partially lock the local directory. A saturated read
        // filter makes the hardware check uninformative (its FP rate
        // explodes), so with the overload layer on we go straight to the
        // software path instead of installing a useless signature.
        let degrade = self.cl.cfg.overload.degrade_on_saturation;
        let bf_saturated = degrade
            && self.slots[si].read_bf.occupancy() >= self.cl.cfg.overload.bf_occupancy_threshold;
        let write_lines = self.cl.mems[nb].lines_tagged(me);
        let mut read_lines: Vec<u64> = self.slots[si].exact_reads.iter().copied().collect();
        read_lines.sort_unstable();
        let lock_cost = self.cl.find_tags_latency() + bloom.lock_buffer_load;
        let lock_result = if bf_saturated {
            Err(LockFailure::NoFreeBuffer)
        } else {
            self.cl.lock_bufs[nb].try_lock_at(
                now,
                token,
                Signature::Conventional(self.slots[si].read_bf.clone()),
                Signature::Dual(self.slots[si].write_bf.clone()),
                &write_lines,
                &read_lines,
            )
        };
        match lock_result {
            Ok(()) => self.slots[si].holds_local_lock = true,
            Err(LockFailure::NoFreeBuffer) if degrade => {
                // Saturation fallback (HADES-H-style): validate the exact
                // sets in software against every concurrent transaction —
                // local slots and remote transactions at our NIC — and
                // commit without holding a buffer if clean.
                let sw_ok = self.local_exact_validate(si, &write_lines, &read_lines)
                    && self.cl.nics[nb].exact_validate(
                        &write_lines,
                        &read_lines,
                        Some(self.key_of(si)),
                    );
                if !sw_ok {
                    self.squash(si, SquashReason::ValidationFailed);
                    return;
                }
                if self.cl.tracer.is_enabled() {
                    self.trace(now, si, EventKind::DegradedCommit);
                }
                if self.meas.measuring() && !self.draining {
                    self.meas.stats.overload.degraded_commits += 1;
                }
                self.cl.obs_degrade(now);
            }
            Err(LockFailure::Conflict(_)) | Err(LockFailure::NoFreeBuffer) => {
                self.squash(si, SquashReason::LockFailed);
                return;
            }
        }
        // Step 2: detect conflicts between our local writes and remote
        // transactions registered at our NIC; squash them.
        let exclude = Some(self.key_of(si));
        let conflicts = self.cl.nics[nb].probe_writes_against(now, &write_lines, exclude);
        let step2 = bloom.bf_op * write_lines.len().max(1) as u64;
        let mut cursor = self.cl.run_on_core(node, core, now, lock_cost + step2);
        for c in conflicts {
            self.poison_and_squash_remote(node, c.with, cursor);
        }
        // Step 3: Intend-to-commit to every involved remote node, plus
        // replica prepares (Section V-A) when replication is on. Logical
        // homes are routed to their current primaries; two partitions
        // promoted onto one physical node share a single Intend (their
        // NIC filter state already lives merged at that node).
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
        // Replica targets: the ring successors of every written record's
        // home. The origin node persists its replicas locally.
        let mut repl_remote: Vec<NodeId> = Vec::new();
        let mut local_persists = 0u64;
        if self.cl.cfg.repl.degree > 0 {
            let txn = self.slots[si].txn.as_ref().expect("txn active");
            let mut targets: Vec<NodeId> = txn
                .ops()
                .filter(|o| o.is_write())
                .flat_map(|o| self.cl.replica_nodes(o.home))
                .collect();
            targets.sort_unstable();
            targets.dedup();
            for t in targets {
                if t == node {
                    local_persists += 1;
                } else {
                    repl_remote.push(t);
                }
            }
        }
        if local_persists > 0 {
            self.replica_persists += local_persists;
            cursor = self
                .cl
                .run_on_core(node, core, cursor, self.cl.cfg.repl.persist_latency);
        }
        self.slots[si].replica_targets = repl_remote.clone();
        if intend_targets.is_empty() && repl_remote.is_empty() {
            self.finish_commit(si, att, cursor);
            return;
        }
        self.slots[si].acks_outstanding = (intend_targets.len() + repl_remote.len()) as u32;
        self.slots[si].acks_seen.clear();
        self.slots[si].commit_start = cursor;
        // Attribute the ack-wait window to Replication when replica
        // prepares are in flight (they dominate the fan-out), else Commit.
        let ph = if repl_remote.is_empty() {
            ProfPhase::Commit
        } else {
            ProfPhase::Replication
        };
        self.cl.obs_enter(si, ph, cursor);
        self.cl
            .obs_round_begin(si, Verb::Intend, intend_targets.len() as u32, cursor);
        self.cl
            .obs_round_begin(si, Verb::ReplicaPrepare, repl_remote.len() as u32, cursor);
        let ep = self.cl.membership.epoch();
        let mut ack_id: u32 = 0;
        for (dst, writes) in intend_targets {
            let bytes = wire_size(0, 64) + writes.len() * 8;
            cursor = self.cl.run_on_core(node, core, cursor, Cycles::new(20));
            let id = ack_id;
            ack_id += 1;
            for arrive in self.cl.send_faulty(cursor, node, dst, bytes, Verb::Intend) {
                self.q.push_at(
                    arrive,
                    Ev::IntendArrive {
                        si,
                        att,
                        node: dst,
                        write_lines: writes.clone(),
                        ack_id: id,
                        ep,
                    },
                );
            }
        }
        for dst in repl_remote {
            let txn = self.slots[si].txn.as_ref().expect("txn active");
            let lines: usize = txn
                .ops()
                .filter(|o| o.is_write() && self.cl.replica_nodes(o.home).contains(&dst))
                .map(|o| o.write_lines.len())
                .sum();
            let bytes = wire_size(lines, 64);
            cursor = self.cl.run_on_core(node, core, cursor, Cycles::new(20));
            let id = ack_id;
            ack_id += 1;
            for arrive in self
                .cl
                .send_faulty(cursor, node, dst, bytes, Verb::ReplicaPrepare)
            {
                self.q.push_at(
                    arrive,
                    Ev::ReplicaPrepare {
                        si,
                        att,
                        node: dst,
                        lines,
                        ack_id: id,
                    },
                );
            }
        }
        // Messages (or their Acks) may be lost or delayed: arm the commit
        // timeout whenever a fault plan is live.
        if self.cl.injector_active() {
            let deadline = cursor + self.cl.cfg.repl.ack_timeout;
            self.q.push_at(deadline, Ev::CommitTimeout { si, att });
        }
    }

    /// Replica prepare at a replica node: persist to temporary durable
    /// storage, then Ack (Section V-A). Under fault injection the persist
    /// itself may fail, in which case the replica NACKs and the
    /// coordinator aborts and retries.
    fn on_replica_prepare(
        &mut self,
        si: usize,
        att: u32,
        node: NodeId,
        _lines: usize,
        ack_id: u32,
    ) {
        let now = self.q.now();
        if !self.alive(si, att) || self.crashed[node.0 as usize] {
            return;
        }
        let key = self.key_of(si);
        if self.cl.fabric.injector_mut().persist_fails(now) {
            if self.cl.tracer.is_enabled() {
                self.cl.tracer.emit(
                    now,
                    node.0,
                    NO_SLOT,
                    EventKind::FaultInjected {
                        fault: InjectedFault::PersistFail,
                    },
                );
            }
            self.send_replica_ack(now, node, key.origin, si, att, false, ack_id);
            return;
        }
        self.replica_pending[node.0 as usize].insert(key);
        self.replica_persists += 1;
        let ready = now + self.cl.cfg.repl.persist_latency;
        self.send_replica_ack(ready, node, key.origin, si, att, true, ack_id);
    }

    /// Sends one ReplicaAck (loss-eligible) back to the coordinator.
    #[allow(clippy::too_many_arguments)] // one arg per wire field
    fn send_replica_ack(
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
            .send_faulty(at, src, dst, wire_size(0, 64), Verb::ReplicaAck)
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

    /// Poison a remote transaction's state at `node` and notify its origin.
    fn poison_and_squash_remote(&mut self, node: NodeId, key: RemoteTxKey, now: Cycles) {
        let nb = node.0 as usize;
        self.cl.nics[nb].clear_remote_tx(key);
        self.poisoned[nb].insert(key);
        let vsi = self.si_of(key.origin, key.slot);
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

    /// Intend-to-commit processing at remote node `y` (Table II, steps
    /// 1–3 at the remote node).
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
        // A committer already poisoned us here: NACK.
        if self.poisoned[nb].contains(&key) {
            self.send_ack(now, node, origin, si, att, false, ack_id);
            return;
        }
        let token = owner_token(key.origin, key.slot);
        // Duplicate delivery: the first copy already locked this
        // directory, so just re-Ack (the coordinator deduplicates by
        // `ack_id`).
        if self.cl.injector_active() && self.cl.lock_bufs[nb].holds(token) {
            self.send_ack(now, node, origin, si, att, true, ack_id);
            return;
        }
        // Step 1: partially lock y's directory with our NIC filters.
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
            // Saturation fallback at the participant: a full bank (not a
            // conflict) degrades to NIC-side software validation of the
            // exact sets; a clean check Acks without holding a buffer.
            let degraded_ok = self.cl.cfg.overload.degrade_on_saturation
                && fail == LockFailure::NoFreeBuffer
                && self.cl.nics[nb].exact_validate(&write_lines, &read_lines, Some(key))
                && self.local_exact_validate_node(nb, &write_lines, &read_lines);
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
        // Step 2: conflicts between our writes and (i) other remote
        // transactions at y, (ii) local transactions of y.
        let mut svc = bloom.lock_buffer_load + bloom.bf_op * write_lines.len().max(1) as u64;
        let conflicts = self.cl.nics[nb].probe_writes_against(now, &write_lines, Some(key));
        for c in conflicts {
            self.poison_and_squash_remote(node, c.with, now);
        }
        let spn = self.cl.cfg.shape.slots_per_node();
        let mut local_victims: Vec<usize> = Vec::new();
        let write_hashes: Vec<LineHash> = write_lines.iter().map(|&l| l.into()).collect();
        for other in 0..spn {
            let osi = nb * spn + other;
            if self.slots[osi].txn.is_none() || self.slots[osi].unsquashable {
                continue;
            }
            self.local_probes += 1;
            let hit = write_hashes.iter().any(|&h| {
                self.slots[osi].read_bf.contains(h) || self.slots[osi].write_bf.contains(h)
            });
            if hit {
                let real = write_lines.iter().any(|&l| {
                    self.slots[osi].exact_reads.contains(&l)
                        || self.slots[osi].exact_writes.contains(&l)
                });
                if !real {
                    self.local_fps += 1;
                }
                local_victims.push(osi);
            }
        }
        for vsi in local_victims {
            self.cl.obs_abort_source(vsi, origin.0);
            self.squash(vsi, SquashReason::LazyConflict);
        }
        svc += bloom.bf_op * spn as u64;
        // Step 3: Ack (loss-eligible: a dropped Ack aborts via timeout).
        self.send_ack(now + svc, node, origin, si, att, true, ack_id);
    }

    fn on_ack(&mut self, si: usize, att: u32, ok: bool, ack_id: u32) {
        if self.slots[si].acks_seen.contains(&ack_id) {
            return; // duplicate delivery of an already-counted Ack
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
        // All Acks received: past the point of no return (Table II).
        self.finish_commit(si, att, now);
    }

    /// Steps 4–6 at the local node: clear speculative state, push
    /// Validation + updates, unlock.
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
        let me = self.slots[si].slot;
        self.slots[si].unsquashable = true;
        // Step 4: clear local WrTX_ID tags (data becomes architectural).
        let _cleared = self.cl.mems[nb].commit_slot(me);
        let cost = self.cl.find_tags_latency();
        // Apply local writes to the database (no extra latency: the data
        // already lives in the LLC). Partitions promoted onto this node
        // count as local under the routed placement. Conversely, an op
        // that was local at execute time stays local even if a planned
        // cutover has since repointed its partition: the Validation
        // fan-out below covers only the exec-time remote footprint, so
        // it must be applied here.
        let txn = self.slots[si].txn.as_ref().expect("txn active").clone();
        let remote_homes = self.slots[si].remote.nodes();
        let local_ops: Vec<ResolvedOp> = txn
            .ops()
            .filter(|o| {
                o.is_write() && (self.cl.route(o.home) == node || !remote_homes.contains(&o.home))
            })
            .cloned()
            .collect();
        for op in &local_ops {
            apply_write(&mut self.cl.db, op);
            self.cl.migration_note_write(now, op.home);
        }
        // Step 5: Validation + updates to every involved node (one-way,
        // reliable transport: injected drops surface as retransmission
        // latency, never as loss). Logical homes sharing a promoted
        // primary share one Validation.
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
        let mut cursor = self.cl.run_on_core(node, core, now, cost);
        let mut last_arrival = cursor;
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
        // Replica finalize: move prepared updates to permanent storage
        // (reliable transport, like Validation).
        let key = self.key_of(si);
        for dst in self.slots[si].replica_targets.clone() {
            let arrive = self
                .cl
                .send_faulty_one(cursor, node, dst, wire_size(0, 64), Verb::Clear);
            last_arrival = last_arrival.max(arrive);
            self.q.push_at(arrive, Ev::ReplicaCommit { node: dst, key });
        }
        // Step 6: unlock the local directory, clear local filters.
        if self.slots[si].holds_local_lock {
            self.cl.lock_bufs[nb].unlock(token);
            self.slots[si].holds_local_lock = false;
        }
        cursor = self
            .cl
            .run_on_core(node, core, cursor, self.cl.cfg.bloom.bf_op);
        // Under fault injection a delayed Validation could otherwise still
        // be in flight when this slot's next transaction reuses the owner
        // token at the same remote directory; hold the slot until every
        // Validation has landed. Inert runs keep the original timing.
        if self.cl.injector_active() {
            cursor = cursor.max(last_arrival);
        }
        self.q.push_at(cursor, Ev::CommitDone { si, att });
    }

    /// Validation at a remote node: push updates, clear NIC state, unlock
    /// (Table II, remote steps 4–5).
    fn on_validation_arrive(&mut self, node: NodeId, key: RemoteTxKey, ops: Vec<ResolvedOp>) {
        let nb = node.0 as usize;
        let now = self.q.now();
        for op in &ops {
            let (_lat, victims) = self.cl.access_lines_nic(node, &op.write_lines);
            apply_write(&mut self.cl.db, op);
            self.cl.migration_note_write(now, op.home);
            for v in victims {
                let vsi = self.si_of(node, v);
                if self.slots[vsi].txn.is_some() && !self.slots[vsi].unsquashable {
                    self.squash(vsi, SquashReason::LlcEviction);
                }
            }
        }
        self.cl.nics[nb].clear_remote_tx(key);
        self.cl.lock_bufs[nb].unlock(owner_token(key.origin, key.slot));
        self.poisoned[nb].remove(&key);
    }

    fn on_squash_arrive(&mut self, si: usize, att: u32) {
        if !self.alive(si, att) || self.slots[si].unsquashable {
            return;
        }
        self.squash(si, SquashReason::LazyConflict);
    }

    /// Squash a transaction: discard speculative state everywhere and
    /// schedule a retry.
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
        let me = self.slots[si].slot;
        let token = self.token(si);
        self.cl.mems[nb].squash_slot(me);
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
        clear_nodes.extend(self.slots[si].replica_targets.iter().copied());
        clear_nodes.sort_unstable();
        clear_nodes.dedup();
        let mut clears_done = now;
        for dst in clear_nodes {
            if dst == node {
                // A partition promoted onto us: clear its state in place.
                self.cl.nics[nb].clear_remote_tx(key);
                self.cl.lock_bufs[nb].unlock(token);
                self.poisoned[nb].remove(&key);
                self.replica_pending[nb].remove(&key);
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
        s.read_bf.clear();
        s.write_bf.clear();
        s.exact_reads.clear();
        s.exact_writes.clear();
        s.recorded.clear();
        s.fetched.clear();
        s.remote.clear();
        s.committing = false;
        s.acks_outstanding = 0;
        s.commit_failed = false;
        s.holds_local_lock = false;
        s.replica_targets.clear();
        s.acks_seen.clear();
        s.attempt += 1;
        s.consec_squashes += 1;
        let attempts = s.consec_squashes;
        // Timeout-driven aborts under fault injection back off
        // exponentially (the loss may be systemic, not contention); all
        // other squash reasons keep the contention backoff.
        let timeout_recovery = reason == SquashReason::CommitTimeout && self.cl.injector_active();
        let backoff = if timeout_recovery {
            let step = self
                .cl
                .fabric
                .injector()
                .retry()
                .step(attempts.saturating_sub(1));
            self.cl.fabric.injector_mut().recovery.timeout_retries += 1;
            if self.cl.tracer.is_enabled() {
                self.trace(
                    now,
                    si,
                    EventKind::Recovery {
                        action: RecoveryKind::TimeoutRetry,
                    },
                );
            }
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
        // Don't restart until our Clears have landed: the next attempt
        // reuses this slot's owner token at the same directories.
        let mut restart = now + backoff;
        if self.cl.injector_active() {
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

    /// Context switch on (node, core): the incoming thread invalidates the
    /// Module 1 filter bits, so the outgoing transactions' next access to
    /// each line must revisit the directory — but their Bloom filters and
    /// `WrTX_ID` tags stay put and the transactions survive (Section VI).
    fn on_context_switch(&mut self, node: NodeId, core: CoreId) {
        if self.draining {
            return;
        }
        let now = self.q.now();
        let m = self.cl.cfg.shape.slots_per_core;
        let spn = self.cl.cfg.shape.slots_per_node();
        for s in 0..m {
            let slot = core.0 as usize * m + s;
            if slot < spn {
                let si = node.0 as usize * spn + slot;
                self.slots[si].recorded.clear();
            }
        }
        // OS switch cost on the core.
        self.cl.run_on_core(node, core, now, Cycles::new(2_000));
        if let Some(interval) = self.cl.cfg.context_switch_interval {
            self.q
                .push_at(now + interval, Ev::ContextSwitch { node, core });
        }
    }

    /// Fallback pre-locking: acquire the partial directory lock at each
    /// involved node (node-id order, retry on conflict — deadlock-free by
    /// resource ordering, livelock-free because holders finish).
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
        // Build the transaction's footprint filters at `target`.
        let txn = self.slots[si].txn.as_ref().expect("txn active");
        let mut reads: Vec<u64> = Vec::new();
        let mut writes: Vec<u64> = Vec::new();
        for op in txn.ops().filter(|o| o.home == target) {
            reads.extend(&op.read_lines);
            writes.extend(&op.write_lines);
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
        // Lock attempt happens at the target's current primary; remote
        // targets pay a round trip.
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
                // Remember the remote lock so a squash or commit clears it.
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
                if self.cl.membership.enabled() {
                    // Failover resolves straddling replica prepares of
                    // this commit as committed (provably durable).
                    let key = self.key_of(si);
                    self.durable_at_crash.insert(key);
                }
            }
            let me = self.slots[si].slot;
            let token = self.token(si);
            self.cl.mems[nb].squash_slot(me);
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
            s.read_bf.clear();
            s.write_bf.clear();
            s.exact_reads.clear();
            s.exact_writes.clear();
            s.recorded.clear();
            s.fetched.clear();
            s.remote.clear();
            s.committing = false;
            s.acks_outstanding = 0;
            s.acks_seen.clear();
            s.commit_failed = false;
            s.holds_local_lock = false;
            s.unsquashable = false;
            s.fallback_nodes.clear();
            s.fallback_cursor = 0;
            s.awaiting_start = false;
            s.replica_targets.clear();
            if let Some(r) = restart {
                self.q.push_at(r, Ev::Start { si });
            }
        }
    }

    /// Node restart: replay durable replica prepares, broadcast recovery
    /// Clears for every slot's owner token (releasing anything the wiped
    /// transactions left at other nodes), and resume.
    fn on_node_restart(&mut self, node: NodeId) {
        let now = self.q.now();
        let nb = node.0 as usize;
        if !self.crashed[nb] {
            return;
        }
        self.crashed[nb] = false;
        self.restart_at[nb] = None;
        let replayed = self.replica_pending[nb].len() as u64;
        // Replaying a prepare moves it to permanent storage — the queue
        // entry is consumed, not just counted (leaving it behind leaked
        // `replica_pending` state across every crash/restart cycle).
        self.replica_pending[nb].clear();
        {
            let inj = self.cl.fabric.injector_mut();
            inj.faults.restarts += 1;
            inj.recovery.replica_replays += replayed;
        }
        if self.cl.tracer.is_enabled() {
            self.cl.tracer.emit(
                now,
                node.0,
                NO_SLOT,
                EventKind::FaultInjected {
                    fault: InjectedFault::NodeRestart,
                },
            );
            if replayed > 0 {
                self.cl.tracer.emit(
                    now,
                    node.0,
                    NO_SLOT,
                    EventKind::Recovery {
                        action: RecoveryKind::ReplicaReplay,
                    },
                );
            }
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
        self.replica_pending[nb].remove(&key);
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
    /// promote backups, rebuild hardware state (cluster side), then
    /// resolve every in-flight commit straddling the epoch — committed
    /// if its coordinator was provably past the point of no return when
    /// it crashed, aborted otherwise — by draining the replica-prepare
    /// queues deterministically.
    fn on_membership_death(&mut self, dead: NodeId) {
        let now = self.q.now();
        if !self.cl.reconfigure_after_death(dead, now) {
            return;
        }
        let db = dead.0 as usize;
        // The dead node's own queue: prepares shipped to it by other
        // coordinators. Its durable state seeded the promoted primary,
        // so the queue is consumed wholesale.
        let wiped = self.replica_pending[db].len() as u64;
        self.cl.membership.stats.replica_drained += wiped;
        self.replica_pending[db].clear();
        self.poisoned[db].clear();
        for r in 0..self.cl.cfg.shape.nodes {
            if r == db {
                continue;
            }
            // Survivor queues: prepares whose coordinator is the dead
            // node. Drain in key order (deterministic) and resolve.
            let mut keys: Vec<RemoteTxKey> = self.replica_pending[r]
                .iter()
                .filter(|k| k.origin == dead)
                .copied()
                .collect();
            keys.sort_unstable_by_key(|k| (k.origin.0, k.slot.0));
            for key in keys {
                self.replica_pending[r].remove(&key);
                self.cl.membership.stats.replica_drained += 1;
                if self.durable_at_crash.contains(&key) {
                    self.cl.membership.stats.failover_commits += 1;
                } else {
                    self.cl.membership.stats.failover_aborts += 1;
                }
            }
            self.poisoned[r].retain(|k| k.origin != dead);
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
        HadesSim::new(Cluster::new(cfg, db), ws, warmup, measure).run_full()
    }

    #[test]
    fn commits_and_measures() {
        let out = run_app("HT-wA", 50, 300);
        assert_eq!(out.stats.committed, 300);
        assert!(out.stats.throughput() > 0.0);
        assert!(out.stats.mean_latency() > Cycles::ZERO);
    }

    #[test]
    fn profiler_attributes_every_measured_cycle() {
        let cfg = SimConfig::isca_default().with_profiling();
        let mut db = Database::new(cfg.shape.nodes);
        let app = AppId::parse("HT-wA").unwrap().build(&mut db, 0.005);
        let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
        let out = HadesSim::new(Cluster::new(cfg, db), ws, 50, 300).run_full();
        let prof = out.stats.profile.as_ref().expect("profiler enabled");
        // Every measured commit is attributed, and the per-phase totals
        // sum exactly to the summed end-to-end latency.
        assert_eq!(prof.txns(), out.stats.committed);
        assert_eq!(prof.total_cycles() as u128, out.stats.latency.sum());
        assert!(prof.phase_cycles(ProfPhase::Exec) > 0);
        assert!(prof.verb_msgs(Verb::Intend) > 0);
    }

    #[test]
    fn no_commit_phase_in_breakdown() {
        // Fig 10: HADES has only Execution and Validation.
        let out = run_app("Map-wA", 20, 200);
        assert_eq!(out.stats.phases.commit, 0);
        assert!(out.stats.phases.execution > 0);
        assert!(out.stats.phases.validation > 0);
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
        let out = HadesSim::new(Cluster::new(cfg, db), ws, 0, 600).run_full();
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
    fn eager_squashes_under_local_contention() {
        // Force all-local traffic with a hot set: L–L conflicts must be
        // caught eagerly.
        let cfg = SimConfig::isca_default().with_local_fraction(1.0);
        let mut db = Database::new(cfg.shape.nodes);
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts: 500,
                hotspot: Some((4, 0.9)),
            },
        );
        let ws = WorkloadSet::single(Box::new(sb), cfg.shape.cores_per_node);
        let out = HadesSim::new(Cluster::new(cfg, db), ws, 0, 300).run_full();
        assert!(
            out.stats.squashes_for(SquashReason::EagerLocal) > 0,
            "expected eager L–L squashes, reasons: {:?}",
            out.stats.squash_reasons
        );
    }

    #[test]
    fn lazy_squashes_under_remote_contention() {
        let cfg = SimConfig::isca_default();
        let mut db = Database::new(cfg.shape.nodes);
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts: 500,
                hotspot: Some((4, 0.9)),
            },
        );
        let ws = WorkloadSet::single(Box::new(sb), cfg.shape.cores_per_node);
        let out = HadesSim::new(Cluster::new(cfg, db), ws, 0, 300).run_full();
        let lazy = out.stats.squashes_for(SquashReason::LazyConflict)
            + out.stats.squashes_for(SquashReason::LockFailed);
        assert!(
            lazy > 0,
            "expected lazy conflicts, reasons: {:?}",
            out.stats.squash_reasons
        );
    }

    #[test]
    fn false_positive_rate_is_small() {
        // Section VIII-C: ~0.04% of conflict checks are false positives.
        let out = run_app("BTree-wA", 50, 400);
        let rate = out.stats.false_positive_rate();
        assert!(rate < 0.02, "false positive rate {rate} too high");
    }

    #[test]
    fn no_state_leaks_after_drain() {
        let out = run_app("B+Tree-wA", 0, 200);
        for (n, bufs) in out.cluster.lock_bufs.iter().enumerate() {
            assert_eq!(bufs.occupied(), 0, "node {n} left lock buffers held");
        }
        for (n, mem) in out.cluster.mems.iter().enumerate() {
            assert_eq!(mem.speculative_lines(), 0, "node {n} left spec lines");
        }
        for (n, nic) in out.cluster.nics.iter().enumerate() {
            assert_eq!(nic.active_remote_txs(), 0, "node {n} NIC left filters");
        }
    }

    #[test]
    fn context_switches_do_not_squash_transactions() {
        // Section VI: on a context switch the filter bits are cleared but
        // the transaction survives; only extra directory traffic is paid.
        let run = |interval: Option<u64>| {
            let mut cfg = SimConfig::isca_default();
            if let Some(us) = interval {
                cfg = cfg.with_context_switches(Cycles::from_micros(us));
            }
            let mut db = Database::new(cfg.shape.nodes);
            let app = AppId::parse("Smallbank").unwrap().build(&mut db, 0.002);
            let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
            HadesSim::new(Cluster::new(cfg, db), ws, 0, 300).run_full()
        };
        let plain = run(None);
        let switched = run(Some(5)); // a switch every 5 us: very aggressive
        assert_eq!(switched.stats.committed, 300);
        // No squash storm: context switches do not abort transactions.
        assert!(
            switched.stats.abort_rate() < plain.stats.abort_rate() + 0.15,
            "switches inflated aborts: {} vs {}",
            switched.stats.abort_rate(),
            plain.stats.abort_rate()
        );
        // But they are not free: throughput should not improve.
        assert!(
            switched.stats.throughput() <= plain.stats.throughput() * 1.05,
            "switched {} vs plain {}",
            switched.stats.throughput(),
            plain.stats.throughput()
        );
    }

    #[test]
    fn replication_persists_and_finalizes() {
        let cfg = SimConfig::isca_default().with_replication(2);
        let mut db = Database::new(cfg.shape.nodes);
        let app = AppId::parse("HT-wA").unwrap().build(&mut db, 0.005);
        let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
        let sim = HadesSim::new(Cluster::new(cfg, db), ws, 0, 300);
        let out = sim.run_full();
        assert_eq!(out.stats.committed, 300);
        assert!(
            out.stats.replica_persists > 0,
            "replicated commits must persist prepares"
        );
        assert_eq!(out.stats.dropped_messages, 0);
        // Everything finalized or cleared after the drain.
        for bufs in &out.cluster.lock_bufs {
            assert_eq!(bufs.occupied(), 0);
        }
    }

    #[test]
    fn replication_off_means_no_persists() {
        let out = run_app("HT-wA", 0, 150);
        assert_eq!(out.stats.replica_persists, 0);
        assert_eq!(out.stats.dropped_messages, 0);
    }

    #[test]
    fn replication_costs_throughput() {
        let run = |degree: usize| {
            let cfg = SimConfig::isca_default().with_replication(degree);
            let mut db = Database::new(cfg.shape.nodes);
            let app = AppId::parse("Smallbank").unwrap().build(&mut db, 0.002);
            let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
            HadesSim::new(Cluster::new(cfg, db), ws, 50, 300)
                .run()
                .throughput()
        };
        let plain = run(0);
        let replicated = run(2);
        assert!(
            replicated < plain,
            "replication should cost throughput: {replicated:.0} vs {plain:.0}"
        );
        assert!(
            replicated > plain * 0.2,
            "replication should not collapse throughput: {replicated:.0} vs {plain:.0}"
        );
    }

    #[test]
    fn message_loss_aborts_cleanly_and_conserves_money() {
        let cfg = SimConfig::isca_default()
            .with_replication(1)
            .with_message_loss(0.05);
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
        let out = HadesSim::new(Cluster::new(cfg, db), ws, 0, 400).run_full();
        assert!(out.stats.dropped_messages > 0, "loss injection inactive");
        assert!(
            out.stats.squashes_for(SquashReason::CommitTimeout) > 0,
            "lost commit messages must surface as timeouts: {:?}",
            out.stats.squash_reasons
        );
        // The two-phase commit keeps the database consistent through the
        // losses: no partial commits, no double applies.
        let db = &out.cluster.db;
        let mut total = 0u64;
        for t in [checking, savings] {
            for a in 0..accounts {
                let rid = db.lookup(t, a).unwrap().rid;
                total = total.wrapping_add(db.record(rid).read_u64(OFF_BALANCE as usize));
            }
        }
        assert_eq!(total, initial.wrapping_add(out.total_sum_delta as u64));
        for bufs in &out.cluster.lock_bufs {
            assert_eq!(bufs.occupied(), 0, "locks leaked through message loss");
        }
    }

    #[test]
    fn crash_restart_recovers_and_conserves_money() {
        use hades_fault::FaultPlan;
        let cfg = SimConfig::isca_default().with_replication(1);
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
                .with_seed(11)
                .with_lease(Cycles::new(30_000))
                .crash(1, Cycles::new(60_000), Cycles::new(200_000)),
        );
        let out = HadesSim::new(cl, ws, 0, 400).run_full();
        assert_eq!(out.stats.committed, 400, "run must survive the crash");
        assert_eq!(out.stats.faults.crashes, 1);
        assert_eq!(out.stats.faults.restarts, 1);
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
            "money not conserved across the crash"
        );
        for (n, bufs) in out.cluster.lock_bufs.iter().enumerate() {
            assert_eq!(bufs.occupied(), 0, "node {n} leaked locks across crash");
        }
    }

    #[test]
    fn faster_than_baseline_on_tpcc() {
        // The headline claim, in miniature: HADES beats Baseline on TPC-C.
        let mk = || {
            let cfg = SimConfig::isca_default();
            let mut db = Database::new(cfg.shape.nodes);
            let app = AppId::parse("TPC-C").unwrap().build(&mut db, 0.01);
            let ws = WorkloadSet::single(app, cfg.shape.cores_per_node);
            (Cluster::new(cfg, db), ws)
        };
        let (cl, ws) = mk();
        let hades = HadesSim::new(cl, ws, 50, 400).run();
        let (cl, ws) = mk();
        let base = crate::baseline::BaselineSim::new(cl, ws, 50, 400).run();
        let speedup = hades.throughput() / base.throughput();
        assert!(
            speedup > 1.3,
            "HADES/Baseline speedup only {speedup:.2} (hades {:.0}, base {:.0})",
            hades.throughput(),
            base.throughput()
        );
    }
}
