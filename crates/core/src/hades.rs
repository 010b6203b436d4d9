//! The hardware-only HADES protocol (Section V-A), and the NIC remote
//! path it shares with HADES-H.
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
//!
//! HADES-H (Section V-D) keeps this remote path and swaps the local one
//! for Baseline's software path. [`Hades<L>`] is that shared remote path —
//! remote fetches at the home NIC, the Intend/Ack/Validation handshake,
//! replica prepares, squash and Clear, fallback directory locking, and
//! the lease/restart/failover cleanup of NIC and Locking-Buffer state —
//! written once over a [`LocalPath`]: [`HwLocal`] here, and
//! [`SwLocal`](crate::hades_h::SwLocal) for HADES-H.

use crate::driver::{Engine, Ev, RearmView, Sim, SlotCore};
use crate::runtime::{
    apply_write, next_node, owner_token, Cluster, CoreVerb, OpRef, ResolvedOp, ResolvedTxn, Stall,
};
use crate::stats::{RunStats, SquashReason};
use hades_bloom::{BloomFilter, DualWriteFilter, LineHash, LockFailure, LockingBuffers, Signature};
use hades_net::fabric::wire_size;
use hades_net::nic::{RemoteTxKey, TxRemoteTable};
use hades_sim::config::{BloomParams, MembershipParams, ReplicationParams, RetryParams};
use hades_sim::ids::{CoreId, NodeId, SlotId};
use hades_sim::time::Cycles;
use hades_telemetry::event::{EventKind, Phase as TracePhase, RecoveryKind, Verb, NO_SLOT};
use hades_telemetry::profile::ProfPhase;
use std::collections::HashSet;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::rc::Rc;

/// The local path of a HADES-family engine: what HADES-H and HADES do
/// differently around the shared NIC remote path.
pub trait LocalPath: Sized + Debug {
    /// Per-slot local-path state.
    type Slot: Debug;
    /// Cycles between consecutive slots' first `Start`.
    const START_STAGGER: u64;
    /// The engine ships replica prepares (Section V-A) and checks at run
    /// end that every one was drained. HADES-H has no replication.
    const REPLICATION: bool;
    /// Applied updates bump record versions: the software local path's
    /// Local Validation compares them (Section V-D). HADES never bumps.
    const VERSIONED: bool;
    /// Fresh per-slot state for a slot of `node`.
    fn new_slot(cl: &Cluster, node: usize) -> Self::Slot;
    /// Clears per-attempt state.
    fn reset(x: &mut Self::Slot);
    /// Mid commit handshake: a migration cutover of a partition the
    /// transaction touches must fence it.
    fn in_handshake(x: &HadesSlot<Self::Slot>) -> bool;
    /// Seeds the engine's own periodic events, after the slots' `Start`s
    /// and before the fault plan's crashes.
    fn seed(_sim: &mut Sim<Hades<Self>>) {}
    /// Records how `op` at a fallback target node enters the directory
    /// lock's read and write footprints.
    fn fallback_footprint(op: &ResolvedOp, reads: &mut Vec<u64>, writes: &mut Vec<u64>);
    /// The holder of `bufs` that denies the local access `op` by the
    /// slot owning `token`, if any: the Locking-Buffer check (Fig 7) at
    /// the local path's tracking granularity.
    fn local_blocker(op: &ResolvedOp, bufs: &LockingBuffers, token: u64) -> Option<u64>;
    /// A local op passed the Locking Buffers: execute it.
    fn on_local_op(sim: &mut Sim<Hades<Self>>, si: usize, att: u32, op: &ResolvedOp);
    /// Commit steps 1–2 at the coordinator: partially lock the local
    /// directory. Returns the local write lines (to probe against remote
    /// transactions at our NIC) and the lock's cost, or `None` if the
    /// slot squashed.
    fn lock_local(sim: &mut Sim<Hades<Self>>, si: usize, now: Cycles)
        -> Option<(Vec<u64>, Cycles)>;
    /// Every Ack arrived (or none was needed) at `at`: finish the commit.
    fn after_acks(sim: &mut Sim<Hades<Self>>, si: usize, att: u32, at: Cycles);
    /// Applies the commit's local writes; returns their cost.
    fn apply_local(
        sim: &mut Sim<Hades<Self>>,
        si: usize,
        ops: &[&ResolvedOp],
        now: Cycles,
    ) -> Cycles;
    /// A degraded participant commit (no free Locking Buffer) is also
    /// clean against node `nb`'s local transactions.
    fn local_exact_ok(sim: &Sim<Hades<Self>>, nb: usize, writes: &[u64], reads: &[u64]) -> bool;
    /// Intend step 2(ii): squash node `nb`'s local transactions that
    /// conflict with the remote committer's `writes`; returns the extra
    /// NIC service time.
    fn squash_local_conflicts(
        sim: &mut Sim<Hades<Self>>,
        nb: usize,
        origin: NodeId,
        writes: &[u64],
    ) -> Cycles;
    /// Discards the slot's speculative local hardware state (squash and
    /// crash).
    fn discard_local(_sim: &mut Sim<Hades<Self>>, _si: usize) {}
    /// A context switch on (`node`, `core`).
    fn context_switch(_sim: &mut Sim<Hades<Self>>, _node: NodeId, _core: CoreId) {}
}

/// A HADES-family engine: the shared NIC remote path over local path `L`.
#[derive(Debug)]
pub struct Hades<L> {
    /// Remote transactions poisoned at a node by a committer's conflict
    /// detection (their Intend-to-commit must be NACKed).
    poisoned: Vec<HashSet<RemoteTxKey>>,
    local_probes: u64,
    local_fps: u64,
    /// Replica prepares pending finalize, per node (drain invariant).
    replica_pending: Vec<HashSet<RemoteTxKey>>,
    replica_persists: u64,
    /// Commits that were past the point of no return when their
    /// coordinator crashed (their effects are ledger-final); failover
    /// resolves straddling replica prepares against this set.
    durable_at_crash: HashSet<RemoteTxKey>,
    /// The lines a remote access fetches, rebuilt in place per access.
    fetch_lines: Vec<u64>,
    local: PhantomData<L>,
}

/// Per-slot state of the shared remote path, next to the local path's.
#[derive(Debug)]
pub struct HadesSlot<S> {
    /// Remote lines already fetched and reusable locally.
    pub(crate) fetched: HashSet<u64>,
    /// Module 4b: remote writes grouped by home node + involved nodes.
    pub(crate) remote: TxRemoteTable,
    /// In the commit handshake (set at commit entry).
    pub(crate) committing: bool,
    pub(crate) acks_outstanding: u32,
    /// Ack sequence ids already counted for this commit (duplicate
    /// deliveries under fault injection are ignored).
    pub(crate) acks_seen: Vec<u32>,
    /// The write lines of each Intend-to-commit this commit sent, by Ack
    /// id: the participant reads its Intend's lines from here.
    pub(crate) intends: LineGroups,
    /// When this commit's handshake started (lease-margin check under a
    /// crash plan).
    pub(crate) commit_start: Cycles,
    pub(crate) commit_failed: bool,
    pub(crate) holds_local_lock: bool,
    /// Point of no return: all Acks received.
    pub(crate) unsquashable: bool,
    pub(crate) fallback_nodes: Vec<NodeId>,
    /// The fallback lock batch being acquired, kept across its polls.
    pub(crate) fallback_lock: Option<FallbackTarget>,
    /// Remote replica nodes this commit shipped prepares to (Section V-A).
    pub(crate) replica_targets: Vec<NodeId>,
    /// The local path's state.
    pub(crate) local: S,
}

/// Fallback pre-locking's current target, built once per (attempt,
/// target) and reused by every poll until the lock is granted: the
/// target's footprint, sorted and hashed, the two signatures built from
/// it, and the last poll's denial.
#[derive(Debug)]
pub(crate) struct FallbackTarget {
    reads: Vec<LineHash>,
    writes: Vec<LineHash>,
    read_sig: BloomFilter,
    write_sig: BloomFilter,
    denial: Option<Stall>,
}

impl FallbackTarget {
    /// The footprint of `txn`'s ops homed at `target`, as local path `L`
    /// tracks it, and its NIC-sized signatures.
    fn build<L: LocalPath>(txn: &ResolvedTxn, target: NodeId, bloom: BloomParams) -> Self {
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for op in txn.ops().filter(|o| o.home == target) {
            L::fallback_footprint(op, &mut reads, &mut writes);
        }
        let hashed = |mut lines: Vec<u64>| -> Vec<LineHash> {
            lines.sort_unstable();
            lines.dedup();
            lines.into_iter().map(LineHash::new).collect()
        };
        let (reads, writes) = (hashed(reads), hashed(writes));
        let mut read_sig = BloomFilter::new(bloom.nic_read_bits, bloom.hashes);
        let mut write_sig = BloomFilter::new(bloom.nic_write_bits, bloom.hashes);
        reads.iter().for_each(|&h| read_sig.insert(h));
        writes.iter().for_each(|&h| write_sig.insert(h));
        FallbackTarget {
            reads,
            writes,
            read_sig,
            write_sig,
            denial: None,
        }
    }

    /// The holder that denies this lock at `bufs`, as `try_lock_at`
    /// would trace it.
    fn blocker(&self, bufs: &LockingBuffers) -> Option<u64> {
        bufs.denial(&self.writes, &self.reads)
            .map(LockFailure::holder)
    }
}

/// Line lists grouped by destination node, in the order the
/// destinations were opened. Clearing keeps the lists' storage, so
/// refilling the groups for the next commit reuses it.
#[derive(Debug, Default)]
pub(crate) struct LineGroups {
    groups: Vec<(NodeId, Vec<u64>)>,
    len: usize,
}

impl LineGroups {
    /// Drops every group, keeping their storage.
    fn clear(&mut self) {
        self.len = 0;
    }

    /// The lines of `node`'s group, opened empty after the others if
    /// `node` has none yet.
    fn group(&mut self, node: NodeId) -> &mut Vec<u64> {
        let i = match self.groups[..self.len].iter().position(|g| g.0 == node) {
            Some(i) => i,
            None => {
                if self.len == self.groups.len() {
                    self.groups.push((node, Vec::new()));
                } else {
                    let g = &mut self.groups[self.len];
                    g.0 = node;
                    g.1.clear();
                }
                self.len += 1;
                self.len - 1
            }
        };
        &mut self.groups[i].1
    }

    /// The groups, in opening order.
    fn as_slice(&self) -> &[(NodeId, Vec<u64>)] {
        &self.groups[..self.len]
    }
}

/// Traces a Locking-Buffer denial: a local access's at its slot, any
/// other (`None`) at the denying bank.
fn trace_stall(cl: &Cluster, now: Cycles, stall: Stall, slot: Option<&SlotCore>) {
    if !cl.tracer.is_enabled() {
        return;
    }
    let kind = EventKind::LockStall {
        holder: stall.holder,
    };
    match slot {
        Some(s) => cl.tracer.emit(now, s.node.0, s.slot.0 as u32, kind),
        None => cl.tracer.emit(now, stall.node.0, NO_SLOT, kind),
    }
}

pub(crate) use ev::HadesEv;

/// Kept in a private module: the variants are wire messages and timers,
/// not public API.
mod ev {
    use super::*;

    /// The HADES engines' own events.
    #[derive(Debug)]
    pub enum HadesEv {
        /// A local op ready to execute (possibly a retry after a Locking
        /// Buffer denial, which `stall` then describes).
        LocalOp {
            si: usize,
            att: u32,
            op: OpRef,
            stall: Option<Stall>,
        },
        /// A remote request arrives at the home node's NIC (or retries after
        /// a Locking Buffer denial).
        RemoteReq {
            si: usize,
            att: u32,
            op: OpRef,
            stall: Option<Stall>,
        },
        /// A remote fetch's lines (the op's read and partially written
        /// lines) arrive back at the origin.
        RemoteResp { si: usize, att: u32, op: OpRef },
        /// Execution finished: start the commit.
        BeginCommit { si: usize, att: u32 },
        /// Intend-to-commit arrives at a remote node. Carries the sender's
        /// configuration epoch so stale verbs from dead nodes are fenced.
        /// Its write lines are the coordinator's `intends` group `ack_id`.
        IntendArrive {
            si: usize,
            att: u32,
            node: NodeId,
            ack_id: u32,
            ep: u64,
        },
        /// An Ack (or ReplicaAck) arrives at the coordinator. `from` is the
        /// participant (epoch-fence identity), `ep` its epoch at send time.
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
        CommitTimeout { si: usize, att: u32 },
        /// Validation + updates arrive at a remote node (one-way), naming
        /// the written ops to apply there.
        ValidationArrive {
            node: NodeId,
            key: RemoteTxKey,
            ops: Vec<OpRef>,
        },
        /// A squash request reaches the target's origin node.
        SquashArrive { si: usize, att: u32 },
        /// Clear a squashed transaction's state at a node it touched.
        ClearRemote { node: NodeId, key: RemoteTxKey },
        /// Replica prepare (Section V-A): persist updates to temporary durable
        /// storage at a replica node, then Ack.
        ReplicaPrepare {
            si: usize,
            att: u32,
            node: NodeId,
            ack_id: u32,
        },
        /// Replica finalize: move the prepared update to permanent storage.
        ReplicaCommit { node: NodeId, key: RemoteTxKey },
        /// Periodic context switch on a core (HADES; see
        /// [`LocalPath::context_switch`]).
        ContextSwitch { node: NodeId, core: CoreId },
        /// A participant lease expires: if the coordinator is crashed and its
        /// Locking Buffer is still held here, reclaim it.
        LeaseExpire { node: NodeId, key: RemoteTxKey },
    }
}

// Every event moves through the queue; keep fat payloads boxed.
const _: () = assert!(std::mem::size_of::<Ev<HadesEv>>() <= 64);

impl<L: LocalPath> Engine for Hades<L> {
    type Slot = HadesSlot<L::Slot>;
    type Ev = HadesEv;
    const START_STAGGER: u64 = L::START_STAGGER;
    const CRASHES_NEED_MEMBERSHIP: bool = false;
    const FENCE_VERB: Verb = Verb::Intend;

    fn new(cl: &Cluster) -> Self {
        let nodes = cl.cfg.shape.nodes;
        Hades {
            poisoned: vec![HashSet::new(); nodes],
            local_probes: 0,
            local_fps: 0,
            replica_pending: vec![HashSet::new(); nodes],
            replica_persists: 0,
            durable_at_crash: HashSet::new(),
            fetch_lines: Vec::new(),
            local: PhantomData,
        }
    }

    fn new_slot(cl: &Cluster, node: usize) -> Self::Slot {
        HadesSlot {
            fetched: HashSet::new(),
            remote: TxRemoteTable::new(),
            committing: false,
            acks_outstanding: 0,
            acks_seen: Vec::new(),
            intends: LineGroups::default(),
            commit_start: Cycles::ZERO,
            commit_failed: false,
            holds_local_lock: false,
            unsquashable: false,
            fallback_nodes: Vec::new(),
            fallback_lock: None,
            replica_targets: Vec::new(),
            local: L::new_slot(cl, node),
        }
    }

    fn seed(sim: &mut Sim<Self>) {
        L::seed(sim)
    }

    fn reset_attempt(x: &mut Self::Slot) {
        x.fetched.clear();
        x.remote.clear();
        x.committing = false;
        x.acks_outstanding = 0;
        x.acks_seen.clear();
        x.intends.clear();
        x.commit_failed = false;
        x.holds_local_lock = false;
        x.unsquashable = false;
        x.fallback_nodes.clear();
        x.fallback_lock = None;
        x.replica_targets.clear();
        L::reset(&mut x.local);
    }

    /// Pessimistic mode partially locks every involved directory.
    fn plan_fallback(txn: &ResolvedTxn, x: &mut Self::Slot) {
        let nodes = &mut x.fallback_nodes;
        nodes.clear();
        nodes.extend(txn.ops().map(|op| op.home));
        nodes.sort_unstable();
        nodes.dedup();
    }

    fn exec_stage(sim: &mut Sim<Self>, si: usize, att: u32) {
        sim.on_exec_stage(si, att)
    }

    fn exec_done(sim: &mut Sim<Self>, si: usize, att: u32) {
        let now = sim.q.now();
        sim.q.push_at(now, HadesEv::BeginCommit { si, att }.into());
    }

    fn fallback_lock(sim: &mut Sim<Self>, si: usize, att: u32) {
        sim.on_fallback_lock(si, att)
    }

    fn handle(sim: &mut Sim<Self>, ev: HadesEv) {
        match ev {
            HadesEv::LocalOp { si, att, op, .. } if sim.alive(si, att) => {
                sim.on_local_req(si, att, op)
            }
            HadesEv::RemoteReq { si, att, op, .. } => sim.on_remote_req(si, att, op),
            HadesEv::RemoteResp { si, att, op } if sim.alive(si, att) => {
                let fetched = &mut sim.ext[si].fetched;
                fetched.extend(&op.read_lines);
                if op.is_write() {
                    fetched.extend(&op.write_partial);
                }
                sim.on_op_done(si, att);
            }
            HadesEv::BeginCommit { si, att } if sim.alive(si, att) => sim.on_begin_commit(si, att),
            HadesEv::IntendArrive {
                si,
                att,
                node,
                ack_id,
                ep,
            } => {
                // Epoch fence: an Intend stamped before its sender was
                // declared dead must not lock post-failover directories.
                if sim.cl.membership.should_fence(ep, sim.slots[si].node) {
                    sim.fence_verb(node, Verb::Intend);
                } else {
                    sim.on_intend_arrive(si, att, node, ack_id);
                }
            }
            HadesEv::AckArrive {
                si,
                att,
                ok,
                ack_id,
                from,
                ep,
            } => {
                if sim.cl.membership.should_fence(ep, from) {
                    sim.fence_verb(sim.slots[si].node, Verb::Ack);
                } else if sim.alive(si, att) {
                    sim.on_ack(si, att, ok, ack_id);
                }
            }
            HadesEv::CommitTimeout { si, att } if sim.alive(si, att) => {
                let x = &sim.ext[si];
                if x.acks_outstanding > 0 && !x.unsquashable {
                    sim.squash(si, SquashReason::CommitTimeout);
                }
            }
            HadesEv::ValidationArrive { node, key, ops } => {
                sim.on_validation_arrive(node, key, ops)
            }
            HadesEv::SquashArrive { si, att }
                if sim.alive(si, att) && !sim.ext[si].unsquashable =>
            {
                sim.squash(si, SquashReason::LazyConflict)
            }
            HadesEv::ClearRemote { node, key } => sim.clear_remote(node.0 as usize, key),
            HadesEv::ReplicaPrepare {
                si,
                att,
                node,
                ack_id,
            } => sim.on_replica_prepare(si, att, node, ack_id),
            HadesEv::ReplicaCommit { node, key } => {
                sim.p.replica_pending[node.0 as usize].remove(&key);
            }
            HadesEv::ContextSwitch { node, core } => L::context_switch(sim, node, core),
            HadesEv::LeaseExpire { node, key } => sim.on_lease_expire(node, key),
            _ => {} // stale event for a squashed attempt
        }
    }

    /// A stalled access whose denial still holds re-arms: a local one if
    /// its attempt is alive, a remote one if, in addition, its home is up
    /// and still routes to the bank that denied it.
    fn rearm(sim: RearmView<'_>, now: Cycles, ev: &HadesEv) -> bool {
        let (si, att, op, stall, remote) = match ev {
            HadesEv::LocalOp {
                si,
                att,
                op,
                stall: Some(stall),
            } => (*si, *att, op, *stall, false),
            HadesEv::RemoteReq {
                si,
                att,
                op,
                stall: Some(stall),
            } => (*si, *att, op, *stall, true),
            _ => return false,
        };
        let s = &sim.slots[si];
        if !s.alive(att) {
            return false;
        }
        let token = owner_token(s.node, s.slot);
        let holds = if remote {
            let home = sim.cl.route(op.home);
            !sim.crashed[home.0 as usize]
                && sim
                    .cl
                    .stall_holds(stall, home, |bufs| op.lock_blocker(bufs, token))
        } else {
            sim.cl
                .stall_holds(stall, s.node, |bufs| L::local_blocker(op, bufs, token))
        };
        if holds {
            trace_stall(sim.cl, now, stall, (!remote).then_some(s));
        }
        holds
    }

    fn parks_on(ev: &HadesEv) -> Option<(usize, Stall)> {
        match ev {
            HadesEv::LocalOp {
                si,
                stall: Some(stall),
                ..
            }
            | HadesEv::RemoteReq {
                si,
                stall: Some(stall),
                ..
            } => Some((*si, *stall)),
            _ => None,
        }
    }

    fn squash(sim: &mut Sim<Self>, si: usize, reason: SquashReason) {
        sim.squash(si, reason)
    }

    fn past_no_return(x: &Self::Slot) -> bool {
        x.unsquashable
    }

    fn in_handshake(_c: &SlotCore, x: &Self::Slot) -> bool {
        L::in_handshake(x)
    }

    /// Wipes the slot's speculative state at the crashed node. Its
    /// footprint at other nodes is reclaimed by participant leases and
    /// the restart broadcast.
    fn on_crash(sim: &mut Sim<Self>, si: usize) {
        if sim.cl.membership.enabled() && sim.ext[si].unsquashable {
            // Failover resolves straddling replica prepares of this
            // commit as committed (provably durable).
            let key = sim.key_of(si);
            sim.p.durable_at_crash.insert(key);
        }
        L::discard_local(sim, si);
        if sim.ext[si].holds_local_lock {
            let nb = sim.slots[si].node.0 as usize;
            let token = sim.token(si);
            sim.cl.lock_bufs[nb].unlock(token);
        }
    }

    /// Replays durable replica prepares and broadcasts recovery Clears
    /// for every slot's owner token (releasing anything the wiped
    /// transactions left at other nodes).
    fn on_restart(sim: &mut Sim<Self>, node: NodeId) {
        let now = sim.q.now();
        let nb = node.0 as usize;
        let replayed = sim.p.replica_pending[nb].len() as u64;
        // Replaying a prepare moves it to permanent storage — the queue
        // entry is consumed, not just counted (leaving it behind leaked
        // `replica_pending` state across every crash/restart cycle).
        sim.p.replica_pending[nb].clear();
        sim.cl.fabric.injector_mut().recovery.replica_replays += replayed;
        if sim.cl.tracer.is_enabled() && replayed > 0 {
            let action = RecoveryKind::ReplicaReplay;
            sim.cl
                .tracer
                .emit(now, node.0, NO_SLOT, EventKind::Recovery { action });
        }
        let spn = sim.cl.cfg.shape.slots_per_node();
        for slot in 0..spn {
            let key = RemoteTxKey {
                origin: node,
                slot: SlotId(slot as u16),
            };
            for m in (0..sim.cl.cfg.shape.nodes).filter(|&m| m != nb) {
                let dst = NodeId(m as u16);
                let arrive = sim
                    .cl
                    .send(now, node, dst, wire_size(0, 64), Verb::Clear)
                    .only();
                sim.q
                    .push_at(arrive, HadesEv::ClearRemote { node: dst, key }.into());
            }
        }
    }

    /// Drops poison entries referencing the dead node and resolves every
    /// in-flight commit straddling the epoch — committed if its
    /// coordinator was provably past the point of no return when it
    /// crashed, aborted otherwise — by draining the replica-prepare
    /// queues deterministically.
    fn on_death(sim: &mut Sim<Self>, dead: NodeId) {
        let db = dead.0 as usize;
        let p = &mut sim.p;
        let stats = &mut sim.cl.membership.stats;
        // The dead node's own queue: prepares shipped to it by other
        // coordinators. Its durable state seeded the promoted primary,
        // so the queue is consumed wholesale.
        stats.replica_drained += p.replica_pending[db].len() as u64;
        p.replica_pending[db].clear();
        p.poisoned[db].clear();
        for r in (0..p.poisoned.len()).filter(|&r| r != db) {
            // Survivor queues: prepares whose coordinator is the dead
            // node. Drain in key order (deterministic) and resolve.
            let mut keys: Vec<RemoteTxKey> = p.replica_pending[r]
                .iter()
                .filter(|k| k.origin == dead)
                .copied()
                .collect();
            keys.sort_unstable_by_key(|k| (k.origin.0, k.slot.0));
            for key in keys {
                p.replica_pending[r].remove(&key);
                stats.replica_drained += 1;
                if p.durable_at_crash.contains(&key) {
                    stats.failover_commits += 1;
                } else {
                    stats.failover_aborts += 1;
                }
            }
            p.poisoned[r].retain(|k| k.origin != dead);
        }
    }

    fn finish(&self, cl: &Cluster, stats: &mut RunStats) -> u64 {
        let (mut probes, mut fps) = (self.local_probes, self.local_fps);
        for nic in &cl.nics {
            let (p, _h, f) = nic.probe_stats();
            probes += p;
            fps += f;
        }
        stats.conflict_checks = probes;
        stats.false_positive_conflicts = fps;
        stats.replica_persists = self.replica_persists;
        let leaked: u64 = self.replica_pending.iter().map(|p| p.len() as u64).sum();
        // Replica-drain invariant: every prepare is finalized, cleared,
        // lease-reclaimed, replayed at restart, or drained by failover.
        // The only sanctioned leak is a forever-crash with the membership
        // layer off — nobody is left to reconfigure around the dead node.
        let forever_crash = cl
            .fabric
            .injector()
            .crashes()
            .iter()
            .any(|c| c.is_forever());
        if L::REPLICATION && (!forever_crash || cl.membership.enabled()) {
            assert_eq!(leaked, 0, "replica prepares leaked at run end");
        }
        leaked
    }
}

impl<L: LocalPath> Sim<Hades<L>> {
    /// Whether the fault plan schedules node crashes (gates lease and
    /// restart machinery so crash-free runs stay on the fast path).
    fn crash_plan_active(&self) -> bool {
        self.cl.fabric.injector().plan().has_crashes()
    }

    /// Releases a transaction's remote state at node `nb`: its NIC
    /// filters, its Locking Buffer, its poison mark and any replica
    /// prepare.
    fn clear_remote(&mut self, nb: usize, key: RemoteTxKey) {
        self.cl.nics[nb].clear_remote_tx(key);
        self.cl.lock_bufs[nb].unlock(owner_token(key.origin, key.slot));
        self.p.poisoned[nb].remove(&key);
        self.p.replica_pending[nb].remove(&key);
    }

    /// Sends an Ack-class `verb` (loss-eligible) from `src` back to the
    /// coordinator; every delivered copy carries `ack_id` so duplicates
    /// are ignored.
    #[allow(clippy::too_many_arguments)] // one arg per wire field
    fn send_ack(
        &mut self,
        at: Cycles,
        src: NodeId,
        dst: NodeId,
        (si, att): (usize, u32),
        ok: bool,
        ack_id: u32,
        verb: Verb,
    ) {
        let ep = self.cl.membership.epoch();
        for back in self.cl.send(at, src, dst, wire_size(0, 64), verb) {
            let ev = HadesEv::AckArrive {
                si,
                att,
                ok,
                ack_id,
                from: src,
                ep,
            };
            self.q.push_at(back, ev.into());
        }
    }

    /// A local access checks the directory's Locking Buffers first: a
    /// committing transaction may block it, and it retries until that
    /// transaction unlocks (Fig 7).
    fn on_local_req(&mut self, si: usize, att: u32, op: OpRef) {
        let node = self.slots[si].node;
        let token = self.token(si);
        let stall = self
            .cl
            .lock_stall(node, |bufs| L::local_blocker(&op, bufs, token));
        if let Some(stall) = stall {
            trace_stall(&self.cl, self.q.now(), stall, Some(&self.slots[si]));
            let stall = Some(stall);
            self.retry_stalled(HadesEv::LocalOp { si, att, op, stall });
            return;
        }
        L::on_local_op(self, si, att, &op)
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
        let mut cursor = now;
        for (i, op) in ops.iter().enumerate() {
            // Index walk + application compute: fundamental, same as
            // Baseline.
            let index_cost = sw.index_per_level * op.depth as u64 + sw.app_per_request;
            // Routed placement: a partition promoted onto this node after
            // a failover is served on the local path (identity when the
            // membership layer is off).
            if self.cl.route(op.home) == node {
                cursor = self.cl.run_on_core(node, core, cursor, index_cost);
                let op = OpRef::new(&txn, stage_idx, i);
                let ev = HadesEv::LocalOp {
                    si,
                    att,
                    op,
                    stall: None,
                };
                self.q.push_at(cursor, ev.into());
                continue;
            }
            // Remote lines already fetched this transaction are reused
            // locally at L1 cost.
            let all_fetched = op
                .read_lines
                .iter()
                .chain(&op.write_partial)
                .all(|l| self.ext[si].fetched.contains(l));
            if all_fetched {
                let reuse = index_cost + self.cl.cfg.mem.l1_rt * op.read_lines.len().max(1) as u64;
                cursor = self.cl.run_on_core(node, core, cursor, reuse);
                self.note_remote_tracking(si, op);
                self.q.push_at(cursor, Ev::OpDone { si, att });
                continue;
            }
            cursor = self.cl.run_on_core(node, core, cursor, index_cost);
            self.note_remote_tracking(si, op);
            let sent = self.cl.issue(
                cursor,
                CoreVerb {
                    node,
                    core,
                    dst: self.cl.route(op.home),
                    bytes: wire_size(0, 64),
                    verb: Verb::Read,
                    wrs: 1,
                    fault_exempt: false,
                },
            );
            cursor = sent.depart;
            let op = OpRef::new(&txn, stage_idx, i);
            let ev = HadesEv::RemoteReq {
                si,
                att,
                op,
                stall: None,
            };
            self.q.push_at(sent.arrival, ev.into());
            // A home that dies forever mid-fetch would hang this slot;
            // the membership layer bounds the wait.
            if self.cl.membership.enabled() {
                let deadline = cursor + MembershipParams::FETCH_TIMEOUT;
                let stage = stage_idx;
                self.q
                    .push_at(deadline, Ev::FetchTimeout { si, att, stage });
            }
        }
    }

    fn note_remote_tracking(&mut self, si: usize, op: &ResolvedOp) {
        let x = &mut self.ext[si];
        if op.is_write() {
            x.remote.note_write(op.home, &op.write_lines);
        }
        if !op.read_lines.is_empty() {
            x.remote.note_read(op.home);
        }
    }

    /// A remote access serviced at the home node's NIC (Table II, Remote
    /// Read/Write).
    fn on_remote_req(&mut self, si: usize, att: u32, op: OpRef) {
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
                let stall = None;
                self.q
                    .push_at(r, HadesEv::RemoteReq { si, att, op, stall }.into());
            }
            return;
        }
        let key = self.key_of(si);
        let origin = key.origin;
        let token = owner_token(key.origin, key.slot);
        // Committing transactions' Locking Buffers stall this access.
        let stall = self
            .cl
            .lock_stall(home, |bufs| op.lock_blocker(bufs, token));
        if let Some(stall) = stall {
            trace_stall(&self.cl, now, stall, None);
            let stall = Some(stall);
            self.retry_stalled(HadesEv::RemoteReq { si, att, op, stall });
            return;
        }
        let bloom = self.cl.cfg.bloom;
        let mut svc = Cycles::ZERO;
        let mut fetch_lines = std::mem::take(&mut self.p.fetch_lines);
        fetch_lines.clear();
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
        self.squash_evicted(home, victims, None);
        let back = if home == origin {
            // Reconfiguration promoted the partition onto the requester
            // itself while the request was in flight: the response
            // needs no fabric hop.
            now + svc
        } else {
            self.cl
                .send(
                    now + svc,
                    home,
                    origin,
                    wire_size(fetch_lines.len(), 64),
                    Verb::ReadResp,
                )
                .only()
        };
        self.p.fetch_lines = fetch_lines;
        self.q
            .push_at(back, HadesEv::RemoteResp { si, att, op }.into());
    }

    /// Squashes the transactions of `node` whose speculatively written
    /// lines an LLC fill evicted (Section VIII-C), sparing `except`.
    /// Only HADES tags lines, so HADES-H never has victims.
    fn squash_evicted(&mut self, node: NodeId, victims: Vec<SlotId>, except: Option<usize>) {
        for v in victims {
            let vsi = self.si_of(node, v);
            if Some(vsi) != except && self.slots[vsi].txn.is_some() && !self.ext[vsi].unsquashable {
                self.squash(vsi, SquashReason::LlcEviction);
            }
        }
    }

    /// Commit at the local node (Table II, "Transaction Commit, at Local
    /// Node x", steps 1–3).
    fn on_begin_commit(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        if self.straddles(si) {
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
        self.ext[si].committing = true;
        self.cl.obs_enter(si, ProfPhase::Lock, now);
        if self.cl.tracer.is_enabled() {
            self.trace(now, si, EventKind::PhaseEnd(TracePhase::Exec));
            self.trace(now, si, EventKind::PhaseBegin(TracePhase::Commit));
        }
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        if self.slots[si].fallback {
            // Locks were taken up front; jump straight to the finish.
            self.finish_commit(si, att, now);
            return;
        }
        // Steps 1–2: partially lock the local directory, then detect
        // conflicts between our local writes and remote transactions
        // registered at our NIC; squash them.
        let Some((write_lines, lock_cost)) = L::lock_local(self, si, now) else {
            return;
        };
        let own_key = Some(self.key_of(si));
        let nb = node.0 as usize;
        let conflicts = self.cl.nics[nb].probe_writes_against(now, &write_lines, own_key);
        let mut cursor = self.cl.run_on_core(node, core, now, lock_cost);
        for c in conflicts {
            self.poison_and_squash_remote(node, c.with, cursor);
        }
        // Step 3: Intend-to-commit to every involved remote node, plus
        // replica prepares (Section V-A) when replication is on. Logical
        // homes are routed to their current primaries; two partitions
        // promoted onto one physical node share a single Intend (their
        // NIC filter state already lives merged at that node).
        let x = &mut self.ext[si];
        x.intends.clear();
        for &dst in x.remote.involved() {
            let phys = self.cl.route(dst);
            if phys == node {
                // Promoted onto us mid-epoch: unreachable past the
                // straddle check above, but harmless — the lines were
                // validated by the local directory lock.
                continue;
            }
            let writes = x.intends.group(phys);
            writes.extend(x.remote.raw_writes_at(dst));
            writes.sort_unstable();
            writes.dedup();
        }
        let intend_count = x.intends.as_slice().len();
        // Replica targets: the ring successors of every written record's
        // home. The origin node persists its replicas locally.
        let mut repl_remote: Vec<NodeId> = Vec::new();
        let mut local_persists = 0u64;
        if L::REPLICATION && self.cl.cfg.repl.degree > 0 {
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
            self.p.replica_persists += local_persists;
            cursor = self
                .cl
                .run_on_core(node, core, cursor, ReplicationParams::PERSIST_LATENCY);
        }
        let repl_count = repl_remote.len();
        self.ext[si].replica_targets = repl_remote;
        if intend_count == 0 && repl_count == 0 {
            L::after_acks(self, si, att, cursor);
            return;
        }
        let x = &mut self.ext[si];
        x.acks_outstanding = (intend_count + repl_count) as u32;
        x.acks_seen.clear();
        x.commit_start = cursor;
        // Attribute the ack-wait window to Replication when replica
        // prepares are in flight (they dominate the fan-out), else Commit.
        let ph = if repl_count == 0 {
            ProfPhase::Commit
        } else {
            ProfPhase::Replication
        };
        self.cl.obs_enter(si, ph, cursor);
        self.cl
            .obs_round_begin(si, Verb::Intend, intend_count as u32, cursor);
        self.cl
            .obs_round_begin(si, Verb::ReplicaPrepare, repl_count as u32, cursor);
        let ep = self.cl.membership.epoch();
        let mut ack_id: u32 = 0;
        for k in 0..intend_count {
            let (dst, ref writes) = self.ext[si].intends.as_slice()[k];
            let bytes = wire_size(0, 64) + writes.len() * 8;
            cursor = self.cl.run_on_core(node, core, cursor, Cycles::new(20));
            for arrive in self.cl.send(cursor, node, dst, bytes, Verb::Intend) {
                let ev = HadesEv::IntendArrive {
                    si,
                    att,
                    node: dst,
                    ack_id,
                    ep,
                };
                self.q.push_at(arrive, ev.into());
            }
            ack_id += 1;
        }
        for k in 0..repl_count {
            let dst = self.ext[si].replica_targets[k];
            let txn = self.slots[si].txn.as_ref().expect("txn active");
            let lines: usize = txn
                .ops()
                .filter(|o| o.is_write() && self.cl.replica_nodes(o.home).contains(&dst))
                .map(|o| o.write_lines.len())
                .sum();
            let bytes = wire_size(lines, 64);
            cursor = self.cl.run_on_core(node, core, cursor, Cycles::new(20));
            for arrive in self.cl.send(cursor, node, dst, bytes, Verb::ReplicaPrepare) {
                let ev = HadesEv::ReplicaPrepare {
                    si,
                    att,
                    node: dst,
                    ack_id,
                };
                self.q.push_at(arrive, ev.into());
            }
            ack_id += 1;
        }
        // Messages (or their Acks) may be lost or delayed: arm the commit
        // timeout whenever a fault plan is live.
        if self.cl.injector_active() {
            let deadline = cursor + ReplicationParams::ACK_TIMEOUT;
            self.q
                .push_at(deadline, HadesEv::CommitTimeout { si, att }.into());
        }
    }

    /// Replica prepare at a replica node: persist to temporary durable
    /// storage, then Ack (Section V-A).
    fn on_replica_prepare(&mut self, si: usize, att: u32, node: NodeId, ack_id: u32) {
        let now = self.q.now();
        if !self.alive(si, att) || self.crashed[node.0 as usize] {
            return;
        }
        let key = self.key_of(si);
        self.p.replica_pending[node.0 as usize].insert(key);
        self.p.replica_persists += 1;
        let ready = now + ReplicationParams::PERSIST_LATENCY;
        let (origin, verb) = (key.origin, Verb::ReplicaAck);
        self.send_ack(ready, node, origin, (si, att), true, ack_id, verb);
    }

    /// Poison a remote transaction's state at `node` and notify its origin.
    fn poison_and_squash_remote(&mut self, node: NodeId, key: RemoteTxKey, now: Cycles) {
        let nb = node.0 as usize;
        self.cl.nics[nb].clear_remote_tx(key);
        self.p.poisoned[nb].insert(key);
        let vsi = self.si_of(key.origin, key.slot);
        let att = self.slots[vsi].attempt;
        self.cl.obs_abort_source(vsi, node.0);
        let ev = HadesEv::SquashArrive { si: vsi, att }.into();
        if key.origin == node {
            // A promoted partition serviced in place: the "remote"
            // transaction is the node's own, so the squash notification
            // needs no fabric hop.
            self.q.push_at(now, ev);
            return;
        }
        let arrive = self
            .cl
            .send(now, node, key.origin, wire_size(0, 64), Verb::Squash)
            .only();
        self.q.push_at(arrive, ev);
    }

    /// Intend-to-commit processing at remote node `y` (Table II, steps
    /// 1–3 at the remote node).
    fn on_intend_arrive(&mut self, si: usize, att: u32, node: NodeId, ack_id: u32) {
        let now = self.q.now();
        if !self.alive(si, att) || self.crashed[node.0 as usize] {
            // A crashed participant stays silent; the coordinator's
            // commit timeout turns the missing Ack into a clean abort.
            return;
        }
        // The Intend's write lines, lent by the coordinator's slot for
        // the duration of the step.
        let group = &mut self.ext[si].intends.groups[ack_id as usize].1;
        let write_lines = std::mem::take(group);
        self.intend_step((si, att), node, ack_id, &write_lines, now);
        self.ext[si].intends.groups[ack_id as usize].1 = write_lines;
    }

    /// Steps 1–3 at participant `node` of the live attempt `ack`, for an
    /// Intend carrying `write_lines`.
    fn intend_step(
        &mut self,
        ack: (usize, u32),
        node: NodeId,
        ack_id: u32,
        write_lines: &[u64],
        now: Cycles,
    ) {
        let si = ack.0;
        let nb = node.0 as usize;
        let key = self.key_of(si);
        let origin = key.origin;
        let bloom = self.cl.cfg.bloom;
        // A committer already poisoned us here: NACK.
        if self.p.poisoned[nb].contains(&key) {
            self.send_ack(now, node, origin, ack, false, ack_id, Verb::Ack);
            return;
        }
        let token = owner_token(key.origin, key.slot);
        // Duplicate delivery: the first copy already locked this
        // directory, so just re-Ack (the coordinator deduplicates by
        // `ack_id`).
        if self.cl.injector_active() && self.cl.lock_bufs[nb].holds(token) {
            self.send_ack(now, node, origin, ack, true, ack_id, Verb::Ack);
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
            write_lines,
            &read_lines,
        );
        if let Err(fail) = lock {
            // Saturation fallback at the participant: a full bank (not a
            // conflict) degrades to NIC-side software validation of the
            // exact sets; a clean check Acks without holding a buffer.
            let degraded_ok = self.cl.cfg.overload.degrade_on_saturation
                && fail == LockFailure::NoFreeBuffer
                && self.cl.nics[nb].exact_validate(write_lines, &read_lines, Some(key))
                && L::local_exact_ok(self, nb, write_lines, &read_lines);
            if !degraded_ok {
                self.send_ack(now, node, origin, ack, false, ack_id, Verb::Ack);
                return;
            }
            self.degraded_commit(now, node, None);
        }
        // Participant lease (crash plans only): if the coordinator dies
        // holding this Locking Buffer, reclaim it when the lease runs out.
        if self.crash_plan_active() {
            let lease = self.cl.fabric.injector().lease();
            self.q
                .push_at(now + lease, HadesEv::LeaseExpire { node, key }.into());
        }
        // Step 2: conflicts between our writes and (i) other remote
        // transactions at y, (ii) local transactions of y.
        let mut svc = bloom.lock_buffer_load + bloom.bf_op * write_lines.len().max(1) as u64;
        let conflicts = self.cl.nics[nb].probe_writes_against(now, write_lines, Some(key));
        for c in conflicts {
            self.poison_and_squash_remote(node, c.with, now);
        }
        svc += L::squash_local_conflicts(self, nb, origin, write_lines);
        // Step 3: Ack (loss-eligible: a dropped Ack aborts via timeout).
        self.send_ack(now + svc, node, origin, ack, true, ack_id, Verb::Ack);
    }

    fn on_ack(&mut self, si: usize, att: u32, ok: bool, ack_id: u32) {
        let x = &mut self.ext[si];
        if x.acks_seen.contains(&ack_id) {
            return; // duplicate delivery of an already-counted Ack
        }
        x.acks_seen.push(ack_id);
        if !ok {
            x.commit_failed = true;
        }
        debug_assert!(x.acks_outstanding > 0);
        x.acks_outstanding -= 1;
        if x.acks_outstanding > 0 {
            return;
        }
        let now = self.q.now();
        self.cl.obs_round_end(si, now);
        if self.ext[si].commit_failed {
            self.squash(si, SquashReason::LockFailed);
            return;
        }
        // Lease margin (crash plans only): if the handshake dragged past
        // half the lease, participants may already be reclaiming our
        // locks — abort instead of committing on possibly-stale grants.
        if self.crash_plan_active() {
            let lease = self.cl.fabric.injector().lease();
            if now > self.ext[si].commit_start + Cycles::new(lease.get() / 2) {
                self.squash(si, SquashReason::CommitTimeout);
                return;
            }
        }
        L::after_acks(self, si, att, now);
    }

    /// Steps 4–6 at the local node: make local writes architectural,
    /// push Validation + updates, unlock.
    pub(crate) fn finish_commit(&mut self, si: usize, att: u32, now: Cycles) {
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
        self.ext[si].unsquashable = true;
        // Step 4: apply local writes. Partitions promoted onto this node
        // count as local under the routed placement. Conversely, an op
        // that was local at execute time stays local even if a planned
        // cutover has since repointed its partition: the Validation
        // fan-out below covers only the exec-time remote footprint, so
        // it must be applied here.
        let txn = Rc::clone(self.slots[si].txn.as_ref().expect("txn active"));
        let remote = &self.ext[si].remote;
        let local_ops: Vec<&ResolvedOp> = txn
            .ops()
            .filter(|o| o.is_write() && (self.cl.route(o.home) == node || !remote.involves(o.home)))
            .collect();
        let cost = L::apply_local(self, si, &local_ops, now);
        let mut cursor = self.cl.run_on_core(node, core, now, cost);
        let mut last_arrival = cursor;
        let key = self.key_of(si);
        // Step 5: Validation + updates to every involved node (one-way,
        // reliable transport: injected drops surface as retransmission
        // latency, never as loss). Logical homes sharing a promoted
        // primary share one Validation, sent where the first of them
        // appears in node order; it names the written ops of each.
        let homes = self.ext[si].remote.involved().len();
        for k in 0..homes {
            let involved = self.ext[si].remote.involved();
            let dst = self.cl.route(involved[k]);
            if dst == node || involved[..k].iter().any(|&h| self.cl.route(h) == dst) {
                continue; // applied above, or already sent
            }
            let ops: Vec<OpRef> = involved[k..]
                .iter()
                .filter(|&&h| self.cl.route(h) == dst)
                .flat_map(|&h| {
                    txn.positioned_ops()
                        .filter(move |&(_, _, o)| o.is_write() && o.home == h)
                })
                .map(|(stage, i, _)| OpRef::new(&txn, stage, i))
                .collect();
            let lines: usize = ops.iter().map(|o| o.write_lines.len()).sum();
            let arrive = self
                .cl
                .send(cursor, node, dst, wire_size(lines, 64), Verb::Validation)
                .only();
            last_arrival = last_arrival.max(arrive);
            let ev = HadesEv::ValidationArrive {
                node: dst,
                key,
                ops,
            };
            self.q.push_at(arrive, ev.into());
        }
        // Replica finalize: move prepared updates to permanent storage
        // (reliable transport, like Validation).
        for k in 0..self.ext[si].replica_targets.len() {
            let dst = self.ext[si].replica_targets[k];
            let arrive = self
                .cl
                .send(cursor, node, dst, wire_size(0, 64), Verb::Clear)
                .only();
            last_arrival = last_arrival.max(arrive);
            self.q
                .push_at(arrive, HadesEv::ReplicaCommit { node: dst, key }.into());
        }
        // Step 6: unlock the local directory, clear local filters.
        if self.ext[si].holds_local_lock {
            self.cl.lock_bufs[nb].unlock(token);
            self.ext[si].holds_local_lock = false;
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
    /// (Table II, remote steps 4–5). A versioned local path bumps the
    /// record versions so the home node's local transactions detect the
    /// conflict at their own Local Validation.
    fn on_validation_arrive(&mut self, node: NodeId, key: RemoteTxKey, ops: Vec<OpRef>) {
        let nb = node.0 as usize;
        let now = self.q.now();
        for (k, op) in ops.iter().enumerate() {
            let (_lat, victims) = self.cl.access_lines_nic(node, &op.write_lines);
            apply_write(&mut self.cl.db, op);
            self.cl.migration_note_write(now, op.home);
            if L::VERSIONED && !ops[..k].iter().any(|o| o.rid == op.rid) {
                self.cl.db.record_mut(op.rid).bump_version();
            }
            self.squash_evicted(node, victims, None);
        }
        self.cl.nics[nb].clear_remote_tx(key);
        self.cl.lock_bufs[nb].unlock(owner_token(key.origin, key.slot));
        self.p.poisoned[nb].remove(&key);
    }

    /// Squash a transaction: discard speculative state everywhere and
    /// schedule a retry.
    pub(crate) fn squash(&mut self, si: usize, reason: SquashReason) {
        if self.slots[si].awaiting_start || self.slots[si].txn.is_none() {
            return; // already squashed in this window
        }
        let now = self.q.now();
        debug_assert!(!self.ext[si].unsquashable, "squash past point of no return");
        self.cl.obs_abort(si, reason.label(), now);
        self.slots[si].awaiting_start = true;
        let node = self.slots[si].node;
        let nb = node.0 as usize;
        let token = self.token(si);
        L::discard_local(self, si);
        if self.ext[si].holds_local_lock {
            self.cl.lock_bufs[nb].unlock(token);
        }
        let key = self.key_of(si);
        // One Clear per node the attempt touched, in node order.
        let next_clear = |sim: &Self, after| {
            let x = &sim.ext[si];
            let homes = x.remote.involved().iter().map(|&d| sim.cl.route(d));
            next_node(homes.chain(x.replica_targets.iter().copied()), after, None)
        };
        let mut clears_done = now;
        let mut next = next_clear(self, None);
        while let Some(dst) = next {
            next = next_clear(self, Some(dst));
            if dst == node {
                // A partition promoted onto us: clear its state in place.
                self.clear_remote(nb, key);
                continue;
            }
            let arrive = self
                .cl
                .send(now, node, dst, wire_size(0, 64), Verb::Clear)
                .only();
            clears_done = clears_done.max(arrive);
            self.q
                .push_at(arrive, HadesEv::ClearRemote { node: dst, key }.into());
        }
        if self.recording() {
            self.meas.stats.note_squash(node.0, reason);
        }
        Hades::<L>::reset_attempt(&mut self.ext[si]);
        // Don't restart until our Clears have landed: the next attempt
        // reuses this slot's owner token at the same directories.
        let timeout = reason == SquashReason::CommitTimeout;
        self.schedule_retry(si, now, clears_done, timeout);
    }

    /// Fallback pre-locking: acquire the partial directory lock at each
    /// involved node (node-id order, retry on conflict — deadlock-free by
    /// resource ordering, livelock-free because holders finish).
    fn on_fallback_lock(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let cursor = self.slots[si].fallback_cursor;
        let Some(&target) = self.ext[si].fallback_nodes.get(cursor) else {
            self.q.push_at(now, Ev::ExecStage { si, att });
            return;
        };
        let node = self.slots[si].node;
        // Lock attempt happens at the target's current primary (identity
        // when the membership layer is off); remote targets pay a round
        // trip.
        let phys = self.cl.route(target);
        let rt_overhead = if phys == node {
            Cycles::ZERO
        } else {
            self.cl.cfg.net.rt
        };
        let when = now + rt_overhead + self.cl.cfg.bloom.lock_buffer_load;
        if let Some(stall) = self.poll_fallback_lock(si, target, phys, now) {
            // The bank traces a denial as `try_lock_at` does.
            trace_stall(&self.cl, now, stall, None);
            self.q
                .push_at(when + RetryParams::LOCK_RETRY, Ev::FallbackLock { si, att });
            return;
        }
        if phys == node {
            self.ext[si].holds_local_lock = true;
        } else {
            // Remember the remote lock (by logical home) so a squash
            // or commit clears it.
            self.ext[si].remote.note_read(target);
        }
        self.slots[si].fallback_cursor += 1;
        self.q.push_at(when, Ev::FallbackLock { si, att });
    }

    /// One poll of fallback target `target`, whose lock is taken at bank
    /// `phys`: returns the denial, or `None` once the slot holds the
    /// lock there. A denial that still holds is returned as is, without
    /// building or probing anything; otherwise the target's footprint and
    /// signatures are built at its first poll and reused until the grant.
    fn poll_fallback_lock(
        &mut self,
        si: usize,
        target: NodeId,
        phys: NodeId,
        now: Cycles,
    ) -> Option<Stall> {
        let token = self.token(si);
        let tb = phys.0 as usize;
        let x = &mut self.ext[si];
        if let Some(f) = &x.fallback_lock {
            if let Some(stall) = f.denial {
                if self.cl.stall_holds(stall, phys, |bufs| f.blocker(bufs)) {
                    return Some(stall);
                }
            }
        }
        if self.cl.lock_bufs[tb].holds(token) {
            // Another logical target routed to the same node: one buffer
            // covers both.
            x.fallback_lock = None;
            return None;
        }
        let f = x.fallback_lock.get_or_insert_with(|| {
            let txn = self.slots[si].txn.as_ref().expect("txn active");
            FallbackTarget::build::<L>(txn, target, self.cl.cfg.bloom)
        });
        f.denial = self.cl.lock_stall(phys, |bufs| f.blocker(bufs));
        if f.denial.is_some() {
            return f.denial;
        }
        let f = x.fallback_lock.take().expect("built above");
        self.cl.lock_bufs[tb]
            .try_lock_at(
                now,
                token,
                Signature::Conventional(f.read_sig),
                Signature::Conventional(f.write_sig),
                &f.writes,
                &f.reads,
            )
            .expect("a bank with no denial grants the lock");
        None
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
        self.clear_remote(nb, key);
        self.cl.fabric.injector_mut().recovery.lease_expiries += 1;
        if self.cl.tracer.is_enabled() {
            let action = RecoveryKind::LeaseExpire;
            self.cl
                .tracer
                .emit(now, node.0, NO_SLOT, EventKind::Recovery { action });
        }
    }
}

/// HADES's hardware local path: Module 1 filter bits, Module 2 `WrTX_ID`
/// tags, Module 3 Bloom filters beside the directory.
#[derive(Debug)]
pub struct HwLocal;

/// HADES's per-slot local-path state.
#[derive(Debug)]
pub struct HwSlot {
    // Module 3: this transaction's local filters (real bit vectors).
    read_bf: BloomFilter,
    write_bf: DualWriteFilter,
    exact_reads: HashSet<u64>,
    exact_writes: HashSet<u64>,
    /// Module 1 filter bits: lines already recorded this transaction.
    recorded: HashSet<u64>,
}

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
pub type HadesSim = Sim<Hades<HwLocal>>;

impl LocalPath for HwLocal {
    type Slot = HwSlot;
    const START_STAGGER: u64 = 41;
    const REPLICATION: bool = true;
    const VERSIONED: bool = false;

    fn new_slot(cl: &Cluster, node: usize) -> HwSlot {
        let bloom = cl.cfg.bloom;
        HwSlot {
            read_bf: BloomFilter::new(bloom.core_read_bits, bloom.hashes),
            write_bf: DualWriteFilter::new(
                bloom.core_write_bf1_bits,
                bloom.core_write_bf2_bits,
                cl.mems[node].llc_sets(),
            ),
            exact_reads: HashSet::new(),
            exact_writes: HashSet::new(),
            recorded: HashSet::new(),
        }
    }

    fn reset(x: &mut HwSlot) {
        x.read_bf.clear();
        x.write_bf.clear();
        x.exact_reads.clear();
        x.exact_writes.clear();
        x.recorded.clear();
    }

    fn in_handshake(x: &HadesSlot<HwSlot>) -> bool {
        x.committing
    }

    fn seed(sim: &mut HadesSim) {
        if let Some(interval) = sim.cl.cfg.context_switch_interval {
            let shape = sim.cl.cfg.shape;
            for n in 0..shape.nodes {
                for c in 0..shape.cores_per_node {
                    // Stagger cores so switches do not align cluster-wide.
                    let stagger = Cycles::new((n * shape.cores_per_node + c) as u64 * 97);
                    let (node, core) = (NodeId(n as u16), CoreId(c as u16));
                    sim.q.push_at(
                        interval + stagger,
                        HadesEv::ContextSwitch { node, core }.into(),
                    );
                }
            }
        }
    }

    fn fallback_footprint(op: &ResolvedOp, reads: &mut Vec<u64>, writes: &mut Vec<u64>) {
        reads.extend(&op.read_lines);
        writes.extend(&op.write_lines);
    }

    /// Line granularity: the op's read and write lines.
    fn local_blocker(op: &ResolvedOp, bufs: &LockingBuffers, token: u64) -> Option<u64> {
        op.lock_blocker(bufs, token)
    }

    fn on_local_op(sim: &mut HadesSim, si: usize, att: u32, op: &ResolvedOp) {
        sim.on_local_op(si, att, op)
    }

    fn lock_local(sim: &mut HadesSim, si: usize, now: Cycles) -> Option<(Vec<u64>, Cycles)> {
        sim.lock_local(si, now)
    }

    /// All Acks received: past the point of no return (Table II).
    fn after_acks(sim: &mut HadesSim, si: usize, att: u32, at: Cycles) {
        sim.finish_commit(si, att, at)
    }

    /// Clears the slot's local `WrTX_ID` tags (the data becomes
    /// architectural) and applies the writes to the database, with no
    /// extra latency: the data already lives in the LLC.
    fn apply_local(sim: &mut HadesSim, si: usize, ops: &[&ResolvedOp], now: Cycles) -> Cycles {
        let nb = sim.slots[si].node.0 as usize;
        let _cleared = sim.cl.mems[nb].commit_slot(sim.slots[si].slot);
        for op in ops {
            apply_write(&mut sim.cl.db, op);
            sim.cl.migration_note_write(now, op.home);
        }
        sim.cl.find_tags_latency()
    }

    /// Participant-side variant of `local_exact_validate`: the
    /// committer is remote, so every slot of node `nb` is checked.
    fn local_exact_ok(sim: &HadesSim, nb: usize, writes: &[u64], reads: &[u64]) -> bool {
        let spn = sim.cl.cfg.shape.slots_per_node();
        (nb * spn..(nb + 1) * spn).all(|o| sim.exact_clean(o, writes, reads))
    }

    fn squash_local_conflicts(
        sim: &mut HadesSim,
        nb: usize,
        origin: NodeId,
        writes: &[u64],
    ) -> Cycles {
        let spn = sim.cl.cfg.shape.slots_per_node();
        let mut local_victims: Vec<usize> = Vec::new();
        let write_hashes: Vec<LineHash> = writes.iter().map(|&l| l.into()).collect();
        for osi in nb * spn..(nb + 1) * spn {
            if sim.slots[osi].txn.is_none() || sim.ext[osi].unsquashable {
                continue;
            }
            sim.p.local_probes += 1;
            let o = &sim.ext[osi].local;
            let hit = write_hashes
                .iter()
                .any(|&h| o.read_bf.contains(h) || o.write_bf.contains(h));
            if hit {
                let real = writes
                    .iter()
                    .any(|l| o.exact_reads.contains(l) || o.exact_writes.contains(l));
                if !real {
                    sim.p.local_fps += 1;
                }
                local_victims.push(osi);
            }
        }
        for vsi in local_victims {
            sim.cl.obs_abort_source(vsi, origin.0);
            sim.squash(vsi, SquashReason::LazyConflict);
        }
        sim.cl.cfg.bloom.bf_op * spn as u64
    }

    fn discard_local(sim: &mut HadesSim, si: usize) {
        let nb = sim.slots[si].node.0 as usize;
        sim.cl.mems[nb].squash_slot(sim.slots[si].slot);
    }

    /// Context switch on (node, core): the incoming thread invalidates the
    /// Module 1 filter bits, so the outgoing transactions' next access to
    /// each line must revisit the directory — but their Bloom filters and
    /// `WrTX_ID` tags stay put and the transactions survive (Section VI).
    fn context_switch(sim: &mut HadesSim, node: NodeId, core: CoreId) {
        if sim.draining {
            return;
        }
        let now = sim.q.now();
        let m = sim.cl.cfg.shape.slots_per_core;
        let spn = sim.cl.cfg.shape.slots_per_node();
        for s in 0..m {
            let slot = core.0 as usize * m + s;
            if slot < spn {
                let si = node.0 as usize * spn + slot;
                sim.ext[si].local.recorded.clear();
            }
        }
        // OS switch cost on the core.
        sim.cl.run_on_core(node, core, now, Cycles::new(2_000));
        if let Some(interval) = sim.cl.cfg.context_switch_interval {
            sim.q
                .push_at(now + interval, HadesEv::ContextSwitch { node, core }.into());
        }
    }
}

impl HadesSim {
    /// Whether slot `o`'s exact sets are clean against a committer's
    /// `writes` (vs its reads and writes) and `reads` (vs its writes).
    /// Idle slots are clean. Exact sets, so no false positives.
    fn exact_clean(&self, o: usize, writes: &[u64], reads: &[u64]) -> bool {
        let x = &self.ext[o].local;
        self.slots[o].txn.is_none()
            || (writes
                .iter()
                .all(|l| !x.exact_reads.contains(l) && !x.exact_writes.contains(l))
                && reads.iter().all(|l| !x.exact_writes.contains(l)))
    }

    /// Software validation for a degraded local commit: the committing
    /// slot's exact line lists against every other active slot on the
    /// same node (writes vs read∪write, reads vs write).
    fn local_exact_validate(&self, si: usize, writes: &[u64], reads: &[u64]) -> bool {
        let node = self.slots[si].node;
        (0..self.slots.len())
            .all(|o| o == si || self.slots[o].node != node || self.exact_clean(o, writes, reads))
    }

    /// Eager L–L detection and local tracking (Table II, Local Read/Write).
    fn on_local_op(&mut self, si: usize, att: u32, op: &ResolvedOp) {
        let now = self.q.now();
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let me = self.slots[si].slot;
        let bloom = self.cl.cfg.bloom;
        let nb = node.0 as usize;
        // Eager checks against the directory WrTX_ID tags.
        for &line in op.read_lines.iter().chain(&op.write_lines) {
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
            for osi in nb * spn..(nb + 1) * spn {
                if osi == si || self.slots[osi].txn.is_none() {
                    continue;
                }
                self.p.local_probes += 1;
                let o = &self.ext[osi].local;
                if write_hashes.iter().any(|&h| o.read_bf.contains(h)) {
                    let real = op.write_lines.iter().any(|l| o.exact_reads.contains(l));
                    if !real {
                        self.p.local_fps += 1;
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
            if self.ext[si].local.recorded.contains(&line) {
                cost += self.cl.cfg.mem.l1_rt;
                continue;
            }
            let (lat, ev) = self.cl.access_lines(node, core, &[line]);
            cost += lat.max(self.cl.cfg.mem.llc_rt) + bloom.bf_op;
            victims.extend(ev);
            let x = &mut self.ext[si].local;
            x.read_bf.insert(line);
            x.exact_reads.insert(line);
            x.recorded.insert(line);
        }
        for (&line, &h) in op.write_lines.iter().zip(&write_hashes) {
            if self.ext[si].local.exact_writes.contains(&line) {
                cost += self.cl.cfg.mem.l1_rt;
                continue;
            }
            let evs = self.cl.mems[nb].tag_write(line, me);
            victims.extend(evs);
            cost += self.cl.cfg.mem.llc_rt + bloom.bf_op + bloom.crc;
            let x = &mut self.ext[si].local;
            x.write_bf.insert(h);
            x.exact_writes.insert(line);
            x.recorded.insert(line);
        }
        self.squash_evicted(node, victims, Some(si));
        if !self.alive(si, att) {
            return; // the eviction cascade squashed us
        }
        let done = self.cl.run_on_core(node, core, now, cost);
        self.q.push_at(done, Ev::OpDone { si, att });
    }

    /// Step 1: partially lock the local directory. A saturated read
    /// filter makes the hardware check uninformative (its FP rate
    /// explodes), so with the overload layer on we go straight to the
    /// software path instead of installing a useless signature.
    fn lock_local(&mut self, si: usize, now: Cycles) -> Option<(Vec<u64>, Cycles)> {
        let nb = self.slots[si].node.0 as usize;
        let token = self.token(si);
        let bloom = self.cl.cfg.bloom;
        let degrade = self.cl.cfg.overload.degrade_on_saturation;
        let x = &self.ext[si].local;
        let bf_saturated =
            degrade && x.read_bf.occupancy() >= self.cl.cfg.overload.bf_occupancy_threshold;
        let write_lines = self.cl.mems[nb].lines_tagged(self.slots[si].slot);
        let mut read_lines: Vec<u64> = x.exact_reads.iter().copied().collect();
        read_lines.sort_unstable();
        let lock_cost = self.cl.find_tags_latency() + bloom.lock_buffer_load;
        let lock_result = if bf_saturated {
            Err(LockFailure::NoFreeBuffer)
        } else {
            self.cl.lock_bufs[nb].try_lock_at(
                now,
                token,
                Signature::Conventional(x.read_bf.clone()),
                Signature::Dual(x.write_bf.clone()),
                &write_lines,
                &read_lines,
            )
        };
        match lock_result {
            Ok(()) => self.ext[si].holds_local_lock = true,
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
                    return None;
                }
                self.degraded_commit(now, self.slots[si].node, Some(self.slots[si].slot));
            }
            Err(LockFailure::Conflict(_)) | Err(LockFailure::NoFreeBuffer) => {
                self.squash(si, SquashReason::LockFailed);
                return None;
            }
        }
        // Step 2's probe costs one filter op per written line.
        let step2 = bloom.bf_op * write_lines.len().max(1) as u64;
        Some((write_lines, lock_cost + step2))
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

    /// Runs HADES over `app_name` at `scale` under `cfg`.
    fn run_with(
        cfg: SimConfig,
        app_name: &str,
        scale: f64,
        warmup: u64,
        measure: u64,
    ) -> RunOutcome {
        let ex = Experiment {
            cfg,
            scale,
            warmup,
            measure,
        };
        Run::apps(Protocol::Hades, &ex, &[AppId::parse(app_name).unwrap()]).run()
    }

    fn run_app(app_name: &str, warmup: u64, measure: u64) -> RunOutcome {
        run_with(SimConfig::isca_default(), app_name, 0.005, warmup, measure)
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
        let out = Run::loaded(Protocol::Hades, cfg, db, Box::new(sb), 0, 300).run();
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
        let out = Run::loaded(Protocol::Hades, cfg, db, Box::new(sb), 0, 300).run();
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
    fn context_switches_do_not_squash_transactions() {
        // Section VI: on a context switch the filter bits are cleared but
        // the transaction survives; only extra directory traffic is paid.
        let run = |interval: Option<u64>| {
            let mut cfg = SimConfig::isca_default();
            if let Some(us) = interval {
                cfg = cfg.with_context_switches(Cycles::from_micros(us));
            }
            run_with(cfg, "Smallbank", 0.002, 0, 300)
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
        let out = run_with(cfg, "HT-wA", 0.005, 0, 300);
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
            run_with(cfg, "Smallbank", 0.002, 50, 300)
                .stats
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
    fn crash_restart_recovers_and_conserves_money() {
        use hades_fault::FaultPlan;
        let cfg = SimConfig::isca_default().with_replication(1);
        let mut db = Database::new(cfg.shape.nodes);
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts: 1_000,
                hotspot: Some((16, 0.5)),
            },
        );
        let plan = FaultPlan::none()
            .with_seed(11)
            .with_lease(Cycles::new(30_000))
            .crash(1, Cycles::new(60_000), Cycles::new(200_000));
        let out = Run::loaded(Protocol::Hades, cfg, db, Box::new(sb.clone()), 0, 400)
            .plan(plan)
            .run();
        assert_eq!(out.stats.committed, 400, "run must survive the crash");
        assert_eq!(out.stats.faults.crashes, 1);
        assert_eq!(out.stats.faults.restarts, 1);
        assert_eq!(
            sb.check_conservation(&out.cluster.db, out.total_sum_delta),
            Ok(()),
            "across the crash"
        );
        assert_eq!(out.leaks(), Vec::<String>::new(), "across the crash");
    }

    #[test]
    fn faster_than_baseline_on_tpcc() {
        // The headline claim, in miniature: HADES beats Baseline on TPC-C.
        let ex = Experiment {
            scale: 0.01,
            warmup: 50,
            measure: 400,
            ..Experiment::quick()
        };
        let app = AppId::parse("TPC-C").unwrap();
        let hades = Run::apps(Protocol::Hades, &ex, &[app]).run().stats;
        let base = Run::apps(Protocol::Baseline, &ex, &[app]).run().stats;
        let speedup = hades.throughput() / base.throughput();
        assert!(
            speedup > 1.3,
            "HADES/Baseline speedup only {speedup:.2} (hades {:.0}, base {:.0})",
            hades.throughput(),
            base.throughput()
        );
    }
}
