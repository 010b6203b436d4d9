//! The event-loop driver the three engines share.
//!
//! Baseline, HADES-H and HADES differ in how they detect conflicts and
//! how they commit. Everything around that is the same and lives here
//! once: the per-slot transaction lifecycle (start, admission, execution
//! stages, commit bookkeeping), the membership layer's lease renewals and
//! failure detector, the live-migration driver, and node crash and
//! restart. [`Sim<P>`] owns the state those steps touch; an [`Engine`]
//! `P` supplies the protocol: its per-slot state, its own events, the
//! execution and commit handlers, squash/abort, fallback locking, and
//! what a crash, restart or death declaration must additionally clean up.
//!
//! The driver adds no behaviour of its own: every step pushes the same
//! events, in the same order, as the engines did when each carried its
//! own copy (the queue breaks time ties by insertion order, so the order
//! is part of the simulation).
//!
//! # Parked stalls
//!
//! A Locking-Buffer retry whose poll cannot succeed yet waits outside
//! the queue, on the bank and behind the buffer that denied it. The
//! access's handler decides: it re-checks the denial the retry carries
//! and, still denied, hands the retry to [`Sim::retry_stalled`], which
//! parks it ([`EventQueue::park_retry`]). An access check is a pure
//! function of the bank's held buffers, and a buffer never changes while
//! held, so the access stays denied while that buffer is held. Its
//! poll's answer can otherwise change only with its slot's attempt, the
//! routing table or the crash table. After each handled event the
//! driver wakes the retries whose buffer was released or whose other
//! inputs moved, and each comes back at its next poll, at its place
//! ([`EventQueue::unpark`]). The handler parks before pushing any other
//! retry, so a retry parked again at its poll keeps its place, and every
//! poll in between would have pushed it back: this dispatches the same
//! events in the same order as polling every `LOCK_RETRY`. With a
//! tracer installed every poll must emit its `LockStall`, so retries
//! stay on the queue and poll every `LOCK_RETRY`.

use crate::runtime::{
    owner_token, resolve, Cluster, Measurement, MigrationAction, ParkedRetry, ResolvedTxn,
    RunOutcome, Stall, WorkloadSet,
};
use crate::stats::{Phase, RunStats, SquashReason};
use hades_bloom::LockingBuffers;
use hades_fault::InjectedFault;
use hades_net::fabric::wire_size;
use hades_net::nic::RemoteTxKey;
use hades_sim::config::{MembershipParams, MigrationParams, OverloadParams, RetryParams};
use hades_sim::engine::{EventQueue, Parked};
use hades_sim::ids::{CoreId, NodeId, SlotId};
use hades_sim::rng::SimRng;
use hades_sim::time::Cycles;
use hades_telemetry::event::{EventKind, RecoveryKind, Verb, NO_SLOT};
use std::cell::Cell;
use std::fmt::Debug;
use std::rc::Rc;

/// The protocol half of a simulator: what Baseline, HADES-H and HADES do
/// differently. Each method runs inside the shared [`Sim`] driver.
///
/// Twenty items: two types, two constants and sixteen methods. The
/// commit's point of no return ([`Sim::decide`]) and the migration
/// cutover's fence (an open reply round, [`Round::waiting`]) are the
/// driver's, the same for every engine.
pub trait Engine: Sized + Debug {
    /// Per-slot protocol state, kept next to the driver's [`SlotCore`].
    type Slot: Debug;
    /// The engine's own events, wrapped in [`Ev::Engine`].
    type Ev: Debug;
    /// Cycles between consecutive slots' first `Start`. Each engine keeps
    /// the stagger its runs have always used (37 Baseline, 43 HADES-H, 41
    /// HADES): the stagger seeds every later event time.
    const START_STAGGER: u64;
    /// Arm the fault plan's crash events only when the membership layer
    /// is on. The software protocol has no lease machinery of its own, so
    /// failover is its only recovery path; gating keeps membership-off
    /// Baseline runs byte-identical to runs without the plan's crashes.
    const CRASHES_NEED_MEMBERSHIP: bool;

    /// Engine-wide state for a run on `cl`.
    fn new(cl: &Cluster) -> Self;
    /// Fresh per-slot state for a slot of `node`.
    fn new_slot(cl: &Cluster, node: usize) -> Self::Slot;
    /// Seeds the engine's own periodic events, after the slots' `Start`s
    /// and before the fault plan's crashes.
    fn seed(_sim: &mut Sim<Self>) {}
    /// Clears per-attempt state: at every `Start`, and when a crash wipes
    /// the slot.
    fn reset_attempt(x: &mut Self::Slot);
    /// An attempt begins at `now` with `app_cost` cycles of application
    /// compute (Baseline stamps the attempt and charges the compute to
    /// its Fig 3 "Other" category).
    fn begin_attempt(_x: &mut Self::Slot, _now: Cycles, _app_cost: Cycles) {}
    /// Records what the pessimistic fallback path locks for `txn`: the
    /// records for Baseline, the involved nodes' directories for the
    /// HADES engines.
    fn plan_fallback(txn: &ResolvedTxn, x: &mut Self::Slot);
    /// Issues execution stage `sim.slots[si].stage`.
    fn exec_stage(sim: &mut Sim<Self>, si: usize, att: u32);
    /// The last execution stage completed: validate and commit.
    fn exec_done(sim: &mut Sim<Self>, si: usize, att: u32);
    /// Acquires the next fallback lock batch.
    fn fallback_lock(sim: &mut Sim<Self>, si: usize, att: u32);
    /// Handles one of the engine's own events.
    fn handle(sim: &mut Sim<Self>, ev: Self::Ev);
    /// Aborts the slot's attempt, releases what it holds and schedules
    /// the retry.
    fn squash(sim: &mut Sim<Self>, si: usize, reason: SquashReason);
    /// Adds a measured commit's phase split (beyond execution) to
    /// `stats`.
    fn commit_phases(
        c: &SlotCore,
        _x: &Self::Slot,
        _txn: &ResolvedTxn,
        stats: &mut RunStats,
        now: Cycles,
    ) {
        stats
            .phases
            .add(Phase::Validation, now.saturating_sub(c.exec_end));
    }
    /// Crash extras for slot `si`, whose transaction the crash wipes.
    fn on_crash(sim: &mut Sim<Self>, si: usize);
    /// Restart extras for `node`.
    fn on_restart(sim: &mut Sim<Self>, node: NodeId);
    /// Extras after the cluster reconfigured around `dead`.
    fn on_death(sim: &mut Sim<Self>, dead: NodeId);
    /// Fills the engine's own counters into `stats` at run end; returns
    /// the replica-prepare entries still queued (0 without replication).
    fn finish(&self, cl: &Cluster, stats: &mut RunStats) -> u64;
}

/// Per-slot state every engine keeps.
#[derive(Debug)]
pub struct SlotCore {
    pub(crate) node: NodeId,
    pub(crate) slot: SlotId,
    pub(crate) core: CoreId,
    pub(crate) attempt: u32,
    pub(crate) consec_squashes: u32,
    /// This attempt runs on the pessimistic fallback path.
    pub(crate) fallback: bool,
    /// The running transaction, shared with the events that name its ops.
    pub(crate) txn: Option<Rc<ResolvedTxn>>,
    pub(crate) first_start: Cycles,
    pub(crate) exec_end: Cycles,
    pub(crate) stage: usize,
    /// The current stage's ops, or the current reply round, still
    /// outstanding.
    pub(crate) round: Round,
    /// Next fallback lock batch.
    pub(crate) fallback_cursor: usize,
    /// A retry/restart `Start` is legitimately pending for this slot even
    /// though `txn` is still set (disambiguates stale duplicate Starts
    /// deferred across a crash window, and guards against a second squash
    /// in the same window double-scheduling the transaction).
    pub(crate) awaiting_start: bool,
    /// Configuration epoch this attempt started in (straddle detection).
    pub(crate) epoch: u64,
    /// The attempt passed its decide step ([`Sim::decide`]), the point
    /// of no return: its commit's effects land even if its coordinator
    /// crashes now, and nothing squashes it any more.
    pub(crate) decided: bool,
}

impl SlotCore {
    /// Whether `att` is still this slot's live attempt.
    pub(crate) fn alive(&self, att: u32) -> bool {
        self.attempt == att && self.txn.is_some()
    }
}

/// A slot's reply round: a fan-out of request verbs that waits for one
/// reply per participant (Baseline's lock and validation rounds, the
/// HADES engines' Intend and replica-prepare round). Execution stages
/// count their ops in `outstanding` too, before any round opens.
/// An open round is a handshake in flight, which a migration cutover
/// fences ([`Sim::on_migration_tick`]).
#[derive(Debug, Default)]
pub struct Round {
    /// The attempt's rounds so far, so the open round's number (0 before
    /// the first): a watchdog names the round it was armed for.
    pub(crate) number: u32,
    /// The open round's request verb: `Lock`, `Validate` or `Intend`.
    pub(crate) verb: Option<Verb>,
    /// Replies (or the current stage's ops) still outstanding.
    pub(crate) outstanding: u32,
    /// Reply ids handed out this attempt.
    ids: u32,
    /// Reply ids already counted this attempt: a duplicated copy, even of
    /// an earlier round's reply, is not counted again.
    seen: Vec<u32>,
    /// Every reply counted in this round said ok.
    all_ok: bool,
}

impl Round {
    /// Forgets the attempt's rounds: at every `Start`, at a squash and
    /// when a crash wipes the slot.
    fn reset(&mut self) {
        (self.number, self.outstanding, self.ids) = (0, 0, 0);
        self.seen.clear();
    }

    /// Whether a round is open and waiting for replies.
    pub(crate) fn waiting(&self) -> bool {
        self.number > 0 && self.outstanding > 0
    }

    /// Whether round `number`'s watchdog is live: it is still the open
    /// round (0 during execution) and a reply or fetch is missing.
    fn times_out(&self, number: u32) -> bool {
        self.number == number && self.outstanding > 0
    }
}

/// One reply of a round, as each delivered copy carries it: reply `id`
/// of slot `si`'s attempt `att`, from participant `from` in its
/// configuration epoch `ep`, saying whether its part of the round
/// succeeded.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub(crate) si: usize,
    pub(crate) att: u32,
    pub(crate) id: u32,
    pub(crate) ok: bool,
    pub(crate) from: NodeId,
    pub(crate) ep: u64,
}

/// What one delivered reply did to its round ([`Sim::on_reply`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyStep {
    /// Sent before its sender was declared dead: dropped.
    Fenced,
    /// Its attempt is over.
    Stale,
    /// A copy of a reply already counted.
    Duplicate,
    /// Counted; more replies are outstanding.
    Counted,
    /// Counted, and the last: the round closed.
    Closed { all_ok: bool },
}

impl ReplyStep {
    /// Whether the reply was counted.
    pub(crate) fn counted(self) -> bool {
        matches!(self, ReplyStep::Counted | ReplyStep::Closed { .. })
    }
}

/// A simulator event: the lifecycle and control-plane events every engine
/// shares, plus the engine's own.
#[derive(Debug)]
pub enum Ev<E> {
    /// A slot starts (or retries) a transaction.
    Start { si: usize },
    /// Issue the slot's current execution stage.
    ExecStage { si: usize, att: u32 },
    /// One op of the current stage completed.
    OpDone { si: usize, att: u32 },
    /// Fallback: acquire the next lock batch.
    FallbackLock { si: usize, att: u32 },
    /// The commit completed at the coordinator.
    CommitDone { si: usize, att: u32 },
    /// A wait that may never end: armed by [`Sim::arm_watchdog`] after an
    /// execution fetch or a reply round's last request, it squashes the
    /// attempt with `CommitTimeout` if the slot is still in the same
    /// stage and round with something outstanding.
    Watchdog {
        si: usize,
        att: u32,
        stage: usize,
        round: u32,
    },
    /// Scheduled node crash (fault plan): all in-flight transaction state
    /// at the node is lost.
    NodeCrash { node: NodeId },
    /// Scheduled node restart.
    NodeRestart { node: NodeId },
    /// Membership layer: a node renews its cluster lease (control plane,
    /// no fabric traffic).
    LeaseRenew { node: NodeId },
    /// Membership layer: periodic failure-detector sweep over missed
    /// lease renewals.
    MembershipTick,
    /// Planned reconfiguration: advance the live-migration state machine
    /// (announce → copy chunks → catch-up → cutover; DESIGN.md §15).
    MigrationTick,
    /// An engine event.
    Engine(E),
}

impl<E> From<E> for Ev<E> {
    fn from(ev: E) -> Self {
        Ev::Engine(ev)
    }
}

/// A protocol simulator: the shared driver state plus engine `P`.
#[derive(Debug)]
pub struct Sim<P: Engine> {
    pub(crate) cl: Cluster,
    pub(crate) q: EventQueue<Ev<P::Ev>>,
    ws: WorkloadSet,
    pub(crate) meas: Measurement,
    pub(crate) slots: Vec<SlotCore>,
    /// The engine's per-slot state, indexed like `slots`.
    pub(crate) ext: Vec<P::Slot>,
    slot_rngs: Vec<SimRng>,
    pub(crate) draining: bool,
    locality: Option<f64>,
    /// Nodes currently down under the fault plan.
    pub(crate) crashed: Vec<bool>,
    /// Pending restart time of each crashed node.
    pub(crate) restart_at: Vec<Option<Cycles>>,
    /// Engine-wide protocol state.
    pub(crate) p: P,
    /// Net committed RMW delta since the start of the run (warmup
    /// included) — the conservation-check ledger.
    total_sum_delta: i64,
    /// Total commits since the start of the run.
    total_commits: u64,
    /// Retries parked outside the queue (module docs).
    parked: ParkLot<Ev<P::Ev>>,
}

/// Retries parked outside the queue, by the bank that denied them.
#[derive(Debug)]
struct ParkLot<E> {
    /// Indexed by node.
    banks: Vec<ParkedAt<E>>,
    /// Parked retries per slot.
    per_slot: Vec<u32>,
    /// Number of parked retries.
    len: usize,
    /// Counts the held-set changes of every bank
    /// ([`LockingBuffers::count_changes_on`]).
    bank_changes: Rc<Cell<u64>>,
    /// `bank_changes` at the last wake.
    bank_changes_seen: u64,
    /// Slots with parked retries whose attempt changed since the last
    /// wake.
    touched: Vec<usize>,
    /// The routing or crash table changed since the last wake.
    tables_moved: bool,
}

/// The retries parked on one bank.
#[derive(Debug)]
struct ParkedAt<E> {
    /// The bank's generation at the last wake.
    seen: u64,
    retries: Vec<Waiting<E>>,
}

/// A parked retry and what it waits for.
#[derive(Debug)]
struct Waiting<E> {
    si: usize,
    /// The owner of the buffer that denied it, and when that buffer was
    /// granted ([`LockingBuffers::granted_at`]).
    holder: u64,
    granted: u64,
    retry: Parked<E>,
}

impl<E> ParkLot<E> {
    fn new(cl: &Cluster, slots: usize) -> Self {
        let bank = |_| ParkedAt {
            seen: 0,
            retries: Vec::new(),
        };
        ParkLot {
            banks: cl.lock_bufs.iter().map(bank).collect(),
            per_slot: vec![0; slots],
            len: 0,
            bank_changes: cl.lock_bufs[0].change_counter(),
            bank_changes_seen: 0,
            touched: Vec::new(),
            tables_moved: false,
        }
    }

    /// Slot `si`'s attempt changed: its parked retries must wake.
    fn touch(&mut self, si: usize) {
        if self.per_slot[si] > 0 {
            self.touched.push(si);
        }
    }

    /// The routing or crash table changed: every parked retry must wake.
    fn tables_moved(&mut self) {
        self.tables_moved = self.len > 0;
    }

    /// Whether anything a parked retry's poll reads may have changed
    /// since the last wake.
    fn inputs_moved(&self) -> bool {
        self.tables_moved
            || !self.touched.is_empty()
            || self.bank_changes.get() != self.bank_changes_seen
    }

    /// Parks `retry` of slot `si`, denied by `stall` at `bufs`, whose
    /// denying buffer is still held.
    fn park(&mut self, si: usize, stall: Stall, bufs: &LockingBuffers, retry: Parked<E>) {
        if self.len == 0 {
            self.bank_changes_seen = self.bank_changes.get();
        }
        let granted = bufs
            .granted_at(stall.holder)
            .expect("the denying buffer is held");
        self.banks[stall.node.0 as usize].retries.push(Waiting {
            si,
            holder: stall.holder,
            granted,
            retry,
        });
        self.per_slot[si] += 1;
        self.len += 1;
    }

    /// Puts back every parked retry whose poll might now go otherwise:
    /// those whose denying buffer was released, those of a slot whose
    /// attempt changed, and all of them if the routing or crash table
    /// changed.
    fn wake(&mut self, q: &mut EventQueue<E>, lock_bufs: &[LockingBuffers]) {
        let all = std::mem::take(&mut self.tables_moved);
        self.bank_changes_seen = self.bank_changes.get();
        let touched = std::mem::take(&mut self.touched);
        for (bank, bufs) in self.banks.iter_mut().zip(lock_bufs) {
            let moved = bank.seen != bufs.generation();
            bank.seen = bufs.generation();
            if !all && !moved && touched.is_empty() {
                continue;
            }
            let mut i = 0;
            while i < bank.retries.len() {
                let w = &bank.retries[i];
                let released = moved && bufs.granted_at(w.holder) != Some(w.granted);
                if !(all || released || touched.contains(&w.si)) {
                    i += 1;
                    continue;
                }
                let w = bank.retries.swap_remove(i);
                self.per_slot[w.si] -= 1;
                self.len -= 1;
                q.unpark(w.retry);
            }
        }
        self.touched = touched;
        self.touched.clear();
    }
}

impl<P: Engine> Sim<P> {
    /// Builds a run: `warmup` commits discarded, then `measure` commits
    /// recorded.
    pub fn new(mut cl: Cluster, ws: WorkloadSet, warmup: u64, measure: u64) -> Self {
        let shape = cl.cfg.shape;
        let spn = shape.slots_per_node();
        let total = shape.nodes * spn;
        let (mut slots, mut ext, mut slot_rngs) = (
            Vec::with_capacity(total),
            Vec::with_capacity(total),
            Vec::with_capacity(total),
        );
        for n in 0..shape.nodes {
            for s in 0..spn {
                slots.push(SlotCore {
                    node: NodeId(n as u16),
                    slot: SlotId(s as u16),
                    core: SlotId(s as u16).core(shape.slots_per_core),
                    attempt: 0,
                    consec_squashes: 0,
                    fallback: false,
                    txn: None,
                    first_start: Cycles::ZERO,
                    exec_end: Cycles::ZERO,
                    stage: 0,
                    round: Round::default(),
                    fallback_cursor: 0,
                    awaiting_start: false,
                    epoch: 0,
                    decided: false,
                });
                ext.push(P::new_slot(&cl, n));
                slot_rngs.push(cl.rng.fork());
            }
        }
        Sim {
            q: EventQueue::with_retry_delay(RetryParams::LOCK_RETRY),
            parked: ParkLot::new(&cl, total),
            meas: Measurement::new(warmup, measure, ws.len()),
            ws,
            slots,
            ext,
            slot_rngs,
            draining: false,
            locality: cl.cfg.local_fraction,
            crashed: vec![false; shape.nodes],
            restart_at: vec![None; shape.nodes],
            p: P::new(&cl),
            cl,
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
    pub fn run_full(mut self) -> RunOutcome {
        for si in 0..self.slots.len() {
            let at = Cycles::new(si as u64 * P::START_STAGGER);
            self.q.push_at(at, Ev::Start { si });
        }
        P::seed(&mut self);
        if !P::CRASHES_NEED_MEMBERSHIP || self.cl.membership.enabled() {
            for crash in self.cl.fabric.injector().crashes().to_vec() {
                let node = NodeId(crash.node);
                self.q.push_at(crash.at, Ev::NodeCrash { node });
                if let Some(r) = crash.restart_at {
                    self.q.push_at(r, Ev::NodeRestart { node });
                }
            }
        }
        if self.cl.membership.enabled() {
            let interval = MembershipParams::RENEW_INTERVAL;
            for n in 0..self.cl.cfg.shape.nodes {
                let node = NodeId(n as u16);
                self.q.push_at(interval, Ev::LeaseRenew { node });
            }
            // Sweep just after each renewal round so a live node is never
            // observed mid-interval as silent.
            self.q
                .push_at(interval + Cycles::new(1), Ev::MembershipTick);
        }
        if self.cl.cfg.migration.enabled() {
            self.q.push_at(MigrationParams::START_AT, Ev::MigrationTick);
        }
        while let Some((_, ev)) = self.q.pop() {
            self.handle(ev);
            if self.parked.len > 0 && self.parked.inputs_moved() {
                self.parked.wake(&mut self.q, &self.cl.lock_bufs);
            }
        }
        let parked = self.still_parked();
        let mut stats = self.meas.stats;
        (stats.profile, stats.spans, stats.timeseries) = self.cl.finish_observability();
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
        let replica_pending_leaked = self.p.finish(&self.cl, &mut stats);
        RunOutcome {
            stats,
            cluster: self.cl,
            total_sum_delta: self.total_sum_delta,
            total_commits: self.total_commits,
            replica_pending_leaked,
            parked,
        }
    }

    /// Schedules `ev`, slot `si`'s access that `stall` denied, as a
    /// retry. It parks at once on the denying bank, unless a tracer needs
    /// its next poll's `LockStall`. A handler calls this before pushing
    /// any other retry, so that a retry denied again keeps its place.
    pub(crate) fn retry_stalled(&mut self, si: usize, stall: Stall, ev: P::Ev) {
        if self.cl.tracer.is_enabled() {
            self.q.push_retry(ev.into());
        } else {
            let retry = self.q.park_retry(ev.into());
            let bufs = &self.cl.lock_bufs[stall.node.0 as usize];
            self.parked.park(si, stall, bufs, retry);
        }
    }

    /// The retries of live attempts still parked once the queue ran dry:
    /// each is a transaction waiting on a Locking Buffer nothing will
    /// release.
    fn still_parked(&self) -> Vec<ParkedRetry> {
        let banks = self.parked.banks.iter().enumerate();
        let waiting = banks.flat_map(|(b, bank)| bank.retries.iter().map(move |w| (b, w)));
        waiting
            .filter(|(_, w)| self.slots[w.si].txn.is_some())
            .map(|(b, w)| ParkedRetry {
                node: self.slots[w.si].node,
                slot: self.slots[w.si].slot,
                bank: NodeId(b as u16),
                holder: w.holder,
            })
            .collect()
    }

    fn handle(&mut self, ev: Ev<P::Ev>) {
        match ev {
            Ev::Start { si } => self.on_start(si),
            Ev::ExecStage { si, att } if self.alive(si, att) => P::exec_stage(self, si, att),
            Ev::OpDone { si, att } if self.alive(si, att) => self.on_op_done(si, att),
            Ev::FallbackLock { si, att } if self.alive(si, att) => P::fallback_lock(self, si, att),
            Ev::CommitDone { si, att } if self.alive(si, att) => self.on_commit_done(si, att),
            Ev::Watchdog {
                si,
                att,
                stage,
                round,
            } if self.alive(si, att) => {
                let s = &self.slots[si];
                if s.stage == stage && s.round.times_out(round) {
                    P::squash(self, si, SquashReason::CommitTimeout);
                }
            }
            Ev::NodeCrash { node } => self.on_node_crash(node),
            Ev::NodeRestart { node } => self.on_node_restart(node),
            Ev::LeaseRenew { node } => self.on_lease_renew(node),
            Ev::MembershipTick => self.on_membership_tick(),
            Ev::MigrationTick => self.on_migration_tick(),
            Ev::Engine(ev) => P::handle(self, ev),
            _ => {} // stale event for a squashed attempt
        }
    }

    /// Whether `att` is still `si`'s live attempt.
    pub(crate) fn alive(&self, si: usize, att: u32) -> bool {
        self.slots[si].alive(att)
    }

    /// The slot index of `slot` at `node`.
    pub(crate) fn si_of(&self, node: NodeId, slot: SlotId) -> usize {
        node.0 as usize * self.cl.cfg.shape.slots_per_node() + slot.0 as usize
    }

    /// The slot's owner token (Locking Buffers, record locks).
    pub(crate) fn token(&self, si: usize) -> u64 {
        owner_token(self.slots[si].node, self.slots[si].slot)
    }

    /// The slot's transaction key at remote NICs.
    pub(crate) fn key_of(&self, si: usize) -> RemoteTxKey {
        RemoteTxKey {
            origin: self.slots[si].node,
            slot: self.slots[si].slot,
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

    /// Drops a stale fabric verb at `node` (epoch fencing): the sender
    /// was declared dead in an older configuration epoch, so its
    /// straggling traffic must not touch post-failover state. Counts and
    /// traces the drop.
    pub(crate) fn fence_verb(&mut self, node: NodeId, verb: Verb) {
        let now = self.q.now();
        self.cl.membership.stats.verbs_fenced += 1;
        if self.cl.tracer.is_enabled() {
            self.cl
                .tracer
                .emit(now, node.0, NO_SLOT, EventKind::VerbFenced { verb });
        }
    }

    /// Stamps a transaction-lifecycle trace event for `si`'s slot.
    pub(crate) fn trace(&self, at: Cycles, si: usize, kind: EventKind) {
        let s = &self.slots[si];
        self.cl.tracer.emit(at, s.node.0, s.slot.0 as u32, kind);
    }

    /// A commit at `node` proceeds on the degraded (software-validated)
    /// path at `now`: noted on `slot` (node-scoped when `None`) and
    /// counted while recording.
    pub(crate) fn degraded_commit(&mut self, now: Cycles, node: NodeId, slot: Option<SlotId>) {
        let slot = slot.map_or(NO_SLOT, |s| u32::from(s.0));
        self.cl.note(now, node.0, slot, EventKind::DegradedCommit);
        if self.recording() {
            self.meas.stats.overload.degraded_commits += 1;
        }
    }

    /// Whether stats are being recorded (warmup over, not yet draining).
    pub(crate) fn recording(&self) -> bool {
        self.meas.measuring() && !self.draining
    }

    /// Epoch straddle: a node died since this attempt started, so its
    /// routing decisions and footprint may reference the dead node.
    /// Resolve it as an abort and retry in the new epoch (routing is
    /// re-evaluated at restart). Planned-migration epoch bumps do not
    /// count: the dual-routing window keeps the source authoritative
    /// until the cutover fences the few handshakes that actually straddle
    /// the flip.
    pub(crate) fn straddles(&self, si: usize) -> bool {
        let m = &self.cl.membership;
        m.epoch_aware() && self.slots[si].epoch != m.epoch() && m.death_since(self.slots[si].epoch)
    }

    /// The commit-entry fence: an attempt that straddles a declared death
    /// squashes with `CommitTimeout`; otherwise a coordinator that must
    /// self-fence (DESIGN.md §16) squashes it with `SelfFenced`. Returns
    /// whether the attempt squashed.
    pub(crate) fn commit_blocked(&mut self, si: usize, now: Cycles) -> bool {
        let reason = if self.straddles(si) {
            SquashReason::CommitTimeout
        } else if self.cl.self_fence_check(now, self.slots[si].node) {
            SquashReason::SelfFenced
        } else {
            return false;
        };
        P::squash(self, si, reason);
        true
    }

    /// The decide step, the commit's point of no return (HADES: all Acks
    /// received; Baseline: before write-back). A membership tick can
    /// excommunicate the node after commit entry, so a node that must
    /// self-fence squashes the attempt with `SelfFenced` and returns
    /// `false`; otherwise the slot is [decided](SlotCore::decided).
    pub(crate) fn decide(&mut self, si: usize, now: Cycles) -> bool {
        let node = self.slots[si].node;
        if self.cl.self_fence_check(now, node) {
            P::squash(self, si, SquashReason::SelfFenced);
            return false;
        }
        self.cl.note_commit_guard(node);
        self.slots[si].decided = true;
        true
    }

    /// The tail of every squash: counts the squash for `reason` inside
    /// the measurement window and schedules the attempt's retry from
    /// `from`. A commit timeout under fault injection backs off
    /// exponentially (the loss may be systemic, not contention) and
    /// counts a timeout retry; every other squash keeps the contention
    /// backoff, starvation boost included. Under fault injection the
    /// retry also waits for `settled`, when the attempt's in-flight
    /// releases have landed.
    pub(crate) fn schedule_retry(
        &mut self,
        si: usize,
        reason: SquashReason,
        from: Cycles,
        settled: Cycles,
    ) {
        let now = self.q.now();
        if self.recording() {
            self.meas.stats.note_squash(self.slots[si].node.0, reason);
        }
        self.parked.touch(si);
        let s = &mut self.slots[si];
        s.awaiting_start = true;
        s.attempt += 1;
        s.consec_squashes += 1;
        s.round.reset();
        let (node, attempts) = (s.node, s.consec_squashes);
        let backoff = if reason == SquashReason::CommitTimeout && self.cl.injector_active() {
            let inj = self.cl.fabric.injector_mut();
            inj.recovery.timeout_retries += 1;
            let step = RetryParams::TIMEOUT_BACKOFF.step(attempts.saturating_sub(1));
            if self.cl.tracer.is_enabled() {
                let action = RecoveryKind::TimeoutRetry;
                self.trace(now, si, EventKind::Recovery { action });
            }
            step
        } else {
            let (step, boosted) = self.cl.contended_backoff(attempts);
            if boosted {
                if self.cl.tracer.is_enabled() {
                    self.trace(now, si, EventKind::StarvationBoost { attempt: attempts });
                }
                if self.recording() {
                    self.meas.stats.overload.starvation_boosts += 1;
                }
            }
            step
        };
        self.cl.admission.note_outcome(node, true);
        let mut restart = from + backoff;
        if self.cl.injector_active() {
            restart = restart.max(settled);
        }
        self.q.push_at(restart, Ev::Start { si });
    }

    fn on_start(&mut self, si: usize) {
        if self.draining {
            if self.slots[si].txn.take().is_some() {
                self.parked.touch(si);
                self.cl.obs_drop(si, self.q.now());
            }
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
        let retry_limit = self.cl.cfg.retry.fallback_after_squashes;
        // Admission control gates *new* transactions only — a slot
        // retrying an in-flight transaction is never deferred. Baseline
        // has no Locking Buffers, so its occupancy signal is the bank's
        // (always-zero) occupancy; the abort-rate signal does the work.
        if self.slots[si].txn.is_none() && self.cl.admission.active() {
            let node = self.slots[si].node;
            let inflight = self.inflight_at(node);
            let occupancy = self.cl.lock_bufs[node.0 as usize].occupancy();
            if !self.cl.admission.admit(node, inflight, occupancy) {
                let slot = u32::from(self.slots[si].slot.0);
                self.cl
                    .note(now, node.0, slot, EventKind::AdmissionThrottled);
                if self.recording() {
                    self.meas.stats.overload.admission_throttled += 1;
                }
                self.q
                    .push_at(now + OverloadParams::ADMIT_RETRY, Ev::Start { si });
                return;
            }
        }
        let fresh = self.slots[si].txn.is_none();
        if fresh {
            let (node, core) = (self.slots[si].node, self.slots[si].core);
            let rng = &mut self.slot_rngs[si];
            let (app, mut spec) = self.ws.next_txn(node, core, &self.cl.db, rng);
            if let Some(f) = self.locality {
                hades_workloads::spec::apply_locality(&mut spec, node, f, &self.cl.db, rng);
            }
            let s = &mut self.slots[si];
            s.txn = Some(Rc::new(resolve(&self.cl.db, &spec, app)));
            s.first_start = now;
            s.consec_squashes = 0;
        }
        let s = &mut self.slots[si];
        s.fallback = s.consec_squashes >= retry_limit;
        s.stage = 0;
        s.round.reset();
        s.awaiting_start = false;
        s.decided = false;
        s.epoch = self.cl.membership.epoch();
        P::reset_attempt(&mut self.ext[si]);
        let att = self.slots[si].attempt;
        self.cl.obs_start(si, att, now, fresh);
        let (node, core) = (self.slots[si].node, self.slots[si].core);
        let app_cost = self.cl.cfg.sw.app_per_txn;
        P::begin_attempt(&mut self.ext[si], now, app_cost);
        let done = self.cl.run_on_core(node, core, now, app_cost);
        if self.slots[si].fallback {
            // Pessimistic mode: lock the whole footprint before executing
            // (Section VI livelock avoidance).
            let txn = self.slots[si].txn.as_ref().expect("txn set");
            P::plan_fallback(txn, &mut self.ext[si]);
            self.slots[si].fallback_cursor = 0;
            if self.recording() {
                self.meas.stats.fallbacks += 1;
            }
            self.q.push_at(done, Ev::FallbackLock { si, att });
        } else {
            self.q.push_at(done, Ev::ExecStage { si, att });
        }
    }

    /// One op of the current stage finished: advance to the next stage,
    /// or hand the executed transaction to the engine's commit path.
    pub(crate) fn on_op_done(&mut self, si: usize, att: u32) {
        let s = &mut self.slots[si];
        debug_assert!(s.round.outstanding > 0);
        s.round.outstanding -= 1;
        if s.round.outstanding > 0 {
            return;
        }
        let stages = s.txn.as_ref().expect("txn active").stages.len();
        // Moving past the last stage ends execution: no fetch watchdog
        // matches any more, so a reply round answers to its own watchdog
        // alone.
        s.stage += 1;
        if s.stage < stages {
            let now = self.q.now();
            self.q.push_at(now, Ev::ExecStage { si, att });
        } else {
            P::exec_done(self, si, att);
        }
    }

    /// Opens slot `si`'s next reply round, of `verb` requests.
    pub(crate) fn open_round(&mut self, si: usize, verb: Verb) {
        let r = &mut self.slots[si].round;
        r.number += 1;
        r.verb = Some(verb);
        r.outstanding = 0;
        r.all_ok = true;
    }

    /// Arms slot `si`'s watchdog to fire [`RetryParams::WATCHDOG`] after
    /// `sent`, when its last fetch or request left: it names the slot's
    /// attempt, execution stage and round as they are now.
    pub(crate) fn arm_watchdog(&mut self, si: usize, sent: Cycles) {
        let s = &self.slots[si];
        let (att, stage, round) = (s.attempt, s.stage, s.round.number);
        let ev = Ev::Watchdog {
            si,
            att,
            stage,
            round,
        };
        self.q.push_at(sent + RetryParams::WATCHDOG, ev);
    }

    /// One more reply for the open round of `si`; returns its id, unique
    /// within the attempt.
    pub(crate) fn expect_reply(&mut self, si: usize) -> u32 {
        let r = &mut self.slots[si].round;
        r.outstanding += 1;
        r.ids += 1;
        r.ids - 1
    }

    /// Reply `id` to `si`'s attempt `att` from participant `from`,
    /// stamped with the current configuration epoch.
    pub(crate) fn reply(&self, (si, att): (usize, u32), from: NodeId, id: u32, ok: bool) -> Reply {
        let ep = self.cl.membership.epoch();
        Reply {
            si,
            att,
            id,
            ok,
            from,
            ep,
        }
    }

    /// Sends `reply`, a `verb`, from its participant to the coordinator at
    /// `at`: one `event` per copy the fabric delivers, or one pushed in
    /// place when the participant is the coordinator's own node. Every
    /// copy carries `payload`; the last takes it.
    pub(crate) fn send_reply<T: Clone + Default>(
        &mut self,
        at: Cycles,
        reply: Reply,
        verb: Verb,
        mut payload: T,
        event: impl Fn(Reply, T) -> P::Ev,
    ) {
        let node = self.slots[reply.si].node;
        if reply.from == node {
            self.q.push_at(at, event(reply, payload).into());
            return;
        }
        let backs = self.cl.send(at, reply.from, node, wire_size(0, 64), verb);
        for (k, back) in backs.into_iter().enumerate() {
            let copy = if k + 1 == backs.len() {
                std::mem::take(&mut payload)
            } else {
                payload.clone()
            };
            self.q.push_at(back, event(reply, copy).into());
        }
    }

    /// One delivered copy of `reply`, a `verb`: fenced if its sender was
    /// declared dead since it sent it (counted and traced at the
    /// coordinator), stale if its attempt is over, a duplicate if its id
    /// was counted before; otherwise counted into the round, which closes
    /// with the last outstanding reply.
    pub(crate) fn on_reply(&mut self, reply: &Reply, verb: Verb) -> ReplyStep {
        let si = reply.si;
        if self.cl.membership.should_fence(reply.ep, reply.from) {
            self.fence_verb(self.slots[si].node, verb);
            return ReplyStep::Fenced;
        }
        if !self.alive(si, reply.att) {
            return ReplyStep::Stale;
        }
        let r = &mut self.slots[si].round;
        if r.seen.contains(&reply.id) {
            return ReplyStep::Duplicate;
        }
        r.seen.push(reply.id);
        r.all_ok &= reply.ok;
        debug_assert!(r.outstanding > 0);
        r.outstanding -= 1;
        if r.outstanding > 0 {
            return ReplyStep::Counted;
        }
        let all_ok = r.all_ok;
        let now = self.q.now();
        self.cl.obs_round_end(si, now);
        ReplyStep::Closed { all_ok }
    }

    /// Commit bookkeeping: observability, the ledger, the admission
    /// outcome, the measured stats and the drain decision; then the slot
    /// starts its next transaction.
    fn on_commit_done(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let latency = now.saturating_sub(self.slots[si].first_start);
        let record = self.recording();
        self.cl.obs_commit(si, now, latency, record);
        self.parked.touch(si);
        let s = &mut self.slots[si];
        let txn = s.txn.take().expect("txn active");
        let txn_attempts = s.consec_squashes as u64 + 1;
        s.attempt = att + 1;
        s.consec_squashes = 0;
        self.total_sum_delta += txn.sum_delta;
        self.total_commits += 1;
        self.cl.admission.note_outcome(self.slots[si].node, false);
        if record {
            let s = &self.slots[si];
            let stats = &mut self.meas.stats;
            if self.cl.cfg.overload.enabled() {
                stats.overload.max_attempts = stats.overload.max_attempts.max(txn_attempts);
            }
            stats.committed += 1;
            stats.note_commit_node(s.node.0);
            stats.committed_per_app[txn.app] += 1;
            stats.committed_sum_delta += txn.sum_delta;
            stats.latency.record(latency);
            stats
                .phases
                .add(Phase::Execution, s.exec_end.saturating_sub(s.first_start));
            P::commit_phases(s, &self.ext[si], &txn, stats, now);
        }
        if !self.draining && self.meas.on_commit(now) {
            self.draining = true;
        }
        self.q.push_at(now, Ev::Start { si });
    }

    /// Planned-reconfiguration tick: drives the cluster's migration state
    /// machine. At cutover, fence-then-flip: only undecided slots with an
    /// open reply round ([`Round::waiting`]) touching a moving partition
    /// squash and retry, each counted and traced as one fenced verb, the
    /// round's request verb. Their lock, validation or Intend requests
    /// reached the old primary, and the squash's unlocks/Clears route via
    /// the pre-cutover map, releasing what they took at the source.
    /// Execution-phase slots survive in every engine; they route at
    /// commit time, and their NIC filter entries travel with the cutover.
    /// [Decided](SlotCore::decided) slots (Validations already in flight
    /// to the pre-cutover primaries) leave their filter entries behind
    /// too: those Validations clear them at the source (DESIGN.md §15).
    fn on_migration_tick(&mut self) {
        if self.draining {
            return; // like the detector, the plan freezes once the run drains
        }
        let now = self.q.now();
        match self.cl.migration_step(now) {
            MigrationAction::Rearm(at) => self.q.push_at(at, Ev::MigrationTick),
            MigrationAction::Cutover(moves) => {
                let mut fenced: Vec<RemoteTxKey> = Vec::new();
                let mut exclude: Vec<RemoteTxKey> = Vec::new();
                for si in 0..self.slots.len() {
                    let s = &self.slots[si];
                    let Some(txn) = s.txn.as_ref() else {
                        continue;
                    };
                    if s.decided {
                        exclude.push(self.key_of(si));
                        continue;
                    }
                    let moving = txn.ops().any(|o| moves.iter().any(|m| o.home == m.0));
                    let Some(verb) = s.round.verb.filter(|_| moving && s.round.waiting()) else {
                        continue;
                    };
                    self.fence_verb(s.node, verb);
                    fenced.push(self.key_of(si));
                    P::squash(self, si, SquashReason::CommitTimeout);
                }
                let n = fenced.len() as u64;
                exclude.extend(fenced);
                self.cl.finish_cutover(now, &exclude, n);
                self.parked.tables_moved();
            }
            MigrationAction::Done => {}
        }
    }

    /// Node crash: every in-flight transaction originating at the node is
    /// wiped. [Decided](SlotCore::decided) transactions have already
    /// applied their writes and shipped their remote effects on the
    /// reliable transport, so the ledger records them as committed;
    /// everything else simply vanishes, and the engine reclaims its
    /// footprint ([`Engine::on_crash`]).
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
        self.parked.tables_moved();
        self.restart_at[nb] = restart;
        self.cl.fabric.injector_mut().faults.crashes += 1;
        // Noted before the wipe below: the time-series drops the node's
        // in-flight transactions.
        let fault = InjectedFault::NodeCrash;
        self.cl
            .note(now, node.0, NO_SLOT, EventKind::FaultInjected { fault });
        let spn = self.cl.cfg.shape.slots_per_node();
        for si in nb * spn..(nb + 1) * spn {
            let Some(txn) = self.slots[si].txn.as_ref() else {
                continue;
            };
            if self.slots[si].decided {
                // Effects are already durable/in flight: finalize the
                // ledger before discarding the slot.
                self.total_sum_delta += txn.sum_delta;
                self.total_commits += 1;
            }
            P::on_crash(self, si);
            self.parked.touch(si);
            let s = &mut self.slots[si];
            s.txn = None;
            s.attempt += 1;
            s.consec_squashes = 0;
            s.fallback = false;
            s.stage = 0;
            s.round.reset();
            s.fallback_cursor = 0;
            s.awaiting_start = false;
            s.decided = false;
            P::reset_attempt(&mut self.ext[si]);
            if let Some(r) = restart {
                self.q.push_at(r, Ev::Start { si });
            }
        }
    }

    /// Node restart: the node is back; the engine releases what the wiped
    /// transactions left behind ([`Engine::on_restart`]), and the slots
    /// resume through their deferred `Start`s.
    fn on_node_restart(&mut self, node: NodeId) {
        let now = self.q.now();
        let nb = node.0 as usize;
        if !self.crashed[nb] {
            return;
        }
        self.crashed[nb] = false;
        self.parked.tables_moved();
        self.restart_at[nb] = None;
        self.cl.fabric.injector_mut().faults.restarts += 1;
        if self.cl.tracer.is_enabled() {
            let fault = InjectedFault::NodeRestart;
            self.cl
                .tracer
                .emit(now, node.0, NO_SLOT, EventKind::FaultInjected { fault });
        }
        P::on_restart(self, node);
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
            now + MembershipParams::RENEW_INTERVAL,
            Ev::LeaseRenew { node },
        );
    }

    /// Failure-detector sweep (membership layer): nodes whose renewals
    /// went silent past the suspicion deadline are declared dead — with
    /// quorum gating on, only when a majority view backs the declaration
    /// — and the cluster reconfigures around them: it advances the epoch
    /// and promotes backups, then the engine releases what the dead
    /// node's transactions still hold ([`Engine::on_death`]). In-flight
    /// commits that straddle the epoch abort themselves at their next
    /// validation/commit step unless already past the point of no return.
    fn on_membership_tick(&mut self) {
        if self.draining {
            return;
        }
        let now = self.q.now();
        for dead in self.cl.membership_scan(now) {
            if self.cl.reconfigure_after_death(dead, now) {
                self.parked.tables_moved();
                P::on_death(self, dead);
            }
        }
        self.q
            .push_at(now + MembershipParams::RENEW_INTERVAL, Ev::MembershipTick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_bloom::{BloomFilter, Signature};
    use hades_sim::config::SimConfig;
    use hades_storage::db::Database;

    /// A read-only buffer for `owner` whose write signature holds `line`.
    fn lock(bufs: &mut LockingBuffers, owner: u64, line: u64) {
        let mut write = BloomFilter::new(1024, 2);
        write.insert(line);
        let read = Signature::Conventional(BloomFilter::new(1024, 2));
        let write = Signature::Conventional(write);
        bufs.try_lock(owner, read, write, &[line], &[])
            .expect("free");
    }

    #[test]
    fn a_parked_retry_wakes_when_its_grant_goes_or_its_inputs_move() {
        let cfg = SimConfig::isca_default();
        let db = Database::new(cfg.shape.nodes);
        let mut cl = Cluster::new(cfg, db);
        let mut q: EventQueue<u32> = EventQueue::with_retry_delay(RetryParams::LOCK_RETRY);
        let mut lot = ParkLot::new(&cl, 4);
        let (holder, other) = (
            owner_token(NodeId(1), SlotId(3)),
            owner_token(NodeId(2), SlotId(0)),
        );
        lock(&mut cl.lock_bufs[0], holder, 7);
        let park = |lot: &mut ParkLot<u32>, q: &mut EventQueue<u32>, cl: &Cluster| {
            let stall = cl
                .lock_stall(None, NodeId(0), |b| b.blocks_read(7u64))
                .expect("denied");
            assert_eq!(stall.holder, holder);
            lot.park(2, stall, &cl.lock_bufs[0], q.park_retry(0));
        };
        // Woken: the retry leaves the lot for the queue.
        let wake = |lot: &mut ParkLot<u32>, q: &mut EventQueue<u32>, cl: &Cluster| {
            lot.wake(q, &cl.lock_bufs);
            let woken = q.pop().is_some();
            assert_eq!(
                (lot.len, lot.per_slot[2]),
                (usize::from(!woken), u32::from(!woken))
            );
            woken
        };

        park(&mut lot, &mut q, &cl);
        assert!(!lot.inputs_moved());
        lock(&mut cl.lock_bufs[0], other, 99);
        assert!(lot.inputs_moved(), "the bank moved");
        assert!(!wake(&mut lot, &mut q, &cl), "its buffer is still held");
        cl.lock_bufs[0].unlock(holder);
        lock(&mut cl.lock_bufs[0], holder, 7);
        assert!(wake(&mut lot, &mut q, &cl), "a new grant to the same owner");

        park(&mut lot, &mut q, &cl);
        lot.touch(2);
        assert!(wake(&mut lot, &mut q, &cl), "its slot's attempt changed");

        park(&mut lot, &mut q, &cl);
        lot.tables_moved();
        assert!(
            wake(&mut lot, &mut q, &cl),
            "the routing or crash table moved"
        );

        park(&mut lot, &mut q, &cl);
        cl.lock_bufs[0].unlock(holder);
        assert!(wake(&mut lot, &mut q, &cl), "its buffer was released");
    }
}
