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

use crate::runtime::{
    owner_token, resolve, Cluster, Measurement, MigrationAction, ResolvedTxn, RunOutcome,
    WorkloadSet,
};
use crate::stats::{Phase, RunStats, SquashReason};
use hades_fault::InjectedFault;
use hades_net::nic::RemoteTxKey;
use hades_sim::config::{MembershipParams, MigrationParams, OverloadParams, RetryParams};
use hades_sim::engine::EventQueue;
use hades_sim::ids::{CoreId, NodeId, SlotId};
use hades_sim::rng::SimRng;
use hades_sim::time::Cycles;
use hades_telemetry::event::{EventKind, RecoveryKind, Verb, NO_SLOT};
use std::fmt::Debug;
use std::rc::Rc;

/// The protocol half of a simulator: what Baseline, HADES-H and HADES do
/// differently. Each method runs inside the shared [`Sim`] driver.
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
    /// Every Locking-Buffer stall re-arms after the same delay, so the
    /// engines with Locking Buffers run their re-arms on the queue's FIFO
    /// retry lane, and the lane's polls that cannot succeed re-arm inside
    /// the queue ([`Engine::rearm`]).
    const RETRY_LANE: bool;
    /// The verb a migration cutover counts as fenced per straddler: the
    /// round it aborts (Baseline's lock round, the HADES engines' Intend).
    const FENCE_VERB: Verb;

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
    /// Whether `ev`, a retry-lane event due at `now`, would only re-arm
    /// itself: its handler would push the same event back on the lane and
    /// do nothing else but trace. If so, this emits that trace and the
    /// queue re-arms the event in place instead of dispatching it
    /// ([`EventQueue::pop_rearming`]).
    fn rearm(_sim: RearmView<'_>, _now: Cycles, _ev: &Self::Ev) -> bool {
        false
    }
    /// Aborts the slot's attempt, releases what it holds and schedules
    /// the retry.
    fn squash(sim: &mut Sim<Self>, si: usize, reason: SquashReason);
    /// Past the point of no return: the commit's effects land even if
    /// its coordinator crashes now.
    fn past_no_return(x: &Self::Slot) -> bool;
    /// Mid commit handshake, so a migration cutover of a partition the
    /// transaction touches must fence it: Baseline's lock/validation
    /// rounds (`outstanding`, not yet `durable`), HADES-H's outstanding
    /// Acks, HADES's `committing` flag.
    fn in_handshake(c: &SlotCore, x: &Self::Slot) -> bool;
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
    /// Ops of the current stage (or responses of the current round)
    /// still outstanding.
    pub(crate) outstanding: u32,
    /// Next fallback lock batch.
    pub(crate) fallback_cursor: usize,
    /// A retry/restart `Start` is legitimately pending for this slot even
    /// though `txn` is still set (disambiguates stale duplicate Starts
    /// deferred across a crash window, and guards against a second squash
    /// in the same window double-scheduling the transaction).
    pub(crate) awaiting_start: bool,
    /// Configuration epoch this attempt started in (straddle detection).
    pub(crate) epoch: u64,
}

impl SlotCore {
    /// Whether `att` is still this slot's live attempt.
    pub(crate) fn alive(&self, att: u32) -> bool {
        self.attempt == att && self.txn.is_some()
    }
}

/// What [`Engine::rearm`] may read: the cluster, the slots and the crash
/// table. The queue is left out, since the predicate runs in the middle
/// of its pop.
#[derive(Debug, Clone, Copy)]
pub struct RearmView<'a> {
    pub(crate) cl: &'a Cluster,
    pub(crate) slots: &'a [SlotCore],
    pub(crate) crashed: &'a [bool],
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
    /// Membership layer: an exec-phase remote fetch has been outstanding
    /// too long (its home may be dead forever) — squash and retry.
    FetchTimeout { si: usize, att: u32, stage: usize },
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
                    outstanding: 0,
                    fallback_cursor: 0,
                    awaiting_start: false,
                    epoch: 0,
                });
                ext.push(P::new_slot(&cl, n));
                slot_rngs.push(cl.rng.fork());
            }
        }
        let q = if P::RETRY_LANE {
            EventQueue::with_retry_delay(RetryParams::LOCK_RETRY)
        } else {
            EventQueue::new()
        };
        Sim {
            q,
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
        loop {
            let view = RearmView {
                cl: &self.cl,
                slots: &self.slots,
                crashed: &self.crashed,
            };
            let next = self
                .q
                .pop_rearming(|now, ev| matches!(ev, Ev::Engine(ev) if P::rearm(view, now, ev)));
            let Some((_, ev)) = next else {
                break;
            };
            self.handle(ev);
        }
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
        }
    }

    fn handle(&mut self, ev: Ev<P::Ev>) {
        match ev {
            Ev::Start { si } => self.on_start(si),
            Ev::ExecStage { si, att } if self.alive(si, att) => P::exec_stage(self, si, att),
            Ev::OpDone { si, att } if self.alive(si, att) => self.on_op_done(si, att),
            Ev::FallbackLock { si, att } if self.alive(si, att) => P::fallback_lock(self, si, att),
            Ev::CommitDone { si, att } if self.alive(si, att) => self.on_commit_done(si, att),
            Ev::FetchTimeout { si, att, stage } if self.alive(si, att) => {
                // Ops still outstanding in the fetch's stage: execution
                // has not finished, so the attempt is not committing yet.
                let s = &self.slots[si];
                if s.stage == stage && s.outstanding > 0 {
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

    /// Schedules a squashed attempt's retry from `from`. A commit timeout
    /// under fault injection backs off exponentially (the loss may be
    /// systemic, not contention); every other squash keeps the
    /// contention backoff, starvation boost included. Under fault
    /// injection the retry also waits for `settled`, when the attempt's
    /// in-flight releases have landed.
    pub(crate) fn schedule_retry(
        &mut self,
        si: usize,
        from: Cycles,
        settled: Cycles,
        timeout: bool,
    ) {
        let now = self.q.now();
        let s = &mut self.slots[si];
        s.attempt += 1;
        s.consec_squashes += 1;
        let (node, attempts) = (s.node, s.consec_squashes);
        let backoff = if timeout && self.cl.injector_active() {
            let inj = self.cl.fabric.injector_mut();
            inj.recovery.timeout_retries += 1;
            let step = inj.retry().step(attempts.saturating_sub(1));
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
        s.outstanding = 0;
        s.awaiting_start = false;
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
        } else {
            P::exec_done(self, si, att);
        }
    }

    /// Commit bookkeeping: observability, the ledger, the admission
    /// outcome, the measured stats and the drain decision; then the slot
    /// starts its next transaction.
    fn on_commit_done(&mut self, si: usize, att: u32) {
        let now = self.q.now();
        let latency = now.saturating_sub(self.slots[si].first_start);
        let record = self.recording();
        self.cl.obs_commit(si, now, latency, record);
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
    /// machine. At cutover, fence-then-flip: only slots mid commit
    /// handshake ([`Engine::in_handshake`]) touching a moving partition
    /// squash and retry — their lock rounds or Intends reached the old
    /// primary, and the squash's unlocks/Clears route via the pre-cutover
    /// map, releasing what they took at the source. Exec-phase slots
    /// survive; they route at commit time, and their NIC filter entries
    /// travel with the cutover. Slots past the point of no return
    /// (Validations already in flight to the pre-cutover primaries) leave
    /// their filter entries behind too: those Validations clear them at
    /// the source (DESIGN.md §15).
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
                    let (s, x) = (&self.slots[si], &self.ext[si]);
                    let Some(txn) = s.txn.as_ref() else {
                        continue;
                    };
                    if P::past_no_return(x) {
                        exclude.push(self.key_of(si));
                        continue;
                    }
                    let straddles = P::in_handshake(s, x)
                        && txn
                            .ops()
                            .any(|o| moves.iter().any(|&(src, _)| o.home == src));
                    if !straddles {
                        continue;
                    }
                    self.fence_verb(s.node, P::FENCE_VERB);
                    fenced.push(self.key_of(si));
                    P::squash(self, si, SquashReason::CommitTimeout);
                }
                let n = fenced.len() as u64;
                exclude.extend(fenced);
                self.cl.finish_cutover(now, &exclude, n);
            }
            MigrationAction::Done => {}
        }
    }

    /// Node crash: every in-flight transaction originating at the node is
    /// wiped. Transactions past the point of no return have already
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
            if P::past_no_return(&self.ext[si]) {
                // Effects are already durable/in flight: finalize the
                // ledger before discarding the slot.
                self.total_sum_delta += txn.sum_delta;
                self.total_commits += 1;
            }
            P::on_crash(self, si);
            let s = &mut self.slots[si];
            s.txn = None;
            s.attempt += 1;
            s.consec_squashes = 0;
            s.fallback = false;
            s.stage = 0;
            s.outstanding = 0;
            s.fallback_cursor = 0;
            s.awaiting_start = false;
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
                P::on_death(self, dead);
            }
        }
        self.q
            .push_at(now + MembershipParams::RENEW_INTERVAL, Ev::MembershipTick);
    }
}
