//! # hades-fault — deterministic fault injection and recovery accounting
//!
//! The paper's Section V-A outlines fault tolerance (replica writes,
//! durable persists before Ack, two-phase commit turning lost messages
//! into clean aborts) without evaluating it. This crate provides the
//! machinery to *create* those failure scenarios reproducibly: a
//! [`FaultPlan`] describes which faults to inject (per-verb message
//! drop/duplication/delay/reorder, node crash/restart windows, NIC stall
//! windows, and link cuts, flaps and partitions), and a
//! [`FaultInjector`] samples the plan from its own seeded RNG stream so
//! the surrounding simulation's randomness is never perturbed.
//!
//! Determinism contract:
//!
//! * An **inert** plan ([`FaultPlan::is_inert`]) consumes no randomness
//!   and injects nothing — runs are byte-identical to an injector-free
//!   build.
//! * A non-inert plan owns a private `xoshiro256**` stream seeded from
//!   [`FaultPlan::seed`]; the same config + seed + plan replays the exact
//!   same fault schedule.
//!
//! Verbs fall into two classes (see [`FaultClass`]):
//!
//! * **Lossy** verbs (Intend, Ack, LockResp, ValidateResp,
//!   ReplicaPrepare, ReplicaAck) are commit-handshake messages whose loss
//!   the protocol engines recover from end-to-end (commit timeouts,
//!   abort, retry). A drop really removes the message; duplication
//!   delivers two copies (engines deduplicate by sequence id).
//! * **Retransmit** verbs (everything else: reads, validations, clears,
//!   squashes, writes, unlocks) ride the reliable transport — RDMA RC
//!   retransmits them in hardware. A "drop" therefore surfaces as extra
//!   latency: the injector charges one [`RetryPolicy`] backoff step per
//!   lost attempt and always delivers exactly one copy, which keeps
//!   non-idempotent messages (e.g. RMW write-backs) exactly-once.

#![warn(missing_docs)]

use hades_sim::backoff::BackoffPolicy;
use hades_sim::config::RetryParams;
use hades_sim::rng::SimRng;
use hades_sim::time::Cycles;
use hades_telemetry::event::Verb;
use hades_telemetry::json::Json;

pub use hades_telemetry::event::{InjectedFault, RecoveryKind};

/// Maximum in-injector retransmit attempts charged for one message on the
/// reliable (Retransmit-class) path before the message goes through
/// regardless.
pub const MAX_RETRANSMIT: u32 = 8;

/// Default coordinator/participant lease (320 µs at 2 GHz): a participant
/// that granted a Locking Buffer releases it when the lease expires
/// without a Validation or Clear, converting a crashed coordinator's
/// partial locks into a clean squash.
pub const DEFAULT_LEASE: Cycles = Cycles::new(640_000);

/// How a verb's faults are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Loss is real: the message disappears and the protocol's own
    /// timeout/abort machinery recovers.
    Lossy,
    /// Loss becomes hardware retransmission latency; delivery is
    /// exactly-once.
    Retransmit,
}

/// The fault class of `verb`.
pub const fn class_of(verb: Verb) -> FaultClass {
    match verb {
        Verb::Intend
        | Verb::Ack
        | Verb::LockResp
        | Verb::ValidateResp
        | Verb::ReplicaPrepare
        | Verb::ReplicaAck => FaultClass::Lossy,
        _ => FaultClass::Retransmit,
    }
}

/// Per-verb fault probabilities and magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerbFaults {
    /// Probability a message is dropped (Lossy class) or charged a
    /// retransmit step (Retransmit class).
    pub drop_p: f64,
    /// Probability a Lossy-class message is delivered twice.
    pub dup_p: f64,
    /// Probability a message is delayed by [`VerbFaults::delay`].
    pub delay_p: f64,
    /// Extra latency applied on a sampled delay.
    pub delay: Cycles,
    /// Probability a message receives uniform jitter in
    /// `[0, reorder_window)`, letting later sends overtake it.
    pub reorder_p: f64,
    /// Jitter window for reordering (and for spacing duplicate copies).
    pub reorder_window: Cycles,
}

impl VerbFaults {
    /// No faults on this verb.
    pub const NONE: VerbFaults = VerbFaults {
        drop_p: 0.0,
        dup_p: 0.0,
        delay_p: 0.0,
        delay: Cycles::ZERO,
        reorder_p: 0.0,
        reorder_window: Cycles::ZERO,
    };

    /// Whether every probability is zero.
    pub fn is_inert(&self) -> bool {
        self.drop_p == 0.0 && self.dup_p == 0.0 && self.delay_p == 0.0 && self.reorder_p == 0.0
    }
}

impl Default for VerbFaults {
    fn default() -> Self {
        VerbFaults::NONE
    }
}

/// A scheduled node crash: the node loses all in-flight transaction state
/// at `at` and — unless the crash is permanent — comes back (replaying
/// durable replica state) at `restart_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The crashing node.
    pub node: u16,
    /// Crash time.
    pub at: Cycles,
    /// Restart time (must be after `at`); `None` for a permanent crash
    /// ([`FaultPlan::crash_forever`]) — the node never comes back and
    /// recovery relies on the membership/failover layer.
    pub restart_at: Option<Cycles>,
}

impl CrashEvent {
    /// Whether this crash is permanent (no scheduled restart).
    pub fn is_forever(&self) -> bool {
        self.restart_at.is_none()
    }
}

/// A NIC stall window: messages arriving at `node` inside `[from, until)`
/// are held and delivered at `until` (a PCIe/firmware hiccup model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicStall {
    /// The stalled node.
    pub node: u16,
    /// Stall window start (inclusive).
    pub from: Cycles,
    /// Stall window end (exclusive); held messages deliver here.
    pub until: Cycles,
}

/// A directed link cut: messages sent from `src` to `dst` inside
/// `[from, until)` are lost (Lossy class) or held by hardware
/// retransmission until the link heals at `until` (Retransmit class).
/// The reverse direction is unaffected — build symmetric cuts and group
/// partitions with [`FaultPlan::cut_link_sym`] / [`FaultPlan::partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCut {
    /// Sending side of the cut direction.
    pub src: u16,
    /// Receiving side of the cut direction.
    pub dst: u16,
    /// Window start (inclusive).
    pub from: Cycles,
    /// Window end (exclusive); the link heals here.
    pub until: Cycles,
    /// Bookkeeping: a `LinkCut` trace event was emitted for this window.
    pub announced: bool,
    /// Bookkeeping: a `LinkHealed` trace event was emitted for this window.
    pub healed: bool,
}

/// A flapping directed link: inside `[from, until)` the link cycles
/// through a duty cycle of `period` cycles, up for `up` of them and down
/// for the rest. The phase offset is derived deterministically from the
/// plan seed and the endpoints, so reruns replay the identical flap
/// schedule without consuming injector randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlap {
    /// Sending side of the flapping direction.
    pub src: u16,
    /// Receiving side of the flapping direction.
    pub dst: u16,
    /// Window start (inclusive).
    pub from: Cycles,
    /// Window end (exclusive); the link heals for good here.
    pub until: Cycles,
    /// Duty-cycle length.
    pub period: Cycles,
    /// Up portion of each period (the remainder is down).
    pub up: Cycles,
    /// Bookkeeping: a `LinkCut` trace event was emitted for this window.
    pub announced: bool,
    /// Bookkeeping: a `LinkHealed` trace event was emitted for this window.
    pub healed: bool,
}

impl LinkFlap {
    /// Seed-derived phase offset in `[0, period)` — splitmix64 over the
    /// plan seed and the link endpoints, so every (src, dst) pair flaps
    /// on its own deterministic schedule.
    fn phase(&self, seed: u64) -> u64 {
        let mut z = seed ^ ((self.src as u64) << 32) ^ ((self.dst as u64) << 16) ^ self.from.get();
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % self.period.get()
    }

    /// If the link is down for a send at `now` (inside the window),
    /// returns when the current down span ends; `None` while up. RNG-free.
    fn release_at(&self, seed: u64, now: Cycles) -> Option<Cycles> {
        let phase = self.phase(seed);
        let rel = now.get() - self.from.get() + phase;
        let pos = rel % self.period.get();
        if pos < self.up.get() {
            None
        } else {
            let next_up = rel - pos + self.period.get();
            Some(Cycles::new(self.from.get() + next_up - phase))
        }
    }
}

/// Panics unless `[from, until)` between distinct nodes is a valid link
/// fault window.
fn check_link_window(src: u16, dst: u16, from: Cycles, until: Cycles) {
    assert!(src != dst, "self-link fault on node {src}");
    assert!(
        until > from,
        "empty or inverted link window [{from:?}, {until:?}) on {src}->{dst}"
    );
}

/// Exponential backoff schedule for timeout-driven retries: attempt `k`
/// waits `min(base << k, cap)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-retry backoff.
    pub base: Cycles,
    /// Backoff ceiling.
    pub cap: Cycles,
}

impl RetryPolicy {
    /// The saturating [`BackoffPolicy`] equivalent of this schedule.
    pub fn policy(&self) -> BackoffPolicy {
        BackoffPolicy::exponential(self.base, self.cap)
    }

    /// The backoff before retry `attempt` (0-based). Delegates to the
    /// shared [`BackoffPolicy`], which saturates on value overflow
    /// (`checked_shl` only guards the shift amount, so the old inline
    /// arithmetic silently truncated large bases and could shrink the
    /// backoff between attempts).
    pub fn step(&self, attempt: u32) -> Cycles {
        self.policy().step(attempt)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: RetryParams::BACKOFF_BASE,
            cap: RetryParams::BACKOFF_CAP,
        }
    }
}

/// A complete, seed-reproducible fault schedule shared by all three
/// protocol engines.
///
/// # Examples
///
/// ```
/// use hades_fault::FaultPlan;
/// use hades_sim::time::Cycles;
/// use hades_telemetry::event::Verb;
///
/// let plan = FaultPlan::none()
///     .with_seed(7)
///     .drop_verb(Verb::Intend, 0.05)
///     .delay_verb(Verb::Validation, 0.1, Cycles::new(4_000))
///     .crash(1, Cycles::new(500_000), Cycles::new(900_000));
/// assert!(!plan.is_inert());
/// assert!(plan.has_crashes());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Per-verb fault knobs, indexed by [`Verb::index`].
    pub verbs: [VerbFaults; Verb::COUNT],
    /// Scheduled node crashes.
    pub crashes: Vec<CrashEvent>,
    /// NIC stall windows.
    pub nic_stalls: Vec<NicStall>,
    /// Directed link-cut windows.
    pub link_cuts: Vec<LinkCut>,
    /// Flapping-link windows.
    pub link_flaps: Vec<LinkFlap>,
    /// Lease duration for crash suspicion (see [`DEFAULT_LEASE`]).
    pub lease: Cycles,
    /// Backoff schedule for timeout-driven retries.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The empty plan: injects nothing, consumes no randomness.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            verbs: [VerbFaults::NONE; Verb::COUNT],
            crashes: Vec::new(),
            nic_stalls: Vec::new(),
            link_cuts: Vec::new(),
            link_flaps: Vec::new(),
            lease: DEFAULT_LEASE,
            retry: RetryPolicy::default(),
        }
    }

    /// The legacy commit-message-loss experiment as a plan: probability
    /// `p` of dropping each commit-handshake (Lossy-class) message.
    pub fn from_loss(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} out of range"
        );
        let mut plan = FaultPlan::none().with_seed(seed);
        if p > 0.0 {
            for verb in Verb::ALL {
                if class_of(verb) == FaultClass::Lossy {
                    plan.verbs[verb.index()].drop_p = p;
                }
            }
        }
        plan
    }

    /// Replaces the injector seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drops `verb` messages with probability `p`.
    pub fn drop_verb(mut self, verb: Verb, p: f64) -> Self {
        self.verbs[verb.index()].drop_p = p;
        self
    }

    /// Duplicates `verb` messages with probability `p` (Lossy class only;
    /// Retransmit-class delivery stays exactly-once).
    pub fn dup_verb(mut self, verb: Verb, p: f64) -> Self {
        self.verbs[verb.index()].dup_p = p;
        self
    }

    /// Delays `verb` messages by `delay` with probability `p`.
    pub fn delay_verb(mut self, verb: Verb, p: f64, delay: Cycles) -> Self {
        let vf = &mut self.verbs[verb.index()];
        vf.delay_p = p;
        vf.delay = delay;
        self
    }

    /// Jitters `verb` messages by up to `window` with probability `p`,
    /// allowing reordering against later sends.
    pub fn reorder_verb(mut self, verb: Verb, p: f64, window: Cycles) -> Self {
        let vf = &mut self.verbs[verb.index()];
        vf.reorder_p = p;
        vf.reorder_window = window;
        self
    }

    /// Crashes `node` at `at`, restarting it at `restart_at`.
    ///
    /// # Panics
    ///
    /// Panics if `restart_at <= at`.
    pub fn crash(mut self, node: u16, at: Cycles, restart_at: Cycles) -> Self {
        assert!(restart_at > at, "restart must come after the crash");
        self.crashes.push(CrashEvent {
            node,
            at,
            restart_at: Some(restart_at),
        });
        self
    }

    /// Crashes `node` at `at` permanently: no restart is ever scheduled.
    /// Recovery (backup promotion, in-flight commit resolution) is the
    /// membership layer's job — see `MembershipParams`.
    pub fn crash_forever(mut self, node: u16, at: Cycles) -> Self {
        self.crashes.push(CrashEvent {
            node,
            at,
            restart_at: None,
        });
        self
    }

    /// Stalls `node`'s NIC for arrivals inside `[from, until)`.
    pub fn nic_stall(mut self, node: u16, from: Cycles, until: Cycles) -> Self {
        assert!(until > from, "empty stall window");
        self.nic_stalls.push(NicStall { node, from, until });
        self
    }

    /// Cuts the directed link `src -> dst` for sends inside
    /// `[from, until)`. The reverse direction keeps flowing (an
    /// asymmetric partition).
    ///
    /// # Panics
    ///
    /// Panics on a self-link (`src == dst`) or an empty/inverted window.
    pub fn cut_link(mut self, src: u16, dst: u16, from: Cycles, until: Cycles) -> Self {
        check_link_window(src, dst, from, until);
        self.link_cuts.push(LinkCut {
            src,
            dst,
            from,
            until,
            announced: false,
            healed: false,
        });
        self
    }

    /// Cuts the link between `a` and `b` in both directions (a symmetric
    /// partition of the pair).
    pub fn cut_link_sym(self, a: u16, b: u16, from: Cycles, until: Cycles) -> Self {
        self.cut_link(a, b, from, until).cut_link(b, a, from, until)
    }

    /// Partitions `group_a` from `group_b`: every cross-group link is cut
    /// in both directions for `[from, until)`. Intra-group links keep
    /// flowing.
    ///
    /// # Panics
    ///
    /// Panics if the groups overlap, either group is empty, or the window
    /// is empty/inverted.
    pub fn partition(
        mut self,
        group_a: &[u16],
        group_b: &[u16],
        from: Cycles,
        until: Cycles,
    ) -> Self {
        assert!(
            !group_a.is_empty() && !group_b.is_empty(),
            "partition groups must be non-empty"
        );
        for &a in group_a {
            for &b in group_b {
                assert!(a != b, "node {a} on both sides of the partition");
                self = self.cut_link_sym(a, b, from, until);
            }
        }
        self
    }

    /// Isolates `node` from every other node in a cluster of `nodes`
    /// (both directions) for `[from, until)`.
    pub fn isolate_node(self, node: u16, nodes: u16, from: Cycles, until: Cycles) -> Self {
        assert!(
            node < nodes,
            "isolated node {node} outside cluster of {nodes}"
        );
        let rest: Vec<u16> = (0..nodes).filter(|&n| n != node).collect();
        self.partition(&[node], &rest, from, until)
    }

    /// Flaps the directed link `src -> dst` inside `[from, until)`: up
    /// for `up` out of every `period` cycles, down for the rest, at a
    /// seed-derived phase.
    ///
    /// # Panics
    ///
    /// Panics on a self-link, an empty/inverted window, a zero period, or
    /// `up >= period` (no down phase — the flap would be inert).
    pub fn flap_link(
        mut self,
        src: u16,
        dst: u16,
        from: Cycles,
        until: Cycles,
        period: Cycles,
        up: Cycles,
    ) -> Self {
        check_link_window(src, dst, from, until);
        assert!(period > Cycles::ZERO, "flap period must be non-zero");
        assert!(
            up < period,
            "flap up time {up:?} leaves no down phase in {period:?}"
        );
        self.link_flaps.push(LinkFlap {
            src,
            dst,
            from,
            until,
            period,
            up,
            announced: false,
            healed: false,
        });
        self
    }

    /// Flaps every link touching `node` (both directions, against all
    /// peers in a cluster of `nodes`) with the same duty cycle.
    pub fn flap_node(
        mut self,
        node: u16,
        nodes: u16,
        from: Cycles,
        until: Cycles,
        period: Cycles,
        up: Cycles,
    ) -> Self {
        assert!(
            node < nodes,
            "flapping node {node} outside cluster of {nodes}"
        );
        for peer in (0..nodes).filter(|&n| n != node) {
            self = self
                .flap_link(node, peer, from, until, period, up)
                .flap_link(peer, node, from, until, period, up);
        }
        self
    }

    /// Replaces the lease duration.
    pub fn with_lease(mut self, lease: Cycles) -> Self {
        self.lease = lease;
        self
    }

    /// Whether the plan injects nothing at all (and so must leave runs
    /// byte-identical to an un-injected build).
    pub fn is_inert(&self) -> bool {
        self.verbs.iter().all(VerbFaults::is_inert)
            && self.crashes.is_empty()
            && self.nic_stalls.is_empty()
            && !self.has_link_faults()
    }

    /// Whether any node crash is scheduled.
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// Whether any link-level fault (cut or flap) is scheduled.
    pub fn has_link_faults(&self) -> bool {
        !self.link_cuts.is_empty() || !self.link_flaps.is_empty()
    }

    /// Re-validates every scheduled fault, catching malformed windows in
    /// hand-constructed plans that bypassed the builders. Called by
    /// [`FaultInjector::new`], so a bad plan fails fast at install time
    /// instead of silently misbehaving mid-run.
    ///
    /// # Panics
    ///
    /// Panics on a restart scheduled at or before its crash, an
    /// empty/inverted stall or link window, a self-link, or a
    /// zero-period or always-up flap.
    pub fn validate(&self) {
        for c in &self.crashes {
            if let Some(r) = c.restart_at {
                assert!(
                    r > c.at,
                    "node {} restart at {r:?} not after its crash at {:?}",
                    c.node,
                    c.at
                );
            }
        }
        for s in &self.nic_stalls {
            assert!(
                s.until > s.from,
                "empty or inverted stall window on node {}",
                s.node
            );
        }
        for l in &self.link_cuts {
            check_link_window(l.src, l.dst, l.from, l.until);
        }
        for f in &self.link_flaps {
            check_link_window(f.src, f.dst, f.from, f.until);
            assert!(f.period > Cycles::ZERO, "flap period must be non-zero");
            assert!(
                f.up < f.period,
                "flap up time {:?} leaves no down phase in {:?}",
                f.up,
                f.period
            );
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counts of injected faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Messages dropped (both classes; Retransmit-class drops were
    /// recovered by hardware retransmission).
    pub drops: u64,
    /// Messages delivered twice.
    pub dups: u64,
    /// Messages delayed.
    pub delays: u64,
    /// Messages jittered for reordering.
    pub reorders: u64,
    /// Node crashes.
    pub crashes: u64,
    /// Node restarts.
    pub restarts: u64,
    /// Messages held by a NIC stall window.
    pub nic_stalls: u64,
    /// Messages blocked by a cut or flapped-down link (Lossy class lost;
    /// Retransmit class held until the link healed).
    pub link_cuts: u64,
}

impl FaultCounts {
    /// Whether nothing was injected.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounts::default()
    }

    /// JSON object with one field per counter.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("drops", Json::UInt(self.drops))
            .field("dups", Json::UInt(self.dups))
            .field("delays", Json::UInt(self.delays))
            .field("reorders", Json::UInt(self.reorders))
            .field("crashes", Json::UInt(self.crashes))
            .field("restarts", Json::UInt(self.restarts))
            .field("nic_stalls", Json::UInt(self.nic_stalls))
            .field("link_cuts", Json::UInt(self.link_cuts))
            .build()
    }
}

/// Counts of recovery actions the protocol engines took in response to
/// injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// Timeout-driven retries/aborts (lost handshake messages recovered
    /// by the commit-timeout path, plus hardware retransmissions).
    pub timeout_retries: u64,
    /// Participant leases that expired and released a Locking Buffer
    /// held on behalf of a suspected-crashed coordinator.
    pub lease_expiries: u64,
    /// Replica log entries replayed on node restart.
    pub replica_replays: u64,
}

impl RecoveryCounts {
    /// Whether no recovery action was taken.
    pub fn is_zero(&self) -> bool {
        *self == RecoveryCounts::default()
    }

    /// JSON object with one field per counter.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("timeout_retries", Json::UInt(self.timeout_retries))
            .field("lease_expiries", Json::UInt(self.lease_expiries))
            .field("replica_replays", Json::UInt(self.replica_replays))
            .build()
    }
}

/// The outcome of injecting faults into one message send.
#[derive(Debug, Clone, Default)]
pub struct SendFaults {
    /// Extra delay of each delivered copy (empty = message lost; two
    /// entries = duplicated).
    pub copies: Vec<Cycles>,
    /// Faults injected into this send, for tracing.
    pub injected: Vec<InjectedFault>,
    /// Recovery actions implied by this send (hardware retransmissions),
    /// for tracing.
    pub recovered: Vec<RecoveryKind>,
    /// Link-fault windows on this (src, dst) pair that became active for
    /// the first time at this send — one `LinkCut` trace event each.
    pub cut_links: Vec<(u16, u16)>,
    /// Link-fault windows on this pair whose end passed by this send —
    /// one `LinkHealed` trace event each.
    pub healed_links: Vec<(u16, u16)>,
}

/// Samples a [`FaultPlan`] against live traffic, from a private RNG
/// stream, and accumulates fault/recovery counters.
///
/// # Examples
///
/// ```
/// use hades_fault::{FaultInjector, FaultPlan};
/// use hades_sim::time::Cycles;
/// use hades_telemetry::event::Verb;
///
/// let plan = FaultPlan::none().with_seed(3).drop_verb(Verb::Intend, 1.0);
/// let mut inj = FaultInjector::new(plan);
/// let out = inj.on_send(Cycles::ZERO, Verb::Intend, 0, 1);
/// assert!(out.copies.is_empty(), "drop_p=1 loses every Intend");
/// assert_eq!(inj.faults.drops, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// `!plan.is_inert()`, computed once: the plan never changes after
    /// [`FaultInjector::new`], and every send asks.
    active: bool,
    rng: SimRng,
    /// Injected-fault counters.
    pub faults: FaultCounts,
    /// Recovery-action counters.
    pub recovery: RecoveryCounts,
}

impl FaultInjector {
    /// Builds an injector for `plan`; the RNG stream is seeded from
    /// [`FaultPlan::seed`].
    ///
    /// # Panics
    ///
    /// Panics if the plan is malformed — see [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate();
        let rng = SimRng::seed_from(plan.seed);
        FaultInjector {
            active: !plan.is_inert(),
            plan,
            rng,
            faults: FaultCounts::default(),
            recovery: RecoveryCounts::default(),
        }
    }

    /// An injector for the empty plan.
    pub fn inert() -> Self {
        FaultInjector::new(FaultPlan::none())
    }

    /// Whether this injector can inject anything. When `false`, callers
    /// must bypass it entirely (the fast path that preserves byte
    /// identity with un-injected builds).
    pub fn active(&self) -> bool {
        self.active
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The scheduled crashes.
    pub fn crashes(&self) -> &[CrashEvent] {
        &self.plan.crashes
    }

    /// The configured lease duration.
    pub fn lease(&self) -> Cycles {
        self.plan.lease
    }

    /// The configured retry/backoff schedule.
    pub fn retry(&self) -> RetryPolicy {
        self.plan.retry
    }

    /// If a send from `src` to `dst` at `now` hits a cut or flapped-down
    /// link, returns when the blocking window (or down span) ends.
    /// Consumes no randomness.
    pub fn link_release(&self, now: Cycles, src: u16, dst: u16) -> Option<Cycles> {
        let mut release: Option<Cycles> = None;
        let mut hold = |r: Cycles| {
            release = Some(release.map_or(r, |cur| cur.max(r)));
        };
        for c in &self.plan.link_cuts {
            if c.src == src && c.dst == dst && now >= c.from && now < c.until {
                hold(c.until);
            }
        }
        for f in &self.plan.link_flaps {
            if f.src == src && f.dst == dst && now >= f.from && now < f.until {
                if let Some(r) = f.release_at(self.plan.seed, now) {
                    hold(r.min(f.until));
                }
            }
        }
        release
    }

    /// Whether `node` can currently reach an outbound majority of a
    /// cluster of `nodes` (itself included). The membership layer treats
    /// a minority-side node's lease renewals as lost.
    pub fn node_reaches_majority(&self, now: Cycles, node: u16, nodes: usize) -> bool {
        let mut reachable = 1usize; // itself
        for peer in 0..nodes as u16 {
            if peer != node && self.link_release(now, node, peer).is_none() {
                reachable += 1;
            }
        }
        reachable * 2 > nodes
    }

    /// (windows that became active, windows that healed) as of `now`,
    /// across all link cuts and flaps — the window-level counts behind
    /// the `nemesis` stats block (per-message counts live in
    /// [`FaultCounts::link_cuts`]). A window counts as cut once a send
    /// actually hit it, and as healed once its end time has passed —
    /// whether or not any later send probed that pair again (the lazy
    /// `LinkHealed` trace event still needs traffic to fire).
    pub fn link_window_counts(&self, now: Cycles) -> (u64, u64) {
        let mut cut = 0u64;
        let mut healed = 0u64;
        for c in &self.plan.link_cuts {
            if c.announced {
                cut += 1;
                if c.healed || now >= c.until {
                    healed += 1;
                }
            }
        }
        for f in &self.plan.link_flaps {
            if f.announced {
                cut += 1;
                if f.healed || now >= f.until {
                    healed += 1;
                }
            }
        }
        (cut, healed)
    }

    /// Flags window open/close transitions for the (src, dst) pair at
    /// `now` into `out`, exactly once per window, so the fabric can emit
    /// `LinkCut`/`LinkHealed` trace events.
    fn note_link_transitions(&mut self, now: Cycles, src: u16, dst: u16, out: &mut SendFaults) {
        for c in &mut self.plan.link_cuts {
            if c.src != src || c.dst != dst {
                continue;
            }
            if !c.announced && now >= c.from && now < c.until {
                c.announced = true;
                out.cut_links.push((src, dst));
            }
            if c.announced && !c.healed && now >= c.until {
                c.healed = true;
                out.healed_links.push((src, dst));
            }
        }
        for f in &mut self.plan.link_flaps {
            if f.src != src || f.dst != dst {
                continue;
            }
            if !f.announced && now >= f.from && now < f.until {
                f.announced = true;
                out.cut_links.push((src, dst));
            }
            if f.announced && !f.healed && now >= f.until {
                f.healed = true;
                out.healed_links.push((src, dst));
            }
        }
    }

    /// Injects faults into one `verb` message sent from `src` to `dst` at
    /// `now`. Returns the extra delay of each delivered copy (possibly
    /// none, possibly two).
    pub fn on_send(&mut self, now: Cycles, verb: Verb, src: u16, dst: u16) -> SendFaults {
        let mut out = SendFaults::default();
        let mut link_hold = Cycles::ZERO;
        if self.plan.has_link_faults() {
            let release = self.link_release(now, src, dst);
            self.note_link_transitions(now, src, dst, &mut out);
            if let Some(release) = release {
                self.faults.link_cuts += 1;
                out.injected.push(InjectedFault::LinkCut { verb });
                match class_of(verb) {
                    // The message is really gone; the commit-handshake
                    // timeout machinery recovers end-to-end.
                    FaultClass::Lossy => return out,
                    // RC hardware retransmits until the link heals, so
                    // the loss surfaces as hold-until-release latency.
                    FaultClass::Retransmit => link_hold = release - now,
                }
            }
        }
        let vf = self.plan.verbs[verb.index()];
        match class_of(verb) {
            FaultClass::Lossy => {
                if vf.drop_p > 0.0 && self.rng.chance(vf.drop_p) {
                    self.faults.drops += 1;
                    out.injected.push(InjectedFault::Drop { verb });
                    return out;
                }
                let mut extra = Cycles::ZERO;
                if vf.delay_p > 0.0 && self.rng.chance(vf.delay_p) {
                    extra += vf.delay;
                    self.faults.delays += 1;
                    out.injected.push(InjectedFault::Delay { verb });
                }
                if vf.reorder_p > 0.0 && self.rng.chance(vf.reorder_p) {
                    extra += Cycles::new(self.rng.below(vf.reorder_window.get().max(1)));
                    self.faults.reorders += 1;
                    out.injected.push(InjectedFault::Reorder { verb });
                }
                out.copies.push(extra);
                if vf.dup_p > 0.0 && self.rng.chance(vf.dup_p) {
                    // The duplicate trails the original by a jitter drawn
                    // from the reorder window (or a small default skew).
                    let skew = vf.reorder_window.get().max(64);
                    let dup_extra = extra + Cycles::new(1 + self.rng.below(skew));
                    out.copies.push(dup_extra);
                    self.faults.dups += 1;
                    out.injected.push(InjectedFault::Duplicate { verb });
                }
            }
            FaultClass::Retransmit => {
                let mut extra = link_hold;
                let mut attempt = 0u32;
                while vf.drop_p > 0.0 && attempt < MAX_RETRANSMIT && self.rng.chance(vf.drop_p) {
                    extra += self.plan.retry.step(attempt);
                    attempt += 1;
                    self.faults.drops += 1;
                    self.recovery.timeout_retries += 1;
                    out.injected.push(InjectedFault::Drop { verb });
                    out.recovered.push(RecoveryKind::TimeoutRetry);
                }
                if vf.delay_p > 0.0 && self.rng.chance(vf.delay_p) {
                    extra += vf.delay;
                    self.faults.delays += 1;
                    out.injected.push(InjectedFault::Delay { verb });
                }
                out.copies.push(extra);
            }
        }
        out
    }

    /// If an arrival at node `dst` lands inside a stall window, returns
    /// the window end the message is held until (the caller clamps the
    /// delivery time). Consumes no randomness.
    pub fn stall_release(&mut self, dst: u16, arrival: Cycles) -> Option<Cycles> {
        let held = self
            .plan
            .nic_stalls
            .iter()
            .filter(|s| s.node == dst && arrival >= s.from && arrival < s.until)
            .map(|s| s.until)
            .max();
        if held.is_some() {
            self.faults.nic_stalls += 1;
        }
        held
    }
}
