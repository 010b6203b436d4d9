//! Verb batching & doorbell coalescing (DESIGN.md §14).
//!
//! RDMA NICs amortize per-message overhead — WQE marshalling, the MMIO
//! doorbell write, completion polling — by chaining several work
//! requests behind one doorbell. This module models the fabric side of
//! that subsystem:
//!
//! * Per-(src, dst) queue-pair coalescing buffers ([`QpBuffer`]). The
//!   first verb of a batch (the *leader*) rings the doorbell and opens
//!   the batch for `COALESCE_WINDOW` cycles; a verb sent on the same
//!   queue pair inside that window (a *joiner*) appends to the open WQE
//!   chain. The issue cost itself is not charged here: the issuing core
//!   pays it once, in `Cluster::issue` (`SwCosts::rdma_issue` for a
//!   leader, `PER_VERB_CYCLES` for a joiner). A leader therefore departs
//!   the moment it is sent and arrives when an unbatched verb would, so
//!   an idle fabric sees unbatched latency by construction.
//! * Receiver-side completion coalescing: the leader pays the
//!   per-message NIC processing for its batch; joiners skip it (their
//!   completions are reaped in the leader's poll), and
//!   [`BatchStats`] counts the receiver work saved.
//! * The adaptive policy: each new leader counts its sender's verbs in
//!   flight (sent, not yet arrived). At or above `HIGH_WATERMARK` the
//!   queue pair's batch target doubles (up to `max_batch`); at or below
//!   `LOW_WATERMARK` it drains back to 1, so batching switches itself
//!   off under light load.
//! * Coalesced squash propagation: a Squash verb whose queue pair's open
//!   batch already carries a squash piggybacks on that WQE — one batched
//!   verb carries several notifications.
//!
//! Simulated-time order: the engines schedule sends inline, often at
//! future instants, so calls do not arrive in time order. Every decision
//! here is taken in simulated time instead. A verb joins only a batch
//! whose leader was sent at or before it (`opened_at ≤ now ≤
//! open_until`). Each queue pair keeps its recent verbs in send order
//! and places a new verb between its neighbours in time, so arrivals are
//! FIFO in send time: a joiner never overtakes its leader or any other
//! verb sent before it. In-flight counts compare send and arrival
//! instants, never call order. A batched verb never arrives later than
//! the same verb unbatched when the queue pair's verbs share one size.
//! Fault-injected delay/reorder copies bypass the batcher entirely: they
//! model verbs that missed their batch.
//!
//! Everything here is integer arithmetic over [`Cycles`]; the batcher
//! draws no randomness, so same-seed runs stay byte-identical.

use crate::fabric::Inline;
use hades_sim::config::{BatchingParams, NetParams};
use hades_sim::ids::NodeId;
use hades_sim::time::Cycles;
use hades_telemetry::event::Verb;
use hades_telemetry::json::Json;

/// Occupancy histogram buckets: batch sizes 1..=`OCC_BUCKETS` (larger
/// batches clamp into the last bucket).
pub const OCC_BUCKETS: usize = 64;

/// How long a sender remembers a verb, measured back from its latest
/// send (2^16 cycles, about 33 µs). A send is scheduled at most a few
/// round trips before the sender's latest one — at most 13.3k cycles in
/// the `bench --batch 16` matrix and the `batching` sweep — so forgetting
/// older verbs loses nothing, and the short log stays in cache.
const LOG_HORIZON: Cycles = Cycles::new(1 << 16);

/// Forgotten verbs are dropped this many at a time.
const FORGET_BULK: usize = 64;

/// Whether a send may share a doorbell with its queue pair's open batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Doorbell {
    /// Join the open batch if it accepts the verb, else lead a new one.
    Share,
    /// Lead a new batch: the issuing core paid the full issue cost, so
    /// the verb rings its own doorbell whatever the queue pair holds.
    Ring,
}

/// One queue pair's coalescing buffer: the open batch (if any) from one
/// source node to one destination node.
#[derive(Debug, Clone, Copy)]
pub struct QpBuffer {
    /// When the open batch's leader was sent.
    opened_at: Cycles,
    /// The open batch accepts joiners until this instant.
    open_until: Cycles,
    /// Verbs in the open batch (leader included, piggybacks excluded).
    count: u32,
    /// Piggybacked squash notifications riding the open batch.
    piggybacked: u32,
    /// Squash verbs aboard the open batch (piggybacks included).
    squashes: u32,
    /// Adaptive batch-size target for this queue pair.
    target: u32,
}

impl QpBuffer {
    fn new(target: u32) -> Self {
        QpBuffer {
            opened_at: Cycles::ZERO,
            open_until: Cycles::ZERO,
            count: 0,
            piggybacked: 0,
            squashes: 0,
            target,
        }
    }

    /// Whether the open batch accepts a joiner sent at `now`.
    fn accepts(&self, now: Cycles) -> bool {
        self.count > 0
            && self.count < self.target
            && self.opened_at <= now
            && now <= self.open_until
    }

    /// The adaptive batch-size target currently in force.
    pub fn target(&self) -> u32 {
        self.target
    }

    /// Verbs aboard the open batch (0 = no open batch).
    pub fn occupancy(&self) -> u32 {
        self.count
    }
}

/// One verb in a [`SendLog`].
#[derive(Debug, Clone, Copy)]
struct Sent {
    at: Cycles,
    arrival: Cycles,
    dst: u16,
}

/// One sender's recent verbs, kept in simulated send order whatever
/// order the sends were called in. It places each verb FIFO within its
/// queue pair and counts the sender's verbs in flight.
#[derive(Debug, Clone, Default)]
struct SendLog {
    verbs: Vec<Sent>,
    latest: Cycles,
    /// Longest flight recorded: a verb sent this long before an instant
    /// has arrived by it.
    max_flight: Cycles,
}

impl SendLog {
    /// How many remembered verbs were sent at or before `t`. Sends are
    /// scheduled almost in time order, so this searches back from the
    /// newest: a handful of steps on engine traffic.
    fn sent_by(&self, t: Cycles) -> usize {
        self.verbs
            .iter()
            .rposition(|v| v.at <= t)
            .map_or(0, |i| i + 1)
    }

    /// Records a verb to `dst` sent at `at` and returns its arrival: its
    /// own path's `natural` arrival, but no earlier than any verb sent
    /// before it on the queue pair (the FIFO fence, which covers a
    /// joiner's leader) and no later than any verb sent after it there
    /// that was scheduled first. The second clamp only moves a verb whose
    /// send was scheduled late, and by less than one `nic_proc`: the skew
    /// between a joiner's and a leader's path. Each queue pair's arrivals
    /// therefore follow its send order, which bounds both searches: a
    /// verb sent `max_flight` before `at` has arrived by then, and one
    /// sent at or after `natural` arrives later still.
    fn place(&mut self, at: Cycles, dst: u16, natural: Cycles) -> Cycles {
        let i = self.sent_by(at);
        let (before, after) = self.verbs.split_at(i);
        let fence = before
            .iter()
            .rev()
            .take_while(|v| v.at + self.max_flight > at)
            .find(|v| v.dst == dst)
            .map_or(Cycles::ZERO, |v| v.arrival);
        let cap = after
            .iter()
            .take_while(|v| v.at < natural)
            .find(|v| v.dst == dst)
            .map(|v| v.arrival);
        let arrival = cap.map_or(natural.max(fence), |c| natural.max(fence).min(c));
        self.verbs.insert(i, Sent { at, arrival, dst });
        self.max_flight = self.max_flight.max(arrival - at);
        if at > self.latest {
            self.latest = at;
            // Forget in bulk, so the shift is paid once per many sends.
            let forget = at.saturating_sub(LOG_HORIZON);
            if self.verbs.get(FORGET_BULK).is_some_and(|v| v.at <= forget) {
                let old = self.verbs.partition_point(|v| v.at <= forget);
                self.verbs.drain(..old);
            }
        }
        arrival
    }

    /// Verbs sent at or before `now` that arrive after it, counted up to
    /// `cap`. Only verbs sent within `max_flight` of `now` can count.
    fn in_flight(&self, now: Cycles, cap: usize) -> usize {
        self.verbs[..self.sent_by(now)]
            .iter()
            .rev()
            .take_while(|v| v.at + self.max_flight > now)
            .filter(|v| v.arrival > now)
            .take(cap)
            .count()
    }
}

/// Whole-run batching counters, surfaced as the `batching` block in the
/// run stats (absent when the subsystem is off).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches closed (each rang exactly one doorbell).
    pub flushes: u64,
    /// Verbs that led a batch (= doorbells rung).
    pub leaders: u64,
    /// Verbs that joined an open batch.
    pub joined: u64,
    /// Squash notifications coalesced onto an already-squashing batch.
    pub coalesced_squashes: u64,
    /// Verbs carried by closed batches, exactly (after
    /// [`Batcher::finish`] this telescopes to [`Self::verbs`]).
    pub carried: u64,
    /// Flush-size histogram: `occupancy[i]` batches closed carrying
    /// `i + 1` verbs (sizes past [`OCC_BUCKETS`] clamp into the last).
    pub occupancy: Vec<u64>,
    /// Largest batch closed.
    pub max_occupancy: u32,
    /// Joiner verbs whose receiver-side processing was amortized away.
    pub recv_amortized: u64,
    /// Receiver cycles saved by completion coalescing.
    pub recv_saved_cycles: u64,
}

impl BatchStats {
    fn new() -> Self {
        BatchStats {
            flushes: 0,
            leaders: 0,
            joined: 0,
            coalesced_squashes: 0,
            carried: 0,
            occupancy: vec![0; OCC_BUCKETS],
            max_occupancy: 0,
            recv_amortized: 0,
            recv_saved_cycles: 0,
        }
    }

    /// Total verbs routed through the batcher (piggybacks included).
    pub fn verbs(&self) -> u64 {
        self.leaders + self.joined + self.coalesced_squashes
    }

    /// Mean verbs per closed batch (zero when nothing flushed).
    pub fn mean_occupancy(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.carried as f64 / self.flushes as f64
        }
    }

    /// Exports the `batching` block. The occupancy histogram is trimmed
    /// to its highest non-empty bucket so the block stays compact.
    pub fn to_json(&self) -> Json {
        let hi = self
            .occupancy
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        Json::obj()
            .field("flushes", self.flushes)
            .field("leaders", self.leaders)
            .field("joined", self.joined)
            .field("coalesced_squashes", self.coalesced_squashes)
            .field("carried", self.carried)
            .field("mean_occupancy", self.mean_occupancy())
            .field("max_occupancy", self.max_occupancy as u64)
            .field(
                "occupancy",
                Json::Arr(
                    self.occupancy[..hi]
                        .iter()
                        .map(|&n| Json::UInt(n))
                        .collect(),
                ),
            )
            .field("recv_amortized", self.recv_amortized)
            .field("recv_saved_cycles", self.recv_saved_cycles)
            .build()
    }
}

/// How [`Batcher::schedule`] placed a verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchRole {
    /// The verb led a new batch (rang a doorbell).
    Led,
    /// The verb joined its queue pair's open batch.
    Joined,
    /// A squash notification piggybacked on an already-squashing batch.
    CoalescedSquash,
}

/// The sizes of the batches one scheduling call closed, older first:
/// none, one (full, superseded by a new leader, or a size-1 batch under
/// a drained target), or two (a new leader superseded an open batch and
/// a drained target closed the leader at once).
pub type Flushes = Inline<u32, 2>;

/// One scheduling decision: the verb's arrival time at the destination
/// NIC, its role, and the sizes of the batches this call closed.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    /// Arrival time at the destination NIC.
    pub arrival: Cycles,
    /// How the verb was placed.
    pub role: BatchRole,
    /// Every batch this call closed, each flush stamped at the
    /// scheduling instant.
    pub flushed: Flushes,
}

/// The batching subsystem: per-queue-pair buffers, per-sender send logs,
/// receive-side counters and whole-run stats.
///
/// # Examples
///
/// ```
/// use hades_net::batch::{BatchRole, Batcher, Doorbell};
/// use hades_sim::config::{BatchingParams, NetParams};
/// use hades_sim::ids::NodeId;
/// use hades_sim::time::Cycles;
/// use hades_telemetry::event::Verb;
///
/// let mut b = Batcher::new(BatchingParams::fixed(4), NetParams::default(), 2);
/// let (src, dst) = (NodeId(0), NodeId(1));
/// let s = b.schedule(Cycles::ZERO, src, dst, 64, Verb::Intend, Doorbell::Share);
/// assert_eq!(s.role, BatchRole::Led);
/// assert!(b.joins(Cycles::new(10), src, dst));
/// let s = b.schedule(Cycles::new(10), src, dst, 64, Verb::Intend, Doorbell::Share);
/// assert_eq!(s.role, BatchRole::Joined);
/// ```
#[derive(Debug, Clone)]
pub struct Batcher {
    params: BatchingParams,
    net: NetParams,
    nodes: usize,
    /// Queue-pair buffers, indexed `src * nodes + dst`.
    qps: Vec<QpBuffer>,
    /// Each sender's recent verbs.
    logs: Vec<SendLog>,
    stats: BatchStats,
}

impl Batcher {
    /// Creates a batcher for a cluster of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `params.enabled` is false (a disabled config must not
    /// construct the subsystem) or `max_batch` is zero.
    pub fn new(params: BatchingParams, net: NetParams, nodes: usize) -> Self {
        assert!(params.enabled, "constructing a disabled batcher");
        assert!(params.max_batch > 0, "max_batch must be at least 1");
        let initial_target = if params.adaptive { 1 } else { params.max_batch };
        Batcher {
            params,
            net,
            nodes,
            qps: vec![QpBuffer::new(initial_target); nodes * nodes],
            logs: vec![SendLog::default(); nodes],
            stats: BatchStats::new(),
        }
    }

    fn qi(&self, src: NodeId, dst: NodeId) -> usize {
        src.0 as usize * self.nodes + dst.0 as usize
    }

    /// The queue-pair buffer for `(src, dst)` (inspection/tests).
    pub fn qp(&self, src: NodeId, dst: NodeId) -> &QpBuffer {
        &self.qps[self.qi(src, dst)]
    }

    /// Whether a verb sent from `src` to `dst` at `now` with
    /// [`Doorbell::Share`] would ride the open batch instead of leading a
    /// new one. The issuing core asks this to pick its issue cost.
    pub fn joins(&self, now: Cycles, src: NodeId, dst: NodeId) -> bool {
        self.qp(src, dst).accepts(now)
    }

    /// Whole-run counters accumulated so far (open batches not yet
    /// flushed; see [`Self::finish`]).
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }

    fn close_qp(&mut self, qi: usize) -> u32 {
        let qp = &mut self.qps[qi];
        let size = qp.count + qp.piggybacked;
        qp.count = 0;
        qp.piggybacked = 0;
        qp.squashes = 0;
        self.stats.flushes += 1;
        self.stats.carried += size as u64;
        self.stats.occupancy[(size as usize).clamp(1, OCC_BUCKETS) - 1] += 1;
        self.stats.max_occupancy = self.stats.max_occupancy.max(size);
        size
    }

    /// Schedules one verb from `src` to `dst` sent at `now`; returns its
    /// arrival time, role, and the batches closed by this call.
    pub fn schedule(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        verb: Verb,
        doorbell: Doorbell,
    ) -> Scheduled {
        let qi = self.qi(src, dst);
        let wire = self.net.serialize(bytes) + self.net.one_way();
        let squash = verb == Verb::Squash;
        let mut flushed = Flushes::default();
        let (natural, role) = if doorbell == Doorbell::Share && self.qps[qi].accepts(now) {
            // Ride the open WQE chain: the receiver reaps the completion
            // in the leader's poll, skipping `nic_proc`.
            let qp = &mut self.qps[qi];
            qp.squashes += squash as u32;
            let role = if squash && qp.squashes > 1 {
                // The batch already carries a squash to this destination:
                // this notification rides the same WQE.
                qp.piggybacked += 1;
                self.stats.coalesced_squashes += 1;
                BatchRole::CoalescedSquash
            } else {
                qp.count += 1;
                self.stats.joined += 1;
                BatchRole::Joined
            };
            if qp.count >= qp.target {
                flushed.push(self.close_qp(qi));
            }
            self.stats.recv_amortized += 1;
            self.stats.recv_saved_cycles += self.net.nic_proc.get();
            (now + wire, role)
        } else {
            self.lead(now, src, qi, squash, &mut flushed);
            (now + wire + self.net.nic_proc, BatchRole::Led)
        };
        Scheduled {
            arrival: self.logs[src.0 as usize].place(now, dst.0, natural),
            role,
            flushed,
        }
    }

    /// Opens a new batch on queue pair `qi` with a leader sent at `now`:
    /// closes the previous batch and adapts the target to the sender's
    /// verbs in flight. Appends every batch this closed to `flushed`.
    fn lead(&mut self, now: Cycles, src: NodeId, qi: usize, squash: bool, flushed: &mut Flushes) {
        if self.qps[qi].count > 0 {
            flushed.push(self.close_qp(qi));
        }
        if self.params.adaptive {
            // Counted up to the high watermark: all the policy asks.
            let high = BatchingParams::HIGH_WATERMARK;
            let in_flight = self.logs[src.0 as usize].in_flight(now, high as usize) as u32;
            let qp = &mut self.qps[qi];
            if in_flight >= high {
                qp.target = qp.target.saturating_mul(2).min(self.params.max_batch);
            } else if in_flight <= BatchingParams::LOW_WATERMARK {
                qp.target = 1;
            }
        }
        let qp = &mut self.qps[qi];
        qp.count = 1;
        qp.squashes = squash as u32;
        qp.opened_at = now;
        qp.open_until = now + BatchingParams::COALESCE_WINDOW;
        self.stats.leaders += 1;
        if qp.count >= qp.target {
            // A drained target closes the batch immediately: idle
            // traffic flows one doorbell per verb, unbatched.
            flushed.push(self.close_qp(qi));
        }
    }

    /// Closes every still-open batch into the occupancy histogram and
    /// returns the final counters (run end).
    pub fn finish(&mut self) -> BatchStats {
        for qi in 0..self.qps.len() {
            if self.qps[qi].count > 0 {
                self.close_qp(qi);
            }
        }
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_sim::rng::SimRng;

    const N: usize = 4;

    fn batcher(params: BatchingParams) -> Batcher {
        Batcher::new(params, NetParams::default(), N)
    }

    fn sched(b: &mut Batcher, now: u64, src: u16, dst: u16) -> Scheduled {
        b.schedule(
            Cycles::new(now),
            NodeId(src),
            NodeId(dst),
            64,
            Verb::Intend,
            Doorbell::Share,
        )
    }

    /// The fabric's additive path: what the verb costs with no batcher.
    fn unbatched(now: u64, bytes: usize) -> Cycles {
        let p = NetParams::default();
        Cycles::new(now) + p.serialize(bytes) + p.one_way() + p.nic_proc
    }

    #[test]
    fn lone_verb_departs_at_once_and_flushes_immediately() {
        let mut b = batcher(BatchingParams::standard());
        let s = sched(&mut b, 100, 0, 1);
        assert_eq!(s.role, BatchRole::Led);
        // Adaptive target starts drained (1), so the batch closes at once.
        assert_eq!(s.flushed[..], [1]);
        assert_eq!(
            s.arrival,
            unbatched(100, 64),
            "no fabric-side doorbell charge"
        );
    }

    #[test]
    fn fixed_batches_join_until_full() {
        let mut b = batcher(BatchingParams::fixed(3));
        assert_eq!(sched(&mut b, 0, 0, 1).role, BatchRole::Led);
        let s = sched(&mut b, 0, 0, 1);
        assert_eq!(s.role, BatchRole::Joined);
        assert!(s.flushed.is_empty());
        let s = sched(&mut b, 0, 0, 1);
        assert_eq!(s.role, BatchRole::Joined);
        assert_eq!(s.flushed[..], [3], "third verb fills the batch");
        // The next verb leads a fresh batch.
        assert_eq!(sched(&mut b, 0, 0, 1).role, BatchRole::Led);
        assert_eq!(b.stats().leaders, 2);
        assert_eq!(b.stats().joined, 2);
    }

    #[test]
    fn joiners_are_fenced_behind_their_leader() {
        let mut b = batcher(BatchingParams::fixed(8));
        let lead = sched(&mut b, 0, 0, 1).arrival;
        // A joiner skips nic_proc but cannot overtake its chain's head.
        assert_eq!(sched(&mut b, 0, 0, 1).arrival, lead);
        let p = NetParams::default();
        let late = 1_000;
        let join = sched(&mut b, late, 0, 1).arrival;
        assert_eq!(join, Cycles::new(late) + p.serialize(64) + p.one_way());
        assert!(
            join < unbatched(late, 64),
            "a joiner beats the unbatched path"
        );
    }

    #[test]
    fn a_verb_never_joins_a_batch_led_after_it() {
        let mut b = batcher(BatchingParams::fixed(8));
        sched(&mut b, 1_000, 0, 1);
        assert!(!b.joins(Cycles::new(999), NodeId(0), NodeId(1)));
        let s = sched(&mut b, 500, 0, 1);
        assert_eq!(
            s.role,
            BatchRole::Led,
            "a verb sent earlier leads its own batch"
        );
        assert_eq!(s.flushed[..], [1], "and supersedes the later-opened batch");
        assert_eq!(
            s.arrival,
            unbatched(500, 64),
            "nothing queues it behind the future send"
        );
    }

    #[test]
    fn ring_forces_a_new_batch() {
        let mut b = batcher(BatchingParams::fixed(8));
        sched(&mut b, 0, 0, 1);
        assert!(b.joins(Cycles::new(10), NodeId(0), NodeId(1)));
        let s = b.schedule(
            Cycles::new(10),
            NodeId(0),
            NodeId(1),
            64,
            Verb::Read,
            Doorbell::Ring,
        );
        assert_eq!(s.role, BatchRole::Led);
        assert_eq!(s.flushed[..], [1]);
        assert_eq!(s.arrival, unbatched(10, 64));
    }

    #[test]
    fn coalesce_window_lapse_starts_a_new_batch() {
        let p = BatchingParams::fixed(8);
        let mut b = batcher(p);
        sched(&mut b, 0, 0, 1);
        let late = BatchingParams::COALESCE_WINDOW.get() + 1;
        let s = sched(&mut b, late, 0, 1);
        assert_eq!(s.role, BatchRole::Led, "window lapsed");
        assert_eq!(s.flushed[..], [1], "stale batch closed at size 1");
    }

    #[test]
    fn adaptive_target_grows_with_verbs_in_flight_and_drains_when_idle() {
        let p = BatchingParams::standard();
        let mut b = batcher(p);
        // Node 0 sends a verb every 10 cycles: several are on the wire at
        // once, so the target doubles toward max_batch.
        for i in 0..64 {
            sched(&mut b, i * 10, 0, 1);
        }
        assert_eq!(
            b.qp(NodeId(0), NodeId(1)).target(),
            p.max_batch,
            "target must reach max_batch under sustained load"
        );
        assert!(b.stats().joined > 0, "grown batches must accept joiners");
        assert!(b.stats().max_occupancy > 1);
        // Once every verb has landed the next leader sees nothing in
        // flight and the target collapses back to 1: the leader closes
        // the batch still open, then itself.
        let open = b.qp(NodeId(0), NodeId(1)).occupancy();
        assert!(open > 0, "the last batch is still open");
        let idle = 10_000_000;
        let s = sched(&mut b, idle, 0, 1);
        assert_eq!(s.role, BatchRole::Led);
        assert_eq!(
            s.flushed[..],
            [open, 1],
            "both flushes reported, older first; idle traffic flushes immediately"
        );
        assert_eq!(b.qp(NodeId(0), NodeId(1)).target(), 1, "drained on idle");
    }

    #[test]
    fn send_log_places_verbs_in_send_order_whatever_the_call_order() {
        let mut log = SendLog::default();
        let mut place = |at: u64, dst: u16, natural: u64| {
            log.place(Cycles::new(at), dst, Cycles::new(natural)).get()
        };
        // Called latest-first: a verb sent at 9_000 is not in flight at 100.
        place(9_000, 1, 11_000);
        place(0, 1, 2_000);
        place(50, 1, 2_050);
        // Fenced behind the verb sent before it on its queue pair...
        assert_eq!(place(60, 1, 2_020), 2_050);
        // ...but not behind another destination's.
        assert_eq!(place(70, 2, 2_030), 2_030);
        // Capped by a verb sent after it and scheduled first.
        assert_eq!(place(8_990, 1, 11_040), 11_000);
        let at = |t: u64| log.in_flight(Cycles::new(t), usize::MAX);
        assert_eq!(at(100), 4);
        assert_eq!(at(2_040), 2, "the two verbs landing at 2050");
        assert_eq!(at(5_000), 0);
        assert_eq!(at(9_000), 2);
        assert_eq!(
            log.in_flight(Cycles::new(100), 2),
            2,
            "counted up to the cap"
        );
        // Long after, old verbs are forgotten in bulk.
        for i in 0..FORGET_BULK as u64 {
            log.place(Cycles::new(10_000 + i), 1, Cycles::new(12_000 + i));
        }
        log.place(Cycles::new(3_000_000), 1, Cycles::new(3_002_000));
        assert_eq!(log.verbs.len(), 1, "old verbs forgotten");
        assert_eq!(log.in_flight(Cycles::new(3_000_000), usize::MAX), 1);
    }

    #[test]
    fn arrivals_are_fifo_per_queue_pair() {
        // Sends called out of time order still arrive in send order.
        let mut b = batcher(BatchingParams::standard());
        let mut verbs: Vec<(u64, Cycles)> = (0..500u64)
            .map(|i| {
                let now = (i * 37) % 1_000 + i / 10 * 400;
                (now, sched(&mut b, now, 0, 1).arrival)
            })
            .collect();
        assert!(b.stats().joined > 0, "the burst must coalesce");
        verbs.sort();
        for w in verbs.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "FIFO violated: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn a_batched_verb_never_arrives_later_than_unbatched() {
        // Property over random same-size traffic: no batched verb
        // arrives later than it would unbatched. Called in time order a
        // leader arrives exactly on the unbatched path; a late-scheduled
        // leader may land a little early to keep its queue pair FIFO.
        for seed in 0..20 {
            let mut rng = SimRng::seed_from(seed);
            let params = if seed % 2 == 0 {
                BatchingParams::standard()
            } else {
                BatchingParams::fixed(1 + (seed as u32 % 8))
            };
            let mut sends: Vec<(u64, u16, u16, Verb)> = (0..400)
                .map(|_| {
                    let src = rng.below(N as u64) as u16;
                    let dst = (src + 1 + rng.below(N as u64 - 1) as u16) % N as u16;
                    let verb = if rng.chance(0.25) {
                        Verb::Squash
                    } else {
                        Verb::Read
                    };
                    (rng.below(50_000), src, dst, verb)
                })
                .collect();
            for in_order in [false, true] {
                if in_order {
                    sends.sort_by_key(|s| s.0);
                }
                let mut b = batcher(params);
                for &(now, src, dst, verb) in &sends {
                    let s = b.schedule(
                        Cycles::new(now),
                        NodeId(src),
                        NodeId(dst),
                        64,
                        verb,
                        Doorbell::Share,
                    );
                    let solo = unbatched(now, 64);
                    assert!(s.arrival <= solo, "seed {seed}: {:?} arrived late", s.role);
                    if in_order && s.role == BatchRole::Led {
                        assert_eq!(s.arrival, solo, "seed {seed}: leader off its path");
                    }
                }
                let stats = b.finish();
                assert_eq!(stats.verbs(), stats.carried, "seed {seed}");
            }
        }
    }

    #[test]
    fn queue_pairs_are_independent() {
        let mut b = batcher(BatchingParams::fixed(4));
        sched(&mut b, 0, 0, 1);
        sched(&mut b, 0, 2, 3);
        assert_eq!(b.qp(NodeId(0), NodeId(1)).occupancy(), 1);
        assert_eq!(b.qp(NodeId(2), NodeId(3)).occupancy(), 1);
        assert_eq!(b.qp(NodeId(0), NodeId(3)).occupancy(), 0);
        assert_eq!(b.stats().leaders, 2, "distinct QPs ring distinct bells");
    }

    fn send(b: &mut Batcher, verb: Verb) -> Scheduled {
        b.schedule(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            verb,
            Doorbell::Share,
        )
    }

    #[test]
    fn squashes_coalesce_onto_an_open_squashing_batch() {
        let mut b = batcher(BatchingParams::fixed(8));
        let lead = send(&mut b, Verb::Squash);
        assert_eq!(lead.role, BatchRole::Led);
        let s = send(&mut b, Verb::Squash);
        assert_eq!(s.role, BatchRole::CoalescedSquash);
        assert!(s.arrival >= lead.arrival, "fence holds for piggybacks");
        assert_eq!(b.stats().coalesced_squashes, 1);
        // A non-squash verb still joins normally.
        assert_eq!(send(&mut b, Verb::Intend).role, BatchRole::Joined);
        // Flush size counts the piggyback.
        let stats = b.finish();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.max_occupancy, 3);
    }

    #[test]
    fn finish_closes_open_batches_into_the_histogram() {
        let mut b = batcher(BatchingParams::fixed(8));
        for _ in 0..3 {
            sched(&mut b, 0, 0, 1);
        }
        assert_eq!(b.stats().flushes, 0, "batch still open");
        let stats = b.finish();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.occupancy[2], 1, "one batch of size 3");
        assert_eq!(stats.verbs(), 3);
        assert!((stats.mean_occupancy() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recv_side_amortizes_joiner_processing() {
        let mut b = batcher(BatchingParams::fixed(4));
        sched(&mut b, 0, 0, 1);
        sched(&mut b, 0, 0, 1);
        sched(&mut b, 0, 0, 1);
        assert_eq!(b.stats().recv_amortized, 2);
        assert_eq!(
            b.stats().recv_saved_cycles,
            2 * NetParams::default().nic_proc.get()
        );
    }

    #[test]
    fn stats_json_shape() {
        let mut b = batcher(BatchingParams::fixed(2));
        for _ in 0..4 {
            sched(&mut b, 0, 0, 1);
        }
        let doc = b.finish().to_json();
        assert_eq!(doc.get("flushes").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("leaders").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("joined").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("max_occupancy").unwrap().as_u64(), Some(2));
        let occ = doc.get("occupancy").unwrap().as_arr().unwrap();
        assert_eq!(occ.len(), 2, "histogram trimmed to the top bucket");
    }

    #[test]
    #[should_panic(expected = "disabled batcher")]
    fn disabled_params_cannot_construct() {
        let _ = batcher(BatchingParams::default());
    }
}
