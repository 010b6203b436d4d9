//! Causal transaction spans: per-transaction time-resolved attribution.
//!
//! [`SpanLog`] is the record-keeping half of the tail-attribution layer
//! (enabled with `SimConfig::with_spans()`). Where the phase profile
//! ([`crate::profile::PhaseProfile`]) folds every committed transaction
//! into six aggregate buckets, the span log keeps the *individual*
//! transactions: an ordered segment list per phase transition, each
//! handshake verb round's send→last-response interval, and every abort
//! with its reason and (when known) the squashing peer.
//!
//! Both are outputs of the one per-slot state machine in
//! [`crate::observer::TxnObserver`], so the profile's sum-exactness
//! invariant holds per transaction: a [`TxnSpan`]'s segments telescope
//! exactly (to the cycle) to its `first_start → commit` latency (tested
//! in `tests/span_invariants.rs`).
//!
//! The critical-path analyzer on top reconstructs the top-K slowest
//! committed and most-retried transactions, names the dominant
//! contributor, and exports a `tail` JSON block plus per-transaction
//! Chrome tracks (see [`crate::chrome::span_chrome_trace`]).
//!
//! Disabled (the default), none of this exists: no RNG draws, no trace
//! events, no stats bytes.

use crate::event::Verb;
use crate::json::Json;
use crate::profile::ProfPhase;
use hades_sim::time::Cycles;

/// Schema tag stamped into the `tail` JSON block.
pub const SPAN_SCHEMA: &str = "hades-tail/v1";

/// Retained committed transactions are capped (deterministically, in
/// commit order) so pathological runs cannot exhaust memory; overflow is
/// counted in [`SpanLog::dropped`].
pub const SPAN_RETAIN_CAP: usize = 65_536;

/// One contiguous interval a transaction spent in a single phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The phase the interval is charged to.
    pub phase: ProfPhase,
    /// Interval start (simulated time).
    pub start: Cycles,
    /// Interval end; always `>= start`.
    pub end: Cycles,
}

impl Segment {
    /// Cycles covered by this segment.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start).get()
    }
}

/// One handshake round: a request-verb fan-out and the wait until its
/// last response (Lock→LockResp, Validate→ValidateResp, Intend→Ack,
/// ReplicaPrepare→ReplicaAck). Rounds cut short by an abort or commit
/// end at that instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbRound {
    /// The request verb that opened the round.
    pub verb: Verb,
    /// Peers the request fanned out to.
    pub peers: u32,
    /// 1-based attempt the round belongs to.
    pub attempt: u32,
    /// Send time of the first request.
    pub start: Cycles,
    /// Arrival of the last response (or the cutting abort/commit).
    pub end: Cycles,
}

/// One squashed attempt: why, when, and (for squashes initiated by a
/// remote conflict check) by whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortSpan {
    /// Stable abort-reason label (e.g. `"wrtx-conflict"`).
    pub reason: &'static str,
    /// Simulated time of the squash.
    pub at: Cycles,
    /// 1-based attempt number that died.
    pub attempt: u32,
    /// The node whose conflict check squashed us, when attributable.
    pub by: Option<u16>,
}

/// The full causal record of one committed transaction: every attempt's
/// phase segments, verb rounds, and aborts, from the first start to the
/// final commit.
#[derive(Debug, Clone, Default)]
pub struct TxnSpan {
    /// Coordinator node.
    pub node: u16,
    /// Execution-slot index on that node's cluster-global numbering.
    pub slot: u32,
    /// First attempt's start.
    pub start: Cycles,
    /// Commit instant; segments tile `[start, end]` exactly.
    pub end: Cycles,
    /// Attempts taken (1 = committed first try).
    pub attempts: u32,
    /// Phase segments in time order, contiguous and non-overlapping.
    pub segments: Vec<Segment>,
    /// Completed verb rounds in open order.
    pub rounds: Vec<VerbRound>,
    /// Squashed attempts in time order.
    pub aborts: Vec<AbortSpan>,
}

impl TxnSpan {
    /// End-to-end latency: first start to commit, all attempts included.
    pub fn latency(&self) -> Cycles {
        self.end.saturating_sub(self.start)
    }

    /// Total cycles per phase over all segments.
    pub fn phase_cycles(&self) -> [u64; ProfPhase::COUNT] {
        phase_cycles(&self.segments)
    }

    /// The phase this transaction spent the most time in (ties resolve
    /// to the earlier lifecycle phase).
    pub fn dominant(&self) -> ProfPhase {
        dominant(&self.phase_cycles())
    }

    fn to_json(&self) -> Json {
        let rounds = Json::Arr(
            self.rounds
                .iter()
                .map(|r| {
                    Json::obj()
                        .field("verb", Json::str(r.verb.label()))
                        .field("peers", u64::from(r.peers))
                        .field("attempt", u64::from(r.attempt))
                        .field("start", r.start.get())
                        .field("end", r.end.get())
                        .build()
                })
                .collect(),
        );
        let aborts = Json::Arr(
            self.aborts
                .iter()
                .map(|a| {
                    Json::obj()
                        .field("reason", Json::str(a.reason))
                        .field("at", a.at.get())
                        .field("attempt", u64::from(a.attempt))
                        .field("by", a.by.map_or(Json::Null, |n| Json::UInt(u64::from(n))))
                        .build()
                })
                .collect(),
        );
        Json::obj()
            .field("node", u64::from(self.node))
            .field("slot", u64::from(self.slot))
            .field("start", self.start.get())
            .field("latency", self.latency().get())
            .field("attempts", u64::from(self.attempts))
            .field("dominant", Json::str(self.dominant().label()))
            .field("phases", phases_json(&self.phase_cycles()))
            .field("rounds", rounds)
            .field("aborts", aborts)
            .build()
    }
}

/// Total cycles per phase over `segments`.
pub(crate) fn phase_cycles(segments: &[Segment]) -> [u64; ProfPhase::COUNT] {
    let mut acc = [0u64; ProfPhase::COUNT];
    for seg in segments {
        acc[seg.phase.index()] += seg.cycles();
    }
    acc
}

/// The phase with the most cycles in `acc`; ties resolve to the earlier
/// lifecycle phase.
fn dominant(acc: &[u64; ProfPhase::COUNT]) -> ProfPhase {
    let mut best = ProfPhase::Exec;
    for p in ProfPhase::ALL {
        if acc[p.index()] > acc[best.index()] {
            best = p;
        }
    }
    best
}

/// The six-phase `{name: cycles}` object, in lifecycle order.
fn phases_json(acc: &[u64; ProfPhase::COUNT]) -> Json {
    Json::Obj(
        ProfPhase::ALL
            .iter()
            .map(|&p| (p.label().to_string(), Json::UInt(acc[p.index()])))
            .collect(),
    )
}

/// The span log's results: a capped list of committed [`TxnSpan`]s
/// (retained by [`crate::observer::TxnObserver`]), plus the
/// critical-path analyzer over them.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    pub(crate) txns: Vec<TxnSpan>,
    pub(crate) dropped: u64,
}

impl SpanLog {
    /// Committed transactions retained.
    pub fn recorded(&self) -> u64 {
        self.txns.len() as u64
    }

    /// Committed transactions dropped past the retention cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every retained transaction, in commit order.
    pub fn txns(&self) -> &[TxnSpan] {
        &self.txns
    }

    fn ranked<F: Fn(&TxnSpan) -> (u64, u64)>(&self, k: usize, key: F) -> Vec<&TxnSpan> {
        let mut v: Vec<&TxnSpan> = self.txns.iter().collect();
        // Deterministic total order: primary key descending, then start,
        // node, slot ascending (unique per retained transaction).
        v.sort_by(|a, b| {
            key(b)
                .cmp(&key(a))
                .then(a.start.cmp(&b.start))
                .then(a.node.cmp(&b.node))
                .then(a.slot.cmp(&b.slot))
        });
        v.truncate(k);
        v
    }

    /// The `k` slowest committed transactions, slowest first.
    pub fn top_slowest(&self, k: usize) -> Vec<&TxnSpan> {
        self.ranked(k, |t| (t.latency().get(), u64::from(t.attempts)))
    }

    /// The `k` most-retried committed transactions, most attempts first.
    pub fn top_retried(&self, k: usize) -> Vec<&TxnSpan> {
        self.ranked(k, |t| (u64::from(t.attempts), t.latency().get()))
    }

    /// Phase totals over the `k` slowest transactions.
    pub fn tail_phase_cycles(&self, k: usize) -> [u64; ProfPhase::COUNT] {
        let mut acc = [0u64; ProfPhase::COUNT];
        for t in self.top_slowest(k) {
            let pc = t.phase_cycles();
            for (a, c) in acc.iter_mut().zip(pc.iter()) {
                *a += c;
            }
        }
        acc
    }

    /// The dominant critical-path contributor of the `k` slowest
    /// committed transactions, or `None` if nothing was recorded.
    pub fn dominant(&self, k: usize) -> Option<ProfPhase> {
        if self.txns.is_empty() {
            return None;
        }
        Some(dominant(&self.tail_phase_cycles(k)))
    }

    /// Exports the `tail` block: schema tag, counts, the dominant
    /// contributor, phase totals over the top-`k` slowest, and the
    /// top-`k` slowest / most-retried transactions in full.
    pub fn tail_json(&self, k: usize) -> Json {
        Json::obj()
            .field("schema", Json::str(SPAN_SCHEMA))
            .field("txns", self.recorded())
            .field("dropped", self.dropped())
            .field("k", k as u64)
            .field(
                "dominant",
                self.dominant(k)
                    .map_or(Json::Null, |p| Json::str(p.label())),
            )
            .field("phases", phases_json(&self.tail_phase_cycles(k)))
            .field(
                "slowest",
                Json::Arr(self.top_slowest(k).iter().map(|t| t.to_json()).collect()),
            )
            .field(
                "most_retried",
                Json::Arr(self.top_retried(k).iter().map(|t| t.to_json()).collect()),
            )
            .build()
    }
}
