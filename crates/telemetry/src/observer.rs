//! The transaction observer: the one per-slot state machine behind the
//! phase profile and the span log.
//!
//! [`TxnObserver`] follows every slot's current transaction from its
//! first start to its commit, retries included, as a [`TxnSpan`] under
//! construction: phase segments, handshake verb rounds and aborts. A
//! recorded commit feeds whichever outputs are enabled: the segments'
//! per-phase cycles fold into the [`PhaseProfile`], and the span itself
//! is retained in the [`SpanLog`] (up to [`SPAN_RETAIN_CAP`]). Both
//! outputs see the same intervals, charged once.
//!
//! Charging is mark-monotonic: a transition charges `now − mark` to the
//! phase being left and never moves the mark backward. Engines sometimes
//! open a phase at a core-time cursor ahead of the event clock (commit
//! distribution); a squash delivered in between must not re-charge the
//! interval already attributed to the open phase. Per transaction the
//! charges telescope exactly to `first_start → commit`.

use crate::event::Verb;
use crate::profile::{PhaseProfile, ProfPhase};
use crate::span::{phase_cycles, AbortSpan, Segment, SpanLog, TxnSpan, VerbRound, SPAN_RETAIN_CAP};
use hades_sim::time::Cycles;

/// Recording state for the transaction currently attributed in one slot.
#[derive(Debug, Clone, Default)]
struct SlotState {
    /// Whether a transaction is being attributed in this slot.
    active: bool,
    /// The transaction so far. Its `end` is the mark (where the open
    /// phase began) and `attempts` the current attempt.
    txn: TxnSpan,
    /// The currently open phase.
    phase: ProfPhase,
    /// Rounds awaiting their last response: (verb, peers, send time).
    open_rounds: Vec<(Verb, u32, Cycles)>,
    /// The peer named by [`TxnObserver::abort_source`], consumed by the
    /// next abort.
    pending_by: Option<u16>,
}

impl SlotState {
    /// Closes the open phase at `max(mark, now)`, appending (and
    /// coalescing) its segment.
    fn close_phase(&mut self, now: Cycles) {
        let t = &mut self.txn;
        let (mark, end) = (t.end, t.end.max(now));
        if end > mark {
            match t.segments.last_mut() {
                Some(last) if last.phase == self.phase && last.end == mark => last.end = end,
                _ => t.segments.push(Segment {
                    phase: self.phase,
                    start: mark,
                    end,
                }),
            }
        }
        t.end = end;
    }

    /// Closes the open verb rounds at `now` (never before their send).
    fn close_rounds(&mut self, now: Cycles) {
        let attempt = self.txn.attempts;
        for (verb, peers, start) in self.open_rounds.drain(..) {
            let end = start.max(now);
            self.txn.rounds.push(VerbRound {
                verb,
                peers,
                attempt,
                start,
                end,
            });
        }
    }
}

/// Per-slot transaction state machines feeding the optional phase
/// profile and span log.
#[derive(Debug, Clone)]
pub struct TxnObserver {
    slots: Vec<SlotState>,
    profile: Option<PhaseProfile>,
    spans: Option<SpanLog>,
}

impl TxnObserver {
    /// Creates an observer for a cluster with `total_slots` slots,
    /// producing a phase profile when `profile` is set and a span log
    /// when `spans` is set.
    pub fn new(total_slots: usize, profile: bool, spans: bool) -> Self {
        TxnObserver {
            slots: vec![SlotState::default(); total_slots],
            profile: profile.then(PhaseProfile::default),
            spans: spans.then(SpanLog::default),
        }
    }

    /// A fresh transaction starts in slot `si` (slot `slot` of `node`):
    /// attribution begins at `now` in [`ProfPhase::Exec`]. The slot's
    /// buffers are cleared and keep their capacity.
    pub fn slot_start(&mut self, si: usize, node: u16, slot: u32, now: Cycles) {
        let s = &mut self.slots[si];
        s.active = true;
        s.phase = ProfPhase::Exec;
        s.open_rounds.clear();
        s.pending_by = None;
        let t = &mut s.txn;
        (t.node, t.slot, t.start, t.end, t.attempts) = (node, slot, now, now, 1);
        t.segments.clear();
        t.rounds.clear();
        t.aborts.clear();
    }

    /// The slot's transaction moves to `phase` at `now`; the interval
    /// since the last transition is charged to the previous phase.
    /// Re-entering the open phase just accumulates. Ignored while no
    /// transaction is active (e.g. warmup carry-over).
    pub fn slot_enter(&mut self, si: usize, phase: ProfPhase, now: Cycles) {
        let s = &mut self.slots[si];
        if s.active {
            s.close_phase(now);
            s.phase = phase;
        }
    }

    /// A request-verb fan-out to `peers` participants left at `now`; the
    /// round stays open until [`Self::round_end`] or a cutting
    /// abort/commit.
    pub fn round_begin(&mut self, si: usize, verb: Verb, peers: u32, now: Cycles) {
        let s = &mut self.slots[si];
        if s.active && peers > 0 {
            s.open_rounds.push((verb, peers, now));
        }
    }

    /// The last outstanding response of the slot's open round(s) arrived
    /// at `now`.
    pub fn round_end(&mut self, si: usize, now: Cycles) {
        let s = &mut self.slots[si];
        if s.active {
            s.close_rounds(now);
        }
    }

    /// Names the peer whose conflict check is about to squash the slot's
    /// transaction; consumed by the next [`Self::slot_abort`].
    pub fn abort_source(&mut self, si: usize, by: u16) {
        let s = &mut self.slots[si];
        if s.active {
            s.pending_by = Some(by);
        }
    }

    /// The slot's attempt was squashed at `now` for `reason`: open rounds
    /// are cut, the phase moves to backoff, and the abort is recorded
    /// (with the pending squash source, if one was named).
    pub fn slot_abort(&mut self, si: usize, reason: &'static str, now: Cycles) {
        let s = &mut self.slots[si];
        if !s.active {
            return;
        }
        s.close_rounds(now);
        s.close_phase(now);
        s.phase = ProfPhase::Backoff;
        s.txn.aborts.push(AbortSpan {
            reason,
            at: now,
            attempt: s.txn.attempts,
            by: s.pending_by.take(),
        });
        s.txn.attempts += 1;
    }

    /// The slot's transaction committed at `now`. When `record` is true
    /// (the run is in its measurement window) the profile folds its
    /// per-phase cycles and the span log retains it; either way the slot
    /// returns to idle.
    pub fn slot_commit(&mut self, si: usize, now: Cycles, record: bool) {
        let s = &mut self.slots[si];
        if !s.active {
            return;
        }
        s.close_rounds(now);
        s.close_phase(now);
        s.active = false;
        if !record {
            return;
        }
        if let Some(p) = self.profile.as_mut() {
            p.txns += 1;
            for (i, &cycles) in phase_cycles(&s.txn.segments).iter().enumerate() {
                p.phase_total[i] += cycles;
                p.phase_hist[i].record(Cycles::new(cycles));
            }
        }
        if let Some(log) = self.spans.as_mut() {
            if log.txns.len() < SPAN_RETAIN_CAP {
                log.txns.push(std::mem::take(&mut s.txn));
            } else {
                log.dropped += 1;
            }
        }
    }

    /// Charges one fabric message's flight time to its verb (profile
    /// only).
    pub fn record_verb(&mut self, verb: Verb, flight: Cycles) {
        if let Some(p) = self.profile.as_mut() {
            p.verb_msgs[verb.index()] += 1;
            p.verb_cycles[verb.index()] += flight.get();
        }
    }

    /// Detaches the results: the phase profile and the span log, each
    /// `Some` when it was enabled.
    pub fn finish(self) -> (Option<PhaseProfile>, Option<SpanLog>) {
        (self.profile, self.spans)
    }
}
