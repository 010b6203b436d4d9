//! The transaction observer (DESIGN.md §12–§13): one per-slot state
//! machine feeds both the phase profile and the span log.
//!
//! 1. End to end, with profiling and spans on together, both outputs
//!    account for the same committed transactions and the same cycles,
//!    for all three engines.
//! 2. The state machine itself: full-interval attribution, re-entering
//!    the open phase, backward transitions, idle and unrecorded slots,
//!    verb rounds cut by commit, the abort source, the retention cap,
//!    and deterministic ranking.

use hades::core::runner::{Experiment, Protocol, Run};
use hades::sim::config::SimConfig;
use hades::sim::time::Cycles;
use hades::telemetry::event::{EventKind, Verb};
use hades::telemetry::observer::TxnObserver;
use hades::telemetry::profile::{PhaseProfile, ProfPhase};
use hades::telemetry::sink::Tracer;
use hades::telemetry::span::{SpanLog, TxnSpan, SPAN_RETAIN_CAP};
use hades::workloads::catalog::AppId;

fn cy(n: u64) -> Cycles {
    Cycles::new(n)
}

/// Both outputs enabled, over `slots` slots.
fn observer(slots: usize) -> TxnObserver {
    TxnObserver::new(slots, true, true)
}

fn results(obs: TxnObserver) -> (PhaseProfile, SpanLog) {
    let (profile, spans) = obs.finish();
    (profile.expect("profile on"), spans.expect("spans on"))
}

fn segment_sum(t: &TxnSpan) -> u64 {
    t.segments.iter().map(|s| s.cycles()).sum()
}

#[test]
fn profile_and_spans_agree_for_every_engine() {
    for app in ["TATP", "HT-wA"] {
        let app = AppId::parse(app).unwrap();
        for protocol in Protocol::ALL {
            let ex = Experiment {
                cfg: SimConfig::isca_default().with_profiling().with_spans(),
                ..Experiment::quick()
            };
            let (tracer, sink) = Tracer::memory();
            let stats = Run::apps(protocol, &ex, &[app]).tracer(tracer).run().stats;
            let profile = stats.profile.as_ref().expect("profile block");
            let spans = stats.spans.as_ref().expect("span log");
            assert_eq!(spans.dropped(), 0, "{protocol}: spans dropped");
            assert_eq!(profile.txns(), stats.committed, "{protocol}: profile txns");
            assert_eq!(spans.recorded(), stats.committed, "{protocol}: spans");
            for phase in ProfPhase::ALL {
                let from_spans: u64 = spans
                    .txns()
                    .iter()
                    .map(|t| t.phase_cycles()[phase.index()])
                    .sum();
                assert_eq!(
                    profile.phase_cycles(phase),
                    from_spans,
                    "{protocol}: {} total disagrees with the spans",
                    phase.label()
                );
            }
            assert_eq!(
                u128::from(profile.total_cycles()),
                stats.latency.sum(),
                "{protocol}: phases must telescope to the committed latency"
            );
            assert!(profile.phase_cycles(ProfPhase::Exec) > 0, "{protocol}");
            // The squashes counted are those traced inside the window:
            // after the commit that ends the warmup, up to the last
            // measured commit.
            let events = sink.borrow_mut().take_events();
            let mut commits = 0;
            let mut aborts = 0;
            for ev in &events {
                match ev.kind {
                    EventKind::TxnCommit => commits += 1,
                    EventKind::TxnAbort { .. } if commits >= ex.warmup => aborts += 1,
                    _ => {}
                }
                if commits == ex.warmup + ex.measure {
                    break;
                }
            }
            assert_eq!(stats.squashes, aborts, "{protocol}: squashes in the window");
            if protocol != Protocol::Baseline {
                assert!(
                    profile.verb_msgs(Verb::Intend) > 0,
                    "{protocol}: no Intends"
                );
            }
        }
    }
}

#[test]
fn attribution_splits_the_full_interval() {
    let mut obs = observer(2);
    obs.slot_start(0, 3, 7, cy(100));
    obs.slot_enter(0, ProfPhase::Lock, cy(160));
    obs.slot_enter(0, ProfPhase::Commit, cy(200));
    obs.slot_abort(0, "record-lock-busy", cy(230));
    obs.slot_enter(0, ProfPhase::Exec, cy(260));
    obs.slot_enter(0, ProfPhase::Commit, cy(300));
    obs.slot_commit(0, cy(340), true);
    let (profile, spans) = results(obs);
    assert_eq!(profile.txns(), 1);
    assert_eq!(profile.phase_cycles(ProfPhase::Exec), 60 + 40);
    assert_eq!(profile.phase_cycles(ProfPhase::Lock), 40);
    assert_eq!(profile.phase_cycles(ProfPhase::Commit), 30 + 40);
    assert_eq!(profile.phase_cycles(ProfPhase::Backoff), 30);
    // Sum exactness: everything between start (100) and commit (340).
    assert_eq!(profile.total_cycles(), 240);
    let t = &spans.txns()[0];
    assert_eq!((t.node, t.slot, t.attempts), (3, 7, 2));
    assert_eq!(t.latency().get(), 240);
    assert_eq!(segment_sum(t), 240);
    // Contiguity: each segment starts where the previous ended.
    for w in t.segments.windows(2) {
        assert_eq!(w[0].end, w[1].start);
    }
    assert_eq!(t.segments.first().unwrap().start, cy(100));
    assert_eq!(t.segments.last().unwrap().end, cy(340));
    assert_eq!(t.aborts.len(), 1);
    assert_eq!((t.aborts[0].attempt, t.aborts[0].by), (1, None));
}

#[test]
fn reentering_open_phase_accumulates() {
    let mut obs = observer(1);
    obs.slot_start(0, 0, 0, cy(0));
    obs.slot_enter(0, ProfPhase::Commit, cy(10));
    obs.slot_enter(0, ProfPhase::Commit, cy(25));
    obs.slot_commit(0, cy(40), true);
    let (profile, spans) = results(obs);
    assert_eq!(profile.phase_cycles(ProfPhase::Exec), 10);
    assert_eq!(profile.phase_cycles(ProfPhase::Commit), 30);
    assert_eq!(profile.total_cycles(), 40);
    // The re-entered phase coalesces into one segment.
    assert_eq!(spans.txns()[0].segments.len(), 2);
}

#[test]
fn backward_transition_never_double_charges() {
    // A phase opened at a future core-time cursor followed by a squash
    // at an earlier event time: the overlap stays charged to the open
    // phase once, and the total still telescopes exactly.
    let mut obs = observer(1);
    obs.slot_start(0, 0, 0, cy(0));
    obs.slot_enter(0, ProfPhase::Commit, cy(100)); // cursor ahead
    obs.slot_abort(0, "wrtx-conflict", cy(70)); // squash behind
    obs.slot_enter(0, ProfPhase::Exec, cy(130)); // retry
    obs.slot_commit(0, cy(150), true);
    let (profile, spans) = results(obs);
    assert_eq!(profile.phase_cycles(ProfPhase::Exec), 100 + 20);
    assert_eq!(profile.phase_cycles(ProfPhase::Backoff), 30);
    assert_eq!(profile.total_cycles(), 150);
    assert_eq!(segment_sum(&spans.txns()[0]), 150);
}

#[test]
fn idle_and_unrecorded_slots_leave_no_trace() {
    let mut obs = observer(1);
    // Transitions on an idle slot are ignored.
    obs.slot_enter(0, ProfPhase::Commit, cy(10));
    obs.round_begin(0, Verb::Intend, 2, cy(12));
    obs.slot_abort(0, "x", cy(20));
    obs.slot_commit(0, cy(30), true);
    // Warmup transaction: flushed but not recorded.
    obs.slot_start(0, 0, 0, cy(40));
    obs.slot_enter(0, ProfPhase::Commit, cy(45));
    obs.slot_commit(0, cy(50), false);
    // After the unrecorded commit the slot is idle again.
    obs.slot_enter(0, ProfPhase::Lock, cy(60));
    obs.slot_commit(0, cy(70), true);
    let (profile, spans) = results(obs);
    assert_eq!(profile.txns(), 0);
    assert_eq!(profile.total_cycles(), 0);
    assert_eq!(spans.recorded(), 0);
    assert_eq!(spans.dropped(), 0);
}

#[test]
fn rounds_cut_by_commit_and_abort_sources_are_recorded() {
    let mut obs = observer(1);
    obs.slot_start(0, 1, 0, cy(0));
    obs.round_begin(0, Verb::Intend, 2, cy(50));
    obs.round_end(0, cy(90));
    // An empty fan-out opens no round.
    obs.round_begin(0, Verb::ReplicaPrepare, 0, cy(91));
    obs.abort_source(0, 9);
    obs.slot_abort(0, "lazy-conflict", cy(95));
    obs.slot_enter(0, ProfPhase::Exec, cy(120));
    obs.round_begin(0, Verb::Intend, 2, cy(150));
    // A second abort without a named source.
    obs.slot_abort(0, "lock-failed", cy(160));
    obs.slot_enter(0, ProfPhase::Exec, cy(170));
    obs.round_begin(0, Verb::Intend, 3, cy(175));
    // Commit cuts the still-open round.
    obs.slot_commit(0, cy(180), true);
    let (_, spans) = results(obs);
    let t = &spans.txns()[0];
    assert_eq!(t.rounds.len(), 3);
    assert_eq!(t.rounds[0].verb, Verb::Intend);
    assert_eq!((t.rounds[0].attempt, t.rounds[0].end), (1, cy(90)));
    // The abort cut attempt 2's round at the squash.
    assert_eq!((t.rounds[1].attempt, t.rounds[1].end), (2, cy(160)));
    assert_eq!((t.rounds[2].attempt, t.rounds[2].peers), (3, 3));
    assert_eq!(t.rounds[2].end, cy(180));
    assert_eq!(t.aborts[0].by, Some(9));
    assert_eq!(t.aborts[1].by, None, "a source is consumed by one abort");
    assert_eq!(t.attempts, 3);
}

#[test]
fn profile_folds_every_commit_past_the_span_cap() {
    let mut obs = observer(1);
    let n = SPAN_RETAIN_CAP as u64 + 2;
    for i in 0..n {
        obs.slot_start(0, 0, 0, cy(10 * i));
        obs.slot_commit(0, cy(10 * i + 10), true);
    }
    let (profile, spans) = results(obs);
    assert_eq!(profile.txns(), n);
    assert_eq!(profile.total_cycles(), 10 * n);
    assert_eq!(spans.recorded(), SPAN_RETAIN_CAP as u64);
    assert_eq!(spans.dropped(), 2);
}

#[test]
fn outputs_are_independent() {
    // Profile only: verbs are charged, no spans exist.
    let mut obs = TxnObserver::new(1, true, false);
    obs.record_verb(Verb::Intend, cy(2_000));
    obs.slot_start(0, 0, 0, cy(0));
    obs.slot_commit(0, cy(100), true);
    let (profile, spans) = obs.finish();
    assert!(spans.is_none());
    assert_eq!(profile.expect("profile on").txns(), 1);
    // Spans only: verbs are not charged anywhere.
    let mut obs = TxnObserver::new(1, false, true);
    obs.record_verb(Verb::Intend, cy(2_000));
    obs.slot_start(0, 0, 0, cy(0));
    obs.slot_commit(0, cy(100), true);
    let (profile, spans) = obs.finish();
    assert!(profile.is_none());
    assert_eq!(spans.expect("spans on").recorded(), 1);
}

#[test]
fn verb_accounting_and_json_shape() {
    let mut obs = observer(1);
    obs.record_verb(Verb::Intend, cy(2_000));
    obs.record_verb(Verb::Intend, cy(2_200));
    obs.record_verb(Verb::Ack, cy(1_900));
    obs.slot_start(0, 0, 0, cy(0));
    obs.slot_commit(0, cy(100), true);
    let (p, _) = results(obs);
    assert_eq!(p.verb_msgs(Verb::Intend), 2);
    assert_eq!(p.verb_cycles(Verb::Intend), 4_200);
    let doc = p.to_json();
    let phases = doc.get("phases").unwrap();
    assert_eq!(
        phases.get("exec").unwrap().get("cycles").unwrap().as_u64(),
        Some(100)
    );
    // All six phases render even when zero; unseen verbs are omitted.
    for ph in ProfPhase::ALL {
        assert!(phases.get(ph.label()).is_some(), "{}", ph.label());
    }
    let verbs = doc.get("verbs").unwrap();
    assert!(verbs.get("intend").is_some());
    assert!(verbs.get("read").is_none());
    assert_eq!(doc.get("total_cycles").unwrap().as_u64(), Some(100));
}

#[test]
fn analyzer_ranks_deterministically() {
    let mut obs = observer(4);
    // Slots 0 and 3 tie on latency and attempts; start time breaks it.
    let txns = [(0u64, 100u64), (10, 400), (20, 150), (30, 130)];
    for (si, &(start, end)) in txns.iter().enumerate() {
        obs.slot_start(si, si as u16, 0, cy(start));
        obs.slot_enter(si, ProfPhase::Commit, cy(start + 10));
        obs.slot_commit(si, cy(end), true);
    }
    let (_, spans) = results(obs);
    let slow: Vec<u16> = spans.top_slowest(4).iter().map(|t| t.node).collect();
    assert_eq!(slow, [1, 2, 0, 3]);
    assert_eq!(spans.top_slowest(2).len(), 2);
    // Commit dominates every transaction here.
    assert_eq!(spans.dominant(10), Some(ProfPhase::Commit));
    assert_eq!(spans.txns()[0].dominant(), ProfPhase::Commit);
    let doc = spans.tail_json(10);
    assert_eq!(doc.get("txns").unwrap().as_u64(), Some(4));
    assert_eq!(doc.get("dominant").unwrap().as_str(), Some("commit"));
    assert_eq!(doc.get("slowest").unwrap().as_arr().unwrap().len(), 4);
    assert_eq!(SpanLog::default().dominant(10), None);
}

#[test]
fn dominant_ties_resolve_to_the_earlier_phase() {
    let mut obs = observer(1);
    obs.slot_start(0, 0, 0, cy(0));
    obs.slot_enter(0, ProfPhase::Validate, cy(50));
    obs.slot_enter(0, ProfPhase::Lock, cy(80));
    obs.slot_enter(0, ProfPhase::Commit, cy(130));
    obs.slot_commit(0, cy(180), true);
    let (_, spans) = results(obs);
    // Exec, Lock and Commit all hold 50 cycles: Exec wins the tie.
    assert_eq!(spans.txns()[0].dominant(), ProfPhase::Exec);
    assert_eq!(spans.dominant(1), Some(ProfPhase::Exec));
}
