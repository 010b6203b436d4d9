//! Causal-span and time-series observability invariants (DESIGN.md §13).
//!
//! 1. Span trees telescope exactly: for every recorded transaction the
//!    per-phase segments sum to the first-start → commit latency, and the
//!    aggregate tail attribution is consistent with the per-transaction
//!    spans, for all three protocol engines.
//! 2. The layer is pay-for-what-you-use: enabling spans + time-series
//!    changes nothing about the run — the JSONL event stream is
//!    byte-identical and the stats JSON with the `tail`/`timeseries`
//!    blocks stripped matches an unobserved run exactly.
//! 3. Determinism: same-seed repeats render byte-identical `tail` and
//!    `timeseries` JSON blocks.
//! 4. The Chrome span exporter emits valid JSON whose timestamps are
//!    monotonically non-decreasing within each (pid, tid) track.

use hades::core::runner::{Experiment, Protocol, Run};
use hades::sim::config::SimConfig;
use hades::sim::time::Cycles;
use hades::telemetry::chrome::span_chrome_trace;
use hades::telemetry::json::Json;
use hades::telemetry::jsonl::events_to_jsonl;
use hades::telemetry::sink::Tracer;
use hades::workloads::catalog::AppId;

/// Window for the time-series runs: quick runs span a few hundred
/// microseconds of sim time, so 20 us yields 10+ windows.
const TS_WINDOW_US: u64 = 20;

fn quick(cfg: SimConfig) -> Experiment {
    Experiment {
        cfg,
        scale: 0.005,
        warmup: 50,
        measure: 300,
    }
}

fn observed_cfg() -> SimConfig {
    SimConfig::isca_default()
        .with_spans()
        .with_timeseries(Cycles::from_micros(TS_WINDOW_US))
}

#[test]
fn span_segments_telescope_to_latency() {
    for app in ["TATP", "HT-wA"] {
        let app = AppId::parse(app).unwrap();
        for protocol in Protocol::ALL {
            let ex = quick(SimConfig::isca_default().with_spans());
            let stats = Run::apps(protocol, &ex, &[app]).run().stats;
            let spans = stats
                .spans
                .as_ref()
                .unwrap_or_else(|| panic!("{protocol}: no span log"));
            assert_eq!(
                spans.dropped(),
                0,
                "{protocol}: spans dropped at quick scale"
            );
            assert_eq!(
                spans.recorded(),
                stats.committed,
                "{protocol}: one span per measured commit"
            );
            for txn in spans.txns() {
                let seg_sum: u64 = txn.segments.iter().map(|s| s.cycles()).sum();
                assert_eq!(
                    seg_sum,
                    txn.latency().get(),
                    "{protocol}: node {} slot {} segments must telescope to latency",
                    txn.node,
                    txn.slot
                );
                let phase_sum: u64 = txn.phase_cycles().iter().sum();
                assert_eq!(seg_sum, phase_sum, "{protocol}: phase rollup disagrees");
                for seg in &txn.segments {
                    assert!(seg.end >= seg.start, "{protocol}: inverted segment");
                }
                for round in &txn.rounds {
                    assert!(
                        round.start >= txn.start
                            && round.end <= txn.end
                            && round.end >= round.start,
                        "{protocol}: verb round outside its span"
                    );
                    assert!(round.peers > 0, "{protocol}: empty round recorded");
                }
                for abort in &txn.aborts {
                    assert!(
                        abort.at >= txn.start && abort.at <= txn.end,
                        "{protocol}: abort outside its span"
                    );
                }
            }
            // Aggregate tail attribution must be the sum of the top-k
            // spans' per-phase cycles — i.e. consistent with the trees.
            let top = spans.top_slowest(10);
            let latency_sum: u64 = top.iter().map(|t| t.latency().get()).sum();
            let tail_sum: u64 = spans.tail_phase_cycles(10).iter().sum();
            assert_eq!(
                tail_sum, latency_sum,
                "{protocol}: tail attribution must telescope over the top-k spans"
            );
            assert!(
                spans.dominant(10).is_some(),
                "{protocol}: no dominant phase"
            );
            // Per-node breakdown (satellite): node commits sum to the total.
            assert_eq!(
                stats.node_committed.iter().sum::<u64>(),
                stats.committed,
                "{protocol}: per-node commits must sum to the aggregate"
            );
        }
    }
}

#[test]
fn observability_off_and_on_agree_byte_for_byte() {
    let app = AppId::parse("Smallbank").unwrap();
    for protocol in Protocol::ALL {
        let plain_ex = quick(SimConfig::isca_default());
        let obs_ex = quick(observed_cfg());
        let (tracer, sink) = Tracer::memory();
        let plain = Run::apps(protocol, &plain_ex, &[app]).tracer(tracer).run();
        let plain_events = sink.borrow_mut().take_events();
        let (tracer, sink) = Tracer::memory();
        let observed = Run::apps(protocol, &obs_ex, &[app]).tracer(tracer).run();
        let observed_events = sink.borrow_mut().take_events();
        assert_eq!(
            events_to_jsonl(&plain_events),
            events_to_jsonl(&observed_events),
            "{protocol}: spans/timeseries perturbed the event stream"
        );
        let mut stripped = observed.stats.clone();
        assert!(stripped.spans.is_some() && stripped.timeseries.is_some());
        stripped.spans = None;
        stripped.timeseries = None;
        assert_eq!(
            stripped.to_json().render(),
            plain.stats.to_json().render(),
            "{protocol}: spans/timeseries perturbed the stats"
        );
    }
}

#[test]
fn same_seed_tail_and_timeseries_are_byte_identical() {
    let app = AppId::parse("TATP").unwrap();
    for protocol in Protocol::ALL {
        let ex = quick(observed_cfg());
        let run = |_: u32| Run::apps(protocol, &ex, &[app]).run().stats;
        let (a, b) = (run(0), run(1));
        let tail =
            |s: &hades::core::stats::RunStats| s.spans.as_ref().unwrap().tail_json(10).render();
        let ts =
            |s: &hades::core::stats::RunStats| s.timeseries.as_ref().unwrap().to_json().render();
        assert_eq!(tail(&a), tail(&b), "{protocol}: tail block diverged");
        assert_eq!(ts(&a), ts(&b), "{protocol}: timeseries block diverged");
    }
}

#[test]
fn chrome_span_export_is_valid_and_tracks_are_monotonic() {
    let app = AppId::parse("HT-wA").unwrap();
    let ex = quick(SimConfig::isca_default().with_spans());
    let stats = Run::apps(Protocol::Hades, &ex, &[app]).run().stats;
    let spans = stats.spans.as_ref().expect("span log");
    let trace = span_chrome_trace(spans, 10);
    let doc = Json::parse(&trace).expect("exporter must emit valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "exporter emitted no events");
    let mut last_ts: Vec<((u64, u64), f64)> = Vec::new();
    for ev in events {
        let (Some(pid), Some(tid)) = (
            ev.get("pid").and_then(Json::as_u64),
            ev.get("tid").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let Some(ts) = ev.get("ts").and_then(Json::as_f64) else {
            continue;
        };
        match last_ts.iter_mut().find(|(k, _)| *k == (pid, tid)) {
            Some((_, last)) => {
                assert!(
                    ts >= *last,
                    "track ({pid},{tid}): timestamps must be non-decreasing"
                );
                *last = ts;
            }
            None => last_ts.push(((pid, tid), ts)),
        }
    }
    assert!(!last_ts.is_empty(), "no timestamped track events");
}
