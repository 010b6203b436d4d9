//! Trace determinism: the telemetry layer must not perturb the simulation,
//! and identical configurations must produce byte-identical traces.
//!
//! The whole reproduction methodology rests on deterministic replay (same
//! `SimConfig` + seed → same schedule), so the observability layer is held
//! to the same bar: two traced runs must agree byte-for-byte on the JSONL
//! event stream and on the rendered metrics registry, and a traced run must
//! report exactly the same `RunStats` as an untraced one.

use hades::core::runner::{Experiment, Protocol, Run};
use hades::sim::config::SimConfig;
use hades::telemetry::event::TraceEvent;
use hades::telemetry::jsonl::events_to_jsonl;
use hades::telemetry::registry::MetricsRegistry;
use hades::telemetry::sink::Tracer;
use hades::workloads::catalog::AppId;

fn quick() -> Experiment {
    Experiment {
        cfg: SimConfig::isca_default(),
        scale: 0.005,
        warmup: 50,
        measure: 300,
    }
}

fn traced_run(protocol: Protocol, app: AppId, ex: &Experiment) -> (Vec<TraceEvent>, String) {
    let (tracer, sink) = Tracer::memory();
    let outcome = Run::apps(protocol, ex, &[app]).tracer(tracer).run();
    let events = sink.borrow_mut().take_events();
    assert!(!events.is_empty(), "{protocol}: traced run emitted nothing");
    (events, outcome.stats.to_json().render())
}

#[test]
fn same_seed_gives_byte_identical_traces() {
    let ex = quick();
    for protocol in Protocol::ALL {
        let app = AppId::parse("TATP").unwrap();
        let (e1, s1) = traced_run(protocol, app, &ex);
        let (e2, s2) = traced_run(protocol, app, &ex);
        assert_eq!(
            events_to_jsonl(&e1),
            events_to_jsonl(&e2),
            "{protocol}: JSONL event streams diverged across identical runs"
        );
        let r1 = MetricsRegistry::from_events(&e1).to_json().render();
        let r2 = MetricsRegistry::from_events(&e2).to_json().render();
        assert_eq!(r1, r2, "{protocol}: metrics registries diverged");
        assert_eq!(s1, s2, "{protocol}: RunStats JSON diverged");
    }
}

#[test]
fn different_seeds_give_different_traces() {
    let ex = quick();
    let mut other = quick();
    other.cfg = other.cfg.with_seed(0xBEEF);
    let app = AppId::parse("Smallbank").unwrap();
    let (e1, _) = traced_run(Protocol::Hades, app, &ex);
    let (e2, _) = traced_run(Protocol::Hades, app, &other);
    assert_ne!(
        events_to_jsonl(&e1),
        events_to_jsonl(&e2),
        "seed change should perturb the event stream"
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // A tracer must be purely observational: enabling it cannot change
    // the schedule, commit count, latency distribution, or verb counts.
    let ex = quick();
    for protocol in Protocol::ALL {
        let app = AppId::parse("HT-wA").unwrap();
        let untraced = Run::apps(protocol, &ex, &[app]).run().stats;
        let (_, traced) = traced_run(protocol, app, &ex);
        assert_eq!(
            untraced.to_json().render(),
            traced,
            "{protocol}: tracing changed the simulation outcome"
        );
    }
}

#[test]
fn registry_agrees_with_run_stats() {
    // The registry is rebuilt from raw events. The trace covers the whole
    // run (warmup and drain included), so its commit counter must be at
    // least warmup + measured commits, and every commit needs a begin.
    let ex = quick();
    let (tracer, sink) = Tracer::memory();
    let outcome = Run::apps(Protocol::Hades, &ex, &[AppId::parse("TATP").unwrap()])
        .tracer(tracer)
        .run();
    let events = sink.borrow_mut().take_events();
    let reg = MetricsRegistry::from_events(&events);
    let commits = reg.counter("txn.commit");
    assert!(
        commits >= ex.warmup + outcome.stats.committed,
        "registry saw {commits} commits, ledger implies at least {}",
        ex.warmup + outcome.stats.committed
    );
    assert!(
        reg.counter("txn.begin") >= commits,
        "every commit needs a begin"
    );
}
