//! Captures a full structured trace of one quick run and writes it in
//! two machine-readable forms:
//!
//! * a Chrome `trace_event` file (open it at <https://ui.perfetto.dev>)
//!   showing per-slot transaction phases, NIC verb activity, Bloom filter
//!   probes, and Locking Buffer stalls on a shared timeline;
//! * optionally (`--jsonl PATH`) the raw event stream as JSON Lines.
//!
//! Flags:
//!
//! * `--protocol baseline|hades-h|hades` — engine to trace (default `hades`)
//! * `--app NAME` — workload (default `TATP`)
//! * `--out PATH` — Chrome trace output path (default `trace_<proto>_<app>.json`)
//! * `--jsonl PATH` — also dump the raw JSONL event stream
//! * `--seed N` — RNG seed
//!
//! Example: `cargo run --release -p hades-bench --bin trace`

use hades_bench::{flag_parsed, flag_value};
use hades_core::runner::{Experiment, Protocol, Run};
use hades_telemetry::chrome::chrome_trace;
use hades_telemetry::jsonl::events_to_jsonl;
use hades_telemetry::registry::MetricsRegistry;
use hades_telemetry::sink::Tracer;
use hades_workloads::catalog::AppId;

fn main() {
    let protocol = match flag_value("--protocol").as_deref() {
        None | Some("hades") => Protocol::Hades,
        Some("hades-h") => Protocol::HadesH,
        Some("baseline") => Protocol::Baseline,
        Some(other) => {
            eprintln!("unknown protocol {other:?} (want baseline|hades-h|hades)");
            std::process::exit(2);
        }
    };
    let app_name = flag_value("--app").unwrap_or_else(|| "TATP".to_string());
    let Some(app) = AppId::parse(&app_name) else {
        eprintln!("unknown app {app_name:?}");
        std::process::exit(2);
    };
    let mut ex = Experiment::quick();
    if let Some(seed) = flag_parsed("--seed") {
        ex.cfg = ex.cfg.with_seed(seed);
    }
    let out = flag_value("--out").unwrap_or_else(|| {
        format!(
            "trace_{}_{}.json",
            protocol.label().to_lowercase().replace('-', "_"),
            app_name.to_lowercase().replace('-', "_")
        )
    });

    let (tracer, sink) = Tracer::memory();
    let outcome = Run::apps(protocol, &ex, &[app]).tracer(tracer).run();
    let events = sink.borrow_mut().take_events();

    std::fs::write(&out, chrome_trace(&events)).expect("write chrome trace");
    if let Some(path) = flag_value("--jsonl") {
        std::fs::write(&path, events_to_jsonl(&events)).expect("write jsonl");
        eprintln!("wrote {path} (raw event stream)");
    }

    let reg = MetricsRegistry::from_events(&events);
    eprintln!(
        "traced {} on {}: {} events, {} commits, {:.0} txn/s",
        protocol,
        app_name,
        events.len(),
        outcome.stats.committed,
        outcome.stats.throughput()
    );
    eprintln!("metrics: {}", reg.to_json().render());
    eprintln!("wrote {out} — open it at https://ui.perfetto.dev");
}
