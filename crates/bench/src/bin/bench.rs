//! `bench` — the canonical perf-trajectory harness (DESIGN.md §12).
//!
//! Runs the fixed seed × workload × engine matrix and writes a
//! schema-versioned `BENCH_<id>.json`:
//!
//! ```text
//! cargo run --release -p hades-bench --bin bench -- --bench-id 12 --batch 16 --out BENCH_12.json
//! ```
//!
//! Flags: `--smoke` (reduced matrix sizing), `--seed N`, `--profile`
//! (adds a per-cell phase-profiler block), `--tail` (causal spans: adds
//! a per-cell `tail` block and prints the dominant critical-path
//! contributor of the top-10 slowest committed transactions per cell),
//! `--timeseries` (adds a per-cell windowed time-series block),
//! `--batch N` (append batched duplicates of every cell, run under
//! adaptive doorbell coalescing capped at N verbs — cells labeled
//! `<workload>+batchN`), `--out PATH` (default stdout), `--bench-id ID`.
//!
//! `BENCH_12.json` is the committed baseline. `tests/bench_determinism.rs`
//! reruns the matrix in tier-1 and fails, listing the moved fields, if
//! one byte of it moves.

use hades_bench::harness::{matrix_json, run_matrix, BenchConfig};
use hades_bench::{flag_parsed, flag_value, has_flag};
use hades_sim::config::DEFAULT_SEED;

fn main() {
    let bc = BenchConfig {
        seed: flag_parsed("--seed").unwrap_or(DEFAULT_SEED),
        smoke: has_flag("--smoke"),
        profile: has_flag("--profile"),
        tail: has_flag("--tail"),
        timeseries: has_flag("--timeseries"),
        batch: flag_parsed("--batch"),
        bench_id: flag_value("--bench-id").unwrap_or_else(|| "local".to_string()),
    };
    let (scale, warmup, measure) = bc.sizing();
    eprintln!(
        "bench: mode={} seed={:#x} scale={scale} warmup={warmup} measure={measure}",
        if bc.smoke { "smoke" } else { "full" },
        bc.seed
    );
    let cells = run_matrix(&bc, |cell| {
        eprintln!(
            "  {:<12} {:<8} {:>10.0} txn/s  p99 {:>8.1} us  abort {:>5.2}%",
            cell.workload,
            cell.protocol.label(),
            cell.stats.throughput(),
            cell.stats.p99_latency().as_micros(),
            cell.stats.abort_rate() * 100.0,
        );
    });
    if bc.tail {
        eprintln!("\nbench: tail attribution (top-10 slowest committed txns per cell)");
        for cell in &cells {
            let Some(spans) = &cell.stats.spans else {
                continue;
            };
            let dominant = spans
                .dominant(10)
                .map(|p| p.label())
                .unwrap_or("none (no committed txns recorded)");
            let phases = spans.tail_phase_cycles(10);
            let total: u64 = phases.iter().sum();
            let pct = |c: u64| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64 * 100.0
                }
            };
            let breakdown: Vec<String> = hades_telemetry::profile::ProfPhase::ALL
                .iter()
                .zip(phases.iter())
                .filter(|(_, &c)| c > 0)
                .map(|(p, &c)| format!("{} {:.1}%", p.label(), pct(c)))
                .collect();
            eprintln!(
                "  {:<12} {:<8} dominant={:<11} [{}]",
                cell.workload,
                cell.protocol.label(),
                dominant,
                breakdown.join(", "),
            );
        }
    }
    let doc = matrix_json(&cells, &bc).render();
    match flag_value("--out") {
        Some(path) => {
            std::fs::write(&path, format!("{doc}\n")).unwrap_or_else(|e| {
                eprintln!("bench: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("bench: wrote {path} ({} cells)", cells.len());
        }
        None => println!("{doc}"),
    }
}
