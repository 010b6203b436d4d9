//! # hades-bench — experiment drivers for every table and figure
//!
//! One binary per paper artifact (see `DESIGN.md` §4):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig3` | Fig 3 — SW-Impl overhead breakdown |
//! | `fig9` | Figs 9–11 — throughput, mean latency with phase breakdown, p95 latency |
//! | `fig12` | Fig 12a/b — network-latency and locality sensitivity |
//! | `fig13` | Fig 13 — N=10, C=5 scalability |
//! | `fig14` | Fig 14 — two-workload mixes, N=5, C=10 |
//! | `fig15` | Fig 15 — four-workload mixes (Table V), N=8, C=25 |
//! | `table4` | Table IV — Bloom-filter false-positive sensitivity |
//! | `sec8c` | §VIII-C — eviction squashes + FP conflict rates |
//! | `hwcost` | §VI — hardware storage arithmetic |
//! | `summary` | one-shot paper-vs-measured report (`--json` for metrics) |
//! | `trace` | Chrome `trace_event` capture of a quick run (Perfetto) |
//! | `ablation` | §6 design-choice ablations: slot multiplexing, Bloom sizing |
//! | `chaos` | fault-injection sweep: invariants under loss/dup/delay/crash |
//! | `nemesis` | partition and gray-failure sweep: quorum, self-fence, heal |
//! | `batching` | doorbell batching vs off per engine over YCSB-A points |
//! | `overload` | admission × skew × Locking-Buffer-capacity overload sweep |
//! | `failover` | permanent-crash sweep: epochs, promotion, fencing |
//! | `rebalance` | planned live shard migration under traffic |
//! | `replication` | §V-A replication degree and commit-message loss |
//! | `bench` | canonical perf-trajectory matrix → `BENCH_*.json` |
//!
//! Every binary accepts `--quick` for a fast smoke run and prints both a
//! Markdown table and the paper's expected shape for comparison. Every
//! figure row runs the three engines through one function, [`compare`].
//! `summary --loss <p>` injects commit-message loss at probability `p`
//! via a seeded [`hades_fault::FaultPlan`], so e.g.
//! `summary --json --loss 0.05` reports the fault/recovery breakdown
//! alongside every metric.
//!
//! The seven stress bins (`chaos`, `nemesis`, `batching`, `overload`,
//! `failover`, `rebalance`, `replication`) run through one sweep driver,
//! [`sweep`]: each cell is a [`sweep::Scenario`], run twice and checked
//! against every shared invariant, and a violation exits 1. All but
//! `replication` take `--json <path>` to additionally write a
//! `hades-report/v1` document, conventionally under `results/`.
//!
//! [`golden`] is the one check that pins simulated output: tests compare
//! rendered stats, time-series, trace streams and `BENCH_12.json` with
//! committed files byte for byte.
//!
//! The Criterion benches under `benches/` time representative kernels
//! (Bloom filters, index structures, protocol end-to-end runs).

#![warn(missing_docs)]

pub mod golden;
pub mod harness;
pub mod sweep;

use hades_core::runner::{geomean, Experiment, Protocol, Run};
use hades_core::stats::RunStats;
use hades_sim::config::SimConfig;
use hades_sim::time::Cycles;
use hades_telemetry::json::Json;
use hades_workloads::catalog::AppId;
use std::str::FromStr;

/// Parses the standard driver flags. `--quick` shrinks dataset scale and
/// measurement length so every figure runs in seconds; `--seed N` varies
/// the RNG seed. A missing or malformed value exits with status 2 (see
/// [`flag_parsed`]).
pub fn experiment_from_args() -> Experiment {
    let quick = has_flag("--quick");
    let seed = flag_parsed("--seed");
    let mut ex = if quick {
        Experiment {
            cfg: SimConfig::isca_default(),
            scale: 0.01,
            warmup: 100,
            measure: 600,
        }
    } else {
        Experiment {
            cfg: SimConfig::isca_default(),
            scale: 0.05,
            warmup: 400,
            measure: 3_000,
        }
    };
    if let Some(seed) = seed {
        ex.cfg = ex.cfg.with_seed(seed);
    }
    ex
}

/// Runs every engine over `apps` (one app, or a core-partitioned mix as
/// in Figs 14 and 15) at `ex`'s scale and window: one figure row's three
/// cells, in `Protocol::ALL` order.
pub fn compare(ex: &Experiment, apps: &[AppId]) -> [RunStats; 3] {
    compare_each(ex, apps, |_, run| run.run().stats)
}

/// [`compare`], handing each engine's [`Run`] to `cell` to finish, e.g.
/// to install a fault plan or to catch a failed run.
pub fn compare_each<T>(
    ex: &Experiment,
    apps: &[AppId],
    mut cell: impl FnMut(Protocol, Run) -> T,
) -> [T; 3] {
    Protocol::ALL.map(|p| cell(p, Run::apps(p, ex, apps)))
}

/// The rows of a throughput table (Figs 9, 13, 14 and 15): each row's
/// label cells, its three throughputs (txn/s, `Protocol::ALL` order) and
/// HADES-H's and HADES's speedups over Baseline. With `geomean_row`, a
/// last row holds the geomean speedups, with `-` under every other
/// column.
pub fn speedup_rows(rows: &[(Vec<String>, [f64; 3])], geomean_row: bool) -> Vec<Vec<String>> {
    let mut speedups = [Vec::new(), Vec::new()];
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|(labels, t)| {
            let base = t[0].max(f64::MIN_POSITIVE);
            speedups[0].push(t[1] / base);
            speedups[1].push(t[2] / base);
            let mut row = labels.clone();
            row.extend(t.map(|v| format!("{v:.0}")));
            row.extend([fmt_x(t[1] / base), fmt_x(t[2] / base)]);
            row
        })
        .collect();
    if geomean_row {
        let labels = rows.first().map_or(1, |(l, _)| l.len());
        let mut row = vec!["geomean".to_string()];
        row.resize(labels + 3, "-".to_string());
        row.extend(speedups.map(|s| fmt_x(geomean(&s))));
        out.push(row);
    }
    out
}

/// Prints [`speedup_rows`] as a table headed by `labels`, then the three
/// engines and their speedups.
pub fn print_speedups(
    title: &str,
    labels: &[&str],
    rows: &[(Vec<String>, [f64; 3])],
    geomean_row: bool,
) {
    let header = [
        labels,
        &["Baseline", "HADES-H", "HADES", "HADES-H x", "HADES x"],
    ]
    .concat();
    print_table(title, &header, &speedup_rows(rows, geomean_row));
}

/// True if `name` was passed on the command line (e.g. `--json`).
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Returns the value following `name` on the command line, if any
/// (e.g. `--out trace.json`).
pub fn flag_value(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

/// Parses the value following `name` in `args`: `Ok(None)` when the
/// flag is absent, `Err` when its value is missing or does not parse.
pub fn parse_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(at + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    match value.parse() {
        Ok(v) => Ok(Some(v)),
        Err(_) => Err(format!("{name}: cannot parse {value:?}")),
    }
}

/// [`parse_flag`] over the command line. Exits with status 2 when the
/// flag's value is missing or does not parse, instead of ignoring it.
pub fn flag_parsed<T: FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Writes `doc` (plus a trailing newline) to `path`, creating parent
/// directories as needed. Backs the `--json <path>` flag on the sweep
/// binaries, which conventionally write under `results/`. Exits with
/// status 2 on I/O failure so CI distinguishes harness errors from
/// invariant violations (status 1).
pub fn write_json_report(path: &str, doc: &hades_telemetry::json::Json) {
    let parent = std::path::Path::new(path).parent();
    if let Some(parent) = parent.filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", parent.display());
            std::process::exit(2);
        });
    }
    std::fs::write(path, format!("{}\n", doc.render())).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    eprintln!("wrote {path}");
}

/// Prints a Markdown table: a header row and aligned value rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        line
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
    }
    println!("{sep}");
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Measures, prints, and exports the goodput dip around a disruption at
/// `at` — a crash (the `failover` bin) or a migration cutover (the
/// `rebalance` bin) — from a run's windowed time-series: depth is the
/// fraction of the pre-disruption committed/window lost at the worst
/// window, duration the consecutive windows below 90% of the
/// pre-disruption baseline. Returns `None` (after printing why) when the
/// run has no time-series layer or no usable pre-disruption baseline;
/// `disruption` names the event in that message (e.g. "crash").
pub fn report_goodput_dip(
    label: &str,
    stats: &RunStats,
    at: Cycles,
    disruption: &str,
) -> Option<Json> {
    let ts = stats.timeseries.as_ref()?;
    match ts.goodput_dip(at) {
        Some(dip) => {
            eprintln!(
                "  {label}: goodput dip depth {:.0}% (min {}/window vs baseline {:.1}), \
                 {} window(s) below 90% = {:.0} us",
                dip.depth * 100.0,
                dip.min_committed,
                dip.baseline,
                dip.windows_below,
                dip.duration_us(),
            );
            Some(dip.to_json())
        }
        None => {
            eprintln!("  {label}: no pre-{disruption} windows; dip not measurable");
            None
        }
    }
}

/// Formats a ratio to two decimals with an `x` suffix.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a rate as a percentage with three decimals.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.3}%", v * 100.0)
}
