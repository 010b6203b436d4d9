//! The canonical perf-trajectory bench harness (DESIGN.md §12).
//!
//! [`run_matrix`] runs a fixed seed × workload × engine matrix — TATP,
//! Smallbank, and YCSB-A/B over the hash table at two Zipfian skews,
//! each under all three protocol engines — and renders a schema-versioned
//! `BENCH_<id>.json` document. Because the simulator is deterministic,
//! re-running the same matrix at the same seed reproduces the document
//! byte for byte, on any machine: it holds sim-time numbers only (host
//! time is `benchmark/`'s job). [`compare`] diffs two such documents
//! cell-by-cell and reports throughput/p99 regressions beyond a
//! threshold — the CI perf gate.

use hades_core::runner::{Protocol, Run};
use hades_core::stats::RunStats;
use hades_sim::config::{BatchingParams, SimConfig, DEFAULT_SEED};
use hades_storage::db::Database;
use hades_storage::index::IndexKind;
use hades_telemetry::json::Json;
use hades_workloads::catalog::AppId;
use hades_workloads::spec::Workload;
use hades_workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

/// Schema tag stamped into every document this harness emits.
pub const SCHEMA: &str = "hades-bench/v1";

/// Time-series window used by `--timeseries` cells (sim time).
pub const TS_WINDOW_US: u64 = 100;

/// Default regression threshold for [`compare`]: 10%.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// One workload column of the matrix: a catalog application or a YCSB
/// variant at an explicit Zipfian skew.
#[derive(Debug, Clone, Copy)]
pub enum BenchWorkload {
    /// A paper-catalog application, by label.
    App(&'static str),
    /// YCSB over the hash table at an explicit theta.
    YcsbTheta(YcsbVariant, f64),
}

impl BenchWorkload {
    /// Stable cell label (`"TATP"`, `"HT-wA@0.99"`, …).
    pub fn label(&self) -> String {
        match self {
            BenchWorkload::App(name) => (*name).to_string(),
            BenchWorkload::YcsbTheta(v, theta) => format!("HT-{}@{theta:.2}", v.label()),
        }
    }

    fn build(&self, db: &mut Database, scale: f64) -> Box<dyn Workload> {
        match self {
            BenchWorkload::App(name) => AppId::parse(name)
                .unwrap_or_else(|| panic!("unknown app label {name}"))
                .build(db, scale),
            BenchWorkload::YcsbTheta(v, theta) => Box::new(Ycsb::setup(
                db,
                YcsbConfig {
                    theta: *theta,
                    ..YcsbConfig::paper(IndexKind::HashTable, *v).scaled(scale)
                },
            )),
        }
    }
}

/// The canonical workload columns, in emission order.
pub const WORKLOADS: [BenchWorkload; 6] = [
    BenchWorkload::App("TATP"),
    BenchWorkload::App("Smallbank"),
    BenchWorkload::YcsbTheta(YcsbVariant::A, 0.99),
    BenchWorkload::YcsbTheta(YcsbVariant::A, 0.60),
    BenchWorkload::YcsbTheta(YcsbVariant::B, 0.99),
    BenchWorkload::YcsbTheta(YcsbVariant::B, 0.60),
];

/// Harness options (flag-for-flag what the `bench` binary accepts).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// RNG seed shared by every cell.
    pub seed: u64,
    /// Smoke mode: reduced scale and measurement window.
    pub smoke: bool,
    /// Enable the phase profiler; each cell gains a `profile` block.
    pub profile: bool,
    /// Enable causal spans; each cell gains a `tail` block attributing
    /// the top-10 slowest committed transactions (DESIGN.md §13).
    pub tail: bool,
    /// Enable windowed time-series; each cell gains a `timeseries`
    /// block ([`TS_WINDOW_US`] µs sim-time windows).
    pub timeseries: bool,
    /// Add batched duplicates of every matrix cell, running under
    /// adaptive doorbell coalescing capped at this batch size
    /// (DESIGN.md §14). Batched cells get a `+batch<n>` workload-label
    /// suffix, so they compare independently of the unbatched cells.
    pub batch: Option<u32>,
    /// Identifier baked into the document (`BENCH_<id>.json`).
    pub bench_id: String,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            seed: DEFAULT_SEED,
            smoke: false,
            profile: false,
            tail: false,
            timeseries: false,
            batch: None,
            bench_id: "local".to_string(),
        }
    }
}

impl BenchConfig {
    /// (scale, warmup, measure) for this mode. The full mode is sized so
    /// the whole 18-cell matrix stays CI-affordable (~a minute).
    pub fn sizing(&self) -> (f64, u64, u64) {
        if self.smoke {
            (0.005, 50, 300)
        } else {
            (0.01, 200, 1_500)
        }
    }

    fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// One finished cell.
#[derive(Debug)]
pub struct CellResult {
    /// Workload label.
    pub workload: String,
    /// Protocol engine.
    pub protocol: Protocol,
    /// Full run statistics (sim time).
    pub stats: RunStats,
}

/// Runs one cell of the matrix.
pub fn run_cell(wl: &BenchWorkload, protocol: Protocol, bc: &BenchConfig) -> CellResult {
    run_cell_batched(wl, protocol, bc, None)
}

/// Runs one cell, optionally under adaptive doorbell coalescing capped
/// at `batch` verbs. Batched cells carry a `+batch<n>` label suffix.
pub fn run_cell_batched(
    wl: &BenchWorkload,
    protocol: Protocol,
    bc: &BenchConfig,
    batch: Option<u32>,
) -> CellResult {
    let (scale, warmup, measure) = bc.sizing();
    let mut cfg = SimConfig::isca_default().with_seed(bc.seed);
    if bc.profile {
        cfg = cfg.with_profiling();
    }
    if bc.tail {
        cfg = cfg.with_spans();
    }
    if bc.timeseries {
        cfg = cfg.with_timeseries(hades_sim::time::Cycles::from_micros(TS_WINDOW_US));
    }
    if let Some(n) = batch {
        cfg = cfg.with_batching(BatchingParams {
            max_batch: n,
            ..BatchingParams::standard()
        });
    }
    let mut db = Database::new(cfg.shape.nodes);
    let workload = wl.build(&mut db, scale);
    let stats = Run::loaded(protocol, cfg, db, workload, warmup, measure)
        .run()
        .stats;
    let workload = match batch {
        Some(n) => format!("{}+batch{n}", wl.label()),
        None => wl.label(),
    };
    CellResult {
        workload,
        protocol,
        stats,
    }
}

/// Runs the full canonical matrix, reporting progress through `progress`
/// (one call per finished cell; pass `|_| {}` to silence).
pub fn run_matrix(bc: &BenchConfig, mut progress: impl FnMut(&CellResult)) -> Vec<CellResult> {
    let mut cells = Vec::with_capacity(WORKLOADS.len() * Protocol::ALL.len());
    for wl in &WORKLOADS {
        for protocol in Protocol::ALL {
            let cell = run_cell(wl, protocol, bc);
            progress(&cell);
            cells.push(cell);
        }
    }
    // Batched duplicates ride after the plain matrix so old baselines
    // (without batched cells) still compare clean against new documents.
    if let Some(n) = bc.batch {
        for wl in &WORKLOADS {
            for protocol in Protocol::ALL {
                let cell = run_cell_batched(wl, protocol, bc, Some(n));
                progress(&cell);
                cells.push(cell);
            }
        }
    }
    cells
}

fn cell_json(cell: &CellResult) -> Json {
    let s = &cell.stats;
    let aborts = Json::Obj(
        s.abort_reasons()
            .map(|(label, n)| (label.to_string(), Json::UInt(n)))
            .collect(),
    );
    let verbs = Json::Obj(
        s.verbs
            .iter()
            .filter(|&(_, n)| n > 0)
            .map(|(v, n)| (v.label().to_string(), Json::UInt(n)))
            .collect(),
    );
    let b = Json::obj()
        .field("workload", cell.workload.as_str())
        .field("protocol", cell.protocol.label())
        .field("committed", s.committed)
        .field("throughput_txn_s", s.throughput())
        .field("p50_us", s.p50_latency().as_micros())
        .field("p99_us", s.p99_latency().as_micros())
        .field("p999_us", s.p999_latency().as_micros())
        .field("abort_rate", s.abort_rate())
        .field("aborts", aborts)
        .field("verbs", verbs);
    s.optional_blocks(b).build()
}

/// Renders a finished matrix as the schema-versioned bench document.
pub fn matrix_json(cells: &[CellResult], bc: &BenchConfig) -> Json {
    let (scale, warmup, measure) = bc.sizing();
    let mut config = Json::obj()
        .field("scale", scale)
        .field("warmup", warmup)
        .field("measure", measure);
    if let Some(n) = bc.batch {
        config = config.field("batch", u64::from(n));
    }
    let config = config.build();
    Json::obj()
        .field("schema", SCHEMA)
        .field("bench_id", bc.bench_id.as_str())
        .field("seed", bc.seed)
        .field("mode", bc.mode())
        .field("config", config)
        .field("cells", Json::Arr(cells.iter().map(cell_json).collect()))
        .build()
}

/// The outcome of comparing two bench documents.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One human-readable line per compared cell.
    pub lines: Vec<String>,
    /// Regressions beyond the threshold (empty ⇒ gate passes).
    pub regressions: Vec<String>,
}

fn cell_key(cell: &Json) -> Option<(String, String)> {
    Some((
        cell.get("workload")?.as_str()?.to_string(),
        cell.get("protocol")?.as_str()?.to_string(),
    ))
}

fn num(cell: &Json, field: &str) -> Option<f64> {
    cell.get(field)?.as_f64()
}

/// Compares `new` against the `old` baseline. A regression is a cell
/// whose throughput dropped, or whose p99 latency rose, by more than
/// `threshold` (fraction, e.g. `0.10`). Structural mismatches (schema,
/// mode, missing cells) are regressions too: they mean the documents are
/// not measuring the same thing.
pub fn compare(old: &Json, new: &Json, threshold: f64) -> Comparison {
    let mut cmp = Comparison::default();
    for (doc, label) in [(old, "baseline"), (new, "candidate")] {
        if doc.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
            cmp.regressions
                .push(format!("{label} document schema is not {SCHEMA}"));
        }
    }
    if !cmp.regressions.is_empty() {
        return cmp;
    }
    let old_mode = old.get("mode").and_then(|m| m.as_str()).unwrap_or("?");
    let new_mode = new.get("mode").and_then(|m| m.as_str()).unwrap_or("?");
    if old_mode != new_mode {
        cmp.regressions.push(format!(
            "mode mismatch: baseline ran '{old_mode}', candidate ran '{new_mode}'"
        ));
        return cmp;
    }
    if old.get("seed").and_then(|s| s.as_u64()) != new.get("seed").and_then(|s| s.as_u64()) {
        cmp.regressions
            .push("seed mismatch: documents are not comparable".to_string());
        return cmp;
    }
    let empty: Vec<Json> = Vec::new();
    let old_cells = old.get("cells").and_then(|c| c.as_arr()).unwrap_or(&empty);
    let new_cells = new.get("cells").and_then(|c| c.as_arr()).unwrap_or(&empty);
    for old_cell in old_cells {
        let Some(key) = cell_key(old_cell) else {
            cmp.regressions
                .push("baseline cell missing key".to_string());
            continue;
        };
        let label = format!("{} / {}", key.0, key.1);
        let Some(new_cell) = new_cells
            .iter()
            .find(|c| cell_key(c).as_ref() == Some(&key))
        else {
            cmp.regressions
                .push(format!("{label}: cell missing from candidate"));
            continue;
        };
        let (Some(t_old), Some(t_new)) = (
            num(old_cell, "throughput_txn_s"),
            num(new_cell, "throughput_txn_s"),
        ) else {
            cmp.regressions.push(format!("{label}: missing throughput"));
            continue;
        };
        let (Some(p_old), Some(p_new)) = (num(old_cell, "p99_us"), num(new_cell, "p99_us")) else {
            cmp.regressions.push(format!("{label}: missing p99"));
            continue;
        };
        let t_delta = if t_old > 0.0 {
            t_new / t_old - 1.0
        } else {
            0.0
        };
        let p_delta = if p_old > 0.0 {
            p_new / p_old - 1.0
        } else {
            0.0
        };
        cmp.lines.push(format!(
            "{label}: throughput {t_old:.0} -> {t_new:.0} txn/s ({:+.1}%), p99 {p_old:.1} -> {p_new:.1} us ({:+.1}%)",
            t_delta * 100.0,
            p_delta * 100.0,
        ));
        if t_new < t_old * (1.0 - threshold) {
            cmp.regressions.push(format!(
                "{label}: throughput regressed {:.1}% (limit {:.0}%)",
                -t_delta * 100.0,
                threshold * 100.0
            ));
        }
        if p_new > p_old * (1.0 + threshold) {
            cmp.regressions.push(format!(
                "{label}: p99 latency regressed {:+.1}% (limit {:.0}%)",
                p_delta * 100.0,
                threshold * 100.0
            ));
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(throughput: f64, p99: f64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"hades-bench/v1","bench_id":"t","seed":1,"mode":"smoke",
                "config":{{"scale":0.005,"warmup":50,"measure":300}},
                "cells":[{{"workload":"TATP","protocol":"HADES",
                "committed":300,"throughput_txn_s":{throughput},"p50_us":10.0,
                "p99_us":{p99},"p999_us":40.0,"abort_rate":0.01,
                "aborts":{{}},"verbs":{{}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn self_compare_is_clean() {
        let d = doc(100_000.0, 25.0);
        let cmp = compare(&d, &d, DEFAULT_THRESHOLD);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        assert_eq!(cmp.lines.len(), 1);
    }

    #[test]
    fn throughput_drop_beyond_threshold_regresses() {
        let cmp = compare(&doc(100_000.0, 25.0), &doc(85_000.0, 25.0), 0.10);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("throughput regressed"));
        // 8% stays within a 10% gate.
        let ok = compare(&doc(100_000.0, 25.0), &doc(92_000.0, 25.0), 0.10);
        assert!(ok.regressions.is_empty());
    }

    #[test]
    fn p99_rise_beyond_threshold_regresses() {
        let cmp = compare(&doc(100_000.0, 25.0), &doc(100_000.0, 30.0), 0.10);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("p99"));
    }

    #[test]
    fn structural_mismatches_regress() {
        let d = doc(100_000.0, 25.0);
        let mut other = doc(100_000.0, 25.0);
        if let Json::Obj(members) = &mut other {
            for (k, v) in members.iter_mut() {
                if k == "mode" {
                    *v = Json::Str("full".to_string());
                }
            }
        }
        let cmp = compare(&d, &other, 0.10);
        assert!(cmp.regressions.iter().any(|r| r.contains("mode mismatch")));
        let missing = Json::parse(
            r#"{"schema":"hades-bench/v1","bench_id":"t","seed":1,"mode":"smoke","cells":[]}"#,
        )
        .unwrap();
        let cmp = compare(&d, &missing, 0.10);
        assert!(cmp.regressions.iter().any(|r| r.contains("missing")));
    }

    #[test]
    fn workload_labels_are_stable() {
        assert_eq!(WORKLOADS[0].label(), "TATP");
        assert_eq!(WORKLOADS[2].label(), "HT-wA@0.99");
        assert_eq!(WORKLOADS[5].label(), "HT-wB@0.60");
    }
}
