//! The canonical perf-trajectory bench harness (DESIGN.md §12).
//!
//! [`run_matrix`] runs a fixed seed × workload × engine matrix — TATP,
//! Smallbank, and YCSB-A/B over the hash table at two Zipfian skews,
//! each under all three protocol engines — and renders a schema-versioned
//! `BENCH_<id>.json` document. Because the simulator is deterministic,
//! re-running the same matrix at the same seed reproduces the document
//! byte for byte, on any machine: it holds sim-time numbers only (host
//! time is `benchmark/`'s job). `tests/bench_determinism.rs` checks the
//! committed `BENCH_12.json` against a fresh run through
//! [`crate::golden`], which lists the cells and fields that moved.

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
    // Batched duplicates ride after the plain matrix, so the plain cells
    // keep their places in the document.
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
