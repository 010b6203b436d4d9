//! Batching harness: runs every protocol engine on YCSB HT-wA with verb
//! batching off and on (adaptive doorbell coalescing, DESIGN.md §14) and
//! checks that batching is a net win against the real off path.
//!
//! Each workload point runs every engine twice per mode. Every run must
//! satisfy:
//!
//! * every measured transaction commits (no livelock),
//! * no record locks, Locking Buffers, replica prepares or NIC
//!   remote-transaction filters leak past the drain,
//! * reruns of the identical config + seed are byte-identical,
//! * batching off ⇒ no `batching` stats block, and a run with the
//!   explicitly-disabled `BatchingParams::default()` renders the same
//!   bytes as one that never mentioned batching at all,
//! * batching on ⇒ the `batching` block is present and its flush
//!   accounting telescopes (leaders = flushes, verbs = carried).
//!
//! Every (engine, point) cell must also show batching paying for itself:
//!
//! * batched committed throughput at least that of batching off, within
//!   2%, and
//! * at light load, batched p99 latency no worse than off (within 1%: the
//!   FIFO fence may hold a verb a few ns behind a larger one sent just
//!   before it on its queue pair). The adaptive target stays near one
//!   verb per doorbell, so a quiet fabric keeps unbatched latency.
//!
//! The `bench` point is the `ycsb_a_zipf60_batch16` benchmark workload's
//! configuration (θ 0.60 over 40k keys, batches of up to 16).
//!
//! Run: `cargo run --release -p hades-bench --bin batching` (`--quick`
//! for the CI smoke subset). Prints each cell's gain over batching off
//! and exits non-zero listing every violated check. `--json <path>`
//! writes a machine-readable report. `--timeseries` additionally prints
//! each batched cell's peak batch-occupancy window from the
//! `hades-timeseries/v1` series.

use hades_bench::{flag_value, has_flag, print_table, write_json_report};
use hades_core::runner::{Protocol, Run};
use hades_core::runtime::RunOutcome;
use hades_sim::config::{BatchingParams, ClusterShape, SimConfig};
use hades_sim::time::Cycles;
use hades_storage::db::Database;
use hades_storage::index::IndexKind;
use hades_telemetry::json::Json;
use hades_workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

/// Time-series window for `--timeseries` runs.
const TS_WINDOW_US: u64 = 20;

/// Batched committed throughput may trail batching off by at most this
/// fraction.
const THROUGHPUT_SLACK: f64 = 0.02;

/// Light-load batched p99 may exceed batching off by at most this
/// fraction.
const LIGHT_P99_SLACK: f64 = 0.01;

/// One workload point of the sweep.
#[derive(Debug, Clone, Copy)]
struct Point {
    label: &'static str,
    theta: f64,
    /// Key-count scale factor against the paper's 4M keys.
    scale: f64,
    /// Cluster shape; `None` keeps the paper's default.
    shape: Option<ClusterShape>,
    /// Whether the light-load p99 check applies.
    light: bool,
}

/// One simulated client per node: the fabric is nearly idle.
const LIGHT: ClusterShape = ClusterShape {
    nodes: 5,
    cores_per_node: 1,
    slots_per_core: 1,
};

const POINTS: [Point; 4] = [
    // 2k keys, so the Zipfian hot set genuinely contends at high theta.
    Point {
        label: "theta0.6",
        theta: 0.6,
        scale: 0.0005,
        shape: None,
        light: false,
    },
    Point {
        label: "theta0.99",
        theta: 0.99,
        scale: 0.0005,
        shape: None,
        light: false,
    },
    // Five clients over 40k keys: so few conflicts that p99 measures the
    // verb path, not whether the hundredth-slowest commit was a retry.
    Point {
        label: "light",
        theta: 0.6,
        scale: 0.01,
        shape: Some(LIGHT),
        light: true,
    },
    Point {
        label: "bench",
        theta: 0.6,
        scale: 0.01,
        shape: None,
        light: false,
    },
];

impl Point {
    fn config(&self, batched: bool) -> SimConfig {
        let mut cfg = SimConfig::isca_default();
        if let Some(shape) = self.shape {
            cfg = cfg.with_shape(shape);
        }
        if batched {
            cfg = cfg.with_batching(BatchingParams::standard());
        }
        cfg
    }
}

/// One finished run plus the record-lock leak observation.
struct Observed {
    out: RunOutcome,
    records_locked: bool,
    keys: u64,
}

fn run_once(protocol: Protocol, cfg: SimConfig, point: &Point, measure: u64) -> Observed {
    let mut db = Database::new(cfg.shape.nodes);
    let ycsb = Ycsb::setup(
        &mut db,
        YcsbConfig {
            theta: point.theta,
            ..YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A).scaled(point.scale)
        },
    );
    let keys = (4_000_000f64 * point.scale) as u64;
    let table = ycsb.table();
    let out = Run::loaded(protocol, cfg, db, Box::new(ycsb), measure / 10, measure).run();
    let records_locked = (0..keys).any(|key| {
        let rid = out.cluster.db.lookup(table, key).expect("key loaded").rid;
        out.cluster.db.record(rid).is_locked()
    });
    Observed {
        out,
        records_locked,
        keys,
    }
}

/// Checks every post-run invariant, appending violations to `failures`.
fn check_invariants(label: &str, obs: &Observed, measure: u64, failures: &mut Vec<String>) {
    let stats = &obs.out.stats;
    if stats.committed != measure {
        failures.push(format!(
            "{label}: committed {} of {measure} measured transactions (livelock?)",
            stats.committed
        ));
    }
    if obs.records_locked {
        failures.push(format!(
            "{label}: record locks leaked past drain ({} keys scanned)",
            obs.keys
        ));
    }
    if obs.out.replica_pending_leaked != 0 {
        failures.push(format!(
            "{label}: {} replica-prepare entries leaked",
            obs.out.replica_pending_leaked
        ));
    }
    for (n, bufs) in obs.out.cluster.lock_bufs.iter().enumerate() {
        if bufs.occupied() != 0 {
            failures.push(format!(
                "{label}: node {n} left {} Locking Buffers held",
                bufs.occupied()
            ));
        }
    }
    for (n, nic) in obs.out.cluster.nics.iter().enumerate() {
        if nic.active_remote_txs() != 0 {
            failures.push(format!(
                "{label}: node {n} NIC left {} remote-tx filters",
                nic.active_remote_txs()
            ));
        }
    }
    match (&stats.batching, obs.out.cluster.cfg.batching.enabled) {
        (Some(_), false) => failures.push(format!(
            "{label}: batching block present with the subsystem off"
        )),
        (None, true) => failures.push(format!(
            "{label}: batching block missing with the subsystem on"
        )),
        (Some(bt), true) => {
            if bt.flushes != bt.leaders {
                failures.push(format!(
                    "{label}: {} flushes but {} leaders — every batch rings exactly one doorbell",
                    bt.flushes, bt.leaders
                ));
            }
            if bt.verbs() != bt.carried {
                failures.push(format!(
                    "{label}: closed batches carried {} verbs but {} were scheduled",
                    bt.carried,
                    bt.verbs()
                ));
            }
        }
        (None, false) => {}
    }
}

/// Runs one (engine, point, mode) configuration twice, checks the
/// invariants and rerun determinism, and returns the first run.
fn run_mode(
    protocol: Protocol,
    point: &Point,
    batched: bool,
    timeseries: bool,
    measure: u64,
    failures: &mut Vec<String>,
) -> RunOutcome {
    let mode = if batched { "batched" } else { "off" };
    let label = format!("{protocol}/{}/{mode}", point.label);
    let mut cfg = point.config(batched);
    if timeseries {
        cfg = cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    let obs = run_once(protocol, cfg.clone(), point, measure);
    check_invariants(&label, &obs, measure, failures);
    let rerun = run_once(protocol, cfg, point, measure);
    if obs.out.stats.to_json().render() != rerun.out.stats.to_json().render() {
        failures.push(format!("{label}: rerun with identical config diverged"));
    }
    if let Some(ts) = obs.out.stats.timeseries.as_ref().filter(|_| batched) {
        let peak = ts.windows().iter().max_by_key(|w| w.batch_verbs);
        if let Some(w) = peak.filter(|w| w.batch_flushes > 0) {
            eprintln!(
                "  {label}: peak batch window #{}: {} flushes, {:.2} verbs/flush",
                w.idx,
                w.batch_flushes,
                w.batch_verbs as f64 / w.batch_flushes as f64
            );
        }
    }
    eprintln!("  done: {label}");
    obs.out
}

fn main() {
    let quick = has_flag("--quick");
    let timeseries = has_flag("--timeseries");
    let measure: u64 = if quick { 1_000 } else { 5_000 };
    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut cells: Vec<Json> = Vec::new();

    // Gating sanity: a config that never mentions batching and one that
    // explicitly installs the disabled default must be byte-identical.
    let point = &POINTS[1];
    let implicit = run_once(Protocol::Hades, SimConfig::isca_default(), point, measure);
    let explicit = run_once(
        Protocol::Hades,
        SimConfig::isca_default().with_batching(BatchingParams::default()),
        point,
        measure,
    );
    if implicit.out.stats.to_json().render() != explicit.out.stats.to_json().render() {
        failures.push(
            "explicitly-disabled BatchingParams::default() diverged from a config that \
             never mentioned batching"
                .to_string(),
        );
    }

    for protocol in Protocol::ALL {
        for point in &POINTS {
            let label = format!("{protocol}/{}", point.label);
            let off = run_mode(protocol, point, false, timeseries, measure, &mut failures);
            let on = run_mode(protocol, point, true, timeseries, measure, &mut failures);
            let (off, on) = (&off.stats, &on.stats);
            let gain = on.throughput() / off.throughput().max(1e-9);
            eprintln!("  {label}: batched gain over off = {gain:.3}x");
            if gain < 1.0 - THROUGHPUT_SLACK {
                failures.push(format!(
                    "{label}: batched throughput {:.0} txn/s trails batching off {:.0} \
                     by more than {:.0}%",
                    on.throughput(),
                    off.throughput(),
                    THROUGHPUT_SLACK * 100.0
                ));
            }
            let p99_limit = off.p99_latency().get() as f64 * (1.0 + LIGHT_P99_SLACK);
            if point.light && on.p99_latency().get() as f64 > p99_limit {
                failures.push(format!(
                    "{label}: light-load batched p99 {} exceeds batching off {} by more \
                     than {:.0}%",
                    on.p99_latency(),
                    off.p99_latency(),
                    LIGHT_P99_SLACK * 100.0
                ));
            }
            let bt = on.batching.as_ref();
            rows.push(vec![
                protocol.label().to_string(),
                point.label.to_string(),
                format!("{:.0}", off.throughput()),
                format!("{:.0}", on.throughput()),
                format!("{gain:.3}x"),
                format!("{:.1}", off.p99_latency().as_micros()),
                format!("{:.1}", on.p99_latency().as_micros()),
                format!("{:.2}", bt.map_or(0.0, |b| b.mean_occupancy())),
                bt.map_or(0, |b| b.coalesced_squashes).to_string(),
            ]);
            cells.push(
                Json::obj()
                    .field("protocol", protocol.label())
                    .field("point", point.label)
                    .field("theta", point.theta)
                    .field("gain_over_off", gain)
                    .field("off", off.to_json())
                    .field("batched", on.to_json())
                    .build(),
            );
        }
    }

    print_table(
        "batching vs off (YCSB HT-wA)",
        &[
            "engine",
            "point",
            "off txn/s",
            "batched txn/s",
            "gain",
            "off p99 us",
            "batched p99 us",
            "occ",
            "coalesced",
        ],
        &rows,
    );

    if let Some(path) = flag_value("--json") {
        let doc = Json::obj()
            .field("schema", Json::str("hades-report/v1"))
            .field("report", Json::str("batching"))
            .field("quick", Json::Bool(quick))
            .field(
                "failures",
                Json::Arr(failures.iter().map(Json::str).collect()),
            )
            .field("cells", Json::Arr(cells))
            .build();
        write_json_report(&path, &doc);
    }

    if failures.is_empty() {
        println!(
            "\nall batching checks held: batched throughput >= off (within {:.0}%) in every \
             cell, light-load p99 no worse than off (within {:.0}%), batching-off runs \
             byte-identical, deterministic reruns, no leaks.",
            THROUGHPUT_SLACK * 100.0,
            LIGHT_P99_SLACK * 100.0
        );
    } else {
        eprintln!("\n{} check(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
