//! Batching harness: runs every protocol engine on YCSB HT-wA with verb
//! batching off and on (adaptive doorbell coalescing, DESIGN.md §14) and
//! checks that batching is a net win against the real off path.
//!
//! Each workload point runs every engine twice per mode. Every run must
//! pass the shared sweep checks (`hades_bench::sweep`): every measured
//! transaction commits (no livelock), nothing leaks past the drain, and
//! a rerun of the identical config + seed is byte-identical. Also:
//!
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

use hades_bench::has_flag;
use hades_bench::sweep::{Load, Scenario, Sweep};
use hades_core::runner::Protocol;
use hades_core::stats::RunStats;
use hades_sim::config::{BatchingParams, ClusterShape, SimConfig};
use hades_sim::time::Cycles;
use hades_telemetry::json::Json;

/// Time-series window for `--timeseries` runs.
const TS_WINDOW_US: u64 = 20;

/// Batched committed throughput may trail batching off by at most this
/// fraction.
const THROUGHPUT_SLACK: f64 = 0.02;

/// Light-load batched p99 may exceed batching off by at most this
/// fraction.
const LIGHT_P99_SLACK: f64 = 0.01;

/// One simulated client per node: the fabric is nearly idle.
const LIGHT: ClusterShape = ClusterShape {
    nodes: 5,
    cores_per_node: 1,
    slots_per_core: 1,
};

/// One workload point of the sweep: a name, Zipfian theta, key-count
/// scale against the paper's 4M keys, cluster shape (`None` keeps the
/// paper's), and whether the light-load p99 check applies.
type Point = (&'static str, f64, f64, Option<ClusterShape>, bool);

const POINTS: [Point; 4] = [
    // 2k keys, so the Zipfian hot set genuinely contends at high theta.
    ("theta0.6", 0.6, 0.0005, None, false),
    ("theta0.99", 0.99, 0.0005, None, false),
    // Five clients over 40k keys: so few conflicts that p99 measures the
    // verb path, not whether the hundredth-slowest commit was a retry.
    ("light", 0.6, 0.01, Some(LIGHT), true),
    ("bench", 0.6, 0.01, None, false),
];

/// `point`'s scenario with batching off or on; `measure / 10` commits of
/// warmup.
fn scenario(point: &Point, batched: bool, timeseries: bool, measure: u64) -> Scenario {
    let &(name, theta, scale, shape, _) = point;
    let mut cfg = SimConfig::isca_default();
    if let Some(shape) = shape {
        cfg = cfg.with_shape(shape);
    }
    if batched {
        cfg = cfg.with_batching(BatchingParams::standard());
    }
    if timeseries {
        cfg = cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    Scenario {
        warmup: measure / 10,
        ..Scenario::new(name, cfg, Load::ht_wa(theta, scale), measure)
    }
}

/// Batching off must leave no `batching` stats block; batching on must
/// emit one whose flush accounting telescopes (leaders = flushes, verbs
/// = carried).
fn batching_block(batched: bool, s: &RunStats, bad: &mut Vec<String>) {
    match (&s.batching, batched) {
        (Some(_), false) => bad.push("batching block present with the subsystem off".to_string()),
        (None, true) => bad.push("batching block missing with the subsystem on".to_string()),
        (Some(bt), true) => {
            if bt.flushes != bt.leaders {
                bad.push(format!(
                    "{} flushes but {} leaders — every batch rings exactly one doorbell",
                    bt.flushes, bt.leaders
                ));
            }
            if bt.verbs() != bt.carried {
                bad.push(format!(
                    "closed batches carried {} verbs but {} were scheduled",
                    bt.carried,
                    bt.verbs()
                ));
            }
        }
        (None, false) => {}
    }
}

/// Runs one (engine, point, mode) cell through the shared checks and the
/// batching-block checks, prints a batched time-series run's peak batch
/// window, and returns the first run's stats.
fn run_mode(
    sweep: &mut Sweep,
    protocol: Protocol,
    point: &Point,
    batched: bool,
    timeseries: bool,
    measure: u64,
) -> RunStats {
    let sc = scenario(point, batched, timeseries, measure);
    let mode = if batched { "batched" } else { "off" };
    let label = format!("{protocol}/{}/{mode}", sc.name);
    let stats = sweep
        .check(&label, protocol, &sc, |s, bad| {
            batching_block(batched, s, bad)
        })
        .out
        .stats;
    if let Some(ts) = stats.timeseries.as_ref().filter(|_| batched) {
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
    stats
}

fn main() {
    let mut sweep = Sweep::new(Some("batching"));
    let timeseries = has_flag("--timeseries");
    let measure: u64 = if sweep.quick { 1_000 } else { 5_000 };

    // Gating sanity: a config that never mentions batching and one that
    // explicitly installs the disabled default must be byte-identical.
    let implicit = Scenario {
        name: "batching never mentioned".to_string(),
        ..scenario(&POINTS[1], false, false, measure)
    };
    let explicit = Scenario {
        name: "explicitly-disabled BatchingParams::default()".to_string(),
        cfg: SimConfig::isca_default().with_batching(BatchingParams::default()),
        ..implicit.clone()
    };
    let label = "HADES/theta0.99/explicit default";
    sweep.same_bytes(label, Protocol::Hades, &implicit, &explicit);

    for protocol in Protocol::ALL {
        for point in &POINTS {
            let &(name, theta, _, _, light) = point;
            let label = format!("{protocol}/{name}");
            let off = run_mode(&mut sweep, protocol, point, false, timeseries, measure);
            let on = run_mode(&mut sweep, protocol, point, true, timeseries, measure);
            let gain = on.throughput() / off.throughput().max(1e-9);
            eprintln!("  {label}: batched gain over off = {gain:.3}x");
            if gain < 1.0 - THROUGHPUT_SLACK {
                sweep.failures.push(format!(
                    "{label}: batched throughput {:.0} txn/s trails batching off {:.0} \
                     by more than {:.0}%",
                    on.throughput(),
                    off.throughput(),
                    THROUGHPUT_SLACK * 100.0
                ));
            }
            let p99_limit = off.p99_latency().get() as f64 * (1.0 + LIGHT_P99_SLACK);
            if light && on.p99_latency().get() as f64 > p99_limit {
                sweep.failures.push(format!(
                    "{label}: light-load batched p99 {} exceeds batching off {} by more \
                     than {:.0}%",
                    on.p99_latency(),
                    off.p99_latency(),
                    LIGHT_P99_SLACK * 100.0
                ));
            }
            let bt = on.batching.as_ref();
            sweep.rows.push(vec![
                protocol.label().to_string(),
                name.to_string(),
                format!("{:.0}", off.throughput()),
                format!("{:.0}", on.throughput()),
                format!("{gain:.3}x"),
                format!("{:.1}", off.p99_latency().as_micros()),
                format!("{:.1}", on.p99_latency().as_micros()),
                format!("{:.2}", bt.map_or(0.0, |b| b.mean_occupancy())),
                bt.map_or(0, |b| b.coalesced_squashes).to_string(),
            ]);
            sweep.cells.push(
                Json::obj()
                    .field("protocol", protocol.label())
                    .field("point", name)
                    .field("theta", theta)
                    .field("gain_over_off", gain)
                    .field("off", off.to_json())
                    .field("batched", on.to_json())
                    .build(),
            );
        }
    }

    sweep.table(
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
    );
    sweep.finish();
    println!(
        "\nall batching checks held: batched throughput >= off (within {:.0}%) in every \
         cell, light-load p99 no worse than off (within {:.0}%), batching-off runs \
         byte-identical, deterministic reruns, no leaks.",
        THROUGHPUT_SLACK * 100.0,
        LIGHT_P99_SLACK * 100.0
    );
}
