//! Overload harness: sweeps admission control on/off across Zipfian skew
//! and Locking Buffer capacity, asserting graceful degradation.
//!
//! For every (admission × theta × LB capacity) cell the HADES run must:
//!
//! * finish with every measured transaction committed (no livelock, even
//!   at theta 0.99 with a single Locking Buffer bank slot),
//! * leak no record locks, Locking Buffers, or NIC remote-transaction
//!   filters past the drain,
//! * be **deterministic**: rerunning the identical config + seed must
//!   reproduce byte-identical stats JSON, and
//! * with admission off, report a zero `overload` stats block — the
//!   overload machinery is pay-for-what-you-use, so a default config run
//!   is byte-identical to one built before the overload layer existed.
//!
//! The aggressive sweep additionally asserts that the degradation
//! machinery actually engaged somewhere: at least one cell must shed
//! admissions, degrade a commit to software validation, or boost an aged
//! transaction.
//!
//! Run: `cargo run --release -p hades-bench --bin overload` (`--quick`
//! for the CI smoke subset). Exits non-zero listing every violated
//! invariant. `--json <path>` additionally writes a machine-readable
//! report (conventionally under `results/`). `--timeseries` enables the
//! windowed time-series layer: each cell prints its peak Locking-Buffer
//! occupancy and the window where admission shedding peaked, the
//! rerun-determinism check then also covers the `timeseries` JSON block,
//! and the report cells embed it.

use hades_bench::{flag_value, has_flag, print_table, write_json_report};
use hades_core::runner::{Protocol, Run};
use hades_core::runtime::RunOutcome;
use hades_sim::config::{OverloadParams, SimConfig};
use hades_sim::time::Cycles;
use hades_storage::db::Database;
use hades_storage::index::IndexKind;
use hades_telemetry::json::Json;
use hades_workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

/// Key-count scale factor: 4 M paper keys → 2 000, so the Zipfian hot set
/// genuinely contends at high theta.
const SCALE: f64 = 0.0005;

/// Time-series window for `--timeseries` runs: overload runs span a few
/// hundred microseconds of sim time, so 20 us yields 10+ windows.
const TS_WINDOW_US: u64 = 20;

/// One finished run plus the record-lock leak observation.
struct Observed {
    out: RunOutcome,
    records_locked: bool,
    keys: u64,
}

fn run_once(cfg: SimConfig, theta: f64, measure: u64) -> Observed {
    let mut db = Database::new(cfg.shape.nodes);
    let ycsb = Ycsb::setup(
        &mut db,
        YcsbConfig {
            theta,
            ..YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A).scaled(SCALE)
        },
    );
    let keys = (4_000_000f64 * SCALE) as u64;
    let table = ycsb.table();
    let out = Run::loaded(Protocol::Hades, cfg, db, Box::new(ycsb), 0, measure).run();
    let mut records_locked = false;
    for key in 0..keys {
        let rid = out.cluster.db.lookup(table, key).expect("key loaded").rid;
        records_locked |= out.cluster.db.record(rid).is_locked();
    }
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
}

/// Runs one sweep cell twice, checks invariants and rerun determinism,
/// and returns a report row.
#[allow(clippy::too_many_arguments)]
fn scenario(
    admission: bool,
    theta: f64,
    lb_slots: Option<usize>,
    timeseries: bool,
    measure: u64,
    failures: &mut Vec<String>,
    overload_activity: &mut u64,
    cells: &mut Vec<Json>,
) -> Vec<String> {
    let lb_label = lb_slots.map_or("full".to_string(), |s| s.to_string());
    let label = format!(
        "admission={}/theta={theta}/lb={lb_label}",
        if admission { "on" } else { "off" }
    );
    let mut cfg = SimConfig::isca_default();
    if let Some(slots) = lb_slots {
        cfg = cfg.with_lock_buffer_slots(slots);
    }
    if admission {
        cfg = cfg.with_overload(OverloadParams::aggressive());
    }
    if timeseries {
        cfg = cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    let obs = run_once(cfg.clone(), theta, measure);
    check_invariants(&label, &obs, measure, failures);
    let rerun = run_once(cfg, theta, measure);
    let a = obs.out.stats.to_json().render();
    let b = rerun.out.stats.to_json().render();
    if a != b {
        failures.push(format!("{label}: rerun with identical config diverged"));
    }
    if let Some(ts) = &obs.out.stats.timeseries {
        let peak_lb = ts
            .windows()
            .iter()
            .map(|w| {
                if w.occupancy.lb_slots == 0 {
                    0.0
                } else {
                    w.occupancy.lb_occupied as f64 / w.occupancy.lb_slots as f64
                }
            })
            .fold(0.0f64, f64::max);
        let shed_peak = ts.windows().iter().max_by_key(|w| w.admission);
        eprintln!(
            "  {label}: {} windows; peak LB occupancy {:.1}%; peak shed window {}",
            ts.windows().len(),
            peak_lb * 100.0,
            shed_peak
                .filter(|w| w.admission > 0)
                .map_or("none".to_string(), |w| format!(
                    "#{} ({} throttled)",
                    w.idx, w.admission
                )),
        );
    }
    cells.push(
        Json::obj()
            .field("admission", Json::Bool(admission))
            .field("theta", theta)
            .field("lb_slots", Json::str(lb_label.as_str()))
            .field("stats", obs.out.stats.to_json())
            .build(),
    );
    let s = &obs.out.stats;
    if !admission && !s.overload.is_zero() {
        failures.push(format!(
            "{label}: overload stats non-zero with the machinery disabled"
        ));
    }
    if admission {
        *overload_activity += s.overload.admission_throttled
            + s.overload.degraded_commits
            + s.overload.starvation_boosts;
    }
    let goodput = s.committed as f64 / (s.elapsed.get().max(1) as f64 / 1e6);
    vec![
        if admission { "on" } else { "off" }.to_string(),
        format!("{theta}"),
        lb_label,
        s.committed.to_string(),
        s.squashes.to_string(),
        s.fallbacks.to_string(),
        s.overload.admission_throttled.to_string(),
        s.overload.degraded_commits.to_string(),
        s.overload.starvation_boosts.to_string(),
        s.overload.max_attempts.to_string(),
        format!("{goodput:.1}"),
    ]
}

fn main() {
    let quick = has_flag("--quick");
    let timeseries = has_flag("--timeseries");
    let measure: u64 = if quick { 300 } else { 600 };
    let thetas: &[f64] = if quick { &[0.99] } else { &[0.6, 0.9, 0.99] };
    let lb_sweep: &[Option<usize>] = if quick {
        &[Some(1), None]
    } else {
        &[Some(1), Some(4), None]
    };
    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut overload_activity = 0u64;
    let mut cells: Vec<Json> = Vec::new();

    for &admission in &[false, true] {
        for &theta in thetas {
            for &lb in lb_sweep {
                rows.push(scenario(
                    admission,
                    theta,
                    lb,
                    timeseries,
                    measure,
                    &mut failures,
                    &mut overload_activity,
                    &mut cells,
                ));
                eprintln!(
                    "  done: admission={} theta={theta} lb={:?}",
                    if admission { "on" } else { "off" },
                    lb
                );
            }
        }
    }

    if overload_activity == 0 {
        failures.push(
            "aggressive sweep: no admission throttles, degraded commits, or starvation boosts \
             anywhere — the overload machinery never engaged"
                .to_string(),
        );
    }

    print_table(
        "overload sweep (YCSB HT-wA, HADES engine)",
        &[
            "admission",
            "theta",
            "lb slots",
            "committed",
            "squashes",
            "fallbacks",
            "throttled",
            "degraded",
            "boosts",
            "max att",
            "commits/Mcyc",
        ],
        &rows,
    );

    if let Some(path) = flag_value("--json") {
        let doc = Json::obj()
            .field("schema", Json::str("hades-report/v1"))
            .field("report", Json::str("overload"))
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
        println!("\nall invariants held: no livelock, no leaks, deterministic reruns, zero-overload runs untouched.");
    } else {
        eprintln!("\n{} invariant violation(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
