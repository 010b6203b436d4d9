//! Overload harness: sweeps admission control on/off across Zipfian skew
//! and Locking Buffer capacity, asserting graceful degradation.
//!
//! Every (admission × theta × LB capacity) cell's HADES run must pass
//! the shared sweep checks (`hades_bench::sweep`): every measured
//! transaction commits (no livelock, even at theta 0.99 with a single
//! Locking Buffer bank slot), nothing leaks past the drain, and a rerun
//! of the identical config + seed is byte-identical. With admission off, report a zero `overload` stats block — the
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

use hades_bench::has_flag;
use hades_bench::sweep::{Load, Scenario, Sweep};
use hades_core::runner::Protocol;
use hades_sim::config::{OverloadParams, SimConfig};
use hades_sim::time::Cycles;
use hades_telemetry::json::Json;

/// Key-count scale factor: 4 M paper keys → 2 000, so the Zipfian hot set
/// genuinely contends at high theta.
const SCALE: f64 = 0.0005;

/// Time-series window for `--timeseries` runs: overload runs span a few
/// hundred microseconds of sim time, so 20 us yields 10+ windows.
const TS_WINDOW_US: u64 = 20;

fn main() {
    let mut sweep = Sweep::new(Some("overload"));
    let quick = sweep.quick;
    let measure: u64 = if quick { 300 } else { 600 };
    let thetas: &[f64] = if quick { &[0.99] } else { &[0.6, 0.9, 0.99] };
    let lb_sweep: &[Option<usize>] = if quick {
        &[Some(1), None]
    } else {
        &[Some(1), Some(4), None]
    };
    let mut overload_activity = 0u64;

    for admission in [false, true] {
        let on_off = if admission { "on" } else { "off" };
        for &theta in thetas {
            for &lb_slots in lb_sweep {
                let lb_label = lb_slots.map_or("full".to_string(), |s| s.to_string());
                let label = format!("admission={on_off}/theta={theta}/lb={lb_label}");
                let mut cfg = SimConfig::isca_default();
                if let Some(slots) = lb_slots {
                    cfg = cfg.with_lock_buffer_slots(slots);
                }
                if admission {
                    cfg = cfg.with_overload(OverloadParams::aggressive());
                }
                if has_flag("--timeseries") {
                    cfg = cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
                }
                let sc = Scenario::new(&label, cfg, Load::ht_wa(theta, SCALE), measure);
                let trial = sweep.check(&label, Protocol::Hades, &sc, |s, bad| {
                    let o = &s.overload;
                    if !admission && !o.is_zero() {
                        bad.push("overload stats non-zero with the machinery disabled".to_string());
                    }
                    if admission {
                        overload_activity +=
                            o.admission_throttled + o.degraded_commits + o.starvation_boosts;
                    }
                });
                let s = &trial.out.stats;
                if let Some(ts) = &s.timeseries {
                    let peak_lb = ts
                        .windows()
                        .iter()
                        .map(|w| {
                            w.occupancy.lb_occupied as f64 / w.occupancy.lb_slots.max(1) as f64
                        })
                        .fold(0.0f64, f64::max);
                    let shed_peak = ts.windows().iter().max_by_key(|w| w.admission);
                    eprintln!(
                        "  {label}: {} windows; peak LB occupancy {:.1}%; peak shed window {}",
                        ts.windows().len(),
                        peak_lb * 100.0,
                        shed_peak.filter(|w| w.admission > 0).map_or(
                            "none".to_string(),
                            |w| format!("#{} ({} throttled)", w.idx, w.admission)
                        ),
                    );
                }
                sweep.cells.push(
                    Json::obj()
                        .field("admission", Json::Bool(admission))
                        .field("theta", theta)
                        .field("lb_slots", Json::str(lb_label.as_str()))
                        .field("stats", s.to_json())
                        .build(),
                );
                let goodput = s.committed as f64 / (s.elapsed.get().max(1) as f64 / 1e6);
                sweep.rows.push(vec![
                    on_off.to_string(),
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
                ]);
            }
        }
    }

    if overload_activity == 0 {
        sweep.failures.push(
            "aggressive sweep: no admission throttles, degraded commits, or starvation boosts \
             anywhere — the overload machinery never engaged"
                .to_string(),
        );
    }

    sweep.table(
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
    );
    sweep.finish();
    println!("\nall invariants held: no livelock, no leaks, deterministic reruns, zero-overload runs untouched.");
}
