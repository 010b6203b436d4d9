//! Determinism and byte-identity guarantees of the canonical bench
//! harness (DESIGN.md §12).
//!
//! 1. Re-running the identical matrix at the same seed renders a
//!    byte-identical `BENCH_*.json` document.
//! 2. The phase profiler is pay-for-what-you-use: enabling it changes
//!    nothing about the run — stats JSON with the `profile` block
//!    stripped is byte-identical to an unprofiled run.
//! 3. With the profiler on, the per-phase sim-time totals telescope
//!    exactly: they sum to the end-to-end committed latency, per cell,
//!    for all three protocol engines.

use hades_bench::harness::{matrix_json, run_cell, run_matrix, BenchConfig, WORKLOADS};
use hades_core::runner::Protocol;

fn smoke(profile: bool) -> BenchConfig {
    BenchConfig {
        smoke: true,
        profile,
        ..BenchConfig::default()
    }
}

#[test]
fn same_seed_matrix_is_byte_identical() {
    let bc = smoke(false);
    let a = matrix_json(&run_matrix(&bc, |_| {}), &bc).render();
    let b = matrix_json(&run_matrix(&bc, |_| {}), &bc).render();
    assert_eq!(a, b, "same-seed matrix reruns must render identically");
}

#[test]
fn profiler_off_and_on_agree_byte_for_byte() {
    // One contended and one uncontended workload, every engine.
    for wl in [&WORKLOADS[0], &WORKLOADS[2]] {
        for protocol in Protocol::ALL {
            let plain = run_cell(wl, protocol, &smoke(false));
            let profiled = run_cell(wl, protocol, &smoke(true));
            let prof = profiled
                .stats
                .profile
                .as_ref()
                .unwrap_or_else(|| panic!("{} {protocol}: no profile block", wl.label()));
            assert!(prof.txns() > 0);
            // Strip the profile block; everything else must match the
            // unprofiled run exactly (no RNG draws, events, or stats
            // perturbed by observation).
            let mut stripped = profiled.stats.clone();
            stripped.profile = None;
            assert_eq!(
                stripped.to_json().render(),
                plain.stats.to_json().render(),
                "{} {protocol}: profiling perturbed the run",
                wl.label()
            );
        }
    }
}

#[test]
fn profiled_phase_totals_telescope_to_committed_latency() {
    for wl in [&WORKLOADS[1], &WORKLOADS[2]] {
        for protocol in Protocol::ALL {
            let cell = run_cell(wl, protocol, &smoke(true));
            let prof = cell.stats.profile.as_ref().expect("profile block");
            assert_eq!(
                prof.txns(),
                cell.stats.committed,
                "{} {protocol}: profiled txn count",
                wl.label()
            );
            assert_eq!(
                prof.total_cycles() as u128,
                cell.stats.latency.sum(),
                "{} {protocol}: phase totals must sum to end-to-end latency",
                wl.label()
            );
        }
    }
}
