//! Fig 12 — sensitivity analyses.
//!
//! (a) Network round-trip latency in {1, 2, 3} µs: throughput averaged
//! over all applications, normalized to the 2 µs Baseline. Paper: HADES'
//! relative speedup grows as the network gets faster.
//!
//! (b) Fraction of requests targeting the local node in {80%, 50%, 20%},
//! normalized to the 20%-local Baseline. Paper: HADES' relative speedup
//! grows with locality, while HADES-H's shrinks rapidly (its local path is
//! software).
//!
//! Run: `cargo run --release -p hades-bench --bin fig12 [--quick]`

use hades_bench::{compare, experiment_from_args, fmt_x, print_table};
use hades_core::runner::{geomean, Experiment};
use hades_sim::time::Cycles;
use hades_workloads::catalog::AppId;

/// A representative application subset keeps the full sweep tractable; the
/// paper averages over all applications.
const APPS: [&str; 5] = ["TPC-C", "TATP", "Smallbank", "HT-wA", "BTree-wB"];

/// Each engine's geomean throughput over `APPS`, `Protocol::ALL` order.
fn mean_tputs(ex: &Experiment) -> [f64; 3] {
    let tputs = APPS.map(|a| compare(ex, &[AppId::parse(a).unwrap()]).map(|s| s.throughput()));
    [0, 1, 2].map(|i| geomean(&tputs.map(|t| t[i])))
}

fn main() {
    let base_ex = experiment_from_args();

    // (a) Network latency sweep.
    let mut rows = Vec::new();
    let mut base_2us = 0.0;
    for rt_us in [1u64, 2, 3] {
        let mut ex = base_ex.clone();
        ex.cfg = ex.cfg.with_net_rt(Cycles::from_micros(rt_us));
        let tputs = mean_tputs(&ex);
        if rt_us == 2 {
            base_2us = tputs[0];
        }
        rows.push((rt_us, tputs));
        eprintln!("  done: rt={rt_us}us");
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(rt, t)| {
            vec![
                format!("{rt}us"),
                fmt_x(t[0] / base_2us),
                fmt_x(t[1] / base_2us),
                fmt_x(t[2] / base_2us),
                fmt_x(t[2] / t[0]),
            ]
        })
        .collect();
    print_table(
        "Fig 12a — throughput vs network RT (normalized to 2us Baseline)",
        &["net RT", "Baseline", "HADES-H", "HADES", "HADES/Base"],
        &table,
    );
    println!("\nPaper: faster networks favor HADES even more (software overheads dominate).");

    // (b) Locality sweep.
    let mut rows = Vec::new();
    let mut base_20 = 0.0;
    for local_pct in [80u32, 50, 20] {
        let mut ex = base_ex.clone();
        ex.cfg = ex.cfg.with_local_fraction(local_pct as f64 / 100.0);
        let tputs = mean_tputs(&ex);
        if local_pct == 20 {
            base_20 = tputs[0];
        }
        rows.push((local_pct, tputs));
        eprintln!("  done: local={local_pct}%");
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(pct, t)| {
            vec![
                format!("{pct}%"),
                fmt_x(t[0] / base_20),
                fmt_x(t[1] / base_20),
                fmt_x(t[2] / base_20),
                fmt_x(t[2] / t[0]),
                fmt_x(t[1] / t[0]),
            ]
        })
        .collect();
    print_table(
        "Fig 12b — throughput vs local-request fraction (normalized to 20% Baseline)",
        &[
            "local",
            "Baseline",
            "HADES-H",
            "HADES",
            "HADES/Base",
            "H-H/Base",
        ],
        &table,
    );
    println!("\nPaper: more locality -> higher relative HADES speedup; HADES-H's");
    println!("speedup shrinks rapidly with locality (software local path).");
}
