//! Figs 9, 10 and 11 — Baseline, HADES-H and HADES over all eleven
//! applications on the default cluster (N=5, C=5, m=2). One run per
//! engine and app feeds all three tables:
//!
//! * Fig 9, throughput normalized to Baseline. Paper: HADES-H and HADES
//!   achieve 2.3x and 2.7x the Baseline throughput on average; TPC-C
//!   shows the largest HADES win; write-intensive YCSB-A gains exceed
//!   read-intensive YCSB-B gains.
//! * Fig 10, mean latency with its Execution/Validation/Commit phase
//!   breakdown, normalized to Baseline. Paper: HADES-H and HADES reduce
//!   mean latency by 54% and 60%; Execution dominates the Baseline,
//!   Validation is second; HADES and HADES-H have no separate Commit
//!   phase.
//! * Fig 11, p95 (tail) latency normalized to Baseline. Paper: tail
//!   latency follows the same relative trends as mean latency
//!   (HADES < HADES-H < Baseline).
//!
//! Run: `cargo run --release -p hades-bench --bin fig9 [--quick]`

use hades_bench::{compare, experiment_from_args, print_speedups, print_table};
use hades_core::runner::{geomean, Protocol};
use hades_core::stats::RunStats;
use hades_workloads::catalog::AppId;

fn main() {
    let ex = experiment_from_args();
    let runs: Vec<(String, [RunStats; 3])> = AppId::FIG9
        .into_iter()
        .map(|app| {
            let stats = compare(&ex, &[app]);
            eprintln!("  done: {}", app.label());
            (app.label(), stats)
        })
        .collect();
    fig9(&runs);
    fig10(&runs);
    fig11(&runs);
}

fn fig9(runs: &[(String, [RunStats; 3])]) {
    let rows: Vec<_> = runs
        .iter()
        .map(|(app, s)| (vec![app.clone()], s.each_ref().map(RunStats::throughput)))
        .collect();
    print_speedups(
        "Fig 9 — throughput (txn/s) and speedup over Baseline",
        &["app"],
        &rows,
        true,
    );
    println!("\nPaper: average speedups are HADES-H 2.3x, HADES 2.7x.");
}

fn fig10(runs: &[(String, [RunStats; 3])]) {
    let mut rows = Vec::new();
    let mut reductions = [Vec::new(), Vec::new()];
    for (app, stats) in runs {
        let base_mean = (stats[0].mean_latency().get() as f64).max(1.0);
        for (i, (p, s)) in Protocol::ALL.into_iter().zip(stats).enumerate() {
            let n = s.committed.max(1);
            let mean = s.mean_latency().get() as f64;
            if i > 0 {
                reductions[i - 1].push(1.0 - mean / base_mean);
            }
            rows.push(vec![
                app.clone(),
                p.label().into(),
                format!("{:.2}", s.mean_latency().as_micros()),
                format!("{:.3}", mean / base_mean),
                format!("{:.2}", s.phases.execution as f64 / n as f64 / 2000.0),
                format!("{:.2}", s.phases.validation as f64 / n as f64 / 2000.0),
                format!("{:.2}", s.phases.commit as f64 / n as f64 / 2000.0),
            ]);
        }
    }
    print_table(
        "Fig 10 — mean latency (us) and phase breakdown (us/txn)",
        &[
            "app",
            "protocol",
            "mean us",
            "vs Base",
            "exec us",
            "valid us",
            "commit us",
        ],
        &rows,
    );
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nMeasured mean-latency reduction: HADES-H {:.0}%, HADES {:.0}%",
        avg(&reductions[0]) * 100.0,
        avg(&reductions[1]) * 100.0
    );
    println!("Paper: HADES-H 54%, HADES 60%.");
}

fn fig11(runs: &[(String, [RunStats; 3])]) {
    let mut rows = Vec::new();
    let mut ratios = [Vec::new(), Vec::new()];
    for (app, stats) in runs {
        let p95 = stats.each_ref().map(|s| s.p95_latency().get() as f64);
        let base = p95[0].max(1.0);
        ratios[0].push(p95[1] / base);
        ratios[1].push(p95[2] / base);
        let mut row = vec![app.clone()];
        row.extend(p95.map(|v| format!("{:.2}", v / 2000.0)));
        row.extend([p95[1], p95[2]].map(|v| format!("{:.3}", v / base)));
        rows.push(row);
    }
    rows.push(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:.3}", geomean(&ratios[0])),
        format!("{:.3}", geomean(&ratios[1])),
    ]);
    print_table(
        "Fig 11 — p95 tail latency (us) and ratio vs Baseline",
        &[
            "app",
            "Baseline",
            "HADES-H",
            "HADES",
            "H-H ratio",
            "HADES ratio",
        ],
        &rows,
    );
    println!("\nPaper: tail latency follows the same relative trends as the mean.");
}
