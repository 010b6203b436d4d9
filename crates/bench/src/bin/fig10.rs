//! Fig 10 — mean transaction latency with Execution/Validation/Commit
//! phase breakdown, normalized to Baseline.
//!
//! Paper: HADES-H and HADES reduce mean latency by 54% and 60%; Execution
//! dominates the Baseline, Validation is second; HADES and HADES-H have no
//! separate Commit phase.
//!
//! Run: `cargo run --release -p hades-bench --bin fig10 [--quick]`

use hades_bench::{experiment_from_args, print_table};
use hades_core::runner::{Protocol, Run};
use hades_workloads::catalog::AppId;

fn main() {
    let ex = experiment_from_args();
    let mut rows = Vec::new();
    let mut reductions = [Vec::new(), Vec::new()];
    for app in AppId::FIG9 {
        let mut base_mean = 0.0;
        for (i, p) in Protocol::ALL.into_iter().enumerate() {
            let s = Run::apps(p, &ex, &[app]).run().stats;
            let n = s.committed.max(1);
            let mean = s.mean_latency().get() as f64;
            if i == 0 {
                base_mean = mean.max(1.0);
            } else {
                reductions[i - 1].push(1.0 - mean / base_mean);
            }
            rows.push(vec![
                app.label(),
                p.label().into(),
                format!("{:.2}", s.mean_latency().as_micros()),
                format!("{:.3}", mean / base_mean),
                format!("{:.2}", s.phases.execution as f64 / n as f64 / 2000.0),
                format!("{:.2}", s.phases.validation as f64 / n as f64 / 2000.0),
                format!("{:.2}", s.phases.commit as f64 / n as f64 / 2000.0),
            ]);
        }
        eprintln!("  done: {}", app.label());
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
