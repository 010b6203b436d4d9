//! Fig 13 — throughput normalized to Baseline on a larger cluster: N=10
//! nodes, C=5 cores per node.
//!
//! Paper: HADES' speedups over Baseline at N=10 are similar to the N=5
//! speedups of Fig 9.
//!
//! Run: `cargo run --release -p hades-bench --bin fig13 [--quick]`

use hades_bench::{compare, experiment_from_args, print_speedups};
use hades_sim::config::ClusterShape;
use hades_workloads::catalog::AppId;

fn main() {
    let mut ex = experiment_from_args();
    ex.cfg = ex.cfg.with_shape(ClusterShape::N10_C5);
    let rows: Vec<_> = AppId::FIG9
        .into_iter()
        .map(|app| {
            let tput = compare(&ex, &[app]).map(|s| s.throughput());
            eprintln!("  done: {}", app.label());
            (vec![app.label()], tput)
        })
        .collect();
    print_speedups(
        "Fig 13 — throughput at N=10, C=5 (txn/s; speedup over Baseline)",
        &["app"],
        &rows,
        true,
    );
    println!("\nPaper: speedups at N=10 are similar to Fig 9's N=5 speedups.");
}
