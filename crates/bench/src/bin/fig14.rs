//! Fig 14 — mixes of two workloads space-sharing each node: N=5 nodes with
//! C=10 cores, one workload on 5 cores and the other on the other 5.
//!
//! Paper: each mix's throughput is approximately the average of the two
//! workloads run separately (interference is small because the LLC is
//! large).
//!
//! Run: `cargo run --release -p hades-bench --bin fig14 [--quick]`

use hades_bench::{compare, experiment_from_args, print_speedups};
use hades_sim::config::ClusterShape;
use hades_workloads::catalog::parse_mix;

const PAIRS: [[&str; 2]; 4] = [
    ["TPC-C", "TATP"],
    ["HT-wA", "BTree-wB"],
    ["Smallbank", "Map-wA"],
    ["B+Tree-wB", "HT-wB"],
];

fn main() {
    let mut ex = experiment_from_args();
    ex.cfg = ex.cfg.with_shape(ClusterShape::N5_C10);
    let rows: Vec<_> = PAIRS
        .iter()
        .map(|pair| {
            let label = pair.join("+");
            let tput = compare(&ex, &parse_mix(pair)).map(|s| s.throughput());
            eprintln!("  done: {label}");
            (vec![label], tput)
        })
        .collect();
    print_speedups(
        "Fig 14 — two-workload mixes at N=5, C=10 (txn/s; speedup over Baseline)",
        &["mix"],
        &rows,
        false,
    );
    println!("\nPaper: a mix's throughput is approximately the average of its two");
    println!("workloads run alone; HADES keeps its Fig 9 advantage.");
}
