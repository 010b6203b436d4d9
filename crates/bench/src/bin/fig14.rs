//! Fig 14 — mixes of two workloads space-sharing each node: N=5 nodes with
//! C=10 cores, one workload on 5 cores and the other on the other 5.
//!
//! Paper: each mix's throughput is approximately the average of the two
//! workloads run separately (interference is small because the LLC is
//! large).
//!
//! Run: `cargo run --release -p hades-bench --bin fig14 [--quick]`

use hades_bench::{experiment_from_args, fmt_x, print_table};
use hades_core::runner::{Protocol, Run};
use hades_sim::config::ClusterShape;
use hades_workloads::catalog::{parse_mix, AppId};

const PAIRS: [[&str; 2]; 4] = [
    ["TPC-C", "TATP"],
    ["HT-wA", "BTree-wB"],
    ["Smallbank", "Map-wA"],
    ["B+Tree-wB", "HT-wB"],
];

fn main() {
    let mut ex = experiment_from_args();
    ex.cfg = ex.cfg.with_shape(ClusterShape::N5_C10);
    let mut rows = Vec::new();
    for pair in PAIRS {
        let apps: Vec<AppId> = parse_mix(&pair);
        let mut per_protocol = Vec::new();
        for p in Protocol::ALL {
            let stats = Run::apps(p, &ex, &apps).run().stats;
            per_protocol.push(stats.throughput());
        }
        let base = per_protocol[0].max(f64::MIN_POSITIVE);
        rows.push(vec![
            format!("{}+{}", pair[0], pair[1]),
            format!("{:.0}", per_protocol[0]),
            format!("{:.0}", per_protocol[1]),
            format!("{:.0}", per_protocol[2]),
            fmt_x(per_protocol[1] / base),
            fmt_x(per_protocol[2] / base),
        ]);
        eprintln!("  done: {}+{}", pair[0], pair[1]);
    }
    print_table(
        "Fig 14 — two-workload mixes at N=5, C=10 (txn/s; speedup over Baseline)",
        &[
            "mix",
            "Baseline",
            "HADES-H",
            "HADES",
            "HADES-H x",
            "HADES x",
        ],
        &rows,
    );
    println!("\nPaper: a mix's throughput is approximately the average of its two");
    println!("workloads run alone; HADES keeps its Fig 9 advantage.");
}
