//! TPC-C on growing clusters: run the paper's most request-intensive
//! workload (~13.5 record accesses per transaction) under all three
//! protocols at N=5 and N=10 nodes, printing the phase-level latency
//! anatomy that explains *why* HADES wins (Fig 10's story).
//!
//! Run: `cargo run --release --example tpcc_cluster`

use hades::core::runner::{Experiment, Protocol, Run};
use hades::sim::config::{ClusterShape, SimConfig};
use hades::workloads::catalog::AppId;

fn main() {
    let shapes = [
        ("N=5, C=5 (default)", ClusterShape::DEFAULT),
        ("N=10, C=5 (Fig 13)", ClusterShape::N10_C5),
    ];
    for (label, shape) in shapes {
        println!("\n=== {label} ===");
        println!(
            "{:<9} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "protocol", "txn/s", "mean us", "exec us", "valid us", "commit us"
        );
        let ex = Experiment {
            cfg: SimConfig::isca_default().with_shape(shape),
            scale: 0.01,
            warmup: 200,
            measure: 2_000,
        };
        let app = AppId::parse("TPC-C").expect("known app");
        let mut base_tput = 0.0;
        for p in Protocol::ALL {
            let s = Run::apps(p, &ex, &[app]).run().stats;
            if p == Protocol::Baseline {
                base_tput = s.throughput();
            }
            let n = s.committed.max(1) as f64;
            println!(
                "{:<9} {:>12.0} {:>10.2} {:>10.2} {:>10.2} {:>10.2}   ({:.2}x)",
                p.label(),
                s.throughput(),
                s.mean_latency().as_micros(),
                s.phases.execution as f64 / n / 2000.0,
                s.phases.validation as f64 / n / 2000.0,
                s.phases.commit as f64 / n / 2000.0,
                s.throughput() / base_tput,
            );
        }
    }
    println!("\nExpected shape: HADES' advantage is largest on TPC-C (many small");
    println!("requests per transaction => Baseline's per-request software overheads");
    println!("dominate), and the speedups persist at N=10 (Fig 13).");
}
