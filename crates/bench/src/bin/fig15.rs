//! Fig 15 / Table V — mixes of four workloads on a 200-core cluster: N=8
//! nodes with C=25 cores each, cores of each node partitioned evenly among
//! the four applications.
//!
//! Paper: across the eight Table V mixes, HADES delivers 2.9x and HADES-H
//! 2.1x the Baseline throughput on average — HADES scales to large
//! machines.
//!
//! Run: `cargo run --release -p hades-bench --bin fig15 [--quick]`

use hades_bench::{compare, experiment_from_args, print_speedups};
use hades_sim::config::ClusterShape;
use hades_workloads::catalog::{parse_mix, TABLE_V_MIXES};

fn main() {
    let mut ex = experiment_from_args();
    ex.cfg = ex.cfg.with_shape(ClusterShape::N8_C25);
    // 200 cores commit fast; keep the measurement window proportional.
    ex.measure = (ex.measure * 4).max(2_000);
    let rows: Vec<_> = TABLE_V_MIXES
        .iter()
        .enumerate()
        .map(|(i, mix)| {
            let tput = compare(&ex, &parse_mix(mix)).map(|s| s.throughput());
            eprintln!("  done: mix{}", i + 1);
            (vec![format!("mix{}", i + 1), mix.join(",")], tput)
        })
        .collect();
    print_speedups(
        "Fig 15 — Table V four-workload mixes at N=8, C=25 (200 cores)",
        &["mix", "apps"],
        &rows,
        true,
    );
    println!("\nPaper: average speedups across mixes are HADES 2.9x, HADES-H 2.1x.");
}
