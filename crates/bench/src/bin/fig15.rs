//! Fig 15 / Table V — mixes of four workloads on a 200-core cluster: N=8
//! nodes with C=25 cores each, cores of each node partitioned evenly among
//! the four applications.
//!
//! Paper: across the eight Table V mixes, HADES delivers 2.9x and HADES-H
//! 2.1x the Baseline throughput on average — HADES scales to large
//! machines.
//!
//! Run: `cargo run --release -p hades-bench --bin fig15 [--quick]`

use hades_bench::{experiment_from_args, fmt_x, print_table};
use hades_core::runner::{geomean, Protocol, Run};
use hades_sim::config::ClusterShape;
use hades_workloads::catalog::{parse_mix, TABLE_V_MIXES};

fn main() {
    let mut ex = experiment_from_args();
    ex.cfg = ex.cfg.with_shape(ClusterShape::N8_C25);
    // 200 cores commit fast; keep the measurement window proportional.
    ex.measure = (ex.measure * 4).max(2_000);
    let mut rows = Vec::new();
    let mut sp_hh = Vec::new();
    let mut sp_h = Vec::new();
    for (i, mix) in TABLE_V_MIXES.iter().enumerate() {
        let apps = parse_mix(mix);
        let mut tput = Vec::new();
        for p in Protocol::ALL {
            tput.push(Run::apps(p, &ex, &apps).run().stats.throughput());
        }
        let base = tput[0].max(f64::MIN_POSITIVE);
        sp_hh.push(tput[1] / base);
        sp_h.push(tput[2] / base);
        rows.push(vec![
            format!("mix{}", i + 1),
            mix.join(","),
            format!("{:.0}", tput[0]),
            format!("{:.0}", tput[1]),
            format!("{:.0}", tput[2]),
            fmt_x(tput[1] / base),
            fmt_x(tput[2] / base),
        ]);
        eprintln!("  done: mix{}", i + 1);
    }
    rows.push(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fmt_x(geomean(&sp_hh)),
        fmt_x(geomean(&sp_h)),
    ]);
    print_table(
        "Fig 15 — Table V four-workload mixes at N=8, C=25 (200 cores)",
        &[
            "mix",
            "apps",
            "Baseline",
            "HADES-H",
            "HADES",
            "HADES-H x",
            "HADES x",
        ],
        &rows,
    );
    println!("\nPaper: average speedups across mixes are HADES 2.9x, HADES-H 2.1x.");
}
