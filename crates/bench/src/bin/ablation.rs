//! Ablation studies for the design choices called out in DESIGN.md §6.
//!
//! 1. **Transaction multiplexing (m)** — the `m` hardware slots per core
//!    hide remote latency. Sweeping m shows how much of each protocol's
//!    throughput comes from overlap vs raw path length.
//! 2. **Bloom-filter sizing** — shrinking the 1-Kbit read filters raises
//!    false-positive conflicts and squash rates; growing them wastes the
//!    area the paper budgets in Section VI.
//!
//! Run: `cargo run --release -p hades-bench --bin ablation [--quick]`

use hades_bench::{compare, experiment_from_args, fmt_pct, print_table};
use hades_core::runner::{Protocol, Run};
use hades_workloads::catalog::AppId;

fn main() {
    let base_ex = experiment_from_args();
    let app = AppId::parse("HT-wA").unwrap();

    // Ablation 1: slots per core.
    let mut rows = Vec::new();
    for m in [1usize, 2, 4] {
        let mut ex = base_ex.clone();
        ex.cfg.shape.slots_per_core = m;
        let mut row = vec![format!("m={m}")];
        row.extend(compare(&ex, &[app]).map(|s| format!("{:.0}", s.throughput())));
        rows.push(row);
        eprintln!("  done: m={m}");
    }
    print_table(
        "Ablation 1 — transactions multiplexed per core (HT-wA, txn/s)",
        &["config", "Baseline", "HADES-H", "HADES"],
        &rows,
    );
    println!("\nExpected: m=2 (the paper's value) roughly doubles latency-bound");
    println!("throughput; the CPU-bound Baseline benefits less.");

    // Ablation 2: read Bloom-filter size (HADES).
    let mut rows = Vec::new();
    for bits in [128usize, 512, 1024, 4096] {
        let mut ex = base_ex.clone();
        ex.cfg.bloom.core_read_bits = bits;
        ex.cfg.bloom.nic_read_bits = bits;
        ex.cfg.bloom.nic_write_bits = bits;
        let s = Run::apps(Protocol::Hades, &ex, &[app]).run().stats;
        rows.push(vec![
            format!("{bits} bits"),
            format!("{:.0}", s.throughput()),
            s.squashes.to_string(),
            fmt_pct(s.false_positive_rate()),
        ]);
        eprintln!("  done: {bits} bits");
    }
    print_table(
        "Ablation 2 — Bloom-filter size (HADES on HT-wA)",
        &["read BF", "txn/s", "squashes", "FP conflict rate"],
        &rows,
    );
    println!("\nExpected: below ~512 bits false positives inflate squashes; the");
    println!("paper's 1-Kbit choice sits at the knee (Table IV).");
}
