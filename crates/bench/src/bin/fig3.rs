//! Fig 3 — execution-time breakdown of the optimized software protocol
//! (SW-Impl) into the Table I overhead categories.
//!
//! The paper runs YCSB-style workloads of five requests per transaction on
//! a 4-node cluster with three request mixes — 100%WR, 50%WR-50%RD and
//! 100%RD — and reports that the overhead categories account for 59%, 65%
//! and 71% of execution time respectively, with all bars normalized to the
//! 100%WR total.
//!
//! Run: `cargo run --release -p hades-bench --bin fig3 [--quick]`

use hades_bench::{experiment_from_args, fmt_pct, print_table};
use hades_core::runner::{Protocol, Run};
use hades_core::stats::Overhead;
use hades_sim::config::ClusterShape;
use hades_storage::db::Database;
use hades_storage::index::IndexKind;
use hades_workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

fn main() {
    let mut ex = experiment_from_args();
    // The Section III study ran on a 4-node cluster.
    ex.cfg.shape = ClusterShape {
        nodes: 4,
        cores_per_node: 5,
        slots_per_core: 2,
    };

    let mixes = [("100%WR", 1.0), ("50%WR-50%RD", 0.5), ("100%RD", 0.0)];
    let mut results = Vec::new();
    for (label, wf) in mixes {
        let mut db = Database::new(ex.cfg.shape.nodes);
        // Moderate skew: the Section III study is an anatomy of software
        // overheads, not a contention study.
        let cfg = YcsbConfig {
            theta: 0.5,
            ..YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A)
        }
        .scaled(ex.scale)
        .with_write_fraction(wf);
        let app = Box::new(Ycsb::setup(&mut db, cfg));
        let run = Run::loaded(
            Protocol::Baseline,
            ex.cfg.clone(),
            db,
            app,
            ex.warmup,
            ex.measure,
        );
        results.push((label, run.run().stats));
    }

    // Normalize all bars to the 100%WR total, as in the paper.
    let base_total =
        results[0].1.overhead.total().get().max(1) as f64 / results[0].1.committed.max(1) as f64;
    let mut rows = Vec::new();
    for (label, stats) in &results {
        let per_txn = |c: Overhead| {
            stats.overhead.get(c).get() as f64 / stats.committed.max(1) as f64 / base_total
        };
        let mut row = vec![label.to_string()];
        for cat in Overhead::ALL {
            row.push(format!("{:.3}", per_txn(cat)));
        }
        row.push(fmt_pct(stats.overhead.overhead_fraction()));
        rows.push(row);
    }
    print_table(
        "Fig 3 — SW-Impl execution time, normalized to 100%WR",
        &[
            "mix",
            "ManageSets",
            "UpdVersion",
            "ReadAtomic",
            "RdBeforeWr",
            "ConflictDet",
            "Other",
            "overhead%",
        ],
        &rows,
    );
    println!("\nPaper: combined overheads are 59% (100%WR), 65% (50/50) and 71% (100%RD).");
    println!("Paper: 100%WR is dominated by RD-before-WR and write-set management;");
    println!("       100%RD by conflict detection, read atomicity and read-set management.");
}
