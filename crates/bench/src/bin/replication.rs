//! Extension experiment — fault tolerance and durability (Section V-A).
//!
//! The paper outlines (without evaluating) how HADES attains fault
//! tolerance: writes update replicas on other nodes, replicas persist to
//! temporary durable storage before Ack-ing the Intend-to-commit, and the
//! two-phase commit turns lost messages into clean aborts. This driver
//! quantifies that outline:
//!
//! 1. throughput and latency vs replication degree (0 / 1 / 2), and
//! 2. behaviour under commit-message loss (injected via a seeded
//!    [`FaultPlan`]): abort rates rise, but every run's Smallbank ledger
//!    still conserves money.
//!
//! Every run passes the shared sweep checks (`hades_bench::sweep`):
//! exactly the measured commits, no leaks (replica prepares included), a
//! byte-identical rerun, and for Smallbank money conservation and a
//! gapless commit history. A violation is listed and exits 1.
//!
//! Run: `cargo run --release -p hades-bench --bin replication [--quick]`

use hades_bench::sweep::{Load, Scenario, Sweep};
use hades_bench::{experiment_from_args, fmt_pct};
use hades_core::runner::Protocol;
use hades_core::stats::SquashReason;
use hades_fault::FaultPlan;
use hades_sim::config::SimConfig;

fn main() {
    let ex = experiment_from_args();
    let mut sweep = Sweep::new(None);

    // Part 1: cost of replication, on the catalog's HT-wA.
    for degree in [0usize, 1, 2] {
        let cfg = SimConfig::isca_default().with_replication(degree);
        let sc = Scenario {
            warmup: ex.warmup,
            ..Scenario::new("HT-wA", cfg, Load::ht_wa(0.99, ex.scale), ex.measure)
        };
        let trial = sweep.check(&format!("degree={degree}"), Protocol::Hades, &sc, |_, _| {});
        let stats = &trial.out.stats;
        sweep.rows.push(vec![
            format!("f={degree}"),
            format!("{:.0}", stats.throughput()),
            format!("{:.2}", stats.mean_latency().as_micros()),
            stats.replica_persists.to_string(),
            stats.messages.to_string(),
        ]);
    }
    sweep.table(
        "Replication degree vs HADES performance (HT-wA)",
        &["replicas", "txn/s", "mean us", "persists", "messages"],
    );
    println!("\nExpected: each replica adds a prepare+persist to the commit's");
    println!("critical path (NVM-class 1 us persist), costing throughput but");
    println!("keeping the one-round-trip commit structure.");

    // Part 2: message loss.
    for loss in [0.0f64, 0.01, 0.05, 0.10] {
        let cfg = SimConfig::isca_default().with_replication(1);
        let plan = FaultPlan::from_loss(loss, cfg.seed);
        let sc = Scenario::new("loss", cfg, Load::bank(2_000, None), ex.measure).plan(plan);
        let trial = sweep.check(&format!("loss={loss}"), Protocol::Hades, &sc, |_, _| {});
        let stats = &trial.out.stats;
        sweep.rows.push(vec![
            fmt_pct(loss),
            format!("{:.0}", stats.throughput()),
            stats.faults.drops.to_string(),
            stats.squashes_for(SquashReason::CommitTimeout).to_string(),
            stats.recovery.timeout_retries.to_string(),
            fmt_pct(stats.abort_rate()),
            trial.conserved_cell(),
        ]);
    }
    sweep.table(
        "Commit-message loss vs HADES (Smallbank, 1 replica)",
        &[
            "loss",
            "txn/s",
            "dropped",
            "timeouts",
            "retries",
            "abort rate",
            "conserved",
        ],
    );
    println!("\nExpected: losses surface as commit timeouts and aborts; the");
    println!("two-phase commit never half-applies a transaction (Section V-A).");
    sweep.finish();
}
