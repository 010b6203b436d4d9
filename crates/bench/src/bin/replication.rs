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
//! Run: `cargo run --release -p hades-bench --bin replication [--quick]`

use hades_bench::{experiment_from_args, fmt_pct, print_table};
use hades_core::runner::{Experiment, Protocol, Run};
use hades_core::stats::SquashReason;
use hades_fault::FaultPlan;
use hades_sim::config::SimConfig;
use hades_storage::db::Database;
use hades_workloads::catalog::AppId;
use hades_workloads::smallbank::{Smallbank, SmallbankConfig};

fn main() {
    let ex = experiment_from_args();

    // Part 1: cost of replication.
    let mut rows = Vec::new();
    for degree in [0usize, 1, 2] {
        let ex = Experiment {
            cfg: SimConfig::isca_default().with_replication(degree),
            ..ex.clone()
        };
        let stats = Run::apps(Protocol::Hades, &ex, &[AppId::parse("HT-wA").unwrap()])
            .run()
            .stats;
        rows.push(vec![
            format!("f={degree}"),
            format!("{:.0}", stats.throughput()),
            format!("{:.2}", stats.mean_latency().as_micros()),
            stats.replica_persists.to_string(),
            stats.messages.to_string(),
        ]);
        eprintln!("  done: degree={degree}");
    }
    print_table(
        "Replication degree vs HADES performance (HT-wA)",
        &["replicas", "txn/s", "mean us", "persists", "messages"],
        &rows,
    );
    println!("\nExpected: each replica adds a prepare+persist to the commit's");
    println!("critical path (NVM-class 1 us persist), costing throughput but");
    println!("keeping the one-round-trip commit structure.");

    // Part 2: message loss.
    let mut rows = Vec::new();
    for loss in [0.0f64, 0.01, 0.05, 0.10] {
        let cfg = SimConfig::isca_default().with_replication(1);
        let plan = FaultPlan::from_loss(loss, cfg.seed);
        let mut db = Database::new(cfg.shape.nodes);
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts: 2_000,
                hotspot: None,
            },
        );
        let bank = Box::new(sb.clone());
        let out = Run::loaded(Protocol::Hades, cfg, db, bank, 0, ex.measure)
            .plan(plan)
            .run();
        let conserved = sb.total_money(&out.cluster.db)
            == sb.initial_total().wrapping_add(out.total_sum_delta as u64);
        rows.push(vec![
            fmt_pct(loss),
            format!("{:.0}", out.stats.throughput()),
            out.stats.faults.drops.to_string(),
            out.stats
                .squashes_for(SquashReason::CommitTimeout)
                .to_string(),
            out.stats.recovery.timeout_retries.to_string(),
            fmt_pct(out.stats.abort_rate()),
            if conserved { "yes" } else { "NO" }.to_string(),
        ]);
        assert!(conserved, "conservation violated at loss={loss}");
        assert_eq!(
            out.replica_pending_leaked, 0,
            "replica-prepare entries leaked at loss={loss}"
        );
        eprintln!("  done: loss={loss}");
    }
    print_table(
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
        &rows,
    );
    println!("\nExpected: losses surface as commit timeouts and aborts; the");
    println!("two-phase commit never half-applies a transaction (Section V-A).");
}
