//! Fault tolerance and durability (the paper's Section V-A outline):
//! replicate every write to ring-successor nodes, persist replica updates
//! to durable storage before Ack-ing, and inject faults from a seeded
//! [`FaultPlan`] to show the two-phase commit aborting cleanly instead of
//! half-applying — up to and including a full node crash and restart.
//!
//! Run: `cargo run --release --example fault_tolerance`

use hades::core::runner::{Protocol, Run};
use hades::core::stats::SquashReason;
use hades::fault::FaultPlan;
use hades::sim::config::SimConfig;
use hades::sim::time::Cycles;
use hades::storage::db::Database;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig};

fn run(replicas: usize, label: &str, plan: FaultPlan) {
    let cfg = SimConfig::isca_default().with_replication(replicas);
    let mut db = Database::new(cfg.shape.nodes);
    let bank = Smallbank::setup(
        &mut db,
        SmallbankConfig {
            accounts: 2_000,
            hotspot: None,
        },
    );
    let out = Run::loaded(Protocol::Hades, cfg, db, Box::new(bank.clone()), 0, 2_000)
        .plan(plan)
        .run();

    let conserved = bank.check_conservation(&out.cluster.db, out.total_sum_delta);
    assert_eq!(conserved, Ok(()), "replicas={replicas} {label}");
    println!(
        "replicas={replicas} {label:<12} | {:>9.0} txn/s  persists={:>5}  dropped={:>4}  timeouts={:>4}  retries={:>4}  crash+rst={}  ledger: CONSERVED",
        out.stats.throughput(),
        out.stats.replica_persists,
        out.stats.faults.drops,
        out.stats.squashes_for(SquashReason::CommitTimeout),
        out.stats.recovery.timeout_retries,
        out.stats.faults.crashes + out.stats.faults.restarts,
    );
}

fn main() {
    println!("HADES with Section V-A replication and failure injection:\n");
    run(0, "no faults", FaultPlan::none()); // plain HADES
    run(1, "no faults", FaultPlan::none()); // one durable replica per record
    run(2, "no faults", FaultPlan::none()); // two replicas
    run(1, "loss 2%", FaultPlan::from_loss(0.02, 42)); // commit messages dropped
    run(1, "loss 10%", FaultPlan::from_loss(0.10, 42)); // heavy timeouts, still consistent
    run(
        1,
        "crash node 1",
        FaultPlan::none()
            .with_seed(11)
            .with_lease(Cycles::new(30_000))
            .crash(1, Cycles::new(60_000), Cycles::new(200_000)),
    );
    println!("\nLost Intend-to-commit / Ack / replica-prepare messages abort the");
    println!("transaction after a timeout; Validation and abort/clear ride the");
    println!("reliable transport, so replicas never finalize a dead commit. A");
    println!("crashed node's partial locks are released once its lease expires,");
    println!("and on restart its records are replayed from the durable replica.");
}
