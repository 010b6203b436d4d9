//! Quickstart: simulate the HADES protocol on a Smallbank cluster and
//! print throughput, latency and conflict statistics.
//!
//! Run: `cargo run --release --example quickstart`

use hades::core::runner::{Protocol, Run};
use hades::sim::config::SimConfig;
use hades::storage::db::Database;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig};

fn main() {
    // 1. The paper's default cluster: 5 nodes x 5 cores, 2 transaction
    //    slots per core, 2 us RDMA round trip (Table III).
    let cfg = SimConfig::isca_default();

    // 2. Load a database: Smallbank with 50k accounts (scaled down from
    //    the paper's 5M for a quick run), partitioned uniformly over the
    //    nodes.
    let mut db = Database::new(cfg.shape.nodes);
    let bank = Smallbank::setup(&mut db, SmallbankConfig::paper().scaled(0.01));

    // 3. Run the workload on every core: 500 warmup commits, then
    //    measure 5_000.
    let stats = Run::loaded(Protocol::Hades, cfg, db, Box::new(bank), 500, 5_000)
        .run()
        .stats;

    println!(
        "HADES on Smallbank ({} committed transactions)",
        stats.committed
    );
    println!("  throughput:   {:>12.0} txn/s", stats.throughput());
    println!(
        "  mean latency: {:>12.2} us",
        stats.mean_latency().as_micros()
    );
    println!(
        "  p95 latency:  {:>12.2} us",
        stats.p95_latency().as_micros()
    );
    println!("  squashes:     {:>12}", stats.squashes);
    println!("  abort rate:   {:>11.2}%", stats.abort_rate() * 100.0);
    println!(
        "  Bloom false-positive conflict rate: {:.4}%",
        stats.false_positive_rate() * 100.0
    );
}
