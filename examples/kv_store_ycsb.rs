//! Key-value store comparison: run YCSB-A over all four store shapes
//! (HashTable, skip-list Map, B-Tree, B+Tree) under Baseline and HADES,
//! mirroring the structure of the paper's Fig 9 evaluation.
//!
//! Run: `cargo run --release --example kv_store_ycsb`

use hades::core::runner::{Experiment, Protocol, Run};
use hades::sim::config::SimConfig;
use hades::storage::IndexKind;
use hades::workloads::catalog::AppId;
use hades::workloads::ycsb::YcsbVariant;

fn main() {
    let ex = Experiment {
        cfg: SimConfig::isca_default(),
        scale: 0.01,
        warmup: 200,
        measure: 2_000,
    };
    println!(
        "{:<10} {:>14} {:>14} {:>9}",
        "store", "Baseline txn/s", "HADES txn/s", "speedup"
    );
    for store in [
        IndexKind::HashTable,
        IndexKind::Map,
        IndexKind::BTree,
        IndexKind::BPlusTree,
    ] {
        let app = AppId::Ycsb(store, YcsbVariant::A);
        let base = Run::apps(Protocol::Baseline, &ex, &[app]).run().stats;
        let hades = Run::apps(Protocol::Hades, &ex, &[app]).run().stats;
        println!(
            "{:<10} {:>14.0} {:>14.0} {:>8.2}x",
            store.label(),
            base.throughput(),
            hades.throughput(),
            hades.throughput() / base.throughput()
        );
    }
    println!("\nExpected shape (Fig 9): HADES wins on every store; deeper indexes");
    println!("(B-Tree/B+Tree) shift more time into index walks, which neither");
    println!("protocol eliminates, so their speedups are slightly lower than HT's.");
}
