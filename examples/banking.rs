//! Banking demo: run the same contended Smallbank workload under all three
//! protocols and verify the *money conservation invariant* — the total
//! balance across every account must equal the initial total plus the sum
//! of committed transaction deltas, no matter how many transactions were
//! squashed and retried.
//!
//! This is the strongest end-to-end correctness check in the repository:
//! a protocol that leaked a partial write, double-applied an update, or
//! committed a non-serializable schedule of transfers would fail it.
//!
//! Run: `cargo run --release --example banking`

use hades::core::runner::{Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::sim::config::SimConfig;
use hades::storage::db::Database;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig, INITIAL_BALANCE};

const ACCOUNTS: u64 = 5_000;

fn run(protocol: Protocol) -> (RunOutcome, Smallbank) {
    let cfg = SimConfig::isca_default();
    let mut db = Database::new(cfg.shape.nodes);
    // A hot set of 30 accounts takes 60% of the traffic: plenty of
    // conflicts, squashes and retries.
    let bank = Smallbank::setup(
        &mut db,
        SmallbankConfig {
            accounts: ACCOUNTS,
            hotspot: Some((30, 0.6)),
        },
    );
    let out = Run::loaded(protocol, cfg, db, Box::new(bank.clone()), 0, 3_000).run();
    (out, bank)
}

fn main() {
    let initial = 2 * ACCOUNTS * INITIAL_BALANCE;
    println!("Initial bank total: {initial}");
    for protocol in Protocol::ALL {
        let (out, bank) = run(protocol);
        let conserved = bank.check_conservation(&out.cluster.db, out.total_sum_delta);
        let ok = conserved.is_ok();
        println!(
            "{:<9} commits={:>6} squashes={:>5} fallbacks={:>3} | final={} -> {}",
            protocol.label(),
            out.total_commits,
            out.stats.squashes,
            out.stats.fallbacks,
            bank.total_money(&out.cluster.db),
            if ok { "CONSERVED" } else { "VIOLATED" }
        );
        assert_eq!(conserved, Ok(()), "{protocol:?}");
    }
    println!("All three protocols conserved money under contention.");
}
