//! End-to-end serializability evidence: the money-conservation invariant
//! under contention, across all three protocols and several seeds, the
//! recorded per-record version-order history, plus clean hardware-state
//! teardown.

use hades::core::runner::{Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::sim::config::SimConfig;
use hades::storage::db::Database;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig};
use hades_bench::sweep::history_violation;

const ACCOUNTS: u64 = 1_500;

fn run_with(
    protocol: Protocol,
    seed: u64,
    hotspot: Option<(u64, f64)>,
    history: bool,
) -> (RunOutcome, Smallbank) {
    let cfg = SimConfig::isca_default().with_seed(seed);
    let mut db = Database::new(cfg.shape.nodes);
    let bank = Smallbank::setup(
        &mut db,
        SmallbankConfig {
            accounts: ACCOUNTS,
            hotspot,
        },
    );
    if history {
        db.enable_commit_history();
    }
    let out = Run::loaded(protocol, cfg, db, Box::new(bank.clone()), 0, 400).run();
    (out, bank)
}

fn run(protocol: Protocol, seed: u64, hotspot: Option<(u64, f64)>) -> (RunOutcome, Smallbank) {
    run_with(protocol, seed, hotspot, false)
}

fn assert_conserved(protocol: Protocol, seed: u64, hotspot: Option<(u64, f64)>) {
    let (out, bank) = run(protocol, seed, hotspot);
    assert_eq!(
        bank.check_conservation(&out.cluster.db, out.total_sum_delta),
        Ok(()),
        "{protocol:?} seed={seed} hotspot={hotspot:?}: commits={} squashes={}",
        out.total_commits,
        out.stats.squashes,
    );
}

#[test]
fn baseline_conserves_money_across_seeds() {
    for seed in [1, 77, 20_26] {
        assert_conserved(Protocol::Baseline, seed, Some((16, 0.7)));
    }
}

#[test]
fn hades_conserves_money_across_seeds() {
    for seed in [1, 77, 20_26] {
        assert_conserved(Protocol::Hades, seed, Some((16, 0.7)));
    }
}

#[test]
fn hades_h_conserves_money_across_seeds() {
    for seed in [1, 77, 20_26] {
        assert_conserved(Protocol::HadesH, seed, Some((16, 0.7)));
    }
}

#[test]
fn extreme_hotspot_conserves_money() {
    // Four hot accounts taking 95% of traffic: maximal squash pressure,
    // heavy fallback use.
    for p in Protocol::ALL {
        assert_conserved(p, 9, Some((4, 0.95)));
    }
}

#[test]
fn uncontended_runs_conserve_money_too() {
    for p in Protocol::ALL {
        assert_conserved(p, 5, None);
    }
}

#[test]
fn hardware_state_fully_drains() {
    for p in Protocol::ALL {
        let (out, _) = run(p, 3, Some((16, 0.7)));
        assert_eq!(out.leaks(), Vec::<String>::new(), "{p:?}");
    }
}

/// The recorded commit history must witness a serial per-record order
/// (`history_violation`): every record's committed writes are versioned
/// 1, 2, 3, … with no gap or repeat (two commits that both applied
/// against the same predecessor version would collide here) and never
/// past the record's own version counter, and the last recorded post-RMW
/// value must equal the record's final stored balance (a committed write
/// that the history missed — or vice versa — breaks the linkage).
#[test]
fn commit_history_witnesses_per_record_version_order() {
    for p in Protocol::ALL {
        let (out, _) = run_with(p, 13, Some((16, 0.7)), true);
        assert_eq!(history_violation(&out.cluster.db), None, "{p:?}");
    }
}
