//! The stress bins' shared checks (`hades_bench::sweep`) can fail, not
//! only pass: a small finished Smallbank run per engine is reported
//! clean, and the same run doctored after the drain is reported with
//! each violation named.

use hades::core::runner::Protocol;
use hades::core::runtime::owner_token;
use hades::sim::config::{MigrationParams, SimConfig};
use hades::sim::ids::{NodeId, SlotId};
use hades::workloads::smallbank::OFF_BALANCE;
use hades_bench::sweep::{Load, Scenario};

#[test]
fn shared_checks_name_a_leaked_lock_and_a_moved_balance() {
    let bank = Load::bank(200, Some((16, 0.5)));
    let sc = Scenario::new("small bank", SimConfig::isca_default(), bank, 100);
    for p in Protocol::ALL {
        let mut trial = sc.run(p);
        assert_eq!(trial.violations(), Vec::<String>::new(), "{p}: clean run");

        // A record the run wrote, so its history has a last value.
        let db = &mut trial.out.cluster.db;
        let rid = db.commit_history().last().expect("a committed write").rid;
        // No node of the run is numbered 0xFFFF, so no slot holds it.
        let stranger = owner_token(NodeId(u16::MAX), SlotId(0));
        assert!(db.record_mut(rid).try_lock(stranger), "{p}: lock is free");
        let locked = format!("1 record lock(s) leaked past drain, first {rid:?}");
        assert_eq!(trial.violations(), [locked.as_str()], "{p}: left locked");

        let db = &mut trial.out.cluster.db;
        db.record_mut(rid).add_u64(OFF_BALANCE as usize, 1);
        let bad = trial.violations();
        assert_eq!(bad.len(), 3, "{p}: {bad:?}");
        assert_eq!(bad[0], locked, "{p}");
        assert!(bad[1].starts_with("money not conserved"), "{p}: {bad:?}");
        let diverged = format!("{rid:?} final value diverges from the history log");
        assert_eq!(bad[2], diverged, "{p}");
    }
}

/// A run whose queue ran dry while accesses still waited on a Locking
/// Buffer lists each such wait-for edge in its outcome, and the shared
/// checks name it. HADES after the standard move of partition 0 to node
/// 1 is such a run (ROADMAP item 6): a token of node 1's slot 3 stays in
/// node 0's bank, whose release now routes to node 1.
#[test]
fn shared_checks_name_retries_parked_on_a_bank_nothing_releases() {
    let cfg = SimConfig::isca_default().with_migration(MigrationParams::standard(vec![(0, 1)]));
    let mut sc = Scenario::new("stuck move", cfg, Load::ht_wa(0.99, 0.005), 500);
    sc.warmup = 100;
    let trial = sc.run(Protocol::Hades);
    let parked = &trial.out.parked;
    assert!(!parked.is_empty(), "the run leaves retries parked");
    let holder = owner_token(NodeId(1), SlotId(3));
    for r in parked {
        assert_eq!(
            (r.node, r.bank, r.holder),
            (NodeId(0), NodeId(0), holder),
            "{r}"
        );
    }
    let bad = trial.violations();
    for r in parked {
        assert!(bad.contains(&r.to_string()), "{r} missing from {bad:?}");
    }
}

/// Item 6's move with the pessimistic fallback path on (one squash is
/// enough): each fallback walk lists the banks that serve its ops, so
/// after the cutover one lock at node 1 covers both partitions it
/// serves, and HADES-H and HADES commit their whole window. What is left
/// is bug A (ROADMAP item 6): Locking Buffers taken at node 0's bank
/// before the cutover, whose release now routes to node 1.
#[test]
fn a_fallback_move_commits_and_leaks_buffers_only_in_the_source_bank() {
    let cfg = SimConfig::isca_default().with_migration(MigrationParams::standard(vec![(0, 1)]));
    let mut sc = Scenario::new("fallback move", cfg, Load::ht_wa(0.99, 0.005), 500);
    sc.warmup = 100;
    sc.cfg.retry.fallback_after_squashes = 1;
    for p in [Protocol::HadesH, Protocol::Hades] {
        let trial = sc.run(p);
        assert_eq!(trial.out.stats.committed, 500, "{p}");
        let bad = trial.violations();
        let buffers: Vec<&String> = bad
            .iter()
            .filter(|v| v.ends_with("Locking Buffers held"))
            .collect();
        assert!(!buffers.is_empty(), "{p}: bug A leaks no buffer: {bad:?}");
        for v in buffers {
            assert!(v.starts_with("node 0 left "), "{p}: {v}");
        }
        if p == Protocol::HadesH {
            assert_eq!(bad, ["node 0 left 2 Locking Buffers held"]);
        }
    }
}
