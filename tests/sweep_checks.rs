//! The stress bins' shared checks (`hades_bench::sweep`) can fail, not
//! only pass: a small finished Smallbank run per engine is reported
//! clean, and the same run doctored after the drain is reported with
//! each violation named.

use hades::core::runner::Protocol;
use hades::core::runtime::owner_token;
use hades::sim::config::SimConfig;
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
