//! Conflict-handling semantics of Section IV-B: L–L conflicts are detected
//! *eagerly* (the transaction issuing the second access squashes itself);
//! conflicts involving a remote access are detected *lazily* at commit time
//! (the first committer squashes the other). Verified with scripted
//! workloads whose conflict structure is fully controlled.

use hades::core::runner::{Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::core::stats::SquashReason;
use hades::sim::config::{ClusterShape, SimConfig};
use hades::sim::ids::NodeId;
use hades::sim::rng::SimRng;
use hades::storage::db::{Database, TableId};
use hades::storage::IndexKind;
use hades::workloads::spec::{OpKind, OpSpec, TxnSpec, Workload};

/// Every transaction RMWs one shared record plus a per-origin private one;
/// `shared_home` controls whether the contended record is local or remote
/// to the contending slots.
#[derive(Debug)]
struct Contender {
    table: TableId,
    shared_key: u64,
}

impl Workload for Contender {
    fn name(&self) -> String {
        "contender".into()
    }

    fn next_txn(&mut self, origin: NodeId, _db: &Database, rng: &mut SimRng) -> TxnSpec {
        // A little private work spreads the timing so conflicts interleave.
        let private = 100 + origin.0 as u64 * 10 + rng.below(10);
        TxnSpec::new(
            "contend",
            vec![vec![
                OpSpec {
                    table: self.table,
                    key: private,
                    kind: OpKind::Read,
                },
                OpSpec {
                    table: self.table,
                    key: self.shared_key,
                    kind: OpKind::Rmw { off: 0, delta: 1 },
                },
            ]],
        )
    }

    fn expected_write_fraction(&self) -> f64 {
        0.5
    }
}

/// Builds a database where `shared_key` is homed at `shared_home` and the
/// private keys 100..200 exist.
fn contention_run(nodes: usize, cores: usize, shared_home: NodeId) -> RunOutcome {
    let cfg = SimConfig::isca_default().with_shape(ClusterShape {
        nodes,
        cores_per_node: cores,
        slots_per_core: 2,
    });
    let mut db = Database::new(nodes);
    let table = db.create_table("t", IndexKind::HashTable);
    let shared_key = 7u64;
    db.insert_at(table, shared_key, &[0u8; 64], shared_home);
    for k in 100..200u64 {
        db.insert(table, k, &[0u8; 64]);
    }
    let w = Contender { table, shared_key };
    Run::loaded(Protocol::Hades, cfg, db, Box::new(w), 0, 400).run()
}

#[test]
fn local_local_conflicts_are_eager() {
    // One node, several cores: every conflict on the shared record is L–L
    // and must be detected eagerly at access time — never via the lazy
    // commit-time paths (which need a remote party).
    let out = contention_run(1, 4, NodeId(0));
    assert!(
        out.stats.squashes_for(SquashReason::EagerLocal) > 0,
        "L–L contention must produce eager squashes: {:?}",
        out.stats.squash_reasons
    );
    assert_eq!(
        out.stats.squashes_for(SquashReason::LazyConflict),
        0,
        "no remote party exists, so nothing may be squashed lazily"
    );
    // And the increments all landed exactly once.
    let rid = out.cluster.db.lookup(TableId(0), 7).unwrap().rid;
    assert_eq!(
        out.cluster.db.record(rid).read_u64(0),
        out.total_sum_delta as u64
    );
}

#[test]
fn remote_conflicts_are_lazy() {
    // Several nodes, one core each, contending on a record homed at node 0:
    // for nodes 1+, the shared access is remote, so conflicts must surface
    // through the lazy commit-time machinery (committer squashes the other,
    // lock denial, or commit NACK) — plus eager ones only from node 0's own
    // local slots.
    let out = contention_run(4, 1, NodeId(0));
    let lazy = out.stats.squashes_for(SquashReason::LazyConflict)
        + out.stats.squashes_for(SquashReason::LockFailed);
    assert!(
        lazy > 0,
        "remote contention must be resolved lazily: {:?}",
        out.stats.squash_reasons
    );
    let rid = out.cluster.db.lookup(TableId(0), 7).unwrap().rid;
    assert_eq!(
        out.cluster.db.record(rid).read_u64(0),
        out.total_sum_delta as u64,
        "every committed increment exactly once despite {} squashes",
        out.stats.squashes
    );
}

#[test]
fn committer_wins_under_symmetric_contention() {
    // Despite constant conflicts, the system must make steady progress —
    // the paper's no-livelock argument (Section VI): repeatedly squashed
    // transactions switch to pessimistic locking and push through. With
    // every transaction hammering one record, fallback *should* engage.
    let out = contention_run(4, 2, NodeId(0));
    assert_eq!(
        out.stats.committed, 400,
        "steady progress despite contention"
    );
    assert!(
        out.stats.fallbacks > 0,
        "total contention must trigger the livelock fallback"
    );
}

#[test]
fn baseline_detects_the_same_conflicts_via_versions() {
    // The same contention pattern under the software protocol: conflicts
    // surface as validation failures / lock busy instead of squash verbs.
    let cfg = SimConfig::isca_default().with_shape(ClusterShape {
        nodes: 4,
        cores_per_node: 1,
        slots_per_core: 2,
    });
    let mut db = Database::new(4);
    let table = db.create_table("t", IndexKind::HashTable);
    db.insert_at(table, 7, &[0u8; 64], NodeId(0));
    for k in 100..200u64 {
        db.insert(table, k, &[0u8; 64]);
    }
    let w = Contender {
        table,
        shared_key: 7,
    };
    let out = Run::loaded(Protocol::Baseline, cfg, db, Box::new(w), 0, 400).run();
    let software = out.stats.squashes_for(SquashReason::ValidationFailed)
        + out.stats.squashes_for(SquashReason::RecordLockBusy);
    assert!(
        software > 0,
        "baseline conflicts must surface via version validation: {:?}",
        out.stats.squash_reasons
    );
    let rid = out.cluster.db.lookup(table, 7).unwrap().rid;
    assert_eq!(
        out.cluster.db.record(rid).read_u64(0),
        out.total_sum_delta as u64
    );
}
