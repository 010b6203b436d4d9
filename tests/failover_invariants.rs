//! Failover invariants: a node that crashes forever under the
//! membership layer must not stall or corrupt the cluster.
//!
//! With precise membership enabled (`MembershipParams::standard()`) and
//! a `crash_forever` fault on one node of a four-node cluster, every
//! engine must still commit the full measured quota on the survivors,
//! conserve the Smallbank ledger (crash-finalized commits included),
//! advance the configuration epoch exactly once, promote a backup for
//! every partition homed at the dead node, leak no replica-prepare
//! state, and count exactly as many fenced verbs as the trace records.
//! With membership left off, the layer must be invisible: identical
//! traces, stats, and ledgers to a run that never mentions it.

use hades::core::runner::{Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::core::stats::MembershipStats;
use hades::fault::FaultPlan;
use hades::sim::config::{ClusterShape, MembershipParams, SimConfig};
use hades::sim::time::Cycles;
use hades::storage::db::Database;
use hades::telemetry::jsonl::events_to_jsonl;
use hades::telemetry::sink::Tracer;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig};

const ACCOUNTS: u64 = 400;
const MEASURE: u64 = 400;
const SHAPE: ClusterShape = ClusterShape {
    nodes: 4,
    cores_per_node: 4,
    slots_per_core: 2,
};

/// Runs `protocol` on a 4-node cluster, optionally with the membership
/// layer on and a fault plan installed. Returns the outcome, the JSONL
/// trace, and the bank.
fn run_traced(
    protocol: Protocol,
    membership: Option<MembershipParams>,
    plan: Option<&FaultPlan>,
) -> (RunOutcome, String, Smallbank) {
    let mut cfg = SimConfig::isca_default().with_shape(SHAPE);
    if let Some(m) = membership {
        cfg = cfg.with_membership(m);
    }
    let mut db = Database::new(cfg.shape.nodes);
    let sb = Smallbank::setup(
        &mut db,
        SmallbankConfig {
            accounts: ACCOUNTS,
            hotspot: Some((16, 0.5)),
        },
    );
    let (tracer, sink) = Tracer::memory();
    let out = Run::loaded(protocol, cfg, db, Box::new(sb.clone()), 0, MEASURE)
        .plan(plan.cloned())
        .tracer(tracer)
        .run();
    let jsonl = events_to_jsonl(&sink.borrow_mut().take_events());
    (out, jsonl, sb)
}

fn crash_plan(node: u16) -> FaultPlan {
    // Early enough that suspicion (3 missed 20 µs renewals) and the
    // ensuing reconfiguration land well inside the measurement window.
    FaultPlan::none().crash_forever(node, Cycles::from_micros(20))
}

/// One node dies forever mid-run: the survivors must absorb its
/// partitions and finish the full measurement quota, and the ledger
/// must balance — commits finalized at the crash included exactly once.
#[test]
fn survivors_commit_through_a_permanent_crash() {
    for p in Protocol::ALL {
        let plan = crash_plan(2);
        let (out, _jsonl, bank) = run_traced(p, Some(MembershipParams::standard()), Some(&plan));
        assert_eq!(
            out.stats.committed, MEASURE,
            "{p:?}: survivors failed to fill the measurement window"
        );
        assert_eq!(
            bank.check_conservation(&out.cluster.db, out.total_sum_delta),
            Ok(()),
            "{p:?}: across failover"
        );
        assert!(
            out.stats.membership.epoch_changes >= 1,
            "{p:?}: the failure detector never declared the dead node"
        );
        assert!(
            out.stats.membership.promotions >= 1,
            "{p:?}: no backup was promoted for the dead node's partitions"
        );
        assert_eq!(
            out.replica_pending_leaked, 0,
            "{p:?}: replica-prepare state leaked through failover"
        );
    }
}

/// The `verbs_fenced` counter and the `verb_fenced` trace events are
/// bumped at the same single point; a run must never report one without
/// the other.
#[test]
fn fence_counter_matches_trace_events() {
    for p in Protocol::ALL {
        let plan = crash_plan(1);
        let (out, jsonl, _) = run_traced(p, Some(MembershipParams::standard()), Some(&plan));
        let traced = jsonl
            .lines()
            .filter(|l| l.contains("\"verb_fenced\""))
            .count() as u64;
        assert_eq!(
            out.stats.membership.verbs_fenced, traced,
            "{p:?}: fence counter diverges from the trace"
        );
    }
}

/// With `failure_detection` off (the default), the membership layer must
/// be entirely invisible: no events, no stats, and a byte-identical
/// trace versus a config that never mentions membership at all.
#[test]
fn membership_off_is_byte_identical() {
    for p in Protocol::ALL {
        let (base_out, base_jsonl, bank) = run_traced(p, None, None);
        let (off_out, off_jsonl, _) = run_traced(p, Some(MembershipParams::default()), None);
        assert_eq!(
            base_jsonl, off_jsonl,
            "{p:?}: disabled membership left a trace"
        );
        assert_eq!(
            bank.total_money(&base_out.cluster.db),
            bank.total_money(&off_out.cluster.db),
            "{p:?}: disabled membership moved money"
        );
        assert_eq!(
            base_out.total_commits, off_out.total_commits,
            "{p:?}: disabled membership changed the commit count"
        );
        assert_eq!(
            off_out.stats.membership,
            MembershipStats::default(),
            "{p:?}: disabled membership accumulated stats"
        );
    }
}
