//! Partition invariants: link faults under the quorum-gated membership
//! profile (DESIGN.md §16) must never lose or dual-commit a write, must
//! freeze instead of reconfiguring without a majority, and must be
//! byte-invisible when off.
//!
//! A 200 us symmetric stranding of node 3 on a 4-node cluster runs the
//! full arc — suspicion at ~120 us, quorum-backed death at ~180 us, heal
//! at 260 us, epoch-bumped rejoin — while every engine fills its
//! measured quota. Across that arc the per-record commit history must
//! stay gapless (no committed write lost in the partition, none applied
//! twice by dueling primaries), and no commit may finalize on a node the
//! configuration had declared dead. An even 2|2 split gives neither side
//! a majority: the quorum gate must freeze every death declaration and
//! keep the epoch pinned. Self-fence refusals must agree exactly with
//! the `self_fenced` trace events, and a plan with no link faults under
//! the standard membership profile must be byte-identical to a run with
//! no injector installed at all.

use hades::core::runner::{Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::fault::FaultPlan;
use hades::sim::config::{ClusterShape, MembershipParams, SimConfig};
use hades::sim::time::Cycles;
use hades::storage::db::Database;
use hades::storage::RecordId;
use hades::telemetry::jsonl::events_to_jsonl;
use hades::telemetry::sink::Tracer;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig, INITIAL_BALANCE, OFF_BALANCE};
use std::collections::HashMap;

const ACCOUNTS: u64 = 800;
const SHAPE: ClusterShape = ClusterShape {
    nodes: 4,
    cores_per_node: 4,
    slots_per_core: 2,
};
const VICTIM: u16 = 3;

/// Long enough that every engine is still measuring at the 260 us heal:
/// the drain stops lease renewals, so a run that finishes early freezes
/// the membership layer before the rejoin arc can complete.
const MEASURE: u64 = 1200;
/// For the off-mode identity runs, where nothing needs outliving.
const MEASURE_SHORT: u64 = 300;

const T0: Cycles = Cycles::from_micros(60);
const HEAL: Cycles = Cycles::from_micros(260);

/// Strands [`VICTIM`] in both directions for `[T0, HEAL)`.
fn sym_plan() -> FaultPlan {
    FaultPlan::none()
        .with_seed(17)
        .isolate_node(VICTIM, SHAPE.nodes as u16, T0, HEAL)
}

/// Runs `protocol` on a 4-node cluster with the given membership profile
/// and optional fault plan. Returns the outcome, the JSONL trace, and
/// the final ledger total.
fn run_traced(
    protocol: Protocol,
    membership: MembershipParams,
    plan: Option<&FaultPlan>,
    history: bool,
    measure: u64,
) -> (RunOutcome, String, u64) {
    let cfg = SimConfig::isca_default()
        .with_shape(SHAPE)
        .with_membership(membership);
    let mut db = Database::new(cfg.shape.nodes);
    let sb = Smallbank::setup(
        &mut db,
        SmallbankConfig {
            accounts: ACCOUNTS,
            hotspot: Some((16, 0.5)),
        },
    );
    if history {
        db.enable_commit_history();
    }
    let (tracer, sink) = Tracer::memory();
    let out = Run::loaded(protocol, cfg, db, Box::new(sb.clone()), 0, measure)
        .plan(plan.cloned())
        .tracer(tracer)
        .run();
    let jsonl = events_to_jsonl(&sink.borrow_mut().take_events());
    let total = sb.total_money(&out.cluster.db);
    (out, jsonl, total)
}

/// A symmetric stranding must run the full suspicion → quorum death →
/// heal → rejoin arc while conserving the ledger, never finalizing a
/// commit on the excommunicated node, and keeping every record's commit
/// history gapless — no committed write lost across the partition, none
/// applied twice by dueling primaries.
#[test]
fn no_write_lost_or_dual_committed_across_partition_and_heal() {
    let plan = sym_plan();
    for p in Protocol::ALL {
        let (out, _jsonl, total) = run_traced(
            p,
            MembershipParams::partition_safe(),
            Some(&plan),
            true,
            MEASURE,
        );
        assert_eq!(
            out.stats.committed, MEASURE,
            "{p:?}: cluster failed to fill the measurement window"
        );
        let expected = (2 * ACCOUNTS * INITIAL_BALANCE).wrapping_add(out.total_sum_delta as u64);
        assert_eq!(
            total, expected,
            "{p:?}: money not conserved across the partition"
        );
        let nem = &out.stats.nemesis;
        assert_eq!(
            nem.commits_while_dead, 0,
            "{p:?}: a commit finalized on an excommunicated node (dual primary)"
        );
        assert!(nem.suspicions >= 1, "{p:?}: victim was never suspected");
        assert!(
            nem.rejoins >= 1,
            "{p:?}: victim never rejoined after the heal"
        );
        assert!(nem.links_cut > 0, "{p:?}: plan injected no link windows");
        assert_eq!(
            nem.links_cut, nem.links_healed,
            "{p:?}: cut link windows were not all healed"
        );
        let db = &out.cluster.db;
        let hist = db.commit_history();
        assert!(!hist.is_empty(), "{p:?}: no committed writes recorded");
        let mut seen: HashMap<RecordId, u64> = HashMap::new();
        for e in hist {
            let prev = seen.insert(e.rid, e.seq);
            assert_eq!(
                e.seq,
                prev.unwrap_or(0) + 1,
                "{p:?}: {:?} version order broken across the heal (prev {prev:?})",
                e.rid,
            );
        }
        let mut last_value: HashMap<RecordId, u64> = HashMap::new();
        for e in hist {
            last_value.insert(e.rid, e.value_after);
        }
        for (rid, v) in last_value {
            assert_eq!(
                out.cluster.db.record(rid).read_u64(OFF_BALANCE as usize),
                v,
                "{p:?}: {rid:?} final value diverges from the history log",
            );
        }
    }
}

/// An even 2|2 split leaves neither side with a majority: the quorum
/// gate must freeze every death declaration (no epoch movement, no
/// rejoin) instead of letting both halves excommunicate each other, and
/// still no commit may finalize on a node anyone declared dead.
#[test]
fn minority_side_freezes_instead_of_reconfiguring() {
    let plan = FaultPlan::none()
        .with_seed(17)
        .partition(&[0, 1], &[2, 3], T0, HEAL);
    for p in Protocol::ALL {
        let (out, _jsonl, total) = run_traced(
            p,
            MembershipParams::partition_safe(),
            Some(&plan),
            false,
            MEASURE,
        );
        assert_eq!(
            out.stats.committed, MEASURE,
            "{p:?}: cluster failed to fill the measurement window"
        );
        let expected = (2 * ACCOUNTS * INITIAL_BALANCE).wrapping_add(out.total_sum_delta as u64);
        assert_eq!(
            total, expected,
            "{p:?}: money not conserved across the split"
        );
        let nem = &out.stats.nemesis;
        assert!(
            nem.quorum_losses > 0,
            "{p:?}: no quorum freeze in an even split"
        );
        assert_eq!(
            out.stats.membership.epoch_changes, 0,
            "{p:?}: epoch moved without a quorum"
        );
        assert_eq!(nem.rejoins, 0, "{p:?}: rejoin without a death");
        assert_eq!(
            nem.commits_while_dead, 0,
            "{p:?}: a commit finalized on an excommunicated node"
        );
    }
}

/// The `self_fences` counter and the `self_fenced` trace events are
/// bumped at the same single point; a flapping stranding (whose
/// up-phases keep cycling slots into the commit-entry fence) must never
/// report one without the other.
#[test]
fn self_fence_counter_matches_trace_events() {
    let plan = FaultPlan::none().with_seed(17).flap_node(
        VICTIM,
        SHAPE.nodes as u16,
        T0,
        HEAL,
        Cycles::from_micros(20),
        Cycles::from_micros(10),
    );
    for p in Protocol::ALL {
        let (out, jsonl, _) = run_traced(
            p,
            MembershipParams::partition_safe(),
            Some(&plan),
            false,
            MEASURE,
        );
        let traced = jsonl
            .lines()
            .filter(|l| l.contains("\"self_fenced\""))
            .count() as u64;
        assert!(
            out.stats.nemesis.self_fences > 0,
            "{p:?}: flapping node never self-fenced"
        );
        assert_eq!(
            out.stats.nemesis.self_fences, traced,
            "{p:?}: self-fence counter diverges from the trace"
        );
    }
}

/// A plan with no link faults, under the standard membership profile
/// (quorum gating and self-fencing off), must be byte-identical to a run
/// with no injector installed at all: identical traces, identical stats
/// bytes, zero nemesis accumulation.
#[test]
fn partition_layer_off_is_byte_identical() {
    for p in Protocol::ALL {
        let (bare_out, bare_jsonl, bare_total) =
            run_traced(p, MembershipParams::standard(), None, false, MEASURE_SHORT);
        let (off_out, off_jsonl, off_total) = run_traced(
            p,
            MembershipParams::standard(),
            Some(&FaultPlan::none()),
            false,
            MEASURE_SHORT,
        );
        assert_eq!(
            bare_jsonl, off_jsonl,
            "{p:?}: an empty fault plan left a trace"
        );
        assert_eq!(
            bare_out.stats.to_json().render(),
            off_out.stats.to_json().render(),
            "{p:?}: an empty fault plan changed the stats bytes"
        );
        assert_eq!(
            bare_total, off_total,
            "{p:?}: an empty fault plan moved money"
        );
        assert!(
            off_out.stats.nemesis.is_zero(),
            "{p:?}: nemesis stats accumulated while off"
        );
    }
}

/// Rerunning the identical partitioned config, seed, and plan must
/// reproduce a byte-identical trace and stats block.
#[test]
fn partitioned_rerun_is_deterministic() {
    let plan = sym_plan();
    for p in Protocol::ALL {
        let (a_out, a_jsonl, a_total) = run_traced(
            p,
            MembershipParams::partition_safe(),
            Some(&plan),
            false,
            MEASURE,
        );
        let (b_out, b_jsonl, b_total) = run_traced(
            p,
            MembershipParams::partition_safe(),
            Some(&plan),
            false,
            MEASURE,
        );
        assert_eq!(a_jsonl, b_jsonl, "{p:?}: partitioned rerun trace diverged");
        assert_eq!(
            a_out.stats.to_json().render(),
            b_out.stats.to_json().render(),
            "{p:?}: partitioned rerun stats diverged"
        );
        assert_eq!(a_total, b_total, "{p:?}: partitioned rerun ledger diverged");
    }
}
