//! Rebalance invariants: a planned live shard migration (DESIGN.md §15)
//! must be invisible when off, deterministic when on, and lossless
//! across the cutover.
//!
//! With a standard migration plan (partition 2 repointed at node 0 at
//! ~66 us) every engine must fill the measured quota while the copy
//! streams, conserve the Smallbank ledger, end with routing flipped to
//! the destination, and count exactly as many fenced verbs as the trace
//! records. The per-record commit history must stay gapless across the
//! cutover — no committed write lost or applied twice. With no plan
//! installed, the layer must be byte-identical to a config that never
//! mentions migration at all.

use hades::core::runner::{Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::core::stats::MigrationStats;
use hades::sim::config::{ClusterShape, MigrationParams, SimConfig};
use hades::sim::ids::NodeId;
use hades::storage::db::Database;
use hades::telemetry::jsonl::events_to_jsonl;
use hades::telemetry::sink::Tracer;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig};
use hades_bench::sweep::history_violation;

const ACCOUNTS: u64 = 400;
const MEASURE: u64 = 400;
const SHAPE: ClusterShape = ClusterShape {
    nodes: 4,
    cores_per_node: 4,
    slots_per_core: 2,
};
const SRC: u16 = 2;
const DST: u16 = 0;

/// Runs `protocol` on a 4-node cluster, optionally with a migration plan
/// installed and the per-record commit history on. Returns the outcome,
/// the JSONL trace, and the bank.
fn run_traced(
    protocol: Protocol,
    migration: Option<MigrationParams>,
    history: bool,
) -> (RunOutcome, String, Smallbank) {
    let mut cfg = SimConfig::isca_default().with_shape(SHAPE);
    if let Some(m) = migration {
        cfg = cfg.with_migration(m);
    }
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
    let out = Run::loaded(protocol, cfg, db, Box::new(sb.clone()), 0, MEASURE)
        .tracer(tracer)
        .run();
    let jsonl = events_to_jsonl(&sink.borrow_mut().take_events());
    (out, jsonl, sb)
}

fn plan() -> MigrationParams {
    MigrationParams::standard(vec![(SRC, DST)])
}

/// A migrated run must keep committing through all four phases, balance
/// the ledger, execute the whole plan, and end with the partition served
/// by its destination.
#[test]
fn cluster_commits_through_a_live_migration() {
    for p in Protocol::ALL {
        let (out, _jsonl, bank) = run_traced(p, Some(plan()), false);
        assert_eq!(
            out.stats.committed, MEASURE,
            "{p:?}: cluster failed to fill the measurement window"
        );
        assert_eq!(
            bank.check_conservation(&out.cluster.db, out.total_sum_delta),
            Ok(()),
            "{p:?}: across the move"
        );
        let mig = &out.stats.migration;
        assert_eq!(mig.partitions_moved, 1, "{p:?}: cutover never happened");
        assert_eq!(
            mig.chunks_moved,
            MigrationParams::CHUNKS_PER_MOVE,
            "{p:?}: copy phase did not stream every chunk"
        );
        assert_eq!(
            out.cluster.membership.primary_of(NodeId(SRC)),
            NodeId(DST),
            "{p:?}: routing still points at the source after cutover"
        );
        assert!(
            out.stats.membership.epoch_changes >= 2,
            "{p:?}: epoch did not advance at announce and cutover"
        );
        assert_eq!(
            out.replica_pending_leaked, 0,
            "{p:?}: replica-prepare state leaked through the migration"
        );
    }
}

/// With no plan installed, the migration layer must be entirely
/// invisible: byte-identical traces and stats versus a config that never
/// mentions migration at all (`MigrationParams::default()` has an empty
/// plan and disables the whole path).
#[test]
fn migration_off_is_byte_identical() {
    for p in Protocol::ALL {
        let (base_out, base_jsonl, bank) = run_traced(p, None, false);
        let (off_out, off_jsonl, _) = run_traced(p, Some(MigrationParams::default()), false);
        assert_eq!(
            base_jsonl, off_jsonl,
            "{p:?}: disabled migration left a trace"
        );
        assert_eq!(
            base_out.stats.to_json().render(),
            off_out.stats.to_json().render(),
            "{p:?}: disabled migration changed the stats bytes"
        );
        assert_eq!(
            bank.total_money(&base_out.cluster.db),
            bank.total_money(&off_out.cluster.db),
            "{p:?}: disabled migration moved money"
        );
        assert_eq!(
            off_out.stats.migration,
            MigrationStats::default(),
            "{p:?}: disabled migration accumulated stats"
        );
    }
}

/// Rerunning the identical migrated config and seed must reproduce a
/// byte-identical trace and stats block.
#[test]
fn migrated_rerun_is_deterministic() {
    for p in Protocol::ALL {
        let (a_out, a_jsonl, bank) = run_traced(p, Some(plan()), false);
        let (b_out, b_jsonl, _) = run_traced(p, Some(plan()), false);
        assert_eq!(a_jsonl, b_jsonl, "{p:?}: migrated rerun trace diverged");
        assert_eq!(
            a_out.stats.to_json().render(),
            b_out.stats.to_json().render(),
            "{p:?}: migrated rerun stats diverged"
        );
        assert_eq!(
            bank.total_money(&a_out.cluster.db),
            bank.total_money(&b_out.cluster.db),
            "{p:?}: migrated rerun ledger diverged"
        );
    }
}

/// The `verbs_fenced` counter and the `verb_fenced` trace events are
/// bumped at the same single point; a cutover that fences straddling
/// handshakes must never report one without the other.
#[test]
fn fence_counter_matches_trace_events_across_cutover() {
    for p in Protocol::ALL {
        let (out, jsonl, _) = run_traced(p, Some(plan()), false);
        assert_eq!(
            out.stats.migration.partitions_moved, 1,
            "{p:?}: cutover never happened"
        );
        let traced = jsonl
            .lines()
            .filter(|l| l.contains("\"verb_fenced\""))
            .count() as u64;
        assert_eq!(
            out.stats.membership.verbs_fenced, traced,
            "{p:?}: fence counter diverges from the trace"
        );
        assert_eq!(
            out.stats.migration.straddlers_fenced, traced,
            "{p:?}: straddler count diverges from the fences recorded"
        );
    }
}

/// The per-record commit history must witness a serial version order
/// straight through the cutover (`history_violation`): sequences 1, 2,
/// 3, … per record with no gap (a committed write lost in the move) and
/// no repeat (a write applied twice), and the last recorded post-RMW
/// value must equal the record's final stored balance.
#[test]
fn no_record_lost_or_duplicated_across_migration() {
    for p in Protocol::ALL {
        let (out, _jsonl, _bank) = run_traced(p, Some(plan()), true);
        assert_eq!(
            out.stats.migration.partitions_moved, 1,
            "{p:?}: cutover never happened"
        );
        assert_eq!(
            history_violation(&out.cluster.db),
            None,
            "{p:?}: across the cutover"
        );
    }
}
