//! Byte pins for the telemetry exports.
//!
//! Two kinds of output are pinned as golden files under
//! `results/exactness/` (`hades_bench::golden`):
//!
//! 1. A synthetic event stream holding every [`EventKind`] variant and
//!    every [`InjectedFault`], [`RecoveryKind`] and [`FilterSite`] label,
//!    mixing node-scoped and slot-scoped events, with open phases closed
//!    by an abort and by the end of the stream. Its three stream exports,
//!    the JSONL, the Chrome trace and the metrics registry's JSON, are
//!    stored whole in `stream/`, so a diff shows which event moved.
//! 2. The `timeseries` JSON block of five quick runs, one file per run in
//!    `timeseries/<scenario>-<engine>.json`, each run built around one
//!    input of the windowed series: the aggressive overload profile
//!    (admission, degraded commits), verb batching (batch flushes), a
//!    crash with restart under the membership layer (in-flight count),
//!    a live shard migration (chunk moves), and a link cut under the
//!    partition-safe membership profile (link cuts, self-fences,
//!    failover). Each run also asserts that its inputs are non-zero, so
//!    the pin cannot pass on an empty series.
//!
//! `results/README.md` says where the files were recorded. A change
//! that moves an export on purpose re-records the affected files and
//! says so.

use hades::core::runner::{Experiment, Protocol, Run};
use hades::core::stats::RunStats;
use hades::fault::FaultPlan;
use hades::sim::config::{
    BatchingParams, ClusterShape, MembershipParams, MigrationParams, OverloadParams, SimConfig,
};
use hades::sim::time::Cycles;
use hades::storage::db::Database;
use hades::telemetry::chrome::chrome_trace;
use hades::telemetry::event::{
    EventKind, FilterSite, InjectedFault, Phase, RecoveryKind, TraceEvent, Verb, NO_SLOT,
};
use hades::telemetry::jsonl::events_to_jsonl;
use hades::telemetry::registry::MetricsRegistry;
use hades::telemetry::timeseries::WindowStats;
use hades::workloads::catalog::AppId;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig};
use hades_bench::golden::Golden;
use Protocol::{Baseline, Hades, HadesH};
use Scenario::{Batching, CrashRestart, LinkCut, Migration, Overload};

// ---- The synthetic stream ------------------------------------------------

/// Dense index of an event kind's variant. The match is exhaustive, so a
/// new variant fails to compile here until the stream below covers it.
fn variant(kind: &EventKind) -> usize {
    match kind {
        EventKind::TxnBegin { .. } => 0,
        EventKind::PhaseBegin(_) => 1,
        EventKind::PhaseEnd(_) => 2,
        EventKind::TxnCommit => 3,
        EventKind::TxnAbort { .. } => 4,
        EventKind::VerbSend { .. } => 5,
        EventKind::VerbRecv { .. } => 6,
        EventKind::BloomInsert { .. } => 7,
        EventKind::BloomProbe { .. } => 8,
        EventKind::BloomFalsePositive => 9,
        EventKind::LockAcquire { .. } => 10,
        EventKind::LockStall { .. } => 11,
        EventKind::FaultInjected { .. } => 12,
        EventKind::Recovery { .. } => 13,
        EventKind::AdmissionThrottled => 14,
        EventKind::DegradedCommit => 15,
        EventKind::StarvationBoost { .. } => 16,
        EventKind::EpochChange { .. } => 17,
        EventKind::Promotion { .. } => 18,
        EventKind::VerbFenced { .. } => 19,
        EventKind::BatchFlushed { .. } => 20,
        EventKind::BatchCoalesced { .. } => 21,
        EventKind::MigrationStart { .. } => 22,
        EventKind::ChunkMigrated { .. } => 23,
        EventKind::MigrationCutover { .. } => 24,
        EventKind::LinkCut { .. } => 25,
        EventKind::LinkHealed { .. } => 26,
        EventKind::SelfFenced { .. } => 27,
        EventKind::QuorumLost { .. } => 28,
    }
}

const VARIANTS: usize = 29;

/// Every injected-fault label, message-level ones on distinct verbs.
const FAULTS: [InjectedFault; 8] = [
    InjectedFault::Drop { verb: Verb::Intend },
    InjectedFault::Duplicate { verb: Verb::Ack },
    InjectedFault::Delay {
        verb: Verb::Validation,
    },
    InjectedFault::Reorder { verb: Verb::Write },
    InjectedFault::NodeCrash,
    InjectedFault::NodeRestart,
    InjectedFault::NicStall,
    InjectedFault::LinkCut {
        verb: Verb::ReplicaPrepare,
    },
];

const RECOVERIES: [RecoveryKind; 3] = [
    RecoveryKind::TimeoutRetry,
    RecoveryKind::LeaseExpire,
    RecoveryKind::ReplicaReplay,
];

const SITES: [FilterSite; 4] = [
    FilterSite::NicRead,
    FilterSite::NicWrite,
    FilterSite::CoreRead,
    FilterSite::CoreWrite,
];

/// The synthetic stream: three slots' transactions interleaved with
/// node-scoped hardware, fault, membership, batch and migration events.
fn synthetic_stream() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    let mut at = 0u64;
    let mut push = |node: u16, slot: u32, kind: EventKind| {
        at += 37;
        out.push(TraceEvent {
            at: Cycles::new(at),
            node,
            slot,
            kind,
        });
    };
    // Slot 0 on node 0 commits after exec, lock, validate and commit.
    push(0, 0, EventKind::TxnBegin { attempt: 1 });
    push(0, 0, EventKind::PhaseBegin(Phase::Exec));
    for (i, site) in SITES.into_iter().enumerate() {
        push(i as u16 % 2, NO_SLOT, EventKind::BloomInsert { site });
    }
    push(
        0,
        0,
        EventKind::VerbSend {
            verb: Verb::Read,
            dst: 1,
            bytes: 64,
        },
    );
    push(
        1,
        NO_SLOT,
        EventKind::VerbRecv {
            verb: Verb::Read,
            src: 0,
            bytes: 64,
        },
    );
    push(1, NO_SLOT, EventKind::BloomProbe { hit: true });
    push(1, NO_SLOT, EventKind::BloomFalsePositive);
    push(1, NO_SLOT, EventKind::BloomProbe { hit: false });
    push(0, 0, EventKind::PhaseEnd(Phase::Exec));
    push(0, 0, EventKind::PhaseBegin(Phase::Lock));
    push(1, NO_SLOT, EventKind::LockAcquire { owner: 7 });
    push(0, 0, EventKind::PhaseEnd(Phase::Lock));
    push(0, 0, EventKind::PhaseBegin(Phase::Validate));
    // Slot 4 on node 1 starts and stalls behind slot 0's lock.
    push(1, 4, EventKind::TxnBegin { attempt: 3 });
    push(1, 4, EventKind::PhaseBegin(Phase::Exec));
    push(1, NO_SLOT, EventKind::LockStall { holder: 7 });
    push(0, 0, EventKind::PhaseEnd(Phase::Validate));
    push(0, 0, EventKind::PhaseBegin(Phase::Commit));
    push(0, NO_SLOT, EventKind::BatchFlushed { dst: 1, size: 4 });
    push(0, NO_SLOT, EventKind::BatchCoalesced { dst: 1 });
    push(0, NO_SLOT, EventKind::BatchFlushed { dst: 2, size: 1 });
    push(0, 0, EventKind::PhaseEnd(Phase::Commit));
    push(0, 0, EventKind::TxnCommit);
    // Slot 4 aborts with two phases still open.
    push(1, 4, EventKind::PhaseBegin(Phase::Lock));
    push(
        1,
        4,
        EventKind::TxnAbort {
            reason: "wrtx-conflict",
        },
    );
    push(1, 4, EventKind::StarvationBoost { attempt: 4 });
    push(
        1,
        4,
        EventKind::Recovery {
            action: RecoveryKind::TimeoutRetry,
        },
    );
    push(1, 4, EventKind::AdmissionThrottled);
    // Every fault label and every recovery label, node-scoped.
    for (i, fault) in FAULTS.into_iter().enumerate() {
        push(i as u16 % 3, NO_SLOT, EventKind::FaultInjected { fault });
    }
    for action in RECOVERIES {
        push(2, NO_SLOT, EventKind::Recovery { action });
    }
    push(2, NO_SLOT, EventKind::DegradedCommit);
    push(0, 1, EventKind::DegradedCommit);
    // Membership: a death, a promotion, a fenced verb, a self-fence and
    // a frozen declaration.
    push(2, NO_SLOT, EventKind::EpochChange { epoch: 1 });
    push(
        0,
        NO_SLOT,
        EventKind::Promotion {
            partition: 2,
            new_primary: 0,
        },
    );
    push(1, NO_SLOT, EventKind::VerbFenced { verb: Verb::Ack });
    push(2, NO_SLOT, EventKind::LinkCut { src: 2, dst: 0 });
    push(2, NO_SLOT, EventKind::SelfFenced { node: 2 });
    push(0, NO_SLOT, EventKind::QuorumLost { node: 2 });
    push(2, NO_SLOT, EventKind::LinkHealed { src: 2, dst: 0 });
    // A live move of partition 1 to node 0.
    push(
        1,
        NO_SLOT,
        EventKind::MigrationStart {
            partition: 1,
            dst: 0,
        },
    );
    push(
        1,
        NO_SLOT,
        EventKind::ChunkMigrated {
            partition: 1,
            chunk: 0,
        },
    );
    push(
        1,
        NO_SLOT,
        EventKind::ChunkMigrated {
            partition: 1,
            chunk: 1,
        },
    );
    push(1, NO_SLOT, EventKind::MigrationCutover { epoch: 2 });
    // Slot 4 retries; slot 1 on node 0 begins. Both are still open when
    // the stream ends.
    push(1, 4, EventKind::TxnBegin { attempt: 4 });
    push(1, 4, EventKind::PhaseBegin(Phase::Exec));
    push(0, 1, EventKind::TxnBegin { attempt: 1 });
    push(0, 1, EventKind::PhaseBegin(Phase::Exec));
    push(
        0,
        1,
        EventKind::VerbSend {
            verb: Verb::Intend,
            dst: 2,
            bytes: 96,
        },
    );
    push(1, 4, EventKind::PhaseEnd(Phase::Exec));
    push(1, 4, EventKind::PhaseBegin(Phase::Commit));
    out
}

#[test]
fn synthetic_stream_covers_the_taxonomy() {
    let events = synthetic_stream();
    let mut seen = [false; VARIANTS];
    for ev in &events {
        seen[variant(&ev.kind)] = true;
    }
    let missing: Vec<usize> = (0..VARIANTS).filter(|&i| !seen[i]).collect();
    assert!(
        missing.is_empty(),
        "variants missing from the stream: {missing:?}"
    );
    let jsonl = events_to_jsonl(&events);
    for label in FAULTS
        .iter()
        .map(|f| f.label())
        .chain(RECOVERIES.iter().map(|r| r.label()))
        .chain(SITES.iter().map(|s| s.label()))
    {
        assert!(
            jsonl.contains(&format!("\"{label}\"")),
            "{label} not exported"
        );
    }
}

#[test]
fn stream_exports_are_pinned() {
    let events = synthetic_stream();
    let exports = [
        ("events.jsonl", events_to_jsonl(&events)),
        ("chrome.json", chrome_trace(&events)),
        (
            "metrics.json",
            MetricsRegistry::from_events(&events).to_json().render(),
        ),
    ];
    let mut golden = Golden::new(env!("CARGO_MANIFEST_DIR"), env!("CARGO_TARGET_TMPDIR"));
    for (file, export) in exports {
        golden.check(&format!("results/exactness/stream/{file}"), &export);
    }
    golden.finish();
}

// ---- The time-series runs ------------------------------------------------

/// Time-series window of the quick runs: 10 µs.
const WINDOW: Cycles = Cycles::from_micros(10);

/// A quick run that exercises one input of the windowed series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// The aggressive overload profile on YCSB-A over the hash table.
    Overload,
    /// Adaptive doorbell batching on YCSB-A over the hash table.
    Batching,
    /// Smallbank with replication 1 while nodes 1, 2 and 3 each crash
    /// for 20 µs, under the standard membership profile.
    CrashRestart,
    /// The standard live move of partition 2 to node 0.
    Migration,
    /// Node 3 of a 4-node cluster flapping (20 µs down, 10 µs up) from
    /// 60 to 260 µs under the partition-safe membership profile (quorum
    /// gating, self-fence).
    LinkCut,
}

/// Runs `scenario` on `protocol` with the time-series on.
fn run(protocol: Protocol, scenario: Scenario) -> RunStats {
    let cfg = SimConfig::isca_default().with_timeseries(WINDOW);
    let htwa = AppId::parse("HT-wA").unwrap();
    let ex = |cfg: SimConfig| Experiment {
        cfg,
        scale: 0.005,
        warmup: 50,
        measure: 300,
    };
    match scenario {
        Overload => {
            let cfg = cfg
                .with_lock_buffer_slots(1)
                .with_overload(OverloadParams::aggressive());
            let ex = ex(cfg);
            Run::apps(protocol, &ex, &[htwa]).run().stats
        }
        Batching => {
            let ex = ex(cfg.with_batching(BatchingParams::standard()));
            Run::apps(protocol, &ex, &[htwa]).run().stats
        }
        CrashRestart => {
            let cfg = cfg
                .with_replication(1)
                .with_membership(MembershipParams::standard());
            let mut plan = FaultPlan::none();
            for node in 1..4u16 {
                let at = Cycles::from_micros(30 * u64::from(node));
                plan = plan.crash(node, at, at + Cycles::from_micros(20));
            }
            let mut db = Database::new(cfg.shape.nodes);
            let sb = Smallbank::setup(
                &mut db,
                SmallbankConfig {
                    accounts: 2_000,
                    hotspot: None,
                },
            );
            Run::loaded(protocol, cfg, db, Box::new(sb), 100, 1_500)
                .plan(Some(plan))
                .run()
                .stats
        }
        Migration => {
            let ex = ex(cfg.with_migration(MigrationParams::standard(vec![(2, 0)])));
            Run::apps(protocol, &ex, &[htwa]).run().stats
        }
        LinkCut => {
            let shape = ClusterShape {
                nodes: 4,
                cores_per_node: 4,
                slots_per_core: 2,
            };
            let cfg = cfg
                .with_shape(shape)
                .with_membership(MembershipParams::partition_safe());
            let plan = FaultPlan::none().with_seed(17).flap_node(
                3,
                4,
                Cycles::from_micros(60),
                Cycles::from_micros(260),
                Cycles::from_micros(20),
                Cycles::from_micros(10),
            );
            let mut db = Database::new(cfg.shape.nodes);
            let sb = Smallbank::setup(
                &mut db,
                SmallbankConfig {
                    accounts: 800,
                    hotspot: Some((16, 0.5)),
                },
            );
            Run::loaded(protocol, cfg, db, Box::new(sb), 0, 1_200)
                .plan(Some(plan))
                .run()
                .stats
        }
    }
}

/// Sums one field over every window.
fn total(windows: &[WindowStats], field: fn(&WindowStats) -> u64) -> u64 {
    windows.iter().map(field).sum()
}

/// Asserts that the inputs `scenario` exists to exercise reached the
/// series.
fn assert_exercised(protocol: Protocol, scenario: Scenario, stats: &RunStats) {
    let ts = stats.timeseries.as_ref().expect("time-series on");
    let w = ts.windows();
    assert!(
        w.len() > 3,
        "{protocol} {scenario:?}: only {} windows",
        w.len()
    );
    let nonzero = |name: &str, n: u64| assert!(n > 0, "{protocol} {scenario:?}: no {name}");
    match scenario {
        Overload => {
            nonzero("admission", total(w, |w| w.admission));
            if protocol != Baseline {
                nonzero("degraded commits", total(w, |w| w.degraded));
            }
        }
        Batching => {
            nonzero("batch flushes", total(w, |w| w.batch_flushes));
            nonzero("batched verbs", total(w, |w| w.batch_verbs));
        }
        CrashRestart => {
            assert_eq!(stats.faults.crashes, 3, "{protocol}: crashes");
            assert_eq!(stats.faults.restarts, 3, "{protocol}: restarts");
            nonzero("in-flight transactions", total(w, |w| w.inflight));
        }
        Migration => nonzero("migration moves", total(w, |w| w.migration_moves)),
        LinkCut => {
            nonzero("link cuts", total(w, |w| w.link_cuts));
            nonzero("self-fences", total(w, |w| w.self_fences));
            nonzero("failover events", total(w, |w| w.failover));
        }
    }
}

#[test]
fn timeseries_blocks_are_pinned() {
    let mut golden = Golden::new(env!("CARGO_MANIFEST_DIR"), env!("CARGO_TARGET_TMPDIR"));
    for scenario in [Overload, Batching, CrashRestart, Migration, LinkCut] {
        for protocol in [Baseline, HadesH, Hades] {
            let stats = run(protocol, scenario);
            assert_exercised(protocol, scenario, &stats);
            let ts = stats.timeseries.as_ref().expect("time-series on");
            // A run ends with every slot idle, so nothing is left in flight.
            let left = ts.windows().last().expect("windows").inflight;
            if left != 0 {
                golden.fail(format!("{scenario:?} {protocol}: {left} left in flight"));
            }
            let path = format!("results/exactness/timeseries/{scenario:?}-{protocol}.json");
            golden.check(&path, &ts.to_json().render());
        }
    }
    golden.finish();
}
