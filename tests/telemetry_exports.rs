//! Byte pins for the telemetry exports.
//!
//! Two kinds of output are pinned by 64-bit FNV-1a digests:
//!
//! 1. A synthetic event stream holding every [`EventKind`] variant and
//!    every [`InjectedFault`], [`RecoveryKind`] and [`FilterSite`] label,
//!    mixing node-scoped and slot-scoped events, with open phases closed
//!    by an abort and by the end of the stream. It is rendered through
//!    the three stream exporters: JSONL, the Chrome trace and the metrics
//!    registry's JSON.
//! 2. The `timeseries` JSON block of five quick runs, each built around
//!    one input of the windowed series: the aggressive overload profile
//!    (admission, degraded commits), verb batching (batch flushes), a
//!    crash with restart under the membership layer (in-flight count),
//!    a live shard migration (chunk moves), and a link cut under the
//!    partition-safe membership profile (link cuts, self-fences,
//!    failover). Each run also asserts that its inputs are non-zero, so
//!    the pin cannot pass on an empty series.
//!
//! The digests were first recorded at commit 8fc5da9. The crash rows
//! were re-recorded when a node crash stopped leaving the transactions
//! it wiped counted in flight, and 13 time-series rows when a retry
//! dropped at the drain stopped being counted in flight. The three
//! stream digests were re-recorded when the `persist_fail` and
//! `link_slow` fault labels were removed. A change that moves an export
//! on purpose re-records the affected rows and says so.

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
use Protocol::{Baseline, Hades, HadesH};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

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
    let jsonl = fnv1a(events_to_jsonl(&events).as_bytes());
    let chrome = fnv1a(chrome_trace(&events).as_bytes());
    let metrics = fnv1a(
        MetricsRegistry::from_events(&events)
            .to_json()
            .render()
            .as_bytes(),
    );
    assert_eq!(
        (jsonl, chrome, metrics),
        (
            0x8086_82e6_2abf_d83e,
            0x99c7_e004_0981_1e1b,
            0x719d_db17_343b_21ed
        ),
        "digests (JSONL, Chrome, metrics): ({jsonl:#018x}, {chrome:#018x}, {metrics:#018x})"
    );
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
        Scenario::Overload => {
            let cfg = cfg
                .with_lock_buffer_slots(1)
                .with_overload(OverloadParams::aggressive());
            let ex = ex(cfg);
            Run::apps(protocol, &ex, &[htwa]).run().stats
        }
        Scenario::Batching => {
            let ex = ex(cfg.with_batching(BatchingParams::standard()));
            Run::apps(protocol, &ex, &[htwa]).run().stats
        }
        Scenario::CrashRestart => {
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
        Scenario::Migration => {
            let ex = ex(cfg.with_migration(MigrationParams::standard(vec![(2, 0)])));
            Run::apps(protocol, &ex, &[htwa]).run().stats
        }
        Scenario::LinkCut => {
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
        Scenario::Overload => {
            nonzero("admission", total(w, |w| w.admission));
            if protocol != Baseline {
                nonzero("degraded commits", total(w, |w| w.degraded));
            }
        }
        Scenario::Batching => {
            nonzero("batch flushes", total(w, |w| w.batch_flushes));
            nonzero("batched verbs", total(w, |w| w.batch_verbs));
        }
        Scenario::CrashRestart => {
            assert_eq!(stats.faults.crashes, 3, "{protocol}: crashes");
            assert_eq!(stats.faults.restarts, 3, "{protocol}: restarts");
            nonzero("in-flight transactions", total(w, |w| w.inflight));
        }
        Scenario::Migration => nonzero("migration moves", total(w, |w| w.migration_moves)),
        Scenario::LinkCut => {
            nonzero("link cuts", total(w, |w| w.link_cuts));
            nonzero("self-fences", total(w, |w| w.self_fences));
            nonzero("failover events", total(w, |w| w.failover));
        }
    }
}

/// FNV-1a digests of each run's rendered `timeseries` block.
#[rustfmt::skip]
const TIMESERIES: [(Scenario, Protocol, u64); 15] = [
    // Every row but CrashRestart Baseline and HADES-H re-recorded once a
    // retry dropped at the drain left the in-flight count (the values at
    // db83461 are listed in CHANGES.md).
    (Scenario::Overload, Baseline, 0xa207_6f5d_3cc8_7b09),
    (Scenario::Overload, HadesH, 0x8edb_7685_010b_8faf),
    (Scenario::Overload, Hades, 0x1001_b033_238e_8f51),
    (Scenario::Batching, Baseline, 0x847a_c8d1_eaec_2d6d),
    (Scenario::Batching, HadesH, 0x176f_1400_e7c5_8ed3),
    (Scenario::Batching, Hades, 0x9a3a_4302_cbf9_4f07),
    // Also re-recorded once a crash stopped leaving its wiped
    // transactions in flight (recorded at 8fc5da9: 0x0434_fb4b_4b18_c058,
    // 0x7e46_7882_05a1_a639, 0x33a7_3832_8e81_06a7).
    (Scenario::CrashRestart, Baseline, 0xd193_ac0b_04d1_8eac),
    (Scenario::CrashRestart, HadesH, 0x5c8c_5b77_3659_0115),
    (Scenario::CrashRestart, Hades, 0xac54_dc16_cb31_a1d9),
    (Scenario::Migration, Baseline, 0xe610_ad91_bff0_1054),
    (Scenario::Migration, HadesH, 0xc588_bacf_cb71_38ee),
    (Scenario::Migration, Hades, 0xd3d0_c4c0_bcd6_816c),
    (Scenario::LinkCut, Baseline, 0x6466_1bf6_6384_9669),
    (Scenario::LinkCut, HadesH, 0x1cad_0e24_ea4a_370e),
    (Scenario::LinkCut, Hades, 0x6a1f_f78d_5154_1aed),
];

#[test]
fn timeseries_blocks_are_pinned() {
    let mut bad = Vec::new();
    for &(scenario, protocol, want) in &TIMESERIES {
        let stats = run(protocol, scenario);
        assert_exercised(protocol, scenario, &stats);
        let ts = stats.timeseries.as_ref().expect("time-series on");
        // A run ends with every slot idle, so nothing is left in flight.
        let left = ts.windows().last().expect("windows").inflight;
        if left != 0 {
            bad.push(format!(
                "{scenario:?} {protocol}: {left} in flight at the end"
            ));
        }
        let got = fnv1a(ts.to_json().render().as_bytes());
        if got != want {
            bad.push(format!("{scenario:?} {protocol}: {got:#018x}"));
        }
    }
    assert!(
        bad.is_empty(),
        "time-series runs failed:\n{}",
        bad.join("\n")
    );
}
