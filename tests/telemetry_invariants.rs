//! Invariants of the telemetry layer's event taxonomy and its exporters,
//! checked through the public API: the event description
//! (`event.rs`), the JSONL and Chrome exporters, the metrics registry and
//! the windowed time-series.
//!
//! `tests/telemetry_exports.rs` pins the exported bytes; this file states
//! what those bytes must mean.

use hades::core::runner::{Protocol, Run};
use hades::fault::FaultPlan;
use hades::sim::config::{MembershipParams, SimConfig};
use hades::sim::time::Cycles;
use hades::storage::db::Database;
use hades::telemetry::chrome::{chrome_trace, span_chrome_trace};
use hades::telemetry::event::{
    EventKind, InjectedFault, Phase, RecoveryKind, TraceEvent, Verb, VerbCounts, NO_SLOT,
};
use hades::telemetry::json::Json;
use hades::telemetry::jsonl::events_to_jsonl;
use hades::telemetry::observer::TxnObserver;
use hades::telemetry::profile::ProfPhase;
use hades::telemetry::registry::MetricsRegistry;
use hades::telemetry::timeseries::{Occupancy, TimeSeries, WindowStats, TS_SCHEMA};
use hades::workloads::smallbank::{Smallbank, SmallbankConfig};

fn cy(n: u64) -> Cycles {
    Cycles::new(n)
}

fn ev(at: u64, node: u16, slot: u32, kind: EventKind) -> TraceEvent {
    TraceEvent {
        at: cy(at),
        node,
        slot,
        kind,
    }
}

// ---- The taxonomy ----------------------------------------------------------

#[test]
fn verb_indexes_are_dense_and_stable() {
    for (i, v) in Verb::ALL.iter().enumerate() {
        assert_eq!(v.index(), i);
    }
    assert_eq!(Verb::COUNT, 16);
}

#[test]
fn verb_counts_accumulate_and_merge() {
    let mut a = VerbCounts::new();
    let mut b = VerbCounts::new();
    a.bump(Verb::Read);
    b.bump(Verb::Read);
    b.bump(Verb::Ack);
    a.merge(&b);
    assert_eq!(a.get(Verb::Read), 2);
    assert_eq!(a.get(Verb::Ack), 1);
    assert_eq!(a.total(), 3);
}

#[test]
fn categories_cover_all_kinds() {
    let cases = [
        (EventKind::TxnBegin { attempt: 1 }, "txn"),
        (EventKind::PhaseBegin(Phase::Exec), "phase"),
        (
            EventKind::VerbSend {
                verb: Verb::Intend,
                dst: 1,
                bytes: 64,
            },
            "net",
        ),
        (EventKind::BloomProbe { hit: false }, "bloom"),
        (EventKind::LockStall { holder: 7 }, "lock"),
        (
            EventKind::FaultInjected {
                fault: InjectedFault::Drop { verb: Verb::Intend },
            },
            "fault",
        ),
        (
            EventKind::Recovery {
                action: RecoveryKind::LeaseExpire,
            },
            "recovery",
        ),
        (EventKind::AdmissionThrottled, "overload"),
        (EventKind::DegradedCommit, "overload"),
        (EventKind::StarvationBoost { attempt: 9 }, "overload"),
        (EventKind::EpochChange { epoch: 1 }, "membership"),
        (
            EventKind::Promotion {
                partition: 1,
                new_primary: 2,
            },
            "membership",
        ),
        (EventKind::VerbFenced { verb: Verb::Ack }, "membership"),
        (EventKind::BatchFlushed { dst: 1, size: 4 }, "batch"),
        (EventKind::BatchCoalesced { dst: 1 }, "batch"),
        (
            EventKind::MigrationStart {
                partition: 2,
                dst: 0,
            },
            "migration",
        ),
        (
            EventKind::ChunkMigrated {
                partition: 2,
                chunk: 3,
            },
            "migration",
        ),
        (EventKind::MigrationCutover { epoch: 2 }, "migration"),
        (EventKind::LinkCut { src: 0, dst: 1 }, "fault"),
        (EventKind::LinkHealed { src: 0, dst: 1 }, "fault"),
        (EventKind::SelfFenced { node: 3 }, "membership"),
        (EventKind::QuorumLost { node: 3 }, "membership"),
    ];
    for (kind, cat) in cases {
        assert_eq!(kind.category(), cat);
        let d = kind.describe();
        assert_eq!((d.cat, d.name), (kind.category(), kind.name()));
    }
}

#[test]
fn fault_labels_and_verbs_are_stable() {
    assert_eq!(InjectedFault::NodeCrash.label(), "node_crash");
    assert_eq!(InjectedFault::NodeCrash.verb(), None);
    let drop = InjectedFault::Drop { verb: Verb::Ack };
    assert_eq!(drop.label(), "drop");
    assert_eq!(drop.verb(), Some(Verb::Ack));
    assert_eq!(RecoveryKind::ReplicaReplay.label(), "replica_replay");
}

// ---- JSONL -----------------------------------------------------------------

#[test]
fn one_line_per_event_and_stable_fields() {
    let events = [
        ev(5, 1, 2, EventKind::PhaseBegin(Phase::Validate)),
        ev(
            9,
            1,
            NO_SLOT,
            EventKind::VerbSend {
                verb: Verb::Ack,
                dst: 0,
                bytes: 64,
            },
        ),
    ];
    let s = events_to_jsonl(&events);
    let lines: Vec<&str> = s.lines().collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(
        lines[0],
        "{\"cy\":5,\"node\":1,\"slot\":2,\"cat\":\"phase\",\"ev\":\"phase_begin\",\"phase\":\"validate\"}"
    );
    // Node-scoped events omit the slot field entirely.
    assert!(!lines[1].contains("slot"));
    assert!(lines[1].contains("\"verb\":\"ack\""));
}

#[test]
fn rendering_is_deterministic() {
    let e = ev(1, 0, 0, EventKind::TxnAbort { reason: "fp" });
    assert_eq!(events_to_jsonl(&[e]), events_to_jsonl(&[e]));
}

// ---- Chrome trace ----------------------------------------------------------

#[test]
fn phases_emit_balanced_b_e_pairs() {
    let events = [
        ev(0, 0, 0, EventKind::TxnBegin { attempt: 1 }),
        ev(0, 0, 0, EventKind::PhaseBegin(Phase::Exec)),
        ev(100, 0, 0, EventKind::PhaseEnd(Phase::Exec)),
        ev(100, 0, 0, EventKind::PhaseBegin(Phase::Commit)),
        ev(300, 0, 0, EventKind::TxnCommit),
    ];
    let s = chrome_trace(&events);
    assert_eq!(s.matches("\"ph\":\"B\"").count(), 2);
    assert_eq!(s.matches("\"ph\":\"E\"").count(), 2);
    assert!(s.contains("\"ts\":0.05")); // 100 cycles = 0.05 us
}

#[test]
fn abort_closes_open_phases() {
    let events = [
        ev(0, 0, 3, EventKind::PhaseBegin(Phase::Exec)),
        ev(50, 0, 3, EventKind::TxnAbort { reason: "conflict" }),
    ];
    let s = chrome_trace(&events);
    assert_eq!(s.matches("\"ph\":\"B\"").count(), 1);
    assert_eq!(s.matches("\"ph\":\"E\"").count(), 1);
    assert!(s.contains("conflict"));
}

#[test]
fn has_four_plus_categories_and_metadata() {
    let events = [
        ev(0, 0, 0, EventKind::TxnBegin { attempt: 1 }),
        ev(1, 0, 0, EventKind::PhaseBegin(Phase::Exec)),
        ev(
            2,
            0,
            NO_SLOT,
            EventKind::VerbSend {
                verb: Verb::Read,
                dst: 1,
                bytes: 64,
            },
        ),
        ev(3, 1, NO_SLOT, EventKind::BloomProbe { hit: true }),
        ev(4, 1, NO_SLOT, EventKind::LockStall { holder: 9 }),
        ev(5, 0, 0, EventKind::TxnCommit),
    ];
    let s = chrome_trace(&events);
    for cat in ["txn", "phase", "net", "bloom", "lock"] {
        assert!(s.contains(&format!("\"cat\":\"{cat}\"")), "missing {cat}");
    }
    assert!(s.contains("process_name"));
    assert!(s.contains("thread_name"));
    assert!(s.contains("nic/directory"));
}

#[test]
fn phase_counter_track_follows_open_phases() {
    let events = [
        ev(0, 0, 0, EventKind::PhaseBegin(Phase::Exec)),
        ev(5, 1, 4, EventKind::PhaseBegin(Phase::Exec)),
        ev(100, 0, 0, EventKind::PhaseEnd(Phase::Exec)),
        ev(150, 1, 4, EventKind::PhaseEnd(Phase::Exec)),
    ];
    let s = chrome_trace(&events);
    // Two slots open and close exec: counter goes 1, 2, 1, 0.
    assert_eq!(s.matches("\"ph\":\"C\"").count(), 4);
    assert_eq!(s.matches("\"name\":\"open.exec\"").count(), 4);
    assert!(s.contains("{\"open\":2}"));
    assert!(s.contains("{\"open\":0}"));
    assert!(s.contains("cluster phases"));
}

#[test]
fn counter_track_absent_without_phase_events() {
    let events = [
        ev(0, 0, 0, EventKind::TxnBegin { attempt: 1 }),
        ev(5, 0, 0, EventKind::TxnCommit),
    ];
    let s = chrome_trace(&events);
    assert_eq!(s.matches("\"ph\":\"C\"").count(), 0);
    assert!(!s.contains("cluster phases"));
}

#[test]
fn span_trace_renders_tail_tracks() {
    let mut obs = TxnObserver::new(1, false, true);
    obs.slot_start(0, 2, 5, cy(100));
    obs.round_begin(0, Verb::Intend, 2, cy(150));
    obs.round_end(0, cy(190));
    obs.slot_abort(0, "wrtx-conflict", cy(200));
    obs.slot_enter(0, ProfPhase::Exec, cy(260));
    obs.slot_enter(0, ProfPhase::Commit, cy(320));
    obs.slot_commit(0, cy(400), true);
    let log = obs.finish().1.expect("spans enabled");
    let s = span_chrome_trace(&log, 10);
    let doc = Json::parse(&s).expect("valid JSON");
    let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(evs.iter().any(|e| {
        e.get("ph").and_then(|p| p.as_str()) == Some("X")
            && e.get("cat").and_then(|c| c.as_str()) == Some("span")
    }));
    assert!(s.contains("abort:wrtx-conflict"));
    assert!(s.contains("intendx2"));
    assert!(s.contains("tail txns"));
    // Flow arrow from the abort to the retry.
    assert!(s.contains("\"ph\":\"s\""));
    assert!(s.contains("\"ph\":\"f\""));
}

// ---- Metrics registry ------------------------------------------------------

#[test]
fn counters_and_histograms_round_trip() {
    let mut reg = MetricsRegistry::new();
    reg.inc("a");
    reg.add("a", 2);
    reg.observe("h", cy(10));
    assert_eq!(reg.counter("a"), 3);
    assert_eq!(reg.histogram("h").unwrap().count(), 1);
    assert_eq!(reg.counter("missing"), 0);
}

#[test]
fn from_events_reconstructs_lifecycle() {
    let events = [
        ev(0, 0, 0, EventKind::TxnBegin { attempt: 1 }),
        ev(0, 0, 0, EventKind::PhaseBegin(Phase::Exec)),
        ev(100, 0, 0, EventKind::PhaseEnd(Phase::Exec)),
        ev(
            100,
            0,
            0,
            EventKind::VerbSend {
                verb: Verb::Intend,
                dst: 1,
                bytes: 96,
            },
        ),
        ev(
            150,
            1,
            NO_SLOT,
            EventKind::VerbRecv {
                verb: Verb::Intend,
                src: 0,
                bytes: 96,
            },
        ),
        ev(200, 0, 0, EventKind::TxnCommit),
        ev(210, 0, 1, EventKind::TxnBegin { attempt: 1 }),
        ev(250, 0, 1, EventKind::TxnAbort { reason: "conflict" }),
    ];
    let reg = MetricsRegistry::from_events(&events);
    assert_eq!(reg.counter("txn.begin"), 2);
    assert_eq!(reg.counter("txn.commit"), 1);
    assert_eq!(reg.counter("abort.conflict"), 1);
    assert_eq!(reg.counter("verb.sent.intend"), 1);
    assert_eq!(reg.counter("verb.recv.intend"), 1);
    assert_eq!(reg.counter("net.bytes_sent"), 96);
    assert_eq!(reg.histogram("phase.exec").unwrap().count(), 1);
    assert_eq!(reg.histogram("txn.latency").unwrap().max(), cy(200));
}

#[test]
fn merge_sums_counters_and_histograms() {
    let mut a = MetricsRegistry::new();
    let mut b = MetricsRegistry::new();
    a.inc("x");
    b.add("x", 4);
    b.observe("h", cy(7));
    a.merge(&b);
    assert_eq!(a.counter("x"), 5);
    assert_eq!(a.histogram("h").unwrap().count(), 1);
}

#[test]
fn json_export_is_sorted_and_deterministic() {
    let mut reg = MetricsRegistry::new();
    reg.inc("zeta");
    reg.inc("alpha");
    let s = reg.to_json().render();
    assert!(s.find("alpha").unwrap() < s.find("zeta").unwrap());
    assert_eq!(s, reg.to_json().render());
}

// ---- Time-series -----------------------------------------------------------

const ABORT: EventKind = EventKind::TxnAbort { reason: "conflict" };
const CHUNK: EventKind = EventKind::ChunkMigrated {
    partition: 1,
    chunk: 0,
};

#[test]
fn events_land_in_their_windows() {
    let mut ts = TimeSeries::new(cy(100), 2);
    ts.on_fresh_start(0);
    ts.on_fresh_start(1);
    ts.on_exit(0, Some(cy(40)));
    ts.observe(1, &ABORT);
    assert!(ts.needs_roll(cy(150)));
    ts.roll(Occupancy::default());
    assert!(!ts.needs_roll(cy(150)));
    ts.on_exit(1, Some(cy(90)));
    ts.finish(Occupancy {
        lb_occupied: 3,
        lb_slots: 8,
        bf_ones: 10,
        bf_bits: 64,
    });
    let w = ts.windows();
    assert_eq!(w.len(), 2);
    assert_eq!(w[0].committed, vec![1, 0]);
    assert_eq!(w[0].aborted, vec![0, 1]);
    assert_eq!(w[0].inflight, 1);
    assert_eq!(w[1].committed, vec![0, 1]);
    assert_eq!(w[1].samples, 1);
    assert_eq!(w[1].p99, cy(90));
    assert_eq!(w[1].occupancy.lb_occupied, 3);
    // Finished: further recording is ignored.
    ts.on_exit(0, Some(cy(10)));
    assert_eq!(ts.windows().len(), 2);
}

#[test]
fn empty_windows_have_zero_p99() {
    let mut ts = TimeSeries::new(cy(10), 1);
    ts.roll(Occupancy::default());
    ts.roll(Occupancy::default());
    ts.finish(Occupancy::default());
    for w in ts.windows() {
        assert_eq!(w.samples, 0);
        assert_eq!(w.p99, Cycles::ZERO);
    }
}

#[test]
fn goodput_dip_is_measured() {
    let mut ts = TimeSeries::new(cy(100), 1);
    // Four healthy windows of 10, then a dip (2, 4), then recovery.
    for &c in &[10u64, 10, 10, 10, 2, 4, 10] {
        for _ in 0..c {
            ts.on_fresh_start(0);
            ts.on_exit(0, Some(cy(5)));
        }
        ts.roll(Occupancy::default());
    }
    ts.finish(Occupancy::default());
    let dip = ts.goodput_dip(cy(405)).expect("baseline exists");
    assert!((dip.baseline - 10.0).abs() < 1e-9);
    assert_eq!(dip.min_committed, 2);
    assert_eq!(dip.windows_below, 2);
    assert!((dip.depth - 0.8).abs() < 1e-9);
    // No pre-disruption windows: no baseline.
    assert!(ts.goodput_dip(cy(0)).is_none());
}

#[test]
fn batch_series_is_windowed_and_gated() {
    // Without a single flush the batching fields are absent, so a
    // batching-off run renders identically to the pre-batching build.
    let mut ts = TimeSeries::new(cy(100), 1);
    ts.on_exit(0, Some(cy(5)));
    ts.finish(Occupancy::default());
    let doc = ts.to_json();
    let w = &doc.get("windows").unwrap().as_arr().unwrap()[0];
    assert!(w.get("batch_flushes").is_none(), "gated when batching off");

    let mut ts = TimeSeries::new(cy(100), 1);
    ts.observe(0, &EventKind::BatchFlushed { dst: 1, size: 4 });
    ts.observe(0, &EventKind::BatchFlushed { dst: 2, size: 2 });
    ts.roll(Occupancy::default());
    ts.finish(Occupancy::default());
    assert_eq!(ts.windows()[0].batch_flushes, 2);
    assert_eq!(ts.windows()[0].batch_verbs, 6);
    assert_eq!(ts.windows()[1].batch_flushes, 0);
    let doc = ts.to_json();
    let ws = doc.get("windows").unwrap().as_arr().unwrap();
    assert_eq!(ws[0].get("batch_flushes").unwrap().as_u64(), Some(2));
    assert_eq!(ws[0].get("batch_occupancy").unwrap().as_f64(), Some(3.0));
    // Once batching was seen, every window carries the fields.
    assert_eq!(ws[1].get("batch_flushes").unwrap().as_u64(), Some(0));
}

#[test]
fn migration_series_is_windowed_and_gated() {
    // No chunk ever recorded: the field is absent, so migration-off
    // runs render identically to the pre-migration build.
    let mut ts = TimeSeries::new(cy(100), 1);
    ts.on_exit(0, Some(cy(5)));
    ts.finish(Occupancy::default());
    let doc = ts.to_json();
    let w = &doc.get("windows").unwrap().as_arr().unwrap()[0];
    assert!(
        w.get("migration_moves").is_none(),
        "gated when migration off"
    );

    let mut ts = TimeSeries::new(cy(100), 1);
    ts.observe(1, &CHUNK);
    ts.observe(1, &CHUNK);
    ts.roll(Occupancy::default());
    ts.finish(Occupancy::default());
    assert_eq!(ts.windows()[0].migration_moves, 2);
    assert_eq!(ts.windows()[1].migration_moves, 0);
    let doc = ts.to_json();
    let ws = doc.get("windows").unwrap().as_arr().unwrap();
    assert_eq!(ws[0].get("migration_moves").unwrap().as_u64(), Some(2));
    // Once migration was seen, every window carries the field.
    assert_eq!(ws[1].get("migration_moves").unwrap().as_u64(), Some(0));
}

#[test]
fn json_shape_is_stable() {
    let mut ts = TimeSeries::new(cy(2_000), 2);
    ts.on_fresh_start(0);
    ts.on_exit(0, Some(cy(123)));
    ts.observe(0, &EventKind::AdmissionThrottled);
    ts.observe(1, &EventKind::EpochChange { epoch: 1 });
    ts.finish(Occupancy {
        lb_occupied: 4,
        lb_slots: 16,
        bf_ones: 32,
        bf_bits: 128,
    });
    let doc = ts.to_json();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(TS_SCHEMA));
    assert_eq!(doc.get("nodes").unwrap().as_u64(), Some(2));
    let w = &doc.get("windows").unwrap().as_arr().unwrap()[0];
    assert_eq!(w.get("samples").unwrap().as_u64(), Some(1));
    assert_eq!(w.get("admission").unwrap().as_u64(), Some(1));
    assert_eq!(w.get("failover").unwrap().as_u64(), Some(1));
    assert_eq!(w.get("lb_occupancy").unwrap().as_f64(), Some(0.25));
    assert_eq!(w.get("bf_occupancy").unwrap().as_f64(), Some(0.25));
}

/// A window's event-count columns: aborts, admission throttles, degraded
/// commits, failover actions, batch flushes, batched verbs, migration
/// moves, link cuts and self-fences.
fn columns(w: &WindowStats) -> [u64; 9] {
    [
        w.aborted_total(),
        w.admission,
        w.degraded,
        w.failover,
        w.batch_flushes,
        w.batch_verbs,
        w.migration_moves,
        w.link_cuts,
        w.self_fences,
    ]
}

/// `observe` counts exactly the kinds the series has a column for, each
/// in its own column, and ignores every other kind.
#[test]
fn observe_maps_each_counted_kind_to_its_column() {
    let cut = EventKind::FaultInjected {
        fault: InjectedFault::LinkCut { verb: Verb::Ack },
    };
    let promotion = EventKind::Promotion {
        partition: 1,
        new_primary: 0,
    };
    #[rustfmt::skip]
    let counted = [
        (ABORT,                                       [1, 0, 0, 0, 0, 0, 0, 0, 0]),
        (EventKind::AdmissionThrottled,               [0, 1, 0, 0, 0, 0, 0, 0, 0]),
        (EventKind::DegradedCommit,                   [0, 0, 1, 0, 0, 0, 0, 0, 0]),
        (EventKind::EpochChange { epoch: 2 },         [0, 0, 0, 1, 0, 0, 0, 0, 0]),
        (promotion,                                   [0, 0, 0, 1, 0, 0, 0, 0, 0]),
        (EventKind::BatchFlushed { dst: 0, size: 3 }, [0, 0, 0, 0, 1, 3, 0, 0, 0]),
        (CHUNK,                                       [0, 0, 0, 0, 0, 0, 1, 0, 0]),
        (cut,                                         [0, 0, 0, 0, 0, 0, 0, 1, 0]),
        (EventKind::SelfFenced { node: 1 },           [0, 0, 0, 0, 0, 0, 0, 0, 1]),
    ];
    for (kind, want) in counted {
        let mut ts = TimeSeries::new(cy(100), 2);
        ts.observe(1, &kind);
        ts.finish(Occupancy::default());
        let w = &ts.windows()[0];
        assert_eq!(columns(w), want, "{kind:?}");
        if kind == ABORT {
            assert_eq!(w.aborted, vec![0, 1], "an abort counts at its node");
        }
    }
    let ignored = [
        EventKind::TxnBegin { attempt: 1 },
        EventKind::TxnCommit,
        EventKind::BatchCoalesced { dst: 0 },
        EventKind::LinkCut { src: 1, dst: 0 },
        EventKind::QuorumLost { node: 1 },
        EventKind::VerbFenced { verb: Verb::Ack },
        EventKind::FaultInjected {
            fault: InjectedFault::Drop { verb: Verb::Ack },
        },
        EventKind::MigrationCutover { epoch: 3 },
    ];
    let mut quiet = TimeSeries::new(cy(100), 2);
    quiet.finish(Occupancy::default());
    let mut ts = TimeSeries::new(cy(100), 2);
    for kind in &ignored {
        ts.observe(1, kind);
    }
    ts.finish(Occupancy::default());
    assert_eq!(
        ts.to_json().render(),
        quiet.to_json().render(),
        "an ignored kind was counted"
    );
}

#[test]
fn a_crash_empties_its_nodes_inflight_count() {
    let crash = EventKind::FaultInjected {
        fault: InjectedFault::NodeCrash,
    };
    let mut ts = TimeSeries::new(cy(100), 2);
    for node in [0, 1, 1, 1] {
        ts.on_fresh_start(node);
    }
    ts.observe(1, &crash);
    ts.roll(Occupancy::default());
    ts.on_fresh_start(1);
    ts.finish(Occupancy::default());
    let inflight: Vec<u64> = ts.windows().iter().map(|w| w.inflight).collect();
    assert_eq!(
        inflight,
        vec![1, 2],
        "node 1's three wiped transactions stayed in flight"
    );
}

/// A node crash wipes the transactions its slots were running, and the
/// restart starts fresh ones in their place: no wiped transaction may
/// stay counted in flight. Smallbank with replication 1 while nodes 1,
/// 2 and 3 each crash for 20 µs under the membership layer, with
/// 20k-cycle windows: every window of every engine holds at most one
/// transaction in flight per slot.
#[test]
fn crash_wiped_transactions_leave_the_inflight_count() {
    let cfg = SimConfig::isca_default()
        .with_replication(1)
        .with_membership(MembershipParams::standard())
        .with_timeseries(Cycles::new(20_000));
    let slots = cfg.shape.total_slots() as u64;
    let mut plan = FaultPlan::none();
    for node in 1..4u16 {
        let at = Cycles::from_micros(30 * u64::from(node));
        plan = plan.crash(node, at, at + Cycles::from_micros(20));
    }
    for protocol in Protocol::ALL {
        let mut db = Database::new(cfg.shape.nodes);
        let sb = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts: 2_000,
                hotspot: None,
            },
        );
        let stats = Run::loaded(protocol, cfg.clone(), db, Box::new(sb), 100, 4_000)
            .plan(Some(plan.clone()))
            .run()
            .stats;
        assert_eq!(stats.faults.crashes, 3, "{protocol}: crashes");
        let ts = stats.timeseries.as_ref().expect("time-series on");
        for w in ts.windows() {
            assert!(
                w.inflight <= slots,
                "{protocol}: window {} holds {} in flight on {slots} slots",
                w.idx,
                w.inflight
            );
        }
    }
}
