//! Verb batching & doorbell coalescing invariants (DESIGN.md §14).
//!
//! 1. Gating: with batching off (the default), a config that merely
//!    mentions the subsystem (`with_batching(BatchingParams::default())`)
//!    is byte-identical — events and stats — to one that never touched
//!    it, for all three protocol engines. The subsystem is strictly
//!    pay-for-what-you-use.
//! 2. Determinism: same-seed batched runs are byte-identical, including
//!    the `batching` stats block, and the block's counters telescope
//!    (`verbs() == carried` after the final flush).
//! 3. Ordering: batching must not reorder a queue pair — in a fault-free
//!    batched run, per-(src, dst) verb arrivals are non-decreasing in
//!    simulated send order (the commit handshake relies on per-QP FIFO).
//! 4. The adaptive doorbell policy grows the per-QP batch target while
//!    the sender has many verbs in flight and drains it back to 1 when
//!    the sender goes idle.
//! 5. No stall: HADES under batching at high contention commits its whole
//!    window and leaks no hardware state.
//! 6. One report per send: every batch a scheduling call closes is
//!    reported, older first, and reaches the trace, the time-series and
//!    the metrics registry through that one value, so their flush and
//!    carried-verb counts agree on every engine.

use hades::core::runner::{Experiment, Protocol, Run};
use hades::net::batch::{BatchRole, Batcher, Doorbell};
use hades::sim::config::{BatchingParams, NetParams, SimConfig};
use hades::sim::ids::NodeId;
use hades::sim::time::Cycles;
use hades::storage::db::Database;
use hades::storage::index::IndexKind;
use hades::telemetry::event::{EventKind, TraceEvent, Verb};
use hades::telemetry::jsonl::events_to_jsonl;
use hades::telemetry::registry::MetricsRegistry;
use hades::telemetry::sink::Tracer;
use hades::workloads::catalog::AppId;
use hades::workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

fn quick(cfg: SimConfig) -> Experiment {
    Experiment {
        cfg,
        scale: 0.005,
        warmup: 50,
        measure: 300,
    }
}

#[test]
fn batching_off_is_byte_identical_to_an_untouched_config() {
    let app = AppId::parse("Smallbank").unwrap();
    for protocol in Protocol::ALL {
        let plain_ex = quick(SimConfig::isca_default());
        let off_ex = quick(SimConfig::isca_default().with_batching(BatchingParams::default()));
        let (tracer, sink) = Tracer::memory();
        let plain = Run::apps(protocol, &plain_ex, &[app]).tracer(tracer).run();
        let plain_events = sink.borrow_mut().take_events();
        let (tracer, sink) = Tracer::memory();
        let off = Run::apps(protocol, &off_ex, &[app]).tracer(tracer).run();
        let off_events = sink.borrow_mut().take_events();
        assert_eq!(
            events_to_jsonl(&plain_events),
            events_to_jsonl(&off_events),
            "{protocol}: disabled batching perturbed the event stream"
        );
        assert!(
            off.stats.batching.is_none(),
            "{protocol}: disabled batching must not produce a stats block"
        );
        assert_eq!(
            off.stats.to_json().render(),
            plain.stats.to_json().render(),
            "{protocol}: disabled batching perturbed the stats"
        );
    }
}

#[test]
fn same_seed_batched_runs_are_byte_identical() {
    let app = AppId::parse("HT-wA").unwrap();
    for protocol in Protocol::ALL {
        let cfg = || SimConfig::isca_default().with_batching(BatchingParams::standard());
        let a = Run::apps(protocol, &quick(cfg()), &[app]).run().stats;
        let b = Run::apps(protocol, &quick(cfg()), &[app]).run().stats;
        let bt = a
            .batching
            .as_ref()
            .unwrap_or_else(|| panic!("{protocol}: batched run produced no batching block"));
        assert!(bt.flushes > 0, "{protocol}: no batches flushed");
        assert_eq!(
            bt.verbs(),
            bt.carried,
            "{protocol}: flushed batches must carry every routed verb exactly once"
        );
        assert_eq!(
            a.to_json().render(),
            b.to_json().render(),
            "{protocol}: same-seed batched runs diverged"
        );
    }
}

/// Pairs each `VerbSend` with the `VerbRecv` the fabric emits right after
/// it (fault-free runs emit them back to back) and returns
/// `(src, dst, sent, arrival)` in emission order.
fn paired_verbs(events: &[TraceEvent]) -> Vec<(u16, u16, Cycles, Cycles)> {
    let mut out = Vec::new();
    for pair in events.windows(2) {
        let (EventKind::VerbSend { dst, .. }, EventKind::VerbRecv { src, .. }) =
            (&pair[0].kind, &pair[1].kind)
        else {
            continue;
        };
        assert_eq!(pair[0].node, *src, "send/recv pair mismatched");
        assert_eq!(pair[1].node, *dst, "send/recv pair mismatched");
        out.push((*src, *dst, pair[0].at, pair[1].at));
    }
    out
}

#[test]
fn batched_arrivals_stay_fifo_per_queue_pair() {
    let app = AppId::parse("HT-wA").unwrap();
    for protocol in Protocol::ALL {
        let ex = quick(SimConfig::isca_default().with_batching(BatchingParams::fixed(4)));
        let (tracer, sink) = Tracer::memory();
        let out = Run::apps(protocol, &ex, &[app]).tracer(tracer).run();
        let events = sink.borrow_mut().take_events();
        let mut verbs = paired_verbs(&events);
        assert!(!verbs.is_empty(), "{protocol}: no verb traffic traced");
        let bt = out.stats.batching.as_ref().expect("batching block");
        assert!(
            bt.joined > 0,
            "{protocol}: fixed(4) batching coalesced nothing"
        );
        // The engines emit sends out of time order (they schedule future
        // sends inline), so order each queue pair by its `VerbSend`
        // timestamps — simulated send order — before checking arrivals.
        verbs.sort();
        for w in verbs.windows(2) {
            let ((s0, d0, t0, a0), (s1, d1, t1, a1)) = (w[0], w[1]);
            if (s0, d0) == (s1, d1) {
                assert!(
                    a1 >= a0,
                    "{protocol}: queue pair ({s0},{d0}) reordered: sent {t0} arrives {a0}, \
                     sent {t1} arrives {a1}"
                );
            }
        }
    }
}

#[test]
fn adaptive_target_tracks_the_senders_backlog() {
    let params = BatchingParams::standard();
    let (high, window) = (
        BatchingParams::HIGH_WATERMARK,
        BatchingParams::COALESCE_WINDOW,
    );
    let mut b = Batcher::new(params, NetParams::default(), 3);
    // Put enough verbs from node 0 on the wire at once that its in-flight
    // count crosses the high watermark, alternating destinations so every
    // verb leads a fresh batch.
    let mut now = Cycles::ZERO;
    for i in 0..(high * 4) {
        let dst = NodeId(1 + (i % 2) as u16);
        b.schedule(now, NodeId(0), dst, 64, Verb::Intend, Doorbell::Share);
        now += Cycles::new(1);
    }
    assert!(
        b.qp(NodeId(0), NodeId(1)).target() > 1,
        "verbs in flight above the high watermark must grow the batch target"
    );
    // A leader sent long after every verb landed sees nothing in flight:
    // the target collapses back to 1 (batching switches itself off).
    let idle = now + Cycles::new(window.get() * 1_000);
    b.schedule(
        idle,
        NodeId(0),
        NodeId(1),
        64,
        Verb::Intend,
        Doorbell::Share,
    );
    assert_eq!(
        b.qp(NodeId(0), NodeId(1)).target(),
        1,
        "an idle sender must drain the batch target back to 1"
    );
}

#[test]
fn hades_does_not_stall_under_batching_at_high_contention() {
    // YCSB-A over the hash table at theta 0.99 with 40k keys, batches of
    // up to 4, seed 1. While coalescing followed call order, HADES stopped
    // committing here after 1,505 transactions, spinning on Locking
    // Buffer stalls.
    let cfg = SimConfig::isca_default()
        .with_seed(1)
        .with_batching(BatchingParams {
            max_batch: 4,
            ..BatchingParams::standard()
        });
    let mut db = Database::new(cfg.shape.nodes);
    let ycsb = YcsbConfig {
        theta: 0.99,
        ..YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A).scaled(0.01)
    };
    let ycsb = Box::new(Ycsb::setup(&mut db, ycsb));
    let measure = 5_000;
    let out = Run::loaded(Protocol::Hades, cfg, db, ycsb, 1_000, measure).run();
    assert_eq!(
        out.stats.committed, measure,
        "the measurement window must fill"
    );
    let bt = out.stats.batching.as_ref().expect("batching block");
    assert!(bt.joined > 0, "the run must actually coalesce");
    assert_eq!(out.leaks(), Vec::<String>::new());
}

#[test]
fn a_leader_reports_every_batch_it_closes_older_first() {
    let params = BatchingParams::standard();
    let (high, window) = (
        BatchingParams::HIGH_WATERMARK,
        BatchingParams::COALESCE_WINDOW,
    );
    let mut b = Batcher::new(params, NetParams::default(), 3);
    let (src, dst) = (NodeId(0), NodeId(1));
    // A backlog from node 0 grows the target, so a batch stays open.
    let mut now = Cycles::ZERO;
    for i in 0..(high * 4) {
        let to = NodeId(1 + (i % 2) as u16);
        b.schedule(now, src, to, 64, Verb::Intend, Doorbell::Share);
        now += Cycles::new(1);
    }
    let ring = b.schedule(now, src, dst, 64, Verb::Intend, Doorbell::Ring);
    assert_eq!(ring.role, BatchRole::Led);
    let join = b.schedule(now, src, dst, 64, Verb::Intend, Doorbell::Share);
    assert_eq!(join.role, BatchRole::Joined);
    assert!(join.flushed.is_empty(), "the batch is not full yet");
    assert_eq!(b.qp(src, dst).occupancy(), 2);
    // Long after, a Share leader supersedes the open batch and, seeing
    // nothing in flight, drains the target and closes itself at once.
    let idle = now + Cycles::new(window.get() * 1_000);
    let s = b.schedule(idle, src, dst, 64, Verb::Intend, Doorbell::Share);
    assert_eq!(s.role, BatchRole::Led);
    assert_eq!(
        s.flushed[..],
        [2, 1],
        "the superseded batch, then the leader's own"
    );
    assert_eq!(b.qp(src, dst).occupancy(), 0);
}

#[test]
fn batch_flushes_agree_across_trace_timeseries_and_registry() {
    let app = AppId::parse("HT-wA").unwrap();
    for protocol in Protocol::ALL {
        let cfg = SimConfig::isca_default()
            .with_batching(BatchingParams::standard())
            .with_timeseries(Cycles::from_micros(20));
        let ex = Experiment {
            cfg,
            scale: 0.005,
            warmup: 50,
            measure: 600,
        };
        let (tracer, sink) = Tracer::memory();
        let out = Run::apps(protocol, &ex, &[app]).tracer(tracer).run();
        let events = sink.borrow_mut().take_events();
        let (flushes, verbs) = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BatchFlushed { size, .. } => Some(size as u64),
                _ => None,
            })
            .fold((0, 0), |(n, v), size| (n + 1, v + size));
        assert!(flushes > 0, "{protocol}: no batch flush traced");
        let ts = out.stats.timeseries.as_ref().expect("time-series on");
        let windows = ts
            .windows()
            .iter()
            .fold((0, 0), |(n, v), w| (n + w.batch_flushes, v + w.batch_verbs));
        assert_eq!(
            windows,
            (flushes, verbs),
            "{protocol}: the time-series and the trace count different flushes"
        );
        let reg = MetricsRegistry::from_events(&events);
        assert_eq!(
            (reg.counter("batch.flushed"), reg.counter("batch.verbs")),
            (flushes, verbs),
            "{protocol}: the registry and the trace count different flushes"
        );
        // The run's closing flush of still-open batches is counted in the
        // stats block only.
        let bt = out.stats.batching.as_ref().expect("batching block");
        assert!(bt.flushes >= flushes, "{protocol}: stats lost flushes");
    }
}
