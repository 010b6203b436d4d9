//! Invariants every engine must keep, checked once per engine.
//!
//! Each check loops over `Protocol::ALL`: the run commits and measures,
//! Smallbank money is conserved under a contended hotspot and under
//! message loss on the engine's own commit-handshake verbs, and a drained
//! run leaves no Locking Buffer, NIC filter, speculative line or record
//! lock behind.

use hades::core::runner::{Experiment, Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::fault::FaultPlan;
use hades::sim::config::SimConfig;
use hades::sim::time::Cycles;
use hades::storage::db::Database;
use hades::telemetry::event::{EventKind, RecoveryKind, TraceEvent, Verb, NO_SLOT};
use hades::telemetry::sink::Tracer;
use hades::workloads::catalog::AppId;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig};

/// Runs `app` at the quick scale on the default cluster.
fn run_app(p: Protocol, app: &str, warmup: u64, measure: u64) -> RunOutcome {
    let ex = Experiment {
        warmup,
        measure,
        ..Experiment::quick()
    };
    Run::apps(p, &ex, &[AppId::parse(app).unwrap()]).run()
}

/// Runs Smallbank on `cfg` over `accounts` accounts with a `hotspot`,
/// under `plan` if given and with `tracer` installed, and checks that
/// money is conserved: the final
/// total equals the initial total plus every committed RMW delta.
fn run_smallbank(
    p: Protocol,
    cfg: SimConfig,
    accounts: u64,
    hotspot: (u64, f64),
    measure: u64,
    plan: Option<FaultPlan>,
    tracer: Tracer,
) -> RunOutcome {
    let mut db = Database::new(cfg.shape.nodes);
    let sb = Smallbank::setup(
        &mut db,
        SmallbankConfig {
            accounts,
            hotspot: Some(hotspot),
        },
    );
    let out = Run::loaded(p, cfg, db, Box::new(sb.clone()), 0, measure)
        .plan(plan)
        .tracer(tracer)
        .run();
    assert_eq!(
        sb.check_conservation(&out.cluster.db, out.total_sum_delta),
        Ok(()),
        "{p}: commits {}, squashes {}",
        out.total_commits,
        out.stats.squashes
    );
    out
}

/// Nothing the commit protocols hold outlives the drain.
fn assert_no_leaks(p: Protocol, out: &RunOutcome) {
    assert_eq!(out.leaks(), Vec::<String>::new(), "{p}");
}

#[test]
fn every_engine_commits_and_measures() {
    for p in Protocol::ALL {
        let out = run_app(p, "HT-wB", 50, 300);
        assert_eq!(out.stats.committed, 300, "{p}");
        assert!(out.total_commits >= 350, "{p}: warmup commits missing");
        assert!(out.stats.throughput() > 0.0, "{p}");
        assert!(out.stats.mean_latency() > Cycles::ZERO, "{p}");
        assert!(out.stats.p95_latency() >= out.stats.mean_latency(), "{p}");
    }
}

#[test]
fn every_engine_conserves_money_on_a_hotspot() {
    for p in Protocol::ALL {
        let out = run_smallbank(
            p,
            SimConfig::isca_default(),
            2_000,
            (20, 0.7),
            600,
            None,
            Tracer::disabled(),
        );
        assert_eq!(out.stats.committed, 600, "{p}");
        assert_no_leaks(p, &out);
    }
}

#[test]
fn every_engine_survives_message_loss() {
    // Drop and duplicate the messages the engine's commit rounds wait
    // on: the timeout/abort/retry path must absorb them, and each round
    // must count each reply once.
    let engine_rounds = Protocol::ALL.map(|p| {
        let plan = match p {
            Protocol::Baseline => FaultPlan::none()
                .with_seed(7)
                .drop_verb(Verb::LockResp, 0.05)
                .drop_verb(Verb::ValidateResp, 0.05)
                .dup_verb(Verb::LockResp, 0.05),
            Protocol::HadesH | Protocol::Hades => FaultPlan::none()
                .with_seed(5)
                .drop_verb(Verb::Intend, 0.05)
                .drop_verb(Verb::Ack, 0.05)
                .dup_verb(Verb::Intend, 0.05)
                .dup_verb(Verb::Ack, 0.05),
        };
        (p, 0, plan)
    });
    // The remaining reply verbs: Baseline's validation replies, and the
    // replica prepares and acks that replication degree 1 adds to HADES's
    // round (HADES-H does not replicate).
    let fault = |seed, verbs: &[Verb]| {
        verbs
            .iter()
            .fold(FaultPlan::none().with_seed(seed), |plan, &v| {
                plan.drop_verb(v, 0.05).dup_verb(v, 0.05)
            })
    };
    let other_replies = [
        (Protocol::Baseline, 1, fault(7, &[Verb::ValidateResp])),
        (
            Protocol::Hades,
            1,
            fault(5, &[Verb::ReplicaPrepare, Verb::ReplicaAck]),
        ),
    ];
    for (p, degree, plan) in engine_rounds.into_iter().chain(other_replies) {
        let cfg = SimConfig::isca_default().with_replication(degree);
        let (tracer, sink) = Tracer::memory();
        let out = run_smallbank(p, cfg, 1_000, (16, 0.5), 400, Some(plan), tracer);
        assert_eq!(out.stats.committed, 400, "{p}");
        assert!(out.stats.faults.drops > 0, "{p}: plan must actually drop");
        assert!(
            out.stats.faults.dups > 0,
            "{p}: plan must actually duplicate"
        );
        assert!(
            out.stats.recovery.timeout_retries > 0,
            "{p}: dropped responses must surface as timeout retries"
        );
        // The plans drop no verb the transport retransmits, so every
        // timeout retry is the engine's: one per commit-timeout squash.
        let events = sink.borrow_mut().take_events();
        assert_eq!(
            timeout_retries_after_their_abort(p, &events),
            out.stats.recovery.timeout_retries,
            "{p}: traced timeout retries"
        );
        assert_no_leaks(p, &out);
    }
}

/// Checks that every slot-scoped timeout retry in `events` comes straight
/// after its slot's `commit-timeout` abort, at the same cycle, and
/// returns how many there are.
fn timeout_retries_after_their_abort(p: Protocol, events: &[TraceEvent]) -> u64 {
    let retry = EventKind::Recovery {
        action: RecoveryKind::TimeoutRetry,
    };
    let abort = EventKind::TxnAbort {
        reason: "commit-timeout",
    };
    let mut retries = 0;
    for (i, ev) in events.iter().enumerate() {
        if ev.kind != retry || ev.slot == NO_SLOT {
            continue;
        }
        retries += 1;
        let before = events[..i]
            .iter()
            .rev()
            .find(|e| (e.node, e.slot) == (ev.node, ev.slot))
            .map(|e| (e.at, e.kind));
        assert_eq!(
            before,
            Some((ev.at, abort)),
            "{p}: the timeout retry of slot {}/{} at {} does not follow its abort",
            ev.node,
            ev.slot,
            ev.at.get()
        );
    }
    retries
}

#[test]
fn no_engine_leaks_state_after_drain() {
    for p in Protocol::ALL {
        let out = run_app(p, "B+Tree-wA", 0, 200);
        assert_no_leaks(p, &out);
    }
}
