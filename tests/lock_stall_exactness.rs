//! Exactness guard for the engines' simulated behaviour.
//!
//! A stalled access waits outside the event queue, parked at its place
//! in the queue's lane, while the bank's generation is unchanged: no
//! poll, no Bloom re-probe, no handler; a fallback pre-lock poll reuses
//! its last denial and its once-built footprint. These are host
//! shortcuts: they must not move a single simulated event. This test
//! replays the run the `trace` bin makes for `--app HT-wA` (the quick
//! experiment on YCSB-A over the hash table, θ 0.99, where stalls dominate)
//! and compares it with files recorded from reference implementations.
//!
//! The rows pin every engine fault-free and under the plumbing the
//! engines share: message loss, a crash with restart, a permanent crash,
//! a live shard migration, the aggressive overload profile, fallback
//! pre-locking (one squash is enough to fall back, so nearly every retry
//! pre-locks and polls until granted) and a brief home-node crash
//! ([`Scenario`] says what each does). The last nine replay `trace
//! --app` on the other three YCSB-A stores (Map-wA, BTree-wA,
//! B+Tree-wA): each index walk is charged `index_per_level` per level of
//! lookup depth, so a store change that moves one key's depth moves them.
//!
//! Each row's rendered `RunStats::to_json` is the golden
//! `results/exactness/lock_stall/<app>-<engine>-<scenario>.json`. Its
//! `lock_stall` count and the FNV-1a of its JSONL stream (the `trace
//! --jsonl` bytes, megabytes per row) are its line of `traces.jsonl` in
//! the same directory. `results/README.md` says where each row was
//! recorded.
//!
//! Every row also runs untraced. A traced run puts each stalled retry
//! back on the queue at every poll, so that each poll emits its
//! `lock_stall`; an untraced run parks it outside the queue until its
//! bank, its slot's attempt, the routing or the crash table changes.
//! The untraced run must render the traced row's stats, so parking
//! moves no simulated event either, on every row.
//!
//! If a change to the simulation moves these files on purpose, re-record
//! them (`hades_bench::golden`) and say so; a host-only change must leave
//! them alone.

use hades::core::runner::{Experiment, Protocol, Run};
use hades::fault::FaultPlan;
use hades::sim::config::{MembershipParams, MigrationParams, OverloadParams};
use hades::sim::time::Cycles;
use hades::telemetry::event::EventKind;
use hades::telemetry::json::Json;
use hades::telemetry::jsonl::event_json;
use hades::telemetry::sink::Tracer;
use hades::workloads::catalog::AppId;
use hades_bench::golden::{fnv1a, Golden, FNV_OFFSET};
use Protocol::{Baseline, Hades, HadesH};
use Scenario::*;

/// Commits measured by the short rows (after a 50-commit warmup).
const SHORT_MEASURE: u64 = 150;

/// Whether a row keeps the quick window (100 + 500 commits). The plain
/// rows replay `trace`, and the fallback rows run the same window; the
/// migration rows need the longer run to reach the cutover. HADES's
/// migration row does not: at dadde3c a HADES run that reaches this
/// cutover livelocks (a Locking-Buffer token stays in the source bank
/// while its release routes to the new primary), so it pins the
/// announce, copy and dual-routing phases only.
fn quick_window(protocol: Protocol, scenario: Scenario) -> bool {
    match scenario {
        Plain | Fallback | FallbackMigration => true,
        Migration => protocol != Hades,
        _ => false,
    }
}

/// The condition a row runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// `Experiment::quick()` with no fault plan: what `trace` runs.
    Plain,
    /// 5% loss on the loss-eligible verbs.
    Loss,
    /// Node 1 crashes at 20 µs and restarts at 60 µs, before the failure
    /// detector declares it dead; membership on.
    CrashRestart,
    /// Node 1 crashes for good at 20 µs; membership on.
    CrashForever,
    /// Node 1 is down from 10 µs to 30 µs, membership off: remote
    /// accesses stalled at its bank must wait for the restart instead of
    /// re-arming.
    BriefCrash,
    /// The standard live move of partition 0 to node 1.
    Migration,
    /// The aggressive overload profile.
    Overload,
    /// One squash sends a transaction to the pessimistic fallback path.
    Fallback,
    /// [`Fallback`] under the standard live move of partition 0 to node
    /// 1: fallback lock batches re-read the routing on every poll.
    FallbackMigration,
}

/// Every row: the YCSB-A store it loads, its engine and its condition.
fn rows() -> Vec<(&'static str, Protocol, Scenario)> {
    let mut rows = Vec::new();
    for scenario in [
        Plain,
        Loss,
        CrashRestart,
        CrashForever,
        Migration,
        Overload,
        Fallback,
    ] {
        rows.extend([Baseline, HadesH, Hades].map(|p| ("HT-wA", p, scenario)));
    }
    rows.extend([
        ("HT-wA", Hades, BriefCrash),
        ("HT-wA", Baseline, FallbackMigration),
    ]);
    for app in ["Map-wA", "BTree-wA", "B+Tree-wA"] {
        rows.extend([Baseline, HadesH, Hades].map(|p| (app, p, Plain)));
    }
    rows
}

/// The row's experiment and fault plan (`None` on [`Plain`] rows).
fn configure(protocol: Protocol, scenario: Scenario) -> (Experiment, Option<FaultPlan>) {
    let mut ex = Experiment::quick();
    let mut plan = FaultPlan::none();
    if !quick_window(protocol, scenario) {
        ex.warmup = 50;
        ex.measure = SHORT_MEASURE;
    }
    match scenario {
        Plain => {}
        Loss => plan = FaultPlan::from_loss(0.05, 9),
        CrashRestart => {
            let (at, back) = (Cycles::from_micros(20), Cycles::from_micros(60));
            plan = plan.crash(1, at, back);
            ex.cfg = ex.cfg.with_membership(MembershipParams::standard());
        }
        CrashForever => {
            plan = plan.crash_forever(1, Cycles::from_micros(20));
            ex.cfg = ex.cfg.with_membership(MembershipParams::standard());
        }
        BriefCrash => plan = plan.crash(1, Cycles::from_micros(10), Cycles::from_micros(30)),
        Migration => {
            ex.cfg = ex
                .cfg
                .with_migration(MigrationParams::standard(vec![(0, 1)]))
        }
        Overload => ex.cfg = ex.cfg.with_overload(OverloadParams::aggressive()),
        Fallback => ex.cfg.retry.fallback_after_squashes = 1,
        FallbackMigration => {
            ex.cfg.retry.fallback_after_squashes = 1;
            ex.cfg = ex
                .cfg
                .with_migration(MigrationParams::standard(vec![(0, 1)]))
        }
    }
    (ex, (scenario != Plain).then_some(plan))
}

/// Where the rows' goldens live.
const DIR: &str = "results/exactness/lock_stall";

/// Runs one row's configuration on `app`, into `tracer` if one is
/// given, and returns the rendered `RunStats::to_json`.
fn run(app: &str, protocol: Protocol, scenario: Scenario, tracer: Option<Tracer>) -> String {
    let (ex, plan) = configure(protocol, scenario);
    let run = Run::apps(protocol, &ex, &[AppId::parse(app).unwrap()]).plan(plan);
    let run = match tracer {
        Some(tracer) => run.tracer(tracer),
        None => run,
    };
    run.run().stats.to_json().render()
}

#[test]
fn stall_path_reproduces_the_reference_trace_and_stats() {
    let mut golden = Golden::new(env!("CARGO_MANIFEST_DIR"), env!("CARGO_TARGET_TMPDIR"));
    let mut traces = String::new();
    for (app, protocol, scenario) in rows() {
        let row = format!("{app}-{protocol}-{scenario:?}");
        let (tracer, sink) = Tracer::memory();
        let stats = run(app, protocol, scenario, Some(tracer));
        golden.check(&format!("{DIR}/{row}.json"), &stats);
        let events = sink.borrow_mut().take_events();
        let stalls = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LockStall { .. }));
        // Stream the JSONL rendering rather than materialise it.
        let jsonl = events.iter().fold(FNV_OFFSET, |h, ev| {
            fnv1a(fnv1a(h, event_json(ev).render().as_bytes()), b"\n")
        });
        let line = Json::obj()
            .field("lock_stalls", stalls.count() as u64)
            .field("jsonl_fnv1a", format!("{jsonl:#018x}").as_str());
        traces += &Json::obj().field(&row, line.build()).build().render();
        traces.push('\n');
        drop(events); // The trace can be large: free it before the rerun.
        if run(app, protocol, scenario, None) != stats {
            golden.fail(format!("{row}: the untraced run renders other stats"));
        }
    }
    golden.check(&format!("{DIR}/traces.jsonl"), &traces);
    golden.finish();
}
