//! Chaos invariants: randomized, seeded fault plans must never break
//! correctness, and the fault plane itself must be deterministic.
//!
//! For arbitrary drop/duplication/delay probabilities over the commit
//! verbs, every engine must still commit exactly the requested number of
//! measured transactions, conserve the Smallbank ledger (no
//! committed-then-lost writes: each committed RMW delta is applied exactly
//! once), and leak no record locks, Locking Buffers, or NIC remote-tx
//! filters. Rerunning the identical config + seed + plan must reproduce
//! byte-identical JSONL traces and stats JSON, and a zero-fault plan must
//! be byte-identical to a run with no injector installed at all. Every
//! message an engine sends crosses the fault plane: a NIC stall or a link
//! cut holds each engine's requests, Baseline's lock and validation
//! requests included.

use hades::core::runner::{Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::fault::FaultPlan;
use hades::sim::config::SimConfig;
use hades::sim::time::Cycles;
use hades::storage::db::Database;
use hades::telemetry::event::Verb;
use hades::telemetry::json::Json;
use hades::telemetry::jsonl::events_to_jsonl;
use hades::telemetry::sink::Tracer;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig};
use proptest::prelude::*;

const ACCOUNTS: u64 = 400;
const MEASURE: u64 = 200;

/// Runs `protocol` over a contended Smallbank with `plan` installed (if
/// any) and a memory tracer attached, and checks that money is
/// conserved. Returns the outcome and the JSONL rendering of the full
/// event stream.
fn run_traced(protocol: Protocol, plan: Option<&FaultPlan>) -> (RunOutcome, String) {
    run_traced_with(SimConfig::isca_default(), protocol, plan)
}

/// [`run_traced`] under `cfg`.
fn run_traced_with(
    cfg: SimConfig,
    protocol: Protocol,
    plan: Option<&FaultPlan>,
) -> (RunOutcome, String) {
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
    assert_eq!(
        sb.check_conservation(&out.cluster.db, out.total_sum_delta),
        Ok(()),
        "{protocol}: committed delta lost or double-applied"
    );
    (out, jsonl)
}

/// The correctness bar every chaos run must clear, loss or no loss.
fn check_invariants(protocol: Protocol, out: &RunOutcome) {
    assert_eq!(
        out.stats.committed, MEASURE,
        "{protocol}: wrong number of measured commits"
    );
    assert_eq!(out.leaks(), Vec::<String>::new(), "{protocol}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Arbitrary seeded loss/dup/delay pressure on the commit verbs of all
    /// three engines: conservation, leak-freedom, and rerun determinism.
    #[test]
    fn random_fault_plans_preserve_invariants(
        seed in any::<u64>(),
        drop_p in 0.0f64..0.06,
        dup_p in 0.0f64..0.06,
        delay_p in 0.0f64..0.15,
        request_delay_p in 0.0f64..0.15,
    ) {
        let plan = FaultPlan::none()
            .with_seed(seed)
            // The lossy verbs of each engine's commit handshake; every
            // engine only ever meets its own subset.
            .drop_verb(Verb::Intend, drop_p)
            .drop_verb(Verb::Ack, drop_p)
            .drop_verb(Verb::LockResp, drop_p)
            .drop_verb(Verb::ValidateResp, drop_p)
            .dup_verb(Verb::Ack, dup_p)
            .dup_verb(Verb::LockResp, dup_p)
            .delay_verb(Verb::Validation, delay_p, Cycles::new(1_500))
            // Baseline's lock and validation requests.
            .delay_verb(Verb::Lock, request_delay_p, Cycles::new(1_500))
            .delay_verb(Verb::Validate, request_delay_p, Cycles::new(1_500));
        for protocol in Protocol::ALL {
            let (out, jsonl) = run_traced(protocol, Some(&plan));
            check_invariants(protocol, &out);
            let (rerun, jsonl2) = run_traced(protocol, Some(&plan));
            prop_assert_eq!(
                &jsonl, &jsonl2,
                "{}: JSONL traces diverged across identical plan reruns", protocol
            );
            prop_assert_eq!(
                out.stats.to_json().render(),
                rerun.stats.to_json().render(),
                "{}: stats JSON diverged across identical plan reruns", protocol
            );
        }
    }
}

/// A zero-fault plan is pure overhead-free plumbing: trace and stats must
/// match an uninjected run byte for byte.
#[test]
fn zero_fault_plan_is_byte_identical_to_no_injector() {
    for protocol in Protocol::ALL {
        let (bare, jsonl_bare) = run_traced(protocol, None);
        let (zeroed, jsonl_zero) = run_traced(protocol, Some(&FaultPlan::none()));
        check_invariants(protocol, &zeroed);
        assert_eq!(
            jsonl_bare, jsonl_zero,
            "{protocol}: zero-fault plan perturbed the event stream"
        );
        assert_eq!(
            bare.stats.to_json().render(),
            zeroed.stats.to_json().render(),
            "{protocol}: zero-fault plan perturbed the stats"
        );
    }
}

/// Faults must actually be injected and recovered from: a concrete lossy
/// plan yields non-zero drop and retry counters in the telemetry.
#[test]
fn fault_and_recovery_counts_surface_in_stats() {
    for protocol in Protocol::ALL {
        let (out, _) = run_traced(protocol, Some(&FaultPlan::from_loss(0.05, 9)));
        check_invariants(protocol, &out);
        assert!(out.stats.faults.drops > 0, "{protocol}: no drops injected");
        assert!(
            out.stats.recovery.timeout_retries > 0,
            "{protocol}: drops never triggered timeout recovery"
        );
    }
}

/// The traced arrivals at `node` (from `src` only, if given) that land
/// inside `[from, until)`, as `verb@cycle`.
fn arrivals_inside(jsonl: &str, node: u64, src: Option<u64>, from: u64, until: u64) -> Vec<String> {
    let field = |ev: &Json, key| ev.get(key).and_then(Json::as_u64);
    jsonl
        .lines()
        .map(|line| Json::parse(line).expect("a JSONL trace line"))
        .filter(|ev| ev.get("ev").and_then(Json::as_str) == Some("verb_recv"))
        .filter(|ev| field(ev, "node") == Some(node))
        .filter(|ev| src.is_none() || field(ev, "src") == src)
        .filter_map(|ev| {
            let at = field(&ev, "cy")?;
            let verb = ev.get("verb").and_then(Json::as_str)?;
            (from..until).contains(&at).then(|| format!("{verb}@{at}"))
        })
        .collect()
}

/// No engine has a send path past the fault plane: a NIC stall on node 1
/// holds every arrival there until the stall ends, and a directed cut of
/// the link 0 -> 1 holds or drops every message sent on it, so nothing
/// from node 0 lands at node 1 while the link is down. The cut window
/// starts one round trip late: a message already in flight when the link
/// goes down still lands.
#[test]
fn nic_stalls_and_link_cuts_hold_every_engine_message() {
    let (from, until) = (40_000, 120_000);
    let stall = FaultPlan::none().nic_stall(1, Cycles::new(from), Cycles::new(until));
    let cut = FaultPlan::none().cut_link(0, 1, Cycles::new(from), Cycles::new(until));
    let in_flight = SimConfig::isca_default().net.rt.get();
    for protocol in Protocol::ALL {
        let (out, jsonl) = run_traced(protocol, Some(&stall));
        check_invariants(protocol, &out);
        assert!(out.stats.faults.nic_stalls > 0, "{protocol}: no stall hit");
        assert_eq!(
            arrivals_inside(&jsonl, 1, None, from, until),
            Vec::<String>::new(),
            "{protocol}: arrivals at node 1 inside its NIC stall"
        );
        let (out, jsonl) = run_traced(protocol, Some(&cut));
        check_invariants(protocol, &out);
        assert!(out.stats.faults.link_cuts > 0, "{protocol}: no cut hit");
        assert_eq!(
            arrivals_inside(&jsonl, 1, Some(0), from + in_flight, until),
            Vec::<String>::new(),
            "{protocol}: arrivals over the cut link 0 -> 1"
        );
    }
}

/// Baseline's fallback pre-locking polls one lock batch per home with a
/// Lock/LockResp round trip through the fault plane. A lost reply polls
/// the same batch again; a duplicated one counts once. Either way every
/// transaction commits, no lock leaks and money is conserved.
#[test]
fn baseline_fallback_survives_lost_and_duplicated_lock_replies() {
    let mut cfg = SimConfig::isca_default();
    cfg.retry.fallback_after_squashes = 1;
    let plan = FaultPlan::none()
        .with_seed(5)
        .drop_verb(Verb::LockResp, 0.3)
        .dup_verb(Verb::LockResp, 0.2);
    let (out, _) = run_traced_with(cfg, Protocol::Baseline, Some(&plan));
    check_invariants(Protocol::Baseline, &out);
    assert!(out.stats.fallbacks > 0, "no transaction fell back");
    assert!(out.stats.faults.drops > 0, "no lock reply was lost");
}
