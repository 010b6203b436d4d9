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
//! be byte-identical to a run with no injector installed at all.

use hades::core::runner::{Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::fault::FaultPlan;
use hades::sim::config::SimConfig;
use hades::sim::time::Cycles;
use hades::storage::db::Database;
use hades::telemetry::event::Verb;
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
    let cfg = SimConfig::isca_default();
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
            .delay_verb(Verb::Validation, delay_p, Cycles::new(1_500));
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
