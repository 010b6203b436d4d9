//! Overload-layer invariants: Locking Buffer exhaustion end-to-end,
//! degraded commits, retry budgets, and the pay-for-what-you-use contract.
//!
//! * With a single Locking Buffer bank slot and **no** overload layer, the
//!   HADES engine must squash on `NoFreeBuffer` (`lock-failed`) yet still
//!   commit every measured transaction — capacity exhaustion degrades
//!   throughput, never correctness.
//! * With `degrade_on_saturation` the same starved configuration must
//!   convert buffer exhaustion into software-validated (degraded) commits
//!   instead of aborts, leak nothing, and rerun byte-identically.
//! * A default-config run must be byte-identical to one carrying an
//!   explicit all-off [`OverloadParams`], and its stats JSON must carry no
//!   `overload` block at all.
//! * Property: under an arbitrary Zipfian skew, seed, and buffer budget,
//!   the full overload layer must never livelock (every measured
//!   transaction commits), never leak, and keep every transaction's
//!   consecutive-retry count within the retry budget's fallback bound.

use hades::core::runner::{Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::core::stats::SquashReason;
use hades::sim::config::{OverloadParams, SimConfig};
use hades::storage::db::Database;
use hades::storage::IndexKind;
use hades::workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};
use proptest::prelude::*;

const KEYS_SCALE: f64 = 0.0005; // 4 M paper keys -> 2 000
const MEASURE: u64 = 200;

/// Runs the HADES engine over a skewed YCSB HT-wA table.
fn run_hades(cfg: SimConfig, theta: f64, measure: u64) -> RunOutcome {
    let mut db = Database::new(cfg.shape.nodes);
    let ycsb = Ycsb::setup(
        &mut db,
        YcsbConfig {
            theta,
            ..YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A).scaled(KEYS_SCALE)
        },
    );
    Run::loaded(Protocol::Hades, cfg, db, Box::new(ycsb), 0, measure).run()
}

#[test]
fn one_slot_lock_buffer_aborts_but_commits_everything() {
    let cfg = SimConfig::isca_default().with_lock_buffer_slots(1);
    let out = run_hades(cfg, 0.99, MEASURE);
    let s = &out.stats;
    assert_eq!(
        s.committed, MEASURE,
        "capacity exhaustion must not livelock"
    );
    assert!(
        s.squashes_for(SquashReason::LockFailed) > 0,
        "a 1-slot Locking Buffer bank must hit NoFreeBuffer under contention"
    );
    assert!(
        s.overload.is_zero(),
        "no overload stats without the overload layer"
    );
    assert_eq!(out.leaks(), Vec::<String>::new());
}

#[test]
fn saturation_degrades_commits_instead_of_aborting() {
    let cfg = SimConfig::isca_default()
        .with_lock_buffer_slots(1)
        .with_overload(OverloadParams {
            degrade_on_saturation: true,
            ..OverloadParams::default()
        });
    let out = run_hades(cfg.clone(), 0.99, MEASURE);
    let s = &out.stats;
    assert_eq!(s.committed, MEASURE);
    assert!(
        s.overload.degraded_commits > 0,
        "NoFreeBuffer must degrade to software validation, not abort"
    );
    assert!(
        s.squashes < {
            let bare = SimConfig::isca_default().with_lock_buffer_slots(1);
            run_hades(bare, 0.99, MEASURE).stats.squashes
        },
        "degrading saturated commits must reduce squashes"
    );
    assert_eq!(out.leaks(), Vec::<String>::new());
    // Determinism: identical config reruns byte-identically.
    let rerun = run_hades(cfg, 0.99, MEASURE);
    assert_eq!(
        out.stats.to_json().render(),
        rerun.stats.to_json().render(),
        "overload-enabled runs must stay deterministic"
    );
}

#[test]
fn zero_overload_config_is_byte_identical_and_silent() {
    let bare = SimConfig::isca_default();
    let explicit = SimConfig::isca_default().with_overload(OverloadParams::default());
    assert!(!explicit.overload.enabled());
    let a = run_hades(bare, 0.99, MEASURE);
    let b = run_hades(explicit, 0.99, MEASURE);
    let ja = a.stats.to_json().render();
    let jb = b.stats.to_json().render();
    assert_eq!(ja, jb, "all-off OverloadParams must change nothing");
    assert!(
        !ja.contains("\"overload\""),
        "a zero-overload run must emit no overload stats block"
    );
    assert!(a.stats.overload.is_zero());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under any skew, seed, and Locking Buffer budget, the full overload
    /// layer commits every measured transaction (no livelock, no
    /// starvation), leaks nothing, and the retry budget keeps every
    /// transaction's consecutive-squash count finite: `max_attempts` is
    /// the winning attempt's ordinal, bounded well below the abort-rate
    /// window (64) because the pessimistic fallback engages at
    /// `min(fallback_after_squashes, retry_budget)` squashes.
    #[test]
    fn overload_layer_never_livelocks(
        seed in 0u64..4,
        theta_i in 0usize..3,
        lb_i in 0usize..3,
    ) {
        let theta = [0.6, 0.9, 0.99][theta_i];
        let lb_slots = [Some(1usize), Some(4usize), None][lb_i];
        let mut cfg = SimConfig::isca_default()
            .with_seed(seed)
            .with_overload(OverloadParams::aggressive());
        if let Some(slots) = lb_slots {
            cfg = cfg.with_lock_buffer_slots(slots);
        }
        let measure = 120;
        let out = run_hades(cfg, theta, measure);
        let s = &out.stats;
        prop_assert_eq!(s.committed, measure, "livelock: not all transactions committed");
        prop_assert!(s.overload.max_attempts >= 1);
        prop_assert!(
            s.overload.max_attempts <= 64,
            "retry budget failed to bound per-transaction attempts: {}",
            s.overload.max_attempts
        );
        prop_assert_eq!(out.leaks(), Vec::<String>::new());
    }
}
