//! Exactness guard for the engines' simulated behaviour.
//!
//! A stalled access waits outside the event queue, parked at its place
//! in the queue's lane, while the bank's generation is unchanged: no
//! poll, no Bloom re-probe, no handler; a fallback pre-lock poll reuses
//! its last denial and its once-built footprint. These are host
//! shortcuts: they must not move a single simulated event. This test
//! replays the run the `trace` bin makes for `--app HT-wA` (the quick
//! experiment on YCSB-A over the hash table, θ 0.99, where stalls dominate)
//! and compares it with digests recorded from a reference implementation.
//!
//! The first two rows pin the two engines with Locking Buffers on the
//! fault-free run, recorded from the reference stall path: one heap, every
//! retry re-probed, stall events carrying the op by value (commit e04b8b0).
//! The other rows pin every engine under the plumbing the engines share:
//! message loss, a crash with restart, a permanent crash (both under the
//! membership layer), a live shard migration and the aggressive overload
//! profile. Most use a shorter measurement window ([`quick_window`]); all
//! were recorded at commit dadde3c, before the engines shared one driver.
//! Three more rows were recorded at commit 3210fa2, where every poll
//! was dispatched, rebuilt what it needed and re-probed the bank. Two pin
//! the HADES engines' fallback pre-locking: with a single squash enough
//! to fall back, nearly every retry pre-locks its directories and polls
//! the Locking Buffers until granted. The third crashes a home node
//! briefly, so remote accesses stalled at its bank must wait for the
//! restart rather than keep polling. Two more rows were recorded at
//! commit 149b3e3, where each Baseline fallback poll cloned its lock list
//! and rebuilt its per-home batches. They pin the Baseline's fallback
//! path, which re-sends a denied lock batch every `LOCK_RETRY`: once on
//! the fault-free run and once under a live migration, which reroutes
//! the batches between polls.
//!
//! Every row above runs on the hash table. The last nine replay `trace
//! --app` on the other three YCSB-A stores (Map-wA, BTree-wA, B+Tree-wA)
//! for every engine, fault-free at the quick window: each index walk is
//! charged `index_per_level` per level of lookup depth, so a change to
//! any store that moves one key's depth moves these digests. They were
//! recorded at commit 47bcc22, while the stores still supported removal.
//!
//! Every row also runs untraced. A traced run puts each stalled retry
//! back on the queue at every poll, so that each poll emits its
//! `lock_stall`; an untraced run parks it outside the queue until its
//! bank, its slot's attempt, the routing or the crash table changes.
//! The untraced stats digest must equal the traced row's, so parking
//! moves no simulated event either, on every row.
//!
//! If a change to the simulation moves these numbers on purpose, re-record
//! them and say so; a host-only change must leave them alone.

use hades::core::runner::{Experiment, Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::fault::FaultPlan;
use hades::sim::config::{MembershipParams, MigrationParams, OverloadParams};
use hades::sim::time::Cycles;
use hades::telemetry::event::EventKind;
use hades::telemetry::jsonl::event_json;
use hades::telemetry::sink::Tracer;
use hades::workloads::catalog::AppId;
use Protocol::{Baseline, Hades, HadesH};
use Scenario::*;

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

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

/// What one traced run must reproduce.
struct Expected {
    /// The YCSB-A store the run loads: `HT-wA` unless [`Expected::on`]
    /// names another.
    app: &'static str,
    protocol: Protocol,
    scenario: Scenario,
    lock_stalls: usize,
    /// FNV-1a of the JSONL event stream (`trace --jsonl` bytes).
    jsonl: u64,
    /// FNV-1a of the rendered `RunStats::to_json`.
    stats: u64,
}

const fn row(
    protocol: Protocol,
    scenario: Scenario,
    lock_stalls: usize,
    jsonl: u64,
    stats: u64,
) -> Expected {
    Expected {
        app: "HT-wA",
        protocol,
        scenario,
        lock_stalls,
        jsonl,
        stats,
    }
}

impl Expected {
    /// The same row on another app.
    const fn on(self, app: &'static str) -> Expected {
        Expected { app, ..self }
    }
}

/// The stats digests of the ten fault rows (Loss, CrashRestart,
/// CrashForever and BriefCrash) were re-recorded when the always-zero
/// `persist_fails` and `slowdowns` members left the `faults` block. Each
/// equals the digest of the earlier rendering with those two members cut
/// out; no other byte moved.
#[rustfmt::skip]
const EXPECTED: [Expected; 32] = [
    // Recorded at commit e04b8b0.
    row(HadesH, Plain, 116_821, 0x11e0_2520_8a8f_8a00, 0x643a_1328_898f_9445),
    row(Hades, Plain, 55_638, 0x6e3a_b9c8_15cf_e900, 0xd461_4b43_f9c7_d025),
    // Recorded at commit dadde3c.
    row(Baseline, Plain, 0, 0x24e5_0b8f_593c_b5dc, 0x71c0_b7da_c41d_23cf),
    row(Baseline, Loss, 0, 0x24c3_14ba_0455_1d36, 0xe387_feeb_81ee_7583),
    row(HadesH, Loss, 104_780, 0xe0aa_8892_0da8_b6be, 0xf7b1_2786_5cbb_1f1f),
    row(Hades, Loss, 133_175, 0x3e60_f0da_e373_613b, 0x6ce3_71d1_e085_71d4),
    row(Baseline, CrashRestart, 0, 0xbd28_76f7_637d_74e8, 0x4320_5328_6d85_77f5),
    row(HadesH, CrashRestart, 23_863, 0xb8cb_5bd1_ad47_6e10, 0xd0e3_feaf_84a2_5c32),
    row(Hades, CrashRestart, 25_019, 0xb8f1_e6e8_5911_c851, 0x6a9d_0464_0301_7356),
    row(Baseline, CrashForever, 0, 0x093b_3ac6_a138_1735, 0x5caf_efb4_3c1c_6c71),
    row(HadesH, CrashForever, 26_257, 0x9a13_f2e7_aa84_47d0, 0x0640_6963_2e41_bc80),
    row(Hades, CrashForever, 27_314, 0xcbc5_f214_03ec_d2fe, 0x1b9a_4cb3_8f0c_f2a1),
    row(Baseline, Migration, 0, 0xaebe_5f32_24b5_8e21, 0x38cc_dc1e_33b4_9606),
    row(HadesH, Migration, 79_250, 0x6162_a596_4213_d133, 0xa14d_ab96_4650_844b),
    row(Hades, Migration, 6_483, 0xa4b9_a4c9_2c2c_d6ab, 0x2fed_efb6_431f_f5c5),
    row(Baseline, Overload, 0, 0xfa26_1095_1157_a59c, 0x0980_1eb0_3e4e_f644),
    row(HadesH, Overload, 6_535, 0x58c0_23e9_c97b_2404, 0x6e2a_11d3_b6e3_8c70),
    row(Hades, Overload, 5_988, 0x5e75_7226_6824_5a84, 0x2f5f_bdd2_4055_2b54),
    // Recorded at commit 3210fa2.
    row(HadesH, Fallback, 76_776, 0x1885_9917_8fdd_0cd9, 0xd67d_be74_e286_d731),
    row(Hades, Fallback, 125_041, 0x30a7_6f23_c3ba_8639, 0xdb70_1b9c_a3f3_86b4),
    row(Hades, BriefCrash, 8_009, 0x4bd5_c3e9_b9a3_640c, 0xb38f_130c_1656_f370),
    // Recorded at commit 149b3e3, where every Baseline fallback poll
    // cloned its lock list and rebuilt its per-home batches.
    row(Baseline, Fallback, 0, 0x269e_d49a_4dc3_26e8, 0xdb74_1623_0053_1102),
    row(Baseline, FallbackMigration, 0, 0x66e4_8e82_a0e8_9260, 0x2c88_876d_c617_c9a5),
    // Recorded at commit 47bcc22, before the stores became insert-only.
    row(Baseline, Plain, 0, 0x09d4_601e_1108_de83, 0xa996_75a0_0538_a6d9).on("Map-wA"),
    row(HadesH, Plain, 129_042, 0x982a_70da_67ec_520f, 0x0e45_1739_8b82_81d8).on("Map-wA"),
    row(Hades, Plain, 114_216, 0x1152_3495_e772_a949, 0x31b7_39aa_d240_8fd4).on("Map-wA"),
    row(Baseline, Plain, 0, 0x013a_4950_554a_c9b0, 0xd835_42d0_dacd_3c24).on("BTree-wA"),
    row(HadesH, Plain, 123_186, 0x11d7_9886_c03d_ff29, 0xa040_994c_295a_adac).on("BTree-wA"),
    row(Hades, Plain, 111_523, 0x5a78_2b64_1f49_538a, 0xfc80_6d78_19ce_f16c).on("BTree-wA"),
    row(Baseline, Plain, 0, 0x1939_4b12_b92a_02f5, 0x4baa_b93d_74fa_1ac0).on("B+Tree-wA"),
    row(HadesH, Plain, 123_223, 0xb522_5aaa_ac5f_8fd4, 0xe3b6_0162_52e0_592d).on("B+Tree-wA"),
    row(Hades, Plain, 82_626, 0x51bd_21f7_0992_c616, 0x892c_ce70_b767_6d73).on("B+Tree-wA"),
];

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

/// FNV-1a of the run's rendered `RunStats::to_json`.
fn stats_digest(outcome: &RunOutcome) -> u64 {
    fnv1a(FNV_OFFSET, outcome.stats.to_json().render().as_bytes())
}

/// Runs one row's configuration on `app` with a memory trace sink and
/// returns the `lock_stall` count and the two digests.
fn digests(app: &str, protocol: Protocol, scenario: Scenario) -> (usize, u64, u64) {
    let app = AppId::parse(app).unwrap();
    let (ex, plan) = configure(protocol, scenario);
    let (tracer, sink) = Tracer::memory();
    let outcome = Run::apps(protocol, &ex, &[app])
        .plan(plan)
        .tracer(tracer)
        .run();
    let events = sink.borrow_mut().take_events();
    let lock_stalls = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LockStall { .. }))
        .count();
    // Stream the JSONL rendering rather than materialise it.
    let jsonl = events.iter().fold(FNV_OFFSET, |h, ev| {
        fnv1a(fnv1a(h, event_json(ev).render().as_bytes()), b"\n")
    });
    (lock_stalls, jsonl, stats_digest(&outcome))
}

/// Runs one row's configuration on `app` without a tracer and returns
/// its stats digest.
fn untraced_digest(app: &str, protocol: Protocol, scenario: Scenario) -> u64 {
    let app = AppId::parse(app).unwrap();
    let (ex, plan) = configure(protocol, scenario);
    stats_digest(&Run::apps(protocol, &ex, &[app]).plan(plan).run())
}

#[test]
fn stall_path_reproduces_the_reference_trace_and_stats() {
    for want in &EXPECTED {
        let (a, p, s) = (want.app, want.protocol, want.scenario);
        let (lock_stalls, jsonl, stats) = digests(a, p, s);
        assert_eq!(
            lock_stalls, want.lock_stalls,
            "{a} {p} {s:?}: lock_stall count"
        );
        assert_eq!(
            jsonl, want.jsonl,
            "{a} {p} {s:?}: JSONL digest {jsonl:#018x}"
        );
        assert_eq!(
            stats, want.stats,
            "{a} {p} {s:?}: RunStats digest {stats:#018x}"
        );
        let untraced = untraced_digest(a, p, s);
        assert_eq!(
            untraced, want.stats,
            "{a} {p} {s:?}: untraced RunStats digest {untraced:#018x}"
        );
    }
}
