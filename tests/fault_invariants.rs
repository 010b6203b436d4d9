//! Fault-plane invariants: the `hades-fault` plan builders, their
//! validation, and the injector's sampling, classes and link windows,
//! checked through the public `FaultPlan` and `FaultInjector` API.
//!
//! The plan is the contract between an experiment and the injector: an
//! empty plan must be inert, every builder must reject a malformed
//! window, a hand-built plan must fail when the injector is installed,
//! and the same plan and seed must replay the same fault schedule. The
//! injector must keep the two verb classes apart: a Lossy-class loss
//! removes the message, while a Retransmit-class loss or link cut delays
//! exactly one copy.

use hades::fault::{
    class_of, CrashEvent, FaultClass, FaultCounts, FaultInjector, FaultPlan, NicStall,
    RecoveryCounts,
};
use hades::sim::backoff::BackoffPolicy;
use hades::sim::config::RetryParams;
use hades::sim::time::Cycles;
use hades::telemetry::event::Verb;

#[test]
fn empty_plan_is_inert_and_from_loss_zero_matches() {
    assert!(FaultPlan::none().is_inert());
    assert!(FaultPlan::from_loss(0.0, 9).is_inert());
    assert!(!FaultPlan::from_loss(0.01, 9).is_inert());
    assert!(!FaultInjector::inert().active());
}

#[test]
fn from_loss_targets_only_lossy_verbs() {
    let plan = FaultPlan::from_loss(0.2, 1);
    for verb in Verb::ALL {
        let expect = if class_of(verb) == FaultClass::Lossy {
            0.2
        } else {
            0.0
        };
        assert_eq!(plan.verbs[verb.index()].drop_p, expect, "{verb:?}");
    }
}

#[test]
fn lossy_drop_loses_the_message() {
    let mut inj = FaultInjector::new(FaultPlan::none().drop_verb(Verb::Ack, 1.0));
    for _ in 0..10 {
        assert!(inj.on_send(Cycles::ZERO, Verb::Ack, 0, 1).copies.is_empty());
    }
    assert_eq!(inj.faults.drops, 10);
}

#[test]
fn duplication_yields_two_ordered_copies() {
    let mut inj = FaultInjector::new(FaultPlan::none().dup_verb(Verb::Intend, 1.0));
    let out = inj.on_send(Cycles::ZERO, Verb::Intend, 0, 1);
    assert_eq!(out.copies.len(), 2);
    assert!(out.copies[1] > out.copies[0], "duplicate trails original");
    assert_eq!(inj.faults.dups, 1);
}

#[test]
fn retransmit_class_always_delivers_exactly_once() {
    let plan = FaultPlan::none()
        .drop_verb(Verb::Validation, 0.9)
        .dup_verb(Verb::Validation, 1.0); // ignored for this class
    let mut inj = FaultInjector::new(plan);
    let mut delayed = 0;
    for _ in 0..50 {
        let out = inj.on_send(Cycles::ZERO, Verb::Validation, 0, 1);
        assert_eq!(out.copies.len(), 1, "exactly-once delivery");
        if out.copies[0] > Cycles::ZERO {
            delayed += 1;
        }
    }
    assert!(delayed > 25, "drop_p=0.9 should delay most sends");
    assert_eq!(
        inj.faults.drops as usize,
        inj.recovery.timeout_retries as usize
    );
    assert!(inj.faults.drops > 0);
}

#[test]
fn retry_policy_grows_exponentially_and_caps() {
    let r = RetryParams::TIMEOUT_BACKOFF;
    assert_eq!(r.step(0), Cycles::new(500));
    assert_eq!(r.step(1), Cycles::new(1_000));
    assert_eq!(r.step(3), Cycles::new(4_000));
    assert_eq!(r.step(10), Cycles::new(16_000), "capped");
    assert_eq!(r.step(100), Cycles::new(16_000), "no shift overflow");
}

#[test]
fn retry_policy_monotone_for_huge_bases() {
    // base = 1<<40 shifted by 32 used to truncate high bits and come
    // back *smaller* than earlier attempts; it must saturate instead.
    let r = BackoffPolicy::exponential(Cycles::new(1 << 40), Cycles::new(u64::MAX));
    let mut last = Cycles::ZERO;
    for attempt in 0..64 {
        let b = r.step(attempt);
        assert!(b >= last, "attempt {attempt}: {b:?} < {last:?}");
        last = b;
    }
}

#[test]
fn crash_forever_has_no_restart() {
    let plan = FaultPlan::none().crash_forever(2, Cycles::new(1_000));
    assert!(plan.has_crashes());
    assert!(!plan.is_inert());
    assert!(plan.crashes[0].is_forever());
    let timed = FaultPlan::none().crash(1, Cycles::new(10), Cycles::new(20));
    assert_eq!(timed.crashes[0].restart_at, Some(Cycles::new(20)));
    assert!(!timed.crashes[0].is_forever());
}

#[test]
fn stall_windows_hold_arrivals() {
    let plan = FaultPlan::none().nic_stall(2, Cycles::new(100), Cycles::new(300));
    let mut inj = FaultInjector::new(plan);
    assert_eq!(
        inj.stall_release(2, Cycles::new(150)),
        Some(Cycles::new(300))
    );
    assert_eq!(inj.stall_release(2, Cycles::new(99)), None);
    assert_eq!(
        inj.stall_release(2, Cycles::new(300)),
        None,
        "end exclusive"
    );
    assert_eq!(inj.stall_release(1, Cycles::new(150)), None, "other node");
    assert_eq!(inj.faults.nic_stalls, 1);
}

#[test]
fn identical_plans_replay_identical_schedules() {
    let plan = FaultPlan::none()
        .with_seed(0xC0FFEE)
        .drop_verb(Verb::Intend, 0.3)
        .dup_verb(Verb::Ack, 0.2)
        .delay_verb(Verb::Read, 0.5, Cycles::new(2_000))
        .reorder_verb(Verb::Intend, 0.25, Cycles::new(800));
    let mut a = FaultInjector::new(plan.clone());
    let mut b = FaultInjector::new(plan);
    for i in 0..200u64 {
        let verb = Verb::ALL[(i % 16) as usize];
        let (x, y) = (
            a.on_send(Cycles::new(i), verb, 0, 1),
            b.on_send(Cycles::new(i), verb, 0, 1),
        );
        assert_eq!(x.copies, y.copies);
    }
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.recovery, b.recovery);
}

#[test]
fn counts_serialize_to_json() {
    let mut c = FaultCounts::default();
    assert!(c.is_zero());
    c.drops = 3;
    let rendered = c.to_json().render();
    assert!(rendered.contains("\"drops\":3"), "{rendered}");
    let mut r = RecoveryCounts::default();
    assert!(r.is_zero());
    r.lease_expiries = 2;
    assert!(r.to_json().render().contains("\"lease_expiries\":2"));
}

#[test]
fn link_faults_make_the_plan_non_inert() {
    let cut = FaultPlan::none().cut_link(0, 1, Cycles::new(10), Cycles::new(20));
    assert!(!cut.is_inert());
    assert!(cut.has_link_faults());
    let flap = FaultPlan::none().flap_link(
        0,
        1,
        Cycles::new(0),
        Cycles::new(1_000),
        Cycles::new(100),
        Cycles::new(50),
    );
    assert!(!flap.is_inert());
}

#[test]
fn injector_activity_matches_its_plan() {
    let cases = [
        ("empty", FaultPlan::none()),
        ("loss-only", FaultPlan::from_loss(0.05, 7)),
        (
            "crash-only",
            FaultPlan::none().crash_forever(1, Cycles::new(1_000)),
        ),
        (
            "nic-stall",
            FaultPlan::none().nic_stall(2, Cycles::new(100), Cycles::new(300)),
        ),
        (
            "link-flap",
            FaultPlan::none().flap_link(
                0,
                1,
                Cycles::new(0),
                Cycles::new(1_000),
                Cycles::new(100),
                Cycles::new(50),
            ),
        ),
    ];
    for (name, plan) in cases {
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.active(), !inj.plan().is_inert(), "{name}");
        assert_eq!(inj.active(), name != "empty", "{name}");
    }
}

#[test]
#[should_panic(expected = "self-link")]
fn self_link_cut_panics() {
    let _ = FaultPlan::none().cut_link(3, 3, Cycles::new(0), Cycles::new(10));
}

#[test]
#[should_panic(expected = "empty or inverted link window")]
fn inverted_link_window_panics() {
    let _ = FaultPlan::none().cut_link(0, 1, Cycles::new(20), Cycles::new(10));
}

#[test]
#[should_panic(expected = "no down phase")]
fn always_up_flap_panics() {
    let _ = FaultPlan::none().flap_link(
        0,
        1,
        Cycles::new(0),
        Cycles::new(100),
        Cycles::new(10),
        Cycles::new(10),
    );
}

#[test]
#[should_panic(expected = "restart")]
fn hand_built_restart_before_crash_fails_at_install() {
    let mut plan = FaultPlan::none();
    plan.crashes.push(CrashEvent {
        node: 1,
        at: Cycles::new(100),
        restart_at: Some(Cycles::new(50)),
    });
    let _ = FaultInjector::new(plan);
}

#[test]
#[should_panic(expected = "empty or inverted stall window")]
fn hand_built_inverted_stall_fails_at_install() {
    let mut plan = FaultPlan::none();
    plan.nic_stalls.push(NicStall {
        node: 0,
        from: Cycles::new(100),
        until: Cycles::new(100),
    });
    let _ = FaultInjector::new(plan);
}

/// The injector jitters only Lossy-class verbs, so a reorder on a
/// Retransmit-class verb would silently inject nothing.
#[test]
#[should_panic(expected = "reorder on Read")]
fn reorder_on_a_retransmit_verb_fails_at_install() {
    let plan = FaultPlan::none().reorder_verb(Verb::Read, 0.1, Cycles::new(1_000));
    let _ = FaultInjector::new(plan);
}

#[test]
fn cut_link_is_directed_and_windowed() {
    let plan = FaultPlan::none().cut_link(0, 1, Cycles::new(100), Cycles::new(200));
    let mut inj = FaultInjector::new(plan);
    // In-window, cut direction: Lossy messages are really lost.
    let out = inj.on_send(Cycles::new(150), Verb::Intend, 0, 1);
    assert!(out.copies.is_empty(), "lossy verb lost on the cut link");
    assert_eq!(inj.faults.link_cuts, 1);
    // Reverse direction flows.
    assert_eq!(
        inj.on_send(Cycles::new(150), Verb::Intend, 1, 0)
            .copies
            .len(),
        1
    );
    // Outside the window flows (end exclusive).
    assert_eq!(
        inj.on_send(Cycles::new(200), Verb::Intend, 0, 1)
            .copies
            .len(),
        1
    );
    assert_eq!(
        inj.on_send(Cycles::new(99), Verb::Intend, 0, 1)
            .copies
            .len(),
        1
    );
    assert_eq!(inj.faults.link_cuts, 1);
}

#[test]
fn cut_link_holds_reliable_verbs_until_the_heal() {
    let plan = FaultPlan::none().cut_link(0, 1, Cycles::new(100), Cycles::new(500));
    let mut inj = FaultInjector::new(plan);
    let out = inj.on_send(Cycles::new(150), Verb::Validation, 0, 1);
    assert_eq!(out.copies.len(), 1, "reliable transport still delivers");
    assert_eq!(
        out.copies[0],
        Cycles::new(350),
        "held until the link heals at 500"
    );
    assert_eq!(inj.faults.link_cuts, 1);
}

#[test]
fn partition_cuts_every_cross_group_pair_both_ways() {
    let plan = FaultPlan::none().partition(&[0, 1], &[2, 3], Cycles::new(0), Cycles::new(100));
    assert_eq!(plan.link_cuts.len(), 8, "2x2 pairs, both directions");
    let inj = FaultInjector::new(plan);
    for (src, dst) in [(0u16, 2u16), (2, 0), (1, 3), (3, 1)] {
        assert!(
            inj.link_release(Cycles::new(50), src, dst).is_some(),
            "{src}->{dst} must be cut"
        );
    }
    for (src, dst) in [(0u16, 1u16), (1, 0), (2, 3), (3, 2)] {
        assert!(
            inj.link_release(Cycles::new(50), src, dst).is_none(),
            "{src}->{dst} is intra-group and must flow"
        );
    }
}

#[test]
fn flap_blocks_deterministically_with_both_phases() {
    let plan = FaultPlan::none().with_seed(11).flap_link(
        0,
        1,
        Cycles::new(0),
        Cycles::new(10_000),
        Cycles::new(100),
        Cycles::new(60),
    );
    let a = FaultInjector::new(plan.clone());
    let b = FaultInjector::new(plan);
    let (mut up, mut down) = (0u32, 0u32);
    for t in 0..10_000u64 {
        let ra = a.link_release(Cycles::new(t), 0, 1);
        assert_eq!(ra, b.link_release(Cycles::new(t), 0, 1), "t={t}");
        match ra {
            None => up += 1,
            Some(r) => {
                assert!(r > Cycles::new(t), "release must be in the future");
                assert!(r <= Cycles::new(10_000), "release capped at window end");
                down += 1;
            }
        }
    }
    assert_eq!(up, 6_000, "60/100 duty cycle up time");
    assert_eq!(down, 4_000, "40/100 duty cycle down time");
}

#[test]
fn isolated_node_loses_its_outbound_majority() {
    let plan = FaultPlan::none().isolate_node(2, 4, Cycles::new(100), Cycles::new(200));
    let inj = FaultInjector::new(plan);
    assert!(!inj.node_reaches_majority(Cycles::new(150), 2, 4));
    assert!(
        inj.node_reaches_majority(Cycles::new(150), 0, 4),
        "majority side"
    );
    assert!(
        inj.node_reaches_majority(Cycles::new(250), 2, 4),
        "after heal"
    );
}

#[test]
fn even_split_strands_both_sides() {
    let plan = FaultPlan::none().partition(&[0, 1], &[2, 3], Cycles::new(0), Cycles::new(100));
    let inj = FaultInjector::new(plan);
    for n in 0..4 {
        assert!(
            !inj.node_reaches_majority(Cycles::new(50), n, 4),
            "node {n}: a 2/2 split leaves nobody with a majority"
        );
    }
}

#[test]
fn link_windows_announce_and_heal_exactly_once() {
    let plan = FaultPlan::none().cut_link(0, 1, Cycles::new(100), Cycles::new(200));
    let mut inj = FaultInjector::new(plan);
    assert!(inj
        .on_send(Cycles::new(50), Verb::Intend, 0, 1)
        .cut_links
        .is_empty());
    let first = inj.on_send(Cycles::new(120), Verb::Intend, 0, 1);
    assert_eq!(first.cut_links, vec![(0, 1)], "window opens once");
    assert!(inj
        .on_send(Cycles::new(130), Verb::Intend, 0, 1)
        .cut_links
        .is_empty());
    let healed = inj.on_send(Cycles::new(250), Verb::Intend, 0, 1);
    assert_eq!(healed.healed_links, vec![(0, 1)], "window heals once");
    assert!(inj
        .on_send(Cycles::new(260), Verb::Intend, 0, 1)
        .healed_links
        .is_empty());
    assert_eq!(inj.link_window_counts(Cycles::new(260)), (1, 1));
}

#[test]
fn window_counts_heal_on_time_not_traffic() {
    let plan = FaultPlan::none().cut_link(0, 1, Cycles::new(100), Cycles::new(200));
    let mut inj = FaultInjector::new(plan);
    inj.on_send(Cycles::new(120), Verb::Intend, 0, 1);
    assert_eq!(
        inj.link_window_counts(Cycles::new(150)),
        (1, 0),
        "mid-window: cut, not healed"
    );
    assert_eq!(
        inj.link_window_counts(Cycles::new(300)),
        (1, 1),
        "past the end the window is healed even with no further sends"
    );
}
