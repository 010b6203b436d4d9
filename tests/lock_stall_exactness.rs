//! Exactness guard for the Locking-Buffer stall path.
//!
//! A stalled access re-arms on the event queue's retry lane and skips its
//! Bloom re-probe while the bank's generation is unchanged. Both are host
//! shortcuts: they must not move a single simulated event. This test
//! replays the run the `trace` bin makes for `--app HT-wA` (the quick
//! experiment on YCSB-A over the hash table, θ 0.99, where stalls dominate)
//! on the two engines with Locking Buffers, and compares it with digests
//! recorded from the reference implementation: one heap, every retry
//! re-probed, stall events carrying the op by value (commit e04b8b0).
//!
//! If a change to the simulation moves these numbers on purpose, re-record
//! them and say so; a host-only change must leave them alone.

use hades::core::runner::{run_single_traced, Experiment, Protocol};
use hades::telemetry::event::EventKind;
use hades::telemetry::jsonl::event_json;
use hades::telemetry::sink::Tracer;
use hades::workloads::catalog::AppId;

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one traced run must reproduce.
struct Expected {
    protocol: Protocol,
    lock_stalls: usize,
    /// FNV-1a of the JSONL event stream (`trace --jsonl` bytes).
    jsonl: u64,
    /// FNV-1a of the rendered `RunStats::to_json`.
    stats: u64,
}

// Recorded at commit e04b8b0.
const EXPECTED: [Expected; 2] = [
    Expected {
        protocol: Protocol::HadesH,
        lock_stalls: 116_821,
        jsonl: 0x11e0_2520_8a8f_8a00,
        stats: 0x643a_1328_898f_9445,
    },
    Expected {
        protocol: Protocol::Hades,
        lock_stalls: 55_638,
        jsonl: 0x6e3a_b9c8_15cf_e900,
        stats: 0xd461_4b43_f9c7_d025,
    },
];

#[test]
fn stall_path_reproduces_the_reference_trace_and_stats() {
    let app = AppId::parse("HT-wA").unwrap();
    let ex = Experiment::quick();
    for want in EXPECTED {
        let (tracer, sink) = Tracer::memory();
        let outcome = run_single_traced(want.protocol, app, &ex, tracer);
        let events = sink.borrow_mut().take_events();
        let lock_stalls = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LockStall { .. }))
            .count();
        // Stream the JSONL rendering rather than materialise it.
        let jsonl = events.iter().fold(FNV_OFFSET, |h, ev| {
            fnv1a(fnv1a(h, event_json(ev).render().as_bytes()), b"\n")
        });
        let stats = fnv1a(FNV_OFFSET, outcome.stats.to_json().render().as_bytes());
        let p = want.protocol;
        assert_eq!(lock_stalls, want.lock_stalls, "{p}: lock_stall count");
        assert_eq!(jsonl, want.jsonl, "{p}: JSONL digest {jsonl:#018x}");
        assert_eq!(stats, want.stats, "{p}: RunStats digest {stats:#018x}");
    }
}
