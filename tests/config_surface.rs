//! The configuration surface: `SimConfig::isca_default()` is the
//! paper's Table III cluster, every feature layer defaults to off, each
//! `with_*` builder sets exactly its field, and the builders reject
//! out-of-range values.
//!
//! Values that no run varies are associated constants, not fields; the
//! tests that read them check the constants (DESIGN.md, "Configuration
//! surface").

use hades::fault::FaultPlan;
use hades::sim::config::{
    BatchingParams, ClusterShape, MembershipParams, MigrationParams, NetParams, OverloadParams,
    ReplicationParams, SimConfig,
};
use hades::sim::time::Cycles;

#[test]
fn default_matches_table_iii() {
    let c = SimConfig::isca_default();
    assert_eq!(c.shape.nodes, 5);
    assert_eq!(c.shape.cores_per_node, 5);
    assert_eq!(c.shape.slots_per_core, 2);
    assert_eq!(c.mem.l1_rt, Cycles::new(2));
    assert_eq!(c.mem.l2_rt, Cycles::new(12));
    assert_eq!(c.mem.llc_rt, Cycles::new(40));
    assert_eq!(c.mem.dram_rt, Cycles::from_nanos(100));
    assert_eq!(c.net.rt, Cycles::from_micros(2));
    assert_eq!(c.net.bandwidth_gbps, 200);
    assert_eq!(c.bloom.core_read_bits, 1024);
    assert_eq!(c.bloom.core_write_bf1_bits, 512);
    assert_eq!(c.bloom.core_write_bf2_bits, 4096);
    assert_eq!(c.bloom.nic_read_bits, 1024);
    assert_eq!(c.bloom.nic_write_bits, 1024);
}

#[test]
fn llc_scales_with_cores() {
    let c = SimConfig::isca_default();
    assert_eq!(c.llc_bytes(), 20 << 20); // 4 MB x 5 cores
    let big = c.with_shape(ClusterShape::N8_C25);
    assert_eq!(big.llc_bytes(), 100 << 20);
}

#[test]
fn shapes_match_section_vii() {
    assert_eq!(ClusterShape::DEFAULT.total_cores(), 25);
    assert_eq!(ClusterShape::N10_C5.total_cores(), 50);
    assert_eq!(ClusterShape::N5_C10.total_cores(), 50);
    assert_eq!(ClusterShape::N8_C25.total_cores(), 200);
    assert_eq!(ClusterShape::DEFAULT.total_slots(), 50);
}

#[test]
fn serialization_delay() {
    let n = NetParams::default();
    // 64-byte line at 200 Gb/s: 64*8/200e9 s = 2.56 ns -> ~6 cycles.
    assert_eq!(n.serialize(64), Cycles::new(6));
    assert_eq!(n.one_way(), Cycles::from_micros(1));
}

#[test]
fn local_fraction_default_is_one_over_n() {
    let c = SimConfig::isca_default();
    assert!((c.effective_local_fraction() - 0.2).abs() < 1e-12);
    let c = c.with_local_fraction(0.8);
    assert_eq!(c.effective_local_fraction(), 0.8);
}

#[test]
fn replication_defaults_off() {
    let c = SimConfig::isca_default();
    assert_eq!(c.repl.degree, 0);
    let c = c.with_replication(2);
    assert_eq!(c.repl.degree, 2);
    assert_eq!(ReplicationParams::PERSIST_LATENCY, Cycles::from_micros(1));
}

#[test]
fn overload_defaults_off() {
    let c = SimConfig::isca_default();
    assert!(!c.overload.enabled());
    assert_eq!(c.lock_buffer_slots, None);
    let c = c
        .with_overload(OverloadParams::aggressive())
        .with_lock_buffer_slots(1);
    assert!(c.overload.enabled());
    assert_eq!(c.lock_buffer_slots, Some(1));
}

#[test]
fn overload_enabled_by_any_knob() {
    assert!(!OverloadParams::default().enabled());
    let boosted = OverloadParams {
        age_boost_after: 4,
        ..Default::default()
    };
    assert!(boosted.enabled());
    let degrading = OverloadParams {
        degrade_on_saturation: true,
        ..Default::default()
    };
    assert!(degrading.enabled());
}

#[test]
fn membership_defaults_off() {
    let c = SimConfig::isca_default();
    assert!(!c.membership.enabled());
    assert!(!MembershipParams::default().enabled());
    let c = c.with_membership(MembershipParams::standard());
    assert!(c.membership.enabled());
    assert_eq!(MembershipParams::SUSPECT_AFTER, 3);
    assert_eq!(MembershipParams::RENEW_INTERVAL, Cycles::from_micros(20));
}

#[test]
fn migration_defaults_off() {
    let c = SimConfig::isca_default();
    assert!(!c.migration.enabled());
    assert!(!MigrationParams::default().enabled());
    let c = c.with_migration(MigrationParams::standard(vec![(2, 0)]));
    assert!(c.migration.enabled());
    assert_eq!(c.migration.moves, vec![(2, 0)]);
    assert_eq!(MigrationParams::CHUNKS_PER_MOVE, 8);
}

#[test]
fn batching_defaults_off() {
    let c = SimConfig::isca_default();
    assert!(!c.batching.enabled);
    assert!(!BatchingParams::default().enabled);
    let c = c.with_batching(BatchingParams::standard());
    assert!(c.batching.enabled);
    assert!(c.batching.adaptive);
    assert_eq!(c.batching.max_batch, 16);
    const _: () = assert!(BatchingParams::HIGH_WATERMARK > BatchingParams::LOW_WATERMARK);
}

#[test]
fn fixed_batching_pins_the_target() {
    let p = BatchingParams::fixed(1);
    assert!(p.enabled);
    assert!(!p.adaptive);
    assert_eq!(p.max_batch, 1);
    assert_eq!(BatchingParams::fixed(8).max_batch, 8);
}

#[test]
#[should_panic(expected = "at least one verb")]
fn rejects_zero_batch_size() {
    let _ = BatchingParams::fixed(0);
}

#[test]
fn profiling_defaults_off() {
    let c = SimConfig::isca_default();
    assert!(!c.profile);
    assert!(c.with_profiling().profile);
}

#[test]
fn observability_defaults_off() {
    let c = SimConfig::isca_default();
    assert!(!c.spans);
    assert!(c.timeseries_window.is_none());
    let c = c.with_spans().with_timeseries(Cycles::from_micros(50));
    assert!(c.spans);
    assert_eq!(c.timeseries_window, Some(Cycles::from_micros(50)));
}

#[test]
#[should_panic(expected = "window must be nonzero")]
fn rejects_zero_timeseries_window() {
    let _ = SimConfig::isca_default().with_timeseries(Cycles::ZERO);
}

#[test]
#[should_panic(expected = "at least one slot")]
fn rejects_zero_lock_buffer_slots() {
    let _ = SimConfig::isca_default().with_lock_buffer_slots(0);
}

#[test]
#[should_panic(expected = "out of range")]
fn rejects_bad_message_loss() {
    let _ = FaultPlan::from_loss(1.5, 0);
}

#[test]
#[should_panic(expected = "out of range")]
fn rejects_bad_local_fraction() {
    let _ = SimConfig::isca_default().with_local_fraction(1.5);
}
