//! Exactness guard for the stress bins' simulated behaviour.
//!
//! The seven stress bins (`chaos`, `nemesis`, `overload`, `batching`,
//! `failover`, `rebalance`, `replication`) all run their cells through
//! `hades_bench::sweep`. This test takes one representative cell from
//! each bin, rebuilt here as the same `Scenario` value the bin runs, and
//! runs it under every engine through `Scenario::run`. Each trial must
//! pass the sweep's shared checks (`Trial::violations`), and the FNV-1a
//! digest of its rendered `RunStats::to_json` must equal the one
//! recorded here, so a change that moves one simulated event in any of
//! these fault compositions fails tier-1 rather than only a golden diff.
//! The bins' own checks are not repeated.
//!
//! Six cells are `--quick` cells. The `overload` and `replication` bins
//! run HADES alone; here all three engines run their cells. The overload
//! cell is one of that bin's full-mode cells (θ 0.9): under the
//! aggressive admission profile at θ 0.99, its quick cells, a HADES-H
//! run did not finish within 30 s at commit 2c7a430.
//!
//! All 21 digests were recorded at commit 2c7a430. If a change to the
//! simulation moves them on purpose, re-record them and say so; a
//! host-only change must leave them alone.

use hades::core::runner::{Experiment, Protocol};
use hades::fault::FaultPlan;
use hades::sim::config::{
    BatchingParams, ClusterShape, MembershipParams, MigrationParams, OverloadParams, SimConfig,
};
use hades::sim::time::Cycles;
use hades_bench::sweep::{Load, Scenario};
use Protocol::{Baseline, Hades, HadesH};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The four-node shape of the `nemesis`, `failover` and `rebalance` bins.
const SHAPE4: ClusterShape = ClusterShape {
    nodes: 4,
    cores_per_node: 4,
    slots_per_core: 2,
};

/// `chaos`'s "mig src dies": node 2, the source of a live move of its
/// partition to node 0, crashes for good at 60 us, mid-copy, with the
/// failure detector on.
fn chaos_crash() -> Scenario {
    let mut mig = MigrationParams::standard(vec![(2, 0)]);
    mig.chunk_interval = Cycles::from_micros(20);
    let cfg = SimConfig::isca_default()
        .with_membership(MembershipParams::standard())
        .with_migration(mig);
    let plan = FaultPlan::none().crash_forever(2, Cycles::from_micros(60));
    let bank = Load::bank(1_000, Some((16, 0.5)));
    Scenario::new("mig src dies", cfg, bank, 1_200).plan(plan)
}

/// `nemesis`'s "sym short": node 3 is cut off both ways for 10 us from
/// 60 us under the partition-safe membership profile.
fn nemesis_partition() -> Scenario {
    let cfg = SimConfig::isca_default()
        .with_shape(SHAPE4)
        .with_membership(MembershipParams::partition_safe())
        .with_timeseries(Cycles::from_micros(20));
    let (from, until) = (Cycles::from_micros(60), Cycles::from_micros(70));
    let plan = FaultPlan::none()
        .with_seed(17)
        .isolate_node(3, 4, from, until);
    let bank = Load::bank(800, Some((16, 0.5)));
    Scenario::new("sym short", cfg, bank, 600).plan(plan)
}

/// `overload`'s "admission=on/theta=0.9/lb=full" (a full-mode cell):
/// the aggressive admission profile on contended YCSB-A.
fn overload() -> Scenario {
    let cfg = SimConfig::isca_default().with_overload(OverloadParams::aggressive());
    let label = "admission=on/theta=0.9/lb=full";
    Scenario::new(label, cfg, Load::ht_wa(0.9, 0.0005), 300)
}

/// `batching`'s "theta0.99" point with adaptive doorbell batching on.
fn batching() -> Scenario {
    let cfg = SimConfig::isca_default().with_batching(BatchingParams::standard());
    Scenario {
        warmup: 100,
        ..Scenario::new("theta0.99", cfg, Load::ht_wa(0.99, 0.0005), 1_000)
    }
}

/// `failover`'s permanent crash of node 2 at 20 us, one replica, with
/// the failure detector on.
fn failover() -> Scenario {
    let cfg = SimConfig::isca_default()
        .with_shape(SHAPE4)
        .with_replication(1)
        .with_membership(MembershipParams::standard());
    let plan = FaultPlan::none().crash_forever(2, Cycles::from_micros(20));
    let bank = Load::bank(400, Some((16, 0.5)));
    Scenario::new("crash@20us f=1", cfg, bank, 600).plan(plan)
}

/// `rebalance`'s "hotspot": partition 2 moves live to node 0.
fn rebalance() -> Scenario {
    let cfg = SimConfig::isca_default()
        .with_shape(SHAPE4)
        .with_migration(MigrationParams::standard(vec![(2, 0)]))
        .with_timeseries(Cycles::from_micros(10));
    Scenario::new("hotspot", cfg, Load::bank(400, Some((16, 0.5))), 600)
}

/// `replication`'s "loss=0.05": one replica and 5% message loss on a
/// 2,000-account bank.
fn replication() -> Scenario {
    let cfg = SimConfig::isca_default().with_replication(1);
    let plan = FaultPlan::from_loss(0.05, cfg.seed);
    let measure = Experiment::quick().measure;
    Scenario::new("loss", cfg, Load::bank(2_000, None), measure).plan(plan)
}

/// A bin, its cell and the cell's stats digest per engine, in the order
/// Baseline, HADES-H, HADES.
type Cell = (&'static str, fn() -> Scenario, [u64; 3]);

#[rustfmt::skip]
const EXPECTED: [Cell; 7] = [
    ("chaos", chaos_crash, [0x90ad_143c_bb15_02d5, 0x8012_416a_d441_602e, 0x389e_eb77_61a8_4329]),
    ("nemesis", nemesis_partition, [0xe8b4_4039_0b64_178c, 0x1afa_1440_edfe_6c2c, 0xc975_4798_7f08_bea4]),
    ("overload", overload, [0x5a98_0423_c1b7_1aac, 0x75e7_8cf3_8480_95f7, 0x7a47_e387_b9b9_628c]),
    ("batching", batching, [0x6e67_2a2f_8dc9_d006, 0x55ff_bc8e_cd29_aaa1, 0x7ddd_8092_c26b_e575]),
    ("failover", failover, [0x6078_cdcb_f1ef_33e1, 0x4fa2_f865_9bd6_542e, 0x715d_08d0_a8a0_3a8f]),
    ("rebalance", rebalance, [0x167e_b6f5_41fc_b7f8, 0x1315_6d5d_8600_0714, 0x8367_5f8b_0a0c_b02b]),
    ("replication", replication, [0x8965_99cc_9db2_f218, 0x5cf6_0dd5_7dc5_4ef6, 0x2fe6_4b9c_119f_4b48]),
];

#[test]
fn one_cell_per_stress_bin_is_clean_and_reproduces_its_stats() {
    for (bin, scenario, digests) in EXPECTED {
        let sc = scenario();
        for (p, want) in [Baseline, HadesH, Hades].into_iter().zip(digests) {
            let trial = sc.run(p);
            let cell = format!("{bin} {:?} {p}", sc.name);
            assert_eq!(trial.violations(), Vec::<String>::new(), "{cell}");
            let got = fnv1a(trial.out.stats.to_json().render().as_bytes());
            assert_eq!(got, want, "{cell}: stats digest {got:#018x}");
        }
    }
}
