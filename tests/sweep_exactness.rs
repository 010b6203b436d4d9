//! Exactness guard for the stress bins' simulated behaviour.
//!
//! The seven stress bins (`chaos`, `nemesis`, `overload`, `batching`,
//! `failover`, `rebalance`, `replication`) all run their cells through
//! `hades_bench::sweep`. This test takes one representative cell from
//! each bin, rebuilt here as the same `Scenario` value the bin runs, and
//! runs it under every engine through `Scenario::run`. Each trial must
//! pass the sweep's shared checks (`Trial::violations`), and its
//! rendered `RunStats::to_json` must equal the golden
//! `results/exactness/sweep/<bin>-<engine>.json`, so a change that moves
//! one simulated event in any of these fault compositions fails tier-1.
//! Every cell runs before the test fails. The bins' own checks are not
//! repeated.
//!
//! Six cells are `--quick` cells. The `overload` and `replication` bins
//! run HADES alone; here all three engines run their cells. The overload
//! cell is one of that bin's full-mode cells (θ 0.9): under the
//! aggressive admission profile at θ 0.99, its quick cells, a HADES-H
//! run did not finish within 30 s at commit 2c7a430.
//!
//! If a change to the simulation moves these files on purpose, re-record
//! them (`hades_bench::golden`) and say so; a host-only change must leave
//! them alone.

use hades::core::runner::{Experiment, Protocol};
use hades::fault::FaultPlan;
use hades::sim::config::{
    BatchingParams, ClusterShape, MembershipParams, MigrationParams, OverloadParams, SimConfig,
};
use hades::sim::time::Cycles;
use hades_bench::golden::Golden;
use hades_bench::sweep::{Load, Scenario};
use Protocol::{Baseline, Hades, HadesH};

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

/// A bin and its cell.
type Cell = (&'static str, fn() -> Scenario);

const CELLS: [Cell; 7] = [
    ("chaos", chaos_crash),
    ("nemesis", nemesis_partition),
    ("overload", overload),
    ("batching", batching),
    ("failover", failover),
    ("rebalance", rebalance),
    ("replication", replication),
];

#[test]
fn one_cell_per_stress_bin_is_clean_and_reproduces_its_stats() {
    let mut golden = Golden::new(env!("CARGO_MANIFEST_DIR"), env!("CARGO_TARGET_TMPDIR"));
    for (bin, scenario) in CELLS {
        let sc = scenario();
        for p in [Baseline, HadesH, Hades] {
            let trial = sc.run(p);
            for violation in trial.violations() {
                golden.fail(format!("{bin} {:?} {p}: {violation}", sc.name));
            }
            let stats = trial.out.stats.to_json().render();
            golden.check(&format!("results/exactness/sweep/{bin}-{p}.json"), &stats);
        }
    }
    golden.finish();
}
