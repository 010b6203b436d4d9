//! Extension experiment — precise membership and epoch-fenced failover.
//!
//! Sweeps a permanent single-node crash across crash times, protocols,
//! and (for HADES, which carries the replica machinery) replication
//! degrees, with the membership layer's failure detector on. Every run
//! must pass the shared sweep checks (`hades_bench::sweep`): the
//! survivors fill the entire measurement window (no stall), the
//! Smallbank ledger conserves money — commits finalized at the crash
//! included exactly once — with a gapless commit history, nothing
//! (replica prepares included) leaks past the drain, and a rerun is
//! byte-identical. The epoch must also advance and a backup be promoted
//! for each partition homed at the dead node. A violation is listed in
//! the report and exits 1.
//!
//! Run: `cargo run --release -p hades-bench --bin failover [--quick]`
//! `--json <path>` additionally writes a machine-readable report
//! (conventionally under `results/`). `--timeseries` enables the
//! windowed time-series layer and reports the goodput dip around the
//! crash — depth (fraction of pre-crash committed/window lost at the
//! worst window) and duration (consecutive windows below 90% of the
//! pre-crash baseline) — per run, and embeds each run's `timeseries`
//! block in the JSON report.

use hades_bench::sweep::{Load, Scenario, Sweep, Trial};
use hades_bench::{has_flag, report_goodput_dip};
use hades_core::runner::Protocol;
use hades_fault::FaultPlan;
use hades_sim::config::{ClusterShape, MembershipParams, SimConfig};
use hades_sim::time::Cycles;
use hades_telemetry::json::Json;

const SHAPE: ClusterShape = ClusterShape {
    nodes: 4,
    cores_per_node: 4,
    slots_per_core: 2,
};
const DEAD_NODE: u16 = 2;

/// Time-series window for `--timeseries` runs: fine enough to resolve
/// the detector's ~80 us declare delay into several windows.
const TS_WINDOW_US: u64 = 10;

/// Runs `protocol` with node [`DEAD_NODE`] crashing for good at
/// `crash_us` under `replicas` replicas, checks it, prints its goodput
/// dip, records its report cell, and returns the run.
fn crash_cell(
    sweep: &mut Sweep,
    label: &str,
    protocol: Protocol,
    crash_us: u64,
    replicas: usize,
    measure: u64,
) -> Trial {
    let mut cfg = SimConfig::isca_default()
        .with_shape(SHAPE)
        .with_replication(replicas)
        .with_membership(MembershipParams::standard());
    if has_flag("--timeseries") {
        cfg = cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    let crash_at = Cycles::from_micros(crash_us);
    let sc = Scenario::new(label, cfg, Load::bank(400, Some((16, 0.5))), measure)
        .plan(FaultPlan::none().crash_forever(DEAD_NODE, crash_at));
    let trial = sweep.check(label, protocol, &sc, |s, bad| {
        if s.membership.epoch_changes == 0 {
            bad.push("dead node never declared".to_string());
        }
        if s.membership.promotions == 0 {
            bad.push("no backup promoted".to_string());
        }
    });
    let stats = &trial.out.stats;
    let mut cell = Json::obj()
        .field("protocol", Json::str(protocol.label()))
        .field("crash_us", crash_us)
        .field("replicas", replicas as u64)
        .field("stats", stats.to_json());
    if let Some(dip) = report_goodput_dip(label, stats, crash_at, "crash") {
        cell = cell.field("goodput_dip", dip);
    }
    sweep.cells.push(cell.build());
    trial
}

fn main() {
    let mut sweep = Sweep::new(Some("failover"));
    // Sized so even HADES (the fastest engine) is still mid-run when the
    // detector declares the latest-crashing node (~crash + 80 us).
    let quick = sweep.quick;
    let measure: u64 = if quick { 600 } else { 1_200 };
    let crash_times: &[u64] = if quick { &[20, 60] } else { &[20, 60, 100] };

    // Part 1: crash time x protocol.
    for p in Protocol::ALL {
        for &us in crash_times {
            let label = format!("{p:?} crash@{us}us");
            let trial = crash_cell(&mut sweep, &label, p, us, 0, measure);
            let (s, m) = (&trial.out.stats, &trial.out.stats.membership);
            sweep.rows.push(vec![
                format!("{p:?}"),
                format!("{us}"),
                format!("{:.0}", s.throughput()),
                m.epoch_changes.to_string(),
                m.promotions.to_string(),
                m.verbs_fenced.to_string(),
                trial.conserved_cell(),
            ]);
        }
    }
    sweep.table(
        "Permanent crash vs protocol (Smallbank, 4 nodes, detector on)",
        &[
            "protocol",
            "crash us",
            "txn/s",
            "epochs",
            "promoted",
            "fenced",
            "conserved",
        ],
    );
    println!("\nExpected: every protocol survives the crash — the detector");
    println!("declares the node after three missed 20 us renewals, backups");
    println!("take over its partitions, and stale verbs die at the fence.");

    // Part 2: replication degree under failover (HADES carries the
    // replica-prepare machinery; straddling prepares resolve at the
    // epoch change — durable ones commit, the rest abort).
    let degrees: &[usize] = if quick { &[0, 1] } else { &[0, 1, 2] };
    for &f in degrees {
        let label = format!("Hades f={f}");
        let trial = crash_cell(&mut sweep, &label, Protocol::Hades, 40, f, measure);
        let (s, m) = (&trial.out.stats, &trial.out.stats.membership);
        sweep.rows.push(vec![
            format!("f={f}"),
            format!("{:.0}", s.throughput()),
            m.failover_commits.to_string(),
            m.failover_aborts.to_string(),
            m.replica_drained.to_string(),
            trial.conserved_cell(),
        ]);
    }
    sweep.table(
        "Replication degree vs HADES failover (crash at 40 us)",
        &[
            "replicas",
            "txn/s",
            "fo commits",
            "fo aborts",
            "drained",
            "conserved",
        ],
    );
    println!("\nExpected: with replicas, in-flight prepares that straddle the");
    println!("epoch are resolved deterministically — provably durable commits");
    println!("survive, everything else aborts; nothing leaks.");

    sweep.finish();
    println!("\nAll failover invariants held.");
}
