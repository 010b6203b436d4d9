//! Extension experiment — precise membership and epoch-fenced failover.
//!
//! Sweeps a permanent single-node crash across crash times, protocols,
//! and (for HADES, which carries the replica machinery) replication
//! degrees, with the membership layer's failure detector on. Every run
//! must satisfy the failover invariants:
//!
//! 1. the survivors fill the entire measurement window (no stall),
//! 2. the Smallbank ledger conserves money — commits finalized at the
//!    crash included exactly once,
//! 3. the epoch advances and a backup is promoted for each partition
//!    homed at the dead node, and
//! 4. no replica-prepare state leaks past the end of the run.
//!
//! Run: `cargo run --release -p hades-bench --bin failover [--quick]`
//! `--json <path>` additionally writes a machine-readable report
//! (conventionally under `results/`). `--timeseries` enables the
//! windowed time-series layer and reports the goodput dip around the
//! crash — depth (fraction of pre-crash committed/window lost at the
//! worst window) and duration (consecutive windows below 90% of the
//! pre-crash baseline) — per run, and embeds each run's `timeseries`
//! block in the JSON report.

use hades_bench::{flag_value, has_flag, print_table, report_goodput_dip, write_json_report};
use hades_core::runner::{Protocol, Run};
use hades_core::runtime::RunOutcome;
use hades_fault::FaultPlan;
use hades_sim::config::{ClusterShape, MembershipParams, SimConfig};
use hades_sim::time::Cycles;
use hades_storage::db::Database;
use hades_telemetry::json::Json;
use hades_workloads::smallbank::{Smallbank, SmallbankConfig};

const SHAPE: ClusterShape = ClusterShape {
    nodes: 4,
    cores_per_node: 4,
    slots_per_core: 2,
};
const DEAD_NODE: u16 = 2;

struct FailoverRun {
    out: RunOutcome,
    conserved: bool,
}

/// Time-series window for `--timeseries` runs: fine enough to resolve
/// the detector's ~80 us declare delay into several windows.
const TS_WINDOW_US: u64 = 10;

fn run_failover(
    protocol: Protocol,
    crash_at: Cycles,
    replicas: usize,
    accounts: u64,
    measure: u64,
    timeseries: bool,
) -> FailoverRun {
    let mut cfg = SimConfig::isca_default()
        .with_shape(SHAPE)
        .with_replication(replicas)
        .with_membership(MembershipParams::standard());
    if timeseries {
        cfg = cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    let mut db = Database::new(cfg.shape.nodes);
    let sb = Smallbank::setup(
        &mut db,
        SmallbankConfig {
            accounts,
            hotspot: Some((16, 0.5)),
        },
    );
    let out = Run::loaded(protocol, cfg, db, Box::new(sb.clone()), 0, measure)
        .plan(FaultPlan::none().crash_forever(DEAD_NODE, crash_at))
        .run();
    let conserved = sb.total_money(&out.cluster.db)
        == sb.initial_total().wrapping_add(out.total_sum_delta as u64);
    FailoverRun { out, conserved }
}

fn check(label: &str, run: &FailoverRun, measure: u64) {
    assert_eq!(
        run.out.stats.committed, measure,
        "{label}: survivors did not fill the measurement window"
    );
    assert!(
        run.conserved,
        "{label}: money not conserved across failover"
    );
    assert!(
        run.out.stats.membership.epoch_changes >= 1,
        "{label}: dead node never declared"
    );
    assert!(
        run.out.stats.membership.promotions >= 1,
        "{label}: no backup promoted"
    );
    assert_eq!(
        run.out.replica_pending_leaked, 0,
        "{label}: replica-prepare state leaked"
    );
}

fn main() {
    let quick = has_flag("--quick");
    let timeseries = has_flag("--timeseries");
    let accounts = 400u64;
    // Sized so even HADES (the fastest engine) is still mid-run when the
    // detector declares the latest-crashing node (~crash + 80 us).
    let measure: u64 = if quick { 600 } else { 1_200 };
    let crash_times: &[u64] = if quick { &[20, 60] } else { &[20, 60, 100] };

    // Part 1: crash time x protocol.
    let mut rows = Vec::new();
    let mut cells: Vec<Json> = Vec::new();
    for p in Protocol::ALL {
        for &us in crash_times {
            let crash_at = Cycles::from_micros(us);
            let run = run_failover(p, crash_at, 0, accounts, measure, timeseries);
            let label = format!("{p:?} crash@{us}us");
            check(&label, &run, measure);
            let mut cell = Json::obj()
                .field("protocol", Json::str(p.label()))
                .field("crash_us", us)
                .field("replicas", 0u64)
                .field("stats", run.out.stats.to_json());
            if let Some(dip) = report_goodput_dip(&label, &run.out.stats, crash_at, "crash") {
                cell = cell.field("goodput_dip", dip);
            }
            cells.push(cell.build());
            let m = &run.out.stats.membership;
            rows.push(vec![
                format!("{p:?}"),
                format!("{us}"),
                format!("{:.0}", run.out.stats.throughput()),
                m.epoch_changes.to_string(),
                m.promotions.to_string(),
                m.verbs_fenced.to_string(),
                if run.conserved { "yes" } else { "NO" }.to_string(),
            ]);
            eprintln!("  done: {label}");
        }
    }
    print_table(
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
        &rows,
    );
    println!("\nExpected: every protocol survives the crash — the detector");
    println!("declares the node after three missed 20 us renewals, backups");
    println!("take over its partitions, and stale verbs die at the fence.");

    // Part 2: replication degree under failover (HADES carries the
    // replica-prepare machinery; straddling prepares resolve at the
    // epoch change — durable ones commit, the rest abort).
    let degrees: &[usize] = if quick { &[0, 1] } else { &[0, 1, 2] };
    let mut rows = Vec::new();
    for &f in degrees {
        let crash_at = Cycles::from_micros(40);
        let run = run_failover(Protocol::Hades, crash_at, f, accounts, measure, timeseries);
        let label = format!("Hades f={f}");
        check(&label, &run, measure);
        let mut cell = Json::obj()
            .field("protocol", Json::str(Protocol::Hades.label()))
            .field("crash_us", 40u64)
            .field("replicas", f as u64)
            .field("stats", run.out.stats.to_json());
        if let Some(dip) = report_goodput_dip(&label, &run.out.stats, crash_at, "crash") {
            cell = cell.field("goodput_dip", dip);
        }
        cells.push(cell.build());
        let m = &run.out.stats.membership;
        rows.push(vec![
            format!("f={f}"),
            format!("{:.0}", run.out.stats.throughput()),
            m.failover_commits.to_string(),
            m.failover_aborts.to_string(),
            m.replica_drained.to_string(),
            if run.conserved { "yes" } else { "NO" }.to_string(),
        ]);
        eprintln!("  done: {label}");
    }
    print_table(
        "Replication degree vs HADES failover (crash at 40 us)",
        &[
            "replicas",
            "txn/s",
            "fo commits",
            "fo aborts",
            "drained",
            "conserved",
        ],
        &rows,
    );
    println!("\nExpected: with replicas, in-flight prepares that straddle the");
    println!("epoch are resolved deterministically — provably durable commits");
    println!("survive, everything else aborts; nothing leaks.");

    if let Some(path) = flag_value("--json") {
        let doc = Json::obj()
            .field("schema", Json::str("hades-report/v1"))
            .field("report", Json::str("failover"))
            .field("quick", Json::Bool(quick))
            .field("failures", Json::Arr(Vec::new()))
            .field("cells", Json::Arr(cells))
            .build();
        write_json_report(&path, &doc);
    }

    println!("\nAll failover invariants held.");
}
