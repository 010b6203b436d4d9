//! Extension experiment — planned live shard migration under traffic.
//!
//! Sweeps a planned reconfiguration (partition 2 repointed at node 0
//! mid-run, DESIGN.md §15) across protocols and access skews, with a
//! matched migration-off run per cell so the cost of moving a shard is
//! measured as goodput dip and p99 inflation rather than absolute
//! numbers. Every migrated run must satisfy the rebalance invariants:
//!
//! 1. the cluster fills the entire measurement window — transactions
//!    keep committing through announce, copy, catch-up, and cutover,
//! 2. the Smallbank ledger conserves money across the move,
//! 3. the full plan executes: every chunk streamed, the partition
//!    repointed, and the epoch advanced at announce and cutover, and
//! 4. no replica-prepare state leaks past the end of the run.
//!
//! Run: `cargo run --release -p hades-bench --bin rebalance [--quick]`
//! `--json <path>` additionally writes a machine-readable report
//! (conventionally under `results/`). The windowed time-series layer is
//! always on for migrated runs: the goodput dip around the cutover —
//! depth and duration, via the same analyzer as the `failover` bin —
//! is printed per cell and embedded in the JSON report.

use hades_bench::{flag_value, has_flag, print_table, report_goodput_dip, write_json_report};
use hades_core::runner::{Protocol, Run};
use hades_core::runtime::RunOutcome;
use hades_sim::config::{ClusterShape, MigrationParams, SimConfig};
use hades_sim::time::Cycles;
use hades_storage::db::Database;
use hades_telemetry::json::Json;
use hades_workloads::smallbank::{Smallbank, SmallbankConfig};

const SHAPE: ClusterShape = ClusterShape {
    nodes: 4,
    cores_per_node: 4,
    slots_per_core: 2,
};
/// The plan: partition 2 moves to node 0 while both stay live.
const SRC: u16 = 2;
const DST: u16 = 0;

/// Time-series window: fine enough to resolve the ~26 us copy +
/// catch-up phases of the standard plan into several windows.
const TS_WINDOW_US: u64 = 10;

struct RebalanceRun {
    out: RunOutcome,
    conserved: bool,
}

fn run_rebalance(
    protocol: Protocol,
    hotspot: Option<(u64, f64)>,
    migrate: bool,
    accounts: u64,
    measure: u64,
) -> RebalanceRun {
    let mut cfg = SimConfig::isca_default().with_shape(SHAPE);
    if migrate {
        cfg = cfg
            .with_migration(MigrationParams::standard(vec![(SRC, DST)]))
            .with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    let mut db = Database::new(cfg.shape.nodes);
    let sb = Smallbank::setup(&mut db, SmallbankConfig { accounts, hotspot });
    let out = Run::loaded(protocol, cfg, db, Box::new(sb.clone()), 0, measure).run();
    let conserved = sb.total_money(&out.cluster.db)
        == sb.initial_total().wrapping_add(out.total_sum_delta as u64);
    RebalanceRun { out, conserved }
}

fn check(label: &str, run: &RebalanceRun, measure: u64, plan: &MigrationParams) {
    assert_eq!(
        run.out.stats.committed, measure,
        "{label}: cluster did not keep committing through the migration"
    );
    assert!(
        run.conserved,
        "{label}: money not conserved across the migration"
    );
    let mig = &run.out.stats.migration;
    assert_eq!(
        mig.partitions_moved,
        plan.moves.len() as u64,
        "{label}: cutover never repointed the partition"
    );
    assert_eq!(
        mig.chunks_moved,
        plan.chunks_per_move() * plan.moves.len() as u64,
        "{label}: copy phase did not stream every chunk"
    );
    assert_eq!(
        mig.records_moved,
        plan.partition_records * plan.moves.len() as u64,
        "{label}: copy phase did not stream every record"
    );
    assert!(
        run.out.stats.membership.epoch_changes >= 2,
        "{label}: epoch did not advance at announce and cutover"
    );
    assert_eq!(
        run.out.replica_pending_leaked, 0,
        "{label}: replica-prepare state leaked"
    );
}

/// Sim time of the cutover under `plan`: announce at `start_at`, one
/// chunk round per `chunk_interval`, then the dual-routing window.
fn cutover_at(plan: &MigrationParams) -> Cycles {
    Cycles::new(
        plan.start_at.get()
            + plan.chunks_per_move() * plan.chunk_interval.get()
            + plan.dual_window.get(),
    )
}

fn main() {
    let quick = has_flag("--quick");
    let accounts = 400u64;
    // Sized so every engine is still mid-run at the ~66 us cutover of
    // the standard plan (same sizing argument as the failover bin).
    let measure: u64 = if quick { 600 } else { 1_200 };
    let skews: &[(&str, Option<(u64, f64)>)] = if quick {
        &[("hotspot", Some((16, 0.5)))]
    } else {
        &[("uniform", None), ("hotspot", Some((16, 0.5)))]
    };
    let plan = MigrationParams::standard(vec![(SRC, DST)]);
    let cut = cutover_at(&plan);

    let mut rows = Vec::new();
    let mut cells: Vec<Json> = Vec::new();
    for p in Protocol::ALL {
        for &(skew, hotspot) in skews {
            let label = format!("{p:?} {skew}");
            let on = run_rebalance(p, hotspot, true, accounts, measure);
            check(&label, &on, measure, &plan);
            let off = run_rebalance(p, hotspot, false, accounts, measure);
            assert_eq!(
                off.out.stats.committed, measure,
                "{label}: migration-off control run did not complete"
            );
            assert!(
                off.out.stats.migration.is_zero(),
                "{label}: migration-off run recorded migration activity"
            );
            let p99_on = on.out.stats.p99_latency().as_micros();
            let p99_off = off.out.stats.p99_latency().as_micros();
            let p99_x = if p99_off > 0.0 { p99_on / p99_off } else { 1.0 };
            let mut cell = Json::obj()
                .field("protocol", Json::str(p.label()))
                .field("skew", Json::str(skew))
                .field("p99_inflation", p99_x)
                .field("stats", on.out.stats.to_json())
                .field("baseline_stats", off.out.stats.to_json());
            if let Some(dip) = report_goodput_dip(&label, &on.out.stats, cut, "migration") {
                cell = cell.field("goodput_dip", dip);
            }
            cells.push(cell.build());
            let mig = &on.out.stats.migration;
            rows.push(vec![
                format!("{p:?}"),
                skew.to_string(),
                format!("{:.0}", on.out.stats.throughput()),
                format!("{:.0}", off.out.stats.throughput()),
                mig.chunks_moved.to_string(),
                mig.forwarded_writes.to_string(),
                mig.straddlers_fenced.to_string(),
                format!("{p99_x:.2}x"),
                if on.conserved { "yes" } else { "NO" }.to_string(),
            ]);
            eprintln!("  done: {label}");
        }
    }
    print_table(
        "Live shard migration vs protocol (Smallbank, 4 nodes, partition 2 -> node 0)",
        &[
            "protocol",
            "skew",
            "txn/s",
            "txn/s off",
            "chunks",
            "forwarded",
            "fenced",
            "p99 x",
            "conserved",
        ],
        &rows,
    );
    println!("\nExpected: every protocol keeps committing through the move —");
    println!("chunks stream between foreground transactions, writes landing");
    println!("at the source are forwarded, and at cutover only the handshakes");
    println!("straddling the epoch flip are fenced and retried.");

    if let Some(path) = flag_value("--json") {
        let doc = Json::obj()
            .field("schema", Json::str("hades-report/v1"))
            .field("report", Json::str("rebalance"))
            .field("quick", Json::Bool(quick))
            .field("failures", Json::Arr(Vec::new()))
            .field("cells", Json::Arr(cells))
            .build();
        write_json_report(&path, &doc);
    }

    println!("\nAll rebalance invariants held.");
}
