//! Extension experiment — planned live shard migration under traffic.
//!
//! Sweeps a planned reconfiguration (partition 2 repointed at node 0
//! mid-run, DESIGN.md §15) across protocols and access skews, with a
//! matched migration-off run per cell so the cost of moving a shard is
//! measured as goodput dip and p99 inflation rather than absolute
//! numbers. Both runs of a cell must pass the shared sweep checks
//! (`hades_bench::sweep`): the cluster fills the entire measurement
//! window — transactions keep committing through announce, copy,
//! catch-up, and cutover — the Smallbank ledger conserves money across
//! the move with a gapless commit history, nothing leaks past the
//! drain, and a rerun is byte-identical. The migrated run must also
//! execute the full plan: every chunk streamed, the partition
//! repointed, and the epoch advanced at announce and cutover; the
//! migration-off control must record no migration activity. A
//! violation is listed in the report and exits 1.
//!
//! Run: `cargo run --release -p hades-bench --bin rebalance [--quick]`
//! `--json <path>` additionally writes a machine-readable report
//! (conventionally under `results/`). The windowed time-series layer is
//! always on for migrated runs: the goodput dip around the cutover —
//! depth and duration, via the same analyzer as the `failover` bin —
//! is printed per cell and embedded in the JSON report.

use hades_bench::report_goodput_dip;
use hades_bench::sweep::{Load, Scenario, Sweep};
use hades_core::runner::Protocol;
use hades_sim::config::{ClusterShape, MigrationParams, SimConfig};
use hades_sim::time::Cycles;
use hades_telemetry::json::Json;

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
    let mut sweep = Sweep::new(Some("rebalance"));
    // Sized so every engine is still mid-run at the ~66 us cutover of
    // the standard plan (same sizing argument as the failover bin).
    let measure: u64 = if sweep.quick { 600 } else { 1_200 };
    let skews: &[(&str, Option<(u64, f64)>)] = if sweep.quick {
        &[("hotspot", Some((16, 0.5)))]
    } else {
        &[("uniform", None), ("hotspot", Some((16, 0.5)))]
    };
    let plan = MigrationParams::standard(vec![(SRC, DST)]);
    let moves = plan.moves.len() as u64;
    let cut = cutover_at(&plan);
    let off_cfg = SimConfig::isca_default().with_shape(SHAPE);
    let on_cfg = off_cfg
        .clone()
        .with_migration(plan.clone())
        .with_timeseries(Cycles::from_micros(TS_WINDOW_US));

    for p in Protocol::ALL {
        for &(skew, hotspot) in skews {
            let label = format!("{p:?} {skew}");
            let bank = Load::bank(400, hotspot);
            let sc = Scenario::new(skew, on_cfg.clone(), bank, measure);
            let on = sweep.check(&label, p, &sc, |s, bad| {
                let mig = &s.migration;
                if mig.partitions_moved != moves {
                    bad.push("cutover never repointed the partition".to_string());
                }
                if mig.chunks_moved != plan.chunks_per_move() * moves {
                    bad.push("copy phase did not stream every chunk".to_string());
                }
                if mig.records_moved != plan.partition_records * moves {
                    bad.push("copy phase did not stream every record".to_string());
                }
                if s.membership.epoch_changes < 2 {
                    bad.push("epoch did not advance at announce and cutover".to_string());
                }
            });
            let sc = Scenario::new(skew, off_cfg.clone(), bank, measure);
            let off = sweep.check(&format!("{label} off"), p, &sc, |s, bad| {
                if !s.migration.is_zero() {
                    bad.push("migration-off run recorded migration activity".to_string());
                }
            });
            let (s, s_off) = (&on.out.stats, &off.out.stats);
            let p99_on = s.p99_latency().as_micros();
            let p99_off = s_off.p99_latency().as_micros();
            let p99_x = if p99_off > 0.0 { p99_on / p99_off } else { 1.0 };
            let mut cell = Json::obj()
                .field("protocol", Json::str(p.label()))
                .field("skew", Json::str(skew))
                .field("p99_inflation", p99_x)
                .field("stats", s.to_json())
                .field("baseline_stats", s_off.to_json());
            if let Some(dip) = report_goodput_dip(&label, s, cut, "migration") {
                cell = cell.field("goodput_dip", dip);
            }
            sweep.cells.push(cell.build());
            let mig = &s.migration;
            sweep.rows.push(vec![
                format!("{p:?}"),
                skew.to_string(),
                format!("{:.0}", s.throughput()),
                format!("{:.0}", s_off.throughput()),
                mig.chunks_moved.to_string(),
                mig.forwarded_writes.to_string(),
                mig.straddlers_fenced.to_string(),
                format!("{p99_x:.2}x"),
                on.conserved_cell(),
            ]);
        }
    }
    sweep.table(
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
    );
    println!("\nExpected: every protocol keeps committing through the move —");
    println!("chunks stream between foreground transactions, writes landing");
    println!("at the source are forwarded, and at cutover only the handshakes");
    println!("straddling the epoch flip are fenced and retried.");

    sweep.finish();
    println!("\nAll rebalance invariants held.");
}
