//! Chaos harness: sweeps deterministic fault plans across all three
//! protocol engines and asserts the recovery invariants.
//!
//! Every protocol × scenario run must finish (lost messages are
//! recovered by timeout/retry) and pass the shared sweep checks
//! (`hades_bench::sweep`): exactly the requested measured commits, money
//! conserved, a gapless commit history, nothing leaked past the drain,
//! and a byte-identical rerun of the identical config + seed + plan.
//!
//! A zero-fault plan must additionally be byte-identical to a run with no
//! injector installed at all (the fault plane is pay-for-what-you-use).
//! The `+batch` scenarios rerun loss and mixed-chaos pressure with the
//! doorbell-coalescing subsystem on (DESIGN.md §14): faults land on
//! individual verbs inside batches, and every invariant must still hold.
//! The `mig src dies` / `mig dst dies` scenarios crash one end of a
//! planned live migration (DESIGN.md §15) mid-copy with the failure
//! detector on: the plan must be abandoned at the declare and the run
//! degrade into the plain crash-failover path — never a cutover that
//! repoints traffic at a dead node.
//! The link-fault scenarios (`partition 10us`, `asym partition`,
//! `flapping node`, DESIGN.md §16) cut or flap a node's links with no
//! failure detector: held verbs release at the heal, lost ones are
//! recovered by timeout, and every cut window must be healed.
//! `partition+mig` partitions — without crashing — the source of a live
//! migration under the quorum-gated membership profile: the declare
//! lands mid-copy, the plan is abandoned, and the stranded primary
//! self-fences instead of dual-serving its partition.
//!
//! Run: `cargo run --release -p hades-bench --bin chaos` (`--quick` for
//! the CI smoke subset). Exits non-zero listing every violated invariant.
//! `--json <path>` additionally writes a machine-readable report
//! (conventionally under `results/`). `--timeseries` enables the
//! windowed time-series layer: each scenario prints its worst abort
//! window (when message loss or a crash bunches aborts in time, this
//! names the window), the rerun-determinism check then also covers the
//! `timeseries` JSON block, and the report cells embed it.

use hades_bench::has_flag;
use hades_bench::sweep::{Load, Scenario, Sweep};
use hades_core::runner::Protocol;
use hades_core::stats::RunStats;
use hades_fault::FaultPlan;
use hades_sim::config::{BatchingParams, MembershipParams, MigrationParams, SimConfig};
use hades_sim::time::Cycles;
use hades_telemetry::event::Verb;

const BANK: Load = Load::bank(1_000, Some((16, 0.5)));

/// Time-series window for `--timeseries` runs: chaos runs span a few
/// hundred microseconds of sim time, so 20 us yields 10+ windows.
const TS_WINDOW_US: u64 = 20;

/// Runs `sc` under each of `protocols` through the shared checks plus
/// `expect`, prints the worst abort window of a time-series run, and
/// records the run's table row and report cell.
fn run_cells(
    sweep: &mut Sweep,
    protocols: &[Protocol],
    sc: &Scenario,
    expect: impl Fn(&RunStats, &mut Vec<String>),
) {
    for &p in protocols {
        let label = format!("{p}/{}", sc.name);
        let trial = sweep.check(&label, p, sc, &expect);
        let s = &trial.out.stats;
        if let Some(ts) = &s.timeseries {
            if let Some(w) = ts.windows().iter().max_by_key(|w| w.aborted_total()) {
                eprintln!(
                    "  {label}: {} windows; worst abort window #{} ({} aborts, {} commits)",
                    ts.windows().len(),
                    w.idx,
                    w.aborted_total(),
                    w.committed_total(),
                );
            }
        }
        sweep.scenario_cell(p, &sc.name, s);
        sweep.rows.push(vec![
            p.label().to_string(),
            sc.name.clone(),
            s.committed.to_string(),
            s.squashes.to_string(),
            s.faults.drops.to_string(),
            s.faults.dups.to_string(),
            (s.faults.crashes + s.faults.restarts).to_string(),
            s.recovery.timeout_retries.to_string(),
            (s.recovery.lease_expiries + s.recovery.replica_replays).to_string(),
        ]);
    }
}

/// Dup/delay/reorder pressure on the commit verbs plus a NIC stall window:
/// little is lost outright, everything arrives strangely. Only
/// Lossy-class verbs reorder, so the plan jitters the HADES engines' Ack
/// and Baseline's ValidateResp: every engine meets reordering.
fn mixed_chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::none()
        .with_seed(seed)
        .drop_verb(Verb::Ack, 0.02)
        .dup_verb(Verb::Intend, 0.05)
        .dup_verb(Verb::Ack, 0.05)
        .dup_verb(Verb::LockResp, 0.05)
        .dup_verb(Verb::ValidateResp, 0.05)
        .delay_verb(Verb::Validation, 0.10, Cycles::new(2_000))
        .reorder_verb(Verb::Ack, 0.10, Cycles::new(1_000))
        .reorder_verb(Verb::ValidateResp, 0.10, Cycles::new(1_000))
        .nic_stall(1, Cycles::new(100_000), Cycles::new(140_000))
}

fn main() {
    let mut sweep = Sweep::new(Some("chaos"));
    let quick = sweep.quick;
    let measure: u64 = if quick { 300 } else { 500 };
    let loss_rates: &[f64] = if quick { &[0.05] } else { &[0.01, 0.05, 0.10] };
    let mut cfg = SimConfig::isca_default();
    if has_flag("--timeseries") {
        cfg = cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    let all = &Protocol::ALL;
    let no_checks = |_: &RunStats, _: &mut Vec<String>| {};
    let bank =
        |name: &str, cfg: &SimConfig, measure| Scenario::new(name, cfg.clone(), BANK, measure);

    // 1. Zero-fault plan must be byte-identical to no injector at all.
    let bare = bank("no injector", &cfg, measure);
    let zeroed = bank("zero plan", &cfg, measure).plan(FaultPlan::none());
    for p in Protocol::ALL {
        sweep.same_bytes(&format!("{p}/zero-plan"), p, &bare, &zeroed);
    }

    // 2. Message-loss sweep over the commit-handshake verbs.
    for &loss in loss_rates {
        let name = format!("loss {:.0}%", loss * 100.0);
        let sc = bank(&name, &cfg, measure).plan(FaultPlan::from_loss(loss, 42));
        run_cells(&mut sweep, all, &sc, no_checks);
    }

    // 2b. Fault × batching composition: faults hit individual verbs even
    // when those verbs ride coalesced doorbells (DESIGN.md §14), so
    // every conservation/leak/determinism invariant must still hold.
    let batched_cfg = cfg.clone().with_batching(BatchingParams::standard());
    let sc = bank("loss 5%+batch", &batched_cfg, measure).plan(FaultPlan::from_loss(0.05, 42));
    run_cells(&mut sweep, all, &sc, no_checks);

    // 3. Duplication / delay / reorder / NIC-stall pressure.
    if !quick {
        for (name, cfg) in [("mixed chaos", &cfg), ("mixed chaos+batch", &batched_cfg)] {
            let sc = bank(name, cfg, measure).plan(mixed_chaos_plan(7));
            run_cells(&mut sweep, all, &sc, no_checks);
        }
    }

    // 3b. Link faults without a failure detector: a cut window holds the
    // retransmit-class verbs until the heal and drops the lossy ones, so
    // recovery is pure timeout/retry — every run must drain clean once
    // the links heal, with no membership machinery to lean on.
    let nodes = cfg.shape.nodes as u16;
    let cut_from = Cycles::from_micros(60);
    // Only node 1's outbound links: it hears the cluster but cannot
    // answer — the half-open gray link.
    let asym = (0..nodes)
        .filter(|&n| n != 1)
        .fold(FaultPlan::none().with_seed(17), |plan, peer| {
            plan.cut_link(1, peer, cut_from, Cycles::from_micros(90))
        });
    let isolate =
        FaultPlan::none()
            .with_seed(17)
            .isolate_node(1, nodes, cut_from, Cycles::from_micros(70));
    let flap = FaultPlan::none().with_seed(17).flap_node(
        1,
        nodes,
        cut_from,
        Cycles::from_micros(160),
        Cycles::from_micros(20),
        Cycles::from_micros(10),
    );
    // The flap cell needs a longer run: its window stretches to 160 us,
    // and the healed-window count only closes once the run outlives the
    // window (the fastest engines drain ~300 measured transactions well
    // before that).
    for sc in [
        bank("partition 10us", &cfg, measure).plan(isolate),
        bank("asym partition", &cfg, measure).plan(asym),
        bank("flapping node", &cfg, measure * 3).plan(flap),
    ] {
        run_cells(&mut sweep, all, &sc, |s, bad| {
            if s.nemesis.links_cut == 0 {
                bad.push("plan injected no link windows".to_string());
            }
        });
    }

    // 4. Node crash + restart with §V-A replication, on HADES only
    // (HADES-H arms plan crashes too; Baseline only with the membership
    // layer on, as the migration-crash cells below run it).
    let crash_plan = FaultPlan::none()
        .with_seed(11)
        .with_lease(Cycles::new(30_000))
        .crash(1, Cycles::new(60_000), Cycles::new(200_000));
    let crash_cfg = cfg.clone().with_replication(1);
    let sc = bank("crash node 1", &crash_cfg, measure).plan(crash_plan);
    run_cells(&mut sweep, &[Protocol::Hades], &sc, |s, bad| {
        if s.faults.crashes == 0 || s.faults.restarts == 0 {
            bad.push("crash+restart did not both happen".to_string());
        }
    });

    // 5. Crash one end of a planned live migration mid-copy (detector
    // on). The copy stream dies with the node: the plan is abandoned at
    // the declare and the run degrades into the plain crash-failover
    // path — promotion if the source died, routing untouched if the
    // destination died — instead of wedging or cutting over to a corpse.
    //
    // Stretch the copy phase (announce 40 us, 8 chunks every 20 us,
    // cutover ~210 us) so the ~80 us declare delay of the standard
    // detector lands mid-copy, before the cutover would fire.
    let mut mig = MigrationParams::standard(vec![(2, 0)]);
    mig.chunk_interval = Cycles::from_micros(20);
    // Longer than the base scenarios: the run must still be measuring at
    // the ~120 us declare even on the fastest engine, or the plan (which
    // freezes with the detector at drain) never sees the death.
    let mig_measure = measure * 4;
    let mig_cfg = cfg
        .clone()
        .with_membership(MembershipParams::standard())
        .with_migration(mig.clone());
    for (name, victim) in [("mig src dies", 2u16), ("mig dst dies", 0u16)] {
        let plan = FaultPlan::none().crash_forever(victim, Cycles::from_micros(60));
        let sc = bank(name, &mig_cfg, mig_measure).plan(plan);
        run_cells(&mut sweep, all, &sc, |s, bad| {
            if s.migration.partitions_moved != 0 {
                bad.push("cutover fired despite a dead endpoint".to_string());
            }
            if victim == 2 && s.membership.promotions == 0 {
                bad.push("source death did not promote a backup".to_string());
            }
        });
    }

    // 5b. Partition (don't crash) the source of a planned live migration
    // under the quorum-gated membership profile. The node stays up but
    // unreachable: quorum declares it dead mid-copy (~180 us, before the
    // ~210 us cutover), the plan must be abandoned at the declare with a
    // backup promotion, and the stranded primary self-fences rather than
    // keep serving a partition the cluster has moved on from.
    let pm_cfg = cfg
        .clone()
        .with_membership(MembershipParams::partition_safe())
        .with_migration(mig);
    let plan = FaultPlan::none().with_seed(17).isolate_node(
        2,
        nodes,
        Cycles::from_micros(60),
        Cycles::from_micros(300),
    );
    let sc = bank("partition+mig", &pm_cfg, mig_measure).plan(plan);
    run_cells(&mut sweep, all, &sc, |s, bad| {
        if s.migration.partitions_moved != 0 {
            bad.push("cutover fired at a partitioned source".to_string());
        }
        if s.membership.promotions == 0 {
            bad.push("partitioned source was never declared dead".to_string());
        }
    });

    sweep.table(
        "chaos sweep (Smallbank, deterministic fault plans)",
        &[
            "protocol",
            "scenario",
            "committed",
            "squashes",
            "drops",
            "dups",
            "crash+rst",
            "timeout retries",
            "lease+replay",
        ],
    );
    sweep.finish();
    println!("\nall invariants held: conservation, no leaks, deterministic reruns.");
}
