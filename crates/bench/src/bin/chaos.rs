//! Chaos harness: sweeps deterministic fault plans across all three
//! protocol engines and asserts the recovery invariants.
//!
//! For every protocol × scenario the run must:
//!
//! * finish (no hang: lost messages are recovered by timeout/retry),
//! * commit exactly the requested number of measured transactions,
//! * conserve Smallbank money (committed RMW deltas applied exactly once),
//! * leak no record locks, Locking Buffers, or NIC remote-transaction
//!   filters past the drain, and
//! * be **deterministic**: rerunning the identical config + seed + plan
//!   must reproduce byte-identical stats JSON.
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

use hades_bench::{flag_value, has_flag, print_table, write_json_report};
use hades_core::runner::{Protocol, Run};
use hades_core::runtime::RunOutcome;
use hades_fault::FaultPlan;
use hades_sim::config::{BatchingParams, MembershipParams, MigrationParams, SimConfig};
use hades_sim::time::Cycles;
use hades_storage::db::Database;
use hades_telemetry::event::Verb;
use hades_telemetry::json::Json;
use hades_workloads::smallbank::{Smallbank, SmallbankConfig};

const ACCOUNTS: u64 = 1_000;

/// Time-series window for `--timeseries` runs: chaos runs span a few
/// hundred microseconds of sim time, so 20 us yields 10+ windows.
const TS_WINDOW_US: u64 = 20;

/// One finished run plus the Smallbank-side invariant observations.
struct Observed {
    out: RunOutcome,
    initial_total: u64,
    final_total: u64,
    records_locked: bool,
}

fn run_once(
    protocol: Protocol,
    cfg: SimConfig,
    plan: Option<&FaultPlan>,
    measure: u64,
) -> Observed {
    let mut db = Database::new(cfg.shape.nodes);
    let sb = Smallbank::setup(
        &mut db,
        SmallbankConfig {
            accounts: ACCOUNTS,
            hotspot: Some((16, 0.5)),
        },
    );
    let out = Run::loaded(protocol, cfg, db, Box::new(sb.clone()), 0, measure)
        .plan(plan.cloned())
        .run();
    let db = &out.cluster.db;
    let mut records_locked = false;
    for t in [sb.checking(), sb.savings()] {
        for a in 0..ACCOUNTS {
            let rid = db.lookup(t, a).expect("account exists").rid;
            records_locked |= db.record(rid).is_locked();
        }
    }
    Observed {
        initial_total: sb.initial_total(),
        final_total: sb.total_money(db),
        records_locked,
        out,
    }
}

/// Checks every post-run invariant, appending violations to `failures`.
fn check_invariants(label: &str, obs: &Observed, measure: u64, failures: &mut Vec<String>) {
    let stats = &obs.out.stats;
    if stats.committed != measure {
        failures.push(format!(
            "{label}: committed {} of {measure} measured transactions",
            stats.committed
        ));
    }
    let expected = obs
        .initial_total
        .wrapping_add(obs.out.total_sum_delta as u64);
    if obs.final_total != expected {
        failures.push(format!(
            "{label}: money not conserved (final {} != initial {} + committed delta {})",
            obs.final_total, obs.initial_total, obs.out.total_sum_delta
        ));
    }
    if obs.records_locked {
        failures.push(format!("{label}: record locks leaked past drain"));
    }
    for (n, bufs) in obs.out.cluster.lock_bufs.iter().enumerate() {
        if bufs.occupied() != 0 {
            failures.push(format!(
                "{label}: node {n} left {} Locking Buffers held",
                bufs.occupied()
            ));
        }
    }
    for (n, nic) in obs.out.cluster.nics.iter().enumerate() {
        if nic.active_remote_txs() != 0 {
            failures.push(format!(
                "{label}: node {n} NIC left {} remote-tx filters",
                nic.active_remote_txs()
            ));
        }
    }
    if obs.out.replica_pending_leaked != 0 {
        failures.push(format!(
            "{label}: {} replica-prepare entries leaked past drain",
            obs.out.replica_pending_leaked
        ));
    }
}

/// Runs `protocol` under `plan` twice, checks invariants and rerun
/// determinism, and returns a report row plus the first run's
/// observations for scenario-specific checks.
fn scenario(
    protocol: Protocol,
    scenario_name: &str,
    cfg: SimConfig,
    plan: &FaultPlan,
    measure: u64,
    failures: &mut Vec<String>,
    cells: &mut Vec<Json>,
) -> (Vec<String>, Observed) {
    let label = format!("{protocol}/{scenario_name}");
    let obs = run_once(protocol, cfg.clone(), Some(plan), measure);
    check_invariants(&label, &obs, measure, failures);
    let rerun = run_once(protocol, cfg, Some(plan), measure);
    let a = obs.out.stats.to_json().render();
    let b = rerun.out.stats.to_json().render();
    if a != b {
        failures.push(format!("{label}: rerun with identical plan diverged"));
    }
    if let Some(ts) = &obs.out.stats.timeseries {
        let worst = ts.windows().iter().max_by_key(|w| w.aborted_total());
        if let Some(w) = worst {
            eprintln!(
                "  {label}: {} windows; worst abort window #{} ({} aborts, {} commits)",
                ts.windows().len(),
                w.idx,
                w.aborted_total(),
                w.committed_total(),
            );
        }
    }
    cells.push(
        Json::obj()
            .field("protocol", Json::str(protocol.label()))
            .field("scenario", Json::str(scenario_name))
            .field("stats", obs.out.stats.to_json())
            .build(),
    );
    let s = &obs.out.stats;
    let row = vec![
        protocol.label().to_string(),
        scenario_name.to_string(),
        s.committed.to_string(),
        s.squashes.to_string(),
        s.faults.drops.to_string(),
        s.faults.dups.to_string(),
        (s.faults.crashes + s.faults.restarts).to_string(),
        s.recovery.timeout_retries.to_string(),
        (s.recovery.lease_expiries + s.recovery.replica_replays).to_string(),
    ];
    (row, obs)
}

/// Dup/delay/reorder pressure on the commit verbs plus a NIC stall window:
/// nothing is lost outright, everything arrives strangely.
fn mixed_chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::none()
        .with_seed(seed)
        .drop_verb(Verb::Ack, 0.02)
        .dup_verb(Verb::Intend, 0.05)
        .dup_verb(Verb::Ack, 0.05)
        .dup_verb(Verb::LockResp, 0.05)
        .dup_verb(Verb::ValidateResp, 0.05)
        .delay_verb(Verb::Validation, 0.10, Cycles::new(2_000))
        .reorder_verb(Verb::Read, 0.10, Cycles::new(1_000))
        .nic_stall(1, Cycles::new(100_000), Cycles::new(140_000))
}

fn main() {
    let quick = has_flag("--quick");
    let timeseries = has_flag("--timeseries");
    let measure: u64 = if quick { 300 } else { 500 };
    let loss_rates: &[f64] = if quick { &[0.05] } else { &[0.01, 0.05, 0.10] };
    let mut cfg = SimConfig::isca_default();
    if timeseries {
        cfg = cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut cells: Vec<Json> = Vec::new();

    // 1. Zero-fault plan must be byte-identical to no injector at all.
    for p in Protocol::ALL {
        let bare = run_once(p, cfg.clone(), None, measure);
        let zeroed = run_once(p, cfg.clone(), Some(&FaultPlan::none()), measure);
        if bare.out.stats.to_json().render() != zeroed.out.stats.to_json().render() {
            failures.push(format!("{p}/zero-plan: differs from an uninjected run"));
        }
        eprintln!("  done: {p}/zero-plan");
    }

    // 2. Message-loss sweep over the commit-handshake verbs.
    for &loss in loss_rates {
        let plan = FaultPlan::from_loss(loss, 42);
        let name = format!("loss {:.0}%", loss * 100.0);
        for p in Protocol::ALL {
            let (row, _) = scenario(
                p,
                &name,
                cfg.clone(),
                &plan,
                measure,
                &mut failures,
                &mut cells,
            );
            rows.push(row);
            eprintln!("  done: {p}/{name}");
        }
    }

    // 2b. Fault × batching composition: faults hit individual verbs even
    // when those verbs ride coalesced doorbells (DESIGN.md §14), so
    // every conservation/leak/determinism invariant must still hold.
    let batched_cfg = cfg.clone().with_batching(BatchingParams::standard());
    {
        let plan = FaultPlan::from_loss(0.05, 42);
        for p in Protocol::ALL {
            let (row, _) = scenario(
                p,
                "loss 5%+batch",
                batched_cfg.clone(),
                &plan,
                measure,
                &mut failures,
                &mut cells,
            );
            rows.push(row);
            eprintln!("  done: {p}/loss 5%+batch");
        }
    }

    // 3. Duplication / delay / reorder / NIC-stall pressure.
    if !quick {
        let plan = mixed_chaos_plan(7);
        for p in Protocol::ALL {
            let (row, _) = scenario(
                p,
                "mixed chaos",
                cfg.clone(),
                &plan,
                measure,
                &mut failures,
                &mut cells,
            );
            rows.push(row);
            eprintln!("  done: {p}/mixed chaos");
        }
        for p in Protocol::ALL {
            let (row, _) = scenario(
                p,
                "mixed chaos+batch",
                batched_cfg.clone(),
                &plan,
                measure,
                &mut failures,
                &mut cells,
            );
            rows.push(row);
            eprintln!("  done: {p}/mixed chaos+batch");
        }
    }

    // 3b. Link faults without a failure detector: a cut window holds the
    // retransmit-class verbs until the heal and drops the lossy ones, so
    // recovery is pure timeout/retry — every run must drain clean once
    // the links heal, with no membership machinery to lean on.
    {
        let nodes = cfg.shape.nodes as u16;
        let cut_from = Cycles::from_micros(60);
        let asym = {
            // Only node 1's outbound links: it hears the cluster but
            // cannot answer — the half-open gray link.
            let mut p = FaultPlan::none().with_seed(17);
            for peer in (0..nodes).filter(|&n| n != 1) {
                p = p.cut_link(1, peer, cut_from, Cycles::from_micros(90));
            }
            p
        };
        // The flap cell needs a longer run: its window stretches to
        // 160 us, and the healed-window count only closes once the run
        // outlives the window (the fastest engines drain ~300 measured
        // transactions well before that).
        let link_plans: Vec<(&str, FaultPlan, u64)> = vec![
            (
                "partition 10us",
                FaultPlan::none().with_seed(17).isolate_node(
                    1,
                    nodes,
                    cut_from,
                    Cycles::from_micros(70),
                ),
                measure,
            ),
            ("asym partition", asym, measure),
            (
                "flapping node",
                FaultPlan::none().with_seed(17).flap_node(
                    1,
                    nodes,
                    cut_from,
                    Cycles::from_micros(160),
                    Cycles::from_micros(20),
                    Cycles::from_micros(10),
                ),
                measure * 3,
            ),
        ];
        for (name, plan, cell_measure) in &link_plans {
            for p in Protocol::ALL {
                let (row, obs) = scenario(
                    p,
                    name,
                    cfg.clone(),
                    plan,
                    *cell_measure,
                    &mut failures,
                    &mut cells,
                );
                let nem = &obs.out.stats.nemesis;
                if nem.links_cut == 0 {
                    failures.push(format!("{p}/{name}: plan injected no link windows"));
                }
                if nem.links_cut != nem.links_healed {
                    failures.push(format!(
                        "{p}/{name}: {} link windows cut but {} healed",
                        nem.links_cut, nem.links_healed
                    ));
                }
                rows.push(row);
                eprintln!("  done: {p}/{name}");
            }
        }
    }

    // 4. Node crash + restart with §V-A replication (HADES engine; the
    // software engines have no crash model).
    let mut crash_cfg = SimConfig::isca_default().with_replication(1);
    if timeseries {
        crash_cfg = crash_cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    }
    let crash_plan = FaultPlan::none()
        .with_seed(11)
        .with_lease(Cycles::new(30_000))
        .crash(1, Cycles::new(60_000), Cycles::new(200_000));
    let (row, _) = scenario(
        Protocol::Hades,
        "crash node 1",
        crash_cfg,
        &crash_plan,
        measure,
        &mut failures,
        &mut cells,
    );
    let restarts: u64 = row[6].parse().unwrap_or(0);
    if restarts < 2 {
        failures.push("HADES/crash node 1: crash+restart did not both happen".to_string());
    }
    rows.push(row);
    eprintln!("  done: HADES/crash node 1");

    // 5. Crash one end of a planned live migration mid-copy (detector
    // on). The copy stream dies with the node: the plan is abandoned at
    // the declare and the run degrades into the plain crash-failover
    // path — promotion if the source died, routing untouched if the
    // destination died — instead of wedging or cutting over to a corpse.
    {
        // Stretch the copy phase (announce 40 us, 8 chunks every 20 us,
        // cutover ~210 us) so the ~80 us declare delay of the standard
        // detector lands mid-copy, before the cutover would fire.
        let mut mig = MigrationParams::standard(vec![(2, 0)]);
        mig.chunk_interval = Cycles::from_micros(20);
        // Longer than the base scenarios: the run must still be measuring
        // at the ~120 us declare even on the fastest engine, or the plan
        // (which freezes with the detector at drain) never sees the death.
        let mig_measure = measure * 4;
        for (name, victim) in [("mig src dies", 2u16), ("mig dst dies", 0u16)] {
            let mut mig_cfg = SimConfig::isca_default()
                .with_membership(MembershipParams::standard())
                .with_migration(mig.clone());
            if timeseries {
                mig_cfg = mig_cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
            }
            let plan = FaultPlan::none().crash_forever(victim, Cycles::from_micros(60));
            for p in Protocol::ALL {
                let (row, obs) = scenario(
                    p,
                    name,
                    mig_cfg.clone(),
                    &plan,
                    mig_measure,
                    &mut failures,
                    &mut cells,
                );
                let s = &obs.out.stats;
                if s.migration.partitions_moved != 0 {
                    failures.push(format!("{p}/{name}: cutover fired despite a dead endpoint"));
                }
                if victim == 2 && s.membership.promotions == 0 {
                    failures.push(format!("{p}/{name}: source death did not promote a backup"));
                }
                rows.push(row);
                eprintln!("  done: {p}/{name}");
            }
        }
    }

    // 5b. Partition (don't crash) the source of a planned live migration
    // under the quorum-gated membership profile. The node stays up but
    // unreachable: quorum declares it dead mid-copy (~180 us, before the
    // ~210 us cutover), the plan must be abandoned at the declare with a
    // backup promotion, and the stranded primary self-fences rather than
    // keep serving a partition the cluster has moved on from.
    {
        let mut mig = MigrationParams::standard(vec![(2, 0)]);
        mig.chunk_interval = Cycles::from_micros(20);
        let mig_measure = measure * 4;
        let mut pm_cfg = SimConfig::isca_default()
            .with_membership(MembershipParams::partition_safe())
            .with_migration(mig);
        if timeseries {
            pm_cfg = pm_cfg.with_timeseries(Cycles::from_micros(TS_WINDOW_US));
        }
        let plan = FaultPlan::none().with_seed(17).isolate_node(
            2,
            pm_cfg.shape.nodes as u16,
            Cycles::from_micros(60),
            Cycles::from_micros(300),
        );
        for p in Protocol::ALL {
            let (row, obs) = scenario(
                p,
                "partition+mig",
                pm_cfg.clone(),
                &plan,
                mig_measure,
                &mut failures,
                &mut cells,
            );
            let s = &obs.out.stats;
            if s.migration.partitions_moved != 0 {
                failures.push(format!(
                    "{p}/partition+mig: cutover fired at a partitioned source"
                ));
            }
            if s.membership.promotions == 0 {
                failures.push(format!(
                    "{p}/partition+mig: partitioned source was never declared dead"
                ));
            }
            rows.push(row);
            eprintln!("  done: {p}/partition+mig");
        }
    }

    print_table(
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
        &rows,
    );

    if let Some(path) = flag_value("--json") {
        let doc = Json::obj()
            .field("schema", Json::str("hades-report/v1"))
            .field("report", Json::str("chaos"))
            .field("quick", Json::Bool(quick))
            .field(
                "failures",
                Json::Arr(failures.iter().map(Json::str).collect()),
            )
            .field("cells", Json::Arr(cells))
            .build();
        write_json_report(&path, &doc);
    }

    if failures.is_empty() {
        println!("\nall invariants held: conservation, no leaks, deterministic reruns.");
    } else {
        eprintln!("\n{} invariant violation(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
