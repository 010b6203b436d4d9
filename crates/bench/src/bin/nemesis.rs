//! Nemesis harness: partition and gray-failure sweep (DESIGN.md §16).
//!
//! Sweeps partition shape × duration × protocol engine with the
//! partition-safe membership profile on (quorum-gated death
//! declarations, self-fencing, 2× suspicion-to-death grace) and
//! heal-and-verify at the drain. For every cell the run must:
//!
//! * finish and commit exactly the requested measured transactions,
//! * conserve Smallbank money (committed RMW deltas applied exactly once),
//! * leak no record locks, Locking Buffers, or NIC remote-tx filters,
//! * never finalize a commit on a node the configuration had declared
//!   dead (`commits_while_dead == 0` — no dual-primary commit),
//! * keep every record's commit history gapless across partition and
//!   heal (no committed write lost or applied twice),
//! * heal every link window it cut (`links_cut == links_healed`),
//! * recover commit throughput at the drain: the healed cluster's last
//!   complete time-series windows must reach at least half the
//!   fault-free control's per-window commit rate, and
//! * be deterministic: rerunning the identical config + seed + plan
//!   reproduces byte-identical stats JSON.
//!
//! Long cells additionally require the full death-and-rejoin arc: the
//! stranded node is suspected, quorum-declared dead, and readmitted
//! under a fresh epoch once its renewals land again. A plan with no
//! link faults and the quorum/self-fence knobs off must be
//! byte-identical to a run with no injector installed at all.
//!
//! Run: `cargo run --release -p hades-bench --bin nemesis` (`--quick`
//! for the CI smoke subset, `--json <path>` for a machine-readable
//! report under `results/`).

use hades_bench::{flag_value, has_flag, print_table, write_json_report};
use hades_core::runner::{Protocol, Run};
use hades_core::runtime::RunOutcome;
use hades_fault::FaultPlan;
use hades_sim::config::{ClusterShape, MembershipParams, SimConfig};
use hades_sim::time::Cycles;
use hades_storage::db::Database;
use hades_storage::RecordId;
use hades_telemetry::json::Json;
use hades_workloads::smallbank::{Smallbank, SmallbankConfig, OFF_BALANCE};
use std::collections::HashMap;

const ACCOUNTS: u64 = 800;

/// 4 nodes: majority = 3, so isolating one node leaves a live quorum,
/// and the quorum arithmetic in the cells below is easy to audit.
const SHAPE: ClusterShape = ClusterShape {
    nodes: 4,
    cores_per_node: 4,
    slots_per_core: 2,
};

/// The node every shape strands. Not node 0 so promotion targets both
/// ring directions.
const VICTIM: u16 = 3;

/// Time-series window: long cells span 400+ us of sim time, so 20 us
/// yields 20+ windows and a meaningful post-heal tail.
const TS_WINDOW_US: u64 = 20;

/// Partition shapes the sweep crosses with durations and engines.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// Both directions of every victim link cut: a clean split.
    Symmetric,
    /// Only the victim's outbound links cut: it hears the cluster but
    /// cannot reach it — the classic gray half-open link.
    Asymmetric,
    /// Every victim link flaps with a 50% duty cycle: intermittent
    /// connectivity, renewals land only when an up-phase aligns.
    Flapping,
}

impl Shape {
    const ALL: [Shape; 3] = [Shape::Symmetric, Shape::Asymmetric, Shape::Flapping];

    fn label(&self) -> &'static str {
        match self {
            Shape::Symmetric => "sym",
            Shape::Asymmetric => "asym",
            Shape::Flapping => "flap",
        }
    }

    /// Builds the link-fault plan stranding [`VICTIM`] for
    /// `[from, until)`.
    fn plan(&self, from: Cycles, until: Cycles) -> FaultPlan {
        let base = FaultPlan::none().with_seed(17);
        match self {
            Shape::Symmetric => base.isolate_node(VICTIM, SHAPE.nodes as u16, from, until),
            Shape::Asymmetric => {
                let mut p = base;
                for peer in (0..SHAPE.nodes as u16).filter(|&n| n != VICTIM) {
                    p = p.cut_link(VICTIM, peer, from, until);
                }
                p
            }
            Shape::Flapping => base.flap_node(
                VICTIM,
                SHAPE.nodes as u16,
                from,
                until,
                Cycles::from_micros(20),
                Cycles::from_micros(10),
            ),
        }
    }
}

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
    db.enable_commit_history();
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

/// Mean committed transactions per complete time-series window (the
/// final, possibly partial, window is excluded). `None` when fewer than
/// two windows exist.
fn mean_commit_rate(obs: &Observed) -> Option<f64> {
    let ts = obs.out.stats.timeseries.as_ref()?;
    let w = ts.windows();
    if w.len() < 2 {
        return None;
    }
    let complete = &w[..w.len() - 1];
    let sum: u64 = complete.iter().map(|x| x.committed_total()).sum();
    Some(sum as f64 / complete.len() as f64)
}

/// The best committed-per-window count among complete windows starting
/// at or after `heal` — the healed cluster's recovered throughput.
/// `None` when the run ended before any post-heal window completed.
fn post_heal_peak(obs: &Observed, heal: Cycles) -> Option<u64> {
    let ts = obs.out.stats.timeseries.as_ref()?;
    let w = ts.windows();
    if w.len() < 2 {
        return None;
    }
    let window = Cycles::from_micros(TS_WINDOW_US).get();
    w[..w.len() - 1]
        .iter()
        .filter(|x| x.idx * window >= heal.get())
        .map(|x| x.committed_total())
        .max()
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
    let nem = &stats.nemesis;
    if nem.commits_while_dead != 0 {
        failures.push(format!(
            "{label}: {} commit(s) finalized on an excommunicated node (dual primary)",
            nem.commits_while_dead
        ));
    }
    if nem.links_cut != nem.links_healed {
        failures.push(format!(
            "{label}: {} link windows cut but {} healed",
            nem.links_cut, nem.links_healed
        ));
    }
    // Per-record commit history: sequences 1, 2, 3, ... per record — a
    // gap is a committed write lost across the partition, a repeat is a
    // write applied twice by dueling primaries.
    let db = &obs.out.cluster.db;
    let hist = db.commit_history();
    if hist.is_empty() {
        failures.push(format!("{label}: no committed writes recorded"));
    }
    let mut seen: HashMap<RecordId, u64> = HashMap::new();
    for e in hist {
        let prev = seen.insert(e.rid, e.seq);
        if e.seq != prev.unwrap_or(0) + 1 {
            failures.push(format!(
                "{label}: {:?} version order broken across heal (prev {prev:?}, got {})",
                e.rid, e.seq
            ));
            break;
        }
    }
    let mut last_value: HashMap<RecordId, u64> = HashMap::new();
    for e in hist {
        last_value.insert(e.rid, e.value_after);
    }
    for (rid, v) in last_value {
        if db.record(rid).read_u64(OFF_BALANCE as usize) != v {
            failures.push(format!(
                "{label}: {rid:?} final value diverges from the history log"
            ));
            break;
        }
    }
}

fn main() {
    let quick = has_flag("--quick");
    // Every cell must still be measuring when its partition heals (70 us
    // for short cells, ~260 us for long), even on the fastest engine:
    // the drain stops lease renewals, so a run that finishes early
    // freezes the membership layer before the rejoin arc completes, and
    // the post-heal parity check needs at least one complete window
    // after the heal.
    let short_measure: u64 = if quick { 600 } else { 800 };
    let long_measure: u64 = if quick { 1200 } else { 1800 };
    // The membership profile under test: quorum gating, self-fencing,
    // 2x grace (suspect at 60 us staleness, death at 120 us).
    let cfg = SimConfig::isca_default()
        .with_shape(SHAPE)
        .with_membership(MembershipParams::partition_safe())
        .with_timeseries(Cycles::from_micros(TS_WINDOW_US));
    let t0 = Cycles::from_micros(60);
    // Short: over before anyone is even suspected. Long: runs the full
    // suspect -> quorum death -> heal -> rejoin arc.
    let durations: &[(&str, Cycles, u64)] = &[
        ("short", Cycles::from_micros(10), short_measure),
        ("long", Cycles::from_micros(200), long_measure),
    ];
    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut cells: Vec<Json> = Vec::new();

    // 1. Off-mode identity: a plan with no link faults, under a config
    // with quorum and self-fencing off, must be byte-identical to a run
    // with no injector at all.
    let off_cfg = SimConfig::isca_default()
        .with_shape(SHAPE)
        .with_membership(MembershipParams::standard());
    for p in Protocol::ALL {
        let bare = run_once(p, off_cfg.clone(), None, short_measure);
        let zeroed = run_once(p, off_cfg.clone(), Some(&FaultPlan::none()), short_measure);
        if bare.out.stats.to_json().render() != zeroed.out.stats.to_json().render() {
            failures.push(format!("{p}/off-mode: differs from an uninjected run"));
        }
        if !bare.out.stats.nemesis.is_zero() {
            failures.push(format!("{p}/off-mode: nemesis stats accumulated while off"));
        }
        eprintln!("  done: {p}/off-mode");
    }

    // 2. Fault-free controls under the partition-safe profile: the
    // parity baseline for every cell sharing the measure count.
    let mut control_rate: HashMap<(&str, u64), f64> = HashMap::new();
    for p in Protocol::ALL {
        for &measure in &[short_measure, long_measure] {
            let control = run_once(p, cfg.clone(), None, measure);
            check_invariants(
                &format!("{p}/control({measure})"),
                &control,
                measure,
                &mut failures,
            );
            if let Some(rate) = mean_commit_rate(&control) {
                control_rate.insert((p.label(), measure), rate);
            }
        }
        eprintln!("  done: {p}/controls");
    }

    // 3. The sweep: shape x duration x engine, heal-and-verify at drain.
    for shape in Shape::ALL {
        for &(dur_name, dur, measure) in durations {
            let plan = shape.plan(t0, t0 + dur);
            let name = format!("{} {dur_name}", shape.label());
            for p in Protocol::ALL {
                let label = format!("{p}/{name}");
                let obs = run_once(p, cfg.clone(), Some(&plan), measure);
                check_invariants(&label, &obs, measure, &mut failures);
                let rerun = run_once(p, cfg.clone(), Some(&plan), measure);
                if obs.out.stats.to_json().render() != rerun.out.stats.to_json().render() {
                    failures.push(format!("{label}: rerun with identical plan diverged"));
                }
                let s = &obs.out.stats;
                let nem = &s.nemesis;
                if nem.links_cut == 0 {
                    failures.push(format!("{label}: plan injected no link windows"));
                }
                // Long strandings must run the full arc: suspicion,
                // quorum-backed death, epoch-bumped rejoin after the
                // heal. Self-fence refusals only show on cells whose
                // slots keep cycling through commit entry during the
                // stranding: symmetric/asymmetric holds freeze the
                // victim's slots in Exec (their reads wait out the cut),
                // while flapping up-phases let them run into the fence.
                if dur_name == "long" {
                    if nem.suspicions == 0 {
                        failures.push(format!("{label}: stranded node was never suspected"));
                    }
                    if shape != Shape::Flapping && nem.rejoins == 0 {
                        failures.push(format!("{label}: no rejoin after the heal"));
                    }
                    if shape == Shape::Flapping && nem.self_fences == 0 {
                        failures.push(format!("{label}: flapping node never self-fenced"));
                    }
                }
                // Post-heal throughput parity vs the fault-free control:
                // some complete window after the heal must reach at
                // least half the control's mean per-window commit rate.
                match (
                    post_heal_peak(&obs, t0 + dur),
                    control_rate.get(&(p.label(), measure)),
                ) {
                    (Some(peak), Some(&control)) if (peak as f64) * 2.0 < control => {
                        failures.push(format!(
                            "{label}: post-heal peak {peak}/window never recovered \
                             (control mean {control:.1}/window)"
                        ));
                    }
                    (None, Some(_)) => {
                        failures.push(format!(
                            "{label}: run ended before any post-heal window completed"
                        ));
                    }
                    _ => {}
                }
                cells.push(
                    Json::obj()
                        .field("protocol", Json::str(p.label()))
                        .field("scenario", Json::str(&name))
                        .field("stats", obs.out.stats.to_json())
                        .build(),
                );
                rows.push(vec![
                    p.label().to_string(),
                    name.clone(),
                    s.committed.to_string(),
                    s.squashes.to_string(),
                    format!("{}/{}", nem.links_cut, nem.links_healed),
                    nem.suspicions.to_string(),
                    nem.quorum_losses.to_string(),
                    nem.self_fences.to_string(),
                    nem.rejoins.to_string(),
                    nem.commits_while_dead.to_string(),
                ]);
                eprintln!("  done: {label}");
            }
        }
    }

    // 4. Even split: a 2|2 partition leaves nobody with a majority, so
    // the quorum gate must freeze every death declaration — no epoch
    // moves, both sides self-fence once their leases lapse, and the
    // whole cluster resumes at the heal with zero reconfigurations.
    {
        let dur = Cycles::from_micros(200);
        let plan = FaultPlan::none()
            .with_seed(17)
            .partition(&[0, 1], &[2, 3], t0, t0 + dur);
        for p in Protocol::ALL {
            let label = format!("{p}/split 2|2");
            let obs = run_once(p, cfg.clone(), Some(&plan), long_measure);
            check_invariants(&label, &obs, long_measure, &mut failures);
            let rerun = run_once(p, cfg.clone(), Some(&plan), long_measure);
            if obs.out.stats.to_json().render() != rerun.out.stats.to_json().render() {
                failures.push(format!("{label}: rerun with identical plan diverged"));
            }
            let s = &obs.out.stats;
            let nem = &s.nemesis;
            if nem.quorum_losses == 0 {
                failures.push(format!("{label}: no quorum freeze in an even split"));
            }
            if s.membership.epoch_changes != 0 {
                failures.push(format!(
                    "{label}: {} epoch change(s) without a quorum",
                    s.membership.epoch_changes
                ));
            }
            if nem.rejoins != 0 {
                failures.push(format!("{label}: rejoin without a death"));
            }
            cells.push(
                Json::obj()
                    .field("protocol", Json::str(p.label()))
                    .field("scenario", Json::str("split 2|2"))
                    .field("stats", obs.out.stats.to_json())
                    .build(),
            );
            rows.push(vec![
                p.label().to_string(),
                "split 2|2".to_string(),
                s.committed.to_string(),
                s.squashes.to_string(),
                format!("{}/{}", nem.links_cut, nem.links_healed),
                nem.suspicions.to_string(),
                nem.quorum_losses.to_string(),
                nem.self_fences.to_string(),
                nem.rejoins.to_string(),
                nem.commits_while_dead.to_string(),
            ]);
            eprintln!("  done: {label}");
        }
    }

    print_table(
        "nemesis sweep (Smallbank, partition-safe membership)",
        &[
            "protocol",
            "scenario",
            "committed",
            "squashes",
            "cut/healed",
            "suspicions",
            "quorum-frozen",
            "self-fences",
            "rejoins",
            "dead-commits",
        ],
        &rows,
    );

    if let Some(path) = flag_value("--json") {
        let doc = Json::obj()
            .field("schema", Json::str("hades-report/v1"))
            .field("report", Json::str("nemesis"))
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
        println!(
            "\nall invariants held: conservation, no dual-primary commits, \
             gapless histories, healed links, deterministic reruns."
        );
    } else {
        eprintln!("\n{} invariant violation(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
