//! Nemesis harness: partition and gray-failure sweep (DESIGN.md §16).
//!
//! Sweeps partition shape × duration × protocol engine with the
//! partition-safe membership profile on (quorum-gated death
//! declarations, self-fencing, 2× suspicion-to-death grace) and
//! heal-and-verify at the drain. Every cell must pass the shared sweep
//! checks (`hades_bench::sweep`): exactly the requested measured
//! commits, money conserved, a gapless per-record commit history across
//! partition and heal (no committed write lost or applied twice),
//! nothing leaked, and a byte-identical rerun. It must also:
//!
//! * never finalize a commit on a node the configuration had declared
//!   dead (`commits_while_dead == 0` — no dual-primary commit),
//! * heal every link window it cut (`links_cut == links_healed`), and
//! * recover commit throughput at the drain: the healed cluster's last
//!   complete time-series windows must reach at least half the
//!   fault-free control's per-window commit rate.
//!
//! Long cells additionally require the full death-and-rejoin arc: the
//! stranded node is suspected, quorum-declared dead, and readmitted
//! under a fresh epoch once its renewals land again. A plan with no
//! link faults and partition-safe mode off must be byte-identical to a
//! run with no injector installed at all.
//!
//! Run: `cargo run --release -p hades-bench --bin nemesis` (`--quick`
//! for the CI smoke subset, `--json <path>` for a machine-readable
//! report under `results/`).

use hades_bench::sweep::{Load, Scenario, Sweep};
use hades_core::runner::Protocol;
use hades_core::stats::RunStats;
use hades_fault::FaultPlan;
use hades_sim::config::{ClusterShape, MembershipParams, SimConfig};
use hades_sim::time::Cycles;
use hades_telemetry::timeseries::WindowStats;
use std::collections::HashMap;

const BANK: Load = Load::bank(800, Some((16, 0.5)));

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

/// The complete time-series windows (the final, possibly partial,
/// window is excluded); `None` when fewer than two windows exist.
fn complete_windows(s: &RunStats) -> Option<&[WindowStats]> {
    let w = s.timeseries.as_ref()?.windows();
    (w.len() >= 2).then(|| &w[..w.len() - 1])
}

/// Mean committed transactions per complete time-series window.
fn mean_commit_rate(s: &RunStats) -> Option<f64> {
    let complete = complete_windows(s)?;
    let sum: u64 = complete.iter().map(|x| x.committed_total()).sum();
    Some(sum as f64 / complete.len() as f64)
}

/// The best committed-per-window count among complete windows starting
/// at or after `heal` — the healed cluster's recovered throughput.
/// `None` when the run ended before any post-heal window completed.
fn post_heal_peak(s: &RunStats, heal: Cycles) -> Option<u64> {
    let window = Cycles::from_micros(TS_WINDOW_US).get();
    complete_windows(s)?
        .iter()
        .filter(|x| x.idx * window >= heal.get())
        .map(|x| x.committed_total())
        .max()
}

/// Records one faulted cell's report cell and table row.
fn record(sweep: &mut Sweep, p: Protocol, name: &str, s: &RunStats) {
    sweep.scenario_cell(p, name, s);
    let nem = &s.nemesis;
    sweep.rows.push(vec![
        p.label().to_string(),
        name.to_string(),
        s.committed.to_string(),
        s.squashes.to_string(),
        format!("{}/{}", nem.links_cut, nem.links_healed),
        nem.suspicions.to_string(),
        nem.quorum_losses.to_string(),
        nem.self_fences.to_string(),
        nem.rejoins.to_string(),
        nem.commits_while_dead.to_string(),
    ]);
}

fn main() {
    let mut sweep = Sweep::new(Some("nemesis"));
    let quick = sweep.quick;
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
    let bank =
        |name: &str, cfg: &SimConfig, measure| Scenario::new(name, cfg.clone(), BANK, measure);
    let t0 = Cycles::from_micros(60);
    // Short: over before anyone is even suspected. Long: runs the full
    // suspect -> quorum death -> heal -> rejoin arc.
    let durations: &[(&str, Cycles, u64)] = &[
        ("short", Cycles::from_micros(10), short_measure),
        ("long", Cycles::from_micros(200), long_measure),
    ];

    // 1. Off-mode identity: a plan with no link faults, under a config
    // with partition-safe mode off, must be byte-identical to a run
    // with no injector at all.
    let off_cfg = SimConfig::isca_default()
        .with_shape(SHAPE)
        .with_membership(MembershipParams::standard());
    let bare = bank("no injector", &off_cfg, short_measure);
    let zeroed = bank("zero plan", &off_cfg, short_measure).plan(FaultPlan::none());
    for p in Protocol::ALL {
        let label = format!("{p}/off-mode");
        let bare = sweep.same_bytes(&label, p, &bare, &zeroed);
        if !bare.out.stats.nemesis.is_zero() {
            let msg = format!("{label}: nemesis stats accumulated while off");
            sweep.failures.push(msg);
        }
    }

    // 2. Fault-free controls under the partition-safe profile: the
    // parity baseline for every cell sharing the measure count.
    let mut control_rate: HashMap<(Protocol, u64), f64> = HashMap::new();
    for p in Protocol::ALL {
        for measure in [short_measure, long_measure] {
            let sc = bank("control", &cfg, measure);
            let label = format!("{p}/control({measure})");
            let control = sweep.check(&label, p, &sc, |_, _| {});
            if let Some(rate) = mean_commit_rate(&control.out.stats) {
                control_rate.insert((p, measure), rate);
            }
        }
    }

    // 3. The sweep: shape x duration x engine, heal-and-verify at drain.
    for shape in Shape::ALL {
        for &(dur_name, dur, measure) in durations {
            let name = format!("{} {dur_name}", shape.label());
            let sc = bank(&name, &cfg, measure).plan(shape.plan(t0, t0 + dur));
            for p in Protocol::ALL {
                let control = control_rate.get(&(p, measure)).copied();
                let trial = sweep.check(&format!("{p}/{name}"), p, &sc, |s, bad| {
                    let nem = &s.nemesis;
                    if nem.links_cut == 0 {
                        bad.push("plan injected no link windows".to_string());
                    }
                    // Long strandings must run the full arc: suspicion,
                    // quorum-backed death, epoch-bumped rejoin after the
                    // heal. Self-fence refusals only show on cells whose
                    // slots keep cycling through commit entry during the
                    // stranding: symmetric/asymmetric holds freeze the
                    // victim's slots in Exec (their reads wait out the
                    // cut), while flapping up-phases let them run into
                    // the fence.
                    if dur_name == "long" {
                        if nem.suspicions == 0 {
                            bad.push("stranded node was never suspected".to_string());
                        }
                        if shape != Shape::Flapping && nem.rejoins == 0 {
                            bad.push("no rejoin after the heal".to_string());
                        }
                        if shape == Shape::Flapping && nem.self_fences == 0 {
                            bad.push("flapping node never self-fenced".to_string());
                        }
                    }
                    // Post-heal throughput parity vs the fault-free
                    // control: some complete window after the heal must
                    // reach at least half the control's mean per-window
                    // commit rate.
                    match (post_heal_peak(s, t0 + dur), control) {
                        (Some(peak), Some(control)) if (peak as f64) * 2.0 < control => {
                            bad.push(format!(
                                "post-heal peak {peak}/window never recovered \
                                 (control mean {control:.1}/window)"
                            ));
                        }
                        (None, Some(_)) => {
                            bad.push("run ended before any post-heal window completed".to_string())
                        }
                        _ => {}
                    }
                });
                record(&mut sweep, p, &name, &trial.out.stats);
            }
        }
    }

    // 4. Even split: a 2|2 partition leaves nobody with a majority, so
    // the quorum gate must freeze every death declaration — no epoch
    // moves, both sides self-fence once their leases lapse, and the
    // whole cluster resumes at the heal with zero reconfigurations.
    let split = FaultPlan::none().with_seed(17).partition(
        &[0, 1],
        &[2, 3],
        t0,
        t0 + Cycles::from_micros(200),
    );
    let sc = bank("split 2|2", &cfg, long_measure).plan(split);
    for p in Protocol::ALL {
        let trial = sweep.check(&format!("{p}/split 2|2"), p, &sc, |s, bad| {
            if s.nemesis.quorum_losses == 0 {
                bad.push("no quorum freeze in an even split".to_string());
            }
            if s.membership.epoch_changes != 0 {
                let n = s.membership.epoch_changes;
                bad.push(format!("{n} epoch change(s) without a quorum"));
            }
            if s.nemesis.rejoins != 0 {
                bad.push("rejoin without a death".to_string());
            }
        });
        record(&mut sweep, p, &sc.name, &trial.out.stats);
    }

    sweep.table(
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
    );
    sweep.finish();
    println!(
        "\nall invariants held: conservation, no dual-primary commits, \
         gapless histories, healed links, deterministic reruns."
    );
}
