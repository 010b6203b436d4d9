//! Cross-protocol shape tests: the qualitative results the paper's
//! evaluation rests on must hold in the reproduction at small scale.

use hades::core::runner::{Experiment, Protocol, Run};
use hades::sim::config::{ClusterShape, SimConfig};
use hades::sim::time::Cycles;
use hades::workloads::catalog::{parse_mix, AppId};

fn throughput(p: Protocol, app: AppId, ex: &Experiment) -> f64 {
    Run::apps(p, ex, &[app]).run().stats.throughput()
}

fn quick() -> Experiment {
    Experiment {
        cfg: SimConfig::isca_default(),
        scale: 0.005,
        warmup: 50,
        measure: 400,
    }
}

#[test]
fn hades_beats_baseline_on_every_app_class() {
    // Fig 9's headline: HADES > Baseline on write-heavy, read-heavy and
    // OLTP workloads alike.
    let ex = quick();
    for app in ["TPC-C", "Smallbank", "HT-wA", "HT-wB"] {
        let a = AppId::parse(app).unwrap();
        let base = throughput(Protocol::Baseline, a, &ex);
        let hades = throughput(Protocol::Hades, a, &ex);
        assert!(
            hades > base * 1.2,
            "{app}: HADES {hades:.0} should clearly beat Baseline {base:.0}"
        );
    }
}

#[test]
fn hades_h_sits_between_baseline_and_hades_on_write_heavy() {
    let ex = quick();
    let a = AppId::parse("BTree-wA").unwrap();
    let base = throughput(Protocol::Baseline, a, &ex);
    let hybrid = throughput(Protocol::HadesH, a, &ex);
    let hades = throughput(Protocol::Hades, a, &ex);
    assert!(hybrid > base, "HADES-H {hybrid:.0} <= Baseline {base:.0}");
    assert!(
        hades > hybrid * 0.9,
        "HADES {hades:.0} unexpectedly below HADES-H {hybrid:.0}"
    );
}

#[test]
fn faster_network_grows_hades_relative_speedup() {
    // Fig 12a: at 1 us the software overheads dominate even more.
    let app = AppId::parse("HT-wA").unwrap();
    let speedup_at = |rt_us: u64| {
        let mut ex = quick();
        ex.cfg = ex.cfg.with_net_rt(Cycles::from_micros(rt_us));
        let base = throughput(Protocol::Baseline, app, &ex);
        let hades = throughput(Protocol::Hades, app, &ex);
        hades / base
    };
    let fast = speedup_at(1);
    let slow = speedup_at(3);
    assert!(
        fast > slow * 0.95,
        "speedup should not shrink on faster networks: 1us {fast:.2} vs 3us {slow:.2}"
    );
}

#[test]
fn locality_helps_hades_more_than_hades_h() {
    // Fig 12b: HADES-H's local path is software, so its speedup falls as
    // locality rises.
    let app = AppId::parse("Smallbank").unwrap();
    let ratios_at = |local: f64| {
        let mut ex = quick();
        ex.cfg = ex.cfg.with_local_fraction(local);
        let base = throughput(Protocol::Baseline, app, &ex);
        let hh = throughput(Protocol::HadesH, app, &ex);
        let h = throughput(Protocol::Hades, app, &ex);
        (hh / base, h / base)
    };
    let (hh_low, h_low) = ratios_at(0.2);
    let (hh_high, h_high) = ratios_at(0.8);
    // HADES keeps (or grows) its advantage with locality; HADES-H loses
    // ground relative to HADES.
    assert!(
        h_high / hh_high > h_low / hh_low * 0.95,
        "HADES/HADES-H gap should widen with locality: low {:.2} high {:.2}",
        h_low / hh_low,
        h_high / hh_high
    );
}

#[test]
fn speedups_persist_on_larger_cluster() {
    // Fig 13: N=10 keeps the Fig 9 advantage.
    let mut ex = quick();
    ex.cfg = ex.cfg.with_shape(ClusterShape::N10_C5);
    let a = AppId::parse("Map-wA").unwrap();
    let base = throughput(Protocol::Baseline, a, &ex);
    let hades = throughput(Protocol::Hades, a, &ex);
    assert!(hades > base * 1.2, "N=10: {hades:.0} vs {base:.0}");
}

#[test]
fn table_v_mix_runs_on_200_cores() {
    // Fig 15 smoke: one Table V mix on the N=8 x C=25 machine.
    let mut ex = quick();
    ex.cfg = ex.cfg.with_shape(ClusterShape::N8_C25);
    ex.measure = 800;
    let apps = parse_mix(&["HT-wA", "BTree-wA", "Map-wA", "TATP"]);
    let stats = Run::apps(Protocol::Hades, &ex, &apps).run().stats;
    assert_eq!(stats.committed, 800);
    assert_eq!(stats.committed_per_app.len(), 4);
    for (i, &c) in stats.committed_per_app.iter().enumerate() {
        assert!(c > 0, "app {i} starved in the mix");
    }
    assert_eq!(stats.committed_per_app.iter().sum::<u64>(), stats.committed);
}

#[test]
fn hades_has_no_commit_phase_and_baseline_does() {
    let ex = quick();
    let a = AppId::parse("HT-wA").unwrap();
    let base = Run::apps(Protocol::Baseline, &ex, &[a]).run().stats;
    let hades = Run::apps(Protocol::Hades, &ex, &[a]).run().stats;
    let hybrid = Run::apps(Protocol::HadesH, &ex, &[a]).run().stats;
    assert!(base.phases.commit > 0, "Baseline has a commit phase");
    assert_eq!(hades.phases.commit, 0, "HADES folds commit into validation");
    assert_eq!(
        hybrid.phases.commit, 0,
        "HADES-H folds commit into validation"
    );
}

#[test]
fn determinism_same_seed_same_results() {
    let ex = quick();
    let a = AppId::parse("TATP").unwrap();
    let s1 = Run::apps(Protocol::Hades, &ex, &[a]).run().stats;
    let s2 = Run::apps(Protocol::Hades, &ex, &[a]).run().stats;
    assert_eq!(s1.committed, s2.committed);
    assert_eq!(s1.squashes, s2.squashes);
    assert_eq!(s1.elapsed, s2.elapsed);
    assert_eq!(s1.messages, s2.messages);
}

#[test]
fn different_seeds_differ() {
    let mut ex = quick();
    let a = AppId::parse("TATP").unwrap();
    let s1 = Run::apps(Protocol::Hades, &ex, &[a]).run().stats;
    ex.cfg = ex.cfg.with_seed(0xDEADBEEF);
    let s2 = Run::apps(Protocol::Hades, &ex, &[a]).run().stats;
    assert_ne!(
        (s1.elapsed, s1.messages),
        (s2.elapsed, s2.messages),
        "different seeds should perturb the run"
    );
}
