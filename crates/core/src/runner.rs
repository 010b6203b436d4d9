//! Experiment harness: run any protocol over any workload (or mix) and
//! cluster shape, as the paper's evaluation does.

use crate::baseline::BaselineSim;
use crate::hades::HadesSim;
use crate::hades_h::HadesHSim;
use crate::runtime::{Cluster, RunOutcome, WorkloadSet};
use hades_fault::FaultPlan;
use hades_sim::config::SimConfig;
use hades_storage::db::Database;
use hades_telemetry::sink::Tracer;
use hades_workloads::catalog::AppId;
use hades_workloads::spec::Workload;
use std::fmt;

/// The three configurations compared throughout Section VIII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// The optimized software-only protocol (SW-Impl).
    Baseline,
    /// The hybrid hardware–software protocol.
    HadesH,
    /// The hardware-only protocol.
    Hades,
}

impl Protocol {
    /// All three, in figure order.
    pub const ALL: [Protocol; 3] = [Protocol::Baseline, Protocol::HadesH, Protocol::Hades];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Baseline => "Baseline",
            Protocol::HadesH => "HADES-H",
            Protocol::Hades => "HADES",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Cluster and timing configuration.
    pub cfg: SimConfig,
    /// Dataset scale relative to the paper's sizes (see DESIGN.md §2).
    pub scale: f64,
    /// Commits discarded before measurement.
    pub warmup: u64,
    /// Commits measured.
    pub measure: u64,
}

impl Experiment {
    /// A quick configuration good for tests and smoke runs.
    pub fn quick() -> Self {
        Experiment {
            cfg: SimConfig::isca_default(),
            scale: 0.005,
            warmup: 100,
            measure: 500,
        }
    }
}

impl Protocol {
    /// Runs this engine over `ws` on `cl` until `measure` commits follow
    /// `warmup` discarded ones. The one place an engine is chosen.
    pub fn run(self, cl: Cluster, ws: WorkloadSet, warmup: u64, measure: u64) -> RunOutcome {
        match self {
            Protocol::Baseline => BaselineSim::new(cl, ws, warmup, measure).run_full(),
            Protocol::HadesH => HadesHSim::new(cl, ws, warmup, measure).run_full(),
            Protocol::Hades => HadesSim::new(cl, ws, warmup, measure).run_full(),
        }
    }
}

/// One simulation: an engine, its configuration and measurement window,
/// a loaded workload, and optionally a [`FaultPlan`] and a [`Tracer`].
/// Only what was set is installed on the cluster.
#[derive(Debug)]
pub struct Run {
    protocol: Protocol,
    cfg: SimConfig,
    db: Database,
    ws: WorkloadSet,
    warmup: u64,
    measure: u64,
    plan: Option<FaultPlan>,
    tracer: Option<Tracer>,
}

impl Run {
    /// Catalog applications at `ex`'s scale and window. More than one
    /// app becomes a core-partitioned mix (Figs 14 and 15).
    pub fn apps(protocol: Protocol, ex: &Experiment, apps: &[AppId]) -> Self {
        let mut db = Database::new(ex.cfg.shape.nodes);
        let workloads = apps.iter().map(|a| a.build(&mut db, ex.scale)).collect();
        Run::new(
            protocol,
            ex.cfg.clone(),
            db,
            workloads,
            ex.warmup,
            ex.measure,
        )
    }

    /// A workload the caller already loaded into `db`, for generators
    /// the catalog does not build (custom configs, scripted workloads)
    /// or databases prepared between load and run.
    pub fn loaded(
        protocol: Protocol,
        cfg: SimConfig,
        db: Database,
        workload: Box<dyn Workload>,
        warmup: u64,
        measure: u64,
    ) -> Self {
        Run::new(protocol, cfg, db, vec![workload], warmup, measure)
    }

    fn new(
        protocol: Protocol,
        cfg: SimConfig,
        db: Database,
        workloads: Vec<Box<dyn Workload>>,
        warmup: u64,
        measure: u64,
    ) -> Self {
        let ws = WorkloadSet::mix(workloads, cfg.shape.cores_per_node);
        Run {
            protocol,
            cfg,
            db,
            ws,
            warmup,
            measure,
            plan: None,
            tracer: None,
        }
    }

    /// Injects every drop, duplication, delay, crash and link fault
    /// `plan` describes; the stats carry the fault/recovery breakdown.
    /// `None` leaves the fabric's default injector in place.
    pub fn plan(mut self, plan: impl Into<Option<FaultPlan>>) -> Self {
        self.plan = plan.into();
        self
    }

    /// Installs `tracer` across the whole cluster: the run emits the full
    /// event taxonomy (transaction lifecycle, NIC verbs, Bloom filter
    /// activity, Locking Buffer grants/stalls).
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the cluster and runs the simulation to completion.
    pub fn run(self) -> RunOutcome {
        let mut cl = Cluster::new(self.cfg, self.db);
        if let Some(tracer) = self.tracer {
            cl.install_tracer(tracer);
        }
        if let Some(plan) = self.plan {
            cl.install_fault_plan(plan);
        }
        self.protocol.run(cl, self.ws, self.warmup, self.measure)
    }
}

/// Geometric mean of positive values (used for "average speedup" rows).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (sum / values.len() as f64).exp()
}
