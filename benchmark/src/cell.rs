//! One cell: a single (workload, engine, seed) run in its own process.
//!
//! The cell builds the database and cluster, runs the engine to
//! completion, checks the outcome through the public state of
//! `RunOutcome`, and prints one JSON line for the parent. Host times are
//! taken here, around each library call, so the parent's process
//! management never shows in them.

use crate::counting::Counts;
use crate::spec::{self, Loaded, Money, Spec};
use crate::stats::quantile_us;
use hades::core::runner::Protocol;
use hades::core::runtime::{Cluster, RunOutcome, WorkloadSet};
use hades::core::stats::RunStats;
use hades::storage::db::Database;
use hades::telemetry::json::Json;
use hades::telemetry::profile::ProfPhase;
use hades::telemetry::sink::Tracer;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Phases whose per-commit cycles the traced pass reports. With
/// replication off (the default) they sum to the mean commit latency.
const PHASES: [ProfPhase; 5] = [
    ProfPhase::Exec,
    ProfPhase::Lock,
    ProfPhase::Validate,
    ProfPhase::Commit,
    ProfPhase::Backoff,
];

/// Runs one cell and renders its result line. `traced` turns on the
/// phase profiler, causal spans and a counting trace sink.
pub fn run(w: &Spec, p: Protocol, seed: u64, traced: bool) -> Json {
    let mut cfg = w.config(seed);
    if traced {
        cfg = cfg.with_profiling().with_spans();
    }
    let t0 = Instant::now();
    let mut db = Database::new(cfg.shape.nodes);
    let Loaded { workload, money } = w.load(&mut db);
    let load_s = t0.elapsed().as_secs_f64();
    let ws = WorkloadSet::single(workload, cfg.shape.cores_per_node);
    let t1 = Instant::now();
    let mut cl = Cluster::new(cfg, db);
    let cluster_new_s = t1.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();
    let sink = traced.then(|| Rc::new(RefCell::new(Counts::default())));
    if let Some(sink) = &sink {
        cl.install_tracer(Tracer::shared(sink.clone()));
    }
    let t2 = Instant::now();
    let out = spec::run_engine(p, cl, ws, w.warmup, w.measure);
    let run_s = t2.elapsed().as_secs_f64();

    let mut failures = check(w, &out, money);
    let s = &out.stats;
    let mut b = Json::obj()
        .field("setup_s", setup_s)
        .field("load_s", load_s)
        .field("cluster_new_s", cluster_new_s)
        .field("run_s", run_s)
        .field("rss_mb", peak_rss_mb())
        .field("commits", out.total_commits)
        .field("txn_s", s.throughput())
        .field("p50_us", quantile_us(&s.latency, 0.5))
        .field("p99_us", quantile_us(&s.latency, 0.99))
        .field("samples", s.latency.count());
    if let Some(sink) = &sink {
        let counts = *sink.borrow();
        if counts.commits != out.total_commits {
            failures.push(format!(
                "trace saw {} commits, run made {}",
                counts.commits, out.total_commits
            ));
        }
        b = b
            .field("attempts", counts.attempts)
            .field("layers", layers(&out, &counts));
    }
    b.field("sim", sim_digest(out.stats))
        .field(
            "failures",
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        )
        .build()
}

/// Output checks on the finished run.
fn check(w: &Spec, out: &RunOutcome, money: Option<Money>) -> Vec<String> {
    let mut failures = Vec::new();
    if out.stats.committed != w.measure {
        failures.push(format!(
            "committed {} of {} measured transactions",
            out.stats.committed, w.measure
        ));
    }
    // Conservation: the bank holds its initial money plus every
    // committed transaction's net delta.
    if let Some(money) = money {
        let expect = money.initial.wrapping_add_signed(out.total_sum_delta);
        let total = money.total(&out.cluster.db);
        if total != expect {
            failures.push(format!("bank holds {total}, expected {expect}"));
        }
    }
    let cl = &out.cluster;
    let leaks = [
        (
            "Locking Buffers held",
            cl.lock_bufs.iter().map(|b| b.occupied()).sum::<usize>(),
        ),
        (
            "NIC remote transactions",
            cl.nics.iter().map(|n| n.active_remote_txs()).sum(),
        ),
        (
            "speculative LLC lines",
            cl.mems.iter().map(|m| m.speculative_lines()).sum(),
        ),
        ("replica prepares", out.replica_pending_leaked as usize),
    ];
    for (what, n) in leaks {
        if n != 0 {
            failures.push(format!("{n} {what} left after the run"));
        }
    }
    failures
}

/// Simulated per-layer values of a traced run, grouped by layer, per
/// committed transaction where the name says so. Whole-run counts divide
/// by whole-run commits.
fn layers(out: &RunOutcome, c: &Counts) -> Json {
    let s = &out.stats;
    let per_txn = |n: u64| n as f64 / c.commits.max(1) as f64;
    let profile = s.profile.as_ref().expect("traced runs profile");
    let txns = profile.txns().max(1) as f64;
    let mut core = Json::obj();
    for ph in PHASES {
        let cycles = profile.phase_cycles(ph) as f64 / txns;
        core = core.field(format!("{}_cyc", ph.label()), cycles);
    }
    let core = core.field("commit_ratio", 1.0 - s.abort_rate()).build();
    let verbs = per_txn(c.verbs);
    // Unbatched, every verb rings its own doorbell.
    let (occupancy, flushes) = match &s.batching {
        Some(bt) => (bt.mean_occupancy(), per_txn(bt.flushes)),
        None => (1.0, verbs),
    };
    let net = Json::obj()
        .field("verbs_per_txn", verbs)
        .field("batch_occupancy", occupancy)
        .field("batch_flushes_per_txn", flushes)
        .build();
    let bloom = Json::obj()
        .field("probes_per_txn", per_txn(c.probes))
        .field("fp_rate", s.false_positive_rate())
        .field("lock_stalls_per_txn", per_txn(c.lock_stalls))
        .build();
    let (hits, misses) = out.cluster.mems.iter().fold((0, 0), |(h, m), mem| {
        let (mh, mm) = mem.llc_stats();
        (h + mh, m + mm)
    });
    let mem = Json::obj()
        .field(
            "llc_miss_rate",
            misses as f64 / (hits + misses).max(1) as f64,
        )
        .field("llc_eviction_squashes", s.llc_eviction_squashes)
        .build();
    let telemetry = Json::obj()
        .field("trace_events_per_txn", per_txn(c.events))
        .build();
    Json::obj()
        .field("core", core)
        .field("net", net)
        .field("bloom", bloom)
        .field("mem", mem)
        .field("telemetry", telemetry)
        .build()
}

/// A digest of every simulated statistic, with the observability blocks
/// that only traced runs carry removed, so traced and untraced runs of
/// one seed must agree on it.
fn sim_digest(mut s: RunStats) -> Json {
    s.profile = None;
    s.spans = None;
    s.timeseries = None;
    // FNV-1a over the rendered stats document.
    let hash = s
        .to_json()
        .render()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    Json::str(format!("{hash:016x}"))
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
