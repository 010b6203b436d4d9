//! The parent process: rounds of child cells under a watchdog, the
//! repetition checks, and the report.

use crate::metrics;
use crate::spec::{engine_key, Spec};
use crate::stats::{median, quartiles};
use hades::core::runner::Protocol;
use hades::telemetry::json::Json;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Untraced rounds run however short `--seconds` is, so every host value
/// has at least this many repetitions behind it. The traced pass reports
/// no bounded metric, so one round will do there.
const MIN_ROUNDS: usize = 3;

/// Host time a single cell may take before the watchdog kills it.
/// Healthy cells take under 5 s.
const CELL_BUDGET: Duration = Duration::from_secs(45);

/// Runs this binary as a child with `extra` arguments under the
/// watchdog, and parses the last line it prints. A cell that reports
/// failed checks counts as failed too.
fn child(w: &Spec, seed: u64, extra: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut c = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match c.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > CELL_BUDGET => {
                // Kill and reap; the cell is recorded as failed.
                let _ = c.kill();
                let _ = c.wait();
                return Err(format!("killed after {CELL_BUDGET:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let mut text = String::new();
    c.stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut text)
        .map_err(|e| format!("read result: {e}"))?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    let line = text.lines().last().ok_or("printed no result")?;
    let j = Json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
    let failures: Vec<&str> = j
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    if failures.is_empty() {
        Ok(j)
    } else {
        Err(failures.join("; "))
    }
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("result lacks {key}"))
}

fn members(j: Option<&Json>) -> &[(String, Json)] {
    match j {
        Some(Json::Obj(m)) => m,
        _ => &[],
    }
}

/// Everything the rounds produced.
#[derive(Default)]
struct Runs {
    rounds: usize,
    /// Per engine, untraced and traced cell results in round order.
    plain: BTreeMap<&'static str, Vec<Json>>,
    traced: BTreeMap<&'static str, Vec<Json>>,
    /// Per round in which every engine ran: set-up, load and
    /// `Cluster::new` seconds summed over the engines.
    setups: Vec<[f64; 3]>,
    replay: Option<Json>,
    failures: Vec<String>,
    /// Transactions planned in the cells run, and in those that failed.
    attempted: u64,
    failed: u64,
}

/// Runs rounds of one cell per engine (plus a traced cell each with
/// `trace`) until `seconds` is spent.
fn run_rounds(w: &Spec, seed: u64, seconds: f64, trace: bool) -> Runs {
    let started = Instant::now();
    let mut r = Runs::default();
    if trace {
        match child(w, seed, &["--replay"]) {
            Ok(j) => r.replay = Some(j),
            Err(why) => r.failures.push(format!("replay: {why}")),
        }
    }
    let mut dead: Vec<Protocol> = Vec::new();
    let min_rounds = if trace { 1 } else { MIN_ROUNDS };
    loop {
        let mut sums = Some([0.0; 3]);
        // Rotate the engine order so no engine always runs first.
        for k in 0..Protocol::ALL.len() {
            let p = Protocol::ALL[(k + r.rounds) % Protocol::ALL.len()];
            if dead.contains(&p) {
                sums = None;
                continue;
            }
            let e = engine_key(p);
            let passes: &[bool] = if trace { &[false, true] } else { &[false] };
            for &traced in passes {
                let mut extra = vec!["--cell", e];
                if traced {
                    extra.push("--traced");
                }
                r.attempted += w.txns();
                match child(w, seed, &extra) {
                    Ok(j) if traced => r.traced.entry(e).or_default().push(j),
                    Ok(j) => {
                        if let Some(s) = sums.as_mut() {
                            s[0] += num(&j, "setup_s");
                            s[1] += num(&j, "load_s");
                            s[2] += num(&j, "cluster_new_s");
                        }
                        r.plain.entry(e).or_default().push(j);
                    }
                    Err(why) => {
                        let pass = if traced { "traced" } else { "untraced" };
                        let msg = format!("{e} {pass} cell, round {}: {why}", r.rounds);
                        eprintln!("{}: {msg}", w.name);
                        r.failures.push(msg);
                        r.failed += w.txns();
                        dead.push(p);
                        sums = None;
                        break;
                    }
                }
            }
        }
        r.setups.extend(sums);
        r.rounds += 1;
        let spent = started.elapsed().as_secs_f64();
        let next = spent + spent / r.rounds as f64;
        if dead.len() == Protocol::ALL.len() || (r.rounds >= min_rounds && next > seconds) {
            break;
        }
    }
    // Simulated results must repeat bit for bit, traced or not.
    for p in Protocol::ALL {
        let e = engine_key(p);
        let cells = r.plain.get(e).into_iter().chain(r.traced.get(e)).flatten();
        let digests: Vec<&str> = cells.filter_map(|j| j.get("sim")?.as_str()).collect();
        if digests.windows(2).any(|d| d[0] != d[1]) {
            r.failures
                .push(format!("{e}: simulated stats differ between repetitions"));
        }
    }
    r
}

/// A reported value, with the quartiles and count of the repetitions
/// behind it (one for a simulated value, which repeats exactly).
struct Value {
    value: f64,
    q1: f64,
    q3: f64,
    n: usize,
    /// Latency samples behind a simulated percentile.
    samples: Option<u64>,
}

impl Value {
    fn over(values: &[f64], value: f64) -> Value {
        let (q1, q3) = quartiles(values);
        Value {
            value,
            q1,
            q3,
            n: values.len(),
            samples: None,
        }
    }

    /// The median of host-time repetitions.
    fn median(values: &[f64]) -> Value {
        Value::over(values, median(values))
    }

    /// The fastest of host-rate repetitions. Interference from other
    /// tenants only ever slows a run, and on a shared virtual machine it
    /// comes in bursts of seconds to minutes (guest pages handed back to
    /// the hypervisor fault in again, neighbours load the shared cache),
    /// so the best repetition tracks the program more steadily than the
    /// median does.
    fn best(values: &[f64]) -> Value {
        Value::over(values, values.iter().copied().fold(f64::MIN, f64::max))
    }

    fn exact(v: f64) -> Value {
        Value::over(&[v], v)
    }
}

impl Runs {
    /// Every value the rounds support, by metric name.
    fn values(&self) -> BTreeMap<String, Value> {
        let mut values = BTreeMap::new();
        let each =
            |cells: &[Json], f: &dyn Fn(&Json) -> f64| cells.iter().map(f).collect::<Vec<_>>();
        for p in Protocol::ALL {
            let e = engine_key(p);
            let Some(cells) = self.plain.get(e) else {
                continue;
            };
            // Simulated results repeat exactly; report the first round's.
            let first = &cells[0];
            for m in ["txn_s", "p50_us"] {
                values.insert(format!("{e}.{m}"), Value::exact(num(first, m)));
            }
            let p99 = Value {
                samples: first.get("samples").and_then(Json::as_u64),
                ..Value::exact(num(first, "p99_us"))
            };
            values.insert(format!("{e}.p99_us"), p99);
            let rate = each(cells, &|j| num(j, "commits") / num(j, "run_s"));
            values.insert(format!("{e}.host_commits_s"), Value::best(&rate));
            let Some(tcells) = self.traced.get(e) else {
                continue;
            };
            for (layer, group) in members(tcells[0].get("layers")) {
                for (k, v) in members(Some(group)) {
                    let v = v.as_f64().expect("layer values are numbers");
                    values.insert(format!("{layer}.{e}.{k}"), Value::exact(v));
                }
            }
            let attempts = num(&tcells[0], "attempts");
            let per_attempt = each(cells, &|j| num(j, "run_s") * 1e6 / attempts);
            values.insert(
                format!("core.{e}.host_us_per_attempt"),
                Value::median(&per_attempt),
            );
            let run_s = median(&each(cells, &|j| num(j, "run_s")));
            let slowdown = each(tcells, &|j| num(j, "run_s") / run_s);
            values.insert(
                format!("telemetry.{e}.traced_slowdown"),
                Value::median(&slowdown),
            );
        }
        if !self.setups.is_empty() {
            let col =
                |i: usize| Value::median(&self.setups.iter().map(|s| s[i]).collect::<Vec<_>>());
            values.insert("setup_s".into(), col(0));
            values.insert("storage.load_s".into(), col(1));
            values.insert("core.cluster_new_s".into(), col(2));
        }
        let rss = self.plain.values().flatten().map(|j| num(j, "rss_mb"));
        if let Some(peak) = rss.reduce(f64::max) {
            values.insert("peak_rss_mb".into(), Value::exact(peak));
        }
        let replay = self.replay.as_ref().and_then(|r| r.get("metrics"));
        for (k, v) in members(replay) {
            let v = v.as_f64().expect("replay values are numbers");
            values.insert(k.clone(), Value::exact(v));
        }
        values
    }

    /// The `--out` document: every value with its quartiles, and every
    /// raw cell result, for later analysis.
    fn detail(&self, w: &Spec, seed: u64, values: &BTreeMap<String, Value>) -> Json {
        let values = values
            .iter()
            .map(|(k, v)| {
                let mut doc = Json::obj()
                    .field("value", v.value)
                    .field("q1", v.q1)
                    .field("q3", v.q3)
                    .field("n", v.n as u64);
                if let Some(n) = v.samples {
                    doc = doc.field("samples", n);
                }
                (k.clone(), doc.build())
            })
            .collect();
        let cells = |m: &BTreeMap<&str, Vec<Json>>| {
            Json::Obj(
                m.iter()
                    .map(|(e, v)| (e.to_string(), Json::Arr(v.clone())))
                    .collect(),
            )
        };
        Json::obj()
            .field("workload", w.name)
            .field("seed", seed)
            .field("warmup", w.warmup)
            .field("measure", w.measure)
            .field("rounds", self.rounds as u64)
            .field("values", Json::Obj(values))
            .field("cells", cells(&self.plain))
            .field("traced_cells", cells(&self.traced))
            .field("replay", self.replay.clone().unwrap_or(Json::Null))
            .field(
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::str(f.as_str()))
                        .collect(),
                ),
            )
            .build()
    }
}

/// Runs the benchmark on one workload and reports: one
/// `workload metric value unit` line per metric, then the result object
/// as the last line. Fails when any check failed.
pub fn bench(w: &Spec, seed: u64, seconds: f64, trace: bool, out: Option<&str>) -> ExitCode {
    let mut runs = run_rounds(w, seed, seconds, trace);
    let values = runs.values();
    let wanted = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut reported = Vec::new();
    for m in &wanted {
        let Some(v) = values.get(&m.name) else {
            runs.failures.push(format!("no value for {}", m.name));
            continue;
        };
        let mut line = format!("{} {} {:.6} {}", w.name, m.name, v.value, m.unit);
        if v.n > 1 {
            line += &format!(" q1={:.6} q3={:.6} n={}", v.q1, v.q3, v.n);
        }
        if let Some(n) = v.samples {
            line += &format!(" samples={n}");
        }
        println!("{line}");
        let value = Json::obj().field("value", v.value).field("unit", m.unit);
        reported.push((m.name.clone(), value.build()));
    }
    if let Some(path) = out {
        let doc = runs.detail(w, seed, &values);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            runs.failures.push(format!("write {path}: {e}"));
        }
    }
    for why in &runs.failures {
        eprintln!("{}: check failed: {why}", w.name);
    }
    let correct = runs.failures.is_empty();
    let result = Json::obj()
        .field("correct", Json::Bool(correct))
        .field("attempted", runs.attempted)
        .field("failed", runs.failed)
        .field("metrics", Json::Obj(reported))
        .build();
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
