//! The HADES reproduction's benchmark: the three engines (Baseline,
//! HADES-H, HADES) on one of four workloads, reporting simulated results
//! (committed throughput, p50 and p99 commit latency) and host cost
//! (commits per host second, set-up time, peak memory).
//!
//! ```text
//! hades-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! ```
//!
//! Each (engine, repetition) cell runs single-threaded in a fresh child
//! process (this binary re-executed with `--cell`), one after another,
//! under a host-time watchdog. Rounds of one cell per engine repeat until
//! `--seconds` is spent (at least three). Simulated metrics come from the
//! first round and every later round must reproduce them bit for bit; a
//! host rate is the fastest round's, a set-up time the median. `--trace 1`
//! adds a traced cell per engine to each round plus one layer-replay
//! child, and reports the per-layer metrics instead. Every metric prints
//! as `workload metric value unit`, and the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is non-zero when any check fails. See README.md.

mod cell;
mod counting;
mod metrics;
mod parent;
mod replay;
mod spec;
mod stats;

use hades::core::runner::Protocol;
use hades::sim::config::DEFAULT_SEED;
use spec::{parse_engine, Spec};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str =
    "usage: hades-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out PATH]";

/// What this process was asked to do.
enum Mode {
    /// The parent: run rounds of child cells and report.
    Bench {
        seconds: f64,
        trace: bool,
        out: Option<String>,
    },
    /// A child: run one cell and print its result line.
    Cell { engine: Protocol, traced: bool },
    /// A child: run the layer replay and print its result line.
    Replay,
}

struct Args {
    workload: &'static Spec,
    seed: u64,
    mode: Mode,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--traced" | "--replay" => {
                flags.insert(flag, "");
            }
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" | "--cell" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = spec::find(name).ok_or_else(|| {
        let known: Vec<String> = spec::WORKLOADS
            .iter()
            .map(|w| format!("  {}: {}", w.name, w.why))
            .collect();
        format!(
            "unknown workload {name}; the workloads are:\n{}",
            known.join("\n")
        )
    })?;
    let seed = match flags.get("--seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s}"))?,
        None => DEFAULT_SEED,
    };
    let mode = if let Some(e) = flags.get("--cell") {
        Mode::Cell {
            engine: parse_engine(e).ok_or(format!("unknown engine {e}"))?,
            traced: flags.contains_key("--traced"),
        }
    } else if flags.contains_key("--replay") {
        Mode::Replay
    } else {
        let seconds = match flags.get("--seconds") {
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .ok_or(format!("bad --seconds {s}"))?,
            None => 30.0,
        };
        let trace = match flags.get("--trace").copied() {
            None | Some("0") => false,
            Some("1") => true,
            Some(t) => return Err(format!("bad --trace {t} (0 or 1)")),
        };
        Mode::Bench {
            seconds,
            trace,
            out: flags.get("--out").map(|s| s.to_string()),
        }
    };
    Ok(Args {
        workload,
        seed,
        mode,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hades-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (w, seed) = (args.workload, args.seed);
    match args.mode {
        Mode::Cell { engine, traced } => {
            println!("{}", cell::run(w, engine, seed, traced).render());
            // Skip tearing down a paper-scale database: the parent only
            // waits for the exit.
            std::process::exit(0)
        }
        Mode::Replay => {
            println!("{}", replay::run(w, seed).render());
            std::process::exit(0)
        }
        Mode::Bench {
            seconds,
            trace,
            out,
        } => parent::bench(w, seed, seconds, trace, out.as_deref()),
    }
}
