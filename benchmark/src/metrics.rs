//! The metric inventory: every name the benchmark reports, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` at
//! the repository root mirrors this list; a test keeps the two equal.

use crate::spec::engine_key;
use hades::core::runner::Protocol;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement: `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn metric(name: String, unit: &'static str, better: &'static str, bound: Option<f64>) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const HIGHER: &str = "higher";
const LOWER: &str = "lower";

/// Engines with Bloom-filter and LLC-speculation hardware.
const HARDWARE: [Protocol; 2] = [Protocol::HadesH, Protocol::Hades];

/// Metrics a user of the simulator sees, reported with tracing off. The
/// simulated ones repeat exactly at a seed, so their bounds cover only a
/// real change; the host-time ones are medians over repetitions, and
/// their bounds cover this host's noise (README.md lists the spreads).
pub fn end_to_end() -> Vec<Metric> {
    let mut v = Vec::new();
    for p in Protocol::ALL {
        let e = engine_key(p);
        v.push(metric(format!("{e}.txn_s"), "txn/s", HIGHER, Some(0.15)));
        v.push(metric(format!("{e}.p50_us"), "us", LOWER, Some(0.05)));
        v.push(metric(format!("{e}.p99_us"), "us", LOWER, Some(0.25)));
        v.push(metric(
            format!("{e}.host_commits_s"),
            "commits/s",
            HIGHER,
            Some(0.25),
        ));
    }
    v.push(metric("setup_s".into(), "s", LOWER, Some(0.25)));
    v.push(metric("peak_rss_mb".into(), "MB", LOWER, Some(0.10)));
    v
}

/// Metrics of single layers, reported by the traced pass (`--trace 1`).
pub fn per_layer() -> Vec<Metric> {
    let mut v = Vec::new();
    let mut add = |name: String, unit, better| v.push(metric(name, unit, better, None));
    for p in Protocol::ALL {
        let e = engine_key(p);
        for phase in ["exec", "lock", "validate", "commit", "backoff"] {
            add(format!("core.{e}.{phase}_cyc"), "cycles/txn", LOWER);
        }
        add(format!("core.{e}.commit_ratio"), "ratio", HIGHER);
        add(format!("core.{e}.host_us_per_attempt"), "us", LOWER);
    }
    add("core.cluster_new_s".into(), "s", LOWER);
    for p in Protocol::ALL {
        let e = engine_key(p);
        add(format!("net.{e}.verbs_per_txn"), "verbs/txn", LOWER);
        add(format!("net.{e}.batch_occupancy"), "verbs/batch", HIGHER);
        add(
            format!("net.{e}.batch_flushes_per_txn"),
            "flushes/txn",
            LOWER,
        );
    }
    add("net.send_ns".into(), "ns", LOWER);
    for p in HARDWARE {
        let e = engine_key(p);
        add(format!("bloom.{e}.probes_per_txn"), "probes/txn", LOWER);
        add(format!("bloom.{e}.fp_rate"), "fraction", LOWER);
        add(
            format!("bloom.{e}.lock_stalls_per_txn"),
            "stalls/txn",
            LOWER,
        );
    }
    add("bloom.probe_ns".into(), "ns", LOWER);
    add("bloom.insert_ns".into(), "ns", LOWER);
    for p in Protocol::ALL {
        add(
            format!("mem.{}.llc_miss_rate", engine_key(p)),
            "fraction",
            LOWER,
        );
    }
    for p in HARDWARE {
        let e = engine_key(p);
        add(format!("mem.{e}.llc_eviction_squashes"), "count", LOWER);
    }
    add("mem.access_ns".into(), "ns", LOWER);
    add("storage.resolve_ns".into(), "ns", LOWER);
    add("storage.load_s".into(), "s", LOWER);
    add("workloads.next_txn_ns".into(), "ns", LOWER);
    add("sim.queue_ns".into(), "ns", LOWER);
    for p in Protocol::ALL {
        let e = engine_key(p);
        add(
            format!("telemetry.{e}.trace_events_per_txn"),
            "events/txn",
            LOWER,
        );
        add(format!("telemetry.{e}.traced_slowdown"), "ratio", LOWER);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use hades::telemetry::json::Json;
    use std::collections::BTreeSet;

    /// The metric-name rule: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
    /// letter or digit.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn name_rule() {
        for good in ["setup_s", "core.hades_h.exec_cyc", "a-b.c_9", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "a b", "p99.9%", "naïve", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let names: BTreeSet<&str> = all.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        for m in &all {
            assert!(valid_name(&m.name), "{}", m.name);
        }
        assert!(per_layer().len() <= 128);
        let setup = end_to_end().into_iter().find(|m| m.name == "setup_s");
        let setup = setup.expect("setup_s is end to end");
        assert_eq!((setup.unit, setup.better), ("s", LOWER));
        let largest = end_to_end()
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    type Row = (String, String, String, Option<f64>);

    fn rows(metrics: Vec<Metric>) -> Vec<Row> {
        metrics
            .into_iter()
            .map(|m| (m.name, m.unit.into(), m.better.into(), m.bound))
            .collect()
    }

    fn listed(doc: &Json, key: &str) -> Vec<Row> {
        let s = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64);
                (s(m, "name"), s(m, "unit"), s(m, "better"), bound)
            })
            .collect()
    }

    #[test]
    fn inventory_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), rows(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), rows(per_layer()));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k| w.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
    }
}
