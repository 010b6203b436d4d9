//! Counters that are zero in every golden (ROADMAP item 22, step 1).
//!
//! Walks every JSON golden (each `.json` and `.jsonl` file under
//! `results/`, and `BENCH_12.json`) and keys each numeric leaf by its
//! name: the object key that holds it, or holds the array it sits in. A
//! name whose every value is 0 is either a safety counter that must stay
//! zero or a mechanism no golden run exercises yet. Both kinds are
//! listed below; any other name that is zero everywhere fails, and so
//! does a listed name that fires. The not-yet-exercised list can only
//! shrink.

use hades::telemetry::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Counters whose every value must be 0.
const MUST_BE_ZERO: &[&str] = &[
    // A node the cluster declared dead finalized a commit (DESIGN.md §16).
    "commits_while_dead",
    // Capacity overflow of the `tail` and `timeseries` blocks.
    "dropped",
];

/// Counters no golden run exercises yet (ROADMAP item 22): remove a
/// name once a golden pins a nonzero value for it.
const NOT_YET_EXERCISED: &[&str] = &["replica_replays", "failover_commits", "llc-eviction"];

/// Paths under `results/` that are not run statistics: the synthetic
/// event export, and the two scratch reports CI writes and `.gitignore`
/// lists.
const EXCLUDED: &[&str] = &[
    "results/exactness/stream",
    "results/nemesis-ci.json",
    "results/rebalance-ci.json",
];

/// The JSON goldens under `dir` (relative to `root`), recursively.
fn goldens(root: &Path, dir: &str, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(root.join(dir)).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let path = format!("{dir}/{name}");
        if EXCLUDED.contains(&path.as_str()) {
            continue;
        }
        if root.join(&path).is_dir() {
            goldens(root, &path, out);
        } else if path.ends_with(".json") || path.ends_with(".jsonl") {
            out.push(path);
        }
    }
}

/// Notes every numeric leaf of `v` under its name in `fired`: whether
/// any value of that name was nonzero.
fn scan(v: &Json, name: Option<&str>, fired: &mut BTreeMap<String, bool>) {
    let value = match v {
        Json::Obj(members) => {
            for (k, x) in members {
                scan(x, Some(k), fired);
            }
            return;
        }
        Json::Arr(items) => {
            for x in items {
                scan(x, name, fired);
            }
            return;
        }
        Json::Int(_) | Json::UInt(_) | Json::Num(_) => v.as_f64().unwrap(),
        Json::Null | Json::Bool(_) | Json::Str(_) => return,
    };
    if let Some(name) = name {
        *fired.entry(name.to_string()).or_default() |= value != 0.0;
    }
}

#[test]
fn every_counter_that_is_zero_everywhere_is_listed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec!["BENCH_12.json".to_string()];
    goldens(root, "results", &mut files);
    let mut fired = BTreeMap::new();
    for path in &files {
        let text = std::fs::read_to_string(root.join(path)).unwrap();
        let docs: Vec<&str> = if path.ends_with(".jsonl") {
            text.lines().filter(|l| !l.trim().is_empty()).collect()
        } else {
            vec![&text]
        };
        for doc in docs {
            let v = Json::parse(doc).unwrap_or_else(|e| panic!("{path}: {e}"));
            scan(&v, None, &mut fired);
        }
    }
    assert!(files.len() > 50, "only {} goldens found", files.len());
    let listed = |name: &str| MUST_BE_ZERO.contains(&name) || NOT_YET_EXERCISED.contains(&name);
    let unlisted: Vec<&String> = fired
        .iter()
        .filter(|&(name, &nonzero)| !nonzero && !listed(name))
        .map(|(name, _)| name)
        .collect();
    assert!(
        unlisted.is_empty(),
        "zero in every golden but on no list: {unlisted:?}"
    );
    for &name in MUST_BE_ZERO.iter().chain(NOT_YET_EXERCISED) {
        match fired.get(name) {
            None => panic!("{name} is listed but appears in no golden"),
            Some(true) if MUST_BE_ZERO.contains(&name) => {
                panic!("{name} must be zero, but a golden records a nonzero value")
            }
            Some(true) => panic!("{name} fires now: take it off NOT_YET_EXERCISED"),
            Some(false) => {}
        }
    }
}
