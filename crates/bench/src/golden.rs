//! Golden files: simulated output pinned as committed bytes.
//!
//! The simulator is deterministic, so a rendered export (a run's stats
//! JSON, a time-series block, a trace stream, a bench document) is
//! pinned by committing its bytes. A [`Golden`] compares rendered strings
//! against files at repository-relative paths, writes every observed
//! string to `<tmp>/golden/<path>`, and fails once at
//! [`Golden::finish`], naming every moved or missing file and the JSON
//! leaves that changed in it. A missing golden is a failure; the check
//! never creates one. A change that moves the simulation on purpose
//! re-records every observed file, from the repository root, with
//! [`RERECORD`], and `git diff` is the review. `<tmp>/golden` is never
//! cleared by the check, so the command clears it first: only the
//! files this run observed are copied, not stale ones from an earlier
//! run or a renamed row.

use hades_telemetry::json::Json;
use std::path::{Path, PathBuf};

/// Re-records every golden a fresh test run observes, run from the
/// repository root. The steps are joined by `;` because the test run
/// fails while any golden differs, and `--no-fail-fast` runs every test
/// binary past the first that fails, so each writes what it observed.
pub const RERECORD: &str =
    "rm -rf target/tmp/golden; cargo test -q --no-fail-fast; cp -r target/tmp/golden/. .";

/// The 64-bit FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continued from `h` (start at
/// [`FNV_OFFSET`]).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Differences listed per moved file.
const MAX_DIFFS: usize = 10;

/// A set of golden checks that fails once, listing every failure.
#[derive(Debug)]
pub struct Golden {
    root: PathBuf,
    observed: PathBuf,
    failures: Vec<String>,
}

impl Golden {
    /// Goldens under `root` (a test's `CARGO_MANIFEST_DIR`), observed
    /// copies under `<tmp>/golden` (its `CARGO_TARGET_TMPDIR`).
    pub fn new(root: impl AsRef<Path>, tmp: impl AsRef<Path>) -> Golden {
        Golden {
            root: root.as_ref().to_path_buf(),
            observed: tmp.as_ref().join("golden"),
            failures: Vec::new(),
        }
    }

    /// Compares `observed` with the committed file at `path`, relative
    /// to the root, and writes it to the observed copy of `path`.
    /// Returns whether the bytes are equal.
    pub fn check(&mut self, path: &str, observed: &str) -> bool {
        let copy = self.observed.join(path);
        std::fs::create_dir_all(copy.parent().expect("a file path"))
            .and_then(|()| std::fs::write(&copy, observed))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", copy.display()));
        match std::fs::read_to_string(self.root.join(path)) {
            Ok(committed) if committed == observed => return true,
            Ok(committed) => self.fail(format!("{path} moved:{}", diff(&committed, observed))),
            Err(_) => self.fail(format!("{path}: no committed golden")),
        }
        false
    }

    /// Records a failure that is not a golden's, to be listed with them.
    pub fn fail(&mut self, failure: String) {
        self.failures.push(failure);
    }

    /// Every failure so far, one entry per moved file.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Panics listing every failure, if there was any.
    pub fn finish(self) {
        assert!(
            self.failures.is_empty(),
            "{} failure(s):\n{}\nObserved files are under {}. If the moves are \
             intended, re-record them from the repository root with `{RERECORD}`.",
            self.failures.len(),
            self.failures.join("\n"),
            self.observed.display(),
        );
    }
}

/// The first [`MAX_DIFFS`] differences between two renderings, each on
/// its own indented line. Each line that differs is compared as JSON,
/// or as a string where it does not parse, and lists its changed leaves
/// by path (`cells[7 HT-wA@0.99/HADES-H].p99_us: 41.2 -> 40.9`), under
/// `line <n>` in a multi-line file.
fn diff(old: &str, new: &str) -> String {
    let (old, new): (Vec<&str>, Vec<&str>) = (old.lines().collect(), new.lines().collect());
    let lines = old.len().max(new.len());
    let parse = |line: &&str| Json::parse(line).unwrap_or_else(|_| Json::str(*line));
    let mut diffs = Vec::new();
    for i in (0..lines).filter(|&i| old.get(i) != new.get(i)) {
        let at = (lines > 1).then(|| format!("line {}", i + 1));
        let (a, b) = (old.get(i).map(parse), new.get(i).map(parse));
        json_leaves(at.unwrap_or_default(), a.as_ref(), b.as_ref(), &mut diffs);
    }
    if diffs.is_empty() {
        diffs.push("the bytes differ, but no line's value does".to_string());
    }
    let more = diffs.len().saturating_sub(MAX_DIFFS);
    diffs.truncate(MAX_DIFFS);
    if more > 0 {
        diffs.push(format!("... and {more} more"));
    }
    diffs.iter().map(|d| format!("\n    {d}")).collect()
}

/// Appends `path: old -> new` for every leaf that differs under two
/// JSON values; `None` is a member or element one side lacks.
fn json_leaves(path: String, old: Option<&Json>, new: Option<&Json>, out: &mut Vec<String>) {
    let child = |key: &str| match path.as_str() {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    };
    match (old, new) {
        (Some(o @ Json::Obj(a)), Some(n @ Json::Obj(b))) => {
            let added = b.iter().filter(|(k, _)| o.get(k).is_none());
            for (k, _) in a.iter().chain(added) {
                json_leaves(child(k), o.get(k), n.get(k), out);
            }
        }
        (Some(Json::Arr(a)), Some(Json::Arr(b))) => {
            for i in 0..a.len().max(b.len()) {
                let item = format!("{path}[{}]", item_name(i, a.get(i).or(b.get(i))));
                json_leaves(item, a.get(i), b.get(i), out);
            }
        }
        _ if old != new => {
            let show = |v: Option<&Json>| v.map_or("(absent)".to_string(), |v| clip(&v.render()));
            let sep = if path.is_empty() { "" } else { ": " };
            out.push(format!("{path}{sep}{} -> {}", show(old), show(new)));
        }
        _ => {}
    }
}

/// An array item's name in a path: its index, then an object's leading
/// string members (`7 HT-wA@0.99/HADES-H` for a bench cell).
fn item_name(i: usize, item: Option<&Json>) -> String {
    let members = match item {
        Some(Json::Obj(members)) => &members[..],
        _ => &[],
    };
    let names: Vec<&str> = members.iter().map_while(|(_, v)| v.as_str()).collect();
    format!("{i} {}", names.join("/")).trim_end().to_string()
}

/// `text`, cut to its first 100 characters.
fn clip(text: &str) -> String {
    match text.char_indices().nth(100) {
        Some((at, _)) => format!("{}...", &text[..at]),
        None => text.to_string(),
    }
}
