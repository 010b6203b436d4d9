//! One sweep driver for the stress bins (DESIGN.md §17).
//!
//! `chaos`, `nemesis`, `batching`, `overload`, `failover`, `rebalance`
//! and `replication` cross the protocol engines with stress cells. A
//! cell is a [`Scenario`] value, and [`Sweep::check`] runs it twice and
//! applies every invariant the bins share, so a rule one bin checks
//! cannot be missing from the next. Each bin keeps only its scenario
//! list, its own assertions and its own table rows and report cells;
//! [`Sweep::finish`] writes the `hades-report/v1` document and exits 1
//! on any violation.

use crate::{flag_value, has_flag, print_table, write_json_report};
use hades_core::runner::{Protocol, Run};
use hades_core::runtime::RunOutcome;
use hades_core::stats::RunStats;
use hades_fault::FaultPlan;
use hades_sim::config::SimConfig;
use hades_storage::db::Database;
use hades_storage::index::IndexKind;
use hades_storage::RecordId;
use hades_telemetry::json::Json;
use hades_workloads::smallbank::{Smallbank, SmallbankConfig, OFF_BALANCE};
use hades_workloads::spec::Workload;
use hades_workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};
use std::collections::BTreeMap;

/// The workload a [`Scenario`] loads.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// A Smallbank bank. Its runs record the commit history, so the
    /// shared checks cover money conservation and per-record version
    /// order too.
    Bank(SmallbankConfig),
    /// A YCSB table.
    Ycsb(YcsbConfig),
}

impl Load {
    /// A bank of `accounts` with an optional `(hot accounts, share)`
    /// hotspot.
    pub const fn bank(accounts: u64, hotspot: Option<(u64, f64)>) -> Self {
        Load::Bank(SmallbankConfig { accounts, hotspot })
    }

    /// YCSB HT-wA at Zipfian `theta` over `scale` times the paper's 4M
    /// keys (at least 1,000).
    pub fn ht_wa(theta: f64, scale: f64) -> Self {
        Load::Ycsb(YcsbConfig {
            theta,
            ..YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A).scaled(scale)
        })
    }
}

/// One stress cell as a value: a configuration, an optional fault plan,
/// a measurement window and a workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Cell name, as report cells and labels print it.
    pub name: String,
    /// The whole configuration: shape, membership, migration, overload,
    /// batching, replication and observability.
    pub cfg: SimConfig,
    /// Faults to inject; `None` installs no injector at all.
    pub plan: Option<FaultPlan>,
    /// Commits discarded before measurement.
    pub warmup: u64,
    /// Commits measured.
    pub measure: u64,
    /// The workload.
    pub load: Load,
}

impl Scenario {
    /// A scenario with no fault plan and no warmup.
    pub fn new(name: impl Into<String>, cfg: SimConfig, load: Load, measure: u64) -> Self {
        Scenario {
            name: name.into(),
            cfg,
            plan: None,
            warmup: 0,
            measure,
            load,
        }
    }

    /// The same scenario under `plan`.
    pub fn plan(self, plan: FaultPlan) -> Self {
        Scenario {
            plan: Some(plan),
            ..self
        }
    }

    /// Runs the scenario once under `protocol`.
    pub fn run(&self, protocol: Protocol) -> Trial {
        let mut db = Database::new(self.cfg.shape.nodes);
        let (workload, bank): (Box<dyn Workload>, _) = match self.load {
            Load::Bank(cfg) => {
                let bank = Smallbank::setup(&mut db, cfg);
                db.enable_commit_history();
                (Box::new(bank.clone()), Some(bank))
            }
            Load::Ycsb(cfg) => (Box::new(Ycsb::setup(&mut db, cfg)), None),
        };
        let (warmup, measure) = (self.warmup, self.measure);
        let out = Run::loaded(protocol, self.cfg.clone(), db, workload, warmup, measure)
            .plan(self.plan.clone())
            .run();
        Trial { out, bank, measure }
    }
}

/// One finished run of a [`Scenario`].
#[derive(Debug)]
pub struct Trial {
    /// The run's statistics and final cluster.
    pub out: RunOutcome,
    bank: Option<Smallbank>,
    measure: u64,
}

impl Trial {
    /// Every shared invariant the run breaks, one line each; empty when
    /// clean. Every run must commit exactly its measured transactions,
    /// leak nothing past the drain ([`RunOutcome::leaks`]), finalize no
    /// commit on a node the configuration had declared dead (no dual
    /// primary), and outlive every link window its plan cut. A Smallbank
    /// run must also conserve money and keep a gapless per-record commit
    /// history whose last values are the final balances. A
    /// whole-history oracle would plug in here.
    pub fn violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let s = &self.out.stats;
        let (committed, measure) = (s.committed, self.measure);
        if committed != measure {
            bad.push(format!(
                "committed {committed} of {measure} measured transactions"
            ));
        }
        bad.extend(self.out.leaks());
        bad.extend(self.out.parked.iter().map(|r| r.to_string()));
        let nem = &s.nemesis;
        if nem.commits_while_dead != 0 {
            bad.push(format!(
                "{} commit(s) finalized on an excommunicated node (dual primary)",
                nem.commits_while_dead
            ));
        }
        if nem.links_cut != nem.links_healed {
            let (cut, healed) = (nem.links_cut, nem.links_healed);
            bad.push(format!("{cut} link windows cut but {healed} healed"));
        }
        bad.extend(self.conservation().err());
        if self.bank.is_some() {
            bad.extend(history_violation(&self.out.cluster.db));
        }
        bad
    }

    /// The `conserved` table column: `yes` or `NO`.
    pub fn conserved_cell(&self) -> String {
        let ok = self.conservation().is_ok();
        if ok { "yes" } else { "NO" }.to_string()
    }

    /// Smallbank's money-conservation check; `Ok` for other workloads.
    pub fn conservation(&self) -> Result<(), String> {
        let (db, delta) = (&self.out.cluster.db, self.out.total_sum_delta);
        self.bank
            .as_ref()
            .map_or(Ok(()), |bank| bank.check_conservation(db, delta))
    }
}

/// Checks the commit history of a Smallbank run: each record's writes
/// are versioned 1, 2, 3, ... (a gap is a committed write lost, a repeat
/// one applied twice) and never past the record's own version counter,
/// and since every Smallbank write is an RMW on the balance word, each
/// record's last logged value is its final balance. `None` when the
/// history holds.
pub fn history_violation(db: &Database) -> Option<String> {
    let history = db.commit_history();
    if history.is_empty() {
        return Some("no committed writes recorded".to_string());
    }
    let mut last: BTreeMap<RecordId, (u64, u64)> = BTreeMap::new();
    for e in history {
        let prev = last
            .insert(e.rid, (e.seq, e.value_after))
            .map(|(seq, _)| seq);
        if e.seq != prev.unwrap_or(0) + 1 {
            return Some(format!(
                "{:?} version order broken (prev {prev:?}, got {})",
                e.rid, e.seq
            ));
        }
        if db.commit_seq_of(e.rid) < e.seq {
            return Some(format!(
                "{:?} history seq {} beyond the record's counter",
                e.rid, e.seq
            ));
        }
    }
    last.into_iter()
        .find(|&(rid, (_, v))| db.record(rid).read_u64(OFF_BALANCE as usize) != v)
        .map(|(rid, _)| format!("{rid:?} final value diverges from the history log"))
}

fn stats_bytes(trial: &Trial) -> String {
    trial.out.stats.to_json().render()
}

/// One stress bin's checks and report: the violations, table rows and
/// report cells gathered so far.
#[derive(Debug, Default)]
pub struct Sweep {
    report: Option<&'static str>,
    /// `--quick` was passed.
    pub quick: bool,
    /// Every violation so far, each prefixed with its cell's label.
    pub failures: Vec<String>,
    /// Rows for the next [`Sweep::table`].
    pub rows: Vec<Vec<String>>,
    /// Cells of the `--json` report.
    pub cells: Vec<Json>,
}

impl Sweep {
    /// A sweep writing the `report` document on `--json <path>`; `None`
    /// for a bin without a `--json` flag.
    pub fn new(report: Option<&'static str>) -> Self {
        let quick = has_flag("--quick");
        Sweep {
            report,
            quick,
            ..Sweep::default()
        }
    }

    /// Runs `sc` under `protocol` twice. Records every shared violation
    /// of the first run, a rerun whose stats bytes differ, and whatever
    /// `expect` pushes for the first run's stats, all under `label`.
    /// Returns the first run.
    pub fn check(
        &mut self,
        label: &str,
        protocol: Protocol,
        sc: &Scenario,
        expect: impl FnOnce(&RunStats, &mut Vec<String>),
    ) -> Trial {
        let trial = sc.run(protocol);
        let mut bad = trial.violations();
        if stats_bytes(&trial) != stats_bytes(&sc.run(protocol)) {
            bad.push("rerun with identical config diverged".to_string());
        }
        expect(&trial.out.stats, &mut bad);
        self.failures
            .extend(bad.into_iter().map(|b| format!("{label}: {b}")));
        eprintln!("  done: {label}");
        trial
    }

    /// Runs `a` and `b` under `p` and records a failure unless
    /// their stats render the same bytes: the check that a switched-off
    /// layer costs nothing. Returns the run of `a`.
    pub fn same_bytes(&mut self, label: &str, p: Protocol, a: &Scenario, b: &Scenario) -> Trial {
        let trial = a.run(p);
        if stats_bytes(&trial) != stats_bytes(&b.run(p)) {
            self.failures.push(format!(
                "{label}: `{}` and `{}` render different stats",
                a.name, b.name
            ));
        }
        eprintln!("  done: {label}");
        trial
    }

    /// Records a `{protocol, scenario, stats}` report cell.
    pub fn scenario_cell(&mut self, protocol: Protocol, scenario: &str, stats: &RunStats) {
        let cell = Json::obj()
            .field("protocol", Json::str(protocol.label()))
            .field("scenario", Json::str(scenario))
            .field("stats", stats.to_json());
        self.cells.push(cell.build());
    }

    /// Prints the rows gathered so far as a table and starts a new one.
    pub fn table(&mut self, title: &str, header: &[&str]) {
        print_table(title, header, &self.rows);
        self.rows.clear();
    }

    /// Writes the `hades-report/v1` document if `--json <path>` was
    /// passed, then returns when every check held; otherwise lists the
    /// violations on stderr and exits with status 1.
    pub fn finish(self) {
        if let (Some(report), Some(path)) = (self.report, flag_value("--json")) {
            let failures = self.failures.iter().map(Json::str).collect();
            let doc = Json::obj()
                .field("schema", Json::str("hades-report/v1"))
                .field("report", Json::str(report))
                .field("quick", Json::Bool(self.quick))
                .field("failures", Json::Arr(failures))
                .field("cells", Json::Arr(self.cells))
                .build();
            write_json_report(&path, &doc);
        }
        if !self.failures.is_empty() {
            eprintln!("\n{} invariant violation(s):", self.failures.len());
            for f in &self.failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
