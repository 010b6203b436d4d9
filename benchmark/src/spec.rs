//! What the benchmark runs: the four workloads and the three engines.
//!
//! Every workload runs on the paper's default cluster (Table III: N=5
//! nodes × C=5 cores × m=2 slots, i.e. 50 closed-loop clients). A slot
//! starts its next transaction only when the previous one commits, and
//! aborted attempts retry after backoff, so the engines run saturated.

use hades::core::baseline::BaselineSim;
use hades::core::hades::HadesSim;
use hades::core::hades_h::HadesHSim;
use hades::core::runner::Protocol;
use hades::core::runtime::{Cluster, RunOutcome, WorkloadSet};
use hades::sim::config::{BatchingParams, SimConfig};
use hades::storage::db::{Database, TableId};
use hades::storage::index::IndexKind;
use hades::workloads::catalog::AppId;
use hades::workloads::smallbank::{Smallbank, SmallbankConfig, OFF_BALANCE};
use hades::workloads::spec::Workload;
use hades::workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

/// Metric-name prefix of an engine.
pub fn engine_key(p: Protocol) -> &'static str {
    match p {
        Protocol::Baseline => "baseline",
        Protocol::HadesH => "hades_h",
        Protocol::Hades => "hades",
    }
}

/// Parses an engine prefix back.
pub fn parse_engine(key: &str) -> Option<Protocol> {
    Protocol::ALL.into_iter().find(|&p| engine_key(p) == key)
}

/// Runs `p` to completion over a built cluster.
pub fn run_engine(
    p: Protocol,
    cl: Cluster,
    ws: WorkloadSet,
    warmup: u64,
    measure: u64,
) -> RunOutcome {
    match p {
        Protocol::Baseline => BaselineSim::new(cl, ws, warmup, measure).run_full(),
        Protocol::HadesH => HadesHSim::new(cl, ws, warmup, measure).run_full(),
        Protocol::Hades => HadesSim::new(cl, ws, warmup, measure).run_full(),
    }
}

/// Which generator a workload loads.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// TATP at a subscriber-count scale.
    Tatp { scale: f64 },
    /// Smallbank at an account-count scale.
    Smallbank { scale: f64 },
    /// YCSB-A over the hash table: key count, Zipfian skew and the
    /// adaptive doorbell-batching cap (`None` = batching off).
    YcsbA {
        keys: u64,
        theta: f64,
        batch: Option<u32>,
    },
}

/// One benchmark workload: what to load, and the commit windows.
#[derive(Debug)]
pub struct Spec {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One-line reason the workload is in the benchmark.
    pub why: &'static str,
    kind: Kind,
    /// Commits discarded before measurement.
    pub warmup: u64,
    /// Commits measured.
    pub measure: u64,
}

/// The benchmark's workloads. Each exercises a different layer; see
/// README.md for the sizes and what each one is expected to move.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "tatp_1m",
        why: "TATP at paper scale (1M subscribers, over the modelled LLC): read-mostly and uncontended; index, memory model and loading",
        kind: Kind::Tatp { scale: 1.0 },
        warmup: 10_000,
        measure: 100_000,
    },
    Spec {
        name: "smallbank",
        why: "Smallbank, 50k accounts: write-heavy RMW with little contention; commit handshake, write path, money conservation",
        kind: Kind::Smallbank { scale: 0.01 },
        warmup: 10_000,
        measure: 100_000,
    },
    Spec {
        name: "ycsb_a_zipf99",
        why: "YCSB-A over the hash table, theta 0.99, 40k keys: high contention; squashes, Bloom probes, Locking Buffer stalls, backoff",
        kind: Kind::YcsbA {
            keys: 40_000,
            theta: 0.99,
            batch: None,
        },
        warmup: 4_000,
        measure: 40_000,
    },
    Spec {
        name: "ycsb_a_zipf60_batch16",
        why: "YCSB-A, theta 0.60, adaptive doorbell batching up to 16: the only workload that runs the batching layer",
        kind: Kind::YcsbA {
            keys: 40_000,
            theta: 0.60,
            batch: Some(16),
        },
        warmup: 5_000,
        measure: 50_000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The Smallbank conservation check: both balance tables and the number
/// of accounts in each.
#[derive(Debug, Clone, Copy)]
pub struct Money {
    tables: [TableId; 2],
    accounts: u64,
    /// Money in the bank at load time.
    pub initial: u64,
}

impl Money {
    /// Sums every balance in both tables.
    pub fn total(&self, db: &Database) -> u64 {
        let mut sum = 0u64;
        for table in self.tables {
            for a in 0..self.accounts {
                let rid = db.lookup(table, a).expect("account loaded").rid;
                sum = sum.wrapping_add(db.record(rid).read_u64(OFF_BALANCE as usize));
            }
        }
        sum
    }
}

/// A loaded workload: its generator, plus the money check for Smallbank.
pub struct Loaded {
    /// The transaction generator.
    pub workload: Box<dyn Workload>,
    /// Conservation check (Smallbank only).
    pub money: Option<Money>,
}

impl Spec {
    /// Planned commits per cell (warmup plus measurement).
    pub fn txns(&self) -> u64 {
        self.warmup + self.measure
    }

    /// The simulator configuration at `seed`.
    pub fn config(&self, seed: u64) -> SimConfig {
        let cfg = SimConfig::isca_default().with_seed(seed);
        match self.kind {
            Kind::YcsbA {
                batch: Some(max_batch),
                ..
            } => cfg.with_batching(BatchingParams {
                max_batch,
                ..BatchingParams::standard()
            }),
            _ => cfg,
        }
    }

    /// Loads the workload's tables into `db` and returns its generator.
    pub fn load(&self, db: &mut Database) -> Loaded {
        match self.kind {
            Kind::Tatp { scale } => Loaded {
                workload: AppId::Tatp.build(db, scale),
                money: None,
            },
            Kind::Smallbank { scale } => {
                let cfg = SmallbankConfig::paper().scaled(scale);
                let bank = Smallbank::setup(db, cfg);
                let money = Money {
                    tables: [bank.checking(), bank.savings()],
                    accounts: cfg.accounts,
                    initial: bank.initial_total(),
                };
                Loaded {
                    workload: Box::new(bank),
                    money: Some(money),
                }
            }
            Kind::YcsbA { keys, theta, .. } => Loaded {
                workload: Box::new(Ycsb::setup(
                    db,
                    YcsbConfig {
                        keys,
                        theta,
                        ..YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A)
                    },
                )),
                money: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_engines_round_trip() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(!w.why.contains('\n') && w.why.len() <= 200, "{}", w.name);
        }
        assert!(find("nope").is_none());
        for p in Protocol::ALL {
            assert_eq!(parse_engine(engine_key(p)), Some(p));
        }
    }
}
