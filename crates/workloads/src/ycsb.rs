//! YCSB workloads A and B over the four key-value stores.
//!
//! Section VII: 4 M keys, zipfian distribution, transactions of five client
//! requests; workload A is 50% reads / 50% writes, workload B is 95% reads
//! / 5% writes.

use crate::spec::{dedup_within_stages, OpKind, OpSpec, TxnSpec, Workload};
use crate::zipf::ScrambledZipf;
use hades_sim::ids::NodeId;
use hades_sim::rng::SimRng;
use hades_storage::db::{Database, Row, TableId};
use hades_storage::index::IndexKind;

/// YCSB variant. The paper evaluates A and B; C and E are provided as
/// extensions for downstream users.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbVariant {
    /// Workload A: 50% reads, 50% updates.
    A,
    /// Workload B: 95% reads, 5% updates.
    B,
    /// Workload C: 100% reads.
    C,
    /// Workload E: 95% short range scans, 5% updates (scans become runs of
    /// consecutive-key reads; exercises read-set capacity and the B+-tree).
    E,
}

impl YcsbVariant {
    /// Fraction of requests that are updates.
    pub fn write_fraction(self) -> f64 {
        match self {
            YcsbVariant::A => 0.5,
            YcsbVariant::B | YcsbVariant::E => 0.05,
            YcsbVariant::C => 0.0,
        }
    }

    /// Figure label suffix ("wA" / "wB" / "wC" / "wE").
    pub fn label(self) -> &'static str {
        match self {
            YcsbVariant::A => "wA",
            YcsbVariant::B => "wB",
            YcsbVariant::C => "wC",
            YcsbVariant::E => "wE",
        }
    }
}

/// Configuration for a YCSB run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YcsbConfig {
    /// Store shape (HT / Map / BTree / B+Tree).
    pub store: IndexKind,
    /// Workload A or B.
    pub variant: YcsbVariant,
    /// Number of keys loaded (paper: 4 M; scale down for quick runs).
    pub keys: u64,
    /// Value size in bytes (two cache lines by default).
    pub value_bytes: usize,
    /// Client requests batched per transaction (paper: 5).
    pub requests_per_txn: usize,
    /// Zipfian skew (YCSB default 0.99).
    pub theta: f64,
    /// Overrides the variant's write fraction (used by the Fig 3
    /// microbenchmarks: 100%WR, 50%WR-50%RD, 100%RD).
    pub write_fraction_override: Option<f64>,
}

impl YcsbConfig {
    /// The paper's configuration for a given store and variant.
    pub fn paper(store: IndexKind, variant: YcsbVariant) -> Self {
        YcsbConfig {
            store,
            variant,
            keys: 4_000_000,
            value_bytes: 128,
            requests_per_txn: 5,
            theta: 0.99,
            write_fraction_override: None,
        }
    }

    /// Same configuration with an explicit write fraction (Fig 3).
    pub fn with_write_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "write fraction {f} out of range");
        self.write_fraction_override = Some(f);
        self
    }

    /// Same configuration with the key count scaled by `f` (for fast
    /// simulation runs; documented in DESIGN.md §2).
    pub fn scaled(mut self, f: f64) -> Self {
        self.keys = ((self.keys as f64 * f) as u64).max(1_000);
        self
    }
}

/// A YCSB workload over one key-value store.
#[derive(Debug)]
pub struct Ycsb {
    cfg: YcsbConfig,
    table: TableId,
    zipf: ScrambledZipf,
}

/// Update granularity: a 32-byte field at a 32-byte-aligned offset, so
/// writes are sub-line (exercising HADES' partial-line path) while the
/// baseline still fetches and rewrites the whole record.
const FIELD_BYTES: u32 = 32;

impl Ycsb {
    /// Loads the store into `db` and returns the generator.
    pub fn setup(db: &mut Database, cfg: YcsbConfig) -> Self {
        assert!(cfg.requests_per_txn > 0, "need at least one request");
        let table = db.create_table(&format!("ycsb-{}", cfg.store.label()), cfg.store);
        let value = vec![0u8; cfg.value_bytes];
        db.insert_rows((0..cfg.keys).map(|key| Row::new(table, key, &value)));
        let zipf = ScrambledZipf::new(cfg.keys, cfg.theta);
        Ycsb { cfg, table, zipf }
    }

    /// The backing table.
    pub fn table(&self) -> TableId {
        self.table
    }

    fn sample_key(&self, rng: &mut SimRng) -> u64 {
        self.zipf.sample(rng)
    }
}

impl Workload for Ycsb {
    fn name(&self) -> String {
        format!("{}-{}", self.cfg.store.label(), self.cfg.variant.label())
    }

    fn next_txn(&mut self, _origin: NodeId, _db: &Database, rng: &mut SimRng) -> TxnSpec {
        let wf = self
            .cfg
            .write_fraction_override
            .unwrap_or_else(|| self.cfg.variant.write_fraction());
        let fields_per_value = (self.cfg.value_bytes as u32 / FIELD_BYTES).max(1);
        let mut ops: Vec<OpSpec> = Vec::with_capacity(self.cfg.requests_per_txn);
        for _ in 0..self.cfg.requests_per_txn {
            let key = self.sample_key(rng);
            if rng.chance(wf) {
                let field = rng.below(fields_per_value as u64) as u32;
                ops.push(OpSpec {
                    table: self.table,
                    key,
                    kind: OpKind::Update {
                        off: field * FIELD_BYTES,
                        len: FIELD_BYTES,
                    },
                });
            } else if self.cfg.variant == YcsbVariant::E {
                // A short range scan: consecutive keys from the sampled
                // start (YCSB-E scan lengths are uniform in 1..max).
                let scan_len = rng.range_inclusive(1, 8);
                for i in 0..scan_len {
                    ops.push(OpSpec {
                        table: self.table,
                        key: (key + i) % self.cfg.keys,
                        kind: OpKind::Read,
                    });
                }
            } else {
                ops.push(OpSpec {
                    table: self.table,
                    key,
                    kind: OpKind::Read,
                });
            }
        }
        let mut txn = TxnSpec::new(
            match self.cfg.variant {
                YcsbVariant::A => "ycsb_a",
                YcsbVariant::B => "ycsb_b",
                YcsbVariant::C => "ycsb_c",
                YcsbVariant::E => "ycsb_e",
            },
            vec![ops],
        );
        dedup_within_stages(&mut txn);
        txn
    }

    fn expected_write_fraction(&self) -> f64 {
        self.cfg
            .write_fraction_override
            .unwrap_or_else(|| self.cfg.variant.write_fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(variant: YcsbVariant) -> YcsbConfig {
        YcsbConfig {
            keys: 10_000,
            ..YcsbConfig::paper(IndexKind::HashTable, variant)
        }
    }

    #[test]
    fn generates_five_request_txns() {
        let mut db = Database::new(5);
        let mut w = Ycsb::setup(&mut db, small_cfg(YcsbVariant::A));
        let mut rng = SimRng::seed_from(1);
        let t = w.next_txn(NodeId(0), &db, &mut rng);
        assert!(t.num_ops() <= 5 && t.num_ops() >= 1);
        for op in t.ops() {
            assert!(op.key < 10_000);
            assert!(db.lookup(op.table, op.key).is_some());
        }
    }

    #[test]
    fn write_ratio_approximates_variant() {
        let mut db = Database::new(5);
        let mut rng = SimRng::seed_from(2);
        for (variant, lo, hi) in [(YcsbVariant::A, 0.42, 0.58), (YcsbVariant::B, 0.01, 0.10)] {
            let mut w = Ycsb::setup(&mut db, small_cfg(variant));
            let (mut writes, mut total) = (0usize, 0usize);
            for _ in 0..2_000 {
                let t = w.next_txn(NodeId(0), &db, &mut rng);
                writes += t.num_writes();
                total += t.num_ops();
            }
            let frac = writes as f64 / total as f64;
            assert!(
                (lo..hi).contains(&frac),
                "{variant:?}: write fraction {frac}"
            );
        }
    }

    #[test]
    fn updates_are_subline_fields() {
        let mut db = Database::new(5);
        let mut w = Ycsb::setup(&mut db, small_cfg(YcsbVariant::A));
        let mut rng = SimRng::seed_from(3);
        for _ in 0..500 {
            let t = w.next_txn(NodeId(0), &db, &mut rng);
            for op in t.ops() {
                if let OpKind::Update { off, len } = op.kind {
                    assert_eq!(len, FIELD_BYTES);
                    assert_eq!(off % FIELD_BYTES, 0);
                    assert!((off + len) as usize <= 128);
                }
            }
        }
    }

    #[test]
    fn zipfian_skew_visible_in_key_frequencies() {
        let mut db = Database::new(5);
        let mut w = Ycsb::setup(&mut db, small_cfg(YcsbVariant::B));
        let mut rng = SimRng::seed_from(4);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..5_000 {
            let t = w.next_txn(NodeId(0), &db, &mut rng);
            for op in t.ops() {
                *counts.entry(op.key).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().copied().max().unwrap();
        let distinct = counts.len();
        // With zipf 0.99, the hottest key dominates and the tail is long.
        assert!(max > 100, "hot key count {max}");
        assert!(distinct > 1_000, "distinct keys {distinct}");
    }

    #[test]
    fn variant_c_is_read_only() {
        let mut db = Database::new(5);
        let mut w = Ycsb::setup(&mut db, small_cfg(YcsbVariant::C));
        let mut rng = SimRng::seed_from(8);
        for _ in 0..500 {
            let t = w.next_txn(NodeId(0), &db, &mut rng);
            assert_eq!(t.num_writes(), 0, "workload C never writes");
        }
    }

    #[test]
    fn variant_e_scans_consecutive_keys() {
        let mut db = Database::new(5);
        let mut w = Ycsb::setup(&mut db, small_cfg(YcsbVariant::E));
        let mut rng = SimRng::seed_from(9);
        let mut saw_long_txn = false;
        for _ in 0..300 {
            let t = w.next_txn(NodeId(0), &db, &mut rng);
            if t.num_ops() > 10 {
                saw_long_txn = true;
            }
            for op in t.ops() {
                assert!(db.lookup(op.table, op.key).is_some());
            }
        }
        assert!(saw_long_txn, "scans should produce larger read sets");
    }

    #[test]
    fn names_match_paper_labels() {
        let mut db = Database::new(2);
        let w = Ycsb::setup(
            &mut db,
            YcsbConfig {
                keys: 1_000,
                ..YcsbConfig::paper(IndexKind::BPlusTree, YcsbVariant::B)
            },
        );
        assert_eq!(w.name(), "B+Tree-wB");
        assert_eq!(w.expected_write_fraction(), 0.05);
    }
}
