//! Transaction specifications: what a workload asks the protocols to do.
//!
//! Following the paper's methodology (Section VII), client requests are
//! batched into transactions (five per transaction for the key-value
//! stores, the benchmark's natural shape for TPC-C/TATP/Smallbank). A
//! [`TxnSpec`] is a list of *stages*; ops within a stage are independent
//! and may be issued concurrently (batched one-sided RDMA), while stages
//! serialize (data dependencies, e.g. TPC-C reads the district before
//! touching its order slots).

use hades_sim::ids::NodeId;
use hades_sim::rng::SimRng;
use hades_storage::db::{Database, TableId};

/// One client request inside a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read the whole record (a KV GET).
    Read,
    /// Read `len` bytes at `off` (a field read).
    ReadField {
        /// Byte offset of the field.
        off: u32,
        /// Field length in bytes.
        len: u32,
    },
    /// Overwrite `len` bytes at `off` (a KV UPDATE / field write).
    Update {
        /// Byte offset of the field.
        off: u32,
        /// Field length in bytes.
        len: u32,
    },
    /// Read-modify-write: add `delta` to the `u64` at `off` (balance
    /// updates). The simulators apply this to real record bytes, which is
    /// what makes the Smallbank conservation invariant checkable.
    Rmw {
        /// Byte offset of the u64 counter.
        off: u32,
        /// Signed amount to add.
        delta: i64,
    },
}

impl OpKind {
    /// Whether the op writes the record.
    pub fn is_write(&self) -> bool {
        matches!(self, OpKind::Update { .. } | OpKind::Rmw { .. })
    }
}

/// One operation: a table, a key, and what to do to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// Target table.
    pub table: TableId,
    /// Target key.
    pub key: u64,
    /// What to do.
    pub kind: OpKind,
}

/// A complete transaction specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnSpec {
    /// Stages of independent operations; stages execute in order.
    pub stages: Vec<Vec<OpSpec>>,
    /// Net change this transaction applies to the sum of all `Rmw`
    /// counters (zero for pure transfers). Used by conservation checks.
    pub sum_delta: i64,
    /// Short label of the transaction type (e.g. `"new_order"`).
    pub label: &'static str,
}

impl TxnSpec {
    /// Builds a spec from stages, computing `sum_delta` from the ops.
    pub fn new(label: &'static str, stages: Vec<Vec<OpSpec>>) -> Self {
        let sum_delta = stages
            .iter()
            .flatten()
            .map(|op| match op.kind {
                OpKind::Rmw { delta, .. } => delta,
                _ => 0,
            })
            .sum();
        TxnSpec {
            stages,
            sum_delta,
            label,
        }
    }

    /// Total operation count across stages.
    pub fn num_ops(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }

    /// Number of write operations.
    pub fn num_writes(&self) -> usize {
        self.stages
            .iter()
            .flatten()
            .filter(|op| op.kind.is_write())
            .count()
    }

    /// Iterates all operations in stage order.
    pub fn ops(&self) -> impl Iterator<Item = &OpSpec> {
        self.stages.iter().flatten()
    }
}

/// A transactional workload generator.
///
/// Generators are deterministic given the RNG stream: the same seed
/// produces the same transaction sequence, which is how experiments stay
/// reproducible.
pub trait Workload: std::fmt::Debug + Send {
    /// Display name, e.g. `"HT-wA"` or `"TPC-C"` (matching the paper's
    /// figure labels).
    fn name(&self) -> String;

    /// Generates the next transaction for a coordinator on `origin`.
    fn next_txn(&mut self, origin: NodeId, db: &Database, rng: &mut SimRng) -> TxnSpec;

    /// Fraction of operations that are writes, by construction (used for
    /// sanity checks against the paper's stated ratios).
    fn expected_write_fraction(&self) -> f64;
}

/// Rewrites a transaction's keys so each op targets the origin node with
/// probability `local_fraction` (Fig 12b's sensitivity knob). Keys are
/// re-sampled uniformly from the same table, preserving op kinds — and
/// therefore `sum_delta`.
pub fn apply_locality(
    txn: &mut TxnSpec,
    origin: NodeId,
    local_fraction: f64,
    db: &Database,
    rng: &mut SimRng,
) {
    for stage in &mut txn.stages {
        for op in stage {
            let want_local = rng.chance(local_fraction);
            let replacement = if want_local {
                db.random_key_at(op.table, origin, rng)
            } else {
                db.random_key_not_at(op.table, origin, rng)
            };
            if let Some(key) = replacement {
                op.key = key;
            }
        }
    }
    dedup_within_stages(txn);
}

/// Removes duplicate (table, key) targets within each stage, keeping the
/// first op (two independent client requests to the same key in one batch
/// collapse; writes win over reads).
pub fn dedup_within_stages(txn: &mut TxnSpec) {
    for stage in &mut txn.stages {
        let mut seen: Vec<(TableId, u64)> = Vec::new();
        // Writes win: sort writes first within the stage (stable).
        stage.sort_by_key(|op| !op.kind.is_write());
        stage.retain(|op| {
            if seen.contains(&(op.table, op.key)) {
                false
            } else {
                seen.push((op.table, op.key));
                true
            }
        });
    }
    txn.sum_delta = txn
        .stages
        .iter()
        .flatten()
        .map(|op| match op.kind {
            OpKind::Rmw { delta, .. } => delta,
            _ => 0,
        })
        .sum();
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_storage::index::IndexKind;

    fn op(table: u16, key: u64, kind: OpKind) -> OpSpec {
        OpSpec {
            table: TableId(table),
            key,
            kind,
        }
    }

    #[test]
    fn sum_delta_computed_from_rmws() {
        let t = TxnSpec::new(
            "transfer",
            vec![vec![
                op(0, 1, OpKind::Rmw { off: 0, delta: -50 }),
                op(0, 2, OpKind::Rmw { off: 0, delta: 50 }),
                op(0, 3, OpKind::Read),
            ]],
        );
        assert_eq!(t.sum_delta, 0);
        assert_eq!(t.num_ops(), 3);
        assert_eq!(t.num_writes(), 2);
    }

    #[test]
    fn dedup_prefers_writes() {
        let mut t = TxnSpec::new(
            "t",
            vec![vec![
                op(0, 1, OpKind::Read),
                op(0, 1, OpKind::Rmw { off: 0, delta: 5 }),
                op(0, 2, OpKind::Read),
            ]],
        );
        dedup_within_stages(&mut t);
        assert_eq!(t.num_ops(), 2);
        assert_eq!(t.num_writes(), 1);
        assert_eq!(t.sum_delta, 5);
    }

    #[test]
    fn locality_rewrite_targets_requested_node() {
        let mut db = Database::new(4);
        let table = db.create_table("t", IndexKind::HashTable);
        for key in 0..4000u64 {
            db.insert(table, key, &[0u8; 64]);
        }
        let mut rng = SimRng::seed_from(9);
        let origin = NodeId(2);
        let mut local_hits = 0;
        let mut total = 0;
        for _ in 0..200 {
            let mut t = TxnSpec::new(
                "t",
                vec![(0..5).map(|i| op(0, i, OpKind::Read)).collect::<Vec<_>>()],
            );
            apply_locality(&mut t, origin, 0.8, &db, &mut rng);
            for o in t.ops() {
                total += 1;
                if db.record(db.lookup(table, o.key).unwrap().rid).home() == origin {
                    local_hits += 1;
                }
            }
        }
        let frac = local_hits as f64 / total as f64;
        assert!((0.7..0.9).contains(&frac), "local fraction {frac}");
    }

    #[test]
    fn locality_rewrite_preserves_zero_sum() {
        let mut db = Database::new(2);
        let table = db.create_table("t", IndexKind::HashTable);
        for key in 0..100u64 {
            db.insert(table, key, &[0u8; 64]);
        }
        let mut rng = SimRng::seed_from(4);
        let mut t = TxnSpec::new(
            "transfer",
            vec![vec![
                op(0, 1, OpKind::Rmw { off: 0, delta: -9 }),
                op(0, 2, OpKind::Rmw { off: 0, delta: 9 }),
            ]],
        );
        apply_locality(&mut t, NodeId(0), 0.5, &db, &mut rng);
        assert_eq!(t.sum_delta, 0);
    }
}
