//! Property-based invariants: arbitrary randomized transactional workloads
//! must conserve RMW sums and leave no hardware state behind, under all
//! three protocols.

use hades::core::runner::{Protocol, Run};
use hades::core::runtime::RunOutcome;
use hades::sim::config::{ClusterShape, SimConfig};
use hades::sim::ids::NodeId;
use hades::sim::rng::SimRng;
use hades::storage::db::{Database, TableId};
use hades::storage::IndexKind;
use hades::workloads::spec::{dedup_within_stages, OpKind, OpSpec, TxnSpec, Workload};
use proptest::prelude::*;

/// A fully randomized workload: every transaction draws 1–6 ops over a
/// small hot keyspace, mixing reads, field reads, updates and RMWs (the
/// RMW deltas are arbitrary — conservation checks use the ledger).
#[derive(Debug)]
struct FuzzWorkload {
    table: TableId,
    keys: u64,
    value_bytes: u32,
    write_bias: f64,
    max_ops: u64,
    two_stage_bias: f64,
}

impl Workload for FuzzWorkload {
    fn name(&self) -> String {
        "fuzz".into()
    }

    fn next_txn(&mut self, _origin: NodeId, _db: &Database, rng: &mut SimRng) -> TxnSpec {
        let n_ops = rng.range_inclusive(1, self.max_ops);
        let ops: Vec<OpSpec> = (0..n_ops)
            .map(|_| {
                let key = rng.below(self.keys);
                let kind = if rng.chance(self.write_bias) {
                    if rng.chance(0.5) {
                        OpKind::Rmw {
                            off: (rng.below((self.value_bytes / 8) as u64) * 8) as u32,
                            delta: rng.range_inclusive(1, 50) as i64 - 25,
                        }
                    } else {
                        let off = (rng.below((self.value_bytes / 16) as u64) * 16) as u32;
                        OpKind::Update { off, len: 16 }
                    }
                } else if rng.chance(0.5) {
                    OpKind::Read
                } else {
                    OpKind::ReadField {
                        off: (rng.below((self.value_bytes / 8) as u64) * 8) as u32,
                        len: 8,
                    }
                };
                OpSpec {
                    table: self.table,
                    key,
                    kind,
                }
            })
            .collect();
        let stages = if ops.len() > 1 && rng.chance(self.two_stage_bias) {
            let split = ops.len() / 2;
            vec![ops[..split].to_vec(), ops[split..].to_vec()]
        } else {
            vec![ops]
        };
        let mut txn = TxnSpec::new("fuzz", stages);
        dedup_within_stages(&mut txn);
        txn
    }

    fn expected_write_fraction(&self) -> f64 {
        self.write_bias
    }
}

fn run_fuzz(
    protocol: Protocol,
    seed: u64,
    keys: u64,
    write_bias: f64,
    two_stage_bias: f64,
) -> RunOutcome {
    let shape = ClusterShape {
        nodes: 3,
        cores_per_node: 2,
        slots_per_core: 2,
    };
    let cfg = SimConfig::isca_default().with_shape(shape).with_seed(seed);
    let mut db = Database::new(cfg.shape.nodes);
    let table = db.create_table("fuzz", IndexKind::HashTable);
    let value_bytes = 128u32;
    let value = vec![0u8; value_bytes as usize];
    for k in 0..keys {
        db.insert(table, k, &value);
    }
    let w = FuzzWorkload {
        table,
        keys,
        value_bytes,
        write_bias,
        max_ops: 6,
        two_stage_bias,
    };
    Run::loaded(protocol, cfg, db, Box::new(w), 0, 200).run()
}

/// Mixed Update/Rmw workloads cannot be conservation-checked at the byte
/// level (Updates stamp a fixed pattern over arbitrary slots), so this
/// checks the structural invariants: nothing locked, nothing leaked, and
/// the run made progress. Byte-level conservation is covered by the
/// RMW-only property below and the Smallbank tests.
fn check_invariants(protocol: Protocol, out: &RunOutcome) {
    assert_eq!(out.leaks(), Vec::<String>::new(), "{protocol:?}");
    assert!(out.total_commits >= 200, "{protocol:?}: not enough commits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fuzzed_workloads_preserve_invariants_under_hades(
        seed in any::<u64>(),
        keys in 8u64..200,
        write_bias in 0.0f64..1.0,
        two_stage in 0.0f64..1.0,
    ) {
        let out = run_fuzz(Protocol::Hades, seed, keys, write_bias, two_stage);
        check_invariants(Protocol::Hades, &out);
    }

    #[test]
    fn fuzzed_workloads_preserve_invariants_under_baseline(
        seed in any::<u64>(),
        keys in 8u64..200,
        write_bias in 0.0f64..1.0,
        two_stage in 0.0f64..1.0,
    ) {
        let out = run_fuzz(Protocol::Baseline, seed, keys, write_bias, two_stage);
        check_invariants(Protocol::Baseline, &out);
    }

    #[test]
    fn fuzzed_workloads_preserve_invariants_under_hades_h(
        seed in any::<u64>(),
        keys in 8u64..200,
        write_bias in 0.0f64..1.0,
        two_stage in 0.0f64..1.0,
    ) {
        let out = run_fuzz(Protocol::HadesH, seed, keys, write_bias, two_stage);
        check_invariants(Protocol::HadesH, &out);
    }
}

/// Pure-RMW fuzzing *does* allow byte-level conservation checking: with no
/// Update ops, every balance slot only ever moves by committed deltas.
#[derive(Debug)]
struct RmwOnlyWorkload {
    table: TableId,
    keys: u64,
}

impl Workload for RmwOnlyWorkload {
    fn name(&self) -> String {
        "rmw-only".into()
    }

    fn next_txn(&mut self, _origin: NodeId, _db: &Database, rng: &mut SimRng) -> TxnSpec {
        let n = rng.range_inclusive(1, 4);
        let ops: Vec<OpSpec> = (0..n)
            .map(|_| OpSpec {
                table: self.table,
                key: rng.below(self.keys),
                kind: OpKind::Rmw {
                    off: 0,
                    delta: rng.range_inclusive(1, 100) as i64 - 50,
                },
            })
            .collect();
        let mut txn = TxnSpec::new("rmw", vec![ops]);
        dedup_within_stages(&mut txn);
        txn
    }

    fn expected_write_fraction(&self) -> f64 {
        1.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn rmw_sums_conserved_under_all_protocols(
        seed in any::<u64>(),
        keys in 4u64..64,
    ) {
        for protocol in Protocol::ALL {
            let shape = ClusterShape { nodes: 3, cores_per_node: 2, slots_per_core: 2 };
            let cfg = SimConfig::isca_default().with_shape(shape).with_seed(seed);
            let mut db = Database::new(cfg.shape.nodes);
            let table = db.create_table("rmw", IndexKind::BTree);
            for k in 0..keys {
                db.insert(table, k, &[0u8; 64]);
            }
            let w = RmwOnlyWorkload { table, keys };
            let out = Run::loaded(protocol, cfg, db, Box::new(w), 0, 150).run();
            let db = &out.cluster.db;
            let total: u64 = (0..keys)
                .map(|k| {
                    let rid = db.lookup(table, k).expect("key").rid;
                    db.record(rid).read_u64(0)
                })
                .fold(0u64, |a, b| a.wrapping_add(b));
            prop_assert_eq!(
                total,
                out.total_sum_delta as u64,
                "{:?} seed={} keys={}: commits={} squashes={}",
                protocol, seed, keys, out.total_commits, out.stats.squashes
            );
        }
    }
}
