//! TATP: the Telecom Application Transaction Processing benchmark.
//!
//! Section VII: a telecommunication database with 1 M subscribers, 80% read
//! / 20% write requests, and a small number of requests per transaction.
//! The standard seven transaction types are modeled over four tables
//! (subscriber, access-info, special-facility, call-forwarding); the two
//! insert/delete call-forwarding transactions are modeled as updates of
//! preallocated rows (tables do not grow mid-run).

use crate::spec::{dedup_within_stages, OpKind, OpSpec, TxnSpec, Workload};
use hades_sim::ids::NodeId;
use hades_sim::rng::SimRng;
use hades_storage::db::{Database, Row, TableId};
use hades_storage::index::IndexKind;

/// TATP sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TatpConfig {
    /// Number of subscribers (paper: 1 M).
    pub subscribers: u64,
}

impl TatpConfig {
    /// The paper's sizing.
    pub fn paper() -> Self {
        TatpConfig {
            subscribers: 1_000_000,
        }
    }

    /// Scales the subscriber count by `f`.
    pub fn scaled(mut self, f: f64) -> Self {
        self.subscribers = ((self.subscribers as f64 * f) as u64).max(1_000);
        self
    }
}

/// The TATP workload generator.
#[derive(Debug)]
pub struct Tatp {
    cfg: TatpConfig,
    subscriber: TableId,
    access_info: TableId,
    special_facility: TableId,
    call_forwarding: TableId,
}

impl Tatp {
    /// Loads the four tables and returns the generator.
    pub fn setup(db: &mut Database, cfg: TatpConfig) -> Self {
        let subscriber = db.create_table("tatp-subscriber", IndexKind::HashTable);
        let access_info = db.create_table("tatp-access-info", IndexKind::HashTable);
        let special_facility = db.create_table("tatp-special-facility", IndexKind::HashTable);
        let call_forwarding = db.create_table("tatp-call-forwarding", IndexKind::BTree);
        db.insert_rows((0..cfg.subscribers).flat_map(|s| {
            [
                Row::new(subscriber, s, &[0u8; 128]),
                Row::new(access_info, s, &[0u8; 64]),
                Row::new(special_facility, s, &[0u8; 64]),
                Row::new(call_forwarding, s, &[0u8; 64]),
            ]
        }));
        Tatp {
            cfg,
            subscriber,
            access_info,
            special_facility,
            call_forwarding,
        }
    }

    fn sid(&self, rng: &mut SimRng) -> u64 {
        rng.below(self.cfg.subscribers)
    }
}

impl Workload for Tatp {
    fn name(&self) -> String {
        "TATP".to_string()
    }

    fn next_txn(&mut self, _origin: NodeId, _db: &Database, rng: &mut SimRng) -> TxnSpec {
        let s = self.sid(rng);
        let roll = rng.below(100);
        let mut txn = match roll {
            // 35% GET_SUBSCRIBER_DATA: one read.
            0..=34 => TxnSpec::new(
                "get_subscriber_data",
                vec![vec![OpSpec {
                    table: self.subscriber,
                    key: s,
                    kind: OpKind::Read,
                }]],
            ),
            // 10% GET_NEW_DESTINATION: facility read, then forwarding read.
            35..=44 => TxnSpec::new(
                "get_new_destination",
                vec![vec![
                    OpSpec {
                        table: self.special_facility,
                        key: s,
                        kind: OpKind::Read,
                    },
                    OpSpec {
                        table: self.call_forwarding,
                        key: s,
                        kind: OpKind::Read,
                    },
                ]],
            ),
            // 35% GET_ACCESS_DATA: one read.
            45..=79 => TxnSpec::new(
                "get_access_data",
                vec![vec![OpSpec {
                    table: self.access_info,
                    key: s,
                    kind: OpKind::Read,
                }]],
            ),
            // 2% UPDATE_SUBSCRIBER_DATA: two field updates.
            80..=81 => TxnSpec::new(
                "update_subscriber_data",
                vec![vec![
                    OpSpec {
                        table: self.subscriber,
                        key: s,
                        kind: OpKind::Update { off: 0, len: 8 },
                    },
                    OpSpec {
                        table: self.special_facility,
                        key: s,
                        kind: OpKind::Update { off: 8, len: 8 },
                    },
                ]],
            ),
            // 14% UPDATE_LOCATION: one field update.
            82..=95 => TxnSpec::new(
                "update_location",
                vec![vec![OpSpec {
                    table: self.subscriber,
                    key: s,
                    kind: OpKind::Update { off: 32, len: 8 },
                }]],
            ),
            // 2% INSERT_CALL_FORWARDING: facility read + forwarding write.
            96..=97 => TxnSpec::new(
                "insert_call_forwarding",
                vec![
                    vec![OpSpec {
                        table: self.special_facility,
                        key: s,
                        kind: OpKind::Read,
                    }],
                    vec![OpSpec {
                        table: self.call_forwarding,
                        key: s,
                        kind: OpKind::Update { off: 0, len: 24 },
                    }],
                ],
            ),
            // 2% DELETE_CALL_FORWARDING: forwarding write.
            _ => TxnSpec::new(
                "delete_call_forwarding",
                vec![vec![OpSpec {
                    table: self.call_forwarding,
                    key: s,
                    kind: OpKind::Update { off: 0, len: 24 },
                }]],
            ),
        };
        dedup_within_stages(&mut txn);
        txn
    }

    fn expected_write_fraction(&self) -> f64 {
        0.2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Database, Tatp) {
        let mut db = Database::new(5);
        let w = Tatp::setup(&mut db, TatpConfig { subscribers: 2_000 });
        (db, w)
    }

    #[test]
    fn request_mix_is_80_20() {
        let (db, mut w) = tiny();
        let mut rng = SimRng::seed_from(1);
        let (mut writes, mut total) = (0usize, 0usize);
        for _ in 0..10_000 {
            let t = w.next_txn(NodeId(0), &db, &mut rng);
            writes += t.num_writes();
            total += t.num_ops();
        }
        let frac = writes as f64 / total as f64;
        // Paper: 80% read / 20% write requests.
        assert!((0.12..0.26).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn transactions_are_small() {
        let (db, mut w) = tiny();
        let mut rng = SimRng::seed_from(2);
        let total: usize = (0..2_000)
            .map(|_| w.next_txn(NodeId(0), &db, &mut rng).num_ops())
            .sum();
        let avg = total as f64 / 2_000.0;
        assert!(avg < 2.0, "TATP txns should be tiny, got {avg}");
    }

    #[test]
    fn all_generated_keys_exist() {
        let (db, mut w) = tiny();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1_000 {
            let t = w.next_txn(NodeId(0), &db, &mut rng);
            for op in t.ops() {
                assert!(db.lookup(op.table, op.key).is_some());
            }
        }
    }

    #[test]
    fn covers_all_transaction_types() {
        let (db, mut w) = tiny();
        let mut rng = SimRng::seed_from(4);
        let mut labels = std::collections::HashSet::new();
        for _ in 0..5_000 {
            labels.insert(w.next_txn(NodeId(0), &db, &mut rng).label);
        }
        for expected in [
            "get_subscriber_data",
            "get_new_destination",
            "get_access_data",
            "update_subscriber_data",
            "update_location",
            "insert_call_forwarding",
            "delete_call_forwarding",
        ] {
            assert!(labels.contains(expected), "missing {expected}");
        }
    }
}
