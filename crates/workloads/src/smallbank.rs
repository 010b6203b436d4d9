//! Smallbank: bank-account transactions over checking and savings tables.
//!
//! Section VII: 5 M accounts, write-intensive (46% write requests). The six
//! standard transaction types are generated with the H-Store mix. Balance
//! movements use real read-modify-writes on record bytes, so a run can
//! assert the *conservation invariant*: the total money in the bank equals
//! the initial total plus the sum of the committed transactions'
//! `sum_delta` — any violation means the protocol leaked a partial write
//! or double-applied an update.

use crate::spec::{dedup_within_stages, OpKind, OpSpec, TxnSpec, Workload};
use hades_sim::ids::NodeId;
use hades_sim::rng::SimRng;
use hades_storage::db::{Database, Row, TableId};
use hades_storage::index::IndexKind;

/// Byte offset of the balance field in account records.
pub const OFF_BALANCE: u32 = 0;

/// Initial balance loaded into every account.
pub const INITIAL_BALANCE: u64 = 10_000;

/// Smallbank sizing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallbankConfig {
    /// Number of accounts (paper: 5 M).
    pub accounts: u64,
    /// Fraction of transactions that target a small hot set (standard
    /// Smallbank skews 90% of traffic to 10% of accounts... the H-Store
    /// default uses a hotspot of 100 accounts hit 90% of the time when
    /// enabled; disabled by default here).
    pub hotspot: Option<(u64, f64)>,
}

impl SmallbankConfig {
    /// The paper's sizing.
    pub fn paper() -> Self {
        SmallbankConfig {
            accounts: 5_000_000,
            hotspot: None,
        }
    }

    /// Scales the account count by `f`.
    pub fn scaled(mut self, f: f64) -> Self {
        self.accounts = ((self.accounts as f64 * f) as u64).max(1_000);
        self
    }
}

/// The Smallbank workload generator.
#[derive(Debug, Clone)]
pub struct Smallbank {
    cfg: SmallbankConfig,
    checking: TableId,
    savings: TableId,
}

impl Smallbank {
    /// Loads accounts (each with [`INITIAL_BALANCE`] in both tables) and
    /// returns the generator.
    pub fn setup(db: &mut Database, cfg: SmallbankConfig) -> Self {
        let checking = db.create_table("smallbank-checking", IndexKind::HashTable);
        let savings = db.create_table("smallbank-savings", IndexKind::HashTable);
        let mut v = [0u8; 64];
        v[..8].copy_from_slice(&INITIAL_BALANCE.to_le_bytes());
        db.insert_rows(
            (0..cfg.accounts).flat_map(|a| [Row::new(checking, a, &v), Row::new(savings, a, &v)]),
        );
        Smallbank {
            cfg,
            checking,
            savings,
        }
    }

    /// The checking table (for invariant checks).
    pub fn checking(&self) -> TableId {
        self.checking
    }

    /// The savings table (for invariant checks).
    pub fn savings(&self) -> TableId {
        self.savings
    }

    /// Expected total money at load time.
    pub fn initial_total(&self) -> u64 {
        2 * self.cfg.accounts * INITIAL_BALANCE
    }

    /// The conservation check: the bank must hold its initial total plus
    /// `sum_delta`, the net of every committed RMW delta (a run's
    /// `total_sum_delta`). Names both totals when it does not.
    pub fn check_conservation(&self, db: &Database, sum_delta: i64) -> Result<(), String> {
        let (initial, total) = (self.initial_total(), self.total_money(db));
        if total == initial.wrapping_add(sum_delta as u64) {
            Ok(())
        } else {
            Err(format!(
                "money not conserved (final {total} != initial {initial} + committed delta {sum_delta})"
            ))
        }
    }

    /// Sums every balance in both tables.
    pub fn total_money(&self, db: &Database) -> u64 {
        let mut sum = 0u64;
        for table in [self.checking, self.savings] {
            for a in 0..self.cfg.accounts {
                let rid = db.lookup(table, a).expect("account loaded").rid;
                sum = sum.wrapping_add(db.record(rid).read_u64(OFF_BALANCE as usize));
            }
        }
        sum
    }

    fn account(&self, rng: &mut SimRng) -> u64 {
        if let Some((hot, p)) = self.cfg.hotspot {
            if rng.chance(p) {
                return rng.below(hot.min(self.cfg.accounts));
            }
        }
        rng.below(self.cfg.accounts)
    }

    fn read(&self, table: TableId, key: u64) -> OpSpec {
        OpSpec {
            table,
            key,
            kind: OpKind::ReadField {
                off: OFF_BALANCE,
                len: 8,
            },
        }
    }

    fn rmw(&self, table: TableId, key: u64, delta: i64) -> OpSpec {
        OpSpec {
            table,
            key,
            kind: OpKind::Rmw {
                off: OFF_BALANCE,
                delta,
            },
        }
    }
}

impl Workload for Smallbank {
    fn name(&self) -> String {
        "Smallbank".to_string()
    }

    fn next_txn(&mut self, _origin: NodeId, _db: &Database, rng: &mut SimRng) -> TxnSpec {
        let a = self.account(rng);
        let amt = rng.range_inclusive(1, 100) as i64;
        let roll = rng.below(100);
        let mut txn = match roll {
            // 15% Balance: read both balances.
            0..=14 => TxnSpec::new(
                "balance",
                vec![vec![
                    self.read(self.checking, a),
                    self.read(self.savings, a),
                ]],
            ),
            // 15% DepositChecking.
            15..=29 => TxnSpec::new(
                "deposit_checking",
                vec![vec![self.rmw(self.checking, a, amt)]],
            ),
            // 15% TransactSavings: check funds, then update.
            30..=44 => TxnSpec::new(
                "transact_savings",
                vec![
                    vec![self.read(self.savings, a)],
                    vec![self.rmw(self.savings, a, amt)],
                ],
            ),
            // 15% Amalgamate: read both, move savings into checking.
            45..=59 => TxnSpec::new(
                "amalgamate",
                vec![
                    vec![self.read(self.checking, a), self.read(self.savings, a)],
                    vec![
                        self.rmw(self.savings, a, -amt),
                        self.rmw(self.checking, a, amt),
                    ],
                ],
            ),
            // 15% WriteCheck: read both, debit checking.
            60..=74 => TxnSpec::new(
                "write_check",
                vec![
                    vec![self.read(self.checking, a), self.read(self.savings, a)],
                    vec![self.rmw(self.checking, a, -amt)],
                ],
            ),
            // 25% SendPayment: zero-sum transfer between two accounts.
            _ => {
                let mut b = self.account(rng);
                if b == a {
                    b = (b + 1) % self.cfg.accounts;
                }
                TxnSpec::new(
                    "send_payment",
                    vec![
                        vec![self.read(self.checking, a)],
                        vec![
                            self.rmw(self.checking, a, -amt),
                            self.rmw(self.checking, b, amt),
                        ],
                    ],
                )
            }
        };
        dedup_within_stages(&mut txn);
        txn
    }

    fn expected_write_fraction(&self) -> f64 {
        0.46
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Database, Smallbank) {
        let mut db = Database::new(4);
        let w = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts: 2_000,
                hotspot: None,
            },
        );
        (db, w)
    }

    #[test]
    fn write_fraction_near_46_percent() {
        let (db, mut w) = tiny();
        let mut rng = SimRng::seed_from(1);
        let (mut writes, mut total) = (0usize, 0usize);
        for _ in 0..10_000 {
            let t = w.next_txn(NodeId(0), &db, &mut rng);
            writes += t.num_writes();
            total += t.num_ops();
        }
        let frac = writes as f64 / total as f64;
        assert!((0.38..0.56).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn initial_total_matches_loaded_money() {
        let (db, w) = tiny();
        assert_eq!(w.total_money(&db), w.initial_total());
    }

    #[test]
    fn send_payment_is_zero_sum() {
        let (db, mut w) = tiny();
        let mut rng = SimRng::seed_from(2);
        for _ in 0..2_000 {
            let t = w.next_txn(NodeId(0), &db, &mut rng);
            match t.label {
                "send_payment" | "amalgamate" => assert_eq!(t.sum_delta, 0, "{}", t.label),
                "balance" => assert_eq!(t.sum_delta, 0),
                _ => {}
            }
        }
    }

    #[test]
    fn applying_deltas_by_hand_preserves_invariant() {
        // Sanity-check the invariant arithmetic outside any protocol: apply
        // each transaction's RMWs directly and compare against sum_delta.
        let (mut db, mut w) = tiny();
        let mut rng = SimRng::seed_from(3);
        let mut expected: i64 = 0;
        for _ in 0..3_000 {
            let t = w.next_txn(NodeId(0), &db, &mut rng);
            for op in t.ops() {
                if let OpKind::Rmw { off, delta } = op.kind {
                    let rid = db.lookup(op.table, op.key).unwrap().rid;
                    db.record_mut(rid).add_u64(off as usize, delta);
                }
            }
            expected += t.sum_delta;
        }
        assert_eq!(w.check_conservation(&db, expected), Ok(()));
        let rid = db.lookup(w.checking(), 0).unwrap().rid;
        db.record_mut(rid).add_u64(OFF_BALANCE as usize, 1);
        let moved = w.check_conservation(&db, expected).unwrap_err();
        assert!(moved.contains("money not conserved"), "{moved}");
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mut db = Database::new(2);
        let mut w = Smallbank::setup(
            &mut db,
            SmallbankConfig {
                accounts: 10_000,
                hotspot: Some((100, 0.9)),
            },
        );
        let mut rng = SimRng::seed_from(4);
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..5_000 {
            let t = w.next_txn(NodeId(0), &db, &mut rng);
            for op in t.ops() {
                total += 1;
                if op.key < 100 {
                    hot += 1;
                }
            }
        }
        let frac = hot as f64 / total as f64;
        assert!(frac > 0.7, "hotspot fraction {frac}");
    }

    #[test]
    fn covers_all_transaction_types() {
        let (db, mut w) = tiny();
        let mut rng = SimRng::seed_from(5);
        let mut labels = std::collections::HashSet::new();
        for _ in 0..3_000 {
            labels.insert(w.next_txn(NodeId(0), &db, &mut rng).label);
        }
        for expected in [
            "balance",
            "deposit_checking",
            "transact_savings",
            "amalgamate",
            "write_check",
            "send_payment",
        ] {
            assert!(labels.contains(expected), "missing {expected}");
        }
    }
}
