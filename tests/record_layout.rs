//! The compact record layout: a `Record` derives its home node from its
//! first line's slab and its line count from its value length, and its
//! 32-bit lock word holds any owner token of a real cluster, packed, and
//! reserves one "unlocked" value that no owner token can take.
//!
//! The value store: a record loaded with an all-zero value owns no bytes
//! until its first mutation, yet reads, writes and simulated addresses
//! behave exactly as for a record that owns its bytes.

use hades::core::runtime::owner_token;
use hades::sim::config::SimConfig;
use hades::sim::ids::{NodeId, SlotId};
use hades::storage::db::{home_of_line, Database};
use hades::storage::index::IndexKind;
use hades::storage::record::{Record, RecordId, LINE_BYTES};
use hades::workloads::smallbank::{Smallbank, SmallbankConfig, INITIAL_BALANCE, OFF_BALANCE};

#[test]
fn home_and_line_count_round_trip_on_every_node() {
    let nodes = 5;
    let mut db = Database::new(nodes);
    let t = db.create_table("t", IndexKind::HashTable);
    let lens = [1usize, 63, 64, 65, 100, 128, 129, 300];
    let check = |db: &Database, key: u64, home: NodeId, len: usize| {
        let r = db.record(db.lookup(t, key).expect("key present").rid);
        assert_eq!(r.home(), home, "key {key}");
        assert_eq!(r.value_len(), len, "key {key}");
        assert_eq!(
            r.num_lines() as usize,
            len.div_ceil(LINE_BYTES),
            "key {key}"
        );
        let lines: Vec<u64> = r.lines().collect();
        assert_eq!(lines.len(), r.num_lines() as usize, "key {key}");
        assert!(lines.iter().all(|&l| home_of_line(l) == home), "key {key}");
    };
    let mut key = 0;
    for n in 0..nodes {
        for &len in &lens {
            db.insert_at(t, key, &vec![n as u8; len], NodeId(n as u16));
            check(&db, key, NodeId(n as u16), len);
            key += 1;
        }
    }
}

#[test]
fn owner_tokens_never_equal_the_unlocked_word() {
    for node in [0, 1, 4, u16::MAX] {
        for slot in [0, 1, 9, u16::MAX] {
            assert_ne!(owner_token(NodeId(node), SlotId(slot)), Record::UNLOCKED);
        }
    }
}

#[test]
fn every_owner_token_round_trips_through_the_lock_word() {
    let mut db = Database::new(1);
    let t = db.create_table("t", IndexKind::HashTable);
    let rid = db.insert(t, 1, &[0u8; 64]);
    let shape = SimConfig::isca_default().shape;
    let slots = (shape.cores_per_node * shape.slots_per_core) as u16;
    let default_shape =
        (0..shape.nodes as u16).flat_map(|node| (0..slots).map(move |slot| (node, slot)));
    // The largest ids the 32-bit word takes: all but (0xFFFF, 0xFFFF).
    let largest = [(u16::MAX, u16::MAX - 1), (u16::MAX - 1, u16::MAX)];
    for (node, slot) in default_shape.chain(largest) {
        let token = owner_token(NodeId(node), SlotId(slot));
        let mut r = db.record_mut(rid);
        assert!(r.try_lock(token), "({node}, {slot})");
        assert_eq!(r.owner(), Some(token), "({node}, {slot})");
        assert!(r.locked_by(token));
        assert!(
            !r.locked_by(token ^ 1),
            "({node}, {slot}) is not its neighbour"
        );
        r.unlock(token);
        assert_eq!(r.owner(), None);
        assert!(!r.is_locked());
    }
}

#[test]
#[should_panic(expected = "does not pack into a 32-bit lock word")]
fn a_token_the_lock_word_cannot_hold_is_refused() {
    let mut db = Database::new(1);
    let t = db.create_table("t", IndexKind::HashTable);
    let rid = db.insert(t, 1, &[0u8; 64]);
    // Node 0xFFFF, slot 0xFFFF packs to the unlocked word itself.
    db.record_mut(rid)
        .try_lock(owner_token(NodeId(u16::MAX), SlotId(u16::MAX)));
}

#[test]
#[should_panic(expected = "the unlocked word is no owner")]
fn try_lock_rejects_the_unlocked_word() {
    let mut db = Database::new(1);
    let t = db.create_table("t", IndexKind::HashTable);
    let rid = db.insert(t, 1, &[0u8; 64]);
    db.record_mut(rid).try_lock(Record::UNLOCKED);
}

/// The value of `rid`, read whole.
fn value(db: &Database, rid: RecordId) -> Vec<u8> {
    let r = db.record(rid);
    r.read(0, r.value_len()).to_vec()
}

#[test]
fn a_record_loaded_with_zeros_reads_back_zeros() {
    let mut db = Database::new(2);
    let t = db.create_table("t", IndexKind::HashTable);
    let small = db.insert_at(t, 1, &[0u8; 8], NodeId(0));
    let large = db.insert_at(t, 2, &[0u8; 300], NodeId(1));
    let after = db.insert_at(t, 3, &[0u8; 64], NodeId(0));
    assert_eq!(value(&db, small), vec![0u8; 8]);
    assert_eq!(value(&db, large), vec![0u8; 300]);
    assert_eq!(db.record(large).read_u64(292), 0);
    assert_eq!(value(&db, after), vec![0u8; 64]);
    // Zero values still take their lines of the simulated address space.
    let small_line = db.record(small).lines().next().unwrap();
    assert_eq!(db.record(after).lines().next(), Some(small_line + 1));
}

#[test]
fn a_zero_records_first_write_round_trips_and_leaves_its_neighbours_alone() {
    let mut db = Database::new(2);
    let t = db.create_table("t", IndexKind::HashTable);
    let ones: Vec<u8> = (1..=100u8).collect();
    // Zero and non-zero records interleaved on node 0, one more elsewhere.
    let a = db.insert_at(t, 1, &[0u8; 100], NodeId(0));
    let b = db.insert_at(t, 2, &ones, NodeId(0));
    let c = db.insert_at(t, 3, &[0u8; 100], NodeId(0));
    let d = db.insert_at(t, 4, &[0u8; 100], NodeId(0));
    let e = db.insert_at(t, 5, &ones, NodeId(1));
    let lines: Vec<Vec<u64>> = [a, b, c, d, e]
        .iter()
        .map(|&r| db.record(r).lines().collect())
        .collect();
    assert_eq!(lines[1][0], lines[0][1] + 1, "slab lines stay consecutive");
    assert_eq!(lines[2][0], lines[1][1] + 1, "slab lines stay consecutive");

    db.record_mut(c).write(60, &[0xAA; 10]);
    db.record_mut(c).write_u64(92, 0x0102_0304_0506_0708);
    let mut expect = vec![0u8; 100];
    expect[60..70].fill(0xAA);
    expect[92..100].copy_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
    assert_eq!(value(&db, c), expect, "the first write round-trips");
    assert_eq!(db.record(c).read_u64(92), 0x0102_0304_0506_0708);
    assert_eq!(value(&db, a), vec![0u8; 100], "zero neighbour unchanged");
    assert_eq!(value(&db, d), vec![0u8; 100], "zero neighbour unchanged");
    assert_eq!(value(&db, b), ones, "non-zero neighbour unchanged");
    assert_eq!(value(&db, e), ones, "other node unchanged");

    // A later write to another zero record leaves the first one alone.
    db.record_mut(a).fill(0, 100, 0x55);
    assert_eq!(value(&db, a), vec![0x55; 100]);
    assert_eq!(value(&db, c), expect);
    assert_eq!(value(&db, d), vec![0u8; 100]);
    // Bumping the version through the view moves no value byte.
    db.record_mut(d).bump_version();
    assert_eq!(value(&db, d), vec![0u8; 100]);
    assert_eq!(db.record(d).version(), 1);
    let after: Vec<Vec<u64>> = [a, b, c, d, e]
        .iter()
        .map(|&r| db.record(r).lines().collect())
        .collect();
    assert_eq!(after, lines, "mutation moves no simulated address");
}

#[test]
fn a_smallbank_load_round_trips_every_balance() {
    let mut db = Database::new(5);
    let bank = Smallbank::setup(&mut db, SmallbankConfig::paper().scaled(0.0002));
    let off = OFF_BALANCE as usize;
    for table in [bank.checking(), bank.savings()] {
        for node in 0..5 {
            for &key in db.keys_at(table, NodeId(node)) {
                let rid = db.lookup(table, key).unwrap().rid;
                assert_eq!(db.record(rid).read_u64(off), INITIAL_BALANCE, "key {key}");
            }
        }
    }
    assert_eq!(bank.total_money(&db), bank.initial_total());
    let rid = db.lookup(bank.checking(), 7).unwrap().rid;
    assert_eq!(db.record_mut(rid).add_u64(off, 25), INITIAL_BALANCE + 25);
    assert_eq!(db.record(rid).read_u64(off), INITIAL_BALANCE + 25);
    assert_eq!(bank.total_money(&db), bank.initial_total() + 25);
}
