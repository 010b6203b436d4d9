//! The compact record layout: a `Record` derives its home node from its
//! first line's slab and its line count from its value length, and its
//! lock word reserves one "unlocked" value that no owner token can take.

use hades::core::runtime::owner_token;
use hades::sim::ids::{NodeId, SlotId};
use hades::storage::db::{home_of_line, Database};
use hades::storage::index::IndexKind;
use hades::storage::record::{Record, LINE_BYTES};

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
    // Free every record, then reuse each with a value of another length
    // that needs the same number of lines.
    for k in 0..key {
        db.remove(t, k).expect("key present");
    }
    let records = db.record_count();
    for n in 0..nodes {
        for &len in &lens {
            let shorter = (len.div_ceil(LINE_BYTES) - 1) * LINE_BYTES + 1;
            let home = NodeId(n as u16);
            let rid = db.insert_at(t, key, &vec![7; shorter], home);
            assert_eq!(db.record(rid).incarnation(), 1, "key {key} reuses");
            check(&db, key, home, shorter);
            key += 1;
        }
    }
    assert_eq!(db.record_count(), records, "every insert reused a record");
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
#[should_panic(expected = "the unlocked word is no owner")]
fn try_lock_rejects_the_unlocked_word() {
    let mut db = Database::new(1);
    let t = db.create_table("t", IndexKind::HashTable);
    let rid = db.insert(t, 1, &[0u8; 64]);
    db.record_mut(rid).try_lock(Record::UNLOCKED);
}
