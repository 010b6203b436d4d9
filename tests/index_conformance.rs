//! Behavioural conformance of the four key-value stores, through the
//! public `KvIndex` API: round trip, overwrite, adversarial keys, and a
//! differential insert/overwrite fuzz against `std::collections::HashMap`
//! that also checks the `(key, rid)` enumeration. `insert_batch` must
//! behave as one `insert` per entry, duplicate keys included, and the
//! database's batched load must still refuse a duplicate key.
//! Every store runs the same suite, and `new_index` builds each shape
//! under its paper label.

use hades::storage::db::{Database, Row};
use hades::storage::index::{new_index, IndexKind, KvIndex};
use hades::storage::record::RecordId;
use std::collections::HashMap;

fn insert_get_roundtrip(idx: &mut dyn KvIndex) {
    assert!(idx.is_empty());
    for k in 0..1000u64 {
        assert!(idx.insert(k * 7 + 1, RecordId(k as u32)).is_none());
    }
    assert_eq!(idx.len(), 1000);
    for k in 0..1000u64 {
        let hit = idx.get(k * 7 + 1).expect("key present");
        assert_eq!(hit.rid, RecordId(k as u32));
        assert!(hit.depth >= 1);
    }
    assert!(idx.get(5).is_none());
}

fn overwrite_returns_old(idx: &mut dyn KvIndex) {
    assert_eq!(idx.insert(42, RecordId(1)), None);
    assert_eq!(idx.insert(42, RecordId(2)), Some(RecordId(1)));
    assert_eq!(idx.get(42).unwrap().rid, RecordId(2));
    assert_eq!(idx.len(), 1);
}

fn handles_adversarial_keys(idx: &mut dyn KvIndex) {
    let keys = [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, 0xFFFF_0000];
    for (i, &k) in keys.iter().enumerate() {
        idx.insert(k, RecordId(i as u32));
    }
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(idx.get(k).unwrap().rid, RecordId(i as u32), "key {k}");
    }
}

/// Random inserts over a key domain small enough that most later ones
/// overwrite, checked step by step against `HashMap`.
fn differential_fuzz(idx: &mut dyn KvIndex, seed: u64) {
    let mut reference: HashMap<u64, RecordId> = HashMap::new();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..20_000u32 {
        let key = next() % 4096;
        let rid = RecordId(i);
        assert_eq!(
            idx.insert(key, rid),
            reference.insert(key, rid),
            "insert {key}"
        );
        if i % 1024 == 0 {
            assert_eq!(idx.len(), reference.len(), "len drift at step {i}");
        }
    }
    for (k, v) in &reference {
        assert_eq!(idx.get(*k).map(|l| l.rid), Some(*v), "final check {k}");
    }
    assert_eq!(idx.len(), reference.len());
    // The enumeration visits every stored pair exactly once.
    let mut seen: HashMap<u64, RecordId> = HashMap::new();
    idx.for_each(&mut |key, rid| {
        assert_eq!(seen.insert(key, rid), None, "key {key} visited twice");
    });
    assert_eq!(seen, reference, "enumeration differs from the reference");
}

/// The stored `(key, rid)` pairs in the store's own order.
fn pairs(idx: &dyn KvIndex) -> Vec<(u64, RecordId)> {
    let mut out = Vec::new();
    idx.for_each(&mut |key, rid| out.push((key, rid)));
    out
}

/// Random entries over a small key domain, so a batch repeats keys, both
/// within itself and against earlier batches: `insert_batch` must report
/// each replaced rid, and leave the store, exactly as `insert` would.
fn batch_matches_per_key_insert(kind: IndexKind, seed: u64) {
    let mut state = seed | 1;
    let entries: Vec<(u64, RecordId)> = (0..3_000u32)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 700, RecordId(i))
        })
        .collect();
    let mut reference = new_index(kind);
    let mut want = Vec::new();
    for &(key, rid) in &entries {
        if let Some(old) = reference.insert(key, rid) {
            want.push((key, old));
        }
    }
    let mut batched = new_index(kind);
    let mut got = Vec::new();
    for batch in entries.chunks(97) {
        batched.insert_batch(batch, &mut |key, old| got.push((key, old)));
    }
    assert!(!want.is_empty(), "the entries repeat keys");
    assert_eq!(got, want, "{kind:?}: replaced rids differ from insert's");
    assert_eq!(batched.len(), reference.len());
    assert_eq!(
        pairs(batched.as_ref()),
        pairs(reference.as_ref()),
        "{kind:?}"
    );
    assert_eq!(batched.get(entries[0].0), reference.get(entries[0].0));
}

/// Runs the whole suite on fresh stores of `kind`; `seed` drives the fuzz.
fn conforms(kind: IndexKind, seed: u64) {
    assert_eq!(new_index(kind).kind(), kind);
    insert_get_roundtrip(new_index(kind).as_mut());
    overwrite_returns_old(new_index(kind).as_mut());
    handles_adversarial_keys(new_index(kind).as_mut());
    differential_fuzz(new_index(kind).as_mut(), seed);
    batch_matches_per_key_insert(kind, seed);
}

#[test]
fn hash_table_conforms() {
    conforms(IndexKind::HashTable, 0xDEAD);
}

#[test]
fn btree_conforms() {
    conforms(IndexKind::BTree, 0xB7EE);
}

#[test]
fn skip_list_conforms() {
    conforms(IndexKind::Map, 0xBEEF);
}

#[test]
fn bplus_tree_conforms() {
    conforms(IndexKind::BPlusTree, 0xB9);
}

#[test]
#[should_panic(expected = "duplicate key 5")]
fn a_duplicate_key_inside_a_load_batch_panics() {
    let mut db = Database::new(2);
    let t = db.create_table("t", IndexKind::HashTable);
    let value = [0u8; 64];
    db.insert_rows((0..10).chain([5]).map(|key| Row::new(t, key, &value)));
}

#[test]
fn factory_builds_all_kinds() {
    for kind in [
        IndexKind::HashTable,
        IndexKind::Map,
        IndexKind::BTree,
        IndexKind::BPlusTree,
    ] {
        let mut idx = new_index(kind);
        assert_eq!(idx.kind(), kind);
        idx.insert(1, RecordId(9));
        assert_eq!(idx.get(1).unwrap().rid, RecordId(9));
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
    }
}

#[test]
fn labels_match_paper() {
    assert_eq!(IndexKind::HashTable.label(), "HT");
    assert_eq!(IndexKind::Map.label(), "Map");
    assert_eq!(IndexKind::BTree.label(), "BTree");
    assert_eq!(IndexKind::BPlusTree.label(), "B+Tree");
}
