//! Behavioural conformance of the four key-value stores, through the
//! public `KvIndex` API: round trip, overwrite, adversarial keys, remove
//! and reinsert, and a differential fuzz against
//! `std::collections::HashMap`. Every store runs the same suite.

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

fn remove_roundtrip(idx: &mut dyn KvIndex) {
    for k in 0..500u64 {
        idx.insert(k, RecordId(k as u32));
    }
    // Remove the odd keys.
    for k in (1..500u64).step_by(2) {
        assert_eq!(idx.remove(k), Some(RecordId(k as u32)), "remove {k}");
        assert_eq!(idx.remove(k), None, "double remove {k}");
    }
    assert_eq!(idx.len(), 250);
    for k in 0..500u64 {
        if k % 2 == 0 {
            assert_eq!(idx.get(k).unwrap().rid, RecordId(k as u32), "kept {k}");
        } else {
            assert!(idx.get(k).is_none(), "removed {k} still present");
        }
    }
    // Reinsert over the holes.
    for k in (1..500u64).step_by(2) {
        assert!(idx.insert(k, RecordId(9_000 + k as u32)).is_none());
    }
    assert_eq!(idx.len(), 500);
    assert_eq!(idx.get(333).unwrap().rid, RecordId(9_333));
}

/// Random inserts and removes over a small key domain (plenty of
/// collisions), checked step by step against `HashMap`.
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
        let key = next() % 512;
        match next() % 3 {
            0 | 1 => {
                let rid = RecordId(i);
                assert_eq!(
                    idx.insert(key, rid),
                    reference.insert(key, rid),
                    "insert {key}"
                );
            }
            _ => {
                assert_eq!(idx.remove(key), reference.remove(&key), "remove {key}");
            }
        }
        if i % 1024 == 0 {
            assert_eq!(idx.len(), reference.len(), "len drift at step {i}");
        }
    }
    for (k, v) in &reference {
        assert_eq!(idx.get(*k).map(|l| l.rid), Some(*v), "final check {k}");
    }
    assert_eq!(idx.len(), reference.len());
}

/// Runs the whole suite on fresh stores of `kind`; `seed` drives the fuzz.
fn conforms(kind: IndexKind, seed: u64) {
    assert_eq!(new_index(kind).kind(), kind);
    insert_get_roundtrip(new_index(kind).as_mut());
    overwrite_returns_old(new_index(kind).as_mut());
    handles_adversarial_keys(new_index(kind).as_mut());
    remove_roundtrip(new_index(kind).as_mut());
    differential_fuzz(new_index(kind).as_mut(), seed);
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
