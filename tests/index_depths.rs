//! Pins every lookup's traversal depth in the hash table and the B-tree.
//!
//! The engines charge `index_per_level × depth` of simulated time for
//! each index walk (`SwCosts::index_per_level`), so a change to either
//! store's layout must leave every key's `(rid, depth)` exactly where it
//! was. Each case fills a store with one kind of key — sequential,
//! strided or xorshift — and digests every key's lookup, plus the final
//! `len`, against constants recorded before the stores were compacted.

use hades::storage::index::{BTree, HashTable, KvIndex};
use hades::storage::record::RecordId;

const KEYS: u64 = 20_000;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// The three key sets, each as the keys it inserts.
fn key_sets() -> Vec<(&'static str, Vec<u64>)> {
    let sequential: Vec<u64> = (0..KEYS).collect();
    // Multiples of 64, visited in a strided (non-monotone) order.
    let strided: Vec<u64> = (0..KEYS).map(|k| (k * 7_919 % KEYS) * 64).collect();
    let mut next = xorshift(0x5EED);
    let random: Vec<u64> = (0..KEYS).map(|_| next()).collect();
    vec![
        ("sequential", sequential),
        ("strided", strided),
        ("xorshift", random),
    ]
}

/// Fills `idx` with one key set and digests every key's lookup in
/// insertion order plus the final length.
fn digest(idx: &mut dyn KvIndex, keys: &[u64]) -> (u64, usize) {
    for (i, &k) in keys.iter().enumerate() {
        idx.insert(k, RecordId(i as u32));
    }
    let mut h = Fnv::new();
    for &k in keys {
        match idx.get(k) {
            Some(hit) => {
                h.word(hit.rid.0 as u64);
                h.word(hit.depth as u64);
            }
            None => h.word(u64::MAX),
        }
    }
    h.word(idx.len() as u64);
    (h.0, idx.len())
}

fn check(make: fn() -> Box<dyn KvIndex>, pinned: [(u64, usize); 3]) {
    let mut drift = Vec::new();
    for ((name, keys), want) in key_sets().into_iter().zip(pinned) {
        let got = digest(make().as_mut(), &keys);
        println!("{name}: (0x{:016x}, {})", got.0, got.1);
        if got != want {
            drift.push(format!(
                "{name}: got (0x{:016x}, {}), want (0x{:016x}, {})",
                got.0, got.1, want.0, want.1
            ));
        }
    }
    assert!(drift.is_empty(), "lookup depths moved: {drift:?}");
}

#[test]
fn hash_table_depths_are_pinned() {
    check(
        || Box::new(HashTable::new()),
        [
            (0x7bc2_a94b_dfd7_e673, 20_000),
            (0xcdd1_f952_967e_6b39, 20_000),
            (0x099f_dd04_d5c0_cb18, 20_000),
        ],
    );
}

#[test]
fn btree_depths_are_pinned() {
    check(
        || Box::new(BTree::new()),
        [
            (0xc88b_9120_d8dc_bc5a, 20_000),
            (0x89c4_3380_9ab7_0b63, 20_000),
            (0x2ef3_a3aa_a778_e61d, 20_000),
        ],
    );
}
