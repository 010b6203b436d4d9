//! Pins every lookup's traversal depth in the hash table and the B-tree.
//!
//! The engines charge `index_per_level × depth` of simulated time for
//! each index walk (`SwCosts::index_per_level`), so a change to either
//! store's layout must leave every key's `(rid, depth)` exactly where it
//! was. Each case fills a store with one kind of key — sequential,
//! strided or xorshift — and digests every key's lookup, plus the final
//! `len`, against constants recorded before the stores were compacted.
//!
//! Each store is filled twice: one `insert` per key, and in
//! `insert_batch` calls of uneven sizes, the way the database loads.
//! Both must reach the same digests; the batch boundaries fall inside
//! hash-table grows and B-tree root splits, which a test checks.

use hades::storage::index::{BTree, HashTable, KvIndex};
use hades::storage::record::RecordId;
use hades_bench::golden::{fnv1a, FNV_OFFSET};

const KEYS: u64 = 20_000;

/// Batch sizes a bulk fill cycles through: uneven, so the boundaries
/// fall at every phase of the stores' grows and splits.
const BATCHES: [usize; 4] = [1, 13, 250, 4_096];

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

/// How a store is filled: one `insert` per key, or `insert_batch`
/// over [`BATCHES`].
#[derive(Debug, Clone, Copy)]
enum Fill {
    PerKey,
    Batched,
}

/// `keys` with their rids (insertion positions), cut into batches of
/// the [`BATCHES`] sizes in turn.
fn batches(keys: &[u64]) -> Vec<Vec<(u64, RecordId)>> {
    let entries: Vec<(u64, RecordId)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, RecordId(i as u32)))
        .collect();
    let mut out = Vec::new();
    let mut rest = &entries[..];
    for &size in BATCHES.iter().cycle() {
        if rest.is_empty() {
            return out;
        }
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        out.push(batch.to_vec());
        rest = tail;
    }
    unreachable!("the cycle ends when the entries do")
}

/// Fills `idx` with `keys`, the key at position `i` mapping to rid `i`.
fn fill(idx: &mut dyn KvIndex, keys: &[u64], how: Fill) {
    match how {
        Fill::PerKey => {
            for (i, &k) in keys.iter().enumerate() {
                idx.insert(k, RecordId(i as u32));
            }
        }
        Fill::Batched => {
            for batch in batches(keys) {
                idx.insert_batch(&batch, &mut |key, _| panic!("key {key} repeats"));
            }
        }
    }
}

/// Fills `idx` with one key set and digests every key's lookup in
/// insertion order plus the final length.
fn digest(idx: &mut dyn KvIndex, keys: &[u64], how: Fill) -> (u64, usize) {
    fill(idx, keys, how);
    let word = |h: u64, w: u64| fnv1a(h, &w.to_le_bytes());
    let mut h = FNV_OFFSET;
    for &k in keys {
        h = match idx.get(k) {
            Some(hit) => word(word(h, hit.rid.0 as u64), hit.depth as u64),
            None => word(h, u64::MAX),
        };
    }
    (word(h, idx.len() as u64), idx.len())
}

fn check(make: fn() -> Box<dyn KvIndex>, pinned: [(u64, usize); 3]) {
    let mut drift = Vec::new();
    for ((name, keys), want) in key_sets().into_iter().zip(pinned) {
        for how in [Fill::PerKey, Fill::Batched] {
            let got = digest(make().as_mut(), &keys, how);
            println!("{name} {how:?}: (0x{:016x}, {})", got.0, got.1);
            if got != want {
                drift.push(format!(
                    "{name} {how:?}: got (0x{:016x}, {}), want (0x{:016x}, {})",
                    got.0, got.1, want.0, want.1
                ));
            }
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

/// The bulk fills above exercise what they claim: for every key set, some
/// batch spans a hash-table grow and some batch spans a B-tree root
/// split (the tree gains a level mid-batch).
#[test]
fn batches_straddle_grows_and_root_splits() {
    for (name, keys) in key_sets() {
        let (mut ht, mut bt) = (HashTable::new(), BTree::new());
        let (mut grows, mut root_splits) = (0, 0);
        for batch in batches(&keys).iter().filter(|b| b.len() > 1) {
            let (capacity, height) = (ht.capacity(), bt.height());
            ht.insert_batch(batch, &mut |key, _| panic!("key {key} repeats"));
            bt.insert_batch(batch, &mut |key, _| panic!("key {key} repeats"));
            grows += usize::from(ht.capacity() != capacity);
            root_splits += usize::from(bt.height() != height);
        }
        println!("{name}: {grows} batches grew the table, {root_splits} split the root");
        assert!(grows > 0, "{name}: no batch spans a grow");
        assert!(root_splits > 0, "{name}: no batch spans a root split");
    }
}
