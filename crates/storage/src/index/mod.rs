//! Key-value index structures.
//!
//! The paper evaluates four stores — HashTable (HT), Map, B-Tree and
//! B+Tree (Section VII) — implemented here from scratch. Each index maps a
//! `u64` key to a [`RecordId`] and reports the *traversal depth* of every
//! lookup, which the simulators convert into index-walk latency
//! (`SwCosts::index_per_level`).
//!
//! The stores are insert-only: the paper's workloads never delete a key
//! (YCSB A/B read/update, TPC-C, TATP and Smallbank insert/update), so
//! none of the stores removes one, and their node arenas only grow.

use crate::record::RecordId;

pub mod bplustree;
pub mod btree;
pub mod hashtable;
pub mod skiplist;

pub use bplustree::BPlusTree;
pub use btree::BTree;
pub use hashtable::HashTable;
pub use skiplist::SkipList;

/// The four store shapes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Open-addressing hash table ("HT").
    HashTable,
    /// Skip list ("Map").
    Map,
    /// In-memory B-tree.
    BTree,
    /// B+-tree with linked leaves.
    BPlusTree,
}

impl IndexKind {
    /// Short display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            IndexKind::HashTable => "HT",
            IndexKind::Map => "Map",
            IndexKind::BTree => "BTree",
            IndexKind::BPlusTree => "B+Tree",
        }
    }
}

/// A successful lookup: the record handle and the number of node/probe
/// steps the traversal took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// The record the key maps to.
    pub rid: RecordId,
    /// Traversal depth (probes for a hash table, levels for trees/lists).
    pub depth: u32,
}

/// Common interface over the four index structures.
pub trait KvIndex: std::fmt::Debug {
    /// Inserts `key -> rid`; returns the previous mapping if any.
    fn insert(&mut self, key: u64, rid: RecordId) -> Option<RecordId>;

    /// Inserts every `(key, rid)` of `entries` in order, leaving the
    /// store exactly as one [`KvIndex::insert`] per entry would, and
    /// calls `replaced(key, old)` for each entry whose key was already
    /// mapped. A store may override it to overlap the entries' cache
    /// misses.
    fn insert_batch(
        &mut self,
        entries: &[(u64, RecordId)],
        replaced: &mut dyn FnMut(u64, RecordId),
    ) {
        for &(key, rid) in entries {
            if let Some(old) = self.insert(key, rid) {
                replaced(key, old);
            }
        }
    }

    /// Looks up `key`, reporting traversal depth.
    fn get(&self, key: u64) -> Option<Lookup>;

    /// Calls `f` once with every stored `(key, rid)` pair, in an order of
    /// the store's own choosing.
    fn for_each(&self, f: &mut dyn FnMut(u64, RecordId));

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which of the four shapes this is.
    fn kind(&self) -> IndexKind;
}

/// Constructs an empty index of the requested shape.
pub fn new_index(kind: IndexKind) -> Box<dyn KvIndex + Send> {
    match kind {
        IndexKind::HashTable => Box::new(HashTable::new()),
        IndexKind::Map => Box::new(SkipList::new()),
        IndexKind::BTree => Box::new(BTree::new()),
        IndexKind::BPlusTree => Box::new(BPlusTree::new()),
    }
}
