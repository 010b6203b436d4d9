//! A deterministic skip list — the paper's ordered "Map" store.

use super::{IndexKind, KvIndex, Lookup};
use crate::record::RecordId;

const MAX_LEVEL: usize = 24;

#[derive(Debug)]
struct Node {
    key: u64,
    rid: RecordId,
    /// `next[l]` is the index of the next node at level `l`.
    next: Vec<Option<usize>>,
}

/// A skip list over `u64` keys with arena-allocated nodes and a
/// deterministic (hash-derived) level generator, so structure and lookup
/// depths are reproducible across runs.
///
/// # Examples
///
/// ```
/// use hades_storage::index::{KvIndex, SkipList};
/// use hades_storage::record::RecordId;
///
/// let mut m = SkipList::new();
/// m.insert(5, RecordId(0));
/// m.insert(1, RecordId(1));
/// assert_eq!(m.get(1).unwrap().rid, RecordId(1));
/// assert_eq!(m.iter_keys().collect::<Vec<_>>(), vec![1, 5]);
/// ```
#[derive(Debug)]
pub struct SkipList {
    /// One node per key, in insertion order.
    nodes: Vec<Node>,
    /// Head forward pointers per level.
    head: Vec<Option<usize>>,
    level: usize,
}

fn level_for(key: u64) -> usize {
    // Geometric(1/2) level derived from a hash of the key: deterministic,
    // independent of insertion order.
    let mut h = key.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 32;
    (h.trailing_ones() as usize + 1).min(MAX_LEVEL)
}

impl SkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        SkipList {
            nodes: Vec::new(),
            head: vec![None; MAX_LEVEL],
            level: 1,
        }
    }

    /// Iterates over keys in ascending order.
    pub fn iter_keys(&self) -> impl Iterator<Item = u64> + '_ {
        let mut cur = self.head[0];
        std::iter::from_fn(move || {
            let i = cur?;
            cur = self.nodes[i].next[0];
            Some(self.nodes[i].key)
        })
    }

    /// Finds the update path for `key`: for each level, the last node whose
    /// key is `< key` (or `None` for head). Returns (path, steps walked).
    fn find_path(&self, key: u64) -> ([Option<usize>; MAX_LEVEL], u32) {
        let mut path = [None; MAX_LEVEL];
        let mut steps = 0u32;
        let mut cur: Option<usize> = None; // None = head
        for l in (0..self.level).rev() {
            loop {
                let next = match cur {
                    None => self.head[l],
                    Some(i) => self.nodes[i].next[l],
                };
                match next {
                    Some(n) if self.nodes[n].key < key => {
                        cur = Some(n);
                        steps += 1;
                    }
                    _ => break,
                }
            }
            steps += 1; // one comparison per level descended
            path[l] = cur;
        }
        (path, steps)
    }
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl KvIndex for SkipList {
    fn insert(&mut self, key: u64, rid: RecordId) -> Option<RecordId> {
        let (path, _) = self.find_path(key);
        // Existing key?
        let at_level0 = match path[0] {
            None => self.head[0],
            Some(i) => self.nodes[i].next[0],
        };
        if let Some(n) = at_level0 {
            if self.nodes[n].key == key {
                let old = self.nodes[n].rid;
                self.nodes[n].rid = rid;
                return Some(old);
            }
        }
        let lvl = level_for(key);
        if lvl > self.level {
            self.level = lvl;
        }
        let mut next = vec![None; lvl];
        let idx = self.nodes.len();
        #[allow(clippy::needless_range_loop)]
        for l in 0..lvl {
            let pred = path[l];
            next[l] = match pred {
                None => self.head[l],
                Some(p) => self.nodes[p].next[l],
            };
            match pred {
                None => self.head[l] = Some(idx),
                Some(p) => self.nodes[p].next[l] = Some(idx),
            }
        }
        self.nodes.push(Node { key, rid, next });
        None
    }

    fn get(&self, key: u64) -> Option<Lookup> {
        let (path, steps) = self.find_path(key);
        let candidate = match path[0] {
            None => self.head[0],
            Some(i) => self.nodes[i].next[0],
        }?;
        if self.nodes[candidate].key == key {
            Some(Lookup {
                rid: self.nodes[candidate].rid,
                depth: steps.max(1),
            })
        } else {
            None
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, RecordId)) {
        for node in &self.nodes {
            f(node.key, node.rid);
        }
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn kind(&self) -> IndexKind {
        IndexKind::Map
    }
}
