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
    nodes: Vec<Node>,
    /// Head forward pointers per level.
    head: Vec<Option<usize>>,
    /// Arena slots freed by removals, ready for reuse.
    free: Vec<usize>,
    level: usize,
    len: usize,
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
            free: Vec::new(),
            level: 1,
            len: 0,
        }
    }

    /// Arena capacity in nodes (diagnostics; stays bounded under
    /// insert/remove churn thanks to the free list).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
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
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.nodes.push(Node {
                    key: 0,
                    rid,
                    next: Vec::new(),
                });
                self.nodes.len() - 1
            }
        };
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
        self.nodes[idx] = Node { key, rid, next };
        self.len += 1;
        None
    }

    fn remove(&mut self, key: u64) -> Option<RecordId> {
        let (path, _) = self.find_path(key);
        let target = match path[0] {
            None => self.head[0],
            Some(i) => self.nodes[i].next[0],
        }?;
        if self.nodes[target].key != key {
            return None;
        }
        // Unlink at every level where a predecessor points at the target;
        // the freed arena slot is recycled by later inserts.
        #[allow(clippy::needless_range_loop)] // `path[l]` and `head[l]` pair up
        for l in 0..self.level {
            let next_at = match path[l] {
                None => self.head[l],
                Some(p) => self.nodes[p].next[l],
            };
            if next_at == Some(target) {
                let skip = self.nodes[target].next.get(l).copied().flatten();
                match path[l] {
                    None => self.head[l] = skip,
                    Some(p) => self.nodes[p].next[l] = skip,
                }
            }
        }
        self.len -= 1;
        let rid = self.nodes[target].rid;
        self.free.push(target);
        Some(rid)
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

    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> IndexKind {
        IndexKind::Map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_does_not_grow_arena() {
        let mut s = SkipList::new();
        for k in 0..100u64 {
            s.insert(k, RecordId(k as u32));
        }
        let before = s.arena_len();
        for round in 0..1_000u64 {
            let k = round % 100;
            s.remove(k).expect("present");
            s.insert(k, RecordId(0));
        }
        assert_eq!(s.arena_len(), before, "free list must recycle slots");
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn removal_keeps_order() {
        let mut s = SkipList::new();
        for k in 0..100u64 {
            s.insert(k, RecordId(k as u32));
        }
        for k in (0..100u64).step_by(3) {
            s.remove(k);
        }
        let keys: Vec<u64> = s.iter_keys().collect();
        let expect: Vec<u64> = (0..100u64).filter(|k| k % 3 != 0).collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn iteration_is_sorted_regardless_of_insert_order() {
        let mut s = SkipList::new();
        for k in [9u64, 3, 7, 1, 5, 2, 8, 6, 4, 0] {
            s.insert(k, RecordId(k as u32));
        }
        let keys: Vec<u64> = s.iter_keys().collect();
        assert_eq!(keys, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn depth_is_logarithmic() {
        let mut s = SkipList::new();
        for k in 0..100_000u64 {
            s.insert(k, RecordId(k as u32));
        }
        let total: u64 = (0..1000u64)
            .map(|i| s.get(i * 97).unwrap().depth as u64)
            .sum();
        let avg = total as f64 / 1000.0;
        // ~2*log2(n) expected; allow generous slack.
        assert!(avg < 80.0, "average skip-list depth {avg} too deep");
        assert!(avg > 5.0, "suspiciously shallow for 100k keys: {avg}");
    }

    #[test]
    fn structure_is_deterministic() {
        let mut a = SkipList::new();
        let mut b = SkipList::new();
        for k in 0..1000u64 {
            a.insert(k, RecordId(0));
        }
        for k in (0..1000u64).rev() {
            b.insert(k, RecordId(0));
        }
        // Same keys -> same tower heights -> same lookup depths.
        for k in (0..1000u64).step_by(37) {
            assert_eq!(a.get(k).unwrap().depth, b.get(k).unwrap().depth);
        }
    }
}
