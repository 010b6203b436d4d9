//! A B+-tree with linked leaves, as in the TLX store the paper uses.
//!
//! Unlike the [`BTree`](super::BTree), values live only in leaves and the
//! leaves form a singly linked list, enabling ordered range scans (used by
//! TPC-C order-line access patterns).

use super::{IndexKind, KvIndex, Lookup};
use crate::record::RecordId;

const MAX_LEAF: usize = 16;
const MAX_INNER: usize = 16;

#[derive(Debug, Clone)]
enum Node {
    Inner {
        /// Separator keys; child `i` holds keys `< keys[i]`, the last child
        /// holds the rest.
        keys: Vec<u64>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<u64>,
        rids: Vec<RecordId>,
        next: Option<usize>,
    },
}

/// A B+-tree over `u64` keys with linked leaves and range scans.
///
/// # Examples
///
/// ```
/// use hades_storage::index::{BPlusTree, KvIndex};
/// use hades_storage::record::RecordId;
///
/// let mut t = BPlusTree::new();
/// for k in [5u64, 1, 9, 3] {
///     t.insert(k, RecordId(k as u32));
/// }
/// let scan: Vec<u64> = t.scan_keys(2, 3).collect();
/// assert_eq!(scan, vec![3, 5, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    /// Arena slots abandoned by merges, recycled by splits.
    free: Vec<usize>,
    root: usize,
    len: usize,
}

impl BPlusTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        BPlusTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                rids: Vec::new(),
                next: None,
            }],
            free: Vec::new(),
            root: 0,
            len: 0,
        }
    }

    /// Allocates an arena slot, preferring recycled ones.
    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Height of the tree (1 for a lone root leaf).
    pub fn height(&self) -> u32 {
        let mut h = 1;
        let mut n = self.root;
        while let Node::Inner { children, .. } = &self.nodes[n] {
            n = children[0];
            h += 1;
        }
        h
    }

    /// Descends to the leaf that should hold `key`; returns (leaf index,
    /// path of (inner node, child position), depth).
    fn descend(&self, key: u64) -> (usize, Vec<(usize, usize)>, u32) {
        let mut n = self.root;
        let mut path = Vec::new();
        let mut depth = 1;
        loop {
            match &self.nodes[n] {
                Node::Inner { keys, children } => {
                    let pos = keys.partition_point(|&k| k <= key);
                    path.push((n, pos));
                    n = children[pos];
                    depth += 1;
                }
                Node::Leaf { .. } => return (n, path, depth),
            }
        }
    }

    fn split_leaf(&mut self, leaf: usize) -> (u64, usize) {
        let new_idx = match self.free.last() {
            Some(&i) => i,
            None => self.nodes.len(),
        };
        let (sep, new_leaf) = match &mut self.nodes[leaf] {
            Node::Leaf { keys, rids, next } => {
                let mid = keys.len() / 2;
                let rkeys = keys.split_off(mid);
                let rrids = rids.split_off(mid);
                let sep = rkeys[0];
                let new_leaf = Node::Leaf {
                    keys: rkeys,
                    rids: rrids,
                    next: next.take(),
                };
                *next = Some(new_idx);
                (sep, new_leaf)
            }
            Node::Inner { .. } => unreachable!("split_leaf on inner node"),
        };
        let got = self.alloc(new_leaf);
        debug_assert_eq!(got, new_idx);
        (sep, new_idx)
    }

    fn split_inner(&mut self, inner: usize) -> (u64, usize) {
        let new_idx = match self.free.last() {
            Some(&i) => i,
            None => self.nodes.len(),
        };
        let (sep, new_inner) = match &mut self.nodes[inner] {
            Node::Inner { keys, children } => {
                let mid = keys.len() / 2;
                let rkeys = keys.split_off(mid + 1);
                let rchildren = children.split_off(mid + 1);
                let sep = keys.pop().expect("inner node nonempty at split");
                (
                    sep,
                    Node::Inner {
                        keys: rkeys,
                        children: rchildren,
                    },
                )
            }
            Node::Leaf { .. } => unreachable!("split_inner on leaf"),
        };
        let got = self.alloc(new_inner);
        debug_assert_eq!(got, new_idx);
        (sep, new_idx)
    }

    fn insert_into_parents(
        &mut self,
        mut path: Vec<(usize, usize)>,
        mut sep: u64,
        mut new_child: usize,
    ) {
        while let Some((inner, pos)) = path.pop() {
            match &mut self.nodes[inner] {
                Node::Inner { keys, children } => {
                    keys.insert(pos, sep);
                    children.insert(pos + 1, new_child);
                    if keys.len() <= MAX_INNER {
                        return;
                    }
                }
                Node::Leaf { .. } => unreachable!("path contains only inner nodes"),
            }
            let (s, n) = self.split_inner(inner);
            sep = s;
            new_child = n;
        }
        // Split reached the root: grow the tree.
        let old_root = self.root;
        self.root = self.nodes.len();
        self.nodes.push(Node::Inner {
            keys: vec![sep],
            children: vec![old_root, new_child],
        });
    }

    /// Iterates keys in ascending order starting at the first key `>= from`,
    /// yielding at most `count` keys.
    pub fn scan_keys(&self, from: u64, count: usize) -> impl Iterator<Item = u64> + '_ {
        self.scan(from, count).map(|(k, _)| k)
    }

    /// Iterates `(key, rid)` pairs in ascending order starting at the first
    /// key `>= from`, yielding at most `count` entries.
    pub fn scan(&self, from: u64, count: usize) -> impl Iterator<Item = (u64, RecordId)> + '_ {
        let (leaf, _, _) = self.descend(from);
        let mut node = Some(leaf);
        let mut pos = match &self.nodes[leaf] {
            Node::Leaf { keys, .. } => keys.partition_point(|&k| k < from),
            Node::Inner { .. } => 0,
        };
        let mut remaining = count;
        std::iter::from_fn(move || loop {
            if remaining == 0 {
                return None;
            }
            let n = node?;
            match &self.nodes[n] {
                Node::Leaf { keys, rids, next } => {
                    if pos < keys.len() {
                        let out = (keys[pos], rids[pos]);
                        pos += 1;
                        remaining -= 1;
                        return Some(out);
                    }
                    node = *next;
                    pos = 0;
                }
                Node::Inner { .. } => unreachable!("leaf chain contains only leaves"),
            }
        })
    }
}

/// A node underflows below half its maximum occupancy.
const MIN_LEAF: usize = MAX_LEAF / 2;
const MIN_INNER: usize = MAX_INNER / 2;

impl BPlusTree {
    /// Rebalances an underfull node at `path` depth `level` (the deepest
    /// entry of `path` is the underfull node's parent); borrows from a
    /// sibling or merges, propagating inner underflow toward the root.
    fn rebalance_up(&mut self, mut path: Vec<(usize, usize)>) {
        while let Some((parent, pos)) = path.pop() {
            let child = match &self.nodes[parent] {
                Node::Inner { children, .. } => children[pos],
                Node::Leaf { .. } => unreachable!("path holds inner nodes"),
            };
            let (child_len, child_is_leaf) = match &self.nodes[child] {
                Node::Leaf { keys, .. } => (keys.len(), true),
                Node::Inner { keys, .. } => (keys.len(), false),
            };
            let min = if child_is_leaf { MIN_LEAF } else { MIN_INNER };
            if child_len >= min {
                return; // fixed (or never broken) at this level
            }
            let sibling_len = |tree: &Self, idx: usize| match &tree.nodes[idx] {
                Node::Leaf { keys, .. } => keys.len(),
                Node::Inner { keys, .. } => keys.len(),
            };
            let n_children = match &self.nodes[parent] {
                Node::Inner { children, .. } => children.len(),
                Node::Leaf { .. } => unreachable!(),
            };
            let left = (pos > 0).then(|| match &self.nodes[parent] {
                Node::Inner { children, .. } => children[pos - 1],
                Node::Leaf { .. } => unreachable!(),
            });
            let right = (pos + 1 < n_children).then(|| match &self.nodes[parent] {
                Node::Inner { children, .. } => children[pos + 1],
                Node::Leaf { .. } => unreachable!(),
            });
            if let Some(l) = left {
                if sibling_len(self, l) > min {
                    self.borrow_from_left(parent, pos, l, child, child_is_leaf);
                    return;
                }
            }
            if let Some(r) = right {
                if sibling_len(self, r) > min {
                    self.borrow_from_right(parent, pos, child, r, child_is_leaf);
                    return;
                }
            }
            // Merge with a sibling; the parent loses a key and may now be
            // underfull itself — continue up the path.
            if let Some(l) = left {
                self.merge_into_left(parent, pos - 1, l, child);
            } else if let Some(r) = right {
                self.merge_into_left(parent, pos, child, r);
            } else {
                return; // single-child parent: only possible at the root
            }
        }
        // Reached the root: collapse an empty inner root.
        if let Node::Inner { keys, children } = &self.nodes[self.root] {
            if keys.is_empty() {
                let old = self.root;
                self.root = children[0];
                self.free.push(old);
            }
        }
    }

    fn borrow_from_left(
        &mut self,
        parent: usize,
        pos: usize,
        left: usize,
        child: usize,
        is_leaf: bool,
    ) {
        if is_leaf {
            let (k, r) = match &mut self.nodes[left] {
                Node::Leaf { keys, rids, .. } => {
                    (keys.pop().expect("donor"), rids.pop().expect("donor"))
                }
                Node::Inner { .. } => unreachable!(),
            };
            match &mut self.nodes[child] {
                Node::Leaf { keys, rids, .. } => {
                    keys.insert(0, k);
                    rids.insert(0, r);
                }
                Node::Inner { .. } => unreachable!(),
            }
            // The separator left of `child` becomes the moved key.
            match &mut self.nodes[parent] {
                Node::Inner { keys, .. } => keys[pos - 1] = k,
                Node::Leaf { .. } => unreachable!(),
            }
        } else {
            let (k, c) = match &mut self.nodes[left] {
                Node::Inner { keys, children } => {
                    (keys.pop().expect("donor"), children.pop().expect("donor"))
                }
                Node::Leaf { .. } => unreachable!(),
            };
            let sep = match &mut self.nodes[parent] {
                Node::Inner { keys, .. } => std::mem::replace(&mut keys[pos - 1], k),
                Node::Leaf { .. } => unreachable!(),
            };
            match &mut self.nodes[child] {
                Node::Inner { keys, children } => {
                    keys.insert(0, sep);
                    children.insert(0, c);
                }
                Node::Leaf { .. } => unreachable!(),
            }
        }
    }

    fn borrow_from_right(
        &mut self,
        parent: usize,
        pos: usize,
        child: usize,
        right: usize,
        is_leaf: bool,
    ) {
        if is_leaf {
            let (k, r) = match &mut self.nodes[right] {
                Node::Leaf { keys, rids, .. } => (keys.remove(0), rids.remove(0)),
                Node::Inner { .. } => unreachable!(),
            };
            let new_sep = match &self.nodes[right] {
                Node::Leaf { keys, .. } => keys[0],
                Node::Inner { .. } => unreachable!(),
            };
            match &mut self.nodes[child] {
                Node::Leaf { keys, rids, .. } => {
                    keys.push(k);
                    rids.push(r);
                }
                Node::Inner { .. } => unreachable!(),
            }
            match &mut self.nodes[parent] {
                Node::Inner { keys, .. } => keys[pos] = new_sep,
                Node::Leaf { .. } => unreachable!(),
            }
        } else {
            let (k, c) = match &mut self.nodes[right] {
                Node::Inner { keys, children } => (keys.remove(0), children.remove(0)),
                Node::Leaf { .. } => unreachable!(),
            };
            let sep = match &mut self.nodes[parent] {
                Node::Inner { keys, .. } => std::mem::replace(&mut keys[pos], k),
                Node::Leaf { .. } => unreachable!(),
            };
            match &mut self.nodes[child] {
                Node::Inner { keys, children } => {
                    keys.push(sep);
                    children.push(c);
                }
                Node::Leaf { .. } => unreachable!(),
            }
        }
    }

    /// Merges the child at `sep_pos + 1` into the child at `sep_pos`,
    /// removing the separator; abandons the right node in the arena.
    fn merge_into_left(&mut self, parent: usize, sep_pos: usize, left: usize, right: usize) {
        let sep = match &mut self.nodes[parent] {
            Node::Inner { keys, children } => {
                let sep = keys.remove(sep_pos);
                children.remove(sep_pos + 1);
                sep
            }
            Node::Leaf { .. } => unreachable!(),
        };
        // Take the right node's contents.
        let right_node = std::mem::replace(
            &mut self.nodes[right],
            Node::Leaf {
                keys: Vec::new(),
                rids: Vec::new(),
                next: None,
            },
        );
        match (&mut self.nodes[left], right_node) {
            (
                Node::Leaf { keys, rids, next },
                Node::Leaf {
                    keys: rk,
                    rids: rr,
                    next: rnext,
                },
            ) => {
                keys.extend(rk);
                rids.extend(rr);
                *next = rnext; // keep the leaf chain intact
            }
            (
                Node::Inner { keys, children },
                Node::Inner {
                    keys: rk,
                    children: rc,
                },
            ) => {
                keys.push(sep);
                keys.extend(rk);
                children.extend(rc);
            }
            _ => unreachable!("siblings are the same node kind"),
        }
        self.free.push(right);
    }
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl KvIndex for BPlusTree {
    fn insert(&mut self, key: u64, rid: RecordId) -> Option<RecordId> {
        let (leaf, path, _) = self.descend(key);
        match &mut self.nodes[leaf] {
            Node::Leaf { keys, rids, .. } => match keys.binary_search(&key) {
                Ok(i) => {
                    let old = rids[i];
                    rids[i] = rid;
                    return Some(old);
                }
                Err(i) => {
                    keys.insert(i, key);
                    rids.insert(i, rid);
                    self.len += 1;
                    if keys.len() <= MAX_LEAF {
                        return None;
                    }
                }
            },
            Node::Inner { .. } => unreachable!("descend returns a leaf"),
        }
        let (sep, new_leaf) = self.split_leaf(leaf);
        self.insert_into_parents(path, sep, new_leaf);
        None
    }

    fn remove(&mut self, key: u64) -> Option<RecordId> {
        let (leaf, path, _) = self.descend(key);
        let removed = match &mut self.nodes[leaf] {
            Node::Leaf { keys, rids, .. } => match keys.binary_search(&key) {
                Ok(i) => {
                    keys.remove(i);
                    Some(rids.remove(i))
                }
                Err(_) => None,
            },
            Node::Inner { .. } => unreachable!("descend returns a leaf"),
        };
        if removed.is_some() {
            self.len -= 1;
            self.rebalance_up(path);
        }
        removed
    }

    fn get(&self, key: u64) -> Option<Lookup> {
        let (leaf, _, depth) = self.descend(key);
        match &self.nodes[leaf] {
            Node::Leaf { keys, rids, .. } => keys.binary_search(&key).ok().map(|i| Lookup {
                rid: rids[i],
                depth,
            }),
            Node::Inner { .. } => unreachable!("descend returns a leaf"),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> IndexKind {
        IndexKind::BPlusTree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_chain_survives_merges() {
        let mut t = BPlusTree::new();
        for k in 0..2_000u64 {
            t.insert(k, RecordId(k as u32));
        }
        // Remove a broad band in the middle, forcing leaf merges.
        for k in 400..1_600u64 {
            assert!(t.remove(k).is_some());
        }
        let keys: Vec<u64> = t.scan_keys(0, 3_000).collect();
        let expect: Vec<u64> = (0..400).chain(1_600..2_000).collect();
        assert_eq!(keys, expect, "leaf chain broken by merges");
    }

    #[test]
    fn delete_everything_then_scan_is_empty() {
        let mut t = BPlusTree::new();
        for k in 0..3_000u64 {
            t.insert(k, RecordId(k as u32));
        }
        for k in (0..3_000u64).rev() {
            assert_eq!(t.remove(k), Some(RecordId(k as u32)));
        }
        assert!(t.is_empty());
        assert_eq!(t.scan_keys(0, 10).count(), 0);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn scan_crosses_leaf_boundaries() {
        let mut t = BPlusTree::new();
        for k in 0..500u64 {
            t.insert(k * 2, RecordId(k as u32)); // even keys
        }
        let got: Vec<u64> = t.scan_keys(101, 10).collect();
        assert_eq!(got, (51..61).map(|k| k * 2).collect::<Vec<_>>());
        // Scan past the end stops cleanly.
        let tail: Vec<u64> = t.scan_keys(995, 10).collect();
        assert_eq!(tail, vec![996, 998]);
        // Scan from before the first key.
        let head: Vec<u64> = t.scan_keys(0, 3).collect();
        assert_eq!(head, vec![0, 2, 4]);
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut t = BPlusTree::new();
        for k in 0..200_000u64 {
            t.insert(k, RecordId(k as u32));
        }
        let h = t.height();
        assert!((4..=8).contains(&h), "height {h}");
        for k in (0..200_000u64).step_by(7919) {
            let hit = t.get(k).unwrap();
            assert_eq!(hit.depth, h, "every lookup reaches a leaf");
        }
    }

    #[test]
    fn random_order_inserts_all_found_and_sorted() {
        let mut t = BPlusTree::new();
        let mut key = 7u64;
        let mut keys = Vec::new();
        for i in 0..20_000u32 {
            key = key.wrapping_mul(6364136223846793005).wrapping_add(13);
            t.insert(key, RecordId(i));
            keys.push(key);
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(t.len(), keys.len());
        let scanned: Vec<u64> = t.scan_keys(0, keys.len() + 10).collect();
        assert_eq!(scanned, keys);
    }
}
