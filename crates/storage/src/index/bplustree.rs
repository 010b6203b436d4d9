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
            root: 0,
            len: 0,
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
        let new_idx = self.nodes.len();
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
        self.nodes.push(new_leaf);
        (sep, new_idx)
    }

    fn split_inner(&mut self, inner: usize) -> (u64, usize) {
        let new_idx = self.nodes.len();
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
        self.nodes.push(new_inner);
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

    /// Walks the leaves in arena order, every one of which is in the
    /// tree: the store never frees one.
    fn for_each(&self, f: &mut dyn FnMut(u64, RecordId)) {
        for node in &self.nodes {
            if let Node::Leaf { keys, rids, .. } = node {
                for (&key, &rid) in keys.iter().zip(rids) {
                    f(key, rid);
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> IndexKind {
        IndexKind::BPlusTree
    }
}
