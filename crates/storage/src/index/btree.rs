//! An in-memory B-tree (keys and values in every node), as in the
//! `cpp-btree` store the paper uses.

use super::{IndexKind, KvIndex, Lookup};
use crate::record::RecordId;

/// Maximum keys per node (order 16 keeps nodes around a few cache lines,
/// matching in-memory B-tree practice).
const MAX_KEYS: usize = 15;
const MIN_DEGREE: usize = MAX_KEYS.div_ceil(2); // t = 8; full node has 2t-1 keys

/// One node, flat: its keys, rids and child indices are inline arrays of
/// which the first `len` (keys, rids) and `len + 1` (children, inner
/// nodes only) are live, so no node owns a heap block.
#[derive(Debug, Clone)]
struct Node {
    keys: [u64; MAX_KEYS],
    rids: [RecordId; MAX_KEYS],
    children: [u32; MAX_KEYS + 1],
    len: u8,
    leaf: bool,
}

impl Node {
    fn new(leaf: bool) -> Self {
        Node {
            keys: [0; MAX_KEYS],
            rids: [RecordId(0); MAX_KEYS],
            children: [0; MAX_KEYS + 1],
            len: 0,
            leaf,
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn keys(&self) -> &[u64] {
        &self.keys[..self.len()]
    }

    /// The live children: empty for a leaf.
    fn children(&self) -> &[u32] {
        if self.leaf {
            &[]
        } else {
            &self.children[..self.len() + 1]
        }
    }

    fn child(&self, i: usize) -> usize {
        self.children()[i] as usize
    }

    fn is_leaf(&self) -> bool {
        self.leaf
    }

    fn is_full(&self) -> bool {
        self.len() == MAX_KEYS
    }

    /// Inserts `key`/`rid` at `i`, shifting the entries after it right.
    fn insert_entry(&mut self, i: usize, key: u64, rid: RecordId) {
        let n = self.len();
        self.keys.copy_within(i..n, i + 1);
        self.rids.copy_within(i..n, i + 1);
        self.keys[i] = key;
        self.rids[i] = rid;
        self.len += 1;
    }

    /// Inserts child `c` at `i` of an inner node, ahead of the entry
    /// insert that keeps the child count at `len + 1`.
    fn insert_child(&mut self, i: usize, c: u32) {
        let count = self.len() + 1;
        self.children.copy_within(i..count, i + 1);
        self.children[i] = c;
    }
}

/// An arena-allocated B-tree over `u64` keys. Lookup depth is the number of
/// nodes visited from the root.
///
/// # Examples
///
/// ```
/// use hades_storage::index::{BTree, KvIndex};
/// use hades_storage::record::RecordId;
///
/// let mut t = BTree::new();
/// for k in 0..100 {
///     t.insert(k, RecordId(k as u32));
/// }
/// assert_eq!(t.get(57).unwrap().rid, RecordId(57));
/// ```
#[derive(Debug, Clone)]
pub struct BTree {
    nodes: Vec<Node>,
    root: usize,
    len: usize,
}

impl BTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        BTree {
            nodes: vec![Node::new(true)],
            root: 0,
            len: 0,
        }
    }

    /// Height of the tree (1 for a lone root leaf).
    pub fn height(&self) -> u32 {
        let mut h = 1;
        let mut n = self.root;
        while !self.nodes[n].is_leaf() {
            n = self.nodes[n].child(0);
            h += 1;
        }
        h
    }

    /// Splits the full child `child_idx` of `parent`; `pos` is the child's
    /// position in the parent's children array.
    fn split_child(&mut self, parent: usize, pos: usize, child_idx: usize) {
        let mid = MIN_DEGREE - 1;
        let child = &mut self.nodes[child_idx];
        let mut right = Node::new(child.leaf);
        let moved = MAX_KEYS - mid - 1;
        right.keys[..moved].copy_from_slice(&child.keys[mid + 1..]);
        right.rids[..moved].copy_from_slice(&child.rids[mid + 1..]);
        right.children[..moved + 1].copy_from_slice(&child.children[mid + 1..]);
        right.len = moved as u8;
        child.len = mid as u8;
        let (mid_key, mid_rid) = (child.keys[mid], child.rids[mid]);
        let right_idx = u32::try_from(self.nodes.len()).expect("B-tree under 2^32 nodes");
        self.nodes.push(right);
        let p = &mut self.nodes[parent];
        p.insert_child(pos + 1, right_idx);
        p.insert_entry(pos, mid_key, mid_rid);
    }

    /// Inserts into a node known not to be full, splitting full children on
    /// the way down (CLRS preemptive splitting).
    fn insert_nonfull(&mut self, mut n: usize, key: u64, rid: RecordId) -> Option<RecordId> {
        loop {
            // A key past the node's last one goes right of it: the
            // binary search's answer, without its probes. An ascending
            // load takes this path at every level of the right spine.
            let keys = self.nodes[n].keys();
            let found = match keys.last() {
                Some(&last) if key > last => Err(keys.len()),
                _ => keys.binary_search(&key),
            };
            match found {
                Ok(i) => {
                    let old = self.nodes[n].rids[i];
                    self.nodes[n].rids[i] = rid;
                    return Some(old);
                }
                Err(i) => {
                    if self.nodes[n].is_leaf() {
                        self.nodes[n].insert_entry(i, key, rid);
                        self.len += 1;
                        return None;
                    }
                    let child = self.nodes[n].child(i);
                    if self.nodes[child].is_full() {
                        self.split_child(n, i, child);
                        // Re-dispatch around the promoted key.
                        match key.cmp(&self.nodes[n].keys[i]) {
                            std::cmp::Ordering::Equal => {
                                let old = self.nodes[n].rids[i];
                                self.nodes[n].rids[i] = rid;
                                return Some(old);
                            }
                            std::cmp::Ordering::Greater => {
                                n = self.nodes[n].child(i + 1);
                            }
                            std::cmp::Ordering::Less => {
                                n = self.nodes[n].child(i);
                            }
                        }
                    } else {
                        n = child;
                    }
                }
            }
        }
    }
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl KvIndex for BTree {
    fn insert(&mut self, key: u64, rid: RecordId) -> Option<RecordId> {
        if self.nodes[self.root].is_full() {
            let old_root = self.root;
            let mut new_root = Node::new(false);
            new_root.children[0] = old_root as u32;
            self.root = self.nodes.len();
            self.nodes.push(new_root);
            self.split_child(self.root, 0, old_root);
        }
        self.insert_nonfull(self.root, key, rid)
    }

    fn get(&self, key: u64) -> Option<Lookup> {
        let mut n = self.root;
        let mut depth = 1;
        loop {
            let node = &self.nodes[n];
            match node.keys().binary_search(&key) {
                Ok(i) => {
                    return Some(Lookup {
                        rid: node.rids[i],
                        depth,
                    })
                }
                Err(i) => {
                    if node.is_leaf() {
                        return None;
                    }
                    n = node.child(i);
                    depth += 1;
                }
            }
        }
    }

    /// Walks the node arena, every node of which is in the tree: the
    /// store never frees one.
    fn for_each(&self, f: &mut dyn FnMut(u64, RecordId)) {
        for node in &self.nodes {
            for (&key, &rid) in node.keys().iter().zip(&node.rids) {
                f(key, rid);
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> IndexKind {
        IndexKind::BTree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_is_248_bytes() {
        // 15 keys, 15 rids, 16 child indices, the length and the leaf flag.
        assert_eq!(std::mem::size_of::<Node>(), 248);
    }
}
