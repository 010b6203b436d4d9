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

    /// Removes and returns the entry at `i`, shifting later ones left.
    fn remove_entry(&mut self, i: usize) -> (u64, RecordId) {
        let n = self.len();
        let out = (self.keys[i], self.rids[i]);
        self.keys.copy_within(i + 1..n, i);
        self.rids.copy_within(i + 1..n, i);
        self.len -= 1;
        out
    }

    /// Inserts child `c` at `i` of an inner node, ahead of the entry
    /// insert that keeps the child count at `len + 1`.
    fn insert_child(&mut self, i: usize, c: u32) {
        let count = self.len() + 1;
        self.children.copy_within(i..count, i + 1);
        self.children[i] = c;
    }

    /// Removes the child at `i` of an inner node, ahead of the entry
    /// removal that keeps the child count at `len + 1`.
    fn remove_child(&mut self, i: usize) -> u32 {
        let c = self.children[i];
        let count = self.len() + 1;
        self.children.copy_within(i + 1..count, i);
        c
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
    /// Arena slots abandoned by merges, recycled by splits.
    free: Vec<usize>,
    root: usize,
    len: usize,
}

impl BTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        BTree {
            nodes: vec![Node::new(true)],
            free: Vec::new(),
            root: 0,
            len: 0,
        }
    }

    /// Allocates an arena slot, preferring recycled ones.
    fn alloc(&mut self, node: Node) -> u32 {
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        u32::try_from(i).expect("B-tree under 2^32 nodes")
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
        let right_idx = self.alloc(right);
        let p = &mut self.nodes[parent];
        p.insert_child(pos + 1, right_idx);
        p.insert_entry(pos, mid_key, mid_rid);
    }

    /// Inserts into a node known not to be full, splitting full children on
    /// the way down (CLRS preemptive splitting).
    fn insert_nonfull(&mut self, mut n: usize, key: u64, rid: RecordId) -> Option<RecordId> {
        loop {
            match self.nodes[n].keys().binary_search(&key) {
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

impl BTree {
    /// The rightmost (key, rid) pair of the subtree rooted at `n`.
    fn max_of(&self, mut n: usize) -> (u64, RecordId) {
        loop {
            let node = &self.nodes[n];
            if node.is_leaf() {
                let last = node.len() - 1;
                return (node.keys[last], node.rids[last]);
            }
            n = node.child(node.len());
        }
    }

    /// The leftmost (key, rid) pair of the subtree rooted at `n`.
    fn min_of(&self, mut n: usize) -> (u64, RecordId) {
        loop {
            let node = &self.nodes[n];
            if node.is_leaf() {
                return (node.keys[0], node.rids[0]);
            }
            n = node.child(0);
        }
    }

    /// Moves the last (key, child) of child `i-1` up through the parent
    /// into the front of child `i`.
    fn borrow_from_prev(&mut self, parent: usize, i: usize) {
        let left = self.nodes[parent].child(i - 1);
        let child = self.nodes[parent].child(i);
        let l = &mut self.nodes[left];
        let lc = (!l.is_leaf()).then(|| l.children[l.len()]);
        let (lk, lr) = l.remove_entry(l.len() - 1);
        let p = &mut self.nodes[parent];
        let sep_k = std::mem::replace(&mut p.keys[i - 1], lk);
        let sep_r = std::mem::replace(&mut p.rids[i - 1], lr);
        let c = &mut self.nodes[child];
        if let Some(lc) = lc {
            c.insert_child(0, lc);
        }
        c.insert_entry(0, sep_k, sep_r);
    }

    /// Moves the first (key, child) of child `i+1` up through the parent
    /// onto the back of child `i`.
    fn borrow_from_next(&mut self, parent: usize, i: usize) {
        let right = self.nodes[parent].child(i + 1);
        let child = self.nodes[parent].child(i);
        let r = &mut self.nodes[right];
        let rc = (!r.is_leaf()).then(|| r.remove_child(0));
        let (rk, rr) = r.remove_entry(0);
        let p = &mut self.nodes[parent];
        let sep_k = std::mem::replace(&mut p.keys[i], rk);
        let sep_r = std::mem::replace(&mut p.rids[i], rr);
        let c = &mut self.nodes[child];
        let n = c.len();
        c.insert_entry(n, sep_k, sep_r);
        if let Some(rc) = rc {
            c.children[n + 1] = rc;
        }
    }

    /// Merges child `i+1` and the separator at `i` into child `i`; the
    /// right node is abandoned in the arena.
    fn merge_children(&mut self, parent: usize, i: usize) {
        let p = &mut self.nodes[parent];
        let left = p.child(i);
        let right = p.remove_child(i + 1) as usize;
        let (sep_k, sep_r) = p.remove_entry(i);
        let r = self.nodes[right].clone();
        let l = &mut self.nodes[left];
        let n = l.len();
        l.keys[n] = sep_k;
        l.rids[n] = sep_r;
        l.keys[n + 1..n + 1 + r.len()].copy_from_slice(r.keys());
        l.rids[n + 1..n + 1 + r.len()].copy_from_slice(&r.rids[..r.len()]);
        l.children[n + 1..n + 2 + r.len()].copy_from_slice(&r.children[..r.len() + 1]);
        l.len += 1 + r.len;
        self.free.push(right);
    }

    /// Ensures child `i` of `parent` has at least `MIN_DEGREE` keys before
    /// descending; returns the (possibly shifted) child index.
    fn fill_child(&mut self, parent: usize, i: usize) -> usize {
        let p = &self.nodes[parent];
        let children = p.len() + 1;
        if self.nodes[p.child(i)].len() >= MIN_DEGREE {
            return i;
        }
        if i > 0 && self.nodes[p.child(i - 1)].len() >= MIN_DEGREE {
            self.borrow_from_prev(parent, i);
            i
        } else if i + 1 < children && self.nodes[p.child(i + 1)].len() >= MIN_DEGREE {
            self.borrow_from_next(parent, i);
            i
        } else if i + 1 < children {
            self.merge_children(parent, i);
            i
        } else {
            self.merge_children(parent, i - 1);
            i - 1
        }
    }

    /// CLRS deletion from the subtree rooted at `n`, which is guaranteed to
    /// have at least `MIN_DEGREE` keys (or to be the root).
    fn remove_from(&mut self, n: usize, key: u64) -> Option<RecordId> {
        match self.nodes[n].keys().binary_search(&key) {
            Ok(i) => {
                if self.nodes[n].is_leaf() {
                    return Some(self.nodes[n].remove_entry(i).1);
                }
                let removed = self.nodes[n].rids[i];
                let left = self.nodes[n].child(i);
                let right = self.nodes[n].child(i + 1);
                if self.nodes[left].len() >= MIN_DEGREE {
                    // Replace with the in-order predecessor, delete it below.
                    let (pk, pr) = self.max_of(left);
                    self.nodes[n].keys[i] = pk;
                    self.nodes[n].rids[i] = pr;
                    self.remove_from(left, pk);
                } else if self.nodes[right].len() >= MIN_DEGREE {
                    let (sk, sr) = self.min_of(right);
                    self.nodes[n].keys[i] = sk;
                    self.nodes[n].rids[i] = sr;
                    self.remove_from(right, sk);
                } else {
                    self.merge_children(n, i);
                    self.remove_from(left, key);
                }
                Some(removed)
            }
            Err(i) => {
                if self.nodes[n].is_leaf() {
                    return None;
                }
                let i = self.fill_child(n, i);
                let child = self.nodes[n].child(i);
                self.remove_from(child, key)
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

    fn remove(&mut self, key: u64) -> Option<RecordId> {
        let removed = self.remove_from(self.root, key);
        if removed.is_some() {
            self.len -= 1;
        }
        // An empty internal root hands the tree to its only child.
        if self.nodes[self.root].len() == 0 && !self.nodes[self.root].is_leaf() {
            let old = self.root;
            self.root = self.nodes[self.root].child(0);
            self.free.push(old);
        }
        removed
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

    #[test]
    fn delete_everything_then_refill() {
        let mut t = BTree::new();
        for k in 0..5_000u64 {
            t.insert(k, RecordId(k as u32));
        }
        for k in 0..5_000u64 {
            assert_eq!(t.remove(k), Some(RecordId(k as u32)), "remove {k}");
        }
        assert!(t.is_empty());
        for k in 0..5_000u64 {
            assert!(t.insert(k, RecordId(1)).is_none());
        }
        assert_eq!(t.len(), 5_000);
    }

    #[test]
    fn height_shrinks_after_mass_deletion() {
        let mut t = BTree::new();
        for k in 0..50_000u64 {
            t.insert(k, RecordId(k as u32));
        }
        let tall = t.height();
        for k in 0..49_900u64 {
            t.remove(k);
        }
        assert!(
            t.height() < tall,
            "height should shrink: {} vs {tall}",
            t.height()
        );
        for k in 49_900..50_000u64 {
            assert_eq!(t.get(k).unwrap().rid, RecordId(k as u32));
        }
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut t = BTree::new();
        for k in 0..100_000u64 {
            t.insert(k, RecordId(k as u32));
        }
        let h = t.height();
        // log_8(100k) ~ 5.5; sequential inserts make half-full nodes, allow 8.
        assert!((4..=8).contains(&h), "height {h}");
        // Depth of any lookup is bounded by the height.
        for k in (0..100_000u64).step_by(9973) {
            assert!(t.get(k).unwrap().depth <= h);
        }
    }

    #[test]
    fn random_order_inserts_all_found() {
        let mut t = BTree::new();
        let mut key = 1u64;
        let mut inserted = Vec::new();
        for i in 0..30_000u32 {
            key = key
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.insert(key, RecordId(i));
            inserted.push((key, i));
        }
        for (k, i) in inserted {
            assert_eq!(t.get(k).unwrap().rid, RecordId(i), "key {k}");
        }
    }

    #[test]
    fn promoted_key_overwrite_during_split() {
        // Regression: inserting a key equal to one just promoted by a
        // preemptive split must overwrite, not duplicate.
        let mut t = BTree::new();
        for k in 0..64u64 {
            t.insert(k, RecordId(k as u32));
        }
        let n = t.len();
        for k in 0..64u64 {
            assert_eq!(
                t.insert(k, RecordId(1000 + k as u32)),
                Some(RecordId(k as u32))
            );
        }
        assert_eq!(t.len(), n);
    }
}
