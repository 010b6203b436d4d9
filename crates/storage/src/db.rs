//! The partitioned database: tables, record placement and allocation.
//!
//! Records are statically distributed across the nodes in a uniform manner
//! (Section VII) via a hash partition; each node owns a disjoint slab of
//! the global cache-line address space. A node's record values live in one
//! line arena, but only once they hold a non-zero byte: a record loaded
//! with an all-zero value owns no bytes and reads from one shared zero
//! buffer until it is first mutated. A record's simulated address (its
//! slab line) and where its bytes sit in the arena are therefore separate.
//! All simulated protocols share one `Database` — it *is* the cluster's
//! storage.

use crate::index::{new_index, IndexKind, KvIndex, Lookup};
use crate::record::{lines_for_len, Record, RecordId, RecordMut, RecordRef, LINE_BYTES};
use hades_sim::ids::NodeId;
use hades_sim::rng::SimRng;

/// Identifies a table within a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u16);

/// Bits reserved for the per-node line-address slab; node `n`'s lines start
/// at `n << NODE_SLAB_SHIFT`.
const NODE_SLAB_SHIFT: u32 = 40;

/// The `value_lines` entry of a record whose value is still all zero: it
/// owns no arena bytes and reads from the shared zero buffer.
const ZERO_VALUE: u32 = u32::MAX;

/// The byte range of a `len`-byte value that starts at arena line `line`.
fn value_range(line: u32, len: usize) -> std::ops::Range<usize> {
    let start = line as usize * LINE_BYTES;
    start..start + len
}

/// Whether every byte of `value` is zero. The fold has no early exit, so
/// it vectorises; `iter().all(..)` does not, and made loading slower.
fn is_zero(value: &[u8]) -> bool {
    value.iter().fold(0, |acc, &b| acc | b) == 0
}

/// Appends `value` to `arena`, zero-padded to the next line boundary, and
/// returns the arena line it starts at.
fn push_value(arena: &mut Vec<u8>, value: &[u8]) -> u32 {
    let line = u32::try_from(arena.len() / LINE_BYTES)
        .ok()
        .filter(|&line| line != ZERO_VALUE)
        .expect("arena under 2^32 - 1 lines");
    arena.extend_from_slice(value);
    arena.resize(arena.len().next_multiple_of(LINE_BYTES), 0);
    line
}

/// Uniform static partition: the home node of `key` among `nodes` nodes.
pub fn uniform_home(key: u64, nodes: usize) -> NodeId {
    assert!(nodes > 0 && nodes < (1 << 16), "node count {nodes} invalid");
    let mut h = key.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    NodeId((h % nodes as u64) as u16)
}

/// The node that owns a cache-line address.
pub fn home_of_line(line: u64) -> NodeId {
    NodeId((line >> NODE_SLAB_SHIFT) as u16)
}

#[derive(Debug)]
struct Table {
    name: String,
    index: Box<dyn KvIndex + Send>,
    /// Keys grouped by home node, for locality-aware sampling (Fig 12b).
    keys_by_home: Vec<Vec<u64>>,
}

/// A partitioned multi-table database over `N` nodes.
///
/// # Examples
///
/// ```
/// use hades_storage::db::Database;
/// use hades_storage::index::IndexKind;
///
/// let mut db = Database::new(5);
/// let t = db.create_table("accounts", IndexKind::HashTable);
/// let rid = db.insert(t, 42, &[0u8; 128]);
/// let hit = db.lookup(t, 42).unwrap();
/// assert_eq!(hit.rid, rid);
/// assert_eq!(db.record(rid).num_lines(), 2);
/// ```
#[derive(Debug)]
pub struct Database {
    nodes: usize,
    tables: Vec<Table>,
    records: Vec<Record>,
    /// Per record, the line of its home arena where its value starts, or
    /// [`ZERO_VALUE`] while the value is all zero and owns no bytes.
    value_lines: Vec<u32>,
    /// Each node's value bytes: every value that owns bytes, followed by
    /// zero padding to the next line boundary, in the order the values
    /// got their bytes (at insert, or at a zero record's first mutation).
    arenas: Vec<Vec<u8>>,
    /// Each node's next free slab line: the simulated address the node's
    /// next new record gets.
    next_lines: Vec<u64>,
    /// The bytes every all-zero value reads: zeros, as long as the
    /// longest value inserted.
    zeros: Vec<u8>,
    /// Freed records available for reuse, keyed by (home, line count).
    free_records: std::collections::HashMap<(NodeId, u32), Vec<RecordId>>,
    /// Whether committed writes are appended to the history log.
    history_enabled: bool,
    /// Per-record committed-write version counter (history mode only).
    commit_seq: std::collections::HashMap<RecordId, u64>,
    /// Append-only log of committed writes (history mode only).
    history: Vec<CommitHistoryEntry>,
}

/// One committed write in the database's optional history log: which
/// record, its per-record version number, and the value observed after
/// the mutation (the post-RMW counter word for RMW ops, 0 otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitHistoryEntry {
    /// The mutated record.
    pub rid: RecordId,
    /// Per-record version: 1 for the record's first committed write,
    /// then strictly +1 per subsequent committed write.
    pub seq: u64,
    /// Value read back after the mutation (RMW ops only; 0 otherwise).
    pub value_after: u64,
}

impl Database {
    /// Creates an empty database partitioned over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "database needs at least one node");
        Database {
            nodes,
            tables: Vec::new(),
            records: Vec::new(),
            value_lines: Vec::new(),
            arenas: vec![Vec::new(); nodes],
            next_lines: vec![0; nodes],
            zeros: Vec::new(),
            free_records: std::collections::HashMap::new(),
            history_enabled: false,
            commit_seq: std::collections::HashMap::new(),
            history: Vec::new(),
        }
    }

    /// Turns on the committed-write history log (off by default; a run
    /// with it off records nothing and behaves byte-identically to a
    /// build without the log).
    pub fn enable_commit_history(&mut self) {
        self.history_enabled = true;
    }

    /// Whether the committed-write history log is recording.
    pub fn commit_history_enabled(&self) -> bool {
        self.history_enabled
    }

    /// Appends one committed write to the history log and returns the
    /// record's new version number. No-op (returning 0) when the log is
    /// disabled.
    pub fn note_commit(&mut self, rid: RecordId, value_after: u64) -> u64 {
        if !self.history_enabled {
            return 0;
        }
        let seq = self.commit_seq.entry(rid).or_insert(0);
        *seq += 1;
        let seq = *seq;
        self.history.push(CommitHistoryEntry {
            rid,
            seq,
            value_after,
        });
        seq
    }

    /// The record's current committed-write version (0 if never written
    /// or the log is disabled).
    pub fn commit_seq_of(&self, rid: RecordId) -> u64 {
        self.commit_seq.get(&rid).copied().unwrap_or(0)
    }

    /// The committed-write history log, in commit order.
    pub fn commit_history(&self) -> &[CommitHistoryEntry] {
        &self.history
    }

    /// Number of nodes data is partitioned over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Creates a table backed by the given index shape.
    pub fn create_table(&mut self, name: &str, kind: IndexKind) -> TableId {
        let id = TableId(self.tables.len() as u16);
        self.tables.push(Table {
            name: name.to_string(),
            index: new_index(kind),
            keys_by_home: vec![Vec::new(); self.nodes],
        });
        id
    }

    /// Table display name.
    pub fn table_name(&self, table: TableId) -> &str {
        &self.tables[table.0 as usize].name
    }

    /// Number of keys in a table.
    pub fn table_len(&self, table: TableId) -> usize {
        self.tables[table.0 as usize].index.len()
    }

    /// Total records across all tables.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Inserts a record with the default (uniform hash) placement.
    pub fn insert(&mut self, table: TableId, key: u64, value: &[u8]) -> RecordId {
        let home = uniform_home(key, self.nodes);
        self.insert_at(table, key, value, home)
    }

    /// Inserts a record homed at an explicit node (used by workloads that
    /// co-locate related records, e.g. TPC-C districts with their
    /// warehouse). An all-zero value gets no bytes until the record is
    /// first mutated.
    ///
    /// # Panics
    ///
    /// Panics if the key already exists in the table, if `home` is out of
    /// range, or if `value` is empty.
    pub fn insert_at(&mut self, table: TableId, key: u64, value: &[u8], home: NodeId) -> RecordId {
        assert!((home.0 as usize) < self.nodes, "home {home} out of range");
        let num_lines = lines_for_len(value.len());
        // Reuse a freed record of the same geometry if one exists: the
        // record keeps its (bumped) incarnation, which is how Fig 1's
        // incarnation field lets readers detect freed-and-reused records.
        // Until a record is freed there is nothing to look up, so loading
        // skips the hash.
        let reused = if self.free_records.is_empty() {
            None
        } else {
            self.free_records
                .get_mut(&(home, num_lines))
                .and_then(Vec::pop)
        };
        let zero = is_zero(value);
        if zero && self.zeros.len() < value.len() {
            self.zeros.resize(value.len(), 0);
        }
        let arena = &mut self.arenas[home.0 as usize];
        let rid = if let Some(rid) = reused {
            self.records[rid.0 as usize].reset_value(value.len());
            let line = &mut self.value_lines[rid.0 as usize];
            if *line != ZERO_VALUE {
                // The record owns bytes: overwrite them, zeros included.
                let span = value_range(*line, num_lines as usize * LINE_BYTES);
                let (bytes, padding) = arena[span].split_at_mut(value.len());
                bytes.copy_from_slice(value);
                padding.fill(0);
            } else if !zero {
                *line = push_value(arena, value);
            }
            rid
        } else {
            let next = &mut self.next_lines[home.0 as usize];
            let base_line = ((home.0 as u64) << NODE_SLAB_SHIFT) + *next;
            *next += num_lines as u64;
            let rec = Record::new(base_line, value.len());
            let rid = RecordId(self.records.len() as u32);
            self.records.push(rec);
            self.value_lines.push(if zero {
                ZERO_VALUE
            } else {
                push_value(arena, value)
            });
            rid
        };
        let t = &mut self.tables[table.0 as usize];
        let prev = t.index.insert(key, rid);
        assert!(prev.is_none(), "duplicate key {key} in table {table:?}");
        t.keys_by_home[home.0 as usize].push(key);
        rid
    }

    /// Removes `key` from `table`, freeing its record for reuse. The
    /// record's incarnation is bumped (Fig 1): a stale reader that fetched
    /// the record before the free can detect the reuse.
    ///
    /// # Panics
    ///
    /// Panics if the record is still locked.
    pub fn remove(&mut self, table: TableId, key: u64) -> Option<RecordId> {
        let t = &mut self.tables[table.0 as usize];
        let rid = t.index.remove(key)?;
        let rec = &mut self.records[rid.0 as usize];
        assert!(!rec.is_locked(), "removing a locked record");
        rec.bump_incarnation();
        let home = rec.home();
        let lines = rec.num_lines();
        t.keys_by_home[home.0 as usize].retain(|&k| k != key);
        self.free_records
            .entry((home, lines))
            .or_default()
            .push(rid);
        Some(rid)
    }

    /// Looks up a key, reporting index traversal depth for timing.
    pub fn lookup(&self, table: TableId, key: u64) -> Option<Lookup> {
        self.tables[table.0 as usize].index.get(key)
    }

    /// Immutable access to a record: its metadata and value bytes.
    pub fn record(&self, rid: RecordId) -> RecordRef<'_> {
        let rec = &self.records[rid.0 as usize];
        let value = match self.value_lines[rid.0 as usize] {
            ZERO_VALUE => &self.zeros[..rec.value_len()],
            line => &self.arenas[rec.home().0 as usize][value_range(line, rec.value_len())],
        };
        RecordRef::new(rec, value)
    }

    /// Mutable access to a record: its metadata and value bytes. A record
    /// whose value is still all zero first gets its bytes, appended to
    /// the end of its home node's arena.
    pub fn record_mut(&mut self, rid: RecordId) -> RecordMut<'_> {
        let rec = &mut self.records[rid.0 as usize];
        let arena = &mut self.arenas[rec.home().0 as usize];
        let line = &mut self.value_lines[rid.0 as usize];
        if *line == ZERO_VALUE {
            *line = push_value(arena, &self.zeros[..rec.value_len()]);
        }
        let value = &mut arena[value_range(*line, rec.value_len())];
        RecordMut::new(rec, value)
    }

    /// A uniformly random key from `table` homed at `node`, or `None` if
    /// that node holds no keys of this table.
    pub fn random_key_at(&self, table: TableId, node: NodeId, rng: &mut SimRng) -> Option<u64> {
        let keys = &self.tables[table.0 as usize].keys_by_home[node.0 as usize];
        if keys.is_empty() {
            None
        } else {
            Some(keys[rng.below(keys.len() as u64) as usize])
        }
    }

    /// A uniformly random key from `table` homed anywhere *except* `node`.
    pub fn random_key_not_at(&self, table: TableId, node: NodeId, rng: &mut SimRng) -> Option<u64> {
        let t = &self.tables[table.0 as usize];
        let total: usize = t
            .keys_by_home
            .iter()
            .enumerate()
            .filter(|(n, _)| *n != node.0 as usize)
            .map(|(_, k)| k.len())
            .sum();
        if total == 0 {
            return None;
        }
        let mut pick = rng.below(total as u64) as usize;
        for (n, keys) in t.keys_by_home.iter().enumerate() {
            if n == node.0 as usize {
                continue;
            }
            if pick < keys.len() {
                return Some(keys[pick]);
            }
            pick -= keys.len();
        }
        unreachable!("pick within total")
    }

    /// Keys of `table` homed at `node` (read-only view).
    pub fn keys_at(&self, table: TableId, node: NodeId) -> &[u64] {
        &self.tables[table.0 as usize].keys_by_home[node.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_home_is_balanced() {
        let nodes = 5;
        let mut counts = vec![0u32; nodes];
        for key in 0..50_000u64 {
            counts[uniform_home(key, nodes).0 as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "partition skewed: {c}");
        }
    }

    #[test]
    fn line_slabs_are_disjoint_per_node() {
        let mut db = Database::new(3);
        let t = db.create_table("t", IndexKind::HashTable);
        for key in 0..300u64 {
            db.insert(t, key, &[0u8; 128]);
        }
        for key in 0..300u64 {
            let rid = db.lookup(t, key).unwrap().rid;
            let r = db.record(rid);
            for line in r.lines() {
                assert_eq!(home_of_line(line), r.home(), "line in wrong slab");
            }
        }
    }

    #[test]
    fn explicit_placement_respected() {
        let mut db = Database::new(4);
        let t = db.create_table("w", IndexKind::BTree);
        let rid = db.insert_at(t, 7, &[1u8; 64], NodeId(3));
        assert_eq!(db.record(rid).home(), NodeId(3));
        assert_eq!(db.keys_at(t, NodeId(3)), &[7]);
        assert!(db.keys_at(t, NodeId(0)).is_empty());
    }

    #[test]
    fn locality_sampling() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::Map);
        db.insert_at(t, 1, &[0u8; 64], NodeId(0));
        db.insert_at(t, 2, &[0u8; 64], NodeId(1));
        db.insert_at(t, 3, &[0u8; 64], NodeId(1));
        let mut rng = SimRng::seed_from(1);
        for _ in 0..20 {
            assert_eq!(db.random_key_at(t, NodeId(0), &mut rng), Some(1));
            let k = db.random_key_not_at(t, NodeId(0), &mut rng).unwrap();
            assert!(k == 2 || k == 3);
            let k = db.random_key_not_at(t, NodeId(1), &mut rng).unwrap();
            assert_eq!(k, 1);
        }
    }

    #[test]
    fn empty_node_sampling_returns_none() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        let mut rng = SimRng::seed_from(2);
        assert_eq!(db.random_key_at(t, NodeId(0), &mut rng), None);
        assert_eq!(db.random_key_not_at(t, NodeId(0), &mut rng), None);
    }

    #[test]
    fn multiple_tables_are_independent() {
        let mut db = Database::new(2);
        let a = db.create_table("a", IndexKind::HashTable);
        let b = db.create_table("b", IndexKind::BPlusTree);
        db.insert(a, 1, &[0u8; 64]);
        db.insert(b, 1, &[0u8; 192]);
        assert_eq!(db.table_len(a), 1);
        assert_eq!(db.table_len(b), 1);
        assert_eq!(db.record_count(), 2);
        let ra = db.record(db.lookup(a, 1).unwrap().rid);
        let rb = db.record(db.lookup(b, 1).unwrap().rid);
        assert_eq!(ra.num_lines(), 1);
        assert_eq!(rb.num_lines(), 3);
        assert_eq!(db.table_name(b), "b");
    }

    #[test]
    fn remove_frees_and_reuse_bumps_incarnation() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        let rid = db.insert(t, 7, &[1u8; 128]);
        let base_lines: Vec<u64> = db.record(rid).lines().collect();
        assert_eq!(db.record(rid).incarnation(), 0);
        assert_eq!(db.remove(t, 7), Some(rid));
        assert!(db.lookup(t, 7).is_none());
        assert_eq!(db.record(rid).incarnation(), 1, "free bumps incarnation");
        // Same-geometry insert reuses the record (and its lines).
        let home = db.record(rid).home();
        let rid2 = db.insert_at(t, 8, &[2u8; 128], home);
        assert_eq!(rid2, rid, "freed record reused");
        assert_eq!(db.record(rid2).lines().collect::<Vec<u64>>(), base_lines);
        assert_eq!(
            db.record(rid2).incarnation(),
            1,
            "incarnation survives reuse"
        );
        assert_eq!(db.record(rid2).version(), 0, "version resets on reuse");
        assert_eq!(db.record(rid2).read(0, 2), &[2, 2]);
        // keys_by_home bookkeeping follows.
        assert!(db.keys_at(t, home).contains(&8));
        assert!(!db.keys_at(t, home).contains(&7));
    }

    #[test]
    fn remove_missing_key_is_none() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::BTree);
        assert_eq!(db.remove(t, 5), None);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_keys_rejected() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        db.insert(t, 1, &[0u8; 64]);
        db.insert(t, 1, &[0u8; 64]);
    }

    #[test]
    fn record_mutation_via_db() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let rid = db.insert(t, 9, &[0u8; 64]);
        db.record_mut(rid).write_u64(0, 777);
        assert_eq!(db.record(rid).read_u64(0), 777);
    }

    #[test]
    fn record_bytes_round_trip_through_the_arena() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        let value: Vec<u8> = (0..130u8).collect();
        let rid = db.insert_at(t, 1, &value, NodeId(1));
        assert_eq!(
            db.record(rid).read(0, 130),
            &value[..],
            "insert stores the value"
        );
        let mut rec = db.record_mut(rid);
        rec.write(64, &[9, 9, 9]);
        rec.write_u64(120, 0x0102_0304_0506_0708);
        assert_eq!(rec.add_u64(120, 1), 0x0102_0304_0506_0709);
        rec.fill(0, 4, 0xEE);
        let rec = db.record(rid);
        assert_eq!(rec.read(0, 6), &[0xEE, 0xEE, 0xEE, 0xEE, 4, 5]);
        assert_eq!(rec.read(63, 5), &[63, 9, 9, 9, 67]);
        assert_eq!(rec.read_u64(120), 0x0102_0304_0506_0709);
        assert_eq!(rec.value_len(), 130);
        assert_eq!(rec.num_lines(), 3);
    }

    #[test]
    fn writing_a_records_last_byte_leaves_its_neighbours_alone() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        let a = db.insert_at(t, 1, &[1u8; 100], NodeId(0));
        let b = db.insert_at(t, 2, &[2u8; 64], NodeId(0));
        let other = db.insert_at(t, 3, &[3u8; 100], NodeId(1));
        // `b` is `a`'s neighbour in node 0's slab, after `a`'s padding.
        let a_end = db.record(a).lines().last().unwrap();
        assert_eq!(db.record(b).lines().next(), Some(a_end + 1));
        db.record_mut(a).write(99, &[0xFF]);
        db.record_mut(b).write(63, &[0xFE]);
        assert_eq!(db.record(a).read(98, 2), &[1, 0xFF]);
        assert_eq!(db.record(b).read(0, 63), &[2u8; 63]);
        assert_eq!(db.record(b).read(63, 1), &[0xFE]);
        assert_eq!(db.record(other).read(0, 100), &[3u8; 100]);
    }

    #[test]
    fn a_100_byte_value_keeps_its_line_geometry() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let first = db.insert(t, 1, &[0u8; 64]);
        let rid = db.insert(t, 2, &[0u8; 100]);
        let base = db.record(first).lines().next().unwrap() + 1;
        let r = db.record(rid);
        assert_eq!(r.lines().collect::<Vec<_>>(), vec![base, base + 1]);
        assert_eq!(r.lines_for_range(0, 100), vec![base, base + 1]);
        assert_eq!(r.lines_for_range(60, 8), vec![base, base + 1]);
        assert_eq!(r.lines_for_range(64, 36), vec![base + 1]);
        // The short tail line counts as fully written by a write to the end.
        assert_eq!(r.split_write_lines(0, 100), (vec![], vec![base, base + 1]));
        assert_eq!(r.split_write_lines(64, 36), (vec![], vec![base + 1]));
        assert_eq!(r.split_write_lines(8, 8), (vec![base], vec![]));
        assert_eq!(r.split_write_lines(32, 40), (vec![base, base + 1], vec![]));
        // The next record starts after the padding, at the next line.
        let next = db.insert(t, 3, &[0u8; 64]);
        assert_eq!(db.record(next).lines().next(), Some(base + 2));
    }

    #[test]
    fn a_reused_record_reads_back_its_new_value() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let rid = db.insert(t, 1, &[7u8; 128]);
        let neighbour = db.insert(t, 2, &[8u8; 64]);
        db.record_mut(rid).bump_version();
        db.record_mut(rid).bump_version();
        assert_eq!(db.remove(t, 1), Some(rid));
        // A shorter value with the same line count reuses the record.
        let value: Vec<u8> = (1..=100u8).collect();
        assert_eq!(db.insert(t, 3, &value), rid);
        let r = db.record(rid);
        assert_eq!(r.read(0, 100), &value[..]);
        assert_eq!(r.value_len(), 100);
        assert_eq!(r.incarnation(), 1, "incarnation kept");
        assert_eq!(r.version(), 0, "version reset");
        assert!(!r.is_locked());
        assert_eq!(db.record(neighbour).read(0, 64), &[8u8; 64]);
        // Freed again and reused at full length.
        db.remove(t, 3);
        assert_eq!(db.insert(t, 4, &[5u8; 128]), rid);
        assert_eq!(db.record(rid).read(0, 128), &[5u8; 128]);
        assert_eq!(db.record(rid).incarnation(), 2);
    }

    #[test]
    fn commit_history_off_by_default_and_versions_when_on() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let a = db.insert(t, 1, &[0u8; 64]);
        let b = db.insert(t, 2, &[0u8; 64]);
        // Disabled: recording is a no-op.
        assert_eq!(db.note_commit(a, 10), 0);
        assert!(db.commit_history().is_empty());
        assert_eq!(db.commit_seq_of(a), 0);
        db.enable_commit_history();
        assert!(db.commit_history_enabled());
        assert_eq!(db.note_commit(a, 10), 1);
        assert_eq!(db.note_commit(b, 5), 1);
        assert_eq!(db.note_commit(a, 17), 2);
        assert_eq!(db.commit_seq_of(a), 2);
        assert_eq!(db.commit_seq_of(b), 1);
        let h = db.commit_history();
        assert_eq!(h.len(), 3);
        assert_eq!(
            h[2],
            CommitHistoryEntry {
                rid: a,
                seq: 2,
                value_after: 17
            }
        );
    }
}
