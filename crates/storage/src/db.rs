//! The partitioned database: tables, record placement and allocation.
//!
//! Records are statically distributed across the nodes in a uniform manner
//! (Section VII) via a hash partition; each node owns a disjoint slab of
//! the global cache-line address space. A node's record values live in one
//! line arena, but only once they hold a non-zero byte: a record loaded
//! with an all-zero value owns no bytes and reads from one shared zero
//! buffer until it is first mutated. A record's simulated address (its
//! slab line) and where its bytes sit in the arena are therefore separate;
//! the record itself says where its bytes start.
//!
//! Loading keeps nothing per key beyond the record and the index entry.
//! The per-home key lists that Fig 12b's locality sampling draws from
//! are built from the index on a table's first sampling call, so a run
//! that never samples by home never holds them.
//!
//! Every insert goes through one batched path, [`Database::insert_rows`]:
//! it allocates a chunk of records in row order, then hands each table
//! its chunk's index entries in one [`KvIndex::insert_batch`] call, so a
//! store can overlap the cache misses of consecutive inserts. Each index
//! receives exactly the `(key, rid)` sequence a per-row load would give
//! it, so every slot, node and lookup depth comes out the same.
//!
//! All simulated protocols share one `Database` — it *is* the cluster's
//! storage.

use crate::index::{new_index, IndexKind, KvIndex, Lookup};
use crate::record::{lines_for_len, Record, RecordId, RecordMut, RecordRef, LINE_BYTES};
use hades_sim::ids::NodeId;
use hades_sim::rng::SimRng;
use std::cell::OnceCell;

/// Identifies a table within a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u16);

/// Bits reserved for the per-node line-address slab; node `n`'s lines start
/// at `n << NODE_SLAB_SHIFT`.
const NODE_SLAB_SHIFT: u32 = 40;

/// Rows [`Database::insert_rows`] allocates before it applies their
/// index entries: enough that each table's share of a chunk keeps a
/// store's prefetches ahead of its inserts, few enough that the staged
/// entries stay in the L1/L2 caches.
const LOAD_CHUNK: usize = 4096;

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
        .filter(|&line| line != Record::ZERO_VALUE)
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

/// The end of the line space of a `nodes`-node cluster: every record's
/// lines sit below it, in node `n`'s slab `line_space(n)..line_space(n + 1)`.
pub fn line_space(nodes: usize) -> u64 {
    (nodes as u64) << NODE_SLAB_SHIFT
}

/// The node that owns a cache-line address.
pub fn home_of_line(line: u64) -> NodeId {
    NodeId((line >> NODE_SLAB_SHIFT) as u16)
}

/// One record to load: its table, key, value and home node.
#[derive(Debug, Clone, Copy)]
pub struct Row<'v> {
    /// The table the key goes into.
    pub table: TableId,
    /// The record's key, unique within its table.
    pub key: u64,
    /// The record's initial value.
    pub value: &'v [u8],
    /// The home node, or `None` for the default [`uniform_home`].
    pub home: Option<NodeId>,
}

impl<'v> Row<'v> {
    /// A row with the default (uniform hash) placement.
    pub fn new(table: TableId, key: u64, value: &'v [u8]) -> Self {
        Row {
            table,
            key,
            value,
            home: None,
        }
    }

    /// A row homed at an explicit node.
    pub fn at(table: TableId, key: u64, value: &'v [u8], home: NodeId) -> Self {
        Row {
            home: Some(home),
            ..Row::new(table, key, value)
        }
    }
}

#[derive(Debug)]
struct Table {
    name: String,
    index: Box<dyn KvIndex + Send>,
    /// The current load chunk's `(key, rid)` entries for this table, in
    /// row order; empty between [`Database::insert_rows`] chunks, and
    /// kept so its buffer is reused.
    staged: Vec<(u64, RecordId)>,
    /// Keys grouped by home node, each list in insertion order, for
    /// locality-aware sampling (Fig 12b). Built from the index on the
    /// first sampling call, so a run that never samples by home holds
    /// no copy of its keys; an insert drops the lists for a rebuild.
    keys_by_home: OnceCell<Vec<Vec<u64>>>,
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
            arenas: vec![Vec::new(); nodes],
            next_lines: vec![0; nodes],
            zeros: Vec::new(),
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
    ///
    /// # Panics
    ///
    /// Panics if the database already has 2^16 tables.
    pub fn create_table(&mut self, name: &str, kind: IndexKind) -> TableId {
        let id = TableId(u16::try_from(self.tables.len()).expect("under 2^16 tables"));
        self.tables.push(Table {
            name: name.to_string(),
            index: new_index(kind),
            staged: Vec::new(),
            keys_by_home: OnceCell::new(),
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

    /// Inserts a record with the default (uniform hash) placement: a
    /// one-row [`Database::insert_rows`].
    pub fn insert(&mut self, table: TableId, key: u64, value: &[u8]) -> RecordId {
        self.insert_rows([Row::new(table, key, value)]);
        self.last_rid()
    }

    /// Inserts a record homed at an explicit node (used by workloads that
    /// co-locate related records, e.g. TPC-C districts with their
    /// warehouse): a one-row [`Database::insert_rows`].
    ///
    /// # Panics
    ///
    /// As [`Database::insert_rows`].
    pub fn insert_at(&mut self, table: TableId, key: u64, value: &[u8], home: NodeId) -> RecordId {
        self.insert_rows([Row::at(table, key, value, home)]);
        self.last_rid()
    }

    /// The id of the newest record.
    fn last_rid(&self) -> RecordId {
        RecordId(self.records.len() as u32 - 1)
    }

    /// Loads `rows`, giving them consecutive record ids in row order.
    /// An all-zero value gets no bytes until the record is first
    /// mutated.
    ///
    /// Rows are taken `LOAD_CHUNK` at a time: the chunk's records are
    /// allocated in row order, each table's index entries are staged in
    /// row order, and then each table applies its entries with one
    /// [`KvIndex::insert_batch`]. Every index thus receives the same
    /// `(key, rid)` sequence as from one insert per row.
    ///
    /// # Panics
    ///
    /// Panics if a key already exists in its table, if a home is out of
    /// range, if a value is empty, or if the database would hold
    /// 2^32 - 1 records or more.
    pub fn insert_rows<'v>(&mut self, rows: impl IntoIterator<Item = Row<'v>>) {
        let mut rows = rows.into_iter();
        loop {
            let mut staged = 0;
            for row in rows.by_ref().take(LOAD_CHUNK) {
                let home = row
                    .home
                    .unwrap_or_else(|| uniform_home(row.key, self.nodes));
                let rid = self.push_record(row.value, home);
                self.tables[row.table.0 as usize]
                    .staged
                    .push((row.key, rid));
                staged += 1;
            }
            self.apply_staged();
            if staged < LOAD_CHUNK {
                return;
            }
        }
    }

    /// Allocates the next record: its slab lines on `home` and, unless
    /// `value` is all zero, its bytes in `home`'s arena.
    fn push_record(&mut self, value: &[u8], home: NodeId) -> RecordId {
        assert!((home.0 as usize) < self.nodes, "home {home} out of range");
        // `u32::MAX` is the hash table's empty-slot marker, no rid.
        let rid = u32::try_from(self.records.len())
            .ok()
            .filter(|&rid| rid != u32::MAX)
            .map(RecordId)
            .expect("under 2^32 - 1 records");
        let num_lines = lines_for_len(value.len());
        let next = &mut self.next_lines[home.0 as usize];
        let base_line = ((home.0 as u64) << NODE_SLAB_SHIFT) + *next;
        *next += num_lines as u64;
        let value_line = if is_zero(value) {
            if self.zeros.len() < value.len() {
                self.zeros.resize(value.len(), 0);
            }
            Record::ZERO_VALUE
        } else {
            push_value(&mut self.arenas[home.0 as usize], value)
        };
        self.records
            .push(Record::new(base_line, value.len(), value_line));
        rid
    }

    /// Applies every table's staged index entries and empties the
    /// stages.
    fn apply_staged(&mut self) {
        for (i, t) in self.tables.iter_mut().enumerate() {
            if t.staged.is_empty() {
                continue;
            }
            t.index.insert_batch(&t.staged, &mut |key, _| {
                panic!("duplicate key {key} in table {:?}", TableId(i as u16))
            });
            t.staged.clear();
            t.keys_by_home.take();
        }
    }

    /// The index of `table`, for inspecting its stored `(key, rid)`
    /// pairs.
    pub fn table_index(&self, table: TableId) -> &dyn KvIndex {
        self.tables[table.0 as usize].index.as_ref()
    }

    /// Looks up a key, reporting index traversal depth for timing.
    pub fn lookup(&self, table: TableId, key: u64) -> Option<Lookup> {
        self.tables[table.0 as usize].index.get(key)
    }

    /// The node `rid` is homed at, read from its metadata alone.
    pub fn home(&self, rid: RecordId) -> NodeId {
        self.records[rid.0 as usize].home()
    }

    /// Immutable access to a record: its metadata and value bytes.
    pub fn record(&self, rid: RecordId) -> RecordRef<'_> {
        let rec = &self.records[rid.0 as usize];
        let value = match rec.value_line {
            Record::ZERO_VALUE => &self.zeros[..rec.value_len()],
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
        if rec.value_line == Record::ZERO_VALUE {
            rec.value_line = push_value(arena, &self.zeros[..rec.value_len()]);
        }
        let value = &mut arena[value_range(rec.value_line, rec.value_len())];
        RecordMut::new(rec, value)
    }

    /// `table`'s keys grouped by home node, each list in insertion order.
    /// The first call after an insert builds them from the index: its
    /// (key, rid) pairs sorted by rid, which is insertion order, and
    /// grouped by the record's home.
    fn keys_by_home(&self, table: TableId) -> &[Vec<u64>] {
        let t = &self.tables[table.0 as usize];
        t.keys_by_home.get_or_init(|| {
            let mut pairs = Vec::with_capacity(t.index.len());
            t.index.for_each(&mut |key, rid| pairs.push((rid, key)));
            pairs.sort_unstable_by_key(|&(rid, _)| rid);
            let mut lists = vec![Vec::new(); self.nodes];
            for (rid, key) in pairs {
                lists[self.records[rid.0 as usize].home().0 as usize].push(key);
            }
            lists
        })
    }

    /// A uniformly random key from `table` homed at `node`, or `None` if
    /// that node holds no keys of this table.
    pub fn random_key_at(&self, table: TableId, node: NodeId, rng: &mut SimRng) -> Option<u64> {
        let keys = self.keys_at(table, node);
        if keys.is_empty() {
            None
        } else {
            Some(keys[rng.below(keys.len() as u64) as usize])
        }
    }

    /// A uniformly random key from `table` homed anywhere *except* `node`.
    pub fn random_key_not_at(&self, table: TableId, node: NodeId, rng: &mut SimRng) -> Option<u64> {
        let lists = self.keys_by_home(table);
        let total: usize = lists
            .iter()
            .enumerate()
            .filter(|(n, _)| *n != node.0 as usize)
            .map(|(_, k)| k.len())
            .sum();
        if total == 0 {
            return None;
        }
        let mut pick = rng.below(total as u64) as usize;
        for (n, keys) in lists.iter().enumerate() {
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

    /// Keys of `table` homed at `node`, in insertion order (read-only
    /// view).
    pub fn keys_at(&self, table: TableId, node: NodeId) -> &[u64] {
        &self.keys_by_home(table)[node.0 as usize]
    }
}
