//! Database records and the augmented metadata layout of Fig 1.
//!
//! A record is the unit the *software* protocols operate on: the baseline
//! (and the HADES-H local path) keeps a version and a lock word next to
//! the data, and reads/writes whole records. Fig 1's third field, the
//! incarnation, is not modelled: it lets a reader detect a record that
//! was freed and reused, and no record here is ever freed. A
//! [`Record`] holds that metadata in 24 bytes: its first simulated line,
//! its value length, a 32-bit version, a 32-bit lock word and the arena
//! line where its value starts. Its value bytes sit in the home node's
//! line arena (or, while all zero, in one shared zero buffer) and are
//! reached through [`RecordRef`] and [`RecordMut`]. HADES
//! itself ignores all of this metadata — it tracks raw cache lines — which
//! is exactly the point of the paper (Table I, row 2: "No record
//! versions").

use crate::db::home_of_line;
use hades_sim::ids::NodeId;

/// Number of bytes per cache line; fixed across the reproduction.
pub const LINE_BYTES: usize = 64;

/// A stable handle to a record within a [`Database`].
///
/// [`Database`]: crate::db::Database
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

/// One database record's placement, Fig 1 software metadata and value
/// location, in 24 bytes.
///
/// The value bytes are not stored here: they live in the home node's line
/// arena inside [`Database`] once the value holds a non-zero byte, and
/// are reached through the [`RecordRef`] and [`RecordMut`] views that
/// [`Database::record`] and [`Database::record_mut`] return. Where the
/// bytes sit in the arena is independent of the record's simulated
/// address.
///
/// The version and the lock word are 32 bits each, like FaRMv2's
/// one-word record header; the public API still speaks `u64`. A version
/// bump past `u32::MAX` and an owner token that does not pack into 32
/// bits both panic rather than wrap.
///
/// [`Database`]: crate::db::Database
/// [`Database::record`]: crate::db::Database::record
/// [`Database::record_mut`]: crate::db::Database::record_mut
#[derive(Debug, Clone)]
pub struct Record {
    /// The first cache line; its slab bits name the home node.
    base_line: u64,
    value_len: u32,
    /// Fig 1 `Version` — bumped by software protocols on every write.
    version: u32,
    /// Fig 1 `Lock` — the packed owner token while locked, else
    /// [`UNLOCKED_WORD`].
    lock: u32,
    /// The line of the home arena where the value starts, or
    /// [`Record::ZERO_VALUE`] while the value is all zero and owns no
    /// bytes.
    pub(crate) value_line: u32,
}

/// The lock word while no one holds the lock: the packing of node
/// `0xFFFF`, slot `0xFFFF`, which [`pack_owner`] refuses.
const UNLOCKED_WORD: u32 = u32::MAX;

/// Packs an owner token `(node << 32) | slot` over 16-bit ids into the
/// 32-bit lock word `(node << 16) | slot`.
///
/// # Panics
///
/// Panics if either id is wider than 16 bits, or if both are `0xFFFF`
/// (the [`UNLOCKED_WORD`]). No cluster has node `0xFFFF`: node counts
/// stay below 2^16.
fn pack_owner(owner: u64) -> u32 {
    let (node, slot) = (owner >> 32, owner & 0xFFFF_FFFF);
    u16::try_from(node)
        .ok()
        .zip(u16::try_from(slot).ok())
        .map(|(node, slot)| (u32::from(node) << 16) | u32::from(slot))
        .filter(|&word| word != UNLOCKED_WORD)
        .unwrap_or_else(|| panic!("owner token {owner:#x} does not pack into a 32-bit lock word"))
}

/// The owner token a packed lock word holds.
fn unpack_owner(word: u32) -> u64 {
    (u64::from(word >> 16) << 32) | u64::from(word & 0xFFFF)
}

/// Cache lines needed to hold a `value_len`-byte value.
pub(crate) fn lines_for_len(value_len: usize) -> u32 {
    value_len.div_ceil(LINE_BYTES) as u32
}

impl Record {
    /// The lock word while no one holds the lock, as the `u64` owner
    /// tokens see it. Owner tokens are `(node << 32) | slot` over 16-bit
    /// node and slot ids, so they stay below 2^48 and none of them can
    /// equal it; [`Record::try_lock`] rejects it.
    pub const UNLOCKED: u64 = 1 << 63;

    /// The value line of a record whose value is still all zero: it owns
    /// no arena bytes and reads from the shared zero buffer.
    pub(crate) const ZERO_VALUE: u32 = u32::MAX;

    /// Creates the metadata of a record whose `value_len`-byte value
    /// occupies the cache lines from `base_line`, in its home node's
    /// slab, with its bytes from arena line `value_line` (or
    /// [`Record::ZERO_VALUE`]).
    ///
    /// # Panics
    ///
    /// Panics if `value_len` is zero or does not fit in a `u32`.
    pub(crate) fn new(base_line: u64, value_len: usize, value_line: u32) -> Self {
        assert!(value_len > 0, "record value must be nonempty");
        Record {
            base_line,
            value_len: u32::try_from(value_len).expect("record value under 4 GiB"),
            version: 0,
            lock: UNLOCKED_WORD,
            value_line,
        }
    }

    /// The node this record is homed at: the owner of its line slab.
    pub fn home(&self) -> NodeId {
        home_of_line(self.base_line)
    }

    /// Number of cache lines the record spans.
    pub fn num_lines(&self) -> u32 {
        lines_for_len(self.value_len())
    }

    /// Value size in bytes.
    pub fn value_len(&self) -> usize {
        self.value_len as usize
    }

    /// All cache-line addresses of the record, in order.
    pub fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.num_lines() as u64).map(move |i| self.base_line + i)
    }

    /// The cache lines covered by the byte range `off..off+len`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn lines_for_range(&self, off: usize, len: usize) -> Vec<u64> {
        assert!(len > 0, "empty range");
        assert!(off + len <= self.value_len(), "range beyond record");
        let first = off / LINE_BYTES;
        let last = (off + len - 1) / LINE_BYTES;
        (first..=last).map(|i| self.base_line + i as u64).collect()
    }

    /// Splits a write of `off..off+len` into (partially written lines,
    /// fully overwritten lines). Partial lines sit at the edges of the
    /// range; HADES must fetch only those before buffering the write
    /// (Table II, remote write).
    pub fn split_write_lines(&self, off: usize, len: usize) -> (Vec<u64>, Vec<u64>) {
        let covered = self.lines_for_range(off, len);
        let mut partial = Vec::new();
        let mut full = Vec::new();
        for &line in &covered {
            let idx = (line - self.base_line) as usize;
            let line_start = idx * LINE_BYTES;
            let line_end = (line_start + LINE_BYTES).min(self.value_len());
            if off <= line_start && off + len >= line_end {
                full.push(line);
            } else {
                partial.push(line);
            }
        }
        (partial, full)
    }

    /// Current Fig 1 version.
    pub fn version(&self) -> u64 {
        u64::from(self.version)
    }

    /// Bumps the version (software write path).
    ///
    /// # Panics
    ///
    /// Panics if the version is already `u32::MAX`: a wrapped version
    /// would let a stale read validate.
    pub fn bump_version(&mut self) {
        self.version = self
            .version
            .checked_add(1)
            .expect("record version under 2^32 writes");
    }

    /// Attempts to take the record lock for `owner` (the CAS of the
    /// validation phase). Re-locking by the current owner succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is [`Record::UNLOCKED`], which no slot's token
    /// can be, or any other token that does not pack into the 32-bit
    /// lock word.
    pub fn try_lock(&mut self, owner: u64) -> bool {
        assert_ne!(owner, Self::UNLOCKED, "the unlocked word is no owner");
        let word = pack_owner(owner);
        if self.lock == UNLOCKED_WORD {
            self.lock = word;
        }
        self.lock == word
    }

    /// Whether the record is locked (by anyone).
    pub fn is_locked(&self) -> bool {
        self.lock != UNLOCKED_WORD
    }

    /// The owner token holding the lock, or `None` while it is free.
    pub fn owner(&self) -> Option<u64> {
        self.is_locked().then(|| unpack_owner(self.lock))
    }

    /// Whether the record is locked by `owner`.
    pub fn locked_by(&self, owner: u64) -> bool {
        self.owner() == Some(owner)
    }

    /// Releases the lock if held by `owner`; no-op otherwise.
    pub fn unlock(&mut self, owner: u64) {
        if self.locked_by(owner) {
            self.lock = UNLOCKED_WORD;
        }
    }
}

fn read_u64_at(value: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&value[off..off + 8]);
    u64::from_le_bytes(b)
}

/// A read-only view of one record: its metadata (through `Deref`) and its
/// value bytes, in the home node's line arena or, for a value that is
/// still all zero, in the database's shared zero buffer.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    meta: &'a Record,
    value: &'a [u8],
}

impl<'a> RecordRef<'a> {
    /// Pairs `meta` with its value bytes (exactly `meta.value_len()` long).
    pub(crate) fn new(meta: &'a Record, value: &'a [u8]) -> Self {
        debug_assert_eq!(value.len(), meta.value_len());
        RecordRef { meta, value }
    }

    /// Reads `len` bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn read(&self, off: usize, len: usize) -> &'a [u8] {
        &self.value[off..off + len]
    }

    /// Reads a little-endian `u64` field at byte offset `off`.
    pub fn read_u64(&self, off: usize) -> u64 {
        read_u64_at(self.value, off)
    }
}

impl std::ops::Deref for RecordRef<'_> {
    type Target = Record;

    fn deref(&self) -> &Record {
        self.meta
    }
}

/// A mutable view of one record: its metadata (through `Deref` and
/// `DerefMut`) and its value bytes in the home node's line arena.
#[derive(Debug)]
pub struct RecordMut<'a> {
    meta: &'a mut Record,
    value: &'a mut [u8],
}

impl<'a> RecordMut<'a> {
    /// Pairs `meta` with its value bytes (exactly `meta.value_len()` long).
    pub(crate) fn new(meta: &'a mut Record, value: &'a mut [u8]) -> Self {
        debug_assert_eq!(value.len(), meta.value_len());
        RecordMut { meta, value }
    }

    /// Reads `len` bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn read(&self, off: usize, len: usize) -> &[u8] {
        &self.value[off..off + len]
    }

    /// Reads a little-endian `u64` field at byte offset `off`.
    pub fn read_u64(&self, off: usize) -> u64 {
        read_u64_at(self.value, off)
    }

    /// Overwrites bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn write(&mut self, off: usize, bytes: &[u8]) {
        self.value[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Sets `len` bytes at `off` to `byte`, in place.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn fill(&mut self, off: usize, len: usize, byte: u8) {
        self.value[off..off + len].fill(byte);
    }

    /// Writes a little-endian `u64` field at byte offset `off`.
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.value[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Adds `delta` (wrapping) to the `u64` field at `off` and returns the
    /// new value — the read-modify-write at the heart of Smallbank.
    pub fn add_u64(&mut self, off: usize, delta: i64) -> u64 {
        let v = self.read_u64(off).wrapping_add(delta as u64);
        self.write_u64(off, v);
        v
    }
}

impl std::ops::Deref for RecordMut<'_> {
    type Target = Record;

    fn deref(&self) -> &Record {
        self.meta
    }
}

impl std::ops::DerefMut for RecordMut<'_> {
    fn deref_mut(&mut self) -> &mut Record {
        self.meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bytes: usize) -> Record {
        Record::new(1000, bytes, Record::ZERO_VALUE)
    }

    #[test]
    fn line_footprint() {
        assert_eq!(record(1).num_lines(), 1);
        assert_eq!(record(64).num_lines(), 1);
        assert_eq!(record(65).num_lines(), 2);
        assert_eq!(record(128).num_lines(), 2);
        let r = record(130);
        assert_eq!(r.num_lines(), 3);
        assert_eq!(r.lines().collect::<Vec<_>>(), vec![1000, 1001, 1002]);
    }

    #[test]
    fn lines_for_range_covers_exactly() {
        let r = record(256); // 4 lines
        assert_eq!(r.lines_for_range(0, 64), vec![1000]);
        assert_eq!(r.lines_for_range(60, 8), vec![1000, 1001]);
        assert_eq!(r.lines_for_range(64, 192), vec![1001, 1002, 1003]);
    }

    #[test]
    fn split_write_identifies_partial_edges() {
        let r = record(256); // 4 lines
                             // Write bytes 32..224: line 1000 partial, 1001-1002 full, 1003 partial.
        let (partial, full) = r.split_write_lines(32, 192);
        assert_eq!(partial, vec![1000, 1003]);
        assert_eq!(full, vec![1001, 1002]);
        // A fully aligned whole-record write has no partial lines.
        let (partial, full) = r.split_write_lines(0, 256);
        assert!(partial.is_empty());
        assert_eq!(full.len(), 4);
        // A small field write is all partial.
        let (partial, full) = r.split_write_lines(8, 8);
        assert_eq!(partial, vec![1000]);
        assert!(full.is_empty());
    }

    #[test]
    fn short_tail_line_counts_as_full_when_fully_covered() {
        let r = record(100); // 2 lines; second line holds bytes 64..100
        let (partial, full) = r.split_write_lines(0, 100);
        assert!(partial.is_empty(), "whole-record write covers the tail");
        assert_eq!(full.len(), 2);
    }

    #[test]
    fn version_and_lock_lifecycle() {
        let mut r = record(64);
        assert_eq!(r.version(), 0);
        r.bump_version();
        assert_eq!(r.version(), 1);
        assert!(r.try_lock(7));
        assert!(r.try_lock(7), "re-entrant for same owner");
        assert!(!r.try_lock(8));
        assert!(r.locked_by(7));
        r.unlock(8); // wrong owner: no-op
        assert!(r.is_locked());
        r.unlock(7);
        assert!(!r.is_locked());
    }

    #[test]
    fn value_read_write() {
        let mut meta = record(64);
        let mut value = [0u8; 64];
        let mut r = RecordMut::new(&mut meta, &mut value);
        r.write(3, &[1, 2, 3]);
        assert_eq!(r.read(3, 3), &[1, 2, 3]);
        r.write_u64(8, 0xDEAD);
        assert_eq!(r.read_u64(8), 0xDEAD);
        assert_eq!(r.add_u64(8, -0xAD), 0xDE00);
        assert_eq!(r.add_u64(8, 1), 0xDE01);
        r.fill(20, 4, 0xAB);
        assert_eq!(r.read(19, 6), &[0, 0xAB, 0xAB, 0xAB, 0xAB, 0]);
        let r = RecordRef::new(&meta, &value);
        assert_eq!(r.read_u64(8), 0xDE01);
        assert_eq!(r.read(3, 3), &[1, 2, 3]);
    }

    #[test]
    fn metadata_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 24);
    }

    #[test]
    #[should_panic(expected = "record version under 2^32 writes")]
    fn a_version_bump_past_u32_max_is_refused() {
        let mut r = record(64);
        r.version = u32::MAX - 1;
        r.bump_version();
        assert_eq!(r.version(), u64::from(u32::MAX));
        r.bump_version();
    }

    #[test]
    #[should_panic(expected = "beyond record")]
    fn range_checked() {
        let r = record(64);
        let _ = r.lines_for_range(60, 10);
    }
}
