//! Database records and the augmented metadata layout of Fig 1.
//!
//! A record is the unit the *software* protocols operate on: the baseline
//! (and the HADES-H local path) keeps a version, a lock word and an
//! incarnation next to the data, and reads/writes whole records. HADES
//! itself ignores all of this metadata — it tracks raw cache lines — which
//! is exactly the point of the paper (Table I, row 2: "No record
//! versions").

use hades_sim::ids::NodeId;

/// Number of bytes per cache line; fixed across the reproduction.
pub const LINE_BYTES: usize = 64;

/// A stable handle to a record within a [`Database`].
///
/// [`Database`]: crate::db::Database
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

/// One database record: home placement, cache-line footprint, Fig 1
/// software metadata, and the actual value bytes.
#[derive(Debug, Clone)]
pub struct Record {
    home: NodeId,
    base_line: u64,
    num_lines: u32,
    /// Fig 1 `Version` — bumped by software protocols on every write.
    version: u64,
    /// Fig 1 `Lock` — holds an opaque owner token while locked.
    lock: Option<u64>,
    /// Fig 1 `Incarnation` — bumped when the record is freed/reused.
    incarnation: u32,
    data: Vec<u8>,
}

impl Record {
    /// Creates a record homed at `home`, occupying `num_lines` cache lines
    /// starting at `base_line`, holding `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not fit in `num_lines` lines or is empty.
    pub fn new(home: NodeId, base_line: u64, data: Vec<u8>) -> Self {
        assert!(!data.is_empty(), "record value must be nonempty");
        let num_lines = data.len().div_ceil(LINE_BYTES) as u32;
        Record {
            home,
            base_line,
            num_lines,
            version: 0,
            lock: None,
            incarnation: 0,
            data,
        }
    }

    /// The node this record is homed at.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Number of cache lines the record spans.
    pub fn num_lines(&self) -> u32 {
        self.num_lines
    }

    /// Value size in bytes.
    pub fn value_len(&self) -> usize {
        self.data.len()
    }

    /// All cache-line addresses of the record, in order.
    pub fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.num_lines as u64).map(move |i| self.base_line + i)
    }

    /// The cache lines covered by the byte range `off..off+len`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn lines_for_range(&self, off: usize, len: usize) -> Vec<u64> {
        assert!(len > 0, "empty range");
        assert!(off + len <= self.data.len(), "range beyond record");
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
            let line_end = (line_start + LINE_BYTES).min(self.data.len());
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
        self.version
    }

    /// Current incarnation.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Bumps the version (software write path).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Bumps the incarnation (record freed and reused).
    pub fn bump_incarnation(&mut self) {
        self.incarnation += 1;
    }

    /// Replaces the value on record reuse: the version resets (a fresh
    /// logical record) but the incarnation persists so stale readers can
    /// detect the reuse.
    ///
    /// # Panics
    ///
    /// Panics if the new value needs a different number of cache lines.
    pub fn reset_value(&mut self, value: Vec<u8>) {
        let lines = value.len().div_ceil(LINE_BYTES) as u32;
        assert_eq!(lines, self.num_lines, "reuse requires matching geometry");
        self.data = value;
        self.version = 0;
        self.lock = None;
    }

    /// Attempts to take the record lock for `owner` (the CAS of the
    /// validation phase). Re-locking by the current owner succeeds.
    pub fn try_lock(&mut self, owner: u64) -> bool {
        match self.lock {
            None => {
                self.lock = Some(owner);
                true
            }
            Some(o) => o == owner,
        }
    }

    /// Whether the record is locked (by anyone).
    pub fn is_locked(&self) -> bool {
        self.lock.is_some()
    }

    /// Whether the record is locked by `owner`.
    pub fn locked_by(&self, owner: u64) -> bool {
        self.lock == Some(owner)
    }

    /// Releases the lock if held by `owner`; no-op otherwise.
    pub fn unlock(&mut self, owner: u64) {
        if self.lock == Some(owner) {
            self.lock = None;
        }
    }

    /// Reads `len` bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn read(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }

    /// Overwrites bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn write(&mut self, off: usize, bytes: &[u8]) {
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Sets `len` bytes at `off` to `byte`, in place.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the value.
    pub fn fill(&mut self, off: usize, len: usize, byte: u8) {
        self.data[off..off + len].fill(byte);
    }

    /// Reads a little-endian `u64` field at byte offset `off`.
    pub fn read_u64(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[off..off + 8]);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` field at byte offset `off`.
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Adds `delta` (wrapping) to the `u64` field at `off` and returns the
    /// new value — the read-modify-write at the heart of Smallbank.
    pub fn add_u64(&mut self, off: usize, delta: i64) -> u64 {
        let v = self.read_u64(off).wrapping_add(delta as u64);
        self.write_u64(off, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bytes: usize) -> Record {
        Record::new(NodeId(1), 1000, vec![0u8; bytes])
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
        let mut r = record(64);
        r.write(3, &[1, 2, 3]);
        assert_eq!(r.read(3, 3), &[1, 2, 3]);
        r.write_u64(8, 0xDEAD);
        assert_eq!(r.read_u64(8), 0xDEAD);
        assert_eq!(r.add_u64(8, -0xAD), 0xDE00);
        assert_eq!(r.add_u64(8, 1), 0xDE01);
        r.fill(20, 4, 0xAB);
        assert_eq!(r.read(19, 6), &[0, 0xAB, 0xAB, 0xAB, 0xAB, 0]);
    }

    #[test]
    #[should_panic(expected = "beyond record")]
    fn range_checked() {
        let r = record(64);
        let _ = r.lines_for_range(60, 10);
    }
}
