//! Locking Buffers: the hardware primitive that partially locks a
//! directory/LLC during a transaction commit (Section V-B, Fig 7).
//!
//! When a transaction starts to commit, its read and write Bloom filters are
//! copied into a free Locking Buffer next to the directory. From then until
//! unlock, every read that reaches the directory is probed against the
//! buffered *write* filters and every write against the buffered *read and
//! write* filters; a hit denies the access (it must retry). Multiple
//! non-conflicting transactions can hold buffers — and thus commit — at the
//! same time.
//!
//! The same primitive gives HADES read atomicity for free: a multi-line read
//! hashes its lines into a buffered read filter, stalling concurrent writes
//! to those lines for the duration (Table I, row 3).

use crate::filter::BloomFilter;
use crate::hash::LineHash;
use crate::write_filter::DualWriteFilter;
use hades_sim::time::Cycles;
use hades_telemetry::event::{EventKind, NO_SLOT};
use hades_telemetry::sink::Tracer;
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// A read- or write-set signature held in a Locking Buffer.
///
/// Local transactions lock with their core-side filters (conventional read
/// filter + dual-section write filter); remote transactions lock with the
/// NIC-side pair (both conventional).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Signature {
    /// A conventional Bloom filter.
    Conventional(BloomFilter),
    /// A dual-section write filter (Fig 8).
    Dual(DualWriteFilter),
}

impl Signature {
    /// Tests line membership in the signature.
    pub fn contains(&self, line: impl Into<LineHash>) -> bool {
        let h = line.into();
        match self {
            Signature::Conventional(bf) => bf.contains(h),
            Signature::Dual(wf) => wf.contains(h),
        }
    }

    /// Whether the signature has no lines encoded.
    pub fn is_empty(&self) -> bool {
        match self {
            Signature::Conventional(bf) => bf.is_empty(),
            Signature::Dual(wf) => wf.is_empty(),
        }
    }
}

impl From<BloomFilter> for Signature {
    fn from(bf: BloomFilter) -> Self {
        Signature::Conventional(bf)
    }
}

impl From<DualWriteFilter> for Signature {
    fn from(wf: DualWriteFilter) -> Self {
        Signature::Dual(wf)
    }
}

/// One occupied Locking Buffer.
#[derive(Debug, Clone)]
struct LockEntry {
    owner: u64,
    read: Signature,
    write: Signature,
    /// The bank's generation right after the buffer was granted.
    granted: u64,
}

/// Why [`LockingBuffers::try_lock`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockFailure {
    /// The new transaction's lines conflict with a transaction already
    /// holding a buffer; the payload is that transaction's owner token.
    Conflict(u64),
    /// All Locking Buffers are occupied.
    NoFreeBuffer,
}

impl LockFailure {
    /// The holder a denial reports in a `LockStall` trace event: the
    /// conflicting owner, or `u64::MAX` when the bank itself was full.
    pub fn holder(self) -> u64 {
        match self {
            LockFailure::Conflict(owner) => owner,
            LockFailure::NoFreeBuffer => u64::MAX,
        }
    }
}

impl fmt::Display for LockFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockFailure::Conflict(owner) => {
                write!(f, "conflicts with committing transaction {owner:#x}")
            }
            LockFailure::NoFreeBuffer => write!(f, "no free locking buffer"),
        }
    }
}

/// The bank of Locking Buffers attached to one node's directory/LLC.
///
/// Owners are opaque `u64` tokens (the protocol layer encodes transaction
/// identity into them).
///
/// # Examples
///
/// ```
/// use hades_bloom::{BloomFilter, locking::LockingBuffers};
///
/// let mut bufs = LockingBuffers::new(4);
/// let mut rd = BloomFilter::new(1024, 2);
/// let mut wr = BloomFilter::new(1024, 2);
/// rd.insert(10);
/// wr.insert(20);
/// bufs.try_lock(1, rd.into(), wr.into(), &[20], &[10]).unwrap();
/// assert!(bufs.blocks_write(10).is_some()); // 10 is in tx 1's read set
/// assert!(bufs.blocks_read(20).is_some());  // 20 is in tx 1's write set
/// assert!(bufs.blocks_read(10).is_none());  // reads of read-set lines pass
/// bufs.unlock(1);
/// assert!(bufs.blocks_write(10).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct LockingBuffers {
    entries: Vec<LockEntry>,
    capacity: usize,
    /// Bumped on every change to the held set; see
    /// [`generation`](Self::generation).
    generation: u64,
    /// Moves with `generation`, and with the generation of every bank
    /// that shares it; see [`count_changes_on`](Self::count_changes_on).
    changes: Rc<Cell<u64>>,
    tracer: Tracer,
    node: u16,
}

impl LockingBuffers {
    /// Creates a bank with `capacity` buffers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "need at least one locking buffer");
        LockingBuffers {
            entries: Vec::with_capacity(capacity),
            capacity,
            generation: 0,
            changes: Rc::default(),
            tracer: Tracer::disabled(),
            node: 0,
        }
    }

    /// Installs a trace sink and tells the bank which node's directory it
    /// guards; [`try_lock_at`](Self::try_lock_at) then emits lock events.
    pub fn set_tracer(&mut self, tracer: Tracer, node: u16) {
        self.tracer = tracer;
        self.node = node;
    }

    /// Makes the bank also count its held-set changes on `counter`. A
    /// cluster's banks share one, so that one read tells whether any of
    /// their generations moved.
    pub fn count_changes_on(&mut self, counter: Rc<Cell<u64>>) {
        self.changes = counter;
    }

    /// The counter the bank counts its held-set changes on (its own, or
    /// the one installed by [`count_changes_on`](Self::count_changes_on)).
    pub fn change_counter(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.changes)
    }

    /// The held set changed.
    fn bump(&mut self) {
        self.generation += 1;
        self.changes.set(self.changes.get() + 1);
    }

    /// Number of occupied buffers.
    pub fn occupied(&self) -> usize {
        self.entries.len()
    }

    /// Total number of buffers in the bank.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fraction of buffers occupied, in `[0, 1]`. The admission
    /// controller's hardware-saturation signal.
    pub fn occupancy(&self) -> f64 {
        self.entries.len() as f64 / self.capacity as f64
    }

    /// A counter that changes whenever the held set does: a granted lock,
    /// an unlock that released a buffer, an import, a clear. Every access
    /// check is a pure function of the held set, so an access denied at
    /// one generation is denied by the same holder for as long as the
    /// generation stays put — which lets a stalled access skip its
    /// re-probe.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// When `owner`'s buffer was granted, as the bank's generation right
    /// after the grant, or `None` if it holds none. A buffer never
    /// changes while held, so while this answer stays put every access
    /// the buffer denied is still denied.
    pub fn granted_at(&self, owner: u64) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.owner == owner)
            .map(|e| e.granted)
    }

    /// Whether `owner` currently holds a buffer.
    pub fn holds(&self, owner: u64) -> bool {
        self.entries.iter().any(|e| e.owner == owner)
    }

    /// Attempts to lock the directory for `owner`: grants a buffer
    /// unless [`denial`](Self::denial) names a reason not to.
    ///
    /// `write_lines` / `read_lines` are the committing transaction's exact
    /// line lists (from `WrTX_ID` tags or the Intend-to-commit message),
    /// as raw lines or as their [`LineHash`]es.
    ///
    /// # Errors
    ///
    /// [`LockFailure::Conflict`] if a held buffer's signatures match any of
    /// the lines (possibly a Bloom false positive — the hardware cannot
    /// tell), or [`LockFailure::NoFreeBuffer`] if the bank is full.
    pub fn try_lock<L: Copy + Into<LineHash>>(
        &mut self,
        owner: u64,
        read: Signature,
        write: Signature,
        write_lines: &[L],
        read_lines: &[L],
    ) -> Result<(), LockFailure> {
        assert!(
            !self.holds(owner),
            "owner {owner:#x} already holds a buffer"
        );
        if let Some(failure) = self.denial(write_lines, read_lines) {
            return Err(failure);
        }
        self.bump();
        let granted = self.generation;
        self.entries.push(LockEntry {
            owner,
            read,
            write,
            granted,
        });
        Ok(())
    }

    /// Why a lock over these lines would be denied now, if it would.
    ///
    /// The lines are checked for membership against every holder's
    /// signatures — writes against read∪write, reads against write —
    /// exactly the check of Section V-B; the reported holder is the first
    /// conflicting one in bank order. Each line is hashed at most once for
    /// the whole bank, with no allocation, and not at all when the bank is
    /// empty. Without a conflict, a full bank denies with
    /// [`LockFailure::NoFreeBuffer`].
    pub fn denial<L: Copy + Into<LineHash>>(
        &self,
        write_lines: &[L],
        read_lines: &[L],
    ) -> Option<LockFailure> {
        // Lines outside, holders inside: each line scans only the holders
        // before the earliest conflict found so far, so the earliest
        // conflicting holder over all lines wins, as in bank order.
        let mut first = self.entries.len();
        for &line in write_lines {
            if first == 0 {
                break;
            }
            let h = line.into();
            if let Some(i) = self.entries[..first]
                .iter()
                .position(|e| e.read.contains(h) || e.write.contains(h))
            {
                first = i;
            }
        }
        for &line in read_lines {
            if first == 0 {
                break;
            }
            let h = line.into();
            if let Some(i) = self.entries[..first]
                .iter()
                .position(|e| e.write.contains(h))
            {
                first = i;
            }
        }
        if let Some(e) = self.entries.get(first) {
            return Some(LockFailure::Conflict(e.owner));
        }
        (self.entries.len() >= self.capacity).then_some(LockFailure::NoFreeBuffer)
    }

    /// Like [`try_lock`](Self::try_lock), but stamped with the simulated
    /// time so the attempt lands in the trace: a grant emits
    /// `LockAcquire`, a denial emits `LockStall` naming the blocking
    /// holder ([`LockFailure::holder`]).
    pub fn try_lock_at<L: Copy + Into<LineHash>>(
        &mut self,
        now: Cycles,
        owner: u64,
        read: Signature,
        write: Signature,
        write_lines: &[L],
        read_lines: &[L],
    ) -> Result<(), LockFailure> {
        let res = self.try_lock(owner, read, write, write_lines, read_lines);
        if self.tracer.is_enabled() {
            let kind = match res {
                Ok(()) => EventKind::LockAcquire { owner },
                Err(failure) => EventKind::LockStall {
                    holder: failure.holder(),
                },
            };
            self.tracer.emit(now, self.node, NO_SLOT, kind);
        }
        res
    }

    /// Releases `owner`'s buffer. Releasing a non-held owner is a no-op
    /// (unlock messages can race with squashes).
    pub fn unlock(&mut self, owner: u64) {
        let before = self.entries.len();
        self.entries.retain(|e| e.owner != owner);
        if self.entries.len() != before {
            self.bump();
        }
    }

    /// If a read of `line` would be denied, returns the first blocking
    /// owner in bank order. Reads are only blocked by buffered *write*
    /// signatures. The line is hashed once, and not at all when the bank
    /// is empty.
    pub fn blocks_read(&self, line: impl Into<LineHash>) -> Option<u64> {
        Self::first_blocker(self.entries.iter(), line, |e, h| e.write.contains(h))
    }

    /// If a write of `line` would be denied, returns the first blocking
    /// owner in bank order. Writes are blocked by buffered *read or write*
    /// signatures.
    pub fn blocks_write(&self, line: impl Into<LineHash>) -> Option<u64> {
        Self::first_blocker(self.entries.iter(), line, |e, h| {
            e.read.contains(h) || e.write.contains(h)
        })
    }

    /// Like [`blocks_write`](Self::blocks_write), but ignores the buffer
    /// held by `owner` itself (a committing transaction's own accesses must
    /// not self-block).
    pub fn blocks_write_excluding(&self, line: impl Into<LineHash>, owner: u64) -> Option<u64> {
        let others = self.entries.iter().filter(|e| e.owner != owner);
        Self::first_blocker(others, line, |e, h| {
            e.read.contains(h) || e.write.contains(h)
        })
    }

    /// The owner of the first of `entries` that `denies` the line, which
    /// is hashed only if there is an entry to probe.
    fn first_blocker<'a>(
        entries: impl Iterator<Item = &'a LockEntry>,
        line: impl Into<LineHash>,
        denies: impl Fn(&LockEntry, LineHash) -> bool,
    ) -> Option<u64> {
        let mut entries = entries.peekable();
        entries.peek()?;
        let h = line.into();
        entries.find(|e| denies(e, h)).map(|e| e.owner)
    }

    /// Owner tokens of every occupied buffer, sorted. Used by the
    /// membership layer to find and release buffers held on behalf of a
    /// node that left the configuration.
    pub fn owners(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.entries.iter().map(|e| e.owner).collect();
        v.sort_unstable();
        v
    }

    /// Clears every buffer (e.g. on simulator reset).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bump();
    }

    /// Exports `owner`'s buffered signatures for a planned shard
    /// migration (DESIGN.md §15): the entry stays held at this bank
    /// (its eventual unlock still targets this node) while a copy
    /// travels to the destination directory.
    pub fn export_entry(&self, owner: u64) -> Option<(Signature, Signature)> {
        self.entries
            .iter()
            .find(|e| e.owner == owner)
            .map(|e| (e.read.clone(), e.write.clone()))
    }

    /// Installs a transferred signature pair at this bank without
    /// re-running conflict checks — the source directory already
    /// granted the lock, so the destination must honor it verbatim
    /// (re-checking could deny an already-granted commit on a Bloom
    /// false positive). Importing over an existing hold is rejected the
    /// same way [`try_lock`](Self::try_lock) is.
    pub fn import_entry(&mut self, owner: u64, read: Signature, write: Signature) {
        assert!(
            !self.holds(owner),
            "owner {owner:#x} already holds a buffer"
        );
        self.bump();
        let granted = self.generation;
        self.entries.push(LockEntry {
            owner,
            read,
            write,
            granted,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig_with(lines: &[u64]) -> Signature {
        let mut bf = BloomFilter::new(1024, 2);
        for &l in lines {
            bf.insert(l);
        }
        bf.into()
    }

    #[test]
    fn non_conflicting_transactions_lock_together() {
        let mut bufs = LockingBuffers::new(4);
        bufs.try_lock(1, sig_with(&[1]), sig_with(&[2]), &[2], &[1])
            .unwrap();
        bufs.try_lock(2, sig_with(&[100]), sig_with(&[200]), &[200], &[100])
            .unwrap();
        assert_eq!(bufs.occupied(), 2);
    }

    #[test]
    fn write_write_conflict_denied() {
        let mut bufs = LockingBuffers::new(4);
        bufs.try_lock(1, sig_with(&[]), sig_with(&[50]), &[50], &[])
            .unwrap();
        let err = bufs
            .try_lock(2, sig_with(&[]), sig_with(&[50]), &[50], &[])
            .unwrap_err();
        assert_eq!(err, LockFailure::Conflict(1));
    }

    #[test]
    fn read_write_conflict_denied_both_directions() {
        let mut bufs = LockingBuffers::new(4);
        // Holder read line 7; newcomer wants to commit a write of 7.
        bufs.try_lock(1, sig_with(&[7]), sig_with(&[]), &[], &[7])
            .unwrap();
        assert!(bufs
            .try_lock(2, sig_with(&[]), sig_with(&[7]), &[7], &[])
            .is_err());
        bufs.unlock(1);
        // Holder wrote line 7; newcomer wants to commit a read of 7.
        bufs.try_lock(3, sig_with(&[]), sig_with(&[7]), &[7], &[])
            .unwrap();
        assert!(bufs
            .try_lock(4, sig_with(&[7]), sig_with(&[]), &[], &[7])
            .is_err());
    }

    #[test]
    fn read_read_is_compatible() {
        let mut bufs = LockingBuffers::new(4);
        bufs.try_lock(1, sig_with(&[7]), sig_with(&[]), &[], &[7])
            .unwrap();
        bufs.try_lock(2, sig_with(&[7]), sig_with(&[]), &[], &[7])
            .unwrap();
        assert_eq!(bufs.occupied(), 2);
    }

    #[test]
    fn capacity_exhaustion() {
        let mut bufs = LockingBuffers::new(1);
        bufs.try_lock(1, sig_with(&[1]), sig_with(&[2]), &[2], &[1])
            .unwrap();
        let err = bufs
            .try_lock(2, sig_with(&[100]), sig_with(&[200]), &[200], &[100])
            .unwrap_err();
        assert_eq!(err, LockFailure::NoFreeBuffer);
    }

    #[test]
    fn access_blocking_matches_fig7() {
        let mut bufs = LockingBuffers::new(2);
        bufs.try_lock(9, sig_with(&[10]), sig_with(&[20]), &[20], &[10])
            .unwrap();
        // Fig 7: reads check write BFs; writes check read and write BFs.
        assert_eq!(bufs.blocks_read(20), Some(9));
        assert_eq!(bufs.blocks_read(10), None);
        assert_eq!(bufs.blocks_write(10), Some(9));
        assert_eq!(bufs.blocks_write(20), Some(9));
        assert_eq!(bufs.blocks_write(9999), None);
        // The owner itself is exempt.
        assert_eq!(bufs.blocks_write_excluding(20, 9), None);
    }

    #[test]
    fn owners_lists_holders_sorted() {
        let mut bufs = LockingBuffers::new(4);
        bufs.try_lock(9, sig_with(&[1]), sig_with(&[]), &[], &[1])
            .unwrap();
        bufs.try_lock(3, sig_with(&[100]), sig_with(&[]), &[], &[100])
            .unwrap();
        assert_eq!(bufs.owners(), vec![3, 9]);
        bufs.unlock(9);
        assert_eq!(bufs.owners(), vec![3]);
    }

    #[test]
    fn unlock_is_idempotent() {
        let mut bufs = LockingBuffers::new(2);
        bufs.try_lock(1, sig_with(&[1]), sig_with(&[]), &[], &[1])
            .unwrap();
        bufs.unlock(1);
        bufs.unlock(1); // no-op
        assert_eq!(bufs.occupied(), 0);
        assert!(!bufs.holds(1));
    }

    #[test]
    fn dual_write_signature_works_in_buffer() {
        let mut wf = DualWriteFilter::isca_default(20_480);
        wf.insert(77);
        let mut bufs = LockingBuffers::new(2);
        bufs.try_lock(5, sig_with(&[]), wf.into(), &[77], &[])
            .unwrap();
        assert_eq!(bufs.blocks_read(77), Some(5));
    }

    #[test]
    fn traced_lock_emits_acquire_and_stall() {
        let mut bufs = LockingBuffers::new(2);
        let (tracer, sink) = Tracer::memory();
        bufs.set_tracer(tracer, 3);
        bufs.try_lock_at(
            Cycles::new(10),
            1,
            sig_with(&[]),
            sig_with(&[50]),
            &[50],
            &[],
        )
        .unwrap();
        let _ = bufs.try_lock_at(
            Cycles::new(20),
            2,
            sig_with(&[]),
            sig_with(&[50]),
            &[50],
            &[],
        );
        let events = sink.borrow().events().to_vec();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].node, 3);
        assert!(matches!(
            events[0].kind,
            EventKind::LockAcquire { owner: 1 }
        ));
        assert!(matches!(events[1].kind, EventKind::LockStall { holder: 1 }));
    }

    #[test]
    fn export_import_round_trips_an_entry() {
        let mut src = LockingBuffers::new(4);
        src.try_lock(7, sig_with(&[10]), sig_with(&[20]), &[20], &[10])
            .unwrap();
        let (read, write) = src.export_entry(7).expect("held entry exports");
        assert!(src.export_entry(99).is_none());
        // The source keeps blocking until its own unlock arrives.
        assert!(src.holds(7));
        let mut dst = LockingBuffers::new(4);
        dst.import_entry(7, read, write);
        assert_eq!(dst.blocks_read(20), Some(7));
        assert_eq!(dst.blocks_write(10), Some(7));
        dst.unlock(7);
        assert_eq!(dst.occupied(), 0);
    }

    #[test]
    fn import_skips_conflict_checks() {
        // The destination may already hold a signature that collides
        // with the imported one; the transfer still lands because the
        // source directory granted both locks before the move.
        let mut dst = LockingBuffers::new(4);
        dst.try_lock(1, sig_with(&[]), sig_with(&[50]), &[50], &[])
            .unwrap();
        dst.import_entry(2, sig_with(&[]), sig_with(&[50]));
        assert_eq!(dst.occupied(), 2);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn import_over_existing_hold_rejected() {
        let mut dst = LockingBuffers::new(2);
        dst.try_lock(1, sig_with(&[1]), sig_with(&[]), &[], &[1])
            .unwrap();
        dst.import_entry(1, sig_with(&[2]), sig_with(&[]));
    }

    #[test]
    fn generation_bumps_when_the_held_set_changes() {
        let mut bufs = LockingBuffers::new(4);
        let g0 = bufs.generation();
        bufs.try_lock(1, sig_with(&[1]), sig_with(&[2]), &[2], &[1])
            .unwrap();
        let g1 = bufs.generation();
        assert_ne!(g1, g0, "a grant changes the held set");
        bufs.try_lock_at(Cycles::new(5), 2, sig_with(&[]), sig_with(&[9]), &[9], &[])
            .unwrap();
        let g2 = bufs.generation();
        assert_ne!(g2, g1, "a traced grant changes the held set");
        bufs.unlock(1);
        let g3 = bufs.generation();
        assert_ne!(g3, g2, "a real unlock changes the held set");
        bufs.import_entry(7, sig_with(&[10]), sig_with(&[]));
        let g4 = bufs.generation();
        assert_ne!(g4, g3, "an import changes the held set");
        bufs.clear();
        assert_ne!(bufs.generation(), g4, "a clear changes the held set");
    }

    #[test]
    fn generation_holds_when_the_held_set_does_not_change() {
        let mut bufs = LockingBuffers::new(2);
        bufs.try_lock(1, sig_with(&[]), sig_with(&[50]), &[50], &[])
            .unwrap();
        let g = bufs.generation();
        // Denied on a conflict.
        assert_eq!(
            bufs.try_lock(2, sig_with(&[]), sig_with(&[50]), &[50], &[]),
            Err(LockFailure::Conflict(1))
        );
        assert_eq!(bufs.generation(), g);
        // Denied because the bank is full.
        bufs.try_lock(3, sig_with(&[]), sig_with(&[60]), &[60], &[])
            .unwrap();
        let g = bufs.generation();
        assert_eq!(
            bufs.try_lock(4, sig_with(&[]), sig_with(&[70]), &[70], &[]),
            Err(LockFailure::NoFreeBuffer)
        );
        assert_eq!(bufs.generation(), g);
        // Unlocking an owner that holds no buffer.
        bufs.unlock(99);
        assert_eq!(bufs.generation(), g);
        // Queries and exports leave it alone too.
        let _ = bufs.blocks_write(50);
        let _ = bufs.export_entry(1);
        assert_eq!(bufs.generation(), g);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn double_lock_by_same_owner_rejected() {
        let mut bufs = LockingBuffers::new(4);
        bufs.try_lock(1, sig_with(&[1]), sig_with(&[]), &[], &[1])
            .unwrap();
        let _ = bufs.try_lock(1, sig_with(&[2]), sig_with(&[]), &[], &[2]);
    }
}
