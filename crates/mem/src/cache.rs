//! Set-associative cache arrays with LRU replacement and speculative-line
//! protection.
//!
//! HADES buffers a transaction's local speculative writes in the cache
//! hierarchy, *including the shared LLC*, and a speculatively written line
//! may not leave the LLC — if it is evicted, the owning transaction must be
//! squashed (Section V-A). Section VIII-C additionally modifies the
//! replacement policy to prefer non-speculative victims within a set. Both
//! behaviours are implemented here.

use hades_sim::ids::SlotId;

/// Result of bringing a line into a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// The line was already present.
    Hit,
    /// The line was inserted; no valid line was displaced.
    Miss,
    /// The line was inserted, displacing a non-speculative line.
    Evicted(u64),
    /// The line was inserted, displacing a *speculatively written* line —
    /// the owning transaction must be squashed.
    EvictedSpeculative(u64, SlotId),
}

/// A set-associative, LRU cache array over 64-bit line addresses.
///
/// The tags are two flat, set-major arrays (set `s` owns the entries
/// `s * ways..(s + 1) * ways`), each allocated zeroed, so a set the
/// simulation never touches costs no resident memory. A set keeps its
/// `lens[s]` valid lines at the front of its entries in recency order,
/// most recent first, so replacement needs no timestamps: a hit moves to
/// the front, a fill goes to the front and a victim is found from the
/// back. Which entry a line sits in is not observable; only the set's
/// contents, their order and their owners decide every [`Fill`].
///
/// # Examples
///
/// ```
/// use hades_mem::cache::{Fill, SetAssocCache};
///
/// let mut c = SetAssocCache::new(64 * 1024, 64, 8); // 64 KB, 8-way
/// assert_eq!(c.touch(0x40), Fill::Miss);
/// assert_eq!(c.touch(0x40), Fill::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Line address held by each entry (meaningful only while valid).
    tags: Vec<u64>,
    /// `WrTX_ID` tag of each entry: the local transaction slot that
    /// speculatively wrote the line, as slot + 1; 0 = none (private
    /// caches never set it). Invalid entries hold 0.
    owners: Vec<u16>,
    /// Number of valid lines in each set.
    lens: Vec<u8>,
    num_sets: usize,
    ways: usize,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `bytes` capacity with `line_bytes` lines and
    /// `ways` associativity. The set count is `bytes / line_bytes / ways`,
    /// rounded down; it need not be a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above 255, or if the capacity holds
    /// fewer than `ways` lines (no complete set).
    pub fn new(bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be nonzero");
        assert!(ways <= 255, "associativity {ways} above 255");
        let lines = bytes / line_bytes;
        assert!(lines >= ways, "cache smaller than one set");
        let num_sets = lines / ways;
        let n = num_sets * ways;
        SetAssocCache {
            tags: vec![0; n],
            owners: vec![0; n],
            lens: vec![0; num_sets],
            num_sets,
            ways,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// (hits, misses) since creation.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The set index a line maps to.
    pub fn set_of(&self, line: u64) -> usize {
        (line % self.num_sets as u64) as usize
    }

    /// The array index of `line`'s entry if it is resident.
    fn find(&self, line: u64) -> Option<usize> {
        let set = self.set_of(line);
        let base = set * self.ways;
        self.tags[base..base + self.lens[set] as usize]
            .iter()
            .position(|&l| l == line)
            .map(|w| base + w)
    }

    /// Moves the entry at `i` to `base`, the front of its set, shifting
    /// the entries before it back by one, and stores `line` and `owner`
    /// there.
    fn put_front(&mut self, base: usize, i: usize, line: u64, owner: u16) {
        self.tags.copy_within(base..i, base + 1);
        self.owners.copy_within(base..i, base + 1);
        self.tags[base] = line;
        self.owners[base] = owner;
    }

    /// Whether `line` is resident.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// The speculative owner (`WrTX_ID` tag) of `line`, if resident and
    /// tagged.
    pub fn spec_owner(&self, line: u64) -> Option<SlotId> {
        self.find(line).and_then(|i| owner_slot(self.owners[i]))
    }

    /// Accesses `line`, filling it on a miss. The victim choice prefers
    /// a free entry, then the LRU *non-speculative* line, and only evicts
    /// a speculative line when the whole set is speculative (Section
    /// VIII-C replacement policy).
    pub fn touch(&mut self, line: u64) -> Fill {
        let set = self.set_of(line);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let valid = base..base + len;
        if let Some(w) = self.tags[valid.clone()].iter().position(|&l| l == line) {
            let owner = self.owners[base + w];
            self.put_front(base, base + w, line, owner);
            self.hits += 1;
            return Fill::Hit;
        }
        self.misses += 1;

        let (i, fill) = if len < self.ways {
            self.lens[set] += 1;
            (base + len, Fill::Miss)
        } else {
            // The last non-speculative line is the LRU one; a fully
            // speculative set evicts its last line and reports the owner
            // for squashing.
            match self.owners[valid].iter().rposition(|&o| o == 0) {
                Some(w) => (base + w, Fill::Evicted(self.tags[base + w])),
                None => {
                    let i = base + len - 1;
                    let owner = owner_slot(self.owners[i]).expect("all ways speculative");
                    (i, Fill::EvictedSpeculative(self.tags[i], owner))
                }
            }
        };
        self.put_front(base, i, line, 0);
        fill
    }

    /// Sets the `WrTX_ID` tag of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (callers must `touch` first).
    pub fn set_spec_owner(&mut self, line: u64, owner: SlotId) {
        let i = self.find(line).expect("tagging a non-resident line");
        self.owners[i] = owner.0.checked_add(1).expect("slot id below u16::MAX");
    }

    /// Clears the `WrTX_ID` tag of `line` if resident; returns whether a tag
    /// was cleared.
    pub fn clear_spec_owner(&mut self, line: u64) -> bool {
        match self.find(line) {
            Some(i) if self.owners[i] != 0 => {
                self.owners[i] = 0;
                true
            }
            _ => false,
        }
    }

    /// Invalidates `line` if resident (used when squashing: speculative
    /// data must be discarded). The lines behind it move up one entry,
    /// keeping their order.
    pub fn invalidate(&mut self, line: u64) {
        if let Some(i) = self.find(line) {
            let set = self.set_of(line);
            let end = set * self.ways + self.lens[set] as usize;
            self.tags.copy_within(i + 1..end, i);
            self.owners.copy_within(i + 1..end, i);
            self.owners[end - 1] = 0;
            self.lens[set] -= 1;
        }
    }

    /// Number of resident lines currently tagged speculative.
    pub fn speculative_lines(&self) -> usize {
        self.owners.iter().filter(|&&o| o != 0).count()
    }
}

/// Decodes an `owners` entry (slot + 1, or 0 for none).
fn owner_slot(tag: u16) -> Option<SlotId> {
    tag.checked_sub(1).map(SlotId)
}
