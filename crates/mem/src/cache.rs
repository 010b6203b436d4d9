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
use std::fmt;

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

/// The unsigned integer a cache entry stores its tag in: `u64` or `u32`.
///
/// A tag is the line's set quotient, `line / num_sets`; the set index is
/// the remainder, so `quotient * num_sets + set` gives the line back
/// exactly. A line whose quotient does not fit the width is refused with
/// a panic, never wrapped.
pub trait TagWord: Copy + Eq + Default + fmt::Debug + TryFrom<u64> + Into<u64> {}

impl TagWord for u32 {}
impl TagWord for u64 {}

/// A set-associative, LRU cache array over 64-bit line addresses, with
/// tags of width `T` (64-bit by default).
///
/// The entries are two flat, set-major arrays (set `s` owns the entries
/// `s * ways..(s + 1) * ways`), each allocated zeroed, so a set the
/// simulation never touches costs no resident memory. An entry holds its
/// line's set quotient (see [`TagWord`]) and its `WrTX_ID` owner: 10
/// bytes with `u64` tags, 6 with `u32` tags. A set keeps its
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
///
/// // 32-bit tags: 1,024 sets hold lines below 2^32 * 1,024 = 2^42.
/// let mut llc = SetAssocCache::<u32>::sized(1 << 20, 64, 16);
/// assert!(llc.holds_line((1 << 42) - 1) && !llc.holds_line(1 << 42));
/// assert_eq!(llc.touch((1 << 42) - 1), Fill::Miss);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<T = u64> {
    /// Set quotient of the line held by each entry (meaningful only while
    /// valid).
    tags: Vec<T>,
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
    /// Creates a cache with 64-bit tags, which hold every line address;
    /// see [`sized`](Self::sized).
    ///
    /// # Panics
    ///
    /// As [`sized`](Self::sized).
    pub fn new(bytes: usize, line_bytes: usize, ways: usize) -> Self {
        Self::sized(bytes, line_bytes, ways)
    }
}

impl<T: TagWord> SetAssocCache<T> {
    /// Creates a cache of `bytes` capacity with `line_bytes` lines and
    /// `ways` associativity. The set count is `bytes / line_bytes / ways`,
    /// rounded down; it need not be a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above 255, or if the capacity holds
    /// fewer than `ways` lines (no complete set).
    pub fn sized(bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be nonzero");
        assert!(ways <= 255, "associativity {ways} above 255");
        let lines = bytes / line_bytes;
        assert!(lines >= ways, "cache smaller than one set");
        let num_sets = lines / ways;
        let n = num_sets * ways;
        SetAssocCache {
            tags: vec![T::default(); n],
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

    /// Whether `line`'s set quotient fits the tag width, so the cache
    /// can hold it. Every line below some bound fits: `2^32 * num_sets`
    /// with `u32` tags, all of them with `u64` tags.
    pub fn holds_line(&self, line: u64) -> bool {
        T::try_from(line / self.num_sets as u64).is_ok()
    }

    /// `line`'s set index and tag, from one division.
    ///
    /// # Panics
    ///
    /// Panics if the tag width cannot hold `line` (see
    /// [`holds_line`](Self::holds_line)).
    fn split(&self, line: u64) -> (usize, T) {
        let n = self.num_sets as u64;
        let tag = T::try_from(line / n).ok().unwrap_or_else(|| {
            panic!(
                "line {line:#x} past the {}-bit tags of {n} sets",
                8 * std::mem::size_of::<T>()
            )
        });
        ((line % n) as usize, tag)
    }

    /// The line held in `set` under `tag`.
    fn line_at(&self, set: usize, tag: T) -> u64 {
        tag.into() * self.num_sets as u64 + set as u64
    }

    /// The array index of `line`'s entry if it is resident.
    fn find(&self, line: u64) -> Option<usize> {
        let (set, tag) = self.split(line);
        let base = set * self.ways;
        self.tags[base..base + self.lens[set] as usize]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Moves the entry at `i` to `base`, the front of its set, shifting
    /// the entries before it back by one, and stores `tag` and `owner`
    /// there.
    fn put_front(&mut self, base: usize, i: usize, tag: T, owner: u16) {
        self.tags.copy_within(base..i, base + 1);
        self.owners.copy_within(base..i, base + 1);
        self.tags[base] = tag;
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
        self.fill(line).0
    }

    /// Accesses `line` as [`touch`](Self::touch) does, then sets its
    /// `WrTX_ID` tag to `owner`: one lookup for a speculative write.
    pub fn touch_owned(&mut self, line: u64, owner: SlotId) -> Fill {
        let (fill, i) = self.fill(line);
        self.owners[i] = owner_tag(owner);
        fill
    }

    /// [`touch`](Self::touch), also returning the entry `line` now sits
    /// in: the front of its set.
    fn fill(&mut self, line: u64) -> (Fill, usize) {
        let (set, tag) = self.split(line);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let valid = base..base + len;
        if let Some(w) = self.tags[valid.clone()].iter().position(|&t| t == tag) {
            let owner = self.owners[base + w];
            self.put_front(base, base + w, tag, owner);
            self.hits += 1;
            return (Fill::Hit, base);
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
                Some(w) => (
                    base + w,
                    Fill::Evicted(self.line_at(set, self.tags[base + w])),
                ),
                None => {
                    let i = base + len - 1;
                    let owner = owner_slot(self.owners[i]).expect("all ways speculative");
                    let victim = self.line_at(set, self.tags[i]);
                    (i, Fill::EvictedSpeculative(victim, owner))
                }
            }
        };
        self.put_front(base, i, tag, 0);
        (fill, base)
    }

    /// Sets the `WrTX_ID` tag of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (callers must `touch` first).
    pub fn set_spec_owner(&mut self, line: u64, owner: SlotId) {
        let i = self.find(line).expect("tagging a non-resident line");
        self.owners[i] = owner_tag(owner);
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
            let set = i / self.ways;
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

/// Encodes `owner` as an `owners` entry.
fn owner_tag(owner: SlotId) -> u16 {
    owner.0.checked_add(1).expect("slot id below u16::MAX")
}

/// Decodes an `owners` entry (slot + 1, or 0 for none).
fn owner_slot(tag: u16) -> Option<SlotId> {
    tag.checked_sub(1).map(SlotId)
}
