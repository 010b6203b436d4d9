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
/// The entries are one flat, set-major array (set `s` owns the entries
/// `s * ways..(s + 1) * ways`), allocated zeroed, so a set the
/// simulation never touches costs no resident memory. An entry holds
/// only its line's set quotient (see [`TagWord`]): 8 bytes with `u64`
/// tags, 4 with `u32` tags. Few lines are tagged at once, so their
/// `WrTX_ID` owners sit in one sparse table, and a full set with no
/// tagged line evicts its last line without a lookup. A set keeps its
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
    /// Number of valid lines in each set.
    lens: Vec<u8>,
    /// Number of tagged lines (`owners` entries) in each set.
    tagged: Vec<u8>,
    /// `WrTX_ID` tags: each resident, speculatively written line with the
    /// local slot that wrote it, sorted by line (private caches have none).
    owners: Vec<(u64, SlotId)>,
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
        SetAssocCache {
            tags: vec![T::default(); num_sets * ways],
            lens: vec![0; num_sets],
            tagged: vec![0; num_sets],
            owners: Vec::new(),
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
    /// the entries before it back by one, and stores `tag` there.
    fn put_front(&mut self, base: usize, i: usize, tag: T) {
        self.tags.copy_within(base..i, base + 1);
        self.tags[base] = tag;
    }

    /// The index of `line` in `owners`, or where it would go.
    fn owner_index(&self, line: u64) -> Result<usize, usize> {
        self.owners.binary_search_by_key(&line, |&(l, _)| l)
    }

    /// Tags `line`, resident in `set`, with `owner`.
    fn tag(&mut self, line: u64, set: usize, owner: SlotId) {
        match self.owner_index(line) {
            Ok(k) => self.owners[k].1 = owner,
            Err(k) => {
                self.owners.insert(k, (line, owner));
                self.tagged[set] += 1;
            }
        }
    }

    /// Untags `line`, of `set`, if it is tagged, returning its owner.
    fn untag(&mut self, line: u64, set: usize) -> Option<SlotId> {
        let k = self.owner_index(line).ok()?;
        self.tagged[set] -= 1;
        Some(self.owners.remove(k).1)
    }

    /// Whether `line` is resident.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// The speculative owner (`WrTX_ID` tag) of `line`, if resident and
    /// tagged.
    pub fn spec_owner(&self, line: u64) -> Option<SlotId> {
        self.owner_index(line).ok().map(|k| self.owners[k].1)
    }

    /// Accesses `line`, filling it on a miss. The victim choice prefers
    /// a free entry, then the LRU *non-speculative* line, and only evicts
    /// a speculative line when the whole set is speculative (Section
    /// VIII-C replacement policy).
    pub fn touch(&mut self, line: u64) -> Fill {
        self.fill(line).0
    }

    /// Accesses `line` as [`touch`](Self::touch) does, then sets its
    /// `WrTX_ID` tag to `owner`: one set search for a speculative write.
    pub fn touch_owned(&mut self, line: u64, owner: SlotId) -> Fill {
        let (fill, set) = self.fill(line);
        self.tag(line, set, owner);
        fill
    }

    /// [`touch`](Self::touch), also returning `line`'s set.
    fn fill(&mut self, line: u64) -> (Fill, usize) {
        let (set, tag) = self.split(line);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        if let Some(w) = self.tags[base..base + len].iter().position(|&t| t == tag) {
            self.put_front(base, base + w, tag);
            self.hits += 1;
            return (Fill::Hit, set);
        }
        self.misses += 1;

        let (i, fill) = if len < self.ways {
            self.lens[set] += 1;
            (base + len, Fill::Miss)
        } else {
            // The last untagged line is the LRU non-speculative one; a
            // fully speculative set evicts its last line and reports the
            // owner for squashing.
            let plain = self.tagged[set] == 0;
            let line_of = |w: usize| self.line_at(set, self.tags[base + w]);
            let untagged = |&w: &usize| plain || self.owner_index(line_of(w)).is_err();
            match (0..len).rev().find(untagged) {
                Some(w) => (base + w, Fill::Evicted(line_of(w))),
                None => {
                    let victim = line_of(len - 1);
                    let owner = self.untag(victim, set).expect("all ways speculative");
                    (base + len - 1, Fill::EvictedSpeculative(victim, owner))
                }
            }
        };
        self.put_front(base, i, tag);
        (fill, set)
    }

    /// Sets the `WrTX_ID` tag of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (callers must `touch` first).
    pub fn set_spec_owner(&mut self, line: u64, owner: SlotId) {
        let i = self.find(line).expect("tagging a non-resident line");
        self.tag(line, i / self.ways, owner);
    }

    /// Invalidates `line` if resident (used when squashing: speculative
    /// data must be discarded). The lines behind it move up one entry,
    /// keeping their order.
    pub fn invalidate(&mut self, line: u64) {
        if let Some(i) = self.find(line) {
            let set = i / self.ways;
            self.untag(line, set);
            let end = set * self.ways + self.lens[set] as usize;
            self.tags.copy_within(i + 1..end, i);
            self.lens[set] -= 1;
        }
    }

    /// Untags every line `owner` tagged, invalidating them too on a squash
    /// (`invalidate`); returns how many there were. Removing distinct lines
    /// from a recency-ordered set leaves the same order whichever goes
    /// first. The table keeps its allocation.
    pub fn release(&mut self, owner: SlotId, invalidate: bool) -> usize {
        let mut owners = std::mem::take(&mut self.owners);
        let n = owners.len();
        owners.retain(|&(line, o)| {
            if o == owner {
                let set = self.split(line).0;
                self.tagged[set] -= 1;
                if invalidate {
                    self.invalidate(line); // no tag to find: the table is out
                }
            }
            o != owner
        });
        self.owners = owners;
        n - self.owners.len()
    }

    /// The lines `owner` tagged, in line order.
    pub fn lines_of(&self, owner: SlotId) -> impl Iterator<Item = u64> + '_ {
        self.owners
            .iter()
            .filter(move |e| e.1 == owner)
            .map(|e| e.0)
    }

    /// Number of resident lines currently tagged speculative.
    pub fn speculative_lines(&self) -> usize {
        self.owners.len()
    }
}
