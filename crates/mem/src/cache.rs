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
/// The tags are three flat, set-major arrays (way `w` of set `s` sits at
/// `s * ways + w`), each allocated zeroed, so a set the simulation never
/// touches costs no resident memory. A zero LRU stamp marks an invalid
/// way: the clock is bumped before every stamp, so a valid stamp is never
/// zero.
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
    /// Line address held by each way (meaningful only while valid).
    lines: Vec<u64>,
    /// LRU timestamp of each way (bigger = more recent); 0 = invalid.
    stamps: Vec<u64>,
    /// `WrTX_ID` tag of each way: the local transaction slot that
    /// speculatively wrote the line, as slot + 1; 0 = none (private
    /// caches never set it).
    owners: Vec<u32>,
    num_sets: usize,
    ways: usize,
    clock: u64,
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
    /// Panics if `ways` is zero or if the capacity holds fewer than `ways`
    /// lines (no complete set).
    pub fn new(bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be nonzero");
        let lines = bytes / line_bytes;
        assert!(lines >= ways, "cache smaller than one set");
        let num_sets = lines / ways;
        let n = num_sets * ways;
        SetAssocCache {
            lines: vec![0; n],
            stamps: vec![0; n],
            owners: vec![0; n],
            num_sets,
            ways,
            clock: 0,
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

    /// The tag-array index of the first way of `line`'s set.
    fn set_base(&self, line: u64) -> usize {
        self.set_of(line) * self.ways
    }

    /// The tag-array index of `line` if it is resident in the set that
    /// starts at `base`.
    fn way_in(&self, base: usize, line: u64) -> Option<usize> {
        let r = base..base + self.ways;
        self.lines[r.clone()]
            .iter()
            .zip(&self.stamps[r])
            .position(|(&l, &st)| l == line && st != 0)
            .map(|w| base + w)
    }

    /// The tag-array index of `line` if it is resident.
    fn find(&self, line: u64) -> Option<usize> {
        self.way_in(self.set_base(line), line)
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
    /// invalid ways, then the LRU *non-speculative* way, and only evicts a
    /// speculative line when the whole set is speculative (Section VIII-C
    /// replacement policy).
    pub fn touch(&mut self, line: u64) -> Fill {
        self.clock += 1;
        let stamp = self.clock;
        let base = self.set_base(line);
        if let Some(i) = self.way_in(base, line) {
            self.stamps[i] = stamp;
            self.hits += 1;
            return Fill::Hit;
        }
        self.misses += 1;

        let stamps = &self.stamps[base..base + self.ways];
        let owners = &self.owners[base..base + self.ways];
        let (i, fill) = if let Some(w) = stamps.iter().position(|&st| st == 0) {
            (base + w, Fill::Miss)
        } else {
            // LRU among non-speculative ways first; a fully speculative
            // set evicts its LRU line and reports the owner for squashing.
            // Valid stamps are distinct, so the minimum is unique.
            let lru = |spec_ok: bool| {
                stamps
                    .iter()
                    .zip(owners)
                    .enumerate()
                    .filter(|&(_, (_, &o))| spec_ok || o == 0)
                    .min_by_key(|&(_, (&st, _))| st)
                    .map(|(w, _)| base + w)
            };
            match lru(false) {
                Some(i) => (i, Fill::Evicted(self.lines[i])),
                None => {
                    let i = lru(true).expect("nonzero associativity");
                    let owner = owner_slot(self.owners[i]).expect("all ways speculative");
                    (i, Fill::EvictedSpeculative(self.lines[i], owner))
                }
            }
        };
        self.lines[i] = line;
        self.stamps[i] = stamp;
        self.owners[i] = 0;
        fill
    }

    /// Sets the `WrTX_ID` tag of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (callers must `touch` first).
    pub fn set_spec_owner(&mut self, line: u64, owner: SlotId) {
        let i = self.find(line).expect("tagging a non-resident line");
        self.owners[i] = u32::from(owner.0) + 1;
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
    /// data must be discarded).
    pub fn invalidate(&mut self, line: u64) {
        if let Some(i) = self.find(line) {
            self.stamps[i] = 0;
            self.owners[i] = 0;
        }
    }

    /// Number of resident lines currently tagged speculative.
    pub fn speculative_lines(&self) -> usize {
        self.stamps
            .iter()
            .zip(&self.owners)
            .filter(|&(&st, &o)| st != 0 && o != 0)
            .count()
    }
}

/// Decodes an `owners` entry (slot + 1, or 0 for none).
fn owner_slot(tag: u32) -> Option<SlotId> {
    tag.checked_sub(1).map(|s| SlotId(s as u16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(1024, 64, 2); // 16 lines, 8 sets
        assert_eq!(c.touch(3), Fill::Miss);
        assert_eq!(c.touch(3), Fill::Hit);
        assert!(c.contains(3));
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = SetAssocCache::new(256, 64, 2); // 4 lines, 2 sets
                                                    // Lines 0, 2, 4 all map to set 0.
        c.touch(0);
        c.touch(2);
        c.touch(0); // 0 is now MRU; 2 is LRU
        assert_eq!(c.touch(4), Fill::Evicted(2));
        assert!(c.contains(0));
        assert!(!c.contains(2));
    }

    #[test]
    fn replacement_prefers_non_speculative_victim() {
        let mut c = SetAssocCache::new(256, 64, 2); // 2 sets
        c.touch(0);
        c.touch(2);
        c.set_spec_owner(0, SlotId(5));
        // 0 is LRU but speculative: 2 must be the victim.
        assert_eq!(c.touch(4), Fill::Evicted(2));
        assert!(c.contains(0));
    }

    #[test]
    fn full_speculative_set_reports_squash() {
        let mut c = SetAssocCache::new(256, 64, 2);
        c.touch(0);
        c.touch(2);
        c.set_spec_owner(0, SlotId(1));
        c.set_spec_owner(2, SlotId(2));
        match c.touch(4) {
            Fill::EvictedSpeculative(line, owner) => {
                assert_eq!(line, 0); // LRU speculative line
                assert_eq!(owner, SlotId(1));
            }
            other => panic!("expected speculative eviction, got {other:?}"),
        }
    }

    #[test]
    fn spec_tag_lifecycle() {
        let mut c = SetAssocCache::new(1024, 64, 2);
        c.touch(9);
        assert_eq!(c.spec_owner(9), None);
        c.set_spec_owner(9, SlotId(3));
        assert_eq!(c.spec_owner(9), Some(SlotId(3)));
        assert_eq!(c.speculative_lines(), 1);
        assert!(c.clear_spec_owner(9));
        assert!(!c.clear_spec_owner(9));
        assert_eq!(c.spec_owner(9), None);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(1024, 64, 2);
        c.touch(5);
        c.set_spec_owner(5, SlotId(0));
        c.invalidate(5);
        assert!(!c.contains(5));
        assert_eq!(c.speculative_lines(), 0);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn tagging_nonresident_line_panics() {
        let mut c = SetAssocCache::new(1024, 64, 2);
        c.set_spec_owner(1, SlotId(0));
    }

    #[test]
    fn geometry() {
        let c = SetAssocCache::new(4 << 20, 64, 16);
        assert_eq!(c.num_sets(), 4096);
        assert_eq!(c.ways(), 16);
        // The default LLC (5 cores x 4 MB, 16-way) has 20,480 sets.
        let llc = SetAssocCache::new(20 << 20, 64, 16);
        assert_eq!(llc.num_sets(), 20_480);
    }

    /// One way of the reference model.
    #[derive(Debug, Clone, Copy)]
    struct RefWay {
        line: u64,
        valid: bool,
        stamp: u64,
        owner: Option<SlotId>,
    }

    /// Reference model: each set its own `Vec` of ways, with the
    /// replacement rule spelled out — a hit, else the first invalid way,
    /// else the first LRU non-speculative way, else the LRU way overall.
    struct RefCache {
        sets: Vec<Vec<RefWay>>,
        clock: u64,
    }

    impl RefCache {
        fn new(num_sets: usize, ways: usize) -> Self {
            let invalid = RefWay {
                line: 0,
                valid: false,
                stamp: 0,
                owner: None,
            };
            RefCache {
                sets: vec![vec![invalid; ways]; num_sets],
                clock: 0,
            }
        }

        fn set(&mut self, line: u64) -> &mut Vec<RefWay> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line % n) as usize]
        }

        fn way(&self, line: u64) -> Option<&RefWay> {
            let n = self.sets.len() as u64;
            self.sets[(line % n) as usize]
                .iter()
                .find(|w| w.valid && w.line == line)
        }

        fn touch(&mut self, line: u64) -> Fill {
            self.clock += 1;
            let stamp = self.clock;
            let set = self.set(line);
            if let Some(w) = set.iter_mut().find(|w| w.valid && w.line == line) {
                w.stamp = stamp;
                return Fill::Hit;
            }
            let fresh = RefWay {
                line,
                valid: true,
                stamp,
                owner: None,
            };
            if let Some(w) = set.iter_mut().find(|w| !w.valid) {
                *w = fresh;
                return Fill::Miss;
            }
            let lru = |spec_ok: bool| {
                (0..set.len())
                    .filter(|&i| spec_ok || set[i].owner.is_none())
                    .min_by_key(|&i| set[i].stamp)
            };
            let fill = match lru(false) {
                Some(i) => (i, Fill::Evicted(set[i].line)),
                None => {
                    let i = lru(true).unwrap();
                    (
                        i,
                        Fill::EvictedSpeculative(set[i].line, set[i].owner.unwrap()),
                    )
                }
            };
            set[fill.0] = fresh;
            fill.1
        }

        fn set_spec_owner(&mut self, line: u64, owner: SlotId) {
            let set = self.set(line);
            let w = set.iter_mut().find(|w| w.valid && w.line == line).unwrap();
            w.owner = Some(owner);
        }

        fn clear_spec_owner(&mut self, line: u64) -> bool {
            let set = self.set(line);
            match set
                .iter_mut()
                .find(|w| w.valid && w.line == line && w.owner.is_some())
            {
                Some(w) => {
                    w.owner = None;
                    true
                }
                None => false,
            }
        }

        fn invalidate(&mut self, line: u64) {
            let set = self.set(line);
            if let Some(w) = set.iter_mut().find(|w| w.valid && w.line == line) {
                w.valid = false;
                w.owner = None;
            }
        }

        fn speculative_lines(&self) -> usize {
            self.sets
                .iter()
                .flatten()
                .filter(|w| w.valid && w.owner.is_some())
                .count()
        }
    }

    /// Drives the flat cache and the reference model with the same seeded
    /// mix of operations and compares them after every step. Tagging is
    /// frequent, so sets fill with speculative lines and both kinds of
    /// eviction occur.
    #[test]
    fn flat_tags_match_the_per_set_reference_model() {
        use hades_sim::rng::SimRng;
        for (num_sets, ways) in [(4usize, 2usize), (3, 4)] {
            for seed in 0..4u64 {
                let mut flat = SetAssocCache::new(num_sets * ways * 64, 64, ways);
                let mut model = RefCache::new(num_sets, ways);
                let mut rng = SimRng::seed_from(seed);
                let lines = (num_sets * ways * 3) as u64;
                let (mut evicted, mut squashed) = (0, 0);
                for step in 0..5_000 {
                    let line = rng.below(lines);
                    match rng.below(10) {
                        0..=4 => {
                            let fill = flat.touch(line);
                            assert_eq!(fill, model.touch(line), "step {step}: touch {line}");
                            match fill {
                                Fill::Evicted(_) => evicted += 1,
                                Fill::EvictedSpeculative(..) => squashed += 1,
                                Fill::Hit | Fill::Miss => {}
                            }
                        }
                        5..=7 => {
                            if model.way(line).is_some() {
                                let owner = SlotId(rng.below(5) as u16);
                                flat.set_spec_owner(line, owner);
                                model.set_spec_owner(line, owner);
                            }
                        }
                        8 => assert_eq!(
                            flat.clear_spec_owner(line),
                            model.clear_spec_owner(line),
                            "step {step}: clear {line}"
                        ),
                        _ => {
                            flat.invalidate(line);
                            model.invalidate(line);
                        }
                    }
                    for l in 0..lines {
                        let w = model.way(l);
                        assert_eq!(flat.contains(l), w.is_some(), "step {step}: line {l}");
                        assert_eq!(flat.spec_owner(l), w.and_then(|w| w.owner), "step {step}");
                    }
                    assert_eq!(flat.speculative_lines(), model.speculative_lines());
                }
                assert!(evicted > 100 && squashed > 20, "{evicted} / {squashed}");
            }
        }
    }
}
