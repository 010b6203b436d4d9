//! Memory-hierarchy invariants: the `hades-mem` cache arrays and the
//! per-node hierarchy, checked through the public `SetAssocCache` and
//! `NodeMemory` API.
//!
//! A cache set replaces its least recently used line, never a
//! speculatively written one while a plain line is left, and reports the
//! owner when a fully speculative set must evict (Sections V-A and
//! VIII-C). The hierarchy walks L1 → L2 → LLC → DRAM with Table III's
//! latencies, lets the NIC bypass the private caches, and keeps the
//! per-slot `WrTX_ID` index in step with the LLC's tags through commit,
//! squash and eviction.

use hades::mem::cache::{Fill, SetAssocCache};
use hades::mem::hierarchy::{HitLevel, NodeMemory};
use hades::sim::config::MemParams;
use hades::sim::ids::{CoreId, SlotId};
use hades::sim::rng::SimRng;
use hades::sim::time::Cycles;

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
    // 4 lines, 2 sets: lines 0, 2, 4 all map to set 0.
    let mut c = SetAssocCache::new(256, 64, 2);
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

/// Reference model: each set its own `Vec` of ways with an LRU timestamp
/// each, and the replacement rule spelled out — a hit, else the first
/// invalid way, else the first LRU non-speculative way, else the LRU way
/// overall. It shares no representation with `SetAssocCache`, which keeps
/// recency by position instead of by stamp.
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

/// Drives the cache and the stamp-based reference model with the same
/// seeded mix of operations and compares them after every step. Tagging
/// is frequent, so sets fill with speculative lines and both kinds of
/// eviction occur.
#[test]
fn recency_ordered_sets_match_the_stamp_lru_reference_model() {
    for (num_sets, ways) in [(4usize, 2usize), (3, 4)] {
        for seed in 0..4u64 {
            let mut cache = SetAssocCache::new(num_sets * ways * 64, 64, ways);
            let mut model = RefCache::new(num_sets, ways);
            let mut rng = SimRng::seed_from(seed);
            let lines = (num_sets * ways * 3) as u64;
            let (mut evicted, mut squashed) = (0, 0);
            for step in 0..5_000 {
                let line = rng.below(lines);
                match rng.below(10) {
                    0..=4 => {
                        let fill = cache.touch(line);
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
                            cache.set_spec_owner(line, owner);
                            model.set_spec_owner(line, owner);
                        }
                    }
                    8 => assert_eq!(
                        cache.clear_spec_owner(line),
                        model.clear_spec_owner(line),
                        "step {step}: clear {line}"
                    ),
                    _ => {
                        cache.invalidate(line);
                        model.invalidate(line);
                    }
                }
                for l in 0..lines {
                    let w = model.way(l);
                    assert_eq!(cache.contains(l), w.is_some(), "step {step}: line {l}");
                    assert_eq!(cache.spec_owner(l), w.and_then(|w| w.owner), "step {step}");
                }
                assert_eq!(cache.speculative_lines(), model.speculative_lines());
            }
            assert!(evicted > 100 && squashed > 20, "{evicted} / {squashed}");
        }
    }
}

fn small_params() -> MemParams {
    MemParams {
        l1_bytes: 256,
        l1_ways: 4,
        l2_bytes: 512,
        l2_ways: 8,
        llc_bytes_per_core: 1024,
        ..MemParams::default()
    }
}

#[test]
fn walk_down_the_hierarchy() {
    let mut m = NodeMemory::new(&MemParams::default(), 2);
    let a = m.access(CoreId(1), 100);
    assert_eq!(a.level, HitLevel::Dram);
    assert_eq!(a.latency, Cycles::from_nanos(100));
    let b = m.access(CoreId(1), 100);
    assert_eq!(b.level, HitLevel::L1);
    assert_eq!(b.latency, Cycles::new(2));
    // A different core misses its private caches but hits the LLC.
    let c = m.access(CoreId(0), 100);
    assert_eq!(c.level, HitLevel::Llc);
    assert_eq!(c.latency, Cycles::new(40));
}

#[test]
fn nic_access_skips_private_caches() {
    let mut m = NodeMemory::new(&MemParams::default(), 1);
    m.access(CoreId(0), 7);
    let a = m.access_from_nic(7);
    assert_eq!(a.level, HitLevel::Llc);
    let b = m.access_from_nic(9999);
    assert_eq!(b.level, HitLevel::Dram);
}

#[test]
fn tag_commit_clears_tags_keeps_lines() {
    let mut m = NodeMemory::new(&MemParams::default(), 1);
    m.access(CoreId(0), 5);
    m.tag_write(5, SlotId(2));
    assert_eq!(m.write_owner(5), Some(SlotId(2)));
    assert_eq!(m.lines_tagged(SlotId(2)), vec![5]);
    assert_eq!(m.commit_slot(SlotId(2)), 1);
    assert_eq!(m.write_owner(5), None);
    // Line stays cached after commit.
    assert_eq!(m.access_from_nic(5).level, HitLevel::Llc);
}

#[test]
fn squash_invalidates_lines() {
    let mut m = NodeMemory::new(&MemParams::default(), 1);
    m.tag_write(5, SlotId(1));
    m.tag_write(6, SlotId(1));
    assert_eq!(m.squash_slot(SlotId(1)), 2);
    assert_eq!(m.speculative_lines(), 0);
    // Data was discarded: next access is a DRAM miss.
    assert_eq!(m.access_from_nic(5).level, HitLevel::Dram);
}

#[test]
fn eviction_of_speculative_line_squashes_owner() {
    // Tiny LLC: 1024 B = 16 lines, 16-way => a single set.
    let p = small_params();
    let mut m = NodeMemory::new(&p, 1);
    // Fill the whole LLC set with speculative lines of slot 0.
    for line in 0..16u64 {
        m.tag_write(line, SlotId(0));
    }
    // One more distinct line must displace a speculative line.
    let out = m.access_from_nic(1000);
    assert_eq!(out.evicted_owners, vec![SlotId(0)]);
    assert_eq!(m.eviction_squashes(), 1);
}

#[test]
fn replacement_protects_speculative_lines_under_mixed_pressure() {
    let p = small_params();
    let mut m = NodeMemory::new(&p, 1);
    // 8 speculative + 8 non-speculative lines fill the set.
    for line in 0..8u64 {
        m.tag_write(line, SlotId(3));
    }
    for line in 8..16u64 {
        m.access_from_nic(line);
    }
    // Heavy non-speculative traffic: victims must be the plain lines.
    for line in 100..124u64 {
        let out = m.access_from_nic(line);
        assert!(out.evicted_owners.is_empty());
    }
    assert_eq!(m.lines_tagged(SlotId(3)).len(), 8);
}

#[test]
fn lines_tagged_is_sorted_and_deduplicated() {
    let mut m = NodeMemory::new(&MemParams::default(), 1);
    m.tag_write(9, SlotId(0));
    m.tag_write(3, SlotId(0));
    m.tag_write(9, SlotId(0));
    assert_eq!(m.lines_tagged(SlotId(0)), vec![3, 9]);
}

#[test]
fn commit_of_unknown_slot_is_noop() {
    let mut m = NodeMemory::new(&MemParams::default(), 1);
    assert_eq!(m.commit_slot(SlotId(7)), 0);
    assert_eq!(m.squash_slot(SlotId(7)), 0);
}
