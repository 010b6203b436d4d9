//! Memory-hierarchy invariants: the `hades-mem` cache arrays and the
//! per-node hierarchy, checked through the public `SetAssocCache` and
//! `NodeMemory` API.
//!
//! A cache set replaces its least recently used line, never a
//! speculatively written one while a plain line is left, and reports the
//! owner when a fully speculative set must evict (Sections V-A and
//! VIII-C). The hierarchy walks L1 → L2 → LLC → DRAM with Table III's
//! latencies, lets the NIC bypass the private caches, and answers each
//! slot's tagged lines from the LLC's one `WrTX_ID` table through commit,
//! squash and eviction; a slot never tags a line another slot wrote. The
//! LLC's 32-bit tags decode every line of the cluster shapes the figures
//! use, and a cluster whose line space they cannot hold is refused when
//! it is built.

use hades::core::runtime::Cluster;
use hades::mem::cache::{Fill, SetAssocCache, TagWord};
use hades::mem::hierarchy::{HitLevel, NodeMemory};
use hades::sim::config::{ClusterShape, MemParams, SimConfig};
use hades::sim::ids::{CoreId, SlotId};
use hades::sim::rng::SimRng;
use hades::sim::time::Cycles;
use hades::storage::db::{line_space, Database};
use std::collections::BTreeMap;

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
    // A commit clears the tag and keeps the line.
    assert_eq!(c.release(SlotId(3), false), 1);
    assert_eq!(c.release(SlotId(3), false), 0);
    assert_eq!(c.spec_owner(9), None);
    assert!(c.contains(9));
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
/// each and the full line address as its tag, made when first used, and
/// the replacement rule spelled out — a hit, else the first invalid way,
/// else the first LRU non-speculative way, else the LRU way overall. It
/// shares no representation with `SetAssocCache`, which keeps recency by
/// position instead of by stamp and a set quotient instead of the line.
struct RefCache {
    num_sets: u64,
    ways: usize,
    sets: BTreeMap<u64, Vec<RefWay>>,
    clock: u64,
}

impl RefCache {
    fn new(num_sets: usize, ways: usize) -> Self {
        RefCache {
            num_sets: num_sets as u64,
            ways,
            sets: BTreeMap::new(),
            clock: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<RefWay> {
        let invalid = RefWay {
            line: 0,
            valid: false,
            stamp: 0,
            owner: None,
        };
        let ways = self.ways;
        self.sets
            .entry(line % self.num_sets)
            .or_insert_with(|| vec![invalid; ways])
    }

    fn way(&self, line: u64) -> Option<&RefWay> {
        self.sets
            .get(&(line % self.num_sets))?
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

    /// Clears every tag of `owner`, also invalidating the lines if
    /// `invalidate`; returns how many there were.
    fn release(&mut self, owner: SlotId, invalidate: bool) -> usize {
        let mut n = 0;
        for w in self.sets.values_mut().flatten() {
            if w.valid && w.owner == Some(owner) {
                w.owner = None;
                w.valid = !invalidate;
                n += 1;
            }
        }
        n
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
            .values()
            .flatten()
            .filter(|w| w.valid && w.owner.is_some())
            .count()
    }
}

/// Drives `cache` and a fresh stamp-based reference model with the same
/// seeded mix of operations over `pool`'s lines and compares them after
/// every step: every `Fill`, evicted line addresses included, every pool
/// line's residency and owner, and the whole cache's speculative count.
/// An operation is drawn from `0..kinds`: 0–4 touch, 8 commits or
/// squashes one owner's lines, 9 invalidates a line and the rest tag, so
/// a larger `kinds` tags more often. A tag is either `touch_owned`, which
/// fills the line first, or `set_spec_owner` on a resident line. Tagging
/// is frequent, so sets fill with speculative lines and both kinds of
/// eviction occur. Returns the (plain, speculative) eviction counts.
fn match_reference_model<T: TagWord>(
    cache: &mut SetAssocCache<T>,
    pool: &[u64],
    seed: u64,
    (steps, kinds): (usize, u64),
) -> (usize, usize) {
    let mut model = RefCache::new(cache.num_sets(), cache.ways());
    let mut rng = SimRng::seed_from(seed);
    let (mut evicted, mut squashed) = (0, 0);
    for step in 0..steps {
        let line = pool[rng.below(pool.len() as u64) as usize];
        let mut count = |fill: Fill| match fill {
            Fill::Evicted(_) => evicted += 1,
            Fill::EvictedSpeculative(..) => squashed += 1,
            Fill::Hit | Fill::Miss => {}
        };
        match rng.below(kinds) {
            0..=4 => {
                let fill = cache.touch(line);
                assert_eq!(fill, model.touch(line), "step {step}: touch {line:#x}");
                count(fill);
            }
            5..=7 | 10.. => {
                let owner = SlotId(rng.below(5) as u16);
                if rng.below(2) == 0 {
                    let fill = cache.touch_owned(line, owner);
                    assert_eq!(fill, model.touch(line), "step {step}: owned {line:#x}");
                    model.set_spec_owner(line, owner);
                    count(fill);
                } else if model.way(line).is_some() {
                    cache.set_spec_owner(line, owner);
                    model.set_spec_owner(line, owner);
                }
            }
            8 => {
                let owner = SlotId(rng.below(5) as u16);
                let squash = rng.below(2) == 0;
                assert_eq!(
                    cache.release(owner, squash),
                    model.release(owner, squash),
                    "step {step}: release {owner}"
                );
            }
            9 => {
                cache.invalidate(line);
                model.invalidate(line);
            }
        }
        for &l in pool {
            let w = model.way(l);
            assert_eq!(cache.contains(l), w.is_some(), "step {step}: line {l:#x}");
            assert_eq!(cache.spec_owner(l), w.and_then(|w| w.owner), "step {step}");
        }
        assert_eq!(
            cache.speculative_lines(),
            model.speculative_lines(),
            "step {step}"
        );
    }
    (evicted, squashed)
}

#[test]
fn recency_ordered_sets_match_the_stamp_lru_reference_model() {
    for (num_sets, ways) in [(4usize, 2usize), (3, 4)] {
        for seed in 0..4u64 {
            let mut cache = SetAssocCache::new(num_sets * ways * 64, 64, ways);
            let pool: Vec<u64> = (0..(num_sets * ways * 3) as u64).collect();
            let (evicted, squashed) = match_reference_model(&mut cache, &pool, seed, (5_000, 10));
            assert!(evicted > 100 && squashed > 20, "{evicted} / {squashed}");
        }
    }
}

/// Lines of every node slab of a `nodes`-node cluster that fall in set
/// `set` of `num_sets`: the lowest and the highest `per_end` of each
/// slab.
fn slab_lines_in_set(nodes: usize, num_sets: u64, set: u64, per_end: u64) -> Vec<u64> {
    let mut lines = Vec::new();
    for n in 0..nodes {
        let (lo, hi) = (line_space(n), line_space(n + 1) - 1);
        let first = lo + (set + num_sets - lo % num_sets) % num_sets;
        let last = hi - (hi % num_sets + num_sets - set) % num_sets;
        for j in 0..per_end {
            lines.push(first + j * num_sets);
            lines.push(last - j * num_sets);
        }
    }
    lines
}

/// The LLC's 32-bit tags store a line's set quotient, so every `Fill`
/// must decode the evicted line exactly. Drives full-size LLCs (Table
/// III: 4 MB per core, 16-way) of the default 5×5, Fig 13's 10×5 and
/// Fig 15's 8×25 shapes against the reference model, with lines from
/// every node slab in set 0 and in the set of the line space's last line.
#[test]
fn llc_32_bit_tags_match_the_reference_model_on_every_node_slab() {
    let p = MemParams::default();
    for shape in [
        ClusterShape::DEFAULT,
        ClusterShape::N10_C5,
        ClusterShape::N8_C25,
    ] {
        let cores = shape.cores_per_node;
        let mut llc = SetAssocCache::<u32>::sized(cores * p.llc_bytes_per_core, 64, p.llc_ways);
        let num_sets = llc.num_sets() as u64;
        assert_eq!(num_sets, 4096 * cores as u64);
        let last = line_space(shape.nodes) - 1;
        let mut pool = slab_lines_in_set(shape.nodes, num_sets, 0, 3);
        pool.extend(slab_lines_in_set(shape.nodes, num_sets, last % num_sets, 3));
        assert!(pool.contains(&last));
        let (evicted, squashed) = match_reference_model(&mut llc, &pool, 7, (20_000, 16));
        let nodes = shape.nodes;
        assert!(
            evicted > 1_000 && squashed > 10,
            "{nodes}x{cores}: {evicted} / {squashed}"
        );
    }
}

#[test]
#[should_panic(expected = "past the 32-bit tags of 1024 sets")]
fn llc_tags_refuse_a_line_past_their_width() {
    let mut llc = SetAssocCache::<u32>::sized(1 << 20, 64, 16);
    llc.touch(1 << 42);
}

/// At Table III sizes a node's LLC has 4,096 sets per core, so its
/// 32-bit tags hold `2^44 × cores` lines: 16 node slabs per core. Sec
/// VIII-C's pressure LLC (32 KB per core, 2-way) holds exactly the 5×5
/// cluster's line space.
#[test]
fn llc_tags_hold_16_slabs_per_core() {
    for cores in [1, 5, 25] {
        let m = NodeMemory::new(&MemParams::default(), cores);
        assert!(m.llc_holds_line(line_space(16 * cores) - 1));
        assert!(!m.llc_holds_line(line_space(16 * cores)));
    }
    let pressure = MemParams {
        llc_bytes_per_core: 32 << 10,
        llc_ways: 2,
        ..MemParams::default()
    };
    let m = NodeMemory::new(&pressure, 5);
    assert!(m.llc_holds_line(line_space(5) - 1));
    assert!(!m.llc_holds_line(line_space(5)));
}

/// 17 one-core nodes address 17 slabs, one more than a one-core LLC's
/// 32-bit tags hold: the cluster is refused by name when it is built.
#[test]
#[should_panic(expected = "LLC tags too narrow for the cluster's line space")]
fn cluster_past_the_llc_tag_width_is_refused() {
    let shape = ClusterShape {
        nodes: 17,
        cores_per_node: 1,
        slots_per_core: 2,
    };
    let cfg = SimConfig::isca_default().with_shape(shape);
    Cluster::new(cfg, Database::new(17));
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
    // Line 0, the LRU one, left; the other 15 stay tagged, in line order.
    assert_eq!(m.lines_tagged(SlotId(0)), (1..16).collect::<Vec<u64>>());
    assert_eq!(m.speculative_lines(), 15);
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

/// A local writer squashes itself on a line another local transaction
/// tagged, so it never re-tags one: the LLC's one table records a single
/// owner per line.
#[test]
#[should_panic(expected = "s1 tags line 0x5 of s0")]
fn tagging_another_slots_line_panics() {
    let mut m = NodeMemory::new(&MemParams::default(), 1);
    m.tag_write(5, SlotId(0));
    m.tag_write(5, SlotId(1));
}

#[test]
fn commit_of_unknown_slot_is_noop() {
    let mut m = NodeMemory::new(&MemParams::default(), 1);
    assert_eq!(m.commit_slot(SlotId(7)), 0);
    assert_eq!(m.squash_slot(SlotId(7)), 0);
}
