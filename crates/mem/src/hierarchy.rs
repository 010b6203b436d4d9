//! A node's full memory hierarchy: per-core private L1/L2, the shared LLC
//! with its directory `WrTX_ID` tags (Module 2 of Fig 5), and DRAM.
//!
//! The hierarchy provides both *timing* (which level serviced an access,
//! Table III round-trip latencies) and the *speculative state* HADES keeps
//! in the LLC: which in-flight local transaction wrote each line, all the
//! lines of one transaction in line order (the Fig 8 assist), and squashes
//! caused by evicting speculatively written lines.

use crate::cache::{Fill, SetAssocCache};
use hades_sim::config::MemParams;
use hades_sim::ids::{CoreId, SlotId};
use hades_sim::time::Cycles;

/// The level that serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Private L1 (2-cycle RT).
    L1,
    /// Private L2 (12-cycle RT).
    L2,
    /// Shared LLC (40-cycle RT).
    Llc,
    /// Main memory (100 ns RT).
    Dram,
}

/// Outcome of one memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Round-trip latency of the access.
    pub latency: Cycles,
    /// Level that serviced it.
    pub level: HitLevel,
    /// Local transactions whose speculatively written lines were evicted
    /// from the LLC by this access — they must be squashed (Section V-A).
    pub evicted_owners: Vec<SlotId>,
}

/// One node's memory hierarchy.
///
/// # Examples
///
/// ```
/// use hades_mem::hierarchy::{HitLevel, NodeMemory};
/// use hades_sim::config::MemParams;
/// use hades_sim::ids::CoreId;
///
/// let mut m = NodeMemory::new(&MemParams::default(), 5);
/// let first = m.access(CoreId(0), 0x40);
/// assert_eq!(first.level, HitLevel::Dram);
/// let second = m.access(CoreId(0), 0x40);
/// assert_eq!(second.level, HitLevel::L1);
/// ```
#[derive(Debug)]
pub struct NodeMemory {
    params: MemParams,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    /// 32-bit tags, 4 bytes a way, and the node's one `WrTX_ID` table;
    /// the private caches' quotients need more than 32 bits (see
    /// [`llc_holds_line`](Self::llc_holds_line)).
    llc: SetAssocCache<u32>,
    eviction_squashes: u64,
}

impl NodeMemory {
    /// Creates the hierarchy for a node with `cores` cores.
    ///
    /// The LLC is sized at `llc_bytes_per_core * cores` (Table III:
    /// 4 MB/core, 16-way). Its tags are 32 bits wide, so it holds lines
    /// below `2^32` times its set count; a cluster checks its line space
    /// against [`llc_holds_line`](Self::llc_holds_line).
    pub fn new(params: &MemParams, cores: usize) -> Self {
        assert!(cores > 0, "node needs at least one core");
        let l1 = (0..cores)
            .map(|_| SetAssocCache::new(params.l1_bytes, params.line_bytes, params.l1_ways))
            .collect();
        let l2 = (0..cores)
            .map(|_| SetAssocCache::new(params.l2_bytes, params.line_bytes, params.l2_ways))
            .collect();
        let llc = SetAssocCache::sized(
            params.llc_bytes_per_core * cores,
            params.line_bytes,
            params.llc_ways,
        );
        NodeMemory {
            params: *params,
            l1,
            l2,
            llc,
            eviction_squashes: 0,
        }
    }

    /// Number of LLC sets (needed to build [`DualWriteFilter`]s).
    ///
    /// [`DualWriteFilter`]: hades_bloom::DualWriteFilter
    pub fn llc_sets(&self) -> usize {
        self.llc.num_sets()
    }

    /// Whether the LLC's 32-bit tags can hold `line`. Every line below a
    /// bound can: `2^32` times the set count, `2^44 × cores` lines at
    /// Table III sizes, which is 16 × `cores` node slabs.
    pub fn llc_holds_line(&self, line: u64) -> bool {
        self.llc.holds_line(line)
    }

    /// Count of transactions squashed so far because a speculatively
    /// written line left the LLC (the Section VIII-C experiment).
    pub fn eviction_squashes(&self) -> u64 {
        self.eviction_squashes
    }

    fn note_llc_fill(&mut self, fill: Fill, evicted_owners: &mut Vec<SlotId>) {
        if let Fill::EvictedSpeculative(_, owner) = fill {
            self.eviction_squashes += 1;
            evicted_owners.push(owner);
        }
    }

    /// A core's load/store to a local line, walking L1 → L2 → LLC → DRAM.
    pub fn access(&mut self, core: CoreId, line: u64) -> AccessOutcome {
        let c = core.0 as usize;
        assert!(c < self.l1.len(), "core {core} out of range");
        let mut evicted_owners = Vec::new();

        if let Fill::Hit = self.l1[c].touch(line) {
            return AccessOutcome {
                latency: self.params.l1_rt,
                level: HitLevel::L1,
                evicted_owners,
            };
        }
        if let Fill::Hit = self.l2[c].touch(line) {
            return AccessOutcome {
                latency: self.params.l2_rt,
                level: HitLevel::L2,
                evicted_owners,
            };
        }
        let fill = self.llc.touch(line);
        let hit = matches!(fill, Fill::Hit);
        self.note_llc_fill(fill, &mut evicted_owners);
        if hit {
            AccessOutcome {
                latency: self.params.llc_rt,
                level: HitLevel::Llc,
                evicted_owners,
            }
        } else {
            AccessOutcome {
                latency: self.params.dram_rt,
                level: HitLevel::Dram,
                evicted_owners,
            }
        }
    }

    /// A NIC-initiated access to a line at this (home) node — served from
    /// the LLC or DRAM without touching any core's private caches (one-sided
    /// RDMA does not involve the remote processor).
    pub fn access_from_nic(&mut self, line: u64) -> AccessOutcome {
        let mut evicted_owners = Vec::new();
        let fill = self.llc.touch(line);
        let hit = matches!(fill, Fill::Hit);
        self.note_llc_fill(fill, &mut evicted_owners);
        AccessOutcome {
            latency: if hit {
                self.params.llc_rt
            } else {
                self.params.dram_rt
            },
            level: if hit { HitLevel::Llc } else { HitLevel::Dram },
            evicted_owners,
        }
    }

    /// The `WrTX_ID` tag of `line`, if any.
    pub fn write_owner(&self, line: u64) -> Option<SlotId> {
        self.llc.spec_owner(line)
    }

    /// Marks `line` as speculatively written by `slot`, making it resident
    /// in the LLC first if needed. Returns any transactions squashed by the
    /// fill's eviction.
    ///
    /// # Panics
    ///
    /// Panics if another slot tagged `line`; the engine squashes such a
    /// writer first.
    pub fn tag_write(&mut self, line: u64, slot: SlotId) -> Vec<SlotId> {
        if let Some(owner) = self.llc.spec_owner(line) {
            assert!(owner == slot, "{slot} tags line {line:#x} of {owner}");
        }
        let mut evicted_owners = Vec::new();
        let fill = self.llc.touch_owned(line, slot);
        self.note_llc_fill(fill, &mut evicted_owners);
        evicted_owners
    }

    /// All LLC lines currently tagged by `slot`, in sorted order (the
    /// operation the Fig 8 hardware performs in 80–120 cycles).
    pub fn lines_tagged(&self, slot: SlotId) -> Vec<u64> {
        self.llc.lines_of(slot).collect()
    }

    /// Commit: clears `slot`'s `WrTX_ID` tags, making its lines
    /// non-speculative. Returns how many lines were untagged.
    pub fn commit_slot(&mut self, slot: SlotId) -> usize {
        self.llc.release(slot, false)
    }

    /// Squash: invalidates `slot`'s speculatively written lines (their data
    /// is discarded) and clears the tags. Returns how many lines were
    /// invalidated.
    pub fn squash_slot(&mut self, slot: SlotId) -> usize {
        self.llc.release(slot, true)
    }

    /// Total speculative lines in the LLC (diagnostics).
    pub fn speculative_lines(&self) -> usize {
        self.llc.speculative_lines()
    }

    /// LLC hit statistics: (hits, misses).
    pub fn llc_stats(&self) -> (u64, u64) {
        self.llc.hit_stats()
    }
}
