//! Open-addressing hash table with linear probing ("HT" in the paper).

use super::{IndexKind, KvIndex, Lookup};
use crate::record::RecordId;

const INITIAL_CAPACITY: usize = 16;
const MAX_LOAD_PERCENT: usize = 70;

/// How many entries ahead of the insert [`HashTable::insert_batch`]
/// prefetches a home slot. A large table's inserts each miss the caches
/// on a random slot; fetching ahead overlaps those misses, and the gain
/// levels off at sixteen (DESIGN.md §12, "Loading").
const PREFETCH_DISTANCE: usize = 16;

/// Asks the CPU to start loading the cache line of `slot`. A hint only:
/// it changes no memory and cannot fault.
#[inline(always)]
fn prefetch(slot: &Slot) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` reads no memory architecturally and never
    // faults; SSE, which it needs, is part of the x86_64 baseline.
    #[allow(unused_unsafe)]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((slot as *const Slot).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = slot;
}

/// One slot: a key and its record id, 12 bytes. One reserved rid marks
/// the slots that hold no key.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Slot {
    key: u64,
    rid: u32,
}

impl Slot {
    /// Never used: a probe stops here.
    const EMPTY: Slot = Slot {
        key: 0,
        rid: u32::MAX,
    };

    fn occupied(key: u64, rid: RecordId) -> Slot {
        assert!(rid.0 != Self::EMPTY.rid, "rid {} is reserved", rid.0);
        Slot { key, rid: rid.0 }
    }

    fn is_empty(self) -> bool {
        self.rid == Self::EMPTY.rid
    }
}

/// An open-addressing hash table over `u64` keys with linear probing and
/// power-of-two capacity. Lookup depth is the probe count.
///
/// # Examples
///
/// ```
/// use hades_storage::index::{HashTable, KvIndex};
/// use hades_storage::record::RecordId;
///
/// let mut ht = HashTable::new();
/// ht.insert(17, RecordId(3));
/// let hit = ht.get(17).unwrap();
/// assert_eq!(hit.rid, RecordId(3));
/// assert!(hit.depth >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct HashTable {
    slots: Vec<Slot>,
    len: usize,
}

fn mix(key: u64) -> u64 {
    // Fibonacci hashing with an avalanche pass.
    let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

impl HashTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        HashTable {
            slots: vec![Slot::EMPTY; INITIAL_CAPACITY],
            len: 0,
        }
    }

    /// Current slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Prefetches the slot `key` hashes to.
    fn prefetch_home(&self, key: u64) {
        prefetch(&self.slots[mix(key) as usize & self.mask()]);
    }

    /// Doubles the capacity, reinserting the entries in slot order.
    fn grow(&mut self) {
        let capacity = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; capacity]);
        self.len = 0;
        for slot in old {
            if !slot.is_empty() {
                self.insert(slot.key, RecordId(slot.rid));
            }
        }
    }
}

impl Default for HashTable {
    fn default() -> Self {
        Self::new()
    }
}

impl KvIndex for HashTable {
    fn insert(&mut self, key: u64, rid: RecordId) -> Option<RecordId> {
        if (self.len + 1) * 100 > self.slots.len() * MAX_LOAD_PERCENT {
            self.grow();
        }
        let mut i = mix(key) as usize & self.mask();
        loop {
            let slot = self.slots[i];
            if slot.is_empty() {
                self.slots[i] = Slot::occupied(key, rid);
                self.len += 1;
                return None;
            }
            if slot.key == key {
                self.slots[i] = Slot::occupied(key, rid);
                return Some(RecordId(slot.rid));
            }
            i = (i + 1) & self.mask();
        }
    }

    /// The per-entry inserts, each with the home slot of the entry
    /// `PREFETCH_DISTANCE` ahead prefetched. A grow mid-batch makes
    /// the prefetches in flight useless, never wrong.
    fn insert_batch(
        &mut self,
        entries: &[(u64, RecordId)],
        replaced: &mut dyn FnMut(u64, RecordId),
    ) {
        for &(key, _) in entries.iter().take(PREFETCH_DISTANCE) {
            self.prefetch_home(key);
        }
        for (i, &(key, rid)) in entries.iter().enumerate() {
            if let Some(&(ahead, _)) = entries.get(i + PREFETCH_DISTANCE) {
                self.prefetch_home(ahead);
            }
            if let Some(old) = self.insert(key, rid) {
                replaced(key, old);
            }
        }
    }

    fn get(&self, key: u64) -> Option<Lookup> {
        let mut i = mix(key) as usize & self.mask();
        let mut depth = 1;
        loop {
            let slot = self.slots[i];
            if slot.is_empty() {
                return None;
            }
            if slot.key == key {
                return Some(Lookup {
                    rid: RecordId(slot.rid),
                    depth,
                });
            }
            i = (i + 1) & self.mask();
            depth += 1;
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, RecordId)) {
        for slot in self.slots.iter().filter(|slot| !slot.is_empty()) {
            f(slot.key, RecordId(slot.rid));
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> IndexKind {
        IndexKind::HashTable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 12);
    }

    #[test]
    fn grows_past_load_factor() {
        let mut ht = HashTable::new();
        for k in 0..10_000u64 {
            ht.insert(k, RecordId(k as u32));
        }
        assert_eq!(ht.len(), 10_000);
        assert!(ht.capacity() >= 10_000 * 100 / MAX_LOAD_PERCENT);
        for k in 0..10_000u64 {
            assert_eq!(ht.get(k).unwrap().rid, RecordId(k as u32));
        }
    }
}
