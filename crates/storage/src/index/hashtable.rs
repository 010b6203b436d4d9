//! Open-addressing hash table with linear probing ("HT" in the paper).

use super::{IndexKind, KvIndex, Lookup};
use crate::record::RecordId;

const INITIAL_CAPACITY: usize = 16;
const MAX_LOAD_PERCENT: usize = 70;

/// One slot: a key and its record id, 12 bytes. Two reserved rids mark
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
    /// A removed entry: probes continue past it, inserts may reuse it.
    const TOMBSTONE: Slot = Slot {
        key: 0,
        rid: u32::MAX - 1,
    };

    fn occupied(key: u64, rid: RecordId) -> Slot {
        assert!(rid.0 < Self::TOMBSTONE.rid, "rid {} is reserved", rid.0);
        Slot { key, rid: rid.0 }
    }

    fn is_empty(self) -> bool {
        self.rid == Self::EMPTY.rid
    }

    fn is_tombstone(self) -> bool {
        self.rid == Self::TOMBSTONE.rid
    }

    /// The record id `key` maps to, if this slot holds `key`.
    fn rid_of(self, key: u64) -> Option<RecordId> {
        (self.key == key && self.rid < Self::TOMBSTONE.rid).then_some(RecordId(self.rid))
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
    tombstones: usize,
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
            tombstones: 0,
        }
    }

    /// Current slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Rehashes into `capacity` slots, dropping tombstones.
    fn rehash(&mut self, capacity: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; capacity]);
        self.len = 0;
        self.tombstones = 0;
        for slot in old {
            if let Some(rid) = slot.rid_of(slot.key) {
                self.insert(slot.key, rid);
            }
        }
    }

    fn grow(&mut self) {
        self.rehash(self.slots.len() * 2);
    }
}

impl Default for HashTable {
    fn default() -> Self {
        Self::new()
    }
}

impl KvIndex for HashTable {
    fn insert(&mut self, key: u64, rid: RecordId) -> Option<RecordId> {
        if (self.len + self.tombstones + 1) * 100 > self.slots.len() * MAX_LOAD_PERCENT {
            // Growing also sweeps tombstones; if live entries alone are
            // under half the load budget, rehash at the same size instead.
            if self.len * 100 * 2 <= self.slots.len() * MAX_LOAD_PERCENT {
                self.rehash(self.slots.len());
            } else {
                self.grow();
            }
        }
        let mut i = mix(key) as usize & self.mask();
        let mut first_tombstone: Option<usize> = None;
        loop {
            let slot = self.slots[i];
            if slot.is_empty() {
                // Prefer reusing a tombstone seen on the way.
                let target = first_tombstone.unwrap_or(i);
                if self.slots[target].is_tombstone() {
                    self.tombstones -= 1;
                }
                self.slots[target] = Slot::occupied(key, rid);
                self.len += 1;
                return None;
            }
            if let Some(old) = slot.rid_of(key) {
                self.slots[i] = Slot::occupied(key, rid);
                return Some(old);
            }
            if slot.is_tombstone() && first_tombstone.is_none() {
                first_tombstone = Some(i);
            }
            i = (i + 1) & self.mask();
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
            if let Some(rid) = slot.rid_of(key) {
                return Some(Lookup { rid, depth });
            }
            i = (i + 1) & self.mask();
            depth += 1;
        }
    }

    fn remove(&mut self, key: u64) -> Option<RecordId> {
        let mut i = mix(key) as usize & self.mask();
        loop {
            let slot = self.slots[i];
            if slot.is_empty() {
                return None;
            }
            if let Some(rid) = slot.rid_of(key) {
                self.slots[i] = Slot::TOMBSTONE;
                self.len -= 1;
                self.tombstones += 1;
                return Some(rid);
            }
            i = (i + 1) & self.mask();
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
    #[should_panic(expected = "is reserved")]
    fn reserved_rids_are_rejected() {
        HashTable::new().insert(1, RecordId(u32::MAX - 1));
    }

    #[test]
    fn tombstone_churn_does_not_bloat_capacity() {
        // Insert/remove cycles over a fixed working set must not grow the
        // table without bound (tombstones get swept by same-size rehash).
        let mut ht = HashTable::new();
        for round in 0..200u64 {
            for k in 0..64u64 {
                ht.insert(round * 64 + k, RecordId(k as u32));
            }
            for k in 0..64u64 {
                assert!(ht.remove(round * 64 + k).is_some());
            }
        }
        assert_eq!(ht.len(), 0);
        assert!(
            ht.capacity() <= 1024,
            "capacity bloated to {}",
            ht.capacity()
        );
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

    #[test]
    fn probe_depth_is_short_on_average() {
        let mut ht = HashTable::new();
        for k in 0..50_000u64 {
            ht.insert(k.wrapping_mul(0x1234_5679), RecordId(k as u32));
        }
        let total: u64 = (0..50_000u64)
            .map(|k| ht.get(k.wrapping_mul(0x1234_5679)).unwrap().depth as u64)
            .sum();
        let avg = total as f64 / 50_000.0;
        assert!(avg < 2.5, "average probe depth {avg} too deep");
    }
}
