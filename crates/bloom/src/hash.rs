//! CRC-based hash functions for Bloom-filter indexing.
//!
//! The paper's filters are filled "by hashing addresses using a conventional
//! hash function (e.g., CRC)" (Section V-C, citing Peterson & Brown and
//! pipelined CRC hardware). We implement table-driven CRC-32 (IEEE
//! polynomial) and CRC-64 (ECMA polynomial) from scratch and combine them
//! with the standard Kirsch–Mitzenmacher double-hashing scheme to derive any
//! number of filter indices from one 64-bit key.
//!
//! # One hash per line
//!
//! HADES hashes an address once, in a pipelined CRC unit, and probes every
//! Locking Buffer in parallel with the LLC tag check (Table III, Fig 7).
//! [`LineHash`] is that unit's output: both CRCs of one line, computed
//! once and then handed to every filter the line is probed against. Every
//! filter method takes `impl Into<LineHash>`, so a plain `u64` line still
//! works and is hashed on the spot.
//!
//! # Slice-by-8
//!
//! A key is always exactly eight bytes, so [`Crc32::hash_u64`] and
//! [`Crc64::hash_u64`] fold all eight at once with slice-by-8 tables
//! instead of running the byte-serial loop of [`Crc32::checksum`]. The
//! result is bit-identical. A reflected CRC is linear over GF(2): the
//! register after a message is the XOR of each byte's contribution, and a
//! byte's contribution is its table entry carried through the zero bytes
//! that follow it. Table `k` holds exactly that: entry `i` is the register
//! after byte `i` followed by `k` zero bytes (`T_k[i] = T_{k-1}[i] >> 8 ^
//! T_0[T_{k-1}[i] & 0xFF]`, the byte-serial step with a zero input byte).
//! Key byte `j` (little-endian, XORed with the initial register where the
//! register covers it) is followed by `7 - j` bytes, so the CRC is the XOR
//! of `T_{7-j}[byte_j]` over the eight bytes. The tables are derived at
//! compile time from the byte-serial tables by `const fn`.

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
///
/// A zero-sized handle over static tables; constructing one is free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crc32;

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const fn build_crc32_slices(base: [u32; 256]) -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    t[0] = base;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ base[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Slice-by-8 tables; slice 0 is the byte-serial table.
static CRC32_SLICES: [[u32; 256]; 8] = build_crc32_slices(build_crc32_table());

impl Crc32 {
    /// Creates a CRC-32 hasher.
    pub fn new() -> Self {
        Crc32
    }

    /// CRC-32 checksum of a byte slice (byte-serial).
    pub fn checksum(&self, data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC32_SLICES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// CRC-32 of a 64-bit key (little-endian bytes), slice-by-8. Equal to
    /// `checksum(&key.to_le_bytes())`.
    pub fn hash_u64(&self, key: u64) -> u32 {
        let b = (key ^ 0xFFFF_FFFF).to_le_bytes();
        let t = &CRC32_SLICES;
        let c = t[7][b[0] as usize]
            ^ t[6][b[1] as usize]
            ^ t[5][b[2] as usize]
            ^ t[4][b[3] as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
        c ^ 0xFFFF_FFFF
    }
}

/// CRC-64 (ECMA-182, reflected polynomial `0xC96C5795D7870F42`).
///
/// A zero-sized handle over static tables; constructing one is free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crc64;

const fn build_crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u64;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xC96C_5795_D787_0F42 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const fn build_crc64_slices(base: [u64; 256]) -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    t[0] = base;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ base[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Slice-by-8 tables; slice 0 is the byte-serial table.
static CRC64_SLICES: [[u64; 256]; 8] = build_crc64_slices(build_crc64_table());

impl Crc64 {
    /// Creates a CRC-64 hasher.
    pub fn new() -> Self {
        Crc64
    }

    /// CRC-64 checksum of a byte slice (byte-serial).
    pub fn checksum(&self, data: &[u8]) -> u64 {
        let mut c = 0xFFFF_FFFF_FFFF_FFFFu64;
        for &b in data {
            c = CRC64_SLICES[0][((c ^ b as u64) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF_FFFF_FFFF
    }

    /// CRC-64 of a 64-bit key (little-endian bytes), slice-by-8. Equal to
    /// `checksum(&key.to_le_bytes())`.
    pub fn hash_u64(&self, key: u64) -> u64 {
        let b = (!key).to_le_bytes();
        let t = &CRC64_SLICES;
        let c = t[7][b[0] as usize]
            ^ t[6][b[1] as usize]
            ^ t[5][b[2] as usize]
            ^ t[4][b[3] as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
        !c
    }
}

/// A cache-line address with both of its CRCs: what the hardware's CRC
/// unit hands to every filter the line is probed against. The fields are
/// private so the CRCs always belong to the line.
///
/// # Examples
///
/// ```
/// use hades_bloom::{BloomFilter, LineHash};
///
/// let h = LineHash::new(0x40);
/// assert_eq!(h.line(), 0x40);
/// assert_eq!(LineHash::from(0x40), h);
/// // Hash once, probe many filters; a raw line gives the same answers.
/// let mut a = BloomFilter::new(1024, 2);
/// let b = BloomFilter::new(512, 1);
/// a.insert(h);
/// assert!(a.contains(h) && a.contains(0x40));
/// assert_eq!(b.contains(h), b.contains(0x40));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineHash {
    line: u64,
    /// CRC-32 of the line's little-endian bytes.
    h1: u32,
    /// CRC-64 of the line's little-endian bytes.
    h2: u64,
}

impl LineHash {
    /// Hashes `line`.
    pub fn new(line: u64) -> Self {
        LineHash {
            line,
            h1: Crc32.hash_u64(line),
            h2: Crc64.hash_u64(line),
        }
    }

    /// The line address.
    pub fn line(self) -> u64 {
        self.line
    }
}

impl From<u64> for LineHash {
    fn from(line: u64) -> Self {
        LineHash::new(line)
    }
}

/// Derives `k` Bloom-filter bit indices in `0..m` for a key using
/// CRC-based double hashing (index_i = h1 + i·h2 mod m, with h2 forced odd).
///
/// # Panics
///
/// Panics if `m` is zero.
///
/// # Examples
///
/// ```
/// use hades_bloom::hash::filter_indices;
///
/// let idx: Vec<usize> = filter_indices(0xDEAD_BEEF, 2, 1024).collect();
/// assert_eq!(idx.len(), 2);
/// assert!(idx.iter().all(|&i| i < 1024));
/// // Deterministic:
/// let again: Vec<usize> = filter_indices(0xDEAD_BEEF, 2, 1024).collect();
/// assert_eq!(idx, again);
/// ```
pub fn filter_indices(key: impl Into<LineHash>, k: u32, m: usize) -> impl Iterator<Item = usize> {
    assert!(m > 0, "filter size must be nonzero");
    let h = key.into();
    let h1 = u64::from(h.h1);
    // Force h2 odd so the probe sequence cycles through distinct residues.
    let h2 = h.h2 | 1;
    (0..k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn crc32_known_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(Crc32::new().checksum(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ (reflected ECMA) check value.
        assert_eq!(Crc64::new().checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn crc32_empty_is_zero() {
        assert_eq!(Crc32::new().checksum(b""), 0);
    }

    #[test]
    fn hashers_are_zero_sized() {
        assert_eq!(std::mem::size_of::<Crc32>(), 0);
        assert_eq!(std::mem::size_of::<Crc64>(), 0);
    }

    #[test]
    fn hash_u64_differs_across_keys() {
        let c = Crc32::new();
        let distinct: HashSet<u32> = (0..1000u64).map(|k| c.hash_u64(k)).collect();
        assert_eq!(distinct.len(), 1000);
    }

    #[test]
    fn filter_indices_in_range_and_deterministic() {
        for key in [0u64, 1, 42, u64::MAX] {
            let a: Vec<usize> = filter_indices(key, 4, 512).collect();
            let b: Vec<usize> = filter_indices(LineHash::new(key), 4, 512).collect();
            assert_eq!(a, b);
            assert!(a.iter().all(|&i| i < 512));
        }
    }

    #[test]
    fn filter_indices_spread_uniformly() {
        // Chi-squared-lite: bucket counts for 100k keys over m=64 should be
        // close to uniform.
        let m = 64;
        let mut counts = vec![0u32; m];
        for key in 0..100_000u64 {
            for i in filter_indices(key, 1, m) {
                counts[i] += 1;
            }
        }
        let expect = 100_000 / m as u32;
        for &c in &counts {
            assert!(
                (expect * 8 / 10..expect * 12 / 10).contains(&c),
                "bucket count {c} far from {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_size_filter_rejected() {
        let _ = filter_indices(1, 1, 0).count();
    }
}
