//! Conventional Bloom filters as used for HADES read sets and NIC-resident
//! remote read/write sets (Modules 3 and 4a of Fig 5).

use crate::hash::{filter_indices, LineHash};
use std::fmt;

/// A fixed-size Bloom filter over 64-bit keys (cache-line addresses).
///
/// HADES uses 1024-bit read filters with two CRC-derived hash functions
/// (Table III; the hash count is calibrated so the false-positive rates of
/// Table IV are reproduced — see `theoretical_fp_rate`).
///
/// # Examples
///
/// ```
/// use hades_bloom::filter::BloomFilter;
///
/// let mut bf = BloomFilter::new(1024, 2);
/// bf.insert(0x1000);
/// assert!(bf.contains(0x1000)); // no false negatives, ever
/// assert!(!bf.is_empty());
/// bf.clear();
/// assert!(!bf.contains(0x1000));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BloomFilter {
    words: Vec<u64>,
    bits: usize,
    hashes: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Creates an empty filter of `bits` bits using `hashes` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `hashes` is zero.
    pub fn new(bits: usize, hashes: u32) -> Self {
        assert!(bits > 0, "filter must have at least one bit");
        assert!(hashes > 0, "filter must use at least one hash");
        BloomFilter {
            words: vec![0; bits.div_ceil(64)],
            bits,
            hashes,
            inserted: 0,
        }
    }

    /// Filter size in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of hash functions.
    pub fn hashes(&self) -> u32 {
        self.hashes
    }

    /// Number of keys inserted since the last [`clear`](Self::clear).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Storage cost in bytes (what the paper's Section VI arithmetic counts).
    pub fn storage_bytes(&self) -> usize {
        self.bits / 8
    }

    /// Inserts a key (a line address, or a line already hashed once for
    /// several filters).
    pub fn insert(&mut self, key: impl Into<LineHash>) {
        for i in filter_indices(key, self.hashes, self.bits) {
            self.words[i / 64] |= 1 << (i % 64);
        }
        self.inserted += 1;
    }

    /// Tests membership. May return a false positive; never a false
    /// negative.
    pub fn contains(&self, key: impl Into<LineHash>) -> bool {
        filter_indices(key, self.hashes, self.bits)
            .all(|i| self.words[i / 64] & (1 << (i % 64)) != 0)
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits (occupancy).
    pub fn ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Fraction of bits set, in `[0, 1]`. The saturation signal the
    /// overload layer compares against its degradation threshold: a
    /// crowded filter's false-positive rate makes hardware conflict
    /// checks uninformative.
    pub fn occupancy(&self) -> f64 {
        self.ones() as f64 / self.bits as f64
    }

    /// Resets the filter to empty (the hardware clear at commit/squash).
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }

    /// Whether any key could be in both filters (bitwise AND test over the
    /// shared bit positions). Conservative: used only as a fast pre-check.
    ///
    /// # Panics
    ///
    /// Panics if the two filters have different geometry.
    pub fn may_intersect(&self, other: &BloomFilter) -> bool {
        assert_eq!(self.bits, other.bits, "filter geometry mismatch");
        assert_eq!(self.hashes, other.hashes, "filter geometry mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// The textbook false-positive probability after inserting `n` keys:
    /// `(1 - e^(-k·n/m))^k`.
    ///
    /// For the paper's 1-Kbit, k=2 read filter this reproduces Table IV:
    /// 0.04% at 10 lines, ~3.3% at 100 lines, and ~2% at the worst-case 76
    /// lines quoted in Section VIII-C.
    pub fn theoretical_fp_rate(&self, n: u64) -> f64 {
        let k = self.hashes as f64;
        let m = self.bits as f64;
        (1.0 - (-k * n as f64 / m).exp()).powf(k)
    }
}

impl fmt::Debug for BloomFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BloomFilter")
            .field("bits", &self.bits)
            .field("hashes", &self.hashes)
            .field("inserted", &self.inserted)
            .field("ones", &self.ones())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(1024, 2);
        for key in 0..76u64 {
            bf.insert(key * 64);
        }
        for key in 0..76u64 {
            assert!(bf.contains(key * 64));
        }
    }

    #[test]
    fn clear_empties_filter() {
        let mut bf = BloomFilter::new(512, 2);
        bf.insert(7);
        assert!(!bf.is_empty());
        bf.clear();
        assert!(bf.is_empty());
        assert_eq!(bf.inserted(), 0);
        assert_eq!(bf.ones(), 0);
    }

    #[test]
    fn measured_fp_rate_tracks_theory() {
        // Insert 10 random lines into a 1-Kbit k=2 filter; probe 100k
        // non-member keys. Expected FP rate ~0.04% (Table IV row 1).
        let mut bf = BloomFilter::new(1024, 2);
        for key in 0..10u64 {
            bf.insert(key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let probes = 200_000u64;
        let fps = (1_000_000..1_000_000 + probes)
            .filter(|&k| bf.contains(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .count();
        let measured = fps as f64 / probes as f64;
        let theory = bf.theoretical_fp_rate(10);
        assert!(
            measured < theory * 4.0 + 1e-4,
            "measured {measured} vs theory {theory}"
        );
    }

    #[test]
    fn theoretical_rates_match_table_iv_1kbit_row() {
        let bf = BloomFilter::new(1024, 2);
        // Paper: 0.04%, 0.138%, 0.877%, 3.26% for 10/20/50/100 lines.
        let expect = [(10, 0.0004), (20, 0.00138), (50, 0.00877), (100, 0.0326)];
        for (n, paper) in expect {
            let got = bf.theoretical_fp_rate(n);
            let ratio = got / paper;
            assert!(
                (0.5..2.0).contains(&ratio),
                "n={n}: got {got}, paper {paper}"
            );
        }
    }

    #[test]
    fn worst_case_76_lines_is_about_two_percent() {
        // Section VIII-C: "~2% for a 1-Kbit Bloom filter" with all requests
        // on one node (up to 76 lines read).
        let bf = BloomFilter::new(1024, 2);
        let fp = bf.theoretical_fp_rate(76);
        assert!((0.01..0.03).contains(&fp), "fp={fp}");
    }

    #[test]
    fn may_intersect_detects_shared_bits() {
        let mut a = BloomFilter::new(1024, 2);
        let mut b = BloomFilter::new(1024, 2);
        assert!(!a.may_intersect(&b));
        a.insert(5);
        b.insert(5);
        assert!(a.may_intersect(&b));
    }

    #[test]
    fn storage_matches_paper_arithmetic() {
        // A pair of core BFs: 1024-bit read + (512+4096)-bit write = 0.7 KB
        // (Section VI). The conventional part here: read filter is 128 B.
        assert_eq!(BloomFilter::new(1024, 2).storage_bytes(), 128);
        // NIC pair: 1024 + 1024 bits = 0.25 KB.
        let pair =
            BloomFilter::new(1024, 2).storage_bytes() + BloomFilter::new(1024, 2).storage_bytes();
        assert_eq!(pair, 256);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_rejected() {
        let _ = BloomFilter::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn intersect_rejects_mismatched_sizes() {
        let a = BloomFilter::new(512, 2);
        let b = BloomFilter::new(1024, 2);
        let _ = a.may_intersect(&b);
    }
}
