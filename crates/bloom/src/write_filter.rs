//! The dual-section write Bloom filter of Fig 8.
//!
//! HADES splits each core-side write filter into two logical sections:
//!
//! * **WrBF1** (512 bits) is a conventional filter filled by CRC-hashing the
//!   line address.
//! * **WrBF2** (4096 bits) is indexed by the address's *LLC set index*
//!   modulo the section size, so each WrBF2 bit corresponds to a small group
//!   of LLC sets.
//!
//! Membership requires a hit in *both* sections. The payoff of the WrBF2
//! layout is fast retrieval of all LLC lines written by a transaction
//! (squash invalidation, commit tag-clearing, and commit-time conflict
//! checks against NIC filters): only the LLC sets whose WrBF2 bit is set
//! need to compare their `WrTX_ID` tags, which the paper prices at 80–120
//! cycles total (Table III, "Find LLC Tags").

use crate::filter::BloomFilter;
use crate::hash::LineHash;
use std::fmt;

/// Dual-section write filter (WrBF1 + WrBF2, Fig 8).
///
/// # Examples
///
/// ```
/// use hades_bloom::write_filter::DualWriteFilter;
///
/// // 512-bit CRC section, 4096-bit set-indexed section, LLC with 20480 sets.
/// let mut wf = DualWriteFilter::new(512, 4096, 20_480);
/// wf.insert(0xABCD);
/// assert!(wf.contains(0xABCD));
/// assert!(wf.enabled_groups().count() >= 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DualWriteFilter {
    bf1: BloomFilter,
    bf2: Vec<u64>,
    bf2_bits: usize,
    llc_sets: usize,
    inserted: u64,
}

impl DualWriteFilter {
    /// Creates an empty dual filter.
    ///
    /// `llc_sets` is the number of sets in the LLC this filter indexes; the
    /// WrBF2 bit for a line is `(line mod llc_sets) mod bf2_bits`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(bf1_bits: usize, bf2_bits: usize, llc_sets: usize) -> Self {
        assert!(bf2_bits > 0, "WrBF2 must have at least one bit");
        assert!(llc_sets > 0, "LLC must have at least one set");
        DualWriteFilter {
            bf1: BloomFilter::new(bf1_bits, 1),
            bf2: vec![0; bf2_bits.div_ceil(64)],
            bf2_bits,
            llc_sets,
            inserted: 0,
        }
    }

    /// Creates the paper's default geometry: 512-bit WrBF1 + 4096-bit WrBF2
    /// (Table III).
    pub fn isca_default(llc_sets: usize) -> Self {
        Self::new(512, 4096, llc_sets)
    }

    fn bf2_index(&self, line: u64) -> usize {
        (line as usize % self.llc_sets) % self.bf2_bits
    }

    /// Number of keys inserted since the last clear.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Inserts a line address into both sections.
    pub fn insert(&mut self, line: impl Into<LineHash>) {
        let h = line.into();
        self.bf1.insert(h);
        let i = self.bf2_index(h.line());
        self.bf2[i / 64] |= 1 << (i % 64);
        self.inserted += 1;
    }

    /// Tests membership: the line must hit in WrBF1 *and* WrBF2.
    pub fn contains(&self, line: impl Into<LineHash>) -> bool {
        let h = line.into();
        let i = self.bf2_index(h.line());
        self.bf2[i / 64] & (1 << (i % 64)) != 0 && self.bf1.contains(h)
    }

    /// Whether no insert has occurred since the last clear.
    pub fn is_empty(&self) -> bool {
        self.bf1.is_empty() && self.bf2.iter().all(|&w| w == 0)
    }

    /// Clears both sections.
    pub fn clear(&mut self) {
        self.bf1.clear();
        self.bf2.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }

    /// Storage cost in bytes (both sections).
    pub fn storage_bytes(&self) -> usize {
        self.bf1.storage_bytes() + self.bf2_bits / 8
    }

    /// Iterates over the WrBF2 bit indices that are set. Each bit `b`
    /// enables the group of LLC sets `{s : s mod bf2_bits == b}` for the
    /// parallel `WrTX_ID` tag comparison of Fig 8.
    pub fn enabled_groups(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.bf2_bits).filter(move |&i| self.bf2[i / 64] & (1 << (i % 64)) != 0)
    }

    /// Number of LLC sets each WrBF2 bit covers (e.g. 4 or 8 in the paper's
    /// example; 1 when the LLC has fewer sets than WrBF2 bits).
    pub fn sets_per_group(&self) -> usize {
        self.llc_sets.div_ceil(self.bf2_bits)
    }

    /// Textbook false-positive probability after `n` inserted lines:
    /// the product of the two sections' independent FP probabilities
    /// (membership requires hitting both).
    ///
    /// Reproduces the "512bit+4Kbit" row of Table IV.
    pub fn theoretical_fp_rate(&self, n: u64) -> f64 {
        let p1 = 1.0 - (-(n as f64) / self.bf1.bits() as f64).exp();
        let p2 = 1.0 - (-(n as f64) / self.bf2_bits as f64).exp();
        p1 * p2
    }
}

impl fmt::Debug for DualWriteFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DualWriteFilter")
            .field("bf1", &self.bf1)
            .field("bf2_bits", &self.bf2_bits)
            .field("llc_sets", &self.llc_sets)
            .field("inserted", &self.inserted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_filter() -> DualWriteFilter {
        // 20 MB LLC / 64 B lines / 16 ways = 20480 sets (default cluster).
        DualWriteFilter::isca_default(20_480)
    }

    #[test]
    fn no_false_negatives() {
        let mut wf = default_filter();
        for line in (0..40u64).map(|i| i * 131) {
            wf.insert(line);
        }
        for line in (0..40u64).map(|i| i * 131) {
            assert!(wf.contains(line));
        }
    }

    #[test]
    fn clear_resets_both_sections() {
        let mut wf = default_filter();
        wf.insert(123);
        wf.clear();
        assert!(wf.is_empty());
        assert!(!wf.contains(123));
        assert_eq!(wf.enabled_groups().count(), 0);
    }

    #[test]
    fn pair_storage_is_0_7_kb() {
        // Section VI: "a pair of core BFs take 0.7KB" — 1024-bit read filter
        // (128 B) + 512+4096-bit write filter (576 B) = 704 B.
        let read = BloomFilter::new(1024, 2);
        let write = default_filter();
        assert_eq!(read.storage_bytes() + write.storage_bytes(), 704);
    }

    #[test]
    fn theoretical_rates_match_table_iv_dual_row() {
        let wf = default_filter();
        // Paper: 0.003%, 0.022%, 0.093%, 0.439% for 10/20/50/100 lines.
        let expect = [(10, 0.00003), (20, 0.00022), (50, 0.00093), (100, 0.00439)];
        for (n, paper) in expect {
            let got = wf.theoretical_fp_rate(n);
            let ratio = got / paper;
            assert!(
                (0.4..2.5).contains(&ratio),
                "n={n}: got {got}, paper {paper}"
            );
        }
    }

    #[test]
    fn dual_is_more_selective_than_1kbit() {
        // The whole point of the larger dual filter (Table IV): lower FP at
        // equal insert counts.
        let wf = default_filter();
        let bf = BloomFilter::new(1024, 2);
        for n in [10u64, 20, 50, 100] {
            assert!(wf.theoretical_fp_rate(n) < bf.theoretical_fp_rate(n));
        }
    }

    #[test]
    fn enabled_groups_cover_inserted_sets() {
        let mut wf = default_filter();
        let line = 4096 + 17; // set index 4113 -> group 17 (4113 % 4096)
        wf.insert(line);
        let groups: Vec<usize> = wf.enabled_groups().collect();
        assert_eq!(groups, vec![17]);
        assert_eq!(wf.sets_per_group(), 5); // 20480 / 4096
    }

    #[test]
    fn membership_requires_both_sections() {
        let mut wf = DualWriteFilter::new(512, 4096, 20_480);
        wf.insert(100);
        // A line in a different set group cannot be a member even if WrBF1
        // collides, because its WrBF2 bit is clear.
        let other_group = 100 + 7; // different set index -> different group
        assert_ne!(
            wf.bf2_index(100),
            wf.bf2_index(other_group),
            "test needs distinct groups"
        );
        assert!(!wf.contains(other_group));
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_rejected() {
        let _ = DualWriteFilter::new(512, 4096, 0);
    }
}
