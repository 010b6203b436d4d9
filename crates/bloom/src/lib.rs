//! # hades-bloom — Bloom-filter hardware structures
//!
//! The Bloom-filter machinery of the HADES (ISCA 2024) reproduction:
//!
//! * [`hash`] — from-scratch CRC-32/CRC-64 (slice-by-8 for line keys),
//!   [`LineHash`] (a line hashed once for every filter it is probed
//!   against, like the hardware's single pipelined CRC unit) and
//!   double-hashed filter indexing (Table III).
//! * [`filter::BloomFilter`] — conventional filters used for core-side read
//!   sets and the NIC-resident remote read/write sets (Modules 3 / 4a of
//!   Fig 5).
//! * [`write_filter::DualWriteFilter`] — the Fig 8 dual-section write
//!   filter (CRC-hashed WrBF1 + LLC-set-indexed WrBF2) that lets hardware
//!   find all LLC lines written by a transaction in 80–120 cycles.
//! * [`locking::LockingBuffers`] — the Section V-B primitive that partially
//!   locks a directory during commit by probing every access against the
//!   committing transactions' filters.
//!
//! All filters operate on 64-bit cache-line addresses and are *real* bit
//! vectors: false positives in the simulation arise organically from hash
//! collisions, which is how the reproduction measures Table IV and the
//! false-positive-conflict rates of Section VIII-C.
//!
//! # Examples
//!
//! ```
//! use hades_bloom::{BloomFilter, DualWriteFilter};
//!
//! let mut read_set = BloomFilter::new(1024, 2);      // Table III read BF
//! let mut write_set = DualWriteFilter::isca_default(20_480);
//! read_set.insert(0x40);
//! write_set.insert(0x80);
//! assert!(read_set.contains(0x40) && write_set.contains(0x80));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod filter;
pub mod hash;
pub mod locking;
pub mod write_filter;

pub use filter::BloomFilter;
pub use hash::LineHash;
pub use locking::{LockFailure, LockingBuffers, Signature};
pub use write_filter::DualWriteFilter;
