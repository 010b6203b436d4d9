//! # hades-mem — memory-hierarchy substrate
//!
//! Cache and directory models for the HADES (ISCA 2024) reproduction:
//! set-associative L1/L2/LLC arrays with LRU replacement
//! ([`cache::SetAssocCache`], whose sets keep their lines in recency
//! order, so no per-line timestamp is stored, and whose tags hold a
//! line's set quotient: 64-bit in the private caches, 32-bit in the LLC,
//! which makes an LLC way 4 bytes) and a per-node hierarchy
//! ([`hierarchy::NodeMemory`]) that additionally carries the HADES
//! directory state — `WrTX_ID` tags on LLC lines (Module 2 of Fig 5) in
//! one sparse table, which lists a transaction's lines as the Fig 8
//! hardware does, and the squash-on-speculative-eviction rule with the
//! Section VIII-C replacement policy (prefer non-speculative victims).
//!
//! Timing follows Table III: L1 2 cycles, L2 12, LLC 40, DRAM 100 ns.
//!
//! # Examples
//!
//! ```
//! use hades_mem::hierarchy::NodeMemory;
//! use hades_sim::{config::MemParams, ids::{CoreId, SlotId}};
//!
//! let mut mem = NodeMemory::new(&MemParams::default(), 5);
//! mem.access(CoreId(0), 0x40);           // miss to DRAM, fills caches
//! mem.tag_write(0x40, SlotId(3));        // speculative write by slot 3
//! assert_eq!(mem.lines_tagged(SlotId(3)), vec![0x40]);
//! mem.commit_slot(SlotId(3));            // tags cleared, data retained
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod hierarchy;

pub use cache::{Fill, SetAssocCache, TagWord};
pub use hierarchy::{AccessOutcome, HitLevel, NodeMemory};
