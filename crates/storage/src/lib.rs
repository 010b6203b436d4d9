//! # hades-storage — records, key-value stores, and the partitioned database
//!
//! The storage substrate of the HADES (ISCA 2024) reproduction:
//!
//! * [`record::Record`] — the Fig 1 augmented record's metadata, 24
//!   bytes: placement, the value's arena line and the 32-bit software
//!   metadata (version, lock) that the FaRM-style
//!   baseline and the HADES-H local path rely on, with helpers for
//!   mapping byte ranges to cache lines (HADES operates at line
//!   granularity). Fig 1's incarnation is not modelled: it detects a
//!   record that was freed and reused, and no record is ever freed. The
//!   value bytes live in per-node line arenas and are reached through the
//!   [`record::RecordRef`] and [`record::RecordMut`] views; a value
//!   loaded all zero owns no bytes until its first mutation.
//! * [`index`] — the four store shapes of the paper's evaluation, built
//!   from scratch: open-addressing [`index::HashTable`] (HT), a
//!   [`index::SkipList`] (Map), an in-memory [`index::BTree`], and a
//!   [`index::BPlusTree`] with linked leaves. Lookups report traversal
//!   depth for index-walk timing.
//! * [`db::Database`] — tables over a uniform static hash partition
//!   (Section VII), per-node cache-line slabs that give every record its
//!   simulated address, one line arena per node holding the values that
//!   own bytes (each record says where its value starts), one shared
//!   zero buffer for the values that are still all zero, one batched
//!   load path ([`db::Database::insert_rows`]), and locality-aware key
//!   sampling for the Fig 12b experiment over per-home key lists built
//!   on first use.
//!
//! Storage is insert-only. No workload the paper evaluates deletes a key,
//! so neither the stores nor the database remove anything: every arena
//! only grows, and a record keeps its id and its simulated address for
//! the whole run.
//!
//! # Examples
//!
//! ```
//! use hades_storage::{db::Database, index::IndexKind};
//!
//! let mut db = Database::new(5);
//! let accounts = db.create_table("accounts", IndexKind::BPlusTree);
//! let rid = db.insert(accounts, 1001, &[0u8; 128]);
//! db.record_mut(rid).write_u64(0, 5_000); // initial balance
//! assert_eq!(db.record(rid).read_u64(0), 5_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod db;
pub mod index;
pub mod record;

pub use db::{uniform_home, Database, Row, TableId};
pub use index::{IndexKind, KvIndex, Lookup};
pub use record::{Record, RecordId, RecordMut, RecordRef, LINE_BYTES};
