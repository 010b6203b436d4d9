//! # hades-net — network fabric and SmartNIC substrate
//!
//! The communication layer of the HADES (ISCA 2024) reproduction:
//!
//! * [`fabric::Fabric`] — message timing over a full-bisection RDMA fabric
//!   (2 µs NIC-to-NIC round trip, 200 Gb/s serialization, per-message NIC
//!   processing; Table III).
//! * [`nic::Nic`] — the SmartNIC hardware HADES adds: per-remote-transaction
//!   read/write Bloom filters (Module 4a of Fig 5) probed at commit time for
//!   lazy L–R and R–R conflict detection, with exact shadow sets so the
//!   simulation can classify Bloom false positives (Section VIII-C).
//! * [`nic::TxRemoteTable`] — Module 4b: each local transaction's record of
//!   remote lines written (grouped by home node) and remote nodes involved,
//!   consumed by the Intend-to-commit / Validation flow.
//!
//! The HADES protocol verbs themselves (Intend-to-commit, Ack, Validation,
//! Squash) are defined by the protocol layer in `hades-core`; this crate
//! supplies their timing and NIC-side state.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod fabric;
pub mod nic;

pub use batch::{BatchRole, BatchStats, Batcher, Doorbell, RecvBatch};
pub use fabric::{wire_size, Fabric};
pub use nic::{Nic, NicConflict, RemoteTxKey, TxRemoteTable};
