//! # hades-core — the HADES distributed transactional protocols
//!
//! The primary contribution of the paper, reproduced as three
//! discrete-event protocol simulators over the shared substrates. One
//! generic driver (`Sim<P: Engine>`, in the private `driver` module) owns
//! the slot lifecycle, membership, migration and crash plumbing; each
//! engine supplies only its protocol logic:
//!
//! * [`baseline`] — the optimized FaRM-style software protocol (*SW-Impl*,
//!   Section III), with Fig 3 overhead accounting.
//! * [`hades`] — the hardware-only HADES protocol (Section V-A): Bloom
//!   filters beside the directory and in the NIC, `WrTX_ID` tags, partial
//!   directory locking, and the Intend-to-commit / Ack / Validation
//!   one-round-trip distributed commit. Its NIC remote path is shared
//!   with HADES-H.
//! * [`hades_h`] — HADES-H (Section V-D): software record-granularity
//!   local path, hardware remote path.
//!
//! [`runner`] drives any of the three over the paper's workloads and
//! cluster shapes through one builder, [`runner::Run`]; [`hwcost`]
//! reproduces the Section VI hardware-storage arithmetic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
mod driver;
pub mod hades;
pub mod hades_h;
pub mod hwcost;
pub mod membership;
pub mod overload;
pub mod runner;
pub mod runtime;
pub mod stats;

pub use membership::Membership;
pub use overload::AdmissionController;
pub use runner::{Experiment, Protocol, Run};
pub use runtime::{Cluster, RunOutcome, WorkloadSet};
pub use stats::{MembershipStats, Overhead, OverloadStats, Phase, RunStats, SquashReason};
