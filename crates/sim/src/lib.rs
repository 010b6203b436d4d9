//! # hades-sim — discrete-event simulation substrate
//!
//! Foundation crate for the HADES (ISCA 2024) reproduction: a deterministic
//! discrete-event engine, the simulated clock domain, cluster identifiers,
//! the full Table III configuration surface, a fast seedable RNG, and
//! measurement utilities (histograms for mean/p95 latency).
//!
//! The paper evaluated HADES with SST + Pin traces + DRAMSim2; this crate is
//! the substitute substrate (see `DESIGN.md` §2): every protocol action is
//! charged a latency from [`config::SimConfig`], and all cross-node
//! interactions flow through one time-ordered [`engine::EventQueue`], so runs
//! are exactly reproducible from a seed.
//!
//! # Examples
//!
//! ```
//! use hades_sim::{config::SimConfig, engine::EventQueue, time::Cycles};
//!
//! let cfg = SimConfig::isca_default();
//! let mut q: EventQueue<u32> = EventQueue::new();
//! q.push_at(cfg.net.rt, 7); // deliver a message after one network RT
//! let (at, ev) = q.pop().unwrap();
//! assert_eq!((at, ev), (Cycles::from_micros(2), 7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod config;
pub mod engine;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod time;

pub use backoff::{BackoffPolicy, Growth};
pub use config::{ClusterShape, SimConfig};
pub use engine::EventQueue;
pub use ids::{CoreId, NodeId, SlotId, TxId};
pub use rng::SimRng;
pub use stats::Histogram;
pub use time::Cycles;
