//! # hades-telemetry — structured tracing and metrics for the HADES reproduction
//!
//! The paper's evaluation (Figs 3, 9–15, Table IV) is built on
//! fine-grained accounting: per-phase cycle breakdowns, abort causes,
//! Bloom-filter false positives, NIC verb traffic. This crate is the
//! substrate that makes the same accounting available from the
//! reproduction's simulators:
//!
//! * [`sink::TraceSink`] / [`sink::Tracer`] — a zero-cost-when-disabled
//!   tracing handle every simulator component carries. Disabled (the
//!   default) it is one branch per event site; enabled, all components
//!   share one deterministic event stream.
//! * [`event::TraceEvent`] — the event taxonomy: transaction lifecycle
//!   (begin / phases / commit / abort-with-reason), NIC verb send/recv,
//!   Bloom-filter insert/probe/false-positive, Locking-Buffer
//!   acquire/stall, and the fault, overload, membership, batching and
//!   migration events. [`event::EventKind::describe`] is the one place
//!   each kind's category, name and payload fields are stated; the JSONL
//!   and Chrome exporters render from it.
//! * [`registry::MetricsRegistry`] — named counters and cycle
//!   histograms, derivable wholesale from a recorded stream.
//! * [`observer::TxnObserver`] — the one per-slot transaction state
//!   machine (config-gated): it follows every attempt's phase
//!   transitions, verb rounds and aborts, and at each measured commit
//!   feeds both of its outputs from the same intervals:
//!   * [`profile::PhaseProfile`] — per-phase sim-time totals across
//!     execution / lock / validate / commit / replication / backoff,
//!     plus per-verb fabric time (DESIGN.md §12);
//!   * [`span::SpanLog`] — the committed transactions themselves, with
//!     a critical-path analyzer over the top-K slowest / most-retried
//!     (DESIGN.md §13).
//! * [`timeseries::TimeSeries`] — config-gated windowed time-series:
//!   per-node throughput, windowed p99, hardware occupancy, and
//!   overload/failover event counts per fixed sim-time window. It counts
//!   events through [`timeseries::TimeSeries::observe`], which reads the
//!   same [`event::EventKind`]s the tracer emits.
//! * [`chrome::chrome_trace`] — Chrome `trace_event` exporter; open the
//!   output in [ui.perfetto.dev](https://ui.perfetto.dev) to inspect a
//!   whole distributed commit on a real time axis.
//!   [`chrome::span_chrome_trace`] renders a span log's tail
//!   transactions as per-transaction flow/slice tracks.
//! * [`jsonl`] — line-delimited JSON export of events and metrics.
//!
//! Everything renders through the dependency-free [`json::Json`]
//! builder, and every export is byte-deterministic for a fixed
//! `SimConfig` + seed (see `tests/trace_determinism.rs`).

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod observer;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod span;
pub mod timeseries;

pub use event::{EventKind, FilterSite, Phase, TraceEvent, Verb, VerbCounts, NO_SLOT};
pub use observer::TxnObserver;
pub use profile::{PhaseProfile, ProfPhase};
pub use registry::MetricsRegistry;
pub use sink::{MemorySink, NullSink, TraceSink, Tracer};
pub use span::{SpanLog, TxnSpan};
pub use timeseries::{Occupancy, TimeSeries};
