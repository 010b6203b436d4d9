//! The metrics registry: named counters and cycle histograms.
//!
//! A [`MetricsRegistry`] can be fed directly (`inc` / `observe`) or
//! derived wholesale from a recorded trace with
//! [`MetricsRegistry::from_events`], which reconstructs abort-reason
//! counts, verb traffic, Bloom-filter activity, and per-phase cycle
//! histograms. Iteration order is sorted by name (`BTreeMap`), so two
//! registries built from identical runs export identical JSON.

use crate::event::{EventKind, TraceEvent};
use crate::json::Json;
use hades_sim::stats::Histogram;
use hades_sim::time::Cycles;
use std::collections::BTreeMap;

/// Named counters plus named cycle histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds 1 to counter `name`.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one cycle observation into histogram `name`.
    pub fn observe(&mut self, name: &str, value: Cycles) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// The histogram `name`, if it has been observed into.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another registry into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Rebuilds the standard metric set from a recorded trace.
    ///
    /// Counter names are `<category>.<detail>` (e.g. `txn.commit`,
    /// `abort.wrtx-conflict`, `verb.sent.intend`, `bloom.false_positive`,
    /// `lock.stall`); histograms are `phase.<phase>` (cycles spent per
    /// phase instance) and `txn.latency` (begin→commit).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut reg = MetricsRegistry::new();
        // Open-phase start times and txn-begin times, per (node, slot).
        let mut phase_open: BTreeMap<(u16, u32, &'static str), Cycles> = BTreeMap::new();
        let mut txn_open: BTreeMap<(u16, u32), Cycles> = BTreeMap::new();
        for ev in events {
            match ev.kind {
                EventKind::TxnBegin { .. } => {
                    reg.inc("txn.begin");
                    txn_open.insert((ev.node, ev.slot), ev.at);
                }
                EventKind::PhaseBegin(p) => {
                    phase_open.insert((ev.node, ev.slot, p.label()), ev.at);
                }
                EventKind::PhaseEnd(p) => {
                    if let Some(start) = phase_open.remove(&(ev.node, ev.slot, p.label())) {
                        reg.observe(&format!("phase.{}", p.label()), ev.at.saturating_sub(start));
                    }
                }
                EventKind::TxnCommit => {
                    reg.inc("txn.commit");
                    if let Some(start) = txn_open.remove(&(ev.node, ev.slot)) {
                        reg.observe("txn.latency", ev.at.saturating_sub(start));
                    }
                }
                EventKind::TxnAbort { reason } => {
                    reg.inc("txn.abort");
                    reg.inc(&format!("abort.{reason}"));
                    txn_open.remove(&(ev.node, ev.slot));
                }
                EventKind::VerbSend { verb, bytes, .. } => {
                    reg.inc(&format!("verb.sent.{}", verb.label()));
                    reg.add("net.bytes_sent", bytes as u64);
                }
                EventKind::VerbRecv { verb, .. } => {
                    reg.inc(&format!("verb.recv.{}", verb.label()));
                }
                EventKind::BloomInsert { site } => {
                    reg.inc(&format!("bloom.insert.{}", site.label()));
                }
                EventKind::BloomProbe { hit } => {
                    reg.inc("bloom.probe");
                    if hit {
                        reg.inc("bloom.probe_hit");
                    }
                }
                EventKind::BloomFalsePositive => reg.inc("bloom.false_positive"),
                EventKind::LockAcquire { .. } => reg.inc("lock.acquire"),
                EventKind::LockStall { .. } => reg.inc("lock.stall"),
                EventKind::FaultInjected { fault } => {
                    reg.inc(&format!("fault.{}", fault.label()));
                }
                EventKind::Recovery { action } => {
                    reg.inc(&format!("recovery.{}", action.label()));
                }
                EventKind::AdmissionThrottled => reg.inc("overload.admission_throttled"),
                EventKind::DegradedCommit => reg.inc("overload.degraded_commit"),
                EventKind::StarvationBoost { .. } => reg.inc("overload.starvation_boost"),
                EventKind::EpochChange { .. } => reg.inc("membership.epoch_change"),
                EventKind::Promotion { .. } => reg.inc("membership.promotion"),
                EventKind::VerbFenced { .. } => reg.inc("membership.verb_fenced"),
                EventKind::BatchFlushed { size, .. } => {
                    reg.inc("batch.flushed");
                    reg.add("batch.verbs", size as u64);
                }
                EventKind::BatchCoalesced { .. } => reg.inc("batch.coalesced"),
                EventKind::MigrationStart { .. } => reg.inc("migration.start"),
                EventKind::ChunkMigrated { .. } => reg.inc("migration.chunk"),
                EventKind::MigrationCutover { .. } => reg.inc("migration.cutover"),
                EventKind::LinkCut { .. } => reg.inc("fault.link_cut_window"),
                EventKind::LinkHealed { .. } => reg.inc("fault.link_healed"),
                EventKind::SelfFenced { .. } => reg.inc("membership.self_fenced"),
                EventKind::QuorumLost { .. } => reg.inc("membership.quorum_lost"),
            }
        }
        reg
    }

    /// Exports the registry as a JSON object:
    /// `{"counters": {...}, "histograms": {name: {count, mean_us, ...}}}`.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), histogram_json(h)))
                .collect(),
        );
        Json::obj()
            .field("counters", counters)
            .field("histograms", histograms)
            .build()
    }
}

/// Summarizes a histogram for export (counts plus µs quantiles).
pub fn histogram_json(h: &Histogram) -> Json {
    Json::obj()
        .field("count", h.count())
        .field("mean_us", h.mean().as_micros())
        .field("p50_us", h.percentile(50.0).as_micros())
        .field("p95_us", h.percentile(95.0).as_micros())
        .field("p99_us", h.percentile(99.0).as_micros())
        .field("p999_us", h.percentile(99.9).as_micros())
        .field("max_us", h.max().as_micros())
        .build()
}
