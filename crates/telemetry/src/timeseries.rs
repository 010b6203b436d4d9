//! Windowed time-series metrics: throughput, tail latency, occupancy,
//! and event counts resolved over fixed simulated-time windows.
//!
//! [`TimeSeries`] is the second half of the time-resolved observability
//! layer (enabled with `SimConfig::with_timeseries(window)`). Where
//! `RunStats` reports whole-run aggregates, the time-series slices the
//! run into fixed windows of simulated time and records, per window:
//!
//! * per-node committed and aborted transaction counts (whole run, not
//!   just the measurement interval — a failover dip outside the window
//!   would otherwise be invisible),
//! * the window's p99 commit latency (from a per-window histogram),
//! * the in-flight transaction count at window close,
//! * Locking-Buffer and NIC read-Bloom-filter occupancy sampled at the
//!   roll instant (integer sums, so aggregation order cannot perturb
//!   the bytes),
//! * admission-throttle, degraded-commit, and failover event counts.
//!
//! Windows materialize lazily: the current window closes when the first
//! event past its edge arrives (the cluster calls [`TimeSeries::roll`]
//! with an occupancy snapshot), and the final partial window is closed
//! by [`TimeSeries::finish`] at run end. Disabled (the default), none of
//! this exists: no RNG draws, no trace events, no stats bytes.

use crate::event::{EventKind, InjectedFault};
use crate::json::Json;
use hades_sim::stats::Histogram;
use hades_sim::time::Cycles;

/// Schema tag stamped into the `timeseries` JSON block.
pub const TS_SCHEMA: &str = "hades-timeseries/v1";

/// Closed windows are capped (a backstop far above any real run);
/// overflow is counted in [`TimeSeries::dropped`].
pub const TS_WINDOW_CAP: usize = 65_536;

/// A point-in-time hardware occupancy snapshot, as integer sums so the
/// aggregation is byte-deterministic regardless of container iteration
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Locking-Buffer slots currently held, summed over all banks.
    pub lb_occupied: u64,
    /// Locking-Buffer slots total, summed over all banks.
    pub lb_slots: u64,
    /// Set bits over all live NIC read Bloom filters.
    pub bf_ones: u64,
    /// Total bits over all live NIC read Bloom filters.
    pub bf_bits: u64,
}

/// One closed window.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Window index (window `i` covers `[i*window, (i+1)*window)`).
    pub idx: u64,
    /// Committed transactions per node.
    pub committed: Vec<u64>,
    /// Aborted (squashed) attempts per node.
    pub aborted: Vec<u64>,
    /// Commit-latency samples recorded in the window.
    pub samples: u64,
    /// p99 commit latency over the window's samples (zero when empty).
    pub p99: Cycles,
    /// Transactions in flight (started, not yet committed) at close.
    pub inflight: u64,
    /// Admission-throttle events in the window.
    pub admission: u64,
    /// Degraded (saturation-fallback) commits in the window.
    pub degraded: u64,
    /// Failover events (epoch changes + promotions) in the window.
    pub failover: u64,
    /// Verb batches flushed in the window (DESIGN.md §14).
    pub batch_flushes: u64,
    /// Verbs those batches carried (occupancy = `batch_verbs / batch_flushes`).
    pub batch_verbs: u64,
    /// Migration state-transfer chunks moved in the window (DESIGN.md §15).
    pub migration_moves: u64,
    /// Messages blocked by a cut or flapped-down link in the window
    /// (DESIGN.md §16) — the windowed partition-state signal.
    pub link_cuts: u64,
    /// Commit handshakes refused by an expired-lease primary in the
    /// window (DESIGN.md §16).
    pub self_fences: u64,
    /// Hardware occupancy sampled at the roll instant.
    pub occupancy: Occupancy,
}

impl WindowStats {
    /// Committed transactions summed over all nodes.
    pub fn committed_total(&self) -> u64 {
        self.committed.iter().sum()
    }

    /// Aborted attempts summed over all nodes.
    pub fn aborted_total(&self) -> u64 {
        self.aborted.iter().sum()
    }
}

/// Goodput-dip metrics around a disruption (used by the `failover` bin):
/// how far windowed goodput fell below the pre-disruption baseline and
/// for how long.
#[derive(Debug, Clone, Copy)]
pub struct GoodputDip {
    /// Mean committed/window before the disruption window.
    pub baseline: f64,
    /// Minimum committed/window within the dip (or post-disruption
    /// minimum when no window fell below threshold).
    pub min_committed: u64,
    /// Relative depth: `1 - min/baseline`, clamped at 0.
    pub depth: f64,
    /// Consecutive windows below 90% of baseline starting at the first
    /// such post-disruption window.
    pub windows_below: u64,
    /// Window length in microseconds, for turning counts into time.
    pub window_us: f64,
}

impl GoodputDip {
    /// Dip duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.windows_below as f64 * self.window_us
    }

    /// Exports the dip metrics.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("baseline_per_window", self.baseline)
            .field("min_committed", self.min_committed)
            .field("depth", self.depth)
            .field("windows_below", self.windows_below)
            .field("duration_us", self.duration_us())
            .build()
    }
}

/// The time-series recorder: an accumulating current window plus the
/// closed-window list.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window: Cycles,
    nodes: usize,
    /// The open window's counters. Its latency sample count and p99, its
    /// in-flight count and its occupancy are filled in when it closes.
    cur: WindowStats,
    cur_hist: Histogram,
    /// Whether any batch flush was ever recorded; gates the batching
    /// fields in [`Self::to_json`] so batching-off runs render
    /// byte-identically to builds without the subsystem.
    batch_seen: bool,
    /// Whether any migration chunk was ever recorded; gates the
    /// `migration_moves` field in [`Self::to_json`] the same way.
    migration_seen: bool,
    /// Set on the first link-cut or self-fence so fault-free runs never
    /// render the nemesis window fields; gates `link_cuts` and
    /// `self_fences` in [`Self::to_json`].
    nemesis_seen: bool,
    /// Transactions in flight per origin node.
    inflight: Vec<u64>,
    windows: Vec<WindowStats>,
    dropped: u64,
    finished: bool,
}

impl TimeSeries {
    /// Creates a recorder with the given window length (clamped to at
    /// least one cycle) for a cluster of `nodes` nodes.
    pub fn new(window: Cycles, nodes: usize) -> Self {
        TimeSeries {
            window: window.max(Cycles::new(1)),
            nodes,
            cur: Self::open_window(0, nodes),
            cur_hist: Histogram::new(),
            batch_seen: false,
            migration_seen: false,
            nemesis_seen: false,
            inflight: vec![0; nodes],
            windows: Vec::new(),
            dropped: 0,
            finished: false,
        }
    }

    fn open_window(idx: u64, nodes: usize) -> WindowStats {
        WindowStats {
            idx,
            committed: vec![0; nodes],
            aborted: vec![0; nodes],
            ..WindowStats::default()
        }
    }

    /// Window length.
    pub fn window(&self) -> Cycles {
        self.window
    }

    /// True when `now` lies past the current window's edge, i.e. the
    /// caller must [`Self::roll`] (possibly repeatedly) before recording.
    pub fn needs_roll(&self, now: Cycles) -> bool {
        !self.finished && now.get() / self.window.get() > self.cur.idx
    }

    /// Closes the current window with `occ` and opens the next one.
    fn close_window(&mut self, occ: Occupancy) {
        let next = Self::open_window(self.cur.idx + 1, self.nodes);
        let mut w = std::mem::replace(&mut self.cur, next);
        w.samples = self.cur_hist.count();
        w.p99 = self.cur_hist.percentile(99.0);
        w.inflight = self.inflight.iter().sum();
        w.occupancy = occ;
        self.cur_hist = Histogram::new();
        if self.windows.len() < TS_WINDOW_CAP {
            self.windows.push(w);
        } else {
            self.dropped += 1;
        }
    }

    /// Closes the current window with the given occupancy snapshot and
    /// opens the next one.
    pub fn roll(&mut self, occ: Occupancy) {
        if !self.finished {
            self.close_window(occ);
        }
    }

    /// Closes the final (partial) window at run end. Idempotent; further
    /// recording is ignored.
    pub fn finish(&mut self, occ: Occupancy) {
        if !self.finished {
            self.close_window(occ);
            self.finished = true;
        }
    }

    /// A fresh transaction (not a retry) started on `node`.
    pub fn on_fresh_start(&mut self, node: u16) {
        if self.finished {
            return;
        }
        if let Some(n) = self.inflight.get_mut(node as usize) {
            *n += 1;
        }
    }

    /// A transaction of `node` leaves flight: it committed with
    /// end-to-end latency `committed`, or, with `None`, it was dropped
    /// uncommitted (a retry whose start lands after the run began to
    /// drain).
    pub fn on_exit(&mut self, node: u16, committed: Option<Cycles>) {
        if self.finished {
            return;
        }
        if let Some(latency) = committed {
            if let Some(c) = self.cur.committed.get_mut(node as usize) {
                *c += 1;
            }
            self.cur_hist.record(latency);
        }
        if let Some(n) = self.inflight.get_mut(node as usize) {
            *n = n.saturating_sub(1);
        }
    }

    /// Feeds one trace event, emitted at `node`, into the current window.
    /// The series counts squashed attempts per node (`TxnAbort`; the
    /// transaction stays in flight and retries), admission throttles,
    /// degraded commits, failover actions (`EpochChange`, emitted only at
    /// failover and rejoin, and `Promotion`), verb batches and the verbs
    /// they carry (DESIGN.md §14), migration chunks (§15), messages
    /// blocked by a cut or flapped-down link and self-fences (§16). A
    /// node crash wipes every transaction the node started, so
    /// `FaultInjected{NodeCrash}` empties the node's in-flight count.
    /// Every other kind leaves the series unchanged.
    pub fn observe(&mut self, node: u16, kind: &EventKind) {
        if self.finished {
            return;
        }
        let w = &mut self.cur;
        match *kind {
            EventKind::TxnAbort { .. } => {
                if let Some(a) = w.aborted.get_mut(node as usize) {
                    *a += 1;
                }
            }
            EventKind::AdmissionThrottled => w.admission += 1,
            EventKind::DegradedCommit => w.degraded += 1,
            EventKind::EpochChange { .. } | EventKind::Promotion { .. } => w.failover += 1,
            EventKind::BatchFlushed { size, .. } => {
                w.batch_flushes += 1;
                w.batch_verbs += size as u64;
                self.batch_seen = true;
            }
            EventKind::ChunkMigrated { .. } => {
                w.migration_moves += 1;
                self.migration_seen = true;
            }
            EventKind::FaultInjected {
                fault: InjectedFault::LinkCut { .. },
            } => {
                w.link_cuts += 1;
                self.nemesis_seen = true;
            }
            EventKind::SelfFenced { .. } => {
                w.self_fences += 1;
                self.nemesis_seen = true;
            }
            EventKind::FaultInjected {
                fault: InjectedFault::NodeCrash,
            } => {
                if let Some(n) = self.inflight.get_mut(node as usize) {
                    *n = 0;
                }
            }
            _ => {}
        }
    }

    /// Closed windows, in time order.
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// Windows dropped past the retention cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Goodput-dip metrics around a disruption at `at` (e.g. a node
    /// crash): baseline is the mean committed/window before the
    /// disruption's window; the dip is the consecutive run of
    /// post-disruption windows below 90% of that baseline. `None` when
    /// there is no usable pre-disruption baseline.
    pub fn goodput_dip(&self, at: Cycles) -> Option<GoodputDip> {
        let crash_idx = at.get() / self.window.get();
        let pre: Vec<u64> = self
            .windows
            .iter()
            .filter(|w| w.idx < crash_idx)
            .map(|w| w.committed_total())
            .collect();
        if pre.is_empty() {
            return None;
        }
        let baseline = pre.iter().sum::<u64>() as f64 / pre.len() as f64;
        if baseline <= 0.0 {
            return None;
        }
        let post: Vec<u64> = self
            .windows
            .iter()
            .filter(|w| w.idx >= crash_idx)
            .map(|w| w.committed_total())
            .collect();
        if post.is_empty() {
            return None;
        }
        let threshold = 0.9 * baseline;
        let first_below = post.iter().position(|&c| (c as f64) < threshold);
        let (min_committed, windows_below) = match first_below {
            Some(i) => {
                let run: Vec<u64> = post[i..]
                    .iter()
                    .take_while(|&&c| (c as f64) < threshold)
                    .copied()
                    .collect();
                (run.iter().copied().min().unwrap_or(0), run.len() as u64)
            }
            None => (post.iter().copied().min().unwrap_or(0), 0),
        };
        let depth = (1.0 - min_committed as f64 / baseline).max(0.0);
        Some(GoodputDip {
            baseline,
            min_committed,
            depth,
            windows_below,
            window_us: self.window.as_micros(),
        })
    }

    /// Exports the `timeseries` block:
    /// `{"schema", "window_cycles", "window_us", "nodes", "dropped",
    /// "windows": [{...}]}`.
    pub fn to_json(&self) -> Json {
        let windows = Json::Arr(
            self.windows
                .iter()
                .map(|w| {
                    let occ = w.occupancy;
                    let ratio = |num: u64, den: u64| {
                        if den == 0 {
                            0.0
                        } else {
                            num as f64 / den as f64
                        }
                    };
                    let mut b = Json::obj()
                        .field("idx", w.idx)
                        .field(
                            "committed",
                            Json::Arr(w.committed.iter().map(|&c| Json::UInt(c)).collect()),
                        )
                        .field(
                            "aborted",
                            Json::Arr(w.aborted.iter().map(|&a| Json::UInt(a)).collect()),
                        )
                        .field("samples", w.samples)
                        .field("p99_us", w.p99.as_micros())
                        .field("inflight", w.inflight)
                        .field("lb_occupancy", ratio(occ.lb_occupied, occ.lb_slots))
                        .field("bf_occupancy", ratio(occ.bf_ones, occ.bf_bits))
                        .field("admission", w.admission)
                        .field("degraded", w.degraded)
                        .field("failover", w.failover);
                    if self.batch_seen {
                        b = b
                            .field("batch_flushes", w.batch_flushes)
                            .field("batch_occupancy", ratio(w.batch_verbs, w.batch_flushes));
                    }
                    if self.migration_seen {
                        b = b.field("migration_moves", w.migration_moves);
                    }
                    if self.nemesis_seen {
                        b = b
                            .field("link_cuts", w.link_cuts)
                            .field("self_fences", w.self_fences);
                    }
                    b.build()
                })
                .collect(),
        );
        Json::obj()
            .field("schema", Json::str(TS_SCHEMA))
            .field("window_cycles", self.window.get())
            .field("window_us", self.window.as_micros())
            .field("nodes", self.nodes as u64)
            .field("dropped", self.dropped)
            .field("windows", windows)
            .build()
    }
}
