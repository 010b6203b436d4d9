//! The admission controller of the overload-robustness layer.
//!
//! Under heavy contention an optimistic protocol can spend most of its
//! cycles on work it will squash: every admitted transaction increases
//! the conflict probability of every other. The controller bounds that
//! feedback loop per node, deferring *new* transaction starts (never
//! in-flight ones) while the node is past either of two signals:
//!
//! * the recent abort rate, tracked over a sliding window of the last 64
//!   transaction outcomes, or
//! * the Locking Buffer occupancy of the node's directory bank.
//!
//! Two properties keep it safe: a node with nothing in flight always
//! admits (so admission alone can never deadlock or idle a node), and
//! with [`hades_sim::config::OverloadParams::admission`] off every query
//! returns `true` without consuming RNG or mutating state — preserving
//! the determinism contract for default runs.

use hades_sim::config::OverloadParams;
use hades_sim::ids::NodeId;

/// Minimum recorded outcomes before the abort-rate signal is trusted;
/// below this the window is too noisy to shed load on.
const MIN_WINDOW_SAMPLES: u32 = 16;

/// Sliding window over the last 64 transaction outcomes of one node
/// (bit set = aborted).
#[derive(Debug, Clone, Copy, Default)]
struct OutcomeWindow {
    bits: u64,
    len: u32,
}

impl OutcomeWindow {
    fn push(&mut self, aborted: bool) {
        self.bits = (self.bits << 1) | aborted as u64;
        self.len = (self.len + 1).min(64);
    }

    fn abort_rate(&self) -> Option<f64> {
        if self.len < MIN_WINDOW_SAMPLES {
            return None;
        }
        let mask = if self.len == 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        };
        Some((self.bits & mask).count_ones() as f64 / self.len as f64)
    }
}

/// Per-node admission state. Lives in the [`crate::runtime::Cluster`] so
/// all three protocol engines share one implementation.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    params: OverloadParams,
    windows: Vec<OutcomeWindow>,
}

impl AdmissionController {
    /// Creates a controller for `nodes` nodes with the run's overload
    /// parameters.
    pub fn new(params: OverloadParams, nodes: usize) -> Self {
        AdmissionController {
            params,
            windows: vec![OutcomeWindow::default(); nodes],
        }
    }

    /// Whether admission control is active at all.
    pub fn active(&self) -> bool {
        self.params.admission
    }

    /// Decides whether `node` may start a new transaction right now.
    /// `inflight` is the node's count of currently running transactions;
    /// `lock_occupancy` is its Locking Buffer bank occupancy in `[0, 1]`.
    pub fn admit(&self, node: NodeId, inflight: usize, lock_occupancy: f64) -> bool {
        if !self.params.admission {
            return true;
        }
        // An idle node always admits: admission must never deadlock.
        if inflight == 0 {
            return true;
        }
        if lock_occupancy >= OverloadParams::LOCK_OCCUPANCY_THRESHOLD {
            return false;
        }
        if let Some(rate) = self.windows[node.0 as usize].abort_rate() {
            if rate > OverloadParams::ABORT_RATE_THRESHOLD {
                return false;
            }
        }
        true
    }

    /// Records the outcome of a transaction attempt at `node` (commit or
    /// squash) into the node's sliding window. No-op while admission is
    /// off, so disabled runs carry no extra state.
    pub fn note_outcome(&mut self, node: NodeId, aborted: bool) {
        if !self.params.admission {
            return;
        }
        self.windows[node.0 as usize].push(aborted);
    }

    /// The node's windowed abort rate, once at least
    /// `MIN_WINDOW_SAMPLES` outcomes are recorded.
    pub fn abort_rate(&self, node: NodeId) -> Option<f64> {
        self.windows[node.0 as usize].abort_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_on() -> OverloadParams {
        OverloadParams::aggressive()
    }

    #[test]
    fn disabled_controller_always_admits() {
        let ac = AdmissionController::new(OverloadParams::default(), 2);
        assert!(!ac.active());
        assert!(ac.admit(NodeId(0), usize::MAX, 1.0));
    }

    #[test]
    fn idle_node_always_admits() {
        let ac = AdmissionController::new(params_on(), 1);
        assert!(ac.admit(NodeId(0), 0, 1.0), "idle node must admit");
        assert!(
            !ac.admit(NodeId(0), 1, 1.0),
            "busy node past the occupancy threshold"
        );
    }

    #[test]
    fn occupancy_threshold_sheds() {
        let ac = AdmissionController::new(params_on(), 1);
        assert!(ac.admit(NodeId(0), 2, 0.5));
        assert!(!ac.admit(NodeId(0), 2, 0.75));
    }

    #[test]
    fn abort_rate_needs_samples_then_sheds() {
        let mut ac = AdmissionController::new(params_on(), 1);
        // 8 aborts: window too short to act on.
        for _ in 0..8 {
            ac.note_outcome(NodeId(0), true);
        }
        assert_eq!(ac.abort_rate(NodeId(0)), None);
        assert!(ac.admit(NodeId(0), 2, 0.0));
        // 8 more: 16/16 aborted, above the 0.7 threshold.
        for _ in 0..8 {
            ac.note_outcome(NodeId(0), true);
        }
        assert_eq!(ac.abort_rate(NodeId(0)), Some(1.0));
        assert!(!ac.admit(NodeId(0), 2, 0.0));
        // A run of commits slides the aborts out of the window.
        for _ in 0..64 {
            ac.note_outcome(NodeId(0), false);
        }
        assert_eq!(ac.abort_rate(NodeId(0)), Some(0.0));
        assert!(ac.admit(NodeId(0), 2, 0.0));
    }

    #[test]
    fn windows_are_per_node() {
        let mut ac = AdmissionController::new(params_on(), 2);
        for _ in 0..64 {
            ac.note_outcome(NodeId(1), true);
        }
        assert!(ac.admit(NodeId(0), 2, 0.0), "node 0 is healthy");
        assert!(!ac.admit(NodeId(1), 2, 0.0), "node 1 is thrashing");
    }

    #[test]
    fn disabled_note_outcome_is_a_no_op() {
        let mut ac = AdmissionController::new(OverloadParams::default(), 1);
        for _ in 0..64 {
            ac.note_outcome(NodeId(0), true);
        }
        assert_eq!(ac.abort_rate(NodeId(0)), None);
    }
}
