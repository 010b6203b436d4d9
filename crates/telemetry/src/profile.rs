//! The phase profiler: per-transaction sim-time attribution.
//!
//! [`PhaseProfile`] is the config-gated (`SimConfig::with_profiling()`)
//! aggregate output of [`crate::observer::TxnObserver`]. Every committed
//! transaction's wall time — from the first attempt's start to the final
//! commit, including all squashed attempts — is split across the six
//! [`ProfPhase`] buckets, and every fabric verb's NIC-to-NIC flight time
//! is charged to its verb kind.
//!
//! Two invariants (tested in `tests/bench_determinism.rs` and
//! `tests/observer_invariants.rs`):
//!
//! * **Byte identity off.** A disabled profiler records nothing, draws
//!   no RNG, and leaves every export byte-identical to a build without
//!   the profiler.
//! * **Sum exactness on.** Per-phase totals sum exactly to the summed
//!   end-to-end latency of the committed transactions: the slot
//!   state machine always attributes the full `[first_start, commit]`
//!   interval to some phase (time between an abort and the retry's
//!   start is backoff).
//!
//! Phase attribution is engine-specific (DESIGN.md §12): the baseline
//! has a real lock phase; HADES validates in hardware inside commit
//! distribution; replication shows up only for HADES with `degree > 0`.
//! Aborted attempts count toward the committing attempt's phases, so
//! wasted execution appears as extra `exec`/`backoff` time rather than
//! disappearing.

use crate::event::Verb;
use crate::json::Json;
use crate::registry::histogram_json;
use hades_sim::stats::Histogram;

/// Where a committed transaction's time went. A superset of the
/// four-phase trace taxonomy ([`crate::event::Phase`]): replication and
/// backoff are invisible to the per-attempt trace but first-class here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProfPhase {
    /// Application logic plus data fetches (all attempts).
    #[default]
    Exec,
    /// Baseline write-lock acquisition (and pessimistic-fallback
    /// pre-locking time beyond the first grab).
    Lock,
    /// Read-set validation: baseline version checks, HADES-H local
    /// software validation.
    Validate,
    /// Commit distribution: Intend/Ack round trips, hardware checks,
    /// write-back, unlock.
    Commit,
    /// Waiting on replica persists (HADES with `repl.degree > 0`).
    Replication,
    /// Squash-to-restart gaps: backoff delays and admission retries.
    Backoff,
}

impl ProfPhase {
    /// Every phase, in lifecycle order.
    pub const ALL: [ProfPhase; 6] = [
        ProfPhase::Exec,
        ProfPhase::Lock,
        ProfPhase::Validate,
        ProfPhase::Commit,
        ProfPhase::Replication,
        ProfPhase::Backoff,
    ];

    /// Number of phase kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for accumulator arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            ProfPhase::Exec => "exec",
            ProfPhase::Lock => "lock",
            ProfPhase::Validate => "validate",
            ProfPhase::Commit => "commit",
            ProfPhase::Replication => "replication",
            ProfPhase::Backoff => "backoff",
        }
    }
}

/// The profiler's results: per-phase totals and per-transaction
/// distributions, plus per-verb fabric-time accounting. Filled by
/// [`crate::observer::TxnObserver`], the one per-slot state machine.
#[derive(Debug, Clone)]
pub struct PhaseProfile {
    /// Total cycles per phase, over measured committed transactions.
    pub(crate) phase_total: [u64; ProfPhase::COUNT],
    /// Per-transaction cycles-in-phase distributions.
    pub(crate) phase_hist: [Histogram; ProfPhase::COUNT],
    /// Measured committed transactions flushed into the totals.
    pub(crate) txns: u64,
    /// Fabric flight cycles per verb (all messages, whole run).
    pub(crate) verb_cycles: [u64; Verb::COUNT],
    /// Messages sent per verb (all messages, whole run).
    pub(crate) verb_msgs: [u64; Verb::COUNT],
}

impl Default for PhaseProfile {
    fn default() -> Self {
        PhaseProfile {
            phase_total: [0; ProfPhase::COUNT],
            phase_hist: std::array::from_fn(|_| Histogram::new()),
            txns: 0,
            verb_cycles: [0; Verb::COUNT],
            verb_msgs: [0; Verb::COUNT],
        }
    }
}

impl PhaseProfile {
    /// Measured committed transactions flushed into the totals.
    pub fn txns(&self) -> u64 {
        self.txns
    }

    /// Total cycles charged to `phase` over all measured transactions.
    pub fn phase_cycles(&self, phase: ProfPhase) -> u64 {
        self.phase_total[phase.index()]
    }

    /// Sum of all phase totals — equals the summed end-to-end latency
    /// of the measured committed transactions.
    pub fn total_cycles(&self) -> u64 {
        self.phase_total.iter().sum()
    }

    /// Messages recorded for `verb`.
    pub fn verb_msgs(&self, verb: Verb) -> u64 {
        self.verb_msgs[verb.index()]
    }

    /// Fabric flight cycles recorded for `verb`.
    pub fn verb_cycles(&self, verb: Verb) -> u64 {
        self.verb_cycles[verb.index()]
    }

    /// Exports the profile:
    /// `{"txns", "total_cycles", "phases": {name: {"cycles", "share",
    /// "per_txn": {...}}}, "verbs": {name: {"msgs", "fabric_cycles"}}}`.
    /// Phases always render all six buckets (stable schema); verbs render
    /// only those seen, in declaration order.
    pub fn to_json(&self) -> Json {
        let total = self.total_cycles();
        let phases = Json::Obj(
            ProfPhase::ALL
                .iter()
                .map(|&p| {
                    let cycles = self.phase_cycles(p);
                    let share = if total == 0 {
                        0.0
                    } else {
                        cycles as f64 / total as f64
                    };
                    (
                        p.label().to_string(),
                        Json::obj()
                            .field("cycles", cycles)
                            .field("share", share)
                            .field("per_txn", histogram_json(&self.phase_hist[p.index()]))
                            .build(),
                    )
                })
                .collect(),
        );
        let verbs = Json::Obj(
            Verb::ALL
                .iter()
                .filter(|&&v| self.verb_msgs(v) > 0)
                .map(|&v| {
                    (
                        v.label().to_string(),
                        Json::obj()
                            .field("msgs", self.verb_msgs(v))
                            .field("fabric_cycles", self.verb_cycles(v))
                            .build(),
                    )
                })
                .collect(),
        );
        Json::obj()
            .field("txns", self.txns)
            .field("total_cycles", total)
            .field("phases", phases)
            .field("verbs", verbs)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indexes_are_dense_and_stable() {
        for (i, p) in ProfPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(ProfPhase::COUNT, 6);
        assert_eq!(ProfPhase::Replication.label(), "replication");
    }
}
