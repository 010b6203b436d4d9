//! Run statistics: throughput, latency, phase breakdowns and the Fig 3
//! software-overhead accounting.

use hades_fault::{FaultCounts, RecoveryCounts};
use hades_net::batch::BatchStats;
use hades_sim::stats::Histogram;
use hades_sim::time::Cycles;
use hades_telemetry::event::VerbCounts;
use hades_telemetry::json::{Json, ObjBuilder};
use hades_telemetry::profile::PhaseProfile;
use hades_telemetry::registry::histogram_json;
use hades_telemetry::span::SpanLog;
use hades_telemetry::timeseries::TimeSeries;

/// The software-overhead categories of Table I / Fig 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Overhead {
    /// Managing the Read and Write sets of a transaction.
    ManageSets,
    /// Updating record versions before writes.
    UpdateVersion,
    /// Read-atomicity checks and the extra copy they force.
    ReadAtomicity,
    /// Reading the whole record before writing it (record granularity).
    RdBeforeWr,
    /// Lock/unlock, completion polling, and validation re-reads.
    ConflictDetection,
    /// Everything fundamental: application compute, index walks, the data
    /// movement any protocol must do.
    Other,
}

impl Overhead {
    /// All categories, in Fig 3 legend order.
    pub const ALL: [Overhead; 6] = [
        Overhead::ManageSets,
        Overhead::UpdateVersion,
        Overhead::ReadAtomicity,
        Overhead::RdBeforeWr,
        Overhead::ConflictDetection,
        Overhead::Other,
    ];

    /// Display label as used in Fig 3.
    pub fn label(self) -> &'static str {
        match self {
            Overhead::ManageSets => "Manage RD/WR Sets",
            Overhead::UpdateVersion => "Update Version",
            Overhead::ReadAtomicity => "Read Atomicity",
            Overhead::RdBeforeWr => "RD before WR",
            Overhead::ConflictDetection => "Conflict Detection",
            Overhead::Other => "Other Time",
        }
    }

    fn index(self) -> usize {
        match self {
            Overhead::ManageSets => 0,
            Overhead::UpdateVersion => 1,
            Overhead::ReadAtomicity => 2,
            Overhead::RdBeforeWr => 3,
            Overhead::ConflictDetection => 4,
            Overhead::Other => 5,
        }
    }
}

/// Accumulated cycles per overhead category.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverheadBreakdown {
    totals: [u64; 6],
}

impl OverheadBreakdown {
    /// Creates a zeroed breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to `category`.
    pub fn add(&mut self, category: Overhead, cycles: Cycles) {
        self.totals[category.index()] += cycles.get();
    }

    /// Total cycles recorded in `category`.
    pub fn get(&self, category: Overhead) -> Cycles {
        Cycles::new(self.totals[category.index()])
    }

    /// Sum over all categories.
    pub fn total(&self) -> Cycles {
        Cycles::new(self.totals.iter().sum())
    }

    /// Fraction of the total attributed to overhead (everything except
    /// [`Overhead::Other`]) — the headline number of Section III (59–71%).
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total().get();
        if total == 0 {
            return 0.0;
        }
        let other = self.get(Overhead::Other).get();
        (total - other) as f64 / total as f64
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &OverheadBreakdown) {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += b;
        }
    }
}

/// The transaction phases of Fig 2 / Fig 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reads/writes of the transaction body.
    Execution,
    /// Conflict detection and the distributed commit handshake.
    Validation,
    /// Applying updates, unlocking (Baseline only; HADES folds this into
    /// Validation, as in Fig 10).
    Commit,
}

/// Accumulated wall-clock cycles per phase across committed transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Total execution-phase cycles.
    pub execution: u64,
    /// Total validation-phase cycles.
    pub validation: u64,
    /// Total commit-phase cycles.
    pub commit: u64,
}

impl PhaseBreakdown {
    /// Adds `cycles` to `phase`.
    pub fn add(&mut self, phase: Phase, cycles: Cycles) {
        match phase {
            Phase::Execution => self.execution += cycles.get(),
            Phase::Validation => self.validation += cycles.get(),
            Phase::Commit => self.commit += cycles.get(),
        }
    }

    /// Sum of all phases.
    pub fn total(&self) -> u64 {
        self.execution + self.validation + self.commit
    }
}

/// Why a transaction attempt was squashed/aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SquashReason {
    /// Eager local–local conflict (directory tag or read-filter hit).
    EagerLocal,
    /// Lazy conflict: squashed by a committing transaction.
    LazyConflict,
    /// Failed to partially lock a directory.
    LockFailed,
    /// A speculatively written line was evicted from the LLC.
    LlcEviction,
    /// Software validation found a version mismatch or a locked record.
    ValidationFailed,
    /// Could not acquire a record lock (Baseline validation phase).
    RecordLockBusy,
    /// Commit abandoned: Acks missing after the timeout (replication /
    /// message-loss runs, Section V-A).
    CommitTimeout,
    /// The coordinator's own membership lease had expired at commit
    /// entry, so it refused the handshake rather than risk dueling a
    /// promoted successor (DESIGN.md §16 self-fencing).
    SelfFenced,
}

impl SquashReason {
    /// All reasons, for reporting.
    pub const ALL: [SquashReason; 8] = [
        SquashReason::EagerLocal,
        SquashReason::LazyConflict,
        SquashReason::LockFailed,
        SquashReason::LlcEviction,
        SquashReason::ValidationFailed,
        SquashReason::RecordLockBusy,
        SquashReason::CommitTimeout,
        SquashReason::SelfFenced,
    ];

    /// Stable lowercase label used in telemetry exports and trace events.
    pub const fn label(self) -> &'static str {
        match self {
            SquashReason::EagerLocal => "eager-local",
            SquashReason::LazyConflict => "lazy-conflict",
            SquashReason::LockFailed => "lock-failed",
            SquashReason::LlcEviction => "llc-eviction",
            SquashReason::ValidationFailed => "validation-failed",
            SquashReason::RecordLockBusy => "record-lock-busy",
            SquashReason::CommitTimeout => "commit-timeout",
            SquashReason::SelfFenced => "self-fenced",
        }
    }

    fn index(self) -> usize {
        match self {
            SquashReason::EagerLocal => 0,
            SquashReason::LazyConflict => 1,
            SquashReason::LockFailed => 2,
            SquashReason::LlcEviction => 3,
            SquashReason::ValidationFailed => 4,
            SquashReason::RecordLockBusy => 5,
            SquashReason::CommitTimeout => 6,
            SquashReason::SelfFenced => 7,
        }
    }
}

/// Counters from the overload-robustness layer (admission control,
/// contention management, saturation fallbacks). All-zero — and absent
/// from JSON — unless the layer is enabled in the run's config.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Transaction starts deferred by the admission controller.
    pub admission_throttled: u64,
    /// Commits that lost hardware assistance (Locking Buffer full or
    /// filters saturated) and fell back to software validation.
    pub degraded_commits: u64,
    /// Backoff priority boosts granted to aged transactions.
    pub starvation_boosts: u64,
    /// Highest attempt number any transaction reached before committing.
    pub max_attempts: u64,
}

impl OverloadStats {
    /// Whether nothing was recorded.
    pub fn is_zero(&self) -> bool {
        *self == OverloadStats::default()
    }

    /// JSON object with the four counters.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("admission_throttled", self.admission_throttled)
            .field("degraded_commits", self.degraded_commits)
            .field("starvation_boosts", self.starvation_boosts)
            .field("max_attempts", self.max_attempts)
            .build()
    }
}

/// Counters from the membership / failover layer (configuration epochs,
/// backup promotion, epoch fencing). All-zero — and absent from JSON —
/// unless the layer is enabled in the run's config.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MembershipStats {
    /// Configuration epochs advanced (nodes declared dead).
    pub epoch_changes: u64,
    /// Partitions whose primary was moved to a backup replica.
    pub promotions: u64,
    /// Stale fabric verbs dropped by epoch fencing.
    pub verbs_fenced: u64,
    /// In-flight commits straddling an epoch change that were resolved as
    /// committed (all participant state provably durable).
    pub failover_commits: u64,
    /// In-flight commits straddling an epoch change that were resolved as
    /// aborted.
    pub failover_aborts: u64,
    /// Replica-prepare entries drained from survivor and dead-node queues
    /// during reconfiguration.
    pub replica_drained: u64,
}

impl MembershipStats {
    /// Whether nothing was recorded.
    pub fn is_zero(&self) -> bool {
        *self == MembershipStats::default()
    }

    /// JSON object with the six counters.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("epoch_changes", self.epoch_changes)
            .field("promotions", self.promotions)
            .field("verbs_fenced", self.verbs_fenced)
            .field("failover_commits", self.failover_commits)
            .field("failover_aborts", self.failover_aborts)
            .field("replica_drained", self.replica_drained)
            .build()
    }
}

/// Counters from the partition-tolerance layer (DESIGN.md §16): link
/// faults observed, quorum-gated death freezes, self-fencing, and
/// rejoins. All-zero — and absent from JSON — unless link faults or the
/// quorum/self-fence membership knobs are active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NemesisStats {
    /// Link-fault windows (cuts and flaps) that became active.
    pub links_cut: u64,
    /// Link-fault windows that healed.
    pub links_healed: u64,
    /// Nodes that crossed the suspicion deadline (gray or partitioned).
    pub suspicions: u64,
    /// Suspicions cleared by a fresh renewal before a death declaration.
    pub suspicions_cleared: u64,
    /// Death declarations frozen because no liveness quorum was
    /// observable (the minority side of a partition).
    pub quorum_losses: u64,
    /// Commit handshakes refused by an expired-lease coordinator.
    pub self_fences: u64,
    /// Declared-dead nodes that rejoined after their renewals resumed.
    pub rejoins: u64,
    /// Commits applied by a node while it was declared dead — the
    /// dual-primary detector. Must stay zero whenever self-fencing is on.
    pub commits_while_dead: u64,
}

impl NemesisStats {
    /// Whether nothing was recorded.
    pub fn is_zero(&self) -> bool {
        *self == NemesisStats::default()
    }

    /// JSON object with the eight counters.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("links_cut", self.links_cut)
            .field("links_healed", self.links_healed)
            .field("suspicions", self.suspicions)
            .field("suspicions_cleared", self.suspicions_cleared)
            .field("quorum_losses", self.quorum_losses)
            .field("self_fences", self.self_fences)
            .field("rejoins", self.rejoins)
            .field("commits_while_dead", self.commits_while_dead)
            .build()
    }
}

/// Counters from the planned-reconfiguration layer (live shard
/// migration, DESIGN.md §15). All-zero — and absent from JSON — unless
/// a migration plan is installed and reaches its start time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Partitions whose primary was moved by a planned cutover.
    pub partitions_moved: u64,
    /// State-transfer chunks streamed from source to destination.
    pub chunks_moved: u64,
    /// Records those chunks carried.
    pub records_moved: u64,
    /// Writes landing at the source during the copy window that were
    /// forwarded to the destination (catch-up traffic).
    pub forwarded_writes: u64,
    /// In-flight commit handshakes straddling the cutover that were
    /// fenced and squashed for retry.
    pub straddlers_fenced: u64,
    /// Locking-Buffer token holders on the source fenced at cutover
    /// (tokens are never relocated; see DESIGN.md §15).
    pub lb_tokens_moved: u64,
    /// NIC remote-transaction filter entries transferred to the
    /// destination at cutover.
    pub nic_entries_moved: u64,
}

impl MigrationStats {
    /// Whether nothing was recorded.
    pub fn is_zero(&self) -> bool {
        *self == MigrationStats::default()
    }

    /// JSON object with the seven counters.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("partitions_moved", self.partitions_moved)
            .field("chunks_moved", self.chunks_moved)
            .field("records_moved", self.records_moved)
            .field("forwarded_writes", self.forwarded_writes)
            .field("straddlers_fenced", self.straddlers_fenced)
            .field("lb_tokens_moved", self.lb_tokens_moved)
            .field("nic_entries_moved", self.nic_entries_moved)
            .build()
    }
}

/// Everything measured over one protocol run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Committed transactions during the measurement window.
    pub committed: u64,
    /// Committed transactions per workload index (for mixes).
    pub committed_per_app: Vec<u64>,
    /// Squashed/aborted attempts during the window.
    pub squashes: u64,
    /// Squashes by reason.
    pub squash_reasons: [u64; 8],
    /// Committed transactions per coordinator node (grown on demand).
    pub node_committed: Vec<u64>,
    /// Squashes by reason per coordinator node (grown on demand).
    pub node_squashes: Vec<[u64; 8]>,
    /// Messages sent per source node, by verb (whole run; sums to
    /// [`RunStats::verbs`] per verb).
    pub node_verbs: Vec<VerbCounts>,
    /// Transactions that fell back to pessimistic locking.
    pub fallbacks: u64,
    /// Latency from first attempt start to commit.
    pub latency: Histogram,
    /// Wall-clock phase totals over committed transactions.
    pub phases: PhaseBreakdown,
    /// Fig 3 category accounting (Baseline / HADES-H software paths).
    pub overhead: OverheadBreakdown,
    /// Conflict-check operations and how many were Bloom false positives.
    pub conflict_checks: u64,
    /// Bloom-filter hits that the exact shadow sets refute.
    pub false_positive_conflicts: u64,
    /// Squashes caused by LLC evictions of speculative lines.
    pub llc_eviction_squashes: u64,
    /// Network messages sent during the window.
    pub messages: u64,
    /// Network messages by protocol verb (whole run; the fabric counts
    /// from cluster construction onward).
    pub verbs: VerbCounts,
    /// Replica-prepare persists performed (Section V-A durability).
    pub replica_persists: u64,
    /// Commit messages dropped by failure injection.
    pub dropped_messages: u64,
    /// Faults injected by the fault plane during the run, by kind.
    pub faults: FaultCounts,
    /// Recovery actions taken in response to injected faults.
    pub recovery: RecoveryCounts,
    /// Overload-layer activity (all-zero when the layer is off).
    pub overload: OverloadStats,
    /// Membership-layer activity (all-zero when the layer is off).
    pub membership: MembershipStats,
    /// Planned-migration activity (all-zero when no plan is installed).
    pub migration: MigrationStats,
    /// Partition-tolerance activity (all-zero when link faults and the
    /// quorum/self-fence knobs are off).
    pub nemesis: NemesisStats,
    /// Net sum of committed RMW deltas (conservation checking).
    pub committed_sum_delta: i64,
    /// Length of the measurement window in simulated time.
    pub elapsed: Cycles,
    /// Phase-profiler output (`Some` only when the run was configured
    /// with `SimConfig::with_profiling()`; see DESIGN.md §12).
    pub profile: Option<PhaseProfile>,
    /// Causal transaction spans (`Some` only when the run was configured
    /// with `SimConfig::with_spans()`; see DESIGN.md §13).
    pub spans: Option<SpanLog>,
    /// Windowed time-series (`Some` only when the run was configured
    /// with `SimConfig::with_timeseries()`; see DESIGN.md §13).
    pub timeseries: Option<TimeSeries>,
    /// Verb-batching counters (`Some` only when the run was configured
    /// with `SimConfig::with_batching()`; see DESIGN.md §14).
    pub batching: Option<BatchStats>,
}

impl RunStats {
    /// Creates zeroed stats for `apps` workloads.
    pub fn new(apps: usize) -> Self {
        RunStats {
            committed: 0,
            committed_per_app: vec![0; apps],
            squashes: 0,
            squash_reasons: [0; 8],
            node_committed: Vec::new(),
            node_squashes: Vec::new(),
            node_verbs: Vec::new(),
            fallbacks: 0,
            latency: Histogram::new(),
            phases: PhaseBreakdown::default(),
            overhead: OverheadBreakdown::new(),
            conflict_checks: 0,
            false_positive_conflicts: 0,
            llc_eviction_squashes: 0,
            replica_persists: 0,
            dropped_messages: 0,
            faults: FaultCounts::default(),
            recovery: RecoveryCounts::default(),
            overload: OverloadStats::default(),
            membership: MembershipStats::default(),
            migration: MigrationStats::default(),
            nemesis: NemesisStats::default(),
            messages: 0,
            verbs: VerbCounts::new(),
            committed_sum_delta: 0,
            elapsed: Cycles::ZERO,
            profile: None,
            spans: None,
            timeseries: None,
            batching: None,
        }
    }

    /// Notes a squash on coordinator `node` with its reason.
    pub fn note_squash(&mut self, node: u16, reason: SquashReason) {
        self.squashes += 1;
        self.squash_reasons[reason.index()] += 1;
        let n = node as usize;
        if self.node_squashes.len() <= n {
            self.node_squashes.resize(n + 1, [0; 8]);
        }
        self.node_squashes[n][reason.index()] += 1;
    }

    /// Notes a commit on coordinator `node` (the per-node counterpart of
    /// the `committed` aggregate).
    pub fn note_commit_node(&mut self, node: u16) {
        let n = node as usize;
        if self.node_committed.len() <= n {
            self.node_committed.resize(n + 1, 0);
        }
        self.node_committed[n] += 1;
    }

    /// Squash count for one reason.
    pub fn squashes_for(&self, reason: SquashReason) -> u64 {
        self.squash_reasons[reason.index()]
    }

    /// Committed transactions per second of simulated time.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs();
        if secs == 0.0 {
            0.0
        } else {
            self.committed as f64 / secs
        }
    }

    /// Abort rate: squashed attempts / (squashed + committed).
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.squashes + self.committed;
        if attempts == 0 {
            0.0
        } else {
            self.squashes as f64 / attempts as f64
        }
    }

    /// Fraction of conflict checks that were Bloom false positives
    /// (Section VIII-C).
    pub fn false_positive_rate(&self) -> f64 {
        if self.conflict_checks == 0 {
            0.0
        } else {
            self.false_positive_conflicts as f64 / self.conflict_checks as f64
        }
    }

    /// Mean committed-transaction latency.
    pub fn mean_latency(&self) -> Cycles {
        self.latency.mean()
    }

    /// 95th-percentile (tail) latency, as in Fig 11.
    pub fn p95_latency(&self) -> Cycles {
        self.latency.percentile(95.0)
    }

    /// Median committed-transaction latency.
    pub fn p50_latency(&self) -> Cycles {
        self.latency.percentile(50.0)
    }

    /// 99th-percentile latency.
    pub fn p99_latency(&self) -> Cycles {
        self.latency.percentile(99.0)
    }

    /// 99.9th-percentile latency.
    pub fn p999_latency(&self) -> Cycles {
        self.latency.percentile(99.9)
    }

    /// Squash counts by stable reason label, in [`SquashReason::ALL`]
    /// order (zero entries included so consumers see a fixed schema).
    pub fn abort_reasons(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        SquashReason::ALL
            .iter()
            .map(move |&r| (r.label(), self.squashes_for(r)))
    }

    /// Per-node breakdown of the commit/abort/verb aggregates: one JSON
    /// object per node index covered by any per-node counter. Zero-valued
    /// reasons and verbs are omitted inside each node (the aggregate
    /// blocks carry the fixed schema).
    fn per_node_json(&self) -> Json {
        let nodes = self
            .node_committed
            .len()
            .max(self.node_squashes.len())
            .max(self.node_verbs.len());
        let mut rows = Vec::with_capacity(nodes);
        for n in 0..nodes {
            let committed = self.node_committed.get(n).copied().unwrap_or(0);
            let reasons = self.node_squashes.get(n).copied().unwrap_or([0; 8]);
            let squashed: u64 = reasons.iter().sum();
            let aborts = Json::Obj(
                SquashReason::ALL
                    .iter()
                    .filter(|r| reasons[r.index()] != 0)
                    .map(|r| (r.label().to_string(), Json::UInt(reasons[r.index()])))
                    .collect(),
            );
            let verbs = Json::Obj(
                self.node_verbs
                    .get(n)
                    .map(|vc| {
                        vc.iter()
                            .filter(|(_, c)| *c != 0)
                            .map(|(v, c)| (v.label().to_string(), Json::UInt(c)))
                            .collect()
                    })
                    .unwrap_or_default(),
            );
            rows.push(
                Json::obj()
                    .field("node", n as u64)
                    .field("committed", committed)
                    .field("squashed", squashed)
                    .field("aborts", aborts)
                    .field("verbs", verbs)
                    .build(),
            );
        }
        Json::Arr(rows)
    }

    /// Exports the run as a JSON object with throughput, latency
    /// quantiles, abort-reason counts, verb counts, and phase totals —
    /// the machine-readable form behind `summary --json`.
    pub fn to_json(&self) -> Json {
        let aborts = Json::Obj(
            self.abort_reasons()
                .map(|(label, n)| (label.to_string(), Json::UInt(n)))
                .collect(),
        );
        let verbs = Json::Obj(
            self.verbs
                .iter()
                .map(|(v, n)| (v.label().to_string(), Json::UInt(n)))
                .collect(),
        );
        let phases = Json::obj()
            .field("execution_cycles", self.phases.execution)
            .field("validation_cycles", self.phases.validation)
            .field("commit_cycles", self.phases.commit)
            .build();
        let mut b = Json::obj()
            .field("committed", self.committed)
            .field("squashes", self.squashes)
            .field("fallbacks", self.fallbacks)
            .field("throughput_txn_s", self.throughput())
            .field("abort_rate", self.abort_rate())
            .field("latency", histogram_json(&self.latency))
            .field("p50_us", self.p50_latency().as_micros())
            .field("p95_us", self.p95_latency().as_micros())
            .field("p99_us", self.p99_latency().as_micros())
            .field("p999_us", self.p999_latency().as_micros())
            .field("aborts", aborts)
            .field("verbs", verbs)
            .field("per_node", self.per_node_json())
            .field("messages", self.messages)
            .field("phases", phases)
            .field("conflict_checks", self.conflict_checks)
            .field("false_positive_conflicts", self.false_positive_conflicts)
            .field("false_positive_rate", self.false_positive_rate())
            .field("replica_persists", self.replica_persists)
            .field("dropped_messages", self.dropped_messages);
        // Fault/recovery breakdowns appear only on runs that injected
        // faults, so zero-fault runs keep their pre-fault-plane schema
        // (and byte-identical JSON output).
        if !self.faults.is_zero() {
            b = b.field("faults", self.faults.to_json());
        }
        if !self.recovery.is_zero() {
            b = b.field("recovery", self.recovery.to_json());
        }
        // Same rule for the overload layer: runs with it off keep their
        // historical schema byte-for-byte.
        if !self.overload.is_zero() {
            b = b.field("overload", self.overload.to_json());
        }
        // And for the membership layer: the block appears only when a
        // reconfiguration (or fencing) actually happened.
        if !self.membership.is_zero() {
            b = b.field("membership", self.membership.to_json());
        }
        // Migration counters appear only on runs whose plan actually
        // moved something, so migration-off JSON stays byte-identical.
        if !self.migration.is_zero() {
            b = b.field("migration", self.migration.to_json());
        }
        // Nemesis counters appear only on runs where a link fault fired
        // or the quorum/self-fence machinery acted (DESIGN.md §16).
        if !self.nemesis.is_zero() {
            b = b.field("nemesis", self.nemesis.to_json());
        }
        self.optional_blocks(b)
            .field("elapsed_us", self.elapsed.as_micros())
            .build()
    }

    /// Appends the `profile`, `tail`, `timeseries` and `batching` blocks,
    /// in that order. Each exists only when its layer was enabled
    /// (`with_profiling()`, `with_spans()`, `with_timeseries()`, an
    /// installed batcher), so runs with it off keep their JSON
    /// byte-identical (DESIGN.md §12–§14).
    pub fn optional_blocks(&self, mut b: ObjBuilder) -> ObjBuilder {
        if let Some(profile) = &self.profile {
            b = b.field("profile", profile.to_json());
        }
        if let Some(spans) = &self.spans {
            b = b.field("tail", spans.tail_json(10));
        }
        if let Some(ts) = &self.timeseries {
            b = b.field("timeseries", ts.to_json());
        }
        if let Some(batching) = &self.batching {
            b = b.field("batching", batching.to_json());
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_fraction_excludes_other() {
        let mut b = OverheadBreakdown::new();
        b.add(Overhead::ManageSets, Cycles::new(30));
        b.add(Overhead::Other, Cycles::new(70));
        assert!((b.overhead_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(b.total(), Cycles::new(100));
        assert_eq!(b.get(Overhead::ManageSets), Cycles::new(30));
    }

    #[test]
    fn overhead_merge_adds() {
        let mut a = OverheadBreakdown::new();
        let mut b = OverheadBreakdown::new();
        a.add(Overhead::RdBeforeWr, Cycles::new(5));
        b.add(Overhead::RdBeforeWr, Cycles::new(7));
        b.add(Overhead::UpdateVersion, Cycles::new(1));
        a.merge(&b);
        assert_eq!(a.get(Overhead::RdBeforeWr), Cycles::new(12));
        assert_eq!(a.get(Overhead::UpdateVersion), Cycles::new(1));
    }

    #[test]
    fn phase_totals() {
        let mut p = PhaseBreakdown::default();
        p.add(Phase::Execution, Cycles::new(10));
        p.add(Phase::Validation, Cycles::new(20));
        p.add(Phase::Commit, Cycles::new(30));
        assert_eq!(p.total(), 60);
    }

    #[test]
    fn throughput_arithmetic() {
        let mut s = RunStats::new(1);
        s.committed = 1000;
        s.elapsed = Cycles::from_micros(1_000_000); // one second
        assert!((s.throughput() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn rates() {
        let mut s = RunStats::new(2);
        s.committed = 90;
        s.note_squash(0, SquashReason::EagerLocal);
        for _ in 0..9 {
            s.note_squash(1, SquashReason::LazyConflict);
        }
        assert!((s.abort_rate() - 0.1).abs() < 1e-12);
        assert_eq!(s.squashes_for(SquashReason::EagerLocal), 1);
        assert_eq!(s.squashes_for(SquashReason::LazyConflict), 9);
        s.conflict_checks = 200;
        s.false_positive_conflicts = 1;
        assert!((s.false_positive_rate() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunStats::new(0);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.abort_rate(), 0.0);
        assert_eq!(s.false_positive_rate(), 0.0);
        assert_eq!(s.mean_latency(), Cycles::ZERO);
    }

    #[test]
    fn membership_block_absent_when_zero() {
        let mut s = RunStats::new(1);
        assert!(s.membership.is_zero());
        assert!(!s.to_json().render().contains("membership"));
        s.membership.epoch_changes = 1;
        s.membership.promotions = 3;
        let rendered = s.to_json().render();
        assert!(rendered.contains("\"membership\":"));
        assert!(rendered.contains("\"epoch_changes\":1"));
        assert!(rendered.contains("\"promotions\":3"));
    }

    #[test]
    fn nemesis_block_absent_when_zero() {
        let mut s = RunStats::new(1);
        assert!(s.nemesis.is_zero());
        assert!(!s.to_json().render().contains("nemesis"));
        s.nemesis.links_cut = 2;
        s.nemesis.self_fences = 5;
        let rendered = s.to_json().render();
        assert!(rendered.contains("\"nemesis\":"));
        assert!(rendered.contains("\"links_cut\":2"));
        assert!(rendered.contains("\"self_fences\":5"));
        assert!(rendered.contains("\"commits_while_dead\":0"));
    }

    #[test]
    fn migration_block_absent_when_zero() {
        let mut s = RunStats::new(1);
        assert!(s.migration.is_zero());
        assert!(!s.to_json().render().contains("migration"));
        s.migration.partitions_moved = 1;
        s.migration.chunks_moved = 8;
        s.migration.straddlers_fenced = 2;
        let rendered = s.to_json().render();
        assert!(rendered.contains("\"migration\":"));
        assert!(rendered.contains("\"partitions_moved\":1"));
        assert!(rendered.contains("\"chunks_moved\":8"));
        assert!(rendered.contains("\"straddlers_fenced\":2"));
    }

    #[test]
    fn batching_block_absent_when_off() {
        use hades_net::batch::{Batcher, Doorbell};
        use hades_sim::config::{BatchingParams, NetParams};
        use hades_sim::ids::NodeId;
        use hades_telemetry::event::Verb;
        let mut s = RunStats::new(1);
        assert!(!s.to_json().render().contains("batching"));
        let mut b = Batcher::new(BatchingParams::fixed(2), NetParams::default(), 2);
        for _ in 0..2 {
            b.schedule(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                64,
                Verb::Intend,
                Doorbell::Share,
            );
        }
        s.batching = Some(b.finish());
        let rendered = s.to_json().render();
        assert!(rendered.contains("\"batching\":"));
        assert!(rendered.contains("\"flushes\":1"));
        assert!(rendered.contains("\"joined\":1"));
    }

    #[test]
    fn per_node_breakdown_tracks_aggregates() {
        let mut s = RunStats::new(1);
        s.committed = 3;
        s.note_commit_node(0);
        s.note_commit_node(2);
        s.note_commit_node(2);
        s.note_squash(1, SquashReason::LazyConflict);
        assert_eq!(s.node_committed, vec![1, 0, 2]);
        assert_eq!(s.node_committed.iter().sum::<u64>(), s.committed);
        assert_eq!(s.node_squashes[1][SquashReason::LazyConflict.index()], 1);
        let rendered = s.to_json().render();
        assert!(rendered.contains("\"per_node\":["));
        assert!(rendered.contains("\"lazy-conflict\":1"));
    }

    #[test]
    fn labels_cover_fig3_legend() {
        let labels: Vec<&str> = Overhead::ALL.iter().map(|o| o.label()).collect();
        assert!(labels.contains(&"Manage RD/WR Sets"));
        assert!(labels.contains(&"Conflict Detection"));
        assert!(labels.contains(&"Other Time"));
    }
}
