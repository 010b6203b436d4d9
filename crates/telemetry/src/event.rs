//! The trace-event taxonomy: everything the three protocol engines and
//! the hardware models (NIC Bloom filters, Locking Buffers, fabric) can
//! report about a run.
//!
//! Events are small `Copy` values stamped with simulated time; the
//! exporters in [`crate::chrome`] and [`crate::jsonl`] turn a recorded
//! stream into Perfetto-loadable Chrome traces or line-delimited JSON.

use crate::json::Json;
use hades_sim::time::Cycles;

/// Sentinel slot index for node-scoped events (NIC, fabric, directory)
/// that are not attributable to a single execution slot.
pub const NO_SLOT: u32 = u32::MAX;

/// A transaction-lifecycle phase, matching the paper's Fig 10 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Execution: running app logic and fetching data.
    Exec,
    /// Lock acquisition (Baseline write locks / Locking Buffer grab).
    Lock,
    /// Read-set validation (Baseline version checks / HADES Validation).
    Validate,
    /// Commit: write-back, unlock, replication.
    Commit,
}

impl Phase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Phase; 4] = [Phase::Exec, Phase::Lock, Phase::Validate, Phase::Commit];

    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Exec => "exec",
            Phase::Lock => "lock",
            Phase::Validate => "validate",
            Phase::Commit => "commit",
        }
    }
}

/// The protocol-level meaning of a fabric message ("verb", in RDMA
/// terms). One taxonomy covers all three protocols; each engine uses the
/// subset matching its message set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// Remote read request (Baseline RDMA read / HADES remote access).
    Read,
    /// Remote read response carrying data lines.
    ReadResp,
    /// Baseline lock request for a remote write-set entry.
    Lock,
    /// Baseline lock response (grant or deny).
    LockResp,
    /// Baseline read-set validation request.
    Validate,
    /// Baseline read-set validation response.
    ValidateResp,
    /// Commit-time write-back of updated lines.
    Write,
    /// Baseline unlock message releasing a write lock.
    Unlock,
    /// HADES Intend-to-commit carrying read/write line lists.
    Intend,
    /// HADES Ack from a participant directory.
    Ack,
    /// HADES Validation message closing the commit.
    Validation,
    /// HADES Squash notification aborting a speculative transaction.
    Squash,
    /// HADES Clear message dropping remote NIC filters.
    Clear,
    /// Replication prepare (log shipping to backups).
    ReplicaPrepare,
    /// Replication acknowledgment from a backup.
    ReplicaAck,
    /// Anything not covered above (kept last for forward compatibility).
    Other,
}

impl Verb {
    /// Every verb, in declaration order (indexes match [`Verb::index`]).
    pub const ALL: [Verb; 16] = [
        Verb::Read,
        Verb::ReadResp,
        Verb::Lock,
        Verb::LockResp,
        Verb::Validate,
        Verb::ValidateResp,
        Verb::Write,
        Verb::Unlock,
        Verb::Intend,
        Verb::Ack,
        Verb::Validation,
        Verb::Squash,
        Verb::Clear,
        Verb::ReplicaPrepare,
        Verb::ReplicaAck,
        Verb::Other,
    ];

    /// Number of verb kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for counter arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            Verb::Read => "read",
            Verb::ReadResp => "read_resp",
            Verb::Lock => "lock",
            Verb::LockResp => "lock_resp",
            Verb::Validate => "validate",
            Verb::ValidateResp => "validate_resp",
            Verb::Write => "write",
            Verb::Unlock => "unlock",
            Verb::Intend => "intend",
            Verb::Ack => "ack",
            Verb::Validation => "validation",
            Verb::Squash => "squash",
            Verb::Clear => "clear",
            Verb::ReplicaPrepare => "replica_prepare",
            Verb::ReplicaAck => "replica_ack",
            Verb::Other => "other",
        }
    }
}

/// Per-verb message counters, indexed by [`Verb::index`].
///
/// # Examples
///
/// ```
/// use hades_telemetry::event::{Verb, VerbCounts};
///
/// let mut v = VerbCounts::new();
/// v.bump(Verb::Intend);
/// v.bump(Verb::Intend);
/// assert_eq!(v.get(Verb::Intend), 2);
/// assert_eq!(v.total(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerbCounts([u64; Verb::COUNT]);

impl VerbCounts {
    /// All-zero counters.
    pub const fn new() -> Self {
        VerbCounts([0; Verb::COUNT])
    }

    /// Increments the counter for `verb`.
    pub fn bump(&mut self, verb: Verb) {
        self.0[verb.index()] += 1;
    }

    /// Count for one verb.
    pub const fn get(&self, verb: Verb) -> u64 {
        self.0[verb.index()]
    }

    /// Sum over all verbs.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Iterates `(verb, count)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Verb, u64)> + '_ {
        Verb::ALL.iter().map(move |&v| (v, self.get(v)))
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &VerbCounts) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }
}

/// Which Bloom filter a hardware operation touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterSite {
    /// NIC-side read filter for a remote transaction.
    NicRead,
    /// NIC-side write filter for a remote transaction.
    NicWrite,
    /// Core-side read filter (local access tracking).
    CoreRead,
    /// Core-side write filter (WrTX_ID tags / dual write filter).
    CoreWrite,
}

impl FilterSite {
    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            FilterSite::NicRead => "nic_read",
            FilterSite::NicWrite => "nic_write",
            FilterSite::CoreRead => "core_read",
            FilterSite::CoreWrite => "core_write",
        }
    }
}

/// A fault injected by the `hades-fault` plane into the simulated
/// cluster (messages, nodes, NICs, or links).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A message was dropped (or, on the reliable transport, charged a
    /// hardware retransmission).
    Drop {
        /// The dropped message's verb.
        verb: Verb,
    },
    /// A message was delivered twice.
    Duplicate {
        /// The duplicated message's verb.
        verb: Verb,
    },
    /// A message was delayed by a configured amount.
    Delay {
        /// The delayed message's verb.
        verb: Verb,
    },
    /// A message was jittered so later sends may overtake it.
    Reorder {
        /// The jittered message's verb.
        verb: Verb,
    },
    /// A node crashed, losing all in-flight transaction state.
    NodeCrash,
    /// A crashed node restarted.
    NodeRestart,
    /// An arrival was held by a NIC stall window.
    NicStall,
    /// A message hit a cut or flapped-down link (lost on the lossy class,
    /// held until the heal on the reliable class).
    LinkCut {
        /// The blocked message's verb.
        verb: Verb,
    },
}

impl InjectedFault {
    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            InjectedFault::Drop { .. } => "drop",
            InjectedFault::Duplicate { .. } => "duplicate",
            InjectedFault::Delay { .. } => "delay",
            InjectedFault::Reorder { .. } => "reorder",
            InjectedFault::NodeCrash => "node_crash",
            InjectedFault::NodeRestart => "node_restart",
            InjectedFault::NicStall => "nic_stall",
            InjectedFault::LinkCut { .. } => "link_cut",
        }
    }

    /// The verb the fault targeted, for message-level faults.
    pub const fn verb(self) -> Option<Verb> {
        match self {
            InjectedFault::Drop { verb }
            | InjectedFault::Duplicate { verb }
            | InjectedFault::Delay { verb }
            | InjectedFault::Reorder { verb }
            | InjectedFault::LinkCut { verb } => Some(verb),
            _ => None,
        }
    }
}

/// A recovery action a protocol engine took in response to a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// A commit timeout fired (or the transport retransmitted) and the
    /// transaction retried/aborted cleanly.
    TimeoutRetry,
    /// A participant's lease on a suspected-crashed coordinator expired,
    /// releasing its Locking Buffer and NIC filters.
    LeaseExpire,
    /// Durable replica state was replayed on node restart.
    ReplicaReplay,
}

impl RecoveryKind {
    /// Stable lowercase name used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            RecoveryKind::TimeoutRetry => "timeout_retry",
            RecoveryKind::LeaseExpire => "lease_expire",
            RecoveryKind::ReplicaReplay => "replica_replay",
        }
    }
}

/// What happened. Variants carry only small `Copy` payloads so recording
/// stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A slot started (or restarted) a transaction attempt.
    TxnBegin {
        /// 1-based attempt number (1 = first try, >1 = retry).
        attempt: u32,
    },
    /// A lifecycle phase opened for the slot's current transaction.
    PhaseBegin(Phase),
    /// The matching phase closed.
    PhaseEnd(Phase),
    /// The transaction committed.
    TxnCommit,
    /// The transaction aborted/squashed; `reason` is a stable label
    /// (e.g. `"wrtx-conflict"`).
    TxnAbort {
        /// Stable abort-reason label.
        reason: &'static str,
    },
    /// A fabric message left the source NIC.
    VerbSend {
        /// Protocol meaning of the message.
        verb: Verb,
        /// Destination node.
        dst: u16,
        /// Wire bytes including header.
        bytes: u32,
    },
    /// A fabric message arrived at the destination NIC.
    VerbRecv {
        /// Protocol meaning of the message.
        verb: Verb,
        /// Source node.
        src: u16,
        /// Wire bytes including header.
        bytes: u32,
    },
    /// A line was inserted into a hardware Bloom filter.
    BloomInsert {
        /// Which filter.
        site: FilterSite,
    },
    /// A membership probe against hardware Bloom filters.
    BloomProbe {
        /// Whether any filter reported (possible) membership.
        hit: bool,
    },
    /// A probe hit that exact-line comparison disproved — a Bloom false
    /// positive that will squash an innocent transaction.
    BloomFalsePositive,
    /// A Locking Buffer was granted to a committing transaction.
    LockAcquire {
        /// Owner token of the grantee.
        owner: u64,
    },
    /// An access or lock attempt stalled against a held Locking Buffer.
    LockStall {
        /// Owner token of the transaction holding the conflicting buffer.
        holder: u64,
    },
    /// The fault plane injected a fault here.
    FaultInjected {
        /// What was injected.
        fault: InjectedFault,
    },
    /// A protocol engine recovered from a fault.
    Recovery {
        /// What recovery action ran.
        action: RecoveryKind,
    },
    /// The admission controller deferred a new transaction start because
    /// the node was over its in-flight, abort-rate, or Locking Buffer
    /// occupancy threshold.
    AdmissionThrottled,
    /// A commit that could not get hardware assistance (Locking Buffer
    /// full or filters saturated) fell back to software validation
    /// instead of squashing.
    DegradedCommit,
    /// An aged transaction was granted backoff priority by the contention
    /// manager so it cannot starve.
    StarvationBoost {
        /// 1-based attempt number at the time of the boost.
        attempt: u32,
    },
    /// The cluster advanced to a new configuration epoch after declaring
    /// a node dead.
    EpochChange {
        /// The new epoch number.
        epoch: u64,
    },
    /// A backup replica was promoted to primary for a partition whose
    /// home node left the configuration.
    Promotion {
        /// The partition (its original home node id).
        partition: u16,
        /// The promoted node now serving the partition.
        new_primary: u16,
    },
    /// A fabric verb stamped with a pre-reconfiguration epoch and
    /// involving a departed node was dropped at delivery.
    VerbFenced {
        /// The fenced verb.
        verb: Verb,
    },
    /// A verb batch closed and rang its doorbell (DESIGN.md §14).
    BatchFlushed {
        /// Destination node of the batch's queue pair.
        dst: u16,
        /// Verbs the batch carried (piggybacked squashes included).
        size: u32,
    },
    /// A squash notification piggybacked on an open batch already
    /// carrying a squash to the same destination.
    BatchCoalesced {
        /// Destination node of the batch's queue pair.
        dst: u16,
    },
    /// A planned shard migration announced itself: the epoch advanced
    /// and the copy phase is about to start streaming (DESIGN.md §15).
    MigrationStart {
        /// The partition being moved (its original home node id).
        partition: u16,
        /// The destination node that will serve it after the cutover.
        dst: u16,
    },
    /// One bounded copy chunk of a migrating partition landed at the
    /// destination.
    ChunkMigrated {
        /// The partition being moved.
        partition: u16,
        /// 0-based chunk index within the move.
        chunk: u32,
    },
    /// A migration cutover flipped the partition map: the destination
    /// now serves the moved partitions at the new epoch.
    MigrationCutover {
        /// The epoch after the flip.
        epoch: u64,
    },
    /// A link-fault window (cut or flap) became active on a directed
    /// link: traffic from `src` to `dst` is now partitioned away.
    LinkCut {
        /// Sending side of the cut direction.
        src: u16,
        /// Receiving side of the cut direction.
        dst: u16,
    },
    /// A link-fault window ended: traffic from `src` to `dst` flows
    /// again.
    LinkHealed {
        /// Sending side of the healed direction.
        src: u16,
        /// Receiving side of the healed direction.
        dst: u16,
    },
    /// A node whose own lease expired refused a commit handshake rather
    /// than risk dueling a promoted successor (FaRMv2-style self-fence).
    SelfFenced {
        /// The self-fencing node.
        node: u16,
    },
    /// The failure detector wanted to declare a node dead but could not
    /// observe a liveness quorum; the epoch is frozen instead.
    QuorumLost {
        /// The suspect whose death declaration is frozen.
        node: u16,
    },
}

/// One payload field value of an exported event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    /// A count, id, size or token.
    U64(u64),
    /// A stable label (a verb, phase, site, fault or abort reason).
    Str(&'static str),
    /// A flag.
    Bool(bool),
}

impl From<FieldValue> for Json {
    fn from(v: FieldValue) -> Json {
        match v {
            FieldValue::U64(n) => Json::UInt(n),
            FieldValue::Str(s) => Json::str(s),
            FieldValue::Bool(b) => Json::Bool(b),
        }
    }
}

/// How an event kind is exported: its category, its name and up to
/// three `(key, value)` payload fields, in export order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Description {
    /// Coarse category (see [`EventKind::category`]).
    pub cat: &'static str,
    /// Short stable name (see [`EventKind::name`]).
    pub name: &'static str,
    fields: [(&'static str, FieldValue); 3],
    len: usize,
}

impl Description {
    const fn new(cat: &'static str, name: &'static str) -> Self {
        Description {
            cat,
            name,
            fields: [("", FieldValue::U64(0)); 3],
            len: 0,
        }
    }

    const fn with(mut self, key: &'static str, value: FieldValue) -> Self {
        self.fields[self.len] = (key, value);
        self.len += 1;
        self
    }

    const fn num(self, key: &'static str, value: u64) -> Self {
        self.with(key, FieldValue::U64(value))
    }

    const fn label(self, key: &'static str, value: &'static str) -> Self {
        self.with(key, FieldValue::Str(value))
    }

    /// The payload fields, in export order.
    pub fn fields(&self) -> &[(&'static str, FieldValue)] {
        &self.fields[..self.len]
    }
}

impl EventKind {
    /// The one description of every event kind: its category, its name
    /// and its payload fields. [`Self::category`], [`Self::name`], the
    /// JSONL exporter and the Chrome exporter's instant events all read
    /// from it; the metrics registry keeps its own counter names.
    pub const fn describe(&self) -> Description {
        use Description as D;
        match *self {
            EventKind::TxnBegin { attempt } => {
                D::new("txn", "txn_begin").num("attempt", attempt as u64)
            }
            EventKind::PhaseBegin(p) => D::new("phase", "phase_begin").label("phase", p.label()),
            EventKind::PhaseEnd(p) => D::new("phase", "phase_end").label("phase", p.label()),
            EventKind::TxnCommit => D::new("txn", "txn_commit"),
            EventKind::TxnAbort { reason } => D::new("txn", "txn_abort").label("reason", reason),
            EventKind::VerbSend { verb, dst, bytes } => D::new("net", "verb_send")
                .label("verb", verb.label())
                .num("dst", dst as u64)
                .num("bytes", bytes as u64),
            EventKind::VerbRecv { verb, src, bytes } => D::new("net", "verb_recv")
                .label("verb", verb.label())
                .num("src", src as u64)
                .num("bytes", bytes as u64),
            EventKind::BloomInsert { site } => {
                D::new("bloom", "bloom_insert").label("site", site.label())
            }
            EventKind::BloomProbe { hit } => {
                D::new("bloom", "bloom_probe").with("hit", FieldValue::Bool(hit))
            }
            EventKind::BloomFalsePositive => D::new("bloom", "bloom_false_positive"),
            EventKind::LockAcquire { owner } => D::new("lock", "lock_acquire").num("owner", owner),
            EventKind::LockStall { holder } => D::new("lock", "lock_stall").num("holder", holder),
            EventKind::FaultInjected { fault } => {
                let d = D::new("fault", "fault_injected").label("fault", fault.label());
                match fault.verb() {
                    Some(verb) => d.label("verb", verb.label()),
                    None => d,
                }
            }
            EventKind::Recovery { action } => {
                D::new("recovery", "recovery").label("action", action.label())
            }
            EventKind::AdmissionThrottled => D::new("overload", "admission_throttled"),
            EventKind::DegradedCommit => D::new("overload", "degraded_commit"),
            EventKind::StarvationBoost { attempt } => {
                D::new("overload", "starvation_boost").num("attempt", attempt as u64)
            }
            EventKind::EpochChange { epoch } => {
                D::new("membership", "epoch_change").num("epoch", epoch)
            }
            EventKind::Promotion {
                partition,
                new_primary,
            } => D::new("membership", "promotion")
                .num("partition", partition as u64)
                .num("new_primary", new_primary as u64),
            EventKind::VerbFenced { verb } => {
                D::new("membership", "verb_fenced").label("verb", verb.label())
            }
            EventKind::BatchFlushed { dst, size } => D::new("batch", "batch_flushed")
                .num("dst", dst as u64)
                .num("size", size as u64),
            EventKind::BatchCoalesced { dst } => {
                D::new("batch", "batch_coalesced").num("dst", dst as u64)
            }
            EventKind::MigrationStart { partition, dst } => D::new("migration", "migration_start")
                .num("partition", partition as u64)
                .num("dst", dst as u64),
            EventKind::ChunkMigrated { partition, chunk } => D::new("migration", "chunk_migrated")
                .num("partition", partition as u64)
                .num("chunk", chunk as u64),
            EventKind::MigrationCutover { epoch } => {
                D::new("migration", "migration_cutover").num("epoch", epoch)
            }
            EventKind::LinkCut { src, dst } => D::new("fault", "link_cut")
                .num("src", src as u64)
                .num("dst", dst as u64),
            EventKind::LinkHealed { src, dst } => D::new("fault", "link_healed")
                .num("src", src as u64)
                .num("dst", dst as u64),
            EventKind::SelfFenced { node } => {
                D::new("membership", "self_fenced").num("node", node as u64)
            }
            EventKind::QuorumLost { node } => {
                D::new("membership", "quorum_lost").num("node", node as u64)
            }
        }
    }

    /// Coarse category used by the Chrome exporter and metric names:
    /// `"txn"`, `"phase"`, `"net"`, `"bloom"`, `"lock"`, `"fault"`,
    /// `"recovery"`, `"overload"`, `"membership"`, `"batch"`, or
    /// `"migration"`.
    pub const fn category(&self) -> &'static str {
        self.describe().cat
    }

    /// Short stable name for the event kind.
    pub const fn name(&self) -> &'static str {
        self.describe().name
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: Cycles,
    /// Node where the event happened.
    pub node: u16,
    /// Global execution-slot index, or [`NO_SLOT`] for node-scoped events.
    pub slot: u32,
    /// What happened.
    pub kind: EventKind,
}
