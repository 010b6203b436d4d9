//! Cluster and timing configuration.
//!
//! [`SimConfig`] gathers every architectural parameter of Table III in the
//! paper plus the software-operation cost model used for the FaRM-style
//! baseline (Section III). The defaults are the paper's default cluster:
//! N=5 nodes, C=5 cores/node, m=2 multiplexed transactions per core, 2 GHz
//! out-of-order cores, 2 µs NIC-to-NIC round trip and 200 Gb/s NICs.

use crate::time::Cycles;

/// Cluster shape: N nodes, C cores per node, m transaction slots per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterShape {
    /// Number of nodes, `N`.
    pub nodes: usize,
    /// Cores per node, `C`.
    pub cores_per_node: usize,
    /// Multiplexed transactions per core, `m`.
    pub slots_per_core: usize,
}

impl ClusterShape {
    /// The paper's default cluster: N=5, C=5, m=2 (Table III).
    pub const DEFAULT: ClusterShape = ClusterShape {
        nodes: 5,
        cores_per_node: 5,
        slots_per_core: 2,
    };

    /// Scalability configuration: N=10, C=5 (Fig 13).
    pub const N10_C5: ClusterShape = ClusterShape {
        nodes: 10,
        cores_per_node: 5,
        slots_per_core: 2,
    };

    /// Scalability configuration: N=5, C=10, two space-shared workloads
    /// (Fig 14).
    pub const N5_C10: ClusterShape = ClusterShape {
        nodes: 5,
        cores_per_node: 10,
        slots_per_core: 2,
    };

    /// Scalability configuration: N=8, C=25 — 200 cores, four space-shared
    /// workloads (Fig 15).
    pub const N8_C25: ClusterShape = ClusterShape {
        nodes: 8,
        cores_per_node: 25,
        slots_per_core: 2,
    };

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Transaction slots per node (`C * m`).
    pub fn slots_per_node(&self) -> usize {
        self.cores_per_node * self.slots_per_core
    }

    /// Total transaction slots in the cluster.
    pub fn total_slots(&self) -> usize {
        self.nodes * self.slots_per_node()
    }
}

impl Default for ClusterShape {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Memory-hierarchy geometry and latencies (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemParams {
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// L1 size in bytes (64 KB), associativity, and round-trip latency.
    pub l1_bytes: usize,
    /// L1 associativity (8-way).
    pub l1_ways: usize,
    /// L1 round trip (2 cycles).
    pub l1_rt: Cycles,
    /// L2 size in bytes (512 KB).
    pub l2_bytes: usize,
    /// L2 associativity (8-way).
    pub l2_ways: usize,
    /// L2 round trip (12 cycles).
    pub l2_rt: Cycles,
    /// Shared LLC size in bytes *per core* (4 MB/core).
    pub llc_bytes_per_core: usize,
    /// LLC associativity (16-way).
    pub llc_ways: usize,
    /// LLC round trip (40 cycles).
    pub llc_rt: Cycles,
    /// DRAM read/write round trip (100 ns).
    pub dram_rt: Cycles,
}

impl Default for MemParams {
    fn default() -> Self {
        MemParams {
            line_bytes: 64,
            l1_bytes: 64 << 10,
            l1_ways: 8,
            l1_rt: Cycles::new(2),
            l2_bytes: 512 << 10,
            l2_ways: 8,
            l2_rt: Cycles::new(12),
            llc_bytes_per_core: 4 << 20,
            llc_ways: 16,
            llc_rt: Cycles::new(40),
            dram_rt: Cycles::from_nanos(100),
        }
    }
}

/// Network and NIC parameters (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetParams {
    /// NIC-to-NIC RDMA round-trip latency (2 µs default).
    pub rt: Cycles,
    /// Link bandwidth in gigabits per second (200 Gb/s).
    pub bandwidth_gbps: u64,
    /// NIC processing overhead charged per message at each endpoint.
    pub nic_proc: Cycles,
}

impl NetParams {
    /// One-way latency: half the round trip.
    pub fn one_way(&self) -> Cycles {
        self.rt / 2
    }

    /// Serialization delay for a message of `bytes` at the configured
    /// bandwidth, in cycles.
    pub fn serialize(&self, bytes: usize) -> Cycles {
        // bytes * 8 bits / (gbps * 1e9 bits/s) seconds -> cycles at 2 GHz:
        // cycles = bits * 2e9 / (gbps * 1e9) = bits * 2 / gbps.
        Cycles::new((bytes as u64 * 8 * 2).div_ceil(self.bandwidth_gbps))
    }
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            rt: Cycles::from_micros(2),
            bandwidth_gbps: 200,
            nic_proc: Cycles::new(60),
        }
    }
}

/// Sizes (bits) and latencies of the HADES Bloom-filter hardware (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomParams {
    /// Core-side read BF: 1024 bits.
    pub core_read_bits: usize,
    /// Core-side write BF section 1 (CRC-hashed): 512 bits.
    pub core_write_bf1_bits: usize,
    /// Core-side write BF section 2 (LLC-index hashed): 4096 bits.
    pub core_write_bf2_bits: usize,
    /// NIC-side read BF: 1024 bits.
    pub nic_read_bits: usize,
    /// NIC-side write BF: 1024 bits.
    pub nic_write_bits: usize,
    /// Hash functions per conventional filter (calibrated to Table IV: 2).
    pub hashes: u32,
    /// Latency of one BF insert or probe.
    pub bf_op: Cycles,
    /// CRC hash-function latency (2 cycles).
    pub crc: Cycles,
    /// Latency range for finding all LLC lines tagged by a transaction
    /// (Section V-C): 80–120 cycles, uniformly distributed.
    pub find_llc_tags_min: Cycles,
    /// Upper end of the Find-LLC-Tags latency range.
    pub find_llc_tags_max: Cycles,
    /// Loading a BF pair into a directory Locking Buffer (Section V-B).
    pub lock_buffer_load: Cycles,
}

impl Default for BloomParams {
    fn default() -> Self {
        BloomParams {
            core_read_bits: 1024,
            core_write_bf1_bits: 512,
            core_write_bf2_bits: 4096,
            nic_read_bits: 1024,
            nic_write_bits: 1024,
            hashes: 2,
            bf_op: Cycles::new(2),
            crc: Cycles::new(2),
            find_llc_tags_min: Cycles::new(80),
            find_llc_tags_max: Cycles::new(120),
            lock_buffer_load: Cycles::new(30),
        }
    }
}

/// Cycle costs of the software operations performed by the FaRM-style
/// baseline (SW-Impl, Section III) and by the software half of HADES-H.
///
/// These are the calibration knobs of the reproduction: they stand in for
/// the instruction traces the paper collected with Pin. Defaults are chosen
/// so the baseline's overhead breakdown reproduces Fig 3 (59–71% of
/// execution time spent in the overhead categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwCosts {
    /// Inserting a record into the Read Set (metadata bookkeeping).
    pub rset_insert: Cycles,
    /// Inserting a record into the Write Set (entry alloc + descriptors),
    /// excluding the per-line data copy.
    pub wset_insert: Cycles,
    /// Copying one cache line of data into or out of a read/write set.
    pub set_copy_per_line: Cycles,
    /// Write-set lookup + staging when applying updates at commit,
    /// per record.
    pub wset_commit_per_record: Cycles,
    /// Updating a record's version before a write.
    pub version_update: Cycles,
    /// Read-atomicity check: comparing one cache line's version.
    pub atomicity_check_per_line: Cycles,
    /// The extra copy forced by non-zero-copy reads, per line.
    pub atomicity_copy_per_line: Cycles,
    /// Re-reading and comparing one record version during validation.
    pub validate_per_record: Cycles,
    /// Issuing a local lock or unlock (CAS) on a record.
    pub lock_local: Cycles,
    /// CPU cost of marshalling one RDMA work request (lock, read, write).
    pub rdma_issue: Cycles,
    /// Polling for the completion of an outstanding RDMA operation.
    pub rdma_poll: Cycles,
    /// Application compute per client request inside the transaction.
    pub app_per_request: Cycles,
    /// Application compute at transaction begin/end.
    pub app_per_txn: Cycles,
    /// Index traversal cost per data-structure level (hot caches assumed).
    pub index_per_level: Cycles,
}

impl Default for SwCosts {
    fn default() -> Self {
        // Calibrated so that one software KV operation costs ~2000–3500
        // cycles (~1–1.7 µs at 2 GHz), in line with measured per-operation
        // CPU costs of FaRM-class systems, and so that the Fig 3 overhead
        // fractions land in the paper's 59–71% band (see EXPERIMENTS.md).
        SwCosts {
            rset_insert: Cycles::new(350),
            wset_insert: Cycles::new(700),
            set_copy_per_line: Cycles::new(80),
            wset_commit_per_record: Cycles::new(600),
            version_update: Cycles::new(100),
            atomicity_check_per_line: Cycles::new(100),
            atomicity_copy_per_line: Cycles::new(120),
            validate_per_record: Cycles::new(400),
            lock_local: Cycles::new(200),
            rdma_issue: Cycles::new(450),
            rdma_poll: Cycles::new(250),
            app_per_request: Cycles::new(150),
            app_per_txn: Cycles::new(400),
            index_per_level: Cycles::new(25),
        }
    }
}

/// Squash/retry policy (Section VI: FaRM-style livelock avoidance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryParams {
    /// After this many squashes, a transaction falls back to pessimistic
    /// locking (acquire every lock up front, then execute).
    pub fallback_after_squashes: u32,
}

impl RetryParams {
    /// Base backoff before re-executing a squashed transaction.
    pub const BACKOFF_BASE: Cycles = Cycles::new(500);
    /// Backoff grows linearly with attempt count up to this cap.
    pub const BACKOFF_CAP: Cycles = Cycles::new(16_000);
    /// Delay before retrying an access stalled by a directory Locking
    /// Buffer. It is one delay for the whole run: that is what lets the
    /// engines keep stall re-arms on the event queue's FIFO retry lane
    /// ([`EventQueue::with_retry_delay`](crate::engine::EventQueue::with_retry_delay))
    /// in exact single-heap order.
    pub const LOCK_RETRY: Cycles = Cycles::new(60);
}

impl Default for RetryParams {
    fn default() -> Self {
        RetryParams {
            fallback_after_squashes: 8,
        }
    }
}

/// Replication, durability and failure-injection parameters (the paper's
/// Section V-A "Fault-Tolerance and Durability" outline).
///
/// With `degree > 0`, every committed write is replicated to the next
/// `degree` nodes after the record's home. Replicas persist updates to
/// temporary durable storage before Ack-ing the Intend-to-commit, and move
/// them to permanent storage on Validation — HADES' two-phase commit. A
/// lost Intend-to-commit, Ack or replica-prepare message (probability
/// `loss_probability`) makes the coordinator time out and abort; abort and
/// Validation messages ride the reliable transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationParams {
    /// Replicas per record beyond the home node (0 disables replication).
    pub degree: usize,
    /// Probability that a loss-eligible commit message is dropped.
    pub loss_probability: f64,
}

impl ReplicationParams {
    /// Latency of persisting an update to temporary durable storage
    /// (NVM-class: 1 µs).
    pub const PERSIST_LATENCY: Cycles = Cycles::from_micros(1);
    /// Coordinator abandons a commit if Acks are missing after this long.
    pub const ACK_TIMEOUT: Cycles = Cycles::from_micros(40);
}

impl Default for ReplicationParams {
    fn default() -> Self {
        ReplicationParams {
            degree: 0,
            loss_probability: 0.0,
        }
    }
}

/// Overload-robustness layer: admission control, starvation-free
/// contention management and hardware-saturation fallbacks.
///
/// Everything here defaults to **off**, and the engines consult these
/// knobs only when [`OverloadParams::enabled`] is true, so a default run
/// is byte-identical (events, RNG stream, stats JSON) to a build without
/// the layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadParams {
    /// Enables the per-node admission controller: new transaction starts
    /// are deferred while the node's recent abort rate or its Locking
    /// Buffer occupancy is past its threshold.
    pub admission: bool,
    /// Age-based priority boost: once a transaction has been squashed this
    /// many times, its backoff collapses to the base step so old
    /// transactions retry first and eventually win (0 = no boost).
    pub age_boost_after: u32,
    /// Degrade a commit that finds the Locking Buffer bank full
    /// (`NoFreeBuffer`) or its read Bloom filter saturated to the
    /// software-validation path instead of aborting it.
    pub degrade_on_saturation: bool,
    /// Read-BF occupancy (fraction of set bits) above which a commit
    /// degrades to software validation pre-emptively.
    pub bf_occupancy_threshold: f64,
}

impl OverloadParams {
    /// Admission sheds new starts while the node's recent abort rate
    /// (sliding window of the last 64 transaction outcomes) exceeds this
    /// fraction.
    pub const ABORT_RATE_THRESHOLD: f64 = 0.7;
    /// Admission sheds new starts while the node's Locking Buffer
    /// occupancy reaches this fraction of its capacity.
    pub const LOCK_OCCUPANCY_THRESHOLD: f64 = 0.75;
    /// How long a throttled start waits before re-applying for admission.
    pub const ADMIT_RETRY: Cycles = Cycles::new(2_000);

    /// A reasonable everything-on profile for overload experiments.
    pub fn aggressive() -> Self {
        OverloadParams {
            admission: true,
            // Below `retry.fallback_after_squashes` (8), so aged
            // transactions get the boosted retry before being forced onto
            // the pessimistic fallback path.
            age_boost_after: 4,
            degrade_on_saturation: true,
            bf_occupancy_threshold: 0.75,
        }
    }

    /// Whether any part of the overload layer is active.
    pub fn enabled(&self) -> bool {
        self.admission || self.degrade_on_saturation || self.age_boost_after > 0
    }
}

impl Default for OverloadParams {
    fn default() -> Self {
        OverloadParams {
            admission: false,
            age_boost_after: 0,
            degrade_on_saturation: false,
            bf_occupancy_threshold: 1.0,
        }
    }
}

/// Fabric verb batching & doorbell coalescing (DESIGN.md §14).
///
/// When enabled, fabric verbs coalesce per (src, dst) queue pair: the
/// first verb of a batch ("the leader") rings the doorbell, and verbs
/// sent on the same queue pair within the coalesce window ("joiners")
/// append to the open WQE chain and skip the receiver-side per-message
/// NIC processing. The issue cost is charged once, on the issuing core
/// (`Cluster::issue` in `hades-core`): a leader pays
/// [`SwCosts::rdma_issue`], a joiner pays [`Self::PER_VERB_CYCLES`].
/// The fabric adds no doorbell charge of its own, so a leader arrives
/// exactly when an unbatched verb would and an idle fabric sees
/// unbatched latency. Coalescing follows simulated-time order, not the
/// order in which the engines happen to schedule sends. An adaptive
/// policy grows the per-QP batch-size target while the sender has many
/// verbs in flight and drains it back to one when idle.
///
/// Everything defaults to **off**, and the fabric consults these knobs
/// only when [`BatchingParams::enabled`] is set, so a default run is
/// byte-identical (events, RNG stream, stats JSON) to a build without
/// the subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchingParams {
    /// Master switch: route fabric sends through the batching subsystem.
    pub enabled: bool,
    /// Upper bound on verbs per batch (the adaptive target's ceiling).
    pub max_batch: u32,
    /// Adaptive doorbell policy: grow the per-QP target ×2 (up to
    /// `max_batch`) while the sender has at least
    /// [`Self::HIGH_WATERMARK`] verbs in flight; drain it back to 1 at or
    /// below [`Self::LOW_WATERMARK`]. When false the target is pinned at
    /// `max_batch`.
    pub adaptive: bool,
}

impl BatchingParams {
    /// Core cycles a joiner pays to append its work request to an open
    /// WQE chain, instead of the full [`SwCosts::rdma_issue`].
    pub const PER_VERB_CYCLES: Cycles = Cycles::new(40);
    /// A batch accepts joiners for this long after its leader was sent.
    pub const COALESCE_WINDOW: Cycles = Cycles::new(2_000);
    /// Verbs in flight at or above this grows the batch target.
    pub const HIGH_WATERMARK: u32 = 6;
    /// Verbs in flight at or below this drains the target to 1.
    pub const LOW_WATERMARK: u32 = 1;

    /// The standard adaptive profile used by the `batching` sweep and the
    /// batched bench cells: up to 16 verbs per doorbell, growth at 6
    /// verbs in flight and a 1 µs coalesce window.
    pub fn standard() -> Self {
        BatchingParams {
            enabled: true,
            ..Default::default()
        }
    }

    /// A non-adaptive profile with the target pinned at `n` verbs per
    /// doorbell, for tests that need a predictable batch size.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn fixed(n: u32) -> Self {
        assert!(n > 0, "a batch holds at least one verb");
        BatchingParams {
            enabled: true,
            adaptive: false,
            max_batch: n,
        }
    }
}

impl Default for BatchingParams {
    fn default() -> Self {
        BatchingParams {
            enabled: false,
            max_batch: 16,
            adaptive: true,
        }
    }
}

/// Membership / failover layer: a cluster-wide configuration epoch driven
/// by a lease-renewal failure detector, backup promotion for partitions
/// homed at dead nodes, and epoch fencing of stale fabric verbs.
///
/// Everything defaults to **off**, and the engines consult these knobs
/// only when [`MembershipParams::enabled`] is true, so a default run is
/// byte-identical (events, RNG stream, stats JSON) to a build without the
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MembershipParams {
    /// Enables the failure detector and the whole failover path: nodes
    /// renew a membership lease every [`Self::RENEW_INTERVAL`]; a node
    /// that misses [`Self::SUSPECT_AFTER`] consecutive renewals is
    /// declared dead and a reconfiguration (epoch bump, backup promotion,
    /// hardware rebuild, in-flight commit resolution) runs on the
    /// survivors.
    pub failure_detection: bool,
    /// Partition-safe mode (DESIGN.md §16), three mechanisms that move
    /// together:
    /// - death declarations wait for an observed liveness quorum: a node
    ///   is only declared dead while a strict majority of the cluster is
    ///   still renewing on time, so a minority side freezes new epochs
    ///   instead of promoting a dueling primary;
    /// - a node whose own lease has expired refuses new commit handshakes
    ///   (squash-and-retry) until a renewal lands again, so an
    ///   isolated-but-alive primary cannot commit while a promoted backup
    ///   serves its partitions (FaRMv2-style self-fencing);
    /// - death comes only at [`Self::GRACE_FACTOR`] times the suspicion
    ///   deadline, so gray nodes degrade service before the cluster
    ///   reconfigures around them.
    ///
    /// Off by default: unilateral `mark_dead` at the suspicion deadline,
    /// bit-for-bit the behaviour from before partition tolerance.
    pub partition_safe: bool,
}

impl MembershipParams {
    /// How often each live node renews its membership lease.
    pub const RENEW_INTERVAL: Cycles = Cycles::from_micros(20);
    /// Number of missed renewal intervals before a node is suspected dead.
    pub const SUSPECT_AFTER: u64 = 3;
    /// Deadline for an execution-phase remote read, matching the commit
    /// Ack timeout. With a permanently dead home node the request simply
    /// vanishes; this timeout converts the hung fetch into a clean
    /// squash-and-retry (which re-routes to the promoted backup once the
    /// reconfiguration has run).
    pub const FETCH_TIMEOUT: Cycles = Cycles::from_micros(40);
    /// Multiplier on the suspicion deadline before a partition-safe death
    /// is declared: suspicion (service degradation, gray-node handling)
    /// starts at `SUSPECT_AFTER * RENEW_INTERVAL`, death only at this
    /// many times that. Without [`Self::partition_safe`] the factor is 1.
    pub const GRACE_FACTOR: u64 = 2;

    /// The standard failover profile used by the failover bench and tests:
    /// the failure detector on, partition-safe mode off.
    pub fn standard() -> Self {
        MembershipParams {
            failure_detection: true,
            partition_safe: false,
        }
    }

    /// The partition-safe profile (DESIGN.md §16): the standard detector
    /// plus [`Self::partition_safe`] mode.
    pub fn partition_safe() -> Self {
        MembershipParams {
            partition_safe: true,
            ..MembershipParams::standard()
        }
    }

    /// Whether the membership layer is active.
    pub fn enabled(&self) -> bool {
        self.failure_detection
    }
}

/// Planned reconfiguration: live shard migration under traffic
/// (DESIGN.md §15).
///
/// A migration plan moves one or more partitions from their live home to
/// a live destination at a scheduled sim time, in four phases: announce
/// (epoch bump opening a dual-routing window), copy (records plus NIC
/// Bloom-filter state stream to the destination in bounded chunks
/// interleaved with foreground traffic), catch-up (writes landing at the
/// source during the copy are forwarded), and cutover (an epoch-fenced
/// flip of the partition map that fences-and-retries only the in-flight
/// commit handshakes straddling the flip).
///
/// Everything defaults to **off** (an empty plan), and the engines
/// consult these knobs only when [`MigrationParams::enabled`] is true, so
/// a default run is byte-identical (events, RNG stream, stats JSON) to a
/// build without the subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationParams {
    /// The plan: `(partition, destination node)` pairs. All moves start
    /// at [`Self::START_AT`] and copy concurrently. An empty plan
    /// disables the subsystem entirely.
    pub moves: Vec<(u16, u16)>,
    /// Pacing between consecutive chunk sends of one move.
    pub chunk_interval: Cycles,
}

impl MigrationParams {
    /// Sim time at which the announce phase runs (epoch bump + first
    /// copy chunk scheduled).
    pub const START_AT: Cycles = Cycles::from_micros(40);
    /// Records transferred per copy chunk (bounds the per-chunk fabric
    /// transfer so foreground traffic interleaves with the copy).
    pub const CHUNK_RECORDS: u64 = 64;
    /// Total records per partition assumed by the copy-phase model. The
    /// simulator stores records in one global `Database`, so the copy is
    /// modeled as timed chunk transfers over the fabric.
    pub const PARTITION_RECORDS: u64 = 512;
    /// Copy chunks per move: the partition splits into whole chunks.
    pub const CHUNKS_PER_MOVE: u64 = Self::PARTITION_RECORDS / Self::CHUNK_RECORDS;
    /// Dual-routing window: after the last chunk lands, the source keeps
    /// forwarding writes to the destination for this long before the
    /// cutover flips the partition map.
    pub const DUAL_WINDOW: Cycles = Cycles::from_micros(10);

    /// The standard rebalance profile used by the `rebalance` sweep and
    /// tests: `moves` with 2 µs chunk pacing.
    pub fn standard(moves: Vec<(u16, u16)>) -> Self {
        MigrationParams {
            moves,
            ..Default::default()
        }
    }

    /// Whether the migration subsystem is active.
    pub fn enabled(&self) -> bool {
        !self.moves.is_empty()
    }
}

const _: () = assert!(MigrationParams::PARTITION_RECORDS % MigrationParams::CHUNK_RECORDS == 0);

impl Default for MigrationParams {
    fn default() -> Self {
        MigrationParams {
            moves: Vec::new(),
            chunk_interval: Cycles::from_micros(2),
        }
    }
}

/// Complete simulator configuration.
///
/// # Examples
///
/// ```
/// use hades_sim::config::SimConfig;
///
/// let cfg = SimConfig::isca_default();
/// assert_eq!(cfg.shape.total_cores(), 25);
/// assert_eq!(cfg.net.rt.as_micros(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cluster shape (N, C, m).
    pub shape: ClusterShape,
    /// Memory hierarchy parameters.
    pub mem: MemParams,
    /// Network parameters.
    pub net: NetParams,
    /// Bloom-filter hardware parameters.
    pub bloom: BloomParams,
    /// Software cost model for the baseline / HADES-H local path.
    pub sw: SwCosts,
    /// Squash/retry policy.
    pub retry: RetryParams,
    /// Replication / durability / failure injection (Section V-A outline).
    pub repl: ReplicationParams,
    /// If set, overrides record placement so each request targets the local
    /// node with this probability (Fig 12b); otherwise placement is the
    /// uniform static partition of Section VII (local fraction = 1/N).
    pub local_fraction: Option<f64>,
    /// If set, every core context-switches at this interval: the Module 1
    /// filter bits in the private caches are cleared (the next access to
    /// each line goes back to the directory), but the Bloom filters and
    /// `WrTX_ID` tags survive, so in-flight transactions are *not*
    /// squashed (Section VI, "Supporting Context Switches").
    pub context_switch_interval: Option<Cycles>,
    /// RNG seed for the simulator core (latency jitter, backoff).
    pub seed: u64,
    /// Overload-robustness layer (admission control, contention
    /// management, saturation fallbacks). Off by default.
    pub overload: OverloadParams,
    /// Membership / failover layer (configuration epochs, backup
    /// promotion, epoch fencing). Off by default.
    pub membership: MembershipParams,
    /// Planned reconfiguration: live shard migration (DESIGN.md §15).
    /// Off by default (empty plan); a disabled plan draws no RNG, emits
    /// no events and changes no stats.
    pub migration: MigrationParams,
    /// Fabric verb batching & doorbell coalescing (DESIGN.md §14). Off by
    /// default; a disabled batcher draws no RNG, emits no events and
    /// changes no stats.
    pub batching: BatchingParams,
    /// Locking Buffer bank capacity per node. `None` keeps the historical
    /// sizing (`shape.total_slots().max(4)`, which never saturates);
    /// `Some(n)` models a capacity-starved bank that can return
    /// `NoFreeBuffer` under commit pressure.
    pub lock_buffer_slots: Option<usize>,
    /// Enables the phase profiler: per-transaction sim-time attribution to
    /// execution / lock / validate / commit / replication / backoff phases
    /// plus per-verb fabric time, surfaced as a `profile` block in the run
    /// stats (DESIGN.md §12). Off by default; a disabled profiler draws no
    /// RNG, emits no events and changes no stats.
    pub profile: bool,
    /// Enables causal transaction spans: per-transaction segment lists,
    /// verb rounds, and abort causes feeding the tail-latency analyzer
    /// (`tail` block in the run stats, DESIGN.md §13). Off by default;
    /// a disabled span log draws no RNG, emits no events and changes no
    /// stats.
    pub spans: bool,
    /// If set, enables windowed time-series metrics with this window
    /// length: per-node throughput, windowed p99, hardware occupancy,
    /// and overload/failover event counts per fixed sim-time window
    /// (`timeseries` block in the run stats, DESIGN.md §13). Off by
    /// default with the same zero-cost-when-off guarantee.
    pub timeseries_window: Option<Cycles>,
}

impl SimConfig {
    /// The paper's default configuration (Table III).
    pub fn isca_default() -> Self {
        SimConfig {
            shape: ClusterShape::DEFAULT,
            mem: MemParams::default(),
            net: NetParams::default(),
            bloom: BloomParams::default(),
            sw: SwCosts::default(),
            retry: RetryParams::default(),
            repl: ReplicationParams::default(),
            local_fraction: None,
            context_switch_interval: None,
            seed: DEFAULT_SEED,
            overload: OverloadParams::default(),
            membership: MembershipParams::default(),
            migration: MigrationParams::default(),
            batching: BatchingParams::default(),
            lock_buffer_slots: None,
            profile: false,
            spans: false,
            timeseries_window: None,
        }
    }

    /// Same configuration with a different cluster shape.
    pub fn with_shape(mut self, shape: ClusterShape) -> Self {
        self.shape = shape;
        self
    }

    /// Same configuration with a different network round trip.
    pub fn with_net_rt(mut self, rt: Cycles) -> Self {
        self.net.rt = rt;
        self
    }

    /// Same configuration with a forced local-request fraction (Fig 12b).
    pub fn with_local_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "local fraction {f} out of range");
        self.local_fraction = Some(f);
        self
    }

    /// Same configuration with `degree` replicas per record (Section V-A).
    pub fn with_replication(mut self, degree: usize) -> Self {
        self.repl.degree = degree;
        self
    }

    /// Same configuration with commit-message loss probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_message_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} out of range"
        );
        self.repl.loss_probability = p;
        self
    }

    /// Same configuration with periodic context switches on every core
    /// (Section VI).
    pub fn with_context_switches(mut self, interval: Cycles) -> Self {
        assert!(
            interval.get() > 0,
            "context-switch interval must be nonzero"
        );
        self.context_switch_interval = Some(interval);
        self
    }

    /// Same configuration with a different RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same configuration with the overload-robustness layer configured.
    pub fn with_overload(mut self, overload: OverloadParams) -> Self {
        self.overload = overload;
        self
    }

    /// Same configuration with the membership / failover layer configured.
    pub fn with_membership(mut self, membership: MembershipParams) -> Self {
        self.membership = membership;
        self
    }

    /// Same configuration with a live shard-migration plan installed
    /// (DESIGN.md §15).
    pub fn with_migration(mut self, migration: MigrationParams) -> Self {
        self.migration = migration;
        self
    }

    /// Same configuration with the verb-batching subsystem configured
    /// (DESIGN.md §14).
    pub fn with_batching(mut self, batching: BatchingParams) -> Self {
        self.batching = batching;
        self
    }

    /// Same configuration with an explicit Locking Buffer bank capacity
    /// per node (models hardware-structure saturation).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero: a node needs at least one buffer.
    pub fn with_lock_buffer_slots(mut self, slots: usize) -> Self {
        assert!(slots > 0, "a Locking Buffer bank needs at least one slot");
        self.lock_buffer_slots = Some(slots);
        self
    }

    /// Same configuration with the phase profiler enabled (DESIGN.md §12).
    pub fn with_profiling(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Same configuration with causal transaction spans enabled
    /// (DESIGN.md §13).
    pub fn with_spans(mut self) -> Self {
        self.spans = true;
        self
    }

    /// Same configuration with windowed time-series metrics enabled at
    /// the given window length (DESIGN.md §13).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_timeseries(mut self, window: Cycles) -> Self {
        assert!(window.get() > 0, "time-series window must be nonzero");
        self.timeseries_window = Some(window);
        self
    }

    /// Total LLC capacity of one node, in bytes.
    pub fn llc_bytes(&self) -> usize {
        self.mem.llc_bytes_per_core * self.shape.cores_per_node
    }

    /// The fraction of requests expected to target the issuing node.
    pub fn effective_local_fraction(&self) -> f64 {
        self.local_fraction.unwrap_or(1.0 / self.shape.nodes as f64)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::isca_default()
    }
}

/// Default RNG seed ("HADES!" in ASCII-flavored hex).
pub const DEFAULT_SEED: u64 = 0x4841_4445_5321_0001;
