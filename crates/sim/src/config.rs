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
    /// Base backoff before re-executing a squashed transaction.
    pub backoff_base: Cycles,
    /// Backoff grows linearly with attempt count up to this cap.
    pub backoff_cap: Cycles,
    /// Delay before retrying an access stalled by a directory Locking
    /// Buffer. It is one delay for the whole run: that is what lets the
    /// engines keep stall re-arms on the event queue's FIFO retry lane
    /// ([`EventQueue::with_retry_delay`](crate::engine::EventQueue::with_retry_delay))
    /// in exact single-heap order.
    pub lock_retry: Cycles,
}

impl Default for RetryParams {
    fn default() -> Self {
        RetryParams {
            fallback_after_squashes: 8,
            backoff_base: Cycles::new(500),
            backoff_cap: Cycles::new(16_000),
            lock_retry: Cycles::new(60),
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
    /// Latency of persisting an update to temporary durable storage
    /// (NVM-class by default: 1 µs).
    pub persist_latency: Cycles,
    /// Coordinator abandons a commit if Acks are missing after this long.
    pub ack_timeout: Cycles,
    /// Probability that a loss-eligible commit message is dropped.
    pub loss_probability: f64,
}

impl Default for ReplicationParams {
    fn default() -> Self {
        ReplicationParams {
            degree: 0,
            persist_latency: Cycles::from_micros(1),
            ack_timeout: Cycles::from_micros(40),
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
    /// are deferred while the node is over its in-flight bound, its recent
    /// abort rate, or its Locking Buffer occupancy threshold.
    pub admission: bool,
    /// Maximum concurrently running transactions per node (0 = bound only
    /// by the slot count). At least one transaction per node is always
    /// admitted, so admission can never deadlock a node.
    pub max_inflight_per_node: usize,
    /// Shed new starts while the node's recent abort rate (sliding window
    /// of the last 64 transaction outcomes) exceeds this fraction.
    pub abort_rate_threshold: f64,
    /// Shed new starts while the node's Locking Buffer occupancy exceeds
    /// this fraction of its capacity.
    pub lock_occupancy_threshold: f64,
    /// How long a throttled start waits before re-applying for admission.
    pub admit_retry: Cycles,
    /// Per-transaction retry budget: after this many consecutive squashes
    /// the transaction is forced onto the pessimistic-fallback path even
    /// if `retry.fallback_after_squashes` is larger (0 = no extra cap).
    pub retry_budget: u32,
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
    /// A reasonable everything-on profile for overload experiments.
    pub fn aggressive() -> Self {
        OverloadParams {
            admission: true,
            max_inflight_per_node: 0,
            abort_rate_threshold: 0.7,
            lock_occupancy_threshold: 0.75,
            admit_retry: Cycles::new(2_000),
            retry_budget: 16,
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
        self.admission
            || self.degrade_on_saturation
            || self.retry_budget > 0
            || self.age_boost_after > 0
    }
}

impl Default for OverloadParams {
    fn default() -> Self {
        OverloadParams {
            admission: false,
            max_inflight_per_node: 0,
            abort_rate_threshold: 1.0,
            lock_occupancy_threshold: 1.0,
            admit_retry: Cycles::new(2_000),
            retry_budget: 0,
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
/// [`SwCosts::rdma_issue`], a joiner pays [`Self::per_verb_cycles`].
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
    /// `max_batch`) while the sender has at least `high_watermark` verbs
    /// in flight; drain it back to 1 at or below `low_watermark`. When
    /// false the target is pinned at `max_batch`.
    pub adaptive: bool,
    /// Core cycles a joiner pays to append its work request to an open
    /// WQE chain, instead of the full [`SwCosts::rdma_issue`].
    pub per_verb_cycles: Cycles,
    /// A batch accepts joiners for this long after its leader was sent.
    pub coalesce_window: Cycles,
    /// Verbs in flight at or above this grows the batch target.
    pub high_watermark: u32,
    /// Verbs in flight at or below this drains the target to 1.
    pub low_watermark: u32,
}

impl BatchingParams {
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
            ..Default::default()
        }
    }
}

impl Default for BatchingParams {
    fn default() -> Self {
        BatchingParams {
            enabled: false,
            max_batch: 16,
            adaptive: true,
            per_verb_cycles: Cycles::new(40),
            coalesce_window: Cycles::new(2_000),
            high_watermark: 6,
            low_watermark: 1,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipParams {
    /// Enables the failure detector and the whole failover path: nodes
    /// renew a membership lease every `renew_interval`; a node that misses
    /// `suspect_after` consecutive renewals is declared dead and a
    /// reconfiguration (epoch bump, backup promotion, hardware rebuild,
    /// in-flight commit resolution) runs on the survivors.
    pub failure_detection: bool,
    /// How often each live node renews its membership lease.
    pub renew_interval: Cycles,
    /// Number of missed renewal intervals before a node is suspected dead.
    pub suspect_after: u32,
    /// Deadline for an execution-phase remote read. With a permanently
    /// dead home node the request simply vanishes; this timeout converts
    /// the hung fetch into a clean squash-and-retry (which re-routes to
    /// the promoted backup once the reconfiguration has run).
    pub fetch_timeout: Cycles,
    /// Gates death declarations on an observed liveness quorum: a node is
    /// only declared dead while a strict majority of the cluster is still
    /// renewing on time. A minority side freezes new epochs instead of
    /// promoting a dueling primary (DESIGN.md §16). Off by default —
    /// legacy unilateral `mark_dead` behavior is preserved bit-for-bit.
    pub quorum: bool,
    /// Makes a node whose own lease has expired refuse new commit
    /// handshakes (squash-and-retry) until a renewal lands again, so an
    /// isolated-but-alive primary cannot commit while a promoted backup
    /// serves its partitions (FaRMv2-style self-fencing). Off by default.
    pub self_fence: bool,
    /// Multiplier on the suspicion deadline before a quorum-mode death is
    /// declared: suspicion (service degradation, gray-node handling)
    /// starts at `suspect_after * renew_interval`, death only at
    /// `grace_factor` times that. 1 = declare at the suspicion deadline.
    pub grace_factor: u32,
}

impl MembershipParams {
    /// The standard failover profile used by the failover bench and tests:
    /// 20 µs renewals, suspicion after 3 missed renewals, 40 µs fetch
    /// deadline (matching the commit Ack timeout).
    pub fn standard() -> Self {
        MembershipParams {
            failure_detection: true,
            renew_interval: Cycles::from_micros(20),
            suspect_after: 3,
            fetch_timeout: Cycles::from_micros(40),
            quorum: false,
            self_fence: false,
            grace_factor: 1,
        }
    }

    /// The partition-safe profile (DESIGN.md §16): the standard detector
    /// plus quorum-gated death declarations, self-fencing on lease
    /// expiry, and a 2x suspicion-to-death grace window so gray nodes
    /// degrade service before the cluster reconfigures around them.
    pub fn partition_safe() -> Self {
        MembershipParams {
            quorum: true,
            self_fence: true,
            grace_factor: 2,
            ..MembershipParams::standard()
        }
    }

    /// Whether the membership layer is active.
    pub fn enabled(&self) -> bool {
        self.failure_detection
    }
}

impl Default for MembershipParams {
    fn default() -> Self {
        MembershipParams {
            failure_detection: false,
            renew_interval: Cycles::from_micros(20),
            suspect_after: 3,
            fetch_timeout: Cycles::from_micros(40),
            quorum: false,
            self_fence: false,
            grace_factor: 1,
        }
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
    /// at `start_at` and copy concurrently. An empty plan disables the
    /// subsystem entirely.
    pub moves: Vec<(u16, u16)>,
    /// Sim time at which the announce phase runs (epoch bump + first
    /// copy chunk scheduled).
    pub start_at: Cycles,
    /// Records transferred per copy chunk (bounds the per-chunk fabric
    /// transfer so foreground traffic interleaves with the copy).
    pub chunk_records: u64,
    /// Total records per partition assumed by the copy-phase model; the
    /// number of chunks is `partition_records / chunk_records` (at least
    /// one). The simulator stores records in one global `Database`, so
    /// the copy is modeled as timed chunk transfers over the fabric.
    pub partition_records: u64,
    /// Pacing between consecutive chunk sends of one move.
    pub chunk_interval: Cycles,
    /// Dual-routing window: after the last chunk lands, the source keeps
    /// forwarding writes to the destination for this long before the
    /// cutover flips the partition map.
    pub dual_window: Cycles,
}

impl MigrationParams {
    /// The standard rebalance profile used by the `rebalance` sweep and
    /// tests: copy starts at 40 µs, 64-record chunks out of a modeled
    /// 512-record partition, 2 µs chunk pacing, 10 µs dual-routing
    /// window before the cutover.
    pub fn standard(moves: Vec<(u16, u16)>) -> Self {
        MigrationParams {
            moves,
            start_at: Cycles::from_micros(40),
            chunk_records: 64,
            partition_records: 512,
            chunk_interval: Cycles::from_micros(2),
            dual_window: Cycles::from_micros(10),
        }
    }

    /// Whether the migration subsystem is active.
    pub fn enabled(&self) -> bool {
        !self.moves.is_empty()
    }

    /// Copy chunks per move (at least one when enabled).
    pub fn chunks_per_move(&self) -> u64 {
        self.partition_records
            .div_ceil(self.chunk_records.max(1))
            .max(1)
    }
}

impl Default for MigrationParams {
    fn default() -> Self {
        MigrationParams {
            moves: Vec::new(),
            start_at: Cycles::from_micros(40),
            chunk_records: 64,
            partition_records: 512,
            chunk_interval: Cycles::from_micros(2),
            dual_window: Cycles::from_micros(10),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii() {
        let c = SimConfig::isca_default();
        assert_eq!(c.shape.nodes, 5);
        assert_eq!(c.shape.cores_per_node, 5);
        assert_eq!(c.shape.slots_per_core, 2);
        assert_eq!(c.mem.l1_rt, Cycles::new(2));
        assert_eq!(c.mem.l2_rt, Cycles::new(12));
        assert_eq!(c.mem.llc_rt, Cycles::new(40));
        assert_eq!(c.mem.dram_rt, Cycles::from_nanos(100));
        assert_eq!(c.net.rt, Cycles::from_micros(2));
        assert_eq!(c.net.bandwidth_gbps, 200);
        assert_eq!(c.bloom.core_read_bits, 1024);
        assert_eq!(c.bloom.core_write_bf1_bits, 512);
        assert_eq!(c.bloom.core_write_bf2_bits, 4096);
        assert_eq!(c.bloom.nic_read_bits, 1024);
        assert_eq!(c.bloom.nic_write_bits, 1024);
    }

    #[test]
    fn llc_scales_with_cores() {
        let c = SimConfig::isca_default();
        assert_eq!(c.llc_bytes(), 20 << 20); // 4 MB x 5 cores
        let big = c.with_shape(ClusterShape::N8_C25);
        assert_eq!(big.llc_bytes(), 100 << 20);
    }

    #[test]
    fn shapes_match_section_vii() {
        assert_eq!(ClusterShape::DEFAULT.total_cores(), 25);
        assert_eq!(ClusterShape::N10_C5.total_cores(), 50);
        assert_eq!(ClusterShape::N5_C10.total_cores(), 50);
        assert_eq!(ClusterShape::N8_C25.total_cores(), 200);
        assert_eq!(ClusterShape::DEFAULT.total_slots(), 50);
    }

    #[test]
    fn serialization_delay() {
        let n = NetParams::default();
        // 64-byte line at 200 Gb/s: 64*8/200e9 s = 2.56 ns -> ~6 cycles.
        assert_eq!(n.serialize(64), Cycles::new(6));
        assert_eq!(n.one_way(), Cycles::from_micros(1));
    }

    #[test]
    fn local_fraction_default_is_one_over_n() {
        let c = SimConfig::isca_default();
        assert!((c.effective_local_fraction() - 0.2).abs() < 1e-12);
        let c = c.with_local_fraction(0.8);
        assert_eq!(c.effective_local_fraction(), 0.8);
    }

    #[test]
    fn replication_defaults_off() {
        let c = SimConfig::isca_default();
        assert_eq!(c.repl.degree, 0);
        assert_eq!(c.repl.loss_probability, 0.0);
        let c = c.with_replication(2).with_message_loss(0.05);
        assert_eq!(c.repl.degree, 2);
        assert!((c.repl.loss_probability - 0.05).abs() < 1e-12);
        assert_eq!(c.repl.persist_latency, Cycles::from_micros(1));
    }

    #[test]
    fn overload_defaults_off() {
        let c = SimConfig::isca_default();
        assert!(!c.overload.enabled());
        assert_eq!(c.lock_buffer_slots, None);
        let c = c
            .with_overload(OverloadParams::aggressive())
            .with_lock_buffer_slots(1);
        assert!(c.overload.enabled());
        assert_eq!(c.lock_buffer_slots, Some(1));
    }

    #[test]
    fn overload_enabled_by_any_knob() {
        assert!(!OverloadParams::default().enabled());
        let boosted = OverloadParams {
            age_boost_after: 4,
            ..Default::default()
        };
        assert!(boosted.enabled());
        let degrading = OverloadParams {
            degrade_on_saturation: true,
            ..Default::default()
        };
        assert!(degrading.enabled());
    }

    #[test]
    fn membership_defaults_off() {
        let c = SimConfig::isca_default();
        assert!(!c.membership.enabled());
        assert!(!MembershipParams::default().enabled());
        let c = c.with_membership(MembershipParams::standard());
        assert!(c.membership.enabled());
        assert_eq!(c.membership.suspect_after, 3);
        assert_eq!(c.membership.renew_interval, Cycles::from_micros(20));
    }

    #[test]
    fn migration_defaults_off() {
        let c = SimConfig::isca_default();
        assert!(!c.migration.enabled());
        assert!(!MigrationParams::default().enabled());
        let c = c.with_migration(MigrationParams::standard(vec![(2, 0)]));
        assert!(c.migration.enabled());
        assert_eq!(c.migration.moves, vec![(2, 0)]);
        assert_eq!(c.migration.chunks_per_move(), 8);
    }

    #[test]
    fn migration_chunk_count_rounds_up() {
        let mut m = MigrationParams::standard(vec![(1, 3)]);
        m.partition_records = 100;
        m.chunk_records = 64;
        assert_eq!(m.chunks_per_move(), 2);
        m.chunk_records = 0; // degenerate: clamped to one record per chunk
        assert_eq!(m.chunks_per_move(), 100);
        m.partition_records = 0;
        assert_eq!(m.chunks_per_move(), 1);
    }

    #[test]
    fn batching_defaults_off() {
        let c = SimConfig::isca_default();
        assert!(!c.batching.enabled);
        assert!(!BatchingParams::default().enabled);
        let c = c.with_batching(BatchingParams::standard());
        assert!(c.batching.enabled);
        assert!(c.batching.adaptive);
        assert_eq!(c.batching.max_batch, 16);
        assert!(c.batching.high_watermark > c.batching.low_watermark);
    }

    #[test]
    fn fixed_batching_pins_the_target() {
        let p = BatchingParams::fixed(1);
        assert!(p.enabled);
        assert!(!p.adaptive);
        assert_eq!(p.max_batch, 1);
        assert_eq!(BatchingParams::fixed(8).max_batch, 8);
    }

    #[test]
    #[should_panic(expected = "at least one verb")]
    fn rejects_zero_batch_size() {
        let _ = BatchingParams::fixed(0);
    }

    #[test]
    fn profiling_defaults_off() {
        let c = SimConfig::isca_default();
        assert!(!c.profile);
        assert!(c.with_profiling().profile);
    }

    #[test]
    fn observability_defaults_off() {
        let c = SimConfig::isca_default();
        assert!(!c.spans);
        assert!(c.timeseries_window.is_none());
        let c = c.with_spans().with_timeseries(Cycles::from_micros(50));
        assert!(c.spans);
        assert_eq!(c.timeseries_window, Some(Cycles::from_micros(50)));
    }

    #[test]
    #[should_panic(expected = "window must be nonzero")]
    fn rejects_zero_timeseries_window() {
        let _ = SimConfig::isca_default().with_timeseries(Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn rejects_zero_lock_buffer_slots() {
        let _ = SimConfig::isca_default().with_lock_buffer_slots(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_message_loss() {
        let _ = SimConfig::isca_default().with_message_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_local_fraction() {
        let _ = SimConfig::isca_default().with_local_fraction(1.5);
    }
}
