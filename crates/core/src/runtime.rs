//! Shared runtime for the three protocol simulators: cluster state, core
//! scheduling, transaction resolution, workload binding and measurement.

use crate::membership::Membership;
use crate::overload::AdmissionController;
use crate::stats::{MigrationStats, NemesisStats, RunStats};
use hades_bloom::LockingBuffers;
use hades_fault::{FaultInjector, FaultPlan};
use hades_mem::hierarchy::NodeMemory;
use hades_net::batch::{Batcher, Doorbell};
use hades_net::fabric::{wire_size, Arrivals, Fabric, SendReport};
use hades_net::nic::{Nic, RemoteTxKey};
use hades_sim::backoff::BackoffPolicy;
use hades_sim::config::{BatchingParams, MigrationParams, RetryParams, SimConfig};
use hades_sim::ids::{CoreId, NodeId, SlotId};
use hades_sim::rng::SimRng;
use hades_sim::time::Cycles;
use hades_storage::db::Database;
use hades_storage::record::RecordId;
use hades_telemetry::event::{
    EventKind, InjectedFault, Phase as TracePhase, Verb, VerbCounts, NO_SLOT,
};
use hades_telemetry::observer::TxnObserver;
use hades_telemetry::profile::{PhaseProfile, ProfPhase};
use hades_telemetry::sink::Tracer;
use hades_telemetry::span::SpanLog;
use hades_telemetry::timeseries::{Occupancy, TimeSeries};
use hades_workloads::spec::{OpKind, TxnSpec, Workload};
use std::rc::Rc;

/// Encodes a slot's identity as the opaque owner token used for record
/// locks and directory Locking Buffers.
pub fn owner_token(node: NodeId, slot: SlotId) -> u64 {
    ((node.0 as u64) << 32) | slot.0 as u64
}

/// Where a planned reconfiguration currently stands (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MigPhase {
    /// Scheduled but not yet announced.
    Pending,
    /// Announced; record chunks are streaming to the destinations.
    Copying,
    /// All chunks shipped; the dual-routing window drains catch-up
    /// forwards before the cutover.
    CatchUp,
    /// Cut over; the moves are complete.
    Done,
}

/// Engine-agnostic state of a planned live migration: the moves, how far
/// the copy has progressed, and the accumulated counters.
#[derive(Debug)]
struct MigrationRun {
    phase: MigPhase,
    moves: Vec<(NodeId, NodeId)>,
    rounds_sent: u64,
    stats: MigrationStats,
}

/// What the protocol engine must do after a migration tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationAction {
    /// Re-arm the migration tick at the given time.
    Rearm(Cycles),
    /// Fence in-flight commit handshakes touching the listed moves'
    /// source partitions, then call
    /// [`Cluster::finish_cutover`] with the fenced keys.
    Cutover(Vec<(NodeId, NodeId)>),
    /// Migration finished (or never configured); nothing to schedule.
    Done,
}

/// A verb a core marshals and posts itself; see [`Cluster::issue`].
#[derive(Debug, Clone, Copy)]
pub struct CoreVerb {
    /// Issuing node.
    pub node: NodeId,
    /// Issuing core.
    pub core: CoreId,
    /// Destination node.
    pub dst: NodeId,
    /// Wire size in bytes.
    pub bytes: usize,
    /// Protocol meaning.
    pub verb: Verb,
    /// Work requests the verb posts; each pays the issue cost (Baseline's
    /// Lock posts one CAS per record).
    pub wrs: u64,
    /// Send past the fault injector ([`Cluster::send_fault_exempt`])
    /// rather than through the fault plane ([`Cluster::send`]). A verb
    /// sent through the fault plane must be Retransmit-class: `issue`
    /// returns its one arrival.
    pub fault_exempt: bool,
}

/// What [`Cluster::issue`] did.
#[derive(Debug, Clone, Copy)]
pub struct Issued {
    /// When the core finished issuing: the verb's departure.
    pub depart: Cycles,
    /// Arrival at the destination NIC.
    pub arrival: Cycles,
    /// Issue cost charged on the core.
    pub cost: Cycles,
}

/// An access denied by a Locking Buffer, remembered across its retries:
/// the bank that denied it, that bank's
/// [`generation`](LockingBuffers::generation) at the probe, and the
/// blocking holder. See `Cluster::lock_stall` and `Cluster::stall_holds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// Node whose directory bank denied the access.
    pub(crate) node: NodeId,
    /// The bank's generation when it was probed.
    pub(crate) generation: u64,
    /// Owner token of the blocking holder.
    pub(crate) holder: u64,
}

/// The physical cluster: memories, NICs, fabric, directory lock buffers and
/// per-core occupancy.
#[derive(Debug)]
pub struct Cluster {
    /// Full configuration (Table III).
    pub cfg: SimConfig,
    /// The shared database (records + indexes).
    pub db: Database,
    /// One memory hierarchy per node.
    pub mems: Vec<NodeMemory>,
    /// The network fabric.
    pub fabric: Fabric,
    /// One SmartNIC per node.
    pub nics: Vec<Nic>,
    /// Directory Locking Buffers per node (Section V-B).
    pub lock_bufs: Vec<LockingBuffers>,
    /// Simulator-core RNG (latency jitter, backoff).
    pub rng: SimRng,
    /// The installed trace sink (disabled by default); engines clone it
    /// to stamp transaction-lifecycle events.
    pub tracer: Tracer,
    /// Per-node admission control (inert unless enabled in the config).
    pub admission: AdmissionController,
    /// Cluster membership view: configuration epoch, liveness, primary
    /// map, epoch-fence stats (inert unless enabled in the config).
    pub membership: Membership,
    /// The per-slot transaction observer behind the phase profile and
    /// the span log (`Some` only when `cfg.profile` or `cfg.spans` is
    /// set). The engines drive it through the `obs_*` wrappers; the
    /// cluster itself records per-verb fabric time at the send wrappers.
    /// Boxed so the disabled path carries one pointer.
    observer: Option<Box<TxnObserver>>,
    /// Windowed time-series metrics (`Some` only when
    /// `cfg.timeseries_window` is set). Rolled lazily from the `obs_*`
    /// wrappers with hardware-occupancy snapshots.
    pub timeseries: Option<Box<TimeSeries>>,
    /// Messages sent per source node, by verb (whole run) — the
    /// per-node counterpart of the fabric's aggregate verb counters.
    pub verbs_by_node: Vec<VerbCounts>,
    /// Planned-reconfiguration state (`Some` only when
    /// `cfg.migration` schedules moves). Driven by the engines via
    /// [`Cluster::migration_step`].
    migration: Option<MigrationRun>,
    core_free: Vec<Vec<Cycles>>,
}

impl Cluster {
    /// Builds the cluster for `cfg` around an already-loaded database.
    ///
    /// # Panics
    ///
    /// Panics if the database was partitioned for a different node count.
    pub fn new(cfg: SimConfig, db: Database) -> Self {
        assert_eq!(
            db.nodes(),
            cfg.shape.nodes,
            "database partitioned for a different cluster"
        );
        let n = cfg.shape.nodes;
        let mems: Vec<NodeMemory> = (0..n)
            .map(|_| NodeMemory::new(&cfg.mem, cfg.shape.cores_per_node))
            .collect();
        let nics = (0..n).map(|_| Nic::new(&cfg.bloom)).collect();
        // Capacity for every transaction slot in the cluster: the paper's
        // hardware has "multiple Locking Buffers"; sizing for the worst
        // case keeps NoFreeBuffer squashes out of the common path. An
        // explicit `lock_buffer_slots` models a capacity-starved bank.
        let bank_slots = cfg
            .lock_buffer_slots
            .unwrap_or_else(|| cfg.shape.total_slots().max(4));
        let bank_changes = Rc::default();
        let lock_bufs = (0..n)
            .map(|_| {
                let mut bufs = LockingBuffers::new(bank_slots);
                bufs.count_changes_on(Rc::clone(&bank_changes));
                bufs
            })
            .collect();
        let mut fabric = Fabric::new(cfg.net, n);
        // Legacy loss knob: a non-zero `repl.loss_probability` becomes a
        // commit-handshake-loss FaultPlan so all engines share one path.
        if cfg.repl.loss_probability > 0.0 {
            fabric.install_injector(FaultInjector::new(FaultPlan::from_loss(
                cfg.repl.loss_probability,
                cfg.seed,
            )));
        }
        if cfg.batching.enabled {
            fabric.install_batcher(Batcher::new(cfg.batching, cfg.net, n));
        }
        let core_free = vec![vec![Cycles::ZERO; cfg.shape.cores_per_node]; n];
        let rng = SimRng::seed_from(cfg.seed);
        let admission = AdmissionController::new(cfg.overload, n);
        let mut membership = Membership::new(cfg.membership, n);
        let migration = if cfg.migration.enabled() {
            let moves: Vec<(NodeId, NodeId)> = cfg
                .migration
                .moves
                .iter()
                .map(|&(s, d)| (NodeId(s), NodeId(d)))
                .collect();
            let mut srcs: Vec<u16> = Vec::with_capacity(moves.len());
            for &(src, dst) in &moves {
                assert_ne!(src, dst, "migration move must change nodes");
                assert!(
                    (src.0 as usize) < n && (dst.0 as usize) < n,
                    "migration move references a node outside the cluster"
                );
                assert!(
                    !srcs.contains(&src.0),
                    "partition {} scheduled to move twice",
                    src.0
                );
                srcs.push(src.0);
            }
            // Epoch-aware commit entry from cycle zero: slots stamp their
            // start epoch and the cutover can tell migration bumps from
            // crash bumps (see `Membership::death_since`).
            membership.activate_migration();
            Some(MigrationRun {
                phase: MigPhase::Pending,
                moves,
                rounds_sent: 0,
                stats: MigrationStats::default(),
            })
        } else {
            None
        };
        let observer = (cfg.profile || cfg.spans).then(|| {
            Box::new(TxnObserver::new(
                cfg.shape.total_slots(),
                cfg.profile,
                cfg.spans,
            ))
        });
        let timeseries = cfg
            .timeseries_window
            .map(|w| Box::new(TimeSeries::new(w, n)));
        Cluster {
            cfg,
            db,
            mems,
            fabric,
            nics,
            lock_bufs,
            rng,
            tracer: Tracer::disabled(),
            admission,
            membership,
            observer,
            timeseries,
            verbs_by_node: vec![VerbCounts::new(); n],
            migration,
            core_free,
        }
    }

    /// Installs a trace sink across every traced component: the fabric
    /// (verb events), each NIC (Bloom filter events), each node's Locking
    /// Buffers (lock events), and the cluster itself (transaction
    /// lifecycle events emitted by the protocol engines).
    pub fn install_tracer(&mut self, tracer: Tracer) {
        self.fabric.set_tracer(tracer.clone());
        for (i, nic) in self.nics.iter_mut().enumerate() {
            nic.set_tracer(tracer.clone(), i as u16);
        }
        for (i, bufs) in self.lock_bufs.iter_mut().enumerate() {
            bufs.set_tracer(tracer.clone(), i as u16);
        }
        self.tracer = tracer;
    }

    /// Occupies `core` on `node` for `dur` starting no earlier than `now`;
    /// returns the completion time. Back-to-back requests on the same core
    /// serialize — this is what makes the `m` transaction slots of a core
    /// share its pipeline.
    pub fn run_on_core(&mut self, node: NodeId, core: CoreId, now: Cycles, dur: Cycles) -> Cycles {
        let free = &mut self.core_free[node.0 as usize][core.0 as usize];
        let start = now.max(*free);
        let done = start + dur;
        *free = done;
        done
    }

    /// Sends a message through the fault plane; returns the arrival of
    /// every delivered copy. What the installed fault plan may do to it
    /// follows the verb's class (`hades_fault::class_of`): a Lossy-class
    /// message may be lost (no arrival) or duplicated (two), while a
    /// Retransmit-class one arrives exactly once ([`Arrivals::only`]),
    /// possibly after injected retransmission, delay or link-cut
    /// latency. For verbs a core marshals itself, use
    /// [`issue`](Self::issue), which also charges the issue cost.
    pub fn send(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        verb: Verb,
    ) -> Arrivals {
        let sent = self
            .fabric
            .send_verb(now, src, dst, bytes, verb, Doorbell::Share);
        self.delivered(now, src, dst, verb, sent)
    }

    /// Sends a message past the fault injector: no injected fault,
    /// link cut or NIC stall touches it. Baseline's fallback Lock/LockResp
    /// round trip is the one caller; returns the arrival.
    pub fn send_fault_exempt(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        verb: Verb,
    ) -> Cycles {
        let sent = self
            .fabric
            .send_fault_exempt(now, src, dst, bytes, verb, Doorbell::Share);
        self.delivered(now, src, dst, verb, sent).only()
    }

    /// Issues a verb from a core: the one place the RDMA issue cost is
    /// charged (DESIGN.md §14). The core starts issuing once it is free
    /// at or after `now`. A verb that will ride its queue pair's open
    /// batch pays [`BatchingParams::PER_VERB_CYCLES`] per work request;
    /// every other verb (batching off, or a batch leader) pays
    /// `SwCosts::rdma_issue` per work request and rings its own doorbell.
    /// The verb departs when the core finishes.
    pub fn issue(&mut self, now: Cycles, v: CoreVerb) -> Issued {
        let ready = now.max(self.core_free[v.node.0 as usize][v.core.0 as usize]);
        let append = BatchingParams::PER_VERB_CYCLES * v.wrs;
        let joins = self
            .fabric
            .batcher()
            .is_some_and(|b| b.joins(ready + append, v.node, v.dst));
        let (cost, doorbell) = if joins {
            (append, Doorbell::Share)
        } else {
            (self.cfg.sw.rdma_issue * v.wrs, Doorbell::Ring)
        };
        let depart = self.run_on_core(v.node, v.core, ready, cost);
        let sent = if v.fault_exempt {
            self.fabric
                .send_fault_exempt(depart, v.node, v.dst, v.bytes, v.verb, doorbell)
        } else {
            self.fabric
                .send_verb(depart, v.node, v.dst, v.bytes, v.verb, doorbell)
        };
        let arrival = self.delivered(depart, v.node, v.dst, v.verb, sent).only();
        Issued {
            depart,
            arrival,
            cost,
        }
    }

    /// Installs a fault plan on the fabric; subsequent
    /// [`send`](Self::send) and [`issue`](Self::issue) calls sample it.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fabric.install_injector(FaultInjector::new(plan));
    }

    /// Whether a non-inert fault injector is installed (engines arm
    /// commit timeouts only when something can actually be lost).
    pub fn injector_active(&self) -> bool {
        self.fabric.injector().active()
    }

    /// Accounts one send of `verb` from `src` to `dst` at `now` from the
    /// fabric's report, which the fabric has traced: bumps the per-node
    /// verb counters and the observer's per-verb fabric time for each
    /// delivered copy, then feeds the time-series the send's link-cut
    /// hit and its batch flushes, in that order. Returns the arrivals.
    fn delivered(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        verb: Verb,
        sent: SendReport,
    ) -> Arrivals {
        for arrival in sent.arrivals {
            self.verbs_by_node[src.0 as usize].bump(verb);
            if let Some(o) = self.observer.as_deref_mut() {
                o.record_verb(verb, arrival.saturating_sub(now));
            }
        }
        if sent.link_cut {
            let fault = InjectedFault::LinkCut { verb };
            self.observe(now, src.0, &EventKind::FaultInjected { fault });
        }
        for size in sent.flushes {
            self.observe(now, src.0, &EventKind::BatchFlushed { dst: dst.0, size });
        }
        sent.arrivals
    }

    // ---- Observability wrappers (DESIGN.md §13) --------------------------
    //
    // The engines call exactly one `obs_*` method per lifecycle hook site;
    // each wrapper fans the event out to whichever of the two optional
    // observers (the transaction observer behind the phase profile and
    // span log, and the time-series) is enabled. Start, commit and abort
    // also emit their lifecycle trace events. Every other event the
    // time-series counts goes through [`Cluster::note`], or through
    // [`Cluster::observe`] when a lower layer already traced it. When
    // everything is off every wrapper is a handful of branch-not-taken
    // tests — zero RNG draws, zero events, zero stats bytes.

    /// Hardware-occupancy snapshot for a closing time-series window:
    /// Locking-Buffer fill and read-Bloom-filter popcount, both as
    /// integer sums over all nodes (order-independent, so deterministic
    /// despite HashMap iteration inside the NIC).
    fn occupancy_snapshot(&self) -> Occupancy {
        let mut occ = Occupancy::default();
        for lb in &self.lock_bufs {
            occ.lb_occupied += lb.occupied() as u64;
            occ.lb_slots += lb.capacity() as u64;
        }
        for nic in &self.nics {
            let (ones, bits) = nic.read_bf_occupancy();
            occ.bf_ones += ones;
            occ.bf_bits += bits;
        }
        occ
    }

    /// Rolls the time-series forward to cover `now`, snapshotting hardware
    /// occupancy at each window boundary, and returns it. Cheap no-op when
    /// disabled or still inside the current window. A roll must come
    /// before any change to the hardware state the snapshot reads.
    fn obs_tick(&mut self, now: Cycles) -> Option<&mut TimeSeries> {
        if self.timeseries.as_deref()?.needs_roll(now) {
            let occ = self.occupancy_snapshot();
            let ts = self.timeseries.as_deref_mut()?;
            while ts.needs_roll(now) {
                ts.roll(occ);
            }
        }
        self.timeseries.as_deref_mut()
    }

    /// Rolls the time-series to `now` and feeds it `kind`, an event that
    /// happened at `node` and was traced elsewhere.
    fn observe(&mut self, now: Cycles, node: u16, kind: &EventKind) {
        if let Some(ts) = self.obs_tick(now) {
            ts.observe(node, kind);
        }
    }

    /// Records an event the time-series counts: rolls the series to
    /// `now`, feeds it `kind`, and emits the trace event.
    pub(crate) fn note(&mut self, now: Cycles, node: u16, slot: u32, kind: EventKind) {
        self.observe(now, node, &kind);
        self.tracer.emit(now, node, slot, kind);
    }

    /// The node and slot numbers of cluster-global slot index `si`.
    fn slot_ids(&self, si: usize) -> (u16, u32) {
        let spn = self.cfg.shape.slots_per_node();
        ((si / spn) as u16, (si % spn) as u32)
    }

    /// Slot `si` begins executing attempt `attempt`: `fresh` on the first
    /// attempt of a new transaction, false on a retry re-entering Exec
    /// after backoff.
    pub fn obs_start(&mut self, si: usize, attempt: u32, now: Cycles, fresh: bool) {
        let (node, slot) = self.slot_ids(si);
        if let Some(o) = self.observer.as_deref_mut() {
            if fresh {
                o.slot_start(si, node, slot, now);
            } else {
                o.slot_enter(si, ProfPhase::Exec, now);
            }
        }
        let ts = self.obs_tick(now);
        if let Some(ts) = ts.filter(|_| fresh) {
            ts.on_fresh_start(node);
        }
        self.tracer
            .emit(now, node, slot, EventKind::TxnBegin { attempt });
        let exec = EventKind::PhaseBegin(TracePhase::Exec);
        self.tracer.emit(now, node, slot, exec);
    }

    /// The slot's transaction moves to `phase` at `now`.
    pub fn obs_enter(&mut self, si: usize, phase: ProfPhase, now: Cycles) {
        if let Some(o) = self.observer.as_deref_mut() {
            o.slot_enter(si, phase, now);
        }
    }

    /// The slot's transaction commits. `latency` is the first-start →
    /// commit cycle count the engine also feeds its latency histogram;
    /// `record` mirrors the engine's measurement gate.
    pub fn obs_commit(&mut self, si: usize, now: Cycles, latency: Cycles, record: bool) {
        if let Some(o) = self.observer.as_deref_mut() {
            o.slot_commit(si, now, record);
        }
        let (node, slot) = self.slot_ids(si);
        if let Some(ts) = self.obs_tick(now) {
            ts.on_exit(node, Some(latency));
        }
        let commit = EventKind::PhaseEnd(TracePhase::Commit);
        self.tracer.emit(now, node, slot, commit);
        self.tracer.emit(now, node, slot, EventKind::TxnCommit);
    }

    /// The slot's transaction is dropped uncommitted at `now`: its retry
    /// started after the run began to drain.
    pub(crate) fn obs_drop(&mut self, si: usize, now: Cycles) {
        let (node, _) = self.slot_ids(si);
        if let Some(ts) = self.obs_tick(now) {
            ts.on_exit(node, None);
        }
    }

    /// The slot's current attempt aborts for `reason` and backs off.
    pub fn obs_abort(&mut self, si: usize, reason: &'static str, now: Cycles) {
        if let Some(o) = self.observer.as_deref_mut() {
            o.slot_abort(si, reason, now);
        }
        let (node, slot) = self.slot_ids(si);
        self.note(now, node, slot, EventKind::TxnAbort { reason });
    }

    /// A request/response handshake round opens: `peers` messages of
    /// `verb` go out at `now` and the span closes the round when the last
    /// response lands (no-op when `peers == 0`).
    pub fn obs_round_begin(&mut self, si: usize, verb: Verb, peers: u32, now: Cycles) {
        if let Some(o) = self.observer.as_deref_mut() {
            o.round_begin(si, verb, peers, now);
        }
    }

    /// All outstanding handshake rounds for `si` complete at `now`.
    pub fn obs_round_end(&mut self, si: usize, now: Cycles) {
        if let Some(o) = self.observer.as_deref_mut() {
            o.round_end(si, now);
        }
    }

    /// Names the peer node that squashed `si`'s current attempt; consumed
    /// by the next `obs_abort` on that slot.
    pub fn obs_abort_source(&mut self, si: usize, by: u16) {
        if let Some(o) = self.observer.as_deref_mut() {
            o.abort_source(si, by);
        }
    }

    /// Finalizes and detaches the optional observers at end of run: the
    /// phase profile, the span log and the time-series, which closes its
    /// last partial window with a final occupancy snapshot. The driver
    /// moves the results into `RunStats`.
    pub fn finish_observability(
        &mut self,
    ) -> (Option<PhaseProfile>, Option<SpanLog>, Option<TimeSeries>) {
        let occ = self.occupancy_snapshot();
        let mut ts = self.timeseries.take().map(|b| *b);
        if let Some(ts) = ts.as_mut() {
            ts.finish(occ);
        }
        let (profile, spans) = self.observer.take().map_or((None, None), |o| o.finish());
        (profile, spans, ts)
    }

    /// Core-side serial access to a set of local lines: the first line pays
    /// its hierarchy latency, subsequent lines pipeline behind it.
    /// Returns (latency, slots squashed by speculative evictions).
    pub fn access_lines(
        &mut self,
        node: NodeId,
        core: CoreId,
        lines: &[u64],
    ) -> (Cycles, Vec<SlotId>) {
        let mut total = Cycles::ZERO;
        let mut evicted = Vec::new();
        for (i, &line) in lines.iter().enumerate() {
            let out = self.mems[node.0 as usize].access(core, line);
            if i == 0 {
                total += out.latency;
            } else {
                // Pipelined: charge a fraction of the service latency.
                total += out.latency / 4;
            }
            evicted.extend(out.evicted_owners);
        }
        (total, evicted)
    }

    /// Checks an access against `node`'s Locking Buffers (Fig 7).
    /// `probe` is the engine's line × buffer check, returning the blocking
    /// holder; a denial is stamped with the bank's current generation, so
    /// its retries can ask [`stall_holds`](Self::stall_holds) instead of
    /// probing again.
    pub(crate) fn lock_stall(
        &self,
        node: NodeId,
        probe: impl FnOnce(&LockingBuffers) -> Option<u64>,
    ) -> Option<Stall> {
        let bufs = &self.lock_bufs[node.0 as usize];
        probe(bufs).map(|holder| Stall {
            node,
            generation: bufs.generation(),
            holder,
        })
    }

    /// Whether `stall`, an earlier denial, still holds for an access that
    /// now checks `node`'s bank: it is the same bank and its generation is
    /// unchanged. An access check is a pure function of the held set, and
    /// the generation moves whenever the held set does, so the same holder
    /// still blocks the access. This is the one place the engines decide
    /// to skip a re-probe; debug builds run `probe` anyway and compare.
    pub(crate) fn stall_holds(
        &self,
        stall: Stall,
        node: NodeId,
        probe: impl FnOnce(&LockingBuffers) -> Option<u64>,
    ) -> bool {
        let bufs = &self.lock_bufs[node.0 as usize];
        let holds = stall.node == node && stall.generation == bufs.generation();
        debug_assert!(
            !holds || probe(bufs) == Some(stall.holder),
            "{node}: unchanged Locking Buffers gave a different answer"
        );
        holds
    }

    /// NIC-side access to local lines (one-sided RDMA service at the home
    /// node). Same pipelining model as [`access_lines`](Self::access_lines).
    pub fn access_lines_nic(&mut self, node: NodeId, lines: &[u64]) -> (Cycles, Vec<SlotId>) {
        let mut total = Cycles::ZERO;
        let mut evicted = Vec::new();
        for (i, &line) in lines.iter().enumerate() {
            let out = self.mems[node.0 as usize].access_from_nic(line);
            if i == 0 {
                total += out.latency;
            } else {
                total += out.latency / 4;
            }
            evicted.extend(out.evicted_owners);
        }
        (total, evicted)
    }

    /// The Find-LLC-Tags latency (80–120 cycles, Table III).
    pub fn find_tags_latency(&mut self) -> Cycles {
        let lo = self.cfg.bloom.find_llc_tags_min.get();
        let hi = self.cfg.bloom.find_llc_tags_max.get();
        Cycles::new(self.rng.range_inclusive(lo, hi))
    }

    /// Exponential-ish backoff with jitter for attempt `attempt`.
    pub fn backoff(&mut self, attempt: u32) -> Cycles {
        backoff_for(attempt, &mut self.rng)
    }

    /// Contention-manager backoff: the shared linear policy, plus the
    /// age-based priority boost when the overload layer is on. Returns
    /// `(backoff, boosted)`; a boosted (old) transaction retries after
    /// just the base step — ahead of younger contenders — so it
    /// eventually wins (starvation freedom). With the overload layer off
    /// this is exactly [`Cluster::backoff`].
    pub fn contended_backoff(&mut self, attempt: u32) -> (Cycles, bool) {
        let boost_after = self.cfg.overload.age_boost_after;
        if boost_after > 0 && attempt >= boost_after {
            (RetryParams::BACKOFF_BASE, true)
        } else {
            (backoff_for(attempt, &mut self.rng), false)
        }
    }

    /// The replica nodes of a record homed at `home`: the next
    /// `repl.degree` *live* nodes in ring order (Section V-A). While
    /// every node is alive — always the case with the membership layer
    /// off — this is exactly the next `degree` ring successors.
    pub fn replica_nodes(&self, home: NodeId) -> Vec<NodeId> {
        let n = self.cfg.shape.nodes;
        let degree = self.cfg.repl.degree.min(n.saturating_sub(1));
        (1..n)
            .map(|k| NodeId(((home.0 as usize + k) % n) as u16))
            .filter(|r| self.membership.is_alive(*r))
            .take(degree)
            .collect()
    }

    /// Physical node currently serving logical partition `home` — the
    /// identity until a failover promotes a backup.
    pub fn route(&self, home: NodeId) -> NodeId {
        self.membership.primary_of(home)
    }

    /// Declares `dead` dead and runs the engine-agnostic half of
    /// reconfiguration: advances the configuration epoch, promotes the
    /// first live replica (per [`Cluster::replica_nodes`] order) of every
    /// partition the dead node was serving, and rebuilds hardware state
    /// on the new epoch — NIC remote-transaction filters and Locking
    /// Buffer slots referencing the dead node are cleared on every
    /// survivor, and the dead node's own NIC/buffer state is wiped.
    ///
    /// Returns `false` (a no-op) if the membership layer is disabled or
    /// the node was already declared dead. Engine-private state
    /// (replica-prepare queues, poisoned sets, in-flight slots) is the
    /// caller's job.
    pub fn reconfigure_after_death(&mut self, dead: NodeId, now: Cycles) -> bool {
        if !self.membership.mark_dead(dead) {
            return false;
        }
        // Noted before the hardware state below is cleared: the note rolls
        // the time-series, whose window edges snapshot that state.
        let epoch = self.membership.epoch();
        self.note(now, dead.0, NO_SLOT, EventKind::EpochChange { epoch });
        for p in self.membership.partitions_of(dead) {
            let new_primary = self.replica_nodes(p).first().copied().or_else(|| {
                // Degree-0 fallback: the first live node overall still
                // has to answer for the partition (no durable state to
                // seed from, but routing must resolve).
                (0..self.cfg.shape.nodes)
                    .map(|n| NodeId(n as u16))
                    .find(|n| self.membership.is_alive(*n))
            });
            if let Some(np) = new_primary {
                self.membership.repoint(p, np);
                let promotion = EventKind::Promotion {
                    partition: p.0,
                    new_primary: np.0,
                };
                self.note(now, np.0, NO_SLOT, promotion);
            }
        }
        for r in 0..self.cfg.shape.nodes {
            if r == dead.0 as usize {
                self.nics[r].clear_all_remote_txs();
                self.lock_bufs[r].clear();
                continue;
            }
            self.nics[r].clear_remote_txs_from(dead);
            for owner in self.lock_bufs[r].owners() {
                if owner >> 32 == dead.0 as u64 {
                    self.lock_bufs[r].unlock(owner);
                }
            }
        }
        true
    }

    // ---- Partition tolerance (DESIGN.md §16) -----------------------------
    //
    // Quorum-gated membership: the cluster owns the observer-side state
    // machine (suspicion, quorum freeze, rejoin) and its telemetry; the
    // engines own death reconfiguration and the per-commit self-fence
    // squash, because only they see slot state.

    /// Runs one failure-detector sweep through
    /// [`Membership::scan`](crate::membership::Membership::scan). With
    /// quorum gating off it declares exactly the current suspects dead.
    /// With it on, the sweep walks the suspicion state machine: it emits
    /// `QuorumLost` events when a minority view freezes instead of
    /// declaring death, readmits healed nodes under a fresh epoch (wiping
    /// their stale hardware state), and returns only the quorum-backed
    /// death declarations the engine must reconfigure around.
    pub fn membership_scan(&mut self, now: Cycles) -> Vec<NodeId> {
        let out = self.membership.scan(now);
        for &n in &out.quorum_losses {
            self.tracer
                .emit(now, n.0, NO_SLOT, EventKind::QuorumLost { node: n.0 });
        }
        if !out.rejoins.is_empty() {
            // Roll before the first rejoiner's hardware state is cleared.
            self.obs_tick(now);
        }
        for &n in &out.rejoins {
            // The rejoiner resyncs from the survivors: its pre-death NIC
            // filters and lock slots must not leak into the new epoch.
            self.nics[n.0 as usize].clear_all_remote_txs();
            self.lock_bufs[n.0 as usize].clear();
            let epoch = self.membership.epoch();
            self.note(now, n.0, NO_SLOT, EventKind::EpochChange { epoch });
        }
        out.deaths
    }

    /// Whether `node`'s lease renewal reaches the rest of the cluster at
    /// `now`. Renewals are heartbeats, not fabric messages (they carry no
    /// payload the simulation acts on), so instead of simulating the
    /// verbs we ask the injector whether the node can currently reach an
    /// outbound majority: a partition-stranded minority stops renewing,
    /// ages out on the majority side, and self-fences on its own.
    pub fn renewal_lands(&self, now: Cycles, node: NodeId) -> bool {
        let inj = self.fabric.injector();
        if !inj.active() || !inj.plan().has_link_faults() {
            return true;
        }
        inj.node_reaches_majority(now, node.0, self.cfg.shape.nodes)
    }

    /// Self-fencing check at commit entry: a coordinator whose own lease
    /// has expired (it could not renew — partitioned, or too slow) must
    /// assume the cluster has moved on and refuse the commit handshake.
    /// A node the configuration has excommunicated stays fenced even
    /// after its first post-heal renewal lands — it rejoins (next
    /// membership scan) before it commits, never the other way around.
    /// Returns `true` when the engine must squash. Counts the fence and
    /// emits `SelfFenced` so traces and stats agree exactly.
    pub fn self_fence_check(&mut self, now: Cycles, node: NodeId) -> bool {
        if !self.membership.partition_safe() {
            return false;
        }
        let excommunicated = !self.membership.is_alive(node);
        if !excommunicated && !self.membership.lease_expired(node, now) {
            return false;
        }
        self.membership.nstats.self_fences += 1;
        self.note(now, node.0, NO_SLOT, EventKind::SelfFenced { node: node.0 });
        true
    }

    /// Safety-invariant probe at commit finalization: a node the cluster
    /// has declared dead must never finalize a commit. The nemesis sweep
    /// asserts this counter stays zero (no dual-primary commits).
    pub fn note_commit_guard(&mut self, node: NodeId) {
        if self.membership.partition_safe() && !self.membership.is_alive(node) {
            self.membership.nstats.commits_while_dead += 1;
        }
    }

    /// The run's partition/gray-failure counters: membership-side events
    /// plus the injector's link-window tallies as of `now` (the drain
    /// time, so windows that expired without further traffic still count
    /// as healed).
    pub fn nemesis_stats(&self, now: Cycles) -> NemesisStats {
        let mut n = self.membership.nstats;
        let (cut, healed) = self.fabric.injector().link_window_counts(now);
        n.links_cut = cut;
        n.links_healed = healed;
        n
    }

    // ---- Planned reconfiguration (DESIGN.md §15) -------------------------
    //
    // The cluster owns the engine-agnostic half of a live migration: the
    // announce/copy/catch-up state machine, the state-transfer verbs, and
    // the hardware-state handoff at cutover. The engines own the other
    // half — scheduling the tick and fencing commit handshakes that
    // straddle the cutover — because only they can see slot state.

    /// Advances the migration state machine at `now` and tells the engine
    /// what to do next. Pure no-op ([`MigrationAction::Done`]) when no
    /// migration is configured.
    pub fn migration_step(&mut self, now: Cycles) -> MigrationAction {
        if self.migration.is_none() {
            return MigrationAction::Done;
        }
        // A declared death kills the copy stream: moves touching a dead
        // node are abandoned here, degrading the run into the plain
        // crash-failover path — the promotion performed at declare time
        // (if the source died) owns the partition from then on, and a
        // cutover can never repoint traffic at a dead destination.
        {
            let membership = &self.membership;
            let m = self.migration.as_mut().expect("checked above");
            m.moves
                .retain(|&(src, dst)| membership.is_alive(src) && membership.is_alive(dst));
            if m.moves.is_empty() {
                m.phase = MigPhase::Done;
            }
        }
        let m = self.migration.as_ref().expect("checked above");
        match m.phase {
            MigPhase::Pending => {
                // Announce: one epoch bump opens the dual-routing window —
                // new work keeps routing to the source, but every verb now
                // carries an epoch the cutover can fence against.
                let moves = m.moves.clone();
                self.membership.begin_reconfiguration();
                for &(src, dst) in &moves {
                    self.tracer.emit(
                        now,
                        src.0,
                        NO_SLOT,
                        EventKind::MigrationStart {
                            partition: src.0,
                            dst: dst.0,
                        },
                    );
                }
                let m = self.migration.as_mut().expect("checked above");
                m.phase = MigPhase::Copying;
                MigrationAction::Rearm(now + self.cfg.migration.chunk_interval)
            }
            MigPhase::Copying => {
                // One bounded chunk per move per tick, interleaved with
                // foreground traffic on the reliable transport (the
                // injector may delay but never drop state transfer).
                let moves = m.moves.clone();
                let round = m.rounds_sent;
                let recs = MigrationParams::CHUNK_RECORDS;
                for &(src, dst) in &moves {
                    self.send(now, src, dst, wire_size(recs as usize, 64), Verb::Other);
                    let chunk = EventKind::ChunkMigrated {
                        partition: src.0,
                        chunk: round as u32,
                    };
                    self.note(now, src.0, NO_SLOT, chunk);
                }
                let m = self.migration.as_mut().expect("checked above");
                m.rounds_sent += 1;
                m.stats.chunks_moved += moves.len() as u64;
                m.stats.records_moved += recs * moves.len() as u64;
                if m.rounds_sent >= MigrationParams::CHUNKS_PER_MOVE {
                    m.phase = MigPhase::CatchUp;
                    MigrationAction::Rearm(now + MigrationParams::DUAL_WINDOW)
                } else {
                    MigrationAction::Rearm(now + self.cfg.migration.chunk_interval)
                }
            }
            MigPhase::CatchUp => MigrationAction::Cutover(m.moves.clone()),
            MigPhase::Done => MigrationAction::Done,
        }
    }

    /// Completes the cutover after the engine fenced its straddlers:
    /// transfers NIC remote-transaction filters from each source to its
    /// destination (skipping `exclude` — the fenced straddlers' keys stay
    /// behind so their in-flight squash Clears still find them), counts
    /// the source Locking-Buffer entries left for those Clears to release
    /// in place, repoints routing, and bumps the epoch once so verbs sent
    /// under the copy-phase epoch are fenceable.
    ///
    /// Must be called *after* the engine's fence-and-squash scan: the
    /// squash path routes its Clears via [`Cluster::route`], which still
    /// points at the source until this repoints it.
    pub fn finish_cutover(&mut self, now: Cycles, exclude: &[RemoteTxKey], straddlers: u64) {
        let Some(m) = self.migration.as_mut() else {
            return;
        };
        if m.phase == MigPhase::Done {
            return;
        }
        m.phase = MigPhase::Done;
        m.stats.straddlers_fenced += straddlers;
        let moves = m.moves.clone();
        let mut nic_moved = 0u64;
        let mut lb_left = 0u64;
        for &(src, dst) in &moves {
            let taken = self.nics[src.0 as usize].take_remote_txs(exclude);
            nic_moved += taken.len() as u64;
            for (key, reads, writes) in taken {
                self.nics[dst.0 as usize].import_remote_tx(key, &reads, &writes);
            }
            // Locking-Buffer tokens are never relocated: unlocks target
            // the bank that granted them, and every entry still in the
            // source bank belongs to a fenced straddler whose squash
            // Clear releases it in place.
            lb_left += self.lock_bufs[src.0 as usize].occupied() as u64;
            self.membership.repoint(src, dst);
        }
        let epoch = self.membership.begin_reconfiguration();
        for &(_, dst) in &moves {
            self.tracer
                .emit(now, dst.0, NO_SLOT, EventKind::MigrationCutover { epoch });
        }
        let m = self.migration.as_mut().expect("checked above");
        m.stats.partitions_moved += moves.len() as u64;
        m.stats.nic_entries_moved += nic_moved;
        m.stats.lb_tokens_moved += lb_left;
    }

    /// Engine hook: a committed write just applied at logical partition
    /// `home`. While that partition's copy is in flight, the write is
    /// forwarded to the destination so the transferred image catches up.
    /// No-op (a branch) outside the copy/catch-up window or for
    /// partitions that are not moving.
    pub fn migration_note_write(&mut self, now: Cycles, home: NodeId) {
        let Some(m) = self.migration.as_ref() else {
            return;
        };
        if !matches!(m.phase, MigPhase::Copying | MigPhase::CatchUp) {
            return;
        }
        let Some(&(src, dst)) = m.moves.iter().find(|&&(s, _)| s == home) else {
            return;
        };
        // A move touching a declared-dead node is abandoned at the next
        // migration tick; stop forwarding to it immediately.
        if !self.membership.is_alive(src) || !self.membership.is_alive(dst) {
            return;
        }
        self.send(now, src, dst, wire_size(1, 64), Verb::Write);
        let m = self.migration.as_mut().expect("checked above");
        m.stats.forwarded_writes += 1;
    }

    /// The accumulated migration counters (all-zero when no migration is
    /// configured — the stats block is omitted from reports then).
    pub fn migration_stats(&self) -> MigrationStats {
        self.migration.as_ref().map(|m| m.stats).unwrap_or_default()
    }
}

/// Backoff before re-executing a squashed transaction: linear in the
/// attempt count, capped, with uniform jitter. The jittered sum is
/// clamped to the cap (it used to overshoot by up to one base step);
/// exactly one RNG draw is consumed either way.
pub fn backoff_for(attempt: u32, rng: &mut SimRng) -> Cycles {
    BackoffPolicy::linear(RetryParams::BACKOFF_BASE, RetryParams::BACKOFF_CAP)
        .step_jittered(attempt, rng)
}

/// The smallest of `nodes` above `after` (any, when `None`) other than
/// `skip`. Feeding each answer back as `after` walks the distinct nodes
/// in ascending order without collecting them.
pub(crate) fn next_node(
    nodes: impl Iterator<Item = NodeId>,
    after: Option<NodeId>,
    skip: Option<NodeId>,
) -> Option<NodeId> {
    nodes.filter(|&n| Some(n) > after && Some(n) != skip).min()
}

/// One operation with its placement and cache-line footprint resolved
/// against the database.
#[derive(Debug, Clone)]
pub struct ResolvedOp {
    /// Target record.
    pub rid: RecordId,
    /// The record's home node.
    pub home: NodeId,
    /// Index traversal depth (for index-walk timing).
    pub depth: u32,
    /// The original operation.
    pub kind: OpKind,
    /// Lines the op reads (whole record for GETs, the field's lines for
    /// field reads and RMWs).
    pub read_lines: Vec<u64>,
    /// Lines the op writes.
    pub write_lines: Vec<u64>,
    /// The subset of written lines that are only *partially* written
    /// (HADES must fetch these before buffering the write; Table II).
    pub write_partial: Vec<u64>,
    /// All lines of the record (what record-granularity software moves).
    pub record_lines: Vec<u64>,
}

impl ResolvedOp {
    /// Whether the op writes.
    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }

    /// Whether the record is homed at `node`.
    pub fn is_local_to(&self, node: NodeId) -> bool {
        self.home == node
    }

    /// The Locking-Buffer holder, other than `token`, that denies this
    /// op's line-granularity access: its read lines are checked against
    /// the buffered write signatures, then its written lines against the
    /// buffered read and write signatures (Fig 7). Each line is hashed
    /// once for the whole bank. The first holder found for a read line is
    /// the answer for that line, so `token`'s own buffer masks the holders
    /// behind it.
    pub(crate) fn lock_blocker(&self, bufs: &LockingBuffers, token: u64) -> Option<u64> {
        self.read_lines
            .iter()
            .find_map(|&l| bufs.blocks_read(l).filter(|&o| o != token))
            .or_else(|| {
                self.write_lines
                    .iter()
                    .find_map(|&l| bufs.blocks_write_excluding(l, token))
            })
    }
}

/// A transaction with every op resolved.
#[derive(Debug, Clone)]
pub struct ResolvedTxn {
    /// Stages of resolved ops.
    pub stages: Vec<Vec<ResolvedOp>>,
    /// Net RMW delta (conservation accounting).
    pub sum_delta: i64,
    /// Transaction-type label.
    pub label: &'static str,
    /// Which workload of the mix produced it.
    pub app: usize,
}

impl ResolvedTxn {
    /// Iterates all ops in stage order.
    pub fn ops(&self) -> impl Iterator<Item = &ResolvedOp> {
        self.stages.iter().flatten()
    }

    /// Iterates all ops in stage order, each with its stage and its
    /// index in the stage.
    pub fn positioned_ops(&self) -> impl Iterator<Item = (usize, usize, &ResolvedOp)> {
        self.stages
            .iter()
            .enumerate()
            .flat_map(|(s, ops)| ops.iter().enumerate().map(move |(i, op)| (s, i, op)))
    }
}

/// A handle to one op of a shared transaction: the transaction and the
/// op's stage and index. Events name an op this way instead of owning a
/// copy of it; cloning a handle only bumps a reference count.
#[derive(Debug, Clone)]
pub struct OpRef {
    txn: Rc<ResolvedTxn>,
    stage: u16,
    idx: u16,
}

impl OpRef {
    /// Op `idx` of stage `stage` of `txn`.
    ///
    /// # Panics
    ///
    /// Panics if `txn` has no such op.
    pub fn new(txn: &Rc<ResolvedTxn>, stage: usize, idx: usize) -> Self {
        assert!(
            idx < txn.stages[stage].len(),
            "no op {idx} in stage {stage}"
        );
        OpRef {
            txn: Rc::clone(txn),
            stage: u16::try_from(stage).expect("stage index fits u16"),
            idx: u16::try_from(idx).expect("op index fits u16"),
        }
    }
}

impl std::ops::Deref for OpRef {
    type Target = ResolvedOp;

    fn deref(&self) -> &ResolvedOp {
        &self.txn.stages[self.stage as usize][self.idx as usize]
    }
}

/// Resolves a [`TxnSpec`] against the database.
///
/// # Panics
///
/// Panics if a key is missing (workload generators only emit loaded keys).
pub fn resolve(db: &Database, spec: &TxnSpec, app: usize) -> ResolvedTxn {
    let stages = spec
        .stages
        .iter()
        .map(|stage| {
            stage
                .iter()
                .map(|op| {
                    let hit = db
                        .lookup(op.table, op.key)
                        .unwrap_or_else(|| panic!("workload emitted unknown key {}", op.key));
                    let rec = db.record(hit.rid);
                    let record_lines: Vec<u64> = rec.lines().collect();
                    let (read_lines, write_lines, write_partial) = match op.kind {
                        OpKind::Read => (record_lines.clone(), Vec::new(), Vec::new()),
                        OpKind::ReadField { off, len } => (
                            rec.lines_for_range(off as usize, len as usize),
                            Vec::new(),
                            Vec::new(),
                        ),
                        OpKind::Update { off, len } => {
                            let lines = rec.lines_for_range(off as usize, len as usize);
                            let (partial, _full) =
                                rec.split_write_lines(off as usize, len as usize);
                            (Vec::new(), lines, partial)
                        }
                        OpKind::Rmw { off, .. } => {
                            let lines = rec.lines_for_range(off as usize, 8);
                            (lines.clone(), lines.clone(), lines)
                        }
                    };
                    ResolvedOp {
                        rid: hit.rid,
                        home: rec.home(),
                        depth: hit.depth,
                        kind: op.kind,
                        read_lines,
                        write_lines,
                        write_partial,
                        record_lines,
                    }
                })
                .collect()
        })
        .collect();
    ResolvedTxn {
        stages,
        sum_delta: spec.sum_delta,
        label: spec.label,
        app,
    }
}

/// Applies a resolved write op's mutation to the database (commit time).
/// With the database's commit-history log enabled, the write is also
/// versioned and appended to the log (used by the serializability
/// checker to validate per-key version order).
pub fn apply_write(db: &mut Database, op: &ResolvedOp) {
    match op.kind {
        OpKind::Update { off, len } => {
            db.record_mut(op.rid).fill(off as usize, len as usize, 0xAB);
            db.note_commit(op.rid, 0);
        }
        OpKind::Rmw { off, delta } => {
            let after = db.record_mut(op.rid).add_u64(off as usize, delta);
            db.note_commit(op.rid, after);
        }
        OpKind::Read | OpKind::ReadField { .. } => {}
    }
}

/// Binds workloads to cores: a single workload for Figs 9–13, or an even
/// core partition for the Fig 14/15 mixes.
#[derive(Debug)]
pub struct WorkloadSet {
    apps: Vec<Box<dyn Workload>>,
    cores_per_node: usize,
}

impl WorkloadSet {
    /// A single workload on all cores.
    pub fn single(app: Box<dyn Workload>, cores_per_node: usize) -> Self {
        WorkloadSet {
            apps: vec![app],
            cores_per_node,
        }
    }

    /// A mix: cores of each node are partitioned evenly among the apps
    /// (Fig 14: two apps × 5 cores; Fig 15: four apps on 25-core nodes).
    ///
    /// # Panics
    ///
    /// Panics if there are more apps than cores per node.
    pub fn mix(apps: Vec<Box<dyn Workload>>, cores_per_node: usize) -> Self {
        assert!(!apps.is_empty(), "need at least one workload");
        assert!(
            apps.len() <= cores_per_node,
            "more workloads than cores per node"
        );
        WorkloadSet {
            apps,
            cores_per_node,
        }
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether there are no workloads (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Workload names, in index order.
    pub fn names(&self) -> Vec<String> {
        self.apps.iter().map(|a| a.name()).collect()
    }

    /// Which app a given core runs.
    pub fn app_for(&self, core: CoreId) -> usize {
        (core.0 as usize * self.apps.len() / self.cores_per_node).min(self.apps.len() - 1)
    }

    /// Generates the next transaction for (origin, core).
    pub fn next_txn(
        &mut self,
        origin: NodeId,
        core: CoreId,
        db: &Database,
        rng: &mut SimRng,
    ) -> (usize, TxnSpec) {
        let app = self.app_for(core);
        (app, self.apps[app].next_txn(origin, db, rng))
    }
}

/// Result of a full protocol run: the measured statistics, the final
/// cluster (database included, for invariant checks), and the
/// whole-run commit ledger.
#[derive(Debug)]
pub struct RunOutcome {
    /// Statistics over the measurement window.
    pub stats: RunStats,
    /// Final cluster state.
    pub cluster: Cluster,
    /// Net committed RMW delta over the entire run (warmup included).
    pub total_sum_delta: i64,
    /// Commits over the entire run.
    pub total_commits: u64,
    /// Replica-prepare entries still queued on any node at run end.
    /// Engines without replica machinery report 0; a nonzero value from
    /// an engine that has it means the drain logic leaked state.
    pub replica_pending_leaked: u64,
    /// Locking-Buffer retries of live attempts still parked when the
    /// event queue ran dry: the wait-for edges of a run that could not
    /// finish. Empty for a run that finishes.
    pub parked: Vec<ParkedRetry>,
}

/// A transaction's access stalled on a Locking Buffer that nothing left
/// in the queue will release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkedRetry {
    /// The waiting transaction's node.
    pub node: NodeId,
    /// The waiting transaction's slot.
    pub slot: SlotId,
    /// Node whose directory bank denied the access.
    pub bank: NodeId,
    /// Owner token of the blocking holder (see [`owner_token`]).
    pub holder: u64,
}

impl std::fmt::Display for ParkedRetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (node, slot) = (self.holder >> 32, self.holder & 0xffff_ffff);
        write!(
            f,
            "{}/{} parked on {}'s Locking Buffers behind n{node}/s{slot}",
            self.node, self.slot, self.bank
        )
    }
}

impl RunOutcome {
    /// Everything the commit protocols hold that outlived the drain, one
    /// line per leak: record locks over the whole database, Locking
    /// Buffers, NIC remote-transaction filters, speculative LLC lines
    /// and replica prepares. Empty for a clean run.
    pub fn leaks(&self) -> Vec<String> {
        let cl = &self.cluster;
        let mut leaks = Vec::new();
        let mut locked = (0..cl.db.record_count() as u32)
            .map(RecordId)
            .filter(|&rid| cl.db.record(rid).is_locked());
        if let Some(first) = locked.next() {
            let n = 1 + locked.count();
            leaks.push(format!(
                "{n} record lock(s) leaked past drain, first {first:?}"
            ));
        }
        for n in 0..cl.cfg.shape.nodes {
            let held = [
                (cl.lock_bufs[n].occupied(), "Locking Buffers held"),
                (cl.nics[n].active_remote_txs(), "NIC remote-tx filters"),
                (cl.mems[n].speculative_lines(), "speculative LLC lines"),
            ];
            for (count, what) in held.into_iter().filter(|&(count, _)| count != 0) {
                leaks.push(format!("node {n} left {count} {what}"));
            }
        }
        if self.replica_pending_leaked != 0 {
            leaks.push(format!(
                "{} replica-prepare entries leaked past drain",
                self.replica_pending_leaked
            ));
        }
        leaks
    }
}

/// Measurement window controller: warm up, then measure a fixed number of
/// commits.
#[derive(Debug)]
pub struct Measurement {
    warmup: u64,
    measure: u64,
    committed_total: u64,
    window_start: Cycles,
    measuring: bool,
    /// The collected statistics (valid once the window opened).
    pub stats: RunStats,
}

impl Measurement {
    /// Creates a controller: `warmup` commits are discarded, then `measure`
    /// commits are recorded.
    pub fn new(warmup: u64, measure: u64, apps: usize) -> Self {
        assert!(measure > 0, "measurement window must be nonempty");
        Measurement {
            warmup,
            measure,
            committed_total: 0,
            window_start: Cycles::ZERO,
            measuring: warmup == 0,
            stats: RunStats::new(apps),
        }
    }

    /// Whether the warmup has completed and stats are being recorded.
    pub fn measuring(&self) -> bool {
        self.measuring
    }

    /// Notes a commit; returns `true` when the run is complete.
    pub fn on_commit(&mut self, now: Cycles) -> bool {
        self.committed_total += 1;
        if !self.measuring && self.committed_total >= self.warmup {
            self.measuring = true;
            self.window_start = now;
            return false;
        }
        if self.measuring {
            self.stats.elapsed = now.saturating_sub(self.window_start);
        }
        self.committed_total >= self.warmup + self.measure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hades_storage::index::IndexKind;
    use hades_workloads::spec::OpSpec;
    use hades_workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

    fn cluster_with(cfg: SimConfig) -> Cluster {
        let mut db = Database::new(cfg.shape.nodes);
        let t = db.create_table("t", IndexKind::HashTable);
        for k in 0..100u64 {
            db.insert(t, k, &[0u8; 128]);
        }
        Cluster::new(cfg, db)
    }

    fn small_cluster() -> Cluster {
        cluster_with(SimConfig::isca_default())
    }

    fn read_from(core: u16, wrs: u64) -> CoreVerb {
        CoreVerb {
            node: NodeId(0),
            core: CoreId(core),
            dst: NodeId(1),
            bytes: 64,
            verb: Verb::Read,
            wrs,
            fault_exempt: false,
        }
    }

    #[test]
    fn unbatched_issue_charges_rdma_issue_per_work_request() {
        let mut cl = small_cluster();
        let rdma = cl.cfg.sw.rdma_issue;
        cl.run_on_core(NodeId(0), CoreId(0), Cycles::ZERO, Cycles::new(100));
        // The core is busy until 100, so issuing starts there.
        let sent = cl.issue(Cycles::new(10), read_from(0, 3));
        assert_eq!(sent.cost, rdma * 3);
        assert_eq!(sent.depart, Cycles::new(100) + rdma * 3);
        let mut plain = small_cluster();
        assert_eq!(
            sent.arrival,
            plain
                .send(sent.depart, NodeId(0), NodeId(1), 64, Verb::Read)
                .only(),
            "the issue wrapper sends on the ordinary path"
        );
    }

    #[test]
    fn batched_joiners_pay_the_append_cost_and_leaders_rdma_issue() {
        let cfg = SimConfig::isca_default().with_batching(BatchingParams::fixed(4));
        let (rdma, append) = (cfg.sw.rdma_issue, BatchingParams::PER_VERB_CYCLES);
        let mut cl = cluster_with(cfg);
        let lead = cl.issue(Cycles::ZERO, read_from(0, 1));
        assert_eq!(lead.cost, rdma, "the first verb rings the doorbell");
        // A second core posts on the same queue pair while the batch is
        // open: it appends, paying PER_VERB_CYCLES per work request.
        let join = cl.issue(lead.depart, read_from(1, 2));
        assert_eq!(join.cost, append * 2);
        assert_eq!(join.depart, lead.depart + append * 2);
        assert!(
            join.arrival >= lead.arrival,
            "a joiner never overtakes its leader"
        );
        // A verb issued before the batch's leader was sent cannot join
        // it: it pays rdma_issue and rings its own doorbell.
        let early = cl.issue(Cycles::ZERO, read_from(2, 1));
        assert_eq!(early.cost, rdma);
        let stats = cl.fabric.take_batch_stats().expect("batching on");
        assert_eq!((stats.leaders, stats.joined), (2, 1));
    }

    #[test]
    fn core_serializes_work() {
        let mut cl = small_cluster();
        let a = cl.run_on_core(NodeId(0), CoreId(0), Cycles::new(0), Cycles::new(100));
        let b = cl.run_on_core(NodeId(0), CoreId(0), Cycles::new(10), Cycles::new(50));
        assert_eq!(a, Cycles::new(100));
        assert_eq!(b, Cycles::new(150), "second request waits for the core");
        // A different core is independent.
        let c = cl.run_on_core(NodeId(0), CoreId(1), Cycles::new(10), Cycles::new(50));
        assert_eq!(c, Cycles::new(60));
    }

    #[test]
    fn resolve_classifies_lines() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        db.insert(t, 1, &[0u8; 128]); // 2 lines
        let spec = TxnSpec::new(
            "t",
            vec![vec![
                OpSpec {
                    table: t,
                    key: 1,
                    kind: OpKind::Read,
                },
                OpSpec {
                    table: t,
                    key: 1,
                    kind: OpKind::Rmw { off: 0, delta: 3 },
                },
            ]],
        );
        let r = resolve(&db, &spec, 0);
        let ops: Vec<&ResolvedOp> = r.ops().collect();
        assert_eq!(ops[0].read_lines.len(), 2);
        assert!(ops[0].write_lines.is_empty());
        assert_eq!(ops[1].read_lines, ops[1].write_lines);
        assert_eq!(ops[1].write_partial.len(), 1, "8-byte RMW is sub-line");
        assert_eq!(r.sum_delta, 3);
    }

    #[test]
    fn apply_write_mutates_records() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        db.insert(t, 5, &[0u8; 64]);
        let spec = TxnSpec::new(
            "t",
            vec![vec![OpSpec {
                table: t,
                key: 5,
                kind: OpKind::Rmw { off: 0, delta: 42 },
            }]],
        );
        let r = resolve(&db, &spec, 0);
        let op = r.ops().next().unwrap().clone();
        apply_write(&mut db, &op);
        apply_write(&mut db, &op);
        assert_eq!(db.record(op.rid).read_u64(0), 84);
        let spec = TxnSpec::new(
            "t",
            vec![vec![OpSpec {
                table: t,
                key: 5,
                kind: OpKind::Update { off: 10, len: 20 },
            }]],
        );
        let op = resolve(&db, &spec, 0).ops().next().unwrap().clone();
        apply_write(&mut db, &op);
        let rec = db.record(op.rid);
        assert_eq!(rec.read_u64(0), 84);
        assert_eq!(rec.read(8, 2), &[0, 0]);
        assert!(rec.read(10, 20).iter().all(|&b| b == 0xAB));
        assert_eq!(rec.read(30, 2), &[0, 0]);
    }

    #[test]
    fn workload_set_partitions_cores() {
        let mut db = Database::new(5);
        let a = Ycsb::setup(
            &mut db,
            YcsbConfig {
                keys: 1_000,
                ..YcsbConfig::paper(IndexKind::HashTable, YcsbVariant::A)
            },
        );
        let b = Ycsb::setup(
            &mut db,
            YcsbConfig {
                keys: 1_000,
                ..YcsbConfig::paper(IndexKind::Map, YcsbVariant::B)
            },
        );
        let ws = WorkloadSet::mix(vec![Box::new(a), Box::new(b)], 10);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws.app_for(CoreId(0)), 0);
        assert_eq!(ws.app_for(CoreId(4)), 0);
        assert_eq!(ws.app_for(CoreId(5)), 1);
        assert_eq!(ws.app_for(CoreId(9)), 1);
        assert_eq!(ws.names(), vec!["HT-wA".to_string(), "Map-wB".to_string()]);
    }

    #[test]
    fn measurement_window_lifecycle() {
        let mut m = Measurement::new(2, 3, 1);
        assert!(!m.measuring());
        assert!(!m.on_commit(Cycles::new(10)));
        assert!(!m.on_commit(Cycles::new(20))); // warmup done, window opens
        assert!(m.measuring());
        assert!(!m.on_commit(Cycles::new(30)));
        assert!(!m.on_commit(Cycles::new(40)));
        assert!(m.on_commit(Cycles::new(50)), "window complete");
        assert_eq!(m.stats.elapsed, Cycles::new(30));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut rng = SimRng::seed_from(1);
        let b1 = backoff_for(1, &mut rng);
        let b8 = backoff_for(8, &mut rng);
        let b100 = backoff_for(100, &mut rng);
        assert!(b1 < b8);
        // Jitter included, the cap is a hard ceiling.
        assert!(b100 <= RetryParams::BACKOFF_CAP);
        for attempt in 0..200 {
            let b = backoff_for(attempt, &mut rng);
            assert!(b <= RetryParams::BACKOFF_CAP, "attempt {attempt}");
        }
    }

    #[test]
    fn contended_backoff_matches_plain_backoff_when_disabled() {
        let mut a = small_cluster();
        let mut b = small_cluster();
        for attempt in 1..40 {
            let plain = a.backoff(attempt);
            let (managed, boosted) = b.contended_backoff(attempt);
            assert_eq!(plain, managed, "attempt {attempt}");
            assert!(!boosted);
        }
    }

    #[test]
    fn contended_backoff_boosts_aged_transactions() {
        let cfg = SimConfig::isca_default().with_overload(hades_sim::config::OverloadParams {
            age_boost_after: 5,
            ..Default::default()
        });
        let mut db = Database::new(cfg.shape.nodes);
        let t = db.create_table("t", IndexKind::HashTable);
        db.insert(t, 0, &[0u8; 64]);
        let mut cl = Cluster::new(cfg, db);
        let (young, boosted) = cl.contended_backoff(2);
        assert!(!boosted);
        assert!(young >= RetryParams::BACKOFF_BASE);
        let (old, boosted) = cl.contended_backoff(9);
        assert!(boosted, "attempt past the boost threshold");
        assert_eq!(old, RetryParams::BACKOFF_BASE, "boosted to the base step");
    }

    #[test]
    fn lock_buffer_capacity_knob_sizes_banks() {
        let cfg = SimConfig::isca_default().with_lock_buffer_slots(1);
        let mut db = Database::new(cfg.shape.nodes);
        let t = db.create_table("t", IndexKind::HashTable);
        db.insert(t, 0, &[0u8; 64]);
        let cl = Cluster::new(cfg, db);
        for bufs in &cl.lock_bufs {
            assert_eq!(bufs.capacity(), 1);
        }
    }

    fn migration_cluster(moves: Vec<(u16, u16)>) -> Cluster {
        let cfg = SimConfig::isca_default()
            .with_migration(hades_sim::config::MigrationParams::standard(moves));
        let mut db = Database::new(cfg.shape.nodes);
        let t = db.create_table("t", IndexKind::HashTable);
        for k in 0..100u64 {
            db.insert(t, k, &[0u8; 128]);
        }
        Cluster::new(cfg, db)
    }

    #[test]
    fn migration_step_walks_announce_copy_cutover() {
        let mut cl = migration_cluster(vec![(1, 2)]);
        let epoch0 = cl.membership.epoch();
        let mut now = MigrationParams::START_AT;
        // Announce bumps the epoch once and enters the copy phase.
        let a = cl.migration_step(now);
        assert!(matches!(a, MigrationAction::Rearm(_)));
        assert_eq!(cl.membership.epoch(), epoch0 + 1);
        // Exactly CHUNKS_PER_MOVE copy rounds, then the catch-up window.
        let rounds = MigrationParams::CHUNKS_PER_MOVE;
        for _ in 0..rounds {
            match cl.migration_step(now) {
                MigrationAction::Rearm(at) => now = at,
                other => panic!("expected Rearm during copy, got {other:?}"),
            }
        }
        let stats = cl.migration_stats();
        assert_eq!(stats.chunks_moved, rounds);
        assert_eq!(stats.records_moved, MigrationParams::PARTITION_RECORDS);
        // The next tick (after the dual-routing window) demands cutover.
        let MigrationAction::Cutover(moves) = cl.migration_step(now) else {
            panic!("expected Cutover after the catch-up window");
        };
        assert_eq!(moves, vec![(NodeId(1), NodeId(2))]);
        cl.finish_cutover(now, &[], 0);
        assert_eq!(cl.route(NodeId(1)), NodeId(2), "routing must repoint");
        assert_eq!(cl.membership.epoch(), epoch0 + 2, "cutover bumps again");
        assert_eq!(cl.migration_stats().partitions_moved, 1);
        assert!(matches!(cl.migration_step(now), MigrationAction::Done));
    }

    #[test]
    fn migration_forwards_writes_only_during_copy() {
        let mut cl = migration_cluster(vec![(0, 3)]);
        let now = MigrationParams::START_AT;
        // Before the announce: no forwarding.
        cl.migration_note_write(now, NodeId(0));
        assert_eq!(cl.migration_stats().forwarded_writes, 0);
        cl.migration_step(now); // announce -> Copying
        cl.migration_note_write(now, NodeId(0));
        cl.migration_note_write(now, NodeId(1)); // not a moving partition
        assert_eq!(cl.migration_stats().forwarded_writes, 1);
        // Drive to Done; forwarding stops.
        let mut t = now;
        loop {
            match cl.migration_step(t) {
                MigrationAction::Rearm(at) => t = at,
                MigrationAction::Cutover(_) => {
                    cl.finish_cutover(t, &[], 0);
                    break;
                }
                MigrationAction::Done => break,
            }
        }
        cl.migration_note_write(t, NodeId(0));
        assert_eq!(cl.migration_stats().forwarded_writes, 1);
    }

    #[test]
    fn cutover_transfers_nic_filters_except_fenced_straddlers() {
        let mut cl = migration_cluster(vec![(1, 2)]);
        let keep = RemoteTxKey {
            origin: NodeId(0),
            slot: SlotId(7),
        };
        let fenced = RemoteTxKey {
            origin: NodeId(3),
            slot: SlotId(1),
        };
        cl.nics[1].record_remote_read(Cycles::new(1), keep, &[10, 11]);
        cl.nics[1].record_remote_write(Cycles::new(1), keep, &[12]);
        cl.nics[1].record_remote_read(Cycles::new(2), fenced, &[20]);
        let now = MigrationParams::START_AT;
        cl.migration_step(now); // announce so the cutover is legal
        cl.finish_cutover(now, &[fenced], 1);
        let stats = cl.migration_stats();
        assert_eq!(stats.nic_entries_moved, 1);
        assert_eq!(stats.straddlers_fenced, 1);
        // The moved entry now filters at the destination; the fenced
        // straddler's entry stayed at the source for its Clear.
        assert_eq!(cl.nics[2].active_remote_txs(), 1);
        assert_eq!(cl.nics[1].active_remote_txs(), 1);
    }

    #[test]
    fn migration_off_is_inert() {
        let mut cl = small_cluster();
        assert!(matches!(
            cl.migration_step(Cycles::new(1)),
            MigrationAction::Done
        ));
        cl.migration_note_write(Cycles::new(1), NodeId(0));
        cl.finish_cutover(Cycles::new(1), &[], 0);
        assert!(cl.migration_stats().is_zero());
    }

    #[test]
    fn owner_tokens_unique_per_slot() {
        let a = owner_token(NodeId(1), SlotId(2));
        let b = owner_token(NodeId(1), SlotId(3));
        let c = owner_token(NodeId(2), SlotId(2));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
