//! Network fabric timing: NIC-to-NIC latency, serialization at link
//! bandwidth, and per-message NIC processing.
//!
//! The paper models a 200 Gb/s RDMA NIC with a 2 µs NIC-to-NIC round trip
//! (Table III) and up to 400 queue pairs. A message's arrival time is
//!
//! ```text
//! arrival = now + serialize(bytes) + one_way_latency + receiver nic_proc
//! ```
//!
//! Serialization is additive rather than modeled as a shared transmit
//! port: at the paper's message sizes (64–640 B) and rates, port
//! utilization stays below ~2% of the 200 Gb/s link, so queueing at the
//! port is negligible — while a port-reservation model would interact
//! badly with the simulator's inline scheduling of future responses.
//! Total bytes are still accounted so runs can verify the utilization
//! claim.

use crate::batch::{BatchRole, BatchStats, Batcher, Doorbell};
use hades_fault::FaultInjector;
use hades_sim::config::NetParams;
use hades_sim::ids::NodeId;
use hades_sim::time::Cycles;
use hades_telemetry::event::{EventKind, InjectedFault, Verb, VerbCounts, NO_SLOT};
use hades_telemetry::sink::Tracer;

/// Wire size of a message carrying `lines` cache lines of payload plus a
/// fixed header (request metadata, addresses).
pub fn wire_size(lines: usize, line_bytes: usize) -> usize {
    64 + lines * line_bytes
}

/// The arrival times of one fault-prone send's delivered copies: none
/// (lost), one, or two (duplicated). Held inline, so a send allocates
/// nothing; it reads as a slice and iterates by value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Arrivals {
    len: u8,
    at: [Cycles; Arrivals::MAX],
}

impl Arrivals {
    /// The most copies a send delivers (an original and its duplicate).
    pub(crate) const MAX: usize = 2;

    /// A single delivered copy.
    pub(crate) fn one(at: Cycles) -> Self {
        let mut a = Arrivals::default();
        a.push(at);
        a
    }

    /// Appends a delivered copy.
    ///
    /// # Panics
    ///
    /// Panics if [`Arrivals::MAX`] copies are already held.
    pub(crate) fn push(&mut self, at: Cycles) {
        assert!(
            (self.len as usize) < Self::MAX,
            "a send delivers at most {} copies",
            Self::MAX
        );
        self.at[self.len as usize] = at;
        self.len += 1;
    }
}

impl std::ops::Deref for Arrivals {
    type Target = [Cycles];

    fn deref(&self) -> &[Cycles] {
        &self.at[..self.len as usize]
    }
}

impl IntoIterator for Arrivals {
    type Item = Cycles;
    type IntoIter = std::iter::Take<std::array::IntoIter<Cycles, { Arrivals::MAX }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.at.into_iter().take(self.len as usize)
    }
}

/// The cluster's network fabric.
///
/// # Examples
///
/// ```
/// use hades_net::fabric::Fabric;
/// use hades_sim::{config::NetParams, ids::NodeId, time::Cycles};
///
/// let mut f = Fabric::new(NetParams::default(), 5);
/// let t = f.send(Cycles::ZERO, NodeId(0), NodeId(1), 64);
/// assert!(t >= NetParams::default().one_way());
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    params: NetParams,
    nodes: usize,
    messages: u64,
    bytes: u64,
    verbs: VerbCounts,
    tracer: Tracer,
    injector: FaultInjector,
    /// The batching subsystem (DESIGN.md §14); `None` leaves every send
    /// on the exact pre-batching timing path.
    batch: Option<Box<Batcher>>,
}

impl Fabric {
    /// Creates a fabric connecting `nodes` nodes.
    pub fn new(params: NetParams, nodes: usize) -> Self {
        Fabric {
            params,
            nodes,
            messages: 0,
            bytes: 0,
            verbs: VerbCounts::new(),
            tracer: Tracer::disabled(),
            injector: FaultInjector::inert(),
            batch: None,
        }
    }

    /// Installs the verb-batching subsystem; subsequent sends coalesce
    /// doorbells per (src, dst) queue pair (DESIGN.md §14).
    pub fn install_batcher(&mut self, batcher: Batcher) {
        self.batch = Some(Box::new(batcher));
    }

    /// The installed batcher, if any.
    pub fn batcher(&self) -> Option<&Batcher> {
        self.batch.as_deref()
    }

    /// Mutable access to the installed batcher (flush-notification
    /// draining by the observability layer).
    pub fn batcher_mut(&mut self) -> Option<&mut Batcher> {
        self.batch.as_deref_mut()
    }

    /// Closes all open batches and returns the run's batching counters
    /// (`None` when the subsystem is off).
    pub fn take_batch_stats(&mut self) -> Option<BatchStats> {
        self.batch.as_deref_mut().map(Batcher::finish)
    }

    /// Installs a fault injector; subsequent
    /// [`send_verb_faulty`](Self::send_verb_faulty) calls sample it.
    pub fn install_injector(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// The installed fault injector (inert by default).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Mutable access to the injector (crash bookkeeping, counters).
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Installs a trace sink; subsequent sends emit `VerbSend`/`VerbRecv`
    /// events (at departure and arrival time respectively).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The configured network parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Schedules a message of `bytes` from `src` to `dst` at time `now`;
    /// returns its arrival time at the destination NIC.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (local operations never touch the fabric) or
    /// if either node is out of range.
    pub fn send(&mut self, now: Cycles, src: NodeId, dst: NodeId, bytes: usize) -> Cycles {
        self.send_verb(now, src, dst, bytes, Verb::Other, Doorbell::Share)
    }

    /// Like [`send`](Self::send), but tags the message with its protocol
    /// meaning for the per-verb traffic breakdown and trace events, and
    /// says whether it may share a doorbell when batching is on (ignored
    /// otherwise).
    ///
    /// # Panics
    ///
    /// Same conditions as [`send`](Self::send).
    pub fn send_verb(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        verb: Verb,
        doorbell: Doorbell,
    ) -> Cycles {
        assert_ne!(src, dst, "loopback messages are not modeled");
        assert!((dst.0 as usize) < self.nodes, "bad dst {dst}");
        assert!((src.0 as usize) < self.nodes, "bad src {src}");
        self.messages += 1;
        self.bytes += bytes as u64;
        self.verbs.bump(verb);
        let arrival = self.route(now, src, dst, bytes, verb, doorbell);
        if self.tracer.is_enabled() {
            self.tracer.emit(
                now,
                src.0,
                NO_SLOT,
                EventKind::VerbSend {
                    verb,
                    dst: dst.0,
                    bytes: bytes as u32,
                },
            );
            self.tracer.emit(
                arrival,
                dst.0,
                NO_SLOT,
                EventKind::VerbRecv {
                    verb,
                    src: src.0,
                    bytes: bytes as u32,
                },
            );
        }
        arrival
    }

    /// Computes a verb's arrival time: the classic additive path when no
    /// batcher is installed, or the batcher's leader/joiner schedule
    /// (emitting `BatchFlushed`/`BatchCoalesced` events) when one is.
    fn route(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        verb: Verb,
        doorbell: Doorbell,
    ) -> Cycles {
        let Some(b) = self.batch.as_deref_mut() else {
            return now
                + self.params.serialize(bytes)
                + self.params.one_way()
                + self.params.nic_proc;
        };
        let s = b.schedule(now, src, dst, bytes, verb, doorbell);
        if self.tracer.is_enabled() {
            if s.role == BatchRole::CoalescedSquash {
                self.tracer.emit(
                    now,
                    src.0,
                    NO_SLOT,
                    EventKind::BatchCoalesced { dst: dst.0 },
                );
            }
            if let Some(size) = s.flushed {
                self.tracer.emit(
                    now,
                    src.0,
                    NO_SLOT,
                    EventKind::BatchFlushed { dst: dst.0, size },
                );
            }
        }
        s.arrival
    }

    /// Like [`send_verb`](Self::send_verb) but subject to the installed
    /// fault injector: the message may be dropped, duplicated, delayed,
    /// jittered, or held by a NIC stall window. Returns the arrival time
    /// of every delivered copy (empty = message lost), held inline.
    ///
    /// With an inert injector this is exactly one
    /// [`send_verb`](Self::send_verb) call — same counters, same timing,
    /// no extra randomness — preserving byte identity with un-injected
    /// runs.
    ///
    /// # Panics
    ///
    /// Same conditions as [`send`](Self::send).
    pub fn send_verb_faulty(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        verb: Verb,
        doorbell: Doorbell,
    ) -> Arrivals {
        if !self.injector.active() {
            return Arrivals::one(self.send_verb(now, src, dst, bytes, verb, doorbell));
        }
        assert_ne!(src, dst, "loopback messages are not modeled");
        assert!((dst.0 as usize) < self.nodes, "bad dst {dst}");
        assert!((src.0 as usize) < self.nodes, "bad src {src}");
        let faults = self.injector.on_send(now, verb, src.0, dst.0);
        if self.tracer.is_enabled() {
            for &(s, d) in &faults.cut_links {
                self.tracer
                    .emit(now, s, NO_SLOT, EventKind::LinkCut { src: s, dst: d });
            }
            for &(s, d) in &faults.healed_links {
                self.tracer
                    .emit(now, s, NO_SLOT, EventKind::LinkHealed { src: s, dst: d });
            }
            for f in &faults.injected {
                self.tracer
                    .emit(now, src.0, NO_SLOT, EventKind::FaultInjected { fault: *f });
            }
            for r in &faults.recovered {
                self.tracer
                    .emit(now, src.0, NO_SLOT, EventKind::Recovery { action: *r });
            }
        }
        let path = self.params.serialize(bytes) + self.params.one_way() + self.params.nic_proc;
        let base = now + path;
        let mut arrivals = Arrivals::default();
        for &extra in &faults.copies {
            self.messages += 1;
            self.bytes += bytes as u64;
            self.verbs.bump(verb);
            // Faults act on individual verbs, not batch envelopes: an
            // on-time copy coalesces normally, while a delayed or
            // reordered copy models a verb that missed its batch — it
            // flies solo on the unbatched path and is exempt from the
            // per-queue-pair FIFO fence (reordering must stay possible).
            let mut arrival = if extra == Cycles::ZERO {
                self.route(now, src, dst, bytes, verb, doorbell)
            } else {
                base + extra
            };
            if let Some(release) = self.injector.stall_release(dst.0, arrival) {
                arrival = arrival.max(release);
                if self.tracer.is_enabled() {
                    self.tracer.emit(
                        arrival,
                        dst.0,
                        NO_SLOT,
                        EventKind::FaultInjected {
                            fault: InjectedFault::NicStall,
                        },
                    );
                }
            }
            if self.tracer.is_enabled() {
                self.tracer.emit(
                    now,
                    src.0,
                    NO_SLOT,
                    EventKind::VerbSend {
                        verb,
                        dst: dst.0,
                        bytes: bytes as u32,
                    },
                );
                self.tracer.emit(
                    arrival,
                    dst.0,
                    NO_SLOT,
                    EventKind::VerbRecv {
                        verb,
                        src: src.0,
                        bytes: bytes as u32,
                    },
                );
            }
            arrivals.push(arrival);
        }
        arrivals
    }

    /// Total messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages
    }

    /// Total payload bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes
    }

    /// Message counts by protocol verb.
    pub fn verb_counts(&self) -> &VerbCounts {
        &self.verbs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Fabric {
        Fabric::new(NetParams::default(), 4)
    }

    #[test]
    fn latency_includes_one_way_plus_processing() {
        let mut f = fabric();
        let p = NetParams::default();
        let t = f.send(Cycles::ZERO, NodeId(0), NodeId(1), 64);
        assert_eq!(t, p.serialize(64) + p.one_way() + p.nic_proc);
    }

    #[test]
    fn round_trip_is_about_rt() {
        // Request + response of small messages should take roughly the
        // configured RT (2 us = 4000 cycles) plus small per-hop costs.
        let mut f = fabric();
        let arrive = f.send(Cycles::ZERO, NodeId(0), NodeId(1), 64);
        let back = f.send(arrive, NodeId(1), NodeId(0), 64);
        let rt = NetParams::default().rt;
        assert!(back >= rt);
        assert!(back < rt + Cycles::new(300), "overhead too large: {back}");
    }

    #[test]
    fn serialization_is_additive_per_message() {
        let mut f = fabric();
        let big = 16 * 1024;
        let small = 64;
        let t1 = f.send(Cycles::ZERO, NodeId(0), NodeId(1), big);
        let t2 = f.send(Cycles::ZERO, NodeId(0), NodeId(2), small);
        // Larger messages take longer by exactly the serialization delta.
        let p = NetParams::default();
        assert_eq!(t1 - t2, p.serialize(big) - p.serialize(small));
    }

    #[test]
    fn different_senders_do_not_interfere() {
        let mut f = fabric();
        let t1 = f.send(Cycles::ZERO, NodeId(0), NodeId(1), 4096);
        let t2 = f.send(Cycles::ZERO, NodeId(2), NodeId(1), 4096);
        assert_eq!(t1, t2);
    }

    #[test]
    fn counters_accumulate() {
        let mut f = fabric();
        f.send(Cycles::ZERO, NodeId(0), NodeId(1), 100);
        f.send(Cycles::ZERO, NodeId(1), NodeId(0), 50);
        assert_eq!(f.messages_sent(), 2);
        assert_eq!(f.bytes_sent(), 150);
    }

    #[test]
    fn verb_counts_and_trace_events() {
        let mut f = fabric();
        let (tracer, sink) = Tracer::memory();
        f.set_tracer(tracer);
        let arrive = f.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            96,
            Verb::Intend,
            Doorbell::Share,
        );
        f.send(Cycles::ZERO, NodeId(1), NodeId(2), 64); // untagged -> Other
        assert_eq!(f.verb_counts().get(Verb::Intend), 1);
        assert_eq!(f.verb_counts().get(Verb::Other), 1);
        assert_eq!(f.verb_counts().total(), 2);
        let events = sink.borrow().events().to_vec();
        assert_eq!(events.len(), 4, "send+recv per message");
        assert_eq!(events[0].node, 0);
        assert_eq!(events[1].at, arrive);
        assert!(matches!(
            events[1].kind,
            EventKind::VerbRecv {
                verb: Verb::Intend,
                src: 0,
                bytes: 96
            }
        ));
    }

    #[test]
    fn faulty_send_with_inert_injector_matches_plain_send() {
        let mut a = fabric();
        let mut b = fabric();
        let t1 = a.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            96,
            Verb::Intend,
            Doorbell::Share,
        );
        let t2 = b.send_verb_faulty(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            96,
            Verb::Intend,
            Doorbell::Share,
        );
        assert_eq!(t2[..], [t1]);
        assert_eq!(a.messages_sent(), b.messages_sent());
        assert_eq!(a.bytes_sent(), b.bytes_sent());
    }

    #[test]
    fn faulty_send_drops_messages_without_counting_them() {
        use hades_fault::{FaultInjector, FaultPlan};
        let mut f = fabric();
        f.install_injector(FaultInjector::new(
            FaultPlan::none().drop_verb(Verb::Ack, 1.0),
        ));
        let arrivals = f.send_verb_faulty(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Ack,
            Doorbell::Share,
        );
        assert!(arrivals.is_empty());
        assert_eq!(f.messages_sent(), 0, "dropped copies are not traffic");
        assert_eq!(f.injector().faults.drops, 1);
    }

    #[test]
    fn stall_window_holds_arrivals_until_release() {
        use hades_fault::{FaultInjector, FaultPlan};
        let mut f = fabric();
        let release = Cycles::new(1_000_000);
        f.install_injector(FaultInjector::new(FaultPlan::none().nic_stall(
            1,
            Cycles::ZERO,
            release,
        )));
        let arrivals = f.send_verb_faulty(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Read,
            Doorbell::Share,
        );
        assert_eq!(arrivals[..], [release]);
        assert_eq!(f.injector().faults.nic_stalls, 1);
    }

    #[test]
    fn batched_leader_takes_the_unbatched_path() {
        use hades_sim::config::BatchingParams;
        let mut f = fabric();
        f.install_batcher(Batcher::new(
            BatchingParams::fixed(1),
            NetParams::default(),
            4,
        ));
        let p = NetParams::default();
        let plain = p.serialize(64) + p.one_way() + p.nic_proc;
        let t = f.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Intend,
            Doorbell::Share,
        );
        assert_eq!(t, plain, "the fabric charges no doorbell of its own");
        // A second simultaneous verb does not queue behind the first.
        let t2 = f.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Intend,
            Doorbell::Share,
        );
        assert_eq!(t2, plain);
    }

    #[test]
    fn ring_leads_even_when_a_batch_is_open() {
        use hades_sim::config::BatchingParams;
        let mut f = fabric();
        f.install_batcher(Batcher::new(
            BatchingParams::fixed(4),
            NetParams::default(),
            4,
        ));
        f.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Read,
            Doorbell::Share,
        );
        f.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Read,
            Doorbell::Ring,
        );
        let stats = f.take_batch_stats().expect("batcher installed");
        assert_eq!(stats.leaders, 2, "Ring rang its own doorbell");
        assert_eq!(stats.joined, 0);
    }

    #[test]
    fn batched_joiners_share_the_leader_doorbell() {
        use hades_sim::config::BatchingParams;
        let mut f = fabric();
        f.install_batcher(Batcher::new(
            BatchingParams::fixed(4),
            NetParams::default(),
            4,
        ));
        let lead = f.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Intend,
            Doorbell::Share,
        );
        let join = f.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Intend,
            Doorbell::Share,
        );
        assert_eq!(join, lead, "first joiner lands with its leader");
        assert_eq!(f.messages_sent(), 2, "batched verbs still count as traffic");
    }

    #[test]
    fn batch_flush_emits_a_trace_event() {
        use hades_sim::config::BatchingParams;
        let mut f = fabric();
        f.install_batcher(Batcher::new(
            BatchingParams::fixed(2),
            NetParams::default(),
            4,
        ));
        let (tracer, sink) = Tracer::memory();
        f.set_tracer(tracer);
        f.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Intend,
            Doorbell::Share,
        );
        f.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Intend,
            Doorbell::Share,
        );
        let events = sink.borrow().events().to_vec();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::BatchFlushed { dst: 1, size: 2 })),
            "full batch must emit BatchFlushed"
        );
    }

    #[test]
    fn faulty_delayed_copies_bypass_the_batcher() {
        use hades_fault::{FaultInjector, FaultPlan};
        use hades_sim::config::BatchingParams;
        let p = NetParams::default();
        let delay = Cycles::new(5_000);
        let mut f = fabric();
        f.install_batcher(Batcher::new(
            BatchingParams::fixed(4),
            NetParams::default(),
            4,
        ));
        f.install_injector(FaultInjector::new(FaultPlan::none().delay_verb(
            Verb::Ack,
            1.0,
            delay,
        )));
        let arrivals = f.send_verb_faulty(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Ack,
            Doorbell::Share,
        );
        assert_eq!(
            arrivals[..],
            [p.serialize(64) + p.one_way() + p.nic_proc + delay],
            "a delayed verb missed its batch: unbatched path, no doorbell"
        );
        assert_eq!(
            f.batcher().unwrap().stats().verbs(),
            0,
            "the delayed copy never touched the batcher"
        );
    }

    #[test]
    fn take_batch_stats_flushes_open_batches() {
        use hades_sim::config::BatchingParams;
        let mut f = fabric();
        assert!(f.take_batch_stats().is_none(), "no batcher installed");
        f.install_batcher(Batcher::new(
            BatchingParams::fixed(8),
            NetParams::default(),
            4,
        ));
        f.send_verb(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Intend,
            Doorbell::Share,
        );
        let stats = f.take_batch_stats().expect("batcher installed");
        assert_eq!(stats.flushes, 1, "finish closes the open batch");
        assert_eq!(stats.leaders, 1);
    }

    #[test]
    fn cut_link_drops_lossy_verbs_and_traces_the_window() {
        use hades_fault::{FaultInjector, FaultPlan};
        let mut f = fabric();
        f.install_injector(FaultInjector::new(FaultPlan::none().cut_link(
            0,
            1,
            Cycles::ZERO,
            Cycles::new(10_000),
        )));
        let (tracer, sink) = Tracer::memory();
        f.set_tracer(tracer);
        let lost = f.send_verb_faulty(
            Cycles::new(5),
            NodeId(0),
            NodeId(1),
            64,
            Verb::Ack,
            Doorbell::Share,
        );
        assert!(lost.is_empty(), "lossy verb into a cut link is gone");
        assert_eq!(f.messages_sent(), 0);
        assert_eq!(f.injector().faults.link_cuts, 1);
        // The reverse direction is untouched.
        let back = f.send_verb_faulty(
            Cycles::new(5),
            NodeId(1),
            NodeId(0),
            64,
            Verb::Ack,
            Doorbell::Share,
        );
        assert_eq!(back.len(), 1);
        let events = sink.borrow().events().to_vec();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::LinkCut { src: 0, dst: 1 })),
            "the window announces itself on first blocked send"
        );
    }

    #[test]
    fn cut_link_holds_reliable_verbs_until_heal() {
        use hades_fault::{FaultInjector, FaultPlan};
        let mut f = fabric();
        let until = Cycles::new(50_000);
        f.install_injector(FaultInjector::new(FaultPlan::none().cut_link(
            0,
            1,
            Cycles::ZERO,
            until,
        )));
        let p = NetParams::default();
        let arrivals = f.send_verb_faulty(
            Cycles::new(100),
            NodeId(0),
            NodeId(1),
            64,
            Verb::Read,
            Doorbell::Share,
        );
        assert_eq!(
            arrivals[..],
            [until + p.serialize(64) + p.one_way() + p.nic_proc],
            "retransmit-class verbs wait out the cut"
        );
    }

    #[test]
    fn wire_size_includes_header() {
        assert_eq!(wire_size(0, 64), 64);
        assert_eq!(wire_size(2, 64), 192);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let mut f = fabric();
        f.send(Cycles::ZERO, NodeId(1), NodeId(1), 64);
    }
}
