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

use crate::batch::{BatchRole, BatchStats, Batcher, Doorbell, Flushes};
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

/// Up to `N` values held inline, in the order they were pushed, so a
/// send allocates nothing; it reads as a slice and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inline<T, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> Default for Inline<T, N> {
    fn default() -> Self {
        Inline {
            len: 0,
            items: [T::default(); N],
        }
    }
}

impl<T, const N: usize> Inline<T, N> {
    /// Appends a value.
    ///
    /// # Panics
    ///
    /// Panics if `N` values are already held.
    pub(crate) fn push(&mut self, v: T) {
        assert!((self.len as usize) < N, "at most {N} values fit");
        self.items[self.len as usize] = v;
        self.len += 1;
    }
}

impl<T, const N: usize> std::ops::Deref for Inline<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<T, const N: usize> IntoIterator for Inline<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len as usize)
    }
}

/// The arrival times of one send's delivered copies: none (lost), one,
/// or two (an original and its duplicate).
pub type Arrivals = Inline<Cycles, 2>;

impl Arrivals {
    /// The arrival of a send that delivers exactly one copy: any
    /// fault-exempt send, and any Retransmit-class send
    /// (`hades_fault::class_of`).
    ///
    /// # Panics
    ///
    /// Panics unless exactly one copy was delivered.
    pub fn only(self) -> Cycles {
        assert_eq!(self.len, 1, "a send that delivers exactly once");
        self.items[0]
    }
}

/// What one send did: the arrival of every delivered copy, the sizes of
/// the batches it closed (older first), and whether a cut or
/// flapped-down link blocked it. The fabric has traced all of it; the
/// cluster feeds its observers from this one value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendReport {
    /// Arrival time of each delivered copy (empty = lost).
    pub arrivals: Arrivals,
    /// Batches the send closed, each flush stamped at the send instant.
    pub flushes: Flushes,
    /// Whether the send hit a cut or flapped-down link.
    pub link_cut: bool,
}

/// One message's wire fields.
#[derive(Debug, Clone, Copy)]
struct Msg {
    src: NodeId,
    dst: NodeId,
    bytes: usize,
    verb: Verb,
    doorbell: Doorbell,
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

    /// Closes all open batches and returns the run's batching counters
    /// (`None` when the subsystem is off).
    pub fn take_batch_stats(&mut self) -> Option<BatchStats> {
        self.batch.as_deref_mut().map(Batcher::finish)
    }

    /// Installs a fault injector; subsequent
    /// [`send_verb`](Self::send_verb) calls sample it.
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

    /// Schedules an untagged, fault-exempt message of `bytes` from `src`
    /// to `dst` at time `now`; returns its arrival time at the
    /// destination NIC.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (local operations never touch the fabric) or
    /// if either node is out of range.
    pub fn send(&mut self, now: Cycles, src: NodeId, dst: NodeId, bytes: usize) -> Cycles {
        let m = Msg {
            src,
            dst,
            bytes,
            verb: Verb::Other,
            doorbell: Doorbell::Share,
        };
        self.deliver(now, &m, None, &mut Flushes::default())
    }

    /// Sends one copy of a message past the fault injector: no injected
    /// fault touches it. `verb` tags the message for the per-verb traffic
    /// breakdown and trace events; `doorbell` says whether it may share
    /// a doorbell when batching is on (ignored otherwise).
    ///
    /// # Panics
    ///
    /// Same conditions as [`send`](Self::send).
    pub fn send_fault_exempt(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        verb: Verb,
        doorbell: Doorbell,
    ) -> SendReport {
        let mut sent = SendReport::default();
        let m = Msg {
            src,
            dst,
            bytes,
            verb,
            doorbell,
        };
        let arrival = self.deliver(now, &m, None, &mut sent.flushes);
        sent.arrivals.push(arrival);
        sent
    }

    /// Sends a message through the fault plane: like
    /// [`send_fault_exempt`](Self::send_fault_exempt), but the installed
    /// injector may drop, duplicate, delay or jitter it, hold it at a cut
    /// link, or hold it at a NIC stall window, as the verb's fault class
    /// allows.
    ///
    /// With an inert injector this is exactly one fault-exempt send —
    /// same counters, same timing, no extra randomness — preserving byte
    /// identity with un-injected runs.
    ///
    /// # Panics
    ///
    /// Same conditions as [`send`](Self::send), for each delivered copy.
    pub fn send_verb(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        verb: Verb,
        doorbell: Doorbell,
    ) -> SendReport {
        if !self.injector.active() {
            return self.send_fault_exempt(now, src, dst, bytes, verb, doorbell);
        }
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
        let mut sent = SendReport {
            link_cut: faults
                .injected
                .iter()
                .any(|f| matches!(f, InjectedFault::LinkCut { .. })),
            ..SendReport::default()
        };
        let m = Msg {
            src,
            dst,
            bytes,
            verb,
            doorbell,
        };
        for &extra in &faults.copies {
            let arrival = self.deliver(now, &m, Some(extra), &mut sent.flushes);
            sent.arrivals.push(arrival);
        }
        sent
    }

    /// Delivers one copy of `m` sent at `now` and returns its arrival:
    /// checks its endpoints, counts it, routes it and traces it. `fault`
    /// is `None` on the fault-exempt path; on the injector's path it is
    /// the copy's injected delay, and the destination's NIC stall windows
    /// may hold the arrival. An on-time copy routes through the batcher
    /// when one is installed, which traces the batches it closes (and any
    /// coalesced squash) and stores their sizes in `flushes`; any other
    /// copy takes the classic additive path. A send has at most one
    /// on-time copy.
    // Forced inline: called out of line, with the report built around
    // the call, it slowed every cluster send.
    #[inline(always)]
    fn deliver(
        &mut self,
        now: Cycles,
        m: &Msg,
        fault: Option<Cycles>,
        flushes: &mut Flushes,
    ) -> Cycles {
        let Msg {
            src,
            dst,
            bytes,
            verb,
            doorbell,
        } = *m;
        assert_ne!(src, dst, "loopback messages are not modeled");
        assert!((dst.0 as usize) < self.nodes, "bad dst {dst}");
        assert!((src.0 as usize) < self.nodes, "bad src {src}");
        self.messages += 1;
        self.bytes += bytes as u64;
        self.verbs.bump(verb);
        let p = &self.params;
        let unbatched = now + p.serialize(bytes) + p.one_way() + p.nic_proc;
        let mut arrival = match (fault, self.batch.as_deref_mut()) {
            // Faults act on individual verbs, not batch envelopes: a
            // delayed or reordered copy models a verb that missed its
            // batch — it flies solo on the unbatched path and is exempt
            // from the per-queue-pair FIFO fence (reordering must stay
            // possible).
            (Some(extra), _) if extra > Cycles::ZERO => unbatched + extra,
            (_, None) => unbatched,
            (_, Some(b)) => {
                let s = b.schedule(now, src, dst, bytes, verb, doorbell);
                if self.tracer.is_enabled() {
                    if s.role == BatchRole::CoalescedSquash {
                        let coalesced = EventKind::BatchCoalesced { dst: dst.0 };
                        self.tracer.emit(now, src.0, NO_SLOT, coalesced);
                    }
                    for size in s.flushed {
                        let flushed = EventKind::BatchFlushed { dst: dst.0, size };
                        self.tracer.emit(now, src.0, NO_SLOT, flushed);
                    }
                }
                *flushes = s.flushed;
                s.arrival
            }
        };
        if fault.is_some() {
            if let Some(release) = self.injector.stall_release(dst.0, arrival) {
                arrival = arrival.max(release);
                if self.tracer.is_enabled() {
                    let stall = EventKind::FaultInjected {
                        fault: InjectedFault::NicStall,
                    };
                    self.tracer.emit(arrival, dst.0, NO_SLOT, stall);
                }
            }
        }
        if self.tracer.is_enabled() {
            let bytes = bytes as u32;
            let send = EventKind::VerbSend {
                verb,
                dst: dst.0,
                bytes,
            };
            self.tracer.emit(now, src.0, NO_SLOT, send);
            let recv = EventKind::VerbRecv {
                verb,
                src: src.0,
                bytes,
            };
            self.tracer.emit(arrival, dst.0, NO_SLOT, recv);
        }
        arrival
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
        let arrive = f
            .send_fault_exempt(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                96,
                Verb::Intend,
                Doorbell::Share,
            )
            .arrivals
            .only();
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
        let t1 = a
            .send_fault_exempt(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                96,
                Verb::Intend,
                Doorbell::Share,
            )
            .arrivals
            .only();
        let t2 = b
            .send_verb(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                96,
                Verb::Intend,
                Doorbell::Share,
            )
            .arrivals;
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
        let arrivals = f
            .send_verb(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                64,
                Verb::Ack,
                Doorbell::Share,
            )
            .arrivals;
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
        let arrivals = f
            .send_verb(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                64,
                Verb::Read,
                Doorbell::Share,
            )
            .arrivals;
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
        let t = f
            .send_fault_exempt(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                64,
                Verb::Intend,
                Doorbell::Share,
            )
            .arrivals
            .only();
        assert_eq!(t, plain, "the fabric charges no doorbell of its own");
        // A second simultaneous verb does not queue behind the first.
        let t2 = f
            .send_fault_exempt(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                64,
                Verb::Intend,
                Doorbell::Share,
            )
            .arrivals
            .only();
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
        f.send_fault_exempt(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Read,
            Doorbell::Share,
        );
        f.send_fault_exempt(
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
        let lead = f
            .send_fault_exempt(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                64,
                Verb::Intend,
                Doorbell::Share,
            )
            .arrivals
            .only();
        let join = f
            .send_fault_exempt(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                64,
                Verb::Intend,
                Doorbell::Share,
            )
            .arrivals
            .only();
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
        f.send_fault_exempt(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Intend,
            Doorbell::Share,
        );
        let sent = f.send_fault_exempt(
            Cycles::ZERO,
            NodeId(0),
            NodeId(1),
            64,
            Verb::Intend,
            Doorbell::Share,
        );
        assert_eq!(sent.flushes[..], [2], "the report carries the flush");
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
        let arrivals = f
            .send_verb(
                Cycles::ZERO,
                NodeId(0),
                NodeId(1),
                64,
                Verb::Ack,
                Doorbell::Share,
            )
            .arrivals;
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
        f.send_fault_exempt(
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
        let lost = f.send_verb(
            Cycles::new(5),
            NodeId(0),
            NodeId(1),
            64,
            Verb::Ack,
            Doorbell::Share,
        );
        assert!(
            lost.arrivals.is_empty(),
            "lossy verb into a cut link is gone"
        );
        assert!(lost.link_cut, "the send reports the cut it hit");
        assert_eq!(f.messages_sent(), 0);
        assert_eq!(f.injector().faults.link_cuts, 1);
        // The reverse direction is untouched.
        let back = f.send_verb(
            Cycles::new(5),
            NodeId(1),
            NodeId(0),
            64,
            Verb::Ack,
            Doorbell::Share,
        );
        assert_eq!(back.arrivals.len(), 1);
        assert!(!back.link_cut);
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
        let arrivals = f
            .send_verb(
                Cycles::new(100),
                NodeId(0),
                NodeId(1),
                64,
                Verb::Read,
                Doorbell::Share,
            )
            .arrivals;
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
