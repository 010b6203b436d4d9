//! Deterministic discrete-event engine.
//!
//! The entire cluster — every node, core, NIC and the network fabric — is
//! simulated by a single [`EventQueue`] ordered by simulated time. Ties are
//! broken by insertion order, so a run is a pure function of the
//! configuration and RNG seed. This stands in for the SST/DRAMSim2
//! simulation stack the paper used (see DESIGN.md §2).
//!
//! # Three bands per cycle
//!
//! A queue built with a retry delay `D` ([`EventQueue::with_retry_delay`])
//! orders the events due in one cycle in three bands, by how far ahead
//! of *now* each was pushed:
//!
//! 1. more than `D` ahead: first, in push order;
//! 2. exactly `D` ahead, a *retry*, whether from
//!    [`push_retry`](EventQueue::push_retry) or from
//!    [`push_at`](EventQueue::push_at): next, in lane order;
//! 3. less than `D` ahead: last, in push order.
//!
//! A retry's place in the lane is fixed by the event being dispatched
//! when it is pushed. One pushed by a band-1 event goes before every
//! retry already in the lane, one pushed by a band-3 event after them,
//! in push order either way. One pushed by a band-2 event takes that
//! event's place; a second one goes right behind the first.
//!
//! This is exactly the order of a single heap keyed by time and push
//! sequence number. *Now* never decreases, so sequence numbers order
//! pushes by the cycle they were made in. Of the events due at cycle
//! `t`, those more than `D` ahead were pushed before cycle `t − D`, the
//! retries during it and the rest after it, which is the band order.
//! The retries were pushed in the order cycle `t − D`'s own events ran:
//! band 1, then band 2 in lane order, then band 3. So by induction on
//! `t`, lane order is push order.
//!
//! What the lane buys is that a retry keeps its place across polls
//! without taking a new sequence number, so it need not stay in the
//! queue while its polls cannot succeed.
//! [`park_retry`](EventQueue::park_retry) takes a retry pushed now as a
//! [`Parked`] one, at the place [`push_retry`](EventQueue::push_retry)
//! would give it, and [`unpark`](EventQueue::unpark) puts it back at its
//! next poll cycle, at the place it would have held had every poll in
//! between pushed it back. A retry whose dispatch parks it again before
//! pushing any other retry gets back its own place (the band-2 rule), so
//! a retry parked at each of its polls keeps its place.
//! Which parked retries to wake is the caller's business: waking too
//! many costs a poll, waking too few changes the simulation.
//!
//! With `D = 0` ([`EventQueue::new`]) there is no band 2: every event
//! is in push order and the queue is a plain heap.

use crate::time::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The place of a band-1 event.
const BAND_1: i64 = i64::MIN;
/// The place of a band-3 event.
const BAND_3: i64 = i64::MAX;

/// The `(-(c + 1), seq)` steps of a [`Place::behind`]. Almost always
/// `None`; boxed so that it costs one word.
#[allow(clippy::box_collection)]
type Behind = Option<Box<Vec<(i64, u64)>>>;

/// Where an event sits among the events due in its cycle.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Place {
    /// [`BAND_1`] or [`BAND_3`], or for a retry pushed at cycle `c`
    /// by a band-1 event `-(c + 1)`, by a band-3 event `c + 1`. Later
    /// band-1 pushes thus go in front of the lane, later band-3 pushes
    /// behind it.
    band: i64,
    /// The sequence number of the push that opened the place.
    seq: u64,
    /// Places opened right behind this one by the further retries one
    /// band-2 dispatch pushed, each `(-(c + 1), seq)` like a band-1 push:
    /// a later dispatch's extras go in front of an earlier one's.
    behind: Behind,
}

impl Place {
    fn pushed(band: i64, seq: u64) -> Self {
        Place {
            band,
            seq,
            behind: None,
        }
    }
}

/// Bits of [`Entry::seq_ext`] that hold the [`Place::behind`] index.
const EXT_BITS: u32 = 24;

/// A heap entry: an event's time and place, and the slab slot its
/// payload waits in, so that the heap moves only keys. A place's rare
/// `behind` waits in the queue's side table, and the entry holds its
/// index below the sequence number, so that the key stays three words.
/// Only places opened behind the same one can tie on the time, band and
/// sequence number; see [`EventQueue::first_of_tie`].
#[derive(Debug)]
struct Entry {
    at: Cycles,
    band: i64,
    /// `seq << EXT_BITS`, plus the `behind` index (0 for none).
    seq_ext: u64,
    /// The payload's index in [`EventQueue::slab`].
    slot: u32,
}

// `Entry` is not generic: without `#[inline]`, the heap code each
// engine's crate instantiates calls into this crate at every sift step.
impl Entry {
    #[inline]
    fn key(&self) -> (Cycles, i64, u64) {
        (self.at, self.band, self.seq_ext)
    }

    /// The key less the `behind` index.
    fn tie_key(&self) -> (Cycles, i64, u64) {
        (self.at, self.band, self.seq_ext >> EXT_BITS)
    }

    #[inline]
    fn ext(&self) -> usize {
        (self.seq_ext & ((1 << EXT_BITS) - 1)) as usize
    }
}

impl PartialEq for Entry {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    // Reversed: BinaryHeap is a max-heap, we want the earliest event first.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A retry waiting outside the queue, parked by
/// [`EventQueue::park_retry`]. It keeps its place in the lane until
/// [`EventQueue::unpark`] puts it back.
#[derive(Debug)]
pub struct Parked<E> {
    /// The cycle that parked it: its polls fall on this cycle plus
    /// multiples of the retry delay.
    at: Cycles,
    place: Place,
    payload: E,
}

/// A time-ordered queue of simulation events with deterministic tie-breaking.
///
/// `E` is the protocol-specific event payload; each protocol simulator
/// defines its own event enum and drives its own queue. Retries, events
/// pushed exactly the retry delay ahead, can leave the queue while they
/// wait and come back at their place (see the [module docs](self)).
///
/// The heap holds only keys: each pending payload waits in a slab slot,
/// taken at push and freed for reuse at pop, so a payload moves once in
/// and once out however deep the heap is.
///
/// # Examples
///
/// ```
/// use hades_sim::engine::EventQueue;
/// use hades_sim::time::Cycles;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.push_at(Cycles::new(10), "b");
/// q.push_at(Cycles::new(5), "a");
/// assert_eq!(q.pop(), Some((Cycles::new(5), "a")));
/// assert_eq!(q.now(), Cycles::new(5));
/// assert_eq!(q.pop(), Some((Cycles::new(10), "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    /// The pending payloads, by [`Entry::slot`]; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Indices of `slab` free for reuse.
    free_slots: Vec<u32>,
    /// The `behind` of pending places that have one, by index; index 0
    /// stands for none and is never used.
    behinds: Vec<Behind>,
    /// Indices of `behinds` free for reuse.
    free: Vec<usize>,
    retry_delay: Cycles,
    seq: u64,
    now: Cycles,
    popped: u64,
    /// The place of the event popped last; retries its dispatch pushes
    /// are placed from it.
    last: Place,
    /// Retries pushed since the last pop.
    retries_pushed: u32,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero with no retry delay: a plain
    /// heap, in which [`push_retry`](Self::push_retry) schedules at now.
    pub fn new() -> Self {
        Self::with_retry_delay(Cycles::ZERO)
    }

    /// Creates an empty queue at time zero whose retries are the events
    /// pushed `delay` after now.
    pub fn with_retry_delay(delay: Cycles) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            behinds: vec![None],
            free: Vec::new(),
            retry_delay: delay,
            seq: 0,
            now: Cycles::ZERO,
            popped: 0,
            last: Place::pushed(BAND_1, 0),
            retries_pushed: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of events popped so far (a cheap progress/fuel measure).
    /// The polls a parked retry skips while it waits outside the queue
    /// are not counted.
    pub fn events_dispatched(&self) -> u64 {
        self.popped
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulated time; events
    /// cannot be scheduled in the past.
    pub fn push_at(&mut self, at: Cycles, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {now}",
            now = self.now
        );
        let ahead = at - self.now;
        let place = if self.retry_delay == Cycles::ZERO || ahead > self.retry_delay {
            Place::pushed(BAND_1, self.seq)
        } else if ahead < self.retry_delay {
            Place::pushed(BAND_3, self.seq)
        } else {
            self.retry_place()
        };
        self.seq += 1;
        self.enqueue(at, place, payload);
    }

    fn enqueue(&mut self, at: Cycles, place: Place, payload: E) {
        let Place { band, seq, behind } = place;
        assert!(seq < 1 << (64 - EXT_BITS), "sequence numbers exhausted");
        let ext = match behind {
            None => 0,
            Some(behind) => {
                let ext = self.free.pop().unwrap_or_else(|| {
                    self.behinds.push(None);
                    self.behinds.len() - 1
                });
                assert!(ext < 1 << EXT_BITS, "too many places behind others");
                self.behinds[ext] = Some(behind);
                ext
            }
        };
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("too many pending events")
        });
        self.slab[slot as usize] = Some(payload);
        self.heap.push(Entry {
            at,
            band,
            seq_ext: seq << EXT_BITS | ext as u64,
            slot,
        });
    }

    /// Removes the earliest event: its time, place and payload.
    fn take_next(&mut self) -> Option<(Cycles, Place, E)> {
        let mut e = self.heap.pop()?;
        let behind = match e.ext() {
            0 => None,
            _ => {
                e = self.first_of_tie(e);
                self.free.push(e.ext());
                self.behinds[e.ext()].take()
            }
        };
        let place = Place {
            band: e.band,
            seq: e.seq_ext >> EXT_BITS,
            behind,
        };
        let payload = self.slab[e.slot as usize].take().expect("pending");
        self.free_slots.push(e.slot);
        Some((e.at, place, payload))
    }

    /// The first, by whole place, of `e` and the entries that tie with
    /// it on time, band and sequence number: places opened behind one
    /// another's ([`Place::behind`]), a rare case. The others go back on
    /// the heap. Of those, the one with no `behind` has the smallest key
    /// and comes first, so `e` has one.
    fn first_of_tie(&mut self, e: Entry) -> Entry {
        let key = e.tie_key();
        let mut tied = vec![e];
        while self.heap.peek().is_some_and(|n| n.tie_key() == key) {
            tied.push(self.heap.pop().expect("peeked"));
        }
        let behind = |e: &Entry| &self.behinds[e.ext()];
        let first = (0..tied.len())
            .min_by(|&i, &j| behind(&tied[i]).cmp(behind(&tied[j])))
            .expect("tied holds e");
        let e = tied.swap_remove(first);
        self.heap.extend(tied);
        e
    }

    /// The lane place of a retry pushed now (module docs).
    fn retry_place(&mut self) -> Place {
        let (cycle, seq) = (self.now.get() as i64 + 1, self.seq);
        match self.last.band {
            BAND_1 => Place::pushed(-cycle, seq),
            BAND_3 => Place::pushed(cycle, seq),
            _ => {
                self.retries_pushed += 1;
                let mut place = self.last.clone();
                if self.retries_pushed > 1 {
                    place
                        .behind
                        .get_or_insert_with(Box::default)
                        .push((-cycle, seq));
                }
                place
            }
        }
    }

    /// Schedules `payload` at `delay` after the current simulated time.
    pub fn push_after(&mut self, delay: Cycles, payload: E) {
        self.push_at(self.now + delay, payload);
    }

    /// Schedules `payload` as a retry: the queue's fixed retry delay
    /// after the current simulated time. Exactly
    /// `push_after(delay, payload)`.
    pub fn push_retry(&mut self, payload: E) {
        self.push_after(self.retry_delay, payload);
    }

    /// Takes `payload` as a retry pushed now and parks it before its
    /// first poll: it holds the place [`push_retry`](Self::push_retry)
    /// would give it, outside the queue, until [`unpark`](Self::unpark).
    ///
    /// # Examples
    ///
    /// ```
    /// use hades_sim::engine::EventQueue;
    /// use hades_sim::time::Cycles;
    ///
    /// let mut q: EventQueue<u32> = EventQueue::with_retry_delay(Cycles::new(60));
    /// q.push_at(Cycles::new(100), 1);
    /// let poll = q.park_retry(0); // it would poll at 60, 120, ...
    /// assert_eq!(q.pop(), Some((Cycles::new(100), 1)));
    /// // Woken at 100, the retry polls next at 120.
    /// q.unpark(poll);
    /// assert_eq!(q.pop(), Some((Cycles::new(120), 0)));
    /// ```
    pub fn park_retry(&mut self, payload: E) -> Parked<E> {
        debug_assert!(
            self.retry_delay > Cycles::ZERO,
            "no retries without a delay"
        );
        let place = self.retry_place();
        self.seq += 1;
        Parked {
            at: self.now,
            place,
            payload,
        }
    }

    /// Removes and returns the earliest event, advancing simulated time to
    /// its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let (at, place, payload) = self.take_next()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.popped += 1;
        self.retries_pushed = 0;
        self.last = place;
        Some((at, payload))
    }

    /// Puts a parked retry back at its next poll cycle: the first one
    /// from now on at which its place is still ahead, which is this
    /// cycle if the event popped last comes before it.
    pub fn unpark(&mut self, retry: Parked<E>) {
        let Parked { at, place, payload } = retry;
        let delay = self.retry_delay.get();
        let polls = self
            .now
            .get()
            .saturating_sub(at.get())
            .div_ceil(delay)
            .max(1);
        let mut at = at + self.retry_delay * polls;
        if at == self.now && place <= self.last {
            at += self.retry_delay;
        }
        self.enqueue(at, place, payload);
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events; parked retries are not pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}
