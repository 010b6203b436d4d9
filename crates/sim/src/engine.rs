//! Deterministic discrete-event engine.
//!
//! The entire cluster — every node, core, NIC and the network fabric — is
//! simulated by a single [`EventQueue`] ordered by simulated time. Ties are
//! broken by insertion order, so a run is a pure function of the
//! configuration and RNG seed. This stands in for the SST/DRAMSim2
//! simulation stack the paper used (see DESIGN.md §2).
//!
//! # The retry lane
//!
//! Most events live in a binary heap keyed by `(time, sequence number)`.
//! Events re-armed a fixed delay after *now* — the Locking-Buffer stall
//! retries, the bulk of a contended run's events — skip the heap and go
//! to a FIFO lane instead ([`EventQueue::push_retry`]). The delay is fixed
//! when the queue is built, and *now* never decreases, so each lane entry
//! is due no earlier than the one before it and carries a larger
//! sequence number: the lane is sorted by `(time, sequence number)` by
//! construction. [`EventQueue::pop`] takes the smaller of the heap top
//! and the lane front under that key, and both draw sequence numbers
//! from one counter, so the pop order is exactly that of a single heap
//! holding every event.
//!
//! # Re-arming in place
//!
//! Most retries are polls that cannot succeed yet: the Locking Buffer
//! that denied the access has not changed, so the handler would only
//! push the same event back one retry delay later. Dispatching such a
//! poll is pure overhead. [`EventQueue::pop_rearming`] takes the
//! caller's re-arm predicate and, while the lane front is next and the
//! predicate says it would only re-arm itself, does that re-arm inside
//! the queue: time and the dispatch count advance, and the event goes to
//! the lane's back with a fresh sequence number, exactly as a
//! [`pop`](EventQueue::pop) followed by
//! [`push_retry`](EventQueue::push_retry) would leave the queue, but the
//! event is never handed to the caller.

use crate::time::Cycles;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event scheduled for a point in simulated time.
#[derive(Debug)]
struct Entry<E> {
    at: Cycles,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The total dispatch order: earliest time first, then insertion order.
    fn key(&self) -> (Cycles, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A time-ordered queue of simulation events with deterministic tie-breaking.
///
/// `E` is the protocol-specific event payload; each protocol simulator
/// defines its own event enum and drives its own queue. Events re-armed
/// a fixed delay after now can bypass the heap through the retry lane
/// (see the [module docs](self) and [`push_retry`](Self::push_retry)).
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
    heap: BinaryHeap<Entry<E>>,
    /// Fixed-delay retries, in `(at, seq)` order by construction.
    retries: VecDeque<Entry<E>>,
    retry_delay: Cycles,
    seq: u64,
    now: Cycles,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero whose retry lane re-arms
    /// events at now (no delay).
    pub fn new() -> Self {
        Self::with_retry_delay(Cycles::ZERO)
    }

    /// Creates an empty queue at time zero whose
    /// [`push_retry`](Self::push_retry) schedules events `delay` after now.
    pub fn with_retry_delay(delay: Cycles) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            retries: VecDeque::new(),
            retry_delay: delay,
            seq: 0,
            now: Cycles::ZERO,
            popped: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of events dispatched so far (a cheap progress/fuel measure).
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
        self.heap.push(Entry {
            at,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Schedules `payload` at `delay` after the current simulated time.
    pub fn push_after(&mut self, delay: Cycles, payload: E) {
        self.push_at(self.now + delay, payload);
    }

    /// Schedules `payload` at the queue's fixed retry delay after the
    /// current simulated time, on the FIFO retry lane. Dispatch order is
    /// the same as `push_after(delay, payload)`; only the host cost
    /// differs (an O(1) append instead of a heap sift).
    pub fn push_retry(&mut self, payload: E) {
        let at = self.now + self.retry_delay;
        debug_assert!(self.retries.back().map_or(true, |e| e.at <= at));
        self.retries.push_back(Entry {
            at,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Whether the next event to dispatch is the retry lane's front.
    fn lane_first(&self) -> bool {
        match (self.retries.front(), self.heap.peek()) {
            (Some(r), Some(h)) => r.key() < h.key(),
            (r, _) => r.is_some(),
        }
    }

    /// Removes and returns the earliest event, advancing simulated time to
    /// its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let e = if self.lane_first() {
            self.retries.pop_front()
        } else {
            self.heap.pop()
        }?;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        self.popped += 1;
        Some((e.at, e.payload))
    }

    /// Like [`pop`](Self::pop), but first re-arms in place every
    /// retry-lane event that `rearm` says would only re-arm itself.
    ///
    /// While the lane front is the next event, `rearm` is asked about it
    /// with its due time. On `true` the queue does what a `pop` and then
    /// a [`push_retry`](Self::push_retry) of the same payload would:
    /// simulated time advances to the event, it counts as dispatched,
    /// and it goes to the back of the lane one retry delay later with a
    /// fresh sequence number. On `false`, or once the heap's top is next,
    /// this pops as `pop` does.
    ///
    /// # Examples
    ///
    /// ```
    /// use hades_sim::engine::EventQueue;
    /// use hades_sim::time::Cycles;
    ///
    /// let mut q: EventQueue<u32> = EventQueue::with_retry_delay(Cycles::new(60));
    /// q.push_retry(0); // a poll that keeps failing
    /// q.push_at(Cycles::new(100), 1);
    /// // The poll re-arms at 60 (to 120), then the event at 100 pops.
    /// assert_eq!(q.pop_rearming(|_, &e| e == 0), Some((Cycles::new(100), 1)));
    /// assert_eq!(q.events_dispatched(), 2);
    /// assert_eq!(q.peek_time(), Some(Cycles::new(120)));
    /// ```
    pub fn pop_rearming(
        &mut self,
        mut rearm: impl FnMut(Cycles, &E) -> bool,
    ) -> Option<(Cycles, E)> {
        // Re-arming leaves the heap alone, so its top is read once.
        let heap_next = self.heap.peek().map(Entry::key);
        while let Some(front) = self.retries.front() {
            if heap_next.is_some_and(|h| h < front.key()) || !rearm(front.at, &front.payload) {
                break;
            }
            let mut e = self.retries.pop_front().expect("lane front is next");
            debug_assert!(e.at >= self.now);
            self.now = e.at;
            self.popped += 1;
            e.at = self.now + self.retry_delay;
            e.seq = self.seq;
            self.seq += 1;
            self.retries.push_back(e);
        }
        self.pop()
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycles> {
        if self.lane_first() {
            self.retries.front().map(|e| e.at)
        } else {
            self.heap.peek().map(|e| e.at)
        }
    }

    /// Number of pending events, retry lane included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.retries.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.retries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push_at(Cycles::new(30), 3);
        q.push_at(Cycles::new(10), 1);
        q.push_at(Cycles::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push_at(Cycles::new(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn push_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.push_at(Cycles::new(100), "first");
        q.pop();
        q.push_after(Cycles::new(5), "second");
        assert_eq!(q.pop(), Some((Cycles::new(105), "second")));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push_at(Cycles::new(50), ());
        q.pop();
        q.push_at(Cycles::new(49), ());
    }

    #[test]
    fn dispatch_count_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push_at(Cycles::new(1), ());
        q.push_at(Cycles::new(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.events_dispatched(), 1);
        assert_eq!(q.len(), 1);
    }
}
