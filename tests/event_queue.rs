//! The event queue's three bands and parked retries must not change
//! dispatch order.
//!
//! `EventQueue` orders each cycle's events in three bands: pushed more
//! than the retry delay `D` ahead, exactly `D` ahead (retries, in lane
//! order) and less than `D` ahead (`hades_sim::engine` module docs). The
//! claim is that this pops events in exactly the order one heap would:
//! earliest time first, ties in insertion order. The first test drives a
//! seeded random interleaving of `push_at` (delays 0, D − 1, D, D + 1,
//! 2D and random ones), `push_retry` and `pop` against a reference that
//! keeps every pending event in a plain list and takes the minimum of
//! `(at, insertion index)`, and checks `now`, `len`, `is_empty` and
//! `peek_time` against it after every step. Retries are pushed while
//! band-1, band-2 and band-3 events are being dispatched.
//!
//! A retry can also park: `pop_parking` hands it out while a predicate
//! says its poll would only push it back, `park_retry` parks a blocked
//! retry before its first poll, and `unpark` puts it back at its next
//! poll. The second test parks retries under a seeded,
//! versioned predicate (a retry is blocked while its group is) and wakes
//! a group's parked retries whenever the group's version moves. Its
//! reference never parks: it re-pushes a blocked retry `D` later under
//! a new insertion index at every poll. Pops and `now` must agree; the
//! queue's `len` and `peek_time` must match the reference's pending
//! events less those the queue holds parked.

use hades::sim::engine::{EventQueue, Parked, Popped};
use hades::sim::rng::SimRng;
use hades::sim::time::Cycles;

/// Retries are blocked and woken by group.
const GROUPS: u32 = 4;

fn group(payload: u32) -> usize {
    (payload % GROUPS) as usize
}

/// One pending event of the reference.
struct Pending {
    at: Cycles,
    index: u64,
    payload: u32,
    /// How far ahead of now it was pushed.
    ahead: Cycles,
    /// Re-pushed by a blocked poll since its group last moved: the queue
    /// holds it parked.
    parked: bool,
}

/// The obvious implementation: every pending event with its insertion
/// index, popped by linear scan for the minimum `(at, index)`.
struct Reference {
    delay: Cycles,
    pending: Vec<Pending>,
    next_index: u64,
    now: Cycles,
    /// Whether the event popped last was pushed more than, exactly or
    /// less than `D` ahead.
    last_band: usize,
}

impl Reference {
    fn new(delay: Cycles) -> Self {
        Reference {
            delay,
            pending: Vec::new(),
            next_index: 0,
            now: Cycles::ZERO,
            last_band: 1,
        }
    }

    fn push(&mut self, at: Cycles, payload: u32) {
        self.pending.push(Pending {
            at,
            index: self.next_index,
            payload,
            ahead: at - self.now,
            parked: false,
        });
        self.next_index += 1;
    }

    /// Band 2: pushed exactly `D` ahead.
    fn is_retry(&self, p: &Pending) -> bool {
        self.delay > Cycles::ZERO && p.ahead == self.delay
    }

    fn earliest(&self, among: impl Fn(&Pending) -> bool) -> Option<usize> {
        (0..self.pending.len())
            .filter(|&i| among(&self.pending[i]))
            .min_by_key(|&i| (self.pending[i].at, self.pending[i].index))
    }

    /// Pops the earliest event; a blocked retry is re-pushed `D` later
    /// instead, and the scan goes on.
    fn pop(&mut self, blocked: &[bool]) -> Option<(Cycles, u32)> {
        loop {
            let p = self.pending.swap_remove(self.earliest(|_| true)?);
            self.now = p.at;
            let retry = self.is_retry(&p);
            if retry && blocked[group(p.payload)] {
                self.push(p.at + self.delay, p.payload);
                self.pending.last_mut().expect("just pushed").parked = true;
                continue;
            }
            self.last_band = match retry {
                true => 2,
                false if p.ahead > self.delay => 1,
                false => 3,
            };
            return Some((p.at, p.payload));
        }
    }

    /// Whether every pending event is a blocked retry, so a pop would
    /// poll forever.
    fn stuck(&self, blocked: &[bool]) -> bool {
        self.pending
            .iter()
            .all(|p| self.is_retry(p) && blocked[group(p.payload)])
    }

    /// The group's version moved: its parked retries are woken.
    fn wake(&mut self, g: usize) {
        for p in &mut self.pending {
            if group(p.payload) == g {
                p.parked = false;
            }
        }
    }
}

fn check_interleaving(seed: u64, retry_delay: u64, steps: usize, parking: bool) {
    let mut rng = SimRng::seed_from(seed);
    let delay = Cycles::new(retry_delay);
    let mut q: EventQueue<u32> = EventQueue::with_retry_delay(delay);
    let mut reference = Reference::new(delay);
    let mut blocked = [false; GROUPS as usize];
    if parking {
        for b in &mut blocked {
            *b = rng.below(2) == 0;
        }
    }
    let mut parked: Vec<Parked<u32>> = Vec::new();
    // Retries pushed while a band-1, band-2 and band-3 event ran.
    let mut retries_by_band = [0u32; 4];
    let mut next_payload = 0u32;
    for step in 0..steps {
        let ctx = format!("seed {seed} delay {retry_delay} step {step}");
        match rng.below(10) {
            0..=3 => {
                let ahead = match rng.below(6) {
                    0 => 0,
                    1 => retry_delay.saturating_sub(1),
                    2 => retry_delay,
                    3 => retry_delay + 1,
                    4 => 2 * retry_delay,
                    _ => rng.below(2 * retry_delay + 2),
                };
                let at = q.now() + Cycles::new(ahead);
                q.push_at(at, next_payload);
                reference.push(at, next_payload);
                if ahead == retry_delay && retry_delay > 0 {
                    retries_by_band[reference.last_band] += 1;
                }
                next_payload += 1;
            }
            4 | 5 => {
                reference.push(reference.now + delay, next_payload);
                if parking && blocked[group(next_payload)] && rng.below(2) == 0 {
                    // Parked before its first poll, as a retry whose bank
                    // just denied it is.
                    parked.push(q.park_retry(next_payload));
                    reference.pending.last_mut().expect("just pushed").parked = true;
                } else {
                    q.push_retry(next_payload);
                }
                retries_by_band[reference.last_band] += 1;
                next_payload += 1;
            }
            8 if parking => {
                // A version bump; half of them leave the group's answer
                // unchanged, which must be harmless.
                let g = rng.below(u64::from(GROUPS)) as usize;
                if rng.below(2) == 0 {
                    blocked[g] = !blocked[g];
                }
                reference.wake(g);
                let (woken, still): (Vec<_>, Vec<_>) =
                    parked.drain(..).partition(|p| group(*p.payload()) == g);
                parked = still;
                for p in woken {
                    q.unpark(p);
                }
            }
            _ if reference.stuck(&blocked) => {}
            _ => {
                let want = reference.pop(&blocked);
                let got = loop {
                    match q.pop_parking(|_, &p| blocked[group(p)]) {
                        Some(Popped::Parked(p)) => parked.push(p),
                        Some(Popped::Event(at, p)) => break Some((at, p)),
                        None => break None,
                    }
                };
                assert_eq!(got, want, "{ctx}: pop diverged");
            }
        }
        let queued = reference.pending.iter().filter(|p| !p.parked).count();
        assert_eq!(q.len(), queued, "{ctx}: len");
        assert_eq!(q.is_empty(), queued == 0, "{ctx}: is_empty");
        let held = reference.pending.iter().filter(|p| p.parked).count();
        assert_eq!(parked.len(), held, "{ctx}: parked");
        let peek = reference
            .earliest(|p| !p.parked)
            .map(|i| reference.pending[i].at);
        assert_eq!(q.peek_time(), peek, "{ctx}: peek");
        assert_eq!(q.now(), reference.now, "{ctx}: now");
    }
    if retry_delay > 0 {
        assert!(
            retries_by_band[1..].iter().all(|&n| n > 0),
            "seed {seed}: retries pushed per band {retries_by_band:?}"
        );
    }
    // Drain, every group unblocked: the tails must agree too.
    blocked = [false; GROUPS as usize];
    for p in parked.drain(..) {
        q.unpark(p);
    }
    while let Some(expected) = reference.pop(&blocked) {
        assert_eq!(q.pop(), Some(expected), "seed {seed}: drain diverged");
    }
    assert_eq!(q.pop(), None);
    assert!(q.is_empty());
}

#[test]
fn retry_lane_pops_in_single_heap_order() {
    for seed in 1..=8 {
        for retry_delay in [0, 1, 2, 60] {
            check_interleaving(seed, retry_delay, 3_000, false);
        }
    }
}

#[test]
fn parked_retries_pop_as_if_polled_every_delay() {
    for seed in 1..=8 {
        for retry_delay in [1, 2, 60] {
            check_interleaving(seed, retry_delay, 3_000, true);
        }
    }
}
