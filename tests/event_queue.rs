//! The event queue's retry lane must not change dispatch order.
//!
//! `EventQueue` keeps fixed-delay retries on a FIFO lane beside its
//! binary heap (`hades_sim::engine` module docs). The claim is that the
//! two together pop events in exactly the order one heap would: earliest
//! time first, ties in insertion order. This test drives a seeded random
//! interleaving of `push_at` (random delays, including zero and
//! same-time ties), `push_retry` and `pop` against a reference that
//! keeps every pending event in a plain list and takes the minimum of
//! `(at, insertion index)`, and checks `len`, `is_empty` and `peek_time`
//! against it after every step.
//!
//! `pop_rearming` re-arms lane events in place while a predicate says
//! they would only re-arm themselves. The second test mixes it in with
//! seeded random predicates and checks it against a reference that pops
//! and, when the predicate holds for a popped lane event, pushes it back
//! as a retry: the pops, the predicate's questions, `now`, `len`,
//! `peek_time` and `events_dispatched` must all agree.

use hades::sim::engine::EventQueue;
use hades::sim::rng::SimRng;
use hades::sim::time::Cycles;

/// The obvious implementation: every pending event with its insertion
/// index and whether it is on the retry lane, popped by linear scan for
/// the minimum `(at, index)`.
#[derive(Default)]
struct Reference {
    pending: Vec<(Cycles, u64, u32, bool)>,
    next_index: u64,
    now: Cycles,
    dispatched: u64,
}

impl Reference {
    fn push(&mut self, at: Cycles, payload: u32, lane: bool) {
        self.pending.push((at, self.next_index, payload, lane));
        self.next_index += 1;
    }

    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    /// Pops the earliest event and whether it came off the retry lane.
    fn pop_lane(&mut self) -> Option<(Cycles, u32, bool)> {
        let (at, _, payload, lane) = self.pending.swap_remove(self.earliest()?);
        self.now = at;
        self.dispatched += 1;
        Some((at, payload, lane))
    }

    fn pop(&mut self) -> Option<(Cycles, u32)> {
        self.pop_lane().map(|(at, payload, _)| (at, payload))
    }

    /// Pops, and pushes a popped lane event straight back as a retry
    /// while `rearm` says so.
    fn pop_rearming(
        &mut self,
        delay: Cycles,
        mut rearm: impl FnMut(Cycles, &u32) -> bool,
    ) -> Option<(Cycles, u32)> {
        loop {
            let (at, payload, lane) = self.pop_lane()?;
            if !(lane && rearm(at, &payload)) {
                return Some((at, payload));
            }
            self.push(self.now + delay, payload, true);
        }
    }

    fn peek_time(&self) -> Option<Cycles> {
        self.earliest().map(|i| self.pending[i].0)
    }
}

/// A seeded re-arm predicate that records every question it is asked.
/// It says yes three times in four, so even with no delay a lane event
/// stops re-arming soon.
struct Predicate {
    rng: SimRng,
    asked: Vec<(Cycles, u32)>,
}

impl Predicate {
    fn new(seed: u64) -> Self {
        Predicate {
            rng: SimRng::seed_from(seed),
            asked: Vec::new(),
        }
    }

    fn ask(&mut self, at: Cycles, payload: &u32) -> bool {
        self.asked.push((at, *payload));
        self.rng.below(4) != 0
    }
}

fn check_interleaving(seed: u64, retry_delay: u64, steps: usize, rearming: bool) {
    let mut rng = SimRng::seed_from(seed);
    let delay = Cycles::new(retry_delay);
    let mut q: EventQueue<u32> = EventQueue::with_retry_delay(delay);
    let mut reference = Reference::default();
    let (mut asked_q, mut asked_ref) = (Predicate::new(seed), Predicate::new(seed));
    let mut next_payload = 0u32;
    for step in 0..steps {
        let ctx = format!("seed {seed} delay {retry_delay} step {step}");
        match rng.below(10) {
            // Heap pushes: a small delay range makes same-time ties with
            // each other and with the retry lane common.
            0..=3 => {
                let at = q.now() + Cycles::new(rng.below(2 * retry_delay + 2));
                q.push_at(at, next_payload);
                reference.push(at, next_payload, false);
                next_payload += 1;
            }
            4..=6 => {
                q.push_retry(next_payload);
                reference.push(reference.now + delay, next_payload, true);
                next_payload += 1;
            }
            7 if rearming => {
                let got = q.pop_rearming(|at, p| asked_q.ask(at, p));
                let want = reference.pop_rearming(delay, |at, p| asked_ref.ask(at, p));
                assert_eq!(got, want, "{ctx}: pop_rearming diverged");
                assert_eq!(asked_q.asked, asked_ref.asked, "{ctx}: questions");
            }
            _ => assert_eq!(q.pop(), reference.pop(), "{ctx}: pop diverged"),
        }
        assert_eq!(q.len(), reference.pending.len(), "{ctx}: len");
        assert_eq!(
            q.is_empty(),
            reference.pending.is_empty(),
            "{ctx}: is_empty"
        );
        assert_eq!(q.peek_time(), reference.peek_time(), "{ctx}: peek");
        assert_eq!(q.now(), reference.now, "{ctx}: now");
        assert_eq!(
            q.events_dispatched(),
            reference.dispatched,
            "{ctx}: events_dispatched"
        );
    }
    // Drain: the tails must agree too.
    while let Some(expected) = reference.pop() {
        assert_eq!(q.pop(), Some(expected), "seed {seed}: drain diverged");
    }
    assert_eq!(q.pop(), None);
    assert!(q.is_empty());
}

#[test]
fn retry_lane_pops_in_single_heap_order() {
    for seed in 1..=8 {
        for retry_delay in [0, 1, 60] {
            check_interleaving(seed, retry_delay, 3_000, false);
        }
    }
}

#[test]
fn rearming_pop_matches_pop_then_push_retry() {
    for seed in 1..=8 {
        for retry_delay in [0, 1, 60] {
            check_interleaving(seed, retry_delay, 3_000, true);
        }
    }
}
