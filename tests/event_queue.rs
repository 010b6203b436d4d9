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

use hades::sim::engine::EventQueue;
use hades::sim::rng::SimRng;
use hades::sim::time::Cycles;

/// The obvious implementation: every pending event with its insertion
/// index, popped by linear scan for the minimum `(at, index)`.
#[derive(Default)]
struct Reference {
    pending: Vec<(Cycles, u64, u32)>,
    next_index: u64,
    now: Cycles,
}

impl Reference {
    fn push(&mut self, at: Cycles, payload: u32) {
        self.pending.push((at, self.next_index, payload));
        self.next_index += 1;
    }

    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn pop(&mut self) -> Option<(Cycles, u32)> {
        let (at, _, payload) = self.pending.swap_remove(self.earliest()?);
        self.now = at;
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<Cycles> {
        self.earliest().map(|i| self.pending[i].0)
    }
}

fn check_interleaving(seed: u64, retry_delay: u64, steps: usize) {
    let mut rng = SimRng::seed_from(seed);
    let delay = Cycles::new(retry_delay);
    let mut q: EventQueue<u32> = EventQueue::with_retry_delay(delay);
    let mut reference = Reference::default();
    let mut next_payload = 0u32;
    for step in 0..steps {
        match rng.below(10) {
            // Heap pushes: a small delay range makes same-time ties with
            // each other and with the retry lane common.
            0..=3 => {
                let at = q.now() + Cycles::new(rng.below(2 * retry_delay + 2));
                q.push_at(at, next_payload);
                reference.push(at, next_payload);
                next_payload += 1;
            }
            4..=6 => {
                q.push_retry(next_payload);
                reference.push(reference.now + delay, next_payload);
                next_payload += 1;
            }
            _ => {
                assert_eq!(
                    q.pop(),
                    reference.pop(),
                    "seed {seed} delay {retry_delay}: pop diverged at step {step}"
                );
            }
        }
        assert_eq!(q.len(), reference.pending.len(), "step {step}: len");
        assert_eq!(
            q.is_empty(),
            reference.pending.is_empty(),
            "step {step}: is_empty"
        );
        assert_eq!(q.peek_time(), reference.peek_time(), "step {step}: peek");
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
            check_interleaving(seed, retry_delay, 3_000);
        }
    }
}
