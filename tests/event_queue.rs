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
//! A retry can also park, as the driver parks a stalled access: the
//! handler that pops a blocked retry parks it at once (`park_retry`),
//! before pushing anything else, and `unpark` puts it back at its next
//! poll when it is woken. The second test parks retries under a
//! seeded, versioned predicate (a retry is blocked while its group is)
//! and wakes a group's parked retries whenever the group's version
//! moves. Its reference never parks: it re-pushes a blocked retry `D`
//! later under a new insertion index at every poll. Pops and `now` must
//! agree; the queue's `len` and `peek_time` must match the reference's
//! pending events less those the queue holds parked.
//!
//! The directed tests below pin the plain heap's basics and the edge
//! cases a handler that parks its own retry relies on.

use hades::sim::engine::{EventQueue, Parked};
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
    // Each parked retry with its payload.
    let mut parked: Vec<(u32, Parked<u32>)> = Vec::new();
    // Whether each payload was pushed exactly `D` ahead: a retry.
    let mut is_retry: Vec<bool> = Vec::new();
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
                is_retry.push(ahead == retry_delay && retry_delay > 0);
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
                    parked.push((next_payload, q.park_retry(next_payload)));
                    reference.pending.last_mut().expect("just pushed").parked = true;
                } else {
                    q.push_retry(next_payload);
                }
                is_retry.push(retry_delay > 0);
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
                    parked.drain(..).partition(|&(p, _)| group(p) == g);
                parked = still;
                for (_, p) in woken {
                    q.unpark(p);
                }
            }
            _ if reference.stuck(&blocked) => {}
            _ => {
                let want = reference.pop(&blocked);
                // The handler of a blocked retry parks it again at once.
                let got = loop {
                    match q.pop() {
                        Some((_, p)) if is_retry[p as usize] && blocked[group(p)] => {
                            parked.push((p, q.park_retry(p)));
                        }
                        popped => break popped,
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
    for (_, p) in parked.drain(..) {
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

#[test]
fn a_retry_keeps_its_place_while_parked() {
    let d = Cycles::new(10);
    let mut q = EventQueue::with_retry_delay(d);
    q.push_at(d, "a");
    q.push_at(d, "b");
    // a polls first, and its dispatch parks it again.
    assert_eq!(q.pop(), Some((d, "a")));
    let a = q.park_retry("a");
    // b's dispatch pushes a retry, which takes b's place behind a.
    assert_eq!(q.pop(), Some((d, "b")));
    q.push_retry("b2");
    q.push_at(Cycles::new(35), "late");
    assert_eq!(q.pop(), Some((d * 2, "b2")));
    // Woken at 20, after b2: a's next poll is at 30, where it goes
    // first again.
    q.unpark(a);
    q.push_at(Cycles::new(30), "c");
    assert_eq!(q.pop(), Some((d * 3, "a")));
    assert_eq!(q.pop(), Some((d * 3, "c")));
    assert_eq!(q.pop(), Some((Cycles::new(35), "late")));
}

/// Retries `v`, `x`, `y` and `z` poll every `D = 10` from cycle 10,
/// in that lane order; `v`, `y` and `z` until cycle 40. `x`'s access is
/// denied at its first poll. Its dispatch pushes three non-retry
/// events, `soon` (band 3), `mark` and `late` (band 1), then its own
/// retry, then a second retry `x2`. `x` stays denied until the event
/// `waker` names, at the cycle it names, is dispatched. With `park`,
/// `x`'s retry is parked at its denial and unparked by the waker;
/// without, `x` pushes itself back at every denied poll. Returns the
/// dispatches as `cycle:event,event,...` per cycle, `x`'s denied polls
/// left out.
fn stalled_x(park: bool, waker: (u64, &str)) -> String {
    let d = Cycles::new(10);
    let mut q = EventQueue::with_retry_delay(d);
    for e in ["v", "x", "y", "z"] {
        q.push_at(d, e);
    }
    q.push_at(Cycles::new(40), "w");
    let (mut parked, mut denied) = (None, true);
    let (mut seen, mut cycle) = (String::new(), 0);
    while let Some((at, e)) = q.pop() {
        let now = at.get();
        if (now, e) == waker {
            denied = false;
            if let Some(x) = parked.take() {
                q.unpark(x);
            }
        }
        match e {
            "x" if now == 10 => {
                q.push_at(at + Cycles::new(3), "soon");
                q.push_at(Cycles::new(30), "mark");
                q.push_at(Cycles::new(35), "late");
                if park {
                    parked = Some(q.park_retry("x"));
                } else {
                    q.push_retry("x");
                }
                q.push_retry("x2");
            }
            "x" if denied => {
                q.push_retry("x");
                continue;
            }
            "v" | "y" | "z" if now < 40 => q.push_retry(e),
            _ => {}
        }
        if now == cycle {
            seen += &format!(",{e}");
        } else {
            seen += &format!(" {now}:{e}");
            cycle = now;
        }
    }
    seen.trim_start().to_string()
}

#[test]
fn a_retry_parked_at_dispatch_comes_back_at_its_polled_place() {
    // At 20, `x2` polls right behind `x`'s place, between `v` and `y`.
    // The non-retry pushes before the park leave `x` its place, so it
    // comes back after `v` and before `y`: at 30 when woken before the
    // lane, at 40 when woken after its place (by `z`) or at 35.
    let head = "10:v,x,y,z 13:soon 20:v,x2,y,z";
    let before_lane = format!("{head} 30:mark,v,x,y,z 35:late 40:w,v,y,z");
    let after_lane = format!("{head} 30:mark,v,y,z 35:late 40:w,v,x,y,z");
    for (waker, expected) in [
        ((30, "mark"), &before_lane),
        ((30, "z"), &after_lane),
        ((35, "late"), &after_lane),
    ] {
        assert_eq!(&stalled_x(false, waker), expected, "polled, {waker:?}");
        assert_eq!(&stalled_x(true, waker), expected, "parked, {waker:?}");
    }
}

/// The queue holds each pending payload alone and moves it out at
/// `pop`: it keeps no copy of a popped payload, and dropping the queue
/// drops every payload still pending. `Rc` strong counts show it, with
/// events in all three bands, a band-2 dispatch's own retry and a
/// parked retry that is woken.
#[test]
fn the_queue_moves_payloads_and_drops_the_pending_ones() {
    use std::rc::Rc;
    let d = Cycles::new(10);
    let mut q = EventQueue::with_retry_delay(d);
    let [far, retry, soon, parked, again, late] =
        ["far", "retry", "soon", "parked", "again", "late"].map(Rc::new);
    let count = |rc: &Rc<&str>| Rc::strong_count(rc);
    q.push_at(Cycles::new(25), Rc::clone(&far)); // band 1
    q.push_retry(Rc::clone(&retry)); // band 2, at 10
    q.push_at(Cycles::new(5), Rc::clone(&soon)); // band 3
    let parked_retry = q.park_retry(Rc::clone(&parked)); // polls at 10, 20, ...
    assert!([&far, &retry, &soon, &parked]
        .iter()
        .all(|rc| count(rc) == 2));

    let popped = |q: &mut EventQueue<Rc<&str>>, at: u64, rc: &Rc<&str>| {
        let (when, e) = q.pop().expect("pending");
        assert_eq!((when, *e), (Cycles::new(at), **rc));
        assert!(Rc::ptr_eq(&e, rc), "{}: the pushed payload itself", **rc);
        assert_eq!(count(rc), 2, "{}: held by the caller alone", **rc);
        drop(e);
        assert_eq!(count(rc), 1, "{}: released with the caller's", **rc);
    };
    popped(&mut q, 5, &soon);
    popped(&mut q, 10, &retry);
    // The band-2 dispatch pushes its own retry and a band-1 event, which
    // reuse freed slots, and wakes the parked retry: its place in the
    // lane is behind `retry`'s, so it still polls at 10.
    q.push_retry(Rc::clone(&again));
    q.push_at(Cycles::new(40), Rc::clone(&late));
    q.unpark(parked_retry);
    assert_eq!(count(&parked), 2, "unparking moves, not copies");
    popped(&mut q, 10, &parked);
    assert_eq!(q.len(), 3);
    drop(q);
    for rc in [&far, &retry, &soon, &parked, &again, &late] {
        assert_eq!(count(rc), 1, "{}: released by the queue", **rc);
    }
}
