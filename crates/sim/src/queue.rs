//! A stable discrete-event queue keyed by simulated time.
//!
//! The simulated kernel in `rbv-os` is driven by events (quantum expiry,
//! sampling interrupts, request arrivals, IPC deliveries). [`EventQueue`]
//! orders them by [`Cycles`] timestamp with FIFO tie-breaking, so two events
//! scheduled for the same cycle fire in the order they were scheduled —
//! essential for deterministic replays.
//!
//! An owner may keep some events outside the heap (the engine's per-core
//! timers, re-armed far more often than they fire) and still share its
//! order: [`EventQueue::reserve_seq`] hands out the sequence number the
//! event would have had, [`EventQueue::peek_key`] exposes the heap top's
//! `(time, seq)` key to compare against, and [`EventQueue::advance_to`]
//! moves the clock when the outside event fires.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycles;

/// An entry in the heap: ordered by time, then by insertion sequence.
#[derive(Debug)]
struct Entry<E> {
    at: Cycles,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (and lowest
        // sequence number among ties) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue with stable ordering.
///
/// # Example
///
/// ```
/// use rbv_sim::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles::new(20), "later");
/// q.schedule(Cycles::new(10), "first");
/// q.schedule(Cycles::new(10), "second"); // same time: FIFO
///
/// assert_eq!(q.pop(), Some((Cycles::new(10), "first")));
/// assert_eq!(q.pop(), Some((Cycles::new(10), "second")));
/// assert_eq!(q.pop(), Some((Cycles::new(20), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycles,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycles::ZERO,
        }
    }

    /// The timestamp of the most recently popped event (the simulation
    /// "now"). Zero before any pop.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now`: the event fires
    /// immediately on the next pop. This mirrors how a real kernel treats an
    /// already-expired timer.
    pub fn schedule(&mut self, at: Cycles, event: E) {
        let at = at.max(self.now);
        let seq = self.reserve_seq();
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: Cycles, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|e| e.at)
    }

    /// Returns the `(time, seq)` key of the next event without removing
    /// it. Keys order events exactly as [`EventQueue::pop`] does.
    pub fn peek_key(&self) -> Option<(Cycles, u64)> {
        self.heap.peek().map(|e| (e.at, e.seq))
    }

    /// Takes the next sequence number for an event kept outside the heap,
    /// so that among events due on the same cycle it ranks where
    /// [`EventQueue::schedule`] would have put it: after everything
    /// scheduled before, before everything scheduled after.
    ///
    /// ```
    /// use rbv_sim::{Cycles, EventQueue};
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule(Cycles::new(10), "queued first");
    /// // A timer due at the same cycle, armed now, kept by the caller.
    /// let timer = (Cycles::new(10), q.reserve_seq());
    /// q.schedule(Cycles::new(10), "queued last");
    ///
    /// // The heap top precedes the timer; the timer precedes the rest.
    /// assert!(q.peek_key().unwrap() < timer);
    /// assert_eq!(q.pop(), Some((Cycles::new(10), "queued first")));
    /// assert!(timer < q.peek_key().unwrap());
    /// q.advance_to(timer.0); // the timer fires
    /// assert_eq!(q.pop(), Some((Cycles::new(10), "queued last")));
    /// ```
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Advances the clock to `at` for an event fired from outside the
    /// heap, as [`EventQueue::pop`] does for a queued one. `at` must not
    /// be in the past, nor later than the heap top.
    ///
    /// ```
    /// use rbv_sim::{Cycles, EventQueue};
    ///
    /// let mut q: EventQueue<()> = EventQueue::new();
    /// q.advance_to(Cycles::new(40));
    /// assert_eq!(q.now(), Cycles::new(40));
    /// q.schedule_after(Cycles::new(2), ());
    /// assert_eq!(q.peek_time(), Some(Cycles::new(42)));
    /// ```
    pub fn advance_to(&mut self, at: Cycles) {
        debug_assert!(at >= self.now, "time went backwards");
        debug_assert!(
            self.peek_time().is_none_or(|top| at <= top),
            "an outside event skipped a queued one"
        );
        self.now = at;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let times = [50u64, 10, 30, 20, 40];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Cycles::new(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t.get());
        }
        assert_eq!(popped, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(Cycles::new(100), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(5), ());
        q.schedule(Cycles::new(15), ());
        assert_eq!(q.now(), Cycles::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycles::new(5));
        q.pop();
        assert_eq!(q.now(), Cycles::new(15));
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(100), "a");
        q.pop();
        q.schedule(Cycles::new(10), "late");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, Cycles::new(100));
        assert_eq!(e, "late");
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(100), 0);
        q.pop();
        q.schedule_after(Cycles::new(50), 1);
        assert_eq!(q.peek_time(), Some(Cycles::new(150)));
    }

    #[test]
    fn len_is_empty_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycles::new(1), ());
        q.schedule(Cycles::new(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reserved_seqs_interleave_with_scheduled_ones() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(7), 'a');
        let reserved = q.reserve_seq();
        q.schedule(Cycles::new(7), 'b');
        assert_eq!(q.peek_key(), Some((Cycles::new(7), reserved - 1)));
        q.pop();
        assert_eq!(q.peek_key(), Some((Cycles::new(7), reserved + 1)));
    }

    #[test]
    fn peek_key_orders_like_pop() {
        let mut q = EventQueue::new();
        for (t, e) in [(30u64, 0), (10, 1), (10, 2), (20, 3)] {
            q.schedule(Cycles::new(t), e);
        }
        let mut keys = Vec::new();
        while let Some(key) = q.peek_key() {
            assert_eq!(q.pop().map(|(at, _)| at), Some(key.0));
            keys.push(key);
        }
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn advance_to_moves_the_clock_and_schedules_relative_to_it() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(50), "queued");
        q.advance_to(Cycles::new(20));
        assert_eq!(q.now(), Cycles::new(20));
        q.schedule(Cycles::new(5), "clamped");
        assert_eq!(q.pop(), Some((Cycles::new(20), "clamped")));
        q.advance_to(Cycles::new(50));
        assert_eq!(q.pop(), Some((Cycles::new(50), "queued")));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    #[cfg(debug_assertions)]
    fn advance_to_rejects_the_past() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(Cycles::new(9));
        q.advance_to(Cycles::new(8));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(10), 1);
        q.schedule(Cycles::new(30), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(Cycles::new(20), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }
}
