//! Per-core timer slots: at most one live timer of each [`TimerKind`] per
//! core, kept out of the event heap. A slot holds the armed timer's
//! `(deadline, seq)` key, its `seq` reserved from the heap's own counter
//! when it was armed, so the engine fires the earliest slot or the heap
//! top, whichever key is smaller, and same-cycle ties stay in arming
//! order. Re-arming or cancelling a timer only overwrites its slot: a
//! superseded timer leaves nothing behind to pop. Beside the timers, each
//! core has one [`Crossings`] slot: its next passive syscall, which is
//! recorded in passing and never popped.

use rbv_sim::Cycles;

/// The kinds of per-core timer, one slot each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// The running request reaches its next instruction boundary that
    /// acts: a phase or stage end, or a syscall the sampling policy
    /// samples at. Passive syscalls before it are [`Crossings`].
    Milestone,
    /// Scheduling quantum expiry.
    Quantum,
    /// Periodic or backup sampling interrupt.
    Sample,
    /// Contention-easing re-scheduling opportunity.
    Resched,
}

impl TimerKind {
    /// Every kind, in slot order.
    pub(crate) const ALL: [TimerKind; 4] = [
        TimerKind::Milestone,
        TimerKind::Quantum,
        TimerKind::Sample,
        TimerKind::Resched,
    ];
}

/// An armed timer's place in the event order: `(deadline, seq)`.
pub(super) type Key = (Cycles, u64);

/// Every core's timer slots, `TimerKind::ALL.len()` per core.
#[derive(Debug, Default)]
pub(super) struct Timers {
    slots: Vec<Option<Key>>,
}

impl Timers {
    pub(super) fn new(cores: usize) -> Timers {
        Timers {
            slots: vec![None; cores * TimerKind::ALL.len()],
        }
    }

    fn index(core: usize, kind: TimerKind) -> usize {
        core * TimerKind::ALL.len() + kind as usize
    }

    /// Arms `core`'s timer of `kind` at `key`, superseding the one armed
    /// before.
    pub(super) fn arm(&mut self, core: usize, kind: TimerKind, key: Key) {
        self.slots[Self::index(core, kind)] = Some(key);
    }

    /// Disarms `core`'s timer of `kind`.
    pub(super) fn cancel(&mut self, core: usize, kind: TimerKind) {
        self.slots[Self::index(core, kind)] = None;
    }

    /// Disarms every timer of `core` (the core went idle).
    pub(super) fn cancel_all(&mut self, core: usize) {
        let n = TimerKind::ALL.len();
        self.slots[core * n..(core + 1) * n].fill(None);
    }

    /// The armed timer with the smallest key, as `(key, core, kind)`.
    pub(super) fn next(&self) -> Option<(Key, usize, TimerKind)> {
        let n = TimerKind::ALL.len();
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.map(|key| (key, i)))
            .min()
            .map(|(key, i)| (key, i / n, TimerKind::ALL[i % n]))
    }
}

/// Each running core's next passive syscall: one the sampling policy does
/// not act on, due at the first cycle its core's segment reaches it. A
/// crossing is not an event. The engine records every crossing due by an
/// event's instant before it handles that event, in time order across
/// cores (see [`Crossings::first_due`]).
#[derive(Debug, Default)]
pub(super) struct Crossings {
    at: Vec<Option<Cycles>>,
}

impl Crossings {
    pub(super) fn new(cores: usize) -> Crossings {
        Crossings {
            at: vec![None; cores],
        }
    }

    /// Sets `core`'s next crossing, or clears it.
    pub(super) fn set(&mut self, core: usize, at: Option<Cycles>) {
        self.at[core] = at;
    }

    /// `core`'s next crossing.
    pub(super) fn at(&self, core: usize) -> Option<Cycles> {
        self.at[core]
    }

    /// The core whose crossings come next, up to `by`, and the instant up
    /// to which its batch runs: the core with the earliest crossing (ties
    /// go to the lowest core), whose batch stops before any other core's
    /// next crossing.
    pub(super) fn first_due(&self, by: Cycles) -> Option<(usize, Cycles)> {
        let mut first: Option<(Cycles, usize)> = None;
        for (core, &at) in self.at.iter().enumerate() {
            if let Some(at) = at.filter(|&at| at <= by) {
                if first.is_none_or(|(earliest, _)| at < earliest) {
                    first = Some((at, core));
                }
            }
        }
        let (_, core) = first?;
        // Another core's crossing at `at` comes first when that core is
        // lower (it wins the tie), else right after.
        let limit = self
            .at
            .iter()
            .enumerate()
            .fold(by, |limit, (other, &at)| match at {
                Some(at) if other < core => limit.min(at - Cycles::new(1)),
                Some(at) if other > core => limit.min(at),
                _ => limit,
            });
        Some((core, limit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_earliest_due_crossing_wins_and_ties_go_to_the_lowest_core() {
        let mut crossings = Crossings::new(3);
        assert_eq!(crossings.first_due(Cycles::new(u64::MAX)), None);
        crossings.set(2, Some(Cycles::new(30)));
        crossings.set(1, Some(Cycles::new(40)));
        assert_eq!(crossings.first_due(Cycles::new(29)), None);
        // Core 1 is lower and would win a tie, so core 2's batch stops a
        // cycle before core 1's crossing.
        let by = Cycles::new(100);
        assert_eq!(crossings.first_due(by), Some((2, Cycles::new(39))));
        assert_eq!(
            crossings.first_due(Cycles::new(35)),
            Some((2, Cycles::new(35)))
        );
        crossings.set(0, Some(Cycles::new(30)));
        // Core 0 wins the tie at 30 and runs up to core 2's crossing,
        // inclusive: it would win a tie there too.
        let by = Cycles::new(50);
        assert_eq!(crossings.first_due(by), Some((0, Cycles::new(30))));
        crossings.set(0, None);
        crossings.set(2, None);
        assert_eq!(crossings.first_due(by), Some((1, by)));
        assert_eq!(crossings.first_due(Cycles::new(39)), None);
    }

    fn key(at: u64, seq: u64) -> Key {
        (Cycles::new(at), seq)
    }

    #[test]
    fn next_is_the_smallest_key_and_ties_break_on_seq() {
        let mut timers = Timers::new(2);
        assert_eq!(timers.next(), None);
        timers.arm(1, TimerKind::Sample, key(50, 3));
        timers.arm(0, TimerKind::Resched, key(40, 9));
        timers.arm(1, TimerKind::Quantum, key(40, 4));
        assert_eq!(timers.next(), Some((key(40, 4), 1, TimerKind::Quantum)));
        timers.cancel(1, TimerKind::Quantum);
        assert_eq!(timers.next(), Some((key(40, 9), 0, TimerKind::Resched)));
    }

    #[test]
    fn rearming_a_kind_replaces_only_its_slot() {
        for kind in TimerKind::ALL {
            let mut timers = Timers::new(1);
            for (seq, k) in TimerKind::ALL.into_iter().enumerate() {
                timers.arm(0, k, key(100, seq as u64));
            }
            timers.arm(0, kind, key(200, 10));
            let mut fired = Vec::new();
            while let Some((key, core, k)) = timers.next() {
                fired.push((key, k));
                timers.cancel(core, k);
            }
            assert_eq!(fired.len(), TimerKind::ALL.len(), "{kind:?}");
            assert_eq!(fired.last(), Some(&(key(200, 10), kind)));
        }
    }

    #[test]
    fn cancelling_all_clears_one_core_only() {
        let mut timers = Timers::new(2);
        for core in 0..2 {
            for (seq, kind) in TimerKind::ALL.into_iter().enumerate() {
                timers.arm(core, kind, key(10, (core * 4 + seq) as u64));
            }
        }
        timers.cancel_all(0);
        let (_, core, kind) = timers.next().expect("core 1 still armed");
        assert_eq!((core, kind), (1, TimerKind::Milestone));
        timers.cancel_all(1);
        assert_eq!(timers.next(), None);
    }
}
