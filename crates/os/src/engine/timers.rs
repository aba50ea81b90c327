//! Per-core timer slots: at most one live timer of each [`TimerKind`] per
//! core, kept out of the event heap. A slot holds the armed timer's
//! `(deadline, seq)` key, its `seq` reserved from the heap's own counter
//! when it was armed, so the engine fires the earliest slot or the heap
//! top, whichever key is smaller, and same-cycle ties stay in arming
//! order. Re-arming or cancelling a timer only overwrites its slot: a
//! superseded timer leaves nothing behind to pop.

use rbv_sim::Cycles;

/// The kinds of per-core timer, one slot each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// The running request reaches its next instruction boundary (phase
    /// end, syscall, or stage end).
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

#[cfg(test)]
mod tests {
    use super::*;

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
