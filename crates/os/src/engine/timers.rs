//! Per-core timer slots: at most one live timer of each [`TimerKind`] per
//! core. Arming or cancelling a kind bumps its epoch, so a popped timer
//! event tagged with an older epoch was superseded and is dropped.

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

/// One core's timer slots: the current epoch of each [`TimerKind`].
#[derive(Debug, Default, Clone)]
pub(super) struct TimerSlots {
    epochs: [u64; 4],
}

impl TimerSlots {
    /// Supersedes any armed timer of `kind` and returns the epoch the new
    /// timer event must carry.
    pub(super) fn arm(&mut self, kind: TimerKind) -> u64 {
        self.cancel(kind);
        self.epochs[kind as usize]
    }

    /// Supersedes any armed timer of `kind` without arming a new one.
    pub(super) fn cancel(&mut self, kind: TimerKind) {
        self.epochs[kind as usize] += 1;
    }

    /// Supersedes every armed timer (the core went idle).
    pub(super) fn cancel_all(&mut self) {
        self.epochs.iter_mut().for_each(|epoch| *epoch += 1);
    }

    /// Whether a timer event of `kind` tagged `epoch` is still the armed one.
    pub(super) fn is_current(&self, kind: TimerKind, epoch: u64) -> bool {
        self.epochs[kind as usize] == epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [TimerKind; 4] = [
        TimerKind::Milestone,
        TimerKind::Quantum,
        TimerKind::Sample,
        TimerKind::Resched,
    ];

    #[test]
    fn rearming_or_cancelling_a_kind_rejects_only_its_older_epoch() {
        for kind in ALL {
            for cancel in [false, true] {
                let mut slots = TimerSlots::default();
                let armed: Vec<u64> = ALL.iter().map(|&k| slots.arm(k)).collect();
                let old = armed[kind as usize];
                if cancel {
                    slots.cancel(kind);
                } else {
                    let new = slots.arm(kind);
                    assert!(slots.is_current(kind, new));
                }
                assert!(!slots.is_current(kind, old), "{kind:?} kept epoch {old}");
                for (other, &epoch) in ALL.iter().zip(&armed) {
                    if *other != kind {
                        assert!(slots.is_current(*other, epoch), "{other:?} went stale");
                    }
                }
            }
        }
    }

    #[test]
    fn cancelling_all_rejects_every_armed_epoch() {
        let mut slots = TimerSlots::default();
        let armed: Vec<u64> = ALL.iter().map(|&k| slots.arm(k)).collect();
        slots.cancel_all();
        for (kind, &epoch) in ALL.iter().zip(&armed) {
            assert!(!slots.is_current(*kind, epoch), "{kind:?} still current");
        }
    }
}
