//! Schedule points: the granularity at which an adversary interleaves
//! processors on a concurrent backend.
//!
//! The discrete-event simulator gives the adversary total control over
//! interleavings because *it* owns the event loop. A concurrent backend does
//! not, so it needs a *schedule gate*: before every shared-memory operation
//! (and before returning) a participant announces the operation as a
//! [`SchedulePoint`] and waits until a scheduler grants it. A scheduler that
//! grants one participant at a time serializes the execution into an
//! adversary-chosen interleaving of the *real* backend's operations — same
//! locks, same copy-on-write snapshots, same register bank — while staying
//! deterministic enough to record, replay and delta-debug.
//!
//! The gate loop itself lives in `fle_runtime::exec` (`run_gated`). It
//! steps every participant, a resumable [`crate::DriveMachine`], on the
//! caller's thread: a participant runs up to its next gate and waits there,
//! holding the operation it is about to perform, until the scheduler grants
//! it. [`crate::Op::point`] names the point an operation executes at.
//! The scheduler vocabulary (`GateScheduler`, `GateCommand`, …) lives in
//! `fle_runtime::sched`.
//!
//! # Determinism guarantee
//!
//! If (a) the scheduler's grant sequence is a deterministic function of the
//! observable gate states, and (b) each processor's local computation and
//! randomness are deterministic between gates (seeded RNGs), then the entire
//! execution — every register state, coin flip and outcome — is a
//! deterministic function of the grant sequence. This is what makes a
//! recorded decision trace on a concurrent backend replayable.

use crate::action::Action;
use std::fmt;

/// The kind of shared-memory operation a processor is about to perform — the
/// granularity at which a gate scheduler may interleave processors.
///
/// One `SchedulePoint` is a concurrent backend's analogue of one
/// schedulable event in the simulator: everything a processor does *between*
/// two points is local computation the adversary cannot subdivide (matching
/// the paper's model, where a step is "a local computation followed by one
/// shared-memory operation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePoint {
    /// About to merge register writes into the shared memory.
    Propagate,
    /// About to read register views.
    Collect,
    /// About to flip a coin (visible to the strong adversary afterwards).
    Flip,
    /// About to pick among explicit choices.
    Choose,
    /// About to return from the protocol — gated so the adversary controls
    /// the order in which outcomes become visible (linearizability).
    Return,
}

impl SchedulePoint {
    /// The schedule point at which `action` executes.
    pub fn of(action: &Action) -> SchedulePoint {
        match action {
            Action::Propagate { .. } => SchedulePoint::Propagate,
            Action::Collect { .. } => SchedulePoint::Collect,
            Action::Flip { .. } => SchedulePoint::Flip,
            Action::Choose { .. } => SchedulePoint::Choose,
            Action::Return(_) => SchedulePoint::Return,
        }
    }
}

impl fmt::Display for SchedulePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SchedulePoint::Propagate => "propagate",
            SchedulePoint::Collect => "collect",
            SchedulePoint::Flip => "flip",
            SchedulePoint::Choose => "choose",
            SchedulePoint::Return => "return",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Outcome;
    use crate::ids::InstanceId;

    #[test]
    fn schedule_points_map_actions_and_display() {
        assert_eq!(
            SchedulePoint::of(&Action::Propagate {
                entries: Vec::new()
            }),
            SchedulePoint::Propagate
        );
        assert_eq!(
            SchedulePoint::of(&Action::Collect {
                instance: InstanceId::Contended
            }),
            SchedulePoint::Collect
        );
        assert_eq!(
            SchedulePoint::of(&Action::Flip { prob_one: 0.5 }),
            SchedulePoint::Flip
        );
        assert_eq!(
            SchedulePoint::of(&Action::Choose { choices: vec![1] }),
            SchedulePoint::Choose
        );
        assert_eq!(
            SchedulePoint::of(&Action::Return(Outcome::Win)),
            SchedulePoint::Return
        );
        assert_eq!(SchedulePoint::Collect.to_string(), "collect");
    }
}
