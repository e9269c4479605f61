//! The schedule-gate vocabulary: what a gate scheduler observes at every
//! decision and what it may command.
//!
//! [`run_gated`](crate::run_gated) steps every participant of an instance on
//! the calling thread and stops it at a [`SchedulePoint`] gate before each of
//! its shared-memory operations (`propagate` / `collect` / `flip` /
//! `choose`, plus the final return). At every decision the loop hands a
//! [`GateObservation`] to a pluggable [`GateScheduler`], which answers with
//! one [`GateCommand`]: grant one waiting participant, crash one, or stop.
//! Only one grant is ever outstanding, so the execution is serialized into
//! an explicit interleaving of real backend operations:
//!
//! * the *operations* are the genuine article — the same sharded locks and
//!   copy-on-write snapshots of [`crate::SharedRegisters`] that production
//!   traffic exercises;
//! * the *interleaving* is chosen by the scheduler, which observes exactly
//!   what the paper's strong adaptive adversary may observe (who is enabled,
//!   each processor's [`LocalStateView`] including coins, the crash budget);
//! * the whole run is **deterministic** in the scheduler's choices: with
//!   seeded per-processor RNGs, replaying the same grant sequence reproduces
//!   the same registers, coins and outcomes regardless of OS scheduling or
//!   machine load — which is what makes decision-trace record/replay and
//!   ddmin shrinking (in `fle-explore`) work.
//!
//! Every live participant waits at a gate whenever the scheduler is
//! consulted, so the picker always sees the complete set of enabled
//! operations (the analogue of the simulator's enabled-event set).
//!
//! Bounded preemption — limiting how often the schedule may switch away
//! from a participant that could continue (the CHESS heuristic) — is a
//! property of the *picker*, not the loop: wrap any scheduler's decisions in
//! a preemption counter (see `fle_explore`'s `PreemptionBound` adversary
//! combinator) and the loop executes the bounded schedule unchanged.
//!
//! # Example
//!
//! A scheduler that always grants the highest-id waiting participant:
//!
//! ```
//! use fle_runtime::{
//!     election_participants, run_gated, GateCommand, GateObservation, GateScheduler,
//!     ScheduleConfig,
//! };
//!
//! struct Newest;
//!
//! impl GateScheduler for Newest {
//!     fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
//!         GateCommand::Run(obs.waiting.len() - 1)
//!     }
//! }
//!
//! let report = run_gated(
//!     7,
//!     election_participants(3),
//!     ScheduleConfig::for_participants(3),
//!     &mut Newest,
//!     None,
//! );
//! assert_eq!(report.progress.winners().len(), 1);
//! assert!(!report.stopped);
//! ```

use crate::faulty::FaultStats;
use fle_model::{LocalStateView, Outcome, ProcId, SchedulePoint};
use std::collections::BTreeMap;

/// Limits of one schedule-controlled run.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleConfig {
    /// Crashes the scheduler may spend (the paper's `t < n/2` budget).
    pub crash_budget: usize,
    /// Maximum number of grants before the runner stops the execution and
    /// reports `budget_exhausted` — the liveness backstop for schedules that
    /// never let the protocols finish.
    pub max_grants: u64,
}

impl ScheduleConfig {
    /// The default limits for `k` participants: the paper's maximal crash
    /// budget `⌈k/2⌉ − 1` and a generous grant budget (protocols finish in
    /// `O(k log* k)` operations per participant; the default leaves two
    /// orders of magnitude of slack).
    pub fn for_participants(k: usize) -> Self {
        ScheduleConfig {
            crash_budget: k.div_ceil(2).saturating_sub(1),
            max_grants: 2_000 * (k as u64).max(1),
        }
    }

    /// Override the crash budget.
    #[must_use]
    pub fn with_crash_budget(mut self, budget: usize) -> Self {
        self.crash_budget = budget;
        self
    }

    /// Override the grant budget.
    #[must_use]
    pub fn with_max_grants(mut self, max_grants: u64) -> Self {
        self.max_grants = max_grants;
        self
    }
}

/// One participant waiting at its gate, as the scheduler sees it.
#[derive(Debug, Clone)]
pub struct WaitingAt {
    /// The waiting processor.
    pub proc: ProcId,
    /// The shared-memory operation it is about to perform.
    pub point: SchedulePoint,
    /// The local state the strong adversary may inspect (round, coin, …),
    /// snapshotted when the processor reached the gate.
    pub state: LocalStateView,
}

/// Everything a [`GateScheduler`] may inspect before picking: the gate
/// state (every live participant waits in `waiting`, sorted by processor id)
/// plus the execution's progress so far.
#[derive(Debug)]
pub struct GateObservation<'a> {
    /// Number of participants in this run.
    pub participants: usize,
    /// Grants made so far (the gate loop's event counter).
    pub grants_made: u64,
    /// Remaining crash budget.
    pub crash_budget_left: usize,
    /// Live participants waiting at their gates, ascending by processor id.
    /// Never empty when the scheduler is consulted.
    pub waiting: &'a [WaitingAt],
    /// Outcomes, intervals and crashes accumulated so far.
    pub progress: &'a ScheduledProgress,
}

/// A scheduler's decision at one gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateCommand {
    /// Grant the `index`-th entry of [`GateObservation::waiting`] (indices
    /// out of range clamp to the last waiting entry — the same tolerance as
    /// `fle_sim::ReplayAdversary`, so an edited replay stays a valid
    /// schedule and the gate loop sanitizes it exactly as the simulator
    /// does).
    Run(usize),
    /// Crash the given processor. Ignored (treated as `Run(0)`) when the
    /// budget is spent or the processor is not waiting, so schedulers can be
    /// replayed tolerantly.
    Crash(ProcId),
    /// Abort the run: every remaining participant is crashed and the report
    /// is marked `stopped`. Used by online safety oracles that already found
    /// what they were looking for.
    Stop,
}

/// Picks the next grant at every decision of a gated run — the gate loop's
/// analogue of `fle_sim::Adversary`.
pub trait GateScheduler {
    /// Choose the next command. `obs.waiting` is never empty.
    fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand;
}

impl<S: GateScheduler + ?Sized> GateScheduler for &mut S {
    fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
        (**self).pick(obs)
    }
}

/// Always grants the lowest-id waiting processor: runs participant 0 to
/// completion, then 1, and so on — the fully sequential schedule that
/// `fle_sim::SimMemory` executes, useful for differential tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl GateScheduler for FifoScheduler {
    fn pick(&mut self, _obs: &GateObservation<'_>) -> GateCommand {
        GateCommand::Run(0)
    }
}

/// Outcomes and adversary-relevant bookkeeping of an in-progress (or
/// finished) scheduled run.
#[derive(Debug, Clone, Default)]
pub struct ScheduledProgress {
    /// Outcome of every participant that returned.
    pub outcomes: BTreeMap<ProcId, Outcome>,
    /// `(first grant, return grant)` per participant — the
    /// invocation/response intervals linearizability checks need. Both
    /// bounds are 1-based post-increment grant counts, matching the
    /// simulator's event-counter convention for its intervals.
    pub intervals: BTreeMap<ProcId, (u64, Option<u64>)>,
    /// Participants crashed by the scheduler, by a stop, or by the grant
    /// budget running out.
    pub crashed: Vec<ProcId>,
}

impl ScheduledProgress {
    /// Participants that returned [`Outcome::Win`].
    pub fn winners(&self) -> Vec<ProcId> {
        self.outcomes
            .iter()
            .filter(|(_, o)| **o == Outcome::Win)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Names assigned by a renaming run, keyed by processor.
    pub fn names(&self) -> BTreeMap<ProcId, usize> {
        self.outcomes
            .iter()
            .filter_map(|(p, o)| match o {
                Outcome::Name(u) => Some((*p, *u)),
                _ => None,
            })
            .collect()
    }
}

/// The result of one schedule-controlled run.
#[derive(Debug, Clone, Default)]
pub struct ScheduledReport {
    /// Outcomes, intervals and crashes.
    pub progress: ScheduledProgress,
    /// Total grants executed.
    pub grants: u64,
    /// Whether the run was aborted ([`GateCommand::Stop`] or grant budget).
    pub stopped: bool,
    /// Whether the abort was caused by the grant budget running out.
    pub budget_exhausted: bool,
    /// Injected-fault counters, merged over all participants. All zero when
    /// the run used no [`crate::FaultPlan`].
    pub faults: FaultStats,
}
