//! Adversarial schedulers.
//!
//! The paper's adversary is a *strong adaptive* one: before every step it may
//! inspect all local state — including the outcome of coin flips — and then
//! decide which processor takes a step, which message is delivered, and which
//! processors crash (up to `t < n/2`). A mathematical adversary quantifies
//! over every such strategy; this module implements the concrete strategies
//! the paper reasons about, plus generic ones:
//!
//! * [`RandomAdversary`] — picks uniformly among enabled events (a fair,
//!   non-malicious scheduler; useful as a baseline and for soak tests).
//! * [`ObliviousAdversary`] — a *weak* adversary whose schedule is a fixed
//!   pseudo-random function of the event index only (it ignores all state),
//!   matching the weak-adversary model of AA11 / GW12a.
//! * [`SequentialAdversary`] — runs participants one at a time to completion.
//!   Section 3.2 of the paper shows this forces Ω(√n) survivors for the
//!   fixed-bias PoisonPill, which experiment E1/E8 reproduces.
//! * [`CoinAwareAdversary`] — the strong-adversary strategy sketched in the
//!   introduction: inspect coin flips and schedule every processor that
//!   flipped 0 ahead of any processor that flipped 1, trying to maximise
//!   survivors.
//! * [`CrashingAdversary`] — wraps any adversary with a [`CrashPlan`] that
//!   crashes chosen processors at chosen points of the execution.
//!
//! Two combinators support the schedule-exploration subsystem
//! (`fle_explore`): [`RecordingAdversary`] taps any adversary and records its
//! decisions into a replayable [`DecisionTrace`], and [`ReplayAdversary`]
//! plays such a trace back — tolerating edits, which is what lets a
//! delta-debugging shrinker drop decision chunks and still obtain a valid
//! execution.

use crate::observation::{Decision, EnabledEvent, EnabledEvents, ProcessPhase, SystemObservation};
use crate::trace::DecisionTrace;
use fle_model::ProcId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A scheduling strategy for the strong adaptive adversary.
///
/// `enabled` is an indexed view over the engine's incrementally maintained
/// event set (never empty). Index-picking adversaries should use
/// [`EnabledEvents::len`] and return `Decision::Schedule(index)` without
/// iterating; state-inspecting adversaries iterate with
/// [`EnabledEvents::iter`], which costs time linear in the number of enabled
/// events.
///
/// Adversaries must be [`Send`], so a boxed adversary can move to another
/// thread with the simulation it drives.
pub trait Adversary: Send {
    /// Choose the next event (or a crash). `enabled` is never empty.
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision;

    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;
}

impl<A: Adversary + ?Sized> Adversary for Box<A> {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        (**self).decide(observation, enabled)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Picks uniformly at random among enabled events. Fair with probability 1.
#[derive(Debug, Clone)]
pub struct RandomAdversary {
    rng: ChaCha8Rng,
}

impl RandomAdversary {
    /// A random scheduler with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        RandomAdversary {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl Adversary for RandomAdversary {
    fn decide(
        &mut self,
        _observation: &SystemObservation,
        enabled: &EnabledEvents<'_>,
    ) -> Decision {
        Decision::Schedule(self.rng.gen_range(0..enabled.len()))
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// A weak (oblivious) adversary: the schedule is a fixed pseudo-random
/// function of the number of events executed so far, independent of any
/// processor state or coin flip.
#[derive(Debug, Clone)]
pub struct ObliviousAdversary {
    seed: u64,
}

impl ObliviousAdversary {
    /// An oblivious scheduler whose fixed schedule is derived from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        ObliviousAdversary { seed }
    }
}

impl Adversary for ObliviousAdversary {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        // splitmix64 of (seed, event index): depends only on predetermined data.
        let x = fle_model::splitmix64(
            self.seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(observation.events_executed)),
        );
        Decision::Schedule((x % enabled.len() as u64) as usize)
    }

    fn name(&self) -> &'static str {
        "oblivious"
    }
}

/// Runs participants sequentially: all events that advance the lowest-indexed
/// unfinished participant are scheduled before anyone else moves.
///
/// This is the schedule used in Section 3.2 of the paper to show that the
/// fixed-bias PoisonPill cannot beat Ω(√n) expected survivors.
#[derive(Debug, Clone, Default)]
pub struct SequentialAdversary;

impl SequentialAdversary {
    /// A sequential scheduler.
    pub fn new() -> Self {
        SequentialAdversary
    }
}

impl Adversary for SequentialAdversary {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        // The participant currently being "run to completion": the live
        // participant with the smallest id that still has an enabled event.
        let mut preferred: Option<(usize, usize)> = None; // (proc index, event index)
        for (event_index, event) in enabled.iter().enumerate() {
            let advances = event.advances();
            let phase = observation.process(advances).phase;
            let is_live = matches!(
                phase,
                ProcessPhase::NotStarted | ProcessPhase::StepReady | ProcessPhase::AwaitingQuorum
            );
            if !is_live {
                continue;
            }
            match preferred {
                Some((best_proc, _)) if best_proc <= advances.index() => {}
                _ => preferred = Some((advances.index(), event_index)),
            }
        }
        match preferred {
            Some((_, event_index)) => Decision::Schedule(event_index),
            // Only bookkeeping deliveries remain (replies to finished
            // processors); flush the oldest one.
            None => Decision::Schedule(0),
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

/// The coin-inspecting strong adversary sketched in the paper's introduction:
/// it looks at every visible coin flip and gives strict priority to
/// processors that flipped 0 (low priority), hoping to let them finish their
/// phase before any high-priority processor becomes visible, thereby
/// maximising the number of survivors.
#[derive(Debug, Clone)]
pub struct CoinAwareAdversary {
    tie_breaker: ChaCha8Rng,
}

impl CoinAwareAdversary {
    /// A coin-inspecting adversary; `seed` only breaks ties among equally
    /// attractive events.
    pub fn with_seed(seed: u64) -> Self {
        CoinAwareAdversary {
            tie_breaker: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    fn priority(observation: &SystemObservation, event: &EnabledEvent) -> u8 {
        let advances = event.advances();
        let phase = observation.process(advances).phase;
        if matches!(
            phase,
            ProcessPhase::Finished | ProcessPhase::Crashed | ProcessPhase::Idle
        ) {
            return 3;
        }
        match observation.coin_of(advances) {
            // Processors whose visible coin is 0: run them first so they
            // complete before observing any high-priority processor.
            Some(false) => 0,
            // Processors that have not flipped yet: let them reach the flip.
            None => 1,
            // Processors that flipped 1: stall them as long as possible.
            Some(true) => 2,
        }
    }
}

impl Adversary for CoinAwareAdversary {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        let best = enabled
            .iter()
            .map(|event| Self::priority(observation, &event))
            .min()
            .unwrap_or(3);
        let candidates: Vec<usize> = enabled
            .iter()
            .enumerate()
            .filter(|(_, event)| Self::priority(observation, event) == best)
            .map(|(index, _)| index)
            .collect();
        let pick = candidates[self.tie_breaker.gen_range(0..candidates.len())];
        Decision::Schedule(pick)
    }

    fn name(&self) -> &'static str {
        "coin-aware"
    }
}

/// When and whom to crash.
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    /// `(after_events, victim)` pairs: once the execution has performed at
    /// least `after_events` events, crash `victim`.
    pub scheduled: Vec<(u64, ProcId)>,
}

impl CrashPlan {
    /// No crashes.
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// Crash all the given victims immediately (before any protocol step).
    pub fn immediately(victims: impl IntoIterator<Item = ProcId>) -> Self {
        CrashPlan {
            scheduled: victims.into_iter().map(|v| (0, v)).collect(),
        }
    }

    /// Crash `victim` once at least `after_events` events have executed.
    #[must_use]
    pub fn and_then(mut self, after_events: u64, victim: ProcId) -> Self {
        self.scheduled.push((after_events, victim));
        self
    }
}

/// Wraps an inner adversary and injects crashes according to a [`CrashPlan`].
#[derive(Debug, Clone)]
pub struct CrashingAdversary<A> {
    inner: A,
    plan: CrashPlan,
    next: usize,
}

impl<A: Adversary> CrashingAdversary<A> {
    /// Wrap `inner`, crashing processors according to `plan`.
    pub fn new(inner: A, plan: CrashPlan) -> Self {
        let mut plan = plan;
        plan.scheduled.sort_by_key(|(after, _)| *after);
        CrashingAdversary {
            inner,
            plan,
            next: 0,
        }
    }
}

impl<A: Adversary> Adversary for CrashingAdversary<A> {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        if self.next < self.plan.scheduled.len() {
            let (after, victim) = self.plan.scheduled[self.next];
            let already_crashed =
                matches!(observation.process(victim).phase, ProcessPhase::Crashed);
            if observation.events_executed >= after {
                self.next += 1;
                if !already_crashed && observation.crash_budget_left > 0 {
                    return Decision::Crash(victim);
                }
            }
        }
        self.inner.decide(observation, enabled)
    }

    fn name(&self) -> &'static str {
        "crashing"
    }
}

/// Taps an inner adversary and records every decision it makes into a
/// [`DecisionTrace`].
///
/// Because the engine is deterministic given its seed, the recorded trace
/// plus the [`crate::SimConfig`] fully determine the execution; feeding the
/// trace to a [`ReplayAdversary`] reproduces it. The explorer wraps every
/// attack strategy in one of these so that any violation it finds comes with
/// a replayable counterexample for free.
#[derive(Debug, Clone)]
pub struct RecordingAdversary<A> {
    inner: A,
    trace: DecisionTrace,
}

impl<A: Adversary> RecordingAdversary<A> {
    /// Record the decisions of `inner`.
    pub fn new(inner: A) -> Self {
        RecordingAdversary {
            inner,
            trace: DecisionTrace::new(),
        }
    }

    /// The decisions recorded so far.
    pub fn trace(&self) -> &DecisionTrace {
        &self.trace
    }

    /// Consume the recorder, keeping only the trace.
    pub fn into_trace(self) -> DecisionTrace {
        self.trace
    }
}

impl<A: Adversary> Adversary for RecordingAdversary<A> {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        let decision = self.inner.decide(observation, enabled);
        self.trace.push(decision);
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Replays a [`DecisionTrace`], sanitizing decisions that no longer apply.
///
/// The replayer is deliberately *tolerant*: the shrinker and the coverage
/// explorer's mutation engine edit traces (drop chunks, truncate, splice),
/// which shifts the meaning of later indices, so a faithful-or-fail replayer
/// would reject almost every edit. Instead:
///
/// * `Schedule(i)` is clamped to `min(i, enabled.len() − 1)` — an unedited
///   trace is replayed verbatim (indices are always in range when nothing
///   was dropped), an edited one stays a *valid* schedule. This is a true
///   clamp, **not** a modulo wrap: wrapping would silently re-aim a large
///   edited index at an arbitrary unrelated event near the front of the
///   queue, whereas clamping deterministically picks the newest enabled
///   event — the nearest in-range neighbour of the intent the index
///   recorded;
/// * `Crash(p)` is replayed only while it is legal (budget left, victim
///   alive); otherwise the oldest enabled event is scheduled instead;
/// * once the trace is exhausted the replayer keeps scheduling the oldest
///   enabled event (index 0), a deterministic completion rule;
/// * a trace **longer than the run consumes** executes exactly its consumed
///   prefix — the dead tail cannot affect the execution, and
///   [`DecisionTrace::truncated`]`(`[`ReplayAdversary::consumed`]`())` is
///   the equivalent minimal trace (the documented truncate-to-consumed
///   behaviour, pinned by a regression test).
///
/// Any violation found under replay is therefore a genuine counterexample —
/// the schedule executed is exactly the (sanitized) decision sequence, and
/// re-running it is deterministic.
#[derive(Debug, Clone)]
pub struct ReplayAdversary {
    decisions: Vec<Decision>,
    next: usize,
}

impl ReplayAdversary {
    /// Replay `trace` from the beginning.
    pub fn new(trace: &DecisionTrace) -> Self {
        ReplayAdversary {
            decisions: trace.decisions().to_vec(),
            next: 0,
        }
    }

    /// Replay an explicit decision sequence.
    pub fn from_decisions(decisions: Vec<Decision>) -> Self {
        ReplayAdversary { decisions, next: 0 }
    }

    /// How many trace decisions have been consumed so far (fallback
    /// decisions made after exhaustion are not counted). The shrinker uses
    /// this to truncate a trace to the prefix that was actually needed
    /// before the violation fired.
    pub fn consumed(&self) -> usize {
        self.next
    }
}

impl Adversary for ReplayAdversary {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        let Some(&decision) = self.decisions.get(self.next) else {
            // Trace exhausted: deterministic completion (oldest event first).
            return Decision::Schedule(0);
        };
        self.next += 1;
        match decision {
            Decision::Schedule(index) => Decision::Schedule(index.min(enabled.len() - 1)),
            Decision::Crash(victim) => {
                let legal = victim.index() < observation.n
                    && observation.crash_budget_left > 0
                    && !matches!(observation.process(victim).phase, ProcessPhase::Crashed);
                if legal {
                    Decision::Crash(victim)
                } else {
                    Decision::Schedule(0)
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use crate::observation::ProcessObservation;
    use fle_model::LocalStateView;

    fn observation(phases: Vec<(ProcessPhase, Option<bool>)>) -> SystemObservation {
        let processes = phases
            .into_iter()
            .enumerate()
            .map(|(i, (phase, coin))| ProcessObservation {
                proc: ProcId(i),
                phase,
                local_state: Some(LocalStateView::new("t", "t").with_coin(coin)),
            })
            .collect();
        SystemObservation {
            n: 3,
            events_executed: 0,
            crash_budget_left: 1,
            processes,
        }
    }

    #[test]
    fn sequential_prefers_lowest_live_participant() {
        let obs = observation(vec![
            (ProcessPhase::Finished, None),
            (ProcessPhase::StepReady, None),
            (ProcessPhase::StepReady, None),
        ]);
        let enabled = vec![EnabledEvent::Step(ProcId(2)), EnabledEvent::Step(ProcId(1))];
        let mut adversary = SequentialAdversary::new();
        assert_eq!(
            adversary.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Schedule(1)
        );
        assert_eq!(adversary.name(), "sequential");
    }

    #[test]
    fn coin_aware_prefers_zero_flippers() {
        let obs = observation(vec![
            (ProcessPhase::StepReady, Some(true)),
            (ProcessPhase::StepReady, Some(false)),
            (ProcessPhase::StepReady, None),
        ]);
        let enabled = vec![
            EnabledEvent::Step(ProcId(0)),
            EnabledEvent::Step(ProcId(1)),
            EnabledEvent::Step(ProcId(2)),
        ];
        let mut adversary = CoinAwareAdversary::with_seed(0);
        assert_eq!(
            adversary.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Schedule(1),
            "the 0-flipper must be scheduled before the 1-flipper and the undecided"
        );
    }

    #[test]
    fn coin_aware_delivery_priority_follows_advanced_processor() {
        let obs = observation(vec![
            (ProcessPhase::AwaitingQuorum, Some(true)),
            (ProcessPhase::AwaitingQuorum, Some(false)),
            (ProcessPhase::Idle, None),
        ]);
        let enabled = vec![
            EnabledEvent::Deliver {
                id: MessageId(0),
                from: ProcId(2),
                to: ProcId(0),
                is_request: false,
            },
            EnabledEvent::Deliver {
                id: MessageId(1),
                from: ProcId(2),
                to: ProcId(1),
                is_request: false,
            },
        ];
        let mut adversary = CoinAwareAdversary::with_seed(1);
        assert_eq!(
            adversary.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Schedule(1)
        );
    }

    #[test]
    fn oblivious_ignores_state() {
        let obs_a = observation(vec![(ProcessPhase::StepReady, Some(true))]);
        let obs_b = observation(vec![(ProcessPhase::StepReady, Some(false))]);
        let enabled = vec![
            EnabledEvent::Step(ProcId(0)),
            EnabledEvent::Step(ProcId(0)),
            EnabledEvent::Step(ProcId(0)),
        ];
        let mut adversary = ObliviousAdversary::with_seed(9);
        let a = adversary.decide(&obs_a, &EnabledEvents::from_slice(&enabled));
        let mut adversary = ObliviousAdversary::with_seed(9);
        let b = adversary.decide(&obs_b, &EnabledEvents::from_slice(&enabled));
        assert_eq!(
            a, b,
            "the weak adversary's schedule does not depend on coins"
        );
    }

    #[test]
    fn crashing_adversary_follows_plan_then_delegates() {
        let obs = observation(vec![
            (ProcessPhase::StepReady, None),
            (ProcessPhase::StepReady, None),
            (ProcessPhase::StepReady, None),
        ]);
        let enabled = vec![EnabledEvent::Step(ProcId(0))];
        let plan = CrashPlan::immediately([ProcId(2)]);
        let mut adversary = CrashingAdversary::new(RandomAdversary::with_seed(1), plan);
        assert_eq!(
            adversary.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Crash(ProcId(2))
        );
        // Plan exhausted: delegate to the inner adversary.
        assert!(matches!(
            adversary.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Schedule(_)
        ));
    }

    #[test]
    fn recording_adversary_captures_the_exact_decisions() {
        let obs = observation(vec![(ProcessPhase::StepReady, None); 3]);
        let enabled = vec![EnabledEvent::Step(ProcId(0)); 4];
        let mut recorder = RecordingAdversary::new(RandomAdversary::with_seed(9));
        let mut reference = RandomAdversary::with_seed(9);
        let mut expected = Vec::new();
        for _ in 0..6 {
            let d = recorder.decide(&obs, &EnabledEvents::from_slice(&enabled));
            expected.push(reference.decide(&obs, &EnabledEvents::from_slice(&enabled)));
            assert_eq!(d, *expected.last().unwrap());
        }
        assert_eq!(recorder.trace().decisions(), expected.as_slice());
        assert_eq!(recorder.name(), "random");
        assert_eq!(recorder.into_trace().len(), 6);
    }

    #[test]
    fn replay_adversary_clamps_and_falls_back() {
        let obs = observation(vec![(ProcessPhase::StepReady, None); 3]);
        let enabled = vec![EnabledEvent::Step(ProcId(0)); 3];
        let trace: DecisionTrace = [
            Decision::Schedule(2),
            Decision::Schedule(7), // out of range after an edit: clamped to 2
            Decision::Crash(ProcId(1)),
            Decision::Crash(ProcId(9)), // invalid victim: sanitized
        ]
        .into_iter()
        .collect();
        let mut replay = ReplayAdversary::new(&trace);
        let view = EnabledEvents::from_slice(&enabled);
        assert_eq!(replay.decide(&obs, &view), Decision::Schedule(2));
        assert_eq!(
            replay.decide(&obs, &view),
            Decision::Schedule(2),
            "an out-of-range index clamps to the last enabled event instead \
             of silently wrapping to an unrelated early one"
        );
        assert_eq!(replay.decide(&obs, &view), Decision::Crash(ProcId(1)));
        assert_eq!(replay.decide(&obs, &view), Decision::Schedule(0));
        assert_eq!(replay.consumed(), 4);
        // Exhausted: deterministic completion, not counted as consumed.
        assert_eq!(replay.decide(&obs, &view), Decision::Schedule(0));
        assert_eq!(replay.consumed(), 4);
        assert_eq!(replay.name(), "replay");
    }

    #[test]
    fn replay_adversary_truncates_to_consumed_instead_of_wrapping() {
        // Regression (issue 10): a trace longer than the run consumes must
        // behave exactly like its consumed prefix — the decisions past the
        // consumption point are dead weight, not a hidden influence. Here
        // the "run" consumes only 3 decisions; the equivalent trace is the
        // truncation, decision for decision, and the clamp of in-run
        // indices is a min(), never a modulo.
        let obs = observation(vec![(ProcessPhase::StepReady, None); 3]);
        let enabled = vec![EnabledEvent::Step(ProcId(0)); 4];
        let view = EnabledEvents::from_slice(&enabled);
        let long: DecisionTrace = [
            Decision::Schedule(3),
            Decision::Schedule(100), // clamps to 3, NOT 100 % 4 == 0
            Decision::Schedule(1),
            Decision::Schedule(2), // never consumed by the 3-decision "run"
            Decision::Crash(ProcId(0)),
        ]
        .into_iter()
        .collect();

        let mut replay = ReplayAdversary::new(&long);
        let run: Vec<Decision> = (0..3).map(|_| replay.decide(&obs, &view)).collect();
        assert_eq!(
            run,
            vec![
                Decision::Schedule(3),
                Decision::Schedule(3),
                Decision::Schedule(1)
            ]
        );
        assert_eq!(replay.consumed(), 3);

        // The truncated trace replays the identical decision sequence and
        // then completes deterministically.
        let truncated = long.truncated(replay.consumed());
        assert_eq!(truncated.len(), 3);
        let mut replay = ReplayAdversary::new(&truncated);
        let rerun: Vec<Decision> = (0..4).map(|_| replay.decide(&obs, &view)).collect();
        assert_eq!(rerun[..3], run[..]);
        assert_eq!(rerun[3], Decision::Schedule(0), "deterministic completion");
        assert_eq!(replay.consumed(), 3, "the tail was truly dead weight");
    }

    #[test]
    fn replay_adversary_respects_the_crash_budget() {
        let mut obs = observation(vec![(ProcessPhase::StepReady, None); 3]);
        obs.crash_budget_left = 0;
        let enabled = vec![EnabledEvent::Step(ProcId(0))];
        let mut replay = ReplayAdversary::from_decisions(vec![Decision::Crash(ProcId(1))]);
        assert_eq!(
            replay.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Schedule(0),
            "a crash with no budget left must degrade to a schedule"
        );
    }

    #[test]
    fn boxed_adversaries_delegate() {
        let obs = observation(vec![(ProcessPhase::StepReady, None)]);
        let enabled = vec![EnabledEvent::Step(ProcId(0))];
        let mut boxed: Box<dyn Adversary> = Box::new(SequentialAdversary::new());
        assert_eq!(boxed.name(), "sequential");
        assert_eq!(
            boxed.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Schedule(0)
        );
    }

    #[test]
    fn random_adversary_always_schedules_within_bounds() {
        let obs = observation(vec![(ProcessPhase::StepReady, None)]);
        let enabled = vec![EnabledEvent::Step(ProcId(0)); 5];
        let mut adversary = RandomAdversary::with_seed(3);
        for _ in 0..100 {
            match adversary.decide(&obs, &EnabledEvents::from_slice(&enabled)) {
                Decision::Schedule(i) => assert!(i < enabled.len()),
                Decision::Crash(_) => panic!("random adversary never crashes"),
            }
        }
    }
}
