//! The attack-strategy library: parameterized adversaries that hunt for
//! invariant violations.
//!
//! Every strategy implements the ordinary [`Adversary`] interface of
//! `fle_sim` against the indexed [`EnabledEvents`] view, so the engine pays
//! the same per-event cost as for the built-in schedulers. A strategy is
//! described by a [`StrategySpec`] — a small, cloneable value the explorer
//! can enumerate, fan out across cores and print in reports — and built
//! fresh (with a seed) for every episode.
//!
//! The library covers four attack families:
//!
//! * [`StrategySpec::FrontRunnerCrash`] — *adaptive crash timing*: watch the
//!   round counters the strong adversary may inspect and crash the strict
//!   front-runner right before its next computation step (the write that
//!   would publish its progress).
//! * [`StrategySpec::Starve`] — *targeted delay/starvation*: pick a seeded
//!   victim set and refuse to schedule anything that advances a victim while
//!   any other event is enabled, starving the victims for as long as the
//!   model allows.
//! * [`StrategySpec::SplitBrain`] — *split-brain delivery orderings*: divide
//!   the processors into two halves and schedule in alternating bursts,
//!   preferring events wholly inside the active half and delaying
//!   cross-partition traffic as long as possible.
//! * [`StrategySpec::WeightedWalk`] — *seeded weighted random walks*: biased
//!   random scheduling that over- or under-weights computation steps,
//!   request deliveries and reply deliveries, covering schedule shapes a
//!   uniform walk rarely visits.

use fle_model::ProcId;
use fle_sim::{Adversary, Decision, EnabledEvent, EnabledEvents, ProcessPhase, SystemObservation};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Whether the processor is a participant that has not yet returned.
fn is_live(phase: ProcessPhase) -> bool {
    matches!(
        phase,
        ProcessPhase::NotStarted | ProcessPhase::StepReady | ProcessPhase::AwaitingQuorum
    )
}

/// A description of an attack strategy: everything needed to build the
/// adversary for one episode, cheap to clone and meaningful to print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategySpec {
    /// Crash the strict front-runner (the unique live participant with the
    /// highest visible round) right before its next computation step, up to
    /// `crashes` times; schedule uniformly at random otherwise.
    FrontRunnerCrash {
        /// Maximum number of victims this strategy will crash (the engine's
        /// crash budget still applies on top).
        crashes: usize,
    },
    /// Starve a seeded victim set of roughly `1/denominator` of the
    /// processors: events advancing a victim are scheduled only when nothing
    /// else is enabled.
    Starve {
        /// Victim density: each processor is a victim with probability
        /// `1/denominator` (at least one non-victim is always kept).
        denominator: u32,
    },
    /// Alternate bursts of `burst` decisions between the two halves of the
    /// processor space, preferring events wholly inside the active half.
    SplitBrain {
        /// Number of decisions per burst before the active half flips.
        burst: u32,
    },
    /// A seeded random walk with per-category weights for computation steps,
    /// request deliveries and reply deliveries.
    WeightedWalk {
        /// Weight of scheduling a computation step.
        steps: u32,
        /// Weight of delivering a request (`propagate`/`collect`).
        requests: u32,
        /// Weight of delivering a reply (`ack`/`collect-reply`).
        replies: u32,
    },
}

impl StrategySpec {
    /// The default attack library the explorer fans out over.
    pub fn library() -> Vec<StrategySpec> {
        vec![
            StrategySpec::FrontRunnerCrash { crashes: 2 },
            StrategySpec::Starve { denominator: 3 },
            StrategySpec::SplitBrain { burst: 16 },
            StrategySpec::WeightedWalk {
                steps: 1,
                requests: 4,
                replies: 1,
            },
            StrategySpec::WeightedWalk {
                steps: 6,
                requests: 1,
                replies: 1,
            },
        ]
    }

    /// Build the adversary this spec describes, seeded for one episode.
    pub fn build(&self, seed: u64) -> Box<dyn Adversary> {
        match *self {
            StrategySpec::FrontRunnerCrash { crashes } => {
                Box::new(FrontRunnerCrash::with_seed(seed, crashes))
            }
            StrategySpec::Starve { denominator } => Box::new(Starve::with_seed(seed, denominator)),
            StrategySpec::SplitBrain { burst } => Box::new(SplitBrain::with_seed(seed, burst)),
            StrategySpec::WeightedWalk {
                steps,
                requests,
                replies,
            } => Box::new(WeightedWalk::with_seed(seed, [steps, requests, replies])),
        }
    }
}

impl fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategySpec::FrontRunnerCrash { crashes } => {
                write!(f, "front-runner-crash({crashes})")
            }
            StrategySpec::Starve { denominator } => write!(f, "starve(1/{denominator})"),
            StrategySpec::SplitBrain { burst } => write!(f, "split-brain(burst={burst})"),
            StrategySpec::WeightedWalk {
                steps,
                requests,
                replies,
            } => write!(f, "weighted-walk({steps}:{requests}:{replies})"),
        }
    }
}

/// Adaptive crash timing: crash the strict front-runner at its next write.
///
/// The strong adversary may inspect every participant's visible round
/// counter. Whenever a *unique* live participant is ahead of everyone else
/// and is about to take a computation step (the write that would publish its
/// progress), this strategy spends one crash on it — decapitating the
/// execution at the most pivotal moment it can identify. Scheduling is
/// otherwise uniformly random.
#[derive(Debug, Clone)]
pub struct FrontRunnerCrash {
    rng: ChaCha8Rng,
    crashes_left: usize,
}

impl FrontRunnerCrash {
    /// A front-runner crasher spending at most `crashes` crashes.
    pub fn with_seed(seed: u64, crashes: usize) -> Self {
        FrontRunnerCrash {
            rng: ChaCha8Rng::seed_from_u64(seed),
            crashes_left: crashes,
        }
    }

    /// The unique live participant strictly ahead of every other live
    /// participant (by visible round), if any.
    fn strict_front_runner(observation: &SystemObservation) -> Option<(ProcId, ProcessPhase)> {
        let mut best: Option<(u64, ProcId, ProcessPhase)> = None;
        let mut strict = false;
        for process in &observation.processes {
            if !is_live(process.phase) {
                continue;
            }
            let round = process.local_state.as_ref().map_or(0, |s| s.round);
            match &best {
                Some((lead, _, _)) if *lead > round => {}
                Some((lead, _, _)) if *lead == round => strict = false,
                _ => {
                    best = Some((round, process.proc, process.phase));
                    strict = true;
                }
            }
        }
        match best {
            Some((_, proc, phase)) if strict => Some((proc, phase)),
            _ => None,
        }
    }
}

impl Adversary for FrontRunnerCrash {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        if self.crashes_left > 0 && observation.crash_budget_left > 0 {
            if let Some((victim, phase)) = Self::strict_front_runner(observation) {
                if phase == ProcessPhase::StepReady {
                    self.crashes_left -= 1;
                    return Decision::Crash(victim);
                }
            }
        }
        Decision::Schedule(self.rng.gen_range(0..enabled.len()))
    }

    fn name(&self) -> &'static str {
        "front-runner-crash"
    }
}

/// Targeted starvation: a seeded victim set whose progress is delayed as
/// long as any other event is enabled.
#[derive(Debug, Clone)]
pub struct Starve {
    seed: u64,
    denominator: u32,
    rng: ChaCha8Rng,
    /// Lazily initialised victim flags, indexed by processor id.
    victims: Vec<bool>,
}

impl Starve {
    /// A starver whose victim set is derived from `seed` with density
    /// `1/denominator` (clamped to at least 2 so somebody always runs).
    pub fn with_seed(seed: u64, denominator: u32) -> Self {
        Starve {
            seed,
            denominator: denominator.max(2),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5f5f_5f5f),
            victims: Vec::new(),
        }
    }

    fn ensure_victims(&mut self, n: usize) {
        if self.victims.len() == n {
            return;
        }
        self.victims = (0..n)
            .map(|i| {
                // splitmix64 of (seed, processor): a fixed pseudo-random set.
                fle_model::splitmix64(
                    self.seed
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64)),
                )
                .is_multiple_of(u64::from(self.denominator))
            })
            .collect();
        if self.victims.iter().all(|&v| v) {
            self.victims[0] = false;
        }
    }
}

impl Adversary for Starve {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        self.ensure_victims(observation.n);
        let preferred: Vec<usize> = enabled
            .iter()
            .enumerate()
            .filter(|(_, event)| !self.victims[event.advances().index()])
            .map(|(index, _)| index)
            .collect();
        match preferred.len() {
            // Only victim-advancing events remain: the model forbids refusing
            // to schedule, so release the oldest one.
            0 => Decision::Schedule(0),
            len => Decision::Schedule(preferred[self.rng.gen_range(0..len)]),
        }
    }

    fn name(&self) -> &'static str {
        "starve"
    }
}

/// Split-brain scheduling: the processor space is split into two halves and
/// scheduled in alternating bursts, delaying cross-partition deliveries for
/// as long as possible.
#[derive(Debug, Clone)]
pub struct SplitBrain {
    rng: ChaCha8Rng,
    burst: u32,
    left_in_burst: u32,
    low_half_active: bool,
}

impl SplitBrain {
    /// A split-brain scheduler with the given burst length (clamped to ≥ 1).
    pub fn with_seed(seed: u64, burst: u32) -> Self {
        let burst = burst.max(1);
        SplitBrain {
            rng: ChaCha8Rng::seed_from_u64(seed),
            burst,
            left_in_burst: burst,
            low_half_active: true,
        }
    }

    fn in_active_half(&self, n: usize, p: ProcId) -> bool {
        (p.index() < n.div_ceil(2)) == self.low_half_active
    }

    /// Rank of an event for the current burst: 0 for events wholly inside
    /// the active half, 1 for cross-partition events that still advance the
    /// active half, 2 for everything else.
    fn rank(&self, n: usize, event: &EnabledEvent) -> u8 {
        if !self.in_active_half(n, event.advances()) {
            return 2;
        }
        match event {
            EnabledEvent::Step(_) => 0,
            EnabledEvent::Deliver { from, to, .. } => {
                if self.in_active_half(n, *from) && self.in_active_half(n, *to) {
                    0
                } else {
                    1
                }
            }
        }
    }
}

impl Adversary for SplitBrain {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        if self.left_in_burst == 0 {
            self.low_half_active = !self.low_half_active;
            self.left_in_burst = self.burst;
        }
        self.left_in_burst -= 1;
        let n = observation.n;
        let best = enabled
            .iter()
            .map(|event| self.rank(n, &event))
            .min()
            .unwrap_or(2);
        let candidates: Vec<usize> = enabled
            .iter()
            .enumerate()
            .filter(|(_, event)| self.rank(n, event) == best)
            .map(|(index, _)| index)
            .collect();
        Decision::Schedule(candidates[self.rng.gen_range(0..candidates.len())])
    }

    fn name(&self) -> &'static str {
        "split-brain"
    }
}

/// Caps how often an adversary may *preempt* — schedule an event advancing a
/// different processor while the previously advanced processor still has an
/// enabled event (the CHESS bounded-preemption heuristic: most concurrency
/// bugs need only a handful of preemptions, so exhausting a small budget
/// first concentrates the search).
///
/// While budget remains, the inner adversary's decisions pass through
/// unchanged (each genuine preemption spends one unit). Once it is spent,
/// the wrapper overrides *scheduling* decisions to keep running the last
/// advanced processor for as long as it has an enabled event; switching to
/// another processor when the last one has none (it finished, crashed or
/// blocked) is free, as in CHESS. The inner adversary is consulted on every
/// decision and its crash decisions pass through untouched even while
/// pinned — CHESS bounds preemptions, not fault injection (a crash neither
/// spends budget nor moves the pin).
///
/// The wrapper composes below [`fle_sim::RecordingAdversary`], so a recorded
/// trace contains the *bounded* decisions and replays faithfully without the
/// wrapper. It works against any [`EnabledEvents`] view — simulator events
/// or the gate loop's schedule points alike.
#[derive(Debug, Clone)]
pub struct PreemptionBound<A> {
    inner: A,
    left: u32,
    last: Option<ProcId>,
}

impl<A: Adversary> PreemptionBound<A> {
    /// Allow `inner` at most `bound` preemptions.
    pub fn new(inner: A, bound: u32) -> Self {
        PreemptionBound {
            inner,
            left: bound,
            last: None,
        }
    }

    /// Preemptions still available.
    pub fn left(&self) -> u32 {
        self.left
    }
}

impl<A: Adversary> Adversary for PreemptionBound<A> {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        let last_pos = self
            .last
            .and_then(|last| enabled.iter().position(|event| event.advances() == last));
        let decision = self.inner.decide(observation, enabled);
        let Decision::Schedule(index) = decision else {
            // Crashes are fault injection, not preemption: pass through.
            return decision;
        };
        if self.left == 0 {
            if let Some(pos) = last_pos {
                return Decision::Schedule(pos);
            }
        }
        // Track the processor that actually runs: the gate and the replayer
        // clamp an out-of-range pick to the last enabled entry.
        if let Some(event) = enabled.get(index.min(enabled.len().saturating_sub(1))) {
            let advanced = event.advances();
            if last_pos.is_some() && self.last != Some(advanced) {
                self.left = self.left.saturating_sub(1);
            }
            self.last = Some(advanced);
        }
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A seeded weighted random walk over event categories.
#[derive(Debug, Clone)]
pub struct WeightedWalk {
    rng: ChaCha8Rng,
    /// Weights for steps, request deliveries and reply deliveries.
    weights: [u32; 3],
}

impl WeightedWalk {
    /// A weighted walk with `[steps, requests, replies]` weights (an all-zero
    /// weight vector degrades to the uniform walk).
    pub fn with_seed(seed: u64, weights: [u32; 3]) -> Self {
        WeightedWalk {
            rng: ChaCha8Rng::seed_from_u64(seed),
            weights,
        }
    }

    fn category(event: &EnabledEvent) -> usize {
        match event {
            EnabledEvent::Step(_) => 0,
            EnabledEvent::Deliver { is_request, .. } => {
                if *is_request {
                    1
                } else {
                    2
                }
            }
        }
    }
}

impl Adversary for WeightedWalk {
    fn decide(
        &mut self,
        _observation: &SystemObservation,
        enabled: &EnabledEvents<'_>,
    ) -> Decision {
        let mut total: u64 = 0;
        for event in enabled.iter() {
            total += u64::from(self.weights[Self::category(&event)]);
        }
        if total == 0 {
            return Decision::Schedule(self.rng.gen_range(0..enabled.len()));
        }
        let mut remaining = self.rng.gen_range(0..total);
        for (index, event) in enabled.iter().enumerate() {
            let weight = u64::from(self.weights[Self::category(&event)]);
            if remaining < weight {
                return Decision::Schedule(index);
            }
            remaining -= weight;
        }
        // Unreachable: the weights summed to `total` above. Stay safe anyway.
        Decision::Schedule(0)
    }

    fn name(&self) -> &'static str {
        "weighted-walk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_model::LocalStateView;
    use fle_sim::{MessageId, ProcessObservation};

    fn observation(rounds: Vec<(ProcessPhase, u64)>) -> SystemObservation {
        let n = rounds.len();
        SystemObservation {
            n,
            events_executed: 0,
            crash_budget_left: 1,
            processes: rounds
                .into_iter()
                .enumerate()
                .map(|(i, (phase, round))| ProcessObservation {
                    proc: ProcId(i),
                    phase,
                    local_state: Some(LocalStateView {
                        algorithm: "t",
                        phase: "t",
                        round,
                        coin: None,
                        details: Vec::new(),
                    }),
                })
                .collect(),
        }
    }

    fn step_events(n: usize) -> Vec<EnabledEvent> {
        (0..n).map(|i| EnabledEvent::Step(ProcId(i))).collect()
    }

    #[test]
    fn front_runner_crash_hits_the_strict_leader_before_its_step() {
        let obs = observation(vec![
            (ProcessPhase::StepReady, 1),
            (ProcessPhase::StepReady, 3),
            (ProcessPhase::StepReady, 2),
        ]);
        let enabled = step_events(3);
        let mut strategy = FrontRunnerCrash::with_seed(0, 1);
        assert_eq!(
            strategy.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Crash(ProcId(1))
        );
        // The single crash is spent; afterwards it only schedules.
        assert!(matches!(
            strategy.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Schedule(_)
        ));
    }

    #[test]
    fn front_runner_crash_waits_for_a_strict_leader() {
        // Two processors share the lead: no crash.
        let obs = observation(vec![
            (ProcessPhase::StepReady, 2),
            (ProcessPhase::StepReady, 2),
        ]);
        let enabled = step_events(2);
        let mut strategy = FrontRunnerCrash::with_seed(0, 1);
        assert!(matches!(
            strategy.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Schedule(_)
        ));
        // A leader that is awaiting a quorum (not about to write) is spared.
        let obs = observation(vec![
            (ProcessPhase::StepReady, 1),
            (ProcessPhase::AwaitingQuorum, 3),
        ]);
        assert!(matches!(
            strategy.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Schedule(_)
        ));
    }

    #[test]
    fn starve_avoids_victims_while_possible() {
        let mut strategy = Starve::with_seed(7, 2);
        let obs = observation(vec![(ProcessPhase::StepReady, 0); 6]);
        strategy.ensure_victims(6);
        let victims = strategy.victims.clone();
        assert!(victims.iter().any(|&v| !v), "someone always runs");
        let enabled = step_events(6);
        for _ in 0..50 {
            match strategy.decide(&obs, &EnabledEvents::from_slice(&enabled)) {
                Decision::Schedule(i) => {
                    assert!(!victims[i], "victim {i} must not be scheduled")
                }
                Decision::Crash(_) => panic!("starvation never crashes"),
            }
        }
        // When only victim events remain the oldest is released.
        let first_victim = victims.iter().position(|&v| v).unwrap();
        let only_victims = vec![EnabledEvent::Step(ProcId(first_victim))];
        assert_eq!(
            strategy.decide(&obs, &EnabledEvents::from_slice(&only_victims)),
            Decision::Schedule(0)
        );
    }

    #[test]
    fn split_brain_prefers_the_active_half_and_alternates() {
        let mut strategy = SplitBrain::with_seed(3, 2);
        let obs = observation(vec![(ProcessPhase::StepReady, 0); 4]);
        let enabled = step_events(4);
        // Burst 1 (low half active): only processors 0-1.
        for _ in 0..2 {
            match strategy.decide(&obs, &EnabledEvents::from_slice(&enabled)) {
                Decision::Schedule(i) => assert!(i < 2, "low half first, got {i}"),
                Decision::Crash(_) => panic!("split-brain never crashes"),
            }
        }
        // Burst 2: the high half.
        match strategy.decide(&obs, &EnabledEvents::from_slice(&enabled)) {
            Decision::Schedule(i) => assert!(i >= 2, "high half second, got {i}"),
            Decision::Crash(_) => panic!("split-brain never crashes"),
        }
    }

    #[test]
    fn split_brain_delays_cross_partition_deliveries() {
        let strategy = SplitBrain::with_seed(0, 8);
        let intra = EnabledEvent::Deliver {
            id: MessageId(0),
            from: ProcId(0),
            to: ProcId(1),
            is_request: true,
        };
        let cross = EnabledEvent::Deliver {
            id: MessageId(1),
            from: ProcId(3),
            to: ProcId(0),
            is_request: false,
        };
        assert_eq!(strategy.rank(4, &intra), 0);
        assert!(strategy.rank(4, &cross) > strategy.rank(4, &intra));
    }

    #[test]
    fn weighted_walk_respects_zero_weight_categories() {
        let obs = observation(vec![(ProcessPhase::StepReady, 0); 2]);
        let enabled = vec![
            EnabledEvent::Step(ProcId(0)),
            EnabledEvent::Deliver {
                id: MessageId(0),
                from: ProcId(0),
                to: ProcId(1),
                is_request: true,
            },
        ];
        // Steps have weight 0: the delivery must always be picked.
        let mut strategy = WeightedWalk::with_seed(1, [0, 5, 5]);
        for _ in 0..30 {
            assert_eq!(
                strategy.decide(&obs, &EnabledEvents::from_slice(&enabled)),
                Decision::Schedule(1)
            );
        }
        // All-zero weights degrade to uniform rather than dividing by zero.
        let mut zero = WeightedWalk::with_seed(1, [0, 0, 0]);
        assert!(matches!(
            zero.decide(&obs, &EnabledEvents::from_slice(&enabled)),
            Decision::Schedule(_)
        ));
    }

    #[test]
    fn preemption_bound_pins_the_last_processor_once_spent() {
        /// Schedules 0, 1, 2, … in turn: every pick wants to preempt.
        struct Cycle(usize);
        impl Adversary for Cycle {
            fn decide(
                &mut self,
                _observation: &SystemObservation,
                enabled: &EnabledEvents<'_>,
            ) -> Decision {
                let pick = Decision::Schedule(self.0 % enabled.len());
                self.0 += 1;
                pick
            }
            fn name(&self) -> &'static str {
                "cycle"
            }
        }

        let obs = observation(vec![(ProcessPhase::StepReady, 0); 3]);
        let enabled = step_events(3);
        let view = EnabledEvents::from_slice(&enabled);
        let mut bounded = PreemptionBound::new(Cycle(0), 1);
        // First pick is free (no previous processor), the second spends the
        // only preemption, after which the walk is pinned to processor 1.
        assert_eq!(bounded.decide(&obs, &view), Decision::Schedule(0));
        assert_eq!(bounded.decide(&obs, &view), Decision::Schedule(1));
        assert_eq!(bounded.decide(&obs, &view), Decision::Schedule(1));
        assert_eq!(bounded.decide(&obs, &view), Decision::Schedule(1));
        assert_eq!(bounded.left(), 0);
        assert_eq!(bounded.name(), "cycle");
        // Once processor 1 has no enabled event, switching away is free.
        let remaining = vec![EnabledEvent::Step(ProcId(0)), EnabledEvent::Step(ProcId(2))];
        assert!(matches!(
            bounded.decide(&obs, &EnabledEvents::from_slice(&remaining)),
            Decision::Schedule(_)
        ));
        assert_eq!(bounded.left(), 0, "free switches never refund the budget");
    }

    #[test]
    fn preemption_bound_pins_the_processor_an_out_of_range_pick_ran() {
        /// Always picks one past the end of the enabled list.
        struct PastTheEnd;
        impl Adversary for PastTheEnd {
            fn decide(
                &mut self,
                _observation: &SystemObservation,
                enabled: &EnabledEvents<'_>,
            ) -> Decision {
                Decision::Schedule(enabled.len() + 1)
            }
            fn name(&self) -> &'static str {
                "past-the-end"
            }
        }

        let obs = observation(vec![(ProcessPhase::StepReady, 0); 3]);
        let enabled = step_events(3);
        let view = EnabledEvents::from_slice(&enabled);
        // Budget 0: the first pick (4 of 3 entries) passes through and the
        // gate clamps it to processor 2, so the pin must hold processor 2 —
        // not processor 1, where a modulo wrap would have put it.
        let mut bounded = PreemptionBound::new(PastTheEnd, 0);
        assert_eq!(bounded.decide(&obs, &view), Decision::Schedule(4));
        assert_eq!(bounded.decide(&obs, &view), Decision::Schedule(2));
        assert_eq!(bounded.left(), 0);
    }

    #[test]
    fn preemption_bound_lets_crashes_through_while_pinned() {
        /// Schedules once (forming the pin), then always wants to crash 2.
        struct ScheduleThenCrash(bool);
        impl Adversary for ScheduleThenCrash {
            fn decide(
                &mut self,
                _observation: &SystemObservation,
                _enabled: &EnabledEvents<'_>,
            ) -> Decision {
                if !self.0 {
                    self.0 = true;
                    Decision::Schedule(0)
                } else {
                    Decision::Crash(ProcId(2))
                }
            }
            fn name(&self) -> &'static str {
                "schedule-then-crash"
            }
        }

        let obs = observation(vec![(ProcessPhase::StepReady, 0); 3]);
        let enabled = step_events(3);
        let view = EnabledEvents::from_slice(&enabled);
        // Budget 0: scheduling is pinned to processor 0 after the first
        // grant, but fault injection is not preemption and passes through.
        let mut bounded = PreemptionBound::new(ScheduleThenCrash(false), 0);
        assert_eq!(bounded.decide(&obs, &view), Decision::Schedule(0));
        assert_eq!(bounded.decide(&obs, &view), Decision::Crash(ProcId(2)));
        assert_eq!(bounded.decide(&obs, &view), Decision::Crash(ProcId(2)));
    }

    #[test]
    fn specs_build_and_display() {
        for spec in StrategySpec::library() {
            let adversary = spec.build(5);
            assert!(!adversary.name().is_empty());
            assert!(!spec.to_string().is_empty());
        }
        assert_eq!(
            StrategySpec::Starve { denominator: 3 }.to_string(),
            "starve(1/3)"
        );
    }
}
