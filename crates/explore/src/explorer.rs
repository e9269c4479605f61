//! The exploration driver: fan seeded attack episodes across cores, evaluate
//! the oracles online, and record every violation as a replayable decision
//! trace.
//!
//! One *episode* is a deterministic execution: a [`Scenario`] registered
//! with a fresh engine of one [`ExploreBackend`] (seeded with `sim_seed`),
//! driven by one attack strategy (built from a [`StrategySpec`] with
//! `strategy_seed`) or by a trace to replay, with the scenario's oracles
//! checked after **every** event. One runner maps the backend and the
//! schedule source to the backend's drive loop; [`run_episode`],
//! [`replay`], [`crate::shrink()`], the [`Explorer`] and the coverage hunts
//! all go through it. The [`Explorer`] enumerates the
//! `strategy × sim_seed × strategy_seed` grid and fans the episodes over OS
//! threads with [`fle_bench::BatchRunner`]; because each episode is
//! deterministic and results come back in job order, a hunt's outcome is
//! bitwise independent of the thread count.

use crate::coverage::{CoverageProbe, NullProbe};
use crate::gated::{drive_gated, GatedConfig};
use crate::oracles::{budget_violation, Oracle, OracleCtx, Violation};
use crate::scenario::Scenario;
use crate::strategies::{PreemptionBound, StrategySpec};
use fle_bench::BatchRunner;
use fle_sim::{
    Adversary, DecisionTrace, RecordingAdversary, ReplayAdversary, SimConfig, SimError, Simulator,
};
use std::borrow::Cow;
use std::fmt;

/// Which execution substrate an episode runs on.
///
/// Episodes on both backends share the strategy library, the oracles, the
/// seed grids, the [`DecisionTrace`] codec and one episode runner behind
/// [`run_episode`], [`replay`] and [`crate::shrink()`]; only the meaning of
/// a `Schedule(i)` decision differs (the i-th enabled simulator event
/// versus the i-th waiting participant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExploreBackend {
    /// The discrete-event simulator (`fle_sim::Simulator`).
    #[default]
    Sim,
    /// The schedule-gate loop (`fle_runtime::run_gated`): identical
    /// strategies, oracles and trace codec as the simulator, with the
    /// participants as machines over `fle_runtime::SharedRegisters`, stepped
    /// on the episode's own thread — the service's execution shape, with the
    /// adversary picking each operation (see [`crate::gated`]).
    Gated(GatedConfig),
}

/// The coordinates of one episode in the exploration grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpisodePlan {
    /// Which attack strategy drives the schedule.
    pub strategy: StrategySpec,
    /// Seed of the simulator (protocol coin flips).
    pub sim_seed: u64,
    /// Seed of the strategy's own randomness.
    pub strategy_seed: u64,
}

/// A violation found by the explorer, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// Which invariant broke, and when.
    pub violation: Violation,
    /// The decision trace reproducing the violation under [`replay`] against
    /// the same scenario, `sim_seed` and backend.
    pub decisions: DecisionTrace,
    /// The scenario name (for reports).
    pub scenario: String,
    /// The episode that found it.
    pub plan: EpisodePlan,
}

impl fmt::Display for FoundViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} under {} (sim seed {}, strategy seed {}): {} — replay with trace of {} decisions",
            self.scenario,
            self.plan.strategy,
            self.plan.sim_seed,
            self.plan.strategy_seed,
            self.violation,
            self.decisions.len()
        )
    }
}

/// The result of one episode.
#[derive(Debug, Clone)]
pub enum EpisodeOutcome {
    /// The execution completed with every oracle silent.
    Clean {
        /// Events the execution took.
        events: u64,
    },
    /// An oracle fired (or the engine's budget ran out).
    Violated(Box<FoundViolation>),
}

/// Where an episode's decisions come from.
#[derive(Debug, Clone)]
pub(crate) enum Schedule<'a> {
    /// Build the plan's attack strategy and record what it decides.
    Plan(EpisodePlan),
    /// Replay a trace under `sim_seed` with the tolerant replayer.
    Replay {
        /// The decisions to replay.
        trace: Cow<'a, DecisionTrace>,
        /// Seed of the simulator (protocol coin flips).
        sim_seed: u64,
    },
}

impl Schedule<'_> {
    /// The simulator seed the episode runs under.
    pub(crate) fn sim_seed(&self) -> u64 {
        match self {
            Schedule::Plan(plan) => plan.sim_seed,
            Schedule::Replay { sim_seed, .. } => *sim_seed,
        }
    }
}

/// What one episode did.
pub(crate) struct Episode {
    /// The first violation, if any oracle fired.
    pub(crate) violation: Option<Violation>,
    /// Events executed (grants on the gated backend).
    pub(crate) events: u64,
    /// The executed schedule: every decision the adversary made.
    pub(crate) trace: DecisionTrace,
}

/// The one episode runner: run `schedule` against `scenario` on `backend`,
/// with the scenario's oracles checked at every check point and `probe`
/// observing the same contexts. Every entry point — the blind hunt,
/// [`replay`], [`crate::shrink()`] and the coverage hunts — runs through
/// here, so a backend's schedule semantics live in one place.
pub(crate) fn run_schedule(
    scenario: &dyn Scenario,
    schedule: &Schedule<'_>,
    backend: &ExploreBackend,
    probe: &mut dyn CoverageProbe,
) -> Episode {
    let sim_seed = schedule.sim_seed();
    let adversary: Box<dyn Adversary> = match schedule {
        Schedule::Plan(plan) => {
            let strategy = plan.strategy.build(plan.strategy_seed);
            match backend {
                ExploreBackend::Gated(GatedConfig {
                    preemption_bound: Some(bound),
                    ..
                }) => Box::new(PreemptionBound::new(strategy, *bound)),
                _ => strategy,
            }
        }
        Schedule::Replay { trace, .. } => Box::new(ReplayAdversary::new(trace)),
    };
    let mut recording = RecordingAdversary::new(adversary);
    let (violation, events) = match backend {
        ExploreBackend::Sim => drive(scenario, sim_seed, &mut recording, probe),
        ExploreBackend::Gated(config) => {
            drive_gated(scenario, sim_seed, &mut recording, config, probe)
        }
    };
    Episode {
        violation,
        events,
        trace: recording.into_trace(),
    }
}

/// Show `ctx` to the probe, then to every oracle in order; the first
/// violation wins. Every backend's drive loop checks through here.
pub(crate) fn probe_and_check(
    ctx: &OracleCtx<'_>,
    oracles: &mut [Box<dyn Oracle>],
    probe: &mut dyn CoverageProbe,
) -> Option<Violation> {
    probe.observe(ctx);
    oracles.iter_mut().find_map(|oracle| oracle.check(ctx))
}

/// Build the scenario's simulator, drive it under `adversary`, and check the
/// scenario's oracles after every event. Returns the violation (if any) and
/// the events executed.
fn drive(
    scenario: &dyn Scenario,
    sim_seed: u64,
    adversary: &mut dyn Adversary,
    probe: &mut dyn CoverageProbe,
) -> (Option<Violation>, u64) {
    let mut config = SimConfig::new(scenario.n()).with_seed(sim_seed);
    if let Some(budget) = scenario.max_events() {
        config = config.with_max_events(budget);
    }
    let engine_budget = config.max_events;
    let mut sim = Simulator::new(config);
    for (proc, protocol) in scenario.protocols() {
        sim.add_participant(proc, protocol);
    }
    let participants = scenario.participants();
    let mut oracles = scenario.oracles();
    let violation = loop {
        match sim.step_once(adversary) {
            Ok(false) => break None,
            Ok(true) => {
                let ctx = OracleCtx {
                    report: sim.report_so_far(),
                    observation: sim.observation(),
                    participants: &participants,
                    events_executed: sim.events_executed(),
                };
                let fired = probe_and_check(&ctx, &mut oracles, probe);
                if fired.is_some() {
                    break fired;
                }
            }
            Err(SimError::EventBudgetExhausted { .. }) => {
                // A schedule that cannot finish is a quiescence violation,
                // not an infrastructure error.
                break Some(budget_violation(engine_budget, sim.events_executed()));
            }
            Err(error) => {
                // The adversaries in this crate only emit valid decisions;
                // anything else is a bug worth failing loudly on.
                panic!("exploration episode hit a simulator error: {error}");
            }
        }
    };
    (violation, sim.events_executed())
}

/// Run one episode on `backend`: build the plan's strategy, record its
/// decisions, evaluate the oracles online.
pub fn run_episode(
    scenario: &dyn Scenario,
    plan: &EpisodePlan,
    backend: &ExploreBackend,
) -> EpisodeOutcome {
    let episode = run_schedule(scenario, &Schedule::Plan(*plan), backend, &mut NullProbe);
    match episode.violation {
        None => EpisodeOutcome::Clean {
            events: episode.events,
        },
        Some(violation) => EpisodeOutcome::Violated(Box::new(FoundViolation {
            violation,
            decisions: episode.trace,
            scenario: scenario.name(),
            plan: *plan,
        })),
    }
}

/// Replay a decision trace against the scenario on `backend`; returns the
/// violation it reproduces (if any) and how many trace decisions were
/// consumed before it fired. Used by the shrinker and by tests asserting
/// reproducibility. A trace only means the same thing on the backend that
/// recorded it.
pub fn replay(
    scenario: &dyn Scenario,
    sim_seed: u64,
    decisions: &DecisionTrace,
    backend: &ExploreBackend,
) -> (Option<Violation>, usize) {
    let schedule = Schedule::Replay {
        trace: Cow::Borrowed(decisions),
        sim_seed,
    };
    let episode = run_schedule(scenario, &schedule, backend, &mut NullProbe);
    // The replayer consumes one trace decision per decision it makes until
    // the trace runs out, so the consumed prefix is the shorter of the two.
    (episode.violation, episode.trace.len().min(decisions.len()))
}

/// Summary of one hunt over the episode grid.
#[derive(Debug, Default)]
pub struct HuntReport {
    /// Total episodes executed.
    pub episodes: usize,
    /// Episodes that completed with every oracle silent.
    pub clean: usize,
    /// Total events executed across clean episodes.
    pub clean_events: u64,
    /// Every violation found, in deterministic grid order.
    pub violations: Vec<FoundViolation>,
}

impl HuntReport {
    /// The first violation in grid order, if any was found.
    pub fn first_violation(&self) -> Option<&FoundViolation> {
        self.violations.first()
    }
}

/// Fans seeded attack episodes over a scenario across all cores.
pub struct Explorer<'a> {
    scenario: &'a dyn Scenario,
    strategies: Vec<StrategySpec>,
    sim_seeds: Vec<u64>,
    strategy_seeds: Vec<u64>,
    runner: BatchRunner,
    backend: ExploreBackend,
}

impl<'a> Explorer<'a> {
    /// An explorer over `scenario` with the default attack library, sim
    /// seeds `0..8`, strategy seeds `0..2`, one worker per core, and the
    /// simulator backend.
    pub fn new(scenario: &'a dyn Scenario) -> Self {
        Explorer {
            scenario,
            strategies: StrategySpec::library(),
            sim_seeds: (0..8).collect(),
            strategy_seeds: (0..2).collect(),
            runner: BatchRunner::new(),
            backend: ExploreBackend::Sim,
        }
    }

    /// Hunt on a different execution substrate (default:
    /// [`ExploreBackend::Sim`]).
    #[must_use]
    pub fn with_backend(mut self, backend: ExploreBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replace the attack-strategy list.
    #[must_use]
    pub fn with_strategies(mut self, strategies: Vec<StrategySpec>) -> Self {
        self.strategies = strategies;
        self
    }

    /// Replace the simulator-seed list.
    #[must_use]
    pub fn with_sim_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.sim_seeds = seeds.into_iter().collect();
        self
    }

    /// Replace the strategy-seed list.
    #[must_use]
    pub fn with_strategy_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.strategy_seeds = seeds.into_iter().collect();
        self
    }

    /// Use an explicit thread count (the default is one per core).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.runner = BatchRunner::with_threads(threads);
        self
    }

    /// The episode grid in deterministic order:
    /// strategy-major, then sim seed, then strategy seed.
    pub fn plans(&self) -> Vec<EpisodePlan> {
        let mut plans = Vec::new();
        for &strategy in &self.strategies {
            for &sim_seed in &self.sim_seeds {
                for &strategy_seed in &self.strategy_seeds {
                    plans.push(EpisodePlan {
                        strategy,
                        sim_seed,
                        strategy_seed,
                    });
                }
            }
        }
        plans
    }

    /// Run every episode of the grid (in parallel, deterministically) and
    /// collect the violations.
    pub fn hunt(&self) -> HuntReport {
        let plans = self.plans();
        let scenario = self.scenario;
        let backend = self.backend;
        let outcomes = self
            .runner
            .map(&plans, move |plan| run_episode(scenario, plan, &backend));
        let mut report = HuntReport {
            episodes: plans.len(),
            ..HuntReport::default()
        };
        for outcome in outcomes {
            match outcome {
                EpisodeOutcome::Clean { events } => {
                    report.clean += 1;
                    report.clean_events += events;
                }
                EpisodeOutcome::Violated(found) => report.violations.push(*found),
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ElectionScenario, SiftScenario};

    #[test]
    fn healthy_election_episodes_are_clean() {
        let scenario = ElectionScenario { n: 4, k: 4 };
        let report = Explorer::new(&scenario)
            .with_sim_seeds(0..2)
            .with_strategy_seeds(0..1)
            .with_threads(2)
            .hunt();
        assert_eq!(report.episodes, StrategySpec::library().len() * 2);
        assert_eq!(report.clean, report.episodes);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.first_violation().is_none());
        assert!(report.clean_events > 0);
    }

    #[test]
    fn hunts_are_deterministic_across_thread_counts() {
        let scenario = SiftScenario::heterogeneous(4);
        let serial = Explorer::new(&scenario)
            .with_sim_seeds(0..2)
            .with_threads(1)
            .hunt();
        let parallel = Explorer::new(&scenario)
            .with_sim_seeds(0..2)
            .with_threads(8)
            .hunt();
        assert_eq!(serial.clean, parallel.clean);
        assert_eq!(serial.clean_events, parallel.clean_events);
        assert_eq!(serial.violations.len(), parallel.violations.len());
    }

    /// A scenario whose event budget is capped: the one budget override,
    /// honoured the same way by every backend.
    struct Capped {
        inner: ElectionScenario,
        budget: u64,
    }

    impl Scenario for Capped {
        fn name(&self) -> String {
            format!("{} capped at {}", self.inner.name(), self.budget)
        }

        fn n(&self) -> usize {
            self.inner.n()
        }

        fn participants(&self) -> Vec<fle_model::ProcId> {
            self.inner.participants()
        }

        fn protocols(&self) -> Vec<(fle_model::ProcId, Box<dyn fle_model::Protocol + Send>)> {
            self.inner.protocols()
        }

        fn oracles(&self) -> Vec<Box<dyn Oracle>> {
            self.inner.oracles()
        }

        fn max_events(&self) -> Option<u64> {
            Some(self.budget)
        }
    }

    #[test]
    fn tiny_event_budgets_surface_as_termination_violations_on_every_backend() {
        let scenario = Capped {
            inner: ElectionScenario { n: 4, k: 4 },
            budget: 3,
        };
        let plan = EpisodePlan {
            strategy: StrategySpec::SplitBrain { burst: 4 },
            sim_seed: 0,
            strategy_seed: 0,
        };
        for backend in [
            ExploreBackend::Sim,
            ExploreBackend::Gated(GatedConfig::default()),
        ] {
            match run_episode(&scenario, &plan, &backend) {
                EpisodeOutcome::Violated(found) => assert_eq!(
                    found.violation.oracle,
                    crate::oracles::TERMINATION_BUDGET,
                    "{backend:?}"
                ),
                EpisodeOutcome::Clean { .. } => {
                    panic!("{backend:?}: 3 events cannot finish an election")
                }
            }
        }
    }

    #[test]
    fn plans_enumerate_the_full_grid() {
        let scenario = ElectionScenario { n: 2, k: 2 };
        let explorer = Explorer::new(&scenario)
            .with_strategies(vec![StrategySpec::SplitBrain { burst: 4 }])
            .with_sim_seeds([3, 5])
            .with_strategy_seeds([7]);
        let plans = explorer.plans();
        assert_eq!(plans.len(), 2);
        assert!(plans.iter().all(|p| p.strategy_seed == 7));
    }
}
