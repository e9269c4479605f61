//! The exploration driver: fan seeded attack episodes across cores, evaluate
//! the oracles online, and record every violation as a replayable decision
//! trace.
//!
//! One *episode* is a deterministic execution: a [`Scenario`] installed into
//! a fresh simulator (seeded with `sim_seed`), driven by one attack strategy
//! (built from a [`StrategySpec`] with `strategy_seed`), with the scenario's
//! oracles checked after **every** event. The [`Explorer`] enumerates the
//! `strategy × sim_seed × strategy_seed` grid and fans the episodes over OS
//! threads with [`fle_bench::BatchRunner`]; because each episode is
//! deterministic and results come back in job order, a hunt's outcome is
//! bitwise independent of the thread count.

use crate::concurrent::{run_episode_exec, ShmConfig};
use crate::coverage::{CoverageProbe, NullProbe};
use crate::oracles::{budget_violation, OracleCtx, Violation};
use crate::partitioned::{run_episode_partitioned, PartitionedConfig};
use crate::scenario::Scenario;
use crate::strategies::StrategySpec;
use fle_bench::BatchRunner;
use fle_sim::{
    Adversary, DecisionTrace, RecordingAdversary, ReplayAdversary, SimConfig, SimError, Simulator,
};
use std::fmt;

/// Which execution substrate a hunt sweeps.
///
/// Episodes on every backend share the strategy library, the oracles and
/// the seed grids, and the simulator and the gated executor share the
/// [`DecisionTrace`] codec; only the meaning of a `Schedule(i)` decision
/// differs (the i-th enabled simulator event versus the i-th gated
/// participant task).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExploreBackend {
    /// The discrete-event simulator (`fle_sim::Simulator`).
    #[default]
    Sim,
    /// The partitioned parallel simulator
    /// (`fle_sim::ParallelSimulator`): one adversary per partition, oracles
    /// checked at every super-round barrier, violations replayed by plan
    /// rather than by decision trace (see [`crate::partitioned`]).
    Partitioned(PartitionedConfig),
    /// The task-multiplexed executor behind schedule gates
    /// (`fle_runtime::SharedRegisters` under `fle_runtime::run_gated`):
    /// identical strategies, oracles and trace codec as the simulator, with
    /// participants as cooperative tasks on a shared worker pool — so wide
    /// hunts do not multiply `episodes × participants` into thread counts.
    Async(ShmConfig),
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
    /// The decision trace reproducing the violation via
    /// [`ReplayAdversary`] against the same scenario and `sim_seed`.
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

/// Outcome of driving one simulator under one adversary with oracles.
#[derive(Debug)]
pub(crate) enum DriveOutcome {
    /// Completed without a violation.
    Clean {
        /// Events the execution took.
        events: u64,
    },
    /// An oracle fired after the reported number of events.
    Violated(Violation),
}

/// Build the scenario's simulator, drive it under `adversary`, and check the
/// scenario's oracles after every event. Shared by the explorer (recording
/// adversaries), the shrinker (replay adversaries) and the coverage driver
/// (which passes a real [`CoverageProbe`]; everyone else passes
/// [`crate::coverage::NullProbe`]).
pub(crate) fn drive(
    scenario: &dyn Scenario,
    sim_seed: u64,
    adversary: &mut dyn Adversary,
    probe: &mut dyn CoverageProbe,
) -> DriveOutcome {
    let mut config = SimConfig::new(scenario.n()).with_seed(sim_seed);
    if let Some(budget) = scenario.max_events() {
        config = config.with_max_events(budget);
    }
    let engine_budget = config.max_events;
    let mut sim = Simulator::new(config);
    scenario.install(&mut sim);
    let participants = scenario.participants();
    let mut oracles = scenario.oracles();
    loop {
        match sim.step_once(adversary) {
            Ok(false) => {
                return DriveOutcome::Clean {
                    events: sim.events_executed(),
                }
            }
            Ok(true) => {
                let ctx = OracleCtx {
                    report: sim.report_so_far(),
                    observation: sim.observation(),
                    participants: &participants,
                    events_executed: sim.events_executed(),
                };
                probe.observe(&ctx);
                for oracle in &mut oracles {
                    if let Some(violation) = oracle.check(&ctx) {
                        return DriveOutcome::Violated(violation);
                    }
                }
            }
            Err(SimError::EventBudgetExhausted { .. }) => {
                // A schedule that cannot finish is a quiescence violation,
                // not an infrastructure error.
                return DriveOutcome::Violated(budget_violation(
                    engine_budget,
                    sim.events_executed(),
                ));
            }
            Err(error) => {
                // The adversaries in this crate only emit valid decisions;
                // anything else is a bug worth failing loudly on.
                panic!("exploration episode hit a simulator error: {error}");
            }
        }
    }
}

/// Run one episode: build the strategy, record its decisions, evaluate the
/// oracles online.
pub fn run_episode(scenario: &dyn Scenario, plan: &EpisodePlan) -> EpisodeOutcome {
    let mut recording = RecordingAdversary::new(plan.strategy.build(plan.strategy_seed));
    match drive(scenario, plan.sim_seed, &mut recording, &mut NullProbe) {
        DriveOutcome::Clean { events } => EpisodeOutcome::Clean { events },
        DriveOutcome::Violated(violation) => EpisodeOutcome::Violated(Box::new(FoundViolation {
            violation,
            decisions: recording.into_trace(),
            scenario: scenario.name(),
            plan: *plan,
        })),
    }
}

/// Replay a decision trace against the scenario; returns the violation it
/// reproduces (if any) and how many trace decisions were consumed before it
/// fired. Used by the shrinker and by tests asserting reproducibility.
pub fn replay(
    scenario: &dyn Scenario,
    sim_seed: u64,
    decisions: &DecisionTrace,
) -> (Option<Violation>, usize) {
    let mut replayer = ReplayAdversary::new(decisions);
    let outcome = drive(scenario, sim_seed, &mut replayer, &mut NullProbe);
    let consumed = replayer.consumed();
    match outcome {
        DriveOutcome::Violated(violation) => (Some(violation), consumed),
        DriveOutcome::Clean { .. } => (None, consumed),
    }
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
        let outcomes = self.runner.map(&plans, move |plan| match backend {
            ExploreBackend::Sim => run_episode(scenario, plan),
            ExploreBackend::Partitioned(config) => run_episode_partitioned(scenario, plan, &config),
            ExploreBackend::Async(config) => run_episode_exec(scenario, plan, &config),
        });
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
