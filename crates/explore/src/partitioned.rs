//! Schedule exploration on the **partitioned** simulator backend
//! ([`fle_sim::ParallelSimulator`], [`crate::ExploreBackend::Partitioned`]).
//!
//! An episode here is one adversarial-mode partitioned run, with the
//! scenario's oracles evaluated at every super-round barrier over the
//! merged report and observation. Checking per *round* rather than per
//! *event* is the natural granularity of this engine — within a round the
//! partitions advance concurrently and no global state exists to check.
//!
//! No global decision order exists either, so the two schedule sources of
//! [`crate::run_episode`] and [`crate::replay`] mean something different
//! here:
//!
//! * **A strategy plan** gives each partition its own copy of the plan's
//!   attack strategy, seeded by a pure function of the strategy seed and
//!   the partition's engine seed. Such an episode is a pure function of
//!   `(scenario, plan, partitions)` — every coin comes from the
//!   per-processor streams of `plan.sim_seed`, and worker threads cannot
//!   affect results — so a [`crate::FoundViolation`] from this backend
//!   carries an **empty** [`fle_sim::DecisionTrace`]: rerunning the plan
//!   *is* the replay, and there is no decision list for ddmin to minimize.
//! * **A trace** is installed into every partition behind a crash filter
//!   (a crash of a processor the partition does not own degrades to a
//!   schedule), which is how coverage mutant episodes and [`crate::replay`]
//!   run here; the whole trace counts as consumed.

use crate::coverage::CoverageProbe;
use crate::explorer::probe_and_check;
use crate::oracles::{budget_violation, OracleCtx, Violation};
use crate::scenario::Scenario;
use fle_sim::{
    Adversary, Decision, EnabledEvents, ParallelSimulator, ProcessPhase, SimConfig, SimError,
    SystemObservation,
};

/// Configuration of the partitioned exploration backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionedConfig {
    /// Number of partitions (clamped to `1..=n` by the engine).
    pub partitions: usize,
    /// Worker-thread cap (0 = one per partition, up to the core count).
    /// Cannot affect episode outcomes; purely a resource knob.
    pub workers: usize,
}

impl Default for PartitionedConfig {
    fn default() -> Self {
        PartitionedConfig {
            partitions: 2,
            workers: 0,
        }
    }
}

/// Degrades crash decisions the partitioned engine would reject. A
/// partition may only crash processors it owns, and remote processors
/// appear [`ProcessPhase::Idle`] in its observation — so crashes of
/// anything but a live local processor (or with no budget left) degrade to
/// scheduling the oldest enabled event, the same tolerance rule the
/// replayers apply to illegal crashes everywhere else.
pub(crate) struct PartitionSafe<A>(pub(crate) A);

impl<A: Adversary> Adversary for PartitionSafe<A> {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        match self.0.decide(observation, enabled) {
            Decision::Crash(victim) => {
                let local_live = victim.index() < observation.n
                    && matches!(
                        observation.process(victim).phase,
                        ProcessPhase::NotStarted
                            | ProcessPhase::StepReady
                            | ProcessPhase::AwaitingQuorum
                    );
                if local_live && observation.crash_budget_left > 0 {
                    Decision::Crash(victim)
                } else {
                    Decision::Schedule(0)
                }
            }
            decision => decision,
        }
    }

    fn name(&self) -> &'static str {
        "partition-safe"
    }
}

/// Drive one partitioned run of `scenario` under per-partition adversaries
/// built by `build`, checking the scenario's oracles at every super-round
/// barrier. Returns the violation (if any) and the events executed. The
/// probe sees every barrier ctx the oracles see
/// ([`crate::coverage::NullProbe`] outside coverage hunts).
pub(crate) fn drive_partitioned(
    scenario: &dyn Scenario,
    sim_seed: u64,
    build: impl FnMut(usize, u64) -> Box<dyn Adversary>,
    config: &PartitionedConfig,
    probe: &mut dyn CoverageProbe,
) -> (Option<Violation>, u64) {
    let mut sim_config = SimConfig::new(scenario.n())
        .with_seed(sim_seed)
        .with_partitions(config.partitions);
    if let Some(budget) = scenario.max_events() {
        sim_config = sim_config.with_max_events(budget);
    }
    let engine_budget = sim_config.max_events;
    let mut sim = ParallelSimulator::new(sim_config).with_workers(config.workers);
    for (proc, protocol) in scenario.protocols() {
        sim.add_participant(proc, protocol);
    }
    let participants = scenario.participants();
    let mut oracles = scenario.oracles();
    sim.set_adversaries(build);

    let violation = loop {
        match sim.step_round() {
            Ok(false) => break None,
            Ok(true) => {
                let report = sim.merged_report_so_far();
                let observation = sim.merged_observation();
                let ctx = OracleCtx {
                    report: &report,
                    observation: &observation,
                    participants: &participants,
                    events_executed: sim.events_executed(),
                };
                let fired = probe_and_check(&ctx, &mut oracles, probe);
                if fired.is_some() {
                    break fired;
                }
            }
            Err(SimError::EventBudgetExhausted { .. }) => {
                break Some(budget_violation(engine_budget, sim.events_executed()));
            }
            Err(error) => {
                panic!("partitioned exploration episode hit a simulator error: {error}");
            }
        }
    };
    (violation, sim.events_executed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{replay, run_episode, EpisodeOutcome, EpisodePlan, ExploreBackend};
    use crate::sabotage::SabotagedElectionScenario;
    use crate::scenario::ElectionScenario;
    use crate::strategies::StrategySpec;
    use fle_sim::DecisionTrace;

    fn plan(strategy: StrategySpec, sim_seed: u64) -> EpisodePlan {
        EpisodePlan {
            strategy,
            sim_seed,
            strategy_seed: 0,
        }
    }

    fn partitioned(config: PartitionedConfig) -> ExploreBackend {
        ExploreBackend::Partitioned(config)
    }

    #[test]
    fn healthy_election_episodes_are_clean_when_partitioned() {
        let scenario = ElectionScenario { n: 8, k: 8 };
        let backend = partitioned(PartitionedConfig::default());
        for strategy in StrategySpec::library() {
            for sim_seed in 0..2 {
                match run_episode(&scenario, &plan(strategy, sim_seed), &backend) {
                    EpisodeOutcome::Clean { events } => assert!(events > 0),
                    EpisodeOutcome::Violated(found) => {
                        panic!("healthy election flagged: {found}")
                    }
                }
            }
        }
    }

    #[test]
    fn sabotaged_election_is_caught_when_partitioned() {
        let scenario = SabotagedElectionScenario { n: 8, k: 8 };
        let backend = partitioned(PartitionedConfig::default());
        let mut caught = false;
        'outer: for strategy in StrategySpec::library() {
            for sim_seed in 0..8 {
                if let EpisodeOutcome::Violated(found) =
                    run_episode(&scenario, &plan(strategy, sim_seed), &backend)
                {
                    assert_eq!(found.violation.oracle, "unique-leader");
                    assert!(
                        found.decisions.is_empty(),
                        "partitioned violations replay by plan, not by trace"
                    );
                    caught = true;
                    break 'outer;
                }
            }
        }
        assert!(caught, "the sabotaged election must be caught");
    }

    #[test]
    fn installed_traces_replay_deterministically_and_count_as_consumed_whole() {
        // A trace replayed here is installed into every partition (behind
        // `PartitionSafe`, so the crash of a remote processor degrades):
        // the verdict is a pure function of the trace, and the consumed
        // count is the whole trace, whatever the partitions used of it.
        let scenario = ElectionScenario { n: 8, k: 8 };
        let backend = partitioned(PartitionedConfig::default());
        let trace = DecisionTrace::parse("s1 c6 s0 s2 c1 s3").expect("a valid trace");
        let first = replay(&scenario, 4, &trace, &backend);
        assert_eq!(first, (None, trace.len()), "the healthy election is clean");
        assert_eq!(first, replay(&scenario, 4, &trace, &backend));
        let empty = DecisionTrace::new();
        assert_eq!(replay(&scenario, 4, &empty, &backend), (None, 0));
    }

    #[test]
    fn episodes_are_deterministic_across_worker_counts() {
        let scenario = ElectionScenario { n: 12, k: 12 };
        let base = partitioned(PartitionedConfig {
            partitions: 3,
            workers: 1,
        });
        for strategy in [
            StrategySpec::library()[0],
            *StrategySpec::library().last().unwrap(),
        ] {
            let reference = run_episode(&scenario, &plan(strategy, 5), &base);
            for workers in [2usize, 8] {
                let candidate = run_episode(
                    &scenario,
                    &plan(strategy, 5),
                    &partitioned(PartitionedConfig {
                        partitions: 3,
                        workers,
                    }),
                );
                match (&reference, &candidate) {
                    (EpisodeOutcome::Clean { events: a }, EpisodeOutcome::Clean { events: b }) => {
                        assert_eq!(a, b, "worker count changed the event count")
                    }
                    (EpisodeOutcome::Violated(a), EpisodeOutcome::Violated(b)) => {
                        assert_eq!(a.violation, b.violation)
                    }
                    _ => panic!("worker count changed the episode outcome"),
                }
            }
        }
    }
}
