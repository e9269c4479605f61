//! Hunting the **gate loop**: the same strategies, oracles, traces and
//! shrinker as the simulator, pointed at participant machines over
//! [`fle_runtime::SharedRegisters`] ([`crate::ExploreBackend::Gated`]) — the
//! service's own execution shape, with the adversary picking each operation.
//!
//! [`fle_runtime::run_gated`] steps the participants on the calling thread,
//! stops each at its [`fle_model::SchedulePoint`] gates and lets a picker
//! choose the interleaving. This module adapts that picker interface to the
//! simulator's [`Adversary`] so the entire simulator pipeline transfers
//! unchanged:
//!
//! * every attack strategy ([`crate::strategies`]) sees a synthetic
//!   [`SystemObservation`] + [`EnabledEvents`] view in which each gated
//!   participant appears as one enabled `Step` event carrying its live
//!   [`fle_model::LocalStateView`] — the exact shape the strategies already
//!   consume;
//! * every safety oracle ([`crate::oracles`]) is evaluated online after each
//!   grant, over an [`ExecutionReport`] assembled from the runner's
//!   progress, and aborts the episode at the first bad grant;
//! * every violation is recorded as a [`fle_sim::DecisionTrace`]
//!   (`s<i>` = grant the i-th waiting participant, `c<p>` = crash
//!   processor p — same codec as the simulator), replayed by
//!   [`crate::replay`] and minimized by [`crate::shrink()`] on this backend.
//!
//! Determinism: one episode = fresh register bank + seeded per-participant
//! coin streams + fully serialized grants, so the execution is a pure
//! function of `(scenario, sim_seed, decision sequence)` — independent of
//! machine load, OS scheduling and explorer thread count. That is what makes
//! a counterexample found on the gate loop replayable from its compact text
//! form alone.
//!
//! # Example
//!
//! Point a hunt at the gate loop (the healthy election survives):
//!
//! ```
//! use fle_explore::{ElectionScenario, ExploreBackend, Explorer, GatedConfig};
//!
//! let scenario = ElectionScenario { n: 3, k: 3 };
//! let report = Explorer::new(&scenario)
//!     .with_backend(ExploreBackend::Gated(GatedConfig::default()))
//!     .with_sim_seeds(0..1)
//!     .with_strategy_seeds(0..1)
//!     .with_threads(2)
//!     .hunt();
//! assert_eq!(report.clean, report.episodes);
//! assert!(report.violations.is_empty());
//! ```

use crate::coverage::CoverageProbe;
use crate::explorer::probe_and_check;
use crate::oracles::{budget_violation, Oracle, OracleCtx, Violation};
use crate::scenario::Scenario;
use fle_model::ProcId;
use fle_runtime::{
    run_gated, FaultPlan, GateCommand, GateObservation, GateScheduler, ScheduleConfig,
};
use fle_sim::{
    Adversary, Decision, EnabledEvent, EnabledEvents, ExecutionReport, ProcessObservation,
    ProcessPhase, SystemObservation,
};

/// How the gate loop is exercised during a hunt. The grant budget is
/// [`Scenario::max_events`] when set, else the
/// [`ScheduleConfig::for_participants`] default; running out of it is
/// reported as a termination-budget violation, like the simulator's event
/// budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatedConfig {
    /// Cap on schedule preemptions per strategy episode (`None` =
    /// unbounded): wraps the strategy in [`crate::PreemptionBound`] *below*
    /// the recorder, so recorded traces contain the bounded decisions and
    /// replay without the wrapper.
    pub preemption_bound: Option<u32>,
    /// Deterministic fault injection under every episode (`None` = fault
    /// free): a [`fle_runtime::FaultyMemory`] decorator between the
    /// register bank and each gated participant. The whole exploration
    /// stack — strategies, oracles, recorded traces, replay, ddmin — works
    /// unchanged against the service-under-faults; episodes stay a pure
    /// function of `(scenario, sim_seed, decisions, plan)` because the fault
    /// stream is seeded by the plan, not the clock.
    pub faults: Option<FaultPlan>,
}

/// The [`GateScheduler`] that closes the loop: builds the simulator-shaped
/// observation, checks the oracles online, then lets an [`Adversary`] pick.
struct OnlineAdversaryScheduler<'a> {
    /// System size reported to strategies (`scenario.n()`, which may exceed
    /// the participant count — absent processors appear `Idle`).
    n: usize,
    participants: &'a [ProcId],
    adversary: &'a mut dyn Adversary,
    /// Coverage observer, fed the same per-grant [`OracleCtx`] as the
    /// oracles ([`crate::coverage::NullProbe`] outside coverage hunts).
    probe: &'a mut dyn CoverageProbe,
    oracles: Vec<Box<dyn Oracle>>,
    /// The first oracle violation, once found (the episode stops there).
    violation: Option<Violation>,
    /// The simulator-shaped report the oracles consume, kept in sync with
    /// the runner's progress (re-cloned only when the progress changed).
    report: ExecutionReport,
}

impl OnlineAdversaryScheduler<'_> {
    /// Sync the cached report with the runner's progress. Every progress
    /// mutation grows one of the three collections (a first grant inserts an
    /// interval; a return inserts an outcome *and* completes its interval in
    /// the same harvest; a crash pushes onto `crashed`), so comparing
    /// lengths detects all of them without cloning three maps per grant.
    fn sync_report(&mut self, obs: &GateObservation<'_>) {
        if self.report.outcomes.len() != obs.progress.outcomes.len()
            || self.report.intervals.len() != obs.progress.intervals.len()
            || self.report.crashed.len() != obs.progress.crashed.len()
        {
            self.report.outcomes = obs.progress.outcomes.clone();
            self.report.intervals = obs.progress.intervals.clone();
            self.report.crashed = obs.progress.crashed.clone();
        }
        self.report.events_executed = obs.grants_made;
    }

    /// Assemble the strategy-facing observation: gated participants are
    /// `StepReady` with their gate-time local state, returned ones
    /// `Finished`, crashed ones `Crashed`, non-participants `Idle`.
    fn observation(&self, obs: &GateObservation<'_>) -> SystemObservation {
        let mut processes: Vec<ProcessObservation> = (0..self.n)
            .map(|index| ProcessObservation {
                proc: ProcId(index),
                phase: ProcessPhase::Idle,
                local_state: None,
            })
            .collect();
        for &proc in self.participants {
            processes[proc.index()].phase = ProcessPhase::Finished;
        }
        for &proc in &obs.progress.crashed {
            processes[proc.index()].phase = ProcessPhase::Crashed;
        }
        for entry in obs.waiting {
            let process = &mut processes[entry.proc.index()];
            process.phase = ProcessPhase::StepReady;
            process.local_state = Some(entry.state.clone());
        }
        SystemObservation {
            n: self.n,
            events_executed: obs.grants_made,
            crash_budget_left: obs.crash_budget_left,
            processes,
        }
    }
}

impl GateScheduler for OnlineAdversaryScheduler<'_> {
    fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
        self.sync_report(obs);
        let observation = self.observation(obs);
        let ctx = OracleCtx {
            report: &self.report,
            observation: &observation,
            participants: self.participants,
            events_executed: obs.grants_made,
        };
        self.violation = probe_and_check(&ctx, &mut self.oracles, self.probe);
        if self.violation.is_some() {
            return GateCommand::Stop;
        }
        let enabled: Vec<EnabledEvent> = obs
            .waiting
            .iter()
            .map(|entry| EnabledEvent::Step(entry.proc))
            .collect();
        match self
            .adversary
            .decide(&observation, &EnabledEvents::from_slice(&enabled))
        {
            Decision::Schedule(index) => GateCommand::Run(index),
            // The runner sanitizes illegal crashes to `Run(0)`, mirroring
            // the simulator's tolerant replay semantics.
            Decision::Crash(victim) => GateCommand::Crash(victim),
        }
    }
}

/// Drive one scenario on the gate loop under `adversary`, checking the
/// scenario's oracles after every grant. Returns the violation (if any) and
/// the number of grants executed. The probe sees every ctx the oracles see,
/// including the post-run final check.
pub(crate) fn drive_gated(
    scenario: &dyn Scenario,
    sim_seed: u64,
    adversary: &mut dyn Adversary,
    config: &GatedConfig,
    probe: &mut dyn CoverageProbe,
) -> (Option<Violation>, u64) {
    let participants = scenario.participants();
    let mut sched_config = ScheduleConfig::for_participants(participants.len())
        .with_crash_budget(scenario.n().div_ceil(2).saturating_sub(1));
    if let Some(budget) = scenario.max_events() {
        sched_config = sched_config.with_max_grants(budget);
    }
    let budget = sched_config.max_grants;

    let mut scheduler = OnlineAdversaryScheduler {
        n: scenario.n(),
        participants: &participants,
        adversary,
        probe,
        oracles: scenario.oracles(),
        violation: None,
        report: ExecutionReport::default(),
    };
    let report = run_gated(
        sim_seed,
        scenario.protocols(),
        sched_config,
        &mut scheduler,
        config.faults,
    );

    if let Some(violation) = scheduler.violation {
        return (Some(violation), report.grants);
    }
    if report.budget_exhausted {
        return (Some(budget_violation(budget, report.grants)), report.grants);
    }
    // The scheduler is never consulted after the final grant (the runner
    // stops once nobody is waiting), so give the oracles one last look at
    // the completed execution — the grant that retires the last participant
    // is exactly where unique-leader and liveness violations surface.
    let final_report = ExecutionReport {
        outcomes: report.progress.outcomes.clone(),
        intervals: report.progress.intervals.clone(),
        crashed: report.progress.crashed.clone(),
        events_executed: report.grants,
        ..ExecutionReport::default()
    };
    let observation = SystemObservation {
        n: scenario.n(),
        events_executed: report.grants,
        crash_budget_left: 0,
        processes: (0..scenario.n())
            .map(|index| {
                let proc = ProcId(index);
                let phase = if report.progress.crashed.contains(&proc) {
                    ProcessPhase::Crashed
                } else if report.progress.outcomes.contains_key(&proc) {
                    ProcessPhase::Finished
                } else {
                    ProcessPhase::Idle
                };
                ProcessObservation {
                    proc,
                    phase,
                    local_state: None,
                }
            })
            .collect(),
    };
    let ctx = OracleCtx {
        report: &final_report,
        observation: &observation,
        participants: &participants,
        events_executed: report.grants,
    };
    let violation = probe_and_check(&ctx, &mut scheduler.oracles, scheduler.probe);
    (violation, report.grants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{replay, run_episode, EpisodeOutcome, EpisodePlan, ExploreBackend};
    use crate::scenario::ElectionScenario;
    use crate::shrink::shrink;
    use crate::strategies::StrategySpec;
    use fle_runtime::CrashSpec;

    fn plan(strategy: StrategySpec, sim_seed: u64) -> EpisodePlan {
        EpisodePlan {
            strategy,
            sim_seed,
            strategy_seed: 0,
        }
    }

    fn gated(config: GatedConfig) -> ExploreBackend {
        ExploreBackend::Gated(config)
    }

    #[test]
    fn preemption_bound_zero_is_the_sequential_schedule() {
        // With zero preemptions, every strategy degrades to run-to-
        // completion order and the election still elects exactly one leader.
        let scenario = ElectionScenario { n: 4, k: 4 };
        let backend = gated(GatedConfig {
            preemption_bound: Some(0),
            ..GatedConfig::default()
        });
        for sim_seed in 0..3 {
            let outcome = run_episode(
                &scenario,
                &plan(StrategySpec::SplitBrain { burst: 4 }, sim_seed),
                &backend,
            );
            assert!(matches!(outcome, EpisodeOutcome::Clean { .. }));
        }
    }

    #[test]
    fn benign_faults_are_masked() {
        // Delays and transient collect failures are masked: still clean.
        let scenario = ElectionScenario { n: 4, k: 4 };
        let benign = gated(GatedConfig {
            faults: Some(
                FaultPlan::new(1)
                    .with_delays(300, 30)
                    .with_collect_failures(300, 2),
            ),
            ..GatedConfig::default()
        });
        let outcome = run_episode(
            &scenario,
            &plan(StrategySpec::SplitBrain { burst: 4 }, 0),
            &benign,
        );
        assert!(matches!(outcome, EpisodeOutcome::Clean { .. }));
    }

    #[test]
    fn healthy_election_episodes_are_clean_on_the_gate_loop() {
        let scenario = ElectionScenario { n: 4, k: 4 };
        let backend = gated(GatedConfig::default());
        for strategy in StrategySpec::library() {
            for sim_seed in 0..2 {
                match run_episode(&scenario, &plan(strategy, sim_seed), &backend) {
                    EpisodeOutcome::Clean { events } => assert!(events > 0),
                    EpisodeOutcome::Violated(found) => {
                        panic!("healthy election violated on the gate loop: {found}")
                    }
                }
            }
        }
    }

    #[test]
    fn gated_episodes_are_deterministic() {
        // The gate loop fully serializes the participants, so the same plan
        // executes the identical schedule every time — grant counts
        // included.
        let scenario = ElectionScenario { n: 4, k: 4 };
        let backend = gated(GatedConfig::default());
        for sim_seed in 0..3 {
            let p = plan(StrategySpec::SplitBrain { burst: 4 }, sim_seed);
            match (
                run_episode(&scenario, &p, &backend),
                run_episode(&scenario, &p, &backend),
            ) {
                (EpisodeOutcome::Clean { events: a }, EpisodeOutcome::Clean { events: b }) => {
                    assert_eq!(a, b, "seed {sim_seed}: the gate loop repeats itself");
                }
                other => panic!("seed {sim_seed}: unexpected outcomes {other:?}"),
            }
        }
    }

    #[test]
    fn crash_faults_are_caught_replayed_and_shrunk_on_the_gate_loop() {
        // The full counterexample pipeline on the register substrate: a
        // fail-stop-everyone plan violates election liveness; the recorded
        // trace replays on the gate loop; ddmin minimizes it there too.
        let scenario = ElectionScenario { n: 4, k: 4 };
        let crashing = gated(GatedConfig {
            faults: Some(FaultPlan::new(2).with_crash(CrashSpec::lose_all(2))),
            ..GatedConfig::default()
        });
        let found = match run_episode(
            &scenario,
            &plan(StrategySpec::SplitBrain { burst: 4 }, 0),
            &crashing,
        ) {
            EpisodeOutcome::Violated(found) => found,
            EpisodeOutcome::Clean { .. } => {
                panic!("a fail-stop of every participant must violate liveness")
            }
        };
        assert_eq!(found.violation.oracle, crate::oracles::ELECTION_LIVENESS);
        let (violation, _) = replay(&scenario, 0, &found.decisions, &crashing);
        assert_eq!(
            violation.map(|v| v.oracle),
            Some(crate::oracles::ELECTION_LIVENESS),
            "the recorded trace reproduces on the gate loop"
        );
        let minimal = shrink(&scenario, &found, 200, &crashing);
        assert!(minimal.minimized.len() <= found.decisions.len());
        let (violation, _) = replay(&scenario, 0, &minimal.minimized, &crashing);
        assert_eq!(
            violation.map(|v| v.oracle),
            Some(crate::oracles::ELECTION_LIVENESS),
            "the minimized trace still reproduces"
        );
    }
}
