//! The counterexample minimizer: delta-debugging over decision traces.
//!
//! A violating schedule found by the explorer is rarely minimal — it carries
//! the activity of processors that have nothing to do with the violation and
//! deliveries the invariant never depended on. The shrinker applies ddmin
//! (Zeller's delta debugging) to the recorded [`DecisionTrace`]:
//! repeatedly drop contiguous decision chunks, replay the candidate with the
//! tolerant [`fle_sim::ReplayAdversary`] (indices clamp, illegal crashes
//! degrade, an exhausted trace completes deterministically with the oldest
//! enabled event), and keep the candidate iff the **same oracle** still
//! fires. Two extra moves make convergence fast:
//!
//! * every successful replay *truncates* the candidate to the decisions
//!   actually consumed before the violation fired, and
//! * the empty trace is tried first — if the violation reproduces under the
//!   deterministic completion rule alone, the counterexample is "any
//!   schedule", the strongest possible result.
//!
//! Each kept candidate is itself a replayable counterexample, so the result
//! can be serialized with [`DecisionTrace::to_compact_string`] and replayed
//! from text alone.

use crate::explorer::{replay, ExploreBackend, FoundViolation};
use crate::oracles::Violation;
use crate::scenario::Scenario;
use fle_sim::{Decision, DecisionTrace};

/// The outcome of shrinking one violation.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimized decision trace (still reproduces the violation).
    pub minimized: DecisionTrace,
    /// Length of the original violating trace.
    pub original_len: usize,
    /// Replays spent during minimization.
    pub replays: usize,
}

impl ShrinkResult {
    /// `minimized.len() / original_len`, as a fraction in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        if self.original_len == 0 {
            return 0.0;
        }
        self.minimized.len() as f64 / self.original_len as f64
    }
}

/// Minimize `found` against its scenario with at most `max_replays`
/// re-executions, replaying on `backend` — the backend that found it, since
/// decision indices only mean the same thing there.
///
/// The predicate for keeping a candidate is that the **same oracle** (by
/// name) fires under [`replay`] with the scenario rebuilt from scratch and
/// the original `sim_seed` — the exact reproduction setup a human would
/// use.
pub fn shrink(
    scenario: &dyn Scenario,
    found: &FoundViolation,
    max_replays: usize,
    backend: &ExploreBackend,
) -> ShrinkResult {
    let sim_seed = found.plan.sim_seed;
    shrink_with(found, max_replays, |trace| {
        replay(scenario, sim_seed, trace, backend)
    })
}

/// The ddmin core: `replay_fn` re-executes a candidate trace and reports the
/// violation it reproduces plus the decisions consumed. The keep-predicate
/// is fixed: a candidate survives iff the **same oracle** (by name) fires
/// under `replay_fn` — a candidate under which the oracle stops firing is
/// rejected, whatever else it does.
fn shrink_with(
    found: &FoundViolation,
    max_replays: usize,
    mut replay_fn: impl FnMut(&DecisionTrace) -> (Option<Violation>, usize),
) -> ShrinkResult {
    let oracle = found.violation.oracle;
    let mut replays = 0usize;

    // Returns the number of decisions consumed before the violation when the
    // candidate still fails, `None` otherwise.
    let mut fails = |decisions: &[Decision], replays: &mut usize| -> Option<usize> {
        *replays += 1;
        let trace: DecisionTrace = decisions.iter().copied().collect();
        let (violation, consumed) = replay_fn(&trace);
        match violation {
            Some(v) if v.oracle == oracle => Some(consumed.min(decisions.len())),
            _ => None,
        }
    };

    let mut current: Vec<Decision> = found.decisions.decisions().to_vec();
    let original_len = current.len();

    // Strongest move first: does the deterministic completion rule alone
    // reproduce the violation?
    if fails(&[], &mut replays).is_some() {
        return ShrinkResult {
            minimized: DecisionTrace::new(),
            original_len,
            replays,
        };
    }

    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut start = 0;
        while start < current.len() && replays < max_replays {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if let Some(consumed) = fails(&candidate, &mut replays) {
                candidate.truncate(consumed);
                current = candidate;
                removed_any = true;
                // The chunk at `start` changed: retry the same offset.
            } else {
                start = end;
            }
        }
        if replays >= max_replays || (chunk == 1 && !removed_any) {
            break;
        }
        if !removed_any || chunk > current.len().max(1) {
            chunk = (chunk / 2).max(1);
        }
    }

    ShrinkResult {
        minimized: current.into_iter().collect(),
        original_len,
        replays,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{replay, EpisodePlan, ExploreBackend, FoundViolation};
    use crate::oracles::{Oracle, OracleCtx, Violation};
    use crate::scenario::Scenario;
    use crate::strategies::StrategySpec;
    use fle_core::LeaderElection;
    use fle_model::ProcId;
    use fle_sim::ProcessPhase;

    /// Fires as soon as processor 3 is crashed — a violation pinned to one
    /// specific decision, so minimization must keep exactly that decision.
    struct CrashWitness;

    impl Oracle for CrashWitness {
        fn name(&self) -> &'static str {
            "crash-witness"
        }

        fn check(&mut self, ctx: &OracleCtx<'_>) -> Option<Violation> {
            matches!(
                ctx.observation.process(ProcId(3)).phase,
                ProcessPhase::Crashed
            )
            .then(|| Violation {
                oracle: "crash-witness",
                detail: "processor 3 crashed".to_string(),
                events_executed: ctx.events_executed,
            })
        }
    }

    struct CrashScenario;

    impl Scenario for CrashScenario {
        fn name(&self) -> String {
            "crash-witness-scenario".to_string()
        }

        fn n(&self) -> usize {
            8
        }

        fn participants(&self) -> Vec<ProcId> {
            (0..8).map(ProcId).collect()
        }

        fn protocols(&self) -> Vec<(ProcId, Box<dyn fle_model::Protocol + Send>)> {
            self.participants()
                .into_iter()
                .map(|p| {
                    (
                        p,
                        Box::new(LeaderElection::new(p)) as Box<dyn fle_model::Protocol + Send>,
                    )
                })
                .collect()
        }

        fn oracles(&self) -> Vec<Box<dyn Oracle>> {
            vec![Box::new(CrashWitness)]
        }
    }

    #[test]
    fn ddmin_isolates_the_one_decision_that_matters() {
        let scenario = CrashScenario;
        // A bloated trace: scheduling noise, an irrelevant crash, the
        // pivotal crash of processor 3, then more noise that replay never
        // reaches (the oracle fires at the crash).
        let mut decisions = vec![Decision::Schedule(0); 24];
        decisions.push(Decision::Crash(ProcId(1)));
        decisions.extend([Decision::Schedule(1); 8]);
        decisions.push(Decision::Crash(ProcId(3)));
        decisions.extend([Decision::Schedule(0); 16]);
        let trace: DecisionTrace = decisions.into_iter().collect();

        let (violation, consumed) = replay(&scenario, 5, &trace, &ExploreBackend::Sim);
        let violation = violation.expect("the scripted trace crashes processor 3");
        assert_eq!(violation.oracle, "crash-witness");
        assert_eq!(consumed, 34, "the oracle fires on the pivotal crash");

        let found = FoundViolation {
            violation,
            decisions: trace,
            scenario: scenario.name(),
            plan: EpisodePlan {
                strategy: StrategySpec::SplitBrain { burst: 1 },
                sim_seed: 5,
                strategy_seed: 0,
            },
        };
        let result = shrink(&scenario, &found, 300, &ExploreBackend::Sim);
        assert_eq!(
            result.minimized.decisions(),
            &[Decision::Crash(ProcId(3))],
            "every decision except the pivotal crash is noise"
        );
        assert_eq!(result.original_len, 50);
        assert!(result.replays > 1, "real chunk removal happened");
        assert!(result.ratio() < 0.25);
    }

    fn found_with(decisions: DecisionTrace, oracle: &'static str, sim_seed: u64) -> FoundViolation {
        FoundViolation {
            violation: Violation {
                oracle,
                detail: "synthetic".to_string(),
                events_executed: 0,
            },
            decisions,
            scenario: "edge-case".to_string(),
            plan: EpisodePlan {
                strategy: StrategySpec::SplitBrain { burst: 1 },
                sim_seed,
                strategy_seed: 0,
            },
        }
    }

    #[test]
    fn already_minimal_traces_come_back_unchanged() {
        // One pivotal decision, nothing else: ddmin must return it verbatim
        // (the empty-trace probe and the single chunk drop both fail).
        let scenario = CrashScenario;
        let trace: DecisionTrace = [Decision::Crash(ProcId(3))].into_iter().collect();
        let (violation, _) = replay(&scenario, 5, &trace, &ExploreBackend::Sim);
        let found = found_with(trace.clone(), "crash-witness", 5);
        assert_eq!(violation.unwrap().oracle, "crash-witness");
        let result = shrink(&scenario, &found, 100, &ExploreBackend::Sim);
        assert_eq!(result.minimized, trace, "already minimal: unchanged");
        assert_eq!(result.original_len, 1);
    }

    #[test]
    fn empty_traces_are_a_no_op() {
        // A violation whose recorded trace is already empty (the completion
        // rule alone reproduces it): the shrinker returns the empty trace
        // after the single probing replay, touching nothing.
        let found = found_with(DecisionTrace::new(), "always", 0);
        let result = shrink_with(&found, 100, |trace| {
            assert!(trace.is_empty(), "only the empty candidate is ever tried");
            (
                Some(Violation {
                    oracle: "always",
                    detail: "fires on any schedule".to_string(),
                    events_executed: 0,
                }),
                0,
            )
        });
        assert!(result.minimized.is_empty());
        assert_eq!(result.original_len, 0);
        assert_eq!(result.replays, 1, "one probe, no chunk loop");
    }

    #[test]
    fn candidates_where_the_oracle_stops_firing_are_rejected() {
        // Synthetic replay: the "witness" oracle fires iff the candidate
        // still contains the pivotal Crash(3); candidates that drop it (or
        // make a *different* oracle fire) must be rejected, so the pivotal
        // decision survives minimization.
        let pivotal = Decision::Crash(ProcId(3));
        let mut decisions = vec![Decision::Schedule(0); 10];
        decisions.push(pivotal);
        decisions.extend([Decision::Schedule(1); 5]);
        let found = found_with(decisions.into_iter().collect(), "witness", 0);
        let result = shrink_with(&found, 200, |candidate| {
            let position = candidate.decisions().iter().position(|d| *d == pivotal);
            match position {
                Some(at) => (
                    Some(Violation {
                        oracle: "witness",
                        detail: "pivotal crash present".to_string(),
                        events_executed: 0,
                    }),
                    at + 1,
                ),
                // Without the pivotal decision a *different* oracle fires —
                // the keep-predicate must reject this candidate too.
                None => (
                    Some(Violation {
                        oracle: "some-other-oracle",
                        detail: "wrong invariant".to_string(),
                        events_executed: 0,
                    }),
                    candidate.len(),
                ),
            }
        });
        assert_eq!(
            result.minimized.decisions(),
            &[pivotal],
            "only candidates refiring the same oracle are kept"
        );
    }

    #[test]
    fn shrink_minimizes_on_the_gate_loop() {
        // The same ddmin pointed at a real gated replay: a fail-stop fault
        // plan violates election liveness on the gate loop; shrinking on
        // that backend minimizes the trace and the result still reproduces
        // there.
        use crate::explorer::{run_episode, EpisodeOutcome};
        use crate::gated::GatedConfig;
        use fle_runtime::{CrashSpec, FaultPlan};

        let scenario = crate::scenario::ElectionScenario { n: 4, k: 4 };
        let backend = ExploreBackend::Gated(GatedConfig {
            faults: Some(FaultPlan::new(2).with_crash(CrashSpec::lose_all(2))),
            ..GatedConfig::default()
        });
        let plan = EpisodePlan {
            strategy: StrategySpec::SplitBrain { burst: 4 },
            sim_seed: 0,
            strategy_seed: 0,
        };
        let found = match run_episode(&scenario, &plan, &backend) {
            EpisodeOutcome::Violated(found) => *found,
            EpisodeOutcome::Clean { .. } => panic!("fail-stopping everyone violates liveness"),
        };
        let result = shrink(&scenario, &found, 120, &backend);
        assert!(result.minimized.len() <= found.decisions.len());
        let (violation, _) = replay(&scenario, 0, &result.minimized, &backend);
        assert_eq!(violation.map(|v| v.oracle), Some(found.violation.oracle));
    }

    #[test]
    fn ratio_handles_empty_originals() {
        let result = ShrinkResult {
            minimized: DecisionTrace::new(),
            original_len: 0,
            replays: 1,
        };
        assert_eq!(result.ratio(), 0.0);
        let half = ShrinkResult {
            minimized: [Decision::Schedule(0); 2].into_iter().collect(),
            original_len: 4,
            replays: 3,
        };
        assert!((half.ratio() - 0.5).abs() < 1e-12);
    }
}
