//! Intentionally broken protocol variants — mutation tests for the oracles.
//!
//! An explorer that never fires is indistinguishable from one that cannot
//! fire. This module provides *sabotaged* variants of the paper's protocols
//! built from a generic write-dropping wrapper ([`DropWrites`]): the
//! underlying state machine is untouched, but chosen register writes are
//! silently removed from its `propagate` calls — the classic "skip the
//! write" mutation. Each sabotage provably falsifies one of the guarantees
//! the oracles watch, so the integration suite can assert the whole pipeline
//! (strategy → oracle → recorded trace → shrinker) end to end:
//!
//! * [`SabotagedElectionScenario`] drops every `Round` write, blinding the
//!   `PreRound` filter of Figure 4: every processor that reaches round 2
//!   observes `R = 0 < r − 1` and returns `WIN`, so any schedule in which
//!   two processors survive sifting round 1 elects two leaders — caught by
//!   the unique-leader oracle.
//! * [`SabotagedSiftScenario`] drops the resolved-priority status write of
//!   the PoisonPill (Figure 1, line 7): processors still announce `Commit`
//!   but never publish their coin, so in an all-low execution every
//!   processor observes some commit with no low report and swallows the
//!   pill — a wipeout, caught by the survivor-bound oracle.

use crate::oracles::{Oracle, SurvivorBoundOracle, UniqueLeaderOracle};
use crate::scenario::Scenario;
use fle_model::{Action, Key, LocalStateView, ProcId, Protocol, Response, Value};

/// A protocol wrapper that drops matching entries from every `Propagate`
/// action of the inner protocol — "skip the write" as a combinator.
///
/// Everything else (collects, coin flips, returns, the adversary view) is
/// forwarded untouched, so the mutation is exactly the missing writes.
#[derive(Debug)]
pub struct DropWrites<P> {
    inner: P,
    drop_if: fn(&Key, &Value) -> bool,
    dropped: u64,
}

impl<P: Protocol> DropWrites<P> {
    /// Wrap `inner`, dropping every propagated entry for which `drop_if`
    /// holds.
    pub fn new(inner: P, drop_if: fn(&Key, &Value) -> bool) -> Self {
        DropWrites {
            inner,
            drop_if,
            dropped: 0,
        }
    }

    /// How many entries have been dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<P: Protocol> Protocol for DropWrites<P> {
    fn step(&mut self, response: Response) -> Action {
        match self.inner.step(response) {
            Action::Propagate { entries } => {
                let kept: Vec<(Key, Value)> = entries
                    .into_iter()
                    .filter(|(key, value)| {
                        let doomed = (self.drop_if)(key, value);
                        if doomed {
                            self.dropped += 1;
                        }
                        !doomed
                    })
                    .collect();
                Action::Propagate { entries: kept }
            }
            other => other,
        }
    }

    fn adversary_view(&self) -> LocalStateView {
        self.inner.adversary_view()
    }
}

/// Leader election whose `Round` writes are dropped (see the module docs):
/// two leaders are elected whenever two processors survive sifting round 1.
#[derive(Debug, Clone, Copy)]
pub struct SabotagedElectionScenario {
    /// System size.
    pub n: usize,
    /// Number of participants (`k ≤ n`, clamped).
    pub k: usize,
}

fn is_round_write(_key: &Key, value: &Value) -> bool {
    matches!(value, Value::Round(_))
}

impl Scenario for SabotagedElectionScenario {
    fn name(&self) -> String {
        format!(
            "sabotaged-election-no-round-writes(n={}, k={})",
            self.n, self.k
        )
    }

    fn n(&self) -> usize {
        self.n
    }

    fn participants(&self) -> Vec<ProcId> {
        (0..self.k.min(self.n)).map(ProcId).collect()
    }

    fn protocols(&self) -> Vec<(ProcId, Box<dyn Protocol + Send>)> {
        self.participants()
            .into_iter()
            .map(|p| {
                (
                    p,
                    Box::new(DropWrites::new(
                        fle_core::LeaderElection::new(p),
                        is_round_write,
                    )) as Box<dyn Protocol + Send>,
                )
            })
            .collect()
    }

    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        // Only the invariant this mutation falsifies: liveness and
        // linearizability still hold for the mutant and would only add noise.
        vec![Box::new(UniqueLeaderOracle)]
    }
}

/// A fixed-bias PoisonPill phase whose resolved-priority writes are dropped
/// (the issue's "skip the PoisonPill write"): an all-low execution wipes out
/// every participant.
///
/// The wipeout needs every coin to land low, and the coin draws depend only
/// on the simulator seed (one `Flip` per participant, in schedule order), so
/// the bias is a parameter: hunting with a small `bias` makes most seeds
/// produce the all-low coin pattern the mutation is vulnerable to, while the
/// *healthy* protocol survives those same executions (Claim 3.1 holds for
/// every bias).
#[derive(Debug, Clone, Copy)]
pub struct SabotagedSiftScenario {
    /// System size (= participant count).
    pub n: usize,
    /// Probability of flipping high (the healthy default is `1/√n`).
    pub bias: f64,
}

fn is_priority_write(_key: &Key, value: &Value) -> bool {
    value
        .as_status()
        .is_some_and(|status| status.priority().is_some())
}

impl Scenario for SabotagedSiftScenario {
    fn name(&self) -> String {
        format!(
            "sabotaged-poison-pill-no-priority-writes(n={}, bias={})",
            self.n, self.bias
        )
    }

    fn n(&self) -> usize {
        self.n
    }

    fn participants(&self) -> Vec<ProcId> {
        (0..self.n).map(ProcId).collect()
    }

    fn protocols(&self) -> Vec<(ProcId, Box<dyn Protocol + Send>)> {
        self.participants()
            .into_iter()
            .map(|p| {
                (
                    p,
                    Box::new(DropWrites::new(
                        fle_core::PoisonPill::with_bias(p, self.bias),
                        is_priority_write,
                    )) as Box<dyn Protocol + Send>,
                )
            })
            .collect()
    }

    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        vec![Box::new(SurvivorBoundOracle)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_model::{InstanceId, Priority, Status};

    /// A protocol emitting one mixed propagate, for wrapper testing.
    struct TwoWrites;

    impl Protocol for TwoWrites {
        fn step(&mut self, _response: Response) -> Action {
            Action::Propagate {
                entries: vec![
                    (
                        Key::proc(InstanceId::custom(1, 1), ProcId(0)),
                        Value::Round(3),
                    ),
                    (Key::global(InstanceId::custom(1, 1)), Value::Flag(true)),
                ],
            }
        }

        fn adversary_view(&self) -> LocalStateView {
            LocalStateView::new("two-writes", "t")
        }
    }

    #[test]
    fn drop_writes_filters_exactly_the_matching_entries() {
        let mut wrapped = DropWrites::new(TwoWrites, is_round_write);
        let Action::Propagate { entries } = wrapped.step(Response::Start) else {
            panic!("the inner protocol propagates");
        };
        assert_eq!(entries.len(), 1);
        assert!(matches!(entries[0].1, Value::Flag(true)));
        assert_eq!(wrapped.dropped(), 1);
        assert_eq!(wrapped.adversary_view().algorithm, "two-writes");
    }

    #[test]
    fn priority_writes_are_identified() {
        let key = Key::proc(InstanceId::custom(1, 1), ProcId(0));
        assert!(is_priority_write(
            &key,
            &Value::Status(Status::resolved(Priority::Low))
        ));
        assert!(is_priority_write(
            &key,
            &Value::Status(Status::resolved(Priority::High))
        ));
        assert!(!is_priority_write(&key, &Value::Status(Status::Commit)));
        assert!(!is_priority_write(&key, &Value::Flag(true)));
    }

    #[test]
    fn sabotaged_scenarios_install_and_return() {
        // The mutants must still *terminate* under a benign scheduler —
        // sabotage breaks safety, not the state machines.
        use fle_sim::{RandomAdversary, SimConfig, Simulator};
        let election = SabotagedElectionScenario { n: 4, k: 4 };
        let sift = SabotagedSiftScenario { n: 4, bias: 0.1 };
        for scenario in [&election as &dyn Scenario, &sift] {
            let mut sim = Simulator::new(SimConfig::new(4).with_seed(3));
            for (proc, protocol) in scenario.protocols() {
                sim.add_participant(proc, protocol);
            }
            let report = sim
                .run(&mut RandomAdversary::with_seed(3))
                .expect("the mutant still terminates");
            assert_eq!(report.outcomes.len(), 4);
        }
    }
}
