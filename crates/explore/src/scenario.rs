//! Scenarios: what protocol runs, on how many processors, and which oracles
//! guard it.
//!
//! A [`Scenario`] bundles the system description (size, participant set,
//! protocol registration) with the safety oracles that must hold for it, so
//! the explorer can fan `scenario × strategy × seed` episodes across cores
//! without caring what is being executed. The built-in scenarios cover the
//! paper's three protocol families; `crate::sabotage` adds intentionally
//! broken variants used to validate that the oracles actually catch bugs.

use crate::oracles::{
    ElectionLivenessOracle, LinearizabilityOracle, NameUniquenessOracle, Oracle,
    SurvivorBoundOracle, UniqueLeaderOracle,
};
use fle_core::{HeterogeneousPoisonPill, LeaderElection, PoisonPill, Renaming, RenamingConfig};
use fle_model::{ProcId, Protocol};

/// A reproducible system-under-test: builds fresh protocol instances for any
/// backend and names the oracles that must hold over the execution.
///
/// A scenario is deliberately backend-agnostic: [`Scenario::protocols`]
/// returns plain [`fle_model::Protocol`] state machines, which both
/// backends register as they are — the simulator and the gate loop
/// (`crate::gated`) — and the same oracles guard both.
///
/// Implementations must be `Sync` because the explorer shares one scenario
/// across its worker threads (each worker builds its own protocol instances
/// and oracles from it).
pub trait Scenario: Sync {
    /// Human-readable scenario name for reports.
    fn name(&self) -> String;

    /// Number of processors in the system.
    fn n(&self) -> usize;

    /// The processors that participate in the protocol.
    fn participants(&self) -> Vec<ProcId>;

    /// Fresh protocol instances, one per participant — the backend-agnostic
    /// system description.
    fn protocols(&self) -> Vec<(ProcId, Box<dyn Protocol + Send>)>;

    /// Fresh oracle instances guarding one episode.
    fn oracles(&self) -> Vec<Box<dyn Oracle>>;

    /// Optional override of the engine's event budget, the one budget
    /// override on every backend (`None` keeps the default `O(n²)` budget
    /// of [`fle_sim::SimConfig`] on the simulator and the
    /// [`fle_runtime::ScheduleConfig`] grant budget on the gate loop).
    /// Running out is a termination-budget violation.
    fn max_events(&self) -> Option<u64> {
        None
    }
}

/// The paper's leader election with `k` of `n` processors participating.
#[derive(Debug, Clone, Copy)]
pub struct ElectionScenario {
    /// System size.
    pub n: usize,
    /// Number of participants (`k ≤ n`, clamped).
    pub k: usize,
}

impl Scenario for ElectionScenario {
    fn name(&self) -> String {
        format!("election(n={}, k={})", self.n, self.k)
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
                    Box::new(LeaderElection::new(p)) as Box<dyn Protocol + Send>,
                )
            })
            .collect()
    }

    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        vec![
            Box::new(UniqueLeaderOracle),
            Box::new(LinearizabilityOracle),
            Box::new(ElectionLivenessOracle),
        ]
    }
}

/// One sifting phase: the plain fixed-bias PoisonPill or the heterogeneous
/// variant, with every processor participating.
#[derive(Debug, Clone, Copy)]
pub struct SiftScenario {
    /// System size (= participant count).
    pub n: usize,
    /// `true` for the Heterogeneous PoisonPill (Figure 2), `false` for the
    /// fixed-bias PoisonPill (Figure 1) with the paper's `1/√n` bias.
    pub heterogeneous: bool,
    /// Optional bias override for the fixed-bias PoisonPill (ignored by the
    /// heterogeneous variant); `None` keeps the paper's `1/√n`. Claim 3.1
    /// holds for *every* bias, so the oracle applies unchanged.
    pub bias: Option<f64>,
}

impl SiftScenario {
    /// The fixed-bias PoisonPill with the paper's `1/√n` bias.
    pub fn plain(n: usize) -> Self {
        SiftScenario {
            n,
            heterogeneous: false,
            bias: None,
        }
    }

    /// The Heterogeneous PoisonPill (Figure 2).
    pub fn heterogeneous(n: usize) -> Self {
        SiftScenario {
            n,
            heterogeneous: true,
            bias: None,
        }
    }
}

impl Scenario for SiftScenario {
    fn name(&self) -> String {
        let family = if self.heterogeneous {
            "het-poison-pill"
        } else {
            "poison-pill"
        };
        match self.bias {
            Some(bias) => format!("{family}(n={}, bias={bias})", self.n),
            None => format!("{family}(n={})", self.n),
        }
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
                let protocol: Box<dyn Protocol + Send> = if self.heterogeneous {
                    Box::new(HeterogeneousPoisonPill::new(p))
                } else {
                    match self.bias {
                        Some(bias) => Box::new(PoisonPill::with_bias(p, bias)),
                        None => Box::new(PoisonPill::new(p, self.n)),
                    }
                };
                (p, protocol)
            })
            .collect()
    }

    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        vec![Box::new(SurvivorBoundOracle)]
    }
}

/// Tight renaming of `k` participants into the namespace `1..=n`.
#[derive(Debug, Clone, Copy)]
pub struct RenamingScenario {
    /// System size (= namespace size).
    pub n: usize,
    /// Number of participants (`k ≤ n`, clamped).
    pub k: usize,
}

impl Scenario for RenamingScenario {
    fn name(&self) -> String {
        format!("renaming(n={}, k={})", self.n, self.k)
    }

    fn n(&self) -> usize {
        self.n
    }

    fn participants(&self) -> Vec<ProcId> {
        (0..self.k.min(self.n)).map(ProcId).collect()
    }

    fn protocols(&self) -> Vec<(ProcId, Box<dyn Protocol + Send>)> {
        let config = RenamingConfig::new(self.n);
        self.participants()
            .into_iter()
            .map(|p| {
                (
                    p,
                    Box::new(Renaming::new(p, config)) as Box<dyn Protocol + Send>,
                )
            })
            .collect()
    }

    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        vec![Box::new(NameUniquenessOracle { namespace: self.n })]
    }
}

/// Every built-in (healthy) scenario at the given system sizes — the matrix
/// the CI smoke job sweeps.
pub fn standard_scenarios(sizes: &[usize]) -> Vec<Box<dyn Scenario + Send>> {
    let mut scenarios: Vec<Box<dyn Scenario + Send>> = Vec::new();
    for &n in sizes {
        scenarios.push(Box::new(ElectionScenario { n, k: n }));
        scenarios.push(Box::new(ElectionScenario {
            n,
            k: n.div_ceil(2),
        }));
        scenarios.push(Box::new(SiftScenario::plain(n)));
        scenarios.push(Box::new(SiftScenario::heterogeneous(n)));
        scenarios.push(Box::new(RenamingScenario { n, k: n }));
    }
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_sim::{SimConfig, Simulator};

    #[test]
    fn scenarios_install_their_participants() {
        let scenarios: Vec<Box<dyn Scenario + Send>> = vec![
            Box::new(ElectionScenario { n: 4, k: 3 }),
            Box::new(SiftScenario::heterogeneous(4)),
            Box::new(SiftScenario::plain(4)),
            Box::new(SiftScenario {
                n: 4,
                heterogeneous: false,
                bias: Some(0.25),
            }),
            Box::new(RenamingScenario { n: 4, k: 4 }),
        ];
        for scenario in scenarios {
            let mut sim = Simulator::new(SimConfig::new(scenario.n()));
            let protocols = scenario.protocols();
            assert_eq!(protocols.len(), scenario.participants().len());
            for (proc, protocol) in protocols {
                sim.add_participant(proc, protocol);
            }
            assert!(!scenario.participants().is_empty());
            assert!(!scenario.oracles().is_empty());
            assert!(!scenario.name().is_empty());
            assert_eq!(scenario.max_events(), None);
        }
    }

    #[test]
    fn standard_matrix_covers_every_family() {
        let scenarios = standard_scenarios(&[4, 8]);
        assert_eq!(scenarios.len(), 10);
        let names: Vec<String> = scenarios.iter().map(|s| s.name()).collect();
        assert!(names.iter().any(|n| n.starts_with("election")));
        assert!(names.iter().any(|n| n.starts_with("poison-pill")));
        assert!(names.iter().any(|n| n.starts_with("het-poison-pill")));
        assert!(names.iter().any(|n| n.starts_with("renaming")));
    }
}
