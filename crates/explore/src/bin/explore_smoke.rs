//! CI smoke sweep for schedule exploration, on every trace-carrying backend.
//!
//! One table of sweeps, one check routine. Each sweep runs the full attack
//! library on one backend with fixed seeds:
//!
//! 1. **simulator** and 2. **gated** (the schedule-gate loop over shared
//!    registers): every healthy scenario at n ∈ {4, 8} must come back
//!    clean, and the two sabotaged protocol variants must be caught;
//! 3. **gated, benign faults**: operation delays and transient collect
//!    failures ([`GatedConfig::faults`]) must be *masked* — the election
//!    stays clean under every strategy;
//! 4. **gated, fail-stop**: a fault plan that fail-stops every participant
//!    must be caught by the election-liveness oracle.
//!
//! Every caught mutant must be caught by its expected oracle, its recorded
//! trace must replay twice to the identical verdict and consumed count, and
//! its ddmin-shrunk trace must refire the same oracle. The shrunk trace is
//! printed in the compact `s<i>`/`c<p>` codec (the `replay with:` line), so
//! a failure can be replayed straight from the CI log (see EXPERIMENTS.md).
//!
//! Exit code 0 = every check passes; 1 otherwise. Sized to finish in
//! seconds on one core.

use fle_explore::oracles::{ELECTION_LIVENESS, SURVIVOR_BOUND, UNIQUE_LEADER};
use fle_explore::sabotage::{SabotagedElectionScenario, SabotagedSiftScenario};
use fle_explore::{
    replay, shrink, standard_scenarios, ElectionScenario, ExploreBackend, Explorer, FoundViolation,
    GatedConfig, Scenario,
};
use fle_runtime::{CrashSpec, FaultPlan};
use std::ops::Range;

/// A scenario that must be caught, the sim seeds it is hunted over, and the
/// oracle that must catch it.
type Mutant = (Box<dyn Scenario + Send>, Range<u64>, &'static str);

/// One backend's sweep. Every hunt uses strategy seeds `0..2`.
struct Sweep {
    name: &'static str,
    backend: ExploreBackend,
    /// Scenarios that must stay clean over `healthy_seeds`.
    healthy: Vec<Box<dyn Scenario + Send>>,
    healthy_seeds: Range<u64>,
    mutants: Vec<Mutant>,
}

fn sweeps() -> Vec<Sweep> {
    let gated = |faults| {
        ExploreBackend::Gated(GatedConfig {
            faults,
            ..GatedConfig::default()
        })
    };
    let sift = || -> Mutant {
        (
            Box::new(SabotagedSiftScenario { n: 4, bias: 0.1 }),
            0..8,
            SURVIVOR_BOUND,
        )
    };
    let election_mutant = |n| -> Mutant {
        (
            Box::new(SabotagedElectionScenario { n, k: n }),
            0..8,
            UNIQUE_LEADER,
        )
    };
    let election = |n| -> Box<dyn Scenario + Send> { Box::new(ElectionScenario { n, k: n }) };
    vec![
        Sweep {
            name: "simulator",
            backend: ExploreBackend::Sim,
            healthy: standard_scenarios(&[4, 8]),
            healthy_seeds: 0..4,
            mutants: vec![election_mutant(8), sift()],
        },
        Sweep {
            name: "gated",
            backend: gated(None),
            healthy: standard_scenarios(&[4, 8]),
            healthy_seeds: 0..4,
            mutants: vec![election_mutant(4), sift()],
        },
        Sweep {
            name: "gated, benign faults",
            backend: gated(Some(
                FaultPlan::new(23)
                    .with_delays(200, 80)
                    .with_collect_failures(250, 3),
            )),
            healthy: vec![election(4), election(8)],
            healthy_seeds: 0..3,
            mutants: Vec::new(),
        },
        Sweep {
            name: "gated, fail-stop",
            backend: gated(Some(FaultPlan::new(7).with_crash(CrashSpec::lose_all(3)))),
            healthy: Vec::new(),
            healthy_seeds: 0..0,
            mutants: vec![(election(4), 0..4, ELECTION_LIVENESS)],
        },
    ]
}

fn main() {
    let mut failures = 0usize;
    for sweep in sweeps() {
        println!("== explore-smoke: {} ==", sweep.name);
        for scenario in &sweep.healthy {
            let report = Explorer::new(scenario.as_ref())
                .with_backend(sweep.backend)
                .with_sim_seeds(sweep.healthy_seeds.clone())
                .hunt();
            let status = if report.violations.is_empty() {
                "clean"
            } else {
                failures += 1;
                "VIOLATED"
            };
            println!(
                "  {:<40} {:>3} episodes  {status}",
                scenario.name(),
                report.episodes
            );
            for violation in &report.violations {
                println!("    !! {violation}");
            }
        }
        for (scenario, seeds, oracle) in &sweep.mutants {
            let hunt = Explorer::new(scenario.as_ref())
                .with_backend(sweep.backend)
                .with_sim_seeds(seeds.clone())
                .hunt();
            match hunt.first_violation() {
                Some(found) => failures += check(scenario.as_ref(), found, oracle, &sweep.backend),
                None => {
                    failures += 1;
                    println!("  {:<40} NOT CAUGHT", scenario.name());
                }
            }
        }
    }
    if failures > 0 {
        println!("explore-smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("explore-smoke: ok");
}

/// Check one caught mutant: the expected oracle fired, two replays of the
/// recorded trace agree on verdict and consumed count, and the shrunk trace
/// refires the same oracle. Prints the `replay with:` line; returns the
/// number of failed checks.
fn check(
    scenario: &dyn Scenario,
    found: &FoundViolation,
    oracle: &str,
    backend: &ExploreBackend,
) -> usize {
    let mut failures = 0;
    let name = scenario.name();
    let sim_seed = found.plan.sim_seed;
    if found.violation.oracle != oracle {
        failures += 1;
        println!(
            "  {name:<40} caught by {} (expected {oracle})",
            found.violation.oracle
        );
    }
    let first = replay(scenario, sim_seed, &found.decisions, backend);
    let second = replay(scenario, sim_seed, &found.decisions, backend);
    if first != second || first.0.as_ref().map(|v| v.oracle) != Some(found.violation.oracle) {
        failures += 1;
        println!("  {name:<40} REPLAY NOT DETERMINISTIC ({first:?} vs {second:?})");
    }
    let minimal = shrink(scenario, found, 300, backend);
    println!(
        "  {name:<40} caught ({}; trace {} -> {} decisions in {} replays)",
        found.violation.oracle,
        minimal.original_len,
        minimal.minimized.len(),
        minimal.replays
    );
    let (refired, _) = replay(scenario, sim_seed, &minimal.minimized, backend);
    if refired.map(|v| v.oracle) != Some(found.violation.oracle) {
        failures += 1;
        println!(
            "    !! the shrunk trace does not refire {}",
            found.violation.oracle
        );
    }
    let faults = match backend {
        ExploreBackend::Gated(GatedConfig {
            faults: Some(plan), ..
        }) => format!(", fault seed {}", plan.seed),
        _ => String::new(),
    };
    println!(
        "    replay with: sim seed {sim_seed}{faults}, trace \"{}\"",
        minimal.minimized.to_compact_string()
    );
    failures
}
