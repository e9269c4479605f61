//! CI smoke sweep for schedule exploration of the **task executor**.
//!
//! The executor twin of `explore_smoke`: runs the full attack library
//! against every healthy scenario at n ∈ {4, 8} on the task-multiplexed
//! executor (participants as cooperative tasks behind schedule
//! gates, serialized under adversary-chosen interleavings), with fixed
//! seeds, and asserts that **zero** violations are found — the paper's
//! invariants must survive every strategy on the backend that multiplexes
//! thousands of participants per OS thread. As a positive control it then
//! hunts the two sabotaged protocol variants on the same substrate and
//! asserts both *are* caught, that the election counterexample replays
//! deterministically from its recorded decision trace, and that ddmin
//! shrinks it. The shrunk trace is printed in the compact `s<i>`/`c<p>`
//! codec so a failure can be replayed straight from the CI log (see
//! EXPERIMENTS.md).
//!
//! Exit code 0 = all clean and both mutants caught; 1 otherwise. The grid is
//! sized to finish in well under a minute on one core.

use fle_explore::sabotage::{SabotagedElectionScenario, SabotagedSiftScenario};
use fle_explore::{
    replay_exec, shrink_exec, standard_scenarios, ExploreBackend, Explorer, Scenario, ShmConfig,
};

fn main() {
    let config = ShmConfig::default();
    let backend = ExploreBackend::Async(config);
    let mut failures = 0usize;

    println!("== explore-async-smoke: healthy scenarios on the task executor (must be clean) ==");
    for scenario in standard_scenarios(&[4, 8]) {
        let report = Explorer::new(scenario.as_ref())
            .with_backend(backend)
            .with_sim_seeds(0..4)
            .with_strategy_seeds(0..2)
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

    println!("== explore-async-smoke: sabotaged mutants (must be caught) ==");
    let election = SabotagedElectionScenario { n: 4, k: 4 };
    let hunt = Explorer::new(&election)
        .with_backend(backend)
        .with_sim_seeds(0..8)
        .hunt();
    match hunt.first_violation() {
        Some(found) => {
            let (replay_a, consumed_a) =
                replay_exec(&election, found.plan.sim_seed, &found.decisions, &config);
            let (replay_b, consumed_b) =
                replay_exec(&election, found.plan.sim_seed, &found.decisions, &config);
            let deterministic = replay_a == replay_b
                && consumed_a == consumed_b
                && replay_a.as_ref().map(|v| v.oracle) == Some(found.violation.oracle);
            if !deterministic {
                failures += 1;
                println!(
                    "  {:<40} REPLAY NOT DETERMINISTIC ({replay_a:?} vs {replay_b:?})",
                    election.name()
                );
            }
            let minimal = shrink_exec(&election, found, 300, &config);
            println!(
                "  {:<40} caught ({}; trace {} -> {} decisions in {} replays)",
                election.name(),
                found.violation.oracle,
                minimal.original_len,
                minimal.minimized.len(),
                minimal.replays
            );
            println!(
                "    replay with: sim seed {}, trace \"{}\"",
                found.plan.sim_seed,
                minimal.minimized.to_compact_string()
            );
        }
        None => {
            failures += 1;
            println!("  {:<40} NOT CAUGHT", election.name());
        }
    }
    let sift = SabotagedSiftScenario { n: 4, bias: 0.1 };
    let hunt = Explorer::new(&sift)
        .with_backend(backend)
        .with_sim_seeds(0..8)
        .hunt();
    match hunt.first_violation() {
        Some(found) => println!("  {:<40} caught ({})", sift.name(), found.violation.oracle),
        None => {
            failures += 1;
            println!("  {:<40} NOT CAUGHT", sift.name());
        }
    }

    if failures > 0 {
        println!("explore-async-smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("explore-async-smoke: ok");
}
