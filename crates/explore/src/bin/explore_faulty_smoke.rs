//! CI smoke sweep for schedule exploration **under injected faults**.
//!
//! The robustness twin of `explore_async_smoke`: the same attack strategies
//! and safety oracles hunt the gated task executor, but every episode now
//! runs behind a seeded [`fle_runtime::FaultyMemory`] decorator
//! ([`ShmConfig::faults`]). Two sweeps:
//!
//! 1. **Healthy under benign faults** — operation delays and transient
//!    collect failures must be *masked*: the election stays correct under
//!    every strategy, so the hunt must come back clean. This is the claim
//!    that the paper's protocols tolerate slow and flaky (but live)
//!    processors.
//! 2. **Crash mutant caught** — a fault plan that fail-stops every
//!    participant after a few operations must be *detected* by the
//!    election-liveness oracle (everyone returns, nobody wins), its
//!    counterexample must replay deterministically from the recorded trace
//!    (faults are a pure function of the plan seed), and ddmin must shrink
//!    it. The shrunk trace is printed in the compact `s<i>`/`c<p>` codec so
//!    a failure can be replayed straight from the CI log.
//!
//! Exit code 0 = healthy clean and the crash mutant caught; 1 otherwise.
//! Sized to finish in seconds on one core.

use fle_explore::oracles::ELECTION_LIVENESS;
use fle_explore::{
    replay_exec, shrink_exec, ElectionScenario, ExploreBackend, Explorer, Scenario, ShmConfig,
};
use fle_runtime::{CrashSpec, FaultPlan};

fn main() {
    let mut failures = 0usize;

    println!("== explore-faulty-smoke: healthy election under benign faults (must be clean) ==");
    let benign = ShmConfig {
        faults: Some(
            FaultPlan::new(23)
                .with_delays(200, 80)
                .with_collect_failures(250, 3),
        ),
        ..ShmConfig::default()
    };
    for n in [4usize, 8] {
        let scenario = ElectionScenario { n, k: n };
        let report = Explorer::new(&scenario)
            .with_backend(ExploreBackend::Async(benign))
            .with_sim_seeds(0..3)
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

    println!("== explore-faulty-smoke: fail-stop crash mutant (must be caught) ==");
    let crashing = ShmConfig {
        faults: Some(FaultPlan::new(7).with_crash(CrashSpec::lose_all(3))),
        ..ShmConfig::default()
    };
    let scenario = ElectionScenario { n: 4, k: 4 };
    let hunt = Explorer::new(&scenario)
        .with_backend(ExploreBackend::Async(crashing))
        .with_sim_seeds(0..4)
        .hunt();
    match hunt.first_violation() {
        Some(found) => {
            if found.violation.oracle != ELECTION_LIVENESS {
                failures += 1;
                println!(
                    "  {:<40} caught by {} (expected {ELECTION_LIVENESS})",
                    scenario.name(),
                    found.violation.oracle
                );
            }
            let (replay_a, consumed_a) =
                replay_exec(&scenario, found.plan.sim_seed, &found.decisions, &crashing);
            let (replay_b, consumed_b) =
                replay_exec(&scenario, found.plan.sim_seed, &found.decisions, &crashing);
            let deterministic = replay_a == replay_b
                && consumed_a == consumed_b
                && replay_a.as_ref().map(|v| v.oracle) == Some(found.violation.oracle);
            if !deterministic {
                failures += 1;
                println!(
                    "  {:<40} REPLAY NOT DETERMINISTIC ({replay_a:?} vs {replay_b:?})",
                    scenario.name()
                );
            }
            let minimal = shrink_exec(&scenario, found, 300, &crashing);
            println!(
                "  {:<40} caught ({}; trace {} -> {} decisions in {} replays)",
                scenario.name(),
                found.violation.oracle,
                minimal.original_len,
                minimal.minimized.len(),
                minimal.replays
            );
            println!(
                "    replay with: sim seed {}, fault seed 7, trace \"{}\"",
                found.plan.sim_seed,
                minimal.minimized.to_compact_string()
            );
        }
        None => {
            failures += 1;
            println!("  {:<40} NOT CAUGHT", scenario.name());
        }
    }

    if failures > 0 {
        println!("explore-faulty-smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("explore-faulty-smoke: ok");
}
