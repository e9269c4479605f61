//! Hunt the **gated task executor** — participant tasks on a shared register
//! bank — with the same strategies, oracles and shrinker that sweep the
//! simulator. The walkthrough from ARCHITECTURE.md, runnable:
//!
//! 1. **Pick a strategy.** Every `StrategySpec` works unchanged: on this
//!    backend a `Schedule(i)` decision grants the i-th participant task
//!    parked at its schedule gate instead of the i-th simulator event.
//! 2. **Hunt a sabotaged protocol.** A leader election whose `Round` writes
//!    are dropped ("skip the write") runs on `SharedRegisters` — the
//!    production concurrency model — until the unique-leader oracle catches
//!    two participants both returning `WIN`.
//! 3. **Shrink and print the trace.** The recorded decision trace is
//!    delta-debugged on the same backend and printed in the compact
//!    `s<i>`/`c<p>` codec; `replay_exec` re-executes the tasks from that
//!    text alone and reproduces the violation deterministically.
//!
//! Run with `cargo run --release --example explore_shm`.

use fast_leader_election::explore::sabotage::SabotagedElectionScenario;
use fast_leader_election::explore::{
    replay_exec, shrink_exec, standard_scenarios, ExploreBackend, ShmConfig,
};
use fast_leader_election::prelude::*;

fn main() {
    let config = ShmConfig::default();
    let backend = ExploreBackend::Async(config);

    println!("== part 1: the healthy protocols survive the attack library on the executor ==");
    for scenario in standard_scenarios(&[8]) {
        let report = Explorer::new(scenario.as_ref())
            .with_backend(backend)
            .with_sim_seeds(0..4)
            .with_strategy_seeds(0..2)
            .hunt();
        println!(
            "  {:<28} {:>3} episodes, {:>3} clean, {} violations",
            scenario.name(),
            report.episodes,
            report.clean,
            report.violations.len()
        );
        assert!(report.violations.is_empty(), "the paper's invariants hold");
    }

    println!();
    println!("== part 2: a sabotaged election is caught on SharedRegisters ==");
    let mutant = SabotagedElectionScenario { n: 4, k: 4 };
    let hunt = Explorer::new(&mutant)
        .with_backend(backend)
        .with_sim_seeds(0..8)
        .hunt();
    let found = hunt
        .first_violation()
        .expect("dropping the Round writes lets two participants win");
    println!("  found: {found}");

    println!();
    println!("== part 3: shrink on the same backend, replay from text ==");
    let minimal = shrink_exec(&mutant, found, 300, &config);
    println!(
        "  shrunk: {} -> {} decisions ({} replays, ratio {:.0}%)",
        minimal.original_len,
        minimal.minimized.len(),
        minimal.replays,
        minimal.ratio() * 100.0
    );
    let text = minimal.minimized.to_compact_string();
    println!("  replay text: {text:?}");

    // A teammate with only the CI log would do exactly this:
    let from_text = DecisionTrace::parse(&text).expect("the codec round-trips");
    let (confirmed, _) = replay_exec(&mutant, found.plan.sim_seed, &from_text, &config);
    let confirmed = confirmed.expect("the minimized trace still reproduces the violation");
    println!("  replayed on fresh tasks: {confirmed}");
}
