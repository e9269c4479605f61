//! Hunt for schedules that violate the paper's guarantees, then shrink a
//! real counterexample to its minimal replayable form — on the simulator
//! and on the schedule-gate loop over shared registers, through the same
//! calls.
//!
//! Part 1 turns the explorer loose on the healthy protocols: every attack
//! strategy in the library (adaptive front-runner crashes, targeted
//! starvation, split-brain orderings, weighted random walks) across a grid
//! of seeds, with the safety oracles checked after every event (on the
//! gate loop: after every grant). The paper holds: nothing fires.
//!
//! Part 2 demonstrates what a hit looks like. A sabotaged leader election
//! (every `Round` write dropped — the "skip the write" mutation) is caught
//! by the unique-leader oracle; the recorded decision trace is then
//! delta-debugged on the backend that found it down to a minimal
//! counterexample, printed in the compact `s<i>`/`c<p>` codec, parsed back
//! and replayed from that text alone.
//!
//! A `Schedule(i)` decision means "run the i-th enabled simulator event" on
//! the simulator and "grant the i-th participant waiting at its schedule
//! gate" on the gate loop; everything else — strategies, oracles,
//! `run_episode`, `replay`, `shrink` — is the same call with a different
//! `ExploreBackend`.
//!
//! Run with `cargo run --release --example schedule_hunt`.

use fast_leader_election::explore::sabotage::SabotagedElectionScenario;
use fast_leader_election::explore::standard_scenarios;
use fast_leader_election::prelude::*;

fn main() {
    let backends = [
        ("simulator", ExploreBackend::Sim),
        ("gate loop", ExploreBackend::Gated(GatedConfig::default())),
    ];
    for (name, backend) in backends {
        println!("== {name}, part 1: the healthy protocols survive the attack library ==");
        for scenario in standard_scenarios(&[8]) {
            let report = Explorer::new(scenario.as_ref())
                .with_backend(backend)
                .with_sim_seeds(0..6)
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
        println!("== {name}, part 2: a sabotaged election is caught and shrunk ==");
        let mutant = SabotagedElectionScenario { n: 4, k: 4 };
        let hunt = Explorer::new(&mutant)
            .with_backend(backend)
            .with_sim_seeds(0..8)
            .hunt();
        let found = hunt
            .first_violation()
            .expect("dropping the Round writes lets two processors win");
        println!("  found: {found}");

        let minimal = shrink(&mutant, found, 400, &backend);
        println!(
            "  shrunk: {} -> {} decisions ({} replays, ratio {:.0}%)",
            minimal.original_len,
            minimal.minimized.len(),
            minimal.replays,
            minimal.ratio() * 100.0
        );
        let text = minimal.minimized.to_compact_string();
        println!("  replay text: {text:?}");

        // A teammate with only the log would do exactly this:
        let from_text = DecisionTrace::parse(&text).expect("the codec round-trips");
        let (confirmed, _) = replay(&mutant, found.plan.sim_seed, &from_text, &backend);
        let confirmed = confirmed.expect("the minimized trace still reproduces the violation");
        println!("  replayed from text: {confirmed}");
        println!();
    }
}
