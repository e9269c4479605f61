//! End-to-end exploration of the **gate loop**: the simulator's
//! pipeline (strategies → online oracles → recorded trace → ddmin shrinker)
//! pointed at `SharedRegisters` behind schedule gates instead of the
//! simulator.

use fle_explore::sabotage::{SabotagedElectionScenario, SabotagedSiftScenario};
use fle_explore::{replay, shrink, standard_scenarios, ExploreBackend, Explorer, GatedConfig};

const EXEC: ExploreBackend = ExploreBackend::Gated(GatedConfig {
    preemption_bound: None,
    faults: None,
});

#[test]
fn healthy_scenarios_survive_every_strategy_on_the_gate_loop() {
    for scenario in standard_scenarios(&[4]) {
        let report = Explorer::new(scenario.as_ref())
            .with_backend(EXEC)
            .with_sim_seeds(0..2)
            .with_strategy_seeds(0..1)
            .hunt();
        assert_eq!(report.clean, report.episodes, "{}", scenario.name());
        assert!(
            report.violations.is_empty(),
            "{}: {:?}",
            scenario.name(),
            report.violations
        );
        assert!(report.clean_events > 0);
    }
}

#[test]
fn sabotaged_election_is_caught_replayed_and_shrunk_on_the_gate_loop() {
    let scenario = SabotagedElectionScenario { n: 4, k: 4 };
    let hunt = Explorer::new(&scenario)
        .with_backend(EXEC)
        .with_sim_seeds(0..8)
        .hunt();
    let found = hunt
        .first_violation()
        .expect("the write-dropping election mutant must be caught on the gate loop");
    assert_eq!(found.violation.oracle, "unique-leader");

    // The recorded trace replays deterministically: two independent replays
    // re-execute the participants and reach the identical verdict at the
    // identical decision.
    let first = replay(&scenario, found.plan.sim_seed, &found.decisions, &EXEC);
    let second = replay(&scenario, found.plan.sim_seed, &found.decisions, &EXEC);
    let violation = first.0.as_ref().expect("replay reproduces the violation");
    assert_eq!(violation.oracle, "unique-leader");
    assert_eq!(first.0, second.0, "replay verdicts must be identical");
    assert_eq!(first.1, second.1, "replay consumption must be identical");

    // ddmin minimizes the gated counterexample; the result is itself a
    // replayable counterexample.
    let minimal = shrink(&scenario, found, 300, &EXEC);
    assert!(minimal.minimized.len() <= found.decisions.len());
    assert!(
        minimal.ratio() <= 0.25,
        "trace {} -> {} decisions (ratio {})",
        minimal.original_len,
        minimal.minimized.len(),
        minimal.ratio()
    );
    let (replayed, _) = replay(&scenario, found.plan.sim_seed, &minimal.minimized, &EXEC);
    assert_eq!(
        replayed.expect("the minimized trace still fails").oracle,
        "unique-leader"
    );
}

#[test]
fn sabotaged_sift_wipeout_is_caught_on_the_gate_loop() {
    let scenario = SabotagedSiftScenario { n: 4, bias: 0.1 };
    let hunt = Explorer::new(&scenario)
        .with_backend(EXEC)
        .with_sim_seeds(0..8)
        .hunt();
    let found = hunt
        .first_violation()
        .expect("the priority-write-dropping sift mutant must be caught");
    assert_eq!(found.violation.oracle, "survivor-bound");
}

#[test]
fn gated_hunts_are_deterministic_across_worker_thread_counts() {
    // The explorer's worker-thread count must not influence what a hunt
    // finds: episodes are deterministic and results come back in grid order.
    let scenario = SabotagedElectionScenario { n: 4, k: 4 };
    let hunt = |threads: usize| {
        Explorer::new(&scenario)
            .with_backend(EXEC)
            .with_sim_seeds(0..4)
            .with_threads(threads)
            .hunt()
    };
    let serial = hunt(1);
    let parallel = hunt(8);
    assert_eq!(serial.clean, parallel.clean);
    assert_eq!(serial.clean_events, parallel.clean_events);
    assert_eq!(serial.violations.len(), parallel.violations.len());
    for (a, b) in serial.violations.iter().zip(parallel.violations.iter()) {
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.plan, b.plan);
    }
}

#[test]
fn preemption_bounded_hunts_still_catch_the_mutant() {
    // CHESS-style: even 2 preemptions per episode are enough to elect two
    // leaders from the write-dropping mutant, and the bounded decisions are
    // what the trace records, so replay needs no bound.
    let bounded = ExploreBackend::Gated(GatedConfig {
        preemption_bound: Some(2),
        ..GatedConfig::default()
    });
    let scenario = SabotagedElectionScenario { n: 4, k: 4 };
    let hunt = Explorer::new(&scenario)
        .with_backend(bounded)
        .with_sim_seeds(0..8)
        .hunt();
    let found = hunt
        .first_violation()
        .expect("bounded preemption still finds the double election");
    let (replayed, _) = replay(&scenario, found.plan.sim_seed, &found.decisions, &bounded);
    assert_eq!(
        replayed.expect("replays without the bound").oracle,
        "unique-leader"
    );
}
