//! End-to-end validation of the exploration pipeline: the sabotaged protocol
//! variants must be caught by the oracles, the recorded decision trace must
//! replay to the same violation, and the shrinker must minimize it to a
//! small fraction of the original schedule.

use fle_explore::sabotage::{SabotagedElectionScenario, SabotagedSiftScenario};
use fle_explore::{oracles, replay, shrink, ExploreBackend, Explorer};

const SIM: ExploreBackend = ExploreBackend::Sim;
use fle_sim::DecisionTrace;

/// The issue's acceptance bar: a sabotaged protocol ("skip the write") is
/// caught by the explorer and the counterexample shrinks to ≤ 25% of the
/// original schedule length, ending up replayable from its text form alone.
#[test]
fn sabotaged_election_is_caught_shrunk_and_replayable() {
    let scenario = SabotagedElectionScenario { n: 8, k: 8 };
    let report = Explorer::new(&scenario)
        .with_sim_seeds(0..8)
        .with_strategy_seeds(0..2)
        .hunt();
    let found = report
        .first_violation()
        .expect("dropping the Round writes must elect two leaders under some schedule");
    assert_eq!(found.violation.oracle, oracles::UNIQUE_LEADER);
    let original_len = found.decisions.len();
    assert!(original_len > 0, "a violation implies a non-empty schedule");

    // The recorded trace replays to the same violation, deterministically.
    let (replayed, _) = replay(&scenario, found.plan.sim_seed, &found.decisions, &SIM);
    assert_eq!(
        replayed.as_ref().map(|v| v.oracle),
        Some(oracles::UNIQUE_LEADER),
        "the recorded decision trace must reproduce the violation"
    );

    // Shrink and check the acceptance bound.
    let minimal = shrink(&scenario, found, 400, &SIM);
    assert_eq!(minimal.original_len, original_len);
    assert!(
        minimal.minimized.len() * 4 <= original_len,
        "shrunk trace of {} decisions is more than 25% of the original {}",
        minimal.minimized.len(),
        original_len
    );

    // The minimized trace still reproduces the violation...
    let (confirmed, _) = replay(&scenario, found.plan.sim_seed, &minimal.minimized, &SIM);
    assert_eq!(confirmed.map(|v| v.oracle), Some(oracles::UNIQUE_LEADER));

    // ...and survives a round trip through its serialized text form.
    let text = minimal.minimized.to_compact_string();
    let parsed = DecisionTrace::parse(&text).expect("the compact form parses back");
    assert_eq!(parsed, minimal.minimized);
    let (from_text, _) = replay(&scenario, found.plan.sim_seed, &parsed, &SIM);
    assert_eq!(
        from_text.map(|v| v.oracle),
        Some(oracles::UNIQUE_LEADER),
        "a counterexample must replay from its serialized form alone"
    );
}

/// The issue's example mutation — skip the PoisonPill (priority) write —
/// is caught by the survivor-bound oracle.
#[test]
fn sabotaged_poison_pill_wipeout_is_caught() {
    let scenario = SabotagedSiftScenario { n: 4, bias: 0.1 };
    let report = Explorer::new(&scenario)
        .with_sim_seeds(0..8)
        .with_strategy_seeds(0..2)
        .hunt();
    let found = report
        .first_violation()
        .expect("an all-low execution with no priority writes wipes everyone out");
    assert_eq!(found.violation.oracle, oracles::SURVIVOR_BOUND);
    // Replayable here too.
    let (replayed, _) = replay(&scenario, found.plan.sim_seed, &found.decisions, &SIM);
    assert_eq!(replayed.map(|v| v.oracle), Some(oracles::SURVIVOR_BOUND));
}

/// Negative control: the healthy protocols survive the identical hunts that
/// catch the mutants.
#[test]
fn healthy_counterparts_survive_the_same_hunts() {
    let election = fle_explore::ElectionScenario { n: 8, k: 8 };
    let report = Explorer::new(&election)
        .with_sim_seeds(0..4)
        .with_strategy_seeds(0..1)
        .hunt();
    assert!(
        report.violations.is_empty(),
        "healthy election violated: {:?}",
        report.violations
    );

    // The healthy PoisonPill at the *same* low bias survives the exact coin
    // patterns that wipe out the mutant: Claim 3.1 holds for every bias.
    let sift = fle_explore::SiftScenario {
        n: 4,
        heterogeneous: false,
        bias: Some(0.1),
    };
    let report = Explorer::new(&sift)
        .with_sim_seeds(0..8)
        .with_strategy_seeds(0..1)
        .hunt();
    assert!(
        report.violations.is_empty(),
        "healthy poison pill violated: {:?}",
        report.violations
    );
}
