//! Differential tests for the simulator's reference mode.
//!
//! The simulator maintains its enabled-event set incrementally (see
//! `fle_sim::event_set`). `with_event_set_validation()` is the engine's one
//! reference mode and pins that optimization to first principles as the
//! run goes: before *every* adversary decision, the incremental indexes
//! must materialize to exactly the same ordered event list as a brute-force
//! rescan of all processors and in-flight messages.
//!
//! The check only reads engine state, so a validated run must also produce
//! a byte-identical report to the production run of the same configuration.

use fast_leader_election::prelude::*;

fn adversary_from(kind: u8, seed: u64) -> Box<dyn Adversary> {
    match kind % 4 {
        0 => Box::new(RandomAdversary::with_seed(seed)),
        1 => Box::new(ObliviousAdversary::with_seed(seed)),
        2 => Box::new(SequentialAdversary::new()),
        _ => Box::new(CoinAwareAdversary::with_seed(seed)),
    }
}

fn run_election(
    n: usize,
    seed: u64,
    kind: u8,
    configure: impl Fn(SimConfig) -> SimConfig,
) -> ExecutionReport {
    let config = configure(SimConfig::new(n).with_seed(seed).with_trace());
    let mut sim = Simulator::new(config);
    for i in 0..n {
        sim.add_participant(ProcId(i), Box::new(LeaderElection::new(ProcId(i))));
    }
    let mut adversary = adversary_from(kind, seed ^ 0x5bd1);
    sim.run(adversary.as_mut()).expect("election terminates")
}

fn run_renaming_sim(
    n: usize,
    seed: u64,
    kind: u8,
    configure: impl Fn(SimConfig) -> SimConfig,
) -> ExecutionReport {
    let config = configure(SimConfig::new(n).with_seed(seed).with_trace());
    let mut sim = Simulator::new(config);
    let renaming_config = RenamingConfig::new(n);
    for i in 0..n {
        sim.add_participant(
            ProcId(i),
            Box::new(Renaming::new(ProcId(i), renaming_config)),
        );
    }
    let mut adversary = adversary_from(kind, seed ^ 0x5bd1);
    sim.run(adversary.as_mut()).expect("renaming terminates")
}

fn run_crashy_election(
    n: usize,
    seed: u64,
    configure: impl Fn(SimConfig) -> SimConfig,
) -> ExecutionReport {
    let config = configure(SimConfig::new(n).with_seed(seed).with_trace());
    let mut sim = Simulator::new(config);
    for i in 0..n {
        sim.add_participant(ProcId(i), Box::new(LeaderElection::new(ProcId(i))));
    }
    let budget = n.div_ceil(2).saturating_sub(1);
    let mut plan = CrashPlan::none();
    for (index, victim) in (n - budget..n).enumerate() {
        plan = plan.and_then((index as u64 + 1) * 40, ProcId(victim));
    }
    let mut adversary = CrashingAdversary::new(RandomAdversary::with_seed(seed), plan);
    sim.run(&mut adversary).expect("election terminates")
}

fn assert_reports_identical(a: &ExecutionReport, b: &ExecutionReport, context: &str) {
    assert_eq!(
        a.trace.digest(),
        b.trace.digest(),
        "trace digest: {context}"
    );
    assert_eq!(
        a.trace.events(),
        b.trace.events(),
        "trace events: {context}"
    );
    assert_eq!(a.outcomes, b.outcomes, "outcomes: {context}");
    assert_eq!(a.intervals, b.intervals, "intervals: {context}");
    assert_eq!(a.metrics, b.metrics, "metrics: {context}");
    assert_eq!(a.crashed, b.crashed, "crashed list: {context}");
    assert_eq!(
        a.events_executed, b.events_executed,
        "event count: {context}"
    );
}

/// The incremental enabled-event set matches a brute-force rebuild at every
/// single decision point, across system sizes, seeds and all four adversary
/// families — including renaming and executions with crashes. Each validated
/// run also reproduces the production run's report byte for byte.
#[test]
fn incremental_event_set_matches_brute_force_at_every_step() {
    for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16] {
        for seed in 0..3u64 {
            for kind in 0..4u8 {
                let validated = run_election(n, seed, kind, SimConfig::with_event_set_validation);
                assert!(!validated.winners().is_empty());
                let production = run_election(n, seed, kind, |c| c);
                assert_reports_identical(
                    &validated,
                    &production,
                    &format!("election n={n} seed={seed} kind={kind}"),
                );
            }
        }
    }
    for n in 2usize..=6 {
        for seed in 0..2u64 {
            for kind in 0..2u8 {
                let validated =
                    run_renaming_sim(n, seed, kind, SimConfig::with_event_set_validation);
                let production = run_renaming_sim(n, seed, kind, |c| c);
                assert_reports_identical(
                    &validated,
                    &production,
                    &format!("renaming n={n} seed={seed} kind={kind}"),
                );
            }
        }
    }
    for n in [4usize, 5, 7, 9, 10] {
        for seed in 0..3u64 {
            let validated = run_crashy_election(n, seed, SimConfig::with_event_set_validation);
            let production = run_crashy_election(n, seed, |c| c);
            assert_reports_identical(
                &validated,
                &production,
                &format!("crashy election n={n} seed={seed}"),
            );
        }
    }
}

/// Determinism: running the same configuration twice yields byte-identical
/// reports (a regression gate for the incremental bookkeeping, whose order
/// must depend only on the decision sequence).
#[test]
fn repeated_runs_are_byte_identical() {
    for n in [2usize, 6, 11] {
        for seed in 0..3u64 {
            for kind in 0..4u8 {
                let a = run_election(n, seed, kind, |c| c);
                let b = run_election(n, seed, kind, |c| c);
                assert_reports_identical(&a, &b, &format!("repeat n={n} seed={seed} kind={kind}"));
            }
        }
    }
}
