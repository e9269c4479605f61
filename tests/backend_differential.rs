//! Differential tests across the execution backends.
//!
//! Every backend hosts the *same* protocol state machines through the
//! [`fle_model::SharedMemory`] contract (or, for the discrete-event
//! simulator, its inverted event-driven form). These tests run fixed-seed
//! instances on all of them and check:
//!
//! * the safety invariants hold everywhere (exactly one winner, distinct
//!   tight names),
//! * where determinism allows, the outputs are *identical*: the sequential
//!   backends agree bit-for-bit across repetitions, a lone participant
//!   wins on every backend, and the gate loop's FIFO schedule over shared
//!   registers reproduces `SimMemory::run_all` outcome-for-outcome.
//!
//! Byte-identical sim schedules are covered separately and exhaustively by
//! `tests/event_set_equivalence.rs`.

use fast_leader_election::prelude::*;
use fle_sim::SimMemory;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Outcomes of a fixed-seed election on every backend, labelled.
fn election_on_all_backends(
    n: usize,
    k: usize,
    seed: u64,
) -> Vec<(&'static str, BTreeMap<ProcId, Outcome>)> {
    let mut results = Vec::new();

    // 1. The deterministic discrete-event simulator under a fair adversary.
    let setup = ElectionSetup {
        participants: (0..k).map(ProcId).collect(),
        ..ElectionSetup::all_participate(n)
    }
    .with_seed(seed);
    let report = run_leader_election(&setup, &mut RandomAdversary::with_seed(seed))
        .expect("the simulated election terminates");
    results.push(("sim", report.outcomes));

    // 2. The deterministic sequential register adapter.
    let mut memory = SimMemory::new(n, seed);
    results.push(("sim-memory", memory.run_all(election_participants(k))));

    // 3. The task-multiplexed executor, free-running: participants are
    // cooperative tasks on a small worker pool over shared registers.
    let executor = Executor::new(ExecutorConfig::new(2));
    let registers = Arc::new(SharedRegisters::new(4));
    let ticket = executor.submit(
        &registers,
        seed,
        seed,
        election_participants(k),
        &FaultPlan::default(),
        CancelToken::none(),
    );
    match ticket.wait() {
        ExecResult::Completed(report) => results.push(("async", report.outcomes)),
        other => panic!("async: unexpected {other:?}"),
    }

    results
}

#[test]
fn every_backend_elects_exactly_one_winner() {
    for (n, k) in [(4usize, 4usize), (5, 3), (8, 8)] {
        for seed in 0..3u64 {
            for (backend, outcomes) in election_on_all_backends(n, k, seed) {
                assert_eq!(
                    outcomes.len(),
                    k,
                    "{backend}: n={n} k={k} seed={seed}: every participant returns"
                );
                let winners: Vec<&ProcId> = outcomes
                    .iter()
                    .filter(|(_, o)| o.is_win())
                    .map(|(p, _)| p)
                    .collect();
                assert_eq!(
                    winners.len(),
                    1,
                    "{backend}: n={n} k={k} seed={seed}: winners {winners:?}"
                );
                assert!(
                    outcomes
                        .values()
                        .all(|o| matches!(o, Outcome::Win | Outcome::Lose)),
                    "{backend}: elections return only WIN/LOSE"
                );
            }
        }
    }
}

#[test]
fn deterministic_backends_agree_where_determinism_allows() {
    // A lone participant must win on every backend — the one cross-backend
    // output fixed by the spec rather than by scheduling.
    for (backend, outcomes) in election_on_all_backends(4, 1, 9) {
        assert_eq!(
            outcomes.get(&ProcId(0)),
            Some(&Outcome::Win),
            "{backend}: a lone participant always wins"
        );
    }

    // The fully deterministic backends reproduce themselves bit-for-bit.
    for seed in 0..3u64 {
        let sim_a = &election_on_all_backends(6, 6, seed)[0].1;
        let sim_b = &election_on_all_backends(6, 6, seed)[0].1;
        assert_eq!(sim_a, sim_b, "the simulator is deterministic per seed");

        let mut mem_a = SimMemory::new(6, seed);
        let mut mem_b = SimMemory::new(6, seed);
        assert_eq!(
            mem_a.run_all(election_participants(6)),
            mem_b.run_all(election_participants(6)),
            "the sequential register adapter is deterministic per seed"
        );
    }
}

#[test]
fn renaming_is_tight_and_unique_on_every_backend() {
    let n = 4;
    let seed = 5;

    let mut all: Vec<(&'static str, BTreeMap<ProcId, usize>)> = Vec::new();

    let setup = RenamingSetup::all_participate(n).with_seed(seed);
    let report = run_renaming(&setup, &mut RandomAdversary::with_seed(seed))
        .expect("the simulated renaming terminates");
    all.push(("sim", report.names()));

    let mut memory = SimMemory::new(n, seed);
    let outcomes = memory.run_all(renaming_participants(n, n));
    all.push((
        "sim-memory",
        outcomes
            .into_iter()
            .filter_map(|(p, o)| match o {
                Outcome::Name(u) => Some((p, u)),
                _ => None,
            })
            .collect(),
    ));

    let executor = Executor::new(ExecutorConfig::new(2));
    let registers = Arc::new(SharedRegisters::new(2));
    let ticket = executor.submit(
        &registers,
        0,
        seed,
        renaming_participants(n, n),
        &FaultPlan::default(),
        CancelToken::none(),
    );
    match ticket.wait() {
        ExecResult::Completed(report) => all.push((
            "async",
            report
                .outcomes
                .into_iter()
                .filter_map(|(p, o)| match o {
                    Outcome::Name(u) => Some((p, u)),
                    _ => None,
                })
                .collect(),
        )),
        other => panic!("async: unexpected {other:?}"),
    }

    for (backend, names) in all {
        assert_eq!(names.len(), n, "{backend}: every participant is renamed");
        let distinct: BTreeSet<usize> = names.values().copied().collect();
        assert_eq!(
            distinct.len(),
            n,
            "{backend}: names are distinct: {names:?}"
        );
        assert!(
            distinct.iter().all(|&u| (1..=n).contains(&u)),
            "{backend}: names are tight (1..={n}): {names:?}"
        );
    }
}

#[test]
fn gated_async_elections_match_the_sequential_adapter_bit_for_bit() {
    // The gate loop's FIFO schedule serializes participants exactly like
    // `SimMemory::run_all`, and both seed their coins with the simulator
    // convention — so for a fixed seed the outcome maps must be *equal*, not
    // merely invariant-preserving. This is the async backend's entry into
    // the deterministic tier of the differential suite.
    for (n, k) in [(3usize, 3usize), (4, 4), (5, 3), (6, 6), (8, 8)] {
        for seed in 0..4u64 {
            let mut memory = SimMemory::new(n, seed);
            let sequential = memory.run_all(election_participants(k));
            let report = run_gated_fifo(seed, election_participants(k));
            let label = format!("n={n} k={k} seed={seed}");
            assert!(
                !report.stopped,
                "{label}: a sequential run always completes"
            );
            assert!(report.progress.crashed.is_empty(), "{label}");
            assert_eq!(report.progress.outcomes, sequential, "{label}");
            assert_eq!(report.progress.winners().len(), 1, "{label}");
        }
    }
}

#[test]
fn gated_async_renaming_matches_the_sequential_adapter_bit_for_bit() {
    for n in [4usize, 5] {
        for seed in 0..4u64 {
            let mut memory = SimMemory::new(n, seed);
            let sequential = memory.run_all(renaming_participants(n, n));
            let report = run_gated_fifo(seed, renaming_participants(n, n));
            assert_eq!(report.progress.outcomes, sequential, "n={n} seed={seed}");
            let names: BTreeSet<usize> = report.progress.names().values().copied().collect();
            assert_eq!(names.len(), n, "n={n} seed={seed}: names distinct");
            assert!(
                names.iter().all(|&u| (1..=n).contains(&u)),
                "n={n} seed={seed}"
            );
        }
    }
}

#[test]
fn the_gate_loop_is_deterministic_per_seed() {
    // Same seed, two runs: each builds a fresh register bank, so the second
    // run must repeat the first grant for grant.
    let first = run_gated_fifo(11, election_participants(6));
    let again = run_gated_fifo(11, election_participants(6));
    assert_eq!(
        first.progress.outcomes, again.progress.outcomes,
        "repeatable"
    );
    assert_eq!(first.grants, again.grants);
    let mut memory = SimMemory::new(6, 11);
    assert_eq!(
        first.progress.outcomes,
        memory.run_all(election_participants(6)),
        "and equal to the sequential adapter"
    );
}

#[test]
fn async_instances_on_one_register_bank_do_not_interfere() {
    // 16 namespaced elections share one executor and one register bank.
    let executor = Executor::new(ExecutorConfig::new(4));
    let registers = Arc::new(SharedRegisters::new(2));
    let tickets: Vec<_> = (0..16u64)
        .map(|namespace| {
            executor.submit(
                &registers,
                namespace,
                namespace,
                election_participants(3),
                &FaultPlan::default(),
                CancelToken::none(),
            )
        })
        .collect();
    for (namespace, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            ExecResult::Completed(report) => {
                assert_eq!(report.winners().len(), 1, "namespace {namespace}")
            }
            other => panic!("namespace {namespace}: unexpected {other:?}"),
        }
    }
    assert_eq!(registers.live_namespaces(), 16);
}

#[test]
fn concurrent_instances_on_one_register_bank_do_not_interfere() {
    // Many elections race on the same shared register bank under distinct
    // namespaces, each submitted and awaited from its own caller thread in
    // parallel; each must independently elect one winner.
    let executor = Executor::new(ExecutorConfig::new(4));
    let registers = Arc::new(SharedRegisters::new(2));
    let results: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16u64)
            .map(|namespace| {
                let (executor, registers) = (&executor, &registers);
                scope.spawn(move || {
                    let ticket = executor.submit(
                        registers,
                        namespace,
                        namespace,
                        election_participants(3),
                        &FaultPlan::default(),
                        CancelToken::none(),
                    );
                    match ticket.wait() {
                        ExecResult::Completed(report) => report.winners().len(),
                        other => panic!("namespace {namespace}: unexpected {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        results.iter().all(|&w| w == 1),
        "winners per instance: {results:?}"
    );
    assert_eq!(registers.live_namespaces(), 16);
}
