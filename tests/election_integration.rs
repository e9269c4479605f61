//! Cross-crate integration tests: the full leader election driven through the
//! public API, across backends, adversaries and failure patterns.

use fast_leader_election::prelude::*;

fn adversaries(seed: u64) -> Vec<Box<dyn Adversary>> {
    vec![
        Box::new(RandomAdversary::with_seed(seed)),
        Box::new(ObliviousAdversary::with_seed(seed)),
        Box::new(SequentialAdversary::new()),
        Box::new(CoinAwareAdversary::with_seed(seed)),
    ]
}

#[test]
fn election_has_unique_winner_across_adversaries_and_sizes() {
    for n in [2usize, 3, 5, 8, 13, 21] {
        for seed in 0..3u64 {
            for mut adversary in adversaries(seed) {
                let setup = ElectionSetup::all_participate(n).with_seed(seed);
                let report = run_leader_election(&setup, adversary.as_mut())
                    .expect("the election terminates");
                assert!(
                    checks::unique_winner(&report),
                    "n={n} seed={seed} adversary={}",
                    adversary.name()
                );
                assert!(checks::someone_won(&report));
                assert!(checks::linearizable_test_and_set(&report));
                assert_eq!(report.outcomes.len(), n, "every participant returns");
            }
        }
    }
}

#[test]
fn election_is_adaptive_to_low_contention() {
    // With a single participant in a large system the winner finishes after a
    // constant number of communicate calls, regardless of n (Theorem A.5's
    // adaptivity in k).
    for n in [16usize, 64, 128] {
        let setup = ElectionSetup::first_k_participate(n, 1).with_seed(1);
        let report = run_leader_election(&setup, &mut RandomAdversary::with_seed(1))
            .expect("the election terminates");
        assert_eq!(report.outcome(ProcId(0)), Some(Outcome::Win));
        assert!(
            report.max_communicate_calls() <= 12,
            "a lone participant should finish in O(1) calls, took {}",
            report.max_communicate_calls()
        );
    }
}

#[test]
fn election_message_complexity_scales_with_participants_not_system_size() {
    // O(kn): doubling k at fixed n should roughly double the message count,
    // and small k at large n must cost far less than k = n.
    let n = 48;
    let messages_for = |k: usize| {
        let trials = 3u64;
        let total: u64 = (0..trials)
            .map(|seed| {
                let setup = ElectionSetup::first_k_participate(n, k).with_seed(seed);
                run_leader_election(&setup, &mut RandomAdversary::with_seed(seed))
                    .expect("terminates")
                    .total_messages()
            })
            .sum();
        total as f64 / trials as f64
    };
    let m2 = messages_for(2);
    let m48 = messages_for(48);
    assert!(
        m48 > 4.0 * m2,
        "full contention ({m48}) must cost much more than 2 participants ({m2})"
    );
    // With k = 2 the cost is O(2·n) plus constants — far below the O(n·n) of
    // full contention (the constant per communicate call is ~n messages and a
    // participant performs a couple dozen calls).
    assert!(
        m2 < m48 / 6.0,
        "two participants ({m2}) should cost a small fraction of full contention ({m48})"
    );
}

#[test]
fn election_survives_maximal_crash_burst() {
    // Crash ⌈n/2⌉-1 participants early; every correct participant must still
    // return, with at most one winner and a linearizable history.
    for n in [5usize, 9, 12] {
        for seed in 0..3u64 {
            let budget = n.div_ceil(2) - 1;
            let mut plan = CrashPlan::none();
            for (index, victim) in (0..budget).enumerate() {
                plan = plan.and_then(index as u64 * 20, ProcId(n - 1 - victim));
            }
            let mut adversary = CrashingAdversary::new(RandomAdversary::with_seed(seed), plan);
            let setup = ElectionSetup::all_participate(n).with_seed(seed);
            let report =
                run_leader_election(&setup, &mut adversary).expect("the election terminates");
            let participants: Vec<ProcId> = (0..n).map(ProcId).collect();
            assert!(checks::all_correct_returned(&report, &participants));
            assert!(checks::unique_winner(&report));
            assert!(checks::linearizable_test_and_set(&report));
            assert_eq!(report.crashed.len(), budget);
        }
    }
}

#[test]
fn late_arrivals_lose_once_the_door_is_closed() {
    // The sequential adversary runs processor 0 to completion first; the
    // doorway then forces every later arrival to lose, giving a linearizable
    // order with the early processor as the winner.
    let setup = ElectionSetup::all_participate(6).with_seed(4);
    let report = run_leader_election(&setup, &mut SequentialAdversary::new())
        .expect("the election terminates");
    assert_eq!(report.outcome(ProcId(0)), Some(Outcome::Win));
    for i in 1..6 {
        assert_eq!(report.outcome(ProcId(i)), Some(Outcome::Lose));
    }
}

#[test]
fn simulated_and_shared_register_backends_agree_on_correctness() {
    // Same protocol code, two substrates: the simulated message-passing
    // system and the shared registers the service runs on. Both elect
    // exactly one leader.
    let sim_report = run_leader_election(
        &ElectionSetup::all_participate(6).with_seed(9),
        &mut RandomAdversary::with_seed(9),
    )
    .expect("sim election terminates");
    assert_eq!(sim_report.winners().len(), 1);

    let registers = std::sync::Arc::new(SharedRegisters::new(1));
    let inline_report = run_inline(
        &registers,
        0,
        9,
        election_participants(6),
        &FaultPlan::default(),
        &CancelToken::none(),
    )
    .expect("an uncancelled inline election completes");
    assert_eq!(inline_report.winners().len(), 1);
    assert_eq!(inline_report.outcomes.len(), 6);
}

#[test]
fn tournament_baseline_is_correct_but_slower() {
    let n = 32;
    let config = TournamentConfig::new(n);
    let mut sim = Simulator::new(SimConfig::new(n).with_seed(3));
    for i in 0..n {
        sim.add_participant(ProcId(i), Box::new(TournamentTas::new(ProcId(i), config)));
    }
    let tournament = sim
        .run(&mut RandomAdversary::with_seed(3))
        .expect("the tournament terminates");
    assert!(checks::unique_winner(&tournament));
    assert!(checks::someone_won(&tournament));

    let ours = run_leader_election(
        &ElectionSetup::all_participate(n).with_seed(3),
        &mut RandomAdversary::with_seed(3),
    )
    .expect("the election terminates");

    assert!(
        tournament.max_communicate_calls() > ours.max_communicate_calls(),
        "at n={n} the tournament ({}) should already be slower than the paper's election ({})",
        tournament.max_communicate_calls(),
        ours.max_communicate_calls()
    );
}
