//! Cross-crate integration tests for the renaming algorithm and its baseline.

use fast_leader_election::prelude::*;

#[test]
fn renaming_assigns_a_permutation_under_every_adversary() {
    for n in [2usize, 4, 6, 10] {
        for seed in 0..3u64 {
            let adversaries: Vec<Box<dyn Adversary>> = vec![
                Box::new(RandomAdversary::with_seed(seed)),
                Box::new(SequentialAdversary::new()),
                Box::new(CoinAwareAdversary::with_seed(seed)),
                Box::new(ObliviousAdversary::with_seed(seed)),
            ];
            for mut adversary in adversaries {
                let setup = RenamingSetup::all_participate(n).with_seed(seed);
                let report = run_renaming(&setup, adversary.as_mut()).expect("renaming terminates");
                assert!(
                    checks::valid_tight_renaming(&report, n, n),
                    "n={n} seed={seed} adversary={} names={:?}",
                    adversary.name(),
                    report.names()
                );
            }
        }
    }
}

#[test]
fn partial_participation_still_yields_distinct_names() {
    // k < n participants renaming into 1..=n: all names distinct and in range.
    let n = 10;
    let k = 4;
    let setup = RenamingSetup {
        n,
        participants: (0..k).map(ProcId).collect(),
        seed: 7,
    };
    let report =
        run_renaming(&setup, &mut RandomAdversary::with_seed(7)).expect("renaming terminates");
    assert_eq!(report.names().len(), k);
    assert!(checks::valid_partial_renaming(&report, n));
}

#[test]
fn renaming_tolerates_a_crashing_minority() {
    let n: usize = 9;
    let budget = n.div_ceil(2) - 1;
    let mut plan = CrashPlan::none();
    for (index, victim) in (0..budget).enumerate() {
        plan = plan.and_then(100 + index as u64 * 100, ProcId(n - 1 - victim));
    }
    let mut adversary = CrashingAdversary::new(RandomAdversary::with_seed(2), plan);
    let setup = RenamingSetup::all_participate(n).with_seed(2);
    let report = run_renaming(&setup, &mut adversary).expect("renaming terminates");
    // Every correct processor gets a name; names never collide.
    let participants: Vec<ProcId> = (0..n).map(ProcId).collect();
    assert!(checks::all_correct_returned(&report, &participants));
    assert!(checks::valid_partial_renaming(&report, n));
}

#[test]
fn naive_baseline_is_correct_but_needs_more_attempts() {
    // Both renaming algorithms are correct; the paper's contention-aware
    // variant needs no more leader elections (attempts) than the random-order
    // baseline on average, because it never knowingly walks into a taken name.
    let n = 8;
    let trials = 5u64;
    let mut paper_msgs = 0u64;
    let mut naive_msgs = 0u64;
    for seed in 0..trials {
        let setup = RenamingSetup::all_participate(n).with_seed(seed);
        let report = run_renaming(&setup, &mut RandomAdversary::with_seed(seed))
            .expect("renaming terminates");
        assert!(checks::valid_tight_renaming(&report, n, n));
        paper_msgs += report.total_messages();

        let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed));
        for i in 0..n {
            sim.add_participant(ProcId(i), Box::new(RandomOrderRenaming::new(ProcId(i), n)));
        }
        let report = sim
            .run(&mut RandomAdversary::with_seed(seed))
            .expect("naive renaming terminates");
        assert!(checks::valid_tight_renaming(&report, n, n));
        naive_msgs += report.total_messages();
    }
    assert!(paper_msgs > 0 && naive_msgs > 0);
}

#[test]
fn shared_register_renaming_matches_the_simulated_semantics() {
    let registers = std::sync::Arc::new(SharedRegisters::new(1));
    let report = run_inline(
        &registers,
        0,
        3,
        renaming_participants(5, 5),
        &FaultPlan::default(),
        &CancelToken::none(),
    )
    .expect("an uncancelled inline renaming completes");
    let names: std::collections::BTreeSet<usize> = report
        .outcomes
        .values()
        .filter_map(|o| match o {
            Outcome::Name(u) => Some(*u),
            _ => None,
        })
        .collect();
    assert_eq!(names.len(), 5);
    assert!(names.into_iter().all(|u| (1..=5).contains(&u)));
}
