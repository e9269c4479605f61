//! Property-based tests (proptest): the paper's invariants must hold for
//! arbitrary system sizes, participant subsets, seeds, adversaries and crash
//! patterns.
//!
//! # Reproducing failures from CI output
//!
//! Every case derives from a logged **master seed**: each iteration prints
//! `proptest <test>: case <i> of <n> (master seed <m> — rerun with
//! PROPTEST_MASTER_SEED=<m>)` to captured stdout, which the test harness
//! replays on failure. To reproduce a CI failure locally, run the named test
//! with `PROPTEST_MASTER_SEED=<m>` — the identical case sequence (and thus
//! the identical failing inputs) is re-derived deterministically; no
//! machine-local state is involved. The default master seed is 0, so plain
//! `cargo test` runs are stable from commit to commit.

use fast_leader_election::prelude::*;
use proptest::prelude::*;

/// Build one of the four adversary families from a small index.
fn adversary_from(kind: u8, seed: u64) -> Box<dyn Adversary> {
    match kind % 4 {
        0 => Box::new(RandomAdversary::with_seed(seed)),
        1 => Box::new(ObliviousAdversary::with_seed(seed)),
        2 => Box::new(SequentialAdversary::new()),
        _ => Box::new(CoinAwareAdversary::with_seed(seed)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Leader election: unique winner, someone wins, everyone returns, the
    /// history is linearizable — for arbitrary n, k, seed and adversary.
    #[test]
    fn election_invariants_hold(
        n in 2usize..12,
        extra in 0usize..4,
        seed in 0u64..1_000,
        kind in 0u8..4,
    ) {
        let system = n + extra;
        let setup = ElectionSetup::first_k_participate(system, n).with_seed(seed);
        let mut adversary = adversary_from(kind, seed);
        let report = run_leader_election(&setup, adversary.as_mut()).expect("terminates");
        prop_assert!(checks::unique_winner(&report));
        prop_assert!(checks::someone_won(&report));
        prop_assert!(checks::linearizable_test_and_set(&report));
        prop_assert_eq!(report.outcomes.len(), n);
    }

    /// A single sifting phase never eliminates everyone (Claim 3.1), under
    /// either sifter and any adversary.
    #[test]
    fn sifting_always_keeps_a_survivor(
        n in 1usize..14,
        seed in 0u64..1_000,
        kind in 0u8..4,
        heterogeneous in proptest::bool::ANY,
    ) {
        let setup = SiftSetup::all_participate(n).with_seed(seed);
        let mut adversary = adversary_from(kind, seed);
        let report = if heterogeneous {
            run_heterogeneous_poison_pill(&setup, adversary.as_mut())
        } else {
            run_poison_pill(&setup, 1.0 / (n as f64).sqrt(), adversary.as_mut())
        }.expect("terminates");
        prop_assert!(checks::at_least_one_survivor(&report));
        prop_assert_eq!(report.outcomes.len(), n);
    }

    /// Renaming always produces a set of distinct names inside 1..=n.
    #[test]
    fn renaming_names_form_a_partial_permutation(
        n in 2usize..8,
        k_fraction in 1usize..4,
        seed in 0u64..1_000,
        kind in 0u8..4,
    ) {
        let k = (n * k_fraction / 3).clamp(1, n);
        let setup = RenamingSetup {
            n,
            participants: (0..k).map(ProcId).collect(),
            seed,
        };
        let mut adversary = adversary_from(kind, seed);
        let report = run_renaming(&setup, adversary.as_mut()).expect("terminates");
        prop_assert_eq!(report.names().len(), k);
        prop_assert!(checks::valid_partial_renaming(&report, n));
    }

    /// Crashing any minority at any single point never breaks uniqueness,
    /// termination of correct processors, or linearizability.
    #[test]
    fn crashes_never_break_safety(
        n in 3usize..10,
        seed in 0u64..1_000,
        crash_at in 0u64..400,
    ) {
        let budget = n.div_ceil(2) - 1;
        let victims: Vec<ProcId> = (0..budget).map(|i| ProcId(n - 1 - i)).collect();
        let mut plan = CrashPlan::none();
        for victim in victims {
            plan = plan.and_then(crash_at, victim);
        }
        let mut adversary = CrashingAdversary::new(RandomAdversary::with_seed(seed), plan);
        let setup = ElectionSetup::all_participate(n).with_seed(seed);
        let report = run_leader_election(&setup, &mut adversary).expect("terminates");
        let participants: Vec<ProcId> = (0..n).map(ProcId).collect();
        prop_assert!(checks::unique_winner(&report));
        prop_assert!(checks::all_correct_returned(&report, &participants));
        prop_assert!(checks::linearizable_test_and_set(&report));
    }

    /// The simulator is deterministic: identical seeds and adversaries give
    /// identical traces, outcomes and message counts.
    #[test]
    fn executions_are_reproducible(
        n in 2usize..8,
        seed in 0u64..1_000,
    ) {
        let run = || {
            let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed).with_trace());
            for i in 0..n {
                sim.add_participant(ProcId(i), Box::new(LeaderElection::new(ProcId(i))));
            }
            sim.run(&mut RandomAdversary::with_seed(seed ^ 0xabcd)).expect("terminates")
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.trace.digest(), b.trace.digest());
        prop_assert_eq!(a.total_messages(), b.total_messages());
        prop_assert_eq!(a.winners(), b.winners());
    }

    /// Message complexity never undercuts the Ω(kn/16) lower bound of
    /// Corollary B.3 (for k ≥ 2; a lone participant talks to a quorum too,
    /// but the bound is trivial there).
    #[test]
    fn message_lower_bound_is_respected(
        n in 3usize..12,
        seed in 0u64..1_000,
    ) {
        let setup = ElectionSetup::all_participate(n).with_seed(seed);
        let report = run_leader_election(&setup, &mut RandomAdversary::with_seed(seed))
            .expect("terminates");
        let lower = (n * n) as f64 / 16.0;
        prop_assert!(
            report.total_messages() as f64 >= lower,
            "measured {} messages under the kn/16 = {lower} bound",
            report.total_messages()
        );
    }
}
