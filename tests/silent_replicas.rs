//! Fault tolerance of the quorum emulation: elections and renamings finish
//! while fewer than half of the replicas stay silent (`t < n/2`, the paper's
//! fault model), and the simulator refuses to silence more.
//!
//! A silent replica is a processor that takes no part in the protocol and
//! that [`CrashingAdversary`] crashes at event 0 ([`CrashPlan::immediately`]),
//! so it answers no request. Every test runs the simulator, whose adversary
//! also picks the order of every delivery.

use fast_leader_election::prelude::*;

/// The most replicas the model lets fail: `⌈n/2⌉ − 1`.
fn tolerable(n: usize) -> usize {
    n.div_ceil(2) - 1
}

/// The top `count` ids of an `n`-processor system.
fn top_ids(n: usize, count: usize) -> Vec<ProcId> {
    (n - count..n).map(ProcId).collect()
}

#[test]
fn election_finishes_with_a_maximal_silent_minority() {
    for n in [3usize, 4, 5, 7] {
        let silent = top_ids(n, tolerable(n));
        let k = n - silent.len();
        for seed in 0..3u64 {
            let setup = ElectionSetup::first_k_participate(n, k).with_seed(seed);
            let mut adversary = CrashingAdversary::new(
                RandomAdversary::with_seed(seed),
                CrashPlan::immediately(silent.clone()),
            );
            let report =
                run_leader_election(&setup, &mut adversary).expect("the election terminates");
            assert_eq!(
                report.crashed, silent,
                "n={n} seed={seed}: every planned crash"
            );
            assert_eq!(
                report.winners().len(),
                1,
                "n={n} seed={seed}: exactly one winner"
            );
            assert_eq!(
                report.outcomes.len(),
                k,
                "n={n} seed={seed}: every elector returns"
            );
            assert!(report
                .outcomes
                .values()
                .all(|o| matches!(o, Outcome::Win | Outcome::Lose)));
        }
    }
}

#[test]
fn renaming_finishes_with_a_silent_replica() {
    let n = 5;
    let silent = vec![ProcId(4)];
    for seed in 0..3u64 {
        let setup = RenamingSetup {
            participants: (0..4).map(ProcId).collect(),
            ..RenamingSetup::all_participate(n)
        }
        .with_seed(seed);
        let mut adversary = CrashingAdversary::new(
            RandomAdversary::with_seed(seed),
            CrashPlan::immediately(silent.clone()),
        );
        let report = run_renaming(&setup, &mut adversary).expect("the renaming terminates");
        assert_eq!(report.crashed, silent, "seed={seed}");
        assert!(
            checks::valid_partial_renaming(&report, n),
            "seed={seed}: names {:?}",
            report.names()
        );
        assert_eq!(
            report.names().len(),
            4,
            "seed={seed}: every live participant gets a name"
        );
    }
}

#[test]
fn election_finishes_while_p0_is_silent() {
    let n = 5;
    for seed in 0..3u64 {
        let setup = ElectionSetup {
            participants: (1..n).map(ProcId).collect(),
            ..ElectionSetup::all_participate(n)
        }
        .with_seed(seed);
        let mut adversary = CrashingAdversary::new(
            RandomAdversary::with_seed(seed),
            CrashPlan::immediately([ProcId(0)]),
        );
        let report = run_leader_election(&setup, &mut adversary).expect("the election terminates");
        assert_eq!(report.crashed, vec![ProcId(0)], "seed={seed}");
        assert_eq!(report.winners().len(), 1, "seed={seed}");
        assert_eq!(report.outcomes.len(), n - 1, "seed={seed}");
    }
}

#[test]
fn a_silent_majority_is_cut_to_the_crash_budget() {
    for n in [2usize, 4, 5] {
        // Asking for a budget of n still leaves at most ⌈n/2⌉ − 1 crashes,
        // so the survivors still form a quorum, and any two quorums meet.
        let config = SimConfig::new(n).with_crash_budget(n);
        assert_eq!(config.crash_budget, tolerable(n), "n={n}");
        assert_eq!(config.crash_budget + config.quorum(), n, "n={n}");
        assert!(2 * config.quorum() > n, "n={n}");

        // A plan that silences ⌈n/2⌉ replicas crashes only the first
        // ⌈n/2⌉ − 1 of them, so quorums still form and the election ends.
        let silent = top_ids(n, n.div_ceil(2));
        let k = n - silent.len();
        for seed in 0..3u64 {
            let mut sim = Simulator::new(config.clone().with_seed(seed));
            for i in 0..k {
                sim.add_participant(ProcId(i), Box::new(LeaderElection::new(ProcId(i))));
            }
            let mut adversary = CrashingAdversary::new(
                RandomAdversary::with_seed(seed),
                CrashPlan::immediately(silent.clone()),
            );
            let report = sim.run(&mut adversary).expect("the election terminates");
            assert_eq!(
                report.crashed,
                silent[..tolerable(n)],
                "n={n} seed={seed}: the crash budget stops the plan"
            );
            assert_eq!(report.winners().len(), 1, "n={n} seed={seed}");
            assert_eq!(report.outcomes.len(), k, "n={n} seed={seed}");
        }
    }
}
