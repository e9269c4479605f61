//! Head-to-head: the paper's O(log* k) election against the classic
//! Θ(log n) tournament-tree test-and-set of Afek et al. (AGTV92).
//!
//! Run with `cargo run --release --example tournament_vs_poisonpill`. It
//! asserts what it prints: from n = 8 on the tournament's mean is the higher
//! one, and it grows more from n = 4 to n = 64 than the election's does.

use fast_leader_election::prelude::*;

fn tournament_run(n: usize, seed: u64) -> ExecutionReport {
    let config = TournamentConfig::new(n);
    let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed));
    for i in 0..n {
        sim.add_participant(ProcId(i), Box::new(TournamentTas::new(ProcId(i), config)));
    }
    sim.run(&mut RandomAdversary::with_seed(seed))
        .expect("the tournament terminates")
}

fn poisonpill_run(n: usize, seed: u64) -> ExecutionReport {
    let setup = ElectionSetup::all_participate(n).with_seed(seed);
    run_leader_election(&setup, &mut RandomAdversary::with_seed(seed))
        .expect("the election terminates")
}

fn main() {
    let trials = 5u64;
    println!("maximum communicate calls by any processor (average over {trials} trials)\n");
    println!(
        "{:>6}  {:>18}  {:>18}  {:>9}  {:>9}",
        "n", "PoisonPill electn", "tournament tree", "log*(n)", "log2(n)"
    );
    let mut means = Vec::new();
    for n in [4usize, 8, 16, 32, 64] {
        let ours: u64 = (0..trials)
            .map(|s| poisonpill_run(n, s).max_communicate_calls())
            .sum();
        let tournament: u64 = (0..trials)
            .map(|s| tournament_run(n, s).max_communicate_calls())
            .sum();
        let (ours, tournament) = (
            ours as f64 / trials as f64,
            tournament as f64 / trials as f64,
        );
        println!(
            "{:>6}  {:>18.1}  {:>18.1}  {:>9}  {:>9.1}",
            n,
            ours,
            tournament,
            log_star(n as u64),
            (n as f64).log2()
        );
        if n >= 8 {
            assert!(
                tournament > ours,
                "n={n}: the tournament ({tournament:.1}) must need more calls than the election ({ours:.1})"
            );
        }
        means.push((ours, tournament));
    }
    let (first, last) = (means[0], means[means.len() - 1]);
    let (ours_growth, tournament_growth) = (last.0 / first.0, last.1 / first.1);
    assert!(
        tournament_growth > ours_growth,
        "from n=4 to n=64 the tournament grew {tournament_growth:.1}x, the election {ours_growth:.1}x"
    );
    println!(
        "\nFrom n = 4 to n = 64 the tournament column grows {tournament_growth:.1}x, with \
         log2(n)\n(one match per tree level); the PoisonPill column grows {ours_growth:.1}x, \
         much more slowly,\nas Theorem A.5 predicts."
    );
}
