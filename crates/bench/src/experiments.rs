//! The experiment implementations (E1–E8 of DESIGN.md).

use crate::batch::BatchRunner;
use crate::json::{Document, Section};
use fle_analysis::{theory, Summary, Table};
use fle_baselines::{RandomOrderRenaming, TournamentConfig, TournamentTas};
use fle_core::checks;
use fle_core::harness::{
    run_heterogeneous_poison_pill, run_leader_election, run_poison_pill, run_renaming,
    ElectionSetup, RenamingSetup, SiftSetup,
};
use fle_model::ProcId;
use fle_sim::{
    Adversary, CoinAwareAdversary, CrashPlan, CrashingAdversary, ObliviousAdversary,
    RandomAdversary, SequentialAdversary, SimConfig, Simulator,
};

/// The adversary strategies the experiments sweep over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Uniformly random scheduling (fair baseline).
    Random,
    /// The weak/oblivious adversary of AA11/GW12a.
    Oblivious,
    /// Run participants one at a time (Section 3.2's worst case for the
    /// fixed-bias PoisonPill).
    Sequential,
    /// Inspect coin flips and prioritise 0-flippers (the strong-adversary
    /// strategy sketched in the introduction).
    CoinAware,
}

impl AdversaryKind {
    /// All strategies, in presentation order.
    pub fn all() -> [AdversaryKind; 4] {
        [
            AdversaryKind::Random,
            AdversaryKind::Oblivious,
            AdversaryKind::Sequential,
            AdversaryKind::CoinAware,
        ]
    }

    /// Instantiate the adversary with the given seed.
    pub fn build(self, seed: u64) -> Box<dyn Adversary> {
        match self {
            AdversaryKind::Random => Box::new(RandomAdversary::with_seed(seed)),
            AdversaryKind::Oblivious => Box::new(ObliviousAdversary::with_seed(seed)),
            AdversaryKind::Sequential => Box::new(SequentialAdversary::new()),
            AdversaryKind::CoinAware => Box::new(CoinAwareAdversary::with_seed(seed)),
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            AdversaryKind::Random => "random",
            AdversaryKind::Oblivious => "oblivious",
            AdversaryKind::Sequential => "sequential",
            AdversaryKind::CoinAware => "coin-aware",
        }
    }
}

fn fmt2(value: f64) -> String {
    format!("{value:.2}")
}

/// E1 — Claims 3.1/3.2 and Section 3.2: survivors of one plain PoisonPill
/// phase (bias `1/√n`) under each adversary, against the `√n` curve.
pub fn e1_poisonpill_survivors(sizes: &[usize], trials: u64) -> Table {
    let runner = BatchRunner::new();
    let mut table = Table::new([
        "n",
        "adversary",
        "mean survivors",
        "max survivors",
        "min survivors",
        "sqrt(n)",
    ]);
    for &n in sizes {
        for adversary in AdversaryKind::all() {
            let samples = runner.map_seeds(trials, |seed| {
                let setup = SiftSetup::all_participate(n).with_seed(seed);
                let report = run_poison_pill(
                    &setup,
                    1.0 / (n as f64).sqrt(),
                    adversary.build(seed).as_mut(),
                )
                .expect("sift terminates");
                assert!(checks::at_least_one_survivor(&report), "Claim 3.1 violated");
                report.survivors().len() as f64
            });
            let summary = Summary::of(samples);
            table.add_row([
                n.to_string(),
                adversary.label().to_string(),
                fmt2(summary.mean()),
                fmt2(summary.max()),
                fmt2(summary.min()),
                fmt2(theory::sqrt_curve(n as u64)),
            ]);
        }
    }
    table
}

/// E2 — Lemmas 3.6/3.7: survivors of one Heterogeneous PoisonPill phase under
/// each adversary, against the `log² n` curve (and `√n` for comparison).
pub fn e2_het_survivors(sizes: &[usize], trials: u64) -> Table {
    let runner = BatchRunner::new();
    let mut table = Table::new([
        "n",
        "adversary",
        "mean survivors",
        "max survivors",
        "log2(n)^2",
        "sqrt(n)",
    ]);
    for &n in sizes {
        for adversary in AdversaryKind::all() {
            let samples = runner.map_seeds(trials, |seed| {
                let setup = SiftSetup::all_participate(n).with_seed(seed);
                let report = run_heterogeneous_poison_pill(&setup, adversary.build(seed).as_mut())
                    .expect("sift terminates");
                assert!(checks::at_least_one_survivor(&report), "Claim 3.1 violated");
                report.survivors().len() as f64
            });
            let summary = Summary::of(samples);
            table.add_row([
                n.to_string(),
                adversary.label().to_string(),
                fmt2(summary.mean()),
                fmt2(summary.max()),
                fmt2(theory::log_squared(n as u64)),
                fmt2(theory::sqrt_curve(n as u64)),
            ]);
        }
    }
    table
}

fn run_tournament_election(
    n: usize,
    k: usize,
    seed: u64,
    adversary: &mut dyn Adversary,
) -> fle_sim::ExecutionReport {
    let config = TournamentConfig::new(n);
    let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed));
    for i in 0..k {
        sim.add_participant(ProcId(i), Box::new(TournamentTas::new(ProcId(i), config)));
    }
    sim.run(adversary).expect("tournament terminates")
}

/// E3 — Theorem A.5 (time): maximum communicate calls of any processor for
/// the paper's election versus the tournament baseline, against `log* k` and
/// `log k`.
pub fn e3_election_time(sizes: &[usize], trials: u64) -> Table {
    let runner = BatchRunner::new();
    let mut table = Table::new([
        "k = n",
        "poisonpill max calls (mean)",
        "tournament max calls (mean)",
        "log*(k)",
        "log2(k)",
    ]);
    for &n in sizes {
        let ours = Summary::of(runner.map_seeds(trials, |seed| {
            let setup = ElectionSetup::all_participate(n).with_seed(seed);
            let report = run_leader_election(&setup, RandomAdversary::with_seed(seed).as_adv())
                .expect("election terminates");
            assert!(checks::unique_winner(&report));
            assert!(checks::someone_won(&report));
            report.max_communicate_calls() as f64
        }));
        let baseline = Summary::of(runner.map_seeds(trials, |seed| {
            let report = run_tournament_election(n, n, seed, &mut RandomAdversary::with_seed(seed));
            assert!(checks::unique_winner(&report));
            report.max_communicate_calls() as f64
        }));
        table.add_row([
            n.to_string(),
            fmt2(ours.mean()),
            fmt2(baseline.mean()),
            theory::log_star(n as u64).to_string(),
            fmt2(theory::log2(n as u64)),
        ]);
    }
    table
}

/// Small extension trait so the drivers read naturally.
trait AsAdv {
    fn as_adv(&mut self) -> &mut dyn Adversary;
}

impl<A: Adversary> AsAdv for A {
    fn as_adv(&mut self) -> &mut dyn Adversary {
        self
    }
}

/// E4 — Theorem A.5 (messages): total messages versus the number of
/// participants `k` at fixed `n`, for the paper's election and the tournament
/// baseline, against the `k·n` curve.
pub fn e4_message_complexity(n: usize, ks: &[usize], trials: u64) -> Table {
    let runner = BatchRunner::new();
    let mut table = Table::new([
        "n",
        "k",
        "poisonpill messages (mean)",
        "tournament messages (mean)",
        "k*n",
    ]);
    for &k in ks {
        let ours = Summary::of(runner.map_seeds(trials, |seed| {
            let setup = ElectionSetup::first_k_participate(n, k).with_seed(seed);
            let report = run_leader_election(&setup, RandomAdversary::with_seed(seed).as_adv())
                .expect("election terminates");
            report.total_messages() as f64
        }));
        let baseline = Summary::of(runner.map_seeds(trials, |seed| {
            let report = run_tournament_election(n, k, seed, &mut RandomAdversary::with_seed(seed));
            report.total_messages() as f64
        }));
        table.add_row([
            n.to_string(),
            k.to_string(),
            fmt2(ours.mean()),
            fmt2(baseline.mean()),
            fmt2(theory::kn_curve(k as u64, n as u64)),
        ]);
    }
    table
}

/// E5 — Theorem A.5 (fault tolerance + linearizability): inject
/// `⌈n/2⌉ − 1` crashes at adversarial points and check that every correct
/// participant still returns, at most one wins, and the execution is
/// linearizable.
pub fn e5_fault_tolerance(sizes: &[usize], trials: u64) -> Table {
    let mut table = Table::new([
        "n",
        "crashes",
        "trials",
        "correct terminated",
        "unique winner",
        "linearizable",
    ]);
    let runner = BatchRunner::new();
    for &n in sizes {
        let budget = n.div_ceil(2).saturating_sub(1);
        let verdicts = runner.map_seeds(trials, |seed| {
            // Crash the top `budget` processors at staggered points.
            let mut plan = CrashPlan::none();
            for (index, victim) in (n - budget..n).enumerate() {
                plan = plan.and_then((index as u64 + 1) * 50, ProcId(victim));
            }
            let mut adversary = CrashingAdversary::new(RandomAdversary::with_seed(seed), plan);
            let setup = ElectionSetup::all_participate(n).with_seed(seed);
            let report = run_leader_election(&setup, &mut adversary).expect("election terminates");
            let participants: Vec<ProcId> = (0..n).map(ProcId).collect();
            (
                checks::all_correct_returned(&report, &participants),
                checks::unique_winner(&report),
                checks::linearizable_test_and_set(&report),
            )
        });
        let terminated = verdicts.iter().filter(|v| v.0).count() as u64;
        let unique = verdicts.iter().filter(|v| v.1).count() as u64;
        let linearizable = verdicts.iter().filter(|v| v.2).count() as u64;
        table.add_row([
            n.to_string(),
            budget.to_string(),
            trials.to_string(),
            format!("{terminated}/{trials}"),
            format!("{unique}/{trials}"),
            format!("{linearizable}/{trials}"),
        ]);
    }
    table
}

/// E6 — Theorems 4.2 and A.13: renaming time (max communicate calls) and
/// messages for the paper's algorithm versus the random-order baseline,
/// against `log² n` and `n` curves for time and `n²` for messages.
pub fn e6_renaming(sizes: &[usize], trials: u64) -> Table {
    let mut table = Table::new([
        "n",
        "paper max calls",
        "naive max calls",
        "paper messages",
        "naive messages",
        "log2(n)^2",
        "n^2",
    ]);
    let runner = BatchRunner::new();
    for &n in sizes {
        let samples = runner.map_seeds(trials, |seed| {
            // The sequential schedule is where the baselines differ most: a
            // late processor that ignores contention information has to try
            // Ω(n) names, while the paper's algorithm only picks among names
            // it has verified to be free.
            let setup = RenamingSetup::all_participate(n).with_seed(seed);
            let report = run_renaming(&setup, SequentialAdversary::new().as_adv())
                .expect("renaming terminates");
            assert!(checks::valid_tight_renaming(&report, n, n));
            let ours = (
                report.max_communicate_calls() as f64,
                report.total_messages() as f64,
            );

            let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed));
            for i in 0..n {
                sim.add_participant(ProcId(i), Box::new(RandomOrderRenaming::new(ProcId(i), n)));
            }
            let report = sim
                .run(&mut SequentialAdversary::new())
                .expect("naive renaming terminates");
            assert!(checks::valid_tight_renaming(&report, n, n));
            (
                ours,
                (
                    report.max_communicate_calls() as f64,
                    report.total_messages() as f64,
                ),
            )
        });
        let ours_calls: Vec<f64> = samples.iter().map(|((calls, _), _)| *calls).collect();
        let ours_msgs: Vec<f64> = samples.iter().map(|((_, msgs), _)| *msgs).collect();
        let naive_calls: Vec<f64> = samples.iter().map(|(_, (calls, _))| *calls).collect();
        let naive_msgs: Vec<f64> = samples.iter().map(|(_, (_, msgs))| *msgs).collect();
        table.add_row([
            n.to_string(),
            fmt2(Summary::of(ours_calls).mean()),
            fmt2(Summary::of(naive_calls).mean()),
            fmt2(Summary::of(ours_msgs).mean()),
            fmt2(Summary::of(naive_msgs).mean()),
            fmt2(theory::log_squared(n as u64)),
            fmt2((n * n) as f64),
        ]);
    }
    table
}

/// E7 — Corollary B.3: the measured message complexity of both algorithms
/// sits above the `α·k·n/16` lower bound and within a modest constant of
/// `k·n`.
pub fn e7_lower_bound_check(sizes: &[usize], trials: u64) -> Table {
    let mut table = Table::new([
        "k = n",
        "election messages (mean)",
        "renaming messages (mean)",
        "lower bound kn/16",
        "kn",
    ]);
    let runner = BatchRunner::new();
    for &n in sizes {
        let election = Summary::of(runner.map_seeds(trials, |seed| {
            let setup = ElectionSetup::all_participate(n).with_seed(seed);
            run_leader_election(&setup, RandomAdversary::with_seed(seed).as_adv())
                .expect("election terminates")
                .total_messages() as f64
        }));
        let renaming = Summary::of(runner.map_seeds(trials, |seed| {
            let setup = RenamingSetup::all_participate(n).with_seed(seed);
            run_renaming(&setup, RandomAdversary::with_seed(seed).as_adv())
                .expect("renaming terminates")
                .total_messages() as f64
        }));
        table.add_row([
            n.to_string(),
            fmt2(election.mean()),
            fmt2(renaming.mean()),
            fmt2(theory::lower_bound_messages(n as u64, n as u64)),
            fmt2(theory::kn_curve(n as u64, n as u64)),
        ]);
    }
    table
}

/// E8 — the Section 3.2 ablation: survivors of a single sifting phase under
/// the *coin-aware* strong adversary, for fixed biases `1/n^γ` with
/// γ ∈ {0.25, 0.5, 0.75} and for the heterogeneous bias, showing why the
/// heterogeneous rule is needed.
pub fn e8_bias_ablation(sizes: &[usize], trials: u64) -> Table {
    let runner = BatchRunner::new();
    let mut table = Table::new([
        "n",
        "bias",
        "mean survivors (coin-aware)",
        "mean survivors (sequential)",
    ]);
    for &n in sizes {
        let biases: Vec<(String, Option<f64>)> = vec![
            ("1/n^0.25".to_string(), Some(1.0 / (n as f64).powf(0.25))),
            ("1/sqrt(n)".to_string(), Some(1.0 / (n as f64).sqrt())),
            ("1/n^0.75".to_string(), Some(1.0 / (n as f64).powf(0.75))),
            ("heterogeneous".to_string(), None),
        ];
        for (label, bias) in biases {
            let survivors_under = |kind: AdversaryKind| {
                Summary::of(runner.map_seeds(trials, |seed| {
                    let setup = SiftSetup::all_participate(n).with_seed(seed);
                    let report = match bias {
                        Some(p) => run_poison_pill(&setup, p, kind.build(seed).as_mut()),
                        None => run_heterogeneous_poison_pill(&setup, kind.build(seed).as_mut()),
                    }
                    .expect("sift terminates");
                    report.survivors().len() as f64
                }))
            };
            let coin_aware = survivors_under(AdversaryKind::CoinAware);
            let sequential = survivors_under(AdversaryKind::Sequential);
            table.add_row([
                n.to_string(),
                label,
                fmt2(coin_aware.mean()),
                fmt2(sequential.mean()),
            ]);
        }
    }
    table
}

/// Print an experiment's table and write it as the `results` section of
/// `BENCH_<experiment>.json` in the current directory.
pub fn report(experiment: &str, title: &str, table: Table) {
    println!("{}", table.render());
    let document = Document::new(experiment).with_section("results", Section::new(title, table));
    document.write(std::path::Path::new(&format!("BENCH_{experiment}.json")));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversary_kinds_build_and_label() {
        for kind in AdversaryKind::all() {
            let mut adversary = kind.build(3);
            assert!(!adversary.name().is_empty());
            assert!(!kind.label().is_empty());
            let _ = &mut adversary;
        }
    }

    #[test]
    fn small_experiment_tables_have_expected_shape() {
        let t1 = e1_poisonpill_survivors(&[4], 2);
        assert_eq!(t1.len(), AdversaryKind::all().len());

        let t3 = e3_election_time(&[4], 1);
        assert_eq!(t3.len(), 1);

        let t5 = e5_fault_tolerance(&[5], 2);
        assert_eq!(t5.len(), 1);
        assert!(t5.render().contains("2/2"));

        let t8 = e8_bias_ablation(&[4], 1);
        assert_eq!(t8.len(), 4);
    }
}
