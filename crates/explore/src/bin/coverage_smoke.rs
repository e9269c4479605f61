//! CI smoke for the coverage-guided schedule search.
//!
//! Three layers, sized to finish in well under a minute:
//!
//! 1. **Healthy scenarios** at n ∈ {4, 8}: a seeded + mutation coverage hunt
//!    finds zero violations, the coverage growth curve is monotone, and the
//!    corpus retains at least one interesting trace per scenario.
//! 2. **Sabotage mutants** (the DropWrites election and the PoisonPill
//!    sifter): [`compare_kill_time`] runs the blind strategy grid and the
//!    guided hunt over the same seeds and budget; the guided hunt must kill
//!    both mutants within 2× the blind episode count (median over master
//!    seeds).
//! 3. A `BENCH_coverage.json` document with the growth curves and the
//!    kill-time table, for `EXPERIMENTS.md`.
//!
//! Exit code 0 = all gates pass; 1 otherwise.

use fle_analysis::Table;
use fle_bench::json::{Document, Section};
use fle_explore::sabotage::{SabotagedElectionScenario, SabotagedSiftScenario};
use fle_explore::{
    compare_kill_time, standard_scenarios, CoverageConfig, CoverageExplorer, ExploreBackend,
    Scenario,
};

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Median of a non-empty sorted-on-demand sample.
fn median(values: &mut [usize]) -> usize {
    values.sort_unstable();
    values[values.len() / 2]
}

fn main() {
    let mut failures = 0usize;
    let threads = threads();

    println!("== coverage-smoke: healthy scenarios (clean, monotone growth) ==");
    let mut growth_table = Table::new(["scenario", "episodes", "distinct_features"]);
    for scenario in standard_scenarios(&[4, 8]) {
        let report = CoverageExplorer::new(scenario.as_ref())
            .with_config(CoverageConfig {
                budget: 48,
                batch: 12,
                sim_seeds: (0..4).collect(),
                ..CoverageConfig::default()
            })
            .with_threads(threads)
            .explore();
        let clean = report.violations.is_empty();
        let monotone = report.growth_is_monotone();
        let covered = report.distinct_features() > 0 && !report.corpus.is_empty();
        let status = if clean && monotone && covered {
            "ok"
        } else {
            failures += 1;
            "FAILED"
        };
        println!(
            "  {:<40} {:>3} episodes  {:>4} features  {:>2} corpus  {status}",
            scenario.name(),
            report.episodes,
            report.distinct_features(),
            report.corpus.len()
        );
        if !clean {
            println!(
                "    !! healthy scenario flagged: {:?}",
                report.violations[0].violation
            );
        }
        if !monotone {
            println!("    !! growth curve is not monotone: {:?}", report.growth);
        }
        for (episodes, features) in &report.growth {
            growth_table.add_row([
                scenario.name().to_string(),
                episodes.to_string(),
                features.to_string(),
            ]);
        }
    }

    println!("== coverage-smoke: mutation-kill time, guided vs blind ==");
    let mut kill_table = Table::new([
        "mutant",
        "master_seed",
        "blind_kill",
        "guided_kill",
        "budget",
    ]);
    let election = SabotagedElectionScenario { n: 4, k: 4 };
    let sift = SabotagedSiftScenario { n: 4, bias: 0.1 };
    let mutants: [(&dyn Scenario, &str); 2] = [(&election, "drop-writes"), (&sift, "poison-pill")];
    for (scenario, label) in mutants {
        let mut guided_kills = Vec::new();
        let mut blind = 0;
        let mut worst_ratio_ok = true;
        for master_seed in 0..5u64 {
            let config = CoverageConfig {
                budget: 160,
                batch: 16,
                master_seed,
                sim_seeds: (0..8).collect(),
                stop_on_violation: true,
                ..CoverageConfig::default()
            };
            let cmp = compare_kill_time(scenario, ExploreBackend::Sim, &config, threads);
            println!(
                "  {:<24} master_seed={master_seed}  blind={:?}  guided={:?}",
                scenario.name(),
                cmp.blind,
                cmp.guided
            );
            kill_table.add_row([
                label.to_string(),
                master_seed.to_string(),
                cmp.blind.map_or("miss".to_string(), |e| e.to_string()),
                cmp.guided.map_or("miss".to_string(), |e| e.to_string()),
                cmp.budget.to_string(),
            ]);
            worst_ratio_ok &= cmp.guided_within(2);
            // A blind miss counts as the whole budget.
            blind = cmp.blind.unwrap_or(cmp.budget);
            match cmp.guided {
                Some(episode) => guided_kills.push(episode),
                None => {
                    failures += 1;
                    println!("    !! guided hunt missed the {label} mutant");
                }
            }
        }
        if guided_kills.len() == 5 {
            let guided_median = median(&mut guided_kills);
            // The acceptance gate: guided median no worse than the blind
            // grid (which is deterministic, so a single number), and every
            // individual run within the 2x CI bound.
            let status = if guided_median <= 2 * blind && worst_ratio_ok {
                "ok"
            } else {
                failures += 1;
                "FAILED"
            };
            println!("  {label:<24} guided median {guided_median} vs blind {blind}  {status}");
        }
    }

    let growth = Section::new(
        "coverage-guided hunts: distinct coverage features after each batch of 12 episodes \
         (budget 48, sim seeds 0..4), per healthy scenario at n in {4, 8}",
        growth_table,
    );
    let kills = Section::new(
        "coverage-guided hunts: the episode at which the blind strategy grid and the guided \
         hunt first kill each sabotage mutant, per master seed (budget 160, batch 16, sim \
         seeds 0..8; miss = not killed within the budget)",
        kill_table,
    );
    Document::new("coverage")
        .with_section("growth", growth)
        .with_section("kills", kills)
        .write(std::path::Path::new("BENCH_coverage.json"));

    if failures > 0 {
        println!("coverage-smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("coverage-smoke: ok");
}
