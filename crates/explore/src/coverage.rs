//! Coverage-guided schedule search: feedback-driven adversarial hunts with a
//! trace corpus and a mutation engine.
//!
//! The blind explorer ([`crate::Explorer`]) sweeps a fixed
//! `strategy × seed` grid; every episode is as likely as the last to probe a
//! behaviour the oracles have already cleared. This module closes the loop
//! the way coverage-guided fuzzers do:
//!
//! 1. **Signal** ([`SignalProbe`]): every episode is observed at each oracle
//!    check point (per event on the simulator, per grant on the gate loop)
//!    and condensed into a set of *feature codes* — per-round sifting-survivor
//!    profiles, phase footprints, outcome multisets and oracle near-miss
//!    buckets — plus an interleaving-class hash over the decision sequence.
//! 2. **Corpus** ([`crate::corpus::Corpus`]): episodes that produced a novel
//!    feature are retained, deduplicated by interleaving class, and persist
//!    through the existing compact trace codec.
//! 3. **Mutation** ([`crate::mutate::MutationEngine`]): retained traces are
//!    truncated, extended, perturbed, spliced and duplicated; the tolerant
//!    replayers guarantee every mutant is a valid schedule on every backend.
//! 4. **Driver** ([`CoverageExplorer`]): seeds the corpus from the strategy
//!    library, then fans mutate→run→evaluate batches across cores with
//!    [`fle_bench::BatchRunner`]. Batches are folded in job order, so a hunt
//!    is a pure function of `(scenario, backend, config)` — independent of
//!    the worker-thread count, like everything else in this crate.
//!
//! [`compare_kill_time`] runs the blind grid and a guided hunt under the
//! same episode budget and reports how many episodes each needed to first
//! kill a mutant — the honesty check behind the numbers in EXPERIMENTS.md.

use crate::corpus::Corpus;
use crate::explorer::{
    run_episode, run_schedule, Episode, EpisodeOutcome, EpisodePlan, ExploreBackend, Explorer,
    Schedule,
};
use crate::mutate::MutationEngine;
use crate::oracles::{OracleCtx, Violation};
use crate::scenario::Scenario;
use crate::strategies::StrategySpec;
use fle_bench::BatchRunner;
use fle_model::{splitmix64, Outcome};
use fle_sim::{Decision, DecisionTrace, ProcessPhase};
use std::borrow::Cow;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Coverage signal
// ---------------------------------------------------------------------------

/// Observes an episode at every oracle check point. The driver threads a
/// probe through each backend's drive loop; [`NullProbe`] keeps the blind
/// paths zero-cost.
pub trait CoverageProbe {
    /// Called with the same [`OracleCtx`] the oracles see.
    fn observe(&mut self, ctx: &OracleCtx<'_>);
}

/// The no-op probe used by every non-coverage code path.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl CoverageProbe for NullProbe {
    fn observe(&mut self, _ctx: &OracleCtx<'_>) {}
}

/// What one episode contributed to coverage: its interleaving class and the
/// feature codes it exhibited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageSignal {
    /// Hash of `(decision sequence, sim_seed)` — the dedup key of the corpus.
    pub class: u64,
    /// Feature codes (tag in the top byte, payload below; see the
    /// `TAG_*` constants).
    pub features: Vec<u64>,
}

/// Feature tag: phase footprint — some processor was observed in a given
/// `(algorithm, phase, round bucket)` local state.
pub const TAG_PHASE: u64 = 1;
/// Feature tag: per-round survivor profile — how many processors ever
/// reached sifting round `r` (count bucketed).
pub const TAG_ROUND_PROFILE: u64 = 2;
/// Feature tag: final outcome multiset — the episode's
/// `(wins, losses, survivors, deaths, names, crashes)` census.
pub const TAG_OUTCOMES: u64 = 3;
/// Feature tag: oracle near-miss — how close `unique-leader` (a winner
/// decided while contenders were still live), `survivor-bound` (survivor
/// count) or the termination budget (event-count magnitude) came to firing.
pub const TAG_NEAR_MISS: u64 = 4;

/// Near-miss oracle codes inside [`TAG_NEAR_MISS`] payloads.
const NEAR_MISS_UNIQUE_LEADER: u64 = 1;
const NEAR_MISS_SURVIVOR_BOUND: u64 = 2;
const NEAR_MISS_TERMINATION: u64 = 3;

fn feature(tag: u64, payload: u64) -> u64 {
    (tag << 56) | (payload & ((1 << 56) - 1))
}

/// Exact for small counts, logarithmic beyond 8 — distinguishes "2 vs 3
/// survivors" (where the paper's bounds live) without exploding the feature
/// space for large systems.
fn bucket(count: usize) -> u64 {
    if count <= 8 {
        count as u64
    } else {
        8 + (usize::BITS - count.leading_zeros()) as u64
    }
}

fn hash_str(text: &str) -> u64 {
    // FNV-1a, folded through splitmix64 for avalanche.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h)
}

/// The interleaving-class hash of a `(trace, sim_seed)` pair: the corpus
/// dedup key. Order-sensitive over the decision sequence, so two schedules
/// that permute the same decisions land in different classes.
pub fn trace_class(trace: &DecisionTrace, sim_seed: u64) -> u64 {
    let mut h = splitmix64(sim_seed ^ 0x7472_6163_655f_636c);
    for decision in trace.decisions() {
        let code = match *decision {
            Decision::Schedule(index) => (index as u64) << 1,
            Decision::Crash(victim) => ((victim.index() as u64) << 1) | 1,
        };
        h = splitmix64(h ^ code);
    }
    h
}

/// Accumulates the coverage signal of one episode.
#[derive(Debug, Default)]
pub struct SignalProbe {
    /// Max sifting round ever observed per processor index.
    rounds: Vec<u64>,
    /// Features earned during the run (phase footprints, near-misses).
    features: BTreeSet<u64>,
    /// Final outcome census `(win, lose, survive, die, proceed, name,
    /// crashed)`, refreshed at every observation.
    census: [usize; 7],
}

impl SignalProbe {
    /// A fresh probe.
    pub fn new() -> Self {
        SignalProbe::default()
    }

    /// Condense the accumulated observations into the episode's signal.
    /// `events` is the episode's final event/grant count (feeds the
    /// termination near-miss bucket).
    pub fn into_signal(self, class: u64, events: u64) -> CoverageSignal {
        let mut features = self.features;
        // Per-round survivor profile: how many processors ever reached round
        // r, for every round anyone reached.
        let max_round = self.rounds.iter().copied().max().unwrap_or(0);
        for round in 1..=max_round.min(255) {
            let reached = self.rounds.iter().filter(|&&r| r >= round).count();
            features.insert(feature(TAG_ROUND_PROFILE, (round << 16) | bucket(reached)));
        }
        // Outcome multiset: one feature for the whole census.
        let mut census_hash = CENSUS_SEED;
        for count in self.census {
            census_hash = splitmix64(census_hash ^ bucket(count));
        }
        features.insert(feature(TAG_OUTCOMES, census_hash >> 8));
        // Termination near-miss: event-count magnitude.
        features.insert(feature(
            TAG_NEAR_MISS,
            (NEAR_MISS_TERMINATION << 16) | (64 - events.leading_zeros() as u64),
        ));
        CoverageSignal {
            class,
            features: features.into_iter().collect(),
        }
    }
}

/// Seed of the outcome-census hash (`b"census"` as an integer).
const CENSUS_SEED: u64 = 0x6365_6e73_7573;

impl CoverageProbe for SignalProbe {
    fn observe(&mut self, ctx: &OracleCtx<'_>) {
        if self.rounds.len() < ctx.observation.n {
            self.rounds.resize(ctx.observation.n, 0);
        }
        let mut live = 0usize;
        for process in &ctx.observation.processes {
            if matches!(process.phase, ProcessPhase::StepReady) {
                live += 1;
            }
            if let Some(state) = &process.local_state {
                let index = process.proc.index();
                if index < self.rounds.len() && state.round > self.rounds[index] {
                    self.rounds[index] = state.round;
                }
                // Phase footprint: which (algorithm, phase, round bucket)
                // local states the schedule ever exposed.
                let payload = splitmix64(
                    hash_str(state.algorithm)
                        ^ hash_str(state.phase).rotate_left(17)
                        ^ bucket(state.round as usize),
                ) >> 8;
                self.features.insert(feature(TAG_PHASE, payload));
            }
        }
        let mut census = [0usize; 7];
        for outcome in ctx.report.outcomes.values() {
            let slot = match outcome {
                Outcome::Win => 0,
                Outcome::Lose => 1,
                Outcome::Survive => 2,
                Outcome::Die => 3,
                Outcome::Proceed => 4,
                Outcome::Name(_) => 5,
            };
            census[slot] += 1;
        }
        census[6] = ctx.report.crashed.len();
        // Unique-leader near-miss: a winner exists while contenders are
        // still live — one more win fires the oracle. Bucket by how many
        // contenders could still deliver it.
        if census[0] >= 1 {
            self.features.insert(feature(
                TAG_NEAR_MISS,
                (NEAR_MISS_UNIQUE_LEADER << 16) | ((census[0] as u64) << 8) | bucket(live),
            ));
        }
        // Survivor-bound near-miss: the survivor count itself (the bound
        // oracle fires when it exceeds the scenario's cap).
        if census[2] >= 1 {
            self.features.insert(feature(
                TAG_NEAR_MISS,
                (NEAR_MISS_SURVIVOR_BOUND << 16) | bucket(census[2]),
            ));
        }
        self.census = census;
    }
}

// ---------------------------------------------------------------------------
// Probed episodes
// ---------------------------------------------------------------------------

/// Run one job — a seeding plan or a mutant trace — on `backend` with a
/// [`SignalProbe`] attached; returns the episode and its coverage signal.
fn run_probed(
    scenario: &dyn Scenario,
    backend: &ExploreBackend,
    job: &Schedule<'_>,
) -> (Episode, CoverageSignal) {
    let mut probe = SignalProbe::new();
    let episode = run_schedule(scenario, job, backend, &mut probe);
    let class = trace_class(&episode.trace, job.sim_seed());
    let signal = probe.into_signal(class, episode.events);
    (episode, signal)
}

// ---------------------------------------------------------------------------
// The coverage-guided driver
// ---------------------------------------------------------------------------

/// Knobs of a coverage-guided hunt.
#[derive(Debug, Clone)]
pub struct CoverageConfig {
    /// Total episode budget (seeding + mutation).
    pub budget: usize,
    /// Episodes per parallel batch (corpus updates fold between batches).
    pub batch: usize,
    /// Seed of the mutation engine and all corpus-sampling choices.
    pub master_seed: u64,
    /// Simulator seeds: seeding sweeps them seed-major; mutant episodes
    /// mostly inherit their base entry's seed and occasionally rotate.
    pub sim_seeds: Vec<u64>,
    /// Strategies that seed the corpus (default: the standard library).
    pub strategies: Vec<StrategySpec>,
    /// Stop launching batches once a violation has been found.
    pub stop_on_violation: bool,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            budget: 192,
            batch: 12,
            master_seed: 0,
            sim_seeds: (0..4).collect(),
            strategies: StrategySpec::library(),
            stop_on_violation: false,
        }
    }
}

/// Where a coverage-hunt violation came from.
#[derive(Debug, Clone)]
pub enum EpisodeOrigin {
    /// A strategy-library seeding episode.
    Seeded(EpisodePlan),
    /// A mutated corpus trace.
    Mutated,
}

/// A violation found by a coverage hunt, replayable from
/// `(scenario, sim_seed, decisions)` alone on the backend that found it.
#[derive(Debug, Clone)]
pub struct CoverageViolation {
    /// Which invariant broke, and when.
    pub violation: Violation,
    /// The executed schedule that broke it.
    pub decisions: DecisionTrace,
    /// The simulator seed of the episode.
    pub sim_seed: u64,
    /// 1-based index of the episode in the hunt's deterministic order.
    pub episode: usize,
    /// Seeded or mutated.
    pub origin: EpisodeOrigin,
}

/// The result of one coverage-guided hunt.
#[derive(Debug, Default)]
pub struct CoverageReport {
    /// Episodes executed (seeding + mutation).
    pub episodes: usize,
    /// Violations in deterministic episode order.
    pub violations: Vec<CoverageViolation>,
    /// The final corpus (retained traces + global coverage map).
    pub corpus: Corpus,
    /// Coverage growth curve: `(episodes so far, distinct features)`
    /// sampled after every batch.
    pub growth: Vec<(usize, usize)>,
    /// 1-based index of the first violating episode, if any.
    pub first_violation_episode: Option<usize>,
}

impl CoverageReport {
    /// Distinct feature codes in the global coverage map.
    pub fn distinct_features(&self) -> usize {
        self.corpus.distinct_features()
    }

    /// Whether the growth curve is monotone non-decreasing (it must be: the
    /// coverage map only ever gains features — this is the CI sanity gate).
    pub fn growth_is_monotone(&self) -> bool {
        self.growth.windows(2).all(|w| w[0].1 <= w[1].1)
    }
}

/// The coverage-guided hunt driver. See the module docs for the loop shape.
pub struct CoverageExplorer<'a> {
    scenario: &'a dyn Scenario,
    backend: ExploreBackend,
    config: CoverageConfig,
    runner: BatchRunner,
}

impl<'a> CoverageExplorer<'a> {
    /// A coverage hunt over `scenario` on the simulator backend with the
    /// default config and one worker per core.
    pub fn new(scenario: &'a dyn Scenario) -> Self {
        CoverageExplorer {
            scenario,
            backend: ExploreBackend::Sim,
            config: CoverageConfig::default(),
            runner: BatchRunner::new(),
        }
    }

    /// Hunt on a different execution substrate.
    #[must_use]
    pub fn with_backend(mut self, backend: ExploreBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replace the hunt config.
    #[must_use]
    pub fn with_config(mut self, config: CoverageConfig) -> Self {
        self.config = config;
        self
    }

    /// Use an explicit worker-thread count (cannot affect the outcome, only
    /// the wall clock).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.runner = BatchRunner::with_threads(threads);
        self
    }

    /// The seeding plans, seed-major (all strategies at `sim_seeds[0]`
    /// first): the corpus earns entries for every simulator seed before
    /// mutation starts, and a kill that needs a later seed is reached after
    /// `seeds × strategies` episodes instead of the blind grid's
    /// strategy-major sweep.
    fn seed_plans(&self) -> Vec<EpisodePlan> {
        let mut plans = Vec::new();
        for &sim_seed in &self.config.sim_seeds {
            for &strategy in &self.config.strategies {
                plans.push(EpisodePlan {
                    strategy,
                    sim_seed,
                    strategy_seed: 0,
                });
            }
        }
        plans
    }

    /// Run the hunt: seed, then mutate→run→evaluate batches until the
    /// budget is spent (or the first violation under `stop_on_violation`).
    /// Deterministic in `(scenario, backend, config)`; thread count and
    /// machine load cannot change the report.
    pub fn explore(&self) -> CoverageReport {
        let scenario = self.scenario;
        let backend = self.backend;
        let config = &self.config;
        let mut corpus = Corpus::new();
        let mut engine = MutationEngine::new(config.master_seed, scenario.n().max(1));
        let mut report = CoverageReport::default();
        let mut pending_seeds = self.seed_plans().into_iter();
        let empty = DecisionTrace::new();

        while report.episodes < config.budget {
            if config.stop_on_violation && report.first_violation_episode.is_some() {
                break;
            }
            // Build the next batch from the current corpus snapshot.
            let mut jobs: Vec<Schedule<'static>> = Vec::new();
            while jobs.len() < config.batch && report.episodes + jobs.len() < config.budget {
                if let Some(plan) = pending_seeds.next() {
                    jobs.push(Schedule::Plan(plan));
                } else if corpus.is_empty() {
                    // Every considered episode earns *some* feature, so this
                    // only happens with an empty strategy list: grow from
                    // nothing.
                    let sim_seed = config
                        .sim_seeds
                        .get(engine.choose(config.sim_seeds.len()))
                        .copied()
                        .unwrap_or(0);
                    jobs.push(Schedule::Replay {
                        trace: Cow::Owned(engine.mutate(&empty, &empty)),
                        sim_seed,
                    });
                } else {
                    let base = &corpus.entries()[engine.choose(corpus.len())];
                    let donor = &corpus.entries()[engine.choose(corpus.len())];
                    let trace = engine.mutate(&base.trace, &donor.trace);
                    // Mostly re-run under the base's own seed (stay in the
                    // behaviour neighbourhood), sometimes rotate to carry a
                    // good schedule shape to a fresh coin stream.
                    let sim_seed = if engine.choose(4) == 0 && !config.sim_seeds.is_empty() {
                        config.sim_seeds[engine.choose(config.sim_seeds.len())]
                    } else {
                        base.sim_seed
                    };
                    jobs.push(Schedule::Replay {
                        trace: Cow::Owned(trace),
                        sim_seed,
                    });
                }
            }
            if jobs.is_empty() {
                break;
            }
            let results = self
                .runner
                .map(&jobs, |job| run_probed(scenario, &backend, job));
            // Fold in job order: the corpus (and therefore the next batch)
            // is independent of which worker finished first.
            for (job, (episode, signal)) in jobs.iter().zip(results) {
                report.episodes += 1;
                let sim_seed = job.sim_seed();
                corpus.consider(&episode.trace, sim_seed, &signal);
                if let Some(violation) = episode.violation {
                    if report.first_violation_episode.is_none() {
                        report.first_violation_episode = Some(report.episodes);
                    }
                    report.violations.push(CoverageViolation {
                        violation,
                        decisions: episode.trace,
                        sim_seed,
                        episode: report.episodes,
                        origin: match job {
                            Schedule::Plan(plan) => EpisodeOrigin::Seeded(*plan),
                            Schedule::Replay { .. } => EpisodeOrigin::Mutated,
                        },
                    });
                }
            }
            report
                .growth
                .push((report.episodes, corpus.distinct_features()));
        }
        report.corpus = corpus;
        report
    }
}

// ---------------------------------------------------------------------------
// Kill-time comparison: blind grid vs. guided hunt
// ---------------------------------------------------------------------------

/// Episodes-to-first-kill of the blind grid and the guided hunt under one
/// shared budget. `None` means the mutant survived the whole budget.
#[derive(Debug, Clone, Copy)]
pub struct KillComparison {
    /// 1-based episode index of the blind grid's first kill.
    pub blind: Option<usize>,
    /// 1-based episode index of the guided hunt's first kill.
    pub guided: Option<usize>,
    /// The shared episode budget.
    pub budget: usize,
}

impl KillComparison {
    /// The CI gate: the guided hunt killed the mutant, no more than
    /// `factor ×` the blind episode count (a blind miss counts as the full
    /// budget).
    pub fn guided_within(&self, factor: usize) -> bool {
        match (self.guided, self.blind) {
            (Some(guided), Some(blind)) => guided <= factor * blind,
            (Some(guided), None) => guided <= factor * self.budget,
            (None, _) => false,
        }
    }
}

/// Run the blind strategy grid and a guided hunt over the same scenario,
/// backend, seeds and budget; report episodes-to-first-kill for both.
///
/// The blind grid is the [`crate::Explorer`] enumeration (strategy-major,
/// then sim seed, then strategy seeds 0..2) truncated to the budget; its
/// kill time is the 1-based grid index of the first violating episode. The
/// guided kill time is [`CoverageReport::first_violation_episode`]. Both
/// sides run the *same* episode primitives, so the comparison is apples to
/// apples.
pub fn compare_kill_time(
    scenario: &dyn Scenario,
    backend: ExploreBackend,
    config: &CoverageConfig,
    threads: usize,
) -> KillComparison {
    // Blind side: the Explorer grid order, evaluated in batches so an early
    // kill does not cost the whole budget.
    let mut plans = Explorer::new(scenario)
        .with_strategies(config.strategies.clone())
        .with_sim_seeds(config.sim_seeds.iter().copied())
        .plans();
    plans.truncate(config.budget);
    let runner = BatchRunner::with_threads(threads);
    let mut blind = None;
    'batches: for (chunk_index, chunk) in plans.chunks(config.batch.max(1)).enumerate() {
        let outcomes = runner.map(chunk, |plan| {
            matches!(
                run_episode(scenario, plan, &backend),
                EpisodeOutcome::Violated(_)
            )
        });
        for (offset, violated) in outcomes.iter().enumerate() {
            if *violated {
                blind = Some(chunk_index * config.batch.max(1) + offset + 1);
                break 'batches;
            }
        }
    }

    // Guided side: the coverage loop with the same budget, stopping at the
    // first kill.
    let mut guided_config = config.clone();
    guided_config.stop_on_violation = true;
    let guided = CoverageExplorer::new(scenario)
        .with_backend(backend)
        .with_config(guided_config)
        .with_threads(threads)
        .explore()
        .first_violation_episode;

    KillComparison {
        blind,
        guided,
        budget: config.budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sabotage::SabotagedElectionScenario;
    use crate::scenario::ElectionScenario;
    use fle_model::ProcId;

    fn trace(indices: &[usize]) -> DecisionTrace {
        indices.iter().map(|&i| Decision::Schedule(i)).collect()
    }

    #[test]
    fn trace_class_is_order_and_seed_sensitive() {
        let a = trace(&[0, 1, 2]);
        let b = trace(&[2, 1, 0]);
        assert_ne!(trace_class(&a, 0), trace_class(&b, 0), "order matters");
        assert_ne!(trace_class(&a, 0), trace_class(&a, 1), "seed matters");
        assert_eq!(trace_class(&a, 3), trace_class(&a, 3), "pure function");
        let crashy: DecisionTrace = vec![Decision::Crash(ProcId(1)), Decision::Schedule(0)]
            .into_iter()
            .collect();
        assert_ne!(
            trace_class(&crashy, 0),
            trace_class(&trace(&[1, 0]), 0),
            "crashes and schedules of the same index differ"
        );
    }

    #[test]
    fn buckets_are_exact_then_logarithmic() {
        for count in 0..=8 {
            assert_eq!(bucket(count), count as u64);
        }
        assert_eq!(bucket(9), bucket(15));
        assert!(bucket(16) > bucket(15));
        assert!(bucket(1 << 20) > bucket(1 << 10));
    }

    #[test]
    fn probed_sim_episodes_produce_features_and_match_blind_outcomes() {
        // The probe is an observer: a probed episode's violation verdict must
        // equal the blind episode's, and a real run earns a non-trivial
        // feature set (phase footprints, round profile, outcome census).
        let scenario = ElectionScenario { n: 4, k: 4 };
        let plan = EpisodePlan {
            strategy: StrategySpec::SplitBrain { burst: 4 },
            sim_seed: 0,
            strategy_seed: 0,
        };
        let (probed, signal) = run_probed(&scenario, &ExploreBackend::Sim, &Schedule::Plan(plan));
        assert!(probed.violation.is_none(), "healthy election stays clean");
        assert!(
            signal.features.len() >= 4,
            "a full episode earns several features, got {:?}",
            signal.features.len()
        );
        assert!(
            !probed.trace.is_empty(),
            "the executed schedule is recorded"
        );
        assert_eq!(signal.class, trace_class(&probed.trace, 0));
    }

    #[test]
    fn coverage_hunts_are_deterministic_across_thread_counts() {
        let scenario = ElectionScenario { n: 4, k: 4 };
        let config = CoverageConfig {
            budget: 24,
            batch: 6,
            sim_seeds: vec![0, 1],
            ..CoverageConfig::default()
        };
        let serial = CoverageExplorer::new(&scenario)
            .with_config(config.clone())
            .with_threads(1)
            .explore();
        let parallel = CoverageExplorer::new(&scenario)
            .with_config(config)
            .with_threads(8)
            .explore();
        assert_eq!(serial.episodes, parallel.episodes);
        assert_eq!(serial.distinct_features(), parallel.distinct_features());
        assert_eq!(serial.corpus.len(), parallel.corpus.len());
        assert_eq!(serial.growth, parallel.growth);
        assert_eq!(serial.violations.len(), parallel.violations.len());
        assert!(serial.growth_is_monotone());
    }

    #[test]
    fn guided_hunt_kills_the_sabotaged_election_and_replays_the_kill() {
        let scenario = SabotagedElectionScenario { n: 4, k: 4 };
        let config = CoverageConfig {
            budget: 96,
            batch: 8,
            sim_seeds: (0..4).collect(),
            stop_on_violation: true,
            ..CoverageConfig::default()
        };
        let report = CoverageExplorer::new(&scenario)
            .with_config(config)
            .with_threads(4)
            .explore();
        let kill = report
            .first_violation_episode
            .expect("the sabotaged election must be killed within the budget");
        assert!(kill <= report.episodes);
        let found = &report.violations[0];
        assert_eq!(found.violation.oracle, crate::oracles::UNIQUE_LEADER);
        // The executed schedule is a genuine counterexample: replaying it
        // against the same scenario and sim seed refires the same oracle.
        let (violation, _) = crate::explorer::replay(
            &scenario,
            found.sim_seed,
            &found.decisions,
            &ExploreBackend::Sim,
        );
        assert_eq!(
            violation.map(|v| v.oracle),
            Some(crate::oracles::UNIQUE_LEADER),
            "coverage-hunt counterexamples replay from (sim_seed, decisions)"
        );
    }

    #[test]
    fn empty_strategy_lists_still_explore_from_nothing() {
        // With no seeding strategies the driver grows traces from the empty
        // base; the hunt must still make progress (features > 0) and stay
        // within budget.
        let scenario = ElectionScenario { n: 3, k: 3 };
        let config = CoverageConfig {
            budget: 8,
            batch: 4,
            strategies: Vec::new(),
            sim_seeds: vec![0],
            ..CoverageConfig::default()
        };
        let report = CoverageExplorer::new(&scenario)
            .with_config(config)
            .with_threads(2)
            .explore();
        assert_eq!(report.episodes, 8);
        assert!(report.distinct_features() > 0);
        assert!(report.growth_is_monotone());
    }
}
