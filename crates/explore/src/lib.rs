//! Adversarial schedule exploration for the paper's protocols.
//!
//! The guarantees reproduced by this workspace — unique leader, tight
//! renaming, PoisonPill survivor bounds — are claimed *against an adaptive
//! adversary*, yet hand-written adversaries only ever exercise a handful of
//! schedules. This crate hunts for violating schedules systematically and
//! turns every hit into a minimal, replayable counterexample:
//!
//! 1. **Attack strategies** ([`strategies`]): parameterized adversaries —
//!    adaptive crash timing against the front-runner, targeted starvation,
//!    split-brain delivery orderings, seeded weighted random walks — all
//!    implemented against the engine's O(1) [`fle_sim::EnabledEvents`] view.
//! 2. **Safety oracles** ([`oracles`]): online monitors of the paper's
//!    invariants, evaluated after every executed event via the engine's
//!    step-wise API ([`fle_sim::Simulator::step_once`]), so an episode stops
//!    at the first bad event.
//! 3. **The explorer** ([`explorer`]): fans `scenario × strategy × seed`
//!    episodes across cores with [`fle_bench::BatchRunner`] and records each
//!    violating schedule as a [`fle_sim::DecisionTrace`] that [`replay`]
//!    reproduces deterministically. Every entry point takes an
//!    [`ExploreBackend`] — the simulator or the schedule-gate loop over the
//!    service's register bank ([`gated`]) — and runs through one episode
//!    runner.
//! 4. **The shrinker** ([`mod@shrink`]): delta-debugs a violating trace to a
//!    minimal counterexample by dropping decision chunks and keeping every
//!    edit after which the same oracle still fires.
//!
//! The [`sabotage`] module supplies intentionally broken protocol variants
//! ("skip the write" mutations) that the test suite uses to prove the whole
//! pipeline catches and minimizes real violations end to end.
//!
//! # Example
//!
//! Hunt a deliberately broken election and shrink the counterexample:
//!
//! ```
//! use fle_explore::sabotage::SabotagedElectionScenario;
//! use fle_explore::{shrink, ExploreBackend, Explorer};
//!
//! let scenario = SabotagedElectionScenario { n: 4, k: 4 };
//! let report = Explorer::new(&scenario).with_sim_seeds(0..6).hunt();
//! let found = report.first_violation().expect("the mutant gets caught");
//! let minimal = shrink(&scenario, found, 200, &ExploreBackend::Sim);
//! assert!(minimal.minimized.len() <= found.decisions.len());
//! println!("replay with: {}", minimal.minimized.to_compact_string());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod coverage;
pub mod explorer;
pub mod gated;
pub mod mutate;
pub mod oracles;
pub mod sabotage;
pub mod scenario;
pub mod shrink;
pub mod strategies;

pub use corpus::{Corpus, CorpusEntry};
pub use coverage::{
    compare_kill_time, trace_class, CoverageConfig, CoverageExplorer, CoverageProbe,
    CoverageReport, CoverageSignal, CoverageViolation, EpisodeOrigin, KillComparison, NullProbe,
    SignalProbe,
};
pub use explorer::{
    replay, run_episode, EpisodeOutcome, EpisodePlan, ExploreBackend, Explorer, FoundViolation,
    HuntReport,
};
pub use gated::GatedConfig;
pub use mutate::MutationEngine;
pub use oracles::{Oracle, OracleCtx, Violation};
pub use scenario::{
    standard_scenarios, ElectionScenario, RenamingScenario, Scenario, SiftScenario,
};
pub use shrink::{shrink, ShrinkResult};
pub use strategies::{PreemptionBound, StrategySpec};
