//! # fast-leader-election
//!
//! A from-scratch reproduction of **“How to Elect a Leader Faster than a
//! Tournament”** (Dan Alistarh, Rati Gelashvili, Adrian Vladu; PODC 2015):
//! randomized leader election (test-and-set) in the asynchronous
//! message-passing model against a **strong adaptive adversary** in expected
//! `O(log* k)` time and `O(kn)` messages, plus the message-optimal
//! `O(n²)`-message, `O(log² n)`-time tight-renaming algorithm built on top of
//! it.
//!
//! The crate is an umbrella over the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`model`] (`fle-model`) | protocol state-machine interface, the `SharedMemory` backend contract, register values, wire messages, complexity metrics |
//! | [`sim`] (`fle-sim`) | deterministic discrete-event simulator: quorum `communicate`, adaptive adversaries, crash injection; sequential `SimMemory` adapter |
//! | [`runtime`] (`fle-runtime`) | in-process `SharedRegisters` whose participants run on the caller's thread, free-running (`run_inline`) or behind schedule gates (`run_gated`), or free-running on the task-pool `Executor` |
//! | [`core`] (`fle-core`) | PoisonPill, Heterogeneous PoisonPill, doorway, pre-round, the full election, renaming |
//! | [`baselines`] (`fle-baselines`) | tournament-tree test-and-set (AGTV92), random-order renaming (AAG+10) |
//! | [`service`] (`fle-service`) | sharded multi-instance election/renaming service over the pluggable backends |
//! | [`explore`] (`fle-explore`) | adversarial schedule exploration over the simulator and the schedule-gate loop through one episode runner: attack strategies, safety oracles, counterexample shrinking |
//! | [`analysis`] (`fle-analysis`) | statistics, `log*`/`log²`/`√n` reference curves, table rendering |
//!
//! # Quickstart
//!
//! Elect a leader among 16 simulated processors under a fair scheduler:
//!
//! ```
//! use fast_leader_election::prelude::*;
//!
//! let setup = ElectionSetup::all_participate(16).with_seed(42);
//! let report = run_leader_election(&setup, &mut RandomAdversary::with_seed(7))
//!     .expect("the election terminates");
//! assert_eq!(report.winners().len(), 1);
//! println!(
//!     "leader = {:?}, time = {} communicate calls, messages = {}",
//!     report.winners()[0],
//!     report.max_communicate_calls(),
//!     report.total_messages()
//! );
//! ```
//!
//! Or against the strong coin-inspecting adversary with crash injection:
//!
//! ```
//! use fast_leader_election::prelude::*;
//!
//! let setup = ElectionSetup::all_participate(9).with_seed(3);
//! let plan = CrashPlan::none().and_then(100, ProcId(7)).and_then(200, ProcId(8));
//! let mut adversary = CrashingAdversary::new(CoinAwareAdversary::with_seed(1), plan);
//! let report = run_leader_election(&setup, &mut adversary).unwrap();
//! assert!(report.winners().len() <= 1);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! experiment drivers that regenerate every table in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fle_analysis as analysis;
pub use fle_baselines as baselines;
pub use fle_core as core;
pub use fle_explore as explore;
pub use fle_model as model;
pub use fle_runtime as runtime;
pub use fle_service as service;
pub use fle_sim as sim;

/// The most commonly used items, re-exported for one-line imports.
pub mod prelude {
    pub use fle_analysis::{log_star, Summary, Table};
    pub use fle_baselines::{RandomOrderRenaming, TournamentConfig, TournamentTas};
    pub use fle_core::checks;
    pub use fle_core::harness::{
        run_heterogeneous_poison_pill, run_leader_election, run_poison_pill, run_renaming,
        ElectionSetup, RenamingSetup, SiftSetup,
    };
    pub use fle_core::{
        Doorway, ElectionConfig, HeterogeneousPoisonPill, LeaderElection, PoisonPill, PreRound,
        Renaming, RenamingConfig,
    };
    pub use fle_explore::{
        replay, shrink, ExploreBackend, Explorer, GatedConfig, Oracle, Scenario, StrategySpec,
        Violation,
    };
    pub use fle_model::{
        drive, Action, CancelToken, ElectionContext, LocalStateView, Outcome, ProcId, Protocol,
        Response, SharedMemory,
    };
    pub use fle_runtime::{
        election_participants, renaming_participants, run_gated, run_gated_fifo, run_inline,
        CrashMode, CrashSpec, CrashVictim, ExecReport, ExecResult, Executor, ExecutorConfig,
        FaultPlan, FaultStats, FaultyMemory, FifoScheduler, GateScheduler, InFlight,
        ScheduleConfig, SharedRegisters,
    };
    pub use fle_service::{
        BackendKind, ElectionService, FailStats, InstanceResult, InstanceSpec, InstanceStatus,
        OverloadPolicy, ServiceConfig, ServiceStats, SubmitError, Ticket, Workload,
    };
    pub use fle_sim::{
        Adversary, CoinAwareAdversary, CrashPlan, CrashingAdversary, DecisionTrace,
        ExecutionReport, ObliviousAdversary, RandomAdversary, RecordingAdversary, ReplayAdversary,
        SequentialAdversary, SimConfig, SimError, Simulator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let setup = ElectionSetup::all_participate(4).with_seed(1);
        let report = run_leader_election(&setup, &mut SequentialAdversary::new()).unwrap();
        assert!(checks::unique_winner(&report));
        assert!(checks::someone_won(&report));
        assert!(log_star(16) == 3);
    }
}
