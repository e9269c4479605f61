//! The in-process shared-memory backend for the paper's protocols, and the
//! drivers that step its participants.
//!
//! Where `fle-sim` runs the message-passing model under an adversary, this
//! crate runs the *same* [`fle_model::Protocol`] state machines over
//! [`SharedRegisters`]: the registers as real shared state behind sharded
//! locks, where `propagate` is a locked merge and `collect` an atomic
//! copy-on-write snapshot; see [`shm`]. Its participants are suspended state
//! machines ([`exec`]), each optionally behind a seeded [`FaultyMemory`]
//! ([`faulty`]).
//!
//! Those participants run free on the caller's thread ([`run_inline`], how
//! the service runs its async instances), free on the task pool
//! ([`Executor::submit`]), or under **schedule control** on the caller's
//! thread ([`run_gated`]): each participant stops at
//! [`fle_model::SchedulePoint`] gates and a pluggable [`GateScheduler`]
//! ([`sched`]) chooses the interleaving, turning executions deterministic,
//! adversary-drivable and replayable — the bridge `fle-explore` uses to hunt
//! this backend with the same strategies and oracles as the simulator.
//!
//! # Example
//!
//! ```
//! use fle_model::CancelToken;
//! use fle_runtime::{renaming_participants, run_inline, FaultPlan, SharedRegisters};
//! use std::sync::Arc;
//!
//! let registers = Arc::new(SharedRegisters::new(4));
//! let report = run_inline(
//!     &registers,
//!     0,
//!     7,
//!     renaming_participants(4, 4),
//!     &FaultPlan::default(),
//!     &CancelToken::none(),
//! )
//! .expect("an uncancelled run completes");
//! assert_eq!(report.outcomes.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod faulty;
pub mod sched;
pub mod shm;

pub use exec::{
    run_gated, run_gated_fifo, run_inline, ExecReport, ExecResult, Executor, ExecutorConfig,
    ExecutorStats, InFlight,
};
pub use faulty::{CrashMode, CrashSpec, CrashVictim, FaultPlan, FaultStats, FaultyMemory};
use fle_model::{ProcId, Protocol};
pub use sched::{
    FifoScheduler, GateCommand, GateObservation, GateScheduler, ScheduleConfig, ScheduledProgress,
    ScheduledReport, WaitingAt,
};
pub use shm::{RegisterHandle, SharedRegisters};

/// One [`fle_core::LeaderElection`] participant per processor `0..k` — the
/// participant list every election backend, example and test needs.
pub fn election_participants(k: usize) -> Vec<(ProcId, Box<dyn Protocol + Send>)> {
    (0..k)
        .map(|i| {
            let p = ProcId(i);
            (
                p,
                Box::new(fle_core::LeaderElection::new(p)) as Box<dyn Protocol + Send>,
            )
        })
        .collect()
}

/// One [`fle_core::Renaming`] participant per processor `0..k`, renaming into
/// the namespace `1..=namespace`.
pub fn renaming_participants(
    k: usize,
    namespace: usize,
) -> Vec<(ProcId, Box<dyn Protocol + Send>)> {
    let config = fle_core::RenamingConfig::new(namespace);
    (0..k)
        .map(|i| {
            let p = ProcId(i);
            (
                p,
                Box::new(fle_core::Renaming::new(p, config)) as Box<dyn Protocol + Send>,
            )
        })
        .collect()
}
