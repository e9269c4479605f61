//! Real-thread execution backends for the paper's protocols.
//!
//! Where `fle-sim` gives deterministic, adversary-controlled executions, this
//! crate runs the *same* [`fle_model::Protocol`] state machines with genuine
//! concurrency, through two implementations of the
//! [`fle_model::SharedMemory`] contract:
//!
//! * [`ThreadedRuntime`] — the **message-passing** backend: one OS thread per
//!   processor, point-to-point crossbeam channels, and the quorum-based
//!   `communicate(propagate / collect)` primitive implemented with actual
//!   request/reply traffic (ABND95). Asynchrony comes from the
//!   operating-system scheduler; additional jitter can be injected per
//!   message ([`RuntimeConfig::with_max_delay_micros`]) and a minority of
//!   nodes can be made unresponsive to exercise the `t < n/2` fault
//!   tolerance ([`RuntimeConfig::with_unresponsive`]).
//! * [`SharedRegisters`] — the **in-process shared-memory** backend: the
//!   registers as real shared state behind sharded locks, where `propagate`
//!   is a locked merge and `collect` an atomic copy-on-write snapshot; see
//!   [`shm`]. Its participants are suspended state machines ([`exec`]),
//!   each optionally behind a seeded [`FaultyMemory`] ([`faulty`]).
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
//! use fle_core::LeaderElection;
//! use fle_model::ProcId;
//! use fle_runtime::{RuntimeConfig, ThreadedRuntime};
//!
//! let config = RuntimeConfig::new(4);
//! let participants = (0..4)
//!     .map(|i| {
//!         let p = ProcId(i);
//!         (p, Box::new(LeaderElection::new(p)) as Box<dyn fle_model::Protocol + Send>)
//!     })
//!     .collect();
//! let report = ThreadedRuntime::new(config).run(participants).unwrap();
//! assert_eq!(report.winners().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod faulty;
pub mod node;
pub mod report;
pub mod sched;
pub mod shm;

use crossbeam_channel::{unbounded, Sender};
pub use exec::{
    run_gated, run_gated_fifo, run_inline, ExecReport, ExecResult, Executor, ExecutorConfig,
    ExecutorStats, InFlight,
};
pub use faulty::{CrashMode, CrashSpec, CrashVictim, FaultPlan, FaultStats, FaultyMemory};
use fle_model::{ProcId, Protocol};
use node::{Envelope, NodeResult, NodeRunner};
pub use report::RuntimeReport;
pub use sched::{
    FifoScheduler, GateCommand, GateObservation, GateScheduler, ScheduleConfig, ScheduledProgress,
    ScheduledReport, WaitingAt,
};
pub use shm::{RegisterHandle, SharedRegisters};
use std::error::Error;
use std::fmt;
use std::thread;

/// Configuration of a threaded execution.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of processors (threads).
    pub n: usize,
    /// Seed from which each node derives its RNG.
    pub seed: u64,
    /// Maximum artificial delay, in microseconds, injected before handling
    /// each received message (0 disables injection).
    pub max_delay_micros: u64,
    /// Nodes that never answer requests (they model crashed/partitioned
    /// replicas). Must stay below `⌈n/2⌉` for quorums to keep forming.
    pub unresponsive: Vec<ProcId>,
}

impl RuntimeConfig {
    /// A configuration with `n` responsive nodes, no artificial delay.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a system needs at least one processor");
        RuntimeConfig {
            n,
            seed: 0,
            max_delay_micros: 0,
            unresponsive: Vec::new(),
        }
    }

    /// Set the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inject up to `micros` microseconds of random delay per message.
    #[must_use]
    pub fn with_max_delay_micros(mut self, micros: u64) -> Self {
        self.max_delay_micros = micros;
        self
    }

    /// Mark the given nodes as unresponsive replicas.
    #[must_use]
    pub fn with_unresponsive(mut self, nodes: impl IntoIterator<Item = ProcId>) -> Self {
        self.unresponsive = nodes.into_iter().collect();
        self
    }

    /// Quorum size (`⌊n/2⌋ + 1`).
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }
}

/// Errors returned by the threaded runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// A participant id was out of range or duplicated.
    InvalidParticipant {
        /// The offending processor.
        proc: ProcId,
        /// What was wrong with it.
        reason: String,
    },
    /// Too many unresponsive nodes: quorums could never form.
    TooManyUnresponsive {
        /// Number of configured unresponsive nodes.
        configured: usize,
        /// Maximum tolerable (`⌈n/2⌉ − 1`).
        tolerable: usize,
    },
    /// A node thread panicked.
    NodePanicked {
        /// The processor whose thread panicked.
        proc: ProcId,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidParticipant { proc, reason } => {
                write!(f, "invalid participant {proc}: {reason}")
            }
            RuntimeError::TooManyUnresponsive {
                configured,
                tolerable,
            } => write!(
                f,
                "{configured} unresponsive nodes exceed the tolerable {tolerable}"
            ),
            RuntimeError::NodePanicked { proc } => write!(f, "node thread for {proc} panicked"),
        }
    }
}

impl Error for RuntimeError {}

/// The threaded runtime. Construct with a [`RuntimeConfig`], then call
/// [`ThreadedRuntime::run`] with one protocol per participating processor.
#[derive(Debug)]
pub struct ThreadedRuntime {
    config: RuntimeConfig,
}

impl ThreadedRuntime {
    /// A runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        ThreadedRuntime { config }
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Run the given participants to completion and gather the report.
    ///
    /// # Errors
    /// Returns [`RuntimeError`] if the participant set is invalid, too many
    /// nodes are unresponsive, or a node thread panics.
    pub fn run(
        &self,
        participants: Vec<(ProcId, Box<dyn Protocol + Send>)>,
    ) -> Result<RuntimeReport, RuntimeError> {
        let n = self.config.n;
        let tolerable = n.div_ceil(2).saturating_sub(1);
        if self.config.unresponsive.len() > tolerable {
            return Err(RuntimeError::TooManyUnresponsive {
                configured: self.config.unresponsive.len(),
                tolerable,
            });
        }

        let mut protocols: Vec<Option<Box<dyn Protocol + Send>>> = (0..n).map(|_| None).collect();
        let mut participant_ids = Vec::new();
        for (proc, protocol) in participants {
            if proc.index() >= n {
                return Err(RuntimeError::InvalidParticipant {
                    proc,
                    reason: format!("system only has {n} processors"),
                });
            }
            if protocols[proc.index()].is_some() {
                return Err(RuntimeError::InvalidParticipant {
                    proc,
                    reason: "already registered".to_string(),
                });
            }
            protocols[proc.index()] = Some(protocol);
            participant_ids.push(proc);
        }

        // One inbox per node; every node knows every sender.
        let mut senders: Vec<Sender<Envelope>> = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let (done_tx, done_rx) = unbounded::<ProcId>();

        let mut handles = Vec::with_capacity(n);
        for (index, receiver) in receivers.into_iter().enumerate() {
            let proc = ProcId(index);
            let runner = NodeRunner::new(
                proc,
                self.config.clone(),
                senders.clone(),
                receiver,
                protocols[index].take(),
                done_tx.clone(),
            );
            let handle = thread::Builder::new()
                .name(format!("fle-node-{index}"))
                .spawn(move || runner.run())
                .expect("spawning a node thread never fails on supported platforms");
            handles.push((proc, handle));
        }
        drop(done_tx);

        // Wait until every participant has reported an outcome, then stop all
        // nodes (they keep serving replica requests until told to stop).
        let mut finished = 0usize;
        while finished < participant_ids.len() {
            match done_rx.recv() {
                Ok(_) => finished += 1,
                Err(_) => break,
            }
        }
        for sender in &senders {
            let _ = sender.send(Envelope::Shutdown);
        }

        let mut report = RuntimeReport::default();
        for (proc, handle) in handles {
            let NodeResult { outcome, metrics } = handle
                .join()
                .map_err(|_| RuntimeError::NodePanicked { proc })?;
            if let Some(outcome) = outcome {
                report.outcomes.insert(proc, outcome);
            }
            *report.metrics.proc_mut(proc) = metrics;
        }
        Ok(report)
    }
}

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

/// Convenience: run the paper's leader election on real threads with all `n`
/// processors participating.
///
/// # Errors
/// Propagates [`RuntimeError`] from [`ThreadedRuntime::run`].
pub fn run_threaded_leader_election(n: usize, seed: u64) -> Result<RuntimeReport, RuntimeError> {
    let config = RuntimeConfig::new(n).with_seed(seed);
    ThreadedRuntime::new(config).run(election_participants(n))
}

/// Convenience: run the paper's renaming algorithm on real threads.
///
/// # Errors
/// Propagates [`RuntimeError`] from [`ThreadedRuntime::run`].
pub fn run_threaded_renaming(n: usize, seed: u64) -> Result<RuntimeReport, RuntimeError> {
    let config = RuntimeConfig::new(n).with_seed(seed);
    ThreadedRuntime::new(config).run(renaming_participants(n, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let config = RuntimeConfig::new(5)
            .with_seed(3)
            .with_max_delay_micros(10)
            .with_unresponsive([ProcId(4)]);
        assert_eq!(config.quorum(), 3);
        assert_eq!(config.seed, 3);
        assert_eq!(config.unresponsive, vec![ProcId(4)]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_is_rejected() {
        let _ = RuntimeConfig::new(0);
    }

    #[test]
    fn too_many_unresponsive_nodes_is_an_error() {
        let config = RuntimeConfig::new(4).with_unresponsive([ProcId(1), ProcId(2)]);
        let runtime = ThreadedRuntime::new(config);
        let err = runtime.run(Vec::new()).unwrap_err();
        assert!(matches!(err, RuntimeError::TooManyUnresponsive { .. }));
    }

    #[test]
    fn invalid_participants_are_rejected() {
        let runtime = ThreadedRuntime::new(RuntimeConfig::new(2));
        let p = ProcId(9);
        let err = runtime
            .run(vec![(
                p,
                Box::new(fle_core::LeaderElection::new(p)) as Box<dyn Protocol + Send>,
            )])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidParticipant { .. }));
    }

    #[test]
    fn threaded_leader_election_elects_exactly_one_leader() {
        for seed in 0..3 {
            let report = run_threaded_leader_election(4, seed).expect("runtime completes");
            assert_eq!(report.winners().len(), 1, "seed {seed}");
            assert_eq!(report.outcomes.len(), 4);
        }
    }

    #[test]
    fn threaded_renaming_assigns_unique_names() {
        let report = run_threaded_renaming(4, 11).expect("runtime completes");
        let names: std::collections::BTreeSet<usize> = report.names().values().copied().collect();
        assert_eq!(names.len(), 4, "all four names are distinct");
        assert!(names.iter().all(|&u| (1..=4).contains(&u)));
    }

    #[test]
    fn unresponsive_minority_does_not_block_progress() {
        let n = 5;
        let config = RuntimeConfig::new(n)
            .with_seed(2)
            .with_unresponsive([ProcId(4)]);
        let participants = (0..3)
            .map(|i| {
                let p = ProcId(i);
                (
                    p,
                    Box::new(fle_core::LeaderElection::new(p)) as Box<dyn Protocol + Send>,
                )
            })
            .collect();
        let report = ThreadedRuntime::new(config).run(participants).unwrap();
        assert_eq!(report.winners().len(), 1);
        assert_eq!(report.outcomes.len(), 3);
    }

    #[test]
    fn delay_injection_still_terminates() {
        let config = RuntimeConfig::new(3).with_seed(7).with_max_delay_micros(50);
        let participants = (0..3)
            .map(|i| {
                let p = ProcId(i);
                (
                    p,
                    Box::new(fle_core::LeaderElection::new(p)) as Box<dyn Protocol + Send>,
                )
            })
            .collect();
        let report = ThreadedRuntime::new(config).run(participants).unwrap();
        assert_eq!(report.winners().len(), 1);
        assert!(report.metrics.total_messages() > 0);
    }
}
