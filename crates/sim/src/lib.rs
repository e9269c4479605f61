//! Deterministic discrete-event simulator of the asynchronous message-passing
//! model used by the paper.
//!
//! The simulator reproduces the system model of Section 2 of
//! *How to Elect a Leader Faster than a Tournament* (Alistarh, Gelashvili,
//! Vladu; PODC 2015):
//!
//! * `n` processors connected by independent point-to-point channels with
//!   arbitrary (adversary-controlled) delays,
//! * the `communicate(propagate / collect)` quorum primitive of ABND95 —
//!   every processor acts as a replica and answers requests even when it does
//!   not participate in the algorithm or has already returned,
//! * a **strong adaptive adversary** that observes local state (including
//!   coin flips), schedules every computation step and message delivery, and
//!   may crash up to `t ≤ ⌈n/2⌉ − 1` processors,
//! * complexity accounting: total messages sent (message complexity) and the
//!   maximum number of `communicate` calls by any processor (time complexity,
//!   Claim 2.1 of the paper).
//!
//! Algorithms are supplied as [`fle_model::Protocol`] state machines; the
//! simulator is completely deterministic given a seed and a deterministic
//! [`Adversary`], which the test-suite relies on.
//!
//! # Example
//!
//! ```
//! use fle_model::{Action, LocalStateView, Outcome, Protocol, Response};
//! use fle_sim::{RandomAdversary, SimConfig, Simulator};
//!
//! /// A protocol that immediately returns WIN.
//! struct TrivialWinner;
//!
//! impl Protocol for TrivialWinner {
//!     fn step(&mut self, _response: Response) -> Action {
//!         Action::Return(Outcome::Win)
//!     }
//!     fn adversary_view(&self) -> LocalStateView {
//!         LocalStateView::new("trivial", "running")
//!     }
//! }
//!
//! # fn main() -> Result<(), fle_sim::SimError> {
//! let config = SimConfig::new(4);
//! let mut sim = Simulator::new(config);
//! sim.add_participant(fle_model::ProcId(0), Box::new(TrivialWinner));
//! let report = sim.run(&mut RandomAdversary::with_seed(7))?;
//! assert_eq!(report.outcome(fle_model::ProcId(0)), Some(Outcome::Win));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod arena;
pub mod engine;
pub mod error;
pub mod event_set;
pub mod memory;
pub mod message;
pub mod observation;
pub mod partition;
pub mod process;
mod quorum;
pub mod report;
pub mod trace;

pub use adversary::{
    Adversary, CoinAwareAdversary, CrashPlan, CrashingAdversary, ObliviousAdversary,
    RandomAdversary, RecordingAdversary, ReplayAdversary, SequentialAdversary,
};
pub use arena::{pool_stats, ArenaPoolStats, SimArena};
pub use engine::{SimConfig, Simulator};
pub use error::SimError;
pub use event_set::{IndexedBitSet, OrderedMsgSet};
pub use memory::{SimMemory, SimMemoryHandle};
pub use message::{InFlightMessage, MessageId, MessageSlab};
pub use observation::{
    Decision, EnabledEvent, EnabledEvents, ProcessObservation, ProcessPhase, SystemObservation,
};
pub use partition::{coin_bool, coin_word, ParallelSimulator, RoundCrashPlan, SuperRoundAdversary};
pub use report::ExecutionReport;
pub use trace::{DecisionTrace, Trace, TraceEvent};
