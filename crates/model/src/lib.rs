//! Shared protocol model for the `fast-leader-election` workspace.
//!
//! This crate defines the vocabulary that every other crate speaks:
//!
//! * [`ProcId`] — processor identifiers in the asynchronous message-passing
//!   model of Attiya, Bar-Noy and Dolev (ABND95) that the paper builds on,
//! * [`Value`] and [`Key`] — the replicated registers that the
//!   `communicate(propagate / collect)` primitive reads and writes,
//! * [`Protocol`] — the state-machine interface every algorithm
//!   (PoisonPill, Heterogeneous PoisonPill, the full leader election, the
//!   renaming algorithm, and the tournament baselines) is written against,
//! * [`SharedMemory`] — the protocol ⇄ memory contract
//!   (`propagate`/`collect`/`flip`/`choose`) that every synchronous execution
//!   backend implements, with [`drive`] as the shared protocol driver and
//!   [`DriveMachine`] as its resumable inside-out form (one suspended
//!   participant = one machine, not one blocked thread),
//! * [`SchedulePoint`] — the schedule-gate vocabulary: a backend that parks
//!   each participant at the point of its next operation until a scheduler
//!   grants it becomes adversarially schedulable (and hence replayable),
//! * [`wire`] — the wire messages exchanged by the backends,
//! * [`metrics`] — the complexity accounting shared by the simulator and the
//!   shared registers (message complexity, communicate-call counts).
//!
//! Algorithms written against this crate run unmodified on the deterministic
//! adversarial simulator (`fle-sim`) and on the in-process shared registers
//! (`fle-runtime`).
//!
//! # Example
//!
//! A trivial protocol that propagates a flag and then returns:
//!
//! ```
//! use fle_model::{Action, Key, Outcome, Protocol, Response, Slot, Value};
//! use fle_model::{InstanceId, LocalStateView};
//!
//! struct Announce {
//!     me: fle_model::ProcId,
//!     done: bool,
//! }
//!
//! impl Protocol for Announce {
//!     fn step(&mut self, response: Response) -> Action {
//!         match response {
//!             Response::Start => Action::Propagate {
//!                 entries: vec![(
//!                     Key::new(InstanceId::custom(0, 0), Slot::Proc(self.me)),
//!                     Value::Flag(true),
//!                 )],
//!             },
//!             _ => {
//!                 self.done = true;
//!                 Action::Return(Outcome::Proceed)
//!             }
//!         }
//!     }
//!
//!     fn adversary_view(&self) -> LocalStateView {
//!         LocalStateView::new("announce", if self.done { "done" } else { "running" })
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod backend;
pub mod ids;
pub mod metrics;
pub mod partition;
pub mod protocol;
pub mod schedule;
pub mod store;
pub mod value;
pub mod view;
pub mod wire;

pub use action::{Action, Outcome, Response};
pub use backend::{drive, CancelToken, DriveMachine, DriveStep, Op, SharedMemory};
pub use ids::{splitmix64, ElectionContext, InstanceId, ProcId, Slot};
pub use metrics::{ExecutionMetrics, ProcessMetrics};
pub use partition::{PartitionMap, RouteKey};
pub use protocol::{LocalStateView, Protocol};
pub use schedule::SchedulePoint;
pub use store::ReplicaStore;
pub use value::{Key, Priority, ProcSet, Status, Value};
pub use view::{BitRow, CollectedViews, View};
pub use wire::WireMessage;
