//! The protocol ⇄ shared-memory contract.
//!
//! The paper states its algorithms against asynchronous shared memory: a
//! processor *propagates* register writes and *collects* register views, and
//! everything else is local computation and coin flips. [`SharedMemory`] is
//! that contract made explicit — one processor's synchronous handle onto the
//! replicated registers plus its local randomness — so a protocol written as
//! a [`Protocol`] state machine runs unmodified on any implementation:
//!
//! * the deterministic **simulator adapter** (`fle_sim::SimMemory`), registers
//!   as plain [`crate::ReplicaStore`]s driven sequentially,
//! * the **in-process shared registers** (`fle_runtime::SharedRegisters`),
//!   registers as real shared state behind sharded locks, where contention
//!   comes from the hardware rather than from emulated quorums; the task
//!   executor drives them through [`DriveMachine`], the inside-out form of
//!   [`drive`].
//!
//! [`drive`] is the one loop every synchronous backend shares: feed the
//! protocol the response to its previous action until it returns.
//!
//! The discrete-event simulator (`fle_sim::Simulator`) implements the same
//! contract in *inverted* form — actions become scheduled events and the
//! adversary chooses when each completes — which is why it keeps its own
//! engine instead of implementing this trait directly.

use crate::action::{Action, Outcome, Response};
use crate::ids::InstanceId;
use crate::protocol::Protocol;
use crate::value::{Key, Value};
use crate::view::CollectedViews;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One processor's synchronous handle onto the replicated shared memory.
///
/// The four methods mirror the four non-returning [`Action`]s. A call to
/// [`SharedMemory::propagate`] returns once the written entries are durable
/// (in a quorum-based implementation: once a quorum acknowledged; in a true
/// shared memory: immediately after the write). [`SharedMemory::collect`]
/// returns the register views of `instance` that the caller is entitled to
/// read — one view per responding replica, or a single atomic snapshot when
/// the registers are genuinely shared.
pub trait SharedMemory {
    /// `communicate(propagate, entries)`: merge the register writes into the
    /// shared memory; returns once they are durable.
    fn propagate(&mut self, entries: Vec<(Key, Value)>);

    /// `communicate(collect, instance)`: the current views of `instance`.
    fn collect(&mut self, instance: InstanceId) -> CollectedViews;

    /// Flip a biased coin (probability `prob_one` of returning `true`).
    fn flip(&mut self, prob_one: f64) -> bool;

    /// Pick uniformly at random among `choices`; implementations return `0`
    /// for an empty slice (protocols never ask, this is a safeguard).
    fn choose(&mut self, choices: &[u64]) -> u64;

    /// Perform one non-returning action and produce the protocol's next
    /// response; `None` exactly when the action is [`Action::Return`].
    fn perform(&mut self, action: Action) -> Option<Response> {
        match action {
            Action::Propagate { entries } => {
                self.propagate(entries);
                Some(Response::AckQuorum)
            }
            Action::Collect { instance } => Some(Response::Views(self.collect(instance))),
            Action::Flip { prob_one } => Some(Response::Coin(self.flip(prob_one))),
            Action::Choose { choices } => Some(Response::Chosen(self.choose(&choices))),
            Action::Return(_) => None,
        }
    }
}

impl<M: SharedMemory + ?Sized> SharedMemory for &mut M {
    fn propagate(&mut self, entries: Vec<(Key, Value)>) {
        (**self).propagate(entries);
    }

    fn collect(&mut self, instance: InstanceId) -> CollectedViews {
        (**self).collect(instance)
    }

    fn flip(&mut self, prob_one: f64) -> bool {
        (**self).flip(prob_one)
    }

    fn choose(&mut self, choices: &[u64]) -> u64 {
        (**self).choose(choices)
    }
}

/// One shared-memory operation a protocol needs performed before it can take
/// its next step — an [`Action`] with the terminal [`Action::Return`] arm
/// split off (that arm is [`DriveStep::Done`] instead).
///
/// An `Op` is the unit of suspension for resumable drivers: a
/// [`DriveMachine`] hands one out, the caller performs it against whatever
/// [`SharedMemory`] it owns (possibly much later, on a different thread),
/// and feeds the [`Response`] back via [`DriveMachine::resume`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Merge register writes into the shared memory.
    Propagate {
        /// The register writes to merge.
        entries: Vec<(Key, Value)>,
    },
    /// Read the current register views of an instance.
    Collect {
        /// The instance whose registers to read.
        instance: InstanceId,
    },
    /// Flip a biased coin.
    Flip {
        /// Probability of the coin coming up `true`.
        prob_one: f64,
    },
    /// Pick uniformly at random among explicit choices.
    Choose {
        /// The candidate values.
        choices: Vec<u64>,
    },
}

impl Op {
    /// Perform this operation against `memory` and produce the response the
    /// suspended protocol is waiting for.
    ///
    /// This is the resumable twin of [`SharedMemory::perform`]: same mapping,
    /// but total — an `Op` has no `Return` arm, so there is always a
    /// response.
    pub fn perform<M: SharedMemory + ?Sized>(self, memory: &mut M) -> Response {
        match self {
            Op::Propagate { entries } => {
                memory.propagate(entries);
                Response::AckQuorum
            }
            Op::Collect { instance } => Response::Views(memory.collect(instance)),
            Op::Flip { prob_one } => Response::Coin(memory.flip(prob_one)),
            Op::Choose { choices } => Response::Chosen(memory.choose(&choices)),
        }
    }

    /// The schedule point at which this operation executes — the gate an
    /// adversarial controller interposes on (see [`crate::SchedulePoint`]).
    pub fn point(&self) -> crate::schedule::SchedulePoint {
        use crate::schedule::SchedulePoint;
        match self {
            Op::Propagate { .. } => SchedulePoint::Propagate,
            Op::Collect { .. } => SchedulePoint::Collect,
            Op::Flip { .. } => SchedulePoint::Flip,
            Op::Choose { .. } => SchedulePoint::Choose,
        }
    }
}

/// What a [`DriveMachine`] produced from one protocol step.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveStep {
    /// The protocol needs this operation performed; feed the response back
    /// with [`DriveMachine::resume`] before stepping again.
    NeedOp(Op),
    /// The protocol returned: this participant is finished.
    Done(Outcome),
}

/// The [`drive`] loop turned inside out: an explicit resumable state machine
/// that never blocks and never touches the shared memory itself.
///
/// Where [`drive`] owns the loop — step the protocol, perform the action,
/// repeat until `Return` — a `DriveMachine` exposes each iteration to the
/// caller: [`DriveMachine::step`] advances the protocol exactly one step and
/// either finishes ([`DriveStep::Done`]) or suspends with the operation it
/// needs ([`DriveStep::NeedOp`]). The caller performs the [`Op`] whenever and
/// wherever it likes and re-arms the machine with [`DriveMachine::resume`].
/// This is what lets a cooperative executor multiplex thousands of
/// participants over a handful of OS threads: a parked participant is just a
/// `DriveMachine` plus its protocol, not a blocked thread.
///
/// The blocking driver [`drive`] is a thin wrapper over this machine and is
/// pinned byte-identical to the original loop by differential tests.
#[derive(Debug)]
pub struct DriveMachine {
    /// The response the next protocol step consumes; `None` while an [`Op`]
    /// is outstanding.
    pending: Option<Response>,
}

impl DriveMachine {
    /// A fresh machine, ready to take the protocol's first step.
    pub fn new() -> Self {
        DriveMachine {
            pending: Some(Response::Start),
        }
    }

    /// Whether the machine can step right now (no operation outstanding).
    pub fn is_runnable(&self) -> bool {
        self.pending.is_some()
    }

    /// Advance `protocol` by exactly one step.
    ///
    /// # Panics
    ///
    /// Panics if an [`Op`] handed out by a previous `step` has not been
    /// answered via [`DriveMachine::resume`] — stepping a suspended machine
    /// is a driver bug, not a recoverable condition.
    pub fn step<P: Protocol + ?Sized>(&mut self, protocol: &mut P) -> DriveStep {
        let response = self
            .pending
            .take()
            .expect("resume() the pending Op before stepping again");
        match protocol.step(response) {
            Action::Return(outcome) => DriveStep::Done(outcome),
            Action::Propagate { entries } => DriveStep::NeedOp(Op::Propagate { entries }),
            Action::Collect { instance } => DriveStep::NeedOp(Op::Collect { instance }),
            Action::Flip { prob_one } => DriveStep::NeedOp(Op::Flip { prob_one }),
            Action::Choose { choices } => DriveStep::NeedOp(Op::Choose { choices }),
        }
    }

    /// Feed back the response to the outstanding [`Op`], re-arming the
    /// machine for its next [`DriveMachine::step`].
    ///
    /// # Panics
    ///
    /// Panics if no operation is outstanding (double-resume).
    pub fn resume(&mut self, response: Response) {
        assert!(
            self.pending.is_none(),
            "resume() with no Op outstanding (double-resume)"
        );
        self.pending = Some(response);
    }
}

impl Default for DriveMachine {
    fn default() -> Self {
        DriveMachine::new()
    }
}

/// Drive `protocol` to completion against `memory`: the single loop shared by
/// every synchronous backend. A thin wrapper over [`DriveMachine`].
pub fn drive<P, M>(protocol: &mut P, mut memory: M) -> Outcome
where
    P: Protocol + ?Sized,
    M: SharedMemory,
{
    let mut machine = DriveMachine::new();
    loop {
        match machine.step(protocol) {
            DriveStep::Done(outcome) => return outcome,
            DriveStep::NeedOp(op) => {
                let response = op.perform(&mut memory);
                machine.resume(response);
            }
        }
    }
}

/// A cooperative cancellation signal threaded through backends.
///
/// A token is either *inert* ([`CancelToken::none`], the default: never
/// cancels, checks compile to a no-op branch) or *armed*
/// ([`CancelToken::new`]): it trips when [`CancelToken::cancel`] is called on
/// any clone, or — if [`CancelToken::with_deadline`] attached one — when the
/// deadline passes. Backends poll [`CancelToken::is_cancelled`] at operation
/// boundaries; a protocol step in progress always finishes, so cancellation
/// never tears a shared-memory operation in half.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// An armed token that cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
        }
    }

    /// The inert token: never cancellable, zero polling cost.
    pub fn none() -> Self {
        CancelToken::default()
    }

    /// Attach an absolute deadline; the token reports cancelled once the
    /// deadline has passed, even if nobody called [`CancelToken::cancel`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether this token can ever report cancelled (armed flag or deadline).
    pub fn is_cancellable(&self) -> bool {
        self.flag.is_some() || self.deadline.is_some()
    }

    /// Trip the token: every clone observes the cancellation. A no-op on an
    /// inert token.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether the token has been tripped or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Acquire) {
                return true;
            }
        }
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ElectionContext, ProcId, Slot};
    use crate::protocol::LocalStateView;
    use crate::store::ReplicaStore;

    /// A single-replica shared memory with a scripted coin, for unit tests.
    struct TestMemory {
        store: ReplicaStore,
        coins: Vec<bool>,
        calls: Vec<&'static str>,
    }

    impl TestMemory {
        fn new(coins: Vec<bool>) -> Self {
            TestMemory {
                store: ReplicaStore::new(),
                coins,
                calls: Vec::new(),
            }
        }
    }

    impl SharedMemory for TestMemory {
        fn propagate(&mut self, entries: Vec<(Key, Value)>) {
            self.calls.push("propagate");
            self.store.apply_all(&entries);
        }

        fn collect(&mut self, instance: InstanceId) -> CollectedViews {
            self.calls.push("collect");
            CollectedViews::from_shared(vec![(ProcId(0), self.store.view_arc(instance))])
        }

        fn flip(&mut self, _prob_one: f64) -> bool {
            self.calls.push("flip");
            self.coins.pop().unwrap_or(false)
        }

        fn choose(&mut self, choices: &[u64]) -> u64 {
            self.calls.push("choose");
            choices.first().copied().unwrap_or(0)
        }
    }

    /// Propagates a flag, collects it back, flips, and wins iff the flag is
    /// visible and the coin came up true.
    struct RoundTrip {
        stage: u8,
        saw_flag: bool,
    }

    impl Protocol for RoundTrip {
        fn step(&mut self, response: Response) -> Action {
            let instance = InstanceId::door(ElectionContext::Standalone);
            match self.stage {
                0 => {
                    self.stage = 1;
                    Action::Propagate {
                        entries: vec![(Key::global(instance), Value::Flag(true))],
                    }
                }
                1 => {
                    self.stage = 2;
                    Action::Collect { instance }
                }
                2 => {
                    let views = response.expect_views();
                    self.saw_flag = views.responses().iter().any(|(_, view)| {
                        view.get(&Slot::Global).and_then(Value::as_flag) == Some(true)
                    });
                    self.stage = 3;
                    Action::Flip { prob_one: 0.5 }
                }
                _ => {
                    let coin = response.expect_coin();
                    Action::Return(if self.saw_flag && coin {
                        Outcome::Win
                    } else {
                        Outcome::Lose
                    })
                }
            }
        }

        fn adversary_view(&self) -> LocalStateView {
            LocalStateView::new("round-trip", "test")
        }
    }

    #[test]
    fn drive_runs_a_protocol_to_completion() {
        let mut memory = TestMemory::new(vec![true]);
        let mut protocol = RoundTrip {
            stage: 0,
            saw_flag: false,
        };
        assert_eq!(drive(&mut protocol, &mut memory), Outcome::Win);
        assert_eq!(memory.calls, vec!["propagate", "collect", "flip"]);
    }

    #[test]
    fn drive_sees_its_own_writes() {
        // A false coin loses even though the flag round-trips.
        let mut memory = TestMemory::new(vec![false]);
        let mut protocol = RoundTrip {
            stage: 0,
            saw_flag: false,
        };
        assert_eq!(drive(&mut protocol, &mut memory), Outcome::Lose);
        assert!(protocol.saw_flag, "the propagated flag must be collectable");
    }

    #[test]
    fn perform_maps_every_action_kind() {
        let mut memory = TestMemory::new(vec![true]);
        assert_eq!(
            memory.perform(Action::Propagate {
                entries: Vec::new()
            }),
            Some(Response::AckQuorum)
        );
        assert!(matches!(
            memory.perform(Action::Collect {
                instance: InstanceId::Contended
            }),
            Some(Response::Views(_))
        ));
        assert_eq!(
            memory.perform(Action::Flip { prob_one: 1.0 }),
            Some(Response::Coin(true))
        );
        assert_eq!(
            memory.perform(Action::Choose {
                choices: vec![7, 9]
            }),
            Some(Response::Chosen(7))
        );
        assert_eq!(memory.perform(Action::Return(Outcome::Win)), None);
    }

    #[test]
    fn inert_token_never_cancels() {
        let cancel = CancelToken::none();
        assert!(!cancel.is_cancellable());
        assert!(!cancel.is_cancelled());
        cancel.cancel(); // no-op
        assert!(!cancel.is_cancelled());
    }

    #[test]
    fn tripped_token_reports_cancelled_on_every_clone() {
        let cancel = CancelToken::new();
        assert!(cancel.is_cancellable());
        assert!(!cancel.is_cancelled());
        cancel.clone().cancel(); // clones share the flag
        assert!(cancel.is_cancelled());
    }

    #[test]
    fn passed_deadline_reports_cancelled() {
        let cancel = CancelToken::new().with_deadline(Instant::now());
        assert!(cancel.is_cancellable());
        assert!(cancel.is_cancelled());
        let future = CancelToken::none()
            .with_deadline(Instant::now() + std::time::Duration::from_secs(3600));
        assert!(future.is_cancellable());
        assert!(!future.is_cancelled());
    }

    #[test]
    fn mutable_references_implement_the_trait() {
        let mut memory = TestMemory::new(vec![true]);
        let mut protocol = RoundTrip {
            stage: 0,
            saw_flag: false,
        };
        // Driving through a &mut &mut chain compiles and behaves identically.
        let by_ref: &mut TestMemory = &mut memory;
        assert_eq!(drive(&mut protocol, by_ref), Outcome::Win);
    }

    /// The original blocking loop, verbatim, kept as the reference the
    /// machine-based [`drive`] is differenced against.
    fn legacy_drive<P, M>(protocol: &mut P, mut memory: M) -> Outcome
    where
        P: Protocol + ?Sized,
        M: SharedMemory,
    {
        let mut response = Response::Start;
        loop {
            match protocol.step(response) {
                Action::Return(outcome) => return outcome,
                action => {
                    response = memory
                        .perform(action)
                        .expect("only Action::Return yields no response");
                }
            }
        }
    }

    #[test]
    fn machine_drive_is_byte_identical_to_the_legacy_loop() {
        // Same protocol, same coin script: outcome AND the exact sequence of
        // shared-memory calls must match the pre-machine loop.
        for coins in [vec![true], vec![false], vec![true, false]] {
            let mut legacy_memory = TestMemory::new(coins.clone());
            let mut legacy_protocol = RoundTrip {
                stage: 0,
                saw_flag: false,
            };
            let legacy_outcome = legacy_drive(&mut legacy_protocol, &mut legacy_memory);

            let mut memory = TestMemory::new(coins.clone());
            let mut protocol = RoundTrip {
                stage: 0,
                saw_flag: false,
            };
            let outcome = drive(&mut protocol, &mut memory);

            assert_eq!(outcome, legacy_outcome, "coins {coins:?}");
            assert_eq!(memory.calls, legacy_memory.calls, "coins {coins:?}");
            assert_eq!(protocol.saw_flag, legacy_protocol.saw_flag);
        }
    }

    #[test]
    fn machine_steps_suspend_and_resume_one_op_at_a_time() {
        let mut memory = TestMemory::new(vec![true]);
        let mut protocol = RoundTrip {
            stage: 0,
            saw_flag: false,
        };
        let mut machine = DriveMachine::new();
        assert!(machine.is_runnable());

        let mut ops = Vec::new();
        let outcome = loop {
            match machine.step(&mut protocol) {
                DriveStep::Done(outcome) => break outcome,
                DriveStep::NeedOp(op) => {
                    assert!(!machine.is_runnable(), "suspended while an Op is out");
                    ops.push(op.point());
                    let response = op.perform(&mut memory);
                    machine.resume(response);
                    assert!(machine.is_runnable());
                }
            }
        };
        assert_eq!(outcome, Outcome::Win);
        use crate::schedule::SchedulePoint;
        assert_eq!(
            ops,
            vec![
                SchedulePoint::Propagate,
                SchedulePoint::Collect,
                SchedulePoint::Flip
            ]
        );
        assert_eq!(memory.calls, vec!["propagate", "collect", "flip"]);
    }

    #[test]
    #[should_panic(expected = "resume() the pending Op before stepping again")]
    fn stepping_a_suspended_machine_panics() {
        let mut protocol = RoundTrip {
            stage: 0,
            saw_flag: false,
        };
        let mut machine = DriveMachine::new();
        let DriveStep::NeedOp(_) = machine.step(&mut protocol) else {
            panic!("first step must suspend");
        };
        machine.step(&mut protocol); // Op still outstanding
    }

    #[test]
    #[should_panic(expected = "double-resume")]
    fn double_resume_panics() {
        let mut machine = DriveMachine::new();
        machine.resume(Response::AckQuorum); // nothing outstanding
    }

    #[test]
    fn op_perform_maps_every_op_kind() {
        let mut memory = TestMemory::new(vec![true]);
        assert_eq!(
            Op::Propagate {
                entries: Vec::new()
            }
            .perform(&mut memory),
            Response::AckQuorum
        );
        assert!(matches!(
            Op::Collect {
                instance: InstanceId::Contended
            }
            .perform(&mut memory),
            Response::Views(_)
        ));
        assert_eq!(
            Op::Flip { prob_one: 1.0 }.perform(&mut memory),
            Response::Coin(true)
        );
        assert_eq!(
            Op::Choose {
                choices: vec![7, 9]
            }
            .perform(&mut memory),
            Response::Chosen(7)
        );
        assert_eq!(memory.calls, vec!["propagate", "collect", "flip", "choose"]);
    }
}
