//! The participants of a register-bank instance, and the three drivers
//! that step them.
//!
//! A participant is a [`DriveMachine`] plus its protocol and register handle
//! — a few hundred bytes of suspended state, not an OS thread. Three drivers
//! step such participants:
//!
//! * [`run_inline`] runs one instance free-running on the calling thread:
//!   round-robin, a burst of 8 shared-memory operations per turn, with the
//!   instance's [`CancelToken`] polled before every operation. The service
//!   runs its async instances this way, on its shard workers.
//! * [`run_gated`] is the schedule-gate loop, also on the calling thread:
//!   before each operation a participant waits at the operation's
//!   [`SchedulePoint`], and a [`GateScheduler`] grants one waiting
//!   participant at a time. The whole exploration stack (strategies,
//!   oracles, record/replay, ddmin) drives these interleavings.
//! * The [`Executor`] pool ([`Executor::submit`]) multiplexes free-running
//!   instances over a few worker threads. Each participant task performs one
//!   burst per poll and goes back to the shared run queue, so instances
//!   interleave at operation granularity. Fail-stop abandonment converts to
//!   [`Outcome::Lose`], and a panicking task poisons only its own instance's
//!   ticket: the worker thread survives and keeps polling everyone else. A
//!   one-worker pool running a lone instance takes exactly [`run_inline`]'s
//!   turns.
//!
//! # Determinism ledger (gate loop)
//!
//! *Yield points*: every shared-memory operation plus the final return.
//! *Grant order*: one participant at a time, chosen by the
//! [`GateScheduler`]; nothing else runs between decisions, so the waiting set
//! at each decision is a pure function of the grant history. *Seed policy*:
//! participant coins come from [`SharedRegisters::handle_seeded`]
//! (`seed + proc·0x9e37`, the simulator's convention), fault streams from the
//! [`FaultPlan`] seed. Consequently a FIFO-gated run is outcome-identical to
//! `fle_sim::SimMemory::run_all` — the differential tests pin the two
//! together.
//!
//! *Panics*: a participant's panic unwinds out of [`run_gated`] at the grant
//! that raised it — a protocol bug never passes for an adversary crash.

use crate::faulty::{FaultPlan, FaultStats, FaultyMemory};
use crate::sched::{
    FifoScheduler, GateCommand, GateObservation, GateScheduler, ScheduleConfig, ScheduledProgress,
    ScheduledReport, WaitingAt,
};
use crate::shm::{RegisterHandle, SharedRegisters};
use fle_model::{
    CancelToken, DriveMachine, DriveStep, LocalStateView, Op, Outcome, ProcId, Protocol,
    SchedulePoint,
};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

const LOCK: &str = "no executor user panics while holding the lock";

/// The burst of a free-running participant: shared-memory operations per
/// poll on the pool, and per turn in [`run_inline`]'s round-robin.
const DEFAULT_OPS_PER_POLL: u32 = 8;

/// Configuration of an [`Executor`].
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Worker threads in the pool. 0 is clamped to 1.
    pub workers: usize,
    /// Start with the workers holding: submitted tasks queue up but none
    /// runs until [`Executor::release`]. Lets a caller stage an entire batch
    /// so the in-flight high-water mark measures *capacity*, not the race
    /// between the submit loop and the pool.
    pub start_paused: bool,
}

impl ExecutorConfig {
    /// `workers` worker threads, running from the start.
    pub fn new(workers: usize) -> Self {
        ExecutorConfig {
            workers,
            start_paused: false,
        }
    }

    /// Hold the workers until [`Executor::release`].
    #[must_use]
    pub fn with_start_paused(mut self) -> Self {
        self.start_paused = true;
        self
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        ExecutorConfig::new(workers)
    }
}

/// A point-in-time reading of the executor's load counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Free-running instances currently in flight (submitted, not resolved).
    pub in_flight: usize,
    /// Highest `in_flight` ever observed — the density high-water mark.
    pub peak_in_flight: usize,
    /// Worker threads in the pool.
    pub workers: usize,
}

/// What a free-running instance resolved to.
#[derive(Debug)]
pub enum ExecResult {
    /// Every participant returned; here are the outcomes and the merged
    /// injected-fault counters.
    Completed(ExecReport),
    /// The instance's [`CancelToken`] tripped (or the executor shut down)
    /// before every participant finished. Partial register state may remain
    /// under the instance's namespace — retire it.
    Cancelled,
    /// A participant task panicked; the payload is the panic's. The worker
    /// thread survived and only this instance is poisoned — callers that
    /// contain panics with `catch_unwind` may re-raise the payload with
    /// [`std::panic::resume_unwind`] to preserve their accounting.
    Panicked(Box<dyn Any + Send + 'static>),
}

/// Outcomes of one completed free-running instance.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Outcome per participant.
    pub outcomes: BTreeMap<ProcId, Outcome>,
    /// Injected-fault counters merged over all participants (all zero when
    /// the instance ran under a no-op plan).
    pub faults: FaultStats,
}

impl ExecReport {
    /// Participants that returned [`Outcome::Win`].
    pub fn winners(&self) -> Vec<ProcId> {
        self.outcomes
            .iter()
            .filter(|(_, o)| **o == Outcome::Win)
            .map(|(p, _)| *p)
            .collect()
    }
}

/// A handle on one submitted free-running instance.
#[derive(Debug)]
pub struct InFlight {
    rx: crossbeam_channel::Receiver<ExecResult>,
}

impl InFlight {
    /// Block until the instance resolves.
    pub fn wait(self) -> ExecResult {
        // The sender can only vanish without sending if the executor died
        // mid-resolution; report that as a cancellation, not a panic.
        self.rx.recv().unwrap_or(ExecResult::Cancelled)
    }

    /// Non-blocking probe; `None` while the instance is still in flight.
    pub fn try_wait(&self) -> Option<ExecResult> {
        self.rx.try_recv().ok()
    }
}

/// How a failing instance failed (first failure wins, except that a panic
/// upgrades a mere cancellation: it is strictly more informative).
enum Failure {
    Cancelled,
    Panicked(Box<dyn Any + Send + 'static>),
}

/// State shared by all participant tasks of one free-running instance.
struct InstanceShared {
    cancel: CancelToken,
    /// Fast-path doom flag: set on the first failure so sibling tasks drain
    /// without re-deriving the failure.
    doomed: AtomicBool,
    remaining: AtomicUsize,
    outcomes: Mutex<BTreeMap<ProcId, Outcome>>,
    faults: Mutex<FaultStats>,
    failure: Mutex<Option<Failure>>,
    done: crossbeam_channel::Sender<ExecResult>,
    pool: Arc<Pool>,
    /// Whether fault counters are surfaced in the report: a no-op plan
    /// reports [`FaultStats::default`], not the decorator's op counts.
    merge_faults: bool,
}

impl InstanceShared {
    fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire) || self.cancel.is_cancelled()
    }

    fn merge_faults(&self, stats: &FaultStats) {
        if !self.merge_faults {
            return;
        }
        match self.faults.lock() {
            Ok(mut guard) => guard.merge(stats),
            Err(poisoned) => poisoned.into_inner().merge(stats),
        }
    }

    fn finish_participant(&self, proc: ProcId, outcome: Outcome, stats: &FaultStats) {
        self.outcomes.lock().expect(LOCK).insert(proc, outcome);
        self.merge_faults(stats);
        self.arrive();
    }

    fn finish_cancelled(&self, stats: &FaultStats) {
        self.doomed.store(true, Ordering::Release);
        let mut failure = self.failure.lock().expect(LOCK);
        if failure.is_none() {
            *failure = Some(Failure::Cancelled);
        }
        drop(failure);
        self.merge_faults(stats);
        self.arrive();
    }

    fn finish_panicked(&self, payload: Box<dyn Any + Send + 'static>) {
        self.doomed.store(true, Ordering::Release);
        let mut failure = match self.failure.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if !matches!(*failure, Some(Failure::Panicked(_))) {
            *failure = Some(Failure::Panicked(payload));
        }
        drop(failure);
        self.arrive();
    }

    /// One participant reached a terminal state; the last one to arrive
    /// resolves the instance's ticket.
    fn arrive(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let failure = match self.failure.lock() {
            Ok(mut guard) => guard.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        let result = match failure {
            Some(Failure::Panicked(payload)) => ExecResult::Panicked(payload),
            Some(Failure::Cancelled) => ExecResult::Cancelled,
            None => ExecResult::Completed(ExecReport {
                outcomes: std::mem::take(&mut *self.outcomes.lock().expect(LOCK)),
                faults: match self.faults.lock() {
                    Ok(guard) => *guard,
                    Err(poisoned) => *poisoned.into_inner(),
                },
            }),
        };
        // Decrement before resolving the ticket, so a waiter that observes
        // the result never sees its own instance still counted in-flight.
        self.pool.in_flight.fetch_sub(1, Ordering::AcqRel);
        let _ = self.done.send(result);
    }
}

/// One suspended participant: a machine, its protocol, and its
/// (fault-decorated) register handle. This — not an OS thread — is the unit
/// that [`run_inline`] round-robins, the pool multiplexes and [`run_gated`]
/// grants.
struct Participant {
    proc: ProcId,
    machine: DriveMachine,
    protocol: Box<dyn Protocol + Send>,
    memory: FaultyMemory<RegisterHandle>,
}

/// How one [`Participant::burst`] ended.
enum Burst {
    /// The operation budget ran out; the participant is still live.
    Yielded,
    /// The participant returned, or fail-stopped into [`Outcome::Lose`].
    Finished(Outcome),
    /// The doom check tripped before an operation.
    Doomed,
}

/// What a gated participant does when it is granted.
enum Pending {
    /// Perform this operation, then step to the next gate.
    Op(Op),
    /// Return with this outcome.
    Return(Outcome),
}

/// Where one participant of a gated run is.
enum Gate {
    /// Waiting at a gate: the point, the local state the scheduler sees, and
    /// what the grant will do.
    Waiting(SchedulePoint, LocalStateView, Pending),
    /// Returned; its outcome is in the report.
    Done,
    /// Crashed by the scheduler or by a stop.
    Crashed,
}

impl Participant {
    /// The participants of one free-running instance, in the given order:
    /// coins from [`SharedRegisters::handle`] (which mixes in `namespace`),
    /// each handle behind a [`FaultyMemory`] under `plan` as it applies to
    /// `namespace`.
    fn build_all<'a>(
        registers: &'a Arc<SharedRegisters>,
        namespace: u64,
        seed: u64,
        participants: Vec<(ProcId, Box<dyn Protocol + Send>)>,
        plan: &FaultPlan,
    ) -> impl Iterator<Item = Participant> + 'a {
        let plan = plan.for_namespace(namespace);
        participants
            .into_iter()
            .map(move |(proc, protocol)| Participant {
                proc,
                machine: DriveMachine::new(),
                protocol,
                memory: FaultyMemory::new(registers.handle(namespace, proc, seed), proc, plan),
            })
    }

    /// Run up to `ops` steps. Before each one, poll `doomed` and convert
    /// fail-stop abandonment to [`Outcome::Lose`]; then step the protocol,
    /// and perform and resume the operation it needs. A panic in the
    /// protocol or the memory unwinds to the caller.
    fn burst(&mut self, ops: u32, doomed: impl Fn() -> bool) -> Burst {
        for _ in 0..ops {
            if doomed() {
                return Burst::Doomed;
            }
            if self.memory.abandoned() {
                return Burst::Finished(Outcome::Lose);
            }
            match self.machine.step(self.protocol.as_mut()) {
                DriveStep::Done(outcome) => return Burst::Finished(outcome),
                DriveStep::NeedOp(op) => {
                    let response = op.perform(&mut self.memory);
                    self.machine.resume(response);
                }
            }
        }
        Burst::Yielded
    }

    /// Step the protocol to its next gate. A fail-stopped participant gates
    /// through [`SchedulePoint::Return`] before it loses, so the grant
    /// accounting stays consistent.
    fn next_gate(&mut self) -> Gate {
        let pending = if self.memory.abandoned() {
            Pending::Return(Outcome::Lose)
        } else {
            match self.machine.step(self.protocol.as_mut()) {
                DriveStep::Done(outcome) => Pending::Return(outcome),
                DriveStep::NeedOp(op) => Pending::Op(op),
            }
        };
        let point = match &pending {
            Pending::Op(op) => op.point(),
            Pending::Return(_) => SchedulePoint::Return,
        };
        Gate::Waiting(point, self.protocol.adversary_view(), pending)
    }
}

/// A free-running participant queued on the pool, with its instance's
/// shared bookkeeping.
struct FreeTask {
    instance: Arc<InstanceShared>,
    participant: Participant,
}

struct Queue {
    tasks: VecDeque<FreeTask>,
    shutdown: bool,
    /// While set, workers wait instead of popping — queued work accumulates
    /// until [`Executor::release`] clears it.
    paused: bool,
}

/// Run queue, load counters and worker coordination, shared by all worker
/// threads of one [`Executor`].
struct Pool {
    queue: Mutex<Queue>,
    available: Condvar,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
    workers: usize,
}

impl Pool {
    /// Enqueue `task`, or hand it back (boxed — the error arm is the cold
    /// shutdown path) so the caller can resolve its bookkeeping.
    fn inject(&self, task: FreeTask) -> Result<(), Box<FreeTask>> {
        let mut queue = self.queue.lock().expect(LOCK);
        if queue.shutdown {
            return Err(Box::new(task));
        }
        queue.tasks.push_back(task);
        let paused = queue.paused;
        drop(queue);
        if !paused {
            self.available.notify_one();
        }
        Ok(())
    }

    /// Resolve a task that can no longer run (shutdown drain).
    fn discard(task: FreeTask) {
        task.instance
            .finish_cancelled(&task.participant.memory.stats());
    }
}

/// The cooperative executor: a fixed pool of worker threads multiplexing
/// free-running participant tasks from a shared run queue.
pub struct Executor {
    pool: Arc<Pool>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Executor")
            .field("workers", &stats.workers)
            .field("in_flight", &stats.in_flight)
            .finish()
    }
}

impl Executor {
    /// Start a pool with the given configuration.
    pub fn new(config: ExecutorConfig) -> Self {
        let workers = config.workers.max(1);
        let pool = Arc::new(Pool {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
                paused: config.start_paused,
            }),
            available: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            peak_in_flight: AtomicUsize::new(0),
            workers,
        });
        let handles = (0..workers)
            .map(|index| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("fle-exec-{index}"))
                    .spawn(move || worker_loop(&pool))
                    .expect("spawning a worker thread never fails on supported platforms")
            })
            .collect();
        Executor {
            pool,
            handles: Mutex::new(handles),
        }
    }

    /// Current load counters.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            in_flight: self.pool.in_flight.load(Ordering::Acquire),
            peak_in_flight: self.pool.peak_in_flight.load(Ordering::Acquire),
            workers: self.pool.workers,
        }
    }

    /// Submit one free-running instance: `participants` run over the
    /// registers of `namespace` (coins seeded by [`SharedRegisters::handle`],
    /// which mixes in the namespace), each behind a [`FaultyMemory`] under
    /// `plan`, with `cancel` polled before every shared-memory operation.
    ///
    /// Returns immediately; the [`InFlight`] ticket resolves when the last
    /// participant reaches a terminal state. Submission after shutdown
    /// resolves [`ExecResult::Cancelled`].
    pub fn submit(
        &self,
        registers: &Arc<SharedRegisters>,
        namespace: u64,
        seed: u64,
        participants: Vec<(ProcId, Box<dyn Protocol + Send>)>,
        plan: &FaultPlan,
        cancel: CancelToken,
    ) -> InFlight {
        let merge_faults = !plan.is_noop();
        let (done, rx) = crossbeam_channel::unbounded();
        if participants.is_empty() {
            let _ = done.send(ExecResult::Completed(ExecReport::default()));
            return InFlight { rx };
        }
        let now = self.pool.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        self.pool.peak_in_flight.fetch_max(now, Ordering::AcqRel);
        let instance = Arc::new(InstanceShared {
            cancel,
            doomed: AtomicBool::new(false),
            remaining: AtomicUsize::new(participants.len()),
            outcomes: Mutex::new(BTreeMap::new()),
            faults: Mutex::new(FaultStats::default()),
            failure: Mutex::new(None),
            done,
            pool: Arc::clone(&self.pool),
            merge_faults,
        });
        for participant in Participant::build_all(registers, namespace, seed, participants, plan) {
            let task = FreeTask {
                instance: Arc::clone(&instance),
                participant,
            };
            if let Err(task) = self.pool.inject(task) {
                Pool::discard(*task);
            }
        }
        InFlight { rx }
    }

    /// Release a pool started with [`ExecutorConfig::with_start_paused`]:
    /// every queued task becomes runnable at once. Idempotent; a no-op on a
    /// pool that was never paused.
    pub fn release(&self) {
        let mut queue = self.pool.queue.lock().expect(LOCK);
        queue.paused = false;
        drop(queue);
        self.pool.available.notify_all();
    }

    /// Stop the pool: drain the queue (queued tasks resolve their instances
    /// [`ExecResult::Cancelled`]), wake and join every worker. Idempotent.
    pub fn shutdown(&self) {
        let drained: Vec<FreeTask> = {
            let mut queue = self.pool.queue.lock().expect(LOCK);
            queue.shutdown = true;
            queue.tasks.drain(..).collect()
        };
        self.pool.available.notify_all();
        for task in drained {
            Pool::discard(task);
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock().expect(LOCK));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(pool: &Arc<Pool>) {
    loop {
        let task = {
            let mut queue = pool.queue.lock().expect(LOCK);
            loop {
                if !queue.paused {
                    if let Some(task) = queue.tasks.pop_front() {
                        break task;
                    }
                }
                if queue.shutdown {
                    return;
                }
                queue = pool.available.wait(queue).expect(LOCK);
            }
        };
        poll_free(pool, task);
    }
}

/// Poll one free-running task for one burst of operations
/// ([`Participant::burst`], doomed when the instance is). A panic
/// anywhere in the protocol or memory poisons only this task's instance;
/// the worker survives.
fn poll_free(pool: &Arc<Pool>, task: FreeTask) {
    let instance = Arc::clone(&task.instance);
    let polled = catch_unwind(AssertUnwindSafe(move || {
        let mut task = task;
        let burst = task
            .participant
            .burst(DEFAULT_OPS_PER_POLL, || task.instance.is_doomed());
        let stats = task.participant.memory.stats();
        match burst {
            Burst::Yielded => return Some(task),
            Burst::Finished(outcome) => {
                task.instance
                    .finish_participant(task.participant.proc, outcome, &stats);
            }
            Burst::Doomed => task.instance.finish_cancelled(&stats),
        }
        None
    }));
    match polled {
        Ok(Some(task)) => {
            if let Err(task) = pool.inject(task) {
                Pool::discard(*task);
            }
        }
        Ok(None) => {}
        Err(payload) => instance.finish_panicked(payload),
    }
}

/// Run one free-running instance to completion on the calling thread.
///
/// Takes [`Executor::submit`]'s arguments and builds the same participants.
/// They take turns in the given order, one burst of 8 operations each, until
/// every one has finished: the order in which a one-worker pool runs a lone
/// instance, so both do the same register work. The gate loop replays these
/// turns as a schedule (`tests/inline_equivalence.rs`).
/// Returns `None` when `cancel` (polled before every operation) trips
/// first; partial register state may remain under `namespace` — retire it.
/// Fault counters appear in the report only under a live plan.
///
/// # Panics
/// A participant's panic unwinds to the caller.
pub fn run_inline(
    registers: &Arc<SharedRegisters>,
    namespace: u64,
    seed: u64,
    participants: Vec<(ProcId, Box<dyn Protocol + Send>)>,
    plan: &FaultPlan,
    cancel: &CancelToken,
) -> Option<ExecReport> {
    let merge_faults = !plan.is_noop();
    let mut turns: VecDeque<Participant> =
        Participant::build_all(registers, namespace, seed, participants, plan).collect();
    let mut report = ExecReport::default();
    while let Some(mut participant) = turns.pop_front() {
        match participant.burst(DEFAULT_OPS_PER_POLL, || cancel.is_cancelled()) {
            Burst::Yielded => turns.push_back(participant),
            Burst::Finished(outcome) => {
                report.outcomes.insert(participant.proc, outcome);
                if merge_faults {
                    report.faults.merge(&participant.memory.stats());
                }
            }
            Burst::Doomed => return None,
        }
    }
    Some(report)
}

/// Run one instance under an explicit schedule, on the calling thread: the
/// schedule-gate loop.
///
/// The participants are sorted by processor id and run over a fresh
/// register bank the loop owns. Each handle sits behind a [`FaultyMemory`]
/// under `plan` (a no-op plan when `None`), applied as given: a caller that
/// replays one service instance scopes the plan with
/// [`FaultPlan::for_namespace`] itself. Coins are seeded by
/// [`SharedRegisters::handle_seeded`], so a [`FifoScheduler`] run is
/// coin-for-coin comparable with `fle_sim::SimMemory`.
///
/// At every decision the loop hands `scheduler` the participants waiting at
/// their gates and executes the [`GateCommand`] it answers: out-of-range
/// grants clamp to the last waiting participant, crashes beyond the budget
/// or of participants that are not waiting degrade to `Run(0)`, and a stop
/// (or the grant budget running out) crashes everyone still waiting. Fault
/// counters are merged over every participant when a plan was given.
///
/// Deterministic given (`seed`, `plan`, scheduler decisions): only the
/// granted participant runs between two decisions.
///
/// # Panics
/// A participant's panic unwinds to the caller at the grant that raised it.
pub fn run_gated(
    seed: u64,
    mut participants: Vec<(ProcId, Box<dyn Protocol + Send>)>,
    config: ScheduleConfig,
    scheduler: &mut dyn GateScheduler,
    plan: Option<FaultPlan>,
) -> ScheduledReport {
    participants.sort_by_key(|(proc, _)| *proc);
    // One namespace, so one lock shard holds every register.
    let registers = Arc::new(SharedRegisters::new(1));
    let mut all: Vec<(Participant, Gate)> = participants
        .into_iter()
        .map(|(proc, protocol)| {
            let mut participant = Participant {
                proc,
                machine: DriveMachine::new(),
                protocol,
                memory: FaultyMemory::new(
                    registers.handle_seeded(0, proc, seed),
                    proc,
                    plan.unwrap_or_default(),
                ),
            };
            let gate = participant.next_gate();
            (participant, gate)
        })
        .collect();

    let mut report = ScheduledReport::default();
    let mut crash_budget_left = config.crash_budget;
    loop {
        // The waiting set, ascending by processor id.
        let mut indices = Vec::new();
        let mut waiting = Vec::new();
        for (index, (participant, gate)) in all.iter().enumerate() {
            if let Gate::Waiting(point, state, _) = gate {
                indices.push(index);
                waiting.push(WaitingAt {
                    proc: participant.proc,
                    point: *point,
                    state: state.clone(),
                });
            }
        }
        if waiting.is_empty() {
            break; // every participant returned or crashed
        }

        let command = if report.grants >= config.max_grants {
            report.budget_exhausted = true;
            GateCommand::Stop
        } else {
            scheduler.pick(&GateObservation {
                participants: all.len(),
                grants_made: report.grants,
                crash_budget_left,
                waiting: &waiting,
                progress: &report.progress,
            })
        };
        let victim = match command {
            GateCommand::Crash(victim) if crash_budget_left > 0 => {
                waiting.iter().position(|entry| entry.proc == victim)
            }
            _ => None,
        };
        // Returns and crashes enter the report as they happen. A decision
        // ends at most one participant, or every waiting one in processor
        // order on a stop, so the report equals one harvested at the next
        // decision.
        match (command, victim) {
            (GateCommand::Stop, _) => {
                report.stopped = true;
                for &index in &indices {
                    crash(&mut all[index], &mut report.progress);
                }
            }
            (_, Some(position)) => {
                crash_budget_left -= 1;
                crash(&mut all[indices[position]], &mut report.progress);
            }
            (command, None) => {
                // Out-of-range grants clamp and illegal crashes degrade to
                // the oldest waiting grant, mirroring the tolerant replay
                // semantics of the simulator's `ReplayAdversary`.
                let pick = match command {
                    GateCommand::Run(pick) => pick.min(waiting.len() - 1),
                    _ => 0,
                };
                // Count the grant before recording the interval start so
                // both ends of an interval use the post-increment counter,
                // matching the simulator's convention — otherwise a loser
                // returning at grant g and a winner starting at grant g+1
                // would look concurrent to the linearizability check.
                report.grants += 1;
                let (participant, gate) = &mut all[indices[pick]];
                let interval = report
                    .progress
                    .intervals
                    .entry(participant.proc)
                    .or_insert((report.grants, None));
                match std::mem::replace(gate, Gate::Done) {
                    Gate::Waiting(_, _, Pending::Op(op)) => {
                        let response = op.perform(&mut participant.memory);
                        participant.machine.resume(response);
                        *gate = participant.next_gate();
                    }
                    Gate::Waiting(_, _, Pending::Return(outcome)) => {
                        interval.1 = Some(report.grants);
                        report.progress.outcomes.insert(participant.proc, outcome);
                    }
                    Gate::Done | Gate::Crashed => {
                        unreachable!("only waiting participants are granted")
                    }
                }
            }
        }
    }

    if plan.is_some() {
        for (participant, _) in &all {
            report.faults.merge(&participant.memory.stats());
        }
    }
    report
}

/// Crash one waiting participant of a gated run.
fn crash((participant, gate): &mut (Participant, Gate), progress: &mut ScheduledProgress) {
    *gate = Gate::Crashed;
    progress.crashed.push(participant.proc);
}

/// Run one instance fully sequentialized under the gate loop — the FIFO
/// schedule, outcome-identical to `fle_sim::SimMemory::run_all` — and return
/// its report. The deterministic face of the register backend, used by the
/// differential suite.
pub fn run_gated_fifo(
    seed: u64,
    participants: Vec<(ProcId, Box<dyn Protocol + Send>)>,
) -> ScheduledReport {
    let k = participants.len();
    run_gated(
        seed,
        participants,
        ScheduleConfig::for_participants(k),
        &mut FifoScheduler,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::CrashSpec;
    use crate::{election_participants, renaming_participants};
    use fle_model::{Action, Response};
    use std::collections::BTreeSet;

    #[test]
    fn free_instances_each_elect_one_winner_with_none_lost() {
        let executor = Executor::new(ExecutorConfig::new(3));
        let registers = Arc::new(SharedRegisters::new(8));
        let tickets: Vec<(u64, InFlight)> = (0..100u64)
            .map(|key| {
                let ticket = executor.submit(
                    &registers,
                    key,
                    key,
                    election_participants(4),
                    &FaultPlan::default(),
                    CancelToken::none(),
                );
                (key, ticket)
            })
            .collect();
        let mut seen = BTreeSet::new();
        for (key, ticket) in tickets {
            match ticket.wait() {
                ExecResult::Completed(report) => {
                    assert_eq!(report.outcomes.len(), 4, "instance {key}");
                    assert_eq!(report.winners().len(), 1, "instance {key}");
                    assert!(seen.insert(key), "duplicate resolution for {key}");
                }
                other => panic!("instance {key}: unexpected {other:?}"),
            }
        }
        assert_eq!(seen.len(), 100, "no lost results");
        let stats = executor.stats();
        assert_eq!(stats.in_flight, 0);
        assert!(stats.peak_in_flight >= 1);
        assert_eq!(stats.workers, 3);
    }

    #[test]
    fn fifo_schedule_elects_exactly_one_leader() {
        let k = 4;
        let report = run_gated(
            3,
            election_participants(k),
            ScheduleConfig::for_participants(k),
            &mut FifoScheduler,
            None,
        );
        assert_eq!(report.progress.winners().len(), 1);
        assert_eq!(report.progress.outcomes.len(), k);
        assert!(report.progress.crashed.is_empty());
        assert!(!report.stopped);
        assert!(report.grants > 0);
    }

    #[test]
    fn fifo_schedule_runs_participants_in_order() {
        // Under FIFO, participant i's return grant precedes participant
        // i+1's first grant: the run is genuinely sequential.
        let report = run_gated(
            9,
            election_participants(3),
            ScheduleConfig::for_participants(3),
            &mut FifoScheduler,
            None,
        );
        assert_eq!(
            report.progress.intervals[&ProcId(0)].0,
            1,
            "interval bounds count grants post-increment, like the simulator"
        );
        for i in 0..2usize {
            let (_, end) = report.progress.intervals[&ProcId(i)];
            let (start, _) = report.progress.intervals[&ProcId(i + 1)];
            assert!(
                end.expect("finished") < start,
                "participant {i} must finish strictly before {} starts",
                i + 1
            );
        }
    }

    /// Grants `waiting.len() + overshoot`: out of range at every decision.
    struct PastTheEnd(usize);

    impl GateScheduler for PastTheEnd {
        fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
            GateCommand::Run(obs.waiting.len() + self.0)
        }
    }

    #[test]
    fn out_of_range_grants_clamp_to_the_highest_waiting_participant() {
        // Clamping grants the highest-id waiting participant every time, so
        // participant 3 runs to completion first — alone, hence the winner —
        // then 2, then 1, then 0. (Wrapping the index modulo the waiting
        // count would grant participant j instead, and elect it.)
        for overshoot in 0..3usize {
            let report = run_gated(
                7,
                election_participants(4),
                ScheduleConfig::for_participants(4),
                &mut PastTheEnd(overshoot),
                None,
            );
            let label = format!("Run(len + {overshoot})");
            assert_eq!(report.progress.winners(), vec![ProcId(3)], "{label}");
            for i in 1..4usize {
                let (_, end) = report.progress.intervals[&ProcId(i)];
                let (start, _) = report.progress.intervals[&ProcId(i - 1)];
                assert!(
                    end.expect("finished") < start,
                    "{label}: participant {i} must finish before {} starts",
                    i - 1
                );
            }
        }
    }

    #[test]
    fn crashes_remove_participants_and_respect_the_budget() {
        /// Crashes processors 0 and 1 at the first opportunity, then FIFO.
        struct CrashTwo;
        impl GateScheduler for CrashTwo {
            fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
                for victim in [ProcId(0), ProcId(1)] {
                    if obs.crash_budget_left > 0
                        && obs.waiting.iter().any(|w| w.proc == victim)
                        && !obs.progress.crashed.contains(&victim)
                    {
                        return GateCommand::Crash(victim);
                    }
                }
                GateCommand::Run(0)
            }
        }
        // Budget 1: only the first crash lands, the second degrades.
        let report = run_gated(
            2,
            election_participants(5),
            ScheduleConfig::for_participants(5).with_crash_budget(1),
            &mut CrashTwo,
            None,
        );
        assert_eq!(report.progress.crashed, vec![ProcId(0)]);
        assert_eq!(report.progress.outcomes.len(), 4, "survivors all return");
        assert_eq!(report.progress.winners().len(), 1);
    }

    #[test]
    fn stop_crashes_everyone_and_marks_the_report() {
        struct StopAfter(u64);
        impl GateScheduler for StopAfter {
            fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
                if obs.grants_made >= self.0 {
                    GateCommand::Stop
                } else {
                    GateCommand::Run(0)
                }
            }
        }
        let report = run_gated(
            1,
            election_participants(4),
            ScheduleConfig::for_participants(4),
            &mut StopAfter(3),
            None,
        );
        assert!(report.stopped);
        assert!(!report.budget_exhausted);
        assert_eq!(report.grants, 3);
        assert_eq!(
            report.progress.outcomes.len() + report.progress.crashed.len(),
            4
        );
        assert!(!report.progress.crashed.is_empty());
    }

    #[test]
    fn grant_budget_exhaustion_stops_the_run() {
        let report = run_gated(
            1,
            election_participants(4),
            ScheduleConfig::for_participants(4).with_max_grants(5),
            &mut FifoScheduler,
            None,
        );
        assert!(report.stopped);
        assert!(report.budget_exhausted);
        assert_eq!(report.grants, 5);
        assert!(!report.progress.crashed.is_empty());
    }

    #[test]
    fn panicking_protocols_propagate_instead_of_deadlocking() {
        struct Bomb;
        impl Protocol for Bomb {
            fn step(&mut self, _response: Response) -> Action {
                panic!("deliberate test panic");
            }
            fn adversary_view(&self) -> LocalStateView {
                LocalStateView::new("bomb", "armed")
            }
        }
        // The payload reaches the caller instead of passing for an
        // adversary crash.
        let mut participants = election_participants(2);
        participants.push((ProcId(2), Box::new(Bomb)));
        let raised = catch_unwind(AssertUnwindSafe(|| {
            run_gated(
                4,
                participants,
                ScheduleConfig::for_participants(3),
                &mut FifoScheduler,
                None,
            )
        }));
        let payload = raised.expect_err("a protocol panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"deliberate test panic")
        );
    }

    /// Round-robin over waiting participants, for interleaving tests.
    struct RoundRobin {
        next: usize,
    }

    impl GateScheduler for RoundRobin {
        fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
            let pick = self.next % obs.waiting.len();
            self.next = self.next.wrapping_add(1);
            GateCommand::Run(pick)
        }
    }

    #[test]
    fn gated_runs_are_deterministic() {
        let run = || {
            run_gated(
                9,
                renaming_participants(5, 5),
                ScheduleConfig::for_participants(5),
                &mut RoundRobin { next: 0 },
                None,
            )
        };
        let first = run();
        let again = run();
        assert_eq!(first.progress.outcomes, again.progress.outcomes);
        assert_eq!(first.progress.intervals, again.progress.intervals);
        assert_eq!(first.progress.crashed, again.progress.crashed);
        assert_eq!(first.grants, again.grants);
        let names: BTreeSet<usize> = first.progress.names().values().copied().collect();
        assert_eq!(names.len(), 5, "renaming still assigns unique names");
        assert!(
            names.iter().all(|&u| (1..=5).contains(&u)),
            "and tight ones"
        );
    }

    #[test]
    fn free_cancel_token_resolves_cancelled() {
        let executor = Executor::new(ExecutorConfig::new(2));
        let registers = Arc::new(SharedRegisters::new(1));
        let cancel = CancelToken::new();
        cancel.cancel();
        let ticket = executor.submit(
            &registers,
            0,
            1,
            election_participants(4),
            &FaultPlan::default(),
            cancel,
        );
        assert!(matches!(ticket.wait(), ExecResult::Cancelled));
        assert_eq!(executor.stats().in_flight, 0);
    }

    #[test]
    fn shutdown_with_queued_tasks_resolves_every_ticket() {
        // One worker, many instances: most tasks are still queued (or parked
        // between polls) when shutdown lands. Every ticket must resolve —
        // completed or cancelled, never hung or lost.
        let executor = Executor::new(ExecutorConfig::new(1));
        let registers = Arc::new(SharedRegisters::new(4));
        let tickets: Vec<InFlight> = (0..50u64)
            .map(|key| {
                executor.submit(
                    &registers,
                    key,
                    key,
                    election_participants(4),
                    &FaultPlan::default(),
                    CancelToken::none(),
                )
            })
            .collect();
        executor.shutdown();
        let (mut completed, mut cancelled) = (0usize, 0usize);
        for ticket in tickets {
            match ticket.wait() {
                ExecResult::Completed(report) => {
                    assert_eq!(report.winners().len(), 1);
                    completed += 1;
                }
                ExecResult::Cancelled => cancelled += 1,
                ExecResult::Panicked(_) => panic!("nothing panics in this test"),
            }
        }
        assert_eq!(completed + cancelled, 50, "no ticket is lost");
        assert!(cancelled > 0, "shutdown caught work still in the queue");
        // Shutdown is idempotent and submissions after it resolve promptly.
        executor.shutdown();
        let late = executor.submit(
            &registers,
            99,
            0,
            election_participants(2),
            &FaultPlan::default(),
            CancelToken::none(),
        );
        assert!(matches!(late.wait(), ExecResult::Cancelled));
    }

    #[test]
    fn a_paused_pool_stages_the_whole_batch_before_running_any_of_it() {
        // Nothing runs until release(), so the in-flight high-water mark is
        // exactly the staged batch — the deterministic density measurement
        // the bench storm relies on. After release everything drains clean.
        let executor = Executor::new(ExecutorConfig::new(2).with_start_paused());
        let registers = Arc::new(SharedRegisters::new(4));
        let tickets: Vec<InFlight> = (0..40u64)
            .map(|key| {
                executor.submit(
                    &registers,
                    key,
                    key,
                    election_participants(3),
                    &FaultPlan::default(),
                    CancelToken::none(),
                )
            })
            .collect();
        let staged = executor.stats();
        assert_eq!(staged.in_flight, 40, "the paused pool holds everything");
        assert_eq!(staged.peak_in_flight, 40);
        assert!(
            tickets.iter().all(|t| t.try_wait().is_none()),
            "no instance may resolve before release"
        );
        executor.release();
        executor.release(); // idempotent
        for (key, ticket) in tickets.into_iter().enumerate() {
            match ticket.wait() {
                ExecResult::Completed(report) => {
                    assert_eq!(report.winners().len(), 1, "namespace {key}")
                }
                other => panic!("namespace {key}: unexpected {other:?}"),
            }
        }
        assert_eq!(executor.stats().in_flight, 0);
    }

    #[test]
    fn shutdown_resolves_tickets_staged_on_a_paused_pool() {
        // Shutdown must not deadlock against a pause: queued tasks drain to
        // Cancelled and the workers exit even though release() never ran.
        let executor = Executor::new(ExecutorConfig::new(2).with_start_paused());
        let registers = Arc::new(SharedRegisters::new(4));
        let ticket = executor.submit(
            &registers,
            0,
            0,
            election_participants(3),
            &FaultPlan::default(),
            CancelToken::none(),
        );
        executor.shutdown();
        assert!(matches!(ticket.wait(), ExecResult::Cancelled));
        assert_eq!(executor.stats().in_flight, 0);
    }

    #[test]
    fn a_panicking_task_poisons_only_its_ticket() {
        // Processor 0 of namespace 13 panics at its second operation; every
        // other instance on the same pool completes, and the workers survive
        // to serve submissions made afterwards.
        let executor = Executor::new(ExecutorConfig::new(2));
        let registers = Arc::new(SharedRegisters::new(4));
        let plan =
            FaultPlan::new(5).with_crash(CrashSpec::panic_proc(ProcId(0), 2).only_namespace(13));
        let poisoned = executor.submit(
            &registers,
            13,
            7,
            election_participants(4),
            &plan,
            CancelToken::none(),
        );
        let clean: Vec<InFlight> = (0..5u64)
            .map(|key| {
                executor.submit(
                    &registers,
                    key,
                    key,
                    election_participants(4),
                    &plan,
                    CancelToken::none(),
                )
            })
            .collect();
        assert!(matches!(poisoned.wait(), ExecResult::Panicked(_)));
        for (key, ticket) in clean.into_iter().enumerate() {
            match ticket.wait() {
                ExecResult::Completed(report) => {
                    assert_eq!(report.winners().len(), 1, "instance {key}")
                }
                other => panic!("instance {key}: unexpected {other:?}"),
            }
        }
        let after = executor.submit(
            &registers,
            50,
            1,
            election_participants(4),
            &plan,
            CancelToken::none(),
        );
        assert!(
            matches!(after.wait(), ExecResult::Completed(_)),
            "workers outlive a panicking task"
        );
        assert_eq!(executor.stats().in_flight, 0);
    }

    #[test]
    fn free_fault_counters_surface_only_when_a_plan_is_live() {
        let executor = Executor::new(ExecutorConfig::new(2));
        let registers = Arc::new(SharedRegisters::new(2));
        let clean = executor
            .submit(
                &registers,
                0,
                7,
                election_participants(4),
                &FaultPlan::default(),
                CancelToken::none(),
            )
            .wait();
        match clean {
            ExecResult::Completed(report) => assert_eq!(
                report.faults,
                FaultStats::default(),
                "a no-op plan reports no fault counters"
            ),
            other => panic!("unexpected {other:?}"),
        }
        let plan = FaultPlan::new(3).with_collect_failures(200, 2);
        let faulty = executor
            .submit(
                &registers,
                1,
                7,
                election_participants(4),
                &plan,
                CancelToken::none(),
            )
            .wait();
        match faulty {
            ExecResult::Completed(report) => {
                assert_eq!(report.winners().len(), 1);
                assert!(report.faults.ops > 0, "a live plan surfaces its counters");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_participant_lists_complete_immediately() {
        let executor = Executor::new(ExecutorConfig::new(1));
        let registers = Arc::new(SharedRegisters::new(1));
        let ticket = executor.submit(
            &registers,
            0,
            0,
            Vec::new(),
            &FaultPlan::default(),
            CancelToken::none(),
        );
        match ticket.wait() {
            ExecResult::Completed(report) => assert!(report.outcomes.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(executor.stats().in_flight, 0);
    }
}
