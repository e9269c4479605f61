//! A sharded front-end that serves many concurrent protocol instances.
//!
//! The repo's other crates run *one* election (or renaming) per execution;
//! this crate turns them into a **service**: callers submit instances —
//! `(key, system size, workload, seed)` — and the service multiplexes
//! thousands of them across a fixed pool of shard workers, each instance
//! executing on one of the pluggable [`backend`]s: the deterministic
//! simulator, or the async backend, whose shard worker steps every
//! participant's state machine itself ([`fle_runtime::run_inline`]) over one
//! namespaced [`fle_runtime::SharedRegisters`] bank, so all instances
//! contend on the same registers and a service runs on exactly its shard
//! threads, whatever the number of participants.
//!
//! Design:
//!
//! * **Sharding** — `instance key → shard` via a splitmix64 hash; each shard
//!   owns a bounded FIFO of submitted instances and one worker thread, so
//!   two instances on different shards run genuinely in parallel while a
//!   shard's own instances are serialized (per-key FIFO fairness).
//! * **Tickets** — [`ElectionService::submit`] is asynchronous: it enqueues
//!   and returns a [`Ticket`]; [`Ticket::wait`] blocks for that instance's
//!   [`InstanceResult`]. [`ElectionService::submit_wait`] is the synchronous
//!   convenience.
//! * **Admission control** — every shard queue is bounded
//!   ([`ServiceConfig::queue_capacity`]); a full queue applies the
//!   configured [`OverloadPolicy`]: shed (refuse with
//!   [`SubmitError::Overloaded`]), block the submitter (backpressure, with
//!   optional timeout), or drop the oldest queued job. Instances may carry a
//!   **deadline** ([`InstanceSpec::with_deadline`]), enforced both in-queue
//!   (expired jobs are skipped) and in-flight (a [`fle_model::CancelToken`]
//!   threaded through [`backend::InstanceBackend::run`]); either way the
//!   ticket resolves to [`SubmitError::DeadlineExceeded`].
//! * **Crash containment** — each instance runs under `catch_unwind`: a
//!   panicking instance (a protocol bug, or an injected
//!   [`fle_runtime::CrashMode::Panic`] fault) poisons only itself — its
//!   ticket resolves to [`SubmitError::InstanceFailed`], its status reports
//!   [`InstanceStatus::Failed`], its register namespace is retired — and the
//!   shard worker keeps draining its queue. Per-shard [`FailStats`] count
//!   the containments.
//! * **Fault injection** — [`ServiceConfig::with_fault_plan`] slides a
//!   [`fle_runtime::FaultyMemory`] under every instance of the *async*
//!   backend: seeded deterministic delays (latency only: the inline
//!   round-robin order is fixed), transient collect failures and
//!   crash-at-op-k, for robustness tests and overload benchmarks. (The sim
//!   backend ignores the plan: its memory is not the decorator-friendly
//!   register bank.)
//! * **Observability** — each shard carries an always-on
//!   [`fle_obs::ShardRecorder`] (disable with
//!   [`ServiceConfig::with_metrics`]): queue depth and high-water,
//!   admission-wait vs in-flight-run latency split, overload-policy
//!   outcomes, retirement lag, and fault counters surfaced from the
//!   backend. [`ElectionService::metrics_snapshot`] freezes them into a
//!   mergeable [`MetricsSnapshot`];
//!   [`ServiceStats::check_metrics`] cross-checks the per-shard sums
//!   against the aggregate counters.
//! * **Epoch-based retirement** — finished instances stay queryable via
//!   [`ElectionService::status`] for a bounded number of *epochs* (an epoch
//!   closes after [`ServiceConfig::epoch_size`] completions on that shard);
//!   once an instance's epoch falls out of the retention window, its record
//!   *and its registers in the shared bank* are purged, so a service
//!   that has processed a million instances holds state for only the recent
//!   window. Duplicate submission of a live (un-retired) key is rejected.
//!
//! # Example
//!
//! ```
//! use fle_service::{BackendKind, ElectionService, InstanceSpec, ServiceConfig};
//!
//! let service = ElectionService::new(ServiceConfig::new(2, BackendKind::Async));
//! let tickets: Vec<_> = (0..16)
//!     .map(|key| {
//!         service
//!             .submit(InstanceSpec::election(key, 4))
//!             .expect("fresh keys are accepted")
//!     })
//!     .collect();
//! for ticket in tickets {
//!     let result = ticket.wait().expect("the service completes every instance");
//!     assert!(result.winner().is_some(), "exactly one winner per instance");
//! }
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 16);
//! stats.check_invariant().expect("no instance is lost or double-counted");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod backend;

pub use admission::OverloadPolicy;
pub use backend::{AsyncBackend, BackendKind, InstanceBackend, RunOutput, SimBackend};
pub use fle_obs::{MetricsSnapshot, ShardSnapshot};

use admission::{AdmissionQueue, AdmitError};
use crossbeam_channel::{unbounded, Receiver, Sender};
use fle_model::{CancelToken, Outcome, ProcId};
use fle_obs::{FaultCounters, RunKind, ShardRecorder};
use fle_runtime::{FaultPlan, SharedRegisters};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of an [`ElectionService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards; each shard runs one worker thread.
    pub shards: usize,
    /// The execution backend instances run on.
    pub backend: BackendKind,
    /// Lock shards of the async backend's register bank.
    pub register_shards: usize,
    /// Completions per shard that close an epoch.
    pub epoch_size: usize,
    /// Closed epochs a finished instance stays queryable before its record
    /// and registers are purged.
    pub retained_epochs: u64,
    /// Bound of each shard's admission queue (jobs queued, not running).
    pub queue_capacity: usize,
    /// What a full shard queue does with new submissions.
    pub overload: OverloadPolicy,
    /// Optional deterministic fault injection under every instance of the
    /// async backend.
    pub fault_plan: Option<FaultPlan>,
    /// Whether each shard carries an always-on [`fle_obs::ShardRecorder`]
    /// (on by default; the overhead is a few relaxed atomics plus one
    /// uncontended mutex acquisition per instance).
    pub metrics: bool,
}

impl ServiceConfig {
    /// A service with `shards` workers on the given backend and default
    /// retirement settings (epochs of 64 completions, 2 epochs retained),
    /// queues of 1024 jobs with blocking backpressure, and no fault
    /// injection.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize, backend: BackendKind) -> Self {
        assert!(shards > 0, "a service needs at least one shard");
        ServiceConfig {
            shards,
            backend,
            register_shards: (shards * 4).max(16),
            epoch_size: 64,
            retained_epochs: 2,
            queue_capacity: 1024,
            overload: OverloadPolicy::default(),
            fault_plan: None,
            metrics: true,
        }
    }

    /// Set the register-bank lock shard count.
    #[must_use]
    pub fn with_register_shards(mut self, register_shards: usize) -> Self {
        self.register_shards = register_shards.max(1);
        self
    }

    /// Set completions per epoch.
    #[must_use]
    pub fn with_epoch_size(mut self, epoch_size: usize) -> Self {
        self.epoch_size = epoch_size.max(1);
        self
    }

    /// Set how many closed epochs a finished instance stays queryable.
    #[must_use]
    pub fn with_retained_epochs(mut self, retained_epochs: u64) -> Self {
        self.retained_epochs = retained_epochs;
        self
    }

    /// Bound each shard's admission queue (0 is clamped to 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity.max(1);
        self
    }

    /// Choose what a full shard queue does with new submissions.
    #[must_use]
    pub fn with_overload_policy(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Inject deterministic faults under every async-backend instance.
    ///
    /// The async backend steps an instance's participants in a fixed
    /// round-robin order on its shard worker, so the plan's delays add
    /// latency but never change the interleaving; its collect failures and
    /// crashes act as usual. Fault coverage under perturbed schedules comes
    /// from the gated explorer (the "gated, benign faults" and "gated,
    /// fail-stop" sweeps of `explore_smoke` in `fle-explore`).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Turn the per-shard metrics recorders on or off (on by default).
    #[must_use]
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }
}

/// The protocol family an instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's leader election: exactly one participant wins.
    Election,
    /// The paper's tight renaming: participants end with distinct names in
    /// `1..=participants`.
    Renaming,
}

/// One instance submitted to the service.
#[derive(Debug, Clone, Copy)]
pub struct InstanceSpec {
    /// Caller-chosen identity; also the register namespace on the async
    /// backend and the default seed.
    pub key: u64,
    /// System size (processors / replicas) of the instance.
    pub n: usize,
    /// How many of the `n` processors participate (`1..=n`).
    pub participants: usize,
    /// Seed for the instance's randomness.
    pub seed: u64,
    /// The protocol family to run.
    pub workload: Workload,
    /// Submit-to-completion budget. Expired in queue → skipped; expired in
    /// flight → cancelled. Either way the ticket resolves to
    /// [`SubmitError::DeadlineExceeded`]. `None` = no deadline.
    pub deadline: Option<Duration>,
}

impl InstanceSpec {
    /// A leader election among all `n` processors, seeded by the key.
    pub fn election(key: u64, n: usize) -> Self {
        InstanceSpec {
            key,
            n,
            participants: n,
            seed: key,
            workload: Workload::Election,
            deadline: None,
        }
    }

    /// A tight renaming among all `n` processors, seeded by the key.
    pub fn renaming(key: u64, n: usize) -> Self {
        InstanceSpec {
            workload: Workload::Renaming,
            ..InstanceSpec::election(key, n)
        }
    }

    /// Set the seed explicitly (the default is the key).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of participants (`k ≤ n`).
    #[must_use]
    pub fn with_participants(mut self, participants: usize) -> Self {
        self.participants = participants;
        self
    }

    /// Give the instance a submit-to-completion deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The completed execution of one instance.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// The instance's key.
    pub key: u64,
    /// Outcome of every participant.
    pub outcomes: BTreeMap<ProcId, Outcome>,
    /// Submit-to-completion latency (queueing included).
    pub latency: Duration,
}

impl InstanceResult {
    /// The unique winner of an election instance, if exactly one exists.
    pub fn winner(&self) -> Option<ProcId> {
        let mut winners = self
            .outcomes
            .iter()
            .filter(|(_, o)| o.is_win())
            .map(|(p, _)| *p);
        match (winners.next(), winners.next()) {
            (Some(p), None) => Some(p),
            _ => None,
        }
    }

    /// The names assigned by a renaming instance.
    pub fn names(&self) -> BTreeMap<ProcId, usize> {
        self.outcomes
            .iter()
            .filter_map(|(p, o)| match o {
                Outcome::Name(u) => Some((*p, *u)),
                _ => None,
            })
            .collect()
    }
}

/// Why a submission was rejected, or why a ticket resolved without a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The key is already queued, running, or finished within the retention
    /// window.
    DuplicateKey(u64),
    /// The spec is malformed (zero system, participants out of range).
    InvalidSpec(String),
    /// The shard's queue is full and the overload policy refused the job
    /// (shed, block timeout, or — on a ticket — displaced by a newer job
    /// under [`OverloadPolicy::DropOldest`]).
    Overloaded,
    /// The instance's deadline passed before it finished (in queue or in
    /// flight).
    DeadlineExceeded(u64),
    /// The instance panicked; the failure was contained to this instance.
    InstanceFailed(u64),
    /// The service shut down before the instance ran.
    ServiceShutdown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::DuplicateKey(key) => write!(f, "instance {key} already exists"),
            SubmitError::InvalidSpec(reason) => write!(f, "invalid instance spec: {reason}"),
            SubmitError::Overloaded => write!(f, "the shard queue is full"),
            SubmitError::DeadlineExceeded(key) => {
                write!(f, "instance {key} missed its deadline")
            }
            SubmitError::InstanceFailed(key) => {
                write!(f, "instance {key} panicked (contained to this instance)")
            }
            SubmitError::ServiceShutdown => write!(f, "the service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What the service knows about a key right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceStatus {
    /// Never submitted, or finished and already retired.
    Unknown,
    /// Waiting in its shard's queue.
    Queued,
    /// Currently executing on the shard worker.
    Running,
    /// Finished within the retention window.
    Done {
        /// The unique winner, for election workloads.
        winner: Option<ProcId>,
    },
    /// Panicked or was cancelled in flight; retained like a completion, then
    /// retired.
    Failed,
}

/// A claim on one submitted instance's result.
#[derive(Debug)]
pub struct Ticket {
    /// The instance's key.
    pub key: u64,
    rx: Receiver<Result<InstanceResult, SubmitError>>,
}

impl Ticket {
    /// Block until the instance resolves.
    ///
    /// # Errors
    /// [`SubmitError::ServiceShutdown`] when the service shut down with the
    /// instance still queued, [`SubmitError::DeadlineExceeded`] when its
    /// deadline passed first, [`SubmitError::InstanceFailed`] when it
    /// panicked, and [`SubmitError::Overloaded`] when a
    /// [`OverloadPolicy::DropOldest`] queue displaced it.
    pub fn wait(self) -> Result<InstanceResult, SubmitError> {
        match self.rx.recv() {
            Ok(resolution) => resolution,
            Err(_) => Err(SubmitError::ServiceShutdown),
        }
    }
}

/// Per-shard failure-containment counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailStats {
    /// Instance panics contained by the worker's `catch_unwind`.
    pub panics: u64,
    /// Instances cancelled in flight by their deadline.
    pub cancelled_in_flight: u64,
    /// Instances whose deadline had already passed when dequeued.
    pub expired_in_queue: u64,
}

impl FailStats {
    fn merge(&mut self, other: &FailStats) {
        self.panics += other.panics;
        self.cancelled_in_flight += other.cancelled_in_flight;
        self.expired_in_queue += other.expired_in_queue;
    }
}

/// Aggregate counters returned by [`ElectionService::shutdown`] (and
/// snapshotted by [`ElectionService::stats`]).
///
/// Every *admitted* submission ends in exactly one of four ways, which is
/// the conservation law [`ServiceStats::check_invariant`] asserts:
/// `submitted = completed + failed + shed + drained`. Refused submissions
/// (`rejected`) never enter the pipeline and are counted separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions admitted to a shard queue.
    pub submitted: u64,
    /// Instances completed across all shards.
    pub completed: u64,
    /// Instances that panicked or were cancelled in flight.
    pub failed: u64,
    /// Admitted jobs that never ran: displaced by
    /// [`OverloadPolicy::DropOldest`] or expired in queue.
    pub shed: u64,
    /// Admitted jobs failed by shutdown before they started.
    pub drained: u64,
    /// Submissions refused at the door (`Overloaded` from a shed or a block
    /// timeout). Not part of `submitted`.
    pub rejected: u64,
    /// Finished instances whose records and registers were purged.
    pub retired: u64,
    /// Epochs closed across all shards.
    pub epochs_closed: u64,
    /// Namespaces still live in the shared register bank (0 unless the
    /// retention window still covers recent instances).
    pub live_register_namespaces: usize,
    /// Highest queue depth any shard reached (≤ queue capacity, always).
    pub max_queue_depth: usize,
    /// Failure-containment counters, merged over all shards.
    pub fail: FailStats,
}

impl ServiceStats {
    /// Check the conservation law `submitted = completed + failed + shed +
    /// drained`. Holds at every quiescent point (in particular after
    /// [`ElectionService::shutdown`]); a violation means the service lost or
    /// double-counted an instance.
    ///
    /// # Errors
    /// Returns a description of the imbalance.
    pub fn check_invariant(&self) -> Result<(), String> {
        let accounted = self.completed + self.failed + self.shed + self.drained;
        if self.submitted == accounted {
            Ok(())
        } else {
            Err(format!(
                "instance accounting imbalance: submitted {} ≠ completed {} + failed {} + \
                 shed {} + drained {} = {}",
                self.submitted, self.completed, self.failed, self.shed, self.drained, accounted
            ))
        }
    }

    /// Cross-check a [`MetricsSnapshot`] against these counters: the
    /// per-shard sums of the observability layer must equal the aggregate
    /// bookkeeping, and every started run must have exactly one wait and
    /// one run sample. Holds at quiescence (after
    /// [`ElectionService::shutdown_with_metrics`]); a mismatch means the
    /// recorders and the shard states disagree about what happened.
    ///
    /// # Errors
    /// Returns a description of every field that disagrees.
    pub fn check_metrics(&self, metrics: &MetricsSnapshot) -> Result<(), String> {
        let total = metrics.aggregate();
        let mut mismatches = Vec::new();
        let mut check = |label: &str, recorded: u64, stats: u64| {
            if recorded != stats {
                mismatches.push(format!("{label}: metrics {recorded} ≠ stats {stats}"));
            }
        };
        check("admitted", total.admitted, self.submitted);
        check("completed", total.completed, self.completed);
        check("failed", total.failed(), self.failed);
        check("shed", total.shed(), self.shed);
        check("drained", total.drained, self.drained);
        check("rejected", total.rejected(), self.rejected);
        check("retired", total.retired, self.retired);
        check("epochs_closed", total.epochs_closed, self.epochs_closed);
        check(
            "cancelled_in_flight",
            total.cancelled_in_flight,
            self.fail.cancelled_in_flight,
        );
        check("panics", total.panics, self.fail.panics);
        check(
            "expired_in_queue",
            total.expired_in_queue,
            self.fail.expired_in_queue,
        );
        check(
            "queue_high_water",
            total.queue_high_water as u64,
            self.max_queue_depth as u64,
        );
        // Every started run (completed, cancelled in flight, or panicked)
        // contributes exactly one wait and one run sample; expired-in-queue
        // jobs never start and are counted under `shed` instead.
        check(
            "wait samples",
            total.queue_wait_micros.count(),
            self.completed + self.failed,
        );
        check(
            "run samples",
            total.run_micros.count(),
            self.completed + self.failed,
        );
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches.join("; "))
        }
    }
}

/// The lifecycle phase of a tracked instance.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Queued,
    Running,
    Done { winner: Option<ProcId> },
    Failed,
}

/// Per-shard bookkeeping shared between `submit`, `status` and the worker.
#[derive(Debug, Default)]
struct ShardState {
    phases: HashMap<u64, Phase>,
    /// Finished instances in completion order: `(epoch, key, seq)`, where
    /// `seq` is the terminal sequence number at completion — retirement lag
    /// is `terminal_seq_at_purge - seq`.
    retire_queue: VecDeque<(u64, u64, u64)>,
    epoch: u64,
    completed_in_epoch: usize,
    /// Terminal events (completions + failures) seen on this shard, ever.
    terminal_seq: u64,
    submitted: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    drained: u64,
    rejected: u64,
    retired: u64,
    fail: FailStats,
}

struct Job {
    spec: InstanceSpec,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: Sender<Result<InstanceResult, SubmitError>>,
}

/// The sharded multi-instance service. See the crate docs for the design.
pub struct ElectionService {
    config: ServiceConfig,
    queues: Vec<Arc<AdmissionQueue<Job>>>,
    workers: Vec<JoinHandle<()>>,
    states: Vec<Arc<Mutex<ShardState>>>,
    registers: Arc<SharedRegisters>,
    recorders: Vec<Option<Arc<ShardRecorder>>>,
}

impl ElectionService {
    /// Start the service: one worker thread per shard, all sharing one
    /// register bank (used by the async backend).
    pub fn new(config: ServiceConfig) -> Self {
        let registers = Arc::new(SharedRegisters::new(config.register_shards));
        let mut queues = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        let mut states = Vec::with_capacity(config.shards);
        let mut recorders = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let queue = Arc::new(AdmissionQueue::new(config.queue_capacity, config.overload));
            let state = Arc::new(Mutex::new(ShardState::default()));
            let recorder = config.metrics.then(|| Arc::new(ShardRecorder::new(shard)));
            let worker_queue = Arc::clone(&queue);
            let worker_state = Arc::clone(&state);
            let worker_registers = Arc::clone(&registers);
            let worker_config = config.clone();
            let worker_recorder = recorder.clone();
            let handle = std::thread::Builder::new()
                .name(format!("fle-service-shard-{shard}"))
                .spawn(move || {
                    shard_worker(
                        worker_queue,
                        worker_state,
                        worker_registers,
                        worker_config,
                        worker_recorder,
                    );
                })
                .expect("spawning a shard worker never fails on supported platforms");
            queues.push(queue);
            workers.push(handle);
            states.push(state);
            recorders.push(recorder);
        }
        ElectionService {
            config,
            queues,
            workers,
            states,
            registers,
            recorders,
        }
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared register bank (the async backend's state). Exposed so
    /// tests and benchmarks can assert isolation and retirement.
    pub fn registers(&self) -> &Arc<SharedRegisters> {
        &self.registers
    }

    fn shard_of(&self, key: u64) -> usize {
        // Reduce in u64 *before* narrowing: `hash as usize % len` would
        // keep only the low 32 bits of the hash on 32-bit targets, halving
        // the entropy the shard split sees.
        (fle_model::splitmix64(key) % self.queues.len() as u64) as usize
    }

    /// Enqueue an instance; returns a [`Ticket`] for its result.
    ///
    /// Under [`OverloadPolicy::Block`] this call applies backpressure: it
    /// parks the submitting thread until its shard has queue space (or the
    /// policy's timeout passes).
    ///
    /// # Errors
    /// [`SubmitError::InvalidSpec`] for malformed specs,
    /// [`SubmitError::DuplicateKey`] when the key is live or retained,
    /// [`SubmitError::Overloaded`] when the shard queue refused the job, and
    /// [`SubmitError::ServiceShutdown`] when the service is shutting down.
    pub fn submit(&self, spec: InstanceSpec) -> Result<Ticket, SubmitError> {
        if spec.n == 0 {
            return Err(SubmitError::InvalidSpec(
                "an instance needs at least one processor".to_string(),
            ));
        }
        if spec.participants == 0 || spec.participants > spec.n {
            return Err(SubmitError::InvalidSpec(format!(
                "participants must lie in 1..={}, got {}",
                spec.n, spec.participants
            )));
        }
        let shard = self.shard_of(spec.key);
        {
            // Reserve the key and count the admission attempt before the
            // queue sees the job, so a racing duplicate is refused even
            // while this submission is still blocked on backpressure.
            let mut state = lock(&self.states[shard]);
            if state.phases.contains_key(&spec.key) {
                return Err(SubmitError::DuplicateKey(spec.key));
            }
            state.phases.insert(spec.key, Phase::Queued);
            state.submitted += 1;
        }
        let submitted = Instant::now();
        let (reply, rx) = unbounded();
        let job = Job {
            spec,
            submitted,
            deadline: spec.deadline.map(|d| submitted + d),
            reply,
        };
        match self.queues[shard].push(job) {
            Ok(receipt) => {
                if let Some(recorder) = &self.recorders[shard] {
                    recorder.record_admitted(receipt.depth, receipt.blocked);
                }
                if let Some(displaced) = receipt.displaced {
                    // DropOldest: the displaced job was admitted, so it ends
                    // as shed — its ticket resolves to Overloaded.
                    {
                        let mut state = lock(&self.states[shard]);
                        state.phases.remove(&displaced.spec.key);
                        state.shed += 1;
                    }
                    if let Some(recorder) = &self.recorders[shard] {
                        recorder.record_displaced();
                    }
                    let _ = displaced.reply.send(Err(SubmitError::Overloaded));
                }
                Ok(Ticket { key: spec.key, rx })
            }
            Err(refusal) => {
                let (error, key) = match &refusal {
                    AdmitError::Overloaded(job) => (SubmitError::Overloaded, job.spec.key),
                    AdmitError::Closed(job) => (SubmitError::ServiceShutdown, job.spec.key),
                };
                let mut state = lock(&self.states[shard]);
                state.phases.remove(&key);
                // The job never entered the pipeline: undo the admission
                // count and book the refusal separately.
                state.submitted -= 1;
                if matches!(error, SubmitError::Overloaded) {
                    state.rejected += 1;
                    if let Some(recorder) = &self.recorders[shard] {
                        // Only Shed refuses at the door instantly; an
                        // Overloaded refusal under Block means its timeout
                        // expired (DropOldest never refuses).
                        match self.config.overload {
                            OverloadPolicy::Shed => recorder.record_rejected_shed(),
                            _ => recorder.record_rejected_block_timeout(),
                        }
                    }
                }
                Err(error)
            }
        }
    }

    /// Submit and block for the result.
    ///
    /// # Errors
    /// Propagates the errors of [`ElectionService::submit`] and
    /// [`Ticket::wait`].
    pub fn submit_wait(&self, spec: InstanceSpec) -> Result<InstanceResult, SubmitError> {
        self.submit(spec)?.wait()
    }

    /// What the service currently knows about `key`. Finished instances
    /// answer [`InstanceStatus::Done`] (or [`InstanceStatus::Failed`]) until
    /// their epoch is retired, then [`InstanceStatus::Unknown`].
    pub fn status(&self, key: u64) -> InstanceStatus {
        let state = lock(&self.states[self.shard_of(key)]);
        match state.phases.get(&key) {
            None => InstanceStatus::Unknown,
            Some(Phase::Queued) => InstanceStatus::Queued,
            Some(Phase::Running) => InstanceStatus::Running,
            Some(Phase::Done { winner }) => InstanceStatus::Done { winner: *winner },
            Some(Phase::Failed) => InstanceStatus::Failed,
        }
    }

    /// A snapshot of the aggregate counters. Exact at quiescence (nothing
    /// queued or running); transiently, an admitted-but-unfinished instance
    /// is counted in `submitted` only.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = ServiceStats {
            live_register_namespaces: self.registers.live_namespaces(),
            ..ServiceStats::default()
        };
        for state in &self.states {
            let state = lock(state);
            stats.submitted += state.submitted;
            stats.completed += state.completed;
            stats.failed += state.failed;
            stats.shed += state.shed;
            stats.drained += state.drained;
            stats.rejected += state.rejected;
            stats.retired += state.retired;
            stats.epochs_closed += state.epoch;
            stats.fail.merge(&state.fail);
        }
        for queue in &self.queues {
            stats.max_queue_depth = stats.max_queue_depth.max(queue.max_depth());
        }
        stats
    }

    /// Freeze every shard's recorder into a mergeable [`MetricsSnapshot`]
    /// (live queue depths included), or `None` when metrics are disabled.
    /// Counters are exact at quiescence; taken mid-flight they are a
    /// consistent-enough view for progress reports.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let per_shard = self
            .recorders
            .iter()
            .zip(&self.queues)
            .map(|(recorder, queue)| {
                recorder
                    .as_ref()
                    .map(|recorder| recorder.snapshot(queue.depth()))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(MetricsSnapshot { per_shard })
    }

    /// Stop the service: in-flight instances finish, queued-but-unstarted
    /// jobs are failed promptly (their tickets resolve to
    /// [`SubmitError::ServiceShutdown`] and count as `drained`), workers are
    /// joined, and the final counters are returned.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close_and_join();
        self.stats()
    }

    /// [`ElectionService::shutdown`], also returning the final
    /// [`MetricsSnapshot`] (taken after the drain, so shutdown-drained jobs
    /// are included; `None` when metrics are disabled).
    pub fn shutdown_with_metrics(mut self) -> (ServiceStats, Option<MetricsSnapshot>) {
        self.close_and_join();
        (self.stats(), self.metrics_snapshot())
    }

    /// Close every queue (failing unstarted jobs) and join the workers.
    /// Idempotent: the second call finds closed queues and no workers.
    fn close_and_join(&mut self) {
        for (shard, queue) in self.queues.iter().enumerate() {
            let drained = queue.close();
            if drained.is_empty() {
                continue;
            }
            {
                let mut state = lock(&self.states[shard]);
                for job in &drained {
                    state.phases.remove(&job.spec.key);
                    state.drained += 1;
                }
            }
            if let Some(recorder) = &self.recorders[shard] {
                recorder.record_drained(drained.len() as u64);
            }
            for job in drained {
                let _ = job.reply.send(Err(SubmitError::ServiceShutdown));
            }
        }
        for worker in std::mem::take(&mut self.workers) {
            worker
                .join()
                .expect("shard workers contain instance panics and never die");
        }
    }
}

impl Drop for ElectionService {
    /// Dropping the service without [`ElectionService::shutdown`] still
    /// fails queued jobs promptly and joins the workers (in-flight work
    /// finishes first).
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn lock(state: &Arc<Mutex<ShardState>>) -> std::sync::MutexGuard<'_, ShardState> {
    state
        .lock()
        .expect("shard bookkeeping never panics while locked")
}

/// Record a terminal event (`phase` entry stays queryable until retirement)
/// and advance the epoch machinery.
fn record_terminal(
    state: &mut ShardState,
    config: &ServiceConfig,
    registers: &SharedRegisters,
    recorder: Option<&ShardRecorder>,
    key: u64,
    phase: Phase,
) {
    let epoch = state.epoch;
    state.terminal_seq += 1;
    let seq = state.terminal_seq;
    state.phases.insert(key, phase);
    state.retire_queue.push_back((epoch, key, seq));
    state.completed_in_epoch += 1;
    if state.completed_in_epoch >= config.epoch_size {
        state.epoch += 1;
        state.completed_in_epoch = 0;
        if let Some(recorder) = recorder {
            recorder.record_epoch_closed();
        }
        // Everything that finished more than `retained_epochs` closed epochs
        // ago leaves the status table and the register bank.
        while let Some(&(done_epoch, old_key, done_seq)) = state.retire_queue.front() {
            if done_epoch + config.retained_epochs > state.epoch {
                break;
            }
            state.retire_queue.pop_front();
            state.phases.remove(&old_key);
            registers.retire(old_key);
            state.retired += 1;
            if let Some(recorder) = recorder {
                // Retirement lag: terminal events that happened on this
                // shard between the instance finishing and its purge.
                recorder.record_retirement(state.terminal_seq - done_seq);
            }
        }
    }
}

/// One shard's worker loop: execute jobs FIFO under deadline and panic
/// containment, record completions, close epochs and purge retired
/// instances (records + registers).
fn shard_worker(
    queue: Arc<AdmissionQueue<Job>>,
    state: Arc<Mutex<ShardState>>,
    registers: Arc<SharedRegisters>,
    config: ServiceConfig,
    recorder: Option<Arc<ShardRecorder>>,
) {
    let backend = config.backend.build(&registers, config.fault_plan.as_ref());
    while let Some(job) = queue.pop() {
        let key = job.spec.key;
        let dequeued = Instant::now();
        let wait_micros = (dequeued - job.submitted).as_micros() as u64;

        // Skip jobs whose deadline passed while they queued.
        if job.deadline.is_some_and(|deadline| dequeued >= deadline) {
            {
                let mut state = lock(&state);
                state.phases.remove(&key);
                state.shed += 1;
                state.fail.expired_in_queue += 1;
            }
            if let Some(recorder) = &recorder {
                recorder.record_expired_in_queue();
            }
            let _ = job.reply.send(Err(SubmitError::DeadlineExceeded(key)));
            continue;
        }

        lock(&state).phases.insert(key, Phase::Running);
        let cancel = match job.deadline {
            Some(deadline) => CancelToken::new().with_deadline(deadline),
            None => CancelToken::none(),
        };
        // Contain instance panics (protocol bugs, injected crashes): the
        // panic poisons only this instance; the worker keeps draining.
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| backend.run(&job.spec, &cancel)));
        let run_micros = dequeued.elapsed().as_micros() as u64;
        let observe = |kind: RunKind| {
            if let Some(recorder) = &recorder {
                recorder.record_run(wait_micros, run_micros, kind);
            }
        };
        match run {
            Ok(Some(output)) => {
                let result = InstanceResult {
                    key,
                    outcomes: output.outcomes,
                    latency: job.submitted.elapsed(),
                };
                let winner = result.winner();
                observe(RunKind::Completed);
                if let Some(recorder) = &recorder {
                    let faults = output.faults;
                    recorder.record_faults(&FaultCounters {
                        ops: faults.ops,
                        delays: faults.delays,
                        delay_micros: faults.delay_micros,
                        collect_failures: faults.collect_failures,
                        crashes: faults.crashes,
                    });
                }
                // Record completion *before* releasing the ticket, so a
                // caller that has seen its result also sees `Done` in
                // `status` (until retired).
                {
                    let mut state = lock(&state);
                    state.completed += 1;
                    record_terminal(
                        &mut state,
                        &config,
                        &registers,
                        recorder.as_deref(),
                        key,
                        Phase::Done { winner },
                    );
                }
                let _ = job.reply.send(Ok(result));
            }
            Ok(None) => {
                // The deadline tripped mid-run; the namespace may hold a
                // partial execution's registers — retire it now.
                registers.retire(key);
                observe(RunKind::CancelledInFlight);
                {
                    let mut state = lock(&state);
                    state.failed += 1;
                    state.fail.cancelled_in_flight += 1;
                    record_terminal(
                        &mut state,
                        &config,
                        &registers,
                        recorder.as_deref(),
                        key,
                        Phase::Failed,
                    );
                }
                let _ = job.reply.send(Err(SubmitError::DeadlineExceeded(key)));
            }
            Err(_panic) => {
                registers.retire(key);
                observe(RunKind::Panicked);
                {
                    let mut state = lock(&state);
                    state.failed += 1;
                    state.fail.panics += 1;
                    record_terminal(
                        &mut state,
                        &config,
                        &registers,
                        recorder.as_deref(),
                        key,
                        Phase::Failed,
                    );
                }
                let _ = job.reply.send(Err(SubmitError::InstanceFailed(key)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_runtime::CrashSpec;

    /// A fault plan that slows every async instance down to tens of
    /// milliseconds — long enough that work submitted behind it is
    /// deterministically still queued when the test acts.
    fn slow_plan() -> FaultPlan {
        FaultPlan::new(11).with_delays(1000, 4_000)
    }

    /// Park until the shard worker has popped `key` and marked it running.
    ///
    /// Replaces the fixed `sleep(5ms)` these tests used to lean on: a sleep
    /// is a race (a stalled CI worker can take longer than any constant),
    /// while the status poll observes the exact transition the test needs
    /// and returns as soon as it happens.
    fn wait_until_running(service: &ElectionService, key: u64) {
        while service.status(key) != InstanceStatus::Running {
            std::thread::yield_now();
        }
    }

    #[test]
    fn submit_validates_specs() {
        let service = ElectionService::new(ServiceConfig::new(1, BackendKind::Sim));
        assert!(matches!(
            service.submit(InstanceSpec::election(0, 0)),
            Err(SubmitError::InvalidSpec(_))
        ));
        assert!(matches!(
            service.submit(InstanceSpec::election(0, 4).with_participants(5)),
            Err(SubmitError::InvalidSpec(_))
        ));
        service.shutdown();
    }

    #[test]
    fn duplicate_keys_are_rejected_while_live() {
        let service = ElectionService::new(ServiceConfig::new(1, BackendKind::Sim));
        let ticket = service.submit(InstanceSpec::election(7, 4)).unwrap();
        assert!(matches!(
            service.submit(InstanceSpec::election(7, 4)),
            Err(SubmitError::DuplicateKey(7))
        ));
        ticket.wait().unwrap();
        // Still within the retention window: a resubmit stays rejected.
        assert!(matches!(
            service.submit(InstanceSpec::election(7, 4)),
            Err(SubmitError::DuplicateKey(7))
        ));
        service.shutdown();
    }

    #[test]
    fn statuses_progress_to_done_and_then_retire() {
        let config = ServiceConfig::new(1, BackendKind::Async)
            .with_epoch_size(2)
            .with_retained_epochs(1);
        let service = ElectionService::new(config);
        assert_eq!(service.status(0), InstanceStatus::Unknown);

        let first = service.submit_wait(InstanceSpec::election(0, 3)).unwrap();
        assert!(matches!(
            service.status(0),
            InstanceStatus::Done { winner: Some(_) }
        ));
        assert_eq!(
            service.status(0),
            InstanceStatus::Done {
                winner: first.winner()
            }
        );

        // Three more completions close two epochs of size 2; instance 0's
        // epoch falls out of the 1-epoch retention window and is purged —
        // record and registers both.
        for key in 1..=3 {
            service.submit_wait(InstanceSpec::election(key, 3)).unwrap();
        }
        assert_eq!(service.status(0), InstanceStatus::Unknown);
        assert!(
            service
                .registers()
                .snapshot(0, fle_model::InstanceId::Contended)
                .is_empty(),
            "retired namespaces leave no registers behind"
        );
        // A retired key may be reused.
        service.submit_wait(InstanceSpec::election(0, 3)).unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.completed, 5);
        assert!(stats.retired >= 2);
        assert!(stats.epochs_closed >= 2);
        stats.check_invariant().unwrap();
    }

    #[test]
    fn a_storm_of_async_instances_each_elects_one_winner() {
        // Each shard worker steps its instances' participants itself, so
        // 200 instances of 4 participants run on the service's 4 threads.
        let service = ElectionService::new(ServiceConfig::new(4, BackendKind::Async));
        let tickets: Vec<Ticket> = (0..200)
            .map(|key| service.submit(InstanceSpec::election(key, 4)).unwrap())
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        for ticket in tickets {
            let result = ticket.wait().unwrap();
            assert!(seen.insert(result.key), "no duplicate results");
            assert_eq!(result.outcomes.len(), 4);
            assert!(result.winner().is_some(), "instance {}", result.key);
        }
        assert_eq!(seen.len(), 200, "no lost results");
        let stats = service.shutdown();
        assert_eq!(stats.completed, 200);
        assert_eq!(stats.submitted, 200);
        stats.check_invariant().unwrap();
    }

    #[test]
    fn the_async_backend_contains_a_panicking_instance() {
        // A crash-at-op plan scoped to one key: that instance's participant
        // panics on the shard worker, and the service's containment turns
        // it into InstanceFailed — all other keys complete. The crash fires
        // at op 1, which every participant performs (processor 0 can lose
        // after a single collect).
        let plan =
            FaultPlan::new(5).with_crash(CrashSpec::panic_proc(ProcId(0), 1).only_namespace(3));
        let config = ServiceConfig::new(2, BackendKind::Async).with_fault_plan(plan);
        let service = ElectionService::new(config);
        let tickets: Vec<Ticket> = (0..8)
            .map(|key| service.submit(InstanceSpec::election(key, 4)).unwrap())
            .collect();
        for (key, ticket) in tickets.into_iter().enumerate() {
            if key == 3 {
                assert_eq!(ticket.wait().unwrap_err(), SubmitError::InstanceFailed(3));
                assert_eq!(service.status(3), InstanceStatus::Failed);
            } else {
                assert!(ticket.wait().is_ok(), "key {key}");
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 7);
        assert_eq!(stats.failed, 1);
        stats.check_invariant().unwrap();
    }

    #[test]
    fn renaming_instances_return_distinct_tight_names() {
        let service = ElectionService::new(ServiceConfig::new(2, BackendKind::Async));
        for key in 0..8 {
            let result = service.submit_wait(InstanceSpec::renaming(key, 4)).unwrap();
            let names: std::collections::BTreeSet<usize> =
                result.names().values().copied().collect();
            assert_eq!(names.len(), 4);
            assert!(names.iter().all(|&u| (1..=4).contains(&u)));
        }
        service.shutdown();
    }

    #[test]
    fn shutdown_finishes_in_flight_work_but_fails_queued_tickets_promptly() {
        // One shard; the fault plan makes the first instance take tens of
        // milliseconds, so the two behind it are still queued at shutdown.
        let config = ServiceConfig::new(1, BackendKind::Async).with_fault_plan(slow_plan());
        let service = ElectionService::new(config);
        let first = service.submit(InstanceSpec::election(0, 4)).unwrap();
        let queued: Vec<Ticket> = (1..3)
            .map(|key| service.submit(InstanceSpec::election(key, 4)).unwrap())
            .collect();
        wait_until_running(&service, 0);
        let stats = service.shutdown();
        assert!(
            first.wait().is_ok(),
            "in-flight work is finished, not dropped"
        );
        for ticket in queued {
            assert_eq!(
                ticket.wait().unwrap_err(),
                SubmitError::ServiceShutdown,
                "queued-but-unstarted tickets resolve promptly"
            );
        }
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.drained, 2);
        assert_eq!(stats.submitted, 3);
        stats.check_invariant().unwrap();
    }

    #[test]
    fn shed_policy_refuses_when_the_queue_is_full() {
        let config = ServiceConfig::new(1, BackendKind::Async)
            .with_fault_plan(slow_plan())
            .with_queue_capacity(1)
            .with_overload_policy(OverloadPolicy::Shed);
        let service = ElectionService::new(config);
        let running = service.submit(InstanceSpec::election(0, 4)).unwrap();
        wait_until_running(&service, 0);
        let queued = service.submit(InstanceSpec::election(1, 4)).unwrap();
        assert_eq!(
            service.submit(InstanceSpec::election(2, 4)).unwrap_err(),
            SubmitError::Overloaded
        );
        // The refused key never entered the pipeline and may be resubmitted
        // once there is room.
        assert_eq!(service.status(2), InstanceStatus::Unknown);
        assert!(running.wait().is_ok());
        assert!(queued.wait().is_ok());
        let (stats, metrics) = service.shutdown_with_metrics();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, 2);
        assert!(stats.max_queue_depth <= 1);
        stats.check_invariant().unwrap();
        let metrics = metrics.expect("metrics are on by default");
        stats.check_metrics(&metrics).unwrap();
        assert_eq!(metrics.aggregate().rejected_shed, 1, "shed at the door");
    }

    #[test]
    fn block_policy_times_out_into_overloaded() {
        let config = ServiceConfig::new(1, BackendKind::Async)
            .with_fault_plan(slow_plan())
            .with_queue_capacity(1)
            .with_overload_policy(OverloadPolicy::Block {
                timeout: Some(Duration::from_millis(5)),
            });
        let service = ElectionService::new(config);
        let running = service.submit(InstanceSpec::election(0, 4)).unwrap();
        wait_until_running(&service, 0);
        let queued = service.submit(InstanceSpec::election(1, 4)).unwrap();
        let started = Instant::now();
        assert_eq!(
            service.submit(InstanceSpec::election(2, 4)).unwrap_err(),
            SubmitError::Overloaded
        );
        assert!(
            started.elapsed() >= Duration::from_millis(5),
            "backpressure"
        );
        assert!(running.wait().is_ok());
        assert!(queued.wait().is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.rejected, 1);
        stats.check_invariant().unwrap();
    }

    #[test]
    fn drop_oldest_displaces_the_queued_job() {
        let config = ServiceConfig::new(1, BackendKind::Async)
            .with_fault_plan(slow_plan())
            .with_queue_capacity(1)
            .with_overload_policy(OverloadPolicy::DropOldest);
        let service = ElectionService::new(config);
        let running = service.submit(InstanceSpec::election(0, 4)).unwrap();
        wait_until_running(&service, 0);
        let displaced = service.submit(InstanceSpec::election(1, 4)).unwrap();
        let fresh = service.submit(InstanceSpec::election(2, 4)).unwrap();
        assert_eq!(
            displaced.wait().unwrap_err(),
            SubmitError::Overloaded,
            "the displaced ticket resolves immediately"
        );
        assert!(running.wait().is_ok());
        assert!(fresh.wait().is_ok(), "the freshest job runs");
        let (stats, metrics) = service.shutdown_with_metrics();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.submitted, 3);
        stats.check_invariant().unwrap();
        let metrics = metrics.expect("metrics are on by default");
        stats.check_metrics(&metrics).unwrap();
        assert_eq!(
            metrics.aggregate().displaced,
            1,
            "drop-oldest displaced one"
        );
    }

    #[test]
    fn deadlines_expire_in_queue() {
        let config = ServiceConfig::new(1, BackendKind::Async).with_fault_plan(slow_plan());
        let service = ElectionService::new(config);
        let running = service.submit(InstanceSpec::election(0, 4)).unwrap();
        // Queued behind tens of milliseconds of work with a 1 ms budget.
        let doomed = service
            .submit(InstanceSpec::election(1, 4).with_deadline(Duration::from_millis(1)))
            .unwrap();
        assert_eq!(doomed.wait().unwrap_err(), SubmitError::DeadlineExceeded(1));
        assert!(running.wait().is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.fail.expired_in_queue, 1);
        assert_eq!(stats.shed, 1);
        stats.check_invariant().unwrap();
    }

    #[test]
    fn deadlines_cancel_in_flight_and_retire_the_namespace() {
        // The deadline trips while the instance runs: the shard worker polls
        // the token before every operation, stops, and the ticket resolves
        // DeadlineExceeded.
        let config = ServiceConfig::new(1, BackendKind::Async).with_fault_plan(slow_plan());
        let service = ElectionService::new(config);
        let doomed = service
            .submit(InstanceSpec::election(0, 4).with_deadline(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(doomed.wait().unwrap_err(), SubmitError::DeadlineExceeded(0));
        assert_eq!(service.status(0), InstanceStatus::Failed);
        assert_eq!(
            service.registers().live_namespaces(),
            0,
            "a cancelled instance's partial registers are retired"
        );
        let fresh = service.submit_wait(InstanceSpec::election(1, 4)).unwrap();
        assert!(fresh.winner().is_some(), "the shard keeps serving");
        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.fail.cancelled_in_flight, 1);
        assert_eq!(stats.completed, 1);
        stats.check_invariant().unwrap();
    }

    #[test]
    fn a_panicking_instance_is_contained_to_itself() {
        // Poison exactly one key: processor 0 panics at its first operation
        // of instance 13, and only there. Op 1 is the only one every
        // participant is sure to perform: processor 0 can find the door
        // closed at its first collect and lose right after it.
        let plan =
            FaultPlan::new(5).with_crash(CrashSpec::panic_proc(ProcId(0), 1).only_namespace(13));
        let config = ServiceConfig::new(1, BackendKind::Async).with_fault_plan(plan);
        let service = ElectionService::new(config);

        let poisoned = service.submit(InstanceSpec::election(13, 4)).unwrap();
        assert_eq!(
            poisoned.wait().unwrap_err(),
            SubmitError::InstanceFailed(13)
        );
        assert_eq!(service.status(13), InstanceStatus::Failed);
        assert_eq!(
            service.registers().live_namespaces(),
            0,
            "the panicked instance's namespace is retired"
        );

        // The worker survived: subsequent instances on the same shard
        // complete normally.
        for key in 0..5 {
            let result = service.submit_wait(InstanceSpec::election(key, 4)).unwrap();
            assert!(result.winner().is_some(), "instance {key}");
        }
        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.fail.panics, 1);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.submitted, 6);
        stats.check_invariant().unwrap();
    }

    #[test]
    fn racing_submitters_on_one_key_admit_exactly_one() {
        for kind in [BackendKind::Sim, BackendKind::Async] {
            let service = Arc::new(ElectionService::new(ServiceConfig::new(2, kind)));
            let barrier = Arc::new(std::sync::Barrier::new(8));
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        service.submit(InstanceSpec::election(99, 4))
                    })
                })
                .collect();
            let mut tickets = Vec::new();
            let mut duplicates = 0;
            for racer in racers {
                match racer.join().unwrap() {
                    Ok(ticket) => tickets.push(ticket),
                    Err(SubmitError::DuplicateKey(99)) => duplicates += 1,
                    Err(other) => panic!("{kind}: unexpected error {other}"),
                }
            }
            assert_eq!(tickets.len(), 1, "{kind}: exactly one admission");
            assert_eq!(duplicates, 7, "{kind}: the other seven see DuplicateKey");
            assert!(tickets.pop().unwrap().wait().is_ok(), "{kind}");
            let service = Arc::into_inner(service).expect("all racers joined");
            let stats = service.shutdown();
            assert_eq!(stats.submitted, 1, "{kind}");
            stats.check_invariant().unwrap();
        }
    }

    #[test]
    fn sequential_keys_spread_evenly_across_shards() {
        // Regression for the shard-routing truncation bug: the hash must be
        // reduced modulo the shard count in u64, not after an `as usize`
        // narrowing. 10k sequential keys over 8 shards must stay within 2×
        // of the mean occupancy (splitmix64 is much better than that; 2× is
        // the alarm threshold, not the expectation).
        let service = ElectionService::new(ServiceConfig::new(8, BackendKind::Sim));
        let mut occupancy = [0u64; 8];
        for key in 0..10_000u64 {
            occupancy[service.shard_of(key)] += 1;
        }
        let mean = 10_000.0 / 8.0;
        for (shard, &count) in occupancy.iter().enumerate() {
            assert!(
                (count as f64) <= 2.0 * mean && (count as f64) >= mean / 2.0,
                "shard {shard} holds {count} of 10000 keys (mean {mean})"
            );
        }

        // The same balance must show up in the per-shard metrics: run a
        // small storm and read each shard's admitted count from its
        // recorder.
        let tickets: Vec<Ticket> = (0..2000)
            .map(|key| service.submit(InstanceSpec::election(key, 2)).unwrap())
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let (stats, metrics) = service.shutdown_with_metrics();
        let metrics = metrics.expect("metrics are on by default");
        stats.check_metrics(&metrics).unwrap();
        let mean = 2000.0 / 8.0;
        for shard in &metrics.per_shard {
            assert!(
                (shard.admitted as f64) <= 2.0 * mean && (shard.admitted as f64) >= mean / 2.0,
                "shard {} admitted {} of 2000 (mean {mean})",
                shard.shard,
                shard.admitted
            );
        }
    }

    #[test]
    fn an_already_expired_deadline_resolves_without_running() {
        // Regression for the cancel-stride contract: a deadline that has
        // already passed at submission must resolve DeadlineExceeded
        // without the instance ever executing.
        let service = ElectionService::new(ServiceConfig::new(1, BackendKind::Sim));
        let doomed = service
            .submit(InstanceSpec::election(0, 8).with_deadline(Duration::ZERO))
            .unwrap();
        assert_eq!(doomed.wait().unwrap_err(), SubmitError::DeadlineExceeded(0));
        let (stats, metrics) = service.shutdown_with_metrics();
        assert_eq!(stats.completed, 0, "the expired instance never ran");
        assert_eq!(stats.fail.expired_in_queue, 1);
        assert_eq!(stats.shed, 1);
        stats.check_invariant().unwrap();
        stats.check_metrics(&metrics.unwrap()).unwrap();
    }

    #[test]
    fn metrics_snapshot_agrees_with_stats_after_a_storm() {
        let config = ServiceConfig::new(4, BackendKind::Async)
            .with_epoch_size(16)
            .with_retained_epochs(1);
        let service = ElectionService::new(config);
        let tickets: Vec<Ticket> = (0..300)
            .map(|key| service.submit(InstanceSpec::election(key, 4)).unwrap())
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let (stats, metrics) = service.shutdown_with_metrics();
        let metrics = metrics.expect("metrics are on by default");
        stats.check_invariant().unwrap();
        stats.check_metrics(&metrics).unwrap();
        let total = metrics.aggregate();
        assert_eq!(total.completed, 300);
        assert_eq!(total.queue_wait_micros.count(), 300);
        assert_eq!(total.run_micros.count(), 300);
        assert!(total.retired > 0, "epochs of 16 retire early instances");
        assert_eq!(
            total.retirement_lag.count(),
            total.retired,
            "every purge records its lag"
        );
        assert!(
            total.retirement_lag.max() >= 15,
            "a purged epoch's oldest instance waited a full epoch of terminals"
        );
    }

    #[test]
    fn metrics_can_be_disabled() {
        let service =
            ElectionService::new(ServiceConfig::new(1, BackendKind::Sim).with_metrics(false));
        service.submit_wait(InstanceSpec::election(0, 4)).unwrap();
        assert!(service.metrics_snapshot().is_none());
        let (stats, metrics) = service.shutdown_with_metrics();
        assert!(metrics.is_none(), "disabled metrics yield no snapshot");
        assert_eq!(stats.completed, 1);
        stats.check_invariant().unwrap();
    }

    #[test]
    fn fault_activity_surfaces_in_the_metrics() {
        let config = ServiceConfig::new(1, BackendKind::Async)
            .with_fault_plan(FaultPlan::new(9).with_delays(500, 100));
        let service = ElectionService::new(config);
        for key in 0..8 {
            service.submit_wait(InstanceSpec::election(key, 4)).unwrap();
        }
        let (stats, metrics) = service.shutdown_with_metrics();
        let metrics = metrics.expect("metrics are on by default");
        stats.check_metrics(&metrics).unwrap();
        let total = metrics.aggregate();
        assert!(
            total.faults.ops > 0,
            "the backend's fault counters reach the shard recorder"
        );
        assert!(total.faults.delays > 0, "the delay plan fired at 50%");
    }

    #[test]
    fn dropping_the_service_fails_queued_tickets() {
        let config = ServiceConfig::new(1, BackendKind::Async).with_fault_plan(slow_plan());
        let service = ElectionService::new(config);
        let first = service.submit(InstanceSpec::election(0, 4)).unwrap();
        let queued = service.submit(InstanceSpec::election(1, 4)).unwrap();
        wait_until_running(&service, 0);
        drop(service);
        assert!(first.wait().is_ok());
        assert_eq!(queued.wait().unwrap_err(), SubmitError::ServiceShutdown);
    }
}
