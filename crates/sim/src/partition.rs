//! The partitioned parallel simulator: one giant election across all cores.
//!
//! [`ParallelSimulator`] splits one simulation's `n` processors into
//! contiguous partitions ([`fle_model::PartitionMap`]), gives each partition
//! its own engine (message batch, step index, processor state) and advances
//! all partitions in deterministic **super-rounds**:
//!
//! 1. **Barrier (leader, serial):** apply the crashes due this round, one at
//!    a time in ascending victim order, stopping early if the last live
//!    participant dies (mirroring the sequential engine's check before every
//!    decision).
//! 2. **Round (workers, parallel):** every partition delivers **all** the
//!    messages routed to it at the previous barrier in ascending message-id
//!    order (less those to processors crashed at the barrier), then runs
//!    step-runs in ascending processor order (a processor keeps stepping
//!    until it blocks). Every message a partition sends — local or remote —
//!    goes to its *outbox* tagged with a [`RouteKey`] and becomes
//!    deliverable only next round, so partitions are causally isolated
//!    within a round and the execution cannot depend on which worker thread
//!    ran which partition. A partition answers each broadcast with one
//!    outbox entry, a reply run, which builds only the replies that can
//!    complete their call's quorum, the first `quorum − 1` answerers' by id
//!    (`quorum.rs`); the later ones, which the sequential engine purges
//!    undelivered, only take their ids.
//! 3. **Barrier (leader, serial):** merge the outboxes in [`RouteKey`] order,
//!    assign global message ids in that order, and append each entry to its
//!    recipients' partitions' batches, which are therefore id-ordered. The
//!    key is a pure function of what *triggered* the send (the delivered
//!    message id for replies, the stepping processor for broadcasts), so the
//!    id sequence is independent of the partition count — and it reproduces
//!    the sequential engine's send order exactly. Every entry stands for
//!    messages with consecutive ids. A broadcast is one outbox entry, a
//!    *record*: it takes the `n − 1` ids of its requests, and each
//!    partition that holds a target batches it once, for the next drain to
//!    expand (`quorum.rs`). A partition's replies to one broadcast are one
//!    entry too, a *reply run*: it takes one id per answerer and goes to
//!    the caller's partition if it holds a built reply, nowhere otherwise.
//!    Each outbox is already key-sorted, so the merge moves runs: the
//!    outbox with the smallest head gives up every entry below the other
//!    heads at once, keys (packed into a `u64`) are compared only where
//!    outboxes interleave, and each entry moves once. A recipient's
//!    partition is found by comparing with the partitions' range ends.
//!
//! The same schedule can be driven through the sequential [`crate::Simulator`]
//! by the [`SuperRoundAdversary`], which is how the differential tests pin the
//! partitioned engine to the reference engine event for event (same reports,
//! same metrics, same trace digests).
//!
//! This *canonical* schedule is the engine's only one. Crashes come from a
//! [`RoundCrashPlan`] fixed before the first round
//! ([`ParallelSimulator::set_crash_plan`] refuses one later), so the
//! schedule — and therefore every report field — is a pure function of
//! `(seed, n, crash plan)` and is *identical for every partition count and
//! every worker count*. An adversary that picks events runs on the
//! sequential engine, where it sees every processor and may hold any
//! message for as long as it likes.
//!
//! # What a partition owns
//!
//! A partition's engine runs the processor side of `communicate` through
//! the crate's quorum core (`quorum.rs`), the same code the sequential
//! engine runs, over the partition's processors. It keeps only what
//! partitioning changes:
//!
//! * where a send goes: into the partition's outbox with a [`RouteKey`],
//!   for the barrier to number and route, a broadcast as one record and the
//!   partition's answers to it as one reply run (the outbox sits in the
//!   core, so its allocation is recycled with the batch's);
//! * where a routed message waits: the core's batch, a plain id-ordered
//!   buffer that the round drains front to back, because nobody picks
//!   among its messages;
//! * the global event number of a first step or a return, which the leader
//!   assigns at the barrier from a marker (and keeps a first step's as the
//!   processor's start, for a return after an early
//!   [`ParallelSimulator::finish`]);
//! * the trace split (deliveries merged by id across partitions, steps
//!   concatenated in partition order).

use crate::adversary::Adversary;
use crate::arena::SimArena;
use crate::engine::SimConfig;
use crate::error::SimError;
use crate::message::{endpoint, InFlightMessage, MessageId};
use crate::observation::{Decision, EnabledEvent, EnabledEvents, SystemObservation};
use crate::quorum::{Network, QuorumCore};
use crate::report::ExecutionReport;
use crate::trace::{Trace, TraceEvent};
use fle_model::{
    splitmix64, ExecutionMetrics, Outcome, PartitionMap, ProcId, Protocol, RouteKey, WireMessage,
};

// ---------------------------------------------------------------------------
// Deterministic per-processor coin streams
// ---------------------------------------------------------------------------

/// The `k`-th raw coin word of processor `proc` under configuration seed
/// `seed`: `splitmix64(splitmix64(seed ^ splitmix64(p + 1)) ^ k)`.
///
/// The stream depends only on `(seed, proc)` — never on the partition count,
/// the worker-thread count, or the order in which other processors flip — so
/// any engine that draws coins this way produces the same flips for the same
/// processors. See `sim/trace.rs` for the full seed-derivation rule.
pub fn coin_word(seed: u64, proc: ProcId, k: u64) -> u64 {
    let stream = splitmix64(seed ^ splitmix64(proc.index() as u64 + 1));
    splitmix64(stream ^ k)
}

/// Turn a raw coin word into a biased boolean: the top 53 bits as a uniform
/// float in `[0, 1)`, compared against `prob_one` (clamped to `[0, 1]`).
pub fn coin_bool(word: u64, prob_one: f64) -> bool {
    let unit = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < prob_one.clamp(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// Crash plans
// ---------------------------------------------------------------------------

/// A pre-declared crash schedule: `(round, victim)` pairs, applied at the
/// start of the given super-round in ascending victim order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundCrashPlan {
    entries: Vec<(u64, ProcId)>,
}

impl RoundCrashPlan {
    /// A plan with no crashes.
    pub fn none() -> Self {
        RoundCrashPlan::default()
    }

    /// Build a plan from `(round, victim)` pairs; entries are sorted by
    /// `(round, victim)` so same-round crashes apply in ascending victim
    /// order.
    pub fn new(mut entries: Vec<(u64, ProcId)>) -> Self {
        entries.sort();
        RoundCrashPlan { entries }
    }

    /// The sorted `(round, victim)` entries.
    pub fn entries(&self) -> &[(u64, ProcId)] {
        &self.entries
    }

    /// Check the plan against a configuration: victims must be in range,
    /// pairwise distinct, and no more numerous than the crash budget.
    ///
    /// # Errors
    /// [`SimError::InvalidDecision`] for out-of-range or duplicate victims,
    /// [`SimError::CrashBudgetExceeded`] for too many crashes.
    pub fn validate(&self, config: &SimConfig) -> Result<(), SimError> {
        if self.entries.len() > config.crash_budget {
            return Err(SimError::CrashBudgetExceeded {
                victim: self.entries[config.crash_budget].1,
                budget: config.crash_budget,
            });
        }
        let mut victims: Vec<ProcId> = self.entries.iter().map(|&(_, v)| v).collect();
        victims.sort();
        for pair in victims.windows(2) {
            if pair[0] == pair[1] {
                return Err(SimError::InvalidDecision {
                    reason: format!("crash plan names {} twice", pair[0]),
                });
            }
        }
        for &(_, victim) in &self.entries {
            if victim.index() >= config.n {
                return Err(SimError::InvalidDecision {
                    reason: format!("cannot crash non-existent processor {victim}"),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-partition engine
// ---------------------------------------------------------------------------

/// A broadcast record or a reply run leaving a partition during a round,
/// waiting for the barrier to assign it global ids and route it. 40 bytes,
/// like the [`InFlightMessage`] it becomes: the [`RouteKey`] packed into a
/// `u64` ([`RouteKey::packed`]), the endpoints as `u32`. Either stands for
/// several messages and is addressed from and to its call's caller: a
/// record for the `n − 1` requests of its broadcast, a run
/// ([`WireMessage::Replies`]) for its `count` replies.
pub(crate) struct Outbound {
    key: u64,
    from: u32,
    to: u32,
    payload: WireMessage,
}

const _: () = assert!(std::mem::size_of::<Outbound>() == 40);

impl Outbound {
    /// # Panics
    /// Panics if the key does not pack or an endpoint does not fit `u32`.
    #[inline]
    fn new(key: RouteKey, from: ProcId, to: ProcId, payload: WireMessage) -> Self {
        Outbound {
            key: key.packed(),
            from: endpoint(from),
            to: endpoint(to),
            payload,
        }
    }

    /// The entry as the batch holds it, under the first of the global ids
    /// the barrier assigned it.
    #[inline]
    fn numbered(self, id: u64) -> InFlightMessage {
        let (from, to) = (ProcId(self.from as usize), ProcId(self.to as usize));
        InFlightMessage::new(MessageId(id), from, to, self.payload)
    }
}

/// Barrier, part 3's merge: number every entry of `outboxes` in key order,
/// from `next_id` on, and hand it to `route` with the partition it goes to.
/// Each outbox must ascend by key, and no key may be in two outboxes (a key
/// names the event that triggered the send). The outboxes are left empty,
/// their capacity kept.
///
/// `ends` holds every partition's range end, ascending, so the last is `n`.
/// An entry takes the ids of the messages it stands for and goes, under the
/// first: a broadcast record (a request: `quorum.rs`) takes `n − 1` and
/// goes to every partition that holds one of its targets, every partition
/// but one that holds the sender alone; a reply run takes its `count` and
/// goes to its caller's partition if it holds a built reply, nowhere
/// otherwise. A caller's partition is the number of `ends` at or below it,
/// so routing compares and never divides.
///
/// The merge moves key-ordered runs of entries, not single entries (a run
/// here is not a reply run): the outbox with the smallest
/// head gives up, at once, every entry below the smallest head of the
/// others ([`run_below`]), so keys are compared only where outboxes
/// interleave, and the last outbox with entries moves without a
/// comparison.
fn merge_outboxes(
    outboxes: &mut [Vec<Outbound>],
    ends: &[u32],
    next_id: &mut u64,
    mut route: impl FnMut(usize, InFlightMessage),
) {
    let requests = u64::from(ends[ends.len() - 1]) - 1;
    let mut heads: Vec<_> = outboxes.iter_mut().map(|outbox| outbox.drain(..)).collect();
    loop {
        // The smallest head, and the smallest head of the other outboxes.
        let (mut first, mut bound) = (None, None);
        for (part, head) in heads.iter().enumerate() {
            let Some(key) = head.as_slice().first().map(|out| out.key) else {
                continue;
            };
            match first {
                Some((min, _)) if min < key => {
                    bound = Some(bound.map_or(key, |bound: u64| bound.min(key)));
                }
                _ => {
                    bound = first.map(|(min, _)| min);
                    first = Some((key, part));
                }
            }
        }
        let Some((_, part)) = first else { break };
        let head = &mut heads[part];
        let run = bound.map_or(head.len(), |bound| run_below(head.as_slice(), bound));
        for out in head.by_ref().take(run) {
            let (id, caller) = (*next_id, out.to);
            if let WireMessage::Replies { count, built, .. } = &out.payload {
                *next_id += u64::from(*count);
                if !built.is_empty() {
                    route(ends.partition_point(|&end| end <= caller), out.numbered(id));
                }
                continue;
            }
            *next_id += requests;
            let record = out.numbered(id);
            let mut start = 0;
            for (part, &end) in ends.iter().enumerate() {
                if end - start > 1 || start != caller {
                    route(part, record.clone());
                }
                start = end;
            }
        }
    }
}

/// The `ends` of [`merge_outboxes`]: every partition's range end,
/// ascending.
fn range_ends(map: &PartitionMap) -> Vec<u32> {
    (0..map.partitions())
        .map(|part| endpoint(ProcId(map.range_of(part).end)))
        .collect()
}

/// How many of `outs`, which ascend by key from a first key below `bound`,
/// have keys below `bound`: an exponential search from the front, so a run
/// of `r` entries costs about 2·log₂ `r` comparisons however long `outs`
/// is.
fn run_below(outs: &[Outbound], bound: u64) -> usize {
    let mut end = 1;
    while end < outs.len() && outs[end].key < bound {
        end *= 2;
    }
    // Every entry up to `end / 2` is below `bound`.
    let known = end / 2 + 1;
    known + outs[known..end.min(outs.len())].partition_point(|out| out.key < bound)
}

/// An interval/outcome event observed by a worker mid-round; the leader
/// assigns its global event number at the barrier.
struct Marker {
    /// Position of the triggering step among this partition's steps of the
    /// round, 1-based.
    pos: u64,
    proc: ProcId,
    kind: MarkerKind,
}

enum MarkerKind {
    /// First protocol step (invocation).
    Start,
    /// Protocol returned with this outcome.
    Ret(Outcome),
}

/// One partition's share of the simulation: the quorum core over its
/// processors, plus the round buffers the barrier reads.
struct PartitionEngine {
    record_trace: bool,
    /// The partition's processors, the messages routed to them and the
    /// step index.
    core: QuorumCore,
    metrics: ExecutionMetrics,
    markers: Vec<Marker>,
    /// `Deliver` trace events of this round, ascending message id (merged
    /// by id across partitions at the barrier).
    trace_deliver: Vec<TraceEvent>,
    /// The round's step-phase trace events in execution order.
    trace_other: Vec<TraceEvent>,
    round_delivered: u64,
    round_steps: u64,
    /// How many times this engine's arena has been recycled through the pool.
    arena_reuses: u64,
}

/// A partition's [`Network`]: every send goes to the core's outbox, keyed
/// for the barrier, and becomes deliverable only next round. A partition
/// sends only broadcast records and reply runs, each addressed to its
/// caller. The round's phase order (all deliveries, then step-runs in
/// ascending processor order) produces the keys in ascending order, as the
/// barrier's merge needs them.
struct Outgoing<'a> {
    metrics: &'a mut ExecutionMetrics,
}

impl Network for Outgoing<'_> {
    #[inline]
    fn send(
        &mut self,
        core: &mut QuorumCore,
        key: RouteKey,
        from: ProcId,
        to: ProcId,
        payload: WireMessage,
    ) -> Option<u32> {
        debug_assert_eq!(from, to, "a partition sends records and reply runs");
        let out = Outbound::new(key, from, to, payload);
        let outbox = core.outbox();
        debug_assert!(
            outbox.last().is_none_or(|last| last.key < out.key),
            "outbox keys must be generated in strictly ascending order"
        );
        outbox.push(out);
        None
    }

    /// One outbox entry for all the requests: a record under the
    /// broadcast's key, addressed to its sender.
    #[inline]
    fn broadcast(&mut self, core: &mut QuorumCore, from: ProcId, request: WireMessage) {
        self.send(core, RouteKey::broadcast(from), from, from, request);
    }

    fn metrics(&mut self) -> &mut ExecutionMetrics {
        self.metrics
    }
}

impl PartitionEngine {
    fn new(part: usize, map: &PartitionMap, config: &SimConfig) -> Self {
        let SimArena {
            mut core, reuses, ..
        } = SimArena::take_pooled();
        core.reset(map.range_of(part), config);
        PartitionEngine {
            record_trace: config.record_trace,
            core,
            metrics: ExecutionMetrics::default(),
            markers: Vec::new(),
            trace_deliver: Vec::new(),
            trace_other: Vec::new(),
            round_delivered: 0,
            round_steps: 0,
            arena_reuses: reuses,
        }
    }

    /// Run one super-round: deliver everything routed here at the last
    /// barrier in ascending id order, then step-runs in ascending processor
    /// order.
    fn run_round(&mut self) {
        let mut delivered = 0;
        let (record_trace, trace) = (self.record_trace, &mut self.trace_deliver);
        let mut net = Outgoing {
            metrics: &mut self.metrics,
        };
        self.core.drain_batch(&mut net, |id, from, to| {
            delivered += 1;
            if record_trace {
                trace.push(TraceEvent::Deliver { id, from, to });
            }
        });
        self.round_delivered = delivered;
        self.round_steps = 0;
        while let Some(proc) = self.core.first_step() {
            self.round_steps += 1;
            self.execute_step(proc, self.round_steps);
        }
    }

    /// Step `proc`. `pos` is the step's position in this partition's round;
    /// the leader turns it into a global event number at the barrier, and
    /// sets a first step's as the core's start for `proc`.
    fn execute_step(&mut self, proc: ProcId, pos: u64) {
        if self.record_trace {
            self.trace_other.push(TraceEvent::Step { proc });
        }
        let mut net = Outgoing {
            metrics: &mut self.metrics,
        };
        let stepped = self.core.step(&mut net, proc, pos);
        if stepped.first {
            self.markers.push(Marker {
                pos,
                proc,
                kind: MarkerKind::Start,
            });
        }
        if let Some(value) = stepped.coin.filter(|_| self.record_trace) {
            self.trace_other.push(TraceEvent::Coin { proc, value });
        }
        if let Some(outcome) = stepped.returned {
            self.markers.push(Marker {
                pos,
                proc,
                kind: MarkerKind::Ret(outcome),
            });
            if self.record_trace {
                self.trace_other.push(TraceEvent::Return { proc, outcome });
            }
        }
        self.core.sync(proc, None);
    }
}

impl Drop for PartitionEngine {
    fn drop(&mut self) {
        SimArena::pool(SimArena::emptied(
            std::mem::take(&mut self.core),
            Vec::new(),
            Vec::new(),
            self.arena_reuses,
        ));
    }
}

// ---------------------------------------------------------------------------
// The parallel simulator (leader + barrier)
// ---------------------------------------------------------------------------

/// The partitioned parallel simulator. See the module documentation for the
/// super-round execution model.
///
/// Construction mirrors the sequential [`crate::Simulator`]: build a
/// [`SimConfig`] (with [`SimConfig::with_partitions`]), register
/// participants, then either [`ParallelSimulator::run_canonical`] to
/// completion or set a plan with [`ParallelSimulator::set_crash_plan`] and
/// drive [`ParallelSimulator::step_round`] round by round.
pub struct ParallelSimulator {
    config: SimConfig,
    map: PartitionMap,
    /// Every partition's range end, ascending: the barrier routes a message
    /// to the number of them at or below its recipient.
    ends: Vec<u32>,
    engines: Vec<PartitionEngine>,
    /// Worker threads for the round bodies, 0 until the first round with
    /// more than one partition resolves the default: the OS is asked for
    /// the CPU count once per simulator, not once per round.
    workers: usize,
    /// The crash plan, and how many of its entries the barriers have
    /// applied.
    plan: RoundCrashPlan,
    cursor: usize,
    round: u64,
    next_message_id: u64,
    events_executed: u64,
    /// The crash log, in application order.
    crashes: Vec<ProcId>,
    report: ExecutionReport,
}

impl ParallelSimulator {
    /// Create a parallel simulator over `config.partitions` partitions
    /// (a value of 0 means 1), with no crashes planned.
    ///
    /// # Panics
    /// Panics if the config enables `validate_event_set` — the reference
    /// mode exists only in the sequential engine.
    pub fn new(mut config: SimConfig) -> Self {
        assert!(
            !config.validate_event_set,
            "the partitioned engine does not support the validation reference mode"
        );
        config.partitions = config.partitions.clamp(1, config.n);
        let map = PartitionMap::new(config.n, config.partitions);
        let ends = range_ends(&map);
        let engines = (0..map.partitions())
            .map(|part| PartitionEngine::new(part, &map, &config))
            .collect();
        let trace = if config.record_trace {
            Trace::recording()
        } else {
            Trace::disabled()
        };
        ParallelSimulator {
            map,
            ends,
            engines,
            workers: 0,
            plan: RoundCrashPlan::none(),
            cursor: 0,
            round: 0,
            next_message_id: 0,
            events_executed: 0,
            crashes: Vec::new(),
            report: ExecutionReport {
                trace,
                ..ExecutionReport::default()
            },
            config,
        }
    }

    /// Cap the number of worker threads (0 = one per partition, up to
    /// [`std::thread::available_parallelism`]). Purely a resource knob:
    /// partitions do not interact within a round, so results are byte-for-
    /// byte identical for every worker count — the determinism regression
    /// tests run the same configuration at several worker counts and require
    /// it.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The configuration this simulator was built with (with `partitions`
    /// clamped to `1..=n`).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.map.partitions()
    }

    /// Register `proc` as a participant running `protocol` (routed to the
    /// partition that owns `proc`).
    ///
    /// # Errors
    /// Returns [`SimError::InvalidParticipant`] if the processor id is out of
    /// range or already participates.
    pub fn try_add_participant(
        &mut self,
        proc: ProcId,
        protocol: Box<dyn Protocol>,
    ) -> Result<(), SimError> {
        if proc.index() >= self.config.n {
            return Err(SimError::InvalidParticipant {
                proc,
                reason: format!("system only has {} processors", self.config.n),
            });
        }
        let engine = &mut self.engines[self.map.partition_of(proc)];
        engine.core.register(proc, protocol)?;
        engine.core.sync(proc, None);
        Ok(())
    }

    /// Register `proc` as a participant running `protocol`.
    ///
    /// # Panics
    /// Panics on the error conditions of
    /// [`ParallelSimulator::try_add_participant`].
    pub fn add_participant(&mut self, proc: ProcId, protocol: Box<dyn Protocol>) {
        self.try_add_participant(proc, protocol)
            .expect("invalid participant registration");
    }

    /// Set the crash plan the barriers apply. A run is a pure function of
    /// `(seed, n, crash plan)` only if the plan is fixed before the first
    /// round, so a plan cannot be set once a round has run.
    ///
    /// # Errors
    /// The plan's [`RoundCrashPlan::validate`] errors, and
    /// [`SimError::InvalidDecision`] once a round has run.
    pub fn set_crash_plan(&mut self, plan: &RoundCrashPlan) -> Result<(), SimError> {
        if self.round > 0 {
            return Err(SimError::InvalidDecision {
                reason: format!("{} rounds ran before the crash plan was set", self.round),
            });
        }
        plan.validate(&self.config)?;
        self.plan = plan.clone();
        self.cursor = 0;
        Ok(())
    }

    /// Whether every live participant has returned.
    pub fn is_complete(&self) -> bool {
        self.live() == 0
    }

    /// Number of events executed so far (sum over all partitions).
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// The current super-round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    fn live(&self) -> usize {
        self.engines.iter().map(|e| e.core.live()).sum()
    }

    fn budget_exhausted(&self) -> SimError {
        SimError::EventBudgetExhausted {
            budget: self.config.max_events,
            unfinished: self
                .engines
                .iter()
                .flat_map(|e| e.core.live_participants())
                .collect(),
        }
    }

    /// Apply one planned crash at the barrier (leader context). The
    /// messages the last barrier batched for the victim stay batched, and
    /// the next drain skips them; the core batches none routed to it from
    /// now on.
    fn crash_at_barrier(&mut self, victim: ProcId) {
        let engine = &mut self.engines[self.map.partition_of(victim)];
        debug_assert!(
            !engine.core.process(victim).crashed,
            "plan victims are unique"
        );
        engine.core.mark_crashed(victim);
        engine.core.sync(victim, None);
        self.crashes.push(victim);
        self.report.trace.push(TraceEvent::Crash { proc: victim });
    }

    /// Run the per-partition round bodies, inline or on scoped worker
    /// threads. The partition-to-worker assignment cannot affect results —
    /// partitions share no state within a round — which is what the
    /// worker-count determinism tests pin down.
    fn dispatch_round(&mut self) {
        let parts = self.engines.len();
        if parts > 1 && self.workers == 0 {
            self.workers = std::thread::available_parallelism().map_or(1, |w| w.get());
        }
        let workers = self.workers.min(parts);
        if workers <= 1 {
            self.engines.iter_mut().for_each(PartitionEngine::run_round);
            return;
        }
        let chunk = parts.div_ceil(workers);
        std::thread::scope(|scope| {
            for engines in self.engines.chunks_mut(chunk) {
                scope.spawn(move || engines.iter_mut().for_each(PartitionEngine::run_round));
            }
        });
    }

    /// Execute one super-round. Returns `Ok(false)` once no live
    /// participant is left: at once when every one has returned, or after
    /// the barrier's crashes when they leave none.
    ///
    /// # Errors
    /// [`SimError::EventBudgetExhausted`] if the event budget ran out or the
    /// system can no longer make progress (quorums that can never form).
    /// Unlike the sequential engine, the budget is enforced at round
    /// granularity, so a run may overshoot `max_events` by up to one round
    /// before erroring.
    pub fn step_round(&mut self) -> Result<bool, SimError> {
        if self.live() == 0 {
            return Ok(false);
        }
        if self.events_executed >= self.config.max_events {
            return Err(self.budget_exhausted());
        }

        // Barrier, part 1: due crashes, applied one at a time with the
        // sequential engine's "did the last live participant just die"
        // check between them.
        let mut crashes_this_round = 0u64;
        while let Some(&(round, victim)) = self.plan.entries().get(self.cursor) {
            if round > self.round {
                break;
            }
            self.cursor += 1;
            if self.live() > 0 {
                self.crash_at_barrier(victim);
                crashes_this_round += 1;
            }
        }
        if self.live() == 0 {
            return Ok(false);
        }
        // Each core learns how many processors below its range have not
        // crashed, for the ranks of the replies its drain builds.
        let mut below = 0;
        for engine in &mut self.engines {
            engine.core.set_uncrashed_below(below);
            below += engine.core.uncrashed();
        }

        // The round body: all partitions in parallel.
        self.dispatch_round();

        // Barrier, part 2: global event numbering and interval/outcome
        // bookkeeping from the markers — O(partitions + markers), not
        // O(events), so the serial fraction stays flat as n grows. A step's
        // number follows the round's deliveries and the steps of the
        // partitions before its own.
        let d_total: u64 = self.engines.iter().map(|e| e.round_delivered).sum();
        let s_total: u64 = self.engines.iter().map(|e| e.round_steps).sum();
        let mut marker_base = self.events_executed + d_total;
        for engine in &mut self.engines {
            for marker in engine.markers.drain(..) {
                let global = marker_base + marker.pos;
                match marker.kind {
                    MarkerKind::Start => {
                        engine.core.set_started_at(marker.proc, global);
                        self.report.intervals.insert(marker.proc, (global, None));
                    }
                    MarkerKind::Ret(outcome) => {
                        self.report.outcomes.insert(marker.proc, outcome);
                        // An early `finish()` takes the interval with the
                        // report; rebuild its start from the core's, as the
                        // sequential engine does.
                        let started = engine.core.process(marker.proc).started_at;
                        let started = started.expect("a returning participant has started");
                        self.report
                            .intervals
                            .entry(marker.proc)
                            .or_insert((started, None))
                            .1 = Some(global);
                    }
                }
            }
            marker_base += engine.round_steps;
        }
        self.events_executed += d_total + s_total;

        // Trace merge (only when recording): interleave the delivery
        // sections by message id and concatenate the step sections in
        // partition order (= ascending processor order, since partitions
        // are contiguous).
        if self.config.record_trace {
            let mut cursors = vec![0usize; self.engines.len()];
            loop {
                let mut best: Option<(u64, usize)> = None;
                for (part, engine) in self.engines.iter().enumerate() {
                    if let Some(TraceEvent::Deliver { id, .. }) =
                        engine.trace_deliver.get(cursors[part])
                    {
                        if best.is_none_or(|(bid, _)| id.0 < bid) {
                            best = Some((id.0, part));
                        }
                    }
                }
                let Some((_, part)) = best else { break };
                let event = self.engines[part].trace_deliver[cursors[part]];
                self.report.trace.push(event);
                cursors[part] += 1;
            }
            for engine in &mut self.engines {
                engine.trace_deliver.clear();
                for event in engine.trace_other.drain(..) {
                    self.report.trace.push(event);
                }
            }
        } else {
            for engine in &mut self.engines {
                engine.trace_deliver.clear();
                engine.trace_other.clear();
            }
        }

        // Barrier, part 3: merge the outboxes in key order, assign global
        // message ids in that order, and batch each record or reply run at
        // its recipients' cores (a core drops a run to a crashed caller;
        // its drain skips a record's crashed targets).
        let mut outboxes: Vec<Vec<Outbound>> = self
            .engines
            .iter_mut()
            .map(|e| std::mem::take(e.core.outbox()))
            .collect();
        let (engines, first_id) = (&mut self.engines, self.next_message_id);
        let mut next_id = first_id;
        merge_outboxes(&mut outboxes, &self.ends, &mut next_id, |part, message| {
            engines[part].core.enqueue(message);
        });
        let routed = next_id - first_id;
        self.next_message_id = next_id;
        for (engine, outbox) in self.engines.iter_mut().zip(outboxes) {
            *engine.core.outbox() = outbox;
        }

        if d_total + s_total == 0 && crashes_this_round == 0 && routed == 0 && self.live() > 0 {
            // Every live participant is blocked on a quorum that can never
            // form. The sequential engine reports this as budget exhaustion
            // the moment its enabled-event set empties; mirror that.
            return Err(self.budget_exhausted());
        }

        self.round += 1;
        Ok(true)
    }

    /// Run to completion under `plan`.
    ///
    /// # Errors
    /// [`ParallelSimulator::set_crash_plan`] errors and
    /// [`ParallelSimulator::step_round`] errors.
    pub fn run_canonical(&mut self, plan: &RoundCrashPlan) -> Result<ExecutionReport, SimError> {
        self.set_crash_plan(plan)?;
        while self.step_round()? {}
        Ok(self.finish())
    }

    /// Take the report (counterpart of the sequential engine's
    /// [`crate::Simulator::finish`]), with the event count, every
    /// partition's metrics and the crashes so far, in application order.
    pub fn finish(&mut self) -> ExecutionReport {
        let mut report = std::mem::take(&mut self.report);
        report.events_executed = self.events_executed;
        for engine in &self.engines {
            report.metrics.absorb(&engine.metrics);
        }
        report.crashed = self.crashes.clone();
        report
    }
}

// ---------------------------------------------------------------------------
// The sequential reference adversary
// ---------------------------------------------------------------------------

/// An [`Adversary`] that makes the sequential [`crate::Simulator`] execute
/// the exact super-round schedule of canonical-mode [`ParallelSimulator`]:
/// per round, due crashes first, then every *ripe* delivery in ascending
/// message-id order, then step-runs in ascending processor order. A message
/// is ripe if it was sent in an earlier round (tracked with a message-id
/// watermark: ids below the watermark are ripe).
///
/// Pair it with a `SimConfig` that has `partitions >= 1` (so the sequential
/// engine draws coins from the same per-processor streams) and the two
/// engines produce byte-identical reports — the differential tests'
/// foundation.
#[derive(Debug, Clone)]
pub struct SuperRoundAdversary {
    watermark: u64,
    round: u64,
    plan: Vec<(u64, ProcId)>,
    cursor: usize,
}

impl SuperRoundAdversary {
    /// Drive the schedule of `plan` (use [`RoundCrashPlan::none`] for a
    /// crash-free run).
    pub fn new(plan: &RoundCrashPlan) -> Self {
        SuperRoundAdversary {
            watermark: 0,
            round: 0,
            plan: plan.entries().to_vec(),
            cursor: 0,
        }
    }

    /// First enabled-event index that is a delivery (== the number of
    /// enabled steps), found by binary search over the stable order.
    fn step_boundary(enabled: &EnabledEvents<'_>) -> usize {
        let mut lo = 0;
        let mut hi = enabled.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match enabled.get(mid) {
                Some(EnabledEvent::Step(_)) => lo = mid + 1,
                _ => hi = mid,
            }
        }
        lo
    }
}

impl Adversary for SuperRoundAdversary {
    fn decide(
        &mut self,
        _observation: &SystemObservation,
        enabled: &EnabledEvents<'_>,
    ) -> Decision {
        loop {
            if let Some(&(round, victim)) = self.plan.get(self.cursor) {
                if round <= self.round {
                    self.cursor += 1;
                    return Decision::Crash(victim);
                }
            }
            let boundary = Self::step_boundary(enabled);
            if let Some(EnabledEvent::Deliver { id, .. }) = enabled.get(boundary) {
                if id.0 < self.watermark {
                    // Ripe deliveries drain first, ascending id.
                    return Decision::Schedule(boundary);
                }
            }
            if boundary > 0 {
                // No ripe deliveries left: step-runs, ascending processor.
                return Decision::Schedule(0);
            }
            // Only unripe deliveries remain: the round is over. Everything
            // currently in flight becomes ripe and the next round begins.
            let last = enabled
                .get(enabled.len() - 1)
                .expect("the engine never offers an empty event set");
            let EnabledEvent::Deliver { id, .. } = last else {
                unreachable!("boundary == 0 means every enabled event is a delivery");
            };
            self.watermark = id.0 + 1;
            self.round += 1;
        }
    }

    fn name(&self) -> &'static str {
        "super-round"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::tests::{
        assert_stored_traffic_is_live, assert_views_are_held_by_their_stores_alone, Chatter,
    };

    /// 16 processors in two partitions, every one making six calls.
    fn chatty(seed: u64) -> ParallelSimulator {
        let n = 16;
        let mut sim = ParallelSimulator::new(SimConfig::new(n).with_seed(seed).with_partitions(2));
        for i in 0..n {
            sim.add_participant(ProcId(i), Chatter::boxed(ProcId(i), 6));
        }
        sim
    }

    /// Step `sim` to completion, checking every partition's stored traffic
    /// at every barrier; returns the crash count.
    fn run_checking_stored_traffic(mut sim: ParallelSimulator, context: &str) -> usize {
        while sim.step_round().unwrap() {
            for engine in &sim.engines {
                assert_stored_traffic_is_live(&engine.core, context, sim.events_executed);
            }
        }
        sim.finish().crashed.len()
    }

    /// What an outbox entry of the routing test stands for.
    enum Dealt {
        /// A broadcast record of this sender.
        Record(u32),
        /// A reply run to this caller, of this many replies, which holds a
        /// built one or not.
        Run(u32, u64, bool),
    }

    #[test]
    fn the_barrier_routes_in_key_order_to_each_recipients_partition() {
        let mut state = 0x5eed;
        let mut below = |bound: usize| {
            state = splitmix64(state);
            (state % bound as u64) as usize
        };
        let collect = WireMessage::Collect {
            seq: 0,
            instance: fle_model::InstanceId::custom(1, 1),
        };
        for parts in [1, 2, 3, 5, 8] {
            for case in 0..50 {
                // Every fifth system has one processor per partition, so a
                // record's sender is alone in its partition.
                let n = if case % 5 == 4 {
                    parts
                } else {
                    parts + below(300)
                };
                let map = PartitionMap::new(n, parts);
                let mut outboxes: Vec<Vec<Outbound>> = (0..parts).map(|_| Vec::new()).collect();
                // Some cases leave one outbox empty; the rest get the round's
                // keys in ascending order: reply runs, a third of them
                // without a built reply, dealt to random outboxes a random
                // stretch at a time (often one entry, interleaved), then
                // broadcast records, each to its sender's partition
                // (stretches of consecutive senders) or a random one.
                // `dealt` keeps what each key stands for.
                let empty = if case % 3 == 0 { below(parts) } else { parts };
                let mut dealt = Vec::new();
                let mut deal = |part: usize, out: Outbound, kind: Dealt| {
                    let part = if part == empty {
                        (part + 1) % parts
                    } else {
                        part
                    };
                    dealt.push((out.key, kind));
                    outboxes[part].push(out);
                };
                let (mut id, mut part) = (0, 0);
                for _ in 0..below(4 * n) {
                    if below(3) == 0 {
                        part = below(parts);
                    }
                    id += 1 + below(3) as u64;
                    let (key, caller) = (RouteKey::reply(id), below(n));
                    let count = 1 + below(300) as u32;
                    let built = if below(3) == 0 {
                        0
                    } else {
                        1 + below(count as usize)
                    };
                    let built = (0..built as u32).map(|responder| (responder, None));
                    let built = Box::new(built.collect::<Vec<_>>());
                    let holds = !built.is_empty();
                    let run = WireMessage::Replies {
                        seq: 0,
                        count,
                        built,
                    };
                    let out = Outbound::new(key, ProcId(caller), ProcId(caller), run);
                    deal(part, out, Dealt::Run(caller as u32, count.into(), holds));
                }
                for proc in 0..n {
                    if below(4) != 0 {
                        continue;
                    }
                    let home = if below(2) == 0 {
                        map.partition_of(ProcId(proc))
                    } else {
                        below(parts)
                    };
                    let (key, sender) = (RouteKey::broadcast(ProcId(proc)), ProcId(proc));
                    let out = Outbound::new(key, sender, sender, collect.clone());
                    deal(home, out, Dealt::Record(proc as u32));
                }
                // In key order, a record takes n - 1 ids to every partition
                // but one that holds its sender alone, and a run takes as
                // many ids as it has replies, to its caller's partition if
                // it holds a built reply and to none otherwise.
                dealt.sort_unstable_by_key(|&(key, _)| key);
                let (mut expected, mut next) = (Vec::new(), 1_000);
                for (_, kind) in dealt {
                    match kind {
                        Dealt::Record(sender) => {
                            let alone = sender as usize..sender as usize + 1;
                            for part in (0..parts).filter(|&part| map.range_of(part) != alone) {
                                expected.push((part, next, sender, sender));
                            }
                            next += n as u64 - 1;
                        }
                        Dealt::Run(caller, count, holds) => {
                            if holds {
                                let part = map.partition_of(ProcId(caller as usize));
                                expected.push((part, next, caller, caller));
                            }
                            next += count;
                        }
                    }
                }
                let (mut routed, mut next_id) = (Vec::new(), 1_000);
                merge_outboxes(&mut outboxes, &range_ends(&map), &mut next_id, |part, m| {
                    routed.push((part, m.id.0, endpoint(m.from()), endpoint(m.to())));
                });
                assert_eq!(routed, expected, "p={parts}, n={n}, case {case}");
                assert_eq!(next_id, next, "p={parts}, n={n}, case {case}");
                assert!(outboxes.iter().all(Vec::is_empty));
            }
        }
    }

    #[test]
    fn a_broadcast_costs_one_outbox_entry_and_n_minus_1_sends() {
        let (n, sender) = (12, ProcId(8));
        let config = SimConfig::new(n).with_partitions(2);
        let mut engine = PartitionEngine::new(1, &PartitionMap::new(n, 2), &config);
        engine
            .core
            .register(sender, Chatter::boxed(sender, 2))
            .unwrap();
        engine.execute_step(sender, 1);
        let outbox = engine.core.outbox();
        assert_eq!(outbox.len(), 1, "one entry for the whole broadcast");
        let record = &outbox[0];
        let key = RouteKey::broadcast(sender).packed();
        assert_eq!((record.key, record.from, record.to), (key, 8, 8));
        assert!(record.payload.is_request());
        let sent = engine.metrics.proc(sender).map(|m| m.messages_sent);
        assert_eq!(sent, Some(n as u64 - 1), "every request counts");
    }

    #[test]
    fn a_record_delivers_ids_first_plus_sub_in_order_skipping_the_sender_and_the_crashed() {
        // p8 of n = 12 collects in round 0, so the barrier routes its record
        // under first id 0 to both partitions, 0..6 and 6..12. p10 crashes
        // before that barrier, p2 and p6 at the next one.
        let (n, sender) = (12, ProcId(8));
        let mut sim = ParallelSimulator::new(SimConfig::new(n).with_partitions(2).with_trace());
        sim.add_participant(sender, Chatter::boxed(sender, 1));
        let plan = [(0, ProcId(10)), (1, ProcId(2)), (1, ProcId(6))];
        sim.set_crash_plan(&RoundCrashPlan::new(plan.to_vec()))
            .unwrap();
        let requests = |targets: &[(u64, usize)]| -> Vec<(MessageId, ProcId, ProcId)> {
            let request = |&(id, to)| (MessageId(id), sender, ProcId(to));
            targets.iter().map(request).collect()
        };
        assert!(sim.step_round().unwrap());
        let stored: Vec<_> = sim
            .engines
            .iter()
            .flat_map(|engine| engine.core.stored())
            .map(|message| (message.id, message.from(), message.to()))
            .collect();
        let standing = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)];
        let standing = [&standing[..], &[(6, 6), (7, 7), (8, 9), (10, 11)]].concat();
        assert_eq!(stored, requests(&standing), "what the records stand for");
        while sim.step_round().unwrap() {}
        let report = sim.finish();
        let delivered: Vec<_> = report
            .trace
            .events()
            .iter()
            .filter_map(|event| match *event {
                TraceEvent::Deliver { id, from, to } if from == sender => Some((id, from, to)),
                _ => None,
            })
            .collect();
        let expected = [
            (0, 0),
            (1, 1),
            (3, 3),
            (4, 4),
            (5, 5),
            (7, 7),
            (8, 9),
            (10, 11),
        ];
        assert_eq!(delivered, requests(&expected));
        assert_eq!(report.outcomes.get(&sender), Some(&Outcome::Proceed));
    }

    #[test]
    fn a_run_keeps_the_reply_of_an_answerer_crashed_after_answering() {
        // p8 of n = 12 collects in round 0; the others answer in round 1,
        // but for p3, crashed at that round's barrier, and quorum - 1 = 6 of
        // them build their replies. Partition 0's run holds p0, p1, p2, p4
        // and p5, under ids 11..=15; partition 1's holds p6 under 16 and
        // takes ids 17..=20 for the unbuilt replies of p7, p9, p10 and p11.
        // p2 crashes at the barrier after it answered, before p8's drain.
        let (n, caller) = (12, ProcId(8));
        let mut sim = ParallelSimulator::new(SimConfig::new(n).with_partitions(2).with_trace());
        sim.add_participant(caller, Chatter::boxed(caller, 1));
        let plan = RoundCrashPlan::new(vec![(1, ProcId(3)), (2, ProcId(2))]);
        sim.set_crash_plan(&plan).unwrap();
        let expected = [(11, 0), (12, 1), (13, 2), (14, 4), (15, 5), (16, 6)];
        let replies = |pairs: &[(u64, usize)]| -> Vec<(MessageId, ProcId, ProcId)> {
            let reply = |&(id, from)| (MessageId(id), ProcId(from), caller);
            pairs.iter().map(reply).collect()
        };
        assert!(sim.step_round().unwrap() && sim.step_round().unwrap());
        let batched: Vec<_> = sim.engines[1]
            .core
            .stored()
            .map(|message| (message.id, message.from(), message.to()))
            .collect();
        assert_eq!(batched, replies(&expected), "the runs' built replies");
        while sim.step_round().unwrap() {}
        let report = sim.finish();
        let delivered: Vec<_> = report
            .trace
            .events()
            .iter()
            .filter_map(|event| match *event {
                TraceEvent::Deliver { id, from, to } if to == caller => Some((id, from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, replies(&expected));
        assert_eq!(report.outcomes.get(&caller), Some(&Outcome::Proceed));
        let received = report.metrics.proc(caller).map(|m| m.messages_received);
        assert_eq!(received, Some(6));
    }

    #[test]
    fn a_crash_free_canonical_drain_skips_no_reply() {
        // Contenders in every partition, so a record's sender sits below,
        // inside and above the partitions that answer it; odd and even n.
        for n in [15, 16, 33] {
            for partitions in [1, 2, 3] {
                let config = SimConfig::new(n)
                    .with_seed(n as u64)
                    .with_partitions(partitions);
                let mut sim = ParallelSimulator::new(config);
                for i in (0..n).step_by(3) {
                    let election = fle_core::LeaderElection::new(ProcId(i));
                    sim.add_participant(ProcId(i), Box::new(election));
                }
                let report = sim.run_canonical(&RoundCrashPlan::none()).unwrap();
                assert_eq!(report.winners().len(), 1);
                for engine in &sim.engines {
                    let skipped = &engine.core.skipped;
                    assert!(
                        skipped.is_empty(),
                        "n={n}, p={partitions}: {} replies were skipped, the first to {}",
                        skipped.len(),
                        skipped[0]
                    );
                }
            }
        }
    }

    #[test]
    fn a_canonical_drain_skips_only_replies_to_crashed_processors() {
        // Every processor broadcasts in round 0. p7, below the boundary at
        // 8, crashes at the next barrier, so partition 1 ranks p7's
        // answerers one too low and builds one reply too many, which the
        // barrier after drops. p3 and p12 crash at the barrier after the
        // one that routed the replies to them, so the drain skips those.
        for seed in 0..4 {
            let mut sim = chatty(seed);
            let plan = [(1, ProcId(7)), (2, ProcId(3)), (2, ProcId(12))];
            sim.set_crash_plan(&RoundCrashPlan::new(plan.to_vec()))
                .unwrap();
            while sim.step_round().unwrap() {}
            let skipped: Vec<ProcId> = sim
                .engines
                .iter()
                .flat_map(|engine| engine.core.skipped.iter().copied())
                .collect();
            assert!(!skipped.is_empty(), "seed {seed}: no reply was skipped");
            for proc in skipped {
                assert!(
                    sim.crashes.contains(&proc),
                    "seed {seed}: a drain skipped a reply to {proc}, which is up"
                );
            }
        }
    }

    #[test]
    fn crash_heavy_partitioned_runs_store_no_message_for_a_crashed_processor() {
        for seed in 0..4 {
            let mut sim = chatty(seed);
            let plan = RoundCrashPlan::new(vec![
                (0, ProcId(1)),
                (0, ProcId(3)),
                (1, ProcId(5)),
                (2, ProcId(8)),
                (3, ProcId(10)),
                (4, ProcId(12)),
                (5, ProcId(15)),
            ]);
            sim.set_crash_plan(&plan).unwrap();
            let context = format!("seed {seed}");
            assert_eq!(run_checking_stored_traffic(sim, &context), 7);
        }
    }

    #[test]
    fn after_an_election_every_replica_view_is_held_by_its_store_alone() {
        for (n, contenders, partitions, seed) in [(8, 8, 2, 1), (16, 5, 3, 2), (33, 33, 2, 3)] {
            let config = SimConfig::new(n)
                .with_seed(seed)
                .with_partitions(partitions);
            let mut sim = ParallelSimulator::new(config);
            for i in 0..contenders {
                let election = fle_core::LeaderElection::new(ProcId(i));
                sim.add_participant(ProcId(i), Box::new(election));
            }
            let report = sim.run_canonical(&RoundCrashPlan::none()).unwrap();
            assert_eq!(report.winners().len(), 1);
            for (part, engine) in sim.engines.iter().enumerate() {
                let context = format!("n={n}, {contenders} contenders, seed {seed}, part {part}");
                assert_views_are_held_by_their_stores_alone(&engine.core, &context);
            }
        }
    }

    #[test]
    fn an_early_finish_keeps_the_crash_accounting() {
        // A report taken mid-run lists the crashes so far, and taking it
        // keeps them: the report at the end lists them again.
        let mut sim = chatty(0);
        sim.set_crash_plan(&RoundCrashPlan::new(vec![(0, ProcId(1))]))
            .unwrap();
        assert!(sim.step_round().unwrap());
        assert_eq!(sim.finish().crashed, vec![ProcId(1)]);
        while sim.step_round().unwrap() {}
        assert_eq!(sim.finish().crashed, vec![ProcId(1)]);
    }

    #[test]
    fn an_early_finish_keeps_every_interval_start() {
        // Every start falls in round 0, so a report taken after it holds
        // every interval, open. A later return rebuilds its start from the
        // core's global number, as the sequential engine does.
        let whole = chatty(0).run_canonical(&RoundCrashPlan::none()).unwrap();
        let mut sim = chatty(0);
        assert!(sim.step_round().unwrap());
        let early = sim.finish();
        assert_eq!(early.intervals.len(), 16);
        assert!(early.intervals.values().all(|&(_, end)| end.is_none()));
        while sim.step_round().unwrap() {}
        assert_eq!(sim.finish().intervals, whole.intervals);
    }

    #[test]
    fn a_crash_plan_cannot_be_set_once_a_round_has_run() {
        // Setting the plan again would replay its applied entries: p9 would
        // crash twice, and the uncrashed count that ranks a drain's replies
        // would fall twice.
        let n = 16;
        let mut sim = ParallelSimulator::new(SimConfig::new(n).with_seed(3).with_partitions(2));
        for i in 0..n {
            let election = fle_core::LeaderElection::new(ProcId(i));
            sim.add_participant(ProcId(i), Box::new(election));
        }
        let plan = RoundCrashPlan::new(vec![(0, ProcId(9))]);
        sim.set_crash_plan(&plan).unwrap();
        assert!(sim.step_round().unwrap());
        assert!(sim.step_round().unwrap());
        assert!(matches!(
            sim.run_canonical(&plan),
            Err(SimError::InvalidDecision { .. })
        ));
        while sim.step_round().unwrap() {}
        let report = sim.finish();
        assert_eq!(report.crashed, vec![ProcId(9)]);
        assert_eq!(report.winners().len(), 1);
    }
}
