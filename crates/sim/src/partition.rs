//! The partitioned parallel simulator: one giant election across all cores.
//!
//! [`ParallelSimulator`] splits one simulation's `n` processors into
//! contiguous partitions ([`fle_model::PartitionMap`]), gives each partition
//! its own engine (message slab, event indexes, processor state) and advances
//! all partitions in deterministic **super-rounds**:
//!
//! 1. **Barrier (leader, serial):** apply the crashes due this round, one at
//!    a time in ascending victim order, stopping early if the last live
//!    participant dies (mirroring the sequential engine's check before every
//!    decision).
//! 2. **Round (workers, parallel):** every partition *intakes* the messages
//!    routed to it at the previous barrier, then delivers **all** of them in
//!    ascending message-id order, then runs step-runs in ascending processor
//!    order (a processor keeps stepping until it blocks). Every message a
//!    partition sends — local or remote — goes to its *outbox* tagged with a
//!    [`RouteKey`] and becomes deliverable only next round, so partitions are
//!    causally isolated within a round and the execution cannot depend on
//!    which worker thread ran which partition.
//! 3. **Barrier (leader, serial):** merge the outboxes in [`RouteKey`] order,
//!    assign global message ids in that order, and route each message to its
//!    recipient's partition. The key is a pure function of what *triggered*
//!    the send (the delivered message id for replies, the stepping processor
//!    for broadcasts), so the id sequence is independent of the partition
//!    count — and in this canonical mode it reproduces the sequential
//!    engine's send order exactly.
//!
//! The same schedule can be driven through the sequential [`crate::Simulator`]
//! by the [`SuperRoundAdversary`], which is how the differential tests pin the
//! partitioned engine to the reference engine event for event (same reports,
//! same metrics, same trace digests).
//!
//! Two scheduling modes:
//!
//! * **Canonical** ([`ParallelSimulator::run_canonical`]): crashes come from a
//!   pre-declared [`RoundCrashPlan`]; the schedule — and therefore every
//!   report field — is a pure function of `(seed, n, crash plan)` and is
//!   *identical for every partition count*. This is the mode the benchmarks
//!   and differential tests use.
//! * **Adversarial** ([`ParallelSimulator::run_adversarial`]): each partition
//!   gets its own [`Adversary`] (seeded by a pure function of the
//!   configuration seed and the partition index) which orders that
//!   partition's events within each round and spends a partition share of the
//!   crash budget. Deterministic for a fixed `(seed, n, partitions)` and
//!   independent of the worker-thread count, but *not* partition-count
//!   independent (different partition counts are simply different
//!   adversaries).

use crate::adversary::Adversary;
use crate::arena::SimArena;
use crate::engine::SimConfig;
use crate::error::SimError;
use crate::event_set::{IndexedBitSet, OrderedMsgSet};
use crate::message::{InFlightMessage, MessageId, MessageSlab};
use crate::observation::{
    Decision, EnabledEvent, EnabledEvents, ProcessObservation, ProcessPhase, SystemObservation,
};
use crate::process::{PendingWork, SimProcess};
use crate::report::ExecutionReport;
use crate::trace::{Trace, TraceEvent};
use fle_model::{
    splitmix64, Action, CollectedViews, Outcome, PartitionMap, ProcId, Protocol, Response,
    RouteKey, WireMessage,
};
use std::sync::Arc;

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

/// The seed handed to partition `partition`'s adversary in adversarial mode:
/// `splitmix64(seed ^ splitmix64(0xAD5E_0000_0000_0000 | partition))`.
pub fn partition_adversary_seed(seed: u64, partition: usize) -> u64 {
    splitmix64(seed ^ splitmix64(0xAD5E_0000_0000_0000 | partition as u64))
}

// ---------------------------------------------------------------------------
// Crash plans
// ---------------------------------------------------------------------------

/// A pre-declared crash schedule for canonical mode: `(round, victim)` pairs,
/// applied at the start of the given super-round in ascending victim order.
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

/// A message leaving a partition during a round, waiting for the barrier to
/// assign it a global id and route it.
struct Outbound {
    key: RouteKey,
    from: ProcId,
    to: ProcId,
    payload: WireMessage,
}

impl Outbound {
    /// Placeholder left behind when the router moves a message out of an
    /// outbox slot (the outbox is cleared wholesale right after the merge).
    fn tombstone() -> Self {
        Outbound {
            key: RouteKey::reply(u64::MAX),
            from: ProcId(0),
            to: ProcId(0),
            payload: WireMessage::Ack { seq: 0 },
        }
    }
}

/// An interval/outcome event observed by a worker mid-round; the leader
/// assigns its global event number at the barrier.
struct Marker {
    /// Position of the triggering event inside this partition's round:
    /// canonical mode counts step-phase events only (1-based local step
    /// index), adversarial mode counts all local events (1-based).
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

/// One partition's share of the simulation: local processors, local message
/// slab and event indexes, plus the round buffers the barrier reads.
struct PartitionEngine {
    part: usize,
    lo: usize,
    hi: usize,
    config: SimConfig,
    /// Local processors, indexed by `proc - lo`.
    processes: Vec<SimProcess>,
    slab: MessageSlab,
    enabled_msgs: OrderedMsgSet,
    /// Step-enabled processors. Indexed by **global** processor id (only
    /// local bits are ever set) so enabled-event views hand adversaries
    /// correct global `ProcId`s.
    enabled_steps: IndexedBitSet,
    /// Live (registered, not crashed, not returned) local participants.
    live: usize,
    metrics: fle_model::ExecutionMetrics,
    /// Local crash log (adversarial mode; canonical crashes are applied and
    /// logged by the leader).
    crashes: Vec<ProcId>,
    scratch_slots: Vec<u32>,
    /// Messages routed to this partition at the last barrier.
    inbox: Vec<InFlightMessage>,
    /// Messages sent this round, in [`RouteKey`] order by construction.
    outbox: Vec<Outbound>,
    markers: Vec<Marker>,
    /// `Deliver` trace events of this round, ascending message id
    /// (canonical mode; merged by id across partitions at the barrier).
    trace_deliver: Vec<TraceEvent>,
    /// The round's other trace events in execution order (canonical: step
    /// phase only; adversarial: every event including deliveries).
    trace_other: Vec<TraceEvent>,
    round_delivered: u64,
    round_steps: u64,
    /// Total events this partition executed across all rounds (adversarial
    /// observations report this partition-local count).
    events_local: u64,
    /// Error raised by this partition during the round, if any.
    round_error: Option<SimError>,
    /// Adversarial mode only: this partition's adversary, its full-`n`
    /// observation (remote processors appear as [`ProcessPhase::Idle`]) and
    /// its share of the crash budget.
    adversary: Option<Box<dyn Adversary>>,
    observation: Option<SystemObservation>,
    crash_budget: usize,
    /// How many times this engine's arena has been recycled through the pool.
    arena_reuses: u64,
}

impl PartitionEngine {
    fn new(part: usize, map: &PartitionMap, config: &SimConfig) -> Self {
        let range = map.range_of(part);
        let (lo, hi) = (range.start, range.end);
        let arena = SimArena::take_pooled();
        let arena_reuses = arena.reuses();
        let SimArena {
            mut slab,
            mut enabled_msgs,
            mut enabled_steps,
            mut processes,
            mut crashes,
            mut scratch_slots,
            observations: _,
            ..
        } = arena;
        slab.clear();
        enabled_msgs.clear();
        enabled_steps.reset(config.n);
        crashes.clear();
        scratch_slots.clear();
        let local = hi - lo;
        for (offset, process) in processes.iter_mut().enumerate().take(local) {
            process.recycle(ProcId(lo + offset));
        }
        processes.truncate(local);
        while processes.len() < local {
            processes.push(SimProcess::replica_only(ProcId(lo + processes.len())));
        }
        PartitionEngine {
            part,
            lo,
            hi,
            config: config.clone(),
            processes,
            slab,
            enabled_msgs,
            enabled_steps,
            live: 0,
            metrics: fle_model::ExecutionMetrics::default(),
            crashes,
            scratch_slots,
            inbox: Vec::new(),
            outbox: Vec::new(),
            markers: Vec::new(),
            trace_deliver: Vec::new(),
            trace_other: Vec::new(),
            round_delivered: 0,
            round_steps: 0,
            events_local: 0,
            round_error: None,
            adversary: None,
            observation: None,
            crash_budget: 0,
            arena_reuses,
        }
    }

    fn owns(&self, proc: ProcId) -> bool {
        (self.lo..self.hi).contains(&proc.index())
    }

    fn process(&self, proc: ProcId) -> &SimProcess {
        &self.processes[proc.index() - self.lo]
    }

    fn process_mut(&mut self, proc: ProcId) -> &mut SimProcess {
        &mut self.processes[proc.index() - self.lo]
    }

    /// Re-sync `proc`'s step-enabled bit (and, in adversarial mode, its
    /// observation entry) after it stepped, crashed or registered.
    fn sync_proc(&mut self, proc: ProcId) {
        let process = &self.processes[proc.index() - self.lo];
        self.enabled_steps.set(proc.index(), process.step_enabled());
        if let Some(observation) = self.observation.as_mut() {
            observation.processes[proc.index()] = process.observation();
        }
    }

    /// Re-sync `proc`'s step-enabled bit (and, in adversarial mode, its
    /// observed phase) after a delivery, which never steps the protocol and
    /// so leaves the observed local state as it was.
    fn sync_phase(&mut self, proc: ProcId) {
        let process = &self.processes[proc.index() - self.lo];
        self.enabled_steps.set(proc.index(), process.step_enabled());
        if let Some(observation) = self.observation.as_mut() {
            observation.processes[proc.index()].phase = process.phase();
        }
    }

    /// Pull the messages routed to this partition at the last barrier into
    /// the slab and the enabled index (skipping enabling for crashed
    /// recipients, which mirrors the sequential engine retiring a victim's
    /// deliveries at crash time).
    fn intake(&mut self) {
        let mut inbox = std::mem::take(&mut self.inbox);
        for message in inbox.drain(..) {
            debug_assert!(self.owns(message.to), "message routed to wrong partition");
            let id = message.id;
            let to = message.to;
            let is_reply = message.is_reply();
            let crashed = self.process(to).crashed;
            let slot = self.slab.insert(message);
            if is_reply {
                self.process_mut(to).call_msgs.push(slot);
            }
            if !crashed {
                self.enabled_msgs.insert(id, slot);
            }
        }
        self.inbox = inbox;
    }

    /// Run one canonical super-round: intake, deliver everything in ascending
    /// id order, then step-runs in ascending processor order.
    fn run_round_canonical(&mut self) {
        self.round_delivered = 0;
        self.round_steps = 0;
        self.intake();
        while let Some((_, slot)) = self.enabled_msgs.select(0) {
            self.round_delivered += 1;
            self.execute_delivery(slot, false);
        }
        while let Some(index) = self.enabled_steps.select(0) {
            self.round_steps += 1;
            self.execute_step(ProcId(index), self.round_steps);
        }
    }

    /// Run one adversarial super-round: intake, then let this partition's
    /// adversary order (and crash) until every enabled event is consumed.
    fn run_round_adversarial(&mut self) {
        self.round_delivered = 0;
        self.round_steps = 0;
        self.intake();
        while self.enabled_steps.len() + self.enabled_msgs.len() > 0 {
            if let Some(observation) = self.observation.as_mut() {
                observation.events_executed = self.events_local;
                observation.crash_budget_left =
                    self.crash_budget.saturating_sub(self.crashes.len());
            }
            let decision = {
                let observation = self
                    .observation
                    .as_ref()
                    .expect("adversarial mode maintains an observation");
                let enabled =
                    EnabledEvents::live(&self.enabled_steps, &self.enabled_msgs, &self.slab);
                let adversary = self
                    .adversary
                    .as_mut()
                    .expect("adversarial mode installs an adversary");
                adversary.decide(observation, &enabled)
            };
            match decision {
                Decision::Crash(victim) => {
                    if let Err(error) = self.crash_local(victim) {
                        self.round_error = Some(error);
                        return;
                    }
                }
                Decision::Schedule(index) => {
                    if index < self.enabled_steps.len() {
                        let proc = ProcId(
                            self.enabled_steps
                                .select(index)
                                .expect("index checked against len"),
                        );
                        self.round_steps += 1;
                        let pos = self.round_delivered + self.round_steps;
                        self.execute_step(proc, pos);
                    } else if let Some((_, slot)) =
                        self.enabled_msgs.select(index - self.enabled_steps.len())
                    {
                        self.round_delivered += 1;
                        self.execute_delivery(slot, true);
                    } else {
                        self.round_error = Some(SimError::InvalidDecision {
                            reason: format!(
                                "index {index} out of bounds for {} enabled events",
                                self.enabled_steps.len() + self.enabled_msgs.len()
                            ),
                        });
                        return;
                    }
                }
            }
        }
        // The barrier's p-way merge requires key-sorted outboxes. Keys are
        // unique within a round (replies carry distinct trigger ids; a
        // processor sends at most one broadcast batch per round, since a
        // fresh communicate call cannot complete before the next barrier),
        // so this sort is deterministic regardless of adversary order.
        self.outbox.sort_by_key(|out| out.key);
    }

    /// Adversarial-mode crash: victims must be local, and the partition pays
    /// from its own share of the crash budget.
    fn crash_local(&mut self, victim: ProcId) -> Result<(), SimError> {
        if self.crashes.len() >= self.crash_budget {
            return Err(SimError::CrashBudgetExceeded {
                victim,
                budget: self.crash_budget,
            });
        }
        if !self.owns(victim) {
            return Err(SimError::InvalidDecision {
                reason: format!(
                    "partition {} cannot crash remote processor {victim}",
                    self.part
                ),
            });
        }
        if self.process(victim).crashed {
            return Err(SimError::InvalidDecision {
                reason: format!("{victim} is already crashed"),
            });
        }
        if self.process(victim).is_live_participant() {
            self.live -= 1;
        }
        self.process_mut(victim).crashed = true;
        self.crashes.push(victim);
        let mut doomed = std::mem::take(&mut self.scratch_slots);
        doomed.clear();
        doomed.extend(
            self.enabled_msgs
                .iter()
                .filter(|&(_, slot)| {
                    self.slab
                        .get(slot)
                        .expect("enabled message indexes a live slab slot")
                        .to
                        == victim
                })
                .map(|(_, slot)| slot),
        );
        for &slot in &doomed {
            self.enabled_msgs.remove_slot(slot);
        }
        self.scratch_slots = doomed;
        if self.config.record_trace {
            self.trace_other.push(TraceEvent::Crash { proc: victim });
        }
        self.sync_proc(victim);
        Ok(())
    }

    fn execute_step(&mut self, proc: ProcId, pos: u64) {
        self.events_local += 1;
        if self.config.record_trace {
            self.trace_other.push(TraceEvent::Step { proc });
        }
        let response = {
            let lo = self.lo;
            let process = &mut self.processes[proc.index() - lo];
            if process.started_at.is_none() {
                // The real (global) event number is assigned by the leader at
                // the barrier from the marker; the local value is only a
                // "has started" flag here.
                process.started_at = Some(pos);
                self.markers.push(Marker {
                    pos,
                    proc,
                    kind: MarkerKind::Start,
                });
            }
            match std::mem::replace(&mut process.pending, PendingWork::NotStarted) {
                PendingWork::NotStarted => Response::Start,
                PendingWork::LocalResponse(r) | PendingWork::ResponseReady(r) => r,
                other => {
                    process.pending = other;
                    return;
                }
            }
        };
        let action = {
            let lo = self.lo;
            let process = &mut self.processes[proc.index() - lo];
            let protocol = process
                .protocol
                .as_mut()
                .expect("only participants take steps");
            protocol.step(response)
        };
        self.apply_action(proc, action, pos);
        self.sync_proc(proc);
    }

    fn apply_action(&mut self, proc: ProcId, action: Action, pos: u64) {
        let quorum = self.config.quorum();
        let n = self.config.n;
        let lo = self.lo;
        match action {
            Action::Propagate { entries } => {
                let seq = self.processes[proc.index() - lo].fresh_seq();
                self.processes[proc.index() - lo]
                    .replica
                    .apply_all(&entries);
                self.metrics.proc_mut(proc).communicate_calls += 1;
                let mut seen = fle_model::BitRow::new();
                seen.set(proc.index());
                self.processes[proc.index() - lo].call_msgs.clear();
                self.processes[proc.index() - lo].pending = PendingWork::AwaitingAcks {
                    seq,
                    acked: 1,
                    seen,
                };
                let shared: Arc<[(fle_model::Key, fle_model::Value)]> = entries.into();
                let mut sub = 0u32;
                for target in 0..n {
                    if target == proc.index() {
                        continue;
                    }
                    self.send(
                        RouteKey::broadcast(proc, sub),
                        proc,
                        ProcId(target),
                        WireMessage::Propagate {
                            seq,
                            entries: shared.clone(),
                        },
                    );
                    sub += 1;
                }
                self.maybe_complete_quorum(proc, quorum);
            }
            Action::Collect { instance } => {
                let seq = self.processes[proc.index() - lo].fresh_seq();
                let own_view = self.processes[proc.index() - lo].replica.view_arc(instance);
                self.metrics.proc_mut(proc).communicate_calls += 1;
                let mut seen = fle_model::BitRow::new();
                seen.set(proc.index());
                self.processes[proc.index() - lo].call_msgs.clear();
                self.processes[proc.index() - lo].pending = PendingWork::AwaitingViews {
                    seq,
                    views: vec![(proc, own_view)],
                    seen,
                };
                self.processes[proc.index() - lo]
                    .collect_cache
                    .prepare(instance, n);
                let mut sub = 0u32;
                for target in 0..n {
                    if target == proc.index() {
                        continue;
                    }
                    let known = self.processes[proc.index() - lo]
                        .collect_cache
                        .known(ProcId(target));
                    self.send(
                        RouteKey::broadcast(proc, sub),
                        proc,
                        ProcId(target),
                        WireMessage::Collect {
                            seq,
                            instance,
                            known,
                        },
                    );
                    sub += 1;
                }
                self.maybe_complete_quorum(proc, quorum);
            }
            Action::Flip { prob_one } => {
                let flips = self.processes[proc.index() - lo].flips;
                let word = coin_word(self.config.seed, proc, flips);
                self.processes[proc.index() - lo].flips += 1;
                let value = coin_bool(word, prob_one);
                self.metrics.proc_mut(proc).coin_flips += 1;
                if self.config.record_trace {
                    self.trace_other.push(TraceEvent::Coin { proc, value });
                }
                self.processes[proc.index() - lo].pending =
                    PendingWork::LocalResponse(Response::Coin(value));
            }
            Action::Choose { choices } => {
                self.metrics.proc_mut(proc).coin_flips += 1;
                let chosen = if choices.is_empty() {
                    0
                } else {
                    let flips = self.processes[proc.index() - lo].flips;
                    let word = coin_word(self.config.seed, proc, flips);
                    self.processes[proc.index() - lo].flips += 1;
                    choices[(word % choices.len() as u64) as usize]
                };
                self.processes[proc.index() - lo].pending =
                    PendingWork::LocalResponse(Response::Chosen(chosen));
            }
            Action::Return(outcome) => {
                self.processes[proc.index() - lo].pending = PendingWork::Finished(outcome);
                self.live -= 1;
                self.markers.push(Marker {
                    pos,
                    proc,
                    kind: MarkerKind::Ret(outcome),
                });
                if self.config.record_trace {
                    self.trace_other.push(TraceEvent::Return { proc, outcome });
                }
            }
        }
    }

    fn maybe_complete_quorum(&mut self, proc: ProcId, quorum: usize) {
        let process = &mut self.processes[proc.index() - self.lo];
        let completed_seq = match &mut process.pending {
            PendingWork::AwaitingAcks { seq, acked, .. } if *acked >= quorum => {
                let seq = *seq;
                process.pending = PendingWork::ResponseReady(Response::AckQuorum);
                Some(seq)
            }
            PendingWork::AwaitingViews { seq, views, .. } if views.len() >= quorum => {
                let seq = *seq;
                let collected = std::mem::take(views);
                process.pending = PendingWork::ResponseReady(Response::Views(
                    CollectedViews::from_shared(collected),
                ));
                Some(seq)
            }
            _ => None,
        };
        if let Some(seq) = completed_seq {
            self.purge_completed_call(proc, seq);
        }
    }

    /// Drop the undelivered leftovers of a completed communicate call.
    ///
    /// Under super-round semantics every request of a call is delivered one
    /// round after it was sent, and every reply one round after that — so by
    /// the time a quorum completes, the only leftovers are replies sitting in
    /// the *caller's own* partition. (The one exception: requests addressed
    /// to processors that crashed before delivery stay in their partitions'
    /// slabs forever — never enabled, never reported, just parked — where
    /// the sequential engine reclaims them. Behaviorally invisible.)
    fn purge_completed_call(&mut self, caller: ProcId, seq: u64) {
        let candidates = std::mem::take(&mut self.processes[caller.index() - self.lo].call_msgs);
        for slot in candidates {
            let Some(message) = self.slab.get(slot) else {
                continue;
            };
            let belongs_to_call = message.payload.seq() == seq
                && ((message.from == caller && message.is_request())
                    || (message.to == caller && message.is_reply()));
            if belongs_to_call {
                self.slab.remove(slot);
                self.enabled_msgs.remove_slot(slot);
            }
        }
    }

    fn purge_if_completed(&mut self, caller: ProcId) {
        if matches!(
            self.processes[caller.index() - self.lo].pending,
            PendingWork::ResponseReady(_)
        ) {
            let seq = self.processes[caller.index() - self.lo].next_seq;
            self.purge_completed_call(caller, seq);
        }
    }

    fn send(&mut self, key: RouteKey, from: ProcId, to: ProcId, payload: WireMessage) {
        self.metrics.proc_mut(from).messages_sent += 1;
        // The canonical phase order (all deliveries, then step-runs in
        // ascending processor order) produces keys in strictly ascending
        // order by construction; an adversarial round interleaves freely and
        // sorts its outbox at the end of the round instead.
        debug_assert!(
            self.adversary.is_some() || self.outbox.last().is_none_or(|last| last.key < key),
            "outbox keys must be generated in strictly ascending order"
        );
        self.outbox.push(Outbound {
            key,
            from,
            to,
            payload,
        });
    }

    fn execute_delivery(&mut self, slot: u32, adversarial: bool) {
        self.events_local += 1;
        let Some(message) = self.slab.remove(slot) else {
            return;
        };
        self.enabled_msgs.remove_slot(slot);
        if self.config.record_trace {
            let event = TraceEvent::Deliver {
                id: message.id,
                from: message.from,
                to: message.to,
            };
            if adversarial {
                self.trace_other.push(event);
            } else {
                self.trace_deliver.push(event);
            }
        }
        let to = message.to;
        self.metrics.proc_mut(to).messages_received += 1;
        if self.process(to).crashed {
            return;
        }
        let quorum = self.config.quorum();
        match message.payload {
            WireMessage::Propagate { seq, entries } => {
                self.process_mut(to).replica.apply_all(&entries);
                // Super-round semantics guarantee the caller still has this
                // call outstanding when the request arrives (requests are
                // delivered exactly one round after they were sent, and the
                // quorum needs the replies of the round after that), so the
                // reply is unconditional — no cross-partition peek needed.
                debug_assert!(
                    !self.owns(message.from) || self.call_outstanding(message.from, seq),
                    "super-round invariant: requests arrive while their call is outstanding"
                );
                self.send(
                    RouteKey::reply(message.id.0),
                    to,
                    message.from,
                    WireMessage::Ack { seq },
                );
            }
            WireMessage::Collect {
                seq,
                instance,
                known,
            } => {
                debug_assert!(
                    !self.owns(message.from) || self.call_outstanding(message.from, seq),
                    "super-round invariant: requests arrive while their call is outstanding"
                );
                let view = self.process_mut(to).replica.transfer_since(instance, known);
                self.send(
                    RouteKey::reply(message.id.0),
                    to,
                    message.from,
                    WireMessage::CollectReply { seq, view },
                );
            }
            WireMessage::Ack { seq } => {
                self.process_mut(to).record_ack(message.from, seq, quorum);
                self.purge_if_completed(to);
            }
            WireMessage::CollectReply { seq, view } => {
                self.process_mut(to)
                    .record_view(message.from, seq, view, quorum);
                self.purge_if_completed(to);
            }
        }
        self.sync_phase(to);
    }

    fn call_outstanding(&self, caller: ProcId, seq: u64) -> bool {
        match &self.process(caller).pending {
            PendingWork::AwaitingAcks { seq: s, .. }
            | PendingWork::AwaitingViews { seq: s, .. } => *s == seq,
            _ => false,
        }
    }

    fn live_participants(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.processes
            .iter()
            .filter(|p| p.is_live_participant())
            .map(|p| p.id)
    }
}

impl Drop for PartitionEngine {
    fn drop(&mut self) {
        let mut arena = SimArena {
            slab: std::mem::take(&mut self.slab),
            enabled_msgs: std::mem::take(&mut self.enabled_msgs),
            enabled_steps: std::mem::take(&mut self.enabled_steps),
            processes: std::mem::take(&mut self.processes),
            crashes: std::mem::take(&mut self.crashes),
            scratch_slots: std::mem::take(&mut self.scratch_slots),
            observations: Vec::new(),
            reuses: self.arena_reuses,
        };
        arena.slab.clear();
        arena.enabled_msgs.clear();
        arena.crashes.clear();
        arena.scratch_slots.clear();
        for process in &mut arena.processes {
            process.recycle(process.id);
        }
        SimArena::pool(arena);
    }
}

// ---------------------------------------------------------------------------
// The parallel simulator (leader + barrier)
// ---------------------------------------------------------------------------

/// What drives a run: a pre-declared crash plan (canonical mode) or one
/// adversary per partition (adversarial mode).
enum RoundMode {
    Canonical { plan: RoundCrashPlan, cursor: usize },
    Adversarial,
}

/// The partitioned parallel simulator. See the module documentation for the
/// super-round execution model.
///
/// Construction mirrors the sequential [`crate::Simulator`]: build a
/// [`SimConfig`] (with [`SimConfig::with_partitions`]), register
/// participants, then either [`ParallelSimulator::run_canonical`] /
/// [`ParallelSimulator::run_adversarial`] to completion or drive
/// [`ParallelSimulator::step_round`] round by round (online oracles).
pub struct ParallelSimulator {
    config: SimConfig,
    map: PartitionMap,
    engines: Vec<PartitionEngine>,
    workers: usize,
    mode: RoundMode,
    round: u64,
    next_message_id: u64,
    events_executed: u64,
    /// Canonical-mode crash log, in application order.
    crashes: Vec<ProcId>,
    report: ExecutionReport,
}

impl ParallelSimulator {
    /// Create a parallel simulator over `config.partitions` partitions
    /// (a value of 0 means 1). Defaults to canonical mode with no crashes.
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
            engines,
            workers: 0,
            mode: RoundMode::Canonical {
                plan: RoundCrashPlan::none(),
                cursor: 0,
            },
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
        if engine.process(proc).participates() {
            return Err(SimError::InvalidParticipant {
                proc,
                reason: "already registered".to_string(),
            });
        }
        engine.process_mut(proc).participate(protocol);
        engine.live += 1;
        engine.sync_proc(proc);
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

    /// Switch to canonical mode with the given crash plan.
    ///
    /// # Errors
    /// The plan's [`RoundCrashPlan::validate`] errors.
    pub fn set_crash_plan(&mut self, plan: &RoundCrashPlan) -> Result<(), SimError> {
        plan.validate(&self.config)?;
        self.mode = RoundMode::Canonical {
            plan: plan.clone(),
            cursor: 0,
        };
        Ok(())
    }

    /// Switch to adversarial mode: `factory(partition, seed)` builds one
    /// adversary per partition, where `seed` is
    /// [`partition_adversary_seed`]`(config.seed, partition)`. Each partition
    /// gets `budget/p` of the crash budget plus one of the first
    /// `budget % p` remainder units, and may only crash its own processors.
    pub fn set_adversaries(&mut self, mut factory: impl FnMut(usize, u64) -> Box<dyn Adversary>) {
        let parts = self.engines.len();
        let budget = self.config.crash_budget;
        let n = self.config.n;
        for (part, engine) in self.engines.iter_mut().enumerate() {
            engine.adversary = Some(factory(
                part,
                partition_adversary_seed(self.config.seed, part),
            ));
            engine.crash_budget = budget / parts + usize::from(part < budget % parts);
            if engine.observation.is_none() {
                let mut observation = SystemObservation {
                    n,
                    events_executed: 0,
                    crash_budget_left: engine.crash_budget,
                    processes: (0..n)
                        .map(|i| ProcessObservation {
                            proc: ProcId(i),
                            phase: ProcessPhase::Idle,
                            local_state: None,
                        })
                        .collect(),
                };
                // Fill in the local processors' real phases.
                for offset in 0..(engine.hi - engine.lo) {
                    let proc = engine.processes[offset].id;
                    let _ = proc;
                    observation.processes[engine.lo + offset].proc = ProcId(engine.lo + offset);
                }
                engine.observation = Some(observation);
                for index in engine.lo..engine.hi {
                    engine.sync_proc(ProcId(index));
                }
            }
        }
        self.mode = RoundMode::Adversarial;
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
        self.engines.iter().map(|e| e.live).sum()
    }

    fn budget_exhausted(&self) -> SimError {
        SimError::EventBudgetExhausted {
            budget: self.config.max_events,
            unfinished: self
                .engines
                .iter()
                .flat_map(|e| e.live_participants())
                .collect(),
        }
    }

    /// Apply one canonical-mode crash at the barrier (leader context: all
    /// enabled-message indexes are empty between rounds, so there is nothing
    /// to retire — undelivered messages to the victim are simply never
    /// enabled at intake).
    fn crash_at_barrier(&mut self, victim: ProcId) {
        let engine = &mut self.engines[self.map.partition_of(victim)];
        debug_assert!(!engine.process(victim).crashed, "plan victims are unique");
        if engine.process(victim).is_live_participant() {
            engine.live -= 1;
        }
        engine.process_mut(victim).crashed = true;
        engine.sync_proc(victim);
        self.crashes.push(victim);
        self.report.trace.push(TraceEvent::Crash { proc: victim });
    }

    /// Run the per-partition round bodies, inline or on scoped worker
    /// threads. The partition-to-worker assignment cannot affect results —
    /// partitions share no state within a round — which is what the
    /// worker-count determinism tests pin down.
    fn dispatch_round(&mut self) {
        let adversarial = matches!(self.mode, RoundMode::Adversarial);
        let parts = self.engines.len();
        let workers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(1)
                .min(parts)
        } else {
            self.workers.min(parts)
        };
        if workers <= 1 || parts == 1 {
            for engine in &mut self.engines {
                if adversarial {
                    engine.run_round_adversarial();
                } else {
                    engine.run_round_canonical();
                }
            }
            return;
        }
        let chunk = parts.div_ceil(workers);
        std::thread::scope(|scope| {
            for engines in self.engines.chunks_mut(chunk) {
                scope.spawn(move || {
                    for engine in engines {
                        if adversarial {
                            engine.run_round_adversarial();
                        } else {
                            engine.run_round_canonical();
                        }
                    }
                });
            }
        });
    }

    /// Execute one super-round. Returns `Ok(false)` — without running
    /// anything — once every live participant has returned.
    ///
    /// # Errors
    /// * [`SimError::EventBudgetExhausted`] if the event budget ran out or
    ///   the system can no longer make progress (quorums that can never
    ///   form). Unlike the sequential engine, the budget is enforced at
    ///   round granularity, so a run may overshoot `max_events` by up to one
    ///   round before erroring.
    /// * Adversarial mode: any error a partition adversary provokes
    ///   ([`SimError::InvalidDecision`], [`SimError::CrashBudgetExceeded`]),
    ///   reported for the lowest-numbered failing partition.
    pub fn step_round(&mut self) -> Result<bool, SimError> {
        if self.live() == 0 {
            return Ok(false);
        }
        if self.events_executed >= self.config.max_events {
            return Err(self.budget_exhausted());
        }

        // Barrier, part 1: due crashes (canonical mode), applied one at a
        // time with the sequential engine's "did the last live participant
        // just die" check between them.
        let mut crashes_this_round = 0u64;
        if let RoundMode::Canonical { plan, cursor } = &mut self.mode {
            let mut due = Vec::new();
            while *cursor < plan.entries().len() && plan.entries()[*cursor].0 <= self.round {
                due.push(plan.entries()[*cursor].1);
                *cursor += 1;
            }
            for victim in due {
                if self.live() == 0 {
                    return Ok(false);
                }
                self.crash_at_barrier(victim);
                crashes_this_round += 1;
            }
            if self.live() == 0 {
                return Ok(false);
            }
        }

        // The round body: all partitions in parallel.
        self.dispatch_round();
        for engine in &self.engines {
            if let Some(error) = &engine.round_error {
                return Err(error.clone());
            }
        }

        // Barrier, part 2: global event numbering and interval/outcome
        // bookkeeping from the markers — O(partitions + markers), not
        // O(events), so the serial fraction stays flat as n grows.
        let adversarial = matches!(self.mode, RoundMode::Adversarial);
        let base = self.events_executed;
        let d_total: u64 = self.engines.iter().map(|e| e.round_delivered).sum();
        let s_total: u64 = self.engines.iter().map(|e| e.round_steps).sum();
        let mut prefix = 0u64;
        for engine in &mut self.engines {
            let marker_base = if adversarial {
                base + prefix
            } else {
                base + d_total + prefix
            };
            for marker in engine.markers.drain(..) {
                let global = marker_base + marker.pos;
                match marker.kind {
                    MarkerKind::Start => {
                        self.report.intervals.insert(marker.proc, (global, None));
                    }
                    MarkerKind::Ret(outcome) => {
                        self.report.outcomes.insert(marker.proc, outcome);
                        self.report
                            .intervals
                            .entry(marker.proc)
                            .or_insert((global, None))
                            .1 = Some(global);
                    }
                }
            }
            prefix += if adversarial {
                engine.round_delivered + engine.round_steps
            } else {
                engine.round_steps
            };
        }
        self.events_executed += d_total + s_total;

        // Trace merge (only when recording): canonical rounds interleave the
        // delivery sections by message id and concatenate the step sections
        // in partition order (= ascending processor order, since partitions
        // are contiguous); adversarial rounds concatenate each partition's
        // local event sequence.
        if self.config.record_trace {
            if !adversarial {
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
            }
            for engine in &mut self.engines {
                for event in engine.trace_deliver.drain(..) {
                    if adversarial {
                        self.report.trace.push(event);
                    }
                }
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

        // Barrier, part 3: merge the outboxes in RouteKey order, assign
        // global message ids, and route each message to its recipient's
        // partition. Each outbox is already key-sorted (keys are generated
        // in ascending trigger order), so this is a p-way merge.
        let mut outboxes: Vec<Vec<Outbound>> = self
            .engines
            .iter_mut()
            .map(|e| std::mem::take(&mut e.outbox))
            .collect();
        let mut inboxes: Vec<Vec<InFlightMessage>> = self
            .engines
            .iter_mut()
            .map(|e| std::mem::take(&mut e.inbox))
            .collect();
        let mut cursors = vec![0usize; outboxes.len()];
        let mut routed = 0u64;
        loop {
            let mut best: Option<(RouteKey, usize)> = None;
            for (part, outbox) in outboxes.iter().enumerate() {
                if let Some(out) = outbox.get(cursors[part]) {
                    if best.is_none_or(|(key, _)| out.key < key) {
                        best = Some((out.key, part));
                    }
                }
            }
            let Some((_, part)) = best else { break };
            let out = std::mem::replace(&mut outboxes[part][cursors[part]], Outbound::tombstone());
            cursors[part] += 1;
            let id = MessageId(self.next_message_id);
            self.next_message_id += 1;
            let dest = self.map.partition_of(out.to);
            inboxes[dest].push(InFlightMessage {
                id,
                from: out.from,
                to: out.to,
                payload: out.payload,
                // Messages live exactly one barrier; the send round is
                // recorded for diagnostics only (the sequential engine
                // stamps an event count here — neither value reaches any
                // report).
                sent_at: self.round,
            });
            routed += 1;
        }
        for (engine, mut outbox) in self.engines.iter_mut().zip(outboxes) {
            outbox.clear();
            engine.outbox = outbox;
        }
        for (engine, inbox) in self.engines.iter_mut().zip(inboxes) {
            engine.inbox = inbox;
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

    /// Run to completion in canonical mode under `plan`.
    ///
    /// # Errors
    /// [`RoundCrashPlan::validate`] errors and [`ParallelSimulator::step_round`]
    /// errors.
    pub fn run_canonical(&mut self, plan: &RoundCrashPlan) -> Result<ExecutionReport, SimError> {
        self.set_crash_plan(plan)?;
        while self.step_round()? {}
        Ok(self.finish())
    }

    /// Run to completion in adversarial mode; see
    /// [`ParallelSimulator::set_adversaries`] for the factory contract.
    ///
    /// # Errors
    /// [`ParallelSimulator::step_round`] errors.
    pub fn run_adversarial(
        &mut self,
        factory: impl FnMut(usize, u64) -> Box<dyn Adversary>,
    ) -> Result<ExecutionReport, SimError> {
        self.set_adversaries(factory);
        while self.step_round()? {}
        Ok(self.finish())
    }

    /// Merge and take the report (counterpart of the sequential engine's
    /// [`crate::Simulator::finish`]). Metrics are absorbed from every
    /// partition; crashes are reported in application order (canonical) or
    /// partition order (adversarial).
    pub fn finish(&mut self) -> ExecutionReport {
        let mut report = std::mem::take(&mut self.report);
        report.events_executed = self.events_executed;
        for engine in &self.engines {
            report.metrics.absorb(&engine.metrics);
        }
        report.crashed = if matches!(self.mode, RoundMode::Adversarial) {
            self.engines
                .iter()
                .flat_map(|e| e.crashes.clone())
                .collect()
        } else {
            std::mem::take(&mut self.crashes)
        };
        report
    }

    /// A merged snapshot of the in-progress report (outcomes, intervals,
    /// metrics, crashes, trace so far). O(n) — built for online oracles
    /// between rounds, not for hot loops.
    pub fn merged_report_so_far(&self) -> ExecutionReport {
        let mut report = self.report.clone();
        report.events_executed = self.events_executed;
        for engine in &self.engines {
            report.metrics.absorb(&engine.metrics);
        }
        report.crashed = if matches!(self.mode, RoundMode::Adversarial) {
            self.engines
                .iter()
                .flat_map(|e| e.crashes.clone())
                .collect()
        } else {
            self.crashes.clone()
        };
        report
    }

    /// A merged full-system observation as of the last barrier (O(n); for
    /// online oracles between rounds).
    pub fn merged_observation(&self) -> SystemObservation {
        let crashes: usize = if matches!(self.mode, RoundMode::Adversarial) {
            self.engines.iter().map(|e| e.crashes.len()).sum()
        } else {
            self.crashes.len()
        };
        let mut processes = Vec::with_capacity(self.config.n);
        for engine in &self.engines {
            processes.extend(engine.processes.iter().map(SimProcess::observation));
        }
        SystemObservation {
            n: self.config.n,
            events_executed: self.events_executed,
            crash_budget_left: self.config.crash_budget.saturating_sub(crashes),
            processes,
        }
    }

    /// Smallest arena-recycle count over this simulator's partitions
    /// (diagnostic for the arena-pool tests: > 0 means every partition got a
    /// recycled buffer set instead of fresh allocations).
    pub fn min_arena_reuses(&self) -> u64 {
        self.engines
            .iter()
            .map(|e| e.arena_reuses)
            .min()
            .unwrap_or(0)
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
