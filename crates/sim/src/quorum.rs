//! The processor side of `communicate`, written once for both engines.
//!
//! `communicate(propagate / collect)` is the quorum emulation of shared
//! memory over message passing (ABND95) that the paper's model runs on. A
//! [`QuorumCore`] owns the processor shells of one contiguous id range, the
//! messages addressed to them and the step-enabled index, and it runs every
//! step of a call: taking a step's pending response, starting a propagate
//! or collect call, drawing a per-processor coin, completing a quorum,
//! answering a request as a replica and recording an ack or a view. The
//! sequential [`crate::Simulator`] holds one core over all `n` processors;
//! each partition of the [`crate::ParallelSimulator`] holds one over its
//! range. Where a send goes is the engine's [`Network`], a generic
//! parameter, so a send is a direct call.
//!
//! A core keeps its messages in one of two stores, one per engine. Both
//! answer a request through one replica body ([`QuorumCore::serve`]) and
//! record a reply through the caller's `record_ack` or `record_view`:
//!
//! * **The slab**, where an adversary picks by rank: the sequential engine
//!   [`QuorumCore::store`]s each message under an id-ordered index. A
//!   completed call's leftovers are purged from it, and a crash drops the
//!   victim's messages.
//! * **The batch**, where nobody picks: a partition's round delivers every
//!   entry the last barrier routed to it, in id order, so the barrier
//!   [`QuorumCore::enqueue`]s them on a `Vec` that
//!   [`QuorumCore::drain_batch`] delivers front to back. An entry is a
//!   broadcast record or a reply run (below), each standing for messages
//!   under consecutive ids. The drain skips, without an event, only a run
//!   whose caller crashed at the barrier: the round before built no reply
//!   that would arrive after its call's quorum formed.
//!
//! A partition routes each broadcast once. Its [`Network::broadcast`] puts
//! one entry for all `n − 1` requests of a call in the outbox, and the
//! barrier numbers it with their `n − 1` consecutive ids and batches one
//! **record** of it (the first id, the sender and the one request payload)
//! at each partition that holds a target. The drain delivers a record as
//! the requests it stands for: one to each of the core's processors but
//! the sender and the crashed, ascending, each under its own id
//! (`request_id`), all answered from the record's payload. Every request in an
//! outbox or a batch is such a record, so that is what marks one; a record
//! is addressed to its sender, as no message is.
//!
//! A partition answers each record with one **reply run**, and builds only
//! the replies that can complete a quorum. A call's requests are all
//! delivered in one round and its replies in the next, in id order, which
//! is the order of the answerers' ids (the processors not crashed in the
//! first round, less the caller). So the caller's quorum forms at the reply
//! of its `quorum − 1`-th answerer, and every later reply would arrive
//! after it, to be skipped (the slab would purge it). Every target answers
//! its request, merging a propagate into its replica, and its reply counts
//! in `messages_sent`; the drain sends the replies of all the core's
//! targets as one outbox entry, a [`WireMessage::Replies`] addressed to the
//! caller under the first target's request id, and the barrier gives the
//! run one id per target, consecutive, as the replies would have taken
//! (they are consecutive in key order). Only a target ranked below
//! `quorum − 1` among the answerers builds its reply into the run: its id,
//! and its collect snapshot. Those are the run's first replies, and a run
//! without one goes nowhere. The rank counts the core's uncrashed
//! processors below the target, plus those below the core's range
//! ([`QuorumCore::set_uncrashed_below`]), less one for a sender below the
//! range. It is never too high, and it is one too low only when such a
//! sender crashed at this round's barrier, and the next barrier drops the
//! runs to it. The caller's drain delivers a run as its built replies, the
//! `i`-th from its `i`-th responder under the run's first id plus `i`, each
//! an event of its own.
//!
//! A partition's core also holds the partition's outbox, the round's sends
//! before the barrier numbers and routes them, so that its allocation is
//! recycled through the arena with the batch's.
//!
//! Two rules hold for every stored message, in either store (a batched
//! record's requests to the core's processors, a batched run's built
//! replies). The tests check them after every event of the sequential
//! engine and after every round of the partitioned one, crash-heavy runs
//! included:
//!
//! * **None is addressed to a crashed processor.** A crash drops the
//!   victim's messages from the slab, the next drain skips the runs to it
//!   and its requests of every record, and a later message or run to it is
//!   neither stored nor batched; the send still counts in `messages_sent`
//!   and uses up a message id.
//! * **Each belongs to a call still outstanding at its caller** (a request
//!   at its sender, a reply at its recipient): the slab purges a call's
//!   leftovers the moment its quorum forms, and a call's runs build no
//!   reply past the one that completes its quorum. So a replica answers
//!   every request it is delivered, a caller records every reply it is
//!   delivered, and the core only debug-asserts the rule.

use crate::engine::SimConfig;
use crate::error::SimError;
use crate::event_set::{IndexedBitSet, OrderedMsgSet};
use crate::message::{endpoint, InFlightMessage, MessageId, MessageSlab};
use crate::observation::{EnabledEvents, SystemObservation};
use crate::partition::{coin_bool, coin_word, Outbound};
use crate::process::{PendingWork, SimProcess};
use fle_model::wire::CallSeq;
use fle_model::{
    Action, BitRow, ExecutionMetrics, InstanceId, Key, Outcome, ProcId, Protocol, Response,
    RouteKey, Value, View, WireMessage,
};
use std::ops::Range;
use std::sync::Arc;

/// What an engine decides about the traffic its [`QuorumCore`] produces.
pub(crate) trait Network {
    /// Send one message, or a partition's reply run (a
    /// [`WireMessage::Replies`] addressed to its caller). `key` names the
    /// event that triggered the send (the delivered message for a reply,
    /// the stepping processor for a request); the partitioned engine orders
    /// its barrier by it. The core has already counted the send.
    ///
    /// Returns the slot if the message went into `core`'s slab at once. Only
    /// such a request can still be undelivered when its call completes, so
    /// only then does the caller's call track it for the purge; a partition
    /// delivers every request the round after it was sent, before any reply
    /// to it can arrive.
    fn send(
        &mut self,
        core: &mut QuorumCore,
        key: RouteKey,
        from: ProcId,
        to: ProcId,
        payload: WireMessage,
    ) -> Option<u32>;

    /// Send `request` from `from` to every other processor: the `n − 1`
    /// requests of one call, which the core has already counted. By
    /// default, one [`Network::send`] per target in ascending order, each
    /// request that went into the slab tracked under the caller's call for
    /// the purge.
    fn broadcast(&mut self, core: &mut QuorumCore, from: ProcId, request: WireMessage) {
        let key = RouteKey::broadcast(from);
        for target in (0..core.n).filter(|&target| target != from.index()) {
            if let Some(slot) = self.send(core, key, from, ProcId(target), request.clone()) {
                core.process_mut(from).call_msgs.push(slot);
            }
        }
    }

    /// The metrics the core's counters go to.
    fn metrics(&mut self) -> &mut ExecutionMetrics;

    /// The value of `proc`'s next coin flip.
    fn flip(&mut self, core: &mut QuorumCore, proc: ProcId, prob_one: f64) -> bool {
        core.flip(proc, prob_one)
    }

    /// The index of `proc`'s next random choice among `len > 0` options.
    fn choose(&mut self, core: &mut QuorumCore, proc: ProcId, len: usize) -> usize {
        core.choose(proc, len)
    }
}

/// An event an engine resolved from an adversary's decision.
pub(crate) enum Scheduled {
    /// A step of this processor.
    Step(ProcId),
    /// The delivery of the message in this slab slot.
    Deliver(u32),
}

/// What a protocol step did, for the engine's own bookkeeping.
pub(crate) struct Stepped {
    /// This was the processor's first step (its invocation).
    pub(crate) first: bool,
    /// The step flipped a coin with this value.
    pub(crate) coin: Option<bool>,
    /// The protocol returned this outcome.
    pub(crate) returned: Option<Outcome>,
}

/// The processor side of `communicate` for the processors `lo..lo + len`
/// of an `n`-processor system. See the module documentation.
#[derive(Default)]
pub(crate) struct QuorumCore {
    /// The first processor id this core holds.
    lo: usize,
    n: usize,
    quorum: usize,
    seed: u64,
    /// The processor shells, indexed by `proc - lo`.
    processes: Vec<SimProcess>,
    /// Undelivered messages addressed to this core's processors, where an
    /// adversary picks.
    slab: MessageSlab,
    /// The broadcast records and reply runs the last barrier routed to this
    /// core's processors, ascending by id, for the next round to drain.
    batch: Vec<InFlightMessage>,
    /// A partition's sends of the current round, for the barrier to number
    /// and route; kept here so that its allocation is recycled with the
    /// batch's.
    outbox: Vec<Outbound>,
    /// Step-enabled processors. Indexed by **global** processor id (only
    /// this core's bits are ever set), so enabled-event views hand
    /// adversaries global `ProcId`s.
    enabled_steps: IndexedBitSet,
    /// Deliverable messages, ascending by message id.
    enabled_msgs: OrderedMsgSet,
    /// Registered participants that have neither crashed nor returned.
    live: usize,
    /// This core's processors that have not crashed.
    uncrashed: usize,
    /// The processors below this core's range that had not crashed at the
    /// last canonical barrier, for the ranks of the drain's replies.
    uncrashed_below: usize,
    /// The recipients of the replies the drain skipped, one per built reply
    /// of a skipped run.
    #[cfg(test)]
    pub(crate) skipped: Vec<ProcId>,
}

// The small methods the engines call on every event are `#[inline]`: the
// engines live in other modules, which rustc may put in other codegen units,
// and without the hint those calls are not inlined (about 3% of `sim-n96`
// and `sim-part-n256` throughput on a 2-vCPU host).
impl QuorumCore {
    /// Make the core hold the pristine processors `range` of the system
    /// `config` describes, reusing its buffers.
    pub(crate) fn reset(&mut self, range: Range<usize>, config: &SimConfig) {
        self.lo = range.start;
        self.n = config.n;
        self.quorum = config.quorum();
        self.seed = config.seed;
        self.slab.clear();
        self.batch.clear();
        self.outbox.clear();
        self.enabled_msgs.clear();
        self.enabled_steps.reset(config.n);
        self.live = 0;
        self.uncrashed = range.len();
        self.uncrashed_below = 0;
        #[cfg(test)]
        self.skipped.clear();
        let len = range.len();
        for (offset, process) in self.processes.iter_mut().enumerate().take(len) {
            process.recycle(ProcId(range.start + offset));
        }
        self.processes.truncate(len);
        while self.processes.len() < len {
            let id = ProcId(range.start + self.processes.len());
            self.processes.push(SimProcess::replica_only(id));
        }
    }

    /// Empty every buffer, keeping its capacity: a core parked in the arena
    /// pool holds no protocol boxes, replica contents or message payloads.
    pub(crate) fn clear(&mut self) {
        self.slab.clear();
        self.batch.clear();
        self.outbox.clear();
        self.enabled_msgs.clear();
        for process in &mut self.processes {
            process.recycle(process.id);
        }
    }

    /// Number of message slots ever allocated.
    pub(crate) fn slab_capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Whether `proc` is one of this core's processors.
    #[inline]
    pub(crate) fn owns(&self, proc: ProcId) -> bool {
        (self.lo..self.lo + self.processes.len()).contains(&proc.index())
    }

    /// The shell of `proc`, which this core must own.
    #[inline]
    pub(crate) fn process(&self, proc: ProcId) -> &SimProcess {
        &self.processes[proc.index() - self.lo]
    }

    #[inline]
    fn process_mut(&mut self, proc: ProcId) -> &mut SimProcess {
        &mut self.processes[proc.index() - self.lo]
    }

    /// Every shell, ascending by processor id.
    pub(crate) fn processes(&self) -> &[SimProcess] {
        &self.processes
    }

    /// The slab's messages, in slot order: every undelivered message of
    /// the sequential engine.
    pub(crate) fn slab_messages(&self) -> impl Iterator<Item = &InFlightMessage> {
        self.slab.iter().map(|(_, message)| message)
    }

    /// The undelivered messages: the slab's in slot order, then the
    /// batch's, each entry as the messages it stands for.
    #[cfg(test)]
    pub(crate) fn stored(&self) -> impl Iterator<Item = std::borrow::Cow<'_, InFlightMessage>> {
        use std::borrow::Cow;
        let slab = self.slab_messages().map(Cow::Borrowed);
        let batch = self.batch.iter().flat_map(|entry| self.expand(entry));
        slab.chain(batch.map(Cow::Owned))
    }

    /// The messages a batched entry stands for, which the drain delivers,
    /// ascending by id: a record's requests, one to each of the core's
    /// processors but the sender and the crashed; a run's built replies,
    /// the `i`-th from its `i`-th responder under the run's id plus `i`.
    /// The tests' view of the batch, through [`QuorumCore::stored`].
    #[cfg(test)]
    fn expand(&self, entry: &InFlightMessage) -> Vec<InFlightMessage> {
        if let WireMessage::Replies { seq, built, .. } = &entry.payload {
            let seq = *seq;
            let reply = |view: &Option<Arc<View>>| match view {
                Some(view) => WireMessage::CollectReply {
                    seq,
                    view: Arc::clone(view),
                },
                None => WireMessage::Ack { seq },
            };
            let ids = (entry.id.0..).map(MessageId);
            return ids
                .zip(built.iter())
                .map(|(id, (from, view))| {
                    InFlightMessage::new(id, ProcId(*from as usize), entry.to(), reply(view))
                })
                .collect();
        }
        let sender = entry.from();
        let request = |target| {
            let id = request_id(entry, target)?;
            Some(InFlightMessage::new(
                id,
                sender,
                target.id,
                entry.payload.clone(),
            ))
        };
        self.processes.iter().filter_map(request).collect()
    }

    /// The partitioned engine's outbox for this core's processors.
    #[inline]
    pub(crate) fn outbox(&mut self) -> &mut Vec<Outbound> {
        &mut self.outbox
    }

    /// Registered participants that have neither crashed nor returned.
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// This core's processors that have not crashed.
    #[inline]
    pub(crate) fn uncrashed(&self) -> usize {
        self.uncrashed
    }

    /// Record `proc`'s first step as global event `event`: a partition
    /// learns the number only at the barrier after the step.
    #[inline]
    pub(crate) fn set_started_at(&mut self, proc: ProcId, event: u64) {
        self.process_mut(proc).started_at = Some(event);
    }

    /// Set how many processors below this core's range have not crashed,
    /// after a canonical barrier's crashes and before the round drains.
    #[inline]
    pub(crate) fn set_uncrashed_below(&mut self, count: usize) {
        self.uncrashed_below = count;
    }

    /// Those participants, ascending by id.
    pub(crate) fn live_participants(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.processes
            .iter()
            .filter(|p| p.is_live_participant())
            .map(|p| p.id)
    }

    /// Number of enabled events.
    #[inline]
    pub(crate) fn enabled_len(&self) -> usize {
        self.enabled_steps.len() + self.enabled_msgs.len()
    }

    /// The enabled events as an adversary sees them: steps ascending by
    /// processor, then deliveries ascending by message id.
    #[inline]
    pub(crate) fn enabled(&self) -> EnabledEvents<'_> {
        EnabledEvents::live(&self.enabled_steps, &self.enabled_msgs, &self.slab)
    }

    /// The event at `index` of [`QuorumCore::enabled`].
    #[inline]
    pub(crate) fn resolve(&self, index: usize) -> Option<Scheduled> {
        let steps = self.enabled_steps.len();
        if index < steps {
            return self
                .enabled_steps
                .select(index)
                .map(|p| Scheduled::Step(ProcId(p)));
        }
        let (_, slot) = self.enabled_msgs.select(index - steps)?;
        Some(Scheduled::Deliver(slot))
    }

    /// The step-enabled processor with the smallest id.
    #[inline]
    pub(crate) fn first_step(&self) -> Option<ProcId> {
        self.enabled_steps.select(0).map(ProcId)
    }

    /// Attach `protocol` to `proc`.
    ///
    /// # Errors
    /// [`SimError::InvalidParticipant`] if `proc` already participates.
    pub(crate) fn register(
        &mut self,
        proc: ProcId,
        protocol: Box<dyn Protocol>,
    ) -> Result<(), SimError> {
        let process = self.process_mut(proc);
        if process.participates() {
            return Err(SimError::InvalidParticipant {
                proc,
                reason: "already registered".to_string(),
            });
        }
        process.participate(protocol);
        self.live += 1;
        Ok(())
    }

    /// Re-sync `proc`'s step-enabled bit, and its entry in `observation` if
    /// the engine keeps one, after it stepped, crashed or registered.
    #[inline]
    pub(crate) fn sync(&mut self, proc: ProcId, observation: Option<&mut SystemObservation>) {
        let process = &self.processes[proc.index() - self.lo];
        self.enabled_steps.set(proc.index(), process.step_enabled());
        if let Some(observation) = observation {
            observation.processes[proc.index()] = process.observation();
        }
    }

    /// Re-sync `proc`'s step-enabled bit and observed phase after a
    /// delivery. A delivery never steps the protocol, so the observed local
    /// state (the protocol's `adversary_view()`) cannot have changed.
    #[inline]
    pub(crate) fn sync_phase(&mut self, proc: ProcId, observation: Option<&mut SystemObservation>) {
        let process = &self.processes[proc.index() - self.lo];
        self.enabled_steps.set(proc.index(), process.step_enabled());
        if let Some(observation) = observation {
            observation.processes[proc.index()].phase = process.phase();
        }
    }

    /// Crash `victim`, which must not have crashed yet, and drop its
    /// undelivered messages from the slab: they can never be delivered now.
    pub(crate) fn crash(&mut self, victim: ProcId) {
        self.mark_crashed(victim);
        let doomed: Vec<u32> = self
            .enabled_msgs
            .iter()
            .map(|(_, slot)| slot)
            .filter(|&slot| {
                let message = self
                    .slab
                    .get(slot)
                    .expect("enabled message indexes a live slab slot");
                message.to() == victim
            })
            .collect();
        for slot in doomed {
            self.remove(slot);
        }
    }

    /// Crash `victim`, which must not have crashed yet, and leave its
    /// batched messages for the next drain to skip.
    pub(crate) fn mark_crashed(&mut self, victim: ProcId) {
        let process = self.process_mut(victim);
        let was_live = process.is_live_participant();
        process.crashed = true;
        if was_live {
            self.live -= 1;
        }
        self.uncrashed -= 1;
    }

    /// Store a message addressed to one of this core's processors in the
    /// slab and return its slot; a reply is tracked under the call awaiting
    /// it. A message to a crashed processor is dropped instead.
    #[inline]
    pub(crate) fn store(&mut self, message: InFlightMessage) -> Option<u32> {
        let (id, to, is_reply) = (message.id, message.to(), message.is_reply());
        debug_assert!(self.owns(to), "message stored at the wrong core");
        if self.process(to).crashed {
            return None;
        }
        let slot = self.slab.insert(message);
        if is_reply {
            self.process_mut(to).call_msgs.push(slot);
        }
        self.enabled_msgs.insert(id, slot);
        Some(slot)
    }

    /// Append a broadcast record with a target here, or a reply run to one
    /// of this core's processors, to the batch; its id must exceed every
    /// batched one. A run to a crashed processor is dropped instead; the
    /// drain skips a record's crashed targets.
    #[inline]
    pub(crate) fn enqueue(&mut self, entry: InFlightMessage) {
        debug_assert!(
            entry.is_request() || self.owns(entry.to()),
            "reply run batched at the wrong core"
        );
        debug_assert!(
            self.batch.last().is_none_or(|last| last.id < entry.id),
            "batched ids must ascend"
        );
        if entry.is_request() || !self.process(entry.to()).crashed {
            self.batch.push(entry);
        }
    }

    #[inline]
    fn remove(&mut self, slot: u32) -> Option<InFlightMessage> {
        let message = self.slab.remove(slot)?;
        self.enabled_msgs.remove_slot(slot);
        Some(message)
    }

    /// Count one send and hand it to the engine (see [`Network::send`]).
    fn send<N: Network>(
        &mut self,
        net: &mut N,
        key: RouteKey,
        from: ProcId,
        to: ProcId,
        payload: WireMessage,
    ) -> Option<u32> {
        net.metrics().proc_mut(from).messages_sent += 1;
        net.send(self, key, from, to, payload)
    }

    /// `proc`'s next coin flip from its own stream: `coin_bool` of the
    /// next `coin_word(seed, proc, k)`.
    pub(crate) fn flip(&mut self, proc: ProcId, prob_one: f64) -> bool {
        coin_bool(self.next_coin(proc), prob_one)
    }

    /// `proc`'s next choice among `len > 0` options from its own stream:
    /// the next coin word modulo `len`.
    pub(crate) fn choose(&mut self, proc: ProcId, len: usize) -> usize {
        (self.next_coin(proc) % len as u64) as usize
    }

    fn next_coin(&mut self, proc: ProcId) -> u64 {
        let seed = self.seed;
        let process = self.process_mut(proc);
        let word = coin_word(seed, proc, process.flips);
        process.flips += 1;
        word
    }

    /// Take `proc`'s pending response, run one protocol step on it and
    /// apply the action. `now` is stored as the processor's start if this is
    /// its first step (a partition's round-local position, which the barrier
    /// replaces: [`QuorumCore::set_started_at`]).
    pub(crate) fn step<N: Network>(&mut self, net: &mut N, proc: ProcId, now: u64) -> Stepped {
        let process = self.process_mut(proc);
        let first = process.started_at.is_none();
        if first {
            process.started_at = Some(now);
        }
        let response = match std::mem::replace(&mut process.pending, PendingWork::NotStarted) {
            PendingWork::NotStarted => Response::Start,
            PendingWork::LocalResponse(r) | PendingWork::ResponseReady(r) => r,
            other => unreachable!("{proc} stepped while {other:?}"),
        };
        let action = process
            .protocol
            .as_mut()
            .expect("only participants take steps")
            .step(response);
        let mut stepped = Stepped {
            first,
            coin: None,
            returned: None,
        };
        match action {
            Action::Propagate { entries } => self.start_propagate(net, proc, entries),
            Action::Collect { instance } => self.start_collect(net, proc, instance),
            Action::Flip { prob_one } => {
                let value = net.flip(self, proc, prob_one);
                net.metrics().proc_mut(proc).coin_flips += 1;
                self.process_mut(proc).pending = PendingWork::LocalResponse(Response::Coin(value));
                stepped.coin = Some(value);
            }
            Action::Choose { choices } => {
                net.metrics().proc_mut(proc).coin_flips += 1;
                let chosen = if choices.is_empty() {
                    0
                } else {
                    choices[net.choose(self, proc, choices.len())]
                };
                self.process_mut(proc).pending =
                    PendingWork::LocalResponse(Response::Chosen(chosen));
            }
            Action::Return(outcome) => {
                // A returned processor calls no more: its list goes.
                let process = self.process_mut(proc);
                process.pending = PendingWork::Finished(outcome);
                process.call_msgs = Vec::new();
                self.live -= 1;
                stepped.returned = Some(outcome);
            }
        }
        stepped
    }

    /// Count a new call of `proc` and forget the last one's messages;
    /// returns the call's sequence number and its reply set, which holds the
    /// caller's own reply.
    fn open_call<N: Network>(&mut self, net: &mut N, proc: ProcId) -> (CallSeq, BitRow) {
        net.metrics().proc_mut(proc).communicate_calls += 1;
        let process = self.process_mut(proc);
        process.call_msgs.clear();
        let mut seen = BitRow::new();
        seen.set(proc.index());
        (process.fresh_seq(), seen)
    }

    fn start_propagate<N: Network>(
        &mut self,
        net: &mut N,
        proc: ProcId,
        entries: Vec<(Key, Value)>,
    ) {
        let (seq, seen) = self.open_call(net, proc);
        let process = self.process_mut(proc);
        process.replica.apply_all(&entries);
        process.pending = PendingWork::AwaitingAcks {
            seq,
            acked: 1,
            seen,
        };
        // One shared payload for the whole broadcast: every send is a
        // refcount bump.
        let entries: Arc<[(Key, Value)]> = entries.into();
        self.broadcast(net, proc, WireMessage::Propagate { seq, entries });
    }

    fn start_collect<N: Network>(&mut self, net: &mut N, proc: ProcId, instance: InstanceId) {
        let (seq, seen) = self.open_call(net, proc);
        // Room for the whole quorum up front: the call completes with
        // exactly that many views.
        let mut views = Vec::with_capacity(self.quorum);
        let process = self.process_mut(proc);
        views.push((proc, process.replica.view_arc(instance)));
        process.pending = PendingWork::AwaitingViews { seq, views, seen };
        self.broadcast(net, proc, WireMessage::Collect { seq, instance });
    }

    /// Count and send `request` to every other processor
    /// ([`Network::broadcast`]), then complete the call at once if the
    /// caller alone is a quorum.
    fn broadcast<N: Network>(&mut self, net: &mut N, proc: ProcId, request: WireMessage) {
        net.metrics().proc_mut(proc).messages_sent += self.n as u64 - 1;
        net.broadcast(self, proc, request);
        self.complete_quorum(proc);
    }

    /// If `caller`'s outstanding call has its quorum, make the response
    /// ready and purge the call's leftover messages.
    fn complete_quorum(&mut self, caller: ProcId) {
        let quorum = self.quorum;
        if let Some(seq) = self.process_mut(caller).complete_quorum(quorum) {
            self.purge_completed_call(caller, seq);
        }
    }

    /// Drop the undelivered messages of a communicate call that has reached
    /// its quorum: the leftover requests and replies can never affect the
    /// caller again. Semantically this is the adversary delaying them
    /// forever, which the asynchronous model allows.
    ///
    /// The caller's `call_msgs` list records exactly the slots its current
    /// call touched, so this costs O(call size), not a scan of every stored
    /// message. A listed slot may have been delivered and re-used by an
    /// unrelated message in the meantime; the sequence-number-and-direction
    /// check rejects those, because sequence numbers are scoped to their
    /// caller. The emptied list goes back to the caller, allocation and all,
    /// for its next call.
    fn purge_completed_call(&mut self, caller: ProcId, seq: CallSeq) {
        let mut candidates = std::mem::take(&mut self.process_mut(caller).call_msgs);
        for slot in candidates.drain(..) {
            let Some(message) = self.slab.get(slot) else {
                continue;
            };
            let belongs_to_call = message.payload.seq() == seq
                && ((message.from() == caller && message.is_request())
                    || (message.to() == caller && message.is_reply()));
            if belongs_to_call {
                self.remove(slot);
            }
        }
        self.process_mut(caller).call_msgs = candidates;
    }

    /// Deliver the enabled message in `slot` and purge the leftovers of the
    /// call it completes, if any. Returns the delivered message's id, sender
    /// and recipient.
    #[inline]
    pub(crate) fn deliver<N: Network>(
        &mut self,
        net: &mut N,
        slot: u32,
    ) -> (MessageId, ProcId, ProcId) {
        let message = self
            .remove(slot)
            .expect("an enabled message occupies its slot");
        let ((id, from, to), completed) = self.receive(net, message);
        if let Some(seq) = completed {
            self.purge_completed_call(to, seq);
        }
        (id, from, to)
    }

    /// Deliver the batch front to back and call `delivered` with each
    /// delivered message's id, sender and recipient: a record as the
    /// requests it stands for, all answered from its one payload, and a run
    /// as its built replies, unless its caller crashed at the barrier.
    #[inline]
    pub(crate) fn drain_batch<N: Network>(
        &mut self,
        net: &mut N,
        mut delivered: impl FnMut(MessageId, ProcId, ProcId),
    ) {
        let mut batch = std::mem::take(&mut self.batch);
        for entry in batch.drain(..) {
            if entry.is_request() {
                self.deliver_record(net, &entry, &mut delivered);
            } else {
                self.deliver_run(net, entry, &mut delivered);
            }
        }
        self.batch = batch;
    }

    /// Deliver the requests `record` stands for, ascending by target, without
    /// copying them, and answer them with one reply run to the sender, which
    /// builds only the replies of answerers ranked below `quorum − 1` (see
    /// the module documentation). Answering a request changes no
    /// processor's phase, so nothing needs a re-sync.
    #[inline]
    fn deliver_record<N: Network>(
        &mut self,
        net: &mut N,
        record: &InFlightMessage,
        delivered: &mut impl FnMut(MessageId, ProcId, ProcId),
    ) {
        let (sender, seq) = (record.from(), record.payload.seq());
        self.debug_assert_outstanding(sender, seq);
        // The next target's rank among the call's answerers.
        let below = usize::from(sender.index() < self.lo);
        let mut rank = self.uncrashed_below.saturating_sub(below);
        let room = (self.quorum - 1).saturating_sub(rank);
        let mut built = Vec::with_capacity(room.min(self.processes.len()));
        let mut run: Option<(MessageId, u32)> = None;
        for index in 0..self.processes.len() {
            let target = &self.processes[index];
            let Some(id) = request_id(record, target) else {
                continue;
            };
            let to = target.id;
            let metrics = net.metrics().proc_mut(to);
            metrics.messages_received += 1;
            metrics.messages_sent += 1;
            let build = rank < self.quorum - 1;
            let view = self.serve(to, &record.payload, build);
            if build {
                built.push((endpoint(to), view));
            }
            run.get_or_insert((id, 0)).1 += 1;
            rank += 1;
            delivered(id, sender, to);
        }
        if let Some((first, count)) = run {
            let built = Box::new(built);
            let replies = WireMessage::Replies { seq, count, built };
            net.send(self, RouteKey::reply(first.0), sender, sender, replies);
        }
    }

    /// Deliver a reply run's built replies to its caller, the `i`-th from its
    /// `i`-th responder under the run's id plus `i`, or skip them all if the
    /// caller crashed at the barrier.
    #[inline]
    fn deliver_run<N: Network>(
        &mut self,
        net: &mut N,
        run: InFlightMessage,
        delivered: &mut impl FnMut(MessageId, ProcId, ProcId),
    ) {
        let (first, caller) = (run.id.0, run.to());
        let WireMessage::Replies { seq, built, .. } = run.payload else {
            unreachable!("a batch holds records and reply runs");
        };
        if self.process(caller).crashed {
            #[cfg(test)]
            self.skipped
                .extend(std::iter::repeat_n(caller, built.len()));
            return;
        }
        net.metrics().proc_mut(caller).messages_received += built.len() as u64;
        let quorum = self.quorum;
        for (id, (responder, view)) in (first..).zip(*built) {
            self.debug_assert_outstanding(caller, seq);
            let (from, process) = (ProcId(responder as usize), self.process_mut(caller));
            match view {
                Some(view) => process.record_view(from, seq, view, quorum),
                None => process.record_ack(from, seq, quorum),
            };
            delivered(MessageId(id), from, caller);
        }
        self.sync_phase(caller, None);
    }

    /// The slab's delivery body: a request is answered by the recipient's
    /// replica, a reply is recorded by the caller awaiting it.
    /// Returns the message's id, sender and recipient, and the sequence
    /// number of the call the reply completed, if it did.
    #[inline]
    fn receive<N: Network>(
        &mut self,
        net: &mut N,
        message: InFlightMessage,
    ) -> ((MessageId, ProcId, ProcId), Option<CallSeq>) {
        let (id, from, to) = (message.id, message.from(), message.to());
        net.metrics().proc_mut(to).messages_received += 1;
        debug_assert!(
            !self.process(to).crashed,
            "messages to crashed processors are dropped"
        );
        let caller = if message.is_request() { from } else { to };
        self.debug_assert_outstanding(caller, message.payload.seq());
        let quorum = self.quorum;
        let completed = match message.payload {
            WireMessage::Ack { seq } => self.process_mut(to).record_ack(from, seq, quorum),
            WireMessage::CollectReply { seq, view } => {
                self.process_mut(to).record_view(from, seq, view, quorum)
            }
            request => {
                self.answer(net, id, from, to, &request);
                None
            }
        };
        ((id, from, to), completed)
    }

    /// Answer request `id` from `from` at `to`'s replica and reply.
    #[inline]
    fn answer<N: Network>(
        &mut self,
        net: &mut N,
        id: MessageId,
        from: ProcId,
        to: ProcId,
        request: &WireMessage,
    ) {
        let seq = request.seq();
        let reply = match self.serve(to, request, true) {
            Some(view) => WireMessage::CollectReply { seq, view },
            None => WireMessage::Ack { seq },
        };
        self.send(net, RouteKey::reply(id.0), to, from, reply);
    }

    /// Serve `request` at `to`'s replica: merge a propagate, or snapshot the
    /// collected view if the reply is `built` (the whole view as a
    /// copy-on-write snapshot: a refcount bump). Returns the snapshot.
    #[inline]
    fn serve(&mut self, to: ProcId, request: &WireMessage, built: bool) -> Option<Arc<View>> {
        let replica = &mut self.process_mut(to).replica;
        match request {
            WireMessage::Propagate { entries, .. } => {
                replica.apply_all(entries);
                None
            }
            WireMessage::Collect { instance, .. } => built.then(|| replica.view_arc(*instance)),
            reply => unreachable!("{reply} is not a request"),
        }
    }

    /// A delivered message's call is still outstanding at its caller, when
    /// the caller is ours to look at (see the module documentation).
    fn debug_assert_outstanding(&self, caller: ProcId, seq: CallSeq) {
        debug_assert!(
            !self.owns(caller) || self.process(caller).awaits(seq),
            "a message of {caller}'s completed call {seq} was delivered"
        );
    }
}

/// The id of the request a broadcast `record` stands for to `target`, or
/// `None` if `target` is the sender or has crashed: the record's first id
/// plus the target's position among the broadcast's targets, which ascend
/// and skip the sender.
#[inline]
fn request_id(record: &InFlightMessage, target: &SimProcess) -> Option<MessageId> {
    let (sender, to) = (record.from(), target.id);
    if to == sender || target.crashed {
        return None;
    }
    let sub = to.index() - usize::from(to > sender);
    Some(MessageId(record.id.0 + sub as u64))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fle_model::LocalStateView;

    /// A participant that makes `calls` communicate calls, alternating
    /// propagate and collect, then returns.
    pub(crate) struct Chatter {
        me: ProcId,
        calls: usize,
    }

    impl Chatter {
        pub(crate) fn boxed(me: ProcId, calls: usize) -> Box<dyn Protocol> {
            Box::new(Chatter { me, calls })
        }
    }

    impl Protocol for Chatter {
        fn step(&mut self, _response: Response) -> Action {
            let instance = InstanceId::custom(1, 1);
            if self.calls == 0 {
                return Action::Return(Outcome::Proceed);
            }
            self.calls -= 1;
            if self.calls % 2 == 1 {
                Action::Propagate {
                    entries: vec![(Key::proc(instance, self.me), Value::Flag(true))],
                }
            } else {
                Action::Collect { instance }
            }
        }

        fn adversary_view(&self) -> LocalStateView {
            LocalStateView::new("chatter", "running").with_round(self.calls as u64)
        }
    }

    /// Stores every send in the slab at once, as the sequential engine does.
    struct Direct {
        next_id: u64,
        metrics: ExecutionMetrics,
    }

    impl Network for Direct {
        fn send(
            &mut self,
            core: &mut QuorumCore,
            _key: RouteKey,
            from: ProcId,
            to: ProcId,
            payload: WireMessage,
        ) -> Option<u32> {
            self.next_id += 1;
            core.store(InFlightMessage::new(
                MessageId(self.next_id),
                from,
                to,
                payload,
            ))
        }

        fn metrics(&mut self) -> &mut ExecutionMetrics {
            &mut self.metrics
        }
    }

    #[test]
    fn a_processors_second_call_reuses_its_call_msgs_allocation_until_it_returns() {
        let (n, caller) = (9, ProcId(0));
        let mut core = QuorumCore::default();
        core.reset(0..n, &SimConfig::new(n));
        core.register(caller, Chatter::boxed(caller, 2)).unwrap();
        let mut net = Direct {
            next_id: 0,
            metrics: ExecutionMetrics::default(),
        };
        // Deliver until the call has its quorum and its leftovers are purged.
        let complete = |core: &mut QuorumCore, net: &mut Direct| {
            while !core.process(caller).step_enabled() {
                let Some(Scheduled::Deliver(slot)) = core.resolve(0) else {
                    panic!("the call's messages are enabled");
                };
                core.deliver(net, slot);
            }
        };
        core.step(&mut net, caller, 0);
        assert_eq!(core.process(caller).call_msgs.len(), n - 1, "its requests");
        complete(&mut core, &mut net);
        let kept = &core.process(caller).call_msgs;
        assert!(
            kept.is_empty() && kept.capacity() >= n - 1,
            "the purge keeps the list"
        );
        let allocation = kept.as_ptr();
        core.step(&mut net, caller, 1);
        assert_eq!(
            core.process(caller).call_msgs.len(),
            n - 1,
            "its collect's requests"
        );
        assert_eq!(core.process(caller).call_msgs.as_ptr(), allocation);
        complete(&mut core, &mut net);
        core.step(&mut net, caller, 2);
        assert!(
            core.process(caller).outcome().is_some(),
            "two calls, then it returns"
        );
        assert_eq!(
            core.process(caller).call_msgs.capacity(),
            0,
            "a returned caller keeps none"
        );
    }

    /// Every view in every replica of `core` is held by its store alone: no
    /// reply or collected response still pins a snapshot, so a later write
    /// would copy no block.
    pub(crate) fn assert_views_are_held_by_their_stores_alone(core: &QuorumCore, context: &str) {
        let mut views = 0;
        for process in core.processes() {
            for (instance, view) in process.replica.views() {
                assert_eq!(
                    Arc::strong_count(view),
                    1,
                    "{context}: {}'s view of {instance} is shared",
                    process.id
                );
                views += 1;
            }
        }
        assert!(views > 0, "{context}: no replica holds a view");
    }

    /// The rules of the module documentation, on every message `core`
    /// stores: none is addressed to a crashed processor, and each belongs to
    /// a call still outstanding at its caller (checked where the caller is
    /// one of `core`'s processors).
    pub(crate) fn assert_stored_traffic_is_live(core: &QuorumCore, context: &str, events: u64) {
        for message in core.stored() {
            assert!(
                !core.process(message.to()).crashed,
                "{context}, after {events} events: {message} is addressed to a crashed processor"
            );
            let caller = if message.is_request() {
                message.from()
            } else {
                message.to()
            };
            assert!(
                !core.owns(caller) || core.process(caller).awaits(message.payload.seq()),
                "{context}, after {events} events: {message} belongs to a completed call"
            );
        }
    }
}
