//! The sequential simulation engine: the event loop and the adversary
//! interface.
//!
//! # What this engine owns
//!
//! The processor side of `communicate` (taking a step's response, starting
//! a propagate or collect call, drawing a per-processor coin, completing a
//! quorum and purging the call, answering requests and recording replies,
//! retiring a crashed processor's traffic) is written once, in the crate's
//! quorum core (`quorum.rs`), and the partitioned engine
//! ([`crate::partition`]) runs the same code. A [`Simulator`] holds one core
//! over all `n` processors and keeps only what a sequential run decides:
//!
//! * where a send goes: into the core's slab at once, under the next global
//!   message id;
//! * the global event number of a first step or a return, which is the
//!   event count itself;
//! * the global ChaCha8 coin stream of `partitions == 0` (with
//!   `partitions ≥ 1` the core draws the per-processor streams);
//! * the reference mode below, the event and crash budgets, and the
//!   adversary observation's header.
//!
//! # Per-event cost
//!
//! The scheduling hot path is incremental: the core maintains the set of
//! enabled events (step-ready processors in an [`crate::IndexedBitSet`],
//! deliverable messages in an [`crate::OrderedMsgSet`] over a
//! [`crate::MessageSlab`]) as state changes, so offering the adversary its
//! choices costs O(1) per event plus O(log) index maintenance — not a scan
//! over all `n` processes and every in-flight message. Both indexes are one
//! word-parallel bitmap whose Fenwick tree counts 64-member words, so the
//! tree a selection descends stays a few cache lines long even with
//! thousands of messages in flight.
//!
//! The adversary's observation is maintained the same way. A step, a crash
//! or a registration rebuilds the processor's entry, including the
//! protocol's `adversary_view()`; a delivery never steps the protocol, so it
//! re-syncs only the recipient's phase and step-enabled bit.
//!
//! Payload cost is O(1) per event as well: a propagate broadcast builds its
//! entry list once and refcount-shares it across all `n − 1` sends, a
//! collect reply is the responder's copy-on-write snapshot (a refcount
//! bump), and back-to-back trials recycle the engine's buffers through a
//! [`crate::SimArena`].
//!
//! # The reference mode
//!
//! [`SimConfig::with_event_set_validation`] is the engine's one reference
//! mode. It runs the production engine and checks its one optimization as
//! it goes: before every decision, the incremental indexes must materialize
//! to exactly the event list a brute-force scan of all processors and
//! in-flight messages yields ([`Simulator::enabled_events_brute_force`]).
//! The check only reads engine state, so a validated run executes the same
//! schedule as a production run. It costs O(n + messages) per event.

use crate::adversary::Adversary;
use crate::arena::SimArena;
use crate::error::SimError;
use crate::message::{InFlightMessage, MessageId};
use crate::observation::{
    Decision, EnabledEvent, ProcessObservation, ProcessPhase, SystemObservation,
};
use crate::quorum::{Network, QuorumCore, Scheduled};
use crate::report::ExecutionReport;
use crate::trace::{Trace, TraceEvent};
use fle_model::{ExecutionMetrics, ProcId, Protocol, RouteKey, WireMessage};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of a simulated execution.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processors in the system.
    pub n: usize,
    /// Failure budget `t`. Defaults to `⌈n/2⌉ − 1`, the maximum the paper's
    /// algorithms tolerate.
    pub crash_budget: usize,
    /// Seed for every random choice made by the protocols.
    pub seed: u64,
    /// Upper bound on executed events, to turn accidental livelock into an
    /// error instead of a hang.
    pub max_events: u64,
    /// Whether to record the full execution trace.
    pub record_trace: bool,
    /// Run the reference mode (see the module docs): assert before every
    /// decision that the incremental enabled-event indexes exactly match a
    /// brute-force recomputation. For tests; costs O(n + messages) per
    /// event.
    pub validate_event_set: bool,
    /// Number of partitions for the partitioned parallel engine
    /// ([`crate::ParallelSimulator`]). `0` (the default) means "sequential
    /// legacy mode": the engine draws all coins from one global
    /// seed-derived stream, byte-identical to every pre-partitioning
    /// release. Any value ≥ 1 switches coin flips to per-processor
    /// streams derived from `(seed, proc)` (see [`crate::partition`]),
    /// which are identical for every partition count — including 1 — so
    /// sequential runs with `partitions = 1` are differential references
    /// for partitioned runs.
    pub partitions: usize,
}

impl SimConfig {
    /// A configuration for `n` processors with the default failure budget
    /// (`⌈n/2⌉ − 1`), seed 0 and an event budget proportional to `n²`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a system needs at least one processor");
        SimConfig {
            n,
            crash_budget: n.div_ceil(2).saturating_sub(1),
            seed: 0,
            max_events: default_event_budget(n),
            record_trace: false,
            validate_event_set: false,
            partitions: 0,
        }
    }

    /// Set the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the crash budget (clamped to `⌈n/2⌉ − 1`).
    #[must_use]
    pub fn with_crash_budget(mut self, budget: usize) -> Self {
        self.crash_budget = budget.min(self.n.div_ceil(2).saturating_sub(1));
        self
    }

    /// Enable trace recording.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Override the event budget.
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Run the reference mode: cross-check the incremental event indexes
    /// against brute force before every decision.
    #[must_use]
    pub fn with_event_set_validation(mut self) -> Self {
        self.validate_event_set = true;
        self
    }

    /// Run with `partitions` per-partition engines (clamped to `1..=n`;
    /// `0` keeps the legacy single-stream sequential mode). Setting any
    /// value ≥ 1 also switches the sequential [`Simulator`] to the
    /// partition-count-independent per-processor coin streams, making it a
    /// differential reference for [`crate::ParallelSimulator`].
    #[must_use]
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions.min(self.n);
        self
    }

    /// Quorum size: `⌊n/2⌋ + 1`.
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }
}

fn default_event_budget(n: usize) -> u64 {
    // Every communicate call generates O(n) messages and each participant
    // performs O(log* n) + O(log^2 n) of them across all algorithms in this
    // workspace; n^2 * 700 leaves ample slack for the renaming algorithm,
    // which performs O(log^2 n) calls per processor.
    (n as u64).saturating_mul(n as u64).saturating_mul(700) + 200_000
}

/// The deterministic discrete-event simulator.
///
/// See the crate-level documentation for the model. Typical use:
/// create a [`SimConfig`], add participants with
/// [`Simulator::add_participant`], and call [`Simulator::run`] with an
/// [`Adversary`].
pub struct Simulator {
    config: SimConfig,
    /// Every processor, its in-flight messages and the enabled-event
    /// indexes over both.
    core: QuorumCore,
    next_message_id: u64,
    events_executed: u64,
    crashes: Vec<ProcId>,
    /// Whether the buffers return to the thread-local arena pool on drop
    /// (set by [`Simulator::new`]; explicit arenas use
    /// [`Simulator::into_arena`] instead).
    pooled: bool,
    rng: ChaCha8Rng,
    report: ExecutionReport,
    /// Persistent adversary observation, updated incrementally as processors
    /// change state so that each event costs O(1) observation maintenance.
    observation: SystemObservation,
    /// Pool-recycle count of the arena this simulator was built from
    /// (restored into the arena on extraction; see [`SimArena::reuses`]).
    arena_reuses: u64,
}

/// The sequential engine's [`Network`]: a send goes into the slab at once,
/// under the next global message id.
struct Direct<'a> {
    next_message_id: &'a mut u64,
    report: &'a mut ExecutionReport,
    /// The global coin stream of `partitions == 0`, if that is the mode.
    legacy_coins: Option<&'a mut ChaCha8Rng>,
}

impl Network for Direct<'_> {
    fn send(
        &mut self,
        core: &mut QuorumCore,
        _key: RouteKey,
        from: ProcId,
        to: ProcId,
        payload: WireMessage,
    ) -> Option<u32> {
        let id = MessageId(*self.next_message_id);
        *self.next_message_id += 1;
        core.store(InFlightMessage::new(id, from, to, payload))
    }

    fn metrics(&mut self) -> &mut ExecutionMetrics {
        &mut self.report.metrics
    }

    fn flip(&mut self, core: &mut QuorumCore, proc: ProcId, prob_one: f64) -> bool {
        match self.legacy_coins.as_mut() {
            Some(rng) => rng.gen_bool(prob_one.clamp(0.0, 1.0)),
            None => core.flip(proc, prob_one),
        }
    }

    fn choose(&mut self, core: &mut QuorumCore, proc: ProcId, len: usize) -> usize {
        match self.legacy_coins.as_mut() {
            Some(rng) => rng.gen_range(0..len),
            None => core.choose(proc, len),
        }
    }
}

impl Simulator {
    /// Create a simulator with `config.n` processors, none of which
    /// participates yet.
    ///
    /// The engine buffers (message slab, event indexes, processor shells) are
    /// drawn from a thread-local [`SimArena`] pool and returned on drop, so
    /// back-to-back trials on one thread allocate almost nothing after the
    /// first. This is purely an allocator optimization: a recycled simulator
    /// is indistinguishable from a freshly allocated one.
    pub fn new(config: SimConfig) -> Self {
        let mut sim = Simulator::from_arena(config, SimArena::take_pooled());
        sim.pooled = true;
        sim
    }

    /// Create a simulator that reuses the buffers of `arena` (see
    /// [`SimArena`]); recover them afterwards with
    /// [`Simulator::into_arena`].
    pub fn from_arena(config: SimConfig, arena: SimArena) -> Self {
        let SimArena {
            mut core,
            mut crashes,
            mut observations,
            reuses,
        } = arena;
        core.reset(0..config.n, &config);
        crashes.clear();
        observations.clear();
        observations.extend((0..config.n).map(|i| ProcessObservation {
            proc: ProcId(i),
            phase: ProcessPhase::Idle,
            local_state: None,
        }));

        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let trace = if config.record_trace {
            Trace::recording()
        } else {
            Trace::disabled()
        };
        let observation = SystemObservation {
            n: config.n,
            events_executed: 0,
            crash_budget_left: config.crash_budget,
            processes: observations,
        };
        Simulator {
            config,
            core,
            next_message_id: 0,
            events_executed: 0,
            crashes,
            pooled: false,
            rng,
            report: ExecutionReport {
                trace,
                ..ExecutionReport::default()
            },
            observation,
            arena_reuses: reuses,
        }
    }

    /// How many times this simulator's buffers had been recycled through the
    /// arena pool when it was created (0 = cold allocation). See
    /// [`SimArena::reuses`].
    pub fn arena_reuses(&self) -> u64 {
        self.arena_reuses
    }

    /// Recover the engine buffers for the next trial (counterpart of
    /// [`Simulator::from_arena`]).
    pub fn into_arena(mut self) -> SimArena {
        self.pooled = false;
        self.extract_arena()
    }

    fn extract_arena(&mut self) -> SimArena {
        SimArena::emptied(
            std::mem::take(&mut self.core),
            std::mem::take(&mut self.crashes),
            std::mem::take(&mut self.observation.processes),
            self.arena_reuses,
        )
    }

    /// Register `proc` as a participant running `protocol`.
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
        self.core.register(proc, protocol)?;
        self.core.sync(proc, Some(&mut self.observation));
        Ok(())
    }

    /// Register `proc` as a participant running `protocol`.
    ///
    /// # Panics
    /// Panics on the error conditions of [`Simulator::try_add_participant`];
    /// use that method to handle them gracefully.
    pub fn add_participant(&mut self, proc: ProcId, protocol: Box<dyn Protocol>) {
        self.try_add_participant(proc, protocol)
            .expect("invalid participant registration");
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Run the execution to completion under the given adversary.
    ///
    /// The run ends when every live participant has returned. The adversary
    /// chooses every step, delivery and crash; if it declines to decide the
    /// engine falls back to the oldest enabled event, so executions always
    /// make progress.
    ///
    /// Equivalent to driving [`Simulator::step_once`] until it reports
    /// completion and then calling [`Simulator::finish`]; callers that need
    /// to inspect the execution between decisions (e.g. online safety
    /// oracles) use those directly.
    ///
    /// # Errors
    /// * [`SimError::EventBudgetExhausted`] if the event budget runs out.
    /// * [`SimError::CrashBudgetExceeded`] if the adversary exceeds `t`.
    /// * [`SimError::InvalidDecision`] if the adversary returns a decision
    ///   that does not refer to an enabled event.
    pub fn run(&mut self, adversary: &mut dyn Adversary) -> Result<ExecutionReport, SimError> {
        while self.step_once(adversary)? {}
        Ok(self.finish())
    }

    /// Obtain and execute **one** adversary decision (a step, a delivery, or
    /// a crash). Returns `Ok(false)` — without consulting the adversary —
    /// once every live participant has returned.
    ///
    /// This is the granular form of [`Simulator::run`]: driving it in a loop
    /// executes the identical schedule, but the caller regains control after
    /// every decision and may inspect the in-progress execution through
    /// [`Simulator::report_so_far`], [`Simulator::events_executed`] and the
    /// trace — which is what lets the exploration subsystem evaluate safety
    /// oracles *online* and stop at the first violating event.
    ///
    /// # Errors
    /// Same conditions as [`Simulator::run`].
    pub fn step_once(&mut self, adversary: &mut dyn Adversary) -> Result<bool, SimError> {
        if self.core.live() == 0 {
            return Ok(false);
        }
        if self.events_executed >= self.config.max_events {
            return Err(self.budget_exhausted());
        }

        let enabled_len = self.core.enabled_len();

        if enabled_len == 0 {
            // Every live participant is blocked on a quorum that can never
            // form (too many crashes for the remaining replicas). The
            // model guarantees termination only for t < n/2, so this can
            // only be reached by misconfiguration; treat it as budget
            // exhaustion for reporting purposes.
            return Err(self.budget_exhausted());
        }

        self.refresh_observation_header();

        if self.config.validate_event_set {
            self.assert_event_set_matches_brute_force();
        }

        let decision = adversary.decide(&self.observation, &self.core.enabled());

        match decision {
            Decision::Crash(victim) => {
                self.crash(victim)?;
            }
            Decision::Schedule(index) => {
                let Some(event) = self.core.resolve(index) else {
                    return Err(SimError::InvalidDecision {
                        reason: format!(
                            "index {index} out of bounds for {enabled_len} enabled events"
                        ),
                    });
                };
                self.execute(event);
            }
        }
        // Re-sync the observation's scalar header so callers inspecting the
        // simulator *between* decisions (online oracles) see the post-event
        // event count and crash budget, not values one decision stale. The
        // adversary path is unaffected: its refresh above still runs first.
        self.refresh_observation_header();
        Ok(true)
    }

    /// Finalize the bookkeeping and take the report of a completed
    /// execution (counterpart of driving [`Simulator::step_once`] to
    /// completion; [`Simulator::run`] calls this internally).
    ///
    /// Callers should only invoke this once [`Simulator::is_complete`]
    /// holds. Finishing earlier yields a snapshot report over the partial
    /// execution and is safe — the engine's own crash accounting (budget
    /// enforcement, adversary observation) is unaffected — but the taken
    /// outcomes, metrics and trace are gone from any later report.
    pub fn finish(&mut self) -> ExecutionReport {
        self.finalize();
        std::mem::take(&mut self.report)
    }

    /// Whether every live participant has returned (the run is over).
    pub fn is_complete(&self) -> bool {
        self.core.live() == 0
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// The in-progress report: outcomes and intervals of the participants
    /// that returned so far, the metrics and the trace. `events_executed`
    /// and `crashed` are only filled in by [`Simulator::finish`]; use
    /// [`Simulator::events_executed`] and the observation while the run is
    /// still going.
    pub fn report_so_far(&self) -> &ExecutionReport {
        &self.report
    }

    /// The adversary-visible system observation as of the last executed
    /// event.
    pub fn observation(&self) -> &SystemObservation {
        &self.observation
    }

    fn budget_exhausted(&self) -> SimError {
        SimError::EventBudgetExhausted {
            budget: self.config.max_events,
            unfinished: self.core.live_participants().collect(),
        }
    }

    /// The enabled events as the adversary sees them, materialized from the
    /// incremental indexes.
    pub fn enabled_events_vec(&self) -> Vec<EnabledEvent> {
        self.core.enabled().to_vec()
    }

    /// The enabled events recomputed from first principles: a full scan of
    /// all processors and all in-flight messages, ignoring the incremental
    /// indexes. Reference implementation for the differential tests.
    pub fn enabled_events_brute_force(&self) -> Vec<EnabledEvent> {
        let processes = self.core.processes();
        let mut events: Vec<EnabledEvent> = processes
            .iter()
            .filter(|p| p.step_enabled())
            .map(|p| EnabledEvent::Step(p.id))
            .collect();
        let mut deliveries: Vec<&InFlightMessage> = self
            .core
            .slab_messages()
            .filter(|message| !processes[message.to().index()].crashed)
            .collect();
        deliveries.sort_by_key(|message| message.id);
        events.extend(deliveries.into_iter().map(InFlightMessage::to_event));
        events
    }

    fn assert_event_set_matches_brute_force(&self) {
        let incremental = self.enabled_events_vec();
        let brute_force = self.enabled_events_brute_force();
        assert_eq!(
            incremental, brute_force,
            "incremental enabled-event set diverged from brute force after {} events",
            self.events_executed
        );
    }

    /// Update the scalar fields of the persistent observation. The
    /// per-processor entries are refreshed incrementally by the core's
    /// `sync` and `sync_phase` whenever a processor's state changes, which
    /// keeps the per-event cost independent of `n`.
    fn refresh_observation_header(&mut self) {
        self.observation.events_executed = self.events_executed;
        self.observation.crash_budget_left =
            self.config.crash_budget.saturating_sub(self.crashes.len());
    }

    fn crash(&mut self, victim: ProcId) -> Result<(), SimError> {
        if self.crashes.len() >= self.config.crash_budget {
            return Err(SimError::CrashBudgetExceeded {
                victim,
                budget: self.config.crash_budget,
            });
        }
        if victim.index() >= self.config.n {
            return Err(SimError::InvalidDecision {
                reason: format!("cannot crash non-existent processor {victim}"),
            });
        }
        if self.core.process(victim).crashed {
            return Err(SimError::InvalidDecision {
                reason: format!("{victim} is already crashed"),
            });
        }
        self.core.crash(victim);
        self.crashes.push(victim);
        self.report.trace.push(TraceEvent::Crash { proc: victim });
        self.core.sync(victim, Some(&mut self.observation));
        Ok(())
    }

    /// The core's view of the network for one event.
    fn direct(&mut self) -> (&mut QuorumCore, Direct<'_>) {
        let legacy = self.config.partitions == 0;
        (
            &mut self.core,
            Direct {
                next_message_id: &mut self.next_message_id,
                report: &mut self.report,
                legacy_coins: legacy.then_some(&mut self.rng),
            },
        )
    }

    fn execute(&mut self, event: Scheduled) {
        self.events_executed += 1;
        match event {
            Scheduled::Step(proc) => self.execute_step(proc),
            Scheduled::Deliver(slot) => {
                let (core, mut net) = self.direct();
                let (id, from, to) = core.deliver(&mut net, slot);
                self.report.trace.push(TraceEvent::Deliver { id, from, to });
                self.core.sync_phase(to, Some(&mut self.observation));
            }
        }
    }

    fn execute_step(&mut self, proc: ProcId) {
        self.report.trace.push(TraceEvent::Step { proc });
        let now = self.events_executed;
        let (core, mut net) = self.direct();
        let stepped = core.step(&mut net, proc, now);
        if stepped.first {
            self.report.intervals.insert(proc, (now, None));
        }
        if let Some(value) = stepped.coin {
            self.report.trace.push(TraceEvent::Coin { proc, value });
        }
        if let Some(outcome) = stepped.returned {
            self.report.outcomes.insert(proc, outcome);
            // The interval entry normally exists since the first step, but
            // an early `finish()` takes the report with it; rebuild the start
            // from `started_at` (which survives the take) so a later report
            // never carries an outcome without an interval.
            let started = self
                .core
                .process(proc)
                .started_at
                .expect("a returning participant has taken at least one step");
            self.report
                .intervals
                .entry(proc)
                .or_insert((started, None))
                .1 = Some(now);
            self.report.trace.push(TraceEvent::Return { proc, outcome });
        }
        self.core.sync(proc, Some(&mut self.observation));
    }

    fn finalize(&mut self) {
        self.report.events_executed = self.events_executed;
        if self.core.live() == 0 {
            // The crash list is only needed by the report from here on; move
            // it instead of cloning (the drained engine copy is never read
            // again on a completed run).
            self.report.crashed = std::mem::take(&mut self.crashes);
        } else {
            // Partial finish: the engine keeps stepping afterwards, and both
            // the crash-budget check and the adversary observation read
            // `self.crashes` — draining it here would hand the adversary a
            // second budget and lose the early crashes from later reports.
            self.report.crashed = self.crashes.clone();
        }
    }
}

impl Drop for Simulator {
    fn drop(&mut self) {
        if self.pooled {
            SimArena::pool(self.extract_arena());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CrashPlan, CrashingAdversary, RandomAdversary, SequentialAdversary};
    use crate::observation::EnabledEvents;
    use crate::process::{PendingWork, SimProcess};
    use crate::quorum::tests::{
        assert_stored_traffic_is_live, assert_views_are_held_by_their_stores_alone, Chatter,
    };
    use fle_model::{
        Action, InstanceId, Key, LocalStateView, Outcome, Response, Slot, Value, View,
    };
    use std::collections::HashMap;
    use std::sync::Arc;

    /// A protocol that propagates a flag, collects, and returns WIN if it saw
    /// its own flag in some view (it always should).
    struct PropagateCollect {
        me: ProcId,
        saw_self: bool,
        phase: u8,
    }

    impl PropagateCollect {
        fn new(me: ProcId) -> Self {
            PropagateCollect {
                me,
                saw_self: false,
                phase: 0,
            }
        }
    }

    impl Protocol for PropagateCollect {
        fn step(&mut self, response: Response) -> Action {
            match self.phase {
                0 => {
                    assert_eq!(response, Response::Start);
                    self.phase = 1;
                    Action::Propagate {
                        entries: vec![(
                            Key::proc(InstanceId::custom(1, 1), self.me),
                            Value::Flag(true),
                        )],
                    }
                }
                1 => {
                    assert_eq!(response, Response::AckQuorum);
                    self.phase = 2;
                    Action::Collect {
                        instance: InstanceId::custom(1, 1),
                    }
                }
                _ => {
                    let views = response.expect_views();
                    self.saw_self = views.any_view_has(&Slot::Proc(self.me));
                    Action::Return(if self.saw_self {
                        Outcome::Win
                    } else {
                        Outcome::Lose
                    })
                }
            }
        }

        fn adversary_view(&self) -> LocalStateView {
            LocalStateView::new("propagate-collect", "running").with_round(self.phase as u64)
        }
    }

    #[test]
    fn propagate_then_collect_sees_own_write() {
        for n in [1usize, 2, 3, 5, 8] {
            let mut sim = Simulator::new(SimConfig::new(n).with_seed(1));
            for i in 0..n {
                sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
            }
            let report = sim.run(&mut RandomAdversary::with_seed(42)).unwrap();
            for i in 0..n {
                assert_eq!(
                    report.outcome(ProcId(i)),
                    Some(Outcome::Win),
                    "n={n}, processor {i} must observe its own propagated write"
                );
            }
        }
    }

    #[test]
    fn the_maintained_observation_matches_a_full_rebuild_after_every_event() {
        // A delivery re-syncs only the recipient's phase; the local state it
        // leaves alone must still equal what a full rebuild reads.
        let n = 7;
        for seed in 0..4 {
            let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed));
            for i in 0..n {
                sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
            }
            let mut adversary = RandomAdversary::with_seed(seed);
            while sim.step_once(&mut adversary).unwrap() {
                for (process, observed) in
                    sim.core.processes().iter().zip(&sim.observation.processes)
                {
                    assert_eq!(
                        *observed,
                        process.observation(),
                        "seed {seed}, after {} events",
                        sim.events_executed
                    );
                }
            }
        }
    }

    /// Run six-call participants on every processor of an `n`-processor
    /// system under `adversary`, checking the stored traffic after every
    /// event; returns the crash count.
    fn run_checking_stored_traffic(
        n: usize,
        seed: u64,
        adversary: &mut dyn Adversary,
        context: &str,
    ) -> usize {
        let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed));
        for i in 0..n {
            sim.add_participant(ProcId(i), Chatter::boxed(ProcId(i), 6));
        }
        while sim.step_once(adversary).unwrap() {
            assert_stored_traffic_is_live(&sim.core, context, sim.events_executed);
        }
        sim.finish().crashed.len()
    }

    #[test]
    fn stored_requests_and_replies_belong_to_outstanding_calls() {
        for n in [1usize, 2, 5, 8] {
            let budget = SimConfig::new(n).crash_budget;
            for seed in 0..6 {
                let context = format!("n={n}, seed {seed}");
                run_checking_stored_traffic(
                    n,
                    seed,
                    &mut RandomAdversary::with_seed(seed),
                    &context,
                );
                let plan = (0..budget).fold(CrashPlan::none(), |plan, i| {
                    plan.and_then(7 * i as u64, ProcId(n - 1 - i))
                });
                let mut crashing = CrashingAdversary::new(RandomAdversary::with_seed(seed), plan);
                let crashed = run_checking_stored_traffic(n, seed, &mut crashing, &context);
                assert_eq!(crashed, budget, "{context}: every planned crash happens");
            }
        }
    }

    #[test]
    fn a_crash_heavy_run_stores_no_message_for_a_crashed_processor() {
        // The whole crash budget of 16 processors, spent from the first
        // event to the middle of the run, on participants that keep
        // calling.
        let n = 16;
        for seed in 0..4 {
            let plan = CrashPlan::immediately([ProcId(1), ProcId(3)])
                .and_then(60, ProcId(5))
                .and_then(150, ProcId(8))
                .and_then(300, ProcId(10))
                .and_then(600, ProcId(12))
                .and_then(900, ProcId(15));
            let mut crashing = CrashingAdversary::new(RandomAdversary::with_seed(seed), plan);
            let context = format!("n={n}, seed {seed}");
            let crashed = run_checking_stored_traffic(n, seed, &mut crashing, &context);
            assert_eq!(crashed, 7, "{context}: the whole budget is spent");
        }
    }

    #[test]
    fn after_an_election_every_replica_view_is_held_by_its_store_alone() {
        for (n, contenders, seed) in [(8, 8, 1), (16, 5, 2), (33, 33, 3)] {
            let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed));
            for i in 0..contenders {
                let election = fle_core::LeaderElection::new(ProcId(i));
                sim.add_participant(ProcId(i), Box::new(election));
            }
            let report = sim.run(&mut RandomAdversary::with_seed(seed)).unwrap();
            assert_eq!(report.winners().len(), 1);
            let context = format!("n={n}, {contenders} contenders, seed {seed}");
            assert_views_are_held_by_their_stores_alone(&sim.core, &context);
        }
    }

    /// The view `process` recorded from `responder` for its current or just
    /// completed collect call.
    fn recorded_view(process: &SimProcess, responder: ProcId) -> Option<&Arc<View>> {
        let responses = match &process.pending {
            PendingWork::AwaitingViews { views, .. } => views.as_slice(),
            PendingWork::ResponseReady(Response::Views(views)) => views.responses(),
            _ => return None,
        };
        responses
            .iter()
            .find(|(from, _)| *from == responder)
            .map(|(_, view)| view)
    }

    #[test]
    fn a_collect_reply_is_the_responders_snapshot() {
        // The quorum core answers a collect with the responder's
        // copy-on-write snapshot (`view_arc`, not a copy), and the
        // requester records that same allocation.
        let instance = InstanceId::custom(1, 1);
        for seed in 0..4 {
            let n = 5;
            let mut sim = Simulator::new(SimConfig::new(n).with_seed(seed).with_trace());
            for i in 0..n {
                sim.add_participant(ProcId(i), Chatter::boxed(ProcId(i), 6));
            }
            let mut adversary = RandomAdversary::with_seed(seed);
            let mut replies: HashMap<MessageId, Arc<View>> = HashMap::new();
            let (mut sent, mut delivered) = (0, 0);
            let mut first_new = sim.next_message_id;
            while sim.step_once(&mut adversary).unwrap() {
                if let Some(&TraceEvent::Deliver { id, from, to }) =
                    sim.report_so_far().trace.events().last()
                {
                    if let Some(reply) = replies.remove(&id) {
                        let recorded = recorded_view(sim.core.process(to), from)
                            .expect("a delivered reply is recorded");
                        assert!(Arc::ptr_eq(recorded, &reply), "seed {seed}: {id}");
                        delivered += 1;
                    }
                }
                for message in sim.core.stored().filter(|m| m.id.0 >= first_new) {
                    if let WireMessage::CollectReply { view, .. } = &message.payload {
                        let live = sim.core.process(message.from()).replica.view_arc(instance);
                        assert!(Arc::ptr_eq(view, &live), "seed {seed}: {message}");
                        replies.insert(message.id, view.clone());
                        sent += 1;
                    }
                }
                first_new = sim.next_message_id;
            }
            assert!(
                sent > 0 && delivered > 0,
                "seed {seed}: {sent} sent, {delivered} delivered"
            );
        }
    }

    #[test]
    fn message_complexity_is_linear_per_communicate_call() {
        let n = 10;
        let mut sim = Simulator::new(SimConfig::new(n));
        sim.add_participant(ProcId(0), Box::new(PropagateCollect::new(ProcId(0))));
        let report = sim.run(&mut SequentialAdversary::new()).unwrap();
        // Two communicate calls: each sends n-1 requests; replicas send back
        // up to n-1 replies each. Self-delivery is free.
        let sent = report.total_messages();
        assert!(
            sent >= 2 * (n as u64 - 1),
            "requests must be counted: {sent}"
        );
        assert!(
            sent <= 4 * (n as u64 - 1),
            "no more than requests + replies may be counted: {sent}"
        );
        assert_eq!(report.max_communicate_calls(), 2);
    }

    #[test]
    fn crash_budget_is_enforced() {
        let mut sim = Simulator::new(SimConfig::new(4));
        sim.add_participant(ProcId(0), Box::new(PropagateCollect::new(ProcId(0))));

        struct CrashHappy;
        impl Adversary for CrashHappy {
            fn decide(
                &mut self,
                obs: &SystemObservation,
                _enabled: &EnabledEvents<'_>,
            ) -> Decision {
                // Keep crashing replicas (never the participant p0) until the
                // budget runs out.
                let victim = obs
                    .processes
                    .iter()
                    .skip(1)
                    .find(|p| !matches!(p.phase, ProcessPhase::Crashed))
                    .map(|p| p.proc)
                    .unwrap_or(ProcId(1));
                Decision::Crash(victim)
            }
            fn name(&self) -> &'static str {
                "crash-happy"
            }
        }

        let err = sim.run(&mut CrashHappy).unwrap_err();
        assert!(matches!(err, SimError::CrashBudgetExceeded { .. }));
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_are_rejected() {
        let _ = SimConfig::new(0);
    }

    #[test]
    fn single_processor_system_terminates_immediately() {
        let mut sim = Simulator::new(SimConfig::new(1));
        sim.add_participant(ProcId(0), Box::new(PropagateCollect::new(ProcId(0))));
        let report = sim.run(&mut RandomAdversary::with_seed(0)).unwrap();
        assert_eq!(report.outcome(ProcId(0)), Some(Outcome::Win));
        assert_eq!(report.total_messages(), 0, "a lone processor sends nothing");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Simulator::new(SimConfig::new(6).with_seed(3).with_trace());
            for i in 0..6 {
                sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
            }
            sim.run(&mut RandomAdversary::with_seed(seed)).unwrap()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a.trace.digest(), b.trace.digest());
        assert_eq!(a.total_messages(), b.total_messages());
        // A different adversary seed virtually always yields a different schedule.
        assert_ne!(a.trace.digest(), c.trace.digest());
    }

    #[test]
    fn early_finish_keeps_crash_accounting_intact() {
        // n = 5 ⇒ crash budget 2. Crash once, take a partial report, and
        // verify the engine still counts that crash: the budget must run out
        // after one *more* crash, not two, and the partial report must list
        // the crash it observed.
        struct CrashThenOldest {
            victims: Vec<ProcId>,
        }
        impl Adversary for CrashThenOldest {
            fn decide(
                &mut self,
                _obs: &SystemObservation,
                _enabled: &EnabledEvents<'_>,
            ) -> Decision {
                match self.victims.pop() {
                    Some(victim) => Decision::Crash(victim),
                    None => Decision::Schedule(0),
                }
            }
            fn name(&self) -> &'static str {
                "crash-then-oldest"
            }
        }

        let mut sim = Simulator::new(SimConfig::new(5));
        for i in 0..3 {
            sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
        }
        let mut adversary = CrashThenOldest {
            victims: vec![ProcId(3)],
        };
        assert!(sim.step_once(&mut adversary).unwrap());
        let partial = sim.finish();
        assert_eq!(
            partial.crashed,
            vec![ProcId(3)],
            "partial report sees the crash"
        );
        assert!(!sim.is_complete());

        // One more crash fits the budget of 2; the next must be rejected —
        // an early finish must not have handed the adversary a fresh budget.
        let mut adversary = CrashThenOldest {
            victims: vec![ProcId(2), ProcId(4)],
        };
        assert!(sim.step_once(&mut adversary).unwrap());
        let err = sim.step_once(&mut adversary).unwrap_err();
        assert!(matches!(err, SimError::CrashBudgetExceeded { .. }));
    }

    #[test]
    fn early_finish_keeps_later_reports_internally_consistent() {
        let mut sim = Simulator::new(SimConfig::new(3));
        for i in 0..2 {
            sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
        }
        let mut adversary = RandomAdversary::with_seed(1);
        // Let participants start, then take a partial snapshot (which also
        // takes the interval-start entries with it).
        for _ in 0..3 {
            assert!(sim.step_once(&mut adversary).unwrap());
        }
        let _partial = sim.finish();
        // The final report must still pair every outcome it carries with a
        // complete interval, or the linearizability checker false-fires.
        while sim.step_once(&mut adversary).unwrap() {}
        let report = sim.finish();
        assert!(!report.outcomes.is_empty());
        for proc in report.outcomes.keys() {
            assert!(
                report
                    .intervals
                    .get(proc)
                    .is_some_and(|(_, end)| end.is_some()),
                "{proc} returned but its interval is missing or open"
            );
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut sim = Simulator::new(SimConfig::new(2));
        sim.add_participant(ProcId(0), Box::new(PropagateCollect::new(ProcId(0))));
        let err = sim
            .try_add_participant(ProcId(0), Box::new(PropagateCollect::new(ProcId(0))))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidParticipant { .. }));
        let err = sim
            .try_add_participant(ProcId(7), Box::new(PropagateCollect::new(ProcId(7))))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidParticipant { .. }));
    }

    #[test]
    fn crashed_minority_does_not_block_termination() {
        let n = 5;
        let mut sim = Simulator::new(SimConfig::new(n));
        for i in 0..n {
            sim.add_participant(ProcId(i), Box::new(PropagateCollect::new(ProcId(i))));
        }

        /// Crash processors 3 and 4 immediately, then schedule fairly.
        struct CrashTwoThenFair {
            inner: RandomAdversary,
            crashed: usize,
        }
        impl Adversary for CrashTwoThenFair {
            fn decide(&mut self, obs: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
                if self.crashed < 2 && obs.crash_budget_left > 0 {
                    let victim = ProcId(3 + self.crashed);
                    self.crashed += 1;
                    return Decision::Crash(victim);
                }
                self.inner.decide(obs, enabled)
            }
            fn name(&self) -> &'static str {
                "crash-two-then-fair"
            }
        }

        let report = sim
            .run(&mut CrashTwoThenFair {
                inner: RandomAdversary::with_seed(5),
                crashed: 0,
            })
            .unwrap();
        for i in 0..3 {
            assert_eq!(
                report.outcome(ProcId(i)),
                Some(Outcome::Win),
                "correct processor {i} must terminate despite 2 crashes"
            );
        }
        assert_eq!(report.crashed.len(), 2);
        assert_eq!(report.outcome(ProcId(3)), None);
    }
}
