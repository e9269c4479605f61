//! The pluggable execution backends an instance can run on.
//!
//! A backend takes an [`InstanceSpec`] and runs one complete protocol
//! instance — every participant to its outcome — under a cooperative
//! [`CancelToken`] (the service's in-flight deadline enforcement), on the
//! calling shard worker's own thread. The two implementations cover the
//! repo's two serving substrates:
//!
//! * [`SimBackend`] — the deterministic discrete-event simulator: each
//!   instance is a fresh [`fle_sim::Simulator`] run under a seeded fair
//!   adversary, reproducible bit-for-bit from `(spec.seed, spec.n)`.
//! * [`AsyncBackend`] — the in-process shared-memory backend: each
//!   participant is a resumable [`fle_model::DriveMachine`] over one
//!   namespaced [`fle_runtime::SharedRegisters`] bank, so thousands of
//!   instances share (and contend on) the same sharded registers. The shard
//!   worker steps the participants itself with [`fle_runtime::run_inline`]:
//!   round-robin, a burst of operations per turn, which is the asynchronous
//!   shared-memory model's single sequence of register operations. No
//!   participant costs a thread, and no instance hops to another one. With
//!   a [`FaultPlan`] attached ([`BackendKind::build`]'s `faults` argument)
//!   every participant's handle is wrapped in a
//!   [`fle_runtime::FaultyMemory`]: seeded delays, transient collect
//!   failures, and crash injection. Because the inline round-robin order is
//!   fixed, a delay only adds latency to its instance: it never changes the
//!   interleaving. Fault coverage under perturbed schedules comes from the
//!   gated explorer (the "gated, benign faults" and "gated, fail-stop"
//!   sweeps of `explore_smoke` in `fle-explore`), which runs the same plans
//!   under adversarial schedulers.
//!
//! Fault plans apply **only** to the async backend: the sim's memory is the
//! event queue itself (the adversary already plays the faults), which the
//! decorator cannot wrap. The sim backend silently ignores the plan.
//!
//! Isolation: the sim backend isolates instances by construction (each run
//! owns its replicas); the async backend namespaces every register access
//! by `spec.key`. An async run is a pure function of its spec and the fault
//! plan: the same spec on a fresh (or retired) namespace returns the same
//! outcomes.

use crate::{InstanceSpec, Workload};
use fle_model::{CancelToken, Outcome, ProcId, Protocol};
use fle_runtime::{FaultPlan, FaultStats, SharedRegisters};
use fle_sim::{RandomAdversary, SimConfig, Simulator};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Everything one completed run produced: the participants' outcomes plus
/// the fault-injection counters accumulated along the way (zero for
/// backends without fault injection). The service's observability layer
/// merges the fault counters into the owning shard's recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// Outcome of every participant.
    pub outcomes: BTreeMap<ProcId, Outcome>,
    /// Faults injected during the run.
    pub faults: FaultStats,
}

impl RunOutput {
    /// A run that saw no fault injection.
    pub fn clean(outcomes: BTreeMap<ProcId, Outcome>) -> Self {
        RunOutput {
            outcomes,
            faults: FaultStats::default(),
        }
    }
}

/// Which execution backend a service runs its instances on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Deterministic discrete-event simulation ([`SimBackend`]).
    Sim,
    /// Participant state machines over shared registers, stepped on the
    /// shard worker ([`AsyncBackend`]).
    Async,
}

impl BackendKind {
    /// A short label for reports and JSON documents.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Async => "async",
        }
    }

    /// Build the backend, attaching the service's shared register bank and
    /// optional fault plan (both used only by [`BackendKind::Async`]).
    pub fn build(
        self,
        registers: &Arc<SharedRegisters>,
        faults: Option<&FaultPlan>,
    ) -> Box<dyn InstanceBackend> {
        match self {
            BackendKind::Sim => Box::new(SimBackend),
            BackendKind::Async => Box::new(AsyncBackend {
                registers: Arc::clone(registers),
                faults: faults.copied(),
            }),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An execution substrate that can run one protocol instance to completion.
pub trait InstanceBackend: Send + Sync {
    /// A short label for reports.
    fn name(&self) -> &'static str;

    /// Run every participant of `spec` to its outcome, or return `None` when
    /// `cancel` trips first (the instance missed its deadline mid-run; the
    /// service retires its namespace).
    fn run(&self, spec: &InstanceSpec, cancel: &CancelToken) -> Option<RunOutput>;
}

/// The protocol state machines of an instance, one per participant.
pub(crate) fn protocols(spec: &InstanceSpec) -> Vec<(ProcId, Box<dyn Protocol + Send>)> {
    match spec.workload {
        Workload::Election => fle_runtime::election_participants(spec.participants),
        Workload::Renaming => {
            fle_runtime::renaming_participants(spec.participants, spec.participants)
        }
    }
}

/// Deterministic simulator backend: fresh [`Simulator`] + seeded fair
/// adversary per instance.
#[derive(Debug, Default)]
pub struct SimBackend;

/// How many simulator events run between cancellation polls.
///
/// The stride contract: the token is polled **before event 0** — a deadline
/// that has already expired at submission time (or a pre-tripped token)
/// cancels the run without executing a single simulator event — and again
/// before every subsequent `SIM_CANCEL_STRIDE`-th event. A deadline that
/// trips mid-run therefore overshoots by at most `SIM_CANCEL_STRIDE - 1`
/// events before the backend notices. Widening the stride cheapens the
/// common (uncancelled) path; the `Instant::now()` behind a deadline poll
/// is the expensive part, and 64 events comfortably amortize it.
pub const SIM_CANCEL_STRIDE: u64 = 64;

impl InstanceBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&self, spec: &InstanceSpec, cancel: &CancelToken) -> Option<RunOutput> {
        let mut sim = Simulator::new(SimConfig::new(spec.n).with_seed(spec.seed));
        for (proc, protocol) in protocols(spec) {
            sim.add_participant(proc, protocol);
        }
        let mut adversary = RandomAdversary::with_seed(spec.seed.rotate_left(17));
        let poll = cancel.is_cancellable();
        // `events == 0` is a multiple of the stride, so the first poll
        // happens before any event runs — see SIM_CANCEL_STRIDE's contract.
        let mut events = 0u64;
        loop {
            if poll && events.is_multiple_of(SIM_CANCEL_STRIDE) && cancel.is_cancelled() {
                return None;
            }
            let progressed = sim
                .step_once(&mut adversary)
                .expect("a fairly scheduled instance terminates");
            if !progressed {
                return Some(RunOutput::clean(sim.finish().outcomes));
            }
            events += 1;
        }
    }
}

/// Shared-register backend: participants are [`fle_model::DriveMachine`]s
/// over one shared, namespaced register bank, optionally behind a
/// fault-injection decorator, stepped round-robin on the calling shard
/// worker by [`fle_runtime::run_inline`].
#[derive(Debug)]
pub struct AsyncBackend {
    pub(crate) registers: Arc<SharedRegisters>,
    pub(crate) faults: Option<FaultPlan>,
}

impl InstanceBackend for AsyncBackend {
    fn name(&self) -> &'static str {
        "async"
    }

    /// A participant's panic unwinds from here into the shard worker's
    /// `catch_unwind`, which counts it and retires the namespace.
    fn run(&self, spec: &InstanceSpec, cancel: &CancelToken) -> Option<RunOutput> {
        let plan = self.faults.unwrap_or_default();
        let report = fle_runtime::run_inline(
            &self.registers,
            spec.key,
            spec.seed,
            protocols(spec),
            &plan,
            cancel,
        )?;
        Some(RunOutput {
            outcomes: report.outcomes,
            faults: report.faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_backend_elects_exactly_one_winner() {
        let registers = Arc::new(SharedRegisters::new(2));
        for (slot, kind) in [BackendKind::Sim, BackendKind::Async]
            .into_iter()
            .enumerate()
        {
            // One namespace per backend: the service retires a key's
            // registers after each run, the test bank does not.
            let backend = kind.build(&registers, None);
            let spec = InstanceSpec::election(42 + slot as u64 * 100, 4).with_seed(7);
            let output = backend.run(&spec, &CancelToken::none()).unwrap();
            assert_eq!(output.outcomes.len(), 4, "{kind}");
            let winners = output.outcomes.values().filter(|o| o.is_win()).count();
            assert_eq!(winners, 1, "{kind}");
            assert_eq!(
                output.faults,
                FaultStats::default(),
                "{kind}: no plan, no faults"
            );
        }
    }

    #[test]
    fn every_backend_renames_uniquely() {
        let registers = Arc::new(SharedRegisters::new(2));
        for (slot, kind) in [BackendKind::Sim, BackendKind::Async]
            .into_iter()
            .enumerate()
        {
            let backend = kind.build(&registers, None);
            let spec = InstanceSpec::renaming(43 + slot as u64 * 100, 4).with_seed(3);
            let output = backend.run(&spec, &CancelToken::none()).unwrap();
            let names: std::collections::BTreeSet<usize> = output
                .outcomes
                .values()
                .filter_map(|o| match o {
                    Outcome::Name(u) => Some(*u),
                    _ => None,
                })
                .collect();
            assert_eq!(names.len(), 4, "{kind}: names must be distinct");
            assert!(names.iter().all(|&u| (1..=4).contains(&u)), "{kind}");
        }
    }

    #[test]
    fn sim_backend_is_reproducible() {
        let registers = Arc::new(SharedRegisters::new(1));
        let backend = BackendKind::Sim.build(&registers, None);
        let spec = InstanceSpec::election(1, 6).with_seed(99);
        let none = CancelToken::none();
        assert_eq!(backend.run(&spec, &none), backend.run(&spec, &none));
    }

    #[test]
    fn sim_backend_polls_the_token_before_event_zero() {
        // Regression: an already-expired deadline must cancel the run
        // without executing a single simulator event — the stride poll
        // happens at events == 0, not first at events == SIM_CANCEL_STRIDE.
        let registers = Arc::new(SharedRegisters::new(1));
        let backend = BackendKind::Sim.build(&registers, None);
        let expired = CancelToken::new().with_deadline(std::time::Instant::now());
        assert!(
            expired.is_cancelled(),
            "the deadline is already in the past"
        );
        let spec = InstanceSpec::election(46, 64).with_seed(5);
        assert!(
            backend.run(&spec, &expired).is_none(),
            "a pre-expired deadline never runs"
        );
    }

    #[test]
    fn every_backend_honors_a_pre_tripped_cancel_token() {
        let registers = Arc::new(SharedRegisters::new(2));
        let cancel = CancelToken::new();
        cancel.cancel();
        for kind in [BackendKind::Sim, BackendKind::Async] {
            let backend = kind.build(&registers, None);
            let spec = InstanceSpec::election(44, 4);
            assert!(
                backend.run(&spec, &cancel).is_none(),
                "{kind}: a cancelled run returns no outcomes"
            );
        }
    }

    #[test]
    fn an_async_run_is_a_pure_function_of_its_spec_and_plan() {
        // The shard worker steps every participant itself, so nothing but
        // the spec and the fault plan decides the interleaving: the same
        // spec on a retired namespace returns the same outcomes and faults.
        let registers = Arc::new(SharedRegisters::new(2));
        let plan = FaultPlan::new(5).with_collect_failures(200, 2);
        let none = CancelToken::none();
        for backend in [
            BackendKind::Async.build(&registers, None),
            BackendKind::Async.build(&registers, Some(&plan)),
        ] {
            for spec in [
                InstanceSpec::election(48, 16).with_seed(11),
                InstanceSpec::renaming(49, 16).with_seed(12),
            ] {
                let first = backend.run(&spec, &none).unwrap();
                assert!(registers.retire(spec.key), "the run wrote registers");
                let second = backend.run(&spec, &none).unwrap();
                registers.retire(spec.key);
                assert_eq!(first, second, "key {}", spec.key);
            }
        }
    }

    #[test]
    fn a_faulty_async_backend_still_elects_a_winner() {
        let registers = Arc::new(SharedRegisters::new(2));
        let plan = FaultPlan::new(3)
            .with_delays(200, 50)
            .with_collect_failures(200, 2);
        let backend = BackendKind::Async.build(&registers, Some(&plan));
        let spec = InstanceSpec::election(47, 4);
        let output = backend.run(&spec, &CancelToken::none()).unwrap();
        let winners = output.outcomes.values().filter(|o| o.is_win()).count();
        // Inline, the delays only add wall time; the collect failures are
        // what this run has to mask.
        assert_eq!(winners, 1, "delays and transient failures are masked");
        assert!(
            output.faults.ops > 0,
            "the decorator's counters surface through RunOutput"
        );
    }
}
