//! Seeded, deterministic fault injection beneath any shared-memory backend.
//!
//! The paper proves its algorithms against a strong adaptive adversary that
//! controls *scheduling*; a real deployment also suffers faults the model
//! abstracts away — slow operations, transient collect failures, processors
//! dying mid-protocol. [`FaultyMemory`] is a decorator over any
//! [`SharedMemory`] implementation that injects exactly those faults from a
//! seeded per-processor RNG, so a faulty run is **reproducible**: the same
//! [`FaultPlan`] produces the same fault sequence per processor regardless
//! of thread interleaving (each processor draws from its own stream).
//!
//! Three fault classes, all configured by [`FaultPlan`]:
//!
//! * **operation delays** — before an operation, sleep a random duration up
//!   to [`FaultPlan::max_delay_micros`] with probability
//!   `delay_per_mille/1000`;
//! * **transient collect failures** — a collect's response is "lost" and
//!   retried internally, up to [`FaultPlan`]'s retry limit per call (the
//!   final attempt always goes through: transient, not permanent);
//! * **crash at operation `k`** — per [`CrashSpec`], a victim processor
//!   stops at its `k`-th shared-memory operation, either by panicking
//!   ([`CrashMode::Panic`], exercising crash *containment* in the service's
//!   shard workers) or by silently abandoning the protocol and returning
//!   [`Outcome::Lose`](fle_model::Outcome::Lose) ([`CrashMode::Lose`], a
//!   fail-stop that keeps every participant's outcome observable so
//!   liveness oracles can fire on it).
//!
//! Every driver of register-bank participants — [`crate::run_inline`], the
//! [`crate::Executor`] pool and the gate loop [`crate::run_gated`] — wraps
//! each participant's register handle in a [`FaultyMemory`], so the whole
//! exploration stack (strategies, oracles, record/replay, ddmin shrinking)
//! hunts the backend *under injected faults* without modification — see
//! `fle_explore`.

use fle_model::{CollectedViews, InstanceId, Key, ProcId, SharedMemory, Value};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Which processors a [`CrashSpec`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashVictim {
    /// Every participant crashes (at its own `at_op`-th operation).
    All,
    /// Only the given processor crashes.
    Proc(ProcId),
}

/// How an injected crash manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The processor panics mid-operation — the ungraceful death a shard
    /// worker must contain with `catch_unwind`.
    Panic,
    /// Fail-stop: the processor performs no further shared-memory effects
    /// and returns [`Outcome::Lose`](fle_model::Outcome::Lose). Every
    /// participant still produces an outcome, so safety *and* liveness
    /// oracles observe the run.
    Lose,
}

/// Crash `victim` at its `at_op`-th shared-memory operation (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Who crashes.
    pub victim: CrashVictim,
    /// The 1-based operation count at which the crash triggers.
    pub at_op: u64,
    /// Panic or fail-stop.
    pub mode: CrashMode,
    /// Restrict the crash to one register namespace (= one service instance
    /// key). `None` crashes the victim in every run under this plan. Applied
    /// by the runners via [`FaultPlan::for_namespace`].
    pub namespace: Option<u64>,
}

impl CrashSpec {
    /// Every participant fail-stops (returns `Lose`) at its `at_op`-th op.
    pub fn lose_all(at_op: u64) -> Self {
        CrashSpec {
            victim: CrashVictim::All,
            at_op,
            mode: CrashMode::Lose,
            namespace: None,
        }
    }

    /// One processor panics at its `at_op`-th op.
    pub fn panic_proc(victim: ProcId, at_op: u64) -> Self {
        CrashSpec {
            victim: CrashVictim::Proc(victim),
            at_op,
            mode: CrashMode::Panic,
            namespace: None,
        }
    }

    /// Scope the crash to one namespace, leaving other runs un-crashed.
    #[must_use]
    pub fn only_namespace(mut self, namespace: u64) -> Self {
        self.namespace = Some(namespace);
        self
    }
}

/// A deterministic fault-injection plan.
///
/// The default plan injects nothing — [`FaultyMemory`] over a default plan
/// is an identity decorator (plus cancellation polling). Probabilities are
/// integer per-mille (`0..=1000`) so the plan stays `Copy + Eq` and can ride
/// inside exploration configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed of the per-processor fault streams.
    pub seed: u64,
    /// Probability (per mille) of delaying each operation.
    pub delay_per_mille: u16,
    /// Upper bound of one injected delay, in microseconds.
    pub max_delay_micros: u64,
    /// Probability (per mille) of losing a collect's response.
    pub collect_fail_per_mille: u16,
    /// Maximum injected failures per collect call; the attempt after the
    /// last retry always succeeds.
    pub collect_retry_limit: u8,
    /// Optional crash injection.
    pub crash: Option<CrashSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given fault-stream seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Delay each operation with probability `per_mille/1000`, by up to
    /// `max_delay_micros` microseconds.
    #[must_use]
    pub fn with_delays(mut self, per_mille: u16, max_delay_micros: u64) -> Self {
        self.delay_per_mille = per_mille.min(1000);
        self.max_delay_micros = max_delay_micros;
        self
    }

    /// Lose each collect response with probability `per_mille/1000`,
    /// retrying internally at most `retry_limit` times per call.
    #[must_use]
    pub fn with_collect_failures(mut self, per_mille: u16, retry_limit: u8) -> Self {
        self.collect_fail_per_mille = per_mille.min(1000);
        self.collect_retry_limit = retry_limit;
        self
    }

    /// Attach a crash injection.
    #[must_use]
    pub fn with_crash(mut self, crash: CrashSpec) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Whether this plan injects anything at all.
    pub fn is_noop(&self) -> bool {
        self.delay_per_mille == 0 && self.collect_fail_per_mille == 0 && self.crash.is_none()
    }

    /// The plan as it applies to a run under register `namespace`: a crash
    /// scoped to a different namespace is stripped, everything else passes
    /// through. Called by the runners so one plan can poison exactly one
    /// service instance.
    #[must_use]
    pub fn for_namespace(mut self, namespace: u64) -> Self {
        if let Some(crash) = self.crash {
            if crash.namespace.is_some_and(|only| only != namespace) {
                self.crash = None;
            }
        }
        self
    }
}

/// Counters of the faults actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Shared-memory operations observed (post-crash ops excluded).
    pub ops: u64,
    /// Delays injected.
    pub delays: u64,
    /// Total injected delay, in microseconds.
    pub delay_micros: u64,
    /// Collect responses lost (and internally retried).
    pub collect_failures: u64,
    /// Fail-stop ([`CrashMode::Lose`]) crashes triggered. Panic crashes
    /// unwind before their stats can be merged, so they are counted by the
    /// containment layer (the service's `FailStats`), not here.
    pub crashes: u64,
}

impl FaultStats {
    /// Accumulate another processor's counters into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.ops += other.ops;
        self.delays += other.delays;
        self.delay_micros += other.delay_micros;
        self.collect_failures += other.collect_failures;
        self.crashes += other.crashes;
    }
}

/// A [`SharedMemory`] decorator injecting the faults of a [`FaultPlan`]
/// beneath any backend.
///
/// Each instance owns an independent ChaCha stream seeded from
/// `(plan.seed, proc)`, so the fault sequence a processor experiences is a
/// pure function of the plan — identical across runs and unaffected by how
/// the OS interleaves other threads.
#[derive(Debug)]
pub struct FaultyMemory<M> {
    inner: M,
    proc: ProcId,
    plan: FaultPlan,
    rng: ChaCha8Rng,
    stats: FaultStats,
    abandoned: bool,
}

impl<M> FaultyMemory<M> {
    /// Wrap `inner` for processor `proc` under `plan`.
    pub fn new(inner: M, proc: ProcId, plan: FaultPlan) -> Self {
        let stream = plan
            .seed
            .wrapping_add(fle_model::splitmix64(proc.index() as u64 ^ 0xfa017));
        FaultyMemory {
            inner,
            proc,
            plan,
            rng: ChaCha8Rng::seed_from_u64(stream),
            stats: FaultStats::default(),
            abandoned: false,
        }
    }

    /// The faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether a [`CrashMode::Lose`] crash has triggered: the processor must
    /// perform no further protocol steps (the drivers check this before
    /// every step and return
    /// [`Outcome::Lose`](fle_model::Outcome::Lose)).
    pub fn abandoned(&self) -> bool {
        self.abandoned
    }

    /// The wrapped memory.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    fn targets_me(&self, spec: &CrashSpec) -> bool {
        match spec.victim {
            CrashVictim::All => true,
            CrashVictim::Proc(victim) => victim == self.proc,
        }
    }

    /// Count one operation, then fire whatever faults the plan schedules at
    /// it. Returns `false` when the processor has fail-stopped and the
    /// operation must not reach the inner memory.
    fn before_op(&mut self) -> bool {
        if self.abandoned {
            return false;
        }
        self.stats.ops += 1;
        if let Some(crash) = self.plan.crash {
            if self.targets_me(&crash) && self.stats.ops >= crash.at_op {
                match crash.mode {
                    CrashMode::Panic => panic!(
                        "injected crash: {:?} at op {} of plan seed {}",
                        self.proc, self.stats.ops, self.plan.seed
                    ),
                    CrashMode::Lose => {
                        self.stats.crashes += 1;
                        self.abandoned = true;
                        return false;
                    }
                }
            }
        }
        if self.plan.delay_per_mille > 0
            && self.rng.gen_range(0..1000u32) < u32::from(self.plan.delay_per_mille)
        {
            let micros = self.rng.gen_range(0..=self.plan.max_delay_micros);
            self.stats.delays += 1;
            self.stats.delay_micros += micros;
            std::thread::sleep(Duration::from_micros(micros));
        }
        true
    }
}

impl<M: SharedMemory> SharedMemory for FaultyMemory<M> {
    fn propagate(&mut self, entries: Vec<(Key, Value)>) {
        if self.before_op() {
            self.inner.propagate(entries);
        }
        // Fail-stop: the write is lost, exactly as if the processor died
        // before issuing it.
    }

    fn collect(&mut self, instance: InstanceId) -> CollectedViews {
        if !self.before_op() {
            return CollectedViews::from_shared(Vec::new());
        }
        let mut failures = 0u8;
        while failures < self.plan.collect_retry_limit
            && self.plan.collect_fail_per_mille > 0
            && self.rng.gen_range(0..1000u32) < u32::from(self.plan.collect_fail_per_mille)
        {
            // The response is "lost": perform the collect anyway (the
            // request reached the registers) but drop its result and retry.
            let _ = self.inner.collect(instance);
            self.stats.collect_failures += 1;
            failures += 1;
        }
        self.inner.collect(instance)
    }

    fn flip(&mut self, prob_one: f64) -> bool {
        if self.before_op() {
            self.inner.flip(prob_one)
        } else {
            false
        }
    }

    fn choose(&mut self, choices: &[u64]) -> u64 {
        if self.before_op() {
            self.inner.choose(choices)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{FifoScheduler, ScheduleConfig, ScheduledReport};
    use crate::{election_participants, run_gated, run_inline, SharedRegisters};
    use fle_model::{CancelToken, Outcome};
    use std::sync::Arc;

    /// A FIFO-gated four-participant election at `seed` under `plan`.
    fn gated(seed: u64, plan: Option<FaultPlan>) -> ScheduledReport {
        run_gated(
            seed,
            election_participants(4),
            ScheduleConfig::for_participants(4),
            &mut FifoScheduler,
            plan,
        )
    }

    #[test]
    fn noop_plan_is_an_identity_decorator() {
        let bare = gated(7, None);
        let decorated = gated(7, Some(FaultPlan::new(9)));
        assert!(FaultPlan::new(9).is_noop());
        assert_eq!(bare.progress.outcomes, decorated.progress.outcomes);
        assert_eq!(bare.grants, decorated.grants);
        assert_eq!(decorated.faults.delays, 0);
        assert_eq!(decorated.faults.collect_failures, 0);
        assert!(decorated.faults.ops > 0);
    }

    #[test]
    fn faults_are_deterministic_given_the_seed() {
        let plan = FaultPlan::new(41)
            .with_delays(300, 20)
            .with_collect_failures(400, 3);
        let a = gated(5, Some(plan));
        let b = gated(5, Some(plan));
        assert_eq!(a.progress.outcomes, b.progress.outcomes);
        assert_eq!(a.grants, b.grants);
        assert_eq!(a.faults, b.faults, "same seed, same injected faults");
        assert!(a.faults.collect_failures > 0, "the plan must actually fire");
        assert!(a.faults.delays > 0);
    }

    #[test]
    fn lose_all_crash_leaves_no_winner() {
        let registers = Arc::new(SharedRegisters::new(2));
        let plan = FaultPlan::new(3).with_crash(CrashSpec::lose_all(2));
        let report = run_inline(
            &registers,
            0,
            11,
            election_participants(4),
            &plan,
            &CancelToken::none(),
        )
        .expect("an uncancelled run completes");
        assert_eq!(report.outcomes.len(), 4, "every participant returns");
        assert!(report.winners().is_empty(), "a crashed field elects nobody");
        assert_eq!(report.faults.crashes, 4);
        assert!(report.outcomes.values().all(|o| *o == Outcome::Lose));
    }
}
