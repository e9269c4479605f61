//! The inline driver against the pool it stands in for, and against the
//! gate loop replaying its turns.
//!
//! `fle_runtime::run_inline` steps an instance's participants round-robin on
//! the calling thread, one burst of 8 operations per turn. A one-worker
//! `Executor` running a lone instance takes the same turns: its run queue
//! holds the participants in submission order, and a task that yields goes
//! to the back. So the two must agree exactly, in outcomes and in
//! injected-fault counters, for every workload, size, seed and fault plan.
//! A different burst length changes which register writes a collect sees,
//! and shows here as a different outcome.
//!
//! The gate loop (`run_gated`) under a scheduler that grants the same turns,
//! one operation per grant, must agree with `run_inline` just as exactly:
//! the turn order the service runs an instance in is a schedule the
//! explorer can replay.
//!
//! Both drivers share one burst routine, so each case also checks what the
//! paper's model demands of any run: every participant returns, an
//! election has at most one winner (exactly one without crashes), renamed
//! participants hold distinct names in `1..=n`, and a participant that
//! fail-stopped loses. A participant that kept stepping after its crash
//! would break the last rule on both drivers at once.

use fast_leader_election::model::{splitmix64, SchedulePoint};
use fast_leader_election::prelude::*;
use fast_leader_election::runtime::{run_inline, GateCommand, GateObservation};
use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

type Participants = Vec<(ProcId, Box<dyn Protocol + Send>)>;

fn participants(workload: Workload, n: usize) -> Participants {
    match workload {
        Workload::Election => election_participants(n),
        Workload::Renaming => renaming_participants(n, n),
    }
}

/// The three plans of the grid: none, transient collect failures, and a
/// fail-stop of every participant at its fifth operation.
fn plans(seed: u64) -> [FaultPlan; 3] {
    [
        FaultPlan::default(),
        FaultPlan::new(seed).with_collect_failures(200, 2),
        FaultPlan::new(seed).with_crash(CrashSpec::lose_all(5)),
    ]
}

/// The pool's report for one instance: a fresh one-worker executor, held
/// until the whole instance is queued. Without the hold the worker may take
/// participant 0 before the others are queued, and the turn order would
/// depend on that race.
fn on_the_pool(
    registers: &Arc<SharedRegisters>,
    namespace: u64,
    seed: u64,
    participants: Participants,
    plan: &FaultPlan,
) -> ExecReport {
    let executor = Executor::new(ExecutorConfig::new(1).with_start_paused());
    let ticket = executor.submit(
        registers,
        namespace,
        seed,
        participants,
        plan,
        CancelToken::none(),
    );
    executor.release();
    match ticket.wait() {
        ExecResult::Completed(report) => report,
        other => panic!("namespace {namespace}: unexpected {other:?}"),
    }
}

/// The model's demands on one finished instance of `n` participants.
fn check_model(label: &str, workload: Workload, n: usize, plan: &FaultPlan, report: &ExecReport) {
    assert_eq!(
        report.outcomes.len(),
        n,
        "{label}: every participant returns"
    );
    let losers = report
        .outcomes
        .values()
        .filter(|o| **o == Outcome::Lose)
        .count();
    assert!(
        report.faults.crashes as usize <= losers,
        "{label}: {} participants fail-stopped but only {losers} lost",
        report.faults.crashes
    );
    if plan.is_noop() {
        assert_eq!(
            report.faults,
            FaultStats::default(),
            "{label}: no plan, no counters"
        );
    }
    let crashy = plan.crash.is_some();
    match workload {
        Workload::Election => {
            let winners = report.winners().len();
            assert!(winners <= 1, "{label}: {winners} winners");
            assert!(crashy || winners == 1, "{label}: nobody won");
            assert_eq!(winners + losers, n, "{label}: only wins and losses");
        }
        Workload::Renaming => {
            let names: Vec<usize> = report
                .outcomes
                .values()
                .filter_map(|o| match o {
                    Outcome::Name(name) => Some(*name),
                    _ => None,
                })
                .collect();
            let distinct: BTreeSet<usize> = names.iter().copied().collect();
            assert_eq!(distinct.len(), names.len(), "{label}: a repeated name");
            assert!(
                names.iter().all(|name| (1..=n).contains(name)),
                "{label}: a name outside 1..={n}"
            );
            assert!(crashy || names.len() == n, "{label}: someone went unnamed");
        }
    }
}

#[test]
fn the_inline_driver_matches_a_one_worker_pool() {
    let none = CancelToken::none();
    let (mut cases, mut yielded, mut failures, mut crashes) = (0, 0, 0, 0);
    for workload in [Workload::Election, Workload::Renaming] {
        for n in [1usize, 2, 5, 16] {
            for seed in 0..8u64 {
                for plan in plans(seed) {
                    let label = format!("{workload:?}, n {n}, seed {seed}, {plan:?}");
                    let registers = Arc::new(SharedRegisters::new(2));
                    let namespace = 1_000 + seed;
                    let pooled = on_the_pool(
                        &registers,
                        namespace,
                        seed,
                        participants(workload, n),
                        &plan,
                    );
                    registers.retire(namespace);
                    let inline = run_inline(
                        &registers,
                        namespace,
                        seed,
                        participants(workload, n),
                        &plan,
                        &none,
                    )
                    .expect("an uncancelled run completes");
                    assert_eq!(inline.outcomes, pooled.outcomes, "{label}: outcomes");
                    assert_eq!(inline.faults, pooled.faults, "{label}: fault counters");
                    check_model(&label, workload, n, &plan, &inline);
                    cases += 1;
                    // More than 8 operations per participant on average:
                    // some participant needed a second turn.
                    yielded += usize::from(inline.faults.ops > 8 * n as u64);
                    failures += inline.faults.collect_failures;
                    crashes += inline.faults.crashes;
                }
            }
        }
    }
    assert_eq!(cases, 192);
    assert!(yielded > 0, "some participant must need a second turn");
    assert!(failures > 0, "the collect-failure plan must fire");
    assert!(crashes > 0, "the fail-stop plan must fire");
}

/// Grants `run_inline`'s turns one operation at a time: the participants
/// take turns in order, each granted up to 8 operations per turn, and a
/// granted `Return` ends that participant.
struct InlineTurns {
    turns: VecDeque<ProcId>,
    ops_this_turn: u32,
}

impl GateScheduler for InlineTurns {
    fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
        if self.ops_this_turn == 8 {
            self.turns.rotate_left(1);
            self.ops_this_turn = 0;
        }
        let proc = self.turns[0];
        let index = obs
            .waiting
            .iter()
            .position(|entry| entry.proc == proc)
            .expect("the participant whose turn it is waits at a gate");
        if obs.waiting[index].point == SchedulePoint::Return {
            self.turns.pop_front();
            self.ops_this_turn = 0;
        } else {
            self.ops_this_turn += 1;
        }
        GateCommand::Run(index)
    }
}

#[test]
fn the_gate_loop_replays_the_inline_drivers_turns() {
    let none = CancelToken::none();
    let mut cases = 0;
    for workload in [Workload::Election, Workload::Renaming] {
        for n in [1usize, 2, 5, 16] {
            for seed in 0..8u64 {
                for plan in plans(seed) {
                    let label = format!("{workload:?}, n {n}, seed {seed}, {plan:?}");
                    let registers = Arc::new(SharedRegisters::new(2));
                    let namespace = 1_000 + seed;
                    let inline = run_inline(
                        &registers,
                        namespace,
                        seed,
                        participants(workload, n),
                        &plan,
                        &none,
                    )
                    .expect("an uncancelled run completes");
                    // `handle` mixes the namespace into the coin seed; the
                    // gate loop's `handle_seeded` takes the mixed seed as is.
                    let gated = run_gated(
                        seed.wrapping_add(splitmix64(namespace)),
                        participants(workload, n),
                        ScheduleConfig::for_participants(n),
                        &mut InlineTurns {
                            turns: (0..n).map(ProcId).collect(),
                            ops_this_turn: 0,
                        },
                        (!plan.is_noop()).then_some(plan),
                    );
                    assert!(!gated.stopped, "{label}: the replay completes");
                    assert!(gated.progress.crashed.is_empty(), "{label}");
                    assert_eq!(
                        gated.progress.outcomes, inline.outcomes,
                        "{label}: outcomes"
                    );
                    assert_eq!(gated.faults, inline.faults, "{label}: fault counters");
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 192);
}

#[test]
fn the_inline_driver_returns_none_once_the_token_trips() {
    let registers = Arc::new(SharedRegisters::new(1));
    let plan = FaultPlan::default();
    let tripped = CancelToken::new();
    tripped.cancel();
    let expired = CancelToken::new().with_deadline(std::time::Instant::now());
    for (namespace, cancel) in [(0u64, tripped), (1, expired)] {
        let run = run_inline(
            &registers,
            namespace,
            3,
            election_participants(4),
            &plan,
            &cancel,
        );
        assert!(run.is_none(), "namespace {namespace}: a cancelled run");
    }
    let empty = run_inline(&registers, 2, 3, Vec::new(), &plan, &CancelToken::none())
        .expect("nothing to run completes at once");
    assert!(empty.outcomes.is_empty());
}

#[test]
fn a_participant_panic_unwinds_to_the_caller_of_the_inline_driver() {
    let registers = Arc::new(SharedRegisters::new(1));
    let plan = FaultPlan::new(5).with_crash(CrashSpec::panic_proc(ProcId(0), 1));
    let raised = catch_unwind(AssertUnwindSafe(|| {
        run_inline(
            &registers,
            0,
            4,
            election_participants(3),
            &plan,
            &CancelToken::none(),
        )
    }));
    let payload = raised.expect_err("the injected panic reaches the caller");
    let message = payload
        .downcast_ref::<String>()
        .expect("the injected crash panics with a formatted message");
    assert!(message.starts_with("injected crash"), "{message}");
}
