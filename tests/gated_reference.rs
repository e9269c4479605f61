//! A reference model of the schedule-gate loop, and the differential tests
//! that pin `fle_runtime::run_gated` to it.
//!
//! Both step one `DriveMachine` and one `FaultyMemory<RegisterHandle>` per
//! participant on the caller's thread under the same `GateScheduler` /
//! `GateCommand` rules. The reference writes each rule of the loop out once
//! more in its plainest form — harvesting returns and crashes in processor
//! order at the next decision, grant accounting and the interval
//! convention, the crash budget, degradation of illegal crashes, clamping
//! of out-of-range grants, `Stop`, the grant budget, fail-stop abandonment
//! gating through `Return`, fault-counter merging — so any difference
//! between the two `ScheduledReport`s is a bug in one of the two loops.

use fast_leader_election::model::{DriveMachine, DriveStep, Op, SchedulePoint};
use fast_leader_election::prelude::*;
use fast_leader_election::runtime::{
    GateCommand, GateObservation, RegisterHandle, ScheduledReport, WaitingAt,
};
use std::sync::Arc;

type Participants = Vec<(ProcId, Box<dyn Protocol + Send>)>;

/// What a participant does when it is next granted.
enum Pending {
    /// Perform this operation, then step to the next gate.
    Op(Op),
    /// Return with this outcome.
    Return(Outcome),
}

/// Where a participant is.
enum Phase {
    /// Parked at a gate: the point, the state the scheduler sees, and what
    /// the grant will do.
    Waiting(SchedulePoint, LocalStateView, Pending),
    /// Returned; harvested at the next decision.
    Done(Outcome),
    /// Crashed by the scheduler or by a stop; harvested at the next decision.
    Crashed,
}

struct Participant {
    proc: ProcId,
    machine: DriveMachine,
    protocol: Box<dyn Protocol + Send>,
    memory: FaultyMemory<RegisterHandle>,
    phase: Phase,
    harvested: bool,
}

impl Participant {
    /// Step the protocol to its next gate. A fail-stopped participant gates
    /// through `Return` and loses.
    fn advance(&mut self) {
        self.phase = if self.memory.abandoned() {
            Phase::Waiting(
                SchedulePoint::Return,
                self.protocol.adversary_view(),
                Pending::Return(Outcome::Lose),
            )
        } else {
            match self.machine.step(self.protocol.as_mut()) {
                DriveStep::Done(outcome) => {
                    let state = self.protocol.adversary_view();
                    Phase::Waiting(SchedulePoint::Return, state, Pending::Return(outcome))
                }
                DriveStep::NeedOp(op) => {
                    let state = self.protocol.adversary_view();
                    Phase::Waiting(op.point(), state, Pending::Op(op))
                }
            }
        };
    }

    /// Execute what the grant authorizes.
    fn grant(&mut self) {
        match std::mem::replace(&mut self.phase, Phase::Crashed) {
            Phase::Waiting(_, _, Pending::Op(op)) => {
                let response = op.perform(&mut self.memory);
                self.machine.resume(response);
                self.advance();
            }
            Phase::Waiting(_, _, Pending::Return(outcome)) => self.phase = Phase::Done(outcome),
            _ => unreachable!("only waiting participants are granted"),
        }
    }
}

/// The reference gate loop: `run_gated`'s contract, on the caller's thread.
fn reference_gated(
    seed: u64,
    mut participants: Participants,
    config: ScheduleConfig,
    scheduler: &mut dyn GateScheduler,
    plan: Option<FaultPlan>,
) -> ScheduledReport {
    participants.sort_by_key(|(proc, _)| *proc);
    let registers = Arc::new(SharedRegisters::new(2));
    let mut all: Vec<Participant> = participants
        .into_iter()
        .map(|(proc, protocol)| Participant {
            proc,
            machine: DriveMachine::new(),
            protocol,
            memory: FaultyMemory::new(
                registers.handle_seeded(0, proc, seed),
                proc,
                plan.unwrap_or_default(),
            ),
            phase: Phase::Crashed,
            harvested: false,
        })
        .collect();
    for participant in &mut all {
        participant.advance();
    }

    let mut report = ScheduledReport::default();
    let mut crash_budget_left = config.crash_budget;
    let mut stopping = false;
    loop {
        // Harvest returns and crashes, in processor order.
        for participant in all.iter_mut().filter(|p| !p.harvested) {
            match &participant.phase {
                Phase::Done(outcome) => {
                    report.progress.outcomes.insert(participant.proc, *outcome);
                    report
                        .progress
                        .intervals
                        .entry(participant.proc)
                        .or_insert((report.grants, None))
                        .1 = Some(report.grants);
                    participant.harvested = true;
                }
                Phase::Crashed => {
                    report.progress.crashed.push(participant.proc);
                    participant.harvested = true;
                }
                Phase::Waiting(..) => {}
            }
        }

        let mut indices = Vec::new();
        let mut waiting = Vec::new();
        for (index, participant) in all.iter().enumerate() {
            if let Phase::Waiting(point, state, _) = &participant.phase {
                indices.push(index);
                waiting.push(WaitingAt {
                    proc: participant.proc,
                    point: *point,
                    state: state.clone(),
                });
            }
        }
        if waiting.is_empty() {
            break;
        }

        if report.grants >= config.max_grants && !stopping {
            report.budget_exhausted = true;
            stopping = true;
        }
        let command = if stopping {
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
        match (command, victim) {
            (GateCommand::Stop, _) => {
                report.stopped = true;
                stopping = true;
                for &index in &indices {
                    all[index].phase = Phase::Crashed;
                }
            }
            (_, Some(position)) => {
                crash_budget_left -= 1;
                all[indices[position]].phase = Phase::Crashed;
            }
            (command, None) => {
                let pick = match command {
                    GateCommand::Run(pick) => pick.min(waiting.len() - 1),
                    _ => 0,
                };
                report.grants += 1;
                report
                    .progress
                    .intervals
                    .entry(waiting[pick].proc)
                    .or_insert((report.grants, None));
                all[indices[pick]].grant();
            }
        }
    }

    if plan.is_some() {
        for participant in &all {
            report.faults.merge(&participant.memory.stats());
        }
    }
    report
}

/// Grants the waiting participants in turn.
struct RoundRobin(usize);

impl GateScheduler for RoundRobin {
    fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
        self.0 += 1;
        GateCommand::Run(self.0 % obs.waiting.len())
    }
}

/// Round-robin, but at every multiple of nine grants it crashes the median
/// waiting participant, and every seventh decision asks to crash a
/// processor that does not exist. Illegal crashes — that one, and any past
/// the budget — degrade to `Run(0)`.
struct Crashy(usize);

impl GateScheduler for Crashy {
    fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
        self.0 += 1;
        if self.0.is_multiple_of(7) {
            GateCommand::Crash(ProcId(99))
        } else if obs.grants_made > 0 && obs.grants_made.is_multiple_of(9) {
            GateCommand::Crash(obs.waiting[obs.waiting.len() / 2].proc)
        } else {
            GateCommand::Run(self.0 % obs.waiting.len())
        }
    }
}

/// Round-robin until the given number of grants, then stop.
struct StopAfter(u64);

impl GateScheduler for StopAfter {
    fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
        if obs.grants_made >= self.0 {
            GateCommand::Stop
        } else {
            GateCommand::Run(obs.grants_made as usize % obs.waiting.len())
        }
    }
}

/// Grants past the end of the waiting set, by a varying overshoot.
struct PastTheEnd;

impl GateScheduler for PastTheEnd {
    fn pick(&mut self, obs: &GateObservation<'_>) -> GateCommand {
        GateCommand::Run(obs.waiting.len() + obs.grants_made as usize % 3)
    }
}

/// One schedule of the differential grid.
struct Case {
    name: &'static str,
    scheduler: fn() -> Box<dyn GateScheduler>,
    config: fn(usize) -> ScheduleConfig,
    plan: Option<FaultPlan>,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "fifo",
            scheduler: || Box::new(FifoScheduler),
            config: ScheduleConfig::for_participants,
            plan: None,
        },
        Case {
            name: "round-robin",
            scheduler: || Box::new(RoundRobin(0)),
            config: ScheduleConfig::for_participants,
            plan: None,
        },
        Case {
            name: "crash-budget",
            scheduler: || Box::new(Crashy(0)),
            config: |k| ScheduleConfig::for_participants(k).with_crash_budget(2),
            plan: None,
        },
        Case {
            name: "stop",
            scheduler: || Box::new(StopAfter(10)),
            config: ScheduleConfig::for_participants,
            plan: None,
        },
        Case {
            name: "grant-budget",
            scheduler: || Box::new(RoundRobin(0)),
            config: |k| ScheduleConfig::for_participants(k).with_max_grants(12),
            plan: None,
        },
        Case {
            name: "out-of-range",
            scheduler: || Box::new(PastTheEnd),
            config: ScheduleConfig::for_participants,
            plan: None,
        },
        Case {
            // Crashes too, so a doomed participant's fault counters must be
            // merged like a finished one's.
            name: "fault-plan",
            scheduler: || Box::new(Crashy(0)),
            config: |k| ScheduleConfig::for_participants(k).with_crash_budget(2),
            plan: Some(
                FaultPlan::new(41)
                    .with_delays(300, 5)
                    .with_collect_failures(400, 3)
                    .with_crash(CrashSpec::lose_all(8)),
            ),
        },
    ]
}

fn assert_same(reference: &ScheduledReport, gated: &ScheduledReport, label: &str) {
    assert_eq!(
        gated.progress.outcomes, reference.progress.outcomes,
        "{label}: outcomes"
    );
    assert_eq!(
        gated.progress.intervals, reference.progress.intervals,
        "{label}: intervals"
    );
    assert_eq!(
        gated.progress.crashed, reference.progress.crashed,
        "{label}: crashed"
    );
    assert_eq!(gated.grants, reference.grants, "{label}: grants");
    assert_eq!(gated.stopped, reference.stopped, "{label}: stopped");
    assert_eq!(
        gated.budget_exhausted, reference.budget_exhausted,
        "{label}: budget_exhausted"
    );
    assert_eq!(gated.faults, reference.faults, "{label}: faults");
}

/// Diff `run_gated` against the reference on every case of the grid, for
/// the participants `build` makes.
fn diff_grid(workload: &str, build: fn() -> Participants) {
    for case in cases() {
        for seed in 0..3u64 {
            let k = build().len();
            let reference = reference_gated(
                seed,
                build(),
                (case.config)(k),
                (case.scheduler)().as_mut(),
                case.plan,
            );
            let gated = run_gated(
                seed,
                build(),
                (case.config)(k),
                (case.scheduler)().as_mut(),
                case.plan,
            );
            let label = format!("{workload} / {} / seed {seed}", case.name);
            assert_same(&reference, &gated, &label);
        }
    }
}

#[test]
fn run_gated_matches_the_reference_loop_on_elections() {
    diff_grid("election k=4", || election_participants(4));
}

#[test]
fn run_gated_matches_the_reference_loop_on_renaming() {
    diff_grid("renaming k=5", || renaming_participants(5, 5));
}

#[test]
fn the_grid_exercises_every_rule_it_claims_to() {
    // A differential test proves nothing about a rule no case reaches:
    // check on the reference that the grid crashes, stops, exhausts the
    // grant budget, fail-stops and injects faults.
    let mut seen = Vec::new();
    for case in cases() {
        let report = reference_gated(
            0,
            election_participants(4),
            (case.config)(4),
            (case.scheduler)().as_mut(),
            case.plan,
        );
        seen.push((case.name, report));
    }
    let find = |name: &str| &seen.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(find("fifo").progress.winners().len(), 1);
    assert!(!find("crash-budget").progress.crashed.is_empty());
    assert!(find("crash-budget").progress.crashed.len() <= 2);
    assert!(find("stop").stopped && !find("stop").budget_exhausted);
    assert_eq!(find("stop").grants, 10);
    assert!(find("grant-budget").budget_exhausted);
    assert_eq!(find("out-of-range").progress.winners(), vec![ProcId(3)]);
    let faulty = find("fault-plan");
    assert!(faulty.faults.collect_failures > 0 && faulty.faults.delays > 0);
    assert!(faulty.faults.crashes > 0, "the fail-stop plan fires");
    assert!(
        !faulty.progress.crashed.is_empty(),
        "and the scheduler crashes"
    );
}
