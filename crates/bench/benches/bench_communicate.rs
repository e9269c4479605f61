//! Isolates the `communicate` payload path — propagate broadcasts and
//! collect replies — from scheduling, so payload cost is tracked
//! independently of the event-set machinery that `bench_election` exercises.
//!
//! The workload is a deliberately communication-heavy protocol: every
//! processor performs `ROUNDS` alternations of *propagate a status carrying a
//! participant list* (the largest value the real algorithms ship) and
//! *collect the same instance*, under the sequential adversary (deterministic
//! schedules, no protocol-level branching), on the production payload path:
//! refcount-shared broadcast payloads, copy-on-write snapshot / delta
//! collect replies.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fle_model::{Action, InstanceId, Key, LocalStateView, Outcome, ProcId, Protocol, Response};
use fle_model::{Status, Value};
use fle_sim::{SequentialAdversary, SimConfig, Simulator};

const ROUNDS: u8 = 4;

/// Propagate-then-collect `ROUNDS` times, carrying a spilled participant
/// list so payload size matches the heterogeneous sifting phases.
struct Chatter {
    me: ProcId,
    n: usize,
    round: u8,
    collecting: bool,
}

impl Protocol for Chatter {
    fn step(&mut self, response: Response) -> Action {
        let acked = matches!(response, Response::AckQuorum);
        if self.collecting {
            black_box(response.expect_views().len());
            self.collecting = false;
            self.round += 1;
        }
        if self.round >= ROUNDS {
            return Action::Return(Outcome::Proceed);
        }
        if acked {
            self.collecting = true;
            return Action::Collect {
                instance: InstanceId::custom(7, 0),
            };
        }
        let list: Vec<ProcId> = (0..self.n.min(64)).map(ProcId).collect();
        Action::Propagate {
            entries: vec![(
                Key::proc(InstanceId::custom(7, 0), self.me),
                Value::Status(Status::resolved_with_list(fle_model::Priority::High, list)),
            )],
        }
    }

    fn adversary_view(&self) -> LocalStateView {
        LocalStateView::new("chatter", "running").with_round(u64::from(self.round))
    }
}

fn run_chatter(n: usize) -> u64 {
    let mut sim = Simulator::new(SimConfig::new(n).with_seed(11));
    // Cap the chatterers: each call still broadcasts to all n replicas (the
    // payload cost under measurement scales with n), but wall-clock per
    // iteration stays bounded at the largest size.
    let participants = n.min(64);
    for i in 0..participants {
        sim.add_participant(
            ProcId(i),
            Box::new(Chatter {
                me: ProcId(i),
                n,
                round: 0,
                collecting: false,
            }),
        );
    }
    let report = sim
        .run(&mut SequentialAdversary::new())
        .expect("terminates");
    report.events_executed
}

fn bench_communicate(c: &mut Criterion) {
    let mut group = c.benchmark_group("communicate");
    group.sample_size(10);
    // Participant count is capped in `run_chatter`; n controls replica count.
    for n in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("shared", n), &n, |b, &n| {
            b.iter(|| black_box(run_chatter(n)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_communicate);
criterion_main!(benches);
