//! The deterministic [`SharedMemory`] adapter over [`ReplicaStore`]s.
//!
//! The discrete-event [`crate::Simulator`] implements the shared-memory
//! contract in inverted, adversary-scheduled form; this module is its
//! synchronous face: `n` replica stores in one struct, `propagate` applied
//! to every replica immediately (the quorum that answered is all of them),
//! `collect` returning the copy-on-write views of the first quorum of
//! replicas, and coin flips drawn from a per-processor seeded stream. Every
//! call completes deterministically and in program order, which corresponds
//! to the failure-free sequential schedule of the simulator.
//!
//! This is the backend of choice for unit-testing protocols against
//! [`fle_model::drive`] and for differential tests across backends: the same
//! register representation ([`ReplicaStore`] / [`fle_model::View`]) as the
//! simulator, none of the scheduling.

use fle_model::{
    CollectedViews, InstanceId, Key, Outcome, ProcId, Protocol, ReplicaStore, SharedMemory, Value,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// A bank of `n` replica stores with deterministic sequential semantics.
#[derive(Debug)]
pub struct SimMemory {
    replicas: Vec<ReplicaStore>,
    seed: u64,
}

impl SimMemory {
    /// A memory with `n` replicas (all registers `⊥`) and the given seed for
    /// the per-processor coin-flip streams.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "a system needs at least one replica");
        SimMemory {
            replicas: (0..n).map(|_| ReplicaStore::new()).collect(),
            seed,
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Quorum size (`⌊n/2⌋ + 1`).
    pub fn quorum(&self) -> usize {
        self.replicas.len() / 2 + 1
    }

    /// The [`SharedMemory`] handle of processor `me`. Handles borrow the
    /// memory mutably, so protocols run one at a time — the sequential
    /// schedule.
    pub fn handle(&mut self, me: ProcId) -> SimMemoryHandle<'_> {
        let rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(me.index() as u64 * 0x9e37));
        SimMemoryHandle {
            memory: self,
            me,
            rng,
        }
    }

    /// Drive every `(processor, protocol)` pair to completion in order
    /// against this memory — the sequential failure-free schedule — and
    /// return the outcomes.
    pub fn run_all(
        &mut self,
        participants: Vec<(ProcId, Box<dyn Protocol + Send>)>,
    ) -> BTreeMap<ProcId, Outcome> {
        participants
            .into_iter()
            .map(|(proc, mut protocol)| {
                let outcome = fle_model::drive(protocol.as_mut(), self.handle(proc));
                (proc, outcome)
            })
            .collect()
    }
}

/// One processor's handle onto a [`SimMemory`].
#[derive(Debug)]
pub struct SimMemoryHandle<'a> {
    memory: &'a mut SimMemory,
    me: ProcId,
    rng: ChaCha8Rng,
}

impl SimMemoryHandle<'_> {
    /// The processor this handle belongs to.
    pub fn proc(&self) -> ProcId {
        self.me
    }
}

impl SharedMemory for SimMemoryHandle<'_> {
    fn propagate(&mut self, entries: Vec<(Key, Value)>) {
        // Every replica absorbs the write before the call returns: the
        // acknowledging quorum is the whole system.
        for replica in &mut self.memory.replicas {
            replica.apply_all(&entries);
        }
    }

    fn collect(&mut self, instance: InstanceId) -> CollectedViews {
        // The first ⌊n/2⌋ + 1 replicas answer. Propagation reaches every
        // replica, so any quorum (this one included) reflects all writes
        // acknowledged so far.
        let quorum = self.memory.quorum();
        CollectedViews::from_shared(
            self.memory.replicas[..quorum]
                .iter()
                .enumerate()
                .map(|(index, replica)| (ProcId(index), replica.view_arc(instance)))
                .collect(),
        )
    }

    fn flip(&mut self, prob_one: f64) -> bool {
        self.rng.gen_bool(prob_one.clamp(0.0, 1.0))
    }

    fn choose(&mut self, choices: &[u64]) -> u64 {
        if choices.is_empty() {
            0
        } else {
            choices[self.rng.gen_range(0..choices.len())]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_model::{ElectionContext, Slot};

    #[test]
    fn propagated_writes_are_visible_to_every_collector() {
        let mut memory = SimMemory::new(5, 0);
        let instance = InstanceId::door(ElectionContext::Standalone);
        memory
            .handle(ProcId(2))
            .propagate(vec![(Key::global(instance), Value::Flag(true))]);
        let views = memory.handle(ProcId(4)).collect(instance);
        assert_eq!(views.len(), memory.quorum());
        assert!(views
            .responses()
            .iter()
            .all(|(_, view)| { view.get(&Slot::Global).and_then(Value::as_flag) == Some(true) }));
    }

    #[test]
    fn sequential_runs_are_deterministic() {
        let outcomes = |seed| {
            let mut memory = SimMemory::new(4, seed);
            let participants = (0..4)
                .map(|i| {
                    (
                        ProcId(i),
                        Box::new(fle_core_stub::Coin) as Box<dyn fle_model::Protocol + Send>,
                    )
                })
                .collect();
            memory.run_all(participants)
        };
        assert_eq!(outcomes(3), outcomes(3));
        // Flip streams are per-processor, so outcomes differ across seeds
        // for at least one of a handful of seeds.
        assert!((0..8u64).any(|seed| outcomes(seed) != outcomes(seed + 8)));
    }

    #[test]
    fn choose_is_uniform_over_the_given_choices() {
        let mut memory = SimMemory::new(1, 7);
        let mut handle = memory.handle(ProcId(0));
        assert_eq!(handle.choose(&[]), 0);
        for _ in 0..32 {
            let picked = handle.choose(&[11, 22, 33]);
            assert!([11, 22, 33].contains(&picked));
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_are_rejected() {
        let _ = SimMemory::new(0, 0);
    }

    /// A minimal coin-returning protocol, local to the tests so `fle-sim`
    /// does not depend on `fle-core`.
    mod fle_core_stub {
        use fle_model::{Action, LocalStateView, Outcome, Protocol, Response};

        pub struct Coin;

        impl Protocol for Coin {
            fn step(&mut self, response: Response) -> Action {
                match response {
                    Response::Start => Action::Flip { prob_one: 0.5 },
                    Response::Coin(true) => Action::Return(Outcome::Survive),
                    _ => Action::Return(Outcome::Die),
                }
            }

            fn adversary_view(&self) -> LocalStateView {
                LocalStateView::new("coin", "flipping")
            }
        }
    }
}
