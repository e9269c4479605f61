//! The in-process concurrent shared-memory backend: registers as real shared
//! state.
//!
//! The paper's model is asynchronous *shared memory*; the message-passing
//! `communicate(propagate / collect)` emulation exists to implement it over a
//! network (ABND95). In a single process nothing forces the emulation: this
//! backend keeps one authoritative copy of every register in a
//! [`SharedRegisters`] bank — copy-on-write [`View`]s sharded across
//! fine-grained locks — and implements the [`SharedMemory`] contract
//! directly: `propagate` is a merge under the owning shard's lock, `collect`
//! is an atomic copy-on-write snapshot (a refcount bump). Quorums are
//! trivially satisfied (the one true copy *is* the majority), so contention
//! comes from the hardware — threads racing for shard locks — rather than
//! from emulated message interleavings.
//!
//! Register banks are **namespaced**: every value lives under a caller-chosen
//! `namespace` key, so thousands of protocol instances can share one bank
//! without colliding (the sharded service in `fle-service` maps one instance
//! to one namespace) and a finished instance's registers can be retired in
//! O(1) with [`SharedRegisters::retire`]. All of a namespace's registers live
//! in a single shard, which makes retirement atomic and keeps one instance's
//! cache traffic on one lock.
//!
//! # Example
//!
//! ```
//! use fle_model::CancelToken;
//! use fle_runtime::{election_participants, run_inline, FaultPlan, SharedRegisters};
//! use std::sync::Arc;
//!
//! let registers = Arc::new(SharedRegisters::new(8));
//! let report = run_inline(
//!     &registers,
//!     0,
//!     42,
//!     election_participants(4),
//!     &FaultPlan::default(),
//!     &CancelToken::none(),
//! )
//! .expect("an uncancelled run completes");
//! assert_eq!(report.winners().len(), 1);
//! ```

use fle_model::{
    splitmix64, CollectedViews, InstanceId, Key, ProcId, ProcessMetrics, SharedMemory, Value, View,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// One shard of the register bank: the namespaces it owns, each mapping
/// register instances to copy-on-write views.
type Shard = Mutex<HashMap<u64, BTreeMap<InstanceId, Arc<View>>>>;

/// A sharded, namespaced bank of shared registers.
///
/// Cloneable handles are obtained with [`SharedRegisters::handle`]; each
/// handle implements [`SharedMemory`] for one processor of one namespace.
#[derive(Debug)]
pub struct SharedRegisters {
    shards: Vec<Shard>,
    /// Shared empty view handed out for never-written instances, so a
    /// collect of an untouched register allocates nothing.
    empty: Arc<View>,
}

impl SharedRegisters {
    /// A register bank with `shards` independent locks (0 is clamped to 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        SharedRegisters {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            empty: Arc::new(View::new()),
        }
    }

    /// The number of independent lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, namespace: u64) -> &Shard {
        &self.shards[(splitmix64(namespace) as usize) % self.shards.len()]
    }

    /// Merge `value` into the register `key` of `namespace`, linearizably.
    pub fn write(&self, namespace: u64, key: Key, value: &Value) {
        let mut shard = self
            .shard(namespace)
            .lock()
            .expect("no register write panics while holding the lock");
        let view = shard
            .entry(namespace)
            .or_default()
            .entry(key.instance)
            .or_insert_with(|| Arc::new(View::new()));
        Arc::make_mut(view).insert(key.slot, value.clone());
    }

    /// Merge a batch of writes, taking the shard lock once.
    pub fn write_all(&self, namespace: u64, entries: &[(Key, Value)]) {
        if entries.is_empty() {
            return;
        }
        let mut shard = self
            .shard(namespace)
            .lock()
            .expect("no register write panics while holding the lock");
        let bank = shard.entry(namespace).or_default();
        for (key, value) in entries {
            let view = bank
                .entry(key.instance)
                .or_insert_with(|| Arc::new(View::new()));
            Arc::make_mut(view).insert(key.slot, value.clone());
        }
    }

    /// An atomic copy-on-write snapshot of `instance` in `namespace`: a
    /// refcount bump under the shard lock; the slot array is only copied if a
    /// writer lands on the same instance while the snapshot is alive.
    pub fn snapshot(&self, namespace: u64, instance: InstanceId) -> Arc<View> {
        let shard = self
            .shard(namespace)
            .lock()
            .expect("no register read panics while holding the lock");
        shard
            .get(&namespace)
            .and_then(|bank| bank.get(&instance))
            .cloned()
            .unwrap_or_else(|| self.empty.clone())
    }

    /// Drop every register of `namespace`; returns whether anything existed.
    /// O(instances of that namespace), independent of every other namespace.
    pub fn retire(&self, namespace: u64) -> bool {
        self.shard(namespace)
            .lock()
            .expect("no register access panics while holding the lock")
            .remove(&namespace)
            .is_some()
    }

    /// Number of live (written, not retired) namespaces across all shards.
    pub fn live_namespaces(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .expect("no register access panics while holding the lock")
                    .len()
            })
            .sum()
    }

    /// A [`SharedMemory`] handle for processor `me` of `namespace`, with its
    /// coin flips seeded from `seed` (mixed with the namespace, so parallel
    /// instances sharing one bank draw independent streams).
    pub fn handle(self: &Arc<Self>, namespace: u64, me: ProcId, seed: u64) -> RegisterHandle {
        self.handle_seeded(namespace, me, seed.wrapping_add(splitmix64(namespace)))
    }

    /// A handle whose coin stream ignores the namespace: seeded exactly like
    /// `fle_sim::SimMemory` (`seed + me·0x9e37`). The gate loop
    /// ([`crate::run_gated`]) builds its participants with it, over a bank of
    /// its own under namespace 0, so that a fully sequentialized gated run
    /// draws the same coins as the sequential simulator adapter and the two
    /// can be compared outcome-for-outcome. [`SharedRegisters::handle`] is
    /// this handle at `seed + splitmix64(namespace)`.
    pub fn handle_seeded(
        self: &Arc<Self>,
        namespace: u64,
        me: ProcId,
        seed: u64,
    ) -> RegisterHandle {
        RegisterHandle {
            registers: Arc::clone(self),
            namespace,
            me,
            rng: ChaCha8Rng::seed_from_u64(seed.wrapping_add(me.index() as u64 * 0x9e37)),
            metrics: ProcessMetrics::default(),
        }
    }
}

/// One processor's handle onto a [`SharedRegisters`] bank: the concurrent
/// implementation of the [`SharedMemory`] contract.
#[derive(Debug)]
pub struct RegisterHandle {
    registers: Arc<SharedRegisters>,
    namespace: u64,
    me: ProcId,
    rng: ChaCha8Rng,
    metrics: ProcessMetrics,
}

impl RegisterHandle {
    /// The complexity counters accumulated by this handle. The concurrent
    /// backend sends no messages, so only `communicate_calls` and
    /// `coin_flips` are ever non-zero.
    pub fn metrics(&self) -> ProcessMetrics {
        self.metrics
    }

    /// The processor this handle belongs to.
    pub fn proc(&self) -> ProcId {
        self.me
    }
}

impl SharedMemory for RegisterHandle {
    fn propagate(&mut self, entries: Vec<(Key, Value)>) {
        self.metrics.communicate_calls += 1;
        self.registers.write_all(self.namespace, &entries);
    }

    fn collect(&mut self, instance: InstanceId) -> CollectedViews {
        self.metrics.communicate_calls += 1;
        // The one true copy stands in for a quorum of replica views: a
        // single atomic snapshot is a refinement of any set of quorum views
        // (it is the join of everything any quorum could have reported).
        let snapshot = self.registers.snapshot(self.namespace, instance);
        CollectedViews::from_shared(vec![(self.me, snapshot)])
    }

    fn flip(&mut self, prob_one: f64) -> bool {
        self.metrics.coin_flips += 1;
        self.rng.gen_bool(prob_one.clamp(0.0, 1.0))
    }

    fn choose(&mut self, choices: &[u64]) -> u64 {
        self.metrics.coin_flips += 1;
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
    use crate::{election_participants, renaming_participants, run_inline, ExecReport, FaultPlan};
    use fle_model::{CancelToken, Slot};

    #[test]
    fn writes_round_trip_through_snapshots() {
        let registers = SharedRegisters::new(4);
        let key = Key::name(InstanceId::Contended, 3);
        registers.write(7, key, &Value::Flag(true));
        let snapshot = registers.snapshot(7, InstanceId::Contended);
        assert_eq!(
            snapshot.get(&Slot::Name(3)).and_then(Value::as_flag),
            Some(true)
        );
        // Another namespace sees nothing: no cross-instance leakage.
        assert!(registers.snapshot(8, InstanceId::Contended).is_empty());
        assert_eq!(registers.live_namespaces(), 1);
    }

    #[test]
    fn retire_drops_exactly_one_namespace() {
        let registers = SharedRegisters::new(2);
        for namespace in 0..10u64 {
            registers.write(
                namespace,
                Key::global(InstanceId::Contended),
                &Value::Flag(true),
            );
        }
        assert_eq!(registers.live_namespaces(), 10);
        assert!(registers.retire(4));
        assert!(!registers.retire(4), "retiring twice finds nothing");
        assert_eq!(registers.live_namespaces(), 9);
        assert!(registers.snapshot(4, InstanceId::Contended).is_empty());
        assert!(!registers.snapshot(5, InstanceId::Contended).is_empty());
    }

    #[test]
    fn snapshots_are_stable_under_later_writes() {
        let registers = SharedRegisters::new(1);
        registers.write(0, Key::name(InstanceId::Contended, 0), &Value::Flag(true));
        let before = registers.snapshot(0, InstanceId::Contended);
        registers.write(0, Key::name(InstanceId::Contended, 1), &Value::Flag(true));
        assert_eq!(
            before.len(),
            1,
            "the snapshot must not observe later writes"
        );
        assert_eq!(registers.snapshot(0, InstanceId::Contended).len(), 2);
    }

    /// Run one instance to completion on the calling thread.
    fn run(
        registers: &Arc<SharedRegisters>,
        namespace: u64,
        seed: u64,
        participants: Vec<(ProcId, Box<dyn fle_model::Protocol + Send>)>,
    ) -> ExecReport {
        run_inline(
            registers,
            namespace,
            seed,
            participants,
            &FaultPlan::default(),
            &CancelToken::none(),
        )
        .expect("an uncancelled run completes")
    }

    #[test]
    fn concurrent_election_elects_exactly_one_leader() {
        let registers = Arc::new(SharedRegisters::new(4));
        for seed in 0..5u64 {
            let report = run(&registers, seed, seed, election_participants(8));
            assert_eq!(report.winners().len(), 1, "seed {seed}");
            assert_eq!(report.outcomes.len(), 8);
            registers.retire(seed);
        }
        assert_eq!(registers.live_namespaces(), 0);
    }

    #[test]
    fn concurrent_renaming_assigns_unique_tight_names() {
        let registers = Arc::new(SharedRegisters::new(4));
        let n = 6;
        let report = run(&registers, 1, 9, renaming_participants(n, n));
        let names: std::collections::BTreeSet<usize> = report
            .outcomes
            .values()
            .filter_map(|o| match o {
                fle_model::Outcome::Name(u) => Some(*u),
                _ => None,
            })
            .collect();
        assert_eq!(names.len(), n, "all names distinct");
        assert!(names.iter().all(|&u| (1..=n).contains(&u)));
    }

    #[test]
    fn namespaces_isolate_concurrent_instances() {
        // Two elections with identical seeds in different namespaces of the
        // same bank: each elects exactly one winner and neither observes the
        // other's registers.
        let registers = Arc::new(SharedRegisters::new(1));
        let left = run(&registers, 100, 3, election_participants(4));
        let right = run(&registers, 200, 3, election_participants(4));
        assert_eq!(left.winners().len(), 1);
        assert_eq!(right.winners().len(), 1);
        assert_eq!(registers.live_namespaces(), 2);
    }
}
