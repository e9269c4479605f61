//! Reusable simulation buffers for back-to-back trials.
//!
//! Every experiment in this workspace runs thousands of independent
//! `(seed, n, adversary)` trials; building a fresh [`crate::Simulator`] per
//! trial used to re-allocate the message slab, the enabled-event indexes, the
//! per-processor state vector and the adversary observation from scratch each
//! time. A [`SimArena`] is the recycled bundle of those buffers: emptied, not
//! freed, between trials, so after a warm-up trial the per-trial allocation
//! cost of the engine scaffolding drops to (approximately) nothing.
//!
//! Two ways to use it:
//!
//! * **Transparently** — [`crate::Simulator::new`] draws from the arena pool
//!   and returns the buffers on drop, so plain loops (and every
//!   `fle_bench::BatchRunner` worker thread) get reuse with no code changes.
//! * **Explicitly** — [`crate::Simulator::from_arena`] /
//!   [`crate::Simulator::into_arena`] thread one arena through a loop by
//!   hand, for callers that want the reuse to be visible and testable.
//!
//! The pool is two-level: a thread-local slot (the fast path, no
//! synchronisation) backed by a bounded process-wide free list. The global
//! level matters for the partitioned simulator, whose
//! [`crate::ParallelSimulator`] round bodies run on short-lived
//! `std::thread::scope` workers — but whose engines are created and dropped
//! on the *coordinating* thread, and for batch drivers that respawn worker
//! threads between configurations: without the shared list, every fresh
//! thread would pay the full cold-allocation cost again. [`pool_stats`]
//! exposes hit/miss counters so tests can assert that recycling actually
//! happens.
//!
//! Recycling never changes behaviour: every buffer is reset to a state
//! indistinguishable from freshly allocated (the differential tests in
//! `tests/event_set_equivalence.rs` re-run identical configurations
//! back-to-back and require byte-identical reports).

use crate::observation::ProcessObservation;
use crate::quorum::QuorumCore;
use fle_model::ProcId;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The recyclable buffers of one simulator instance.
#[derive(Default)]
pub struct SimArena {
    /// The processor shells, message slab, batch and outbox, and event
    /// indexes.
    pub(crate) core: QuorumCore,
    pub(crate) crashes: Vec<ProcId>,
    pub(crate) observations: Vec<ProcessObservation>,
    /// How many times this bundle of buffers has been taken from the pool.
    pub(crate) reuses: u64,
}

impl std::fmt::Debug for SimArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimArena")
            .field("slab_capacity", &self.core.slab_capacity())
            .field("processes", &self.core.processes().len())
            .field("reuses", &self.reuses)
            .finish()
    }
}

impl SimArena {
    /// An arena with no buffers yet (they grow on first use).
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Number of processor shells currently held (diagnostic; the arena
    /// resizes itself to whatever the next simulator needs).
    pub fn capacity(&self) -> usize {
        self.core.processes().len()
    }

    /// How many times this arena's buffers have been recycled through the
    /// pool (0 for a cold arena). Diagnostic: the pooling tests assert this
    /// becomes positive on warm paths, including on worker threads that never
    /// pooled an arena themselves.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Bundle an engine's buffers for the pool, emptied but with their
    /// capacity kept: an arena parked in the pool holds no protocol boxes,
    /// replica contents or undelivered message payloads.
    pub(crate) fn emptied(
        mut core: QuorumCore,
        mut crashes: Vec<ProcId>,
        mut observations: Vec<ProcessObservation>,
        reuses: u64,
    ) -> SimArena {
        core.clear();
        crashes.clear();
        observations.clear();
        SimArena {
            core,
            crashes,
            observations,
            reuses,
        }
    }

    /// Take a pooled arena: the calling thread's slot first, then the
    /// process-wide free list, then (cold miss) a fresh empty arena.
    pub(crate) fn take_pooled() -> SimArena {
        if let Some(mut arena) = POOL.with(|pool| pool.borrow_mut().take()) {
            STATS.thread_hits.fetch_add(1, Ordering::Relaxed);
            arena.reuses += 1;
            return arena;
        }
        if let Some(mut arena) = GLOBAL.lock().ok().and_then(|mut list| list.pop()) {
            STATS.global_hits.fetch_add(1, Ordering::Relaxed);
            arena.reuses += 1;
            return arena;
        }
        STATS.misses.fetch_add(1, Ordering::Relaxed);
        SimArena::default()
    }

    /// Hand an arena back: fill the calling thread's slot if empty, else the
    /// global free list (dropped outright once the list holds
    /// [`GLOBAL_POOL_CAP`] arenas, so a burst of short-lived threads cannot
    /// pin unbounded memory).
    pub(crate) fn pool(arena: SimArena) {
        let arena = match POOL.with(|pool| {
            let mut slot = pool.borrow_mut();
            if slot.is_none() {
                *slot = Some(arena);
                None
            } else {
                Some(arena)
            }
        }) {
            None => return,
            Some(arena) => arena,
        };
        if let Ok(mut list) = GLOBAL.lock() {
            if list.len() < GLOBAL_POOL_CAP {
                list.push(arena);
            }
        }
    }
}

/// Upper bound on the process-wide free list (beyond the one thread-local
/// slot each thread keeps).
const GLOBAL_POOL_CAP: usize = 64;

thread_local! {
    /// One pooled arena per thread: the synchronisation-free fast path for
    /// trial loops that run back-to-back simulations on one thread.
    static POOL: RefCell<Option<SimArena>> = const { RefCell::new(None) };
}

/// Process-wide overflow pool, shared across threads.
static GLOBAL: Mutex<Vec<SimArena>> = Mutex::new(Vec::new());

struct PoolCounters {
    thread_hits: AtomicU64,
    global_hits: AtomicU64,
    misses: AtomicU64,
}

static STATS: PoolCounters = PoolCounters {
    thread_hits: AtomicU64::new(0),
    global_hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
};

/// Cumulative arena-pool counters for the whole process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaPoolStats {
    /// Takes served from the calling thread's slot.
    pub thread_hits: u64,
    /// Takes served from the process-wide free list.
    pub global_hits: u64,
    /// Takes that had to allocate a cold arena.
    pub misses: u64,
}

/// Snapshot of the process-wide arena-pool counters (monotone; useful for
/// asserting that a code path recycled buffers instead of allocating).
pub fn pool_stats() -> ArenaPoolStats {
    ArenaPoolStats {
        thread_hits: STATS.thread_hits.load(Ordering::Relaxed),
        global_hits: STATS.global_hits.load(Ordering::Relaxed),
        misses: STATS.misses.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RandomAdversary, SimConfig, Simulator};
    use fle_model::{Action, LocalStateView, Outcome, Protocol, Response};

    struct TwoStep {
        stepped: bool,
    }
    impl Protocol for TwoStep {
        fn step(&mut self, _response: Response) -> Action {
            if self.stepped {
                Action::Return(Outcome::Win)
            } else {
                self.stepped = true;
                Action::Propagate {
                    entries: vec![(
                        fle_model::Key::global(fle_model::InstanceId::Contended),
                        fle_model::Value::Flag(true),
                    )],
                }
            }
        }
        fn adversary_view(&self) -> LocalStateView {
            LocalStateView::new("two-step", "x")
        }
    }

    #[test]
    fn explicit_arena_round_trip_reuses_buffers() {
        let mut arena = SimArena::new();
        let mut last_events = None;
        for trial in 0..3 {
            let mut sim = Simulator::from_arena(SimConfig::new(5).with_seed(7), arena);
            for i in 0..5 {
                sim.add_participant(ProcId(i), Box::new(TwoStep { stepped: false }));
            }
            let report = sim.run(&mut RandomAdversary::with_seed(3)).unwrap();
            // Identical configuration ⇒ identical execution, warm or cold.
            if let Some(previous) = last_events {
                assert_eq!(report.events_executed, previous, "trial {trial}");
            }
            last_events = Some(report.events_executed);
            arena = sim.into_arena();
            assert_eq!(arena.capacity(), 5);
        }
    }

    #[test]
    fn arena_resizes_between_different_system_sizes() {
        let mut arena = SimArena::new();
        for n in [3usize, 8, 2] {
            let mut sim = Simulator::from_arena(SimConfig::new(n), arena);
            for i in 0..n {
                sim.add_participant(ProcId(i), Box::new(TwoStep { stepped: false }));
            }
            let report = sim.run(&mut RandomAdversary::with_seed(1)).unwrap();
            assert_eq!(report.outcomes.len(), n);
            arena = sim.into_arena();
            assert_eq!(arena.capacity(), n);
        }
    }

    #[test]
    fn fresh_threads_recycle_arenas_through_the_global_pool() {
        // Holding several simulators alive at once forces their arenas past
        // the single thread-local slot and onto the global free list when
        // they drop (sequential create/drop would only cycle the slot).
        let restock = || {
            let sims: Vec<Simulator> = (0..8)
                .map(|_| {
                    let mut sim = Simulator::new(SimConfig::new(4).with_seed(11));
                    for i in 0..4 {
                        sim.add_participant(ProcId(i), Box::new(TwoStep { stepped: false }));
                    }
                    sim.run(&mut RandomAdversary::with_seed(2)).unwrap();
                    sim
                })
                .collect();
            drop(sims);
        };
        restock();
        let before = pool_stats();
        // A brand-new thread has an empty thread-local slot, so its take
        // must be served by the global pool — visible both as a positive
        // reuse counter on the arena and as a global-hit tick. Retry a few
        // times for robustness against concurrently-running tests draining
        // the list.
        let mut recycled = false;
        for _ in 0..4 {
            recycled = std::thread::spawn(|| {
                let sim = Simulator::new(SimConfig::new(4).with_seed(11));
                sim.arena_reuses() > 0
            })
            .join()
            .unwrap();
            if recycled {
                break;
            }
            restock();
        }
        assert!(recycled, "fresh thread should receive a recycled arena");
        let after = pool_stats();
        assert!(
            after.global_hits > before.global_hits,
            "global pool should have served at least one take"
        );
    }
}
