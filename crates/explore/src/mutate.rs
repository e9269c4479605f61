//! The mutation engine of the coverage-guided explorer: seeded, structural
//! edits over [`DecisionTrace`]s.
//!
//! Every operator leans on the *tolerance* of [`fle_sim::ReplayAdversary`]
//! (and its gate-runner twin): out-of-range `Schedule` indices clamp to the
//! newest enabled event, illegal crashes degrade to scheduling the oldest
//! one, and an exhausted trace completes deterministically. A mutated trace
//! is therefore **always** a valid schedule — the engine never has to know
//! how many events will be enabled at any point, which is what makes the
//! same operators work unchanged on both exploration backends.
//!
//! The engine is a pure function of its seed: the `k`-th mutation of the
//! same `(base, donor)` pair under the same seed is always the same trace,
//! so a coverage hunt replays bit-for-bit from `(scenario, config,
//! master_seed)` alone.

use fle_model::{splitmix64, ProcId};
use fle_sim::{Decision, DecisionTrace};

/// Seeded structural mutations over decision traces.
///
/// The five operators — truncate, extend, perturb, splice, duplicate — are
/// chosen uniformly; an empty base degrades to *extend*, so a hunt can
/// grow traces from nothing.
#[derive(Debug, Clone)]
pub struct MutationEngine {
    state: u64,
    /// System size: crash victims are drawn from `0..n` and fresh schedule
    /// indices from `0..4n` (anything larger only clamps harder).
    n: usize,
}

impl MutationEngine {
    /// An engine over systems of `n` processors, seeded with `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        MutationEngine {
            // Pre-mix so seeds 0, 1, 2… do not share low-bit prefixes.
            state: splitmix64(seed ^ 0x636f_7665_7261_6765),
            n: n.max(1),
        }
    }

    /// Next value of the engine's splitmix64 stream.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// A random value in `0..bound` (`bound` ≥ 1).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    /// Draw a value in `0..bound` from the engine's stream (`bound` is
    /// clamped to at least 1). The coverage driver uses this for corpus
    /// sampling so the whole hunt consumes **one** deterministic stream.
    pub fn choose(&mut self, bound: usize) -> usize {
        self.below(bound)
    }

    /// One fresh decision: mostly schedules over a `4n` index span (replay
    /// clamps), occasionally a crash of a random processor.
    fn fresh_decision(&mut self) -> Decision {
        if self.next().is_multiple_of(4) {
            Decision::Crash(ProcId(self.below(self.n)))
        } else {
            Decision::Schedule(self.below(4 * self.n))
        }
    }

    /// `base` with 1..=8 fresh decisions appended.
    fn extend(&mut self, base: &DecisionTrace) -> DecisionTrace {
        let extra = 1 + self.below(8);
        let mut decisions = base.decisions().to_vec();
        decisions.extend((0..extra).map(|_| self.fresh_decision()));
        DecisionTrace::from_decisions(decisions)
    }

    /// Mutate `base`, drawing splice material from `donor`. Deterministic in
    /// the engine state; the result is always replayable (see module docs).
    pub fn mutate(&mut self, base: &DecisionTrace, donor: &DecisionTrace) -> DecisionTrace {
        if base.is_empty() {
            // Truncate/perturb/duplicate are no-ops on an empty trace and a
            // splice of two empties is empty: force growth instead.
            return self.extend(base);
        }
        let len = base.len();
        match self.next() % 5 {
            // Truncate: keep a strict prefix.
            0 => base.truncated(self.below(len)),
            // Extend: append fresh decisions past the recorded end.
            1 => self.extend(base),
            // Perturb: rewrite one decision in place.
            2 => {
                let at = self.below(len);
                let mut decisions = base.decisions().to_vec();
                decisions[at] = self.fresh_decision();
                DecisionTrace::from_decisions(decisions)
            }
            // Splice: a prefix of `base` continued by a suffix of `donor`.
            3 => {
                let cut = self.below(len + 1);
                let from = self.below(donor.len() + 1);
                base.spliced(cut, donor, from)
            }
            // Duplicate: replay a window of `base` twice (prefix up to `j`,
            // then resume from `i` ≤ `j`, repeating `i..j`).
            _ => {
                let j = self.below(len + 1);
                let i = self.below(j + 1);
                base.spliced(j, base, i)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(indices: &[usize]) -> DecisionTrace {
        indices.iter().map(|&i| Decision::Schedule(i)).collect()
    }

    #[test]
    fn mutation_is_deterministic_in_the_seed() {
        let base = trace(&[0, 1, 2, 3, 4, 5]);
        let donor = trace(&[9, 8, 7]);
        let mut a = MutationEngine::new(42, 4);
        let mut b = MutationEngine::new(42, 4);
        for _ in 0..64 {
            assert_eq!(a.mutate(&base, &donor), b.mutate(&base, &donor));
        }
        let mut c = MutationEngine::new(43, 4);
        let differs = (0..64)
            .any(|_| MutationEngine::new(42, 4).mutate(&base, &donor) != c.mutate(&base, &donor));
        assert!(
            differs,
            "different seeds produce different mutation streams"
        );
    }

    #[test]
    fn empty_bases_always_grow() {
        let empty = DecisionTrace::new();
        let mut engine = MutationEngine::new(7, 3);
        for _ in 0..32 {
            let mutated = engine.mutate(&empty, &empty);
            assert!(!mutated.is_empty(), "empty bases must degrade to extend");
            assert!(mutated.len() <= 8);
        }
    }

    #[test]
    fn every_operator_shows_up_and_crash_victims_stay_in_range() {
        let base = trace(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let donor = trace(&[100, 200]);
        let mut engine = MutationEngine::new(0, 4);
        let (mut shorter, mut longer, mut same_len) = (false, false, false);
        for _ in 0..256 {
            let mutated = engine.mutate(&base, &donor);
            shorter |= mutated.len() < base.len();
            longer |= mutated.len() > base.len();
            same_len |= mutated.len() == base.len();
            for decision in mutated.decisions() {
                if let Decision::Crash(victim) = decision {
                    assert!(victim.index() < 4, "crash victims are drawn from 0..n");
                }
            }
        }
        assert!(
            shorter && longer && same_len,
            "truncation, growth and rewrites all occur"
        );
    }
}
