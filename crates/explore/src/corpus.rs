//! The trace corpus of the coverage-guided explorer: episodes that produced
//! **new coverage** are retained (deduplicated by interleaving-class hash)
//! and become the bases the mutation engine splices, extends and perturbs.
//!
//! Persistence reuses the existing compact text codec
//! ([`DecisionTrace::to_compact_string`] / [`DecisionTrace::parse`]): one
//! corpus entry per line, `<sim_seed> s0 c2 s1 …`. The codec round-trips
//! (property-tested in `fle-sim`), so a corpus written by one hunt reseeds
//! the next bit-for-bit. Coverage *features* are deliberately **not**
//! persisted — they describe executions, not traces, and are re-earned by
//! replaying the reloaded entries.

use crate::coverage::{trace_class, CoverageSignal};
use fle_sim::DecisionTrace;
use std::collections::BTreeSet;

/// One retained trace: enough to re-run the episode that earned it.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The decision trace.
    pub trace: DecisionTrace,
    /// The simulator seed the episode ran under.
    pub sim_seed: u64,
    /// The interleaving-class hash of `(trace, sim_seed)`.
    pub class: u64,
}

/// The set of interesting traces, with the global coverage map that decides
/// what "interesting" means.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    classes: BTreeSet<u64>,
    features: BTreeSet<u64>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Retained entries, in retention order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Size of the global coverage map: distinct feature codes observed
    /// across **all** considered episodes (retained or not).
    pub fn distinct_features(&self) -> usize {
        self.features.len()
    }

    /// Offer one episode's trace and coverage signal to the corpus.
    ///
    /// The episode's features are merged into the global map
    /// unconditionally; the trace is retained iff it produced at least one
    /// **novel** feature *and* its interleaving class is not already
    /// represented. Returns whether the trace was retained.
    pub fn consider(
        &mut self,
        trace: &DecisionTrace,
        sim_seed: u64,
        signal: &CoverageSignal,
    ) -> bool {
        let mut novel = false;
        for &feature in &signal.features {
            novel |= self.features.insert(feature);
        }
        if novel && self.classes.insert(signal.class) {
            self.entries.push(CorpusEntry {
                trace: trace.clone(),
                sim_seed,
                class: signal.class,
            });
            true
        } else {
            false
        }
    }

    /// Serialize the retained entries, one `<sim_seed> <compact trace>` line
    /// each (the trace part is empty for empty traces).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&entry.sim_seed.to_string());
            let compact = entry.trace.to_compact_string();
            if !compact.is_empty() {
                out.push(' ');
                out.push_str(&compact);
            }
            out.push('\n');
        }
        out
    }

    /// Parse a corpus written by [`Corpus::to_text`]. Blank lines are
    /// skipped; class hashes are recomputed; the feature map starts empty
    /// (see the module docs). Duplicate classes in the input are dropped.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut corpus = Corpus::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (seed_text, trace_text) = match line.split_once(' ') {
                Some((seed, rest)) => (seed, rest),
                None => (line, ""),
            };
            let sim_seed: u64 = seed_text.parse().map_err(|e| {
                format!(
                    "corpus line {}: bad sim seed {seed_text:?}: {e}",
                    number + 1
                )
            })?;
            let trace = DecisionTrace::parse(trace_text)
                .map_err(|e| format!("corpus line {}: {e}", number + 1))?;
            let class = trace_class(&trace, sim_seed);
            if corpus.classes.insert(class) {
                corpus.entries.push(CorpusEntry {
                    trace,
                    sim_seed,
                    class,
                });
            }
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_sim::Decision;

    fn signal(class: u64, features: &[u64]) -> CoverageSignal {
        CoverageSignal {
            class,
            features: features.to_vec(),
        }
    }

    fn trace(indices: &[usize]) -> DecisionTrace {
        indices.iter().map(|&i| Decision::Schedule(i)).collect()
    }

    #[test]
    fn novel_features_retain_and_duplicates_are_dropped() {
        let mut corpus = Corpus::new();
        let t = trace(&[0, 1]);
        assert!(corpus.consider(&t, 0, &signal(10, &[1, 2])));
        // Same class again: features merge but the trace is not re-retained.
        assert!(!corpus.consider(&t, 0, &signal(10, &[3])));
        // New class but no novel feature: not interesting.
        assert!(!corpus.consider(&trace(&[2]), 0, &signal(11, &[1, 3])));
        // New class with a novel feature: retained.
        assert!(corpus.consider(&trace(&[3]), 1, &signal(12, &[4])));
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.distinct_features(), 4);
    }

    #[test]
    fn text_round_trips_entries_and_seeds() {
        let mut corpus = Corpus::new();
        corpus.consider(
            &trace(&[0, 3, 1]),
            7,
            &signal(trace_class(&trace(&[0, 3, 1]), 7), &[1]),
        );
        corpus.consider(
            &DecisionTrace::new(),
            9,
            &signal(trace_class(&DecisionTrace::new(), 9), &[2]),
        );
        let crashy: DecisionTrace =
            vec![Decision::Schedule(5), Decision::Crash(fle_model::ProcId(2))]
                .into_iter()
                .collect();
        corpus.consider(&crashy, 0, &signal(trace_class(&crashy, 0), &[3]));

        let text = corpus.to_text();
        let reloaded = Corpus::from_text(&text).expect("corpus text parses");
        assert_eq!(reloaded.len(), corpus.len());
        for (a, b) in corpus.entries().iter().zip(reloaded.entries()) {
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.sim_seed, b.sim_seed);
            assert_eq!(a.class, b.class);
        }
        // Features are execution facts, not trace facts: not persisted.
        assert_eq!(reloaded.distinct_features(), 0);
    }

    #[test]
    fn malformed_corpus_lines_are_rejected_with_line_numbers() {
        assert!(Corpus::from_text("x s0").unwrap_err().contains("line 1"));
        assert!(Corpus::from_text("3 s0\n4 zz")
            .unwrap_err()
            .contains("line 2"));
        assert!(Corpus::from_text("").unwrap().is_empty());
        assert!(Corpus::from_text("\n  \n").unwrap().is_empty());
    }
}
