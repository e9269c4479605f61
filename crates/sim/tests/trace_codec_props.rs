//! Property tests for the [`DecisionTrace`] compact text codec: the corpus
//! of the coverage-guided explorer persists traces through this codec, so
//! `parse ∘ format = id` must hold for *arbitrary* traces — empty ones,
//! max-index decisions, long mixed schedules — not just the handful of
//! hand-written examples in the unit tests.

use fle_model::ProcId;
use fle_sim::{Decision, DecisionTrace};
use proptest::prelude::*;

/// Derive a pseudo-random decision list from a seed (splitmix64), mixing
/// schedule and crash decisions over a wide index range.
fn decisions_from(seed: u64, len: usize, span: u64) -> Vec<Decision> {
    let mut state = seed;
    let mut step = move || {
        let z = fle_model::splitmix64(state);
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    };
    (0..len)
        .map(|_| {
            let value = (step() % span.max(1)) as usize;
            if step() % 4 == 0 {
                Decision::Crash(ProcId(value))
            } else {
                Decision::Schedule(value)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        .. ProptestConfig::default()
    })]

    /// `parse ∘ format = id` for arbitrary traces, including the empty one
    /// (len 0 is a generated case) and indices spanning the full range the
    /// generator covers.
    #[test]
    fn compact_codec_round_trips(
        seed in 0u64..100_000,
        len in 0usize..200,
        span in 1u64..1_000_000,
    ) {
        let trace = DecisionTrace::from_decisions(decisions_from(seed, len, span));
        let text = trace.to_compact_string();
        let reparsed = DecisionTrace::parse(&text)
            .expect("formatted traces always parse");
        prop_assert_eq!(&reparsed, &trace);
        // Formatting is canonical: a second round trip emits identical text.
        prop_assert_eq!(reparsed.to_compact_string(), text);
        // Token count matches decision count (no token is lost or merged).
        prop_assert_eq!(
            text.split_whitespace().count(),
            trace.len(),
            "one token per decision"
        );
    }

    /// Truncation and splicing (the mutation-engine edit hooks) preserve the
    /// codec: any edited trace still round-trips.
    #[test]
    fn edited_traces_still_round_trip(
        seed in 0u64..50_000,
        len in 0usize..80,
        cut in 0usize..100,
    ) {
        let a = DecisionTrace::from_decisions(decisions_from(seed, len, 64));
        let b = DecisionTrace::from_decisions(decisions_from(seed ^ 0xabcd, len, 64));
        for edited in [a.truncated(cut), a.spliced(cut, &b, cut / 2)] {
            let text = edited.to_compact_string();
            prop_assert_eq!(DecisionTrace::parse(&text).unwrap(), edited);
        }
    }
}

/// Max-index decisions survive the codec: `usize::MAX` formats and reparses
/// exactly (the property generator cannot reach it, so pin it explicitly).
#[test]
fn max_index_decisions_round_trip() {
    let trace = DecisionTrace::from_decisions(vec![
        Decision::Schedule(usize::MAX),
        Decision::Crash(ProcId(usize::MAX)),
        Decision::Schedule(0),
    ]);
    let text = trace.to_compact_string();
    assert_eq!(text, format!("s{} c{} s0", usize::MAX, usize::MAX));
    assert_eq!(DecisionTrace::parse(&text).unwrap(), trace);
}
