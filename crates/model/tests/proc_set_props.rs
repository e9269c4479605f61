//! Property tests for [`fle_model::ProcSet`] against a `BTreeSet` reference
//! model: representation invariants (inline→spill promotion, sorted-dedup
//! storage) and the semilattice laws of `union_with` (commutativity,
//! idempotence, exact change reporting).

use fle_model::{ProcId, ProcSet};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Derive a pseudo-random member list from a seed (splitmix64): arbitrary
/// sizes, duplicates included on purpose.
fn members_from(seed: u64, len: usize, span: u64) -> Vec<ProcId> {
    (0..len as u64)
        .map(|i| {
            let z =
                fle_model::splitmix64(seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i)));
            ProcId((z % span.max(1)) as usize)
        })
        .collect()
}

fn reference(members: &[ProcId]) -> BTreeSet<ProcId> {
    members.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Construction matches the reference model exactly: sorted, deduplicated,
    /// and inline iff the distinct-member count fits the inline capacity.
    #[test]
    fn construction_is_sorted_deduped_and_spills_exactly_past_capacity(
        seed in 0u64..10_000,
        len in 0usize..24,
        span in 1u64..40,
    ) {
        let members = members_from(seed, len, span);
        let set = ProcSet::from_vec(members.clone());
        let model = reference(&members);

        let expected: Vec<ProcId> = model.iter().copied().collect();
        prop_assert_eq!(set.as_slice(), expected.as_slice());
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.is_empty(), model.is_empty());
        prop_assert_eq!(
            set.is_spilled(),
            model.len() > ProcSet::INLINE_CAPACITY,
            "inline→spill promotion must happen exactly past the capacity"
        );
        // The sorted-dedup invariant, restated directly on the storage.
        prop_assert!(set.as_slice().windows(2).all(|w| w[0] < w[1]));
        // Membership agrees with the model over the whole span.
        for probe in 0..span as usize + 2 {
            prop_assert_eq!(set.contains(ProcId(probe)), model.contains(&ProcId(probe)));
        }
    }

    /// `union_with` is the reference-model set union; the change flag is
    /// exact; the union is commutative and idempotent.
    #[test]
    fn union_matches_the_reference_model(
        seed_a in 0u64..10_000,
        seed_b in 10_000u64..20_000,
        len_a in 0usize..16,
        len_b in 0usize..16,
        span in 1u64..24,
    ) {
        let members_a = members_from(seed_a, len_a, span);
        let members_b = members_from(seed_b, len_b, span);
        let a = ProcSet::from_vec(members_a.clone());
        let b = ProcSet::from_vec(members_b.clone());
        let model_a = reference(&members_a);
        let model_b = reference(&members_b);

        // a ∪ b equals the model union, and the change flag is exact.
        let mut ab = a.clone();
        let changed = ab.union_with(&b);
        let model_union: Vec<ProcId> =
            model_a.union(&model_b).copied().collect();
        prop_assert_eq!(ab.as_slice(), model_union.as_slice());
        prop_assert_eq!(
            changed,
            !model_b.is_subset(&model_a),
            "union_with must report a change iff b brought a new member"
        );
        prop_assert_eq!(ab.is_spilled(), model_union.len() > ProcSet::INLINE_CAPACITY);

        // Commutativity: b ∪ a gives the same set.
        let mut ba = b.clone();
        ba.union_with(&a);
        prop_assert_eq!(&ab, &ba);

        // Idempotence: folding either operand back in changes nothing.
        let mut twice = ab.clone();
        prop_assert!(!twice.union_with(&a));
        prop_assert!(!twice.union_with(&b));
        prop_assert!(!twice.union_with(&ab.clone()));
        prop_assert_eq!(&twice, &ab);
    }
}
