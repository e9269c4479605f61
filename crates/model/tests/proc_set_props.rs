//! Property tests for [`fle_model::ProcSet`] against a `BTreeSet` reference
//! model: representation invariants (inline→spill promotion, sorted-dedup
//! storage), the semilattice laws of `union_with` (commutativity,
//! idempotence, exact change reporting), the lexicographic order across the
//! inline and shared representations, and the `u32` edge of the stored ids.

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

/// The largest id a set can hold.
const TOP: usize = u32::MAX as usize;

/// `members` moved to the top of the id range: `i` becomes `TOP - i`.
fn near_top(members: &[ProcId]) -> Vec<ProcId> {
    members.iter().map(|p| ProcId(TOP - p.index())).collect()
}

#[test]
fn ids_up_to_u32_max_are_stored_exactly() {
    let set = ProcSet::from_vec(vec![ProcId(TOP), ProcId(0), ProcId(TOP - 1), ProcId(TOP)]);
    assert!(set.iter().eq([ProcId(0), ProcId(TOP - 1), ProcId(TOP)]));
    assert!(set.contains(ProcId(TOP)) && !set.contains(ProcId(TOP - 2)));
    let single = ProcSet::from_vec(vec![ProcId(TOP)]);
    assert!(!single.is_spilled() && single.contains(ProcId(TOP)));
    assert!(single > set, "[TOP] > [0, TOP - 1, TOP]");
}

#[cfg(target_pointer_width = "64")]
#[test]
fn ids_past_u32_max_are_never_members() {
    assert!(!ProcSet::from_vec(vec![ProcId(0)]).contains(ProcId(TOP + 1)));
}

#[cfg(target_pointer_width = "64")]
#[test]
#[should_panic(expected = "does not fit a ProcSet")]
fn an_id_past_u32_max_panics_instead_of_wrapping() {
    // Wrapped, `TOP + 1` would be stored as processor 0.
    let _ = ProcSet::from_vec(vec![ProcId(1), ProcId(TOP + 1)]);
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
        let stored: Vec<ProcId> = set.iter().collect();
        prop_assert_eq!(stored.as_slice(), expected.as_slice());
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.is_empty(), model.is_empty());
        prop_assert_eq!(
            set.is_spilled(),
            model.len() > ProcSet::INLINE_CAPACITY,
            "inline→spill promotion must happen exactly past the capacity"
        );
        // The sorted-dedup invariant, restated directly on the storage.
        prop_assert!(stored.windows(2).all(|w| w[0] < w[1]));
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
        let union: Vec<ProcId> = ab.iter().collect();
        prop_assert_eq!(union.as_slice(), model_union.as_slice());
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

    /// Sets compare in the lexicographic order of their ascending members,
    /// whichever of the inline and shared representations either side
    /// has, and equality is equality of members. Sizes straddle the inline
    /// capacity, and half the cases sit at the top of the id range.
    #[test]
    fn order_is_lexicographic_across_representations(
        seed_a in 0u64..10_000,
        seed_b in 10_000u64..20_000,
        len_a in 0usize..4,
        len_b in 0usize..4,
        span in 1u64..6,
        top in 0u8..2,
    ) {
        let place = |members: Vec<ProcId>| if top == 1 { near_top(&members) } else { members };
        let members_a = place(members_from(seed_a, len_a, span));
        let members_b = place(members_from(seed_b, len_b, span));
        let a = ProcSet::from_vec(members_a.clone());
        let b = ProcSet::from_vec(members_b.clone());
        let model_a: Vec<ProcId> = reference(&members_a).into_iter().collect();
        let model_b: Vec<ProcId> = reference(&members_b).into_iter().collect();
        prop_assert_eq!(a.is_spilled(), model_a.len() > ProcSet::INLINE_CAPACITY);
        prop_assert_eq!(a.cmp(&b), model_a.cmp(&model_b));
        prop_assert_eq!(a == b, model_a == model_b);
        prop_assert!(a.iter().eq(model_a.iter().copied()));
    }

    /// Construction and union at the top of the id range match the
    /// reference model: ids near `u32::MAX` neither wrap nor reorder.
    #[test]
    fn ids_near_u32_max_match_the_reference_model(
        seed_a in 0u64..10_000,
        seed_b in 10_000u64..20_000,
        len_a in 0usize..12,
        len_b in 0usize..12,
        span in 1u64..24,
    ) {
        let members_a = near_top(&members_from(seed_a, len_a, span));
        let members_b = near_top(&members_from(seed_b, len_b, span));
        let mut ab = ProcSet::from_vec(members_a.clone());
        let b = ProcSet::from_vec(members_b.clone());
        let model_a = reference(&members_a);
        let model_b = reference(&members_b);
        prop_assert!(ab.iter().eq(model_a.iter().copied()));
        let changed = ab.union_with(&b);
        prop_assert_eq!(changed, !model_b.is_subset(&model_a));
        prop_assert!(ab.iter().eq(model_a.union(&model_b).copied()));
        for probe in 0..span as usize + 2 {
            let p = ProcId(TOP - probe);
            prop_assert_eq!(ab.contains(p), model_a.contains(&p) || model_b.contains(&p));
        }
    }
}
