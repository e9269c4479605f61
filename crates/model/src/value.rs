//! Register values and their merge (join) semantics.
//!
//! The `communicate(propagate, v)` primitive of the paper makes every
//! recipient *update its view* of the propagated register. Because messages
//! may be reordered and duplicated across retransmissions, views are modelled
//! as join-semilattices: every value type has a [`Value::merge`] operation
//! that is commutative, associative and idempotent, so a replica's view does
//! not depend on delivery order. For the single-writer registers used by the
//! algorithms the natural "newer value wins" order coincides with the join.
//!
//! # Cost model
//!
//! Values are cloned on every propagate delivery and whenever a write after
//! a snapshot re-copies a view block, so cloning must not scale with the
//! value's logical size:
//!
//! * [`ProcSet`] keeps up to [`ProcSet::INLINE_CAPACITY`] processors inline
//!   (no heap allocation at all) and spills larger sets into an `Arc<[u32]>`,
//!   making `clone` a refcount bump instead of an O(set) copy. The
//!   participant lists `ℓ` carried by heterogeneous PoisonPill statuses — the
//!   largest values in the system, up to `k` entries — are stored this way.
//! * A [`Value`] is 24 bytes and an `Option<Value>` (one view cell's value)
//!   too; the assertions below pin both, because every replica holds one
//!   per slot it has heard of.
//! * [`Value::merge`] reports whether the merge actually changed the value,
//!   and [`crate::View::insert`] hands that on to its caller. A view keeps
//!   no per-cell write stamps: every collect reply is a whole snapshot.

use crate::ids::{InstanceId, ProcId, Slot};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The priority a processor adopts after its coin flip in a PoisonPill phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// The processor flipped 0 and has low priority.
    Low,
    /// The processor flipped 1 and has high priority.
    High,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::Low => write!(f, "low"),
            Priority::High => write!(f, "high"),
        }
    }
}

/// Number of processors a [`ProcSet`] stores without touching the heap.
/// Deliberately small: it bounds `size_of::<Value>()` — and with it the cost
/// of every view-cell copy — while still keeping the empty and singleton
/// sets (the overwhelmingly common cases) allocation-free. One member keeps
/// the inline variant no larger than the shared pointer, so a `Value` is 24
/// bytes.
const PROC_SET_INLINE: usize = 1;

/// A sorted, deduplicated set of processors with small-set inline storage.
///
/// Members are stored as `u32` (a processor id past `u32::MAX` panics at
/// construction; it never wraps). Sets of up to [`ProcSet::INLINE_CAPACITY`]
/// processors live entirely inside the value (cloning is a memcpy); larger
/// sets are stored behind an `Arc<[u32]>`, so cloning is a refcount bump
/// either way. The contents are always sorted ascending and free of
/// duplicates, and the comparison order is the lexicographic order of the
/// member sequences (identical to the `Vec<ProcId>` order the merge
/// tie-break historically used, whichever representation either side has).
#[derive(Clone, Serialize, Deserialize)]
pub struct ProcSet(Repr);

#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    /// `items[..len]` holds the sorted members.
    Inline {
        /// Number of live entries in `items`.
        len: u8,
        /// Inline storage; entries at `len..` are padding.
        items: [u32; PROC_SET_INLINE],
    },
    /// Sorted members shared behind a refcount (always `> INLINE_CAPACITY`
    /// when built through the public constructors).
    Shared(Arc<[u32]>),
}

/// The stored form of a member.
///
/// # Panics
/// Panics if the id does not fit in `u32`.
fn member(p: ProcId) -> u32 {
    u32::try_from(p.index())
        .unwrap_or_else(|_| panic!("{p} does not fit a ProcSet, whose members are u32"))
}

impl ProcSet {
    /// Number of processors stored without any heap allocation.
    pub const INLINE_CAPACITY: usize = PROC_SET_INLINE;

    /// The empty set.
    pub const fn new() -> Self {
        ProcSet(Repr::Inline {
            len: 0,
            items: [0; PROC_SET_INLINE],
        })
    }

    /// Build a set from arbitrary members (sorted and deduplicated here).
    ///
    /// # Panics
    /// Panics if a member's id exceeds `u32::MAX`.
    pub fn from_vec(members: Vec<ProcId>) -> Self {
        let mut members: Vec<u32> = members.into_iter().map(member).collect();
        members.sort_unstable();
        members.dedup();
        Self::from_sorted_vec(members)
    }

    /// `members` must already be sorted ascending with no duplicates.
    fn from_sorted_vec(members: Vec<u32>) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        if members.len() <= PROC_SET_INLINE {
            let mut items = [0; PROC_SET_INLINE];
            items[..members.len()].copy_from_slice(&members);
            ProcSet(Repr::Inline {
                len: members.len() as u8,
                items,
            })
        } else {
            ProcSet(Repr::Shared(members.into()))
        }
    }

    /// The stored members, sorted ascending.
    fn members(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Shared(items) => items,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `p` is a member (binary search).
    pub fn contains(&self, p: ProcId) -> bool {
        u32::try_from(p.index()).is_ok_and(|p| self.members().binary_search(&p).is_ok())
    }

    /// Iterate over the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.members().iter().map(|&p| ProcId(p as usize))
    }

    /// Whether the set has spilled out of the inline storage.
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Shared(_))
    }

    /// The address of a spilled set's shared allocation (`None` for an
    /// inline set). Clones share the allocation, so while two sets are both
    /// alive, equal addresses mean the very same list.
    pub fn shared_addr(&self) -> Option<usize> {
        match &self.0 {
            Repr::Inline { .. } => None,
            Repr::Shared(items) => Some(Arc::as_ptr(items).cast::<u32>() as usize),
        }
    }

    /// Union `other` into `self`; returns whether `self` changed.
    ///
    /// Unchanged unions (in particular the idempotent `a ∪ a`) are detected
    /// without allocating; a changed union builds the merged set once.
    pub fn union_with(&mut self, other: &ProcSet) -> bool {
        let a = self.members();
        let b = other.members();
        if b.iter().all(|p| a.binary_search(p).is_ok()) {
            return false;
        }
        if a.is_empty() {
            *self = other.clone();
            return true;
        }
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        *self = Self::from_sorted_vec(merged);
        true
    }
}

impl Default for ProcSet {
    fn default() -> Self {
        ProcSet::new()
    }
}

impl fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl PartialEq for ProcSet {
    fn eq(&self, other: &Self) -> bool {
        self.members() == other.members()
    }
}

impl Eq for ProcSet {}

impl PartialOrd for ProcSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ProcSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.members().cmp(other.members())
    }
}

impl std::hash::Hash for ProcSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.members().hash(state);
    }
}

impl From<Vec<ProcId>> for ProcSet {
    fn from(members: Vec<ProcId>) -> Self {
        ProcSet::from_vec(members)
    }
}

impl FromIterator<ProcId> for ProcSet {
    fn from_iter<T: IntoIterator<Item = ProcId>>(iter: T) -> Self {
        ProcSet::from_vec(iter.into_iter().collect())
    }
}

/// The status of a processor within one (heterogeneous) PoisonPill phase.
///
/// This is the value stored in the `Status[n]` array of Figures 1 and 2 of the
/// paper: a processor first *commits* (takes the poison pill), then flips a
/// coin and adopts a [`Priority`], optionally carrying the participant list
/// `ℓ` it observed (heterogeneous variant).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Status {
    /// `Commit`: committed to flipping a coin, outcome not yet visible.
    Commit,
    /// A resolved priority together with the observed participant list `ℓ`
    /// (empty for the non-heterogeneous PoisonPill of Figure 1).
    Resolved {
        /// The priority adopted after the coin flip.
        priority: Priority,
        /// The participant list `ℓ` recorded before the flip (Figure 2,
        /// line 17). Sorted and deduplicated; cloning is O(1) for spilled
        /// lists, so propagating a status to `n − 1` recipients never copies
        /// `ℓ` more than once.
        list: ProcSet,
    },
}

impl Status {
    /// A resolved status without a participant list (plain PoisonPill).
    pub fn resolved(priority: Priority) -> Self {
        Status::Resolved {
            priority,
            list: ProcSet::new(),
        }
    }

    /// A resolved status carrying the observed participant list `ℓ`.
    pub fn resolved_with_list(priority: Priority, list: Vec<ProcId>) -> Self {
        Status::Resolved {
            priority,
            list: ProcSet::from_vec(list),
        }
    }

    /// The priority, if the status is resolved.
    pub fn priority(&self) -> Option<Priority> {
        match self {
            Status::Commit => None,
            Status::Resolved { priority, .. } => Some(*priority),
        }
    }

    /// The participant list `ℓ` (empty unless the status is resolved).
    pub fn list(&self) -> &ProcSet {
        static EMPTY: ProcSet = ProcSet::new();
        match self {
            Status::Commit => &EMPTY,
            Status::Resolved { list, .. } => list,
        }
    }

    /// Progress rank used by the merge order: `Commit < Resolved`.
    fn rank(&self) -> u8 {
        match self {
            Status::Commit => 0,
            Status::Resolved { .. } => 1,
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Commit => write!(f, "commit"),
            Status::Resolved { priority, list } => {
                write!(f, "{priority}(|l|={})", list.len())
            }
        }
    }
}

// Every replica holds one `Option<Value>` per slot it has heard of.
const _: () = assert!(std::mem::size_of::<Value>() <= 24);
const _: () = assert!(std::mem::size_of::<Option<Value>>() <= 24);

/// A value stored in a replicated register.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Value {
    /// A PoisonPill status (single writer: the owning processor).
    Status(Status),
    /// A round number (single writer, monotonically increasing).
    Round(u32),
    /// A sticky boolean flag (multi-writer: doorway bit, contended-name bit).
    Flag(bool),
    /// A small integer register (used by the tournament baseline; merge keeps
    /// the maximum, which is what the monotone protocols there need).
    Int(i64),
    /// A set of processors (merge takes the union).
    ProcSet(ProcSet),
}

impl Value {
    /// A processor-set value from arbitrary members.
    pub fn proc_set(members: impl Into<ProcSet>) -> Self {
        Value::ProcSet(members.into())
    }

    /// Merge `other` into `self`; returns whether `self` changed.
    ///
    /// The merge is a join: commutative, associative, idempotent. Mixed-type
    /// merges keep `self` unchanged (they cannot arise in the protocols, but
    /// the replica store must not panic on malformed input). The returned
    /// flag is exact: `true` iff the merged value differs from the previous
    /// one.
    pub fn merge(&mut self, other: &Value) -> bool {
        match (self, other) {
            // Commit < Resolved; between two Resolved values (which only a
            // faulty writer could produce with different contents) prefer
            // the larger one in the derived order for determinism.
            (Value::Status(a), Value::Status(b))
                if b.rank() > a.rank() || (b.rank() == a.rank() && *b > *a) =>
            {
                *a = b.clone();
                true
            }
            (Value::Round(a), Value::Round(b)) if *b > *a => {
                *a = *b;
                true
            }
            (Value::Flag(a), Value::Flag(b)) if *b && !*a => {
                *a = true;
                true
            }
            (Value::Int(a), Value::Int(b)) if *b > *a => {
                *a = *b;
                true
            }
            (Value::ProcSet(a), Value::ProcSet(b)) => a.union_with(b),
            _ => false,
        }
    }

    /// Convenience accessor: the status if this is a status value.
    pub fn as_status(&self) -> Option<&Status> {
        match self {
            Value::Status(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience accessor: the round number if this is a round value.
    pub fn as_round(&self) -> Option<u32> {
        match self {
            Value::Round(r) => Some(*r),
            _ => None,
        }
    }

    /// Convenience accessor: the boolean if this is a flag.
    pub fn as_flag(&self) -> Option<bool> {
        match self {
            Value::Flag(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience accessor: the integer if this is an int register.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Status(s) => write!(f, "{s}"),
            Value::Round(r) => write!(f, "round={r}"),
            Value::Flag(b) => write!(f, "flag={b}"),
            Value::Int(v) => write!(f, "int={v}"),
            Value::ProcSet(ps) => write!(f, "set(|{}|)", ps.len()),
        }
    }
}

/// A fully-qualified register name: instance plus slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Key {
    /// The register array this key belongs to.
    pub instance: InstanceId,
    /// The slot within the array.
    pub slot: Slot,
}

impl Key {
    /// Create a key from an instance and slot.
    pub fn new(instance: InstanceId, slot: Slot) -> Self {
        Key { instance, slot }
    }

    /// Key of the slot owned by processor `p` in `instance`.
    pub fn proc(instance: InstanceId, p: ProcId) -> Self {
        Key::new(instance, Slot::Proc(p))
    }

    /// Key of the slot for name `name` in `instance`.
    pub fn name(instance: InstanceId, name: usize) -> Self {
        Key::new(instance, Slot::Name(name))
    }

    /// Key of the single global slot of `instance`.
    pub fn global(instance: InstanceId) -> Self {
        Key::new(instance, Slot::Global)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.instance, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_merge_is_monotone() {
        let mut v = Value::Status(Status::Commit);
        assert!(v.merge(&Value::Status(Status::resolved(Priority::Low))));
        assert_eq!(
            v.as_status().unwrap().priority(),
            Some(Priority::Low),
            "commit is superseded by a resolved status"
        );
        // Merging an older Commit back in must not regress the view.
        assert!(!v.merge(&Value::Status(Status::Commit)));
        assert_eq!(v.as_status().unwrap().priority(), Some(Priority::Low));
    }

    #[test]
    fn flag_merge_is_sticky_or() {
        let mut v = Value::Flag(false);
        assert!(!v.merge(&Value::Flag(false)));
        assert_eq!(v.as_flag(), Some(false));
        assert!(v.merge(&Value::Flag(true)));
        assert_eq!(v.as_flag(), Some(true));
        assert!(!v.merge(&Value::Flag(false)));
        assert_eq!(v.as_flag(), Some(true), "true is sticky");
    }

    #[test]
    fn round_merge_takes_max() {
        let mut v = Value::Round(3);
        assert!(!v.merge(&Value::Round(1)));
        assert_eq!(v.as_round(), Some(3));
        assert!(v.merge(&Value::Round(9)));
        assert_eq!(v.as_round(), Some(9));
    }

    #[test]
    fn proc_set_merge_is_union() {
        let mut v = Value::proc_set(vec![ProcId(1), ProcId(3)]);
        assert!(v.merge(&Value::proc_set(vec![ProcId(2), ProcId(3)])));
        assert_eq!(
            v,
            Value::proc_set(vec![ProcId(1), ProcId(2), ProcId(3)]),
            "union, sorted, deduplicated"
        );
    }

    #[test]
    fn mismatched_merge_keeps_self() {
        let mut v = Value::Round(4);
        assert!(!v.merge(&Value::Flag(true)));
        assert_eq!(v.as_round(), Some(4));
    }

    #[test]
    fn resolved_list_is_sorted_and_deduped() {
        let s = Status::resolved_with_list(Priority::High, vec![ProcId(5), ProcId(1), ProcId(5)]);
        assert!(s.list().iter().eq([ProcId(1), ProcId(5)]));
    }

    #[test]
    fn merge_is_commutative_on_statuses() {
        let a = Value::Status(Status::resolved_with_list(Priority::High, vec![ProcId(0)]));
        let b = Value::Status(Status::Commit);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn proc_set_stays_inline_up_to_capacity_and_spills_past_it() {
        let inline: ProcSet = (0..ProcSet::INLINE_CAPACITY).map(ProcId).collect();
        assert!(!inline.is_spilled());
        assert_eq!(inline.len(), ProcSet::INLINE_CAPACITY);

        let spilled: ProcSet = (0..=ProcSet::INLINE_CAPACITY).map(ProcId).collect();
        assert!(spilled.is_spilled());
        assert_eq!(spilled.len(), ProcSet::INLINE_CAPACITY + 1);
        assert!(spilled
            .iter()
            .eq((0..=ProcSet::INLINE_CAPACITY).map(ProcId)));
    }

    #[test]
    fn proc_set_union_across_the_spill_boundary() {
        // A union landing exactly on the inline boundary stays inline.
        let cap = ProcSet::INLINE_CAPACITY;
        let mut a: ProcSet = (0..cap - 1).map(ProcId).collect();
        let b: ProcSet = [ProcId(100)].into_iter().collect();
        assert!(a.union_with(&b));
        assert_eq!(a.len(), cap);
        assert!(!a.is_spilled());

        // One more distinct member pushes it over the boundary.
        let c: ProcSet = [ProcId(200)].into_iter().collect();
        assert!(a.union_with(&c));
        assert_eq!(a.len(), cap + 1);
        assert!(a.is_spilled());
        assert!(a.contains(ProcId(200)) && a.contains(ProcId(100)));

        // Spilled ∪ subset is detected as unchanged without rebuilding.
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), cap + 1);
    }

    #[test]
    fn proc_set_shared_addr_identifies_the_allocation() {
        let inline: ProcSet = (0..ProcSet::INLINE_CAPACITY).map(ProcId).collect();
        assert_eq!(inline.shared_addr(), None);
        let spilled: ProcSet = (0..5).map(ProcId).collect();
        let clone = spilled.clone();
        assert!(spilled.shared_addr().is_some());
        assert_eq!(spilled.shared_addr(), clone.shared_addr());
        let rebuilt: ProcSet = (0..5).map(ProcId).collect();
        assert_eq!(rebuilt, spilled);
        assert_ne!(rebuilt.shared_addr(), spilled.shared_addr());
    }

    #[test]
    fn proc_set_union_is_idempotent_and_empty_neutral() {
        let mut a: ProcSet = (0..7).map(ProcId).collect();
        let copy = a.clone();
        assert!(!a.union_with(&copy), "a ∪ a must report no change");
        assert_eq!(a, copy);

        assert!(!a.union_with(&ProcSet::new()), "a ∪ ∅ = a");
        let mut empty = ProcSet::new();
        assert!(empty.union_with(&a), "∅ ∪ a = a");
        assert_eq!(empty, a);
        let mut still_empty = ProcSet::new();
        assert!(!still_empty.union_with(&ProcSet::new()));
        assert!(still_empty.is_empty());
    }

    #[test]
    fn proc_set_order_matches_slice_order() {
        let small: ProcSet = [ProcId(1)].into_iter().collect();
        let large: ProcSet = (0..9).map(ProcId).collect();
        assert!(!small.is_spilled() && large.is_spilled());
        assert_eq!(
            small.cmp(&large),
            small.iter().cmp(large.iter()),
            "comparison must be the lexicographic order regardless of representation"
        );
        assert!(small > large, "lexicographic: [1] > [0,1,...]");
    }

    #[test]
    fn mixed_type_merges_never_change_and_never_panic() {
        let values = [
            Value::Status(Status::Commit),
            Value::Round(3),
            Value::Flag(true),
            Value::Int(-2),
            Value::proc_set(vec![ProcId(1)]),
        ];
        for a in &values {
            for b in &values {
                let same_kind = std::mem::discriminant(a) == std::mem::discriminant(b);
                if !same_kind {
                    let mut merged = a.clone();
                    assert!(!merged.merge(b), "mixed merge {a} ∪ {b} must be a no-op");
                    assert_eq!(&merged, a);
                }
            }
        }
    }
}
