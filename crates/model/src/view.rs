//! Views returned by `communicate(collect, ·)`.
//!
//! A view used to be a `BTreeMap<Slot, Value>`; the simulator's hot loop
//! merges and clones views constantly, so the representation is a dense,
//! index-addressed slot array: slots are small integers keyed by processor
//! (or by name for the renaming algorithm), which makes `get`/`insert` O(1)
//! array accesses and `merge` a linear sweep without tree rebalancing.
//!
//! A cell is just its merged value, an `Option<Value>` of 24 bytes. Every
//! collect reply ships the responder's whole view as a copy-on-write
//! snapshot, so a view keeps no write history: a replica's state is a
//! join-semilattice, and the latest state subsumes every earlier one.

use crate::ids::{ProcId, Slot};
use crate::value::{Status, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Cells per copy-on-write block of a slot family. A write after a snapshot
/// re-copies one block, and a family of `k` writers costs `⌈k/8⌉·8` cells.
const CHUNK: usize = 8;

/// A fixed block of cells plus its occupancy count, so iteration can skip
/// empty blocks.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Chunk {
    values: [Option<Value>; CHUNK],
    /// Number of occupied cells.
    occupied: u8,
}

// A cell costs at most 24 bytes, and a block adds at most 8 bytes of header.
const _: () = assert!(std::mem::size_of::<Option<Value>>() <= 24);
const _: () = assert!(std::mem::size_of::<Chunk>() <= CHUNK * 24 + 8);

impl Default for Chunk {
    fn default() -> Self {
        Chunk {
            values: std::array::from_fn(|_| None),
            occupied: 0,
        }
    }
}

/// A dense, index-addressed cell array stored as `Arc`-shared fixed-size
/// blocks of [`CHUNK`] cells.
///
/// The block structure makes snapshots cheap to *diverge from*: cloning the
/// table is one `Arc` bump per block, and a write after a snapshot
/// copy-on-writes only the 8-cell block it lands in instead of the whole
/// array. Untouched tails share one global empty block, so growing a view
/// allocates nothing until a block is actually written.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct CellTable {
    chunks: Vec<Arc<Chunk>>,
}

/// The shared all-`⊥` block used for freshly grown table tails.
fn empty_chunk() -> Arc<Chunk> {
    static EMPTY: std::sync::OnceLock<Arc<Chunk>> = std::sync::OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Chunk::default())).clone()
}

impl CellTable {
    fn get(&self, index: usize) -> Option<&Value> {
        self.chunks.get(index / CHUNK)?.values[index % CHUNK].as_ref()
    }

    /// The block containing `index`, unshared and ready to mutate.
    fn chunk_mut(&mut self, index: usize) -> &mut Chunk {
        let block = index / CHUNK;
        if block >= self.chunks.len() {
            self.chunks.resize_with(block + 1, empty_chunk);
        }
        Arc::make_mut(&mut self.chunks[block])
    }

    /// Iterate `(index, value)` over occupied cells in ascending index
    /// order, skipping entirely empty blocks.
    fn iter(&self) -> impl Iterator<Item = (usize, &Value)> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, chunk)| chunk.occupied > 0)
            .flat_map(|(block, chunk)| {
                chunk
                    .values
                    .iter()
                    .enumerate()
                    .filter_map(move |(offset, value)| {
                        Some((block * CHUNK + offset, value.as_ref()?))
                    })
            })
    }

    /// Visit every occupied cell in ascending index order.
    fn for_each(&self, mut f: impl FnMut(usize, &Value)) {
        for (block, chunk) in self.chunks.iter().enumerate() {
            if chunk.occupied == 0 {
                continue;
            }
            for (offset, value) in chunk.values.iter().enumerate() {
                if let Some(value) = value {
                    f(block * CHUNK + offset, value);
                }
            }
        }
    }
}

/// One responder's view of a register array: a mapping from slot to value.
///
/// Slots the responder has never heard about are simply absent (the paper's
/// `⊥`). Internally the view keeps one dense array per slot family
/// ([`Slot::Proc`], [`Slot::Name`]) plus the single [`Slot::Global`] cell;
/// iteration order is `Proc(0), Proc(1), …, Name(0), Name(1), …, Global`,
/// which coincides with the derived order of [`Slot`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct View {
    /// Values of `Slot::Proc(i)`, indexed by `i`.
    procs: CellTable,
    /// Values of `Slot::Name(u)`, indexed by `u`.
    names: CellTable,
    /// Value of `Slot::Global`.
    global: Option<Value>,
    /// Number of non-`⊥` entries across all three families.
    occupied: usize,
}

impl View {
    /// An empty view (every slot is `⊥`).
    pub fn new() -> Self {
        View::default()
    }

    /// The value of `slot`, or `None` if the responder's view is `⊥` there.
    pub fn get(&self, slot: &Slot) -> Option<&Value> {
        match slot {
            Slot::Proc(p) => self.procs.get(p.index()),
            Slot::Name(u) => self.names.get(*u),
            Slot::Global => self.global.as_ref(),
        }
    }

    /// Merge `value` into a cell's value; returns `(changed,
    /// newly_occupied)`.
    fn merge_value(cell: &mut Option<Value>, value: Value) -> (bool, bool) {
        match cell {
            Some(existing) => (existing.merge(&value), false),
            empty => {
                *empty = Some(value);
                (true, true)
            }
        }
    }

    /// Record (merge) `value` into `slot`; returns whether the view changed.
    pub fn insert(&mut self, slot: Slot, value: Value) -> bool {
        let (changed, newly_occupied) = match slot {
            Slot::Global => Self::merge_value(&mut self.global, value),
            Slot::Proc(p) => Self::insert_indexed(&mut self.procs, p.index(), value),
            Slot::Name(u) => Self::insert_indexed(&mut self.names, u, value),
        };
        if newly_occupied {
            self.occupied += 1;
        }
        changed
    }

    fn insert_indexed(table: &mut CellTable, index: usize, value: Value) -> (bool, bool) {
        let chunk = table.chunk_mut(index);
        let (changed, newly) = Self::merge_value(&mut chunk.values[index % CHUNK], value);
        if newly {
            chunk.occupied += 1;
        }
        (changed, newly)
    }

    /// Merge another view into this one slot-by-slot.
    pub fn merge(&mut self, other: &View) {
        for (slot, value) in other.iter() {
            self.insert(slot, value.clone());
        }
    }

    /// Iterate over the non-`⊥` entries in slot order
    /// (`Proc(0) < … < Name(0) < … < Global`).
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &Value)> {
        let procs = self
            .procs
            .iter()
            .map(|(i, value)| (Slot::Proc(ProcId(i)), value));
        let names = self.names.iter().map(|(u, value)| (Slot::Name(u), value));
        let global = self.global.iter().map(|value| (Slot::Global, value));
        procs.chain(names).chain(global)
    }

    /// Visit every non-`⊥` entry in slot order with a plain nested loop.
    ///
    /// Semantically identical to [`View::iter`]; exists because the
    /// protocols' aggregate rules (death rules, observed-participant sweeps)
    /// visit quorum × entries cells per decision, where a tight loop beats
    /// the layered iterator chain.
    pub fn for_each(&self, mut f: impl FnMut(Slot, &Value)) {
        self.procs
            .for_each(|i, value| f(Slot::Proc(ProcId(i)), value));
        self.names.for_each(|u, value| f(Slot::Name(u), value));
        if let Some(value) = &self.global {
            f(Slot::Global, value);
        }
    }

    /// Number of non-`⊥` entries.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether every slot of the view is `⊥`.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }
}

impl PartialEq for View {
    fn eq(&self, other: &Self) -> bool {
        // Trailing `⊥` padding differs between views built in different
        // orders, so compare contents only.
        self.occupied == other.occupied && self.iter().eq(other.iter())
    }
}

impl Eq for View {}

impl FromIterator<(Slot, Value)> for View {
    fn from_iter<T: IntoIterator<Item = (Slot, Value)>>(iter: T) -> Self {
        let mut view = View::new();
        for (slot, value) in iter {
            view.insert(slot, value);
        }
        view
    }
}

/// The result of one `communicate(collect, ·)` call: the views reported by a
/// quorum (more than `n/2`) of responders.
///
/// Views are held behind [`Arc`] so that a copy-on-write snapshot taken by a
/// responder can travel to the requester and into this collection without
/// ever duplicating the slot array.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectedViews {
    responses: Vec<(ProcId, Arc<View>)>,
}

impl CollectedViews {
    /// Build a collection from owned `(responder, view)` pairs.
    pub fn new(responses: Vec<(ProcId, View)>) -> Self {
        CollectedViews {
            responses: responses
                .into_iter()
                .map(|(p, view)| (p, Arc::new(view)))
                .collect(),
        }
    }

    /// Build a collection from already-shared views (the backends' path).
    pub fn from_shared(responses: Vec<(ProcId, Arc<View>)>) -> Self {
        CollectedViews { responses }
    }

    /// The individual responses.
    pub fn responses(&self) -> &[(ProcId, Arc<View>)] {
        &self.responses
    }

    /// Number of responders.
    pub fn len(&self) -> usize {
        self.responses.len()
    }

    /// Whether no responses were collected.
    pub fn is_empty(&self) -> bool {
        self.responses.is_empty()
    }

    /// All slots that are non-`⊥` in at least one responder's view, in slot
    /// order.
    ///
    /// Computed by marking per-family occupancy bitmaps and walking them once
    /// — O(total entries + distinct slots) — instead of collecting every
    /// entry of every view and sorting, which dominated the sifting phases'
    /// step cost at large `n` (quorum × slots entries per call).
    pub fn observed_slots(&self) -> Vec<Slot> {
        let mut procs = BitRow::new();
        let mut names = BitRow::new();
        let mut global = false;
        for (_, view) in &self.responses {
            view.for_each(|slot, _| match slot {
                Slot::Proc(p) => {
                    procs.set(p.index());
                }
                Slot::Name(u) => {
                    names.set(u);
                }
                Slot::Global => global = true,
            });
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(procs.len() + names.len() + 1);
        slots.extend(procs.iter().map(|i| Slot::Proc(ProcId(i))));
        slots.extend(names.iter().map(Slot::Name));
        if global {
            slots.push(Slot::Global);
        }
        slots
    }

    /// All processors whose slot is non-`⊥` in at least one view
    /// (the paper's `ℓ ← {j | ∃k : Views[k][j] ≠ ⊥}`, Figure 2 line 17).
    pub fn observed_procs(&self) -> Vec<ProcId> {
        let mut procs: Vec<ProcId> = self
            .observed_slots()
            .into_iter()
            .filter_map(|slot| match slot {
                Slot::Proc(p) => Some(p),
                _ => None,
            })
            .collect();
        procs.sort_unstable();
        procs.dedup();
        procs
    }

    /// Does any responder report a non-`⊥` value for `slot`?
    pub fn any_view_has(&self, slot: &Slot) -> bool {
        self.responses
            .iter()
            .any(|(_, view)| view.get(slot).is_some())
    }

    /// Does some responder report a value at `slot` satisfying `pred`, while
    /// no responder reports a value satisfying `excluded`?
    ///
    /// This is the shape of the PoisonPill death test (Figure 1 line 10): "the
    /// slot is seen as Commit or High-Pri in some view and as Low-Pri in no
    /// view".
    pub fn exists_without(
        &self,
        slot: &Slot,
        pred: impl Fn(&Value) -> bool,
        excluded: impl Fn(&Value) -> bool,
    ) -> bool {
        let mut saw_pred = false;
        for (_, view) in &self.responses {
            if let Some(value) = view.get(slot) {
                if excluded(value) {
                    return false;
                }
                if pred(value) {
                    saw_pred = true;
                }
            }
        }
        saw_pred
    }

    /// The statuses reported for processor `p`'s slot in `instance`-agnostic
    /// form (the collect already targeted a single instance).
    pub fn statuses_of(&self, p: ProcId) -> Vec<&Status> {
        self.responses
            .iter()
            .filter_map(|(_, view)| view.get(&Slot::Proc(p)))
            .filter_map(Value::as_status)
            .collect()
    }

    /// Maximum `Round` value reported for any slot other than `exclude`.
    pub fn max_round_excluding(&self, exclude: ProcId) -> u32 {
        let mut max = 0;
        for (_, view) in &self.responses {
            view.for_each(|slot, value| {
                if slot != Slot::Proc(exclude) {
                    if let Some(round) = value.as_round() {
                        max = max.max(round);
                    }
                }
            });
        }
        max
    }

    /// Union of all views: one merged view.
    pub fn merged(&self) -> View {
        let mut merged = View::new();
        for (_, view) in &self.responses {
            merged.merge(view);
        }
        merged
    }
}

/// A growable bitmap over small indexes, used for set-union sweeps over
/// views (observed slots, death-rule bookkeeping) without sort-and-dedup
/// passes or per-element tree allocations.
#[derive(Debug, Clone, Default)]
pub struct BitRow {
    words: Vec<u64>,
    count: usize,
}

impl BitRow {
    /// An empty bitmap.
    pub fn new() -> Self {
        BitRow::default()
    }

    /// Mark `index`; returns whether it was newly marked.
    pub fn set(&mut self, index: usize) -> bool {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (index % 64);
        if self.words[word] & mask == 0 {
            self.words[word] |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Unmark every index, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Whether `index` is marked.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|word| word & (1 << (index % 64)) != 0)
    }

    /// Number of marked indexes.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate over marked indexes in ascending order (word-skipping).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(word_index, word)| {
                let mut bits = *word;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(word_index * 64 + bit)
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Priority;

    fn status(p: Priority) -> Value {
        Value::Status(Status::resolved(p))
    }

    #[test]
    fn view_insert_merges() {
        let mut view = View::new();
        assert!(view.insert(Slot::Global, Value::Flag(false)));
        assert!(view.insert(Slot::Global, Value::Flag(true)));
        assert!(!view.insert(Slot::Global, Value::Flag(false)));
        assert_eq!(view.get(&Slot::Global).unwrap().as_flag(), Some(true));
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn view_equality_ignores_capacity_padding() {
        // Insert a high slot then a low slot; the padded cells must not make
        // structurally identical views compare unequal.
        let mut a = View::new();
        a.insert(Slot::Proc(ProcId(5)), Value::Flag(true));
        let mut b = View::new();
        b.insert(Slot::Proc(ProcId(0)), Value::Flag(true));
        b.insert(Slot::Proc(ProcId(5)), Value::Flag(true));
        assert_ne!(a, b);
        a.insert(Slot::Proc(ProcId(0)), Value::Flag(true));
        assert_eq!(a, b, "padding must not affect equality");
    }

    #[test]
    fn view_iteration_is_in_slot_order() {
        let view: View = [
            (Slot::Global, Value::Flag(true)),
            (Slot::Name(2), Value::Flag(true)),
            (Slot::Proc(ProcId(1)), Value::Round(4)),
            (Slot::Name(0), Value::Flag(false)),
        ]
        .into_iter()
        .collect();
        let slots: Vec<Slot> = view.iter().map(|(slot, _)| slot).collect();
        assert_eq!(
            slots,
            vec![
                Slot::Proc(ProcId(1)),
                Slot::Name(0),
                Slot::Name(2),
                Slot::Global
            ]
        );
        assert_eq!(view.len(), 4);
    }

    #[test]
    fn write_after_snapshot_recopies_exactly_one_chunk() {
        let mut view = View::new();
        view.insert(Slot::Proc(ProcId(0)), Value::Round(1));
        view.insert(Slot::Proc(ProcId(CHUNK + 1)), Value::Round(2));
        let snapshot = view.clone();
        // A structural clone shares every block.
        assert!(Arc::ptr_eq(
            &view.procs.chunks[0],
            &snapshot.procs.chunks[0]
        ));
        assert!(Arc::ptr_eq(
            &view.procs.chunks[1],
            &snapshot.procs.chunks[1]
        ));

        // One write into block 0: that block — and only that block — is
        // re-copied; the untouched block stays shared with the snapshot.
        view.insert(Slot::Proc(ProcId(1)), Value::Round(3));
        assert!(
            !Arc::ptr_eq(&view.procs.chunks[0], &snapshot.procs.chunks[0]),
            "the written block must detach from the snapshot"
        );
        assert!(
            Arc::ptr_eq(&view.procs.chunks[1], &snapshot.procs.chunks[1]),
            "an untouched block must stay refcount-shared"
        );
        // The snapshot still observes the pre-write state.
        assert!(snapshot.get(&Slot::Proc(ProcId(1))).is_none());
        assert_eq!(view.get(&Slot::Proc(ProcId(1))), Some(&Value::Round(3)));
    }

    #[test]
    fn a_family_of_writers_costs_whole_eight_cell_blocks() {
        // Writers at slots 0..24 fill exactly three 8-cell blocks.
        let mut view = View::new();
        for i in 0..24 {
            view.insert(Slot::Proc(ProcId(i)), Value::Round(1));
        }
        assert_eq!(CHUNK, 8);
        assert_eq!(view.procs.chunks.len(), 3);
        for chunk in &view.procs.chunks {
            assert!(!Arc::ptr_eq(chunk, &empty_chunk()));
            assert_eq!(chunk.occupied as usize, CHUNK);
        }

        // A write after a snapshot re-copies exactly one block: the one it
        // lands in, whose eight cells the copy carries.
        let snapshot = view.clone();
        view.insert(Slot::Proc(ProcId(13)), Value::Round(2));
        let recopied: Vec<usize> = (0..3)
            .filter(|&b| !Arc::ptr_eq(&view.procs.chunks[b], &snapshot.procs.chunks[b]))
            .collect();
        assert_eq!(recopied, vec![1]);
        assert_eq!(view.procs.chunks[1].values.len(), 8);
        assert_eq!(
            snapshot.get(&Slot::Proc(ProcId(13))),
            Some(&Value::Round(1))
        );
        assert_eq!(view.get(&Slot::Proc(ProcId(13))), Some(&Value::Round(2)));
    }

    #[test]
    fn untouched_tail_blocks_share_the_global_empty_chunk() {
        let mut view = View::new();
        // Growing straight to block 2 fills blocks 0-1 with the shared
        // all-⊥ block instead of allocating fresh zeroed blocks.
        view.insert(Slot::Proc(ProcId(2 * CHUNK + 5)), Value::Flag(true));
        assert!(Arc::ptr_eq(&view.procs.chunks[0], &empty_chunk()));
        assert!(Arc::ptr_eq(&view.procs.chunks[1], &empty_chunk()));
        assert!(!Arc::ptr_eq(&view.procs.chunks[2], &empty_chunk()));
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn a_no_op_write_after_a_snapshot_unshares_one_block_and_keeps_the_contents() {
        let mut view = View::new();
        view.insert(Slot::Proc(ProcId(3)), Value::Round(5));

        // An idempotent re-delivery and a stale (smaller) round are both
        // merge no-ops.
        assert!(!view.insert(Slot::Proc(ProcId(3)), Value::Round(5)));
        assert!(!view.insert(Slot::Proc(ProcId(3)), Value::Round(2)));
        assert_eq!(view.get(&Slot::Proc(ProcId(3))), Some(&Value::Round(5)));

        // A no-op write after a snapshot still unshares the block it lands
        // in (`chunk_mut` runs before the merge outcome is known): the
        // price is one block copy, never a changed value.
        let snapshot = view.clone();
        assert!(!view.insert(Slot::Proc(ProcId(3)), Value::Round(5)));
        assert!(!Arc::ptr_eq(
            &view.procs.chunks[0],
            &snapshot.procs.chunks[0]
        ));
        assert_eq!(view, snapshot, "contents must be untouched");
    }

    #[test]
    fn observed_procs_unions_views() {
        let v1: View = [(Slot::Proc(ProcId(0)), status(Priority::Low))]
            .into_iter()
            .collect();
        let v2: View = [
            (Slot::Proc(ProcId(2)), Value::Status(Status::Commit)),
            (Slot::Name(4), Value::Flag(true)),
        ]
        .into_iter()
        .collect();
        let collected = CollectedViews::new(vec![(ProcId(9), v1), (ProcId(8), v2)]);
        assert_eq!(collected.observed_procs(), vec![ProcId(0), ProcId(2)]);
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn exists_without_matches_poisonpill_death_rule() {
        // Processor j is seen as Commit by one responder and Low by none: the
        // predicate holds, so a low-priority observer must die.
        let v1: View = [(Slot::Proc(ProcId(3)), Value::Status(Status::Commit))]
            .into_iter()
            .collect();
        let collected = CollectedViews::new(vec![(ProcId(0), v1)]);
        let is_commit_or_high = |v: &Value| {
            v.as_status().is_some_and(|s| {
                matches!(s, Status::Commit) || s.priority() == Some(Priority::High)
            })
        };
        let is_low = |v: &Value| {
            v.as_status()
                .is_some_and(|s| s.priority() == Some(Priority::Low))
        };
        assert!(collected.exists_without(&Slot::Proc(ProcId(3)), is_commit_or_high, is_low));

        // If any responder reports Low for the same slot, the rule no longer fires.
        let v2: View = [(Slot::Proc(ProcId(3)), status(Priority::Low))]
            .into_iter()
            .collect();
        let collected = CollectedViews::new(vec![
            (
                ProcId(0),
                [(Slot::Proc(ProcId(3)), Value::Status(Status::Commit))]
                    .into_iter()
                    .collect(),
            ),
            (ProcId(1), v2),
        ]);
        assert!(!collected.exists_without(&Slot::Proc(ProcId(3)), is_commit_or_high, is_low));
    }

    #[test]
    fn max_round_excluding_ignores_own_slot() {
        let v: View = [
            (Slot::Proc(ProcId(0)), Value::Round(5)),
            (Slot::Proc(ProcId(1)), Value::Round(3)),
        ]
        .into_iter()
        .collect();
        let collected = CollectedViews::new(vec![(ProcId(7), v)]);
        assert_eq!(collected.max_round_excluding(ProcId(0)), 3);
        assert_eq!(collected.max_round_excluding(ProcId(2)), 5);
        assert_eq!(CollectedViews::default().max_round_excluding(ProcId(0)), 0);
    }

    #[test]
    fn merged_view_unions_entries() {
        let v1: View = [(Slot::Name(1), Value::Flag(true))].into_iter().collect();
        let v2: View = [(Slot::Name(2), Value::Flag(true))].into_iter().collect();
        let merged = CollectedViews::new(vec![(ProcId(0), v1), (ProcId(1), v2)]).merged();
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn shared_views_compare_by_contents() {
        let view: View = [(Slot::Global, Value::Flag(true))].into_iter().collect();
        let a = CollectedViews::from_shared(vec![(ProcId(0), Arc::new(view.clone()))]);
        let b = CollectedViews::new(vec![(ProcId(0), view)]);
        assert_eq!(a, b);
    }
}
