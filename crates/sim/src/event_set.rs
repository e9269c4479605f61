//! Incrementally maintained enabled-event indexes.
//!
//! The engine used to rebuild a `Vec<EnabledEvent>` before every event by
//! scanning all `n` processes plus every in-flight message — O(events × (n +
//! messages)) over a run. These two structures maintain the same information
//! incrementally so each event costs O(log) index maintenance instead. Both
//! rest on one word-parallel order-statistics bitmap:
//!
//! * [`IndexedBitSet`] — members are bits packed into `u64` words, and a
//!   Fenwick tree counts the members of each word. Insert and remove flip one
//!   bit and update O(log words) tree nodes; select-the-k-th-smallest descends
//!   the tree over words, then ranks inside one word; iteration skips empty
//!   words and walks set bits with `trailing_zeros`. The step-enabled
//!   processors are this bitmap over the universe `0..n`.
//! * [`OrderedMsgSet`] — the deliverable messages ordered by [`MessageId`].
//!   Message ids are allocated monotonically, so the set is an append-only
//!   array of `(id, slab slot)` pairs with an [`IndexedBitSet`] marking the
//!   live append positions, plus amortized O(1) compaction that keeps
//!   iteration and memory linear in the number of live entries.
//!
//! Counting words instead of single positions makes the tree 64× smaller,
//! so a descent touches a few cache lines even with thousands of messages in
//! flight.
//!
//! Both expose the *stable order* the adversary API relies on (processors
//! ascending, then message ids ascending), so `Decision::Schedule(index)`
//! retains its exact seed semantics.

use crate::message::MessageId;

/// Bits per bitmap word.
const WORD_BITS: usize = 64;

/// The position of the `rank`-th (0-based) set bit of `word`, which must
/// have more than `rank` set bits: a binary search over popcounts of halves.
fn select_in_word(mut word: u64, mut rank: u32) -> usize {
    debug_assert!(word.count_ones() > rank);
    let mut position = 0;
    for half in [32, 16, 8, 4, 2, 1] {
        let low = (word & ((1u64 << half) - 1)).count_ones();
        if rank >= low {
            rank -= low;
            word >>= half;
            position += half;
        }
    }
    position
}

/// An order-statistics set over the universe `0..n`: a bitmap of `u64`
/// words with a Fenwick tree over the words' member counts.
#[derive(Debug, Clone, Default)]
pub struct IndexedBitSet {
    universe: usize,
    words: Vec<u64>,
    /// 1-based Fenwick tree: node `i` counts the members of the words
    /// `(i - lowbit(i), i]` (1-based word numbers).
    tree: Vec<u32>,
    len: usize,
}

impl IndexedBitSet {
    /// An empty set over `0..n`.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(WORD_BITS);
        IndexedBitSet {
            universe: n,
            words: vec![0; words],
            tree: vec![0; words + 1],
            len: 0,
        }
    }

    /// The universe size the set was built over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `index` is a member.
    pub fn contains(&self, index: usize) -> bool {
        index < self.universe && self.words[index / WORD_BITS] & (1 << (index % WORD_BITS)) != 0
    }

    fn tree_add(&mut self, word: usize, delta: i32) {
        let mut node = word + 1;
        while node < self.tree.len() {
            self.tree[node] = self.tree[node].wrapping_add_signed(delta);
            node += node & node.wrapping_neg();
        }
    }

    /// Members in the first `words` words.
    fn prefix(&self, words: usize) -> u32 {
        let mut node = words;
        let mut sum = 0;
        while node > 0 {
            sum += self.tree[node];
            node -= node & node.wrapping_neg();
        }
        sum
    }

    /// Insert `index`; returns whether it was newly added.
    ///
    /// # Panics
    /// Panics if `index` is outside the universe.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.universe, "index outside the universe");
        let (word, bit) = (index / WORD_BITS, 1u64 << (index % WORD_BITS));
        if self.words[word] & bit != 0 {
            return false;
        }
        self.words[word] |= bit;
        self.len += 1;
        self.tree_add(word, 1);
        true
    }

    /// Remove `index`; returns whether it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        if !self.contains(index) {
            return false;
        }
        let word = index / WORD_BITS;
        self.words[word] &= !(1u64 << (index % WORD_BITS));
        self.len -= 1;
        self.tree_add(word, -1);
        true
    }

    /// Set membership of `index` to `member`.
    pub fn set(&mut self, index: usize, member: bool) {
        if member {
            self.insert(index);
        } else {
            self.remove(index);
        }
    }

    /// The k-th smallest member (0-based), in O(log n).
    pub fn select(&self, k: usize) -> Option<usize> {
        if k >= self.len {
            return None;
        }
        // Descend to the word holding the member: the largest word count
        // whose prefix holds at most `k` members.
        let words = self.words.len();
        let mut remaining = k as u32;
        let mut word = 0usize;
        let mut step = words.next_power_of_two();
        while step > 0 {
            let next = word + step;
            if next <= words && self.tree[next] <= remaining {
                remaining -= self.tree[next];
                word = next;
            }
            step >>= 1;
        }
        Some(word * WORD_BITS + select_in_word(self.words[word], remaining))
    }

    /// Iterate over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|&(_, &word)| word != 0)
            .flat_map(|(index, &word)| {
                let base = index * WORD_BITS;
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        base + bit
                    })
                })
            })
    }

    /// Empty the set and re-size it to universe `n`, keeping allocations
    /// (trial reuse via [`crate::SimArena`]).
    pub fn reset(&mut self, n: usize) {
        let words = n.div_ceil(WORD_BITS);
        self.universe = n;
        self.words.clear();
        self.words.resize(words, 0);
        self.tree.clear();
        self.tree.resize(words + 1, 0);
        self.len = 0;
    }

    /// Extend the universe to `n` (at least the current one) with
    /// non-members.
    fn grow(&mut self, n: usize) {
        debug_assert!(n >= self.universe);
        self.universe = n;
        if self.tree.is_empty() {
            // 1-based Fenwick tree: node 0 is an unused placeholder.
            self.tree.push(0);
        }
        while self.words.len() < n.div_ceil(WORD_BITS) {
            // The new node covers the words (node - lowbit, node]; the last
            // of them is the new, empty word.
            let node = self.words.len() + 1;
            let lowbit = node & node.wrapping_neg();
            let covered = self.prefix(node - 1) - self.prefix(node - lowbit);
            self.words.push(0);
            self.tree.push(covered);
        }
    }

    /// Make the set exactly `0..n` over the universe `0..n`, in O(n / 64).
    fn fill(&mut self, n: usize) {
        let words = n.div_ceil(WORD_BITS);
        self.universe = n;
        self.len = n;
        self.words.clear();
        self.words.resize(words, u64::MAX);
        if !n.is_multiple_of(WORD_BITS) {
            self.words[words - 1] = (1u64 << (n % WORD_BITS)) - 1;
        }
        // Linear Fenwick build: each node passes its total to its parent.
        self.tree.clear();
        self.tree.push(0);
        self.tree
            .extend(self.words.iter().map(|word| word.count_ones()));
        for node in 1..=words {
            let parent = node + (node & node.wrapping_neg());
            if parent <= words {
                self.tree[parent] += self.tree[node];
            }
        }
    }
}

/// Sentinel for "slot not present" in [`OrderedMsgSet::entry_of_slot`].
const ABSENT: u32 = u32::MAX;

/// The deliverable in-flight messages, ordered by ascending [`MessageId`].
///
/// Maps each member to its slab slot so the engine can resolve an adversary's
/// `Schedule(index)` decision into a slab access without any id lookup.
#[derive(Debug, Clone, Default)]
pub struct OrderedMsgSet {
    /// Message id at each append position; appends are monotone in id.
    ids: Vec<u64>,
    /// Slab slot at each append position.
    slots: Vec<u32>,
    /// The append positions still holding a member.
    live: IndexedBitSet,
    /// Slab slot → append position (`ABSENT` when not a member).
    entry_of_slot: Vec<u32>,
}

impl OrderedMsgSet {
    /// An empty set.
    pub fn new() -> Self {
        OrderedMsgSet::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether slab slot `slot` is a member.
    pub fn contains_slot(&self, slot: u32) -> bool {
        self.entry_of_slot
            .get(slot as usize)
            .is_some_and(|&position| position != ABSENT)
    }

    /// Insert a message; `id` must exceed every id ever inserted.
    pub fn insert(&mut self, id: MessageId, slot: u32) {
        debug_assert!(
            self.ids.last().is_none_or(|&last| last < id.0),
            "message ids must be inserted in increasing order"
        );
        let position = self.ids.len();
        self.ids.push(id.0);
        self.slots.push(slot);
        self.live.grow(position + 1);
        self.live.insert(position);
        let slot = slot as usize;
        if slot >= self.entry_of_slot.len() {
            self.entry_of_slot.resize(slot + 1, ABSENT);
        }
        debug_assert_eq!(self.entry_of_slot[slot], ABSENT, "slot already enabled");
        self.entry_of_slot[slot] = position as u32;
    }

    /// Remove the message occupying slab slot `slot`; returns whether it was
    /// a member.
    pub fn remove_slot(&mut self, slot: u32) -> bool {
        let Some(&position) = self.entry_of_slot.get(slot as usize) else {
            return false;
        };
        if position == ABSENT {
            return false;
        }
        self.entry_of_slot[slot as usize] = ABSENT;
        self.live.remove(position as usize);
        self.maybe_compact();
        true
    }

    /// The k-th smallest member by id (0-based), in O(log len).
    pub fn select(&self, k: usize) -> Option<(MessageId, u32)> {
        let position = self.live.select(k)?;
        Some((MessageId(self.ids[position]), self.slots[position]))
    }

    /// Iterate over members in ascending id order. Linear in the number of
    /// live entries (amortized, thanks to compaction).
    pub fn iter(&self) -> impl Iterator<Item = (MessageId, u32)> + '_ {
        self.live
            .iter()
            .map(|position| (MessageId(self.ids[position]), self.slots[position]))
    }

    /// Empty the set while keeping its allocations, for trial reuse through
    /// [`crate::SimArena`]. Afterwards it is indistinguishable from a fresh
    /// set (ids restart from anything, slots map on demand).
    pub fn clear(&mut self) {
        self.ids.clear();
        self.slots.clear();
        self.live.reset(0);
        self.entry_of_slot.clear();
    }

    /// Drop tombstones once they outnumber live entries, keeping iteration
    /// and memory linear in the live count. Amortized O(1) per removal.
    fn maybe_compact(&mut self) {
        let live = self.live.len();
        if self.ids.len() < 64 || live * 2 >= self.ids.len() {
            return;
        }
        for (write, read) in self.live.iter().enumerate() {
            self.ids[write] = self.ids[read];
            self.slots[write] = self.slots[read];
            self.entry_of_slot[self.slots[write] as usize] = write as u32;
        }
        self.ids.truncate(live);
        self.slots.truncate(live);
        self.live.fill(live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A deterministic xorshift stream for the randomized workouts.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn select_in_word_ranks_every_set_bit() {
        for word in [1u64, 0b1011_0100, u64::MAX, 1 << 63, 0x8000_0001_0000_0010] {
            let positions: Vec<usize> = (0..64).filter(|&bit| word & (1 << bit) != 0).collect();
            for (rank, &position) in positions.iter().enumerate() {
                assert_eq!(select_in_word(word, rank as u32), position, "{word:#x}");
            }
        }
    }

    #[test]
    fn bitset_select_matches_sorted_members() {
        let mut set = IndexedBitSet::new(40);
        for index in [3usize, 7, 8, 21, 39, 0] {
            assert!(set.insert(index));
        }
        assert!(!set.insert(7), "duplicate insert is a no-op");
        let members: Vec<usize> = set.iter().collect();
        assert_eq!(members, vec![0, 3, 7, 8, 21, 39]);
        for (k, &expected) in members.iter().enumerate() {
            assert_eq!(set.select(k), Some(expected));
        }
        assert_eq!(set.select(members.len()), None);

        assert!(set.remove(8));
        assert!(!set.remove(8));
        assert!(!set.remove(40), "out-of-universe removal is a no-op");
        assert!(!set.contains(40));
        assert_eq!(set.select(2), Some(7));
        assert_eq!(set.select(3), Some(21));
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn bitset_set_is_idempotent() {
        let mut set = IndexedBitSet::new(4);
        set.set(2, true);
        set.set(2, true);
        assert_eq!(set.len(), 1);
        set.set(2, false);
        set.set(2, false);
        assert!(set.is_empty());
    }

    #[test]
    fn bitset_random_workout_matches_reference() {
        // Random inserts and removals cross-checked against a BTreeSet, at
        // universes below, at and just past one word, and many words wide.
        for universe in [1usize, 63, 64, 65, 1000] {
            let mut set = IndexedBitSet::new(universe);
            let mut reference = BTreeSet::new();
            let mut rng = xorshift(0x9e37_79b9 ^ universe as u64);
            for round in 0..4000usize {
                let index = (rng() % universe as u64) as usize;
                if rng().is_multiple_of(2) {
                    assert_eq!(set.insert(index), reference.insert(index));
                } else {
                    assert_eq!(set.remove(index), reference.remove(&index));
                }
                assert_eq!(set.len(), reference.len());
                assert_eq!(set.contains(index), reference.contains(&index));
                if round.is_multiple_of(97) {
                    // Every rank, and one past the end.
                    let members: Vec<usize> = reference.iter().copied().collect();
                    for (k, &member) in members.iter().enumerate() {
                        assert_eq!(set.select(k), Some(member), "universe {universe}");
                    }
                    assert_eq!(set.select(members.len()), None);
                    assert_eq!(set.iter().collect::<Vec<_>>(), members);
                }
            }
            set.reset(universe);
            assert!(set.is_empty());
            assert_eq!(set.iter().count(), 0);
            assert_eq!(set.select(0), None);
        }
    }

    #[test]
    fn msgset_select_and_iter_stay_id_ordered() {
        let mut set = OrderedMsgSet::new();
        for (id, slot) in [(0u64, 5u32), (1, 3), (2, 9), (5, 0), (9, 1)] {
            set.insert(MessageId(id), slot);
        }
        assert!(set.remove_slot(9));
        assert!(!set.remove_slot(9));
        assert!(!set.contains_slot(9));
        assert!(set.contains_slot(3));
        let members: Vec<(MessageId, u32)> = set.iter().collect();
        assert_eq!(
            members,
            vec![
                (MessageId(0), 5),
                (MessageId(1), 3),
                (MessageId(5), 0),
                (MessageId(9), 1)
            ]
        );
        for (k, &expected) in members.iter().enumerate() {
            assert_eq!(set.select(k), Some(expected));
        }
        assert_eq!(set.select(4), None);
    }

    #[test]
    fn msgset_compaction_preserves_contents() {
        let mut set = OrderedMsgSet::new();
        for id in 0..200u64 {
            set.insert(MessageId(id), id as u32);
        }
        // Remove most entries to trigger compaction, slots reused afterwards.
        for slot in 0..180u32 {
            assert!(set.remove_slot(slot));
        }
        assert_eq!(set.len(), 20);
        let members: Vec<(MessageId, u32)> = set.iter().collect();
        assert_eq!(members.len(), 20);
        assert_eq!(members[0], (MessageId(180), 180));
        for (k, &expected) in members.iter().enumerate() {
            assert_eq!(set.select(k), Some(expected));
        }
        // Reuse a freed slot with a fresh (larger) id.
        set.insert(MessageId(500), 0);
        assert!(set.contains_slot(0));
        assert_eq!(set.select(20), Some((MessageId(500), 0)));
    }

    #[test]
    fn msgset_random_workout_matches_reference() {
        // A deterministic interleaving of inserts and removals, cross-checked
        // against a sorted reference vector. Phases of insert-heavy and
        // removal-heavy traffic make the set swell across many 64-entry
        // words, then shrink far enough to compact, over and over, while
        // freed slab slots are reused by later messages.
        let mut set = OrderedMsgSet::new();
        let mut reference: Vec<(u64, u32)> = Vec::new();
        let mut next_id = 0u64;
        let mut free_slots: Vec<u32> = (0..600).rev().collect();
        let mut rng = xorshift(0x1234_5678);
        let mut compactions = 0;
        let mut max_len = 0;
        let mut slot_reuses = 0;
        let mut used_slots = BTreeSet::new();
        for op in 0..12_000usize {
            let insert_weight = if (op / 1500).is_multiple_of(2) { 4 } else { 1 };
            if rng() % 5 < insert_weight && !free_slots.is_empty() {
                let slot = free_slots.pop().unwrap();
                if !used_slots.insert(slot) {
                    slot_reuses += 1;
                }
                // Ids are increasing but not contiguous.
                next_id += 1 + rng() % 3;
                set.insert(MessageId(next_id), slot);
                reference.push((next_id, slot));
            } else if !reference.is_empty() {
                let victim = (rng() % reference.len() as u64) as usize;
                let (_, slot) = reference.remove(victim);
                let positions_before = set.ids.len();
                assert!(set.remove_slot(slot));
                assert!(!set.contains_slot(slot));
                if set.ids.len() < positions_before {
                    compactions += 1;
                }
                free_slots.insert((rng() % (free_slots.len() as u64 + 1)) as usize, slot);
            }
            max_len = max_len.max(reference.len());
            assert_eq!(set.len(), reference.len());
            if op.is_multiple_of(50) {
                for (k, &(id, slot)) in reference.iter().enumerate() {
                    assert_eq!(set.select(k), Some((MessageId(id), slot)), "op {op}");
                }
                assert_eq!(set.select(reference.len()), None);
                let collected: Vec<(u64, u32)> =
                    set.iter().map(|(id, slot)| (id.0, slot)).collect();
                assert_eq!(collected, reference);
            }
        }
        assert!(max_len > 4 * WORD_BITS, "crossed only {max_len} entries");
        assert!(compactions >= 5, "only {compactions} compactions");
        assert!(slot_reuses > 1000, "only {slot_reuses} slot reuses");
        let collected: Vec<(u64, u32)> = set.iter().map(|(id, slot)| (id.0, slot)).collect();
        assert_eq!(collected, reference);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }
}
