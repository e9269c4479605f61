//! Partition routing for the parallel simulator.
//!
//! The partitioned engine (`fle_sim::partition`) splits the `n` processors of
//! one simulation into contiguous partitions, one engine per partition, and
//! advances them in deterministic *super-rounds*. This module holds the two
//! vocabulary types both sides of that split speak:
//!
//! * [`PartitionMap`] — the pure function from processor id to partition
//!   (balanced contiguous ranges), shared by the engines, the router and the
//!   report merger, and
//! * [`RouteKey`] — the canonical ordering key attached to every message a
//!   partition emits during a round. Message identifiers are assigned at the
//!   round barrier by sorting all partitions' outboxes by this key, and the
//!   key is a pure function of *what triggered the send* — never of which
//!   partition or worker thread produced it — which is what makes the global
//!   message-id sequence (and hence the whole execution) independent of the
//!   partition count in canonical mode and of the thread count always.

use crate::ids::ProcId;

/// The assignment of processors to partitions: balanced contiguous ranges
/// (the first `n % partitions` ranges get one extra processor).
///
/// Contiguity is load-bearing: concatenating the partitions' step logs in
/// partition order *is* ascending-processor order, so the round merger never
/// has to interleave step events across partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMap {
    n: usize,
    partitions: usize,
}

impl PartitionMap {
    /// A map of `n` processors over `partitions` partitions (clamped to
    /// `1..=n`).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, partitions: usize) -> Self {
        assert!(n > 0, "a system needs at least one processor");
        PartitionMap {
            n,
            partitions: partitions.clamp(1, n),
        }
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of partitions (after clamping).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The partition owning processor `p`.
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    pub fn partition_of(&self, p: ProcId) -> usize {
        assert!(p.index() < self.n, "{p} out of range for n={}", self.n);
        let base = self.n / self.partitions;
        let rem = self.n % self.partitions;
        let fat = rem * (base + 1);
        if p.index() < fat {
            p.index() / (base + 1)
        } else {
            rem + (p.index() - fat) / base
        }
    }

    /// The contiguous processor range owned by `partition`.
    ///
    /// # Panics
    /// Panics if `partition` is out of range.
    pub fn range_of(&self, partition: usize) -> std::ops::Range<usize> {
        assert!(partition < self.partitions, "partition out of range");
        let base = self.n / self.partitions;
        let rem = self.n % self.partitions;
        let lo = partition * base + partition.min(rem);
        let len = base + usize::from(partition < rem);
        lo..lo + len
    }
}

/// The canonical ordering key of one outbound message within a super-round.
///
/// Keys order a round's sends the way the sequential reference engine emits
/// them: first all sends triggered by message deliveries, in ascending order
/// of the *delivered* message id (replies to earlier deliveries come first);
/// then all sends triggered by processor steps, in ascending processor order
/// (a processor's step sends one broadcast, whose targets the engines take
/// in ascending order). Both trigger coordinates are globally meaningful and
/// partition-blind, so sorting the union of all outboxes by `RouteKey`
/// yields the same id assignment for every partition count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RouteKey {
    /// Trigger class: 0 = sent while delivering a message (a reply),
    /// 1 = sent while stepping a processor (a broadcast's requests).
    pub class: u8,
    /// The trigger coordinate: the delivered message id (class 0) or the
    /// stepping processor's index (class 1).
    pub trigger: u64,
}

impl RouteKey {
    /// The key of the (single) reply sent while delivering message
    /// `delivered_id`.
    pub fn reply(delivered_id: u64) -> Self {
        RouteKey {
            class: 0,
            trigger: delivered_id,
        }
    }

    /// The key of the broadcast `proc` issued during its step this round.
    /// Sound because a processor can complete at most one communicate call
    /// per round (quorum replies only arrive a round later), so `proc` sends
    /// at most one broadcast within the round.
    pub fn broadcast(proc: ProcId) -> Self {
        RouteKey {
            class: 1,
            trigger: proc.index() as u64,
        }
    }

    /// The key as one `u64` that sorts exactly as the key does, for a
    /// barrier that compares keys in its inner loop: the class as the top
    /// bit, above the trigger (a delivered message id or a processor).
    ///
    /// # Panics
    /// Panics, rather than wrap into another key's order, on a class other
    /// than 0 and 1 and on a trigger of 2⁶³ or more.
    #[inline]
    pub fn packed(self) -> u64 {
        const CLASS: u64 = 1 << 63;
        assert!(
            self.class <= 1 && self.trigger < CLASS,
            "{self:?} does not pack: the class is 0 or 1 and the trigger under 2^63"
        );
        u64::from(self.class) << 63 | self.trigger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_processors() {
        for n in [1usize, 2, 5, 7, 16, 64, 65] {
            for parts in [1usize, 2, 3, 4, 7, 64, 100] {
                let map = PartitionMap::new(n, parts);
                assert!(map.partitions() >= 1 && map.partitions() <= n);
                let mut covered = 0;
                for part in 0..map.partitions() {
                    let range = map.range_of(part);
                    assert_eq!(range.start, covered, "ranges are contiguous");
                    assert!(!range.is_empty(), "no empty partitions");
                    for i in range.clone() {
                        assert_eq!(map.partition_of(ProcId(i)), part);
                    }
                    covered = range.end;
                }
                assert_eq!(covered, n, "ranges cover every processor");
            }
        }
    }

    #[test]
    fn balanced_split_differs_by_at_most_one() {
        let map = PartitionMap::new(10, 3);
        let sizes: Vec<usize> = (0..3).map(|part| map.range_of(part).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn route_keys_order_replies_before_broadcasts() {
        let reply_late = RouteKey::reply(900);
        let broadcast_early = RouteKey::broadcast(ProcId(0));
        assert!(reply_late < broadcast_early, "deliveries precede steps");
        assert!(RouteKey::reply(1) < RouteKey::reply(2));
        assert!(RouteKey::broadcast(ProcId(1)) < RouteKey::broadcast(ProcId(2)));
    }

    #[test]
    fn packed_keys_sort_as_route_keys_do_and_panic_past_their_ranges() {
        let key = |class, trigger| RouteKey { class, trigger };
        let mut keys = Vec::new();
        for class in [0, 1] {
            for trigger in [0, 1, 2, (1 << 63) - 2, (1 << 63) - 1] {
                keys.push(key(class, trigger));
            }
        }
        for a in &keys {
            for b in &keys {
                assert_eq!(a.packed().cmp(&b.packed()), a.cmp(b), "{a:?} against {b:?}");
            }
        }
        let past = [
            key(0, 1 << 63),
            key(0, u64::MAX),
            key(1, 1 << 63),
            key(1, u64::MAX),
            key(2, 0),
        ];
        for key in past {
            assert!(
                std::panic::catch_unwind(|| key.packed()).is_err(),
                "{key:?} packed"
            );
        }
    }
}
