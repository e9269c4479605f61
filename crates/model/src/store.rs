//! The per-node replica store backing the `communicate` primitive, plus the
//! requester-side cache that lets collect replies travel as deltas.
//!
//! Every processor — participating or not, returned or not — maintains a view
//! of every replicated register and answers `propagate` and `collect`
//! requests for it. Values are merged with the join semantics of
//! [`crate::Value::merge`], so the store is insensitive to message reordering
//! and duplication.
//!
//! The store is keyed by [`InstanceId`] and keeps one **copy-on-write**
//! [`View`] per instance (`Arc<View>`): answering a collect is a refcount
//! bump ([`ReplicaStore::view_arc`]), and the slot array is only duplicated
//! if the replica keeps absorbing writes while a snapshot is still alive
//! (`Arc::make_mut`). Combined with the per-view version counters this gives
//! the delta path of [`crate::wire::ViewTransfer`]: a responder answers a
//! collect that names a `known` version with just the entries written since.
//! Both execution backends (the simulator and the threaded runtime) share
//! these types.

use crate::ids::{InstanceId, ProcId};
use crate::value::{Key, Value};
use crate::view::View;
use crate::wire::ViewTransfer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A node's local view of all replicated registers.
#[derive(Debug, Clone)]
pub struct ReplicaStore {
    instances: BTreeMap<InstanceId, Arc<View>>,
    /// Shared empty view handed out for instances the node has never heard
    /// about, so collects of unknown instances allocate nothing.
    empty: Arc<View>,
}

impl Default for ReplicaStore {
    fn default() -> Self {
        ReplicaStore {
            instances: BTreeMap::new(),
            empty: Arc::new(View::new()),
        }
    }
}

impl ReplicaStore {
    /// An empty store (every register is `⊥`).
    pub fn new() -> Self {
        ReplicaStore::default()
    }

    /// Merge a propagated write into the store.
    pub fn apply(&mut self, key: Key, value: &Value) {
        let view = self.instances.entry(key.instance).or_default();
        Arc::make_mut(view).insert(key.slot, value.clone());
    }

    /// Merge a batch of propagated writes.
    pub fn apply_all(&mut self, entries: &[(Key, Value)]) {
        for (key, value) in entries {
            self.apply(*key, value);
        }
    }

    /// A copy-on-write snapshot of the node's current view of `instance`:
    /// O(1), shares the slot array until the next write to the instance.
    pub fn view_arc(&self, instance: InstanceId) -> Arc<View> {
        self.instances
            .get(&instance)
            .cloned()
            .unwrap_or_else(|| self.empty.clone())
    }

    /// The node's current view of `instance` as an owned value: a plain copy
    /// of [`ReplicaStore::view_arc`] (its slot blocks stay shared
    /// copy-on-write). Prefer `view_arc` on hot paths.
    pub fn view_of(&self, instance: InstanceId) -> View {
        View::clone(&self.view_arc(instance))
    }

    /// Answer a collect whose requester already holds this node's view of
    /// `instance` at version `known`: a delta with exactly the entries
    /// written since, or a full snapshot when the requester holds nothing
    /// (`known == 0`) or reports a version from the future (malformed input;
    /// the full view is always a correct answer).
    pub fn transfer_since(&self, instance: InstanceId, known: u32) -> ViewTransfer {
        let view = match self.instances.get(&instance) {
            Some(view) => view,
            None => &self.empty,
        };
        let version = view.version();
        if known == 0 || known > version {
            return ViewTransfer::Full(view.clone());
        }
        if known == version {
            // Nothing new: an empty delta, carried by one shared allocation.
            return ViewTransfer::Delta {
                since: known,
                version,
                entries: empty_delta_entries(),
            };
        }
        // Ship a partial delta only when little changed. In this in-process
        // wire a full snapshot is a refcount bump (copy-on-write), so a large
        // delta costs strictly more than a snapshot on both ends — building
        // the entry list here and merging it chunk-by-chunk at the requester.
        // A byte-serialized transport would push this threshold much higher.
        if version - known > DELTA_ENTRY_BUDGET {
            return ViewTransfer::Full(view.clone());
        }
        let entries: Vec<(crate::ids::Slot, Value)> = view
            .delta_since(known)
            .map(|(slot, value)| (slot, value.clone()))
            .collect();
        debug_assert!(
            !entries.is_empty(),
            "the version counter advances exactly when some slot is restamped"
        );
        ViewTransfer::Delta {
            since: known,
            version,
            entries: entries.into(),
        }
    }

    /// The value stored for `key`, if any.
    pub fn get(&self, key: &Key) -> Option<&Value> {
        self.instances.get(&key.instance)?.get(&key.slot)
    }

    /// Number of non-`⊥` registers in the store.
    pub fn len(&self) -> usize {
        self.instances.values().map(|view| view.len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget every register (used when recycling a node between trials).
    pub fn clear(&mut self) {
        self.instances.clear();
    }
}

/// One requester-side cache slot: the responder's view as of `version`,
/// valid only while `epoch` matches the cache's current epoch.
#[derive(Debug, Clone, Default)]
struct CacheEntry {
    epoch: u64,
    version: u32,
    view: Option<Arc<View>>,
}

/// Most effective writes a collect reply answers with a partial delta for;
/// past this the responder falls back to a copy-on-write full snapshot
/// (cheaper than a large entry list on an in-process wire).
const DELTA_ENTRY_BUDGET: u32 = 32;

/// The shared empty entry list used by deltas that carry nothing new.
fn empty_delta_entries() -> Arc<[(crate::ids::Slot, Value)]> {
    static EMPTY: std::sync::OnceLock<Arc<[(crate::ids::Slot, Value)]>> =
        std::sync::OnceLock::new();
    EMPTY.get_or_init(|| Vec::new().into()).clone()
}

/// The requester-side state of the delta-collect protocol: for each
/// responder, the most recent view (and its responder-local version) received
/// for the instance currently being collected.
///
/// The cache deliberately tracks **one instance at a time** — the instance of
/// the most recent collect call. Protocols collect an instance a small number
/// of times in a row (commit-collect then status-collect in a sifting phase)
/// and then move on, so a deeper cache would mostly hold dead instances;
/// bounding it to the active instance keeps requester memory at one view per
/// responder while still turning repeat collects into deltas. Collecting a
/// different instance resets every entry to "nothing known" (version 0),
/// which makes responders fall back to full snapshots — always correct.
#[derive(Debug, Clone, Default)]
pub struct CollectCache {
    instance: Option<InstanceId>,
    /// Bumped whenever the tracked instance changes; entries from older
    /// epochs are treated as absent. Their versions stay behind, hidden by
    /// the epoch; only their views are released.
    epoch: u64,
    entries: Vec<CacheEntry>,
}

impl CollectCache {
    /// An empty cache.
    pub fn new() -> Self {
        CollectCache::default()
    }

    /// Point the cache at `instance` ahead of a collect broadcast to `n`
    /// responders, dropping everything known about any other instance.
    ///
    /// A switch releases every cached view at once, so a finished
    /// instance's snapshots do not stay pinned until a later reply
    /// overwrites their entries. That costs O(entries) once per switch, and
    /// the collect that follows sends `n − 1` requests anyway.
    pub fn prepare(&mut self, instance: InstanceId, n: usize) {
        if self.instance != Some(instance) {
            self.instance = Some(instance);
            self.epoch += 1;
            for entry in &mut self.entries {
                entry.view = None;
            }
        }
        if self.entries.len() < n {
            self.entries.resize(n, CacheEntry::default());
        }
    }

    /// The responder-local version this requester holds for `responder`
    /// (0 when it holds nothing). Sent in the `Collect` request.
    pub fn known(&self, responder: ProcId) -> u32 {
        self.entries
            .get(responder.index())
            .filter(|entry| entry.epoch == self.epoch)
            .map_or(0, |entry| entry.version)
    }

    /// Resolve a reply from `responder` into the responder's full view,
    /// updating the cache: a full transfer replaces the entry, a delta is
    /// merged into the cached copy (in place when the cached `Arc` is no
    /// longer shared).
    ///
    /// # Panics
    /// Panics if a delta arrives whose base version does not match the cache
    /// — the engine guarantees the cache survives untouched between sending
    /// a collect and recording its replies, so a mismatch is a backend bug.
    pub fn resolve(&mut self, responder: ProcId, transfer: ViewTransfer) -> Arc<View> {
        if self.entries.len() <= responder.index() {
            self.entries
                .resize(responder.index() + 1, CacheEntry::default());
        }
        let epoch = self.epoch;
        let entry = &mut self.entries[responder.index()];
        match transfer {
            ViewTransfer::Full(view) => {
                entry.epoch = epoch;
                entry.version = view.version();
                entry.view = Some(view.clone());
                view
            }
            ViewTransfer::Delta {
                since,
                version,
                entries,
            } => {
                assert!(
                    entry.epoch == epoch && entry.version == since,
                    "delta from {responder} starts at version {since} but the \
                     requester's cache is at version {} (epoch {} vs {epoch})",
                    entry.version,
                    entry.epoch,
                );
                // Take the cached handle out so the merge can run in place
                // when nobody else holds it (the usual case: the previous
                // collect's response has been consumed by the protocol).
                let mut view = entry
                    .view
                    .take()
                    .expect("a delta reply implies a previously cached view");
                if !entries.is_empty() {
                    let target = Arc::make_mut(&mut view);
                    for (slot, value) in entries.iter() {
                        target.insert(*slot, value.clone());
                    }
                }
                entry.view = Some(view.clone());
                entry.version = version;
                view
            }
        }
    }

    /// Forget everything (used when recycling a node between trials).
    pub fn clear(&mut self) {
        self.instance = None;
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ElectionContext, Slot};
    use crate::value::{Priority, Status};

    #[test]
    fn view_of_filters_by_instance() {
        let mut store = ReplicaStore::new();
        let status1 = InstanceId::status(ElectionContext::Standalone, 1);
        let status2 = InstanceId::status(ElectionContext::Standalone, 2);
        store.apply(
            Key::proc(status1, ProcId(0)),
            &Value::Status(Status::Commit),
        );
        store.apply(
            Key::proc(status2, ProcId(1)),
            &Value::Status(Status::resolved(Priority::High)),
        );
        store.apply(
            Key::global(InstanceId::door(ElectionContext::Standalone)),
            &Value::Flag(true),
        );

        let view = store.view_of(status1);
        assert_eq!(view.len(), 1);
        assert!(view.get(&Slot::Proc(ProcId(0))).is_some());
        assert!(view.get(&Slot::Proc(ProcId(1))).is_none());
    }

    #[test]
    fn apply_merges_rather_than_overwrites() {
        let mut store = ReplicaStore::new();
        let door = InstanceId::door(ElectionContext::Standalone);
        store.apply(Key::global(door), &Value::Flag(true));
        store.apply(Key::global(door), &Value::Flag(false));
        assert_eq!(
            store.get(&Key::global(door)).and_then(Value::as_flag),
            Some(true),
            "the sticky doorway bit never reopens"
        );
    }

    #[test]
    fn apply_all_applies_every_entry() {
        let mut store = ReplicaStore::new();
        let contended = InstanceId::Contended;
        let entries: Vec<(Key, Value)> = (0..4)
            .map(|name| (Key::name(contended, name), Value::Flag(true)))
            .collect();
        store.apply_all(&entries);
        assert_eq!(store.len(), 4);
        assert_eq!(store.view_of(contended).len(), 4);
        assert!(!store.is_empty());
    }

    #[test]
    fn view_of_unknown_instance_is_empty() {
        let store = ReplicaStore::new();
        assert!(store.view_of(InstanceId::Contended).is_empty());
        assert!(store.view_arc(InstanceId::Contended).is_empty());
    }

    #[test]
    fn snapshots_are_copy_on_write() {
        let mut store = ReplicaStore::new();
        let contended = InstanceId::Contended;
        store.apply(Key::name(contended, 0), &Value::Flag(true));
        let snapshot = store.view_arc(contended);
        let alias = store.view_arc(contended);
        assert!(
            Arc::ptr_eq(&snapshot, &alias),
            "snapshots of an unwritten instance share one allocation"
        );
        // A write after the snapshot detaches the live view; the snapshot
        // keeps observing the old state.
        store.apply(Key::name(contended, 1), &Value::Flag(true));
        assert_eq!(snapshot.len(), 1);
        assert_eq!(store.view_arc(contended).len(), 2);
    }

    #[test]
    fn transfer_since_degrades_to_full_and_shrinks_to_delta() {
        let mut store = ReplicaStore::new();
        let contended = InstanceId::Contended;
        store.apply(Key::name(contended, 0), &Value::Flag(true));
        store.apply(Key::name(contended, 1), &Value::Flag(true));
        let version = store.view_arc(contended).version();

        // Unknown requester state: full snapshot.
        assert!(matches!(
            store.transfer_since(contended, 0),
            ViewTransfer::Full(_)
        ));
        // Up-to-date requester: empty delta.
        match store.transfer_since(contended, version) {
            ViewTransfer::Delta {
                since,
                version: v,
                entries,
            } => {
                assert_eq!((since, v), (version, version));
                assert!(entries.is_empty());
            }
            other => panic!("expected an empty delta, got {other:?}"),
        }
        // One more write: the delta carries exactly that entry.
        store.apply(Key::name(contended, 7), &Value::Flag(true));
        match store.transfer_since(contended, version) {
            ViewTransfer::Delta { entries, .. } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].0, Slot::Name(7));
            }
            other => panic!("expected a one-entry delta, got {other:?}"),
        }
        // A version from the future falls back to the full view.
        assert!(matches!(
            store.transfer_since(contended, u32::MAX),
            ViewTransfer::Full(_)
        ));
    }

    #[test]
    fn collect_cache_reconstructs_the_responder_view() {
        let mut responder = ReplicaStore::new();
        let contended = InstanceId::Contended;
        responder.apply(Key::name(contended, 0), &Value::Flag(true));

        let mut cache = CollectCache::new();
        cache.prepare(contended, 4);
        assert_eq!(cache.known(ProcId(2)), 0);

        // First contact: full transfer.
        let full = responder.transfer_since(contended, cache.known(ProcId(2)));
        let first = cache.resolve(ProcId(2), full);
        assert_eq!(*first, responder.view_of(contended));

        // The responder moves on; the next reply is a delta that
        // reconstructs its new view exactly.
        responder.apply(Key::name(contended, 3), &Value::Flag(true));
        cache.prepare(contended, 4);
        let delta = responder.transfer_since(contended, cache.known(ProcId(2)));
        assert!(matches!(&delta, ViewTransfer::Delta { entries, .. } if entries.len() == 1));
        let second = cache.resolve(ProcId(2), delta);
        assert_eq!(*second, responder.view_of(contended));

        // Nothing changed: the empty delta returns the cached view untouched.
        let unchanged = responder.transfer_since(contended, cache.known(ProcId(2)));
        let third = cache.resolve(ProcId(2), unchanged);
        assert!(Arc::ptr_eq(&second, &third));
    }

    #[test]
    fn transfer_crosses_from_delta_to_snapshot_at_the_entry_budget() {
        let mut store = ReplicaStore::new();
        let instance = InstanceId::Contended;
        store.apply(Key::name(instance, 5000), &Value::Flag(true));
        let known = store.view_arc(instance).version();

        // Exactly DELTA_ENTRY_BUDGET effective writes since `known`: still a
        // partial delta carrying every one of them.
        for i in 0..DELTA_ENTRY_BUDGET {
            store.apply(Key::name(instance, i as usize), &Value::Flag(true));
        }
        match store.transfer_since(instance, known) {
            ViewTransfer::Delta { since, entries, .. } => {
                assert_eq!(since, known);
                assert_eq!(entries.len(), DELTA_ENTRY_BUDGET as usize);
            }
            other => panic!("at the budget the reply must still be a delta, got {other:?}"),
        }

        // One more effective write crosses the threshold: the responder
        // falls back to a copy-on-write full snapshot.
        store.apply(
            Key::name(instance, DELTA_ENTRY_BUDGET as usize),
            &Value::Flag(true),
        );
        match store.transfer_since(instance, known) {
            ViewTransfer::Full(view) => {
                assert_eq!(view.len(), DELTA_ENTRY_BUDGET as usize + 2);
            }
            other => panic!("past the budget the reply must be a snapshot, got {other:?}"),
        }

        // Either way the requester reconstructs the same view.
        let mut cache = CollectCache::new();
        cache.prepare(instance, 2);
        let rebuilt = cache.resolve(ProcId(1), store.transfer_since(instance, 0));
        assert_eq!(*rebuilt, store.view_of(instance));
    }

    #[test]
    fn collect_cache_epoch_invalidation_releases_views_and_is_safe() {
        let instance_a = InstanceId::Contended;
        let instance_b = InstanceId::door(ElectionContext::Standalone);
        let responder_id = ProcId(1);
        let mut responder = ReplicaStore::new();
        responder.apply(Key::name(instance_a, 0), &Value::Flag(true));
        responder.apply(Key::name(instance_a, 3), &Value::Flag(true));
        let version_a = responder.view_arc(instance_a).version();

        let mut cache = CollectCache::new();
        cache.prepare(instance_a, 2);
        cache.resolve(
            responder_id,
            responder.transfer_since(instance_a, cache.known(responder_id)),
        );
        assert_eq!(cache.known(responder_id), version_a);

        // Switching instances invalidates through the epoch: the entry's
        // version is *not* rewritten (it still physically holds the old
        // version), only the epoch moves on — which is what makes the entry
        // invisible. The stale view is released at once, not left pinned
        // until a later reply overwrites the entry.
        cache.prepare(instance_b, 2);
        assert_eq!(cache.entries[responder_id.index()].version, version_a);
        assert!(cache.entries[responder_id.index()].view.is_none());
        assert_eq!(cache.known(responder_id), 0, "stale epoch reads as unknown");

        // Switching *back* bumps the epoch again: the version from the
        // first visit must not leak, or the responder would answer with a
        // delta based on state the requester no longer tracks.
        cache.prepare(instance_a, 2);
        assert_eq!(cache.known(responder_id), 0);
        let transfer = responder.transfer_since(instance_a, cache.known(responder_id));
        assert!(
            matches!(transfer, ViewTransfer::Full(_)),
            "a stale-version collect after a switch must get a full snapshot"
        );
        let rebuilt = cache.resolve(responder_id, transfer);
        assert_eq!(*rebuilt, responder.view_of(instance_a));
        assert_eq!(cache.known(responder_id), version_a);
    }

    #[test]
    fn collect_cache_resets_when_the_instance_changes() {
        let mut cache = CollectCache::new();
        cache.prepare(InstanceId::Contended, 2);
        let view: View = [(Slot::Name(0), Value::Flag(true))].into_iter().collect();
        cache.resolve(ProcId(1), ViewTransfer::Full(Arc::new(view)));
        assert_eq!(cache.known(ProcId(1)), 1);

        cache.prepare(InstanceId::door(ElectionContext::Standalone), 2);
        assert_eq!(
            cache.known(ProcId(1)),
            0,
            "switching instances must forget the old versions"
        );
        cache.prepare(InstanceId::door(ElectionContext::Standalone), 2);
    }
}
