//! The per-node replica store backing the `communicate` primitive.
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
//! (`Arc::make_mut`, one 8-cell block at a time; the first such write also
//! copies the view's block table, ⌈n/8⌉ refcounted block pointers for `n`
//! processor slots). A requester keeps a reply
//! only for the call that collected it, so once every call of a run has
//! returned, each store is again the one holder of its views. Both
//! simulator engines and the sequential `SimMemory` adapter share this type.

use crate::ids::InstanceId;
use crate::value::{Key, Value};
use crate::view::View;
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

    /// Every instance the node has heard of, with its live view, ascending
    /// by instance.
    pub fn views(&self) -> impl Iterator<Item = (InstanceId, &Arc<View>)> {
        self.instances
            .iter()
            .map(|(instance, view)| (*instance, view))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ElectionContext, ProcId, Slot};
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
}
