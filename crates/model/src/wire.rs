//! Wire messages exchanged between processors.
//!
//! Both backends (the simulator and the threaded runtime) implement the
//! `communicate` primitive of ABND95 with the same four message kinds: a
//! propagate and its acknowledgement, and a collect and its reply. Message
//! complexity is counted per [`WireMessage`] sent, which matches the paper's
//! accounting (a communicate call costs `n` requests plus up to `n` replies,
//! i.e. `O(n)` messages) — the accounting counts messages, not bytes, so the
//! in-memory payload representation is free to be optimized:
//!
//! * [`WireMessage::Propagate`] carries its register writes behind an
//!   `Arc<[(Key, Value)]>` built **once** per communicate call and
//!   refcount-shared across all `n − 1` sends, so broadcasting is O(1) per
//!   recipient instead of one entry-list clone each.
//! * [`WireMessage::Collect`] carries the requester's `known` version of the
//!   responder's view, and the responder answers with a [`ViewTransfer`]:
//!   either a copy-on-write snapshot of its whole view (O(1) to produce) or
//!   a delta containing only the entries written since `known`.

use crate::ids::{InstanceId, Slot};
use crate::value::{Key, Value};
use crate::view::View;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Sequence number identifying one `communicate` call of one processor.
pub type CallSeq = u32;

/// The payload of a collect reply: the responder's view, either whole or as
/// the entries written since the version the requester already holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ViewTransfer {
    /// The responder's complete view. A copy-on-write snapshot: producing it
    /// is a refcount bump, and the underlying slot array is only copied if
    /// the responder keeps writing while the snapshot is alive.
    Full(Arc<View>),
    /// The entries whose last effective write is newer than `since`
    /// (a version the requester reported in its [`WireMessage::Collect`]).
    /// Merging them into the requester's copy of the responder's view at
    /// `since` reconstructs the responder's view at `version` exactly,
    /// because values are join-semilattices (later values absorb earlier
    /// ones).
    Delta {
        /// The responder-local version the delta starts from.
        since: u32,
        /// The responder-local version the delta brings the requester to.
        version: u32,
        /// The changed entries, in slot order.
        entries: Arc<[(Slot, Value)]>,
    },
}

impl ViewTransfer {
    /// The responder-local view version this transfer represents.
    pub fn version(&self) -> u32 {
        match self {
            ViewTransfer::Full(view) => view.version(),
            ViewTransfer::Delta { version, .. } => *version,
        }
    }
}

/// A point-to-point message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireMessage {
    /// `(propagate, v)` — the sender asks the recipient to merge `entries`
    /// into its replica and acknowledge.
    Propagate {
        /// Sequence number of the communicate call this belongs to.
        seq: CallSeq,
        /// Register writes to merge into the recipient's replica. Shared by
        /// every send of the same broadcast.
        entries: Arc<[(Key, Value)]>,
    },
    /// Acknowledgement of a `Propagate`.
    Ack {
        /// Sequence number being acknowledged.
        seq: CallSeq,
    },
    /// `(collect, instance)` — the sender asks for the recipient's view.
    Collect {
        /// Sequence number of the communicate call this belongs to.
        seq: CallSeq,
        /// The register array whose view is requested.
        instance: InstanceId,
        /// The responder-local view version the requester already holds for
        /// this responder and instance (0 when it holds nothing), from a
        /// previous reply. The responder may answer with only the entries
        /// written since.
        known: u32,
    },
    /// Reply to a `Collect` carrying the responder's view.
    CollectReply {
        /// Sequence number being answered.
        seq: CallSeq,
        /// The responder's current view of the requested instance, whole or
        /// as a delta against `known`.
        view: ViewTransfer,
    },
}

impl WireMessage {
    /// The sequence number of the communicate call this message belongs to.
    pub fn seq(&self) -> CallSeq {
        match self {
            WireMessage::Propagate { seq, .. }
            | WireMessage::Ack { seq }
            | WireMessage::Collect { seq, .. }
            | WireMessage::CollectReply { seq, .. } => *seq,
        }
    }

    /// Whether this is a request (sent by the caller of `communicate`).
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            WireMessage::Propagate { .. } | WireMessage::Collect { .. }
        )
    }

    /// Whether this is a reply (ack or collect reply).
    pub fn is_reply(&self) -> bool {
        !self.is_request()
    }
}

impl fmt::Display for WireMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireMessage::Propagate { seq, entries } => {
                write!(f, "propagate#{seq}({} entries)", entries.len())
            }
            WireMessage::Ack { seq } => write!(f, "ack#{seq}"),
            WireMessage::Collect {
                seq,
                instance,
                known,
            } => write!(f, "collect#{seq}({instance}, known={known})"),
            WireMessage::CollectReply { seq, view } => match view {
                ViewTransfer::Full(view) => {
                    write!(f, "collect-reply#{seq}(full, {} entries)", view.len())
                }
                ViewTransfer::Delta {
                    since,
                    version,
                    entries,
                } => write!(
                    f,
                    "collect-reply#{seq}(delta {since}→{version}, {} entries)",
                    entries.len()
                ),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ElectionContext;

    #[test]
    fn request_reply_classification() {
        let p = WireMessage::Propagate {
            seq: 1,
            entries: Vec::new().into(),
        };
        let a = WireMessage::Ack { seq: 1 };
        let c = WireMessage::Collect {
            seq: 2,
            instance: InstanceId::door(ElectionContext::Standalone),
            known: 0,
        };
        let r = WireMessage::CollectReply {
            seq: 2,
            view: ViewTransfer::Full(Arc::new(View::new())),
        };
        assert!(p.is_request() && c.is_request());
        assert!(a.is_reply() && r.is_reply());
        assert_eq!(p.seq(), 1);
        assert_eq!(r.seq(), 2);
    }

    #[test]
    fn display_includes_sequence_numbers() {
        let msg = WireMessage::Ack { seq: 17 };
        assert_eq!(msg.to_string(), "ack#17");
        let reply = WireMessage::CollectReply {
            seq: 4,
            view: ViewTransfer::Delta {
                since: 2,
                version: 5,
                entries: Vec::new().into(),
            },
        };
        assert_eq!(reply.to_string(), "collect-reply#4(delta 2→5, 0 entries)");
    }

    #[test]
    fn shared_broadcast_payload_is_refcounted_not_copied() {
        use crate::ids::ProcId;
        let entries: Arc<[(Key, Value)]> = vec![(
            Key::proc(InstanceId::Contended, ProcId(0)),
            Value::Flag(true),
        )]
        .into();
        let sends: Vec<WireMessage> = (0..8)
            .map(|i| WireMessage::Propagate {
                seq: i,
                entries: entries.clone(),
            })
            .collect();
        // One shared allocation: the original handle plus all eight sends.
        assert_eq!(Arc::strong_count(&entries), 9);
        drop(sends);
        assert_eq!(Arc::strong_count(&entries), 1);
    }

    #[test]
    fn transfer_version_accessors() {
        let mut view = View::new();
        view.insert(crate::ids::Slot::Global, Value::Flag(true));
        let full = ViewTransfer::Full(Arc::new(view));
        assert_eq!(full.version(), 1);

        let delta = ViewTransfer::Delta {
            since: 3,
            version: 9,
            entries: vec![(crate::ids::Slot::Global, Value::Flag(true))].into(),
        };
        assert_eq!(delta.version(), 9);
    }
}
