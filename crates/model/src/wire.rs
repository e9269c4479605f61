//! Wire messages exchanged between processors.
//!
//! Both simulator engines implement the `communicate` primitive of ABND95
//! with the same four message kinds: a propagate and its acknowledgement,
//! and a collect and its reply. Message complexity is counted per
//! [`WireMessage`] sent, which matches the paper's accounting (a
//! communicate call costs `n` requests plus up to `n` replies, i.e. `O(n)`
//! messages) — the accounting counts messages, not bytes, so the in-memory
//! payload representation is free to be optimized:
//!
//! * [`WireMessage::Propagate`] carries its register writes behind an
//!   `Arc<[(Key, Value)]>` built **once** per communicate call and
//!   refcount-shared across all `n − 1` sends, so broadcasting is O(1) per
//!   recipient instead of one entry-list clone each.
//! * [`WireMessage::CollectReply`] carries the responder's whole view as a
//!   copy-on-write snapshot ([`crate::ReplicaStore::view_arc`]): producing
//!   it is a refcount bump, and a view is a join-semilattice, so the whole
//!   state is always a correct reply whatever the requester holds already.
//! * [`WireMessage::Replies`] is not a message of the model but a bundle
//!   of them: the partitioned simulator's answers of one partition to one
//!   broadcast, which never leave that engine.

use crate::ids::InstanceId;
use crate::value::{Key, Value};
use crate::view::View;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Sequence number identifying one `communicate` call of one processor.
pub type CallSeq = u32;

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
    },
    /// Reply to a `Collect` carrying the responder's view.
    CollectReply {
        /// Sequence number being answered.
        seq: CallSeq,
        /// A copy-on-write snapshot of the responder's current view of the
        /// requested instance: the slot blocks are only copied if the
        /// responder keeps writing while the snapshot is alive.
        view: Arc<View>,
    },
    /// A **reply run**: one partition's replies to one broadcast of the
    /// partitioned simulator, which never leave that engine. It stands for
    /// `count` replies to the caller under consecutive message ids, one from
    /// each of the partition's answerers in ascending order. Only the first
    /// `built.len()` are built, those that can complete the call's quorum:
    /// the `i`-th comes from processor `built[i].0` and carries the
    /// responder's view snapshot for a collect, nothing for an ack. The box
    /// keeps the variant within the size of the others.
    Replies {
        /// Sequence number being answered.
        seq: CallSeq,
        /// How many replies, built or not, the run stands for.
        count: u32,
        /// The built replies' responders, ascending, each with its view
        /// snapshot for a collect.
        built: Box<Vec<(u32, Option<Arc<View>>)>>,
    },
}

impl WireMessage {
    /// The sequence number of the communicate call this message belongs to.
    pub fn seq(&self) -> CallSeq {
        match self {
            WireMessage::Propagate { seq, .. }
            | WireMessage::Ack { seq }
            | WireMessage::Collect { seq, .. }
            | WireMessage::CollectReply { seq, .. }
            | WireMessage::Replies { seq, .. } => *seq,
        }
    }

    /// Whether this is a request (sent by the caller of `communicate`).
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            WireMessage::Propagate { .. } | WireMessage::Collect { .. }
        )
    }

    /// Whether this is a reply (ack, collect reply or reply run).
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
            WireMessage::Collect { seq, instance } => write!(f, "collect#{seq}({instance})"),
            WireMessage::CollectReply { seq, view } => {
                write!(f, "collect-reply#{seq}({} entries)", view.len())
            }
            WireMessage::Replies { seq, count, built } => {
                write!(f, "replies#{seq}({} of {count} built)", built.len())
            }
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
        };
        let r = WireMessage::CollectReply {
            seq: 2,
            view: Arc::new(View::new()),
        };
        let run = WireMessage::Replies {
            seq: 3,
            count: 5,
            built: Box::new(vec![(4, None)]),
        };
        assert!(p.is_request() && c.is_request());
        assert!(a.is_reply() && r.is_reply() && run.is_reply());
        assert_eq!(p.seq(), 1);
        assert_eq!(r.seq(), 2);
        assert_eq!(run.seq(), 3);
        assert_eq!(run.to_string(), "replies#3(1 of 5 built)");
    }

    #[test]
    fn display_includes_sequence_numbers() {
        let msg = WireMessage::Ack { seq: 17 };
        assert_eq!(msg.to_string(), "ack#17");
        let reply = WireMessage::CollectReply {
            seq: 4,
            view: Arc::new(View::new()),
        };
        assert_eq!(reply.to_string(), "collect-reply#4(0 entries)");
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
}
