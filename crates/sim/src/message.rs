//! In-flight messages and their identifiers.

use fle_model::{ProcId, WireMessage};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a message travelling through the network.
///
/// Identifiers are assigned in send order and never reused, so they double as
/// a deterministic tiebreaker for adversaries.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A message that has been sent but not yet delivered.
///
/// Every undelivered message of an execution is one slab or batch entry of
/// this type, or part of one (a partition batches a broadcast's requests as
/// one entry, a record, and its built replies to one broadcast as one, a
/// reply run), so it is kept to 40 bytes: the id, the payload and the two
/// endpoints stored as `u32` (read them through [`InFlightMessage::from`]
/// and [`InFlightMessage::to`]), nothing else. Adversaries see only
/// [`InFlightMessage::to_event`]'s fields; an age-based policy can order by
/// id, which is assigned in send order.
#[derive(Debug, Clone, PartialEq)]
pub struct InFlightMessage {
    /// The message identifier.
    pub id: MessageId,
    from: u32,
    to: u32,
    /// Payload.
    pub payload: WireMessage,
}

const _: () = assert!(std::mem::size_of::<InFlightMessage>() == 40);
const _: () = assert!(std::mem::size_of::<Option<InFlightMessage>>() == 40);

/// A message endpoint as messages store it.
///
/// # Panics
/// Panics if the id does not fit in `u32`; it never wraps.
#[inline]
pub(crate) fn endpoint(proc: ProcId) -> u32 {
    u32::try_from(proc.index())
        .unwrap_or_else(|_| panic!("{proc} does not fit a message endpoint, which is u32"))
}

impl InFlightMessage {
    /// The message `id` from `from` to `to`.
    ///
    /// # Panics
    /// Panics if an endpoint's id does not fit in `u32`.
    #[inline]
    pub fn new(id: MessageId, from: ProcId, to: ProcId, payload: WireMessage) -> Self {
        InFlightMessage {
            id,
            from: endpoint(from),
            to: endpoint(to),
            payload,
        }
    }

    /// Sender.
    #[inline]
    pub fn from(&self) -> ProcId {
        ProcId(self.from as usize)
    }

    /// Recipient.
    #[inline]
    pub fn to(&self) -> ProcId {
        ProcId(self.to as usize)
    }

    /// Whether the payload is a request (propagate or collect).
    pub fn is_request(&self) -> bool {
        self.payload.is_request()
    }

    /// Whether the payload is a reply (ack or collect reply).
    pub fn is_reply(&self) -> bool {
        self.payload.is_reply()
    }

    /// The adversary-visible delivery event for this message. Single source
    /// of truth for which message fields adversaries may see.
    pub fn to_event(&self) -> crate::observation::EnabledEvent {
        crate::observation::EnabledEvent::Deliver {
            id: self.id,
            from: self.from(),
            to: self.to(),
            is_request: self.is_request(),
        }
    }
}

impl fmt::Display for InFlightMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (from, to) = (self.from(), self.to());
        write!(f, "{} {from}→{to} {}", self.id, self.payload)
    }
}

/// The in-flight message store: a slab with a free-list.
///
/// Replaces the engine's former `BTreeMap<MessageId, InFlightMessage>`:
/// insertion reuses freed slots (so memory stays proportional to the peak
/// number of concurrently in-flight messages), and every access is a direct
/// array index instead of a tree walk. Slot indices are engine-internal; the
/// stable, adversary-visible identifier remains the [`MessageId`].
#[derive(Debug, Default)]
pub struct MessageSlab {
    slots: Vec<Option<InFlightMessage>>,
    free: Vec<u32>,
    live: usize,
}

impl MessageSlab {
    /// An empty slab.
    pub fn new() -> Self {
        MessageSlab::default()
    }

    /// Number of stored messages.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the slab stores no messages.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots ever allocated (live + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Store a message, reusing a freed slot when one exists.
    pub fn insert(&mut self, message: InFlightMessage) -> u32 {
        self.live += 1;
        let slot = if let Some(slot) = self.free.pop() {
            debug_assert!(self.slots[slot as usize].is_none());
            self.slots[slot as usize] = Some(message);
            slot
        } else {
            self.slots.push(Some(message));
            (self.slots.len() - 1) as u32
        };
        self.debug_check_invariants();
        slot
    }

    /// Remove and return the message in `slot`, freeing the slot.
    pub fn remove(&mut self, slot: u32) -> Option<InFlightMessage> {
        let message = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        self.live -= 1;
        self.debug_check_invariants();
        Some(message)
    }

    /// Empty the slab while keeping its allocations, for trial reuse through
    /// [`crate::SimArena`]. Afterwards the slab behaves exactly like a fresh
    /// one: slot 0 is handed out first and the free list is empty.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
    }

    /// The structural invariant (`live + free = allocated`), checked after
    /// every mutation in debug builds only. Deliberately O(1) and
    /// allocation-free — no scan, no collecting ids into a scratch vector —
    /// so it can neither slow the hot path nor distort allocation-sensitive
    /// measurements; the per-slot conditions are asserted at the touch site.
    #[inline]
    fn debug_check_invariants(&self) {
        debug_assert_eq!(
            self.live + self.free.len(),
            self.slots.len(),
            "every slot is either occupied or on the free list"
        );
    }

    /// The message in `slot`, if the slot is occupied.
    pub fn get(&self, slot: u32) -> Option<&InFlightMessage> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Iterate over `(slot, message)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &InFlightMessage)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, entry)| Some((slot as u32, entry.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(id: u64) -> InFlightMessage {
        let payload = WireMessage::Ack { seq: id as u32 };
        InFlightMessage::new(MessageId(id), ProcId(0), ProcId(1), payload)
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut slab = MessageSlab::new();
        let a = slab.insert(message(0));
        let b = slab.insert(message(1));
        assert_ne!(a, b);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.remove(a).unwrap().id, MessageId(0));
        assert_eq!(slab.remove(a), None, "double remove is a no-op");
        let c = slab.insert(message(2));
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!(slab.capacity(), 2);
        assert_eq!(slab.get(b).unwrap().id, MessageId(1));
        let ids: Vec<u64> = slab.iter().map(|(_, m)| m.id.0).collect();
        assert_eq!(ids, vec![2, 1], "iteration is in slot order");
    }

    #[test]
    fn classification_follows_payload() {
        let msg = InFlightMessage::new(
            MessageId(1),
            ProcId(0),
            ProcId(1),
            WireMessage::Ack { seq: 3 },
        );
        assert!(msg.is_reply());
        assert!(!msg.is_request());
        assert!(msg.to_string().contains("p0→p1"));
    }

    #[test]
    fn endpoints_keep_u32_ids_and_panic_past_them() {
        let top = ProcId(u32::MAX as usize);
        let msg = InFlightMessage::new(MessageId(0), top, ProcId(0), WireMessage::Ack { seq: 1 });
        assert_eq!((msg.from(), msg.to()), (top, ProcId(0)));
        let past = ProcId(u32::MAX as usize + 1);
        let ack = || WireMessage::Ack { seq: 1 };
        let from =
            std::panic::catch_unwind(|| InFlightMessage::new(MessageId(0), past, top, ack()));
        let to = std::panic::catch_unwind(|| InFlightMessage::new(MessageId(0), top, past, ack()));
        assert!(
            from.is_err() && to.is_err(),
            "an endpoint past u32 must not wrap"
        );
    }

    #[test]
    fn message_ids_order_by_send_order() {
        assert!(MessageId(1) < MessageId(2));
        assert_eq!(MessageId(5).to_string(), "m5");
    }
}
