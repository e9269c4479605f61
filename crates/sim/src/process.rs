//! Per-processor simulation state.

use crate::observation::{ProcessObservation, ProcessPhase};
use fle_model::wire::CallSeq;
use fle_model::{BitRow, CollectedViews, Outcome, ProcId, Protocol, ReplicaStore, Response, View};
use std::sync::Arc;

/// What a participating processor is currently waiting for.
#[derive(Debug)]
pub enum PendingWork {
    /// The protocol has not been activated yet; the next step feeds
    /// [`Response::Start`].
    NotStarted,
    /// A local response (coin flip / random choice) has been computed and
    /// waits for the adversary to schedule the processor's next step.
    LocalResponse(Response),
    /// A `propagate` call is outstanding.
    AwaitingAcks {
        /// Sequence number of the call.
        seq: CallSeq,
        /// Number of acknowledgements so far (includes the caller itself).
        acked: usize,
        /// Which processors acknowledged (O(1) duplicate rejection).
        seen: BitRow,
    },
    /// A `collect` call is outstanding.
    AwaitingViews {
        /// Sequence number of the call.
        seq: CallSeq,
        /// Views received so far (includes the caller's own view), shared
        /// with the responders' copy-on-write snapshots.
        views: Vec<(ProcId, Arc<View>)>,
        /// Which responders are already counted (O(1) duplicate rejection).
        seen: BitRow,
    },
    /// The quorum has been reached and the response is ready to be consumed
    /// at the processor's next step.
    ResponseReady(Response),
    /// The protocol returned.
    Finished(Outcome),
}

/// A processor in the simulation.
///
/// Non-participating processors have `protocol = None`; they never take
/// protocol steps but still serve their [`ReplicaStore`] to others.
pub struct SimProcess {
    /// The processor's identifier.
    pub id: ProcId,
    /// The protocol this processor runs, if it participates.
    pub protocol: Option<Box<dyn Protocol>>,
    /// What the processor is waiting for.
    pub pending: PendingWork,
    /// The node's replica of all registers.
    pub replica: ReplicaStore,
    /// Whether the adversary crashed this processor.
    pub crashed: bool,
    /// Event index of the first protocol step (invocation time), if any.
    pub started_at: Option<u64>,
    /// Sequence number generator for communicate calls.
    pub next_seq: CallSeq,
    /// Slab slots of the messages belonging to this processor's *current*
    /// communicate call: its outgoing requests (where the engine stores a
    /// send at once) plus the replies addressed back to it. Lets the engine
    /// purge a completed call's leftover traffic in O(call size) instead of
    /// scanning every in-flight message.
    pub call_msgs: Vec<u32>,
    /// Number of coin words this processor has drawn from its per-processor
    /// stream (the `k` of `coin_word(seed, proc, k)`); unused (stays 0) in
    /// legacy global-stream mode. See [`crate::partition`].
    pub flips: u64,
}

impl std::fmt::Debug for SimProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimProcess")
            .field("id", &self.id)
            .field("participates", &self.protocol.is_some())
            .field("pending", &self.pending)
            .field("crashed", &self.crashed)
            .finish()
    }
}

impl SimProcess {
    /// A fresh processor with no protocol (pure replica).
    pub fn replica_only(id: ProcId) -> Self {
        SimProcess {
            id,
            protocol: None,
            pending: PendingWork::Finished(Outcome::Proceed),
            replica: ReplicaStore::new(),
            crashed: false,
            started_at: None,
            next_seq: 0,
            call_msgs: Vec::new(),
            flips: 0,
        }
    }

    /// Reset this node to the pristine `replica_only` state while keeping its
    /// call-message list allocated, for trial reuse through
    /// [`crate::SimArena`].
    pub fn recycle(&mut self, id: ProcId) {
        self.id = id;
        self.protocol = None;
        self.pending = PendingWork::Finished(Outcome::Proceed);
        self.replica.clear();
        self.crashed = false;
        self.started_at = None;
        self.next_seq = 0;
        self.call_msgs.clear();
        self.flips = 0;
    }

    /// Attach a protocol, turning the node into a participant.
    pub fn participate(&mut self, protocol: Box<dyn Protocol>) {
        self.protocol = Some(protocol);
        self.pending = PendingWork::NotStarted;
    }

    /// Whether this node runs a protocol.
    pub fn participates(&self) -> bool {
        self.protocol.is_some()
    }

    /// The final outcome, if the protocol has returned.
    pub fn outcome(&self) -> Option<Outcome> {
        match &self.pending {
            PendingWork::Finished(outcome) if self.protocol.is_some() => Some(*outcome),
            _ => None,
        }
    }

    /// Whether this participant still has work to do (not crashed, not done).
    pub fn is_live_participant(&self) -> bool {
        self.participates() && !self.crashed && self.outcome().is_none()
    }

    /// Whether the adversary can usefully schedule a step for this processor
    /// right now.
    pub fn step_enabled(&self) -> bool {
        if self.crashed || !self.participates() {
            return false;
        }
        matches!(
            self.pending,
            PendingWork::NotStarted | PendingWork::LocalResponse(_) | PendingWork::ResponseReady(_)
        )
    }

    /// The lifecycle phase the adversary observes.
    pub fn phase(&self) -> ProcessPhase {
        if self.crashed {
            return ProcessPhase::Crashed;
        }
        if !self.participates() {
            return ProcessPhase::Idle;
        }
        match &self.pending {
            PendingWork::NotStarted => ProcessPhase::NotStarted,
            PendingWork::LocalResponse(_) | PendingWork::ResponseReady(_) => {
                ProcessPhase::StepReady
            }
            PendingWork::AwaitingAcks { .. } | PendingWork::AwaitingViews { .. } => {
                ProcessPhase::AwaitingQuorum
            }
            PendingWork::Finished(_) => ProcessPhase::Finished,
        }
    }

    /// The adversary's observation of this processor: its phase plus the
    /// protocol's inspectable local state.
    pub fn observation(&self) -> ProcessObservation {
        ProcessObservation {
            proc: self.id,
            phase: self.phase(),
            local_state: self.protocol.as_ref().map(|proto| proto.adversary_view()),
        }
    }

    /// Whether call `seq` is this processor's outstanding communicate call.
    #[inline]
    pub fn awaits(&self, seq: CallSeq) -> bool {
        matches!(
            self.pending,
            PendingWork::AwaitingAcks { seq: s, .. } | PendingWork::AwaitingViews { seq: s, .. }
                if s == seq
        )
    }

    /// Allocate a fresh communicate-call sequence number.
    ///
    /// # Panics
    /// Panics past `u32::MAX` calls of one processor rather than reuse a
    /// sequence number.
    pub fn fresh_seq(&mut self) -> CallSeq {
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("a processor made more than u32::MAX communicate calls");
        self.next_seq
    }

    /// Record an acknowledgement for the outstanding propagate call, then
    /// [`SimProcess::complete_quorum`].
    pub fn record_ack(&mut self, from: ProcId, seq: CallSeq, quorum: usize) -> Option<CallSeq> {
        if let PendingWork::AwaitingAcks {
            seq: want,
            acked,
            seen,
        } = &mut self.pending
        {
            if *want == seq && seen.set(from.index()) {
                *acked += 1;
            }
        }
        self.complete_quorum(quorum)
    }

    /// Record a collect reply for the outstanding collect call, then
    /// [`SimProcess::complete_quorum`].
    pub fn record_view(
        &mut self,
        from: ProcId,
        seq: CallSeq,
        view: Arc<View>,
        quorum: usize,
    ) -> Option<CallSeq> {
        if let PendingWork::AwaitingViews {
            seq: want,
            views,
            seen,
        } = &mut self.pending
        {
            if *want == seq && seen.set(from.index()) {
                views.push((from, view));
            }
        }
        self.complete_quorum(quorum)
    }

    /// If the outstanding call has `quorum` replies (the caller's own
    /// included), promote the pending state to
    /// [`PendingWork::ResponseReady`] and return the completed call's
    /// sequence number.
    pub fn complete_quorum(&mut self, quorum: usize) -> Option<CallSeq> {
        let (seq, response) = match &mut self.pending {
            PendingWork::AwaitingAcks { seq, acked, .. } if *acked >= quorum => {
                (*seq, Response::AckQuorum)
            }
            PendingWork::AwaitingViews { seq, views, .. } if views.len() >= quorum => {
                let views = std::mem::take(views);
                (*seq, Response::Views(CollectedViews::from_shared(views)))
            }
            _ => return None,
        };
        self.pending = PendingWork::ResponseReady(response);
        Some(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_model::{Action, LocalStateView};

    struct Nop;
    impl Protocol for Nop {
        fn step(&mut self, _response: Response) -> Action {
            Action::Return(Outcome::Lose)
        }
        fn adversary_view(&self) -> LocalStateView {
            LocalStateView::new("nop", "nop")
        }
    }

    #[test]
    fn replica_only_nodes_never_step() {
        let p = SimProcess::replica_only(ProcId(2));
        assert!(!p.participates());
        assert!(!p.step_enabled());
        assert_eq!(p.outcome(), None);
    }

    #[test]
    fn participant_lifecycle() {
        let mut p = SimProcess::replica_only(ProcId(0));
        p.participate(Box::new(Nop));
        assert!(p.participates());
        assert!(p.step_enabled());
        assert!(p.is_live_participant());

        p.pending = PendingWork::Finished(Outcome::Win);
        assert_eq!(p.outcome(), Some(Outcome::Win));
        assert!(!p.is_live_participant());
    }

    #[test]
    fn ack_quorum_promotes_pending_state() {
        let mut p = SimProcess::replica_only(ProcId(0));
        p.participate(Box::new(Nop));
        let mut seen = BitRow::new();
        seen.set(0);
        p.pending = PendingWork::AwaitingAcks {
            seq: 1,
            acked: 1,
            seen,
        };
        p.record_ack(ProcId(1), 1, 3);
        assert!(!p.step_enabled(), "two of three acks is not a quorum");
        // A stale ack for another sequence number is ignored.
        p.record_ack(ProcId(2), 9, 3);
        assert!(!p.step_enabled());
        p.record_ack(ProcId(2), 1, 3);
        assert!(p.step_enabled(), "quorum reached, step becomes enabled");
    }

    #[test]
    fn duplicate_views_do_not_count_twice() {
        let mut p = SimProcess::replica_only(ProcId(0));
        p.participate(Box::new(Nop));
        let mut seen = BitRow::new();
        seen.set(0);
        p.pending = PendingWork::AwaitingViews {
            seq: 4,
            views: vec![(ProcId(0), Arc::new(View::new()))],
            seen,
        };
        p.record_view(ProcId(1), 4, Arc::new(View::new()), 3);
        p.record_view(ProcId(1), 4, Arc::new(View::new()), 3);
        assert!(
            !p.step_enabled(),
            "duplicate responder must not fill the quorum"
        );
        // A reply to an earlier call is ignored, and does not mark its
        // responder as heard from.
        p.record_view(ProcId(2), 3, Arc::new(View::new()), 3);
        assert!(!p.step_enabled(), "a stale reply must not fill the quorum");
        p.record_view(ProcId(2), 4, Arc::new(View::new()), 3);
        assert!(p.step_enabled());
    }

    #[test]
    fn fresh_seq_is_monotone() {
        let mut p = SimProcess::replica_only(ProcId(0));
        let a = p.fresh_seq();
        let b = p.fresh_seq();
        assert!(b > a);
    }

    #[test]
    fn recycle_restores_the_pristine_state() {
        let mut p = SimProcess::replica_only(ProcId(0));
        p.participate(Box::new(Nop));
        p.crashed = true;
        p.next_seq = 9;
        p.call_msgs.push(3);
        p.replica.apply(
            fle_model::Key::global(fle_model::InstanceId::Contended),
            &fle_model::Value::Flag(true),
        );
        p.recycle(ProcId(5));
        assert_eq!(p.id, ProcId(5));
        assert!(!p.participates() && !p.crashed);
        assert_eq!(p.next_seq, 0);
        assert!(p.call_msgs.is_empty());
        assert!(p.replica.is_empty());
    }
}
