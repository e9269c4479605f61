//! The per-node thread: replica service plus protocol driver.
//!
//! A node is two things at once: a **replica** that answers
//! `propagate`/`collect` requests for every register instance, and — when it
//! participates — a **processor** driving its protocol state machine. The
//! protocol side is expressed through the [`SharedMemory`] contract: the
//! node implements `propagate`/`collect` by broadcasting the corresponding
//! [`WireMessage`]s and serving its inbox until a quorum has answered, and
//! the protocol itself is advanced by the backend-agnostic
//! [`fle_model::drive`] loop. While a communicate call is outstanding the
//! node keeps serving replica requests from other nodes, so quorums always
//! form as long as a majority of nodes is responsive.

use crate::RuntimeConfig;
use crossbeam_channel::{Receiver, Sender};
use fle_model::wire::CallSeq;
use fle_model::{
    CollectedViews, InstanceId, Key, Outcome, ProcId, ProcessMetrics, Protocol, ReplicaStore,
    SharedMemory, Value, View, WireMessage,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;

/// A message travelling between node threads.
#[derive(Debug)]
pub enum Envelope {
    /// A protocol message from another node.
    Wire {
        /// The sending node.
        from: ProcId,
        /// The payload.
        message: WireMessage,
    },
    /// Orderly shutdown request from the coordinator.
    Shutdown,
}

/// What a node thread hands back to the coordinator when it stops.
#[derive(Debug)]
pub struct NodeResult {
    /// The protocol outcome, if this node participated.
    pub outcome: Option<Outcome>,
    /// The node's complexity counters.
    pub metrics: ProcessMetrics,
}

/// State of the outstanding communicate call, if any.
///
/// The quorum state machine: a `Propagate` counts acknowledgements
/// (including the implicit self-ack), a `Collect` accumulates one view per
/// responder (including the own replica's view), and replies are accepted
/// only when their sequence number matches the outstanding call — stale
/// replies from a completed call are dropped, and collect replies are
/// additionally deduplicated by responder (acks need no responder tracking:
/// the transport produces exactly one ack per propagate per peer).
#[derive(Debug)]
pub(crate) enum Outstanding {
    /// No communicate call in flight.
    None,
    /// A `Propagate` awaiting acknowledgements.
    Acks {
        /// Sequence number of the call.
        seq: CallSeq,
        /// Acknowledgements received so far (self included).
        received: usize,
    },
    /// A `Collect` awaiting views.
    Views {
        /// Sequence number of the call.
        seq: CallSeq,
        /// One view per responder that has answered (self included).
        views: Vec<(ProcId, Arc<View>)>,
    },
}

/// A node thread: serves its replica to everyone and, if it participates,
/// drives its protocol state machine by performing communicate calls.
pub struct NodeRunner {
    me: ProcId,
    config: RuntimeConfig,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    protocol: Option<Box<dyn Protocol + Send>>,
    done_tx: Sender<ProcId>,
    replica: ReplicaStore,
    rng: ChaCha8Rng,
    metrics: ProcessMetrics,
    next_seq: CallSeq,
    outstanding: Outstanding,
    outcome: Option<Outcome>,
    unresponsive: bool,
    /// Set when the inbox disconnects or a shutdown arrives while a
    /// communicate call is outstanding; the wait loops stop blocking.
    stopped: bool,
}

impl NodeRunner {
    /// Build the runner for node `me`.
    pub fn new(
        me: ProcId,
        config: RuntimeConfig,
        senders: Vec<Sender<Envelope>>,
        inbox: Receiver<Envelope>,
        protocol: Option<Box<dyn Protocol + Send>>,
        done_tx: Sender<ProcId>,
    ) -> Self {
        let unresponsive = config.unresponsive.contains(&me);
        let rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(me.index() as u64 * 0x9e37));
        NodeRunner {
            me,
            config,
            senders,
            inbox,
            protocol,
            done_tx,
            replica: ReplicaStore::new(),
            rng,
            metrics: ProcessMetrics::default(),
            next_seq: 0,
            outstanding: Outstanding::None,
            outcome: None,
            unresponsive,
            stopped: false,
        }
    }

    /// Run the node until shutdown; returns the outcome and metrics.
    pub fn run(mut self) -> NodeResult {
        // Drive the protocol to completion, if any; the SharedMemory
        // implementation below keeps serving replica requests while its
        // communicate calls wait for quorums.
        if let Some(mut protocol) = self.protocol.take() {
            if !self.unresponsive {
                let outcome = fle_model::drive(protocol.as_mut(), &mut self);
                self.outstanding = Outstanding::None;
                // An outcome reached after the coordinator abandoned the
                // execution (`stopped`) was computed from fabricated
                // communicate results while the protocol unwound; never
                // report it as genuine.
                if !self.stopped {
                    self.outcome = Some(outcome);
                    let _ = self.done_tx.send(self.me);
                }
            }
        }

        // Serve replica requests until the coordinator shuts us down.
        while !self.stopped {
            match self.inbox.recv() {
                Ok(Envelope::Shutdown) | Err(_) => break,
                Ok(Envelope::Wire { from, message }) => {
                    self.maybe_delay();
                    self.handle_wire(from, message);
                }
            }
        }

        NodeResult {
            outcome: self.outcome,
            metrics: self.metrics,
        }
    }

    fn maybe_delay(&mut self) {
        if self.config.max_delay_micros > 0 {
            let delay = self.rng.gen_range(0..=self.config.max_delay_micros);
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
            }
        }
    }

    /// Serve the inbox until the outstanding communicate call has gathered a
    /// quorum, then hand back its result.
    ///
    /// A shutdown or a disconnected inbox while waiting means the
    /// coordinator has abandoned the execution; the call completes with
    /// whatever was gathered so the protocol can unwind instead of blocking
    /// forever.
    fn await_quorum(&mut self) -> Outstanding {
        while !self.quorum_reached() && !self.stopped {
            match self.inbox.recv() {
                Ok(Envelope::Wire { from, message }) => {
                    self.maybe_delay();
                    self.handle_wire(from, message);
                }
                Ok(Envelope::Shutdown) | Err(_) => self.stopped = true,
            }
        }
        std::mem::replace(&mut self.outstanding, Outstanding::None)
    }

    fn handle_wire(&mut self, from: ProcId, message: WireMessage) {
        self.metrics.messages_received += 1;
        match message {
            WireMessage::Propagate { seq, entries } => {
                self.replica.apply_all(&entries);
                if !self.unresponsive {
                    self.send(from, WireMessage::Ack { seq });
                }
            }
            WireMessage::Collect { seq, instance } => {
                if !self.unresponsive {
                    let view = self.replica.view_arc(instance);
                    self.send(from, WireMessage::CollectReply { seq, view });
                }
            }
            WireMessage::Ack { seq } => {
                if let Outstanding::Acks {
                    seq: want,
                    received,
                } = &mut self.outstanding
                {
                    if *want == seq {
                        *received += 1;
                    }
                }
            }
            WireMessage::CollectReply { seq, view } => {
                if let Outstanding::Views { seq: want, views } = &mut self.outstanding {
                    if *want == seq && !views.iter().any(|(p, _)| *p == from) {
                        views.push((from, view));
                    }
                }
            }
        }
    }

    fn quorum_reached(&self) -> bool {
        let quorum = self.config.quorum();
        match &self.outstanding {
            Outstanding::None => false,
            Outstanding::Acks { received, .. } => *received >= quorum,
            Outstanding::Views { views, .. } => views.len() >= quorum,
        }
    }

    /// Owned copy of the replica's view (test helper; the hot paths use the
    /// copy-on-write `view_arc` instead).
    #[cfg(test)]
    fn view_of(&self, instance: InstanceId) -> View {
        self.replica.view_of(instance)
    }

    fn broadcast(&mut self, message: WireMessage) {
        for index in 0..self.config.n {
            if index == self.me.index() {
                continue;
            }
            self.send(ProcId(index), message.clone());
        }
    }

    fn send(&mut self, to: ProcId, message: WireMessage) {
        self.metrics.messages_sent += 1;
        let _ = self.senders[to.index()].send(Envelope::Wire {
            from: self.me,
            message,
        });
    }
}

impl SharedMemory for NodeRunner {
    fn propagate(&mut self, entries: Vec<(Key, Value)>) {
        self.metrics.communicate_calls += 1;
        self.next_seq += 1;
        let seq = self.next_seq;
        // The own replica absorbs the writes immediately: the implicit
        // self-acknowledgement below.
        self.replica.apply_all(&entries);
        self.outstanding = Outstanding::Acks { seq, received: 1 };
        // The entry list is built once; every send of the broadcast clones
        // only the refcount.
        self.broadcast(WireMessage::Propagate {
            seq,
            entries: entries.into(),
        });
        let _ = self.await_quorum();
    }

    fn collect(&mut self, instance: InstanceId) -> CollectedViews {
        self.metrics.communicate_calls += 1;
        self.next_seq += 1;
        let seq = self.next_seq;
        let own_view = self.replica.view_arc(instance);
        self.outstanding = Outstanding::Views {
            seq,
            views: vec![(self.me, own_view)],
        };
        self.broadcast(WireMessage::Collect { seq, instance });
        match self.await_quorum() {
            Outstanding::Views { views, .. } => CollectedViews::from_shared(views),
            _ => CollectedViews::default(),
        }
    }

    fn flip(&mut self, prob_one: f64) -> bool {
        self.metrics.coin_flips += 1;
        self.rng.gen_bool(prob_one.clamp(0.0, 1.0))
    }

    fn choose(&mut self, choices: &[u64]) -> u64 {
        self.metrics.coin_flips += 1;
        if choices.is_empty() {
            0
        } else {
            choices[self.rng.gen_range(0..choices.len())]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;
    use fle_model::InstanceId;

    fn test_node(
        n: usize,
        me: ProcId,
        config: RuntimeConfig,
    ) -> (NodeRunner, Vec<Receiver<Envelope>>) {
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let inbox = receivers.remove(me.index());
        let (done_tx, _done_rx) = unbounded();
        let node = NodeRunner::new(me, config, senders, inbox, None, done_tx);
        // `receivers` now holds the inboxes of every *other* node, in id
        // order with `me` removed.
        (node, receivers)
    }

    #[test]
    fn replica_view_filters_by_instance() {
        let (mut node, _peers) = test_node(1, ProcId(0), RuntimeConfig::new(1));
        let door = InstanceId::door(fle_model::ElectionContext::Standalone);
        node.replica.apply(Key::global(door), &Value::Flag(true));
        node.replica
            .apply(Key::name(InstanceId::Contended, 2), &Value::Flag(true));
        assert_eq!(node.view_of(door).len(), 1);
        assert_eq!(node.view_of(InstanceId::Contended).len(), 1);
        assert!(node
            .view_of(InstanceId::round(fle_model::ElectionContext::Standalone))
            .is_empty());
    }

    #[test]
    fn unresponsive_nodes_absorb_requests_silently() {
        let (mut node, peers) = test_node(
            2,
            ProcId(1),
            RuntimeConfig::new(2).with_unresponsive([ProcId(1)]),
        );
        node.handle_wire(
            ProcId(0),
            WireMessage::Propagate {
                seq: 1,
                entries: vec![(Key::name(InstanceId::Contended, 0), Value::Flag(true))].into(),
            },
        );
        // The write is applied (messages still reach faulty processors)...
        assert_eq!(node.view_of(InstanceId::Contended).len(), 1);
        // ...but no acknowledgement is produced.
        assert!(peers[0].try_recv().is_err());
        assert_eq!(node.metrics.messages_sent, 0);
        assert_eq!(node.metrics.messages_received, 1);
    }

    #[test]
    fn acks_count_only_for_the_outstanding_sequence_number() {
        let (mut node, _peers) = test_node(5, ProcId(0), RuntimeConfig::new(5));
        node.outstanding = Outstanding::Acks {
            seq: 7,
            received: 1,
        };
        // A stale ack from an earlier call is ignored.
        node.handle_wire(ProcId(1), WireMessage::Ack { seq: 6 });
        assert!(matches!(
            node.outstanding,
            Outstanding::Acks { received: 1, .. }
        ));
        assert!(!node.quorum_reached());
        // Matching acks accumulate; quorum for n = 5 is 3.
        node.handle_wire(ProcId(1), WireMessage::Ack { seq: 7 });
        assert!(!node.quorum_reached());
        node.handle_wire(ProcId(2), WireMessage::Ack { seq: 7 });
        assert!(matches!(
            node.outstanding,
            Outstanding::Acks { received: 3, .. }
        ));
        assert!(node.quorum_reached());
    }

    #[test]
    fn duplicate_and_stale_collect_replies_are_dropped() {
        let (mut node, _peers) = test_node(3, ProcId(0), RuntimeConfig::new(3));
        node.outstanding = Outstanding::Views {
            seq: 2,
            views: vec![(ProcId(0), Arc::new(View::new()))],
        };
        let reply = |seq| WireMessage::CollectReply {
            seq,
            view: Arc::new(View::new()),
        };
        // A reply for a completed call's sequence number is ignored.
        node.handle_wire(ProcId(1), reply(1));
        assert!(!node.quorum_reached());
        // The first matching reply from p1 is recorded...
        node.handle_wire(ProcId(1), reply(2));
        assert!(node.quorum_reached());
        // ...and a duplicate from the same responder is not double-counted.
        node.handle_wire(ProcId(1), reply(2));
        match &node.outstanding {
            Outstanding::Views { views, .. } => assert_eq!(views.len(), 2),
            other => panic!("expected an outstanding collect, got {other:?}"),
        }
    }

    #[test]
    fn no_outstanding_call_never_reaches_quorum() {
        let (mut node, _peers) = test_node(1, ProcId(0), RuntimeConfig::new(1));
        assert!(!node.quorum_reached());
        // Replies without an outstanding call are absorbed without panicking.
        node.handle_wire(ProcId(0), WireMessage::Ack { seq: 3 });
        assert!(!node.quorum_reached());
    }

    #[test]
    fn propagate_on_a_lone_node_completes_without_traffic() {
        let (mut node, _peers) = test_node(1, ProcId(0), RuntimeConfig::new(1));
        node.propagate(vec![(
            Key::name(InstanceId::Contended, 0),
            Value::Flag(true),
        )]);
        assert_eq!(node.metrics.communicate_calls, 1);
        assert_eq!(node.metrics.messages_sent, 0);
        assert!(matches!(node.outstanding, Outstanding::None));
        // The own replica absorbed the write; a collect sees it immediately.
        let views = node.collect(InstanceId::Contended);
        assert_eq!(views.len(), 1);
        assert_eq!(views.responses()[0].1.len(), 1);
    }

    #[test]
    fn quorum_of_one_completes_immediately() {
        // A single-node system completes its communicate calls without any
        // network traffic; the protocol runs to completion inside run().
        struct WinOnSecondStep {
            stepped: bool,
        }
        impl Protocol for WinOnSecondStep {
            fn step(&mut self, _response: fle_model::Response) -> fle_model::Action {
                if self.stepped {
                    fle_model::Action::Return(Outcome::Win)
                } else {
                    self.stepped = true;
                    fle_model::Action::Propagate {
                        entries: vec![(Key::name(InstanceId::Contended, 0), Value::Flag(true))],
                    }
                }
            }
            fn adversary_view(&self) -> fle_model::LocalStateView {
                fle_model::LocalStateView::new("win-on-second-step", "x")
            }
        }

        let (tx, rx) = unbounded();
        let (done_tx, done_rx) = unbounded();
        // Pre-load a shutdown envelope so `run` terminates after the protocol.
        tx.send(Envelope::Shutdown).unwrap();
        let node = NodeRunner::new(
            ProcId(0),
            RuntimeConfig::new(1),
            vec![tx],
            rx,
            Some(Box::new(WinOnSecondStep { stepped: false })),
            done_tx,
        );
        let result = node.run();
        assert_eq!(result.outcome, Some(Outcome::Win));
        assert_eq!(result.metrics.communicate_calls, 1);
        assert_eq!(done_rx.try_recv().unwrap(), ProcId(0));
    }
}
