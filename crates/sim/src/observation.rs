//! What adversaries see and what they may decide.

use crate::event_set::{IndexedBitSet, OrderedMsgSet};
use crate::message::{MessageId, MessageSlab};
use fle_model::{LocalStateView, ProcId};

/// The lifecycle phase of a processor as visible to the adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessPhase {
    /// The node does not run a protocol (pure replica).
    Idle,
    /// Participant that has not yet been scheduled for its first step.
    NotStarted,
    /// Participant waiting for the adversary to schedule a computation step.
    StepReady,
    /// Participant waiting for quorum replies to an outstanding communicate
    /// call.
    AwaitingQuorum,
    /// Participant that has returned.
    Finished,
    /// Crashed by the adversary.
    Crashed,
}

/// The adversary's per-processor observation: lifecycle phase plus the local
/// state the strong adversary is allowed to inspect (coin flips, round, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessObservation {
    /// The processor this observation describes.
    pub proc: ProcId,
    /// Lifecycle phase.
    pub phase: ProcessPhase,
    /// Inspectable protocol state; `None` for idle replicas.
    pub local_state: Option<LocalStateView>,
}

/// A schedulable event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnabledEvent {
    /// Schedule a computation step of the given processor.
    Step(ProcId),
    /// Deliver the given in-flight message.
    Deliver {
        /// The message to deliver.
        id: MessageId,
        /// Its sender.
        from: ProcId,
        /// Its recipient.
        to: ProcId,
        /// Whether the message is a request (`propagate`/`collect`) as
        /// opposed to a reply.
        is_request: bool,
    },
}

impl EnabledEvent {
    /// The processor whose progress this event primarily advances: the
    /// stepping processor for a step, the *recipient* for a reply delivery
    /// (the caller waiting for the quorum) and the *sender* for a request
    /// delivery (the caller whose broadcast is being serviced).
    pub fn advances(&self) -> ProcId {
        match self {
            EnabledEvent::Step(p) => *p,
            EnabledEvent::Deliver {
                from,
                to,
                is_request,
                ..
            } => {
                if *is_request {
                    *from
                } else {
                    *to
                }
            }
        }
    }
}

/// The enabled events offered to the adversary, in the stable order
/// *steps by ascending processor id, then deliveries by ascending message
/// id*.
///
/// This is an indexed **view** over the engine's incrementally maintained
/// event indexes rather than a freshly allocated `Vec`: [`EnabledEvents::len`]
/// and [`EnabledEvents::get`] are O(1)/O(log) regardless of system size, so
/// an adversary that picks by index (like [`crate::RandomAdversary`]) costs
/// the engine no per-event scan at all. Adversaries that want to inspect
/// every option iterate with [`EnabledEvents::iter`], which is linear in the
/// number of *enabled* events only.
#[derive(Debug)]
pub struct EnabledEvents<'a> {
    inner: EnabledInner<'a>,
}

#[derive(Debug)]
enum EnabledInner<'a> {
    /// A plain slice: used by unit tests.
    Slice(&'a [EnabledEvent]),
    /// Zero-copy view over the engine's live indexes.
    Live {
        steps: &'a IndexedBitSet,
        messages: &'a OrderedMsgSet,
        slab: &'a MessageSlab,
    },
}

impl<'a> EnabledEvents<'a> {
    /// Wrap an explicit event list (tests).
    pub fn from_slice(events: &'a [EnabledEvent]) -> Self {
        EnabledEvents {
            inner: EnabledInner::Slice(events),
        }
    }

    /// Wrap the engine's live indexes.
    pub(crate) fn live(
        steps: &'a IndexedBitSet,
        messages: &'a OrderedMsgSet,
        slab: &'a MessageSlab,
    ) -> Self {
        EnabledEvents {
            inner: EnabledInner::Live {
                steps,
                messages,
                slab,
            },
        }
    }

    /// Number of enabled events.
    pub fn len(&self) -> usize {
        match &self.inner {
            EnabledInner::Slice(events) => events.len(),
            EnabledInner::Live {
                steps, messages, ..
            } => steps.len() + messages.len(),
        }
    }

    /// Whether no event is enabled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The event at `index` in the stable order, if in bounds.
    pub fn get(&self, index: usize) -> Option<EnabledEvent> {
        match &self.inner {
            EnabledInner::Slice(events) => events.get(index).copied(),
            EnabledInner::Live {
                steps,
                messages,
                slab,
            } => {
                if index < steps.len() {
                    return Some(EnabledEvent::Step(ProcId(steps.select(index)?)));
                }
                let (_, slot) = messages.select(index - steps.len())?;
                let message = slab
                    .get(slot)
                    .expect("enabled message indexes a live slab slot");
                Some(message.to_event())
            }
        }
    }

    /// Iterate over the enabled events in the stable order.
    pub fn iter(&self) -> impl Iterator<Item = EnabledEvent> + '_ {
        let (slice, live) = match &self.inner {
            EnabledInner::Slice(events) => (Some(events.iter().copied()), None),
            EnabledInner::Live {
                steps,
                messages,
                slab,
            } => {
                let step_events = steps.iter().map(|index| EnabledEvent::Step(ProcId(index)));
                let deliveries = messages.iter().map(move |(_, slot)| {
                    slab.get(slot)
                        .expect("enabled message indexes a live slab slot")
                        .to_event()
                });
                (None, Some(step_events.chain(deliveries)))
            }
        };
        slice
            .into_iter()
            .flatten()
            .chain(live.into_iter().flatten())
    }

    /// Materialize the view (diagnostics and differential tests).
    pub fn to_vec(&self) -> Vec<EnabledEvent> {
        self.iter().collect()
    }
}

/// Everything the adversary may look at when making a scheduling decision.
#[derive(Debug, Clone)]
pub struct SystemObservation {
    /// Total number of processors in the system.
    pub n: usize,
    /// Number of events executed so far.
    pub events_executed: u64,
    /// Remaining crash budget.
    pub crash_budget_left: usize,
    /// Per-processor observations, indexed by processor id.
    pub processes: Vec<ProcessObservation>,
}

impl SystemObservation {
    /// The observation for processor `p`.
    pub fn process(&self, p: ProcId) -> &ProcessObservation {
        &self.processes[p.index()]
    }

    /// The most recent coin flip of `p`, if the strong adversary can see one.
    pub fn coin_of(&self, p: ProcId) -> Option<bool> {
        self.process(p).local_state.as_ref().and_then(|s| s.coin)
    }

    /// Processors that are live participants (started or not, but not
    /// finished and not crashed).
    pub fn live_participants(&self) -> Vec<ProcId> {
        self.processes
            .iter()
            .filter(|o| {
                matches!(
                    o.phase,
                    ProcessPhase::NotStarted
                        | ProcessPhase::StepReady
                        | ProcessPhase::AwaitingQuorum
                )
            })
            .map(|o| o.proc)
            .collect()
    }
}

/// An adversary's decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Execute the event at this index of the enabled-event list.
    Schedule(usize),
    /// Crash the given processor (consumes one unit of crash budget); the
    /// engine will ask again for a scheduling decision afterwards.
    Crash(ProcId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_picks_the_waiting_party() {
        let step = EnabledEvent::Step(ProcId(4));
        assert_eq!(step.advances(), ProcId(4));

        let request = EnabledEvent::Deliver {
            id: MessageId(0),
            from: ProcId(1),
            to: ProcId(2),
            is_request: true,
        };
        assert_eq!(
            request.advances(),
            ProcId(1),
            "requests advance their sender"
        );

        let reply = EnabledEvent::Deliver {
            id: MessageId(1),
            from: ProcId(2),
            to: ProcId(1),
            is_request: false,
        };
        assert_eq!(
            reply.advances(),
            ProcId(1),
            "replies advance their recipient"
        );
    }

    #[test]
    fn observation_lookups() {
        let obs = SystemObservation {
            n: 2,
            events_executed: 0,
            crash_budget_left: 0,
            processes: vec![
                ProcessObservation {
                    proc: ProcId(0),
                    phase: ProcessPhase::StepReady,
                    local_state: Some(
                        fle_model::LocalStateView::new("x", "y").with_coin(Some(true)),
                    ),
                },
                ProcessObservation {
                    proc: ProcId(1),
                    phase: ProcessPhase::Idle,
                    local_state: None,
                },
            ],
        };
        assert_eq!(obs.coin_of(ProcId(0)), Some(true));
        assert_eq!(obs.coin_of(ProcId(1)), None);
        assert_eq!(obs.live_participants(), vec![ProcId(0)]);
    }
}
