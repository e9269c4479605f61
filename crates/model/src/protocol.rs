//! The protocol state-machine interface and the adversary's window into it.

use crate::action::{Action, Response};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a *strong adaptive adversary* may observe about a processor's local
/// state.
///
/// The paper's adversary "can examine local state, including random coin
/// flips, and crash `t < n/2` of the participants at any point". Concrete
/// adversaries in `fle-sim` receive one `LocalStateView` per processor and
/// schedule steps, deliveries and crashes based on them — this is how the
/// coin-inspecting strategy of Section 3.2 (run all 0-flippers to completion
/// before any 1-flipper) is expressed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalStateView {
    /// Name of the algorithm ("poison-pill", "leader-elect", ...).
    pub algorithm: &'static str,
    /// Name of the phase within the algorithm ("committed", "flipped", ...).
    pub phase: &'static str,
    /// Current sifting round, when meaningful.
    pub round: u64,
    /// The most recent coin flip, if one has been made and not yet consumed.
    pub coin: Option<bool>,
    /// Additional labelled integers an adversary may want to inspect
    /// (e.g. the size of the observed participant list `ℓ`).
    pub details: Vec<(&'static str, i64)>,
}

impl LocalStateView {
    /// A view with the given algorithm and phase labels and no extra detail.
    pub fn new(algorithm: &'static str, phase: &'static str) -> Self {
        LocalStateView {
            algorithm,
            phase,
            round: 0,
            coin: None,
            details: Vec::new(),
        }
    }

    /// Attach the current round.
    #[must_use]
    pub fn with_round(mut self, round: u64) -> Self {
        self.round = round;
        self
    }

    /// Attach the latest coin flip.
    #[must_use]
    pub fn with_coin(mut self, coin: Option<bool>) -> Self {
        self.coin = coin;
        self
    }

    /// Attach a labelled detail value.
    #[must_use]
    pub fn with_detail(mut self, label: &'static str, value: i64) -> Self {
        self.details.push((label, value));
        self
    }

    /// Look up a detail by label.
    pub fn detail(&self, label: &str) -> Option<i64> {
        self.details
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, v)| *v)
    }
}

impl fmt::Display for LocalStateView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} r={}", self.algorithm, self.phase, self.round)?;
        if let Some(coin) = self.coin {
            write!(f, " coin={}", u8::from(coin))?;
        }
        Ok(())
    }
}

/// A protocol, written as an explicit state machine.
///
/// Backends drive the machine by calling [`Protocol::step`] with
/// [`Response::Start`] first and then with the response to each emitted
/// [`Action`], until the protocol returns [`Action::Return`].
///
/// Writing algorithms this way keeps them completely independent of the
/// execution substrate: the deterministic adversarial simulator and the
/// in-process shared registers drive the same code. Protocols must be
/// [`Send`] so a backend may migrate a state machine to a worker thread (the
/// partitioned simulator and the task executor both do).
pub trait Protocol: Send {
    /// Advance the state machine with the response to the previous action and
    /// obtain the next action.
    fn step(&mut self, response: Response) -> Action;

    /// The slice of local state a strong adaptive adversary may inspect.
    fn adversary_view(&self) -> LocalStateView;

    /// A short human-readable label used in traces and error messages.
    fn label(&self) -> String {
        self.adversary_view().algorithm.to_string()
    }
}

impl<P: Protocol + ?Sized> Protocol for Box<P> {
    fn step(&mut self, response: Response) -> Action {
        (**self).step(response)
    }

    fn adversary_view(&self) -> LocalStateView {
        (**self).adversary_view()
    }

    fn label(&self) -> String {
        (**self).label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Outcome;

    struct Immediate;

    impl Protocol for Immediate {
        fn step(&mut self, _response: Response) -> Action {
            Action::Return(Outcome::Proceed)
        }

        fn adversary_view(&self) -> LocalStateView {
            LocalStateView::new("immediate", "done")
                .with_round(2)
                .with_coin(Some(true))
                .with_detail("k", 7)
        }
    }

    #[test]
    fn boxed_protocol_delegates() {
        let mut boxed: Box<dyn Protocol> = Box::new(Immediate);
        assert_eq!(
            boxed.step(Response::Start).outcome(),
            Some(Outcome::Proceed)
        );
        assert_eq!(boxed.label(), "immediate");
        let view = boxed.adversary_view();
        assert_eq!(view.round, 2);
        assert_eq!(view.coin, Some(true));
        assert_eq!(view.detail("k"), Some(7));
        assert_eq!(view.detail("missing"), None);
    }

    #[test]
    fn view_display_mentions_coin() {
        let view = LocalStateView::new("a", "b").with_coin(Some(false));
        assert!(view.to_string().contains("coin=0"));
    }
}
