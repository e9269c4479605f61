//! Execution traces, used for determinism tests and debugging, and
//! adversary *decision* traces, used by the schedule-exploration subsystem
//! (`fle_explore`) to replay, serialize and minimize counterexamples.
//!
//! # Seed derivation
//!
//! Everything random in a simulation descends from the single configuration
//! seed `s` = [`crate::SimConfig::seed`] by pure functions, so a trace (and
//! every report field) is reproducible from `(s, n, partitions, schedule)`
//! alone:
//!
//! * **Legacy global stream** (`config.partitions == 0`): the sequential
//!   [`crate::Simulator`] draws every coin from one `ChaCha8` stream seeded
//!   with `s`, in execution order. Byte-compatible with all pre-partitioning
//!   baselines, but inherently schedule- and engine-dependent.
//! * **Per-processor streams** (`config.partitions >= 1`, and always in the
//!   partitioned [`crate::ParallelSimulator`]): processor `p`'s `k`-th coin
//!   word is [`crate::coin_word`]`(s, p, k)` =
//!   `splitmix64(splitmix64(s ^ splitmix64(p + 1)) ^ k)`. The stream depends
//!   only on `(s, p)` — not on the partition count, the worker-thread count,
//!   or any other processor's activity — so the sequential and partitioned
//!   engines flip identical coins for identical protocols, which is what
//!   makes the differential tests possible. Booleans come from
//!   [`crate::coin_bool`] (top 53 bits as a uniform float, compared against
//!   the bias); `Choose` picks `word % len`.
//!
//! The partitioned engine has no adversary: its schedule is the canonical
//! super-round order, so `(s, n, crash plan)` fixes its whole execution,
//! whatever the partition count.

use crate::message::MessageId;
use crate::observation::Decision;
use fle_model::{Outcome, ProcId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One executed event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A computation step of `proc` was executed.
    Step {
        /// The stepping processor.
        proc: ProcId,
    },
    /// Message `id` from `from` was delivered to `to`.
    Deliver {
        /// Delivered message.
        id: MessageId,
        /// Sender.
        from: ProcId,
        /// Recipient.
        to: ProcId,
    },
    /// The adversary crashed `proc`.
    Crash {
        /// The crashed processor.
        proc: ProcId,
    },
    /// `proc` returned from its protocol.
    Return {
        /// The returning processor.
        proc: ProcId,
        /// Its outcome.
        outcome: Outcome,
    },
    /// `proc` flipped a coin with the given outcome.
    Coin {
        /// The flipping processor.
        proc: ProcId,
        /// The flip outcome.
        value: bool,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Step { proc } => write!(f, "step {proc}"),
            TraceEvent::Deliver { id, from, to } => write!(f, "deliver {id} {from}→{to}"),
            TraceEvent::Crash { proc } => write!(f, "crash {proc}"),
            TraceEvent::Return { proc, outcome } => write!(f, "return {proc} {outcome}"),
            TraceEvent::Coin { proc, value } => write!(f, "coin {proc} {}", u8::from(*value)),
        }
    }
}

/// An ordered record of executed events.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
    recording: bool,
}

impl Trace {
    /// A trace that records events.
    pub fn recording() -> Self {
        Trace {
            events: Vec::new(),
            recording: true,
        }
    }

    /// A trace that discards events (but still maintains the digest).
    pub fn disabled() -> Self {
        Trace {
            events: Vec::new(),
            recording: false,
        }
    }

    /// Record an event.
    pub fn push(&mut self, event: TraceEvent) {
        if self.recording {
            self.events.push(event);
        }
    }

    /// The recorded events (empty if recording is disabled).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A stable digest of the recorded events (FNV-1a over the display
    /// forms). Two executions with the same digest and lengths are, for all
    /// practical purposes, identical.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for event in &self.events {
            for byte in event.to_string().bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash ^= 0xff;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// An ordered record of adversary decisions — the *input* side of an
/// execution, where [`Trace`] records the *output* side.
///
/// Because the simulator is deterministic given its seed, a decision trace
/// fully determines an execution: replaying the same decisions (via
/// [`crate::ReplayAdversary`]) against a simulator built with the same
/// [`crate::SimConfig`] reproduces the run event for event. The explorer
/// records one of these for every violating schedule it finds and
/// delta-debugs it down to a minimal counterexample.
///
/// The trace serializes to a compact human-readable form (`s<index>` for
/// `Schedule(index)`, `c<proc>` for `Crash(proc)`, space-separated) so a
/// counterexample can travel through CI logs and bug reports and be replayed
/// from the text alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecisionTrace {
    decisions: Vec<Decision>,
}

impl DecisionTrace {
    /// An empty decision trace.
    pub fn new() -> Self {
        DecisionTrace::default()
    }

    /// Wrap an explicit decision sequence.
    pub fn from_decisions(decisions: Vec<Decision>) -> Self {
        DecisionTrace { decisions }
    }

    /// Record one decision.
    pub fn push(&mut self, decision: Decision) {
        self.decisions.push(decision);
    }

    /// The recorded decisions, in the order they were made.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether no decisions were recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The prefix of the first `len` decisions (the whole trace when `len`
    /// is not smaller). This is the *truncate-to-consumed* edit: replaying a
    /// trace longer than the run consumes executes exactly the consumed
    /// prefix, so `trace.truncated(consumed)` is behaviourally identical to
    /// `trace` against the same scenario and seed — the shrinker and the
    /// corpus both store the truncation instead of the dead tail.
    #[must_use]
    pub fn truncated(&self, len: usize) -> Self {
        DecisionTrace {
            decisions: self.decisions[..len.min(self.decisions.len())].to_vec(),
        }
    }

    /// Splice: the first `prefix` decisions of `self` followed by the
    /// decisions of `tail` starting at `tail_from` (both clamped to the
    /// respective lengths). The mutation engine of the coverage-guided
    /// explorer builds crossover schedules this way; the result is always a
    /// *valid* schedule because [`crate::ReplayAdversary`] clamps edited
    /// indices and completes deterministically once a trace is exhausted.
    #[must_use]
    pub fn spliced(&self, prefix: usize, tail: &DecisionTrace, tail_from: usize) -> Self {
        let prefix = prefix.min(self.decisions.len());
        let tail_from = tail_from.min(tail.decisions.len());
        let mut decisions = Vec::with_capacity(prefix + tail.decisions.len() - tail_from);
        decisions.extend_from_slice(&self.decisions[..prefix]);
        decisions.extend_from_slice(&tail.decisions[tail_from..]);
        DecisionTrace { decisions }
    }

    /// The compact text form: `s<index>` / `c<proc>` tokens separated by
    /// single spaces (empty string for an empty trace). Inverse of
    /// [`DecisionTrace::parse`].
    pub fn to_compact_string(&self) -> String {
        let mut out = String::with_capacity(self.decisions.len() * 4);
        for (i, decision) in self.decisions.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match decision {
                Decision::Schedule(index) => {
                    out.push('s');
                    out.push_str(&index.to_string());
                }
                Decision::Crash(proc) => {
                    out.push('c');
                    out.push_str(&proc.index().to_string());
                }
            }
        }
        out
    }

    /// Parse the compact text form produced by
    /// [`DecisionTrace::to_compact_string`].
    ///
    /// # Errors
    /// Returns a description of the first malformed token.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut decisions = Vec::new();
        for token in text.split_whitespace() {
            let mut chars = token.chars();
            let kind = chars
                .next()
                .expect("split_whitespace yields non-empty tokens");
            let value: usize = chars
                .as_str()
                .parse()
                .map_err(|_| format!("malformed decision token {token:?}"))?;
            match kind {
                's' => decisions.push(Decision::Schedule(value)),
                'c' => decisions.push(Decision::Crash(ProcId(value))),
                _ => return Err(format!("unknown decision kind in token {token:?}")),
            }
        }
        Ok(DecisionTrace { decisions })
    }
}

impl fmt::Display for DecisionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_compact_string())
    }
}

impl FromIterator<Decision> for DecisionTrace {
    fn from_iter<T: IntoIterator<Item = Decision>>(iter: T) -> Self {
        DecisionTrace {
            decisions: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(TraceEvent::Step { proc: ProcId(0) });
        assert!(t.is_empty());
    }

    #[test]
    fn digest_distinguishes_traces() {
        let mut a = Trace::recording();
        a.push(TraceEvent::Step { proc: ProcId(0) });
        a.push(TraceEvent::Coin {
            proc: ProcId(0),
            value: true,
        });

        let mut b = Trace::recording();
        b.push(TraceEvent::Step { proc: ProcId(0) });
        b.push(TraceEvent::Coin {
            proc: ProcId(0),
            value: false,
        });

        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn identical_traces_share_digests() {
        let build = || {
            let mut t = Trace::recording();
            t.push(TraceEvent::Deliver {
                id: MessageId(3),
                from: ProcId(1),
                to: ProcId(2),
            });
            t.push(TraceEvent::Return {
                proc: ProcId(1),
                outcome: Outcome::Win,
            });
            t
        };
        assert_eq!(build().digest(), build().digest());
    }

    #[test]
    fn decision_trace_round_trips_through_compact_text() {
        let trace: DecisionTrace = [
            Decision::Schedule(0),
            Decision::Crash(ProcId(7)),
            Decision::Schedule(41),
            Decision::Schedule(3),
        ]
        .into_iter()
        .collect();
        let text = trace.to_compact_string();
        assert_eq!(text, "s0 c7 s41 s3");
        assert_eq!(DecisionTrace::parse(&text).unwrap(), trace);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.to_string(), text);
    }

    #[test]
    fn empty_decision_trace_round_trips() {
        let empty = DecisionTrace::new();
        assert!(empty.is_empty());
        assert_eq!(empty.to_compact_string(), "");
        assert_eq!(DecisionTrace::parse("").unwrap(), empty);
        assert_eq!(DecisionTrace::parse("  \n ").unwrap(), empty);
    }

    #[test]
    fn malformed_decision_tokens_are_rejected() {
        assert!(DecisionTrace::parse("s1 x2").is_err());
        assert!(DecisionTrace::parse("s").is_err());
        assert!(DecisionTrace::parse("cabc").is_err());
    }

    #[test]
    fn truncated_clamps_and_copies() {
        let trace: DecisionTrace = [
            Decision::Schedule(1),
            Decision::Crash(ProcId(0)),
            Decision::Schedule(2),
        ]
        .into_iter()
        .collect();
        assert_eq!(trace.truncated(2).decisions(), &trace.decisions()[..2]);
        assert_eq!(trace.truncated(99), trace, "over-long truncation is id");
        assert!(trace.truncated(0).is_empty());
    }

    #[test]
    fn spliced_concatenates_with_clamped_cut_points() {
        let a: DecisionTrace = [Decision::Schedule(0), Decision::Schedule(1)]
            .into_iter()
            .collect();
        let b: DecisionTrace = [Decision::Crash(ProcId(2)), Decision::Schedule(3)]
            .into_iter()
            .collect();
        let spliced = a.spliced(1, &b, 1);
        assert_eq!(
            spliced.decisions(),
            &[Decision::Schedule(0), Decision::Schedule(3)]
        );
        // Out-of-range cut points clamp instead of panicking.
        assert_eq!(a.spliced(99, &b, 99), a);
        assert_eq!(a.spliced(0, &b, 0), b);
    }
}
