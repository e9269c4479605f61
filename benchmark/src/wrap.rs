//! Timing decorators for the traits a layer is called through: `Protocol`,
//! `Adversary` and `SharedMemory`. They forward every call unchanged and
//! time it, so a traced run executes exactly the schedule an untraced run
//! does.

use crate::trace;
use fle_model::{
    Action, CollectedViews, InstanceId, Key, LocalStateView, Protocol, Response, SharedMemory,
    Value,
};
use fle_sim::{Adversary, Decision, EnabledEvents, SystemObservation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Step time and step count of protocols running on threads the benchmark
/// does not own (partition workers, executor workers), where spans cannot
/// nest. Statistics only: `Relaxed` publishes nothing else.
#[derive(Debug, Default)]
pub struct StepCounters {
    ns: AtomicU64,
    steps: AtomicU64,
}

impl StepCounters {
    /// Total step time in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }
}

/// Where a [`TimedProtocol`] reports its steps.
#[derive(Debug, Clone)]
enum Sink {
    /// A `proto.step` span on the calling thread.
    Span(u64),
    /// Shared atomic counters.
    Counters(Arc<StepCounters>),
}

/// A protocol whose every `step` is timed.
#[derive(Debug)]
pub struct TimedProtocol<P> {
    inner: P,
    sink: Sink,
}

impl<P: Protocol> TimedProtocol<P> {
    /// Time steps as `proto.step` spans of request `request`.
    pub fn spans(inner: P, request: u64) -> Self {
        TimedProtocol {
            inner,
            sink: Sink::Span(request),
        }
    }

    /// Time steps into shared counters.
    pub fn counted(inner: P, counters: &Arc<StepCounters>) -> Self {
        TimedProtocol {
            inner,
            sink: Sink::Counters(Arc::clone(counters)),
        }
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    fn step(&mut self, response: Response) -> Action {
        let inner = &mut self.inner;
        match &self.sink {
            Sink::Span(request) => trace::span("proto.step", *request, || inner.step(response)),
            Sink::Counters(counters) => {
                let start = Instant::now();
                let action = inner.step(response);
                let ns = start.elapsed().as_nanos() as u64;
                counters.ns.fetch_add(ns, Ordering::Relaxed);
                counters.steps.fetch_add(1, Ordering::Relaxed);
                action
            }
        }
    }

    fn adversary_view(&self) -> LocalStateView {
        self.inner.adversary_view()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// An adversary whose every decision is an `adv.decide` span.
#[derive(Debug)]
pub struct TimedAdversary<A> {
    inner: A,
    request: u64,
}

impl<A: Adversary> TimedAdversary<A> {
    /// Time `inner`'s decisions as spans of request `request`.
    pub fn new(inner: A, request: u64) -> Self {
        TimedAdversary { inner, request }
    }
}

impl<A: Adversary> Adversary for TimedAdversary<A> {
    fn decide(&mut self, observation: &SystemObservation, enabled: &EnabledEvents<'_>) -> Decision {
        let inner = &mut self.inner;
        trace::span("adv.decide", self.request, || {
            inner.decide(observation, enabled)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A shared memory whose operations are `regs.*` spans.
#[derive(Debug)]
pub struct TimedMemory<M> {
    inner: M,
    request: u64,
}

impl<M: SharedMemory> TimedMemory<M> {
    /// Time `inner`'s operations as spans of request `request`.
    pub fn new(inner: M, request: u64) -> Self {
        TimedMemory { inner, request }
    }

    /// The decorated memory.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: SharedMemory> SharedMemory for TimedMemory<M> {
    fn propagate(&mut self, entries: Vec<(Key, Value)>) {
        let inner = &mut self.inner;
        trace::span("regs.propagate", self.request, || inner.propagate(entries));
    }

    fn collect(&mut self, instance: InstanceId) -> CollectedViews {
        let inner = &mut self.inner;
        trace::span("regs.collect", self.request, || inner.collect(instance))
    }

    fn flip(&mut self, prob_one: f64) -> bool {
        let inner = &mut self.inner;
        trace::span("regs.coin", self.request, || inner.flip(prob_one))
    }

    fn choose(&mut self, choices: &[u64]) -> u64 {
        let inner = &mut self.inner;
        trace::span("regs.coin", self.request, || inner.choose(choices))
    }
}
