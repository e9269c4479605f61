//! Spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, a parent and a
//! request id. Spans are aggregated in memory per name — count, total time,
//! self time and a [`LogHistogram`] of durations — and the first
//! [`MAX_TREES`] root span trees are also kept raw, to be written out when
//! the run ends. A span's self time is its duration minus the time its
//! child spans cover.
//!
//! Each thread records into its own [`Tracer`], installed for the duration
//! of a traced section with [`scoped`]; outside a section [`span`] just
//! calls through. Tracers of several threads merge with [`Tracer::absorb`].

use fle_obs::LogHistogram;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Raw span trees kept per run.
pub const MAX_TREES: usize = 10_000;

/// Nanoseconds since the first call in this process: the common clock of
/// every span, on every thread.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Their durations.
    pub hist: LogHistogram,
}

impl SpanStats {
    /// Mean duration in nanoseconds (0 without spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One kept span of a raw tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpan {
    /// Span name.
    pub name: &'static str,
    /// Start on the [`now_ns`] clock.
    pub start_ns: u64,
    /// End on the [`now_ns`] clock.
    pub end_ns: u64,
    /// Index of the parent in the same kept list.
    pub parent: Option<usize>,
    /// The request (instance) the span belongs to.
    pub request: u64,
}

#[derive(Debug)]
struct Frame {
    stat: usize,
    start_ns: u64,
    child_ns: u64,
    raw: Option<usize>,
}

/// One thread's span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    names: Vec<&'static str>,
    stats: Vec<SpanStats>,
    stack: Vec<Frame>,
    raw: Vec<RawSpan>,
    trees: usize,
    root_ns: u64,
    active_ns: u64,
}

impl Tracer {
    fn stat_index(&mut self, name: &'static str) -> usize {
        if let Some(index) = self.names.iter().position(|known| *known == name) {
            return index;
        }
        self.names.push(name);
        self.stats.push(SpanStats::default());
        self.names.len() - 1
    }

    /// Open a span at time `at_ns`.
    pub fn enter_at(&mut self, name: &'static str, request: u64, at_ns: u64) {
        let stat = self.stat_index(name);
        // A root span starts a new tree, kept while there is room; a child
        // is kept when its parent is.
        let keep: Option<Option<usize>> = match self.stack.last() {
            None if self.trees < MAX_TREES => {
                self.trees += 1;
                Some(None)
            }
            None => None,
            Some(parent) => parent.raw.map(Some),
        };
        let raw = keep.map(|parent| {
            self.raw.push(RawSpan {
                name,
                start_ns: at_ns,
                end_ns: at_ns,
                parent,
                request,
            });
            self.raw.len() - 1
        });
        self.stack.push(Frame {
            stat,
            start_ns: at_ns,
            child_ns: 0,
            raw,
        });
    }

    /// Close the innermost open span at time `at_ns`.
    ///
    /// # Panics
    /// Panics when no span is open: enter and exit calls must pair.
    pub fn exit_at(&mut self, at_ns: u64) {
        let frame = self.stack.pop().expect("exit_at pairs with enter_at");
        let duration = at_ns.saturating_sub(frame.start_ns);
        let stats = &mut self.stats[frame.stat];
        stats.count += 1;
        stats.total_ns += duration;
        stats.self_ns += duration.saturating_sub(frame.child_ns);
        stats.hist.record(duration);
        if let Some(raw) = frame.raw {
            self.raw[raw].end_ns = at_ns;
        }
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += duration,
            None => self.root_ns += duration,
        }
    }

    /// The aggregate of spans named `name`.
    pub fn stats(&self, name: &str) -> SpanStats {
        self.names
            .iter()
            .position(|known| *known == name)
            .map(|index| self.stats[index].clone())
            .unwrap_or_default()
    }

    /// Total self time of every span whose name starts with `prefix`.
    pub fn self_ns(&self, prefix: &str) -> u64 {
        self.names
            .iter()
            .zip(&self.stats)
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, stats)| stats.self_ns)
            .sum()
    }

    /// Wall time spent inside [`scoped`] sections.
    pub fn active_ns(&self) -> u64 {
        self.active_ns
    }

    /// The share of the traced wall time no root span covers.
    pub fn unattributed_frac(&self) -> f64 {
        if self.active_ns == 0 {
            return 0.0;
        }
        self.active_ns.saturating_sub(self.root_ns) as f64 / self.active_ns as f64
    }

    /// Merge another thread's tracer into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, stats) in other.names.iter().zip(&other.stats) {
            let index = self.stat_index(name);
            let mine = &mut self.stats[index];
            mine.count += stats.count;
            mine.total_ns += stats.total_ns;
            mine.self_ns += stats.self_ns;
            mine.hist.merge(&stats.hist);
        }
        let room = MAX_TREES.saturating_sub(self.trees);
        let offset = self.raw.len();
        let mut kept = 0;
        for span in other.raw {
            if span.parent.is_none() {
                if kept == room {
                    break;
                }
                kept += 1;
            }
            self.raw.push(RawSpan {
                parent: span.parent.map(|parent| parent + offset),
                ..span
            });
        }
        self.trees += kept;
        self.root_ns += other.root_ns;
        self.active_ns += other.active_ns;
    }

    /// The kept raw spans as a JSON array of
    /// `[name, start_ns, end_ns, parent_index_or_-1, request]` rows.
    pub fn raw_json(&self) -> String {
        let mut out = String::from("[");
        for (index, span) in self.raw.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |parent| parent as i64);
            let _ = write!(
                out,
                "[\"{}\",{},{},{},{}]",
                span.name, span.start_ns, span.end_ns, parent, span.request
            );
        }
        out.push(']');
        out
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Run `f` with `tracer` recording this thread's spans; the section's wall
/// time counts as traced time.
pub fn scoped<R>(tracer: &mut Tracer, f: impl FnOnce() -> R) -> R {
    let start = now_ns();
    CURRENT.with(|current| *current.borrow_mut() = Some(std::mem::take(tracer)));
    let result = f();
    *tracer = CURRENT
        .with(|current| current.borrow_mut().take())
        .expect("the scoped tracer is still installed");
    tracer.active_ns += now_ns() - start;
    result
}

/// Run `f` inside a span named `name`, when this thread is tracing.
pub fn span<R>(name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
    let tracing = CURRENT.with(|current| match current.borrow_mut().as_mut() {
        Some(tracer) => {
            tracer.enter_at(name, request, now_ns());
            true
        }
        None => false,
    });
    let result = f();
    if tracing {
        CURRENT.with(|current| {
            if let Some(tracer) = current.borrow_mut().as_mut() {
                tracer.exit_at(now_ns());
            }
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_children() {
        let mut tracer = Tracer::default();
        tracer.enter_at("sim.step", 1, 100);
        tracer.enter_at("adv.decide", 1, 110);
        tracer.exit_at(130);
        tracer.enter_at("proto.step", 1, 140);
        tracer.enter_at("regs.collect", 1, 150);
        tracer.exit_at(155);
        tracer.exit_at(170);
        tracer.exit_at(200);

        let step = tracer.stats("sim.step");
        assert_eq!((step.count, step.total_ns, step.self_ns), (1, 100, 50));
        let proto = tracer.stats("proto.step");
        assert_eq!((proto.total_ns, proto.self_ns), (30, 25));
        assert_eq!(tracer.stats("adv.decide").self_ns, 20);
        assert_eq!(tracer.stats("regs.collect").self_ns, 5);
        // Self times partition the root span exactly.
        assert_eq!(tracer.self_ns(""), 100);
        assert_eq!(tracer.self_ns("sim."), 50);
        assert_eq!(tracer.stats("missing").count, 0);
    }

    #[test]
    fn unattributed_time_is_what_no_root_span_covers() {
        let mut tracer = Tracer::default();
        tracer.enter_at("svc.submit", 7, 0);
        tracer.exit_at(30);
        tracer.enter_at("svc.wait", 7, 40);
        tracer.exit_at(90);
        tracer.active_ns = 100;
        assert!((tracer.unattributed_frac() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn raw_trees_keep_parents_and_stop_at_the_limit() {
        let mut tracer = Tracer::default();
        for tree in 0..MAX_TREES as u64 + 5 {
            tracer.enter_at("sim.step", tree, tree * 10);
            tracer.enter_at("proto.step", tree, tree * 10 + 1);
            tracer.exit_at(tree * 10 + 2);
            tracer.exit_at(tree * 10 + 3);
        }
        assert_eq!(tracer.raw.len(), 2 * MAX_TREES);
        assert_eq!(tracer.raw[1].parent, Some(0));
        assert_eq!(tracer.raw[3].parent, Some(2));
        assert_eq!(tracer.stats("sim.step").count, MAX_TREES as u64 + 5);

        let mut merged = Tracer::default();
        let mut other = Tracer::default();
        other.enter_at("svc.wait", 9, 0);
        other.enter_at("svc.submit", 9, 1);
        other.exit_at(2);
        other.exit_at(3);
        merged.absorb(other);
        merged.absorb(tracer);
        assert_eq!(merged.trees, MAX_TREES);
        assert_eq!(merged.raw[1].parent, Some(0));
        assert_eq!(merged.raw[3].parent, Some(2), "parents are re-indexed");
        assert_eq!(merged.stats("sim.step").count, MAX_TREES as u64 + 5);
        assert!(merged.raw_json().starts_with("[[\"svc.wait\",0,3,-1,9]"));
    }

    #[test]
    fn spans_record_only_inside_a_scoped_section() {
        assert_eq!(span("gen.check", 0, || 5), 5);
        let mut tracer = Tracer::default();
        let value = scoped(&mut tracer, || {
            span("gen.check", 3, || span("svc.wait", 3, || 8))
        });
        assert_eq!(value, 8);
        assert_eq!(tracer.stats("gen.check").count, 1);
        assert_eq!(tracer.stats("svc.wait").count, 1);
        assert!(tracer.active_ns() >= tracer.stats("gen.check").total_ns);
    }
}
