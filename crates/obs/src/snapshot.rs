//! Frozen, mergeable views of the recorders: snapshots and reports.
//!
//! A [`ShardSnapshot`] is one shard's metrics at a point in time; a
//! [`MetricsSnapshot`] is the whole service's. Both are plain owned data —
//! merging is counter addition, high-water max, and bucket-wise histogram
//! addition, so snapshots taken from different shards (or different runs of
//! the same experiment) compose without losing quantile fidelity.
//!
//! [`MetricsSnapshot::attribution_report`] renders the per-shard table the
//! storm example and the overload sweep print: which shard was slowest,
//! which queue ran deepest, and how admission wait compares to run time.

use crate::hist::LogHistogram;

/// Fault-injection counters attributed to one shard (mirrors the runtime's
/// `FaultStats`, kept as plain integers so this crate stays dependency-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Register operations that passed through a faulty memory.
    pub ops: u64,
    /// Operations that were artificially delayed.
    pub delays: u64,
    /// Total injected delay, microseconds.
    pub delay_micros: u64,
    /// Collects that returned a stale/failed view.
    pub collect_failures: u64,
    /// Simulated process crashes.
    pub crashes: u64,
}

impl FaultCounters {
    /// Add `other`'s counts into `self`.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.ops += other.ops;
        self.delays += other.delays;
        self.delay_micros += other.delay_micros;
        self.collect_failures += other.collect_failures;
        self.crashes += other.crashes;
    }
}

/// One shard's frozen metrics.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Which shard this describes (meaningless after cross-shard merges).
    pub shard: usize,
    /// Jobs admitted to the shard queue.
    pub admitted: u64,
    /// Submitters that had to park for queue space (block policy).
    pub blocked_submitters: u64,
    /// Queued jobs displaced by newer ones (drop-oldest policy).
    pub displaced: u64,
    /// Submissions refused at the door (shed policy).
    pub rejected_shed: u64,
    /// Submissions refused after a block timeout expired.
    pub rejected_block_timeout: u64,
    /// Dequeued jobs whose deadline had already passed (never started).
    pub expired_in_queue: u64,
    /// Runs that completed.
    pub completed: u64,
    /// Runs cancelled in flight by their deadline.
    pub cancelled_in_flight: u64,
    /// Runs that panicked (contained by the worker).
    pub panics: u64,
    /// Queued jobs failed by shutdown before starting.
    pub drained: u64,
    /// Records + registers purged by epoch retirement.
    pub retired: u64,
    /// Epochs closed.
    pub epochs_closed: u64,
    /// Queue depth at snapshot time (summed across shards by merges).
    pub queue_depth: usize,
    /// Deepest the queue ever got (max across shards by merges).
    pub queue_high_water: usize,
    /// Queue depth observed at each admission.
    pub depth_on_admit: LogHistogram,
    /// Submit-to-dequeue wait of every started run, microseconds.
    pub queue_wait_micros: LogHistogram,
    /// Dequeue-to-resolution run time of every started run, microseconds.
    pub run_micros: LogHistogram,
    /// Terminal events between an instance finishing and its purge.
    pub retirement_lag: LogHistogram,
    /// Fault-injection activity attributed to this shard.
    pub faults: FaultCounters,
}

impl ShardSnapshot {
    /// An all-zero snapshot for shard `shard` (merge identity).
    pub fn empty(shard: usize) -> Self {
        ShardSnapshot {
            shard,
            admitted: 0,
            blocked_submitters: 0,
            displaced: 0,
            rejected_shed: 0,
            rejected_block_timeout: 0,
            expired_in_queue: 0,
            completed: 0,
            cancelled_in_flight: 0,
            panics: 0,
            drained: 0,
            retired: 0,
            epochs_closed: 0,
            queue_depth: 0,
            queue_high_water: 0,
            depth_on_admit: LogHistogram::new(),
            queue_wait_micros: LogHistogram::new(),
            run_micros: LogHistogram::new(),
            retirement_lag: LogHistogram::new(),
            faults: FaultCounters::default(),
        }
    }

    /// Fold `other` into `self`: counters add, depths sum, high-water takes
    /// the max, histograms merge bucket-wise.
    pub fn merge(&mut self, other: &ShardSnapshot) {
        self.admitted += other.admitted;
        self.blocked_submitters += other.blocked_submitters;
        self.displaced += other.displaced;
        self.rejected_shed += other.rejected_shed;
        self.rejected_block_timeout += other.rejected_block_timeout;
        self.expired_in_queue += other.expired_in_queue;
        self.completed += other.completed;
        self.cancelled_in_flight += other.cancelled_in_flight;
        self.panics += other.panics;
        self.drained += other.drained;
        self.retired += other.retired;
        self.epochs_closed += other.epochs_closed;
        self.queue_depth += other.queue_depth;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.depth_on_admit.merge(&other.depth_on_admit);
        self.queue_wait_micros.merge(&other.queue_wait_micros);
        self.run_micros.merge(&other.run_micros);
        self.retirement_lag.merge(&other.retirement_lag);
        self.faults.merge(&other.faults);
    }

    /// Runs that ended in failure (cancelled in flight or panicked).
    pub fn failed(&self) -> u64 {
        self.cancelled_in_flight + self.panics
    }

    /// Admitted jobs shed before running (displaced or expired in queue).
    pub fn shed(&self) -> u64 {
        self.displaced + self.expired_in_queue
    }

    /// Submissions refused at the door, by either policy.
    pub fn rejected(&self) -> u64 {
        self.rejected_shed + self.rejected_block_timeout
    }

    /// Runs that actually started (completed or failed).
    pub fn started(&self) -> u64 {
        self.completed + self.failed()
    }

    /// Mean admission wait divided by mean run time — above 1.0, instances
    /// spent longer queued than running and the shard is the bottleneck.
    pub fn wait_run_ratio(&self) -> f64 {
        let run = self.run_micros.mean();
        if run <= 0.0 {
            0.0
        } else {
            self.queue_wait_micros.mean() / run
        }
    }
}

/// Compact summary of one histogram for reports.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket upper bound, ≤ 1.6 % high).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl HistogramSummary {
    /// Summarize `hist`.
    pub fn of(hist: &LogHistogram) -> Self {
        HistogramSummary {
            count: hist.count(),
            mean: hist.mean(),
            p50: hist.value_at_quantile(0.5),
            p95: hist.value_at_quantile(0.95),
            p99: hist.value_at_quantile(0.99),
            max: hist.max(),
        }
    }
}

/// The whole service's metrics: one [`ShardSnapshot`] per worker shard.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-shard snapshots, indexed by shard id.
    pub per_shard: Vec<ShardSnapshot>,
}

impl MetricsSnapshot {
    /// Fold every shard into one aggregate snapshot (shard id 0 by
    /// convention; depths sum, high-water is the max across shards).
    pub fn aggregate(&self) -> ShardSnapshot {
        let mut total = ShardSnapshot::empty(0);
        for shard in &self.per_shard {
            total.merge(shard);
        }
        total
    }

    /// Merge another whole-service snapshot shard-by-shard (e.g. the same
    /// experiment repeated); shard counts must match.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        assert_eq!(
            self.per_shard.len(),
            other.per_shard.len(),
            "cannot merge snapshots with different shard counts"
        );
        for (mine, theirs) in self.per_shard.iter_mut().zip(other.per_shard.iter()) {
            mine.merge(theirs);
        }
    }

    /// The per-shard attribution table: where time went, shard by shard,
    /// then the three headline attributions (slowest shard by run p99,
    /// deepest queue by high-water, aggregate wait:run ratio).
    pub fn attribution_report(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "shard  admitted  done  fail  shed  rej  hiwater  wait p50/p99 us  run p50/p99 us  wait:run\n",
        );
        for s in &self.per_shard {
            let wait = HistogramSummary::of(&s.queue_wait_micros);
            let run = HistogramSummary::of(&s.run_micros);
            out.push_str(&format!(
                "{:>5}  {:>8}  {:>4}  {:>4}  {:>4}  {:>3}  {:>7}  {:>7}/{:<7}  {:>6}/{:<7}  {:>8.2}\n",
                s.shard,
                s.admitted,
                s.completed,
                s.failed(),
                s.shed(),
                s.rejected(),
                s.queue_high_water,
                wait.p50,
                wait.p99,
                run.p50,
                run.p99,
                s.wait_run_ratio(),
            ));
        }
        let slowest = self
            .per_shard
            .iter()
            .max_by_key(|s| s.run_micros.value_at_quantile(0.99));
        let deepest = self.per_shard.iter().max_by_key(|s| s.queue_high_water);
        if let Some(s) = slowest {
            out.push_str(&format!(
                "slowest shard: {} (run p99 {} us)\n",
                s.shard,
                s.run_micros.value_at_quantile(0.99)
            ));
        }
        if let Some(s) = deepest {
            out.push_str(&format!(
                "deepest queue: shard {} (high-water {})\n",
                s.shard, s.queue_high_water
            ));
        }
        let total = self.aggregate();
        out.push_str(&format!(
            "aggregate wait:run ratio: {:.2} (mean wait {:.0} us, mean run {:.0} us)\n",
            total.wait_run_ratio(),
            total.queue_wait_micros.mean(),
            total.run_micros.mean(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_shard(shard: usize, scale: u64) -> ShardSnapshot {
        let mut s = ShardSnapshot::empty(shard);
        s.admitted = 10 * scale;
        s.completed = 8 * scale;
        s.cancelled_in_flight = scale;
        s.panics = scale;
        s.displaced = 2 * scale;
        s.rejected_shed = 3 * scale;
        s.queue_depth = 2;
        s.queue_high_water = 4 * scale as usize;
        for i in 0..10 * scale {
            s.queue_wait_micros.record(100 * scale + i);
            s.run_micros.record(50 + i);
            s.depth_on_admit.record(i % 5);
        }
        s.retired = 8 * scale;
        for _ in 0..8 * scale {
            s.retirement_lag.record(scale);
        }
        s
    }

    #[test]
    fn merge_sums_counters_and_maxes_high_water() {
        let mut a = sample_shard(0, 1);
        let b = sample_shard(1, 3);
        a.merge(&b);
        assert_eq!(a.admitted, 40);
        assert_eq!(a.completed, 32);
        assert_eq!(a.failed(), 8);
        assert_eq!(a.shed(), 8);
        assert_eq!(a.rejected(), 12);
        assert_eq!(a.queue_depth, 4);
        assert_eq!(a.queue_high_water, 12);
        assert_eq!(a.queue_wait_micros.count(), 40);
    }

    #[test]
    fn aggregate_equals_pairwise_merge() {
        let snapshot = MetricsSnapshot {
            per_shard: vec![sample_shard(0, 1), sample_shard(1, 2), sample_shard(2, 5)],
        };
        let total = snapshot.aggregate();
        assert_eq!(total.admitted, 10 + 20 + 50);
        assert_eq!(total.started(), total.completed + total.failed());
        assert_eq!(total.queue_high_water, 20);
        assert_eq!(
            total.run_micros.count(),
            snapshot
                .per_shard
                .iter()
                .map(|s| s.run_micros.count())
                .sum::<u64>()
        );
    }

    #[test]
    fn wait_run_ratio_flags_queue_bound_shards() {
        let mut s = ShardSnapshot::empty(0);
        for _ in 0..100 {
            s.queue_wait_micros.record(1000);
            s.run_micros.record(100);
        }
        assert!(s.wait_run_ratio() > 5.0, "waits dominate runs");
        let idle = ShardSnapshot::empty(1);
        assert_eq!(idle.wait_run_ratio(), 0.0, "no runs → ratio 0, not NaN");
    }

    #[test]
    fn attribution_report_names_slowest_and_deepest() {
        let mut slow = sample_shard(2, 1);
        for _ in 0..50 {
            slow.run_micros.record(1_000_000);
        }
        slow.queue_high_water = 1;
        let mut deep = sample_shard(1, 1);
        deep.queue_high_water = 999;
        let snapshot = MetricsSnapshot {
            per_shard: vec![sample_shard(0, 1), deep, slow],
        };
        let report = snapshot.attribution_report();
        assert!(report.contains("slowest shard: 2"), "{report}");
        assert!(
            report.contains("deepest queue: shard 1 (high-water 999)"),
            "{report}"
        );
        assert!(report.contains("aggregate wait:run ratio"), "{report}");
    }

    #[test]
    fn whole_snapshot_merge_is_shard_wise() {
        let mut first = MetricsSnapshot {
            per_shard: vec![sample_shard(0, 1), sample_shard(1, 1)],
        };
        let second = MetricsSnapshot {
            per_shard: vec![sample_shard(0, 2), sample_shard(1, 2)],
        };
        first.merge(&second);
        assert_eq!(first.per_shard[0].admitted, 30);
        assert_eq!(first.per_shard[1].admitted, 30);
    }
}
