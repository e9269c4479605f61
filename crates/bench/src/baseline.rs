//! The simulator-throughput baseline: the production engine in events/s.
//!
//! Measures full leader elections (all `n` processors participate, fair
//! random adversary) in events per second in the production configuration:
//! enabled events served from incrementally maintained indexes, O(1)
//! payloads (refcount-shared broadcasts, copy-on-write snapshot collect
//! replies) and arena-recycled trial buffers. The result is the
//! `points` section of `BENCH_baseline.json`, the trajectory future
//! performance changes compare against; [`smoke_check`] re-measures one
//! point and fails loudly if throughput regressed far below the recording
//! (the CI smoke-perf job).

use crate::json::{self, Section};
use fle_analysis::Table;
use fle_core::LeaderElection;
use fle_model::ProcId;
use fle_sim::{RandomAdversary, SimArena, SimConfig, Simulator};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Production-engine throughput at one system size.
#[derive(Debug, Clone)]
pub struct BaselinePoint {
    /// System size (all `n` processors participate).
    pub n: usize,
    /// Seeds measured.
    pub trials: u64,
    /// Total events executed across all trials.
    pub events: u64,
    /// Events per second in the production configuration.
    pub events_per_sec: f64,
}

/// Run `trials` seeded elections at size `n`; `validate` switches on the
/// engine's reference mode ([`SimConfig::with_event_set_validation`]).
/// Returns the wall-clock seconds and the events executed.
fn run_elections(n: usize, trials: u64, validate: bool) -> (f64, u64) {
    let mut events = 0u64;
    // One explicit arena threaded through the trial loop: after the first
    // trial the engine re-allocates (almost) nothing.
    let mut arena = SimArena::new();
    let start = Instant::now();
    for seed in 0..trials {
        let mut config = SimConfig::new(n).with_seed(seed);
        if validate {
            config = config.with_event_set_validation();
        }
        let mut sim = Simulator::from_arena(config, arena);
        for i in 0..n {
            sim.add_participant(ProcId(i), Box::new(LeaderElection::new(ProcId(i))));
        }
        let report = sim
            .run(&mut RandomAdversary::with_seed(seed))
            .expect("election terminates");
        assert_eq!(report.winners().len(), 1);
        events += report.events_executed;
        arena = sim.into_arena();
    }
    (start.elapsed().as_secs_f64(), events)
}

/// How many times [`measure_point`] runs a point's trials. Interference
/// from other work on the host only slows a run, so the fastest repetition
/// is the one closest to the engine's own speed.
pub const REPETITIONS: usize = 5;

/// Measure the production engine at one size (single-threaded, for
/// comparable timings): the fastest of [`REPETITIONS`] runs of its trials.
pub fn measure_point(n: usize, trials: u64) -> BaselinePoint {
    let (secs, events) = (0..REPETITIONS)
        .map(|_| run_elections(n, trials, false))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one repetition");
    BaselinePoint {
        n,
        trials,
        events,
        events_per_sec: events as f64 / secs,
    }
}

/// Measure every `(n, trials)` specification.
pub fn measure(specs: &[(usize, u64)]) -> Vec<BaselinePoint> {
    specs
        .iter()
        .map(|&(n, trials)| measure_point(n, trials))
        .collect()
}

/// The `points` section of `BENCH_baseline.json`.
pub fn points_section(points: &[BaselinePoint]) -> Section {
    let mut table = Table::new(["n", "trials", "events", "events_per_sec"]);
    for p in points {
        table.add_row([
            p.n.to_string(),
            p.trials.to_string(),
            p.events.to_string(),
            format!("{:.1}", p.events_per_sec),
        ]);
    }
    Section::new(
        format!(
            "full leader election, all n participate, random adversary; single-threaded wall \
             clock over `trials` seeded runs of the production engine, the fastest of \
             {REPETITIONS} repetitions: incremental enabled-event indexes, shared broadcast \
             payloads, copy-on-write snapshot collect replies, arena-recycled trial buffers"
        ),
        table,
    )
}

/// The tracked `BENCH_baseline.json` at the workspace root (resolved relative
/// to this crate, so it lands in the same place from any working directory).
pub fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json")
}

/// Measure the given specifications and record them as the `points`
/// section of the document at `path`, keeping its other sections; returns
/// the points.
///
/// # Errors
/// When the existing document does not parse ([`json::record_section`]).
pub fn record(path: &Path, specs: &[(usize, u64)]) -> Result<Vec<BaselinePoint>, String> {
    let points = measure(specs);
    json::record_section(path, "baseline", "points", points_section(&points))?;
    Ok(points)
}

/// The standard baseline: n ∈ {16, 64, 256} with 3 trials each plus a single
/// n = 1024 trial, each point the fastest of [`REPETITIONS`], recorded in the
/// tracked `BENCH_baseline.json`.
///
/// # Errors
/// As [`record`].
pub fn record_default() -> Result<Vec<BaselinePoint>, String> {
    record(&baseline_path(), &[(16, 3), (64, 3), (256, 3), (1024, 1)])
}

/// The CI smoke-perf gate: re-measure `n = 64` with a single trial and fail
/// if throughput fell more than [`SMOKE_REGRESSION_FACTOR`]× below the
/// recorded baseline. The threshold is deliberately generous — the job must
/// be loud on real regressions, never flaky on machine noise.
pub const SMOKE_REGRESSION_FACTOR: f64 = 3.0;

/// Machine-independent backstop for the smoke gate: the production engine
/// must beat the reference mode ([`SimConfig::with_event_set_validation`])
/// by at least this factor *in the same run*, both at seed 0 with one trial.
///
/// The reference mode runs the production engine plus its checks, so a
/// production slowdown by `s` moves the ratio from `R` to `1 + (R − 1)/s`,
/// and the floor `F` trips at `s = (R − 1)/(F − 1)`. `F` is
/// `1 + (R − 1)/4.9`, rounded up, so that it trips at a slowdown of no
/// more than 4.9×, as the floor did when it was first derived.
/// Snapshot-only collect replies made production faster, and over 12
/// smoke runs on a 2-vCPU host the median `R` was 112.7 (range
/// 58.3–138.8), so `F` = 1 + 111.7/4.9 = 23.8, rounded up to 24: it trips
/// at `s` = 111.7/23 ≈ 4.9× at the median (arithmetic in EXPERIMENTS.md).
pub const SMOKE_MIN_VALIDATION_RATIO: f64 = 24.0;

/// Run the smoke gate; returns `(measured, recorded, ratio)` on success:
/// production events/s at n = 64, the recorded value, and the same-run
/// production / reference-mode ratio.
///
/// The absolute comparison against the recorded baseline catches
/// regressions, but the recording comes from the reference machine — a CI
/// runner several times slower would fail it with no code change. So the
/// gate only fails when **both** signals agree: absolute events/s fell more
/// than [`SMOKE_REGRESSION_FACTOR`]× below the recording **and** the
/// same-run production / reference-mode ratio fell below
/// [`SMOKE_MIN_VALIDATION_RATIO`] (machine-independent). A slow runner
/// passes the second check; a real engine regression fails both.
///
/// # Errors
/// Returns a description of the failure: missing/unparseable recording, or a
/// regression confirmed by both signals.
pub fn smoke_check() -> Result<(f64, f64, f64), String> {
    let recorded =
        json::read(&baseline_path())?
            .section("points")?
            .number("n", "64", "events_per_sec")?;
    let (production_secs, events) = run_elections(64, 1, false);
    let (validation_secs, validation_events) = run_elections(64, 1, true);
    assert_eq!(
        events, validation_events,
        "the reference mode must execute the production schedule"
    );
    let measured = events as f64 / production_secs;
    let ratio = validation_secs / production_secs;
    if measured * SMOKE_REGRESSION_FACTOR < recorded {
        if ratio < SMOKE_MIN_VALIDATION_RATIO {
            return Err(format!(
                "events/s regressed at n=64: measured {measured:.0} is more than \
                 {SMOKE_REGRESSION_FACTOR}x below the recorded {recorded:.0}, and the \
                 same-run production/validation ratio {ratio:.2}x is below the \
                 {SMOKE_MIN_VALIDATION_RATIO}x floor"
            ));
        }
        eprintln!(
            "smoke-perf note: absolute events/s below the recording \
             (measured {measured:.0} vs recorded {recorded:.0}) but the same-run \
             production/validation ratio {ratio:.2}x is healthy — assuming a slower machine"
        );
    }
    Ok((measured, recorded, ratio))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_points_fill_the_points_section() {
        // Small sizes keep the test fast; the full run uses 256 and 1024.
        let points = measure(&[(16, 2), (48, 1)]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.events > 0);
            assert!(p.events_per_sec > 0.0);
        }
        let section = points_section(&points);
        assert_eq!(section.table.len(), 2);
        let read = section
            .number("n", "16", "events_per_sec")
            .expect("readable");
        assert!((read - points[0].events_per_sec).abs() < 0.1);
        assert_eq!(
            section.number("n", "48", "events"),
            Ok(points[1].events as f64)
        );
    }

    #[test]
    fn the_smoke_reader_reads_the_committed_n64_point() {
        let recorded = json::read(&baseline_path())
            .and_then(|document| {
                document
                    .section("points")?
                    .number("n", "64", "events_per_sec")
            })
            .expect("BENCH_baseline.json records n = 64");
        assert_eq!(recorded, 2_220_830.8);
    }
}
