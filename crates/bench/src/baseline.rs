//! The simulator-throughput baseline: the production engine in events/s.
//!
//! Measures full leader elections (all `n` processors participate, fair
//! random adversary) in events per second in the production configuration:
//! enabled events served from incrementally maintained indexes, O(1)
//! payloads (refcount-shared broadcasts, copy-on-write snapshot / delta
//! collect replies) and arena-recycled trial buffers. The result is recorded
//! in `BENCH_baseline.json` so future performance PRs have a trajectory to
//! compare against; [`smoke_check`] re-measures one point and fails loudly if
//! throughput regressed far below the recording (the CI smoke-perf job).

use crate::json::write_or_warn;
use fle_core::LeaderElection;
use fle_model::ProcId;
use fle_sim::{RandomAdversary, SimArena, SimConfig, Simulator};
use std::fmt::Write as _;
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
    pub incremental_events_per_sec: f64,
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

/// Measure the production engine at one size (single-threaded, for
/// comparable timings).
pub fn measure_point(n: usize, trials: u64) -> BaselinePoint {
    let (secs, events) = run_elections(n, trials, false);
    BaselinePoint {
        n,
        trials,
        events,
        incremental_events_per_sec: events as f64 / secs,
    }
}

/// Measure every `(n, trials)` specification.
pub fn measure(specs: &[(usize, u64)]) -> Vec<BaselinePoint> {
    specs
        .iter()
        .map(|&(n, trials)| measure_point(n, trials))
        .collect()
}

/// Render baseline points as the `BENCH_baseline.json` document.
pub fn to_json(points: &[BaselinePoint]) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"election_events_per_sec\",\n");
    out.push_str(
        "  \"workload\": \"full leader election, all n participate, random adversary\",\n",
    );
    out.push_str(
        "  \"methodology\": \"single-threaded wall clock over `trials` seeded runs of the \
         production engine: incremental enabled-event indexes, shared broadcast payloads, \
         copy-on-write or delta collect replies, arena-recycled trial buffers\",\n",
    );
    out.push_str("  \"points\": [\n");
    for (index, p) in points.iter().enumerate() {
        let comma = if index + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"n\": {}, \"trials\": {}, \"events\": {}, \
             \"incremental_events_per_sec\": {:.1}}}{comma}",
            p.n, p.trials, p.events, p.incremental_events_per_sec,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The tracked `BENCH_baseline.json` at the workspace root (resolved relative
/// to this crate, so it lands in the same place whether invoked via the
/// `bench_baseline` bin or via `cargo bench`).
pub fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json")
}

/// Everything after the sequential `"points"` array of a recorded document,
/// if that holds a `parallel` section (written by
/// [`crate::parallel::record_parallel_preserving`]).
fn parallel_tail(existing: &str) -> Option<&str> {
    let mut offset = existing.find("\"points\"")?;
    for line in existing[offset..].split_inclusive('\n') {
        offset += line.len();
        if matches!(line.trim(), "]," | "]") {
            let tail = &existing[offset..];
            return tail.contains("\"parallel").then_some(tail);
        }
    }
    None
}

/// Render `points` as the `BENCH_baseline.json` document, keeping the
/// `parallel` section of the `existing` document byte for byte.
fn splice_sequential_points(existing: &str, points: &[BaselinePoint]) -> String {
    let fresh = to_json(points);
    match parallel_tail(existing) {
        Some(tail) => {
            let head = fresh
                .strip_suffix("  ]\n}\n")
                .expect("to_json closes the points array last");
            format!("{head}  ],\n{tail}")
        }
        None => fresh,
    }
}

/// Measure the given specifications and write `BENCH_baseline.json` at
/// `path`, keeping a recorded `parallel` section; returns the points.
pub fn record(path: &Path, specs: &[(usize, u64)]) -> Vec<BaselinePoint> {
    let points = measure(specs);
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    write_or_warn(path, &splice_sequential_points(&existing, &points));
    points
}

/// The standard baseline: n ∈ {16, 64, 256} with 3 trials each plus a single
/// n = 1024 trial, written to the tracked `BENCH_baseline.json`.
pub fn record_default() -> Vec<BaselinePoint> {
    record(&baseline_path(), &[(16, 3), (64, 3), (256, 3), (1024, 1)])
}

/// Extract `incremental_events_per_sec` for one `n` from a recorded
/// `BENCH_baseline.json` document (line-oriented; resilient to reformatting
/// as long as each point stays on its own line).
pub fn recorded_events_per_sec(json: &str, n: usize) -> Option<f64> {
    let needle = format!("\"n\": {n},");
    let line = json.lines().find(|line| line.contains(&needle))?;
    let key = "\"incremental_events_per_sec\": ";
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
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
/// `1 + 2·(R − 1)/R_naive`, rounded up, from same-machine medians: it trips
/// no later than the retired floor of 2 on the production / naive-scheduler
/// ratio `R_naive` did (at `s = R_naive/2`).
pub const SMOKE_MIN_VALIDATION_RATIO: f64 = 11.0;

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
    let path = baseline_path();
    let json = std::fs::read_to_string(&path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    let recorded = recorded_events_per_sec(&json, 64)
        .ok_or_else(|| format!("no n=64 point recorded in {}", path.display()))?;
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
    fn measured_points_render_to_json() {
        // Small sizes keep the test fast; the full run uses 256 and 1024.
        let points = measure(&[(16, 2), (48, 1)]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.events > 0);
            assert!(p.incremental_events_per_sec > 0.0);
        }
        let json = to_json(&points);
        assert!(json.contains("\"n\": 16"));
        assert!(json.contains("methodology"));
        // The smoke gate's parser must read back what we write.
        let parsed = recorded_events_per_sec(&json, 16).expect("parseable");
        assert!((parsed - points[0].incremental_events_per_sec).abs() < 1.0);
        assert_eq!(recorded_events_per_sec(&json, 64), None);
    }

    #[test]
    fn recording_keeps_the_parallel_section() {
        let path = std::env::temp_dir().join(format!(
            "fle_bench_baseline_{}_keeps_parallel.json",
            std::process::id()
        ));
        let parallel = "  \"parallel_workload\": \"k-of-n\",\n  \"parallel\": [\n    \
                        {\"n\": 4096, \"k\": 64, \"partitions\": [{\"p\": 1}]}\n  ]\n}\n";
        let old_points = "{\n  \"benchmark\": \"election_events_per_sec\",\n  \"points\": [\n    \
                          {\"n\": 16, \"incremental_events_per_sec\": 1.0}\n  ],\n";
        std::fs::write(&path, format!("{old_points}{parallel}")).expect("temporary file");
        let points = record(&path, &[(8, 1)]);
        let written = std::fs::read_to_string(&path).expect("recorded file");
        assert!(written.ends_with(&format!("  ],\n{parallel}")), "{written}");
        assert!(written.starts_with(to_json(&points).trim_end_matches("  ]\n}\n")));
        assert_eq!(
            recorded_events_per_sec(&written, 8),
            recorded_events_per_sec(&to_json(&points), 8)
        );
        assert_eq!(recorded_events_per_sec(&written, 16), None);

        // Re-recording is idempotent on the parallel section, and a document
        // without one is written fresh.
        record(&path, &[(8, 1)]);
        let again = std::fs::read_to_string(&path).expect("recorded file");
        assert!(again.ends_with(&format!("  ],\n{parallel}")));
        std::fs::write(&path, to_json(&points)).expect("temporary file");
        let points = record(&path, &[(8, 1)]);
        let fresh = std::fs::read_to_string(&path).expect("recorded file");
        assert_eq!(fresh, to_json(&points));
        std::fs::remove_file(&path).expect("remove temporary file");
    }

    #[test]
    fn the_recorded_baseline_parses() {
        let json = std::fs::read_to_string(baseline_path()).expect("BENCH_baseline.json");
        for n in [16, 64, 256, 1024] {
            assert!(recorded_events_per_sec(&json, n).is_some_and(|v| v > 0.0));
        }
    }
}
