//! The repository benchmark: four workloads over the simulator engines and
//! the election service, end-to-end metrics from untraced runs and
//! per-layer metrics from traced ones. See `README.md` next to this crate.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! One run prints a `workload metric value unit` line per metric and, last,
//! one JSON object with `correct`, `attempted`, `failed` and the declared
//! metrics. Without `--workload` it runs every workload, each in a child
//! process of its own so that set-up time and peak memory are per workload.

mod compare;
mod gauge;
mod gen;
mod heap;
mod json;
mod sim;
mod stats;
mod svc;
mod trace;
mod wrap;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// What one run measures.
pub struct Plan {
    /// The only input: every instance is generated from it.
    pub seed: u64,
    /// Load before the measured window (service workloads).
    pub warmup: Duration,
    /// The measured window.
    pub measure: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// A quick run: 1/20 of the window and of the simulator pools.
    pub quick: bool,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations (instances, checks) attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first failures, described.
    pub violations: Vec<String>,
    /// Every measured value: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The kept raw span trees of a traced run, as JSON.
    pub spans: Option<String>,
}

impl RunReport {
    /// Record a measured value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// Fold in what another thread recorded.
    pub fn absorb(&mut self, other: RunReport) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.violations.len());
        self.violations
            .extend(other.violations.into_iter().take(room));
        self.metrics.extend(other.metrics);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(known, _, _)| known == name)
            .map(|(_, value, _)| *value)
    }
}

/// `numerator / denominator`, or 0 when there is nothing to divide by.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// A workload: its name and how to run it.
struct Workload {
    name: &'static str,
    run: fn(&Plan) -> RunReport,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim-n96",
        run: sim::sequential,
    },
    Workload {
        name: "sim-part-n256",
        run: sim::partitioned,
    },
    Workload {
        name: "svc-mixed",
        run: svc::mixed,
    },
    Workload {
        name: "svc-saturate",
        run: svc::saturate,
    },
];

/// The end-to-end metrics an untraced run reports, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
];

/// The per-layer metrics a traced run reports, with their units. A layer a
/// workload does not exercise reads 0 in its counts and shares; every time
/// here is measured on every workload.
const PER_LAYER: [(&str, &str); 20] = [
    ("proto.step_ns", "ns"),
    ("proto.share", "ratio"),
    ("proto.steps", "count"),
    ("proto.max_calls", "count"),
    ("proto.coin_flips", "count"),
    ("sim.events", "count"),
    ("sim.messages", "count"),
    ("sim.self_share", "ratio"),
    ("adv.share", "ratio"),
    ("part.self_share", "ratio"),
    ("svc.wait_share", "ratio"),
    ("svc.run_share", "ratio"),
    ("svc.busy_frac", "ratio"),
    ("svc.queue_high_water", "count"),
    ("exec.peak_in_flight", "count"),
    ("regs.share", "ratio"),
    ("regs.ops_per_elect", "count"),
    ("regs.ops_per_rename", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

const USAGE: &str = "usage:
  benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  benchmark compare PARENT.jsonl CHANGE.jsonl
workloads: sim-n96 sim-part-n256 svc-mixed svc-saturate";

/// Parsed command line of a run.
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 0,
            seconds: 25.0,
            trace: false,
            quick: false,
            out: None,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    let workload = WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?;
                    parsed.workload = Some(workload);
                }
                "--seed" => {
                    parsed.seed = value()?
                        .parse()
                        .map_err(|_| "--seed takes an unsigned integer".to_string())?;
                }
                "--seconds" => {
                    parsed.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| "--seconds takes a number in (0, 600]".to_string())?;
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    };
                }
                "--quick" => parsed.quick = true,
                "--out" => parsed.out = Some(PathBuf::from(value()?)),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(parsed)
    }

    fn plan(&self) -> Plan {
        // Quick mode: every workload at 1/20 length, for local sanity checks
        // only; its numbers are never compared.
        let scale = if self.quick { 20.0 } else { 1.0 };
        Plan {
            seed: self.seed,
            warmup: Duration::from_secs_f64(2.0 / scale),
            measure: Duration::from_secs_f64(self.seconds / scale),
            trace: self.trace,
            quick: self.quick,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match Args::parse(&args) {
        Ok(parsed) => match parsed.workload {
            Some(workload) => run_one(workload, &parsed),
            None => run_all(&parsed),
        },
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Run every workload, each in a child process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("cannot find this executable: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_passed = true;
    for workload in &WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            child.arg("--quick");
        }
        if let Some(out) = &args.out {
            child.arg("--out").arg(out);
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: {status}", workload.name);
                all_passed = false;
            }
            Err(error) => {
                eprintln!("{}: cannot start: {error}", workload.name);
                all_passed = false;
            }
        }
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// This process's peak resident set, in MB, from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn run_one(workload: &Workload, args: &Args) -> ExitCode {
    let plan = args.plan();
    let mut report = (workload.run)(&plan);
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
        None => report.fail("cannot read VmHWM from /proc/self/status".to_string()),
    }
    let declared: &[(&str, &str)] = if plan.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in declared {
        if report.value(name).is_none() {
            if matches!(*unit, "count" | "ratio") {
                report.metric(name, 0.0, unit);
            } else {
                report.fail(format!("{name} was not measured"));
            }
        }
    }
    if let Some((name, _, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        let what = format!("{name} is not a finite number");
        report.fail(what);
    }

    for (name, value, unit) in &report.metrics {
        println!("{} {name} {value} {unit}", workload.name);
    }
    for violation in &report.violations {
        eprintln!("{}: violation: {violation}", workload.name);
    }
    let correct = report.failed == 0;
    let chosen = metric_members(
        declared
            .iter()
            .map(|&(name, unit)| (name, report.value(name).unwrap_or(0.0), unit)),
    );
    let summary = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}",
        report.attempted.max(1),
        report.failed
    );
    if let Some(path) = &args.out {
        if let Err(error) = append_record(path, workload.name, args, &summary, &report) {
            eprintln!("cannot write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{{{summary}, \"metrics\": {{{chosen}}}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `"name": {"value": …, "unit": …}` object members, comma-separated. A
/// value that is not finite, already counted as a failure, is written as 0.
fn metric_members<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut members = String::new();
    for (index, (name, value, unit)) in metrics.enumerate() {
        let comma = if index == 0 { "" } else { ", " };
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            members,
            "{comma}{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        );
    }
    members
}

/// Append this run's record — every metric, not just the declared ones —
/// and, for a traced run, its raw span trees, to the `--out` file.
fn append_record(
    path: &Path,
    workload: &str,
    args: &Args,
    summary: &str,
    report: &RunReport,
) -> std::io::Result<()> {
    let metrics = metric_members(
        report
            .metrics
            .iter()
            .map(|(name, value, unit)| (name.as_str(), *value, *unit)),
    );
    let head = format!(
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}",
        json::quote(workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{{{head}, {summary}, \"metrics\": {{{metrics}}}}}")?;
    if let Some(spans) = &report.spans {
        writeln!(file, "{{{head}, \"spans\": {spans}}}")?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_array)
            .expect("the section is a list")
            .iter()
            .map(|entry| {
                let field = |key| entry.get(key).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    #[test]
    fn the_declared_metrics_are_the_reported_ones() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args =
            |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
        let parsed = Args::parse(&args(
            "--workload svc-saturate --seed 9 --seconds 3 --trace 1 --quick",
        ))
        .unwrap();
        assert_eq!(parsed.workload.map(|w| w.name), Some("svc-saturate"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace, parsed.quick),
            (9, 3.0, true, true)
        );
        assert_eq!(parsed.plan().measure, Duration::from_millis(150));
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--trace yes",
            "--seed",
            "--frobnicate",
        ] {
            assert!(Args::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
