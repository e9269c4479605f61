//! `benchmark compare PARENT.jsonl CHANGE.jsonl`: judge repeated runs of
//! two commits, workload by workload and metric by metric.
//!
//! Both files hold the records `--out` appends. Only untraced, full-length
//! runs count. The rule:
//!
//! * **improved** — the change wins at least nine tenths of the pairs
//!   (run `i` of one side against run `i` of the other; ties count for
//!   neither) and the medians differ by more than the parent's quartile
//!   distance;
//! * **regressed** — the change's median is worse than the parent's by more
//!   than the metric's bound in `BENCHMARK.json`, or a change run failed a
//!   check;
//! * **unresolved** — either side's spread (quartile distance over median)
//!   is wider than the bound, unless every change run beats every parent run;
//! * **unchanged** — otherwise.

use crate::json::Json;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// An end-to-end metric's bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    share: f64,
}

/// What a comparison concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the rule for claiming a gain.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Neither, and the spread is within the bound.
    Unchanged,
    /// The spread is wider than the bound.
    Unresolved,
}

/// The verdict on one metric of one workload, and the pair wins behind it.
pub fn judge(parent: &[f64], change: &[f64], bound: &Bound) -> (Verdict, usize, usize) {
    let better = |a: f64, b: f64| {
        if bound.lower_is_better {
            a < b
        } else {
            a > b
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let [p1, parent_median, p3] = quartiles(parent);
    let [c1, change_median, c3] = quartiles(change);
    let spread = |q1: f64, q3: f64, median: f64| (q3 - q1) / median.abs().max(f64::MIN_POSITIVE);
    let worse_by = if bound.lower_is_better {
        change_median - parent_median
    } else {
        parent_median - change_median
    } / parent_median.abs().max(f64::MIN_POSITIVE);
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if pairs > 0
        && wins * 10 >= pairs * 9
        && better(change_median, parent_median)
        && (change_median - parent_median).abs() > p3 - p1
    {
        Verdict::Improved
    } else if worse_by > bound.share {
        Verdict::Regressed
    } else if (spread(p1, p3, parent_median) > bound.share
        || spread(c1, c3, change_median) > bound.share)
        && !every_run_better
    {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, wins, pairs)
}

/// One untraced run's record.
#[derive(Debug, Default)]
struct Record {
    failed: u64,
    attempted: u64,
    metrics: BTreeMap<String, f64>,
}

/// The comparable records of a `--out` file, by workload, in file order.
fn load_records(path: &str) -> Result<BTreeMap<String, Vec<Record>>, String> {
    let text = std::fs::read_to_string(path).map_err(|error| format!("{path}: {error}"))?;
    parse_records(&text, path)
}

/// [`load_records`] on the text of the file `path`.
fn parse_records(text: &str, path: &str) -> Result<BTreeMap<String, Vec<Record>>, String> {
    let mut by_workload: BTreeMap<String, Vec<Record>> = BTreeMap::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|error| format!("{path}:{}: {error}", number + 1))?;
        let Some(metrics) = doc.get("metrics").and_then(Json::as_object) else {
            continue; // a span record
        };
        let traced = doc.get("trace").and_then(Json::as_f64) != Some(0.0);
        let quick = doc.get("quick") == Some(&Json::Bool(true));
        if traced || quick {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", number + 1))?;
        let count = |key| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let correct = doc.get("correct") == Some(&Json::Bool(true));
        let record = Record {
            failed: count("failed").max(u64::from(!correct)),
            attempted: count("attempted"),
            metrics: metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        };
        by_workload
            .entry(workload.to_string())
            .or_default()
            .push(record);
    }
    Ok(by_workload)
}

/// The workload names and end-to-end bounds of a `BENCHMARK.json`.
fn load_bounds(path: &str) -> Result<(Vec<String>, Vec<Bound>), String> {
    let text = std::fs::read_to_string(path).map_err(|error| format!("{path}: {error}"))?;
    let doc = Json::parse(&text).map_err(|error| format!("{path}: {error}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}: no {key} list"))
    };
    let workloads = list("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
        .collect();
    let bounds = list("end_to_end")?
        .iter()
        .map(|entry| {
            let text = |key| entry.get(key).and_then(Json::as_str);
            Some(Bound {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                lower_is_better: text("better")? == "lower",
                share: entry.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))?;
    Ok((workloads, bounds))
}

/// `value` with six significant digits.
fn sig(value: f64) -> String {
    let magnitude = if value == 0.0 {
        0
    } else {
        value.abs().log10().floor() as i32
    };
    let decimals = (5 - magnitude).max(0) as usize;
    format!("{value:.decimals$}")
}

fn label(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Improved => "improved",
        Verdict::Regressed => "regressed",
        Verdict::Unchanged => "unchanged",
        Verdict::Unresolved => "unresolved",
    }
}

/// The `compare` subcommand, run from the repository root (where
/// `BENCHMARK.json` is); exits non-zero when anything regressed.
pub fn main(args: &[String]) -> ExitCode {
    let [parent_path, change_path] = args else {
        eprintln!("usage: benchmark compare PARENT.jsonl CHANGE.jsonl");
        return ExitCode::from(2);
    };
    let loaded = load_bounds("BENCHMARK.json").and_then(|(workloads, bounds)| {
        Ok((
            workloads,
            bounds,
            load_records(parent_path)?,
            load_records(change_path)?,
        ))
    });
    let (workloads, bounds, parent, change) = match loaded {
        Ok(loaded) => loaded,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::from(2);
        }
    };

    println!(
        "{:<16} {:<18} {:>22} {:>22} {:>22} {:>22} {:>6}  verdict",
        "workload",
        "metric",
        "parent median",
        "parent q1..q3",
        "change median",
        "change q1..q3",
        "wins"
    );
    let mut regressed = false;
    let empty = Vec::new();
    for workload in &workloads {
        let (p, c) = (
            parent.get(workload).unwrap_or(&empty),
            change.get(workload).unwrap_or(&empty),
        );
        if p.is_empty() || c.is_empty() {
            println!(
                "{workload:<16} (no runs: parent {}, change {})",
                p.len(),
                c.len()
            );
            continue;
        }
        for bound in &bounds {
            let values = |records: &[Record]| -> Vec<f64> {
                records
                    .iter()
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (pv, cv) = (values(p), values(c));
            if pv.is_empty() || cv.is_empty() {
                println!("{workload:<16} {:<18} (not reported)", bound.name);
                continue;
            }
            let (verdict, wins, pairs) = judge(&pv, &cv, bound);
            regressed |= verdict == Verdict::Regressed;
            let [p1, pm, p3] = quartiles(&pv);
            let [c1, cm, c3] = quartiles(&cv);
            println!(
                "{workload:<16} {:<18} {:>22} {:>22} {:>22} {:>22} {:>6}  {}",
                format!("{} ({})", bound.name, bound.unit),
                sig(pm),
                format!("{}..{}", sig(p1), sig(p3)),
                sig(cm),
                format!("{}..{}", sig(c1), sig(c3)),
                format!("{wins}/{pairs}"),
                label(verdict)
            );
        }
        let failures = |records: &[Record]| {
            let failed: u64 = records.iter().map(|r| r.failed).sum();
            let attempted: u64 = records.iter().map(|r| r.attempted).sum();
            (failed, attempted)
        };
        let ((pf, pa), (cf, ca)) = (failures(p), failures(c));
        let verdict = if cf > 0 { "regressed" } else { "unchanged" };
        regressed |= cf > 0;
        println!(
            "{workload:<16} {:<18} {:>22} {:>22} {:>22} {:>22} {:>6}  {verdict}",
            "failed (count)",
            format!("{pf} of {pa}"),
            "",
            format!("{cf} of {ca}"),
            "",
            ""
        );
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool, share: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            unit: "us".to_string(),
            lower_is_better,
            share,
        }
    }

    #[test]
    fn a_clear_gain_on_every_pair_is_improved() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.4,
        ];
        let change: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            judge(&parent, &change, &bound(true, 0.1)),
            (Verdict::Improved, 10, 10)
        );
        // The same numbers for a higher-is-better metric are a regression.
        assert_eq!(
            judge(&parent, &change, &bound(false, 0.1)).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn noise_within_the_bound_is_unchanged() {
        let parent = [100.0, 102.0, 98.0, 101.0, 99.0];
        let change = [101.0, 99.0, 100.0, 98.5, 102.0];
        assert_eq!(
            judge(&parent, &change, &bound(true, 0.1)).0,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = [100.0, 130.0, 80.0, 120.0, 90.0];
        let change = [105.0, 125.0, 85.0, 118.0, 92.0];
        assert_eq!(
            judge(&parent, &change, &bound(true, 0.1)).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn losing_most_pairs_by_more_than_the_bound_is_regressed() {
        let parent = [100.0, 101.0, 99.0, 100.0];
        let change = [120.0, 119.0, 121.0, 118.0];
        assert_eq!(
            judge(&parent, &change, &bound(true, 0.1)),
            (Verdict::Regressed, 0, 4)
        );
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(sig(0.0000567891), "0.0000567891");
        assert_eq!(sig(832229.05314), "832229");
        assert_eq!(sig(42.4430), "42.4430");
        assert_eq!(sig(0.0), "0.00000");
    }

    #[test]
    fn records_skip_traced_quick_and_span_lines() {
        let line = |trace: u8, quick: bool, value: f64| {
            format!(
                "{{\"workload\": \"w\", \"seed\": 1, \"seconds\": 20, \"trace\": {trace}, \
                 \"quick\": {quick}, \"correct\": true, \"attempted\": 5, \"failed\": 0, \
                 \"metrics\": {{\"m\": {{\"value\": {value}, \"unit\": \"us\"}}}}}}\n"
            )
        };
        let text = line(0, false, 1.5)
            + &line(1, false, 2.5)
            + &line(0, true, 3.5)
            + "{\"workload\": \"w\", \"spans\": []}\n";
        let records = parse_records(&text, "runs.jsonl").unwrap();
        assert_eq!(records["w"].len(), 1);
        assert_eq!(records["w"][0].metrics["m"], 1.5);
        assert_eq!(records["w"][0].attempted, 5);
    }
}
