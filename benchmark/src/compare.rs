//! Result sets: `sweep` produces one, `compare` holds two against the
//! bounds of `BENCHMARK.json`.
//!
//! A set is ten seeds × four workloads, each run in both modes, each run a
//! process of its own — the same process shape the driver sees. `compare`
//! is what the "two sets of the same code agree" criterion runs, and what
//! a later change uses to show a gain or the absence of a regression.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{self, BenchmarkFile};
use crate::stats::Summary;
use crate::sys;

/// The verdict on one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way, and within the first set's own spread.
    Same,
    /// The second set's median is better by more than the first set's
    /// interquartile range.
    Better,
    /// The second set's median is worse by more than the bound.
    Worse,
    /// A set spreads wider than the bound, so nothing can be said — unless
    /// every run of the second set beats every run of the first.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the second sample of a metric against the first.
pub fn judge(
    a: &[f64],
    b: &[f64],
    bound: f64,
    higher_is_better: bool,
) -> Option<(Summary, Summary, Verdict)> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    // Orient so that smaller is better.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (sb.median - sa.median) / sa.median;
    let clear_win = {
        let best_a = a.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
        let worst_b = b.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
        worst_b < best_a
    };
    let verdict = if sa.spread().max(sb.spread()) > bound {
        if clear_win {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > sa.spread() {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some((sa, sb, verdict))
}

/// `a..b` (inclusive) or a single seed.
pub fn parse_seeds(text: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("--seeds: expected N or A..B, got {text:?}");
    let (lo, hi) = match text.split_once("..") {
        Some((lo, hi)) => (
            lo.parse().map_err(|_| bad())?,
            hi.parse().map_err(|_| bad())?,
        ),
        None => {
            let seed = text.parse().map_err(|_| bad())?;
            (seed, seed)
        }
    };
    if lo > hi {
        return Err(bad());
    }
    Ok((lo..=hi).collect())
}

pub struct SweepConfig {
    pub seeds: Vec<u64>,
    pub out: String,
    /// `--seconds` of the gated runs.
    pub seconds: f64,
    /// `--seconds` of the traced runs (they feed only the exact counts to
    /// `compare`, which do not depend on the run's length).
    pub trace_seconds: f64,
    pub quick: bool,
}

/// Spawns `run` once per workload × seed × mode and writes the set.
pub fn sweep(cfg: &SweepConfig) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    // Seed-major: each workload's runs are spread over the whole sweep, so
    // a slow phase of the box costs every workload a run or two instead of
    // one workload most of its sample.
    for &seed in &cfg.seeds {
        for workload in spec::workloads() {
            for (trace, seconds) in [(0, cfg.seconds), (1, cfg.trace_seconds)] {
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", workload.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()]);
                if cfg.quick {
                    cmd.arg("--quick");
                }
                let out = cmd
                    .env(sys::ARENA_MAX, "1")
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawning run: {e}"))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = stdout.lines().last().unwrap_or_default();
                if !out.status.success() {
                    return Err(format!(
                        "run {} seed {seed} trace {trace} exited with {}",
                        workload.name, out.status
                    ));
                }
                let result = Json::parse(line)?;
                eprintln!(
                    "{} seed {seed} trace {trace}: correct {}",
                    workload.name,
                    result
                        .get("correct")
                        .and_then(Json::as_bool)
                        .unwrap_or(false)
                );
                runs.push(Json::obj([
                    ("workload", Json::str(workload.name)),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Num(f64::from(trace))),
                    ("result", result),
                ]));
            }
        }
    }
    let set = Json::obj([
        ("env", sys::env_stamp(0, spec::WORKERS)),
        ("seconds", Json::Num(cfg.seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&cfg.out, format!("{set}\n")).map_err(|e| format!("{}: {e}", cfg.out))
}

/// The values of one result set: `(workload, metric) → seed → value`, for
/// the end-to-end metrics of the gated runs and the per-layer metrics of
/// the traced ones, plus what went wrong in any run.
struct ResultSet {
    values: BTreeMap<(String, String), BTreeMap<u64, f64>>,
    incorrect: Vec<String>,
}

fn load_set(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no runs"))?;
    let mut set = ResultSet {
        values: BTreeMap::new(),
        incorrect: Vec::new(),
    };
    for run in runs {
        let field = |key: &str| {
            run.get(key)
                .ok_or_else(|| format!("{path}: a run lacks {key:?}"))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        let result = field("result")?;
        let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
        if !correct || failed != 0.0 {
            set.incorrect.push(format!(
                "{path}: {workload} seed {seed}: correct {correct}, failed {failed}"
            ));
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}: a result lacks metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: metric {name} has no value"))?;
            set.values
                .entry((workload.clone(), name.clone()))
                .or_default()
                .insert(seed, value);
        }
    }
    Ok(set)
}

/// Compares two result sets; returns the report and whether the second
/// set passes (no `worse`, no exact-count mismatch, no incorrect run).
pub fn compare(path_a: &str, path_b: &str, file: &BenchmarkFile) -> Result<(String, bool), String> {
    let (a, b) = (load_set(path_a)?, load_set(path_b)?);
    let mut report = String::new();
    let mut pass = true;
    let empty = BTreeMap::new();

    report.push_str(&format!(
        "{:<14} {:<20} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  {}\n",
        "workload",
        "metric",
        "median A",
        "iqr/med",
        "median B",
        "iqr/med",
        "B vs A",
        "bound",
        "verdict"
    ));
    for workload in &file.workloads {
        for (metric, unit, better, bound) in &file.end_to_end {
            let key = (workload.clone(), metric.clone());
            let values = |set: &ResultSet| -> Vec<f64> {
                set.values
                    .get(&key)
                    .unwrap_or(&empty)
                    .values()
                    .copied()
                    .collect()
            };
            let Some((sa, sb, verdict)) =
                judge(&values(&a), &values(&b), *bound, better == "higher")
            else {
                report.push_str(&format!("{workload:<14} {metric:<20} missing from a set\n"));
                pass = false;
                continue;
            };
            pass &= verdict != Verdict::Worse;
            report.push_str(&format!(
                "{workload:<14} {:<20} {:>12.5} {:>6.1}% {:>12.5} {:>6.1}% {:>+7.1}% {:>5.0}%  {}\n",
                format!("{metric} [{unit}]"),
                sa.median,
                sa.spread() * 100.0,
                sb.median,
                sb.spread() * 100.0,
                (sb.median - sa.median) / sa.median * 100.0,
                bound * 100.0,
                verdict.word(),
            ));
        }
    }

    // Exact counts must repeat bit for bit, seed by seed.
    let mut compared = 0;
    for workload in &file.workloads {
        for metric in spec::per_layer().iter().filter(|m| m.exact) {
            let key = (workload.clone(), metric.name.clone());
            let (va, vb) = (
                a.values.get(&key).unwrap_or(&empty),
                b.values.get(&key).unwrap_or(&empty),
            );
            for (seed, x) in va {
                let Some(y) = vb.get(seed) else { continue };
                compared += 1;
                if x != y {
                    pass = false;
                    report.push_str(&format!(
                        "count mismatch: {workload} {} seed {seed}: {x} != {y}\n",
                        metric.name
                    ));
                }
            }
        }
    }
    report.push_str(&format!(
        "{compared} exact per-layer counts compared seed by seed\n"
    ));
    for problem in a.incorrect.iter().chain(&b.incorrect) {
        pass = false;
        report.push_str(&format!("incorrect run: {problem}\n"));
    }
    Ok((report, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + step * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let verdict = |a: &[f64], b: &[f64], higher| judge(a, b, 0.15, higher).unwrap().2;
        let base = around(1.0, 0.004);
        assert_eq!(verdict(&base, &around(1.01, 0.004), false), Verdict::Same);
        assert_eq!(verdict(&base, &around(1.2, 0.004), false), Verdict::Worse);
        assert_eq!(verdict(&base, &around(0.9, 0.004), false), Verdict::Better);
        // For a higher-is-better metric the same numbers read the other way.
        assert_eq!(verdict(&base, &around(1.2, 0.004), true), Verdict::Better);
        assert_eq!(verdict(&base, &around(0.8, 0.004), true), Verdict::Worse);
        // A set that spreads wider than the bound resolves nothing ...
        let wide = around(1.0, 0.05);
        assert_eq!(
            verdict(&wide, &around(1.3, 0.004), false),
            Verdict::Unresolved
        );
        // ... unless every run of the second set beats every run of the first.
        assert_eq!(verdict(&wide, &around(0.5, 0.004), false), Verdict::Better);
        assert!(judge(&[], &base, 0.15, false).is_none());
    }

    #[test]
    fn seed_ranges_parse() {
        assert_eq!(parse_seeds("1..3").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_seeds("7").unwrap(), vec![7]);
        assert!(parse_seeds("3..1").is_err());
        assert!(parse_seeds("a..b").is_err());
    }
}
