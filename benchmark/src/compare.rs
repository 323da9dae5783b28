//! `--compare a b`: one row per (workload, end-to-end metric), the change
//! of the medians against the metric's bound, and `unresolved` where the
//! run-to-run spread of either side exceeds that bound.

use serde_json::Value;

use crate::catalogue::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// Values of `metric` on `workload` over every untraced run in `runs`.
fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_u64) == Some(0))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The tagged result lines of a file; anything else in it (tables,
/// comments, build noise) is skipped.
fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let runs: Vec<Value> = text
        .lines()
        .filter(|l| l.starts_with('{'))
        .filter_map(|l| serde_json::from_str(l).ok())
        .filter(|v| v.get("workload").is_some())
        .collect();
    if runs.is_empty() {
        return Err(format!(
            "{path}: no tagged result lines (produce them by running without --workload)"
        ));
    }
    Ok(runs)
}

/// How one metric moved from `a` to `b`.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Either side's spread exceeds the bound: the runs cannot tell.
    Unresolved,
    /// Worse by more than the bound.
    Regression,
    /// Better by more than the bound (not by itself a claimable gain: see
    /// the README's noise protocol).
    Better,
    /// Within the bound either way.
    Within,
}

/// Judges `b` against `a`; also returns the change as a share of `a`'s
/// median, positive when `b` is worse.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let noisy = |v: &[f64]| spread(v).is_some_and(|s| s > metric.bound);
    let verdict = if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regression
    } else if worse < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (verdict, worse)
}

/// Prints the comparison table.
pub fn run(a: &str, b: &str) -> Result<(), String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    println!(
        "{:<22} {:<16} {:>6} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload",
        "metric",
        "unit",
        "a.median",
        "b.median",
        "worse%",
        "bound%",
        "a.iqr%",
        "b.iqr%"
    );
    let pct = |s: Option<f64>| s.map_or("n<2".to_string(), |s| format!("{:.1}", s * 100.0));
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                values(&runs_a, workload, metric.name),
                values(&runs_b, workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (verdict, worse) = judge(metric, &va, &vb);
            println!(
                "{:<22} {:<16} {:>6} {:>14.4} {:>14.4} {:>+9.1} {:>7.0} {:>9} {:>9}  {}",
                workload,
                metric.name,
                metric.unit,
                median(&va),
                median(&vb),
                worse * 100.0,
                metric.bound * 100.0,
                pct(spread(&va)),
                pct(spread(&vb)),
                match verdict {
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Better => "better",
                    Verdict::Within => "within bound",
                }
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let ce = &END_TO_END[0]; // ce_per_s, higher is better
        let rtt = &END_TO_END[1]; // sync_rtt_p50_us, lower is better
        let steady = |m: f64| vec![m * 0.99, m, m * 1.01, m, m];
        assert_eq!(
            judge(ce, &steady(100.0), &steady(50.0)).0,
            Verdict::Regression
        );
        assert_eq!(judge(ce, &steady(100.0), &steady(150.0)).0, Verdict::Better);
        assert_eq!(judge(ce, &steady(100.0), &steady(98.0)).0, Verdict::Within);
        assert_eq!(
            judge(rtt, &steady(100.0), &steady(150.0)).0,
            Verdict::Regression
        );
        assert_eq!(judge(rtt, &steady(100.0), &steady(50.0)).0, Verdict::Better);
        let noisy = vec![50.0, 100.0, 150.0, 60.0, 140.0];
        assert_eq!(judge(ce, &noisy, &steady(100.0)).0, Verdict::Unresolved);
        // One run a side: no spread to judge by, the bound still applies.
        assert_eq!(judge(ce, &[100.0], &[50.0]).0, Verdict::Regression);
    }
}
