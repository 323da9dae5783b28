//! The micro-benchmark harness every `benches/*.rs` target runs on: one
//! timing loop ([`time`]) and one row writer ([`Bench`]).
//!
//! A target records `(name, value, unit)` rows; a row named in the
//! target's `*_before` table is followed by a `<name>_before` row carrying
//! the value measured before the change the table documents.
//! [`Bench::finish`] writes `target/bench/BENCH_<bench>.json` as
//! `{"bench", "results": [{name, value, unit}]}` and never touches the
//! committed `BENCH_<bench>.json` at the repo root: each live row prints
//! beside its committed value and the % delta, and updating the committed
//! file is a `cp`.

use std::path::Path;
use std::time::{Duration, Instant};

use serde_json::Value;

/// The workspace root (committed files) — `target/bench/` sits under it.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Runs `routine` once as a warm-up (lazy allocations stay out of the
/// measurement), then for at least `budget` and three rounds; returns ns
/// per iteration.
pub fn time(budget: Duration, mut routine: impl FnMut()) -> f64 {
    routine();
    let start = Instant::now();
    let mut iters = 0u64;
    while iters < 3 || start.elapsed() < budget {
        routine();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

struct Row {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Row {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::String(self.name.clone())),
            ("value".into(), Value::F64(self.value)),
            ("unit".into(), Value::String(self.unit.into())),
        ])
    }
}

struct Artifact {
    bench: &'static str,
    results: Vec<Row>,
}

impl Artifact {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("bench".into(), Value::String(self.bench.into())),
            (
                "results".into(),
                Value::Array(self.results.iter().map(Row::to_json).collect()),
            ),
        ])
    }
}

/// One target's rows, bound for `target/bench/BENCH_<bench>.json`.
pub struct Bench {
    artifact: Artifact,
    before: &'static [(&'static str, f64)],
    committed: Vec<(String, f64)>,
}

impl Bench {
    /// Starts target `bench`; `before` pairs row names with their
    /// `*_before` values (empty when the target has none).
    pub fn new(bench: &'static str, before: &'static [(&'static str, f64)]) -> Bench {
        let committed = std::fs::read_to_string(Path::new(ROOT).join(file_name(bench)))
            .map(|body| parse_rows(&body))
            .unwrap_or_default();
        Bench {
            artifact: Artifact {
                bench,
                results: Vec::new(),
            },
            before,
            committed,
        }
    }

    /// Records one row (plus its `*_before` row, if the table has one) and
    /// prints it beside the committed value.
    pub fn row(&mut self, name: &str, value: f64, unit: &'static str) {
        // Ratios need three decimals; nanoseconds need one.
        let p = if value.abs() < 10.0 { 3 } else { 1 };
        let committed = self
            .committed
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| format!("  (committed {c:.p$}, {:+.1}%)", (value / c - 1.0) * 100.0))
            .unwrap_or_default();
        println!(
            "bench {}/{name}: {value:.p$} {unit}{committed}",
            self.artifact.bench
        );
        let mut push = |name: String, value: f64| {
            self.artifact.results.push(Row { name, value, unit });
        };
        push(name.into(), value);
        if let Some((_, before)) = self.before.iter().find(|(n, _)| *n == name) {
            push(format!("{name}_before"), *before);
        }
    }

    /// Writes `target/bench/BENCH_<bench>.json`.
    pub fn finish(self) {
        let file = file_name(self.artifact.bench);
        let dir = Path::new(ROOT).join("target/bench");
        std::fs::create_dir_all(&dir).expect("create target/bench");
        let body = serde_json::to_string_pretty(&self.artifact.to_json()).expect("serialize");
        std::fs::write(dir.join(&file), body + "\n").expect("write bench artifact");
        println!("bench {}: wrote target/bench/{file}", self.artifact.bench);
    }
}

fn file_name(bench: &str) -> String {
    format!("BENCH_{bench}.json")
}

/// `(name, value)` of every row in a `BENCH_*.json` body.
fn parse_rows(body: &str) -> Vec<(String, f64)> {
    let Ok(doc) = serde_json::from_str(body) else {
        return Vec::new();
    };
    let rows = doc.get("results").and_then(Value::as_array).unwrap_or(&[]);
    rows.iter()
        .filter_map(|r| Some((r.get("name")?.as_str()?.into(), r.get("value")?.as_f64()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn before_rows_follow_their_row_and_round_trip() {
        let mut b = Bench::new("micro_test", &[("a", 2.0)]);
        b.row("a", 1.0, "ns_per_iter");
        b.row("b", 3.0, "ratio");
        let body = serde_json::to_string_pretty(&b.artifact.to_json()).unwrap();
        assert_eq!(
            parse_rows(&body),
            [
                ("a".into(), 1.0),
                ("a_before".into(), 2.0),
                ("b".into(), 3.0)
            ]
        );
        let doc = serde_json::from_str(&body).unwrap();
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("micro_test"));
        assert!(time(Duration::ZERO, || {}) >= 0.0);
    }
}
