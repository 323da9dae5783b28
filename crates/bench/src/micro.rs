//! The micro-benchmark harness every `benches/*.rs` target runs on: one
//! timing loop ([`time`]) and one row writer ([`Bench`]).
//!
//! A target records `(name, value, unit)` rows; a row named in the
//! target's `*_before` table is followed by a `<name>_before` row carrying
//! the value measured before the change the table documents.
//! [`Bench::finish`] writes `target/bench/BENCH_<bench>.json` as
//! `{"bench", "box", "results": [{name, value, unit}]}`, where `box`
//! names the machine (core count, CPU model, rustc version). It never
//! touches the committed `BENCH_<bench>.json` at the repo root: each live
//! row prints beside its committed value and the % delta, or "other box"
//! when the committed file names another machine or none, and updating
//! the committed file is a `cp`.

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
    machine: Value,
    results: Vec<Row>,
}

impl Artifact {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("bench".into(), Value::String(self.bench.into())),
            ("box".into(), self.machine.clone()),
            (
                "results".into(),
                Value::Array(self.results.iter().map(Row::to_json).collect()),
            ),
        ])
    }
}

/// The machine a run measures on: core count, `/proc/cpuinfo` model
/// name and rustc version. Rows from two machines are not comparable.
fn this_box() -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| Some(l.strip_prefix("model name")?.split_once(':')?.1.trim()))
        .unwrap_or_default();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    Value::Object(vec![
        ("cores".into(), Value::U64(cores)),
        ("model".into(), Value::String(model.into())),
        ("rustc".into(), Value::String(rustc)),
    ])
}

/// One target's rows, bound for `target/bench/BENCH_<bench>.json`.
pub struct Bench {
    artifact: Artifact,
    before: &'static [(&'static str, f64)],
    committed: Vec<(String, f64)>,
    /// The `box` the committed file names, if any.
    committed_box: Option<Value>,
}

impl Bench {
    /// Starts target `bench`; `before` pairs row names with their
    /// `*_before` values (empty when the target has none).
    pub fn new(bench: &'static str, before: &'static [(&'static str, f64)]) -> Bench {
        let body = std::fs::read_to_string(Path::new(ROOT).join(file_name(bench)));
        let doc = body.ok().and_then(|b| serde_json::from_str(&b).ok());
        Bench {
            artifact: Artifact {
                bench,
                machine: this_box(),
                results: Vec::new(),
            },
            before,
            committed: doc.as_ref().map(parse_rows).unwrap_or_default(),
            committed_box: doc.and_then(|d| d.get("box").cloned()),
        }
    }

    /// `value` beside the committed value of row `name`: the % delta on
    /// the same box, "other box" otherwise, nothing without a committed
    /// row.
    fn delta(&self, name: &str, value: f64, p: usize) -> String {
        let Some((_, c)) = self.committed.iter().find(|(n, _)| n == name) else {
            return String::new();
        };
        if self.committed_box.as_ref() != Some(&self.artifact.machine) {
            return format!("  (committed {c:.p$}, other box)");
        }
        format!("  (committed {c:.p$}, {:+.1}%)", (value / c - 1.0) * 100.0)
    }

    /// Records one row (plus its `*_before` row, if the table has one) and
    /// prints it beside the committed value.
    pub fn row(&mut self, name: &str, value: f64, unit: &'static str) {
        // Ratios need three decimals; nanoseconds need one.
        let p = if value.abs() < 10.0 { 3 } else { 1 };
        let committed = self.delta(name, value, p);
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

/// `(name, value)` of every row of a parsed `BENCH_*.json`.
fn parse_rows(doc: &Value) -> Vec<(String, f64)> {
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
        let doc = serde_json::from_str(&body).unwrap();
        assert_eq!(
            parse_rows(&doc),
            [
                ("a".into(), 1.0),
                ("a_before".into(), 2.0),
                ("b".into(), 3.0)
            ]
        );
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("micro_test"));
        assert!(time(Duration::ZERO, || {}) >= 0.0);
    }

    #[test]
    fn a_delta_is_printed_only_against_the_same_box() {
        let mut b = Bench::new("micro_test", &[]);
        b.committed = vec![("a".into(), 2.0)];
        let cores = b.artifact.machine.get("cores").and_then(Value::as_u64);
        assert!(cores.is_some_and(|c| c > 0));
        assert_eq!(b.delta("a", 1.0, 3), "  (committed 2.000, other box)");
        b.committed_box = Some(b.artifact.machine.clone());
        assert_eq!(b.delta("a", 1.0, 3), "  (committed 2.000, -50.0%)");
        assert_eq!(b.delta("b", 1.0, 3), "");
        let mut elsewhere = b.artifact.machine.clone();
        if let Value::Object(fields) = &mut elsewhere {
            fields[0].1 = Value::U64(cores.unwrap() + 1);
        }
        b.committed_box = Some(elsewhere);
        assert_eq!(b.delta("a", 1.0, 3), "  (committed 2.000, other box)");
    }
}
