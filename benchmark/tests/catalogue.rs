//! `/BENCHMARK.json` and the catalogue compiled into the benchmark must
//! say the same thing, in both directions, and stay inside the driver's
//! schema.

use grout_benchmark::catalogue::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {v:?}"))
}

fn assert_metrics_match(listed: &[Value], declared: &[Metric], keys: &[&str]) {
    assert_eq!(listed.len(), declared.len(), "metric count differs");
    for (l, d) in listed.iter().zip(declared) {
        let have: Vec<&str> = l
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(have, keys, "keys of {}", d.name);
        assert_eq!(str_of(l, "name"), d.name);
        assert_eq!(str_of(l, "unit"), d.unit, "unit of {}", d.name);
        assert_eq!(
            str_of(l, "better"),
            d.better.as_str(),
            "direction of {}",
            d.name
        );
        if keys.contains(&"bound") {
            assert_eq!(
                l.get("bound").and_then(Value::as_f64),
                Some(d.bound),
                "bound of {}",
                d.name
            );
        }
    }
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        m.get("paths").unwrap().as_array().unwrap(),
        [Value::String("benchmark".into())]
    );
    let seconds = m.get("run_seconds").and_then(Value::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
    let command = m.get("command").unwrap().as_array().unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
}

#[test]
fn workloads_match_in_both_directions() {
    let m = manifest();
    let listed = m.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(listed.len(), WORKLOADS.len());
    for (l, (name, why)) in listed.iter().zip(WORKLOADS) {
        assert_eq!(str_of(l, "name"), name);
        assert_eq!(str_of(l, "why"), why);
        assert!(name_ok(name), "workload name `{name}`");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {name} is {} chars",
            why.len()
        );
    }
}

#[test]
fn metrics_match_in_both_directions_and_fit_the_schema() {
    let m = manifest();
    assert_metrics_match(
        m.get("end_to_end").unwrap().as_array().unwrap(),
        &END_TO_END,
        &["name", "unit", "better", "bound"],
    );
    assert_metrics_match(
        m.get("per_layer").unwrap().as_array().unwrap(),
        &PER_LAYER,
        &["name", "unit", "better"],
    );
    let mut seen = std::collections::BTreeSet::new();
    for metric in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(metric.name), "metric name `{}`", metric.name);
        assert!(
            unit_ok(metric.unit),
            "unit `{}` of {}",
            metric.unit,
            metric.name
        );
        assert!(seen.insert(metric.name), "`{}` declared twice", metric.name);
    }
    for (name, _) in WORKLOADS {
        assert!(
            seen.insert(name),
            "`{name}` names both a workload and a metric"
        );
    }
    for metric in &END_TO_END {
        assert!(
            metric.bound > 0.0 && metric.bound <= 0.25,
            "bound of {}",
            metric.name
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is mandatory");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
}
