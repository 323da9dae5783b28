//! What one run of one workload reports, and how it is printed.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::catalogue::{Metric, END_TO_END, PER_LAYER};

/// Failure accounting plus named metric values for one workload run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Public calls into the program (and output checks) attempted.
    pub attempted: u64,
    /// Of those: calls that returned `Err`, reps that timed out, outputs
    /// that did not match the reference.
    pub failed: u64,
    /// Why operations failed, for the human reader (stderr).
    pub notes: Vec<String>,
    /// Timed reps behind the medians.
    pub reps: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric. Panics on a name the catalogue does not declare:
    /// an undeclared metric is a bug in the benchmark, not a result.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in the catalogue"));
        self.values
            .insert(declared.name, if value.is_finite() { value } else { 0.0 });
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Notes one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(why.into());
    }

    /// Outputs verified and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `declared` (a layer
    /// that is not on this workload's path reads 0).
    pub fn to_json(&self, declared: &[Metric]) -> Value {
        let metrics = declared
            .iter()
            .map(|m| {
                let value = self.values.get(m.name).copied().unwrap_or(0.0);
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::F64(value)),
                        ("unit".to_string(), Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }

    /// Human-readable table of `declared`, one metric per line.
    pub fn print_table(&self, workload: &str, declared: &[Metric]) {
        for m in declared {
            let value = self.values.get(m.name).copied().unwrap_or(0.0);
            println!("{workload:<22} {:<40} {value:>16.4} {}", m.name, m.unit);
        }
        println!(
            "{workload:<22} {:<40} {:>16} count",
            "ops_attempted", self.attempted
        );
        println!(
            "{workload:<22} {:<40} {:>16} count",
            "ops_failed", self.failed
        );
        println!(
            "{workload:<22} {:<40} {:>16} count",
            "timed_reps", self.reps
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys_and_every_declared_metric() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.set("ce_per_s", 1234.5);
        let v = r.to_json(&END_TO_END);
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("ce_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1234.5)
        );
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        r.fail("x");
        assert_eq!(
            r.to_json(&END_TO_END).get("correct").unwrap().as_bool(),
            Some(false)
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Report::default().set("made.up", 1.0);
    }
}
