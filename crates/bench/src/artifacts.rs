//! Machine-readable artifact emission shared by the bench binaries.
//!
//! Every binary that accepts `--trace-out <path>` / `--metrics-out <path>`
//! parses them through [`ArtifactArgs`] and funnels its output through the
//! helpers here, so all artifacts share one shape:
//!
//! - `--trace-out` writes a Chrome `trace_event` JSON file (load it at
//!   <https://ui.perfetto.dev> or `chrome://tracing`),
//! - `--metrics-out` writes one [`MetricsSnapshot`](grout::core::MetricsSnapshot)
//!   as JSON, keyed by family name, with every labelled run's samples
//!   tagged `run="<label>"`.

use grout::core::{ChromeTracer, Metrics, Shared, SimConfig, SimRuntime};
use grout::workloads::SimWorkload;
use std::path::PathBuf;

/// Parsed `--trace-out` / `--metrics-out` flags.
#[derive(Debug, Clone, Default)]
pub struct ArtifactArgs {
    /// Destination for the Chrome `trace_event` JSON, if requested.
    pub trace_out: Option<PathBuf>,
    /// Destination for the metrics dump (JSON).
    pub metrics_out: Option<PathBuf>,
}

impl ArtifactArgs {
    /// Extracts `--trace-out <path>` and `--metrics-out <path>` from the
    /// raw argument list (other arguments are left for the caller).
    pub fn parse(args: &[String]) -> ArtifactArgs {
        let path_after = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .map(PathBuf::from)
        };
        ArtifactArgs {
            trace_out: path_after("--trace-out"),
            metrics_out: path_after("--metrics-out"),
        }
    }

    /// Whether any artifact was requested (skip instrumentation otherwise).
    pub fn wanted(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Writes the tracer's Chrome trace if `--trace-out` was given.
    pub fn write_trace(&self, tracer: &ChromeTracer) {
        if let Some(path) = &self.trace_out {
            tracer.write_to(path).expect("write trace artifact");
            eprintln!("trace: wrote {} events to {}", tracer.len(), path.display());
        }
    }

    /// Writes the labeled runs' metrics as one snapshot if `--metrics-out`
    /// was given; each `(label, metrics)` pair's samples carry
    /// `run="<label>"`.
    pub fn write_metrics(&self, labeled: &[(&str, &Metrics)]) {
        let Some(path) = &self.metrics_out else {
            return;
        };
        let mut snap = grout::core::MetricsSnapshot::new();
        for (label, m) in labeled {
            snap.merge(m.snapshot(&[("run", label)]));
        }
        let body = serde_json::to_string_pretty(&snap.to_json()).expect("render metrics artifact");
        std::fs::write(path, body).expect("write metrics artifact");
        eprintln!(
            "metrics: wrote {} section(s) to {}",
            labeled.len(),
            path.display()
        );
    }
}

/// Runs `workload` at `footprint_bytes` on a fresh instrumented runtime
/// and returns it with its recording still attached, so callers can pull
/// both the Chrome trace and the [`Metrics`] registry out of one run.
pub fn instrumented_run(
    workload: &dyn SimWorkload,
    cfg: SimConfig,
    footprint_bytes: u64,
) -> (SimRuntime, Shared<ChromeTracer>) {
    let tracer = Shared::new(ChromeTracer::new());
    let mut rt = grout::Runtime::builder()
        .sim_config(cfg)
        .telemetry(tracer.telemetry())
        .build_sim()
        .expect("valid config");
    workload.submit(&mut rt, footprint_bytes);
    (rt, tracer)
}

/// Emits the requested artifacts from one instrumented representative run
/// (used by the figure bins, whose sweeps are too big to trace whole).
pub fn emit_representative(
    art: &ArtifactArgs,
    label: &str,
    workload: &dyn SimWorkload,
    cfg: SimConfig,
    footprint_bytes: u64,
) {
    if !art.wanted() {
        return;
    }
    let (rt, tracer) = instrumented_run(workload, cfg, footprint_bytes);
    art.write_trace(&tracer.lock());
    art.write_metrics(&[(label, rt.metrics())]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_both_flags_anywhere() {
        let art = ArtifactArgs::parse(&strings(&[
            "bin",
            "cg",
            "--trace-out",
            "t.json",
            "96",
            "--metrics-out",
            "m.json",
        ]));
        assert_eq!(
            art.trace_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
        assert_eq!(
            art.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );
        assert!(art.wanted());
        assert!(!ArtifactArgs::parse(&strings(&["bin", "cg"])).wanted());
    }

    #[test]
    fn write_metrics_merges_labelled_runs_into_one_snapshot() {
        use serde_json::Value;
        let path = std::env::temp_dir().join(format!("grout-metrics-{}.json", std::process::id()));
        let art = ArtifactArgs {
            trace_out: None,
            metrics_out: Some(path.clone()),
        };
        art.write_metrics(&[
            ("one", &Metrics::with_workers(1)),
            ("two", &Metrics::with_workers(2)),
        ]);
        let body = std::fs::read_to_string(&path).expect("artifact written");
        std::fs::remove_file(&path).expect("remove artifact");
        let dump = serde_json::from_str(&body).expect("artifact parses");
        let samples = dump
            .get("grout_worker_kernels_total")
            .and_then(|f| f.get("samples"))
            .and_then(Value::as_array)
            .expect("one family for both runs");
        let runs: Vec<&str> = samples
            .iter()
            .filter_map(|s| s.get("labels")?.get("run")?.as_str())
            .collect();
        assert_eq!(runs, ["one", "two", "two"]);
    }

    #[test]
    fn instrumented_run_collects_spans_and_metrics() {
        use grout::workloads::ConjugateGradient;
        let cfg = SimConfig::paper_grout(2, grout::PolicyKind::RoundRobin);
        let (rt, tracer) = instrumented_run(&ConjugateGradient::default(), cfg, 1 << 28);
        assert!(rt.metrics().total_kernels() > 0);
        assert!(!tracer.lock().is_empty());
    }
}
