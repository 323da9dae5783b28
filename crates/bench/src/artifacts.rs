//! Machine-readable artifact emission shared by the bench binaries.
//!
//! Every binary that accepts `--trace-out <path>` / `--metrics-out <path>`
//! parses them through [`ArtifactArgs`] and funnels its output through the
//! helpers here, so all artifacts share one shape:
//!
//! - `--trace-out` writes a Chrome `trace_event` JSON file (load it at
//!   <https://ui.perfetto.dev> or `chrome://tracing`),
//! - `--metrics-out` writes a flat JSON object of labeled [`Metrics`]
//!   dumps (latency stats, per-policy bytes moved, fault counters,
//!   per-worker kernel occupancy).

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

    /// Writes labeled metrics dumps if `--metrics-out` was given. Each
    /// `(label, metrics)` pair becomes one top-level key of the JSON
    /// object.
    pub fn write_metrics(&self, labeled: &[(&str, &Metrics)]) {
        let Some(path) = &self.metrics_out else {
            return;
        };
        let obj = serde_json::Value::Object(
            labeled
                .iter()
                .map(|(label, m)| (label.to_string(), m.to_json_value()))
                .collect(),
        );
        let body = serde_json::to_string_pretty(&obj).expect("render metrics artifact");
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
    fn instrumented_run_collects_spans_and_metrics() {
        use grout::workloads::ConjugateGradient;
        let cfg = SimConfig::paper_grout(2, grout::PolicyKind::RoundRobin);
        let (rt, tracer) = instrumented_run(&ConjugateGradient::default(), cfg, 1 << 28);
        assert!(rt.metrics().total_kernels() > 0);
        assert!(!tracer.lock().is_empty());
    }
}
