//! Per-CE execution trace of a workload on a chosen deployment.
//!
//! Usage: `trace <bs|mle|cg|mv|mv-mono> <size_gb> <single|grout[:policy]> [--plans]`
//!        `      [--trace-out <path>] [--metrics-out <path>]`
//!   policy: rr | vs | mts-low|mts-med|mts-high | mtt-low|mtt-med|mtt-high
//!   --plans: also dump the scheduler's decision record per CE as JSON
//!            lines (from the `SchedTrace` both runtimes feed)
//!   --trace-out: write a Chrome trace_event JSON of the run (Perfetto)
//!   --metrics-out: write the metrics registry as JSON

use grout_bench::ArtifactArgs;

use grout::core::*;
use grout::workloads::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let wl = args.get(1).map(String::as_str).unwrap_or("cg");
    let size: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);
    let deploy = args.get(3).map(String::as_str).unwrap_or("single");

    let workload: Box<dyn SimWorkload> = match wl {
        "bs" => Box::new(BlackScholes::default()),
        "mle" => Box::new(MlEnsemble::default()),
        "cg" => Box::new(ConjugateGradient::default()),
        "mv" => Box::new(MatVec::default()),
        "mv-mono" => Box::new(MatVec::monolithic()),
        other => panic!("unknown workload {other}"),
    };

    let cfg = if deploy == "single" {
        SimConfig::grcuda_baseline()
    } else {
        let policy = match deploy.split(':').nth(1).unwrap_or("vs") {
            "rr" => PolicyKind::RoundRobin,
            "vs" => PolicyKind::VectorStep(workload.tuned_vector()),
            "mts-low" => PolicyKind::MinTransferSize(ExplorationLevel::Low),
            "mts-med" => PolicyKind::MinTransferSize(ExplorationLevel::Medium),
            "mts-high" => PolicyKind::MinTransferSize(ExplorationLevel::High),
            "mtt-low" => PolicyKind::MinTransferTime(ExplorationLevel::Low),
            "mtt-med" => PolicyKind::MinTransferTime(ExplorationLevel::Medium),
            "mtt-high" => PolicyKind::MinTransferTime(ExplorationLevel::High),
            other => panic!("unknown policy {other}"),
        };
        SimConfig::paper_grout(2, policy)
    };

    let workers = cfg.planner.workers;
    let gpus = cfg.node.gpu_count;
    let art = ArtifactArgs::parse(&args);
    let tracer = Shared::new(ChromeTracer::new());
    let mut builder = Runtime::builder().sim_config(cfg);
    if art.trace_out.is_some() {
        builder = builder.telemetry(tracer.telemetry());
    }
    let mut rt = builder.build_sim().expect("valid config");
    workload.submit(&mut rt, gb(size));
    art.write_trace(&tracer.lock());
    art.write_metrics(&[(&format!("{wl}-{size}gb-{deploy}"), rt.metrics())]);
    println!(
        "{wl} {size}GB on {deploy}: total {:.1}s, net {:.2} GB, storms {}",
        rt.elapsed().as_secs_f64(),
        rt.stats().network_bytes as f64 / (1u64 << 30) as f64,
        rt.stats().storm_kernels
    );
    let report = validate_timeline(rt.records());
    assert!(
        report.is_valid(),
        "timeline violations: {:?}",
        report.violations
    );
    print!("device utilization:");
    for w in 0..workers {
        for d in 0..gpus {
            print!(" w{w}g{d}={:.0}%", 100.0 * report.utilization(w + 1, d));
        }
    }
    println!(" (independently replay-validated)");
    println!(
        "{:<20} {:>4} {:>4} {:>9} {:>9} {:>9} {:>8} {:>10}",
        "ce", "node", "gpu", "start", "finish", "stall", "net[GB]", "regime"
    );
    for r in rt.records() {
        println!(
            "{:<20} {:>4} {:>4} {:>9.1} {:>9.1} {:>9.1} {:>8.2} {:>10}",
            r.ce.label(),
            r.location.0,
            r.device.map(|d| d.0 as i64).unwrap_or(-1),
            r.start.as_secs_f64(),
            r.finish.as_secs_f64(),
            r.uvm_stall.as_secs_f64(),
            r.network_bytes as f64 / (1u64 << 30) as f64,
            r.regime.map(|g| format!("{g:?}")).unwrap_or_default()
        );
    }

    if args.iter().any(|a| a == "--plans") {
        println!("scheduler decisions (one JSON object per CE):");
        for plan in rt.sched_trace().plans() {
            println!("{}", serde_json::to_string(&plan.to_json_value()).unwrap());
        }
    }
}
