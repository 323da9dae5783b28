//! Drives real (short) runs through the library: the tap must not change
//! what the program computes, and a traced run must emit exactly the
//! declared per-layer metrics.

use std::sync::Arc;

use grout_benchmark::catalogue::{END_TO_END, PER_LAYER};
use grout_benchmark::daemons::Env;
use grout_benchmark::harness::RunArgs;
use grout_benchmark::local::{run_rep, Fabric, RepInput};
use grout_benchmark::program;
use grout_benchmark::runtime_workloads::{measure, SPECS};
use grout_benchmark::spans::Trace;
use serde_json::Value;

fn rep_input(env: &Env, layers: bool) -> RepInput {
    let program = program::small_ce(11, 600);
    let kernels = program.compile().unwrap();
    let expected = program.reference(&kernels).unwrap().arrays;
    RepInput {
        name: "test",
        fabric: Fabric::Channel,
        durable: false,
        rtt_ops: 5,
        initial: Arc::new(program.initial()),
        program: Arc::new(program),
        expected: Some(Arc::new(expected)),
        out_dir: env.out.clone(),
        bins: None,
        rep: 0,
        layers,
        keep_ops: true,
        chrome: false,
    }
}

#[test]
fn tapped_run_is_bit_identical_to_untapped_run() {
    let env = Env::locate().unwrap();
    let (_, plain) = run_rep(rep_input(&env, false), Trace::off());
    let (trace, tapped) = run_rep(rep_input(&env, true), Trace::on());
    // Both match the sequential reference bit for bit, hence each other.
    assert_eq!(plain.failures, Vec::<String>::new());
    assert_eq!(tapped.failures, Vec::<String>::new());
    assert_eq!(
        plain.digest, tapped.digest,
        "planner state diverged under the tap"
    );
    let (plain_ops, tapped_ops) = (plain.ops.unwrap().ops, tapped.ops.unwrap().ops);
    assert_eq!(plain_ops.len(), tapped_ops.len());
    let layers = tapped.layers.expect("tapped rep returns layer data");
    assert_eq!(
        layers.tap.exec_to_done_us.len(),
        605,
        "one Exec→Done pair per CE"
    );
    assert!(layers.tap.ctrl_msgs >= 605 && layers.tap.worker_msgs >= 605);
    assert!(plain.layers.is_none());
    assert_eq!(trace.durations_us("launch").len(), 605);
}

#[test]
fn traced_run_emits_exactly_the_declared_per_layer_metrics() {
    let env = Env::locate().unwrap();
    let args = RunArgs {
        seed: 3,
        seconds: 0.2,
        traced: true,
    };
    let spec = SPECS.iter().find(|s| s.name == "small_ce_channel").unwrap();
    // `Report::set` panics on any name the catalogue does not declare, so
    // finishing at all proves emitted ⊆ declared.
    let (report, trace) = measure(spec, &args, &env);
    assert_eq!(report.notes, Vec::<String>::new());
    assert!(report.correct());
    assert!(!trace.spans().is_empty());
    for (declared, must_be_measured) in [
        (&PER_LAYER[..], "planner.apply_us_p50"),
        (&END_TO_END[..], "ce_per_s"),
    ] {
        let json = report.to_json(declared);
        let metrics = json.get("metrics").and_then(Value::as_object).unwrap();
        let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = declared.iter().map(|m| m.name).collect();
        assert_eq!(emitted, names);
        assert!(report.get(must_be_measured).unwrap() > 0.0);
    }
    // Layers on this workload's path must have been measured, not defaulted.
    for name in [
        "kernelc.launch_fixed_us",
        "dag.add_ce_us_p50",
        "policy.assign_ns_p50_mtt64",
        "runtime.launch_call_us_p50",
        "transport.exec_to_done_us_p50",
        "wire.encode_ns_per_msg",
        "oplog.journal_append_us_p50",
        "telemetry.chrome_trace_overhead_ratio",
        "bench.trace_overhead_ratio",
        "budget.rtt_residual_share",
    ] {
        assert!(report.get(name).is_some(), "{name} was not measured");
    }
    assert_eq!(report.get("tcp.resumes"), Some(0.0));
    assert_eq!(report.get("sim.paper_points_changed"), Some(0.0));
}
