//! `sim_scaleout_64`: a seeded CE stream priced in virtual time by
//! `SimRuntime` on 64 paper nodes under min-transfer-time. No execution,
//! no wire: the planner, the policy and the simulation substrates at a
//! node count no real transport reaches on two cores.

use std::path::{Path, PathBuf};
use std::time::Instant;

use grout::core::{ExplorationLevel, PolicyKind};
use grout::{CeArg, KernelCost, SimConfig, SimRuntime};
use serde_json::Value;

use crate::daemons::{cpu_seconds, Env};
use crate::harness::{or_fail, own_peak_rss_mib, traced_rep, RunArgs, Samples, MIN_SETUPS};
use crate::local::OpLog;
use crate::probes;
use crate::program::Rng;
use crate::report::Report;
use crate::spans::{Trace, NONE};
use crate::stats::median;

/// Name in the catalogue.
pub const NAME: &str = "sim_scaleout_64";
/// Simulated worker nodes.
pub const NODES: usize = 64;
const ARRAYS: usize = 256;
const ARRAY_BYTES: u64 = 64 << 20;
/// CEs per rep.
pub const STREAM: usize = 15_000;
/// Unpipelined launches after the stream.
const RTT_OPS: usize = 1000;

/// One simulated kernel CE: read-modify-write one array, optionally read
/// a second.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCe {
    rw: usize,
    read: Option<usize>,
    flops: f64,
}

/// The seeded stream.
pub fn stream(seed: u64, ces: usize) -> Vec<SimCe> {
    let mut rng = Rng::new(seed, 4);
    (0..ces)
        .map(|_| {
            let rw = rng.below(ARRAYS);
            let read = (rng.below(2) == 0).then(|| (rw + 1 + rng.below(ARRAYS - 1)) % ARRAYS);
            SimCe {
                rw,
                read,
                flops: 1e6 * (1 + rng.below(64)) as f64,
            }
        })
        .collect()
}

/// The exact simulated outputs of one rep; must repeat bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutputs {
    makespan_ns: u64,
    network_bytes: u64,
    sched_overhead_ns: u64,
    uvm_stall_ns: u64,
    storm_kernels: u64,
    ces: u64,
}

impl SimOutputs {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("makespan_ns".into(), Value::U64(self.makespan_ns)),
            ("network_bytes".into(), Value::U64(self.network_bytes)),
            (
                "sched_overhead_ns".into(),
                Value::U64(self.sched_overhead_ns),
            ),
            ("uvm_stall_ns".into(), Value::U64(self.uvm_stall_ns)),
            ("storm_kernels".into(), Value::U64(self.storm_kernels)),
            ("ces".into(), Value::U64(self.ces)),
        ])
    }

    fn from_json(v: &Value) -> Option<SimOutputs> {
        let field = |k: &str| v.get(k).and_then(Value::as_u64);
        Some(SimOutputs {
            makespan_ns: field("makespan_ns")?,
            network_bytes: field("network_bytes")?,
            sched_overhead_ns: field("sched_overhead_ns")?,
            uvm_stall_ns: field("uvm_stall_ns")?,
            storm_kernels: field("storm_kernels")?,
            ces: field("ces")?,
        })
    }
}

struct SimRep {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    rtt_us: Vec<f64>,
    outputs: SimOutputs,
    ops: Option<OpLog>,
    /// `rt.metrics()` means (virtual time), µs: plan, queue, transfer,
    /// execute.
    metrics_us: [f64; 4],
}

fn kernel_args(arrays: &[grout::ArrayId], ce: &SimCe) -> (KernelCost, Vec<CeArg>) {
    let mut args = vec![CeArg::read_write(arrays[ce.rw], ARRAY_BYTES)];
    let mut bytes_read = ARRAY_BYTES;
    if let Some(r) = ce.read {
        args.push(CeArg::read(arrays[r], ARRAY_BYTES));
        bytes_read += ARRAY_BYTES;
    }
    let cost = KernelCost {
        flops: ce.flops,
        bytes_read,
        bytes_written: ARRAY_BYTES,
    };
    (cost, args)
}

fn run_rep(
    ces: &[SimCe],
    rtt_ops: usize,
    keep_ops: bool,
    mut trace: Trace,
    rep: u32,
) -> (Trace, Result<SimRep, String>) {
    trace.set_rep(rep);
    let rep_span = trace.begin("rep", NONE);
    let start = Instant::now();
    let setup = trace.begin("setup", rep_span);
    let cfg = SimConfig::paper_grout(NODES, PolicyKind::MinTransferTime(ExplorationLevel::Medium));
    let build = trace.begin("build", setup);
    let rt = SimRuntime::try_new(cfg);
    trace.end(build);
    let mut rt = match rt {
        Ok(rt) => rt,
        Err(e) => return (trace, Err(format!("SimRuntime::try_new: {e}"))),
    };
    let arrays: Vec<grout::ArrayId> = (0..ARRAYS)
        .map(|_| {
            let a = rt.alloc(ARRAY_BYTES);
            rt.host_write(a, ARRAY_BYTES);
            a
        })
        .collect();
    trace.end(setup);
    let setup_s = start.elapsed().as_secs_f64();

    let me = std::process::id();
    let cpu0 = cpu_seconds(me);
    let t0 = Instant::now();
    let timed = trace.begin("timed", rep_span);
    for ce in ces {
        let (cost, args) = kernel_args(&arrays, ce);
        let span = trace.begin("launch", timed);
        rt.launch("k", cost, args);
        trace.end(span);
    }
    trace.end(timed);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds(me) - cpu0;
    let stats = rt.stats();
    let outputs = SimOutputs {
        makespan_ns: rt.elapsed().as_nanos(),
        network_bytes: stats.network_bytes,
        sched_overhead_ns: stats.sched_overhead.as_nanos(),
        uvm_stall_ns: stats.uvm_stall.as_nanos(),
        storm_kernels: stats.storm_kernels,
        ces: stats.ces,
    };
    let m = rt.metrics();
    let metrics_us = [&m.plan, &m.queue, &m.transfer, &m.execute].map(|s| s.mean_ns() / 1e3);
    let ops = keep_ops.then(|| OpLog::capture(rt.op_log(), rt.planner()));

    let probe = SimCe {
        rw: 0,
        read: None,
        flops: 1e6,
    };
    let rtt_us = (0..rtt_ops)
        .map(|_| {
            let (cost, args) = kernel_args(&arrays, &probe);
            let t = Instant::now();
            rt.launch("k", cost, args);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    trace.end(rep_span);
    (
        trace,
        Ok(SimRep {
            setup_s,
            wall_s,
            cpu_s,
            rtt_us,
            outputs,
            ops,
            metrics_us,
        }),
    )
}

/// Where the committed outputs per seed live.
pub fn reference_path(root: &Path) -> PathBuf {
    root.join("benchmark/reference/sim_scaleout_64.json")
}

/// The committed outputs for `seed`, if that seed has a reference.
fn committed(root: &Path, seed: u64) -> Result<Option<SimOutputs>, String> {
    let path = reference_path(root);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get(&format!("seed{seed}")) {
        None => Ok(None),
        Some(v) => SimOutputs::from_json(v)
            .map(Some)
            .ok_or_else(|| format!("{}: malformed entry for seed {seed}", path.display())),
    }
}

/// The reference file's JSON for `seeds`.
pub fn reference_json(seeds: std::ops::RangeInclusive<u64>) -> Result<Value, String> {
    let mut entries = Vec::new();
    for seed in seeds {
        let (_, rep) = run_rep(&stream(seed, STREAM), 0, false, Trace::off(), 0);
        entries.push((format!("seed{seed}"), rep?.outputs.to_json()));
    }
    Ok(Value::Object(entries))
}

/// Runs the workload.
pub fn measure(args: &RunArgs, env: &Env) -> (Report, Trace) {
    let mut report = Report::default();
    let mut trace = if args.traced {
        Trace::on()
    } else {
        Trace::off()
    };
    let body = measure_into(&mut report, &mut trace, args, env);
    or_fail(&mut report, body);
    (report, trace)
}

fn measure_into(
    report: &mut Report,
    trace: &mut Trace,
    args: &RunArgs,
    env: &Env,
) -> Result<(), String> {
    let ces = std::sync::Arc::new(stream(args.seed, STREAM));
    let expected = committed(&env.root, args.seed)?;
    let mut next_rep = 0u32;
    let mut rep = |ces_n: usize,
                   rtt_ops: usize,
                   keep_ops: bool,
                   trace: &mut Trace|
     -> Result<SimRep, String> {
        let ces = std::sync::Arc::clone(&ces);
        let n = next_rep;
        next_rep += 1;
        traced_rep(trace, move |t| {
            run_rep(&ces[..ces_n], rtt_ops, keep_ops, t, n)
        })?
    };

    // Warm-up on a quarter of the stream.
    rep(STREAM / 4, 0, false, &mut Trace::off())?;

    let mut samples = Samples::default();
    let mut first: Option<SimOutputs> = None;
    let mut last = None;
    let budget = if args.traced {
        args.seconds * 0.5
    } else {
        args.seconds
    };
    let min_reps = if args.traced { 1 } else { 3 };
    while samples.reps < min_reps || samples.measured_s() < budget {
        let out = rep(STREAM, RTT_OPS, args.traced, trace)?;
        report.attempted += STREAM as u64 + RTT_OPS as u64 + 1;
        // Simulated outputs must repeat exactly: against the committed
        // reference when this seed has one, and from rep to rep always.
        let want = expected.as_ref().or(first.as_ref());
        if want.is_some_and(|w| *w != out.outputs) {
            report.fail(format!(
                "simulated outputs changed: {:?}, expected {:?}",
                out.outputs, want
            ));
        }
        first.get_or_insert_with(|| out.outputs.clone());
        samples.add_rep(
            out.setup_s,
            out.wall_s,
            STREAM as u64,
            out.cpu_s,
            &out.rtt_us,
            &[out.wall_s * 1e3],
        );
        last = Some(out);
    }
    while samples.setups.len() < MIN_SETUPS {
        samples
            .setups
            .push(rep(0, 0, false, &mut Trace::off())?.setup_s);
    }
    samples.end_to_end(report, own_peak_rss_mib());

    let (true, Some(last)) = (args.traced, last) else {
        return Ok(());
    };
    let o = &last.outputs;
    report.set("sim.host_us_per_ce", last.wall_s * 1e6 / STREAM as f64);
    report.set("sim.makespan_s", o.makespan_ns as f64 / 1e9);
    report.set("sim.network_bytes", o.network_bytes as f64);
    report.set("sim.sched_overhead_s", o.sched_overhead_ns as f64 / 1e9);
    report.set("sim.uvm_stall_s", o.uvm_stall_ns as f64 / 1e9);
    report.set("sim.storm_kernels", o.storm_kernels as f64);
    report.set(
        "runtime.launch_call_us_p50",
        median(&trace.durations_us("launch")),
    );
    let [plan, queue, transfer, execute] = last.metrics_us;
    report.set("runtime.metrics_plan_us", plan);
    report.set("runtime.metrics_queue_us", queue);
    report.set("runtime.metrics_transfer_us", transfer);
    report.set("runtime.metrics_execute_us", execute);
    // Spans on every launch are the only tracing here; their cost shows
    // as host time per CE against an untraced rep.
    let plain = rep(STREAM, 0, false, &mut Trace::off())?;
    report.set("bench.trace_overhead_ratio", plain.wall_s / last.wall_s);

    let log = last.ops.ok_or("the traced rep kept no op log")?;
    probes::on_op_log(report, &log, env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        assert_eq!(stream(1, 500), stream(1, 500));
        assert_ne!(stream(1, 500), stream(2, 500));
        assert!(stream(9, 2000)
            .iter()
            .all(|ce| ce.rw < ARRAYS && ce.read.is_none_or(|r| r < ARRAYS && r != ce.rw)));
    }

    #[test]
    fn simulated_outputs_repeat_exactly_and_round_trip_through_json() {
        let ces = stream(5, 300);
        let (_, a) = run_rep(&ces, 3, false, Trace::off(), 0);
        let (_, b) = run_rep(&ces, 0, false, Trace::off(), 1);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(
            a.outputs.ces,
            300 + ARRAYS as u64,
            "kernels plus the initial host writes"
        );
        assert_eq!(SimOutputs::from_json(&a.outputs.to_json()), Some(a.outputs));
        assert_eq!(a.rtt_us.len(), 3);
    }
}
