//! The six workloads that run a [`Program`] on a real `LocalRuntime`.

use std::sync::Arc;
use std::time::Instant;

use grout::core::{LinkMatrix, Planner};

use crate::daemons::Env;
use crate::harness::{or_fail, own_peak_rss_mib, traced_rep, RunArgs, Samples, MIN_SETUPS};
use crate::local::{run_rep, Fabric, LayerData, OpLog, RepInput, RepOut};
use crate::probes;
use crate::program::{self, Program, Reference};
use crate::report::Report;
use crate::spans::Trace;
use crate::stats::{median, percentile};

/// Static description of one runtime workload.
pub struct Spec {
    /// Name in the catalogue.
    pub name: &'static str,
    fabric: Fabric,
    durable: bool,
    /// Unpipelined round trips after each rep's stream.
    rtt_ops: usize,
    program: fn(u64) -> Program,
}

impl Spec {
    const fn new(
        name: &'static str,
        fabric: Fabric,
        rtt_ops: usize,
        program: fn(u64) -> Program,
    ) -> Spec {
        Spec {
            name,
            fabric,
            durable: false,
            rtt_ops,
            program,
        }
    }
}

/// Kernel CEs per session of the small-CE stream workloads.
pub const SMALL_SESSION: usize = 4096;
/// Kernel CEs per durable session.
pub const DURABLE_SESSION: usize = 256;
/// Kernel CEs of the one long session. 32768 would show the decay better
/// but costs ~14 s a rep on two cores; 16384 still runs four times past
/// the short sessions and fits three reps into a run.
pub const LONG_SESSION: usize = 16384;

/// The runtime workloads, in catalogue order.
pub const SPECS: [Spec; 6] = [
    Spec::new("small_ce_channel", Fabric::Channel, 200, |seed| {
        program::small_ce(seed, SMALL_SESSION)
    }),
    Spec::new("small_ce_tcp", Fabric::Tcp, 200, |seed| {
        program::small_ce(seed, SMALL_SESSION)
    }),
    Spec::new("bulk_transfer_tcp", Fabric::Tcp, 16, |seed| {
        program::bulk_transfer(seed, 128)
    }),
    Spec::new("big_kernel_channel", Fabric::Channel, 16, |seed| {
        program::big_kernel(seed, 2)
    }),
    Spec {
        durable: true,
        ..Spec::new("durable_small_ce", Fabric::Channel, 20, |seed| {
            program::small_ce(seed, DURABLE_SESSION)
        })
    },
    Spec::new("long_session_channel", Fabric::Channel, 200, |seed| {
        program::small_ce(seed, LONG_SESSION)
    }),
];

/// One run's bookkeeping: the report being filled, the samples, the trace.
struct Run {
    report: Report,
    trace: Trace,
    base: RepInput,
    next_rep: u32,
    /// Set once a rep failed, hung or panicked: no further reps are
    /// attempted, so the daemon logs under `out/` are the failing rep's.
    dead: bool,
}

impl Run {
    /// Runs one rep with `tweak` applied to the base input. Failures land
    /// in the report; a hung rep ends the run.
    fn rep(&mut self, tweak: impl FnOnce(&mut RepInput)) -> Option<RepOut> {
        if self.dead {
            return None;
        }
        let mut input = self.base.clone();
        input.rep = self.next_rep;
        self.next_rep += 1;
        tweak(&mut input);
        match traced_rep(&mut self.trace, move |t| run_rep(input, t)) {
            Ok(out) => {
                self.report.attempted += out.attempted;
                for why in &out.failures {
                    self.report.fail(why.clone());
                }
                self.dead = !out.failures.is_empty();
                (!self.dead).then_some(out)
            }
            Err(why) => {
                self.report.attempted += 1;
                self.report.fail(why);
                self.dead = true;
                None
            }
        }
    }

    /// Timed reps until `budget_s` of measured time (at least `min_reps`).
    fn phase(
        &mut self,
        budget_s: f64,
        min_reps: u64,
        tweak: impl Fn(&mut RepInput),
    ) -> (Samples, Option<RepOut>) {
        let mut samples = Samples::default();
        let mut last = None;
        while samples.reps < min_reps || samples.measured_s() < budget_s {
            let Some(out) = self.rep(&tweak) else { break };
            samples.add_rep(
                out.setup_s,
                out.wall_s,
                out.ces,
                out.cpu_s,
                &out.rtt_us,
                &[out.wall_s * 1e3],
            );
            last = Some(out);
        }
        (samples, last)
    }
}

/// Runs workload `spec` and returns its report plus the harness spans
/// (empty unless traced).
pub fn measure(spec: &Spec, args: &RunArgs, env: &Env) -> (Report, Trace) {
    let program = (spec.program)(args.seed);
    let mut run = Run {
        report: Report::default(),
        trace: if args.traced {
            Trace::on()
        } else {
            Trace::off()
        },
        base: RepInput {
            name: spec.name,
            fabric: spec.fabric,
            durable: spec.durable,
            rtt_ops: spec.rtt_ops,
            initial: Arc::new(program.initial()),
            program: Arc::new(program),
            expected: None,
            out_dir: env.out.clone(),
            bins: None,
            rep: 0,
            layers: false,
            keep_ops: false,
            chrome: false,
        },
        next_rep: 0,
        dead: false,
    };
    let body = measure_into(&mut run, spec, args, env);
    or_fail(&mut run.report, body);
    (run.report, run.trace)
}

fn measure_into(run: &mut Run, spec: &Spec, args: &RunArgs, env: &Env) -> Result<(), String> {
    if spec.fabric == Fabric::Tcp {
        run.base.bins = Some(env.bins.clone().ok_or("the daemons were not built")?);
    }
    let program = Arc::clone(&run.base.program);
    let kernels = program.compile()?;
    let reference = program.reference(&kernels)?;

    // Warm-up: a quarter of the stream, untimed, unverified.
    let warm = Arc::new(program.truncated(program.steps.len() / 4));
    run.rep(|i| {
        i.program = warm;
        i.rtt_ops = i.rtt_ops.min(20);
    });
    run.base.expected = Some(Arc::new(reference.arrays.clone()));
    if spec.name == "small_ce_tcp" {
        channel_tcp_digests_agree(run)?;
    }

    let (plain_share, traced_share) = if args.traced {
        (0.35, 0.35)
    } else {
        (1.0, 0.0)
    };
    let min_reps = if args.traced { 1 } else { 3 };
    let (mut samples, _) = run.phase(args.seconds * plain_share, min_reps, |_| {});

    // Set-up is cheap next to a rep: top the sample count up with
    // set-up-only reps (empty stream, no round trips) so its median rests
    // on enough of them.
    let idle = Arc::new(program.truncated(0));
    let topup = Instant::now();
    while samples.setups.len() < MIN_SETUPS && topup.elapsed().as_secs_f64() < 1.0 {
        let idle = Arc::clone(&idle);
        let Some(out) = run.rep(|i| {
            i.program = idle;
            i.expected = None;
            i.rtt_ops = 0;
        }) else {
            break;
        };
        samples.setups.push(out.setup_s);
    }
    samples.end_to_end(&mut run.report, own_peak_rss_mib());

    if args.traced {
        let (traced, last) = run.phase(args.seconds * traced_share, 1, |i| i.layers = true);
        if let Some(last) = last {
            layer_metrics(
                run, spec, &program, &reference, &samples, &traced, last, env,
            )?;
        }
    }
    Ok(())
}

/// The correctness gate on planner determinism across transports: the TCP
/// run's op log, replayed into a planner built like the channel runtime's
/// (uniform links — the probed TCP matrix is part of the digest), must
/// reach the digest the channel run reached.
fn channel_tcp_digests_agree(run: &mut Run) -> Result<(), String> {
    let channel = run.rep(|i| {
        i.fabric = Fabric::Channel;
        i.rtt_ops = 0;
    });
    let tcp = run.rep(|i| {
        i.keep_ops = true;
        i.rtt_ops = 0;
    });
    let (Some(channel), Some(tcp)) = (channel, tcp) else {
        return Ok(()); // the failed reps are already in the report
    };
    let log = tcp.ops.ok_or("the TCP rep returned no op log")?;
    let mut replica = Planner::new(log.cfg, Some(LinkMatrix::uniform(3, 1e9)));
    for op in &log.ops {
        let _ = replica.apply(op);
    }
    run.report.attempted += 1;
    if replica.state_digest() != channel.digest {
        run.report
            .fail("Planner::state_digest differs between the channel and the TCP run");
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    run: &mut Run,
    spec: &Spec,
    program: &Program,
    reference: &Reference,
    plain: &Samples,
    traced: &Samples,
    last: RepOut,
    env: &Env,
) -> Result<(), String> {
    let report = &mut run.report;
    let LayerData {
        tap,
        metrics,
        moves,
        stats,
        write_bytes,
        read_bytes,
    } = last.layers.ok_or("the tapped rep returned no layer data")?;
    let log: OpLog = last.ops.ok_or("the tapped rep returned no op log")?;
    let stream_ces = program.ces().max(1) as f64;
    let rep_ces = (program.ces() + spec.rtt_ops).max(1) as f64;
    const MIB: f64 = (1 << 20) as f64;

    report.set(
        "bench.trace_overhead_ratio",
        traced.ce_per_s() / plain.ce_per_s(),
    );

    // Harness spans of the last traced rep.
    let trace = &run.trace;
    let rep = run.next_rep - 1;
    let under = |name: &str, parent: &str| -> Vec<f64> {
        trace
            .spans()
            .iter()
            .filter(|s| s.rep == rep && s.name == name)
            .filter(|s| {
                trace
                    .spans()
                    .get(s.parent as usize)
                    .is_some_and(|p| p.name == parent)
            })
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    };
    let timed_s: f64 = last.wall_s;
    let launches: Vec<f64> = under("launch", "timed").iter().map(|s| s * 1e6).collect();
    report.set("runtime.launch_call_us_p50", median(&launches));
    report.set(
        "runtime.sync_wait_share",
        under("synchronize", "timed").iter().sum::<f64>() / timed_s,
    );
    let write_s: f64 = under("write_f32", "setup").iter().sum();
    let read_s: f64 = under("read_f32", "timed").iter().sum();
    report.set(
        "runtime.write_mib_per_s",
        write_bytes as f64 / MIB / write_s,
    );
    report.set("runtime.read_mib_per_s", read_bytes as f64 / MIB / read_s);
    report.set("runtime.metrics_plan_us", metrics.plan.mean_ns() / 1e3);
    report.set("runtime.metrics_queue_us", metrics.queue.mean_ns() / 1e3);
    report.set(
        "runtime.metrics_transfer_us",
        metrics.transfer.mean_ns() / 1e3,
    );
    report.set(
        "runtime.metrics_execute_us",
        metrics.execute.mean_ns() / 1e3,
    );
    let rep_wall_s = timed_s + last.rtt_us.iter().sum::<f64>() / 1e6;
    let busy_s = metrics.busy_ns_by_worker.iter().sum::<u64>() as f64 / 1e9;
    report.set(
        "runtime.worker_busy_share",
        busy_s / (rep_wall_s * metrics.busy_ns_by_worker.len().max(1) as f64),
    );

    report.set("coherence.moves_per_ce", moves as f64 / stream_ces);
    report.set(
        "coherence.bytes_per_ce",
        (stats.send_bytes + stats.p2p_bytes + stats.fetch_bytes) as f64 / stream_ces,
    );

    report.set(
        "transport.exec_to_done_us_p50",
        median(&tap.exec_to_done_us),
    );
    report.set(
        "transport.exec_to_done_us_p99",
        percentile(&tap.exec_to_done_us, 0.99),
    );
    report.set("transport.ctrl_msgs_per_ce", tap.ctrl_msgs as f64 / rep_ces);
    report.set(
        "transport.worker_msgs_per_ce",
        tap.worker_msgs as f64 / rep_ces,
    );
    report.set(
        "transport.sync_rtt_p99_us",
        percentile(&traced.rtts_us, 0.99),
    );

    let frames: u64 = metrics
        .wire
        .iter()
        .map(|p| p.frames_sent + p.frames_recv)
        .sum();
    let bytes: u64 = metrics
        .wire
        .iter()
        .map(|p| p.bytes_sent + p.bytes_recv)
        .sum();
    report.set("tcp.frames_per_ce", frames as f64 / rep_ces);
    report.set("tcp.bytes_per_ce", bytes as f64 / rep_ces);
    let hb: Vec<f64> = metrics
        .wire
        .iter()
        .filter(|p| p.hb_rtt.count > 0)
        .map(|p| p.hb_rtt.percentile_ns(0.5) as f64 / 1e3)
        .collect();
    report.set("tcp.hb_rtt_p50_us", median(&hb));
    report.set(
        "tcp.resumes",
        metrics.wire.iter().map(|p| p.resumes).sum::<u64>() as f64,
    );
    report.set("tcp.p2p_mib_per_s", stats.p2p_bytes as f64 / MIB / timed_s);

    probes::kernelc(report, program, reference);
    probes::wire_codec(report, &tap, rep_ces as u64);
    probes::on_op_log(report, &log, env)?;

    // The latency budget of one unpipelined CE: what the layer probes
    // account for, against what the round trip actually takes.
    let rtt = median(&traced.rtts_us);
    let get = |report: &Report, name: &str| report.get(name).unwrap_or(0.0);
    let accounted = get(report, "planner.apply_us_p50") * get(report, "planner.ops_per_ce")
        + get(report, "kernelc.launch_fixed_us")
        + (get(report, "wire.encode_ns_per_msg") + get(report, "wire.decode_ns_per_msg")) / 1e3
            * (get(report, "transport.ctrl_msgs_per_ce")
                + get(report, "transport.worker_msgs_per_ce"));
    report.set("budget.rtt_residual_us", rtt - accounted);
    report.set("budget.rtt_residual_share", (rtt - accounted) / rtt);

    if spec.name == "small_ce_channel" {
        chrome_tracer_guard(run, plain);
    }
    if spec.durable {
        durable_slowdown(run, traced);
    }
    Ok(())
}

/// `telemetry.chrome_trace_overhead_ratio`: one rep with a `ChromeTracer`
/// recorder attached, against the plain reps.
fn chrome_tracer_guard(run: &mut Run, plain: &Samples) {
    if let Some(out) = run.rep(|i| {
        i.chrome = true;
        i.rtt_ops = 0;
    }) {
        let with = out.ces as f64 / out.wall_s;
        run.report.set(
            "telemetry.chrome_trace_overhead_ratio",
            plain.ce_per_s() / with,
        );
    }
}

/// `oplog.durable_slowdown`: the same 256-CE session without the journal
/// and the standby, against the durable reps.
fn durable_slowdown(run: &mut Run, durable: &Samples) {
    let walls: Vec<f64> = (0..5)
        .filter_map(|_| {
            run.rep(|i| {
                i.durable = false;
                i.rtt_ops = 0;
            })
        })
        .map(|out| out.ces as f64 / out.wall_s)
        .collect();
    if !walls.is_empty() {
        run.report.set(
            "oplog.durable_slowdown",
            median(&walls) / durable.ce_per_s(),
        );
    }
}
