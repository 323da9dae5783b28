//! The declared surface of the benchmark: every workload and every metric
//! by name, unit and direction. `/BENCHMARK.json` repeats this table for
//! the driver; `tests/catalogue.rs` fails when the two disagree in either
//! direction, and [`crate::report::Report`] refuses names not listed here.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median; end-to-end
    /// metrics only (per-layer metrics carry 0: they are not gated).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The eight workloads with the one-sentence reason each exists.
pub const WORKLOADS: [(&str, &str); 8] = [
    (
        "small_ce_channel",
        "4096 tiny CEs over in-process channels: fixed per-CE cost of planner, channel hop, worker engine and kernelc launch; no wire, no arithmetic",
    ),
    (
        "small_ce_tcp",
        "the same stream via TcpTransport to two grout-workerd on loopback: the gap to small_ce_channel is the net layer's control-path cost",
    ),
    (
        "bulk_transfer_tcp",
        "4 MiB peer pulls per CE plus host writes and reads over TCP: the net layer used for bulk payload; planner and kernelc idle",
    ),
    (
        "big_kernel_channel",
        "Black-Scholes 2^18 and MV 512x512 on four array sets: the kernelc interpreter does nearly all the work; planner and transport negligible",
    ),
    (
        "durable_small_ce",
        "256-CE sessions with the GRJL journal and log shipping to a standby: net::oplog and Planner::state_digest dominate",
    ),
    (
        "long_session_channel",
        "one 16384-CE session without resets: state that only grows (DAG, op log, replay log) sets throughput and memory",
    ),
    (
        "tenants_ctld",
        "two clients running back-to-back GuestScript sessions on a real grout-ctld over two workerd: the control plane is the work",
    ),
    (
        "sim_scaleout_64",
        "a 15k-CE stream priced by SimRuntime on 64 nodes with min-transfer-time: policy, coherence and the sim substrates; no execution, no wire",
    ),
];

/// Metrics a user of the system sees; reported by every workload in the
/// untraced run.
pub const END_TO_END: [Metric; 6] = [
    e2e("ce_per_s", "CE/s", Higher, 0.15),
    e2e("sync_rtt_p50_us", "us", Lower, 0.25),
    e2e("session_p50_ms", "ms", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("cpu_us_per_ce", "us", Lower, 0.15),
];

/// Metrics of single layers; reported by every workload in the traced
/// run. A layer that is not on a workload's path reports 0 there.
pub const PER_LAYER: [Metric; 63] = [
    // kernelc
    layer("kernelc.compile_us", "us", Lower),
    layer("kernelc.launch_fixed_us", "us", Lower),
    layer("kernelc.ns_per_elem", "ns", Lower),
    layer("kernelc.exec_us_per_ce", "us", Lower),
    // core::dag
    layer("dag.add_ce_us_p50", "us", Lower),
    layer("dag.add_ce_us_p99", "us", Lower),
    layer("dag.growth_ratio", "ratio", Lower),
    layer("dag.edges_per_ce", "count", Lower),
    // core::policy
    layer("policy.assign_ns_p50_rr2", "ns", Lower),
    layer("policy.assign_ns_p50_mtt64", "ns", Lower),
    // core::scheduler
    layer("planner.apply_us_p50", "us", Lower),
    layer("planner.apply_us_p99", "us", Lower),
    layer("planner.growth_ratio", "ratio", Lower),
    layer("planner.ops_per_ce", "count", Lower),
    layer("planner.digest_us", "us", Lower),
    layer("planner.replay_us_per_op", "us", Lower),
    // core::coherence
    layer("coherence.moves_per_ce", "count", Lower),
    layer("coherence.bytes_per_ce", "B", Lower),
    // core::local_runtime
    layer("runtime.launch_call_us_p50", "us", Lower),
    layer("runtime.sync_wait_share", "ratio", Lower),
    layer("runtime.write_mib_per_s", "MiB/s", Higher),
    layer("runtime.read_mib_per_s", "MiB/s", Higher),
    layer("runtime.metrics_plan_us", "us", Lower),
    layer("runtime.metrics_queue_us", "us", Lower),
    layer("runtime.metrics_transfer_us", "us", Lower),
    layer("runtime.metrics_execute_us", "us", Lower),
    layer("runtime.worker_busy_share", "ratio", Higher),
    // core::transport (tap)
    layer("transport.exec_to_done_us_p50", "us", Lower),
    layer("transport.exec_to_done_us_p99", "us", Lower),
    layer("transport.ctrl_msgs_per_ce", "count", Lower),
    layer("transport.worker_msgs_per_ce", "count", Lower),
    layer("transport.sync_rtt_p99_us", "us", Lower),
    // net::wire
    layer("wire.encode_ns_per_msg", "ns", Lower),
    layer("wire.decode_ns_per_msg", "ns", Lower),
    layer("wire.bytes_per_ce", "B", Lower),
    layer("wire.bulk_encode_mib_per_s", "MiB/s", Higher),
    layer("wire.bulk_decode_mib_per_s", "MiB/s", Higher),
    // net::transport
    layer("tcp.frames_per_ce", "count", Lower),
    layer("tcp.bytes_per_ce", "B", Lower),
    layer("tcp.hb_rtt_p50_us", "us", Lower),
    layer("tcp.resumes", "count", Lower),
    layer("tcp.p2p_mib_per_s", "MiB/s", Higher),
    // net::oplog
    layer("oplog.journal_append_us_p50", "us", Lower),
    layer("oplog.journal_bytes_per_ce", "B", Lower),
    layer("oplog.ship_ack_us_p50", "us", Lower),
    layer("oplog.durable_slowdown", "ratio", Lower),
    // core::session / net::ctld
    layer("session.attach_detach_us", "us", Lower),
    layer("session.frames_per_msg", "ratio", Lower),
    layer("ctld.attach_ms_p50", "ms", Lower),
    layer("ctld.overhead_ratio", "ratio", Lower),
    layer("ctld.scrape_ms_p50", "ms", Lower),
    // grout-polyglot
    layer("polyglot.solo_script_ce_per_s", "CE/s", Higher),
    // core::telemetry and the harness itself (guards)
    layer("telemetry.chrome_trace_overhead_ratio", "ratio", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Higher),
    // sim substrates
    layer("sim.host_us_per_ce", "us", Lower),
    layer("sim.makespan_s", "s", Lower),
    layer("sim.network_bytes", "B", Lower),
    layer("sim.sched_overhead_s", "s", Lower),
    layer("sim.uvm_stall_s", "s", Lower),
    layer("sim.storm_kernels", "count", Lower),
    layer("sim.paper_points_changed", "count", Lower),
    // the latency budget
    layer("budget.rtt_residual_us", "us", Lower),
    layer("budget.rtt_residual_share", "ratio", Lower),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|(n, _)| *n == name)
}
