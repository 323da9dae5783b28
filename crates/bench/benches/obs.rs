//! Introspection-plane benchmarks: what the always-on observability
//! layer costs on the serving path.
//!
//! - `metrics_snapshot`: freezing a populated [`Metrics`] registry into
//!   a labeled [`MetricsSnapshot`] — the per-scrape aggregation cost;
//! - `history_push`: appending one [`HistorySample`] (4 workers, 4 wire
//!   peers, 8 sessions) to the fixed-capacity ring — paid on every
//!   fleet placement-refresh tick;
//! - `metrics_render`: rendering a fleet-sized snapshot to the
//!   Prometheus text exposition — the `/metrics` response body cost;
//! - `eventlog_line`: emitting one structured JSONL event into a void
//!   sink — the per-log-line serialization cost.
//!
//! Rows land in `target/bench/BENCH_obs.json` (see `grout_bench::micro`).

use std::time::Duration;

use grout::core::eventlog::{EventLog, Value as JsonValue};
use grout::core::{HistorySample, Metrics, MetricsHistory, PeerSample, PeerWireStats};
use grout_bench::micro::{time, Bench};

/// A registry shaped like a busy 4-worker fleet mid-run.
fn populated_metrics() -> Metrics {
    let mut m = Metrics::default();
    for i in 0..512u64 {
        m.plan.record(1_000 + i * 13);
        m.queue.record(5_000 + i * 7);
        m.transfer.record(20_000 + i * 101);
        m.execute.record(50_000 + i * 211);
    }
    m.controller_send_bytes = 48 << 20;
    m.p2p_bytes = 16 << 20;
    m.staged_bytes = 4 << 20;
    m.faults = 12;
    m.retries = 3;
    m.kernels_by_worker = vec![400, 380, 410, 395];
    m.busy_ns_by_worker = vec![9e8 as u64, 8e8 as u64, 95e7 as u64, 91e7 as u64];
    m.wire = (0..4)
        .map(|i| {
            let mut w = PeerWireStats {
                frames_sent: 10_000 + i,
                bytes_sent: (12 << 20) + i,
                frames_recv: 9_000 + i,
                bytes_recv: (10 << 20) + i,
                ..PeerWireStats::default()
            };
            for r in 0..64u64 {
                w.hb_rtt.record(200_000 + r * 1_000);
            }
            w
        })
        .collect();
    m.session = Some(1);
    m
}

fn sample() -> HistorySample {
    HistorySample {
        at_ns: 1,
        queue_depth: 37,
        resident_bytes: 3 << 30,
        faults: 2,
        sessions_active: 8,
        workers_alive: 4,
        occupancy: vec![9, 11, 8, 10],
        peers: (0..4)
            .map(|_| PeerSample::from_wire(&PeerWireStats::default()))
            .collect(),
        ces_done: (1..=8).map(|s| (s, s * 100)).collect(),
    }
}

fn main() {
    let budget = Duration::from_millis(200);
    let mut bench = Bench::new("obs", &[]);

    let metrics = populated_metrics();
    let ns = time(budget, || {
        let snap = metrics.snapshot(&[("role", "session")]);
        assert!(!snap.is_empty());
    });
    bench.row("metrics_snapshot", ns, "ns_per_iter");

    let mut history = MetricsHistory::new();
    let ns = time(budget, || history.push(sample()));
    bench.row("history_push", ns, "ns_per_iter");

    let snap = metrics.snapshot(&[("role", "session")]);
    let body = snap.to_prometheus();
    println!(
        "bench obs/metrics_render: body is {} bytes over {} families",
        body.len(),
        snap.families().len()
    );
    let ns = time(budget, || {
        let body = snap.to_prometheus();
        assert!(!body.is_empty());
    });
    bench.row("metrics_render", ns, "ns_per_iter");
    bench.row("metrics_render_bytes", body.len() as f64, "bytes");

    // A sink that only counts: measures serialization, not I/O.
    struct Void;
    impl std::io::Write for Void {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let log = EventLog::to_writer("bench", Box::new(Void)).with_rate_cap(u32::MAX);
    let ns = time(budget, || {
        log.info(
            "bench_event",
            Some(7),
            "one structured line with a couple of fields",
            &[
                ("kernels", JsonValue::U64(42)),
                ("bytes", JsonValue::U64(1 << 20)),
            ],
        );
    });
    bench.row("eventlog_line", ns, "ns_per_iter");

    bench.finish();
}
