//! Telemetry subsystem integration tests: the Chrome-trace export must be
//! schema-valid and deterministic across same-seed sim runs, the metrics
//! dump must carry the acceptance-relevant counters, every `Metrics` field
//! must reach both metrics renderings under a family DESIGN §12 lists, and
//! the disabled recorder must be free (no allocations, bit-identical
//! virtual time).

use grout::{
    CeArg, ChromeTracer, FaultPlan, KernelCost, Lane, Observability, PolicyKind, Runtime, Shared,
    SimConfig, SimRuntime, Telemetry,
};
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

// --------------------------------------------------------------------------
// Counting allocator for the zero-allocation fast-path test. Counting is
// gated on a thread-local flag so the other tests in this binary (which
// allocate freely, possibly in parallel) don't perturb the count.
// --------------------------------------------------------------------------

static TRACKED_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.try_with(|t| t.get()).unwrap_or(false) {
            TRACKED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.try_with(|t| t.get()).unwrap_or(false) {
            TRACKED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// --------------------------------------------------------------------------
// A small deterministic workload: a faulted dependency chain plus an
// independent kernel, so the trace covers plans, transfers, executes, and
// the fault/recovery event vocabulary.
// --------------------------------------------------------------------------

const BYTES: u64 = 1 << 20;

fn faulted_config() -> SimConfig {
    let mut cfg = SimConfig::paper_grout(2, PolicyKind::RoundRobin);
    cfg.planner.faults = FaultPlan::kill_at_ce(2);
    cfg
}

fn run_small_workload(rt: &mut SimRuntime) {
    let a = rt.alloc(BYTES);
    let b = rt.alloc(BYTES);
    rt.host_write(a, BYTES);
    rt.host_write(b, BYTES);
    let cost = KernelCost {
        flops: 1e7,
        bytes_read: BYTES,
        bytes_written: BYTES,
    };
    for _ in 0..4 {
        rt.launch("chain", cost, vec![CeArg::read_write(a, BYTES)]);
    }
    rt.launch("side", cost, vec![CeArg::read_write(b, BYTES)]);
    rt.host_read(a, BYTES);
}

fn traced_run() -> (SimRuntime, Shared<ChromeTracer>) {
    let tracer = Shared::new(ChromeTracer::new());
    let mut rt = Runtime::builder()
        .sim_config(faulted_config())
        .telemetry(tracer.telemetry())
        .build_sim()
        .expect("valid config");
    run_small_workload(&mut rt);
    (rt, tracer)
}

// --------------------------------------------------------------------------
// Schema walking helpers over the in-memory JSON value.
// --------------------------------------------------------------------------

fn get<'v>(obj: &'v Value, key: &str) -> Option<&'v Value> {
    match obj {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::F64(f) => *f,
        Value::U64(u) => *u as f64,
        Value::I64(i) => *i as f64,
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn chrome_trace_export_is_schema_valid() {
    let (_rt, tracer) = traced_run();
    let trace = tracer.lock().to_json_value();

    let events = match get(&trace, "traceEvents").expect("traceEvents key") {
        Value::Array(events) => events.clone(),
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert_eq!(
        as_str(get(&trace, "displayTimeUnit").expect("displayTimeUnit")),
        "ms"
    );
    assert!(!events.is_empty(), "instrumented run produced no events");

    let mut phases = std::collections::BTreeSet::new();
    for ev in &events {
        let ph = as_str(get(ev, "ph").expect("every event has ph"));
        phases.insert(ph.to_string());
        assert!(!as_str(get(ev, "name").expect("name")).is_empty());
        assert!(matches!(
            get(ev, "pid").expect("pid"),
            Value::U64(_) | Value::I64(_)
        ));
        assert!(matches!(
            get(ev, "tid").expect("tid"),
            Value::U64(_) | Value::I64(_)
        ));
        match ph {
            "X" => {
                assert!(as_f64(get(ev, "ts").expect("complete spans carry ts")) >= 0.0);
                assert!(as_f64(get(ev, "dur").expect("complete spans carry dur")) >= 0.0);
            }
            "i" => assert_eq!(as_str(get(ev, "s").expect("instants carry scope")), "p"),
            "M" => {
                let args = get(ev, "args").expect("metadata carries args");
                assert!(get(args, "name").is_some());
            }
            "C" => {
                let args = get(ev, "args").expect("counters carry args");
                assert!(get(args, "value").is_some());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for required in ["X", "i", "M"] {
        assert!(
            phases.contains(required),
            "trace is missing {required:?} events (has {phases:?})"
        );
    }
}

#[test]
fn chrome_trace_is_deterministic_across_same_seed_runs() {
    let (_rt1, t1) = traced_run();
    let (_rt2, t2) = traced_run();
    let (a, b) = (t1.lock().to_json_string(), t2.lock().to_json_string());
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed traces diverged");
}

/// `(labels, value)` of every sample of `family` in a
/// `MetricsSnapshot::to_json` dump.
fn samples<'v>(dump: &'v Value, family: &str) -> Vec<(&'v Value, f64)> {
    let fam = get(dump, family).unwrap_or_else(|| panic!("metrics dump lacks {family}"));
    match get(fam, "samples") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|s| {
                (
                    get(s, "labels").expect("labels"),
                    as_f64(get(s, "value").expect("value")),
                )
            })
            .collect(),
        other => panic!("{family}: samples must be an array, got {other:?}"),
    }
}

/// The value of `key` in a sample's label object.
fn label<'v>(labels: &'v Value, key: &str) -> Option<&'v str> {
    get(labels, key).map(as_str)
}

/// Every value of label `key` across `family`'s samples.
fn label_values<'v>(dump: &'v Value, family: &str, key: &str) -> Vec<&'v str> {
    samples(dump, family)
        .into_iter()
        .filter_map(|(l, _)| label(l, key))
        .collect()
}

#[test]
fn metrics_dump_carries_acceptance_counters() {
    let (rt, _tracer) = traced_run();
    let metrics = Observability::metrics(&rt);
    assert!(metrics.total_kernels() > 0, "no kernels accounted");
    assert!(metrics.payload_bytes() > 0, "no payload bytes accounted");
    assert!(
        metrics.event_count("fault") > 0,
        "injected death not counted"
    );
    assert_eq!(metrics.kernels_by_worker.len(), 2);

    let dump = metrics.snapshot(&[]).to_json();
    for family in ["grout_ce_phase_count", "grout_ce_phase_sum_ns"] {
        assert_eq!(
            label_values(&dump, family, "phase"),
            ["plan", "queue", "transfer", "execute"]
        );
    }
    assert_eq!(
        label_values(&dump, "grout_moved_bytes_total", "policy"),
        ["controller_send", "p2p", "staged"]
    );
    let faults = samples(&dump, "grout_sched_events_total")
        .into_iter()
        .find(|(l, _)| label(l, "kind") == Some("fault"))
        .expect("fault sample");
    assert_eq!(faults.1, metrics.event_count("fault") as f64);
    for family in ["grout_worker_kernels_total", "grout_worker_busy_ns_total"] {
        assert_eq!(label_values(&dump, family, "worker"), ["0", "1"]);
    }
    let info = samples(&dump, "grout_run_info");
    assert_eq!(info.len(), 1);
    assert_eq!(
        label(info[0].0, "bw_source"),
        Some(metrics.bw_source.as_str())
    );
    assert_eq!(
        label(info[0].0, "transport"),
        Some(metrics.transport.as_str())
    );
    let n = metrics.bw_bps.len();
    let links = get(&dump, "grout_link_bandwidth_bps")
        .map_or(0, |_| samples(&dump, "grout_link_bandwidth_bps").len());
    assert_eq!(links, n * n, "one sample per link-matrix entry");
}

#[test]
fn metrics_record_the_bandwidth_matrix_and_its_provenance() {
    // A net-sim run under min-transfer-time prices transfers with the
    // probed (modeled) matrix; the metrics dump must say so and carry the
    // full controller+workers square so it can be compared, in one
    // artifact, against a real TCP run's *measured* matrix.
    let mut rt = Runtime::builder()
        .workers(2)
        .policy(PolicyKind::MinTransferTime(grout::ExplorationLevel::Low))
        .build_sim()
        .expect("valid config");
    run_small_workload(&mut rt);
    let metrics = Observability::metrics(&rt);
    assert_eq!(metrics.bw_source, "modeled");
    assert_eq!(metrics.transport, "sim");
    assert_eq!(metrics.bw_bps.len(), 3, "controller + 2 workers");
    assert!(metrics.bw_bps.iter().all(|row| row.len() == 3));
    assert!(metrics.bw_bps[0][1] > 0, "probed link has no bandwidth");

    let dump = metrics.snapshot(&[]).to_json();
    let links = samples(&dump, "grout_link_bandwidth_bps");
    assert_eq!(links.len(), 9, "one sample per (src, dst) of a 3x3 matrix");
    let c0_w0 = links
        .iter()
        .find(|(l, _)| label(l, "src") == Some("0") && label(l, "dst") == Some("1"))
        .expect("controller -> worker 0 link");
    assert_eq!(c0_w0.1, metrics.bw_bps[0][1] as f64);
    let info = samples(&dump, "grout_run_info");
    assert_eq!(label(info[0].0, "bw_source"), Some("modeled"));
    assert_eq!(label(info[0].0, "transport"), Some("sim"));
}

/// The catalogue table in DESIGN §12: `(family, kind, labels, scopes)` of
/// every row.
fn catalogue() -> Vec<(String, String, Vec<String>, String)> {
    let ticked = |cell: &str| -> Vec<String> {
        cell.split('`')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect()
    };
    include_str!("../DESIGN.md")
        .lines()
        .filter(|l| l.starts_with("| `grout_"))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 6, "catalogue row needs 4 cells: {row}");
            let name = ticked(cells[1]).remove(0);
            (
                name,
                cells[2].to_string(),
                ticked(cells[3]),
                cells[4].to_string(),
            )
        })
        .collect()
}

#[test]
fn metric_catalogue_matches_the_snapshot() {
    use grout::core::{LatencyStat, Metrics, PeerWireStats};
    let stat = |samples: &[u64]| {
        let mut s = LatencyStat::default();
        samples.iter().for_each(|&ns| s.record(ns));
        s
    };
    let peer = |i: u64| PeerWireStats {
        frames_sent: 5_001 + i * 100,
        bytes_sent: 5_002 + i * 100,
        frames_recv: 5_003 + i * 100,
        bytes_recv: 5_004 + i * 100,
        hb_rtt: stat(
            &(0..5 + 2 * i)
                .map(|k| 60_011 + i * 1_000 + k * 2)
                .collect::<Vec<_>>(),
        ),
        clock_offset_ns: -5_005 - i as i64 * 100,
        telemetry_batches: 5_006 + i * 100,
        telemetry_spans: 5_007 + i * 100,
        telemetry_backlog: 5_008 + i * 100,
        resumes: 5_009 + i * 100,
    };
    // Every field set, no `..Default::default()`: a new field fails to
    // compile here until it is given a value (and a family).
    let m = Metrics {
        plan: stat(&[10_007, 10_009, 10_013]),
        queue: stat(&[20_011, 20_021, 20_023, 20_029]),
        transfer: stat(&[30_011, 30_013, 30_017, 30_019, 30_023, 30_031]),
        execute: stat(&[
            40_009, 40_013, 40_031, 40_037, 40_039, 40_063, 40_087, 40_093,
        ]),
        controller_send_bytes: 401,
        p2p_bytes: 402,
        staged_bytes: 403,
        events: std::array::from_fn(|i| 101 + i as u64),
        kernels_by_worker: vec![201, 202],
        busy_ns_by_worker: vec![301, 302],
        bw_source: "measured".to_string(),
        transport: "tcp".to_string(),
        bw_bps: (0..3)
            .map(|s| (0..3).map(|d| 1_000_001 + s * 3 + d).collect())
            .collect(),
        wire: vec![peer(0), peer(1)],
        session: Some(9),
    };
    // The raw value of every field; each must reach both renderings.
    let mut values: Vec<f64> = vec![];
    for s in [&m.plan, &m.queue, &m.transfer, &m.execute]
        .into_iter()
        .chain(m.wire.iter().map(|p| &p.hb_rtt))
    {
        values.extend([s.count, s.sum_ns, s.min_ns, s.max_ns].map(|v| v as f64));
    }
    values.extend([m.controller_send_bytes, m.p2p_bytes, m.staged_bytes].map(|v| v as f64));
    values.extend(m.events.iter().map(|&v| v as f64));
    values.extend(
        m.kernels_by_worker
            .iter()
            .chain(&m.busy_ns_by_worker)
            .map(|&v| v as f64),
    );
    values.extend(m.bw_bps.iter().flatten().map(|&v| v as f64));
    for p in &m.wire {
        values.extend(
            [
                p.frames_sent,
                p.bytes_sent,
                p.frames_recv,
                p.bytes_recv,
                p.telemetry_batches,
                p.telemetry_spans,
                p.telemetry_backlog,
                p.resumes,
            ]
            .map(|v| v as f64),
        );
        values.push(p.clock_offset_ns as f64);
    }
    let mut sorted = values.clone();
    sorted.sort_by(f64::total_cmp);
    sorted.dedup();
    assert_eq!(sorted.len(), values.len(), "field values must be distinct");

    let snap = m.snapshot(&[]);
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    let mut json_values = vec![];
    for fam in snap.families() {
        json_values.extend(samples(&json, &fam.name).into_iter().map(|(_, v)| v));
    }
    let prom_values: Vec<f64> = prom
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.rsplit(' ').next().unwrap().parse().expect("sample value"))
        .collect();
    for v in &values {
        assert!(json_values.contains(v), "value {v} missing from to_json()");
        assert!(
            prom_values.contains(v),
            "value {v} missing from to_prometheus()"
        );
    }
    // The string-valued fields ride as labels.
    for needle in [
        "session=\"9\"",
        "transport=\"tcp\"",
        "bw_source=\"measured\"",
    ] {
        assert!(
            prom.contains(needle),
            "{needle} missing from the exposition"
        );
    }

    // DESIGN §12's `run` rows and the snapshot's families agree, in both
    // directions, on name, kind and labels (beyond the `session` tag).
    let table: Vec<_> = catalogue()
        .into_iter()
        .filter(|(_, _, _, scope)| scope.contains("run"))
        .collect();
    for fam in snap.families() {
        let row = table
            .iter()
            .find(|(name, ..)| *name == fam.name)
            .unwrap_or_else(|| panic!("{} has no `run` row in DESIGN §12", fam.name));
        let kind = match fam.kind {
            grout::core::MetricKind::Counter => "counter",
            grout::core::MetricKind::Gauge => "gauge",
        };
        assert_eq!(row.1, kind, "{}: kind", fam.name);
        for (labels, _) in &fam.samples {
            let keys: Vec<&str> = labels
                .iter()
                .map(|(k, _)| k.as_str())
                .filter(|k| *k != "session")
                .collect();
            assert_eq!(keys, row.2, "{}: labels", fam.name);
        }
    }
    for (name, ..) in &table {
        assert!(
            snap.families().iter().any(|f| f.name == *name),
            "DESIGN §12 lists {name} as a `run` family but the snapshot has none"
        );
    }
}

#[test]
fn disabled_recorder_changes_nothing_and_allocates_nothing() {
    // Differential run: the no-op recorder must leave the virtual-time
    // results bit-for-bit identical to a traced run of the same config.
    let mut plain = Runtime::builder()
        .sim_config(faulted_config())
        .build_sim()
        .expect("valid config");
    run_small_workload(&mut plain);
    let (traced, _tracer) = traced_run();
    assert_eq!(plain.elapsed(), traced.elapsed());
    let (p, t) = (plain.stats(), traced.stats());
    assert_eq!(p.ces, t.ces);
    assert_eq!(p.network_bytes, t.network_bytes);
    assert_eq!(p.storm_kernels, t.storm_kernels);
    assert_eq!(p.sched_overhead, t.sched_overhead);
    assert_eq!(plain.metrics(), traced.metrics());

    // Fast path: every primitive on a disabled handle must complete
    // without touching the allocator.
    let off = Telemetry::off();
    assert!(!off.enabled());
    let lane = Lane::stream(1, 0, 0);
    TRACKED_ALLOCS.store(0, Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    for i in 0..1000u64 {
        off.instant("noop", lane, i, &[]);
        off.counter("noop", lane, i, i as f64);
        off.gauge("noop", lane, i, i as f64);
        off.mark("noop", &[]);
    }
    TRACKING.with(|t| t.set(false));
    assert_eq!(
        TRACKED_ALLOCS.load(Ordering::Relaxed),
        0,
        "disabled telemetry allocated on the fast path"
    );
}

#[test]
fn builder_and_observability_work_through_the_facade() {
    let mut rt = Runtime::builder()
        .workers(2)
        .policy(PolicyKind::RoundRobin)
        .build_sim()
        .expect("valid config");
    run_small_workload(&mut rt);
    let trace = Observability::sched_trace(&rt);
    assert!(trace.plans().count() > 0);
    let stats = Observability::stats(&rt);
    assert!(stats.ces > 0);
    assert!(Observability::metrics(&rt).total_kernels() > 0);
}
