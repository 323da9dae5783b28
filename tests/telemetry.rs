//! Telemetry subsystem integration tests: the Chrome-trace export must be
//! schema-valid and deterministic across same-seed sim runs, the metrics
//! dump must carry the acceptance-relevant counters, and the disabled
//! recorder must be free (no allocations, bit-identical virtual time).

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

#[test]
fn metrics_dump_carries_acceptance_counters() {
    let (rt, _tracer) = traced_run();
    let metrics = Observability::metrics(&rt);
    assert!(metrics.total_kernels() > 0, "no kernels accounted");
    assert!(metrics.payload_bytes() > 0, "no payload bytes accounted");
    assert!(metrics.faults > 0, "injected death not counted");
    assert_eq!(metrics.kernels_by_worker.len(), 2);

    let dump = metrics.to_json_value();
    for key in [
        "plan",
        "queue",
        "transfer",
        "execute",
        "controller_send_bytes",
        "p2p_bytes",
        "staged_bytes",
        "faults",
        "kernels_by_worker",
        "busy_ns_by_worker",
        "bw_source",
        "transport",
        "bw_bps",
    ] {
        assert!(get(&dump, key).is_some(), "metrics dump missing {key}");
    }
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

    let dump = metrics.to_json_value();
    match get(&dump, "bw_bps").expect("bw_bps") {
        Value::Array(rows) => assert_eq!(rows.len(), 3),
        other => panic!("bw_bps must be an array, got {other:?}"),
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
