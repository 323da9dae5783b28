//! Op-log overhead benchmarks: the costs the state-machine refactor
//! added to the planner's hot path, measured head-to-head.
//!
//! - `plan_bare` vs `plan_logged`: one `PlanCe` through a bare
//!   `Planner::apply` vs through `LoggedPlanner` (the clone-into-log tax
//!   every runtime mutation now pays);
//! - `plan_bare_at_64k`: the `plan_bare` step on a planner that already
//!   holds 64k CEs (a planning step must not cost more late in a run);
//! - `plan_journalled`: the same op with a flush-per-op `JournalSink`
//!   attached (the crash-recovery write amplification: one frame encoded
//!   and one `write(2)` into the page cache per op, no fsync);
//! - `digest`: one structural `state_digest()` over a planner carrying a
//!   large DAG. It runs once per closed log (the journal footer) and in
//!   tests and tools; per-op acks use the O(1) `op_digest()` instead;
//! - `encode_op`/`decode_op`: the wire codec round-trip for the common
//!   op shapes;
//! - `replay`: throughput of `replay_ops` over a long captured log (the
//!   recovery-time metric: ops re-applied per second).
//!
//! Rows land in `target/bench/BENCH_oplog.json` (see `grout_bench::micro`),
//! all in ns per iteration. Rows measured before the DAG's insert stopped
//! depending on history are paired with a `*_before` row (the file as
//! committed at aa00e7a, same 2-vCPU box).

use std::time::Duration;

use grout::core::{
    replay_ops, Ce, CeArg, CeId, CeKind, KernelCost, LinkMatrix, LoggedPlanner, Planner,
    PlannerConfig, PlannerOp, PolicyKind,
};
use grout::net::oplog::JournalSink;
use grout::net::wire;
use grout_bench::micro::{time, Bench};

const MIB: u64 = 1 << 20;

fn cfg(workers: usize) -> PlannerConfig {
    PlannerConfig::new(workers, PolicyKind::RoundRobin)
}

fn kernel_ce(id: u64, a: grout::ArrayId, b: grout::ArrayId) -> Ce {
    Ce {
        id: CeId(id),
        kind: CeKind::Kernel {
            name: "bench_k".into(),
            cost: KernelCost {
                flops: 1e6,
                bytes_read: MIB,
                bytes_written: MIB,
            },
        },
        args: vec![CeArg::read_write(a, MIB), CeArg::read(b, MIB)],
    }
}

/// `(row name, ns per iteration)` as committed at aa00e7a, where the plan
/// rows rebuilt their planner every 4096 CEs to bound what they measured.
const BEFORE: &[(&str, f64)] = &[
    ("plan_bare", 188_588.6),
    ("plan_logged", 190_843.9),
    ("plan_journalled", 892_659.3),
    ("digest_2k_ces", 3_563_581.6),
    ("encode_op", 144.9),
    ("decode_op", 113.5),
    ("replay_2k_ces", 327_900_172.9),
];

/// One planning step (plan + complete) on a planner built once for the
/// row and preloaded with `preload` CEs of the same stream; returns ns
/// per step.
fn bench_plan(name: &str, budget: Duration, logged: bool, journal: bool, preload: u64) -> f64 {
    let journal_path = std::env::temp_dir().join(format!(
        "grout-bench-oplog-{}-{name}.grjl",
        std::process::id()
    ));
    let mut n = 0u64;
    let ns = if logged {
        let mut p = LoggedPlanner::new(Planner::new(cfg(4), None));
        if journal {
            let sink = JournalSink::create(&journal_path, p.config(), &None).expect("journal");
            p.add_sink(Box::new(sink));
        }
        let a = p.alloc(MIB);
        let b = p.alloc(MIB);
        let mut step = move || {
            let ce = kernel_ce(n, a, b);
            n += 1;
            let plan = p.plan_ce(&ce).expect("plan");
            p.mark_completed(plan.dag_index);
        };
        (0..preload).for_each(|_| step());
        time(budget, step)
    } else {
        let mut bare = Planner::new(cfg(4), None);
        let mut alloc = || match bare.apply(&PlannerOp::Alloc { bytes: MIB }).expect("alloc") {
            grout::core::PlannerResp::Array(id) => id,
            _ => unreachable!(),
        };
        let (a, b) = (alloc(), alloc());
        let mut step = move || {
            let ce = kernel_ce(n, a, b);
            n += 1;
            let plan = match bare.apply(&PlannerOp::PlanCe { ce }).expect("plan") {
                grout::core::PlannerResp::Plan(plan) => plan,
                _ => unreachable!(),
            };
            bare.apply(&PlannerOp::MarkCompleted {
                dag_index: plan.dag_index,
            })
            .expect("complete");
        };
        (0..preload).for_each(|_| step());
        time(budget, step)
    };
    std::fs::remove_file(&journal_path).ok();
    ns
}

/// A planner carrying `ces` planned+completed kernels (digest workload).
fn loaded_planner(ces: u64) -> LoggedPlanner {
    let mut p = LoggedPlanner::new(Planner::new(cfg(4), Some(LinkMatrix::uniform(5, 10e9))));
    let a = p.alloc(MIB);
    let b = p.alloc(MIB);
    for i in 0..ces {
        let plan = p.plan_ce(&kernel_ce(i, a, b)).expect("plan");
        p.mark_completed(plan.dag_index);
    }
    p
}

fn main() {
    let budget = Duration::from_millis(400);
    let mut bench = Bench::new("oplog", BEFORE);
    let mut row = |name: &str, ns: f64| bench.row(name, ns, "ns_per_iter");
    for (name, logged, journal, preload) in [
        ("plan_bare", false, false, 0),
        ("plan_bare_at_64k", false, false, 64_000),
        ("plan_logged", true, false, 0),
        ("plan_journalled", true, true, 0),
    ] {
        row(name, bench_plan(name, budget, logged, journal, preload));
    }

    let loaded = loaded_planner(2000);
    row(
        "digest_2k_ces",
        time(budget, || {
            std::hint::black_box(loaded.state_digest());
        }),
    );

    let op = PlannerOp::PlanCe {
        ce: kernel_ce(7, grout::ArrayId(1), grout::ArrayId(2)),
    };
    row(
        "encode_op",
        time(budget, || {
            std::hint::black_box(wire::encode_op(&op));
        }),
    );
    let bytes = wire::encode_op(&op);
    row(
        "decode_op",
        time(budget, || {
            std::hint::black_box(wire::decode_op(&bytes).expect("decode"));
        }),
    );

    let log = loaded_planner(2000);
    let replay_ns = time(Duration::from_secs(2), || {
        let mut replica = Planner::new(cfg(4), Some(LinkMatrix::uniform(5, 10e9)));
        let _ = replay_ops(&mut replica, log.ops());
        std::hint::black_box(replica.state_digest());
    });
    println!(
        "bench oplog/replay throughput: {:.0} ops/s",
        log.ops().len() as f64 / (replay_ns / 1e9)
    );
    row("replay_2k_ces", replay_ns);

    bench.finish();
}
