//! Regenerates the paper's data-bearing figures and prints their tables.
//!
//! Usage: `repro_all [fig1|fig6a|fig6b|fig7|fig8|fig9 ...] [--json <dir>]`
//!        `          [--trace-out <path>] [--metrics-out <path>]`
//!
//! Runs the named figures, or all six when none is named, in paper order.
//! `--json <dir>` also writes `<dir>/<figure>.json` per figure.
//! `--trace-out` / `--metrics-out` re-run one representative point
//! instrumented and write a Perfetto-loadable Chrome trace and a metrics
//! dump: the named figure's own point when exactly one is named, else the
//! suite's (CG at 96 GB on two GrOUT nodes, tuned vector-step).

use grout::core::SimConfig;
use grout::workloads::{gb, BlackScholes, ConjugateGradient, SimWorkload};
use grout::{ExplorationLevel, PolicyKind};
use grout_bench::*;
use serde_json::Value;

/// Every figure, in paper order.
const FIGURES: [&str; 6] = ["fig1", "fig6a", "fig6b", "fig7", "fig8", "fig9"];

/// Flags that take a value (the value is not a figure name).
const VALUE_FLAGS: [&str; 3] = ["--json", "--trace-out", "--metrics-out"];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_dir = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());
    let mut named = Vec::new();
    let mut rest = args.iter().skip(1);
    while let Some(a) = rest.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            rest.next();
        } else if FIGURES.contains(&a.as_str()) {
            named.push(a.as_str());
        } else {
            panic!("unknown figure {a} (expected one of {FIGURES:?})");
        }
    }
    let selected: Vec<&str> = FIGURES
        .into_iter()
        .filter(|f| named.is_empty() || named.contains(f))
        .collect();

    for name in &selected {
        let value = run(name);
        println!();
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            std::fs::write(
                format!("{dir}/{name}.json"),
                serde_json::to_string_pretty(&value).expect("serialize"),
            )
            .expect("write json");
        }
    }

    // The suite's point is Fig. 6b's (and Fig. 7's).
    let point = match selected.as_slice() {
        [one] => one,
        _ => "fig6b",
    };
    let (label, workload, cfg, size_gb) = representative(point);
    emit_representative(
        &ArtifactArgs::parse(&args),
        label,
        workload.as_ref(),
        cfg,
        gb(size_gb),
    );
}

/// Generates figure `name`, prints its table and returns its JSON.
fn run(name: &str) -> Value {
    let sweep = |fig: Figure| {
        print_figure(&fig);
        fig.to_json()
    };
    match name {
        "fig1" => sweep(fig1()),
        "fig6a" => sweep(fig6a()),
        "fig6b" => sweep(fig6b()),
        "fig7" => sweep(fig7()),
        "fig8" => {
            let cells = fig8();
            print_fig8(&cells);
            Value::Array(cells.iter().map(Fig8Cell::to_json).collect())
        }
        "fig9" => {
            let points = fig9();
            print_fig9(&points);
            Value::Array(points.iter().map(Fig9Point::to_json).collect())
        }
        other => unreachable!("unknown figure {other}"),
    }
}

/// The point figure `name` re-runs instrumented for `--trace-out` /
/// `--metrics-out`: (label, workload, deployment, footprint in GB).
fn representative(name: &str) -> (&'static str, Box<dyn SimWorkload>, SimConfig, u64) {
    let cg = ConjugateGradient::default();
    match name {
        "fig1" => (
            "bs-64gb-single",
            Box::new(BlackScholes::default()),
            SimConfig::grcuda_baseline(),
            64,
        ),
        "fig6a" => (
            "cg-96gb-single",
            Box::new(cg),
            SimConfig::grcuda_baseline(),
            96,
        ),
        "fig6b" | "fig7" => {
            let policy = PolicyKind::VectorStep(cg.tuned_vector());
            (
                "cg-96gb-grout2-vector-step",
                Box::new(cg),
                grout_two_nodes(policy),
                96,
            )
        }
        "fig8" => (
            "cg-96gb-grout2-mts-medium",
            Box::new(cg),
            grout_two_nodes(PolicyKind::MinTransferSize(ExplorationLevel::Medium)),
            96,
        ),
        // The plan-latency stat in the metrics dump is Fig. 9's per-CE
        // overhead.
        "fig9" => (
            "cg-96gb-grout2-round-robin",
            Box::new(cg),
            grout_two_nodes(PolicyKind::RoundRobin),
            96,
        ),
        other => unreachable!("unknown figure {other}"),
    }
}

fn print_fig8(cells: &[Fig8Cell]) {
    println!("== fig8 — exec time at 96 GB (3x), normalized to round-robin (lower is better) ==");
    println!(
        "{:>8} {:>6} {:>20} {:>12} {:>12}",
        "level", "wl", "policy", "normalized", "secs"
    );
    for c in cells {
        println!(
            "{:>8} {:>6} {:>20} {:>12.3} {:>11.1}{}",
            c.level,
            c.workload,
            c.policy,
            c.normalized,
            c.secs,
            if c.timed_out { "*" } else { " " }
        );
    }
    if cells.iter().any(|c| c.timed_out) {
        println!("(* exceeded the paper's 2.5 h per-run cap)");
    }
}

fn print_fig9(points: &[Fig9Point]) {
    println!("== fig9 — controller scheduling overhead per CE [us] (real wall clock) ==");
    let policies = [
        "round-robin",
        "vector-step",
        "min-transfer-size",
        "min-transfer-time",
    ];
    print!("{:>8}", "nodes");
    for p in policies {
        print!("{p:>20}");
    }
    println!();
    for n in [2usize, 4, 8, 16, 32, 64, 128, 256] {
        print!("{n:>8}");
        for p in policies {
            let v = points
                .iter()
                .find(|q| q.policy == p && q.nodes == n)
                .map(|q| q.micros_per_ce)
                .unwrap_or(f64::NAN);
            print!("{v:>20.3}");
        }
        println!();
    }
}
