//! Figure generators: one function per data-bearing figure of the paper.
//!
//! Each returns structured data that the `repro_*` binaries print and
//! EXPERIMENTS.md records. Figures 2-5 of the paper are architecture
//! diagrams with no data and have no generator.

use grout::core::{ExplorationLevel, PolicyKind, SimConfig};
use grout::workloads::{
    gb, oversubscription_factor, run_workload, BlackScholes, ConjugateGradient, MatVec, MlEnsemble,
    RunOutcome, SimWorkload, PAPER_SIZES_GB,
};
use serde_json::Value;

/// One measured point.
#[derive(Debug, Clone)]
pub struct FigPoint {
    /// Footprint in the paper's GB units.
    pub size_gb: u64,
    /// Oversubscription factor vs one 32 GiB node.
    pub factor: f64,
    /// The measured value (meaning depends on the figure).
    pub value: f64,
    /// Whether the run exceeded the 2.5 h cap (value is then a lower bound).
    pub timed_out: bool,
}

impl FigPoint {
    /// The point as a JSON object, fields in declaration order.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("size_gb".into(), Value::U64(self.size_gb)),
            ("factor".into(), Value::F64(self.factor)),
            ("value".into(), Value::F64(self.value)),
            ("timed_out".into(), Value::Bool(self.timed_out)),
        ])
    }
}

/// One labeled series.
#[derive(Debug, Clone)]
pub struct FigSeries {
    /// Series label (workload or policy name).
    pub label: String,
    /// Points in size order.
    pub points: Vec<FigPoint>,
}

impl FigSeries {
    /// The series as a JSON object, fields in declaration order.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("label".into(), Value::String(self.label.clone())),
            (
                "points".into(),
                Value::Array(self.points.iter().map(FigPoint::to_json).collect()),
            ),
        ])
    }
}

/// A whole reproduced figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper figure id ("fig1", "fig6a", ...).
    pub id: &'static str,
    /// What the value axis means.
    pub value_axis: &'static str,
    /// The series.
    pub series: Vec<FigSeries>,
}

impl Figure {
    /// The figure as a JSON object (`repro_all --json`), fields in
    /// declaration order.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("id".into(), Value::String(self.id.into())),
            ("value_axis".into(), Value::String(self.value_axis.into())),
            (
                "series".into(),
                Value::Array(self.series.iter().map(FigSeries::to_json).collect()),
            ),
        ])
    }
}

/// The paper's three distributed workloads.
pub fn paper_workloads() -> Vec<Box<dyn SimWorkload>> {
    vec![
        Box::new(MlEnsemble::default()),
        Box::new(ConjugateGradient::default()),
        Box::new(MatVec::default()),
    ]
}

/// The two-node GrOUT deployment used in Figures 6b/7/8 (with the chosen
/// inter-node policy).
pub fn grout_two_nodes(policy: PolicyKind) -> SimConfig {
    SimConfig::paper_grout(2, policy)
}

fn sweep(workload: &dyn SimWorkload, cfg: &SimConfig, sizes: &[u64]) -> Vec<(u64, RunOutcome)> {
    sizes
        .iter()
        .map(|&s| (s, run_workload(workload, cfg.clone(), gb(s))))
        .collect()
}

/// Figure 1: Black-Scholes execution time vs input size on one node; sizes
/// past 32 GB are the paper's red (oversubscribed) bars.
pub fn fig1() -> Figure {
    let cfg = SimConfig::grcuda_baseline();
    let bs = BlackScholes::default();
    let points = sweep(&bs, &cfg, &PAPER_SIZES_GB)
        .into_iter()
        .map(|(s, out)| FigPoint {
            size_gb: s,
            factor: oversubscription_factor(gb(s)),
            value: out.secs(),
            timed_out: out.timed_out,
        })
        .collect();
    Figure {
        id: "fig1",
        value_axis: "execution time [s]",
        series: vec![FigSeries {
            label: "Black-Scholes (1 node, 2x V100)".into(),
            points,
        }],
    }
}

fn slowdown_figure(id: &'static str, cfg: Option<SimConfig>) -> Figure {
    let mut series = Vec::new();
    for w in paper_workloads() {
        // `None` means "two-node GrOUT with the workload's tuned offline
        // vector-step policy" (Figure 6b).
        let cfg = cfg
            .clone()
            .unwrap_or_else(|| grout_two_nodes(PolicyKind::VectorStep(w.tuned_vector())));
        let runs = sweep(w.as_ref(), &cfg, &PAPER_SIZES_GB);
        let baseline = runs[0].1.secs();
        let points = runs
            .into_iter()
            .map(|(s, out)| FigPoint {
                size_gb: s,
                factor: oversubscription_factor(gb(s)),
                value: out.secs() / baseline,
                timed_out: out.timed_out,
            })
            .collect();
        series.push(FigSeries {
            label: w.name().into(),
            points,
        });
    }
    Figure {
        id,
        value_axis: "slowdown vs 4 GB run",
        series,
    }
}

/// Figure 6a: single-node (GrCUDA) slowdown vs the 4 GB run.
pub fn fig6a() -> Figure {
    slowdown_figure("fig6a", Some(SimConfig::grcuda_baseline()))
}

/// Figure 6b: the same slowdown on two GrOUT nodes with each workload's
/// tuned offline vector-step policy.
pub fn fig6b() -> Figure {
    slowdown_figure("fig6b", None)
}

/// Figure 7: speedup of two-node GrOUT over single-node GrCUDA at equal
/// footprint. Timed-out single-node runs make the speedup a lower bound.
pub fn fig7() -> Figure {
    let single = SimConfig::grcuda_baseline();
    let mut series = Vec::new();
    for w in paper_workloads() {
        let grout = grout_two_nodes(PolicyKind::VectorStep(w.tuned_vector()));
        let s_runs = sweep(w.as_ref(), &single, &PAPER_SIZES_GB);
        let g_runs = sweep(w.as_ref(), &grout, &PAPER_SIZES_GB);
        let points = s_runs
            .into_iter()
            .zip(g_runs)
            .map(|((s, one), (_, two))| FigPoint {
                size_gb: s,
                factor: oversubscription_factor(gb(s)),
                value: one.secs() / two.secs(),
                timed_out: one.timed_out,
            })
            .collect();
        series.push(FigSeries {
            label: w.name().into(),
            points,
        });
    }
    Figure {
        id: "fig7",
        value_axis: "speedup vs single node (>1 favours GrOUT)",
        series,
    }
}

/// One Figure 8 cell: a workload under a policy at one exploration level,
/// normalized to round-robin.
#[derive(Debug, Clone)]
pub struct Fig8Cell {
    /// Exploration level (Low/Medium/High).
    pub level: &'static str,
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: &'static str,
    /// Execution time normalized to round-robin (lower is better).
    pub normalized: f64,
    /// Raw seconds.
    pub secs: f64,
    /// Run hit the 2.5 h cap.
    pub timed_out: bool,
}

impl Fig8Cell {
    /// The cell as a JSON object, fields in declaration order.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("level".into(), Value::String(self.level.into())),
            ("workload".into(), Value::String(self.workload.clone())),
            ("policy".into(), Value::String(self.policy.into())),
            ("normalized".into(), Value::F64(self.normalized)),
            ("secs".into(), Value::F64(self.secs)),
            ("timed_out".into(), Value::Bool(self.timed_out)),
        ])
    }
}

/// Figure 8: online vs offline policies at 3x oversubscription (96 GB) on
/// two nodes, normalized to round-robin, across the three heuristic levels.
pub fn fig8() -> Vec<Fig8Cell> {
    let size = gb(96);
    let levels = [
        ("Low", ExplorationLevel::Low),
        ("Medium", ExplorationLevel::Medium),
        ("High", ExplorationLevel::High),
    ];
    let mut cells = Vec::new();
    let workloads: Vec<Box<dyn SimWorkload>> = vec![
        Box::new(MlEnsemble::default()),
        Box::new(ConjugateGradient::default()),
        Box::new(MatVec::default()),
    ];
    for (lname, level) in levels {
        for w in &workloads {
            let rr = run_workload(w.as_ref(), grout_two_nodes(PolicyKind::RoundRobin), size);
            let policies: Vec<(PolicyKind, &'static str)> = vec![
                (PolicyKind::RoundRobin, "round-robin"),
                (PolicyKind::VectorStep(w.tuned_vector()), "vector-step"),
                (PolicyKind::MinTransferSize(level), "min-transfer-size"),
                (PolicyKind::MinTransferTime(level), "min-transfer-time"),
            ];
            for (policy, pname) in policies {
                let out = run_workload(w.as_ref(), grout_two_nodes(policy), size);
                cells.push(Fig8Cell {
                    level: lname,
                    workload: w.name().into(),
                    policy: pname,
                    normalized: out.secs() / rr.secs(),
                    secs: out.secs(),
                    timed_out: out.timed_out,
                });
            }
        }
    }
    cells
}

/// One Figure 9 point: mean wall-clock cost of a scheduling decision.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Policy name.
    pub policy: &'static str,
    /// Cluster size.
    pub nodes: usize,
    /// Mean microseconds per CE assignment (real wall clock).
    pub micros_per_ce: f64,
}

impl Fig9Point {
    /// The point as a JSON object, fields in declaration order.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("policy".into(), Value::String(self.policy.into())),
            ("nodes".into(), Value::U64(self.nodes as u64)),
            ("micros_per_ce".into(), Value::F64(self.micros_per_ce)),
        ])
    }
}

/// Builds the synthetic Controller state for a Figure 9 measurement:
/// arrays spread across `nodes` workers, and a CE reading eight.
fn fig9_state(nodes: usize) -> (grout::core::Coherence, grout::core::Ce) {
    use grout::core::{ArrayId, Ce, CeArg, CeId, CeKind, Coherence, KernelCost, Location};
    let mut coherence = Coherence::new();
    let arrays = 64usize;
    for a in 0..arrays {
        let id = ArrayId(a as u64);
        coherence.register(id);
        coherence.record_write(id, Location::worker(a % nodes));
    }
    let ce = Ce {
        id: CeId(0),
        kind: CeKind::Kernel {
            name: "synthetic".into(),
            cost: KernelCost::default(),
        },
        args: (0..8)
            .map(|i| CeArg::read(ArrayId(i as u64), 1 << 30))
            .collect(),
    };
    (coherence, ce)
}

/// Figure 9: controller scheduling overhead per CE for 2..256 nodes, per
/// policy, measured on the real policy code with `std::time::Instant`.
pub fn fig9() -> Vec<Fig9Point> {
    use grout::core::{LinkMatrix, NodeScheduler};
    type MakeScheduler = Box<dyn Fn(usize) -> NodeScheduler>;
    let node_counts = [2usize, 4, 8, 16, 32, 64, 128, 256];
    let reps = 20_000u32;
    let mut out = Vec::new();
    let policies: Vec<(&'static str, MakeScheduler)> = vec![
        (
            "round-robin",
            Box::new(|n| NodeScheduler::new(PolicyKind::RoundRobin, n, None)),
        ),
        (
            "vector-step",
            Box::new(|n| NodeScheduler::new(PolicyKind::VectorStep(vec![1, 2, 3]), n, None)),
        ),
        (
            "min-transfer-size",
            Box::new(|n| {
                NodeScheduler::new(
                    PolicyKind::MinTransferSize(ExplorationLevel::Medium),
                    n,
                    None,
                )
            }),
        ),
        (
            "min-transfer-time",
            Box::new(|n| {
                NodeScheduler::new(
                    PolicyKind::MinTransferTime(ExplorationLevel::Medium),
                    n,
                    Some(LinkMatrix::uniform(n + 1, 500e6)),
                )
            }),
        ),
    ];
    for (name, make) in &policies {
        for &n in &node_counts {
            let (coherence, ce) = fig9_state(n);
            let mut sched = make(n);
            // Warm up.
            for _ in 0..1000 {
                std::hint::black_box(sched.assign(&ce, &coherence));
            }
            let start = std::time::Instant::now();
            for _ in 0..reps {
                std::hint::black_box(sched.assign(&ce, &coherence));
            }
            let micros = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
            out.push(Fig9Point {
                policy: name,
                nodes: n,
                micros_per_ce: micros,
            });
        }
    }
    out
}

/// Pretty-prints a size-sweep figure as an aligned table.
pub fn print_figure(fig: &Figure) {
    println!("== {} — {} ==", fig.id, fig.value_axis);
    print!("{:>8}", "GB");
    for s in &fig.series {
        print!("{:>16}", s.label);
    }
    println!();
    let n = fig.series[0].points.len();
    for i in 0..n {
        print!("{:>8}", fig.series[0].points[i].size_gb);
        for s in &fig.series {
            let p = &s.points[i];
            let mark = if p.timed_out { "*" } else { "" };
            print!(
                "{:>15.2}{}",
                p.value,
                if mark.is_empty() { " " } else { mark }
            );
        }
        println!();
    }
    if fig
        .series
        .iter()
        .any(|s| s.points.iter().any(|p| p.timed_out))
    {
        println!("(* exceeded the paper's 2.5 h per-run cap; value is a lower bound)");
    }
}
