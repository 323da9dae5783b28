#![warn(missing_docs)]
//! # grout-bench — figure-reproduction harness
//!
//! One generator per data-bearing figure of the paper (1, 6a, 6b, 7, 8, 9);
//! the `repro_*` binaries print them and EXPERIMENTS.md records
//! paper-vs-measured values. [`micro`] is the harness the `benches/`
//! targets write their `BENCH_*.json` rows with.

mod artifacts;
mod figures;
pub mod micro;

pub use artifacts::{emit_representative, instrumented_run, ArtifactArgs};
pub use figures::{
    fig1, fig6a, fig6b, fig7, fig8, fig9, grout_two_nodes, paper_workloads, print_figure, Fig8Cell,
    Fig9Point, FigPoint, FigSeries, Figure,
};
