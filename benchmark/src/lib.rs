//! The repository benchmark: one CE's life on every transport, eight
//! workloads, per-layer probes from outside. See `benchmark/README.md`.

pub mod catalogue;
pub mod cli;
pub mod compare;
pub mod daemons;
pub mod harness;
pub mod local;
pub mod probes;
pub mod program;
pub mod report;
pub mod runtime_workloads;
pub mod sim_workload;
pub mod spans;
pub mod stats;
pub mod tap;
pub mod tenants;
