//! Data-race detection for kernels.
//!
//! On a real GPU (and in this crate's multi-core launches) a kernel where
//! two threads plainly write the same element has unspecified results
//! (last-write-wins). `launch_checked` executes the kernel *sequentially*,
//! recording which thread wrote and read every buffer element, and reports
//! the first write-write or read-write conflict between distinct threads —
//! the tool a CUDA developer reaches for with `compute-sanitizer --tool
//! racecheck`.
//!
//! `atomicAdd` is exempt by definition: atomics are how kernels are
//! *supposed* to share elements.

use std::collections::HashMap;

use crate::interp::{KernelArg, LaunchError, Program};

/// A detected race between two simulated GPU threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// Pointer parameter position.
    pub param: usize,
    /// Element index both threads touched.
    pub index: usize,
    /// Global id of the first-writing thread.
    pub first_writer: u64,
    /// Global id of the conflicting thread.
    pub second: u64,
    /// Whether the second access was a write (write-write) or a read
    /// (read-after-write from a different thread without synchronization).
    pub second_is_write: bool,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} race on parameter {} element {}: thread {} wrote, thread {} {}",
            if self.second_is_write {
                "write-write"
            } else {
                "read-write"
            },
            self.param,
            self.index,
            self.first_writer,
            self.second,
            if self.second_is_write {
                "also wrote"
            } else {
                "read"
            },
        )
    }
}

/// Outcome of a checked launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Races found (empty = race-free under this input).
    pub races: Vec<Race>,
    /// Threads executed.
    pub threads: u64,
}

impl RaceReport {
    /// True when no race was observed.
    pub fn is_race_free(&self) -> bool {
        self.races.is_empty()
    }
}

/// Executes the kernel one simulated thread at a time (grid order) on the
/// same bytecode VM as [`crate::CompiledKernel::launch`], with its
/// access-log hook switched on, tracking per-element access history and
/// reporting inter-thread conflicts. Results are written to the buffers
/// exactly as a sequential execution would produce them. The launch is
/// 1-D: a 2-D kernel sees a single `y` lane.
///
/// This is O(accesses per thread) in memory and far slower than a plain
/// launch; use it in tests and debugging, not production runs.
pub(crate) fn launch_checked(
    program: &Program,
    grid: u32,
    block: u32,
    args: &mut [KernelArg<'_>],
    max_races: usize,
) -> Result<RaceReport, LaunchError> {
    // Per (param, index): last writer thread id; set of reader thread ids is
    // not needed — only the last writer matters for both conflict kinds.
    let mut last_writer: HashMap<(usize, usize), u64> = HashMap::new();
    let mut races = Vec::new();
    let mut threads = 0u64;
    program.launch_traced(grid, block, args, 1 << 24, |gid, log| {
        threads += 1;
        for &(param, index, is_write, is_atomic) in log {
            if is_atomic {
                continue;
            }
            let key = (param, index);
            // NOTE: race *recording* saturates at `max_races`, but execution
            // continues so buffer contents always match a full sequential run.
            if let Some(&w) = last_writer.get(&key) {
                if w != gid && races.len() < max_races {
                    races.push(Race {
                        param,
                        index,
                        first_writer: w,
                        second: gid,
                        second_is_write: is_write,
                    });
                }
            }
            if is_write {
                last_writer.insert(key, gid);
            }
        }
    })?;
    Ok(RaceReport { races, threads })
}
