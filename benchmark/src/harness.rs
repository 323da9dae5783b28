//! Run protocol shared by all workloads: rep time-outs, sample
//! collection and the end-to-end metric definitions.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use crate::daemons::{self, peak_rss_mib};
use crate::report::Report;
use crate::spans::Trace;
use crate::stats::median;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Traced run: harness spans, the transport tap and the layer probes.
    pub traced: bool,
}

/// A rep may take this long before it is declared hung. Hangs, not
/// crashes, are this system's historical failure mode; a wedged rep must
/// become a failed operation, never a wedged benchmark.
pub const REP_TIMEOUT: Duration = Duration::from_secs(60);

/// Set-up samples every workload collects at least (the timed reps
/// contribute theirs; set-up-only reps top the count up).
pub const MIN_SETUPS: usize = 15;

/// Runs `rep` on its own thread and waits at most [`REP_TIMEOUT`]. On a
/// time-out or a panic every spawned daemon is killed (which also
/// unwedges a rep stuck on a socket) and `Err` says which it was; the
/// stuck thread is left behind for `process::exit` to take down.
pub fn with_timeout<T: Send + 'static>(
    rep: impl FnOnce() -> T + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name("bench-rep".into())
        .spawn(move || {
            let _ = tx.send(rep());
        })
        .map_err(|e| format!("cannot spawn the rep thread: {e}"))?;
    match rx.recv_timeout(REP_TIMEOUT) {
        Ok(value) => {
            let _ = thread.join();
            Ok(value)
        }
        Err(RecvTimeoutError::Timeout) => {
            daemons::kill_all();
            Err(format!("rep hung: no result within {REP_TIMEOUT:?}"))
        }
        Err(RecvTimeoutError::Disconnected) => {
            daemons::kill_all();
            Err("rep panicked".into())
        }
    }
}

/// [`with_timeout`] for a rep that records spans: lends `trace` to the
/// rep's thread and takes it back with the result. A hung rep keeps it;
/// the run is over by then.
pub fn traced_rep<T: Send + 'static>(
    trace: &mut Trace,
    rep: impl FnOnce(Trace) -> (Trace, T) + Send + 'static,
) -> Result<T, String> {
    let lent = std::mem::replace(trace, Trace::off());
    let (back, out) = with_timeout(move || rep(lent))?;
    *trace = back;
    Ok(out)
}

/// Runs the fallible body of a workload; an `Err` that escapes it becomes
/// one failed operation in the report.
pub fn or_fail(report: &mut Report, body: Result<(), String>) {
    if let Err(why) = body {
        report.attempted += 1;
        report.fail(why);
    }
}

/// Samples gathered over the timed reps of one run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up time of every rep (timed or set-up-only), seconds.
    pub setups: Vec<f64>,
    /// Wall time of every session (for runtime workloads a session is a
    /// rep's timed region), milliseconds.
    pub sessions_ms: Vec<f64>,
    /// Unpipelined round trips, µs, pooled over all reps.
    pub rtts_us: Vec<f64>,
    /// CEs completed in the timed regions.
    pub ces: u64,
    /// Total wall time of the timed regions, seconds.
    pub wall_s: f64,
    /// Total CPU (bench process + daemons) over the timed regions.
    pub cpu_s: f64,
    /// Timed reps.
    pub reps: u64,
}

impl Samples {
    /// Folds one timed rep in. `sessions_ms` are the sessions the rep ran
    /// (its own timed region for the runtime workloads).
    pub fn add_rep(
        &mut self,
        setup_s: f64,
        wall_s: f64,
        ces: u64,
        cpu_s: f64,
        rtt_us: &[f64],
        sessions_ms: &[f64],
    ) {
        self.setups.push(setup_s);
        self.sessions_ms.extend(sessions_ms);
        self.rtts_us.extend(rtt_us);
        self.ces += ces;
        self.wall_s += wall_s;
        self.cpu_s += cpu_s;
        self.reps += 1;
    }

    /// Measured time so far: timed regions plus round-trip probing.
    pub fn measured_s(&self) -> f64 {
        self.wall_s + self.rtts_us.iter().sum::<f64>() / 1e6
    }

    /// CEs per second over the timed regions.
    pub fn ce_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ces as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Writes the six end-to-end metrics. `peak_rss` is that of the process
    /// hosting the planner (this process unless a daemon plans), MiB.
    pub fn end_to_end(&self, report: &mut Report, peak_rss: f64) {
        report.reps = self.reps;
        report.set("ce_per_s", self.ce_per_s());
        report.set("sync_rtt_p50_us", median(&self.rtts_us));
        report.set("session_p50_ms", median(&self.sessions_ms));
        report.set("setup_s", median(&self.setups));
        report.set("peak_rss_mib", peak_rss);
        report.set(
            "cpu_us_per_ce",
            if self.ces > 0 {
                self.cpu_s * 1e6 / self.ces as f64
            } else {
                0.0
            },
        );
    }
}

/// Peak RSS of this process, MiB.
pub fn own_peak_rss_mib() -> f64 {
    peak_rss_mib(std::process::id())
}
