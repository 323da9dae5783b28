//! Where the repository lives, how its daemons get built and spawned, and
//! how every child is killed and reaped on every exit path.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Filesystem layout of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Env {
    /// Repository root (holds `crates/` and `benchmark/`).
    pub root: PathBuf,
    /// `benchmark/out/`: traces, journals, daemon stderr.
    pub out: PathBuf,
    /// The daemons, once [`build_daemons`] has run (the command line does
    /// that before any workload, so the whole build lands in the first
    /// run of a fresh checkout; library users running channel-only reps
    /// need none).
    pub bins: Option<Bins>,
}

impl Env {
    /// Finds the repository: the working directory when it looks like the
    /// root (how the driver and `cargo run --manifest-path` invoke us),
    /// else the directory this package was built from.
    pub fn locate() -> Result<Env, String> {
        let is_root =
            |p: &Path| p.join("benchmark/Cargo.toml").is_file() && p.join("crates/grout").is_dir();
        let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
        let built_from = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .map(Path::to_path_buf);
        let root = if is_root(&cwd) {
            cwd
        } else {
            built_from
                .filter(|p| is_root(p))
                .ok_or("cannot find the repository root: run from the directory holding `crates/` and `benchmark/`")?
        };
        let out = root.join("benchmark/out");
        std::fs::create_dir_all(&out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        Ok(Env {
            root,
            out,
            bins: None,
        })
    }
}

/// Paths of the two daemons the TCP and control-plane workloads spawn.
#[derive(Debug, Clone)]
pub struct Bins {
    /// `grout-workerd`.
    pub workerd: PathBuf,
    /// `grout-ctld`.
    pub ctld: PathBuf,
}

/// Builds (or freshens — a no-op when up to date) the root workspace's
/// release daemons and returns their paths. Runs cargo on every call so a
/// stale daemon can never be measured against fresh library code.
pub fn build_daemons(env: &Env) -> Result<Bins, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p", "grout"])
        .args(["--bin", "grout-workerd", "--bin", "grout-ctld"])
        .current_dir(&env.root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run `cargo build` for the daemons: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release --offline -p grout --bin grout-workerd --bin grout-ctld` \
             failed in {} ({status}); the TCP and ctld workloads need those daemons",
            env.root.display()
        ));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against its working
    // directory, which was the root.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(|t| env.root.join(t))
        .unwrap_or_else(|| env.root.join("target"));
    let bins = Bins {
        workerd: target.join("release/grout-workerd"),
        ctld: target.join("release/grout-ctld"),
    };
    for bin in [&bins.workerd, &bins.ctld] {
        if !bin.is_file() {
            return Err(format!("cargo succeeded but {} is missing", bin.display()));
        }
    }
    Ok(bins)
}

/// Every live child, so a timed-out rep (whose thread still owns its
/// [`Daemon`] handles) can be torn down from the main thread.
static LIVE: Mutex<Vec<Arc<Mutex<Child>>>> = Mutex::new(Vec::new());

fn reap(child: &Mutex<Child>) {
    // A poisoned lock still guards a valid Child: kill it regardless.
    let mut child = child.lock().unwrap_or_else(|e| e.into_inner());
    let _ = child.kill();
    let _ = child.wait();
}

/// Kills and reaps every child spawned so far. Idempotent; called on
/// timeouts and before every `process::exit`.
pub fn kill_all() {
    let live: Vec<_> = LIVE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
        .collect();
    for child in live {
        reap(&child);
    }
}

/// A spawned daemon. Dropping it kills and reaps the process and joins
/// the thread draining its stdout.
pub struct Daemon {
    child: Arc<Mutex<Child>>,
    pid: u32,
    drain: Option<std::thread::JoinHandle<()>>,
    /// How long `drop` lets the process exit on its own first (a workerd
    /// leaves by itself once its controller says `Shutdown`).
    grace: Duration,
}

impl Daemon {
    /// Spawns `bin args..`, with stderr (the daemon's JSONL event log)
    /// captured to `stderr_to`, and waits until stdout has announced one
    /// line per prefix in `announce`, in order. Returns the daemon and the
    /// announced remainders (e.g. the bound addresses).
    pub fn spawn(
        bin: &Path,
        args: &[&str],
        stderr_to: &Path,
        announce: &[&str],
        grace: Duration,
    ) -> Result<(Daemon, Vec<String>), String> {
        let name = bin.display();
        let stderr = File::create(stderr_to)
            .map_err(|e| format!("cannot create {}: {e}", stderr_to.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {name}: {e}"))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let child = Arc::new(Mutex::new(child));
        LIVE.lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&child));
        // Read on a thread so a daemon that never announces cannot hang
        // us, and keep draining so it never blocks on a full pipe.
        let (tx, rx) = mpsc::channel::<String>();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let daemon = Daemon {
            child,
            pid,
            drain: Some(drain),
            grace,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut announced = Vec::new();
        for prefix in announce {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| format!("{name} did not announce `{prefix}` within 10 s"))?;
            let rest = line
                .strip_prefix(prefix)
                .ok_or_else(|| format!("{name} announced `{line}`, expected `{prefix}...`"))?;
            announced.push(rest.trim().to_string());
        }
        Ok((daemon, announced))
    }

    /// OS process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }
}

/// Spawns one `grout-workerd` on an OS-chosen loopback port, its stderr in
/// `<out>/<workload>.workerd<index>.stderr.jsonl`; returns it with the
/// address it announced.
pub fn spawn_workerd(
    bins: &Bins,
    out: &Path,
    workload: &str,
    index: usize,
    grace: Duration,
) -> Result<(Daemon, String), String> {
    let (daemon, mut said) = Daemon::spawn(
        &bins.workerd,
        &["--listen", "127.0.0.1:0"],
        &out.join(format!("{workload}.workerd{index}.stderr.jsonl")),
        &["LISTENING "],
        grace,
    )?;
    Ok((daemon, said.remove(0)))
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let deadline = Instant::now() + self.grace;
        loop {
            let exited = {
                let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
                !matches!(child.try_wait(), Ok(None))
            };
            if exited || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        reap(&self.child);
        LIVE.lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|c| !Arc::ptr_eq(c, &self.child));
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// fixed the user-visible value at 100 on every architecture it runs on.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid` (all its
/// threads, including ones that already exited); 0 if it is gone.
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, utime 14, stime 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / CLK_TCK
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB; 0 if it is gone.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_has_cpu_and_rss() {
        let me = std::process::id();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds(me) > 0.0);
        assert!(peak_rss_mib(me) > 0.5);
        assert_eq!(cpu_seconds(u32::MAX), 0.0);
        assert_eq!(peak_rss_mib(u32::MAX), 0.0);
    }

    #[test]
    fn daemon_guard_kills_and_reaps() {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (daemon, said) = Daemon::spawn(
            Path::new("/bin/sh"),
            &["-c", "echo READY now; exec sleep 600"],
            &dir.join("stderr"),
            &["READY "],
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(said, vec!["now".to_string()]);
        let pid = daemon.pid();
        assert!(Path::new(&format!("/proc/{pid}")).exists());
        drop(daemon);
        assert!(!Path::new(&format!("/proc/{pid}")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
