//! `grout-replay` — reconstruct planner state from a crash-recovery
//! journal written by `grout-run --journal` or `grout-ctld --journal`.
//!
//! Usage:
//!   grout-replay <ops.grjl> [--verbose] [--stop-at N]
//!
//! Replays each session's journalled op log onto a freshly constructed
//! planner — the same pure `apply` path the live run used — and prints a
//! state summary plus the final state digest. When a session carries a
//! clean-exit footer, the reconstructed digest is verified against it
//! and a mismatch exits nonzero: bit-exact reconstruction is the whole
//! point. A `grout-ctld` journal holds one session per tenant; each is
//! replayed and verified in turn under a `session N` heading.
//!
//! `--stop-at N` replays only the first N ops of each session
//! (record/replay debugging: bisect for the op that corrupted state);
//! `--verbose` prints one line per op with the rolling op digest after
//! applying it (`Planner::op_digest`, O(1) per op). The op digest covers
//! each op's decision, not the construction config or link matrix, so
//! diffing two journals' verbose output line by line finds the first op
//! the two runs decided differently.

use std::path::PathBuf;
use std::process::ExitCode;

use grout::core::Planner;
use grout::net::oplog::{read_journal_sessions, Journal};

struct Cli {
    journal: PathBuf,
    verbose: bool,
    stop_at: Option<usize>,
}

const USAGE: &str =
    "usage: grout-replay <grout-run|grout-ctld --journal file> [--verbose] [--stop-at N]";

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Some(cli)) => match run(&cli) {
            Ok(ok) => {
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(msg) => {
                eprintln!("grout-replay: {msg}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => ExitCode::SUCCESS, // --help
        Err(msg) => {
            eprintln!("grout-replay: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the command line; `Ok(None)` means `--help` was served.
fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Cli>, String> {
    let mut journal = None;
    let mut verbose = false;
    let mut stop_at = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verbose" => verbose = true,
            "--stop-at" => {
                let n = args.next().ok_or("--stop-at needs an op count")?;
                stop_at = Some(
                    n.parse()
                        .map_err(|_| format!("--stop-at needs an integer, got `{n}`"))?,
                );
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            path if !path.starts_with('-') => journal = Some(PathBuf::from(path)),
            other => return Err(format!("unknown argument `{other}`; see --help")),
        }
    }
    let journal = journal.ok_or("no journal given; see --help")?;
    Ok(Some(Cli {
        journal,
        verbose,
        stop_at,
    }))
}

/// Replays and verifies every session; `Ok(false)` means the run
/// completed but some session's reconstructed digest contradicts its
/// footer.
fn run(cli: &Cli) -> Result<bool, String> {
    let (sessions, truncated) = read_journal_sessions(&cli.journal)
        .map_err(|e| format!("cannot read `{}`: {e}", cli.journal.display()))?;
    if truncated {
        eprintln!(
            "[grout-replay] journal tail is truncated (writer was killed mid-frame); \
             replaying the {} complete ops",
            sessions.values().map(|j| j.ops.len()).sum::<usize>()
        );
    }
    let mut ok = true;
    for (sid, journal) in &sessions {
        if sessions.len() > 1 {
            println!("session {}", sid.0);
        }
        ok &= replay_session(cli, journal);
    }
    Ok(ok)
}

/// Replays one session and verifies its footer; `false` on a mismatch.
fn replay_session(cli: &Cli, journal: &Journal) -> bool {
    let end = cli
        .stop_at
        .unwrap_or(journal.ops.len())
        .min(journal.ops.len());
    let planner = if cli.verbose {
        replay_verbose(journal, end)
    } else {
        journal.replay(cli.stop_at)
    };
    print_summary(journal, &planner, end);
    if end < journal.ops.len() {
        // Partial replay: the footer (if any) describes the full log, so
        // there is nothing to verify against.
        return true;
    }
    match journal.footer {
        Some(f) if f.digest == planner.state_digest() => {
            println!("footer digest verified: {:016x}", f.digest);
            true
        }
        Some(f) => {
            eprintln!(
                "[grout-replay] DIGEST MISMATCH: footer says {:016x}, replay reached {:016x}",
                f.digest,
                planner.state_digest()
            );
            false
        }
        None => {
            println!("no footer (crashed run); replayed state is the recovery point");
            true
        }
    }
}

fn replay_verbose(journal: &Journal, end: usize) -> Planner {
    let mut p = Planner::new(journal.cfg.clone(), journal.links.clone());
    for (i, op) in journal.ops[..end].iter().enumerate() {
        let outcome = match p.apply(op) {
            Ok(_) => "ok",
            Err(_) => "err",
        };
        println!(
            "op {i:>6}  {:<14} {outcome:<4} digest {:016x}",
            op.kind(),
            p.op_digest()
        );
    }
    p
}

fn print_summary(journal: &Journal, planner: &Planner, replayed: usize) {
    println!(
        "journal: {} ops ({} total), workers {}, footer {}",
        replayed,
        journal.ops.len(),
        journal.cfg.workers,
        match &journal.footer {
            Some(f) => format!("@{} digest {:016x}", f.last_seq, f.digest),
            None => "absent".into(),
        }
    );
    println!(
        "replayed state: {} CEs in DAG ({} edges), {} tracked arrays, {}/{} workers healthy",
        planner.dag().len(),
        planner.dag().edge_count(),
        planner.coherence().len(),
        planner.healthy_workers(),
        planner.config().workers
    );
    println!("state digest: {:016x}", planner.state_digest());
}
