//! Property-based invariants of the planner op log.
//!
//! The contract the whole replication story rests on: the op log is a
//! *complete* account of planner mutation. Whatever sequence of typed
//! mutators a runtime drives — allocs, frees, plans, completions,
//! quarantines, recoveries, link reprobes, in any interleaving, with
//! failures along the way — replaying the captured [`PlannerOp`] log
//! from an empty planner must land on a bit-identical state (structural
//! `PartialEq` *and* the FNV digest the standby acks with).

use grout_core::{
    replay_ops, AccessMode, AccessPattern, Ce, CeArg, CeId, CeKind, ExplorationLevel, KernelCost,
    LinkMatrix, LoggedPlanner, MemAdvise, Planner, PlannerConfig, PolicyKind,
};
use proptest::prelude::*;

const MIB: u64 = 1 << 20;

/// One abstract mutator invocation; indices are drawn large and reduced
/// modulo the live population at apply time so shrinking stays sound.
#[derive(Debug, Clone)]
enum Cmd {
    Alloc {
        mib: u64,
    },
    Free {
        pick: usize,
    },
    PlanCe {
        picks: [usize; 2],
        mode: u8,
        pattern: u8,
    },
    MarkCompleted {
        pick: usize,
    },
    /// A worker death as the failure detector reports it: `recover`
    /// quarantines internally *and* hands orphaned arrays back to the
    /// controller. (Bare `quarantine` is the spawn-failure path — before
    /// any data exists — so driving it after data is live would orphan
    /// holders in a way no runtime ever does.)
    KillWorker {
        pick: usize,
        incomplete: Vec<usize>,
    },
    ReprobeLinks {
        gbps: u8,
    },
}

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    // The shim's `prop_oneof!` is unweighted; duplicate entries bias the
    // stream toward the common mutators (alloc/plan/complete).
    fn plan() -> impl Strategy<Value = Cmd> {
        (any::<usize>(), any::<usize>(), 0u8..3, 0u8..3).prop_map(|(a, b, mode, pattern)| {
            Cmd::PlanCe {
                picks: [a, b],
                mode,
                pattern,
            }
        })
    }
    prop_oneof![
        (1u64..8).prop_map(|mib| Cmd::Alloc { mib }),
        (1u64..8).prop_map(|mib| Cmd::Alloc { mib }),
        any::<usize>().prop_map(|pick| Cmd::Free { pick }),
        plan(),
        plan(),
        plan(),
        any::<usize>().prop_map(|pick| Cmd::MarkCompleted { pick }),
        any::<usize>().prop_map(|pick| Cmd::MarkCompleted { pick }),
        (
            any::<usize>(),
            proptest::collection::vec(any::<usize>(), 0..3)
        )
            .prop_map(|(pick, incomplete)| Cmd::KillWorker { pick, incomplete }),
        (1u8..20).prop_map(|gbps| Cmd::ReprobeLinks { gbps }),
    ]
}

fn mode_of(tag: u8) -> AccessMode {
    match tag {
        0 => AccessMode::Read,
        1 => AccessMode::Write,
        _ => AccessMode::ReadWrite,
    }
}

fn pattern_of(tag: u8) -> AccessPattern {
    match tag {
        0 => AccessPattern::Streamed { sweeps: 1.0 },
        1 => AccessPattern::Gather {
            touches_per_page: 2.0,
        },
        _ => AccessPattern::Strided {
            touches_per_page: 4.0,
        },
    }
}

/// Drives the command stream through [`LoggedPlanner`]'s typed mutators
/// — the exact surface the runtimes use — tolerating per-op failures
/// (they still log). Returns the live planner wrapper.
fn drive(cmds: &[Cmd], workers: usize, links: Option<LinkMatrix>) -> LoggedPlanner {
    let cfg = PlannerConfig::new(workers, PolicyKind::RoundRobin);
    let mut planner = LoggedPlanner::new(Planner::new(cfg, links));
    let mut arrays = Vec::new();
    let mut planned = Vec::new();
    let mut next_ce = 0u64;
    for cmd in cmds {
        match cmd {
            Cmd::Alloc { mib } => arrays.push(planner.alloc(mib * MIB)),
            Cmd::Free { pick } => {
                if !arrays.is_empty() {
                    let a = arrays.remove(pick % arrays.len());
                    planner.free(a);
                }
            }
            Cmd::PlanCe {
                picks,
                mode,
                pattern,
            } => {
                if arrays.is_empty() {
                    continue;
                }
                let args = picks
                    .iter()
                    .map(|p| {
                        let a = arrays[p % arrays.len()];
                        CeArg {
                            array: a,
                            bytes: planner.array_bytes(a),
                            alloc_bytes: planner.array_bytes(a),
                            mode: mode_of(*mode),
                            pattern: pattern_of(*pattern),
                            advise: MemAdvise::None,
                        }
                    })
                    .collect();
                let ce = Ce {
                    id: CeId(next_ce),
                    kind: CeKind::Kernel {
                        name: format!("k{next_ce}"),
                        cost: KernelCost {
                            flops: 1e6,
                            bytes_read: MIB,
                            bytes_written: MIB,
                        },
                    },
                    args,
                };
                next_ce += 1;
                if let Ok(plan) = planner.plan_ce(&ce) {
                    planned.push(plan.dag_index);
                }
            }
            Cmd::MarkCompleted { pick } => {
                if !planned.is_empty() {
                    let i = planned.remove(pick % planned.len());
                    planner.mark_completed(i);
                }
            }
            Cmd::KillWorker { pick, incomplete } => {
                // Never kill the last healthy worker: the planner rejects
                // it, and the rest of the stream would starve.
                if planner.healthy_workers() <= 1 {
                    continue;
                }
                let dead = pick % workers;
                if planner.is_quarantined(dead) {
                    continue;
                }
                let inc: Vec<usize> = if planned.is_empty() {
                    Vec::new()
                } else {
                    incomplete
                        .iter()
                        .map(|p| planned[p % planned.len()])
                        .collect()
                };
                let _ = planner.recover(dead, &inc);
            }
            Cmd::ReprobeLinks { gbps } => {
                planner.reprobe_links(LinkMatrix::uniform(workers + 1, *gbps as f64 * 1e9));
            }
        }
    }
    planner
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replaying a random op log (including failed ops, quarantines and
    /// recoveries) from an empty planner reproduces the live-mutated
    /// planner bit-identically.
    #[test]
    fn replay_reproduces_live_state(
        cmds in proptest::collection::vec(arb_cmd(), 1..40),
        workers in 2usize..5,
        with_links in any::<bool>(),
    ) {
        let links = with_links.then(|| LinkMatrix::uniform(workers + 1, 12.5e9));
        let live = drive(&cmds, workers, links.clone());

        let cfg = PlannerConfig::new(workers, PolicyKind::RoundRobin);
        let mut replica = Planner::new(cfg, links);
        let _ = replay_ops(&mut replica, live.ops());

        prop_assert_eq!(replica.state_digest(), live.state_digest(), "digest diverged");
        prop_assert_eq!(replica.op_digest(), live.op_digest(), "op digest diverged");
        prop_assert_eq!(&replica, &*live, "structural state diverged");
    }

    /// Replay is insensitive to *how* the log is re-applied: replaying a
    /// prefix and then the remainder equals replaying the whole log.
    #[test]
    fn replay_composes_over_splits(
        cmds in proptest::collection::vec(arb_cmd(), 1..24),
        workers in 2usize..4,
        split in any::<usize>(),
    ) {
        let live = drive(&cmds, workers, None);
        let ops = live.ops();
        let cut = if ops.is_empty() { 0 } else { split % (ops.len() + 1) };

        let cfg = PlannerConfig::new(workers, PolicyKind::RoundRobin);
        let mut split_replica = Planner::new(cfg.clone(), None);
        let _ = replay_ops(&mut split_replica, &ops[..cut]);
        let _ = replay_ops(&mut split_replica, &ops[cut..]);

        let mut whole_replica = Planner::new(cfg, None);
        let _ = replay_ops(&mut whole_replica, ops);

        prop_assert_eq!(&split_replica, &whole_replica);
        prop_assert_eq!(split_replica.state_digest(), live.state_digest());
        prop_assert_eq!(split_replica.op_digest(), whole_replica.op_digest());
        prop_assert_eq!(split_replica.op_digest(), live.op_digest());
    }
}

/// The policy kinds with exploration state replay too (regression
/// anchor: the digest must cover scheduler placement state, not just
/// the DAG/coherence layers).
#[test]
fn replay_covers_exploring_policies() {
    for policy in [
        PolicyKind::MinTransferSize(ExplorationLevel::Medium),
        PolicyKind::MinTransferTime(ExplorationLevel::Low),
    ] {
        let links = Some(LinkMatrix::uniform(4, 10e9));
        let cfg = PlannerConfig::new(3, policy);
        let mut live = LoggedPlanner::new(Planner::new(cfg.clone(), links.clone()));
        // Driven by hand (drive() hardcodes RoundRobin).
        let a = live.alloc(4 * MIB);
        let b = live.alloc(2 * MIB);
        let ce = |id: u64, args: Vec<CeArg>| Ce {
            id: CeId(id),
            kind: CeKind::Kernel {
                name: format!("k{id}"),
                cost: KernelCost {
                    flops: 1e6,
                    bytes_read: MIB,
                    bytes_written: MIB,
                },
            },
            args,
        };
        let p0 = live
            .plan_ce(&ce(
                0,
                vec![CeArg::read_write(a, 4 * MIB), CeArg::read(b, 2 * MIB)],
            ))
            .expect("plan 0");
        live.mark_completed(p0.dag_index);
        let _ = live.plan_ce(&ce(
            1,
            vec![CeArg::read(a, 4 * MIB), CeArg::write(b, 2 * MIB)],
        ));
        live.free(b);

        let mut replica = Planner::new(cfg, links);
        let _ = replay_ops(&mut replica, live.ops());
        assert_eq!(&replica, &*live);
        assert_eq!(replica.state_digest(), live.state_digest());
    }
}
