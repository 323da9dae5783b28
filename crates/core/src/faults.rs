//! Deterministic fault injection and the shared recovery machinery.
//!
//! Production deployments lose workers mid-CE, see kernel launches fail
//! transiently, and watch transfers stall. This module gives both runtimes
//! one seeded, replayable description of such events — the [`FaultPlan`] —
//! plus the pieces of recovery logic that are backend-independent: the
//! retry/backoff knobs ([`FaultConfig`]), per-worker liveness with an epoch
//! counter ([`FailureDetector`]), and the minimal-lineage closure
//! ([`replay_closure`]) that decides which completed DAG ancestors must be
//! re-executed to reconstruct array versions lost with a dead node.
//!
//! Determinism contract: a `FaultPlan` is keyed purely on DAG indices (the
//! dense submission order shared by [`crate::SimRuntime`] and
//! [`crate::LocalRuntime`]), the seeded generator uses [`desim::seeded_rng`],
//! and nothing here reads the wall clock — so the simulator prices a faulty
//! run without any real-time dependence and the local runtime replays the
//! exact same fault schedule on every run.

use std::collections::{BTreeSet, HashSet};

use desim::SimDuration;
use rand::Rng;

use crate::ce::ArrayId;
use crate::dag::DagIndex;

/// What goes wrong at a given CE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker assigned to this CE dies the moment it receives the
    /// launch command (before executing it). One-shot: after recovery the
    /// reassigned CE runs normally.
    KillWorker,
    /// The kernel launch fails transiently `times` times before
    /// succeeding. When `times` exceeds the configured retry budget the
    /// worker is treated as faulty and quarantined.
    FailLaunch {
        /// Number of consecutive transient failures to inject.
        times: u32,
    },
    /// The first planned data movement of this CE is lost in transit and
    /// must be re-driven after a detection timeout.
    DropTransfer,
    /// The first planned data movement of this CE arrives late by `delay`
    /// (timing-only: the simulator prices it, the local runtime records it).
    DelayTransfer {
        /// Extra latency before the transfer starts.
        delay: SimDuration,
    },
}

impl FaultKind {
    /// Short label used in traces.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::KillWorker => "kill-worker",
            FaultKind::FailLaunch { .. } => "fail-launch",
            FaultKind::DropTransfer => "drop-transfer",
            FaultKind::DelayTransfer { .. } => "delay-transfer",
        }
    }
}

/// One scheduled fault: `kind` fires when the CE at `at_ce` (Global DAG
/// index, submission order) is dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Global DAG index the fault is keyed on.
    pub at_ce: DagIndex,
    /// What happens there.
    pub kind: FaultKind,
}

/// A deterministic, replayable schedule of injected faults.
///
/// Lives in [`crate::PlannerConfig`] so the simulator and the local runtime
/// honour the identical schedule. Keying on DAG indices (not wall-clock
/// time) is what makes the two backends comparable fault-for-fault.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// No faults (the default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from an explicit event list.
    pub fn with_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_ce);
        FaultPlan { events }
    }

    /// A single worker death at CE `at_ce`.
    pub fn kill_at_ce(at_ce: DagIndex) -> Self {
        FaultPlan::with_events(vec![FaultEvent {
            at_ce,
            kind: FaultKind::KillWorker,
        }])
    }

    /// Seeded single-death plan: kills the worker executing one CE chosen
    /// uniformly from `candidates` (typically the kernel CEs of a
    /// workload). Deterministic per seed via [`desim::seeded_rng`].
    pub fn one_death(seed: u64, candidates: &[DagIndex]) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate CE");
        let mut rng = desim::seeded_rng(seed);
        let at_ce = candidates[rng.gen_range(0..candidates.len())];
        FaultPlan::kill_at_ce(at_ce)
    }

    /// Seeded mixed-fault plan: one fault drawn per candidate CE with
    /// probability `rate`, kind chosen among all four [`FaultKind`]s.
    /// Deterministic per seed; no wall clock involved.
    pub fn seeded(seed: u64, candidates: &[DagIndex], rate: f64) -> Self {
        let mut rng = desim::seeded_rng(seed);
        let mut events = Vec::new();
        for &at_ce in candidates {
            if !rng.gen_bool(rate) {
                continue;
            }
            let kind = match rng.gen_range(0u32..4) {
                0 => FaultKind::KillWorker,
                1 => FaultKind::FailLaunch {
                    times: rng.gen_range(1u32..3),
                },
                2 => FaultKind::DropTransfer,
                _ => FaultKind::DelayTransfer {
                    delay: SimDuration::from_millis(rng.gen_range(1u64..50)),
                },
            };
            events.push(FaultEvent { at_ce, kind });
        }
        FaultPlan::with_events(events)
    }

    /// Every scheduled event, ordered by DAG index.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn kind_at(&self, at_ce: DagIndex) -> impl Iterator<Item = FaultKind> + '_ {
        self.events
            .iter()
            .filter(move |e| e.at_ce == at_ce)
            .map(|e| e.kind)
    }

    /// Whether the worker executing CE `at_ce` is scheduled to die.
    pub fn kill_at(&self, at_ce: DagIndex) -> bool {
        self.kind_at(at_ce)
            .any(|k| matches!(k, FaultKind::KillWorker))
    }

    /// Injected transient launch-failure count for CE `at_ce`, if any.
    pub fn fail_launch_at(&self, at_ce: DagIndex) -> Option<u32> {
        self.kind_at(at_ce).find_map(|k| match k {
            FaultKind::FailLaunch { times } => Some(times),
            _ => None,
        })
    }

    /// Whether this CE's first transfer is scheduled to be lost.
    pub fn drop_at(&self, at_ce: DagIndex) -> bool {
        self.kind_at(at_ce)
            .any(|k| matches!(k, FaultKind::DropTransfer))
    }

    /// Injected delay on this CE's first transfer, if any.
    pub fn delay_at(&self, at_ce: DagIndex) -> Option<SimDuration> {
        self.kind_at(at_ce).find_map(|k| match k {
            FaultKind::DelayTransfer { delay } => Some(delay),
            _ => None,
        })
    }
}

/// What goes wrong on the wire at a given frame.
///
/// Both kinds cut a live TCP connection under the controller; the
/// session-resume layer must absorb them. The planner-visible delivery
/// stream of a chaos run is required to be bit-identical to the clean run
/// (no quarantine, no replay — just resumes counted in the wire stats).
/// Lost, duplicated and reordered frames are covered below the socket by
/// the `SendBuffer`/`RecvCursor` property tests in `grout-net`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The connection is torn down at this frame; the controller re-dials
    /// and resumes the session, replaying unacked frames.
    Sever,
    /// The connection is torn down and re-dials are suppressed for
    /// `beats` heartbeat periods; the resume machinery absorbs all
    /// traffic sent in the window once the partition heals.
    Partition {
        /// Window length, in heartbeat periods.
        beats: u64,
    },
}

impl NetFaultKind {
    /// Short label used in traces.
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::Sever => "sever",
            NetFaultKind::Partition { .. } => "partition",
        }
    }
}

/// One scheduled network fault: `kind` fires when the controller sends its
/// `at_frame`-th control frame (0-based, per peer) to worker `peer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultEvent {
    /// Worker whose connection misbehaves.
    pub peer: usize,
    /// 0-based per-peer control-frame count the fault is keyed on.
    pub at_frame: u64,
    /// What happens there.
    pub kind: NetFaultKind,
}

/// A deterministic, replayable schedule of network faults, injected by
/// the TCP transport (its `TcpConfig::net_faults`).
///
/// Keyed on per-peer control-frame counts (not wall-clock time) for the
/// same reason [`FaultPlan`] keys on DAG indices: a run sends the same
/// control-frame stream every time, so the schedule fires at the same
/// points and the chaos differential harness can assert bit-identical
/// outcomes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    events: Vec<NetFaultEvent>,
}

impl NetFaultPlan {
    /// No network faults (the default).
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// A plan from an explicit event list.
    pub fn with_events(mut events: Vec<NetFaultEvent>) -> Self {
        events.sort_by_key(|e| (e.peer, e.at_frame));
        NetFaultPlan { events }
    }

    /// A single connection sever at frame `at_frame` to worker `peer`.
    pub fn sever_at(peer: usize, at_frame: u64) -> Self {
        NetFaultPlan::with_events(vec![NetFaultEvent {
            peer,
            at_frame,
            kind: NetFaultKind::Sever,
        }])
    }

    /// Seeded mixed plan: for each worker `peer`, each of its first
    /// `frames[peer]` control frames draws a sever or a partition with
    /// probability `rate`.
    /// Deterministic per seed via [`desim::seeded_rng`].
    pub fn seeded(seed: u64, frames: &[u64], rate: f64) -> Self {
        let mut rng = desim::seeded_rng(seed);
        let mut events = Vec::new();
        for (peer, &frames) in frames.iter().enumerate() {
            for at_frame in 0..frames {
                if !rng.gen_bool(rate) {
                    continue;
                }
                let kind = if rng.gen_bool(0.5) {
                    NetFaultKind::Sever
                } else {
                    NetFaultKind::Partition {
                        beats: rng.gen_range(1u64..8),
                    }
                };
                events.push(NetFaultEvent {
                    peer,
                    at_frame,
                    kind,
                });
            }
        }
        NetFaultPlan::with_events(events)
    }

    /// Every scheduled event, ordered by (peer, frame).
    pub fn events(&self) -> &[NetFaultEvent] {
        &self.events
    }

    /// True when no network fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All faults keyed on the `at_frame`-th control frame to `peer`.
    pub fn at(&self, peer: usize, at_frame: u64) -> impl Iterator<Item = NetFaultKind> + '_ {
        self.events
            .iter()
            .filter(move |e| e.peer == peer && e.at_frame == at_frame)
            .map(|e| e.kind)
    }
}

/// Detection and recovery knobs shared by both runtimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Transient launch failures tolerated per CE before the worker is
    /// quarantined and the CE replanned.
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt ([`SimDuration::exp_backoff`]).
    pub backoff_base: SimDuration,
    /// Backoff ceiling.
    pub backoff_cap: SimDuration,
    /// How long the controller waits on the channel mesh before probing
    /// worker liveness (the simulator prices this as detection latency).
    pub detection_timeout: SimDuration,
    /// When false, a detected death surfaces as an error instead of
    /// triggering quarantine + replay (the pre-recovery behaviour).
    pub recovery: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            max_retries: 3,
            backoff_base: SimDuration::from_millis(1),
            backoff_cap: SimDuration::from_millis(100),
            detection_timeout: SimDuration::from_millis(250),
            recovery: true,
        }
    }
}

/// One worker's membership state in the [`FailureDetector`].
///
/// `Healthy → Suspected → Dead` is the omission-fault ladder: a stale or
/// severed connection makes a worker *Suspected* (no new CEs placed on it,
/// session resume attempted), and only the expiry of the transport's
/// reconnect window (`TcpConfig::reconnect_window`) — or a hard crash signal —
/// promotes it to *Dead* (quarantine + lineage replay). A Dead worker may
/// re-enter via `rejoin`, which starts a new membership epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Fully live: heartbeats fresh, eligible for new CEs.
    Healthy,
    /// In the grace window: not scheduled onto, not yet quarantined.
    Suspected,
    /// Confirmed dead: quarantined until an explicit rejoin.
    Dead,
}

/// Per-worker liveness with an epoch counter.
///
/// The epoch bumps once per confirmed failure *and* once per rejoin, so
/// every trace event carries which "view" of the cluster it was recorded
/// under — the standard way group-membership protocols disambiguate pre-
/// and post-failure messages. Suspicion is epoch-neutral: entering or
/// leaving `Suspected` changes no epoch, because the membership view has
/// not changed yet. The epoch is monotone; no transition ever lowers it.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    state: Vec<Health>,
    epoch: u64,
}

impl FailureDetector {
    /// All `workers` start alive, epoch 0.
    pub fn new(workers: usize) -> Self {
        FailureDetector {
            state: vec![Health::Healthy; workers],
            epoch: 0,
        }
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Grows the tracked worker set to `workers` (elastic scale-out): new
    /// slots enter Healthy. Growing never shrinks and never touches
    /// existing state; the membership-epoch bump for a join is recorded by
    /// the planner op, so the detector epoch moves with it.
    pub fn grow(&mut self, workers: usize) {
        assert!(workers >= self.state.len(), "the worker set never shrinks");
        if workers > self.state.len() {
            self.state.resize(workers, Health::Healthy);
            self.epoch += 1;
        }
    }

    /// Worker `w`'s membership state.
    pub fn health(&self, w: usize) -> Health {
        self.state.get(w).copied().unwrap_or(Health::Dead)
    }

    /// Whether worker `w` is still considered alive (Healthy or
    /// Suspected — in-flight work on a suspected node may yet complete).
    pub fn is_alive(&self, w: usize) -> bool {
        self.health(w) != Health::Dead
    }

    /// Whether worker `w` is in the suspect grace window.
    pub fn is_suspected(&self, w: usize) -> bool {
        self.health(w) == Health::Suspected
    }

    /// Moves a Healthy worker into the Suspected grace window. No epoch
    /// change. Returns true when the state actually changed (Dead workers
    /// stay dead, Suspected stays suspected).
    pub fn mark_suspected(&mut self, w: usize) -> bool {
        if self.state[w] == Health::Healthy {
            self.state[w] = Health::Suspected;
            true
        } else {
            false
        }
    }

    /// Clears a suspicion: the worker resumed within the grace window. No
    /// epoch change. Returns true when the state actually changed.
    pub fn reinstate(&mut self, w: usize) -> bool {
        if self.state[w] == Health::Suspected {
            self.state[w] = Health::Healthy;
            true
        } else {
            false
        }
    }

    /// Marks worker `w` dead and bumps the epoch; returns the new epoch.
    /// Idempotent: a second report of the same death changes nothing.
    pub fn mark_dead(&mut self, w: usize) -> u64 {
        if self.state[w] != Health::Dead {
            self.state[w] = Health::Dead;
            self.epoch += 1;
        }
        self.epoch
    }

    /// Re-admits a Dead worker under a new membership epoch; returns the
    /// new epoch. A rejoin of a merely-Suspected worker is a reinstate
    /// (epoch-neutral); rejoining a Healthy worker changes nothing.
    pub fn rejoin(&mut self, w: usize) -> u64 {
        match self.state[w] {
            Health::Dead => {
                self.state[w] = Health::Healthy;
                self.epoch += 1;
            }
            Health::Suspected => self.state[w] = Health::Healthy,
            Health::Healthy => {}
        }
        self.epoch
    }

    /// Number of workers still alive (Healthy or Suspected).
    pub fn healthy(&self) -> usize {
        self.state.iter().filter(|s| **s != Health::Dead).count()
    }
}

/// Computes the minimal set of *completed* DAG ancestors that must be
/// re-executed to reconstruct the array versions in `targets`.
///
/// Resolution per `(array, version)` pair: if `available` says the
/// controller can already produce those bytes (version 0 zeros, an archived
/// snapshot, or the live master copy) nothing is replayed; otherwise the
/// version's writer is consulted via `writer_of` — a completed writer joins
/// the replay set and its own input versions recurse, an incomplete writer
/// is skipped (it will be re-executed through normal dispatch after
/// reassignment, not replayed). A version with no writer and no
/// availability is unrecoverable and returned as `Err`.
///
/// The result is ascending DAG order, which is a valid topological order
/// (every ancestor precedes its descendants in submission order), so
/// executing it front to back reconstructs each input before its consumer.
pub fn replay_closure(
    targets: &[(ArrayId, u64)],
    mut writer_of: impl FnMut(ArrayId, u64) -> Option<(DagIndex, bool)>,
    mut needs_of: impl FnMut(DagIndex) -> Vec<(ArrayId, u64)>,
    mut available: impl FnMut(ArrayId, u64) -> bool,
) -> Result<Vec<DagIndex>, (ArrayId, u64)> {
    let mut out: BTreeSet<DagIndex> = BTreeSet::new();
    let mut seen: HashSet<(ArrayId, u64)> = HashSet::new();
    let mut stack: Vec<(ArrayId, u64)> = targets.to_vec();
    while let Some((a, v)) = stack.pop() {
        if !seen.insert((a, v)) || v == 0 || available(a, v) {
            continue;
        }
        match writer_of(a, v) {
            Some((w, completed)) => {
                if completed && out.insert(w) {
                    stack.extend(needs_of(w));
                }
            }
            None => return Err((a, v)),
        }
    }
    Ok(out.into_iter().collect())
}

/// A scheduling/recovery event recorded in [`crate::SchedTrace`].
///
/// Plans say where CEs *go*; events say what went *wrong* and how the
/// runtime recovered: every fault, retry, quarantine, replay and
/// reassignment decision, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedEvent {
    /// An injected or detected fault fired.
    Fault {
        /// CE in flight when the fault was attributed (the failing CE).
        at_ce: DagIndex,
        /// Worker involved, when one is (transfer faults have none).
        worker: Option<usize>,
        /// [`FaultKind::name`]-style label.
        kind: &'static str,
        /// Membership epoch after detection.
        epoch: u64,
    },
    /// A transient launch failure is being retried with backoff.
    Retry {
        /// The failing CE.
        at_ce: DagIndex,
        /// Worker the launch failed on.
        worker: usize,
        /// 1-based attempt number.
        attempt: u32,
        /// Backoff waited before this retry.
        backoff: SimDuration,
    },
    /// A node was quarantined: no policy will assign work to it again.
    Quarantine {
        /// The quarantined worker.
        worker: usize,
        /// The CE whose failure triggered the quarantine.
        at_ce: DagIndex,
        /// Arrays whose only up-to-date copy died with the node.
        lost: Vec<ArrayId>,
        /// Membership epoch of the quarantine.
        epoch: u64,
    },
    /// A completed ancestor CE was re-executed on the controller to
    /// reconstruct lost array versions.
    Replay {
        /// The replayed CE's DAG index.
        dag_index: DagIndex,
        /// Epoch of the recovery this replay belongs to.
        epoch: u64,
    },
    /// An in-flight CE was moved off a quarantined node.
    Reassign {
        /// The moved CE.
        dag_index: DagIndex,
        /// Quarantined worker it was assigned to.
        from: usize,
        /// Healthy worker it now targets.
        to: usize,
        /// Epoch of the recovery.
        epoch: u64,
    },
    /// A planned transfer was lost (injected) and will be re-driven.
    TransferDropped {
        /// CE whose movement was dropped.
        at_ce: DagIndex,
        /// The array that failed to arrive.
        array: ArrayId,
    },
    /// A planned transfer was delayed (injected, timing-only).
    TransferDelayed {
        /// CE whose movement was delayed.
        at_ce: DagIndex,
        /// The delayed array.
        array: ArrayId,
        /// Injected extra latency.
        delay: SimDuration,
    },
    /// The controller re-sent a CE's inputs after a timeout or recovery.
    TransferRedriven {
        /// The re-supplied CE.
        at_ce: DagIndex,
    },
    /// A worker thread failed to spawn at startup; the node starts
    /// quarantined instead of aborting the deployment.
    SpawnFailed {
        /// The worker that never came up.
        worker: usize,
    },
    /// A worker entered the suspect grace window (stale heartbeats or a
    /// severed connection under resume): no new CEs placed on it, no
    /// quarantine yet.
    Suspected {
        /// The suspected worker.
        worker: usize,
        /// Membership epoch (unchanged by suspicion).
        epoch: u64,
    },
    /// A suspected worker resumed within the grace window and is eligible
    /// for new work again.
    Reinstated {
        /// The reinstated worker.
        worker: usize,
        /// Membership epoch (unchanged).
        epoch: u64,
    },
    /// A previously-dead worker re-entered the cluster under a new
    /// membership epoch (its state treated as empty, links re-probed).
    Rejoined {
        /// The rejoined worker.
        worker: usize,
        /// The new membership epoch.
        epoch: u64,
    },
    /// A brand-new worker attached to the live controller (elastic
    /// scale-out): the worker set grew by one.
    Joined {
        /// Index the newcomer was assigned.
        worker: usize,
        /// The new membership epoch.
        epoch: u64,
    },
    /// A worker departed cleanly (elastic scale-in): its sole-copy arrays
    /// were rebalanced to the controller first, so nothing was lost and
    /// nothing was quarantined.
    Departed {
        /// The departed worker.
        worker: usize,
        /// Arrays whose authoritative copy moved to the controller.
        rebalanced: usize,
        /// The new membership epoch.
        epoch: u64,
    },
}

impl SchedEvent {
    /// The one name of every event kind, indexed by [`SchedEvent::index`]:
    /// the Chrome instant name and the `kind` label of
    /// `grout_sched_events_total` both read it.
    pub const NAMES: [&'static str; 14] = [
        "fault",
        "retry",
        "quarantine",
        "replay",
        "reassign",
        "transfer_dropped",
        "transfer_delayed",
        "transfer_redriven",
        "spawn_failed",
        "suspected",
        "reinstated",
        "rejoined",
        "joined",
        "departed",
    ];

    /// This event's kind as a position in [`SchedEvent::NAMES`].
    pub fn index(&self) -> usize {
        match self {
            SchedEvent::Fault { .. } => 0,
            SchedEvent::Retry { .. } => 1,
            SchedEvent::Quarantine { .. } => 2,
            SchedEvent::Replay { .. } => 3,
            SchedEvent::Reassign { .. } => 4,
            SchedEvent::TransferDropped { .. } => 5,
            SchedEvent::TransferDelayed { .. } => 6,
            SchedEvent::TransferRedriven { .. } => 7,
            SchedEvent::SpawnFailed { .. } => 8,
            SchedEvent::Suspected { .. } => 9,
            SchedEvent::Reinstated { .. } => 10,
            SchedEvent::Rejoined { .. } => 11,
            SchedEvent::Joined { .. } => 12,
            SchedEvent::Departed { .. } => 13,
        }
    }

    /// This event's kind name.
    pub fn name(&self) -> &'static str {
        SchedEvent::NAMES[self.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_queries_match_events() {
        let plan = FaultPlan::with_events(vec![
            FaultEvent {
                at_ce: 3,
                kind: FaultKind::KillWorker,
            },
            FaultEvent {
                at_ce: 5,
                kind: FaultKind::FailLaunch { times: 2 },
            },
            FaultEvent {
                at_ce: 7,
                kind: FaultKind::DropTransfer,
            },
            FaultEvent {
                at_ce: 9,
                kind: FaultKind::DelayTransfer {
                    delay: SimDuration::from_millis(5),
                },
            },
        ]);
        assert!(plan.kill_at(3) && !plan.kill_at(4));
        assert_eq!(plan.fail_launch_at(5), Some(2));
        assert_eq!(plan.fail_launch_at(3), None);
        assert!(plan.drop_at(7));
        assert_eq!(plan.delay_at(9), Some(SimDuration::from_millis(5)));
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let ces: Vec<DagIndex> = (0..32).collect();
        assert_eq!(
            FaultPlan::seeded(7, &ces, 0.3),
            FaultPlan::seeded(7, &ces, 0.3)
        );
        assert_ne!(
            FaultPlan::seeded(7, &ces, 1.0),
            FaultPlan::seeded(8, &ces, 1.0)
        );
        assert_eq!(FaultPlan::one_death(1, &ces), FaultPlan::one_death(1, &ces));
        assert_eq!(FaultPlan::one_death(1, &ces).events().len(), 1);
    }

    #[test]
    fn detector_epochs_count_failures_once() {
        let mut d = FailureDetector::new(3);
        assert_eq!(d.epoch(), 0);
        assert_eq!(d.healthy(), 3);
        assert_eq!(d.mark_dead(1), 1);
        assert_eq!(d.mark_dead(1), 1, "idempotent");
        assert_eq!(d.mark_dead(2), 2);
        assert!(d.is_alive(0) && !d.is_alive(1));
        assert_eq!(d.healthy(), 1);
    }

    #[test]
    fn suspicion_is_epoch_neutral_and_reversible() {
        let mut d = FailureDetector::new(2);
        assert!(d.mark_suspected(0));
        assert!(!d.mark_suspected(0), "already suspected");
        assert_eq!(d.epoch(), 0, "suspicion bumps no epoch");
        assert!(d.is_alive(0) && d.is_suspected(0));
        assert_eq!(d.healthy(), 2, "suspected still counts as alive");
        assert!(d.reinstate(0));
        assert!(!d.is_suspected(0) && d.is_alive(0));
        assert_eq!(d.epoch(), 0);
        assert!(!d.reinstate(1), "healthy worker has nothing to clear");
    }

    #[test]
    fn rejoin_bumps_epoch_only_from_dead() {
        let mut d = FailureDetector::new(2);
        d.mark_suspected(1);
        assert_eq!(d.rejoin(1), 0, "suspected rejoin is a reinstate");
        assert_eq!(d.mark_dead(1), 1);
        assert_eq!(d.rejoin(1), 2, "dead rejoin opens a new epoch");
        assert!(d.is_alive(1) && !d.is_suspected(1));
        assert_eq!(d.rejoin(1), 2, "healthy rejoin is a no-op");
        assert_eq!(d.health(1), Health::Healthy);
        assert_eq!(d.health(7), Health::Dead, "unknown index is dead");
    }

    #[test]
    fn net_fault_plans_are_reproducible_and_queryable() {
        assert_eq!(
            NetFaultPlan::seeded(5, &[64; 3], 0.1),
            NetFaultPlan::seeded(5, &[64; 3], 0.1)
        );
        assert_ne!(
            NetFaultPlan::seeded(5, &[64; 3], 1.0),
            NetFaultPlan::seeded(6, &[64; 3], 1.0)
        );
        // Each peer draws only over its own frame range.
        let plan = NetFaultPlan::seeded(5, &[3, 0], 1.0);
        assert_eq!(plan.events().len(), 3);
        assert!(plan.events().iter().all(|e| e.peer == 0 && e.at_frame < 3));
        let plan = NetFaultPlan::sever_at(1, 12);
        assert!(plan.at(1, 12).any(|k| matches!(k, NetFaultKind::Sever)));
        assert_eq!(plan.at(0, 12).count(), 0);
        assert_eq!(plan.at(1, 11).count(), 0);
        assert!(NetFaultPlan::none().is_empty());
        assert_eq!(NetFaultKind::Sever.name(), "sever");
    }

    #[test]
    fn replay_closure_walks_lineage_to_availability() {
        // Versions a@1 <- ce0, a@2 <- ce2 (needs a@1), a@3 <- ce4 (needs
        // a@2). a@1 is archived; target a@3 must replay {ce2, ce4} only.
        let a = ArrayId(0);
        let writers = move |_arr: ArrayId, v: u64| match v {
            1 => Some((0usize, true)),
            2 => Some((2usize, true)),
            3 => Some((4usize, true)),
            _ => None,
        };
        let needs = move |w: DagIndex| match w {
            0 => vec![],
            2 => vec![(a, 1)],
            4 => vec![(a, 2)],
            _ => unreachable!(),
        };
        let order = replay_closure(&[(a, 3)], writers, needs, |_, v| v == 1).unwrap();
        assert_eq!(order, vec![2, 4], "ascending DAG order, ce0 not needed");
    }

    #[test]
    fn replay_closure_skips_incomplete_writers() {
        let a = ArrayId(0);
        // a@2's writer is in flight (will be re-dispatched, not replayed);
        // its input a@1 is not pulled in through it.
        let order = replay_closure(
            &[(a, 2)],
            |_, v| match v {
                1 => Some((0, true)),
                2 => Some((1, false)),
                _ => None,
            },
            |_| vec![(a, 1)],
            |_, _| false,
        )
        .unwrap();
        assert!(order.is_empty());
    }

    #[test]
    fn replay_closure_reports_unrecoverable_versions() {
        let a = ArrayId(7);
        let err = replay_closure(&[(a, 5)], |_, _| None, |_| vec![], |_, _| false).unwrap_err();
        assert_eq!(err, (a, 5));
    }

    #[test]
    fn version_zero_is_always_available() {
        let a = ArrayId(0);
        let order = replay_closure(&[(a, 0)], |_, _| None, |_| vec![], |_, _| false).unwrap();
        assert!(order.is_empty(), "zeros are reconstructible from the shape");
    }
}
