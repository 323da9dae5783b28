//! The planner operation log: every [`Planner`] mutation as data.
//!
//! This is the node-replication pattern applied to the Controller: the
//! planner is a deterministic single-threaded state machine, so expressing
//! each of its mutations as a serializable [`PlannerOp`] and funnelling
//! them through one ordered log ([`LoggedPlanner`]) gives three things at
//! once:
//!
//! 1. **Replicas.** Any process that applies the same op sequence to an
//!    identically constructed [`Planner`] reaches bit-identical state —
//!    the hot-standby controller tails the log over the wire and is ready
//!    to take over the moment the primary dies.
//! 2. **Crash recovery.** Streaming the ops to disk (`grout-run
//!    --journal`) yields a write-ahead journal; `grout-replay`
//!    reconstructs the final planner state from it exactly.
//! 3. **Record/replay debugging.** The journal doubles as a deterministic
//!    repro artifact: replay stops at any index and the intermediate
//!    state is inspectable.
//!
//! Ops are logged *before* they are applied and even failing ops stay in
//! the log. Replay re-applies them: a failure is as deterministic as a
//! success, so it returns the same error and leaves the same state. A
//! failing `PlanCe` ([`PlanError::UseAfterFree`]) leaves it untouched — the
//! CE is rejected before it takes a DAG index.

use std::fmt;

use crate::ce::{ArrayId, Ce};
use crate::dag::DagIndex;
use crate::policy::LinkMatrix;
use crate::scheduler::{Plan, PlanError, Planner, Recovery};
use crate::telemetry::Telemetry;

/// One serializable mutation of [`Planner`] state. The op records the
/// *input* of the mutation, never derived results: applying it re-derives
/// the plan/recovery deterministically, which is what makes replicas
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannerOp {
    /// Register a new framework-managed array ([`Planner::alloc`]).
    Alloc {
        /// Whole-array size.
        bytes: u64,
    },
    /// Forget an array ([`Planner::free`]).
    Free {
        /// The array to forget.
        array: ArrayId,
    },
    /// Algorithm 1 for one CE: DAG append, node assignment, movement
    /// planning, eager coherence update ([`Planner::plan_ce`]).
    PlanCe {
        /// The submitted CE.
        ce: Ce,
    },
    /// Mark a CE completed in the Global DAG.
    MarkCompleted {
        /// The completed CE.
        dag_index: DagIndex,
    },
    /// Quarantine a worker without replanning (spawn failure).
    Quarantine {
        /// The worker that never came up.
        worker: usize,
    },
    /// Quarantine a dead worker and replan its in-flight CEs
    /// ([`Planner::recover`]).
    Recover {
        /// The dead worker.
        dead: usize,
        /// In-flight DAG indices at the time of death.
        incomplete: Vec<DagIndex>,
    },
    /// Replace the probed interconnection matrix (link degradation /
    /// reconfiguration).
    ReprobeLinks {
        /// The fresh matrix.
        links: LinkMatrix,
    },
    /// Enter the suspect grace window: stop placing *new* CEs on the
    /// worker without quarantining it (omission fault under resume).
    Suspect {
        /// The suspected worker.
        worker: usize,
    },
    /// Leave the suspect grace window: the worker resumed in time and is
    /// eligible for new CEs again.
    Reinstate {
        /// The reinstated worker.
        worker: usize,
    },
    /// Re-admit a quarantined worker under a new membership epoch. Its
    /// coherence-directory entries were purged at quarantine, so the node
    /// re-enters empty; links are re-probed separately via
    /// [`PlannerOp::ReprobeLinks`].
    Rejoin {
        /// The returning worker.
        worker: usize,
    },
    /// Grow the worker set: a new worker attached to the live controller
    /// (elastic scale-out). `worker` is the index the newcomer takes —
    /// always the current count, recorded so replay needs no context. The
    /// node enters empty and immediately eligible for new CE placement;
    /// links are re-probed separately via [`PlannerOp::ReprobeLinks`].
    Join {
        /// Index the joining worker takes (== the pre-join worker count).
        worker: usize,
    },
    /// A clean elastic departure: the worker's directory entries are
    /// rebalanced to the controller (the runtime fetched every sole copy
    /// before committing this op), the node is excluded from future
    /// placement, and — unlike [`PlannerOp::Quarantine`] — nothing is
    /// lost, so no lineage replay and no quarantine mark.
    Leave {
        /// The departing worker.
        worker: usize,
    },
}

impl PlannerOp {
    /// Short kind label (journals, divergence reports).
    pub fn kind(&self) -> &'static str {
        match self {
            PlannerOp::Alloc { .. } => "alloc",
            PlannerOp::Free { .. } => "free",
            PlannerOp::PlanCe { .. } => "plan-ce",
            PlannerOp::MarkCompleted { .. } => "mark-completed",
            PlannerOp::Quarantine { .. } => "quarantine",
            PlannerOp::Recover { .. } => "recover",
            PlannerOp::ReprobeLinks { .. } => "reprobe-links",
            PlannerOp::Suspect { .. } => "suspect",
            PlannerOp::Reinstate { .. } => "reinstate",
            PlannerOp::Rejoin { .. } => "rejoin",
            PlannerOp::Join { .. } => "join",
            PlannerOp::Leave { .. } => "leave",
        }
    }
}

/// What applying a [`PlannerOp`] returns.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannerResp {
    /// The id of a freshly registered array ([`PlannerOp::Alloc`]).
    Array(ArrayId),
    /// The pure decision record for a planned CE ([`PlannerOp::PlanCe`]).
    Plan(Plan),
    /// The outcome of quarantining a dead node ([`PlannerOp::Recover`]).
    Recovery(Recovery),
    /// Nothing to report (free / mark-completed / quarantine / reprobe).
    Unit,
}

/// A destination for appended ops: the disk journal, the standby
/// log-shipping socket, or anything else that tails the log.
///
/// `digest` is the planner state digest *after* the op was applied; it is
/// only computed (it walks the full state) when [`OpSink::wants_digest`]
/// returns true for some registered sink, and is `None` for ops replayed
/// during sink catch-up (their historical digests are gone).
pub trait OpSink: Send {
    /// Whether this sink needs the post-apply state digest per op.
    fn wants_digest(&self) -> bool {
        false
    }

    /// One appended op. `seq` is its position in the log.
    fn append(&mut self, seq: u64, op: &PlannerOp, digest: Option<u64>);
}

/// The single ordered operation log in front of a [`Planner`].
///
/// Every mutation goes through [`LoggedPlanner::append`] (or the typed
/// wrappers mirroring the old mutator names): the op is recorded first
/// (write-ahead, so failing ops are journaled too), fanned out to the
/// registered sinks, then applied. Read-only queries pass through via
/// `Deref`.
pub struct LoggedPlanner {
    planner: Planner,
    ops: Vec<PlannerOp>,
    sinks: Vec<Box<dyn OpSink>>,
    /// Expected op prefix (standby takeover re-drive): each appended op
    /// must equal the shipped op at the same index, proving the re-driven
    /// run walks exactly the primary's footsteps.
    expected: Vec<PlannerOp>,
}

impl LoggedPlanner {
    /// Wraps a freshly constructed planner (an empty log).
    pub fn new(planner: Planner) -> Self {
        LoggedPlanner {
            planner,
            ops: Vec::new(),
            sinks: Vec::new(),
            expected: Vec::new(),
        }
    }

    /// Appends `op` to the log, fans it out to the sinks and applies it.
    pub fn append(&mut self, op: PlannerOp) -> Result<PlannerResp, PlanError> {
        let seq = self.ops.len() as u64;
        if let Some(want) = self.expected.get(seq as usize) {
            assert_eq!(
                *want, op,
                "op log diverged from the replicated prefix at index {seq}"
            );
        }
        self.ops.push(op);
        let op = self.ops.last().expect("just pushed");
        let resp = self.planner.apply(op);
        if !self.sinks.is_empty() {
            let digest = self
                .sinks
                .iter()
                .any(|s| s.wants_digest())
                .then(|| self.planner.state_digest());
            for sink in &mut self.sinks {
                sink.append(seq, op, digest);
            }
        }
        resp
    }

    /// Registers a sink, first streaming it every op already in the log
    /// (catch-up, without historical digests) so late-attached journals
    /// and standbys still see the full history.
    pub fn add_sink(&mut self, mut sink: Box<dyn OpSink>) {
        for (seq, op) in self.ops.iter().enumerate() {
            sink.append(seq as u64, op, None);
        }
        self.sinks.push(sink);
    }

    /// Installs the expected op prefix for a takeover re-drive: appends
    /// at indices covered by `ops` panic unless they match bit-for-bit.
    pub fn expect_prefix(&mut self, ops: Vec<PlannerOp>) {
        self.expected = ops;
    }

    /// Every op appended so far, in order.
    pub fn ops(&self) -> &[PlannerOp] {
        &self.ops
    }

    /// Attaches a telemetry recorder (not a state mutation: telemetry is
    /// deliberately outside the replicated state and the log).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.planner.set_telemetry(telemetry);
    }

    // Typed wrappers mirroring the old mutator names, so runtime call
    // sites read exactly as before while every mutation still goes
    // through the ordered log.

    /// Logged [`Planner::alloc`].
    pub fn alloc(&mut self, bytes: u64) -> ArrayId {
        match self.append(PlannerOp::Alloc { bytes }) {
            Ok(PlannerResp::Array(id)) => id,
            other => unreachable!("alloc is infallible: {other:?}"),
        }
    }

    /// Logged [`Planner::free`].
    pub fn free(&mut self, array: ArrayId) {
        let _ = self.append(PlannerOp::Free { array });
    }

    /// Logged [`Planner::plan_ce`].
    pub fn plan_ce(&mut self, ce: &Ce) -> Result<Plan, PlanError> {
        match self.append(PlannerOp::PlanCe { ce: ce.clone() })? {
            PlannerResp::Plan(plan) => Ok(plan),
            other => unreachable!("plan-ce yields a plan: {other:?}"),
        }
    }

    /// Logged [`Planner::mark_completed`].
    pub fn mark_completed(&mut self, dag_index: DagIndex) {
        let _ = self.append(PlannerOp::MarkCompleted { dag_index });
    }

    /// Logged [`Planner::quarantine`].
    pub fn quarantine(&mut self, worker: usize) -> Result<(), PlanError> {
        self.append(PlannerOp::Quarantine { worker }).map(|_| ())
    }

    /// Logged [`Planner::recover`].
    pub fn recover(&mut self, dead: usize, incomplete: &[DagIndex]) -> Result<Recovery, PlanError> {
        match self.append(PlannerOp::Recover {
            dead,
            incomplete: incomplete.to_vec(),
        })? {
            PlannerResp::Recovery(rec) => Ok(rec),
            other => unreachable!("recover yields a recovery: {other:?}"),
        }
    }

    /// Logged [`Planner::suspect`].
    pub fn suspect(&mut self, worker: usize) {
        let _ = self.append(PlannerOp::Suspect { worker });
    }

    /// Logged [`Planner::reinstate`].
    pub fn reinstate(&mut self, worker: usize) {
        let _ = self.append(PlannerOp::Reinstate { worker });
    }

    /// Logged [`Planner::rejoin`].
    pub fn rejoin(&mut self, worker: usize) {
        let _ = self.append(PlannerOp::Rejoin { worker });
    }

    /// Logged [`Planner::join`].
    pub fn join(&mut self, worker: usize) {
        let _ = self.append(PlannerOp::Join { worker });
    }

    /// Logged [`Planner::leave`].
    pub fn leave(&mut self, worker: usize) -> Result<(), PlanError> {
        self.append(PlannerOp::Leave { worker }).map(|_| ())
    }

    /// Logged [`Planner::reprobe_links`].
    pub fn reprobe_links(&mut self, links: LinkMatrix) {
        let _ = self.append(PlannerOp::ReprobeLinks { links });
    }
}

impl std::ops::Deref for LoggedPlanner {
    type Target = Planner;

    fn deref(&self) -> &Planner {
        &self.planner
    }
}

impl fmt::Debug for LoggedPlanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoggedPlanner")
            .field("planner", &self.planner)
            .field("ops", &self.ops.len())
            .field("sinks", &self.sinks.len())
            .field("expected", &self.expected.len())
            .finish()
    }
}

/// Replays an op sequence onto a fresh planner (journal recovery, tests).
/// Failing ops are re-applied and fail again the same way — the failure is
/// part of the recorded history (see the module docs on write-ahead
/// ordering); their errors are returned in place, not raised.
pub fn replay_ops<'a>(
    planner: &mut Planner,
    ops: impl IntoIterator<Item = &'a PlannerOp>,
) -> Vec<Result<PlannerResp, PlanError>> {
    ops.into_iter().map(|op| planner.apply(op)).collect()
}

/// First index where two op logs diverge: `Some(i)` when `a[i] != b[i]`
/// or exactly one log has an index `i`; `None` when equal.
pub fn first_divergence(a: &[PlannerOp], b: &[PlannerOp]) -> Option<usize> {
    let shared = a.len().min(b.len());
    (0..shared)
        .find(|&i| a[i] != b[i])
        .or((a.len() != b.len()).then_some(shared))
}
