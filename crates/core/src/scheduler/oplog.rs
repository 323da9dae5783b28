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
//!
//! Replicas are compared by two digests. [`Planner::op_digest`] is a
//! rolling hash over every applied op and its outcome (`fold_op`): O(op)
//! to keep, so every sink gets it with every op and a standby acks each
//! op with it. [`Planner::state_digest`] dumps the whole structure: it
//! runs once when the log closes ([`OpSink::close`]), for the journal
//! footer, and wherever a test or tool compares structure.

use std::fmt;

use crate::ce::{ArrayId, Ce, CeKind};
use crate::dag::DagIndex;
use crate::policy::LinkMatrix;
use crate::scheduler::{Movement, MovementKind, Plan, PlanError, Planner, Recovery};
use crate::telemetry::Telemetry;
use uvm_sim::{AccessMode, AccessPattern, MemAdvise};

/// One serializable mutation of [`Planner`] state. The op records the
/// *input* of the mutation, never derived results: applying it re-derives
/// the plan/recovery deterministically, which is what makes replicas
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannerOp {
    /// Register a new framework-managed array (`Planner::alloc`).
    Alloc {
        /// Whole-array size.
        bytes: u64,
    },
    /// Forget an array (`Planner::free`).
    Free {
        /// The array to forget.
        array: ArrayId,
    },
    /// Algorithm 1 for one CE: DAG append, node assignment, movement
    /// planning, eager coherence update (`Planner::plan_ce`).
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
    /// (`Planner::recover`).
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
/// `digest` is [`Planner::op_digest`] *after* the op was applied: O(1) to
/// hand out, and equal on two replicas exactly when both took the same
/// decision at every op so far. It is `None` for ops replayed during sink
/// catch-up (their historical digests are gone).
pub trait OpSink: Send {
    /// One appended op. `seq` is its position in the log.
    fn append(&mut self, seq: u64, op: &PlannerOp, digest: Option<u64>);

    /// The log is closing (its [`LoggedPlanner`] is dropped) and `planner`
    /// is the final state. The one place a sink may pay for
    /// [`Planner::state_digest`]: the journal's footer is written here.
    fn close(&mut self, _planner: &Planner) {}
}

/// The single ordered operation log in front of a [`Planner`].
///
/// Every mutation goes through [`LoggedPlanner::append`] (or the typed
/// wrappers mirroring the old mutator names): the op is recorded first
/// (write-ahead, so failing ops are journaled too), applied, then fanned
/// out to the registered sinks with the planner's [`Planner::op_digest`]
/// after it — O(1) per sink, whatever the session length. Dropping the
/// `LoggedPlanner` closes the log: every sink's [`OpSink::close`] sees the
/// final state. Read-only queries pass through via `Deref`.
pub struct LoggedPlanner {
    planner: Planner,
    ops: Vec<PlannerOp>,
    sinks: Vec<Box<dyn OpSink>>,
}

impl LoggedPlanner {
    /// Wraps a freshly constructed planner (an empty log).
    pub fn new(planner: Planner) -> Self {
        LoggedPlanner {
            planner,
            ops: Vec::new(),
            sinks: Vec::new(),
        }
    }

    /// Appends `op` to the log, applies it and fans it out to the sinks.
    pub fn append(&mut self, op: PlannerOp) -> Result<PlannerResp, PlanError> {
        let seq = self.ops.len() as u64;
        self.ops.push(op);
        let op = self.ops.last().expect("just pushed");
        let resp = self.planner.apply(op);
        let digest = self.planner.op_digest();
        for sink in &mut self.sinks {
            sink.append(seq, op, Some(digest));
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

    /// Logged `Planner::alloc`.
    pub fn alloc(&mut self, bytes: u64) -> ArrayId {
        match self.append(PlannerOp::Alloc { bytes }) {
            Ok(PlannerResp::Array(id)) => id,
            other => unreachable!("alloc is infallible: {other:?}"),
        }
    }

    /// Logged `Planner::free`.
    pub fn free(&mut self, array: ArrayId) {
        let _ = self.append(PlannerOp::Free { array });
    }

    /// Logged `Planner::plan_ce`.
    pub fn plan_ce(&mut self, ce: &Ce) -> Result<Plan, PlanError> {
        match self.append(PlannerOp::PlanCe { ce: ce.clone() })? {
            PlannerResp::Plan(plan) => Ok(plan),
            other => unreachable!("plan-ce yields a plan: {other:?}"),
        }
    }

    /// Logged `Planner::mark_completed`.
    pub fn mark_completed(&mut self, dag_index: DagIndex) {
        let _ = self.append(PlannerOp::MarkCompleted { dag_index });
    }

    /// Logged `Planner::quarantine`.
    pub fn quarantine(&mut self, worker: usize) -> Result<(), PlanError> {
        self.append(PlannerOp::Quarantine { worker }).map(|_| ())
    }

    /// Logged `Planner::recover`.
    pub fn recover(&mut self, dead: usize, incomplete: &[DagIndex]) -> Result<Recovery, PlanError> {
        match self.append(PlannerOp::Recover {
            dead,
            incomplete: incomplete.to_vec(),
        })? {
            PlannerResp::Recovery(rec) => Ok(rec),
            other => unreachable!("recover yields a recovery: {other:?}"),
        }
    }

    /// Logged `Planner::suspect`.
    pub fn suspect(&mut self, worker: usize) {
        let _ = self.append(PlannerOp::Suspect { worker });
    }

    /// Logged `Planner::reinstate`.
    pub fn reinstate(&mut self, worker: usize) {
        let _ = self.append(PlannerOp::Reinstate { worker });
    }

    /// Logged `Planner::rejoin`.
    pub fn rejoin(&mut self, worker: usize) {
        let _ = self.append(PlannerOp::Rejoin { worker });
    }

    /// Logged `Planner::join`.
    pub fn join(&mut self, worker: usize) {
        let _ = self.append(PlannerOp::Join { worker });
    }

    /// Logged `Planner::leave`.
    pub fn leave(&mut self, worker: usize) -> Result<(), PlanError> {
        self.append(PlannerOp::Leave { worker }).map(|_| ())
    }

    /// Logged `Planner::reprobe_links`.
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

/// Closing the log hands every sink the final state ([`OpSink::close`]).
impl Drop for LoggedPlanner {
    fn drop(&mut self) {
        for sink in &mut self.sinks {
            sink.close(&self.planner);
        }
    }
}

impl fmt::Debug for LoggedPlanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoggedPlanner")
            .field("planner", &self.planner)
            .field("ops", &self.ops.len())
            .field("sinks", &self.sinks.len())
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

/// [`Planner::op_digest`] before the first op (the FNV-1a offset basis).
pub(crate) const OP_DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One step of the rolling op digest: `d` with `op` and its outcome folded
/// in. The inputs are the canonical fields of the op and of its
/// [`PlannerResp`] or error kind, one word each (floats as bits, strings
/// as length-prefixed 8-byte words, sequences length-prefixed; an
/// argument's three small enums share one word, as do the outcome's
/// `Ok`/`Err` and variant tags). The planner's construction config and
/// link matrix are not inputs; a [`PlannerOp::ReprobeLinks`] is. Costs
/// O(op + outcome) and allocates nothing, so a fold costs the same at op
/// 10 as at op 10⁶.
pub(crate) fn fold_op(d: u64, op: &PlannerOp, outcome: &Result<PlannerResp, PlanError>) -> u64 {
    let mut m = Mix(d, 0x9e37_79b9_7f4a_7c15);
    m.op(op);
    match outcome {
        Ok(resp) => m.resp(resp),
        Err(e) => m.error(e),
    }
    m.0.rotate_left(32) ^ m.1
}

/// The running value of [`fold_op`]: two lanes that take alternate words,
/// so consecutive multiplies do not wait on each other. `d` enters the
/// first lane, the second starts from a constant.
struct Mix(u64, u64);

impl Mix {
    /// FxHash's step on the lane whose turn it is. For a fixed word it is
    /// a bijection of that lane, and the closing `rotate ^` is a bijection
    /// of each lane given the other, so two streams of the same shape that
    /// differ in exactly one word (or in the incoming `d`) end apart.
    fn word(&mut self, w: u64) {
        let next = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        self.0 = self.1;
        self.1 = next;
    }

    fn usize(&mut self, w: usize) {
        self.word(w as u64);
    }

    fn len<T>(&mut self, items: &[T]) {
        self.usize(items.len());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.len(b);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn op(&mut self, op: &PlannerOp) {
        match op {
            PlannerOp::Alloc { bytes } => {
                self.word(0);
                self.word(*bytes);
            }
            PlannerOp::Free { array } => {
                self.word(1);
                self.word(array.0);
            }
            PlannerOp::PlanCe { ce } => {
                self.word(2);
                self.ce(ce);
            }
            PlannerOp::MarkCompleted { dag_index } => {
                self.word(3);
                self.usize(*dag_index);
            }
            PlannerOp::Quarantine { worker } => {
                self.word(4);
                self.usize(*worker);
            }
            PlannerOp::Recover { dead, incomplete } => {
                self.word(5);
                self.usize(*dead);
                self.len(incomplete);
                incomplete.iter().for_each(|&i| self.usize(i));
            }
            PlannerOp::ReprobeLinks { links } => {
                self.word(6);
                let n = links.endpoints();
                self.usize(n);
                for src in 0..n {
                    for dst in 0..n {
                        self.word(links.raw(src, dst).to_bits());
                    }
                }
            }
            PlannerOp::Suspect { worker } => {
                self.word(7);
                self.usize(*worker);
            }
            PlannerOp::Reinstate { worker } => {
                self.word(8);
                self.usize(*worker);
            }
            PlannerOp::Rejoin { worker } => {
                self.word(9);
                self.usize(*worker);
            }
            PlannerOp::Join { worker } => {
                self.word(10);
                self.usize(*worker);
            }
            PlannerOp::Leave { worker } => {
                self.word(11);
                self.usize(*worker);
            }
        }
    }

    fn ce(&mut self, ce: &Ce) {
        self.word(ce.id.0);
        match &ce.kind {
            CeKind::Kernel { name, cost } => {
                self.word(0);
                self.bytes(name.as_bytes());
                self.word(cost.flops.to_bits());
                self.word(cost.bytes_read);
                self.word(cost.bytes_written);
            }
            CeKind::HostRead => self.word(1),
            CeKind::HostWrite => self.word(2),
        }
        self.len(&ce.args);
        for a in &ce.args {
            self.word(a.array.0);
            self.word(a.bytes);
            self.word(a.alloc_bytes);
            let mode = match a.mode {
                AccessMode::Read => 0,
                AccessMode::Write => 1,
                AccessMode::ReadWrite => 2,
            };
            let (pattern, x) = match a.pattern {
                AccessPattern::Streamed { sweeps } => (0, sweeps),
                AccessPattern::Gather { touches_per_page } => (1, touches_per_page),
                AccessPattern::Strided { touches_per_page } => (2, touches_per_page),
            };
            let advise = match a.advise {
                MemAdvise::None => 0,
                MemAdvise::ReadMostly => 1,
                MemAdvise::PreferredHost => 2,
            };
            self.word(mode | pattern << 8 | advise << 16);
            self.word(x.to_bits());
        }
    }

    fn resp(&mut self, resp: &PlannerResp) {
        match resp {
            PlannerResp::Array(id) => {
                self.word(0);
                self.word(id.0);
            }
            PlannerResp::Plan(plan) => {
                self.word(1);
                self.plan(plan);
            }
            PlannerResp::Recovery(rec) => {
                self.word(2);
                self.usize(rec.dead);
                self.usize(rec.healthy);
                for arrays in [&rec.affected, &rec.lost] {
                    self.len(arrays);
                    arrays.iter().for_each(|a| self.word(a.0));
                }
                self.len(&rec.reassigned);
                for r in &rec.reassigned {
                    self.usize(r.dag_index);
                    self.usize(r.to.0);
                    self.movements(&r.movements);
                }
            }
            PlannerResp::Unit => self.word(3),
        }
    }

    fn plan(&mut self, plan: &Plan) {
        self.usize(plan.dag_index);
        self.len(&plan.deps);
        plan.deps.iter().for_each(|&d| self.usize(d));
        self.usize(plan.assigned_node.0);
        self.movements(&plan.movements);
        match &plan.placement {
            None => self.word(0),
            Some(p) => {
                self.word(1);
                self.usize(p.device.0);
                self.usize(p.stream.0);
                self.word(p.reused_parent_stream as u64);
            }
        }
    }

    fn movements(&mut self, movements: &[Movement]) {
        self.len(movements);
        for m in movements {
            self.word(m.array.0);
            self.usize(m.from.0);
            self.usize(m.to.0);
            self.word(m.bytes);
            self.word(match m.kind {
                MovementKind::ControllerSend => 0,
                MovementKind::P2p => 1,
                MovementKind::Staged => 2,
            });
        }
    }

    /// Tags 4–6: after [`Mix::resp`]'s, so an error never folds like a
    /// response.
    fn error(&mut self, e: &PlanError) {
        match e {
            PlanError::UseAfterFree(a) => {
                self.word(4);
                self.word(a.0);
            }
            PlanError::NoHealthyWorkers => self.word(5),
            PlanError::InvalidConfig(why) => {
                self.word(6);
                self.bytes(why.as_bytes());
            }
        }
    }
}
