//! The backend-agnostic scheduling core (paper Algorithm 1).
//!
//! [`Planner`] owns the three pieces of Controller state that every GrOUT
//! deployment shares — the Global [`DepDag`], the [`Coherence`] directory
//! and the inter-node [`NodeScheduler`] — and is a pure state machine: the
//! only mutation entry point is [`Planner::apply`], which consumes one
//! serializable [`PlannerOp`] (submit a CE, mark completion, quarantine,
//! recover, …) and returns the derived decision, with no knowledge of
//! virtual time or threads. Everything else on `Planner` is a read-only
//! query. Runtimes never call `apply` directly: they mutate through
//! [`LoggedPlanner`], which records every op in a single ordered log (the
//! crash-recovery journal and the standby-replication feed tap it through
//! [`OpSink`]).
//!
//! Both runtimes consume plans instead of re-implementing the algorithm:
//! [`crate::SimRuntime`] *prices* each plan in virtual time over the
//! modeled network, [`crate::LocalRuntime`] *executes* it over crossbeam
//! channels. The ablation knobs the paper toggles (peer-to-peer transfers,
//! flat vs hierarchical scheduling, controller colocation) live here in
//! [`PlannerConfig`] so both backends answer to the same switches.
//!
//! [`SchedTrace`] is the observer hook: a bounded ring buffer of emitted
//! plans plus an optional callback, fed by both runtimes.

mod oplog;
mod plan;

pub use oplog::{first_divergence, replay_ops, LoggedPlanner, OpSink, PlannerOp, PlannerResp};
pub use plan::{Movement, MovementKind, Plan, PlanError};

use std::collections::{HashMap, VecDeque};

use crate::ce::{ArrayId, Ce};
use crate::coherence::{Coherence, Location};
use crate::dag::{DagIndex, DepDag};
use crate::faults::{FaultConfig, FaultPlan, SchedEvent};
use crate::policy::{LinkMatrix, NodeScheduler, PolicyKind};
use crate::telemetry::{ArgValue, Telemetry};

/// Scheduling knobs shared by every backend.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Number of worker nodes.
    pub workers: usize,
    /// Inter-node policy.
    pub policy: PolicyKind,
    /// Peer-to-peer transfers between workers (paper Algorithm 1 bottom).
    /// When disabled (ablation), worker-to-worker movements are staged
    /// through the controller: worker -> controller -> worker.
    pub p2p_enabled: bool,
    /// Ablation of the hierarchical scheduler (Section IV-C): when true the
    /// Controller also tracks every GPU/stream on every node, so its per-CE
    /// decision cost scales with the total stream count instead of being
    /// delegated to the workers. (A costing knob: consumed by executors.)
    pub flat_scheduling: bool,
    /// Controller colocated with worker 0 (the GrCUDA single-node setup):
    /// controller<->worker-0 movements are free (same host memory). (A
    /// costing knob: consumed by executors.)
    pub controller_colocated: bool,
    /// Deterministic injected faults, honored identically by both backends.
    pub faults: FaultPlan,
    /// Detection and recovery knobs (retries, backoff, timeouts).
    pub fault_cfg: FaultConfig,
}

impl PlannerConfig {
    /// The paper's defaults: P2P on, hierarchical scheduling, dedicated
    /// controller.
    pub fn new(workers: usize, policy: PolicyKind) -> Self {
        PlannerConfig {
            workers,
            policy,
            p2p_enabled: true,
            flat_scheduling: false,
            controller_colocated: false,
            faults: FaultPlan::none(),
            fault_cfg: FaultConfig::default(),
        }
    }
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig::new(2, PolicyKind::RoundRobin)
    }
}

/// The shared scheduling core: Global DAG + coherence directory + node
/// scheduler behind one `plan_ce` entry point.
#[derive(Debug, Clone)]
pub struct Planner {
    cfg: PlannerConfig,
    dag: DepDag,
    coherence: Coherence,
    scheduler: NodeScheduler,
    /// Whole-array sizes of live (registered) arrays.
    array_bytes: HashMap<ArrayId, u64>,
    next_array: u64,
    /// Every planned CE, by DAG index (recovery replans from these).
    ces: Vec<Ce>,
    /// Node each DAG index was (last) assigned to.
    assignments: Vec<Location>,
    /// Membership epoch: bumps on every membership change (first-time
    /// quarantine, rejoin) so replicas agree on the cluster view. Monotone.
    epoch: u64,
    /// Rolling digest of every applied op and its outcome
    /// ([`Planner::op_digest`]). History, not state: outside
    /// `state_digest` and `==`.
    op_digest: u64,
    /// Timestamp-free event sink (the planner has no clock of its own).
    telemetry: Telemetry,
}

/// One in-flight CE moved off a dead node by `Planner::recover`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reassignment {
    /// The moved CE.
    pub dag_index: DagIndex,
    /// Its new (healthy) node.
    pub to: Location,
    /// Fresh data movements bringing its inputs up to date on `to`,
    /// sourced from surviving holders in the purged directory.
    pub movements: Vec<Movement>,
}

/// The outcome of quarantining a dead node (`Planner::recover`).
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The quarantined worker.
    pub dead: usize,
    /// Membership view: workers still healthy after the quarantine.
    pub healthy: usize,
    /// Arrays that lost a (possibly redundant) copy with the node.
    pub affected: Vec<ArrayId>,
    /// Arrays whose only up-to-date copy died with the node; the executor
    /// must reconstruct them (lineage replay) before their next use.
    pub lost: Vec<ArrayId>,
    /// In-flight CEs moved off the dead node, in DAG order.
    pub reassigned: Vec<Reassignment>,
}

impl Planner {
    /// Builds a planner. `links` is the probed interconnection matrix; it
    /// is required by `min-transfer-time` and also steers P2P source
    /// selection when present.
    ///
    /// # Panics
    /// Panics on the [`NodeScheduler::new`] invariants (zero workers,
    /// empty vector-step vector, `MinTransferTime` without a matrix).
    pub fn new(cfg: PlannerConfig, links: Option<LinkMatrix>) -> Self {
        let scheduler = NodeScheduler::new(cfg.policy.clone(), cfg.workers, links);
        Planner {
            scheduler,
            cfg,
            dag: DepDag::new(),
            coherence: Coherence::new(),
            array_bytes: HashMap::new(),
            next_array: 0,
            ces: Vec::new(),
            assignments: Vec::new(),
            epoch: 0,
            op_digest: oplog::OP_DIGEST_SEED,
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry recorder. The planner has no clock, so it
    /// emits timestamp-free [`crate::Recorder::mark`] events; runtimes
    /// sharing the same handle interleave them with timed spans.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// The Global DAG (read-only view).
    pub fn dag(&self) -> &DepDag {
        &self.dag
    }

    /// The coherence directory (read-only view).
    pub fn coherence(&self) -> &Coherence {
        &self.coherence
    }

    /// The probed interconnection matrix, when one is held.
    pub fn links(&self) -> Option<&LinkMatrix> {
        self.scheduler.links()
    }

    /// The single mutation entry point: applies one [`PlannerOp`] and
    /// returns the derived decision. Deterministic — two planners
    /// constructed identically and fed the same op sequence reach
    /// bit-identical state (the property the standby controller and
    /// journal replay rely on). A failing op is deterministic too:
    /// re-applying it on replay returns the same error and leaves the same
    /// state. A `PlanCe` that fails ([`PlanError::UseAfterFree`]) is
    /// rejected before anything is touched, so DAG indices stay aligned
    /// with [`Planner::planned_ce`] / [`Planner::assignment`].
    ///
    /// Every op, failed or not, is folded into [`Planner::op_digest`].
    pub fn apply(&mut self, op: &PlannerOp) -> Result<PlannerResp, PlanError> {
        let outcome = match op {
            PlannerOp::Alloc { bytes } => Ok(PlannerResp::Array(self.alloc(*bytes))),
            PlannerOp::Free { array } => {
                self.free(*array);
                Ok(PlannerResp::Unit)
            }
            PlannerOp::PlanCe { ce } => self.plan_ce(ce).map(PlannerResp::Plan),
            PlannerOp::MarkCompleted { dag_index } => {
                self.mark_completed(*dag_index);
                Ok(PlannerResp::Unit)
            }
            PlannerOp::Quarantine { worker } => {
                self.quarantine(*worker).map(|()| PlannerResp::Unit)
            }
            PlannerOp::Recover { dead, incomplete } => {
                self.recover(*dead, incomplete).map(PlannerResp::Recovery)
            }
            PlannerOp::ReprobeLinks { links } => {
                self.reprobe_links(links.clone());
                Ok(PlannerResp::Unit)
            }
            PlannerOp::Suspect { worker } => {
                self.suspect(*worker);
                Ok(PlannerResp::Unit)
            }
            PlannerOp::Reinstate { worker } => {
                self.reinstate(*worker);
                Ok(PlannerResp::Unit)
            }
            PlannerOp::Rejoin { worker } => {
                self.rejoin(*worker);
                Ok(PlannerResp::Unit)
            }
            PlannerOp::Join { worker } => {
                self.join(*worker);
                Ok(PlannerResp::Unit)
            }
            PlannerOp::Leave { worker } => self.leave(*worker).map(|()| PlannerResp::Unit),
        };
        self.op_digest = oplog::fold_op(self.op_digest, op, &outcome);
        outcome
    }

    /// The rolling op digest: `d' = fold(d, op, outcome)` over every op
    /// applied so far, starting from a fixed seed. O(1) to read and O(op)
    /// to keep. Two replicas agree on it exactly when they took the same
    /// decision (plan, recovery, array id or error) at every op, so the
    /// standby acks every shipped op with it and the primary cross-checks
    /// it against its own. The construction config and link matrix are not
    /// inputs, only the decisions they steer: a channel and a TCP run of
    /// one stream agree on it unless the probed links pick a different
    /// transfer source.
    pub fn op_digest(&self) -> u64 {
        self.op_digest
    }

    /// FNV-1a digest over a canonical dump of the replicated state (maps
    /// iterated in sorted order, floats as exact bits; telemetry and
    /// [`Planner::op_digest`] excluded). Equal digests across processes
    /// mean bit-identical planner state. It walks every CE ever planned,
    /// so it runs once when a log closes (the journal footer) and in
    /// tests and tools, never per op.
    pub fn state_digest(&self) -> u64 {
        let mut s = String::with_capacity(4096);
        use std::fmt::Write as _;
        let _ = write!(
            s,
            "cfg:{:?};next:{};epoch:{};",
            self.cfg, self.next_array, self.epoch
        );
        self.dag.digest_into(&mut s);
        self.coherence.digest_into(&mut s);
        self.scheduler.digest_into(&mut s);
        s.push_str("bytes:");
        let mut arrays: Vec<_> = self.array_bytes.iter().collect();
        arrays.sort_unstable_by_key(|(a, _)| a.0);
        for (a, b) in arrays {
            let _ = write!(s, "{}={};", a.0, b);
        }
        let _ = write!(s, "ces:{:?};asg:{:?}", self.ces, self.assignments);
        fnv1a(s.as_bytes())
    }

    /// Replaces the probed matrix after a link change (the VNIC-SLA
    /// scenario of Section IV-D). Rebuilds the scheduler, which resets its
    /// cursors — matching GrOUT re-probing at reconfiguration. Membership
    /// state (quarantine/suspension masks) survives the rebuild: a link
    /// re-probe is not an amnesty.
    fn reprobe_links(&mut self, links: LinkMatrix) {
        let (quarantined, suspended, departed) = self.scheduler.masks();
        self.scheduler = NodeScheduler::new(self.cfg.policy.clone(), self.cfg.workers, Some(links));
        self.scheduler
            .restore_masks(quarantined, suspended, departed);
    }

    /// Registers a new framework-managed array of `bytes`, up-to-date on
    /// the Controller (where the application initializes it).
    fn alloc(&mut self, bytes: u64) -> ArrayId {
        let id = ArrayId(self.next_array);
        self.next_array += 1;
        self.coherence.register(id);
        self.array_bytes.insert(id, bytes);
        id
    }

    /// Forgets an array: planning any CE that reads it afterwards fails
    /// with [`PlanError::UseAfterFree`].
    fn free(&mut self, id: ArrayId) {
        self.coherence.unregister(id);
        self.array_bytes.remove(&id);
    }

    /// Size of a live array in bytes (0 when unknown/freed).
    pub fn array_bytes(&self, id: ArrayId) -> u64 {
        self.array_bytes.get(&id).copied().unwrap_or(0)
    }

    /// Marks a CE completed in the Global DAG (executors call this when
    /// the CE actually finishes).
    fn mark_completed(&mut self, i: DagIndex) {
        self.dag.mark_completed(i);
    }

    /// Algorithm 1 for one CE: append to the Global DAG, pick the node,
    /// plan the data movements. Returns the pure decision record.
    ///
    /// Coherence is updated *eagerly*, as if the CE had already run: every
    /// planned copy registers its destination as a holder and every written
    /// array makes the assigned node its exclusive holder. Backends execute
    /// plans in submission order (or gate on explicit versions), so the
    /// eager directory is exactly the state the next `plan_ce` must see.
    fn plan_ce(&mut self, ce: &Ce) -> Result<Plan, PlanError> {
        // Reject a read of a freed array before the DAG append: a CE that
        // took an index but no `ces`/`assignments` entry would shift every
        // later lookup by one and sit in the DAG uncompleted forever.
        if let Some(arg) = ce
            .args
            .iter()
            .find(|a| a.mode.reads() && !self.array_bytes.contains_key(&a.array))
        {
            return Err(PlanError::UseAfterFree(arg.array));
        }
        let outcome = self.dag.add_ce(ce);

        // Node assignment: host CEs run on the Controller, kernels go
        // through the configured inter-node policy.
        let assigned_node = if ce.is_host() {
            Location::CONTROLLER
        } else {
            Location::worker(self.scheduler.assign(ce, &self.coherence))
        };

        // Data movements for read arguments (Algorithm 1 bottom half).
        let mut movements = Vec::new();
        for arg in &ce.args {
            if !arg.mode.reads() {
                continue;
            }
            if let Some(m) = self.plan_movement(arg.array, assigned_node)? {
                movements.push(m);
            }
        }

        // Writes make the assigned node the exclusive holder.
        for arg in &ce.args {
            if arg.mode.writes() {
                self.coherence.record_write(arg.array, assigned_node);
            }
        }

        debug_assert_eq!(outcome.index, self.ces.len(), "dense submission order");
        self.ces.push(ce.clone());
        self.assignments.push(assigned_node);

        let plan = Plan {
            dag_index: outcome.index,
            deps: outcome.parents,
            assigned_node,
            movements,
            placement: None,
        };
        if self.telemetry.enabled() {
            self.telemetry.mark(
                "planner.plan",
                &[
                    ("dag_index", ArgValue::U64(plan.dag_index as u64)),
                    ("node", ArgValue::U64(plan.assigned_node.0 as u64)),
                    ("movements", ArgValue::U64(plan.movements.len() as u64)),
                    ("bytes", ArgValue::U64(plan.movement_bytes())),
                ],
            );
        }
        Ok(plan)
    }

    /// The CE planned at DAG index `i`, if any.
    pub fn planned_ce(&self, i: DagIndex) -> Option<&Ce> {
        self.ces.get(i)
    }

    /// The node CE `i` is currently assigned to (updated by recovery).
    pub fn assignment(&self, i: DagIndex) -> Option<Location> {
        self.assignments.get(i).copied()
    }

    /// Whether worker `w` has been quarantined.
    pub fn is_quarantined(&self, w: usize) -> bool {
        self.scheduler.is_quarantined(w)
    }

    /// Whether worker `w` is in the suspect grace window (no new CEs).
    pub fn is_suspended(&self, w: usize) -> bool {
        self.scheduler.is_suspended(w)
    }

    /// Whether worker `w` departed cleanly (elastic scale-in).
    pub fn is_departed(&self, w: usize) -> bool {
        self.scheduler.is_departed(w)
    }

    /// The planner's membership epoch: bumps on first-time quarantine and
    /// on rejoin, never decreases.
    pub fn membership_epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of workers still accepting assignments.
    pub fn healthy_workers(&self) -> usize {
        self.scheduler.healthy_workers()
    }

    /// Quarantines a worker without replanning anything — used when a node
    /// never comes up (spawn failure), so there is no in-flight work to
    /// move. Fails if it would leave no healthy workers.
    fn quarantine(&mut self, w: usize) -> Result<(), PlanError> {
        if self.scheduler.is_quarantined(w) {
            return Ok(());
        }
        if self.scheduler.healthy_workers() <= 1 {
            return Err(PlanError::NoHealthyWorkers);
        }
        self.scheduler.quarantine(w);
        self.coherence.purge_location(Location::worker(w));
        self.epoch += 1;
        if self.telemetry.enabled() {
            self.telemetry
                .mark("planner.quarantine", &[("worker", ArgValue::U64(w as u64))]);
        }
        Ok(())
    }

    /// Enters the suspect grace window for worker `w`: policies stop
    /// placing *new* CEs on it, but nothing is purged or replanned — a
    /// resumed connection makes the suspicion invisible in hindsight
    /// (apart from the epoch-neutral [`PlannerOp::Suspect`] /
    /// [`PlannerOp::Reinstate`] pair in the log).
    fn suspect(&mut self, w: usize) {
        self.scheduler.suspend(w);
        if self.telemetry.enabled() {
            self.telemetry
                .mark("planner.suspect", &[("worker", ArgValue::U64(w as u64))]);
        }
    }

    /// Lifts a suspicion: worker `w` resumed within the grace window.
    fn reinstate(&mut self, w: usize) {
        self.scheduler.unsuspend(w);
        if self.telemetry.enabled() {
            self.telemetry
                .mark("planner.reinstate", &[("worker", ArgValue::U64(w as u64))]);
        }
    }

    /// Re-admits a quarantined worker under a new membership epoch. The
    /// node is treated as empty: its directory entries were purged at
    /// quarantine and any copies it still physically holds are stale by
    /// definition, so the purge is repeated defensively. Idempotent for a
    /// worker that is not quarantined (no epoch bump).
    fn rejoin(&mut self, w: usize) {
        if !self.scheduler.is_quarantined(w) {
            self.scheduler.unsuspend(w);
            return;
        }
        self.scheduler.rejoin(w);
        self.coherence.purge_location(Location::worker(w));
        self.epoch += 1;
        if self.telemetry.enabled() {
            self.telemetry
                .mark("planner.rejoin", &[("worker", ArgValue::U64(w as u64))]);
        }
    }

    /// Grows the worker set by one: the joining worker takes index `w`
    /// (which must equal the pre-join count — the op records it so replay
    /// needs no context). The newcomer enters empty and immediately
    /// eligible for new CE placement; membership epoch bumps so replicas
    /// agree on the changed cluster view.
    fn join(&mut self, w: usize) {
        debug_assert_eq!(w, self.cfg.workers, "join takes the next free index");
        self.cfg.workers = w + 1;
        self.scheduler.grow(self.cfg.workers);
        self.epoch += 1;
        if self.telemetry.enabled() {
            self.telemetry
                .mark("planner.join", &[("worker", ArgValue::U64(w as u64))]);
        }
    }

    /// A clean elastic departure: purges the leaver's directory entries and
    /// rebalances every orphan to the Controller (the executor fetched the
    /// sole copies before committing this op, so — unlike quarantine —
    /// nothing is lost and no lineage replay runs), then excludes the node
    /// from future placement under a new epoch. Fails if it would leave no
    /// healthy workers; idempotent for an already-departed node.
    fn leave(&mut self, w: usize) -> Result<(), PlanError> {
        if self.scheduler.is_departed(w) {
            return Ok(());
        }
        if self.scheduler.healthy_workers() <= 1 {
            return Err(PlanError::NoHealthyWorkers);
        }
        let report = self.coherence.purge_location(Location::worker(w));
        // Rebalance, don't orphan: the controller holds every departing
        // sole copy (fetched by the executor before this op), so record it
        // as holder of record for each one.
        for &a in &report.orphaned {
            self.coherence.record_copy(a, Location::CONTROLLER);
        }
        self.scheduler.depart(w);
        self.epoch += 1;
        if self.telemetry.enabled() {
            self.telemetry.mark(
                "planner.leave",
                &[
                    ("worker", ArgValue::U64(w as u64)),
                    ("rebalanced", ArgValue::U64(report.orphaned.len() as u64)),
                ],
            );
        }
        Ok(())
    }

    /// Quarantines dead worker `dead` and replans its in-flight work.
    ///
    /// Paper-faithful degraded mode: the node leaves the membership for
    /// good, its directory entries are purged, arrays orphaned by the purge
    /// are handed back to the Controller (the executor reconstructs their
    /// bytes via lineage replay and the Controller becomes the holder of
    /// record), and each CE in `incomplete` that was assigned to the dead
    /// node is re-assigned by the degraded policy with fresh movements
    /// sourced from *surviving* up-to-date holders.
    fn recover(&mut self, dead: usize, incomplete: &[DagIndex]) -> Result<Recovery, PlanError> {
        if self.scheduler.healthy_workers() <= 1 && !self.scheduler.is_quarantined(dead) {
            return Err(PlanError::NoHealthyWorkers);
        }
        if !self.scheduler.is_quarantined(dead) {
            self.scheduler.quarantine(dead);
            self.epoch += 1;
        }
        let report = self.coherence.purge_location(Location::worker(dead));
        // Orphans will be reconstructed on the Controller by the executor;
        // record that eagerly so replanned movements source from it.
        for &a in &report.orphaned {
            self.coherence.record_copy(a, Location::CONTROLLER);
        }

        let mut reassigned = Vec::new();
        let mut order: Vec<DagIndex> = incomplete.to_vec();
        order.sort_unstable();
        let moving: std::collections::HashSet<DagIndex> = order
            .iter()
            .copied()
            .filter(|&i| self.assignments.get(i) == Some(&Location::worker(dead)))
            .collect();
        for i in order {
            if !moving.contains(&i) {
                continue;
            }
            let ce = self.ces[i].clone();
            debug_assert!(!ce.is_host(), "host CEs never run on workers");
            let to = Location::worker(self.scheduler.assign(&ce, &self.coherence));
            // The directory is last-planned-writer-wins: an array with a
            // *later* planned writer that keeps its healthy assignment is
            // frozen — its entry describes a newer version than CE `i`'s,
            // so recovery must neither record this CE's (older) output
            // there nor register a movement landing as an up-to-date copy.
            // (The executor supplies replanned CEs' inputs from its own
            // reconstructed state, so the skipped movements cost nothing.)
            let frozen: Vec<ArrayId> = ce
                .args
                .iter()
                .map(|a| a.array)
                .filter(|&a| {
                    ((i + 1)..self.ces.len()).any(|j| {
                        !moving.contains(&j)
                            && self.ces[j]
                                .args
                                .iter()
                                .any(|g| g.array == a && g.mode.writes())
                    })
                })
                .collect();
            let mut movements = Vec::new();
            for arg in &ce.args {
                if !arg.mode.reads() || frozen.contains(&arg.array) {
                    continue;
                }
                if let Some(m) = self.plan_movement(arg.array, to)? {
                    movements.push(m);
                }
            }
            for arg in &ce.args {
                if arg.mode.writes() && !frozen.contains(&arg.array) {
                    self.coherence.record_write(arg.array, to);
                }
            }
            self.assignments[i] = to;
            reassigned.push(Reassignment {
                dag_index: i,
                to,
                movements,
            });
        }
        let recovery = Recovery {
            dead,
            healthy: self.scheduler.healthy_workers(),
            affected: report.affected,
            lost: report.orphaned,
            reassigned,
        };
        if self.telemetry.enabled() {
            self.telemetry.mark(
                "planner.recover",
                &[
                    ("dead", ArgValue::U64(recovery.dead as u64)),
                    ("healthy", ArgValue::U64(recovery.healthy as u64)),
                    ("lost", ArgValue::U64(recovery.lost.len() as u64)),
                    (
                        "reassigned",
                        ArgValue::U64(recovery.reassigned.len() as u64),
                    ),
                ],
            );
        }
        Ok(recovery)
    }

    /// Plans the movement bringing `array` up to date on `dest`, if any.
    fn plan_movement(
        &mut self,
        array: ArrayId,
        dest: Location,
    ) -> Result<Option<Movement>, PlanError> {
        if self.coherence.up_to_date_on(array, dest) {
            return Ok(None);
        }
        let Some(&bytes) = self.array_bytes.get(&array) else {
            return Err(PlanError::UseAfterFree(array));
        };

        let (from, kind) = if self.coherence.only_on_controller(array) {
            (Location::CONTROLLER, MovementKind::ControllerSend)
        } else if self.cfg.p2p_enabled {
            let from = self.best_source(array, dest);
            let kind = if from == Location::CONTROLLER || dest == Location::CONTROLLER {
                MovementKind::ControllerSend
            } else {
                MovementKind::P2p
            };
            (from, kind)
        } else {
            // P2P disabled (ablation): a worker-to-worker movement stages
            // through the controller, which keeps the relayed copy.
            let from = self
                .coherence
                .holders(array)
                .iter()
                .copied()
                .min_by_key(|h| h.0)
                .expect("registered arrays always have a holder");
            if from != Location::CONTROLLER && dest != Location::CONTROLLER {
                self.coherence.record_copy(array, Location::CONTROLLER);
                (from, MovementKind::Staged)
            } else {
                (from, MovementKind::ControllerSend)
            }
        };
        self.coherence.record_copy(array, dest);
        Ok(Some(Movement {
            array,
            from,
            to: dest,
            bytes,
            kind,
        }))
    }

    /// The up-to-date holder to source a transfer from: highest link
    /// bandwidth towards `dest` when a probed matrix is available, lowest
    /// endpoint index otherwise (and as the tie-break). Pure — unlike a
    /// live-congestion probe, the same directory state always yields the
    /// same source, which is what keeps sim and local plans identical.
    fn best_source(&self, array: ArrayId, dest: Location) -> Location {
        let holders = self.coherence.holders(array);
        debug_assert!(!holders.is_empty(), "checked by caller");
        match self.scheduler.links() {
            Some(links) => holders
                .iter()
                .copied()
                .min_by(|a, b| {
                    let (ba, bb) = (links.bandwidth(*a, dest), links.bandwidth(*b, dest));
                    bb.partial_cmp(&ba)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                })
                .expect("non-empty holders"),
            None => holders
                .iter()
                .copied()
                .min_by_key(|h| h.0)
                .expect("non-empty holders"),
        }
    }
}

/// Replicated-state equality: every field except the telemetry handle
/// (recorders are process-local observers, not replicated state) and the
/// op digest (history: a failed op moves it and nothing else). Two
/// planners constructed identically and fed the same op sequence compare
/// equal — the property the op-log determinism tests assert.
impl PartialEq for Planner {
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
            && self.dag == other.dag
            && self.coherence == other.coherence
            && self.scheduler == other.scheduler
            && self.array_bytes == other.array_bytes
            && self.next_array == other.next_array
            && self.ces == other.ces
            && self.assignments == other.assignments
            && self.epoch == other.epoch
    }
}

/// 64-bit FNV-1a: tiny, dependency-free and stable across platforms —
/// exactly what a cross-process state digest needs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Callback invoked for every plan a runtime records.
pub type PlanObserver = Box<dyn FnMut(&Plan) + Send>;

/// Observer hook over emitted plans: a bounded ring buffer plus an
/// optional callback, fed by both runtimes as CEs are planned/executed.
pub struct SchedTrace {
    plans: VecDeque<Plan>,
    capacity: usize,
    observer: Option<PlanObserver>,
    /// Fault/retry/quarantine/replay decisions, in order. Unbounded: fault
    /// events are rare and each one matters for post-mortems.
    events: Vec<SchedEvent>,
}

impl SchedTrace {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A trace retaining the last `capacity` plans (0 disables retention;
    /// the callback still fires).
    pub fn with_capacity(capacity: usize) -> Self {
        SchedTrace {
            plans: VecDeque::new(),
            capacity,
            observer: None,
            events: Vec::new(),
        }
    }

    /// Records a fault/recovery decision. Not subject to the plan-ring
    /// capacity: every event is kept.
    pub fn record_event(&mut self, event: SchedEvent) {
        self.events.push(event);
    }

    /// Every recorded fault/recovery event, in order.
    pub fn events(&self) -> &[SchedEvent] {
        &self.events
    }

    /// Installs a callback invoked for every recorded plan.
    pub fn set_observer(&mut self, observer: PlanObserver) {
        self.observer = Some(observer);
    }

    /// Records a plan: invokes the observer and appends to the ring,
    /// evicting the oldest entry when full.
    pub fn record(&mut self, plan: &Plan) {
        if let Some(cb) = &mut self.observer {
            cb(plan);
        }
        if self.capacity == 0 {
            return;
        }
        if self.plans.len() == self.capacity {
            self.plans.pop_front();
        }
        self.plans.push_back(plan.clone());
    }

    /// Retained plans, oldest first.
    pub fn plans(&self) -> impl Iterator<Item = &Plan> {
        self.plans.iter()
    }

    /// The most recently recorded plan.
    pub fn latest(&self) -> Option<&Plan> {
        self.plans.back()
    }

    /// Number of retained plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Drops every retained plan and event (the observer is kept).
    pub fn clear(&mut self) {
        self.plans.clear();
        self.events.clear();
    }
}

impl Default for SchedTrace {
    fn default() -> Self {
        SchedTrace::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl std::fmt::Debug for SchedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedTrace")
            .field("plans", &self.plans.len())
            .field("capacity", &self.capacity)
            .field("observer", &self.observer.is_some())
            .field("events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ce::{Ce, CeArg, CeId, CeKind};
    use gpu_sim::KernelCost;

    fn kernel(id: u64, args: Vec<CeArg>) -> Ce {
        Ce {
            id: CeId(id),
            kind: CeKind::Kernel {
                name: "k".into(),
                cost: KernelCost::default(),
            },
            args,
        }
    }

    fn planner(workers: usize) -> LoggedPlanner {
        LoggedPlanner::new(Planner::new(
            PlannerConfig::new(workers, PolicyKind::RoundRobin),
            None,
        ))
    }

    #[test]
    fn first_touch_is_a_controller_send() {
        let mut p = planner(2);
        let a = p.alloc(64);
        let plan = p.plan_ce(&kernel(0, vec![CeArg::read(a, 64)])).unwrap();
        assert_eq!(plan.assigned_node, Location::worker(0));
        assert_eq!(
            plan.movements,
            vec![Movement {
                array: a,
                from: Location::CONTROLLER,
                to: Location::worker(0),
                bytes: 64,
                kind: MovementKind::ControllerSend,
            }]
        );
    }

    #[test]
    fn cached_inputs_need_no_movement() {
        let mut p = planner(1);
        let a = p.alloc(64);
        p.plan_ce(&kernel(0, vec![CeArg::read(a, 64)])).unwrap();
        let again = p.plan_ce(&kernel(1, vec![CeArg::read(a, 64)])).unwrap();
        assert!(again.movements.is_empty(), "copy is cached on the worker");
    }

    #[test]
    fn exclusive_writer_feeds_peers_p2p() {
        let mut p = planner(2);
        let a = p.alloc(64);
        p.plan_ce(&kernel(0, vec![CeArg::write(a, 64)])).unwrap(); // worker 0
        let read = p.plan_ce(&kernel(1, vec![CeArg::read(a, 64)])).unwrap(); // worker 1
        assert_eq!(read.movements[0].from, Location::worker(0));
        assert_eq!(read.movements[0].kind, MovementKind::P2p);
    }

    #[test]
    fn p2p_disabled_stages_with_double_wire_bytes() {
        let mut cfg = PlannerConfig::new(2, PolicyKind::RoundRobin);
        cfg.p2p_enabled = false;
        let mut p = LoggedPlanner::new(Planner::new(cfg, None));
        let a = p.alloc(100);
        p.plan_ce(&kernel(0, vec![CeArg::write(a, 100)])).unwrap();
        let read = p.plan_ce(&kernel(1, vec![CeArg::read(a, 100)])).unwrap();
        assert_eq!(read.movements[0].kind, MovementKind::Staged);
        assert_eq!(read.wire_bytes(), 200);
        // The controller keeps the relayed copy.
        assert!(p.coherence().up_to_date_on(a, Location::CONTROLLER));
    }

    #[test]
    fn host_ces_run_on_the_controller() {
        let mut p = planner(2);
        let a = p.alloc(64);
        p.plan_ce(&kernel(0, vec![CeArg::write(a, 64)])).unwrap(); // worker 0
        let host = Ce {
            id: CeId(1),
            kind: CeKind::HostRead,
            args: vec![CeArg::read(a, 64)],
        };
        let plan = p.plan_ce(&host).unwrap();
        assert_eq!(plan.assigned_node, Location::CONTROLLER);
        assert_eq!(plan.movements[0].from, Location::worker(0));
        assert_eq!(plan.movements[0].kind, MovementKind::ControllerSend);
    }

    #[test]
    fn freed_arrays_fail_planning() {
        let mut p = planner(1);
        let a = p.alloc(64);
        p.free(a);
        let err = p.plan_ce(&kernel(0, vec![CeArg::read(a, 64)])).unwrap_err();
        assert_eq!(err, PlanError::UseAfterFree(a));
    }

    #[test]
    fn writes_are_planned_without_movement() {
        let mut p = planner(2);
        let a = p.alloc(64);
        let plan = p.plan_ce(&kernel(0, vec![CeArg::write(a, 64)])).unwrap();
        assert!(plan.movements.is_empty(), "write-only args move nothing");
        assert_eq!(
            p.coherence().holders(a),
            &[plan.assigned_node],
            "eager exclusive ownership"
        );
    }

    #[test]
    fn deps_come_from_the_shared_dag() {
        let mut p = planner(2);
        let a = p.alloc(64);
        let w = p.plan_ce(&kernel(0, vec![CeArg::write(a, 64)])).unwrap();
        let r = p.plan_ce(&kernel(1, vec![CeArg::read(a, 64)])).unwrap();
        assert_eq!(w.deps, Vec::<usize>::new());
        assert_eq!(r.deps, vec![w.dag_index]);
    }

    #[test]
    fn best_source_prefers_fast_links() {
        // Three endpoints; worker 0 -> worker 1 is 10x faster than
        // controller -> worker 1.
        let mut bw = vec![vec![1e8; 3]; 3];
        bw[1][2] = 1e9;
        let mut p = LoggedPlanner::new(Planner::new(
            PlannerConfig::new(2, PolicyKind::RoundRobin),
            Some(LinkMatrix::new(bw)),
        ));
        let a = p.alloc(64);
        // Holders: controller and worker 0 (via a read on worker 0).
        p.plan_ce(&kernel(0, vec![CeArg::read(a, 64)])).unwrap();
        let read = p.plan_ce(&kernel(1, vec![CeArg::read(a, 64)])).unwrap();
        assert_eq!(read.assigned_node, Location::worker(1));
        assert_eq!(
            read.movements[0].from,
            Location::worker(0),
            "fast link wins"
        );
    }

    #[test]
    fn recover_quarantines_and_replans_in_flight_work() {
        let mut p = planner(2);
        let a = p.alloc(64);
        let b = p.alloc(64);
        // CE0 writes a on worker 0, CE1 writes b on worker 1, CE2 reads a
        // on worker 0 (cached). Worker 0 dies with CE2 in flight.
        p.plan_ce(&kernel(0, vec![CeArg::write(a, 64)])).unwrap();
        p.plan_ce(&kernel(1, vec![CeArg::write(b, 64)])).unwrap();
        let c2 = p.plan_ce(&kernel(2, vec![CeArg::read(a, 64)])).unwrap();
        assert_eq!(c2.assigned_node, Location::worker(0));
        p.mark_completed(0);
        p.mark_completed(1);

        let rec = p.recover(0, &[2]).unwrap();
        assert_eq!(rec.dead, 0);
        assert_eq!(rec.healthy, 1);
        assert_eq!(rec.affected, vec![a]);
        assert_eq!(rec.lost, vec![a], "worker 0 was a's exclusive holder");
        assert!(p.is_quarantined(0));
        // The orphan is handed to the controller for reconstruction...
        assert!(p.coherence().up_to_date_on(a, Location::CONTROLLER));
        assert!(!p.coherence().up_to_date_on(a, Location::worker(0)));
        // ...and CE2 moves to the surviving worker with a fresh movement
        // sourced from the controller.
        assert_eq!(rec.reassigned.len(), 1);
        let r = &rec.reassigned[0];
        assert_eq!((r.dag_index, r.to), (2, Location::worker(1)));
        assert_eq!(r.movements[0].from, Location::CONTROLLER);
        assert_eq!(p.assignment(2), Some(Location::worker(1)));
    }

    #[test]
    fn recover_refuses_to_kill_the_last_worker() {
        let mut p = planner(1);
        let a = p.alloc(8);
        p.plan_ce(&kernel(0, vec![CeArg::write(a, 8)])).unwrap();
        assert_eq!(p.recover(0, &[0]).unwrap_err(), PlanError::NoHealthyWorkers);
    }

    #[test]
    fn recovery_reads_source_from_surviving_holders() {
        // Worker 1 already holds b; after worker 0 dies, the reassigned CE
        // reading b needs no movement at all (surviving holder is local).
        let mut p = planner(2);
        let a = p.alloc(64);
        let b = p.alloc(64);
        p.plan_ce(&kernel(0, vec![CeArg::write(a, 64)])).unwrap(); // w0
        p.plan_ce(&kernel(1, vec![CeArg::write(b, 64)])).unwrap(); // w1
        p.plan_ce(&kernel(2, vec![CeArg::read(b, 64), CeArg::write(a, 64)]))
            .unwrap(); // w0: moves b to w0
        p.mark_completed(0);
        p.mark_completed(1);
        let rec = p.recover(0, &[2]).unwrap();
        let r = &rec.reassigned[0];
        assert_eq!(r.to, Location::worker(1));
        assert!(
            r.movements.is_empty(),
            "b is already up to date on the surviving worker: {:?}",
            r.movements
        );
        // The write makes the new node a's exclusive holder again.
        assert_eq!(p.coherence().holders(a), &[Location::worker(1)]);
    }

    #[test]
    fn standalone_quarantine_purges_without_replanning() {
        let mut p = planner(3);
        assert_eq!(p.healthy_workers(), 3);
        p.quarantine(1).unwrap();
        p.quarantine(1).unwrap(); // idempotent
        assert_eq!(p.healthy_workers(), 2);
        let a = p.alloc(64);
        // Every subsequent plan avoids the quarantined node.
        for i in 0..6 {
            let plan = p.plan_ce(&kernel(i, vec![CeArg::read(a, 64)])).unwrap();
            assert_ne!(plan.assigned_node, Location::worker(1));
        }
    }

    #[test]
    fn sched_trace_keeps_events_past_plan_eviction() {
        use crate::faults::SchedEvent;
        let mut trace = SchedTrace::with_capacity(1);
        let mut p = planner(1);
        let a = p.alloc(8);
        for i in 0..3 {
            let plan = p
                .plan_ce(&kernel(i, vec![CeArg::read_write(a, 8)]))
                .unwrap();
            trace.record(&plan);
        }
        trace.record_event(SchedEvent::Replay {
            dag_index: 1,
            epoch: 1,
        });
        assert_eq!(trace.len(), 1, "plan ring evicted");
        assert_eq!(trace.events().len(), 1, "events are never evicted");
        trace.clear();
        assert!(trace.events().is_empty());
    }

    #[test]
    fn sched_trace_ring_evicts_oldest() {
        let mut trace = SchedTrace::with_capacity(2);
        let mut p = planner(1);
        let a = p.alloc(8);
        for i in 0..3 {
            let plan = p
                .plan_ce(&kernel(i, vec![CeArg::read_write(a, 8)]))
                .unwrap();
            trace.record(&plan);
        }
        assert_eq!(trace.len(), 2);
        let kept: Vec<usize> = trace.plans().map(|p| p.dag_index).collect();
        assert_eq!(kept, vec![1, 2]);
        assert_eq!(trace.latest().unwrap().dag_index, 2);
    }

    #[test]
    fn sched_trace_observer_sees_every_plan() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let mut trace = SchedTrace::with_capacity(0); // retention off
        trace.set_observer(Box::new(move |_| {
            seen2.fetch_add(1, Ordering::Relaxed);
        }));
        let mut p = planner(1);
        let a = p.alloc(8);
        for i in 0..5 {
            let plan = p
                .plan_ce(&kernel(i, vec![CeArg::read_write(a, 8)]))
                .unwrap();
            trace.record(&plan);
        }
        assert_eq!(seen.load(Ordering::Relaxed), 5);
        assert!(trace.is_empty(), "capacity 0 retains nothing");
    }

    #[test]
    fn suspect_sidelines_until_reinstated() {
        let mut p = planner(2);
        let a = p.alloc(64);
        p.suspect(0);
        assert!(p.is_suspended(0));
        assert_eq!(p.membership_epoch(), 0, "suspicion is epoch-neutral");
        for i in 0..4 {
            let plan = p.plan_ce(&kernel(i, vec![CeArg::read(a, 64)])).unwrap();
            assert_eq!(plan.assigned_node, Location::worker(1));
        }
        p.reinstate(0);
        assert!(!p.is_suspended(0));
        let placed: Vec<_> = (4..8)
            .map(|i| {
                p.plan_ce(&kernel(i, vec![CeArg::read(a, 64)]))
                    .unwrap()
                    .assigned_node
            })
            .collect();
        assert!(placed.contains(&Location::worker(0)));
    }

    #[test]
    fn rejoin_reopens_a_quarantined_worker_under_a_new_epoch() {
        let mut p = planner(2);
        let a = p.alloc(64);
        p.plan_ce(&kernel(0, vec![CeArg::write(a, 64)])).unwrap(); // w0
        p.mark_completed(0);
        p.recover(0, &[]).unwrap();
        assert!(p.is_quarantined(0));
        assert_eq!(p.membership_epoch(), 1);
        p.rejoin(0);
        assert!(!p.is_quarantined(0));
        assert_eq!(p.membership_epoch(), 2, "rejoin opens a new epoch");
        // The rejoined node is empty: nothing up to date there, and it
        // receives new CEs again.
        assert!(!p.coherence().up_to_date_on(a, Location::worker(0)));
        let placed: Vec<_> = (1..5)
            .map(|i| {
                p.plan_ce(&kernel(i, vec![CeArg::read(a, 64)]))
                    .unwrap()
                    .assigned_node
            })
            .collect();
        assert!(placed.contains(&Location::worker(0)));
        // Membership ops replay bit-identically like everything else.
        let mut replica = fresh_like(&p);
        replay_ops(&mut replica, p.ops());
        assert_eq!(*p, replica);
        assert_eq!(p.state_digest(), replica.state_digest());
    }

    #[test]
    fn join_grows_membership_and_leave_rebalances_without_quarantine() {
        let mut p = planner(2);
        // Capture the construction inputs before membership mutates them:
        // replicas replay the op log onto the *initial* configuration.
        let mut replica = fresh_like(&p);
        let a = p.alloc(64);
        p.plan_ce(&kernel(0, vec![CeArg::write(a, 64)])).unwrap(); // w0
        p.mark_completed(0);

        p.join(2);
        assert_eq!(p.membership_epoch(), 1, "join opens a new epoch");
        assert_eq!(p.healthy_workers(), 3);
        let placed: Vec<_> = (1..3)
            .map(|i| {
                p.plan_ce(&kernel(i, vec![CeArg::read(a, 64)]))
                    .unwrap()
                    .assigned_node
            })
            .collect();
        assert!(
            placed.contains(&Location::worker(2)),
            "the joined worker receives CE placements: {placed:?}"
        );
        // A second array whose only up-to-date copy lives on the leaver —
        // the case leave() must rebalance rather than orphan.
        let b = p.alloc(32);
        let wb = p
            .plan_ce(&kernel(3, vec![CeArg::write(b, 32)]))
            .unwrap()
            .assigned_node;
        assert_eq!(
            wb,
            Location::worker(0),
            "round-robin lands the write on the leaver"
        );
        p.mark_completed(3);

        p.leave(0).unwrap();
        p.leave(0).unwrap(); // idempotent
        assert!(p.is_departed(0));
        assert!(!p.is_quarantined(0), "a clean leave is not a quarantine");
        assert_eq!(p.membership_epoch(), 2);
        assert_eq!(p.healthy_workers(), 2);
        // The leaver's exclusive copy was rebalanced to the controller,
        // not orphaned; `a` keeps its surviving reader copies.
        assert!(p.coherence().up_to_date_on(b, Location::CONTROLLER));
        assert!(!p.coherence().up_to_date_on(b, Location::worker(0)));
        assert!(p.coherence().up_to_date_on(a, Location::worker(2)));
        for i in 4..8 {
            let plan = p.plan_ce(&kernel(i, vec![CeArg::read(a, 64)])).unwrap();
            assert_ne!(plan.assigned_node, Location::worker(0));
        }
        // Membership ops replay bit-identically like everything else.
        replay_ops(&mut replica, p.ops());
        assert_eq!(*p, replica);
        assert_eq!(p.state_digest(), replica.state_digest());
    }

    #[test]
    fn leave_refuses_to_empty_the_cluster() {
        let mut p = planner(2);
        p.leave(0).unwrap();
        assert_eq!(p.leave(1).unwrap_err(), PlanError::NoHealthyWorkers);
    }

    #[test]
    fn reprobe_preserves_membership_masks() {
        let mut p = planner(3);
        p.quarantine(1).unwrap();
        p.suspect(2);
        p.reprobe_links(LinkMatrix::uniform(4, 1e9));
        assert!(p.is_quarantined(1), "re-probe is not an amnesty");
        assert!(p.is_suspended(2));
    }

    fn fresh_like(p: &LoggedPlanner) -> Planner {
        Planner::new(p.config().clone(), p.links().cloned())
    }

    #[test]
    fn replaying_the_op_log_reproduces_the_planner() {
        let mut p = planner(3);
        let a = p.alloc(64);
        let b = p.alloc(32);
        p.plan_ce(&kernel(0, vec![CeArg::write(a, 64)])).unwrap();
        p.plan_ce(&kernel(1, vec![CeArg::read(a, 64), CeArg::write(b, 32)]))
            .unwrap();
        p.mark_completed(0);
        p.recover(0, &[1]).unwrap();
        p.free(b);
        let mut replica = fresh_like(&p);
        replay_ops(&mut replica, p.ops());
        assert_eq!(*p, replica, "replica state diverged");
        assert_eq!(p.state_digest(), replica.state_digest());
    }

    #[test]
    fn failed_plan_mutates_nothing_and_replays_identically() {
        let mut p = planner(1);
        let a = p.alloc(8);
        let b = p.alloc(8);
        p.free(a);
        let before = (*p).clone();
        assert_eq!(
            p.plan_ce(&kernel(0, vec![CeArg::write(b, 8), CeArg::read(a, 8)]))
                .unwrap_err(),
            PlanError::UseAfterFree(a)
        );
        assert!(p.dag().is_empty(), "a failed plan takes no DAG index");
        assert_eq!(*p, before, "nor touches anything else");
        // The next CE is index 0 everywhere, and nothing waits on a ghost.
        let ok = kernel(1, vec![CeArg::read_write(b, 8)]);
        let plan = p.plan_ce(&ok).unwrap();
        assert_eq!((plan.dag_index, &plan.deps[..]), (0, &[][..]));
        assert_eq!(p.planned_ce(0), Some(&ok));
        assert_eq!(p.assignment(0), Some(plan.assigned_node));
        let mut replica = fresh_like(&p);
        let results = replay_ops(&mut replica, p.ops());
        assert_eq!(*p, replica);
        assert_eq!(
            results[3].as_ref().unwrap_err(),
            &PlanError::UseAfterFree(a),
            "replay reproduces the failure too"
        );
    }

    #[test]
    fn digest_tracks_state_not_telemetry() {
        let mut a = planner(2);
        let mut b = planner(2);
        b.set_telemetry(crate::telemetry::Telemetry::off());
        let x = a.alloc(16);
        b.alloc(16);
        assert_eq!(a.state_digest(), b.state_digest());
        a.plan_ce(&kernel(0, vec![CeArg::read(x, 16)])).unwrap();
        assert_ne!(a.state_digest(), b.state_digest(), "mutation moves digest");
    }

    #[test]
    fn op_digest_chains_decisions_not_construction() {
        // Different link matrices, same decisions: the op digests agree
        // where the state digests cannot.
        let mut a = planner(2);
        let mut b = LoggedPlanner::new(Planner::new(
            PlannerConfig::new(2, PolicyKind::RoundRobin),
            Some(LinkMatrix::uniform(3, 1e9)),
        ));
        assert_eq!(a.op_digest(), b.op_digest());
        for p in [&mut a, &mut b] {
            let x = p.alloc(16);
            p.plan_ce(&kernel(0, vec![CeArg::read(x, 16)])).unwrap();
        }
        assert_eq!(a.op_digest(), b.op_digest());
        assert_ne!(a.state_digest(), b.state_digest(), "links are state");

        // A failed op changes nothing but the history.
        let before = (a.op_digest(), (*a).clone());
        a.free(ArrayId(0));
        let freed = (a.op_digest(), (*a).clone());
        assert_ne!(before.0, freed.0);
        assert!(a
            .plan_ce(&kernel(1, vec![CeArg::read(ArrayId(0), 16)]))
            .is_err());
        assert_eq!(*a, freed.1, "failed plan mutates nothing");
        assert_ne!(a.op_digest(), freed.0, "but is folded in");

        // The same op with a different outcome moves the digest: three
        // workers place the second CE where two workers do not.
        let run = |workers| {
            let mut p = planner(workers);
            let x = p.alloc(16);
            let mut digests = vec![p.op_digest()];
            for i in 0..3 {
                p.plan_ce(&kernel(i, vec![CeArg::read(x, 16)])).unwrap();
                digests.push(p.op_digest());
            }
            digests
        };
        let (two, three) = (run(2), run(3));
        assert_eq!(two[..3], three[..3], "CEs 0 and 1 land alike");
        assert_ne!(two[3], three[3], "CE 2 lands on worker 0 vs 2");

        // A re-probe is an input even though it yields no decision.
        let digest = b.op_digest();
        b.reprobe_links(LinkMatrix::uniform(3, 2e9));
        assert_ne!(b.op_digest(), digest);
    }

    #[test]
    fn first_divergence_localizes() {
        let a = [
            PlannerOp::Alloc { bytes: 8 },
            PlannerOp::MarkCompleted { dag_index: 0 },
        ];
        let b = [
            PlannerOp::Alloc { bytes: 8 },
            PlannerOp::MarkCompleted { dag_index: 1 },
        ];
        assert_eq!(first_divergence(&a, &a), None);
        assert_eq!(first_divergence(&a, &b), Some(1));
        assert_eq!(first_divergence(&a, &a[..1]), Some(1), "length mismatch");
    }

    #[test]
    fn op_sinks_see_every_op_and_catch_up() {
        use std::sync::{Arc, Mutex};
        type Seen = Arc<Mutex<Vec<(u64, &'static str, bool)>>>;
        #[derive(Default)]
        struct Tap(Seen);
        impl OpSink for Tap {
            fn append(&mut self, seq: u64, op: &PlannerOp, digest: Option<u64>) {
                self.0
                    .lock()
                    .unwrap()
                    .push((seq, op.kind(), digest.is_some()));
            }
        }
        let mut p = planner(2);
        let a = p.alloc(8);
        let seen = Arc::new(Mutex::new(Vec::new()));
        p.add_sink(Box::new(Tap(Arc::clone(&seen))));
        p.plan_ce(&kernel(0, vec![CeArg::read(a, 8)])).unwrap();
        let got = seen.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![(0, "alloc", false), (1, "plan-ce", true)],
            "catch-up replays history without digests; live ops carry one"
        );
    }
}
