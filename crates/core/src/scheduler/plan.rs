//! The [`Plan`]: a pure, serializable scheduling decision record.
//!
//! A `Plan` is everything the paper's Algorithm 1 decides about one CE —
//! its dependencies, the node it runs on, and the data movements required
//! to make its inputs resident there. It deliberately knows nothing about
//! *time* (virtual or real) or *threads*: [`crate::SimRuntime`] prices the
//! same plan in virtual time while [`crate::LocalRuntime`] executes it over
//! channels, which is exactly what makes the two runtimes comparable CE by
//! CE (see `tests/sim_local_equivalence.rs`).

use crate::ce::ArrayId;
use crate::coherence::Location;
use crate::dag::DagIndex;
use crate::intranode::Placement;
use serde_json::Value;

/// How a data movement travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MovementKind {
    /// A single hop with the Controller at one end (controller -> worker
    /// sends and worker -> controller fetches alike).
    ControllerSend,
    /// A direct worker -> worker transfer (paper Algorithm 1 bottom half).
    P2p,
    /// P2P disabled (ablation): worker -> controller -> worker, two hops
    /// moving the payload twice; the Controller keeps the relayed copy.
    Staged,
}

impl MovementKind {
    /// Short label used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            MovementKind::ControllerSend => "controller-send",
            MovementKind::P2p => "p2p",
            MovementKind::Staged => "staged",
        }
    }

    /// Bytes that actually cross the wire when `payload` bytes move this
    /// way (staging doubles the traffic).
    pub fn wire_bytes(self, payload: u64) -> u64 {
        match self {
            MovementKind::Staged => 2 * payload,
            _ => payload,
        }
    }
}

/// One planned whole-array transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Movement {
    /// The array to move.
    pub array: ArrayId,
    /// Up-to-date source location chosen by the planner.
    pub from: Location,
    /// Destination (the CE's assigned node, or the Controller for host
    /// reads).
    pub to: Location,
    /// Whole-array payload size (coherence is whole-array granular).
    pub bytes: u64,
    /// Route.
    pub kind: MovementKind,
}

/// The planner's complete decision for one CE.
///
/// Executors must honour the plan as-is: re-deriving any part of it from
/// live state would reintroduce the duplicated scheduling logic this type
/// exists to remove.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The CE's index in the Global DAG (dense, submission order).
    pub dag_index: DagIndex,
    /// Direct dependencies after redundant-edge filtering.
    pub deps: Vec<DagIndex>,
    /// Where the CE runs ([`Location::CONTROLLER`] for host CEs).
    pub assigned_node: Location,
    /// Transfers required before the CE's read inputs are resident.
    pub movements: Vec<Movement>,
    /// Intra-node device/stream choice (Algorithm 2). `None` as planned —
    /// executors that model devices fill it in after placement.
    pub placement: Option<Placement>,
}

impl Plan {
    /// Total payload bytes the plan moves (each staged hop counted once).
    pub fn movement_bytes(&self) -> u64 {
        self.movements.iter().map(|m| m.bytes).sum()
    }

    /// Total bytes crossing the wire (staged movements counted twice).
    pub fn wire_bytes(&self) -> u64 {
        self.movements
            .iter()
            .map(|m| m.kind.wire_bytes(m.bytes))
            .sum()
    }
}

/// Planning failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// A CE references an array that was freed (or never allocated through
    /// the planner).
    UseAfterFree(ArrayId),
    /// Recovery cannot proceed: quarantining the failed node would leave
    /// zero healthy workers.
    NoHealthyWorkers,
    /// A runtime was configured with values that cannot schedule anything
    /// (zero workers, empty vector-step vector, mismatched topology, ...).
    InvalidConfig(&'static str),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UseAfterFree(array) => {
                write!(f, "CE references array {array:?} after free()")
            }
            PlanError::NoHealthyWorkers => {
                f.write_str("no healthy workers remain after quarantine")
            }
            PlanError::InvalidConfig(why) => write!(f, "invalid runtime configuration: {why}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl Movement {
    /// The movement as a JSON object, fields in declaration order.
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("array".to_string(), Value::U64(self.array.0)),
            ("from".to_string(), Value::U64(self.from.0 as u64)),
            ("to".to_string(), Value::U64(self.to.0 as u64)),
            ("bytes".to_string(), Value::U64(self.bytes)),
            (
                "kind".to_string(),
                Value::String(self.kind.name().to_string()),
            ),
        ])
    }
}

impl Plan {
    /// The plan as a JSON object (one `trace --plans` line), fields in
    /// declaration order; a plan without placement has `"placement": null`.
    pub fn to_json_value(&self) -> Value {
        let placement = match &self.placement {
            Some(p) => Value::Object(vec![
                ("device".to_string(), Value::U64(p.device.0 as u64)),
                ("stream".to_string(), Value::U64(p.stream.0 as u64)),
                (
                    "reused_parent_stream".to_string(),
                    Value::Bool(p.reused_parent_stream),
                ),
            ]),
            None => Value::Null,
        };
        Value::Object(vec![
            ("dag_index".to_string(), Value::U64(self.dag_index as u64)),
            (
                "deps".to_string(),
                Value::Array(self.deps.iter().map(|&d| Value::U64(d as u64)).collect()),
            ),
            (
                "assigned_node".to_string(),
                Value::U64(self.assigned_node.0 as u64),
            ),
            (
                "movements".to_string(),
                Value::Array(self.movements.iter().map(Movement::to_json_value).collect()),
            ),
            ("placement".to_string(), placement),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Plan {
        Plan {
            dag_index: 3,
            deps: vec![1, 2],
            assigned_node: Location::worker(1),
            movements: vec![Movement {
                array: ArrayId(7),
                from: Location::CONTROLLER,
                to: Location::worker(1),
                bytes: 64,
                kind: MovementKind::ControllerSend,
            }],
            placement: None,
        }
    }

    #[test]
    fn byte_accounting_counts_staged_twice() {
        let mut p = plan();
        p.movements.push(Movement {
            array: ArrayId(8),
            from: Location::worker(0),
            to: Location::worker(1),
            bytes: 100,
            kind: MovementKind::Staged,
        });
        assert_eq!(p.movement_bytes(), 164);
        assert_eq!(p.wire_bytes(), 264);
    }

    #[test]
    fn plans_serialize_to_json() {
        let json = serde_json::to_string(&plan().to_json_value()).unwrap();
        assert!(json.contains("\"dag_index\":3"), "{json}");
        assert!(json.contains("\"controller-send\""), "{json}");
        assert!(json.contains("\"placement\":null"), "{json}");
    }

    #[test]
    fn plan_error_is_loud_about_freed_arrays() {
        let e = PlanError::UseAfterFree(ArrayId(5));
        assert!(e.to_string().contains("after free"));
    }
}
