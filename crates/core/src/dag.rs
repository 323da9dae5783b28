//! The dependency DAG (paper Algorithm 1, top half).
//!
//! Every CE submitted by the application is appended to the DAG; its
//! ancestors are the most recent CEs whose argument read/write sets conflict
//! with it (RAW/WAR/WAW per array), with redundant edges filtered: if both
//! `A` and `B` would become ancestors of the new CE but `B` already depends
//! on `A` (directly or transitively), the `A` edge is dropped — exactly the
//! paper's `filterRedundant` example.
//!
//! The *frontier* is the set of CEs that can still be the nearest conflict
//! for some future CE: per array we track the last writer and the readers
//! since that write, which is both the fast implementation and the exact
//! semantics of iterating Algorithm 1's `globalDAG.frontier`.

use std::collections::{HashMap, HashSet};

use crate::ce::{ArrayId, Ce};

/// Index of a CE inside a [`DepDag`] (dense, submission order).
pub type DagIndex = usize;

/// Result of inserting a CE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddOutcome {
    /// The new CE's index.
    pub index: DagIndex,
    /// Filtered ancestor indices (direct dependencies).
    pub parents: Vec<DagIndex>,
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct ArrayTrack {
    last_writer: Option<DagIndex>,
    readers_since: Vec<DagIndex>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    parents: Vec<DagIndex>,
    children: Vec<DagIndex>,
    completed: bool,
    /// Parents not yet completed. Executors ask [`DepDag::is_ready`] of
    /// every pending CE after every completion; with the count here that
    /// question reads this node alone instead of chasing each node's
    /// `parents` allocation across the heap.
    unmet: u32,
}

/// A dependency DAG over CEs (used as the Controller's *Global DAG* and each
/// Worker's *Local DAG*). Equality is replica equality: same nodes, edges,
/// per-array trackers and frontier.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DepDag {
    nodes: Vec<Node>,
    tracks: HashMap<ArrayId, ArrayTrack>,
    frontier: HashSet<DagIndex>,
    edges: usize,
}

impl DepDag {
    /// An empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of CEs inserted.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no CE has been inserted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Direct dependencies of a CE.
    pub fn parents(&self, i: DagIndex) -> &[DagIndex] {
        &self.nodes[i].parents
    }

    /// Direct dependents of a CE.
    pub fn children(&self, i: DagIndex) -> &[DagIndex] {
        &self.nodes[i].children
    }

    /// The current frontier (CEs that may still be nearest conflicts).
    pub fn frontier(&self) -> impl Iterator<Item = DagIndex> + '_ {
        self.frontier.iter().copied()
    }

    /// Whether `ancestor` can reach `node` following child edges.
    pub fn is_ancestor(&self, ancestor: DagIndex, node: DagIndex) -> bool {
        if ancestor >= node {
            return ancestor == node;
        }
        // Reverse DFS from `node` through parents; indices only decrease.
        let mut stack = vec![node];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == ancestor {
                return true;
            }
            for &p in &self.nodes[n].parents {
                if p >= ancestor && seen.insert(p) {
                    stack.push(p);
                }
            }
        }
        false
    }

    /// Inserts a CE per Algorithm 1: computes conflicts against the
    /// frontier, filters redundant ancestors, adds edges and updates the
    /// frontier. Returns the new index and its direct dependencies.
    pub fn add_ce(&mut self, ce: &Ce) -> AddOutcome {
        let index = self.nodes.len();

        // Gather candidate ancestors from the per-array trackers: for a
        // read we conflict with the last writer (RAW); for a write, with
        // the last writer (WAW) and every reader since (WAR).
        let mut candidates: Vec<DagIndex> = Vec::new();
        let push = |v: DagIndex, candidates: &mut Vec<DagIndex>| {
            if !candidates.contains(&v) {
                candidates.push(v);
            }
        };
        for arg in &ce.args {
            let track = self.tracks.entry(arg.array).or_default();
            if arg.mode.reads() {
                if let Some(w) = track.last_writer {
                    push(w, &mut candidates);
                }
            }
            if arg.mode.writes() {
                if let Some(w) = track.last_writer {
                    push(w, &mut candidates);
                }
                for &r in &track.readers_since {
                    push(r, &mut candidates);
                }
            }
        }

        // filterRedundant: drop any candidate that is an ancestor of
        // another candidate (the other already transitively orders it).
        candidates.sort_unstable();
        let mut parents: Vec<DagIndex> = Vec::with_capacity(candidates.len());
        'outer: for (i, &a) in candidates.iter().enumerate() {
            for (j, &b) in candidates.iter().enumerate() {
                if i != j && self.is_ancestor(a, b) && a != b {
                    continue 'outer;
                }
            }
            parents.push(a);
        }

        // Install the node and edges.
        let unmet = parents
            .iter()
            .filter(|&&p| !self.nodes[p].completed)
            .count() as u32;
        self.nodes.push(Node {
            parents: parents.clone(),
            children: Vec::new(),
            completed: false,
            unmet,
        });
        for &p in &parents {
            self.nodes[p].children.push(index);
            self.edges += 1;
        }

        // Update per-array trackers; a write supersedes the previous writer
        // and the readers since it for that array.
        for arg in &ce.args {
            let track = self.tracks.entry(arg.array).or_default();
            if arg.mode.writes() {
                track.last_writer = Some(index);
                track.readers_since.clear();
            } else if arg.mode.reads() {
                track.readers_since.push(index);
            }
        }
        self.frontier.insert(index);
        self.prune_frontier();

        AddOutcome { index, parents }
    }

    fn prune_frontier(&mut self) {
        let tracks = &self.tracks;
        self.frontier.retain(|&i| {
            tracks
                .values()
                .any(|t| t.last_writer == Some(i) || t.readers_since.contains(&i))
        });
    }

    /// Marks a CE completed (used by execution engines for readiness).
    pub fn mark_completed(&mut self, i: DagIndex) {
        if std::mem::replace(&mut self.nodes[i].completed, true) {
            return;
        }
        for k in 0..self.nodes[i].children.len() {
            let child = self.nodes[i].children[k];
            self.nodes[child].unmet -= 1;
        }
    }

    /// Whether a CE completed.
    pub fn is_completed(&self, i: DagIndex) -> bool {
        self.nodes[i].completed
    }

    /// Whether every dependency of `i` has completed.
    pub fn is_ready(&self, i: DagIndex) -> bool {
        !self.nodes[i].completed && self.nodes[i].unmet == 0
    }

    /// All currently runnable CEs (dependencies met, not completed).
    pub fn ready_set(&self) -> Vec<DagIndex> {
        (0..self.nodes.len())
            .filter(|&i| self.is_ready(i))
            .collect()
    }

    /// Appends a canonical dump of the DAG to `out` (maps and sets in
    /// sorted order) for the planner state digest.
    pub(crate) fn digest_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "dag:e{};", self.edges);
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(
                out,
                "n{i}:{:?}>{:?}{};",
                n.parents,
                n.children,
                if n.completed { "*" } else { "" }
            );
        }
        let mut tracks: Vec<_> = self.tracks.iter().collect();
        tracks.sort_unstable_by_key(|(a, _)| a.0);
        for (a, t) in tracks {
            let _ = write!(out, "t{}:{:?},{:?};", a.0, t.last_writer, t.readers_since);
        }
        let mut frontier: Vec<_> = self.frontier.iter().copied().collect();
        frontier.sort_unstable();
        let _ = write!(out, "f:{frontier:?};");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ce::{Ce, CeArg, CeId, CeKind};
    use gpu_sim::KernelCost;

    const A: ArrayId = ArrayId(1);
    const B: ArrayId = ArrayId(2);
    const C: ArrayId = ArrayId(3);

    fn ce(id: u64, args: Vec<CeArg>) -> Ce {
        Ce {
            id: CeId(id),
            kind: CeKind::Kernel {
                name: "k".into(),
                cost: KernelCost::default(),
            },
            args,
        }
    }

    #[test]
    fn chain_of_writers() {
        let mut dag = DepDag::new();
        let a = dag.add_ce(&ce(0, vec![CeArg::write(A, 8)]));
        let b = dag.add_ce(&ce(1, vec![CeArg::read_write(A, 8)]));
        let c = dag.add_ce(&ce(2, vec![CeArg::read(A, 8)]));
        assert!(a.parents.is_empty());
        assert_eq!(b.parents, vec![0]);
        assert_eq!(c.parents, vec![1], "nearest writer only");
        assert_eq!(dag.edge_count(), 2);
    }

    #[test]
    fn parallel_readers_fan_in_on_writer() {
        let mut dag = DepDag::new();
        dag.add_ce(&ce(0, vec![CeArg::write(A, 8)]));
        let r1 = dag.add_ce(&ce(1, vec![CeArg::read(A, 8), CeArg::write(B, 8)]));
        let r2 = dag.add_ce(&ce(2, vec![CeArg::read(A, 8), CeArg::write(C, 8)]));
        assert_eq!(r1.parents, vec![0]);
        assert_eq!(r2.parents, vec![0]);
        // A writer to A must wait for both readers (WAR).
        let w = dag.add_ce(&ce(3, vec![CeArg::write(A, 8)]));
        assert_eq!(w.parents, vec![1, 2]);
    }

    #[test]
    fn redundant_edge_is_filtered() {
        // The paper's example: C depends on both A and B, but B depends on
        // A, so only the B edge is created.
        let mut dag = DepDag::new();
        dag.add_ce(&ce(0, vec![CeArg::write(A, 8)])); // A
        dag.add_ce(&ce(1, vec![CeArg::read(A, 8), CeArg::write(B, 8)])); // B dep A
        let c = dag.add_ce(&ce(
            2,
            vec![CeArg::read(A, 8), CeArg::read(B, 8), CeArg::write(C, 8)],
        ));
        assert_eq!(c.parents, vec![1], "edge to 0 is redundant via 1");
    }

    #[test]
    fn independent_ces_share_frontier() {
        let mut dag = DepDag::new();
        dag.add_ce(&ce(0, vec![CeArg::write(A, 8)]));
        dag.add_ce(&ce(1, vec![CeArg::write(B, 8)]));
        let f: Vec<_> = dag.frontier().collect();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn superseded_writer_leaves_frontier() {
        let mut dag = DepDag::new();
        dag.add_ce(&ce(0, vec![CeArg::write(A, 8)]));
        dag.add_ce(&ce(1, vec![CeArg::write(A, 8)]));
        let f: Vec<_> = dag.frontier().collect();
        assert_eq!(f, vec![1]);
    }

    #[test]
    fn readiness_tracks_completion() {
        let mut dag = DepDag::new();
        dag.add_ce(&ce(0, vec![CeArg::write(A, 8)]));
        dag.add_ce(&ce(1, vec![CeArg::read(A, 8)]));
        assert_eq!(dag.ready_set(), vec![0]);
        dag.mark_completed(0);
        assert_eq!(dag.ready_set(), vec![1]);
        dag.mark_completed(1);
        assert!(dag.ready_set().is_empty());
    }

    #[test]
    fn readiness_counts_only_incomplete_parents() {
        let mut dag = DepDag::new();
        dag.add_ce(&ce(0, vec![CeArg::write(A, 8)]));
        dag.add_ce(&ce(1, vec![CeArg::write(B, 8)]));
        dag.mark_completed(0);
        // A child added after one parent completed waits for the other
        // only, and a repeated completion is not counted twice.
        dag.add_ce(&ce(2, vec![CeArg::read(A, 8), CeArg::read_write(B, 8)]));
        assert_eq!(dag.parents(2), &[0, 1]);
        dag.mark_completed(0);
        assert!(!dag.is_ready(2));
        dag.mark_completed(1);
        dag.mark_completed(1);
        assert!(dag.is_ready(2));
        dag.mark_completed(2);
        assert!(!dag.is_ready(2));
    }

    #[test]
    fn is_ancestor_follows_transitive_chains() {
        let mut dag = DepDag::new();
        dag.add_ce(&ce(0, vec![CeArg::write(A, 8)]));
        dag.add_ce(&ce(1, vec![CeArg::read_write(A, 8)]));
        dag.add_ce(&ce(2, vec![CeArg::read_write(A, 8)]));
        assert!(dag.is_ancestor(0, 2));
        assert!(dag.is_ancestor(0, 0));
        assert!(!dag.is_ancestor(2, 0));
    }

    #[test]
    fn diamond_joins_once() {
        // init writes A,B; two branches read A / read B writing C / D; join
        // reads C,D.
        let mut dag = DepDag::new();
        dag.add_ce(&ce(0, vec![CeArg::write(A, 8), CeArg::write(B, 8)]));
        dag.add_ce(&ce(1, vec![CeArg::read(A, 8), CeArg::write(C, 8)]));
        dag.add_ce(&ce(2, vec![CeArg::read(B, 8), CeArg::write(ArrayId(4), 8)]));
        let join = dag.add_ce(&ce(3, vec![CeArg::read(C, 8), CeArg::read(ArrayId(4), 8)]));
        assert_eq!(join.parents, vec![1, 2]);
    }
}
