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

use std::collections::HashMap;

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

/// Per-array conflict tracker. `readers_since` is an antichain: no entry
/// is an ancestor of another (see [`DepDag::add_ce`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct ArrayTrack {
    last_writer: Option<DagIndex>,
    readers_since: Vec<DagIndex>,
}

const NO_SLOT: u32 = u32::MAX;

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
    /// Tracker slots (`last_writer` / `readers_since` entries) naming this
    /// node. The node is on the frontier exactly while this is non-zero.
    refs: u32,
    /// The node's [`Frontier`] slot while it is on the frontier.
    slot: u32,
}

/// The frontier as recycled slots plus, per slot, a bitset of the slots
/// whose occupants are ancestors of this slot's occupant.
///
/// Row `s` of `anc` is exact for the nodes *currently* on the frontier:
/// a new node's row is the union over its parents `p` of `{p} ∪ anc(p)`,
/// every parent is on the frontier when its child is inserted, and a node
/// is on the frontier for one contiguous interval — so an ancestor that is
/// still on the frontier was on it (same slot, bit intact) at every hop of
/// the path down to the new node. Releasing a slot clears its column, so a
/// later occupant is never taken for an ancestor of its predecessor's
/// descendants.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Frontier {
    /// Slot -> occupying node.
    slots: Vec<Option<DagIndex>>,
    /// Vacant slots, most recently vacated last.
    free: Vec<u32>,
    /// Row-major bit matrix, `stride` words per slot; vacant rows are zero.
    anc: Vec<u64>,
    stride: usize,
}

impl Frontier {
    fn acquire(&mut self, node: DagIndex) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            if self.slots.len() == self.stride * 64 {
                self.widen();
            }
            self.slots.push(None);
            self.anc.resize(self.slots.len() * self.stride, 0);
            (self.slots.len() - 1) as u32
        });
        self.slots[slot as usize] = Some(node);
        slot
    }

    /// Doubles the row width, keeping every row's bits.
    fn widen(&mut self) {
        let stride = (self.stride * 2).max(1);
        let mut anc = vec![0; self.slots.len() * stride];
        // (`max(1)`: the first call finds `stride == 0` and no rows.)
        for (s, old) in self.anc.chunks_exact(self.stride.max(1)).enumerate() {
            anc[s * stride..s * stride + self.stride].copy_from_slice(old);
        }
        self.anc = anc;
        self.stride = stride;
    }

    fn release(&mut self, slot: u32) {
        let s = slot as usize;
        self.slots[s] = None;
        self.free.push(slot);
        self.anc[s * self.stride..(s + 1) * self.stride].fill(0);
        let (word, bit) = (s / 64, 1u64 << (s % 64));
        for row in self.anc.chunks_exact_mut(self.stride) {
            row[word] &= !bit;
        }
        work(self.slots.len() + self.stride);
    }

    /// Whether the occupant of slot `a` is an ancestor of the occupant of
    /// slot `of`.
    fn is_ancestor(&self, a: u32, of: u32) -> bool {
        let a = a as usize;
        self.anc[of as usize * self.stride + a / 64] >> (a % 64) & 1 == 1
    }

    fn set_ancestor(&mut self, a: u32, of: u32) {
        let a = a as usize;
        self.anc[of as usize * self.stride + a / 64] |= 1 << (a % 64);
    }

    /// `anc(dst) |= anc(src)`.
    fn inherit(&mut self, dst: u32, src: u32) {
        let (d, s) = (dst as usize * self.stride, src as usize * self.stride);
        for w in 0..self.stride {
            self.anc[d + w] |= self.anc[s + w];
        }
        work(self.stride);
    }
}

// Test-only count of the nodes visited and bitset words touched by
// `DepDag::add_ce` on this thread: the history-independence tests assert
// on work done, not on wall clock.
#[cfg(test)]
thread_local!(static WORK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });

#[inline(always)]
fn work(_units: usize) {
    #[cfg(test)]
    WORK.with(|w| w.set(w.get() + _units as u64));
}

/// A dependency DAG over CEs (used as the Controller's *Global DAG* and each
/// Worker's *Local DAG*). Equality is replica equality: same nodes, edges,
/// per-array trackers and frontier.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DepDag {
    nodes: Vec<Node>,
    tracks: HashMap<ArrayId, ArrayTrack>,
    frontier: Frontier,
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
        self.frontier.slots.iter().flatten().copied()
    }

    /// Whether `ancestor` can reach `node` following child edges.
    pub fn is_ancestor(&self, ancestor: DagIndex, node: DagIndex) -> bool {
        if ancestor >= node {
            return ancestor == node;
        }
        // Parents have smaller indices, so one downward sweep over the
        // window (ancestor, node] expands every reachable node once; bit
        // `k` stands for node `node - k`.
        let span = node - ancestor;
        let mut reached = vec![0u64; span / 64 + 1];
        reached[0] = 1;
        for k in 0..span {
            if reached[k / 64] >> (k % 64) & 1 == 0 {
                continue;
            }
            for &p in &self.nodes[node - k].parents {
                if p == ancestor {
                    return true;
                }
                if p > ancestor {
                    let j = node - p;
                    reached[j / 64] |= 1 << (j % 64);
                }
            }
        }
        false
    }

    /// Inserts a CE per Algorithm 1: computes conflicts against the
    /// frontier, filters redundant ancestors, adds edges and updates the
    /// frontier. Returns the new index and its direct dependencies.
    ///
    /// The cost follows the CE's arguments and the frontier's width, never
    /// the DAG's history or the number of live arrays.
    pub fn add_ce(&mut self, ce: &Ce) -> AddOutcome {
        let index = self.nodes.len();

        // Gather candidate ancestors from the per-array trackers: every
        // access conflicts with the last writer (RAW for a read, WAW for a
        // write); a write also with every reader since (WAR).
        let mut parents: Vec<DagIndex> = Vec::new();
        for arg in &ce.args {
            let Some(track) = self.tracks.get(&arg.array) else {
                continue;
            };
            parents.extend(track.last_writer);
            if arg.mode.writes() {
                parents.extend_from_slice(&track.readers_since);
            }
        }
        parents.sort_unstable();
        parents.dedup();
        work(parents.len());

        // filterRedundant: drop any candidate that is an ancestor of
        // another candidate (the other already transitively orders it).
        // Every candidate is on the frontier, so the union of their rows
        // names exactly the candidates to drop and, once the surviving
        // parents are added, is the new node's own row.
        let slot = if ce.args.is_empty() {
            NO_SLOT
        } else {
            let slot = self.frontier.acquire(index);
            for &c in &parents {
                self.frontier.inherit(slot, self.nodes[c].slot);
            }
            parents.retain(|&c| !self.frontier.is_ancestor(self.nodes[c].slot, slot));
            for &p in &parents {
                self.frontier.set_ancestor(self.nodes[p].slot, slot);
            }
            slot
        };

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
            refs: 0,
            slot,
        });
        for &p in &parents {
            self.nodes[p].children.push(index);
            self.edges += 1;
        }

        // Update per-array trackers; a write supersedes the previous writer
        // and the readers since it for that array. The new node is counted
        // before anything it replaces is dropped, so an array named twice
        // never takes its count through zero.
        for arg in &ce.args {
            let track = self.tracks.entry(arg.array).or_default();
            if arg.mode.writes() {
                self.nodes[index].refs += 1;
                if let Some(w) = track.last_writer.replace(index) {
                    Self::unref(&mut self.nodes, &mut self.frontier, w);
                }
                for r in track.readers_since.drain(..) {
                    Self::unref(&mut self.nodes, &mut self.frontier, r);
                }
            } else if track.readers_since.last() != Some(&index) {
                self.nodes[index].refs += 1;
                // Keep the readers an antichain. A reader that is an
                // ancestor of this one would be filtered as redundant by
                // any later writer, because this reader (or a descendant
                // that replaced it) is a candidate too; dropping it now
                // cannot change a parent set.
                work(track.readers_since.len());
                track.readers_since.retain(|&r| {
                    let covered = self.frontier.is_ancestor(self.nodes[r].slot, slot);
                    if covered {
                        Self::unref(&mut self.nodes, &mut self.frontier, r);
                    }
                    !covered
                });
                track.readers_since.push(index);
            }
        }

        AddOutcome { index, parents }
    }

    /// Drops one tracker slot's reference to `i`; the node leaves the
    /// frontier with the last one.
    fn unref(nodes: &mut [Node], frontier: &mut Frontier, i: DagIndex) {
        let n = &mut nodes[i];
        n.refs -= 1;
        if n.refs == 0 {
            frontier.release(std::mem::replace(&mut n.slot, NO_SLOT));
        }
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
    /// sorted order) for the planner state digest. Only canonical state is
    /// dumped: `refs`, slot numbers and the ancestor rows are derived.
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
        let mut frontier: Vec<_> = self.frontier().collect();
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

    #[test]
    fn zero_argument_ce_never_joins_the_frontier() {
        let mut dag = DepDag::new();
        dag.add_ce(&ce(0, vec![CeArg::write(A, 8)]));
        let lone = dag.add_ce(&ce(1, vec![]));
        assert!(lone.parents.is_empty());
        assert_eq!(dag.frontier().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn array_named_twice_keeps_the_node_on_the_frontier() {
        for args in [
            vec![CeArg::read(A, 8), CeArg::write(A, 8)],
            vec![CeArg::write(A, 8), CeArg::read(A, 8)],
            vec![CeArg::write(A, 8), CeArg::write(A, 8)],
            vec![CeArg::read(A, 8), CeArg::read(A, 8)],
        ] {
            let mut dag = DepDag::new();
            dag.add_ce(&ce(0, vec![CeArg::write(A, 8)]));
            dag.add_ce(&ce(1, args));
            assert_eq!(dag.frontier().filter(|&f| f == 1).count(), 1);
            let next = dag.add_ce(&ce(2, vec![CeArg::write(A, 8)]));
            assert_eq!(next.parents, vec![1]);
            assert_eq!(dag.frontier().collect::<Vec<_>>(), vec![2]);
        }
    }

    #[test]
    fn ancestor_rows_survive_widening_and_slot_reuse() {
        // 200 live writers (three row widths), chained through reads.
        let arr = |i: u64| ArrayId(100 + i);
        let mut dag = DepDag::new();
        dag.add_ce(&ce(0, vec![CeArg::write(arr(0), 8)]));
        for i in 1..200 {
            dag.add_ce(&ce(
                i,
                vec![CeArg::read(arr(i - 1), 8), CeArg::write(arr(i), 8)],
            ));
        }
        assert_eq!(dag.frontier().count(), 200);
        let join = dag.add_ce(&ce(
            200,
            vec![CeArg::read(arr(0), 8), CeArg::read(arr(199), 8)],
        ));
        assert_eq!(join.parents, vec![199], "0 reaches 199 through the chain");
        // Rewriting arr(0) retires node 0 and its two readers; whoever
        // takes their slots must not pass for an ancestor of the chain.
        dag.add_ce(&ce(201, vec![CeArg::write(arr(0), 8)]));
        let fresh = dag.add_ce(&ce(202, vec![CeArg::write(ArrayId(7), 8)]));
        assert!(fresh.parents.is_empty());
        let both = dag.add_ce(&ce(
            203,
            vec![CeArg::read(ArrayId(7), 8), CeArg::read(arr(150), 8)],
        ));
        assert_eq!(both.parents, vec![150, 202]);
    }

    /// The parent commit's `add_ce` / `prune_frontier` / `is_ancestor`,
    /// verbatim apart from the readiness bookkeeping (which did not
    /// change): the exactness tests compare every insert against it.
    mod reference {
        use std::collections::{HashMap, HashSet};

        use super::super::{AddOutcome, ArrayTrack, DagIndex};
        use crate::ce::{ArrayId, Ce};

        #[derive(Default)]
        pub struct Node {
            pub parents: Vec<DagIndex>,
            pub children: Vec<DagIndex>,
        }

        #[derive(Default)]
        pub struct RefDag {
            pub nodes: Vec<Node>,
            tracks: HashMap<ArrayId, ArrayTrack>,
            frontier: HashSet<DagIndex>,
            pub edges: usize,
        }

        impl RefDag {
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

            pub fn add_ce(&mut self, ce: &Ce) -> AddOutcome {
                let index = self.nodes.len();

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

                self.nodes.push(Node {
                    parents: parents.clone(),
                    children: Vec::new(),
                });
                for &p in &parents {
                    self.nodes[p].children.push(index);
                    self.edges += 1;
                }

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
        }
    }

    impl DepDag {
        /// How many tracker slots name each node (the definition `refs`
        /// must match), by rescanning every tracker.
        fn tracker_slots(&self) -> HashMap<DagIndex, u32> {
            let mut named = HashMap::new();
            for t in self.tracks.values() {
                for &i in t.last_writer.iter().chain(&t.readers_since) {
                    *named.entry(i).or_insert(0) += 1;
                }
            }
            named
        }

        /// Checks the derived state against its definitions; `dfs` answers
        /// reachability the old way.
        fn check_derived(&self, dfs: &reference::RefDag, all_pairs: bool) {
            let named = self.tracker_slots();
            let mut frontier: Vec<_> = self.frontier().collect();
            frontier.sort_unstable();
            let mut want: Vec<_> = named.keys().copied().collect();
            want.sort_unstable();
            assert_eq!(frontier, want, "frontier == named by some tracker slot");
            for (i, n) in self.nodes.iter().enumerate() {
                assert_eq!(n.refs, named.get(&i).copied().unwrap_or(0), "refs of {i}");
                assert_eq!(n.slot != NO_SLOT, n.refs > 0, "slot of {i}");
            }
            for t in self.tracks.values() {
                for &a in &t.readers_since {
                    for &b in &t.readers_since {
                        assert!(a == b || !dfs.is_ancestor(a, b), "readers not an antichain");
                    }
                }
            }
            if all_pairs {
                for &a in &frontier {
                    for &b in &frontier {
                        assert_eq!(
                            self.frontier
                                .is_ancestor(self.nodes[a].slot, self.nodes[b].slot),
                            a != b && dfs.is_ancestor(a, b),
                            "bitset vs DFS on ({a}, {b})"
                        );
                    }
                }
            }
        }
    }

    use proptest::prelude::*;

    /// Array 0 is the read-only input (written once, by the stream's first
    /// CE); array 63 carries the long RW chain.
    fn arb_args() -> impl Strategy<Value = Vec<CeArg>> {
        let pick = |(a, m): (u64, u8)| match m {
            0 => CeArg::read(ArrayId(a), 8),
            1 => CeArg::write(ArrayId(a), 8),
            _ => CeArg::read_write(ArrayId(a), 8),
        };
        (0u8..12, proptest::collection::vec((1u64..64, 0u8..3), 1..5)).prop_map(
            move |(shape, picks)| {
                let a = ArrayId(picks[0].0);
                match shape {
                    0 => vec![],
                    1..=3 => vec![CeArg::read_write(ArrayId(63), 8)],
                    4 => vec![
                        CeArg::read(ArrayId(0), 8),
                        CeArg::read_write(ArrayId(63), 8),
                    ],
                    5 => vec![CeArg::read(ArrayId(0), 8), pick(picks[0])],
                    6 => vec![CeArg::read(a, 8), CeArg::write(a, 8)],
                    7 => vec![CeArg::write(a, 8), CeArg::read(a, 8)],
                    8 => vec![CeArg::read(a, 8), CeArg::read(a, 8)],
                    // Unfiltered picks: an array may repeat here too.
                    _ => picks.into_iter().map(pick).collect(),
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every insert returns the parents the old code returned, and the
        /// derived state (refs, frontier, antichain, ancestor rows) matches
        /// its definition at every step.
        #[test]
        fn inserts_match_the_reference_exactly(
            stream in proptest::collection::vec(arb_args(), 1..260)
        ) {
            let mut dag = DepDag::new();
            let mut old = reference::RefDag::default();
            let first = ce(0, vec![CeArg::write(ArrayId(0), 8)]);
            prop_assert_eq!(dag.add_ce(&first), old.add_ce(&first));
            for (i, args) in stream.into_iter().enumerate() {
                let ce = ce(i as u64 + 1, args);
                prop_assert_eq!(dag.add_ce(&ce), old.add_ce(&ce), "insert {}", i + 1);
                dag.check_derived(&old, i % 16 == 0);
            }
            dag.check_derived(&old, true);
            prop_assert_eq!(dag.edge_count(), old.edges);
            let n = dag.len();
            for j in 0..n {
                prop_assert_eq!(dag.children(j), &old.nodes[j].children[..]);
                prop_assert_eq!(dag.parents(j), &old.nodes[j].parents[..]);
            }
            // The public, general query agrees with the old DFS as well.
            for j in (0..n).step_by(n / 24 + 1) {
                for i in 0..=j {
                    prop_assert_eq!(dag.is_ancestor(i, j), old.is_ancestor(i, j));
                    prop_assert_eq!(dag.is_ancestor(j, i), old.is_ancestor(j, i));
                }
            }
        }
    }

    // ----- history independence, in counted work ----------------------------

    /// Tracker entries and frontier nodes currently held.
    fn held(dag: &DepDag) -> (usize, usize) {
        let slots = dag.tracker_slots();
        (slots.values().sum::<u32>() as usize, dag.frontier().count())
    }

    /// Feeds 64k CEs and returns the mean counted work per insert over
    /// inserts 1000..5000 and 60000..64000, with the state sizes at the end
    /// of each window.
    fn early_and_late(mut args_of: impl FnMut(u64) -> Vec<CeArg>) -> [(f64, (usize, usize)); 2] {
        let mut dag = DepDag::new();
        let mut window = |dag: &mut DepDag, from: u64, to: u64| {
            for i in dag.len() as u64..from {
                dag.add_ce(&ce(i, args_of(i)));
            }
            let before = WORK.with(|w| w.get());
            for i in from..to {
                dag.add_ce(&ce(i, args_of(i)));
            }
            let spent = WORK.with(|w| w.get()) - before;
            (spent as f64 / (to - from) as f64, held(dag))
        };
        [
            window(&mut dag, 1000, 5000),
            window(&mut dag, 60_000, 64_000),
        ]
    }

    #[test]
    fn rw_chain_with_a_constant_input_costs_the_same_after_64k_inserts() {
        // The oplog bench's stream: one RW chain, one input only ever read.
        let [(early, held_early), (late, held_late)] =
            early_and_late(|_| vec![CeArg::read_write(A, 8), CeArg::read(B, 8)]);
        assert!(late <= 2.0 * early, "work per insert {early} -> {late}");
        assert_eq!(held_early, held_late, "trackers and frontier stay bounded");
        assert_eq!(held_late, (2, 1));
    }

    #[test]
    fn scaleout_shape_costs_the_same_after_64k_inserts() {
        // 256 arrays; each CE read-modify-writes one and maybe reads another.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let [(early, _), (late, _)] = early_and_late(|_| {
            let rw = below(256);
            let mut args = vec![CeArg::read_write(ArrayId(rw), 8)];
            if below(2) == 0 {
                args.push(CeArg::read(ArrayId((rw + 1 + below(255)) % 256), 8));
            }
            args
        });
        assert!(late <= 2.0 * early, "work per insert {early} -> {late}");
    }

    #[test]
    fn written_once_input_costs_the_same_after_64k_inserts() {
        // Index 0 host-writes the input; every later CE reads it and
        // read-modify-writes one of 8 rotating outputs.
        let [(early, held_early), (late, held_late)] = early_and_late(|i| match i {
            0 => vec![CeArg::write(A, 8)],
            _ => vec![CeArg::read(A, 8), CeArg::read_write(ArrayId(10 + i % 8), 8)],
        });
        assert!(late <= 2.0 * early, "work per insert {early} -> {late}");
        assert_eq!(held_early, held_late, "trackers and frontier stay bounded");
        assert_eq!(held_late, (1 + 8 + 8, 1 + 8));
    }
}
