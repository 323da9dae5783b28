//! Property-based correctness of the dependency DAG (paper Algorithm 1):
//! against arbitrary CE streams, the DAG must be acyclic, transitively
//! reduced, and *sound* — every true pairwise dependency must be implied by
//! the recorded edges.
#![allow(clippy::needless_range_loop)] // triangular index math reads best bare

use grout_core::{
    ArrayId, Ce, CeArg, CeId, CeKind, Coherence, DepDag, ExplorationLevel, KernelCost, LinkMatrix,
    NodeScheduler, PolicyKind,
};
use proptest::prelude::*;

/// A compact encoding of a random CE: a few (array, mode) pairs.
fn arb_ce(id: u64, max_arrays: u64) -> impl Strategy<Value = Ce> {
    proptest::collection::vec((0..max_arrays, 0u8..3), 1..4).prop_map(move |args| {
        let mut seen = Vec::new();
        let args = args
            .into_iter()
            .filter(|(a, _)| {
                if seen.contains(a) {
                    false
                } else {
                    seen.push(*a);
                    true
                }
            })
            .map(|(a, m)| match m {
                0 => CeArg::read(ArrayId(a), 64),
                1 => CeArg::write(ArrayId(a), 64),
                _ => CeArg::read_write(ArrayId(a), 64),
            })
            .collect();
        Ce {
            id: CeId(id),
            kind: CeKind::Kernel {
                name: "p".into(),
                cost: KernelCost::default(),
            },
            args,
        }
    })
}

fn arb_stream() -> impl Strategy<Value = Vec<Ce>> {
    proptest::collection::vec((0..6u64, 0u8..1), 1..40).prop_flat_map(|seed| {
        let n = seed.len();
        let mut strategies = Vec::new();
        for i in 0..n {
            strategies.push(arb_ce(i as u64, 6));
        }
        strategies
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edges only point backwards (acyclicity by construction) and the
    /// parent set is transitively reduced.
    #[test]
    fn dag_is_acyclic_and_reduced(stream in arb_stream()) {
        let mut dag = DepDag::new();
        for ce in &stream {
            let out = dag.add_ce(ce);
            for &p in &out.parents {
                prop_assert!(p < out.index, "edge must point backwards");
            }
            // No parent may be an ancestor of another parent.
            for &a in &out.parents {
                for &b in &out.parents {
                    if a != b {
                        prop_assert!(
                            !dag.is_ancestor(a, b),
                            "parent {a} is an ancestor of parent {b}: not reduced"
                        );
                    }
                }
            }
        }
    }

    /// Soundness: for every pair (i, j) with a true data dependency
    /// (RAW/WAR/WAW per `Ce::depends_on`), the DAG must order them
    /// transitively.
    #[test]
    fn dag_is_sound_vs_bruteforce(stream in arb_stream()) {
        let mut dag = DepDag::new();
        for ce in &stream {
            dag.add_ce(ce);
        }
        for j in 0..stream.len() {
            for i in 0..j {
                if stream[j].depends_on(&stream[i]) {
                    prop_assert!(
                        dag.is_ancestor(i, j),
                        "CE {j} depends on CE {i} but the DAG does not order them"
                    );
                }
            }
        }
    }

    /// Completing CEs in submission order always yields a valid schedule
    /// (every CE becomes ready exactly once).
    #[test]
    fn submission_order_is_a_valid_schedule(stream in arb_stream()) {
        let mut dag = DepDag::new();
        for ce in &stream {
            dag.add_ce(ce);
        }
        for i in 0..stream.len() {
            prop_assert!(dag.is_ready(i), "CE {i} not ready in submission order");
            dag.mark_completed(i);
        }
        prop_assert!((0..dag.len()).all(|i| !dag.is_ready(i)));
    }

    /// Completeness (the flip side of redundant-edge filtering): the DAG
    /// orders a pair if and only if a chain of true pairwise dependencies
    /// orders it. Filtering may drop edges, never ordering; and no spurious
    /// ordering is ever invented.
    #[test]
    fn dag_ordering_equals_dependency_closure(stream in arb_stream()) {
        let mut dag = DepDag::new();
        for ce in &stream {
            dag.add_ce(ce);
        }
        let n = stream.len();
        // Brute-force transitive closure of `depends_on`.
        let mut closure = vec![vec![false; n]; n];
        for j in 0..n {
            // Descend so closure[k][j] (k > i) is final before it feeds
            // closure[i][j].
            for i in (0..j).rev() {
                closure[i][j] = stream[j].depends_on(&stream[i])
                    || (i + 1..j).any(|k| closure[i][k] && closure[k][j]);
            }
        }
        for j in 0..n {
            for i in 0..j {
                prop_assert_eq!(
                    dag.is_ancestor(i, j),
                    closure[i][j],
                    "DAG ordering of ({}, {}) disagrees with the dependency closure", i, j
                );
            }
        }
    }

    /// Frontier maintenance: direct dependencies are always drawn from the
    /// frontier as it stood before the insert, and a CE that touches arrays
    /// always joins the frontier it may later be depended on through.
    #[test]
    fn parents_come_from_the_maintained_frontier(stream in arb_stream()) {
        let mut dag = DepDag::new();
        for ce in &stream {
            let before: Vec<_> = dag.frontier().collect();
            let out = dag.add_ce(ce);
            for &p in &out.parents {
                prop_assert!(
                    before.contains(&p),
                    "parent {p} of CE {} was not on the frontier", out.index
                );
            }
            if !ce.args.is_empty() {
                prop_assert!(
                    dag.frontier().any(|f| f == out.index),
                    "CE {} with args must join the frontier", out.index
                );
            }
            // The frontier never references CEs that do not exist.
            prop_assert!(dag.frontier().all(|f| f < dag.len()));
        }
    }

    /// Min-transfer-time degrades to round-robin while no worker holds
    /// enough up-to-date data to clear the exploration threshold (paper
    /// Section IV-D): on a cold cluster the assignment sequence is exactly
    /// the round-robin one, whatever the CE stream or link speeds.
    #[test]
    fn min_transfer_time_falls_back_to_round_robin(
        stream in arb_stream(),
        workers in 1usize..5,
        level in prop_oneof![
            Just(ExplorationLevel::Low),
            Just(ExplorationLevel::Medium),
            Just(ExplorationLevel::High),
        ],
    ) {
        let links = LinkMatrix::uniform(workers + 1, 1e9);
        let mut mtt = NodeScheduler::new(
            PolicyKind::MinTransferTime(level),
            workers,
            Some(links),
        );
        let mut rr = NodeScheduler::new(PolicyKind::RoundRobin, workers, None);
        // Every array lives only on the controller: no worker can clear
        // any exploration threshold.
        let mut coherence = Coherence::new();
        for a in 0..6u64 {
            coherence.register(ArrayId(a));
        }
        for ce in &stream {
            prop_assert_eq!(
                mtt.assign(ce, &coherence),
                rr.assign(ce, &coherence),
                "cold-cluster min-transfer-time must match round-robin"
            );
        }
    }
}
