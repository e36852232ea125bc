//! Near-linear, oracle-free MSF certification.
//!
//! [`crate::verify::verify_msf`] certifies a result by re-running Kruskal —
//! an oracle as expensive as the computation under test, useless at the
//! paper's 24M-vertex scale. This module certifies *without an oracle* in
//! near-linear time using the classic MST verification reduction (Tarjan;
//! Komlós; King):
//!
//! Under the workspace's strict [`llp_graph::EdgeKey`] total order the
//! MSF is unique, and a subforest `T ⊆ G` **is** that MSF iff
//!
//! 1. `T`'s edges exist in `G` (with matching weights),
//! 2. `T` is acyclic,
//! 3. `T` spans: no graph edge connects two different trees of `T`,
//! 4. **cycle property**: every non-tree edge is at least as heavy as
//!    every tree edge on the tree path between its endpoints.
//!
//! Check 4 needs path-maximum queries. The King-style machinery that
//! answers them — the Kruskal merge-order separator array plus an O(1)
//! range-max structure — lives in [`crate::index`] as the reusable
//! [`PathMaxIndex`]: building it *is* checks 1-in-part and 2 (the merge
//! replay rejects cycles and out-of-range endpoints), and this module is a
//! thin consumer that sweeps the graph's edges against it. The same index
//! an operator builds once to serve `component` / `path_max` /
//! `connected_under` traffic (see `llp-serve`) is the one certification
//! queries — verify and serve share one code path.
//!
//! The per-query constant is kept deliberately lean:
//!
//! * keys live in the index as order-isomorphic `u128`s, so every
//!   range-max comparison is branch-free integer ALU;
//! * no tree-edge hash lookups — a tree edge's key *equals* its own path
//!   maximum, so check 1 degenerates to counting exact key matches (a
//!   mismatch triggers a slow per-edge scan to name the foreign edge);
//! * check 2 falls out of the index's merge replay (a merge of an
//!   already-joined component is the cycle witness);
//! * check 3 is the infinite-separator sentinel — spanning violations are
//!   discovered by the same `key < path-max` compare that catches cycle
//!   violations, keeping one rare branch in the whole sweep (the failing
//!   vertex is re-scanned slowly to classify and name the error);
//! * when `T` is a single spanning tree, any edge heavier than `T`'s
//!   heaviest passes the cycle property with one register compare, before
//!   any loads.
//!
//! [`certify_msf_par`] parallelizes the query sweep and the tree-edge sort
//! over a [`ThreadPool`]; certification is cheap enough to ride along
//! every benchmarked construction (see the `certified` field of the
//! `llp-mst-run-report/v1` schema).
//!
//! The sweep reads the graph only through [`NeighborSlices`], so it runs
//! in place over any adjacency that keeps each vertex's targets and
//! weights in two parallel slices: a [`CsrGraph`], or the live adjacency
//! lists of [`crate::dynamic::DynamicMsf`], which certifies every epoch
//! without first copying its graph into a CSR.

use crate::index::{key_bits, PathMaxIndex, INF_KEY};
use crate::result::MstResult;
use crate::verify::VerifyError;
use llp_graph::weight::Weight;
use llp_graph::{CsrGraph, Edge, VertexId};
use llp_runtime::sync::Mutex;
use llp_runtime::{parallel_for_chunks, telemetry, ParallelForConfig, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A graph the certification sweep can read in place: each vertex's
/// neighbours as a target slice and a parallel weight slice, with every
/// undirected edge present in both directions.
pub trait NeighborSlices: Sync {
    /// Number of vertices; ids are `0..num_vertices()`.
    fn num_vertices(&self) -> usize;
    /// The targets of `u`'s arcs and their weights, index-aligned.
    fn neighbor_slices(&self, u: VertexId) -> (&[VertexId], &[Weight]);
}

impl NeighborSlices for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn neighbor_slices(&self, u: VertexId) -> (&[VertexId], &[Weight]) {
        CsrGraph::neighbor_slices(self, u)
    }
}

/// Sequential near-linear certification that `result` is the canonical MSF
/// of `graph` — no Kruskal oracle, no O(|T|·m) cut scans.
///
/// Returns the same [`VerifyError`] taxonomy as the exhaustive verifiers:
/// [`VerifyError::ForeignEdge`], [`VerifyError::Cycle`],
/// [`VerifyError::NotSpanning`] or [`VerifyError::CutViolation`].
pub fn certify_msf<G: NeighborSlices + ?Sized>(
    graph: &G,
    result: &MstResult,
) -> Result<(), VerifyError> {
    certify_impl(graph, result, None)
}

/// [`certify_msf`] with the tree-edge sort and the per-edge query sweep
/// parallelized over `pool`.
pub fn certify_msf_par<G: NeighborSlices + ?Sized>(
    graph: &G,
    result: &MstResult,
    pool: &ThreadPool,
) -> Result<(), VerifyError> {
    certify_impl(graph, result, Some(pool))
}

/// Reusable per-worker buffers for [`check_vertex`]'s gather phase.
#[derive(Default)]
struct Scratch {
    pv: Vec<u32>,
    key: Vec<u128>,
}

/// Hot path of the sweep over one vertex's adjacency: how many graph edges
/// were exact key matches of tree edges, or `Err(())` on the first
/// violation — [`classify_vertex`] then re-scans the vertex to name it.
///
/// Runs in two branch-free phases so the out-of-order window is never cut
/// short by data-dependent branches: a gather pass compacts the surviving
/// arcs (forward edges not retired by the weight filter) into `scratch`
/// with a conditional increment, then a query pass folds every range
/// maximum into a violation flag and a match count with no branching at
/// all. Violations surface after the vertex, which is fine: they are
/// terminal, and [`classify_vertex`] re-derives the precise error.
#[inline]
fn check_vertex<G: NeighborSlices + ?Sized>(
    index: &PathMaxIndex,
    graph: &G,
    u: VertexId,
    scratch: &mut Scratch,
) -> Result<usize, ()> {
    let (targets, weights) = graph.neighbor_slices(u);
    let deg = targets.len();
    if scratch.pv.len() < deg {
        scratch.pv.resize(deg, 0);
        scratch.key.resize(deg, 0);
    }
    let pu = index.pos[u as usize];
    let pass_above = index.pass_above;
    let mut k = 0usize;
    for i in 0..deg {
        let (v, w) = (targets[i], weights[i]);
        scratch.pv[k] = index.pos[v as usize];
        scratch.key[k] = key_bits(w, u, v);
        // Keep forward arcs not already retired by the single-tree weight
        // filter (an edge heavier than every tree edge passes the cycle
        // property outright). Non-short-circuit `&` keeps this a compare
        // and an add, never a branch.
        k += usize::from((v > u) & (w <= pass_above));
    }
    let mut bad = false;
    let mut matched = 0usize;
    for j in 0..k {
        // `key < max` is both failure modes at once: a genuine cycle
        // violation, or `max = INF_KEY` marking a cross-tree edge. A graph
        // edge whose key *equals* the path max is the tree edge joining
        // those components (keys are unique).
        let max_on_path = index.path_max_at(pu, scratch.pv[j]);
        bad |= scratch.key[j] < max_on_path;
        matched += usize::from(scratch.key[j] == max_on_path);
    }
    if bad {
        return Err(());
    }
    Ok(matched)
}

/// Slow mirror of [`check_vertex`], taken only for a vertex whose sweep
/// failed: classifies and names the offending edge. Of several violations
/// at one vertex it names the one with the smallest key, so the verdict
/// depends on the edge set alone, not on the order of the adjacency.
#[cold]
fn classify_vertex<G: NeighborSlices + ?Sized>(
    index: &PathMaxIndex,
    graph: &G,
    u: VertexId,
) -> VerifyError {
    let pu = index.pos[u as usize];
    let (targets, weights) = graph.neighbor_slices(u);
    let (v, w, max_on_path) = targets
        .iter()
        .zip(weights)
        .filter(|&(&v, &w)| v > u && w <= index.pass_above)
        .map(|(&v, &w)| (v, w, index.path_max_at(pu, index.pos[v as usize])))
        .filter(|&(v, w, max_on_path)| key_bits(w, u, v) < max_on_path)
        .min_by_key(|&(v, w, _)| key_bits(w, u, v))
        .expect("classify_vertex called for a vertex with no violation");
    let e = Edge::new(u, v, w);
    if max_on_path == INF_KEY {
        VerifyError::NotSpanning(e)
    } else {
        VerifyError::CutViolation(e)
    }
}

/// Slow path taken only when the sweep's key-match count disagrees with
/// the tree size: names a tree edge absent from the graph, if any.
fn find_foreign_edge<G: NeighborSlices + ?Sized>(graph: &G, result: &MstResult) -> Option<Edge> {
    result
        .edges
        .iter()
        .find(|e| {
            let (targets, weights) = graph.neighbor_slices(e.u);
            !targets.iter().zip(weights).any(|(&v, &w)| v == e.v && w == e.w)
        })
        .copied()
}

fn certify_impl<G: NeighborSlices + ?Sized>(
    graph: &G,
    result: &MstResult,
    pool: Option<&ThreadPool>,
) -> Result<(), VerifyError> {
    let n = graph.num_vertices();
    let t = result.edges.len();
    let index = {
        let _s = telemetry::span("certify-build");
        match pool {
            Some(pool) => PathMaxIndex::build_par(n, result, pool)?,
            None => PathMaxIndex::build(n, result)?,
        }
    };
    certify_against(graph, result, &index, pool)?;
    debug_assert_eq!(index.num_components() + t, n);
    Ok(())
}

/// The query half of certification: sweeps every graph edge against an
/// already-built [`PathMaxIndex`] of `result`. Callers that keep the index
/// around for serving (e.g. `llp-serve`) use this directly so the build
/// cost is paid once.
pub fn certify_against<G: NeighborSlices + ?Sized>(
    graph: &G,
    result: &MstResult,
    index: &PathMaxIndex,
    pool: Option<&ThreadPool>,
) -> Result<(), VerifyError> {
    let n = graph.num_vertices();
    let t = result.edges.len();
    assert_eq!(
        index.num_vertices(),
        n,
        "index built over a different vertex set than the graph"
    );

    // Sweep every graph edge once: non-tree edges must not beat the path
    // maximum between their endpoints (cycle property) and must not cross
    // trees (spanning); exact key matches count tree edges found in the
    // graph. Visiting `u`'s adjacency with the `u < v` filter sees each
    // undirected edge exactly once.
    let _s = telemetry::span("certify-query");
    let matched = match pool {
        None => {
            let mut scratch = Scratch::default();
            let mut matched = 0usize;
            for u in 0..n as VertexId {
                match check_vertex(index, graph, u, &mut scratch) {
                    Ok(m) => matched += m,
                    Err(()) => return Err(classify_vertex(index, graph, u)),
                }
            }
            matched
        }
        Some(pool) => {
            // Each chunk stops at its first failing vertex, so the failure
            // at the smallest vertex is the first one of the whole sweep:
            // the one the sequential sweep reports, whatever the chunking.
            let first: Mutex<Option<(VertexId, VerifyError)>> = Mutex::new(None);
            let matched = AtomicUsize::new(0);
            parallel_for_chunks(pool, 0..n, ParallelForConfig::default(), |chunk| {
                let mut scratch = Scratch::default();
                let mut local = 0usize;
                for u in chunk {
                    let u = u as VertexId;
                    match check_vertex(index, graph, u, &mut scratch) {
                        Ok(m) => local += m,
                        Err(()) => {
                            let err = classify_vertex(index, graph, u);
                            let mut f = first.lock();
                            if f.as_ref().is_none_or(|(v, _)| u < *v) {
                                *f = Some((u, err));
                            }
                            return; // rest of this chunk is moot
                        }
                    }
                }
                matched.fetch_add(local, Ordering::Relaxed);
            });
            if let Some((_, err)) = first.into_inner() {
                return Err(err);
            }
            matched.into_inner()
        }
    };

    // Every tree edge's key match was counted exactly once, so a shortfall
    // means a tree edge the graph doesn't contain. (An overcount can only
    // come from duplicate parallel edges in the graph; the slow scan then
    // confirms all tree edges are genuinely present.)
    if matched != t {
        if let Some(e) = find_foreign_edge(graph, result) {
            return Err(VerifyError::ForeignEdge(e));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal;
    use crate::stats::AlgoStats;
    use crate::verify::verify_msf;
    use llp_graph::samples::{fig1, small_forest};
    use llp_graph::EdgeKey;

    #[test]
    fn accepts_msf_on_samples_and_generators() {
        for (name, g) in [
            ("fig1", fig1()),
            ("small_forest", small_forest()),
            ("er", llp_graph::generators::erdos_renyi(200, 600, 7)),
            (
                "road",
                llp_graph::generators::road_network(
                    llp_graph::generators::RoadParams::usa_like(12, 12, 3),
                ),
            ),
        ] {
            let msf = kruskal(&g);
            certify_msf(&g, &msf).unwrap_or_else(|e| panic!("{name}: {e}"));
            let pool = ThreadPool::new(3);
            certify_msf_par(&g, &msf, &pool).unwrap_or_else(|e| panic!("{name} (par): {e}"));
        }
    }

    #[test]
    fn accepts_unsorted_tree_edges() {
        // Parallel algorithms emit tree edges in arbitrary order; the
        // certifier must sort rather than assume Kruskal order.
        let g = llp_graph::generators::erdos_renyi(150, 500, 3);
        let mut msf = kruskal(&g);
        msf.edges.reverse();
        certify_msf(&g, &msf).unwrap();
        let pool = ThreadPool::new(2);
        certify_msf_par(&g, &msf, &pool).unwrap();
    }

    #[test]
    fn key_bits_order_matches_edge_key_order() {
        // The u128 packing must be order-isomorphic to EdgeKey, including
        // negative, zero and subnormal weights.
        let samples = [
            (-3.5, 0u32, 1u32),
            (-0.0, 2, 3),
            (0.0, 1, 4),
            (1e-310, 0, 2),
            (2.0, 0, 1),
            (2.0, 0, 2),
            (2.0, 1, 2),
            (1e300, 5, 6),
        ];
        for &(w1, u1, v1) in &samples {
            for &(w2, u2, v2) in &samples {
                let by_key = EdgeKey::new(w1, u1, v1).cmp(&EdgeKey::new(w2, u2, v2));
                let by_bits = key_bits(w1, u1, v1).cmp(&key_bits(w2, u2, v2));
                assert_eq!(by_key, by_bits, "({w1},{u1},{v1}) vs ({w2},{u2},{v2})");
            }
        }
    }

    #[test]
    fn rejects_suboptimal_spanning_tree_with_cut_violation() {
        let g = fig1();
        // The 9-edge replaces the 7-edge: spanning, acyclic, not minimum.
        let subopt = MstResult::from_edges(
            5,
            vec![
                Edge::new(3, 4, 2.0),
                Edge::new(1, 2, 3.0),
                Edge::new(0, 2, 4.0),
                Edge::new(2, 3, 9.0),
            ],
            AlgoStats::default(),
        );
        assert!(matches!(
            certify_msf(&g, &subopt),
            Err(VerifyError::CutViolation(_))
        ));
    }

    #[test]
    fn rejects_non_spanning_foreign_and_cyclic() {
        let g = fig1();
        let partial = MstResult::from_edges(
            5,
            vec![Edge::new(1, 2, 3.0)],
            AlgoStats::default(),
        );
        assert!(matches!(
            certify_msf(&g, &partial),
            Err(VerifyError::NotSpanning(_))
        ));

        // Swap a real MST edge for a same-endpoints edge with a weight the
        // graph doesn't have: still spanning and acyclic, but foreign.
        let foreign = MstResult::from_edges(
            5,
            vec![
                Edge::new(3, 4, 2.0),
                Edge::new(1, 2, 3.0),
                Edge::new(0, 2, 4.0),
                Edge::new(1, 3, 6.5),
            ],
            AlgoStats::default(),
        );
        assert!(matches!(
            certify_msf(&g, &foreign),
            Err(VerifyError::ForeignEdge(e)) if (e.u, e.v, e.w) == (1, 3, 6.5)
        ));

        let cyclic = MstResult::from_edges(
            5,
            vec![
                Edge::new(1, 2, 3.0),
                Edge::new(0, 2, 4.0),
                Edge::new(0, 1, 5.0),
            ],
            AlgoStats::default(),
        );
        assert!(matches!(
            certify_msf(&g, &cyclic),
            Err(VerifyError::Cycle(_))
        ));
    }

    #[test]
    fn agrees_with_oracle_on_disconnected_forests() {
        // Multiple components plus isolated vertices.
        let g = llp_graph::generators::erdos_renyi(120, 100, 11);
        let msf = kruskal(&g);
        assert!(verify_msf(&g, &msf).is_ok());
        certify_msf(&g, &msf).unwrap();
    }

    #[test]
    fn empty_and_edgeless_graphs_certify() {
        let g = CsrGraph::from_edges(0, &[]);
        let r = MstResult::from_edges(0, vec![], AlgoStats::default());
        certify_msf(&g, &r).unwrap();

        let g = CsrGraph::from_edges(4, &[]);
        let r = MstResult::from_edges(4, vec![], AlgoStats::default());
        certify_msf(&g, &r).unwrap();
        let pool = ThreadPool::new(2);
        certify_msf_par(&g, &r, &pool).unwrap();
    }

    #[test]
    fn deep_path_graph_does_not_overflow() {
        // A 50k-vertex path with monotone weights: one chain absorbs one
        // vertex per merge, the worst case for the replay and the chain
        // walk (and, historically, for a recursive tour).
        let n = 50_000u32;
        let edges: Vec<Edge> = (0..n - 1)
            .map(|i| Edge::new(i, i + 1, i as f64 + 1.0))
            .collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        let msf = kruskal(&g);
        certify_msf(&g, &msf).unwrap();
    }

    #[test]
    fn parallel_rejection_is_stable_and_matches_sequential() {
        let g = fig1();
        let partial = MstResult::from_edges(
            5,
            vec![Edge::new(1, 2, 3.0)],
            AlgoStats::default(),
        );
        let seq = certify_msf(&g, &partial).unwrap_err();
        assert!(matches!(seq, VerifyError::NotSpanning(_)));
        let pool = ThreadPool::new(4);
        for _ in 0..10 {
            let par = certify_msf_par(&g, &partial, &pool).unwrap_err();
            // Under chaos grain sweeps too: the first failing vertex does
            // not depend on the chunking.
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn path_max_matches_tree_walk_on_random_forest() {
        // Cross-check path_max against an explicit BFS path walk on a
        // sparse random forest (several components).
        let g = llp_graph::generators::erdos_renyi(80, 70, 5);
        let msf = kruskal(&g);
        let index = PathMaxIndex::build(g.num_vertices(), &msf).unwrap();

        // Adjacency of the forest itself.
        let n = g.num_vertices();
        let mut adj: Vec<Vec<(u32, u128)>> = vec![Vec::new(); n];
        for e in &msf.edges {
            adj[e.u as usize].push((e.v, key_bits(e.w, e.u, e.v)));
            adj[e.v as usize].push((e.u, key_bits(e.w, e.u, e.v)));
        }
        let walk_max = |s: u32, t: u32| -> Option<u128> {
            let mut best: Vec<Option<u128>> = vec![None; n];
            let mut queue = std::collections::VecDeque::from([s]);
            let mut seen = vec![false; n];
            seen[s as usize] = true;
            while let Some(x) = queue.pop_front() {
                for &(y, k) in &adj[x as usize] {
                    if !seen[y as usize] {
                        seen[y as usize] = true;
                        best[y as usize] = Some(match best[x as usize] {
                            Some(b) if b > k => b,
                            _ => k,
                        });
                        queue.push_back(y);
                    }
                }
            }
            best[t as usize]
        };
        for u in (0..n as u32).step_by(7) {
            for v in (0..n as u32).step_by(5) {
                if u != v {
                    assert_eq!(index.path_max_key(u, v), walk_max(u, v), "path {u}..{v}");
                }
            }
        }
    }

    #[test]
    fn certify_against_reuses_a_prebuilt_index() {
        // The serve-style flow: build once, certify against it, then keep
        // answering queries from the same index.
        let g = llp_graph::generators::erdos_renyi(150, 400, 13);
        let msf = kruskal(&g);
        let index = PathMaxIndex::build(g.num_vertices(), &msf).unwrap();
        certify_against(&g, &msf, &index, None).unwrap();
        let pool = ThreadPool::new(2);
        certify_against(&g, &msf, &index, Some(&pool)).unwrap();
        assert_eq!(index.num_components(), msf.num_trees);
    }
}
