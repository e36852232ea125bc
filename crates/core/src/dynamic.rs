//! Fully dynamic MSF: batched edge insertions and deletions as epochs on
//! the lattice.
//!
//! The paper's fixed-point framing (and Alves & Garg's common LLP
//! framework) treats MSF construction as advancing a global state vector
//! up a lattice until a predicate holds. Nothing in that framing requires
//! starting from the bottom: a *batch of updates* re-enters the lattice
//! from a warm start — the previous epoch's certified forest — and only
//! the state the batch invalidates is recomputed. [`DynamicMsf`] realises
//! that as an epoch loop whose work follows the trees a batch touches, not
//! their edges.
//!
//! **Candidate-set lemma.** Let `F` be the certified MSF of `G`, `D` the
//! deleted edges, `I` the inserted ones and `G' = G − D + I`. Then
//! `MSF(G') = MSF(C)` with `C = (F − D) ∪ I ∪ X`, where `X` holds the
//! non-tree edges of `G − D` whose endpoints lie in different components
//! ("fragments") of `F − D`. Every other non-tree edge still closes its
//! `F`-cycle inside `G'` and is the heaviest edge on it, so the cycle
//! property drops it — the same composition fact Sanders & Schimek's
//! Borůvka-filter rests on. An epoch therefore runs:
//!
//! * **Deletes.** An arc is a tree edge iff its key equals the frozen
//!   [`PathMaxIndex`]'s `path_max(u, v)`; deleting one cuts its tree.
//! * **Fragments.** Only trees that lost a tree edge are split into the
//!   fragments of `F − D`. `X` is found by scanning the arcs of every
//!   fragment except the one with the most arcs in its tree — the smaller
//!   sides, as in Holm–de Lichtenberg–Thorup.
//! * **Inserts.** Classified against the frozen index in a parallel
//!   read-only sweep (chaos-instrumented chunk claims, like every other
//!   sweep in the workspace). An insert whose endpoints share a fragment
//!   and whose key loses to `path_max` closes a cycle in `G'` on which it
//!   is heaviest: it is dropped exactly (a *fast reject*). Links between
//!   trees, inserts that beat `path_max`, and inserts straddling a cut
//!   join `C`.
//! * **Kruskal.** One pass by [`llp_graph::EdgeKey`] over `C`, restricted
//!   to the touched trees — those that lost a tree edge or gained a
//!   candidate. Every other tree is kept verbatim.
//! * **Certification**: every epoch ends with the full oracle-free sweep
//!   ([`certify_against`]) of every live edge against the rebuilt index,
//!   read in place from the adjacency lists, so a served epoch is never
//!   weaker than the from-scratch pipeline. The lattice never retracts: a
//!   certified epoch is a fixed point, and the next batch advances from
//!   it.
//!
//! Failure posture: inputs are validated (range, self-loops, non-finite
//! weights) *before* any state is touched, so user errors are clean
//! [`DynamicError`]s with the structure untouched. An error *after*
//! mutation began ([`DynamicError::Overflow`] /
//! [`DynamicError::Certify`]) indicates an internal invariant violation;
//! the structure must then be discarded and rebuilt — it never serves an
//! uncertified epoch.

use crate::certify::{certify_against, NeighborSlices};
use crate::index::{key_bits, PathMaxIndex};
use crate::llp_boruvka::llp_boruvka_from_edges;
use crate::result::{ForestOverflow, MstResult};
use crate::stats::AlgoStats;
use crate::union_find::UnionFind;
use crate::verify::VerifyError;
use llp_graph::weight::Weight;
use llp_graph::{CsrGraph, Edge, VertexId};
use llp_runtime::sort::par_sort_by_key;
use llp_runtime::sync::Mutex;
use llp_runtime::{parallel_for_chunks, telemetry, ParallelForConfig, ThreadPool};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Below this many fresh inserts the classification sweep runs inline —
/// the parallel fan-out costs more than the queries.
const PAR_CLASSIFY_THRESHOLD: usize = 64;

/// Fragment label of a vertex outside every cut tree.
const NO_FRAGMENT: u32 = u32::MAX;

/// A rejected or failed dynamic update.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicError {
    /// An update named a vertex outside `0..n`.
    OutOfRange(Edge),
    /// An inserted edge had both endpoints equal.
    SelfLoop(Edge),
    /// An inserted edge carried a NaN or infinite weight.
    NonFiniteWeight(Edge),
    /// The epoch assembled more tree edges than vertices — an internal
    /// invariant violation (the Kruskal pass produced a non-forest).
    Overflow(ForestOverflow),
    /// The epoch snapshot failed certification — an internal invariant
    /// violation; the structure must be rebuilt from scratch.
    Certify(VerifyError),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::OutOfRange(e) => {
                write!(f, "update ({}, {}) names a vertex out of range", e.u, e.v)
            }
            DynamicError::SelfLoop(e) => write!(f, "insert ({}, {}) is a self-loop", e.u, e.v),
            DynamicError::NonFiniteWeight(e) => write!(
                f,
                "insert ({}, {}) carries non-finite weight {}",
                e.u, e.v, e.w
            ),
            DynamicError::Overflow(o) => write!(f, "epoch produced a non-forest: {o}"),
            DynamicError::Certify(e) => write!(f, "epoch snapshot failed certification: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {}

impl From<VerifyError> for DynamicError {
    fn from(e: VerifyError) -> Self {
        DynamicError::Certify(e)
    }
}

/// What one [`DynamicMsf::apply_batch`] epoch did, with per-phase wall
/// clock — the numbers the dynamic bench aggregates into
/// `llp-mst-dynamic-report/v1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochReport {
    /// Epoch number after this batch (starts at 0 for the initial build).
    pub epoch: u64,
    /// Fresh edges added to the graph.
    pub inserts_applied: usize,
    /// Inserts naming an edge already present (no-ops).
    pub inserts_duplicate: usize,
    /// Edges removed from the graph.
    pub deletes_applied: usize,
    /// Deletes naming an edge not present (no-ops).
    pub deletes_missing: usize,
    /// Inserts whose endpoints share a fragment and whose key beats the
    /// forest path maximum between them. That bottleneck edge is certainly
    /// evicted; the insert joins the Kruskal pass, which settles the
    /// forest.
    pub fast_swaps: usize,
    /// Inserts whose endpoints share a fragment and whose key loses to the
    /// forest path maximum: dropped by one path-max query, never handed to
    /// the Kruskal pass.
    pub fast_rejects: usize,
    /// Inserts joining two previously separate trees (candidates of the
    /// Kruskal pass).
    pub links: usize,
    /// Trees of the previous epoch that went through the Kruskal pass:
    /// those that lost a tree edge or gained a candidate insert.
    pub dirty_components: usize,
    /// Vertices of the trees that went through the Kruskal pass.
    pub rebuild_vertices: usize,
    /// Edges handed to the Kruskal pass: the surviving tree edges of the
    /// dirty trees, the non-tree edges crossing their fragments, and the
    /// candidate inserts.
    pub rebuild_edges: usize,
    /// Whether the forest changed (and the index was rebuilt).
    pub tree_changed: bool,
    /// Classification sweep, milliseconds.
    pub classify_ms: f64,
    /// Fragment labelling, crossing-edge scan and Kruskal pass,
    /// milliseconds.
    pub rebuild_ms: f64,
    /// Index rebuild, milliseconds.
    pub index_ms: f64,
    /// Certification sweep, milliseconds.
    pub certify_ms: f64,
}

impl EpochReport {
    /// Updates this epoch actually consumed (applied + no-ops) — the
    /// numerator of the bench's edges/sec.
    pub fn updates(&self) -> usize {
        self.inserts_applied + self.inserts_duplicate + self.deletes_applied + self.deletes_missing
    }
}

/// How a fresh insert relates to the frozen epoch index and the fragments
/// of the cut trees.
#[derive(Clone, Copy)]
enum InsertClass {
    /// Endpoints in different trees: a candidate that merges them.
    Link,
    /// Endpoints in one tree but different fragments: a candidate that may
    /// reconnect them.
    Straddle,
    /// Endpoints in one fragment, key below the path maximum: a candidate
    /// that evicts that maximum.
    Beats,
    /// Endpoints in one fragment, key above the path maximum: dropped.
    Loses,
}

/// Undirected adjacency lists, both directions, kept as per-vertex target
/// and weight vectors so the certifier sweeps them in place
/// ([`NeighborSlices`]).
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    targets: Vec<Vec<VertexId>>,
    weights: Vec<Vec<Weight>>,
}

impl Adjacency {
    /// The adjacency of a simple graph over `n` vertices: each edge goes
    /// into both endpoints' lists, in edge-list order. Parallel edges and
    /// self-loops are the caller's to remove first.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Adjacency {
        let mut degree = vec![0usize; n];
        for e in edges {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        let mut adj = Adjacency {
            targets: degree.iter().map(|&d| Vec::with_capacity(d)).collect(),
            weights: degree.iter().map(|&d| Vec::with_capacity(d)).collect(),
        };
        for e in edges {
            adj.insert(e.u, e.v, e.w);
        }
        adj
    }

    fn degree(&self, u: VertexId) -> usize {
        self.targets[u as usize].len()
    }

    fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.targets[u as usize].contains(&v)
    }

    fn insert(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.targets[u as usize].push(v);
        self.weights[u as usize].push(w);
        self.targets[v as usize].push(u);
        self.weights[v as usize].push(w);
    }

    /// Removes the arc `u → v` and returns its weight.
    fn remove_arc(&mut self, u: VertexId, v: VertexId) -> Option<Weight> {
        let i = self.targets[u as usize].iter().position(|&x| x == v)?;
        self.targets[u as usize].swap_remove(i);
        Some(self.weights[u as usize].swap_remove(i))
    }

    /// Removes the edge `{u, v}` from both lists; `None` if absent.
    fn remove(&mut self, u: VertexId, v: VertexId) -> Option<Weight> {
        let w = self.remove_arc(u, v)?;
        self.remove_arc(v, u).expect("mirror arc present");
        Some(w)
    }
}

impl NeighborSlices for Adjacency {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.targets.len()
    }

    #[inline]
    fn neighbor_slices(&self, u: VertexId) -> (&[VertexId], &[Weight]) {
        (&self.targets[u as usize], &self.weights[u as usize])
    }
}

/// An epoch-based fully dynamic minimum spanning forest.
///
/// Owns the current graph (adjacency lists), the certified forest of the
/// latest epoch, and its [`PathMaxIndex`]. [`DynamicMsf::apply_batch`]
/// advances one epoch; queries go through [`DynamicMsf::index`], which is
/// an `Arc` so a server can keep answering from a snapshot while the next
/// epoch is being applied.
pub struct DynamicMsf {
    n: usize,
    /// The graph. It is simple: parallel edges are deduplicated on
    /// construction (smallest key wins) and duplicate inserts are no-ops.
    adj: Adjacency,
    /// Current undirected edge count.
    m: usize,
    /// The certified forest of the latest epoch, in Kruskal (key) order.
    msf: MstResult,
    /// Path-max index over `msf`, shared with snapshot readers.
    index: Arc<PathMaxIndex>,
    /// The previous epoch's index. Once no reader holds it, the next
    /// index is built into its arrays.
    spare: Option<Arc<PathMaxIndex>>,
    /// The Kruskal pass's input buffer, kept between epochs.
    pass: Vec<Edge>,
    /// Batches applied so far.
    epoch: u64,
    /// Whether each epoch ends with a full certification sweep
    /// (default: yes — an epoch that is not certified is not published).
    certify_epochs: bool,
}

impl DynamicMsf {
    /// Builds the initial epoch from a CSR graph: flat-memory contraction
    /// for the forest, [`PathMaxIndex`] for queries, certification sweep
    /// before anything is served.
    pub fn new(graph: &CsrGraph, pool: &ThreadPool) -> Result<DynamicMsf, DynamicError> {
        Self::from_edges(graph.num_vertices(), graph.edges().collect(), pool)
    }

    /// Builds the initial epoch from a raw undirected edge list.
    ///
    /// Validates endpoints, self-loops and weight finiteness; parallel
    /// edges are deduplicated keeping the smallest [`llp_graph::EdgeKey`]
    /// (the only one the canonical MSF can ever use).
    pub fn from_edges(
        n: usize,
        mut edges: Vec<Edge>,
        pool: &ThreadPool,
    ) -> Result<DynamicMsf, DynamicError> {
        let _s = telemetry::span("dynamic-build");
        for e in &mut edges {
            validate_insert(e, n)?;
            let (lo, hi) = e.canonical_endpoints();
            *e = Edge::new(lo, hi, e.w);
        }
        // One sort by (lo, hi, key) puts each endpoint pair's smallest key
        // first; keep that record. The top 64 bits of `key_bits` order the
        // weights as `EdgeKey` does.
        par_sort_by_key(pool, &mut edges, |e| {
            (u128::from(e.u) << 96) | (u128::from(e.v) << 64) | (key_bits(e.w, e.u, e.v) >> 64)
        });
        edges.dedup_by_key(|e| (e.u, e.v));

        let adj = Adjacency::from_edges(n, &edges);
        let m = edges.len();
        let mut msf = llp_boruvka_from_edges(n, edges, pool);
        msf.edges.sort_unstable_by_key(|e| key_bits(e.w, e.u, e.v));
        let index = Arc::new(PathMaxIndex::build_par(n, &msf, pool)?);
        let this = DynamicMsf {
            n,
            adj,
            m,
            msf,
            index,
            spare: None,
            pass: Vec::new(),
            epoch: 0,
            certify_epochs: true,
        };
        this.certify_now(pool)?;
        Ok(this)
    }

    /// Vertices of the graph (fixed for the structure's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Current undirected edge count.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Batches applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The certified forest of the latest epoch.
    pub fn msf(&self) -> &MstResult {
        &self.msf
    }

    /// The latest epoch's query index. Clone the `Arc` to keep serving a
    /// snapshot while the next batch applies.
    pub fn index(&self) -> &Arc<PathMaxIndex> {
        &self.index
    }

    /// Disables (or re-enables) the per-epoch certification sweep. Only
    /// meant for benchmarking the raw update pipeline; a production epoch
    /// should always be certified before it is served.
    pub fn set_certify_epochs(&mut self, certify: bool) {
        self.certify_epochs = certify;
    }

    /// The current undirected edge set (each edge once, `u < v`).
    pub fn current_edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.m);
        for u in 0..self.n as VertexId {
            let (targets, weights) = self.adj.neighbor_slices(u);
            for (&v, &w) in targets.iter().zip(weights) {
                if u < v {
                    out.push(Edge::new(u, v, w));
                }
            }
        }
        out
    }

    /// Applies one batch of updates and advances the epoch.
    ///
    /// Deletes are applied first (so a batch can delete an edge and
    /// re-insert it at a new weight), then inserts. Inserts of edges
    /// already present and deletes of absent edges are counted no-ops.
    /// Returns the epoch's [`EpochReport`]; on `Err` for invalid *input*
    /// (range / self-loop / non-finite) no state was touched.
    pub fn apply_batch(
        &mut self,
        inserts: &[Edge],
        deletes: &[(VertexId, VertexId)],
        pool: &ThreadPool,
    ) -> Result<EpochReport, DynamicError> {
        let _s = telemetry::span("dynamic-epoch");
        // Validate everything before touching anything.
        for e in inserts {
            validate_insert(e, self.n)?;
        }
        for &(u, v) in deletes {
            if (u as usize) >= self.n || (v as usize) >= self.n {
                return Err(DynamicError::OutOfRange(Edge::new(u, v, 0.0)));
            }
        }

        let mut report = EpochReport {
            epoch: self.epoch + 1,
            ..EpochReport::default()
        };
        // The previous epoch's index stays frozen for the whole batch.
        let index = Arc::clone(&self.index);
        let index = &*index;

        // ---- Deletes: drop arcs; a lost tree edge cuts its tree.
        let mut cut: HashSet<(VertexId, VertexId)> = HashSet::new();
        for &(u, v) in deletes {
            let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
            let removed = if lo == hi { None } else { self.adj.remove(lo, hi) };
            let Some(w) = removed else {
                report.deletes_missing += 1;
                continue;
            };
            self.m -= 1;
            report.deletes_applied += 1;
            if index.is_tree_edge(lo, hi, w) {
                cut.insert((lo, hi));
            }
        }

        // ---- Fragments of the cut trees, and the edges crossing them.
        // Before the inserts go in, so the scan sees only edges of G − D.
        let t = Instant::now();
        let mut touched = vec![false; index.num_components()];
        for &(lo, _) in &cut {
            touched[index.component(lo) as usize] = true;
        }
        let (fragment, crossing) = if cut.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let _s = telemetry::span("dynamic-fragments");
            split_cut_trees(&self.adj, &self.msf, index, &cut, &touched)
        };
        let mut rebuild_ms = t.elapsed().as_secs_f64() * 1e3;

        // ---- Inserts, phase 1: mutate the graph, keeping the fresh ones.
        let mut fresh: Vec<Edge> = Vec::with_capacity(inserts.len());
        for e in inserts {
            let (lo, hi) = e.canonical_endpoints();
            if self.adj.contains(lo, hi) {
                report.inserts_duplicate += 1;
                continue;
            }
            self.adj.insert(lo, hi, e.w);
            self.m += 1;
            report.inserts_applied += 1;
            fresh.push(Edge::new(lo, hi, e.w));
        }

        // ---- Inserts, phase 2: classify against the frozen epoch index.
        // Read-only parallel sweep; chunk claims go through the chaos
        // scheduler like every other sweep in the workspace.
        let t = Instant::now();
        let classes: Vec<InsertClass> = {
            let _s = telemetry::span("dynamic-classify");
            let fragment = &fragment[..];
            if fresh.len() < PAR_CLASSIFY_THRESHOLD || pool.threads() <= 1 {
                fresh.iter().map(|e| classify_one(e, index, fragment)).collect()
            } else {
                let acc: Mutex<Vec<(usize, Vec<InsertClass>)>> = Mutex::new(Vec::new());
                parallel_for_chunks(
                    pool,
                    0..fresh.len(),
                    ParallelForConfig::default(),
                    |chunk| {
                        let start = chunk.start;
                        let local: Vec<InsertClass> = chunk
                            .map(|i| classify_one(&fresh[i], index, fragment))
                            .collect();
                        acc.lock().push((start, local));
                    },
                );
                let mut out: Vec<Option<InsertClass>> = vec![None; fresh.len()];
                for (start, local) in acc.into_inner() {
                    for (i, c) in local.into_iter().enumerate() {
                        out[start + i] = Some(c);
                    }
                }
                out.into_iter()
                    .map(|c| c.expect("classified every fresh insert"))
                    .collect()
            }
        };
        report.classify_ms = t.elapsed().as_secs_f64() * 1e3;

        // ---- The candidate set C and the trees it touches.
        let t = Instant::now();
        let mut candidates = std::mem::take(&mut self.pass);
        candidates.clear();
        candidates.extend(crossing);
        for (e, class) in fresh.iter().zip(&classes) {
            match class {
                InsertClass::Loses => {
                    report.fast_rejects += 1;
                    continue;
                }
                InsertClass::Beats => report.fast_swaps += 1,
                InsertClass::Link => report.links += 1,
                InsertClass::Straddle => {}
            }
            touched[index.component(e.u) as usize] = true;
            touched[index.component(e.v) as usize] = true;
            candidates.push(*e);
        }
        report.dirty_components = touched.iter().filter(|&&t| t).count();
        report.tree_changed = report.dirty_components > 0;

        // ---- One Kruskal pass over C inside the touched trees; every
        // other tree is kept verbatim. The forest stays in key order, so
        // the index build replays it without sorting, and the two edge
        // buffers swap roles every epoch instead of being reallocated.
        if report.tree_changed {
            let forest = {
                let _s = telemetry::span("dynamic-rebuild");
                let mut kept = std::mem::take(&mut self.msf.edges);
                let mut touched_edges = 0;
                kept.retain(|e| {
                    if !touched[index.component(e.u) as usize] {
                        return true;
                    }
                    touched_edges += 1;
                    if !cut.contains(&e.canonical_endpoints()) {
                        candidates.push(*e);
                    }
                    false
                });
                // A tree with k edges has k + 1 vertices.
                report.rebuild_vertices = touched_edges + report.dirty_components;
                report.rebuild_edges = candidates.len();
                let key = |e: &Edge| key_bits(e.w, e.u, e.v);
                candidates.sort_unstable_by_key(key);
                let mut uf = UnionFind::new(self.n);
                candidates.retain(|e| uf.union(e.u, e.v));
                candidates.extend_from_slice(&kept);
                candidates.sort_unstable_by_key(key);
                kept.clear();
                self.pass = kept;
                MstResult::try_from_edges(self.n, candidates, AlgoStats::default())
                    .map_err(DynamicError::Overflow)?
            };
            rebuild_ms += t.elapsed().as_secs_f64() * 1e3;

            let t = Instant::now();
            let index = {
                let _s = telemetry::span("dynamic-index");
                let spare = self.spare.take().and_then(|a| Arc::try_unwrap(a).ok());
                Arc::new(PathMaxIndex::rebuild_par(self.n, &forest, pool, spare)?)
            };
            report.index_ms = t.elapsed().as_secs_f64() * 1e3;
            self.msf = forest;
            self.spare = Some(std::mem::replace(&mut self.index, index));
        } else {
            self.pass = candidates;
        }
        report.rebuild_ms = rebuild_ms;

        let graph_changed = report.inserts_applied > 0 || report.deletes_applied > 0;
        if self.certify_epochs && (report.tree_changed || graph_changed) {
            let t = Instant::now();
            self.certify_now(pool)?;
            report.certify_ms = t.elapsed().as_secs_f64() * 1e3;
        }

        self.epoch += 1;
        telemetry::counter_add("dynamic-epochs", 1);
        telemetry::counter_add("dynamic-inserts-applied", report.inserts_applied as u64);
        telemetry::counter_add("dynamic-deletes-applied", report.deletes_applied as u64);
        telemetry::counter_add("dynamic-fast-swaps", report.fast_swaps as u64);
        telemetry::counter_add("dynamic-rebuild-vertices", report.rebuild_vertices as u64);
        Ok(report)
    }

    /// Full certification sweep of the current forest against every live
    /// edge, read in place from the adjacency lists, through the current
    /// index.
    fn certify_now(&self, pool: &ThreadPool) -> Result<(), DynamicError> {
        let _s = telemetry::span("dynamic-certify");
        certify_against(&self.adj, &self.msf, &self.index, Some(pool))?;
        Ok(())
    }
}

/// Splits every tree that lost a tree edge (`cut_tree`, indexed by
/// component) into the fragments of `F − D` and collects `X`, the edges
/// of `G − D` between different fragments.
///
/// Returns the fragment label of every vertex (a union-find root;
/// [`NO_FRAGMENT`] outside the cut trees) and `X`. Each cut tree's
/// fragment with the most arcs is never scanned: every crossing edge has
/// an endpoint in some other fragment of its tree, since edges of `G`
/// never leave a tree of `F`.
fn split_cut_trees(
    adj: &Adjacency,
    msf: &MstResult,
    index: &PathMaxIndex,
    cut: &HashSet<(VertexId, VertexId)>,
    cut_tree: &[bool],
) -> (Vec<u32>, Vec<Edge>) {
    let n = adj.num_vertices();
    let mut fragment = vec![NO_FRAGMENT; n];
    let mut uf = UnionFind::new(n);
    let mut verts: Vec<VertexId> = Vec::new();
    for e in &msf.edges {
        if !cut_tree[index.component(e.u) as usize] {
            continue;
        }
        for x in [e.u, e.v] {
            if fragment[x as usize] == NO_FRAGMENT {
                fragment[x as usize] = 0;
                verts.push(x);
            }
        }
        if !cut.contains(&e.canonical_endpoints()) {
            uf.union(e.u, e.v);
        }
    }

    // Label, and count each fragment's arcs at its root.
    let mut arcs: HashMap<u32, usize> = HashMap::new();
    for &v in &verts {
        let root = uf.find(v);
        fragment[v as usize] = root;
        *arcs.entry(root).or_default() += adj.degree(v);
    }
    let mut largest: HashMap<u32, u32> = HashMap::new();
    for &v in &verts {
        let root = fragment[v as usize];
        largest
            .entry(index.component(v))
            .and_modify(|best| {
                let (a, b) = (arcs[&root], arcs[best]);
                if a > b || (a == b && root < *best) {
                    *best = root;
                }
            })
            .or_insert(root);
    }

    let mut crossing = Vec::new();
    for &v in &verts {
        let root = fragment[v as usize];
        let big = largest[&index.component(v)];
        if root == big {
            continue;
        }
        let (targets, weights) = adj.neighbor_slices(v);
        for (&w, &wt) in targets.iter().zip(weights) {
            let other = fragment[w as usize];
            debug_assert_ne!(other, NO_FRAGMENT, "edge ({v}, {w}) leaves its tree");
            // An edge between two scanned fragments is seen from both
            // sides; keep it once.
            if other != root && (other == big || v < w) {
                crossing.push(Edge::new(v.min(w), v.max(w), wt));
            }
        }
    }
    (fragment, crossing)
}

/// Classifies one fresh insert against the frozen epoch index and the
/// fragment labels of the cut trees (empty when no tree was cut).
fn classify_one(e: &Edge, index: &PathMaxIndex, fragment: &[u32]) -> InsertClass {
    if !index.connected(e.u, e.v) {
        return InsertClass::Link;
    }
    let of = |v: VertexId| fragment.get(v as usize).copied().unwrap_or(NO_FRAGMENT);
    if of(e.u) != of(e.v) {
        return InsertClass::Straddle;
    }
    // One fragment: the forest path between the endpoints survived the
    // deletes, so its maximum decides by the cycle property.
    let bottleneck = index
        .path_max(e.u, e.v)
        .expect("distinct vertices in one tree have a path");
    if e.key() < bottleneck {
        InsertClass::Beats
    } else {
        InsertClass::Loses
    }
}

fn validate_insert(e: &Edge, n: usize) -> Result<(), DynamicError> {
    if (e.u as usize) >= n || (e.v as usize) >= n {
        return Err(DynamicError::OutOfRange(*e));
    }
    if e.u == e.v {
        return Err(DynamicError::SelfLoop(*e));
    }
    if !e.w.is_finite() {
        return Err(DynamicError::NonFiniteWeight(*e));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal;

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    /// Recompute the canonical MSF of the dynamic structure's current
    /// graph from scratch and compare edge sets.
    fn assert_matches_recompute(d: &DynamicMsf) {
        let edges = d.current_edges();
        let g = CsrGraph::from_edges(d.num_vertices(), &edges);
        let want = kruskal(&g);
        assert_eq!(d.msf().canonical_keys(), want.canonical_keys());
        assert_eq!(d.msf().num_trees, want.num_trees);
    }

    #[test]
    fn losing_insert_stays_out_of_the_tree() {
        let p = pool();
        // Path 0-1-2 with light edges; a heavy chord loses.
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)];
        let mut d = DynamicMsf::from_edges(3, edges, &p).unwrap();
        let r = d
            .apply_batch(&[Edge::new(0, 2, 9.0)], &[], &p)
            .unwrap();
        assert_eq!(r.fast_rejects, 1);
        assert_eq!(r.fast_swaps, 0);
        assert!(!r.tree_changed);
        assert_eq!(d.num_edges(), 3);
        assert_matches_recompute(&d);
    }

    #[test]
    fn winning_insert_evicts_the_bottleneck() {
        let p = pool();
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 5.0)];
        let mut d = DynamicMsf::from_edges(3, edges, &p).unwrap();
        let r = d
            .apply_batch(&[Edge::new(0, 2, 2.0)], &[], &p)
            .unwrap();
        assert_eq!(r.fast_swaps, 1);
        assert!(r.tree_changed);
        // The 5.0 edge is evicted but stays in the graph.
        assert_eq!(d.num_edges(), 3);
        assert_eq!(d.msf().edges.len(), 2);
        assert!((d.msf().total_weight - 3.0).abs() < 1e-12);
        assert_matches_recompute(&d);
    }

    #[test]
    fn linking_insert_merges_trees_via_rebuild() {
        let p = pool();
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)];
        let mut d = DynamicMsf::from_edges(4, edges, &p).unwrap();
        assert_eq!(d.msf().num_trees, 2);
        let r = d
            .apply_batch(&[Edge::new(1, 2, 0.5)], &[], &p)
            .unwrap();
        assert_eq!(r.links, 1);
        assert_eq!(r.dirty_components, 2);
        assert_eq!(d.msf().num_trees, 1);
        assert_matches_recompute(&d);
    }

    #[test]
    fn deleting_a_tree_edge_finds_the_replacement() {
        let p = pool();
        // Cycle: tree is 0-1, 1-2; deleting 1-2 promotes the chord 0-2.
        let edges = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 2.0),
            Edge::new(0, 2, 3.0),
        ];
        let mut d = DynamicMsf::from_edges(3, edges, &p).unwrap();
        let r = d.apply_batch(&[], &[(2, 1)], &p).unwrap();
        assert_eq!(r.deletes_applied, 1);
        assert_eq!(r.dirty_components, 1);
        assert_eq!(d.msf().num_trees, 1);
        assert!((d.msf().total_weight - 4.0).abs() < 1e-12);
        assert_matches_recompute(&d);
    }

    #[test]
    fn disconnecting_delete_splits_the_forest() {
        let p = pool();
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)];
        let mut d = DynamicMsf::from_edges(3, edges, &p).unwrap();
        let r = d.apply_batch(&[], &[(0, 1)], &p).unwrap();
        assert_eq!(r.deletes_applied, 1);
        assert_eq!(d.msf().num_trees, 2);
        assert_eq!(d.num_edges(), 1);
        assert_matches_recompute(&d);
    }

    #[test]
    fn empty_batch_is_a_certified_noop() {
        let p = pool();
        let mut d =
            DynamicMsf::from_edges(3, vec![Edge::new(0, 1, 1.0)], &p).unwrap();
        let before = d.msf().canonical_keys();
        let r = d.apply_batch(&[], &[], &p).unwrap();
        assert_eq!(r.updates(), 0);
        assert!(!r.tree_changed);
        assert_eq!(d.epoch(), 1);
        assert_eq!(d.msf().canonical_keys(), before);
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let p = pool();
        let mut d =
            DynamicMsf::from_edges(3, vec![Edge::new(0, 1, 1.0)], &p).unwrap();
        let r = d
            .apply_batch(&[Edge::new(1, 0, 7.0)], &[(1, 2)], &p)
            .unwrap();
        assert_eq!(r.inserts_duplicate, 1);
        assert_eq!(r.deletes_missing, 1);
        assert_eq!(r.updates(), 2);
        assert_eq!(d.num_edges(), 1);
        assert_matches_recompute(&d);
    }

    #[test]
    fn delete_then_reinsert_in_one_batch_updates_the_weight() {
        let p = pool();
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)];
        let mut d = DynamicMsf::from_edges(3, edges, &p).unwrap();
        let r = d
            .apply_batch(&[Edge::new(0, 1, 0.25)], &[(0, 1)], &p)
            .unwrap();
        assert_eq!(r.deletes_applied, 1);
        assert_eq!(r.inserts_applied, 1);
        assert!((d.msf().total_weight - 2.25).abs() < 1e-12);
        assert_matches_recompute(&d);
    }

    #[test]
    fn invalid_updates_error_without_touching_state() {
        let p = pool();
        let mut d =
            DynamicMsf::from_edges(3, vec![Edge::new(0, 1, 1.0)], &p).unwrap();
        let before_edges = d.num_edges();
        let before_epoch = d.epoch();
        assert!(matches!(
            d.apply_batch(&[Edge::new(0, 9, 1.0)], &[], &p),
            Err(DynamicError::OutOfRange(_))
        ));
        assert!(matches!(
            d.apply_batch(&[Edge::new(1, 1, 1.0)], &[], &p),
            Err(DynamicError::SelfLoop(_))
        ));
        assert!(matches!(
            d.apply_batch(&[Edge::new(0, 2, f64::NAN)], &[], &p),
            Err(DynamicError::NonFiniteWeight(_))
        ));
        assert!(matches!(
            d.apply_batch(&[], &[(0, 9)], &p),
            Err(DynamicError::OutOfRange(_))
        ));
        assert_eq!(d.num_edges(), before_edges);
        assert_eq!(d.epoch(), before_epoch);
    }

    #[test]
    fn parallel_edge_dedup_keeps_the_smallest_key() {
        let p = pool();
        let edges = vec![
            Edge::new(0, 1, 3.0),
            Edge::new(1, 0, 1.0),
            Edge::new(0, 1, 2.0),
        ];
        let d = DynamicMsf::from_edges(2, edges, &p).unwrap();
        assert_eq!(d.num_edges(), 1);
        assert!((d.msf().total_weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn many_epochs_of_mixed_updates_stay_canonical() {
        let p = pool();
        let g = llp_graph::generators::erdos_renyi(60, 120, 3);
        let mut d = DynamicMsf::new(&g, &p).unwrap();
        let mut rng = llp_runtime::rng::SmallRng::seed_from_u64(7);
        for _ in 0..6 {
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            for _ in 0..10 {
                let u = rng.gen_range(0..60u32);
                let v = rng.gen_range(0..60u32);
                if u == v {
                    continue;
                }
                if rng.gen_bool(0.5) {
                    inserts.push(Edge::new(u, v, rng.gen_range(1..8u32) as f64 / 2.0));
                } else {
                    deletes.push((u, v));
                }
            }
            d.apply_batch(&inserts, &deletes, &p).unwrap();
            assert_matches_recompute(&d);
        }
        assert_eq!(d.epoch(), 6);
    }
}
