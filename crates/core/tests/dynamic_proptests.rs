//! Seed-sweep property tests for the fully dynamic MSF: after any mix of
//! insert/delete epochs, [`DynamicMsf`] must hold exactly the canonical
//! forest a from-scratch `filter_kruskal_par` recompute of the surviving
//! edge set produces, and every epoch snapshot must pass the oracle-free
//! `certify_msf_par` sweep. Weights are tie-heavy on purpose (the
//! `EdgeKey` order breaks the ties), deletes frequently disconnect, and
//! deleted edges go back in through later epochs. Deterministic seed
//! sweeps over [`llp_runtime::rng::SmallRng`] (hermetic builds cannot
//! depend on `proptest`).

use llp_graph::generators::{rmat, RmatParams};
use llp_graph::{CsrGraph, Edge};
use llp_mst::dynamic::DynamicMsf;
use llp_mst::prelude::{certify_msf_par, filter_kruskal_par};
use llp_runtime::rng::SmallRng;
use llp_runtime::ThreadPool;
use std::collections::HashMap;

const CASES: u64 = 24;

/// The ground truth the dynamic structure races against: a plain map of
/// the surviving undirected edges, mutated with the same batch semantics
/// (deletes first, then insert-if-absent).
struct Mirror {
    n: usize,
    edges: HashMap<(u32, u32), f64>,
}

impl Mirror {
    fn apply(&mut self, inserts: &[Edge], deletes: &[(u32, u32)]) {
        for &(u, v) in deletes {
            let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
            self.edges.remove(&(lo, hi));
        }
        for e in inserts {
            self.edges.entry(e.canonical_endpoints()).or_insert(e.w);
        }
    }

    fn edge_list(&self) -> Vec<Edge> {
        let mut v: Vec<Edge> = self
            .edges
            .iter()
            .map(|(&(lo, hi), &w)| Edge::new(lo, hi, w))
            .collect();
        v.sort_unstable_by_key(Edge::key);
        v
    }
}

/// Asserts the dynamic structure equals a from-scratch recompute of its
/// mirror, and that its snapshot passes full certification.
fn assert_epoch_sound(d: &DynamicMsf, mirror: &Mirror, pool: &ThreadPool, ctx: &str) {
    let edges = mirror.edge_list();
    let graph = CsrGraph::from_edges(mirror.n, &edges);
    let want = filter_kruskal_par(&graph, pool);
    assert_eq!(
        d.msf().canonical_keys(),
        want.canonical_keys(),
        "{ctx}: dynamic forest diverged from recompute"
    );
    assert_eq!(d.msf().num_trees, want.num_trees, "{ctx}");
    assert!(
        (d.msf().total_weight - want.total_weight).abs() < 1e-9,
        "{ctx}: weight {} vs {}",
        d.msf().total_weight,
        want.total_weight
    );
    certify_msf_par(&graph, d.msf(), pool)
        .unwrap_or_else(|e| panic!("{ctx}: epoch snapshot failed certification: {e}"));
}

#[test]
fn random_epochs_match_recompute_and_certify() {
    let pool = ThreadPool::new(4);
    // Totals across the sweep, to prove both path-max verdicts and the
    // Kruskal pass actually ran (not just one of them).
    let (mut fast_swaps, mut fast_rejects, mut rebuilds, mut links) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..80);

        // Initial graph: unique random pairs with tie-heavy weights.
        let mut mirror = Mirror {
            n,
            edges: HashMap::new(),
        };
        for _ in 0..rng.gen_range(0usize..250) {
            let u = rng.gen_range(0u32..n as u32);
            let v = rng.gen_range(0u32..n as u32);
            if u != v {
                let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                mirror
                    .edges
                    .entry((lo, hi))
                    .or_insert(rng.gen_range(1u32..5) as f64);
            }
        }
        let mut d = DynamicMsf::from_edges(n, mirror.edge_list(), &pool)
            .unwrap_or_else(|e| panic!("seed {seed}: build: {e}"));
        assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed} epoch 0"));

        // A pool of edges we deleted, to re-insert in later epochs.
        let mut graveyard: Vec<(u32, u32)> = Vec::new();
        let epochs = rng.gen_range(3usize..6);
        for epoch in 1..=epochs {
            let mut inserts: Vec<Edge> = Vec::new();
            let mut deletes: Vec<(u32, u32)> = Vec::new();
            if rng.gen_bool(0.1) {
                // Empty batch: still an epoch, still certified.
            } else {
                // Deletes: mostly real edges (tree edges included, so
                // components disconnect), some misses. Sorted so the
                // picks are a function of the seed alone (HashMap
                // iteration order is randomized per process, and the
                // cross-sweep coverage assertions below need the same
                // batches every run).
                let mut live: Vec<(u32, u32)> = mirror.edges.keys().copied().collect();
                live.sort_unstable();
                for _ in 0..rng.gen_range(0usize..8) {
                    if !live.is_empty() && rng.gen_bool(0.75) {
                        let pick = live[rng.gen_range(0usize..live.len())];
                        deletes.push(pick);
                        graveyard.push(pick);
                    } else {
                        let u = rng.gen_range(0u32..n as u32);
                        let v = rng.gen_range(0u32..n as u32);
                        deletes.push((u, v));
                    }
                }
                // Inserts: fresh random pairs, plus re-insertions of
                // previously deleted edges at (usually new) weights.
                for _ in 0..rng.gen_range(0usize..10) {
                    let (u, v) = if !graveyard.is_empty() && rng.gen_bool(0.3) {
                        graveyard[rng.gen_range(0usize..graveyard.len())]
                    } else {
                        (rng.gen_range(0u32..n as u32), rng.gen_range(0u32..n as u32))
                    };
                    if u != v {
                        inserts.push(Edge::new(u, v, rng.gen_range(1u32..5) as f64));
                    }
                }
            }

            let report = d
                .apply_batch(&inserts, &deletes, &pool)
                .unwrap_or_else(|e| panic!("seed {seed} epoch {epoch}: {e}"));
            mirror.apply(&inserts, &deletes);
            assert_eq!(report.epoch, epoch as u64, "seed {seed}");
            fast_swaps += report.fast_swaps as u64;
            fast_rejects += report.fast_rejects as u64;
            links += report.links as u64;
            rebuilds += u64::from(report.dirty_components > 0);
            assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed} epoch {epoch}"));
        }
        assert_eq!(d.epoch(), epochs as u64, "seed {seed}");
        assert_eq!(d.num_edges(), mirror.edges.len(), "seed {seed}");
    }
    // The sweep must have exercised every update path.
    assert!(fast_swaps > 0, "no insert ever won via the fast path");
    assert!(fast_rejects > 0, "no insert ever lost via the fast path");
    assert!(links > 0, "no insert ever linked two trees");
    assert!(rebuilds > 0, "no epoch ever took the Kruskal pass");
}

#[test]
fn single_insert_epochs_ride_the_fast_path_and_match_recompute() {
    // A connected graph receiving one intra-tree insert per epoch: one
    // path-max query settles every epoch. A losing insert is dropped with
    // no Kruskal pass; a winning one sends exactly the spanning tree plus
    // itself through the pass, never a non-tree edge of the graph. Every
    // epoch still matches the from-scratch recompute exactly.
    let pool = ThreadPool::new(4);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let n = rng.gen_range(3usize..60);
        let mut mirror = Mirror {
            n,
            edges: HashMap::new(),
        };
        // Spine keeps it connected; extras make path-max non-trivial.
        for i in 1..n as u32 {
            mirror
                .edges
                .insert((i - 1, i), rng.gen_range(2u32..6) as f64);
        }
        for _ in 0..rng.gen_range(0usize..40) {
            let u = rng.gen_range(0u32..n as u32);
            let v = rng.gen_range(0u32..n as u32);
            if u != v {
                let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                mirror
                    .edges
                    .entry((lo, hi))
                    .or_insert(rng.gen_range(2u32..6) as f64);
            }
        }
        let mut d = DynamicMsf::from_edges(n, mirror.edge_list(), &pool).unwrap();

        for epoch in 0..6 {
            // One fresh intra-tree edge (graph is connected ⇒ any fresh
            // pair is intra-tree); weight 1 beats everything, weight 9
            // loses to everything — both fast-path verdicts occur.
            let mut pick = None;
            for _ in 0..64 {
                let u = rng.gen_range(0u32..n as u32);
                let v = rng.gen_range(0u32..n as u32);
                let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                if u != v && !mirror.edges.contains_key(&(lo, hi)) {
                    pick = Some((lo, hi));
                    break;
                }
            }
            let Some((lo, hi)) = pick else { continue };
            let w = if rng.gen_bool(0.5) { 1.0 } else { 9.0 };
            let inserts = [Edge::new(lo, hi, w)];
            let report = d.apply_batch(&inserts, &[], &pool).unwrap();
            mirror.apply(&inserts, &[]);
            assert_eq!(
                report.fast_swaps + report.fast_rejects,
                1,
                "seed {seed} epoch {epoch}: expected the fast path"
            );
            if report.fast_rejects == 1 {
                assert_eq!(report.dirty_components, 0, "seed {seed} epoch {epoch}");
                assert_eq!(report.rebuild_edges, 0, "seed {seed} epoch {epoch}");
                assert!(!report.tree_changed, "seed {seed} epoch {epoch}");
            } else {
                assert_eq!(report.dirty_components, 1, "seed {seed} epoch {epoch}");
                assert_eq!(report.rebuild_vertices, n, "seed {seed} epoch {epoch}");
                assert_eq!(report.rebuild_edges, n, "seed {seed} epoch {epoch}");
            }
            if w == 9.0 {
                // Every other weight is ≤ 6, so a 9.0 insert can never
                // beat the path max. (A 1.0 insert *usually* wins but may
                // lose an EdgeKey tie-break against an earlier 1.0 win,
                // so only the losing direction is asserted exactly.)
                assert_eq!(report.fast_swaps, 0, "seed {seed} epoch {epoch}");
            }
            assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed} epoch {epoch}"));
        }
    }
}

#[test]
fn empty_and_noop_batches_leave_the_forest_bit_identical() {
    let pool = ThreadPool::new(2);
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 40;
        let mut mirror = Mirror {
            n,
            edges: HashMap::new(),
        };
        for _ in 0..120 {
            let u = rng.gen_range(0u32..n as u32);
            let v = rng.gen_range(0u32..n as u32);
            if u != v {
                let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                mirror
                    .edges
                    .entry((lo, hi))
                    .or_insert(rng.gen_range(1u32..4) as f64);
            }
        }
        let mut d = DynamicMsf::from_edges(n, mirror.edge_list(), &pool).unwrap();
        let before = d.msf().canonical_keys();

        // Empty batch.
        let r = d.apply_batch(&[], &[], &pool).unwrap();
        assert!(!r.tree_changed, "seed {seed}");
        // All-noop batch: duplicate insert + missing delete.
        let some_edge = *mirror.edges.keys().next().unwrap();
        let missing = (0u32, 0u32); // self-pair never exists
        let r = d
            .apply_batch(
                &[Edge::new(some_edge.0, some_edge.1, 99.0)],
                &[(missing.0, missing.1)],
                &pool,
            )
            .unwrap();
        assert_eq!(r.inserts_duplicate, 1, "seed {seed}");
        assert_eq!(r.deletes_missing, 1, "seed {seed}");
        assert!(!r.tree_changed, "seed {seed}");

        assert_eq!(d.msf().canonical_keys(), before, "seed {seed}");
        assert_eq!(d.epoch(), 2, "seed {seed}");
        assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed}"));
    }
}

/// A random tree over `base..base + len` (each vertex hangs off an
/// earlier one) with weights in `1..6`, as mirror edges; returns the
/// parent of every vertex but the first.
fn random_tree(mirror: &mut Mirror, rng: &mut SmallRng, base: u32, len: u32) -> Vec<u32> {
    let mut parent = vec![u32::MAX; len as usize];
    for i in 1..len {
        let p = rng.gen_range(0..i);
        parent[i as usize] = p;
        mirror
            .edges
            .insert((base + p, base + i), rng.gen_range(1u32..6) as f64);
    }
    parent
}

/// The forest edges of `d` lying in the tree that contains `v`.
fn tree_edges_of(d: &DynamicMsf, v: u32) -> Vec<(u32, u32)> {
    let comp = d.index().component(v);
    d.msf()
        .edges
        .iter()
        .filter(|e| d.index().component(e.u) == comp)
        .map(Edge::canonical_endpoints)
        .collect()
}

#[test]
fn several_tree_edge_deletes_in_one_tree_match_recompute() {
    // One batch cuts one tree into at least three fragments: first by
    // deleting spokes around a hub (the lightest edges, so all of them
    // are tree edges), then by deleting random tree edges of the largest
    // tree. Chords between spokes and random extras supply the crossing
    // edges the pass has to find.
    let pool = ThreadPool::new(4);
    let mut max_cut = 0usize;
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(2000 + seed);
        let n = rng.gen_range(12usize..60);
        let mut mirror = Mirror {
            n,
            edges: HashMap::new(),
        };
        let spokes = rng.gen_range(6u32..n as u32);
        for i in 1..spokes {
            mirror.edges.insert((0, i), rng.gen_range(1u32..3) as f64);
            if i > 1 && rng.gen_bool(0.6) {
                mirror.edges.insert((i - 1, i), rng.gen_range(3u32..8) as f64);
            }
        }
        for _ in 0..rng.gen_range(n..3 * n) {
            let u = rng.gen_range(0u32..n as u32);
            let v = rng.gen_range(0u32..n as u32);
            if u != v {
                let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                mirror
                    .edges
                    .entry((lo, hi))
                    .or_insert(rng.gen_range(3u32..8) as f64);
            }
        }
        let mut d = DynamicMsf::from_edges(n, mirror.edge_list(), &pool).unwrap();

        // Spokes around the hub.
        let k = rng.gen_range(3usize..6);
        let deletes: Vec<(u32, u32)> = (1..spokes).take(k).map(|i| (i, 0)).collect();
        let tree = tree_edges_of(&d, 0);
        for &(u, v) in &deletes {
            assert!(tree.contains(&(v, u)), "seed {seed}: spoke ({v}, {u}) is a tree edge");
        }
        let report = d.apply_batch(&[], &deletes, &pool).unwrap();
        mirror.apply(&[], &deletes);
        assert_eq!(report.deletes_applied, k, "seed {seed}");
        assert!(report.dirty_components >= 1, "seed {seed}");
        assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed} spokes"));

        // Random tree edges of the largest tree.
        let v = (0..n as u32)
            .max_by_key(|&v| tree_edges_of(&d, v).len())
            .unwrap();
        let mut tree = tree_edges_of(&d, v);
        if tree.len() < 3 {
            continue;
        }
        let k = rng.gen_range(3..tree.len().min(7) + 1);
        let mut deletes = Vec::new();
        for _ in 0..k {
            deletes.push(tree.swap_remove(rng.gen_range(0..tree.len())));
        }
        max_cut = max_cut.max(k);
        let report = d.apply_batch(&[], &deletes, &pool).unwrap();
        mirror.apply(&[], &deletes);
        assert_eq!(report.deletes_applied, k, "seed {seed}");
        assert_eq!(report.dirty_components, 1, "seed {seed}");
        assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed} random cuts"));
    }
    assert!(max_cut >= 3, "no batch cut one tree into four fragments");
}

#[test]
fn cut_tree_with_link_winner_and_straddling_loser_matches_recompute() {
    // One batch in which tree A loses a tree edge and also receives a link
    // to tree B, an insert that beats the path maximum inside one
    // fragment, and a heavy insert across the cut. The heavy insert loses
    // to the old path maximum, but its endpoints now lie in different
    // fragments, so it must stay a candidate; when A has no chords, it is
    // the only edge that can reconnect the two sides and must enter the
    // forest.
    let pool = ThreadPool::new(4);
    let (mut ran, mut chord_free) = (0, 0);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(3000 + seed);
        let a_len = rng.gen_range(8u32..30);
        let b_len = rng.gen_range(1u32..10);
        let n = (a_len + b_len) as usize;
        let mut mirror = Mirror {
            n,
            edges: HashMap::new(),
        };
        let parent = random_tree(&mut mirror, &mut rng, 0, a_len);
        random_tree(&mut mirror, &mut rng, a_len, b_len);
        let chords = seed % 2 == 1;
        if chords {
            for _ in 0..a_len {
                let u = rng.gen_range(0..a_len);
                let v = rng.gen_range(0..a_len);
                if u != v {
                    let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                    mirror.edges.entry((lo, hi)).or_insert(rng.gen_range(6u32..9) as f64);
                }
            }
        }
        let mut d = DynamicMsf::from_edges(n, mirror.edge_list(), &pool).unwrap();

        // Cut (parent[c], c); `below[v]` marks c's subtree.
        let c = rng.gen_range(1..a_len);
        let below: Vec<bool> = (0..a_len)
            .map(|mut v| {
                while v != 0 && v != c {
                    v = parent[v as usize];
                }
                v == c
            })
            .collect();
        let cut = (parent[c as usize], c);
        let absent = |m: &Mirror, u: u32, v: u32| !m.edges.contains_key(&(u.min(v), u.max(v)));
        // A fresh pair inside the larger side, and a fresh pair across.
        let side = below.iter().filter(|&&b| b).count() * 2 > a_len as usize;
        let inside: Vec<(u32, u32)> = (0..a_len)
            .flat_map(|u| (u + 1..a_len).map(move |v| (u, v)))
            .filter(|&(u, v)| below[u as usize] == side && below[v as usize] == side)
            .filter(|&(u, v)| absent(&mirror, u, v))
            .collect();
        let across: Vec<(u32, u32)> = (0..a_len)
            .flat_map(|u| (0..a_len).map(move |v| (u, v)))
            .filter(|&(u, v)| !below[u as usize] && below[v as usize])
            .filter(|&(u, v)| (u, v) != cut && absent(&mirror, u, v))
            .collect();
        let Some(&(wu, wv)) = inside.get(rng.gen_range(0..inside.len().max(1))) else {
            continue;
        };
        let Some(&(su, sv)) = across.get(rng.gen_range(0..across.len().max(1))) else {
            continue;
        };
        let inserts = [
            Edge::new(rng.gen_range(0..a_len), a_len + rng.gen_range(0..b_len), 4.0),
            Edge::new(wu, wv, 0.5),
            Edge::new(su, sv, 100.0),
        ];
        let deletes = [cut];
        let report = d.apply_batch(&inserts, &deletes, &pool).unwrap();
        mirror.apply(&inserts, &deletes);
        assert_eq!(report.links, 1, "seed {seed}");
        assert_eq!(report.fast_swaps, 1, "seed {seed}");
        assert_eq!(report.fast_rejects, 0, "seed {seed}: the straddling insert was dropped");
        assert_eq!(report.dirty_components, 2, "seed {seed}");
        assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed}"));
        ran += 1;
        if !chords {
            chord_free += 1;
            let heavy = Edge::new(su, sv, 100.0).key();
            assert!(
                d.msf().edges.iter().any(|e| e.key() == heavy),
                "seed {seed}: the only reconnecting edge is missing from the forest"
            );
            assert_eq!(d.msf().num_trees, 1, "seed {seed}");
        }
    }
    assert!(ran >= CASES / 2 && chord_free > 0, "{ran} batches, {chord_free} chord-free");
}

#[test]
fn delete_then_reinsert_at_lighter_and_heavier_weights_matches_recompute() {
    // In one batch, delete a tree edge and a non-tree edge and put each
    // back at a lighter or a heavier weight: the reinserted tree edge
    // straddles its own cut, the reinserted non-tree edge is classified by
    // the path maximum it used to lose to.
    let pool = ThreadPool::new(4);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(4000 + seed);
        let n = rng.gen_range(6usize..50);
        let mut mirror = Mirror {
            n,
            edges: HashMap::new(),
        };
        random_tree(&mut mirror, &mut rng, 0, n as u32);
        for _ in 0..2 * n {
            let u = rng.gen_range(0u32..n as u32);
            let v = rng.gen_range(0u32..n as u32);
            if u != v {
                let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                mirror.edges.entry((lo, hi)).or_insert(rng.gen_range(1u32..6) as f64);
            }
        }
        let mut d = DynamicMsf::from_edges(n, mirror.edge_list(), &pool).unwrap();
        for epoch in 0..6 {
            let tree = tree_edges_of(&d, 0);
            let non_tree: Vec<(u32, u32)> = mirror
                .edge_list()
                .iter()
                .map(Edge::canonical_endpoints)
                .filter(|p| !tree.contains(p))
                .collect();
            let mut deletes = Vec::new();
            let mut inserts = Vec::new();
            for pool_of in [&tree, &non_tree] {
                if pool_of.is_empty() {
                    continue;
                }
                let (u, v) = pool_of[rng.gen_range(0..pool_of.len())];
                let w = mirror.edges[&(u, v)];
                let w2 = if (epoch + seed as usize).is_multiple_of(2) { w - 0.75 } else { w + 3.0 };
                deletes.push((u, v));
                inserts.push(Edge::new(v, u, w2));
            }
            let report = d.apply_batch(&inserts, &deletes, &pool).unwrap();
            mirror.apply(&inserts, &deletes);
            assert_eq!(report.deletes_applied, deletes.len(), "seed {seed} epoch {epoch}");
            assert_eq!(report.inserts_applied, inserts.len(), "seed {seed} epoch {epoch}");
            assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed} epoch {epoch}"));
        }
    }
}

#[test]
fn leaf_delete_on_rmat_passes_no_more_than_n_edges() {
    // Deleting one leaf edge of the giant tree cuts off a single vertex:
    // the pass sees the surviving tree edges plus the leaf's own other
    // edges, not the tens of thousands of non-tree edges of its component.
    let pool = ThreadPool::new(2);
    let g = rmat(RmatParams::graph500(10, 16, 5));
    let n = g.num_vertices();
    let mut d = DynamicMsf::new(&g, &pool).unwrap();
    let mut tree_degree = vec![0usize; n];
    for e in &d.msf().edges {
        tree_degree[e.u as usize] += 1;
        tree_degree[e.v as usize] += 1;
    }
    let giant = (0..n as u32)
        .max_by_key(|&v| tree_edges_of(&d, v).len())
        .unwrap();
    let leaf_edge = tree_edges_of(&d, giant)
        .into_iter()
        .find(|&(u, v)| tree_degree[u as usize] == 1 || tree_degree[v as usize] == 1)
        .expect("a tree has a leaf");
    let report = d.apply_batch(&[], &[leaf_edge], &pool).unwrap();
    assert_eq!(report.dirty_components, 1);
    assert!(
        report.rebuild_edges <= n,
        "rebuild_edges {} > n {n} (m = {})",
        report.rebuild_edges,
        g.num_edges()
    );
    let mut edges: Vec<Edge> = g.edges().collect();
    edges.retain(|e| e.canonical_endpoints() != leaf_edge);
    let mirror = Mirror {
        n,
        edges: edges.iter().map(|e| (e.canonical_endpoints(), e.w)).collect(),
    };
    assert_epoch_sound(&d, &mirror, &pool, "rmat leaf delete");
}
