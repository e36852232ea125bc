//! Property-style tests for the out-of-core sharded Borůvka-filter:
//! seed sweeps over adversarial raw edge files (tie-heavy duplicate
//! weights, exact-duplicate parallel records, disconnected forests)
//! cross-checked against `filter_kruskal_par` across shard sizes from
//! degenerate (1 edge per shard) to single-shard (the whole file), plus
//! the replay property — two runs over the same file are bit-identical.
//! Cases are deterministic sweeps over [`llp_runtime::rng::SmallRng`]
//! (hermetic builds cannot depend on `proptest`).

use llp_graph::io::BinaryWriter;
use llp_graph::{Edge, GraphBuilder};
use llp_mst::prelude::{filter_kruskal_par, sharded_msf_file, ShardedConfig};
use llp_runtime::rng::SmallRng;
use llp_runtime::ThreadPool;
use std::io::BufWriter;
use std::path::PathBuf;

const CASES: u64 = 24;

/// Raw multigraph edge list for the on-disk format: exact-duplicate
/// parallel records and weights quantised to a handful of values so
/// discriminant ties are the common case. (No self-loops — the binary
/// format rejects them at write time, like the readers do on ingest.)
/// Returns `(n, edges)`.
fn adversarial_edges(seed: u64, density: f64) -> (usize, Vec<Edge>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2usize..120);
    let m = ((n as f64 * density) as usize).max(1);
    let m = rng.gen_range(0usize..2 * m).max(1);
    let mut edges = Vec::with_capacity(m + m / 4);
    for _ in 0..m {
        let u = rng.gen_range(0u32..n as u32);
        let v = rng.gen_range(0u32..n as u32);
        if u == v {
            continue;
        }
        let w = rng.gen_range(1u32..5) as f64;
        edges.push(Edge { u, v, w });
        // 1 in 4 records is duplicated verbatim — a parallel edge with
        // the identical weight, separable only by edge identity.
        if rng.gen_range(0u32..4) == 0 {
            edges.push(Edge { u, v, w });
        }
    }
    (n, edges)
}

/// The sanitised CSR view of the raw file (parallel records collapsed to
/// the canonical minimum) — same MSF, so the in-RAM oracle applies.
fn sanitised(n: usize, edges: &[Edge]) -> llp_graph::CsrGraph {
    let mut b = GraphBuilder::new(n);
    for e in edges {
        b.add_edge(e.u, e.v, e.w);
    }
    b.build()
}

/// Writes the raw record multiset to a fresh temp file and returns its path.
fn write_temp(tag: &str, seed: u64, n: usize, edges: &[Edge]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "llp-sharded-prop-{tag}-{}-{seed}.bin",
        std::process::id()
    ));
    let f = std::fs::File::create(&path).unwrap();
    let mut w = BinaryWriter::new(BufWriter::new(f), n).unwrap();
    w.write_edges(edges).unwrap();
    w.finish().unwrap();
    path
}

/// Shard sizes from fully degenerate to single-shard.
fn shard_sizes(m: usize) -> [usize; 4] {
    [1, 7, 64, m.max(1)]
}

#[test]
fn sharded_matches_filter_kruskal_on_adversarial_multigraphs() {
    let pool = ThreadPool::new(4);
    for seed in 0..CASES {
        let (n, edges) = adversarial_edges(seed, 3.0);
        let g = sanitised(n, &edges);
        let oracle = filter_kruskal_par(&g, &pool);
        let path = write_temp("multi", seed, n, &edges);
        for shard_edges in shard_sizes(edges.len()) {
            let cfg = ShardedConfig { shard_edges, ..ShardedConfig::default() };
            let run = sharded_msf_file(&path, &cfg, &pool)
                .unwrap_or_else(|e| panic!("seed {seed} shard {shard_edges}: {e}"));
            assert!(run.certified, "seed {seed} shard {shard_edges}");
            let r = &run.result;
            assert_eq!(
                r.canonical_keys(),
                oracle.canonical_keys(),
                "seed {seed} shard {shard_edges}"
            );
            assert_eq!(r.num_trees, oracle.num_trees, "seed {seed} shard {shard_edges}");
            assert_eq!(r.total_weight, oracle.total_weight, "seed {seed} shard {shard_edges}");
            // The merge scan discards candidates only across shards: one
            // shard's candidates are already a forest.
            let (filtered, candidates) = (run.filtered_edges, run.candidate_edges);
            assert!(filtered <= candidates, "seed {seed} shard {shard_edges}");
            if run.shards <= 1 {
                assert_eq!(filtered, 0, "seed {seed} shard {shard_edges}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn sharded_matches_filter_kruskal_on_disconnected_forests() {
    // density ~ 0.5..2 edges per vertex: almost every instance is a
    // forest of many trees, so shards repeatedly fold candidates that
    // never connect and the merge must preserve every component.
    let pool = ThreadPool::new(4);
    for seed in 0..CASES {
        let (n, edges) = adversarial_edges(1000 + seed, 1.0);
        let g = sanitised(n, &edges);
        let oracle = filter_kruskal_par(&g, &pool);
        assert!(oracle.num_trees >= 1);
        let path = write_temp("forest", seed, n, &edges);
        for shard_edges in shard_sizes(edges.len()) {
            let cfg = ShardedConfig { shard_edges, ..ShardedConfig::default() };
            let run = sharded_msf_file(&path, &cfg, &pool)
                .unwrap_or_else(|e| panic!("seed {seed} shard {shard_edges}: {e}"));
            assert!(run.certified, "seed {seed} shard {shard_edges}");
            assert_eq!(
                run.result.canonical_keys(),
                oracle.canonical_keys(),
                "seed {seed} shard {shard_edges}"
            );
            assert_eq!(
                run.result.num_trees, oracle.num_trees,
                "seed {seed} shard {shard_edges}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn sharded_replay_is_bit_identical() {
    // Same file, same config, different pool widths: the canonical MSF
    // is a pure function of the file, so the full edge vectors (order
    // included — results are key-sorted) must match bit for bit.
    let narrow = ThreadPool::new(1);
    let wide = ThreadPool::new(4);
    for seed in 0..8 {
        let (n, edges) = adversarial_edges(2000 + seed, 4.0);
        let path = write_temp("replay", seed, n, &edges);
        let cfg = ShardedConfig { shard_edges: 13, ..ShardedConfig::default() };
        let a = sharded_msf_file(&path, &cfg, &narrow).unwrap();
        let b = sharded_msf_file(&path, &cfg, &wide).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(a.result.total_weight, b.result.total_weight, "seed {seed}");
        assert_eq!(a.result.edges.len(), b.result.edges.len(), "seed {seed}");
        for (x, y) in a.result.edges.iter().zip(&b.result.edges) {
            assert_eq!((x.u, x.v, x.w.to_bits()), (y.u, y.v, y.w.to_bits()), "seed {seed}");
        }
        assert_eq!(a.shards, b.shards, "seed {seed}");
    }
}
