//! `microbench` — targeted kernels behind the flat-memory contraction
//! engine, runnable standalone (CI smoke: `--quick`).
//!
//! ```text
//! microbench [--quick] [--threads N]
//! ```
//!
//! Groups:
//!
//! * `scratch-arena` — leasing a warm buffer from a [`ScratchArena`]
//!   versus allocating a fresh `Vec` per round (the allocation the arena
//!   removes from every contraction round).
//! * `mwe-word` — the packed single-`u64` MWE propose versus the retired
//!   two-word `AtomicIndexMin` protocol on an identical proposal stream.
//! * `relabel-prim` — the Prim family before/after the cache-aware
//!   relabelings in `llp_graph::transform` (degree-descending on a
//!   hub-heavy RMAT component, BFS order on a road mesh).
//! * `contraction-round` — end-to-end LLP-Boruvka and parallel Boruvka on
//!   the flat-memory engine.
//! * `spmv-round` — the algebraic SpMV-Boruvka backend (min-plus row
//!   argmin + SpGEMM contraction) against direct LLP-Boruvka on the same
//!   graph: what the explicit contracted-CSR rebuild costs per round.
//! * `substrates` — the pieces every algorithm stands on: lazy and
//!   indexed heaps, sequential and concurrent union–find, exclusive scan,
//!   parallel sort and MWE precomputation. They attribute end-to-end
//!   differences to components and guard against substrate regressions.
//!
//! Each benchmark runs its closure once to warm up, then `samples` timed
//! times, and prints one line:
//!
//! ```text
//! relabel-prim/bfs-order/road/n=3600  median 1.234 ms  min 1.201 ms  max 1.310 ms  (3 samples)
//! ```
//!
//! `--quick` shrinks inputs and sample counts to a few seconds for CI;
//! without it the groups run at benchmark sizes.

use llp_bench::{Scale, Workload};
use llp_graph::algo::largest_component;
use llp_graph::generators::{erdos_renyi, rmat, road_network, RmatParams, RoadParams};
use llp_graph::transform::{
    permute_vertices, random_permutation, relabel_bfs, relabel_degree_descending,
};
use llp_graph::CsrGraph;
use llp_mst::heap::{IndexedHeap, LazyHeap};
use llp_mst::prelude::{boruvka_par, llp_boruvka, prim_indexed, spmv_boruvka_par};
use llp_mst::union_find::{ConcurrentUnionFind, UnionFind};
use llp_runtime::atomics::{mwe_propose, weight_hi32, AtomicIndexMin, MWE_EMPTY};
use llp_runtime::cli::{self, no_leftovers, take_flag, take_parsed, Error};
use llp_runtime::rng::SmallRng;
use llp_runtime::{atomics, parallel_for, ParallelForConfig, ScratchArena, ThreadPool};
use std::fmt::Display;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

struct Opts {
    quick: bool,
    threads: usize,
}

fn main() -> ExitCode {
    let opts = match parse_opts(std::env::args().skip(1).collect()) {
        Ok(opts) => opts,
        Err(e) => return cli::exit_code("microbench", Err(e)),
    };
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build; run with --release for meaningful numbers");
    }

    scratch_arena(&opts);
    mwe_word(&opts);
    relabel_prim(&opts);
    contraction_round(&opts);
    spmv_round(&opts);
    substrates(&opts);
    ExitCode::SUCCESS
}

fn parse_opts(mut args: Vec<String>) -> Result<Opts, Error> {
    let opts = Opts {
        quick: take_flag(&mut args, "--quick"),
        threads: take_parsed(&mut args, "--threads")?.map_or(4, NonZeroUsize::get),
    };
    no_leftovers(&args)?;
    Ok(opts)
}

fn samples(opts: &Opts, full: usize) -> usize {
    if opts.quick {
        3
    } else {
        full
    }
}

/// Times `f` for `samples` runs after one warm-up run and prints the
/// median, min and max as `name  median …  min …  max …  (N samples)`.
fn bench<R>(name: impl Display, samples: usize, mut f: impl FnMut() -> R) {
    black_box(f());
    let mut ns: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    println!(
        "{name}  median {}  min {}  max {}  ({samples} samples)",
        fmt_ns(ns[samples / 2]),
        fmt_ns(ns[0]),
        fmt_ns(ns[samples - 1]),
    );
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Warm lease vs fresh allocation, at a contraction-round buffer size.
fn scratch_arena(opts: &Opts) {
    let n: usize = if opts.quick { 1 << 16 } else { 1 << 22 };
    let pool = ThreadPool::new(opts.threads);
    let cfg = ParallelForConfig::default();
    let samples = samples(opts, 20);
    println!("== scratch-arena ==");

    bench(format_args!("scratch-arena/fresh-vec/{n}"), samples, || {
        let v = vec![MWE_EMPTY; n];
        v.len()
    });
    let arena = ScratchArena::new();
    // Warm the shelf once so the loop measures steady-state reuse.
    drop(arena.lease_filled::<u64>(&pool, cfg, n, MWE_EMPTY));
    bench(
        format_args!("scratch-arena/warm-lease/{n}"),
        samples,
        || {
            let v = arena.lease_filled::<u64>(&pool, cfg, n, MWE_EMPTY);
            v.len()
        },
    );
}

/// Packed one-word propose vs the retired two-word protocol, identical
/// proposal stream (n cells, 8n proposals, 25% duplicate weights so both
/// protocols hit their tie paths).
fn mwe_word(opts: &Opts) {
    let n: usize = if opts.quick { 1 << 12 } else { 1 << 16 };
    let m = 8 * n;
    let mut rng = SmallRng::seed_from_u64(9);
    let weights: Vec<f64> = (0..m)
        .map(|_| {
            if rng.gen_range(0..4) == 0 {
                0.5
            } else {
                rng.gen::<f64>()
            }
        })
        .collect();
    let whis: Vec<u32> = weights.iter().map(|&w| weight_hi32(w)).collect();
    let cells: Vec<usize> = (0..m)
        .map(|_| rng.gen_range(0..n as u32) as usize)
        .collect();
    let keys: Vec<(u64, u32)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (atomics::f64_to_ordered(w), i as u32))
        .collect();
    let pool = ThreadPool::new(opts.threads);
    let cfg = ParallelForConfig::default();
    let samples = samples(opts, 20);
    println!("== mwe-word ==");

    let mut packed = vec![MWE_EMPTY; n];
    bench("mwe-word/packed-u64", samples, || {
        let slots = atomics::as_atomic_u64(&mut packed);
        parallel_for(&pool, 0..m, cfg, |i| {
            mwe_propose(&slots[cells[i]], whis[i], i as u32, |idx| {
                keys[idx as usize]
            });
        });
        for s in slots {
            s.store(MWE_EMPTY, Ordering::Relaxed);
        }
    });

    let two_word: Vec<AtomicIndexMin> = (0..n).map(|_| AtomicIndexMin::new()).collect();
    bench("mwe-word/two-word", samples, || {
        parallel_for(&pool, 0..m, cfg, |i| {
            two_word[cells[i]].propose_min_by(i as u64, |idx| keys[idx as usize]);
        });
        for s in &two_word {
            s.reset();
        }
    });
}

/// Prim (indexed heap) before/after the cache-aware relabelings. The
/// `shuffled` row is the realistic starting point — inputs arrive in
/// arbitrary vertex order (our generators happen to emit near-optimal
/// orders already: row-major grids, BFS-ish RMAT components) — and the
/// relabelings are applied to that shuffled graph to show what they
/// recover.
fn relabel_prim(opts: &Opts) {
    let (rmat_g, road_g): (CsrGraph, CsrGraph) = if opts.quick {
        (
            largest_component(&rmat(RmatParams::graph500(13, 8, 5))),
            road_network(RoadParams::usa_like(60, 60, 5)),
        )
    } else {
        (
            largest_component(&rmat(RmatParams::graph500(17, 8, 5))),
            road_network(RoadParams::usa_like(400, 400, 5)),
        )
    };
    let samples = samples(opts, 10);
    println!("== relabel-prim ==");

    for (name, graph) in [("rmat", &rmat_g), ("road", &road_g)] {
        let n = graph.num_vertices();
        let shuffled = permute_vertices(graph, &random_permutation(n, 99));
        let (deg_g, _) = relabel_degree_descending(&shuffled);
        let (bfs_g, _) = relabel_bfs(&shuffled);
        for (order, gr) in [
            ("generator-order", graph),
            ("shuffled", &shuffled),
            ("degree-desc", &deg_g),
            ("bfs-order", &bfs_g),
        ] {
            bench(
                format_args!("relabel-prim/{order}/{name}/n={n}"),
                samples,
                || prim_indexed(gr, 0).expect("connected").total_weight,
            );
        }
    }
}

/// End-to-end rounds on the flat-memory engine.
fn contraction_round(opts: &Opts) {
    let graph = if opts.quick {
        largest_component(&erdos_renyi(20_000, 120_000, 11))
    } else {
        largest_component(&rmat(RmatParams::graph500(18, 8, 11)))
    };
    let pool = ThreadPool::new(opts.threads);
    let samples = samples(opts, 10);
    let param = format!("n={} m={}", graph.num_vertices(), graph.num_edges());
    println!("== contraction-round ==");

    bench(
        format_args!("contraction-round/llp-boruvka/{param}"),
        samples,
        || llp_boruvka(&graph, &pool).total_weight,
    );
    bench(
        format_args!("contraction-round/boruvka-par/{param}"),
        samples,
        || boruvka_par(&graph, &pool).total_weight,
    );
}

/// The SpMV formulation of the same round against direct LLP-Boruvka:
/// both pick the identical MWEs, but the SpMV backend rebuilds an explicit
/// contracted CSR (SpGEMM-style row/col merge) where the direct engine
/// relabels in place — this group prices that difference.
fn spmv_round(opts: &Opts) {
    let graph = if opts.quick {
        largest_component(&erdos_renyi(20_000, 120_000, 11))
    } else {
        largest_component(&rmat(RmatParams::graph500(18, 8, 11)))
    };
    let pool = ThreadPool::new(opts.threads);
    let samples = samples(opts, 10);
    let param = format!("n={} m={}", graph.num_vertices(), graph.num_edges());
    println!("== spmv-round ==");

    bench(
        format_args!("spmv-round/spmv-boruvka/{param}"),
        samples,
        || spmv_boruvka_par(&graph, &pool).total_weight,
    );
    bench(
        format_args!("spmv-round/llp-boruvka/{param}"),
        samples,
        || llp_boruvka(&graph, &pool).total_weight,
    );
}

/// Heaps, union–find, scan, sort and MWE precomputation at fixed sizes
/// (the same with and without `--quick`; each run takes milliseconds).
fn substrates(opts: &Opts) {
    let n = 50_000usize;
    let pool = ThreadPool::new(opts.threads);
    let samples = samples(opts, 20);
    println!("== substrates ==");

    bench(
        format_args!("substrates/lazy-heap-push-pop/n={n}"),
        samples,
        || {
            let mut rand = xorshift(0xDEADBEEF);
            let mut h: LazyHeap<u64> = LazyHeap::new();
            for i in 0..n as u32 {
                h.push(rand(), i);
            }
            let mut acc = 0u64;
            while let Some((k, _)) = h.pop() {
                acc = acc.wrapping_add(k);
            }
            acc
        },
    );
    bench(
        format_args!("substrates/indexed-heap-mixed/n={n}"),
        samples,
        || {
            let mut rand = xorshift(0xC0FFEE);
            let mut h: IndexedHeap<u64> = IndexedHeap::new(n);
            for _ in 0..n {
                h.insert_or_adjust((rand() % n as u64) as u32, rand());
            }
            let mut acc = 0u64;
            while let Some((k, _)) = h.pop_min() {
                acc = acc.wrapping_add(k);
            }
            acc
        },
    );
    bench(
        format_args!("substrates/union-find-seq/n={n}"),
        samples,
        || {
            let mut rand = xorshift(0xFACADE);
            let mut uf = UnionFind::new(n);
            for _ in 0..n {
                uf.union((rand() % n as u64) as u32, (rand() % n as u64) as u32);
            }
            uf.num_components()
        },
    );
    bench(
        format_args!("substrates/union-find-concurrent/n={n}"),
        samples,
        || {
            let mut rand = xorshift(0xBEEF);
            let uf = ConcurrentUnionFind::new(n);
            for _ in 0..n {
                uf.union((rand() % n as u64) as u32, (rand() % n as u64) as u32);
            }
            uf.find(0)
        },
    );

    let values: Vec<u64> = (0..200_000u64).map(|i| i % 17).collect();
    bench("substrates/exclusive-scan/n=200000", samples, || {
        llp_runtime::scan::exclusive_scan(&pool, &values)
    });
    let mut rand = xorshift(0xABCD);
    let data: Vec<u64> = (0..200_000).map(|_| rand()).collect();
    bench("substrates/par-sort/n=200000", samples, || {
        let mut v = data.clone();
        llp_runtime::sort::par_sort(&pool, &mut v);
        v.len()
    });
    let w = Workload::road(Scale::Small, 42);
    bench("substrates/compute-mwe/road-small", samples, || {
        w.graph.compute_mwe(&pool)
    });
}

fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_warms_up_once_then_times_every_sample() {
        let mut calls = 0u32;
        bench("test/count", 3, || calls += 1);
        assert_eq!(calls, 4);
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.500 us");
        assert_eq!(fmt_ns(2_000_000), "2.000 ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.500 s");
    }
}
