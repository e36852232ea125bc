//! # llp-runtime — parallel substrate for the LLP-MST reproduction
//!
//! The paper evaluates LLP-Prim on the Galois runtime and LLP-Boruvka on the
//! Graph Based Benchmark Suite (GBBS). Both frameworks contribute the same
//! ingredients: a pool of worker threads, chunked parallel loops, concurrent
//! insert-bags for frontiers, atomic priority/min writes and prefix sums.
//! This crate implements those ingredients from scratch so that the
//! algorithm crates exercise the same code paths as the paper's hosts.
//!
//! Components:
//!
//! * [`ThreadPool`] — a persistent SPMD pool: [`ThreadPool::broadcast`] runs
//!   one closure on every thread (the caller participates as thread 0).
//! * [`parallel_for()`](fn@parallel_for) / [`parallel_for_chunks`] — dynamically load-balanced
//!   parallel loops over index ranges.
//! * [`parallel_reduce`] / [`parallel_map_collect`] — parallel reductions.
//! * [`Bag`] — a per-thread insert bag (Galois `InsertBag` analogue) used to
//!   collect next-round frontiers without synchronization on the hot path.
//! * [`atomics`] — `AtomicF64`, order-preserving float encodings, atomic
//!   fetch-min by key (GBBS `priority_write` analogue).
//! * [`scan`] — sequential and parallel exclusive prefix sums.
//! * [`partition`] — scan-based counting distribution: stable parallel
//!   three-way partition and parallel retain (Filter-Kruskal's pivot
//!   partition and filter steps).
//! * [`sort`] — parallel sample sort (counting distribution into buckets)
//!   used by the Kruskal family.
//! * [`counters`] — relaxed instrumentation counters that let benchmarks
//!   report machine-independent work metrics (heap operations, rounds,
//!   pointer jumps) alongside wall-clock times.
//! * [`chaos`] — seeded schedule perturbation (randomized yields/delays at
//!   chunk claims, shuffled broadcast start order, adversarial grains)
//!   behind the `chaos` cargo feature, for concurrency testing.
//! * [`faults`] — seeded I/O fault injection (short reads/writes, transient
//!   errors, truncation, detectable corruption, ENOSPC) behind the `faults`
//!   cargo feature, for robustness testing of the I/O and serving stack.
//! * [`cli`] / [`json`] — the argument parsing and the JSON report writer
//!   shared by every binary in the workspace.

pub mod atomics;
pub mod bag;
pub mod chaos;
pub mod cli;
pub mod counters;
pub mod faults;
pub mod json;
pub mod parallel_for;
pub mod partition;
pub mod pool;
pub mod reduce;
pub mod rng;
pub mod scan;
pub mod scratch;
pub mod sort;
pub mod sync;
pub mod telemetry;

pub use bag::Bag;
pub use counters::Counter;
pub use parallel_for::{parallel_for, parallel_for_chunks, parallel_for_chunks_ctx, ParallelForConfig};
pub use pool::{ThreadPool, WorkerCtx};
pub use reduce::{parallel_map_collect, parallel_reduce, SendPtr};
pub use scratch::{ScratchArena, ScratchVec};

/// Number of hardware threads available to this process.
///
/// Falls back to 1 when the platform cannot report parallelism.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
