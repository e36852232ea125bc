//! # llp-bench — reproduction harness for the paper's evaluation
//!
//! Regenerates every table and figure of the paper:
//!
//! | Paper artifact | Module / binary command |
//! |---|---|
//! | Table I (datasets) | [`workloads`] / `repro table1` |
//! | Fig. 2 (single-threaded: Prim vs LLP-Prim(1T) vs Boruvka) | `repro fig2` |
//! | Fig. 3 (thread sweep on the road network) | `repro fig3` |
//! | Fig. 4 (low vs high core counts across graph types) | `repro fig4` |
//! | §V claims (heap-op reduction, early fixing, sync reduction) | `repro ablation` |
//!
//! The paper measured a 48-vCPU GCE C2 VM with ≤ 32 threads; this harness
//! also reports **machine-independent work metrics** (heap operations,
//! early fixes, rounds, pointer jumps, atomic RMW traffic) so the figures'
//! *shapes* are reproducible on any core count. The `microbench` binary
//! times the kernels and substrates underneath (heaps, union–find, scans,
//! sorts, MWE words, contraction rounds).

pub mod algorithms;
pub mod harness;
pub mod workloads;

pub use algorithms::{run_algorithm, Algorithm};
pub use harness::{format_table, time_algorithm, Measurement, Sample};
pub use workloads::{stream_to_binary, Scale, StreamKind, StreamedFile, Workload, WorkloadKind};
