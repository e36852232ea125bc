//! `dynamic-bench` — update throughput of the fully dynamic MSF
//! (`llp_mst::dynamic::DynamicMsf`): edges/sec applied across mixed
//! insert/delete epochs, with per-epoch latency percentiles, written as
//! `llp-mst-dynamic-report/v1` JSON and gated on `--min-eps`.
//!
//! ```text
//! dynamic-bench [--scale 14] [--ef 8] [--seed 1] [--epochs 24]
//!               [--batch 1024] [--threads N] [--no-certify]
//!               [--report BENCH_dynamic.json] [--min-eps 0]
//! ```
//!
//! Each epoch deletes `batch/2` random live edges (tree edges included,
//! so trees are cut and the Kruskal pass runs) and inserts `batch/2`
//! edges — half re-insertions of previously deleted edges, half fresh
//! random pairs — then applies the batch as one [`DynamicMsf`] epoch.
//! Unless `--no-certify`, every epoch ends with the full certification
//! sweep, so the reported throughput is *certified* update throughput:
//! the number a serving deployment would actually sustain.

use llp_graph::generators::{rmat, RmatParams};
use llp_graph::Edge;
use llp_mst::dynamic::DynamicMsf;
use llp_runtime::cli::{self, no_leftovers, take_flag, take_opt, take_parsed, Error};
use llp_runtime::json::Json;
use llp_runtime::rng::SmallRng;
use llp_runtime::{available_threads, ThreadPool};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Instant;

struct Opts {
    scale: u32,
    ef: usize,
    seed: u64,
    epochs: usize,
    batch: usize,
    threads: usize,
    certify: bool,
    report: String,
    min_eps: f64,
}

fn parse_opts() -> Result<Opts, Error> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Opts {
        scale: take_parsed(&mut args, "--scale")?.unwrap_or(14),
        ef: take_parsed(&mut args, "--ef")?.unwrap_or(8),
        seed: take_parsed(&mut args, "--seed")?.unwrap_or(1),
        epochs: take_parsed(&mut args, "--epochs")?.unwrap_or(24),
        batch: take_parsed(&mut args, "--batch")?.unwrap_or(1024),
        threads: take_parsed(&mut args, "--threads")?
            .map_or_else(available_threads, NonZeroUsize::get),
        certify: !take_flag(&mut args, "--no-certify"),
        report: take_opt(&mut args, "--report")?.unwrap_or_else(|| "BENCH_dynamic.json".into()),
        min_eps: take_parsed(&mut args, "--min-eps")?.unwrap_or(0.0),
    };
    no_leftovers(&args)?;
    if opts.epochs == 0 || opts.batch < 2 {
        return Err(Error::Usage(
            "--epochs must be >= 1 and --batch >= 2".into(),
        ));
    }
    Ok(opts)
}

struct EpochRow {
    epoch: u64,
    updates: usize,
    ms: f64,
    eps: f64,
    fast_swaps: usize,
    fast_rejects: usize,
    links: usize,
    dirty: usize,
    rebuild_vertices: usize,
    rebuild_edges: usize,
}

/// Percentile over a sorted slice (nearest-rank on the closed range).
fn percentile(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

fn main() -> ExitCode {
    cli::exit_code("dynamic-bench", run())
}

fn run() -> Result<(), Error> {
    let opts = parse_opts()?;
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build; run with --release for meaningful numbers");
    }

    let graph = rmat(RmatParams::graph500(opts.scale, opts.ef, opts.seed));
    let n = graph.num_vertices();
    let pool = ThreadPool::new(opts.threads);
    println!(
        "graph: rmat scale {} ef {} seed {} (n={n}, m={})",
        opts.scale,
        opts.ef,
        opts.seed,
        graph.num_edges()
    );

    let t = Instant::now();
    let mut d = DynamicMsf::new(&graph, &pool).map_err(|e| format!("initial build failed: {e}"))?;
    d.set_certify_epochs(opts.certify);
    let m0 = d.num_edges();
    println!(
        "initial epoch: {:.1} ms (m={m0}, trees={}, certified)",
        t.elapsed().as_secs_f64() * 1e3,
        d.msf().num_trees
    );

    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x9e3779b97f4a7c15);
    let mut live: Vec<(u32, u32)> = d
        .current_edges()
        .iter()
        .map(Edge::canonical_endpoints)
        .collect();
    let mut graveyard: Vec<Edge> = Vec::new();
    let mut rows: Vec<EpochRow> = Vec::with_capacity(opts.epochs);
    let (mut classify_ms, mut rebuild_ms, mut index_ms, mut certify_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut tot_ins, mut tot_del) = (0usize, 0usize);

    for _ in 0..opts.epochs {
        let half = opts.batch / 2;
        let mut deletes: Vec<(u32, u32)> = Vec::with_capacity(half);
        for _ in 0..half.min(live.len().saturating_sub(1)) {
            let i = rng.gen_range(0usize..live.len());
            let (u, v) = live.swap_remove(i);
            deletes.push((u, v));
            graveyard.push(Edge::new(u, v, 0.0));
        }
        let mut inserts: Vec<Edge> = Vec::with_capacity(half);
        for k in 0..half {
            if k % 2 == 0 && !graveyard.is_empty() {
                let i = rng.gen_range(0usize..graveyard.len());
                let e = graveyard.swap_remove(i);
                inserts.push(Edge::new(e.u, e.v, rng.gen_range(1u32..1000) as f64));
            } else {
                let u = rng.gen_range(0u32..n as u32);
                let v = rng.gen_range(0u32..n as u32);
                if u != v {
                    inserts.push(Edge::new(u, v, rng.gen_range(1u32..1000) as f64));
                }
            }
        }

        let t = Instant::now();
        let report = d
            .apply_batch(&inserts, &deletes, &pool)
            .map_err(|e| format!("epoch failed: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let updates = report.updates();
        rows.push(EpochRow {
            epoch: report.epoch,
            updates,
            ms,
            eps: updates as f64 / (ms / 1e3),
            fast_swaps: report.fast_swaps,
            fast_rejects: report.fast_rejects,
            links: report.links,
            dirty: report.dirty_components,
            rebuild_vertices: report.rebuild_vertices,
            rebuild_edges: report.rebuild_edges,
        });
        classify_ms += report.classify_ms;
        rebuild_ms += report.rebuild_ms;
        index_ms += report.index_ms;
        certify_ms += report.certify_ms;
        tot_ins += report.inserts_applied;
        tot_del += report.deletes_applied;

        // Refresh the live list from the structure (cheap vs an epoch).
        live.clear();
        live.extend(d.current_edges().iter().map(Edge::canonical_endpoints));
    }

    let mut eps_sorted: Vec<f64> = rows.iter().map(|r| r.eps).collect();
    eps_sorted.sort_by(f64::total_cmp);
    let mut ms_sorted: Vec<f64> = rows.iter().map(|r| r.ms).collect();
    ms_sorted.sort_by(f64::total_cmp);
    // Throughput percentiles quote the *slow* tail: p99 is the 1st
    // percentile of eps (the worst epochs), mirroring latency p99.
    let eps_p50 = percentile(&eps_sorted, 50);
    let eps_p99 = percentile(&eps_sorted, 1);
    let ms_p50 = percentile(&ms_sorted, 50);
    let ms_p99 = percentile(&ms_sorted, 99);

    println!("epoch  updates      ms        eps  swaps rejects links dirty  rb_verts  rb_edges");
    for r in &rows {
        println!(
            "{:>5} {:>8} {:>7.2} {:>10.0} {:>6} {:>7} {:>5} {:>5} {:>9} {:>9}",
            r.epoch,
            r.updates,
            r.ms,
            r.eps,
            r.fast_swaps,
            r.fast_rejects,
            r.links,
            r.dirty,
            r.rebuild_vertices,
            r.rebuild_edges
        );
    }
    println!(
        "eps: p50 {eps_p50:.0} p99 {eps_p99:.0} | epoch ms: p50 {ms_p50:.2} p99 {ms_p99:.2} \
         | certified: {}",
        opts.certify
    );

    let mut j = Json::new();
    j.begin_object();
    j.key("schema").str("llp-mst-dynamic-report/v1");
    j.key("graph").begin_object();
    j.key("n").u64(n as u64);
    j.key("m0").u64(m0 as u64);
    j.end_object();
    j.key("config").begin_object();
    j.key("scale").u64(opts.scale.into());
    j.key("ef").u64(opts.ef as u64);
    j.key("seed").u64(opts.seed);
    j.key("epochs").u64(opts.epochs as u64);
    j.key("batch").u64(opts.batch as u64);
    j.key("threads").u64(opts.threads as u64);
    j.key("certified").bool(opts.certify);
    j.end_object();
    j.key("eps").begin_object();
    j.key("p50").f64(eps_p50);
    j.key("p99").f64(eps_p99);
    j.end_object();
    j.key("epoch_ms").begin_object();
    j.key("p50").f64(ms_p50);
    j.key("p99").f64(ms_p99);
    j.end_object();
    j.key("phase_ms_total").begin_object();
    j.key("classify").f64(classify_ms);
    j.key("rebuild").f64(rebuild_ms);
    j.key("index").f64(index_ms);
    j.key("certify").f64(certify_ms);
    j.end_object();
    j.key("totals").begin_object();
    j.key("inserts_applied").u64(tot_ins as u64);
    j.key("deletes_applied").u64(tot_del as u64);
    j.end_object();
    j.key("epochs").begin_array();
    for r in &rows {
        j.begin_object();
        j.key("epoch").u64(r.epoch);
        j.key("updates").u64(r.updates as u64);
        j.key("ms").f64(r.ms);
        j.key("eps").f64(r.eps);
        j.key("fast_swaps").u64(r.fast_swaps as u64);
        j.key("fast_rejects").u64(r.fast_rejects as u64);
        j.key("links").u64(r.links as u64);
        j.key("dirty_components").u64(r.dirty as u64);
        j.key("rebuild_vertices").u64(r.rebuild_vertices as u64);
        j.key("rebuild_edges").u64(r.rebuild_edges as u64);
        j.end_object();
    }
    j.end_array();
    j.end_object();
    j.write_file(std::path::Path::new(&opts.report))
        .map_err(|e| format!("{}: {e}", opts.report))?;
    println!("report: {}", opts.report);

    if eps_p50 < opts.min_eps {
        return Err(format!(
            "gate FAILED: p50 throughput {eps_p50:.0} updates/s is below --min-eps {:.0}",
            opts.min_eps
        )
        .into());
    }
    if opts.min_eps > 0.0 {
        println!("gate: p50 {eps_p50:.0} updates/s >= {:.0}", opts.min_eps);
    }
    Ok(())
}
