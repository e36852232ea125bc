//! `ooc-bench` — the out-of-core pipeline end to end, with an RSS gate.
//!
//! ```text
//! ooc-bench gen --out g.bin [--kind rmat|er] [--scale 16] [--ef 16] [--seed 1]
//!               [--chunk-edges N]
//! ooc-bench run --graph g.bin [--shard-mb MB | --shard-edges N] [--threads T]
//!               [--read-ahead K] [--no-certify] [--report out.json]
//!               [--max-rss-frac 0.5] [--rss-baseline-mb 0]
//!               [--checkpoint ck.llp] [--stop-after-shards N]
//! ```
//!
//! `gen` streams an RMAT / Erdős–Rényi sample straight to the binary
//! file in bounded chunks — RAM stays at the chunk size no matter the
//! scale, so graphs far bigger than memory can be produced. `run` solves
//! and (by default) certifies the file with the sharded Borůvka-filter,
//! then gates the process peak RSS against
//! `max_rss_frac · file_bytes + rss_baseline_mb`: the baseline term
//! absorbs the fixed runtime footprint that dominates on tiny graphs,
//! the fractional term is the headline out-of-core claim (default: peak
//! RSS at most half the edge list). Nonzero exit when the gate fails,
//! certification rejects, or certification was skipped while a gate
//! report was requested.
//!
//! `--checkpoint` names a manifest that is fsync'd after every
//! completed shard: a killed run re-launched with the same flags skips
//! the shards already folded in and still certifies. `--stop-after-shards`
//! interrupts deliberately (exit code 3, distinct from failure) so CI
//! can rehearse the kill-and-resume path without an actual SIGKILL.
//!
//! The JSON report (`llp-mst-ooc-report/v1`):
//!
//! ```json
//! {
//!   "schema": "llp-mst-ooc-report/v1",
//!   "graph": { "path": "g.bin", "n": 65536, "m": 1043931, "bytes": 16702924 },
//!   "shard_edges": 262144, "shards": 4, "threads": 2, "read_ahead": 1,
//!   "certified": true, "msf_edges": 65535, "total_weight": 123.456,
//!   "candidate_edges": 180000, "filtered_edges": 9000,
//!   "wall_ms": 1234.5,
//!   "peak_rss_bytes": 52428800, "rss_frac": 0.31,
//!   "gate": { "max_rss_frac": 0.5, "rss_baseline_mb": 24,
//!             "limit_bytes": 33522462, "pass": true }
//! }
//! ```

use llp_bench::workloads::{stream_to_binary, StreamKind};
use llp_mst::prelude::*;
use llp_runtime::cli::{
    self, no_leftovers, take_flag, take_opt, take_parsed, take_required, Error,
};
use llp_runtime::json::Json;
use llp_runtime::{available_threads, telemetry, ThreadPool};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&mut args),
        "run" => cmd_run(&mut args),
        other => Err(Error::Usage(format!("unknown command `{other}`\n{USAGE}"))),
    };
    cli::exit_code(&format!("ooc-bench {cmd}"), result)
}

const USAGE: &str = "usage: ooc-bench <gen|run> [options]
  gen --out g.bin [--kind rmat|er] [--scale 16] [--ef 16] [--seed 1] [--chunk-edges N]
  run --graph g.bin [--shard-mb MB | --shard-edges N] [--threads T] [--read-ahead K]
      [--no-certify] [--report out.json] [--max-rss-frac 0.5] [--rss-baseline-mb 0]
      [--checkpoint ck.llp] [--stop-after-shards N]   (exit 3 = interrupted, resumable)";

fn cmd_gen(args: &mut Vec<String>) -> Result<(), Error> {
    let out = take_required(args, "--out")?;
    let kind_s = take_opt(args, "--kind")?.unwrap_or_else(|| "rmat".into());
    let kind = StreamKind::parse(&kind_s)
        .ok_or_else(|| Error::Usage(format!("bad --kind {kind_s} (rmat|er)")))?;
    let scale: u32 = take_parsed(args, "--scale")?.unwrap_or(16);
    let ef: usize = take_parsed(args, "--ef")?.unwrap_or(16);
    let seed: u64 = take_parsed(args, "--seed")?.unwrap_or(1);
    let chunk: usize = take_parsed(args, "--chunk-edges")?.unwrap_or(0);
    no_leftovers(args)?;
    if scale > 31 {
        return Err(Error::Usage("--scale must be <= 31".into()));
    }
    let t0 = Instant::now();
    let info = stream_to_binary(&PathBuf::from(&out), kind, scale, ef, seed, chunk)?;
    println!(
        "gen {kind} scale={scale} ef={ef} seed={seed}: n={} m={} bytes={} ({:.1}s)",
        info.num_vertices,
        info.num_edges,
        info.file_bytes,
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Everything `run` measures, marshalled into the report and the gate.
#[derive(Default)]
struct RunReport {
    graph: String,
    n: usize,
    m: u64,
    file_bytes: u64,
    shard_edges: usize,
    shards: usize,
    threads: usize,
    read_ahead: usize,
    certified: bool,
    msf_edges: usize,
    total_weight: f64,
    candidate_edges: u64,
    filtered_edges: u64,
    wall_ms: f64,
    peak_rss_bytes: Option<u64>,
    max_rss_frac: f64,
    rss_baseline_mb: u64,
}

impl RunReport {
    /// `max_rss_frac · file_bytes + rss_baseline_mb` in bytes.
    fn limit_bytes(&self) -> u64 {
        (self.max_rss_frac * self.file_bytes as f64) as u64 + self.rss_baseline_mb * (1 << 20)
    }

    /// The gate passes when peak RSS is measurable and under the limit.
    /// On platforms without an RSS probe the gate abstains (passes) —
    /// the report says so via `"peak_rss_bytes": null`.
    fn gate_pass(&self) -> bool {
        match self.peak_rss_bytes {
            Some(rss) => rss <= self.limit_bytes(),
            None => true,
        }
    }

    fn to_json(&self) -> Json {
        let mut j = Json::new();
        j.begin_object();
        j.key("schema").str("llp-mst-ooc-report/v1");
        j.key("graph").begin_object();
        j.key("path").str(&self.graph);
        j.key("n").u64(self.n as u64);
        j.key("m").u64(self.m);
        j.key("bytes").u64(self.file_bytes);
        j.end_object();
        j.key("shard_edges").u64(self.shard_edges as u64);
        j.key("shards").u64(self.shards as u64);
        j.key("threads").u64(self.threads as u64);
        j.key("read_ahead").u64(self.read_ahead as u64);
        j.key("certified").bool(self.certified);
        j.key("msf_edges").u64(self.msf_edges as u64);
        j.key("total_weight").f64(self.total_weight);
        j.key("candidate_edges").u64(self.candidate_edges);
        j.key("filtered_edges").u64(self.filtered_edges);
        j.key("wall_ms").f64(self.wall_ms);
        j.key("peak_rss_bytes").opt_u64(self.peak_rss_bytes);
        match self.peak_rss_bytes {
            Some(b) => j.key("rss_frac").f64(b as f64 / self.file_bytes as f64),
            None => j.key("rss_frac").null(),
        };
        j.key("gate").begin_object();
        j.key("max_rss_frac").f64(self.max_rss_frac);
        j.key("rss_baseline_mb").u64(self.rss_baseline_mb);
        j.key("limit_bytes").u64(self.limit_bytes());
        j.key("pass").bool(self.gate_pass());
        j.end_object();
        j.end_object();
        j
    }
}

fn cmd_run(args: &mut Vec<String>) -> Result<(), Error> {
    let graph = take_required(args, "--graph")?;
    let shard_mb: Option<u64> = take_parsed(args, "--shard-mb")?;
    let mut shard_edges: usize =
        take_parsed(args, "--shard-edges")?.unwrap_or(ShardedConfig::default().shard_edges);
    if let Some(mb) = shard_mb {
        // ~64 B/edge peak working set per resident shard during
        // contraction (see the sharded module docs); budget accordingly.
        shard_edges = ((mb << 20) / 64).max(1) as usize;
    }
    let threads = take_parsed(args, "--threads")?.map_or_else(available_threads, NonZeroUsize::get);
    let read_ahead: usize = take_parsed(args, "--read-ahead")?.unwrap_or(1);
    let certify = !take_flag(args, "--no-certify");
    let report_path = take_opt(args, "--report")?;
    let max_rss_frac: f64 = take_parsed(args, "--max-rss-frac")?.unwrap_or(0.5);
    let rss_baseline_mb: u64 = take_parsed(args, "--rss-baseline-mb")?.unwrap_or(0);
    let checkpoint = take_opt(args, "--checkpoint")?.map(PathBuf::from);
    let stop_after_shards: Option<usize> = take_parsed(args, "--stop-after-shards")?;
    no_leftovers(args)?;
    if stop_after_shards.is_some() && checkpoint.is_none() {
        return Err(Error::Usage(
            "--stop-after-shards without --checkpoint would lose the partial run".into(),
        ));
    }

    let path = PathBuf::from(&graph);
    let file_bytes = std::fs::metadata(&path).map_err(|e| format!("{graph}: {e}"))?.len();
    let pool = ThreadPool::new(threads.max(1));
    let cfg = ShardedConfig {
        shard_edges: shard_edges.max(1),
        certify,
        read_ahead,
        checkpoint,
        stop_after_shards,
    };

    let t0 = Instant::now();
    let run = match sharded_msf_file(&path, &cfg, &pool) {
        Ok(run) => run,
        Err(ShardedError::Interrupted { shards_done, shards_total }) => {
            // Deliberate interruption is not a failure: the manifest holds
            // shards_done folded shards, and the same command line resumes.
            println!(
                "run {graph}: interrupted after shard {shards_done}/{shards_total}; \
                 re-run with the same --checkpoint to resume"
            );
            std::process::exit(3);
        }
        Err(e) => return Err(e.to_string().into()),
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(done) = run.resumed_from {
        println!("resumed from checkpoint: {done} shards skipped");
    }

    let report = RunReport {
        graph,
        n: run.num_vertices,
        m: run.num_edges,
        file_bytes,
        shard_edges: cfg.shard_edges,
        shards: run.shards,
        threads: threads.max(1),
        read_ahead,
        certified: run.certified,
        msf_edges: run.result.edges.len(),
        total_weight: run.result.total_weight,
        candidate_edges: run.candidate_edges,
        filtered_edges: run.filtered_edges,
        wall_ms,
        peak_rss_bytes: telemetry::peak_rss_bytes(),
        max_rss_frac,
        rss_baseline_mb,
    };

    println!(
        "run {}: n={} m={} shards={} msf_edges={} weight={:.6} certified={} wall={:.1}ms",
        report.graph,
        report.n,
        report.m,
        report.shards,
        report.msf_edges,
        report.total_weight,
        report.certified,
        report.wall_ms,
    );
    match report.peak_rss_bytes {
        Some(rss) => println!(
            "peak rss {:.1} MiB / file {:.1} MiB = {:.3} (limit {:.1} MiB) gate={}",
            rss as f64 / (1 << 20) as f64,
            report.file_bytes as f64 / (1 << 20) as f64,
            rss as f64 / report.file_bytes as f64,
            report.limit_bytes() as f64 / (1 << 20) as f64,
            if report.gate_pass() { "pass" } else { "FAIL" },
        ),
        None => println!("peak rss unavailable on this platform; gate abstains"),
    }

    if let Some(p) = report_path {
        report
            .to_json()
            .write_file(Path::new(&p))
            .map_err(|e| format!("{p}: {e}"))?;
        println!("report written to {p}");
    }

    if !report.certified && certify {
        return Err(Error::Failed("certification did not run".into()));
    }
    if !report.gate_pass() {
        return Err(format!(
            "RSS gate failed: peak {} > limit {} bytes",
            report.peak_rss_bytes.unwrap_or(0),
            report.limit_bytes()
        )
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_escapes_any_graph_path() {
        let report = RunReport {
            graph: "dir\\with \"quotes\"\tand\nnewline.bin".into(),
            file_bytes: 108,
            ..RunReport::default()
        };
        let text = report.to_json().finish();
        assert_eq!(llp_runtime::json::validate(&text), Ok(()), "{text}");
        let path = r#""path":"dir\\with \"quotes\"\tand\nnewline.bin""#;
        assert!(text.contains(path), "{text}");
        let rss = r#""peak_rss_bytes":null,"rss_frac":null"#;
        assert!(text.contains(rss), "{text}");
    }
}
