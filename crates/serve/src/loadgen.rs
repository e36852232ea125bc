//! Load generator: sweeps batch sizes against a running server and writes
//! the `llp-mst-serve-report/v1` JSON (`BENCH_serve.json`).
//!
//! Per sweep point the generator fires a fixed number of random queries
//! (a 25/50/25 mix of `component` / `path_max` / `connected_under`) in
//! frames of the point's batch size over one connection, measuring each
//! frame's round-trip. Reported per point: queries/sec and p50/p99
//! *per-query* latency (frame round-trip ÷ batch). With a verifier the
//! generator replays every response against a locally built
//! [`MsfService`] — the same certified index the server answers from — so
//! a passing run re-checks the server's classifications end to end.

use crate::protocol::{Query, Response, MAX_BATCH};
use crate::retry::{RetryPolicy, RetryingClient};
use crate::service::MsfService;
use llp_runtime::json::Json;
use llp_runtime::rng::SmallRng;
use std::time::Instant;

/// One batch-size measurement.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Queries per frame.
    pub batch: usize,
    /// Total queries fired at this point.
    pub queries: u64,
    /// Wall-clock for the whole point, seconds.
    pub elapsed_s: f64,
    /// Queries per second.
    pub qps: f64,
    /// Median per-query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_us: f64,
    /// Transparent reconnect-and-resend retries this point needed
    /// (non-zero under load shedding or fault injection).
    pub retries: u64,
}

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Batch sizes to sweep.
    pub batches: Vec<usize>,
    /// Queries per sweep point.
    pub queries_per_point: u64,
    /// RNG seed for the query stream.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            batches: vec![1, 16, 256, 4096],
            queries_per_point: 100_000,
            seed: 42,
        }
    }
}

/// Draws a random query over `n` vertices: 1/4 `component`, 1/2
/// `path_max`, 1/4 `connected_under` (λ uniform in `[0, 1)`, the
/// generators' weight range).
fn random_query(rng: &mut SmallRng, n: u32) -> Query {
    let u = rng.gen_range(0..n);
    let v = rng.gen_range(0..n);
    match rng.gen_range(0..4u32) {
        0 => Query::Component(u),
        1 | 2 => Query::PathMax(u, v),
        _ => Query::ConnectedUnder(u, v, rng.gen::<f64>()),
    }
}

/// Runs the sweep against `addr`. `verify` replays every response against
/// a local service and fails on the first divergence.
///
/// The sweep runs through a [`RetryingClient`]: a shed connection (the
/// overloaded frame), a reaped deadline, or an injected socket fault
/// costs a reconnect-and-resend (counted per point in
/// [`SweepPoint::retries`]) instead of failing the sweep. Every query is
/// an idempotent read, so resending is always safe; with `verify` on, a
/// retried frame's responses are still checked against the local
/// certified index — retries never relax correctness.
pub fn run_sweep(
    addr: &str,
    n: u32,
    cfg: &LoadgenConfig,
    verify: Option<&MsfService>,
) -> Result<Vec<SweepPoint>, String> {
    assert!(n > 0, "cannot generate queries over an empty graph");
    let mut client = RetryingClient::new(addr, RetryPolicy::default(), cfg.seed ^ 0xB0FF);

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut points = Vec::new();
    for &batch in &cfg.batches {
        let batch = batch.clamp(1, MAX_BATCH);
        let frames = cfg.queries_per_point.div_ceil(batch as u64).max(1);
        let mut frame_us: Vec<f64> = Vec::with_capacity(frames as usize);
        let mut fired = 0u64;
        let retries_before = client.retries;
        let t0 = Instant::now();
        for _ in 0..frames {
            let queries: Vec<Query> = (0..batch).map(|_| random_query(&mut rng, n)).collect();
            let t = Instant::now();
            let responses = client.exchange(&queries)?;
            frame_us.push(t.elapsed().as_secs_f64() * 1e6);
            fired += batch as u64;
            if let Some(local) = verify {
                check_against_local(local, &queries, &responses)?;
            }
        }
        let elapsed_s = t0.elapsed().as_secs_f64();
        frame_us.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| -> f64 {
            let idx = ((frame_us.len() as f64 - 1.0) * p).round() as usize;
            frame_us[idx] / batch as f64
        };
        points.push(SweepPoint {
            batch,
            queries: fired,
            elapsed_s,
            qps: fired as f64 / elapsed_s,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            retries: client.retries - retries_before,
        });
    }
    Ok(points)
}

/// Replays `queries` against the local certified service and compares.
fn check_against_local(
    local: &MsfService,
    queries: &[Query],
    responses: &[Response],
) -> Result<(), String> {
    for (q, got) in queries.iter().zip(responses) {
        let want = local.answer(q);
        if *got != want {
            return Err(format!(
                "server diverges from the local certified index on {q:?}: \
                 got {got:?}, want {want:?}"
            ));
        }
    }
    Ok(())
}

/// Everything the serve report records.
pub struct ReportInputs<'a> {
    /// Served graph: vertices.
    pub n: usize,
    /// Served graph: edges.
    pub m: usize,
    /// Trees in the certified forest.
    pub num_trees: usize,
    /// Build timings (MSF, index, certify), milliseconds.
    pub build: crate::service::BuildTimings,
    /// Pool threads used for the build.
    pub threads: usize,
    /// Server connection workers.
    pub workers: usize,
    /// Whether every response was verified against a local index.
    pub verified: bool,
    /// The sweep measurements.
    pub sweep: &'a [SweepPoint],
}

/// Writes the `llp-mst-serve-report/v1` JSON (creating parent
/// directories).
///
/// ```json
/// {
///   "schema": "llp-mst-serve-report/v1",
///   "graph": {"n": 65536, "m": 1048576, "num_trees": 3},
///   "build_ms": {"msf": 1.0, "index": 0.5, "certify": 0.8},
///   "threads": 4, "workers": 2, "verified": true,
///   "sweep": [
///     {"batch": 1, "queries": 100000, "elapsed_s": 1.0,
///      "qps": 100000.0, "p50_us": 9.0, "p99_us": 31.0, "retries": 0}
///   ]
/// }
/// ```
pub fn write_report(path: &std::path::Path, inputs: &ReportInputs<'_>) -> std::io::Result<()> {
    let mut j = Json::new();
    j.begin_object();
    j.key("schema").str("llp-mst-serve-report/v1");
    j.key("graph").begin_object();
    j.key("n").u64(inputs.n as u64);
    j.key("m").u64(inputs.m as u64);
    j.key("num_trees").u64(inputs.num_trees as u64);
    j.end_object();
    j.key("build_ms").begin_object();
    j.key("msf").f64(inputs.build.msf_ms);
    j.key("index").f64(inputs.build.index_ms);
    j.key("certify").f64(inputs.build.certify_ms);
    j.end_object();
    j.key("threads").u64(inputs.threads as u64);
    j.key("workers").u64(inputs.workers as u64);
    j.key("verified").bool(inputs.verified);
    j.key("sweep").begin_array();
    for p in inputs.sweep {
        j.begin_object();
        j.key("batch").u64(p.batch as u64);
        j.key("queries").u64(p.queries);
        j.key("elapsed_s").f64(p.elapsed_s);
        j.key("qps").f64(p.qps);
        j.key("p50_us").f64(p.p50_us);
        j.key("p99_us").f64(p.p99_us);
        j.key("retries").u64(p.retries);
        j.end_object();
    }
    j.end_array();
    j.end_object();
    j.write_file(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_parseable_shape() {
        let sweep = vec![SweepPoint {
            batch: 16,
            queries: 1000,
            elapsed_s: 0.5,
            qps: 2000.0,
            p50_us: 8.0,
            p99_us: 20.0,
            retries: 3,
        }];
        let dir = std::env::temp_dir().join("llp-serve-report-test");
        let path = dir.join("BENCH_serve.json");
        write_report(
            &path,
            &ReportInputs {
                n: 10,
                m: 20,
                num_trees: 1,
                build: Default::default(),
                threads: 2,
                workers: 2,
                verified: true,
                sweep: &sweep,
            },
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"schema\":\"llp-mst-serve-report/v1\""));
        assert!(text.contains("\"qps\":2000.0"));
        assert!(text.contains("\"retries\":3"));
        // Balanced braces/brackets — the report is machine-readable.
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "{text}"
        );
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn random_queries_cover_all_ops() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (mut c, mut p, mut t) = (0, 0, 0);
        for _ in 0..1000 {
            match random_query(&mut rng, 50) {
                Query::Component(u) => {
                    assert!(u < 50);
                    c += 1;
                }
                Query::PathMax(u, v) => {
                    assert!(u < 50 && v < 50);
                    p += 1;
                }
                Query::ConnectedUnder(_, _, l) => {
                    assert!((0.0..1.0).contains(&l));
                    t += 1;
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(c > 100 && p > 300 && t > 100, "{c}/{p}/{t}");
    }
}
