//! The solve operations: the certified solve path, the sharded solver and
//! the paper's four backends, each timed at one thread and each checked
//! against a certified reference forest.

use crate::trace::Tracer;
use crate::Report;
use llp_graph::io::write_binary;
use llp_graph::{CsrGraph, EdgeKey};
use llp_mst::certify::certify_msf;
use llp_mst::prelude::*;
use llp_runtime::ThreadPool;
use llp_serve::service::{load_graph, MsfService};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The timed solve operations, in round-robin order. The name is the
/// end-to-end metric each one's median is reported as.
pub const OPS: [&str; 6] = [
    "certified_msf_ms",
    "sharded_ms",
    "prim_ms",
    "llp_prim_ms",
    "boruvka_ms",
    "llp_boruvka_ms",
];

/// The sharded solver is given a shard budget that cuts the file into
/// this many shards.
const SHARDS: usize = 8;

/// A forest reduced to what agreement needs: tree count, total weight,
/// edge count, and an order-independent hash of the canonical keys.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    trees: usize,
    edges: usize,
    weight: f64,
    keys: u64,
}

impl Fingerprint {
    pub fn of(r: &MstResult) -> Fingerprint {
        Fingerprint {
            trees: r.num_trees,
            edges: r.edges.len(),
            weight: r.total_weight,
            keys: r
                .edges
                .iter()
                .map(|e| key_hash(e.key()))
                .fold(0, u64::wrapping_add),
        }
    }

    /// Same canonical key multiset; weights may differ in summation order.
    fn agrees(&self, other: &Fingerprint) -> bool {
        self.trees == other.trees
            && self.edges == other.edges
            && self.keys == other.keys
            && weights_agree(self.weight, other.weight)
    }
}

pub fn weights_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// SplitMix64 over the key's endpoints and weight bits.
fn key_hash(k: EdgeKey) -> u64 {
    let mut z =
        (u64::from(k.lo()) << 32 | u64::from(k.hi())) ^ k.weight().to_bits().rotate_left(17);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A solve graph on disk and in memory, with its certified reference.
pub struct SolveEnv {
    pub graph: CsrGraph,
    path: PathBuf,
    file_mb: f64,
    mwe: Vec<EdgeKey>,
    shard_edges: usize,
    reference: Fingerprint,
    /// Work counts of the latest run of each backend.
    stats: BTreeMap<&'static str, AlgoStats>,
    sharded: Option<(usize, u64, u64)>,
}

impl SolveEnv {
    /// Writes `graph` to `path` (the binary format `load_graph` reads) and
    /// computes the MWE table LLP-Prim is given, as in the paper.
    pub fn setup(graph: CsrGraph, path: PathBuf) -> std::io::Result<SolveEnv> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        write_binary(&graph, &mut f)?;
        f.flush()?;
        drop(f);
        let file_mb = std::fs::metadata(&path)?.len() as f64 / 1e6;
        let mwe = (0..graph.num_vertices() as u32)
            .map(|v| graph.min_edge(v).unwrap_or_else(EdgeKey::infinite))
            .collect();
        let shard_edges = graph.num_edges().div_ceil(SHARDS).max(1);
        Ok(SolveEnv {
            graph,
            path,
            file_mb,
            mwe,
            shard_edges,
            reference: Fingerprint {
                trees: 0,
                edges: 0,
                weight: 0.0,
                keys: 0,
            },
            stats: BTreeMap::new(),
            sharded: None,
        })
    }

    /// Certifies one forest oracle-free and keeps it as the reference every
    /// timed forest must agree with. Not part of set-up time.
    pub fn certify_reference(&mut self, pool: &ThreadPool) -> Result<(), String> {
        let forest = llp_boruvka(&self.graph, pool);
        certify_msf(&self.graph, &forest).map_err(|e| format!("reference forest: {e}"))?;
        self.reference = Fingerprint::of(&forest);
        Ok(())
    }

    fn check(&self, op: &str, got: Fingerprint, report: &mut Report) {
        if !got.agrees(&self.reference) {
            report.mismatch(format!(
                "{op}: forest {got:?} disagrees with the certified reference {:?}",
                self.reference
            ));
        }
    }

    /// Runs one solve operation, records its time under `op`, and checks
    /// its forest. `tamper` corrupts the forest first (self-test only).
    pub fn run(
        &mut self,
        op: &'static str,
        pool: &ThreadPool,
        tracer: &mut Tracer,
        report: &mut Report,
        tamper: bool,
    ) {
        report.attempted += 1;
        let root = 0;
        let span = tracer.begin(op, 0);
        let t = Instant::now();
        let outcome: Result<MstResult, String> = match op {
            "certified_msf_ms" => {
                return self.certified(span, t, pool, tracer, report);
            }
            "sharded_ms" => {
                let cfg = ShardedConfig {
                    shard_edges: self.shard_edges,
                    ..ShardedConfig::default()
                };
                match sharded_msf_file(&self.path, &cfg, pool) {
                    Ok(run) if run.certified => {
                        self.sharded = Some((run.shards, run.candidate_edges, run.filtered_edges));
                        Ok(run.result)
                    }
                    Ok(_) => Err("sharded run was not certified".into()),
                    Err(e) => Err(format!("sharded: {e:?}")),
                }
            }
            "prim_ms" => prim_lazy(&self.graph, root).map_err(|e| format!("{e:?}")),
            "llp_prim_ms" => {
                llp_prim_seq_with_mwe(&self.graph, root, &self.mwe).map_err(|e| format!("{e:?}"))
            }
            "boruvka_ms" => Ok(boruvka_par(&self.graph, pool)),
            "llp_boruvka_ms" => Ok(llp_boruvka(&self.graph, pool)),
            other => unreachable!("unknown solve op {other}"),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        match outcome {
            Ok(mut forest) => {
                report.timing(op, ms, tracer.is_on());
                if op == "sharded_ms" && tracer.is_on() {
                    report.layer("sharded.mb_s", self.file_mb / (ms / 1e3));
                }
                if tamper {
                    let e = forest.edges.last_mut().expect("a non-empty forest");
                    e.w = e.w.next_up();
                }
                self.check(op, Fingerprint::of(&forest), report);
                self.stats.insert(op, forest.stats);
            }
            Err(e) => report.failure(format!("{op}: {e}")),
        }
    }

    /// `load_graph` then `MsfService::build`: file to a certified,
    /// query-ready forest. The service certifies before it returns.
    fn certified(
        &mut self,
        span: crate::trace::SpanId,
        t: Instant,
        pool: &ThreadPool,
        tracer: &mut Tracer,
        report: &mut Report,
    ) {
        let op = "certified_msf_ms";
        let load = tracer.begin("io.load", 0);
        let graph = load_graph(&self.path);
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(load);
        let built = graph.map_err(|e| format!("load: {e}")).and_then(|g| {
            let b = tracer.begin("service.build", 0);
            let start = tracer.start_of(&b);
            let svc = MsfService::build(&g, pool).map_err(|e| format!("build: {e}"));
            if let Ok(svc) = &svc {
                let tm = svc.timings;
                let ms = |x: f64| Duration::from_secs_f64(x / 1e3);
                tracer.record("msf.build", start, ms(tm.msf_ms));
                tracer.record("index.build", start + ms(tm.msf_ms), ms(tm.index_ms));
                tracer.record(
                    "certify",
                    start + ms(tm.msf_ms + tm.index_ms),
                    ms(tm.certify_ms),
                );
            }
            tracer.end(b);
            svc.map(|s| (g, s))
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        match built {
            Ok((g, svc)) => {
                report.timing(op, ms, tracer.is_on());
                if tracer.is_on() {
                    let tm = svc.timings;
                    report.layer("io.load_ms", load_ms);
                    report.layer("io.load_mb_s", self.file_mb / (load_ms / 1e3));
                    report.layer("msf.build_ms", tm.msf_ms);
                    report.layer("index.build_ms", tm.index_ms);
                    report.layer("certify.ms", tm.certify_ms);
                    report.layer(
                        "certify.edges_per_us",
                        g.num_edges() as f64 / (tm.certify_ms * 1e3),
                    );
                }
                let r = &self.reference;
                if svc.num_trees != r.trees || !weights_agree(svc.total_weight, r.weight) {
                    report.mismatch(format!(
                        "{op}: service forest ({} trees, weight {}) disagrees with the reference",
                        svc.num_trees, svc.total_weight
                    ));
                }
            }
            Err(e) => report.failure(format!("{op}: {e}")),
        }
    }

    /// The backend census: every other certified backend, timed once and
    /// checked like the rest (traced run only).
    pub fn census(&self, pool: &ThreadPool, report: &mut Report) {
        let g = &self.graph;
        type Backend<'a> = Box<dyn Fn() -> Result<MstResult, MstError> + 'a>;
        let backends: [(&str, Backend); 7] = [
            (
                "backend.filter_kruskal_par_ms",
                Box::new(|| Ok(filter_kruskal_par(g, pool))),
            ),
            (
                "backend.filter_kruskal_ms",
                Box::new(|| Ok(filter_kruskal(g))),
            ),
            ("backend.kruskal_ms", Box::new(|| Ok(kruskal(g)))),
            ("backend.prim_indexed_ms", Box::new(|| prim_indexed(g, 0))),
            ("backend.boruvka_seq_ms", Box::new(|| Ok(boruvka_seq(g)))),
            (
                "backend.hybrid_ms",
                Box::new(|| hybrid_boruvka_prim(g, pool, 2)),
            ),
            (
                "backend.spmv_boruvka_ms",
                Box::new(|| Ok(spmv_boruvka_par(g, pool))),
            ),
        ];
        for (name, run) in backends {
            report.attempted += 1;
            let t = Instant::now();
            let out = run();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok(forest) => {
                    report.layer(name, ms);
                    self.check(name, Fingerprint::of(&forest), report);
                }
                Err(e) => report.failure(format!("{name}: {e:?}")),
            }
        }
    }

    /// Work counts of the latest runs, as per-layer metrics.
    pub fn report_counts(&self, report: &mut Report) {
        let get = |op: &str| self.stats.get(op).copied().unwrap_or_default();
        let llp = get("llp_boruvka_ms");
        report.layer("llp_boruvka.rounds", llp.rounds as f64);
        report.layer("llp_boruvka.pointer_jumps", llp.pointer_jumps as f64);
        report.layer("llp_boruvka.cas_retries", llp.cas_retries as f64);
        report.layer("llp_boruvka.atomic_rmw", llp.atomic_rmw as f64);
        report.layer("llp_boruvka.edges_scanned", llp.edges_scanned as f64);
        report.layer("prim.heap_ops", get("prim_ms").heap_ops() as f64);
        let lp = get("llp_prim_ms");
        report.layer("llp_prim.heap_ops", lp.heap_ops() as f64);
        let fixes = (lp.early_fixes + lp.heap_fixes).max(1);
        report.layer(
            "llp_prim.early_fix_frac",
            lp.early_fixes as f64 / fixes as f64,
        );
        let b = get("boruvka_ms");
        report.layer("boruvka.rounds", b.rounds as f64);
        report.layer("boruvka.pointer_jumps", b.pointer_jumps as f64);
        if let Some((shards, candidates, filtered)) = self.sharded {
            report.layer("sharded.shards", shards as f64);
            report.layer("sharded.candidates", candidates as f64);
            report.layer("sharded.filtered", filtered as f64);
            report.layer(
                "sharded.filter_frac",
                filtered as f64 / candidates.max(1) as f64,
            );
        }
    }
}

impl Drop for SolveEnv {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
