//! The llp-mst benchmark: certified solves on a road network and on a
//! Graph500 RMAT graph, and reads beside writes on the live query server.
//!
//! ```text
//! llp-perfbench --workload <road-solve|rmat-solve|serve-rw> --seed <n>
//!               --seconds <s> --trace <0|1> --work-dir <dir>
//!               [--size full|tiny] [--tamper none|forest|reply]
//! ```
//!
//! Every run sets its workload up three times (the median is `setup_s`),
//! then repeats the timed operations round-robin for `--seconds`: the six
//! solve operations on the workload's solve graph and a burst of
//! reads beside writes on its serve graph. Every output is checked. The
//! last line of standard output is the JSON result: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. `--size tiny` and
//! `--tamper` exist for the self-test. See README.md.

mod serve;
mod solve;
mod stats;
mod trace;

use llp_graph::generators::{rmat, road_network, RmatParams, RoadParams};
use llp_graph::CsrGraph;
use llp_runtime::ThreadPool;
use serve::ServeEnv;
use solve::{SolveEnv, OPS};
use stats::Samples;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics, reported by `--trace 0` runs.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("certified_msf_ms", "ms"),
    ("sharded_ms", "ms"),
    ("prim_ms", "ms"),
    ("llp_prim_ms", "ms"),
    ("boruvka_ms", "ms"),
    ("llp_boruvka_ms", "ms"),
    ("read_qps", "1/s"),
    ("read_p50_us", "us"),
    ("write_visible_p50_ms", "ms"),
];

/// Per-layer metrics, reported by `--trace 1` runs (medians over samples).
const PER_LAYER: [(&str, &str); 56] = [
    ("env.stream_gb_s", "GB/s"),
    ("io.load_ms", "ms"),
    ("io.load_mb_s", "MB/s"),
    ("msf.build_ms", "ms"),
    ("llp_boruvka.rounds", "count"),
    ("llp_boruvka.pointer_jumps", "count"),
    ("llp_boruvka.cas_retries", "count"),
    ("llp_boruvka.atomic_rmw", "count"),
    ("llp_boruvka.edges_scanned", "count"),
    ("index.build_ms", "ms"),
    ("certify.ms", "ms"),
    ("certify.edges_per_us", "1/us"),
    ("prim.heap_ops", "count"),
    ("llp_prim.heap_ops", "count"),
    ("llp_prim.early_fix_frac", "ratio"),
    ("boruvka.rounds", "count"),
    ("boruvka.pointer_jumps", "count"),
    ("sharded.shards", "count"),
    ("sharded.candidates", "count"),
    ("sharded.filtered", "count"),
    ("sharded.filter_frac", "ratio"),
    ("sharded.mb_s", "MB/s"),
    ("dynamic.epoch_ms", "ms"),
    ("dynamic.classify_ms", "ms"),
    ("dynamic.rebuild_ms", "ms"),
    ("dynamic.index_ms", "ms"),
    ("dynamic.certify_ms", "ms"),
    ("dynamic.fast_path_frac", "ratio"),
    ("dynamic.rebuild_vertices", "count"),
    ("dynamic.rebuild_edges", "count"),
    ("dynamic.dirty_components", "count"),
    ("serve.read_p99_us", "us"),
    ("serve.write_visible_p90_ms", "ms"),
    ("serve.rtt_us", "us"),
    ("serve.answer_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.queue_depth", "count"),
    ("serve.retries", "count"),
    ("serve.split_epochs", "count"),
    ("backend.filter_kruskal_par_ms", "ms"),
    ("backend.filter_kruskal_ms", "ms"),
    ("backend.kruskal_ms", "ms"),
    ("backend.prim_indexed_ms", "ms"),
    ("backend.boruvka_seq_ms", "ms"),
    ("backend.hybrid_ms", "ms"),
    ("backend.spmv_boruvka_ms", "ms"),
    ("trace.certified_layers_pct", "%"),
    ("trace.write_layers_pct", "%"),
    ("trace.solve_overhead_pct", "%"),
    ("trace.read_overhead_pct", "%"),
    ("trace.spans", "count"),
    ("run.rounds", "count"),
    ("graph.solve_vertices", "count"),
    ("graph.solve_edges", "count"),
    ("graph.serve_edges", "count"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What one run counted and measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    mismatches: Vec<String>,
    failures: Vec<String>,
    /// End-to-end samples from untraced repetitions.
    untraced: BTreeMap<&'static str, Samples>,
    /// The same, from traced repetitions (for the tracing overhead).
    traced: BTreeMap<&'static str, Samples>,
    layers: BTreeMap<&'static str, Samples>,
}

impl Report {
    pub fn timing(&mut self, name: &'static str, x: f64, traced: bool) {
        let map = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        map.entry(name).or_default().push(x);
    }

    pub fn layer(&mut self, name: &'static str, x: f64) {
        self.layers.entry(name).or_default().push(x);
    }

    /// A wrong output: the run is not correct.
    pub fn mismatch(&mut self, msg: String) {
        self.failed += 1;
        self.mismatches.push(msg);
    }

    /// An operation that failed without a wrong output.
    pub fn failure(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }

    fn untraced(&self, name: &str) -> Samples {
        self.untraced.get(name).cloned().unwrap_or_default()
    }

    fn traced(&self, name: &str) -> Samples {
        self.traced.get(name).cloned().unwrap_or_default()
    }

    fn layer_median(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(f64::NAN, Samples::median)
    }
}

#[derive(Clone, Copy, Debug)]
enum GraphSpec {
    /// The synthetic USA-like road network on a `side × side` grid.
    Road { side: usize },
    /// Graph500 RMAT, edge factor 16; `giant` keeps the largest component.
    Rmat { scale: u32, giant: bool },
}

impl GraphSpec {
    fn generate(self, seed: u64) -> CsrGraph {
        match self {
            GraphSpec::Road { side } => road_network(RoadParams::usa_like(side, side, seed)),
            GraphSpec::Rmat { scale, giant } => {
                let g = rmat(RmatParams::graph500(scale, 16, seed));
                if giant {
                    llp_graph::algo::largest_component(&g)
                } else {
                    g
                }
            }
        }
    }
}

/// A workload: the graph the solve operations run on, the graph the
/// server serves, how long each burst of serve traffic lasts, and how many
/// times each solve operation runs per round.
struct Workload {
    solve: GraphSpec,
    serve: GraphSpec,
    burst: Duration,
    solve_reps: usize,
}

fn workload(name: &str, tiny: bool) -> Option<Workload> {
    use GraphSpec::*;
    let pick = |full, small| if tiny { small } else { full };
    Some(match name {
        "road-solve" => Workload {
            solve: pick(Road { side: 1000 }, Road { side: 40 }),
            serve: pick(Road { side: 128 }, Road { side: 16 }),
            burst: Duration::from_millis(750),
            solve_reps: 1,
        },
        "rmat-solve" => Workload {
            solve: pick(
                Rmat {
                    scale: 18,
                    giant: true,
                },
                Rmat {
                    scale: 10,
                    giant: true,
                },
            ),
            serve: pick(
                Rmat {
                    scale: 12,
                    giant: false,
                },
                Rmat {
                    scale: 8,
                    giant: false,
                },
            ),
            burst: Duration::from_millis(750),
            solve_reps: 1,
        },
        "serve-rw" => Workload {
            solve: pick(
                Rmat {
                    scale: 14,
                    giant: true,
                },
                Rmat {
                    scale: 8,
                    giant: true,
                },
            ),
            serve: pick(
                Rmat {
                    scale: 14,
                    giant: false,
                },
                Rmat {
                    scale: 8,
                    giant: false,
                },
            ),
            burst: Duration::from_millis(2000),
            // Solves of the small graph take 10-50 ms: more samples per round.
            solve_reps: 4,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    tamper: String,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        tamper: "none".into(),
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--size" => {
                args.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(bad("full or tiny")),
                }
            }
            "--tamper" => match value.as_str() {
                "none" | "forest" | "reply" => args.tamper = value,
                _ => return Err(bad("none, forest or reply")),
            },
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

struct Env {
    solve: SolveEnv,
    serve: ServeEnv,
    serve_graph: CsrGraph,
}

fn setup(w: &Workload, args: &Args, pool: &ThreadPool) -> Result<Env, String> {
    let path = args
        .work_dir
        .join(format!("{}-seed{}.bin", args.workload, args.seed));
    let solve = SolveEnv::setup(w.solve.generate(args.seed), path)
        .map_err(|e| format!("solve set-up: {e}"))?;
    let serve_graph = w.serve.generate(args.seed);
    let serve = ServeEnv::setup(&serve_graph, args.seed, pool)?;
    Ok(Env {
        solve,
        serve,
        serve_graph,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("llp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload, args.tiny) else {
        eprintln!("llp-perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    match run(&args, &w) {
        Ok(correct) => ExitCode::from(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("llp-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workload and prints the report. Returns whether every output
/// was correct.
fn run(args: &Args, w: &Workload) -> Result<bool, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    // Every timing is at one thread (see README.md, steadiness rule 1).
    let pool = ThreadPool::new(1);
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut stream = Samples::default();
    if args.trace {
        stream.push(stats::stream_gb_s());
    }

    let mut setup_s = Samples::default();
    let mut env = None;
    for _ in 0..SETUPS {
        drop(env.take());
        let t = Instant::now();
        env = Some(setup(w, args, &pool)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut env = env.expect("set up at least once");
    env.solve.certify_reference(&pool)?;
    if args.trace {
        env.serve.build_probe(&env.serve_graph, &pool)?;
    }

    // Round-robin over the solve operations and a serve burst, starting
    // each round one place later (steadiness rule 2).
    let units: Vec<&'static str> = OPS.iter().copied().chain(["serve"]).collect();
    let min_rounds = if args.trace { 2 } else { 1 };
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed() < window {
        tracer.set_on(args.trace && round % 2 == 0);
        for i in 0..units.len() {
            let unit = units[(i + round) % units.len()];
            if unit == "serve" {
                let tamper = args.tamper == "reply";
                env.serve
                    .burst(w.burst, &pool, &mut tracer, &mut report, tamper);
            } else {
                for rep in 0..w.solve_reps {
                    let tamper =
                        args.tamper == "forest" && round + rep == 0 && unit == "llp_boruvka_ms";
                    env.solve.run(unit, &pool, &mut tracer, &mut report, tamper);
                }
            }
        }
        round += 1;
    }
    tracer.set_on(false);

    if args.trace {
        env.solve.census(&pool, &mut report);
        env.solve.report_counts(&mut report);
        let (retries, splits) = env.serve.counters();
        report.layer("serve.retries", retries as f64);
        report.layer("serve.split_epochs", splits as f64);
        stream.push(stats::stream_gb_s());
    }
    let peak_rss_mb = stats::peak_rss_mb();
    if let Some(e) = env.serve.service_error() {
        report.failure(format!("updater: {e}"));
    }
    env.serve.shutdown()?;
    let sizes = (
        env.solve.graph.num_vertices(),
        env.solve.graph.num_edges(),
        env.serve_graph.num_edges(),
    );
    drop(env);

    let mut lines = vec![format!(
        "workload {} seed {} | solve graph n={} m={} | serve graph m={} | {round} rounds | setup_s {}",
        args.workload,
        args.seed,
        sizes.0,
        sizes.1,
        sizes.2,
        setup_s.describe()
    )];
    for (name, s) in &report.untraced {
        lines.push(format!("{name}: {}", s.describe()));
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        report.layer("env.stream_gb_s", stream.median());
        report.layer("run.rounds", round as f64);
        report.layer("graph.solve_vertices", sizes.0 as f64);
        report.layer("graph.solve_edges", sizes.1 as f64);
        report.layer("graph.serve_edges", sizes.2 as f64);
        // Tail latencies spread too much between runs to be gated (README.md,
        // steadiness rule 5); they are reported here, from untraced rounds.
        let tail = report.untraced("read_rtt_us").percentile(0.99);
        report.layer("serve.read_p99_us", tail);
        let tail = report.untraced("write_visible_ms").percentile(0.90);
        report.layer("serve.write_visible_p90_ms", tail);
        trace_metrics(&mut report, &tracer, &mut lines);
        let path = args
            .work_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        lines.push(format!("spans written to {}", path.display()));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, report.layer_median(name)))
            .collect()
    } else {
        let rtt = report.untraced("read_rtt_us");
        let visible = report.untraced("write_visible_ms");
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "setup_s" => setup_s.median(),
                    "peak_rss_mb" => peak_rss_mb,
                    "read_p50_us" => rtt.percentile(0.50),
                    "write_visible_p50_ms" => visible.percentile(0.50),
                    timing => report.untraced(timing).median(),
                };
                (name, unit, v)
            })
            .collect()
    };
    for (name, _, v) in &metrics {
        if !v.is_finite() {
            report.failure(format!("metric {name} has no sample"));
        }
    }
    for m in report.mismatches.iter().chain(&report.failures).take(20) {
        lines.push(format!("FAILED: {m}"));
    }
    let correct = report.mismatches.is_empty();
    for l in lines {
        println!("{l}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// The traced run's comparison of layer self times with the untraced
/// end-to-end numbers, and the tracing overhead, as per-layer metrics.
fn trace_metrics(report: &mut Report, tracer: &Tracer, lines: &mut Vec<String>) {
    let self_ms = tracer.self_times_ms();
    let spans: usize = self_ms.values().map(Vec::len).sum();
    report.layer("trace.spans", spans as f64);
    let median = |name: &str| {
        let mut s = Samples::default();
        self_ms
            .get(name)
            .into_iter()
            .flatten()
            .for_each(|&x| s.push(x));
        s.median()
    };
    lines.push("layer self time (traced repetitions, median per span):".into());
    for (name, v) in &self_ms {
        let mut s = Samples::default();
        v.iter().for_each(|&x| s.push(x));
        lines.push(format!("  {name}: {} ms", s.describe()));
    }

    // Certified solve: load + MSF + index + certify against the untraced
    // end-to-end median.
    let layers = ["io.load", "msf.build", "index.build", "certify"];
    let sum: f64 = layers.iter().map(|l| median(l)).sum();
    let e2e = report.untraced("certified_msf_ms").median();
    let pct = 100.0 * sum / e2e;
    report.layer("trace.certified_layers_pct", pct);
    lines.push(format!(
        "certified_msf_ms: layers sum to {sum:.3} ms = {pct:.1}% of the untraced median {e2e:.3} ms"
    ));

    // Write visibility: one dynamic epoch plus one read round trip.
    let epoch = report.layer_median("dynamic.epoch_ms");
    let rtt_ms = report.layer_median("serve.rtt_us") / 1e3;
    let visible = report.untraced("write_visible_ms").median();
    let pct = 100.0 * (epoch + rtt_ms) / visible;
    report.layer("trace.write_layers_pct", pct);
    lines.push(format!(
        "write_visible: epoch {epoch:.3} ms + read rtt {rtt_ms:.3} ms = {pct:.1}% of the untraced median {visible:.3} ms"
    ));

    // Overhead: traced against untraced repetitions of the same operation.
    let mut overheads = Samples::default();
    for op in OPS {
        let (t, u) = (report.traced(op).median(), report.untraced(op).median());
        overheads.push(100.0 * (t / u - 1.0));
        lines.push(format!("{op}: traced {t:.3} ms, untraced {u:.3} ms"));
    }
    report.layer("trace.solve_overhead_pct", overheads.median());
    let (t, u) = (
        report.traced("read_rtt_us").median(),
        report.untraced("read_rtt_us").median(),
    );
    report.layer("trace.read_overhead_pct", 100.0 * (t / u - 1.0));
    lines.push(format!(
        "read frame rtt: traced {t:.2} us, untraced {u:.2} us"
    ));
}
