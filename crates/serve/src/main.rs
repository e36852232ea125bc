//! `llp-mst-serve` — the MSF query service front-end.
//!
//! ```text
//! llp-mst-serve gen        --out g.bin [--kind rmat|er] [--scale 16] [--ef 16] [--seed 1]
//! llp-mst-serve serve      --graph g.bin [--addr 127.0.0.1:0] [--threads T]
//!                          [--workers W] [--port-file p.txt]
//!                          [--dynamic [--update-threads U]]
//!                          [--read-timeout-ms 30000] [--write-timeout-ms 30000]
//!                          [--queue-cap 64] [--retry-after-ms 100]
//! llp-mst-serve loadgen    --addr HOST:PORT [--graph g.bin --verify] [--batches 1,16,256,4096]
//!                          [--queries 100000] [--seed 42] [--report out.json] [--shutdown]
//! llp-mst-serve bench      [--graph g.bin | --scale 16 --ef 16 --seed 1] [--threads T]
//!                          [--workers W] [--queries N] [--batches ...]
//!                          [--report BENCH_serve.json] [--min-qps 100000]
//! ```
//!
//! `bench` is the one-shot certified pipeline: generate/load a graph,
//! build + certify the MSF, serve it on an ephemeral loopback port, sweep
//! batch sizes with every response verified against the local certified
//! index, shut the server down, write the `llp-mst-serve-report/v1`
//! JSON, and gate on `--min-qps`.

use llp_graph::generators::{erdos_renyi, rmat, RmatParams};
use llp_graph::CsrGraph;
use llp_runtime::cli::{
    self, no_leftovers, take_flag, take_list, take_opt, take_parsed, take_required, Error,
};
use llp_runtime::{available_threads, ThreadPool};
use llp_serve::loadgen::{run_sweep, write_report, LoadgenConfig, ReportInputs, SweepPoint};
use llp_serve::protocol::{decode_responses, encode_queries, read_frame, write_frame, Query, Response, MAX_PAYLOAD};
use llp_serve::server::{run_server, ServerConfig};
use llp_serve::service::{load_graph, BuildTimings, MsfService};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&mut args),
        "serve" => cmd_serve(&mut args),
        "loadgen" => cmd_loadgen(&mut args),
        "bench" => cmd_bench(&mut args),
        other => Err(Error::Usage(format!("unknown command `{other}`\n{USAGE}"))),
    };
    cli::exit_code(&format!("llp-mst-serve {cmd}"), result)
}

const USAGE: &str = "usage: llp-mst-serve <gen|serve|loadgen|bench> [options]
run `llp-mst-serve <command>` with no options for that command's defaults";

/// A deferred graph build, so argument errors surface before any work.
type GraphLoader = Box<dyn FnOnce() -> Result<CsrGraph, String>>;

/// Loads the graph named by `--graph`, or generates one from
/// `--kind/--scale/--ef/--seed`.
fn graph_from_args(args: &mut Vec<String>) -> Result<GraphLoader, Error> {
    if let Some(path) = take_opt(args, "--graph")? {
        return Ok(Box::new(move || {
            load_graph(&PathBuf::from(&path)).map_err(|e| format!("{path}: {e}"))
        }));
    }
    let kind = take_opt(args, "--kind")?.unwrap_or_else(|| "rmat".into());
    let scale: u32 = take_parsed(args, "--scale")?.unwrap_or(16);
    let ef: usize = take_parsed(args, "--ef")?.unwrap_or(16);
    let seed: u64 = take_parsed(args, "--seed")?.unwrap_or(1);
    match kind.as_str() {
        "rmat" => Ok(Box::new(move || {
            Ok(rmat(RmatParams::graph500(scale, ef, seed)))
        })),
        "er" => Ok(Box::new(move || {
            let n = 1usize << scale;
            Ok(erdos_renyi(n, n * ef, seed))
        })),
        other => Err(Error::Usage(format!(
            "unknown --kind `{other}` (want rmat or er)"
        ))),
    }
}

fn cmd_gen(args: &mut Vec<String>) -> Result<(), Error> {
    let out = take_required(args, "--out")?;
    let load = graph_from_args(args)?;
    no_leftovers(args)?;
    let graph = load()?;
    // Atomic install: the reader side (a server starting against this
    // path) either sees the complete file or none at all.
    let mut w = llp_graph::io::BinaryFileWriter::create(std::path::Path::new(&out), graph.num_vertices())
        .map_err(|e| format!("{out}: {e}"))?;
    for e in graph.edges() {
        w.write_edge(e).map_err(|e| format!("{out}: {e}"))?;
    }
    w.finish().map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {} (n={}, m={})",
        out,
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

fn cmd_serve(args: &mut Vec<String>) -> Result<(), Error> {
    let graph_path = take_required(args, "--graph")?;
    let addr = take_opt(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".into());
    let threads = take_parsed(args, "--threads")?.map_or_else(available_threads, NonZeroUsize::get);
    let workers = take_parsed(args, "--workers")?.map_or(2, NonZeroUsize::get);
    let port_file = take_opt(args, "--port-file")?;
    let dynamic = take_flag(args, "--dynamic");
    let update_threads = take_parsed(args, "--update-threads")?.map_or(2, NonZeroUsize::get);
    // Robustness knobs; a timeout of 0 disables that deadline.
    let read_timeout_ms: u64 = take_parsed(args, "--read-timeout-ms")?.unwrap_or(30_000);
    let write_timeout_ms: u64 = take_parsed(args, "--write-timeout-ms")?.unwrap_or(30_000);
    let queue_cap: usize = take_parsed(args, "--queue-cap")?.unwrap_or(64);
    let retry_after_ms: u32 = take_parsed(args, "--retry-after-ms")?.unwrap_or(100);
    no_leftovers(args)?;

    let graph = load_graph(&PathBuf::from(&graph_path)).map_err(|e| format!("{graph_path}: {e}"))?;
    let pool = ThreadPool::new(threads);
    let service = if dynamic {
        Arc::new(
            MsfService::build_dynamic(&graph, &pool, update_threads)
                .map_err(|e| format!("dynamic build failed: {e}"))?,
        )
    } else {
        Arc::new(
            MsfService::build(&graph, &pool).map_err(|e| format!("certification failed: {e}"))?,
        )
    };
    drop(pool);
    print_build(&service);
    if dynamic {
        println!("dynamic updates: enabled ({update_threads} update threads)");
    }

    let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {local}");
    if let Some(pf) = port_file {
        std::fs::write(&pf, format!("{}\n", local.port())).map_err(|e| format!("{pf}: {e}"))?;
    }
    let cfg = ServerConfig {
        workers,
        read_timeout: (read_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(read_timeout_ms)),
        write_timeout: (write_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(write_timeout_ms)),
        queue_cap,
        retry_after_ms,
    };
    let accepted = run_server(listener, service, cfg).map_err(|e| e.to_string())?;
    println!("shut down after {accepted} connections");
    Ok(())
}

fn print_build(service: &MsfService) {
    println!(
        "certified MSF: n={} m={} trees={} weight={:.6}",
        service.n, service.m, service.num_trees, service.total_weight
    );
    println!(
        "build: msf {:.1} ms, index {:.1} ms, certify {:.1} ms",
        service.timings.msf_ms, service.timings.index_ms, service.timings.certify_ms
    );
}

/// One short-lived connection: sends `batch`, returns the responses.
fn one_shot(addr: &str, batch: &[Query]) -> Result<Vec<Response>, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true).ok();
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut writer = std::io::BufWriter::new(conn);
    let mut payload = Vec::new();
    encode_queries(batch, &mut payload);
    write_frame(&mut writer, &payload).map_err(|e| e.to_string())?;
    let reply = read_frame(&mut reader, MAX_PAYLOAD)
        .map_err(|e| e.to_string())?
        .ok_or("server closed the connection")?;
    decode_responses(&reply, batch).map_err(|e| e.to_string())
}

/// Asks the server for its graph summary.
fn query_info(addr: &str) -> Result<(u32, u32, f64), String> {
    match one_shot(addr, &[Query::Info])?.as_slice() {
        [Response::Info {
            n,
            trees,
            total_weight,
        }] => Ok((*n, *trees, *total_weight)),
        other => Err(format!("unexpected info response: {other:?}")),
    }
}

fn loadgen_config(args: &mut Vec<String>) -> Result<LoadgenConfig, Error> {
    let mut cfg = LoadgenConfig::default();
    cfg.batches = take_list(args, "--batches")?.unwrap_or(cfg.batches);
    cfg.queries_per_point = take_parsed(args, "--queries")?.unwrap_or(cfg.queries_per_point);
    cfg.seed = take_parsed(args, "--seed")?.unwrap_or(cfg.seed);
    Ok(cfg)
}

fn print_sweep(sweep: &[SweepPoint]) {
    println!("batch      queries        qps    p50_us    p99_us   retries");
    for p in sweep {
        println!(
            "{:>5} {:>12} {:>10.0} {:>9.2} {:>9.2} {:>9}",
            p.batch, p.queries, p.qps, p.p50_us, p.p99_us, p.retries
        );
    }
}

fn cmd_loadgen(args: &mut Vec<String>) -> Result<(), Error> {
    let addr = take_required(args, "--addr")?;
    let graph_path = take_opt(args, "--graph")?;
    let verify = take_flag(args, "--verify");
    let shutdown = take_flag(args, "--shutdown");
    let report = take_opt(args, "--report")?;
    let threads = take_parsed(args, "--threads")?.map_or_else(available_threads, NonZeroUsize::get);
    let cfg = loadgen_config(args)?;
    no_leftovers(args)?;
    if verify && graph_path.is_none() {
        return Err(Error::Usage(
            "--verify needs --graph to build the local index".into(),
        ));
    }

    let (n, trees, weight) = query_info(&addr)?;
    println!("server reports n={n} trees={trees} weight={weight:.6}");

    let local = match &graph_path {
        Some(path) => {
            let graph = load_graph(&PathBuf::from(path)).map_err(|e| format!("{path}: {e}"))?;
            let pool = ThreadPool::new(threads);
            let svc = MsfService::build(&graph, &pool)
                .map_err(|e| format!("local certification failed: {e}"))?;
            if svc.n as u32 != n {
                return Err(format!(
                    "--graph has n={}, but the server serves n={n}; wrong file?",
                    svc.n
                )
                .into());
            }
            Some(svc)
        }
        None => None,
    };

    let sweep = run_sweep(&addr, n, &cfg, if verify { local.as_ref() } else { None })?;
    print_sweep(&sweep);
    if verify {
        println!("verified: every response matched the local certified index");
    }

    if let Some(path) = report {
        let inputs = ReportInputs {
            n: n as usize,
            m: local.as_ref().map_or(0, |s| s.m),
            num_trees: trees as usize,
            build: local.as_ref().map_or(BuildTimings::default(), |s| s.timings),
            threads,
            workers: 0, // remote server; its worker count is not visible
            verified: verify,
            sweep: &sweep,
        };
        write_report(&PathBuf::from(&path), &inputs).map_err(|e| format!("{path}: {e}"))?;
        println!("report: {path}");
    }
    if shutdown {
        one_shot(&addr, &[Query::Shutdown])?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

fn cmd_bench(args: &mut Vec<String>) -> Result<(), Error> {
    let threads = take_parsed(args, "--threads")?.map_or_else(available_threads, NonZeroUsize::get);
    let workers = take_parsed(args, "--workers")?.map_or(2, NonZeroUsize::get);
    let min_qps: f64 = take_parsed(args, "--min-qps")?.unwrap_or(100_000.0);
    let report = take_opt(args, "--report")?.unwrap_or_else(|| "BENCH_serve.json".into());
    let no_verify = take_flag(args, "--no-verify");
    let cfg = loadgen_config(args)?;
    let load = graph_from_args(args)?;
    no_leftovers(args)?;
    let graph = load()?;

    let pool = ThreadPool::new(threads);
    let service = Arc::new(
        MsfService::build(&graph, &pool).map_err(|e| format!("certification failed: {e}"))?,
    );
    drop(pool);
    print_build(&service);

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let server = {
        let service = Arc::clone(&service);
        let cfg = ServerConfig::with_workers(workers);
        std::thread::spawn(move || run_server(listener, service, cfg))
    };

    let n = service.n as u32;
    let verify = (!no_verify).then_some(service.as_ref());
    let sweep = run_sweep(&addr, n, &cfg, verify);
    // Always stop the server, even when the sweep failed.
    let _ = one_shot(&addr, &[Query::Shutdown]);
    server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    let sweep = sweep?;
    print_sweep(&sweep);
    if verify.is_some() {
        println!("verified: every response matched the local certified index");
    }

    let inputs = ReportInputs {
        n: service.n,
        m: service.m,
        num_trees: service.num_trees,
        build: service.timings,
        threads,
        workers,
        verified: verify.is_some(),
        sweep: &sweep,
    };
    write_report(&PathBuf::from(&report), &inputs).map_err(|e| format!("{report}: {e}"))?;
    println!("report: {report}");

    let best = sweep.iter().map(|p| p.qps).fold(0.0f64, f64::max);
    if best < min_qps {
        return Err(format!(
            "best throughput {best:.0} q/s is below the --min-qps gate of {min_qps:.0}"
        )
        .into());
    }
    println!("gate: best {best:.0} q/s >= {min_qps:.0} q/s");
    Ok(())
}
