//! Reads beside writes on the live server.
//!
//! A dynamic `MsfService` is served in-process by `run_server` with two
//! workers on loopback. One client thread drives two connections:
//!
//! - the reader sends a closed loop of 256-query frames: an `epoch`
//!   record, a `status` record, then 254 queries of the loadgen's
//!   25/50/25 component / path_max / connected_under mix;
//! - the writer sends a frame of 8 deletes of live edges and 8 inserts of
//!   absent pairs, and sends the next one only once a read frame shows the
//!   previous one applied. The updater is idle while the writer waits.
//!
//! Every read frame is checked, answer by answer, against a local
//! `DynamicMsf` replica fed the same write frames, at the epoch the
//! frame's `epoch` record names. The replica applies each frame before it
//! is sent, so the client never does replica work while a write is in
//! flight; that time is left out of `read_qps`.
//!
//! The updater drains whatever is queued, so it can wake while a write
//! frame is still being enqueued and publish a prefix of it as an epoch of
//! its own. A read at such an epoch is checked against the graph with that
//! prefix applied, which the replica rebuilds on demand. A write counts as
//! visible once reads show the forest of its whole frame; the rest of a
//! split frame may then arrive in an epoch that leaves the forest as it
//! is. Answers depend only on the forest, so every read is still checked.

use crate::solve::weights_agree;
use crate::trace::Tracer;
use crate::Report;
use llp_graph::{CsrGraph, Edge};
use llp_mst::dynamic::DynamicMsf;
use llp_mst::index::PathMaxIndex;
use llp_runtime::rng::SmallRng;
use llp_runtime::ThreadPool;
use llp_serve::protocol::{
    decode_queries, decode_responses, encode_queries, encode_responses, Query, Response,
};
use llp_serve::retry::{RetryPolicy, RetryingClient};
use llp_serve::server::{run_server, ServerConfig};
use llp_serve::service::MsfService;
use std::collections::HashSet;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const READ_FRAME: usize = 256;
const WRITE_DELETES: usize = 8;
const WRITE_INSERTS: usize = 8;
const WORKERS: usize = 2;
/// A write frame not visible this long after it was sent is a failure.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(5);

/// One state of the served forest whose answers are known.
struct Known {
    epoch: u64,
    index: Arc<PathMaxIndex>,
    trees: usize,
    weight: f64,
}

/// A write frame in flight: the state it leads to and how to rebuild the
/// states its prefixes lead to.
struct InFlight {
    sent: Instant,
    next: Known,
    deletes: Vec<Edge>,
    inserts: Vec<Edge>,
}

pub struct ServeEnv {
    n: u32,
    service: Arc<MsfService>,
    server: Option<JoinHandle<std::io::Result<usize>>>,
    addr: String,
    reader: Option<RetryingClient>,
    writer: Option<RetryingClient>,
    replica: DynamicMsf,
    /// A static service over the same graph, for timing `answer_batch` on
    /// each traced read frame.
    probe: Option<MsfService>,
    live: Vec<Edge>,
    live_set: HashSet<(u32, u32)>,
    cur: Known,
    pending: Option<InFlight>,
    rng: SmallRng,
    frame: u64,
    split_epochs: u64,
}

fn canon(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

impl ServeEnv {
    /// Builds the dynamic service, starts the server and the replica.
    pub fn setup(graph: &CsrGraph, seed: u64, pool: &ThreadPool) -> Result<ServeEnv, String> {
        let service = Arc::new(
            MsfService::build_dynamic(graph, pool, 1).map_err(|e| format!("serve build: {e}"))?,
        );
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let svc = Arc::clone(&service);
        let server = std::thread::spawn(move || {
            run_server(listener, svc, ServerConfig::with_workers(WORKERS))
        });
        let replica = DynamicMsf::new(graph, pool).map_err(|e| format!("replica: {e}"))?;
        let live = replica.current_edges();
        let live_set = live.iter().map(|e| canon(e.u, e.v)).collect();
        let cur = Known {
            epoch: service.epoch(),
            index: Arc::clone(replica.index()),
            trees: replica.msf().num_trees,
            weight: replica.msf().total_weight,
        };
        let policy = RetryPolicy::default();
        Ok(ServeEnv {
            n: graph.num_vertices() as u32,
            reader: Some(RetryingClient::new(&addr, policy.clone(), seed ^ 0x5EAD)),
            writer: Some(RetryingClient::new(&addr, policy, seed ^ 0x3417E)),
            service,
            server: Some(server),
            addr,
            replica,
            probe: None,
            live,
            live_set,
            cur,
            pending: None,
            rng: SmallRng::seed_from_u64(seed ^ 0xF4A3E),
            frame: 0,
            split_epochs: 0,
        })
    }

    /// Builds the static probe service the traced run times `answer_batch`
    /// on. Not part of set-up time.
    pub fn build_probe(&mut self, graph: &CsrGraph, pool: &ThreadPool) -> Result<(), String> {
        self.probe = Some(MsfService::build(graph, pool).map_err(|e| format!("probe: {e}"))?);
        Ok(())
    }

    fn retries(&self) -> u64 {
        self.reader.as_ref().map_or(0, |c| c.retries)
            + self.writer.as_ref().map_or(0, |c| c.retries)
    }

    /// The loadgen's mix: 1/4 component, 1/2 path_max, 1/4
    /// connected_under with λ the weight of a random live edge.
    fn random_query(&mut self) -> Query {
        let u = self.rng.gen_range(0..self.n);
        let v = self.rng.gen_range(0..self.n);
        match self.rng.gen_range(0..4u32) {
            0 => Query::Component(u),
            1 | 2 => Query::PathMax(u, v),
            _ => {
                let l = self.live[self.rng.gen_range(0..self.live.len())].w;
                Query::ConnectedUnder(u, v, l)
            }
        }
    }

    /// Serves reads beside writes for `duration`, then keeps reading until
    /// the last write is visible.
    pub fn burst(
        &mut self,
        duration: Duration,
        pool: &ThreadPool,
        tracer: &mut Tracer,
        report: &mut Report,
        tamper: bool,
    ) {
        let start = Instant::now();
        let retries_before = self.retries();
        let mut reads = 0u64;
        let mut frames = 0u64;
        let mut replica_time = Duration::ZERO;
        loop {
            let writing = start.elapsed() < duration;
            if !writing && self.pending.is_none() {
                break;
            }
            if writing && self.pending.is_none() {
                replica_time += self.write(pool, tracer, report);
                continue;
            }
            frames += 1;
            if self.read(tracer, report, tamper && frames == 10) {
                reads += READ_FRAME as u64;
            } else {
                break;
            }
        }
        let serving = start.elapsed().saturating_sub(replica_time).as_secs_f64();
        if reads > 0 {
            report.timing("read_qps", reads as f64 / serving, tracer.is_on());
        }
        report.failed += self.retries() - retries_before;
    }

    /// Client retries and write frames split across epochs, so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.retries(), self.split_epochs)
    }

    /// Picks a write frame, applies it to the replica, and sends it.
    /// Returns the time the replica took.
    fn write(&mut self, pool: &ThreadPool, tracer: &mut Tracer, report: &mut Report) -> Duration {
        self.frame += 1;
        let span = tracer.begin("write", self.frame);
        let mut deletes = Vec::with_capacity(WRITE_DELETES);
        for _ in 0..WRITE_DELETES.min(self.live.len().saturating_sub(1)) {
            let e = self
                .live
                .swap_remove(self.rng.gen_range(0..self.live.len()));
            self.live_set.remove(&canon(e.u, e.v));
            deletes.push(e);
        }
        let mut inserts: Vec<Edge> = Vec::with_capacity(WRITE_INSERTS);
        while inserts.len() < WRITE_INSERTS {
            let (u, v) = (self.rng.gen_range(0..self.n), self.rng.gen_range(0..self.n));
            let key = canon(u, v);
            let fresh = |e: &Edge| canon(e.u, e.v) != key;
            if u == v
                || self.live_set.contains(&key)
                || !deletes.iter().all(fresh)
                || !inserts.iter().all(fresh)
            {
                continue;
            }
            let like = self.live[self.rng.gen_range(0..self.live.len())].w;
            inserts.push(Edge::new(u, v, like * (0.5 + self.rng.gen::<f64>())));
        }

        let apply = tracer.begin("dynamic.apply_batch", self.frame);
        let pairs: Vec<(u32, u32)> = deletes.iter().map(|e| (e.u, e.v)).collect();
        let t = Instant::now();
        let applied = self.replica.apply_batch(&inserts, &pairs, pool);
        let replica_time = t.elapsed();
        let epoch_ms = replica_time.as_secs_f64() * 1e3;
        tracer.end(apply);
        let r = match applied {
            Ok(r) => r,
            Err(e) => {
                tracer.end(span);
                report.mismatch(format!("replica rejected write frame {}: {e}", self.frame));
                return replica_time;
            }
        };
        if tracer.is_on() {
            report.layer("dynamic.epoch_ms", epoch_ms);
            report.layer("dynamic.classify_ms", r.classify_ms);
            report.layer("dynamic.rebuild_ms", r.rebuild_ms);
            report.layer("dynamic.index_ms", r.index_ms);
            report.layer("dynamic.certify_ms", r.certify_ms);
            report.layer(
                "dynamic.fast_path_frac",
                (r.fast_swaps + r.fast_rejects) as f64 / r.updates().max(1) as f64,
            );
            report.layer("dynamic.rebuild_vertices", r.rebuild_vertices as f64);
            report.layer("dynamic.rebuild_edges", r.rebuild_edges as f64);
            report.layer("dynamic.dirty_components", r.dirty_components as f64);
        }
        for e in &inserts {
            self.live_set.insert(canon(e.u, e.v));
            self.live.push(*e);
        }

        let queries: Vec<Query> = deletes
            .iter()
            .map(|e| Query::Delete(e.u, e.v))
            .chain(inserts.iter().map(|e| Query::Insert(e.u, e.v, e.w)))
            .collect();
        report.attempted += 1;
        let sent = Instant::now();
        let exchange = tracer.begin("serve.exchange", self.frame);
        let reply = self
            .writer
            .as_mut()
            .expect("writer open")
            .exchange(&queries);
        tracer.end(exchange);
        tracer.end(span);
        match reply {
            Ok(rs) if rs.iter().all(|r| *r == Response::Accepted) => {
                self.pending = Some(InFlight {
                    sent,
                    next: Known {
                        epoch: 0,
                        index: Arc::clone(self.replica.index()),
                        trees: self.replica.msf().num_trees,
                        weight: self.replica.msf().total_weight,
                    },
                    deletes,
                    inserts,
                });
            }
            Ok(rs) => report.mismatch(format!("write frame {} not accepted: {rs:?}", self.frame)),
            Err(e) => report.failure(format!("write frame {}: {e}", self.frame)),
        }
        replica_time
    }

    /// Sends one read frame and checks it. Returns false when the wire
    /// failed and the burst should stop.
    fn read(&mut self, tracer: &mut Tracer, report: &mut Report, tamper: bool) -> bool {
        self.frame += 1;
        let id = self.frame;
        let mut queries = Vec::with_capacity(READ_FRAME);
        queries.push(Query::Epoch);
        queries.push(Query::Status);
        while queries.len() < READ_FRAME {
            let q = self.random_query();
            queries.push(q);
        }
        report.attempted += 1;
        let span = tracer.begin("read", id);
        let exchange = tracer.begin("serve.exchange", id);
        let t = Instant::now();
        let reply = self
            .reader
            .as_mut()
            .expect("reader open")
            .exchange(&queries);
        let arrived = Instant::now();
        let rtt_us = (arrived - t).as_secs_f64() * 1e6;
        tracer.end(exchange);
        let mut responses = match reply {
            Ok(r) => r,
            Err(e) => {
                tracer.end(span);
                report.failure(format!("read frame {id}: {e}"));
                return false;
            }
        };
        report.timing("read_rtt_us", rtt_us, tracer.is_on());
        if tamper {
            if let Some(r) = responses
                .iter_mut()
                .skip(2)
                .find(|r| matches!(r, Response::Component(_)))
            {
                *r = match *r {
                    Response::Component(c) => Response::Component(c ^ 1),
                    other => other,
                };
            }
        }
        if tracer.is_on() {
            self.probe_layers(&queries, &responses, rtt_us, tracer, report, id);
        }
        let check = tracer.begin("serve.verify", id);
        self.check_read(&queries, &responses, arrived, tracer.is_on(), report);
        tracer.end(check);
        tracer.end(span);
        if let Some(p) = &self.pending {
            if p.sent.elapsed() > VISIBLE_DEADLINE {
                report.failure(format!(
                    "write frame not visible after {VISIBLE_DEADLINE:?}"
                ));
                self.pending = None;
            }
        }
        true
    }

    /// Times the layers of one read frame from outside: `answer_batch` on
    /// the same queries, and the four codec calls a frame's round trip
    /// makes. Transport is what remains of the round trip.
    fn probe_layers(
        &self,
        queries: &[Query],
        responses: &[Response],
        rtt_us: f64,
        tracer: &mut Tracer,
        report: &mut Report,
        id: u64,
    ) {
        let probe = self.probe.as_ref().expect("traced runs build the probe");
        let s = tracer.begin("serve.answer_probe", id);
        let t = Instant::now();
        std::hint::black_box(probe.answer_batch(queries));
        let answer_us = t.elapsed().as_secs_f64() * 1e6;
        tracer.end(s);
        let s = tracer.begin("serve.codec_probe", id);
        let t = Instant::now();
        let (mut qbuf, mut rbuf) = (Vec::new(), Vec::new());
        encode_queries(queries, &mut qbuf);
        let decoded = decode_queries(&qbuf);
        encode_responses(responses, &mut rbuf);
        let back = decode_responses(&rbuf, queries);
        std::hint::black_box((decoded.is_ok(), back.is_ok()));
        let codec_us = t.elapsed().as_secs_f64() * 1e6;
        tracer.end(s);
        report.layer("serve.rtt_us", rtt_us);
        report.layer("serve.answer_us", answer_us);
        report.layer("serve.codec_us", codec_us);
        report.layer("serve.transport_us", rtt_us - answer_us - codec_us);
        if let Response::Status { queue_depth, .. } = responses[1] {
            report.layer("serve.queue_depth", f64::from(queue_depth));
        }
    }

    /// Finds the known state the frame's epoch names and checks every
    /// answer against it. A new epoch after a write is the written state,
    /// or a prefix of the write frame's updates.
    fn check_read(
        &mut self,
        queries: &[Query],
        responses: &[Response],
        arrived: Instant,
        traced: bool,
        report: &mut Report,
    ) {
        let (epoch, trees, weight) = match responses.first() {
            Some(&Response::Epoch {
                epoch,
                trees,
                total_weight,
            }) => (u64::from(epoch), trees, total_weight),
            other => {
                return report.mismatch(format!("read frame without an epoch record: {other:?}"))
            }
        };
        match responses.get(1) {
            Some(&Response::Status { epoch: e, .. }) if u64::from(e) == epoch => {}
            other => return report.mismatch(format!("status record {other:?} at epoch {epoch}")),
        }
        let frame = Frame {
            queries,
            responses,
            trees: trees as usize,
            weight,
        };
        if epoch == self.cur.epoch {
            if let Err(e) = frame.check(&self.cur) {
                report.mismatch(format!("epoch {epoch}: {e}"));
            }
            return;
        }
        if epoch < self.cur.epoch {
            return report.mismatch(format!("epoch {epoch} after epoch {}", self.cur.epoch));
        }
        // A new epoch holds the whole write in flight, or only updates that
        // leave the forest as it was (the rest of a split frame), or a
        // prefix of the write in flight.
        if let Some(p) = self.pending.as_mut() {
            p.next.epoch = epoch;
            if frame.check(&p.next).is_ok() {
                let p = self.pending.take().expect("write in flight");
                report.timing(
                    "write_visible_ms",
                    (arrived - p.sent).as_secs_f64() * 1e3,
                    traced,
                );
                self.cur = p.next;
                return;
            }
        }
        if frame.check(&self.cur).is_ok() {
            self.split_epochs += 1;
            self.cur.epoch = epoch;
            return;
        }
        match self.prefix_state(epoch, &frame) {
            Some(k) => {
                self.split_epochs += 1;
                self.cur = k;
            }
            None => report.mismatch(format!(
                "epoch {epoch}: answers match neither the written state nor any prefix of the write"
            )),
        }
    }

    /// The state after the first `j` updates of the in-flight frame, for
    /// the `j` whose answers the frame shows, rebuilt from the replica.
    fn prefix_state(&self, epoch: u64, frame: &Frame) -> Option<Known> {
        let p = self.pending.as_ref()?;
        let pool = ThreadPool::new(1);
        let after: Vec<Edge> = self.replica.current_edges();
        let updates = p.deletes.len() + p.inserts.len();
        (1..updates).find_map(|j| {
            // Undo updates j.. of the frame: deletes first, then inserts.
            let undo_deletes = &p.deletes[j.min(p.deletes.len())..];
            let undo_inserts: HashSet<(u32, u32)> = p.inserts[j.saturating_sub(p.deletes.len())..]
                .iter()
                .map(|e| canon(e.u, e.v))
                .collect();
            let edges: Vec<Edge> = after
                .iter()
                .filter(|e| !undo_inserts.contains(&canon(e.u, e.v)))
                .chain(undo_deletes)
                .copied()
                .collect();
            let d = DynamicMsf::from_edges(self.n as usize, edges, &pool).ok()?;
            let k = Known {
                epoch,
                index: Arc::clone(d.index()),
                trees: d.msf().num_trees,
                weight: d.msf().total_weight,
            };
            frame.check(&k).is_ok().then_some(k)
        })
    }

    /// Closes both connections, shuts the server down and waits for it.
    pub fn shutdown(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        // Workers serve one connection at a time: free them first.
        self.reader = None;
        self.writer = None;
        let mut c = RetryingClient::new(&self.addr, RetryPolicy::default(), 1);
        let reply = c.exchange(&[Query::Shutdown]);
        drop(c);
        let joined = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        joined.map_err(|e| format!("server: {e}"))?;
        match reply {
            Ok(r) if r == [Response::ShuttingDown] => Ok(()),
            other => Err(format!("shutdown reply {other:?}")),
        }
    }

    pub fn service_error(&self) -> Option<String> {
        self.service.last_update_error()
    }
}

impl Drop for ServeEnv {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One read frame's queries and replies, with its epoch record.
struct Frame<'a> {
    queries: &'a [Query],
    responses: &'a [Response],
    trees: usize,
    weight: f64,
}

impl Frame<'_> {
    fn check(&self, k: &Known) -> Result<(), String> {
        if self.trees != k.trees || !weights_agree(self.weight, k.weight) {
            return Err(format!(
                "epoch record ({} trees, weight {}) against ({} trees, weight {})",
                self.trees, self.weight, k.trees, k.weight
            ));
        }
        let ix = &k.index;
        for (q, got) in self.queries.iter().zip(self.responses).skip(2) {
            let want = match *q {
                Query::Component(u) => Response::Component(ix.component(u)),
                Query::PathMax(u, v) => {
                    Response::PathMax(ix.path_max(u, v).map(|k| (k.lo(), k.hi(), k.weight())))
                }
                Query::ConnectedUnder(u, v, l) => {
                    Response::ConnectedUnder(ix.connected_under(u, v, l))
                }
                ref other => return Err(format!("unexpected query {other:?}")),
            };
            if *got != want {
                return Err(format!("{q:?}: got {got:?}, want {want:?}"));
            }
        }
        Ok(())
    }
}
