//! `http-small`: two keep-alive connections to an in-process [`Gateway`]
//! behind [`HttpServer`] on loopback, closed loop. The gateway runs at its
//! defaults (4 shards) with a tenant bucket that never throttles and a
//! fresh artifact directory. Requests are a seeded mix of the four STREAM
//! shapes over every routable (model, language, vendor) combination at
//! n = 256, with 25% verbatim replays of recent requests and 4 tenants.
//! Bodies are built on demand, so the process's memory is the program's,
//! not the inputs'.
//!
//! Every answer is checked against the checksum of `run_serial` on the
//! same job. The span-traced phase serves the same gateway through a
//! replica of the server loop assembled from the gateway's public pieces,
//! with a span around each call.

use crate::common::{fnv1a, Phase, Rng, Tally};
use crate::probe::Subject;
use crate::spans::{Recorder, Tracer};
use crate::{Metrics, Workload};
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gateway::coalesce::{FlightResult, Join};
use mcmm_gateway::http::{read_request, Response};
use mcmm_gateway::{Gateway, GatewayConfig, HttpServer, SubmitRequest, SubmitResponse};
use mcmm_gateway::{TenantGovernor, TenantPolicy};
use mcmm_gpu_sim::device::{Device, KernelArg};
use mcmm_serve::workload::{routable_combos, run_serial};
use mcmm_serve::{KernelShape, PlannedInput, PlannedJob, Workload as Plan};
use mcmm_toolchain::Registry;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N: usize = 256;
const CLIENTS: usize = 2;
/// Goodput counts correct answers within this latency.
const LIMIT_S: f64 = 0.005;
const TENANTS: usize = 4;
const DUPLICATE_PERCENT: u64 = 25;
/// Replays copy one of this many most recent fresh requests.
const RECENT: usize = 8;
/// Share of the measured time spent on route passes (`sweep_s`).
const PASS_SHARE: f64 = 0.15;

pub type Combo = (Model, Language, Vendor);

/// One request's content.
#[derive(Debug, Clone)]
struct Job {
    shape: KernelShape,
    combo: Combo,
    a: f32,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Job {
    fn random(rng: &mut Rng, shape: KernelShape, combo: Combo) -> Self {
        let a = 0.25 + rng.below(8) as f32 * 0.25;
        let x = (0..N).map(|j| (rng.below(64) as f32 - 32.0) + j as f32 * 0.125).collect();
        let y = (0..N).map(|j| rng.below(16) as f32 + j as f32 * 0.0625).collect();
        Self { shape, combo, a, x, y }
    }

    pub fn planned(&self) -> PlannedJob {
        let (model, language, vendor) = self.combo;
        PlannedJob {
            shape: self.shape,
            model,
            language,
            vendor,
            a: self.a,
            x: PlannedInput::Fresh(self.x.clone()),
            y: self.y.clone(),
            n: N as u64,
        }
    }

    /// The `POST /v1/submit` body. Every value is a small binary fraction,
    /// so its shortest decimal form round-trips exactly.
    fn body(&self, tenant: usize) -> String {
        let (model, language, vendor) = self.combo;
        let list = |xs: &[f32]| xs.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>().join(",");
        format!(
            "{{\"tenant\":\"tenant-{tenant}\",\"shape\":\"{}\",\"model\":\"{}\",\"language\":\"{}\",\
             \"vendor\":\"{}\",\"a\":{:?},\"x\":[{}],\"y\":[{}]}}",
            self.shape.name(),
            model.name(),
            language.name(),
            vendor.name(),
            self.a,
            list(&self.x),
            list(&self.y)
        )
    }
}

/// The seeded request stream, generated as requests are sent.
struct Gen {
    rng: Rng,
    combos: Vec<Combo>,
    recent: VecDeque<(usize, Job)>,
    next: usize,
}

impl Gen {
    fn new(seed: u64, combos: Vec<Combo>) -> Self {
        Self { rng: Rng::stream(seed, 1), combos, recent: VecDeque::new(), next: 0 }
    }

    /// The next request: its index, content, and the index of the fresh
    /// request it replays (itself when fresh).
    fn next(&mut self) -> (usize, Job, usize) {
        let idx = self.next;
        self.next += 1;
        if self.rng.below(100) < DUPLICATE_PERCENT && !self.recent.is_empty() {
            let (src, job) = &self.recent[self.rng.below(self.recent.len() as u64) as usize];
            return (idx, job.clone(), *src);
        }
        let combo = self.combos[self.rng.below(self.combos.len() as u64) as usize];
        let shape = KernelShape::ALL[self.rng.below(4) as usize];
        let job = Job::random(&mut self.rng, shape, combo);
        self.recent.push_back((idx, job.clone()));
        if self.recent.len() > RECENT {
            self.recent.pop_front();
        }
        (idx, job, idx)
    }
}

/// The first `count` requests of the stream, as planned jobs (used by the
/// serving-layer probes).
pub fn sample_jobs(seed: u64, count: usize) -> Vec<PlannedJob> {
    let mut gen = Gen::new(seed, routable_combos(&Registry::paper()));
    (0..count).map(|_| gen.next().1.planned()).collect()
}

/// `base` with its scalar varied until the gateway routes the submission to
/// `shard` of `shards` (routing hashes the validated submission).
fn on_shard(base: &Job, shard: u64, shards: u64) -> Job {
    let (model, language, vendor) = base.combo;
    (0..)
        .map(|k| Job { a: 0.25 + k as f32 * 0.25, ..base.clone() })
        .find(|j| {
            let req = SubmitRequest {
                tenant: String::new(),
                shape: j.shape.name().into(),
                model: model.name().into(),
                language: language.name().into(),
                vendor: vendor.name().into(),
                a: j.a,
                x: j.x.clone(),
                y: j.y.clone(),
            };
            req.validate().expect("generated request is valid").key % shards == shard
        })
        .expect("some scalar reaches every shard")
}

/// Checksums of `run_serial` over `jobs`, the independent reference.
pub fn reference(jobs: Vec<PlannedJob>, registry: &Registry) -> Vec<u64> {
    run_serial(&Plan { jobs }, registry).iter().map(|b| fnv1a(b)).collect()
}

/// A keep-alive client connection, written here so the client side costs
/// the same whatever the program's own client does.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { reader: BufReader::new(stream) })
    }

    /// One exchange: `(status, body)` once the full response is read.
    fn exchange(&mut self, body: &str, id: u64) -> std::io::Result<(u16, Vec<u8>)> {
        let msg = format!(
            "POST /v1/submit HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             x-request-id: {id}\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.reader.get_mut().write_all(msg.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status"))?;
        let mut len = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("eof in head"));
            }
            if line == "\r\n" {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse::<usize>().ok();
                }
            }
        }
        let mut payload = vec![0; len.ok_or_else(|| bad("no content-length"))?];
        std::io::Read::read_exact(&mut self.reader, &mut payload)?;
        Ok((status, payload))
    }
}

fn checksum_of(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"checksum\":\"";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    u64::from_str_radix(std::str::from_utf8(body.get(at..at + 16)?).ok()?, 16).ok()
}

/// One answered (or lost) request.
#[derive(Debug, Clone, Copy)]
struct Sent {
    idx: usize,
    status: u16,
    checksum: Option<u64>,
    latency: f64,
}

/// Send `body` over `conn`, timing from the first byte sent to the last
/// byte received.
fn send(conn: &mut Conn, rec: &mut Recorder, idx: usize, body: &str) -> Sent {
    rec.request = idx as u64 + 1;
    let t = Instant::now();
    let answer = rec.time("client.request", || conn.exchange(body, idx as u64 + 1));
    let latency = t.elapsed().as_secs_f64();
    match answer {
        Ok((status, payload)) => Sent { idx, status, checksum: checksum_of(&payload), latency },
        Err(_) => Sent { idx, status: 0, checksum: None, latency },
    }
}

/// Counters of the span-traced replica server.
#[derive(Debug, Default)]
struct ReplicaCounters {
    leads: AtomicU64,
    follows: AtomicU64,
    /// Leads that found their shard already running a job.
    busy: AtomicU64,
    /// 429 / 503 / 500 answers.
    refused: AtomicU64,
}

pub struct HttpSmall {
    seed: u64,
    registry: Registry,
    gateway: Arc<Gateway>,
    server: Option<HttpServer>,
    dir: PathBuf,
    gen: Mutex<Gen>,
    /// Stream requests sent so far, checked at the end.
    sent: Vec<Sent>,
    /// Fixed request lists (warm-up, route pass) with their answers.
    fixed: Vec<(Vec<Job>, Vec<Sent>)>,
    counters: ReplicaCounters,
}

impl HttpSmall {
    /// Bring up the gateway and its server, then warm every shard: one
    /// request per (shape, route, shard), which compiles every (kernel,
    /// route) the stream can ask for.
    pub fn setup(seed: u64) -> Self {
        let registry = Registry::paper();
        let combos = routable_combos(&registry);
        let dir = crate::run_dir("http-small");
        let cfg = GatewayConfig {
            tenant: TenantPolicy { burst: 1e12, per_second: 1e12 },
            artifact_dir: Some(dir.clone()),
            ..GatewayConfig::default()
        };
        let gateway = Arc::new(Gateway::new(cfg).expect("gateway comes up"));
        let server = HttpServer::start("127.0.0.1:0", Arc::clone(&gateway), CLIENTS)
            .expect("server binds on loopback");
        let shards = gateway.shard_count() as u64;
        let mut rng = Rng::stream(seed, 2);
        let mut warm = Vec::new();
        for shape in KernelShape::ALL {
            for &combo in &combos {
                let base = Job::random(&mut rng, shape, combo);
                warm.extend((0..shards).map(|shard| on_shard(&base, shard, shards)));
            }
        }
        let mut this = Self {
            seed,
            gen: Mutex::new(Gen::new(seed, combos)),
            registry,
            gateway,
            dir,
            sent: Vec::new(),
            fixed: Vec::new(),
            counters: ReplicaCounters::default(),
            server: Some(server),
        };
        this.passes(warm, 0.0);
        this
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server is up").addr()
    }

    /// Send a fixed list, one request after another on one keep-alive
    /// connection, whole list after whole list until `budget_s` has passed
    /// (at least once). Returns each pass's wall-clock in seconds.
    fn passes(&mut self, jobs: Vec<Job>, budget_s: f64) -> Vec<f64> {
        let bodies: Vec<String> =
            jobs.iter().enumerate().map(|(i, j)| j.body(i % TENANTS)).collect();
        let mut conn = Conn::connect(self.addr()).expect("client connects");
        let mut rec = Recorder::new(None);
        let (mut walls, mut answers) = (Vec::new(), Vec::new());
        let t = Instant::now();
        while walls.is_empty() || t.elapsed().as_secs_f64() < budget_s {
            let pass = Instant::now();
            for (i, body) in bodies.iter().enumerate() {
                answers.push(send(&mut conn, &mut rec, i, body));
            }
            walls.push(pass.elapsed().as_secs_f64());
        }
        self.fixed.push((jobs, answers));
        walls
    }
}

impl Workload for HttpSmall {
    fn callers(&self) -> usize {
        CLIENTS
    }

    fn limit_s(&self) -> f64 {
        LIMIT_S
    }

    /// Closed loop over the request stream for `secs`: through the real
    /// server, or through the span-traced replica when `tracer` is given.
    fn closed_loop(&mut self, secs: f64, tracer: Option<&Tracer>) -> Phase {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let gen = &self.gen;
        let client = |addr: SocketAddr| {
            let mut conn = Conn::connect(addr).expect("client connects");
            let mut rec = Recorder::new(tracer);
            let mut out = Vec::new();
            while Instant::now() < deadline {
                let (idx, job, _) = gen.lock().expect("generator lock").next();
                out.push(send(&mut conn, &mut rec, idx, &job.body(idx % TENANTS)));
            }
            out
        };
        let t = Instant::now();
        let sent: Vec<Sent> = match tracer {
            None => {
                let addr = self.addr();
                std::thread::scope(|s| {
                    let workers: Vec<_> = (0..CLIENTS).map(|_| s.spawn(|| client(addr))).collect();
                    workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect()
                })
            }
            Some(tracer) => {
                let listener = TcpListener::bind("127.0.0.1:0").expect("replica binds");
                let addr = listener.local_addr().expect("replica address");
                let governor = TenantGovernor::new(TenantPolicy { burst: 1e12, per_second: 1e12 });
                let running: Vec<AtomicUsize> =
                    (0..self.gateway.shard_count()).map(|_| AtomicUsize::new(0)).collect();
                let (gateway, counters) = (&*self.gateway, &self.counters);
                let (governor, running) = (&governor, &running);
                std::thread::scope(|s| {
                    s.spawn(move || {
                        for _ in 0..CLIENTS {
                            let (stream, _) = listener.accept().expect("replica accepts");
                            s.spawn(move || {
                                replica_connection(
                                    stream, gateway, governor, running, counters, tracer,
                                )
                            });
                        }
                    });
                    let workers: Vec<_> = (0..CLIENTS).map(|_| s.spawn(|| client(addr))).collect();
                    workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect()
                })
            }
        };
        let wall = t.elapsed();
        let ops = sent.iter().map(|s| (s.latency, s.status == 200)).collect();
        self.sent.extend(sent);
        Phase { wall, ops }
    }

    /// The untraced measurement: the closed loop, then repeated route
    /// passes (one request per shape and route) for `sweep_s`.
    fn measure(&mut self, secs: f64) -> (Phase, Vec<f64>) {
        let phase = self.closed_loop(secs * (1.0 - PASS_SHARE), None);
        let mut rng = Rng::stream(self.seed, 3);
        let combos = routable_combos(&self.registry);
        let jobs: Vec<Job> = KernelShape::ALL
            .into_iter()
            .flat_map(|shape| combos.iter().map(move |&c| (shape, c)))
            .map(|(shape, combo)| Job::random(&mut rng, shape, combo))
            .collect();
        let passes = self.passes(jobs, secs * PASS_SHARE);
        (phase, passes)
    }

    /// Memory-tier compile-cache `(hits, misses)` and lowered-program
    /// `(hits, misses)` summed over every shard.
    fn cache_counts(&self) -> ((u64, u64), (u64, u64)) {
        let mut cache = (0, 0);
        let mut programs = (0, 0);
        for shard in self.gateway.shards() {
            let c = shard.cache_stats();
            cache = (cache.0 + c.hits, cache.1 + c.misses);
            for v in Vendor::ALL {
                let p = shard.service().device(v).program_cache_stats();
                programs = (programs.0 + p.hits, programs.1 + p.misses);
            }
        }
        (cache, programs)
    }

    fn config(&self) -> String {
        crate::sim_config(self.gateway.shards()[0].service().device(Vendor::Nvidia))
    }

    /// Shut down and check every answer against `run_serial`. Returns the
    /// tally and a description of each kind of failure seen.
    fn finish(&mut self) -> (Tally, Vec<String>) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let mut tally = Tally::default();
        let mut failures = Vec::new();
        let mut check = |sent: &Sent, want: u64, tally: &mut Tally| {
            let ok = sent.status == 200 && sent.checksum == Some(want);
            if !ok && failures.len() < 5 {
                failures.push(format!(
                    "request {} answered {} with checksum {:?}, expected {want:016x}",
                    sent.idx, sent.status, sent.checksum
                ));
            }
            tally.record(ok);
        };
        for (jobs, answers) in &self.fixed {
            let want = reference(jobs.iter().map(Job::planned).collect(), &self.registry);
            for sent in answers {
                check(sent, want[sent.idx], &mut tally);
            }
        }
        let count = self.sent.iter().map(|s| s.idx + 1).max().unwrap_or(0);
        let mut gen = Gen::new(self.seed, routable_combos(&self.registry));
        let mut roots = Vec::with_capacity(count);
        let mut want = vec![0u64; count];
        let mut chunk: Vec<(usize, PlannedJob)> = Vec::new();
        let flush = |chunk: &mut Vec<(usize, PlannedJob)>, want: &mut Vec<u64>| {
            let (idx, jobs): (Vec<usize>, Vec<PlannedJob>) = chunk.drain(..).unzip();
            for (i, sum) in idx.into_iter().zip(reference(jobs, &self.registry)) {
                want[i] = sum;
            }
        };
        for _ in 0..count {
            let (idx, job, root) = gen.next();
            roots.push(root);
            if root == idx {
                chunk.push((idx, job.planned()));
                if chunk.len() == 2048 {
                    flush(&mut chunk, &mut want);
                }
            }
        }
        flush(&mut chunk, &mut want);
        for sent in &self.sent {
            check(sent, want[roots[sent.idx]], &mut tally);
        }
        (tally, failures)
    }

    fn subject(&self, seed: u64) -> Subject {
        let combos = routable_combos(&self.registry);
        // Every shape takes (a, x, y, n), so one job's buffers serve all.
        let job = Job::random(&mut Rng::stream(seed, 4), KernelShape::Copy, combos[0]);
        Subject {
            kernels: KernelShape::ALL.iter().map(|s| s.kernel()).collect(),
            combos,
            n: N,
            block: 128,
            copy_bytes: N * 4,
            args: Box::new(move |_, dev: &Device| {
                let upload = |v: &[f32]| dev.alloc_copy_f32(v).expect("probe upload");
                vec![
                    KernelArg::F32(job.a),
                    KernelArg::Ptr(upload(&job.x)),
                    KernelArg::Ptr(upload(&job.y)),
                    KernelArg::I32(N as i32),
                ]
            }),
        }
    }

    /// The replica's counters: coalescing, refusals and shard contention.
    fn traced_layers(&self, m: &mut Metrics) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        let c = &self.counters;
        let (leads, follows) = (get(&c.leads), get(&c.follows));
        m.insert("gateway.coalesce.dedupe_ratio", follows / (leads + follows).max(1.0));
        m.insert("gateway.refused", get(&c.refused));
        m.insert("gateway.shard.busy_share", get(&c.busy) / leads.max(1.0));
    }
}

/// The replica of the gateway's connection loop and submit path, built
/// from its public pieces with a span around each call.
fn replica_connection(
    stream: TcpStream,
    gateway: &Gateway,
    governor: &TenantGovernor,
    running: &[AtomicUsize],
    counters: &ReplicaCounters,
    tracer: &Tracer,
) {
    stream.set_nodelay(true).ok();
    let mut write_half = stream.try_clone().expect("clone replica stream");
    let mut reader = BufReader::new(stream);
    let mut rec = Recorder::new(Some(tracer));
    // Wait for a request's first bytes outside any span: that is the
    // client's time, not the gateway's.
    while matches!(reader.fill_buf(), Ok(b) if !b.is_empty()) {
        rec.request = 0;
        let done = rec.span("gateway.request", |rec| {
            let req = rec.span("gateway.http.read", |rec| {
                let req = read_request(&mut reader).ok()?;
                rec.request = req.header("x-request-id").and_then(|v| v.parse().ok()).unwrap_or(0);
                Some(req)
            })?;
            let response = replica_submit(rec, &req.body, gateway, governor, running, counters);
            rec.time("gateway.http.write", || response.write_to(&mut write_half, false)).ok()
        });
        if done.is_none() {
            return;
        }
    }
}

fn replica_submit(
    rec: &mut Recorder,
    body: &[u8],
    gateway: &Gateway,
    governor: &TenantGovernor,
    running: &[AtomicUsize],
    counters: &ReplicaCounters,
) -> Response {
    let error = |status: u16, message: &str| {
        if matches!(status, 429 | 500 | 503) {
            counters.refused.fetch_add(1, Ordering::Relaxed);
        }
        Response::json(status, format!("{{\"error\":{message:?}}}"))
    };
    let parsed = rec.time("gateway.api.decode", || {
        serde_json::from_str::<SubmitRequest>(std::str::from_utf8(body).unwrap_or(""))
    });
    let Ok(parsed) = parsed else { return error(400, "invalid JSON body") };
    let Ok(valid) = rec.time("gateway.api.validate", || parsed.validate()) else {
        return error(400, "invalid submission");
    };
    if rec.time("gateway.tenant.admit", || governor.admit(&parsed.tenant)).is_err() {
        return error(429, "tenant over rate");
    }
    let index = (valid.key % gateway.shard_count() as u64) as usize;
    let shard = &gateway.shards()[index];
    if shard.admit().is_err() {
        return error(503, "shard queue full");
    }
    let (result, coalesced) = match rec
        .time("gateway.coalesce.join", || shard.coalescer.join(valid.key))
    {
        Join::Lead => {
            counters.leads.fetch_add(1, Ordering::Relaxed);
            if running[index].fetch_add(1, Ordering::SeqCst) > 0 {
                counters.busy.fetch_add(1, Ordering::Relaxed);
            }
            let out = rec.time("gateway.shard.run", || shard.run(&valid.job));
            running[index].fetch_sub(1, Ordering::SeqCst);
            let result = match out {
                Some((bytes, route)) => {
                    FlightResult { checksum: fnv1a(&bytes), route, error: None }
                }
                None => {
                    FlightResult { checksum: 0, route: String::new(), error: Some("lost".into()) }
                }
            };
            shard.coalescer.complete(valid.key, result.clone());
            (result, false)
        }
        Join::Follow(flight) => {
            counters.follows.fetch_add(1, Ordering::Relaxed);
            let result = rec.time("gateway.coalesce.wait", || flight.wait());
            shard.release();
            (result, true)
        }
    };
    if result.error.is_some() {
        return error(500, "job lost");
    }
    let encoded = rec.time("gateway.api.encode", || {
        serde_json::to_string(&SubmitResponse {
            checksum: format!("{:016x}", result.checksum),
            route: result.route,
            shard: shard.index,
            coalesced,
        })
    });
    Response::json(200, encoded.expect("response serializes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_decode_to_the_same_job() {
        let mut gen = Gen::new(7, routable_combos(&Registry::paper()));
        for _ in 0..20 {
            let (_, job, _) = gen.next();
            let req: SubmitRequest = serde_json::from_str(&job.body(1)).unwrap();
            assert_eq!(req.x, job.x);
            assert_eq!(req.y, job.y);
            assert_eq!(req.a, job.a);
            assert_eq!(req.validate().unwrap().job.shape, job.shape);
        }
    }

    #[test]
    fn checksum_is_found_in_a_response() {
        let body = br#"{"checksum":"00000000000000ff","route":"nvcc","shard":1,"coalesced":false}"#;
        assert_eq!(checksum_of(body), Some(255));
    }
}
