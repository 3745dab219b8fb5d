//! X8 — the front-door under load: drive a seeded mixed-route workload
//! through the gateway's real HTTP surface with a loopback client pool,
//! twice against the same artifact directory (a cold process and a warm
//! restart), and verify every wire response byte-for-byte against serial
//! in-process execution.
//!
//! Usage: `cargo run --release -p mcmm-bench --bin serve-http -- [--smoke]
//! [--jobs N] [--seed S] [--clients C] [--shards K] [--duplicates P]
//! [--json]`. `--smoke` shrinks the workload for CI; the full run drives
//! ≥100k requests. Writes `BENCH_serve_http.json` (latency percentiles,
//! dedupe ratio, cold-vs-warm cache hit rates, host core count) on full
//! runs. Exits
//! non-zero if any invariant fails, so this binary doubles as the
//! end-to-end smoke gate for the gateway.
//!
//! Invariants enforced here:
//! * every request answers 200 and its checksum equals the serial
//!   reference's (the coalescer and the failover router change *when*
//!   work happens, never *what* it computes);
//! * the in-flight coalescer merged at least one duplicate submission
//!   (the workload's `duplicate_percent` knob makes this measurable);
//! * the warm restart's effective cache hit rate is strictly above the
//!   cold process's, and the warm restart compiles nothing
//!   (`disk_fills == 0`) — the disk tier genuinely persists artifacts;
//! * `/v1/stats` reports live memory rows (`mem_traced_launches > 0`) —
//!   the default-on trace pipeline is actually running under load, not
//!   silently disabled;
//! * on the default full workload, p99 latency stays within 20% of the
//!   pre-tracing baseline (`BENCH_serve_http.json` from the gateway PR)
//!   — the production claim that tracing is cheap enough to leave on.
//!   The 20% budget needs cores for the per-block replay to overlap
//!   with; hosts under 4 cores get a regression-backstop budget instead.

use mcmm_gateway::{Gateway, GatewayConfig, HttpClient, SubmitRequest, SubmitResponse};
use mcmm_gateway::{HttpServer, TenantPolicy};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_serve::workload::{run_serial, PlannedInput, PlannedJob, Workload, WorkloadConfig};
use mcmm_serve::LatencyStats;
use mcmm_toolchain::Registry;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Lower a planned job to the gateway's wire vocabulary. Only fresh-input
/// jobs can cross the wire (chains alias in-process device buffers), so
/// the workload is generated with `chain_percent: 0`.
fn to_wire(job: &PlannedJob, tenant: &str) -> SubmitRequest {
    let x = match &job.x {
        PlannedInput::Fresh(data) => data.clone(),
        PlannedInput::ChainedFrom(_) => unreachable!("HTTP workload plans no chains"),
    };
    SubmitRequest {
        tenant: tenant.to_owned(),
        shape: job.shape.name().to_owned(),
        model: job.model.name().to_owned(),
        language: job.language.name().to_owned(),
        vendor: job.vendor.name().to_owned(),
        a: job.a,
        x,
        y: job.y.clone(),
    }
}

/// One run's wire-level outcome.
struct RunOutcome {
    /// Response checksum per plan index.
    checksums: Vec<String>,
    /// Per-request wall-clock latencies (seconds).
    latencies: Vec<f64>,
    /// Non-200 responses, with status and body.
    failures: Vec<(usize, u16, String)>,
    /// Wall-clock of the whole run (seconds).
    wall_s: f64,
}

/// Drive the full workload through `addr` with a pool of persistent
/// keep-alive connections. Plan index `i` goes to client `i % clients`,
/// so a replay of a recent job lands on a *different* connection at
/// nearly the same time — the overlap the coalescer exists to merge.
fn drive(addr: SocketAddr, bodies: &Arc<Vec<String>>, clients: usize) -> RunOutcome {
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = Arc::clone(bodies);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("client connects");
                let mut results = Vec::new();
                let mut idx = c;
                while idx < bodies.len() {
                    let body = &bodies[idx];
                    let t = Instant::now();
                    let (status, resp) = client
                        .request("POST", "/v1/submit", Some(body.as_bytes()))
                        .expect("exchange completes");
                    let latency = t.elapsed().as_secs_f64();
                    let checksum = if status == 200 {
                        serde_json::from_str::<SubmitResponse>(
                            std::str::from_utf8(&resp).expect("utf8 response"),
                        )
                        .expect("well-formed response")
                        .checksum
                    } else {
                        String::from_utf8_lossy(&resp).into_owned()
                    };
                    results.push((idx, status, checksum, latency));
                    idx += clients;
                }
                results
            })
        })
        .collect();
    let mut checksums = vec![String::new(); bodies.len()];
    let mut latencies = Vec::with_capacity(bodies.len());
    let mut failures = Vec::new();
    for h in handles {
        for (idx, status, payload, latency) in h.join().expect("client thread") {
            latencies.push(latency);
            if status == 200 {
                checksums[idx] = payload;
            } else {
                failures.push((idx, status, payload));
            }
        }
    }
    RunOutcome { checksums, latencies, failures, wall_s: wall.elapsed().as_secs_f64() }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let smoke = flag("--smoke");
    let jobs: usize = value("--jobs")
        .map(|v| v.parse().expect("--jobs takes a number"))
        .unwrap_or(if smoke { 3_000 } else { 100_000 });
    let seed: u64 =
        value("--seed").map(|v| v.parse().expect("--seed takes a number")).unwrap_or(0xFACADE);
    let clients: usize = value("--clients")
        .map(|v| v.parse().expect("--clients takes a number"))
        .unwrap_or(8)
        .max(1);
    let shards: usize =
        value("--shards").map(|v| v.parse().expect("--shards takes a number")).unwrap_or(4).max(1);
    let duplicate_percent: usize = value("--duplicates")
        .map(|v| v.parse().expect("--duplicates takes a percent"))
        .unwrap_or(25);
    let json = flag("--json");

    let registry = Registry::paper();
    let n = 256;
    let workload = Workload::generate(
        WorkloadConfig { jobs, seed, n, chain_percent: 0, duplicate_percent },
        &registry,
    );
    let tenants: Vec<String> = (0..4).map(|t| format!("bench-{t}")).collect();
    let bodies: Arc<Vec<String>> = Arc::new(
        workload
            .jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                serde_json::to_string(&to_wire(job, &tenants[i % tenants.len()]))
                    .expect("request serializes")
            })
            .collect(),
    );

    // Serial in-process ground truth: one device per vendor, one job at a
    // time. The gateway's answers must match these bytes exactly.
    let expected: Vec<String> = run_serial(&workload, &registry)
        .iter()
        .map(|bytes| format!("{:016x}", fnv1a(bytes)))
        .collect();

    let dir = std::env::temp_dir().join(format!("mcmm-serve-http-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || GatewayConfig {
        shards,
        // The bench measures serving, not admission: a bucket deep enough
        // that no tenant throttles.
        tenant: TenantPolicy { burst: 1e12, per_second: 1e12 },
        artifact_dir: Some(dir.clone()),
        ..GatewayConfig::default()
    };

    // Cold process: every route compiles once, artifacts persist to disk.
    let (cold, cold_stats, wire_mem_launches) = {
        let gateway = Arc::new(Gateway::new(cfg()).expect("cold gateway up"));
        let server = HttpServer::start("127.0.0.1:0", gateway, clients.min(8)).expect("bind");
        let outcome = drive(server.addr(), &bodies, clients);
        // Read the memory rows over the wire, not in-process: the check
        // is that an operator polling `/v1/stats` sees tracing live.
        let mut probe = HttpClient::connect(server.addr()).expect("stats client connects");
        let (status, body) = probe.request("GET", "/v1/stats", None).expect("stats exchange");
        assert_eq!(status, 200, "/v1/stats answers 200");
        let wire: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&body).expect("utf8 stats"))
                .expect("well-formed stats JSON");
        let wire_mem_launches =
            wire["mem_traced_launches"].as_u64().expect("stats carry mem_traced_launches");
        let stats = server.gateway().stats();
        server.shutdown();
        (outcome, stats, wire_mem_launches)
    };
    // Warm restart: a new process image over the same artifact directory.
    let (warm, warm_stats) = {
        let gateway = Arc::new(Gateway::new(cfg()).expect("warm gateway up"));
        let server = HttpServer::start("127.0.0.1:0", gateway, clients.min(8)).expect("bind");
        let outcome = drive(server.addr(), &bodies, clients);
        let stats = server.gateway().stats();
        server.shutdown();
        (outcome, stats)
    };
    let _ = std::fs::remove_dir_all(&dir);

    let effective_hit_rate = |hits: u64, disk_hits: u64, misses: u64| {
        (hits + disk_hits) as f64 / ((hits + misses).max(1)) as f64
    };
    let cold_hit_rate =
        effective_hit_rate(cold_stats.cache_hits, cold_stats.disk_hits, cold_stats.cache_misses);
    let warm_hit_rate =
        effective_hit_rate(warm_stats.cache_hits, warm_stats.disk_hits, warm_stats.cache_misses);
    let cold_latency = LatencyStats::from_seconds(&cold.latencies);
    let warm_latency = LatencyStats::from_seconds(&warm.latencies);
    let requests_total = cold.latencies.len() + warm.latencies.len();
    let dedupe_joins = cold_stats.coalesce_joins + warm_stats.coalesce_joins;
    let dedupe_ratio = dedupe_joins as f64
        / (cold_stats.coalesce_leads + warm_stats.coalesce_leads + dedupe_joins).max(1) as f64;

    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let report = format!(
        concat!(
            "{{\n",
            "  \"jobs\": {jobs},\n",
            "  \"seed\": {seed},\n",
            "  \"n\": {n},\n",
            "  \"clients\": {clients},\n",
            "  \"shards\": {shards},\n",
            "  \"host_cores\": {host_cores},\n",
            "  \"duplicate_percent\": {dup},\n",
            "  \"requests_total\": {requests_total},\n",
            "  \"dedupe_ratio\": {dedupe_ratio:.4},\n",
            "  \"cold\": {{ \"p50_us\": {c50:.1}, \"p99_us\": {c99:.1}, ",
            "\"throughput_rps\": {crps:.0}, \"effective_hit_rate\": {chr:.4}, ",
            "\"coalesce_joins\": {cj}, \"disk_hits\": {cdh}, \"disk_fills\": {cdf} }},\n",
            "  \"warm\": {{ \"p50_us\": {w50:.1}, \"p99_us\": {w99:.1}, ",
            "\"throughput_rps\": {wrps:.0}, \"effective_hit_rate\": {whr:.4}, ",
            "\"coalesce_joins\": {wj}, \"disk_hits\": {wdh}, \"disk_fills\": {wdf} }},\n",
            "  \"checksums_match\": {ok}\n",
            "}}"
        ),
        jobs = jobs,
        seed = seed,
        n = n,
        clients = clients,
        shards = shards,
        host_cores = host_cores,
        dup = duplicate_percent,
        requests_total = requests_total,
        dedupe_ratio = dedupe_ratio,
        c50 = cold_latency.p50_us,
        c99 = cold_latency.p99_us,
        crps = jobs as f64 / cold.wall_s,
        chr = cold_hit_rate,
        cj = cold_stats.coalesce_joins,
        cdh = cold_stats.disk_hits,
        cdf = cold_stats.disk_fills,
        w50 = warm_latency.p50_us,
        w99 = warm_latency.p99_us,
        wrps = jobs as f64 / warm.wall_s,
        whr = warm_hit_rate,
        wj = warm_stats.coalesce_joins,
        wdh = warm_stats.disk_hits,
        wdf = warm_stats.disk_fills,
        ok = cold.failures.is_empty()
            && warm.failures.is_empty()
            && cold.checksums == expected
            && warm.checksums == expected,
    );

    if json {
        println!("{report}");
    } else {
        println!("── Serving the matrix over HTTP (X7) ──");
        println!(
            "workload: {jobs} jobs ({duplicate_percent}% duplicates) × 2 runs = \
             {requests_total} requests over {clients} connections → {shards} shards"
        );
        println!(
            "cold:  p50 {:.0}µs  p99 {:.0}µs  {:.0} req/s  hit rate {:.1}%  \
             ({} coalesced, {} disk fills)",
            cold_latency.p50_us,
            cold_latency.p99_us,
            jobs as f64 / cold.wall_s,
            cold_hit_rate * 100.0,
            cold_stats.coalesce_joins,
            cold_stats.disk_fills,
        );
        println!(
            "warm:  p50 {:.0}µs  p99 {:.0}µs  {:.0} req/s  hit rate {:.1}%  \
             ({} coalesced, {} disk hits)",
            warm_latency.p50_us,
            warm_latency.p99_us,
            jobs as f64 / warm.wall_s,
            warm_hit_rate * 100.0,
            warm_stats.coalesce_joins,
            warm_stats.disk_hits,
        );
    }

    if !smoke {
        std::fs::write("BENCH_serve_http.json", format!("{report}\n"))
            .expect("write BENCH_serve_http.json");
        eprintln!("wrote BENCH_serve_http.json");
    }

    // Invariants — the CI gate.
    let mut failed = false;
    for (name, outcome) in [("cold", &cold), ("warm", &warm)] {
        for (idx, status, body) in outcome.failures.iter().take(5) {
            eprintln!("FAIL: {name} request {idx} answered {status}: {body}");
        }
        if !outcome.failures.is_empty() {
            eprintln!("FAIL: {name} run had {} non-200 responses", outcome.failures.len());
            failed = true;
        }
        let divergent =
            outcome.checksums.iter().zip(&expected).filter(|(got, want)| got != want).count();
        if divergent > 0 {
            eprintln!("FAIL: {name} run diverged from serial execution on {divergent} jobs");
            failed = true;
        } else if !json {
            println!(
                "verify: {name} run byte-identical to serial execution ({} checksums)",
                expected.len()
            );
        }
    }
    if dedupe_joins == 0 {
        eprintln!(
            "FAIL: {duplicate_percent}% duplicate submissions but the coalescer merged nothing"
        );
        failed = true;
    }
    if warm_hit_rate <= cold_hit_rate {
        eprintln!(
            "FAIL: warm restart hit rate {:.3} must beat cold {:.3}",
            warm_hit_rate, cold_hit_rate
        );
        failed = true;
    }
    if warm_stats.disk_fills != 0 {
        eprintln!("FAIL: warm restart recompiled {} artifacts", warm_stats.disk_fills);
        failed = true;
    }
    if wire_mem_launches == 0 {
        eprintln!(
            "FAIL: /v1/stats reports mem_traced_launches = 0 after {} requests — \
             default-on tracing is not reaching the shard devices",
            cold.latencies.len()
        );
        failed = true;
    }
    // Latency regression gate against the pre-tracing gateway baseline
    // (BENCH_serve_http.json as of the gateway PR, same default workload:
    // 100k jobs, 8 clients, 4 shards). Tracing on by default must not
    // move p99 by more than 20% — when there are cores for the per-block
    // replay to overlap with. On a narrower host every replay cycle
    // comes straight out of request throughput, so the budget is only a
    // backstop against gross regressions there. Only meaningful when the
    // workload knobs are at their defaults — a custom --jobs/--clients
    // run measures a different distribution.
    const BASELINE_COLD_P99_US: f64 = 3997.1;
    const BASELINE_WARM_P99_US: f64 = 4873.8;
    if smoke {
        // The smoke workload is too small to compare against the full
        // baseline, but a traced-by-default gateway melting down (lock
        // storms, unbounded replay) still shows up as a p99 blowout.
        const SMOKE_P99_CEILING_US: f64 = 25_000.0;
        for (name, p99) in [("cold", cold_latency.p99_us), ("warm", warm_latency.p99_us)] {
            if p99 > SMOKE_P99_CEILING_US {
                eprintln!(
                    "FAIL: {name} smoke p99 {p99:.1}µs exceeds the \
                     {SMOKE_P99_CEILING_US:.0}µs sanity ceiling"
                );
                failed = true;
            }
        }
    }
    if !smoke && jobs == 100_000 && clients == 8 && shards == 4 {
        let budget = if host_cores >= 4 { 1.2 } else { 2.5 };
        for (name, p99, baseline) in [
            ("cold", cold_latency.p99_us, BASELINE_COLD_P99_US),
            ("warm", warm_latency.p99_us, BASELINE_WARM_P99_US),
        ] {
            if p99 > baseline * budget {
                eprintln!(
                    "FAIL: {name} p99 {p99:.1}µs exceeds the pre-tracing baseline \
                     {baseline:.1}µs by more than {:.0}% ({host_cores} host cores)",
                    (budget - 1.0) * 100.0
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
