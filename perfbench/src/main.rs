//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <http-small|sweep-stream|serve-irregular> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One process runs one workload closed
//! loop for `--seconds`, checks every output against an independent
//! reference, and prints a report followed, as its last line, by one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! * `--trace 0` reports the end-to-end metrics: set-up time (median over
//!   seven fresh processes, six of them children of this one), goodput,
//!   latency p50/p99, the wall-clock of one pass over every (kernel,
//!   route), and peak resident memory. All are host wall-clock.
//! * `--trace 1` is the span-traced run: the closed loop untraced, then
//!   again with a span around every call into a layer that the benchmark
//!   makes, then probes for layers the workload cannot be timed inside of
//!   from outside. It reports per-layer metrics, the share of wall-clock
//!   the spans cover, the tracing overhead (span-traced minus untraced
//!   end-to-end numbers), and exact modeled counts, and writes every span
//!   to `.perfbench_out/`.
//!
//! "Span-traced" always means this benchmark's per-layer timing; "memory
//! tracing" means the simulator's `MCMM_MEM_TRACE` access trace.
//!
//! The benchmark refuses to run with any `MCMM_*` variable set, so a knob
//! left in a shell cannot change what is measured.

mod common;
mod http_small;
mod probe;
mod serve_irregular;
mod spans;
mod sweep_stream;

use common::{median, peak_rss_mb, EndToEnd, Phase, Tally};
use http_small::HttpSmall;
use mcmm_gpu_sim::device::Device;
use probe::{Checks, Subject};
use serve_irregular::ServeIrregular;
use spans::{Recorder, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use sweep_stream::SweepStream;

const USAGE: &str = "usage: perfbench --workload <http-small|sweep-stream|serve-irregular> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups measured per untraced run: this process plus its children.
const SETUPS: usize = 7;
/// Share of a span-traced run's time in each of its two closed loops.
const TRACE_SHARE: f64 = 0.4;
/// Length of the gateway probe on workloads that serve no HTTP.
const GATEWAY_PROBE_S: f64 = 1.0;
/// Elements per array of the BabelStream cell probe on workloads that
/// run no sweep.
const CELL_PROBE_N: usize = 4096;

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("goodput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// What a modeled count should move: nothing.
const IDENTICAL: &str = "nothing: a host-speed change leaves it identical";
/// What the span-tracing metrics should move: nothing else.
const SPANS: &str = "none: it measures the span tracing itself";

/// Every per-layer metric in report order: name, unit, whether it is
/// modeled (simulated hardware) rather than host wall-clock, and the
/// end-to-end metric and workload it should move.
///
/// A metric in `us` or `ms` without its own computation below is the mean
/// self time per call of the span named like it (`gateway.http.read_us`
/// times `gateway.http.read`). Each span wraps one public call:
/// `http::read_request`, `Response::write_to`, the `serde_json` decode
/// and encode, `SubmitRequest::validate`, `TenantGovernor::admit`,
/// `Flight::wait`, `Shard::run`, `Service::submit`, `JobHandle::wait`,
/// `CompileCache::compile` on a resident and on a new key,
/// `analyze_with`, `Device::new`, `isa::assemble`, `lower::lower`,
/// `Device::load` of a loaded module, a one-block `Device::launch_kernel`,
/// and `memcpy_h2d` / `memcpy_d2h` of one workload buffer. The gateway,
/// serving and BabelStream spans come from the workload's span-traced
/// closed loop where it runs those layers, and from a probe otherwise;
/// the rest from probes on the workload's own kernels and size.
const PER_LAYER: [(&str, &str, bool, &str); 45] = [
    ("gateway.http.read_us", "us", false, "latency_p50_ms, goodput_rps on http-small"),
    ("gateway.http.write_us", "us", false, "latency_p50_ms, goodput_rps on http-small"),
    ("gateway.api.decode_us", "us", false, "latency_p50_ms, goodput_rps on http-small"),
    ("gateway.api.validate_us", "us", false, "latency_p50_ms, goodput_rps on http-small"),
    ("gateway.api.encode_us", "us", false, "latency_p50_ms, goodput_rps on http-small"),
    ("gateway.tenant.admit_us", "us", false, "latency_p50_ms, goodput_rps on http-small"),
    ("gateway.coalesce.dedupe_ratio", "ratio", false, "goodput_rps on http-small"),
    ("gateway.coalesce.wait_us", "us", false, "goodput_rps on http-small"),
    ("gateway.refused", "count", false, "goodput_rps on http-small"),
    ("gateway.shard.run_us", "us", false, "latency_p99_ms on http-small"),
    ("gateway.shard.busy_share", "ratio", false, "latency_p99_ms on http-small"),
    ("serve.service.submit_us", "us", false, "latency_p50_ms on http-small"),
    ("serve.service.wait_us", "us", false, "latency_p50_ms on serve-irregular and http-small"),
    ("serve.failover.retries", "count", false, "latency_p50_ms on http-small"),
    ("toolchain.cache.hit_us", "us", false, "latency_p50_ms on http-small"),
    ("toolchain.cache.hit_rate", "ratio", false, "latency_p50_ms on http-small"),
    ("toolchain.cache.fresh_us", "us", false, "setup_s on all three"),
    ("analyze.lint_us", "us", false, "setup_s on all three"),
    ("gpu-sim.device.new_ms", "ms", false, "setup_s on http-small; sweep_s"),
    ("gpu-sim.isa.assemble_us", "us", false, "setup_s"),
    ("gpu-sim.lower.lower_us", "us", false, "setup_s"),
    ("gpu-sim.lower.program_hit_rate", "ratio", false, "setup_s"),
    ("gpu-sim.isa.load_us", "us", false, "latency_p50_ms on http-small"),
    ("gpu-sim.launch.fixed_us", "us", false, "latency_p50_ms on http-small"),
    ("gpu-sim.exec.ns_per_elem", "ns", false, "sweep_s; latency_p50_ms on serve-irregular"),
    (
        "gpu-sim.memtrace.ns_per_elem",
        "ns",
        false,
        "sweep_s; serve-irregular latency; http-small p99",
    ),
    (
        "gpu-sim.memtrace.overhead",
        "ratio",
        false,
        "sweep_s; serve-irregular latency; http-small p99",
    ),
    ("gpu-sim.mem.h2d_us", "us", false, "latency_p50_ms on serve-irregular"),
    ("gpu-sim.mem.d2h_us", "us", false, "latency_p50_ms on serve-irregular"),
    ("babelstream.cell_p50_s", "s", false, "sweep_s"),
    ("babelstream.cell_max_s", "s", false, "sweep_s"),
    ("gpu-sim.exec.warp_instructions", "count", true, IDENTICAL),
    ("gpu-sim.memhier.requests", "count", true, IDENTICAL),
    ("gpu-sim.memhier.transactions", "count", true, IDENTICAL),
    ("gpu-sim.memhier.l1_hits", "count", true, IDENTICAL),
    ("gpu-sim.memhier.l1_misses", "count", true, IDENTICAL),
    ("gpu-sim.memhier.l2_hits", "count", true, IDENTICAL),
    ("gpu-sim.memhier.l2_misses", "count", true, IDENTICAL),
    ("gpu-sim.memhier.dram_bytes", "bytes", true, IDENTICAL),
    ("gpu-sim.memhier.sector_utilization", "ratio", true, IDENTICAL),
    ("gpu-sim.timing.modeled_us", "us", true, IDENTICAL),
    ("span.coverage", "ratio", false, SPANS),
    ("span.overhead_goodput_rps", "1/s", false, SPANS),
    ("span.overhead_p50_ms", "ms", false, SPANS),
    ("span.overhead_p99_ms", "ms", false, SPANS),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let workload = value("--workload").ok_or("missing --workload")?.to_owned();
    if !["http-small", "sweep-stream", "serve-irregular"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed").ok_or("missing --seed")?.parse().map_err(|_| "bad --seed")?;
    let setup_only = argv.iter().any(|a| a == "--setup-only");
    let (seconds, trace) = if setup_only {
        (0.0, false)
    } else {
        let seconds: f64 =
            value("--seconds").ok_or("missing --seconds")?.parse().map_err(|_| "bad --seconds")?;
        let trace = match value("--trace").ok_or("missing --trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        (seconds, trace)
    };
    Ok(Args { workload, seed, seconds, trace, setup_only })
}

/// A fresh directory for the run's temporary files, under the checkout.
pub fn run_dir(what: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let dir = PathBuf::from(".perfbench_out")
        .join("tmp")
        .join(format!("{what}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("run directory is writable");
    dir
}

/// The simulator configuration a device resolved. The trace replay mode
/// has no knob left to read here: with `MCMM_*` refused it is the
/// program's default.
pub fn sim_config(dev: &Device) -> String {
    format!(
        "exec_tier={:?} timing_tier={:?} memory_tracing={} replay_mode=default opt_level={:?}",
        dev.exec_tier(),
        dev.timing_tier(),
        dev.tracing(),
        dev.opt_level()
    )
}

/// One workload, behind one interface.
pub trait Workload {
    fn callers(&self) -> usize;
    fn limit_s(&self) -> f64;
    /// The untraced measurement: the closed loop plus the `sweep_s` passes.
    fn measure(&mut self, secs: f64) -> (Phase, Vec<f64>);
    fn closed_loop(&mut self, secs: f64, tracer: Option<&Tracer>) -> Phase;
    /// Compile-cache and lowered-program `(hits, misses)` so far.
    fn cache_counts(&self) -> ((u64, u64), (u64, u64));
    fn config(&self) -> String;
    /// The workload's kernels and size, for the layer probes.
    fn subject(&self, seed: u64) -> Subject;
    /// The trace run's values that come from the workload's own phase;
    /// the probes fill in the rest.
    fn traced_layers(&self, _m: &mut Metrics) {}
    /// Check every output against its reference and release what the
    /// workload holds.
    fn finish(&mut self) -> (Tally, Vec<String>);
}

pub type Metrics = BTreeMap<&'static str, f64>;

fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "http-small" => Box::new(HttpSmall::setup(seed)),
        "sweep-stream" => Box::new(SweepStream::setup(seed)),
        _ => Box::new(ServeIrregular::setup(seed)),
    }
}

/// Set up in a fresh child process and return its set-up time.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", &args.workload, "--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().strip_prefix("setup_s ")) {
        (true, Some(v)) => v.parse().map_err(|_| format!("bad child output {text:?}")),
        _ => Err(format!("set-up child failed ({}): {text}", out.status)),
    }
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MCMM_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {knobs:?} set; unset them so the program runs at its defaults");
        std::process::exit(2);
    }
    if args.setup_only {
        let mut w = setup(&args.workload, args.seed);
        let secs = start.elapsed().as_secs_f64();
        let (tally, failures) = w.finish();
        if tally.failed > 0 {
            eprintln!("perfbench: set-up failed: {failures:?}");
            std::process::exit(1);
        }
        println!("setup_s {secs}");
        return;
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} host_cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (metrics, tally, failures) =
        if args.trace { traced_run(&args) } else { untraced_run(&args, start) };

    let table: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, ..)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    for &(name, unit) in &table {
        let layer = PER_LAYER.iter().find(|m| m.0 == name);
        let label = if layer.is_some_and(|m| m.2) { "modeled" } else { "host" };
        let moves = layer.map_or(String::new(), |m| format!("  moves {}", m.3));
        println!("  {name:<36} {:>16.4} {unit:<6} [{label}]{moves}", metrics[name]);
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    let correct = tally.failed == 0 && failures.is_empty() && tally.attempted > 0;
    let body: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(metrics[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn untraced_run(args: &Args, start: Instant) -> (Metrics, Tally, Vec<String>) {
    let children_start = start.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut failures = Vec::new();
    for _ in 1..SETUPS {
        match child_setup(args) {
            Ok(s) => setups.push(s),
            Err(e) => failures.push(e),
        }
    }
    let t = Instant::now();
    let mut w = setup(&args.workload, args.seed);
    setups.push(children_start + t.elapsed().as_secs_f64());
    println!("config: {}", w.config());

    let (phase, sweeps) = w.measure(args.seconds);
    let rss = peak_rss_mb();
    let e2e = EndToEnd::of(&phase, w.limit_s());
    println!(
        "closed loop: {} callers, {} operations in {:.2} s; latency over {} samples; \
         goodput limit {} s; sweep_s over {} passes; set-ups {setups:?}",
        w.callers(),
        phase.ops.len(),
        phase.wall.as_secs_f64(),
        e2e.samples,
        w.limit_s(),
        sweeps.len()
    );
    let mut m = Metrics::new();
    m.insert("setup_s", median(&setups));
    m.insert("goodput_rps", e2e.goodput_rps);
    m.insert("latency_p50_ms", e2e.p50_ms);
    m.insert("latency_p99_ms", e2e.p99_ms);
    m.insert("sweep_s", median(&sweeps));
    m.insert("peak_rss_mb", rss);
    let (tally, mut more) = w.finish();
    failures.append(&mut more);
    (m, tally, failures)
}

fn traced_run(args: &Args) -> (Metrics, Tally, Vec<String>) {
    let seed = args.seed;
    let mut w = setup(&args.workload, seed);
    println!("config: {}", w.config());
    let counts0 = w.cache_counts();
    let untraced = w.closed_loop(args.seconds * TRACE_SHARE, None);
    let tracer = Tracer::new();
    let traced = w.closed_loop(args.seconds * TRACE_SHARE, Some(&tracer));
    let counts1 = w.cache_counts();
    let phase_spans = tracer.spans();

    let mut m = Metrics::new();
    let mut checks = Checks::default();
    m.insert(
        "span.coverage",
        spans::coverage(&phase_spans, w.callers(), traced.wall.as_nanos() as f64),
    );
    let (e0, e1) = (EndToEnd::of(&untraced, w.limit_s()), EndToEnd::of(&traced, w.limit_s()));
    m.insert("span.overhead_goodput_rps", e1.goodput_rps - e0.goodput_rps);
    m.insert("span.overhead_p50_ms", e1.p50_ms - e0.p50_ms);
    m.insert("span.overhead_p99_ms", e1.p99_ms - e0.p99_ms);
    println!(
        "span overhead: goodput {:.2} -> {:.2} 1/s, p50 {:.4} -> {:.4} ms, p99 {:.4} -> {:.4} ms \
         ({} untraced, {} traced samples)",
        e0.goodput_rps,
        e1.goodput_rps,
        e0.p50_ms,
        e1.p50_ms,
        e0.p99_ms,
        e1.p99_ms,
        e0.samples,
        e1.samples
    );
    let rate = |(hits, misses): (u64, u64), (h0, m0): (u64, u64)| {
        (hits - h0) as f64 / ((hits - h0) + (misses - m0)).max(1) as f64
    };
    m.insert("toolchain.cache.hit_rate", rate(counts1.0, counts0.0));
    m.insert("gpu-sim.lower.program_hit_rate", rate(counts1.1, counts0.1));
    w.traced_layers(&mut m);

    let names: Vec<&str> = phase_spans.iter().map(|s| s.name).collect();
    let ran = |prefix: &str| names.iter().any(|n| n.starts_with(prefix));
    if !ran("gateway.") {
        // The gateway's layers on a workload that serves no HTTP: a fresh,
        // warmed gateway under a short span-traced http-small loop.
        let mut probe = HttpSmall::setup(seed);
        let phase = probe.closed_loop(GATEWAY_PROBE_S, Some(&tracer));
        println!("gateway probe: {} requests in {GATEWAY_PROBE_S} s", phase.ops.len());
        probe.traced_layers(&mut m);
        let (t, f) = probe.finish();
        checks.tally.add(t);
        checks.failures.extend(f);
    }
    let retries = probe::serve(seed, (!ran("serve.")).then_some(&tracer), &mut checks);
    m.insert("serve.failover.retries", retries as f64);
    if !ran("babelstream.") {
        let mut rec = Recorder::new(Some(&tracer));
        let entries = sweep_stream::cells(&mut rec, CELL_PROBE_N, 1);
        let ok = entries.iter().all(|e| match &e.outcome {
            Ok(r) => r.verified,
            Err(err) => matches!(err, mcmm_babelstream::StreamError::Unsupported { .. }),
        });
        checks.record(ok, || "BabelStream cell probe failed".into());
    }
    let subject = w.subject(seed);
    probe::layers(&subject, &tracer, &mut checks);
    let modeled = probe::modeled(&subject, &mut checks);

    let all = tracer.spans();
    let stats = spans::layer_stats(&all);
    let per_elem =
        |span: &str| stats.get(span).map_or(0.0, |s| s.mean_us() * 1e3 / subject.n as f64);
    let (exec, traced_exec) =
        (per_elem("gpu-sim.exec.launch"), per_elem("gpu-sim.memtrace.launch"));
    m.insert("gpu-sim.exec.ns_per_elem", exec);
    m.insert("gpu-sim.memtrace.ns_per_elem", traced_exec);
    m.insert("gpu-sim.memtrace.overhead", traced_exec / exec.max(f64::MIN_POSITIVE));
    let cells: Vec<f64> =
        all.iter().filter(|s| s.name == "babelstream.cell").map(|s| s.dur() as f64 / 1e9).collect();
    let cells = common::sorted(&cells);
    m.insert("babelstream.cell_p50_s", common::quantile(&cells, 0.5));
    m.insert("babelstream.cell_max_s", cells.last().copied().unwrap_or(f64::NAN));
    let mem = modeled.mem;
    m.insert("gpu-sim.exec.warp_instructions", modeled.warp_instructions as f64);
    m.insert("gpu-sim.memhier.requests", mem.requests as f64);
    m.insert("gpu-sim.memhier.transactions", mem.transactions as f64);
    m.insert("gpu-sim.memhier.l1_hits", mem.l1_hits as f64);
    m.insert("gpu-sim.memhier.l1_misses", mem.l1_misses as f64);
    m.insert("gpu-sim.memhier.l2_hits", mem.l2_hits as f64);
    m.insert("gpu-sim.memhier.l2_misses", mem.l2_misses as f64);
    m.insert("gpu-sim.memhier.dram_bytes", mem.dram_bytes as f64);
    m.insert("gpu-sim.memhier.sector_utilization", mem.sector_utilization());
    m.insert("gpu-sim.timing.modeled_us", modeled.modeled_us);
    for &(metric, unit, ..) in &PER_LAYER {
        let scale = match unit {
            "us" => 1.0,
            "ms" => 1e3,
            _ => continue,
        };
        if m.contains_key(metric) {
            continue;
        }
        let span = &metric[..metric.len() - 3];
        match stats.get(span) {
            Some(s) => m.insert(metric, s.mean_self_us() / scale),
            None => {
                checks.failures.push(format!("no {span} span was recorded"));
                m.insert(metric, f64::NAN)
            }
        };
    }
    println!(
        "layer sources: gateway {}, serving {}, BabelStream {}; compile, load, launch and copy \
         from probes on the workload's kernels at n = {}",
        if ran("gateway.") { "closed loop" } else { "probe" },
        if ran("serve.") { "closed loop" } else { "probe" },
        if ran("babelstream.") { "closed loop" } else { "probe" },
        subject.n
    );
    println!(
        "not timed from outside the program: L1 and L2 replay apart (both run inside \
         Device::launch_kernel, so gpu-sim.memtrace.* times them together), and the SSA \
         middle-end (bypassed at opt_level=O0)"
    );
    println!("per-layer self time (mean per call), every span name:");
    for (name, s) in &stats {
        println!(
            "  {name:<32} calls {:>8}  self {:>12.3} us  total {:>12.3} us",
            s.calls,
            s.mean_self_us(),
            s.mean_us()
        );
    }
    // One file per workload, replaced by each run, so repeated runs do not
    // fill the disk.
    let path = PathBuf::from(".perfbench_out").join(format!("spans-{}.jsonl", args.workload));
    match spans::write_jsonl(&path, &all) {
        Ok(()) => println!("spans: {} written to {}", all.len(), path.display()),
        Err(e) => checks.failures.push(format!("writing {}: {e}", path.display())),
    }
    let (mut tally, mut failures) = w.finish();
    tally.add(checks.tally);
    failures.append(&mut checks.failures);
    (m, tally, failures)
}
