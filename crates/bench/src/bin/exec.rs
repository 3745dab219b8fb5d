//! X5 — block engines: time the four deterministic STREAM-style shapes
//! (Copy, Mul, Add, Triad) through the scalar reference interpreter
//! (`mcmm-gpu-sim-ref`) and the device's lowered lane-vector engine on one
//! simulated A100, verify both engines produce byte-identical buffers, and
//! report per-engine ns/element with the vectorized speedups and the
//! lowered-program cache hit rate.
//!
//! Dot is excluded on purpose: its cross-block f64 atomics retire in
//! scheduler order, so its *bits* are run-to-run nondeterministic on
//! either engine — the engine-equivalence contract for it lives in the
//! block-level differential suite instead.
//!
//! Usage: `cargo run --release -p mcmm-bench --bin exec [--] [--smoke]
//! [--n N] [--iters K] [--json]`. A full run (no `--smoke`) rewrites
//! `BENCH_exec.json`, the artifact the README performance table is
//! generated from. Exits non-zero if the vectorized engine is slower than
//! scalar in aggregate, if a full run's aggregate speedup is not
//! strictly above 11.9x, if any checksum differs between engines, or if
//! the program cache failed to serve repeat launches — so this binary
//! doubles as the CI performance gate.

use mcmm_babelstream::adapters::stream_kernels;
use mcmm_babelstream::{SCALAR, START_A, START_B, START_C};
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_gpu_sim::ir::KernelIr;
use mcmm_gpu_sim::DeviceSpec;
use mcmm_gpu_sim_ref::{launch_kernel, Engine};
use std::sync::Arc;
use std::time::Instant;

const BLOCK_DIM: u32 = 256;

struct ShapeTiming {
    name: &'static str,
    scalar_ns_per_elem: f64,
    vectorized_ns_per_elem: f64,
    checksums_match: bool,
}

impl ShapeTiming {
    fn speedup(&self) -> f64 {
        self.scalar_ns_per_elem / self.vectorized_ns_per_elem.max(f64::MIN_POSITIVE)
    }
}

/// Run `iters` timed launches of one kernel on one engine (fresh device,
/// fresh buffers, one warmup launch), returning (ns/element, checksum of
/// the three arrays afterwards, program-cache hits).
fn run_shape(kernel: &KernelIr, engine: Engine, n: usize, iters: usize) -> (f64, u64, u64) {
    let dev: Arc<Device> = Device::new(DeviceSpec::nvidia_a100());
    let da = dev.alloc_copy_f64(&vec![START_A; n]).unwrap();
    let db = dev.alloc_copy_f64(&vec![START_B; n]).unwrap();
    let dc = dev.alloc_copy_f64(&vec![START_C; n]).unwrap();
    let dsum = dev.alloc_copy_f64(&[0.0]).unwrap();
    let args = [
        KernelArg::Ptr(da),
        KernelArg::Ptr(db),
        KernelArg::Ptr(dc),
        KernelArg::Ptr(dsum),
        KernelArg::I32(n as i32),
    ];
    let cfg = LaunchConfig::linear(n as u64, BLOCK_DIM);
    let launch = || launch_kernel(&dev, engine, kernel, cfg, &args).unwrap();
    launch(); // warmup + lowering

    // Best-of-iters, the BabelStream convention: each launch is timed
    // separately and the minimum is reported, so a scheduler hiccup in
    // one iteration doesn't smear the whole measurement.
    let mut best_ns = f64::INFINITY;
    for _ in 0..iters {
        let wall = Instant::now();
        launch();
        best_ns = best_ns.min(wall.elapsed().as_nanos() as f64);
    }
    let ns_per_elem = best_ns / n as f64;
    let bytes: Vec<u8> =
        [da, db, dc].into_iter().flat_map(|p| dev.memcpy_d2h(p, n as u64 * 8).unwrap().0).collect();
    (ns_per_elem, fnv1a(&bytes), dev.program_cache_stats().hits)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let smoke = flag("--smoke");
    let json = flag("--json");
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let n: usize = value("--n")
        .map(|v| v.parse().expect("--n takes a number"))
        .unwrap_or(if smoke { 1 << 14 } else { 1 << 20 });
    let iters: usize = value("--iters")
        .map(|v| v.parse().expect("--iters takes a number"))
        .unwrap_or(if smoke { 2 } else { 5 });

    eprintln!(
        "timing scalar vs vectorized block engines: n = {n}, iters = {iters}, \
         block_dim = {BLOCK_DIM} (host wall-clock)…"
    );

    let kernels = stream_kernels();
    let shapes = [("Copy", 0usize), ("Mul", 1), ("Add", 2), ("Triad", 3)];
    let mut timings = Vec::new();
    let mut program_hits = 0u64;
    for (name, idx) in shapes {
        let (s_ns, s_sum, _) = run_shape(&kernels[idx], Engine::Reference, n, iters);
        let (v_ns, v_sum, hits) = run_shape(&kernels[idx], Engine::Vectorized, n, iters);
        program_hits += hits;
        timings.push(ShapeTiming {
            name,
            scalar_ns_per_elem: s_ns,
            vectorized_ns_per_elem: v_ns,
            checksums_match: s_sum == v_sum,
        });
    }

    // Every vectorized launch after the per-shape warmup must have been
    // served from the program cache: iters hits per shape.
    let expected_hits = (iters * shapes.len()) as u64;
    let hit_rate = program_hits as f64 / (program_hits + shapes.len() as u64) as f64;

    let scalar_total: f64 = timings.iter().map(|t| t.scalar_ns_per_elem).sum();
    let vectorized_total: f64 = timings.iter().map(|t| t.vectorized_ns_per_elem).sum();
    let aggregate_speedup = scalar_total / vectorized_total.max(f64::MIN_POSITIVE);

    let shape_json: Vec<String> = timings
        .iter()
        .map(|t| {
            format!(
                "    {{ \"shape\": \"{}\", \"scalar_ns_per_elem\": {:.3}, \
                 \"vectorized_ns_per_elem\": {:.3}, \"speedup\": {:.2}, \
                 \"checksums_match\": {} }}",
                t.name,
                t.scalar_ns_per_elem,
                t.vectorized_ns_per_elem,
                t.speedup(),
                t.checksums_match
            )
        })
        .collect();
    let report = format!(
        "{{\n  \"n\": {n},\n  \"iters\": {iters},\n  \"block_dim\": {BLOCK_DIM},\n  \
         \"host_cores\": {host_cores},\n  \"stream_scalar\": {SCALAR},\n  \"shapes\": [\n{}\n  ],\n  \
         \"aggregate_speedup\": {aggregate_speedup:.2},\n  \
         \"program_cache_hits\": {program_hits},\n  \
         \"program_cache_hit_rate\": {hit_rate:.3}\n}}",
        shape_json.join(",\n"),
    );

    if json {
        println!("{report}");
    } else {
        println!("── Block engines (X5): scalar reference vs lane-vector, host wall-clock ──");
        println!(
            "{:<7} {:>15} {:>18} {:>8}  bit-identical",
            "shape", "scalar ns/elem", "vectorized ns/elem", "speedup"
        );
        for t in &timings {
            println!(
                "{:<7} {:>15.2} {:>18.2} {:>7.1}x  {}",
                t.name,
                t.scalar_ns_per_elem,
                t.vectorized_ns_per_elem,
                t.speedup(),
                if t.checksums_match { "yes" } else { "NO" }
            );
        }
        println!(
            "aggregate speedup {aggregate_speedup:.1}x; program cache {program_hits} hits \
             ({:.0}% hit rate); {host_cores} host cores",
            hit_rate * 100.0
        );
    }

    if !smoke {
        std::fs::write("BENCH_exec.json", format!("{report}\n")).expect("write BENCH_exec.json");
        eprintln!("wrote BENCH_exec.json");
    }

    // Invariants — the CI gate.
    let mut failed = false;
    for t in &timings {
        if !t.checksums_match {
            eprintln!("FAIL: {} buffers differ between engines", t.name);
            failed = true;
        }
    }
    if vectorized_total > scalar_total {
        eprintln!(
            "FAIL: vectorized engine slower than scalar in aggregate \
             ({vectorized_total:.2} vs {scalar_total:.2} ns/elem)"
        );
        failed = true;
    }
    if !smoke && aggregate_speedup <= 11.9 {
        eprintln!("FAIL: aggregate speedup {aggregate_speedup:.2}x did not beat the 11.9x bar");
        failed = true;
    }
    if program_hits != expected_hits {
        eprintln!("FAIL: expected {expected_hits} program-cache hits, saw {program_hits}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("block engine invariants hold (vectorized {aggregate_speedup:.1}x)");
}
