//! X5 — execution tiers: time the four deterministic STREAM-style shapes
//! (Copy, Mul, Add, Triad) through the scalar reference interpreter and
//! the lowered lane-vector tier — at O0 (kernels lowered as written) and
//! O2 (through the SSA middle-end) — on one simulated A100, verify every
//! tier/level produces byte-identical buffers, and report per-tier
//! ns/element with the vectorized speedups and the lowered-program cache
//! hit rate.
//!
//! Dot is excluded on purpose: its cross-block f64 atomics retire in
//! scheduler order, so its *bits* are run-to-run nondeterministic either
//! tier — the tier-equivalence contract for it lives in the block-level
//! differential suite instead.
//!
//! Usage: `cargo run --release -p mcmm-bench --bin exec [--] [--smoke]
//! [--n N] [--iters K] [--json]`. A full run (no `--smoke`) rewrites
//! `BENCH_exec.json`, the artifact the README performance table is
//! generated from. Exits non-zero if the vectorized tier is slower than
//! scalar in aggregate, if any checksum differs between tiers or
//! optimization levels, if O2 failed to keep (smoke: roughly, within
//! wall-clock noise) or beat (full: strictly above 11.9x aggregate) the
//! O0 speedup, or if the program cache failed to serve repeat launches —
//! so this binary doubles as the CI performance gate.

use mcmm_babelstream::adapters::stream_kernels;
use mcmm_babelstream::{SCALAR, START_A, START_B, START_C};
use mcmm_gpu_sim::device::{Device, ExecTier, KernelArg, LaunchConfig};
use mcmm_gpu_sim::ir::KernelIr;
use mcmm_gpu_sim::{DeviceSpec, OptLevel, OptStats, SimConfig};
use std::sync::Arc;
use std::time::Instant;

const BLOCK_DIM: u32 = 256;

struct ShapeTiming {
    name: &'static str,
    scalar_ns_per_elem: f64,
    vectorized_ns_per_elem: f64,
    vectorized_o2_ns_per_elem: f64,
    checksums_match: bool,
}

impl ShapeTiming {
    fn speedup(&self) -> f64 {
        self.scalar_ns_per_elem / self.vectorized_ns_per_elem.max(f64::MIN_POSITIVE)
    }

    fn speedup_o2(&self) -> f64 {
        self.scalar_ns_per_elem / self.vectorized_o2_ns_per_elem.max(f64::MIN_POSITIVE)
    }
}

/// FNV-1a over a byte stream — stable, dependency-free checksum.
fn fnv1a(chunks: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Run `iters` timed launches of one kernel on one tier at one
/// optimization level (fresh device, fresh buffers, one warmup launch),
/// returning (ns/element, checksum of the three arrays afterwards,
/// program-cache hits, middle-end stats).
fn run_shape(
    kernel: &KernelIr,
    tier: ExecTier,
    opt: OptLevel,
    n: usize,
    iters: usize,
) -> (f64, u64, u64, OptStats) {
    let config = SimConfig { exec: tier, opt, ..SimConfig::resolve() };
    let dev: Arc<Device> = Device::with_config(DeviceSpec::nvidia_a100(), config);
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
    dev.launch_kernel(kernel, cfg, &args).unwrap(); // warmup + lowering

    // Best-of-iters, the BabelStream convention: each launch is timed
    // separately and the minimum is reported, so a scheduler hiccup in
    // one iteration doesn't smear the whole measurement.
    let mut best_ns = f64::INFINITY;
    for _ in 0..iters {
        let wall = Instant::now();
        dev.launch_kernel(kernel, cfg, &args).unwrap();
        best_ns = best_ns.min(wall.elapsed().as_nanos() as f64);
    }
    let ns_per_elem = best_ns / n as f64;
    let bytes: Vec<Vec<u8>> =
        [da, db, dc].into_iter().map(|p| dev.memcpy_d2h(p, n as u64 * 8).unwrap().0).collect();
    (ns_per_elem, fnv1a(&bytes), dev.program_cache_stats().hits, dev.opt_stats())
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
        "timing scalar vs vectorized (O0, O2) execution tiers: n = {n}, iters = {iters}, \
         block_dim = {BLOCK_DIM} (host wall-clock)…"
    );

    let kernels = stream_kernels();
    let shapes = [("Copy", 0usize), ("Mul", 1), ("Add", 2), ("Triad", 3)];
    let mut timings = Vec::new();
    let mut program_hits = 0u64;
    let mut opt = OptStats::default();
    for (name, idx) in shapes {
        let (s_ns, s_sum, _, _) =
            run_shape(&kernels[idx], ExecTier::Scalar, OptLevel::O0, n, iters);
        let (v_ns, v_sum, hits, _) =
            run_shape(&kernels[idx], ExecTier::Vectorized, OptLevel::O0, n, iters);
        let (o2_ns, o2_sum, o2_hits, o2_opt) =
            run_shape(&kernels[idx], ExecTier::Vectorized, OptLevel::O2, n, iters);
        program_hits += hits + o2_hits;
        opt = opt.merged(o2_opt);
        timings.push(ShapeTiming {
            name,
            scalar_ns_per_elem: s_ns,
            vectorized_ns_per_elem: v_ns,
            vectorized_o2_ns_per_elem: o2_ns,
            checksums_match: s_sum == v_sum && s_sum == o2_sum,
        });
    }

    // Every vectorized launch after the per-shape warmup must have been
    // served from the program cache: iters hits per (shape, level).
    let expected_hits = (2 * iters * shapes.len()) as u64;
    let hit_rate = program_hits as f64 / (program_hits + 2 * shapes.len() as u64) as f64;

    let scalar_total: f64 = timings.iter().map(|t| t.scalar_ns_per_elem).sum();
    let vectorized_total: f64 = timings.iter().map(|t| t.vectorized_ns_per_elem).sum();
    let vectorized_o2_total: f64 = timings.iter().map(|t| t.vectorized_o2_ns_per_elem).sum();
    let aggregate_speedup = scalar_total / vectorized_total.max(f64::MIN_POSITIVE);
    let aggregate_speedup_o2 = scalar_total / vectorized_o2_total.max(f64::MIN_POSITIVE);

    let shape_json: Vec<String> = timings
        .iter()
        .map(|t| {
            format!(
                "    {{ \"shape\": \"{}\", \"scalar_ns_per_elem\": {:.3}, \
                 \"vectorized_ns_per_elem\": {:.3}, \"vectorized_o2_ns_per_elem\": {:.3}, \
                 \"speedup\": {:.2}, \"speedup_o2\": {:.2}, \"checksums_match\": {} }}",
                t.name,
                t.scalar_ns_per_elem,
                t.vectorized_ns_per_elem,
                t.vectorized_o2_ns_per_elem,
                t.speedup(),
                t.speedup_o2(),
                t.checksums_match
            )
        })
        .collect();
    let report = format!(
        "{{\n  \"n\": {n},\n  \"iters\": {iters},\n  \"block_dim\": {BLOCK_DIM},\n  \
         \"host_cores\": {host_cores},\n  \"stream_scalar\": {SCALAR},\n  \"shapes\": [\n{}\n  ],\n  \
         \"aggregate_speedup\": {aggregate_speedup:.2},\n  \
         \"aggregate_speedup_o2\": {aggregate_speedup_o2:.2},\n  \
         \"o2_instrs_before\": {},\n  \"o2_instrs_after\": {},\n  \
         \"program_cache_hits\": {program_hits},\n  \
         \"program_cache_hit_rate\": {hit_rate:.3}\n}}",
        shape_json.join(",\n"),
        opt.instrs_before,
        opt.instrs_after,
    );

    if json {
        println!("{report}");
    } else {
        println!("── Execution tiers (X5): scalar vs lane-vector, host wall-clock ──");
        println!(
            "{:<7} {:>15} {:>12} {:>12} {:>8} {:>8}  bit-identical",
            "shape", "scalar ns/elem", "O0 ns/elem", "O2 ns/elem", "O0", "O2"
        );
        for t in &timings {
            println!(
                "{:<7} {:>15.2} {:>12.2} {:>12.2} {:>7.1}x {:>7.1}x  {}",
                t.name,
                t.scalar_ns_per_elem,
                t.vectorized_ns_per_elem,
                t.vectorized_o2_ns_per_elem,
                t.speedup(),
                t.speedup_o2(),
                if t.checksums_match { "yes" } else { "NO" }
            );
        }
        println!(
            "aggregate speedup {aggregate_speedup:.1}x at O0, {aggregate_speedup_o2:.1}x at O2 \
             ({} -> {} instrs); program cache {program_hits} hits ({:.0}% hit rate); \
             {host_cores} host cores",
            opt.instrs_before,
            opt.instrs_after,
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
            eprintln!("FAIL: {} buffers differ between tiers/levels", t.name);
            failed = true;
        }
    }
    if vectorized_total > scalar_total {
        eprintln!(
            "FAIL: vectorized tier slower than scalar in aggregate \
             ({vectorized_total:.2} vs {scalar_total:.2} ns/elem)"
        );
        failed = true;
    }
    // Speedup monotonicity: the middle-end must not make the vectorized
    // tier slower. Smoke runs measure a few milliseconds per cell, so
    // they get a noise allowance; a full run holds the strict bound.
    let noise = if smoke { 1.15 } else { 1.0 };
    if vectorized_o2_total > vectorized_total * noise {
        eprintln!(
            "FAIL: O2 slower than O0 in aggregate \
             ({vectorized_o2_total:.2} vs {vectorized_total:.2} ns/elem)"
        );
        failed = true;
    }
    if !smoke && aggregate_speedup_o2 <= 11.9 {
        eprintln!(
            "FAIL: O2 aggregate speedup {aggregate_speedup_o2:.2}x did not beat the 11.9x bar"
        );
        failed = true;
    }
    if opt.kernels == 0 || opt.removed() == 0 {
        eprintln!("FAIL: O2 runs did not go through the middle-end ({opt:?})");
        failed = true;
    }
    if program_hits != expected_hits {
        eprintln!("FAIL: expected {expected_hits} program-cache hits, saw {program_hits}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "exec tier invariants hold (vectorized {aggregate_speedup:.1}x at O0, \
         {aggregate_speedup_o2:.1}x at O2)"
    );
}
