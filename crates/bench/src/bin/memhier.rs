//! X7 — the memory hierarchy: run the four deterministic STREAM shapes
//! plus a 128-byte-strided gather and a shared-memory tiled reverse on
//! all three simulated devices, replay each launch's access trace through
//! the per-vendor coalescer → L1 → L2 → DRAM models, and check that
//!
//! * tracing and the trace-driven timing tier never change computed
//!   buffers (checksums identical across all run modes);
//! * the cache replay is deterministic (identical `MemStats` when the
//!   same launch is traced twice);
//! * the device's block engine and the `mcmm-gpu-sim-ref` reference
//!   interpreter replay to identical `MemStats` on every vendor × shape;
//! * the fully-coalesced Copy achieves ≥95% sector utilization on every
//!   vendor while the strided gather stays far below it;
//! * the warp-width-sensitive gather produces genuinely different L1 hit
//!   rates on NVIDIA (w32), AMD (w64), and Intel (w16);
//! * the trace-driven tier agrees with the analytic tier on streaming
//!   shapes (same roofline, refined by actual sector traffic);
//! * tracing is cheap enough to leave on: measured wall-clock overhead
//!   of streaming-traced launches over untraced launches stays within
//!   the production budget (geomean ≤ 1.5× on full runs, ≤ 3× on smoke
//!   where tiny launches amplify fixed costs, given ≥ 4 cores).
//!
//! Usage: `cargo run --release -p mcmm-bench --bin memhier [--] [--smoke]
//! [--n N] [--json]`. A full run (no `--smoke`) rewrites
//! `BENCH_memhier.json`; exits non-zero if any invariant fails, so this
//! binary doubles as the CI memory-hierarchy gate.

use mcmm_babelstream::adapters::stream_kernels;
use mcmm_babelstream::{START_A, START_B, START_C};
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig, TimingTier};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value};
use mcmm_gpu_sim::{DeviceSpec, MemStats, SimConfig};
use mcmm_gpu_sim_ref::{launch_kernel, Engine};
use std::sync::Arc;
use std::time::Instant;

const BLOCK_DIM: u32 = 256;

/// `c[i] = a[(i % 32) * 16] + b[i]` — every warp gathers from 32 lines
/// spaced 128 bytes apart, so how many distinct sectors a warp touches
/// (and how much reuse the L1 sees) is a function of the warp width.
fn gather128_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("gather128");
    let a = k.param(Type::I64);
    let b = k.param(Type::I64);
    let c = k.param(Type::I64);
    let _sum = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let in_range = k.cmp(CmpOp::Lt, i, n);
    k.if_(in_range, |k| {
        let rem = k.bin(BinOp::Rem, i, Value::I32(32));
        let idx = k.bin(BinOp::Mul, rem, Value::I32(16));
        let av = k.ld_elem(Space::Global, Type::F64, a, idx);
        let bv = k.ld_elem(Space::Global, Type::F64, b, i);
        let s = k.bin(BinOp::Add, av, bv);
        k.st_elem(Space::Global, c, i, s);
    });
    k.finish()
}

/// `c[block_base + (255 - tid)] = a[i]` staged through a shared tile with
/// a barrier — global traffic stays unit-stride while the permutation
/// happens in (untraced) shared memory. No bounds guard: the harness only
/// launches it with `n` a multiple of the block size.
fn shared_tiled_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("shared_tiled");
    let a = k.param(Type::I64);
    let _b = k.param(Type::I64);
    let c = k.param(Type::I64);
    let _sum = k.param(Type::I64);
    let _n = k.param(Type::I32);
    let tile = k.shared_alloc(u64::from(BLOCK_DIM) * 8);
    let tid = k.thread_id_x();
    let i = k.global_thread_id_x();
    let av = k.ld_elem(Space::Global, Type::F64, a, i);
    k.st_elem(Space::Shared, tile, tid, av);
    k.barrier();
    let rt = k.bin(BinOp::Sub, Value::I32(BLOCK_DIM as i32 - 1), tid);
    let v = k.ld_elem(Space::Shared, Type::F64, tile, rt);
    k.st_elem(Space::Global, c, i, v);
    k.finish()
}

/// One launch of `kernel` on a fresh device under `config`, its blocks run
/// by `engine`: (mem stats if traced, modeled µs, checksum of the arrays
/// afterwards).
fn run_case(
    spec: DeviceSpec,
    kernel: &KernelIr,
    n: usize,
    config: SimConfig,
    engine: Engine,
) -> (Option<MemStats>, f64, u64) {
    let dev: Arc<Device> = Device::with_config(spec, config);
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
    let report = launch_kernel(&dev, engine, kernel, cfg, &args).unwrap();
    let bytes: Vec<u8> =
        [da, db, dc].into_iter().flat_map(|p| dev.memcpy_d2h(p, n as u64 * 8).unwrap().0).collect();
    (report.mem, report.time.micros(), fnv1a(&bytes))
}

/// Wall-clock nanoseconds per element for repeated launches of `kernel`
/// on one persistent device under `config` (scratch pools warm, program
/// cache hot): `warmup` discarded launches, then the best of `iters`.
fn wall_ns_per_elem(
    spec: DeviceSpec,
    kernel: &KernelIr,
    n: usize,
    config: SimConfig,
    warmup: usize,
    iters: usize,
) -> f64 {
    let dev: Arc<Device> = Device::with_config(spec, config);
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
    for _ in 0..warmup {
        dev.launch_kernel(kernel, cfg, &args).unwrap();
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        let report = dev.launch_kernel(kernel, cfg, &args).unwrap();
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(report.mem.is_some(), config.tracing, "tracing setting ignored");
        best = best.min(ns);
    }
    best / n as f64
}

fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut count) = (0.0f64, 0u32);
    for x in xs {
        log_sum += x.ln();
        count += 1;
    }
    (log_sum / f64::from(count.max(1))).exp()
}

struct Row {
    vendor: &'static str,
    shape: &'static str,
    mem: MemStats,
    analytic_us: f64,
    traced_us: f64,
}

struct OverheadRow {
    vendor: &'static str,
    shape: &'static str,
    untraced_ns_elem: f64,
    streaming_ns_elem: f64,
}

impl OverheadRow {
    /// Streaming-traced wall clock over untraced — the cost of leaving
    /// tracing on in production.
    fn streaming_overhead(&self) -> f64 {
        self.streaming_ns_elem / self.untraced_ns_elem.max(f64::MIN_POSITIVE)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let smoke = flag("--smoke");
    let json = flag("--json");
    let n: usize = value("--n")
        .map(|v| v.parse().expect("--n takes a number"))
        .unwrap_or(if smoke { 1 << 13 } else { 1 << 17 });
    assert!(
        n.is_multiple_of(BLOCK_DIM as usize) && n >= 512,
        "--n must be a multiple of {BLOCK_DIM} and at least 512"
    );
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);

    type SpecFn = fn() -> DeviceSpec;
    let vendors: [(&'static str, SpecFn); 3] = [
        ("NVIDIA", DeviceSpec::nvidia_a100),
        ("AMD", DeviceSpec::amd_mi250x),
        ("Intel", DeviceSpec::intel_pvc),
    ];
    let stream = stream_kernels();
    let gather = gather128_kernel();
    let tiled = shared_tiled_kernel();
    let shapes: [(&'static str, &KernelIr); 6] = [
        ("Copy", &stream[0]),
        ("Mul", &stream[1]),
        ("Add", &stream[2]),
        ("Triad", &stream[3]),
        ("Gather128", &gather),
        ("SharedTiled", &tiled),
    ];

    eprintln!("replaying memory-hierarchy traces: n = {n}, {} shapes x 3 vendors…", shapes.len());

    let mut rows: Vec<Row> = Vec::new();
    let mut failed = false;
    for (vendor, spec) in vendors {
        for (shape, kernel) in &shapes {
            let run = |tracing, timing| {
                run_case(spec(), kernel, n, SimConfig { timing, tracing }, Engine::Vectorized)
            };
            let (no_mem, analytic_us, base_sum) = run(false, TimingTier::Analytic);
            let (traced_mem, _, traced_sum) = run(true, TimingTier::Analytic);
            let (driven_mem, traced_us, driven_sum) = run(false, TimingTier::TraceDriven);

            if no_mem.is_some() {
                eprintln!("FAIL: {vendor}/{shape}: untraced launch produced mem stats");
                failed = true;
            }
            if base_sum != traced_sum || base_sum != driven_sum {
                eprintln!("FAIL: {vendor}/{shape}: buffers changed under tracing/timing tiers");
                failed = true;
            }
            let (mem, driven) = match (traced_mem, driven_mem) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    eprintln!("FAIL: {vendor}/{shape}: traced launch produced no mem stats");
                    failed = true;
                    continue;
                }
            };
            if mem != driven {
                eprintln!("FAIL: {vendor}/{shape}: cache replay is not deterministic");
                failed = true;
            }
            rows.push(Row { vendor, shape, mem, analytic_us, traced_us });
        }
    }

    // Both block engines feed the same pipeline: at a reduced size the
    // reference interpreter's trace must replay to the stats the vectorized
    // engine produced.
    let engine_n = n.min(1 << 12);
    for (vendor, spec) in vendors {
        for (shape, kernel) in &shapes {
            let run = |engine| {
                let config = SimConfig { timing: TimingTier::Analytic, tracing: true };
                run_case(spec(), kernel, engine_n, config, engine)
                    .0
                    .expect("traced launch must produce mem stats")
            };
            if run(Engine::Reference) != run(Engine::Vectorized) {
                eprintln!("FAIL: {vendor}/{shape}: reference engine diverges at n = {engine_n}");
                failed = true;
            }
        }
    }

    // Copy is fully coalesced everywhere; the gather must not be.
    for r in rows.iter().filter(|r| r.shape == "Copy") {
        if r.mem.sector_utilization() < 0.95 {
            eprintln!(
                "FAIL: {} Copy sector utilization {:.2} < 0.95",
                r.vendor,
                r.mem.sector_utilization()
            );
            failed = true;
        }
    }
    for r in rows.iter().filter(|r| r.shape == "Gather128") {
        if r.mem.sector_utilization() > 0.60 {
            eprintln!(
                "FAIL: {} Gather128 sector utilization {:.2} — expected an uncoalesced pattern",
                r.vendor,
                r.mem.sector_utilization()
            );
            failed = true;
        }
    }

    // The gather's L1 hit rate must genuinely depend on the warp width.
    let gather_hits: Vec<(&str, f64)> = rows
        .iter()
        .filter(|r| r.shape == "Gather128")
        .map(|r| (r.vendor, r.mem.l1_hit_rate()))
        .collect();
    for i in 0..gather_hits.len() {
        for j in i + 1..gather_hits.len() {
            let (va, ha) = gather_hits[i];
            let (vb, hb) = gather_hits[j];
            if (ha - hb).abs() < 0.01 {
                eprintln!(
                    "FAIL: Gather128 L1 hit rate does not separate {va} ({ha:.3}) \
                     from {vb} ({hb:.3})"
                );
                failed = true;
            }
        }
    }

    // Streaming shapes: the trace-driven tier refines, not contradicts,
    // the analytic roofline.
    for r in rows.iter().filter(|r| matches!(r.shape, "Copy" | "Mul" | "Add" | "Triad")) {
        let ratio = r.traced_us / r.analytic_us.max(f64::MIN_POSITIVE);
        if !(0.5..=2.0).contains(&ratio) {
            eprintln!(
                "FAIL: {}/{}: trace-driven time {:.2} us vs analytic {:.2} us (ratio {ratio:.2})",
                r.vendor, r.shape, r.traced_us, r.analytic_us
            );
            failed = true;
        }
    }

    // Wall-clock tracing overhead on the STREAM shapes: untraced vs
    // traced, one warm device each, the timing tier taken from the
    // environment.
    eprintln!("measuring wall-clock tracing overhead on the STREAM shapes…");
    let base = SimConfig::resolve();
    let (warmup, iters) = if smoke { (1, 3) } else { (2, 5) };
    let mut overhead: Vec<OverheadRow> = Vec::new();
    for (vendor, spec) in vendors {
        for (shape, kernel) in shapes.iter().take(4) {
            let measure = |tracing| {
                wall_ns_per_elem(spec(), kernel, n, SimConfig { tracing, ..base }, warmup, iters)
            };
            overhead.push(OverheadRow {
                vendor,
                shape,
                untraced_ns_elem: measure(false),
                streaming_ns_elem: measure(true),
            });
        }
    }
    let overhead_geomean = geomean(overhead.iter().map(OverheadRow::streaming_overhead));
    // Tiny smoke launches amplify fixed per-launch costs, so the smoke
    // budget is looser; the production claim is the full-size one. Both
    // claims assume cores to hide the replay behind: with fewer than 4
    // the whole pipeline shares the execution core and the budget is
    // only a regression backstop against the serial replay cost: 3× on
    // full runs with 2–3 cores, 12× on smoke runs or a single core.
    let overhead_budget = match (smoke, host_cores) {
        (false, 4..) => 1.5,
        (true, 4..) => 3.0,
        (false, 2..=3) => 3.0,
        _ => 12.0,
    };
    if overhead_geomean > overhead_budget {
        eprintln!(
            "FAIL: streaming tracing overhead {overhead_geomean:.2}x untraced \
             (budget {overhead_budget:.1}x)"
        );
        failed = true;
    }

    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"vendor\": \"{}\", \"shape\": \"{}\", \"l1_hit_rate\": {:.4}, \
                 \"l2_hit_rate\": {:.4}, \"sector_utilization\": {:.4}, \"dram_bytes\": {}, \
                 \"analytic_us\": {:.3}, \"trace_driven_us\": {:.3} }}",
                r.vendor,
                r.shape,
                r.mem.l1_hit_rate(),
                r.mem.l2_hit_rate(),
                r.mem.sector_utilization(),
                r.mem.dram_bytes,
                r.analytic_us,
                r.traced_us
            )
        })
        .collect();
    let overhead_json: Vec<String> = overhead
        .iter()
        .map(|r| {
            format!(
                "    {{ \"vendor\": \"{}\", \"shape\": \"{}\", \"untraced_ns_elem\": {:.2}, \
                 \"streaming_ns_elem\": {:.2}, \"streaming_overhead\": {:.3} }}",
                r.vendor,
                r.shape,
                r.untraced_ns_elem,
                r.streaming_ns_elem,
                r.streaming_overhead()
            )
        })
        .collect();
    let report = format!(
        "{{\n  \"n\": {n},\n  \"block_dim\": {BLOCK_DIM},\n  \"host_cores\": {host_cores},\n  \
         \"streaming_overhead_geomean\": {overhead_geomean:.3},\n  \"rows\": [\n{}\n  ],\n  \
         \"overhead\": [\n{}\n  ]\n}}",
        row_json.join(",\n"),
        overhead_json.join(",\n")
    );

    if json {
        println!("{report}");
    } else {
        println!("── Memory hierarchy (X7): per-vendor L1/L2 replay, modeled ──");
        println!(
            "{:<8} {:<12} {:>7} {:>7} {:>7} {:>12} {:>12} {:>12}",
            "vendor", "shape", "L1 hit", "L2 hit", "sector", "DRAM MB", "analytic us", "traced us"
        );
        for r in &rows {
            println!(
                "{:<8} {:<12} {:>6.1}% {:>6.1}% {:>6.0}% {:>12.2} {:>12.2} {:>12.2}",
                r.vendor,
                r.shape,
                r.mem.l1_hit_rate() * 100.0,
                r.mem.l2_hit_rate() * 100.0,
                r.mem.sector_utilization() * 100.0,
                r.mem.dram_bytes as f64 / 1e6,
                r.analytic_us,
                r.traced_us
            );
        }
        println!();
        println!("── Tracing wall-clock overhead (STREAM shapes, ns/element) ──");
        println!(
            "{:<8} {:<8} {:>10} {:>10} {:>9}",
            "vendor", "shape", "untraced", "streaming", "overhead"
        );
        for r in &overhead {
            println!(
                "{:<8} {:<8} {:>10.1} {:>10.1} {:>8.2}x",
                r.vendor,
                r.shape,
                r.untraced_ns_elem,
                r.streaming_ns_elem,
                r.streaming_overhead()
            );
        }
        println!(
            "geomean: streaming overhead {overhead_geomean:.2}x untraced ({host_cores} host cores)"
        );
    }

    if !smoke {
        std::fs::write("BENCH_memhier.json", format!("{report}\n"))
            .expect("write BENCH_memhier.json");
        eprintln!("wrote BENCH_memhier.json");
    }

    if failed {
        std::process::exit(1);
    }
    eprintln!("memory-hierarchy invariants hold ({} rows)", rows.len());
}
