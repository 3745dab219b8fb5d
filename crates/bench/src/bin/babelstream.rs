//! E6 — the BabelStream model × vendor sweep (the performance evaluation
//! the paper names as the natural extension, §5).
//!
//! ```text
//! cargo run --release -p mcmm-bench --bin babelstream [--n 65536] [--iters 2] [--model SYCL]
//! ```
//!
//! Numbers are **modeled** GB/s from the analytic timing model against
//! public-spec device attributes — shapes, not measurements.

use mcmm_babelstream::report::{kernel_series, run_table, sweep_table};
use mcmm_babelstream::runner::{sweep, unsupported_count, verified_count};
use mcmm_bench::{arg_usize, DEFAULT_STREAM_ITERS, DEFAULT_STREAM_N};
use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::{set_process_config, DeviceSpec, SimConfig};

/// Peak DRAM bandwidth of the vendor's simulated device, for the
/// achieved-vs-peak column.
fn peak_dram_gbps(v: Vendor) -> f64 {
    match v {
        Vendor::Nvidia => DeviceSpec::nvidia_a100().dram_gbps,
        Vendor::Amd => DeviceSpec::amd_mi250x().dram_gbps,
        Vendor::Intel => DeviceSpec::intel_pvc().dram_gbps,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_usize(&args, "--n", DEFAULT_STREAM_N);
    let iters = arg_usize(&args, "--iters", DEFAULT_STREAM_ITERS);
    let model_filter =
        args.iter().position(|a| a == "--model").and_then(|i| args.get(i + 1)).cloned();

    // Trace every launch so the report can show cache hit rates; timing
    // stays on the analytic tier unless MCMM_TIMING_TIER overrides it.
    set_process_config(Some(SimConfig { tracing: true, ..SimConfig::from_env() }));

    eprintln!("running BabelStream sweep: n = {n}, iters = {iters} (modeled timings)…");
    let entries = sweep(n, iters);

    println!("── BabelStream sweep (modeled GB/s; -- = no route in the matrix) ──");
    println!("{}", sweep_table(&entries));
    println!(
        "verified runs: {} / 27; matrix holes: {}",
        verified_count(&entries),
        unsupported_count(&entries)
    );
    println!(
        "shared compile cache: {} hits / {} misses ({:.0}% hit rate)",
        entries.cache_hits,
        entries.cache_misses,
        entries.cache_hit_rate() * 100.0
    );
    println!(
        "lowered-program cache: {} hits / {} misses ({:.0}% hit rate)",
        entries.programs.hits,
        entries.programs.misses,
        entries.programs.hit_rate() * 100.0
    );

    println!();
    println!("── Memory hierarchy per route (traced; modeled) ──");
    println!(
        "{:<14}{:<9}{:>8}{:>8}{:>9}{:>13}{:>9}",
        "Model", "Vendor", "L1 hit", "L2 hit", "sector", "Triad GB/s", "of peak"
    );
    for e in entries.iter() {
        if let Ok(r) = &e.outcome {
            if let Some(m) = r.mem {
                let peak = peak_dram_gbps(r.vendor);
                println!(
                    "{:<14}{:<9}{:>7.1}%{:>7.1}%{:>8.0}%{:>13.0}{:>8.0}%",
                    r.model,
                    r.vendor.name(),
                    m.l1_hit_rate() * 100.0,
                    m.l2_hit_rate() * 100.0,
                    m.sector_utilization() * 100.0,
                    r.triad_gbps(),
                    r.triad_gbps() / peak * 100.0,
                );
            }
        }
    }
    if let Some(m) = entries.mem {
        println!(
            "sweep total: {} requests -> {} transactions ({} MSHR merges), {:.3} GB DRAM traffic",
            m.requests,
            m.transactions,
            m.mshr_merges,
            m.dram_bytes as f64 / 1e9,
        );
    }

    if let Some(model) = model_filter {
        println!();
        println!("{}", kernel_series(&entries, &model));
        for e in entries.iter().filter(|e| e.model == model) {
            println!("{}", run_table(e));
        }
    }
}
