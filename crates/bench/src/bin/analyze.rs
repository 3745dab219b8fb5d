//! X2 — the static-analyzer report: run `mcmm-analyze` over the
//! seeded-defect corpus (every diagnostic must fire) and over every real
//! kernel the repo ships (none may fire), show which check subset each
//! route's lint gate enforces, and run the vendor-portability suite
//! (MCA006–MCA010) over its own seeded corpus.
//!
//! With `--smoke`, additionally *differentially validates* the
//! portability suite: every portability-corpus kernel is executed on all
//! three simulated vendor devices on both block engines (the device's own
//! and the `mcmm-gpu-sim-ref` reference interpreter), and each static
//! breaks-on-vendor claim must match the observed behavior — refused
//! launch, barrier deadlock, or checksum divergence — with zero false
//! positives on the clean twins.
//!
//! A full run (no `--smoke`) rewrites `BENCH_analyze.json` (per-code
//! counts, analysis throughput, host core count, differential tally).
//! Exits non-zero on any miss, false positive, or static/dynamic
//! disagreement, so this binary doubles as a CI gate for the whole
//! analyzer.

use mcmm_analyze::corpus::{BreakMode, PortabilityKernel};
use mcmm_analyze::portability::portability;
use mcmm_analyze::{analyze, corpus, AnalysisOptions};
use mcmm_babelstream::adapters::stream_kernels;
use mcmm_gpu_sim::DeviceSpec;
use mcmm_gpu_sim_ref::diffval::{observe, Observation};
use mcmm_gpu_sim_ref::Engine;
use mcmm_toolchain::probe::smoke_kernel;
use mcmm_toolchain::Registry;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut failed = false;

    println!("── mcmm-analyze report (X2) ──");
    println!();
    println!("Seeded-defect corpus (every kernel must be flagged with its code):");
    let mut per_code: BTreeMap<&'static str, usize> = BTreeMap::new();
    for entry in corpus::seeded_defects() {
        let report = analyze(&entry.kernel, &entry.opts);
        let hit = report.has_code(entry.expect);
        if hit {
            *per_code.entry(entry.expect).or_default() += 1;
        } else {
            failed = true;
        }
        println!(
            "  {:<22} expect {}  →  {}",
            entry.kernel.name,
            entry.expect,
            if hit { "flagged" } else { "MISSED" }
        );
        for d in &report.diagnostics {
            println!("      {d}");
        }
    }
    println!(
        "  per-code coverage: {}",
        per_code.iter().map(|(c, n)| format!("{c}×{n}")).collect::<Vec<_>>().join(", ")
    );

    println!();
    println!("Real kernels (all must be clean):");
    let mut real: Vec<_> = vec![
        smoke_kernel(),
        mcmm_translate::ast::cuda_saxpy_program(1024, 2.0).kernels[0].ir.clone(),
    ];
    real.extend(stream_kernels());
    for kernel in &real {
        let report = analyze(kernel, &AnalysisOptions::default());
        if report.is_clean() {
            println!("  {:<22} clean", kernel.name);
        } else {
            failed = true;
            println!("  {:<22} FLAGGED:", kernel.name);
            for d in &report.diagnostics {
                println!("      {d}");
            }
        }
    }

    println!();
    println!("Vendor-portability corpus (per-device verdicts, MCA006–MCA010):");
    let port_corpus = corpus::portability_corpus();
    for entry in &port_corpus {
        let report = portability(&entry.kernel, &entry.opts);
        let ok = match entry.expect {
            Some(code) => {
                report.codes().contains(code) && report.breaking_devices() == entry.breaks_on
            }
            None => report.is_clean(),
        };
        if !ok {
            failed = true;
        }
        for code in report.codes() {
            *per_code.entry(code).or_default() += 1;
        }
        let verdicts: Vec<String> = report
            .verdicts
            .iter()
            .map(|v| {
                let codes: Vec<&str> = v.codes().into_iter().collect();
                format!(
                    "w{}:{}",
                    v.warp_width,
                    if codes.is_empty() { "ok".to_string() } else { codes.join("+") }
                )
            })
            .collect();
        println!(
            "  {:<24} {:<14} →  {}  [{}]",
            entry.kernel.name,
            entry.expect.unwrap_or("clean twin"),
            if ok { "as predicted" } else { "WRONG VERDICT" },
            verdicts.join(" ")
        );
    }

    println!();
    println!("Per-route lint gates (checks follow route maturity; P = portability gate):");
    for c in Registry::paper().entries() {
        let mut checks: Vec<String> =
            c.lint_checks().into_iter().map(|ch| ch.code().to_string()).collect();
        if c.gates_portability() {
            checks.push("P".to_string());
        }
        println!("  {:<40} {}", c.name, checks.join(" "));
    }

    let mut differential_cells = 0usize;
    if smoke {
        println!();
        println!("Differential validation (3 devices × 2 engines per corpus kernel):");
        for entry in &port_corpus {
            match validate_against_execution(entry) {
                Ok(cells) => {
                    differential_cells += cells;
                    println!("  {:<24} static claims confirmed by execution", entry.kernel.name);
                }
                Err(why) => {
                    failed = true;
                    println!("  {:<24} DISAGREES: {why}", entry.kernel.name);
                }
            }
        }
    }

    // Throughput: full analysis (vendor-neutral + portability) over every
    // corpus kernel, enough repetitions to dominate timer noise.
    let kernels: Vec<(mcmm_gpu_sim::ir::KernelIr, AnalysisOptions)> = corpus::seeded_defects()
        .into_iter()
        .map(|e| (e.kernel, e.opts))
        .chain(port_corpus.iter().map(|e| (e.kernel.clone(), e.opts.clone())))
        .collect();
    const REPS: usize = 50;
    let t0 = Instant::now();
    for _ in 0..REPS {
        for (kernel, opts) in &kernels {
            std::hint::black_box(analyze(kernel, opts));
            std::hint::black_box(portability(kernel, opts));
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let analyses = (REPS * kernels.len()) as f64;
    let throughput = analyses / elapsed;
    println!();
    println!(
        "throughput: {throughput:.0} kernel analyses/s ({analyses:.0} runs in {:.1} ms)",
        elapsed * 1e3
    );

    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let code_json: Vec<String> =
        per_code.iter().map(|(c, n)| format!("    \"{c}\": {n}")).collect();
    let json = format!(
        "{{\n  \"per_code\": {{\n{}\n  }},\n  \"corpus_kernels\": {},\n  \
         \"throughput_analyses_per_s\": {throughput:.0},\n  \"host_cores\": {host_cores},\n  \
         \"smoke\": {smoke},\n  \
         \"differential_cells_checked\": {differential_cells}\n}}",
        code_json.join(",\n"),
        kernels.len()
    );
    if !smoke {
        std::fs::write("BENCH_analyze.json", format!("{json}\n"))
            .expect("write BENCH_analyze.json");
        eprintln!("wrote BENCH_analyze.json");
    }

    println!();
    if failed {
        println!("ANALYZE REPORT FAILED: see MISSED/FLAGGED/DISAGREES lines above");
        std::process::exit(1);
    }
    println!(
        "ANALYZE REPORT PASSED: {} corpus kernels flagged, {} real kernels clean, \
         {} portability kernels as predicted{}",
        corpus::seeded_defects().len(),
        real.len(),
        port_corpus.len(),
        if smoke {
            format!(", {differential_cells} device×engine cells differentially validated")
        } else {
            String::new()
        }
    );
}

/// Execute one portability-corpus kernel on every preset device on both
/// block engines and check the observations against the entry's static
/// claim. Returns the number of device×engine cells exercised.
fn validate_against_execution(entry: &PortabilityKernel) -> Result<usize, String> {
    let devices = DeviceSpec::presets();
    let mut observations = Vec::new();
    let mut cells = 0usize;
    for spec in &devices {
        let [reference, vectorized] = Engine::BOTH.map(|engine| {
            observe(spec, engine, &entry.kernel, entry.opts.block_dim, entry.opts.grid_dim)
        });
        cells += 2;
        if reference != vectorized {
            return Err(format!("engines disagree on {}: {reference} vs {vectorized}", spec.name));
        }
        observations.push(reference);
    }

    let clean_checksums: Vec<u64> = devices
        .iter()
        .zip(&observations)
        .filter(|(spec, _)| !entry.breaks_on.contains(&spec.name))
        .map(|(spec, obs)| match obs {
            Observation::Checksum(c) => Ok(*c),
            other => Err(format!("clean device {} did not complete: {other}", spec.name)),
        })
        .collect::<Result<_, _>>()?;
    if clean_checksums.windows(2).any(|w| w[0] != w[1]) && entry.mode != BreakMode::OrderSensitive {
        return Err("clean devices disagree on output bytes".into());
    }

    for (spec, obs) in devices.iter().zip(&observations) {
        if !entry.breaks_on.contains(&spec.name) {
            continue;
        }
        let confirmed = match entry.mode {
            BreakMode::RefusedLaunch => *obs == Observation::RefusedLaunch,
            BreakMode::Deadlock => *obs == Observation::Deadlock,
            BreakMode::SilentValues => {
                matches!(obs, Observation::Checksum(c) if !clean_checksums.contains(c))
            }
            BreakMode::Portable | BreakMode::OrderSensitive => false,
        };
        if !confirmed {
            return Err(format!("break on {} not observed (saw {obs})", spec.name));
        }
    }
    if entry.mode == BreakMode::OrderSensitive {
        let sums: Vec<u64> = observations
            .iter()
            .map(|o| match o {
                Observation::Checksum(c) => Ok(*c),
                other => Err(format!("order-sensitive kernel did not complete: {other}")),
            })
            .collect::<Result<_, _>>()?;
        for i in 0..sums.len() {
            for j in (i + 1)..sums.len() {
                if sums[i] == sums[j] {
                    return Err(format!(
                        "{} and {} agree — atomic order not width-sensitive",
                        devices[i].name, devices[j].name
                    ));
                }
            }
        }
    }
    Ok(cells)
}
