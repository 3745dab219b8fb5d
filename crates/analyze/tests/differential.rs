//! Differential validation of the static race checker: every kernel the
//! static MCA003 analysis flags must also race under the reference
//! interpreter's dynamic racecheck mode (same block, same launch shape),
//! and kernels that are statically clean must be dynamically clean too.

use mcmm_analyze::{analyze, corpus, AnalysisOptions, MCA003};
use mcmm_gpu_sim::counters::Counters;
use mcmm_gpu_sim::exec::BlockCtx;
use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value};
use mcmm_gpu_sim::mem::GlobalMemory;
use mcmm_gpu_sim_ref::{run_block_racecheck, RaceFinding};

fn dynamic_races(kernel: &KernelIr, opts: &AnalysisOptions) -> Vec<RaceFinding> {
    let mem = GlobalMemory::new(1 << 16);
    let counters = Counters::new();
    let ctx = BlockCtx {
        kernel,
        global: &mem,
        counters: &counters,
        block_id: 0, // the static analyzer pins CtaIdX to block 0 too
        grid_dim: opts.grid_dim,
        block_dim: opts.block_dim,
        warp_width: opts.warp_width,
        trace: None,
    };
    run_block_racecheck(&ctx, &[]).expect("corpus race kernels take no arguments")
}

#[test]
fn every_static_race_finding_reproduces_dynamically() {
    let race_entries: Vec<_> =
        corpus::seeded_defects().into_iter().filter(|e| e.expect == MCA003).collect();
    assert!(race_entries.len() >= 2, "corpus must seed at least two race kernels");
    for entry in race_entries {
        let report = analyze(&entry.kernel, &entry.opts);
        assert!(report.has_code(MCA003), "static analysis missed `{}`", entry.kernel.name);
        let dynamic = dynamic_races(&entry.kernel, &entry.opts);
        assert!(
            !dynamic.is_empty(),
            "static race in `{}` not confirmed by the dynamic racecheck: {:?}",
            entry.kernel.name,
            report.diagnostics
        );
        // Both detectors implement the same conflict rule.
        for f in &dynamic {
            assert_ne!(f.lane_a, f.lane_b);
            assert!(f.kind_a.conflicts(f.kind_b));
        }
    }
}

/// A correctly-synchronized tree reduction: statically clean AND
/// dynamically clean — the two detectors agree in the negative direction
/// as well.
#[test]
fn barriered_reduction_is_clean_both_ways() {
    let mut k = KernelBuilder::new("reduce_ok");
    let sh = k.shared_alloc(4 * 64);
    let tid = k.thread_id_x();
    k.st_elem(Space::Shared, sh, tid, tid);
    k.barrier();
    let stride = k.imm(Value::I32(32));
    k.while_(
        |k| k.cmp(CmpOp::Gt, stride, Value::I32(0)),
        |k| {
            let in_half = k.cmp(CmpOp::Lt, tid, stride);
            k.if_(in_half, |k| {
                let other = k.bin(BinOp::Add, tid, stride);
                let a = k.ld_elem(Space::Shared, Type::I32, sh, tid);
                let b = k.ld_elem(Space::Shared, Type::I32, sh, other);
                let s = k.bin(BinOp::Add, a, b);
                k.st_elem(Space::Shared, sh, tid, s);
            });
            k.barrier();
            let two = k.imm(Value::I32(2));
            let half = k.bin(BinOp::Div, stride, two);
            k.assign(stride, half);
        },
    );
    let kernel = k.finish();
    let opts = AnalysisOptions { block_dim: 64, ..AnalysisOptions::default() };
    let report = analyze(&kernel, &opts);
    assert!(!report.has_code(MCA003), "static false positive: {:?}", report.diagnostics);
    let dynamic = dynamic_races(&kernel, &opts);
    assert!(dynamic.is_empty(), "dynamic false positive: {dynamic:?}");
}

/// Dropping the mid-loop barrier makes both detectors fire.
#[test]
fn unbarriered_reduction_races_both_ways() {
    let mut k = KernelBuilder::new("reduce_racy");
    let sh = k.shared_alloc(4 * 64);
    let tid = k.thread_id_x();
    k.st_elem(Space::Shared, sh, tid, tid);
    // no barrier: the tree phase reads slots other lanes are writing
    let in_half = k.cmp(CmpOp::Lt, tid, Value::I32(32));
    k.if_(in_half, |k| {
        let other = k.bin(BinOp::Add, tid, Value::I32(32));
        let a = k.ld_elem(Space::Shared, Type::I32, sh, tid);
        let b = k.ld_elem(Space::Shared, Type::I32, sh, other);
        let s = k.bin(BinOp::Add, a, b);
        k.st_elem(Space::Shared, sh, tid, s);
    });
    let kernel = k.finish();
    let opts = AnalysisOptions { block_dim: 64, ..AnalysisOptions::default() };
    let report = analyze(&kernel, &opts);
    assert!(report.has_code(MCA003), "static miss: {:?}", report.diagnostics);
    let dynamic = dynamic_races(&kernel, &opts);
    assert!(!dynamic.is_empty(), "dynamic miss");
}
