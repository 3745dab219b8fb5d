//! Block-level differentials between the two block engines: one block of
//! each kernel runs through the reference interpreter ([`run_block`]) and
//! through the production engine ([`run_block_lv`]), each on a fresh
//! memory, and must leave identical results, counters and bytes. The
//! kernels aim at the production engine's fast paths: the full-mask path,
//! divergence at every warp width, shared memory, atomic runs, and the
//! integer and conversion arms most sensitive to semantic drift.

use mcmm_gpu_sim::exec::BlockCtx;
use mcmm_gpu_sim::ir::{AtomicOp, BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, UnOp, Value};
use mcmm_gpu_sim::lower::lower;
use mcmm_gpu_sim::mem::{DevicePtr, GlobalMemory};
use mcmm_gpu_sim::vexec::run_block_lv;
use mcmm_gpu_sim::SimError;
use mcmm_gpu_sim_ref::run_block;

/// Run one block of `kernel` on both engines, each on a fresh memory
/// prepared by `setup` (allocation order is deterministic, so pointers
/// agree across the two runs), and require identical results (a block's
/// result is its counters), and byte-identical buffer contents. Returns
/// the error both engines failed with, if any.
fn differential(
    kernel: &KernelIr,
    block_dim: u32,
    warp_width: u32,
    setup: impl Fn(&GlobalMemory) -> (Vec<Value>, Vec<(DevicePtr, u64)>),
) -> Option<SimError> {
    let prog = lower(kernel);
    let run_engine = |vectorized: bool| {
        let mem = GlobalMemory::new(1 << 20);
        let (args, bufs) = setup(&mem);
        let ctx = BlockCtx {
            kernel,
            global: &mem,
            block_id: 0,
            grid_dim: 1,
            block_dim,
            warp_width,
            trace: None,
        };
        let res =
            if vectorized { run_block_lv(&ctx, &prog, &args) } else { run_block(&ctx, &args) };
        let bytes: Vec<Vec<u8>> =
            bufs.iter().map(|&(p, len)| mem.read_bytes(p, len).unwrap()).collect();
        (res, bytes)
    };
    let (ref_res, ref_bytes) = run_engine(false);
    let (vec_res, vec_bytes) = run_engine(true);
    assert_eq!(ref_res, vec_res, "engine results or counters diverge");
    assert_eq!(ref_bytes, vec_bytes, "engine buffers diverge");
    ref_res.err()
}

#[test]
fn saxpy_full_mask_matches_scalar() {
    // Straight-line kernel: stays on the full-mask fast path throughout.
    let mut k = KernelBuilder::new("saxpy");
    let a = k.param(Type::F32);
    let x = k.param(Type::I64);
    let y = k.param(Type::I64);
    let i = k.thread_id_x();
    let xi = k.ld_elem(Space::Global, Type::F32, x, i);
    let yi = k.ld_elem(Space::Global, Type::F32, y, i);
    let ax = k.bin(BinOp::Mul, a, xi);
    let s = k.bin(BinOp::Add, ax, yi);
    k.st_elem(Space::Global, y, i, s);
    let kernel = k.finish();
    differential(&kernel, 64, 32, |mem| {
        let xp = mem.alloc(64 * 4).unwrap();
        let yp = mem.alloc(64 * 4).unwrap();
        for i in 0..64u64 {
            mem.store(xp.0 + i * 4, Value::F32(i as f32 * 0.25)).unwrap();
            mem.store(yp.0 + i * 4, Value::F32(1.5)).unwrap();
        }
        (
            vec![Value::F32(2.0), Value::I64(xp.0 as i64), Value::I64(yp.0 as i64)],
            vec![(yp, 64 * 4)],
        )
    });
}

#[test]
fn divergent_if_else_matches_scalar_on_every_warp_width() {
    let mut k = KernelBuilder::new("div");
    let out = k.param(Type::I64);
    let i = k.thread_id_x();
    let two = k.imm(Value::I32(2));
    let r = k.bin(BinOp::Rem, i, two);
    let even = k.cmp(CmpOp::Eq, r, Value::I32(0));
    k.if_else(
        even,
        |k| k.st_elem(Space::Global, out, i, Value::I32(1)),
        |k| k.st_elem(Space::Global, out, i, Value::I32(2)),
    );
    let kernel = k.finish();
    for ww in [16, 32, 64] {
        differential(&kernel, 96, ww, |mem| {
            let p = mem.alloc(96 * 4).unwrap();
            (vec![Value::I64(p.0 as i64)], vec![(p, 96 * 4)])
        });
    }
}

#[test]
fn while_loop_with_divergent_trip_counts_matches_scalar() {
    let mut k = KernelBuilder::new("tri");
    let out = k.param(Type::I64);
    let i = k.thread_id_x();
    let acc = k.imm(Value::I32(0));
    let j = k.imm(Value::I32(0));
    k.while_(
        |k| k.cmp(CmpOp::Lt, j, i),
        |k| {
            k.bin_assign(BinOp::Add, acc, j);
            k.bin_assign(BinOp::Add, j, Value::I32(1));
        },
    );
    k.st_elem(Space::Global, out, i, acc);
    let kernel = k.finish();
    differential(&kernel, 48, 32, |mem| {
        let p = mem.alloc(48 * 4).unwrap();
        (vec![Value::I64(p.0 as i64)], vec![(p, 48 * 4)])
    });
}

#[test]
fn shared_memory_reduction_matches_scalar() {
    let mut k = KernelBuilder::new("reduce");
    let out = k.param(Type::I64);
    let sh = k.shared_alloc(64 * 4);
    let tid = k.thread_id_x();
    let tid_f = k.cvt(Type::F32, tid);
    k.st_elem(Space::Shared, sh, tid, tid_f);
    k.barrier();
    let zero = k.imm(Value::I32(0));
    let is0 = k.cmp(CmpOp::Eq, tid, zero);
    k.if_(is0, |k| {
        let acc = k.imm(Value::F32(0.0));
        let j = k.imm(Value::I32(0));
        k.while_(
            |k| k.cmp(CmpOp::Lt, j, Value::I32(64)),
            |k| {
                let v = k.ld_elem(Space::Shared, Type::F32, sh, j);
                k.bin_assign(BinOp::Add, acc, v);
                k.bin_assign(BinOp::Add, j, Value::I32(1));
            },
        );
        k.st_elem(Space::Global, out, zero, acc);
    });
    let kernel = k.finish();
    differential(&kernel, 64, 32, |mem| {
        let p = mem.alloc(4).unwrap();
        (vec![Value::I64(p.0 as i64)], vec![(p, 4)])
    });
}

#[test]
fn global_atomics_match_scalar() {
    // Every lane atomically adds into out[0] and records the fetched
    // value; single interpreter thread per block, so the fetch order is
    // deterministic and must agree across engines.
    let mut k = KernelBuilder::new("atom");
    let out = k.param(Type::I64);
    let old = k.param(Type::I64);
    let i = k.thread_id_x();
    let got = k.atomic(AtomicOp::Add, Space::Global, out, Value::I32(3));
    k.st_elem(Space::Global, old, i, got);
    let kernel = k.finish();
    differential(&kernel, 32, 32, |mem| {
        let p = mem.alloc(4).unwrap();
        let q = mem.alloc(32 * 4).unwrap();
        mem.store(p.0, Value::I32(0)).unwrap();
        (vec![Value::I64(p.0 as i64), Value::I64(q.0 as i64)], vec![(p, 4), (q, 32 * 4)])
    });
}

#[test]
fn atomic_runs_and_lone_lanes_match_scalar() {
    // Every lane adds into one f64 and one i32 cell, then into one of
    // five i32 bins, and reads back the value it replaced. The cells
    // commit each warp-round-robin run as one read-modify-write, which
    // must round every partial float sum and hand out every old value
    // exactly as per-lane commits do; the bins mix lone lanes with
    // runs over both halves of one word.
    let mut k = KernelBuilder::new("cell_runs");
    let fcell = k.param(Type::I64);
    let icell = k.param(Type::I64);
    let bins = k.param(Type::I64);
    let fold = k.param(Type::I64);
    let iold = k.param(Type::I64);
    let bold = k.param(Type::I64);
    let i = k.thread_id_x();
    let fi = k.cvt(Type::F64, i);
    let fv = k.bin(BinOp::Mul, fi, Value::F64(0.1));
    let gotf = k.atomic(AtomicOp::Add, Space::Global, fcell, fv);
    k.st_elem(Space::Global, fold, i, gotf);
    let goti = k.atomic(AtomicOp::Add, Space::Global, icell, i);
    k.st_elem(Space::Global, iold, i, goti);
    let i7 = k.bin(BinOp::Mul, i, Value::I32(7));
    let bin = k.bin(BinOp::Rem, i7, Value::I32(5));
    let baddr = k.elem_addr(Type::I32, bins, bin);
    let gotb = k.atomic(AtomicOp::Add, Space::Global, baddr, i);
    k.st_elem(Space::Global, bold, i, gotb);
    let kernel = k.finish();
    for ww in [16, 32, 64] {
        differential(&kernel, 96, ww, |mem| {
            let f = mem.alloc(8).unwrap();
            let c = mem.alloc(4).unwrap();
            let b = mem.alloc(5 * 4).unwrap();
            let fo = mem.alloc(96 * 8).unwrap();
            let io = mem.alloc(96 * 4).unwrap();
            let bo = mem.alloc(96 * 4).unwrap();
            mem.store(f.0, Value::F64(0.25)).unwrap();
            mem.store(c.0, Value::I32(7)).unwrap();
            let args = [f, c, b, fo, io, bo].map(|p| Value::I64(p.0 as i64));
            let bufs = vec![(f, 8), (c, 4), (b, 20), (fo, 96 * 8), (io, 96 * 4), (bo, 96 * 4)];
            (args.into(), bufs)
        });
    }
}

#[test]
fn out_of_bounds_lane_mid_run_fails_like_scalar() {
    // The cell is the last word of memory and lane 37 aims 4 bytes
    // past it: an 8-byte access that shares the cell's word but runs
    // off the end, in the middle of a run. The lanes committed before
    // it, the error, and the memory left behind must all match.
    let mut k = KernelBuilder::new("oob_run");
    let cell = k.param(Type::I64);
    let i = k.thread_id_x();
    let bad = k.cmp(CmpOp::Eq, i, Value::I32(37));
    let off = k.sel(bad, Value::I64(4), Value::I64(0));
    let addr = k.bin(BinOp::Add, cell, off);
    let fi = k.cvt(Type::F64, i);
    let fv = k.bin(BinOp::Mul, fi, Value::F64(0.1));
    let _ = k.atomic(AtomicOp::Add, Space::Global, addr, fv);
    let kernel = k.finish();
    let last = DevicePtr((1 << 20) - 8);
    for ww in [16, 32, 64] {
        let err = differential(&kernel, 64, ww, |mem| {
            mem.store(last.0, Value::F64(1.5)).unwrap();
            (vec![Value::I64(last.0 as i64)], vec![(last, 8)])
        });
        assert_eq!(err, Some(SimError::OutOfBounds { addr: last.0 + 4, len: 8 }));
    }
}

#[test]
fn integer_edge_ops_and_conversions_match_scalar() {
    // Shifts with out-of-range amounts, signed div/rem, a conversion
    // chain, and compares of i32 lanes that wrap — the arms most
    // sensitive to semantic drift.
    let mut k = KernelBuilder::new("edges");
    let out = k.param(Type::I64);
    let i = k.thread_id_x();
    let big = k.imm(Value::I32(71)); // shift amount > 63: masked mod 64
    let sh = k.bin(BinOp::Shl, i, big);
    let neg = k.un(UnOp::Neg, i);
    let seven = k.imm(Value::I32(7));
    let d = k.bin(BinOp::Div, neg, seven);
    let r = k.bin(BinOp::Rem, neg, seven);
    let wide = k.cvt(Type::I64, i);
    let f = k.cvt(Type::F32, wide);
    let back = k.cvt(Type::I32, f);
    let t1 = k.bin(BinOp::Add, sh, d);
    let t2 = k.bin(BinOp::Add, t1, r);
    let t3 = k.bin(BinOp::Add, t2, back);
    // Full-mask compares of i32 values that wrap (`i·2^30` from lane 2
    // on, `i + i32::MAX − 20` from lane 21 on): each lane compares as its
    // low 32 bits.
    let huge = k.bin(BinOp::Mul, i, Value::I32(1 << 30));
    let near_max = k.bin(BinOp::Add, i, Value::I32(i32::MAX - 20));
    let wrapped = k.cmp(CmpOp::Lt, near_max, Value::I32(0));
    let below = k.cmp(CmpOp::Lt, huge, near_max);
    let wrapped_flag = k.sel(wrapped, Value::I32(1 << 8), Value::I32(0));
    let below_flag = k.sel(below, Value::I32(1 << 9), Value::I32(0));
    let t4 = k.bin(BinOp::Add, t3, wrapped_flag);
    let t5 = k.bin(BinOp::Add, t4, below_flag);
    k.st_elem(Space::Global, out, i, t5);
    let kernel = k.finish();
    differential(&kernel, 64, 32, |mem| {
        let p = mem.alloc(64 * 4).unwrap();
        (vec![Value::I64(p.0 as i64)], vec![(p, 64 * 4)])
    });
}

#[test]
fn division_by_zero_traps_identically() {
    let mut k = KernelBuilder::new("crash");
    let out = k.param(Type::I64);
    let i = k.thread_id_x();
    let zero = k.imm(Value::I32(0));
    let d = k.bin(BinOp::Div, i, zero);
    k.st_elem(Space::Global, out, i, d);
    let kernel = k.finish();
    differential(&kernel, 32, 32, |mem| {
        let p = mem.alloc(32 * 4).unwrap();
        (vec![Value::I64(p.0 as i64)], vec![(p, 32 * 4)])
    });
}

#[test]
fn out_of_bounds_store_fails_identically() {
    let mut k = KernelBuilder::new("oob");
    let out = k.param(Type::I64);
    let i = k.thread_id_x();
    k.st_elem(Space::Global, out, i, Value::I32(1));
    let kernel = k.finish();
    // Unallocated address far past the heap: both engines must report the
    // same OutOfBounds error.
    differential(&kernel, 32, 32, |mem| {
        let p = mem.alloc(4).unwrap();
        (vec![Value::I64(1 << 19)], vec![(p, 4)])
    });
}

#[test]
fn full_mask_fast_path_survives_unanimous_branches() {
    // A branch every lane takes keeps `bits: None`; results and counters
    // still match the reference exactly.
    let mut k = KernelBuilder::new("unanimous");
    let out = k.param(Type::I64);
    let i = k.thread_id_x();
    let yes = k.cmp(CmpOp::Ge, i, Value::I32(0));
    k.if_(yes, |k| {
        let two = k.imm(Value::I32(2));
        let v = k.bin(BinOp::Mul, i, two);
        k.st_elem(Space::Global, out, i, v);
    });
    let kernel = k.finish();
    differential(&kernel, 64, 32, |mem| {
        let p = mem.alloc(64 * 4).unwrap();
        (vec![Value::I64(p.0 as i64)], vec![(p, 64 * 4)])
    });
}
