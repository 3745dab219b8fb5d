//! The affine index shape both random-kernel differential suites draw
//! (`tests/exec_tier_differential.rs` and
//! `tests/trace_replay_differential.rs`), so their proptests reach the
//! same reversed, uniform and non-unit strides.

use many_models::gpu_sim::ir::{BinOp, KernelBuilder, Reg, Value};
use proptest::prelude::*;

/// Element index `a·i + n + c` of lane `i` for `index = (a, c)`, with `a`
/// in {-1, 0, 2, 3} and `c` in 0..64, built with `Sub`, `Mul` and `Shl`.
/// These reversed, uniform and non-unit strides leave the vectorized
/// tier's unit-stride path for its per-lane one, and its traces record
/// them lane by lane or, when uniform, as one header. For `i < n` the
/// index lies in `1..4n + 64`.
pub fn affine_index(k: &mut KernelBuilder, i: Reg, n: Reg, (a, c): (i32, i32)) -> Reg {
    let base = k.bin(BinOp::Add, n, Value::I32(c));
    match a {
        -1 => k.bin(BinOp::Sub, base, i),
        0 => {
            let zero = k.bin(BinOp::Mul, i, Value::I32(0));
            k.bin(BinOp::Add, zero, base)
        }
        2 => {
            let twice = k.bin(BinOp::Shl, i, Value::I32(1));
            k.bin(BinOp::Add, twice, base)
        }
        _ => {
            let thrice = k.bin(BinOp::Mul, i, Value::I32(3));
            k.bin(BinOp::Add, thrice, base)
        }
    }
}

/// The `(a, c)` draw for [`affine_index`].
pub fn arb_index() -> impl Strategy<Value = (i32, i32)> {
    (prop_oneof![Just(-1), Just(0), Just(2), Just(3)], 0..64i32)
}
