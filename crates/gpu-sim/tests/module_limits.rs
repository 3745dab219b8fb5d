//! The module format's limits. Names, trap messages and the param and
//! register counts are stored in two bytes, and the decoder reads blocks
//! nested at most 64 deep. A kernel at each limit round-trips on every ISA;
//! one past it is refused by `assemble`, which never writes a module that
//! `disassemble` would reject.

use mcmm_gpu_sim::ir::{Instr, KernelIr, Reg, Type};
use mcmm_gpu_sim::isa::{assemble, disassemble, IsaKind};
use mcmm_gpu_sim::SimError;

/// A kernel named by `name_len` bytes, with `params` Bool params, `regs`
/// Bool registers in all, and a `trap_len`-byte trap inside `depth` nested
/// `If`s on r0.
fn kernel(name_len: usize, params: usize, regs: usize, trap_len: usize, depth: usize) -> KernelIr {
    let mut body = vec![Instr::Trap { message: "t".repeat(trap_len) }];
    for _ in 0..depth {
        body = vec![Instr::If { cond: Reg(0), then_: body, else_: vec![] }];
    }
    KernelIr {
        name: "k".repeat(name_len),
        params: vec![Type::Bool; params],
        regs: vec![Type::Bool; regs],
        shared_bytes: 0,
        body,
    }
}

#[test]
fn a_kernel_at_each_limit_round_trips() {
    for k in [
        kernel(65_535, 0, 1, 1, 0),
        kernel(1, 65_535, 65_535, 1, 0),
        kernel(1, 0, 1, 65_535, 0),
        kernel(1, 0, 1, 1, 64),
    ] {
        for isa in IsaKind::ALL {
            let module = assemble(&k, isa).expect("a kernel at the limit assembles");
            assert_eq!(disassemble(&module).expect("and decodes"), k);
        }
    }
}

#[test]
fn a_kernel_past_a_limit_is_refused() {
    for (k, why) in [
        (kernel(70_000, 0, 1, 1, 0), "name length 70000"),
        (kernel(65_536, 0, 1, 1, 0), "name length 65536"),
        (kernel(1, 65_536, 65_536, 1, 0), "param count 65536"),
        (kernel(1, 0, 65_536, 1, 0), "register count 65536"),
        (kernel(1, 0, 1, 70_000, 0), "trap message length 70000"),
        (kernel(1, 0, 1, 1, 65), "nest deeper than 64"),
        (kernel(1, 0, 1, 1, 70), "nest deeper than 64"),
    ] {
        for isa in IsaKind::ALL {
            match assemble(&k, isa) {
                Err(SimError::InvalidModule(m)) => assert!(m.contains(why), "{why}: got {m}"),
                other => {
                    panic!("{why}: expected InvalidModule, got {:?}", other.map(|m| m.bytes.len()))
                }
            }
        }
    }
}
