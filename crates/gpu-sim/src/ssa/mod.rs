//! The optimizing middle-end between [`KernelIr`](crate::ir::KernelIr)
//! and the lane-vector bytecode.
//!
//! The structured IR (`If`/`While` trees, mutable registers) is
//! destructured into [`SsaFunc`]: the same region tree, but every value
//! def is a fresh [`ValId`] and control regions carry explicit
//! block-argument-style value flow (an `If` yields per-arm values into
//! result ids; a `While` carries loop-mutated slots as region arguments
//! with `init` → `next` feedback and `exit` → `results` binding, in the
//! shape of MLIR's `scf` dialect). Because regions stay structured, the
//! round-trip back to [`KernelIr`](crate::ir::KernelIr) is deterministic
//! and the scalar reference tier, the race checker, and the MCA analyses
//! never need to learn a second IR.
//!
//! On top of the SSA form sits a [`PassManager`] running classic
//! machine-independent passes — constant folding, dead-code elimination,
//! common-subexpression elimination (loads included, invalidated at
//! stores/barriers/atomics), loop-invariant code motion, strength
//! reduction — plus per-vendor lowering passes parameterized on
//! [`DeviceSpec`] (divergence-aware if-conversion scaled by
//! warp/wavefront/sub-group width, address-chain folding for narrow
//! sub-groups). Every pass preserves bit-exact semantics: constant
//! folding evaluates with the interpreter's own arithmetic, floating
//! point is never reassociated, and anything that can trap (loads,
//! integer division by a non-constant) is never removed, merged across a
//! potential trap, or hoisted past a guard.
//!
//! The optimization level is the `opt` field of a device's
//! [`SimConfig`](crate::device::SimConfig), beside the execution and
//! timing tiers (`MCMM_OPT_LEVEL`: `"0"`/`"1"`/`"2"`).
//! `O0` is the default and bypasses the middle-end entirely, so default
//! behaviour — buffers *and* every counter — is bit-for-bit identical to
//! the pre-optimizer engine; the scalar tier always executes the
//! unoptimized kernel and stays the O0 reference that race checking and
//! the differential suites pin against.

mod build;
mod passes;
mod reconstruct;
mod vendor;

pub use passes::{ConstFold, Cse, Dce, Licm, Pass, PassManager, PassStat, PmStats, StrengthReduce};
pub use vendor::{AddrChainFold, DivergenceFlatten};

use crate::device::DeviceSpec;
use crate::ir::{AtomicOp, BinOp, CmpOp, KernelIr, Space, Special, Type, UnOp, Value};

/// How hard the middle-end works on a kernel before lowering.
///
/// * `O0` — no optimization; the kernel is lowered as written. The
///   default, and the reference semantics every other level is
///   differentially tested against.
/// * `O1` — constant folding (+ copy propagation) and dead-code
///   elimination to a fixpoint.
/// * `O2` — `O1` plus common-subexpression elimination, loop-invariant
///   code motion, strength reduction, and the per-vendor lowering passes
///   when a [`DeviceSpec`] is in scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// No optimization (reference semantics).
    #[default]
    O0,
    /// Constant folding + dead-code elimination.
    O1,
    /// Full pipeline: `O1` + CSE, LICM, strength reduction, vendor passes.
    O2,
}

impl OptLevel {
    /// Stable numeric tag (`0`/`1`/`2`) for cache keys and artifact
    /// file names.
    pub fn tag(self) -> u8 {
        match self {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "O{}", self.tag())
    }
}

/// An SSA value id, indexing [`SsaFunc::vals`]. Ids `0..params.len()`
/// are the kernel parameters; every other id has exactly one def.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValId(pub u32);

/// An operand: an SSA value or an immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SsaOperand {
    /// A defined SSA value.
    Val(ValId),
    /// A literal.
    Imm(Value),
}

impl SsaOperand {
    /// The referenced value id, if this is not an immediate.
    pub fn as_val(self) -> Option<ValId> {
        match self {
            SsaOperand::Val(v) => Some(v),
            SsaOperand::Imm(_) => None,
        }
    }

    /// Structural equality that compares float immediates by bit
    /// pattern, so `-0.0` and `0.0` (or two NaNs) are never conflated by
    /// an optimization decision.
    pub fn bit_eq(self, other: SsaOperand) -> bool {
        match (self, other) {
            (SsaOperand::Val(a), SsaOperand::Val(b)) => a == b,
            (SsaOperand::Imm(a), SsaOperand::Imm(b)) => imm_bits(a) == imm_bits(b),
            _ => false,
        }
    }
}

/// An immediate's (type tag, bit pattern) identity.
pub(crate) fn imm_bits(v: Value) -> (u8, u64) {
    match v {
        Value::F32(x) => (0, x.to_bits() as u64),
        Value::F64(x) => (1, x.to_bits()),
        Value::I32(x) => (2, x as u32 as u64),
        Value::I64(x) => (3, x as u64),
        Value::Bool(x) => (4, x as u64),
    }
}

/// The zero every register starts as on both execution tiers; reads of
/// never-written registers materialize as this immediate during SSA
/// construction.
pub(crate) fn zero(ty: Type) -> Value {
    match ty {
        Type::F32 => Value::F32(0.0),
        Type::F64 => Value::F64(0.0),
        Type::I32 => Value::I32(0),
        Type::I64 => Value::I64(0),
        Type::Bool => Value::Bool(false),
    }
}

/// One straight-line SSA operation (the structured [`Instr`]
/// (crate::ir::Instr) set minus control flow, with operands resolved to
/// SSA values).
#[derive(Debug, Clone, PartialEq)]
pub enum SsaOp {
    /// `dst = src`.
    Copy(SsaOperand),
    /// `dst = a <op> b`.
    Bin(BinOp, SsaOperand, SsaOperand),
    /// `dst = <op> a`.
    Un(UnOp, SsaOperand),
    /// `dst = a <cmp> b` (dst is Bool).
    Cmp(CmpOp, SsaOperand, SsaOperand),
    /// `dst = cond ? a : b`.
    Sel {
        /// Boolean selector.
        cond: SsaOperand,
        /// Value when the selector holds.
        a: SsaOperand,
        /// Value when it does not.
        b: SsaOperand,
    },
    /// `dst = convert<type-of-dst>(a)`.
    Cvt(SsaOperand),
    /// `dst = special-register`.
    Special(Special),
    /// `dst = *(space + addr)` — can trap (OOB/misaligned), so never
    /// removed, speculated, or hoisted.
    Ld {
        /// Memory space.
        space: Space,
        /// I64 byte address.
        addr: SsaOperand,
    },
    /// `*(space + addr) = value`.
    St {
        /// Memory space.
        space: Space,
        /// I64 byte address.
        addr: SsaOperand,
        /// Stored value.
        value: SsaOperand,
    },
    /// Atomic RMW; the instr's `dst` (if any) receives the old value.
    Atomic {
        /// RMW operation.
        op: AtomicOp,
        /// Memory space.
        space: Space,
        /// I64 byte address.
        addr: SsaOperand,
        /// Operand value.
        value: SsaOperand,
    },
    /// Block-wide barrier.
    Bar,
    /// Device-side assertion failure.
    Trap(String),
}

/// One SSA instruction: an optional defined value plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SsaInstr {
    /// The defined value (`None` for `St`/`Bar`/`Trap` and result-less
    /// atomics).
    pub dst: Option<ValId>,
    /// The operation.
    pub op: SsaOp,
}

/// A node of the structured SSA region tree.
#[derive(Debug, Clone, PartialEq)]
pub enum SsaNode {
    /// A straight-line instruction.
    Op(SsaInstr),
    /// A structured conditional with per-arm value yields: after the
    /// `If`, `results[i]` holds `then_yield[i]` or `else_yield[i]`
    /// depending on the taken arm.
    If {
        /// Boolean condition.
        cond: SsaOperand,
        /// Taken-arm region.
        then_: Vec<SsaNode>,
        /// Other-arm region.
        else_: Vec<SsaNode>,
        /// Value of each result slot at the end of the then arm.
        then_yield: Vec<SsaOperand>,
        /// Value of each result slot at the end of the else arm.
        else_yield: Vec<SsaOperand>,
        /// Fresh values bound after the conditional (parallel to the
        /// yield vectors).
        results: Vec<ValId>,
    },
    /// A structured loop in `scf.while` shape. Per iteration:
    /// `carried[i]` holds the slot value at the top of `cond_block`;
    /// after `cond_block`, `cond` is tested — on exit `results[i]`
    /// binds `exit_vals[i]`, otherwise `body` runs and `next[i]` feeds
    /// back into `carried[i]`. Values defined in `cond_block` dominate
    /// both `body` and the loop exit; values defined in `body` reach the
    /// next iteration only through `next`.
    While {
        /// Region arguments: one per loop-mutated slot.
        carried: Vec<ValId>,
        /// Slot values on loop entry.
        init: Vec<SsaOperand>,
        /// The condition region (always executes at least once).
        cond_block: Vec<SsaNode>,
        /// Boolean loop condition, evaluated after `cond_block`.
        cond: SsaOperand,
        /// Slot values at the end of `cond_block` (what escapes on exit).
        exit_vals: Vec<SsaOperand>,
        /// The loop body region.
        body: Vec<SsaNode>,
        /// Slot values at the end of `body`, fed back to `carried`.
        next: Vec<SsaOperand>,
        /// Fresh values bound after the loop (parallel to the slots).
        results: Vec<ValId>,
    },
}

/// A kernel in structured SSA form.
#[derive(Debug, Clone, PartialEq)]
pub struct SsaFunc {
    /// Kernel name.
    pub name: String,
    /// Parameter types; values `0..params.len()` are the parameters.
    pub params: Vec<Type>,
    /// Type of every SSA value.
    pub vals: Vec<Type>,
    /// Static shared-memory requirement in bytes.
    pub shared_bytes: u64,
    /// The body region.
    pub body: Vec<SsaNode>,
}

impl SsaFunc {
    /// Define a fresh value of type `ty`.
    pub fn new_val(&mut self, ty: Type) -> ValId {
        self.vals.push(ty);
        ValId((self.vals.len() - 1) as u32)
    }

    /// The type of a value.
    pub fn val_type(&self, v: ValId) -> Type {
        self.vals[v.0 as usize]
    }

    /// Straight-line operation count over the whole region tree (control
    /// nodes are structure, not operations).
    pub fn op_count(&self) -> u64 {
        fn count(nodes: &[SsaNode]) -> u64 {
            nodes
                .iter()
                .map(|n| match n {
                    SsaNode::Op(_) => 1,
                    SsaNode::If { then_, else_, .. } => 1 + count(then_) + count(else_),
                    SsaNode::While { cond_block, body, .. } => 1 + count(cond_block) + count(body),
                })
                .sum()
        }
        count(&self.body)
    }
}

/// Cumulative middle-end statistics, shaped like the other stat blocks
/// ([`ProgramCacheStats`](crate::lower::ProgramCacheStats)): cheap to
/// copy, merged across devices and runs, surfaced through `RunResult`,
/// `Sweep`, the serve report, and the gateway's `/v1/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Kernels that went through the middle-end (O1+; O0 bypasses it).
    pub kernels: u64,
    /// Structured instruction count before optimization, summed.
    pub instrs_before: u64,
    /// Structured instruction count after optimization, summed.
    pub instrs_after: u64,
    /// Individual pass executions across all fixpoint sweeps.
    pub pass_runs: u64,
    /// Constant-folding / copy-propagation rewrites.
    pub folded: u64,
    /// Instructions removed by dead-code elimination.
    pub dce_removed: u64,
    /// Redundant expressions (loads included) merged by CSE.
    pub cse_merged: u64,
    /// Loop-invariant instructions hoisted by LICM.
    pub licm_hoisted: u64,
    /// Strength-reduction rewrites.
    pub strength_reduced: u64,
    /// Per-vendor lowering rewrites (if-conversion, address folds).
    pub vendor_rewrites: u64,
}

impl OptStats {
    /// Field-wise sum.
    pub fn merged(self, o: OptStats) -> OptStats {
        OptStats {
            kernels: self.kernels + o.kernels,
            instrs_before: self.instrs_before + o.instrs_before,
            instrs_after: self.instrs_after + o.instrs_after,
            pass_runs: self.pass_runs + o.pass_runs,
            folded: self.folded + o.folded,
            dce_removed: self.dce_removed + o.dce_removed,
            cse_merged: self.cse_merged + o.cse_merged,
            licm_hoisted: self.licm_hoisted + o.licm_hoisted,
            strength_reduced: self.strength_reduced + o.strength_reduced,
            vendor_rewrites: self.vendor_rewrites + o.vendor_rewrites,
        }
    }

    /// Net structured instructions removed.
    pub fn removed(&self) -> u64 {
        self.instrs_before.saturating_sub(self.instrs_after)
    }

    /// Total rewrites across every pass.
    pub fn rewrites(&self) -> u64 {
        self.folded
            + self.dce_removed
            + self.cse_merged
            + self.licm_hoisted
            + self.strength_reduced
            + self.vendor_rewrites
    }
}

/// The standard pipeline for an optimization level: `O1` folds and
/// removes dead code; `O2` adds strength reduction, CSE, and LICM, plus
/// the vendor passes when a target [`DeviceSpec`] is known. The pass
/// list (and therefore the output) is deterministic for a given
/// `(level, spec)` pair.
pub fn pipeline(level: OptLevel, spec: Option<&DeviceSpec>) -> PassManager {
    let mut pm = PassManager::new();
    if level >= OptLevel::O1 {
        pm = pm.with(Box::new(ConstFold)).with(Box::new(Dce));
    }
    if level >= OptLevel::O2 {
        pm = pm.with(Box::new(StrengthReduce)).with(Box::new(Cse)).with(Box::new(Licm));
        if let Some(spec) = spec {
            pm = pm
                .with(Box::new(DivergenceFlatten::for_spec(spec)))
                .with(Box::new(AddrChainFold::for_spec(spec)));
        }
    }
    pm
}

/// Run the middle-end: destructure to SSA, optimize at `level` (with the
/// vendor passes when `spec` is given), and reconstruct a structured
/// kernel for the existing lowering path. `O0` returns the kernel
/// unchanged (a clone) — the reference path never round-trips.
pub fn optimize(
    kernel: &KernelIr,
    level: OptLevel,
    spec: Option<&DeviceSpec>,
) -> (KernelIr, OptStats) {
    if level == OptLevel::O0 {
        return (kernel.clone(), OptStats::default());
    }
    let before = kernel.instruction_count() as u64;
    let mut f = build::build(kernel);
    let pm = pipeline(level, spec);
    let pm_stats = pm.run(&mut f);
    let out = reconstruct::reconstruct(&f);
    debug_assert_eq!(out.validate(), Ok(()), "optimizer produced invalid IR");
    let mut stats = OptStats {
        kernels: 1,
        instrs_before: before,
        instrs_after: out.instruction_count() as u64,
        pass_runs: pm_stats.pass_runs(),
        ..OptStats::default()
    };
    for p in &pm_stats.passes {
        match p.name {
            "const-fold" => stats.folded += p.rewrites,
            "dce" => stats.dce_removed += p.rewrites,
            "cse" => stats.cse_merged += p.rewrites,
            "licm" => stats.licm_hoisted += p.rewrites,
            "strength-reduce" => stats.strength_reduced += p.rewrites,
            "divergence-flatten" | "addr-chain-fold" => stats.vendor_rewrites += p.rewrites,
            _ => {}
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests;
