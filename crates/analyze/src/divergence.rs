//! MCA002 — barrier under thread-divergent control flow.
//!
//! `__syncthreads()`-style barriers must be reached by **every** thread of
//! the block or none; a barrier guarded by a thread-dependent condition
//! deadlocks (or worse) on real hardware. The check runs a divergence
//! taint analysis over the structured tree: `TidX`/`LaneId` (and anything
//! computed from them, loaded behind a variant address, or assigned under
//! a variant guard) are *thread-variant*; `CtaIdX`/`NTidX`/`NCtaIdX` are
//! block-uniform. A `Bar` nested under any variant `If`/`While` guard is
//! flagged.
//!
//! The analysis is **warp-width-parametric**: a comparison between a
//! lane-affine expression and a constant is evaluated over every lane
//! `0..W` of the given width, and if the predicate comes out identical in
//! all of them (`lane < 32` at `W = 32` is uniformly true) the guard is
//! *uniform at that width* and a barrier under it is sound. The same
//! kernel re-analyzed at `W = 64` sees the predicate vary and flags the
//! barrier — exactly the class of code that runs on one vendor's warp
//! width and deadlocks on another's (the MCA009 portability check in
//! [`crate::portability`] is built on this per-width reachability).
//!
//! Taint is computed to fixpoint first (loops can feed variance back into
//! their own guards), then one recording pass emits diagnostics.

use crate::range::{lane_bindings, LaneBindings};
use crate::{Diagnostic, Loc, MCA002};
use mcmm_gpu_sim::ir::{CmpOp, Instr, KernelIr, Operand, Reg, Special};
use std::collections::BTreeSet;

struct Taint<'k> {
    kernel: &'k KernelIr,
    warp_width: u32,
    bindings: LaneBindings,
    variant: BTreeSet<Reg>,
    changed: bool,
    /// Divergent barrier locations (filled on the recording pass).
    found: Vec<(Loc, String)>,
    record: bool,
    next_loc: u32,
}

impl Taint<'_> {
    fn op_variant(&self, o: &Operand) -> bool {
        matches!(o, Operand::Reg(r) if self.variant.contains(r))
    }

    fn mark(&mut self, r: Reg) {
        if self.variant.insert(r) {
            self.changed = true;
        }
    }

    fn loc(&mut self) -> Loc {
        let l = Loc(self.next_loc);
        self.next_loc += 1;
        l
    }

    /// Is `a <op> b` provably the same boolean in every lane at this warp
    /// width? Holds when one side is lane-affine (`LaneId + k`), the other
    /// a constant, and brute-force evaluation over lanes `0..W` agrees.
    fn degenerate_cmp(&self, op: CmpOp, a: &Operand, b: &Operand) -> bool {
        let (off, c, flipped) = match (
            self.bindings.lane_of(a),
            self.bindings.const_of(b),
            self.bindings.lane_of(b),
            self.bindings.const_of(a),
        ) {
            (Some(off), Some(c), _, _) => (off, c, false),
            (_, _, Some(off), Some(c)) => (off, c, true),
            _ => return false,
        };
        let eval = |lane: i64| {
            let (x, y) = if flipped { (c, lane + off) } else { (lane + off, c) };
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        };
        let first = eval(0);
        (1..i64::from(self.warp_width)).all(|lane| eval(lane) == first)
    }

    fn walk(&mut self, body: &[Instr], div_ctx: bool, guard: &str) {
        for instr in body {
            let loc = self.loc();
            match instr {
                Instr::Mov { dst, src } => {
                    if div_ctx || self.op_variant(src) {
                        self.mark(*dst);
                    }
                }
                Instr::Bin { dst, a, b, .. } => {
                    if div_ctx || self.op_variant(a) || self.op_variant(b) {
                        self.mark(*dst);
                    }
                }
                Instr::Cmp { op, dst, a, b } => {
                    if div_ctx {
                        self.mark(*dst);
                    } else if self.degenerate_cmp(*op, a, b) {
                        // Uniform at this width: every lane computes the
                        // same boolean, so the result is NOT variant even
                        // though its operands are.
                    } else if self.op_variant(a) || self.op_variant(b) {
                        self.mark(*dst);
                    }
                }
                Instr::Un { dst, a, .. } | Instr::Cvt { dst, a } => {
                    if div_ctx || self.op_variant(a) {
                        self.mark(*dst);
                    }
                }
                Instr::Sel { dst, cond, a, b } => {
                    if div_ctx
                        || self.variant.contains(cond)
                        || self.op_variant(a)
                        || self.op_variant(b)
                    {
                        self.mark(*dst);
                    }
                }
                Instr::Special { dst, kind } => match kind {
                    Special::TidX | Special::LaneId => self.mark(*dst),
                    Special::CtaIdX | Special::NTidX | Special::NCtaIdX => {
                        if div_ctx {
                            self.mark(*dst);
                        }
                    }
                },
                Instr::Ld { dst, addr, .. } => {
                    // A load from a uniform address yields the same value
                    // in every lane; variant addresses (or partial
                    // execution) make the destination variant.
                    if div_ctx || self.op_variant(addr) {
                        self.mark(*dst);
                    }
                }
                Instr::St { .. } => {}
                Instr::Atomic { dst, .. } => {
                    // The returned old value depends on lane ordering.
                    if let Some(d) = dst {
                        self.mark(*d);
                    }
                }
                Instr::Bar => {
                    if div_ctx && self.record {
                        self.found.push((
                            loc,
                            format!(
                                "barrier at {loc} executes under thread-divergent control \
                                 flow ({guard}) in kernel `{}`: lanes that skip the guard \
                                 never arrive — deadlock on real devices",
                                self.kernel.name
                            ),
                        ));
                    }
                }
                Instr::If { cond, then_, else_ } => {
                    let inner = div_ctx || self.variant.contains(cond);
                    let g = if div_ctx {
                        guard.to_owned()
                    } else if inner {
                        format!("guard r{} depends on the thread id", cond.0)
                    } else {
                        guard.to_owned()
                    };
                    self.walk(then_, inner, &g);
                    self.walk(else_, inner, &g);
                }
                Instr::While { cond_block, cond, body } => {
                    let inner = div_ctx || self.variant.contains(cond);
                    let g = if div_ctx {
                        guard.to_owned()
                    } else if inner {
                        format!("loop condition r{} depends on the thread id", cond.0)
                    } else {
                        guard.to_owned()
                    };
                    // Lanes exiting the loop at different trip counts make
                    // everything in the loop divergent, including the
                    // condition block re-evaluations.
                    self.walk(cond_block, inner, &g);
                    self.walk(body, inner, &g);
                }
                Instr::Trap { .. } => {}
            }
        }
    }
}

fn fixpoint(kernel: &KernelIr, warp_width: u32) -> Taint<'_> {
    let mut t = Taint {
        kernel,
        warp_width: warp_width.max(1),
        bindings: lane_bindings(kernel),
        variant: BTreeSet::new(),
        changed: true,
        found: Vec::new(),
        record: false,
        next_loc: 0,
    };
    while t.changed {
        t.changed = false;
        t.next_loc = 0;
        t.walk(&kernel.body, false, "");
    }
    t
}

/// Run the MCA002 check at one warp width.
pub fn check(kernel: &KernelIr, warp_width: u32) -> Vec<Diagnostic> {
    let mut t = fixpoint(kernel, warp_width);
    t.record = true;
    t.next_loc = 0;
    t.walk(&kernel.body, false, "");
    t.found
        .into_iter()
        .map(|(loc, message)| Diagnostic { code: MCA002, loc: Some(loc), message })
        .collect()
}

/// Locations of barriers that are divergent at the given warp width —
/// the raw per-width reachability the MCA009 portability check compares
/// across vendor widths.
pub fn divergent_barrier_locs(kernel: &KernelIr, warp_width: u32) -> BTreeSet<Loc> {
    check(kernel, warp_width).into_iter().filter_map(|d| d.loc).collect()
}
