//! MCA006 — warp-width assumptions.
//!
//! Kernels frequently bake the warp width into lane arithmetic: `lane <
//! 32` guards, `lane & 31` masks, `lane == 63` last-lane tests. Such code
//! is correct on the vendor it was written for and silently computes
//! different values on a device with a different width — the classic
//! CUDA-to-HIP porting bug the paper's compatibility matrix exists to
//! predict.
//!
//! The check extends the value-range machinery's lane classification
//! ([`crate::range`]): for every comparison or mask whose operands are a
//! lane-affine expression (`LaneId + k`) and a warp-sized literal, it
//! **evaluates the expression for every thread of the block at each
//! candidate width** (`lane = tid mod W`) and compares the resulting
//! per-thread value vectors. If exactly one width produces a different
//! vector than the (agreeing) others, the kernel observably breaks on
//! devices of that width — and only claims of that shape are emitted, so
//! every finding is checkable by running the kernel on the simulated
//! devices and comparing output checksums (zero false claims by
//! construction).
//!
//! Expressions where all three widths disagree pairwise (`lane >= 16`)
//! have no majority behaviour to break *from*; they are deliberately not
//! flagged (documented under-coverage), as no single-vendor claim about
//! them could be validated.

use crate::range::{lane_bindings, LaneBindings};
use crate::{AnalysisOptions, Loc};
use mcmm_gpu_sim::ir::{BinOp, CmpOp, Instr, KernelIr, Operand};
use std::collections::BTreeSet;

/// Warp-sized literals worth suspecting: the three vendor widths and
/// their mask forms (`W` and `W - 1`).
const WARP_LITERALS: [i64; 6] = [15, 16, 31, 32, 63, 64];

/// One width-assumption finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthFinding {
    /// Pre-order location of the offending instruction.
    pub loc: Loc,
    /// The widths on which the expression computes a different result
    /// than on the (agreeing) majority of widths.
    pub breaking_widths: BTreeSet<u32>,
    /// Human-readable description.
    pub message: String,
}

/// The per-thread value vector of a lane expression at one width.
enum LaneExpr {
    /// `(lane + off) <op> c`
    Cmp(CmpOp, i64, i64),
    /// `(lane + off) & c`
    Mask(i64, i64),
}

impl LaneExpr {
    fn eval(&self, width: u32, block_dim: u32) -> Vec<i64> {
        (0..i64::from(block_dim))
            .map(|tid| {
                let lane = tid % i64::from(width);
                match *self {
                    LaneExpr::Cmp(op, off, c) => {
                        let x = lane + off;
                        i64::from(match op {
                            CmpOp::Eq => x == c,
                            CmpOp::Ne => x != c,
                            CmpOp::Lt => x < c,
                            CmpOp::Le => x <= c,
                            CmpOp::Gt => x > c,
                            CmpOp::Ge => x >= c,
                        })
                    }
                    LaneExpr::Mask(off, c) => (lane + off) & c,
                }
            })
            .collect()
    }
}

struct Scan<'k> {
    bindings: &'k LaneBindings,
    kernel: &'k KernelIr,
    opts: &'k AnalysisOptions,
    widths: &'k [u32],
    next_loc: u32,
    found: Vec<WidthFinding>,
}

impl Scan<'_> {
    fn loc(&mut self) -> Loc {
        let l = Loc(self.next_loc);
        self.next_loc += 1;
        l
    }

    /// Classify an (a, b) operand pair as lane-affine vs warp literal.
    fn lane_vs_literal(&self, a: &Operand, b: &Operand) -> Option<(i64, i64, bool)> {
        let pick = |off: Option<i64>, c: Option<i64>| match (off, c) {
            (Some(off), Some(c)) if WARP_LITERALS.contains(&c) => Some((off, c)),
            _ => None,
        };
        if let Some((off, c)) = pick(self.bindings.lane_of(a), self.bindings.const_of(b)) {
            return Some((off, c, false));
        }
        pick(self.bindings.lane_of(b), self.bindings.const_of(a)).map(|(off, c)| (off, c, true))
    }

    /// Evaluate `expr` at every candidate width; report if exactly one
    /// width disagrees with the otherwise-identical rest.
    fn judge(&mut self, loc: Loc, expr: LaneExpr, describe: &str) {
        let vectors: Vec<Vec<i64>> =
            self.widths.iter().map(|&w| expr.eval(w, self.opts.block_dim)).collect();
        let outliers: Vec<usize> = (0..vectors.len())
            .filter(|&i| !vectors.iter().enumerate().any(|(j, v)| j != i && *v == vectors[i]))
            .collect();
        // Exactly one width off the majority, the rest agreeing among
        // themselves: a checkable single-vendor break.
        if outliers.len() == 1 && vectors.len() >= 3 {
            let w = self.widths[outliers[0]];
            self.found.push(WidthFinding {
                loc,
                breaking_widths: BTreeSet::from([w]),
                message: format!(
                    "{describe} at {loc} in kernel `{}` computes different values on \
                     {w}-wide warps than on the other widths — a warp-width assumption \
                     that breaks on that vendor",
                    self.kernel.name
                ),
            });
        }
    }

    fn walk(&mut self, body: &[Instr]) {
        for instr in body {
            let loc = self.loc();
            match instr {
                Instr::Cmp { op, a, b, .. } => {
                    if let Some((off, c, flipped)) = self.lane_vs_literal(a, b) {
                        let op = if flipped { mirror(*op) } else { *op };
                        self.judge(
                            loc,
                            LaneExpr::Cmp(op, off, c),
                            &format!("lane comparison against literal {c}"),
                        );
                    }
                }
                Instr::Bin { op: BinOp::And, a, b, .. } => {
                    if let Some((off, c, _)) = self.lane_vs_literal(a, b) {
                        self.judge(
                            loc,
                            LaneExpr::Mask(off, c),
                            &format!("lane mask with literal {c:#x}"),
                        );
                    }
                }
                Instr::If { then_, else_, .. } => {
                    self.walk(then_);
                    self.walk(else_);
                }
                Instr::While { cond_block, body, .. } => {
                    self.walk(cond_block);
                    self.walk(body);
                }
                _ => {}
            }
        }
    }
}

/// Mirror a comparison so the lane expression sits on the left.
fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// Scan a kernel for warp-width assumptions across the candidate widths
/// (one per vendor device). Findings carry the widths they break on.
pub fn findings(kernel: &KernelIr, opts: &AnalysisOptions, widths: &[u32]) -> Vec<WidthFinding> {
    let bindings = lane_bindings(kernel);
    let mut s = Scan { bindings: &bindings, kernel, opts, widths, next_loc: 0, found: Vec::new() };
    s.walk(&kernel.body);
    s.found
}
