//! MCA001 — read of a register that may never have been written.
//!
//! One walk over the structured body carries, for every register, whether
//! every path reaching the current point wrote it, some path did, or none
//! did. Where the arms of an `If` meet, a register keeps its state if both
//! arms agree and is otherwise written on some path; a `While` header is
//! re-walked with its back edge until the state stops changing; and
//! nothing after a `Trap` in the same sequence is reachable. Parameter
//! registers arrive written.
//!
//! A read of a register no path wrote "is read" before initialization; a
//! read some path reaches without a write "may be read" (the classic
//! `if (...) x = ...; use(x)` shape). `If`/`While` conditions are reads
//! too, reported without a location.
//!
//! The interpreter zero-initializes registers, so this is a lint, not a
//! soundness hole in the simulator — but real toolchains (and real GPUs)
//! make no such promise, which is exactly why mature compilers warn here.

use crate::{Diagnostic, Loc, MCA001};
use mcmm_gpu_sim::ir::{Instr, KernelIr, Operand, Reg};

/// Which of the paths reaching a point wrote a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Written {
    Never,
    Maybe,
    Always,
}

/// Per-register [`Written`] state at one point; `None` where no path
/// reaches.
type State = Option<Vec<Written>>;

/// The state where two sets of paths meet.
fn join(a: State, b: State) -> State {
    match (a, b) {
        (Some(mut a), Some(b)) => {
            for (x, y) in a.iter_mut().zip(b) {
                if *x != y {
                    *x = Written::Maybe;
                }
            }
            Some(a)
        }
        (a, b) => a.or(b),
    }
}

/// The register an instruction writes, if any (`If`/`While` write none
/// themselves).
pub(crate) fn instr_def(instr: &Instr) -> Option<Reg> {
    match instr {
        Instr::Mov { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Cmp { dst, .. }
        | Instr::Sel { dst, .. }
        | Instr::Cvt { dst, .. }
        | Instr::Special { dst, .. }
        | Instr::Ld { dst, .. } => Some(*dst),
        Instr::Atomic { dst, .. } => *dst,
        Instr::St { .. }
        | Instr::Bar
        | Instr::Trap { .. }
        | Instr::If { .. }
        | Instr::While { .. } => None,
    }
}

/// The registers a straight-line instruction reads, in operand order.
fn instr_uses(instr: &Instr) -> [Option<Reg>; 3] {
    let reg = |o: &Operand| match o {
        Operand::Reg(r) => Some(*r),
        Operand::Imm(_) => None,
    };
    match instr {
        Instr::Mov { src: a, .. }
        | Instr::Un { a, .. }
        | Instr::Cvt { a, .. }
        | Instr::Ld { addr: a, .. } => [reg(a), None, None],
        Instr::Bin { a, b, .. }
        | Instr::Cmp { a, b, .. }
        | Instr::St { addr: a, value: b, .. }
        | Instr::Atomic { addr: a, value: b, .. } => [reg(a), reg(b), None],
        Instr::Sel { cond, a, b, .. } => [Some(*cond), reg(a), reg(b)],
        Instr::Special { .. }
        | Instr::Bar
        | Instr::Trap { .. }
        | Instr::If { .. }
        | Instr::While { .. } => [None; 3],
    }
}

struct Walk<'k> {
    kernel: &'k KernelIr,
    next_loc: u32,
    found: Vec<Diagnostic>,
}

impl Walk<'_> {
    /// Walk `body` from `state`, returning the state after it.
    fn walk(&mut self, body: &[Instr], mut state: State) -> State {
        for instr in body {
            let loc = Loc(self.next_loc);
            self.next_loc += 1;
            match instr {
                Instr::If { cond, then_, else_ } => {
                    self.branch(*cond, &state);
                    let then_out = self.walk(then_, state.clone());
                    let else_out = self.walk(else_, state);
                    state = join(then_out, else_out);
                }
                Instr::While { cond_block, cond, body } => {
                    // Each pass numbers the loop from the same location and
                    // only the pass at the fixpoint keeps its findings.
                    let (start, mark) = (self.next_loc, self.found.len());
                    let mut header = state;
                    state = loop {
                        self.next_loc = start;
                        self.found.truncate(mark);
                        let exit = self.walk(cond_block, header.clone());
                        self.branch(*cond, &exit);
                        let back_edge = self.walk(body, exit.clone());
                        let next = join(header.clone(), back_edge);
                        if next == header {
                            break exit;
                        }
                        header = next;
                    };
                }
                Instr::Trap { .. } => state = None,
                _ => {
                    let Some(written) = &mut state else { continue };
                    let uses = instr_uses(instr);
                    for (i, r) in uses.iter().enumerate() {
                        match *r {
                            // A register read twice by one instruction is
                            // one finding.
                            Some(r) if !uses[..i].contains(&Some(r)) => {
                                self.read(r, written[r.0 as usize], loc)
                            }
                            _ => {}
                        }
                    }
                    if let Some(d) = instr_def(instr) {
                        written[d.0 as usize] = Written::Always;
                    }
                }
            }
        }
        state
    }

    fn read(&mut self, r: Reg, written: Written, loc: Loc) {
        let verb = match written {
            Written::Always => return,
            Written::Maybe => "may be read",
            Written::Never => "is read",
        };
        self.found.push(Diagnostic {
            code: MCA001,
            loc: Some(loc),
            message: format!(
                "register r{} {verb} before initialization at {loc} in kernel `{}`",
                r.0, self.kernel.name
            ),
        });
    }

    fn branch(&mut self, cond: Reg, state: &State) {
        if matches!(state, Some(written) if written[cond.0 as usize] != Written::Always) {
            self.found.push(Diagnostic {
                code: MCA001,
                loc: None,
                message: format!(
                    "branch condition r{} may be read before initialization in kernel `{}`",
                    cond.0, self.kernel.name
                ),
            });
        }
    }
}

/// Run the MCA001 check.
pub fn check(kernel: &KernelIr) -> Vec<Diagnostic> {
    let params = kernel.params.len();
    let entry = (0..kernel.regs.len())
        .map(|r| if r < params { Written::Always } else { Written::Never })
        .collect();
    let mut w = Walk { kernel, next_loc: 0, found: Vec::new() };
    w.walk(&kernel.body, Some(entry));
    w.found
}
