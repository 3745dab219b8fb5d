//! Control-flow graph construction over the structured kernel IR.
//!
//! The IR is structured (`If`/`While` trees, no raw branches), so the CFG
//! is reducible by construction. Lowering is still worth doing explicitly:
//! the dataflow analysis ([`crate::dataflow`]) wants basic blocks with
//! explicit edges.
//!
//! Instructions are numbered in **pre-order over the structured tree**
//! (an `If`/`While` gets a location before its children); every analysis
//! in this crate uses the same numbering, so locations in diagnostics can
//! be cross-referenced between checks.

use mcmm_gpu_sim::ir::{walk, Instr, KernelIr, Reg, Step};

/// A basic-block index into [`Cfg::blocks`].
pub type BlockId = usize;

/// A stable instruction location: pre-order index over the structured
/// body (control instructions are numbered before their children).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(pub u32);

impl std::fmt::Display for Loc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// How a basic block ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional edge.
    Jump(BlockId),
    /// Two-way branch on a boolean register (the `If`/`While` condition).
    Branch {
        /// The condition register.
        cond: Reg,
        /// Successor when the condition holds.
        then_: BlockId,
        /// Successor when it does not.
        else_: BlockId,
    },
    /// Kernel exit (the synthetic exit block, and blocks ending in `Trap`).
    Return,
}

impl Terminator {
    /// Successor block ids.
    pub fn succs(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch { then_, else_, .. } => vec![*then_, *else_],
            Terminator::Return => vec![],
        }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone)]
pub struct Block {
    /// Straight-line instructions (`If`/`While` never appear here — they
    /// are lowered into [`Terminator`] edges).
    pub instrs: Vec<(Loc, Instr)>,
    /// The block terminator.
    pub term: Terminator,
    /// Predecessor block ids (filled in after lowering).
    pub preds: Vec<BlockId>,
}

/// The lowered control-flow graph of one kernel.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All basic blocks; `blocks[entry]` is the entry.
    pub blocks: Vec<Block>,
    /// Entry block id (always 0).
    pub entry: BlockId,
    /// The synthetic single exit block id.
    pub exit: BlockId,
}

struct Lowerer {
    blocks: Vec<Block>,
    next_loc: u32,
    /// The block straight-line instructions currently land in.
    cur: BlockId,
    /// One frame per open `If`/`While` bracket of the structured walk.
    open: Vec<Frame>,
}

/// Bracket state for one open control instruction during the event-driven
/// lowering: everything needed to wire edges at the `ElseArm`/`LoopBody`
/// and `Exit` events.
enum Frame {
    If { else_head: BlockId, join: BlockId },
    While { header: BlockId, loop_exit: BlockId },
}

impl Lowerer {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block { instrs: Vec::new(), term: Terminator::Return, preds: Vec::new() });
        self.blocks.len() - 1
    }

    fn loc(&mut self) -> Loc {
        let l = Loc(self.next_loc);
        self.next_loc += 1;
        l
    }

    /// Consume one event of the shared structured walk
    /// ([`mcmm_gpu_sim::ir::walk`]). Pre-order locations fall out of the
    /// event order: every `Enter` takes the next location, so control
    /// instructions are numbered before their children exactly as before.
    fn step(&mut self, step: Step<'_>) {
        match step {
            Step::Enter(instr @ (Instr::If { cond, .. } | Instr::While { cond, .. })) => {
                let _ = self.loc();
                if matches!(instr, Instr::If { .. }) {
                    let then_head = self.new_block();
                    let else_head = self.new_block();
                    let join = self.new_block();
                    self.blocks[self.cur].term =
                        Terminator::Branch { cond: *cond, then_: then_head, else_: else_head };
                    self.open.push(Frame::If { else_head, join });
                    self.cur = then_head;
                } else {
                    let header = self.new_block();
                    let loop_exit = self.new_block();
                    self.blocks[self.cur].term = Terminator::Jump(header);
                    self.open.push(Frame::While { header, loop_exit });
                    self.cur = header;
                }
            }
            Step::ElseArm(_) => {
                let Some(Frame::If { else_head, join }) = self.open.last() else {
                    unreachable!("ElseArm outside an open If")
                };
                let (else_head, join) = (*else_head, *join);
                self.blocks[self.cur].term = Terminator::Jump(join);
                self.cur = else_head;
            }
            Step::LoopBody(Instr::While { cond, .. }) => {
                let Some(Frame::While { loop_exit, .. }) = self.open.last() else {
                    unreachable!("LoopBody outside an open While")
                };
                let loop_exit = *loop_exit;
                let body_head = self.new_block();
                self.blocks[self.cur].term =
                    Terminator::Branch { cond: *cond, then_: body_head, else_: loop_exit };
                self.cur = body_head;
            }
            Step::Exit(_) => match self.open.pop().expect("Exit matches an open bracket") {
                Frame::If { join, .. } => {
                    self.blocks[self.cur].term = Terminator::Jump(join);
                    self.cur = join;
                }
                Frame::While { header, loop_exit } => {
                    self.blocks[self.cur].term = Terminator::Jump(header);
                    self.cur = loop_exit;
                }
            },
            Step::Enter(instr @ Instr::Trap { .. }) => {
                let loc = self.loc();
                let cur = self.cur;
                self.blocks[cur].instrs.push((loc, instr.clone()));
                self.blocks[cur].term = Terminator::Return;
                // Anything after a trap in the same sequence is
                // unreachable; give it a fresh (pred-less) block.
                self.cur = self.new_block();
            }
            Step::Enter(instr) => {
                let loc = self.loc();
                let cur = self.cur;
                self.blocks[cur].instrs.push((loc, instr.clone()));
            }
            Step::LoopBody(_) => unreachable!("LoopBody always carries a While"),
        }
    }
}

impl Cfg {
    /// Lower a kernel body into a CFG with a single entry and a single
    /// synthetic exit.
    pub fn build(kernel: &KernelIr) -> Cfg {
        let mut lw = Lowerer { blocks: Vec::new(), next_loc: 0, cur: 0, open: Vec::new() };
        let entry = lw.new_block();
        lw.cur = entry;
        walk(&kernel.body, &mut |step| lw.step(step));
        debug_assert!(lw.open.is_empty(), "walk closes every bracket");
        let last = lw.cur;
        let exit = lw.new_block();
        lw.blocks[last].term = Terminator::Jump(exit);
        // Blocks ended by `Trap` keep `Return`; route them to the exit so
        // the graph has one sink.
        for id in 0..lw.blocks.len() {
            if id != exit && lw.blocks[id].term == Terminator::Return {
                lw.blocks[id].term = Terminator::Jump(exit);
            }
        }
        let mut cfg = Cfg { blocks: lw.blocks, entry, exit };
        cfg.fill_preds();
        cfg
    }

    fn fill_preds(&mut self) {
        for b in &mut self.blocks {
            b.preds.clear();
        }
        for id in 0..self.blocks.len() {
            for s in self.blocks[id].term.succs() {
                self.blocks[s].preds.push(id);
            }
        }
    }

    /// Blocks reachable from the entry, in reverse post-order.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut order = Vec::new();
        let mut seen = vec![false; self.blocks.len()];
        self.postorder_from(self.entry, &mut seen, &mut order);
        order.reverse();
        order
    }

    fn postorder_from(&self, start: BlockId, seen: &mut [bool], order: &mut Vec<BlockId>) {
        // Iterative DFS: (block, next-successor-index) stack.
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succs = self.blocks[b].term.succs();
            if *i < succs.len() {
                let s = succs[*i];
                *i += 1;
                if !seen[s] {
                    seen[s] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
                stack.pop();
            }
        }
    }

    /// Is `b` reachable from the entry?
    pub fn reachable(&self, b: BlockId) -> bool {
        self.reverse_postorder().contains(&b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, Space, Type, Value};

    fn guarded_saxpy() -> KernelIr {
        let mut k = KernelBuilder::new("saxpy");
        let a = k.param(Type::F32);
        let x = k.param(Type::I64);
        let y = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        k.if_(ok, |k| {
            let xi = k.ld_elem(Space::Global, Type::F32, x, i);
            let yi = k.ld_elem(Space::Global, Type::F32, y, i);
            let ax = k.bin(BinOp::Mul, a, xi);
            let s = k.bin(BinOp::Add, ax, yi);
            k.st_elem(Space::Global, y, i, s);
        });
        k.finish()
    }

    #[test]
    fn straight_line_is_three_blocks() {
        let mut k = KernelBuilder::new("line");
        let _ = k.param(Type::I64);
        let a = k.imm(Value::I32(1));
        k.bin_assign(BinOp::Add, a, Value::I32(2));
        let cfg = Cfg::build(&k.finish());
        // entry (with instrs) + unreachable none + exit: entry and exit.
        assert_eq!(cfg.blocks[cfg.entry].instrs.len(), 2);
        assert_eq!(cfg.blocks[cfg.entry].term, Terminator::Jump(cfg.exit));
    }

    #[test]
    fn if_lowers_to_diamond() {
        let cfg = Cfg::build(&guarded_saxpy());
        let entry = &cfg.blocks[cfg.entry];
        let Terminator::Branch { then_, else_, .. } = entry.term else {
            panic!("entry must end in a branch, got {:?}", entry.term);
        };
        // Both arms join; the join reaches the exit.
        let t_succ = cfg.blocks[then_].term.succs();
        let e_succ = cfg.blocks[else_].term.succs();
        assert_eq!(t_succ, e_succ, "both arms must reach the same join");
        assert!(cfg.blocks[else_].instrs.is_empty(), "empty else arm");
        // Each ld_elem/st_elem expands to 5 instructions (idx widen, size
        // imm, mul, add, memory op); plus the two arithmetic ops.
        assert_eq!(cfg.blocks[then_].instrs.len(), 3 * 5 + 2);
    }

    #[test]
    fn while_lowers_to_back_edge() {
        let mut k = KernelBuilder::new("loop");
        let _ = k.param(Type::I64);
        let i = k.imm(Value::I32(0));
        k.while_(
            |k| k.cmp(CmpOp::Lt, i, Value::I32(10)),
            |k| k.bin_assign(BinOp::Add, i, Value::I32(1)),
        );
        let cfg = Cfg::build(&k.finish());
        // Find the header: a block with a Branch terminator.
        let header = (0..cfg.blocks.len())
            .find(|&b| matches!(cfg.blocks[b].term, Terminator::Branch { .. }))
            .expect("loop header");
        let Terminator::Branch { then_: body, else_: after, .. } = cfg.blocks[header].term else {
            unreachable!()
        };
        assert_eq!(cfg.blocks[body].term.succs(), vec![header], "back edge");
        assert!(cfg.reachable(after));
    }

    #[test]
    fn trap_block_jumps_to_exit() {
        let mut k = KernelBuilder::new("trap");
        let _ = k.param(Type::I64);
        k.trap("boom");
        let a = k.imm(Value::I32(1)); // dead code after the trap
        let _ = a;
        let cfg = Cfg::build(&k.finish());
        assert_eq!(cfg.blocks[cfg.entry].term, Terminator::Jump(cfg.exit));
        // The dead block exists but is unreachable.
        let dead = (0..cfg.blocks.len())
            .find(|&b| b != cfg.entry && !cfg.blocks[b].instrs.is_empty())
            .expect("dead block holds the post-trap instruction");
        assert!(!cfg.reachable(dead));
    }

    #[test]
    fn preorder_locations_are_unique_and_dense() {
        let cfg = Cfg::build(&guarded_saxpy());
        let mut locs: Vec<u32> =
            cfg.blocks.iter().flat_map(|b| b.instrs.iter().map(|(l, _)| l.0)).collect();
        locs.sort_unstable();
        locs.dedup();
        // If-instructions take a loc but don't appear in any block, so the
        // sequence is strictly increasing yet may have gaps.
        assert!(locs.windows(2).all(|w| w[0] < w[1]));
    }
}
