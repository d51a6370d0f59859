//! A tiny assembler with labels and a register allocator.
//!
//! Workload generators build programs through this builder; labels
//! are resolved to absolute instruction indices at
//! [`Asm::finish`] time.
//!
//! # Example
//!
//! ```
//! use tlr_cpu::asm::Asm;
//!
//! // A countdown loop.
//! let mut a = Asm::new("countdown");
//! let n = a.reg();
//! let zero = a.reg();
//! a.li(n, 10);
//! a.li(zero, 0);
//! let top = a.here();
//! a.addi(n, n, -1);
//! a.bne(n, zero, top);
//! a.done();
//! let p = a.finish();
//! assert!(p.len() > 0);
//! ```

use crate::isa::{Op, Program, Reg, NUM_REGS};

/// A forward or backward branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Program builder.
#[derive(Debug)]
pub struct Asm {
    name: String,
    ops: Vec<Op>,
    /// label id -> resolved instruction index
    labels: Vec<Option<u32>>,
    /// (op index, label id) fixups for forward references
    fixups: Vec<(usize, usize)>,
    next_reg: u8,
}

impl Asm {
    /// Starts a new program.
    pub fn new(name: impl Into<String>) -> Self {
        Asm { name: name.into(), ops: Vec::new(), labels: Vec::new(), fixups: Vec::new(), next_reg: 0 }
    }

    /// Allocates a fresh register.
    ///
    /// # Panics
    ///
    /// Panics when all 32 registers are taken.
    pub fn reg(&mut self) -> Reg {
        assert!((self.next_reg as usize) < NUM_REGS, "out of registers");
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Creates an unbound label for forward branches.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.ops.len() as u32);
    }

    /// Creates a label bound to the current position (for backward
    /// branches).
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    fn push_branch(&mut self, label: Label, make: impl FnOnce(u32) -> Op) {
        match self.labels[label.0] {
            Some(t) => self.push(make(t)),
            None => {
                self.fixups.push((self.ops.len(), label.0));
                self.push(make(0));
            }
        }
    }

    /// `rd = imm`
    pub fn li(&mut self, rd: Reg, imm: u64) {
        self.push(Op::Li(rd, imm));
    }

    /// `rd = rs`
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        self.push(Op::Mov(rd, rs));
    }

    /// `rd = ra + rb`
    pub fn add(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.push(Op::Add(rd, ra, rb));
    }

    /// `rd = ra + imm`
    pub fn addi(&mut self, rd: Reg, ra: Reg, imm: i64) {
        self.push(Op::AddI(rd, ra, imm));
    }

    /// `rd = ra - rb`
    pub fn sub(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.push(Op::Sub(rd, ra, rb));
    }

    /// `rd = ra * rb`
    pub fn mul(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.push(Op::Mul(rd, ra, rb));
    }

    /// `rd = ra & rb`
    pub fn and(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.push(Op::And(rd, ra, rb));
    }

    /// `rd = ra | rb`
    pub fn or(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.push(Op::Or(rd, ra, rb));
    }

    /// `rd = ra ^ rb`
    pub fn xor(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.push(Op::Xor(rd, ra, rb));
    }

    /// `rd = ra << sh`
    pub fn shli(&mut self, rd: Reg, ra: Reg, sh: u8) {
        self.push(Op::ShlI(rd, ra, sh));
    }

    /// `rd = ra >> sh`
    pub fn shri(&mut self, rd: Reg, ra: Reg, sh: u8) {
        self.push(Op::ShrI(rd, ra, sh));
    }

    /// `rd = MEM[ra + off]`
    pub fn load(&mut self, rd: Reg, ra: Reg, off: i64) {
        self.push(Op::Load(rd, ra, off));
    }

    /// `MEM[ra + off] = rs`
    pub fn store(&mut self, rs: Reg, ra: Reg, off: i64) {
        self.push(Op::Store(rs, ra, off));
    }

    /// `rd = MEM[ra + off]`, link set.
    pub fn ll(&mut self, rd: Reg, ra: Reg, off: i64) {
        self.push(Op::LoadLinked(rd, ra, off));
    }

    /// `flag = try { MEM[ra + off] = rs }`
    pub fn sc(&mut self, flag: Reg, rs: Reg, ra: Reg, off: i64) {
        self.push(Op::StoreCond(flag, rs, ra, off));
    }

    /// Branch if equal.
    pub fn beq(&mut self, ra: Reg, rb: Reg, l: Label) {
        self.push_branch(l, |t| Op::Beq(ra, rb, t));
    }

    /// Branch if not equal.
    pub fn bne(&mut self, ra: Reg, rb: Reg, l: Label) {
        self.push_branch(l, |t| Op::Bne(ra, rb, t));
    }

    /// Branch if less than (unsigned).
    pub fn blt(&mut self, ra: Reg, rb: Reg, l: Label) {
        self.push_branch(l, |t| Op::Blt(ra, rb, t));
    }

    /// Branch if greater or equal (unsigned).
    pub fn bge(&mut self, ra: Reg, rb: Reg, l: Label) {
        self.push_branch(l, |t| Op::Bge(ra, rb, t));
    }

    /// Unconditional jump.
    pub fn jmp(&mut self, l: Label) {
        self.push_branch(l, Op::Jmp);
    }

    /// Fixed compute delay.
    pub fn delay(&mut self, cycles: u32) {
        self.push(Op::Delay(cycles));
    }

    /// Uniform random compute delay in `[min, max]`.
    pub fn rand_delay(&mut self, min: u32, max: u32) {
        assert!(min <= max, "invalid delay range");
        self.push(Op::RandDelay(min, max));
    }

    /// Non-undoable operation.
    pub fn io(&mut self) {
        self.push(Op::Io);
    }

    /// Memory fence.
    pub fn fence(&mut self) {
        self.push(Op::Fence);
    }

    /// No-op.
    pub fn nop(&mut self) {
        self.push(Op::Nop);
    }

    /// Thread end.
    pub fn done(&mut self) {
        self.push(Op::Done);
    }

    /// Current instruction count (next op's index).
    pub fn position(&self) -> usize {
        self.ops.len()
    }

    /// Resolves labels and produces the program.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label is unbound.
    pub fn finish(mut self) -> Program {
        for (op_idx, label_id) in std::mem::take(&mut self.fixups) {
            let target = self.labels[label_id]
                .unwrap_or_else(|| panic!("label {label_id} referenced but never bound"));
            self.ops[op_idx] = match self.ops[op_idx] {
                Op::Beq(a, b, _) => Op::Beq(a, b, target),
                Op::Bne(a, b, _) => Op::Bne(a, b, target),
                Op::Blt(a, b, _) => Op::Blt(a, b, target),
                Op::Bge(a, b, _) => Op::Bge(a, b, target),
                Op::Jmp(_) => Op::Jmp(target),
                other => unreachable!("fixup on non-branch {other:?}"),
            };
        }
        // A program lives as long as the run: keep its ops, not the
        // doubling slack of assembling them.
        self.ops.shrink_to_fit();
        Program::new(self.name, self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_branch_resolves() {
        let mut a = Asm::new("t");
        let r = a.reg();
        a.li(r, 0);
        let top = a.here();
        a.nop();
        a.jmp(top);
        let p = a.finish();
        assert_eq!(p.op(2), Some(Op::Jmp(1)));
    }

    #[test]
    fn forward_branch_resolves() {
        let mut a = Asm::new("t");
        let r = a.reg();
        let end = a.label();
        a.beq(r, r, end);
        a.nop();
        a.bind(end);
        a.done();
        let p = a.finish();
        assert_eq!(p.op(0), Some(Op::Beq(Reg(0), Reg(0), 2)));
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut a = Asm::new("t");
        let l = a.label();
        a.jmp(l);
        a.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new("t");
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn register_allocation_is_sequential() {
        let mut a = Asm::new("t");
        assert_eq!(a.reg(), Reg(0));
        assert_eq!(a.reg(), Reg(1));
    }

    #[test]
    #[should_panic(expected = "out of registers")]
    fn register_exhaustion_panics() {
        let mut a = Asm::new("t");
        for _ in 0..33 {
            a.reg();
        }
    }

    #[test]
    fn position_tracks_ops() {
        let mut a = Asm::new("t");
        assert_eq!(a.position(), 0);
        a.nop();
        a.nop();
        assert_eq!(a.position(), 2);
    }
}
