//! MCS queue locks (Mellor-Crummey & Scott \[26\]) over LL/SC.
//!
//! Each thread owns a queue node per lock; the lock variable is a
//! tail pointer. Acquisition swaps the tail to self and, if there was
//! a predecessor, links behind it and spins on a *local* flag;
//! release hands the lock to the successor (or CASes the tail back to
//! null). Threads thus form an orderly software queue instead of
//! racing for the lock word — scalable under contention but with a
//! fixed software overhead per acquisition, which is exactly the
//! trade-off the paper's Figures 8-11 explore.
//!
//! `null` is represented by 0, so queue nodes must live at non-zero
//! addresses.

use tlr_cpu::asm::Asm;
use tlr_cpu::isa::Reg;

/// Byte offset of a queue node's `locked` spin flag.
pub const LOCKED_OFF: i64 = 0;
/// Byte offset of a queue node's `next` pointer. Kept on a separate
/// cache line from `locked` so a predecessor's link-in does not
/// invalidate the owner's spin line.
pub const NEXT_OFF: i64 = 64;
/// Bytes occupied by one queue node (two padded cache lines).
pub const QNODE_SIZE: u64 = 128;

/// Scratch registers for the MCS code. `zero` must hold 0 and `one`
/// must hold 1 (see [`init_regs`]).
#[derive(Debug, Clone, Copy)]
pub struct McsRegs {
    /// Holds constant 0.
    pub zero: Reg,
    /// Holds constant 1.
    pub one: Reg,
    /// Scratch (predecessor / successor pointer).
    pub t1: Reg,
    /// Scratch (LL value).
    pub t2: Reg,
    /// Scratch (SC flag).
    pub t3: Reg,
}

impl McsRegs {
    /// Allocates the five registers from the assembler.
    pub fn alloc(a: &mut Asm) -> Self {
        McsRegs { zero: a.reg(), one: a.reg(), t1: a.reg(), t2: a.reg(), t3: a.reg() }
    }
}

/// Loads the constants the lock code relies on. Call once before the
/// first [`acquire`].
pub fn init_regs(a: &mut Asm, r: &McsRegs) {
    a.li(r.zero, 0);
    a.li(r.one, 1);
}

/// Emits an MCS acquisition. `tail` holds the address of the lock's
/// tail pointer; `qnode` holds the address of this thread's queue
/// node for this lock.
pub fn acquire(a: &mut Asm, tail: Reg, qnode: Reg, r: &McsRegs) {
    // qnode.next = null; qnode.locked = 1 (before linking in).
    a.store(r.zero, qnode, NEXT_OFF);
    a.store(r.one, qnode, LOCKED_OFF);
    // pred = SWAP(tail, qnode)
    let swap = a.here();
    a.ll(r.t1, tail, 0);
    a.sc(r.t3, qnode, tail, 0);
    a.beq(r.t3, r.zero, swap);
    // If there was a predecessor, link behind it and spin locally.
    let acquired = a.label();
    a.beq(r.t1, r.zero, acquired);
    a.store(qnode, r.t1, NEXT_OFF); // pred.next = qnode
    let spin = a.here();
    a.load(r.t2, qnode, LOCKED_OFF);
    a.bne(r.t2, r.zero, spin);
    a.bind(acquired);
}

/// Emits an MCS release.
pub fn release(a: &mut Asm, tail: Reg, qnode: Reg, r: &McsRegs) {
    let done = a.label();
    let hand_over = a.label();
    // successor = qnode.next
    a.load(r.t1, qnode, NEXT_OFF);
    a.bne(r.t1, r.zero, hand_over);
    // No known successor: try CAS(tail, qnode, null).
    let cas = a.here();
    a.ll(r.t2, tail, 0);
    let wait_link = a.label();
    a.bne(r.t2, qnode, wait_link); // someone is mid-enqueue
    a.sc(r.t3, r.zero, tail, 0);
    a.beq(r.t3, r.zero, cas);
    a.jmp(done);
    // Wait for the enqueuer to link in, then hand over.
    a.bind(wait_link);
    let spin = a.here();
    a.load(r.t1, qnode, NEXT_OFF);
    a.beq(r.t1, r.zero, spin);
    a.bind(hand_over);
    a.store(r.zero, r.t1, LOCKED_OFF); // successor.locked = 0
    a.bind(done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use tlr_core::Machine;
    use tlr_mem::Addr;
    use tlr_sim::config::{MachineConfig, Scheme};

    const TAIL: u64 = 0x100;
    const COUNTER: u64 = 0x200;
    const QNODES: u64 = 0x1000;

    fn counter_program(me: usize, iters: u64) -> Arc<tlr_cpu::Program> {
        let mut a = Asm::new(format!("mcs-counter-{me}"));
        let tail = a.reg();
        let qnode = a.reg();
        let counter = a.reg();
        let n = a.reg();
        let v = a.reg();
        let r = McsRegs::alloc(&mut a);
        init_regs(&mut a, &r);
        a.li(tail, TAIL);
        a.li(qnode, QNODES + me as u64 * QNODE_SIZE);
        a.li(counter, COUNTER);
        a.li(n, iters);
        let top = a.here();
        acquire(&mut a, tail, qnode, &r);
        a.load(v, counter, 0);
        a.addi(v, v, 1);
        a.store(v, counter, 0);
        release(&mut a, tail, qnode, &r);
        a.rand_delay(1, 8);
        a.addi(n, n, -1);
        a.bne(n, r.zero, top);
        a.done();
        Arc::new(a.finish())
    }

    fn run(procs: usize, iters: u64) -> Machine {
        let mut cfg = MachineConfig::small(Scheme::Mcs, procs);
        cfg.max_cycles = 100_000_000;
        let programs = (0..procs).map(|i| counter_program(i, iters)).collect();
        let mut m = Machine::new(cfg, programs, HashSet::from([Addr(TAIL)]));
        m.run().expect("quiesce");
        m
    }

    #[test]
    fn mutual_exclusion() {
        for procs in [1, 2, 4] {
            let m = run(procs, 25);
            assert_eq!(m.final_word(Addr(COUNTER)), 25 * procs as u64, "{procs} procs");
            assert_eq!(m.final_word(Addr(TAIL)), 0, "queue empty at end");
        }
    }

    #[test]
    fn asymmetric_iteration_counts_stay_correct() {
        // Different per-thread work exercises handoffs where the queue
        // drains and refills repeatedly.
        let procs = 3;
        let mut cfg = MachineConfig::small(Scheme::Mcs, procs);
        cfg.max_cycles = 100_000_000;
        let programs = (0..procs).map(|i| counter_program(i, 5 + 10 * i as u64)).collect();
        let mut m = Machine::new(cfg, programs, HashSet::from([Addr(TAIL)]));
        m.run().expect("quiesce");
        assert_eq!(m.final_word(Addr(COUNTER)), 5 + 15 + 25);
        assert_eq!(m.final_word(Addr(TAIL)), 0, "queue empty at end");
    }

    #[test]
    fn heavier_contention_still_correct() {
        let m = run(8, 15);
        assert_eq!(m.final_word(Addr(COUNTER)), 120);
    }
}
