//! §4 stability properties: non-blocking behaviour, restartable
//! critical sections, and the resource-constraint fallbacks of §3.3.

use std::collections::HashSet;
use std::sync::Arc;

use tlr_repro::core::Machine;
use tlr_repro::cpu::{Asm, Program, Reg};
use tlr_repro::mem::Addr;
use tlr_repro::sim::config::{MachineConfig, Scheme};
use tlr_repro::sync::tatas::{self, TatasRegs};

const LOCK: u64 = 0x100;
const COUNTER: u64 = 0x200;
const HOLDER: u64 = 0x280;

/// Endless increment loop; `HOLDER` advertises who is inside the
/// critical section; register r3 counts completed sections.
fn worker(me: usize, dwell: u32) -> Arc<Program> {
    let mut a = Asm::new(format!("worker-{me}"));
    let lock = a.reg();
    let counter = a.reg();
    let holder = a.reg();
    let done_count = a.reg();
    assert_eq!(done_count, Reg(3));
    let v = a.reg();
    let myid = a.reg();
    let r = TatasRegs::alloc(&mut a);
    tatas::init_regs(&mut a, &r);
    a.li(lock, LOCK);
    a.li(counter, COUNTER);
    a.li(holder, HOLDER);
    a.li(myid, me as u64 + 1);
    let top = a.here();
    tatas::acquire(&mut a, lock, &r);
    a.store(myid, holder, 0);
    a.load(v, counter, 0);
    a.addi(v, v, 1);
    a.delay(dwell);
    a.store(v, counter, 0);
    a.store(r.zero, holder, 0);
    tatas::release(&mut a, lock, &r);
    a.addi(done_count, done_count, 1);
    a.rand_delay(20, 120);
    a.jmp(top);
    a.done(); // unreachable; loop is endless
    Arc::new(a.finish())
}

fn build(scheme: Scheme, procs: usize) -> Machine {
    let cfg = MachineConfig::paper_default(scheme, procs);
    Machine::new(cfg, (0..procs).map(|i| worker(i, 20)).collect(), HashSet::from([Addr(LOCK)]))
}

/// Runs until some thread is inside its critical section; returns it.
fn catch_victim(m: &mut Machine, scheme: Scheme, procs: usize) -> usize {
    for _ in 0..1_000_000 {
        m.step();
        if scheme.elision_enabled() {
            if let Some(v) = (0..procs).find(|&i| m.in_txn(i)) {
                return v;
            }
        } else {
            let h = m.final_word(Addr(HOLDER));
            if h != 0 {
                return h as usize - 1;
            }
        }
    }
    panic!("no thread ever entered a critical section");
}

fn total_progress(m: &Machine, procs: usize, except: usize) -> u64 {
    (0..procs).filter(|&i| i != except).map(|i| m.reg(i, Reg(3))).sum()
}

#[test]
fn descheduled_holder_blocks_others_under_base() {
    let procs = 4;
    let mut m = build(Scheme::Base, procs);
    let victim = catch_victim(&mut m, Scheme::Base, procs);
    m.deschedule(victim);
    let before = total_progress(&m, procs, victim);
    for _ in 0..150_000 {
        m.step();
    }
    let after = total_progress(&m, procs, victim);
    // The lock is held by the sleeping thread: nobody completes more
    // than the sections already in flight.
    assert!(after - before <= 1, "BASE should convoy, progressed {}", after - before);
    // Re-scheduling resumes the system.
    m.reschedule(victim);
    for _ in 0..150_000 {
        m.step();
    }
    assert!(total_progress(&m, procs, victim) > after + 10, "resumes after re-schedule");
}

#[test]
fn descheduled_thread_does_not_block_others_under_tlr() {
    let procs = 4;
    let mut m = build(Scheme::Tlr, procs);
    let victim = catch_victim(&mut m, Scheme::Tlr, procs);
    m.deschedule(victim);
    let before = total_progress(&m, procs, victim);
    for _ in 0..150_000 {
        m.step();
    }
    let after = total_progress(&m, procs, victim);
    assert!(
        after - before > 50,
        "TLR is non-blocking: others must keep committing, got {}",
        after - before
    );
    assert_eq!(m.final_word(Addr(LOCK)), 0, "the lock was never actually held");
}

#[test]
fn killed_thread_leaves_consistent_state_under_tlr() {
    // §4 restartable critical sections: killing a thread mid-
    // transaction discards its speculative updates; the shared
    // counter equals the completed critical sections of everyone.
    let procs = 4;
    let mut m = build(Scheme::Tlr, procs);
    let victim = catch_victim(&mut m, Scheme::Tlr, procs);
    m.kill(victim);
    for _ in 0..100_000 {
        m.step();
    }
    let done: u64 = (0..procs).map(|i| m.reg(i, Reg(3))).sum();
    // Let pending sections finish counting: run a few more cycles and
    // re-sample until stable.
    let mut counter = m.final_word(Addr(COUNTER));
    for _ in 0..50_000 {
        m.step();
    }
    counter = counter.max(m.final_word(Addr(COUNTER)));
    let done2: u64 = (0..procs).map(|i| m.reg(i, Reg(3))).sum();
    assert!(done2 >= done);
    // Consistency: counter is within the sections currently being
    // retired (the victim's aborted section must NOT have leaked a
    // partial update).
    assert!(
        counter >= done && counter <= done2 + 1,
        "counter {counter} vs completed sections {done}..{done2}"
    );
}

#[test]
fn io_inside_critical_section_falls_back_to_lock() {
    // §2.2: "operations that cannot be undone (e.g., I/O)" force TLR
    // to acquire the lock.
    let mut a = Asm::new("io-cs");
    let lock = a.reg();
    let n = a.reg();
    let r = TatasRegs::alloc(&mut a);
    tatas::init_regs(&mut a, &r);
    a.li(lock, LOCK);
    a.li(n, 8);
    let top = a.here();
    tatas::acquire(&mut a, lock, &r);
    a.io();
    tatas::release(&mut a, lock, &r);
    a.addi(n, n, -1);
    a.bne(n, r.zero, top);
    a.done();
    let p = Arc::new(a.finish());
    let cfg = MachineConfig::paper_default(Scheme::Tlr, 2);
    let mut m = Machine::new(cfg, vec![p.clone(), p], HashSet::from([Addr(LOCK)]));
    m.run().expect("quiesces");
    let s = m.stats();
    assert!(s.sum(|n| n.fallbacks_io) > 0, "I/O must abort the elision");
    assert_eq!(m.final_word(Addr(LOCK)), 0);
}

#[test]
fn write_buffer_overflow_falls_back_to_lock() {
    // §3.3: a critical section writing more unique lines than the
    // write buffer holds cannot be locally buffered.
    let mut a = Asm::new("big-cs");
    let lock = a.reg();
    let p_reg = a.reg();
    let end = a.reg();
    let n = a.reg();
    let r = TatasRegs::alloc(&mut a);
    tatas::init_regs(&mut a, &r);
    a.li(lock, LOCK);
    a.li(n, 4);
    let top = a.here();
    tatas::acquire(&mut a, lock, &r);
    a.li(p_reg, 0x10000);
    a.li(end, 0x10000 + 80 * 64); // 80 lines > 64-entry write buffer
    let row = a.here();
    a.store(r.one, p_reg, 0);
    a.addi(p_reg, p_reg, 64);
    a.blt(p_reg, end, row);
    tatas::release(&mut a, lock, &r);
    a.addi(n, n, -1);
    a.bne(n, r.zero, top);
    a.done();
    let p = Arc::new(a.finish());
    let cfg = MachineConfig::paper_default(Scheme::Tlr, 2);
    let mut m = Machine::new(cfg, vec![p.clone(), p], HashSet::from([Addr(LOCK)]));
    m.run().expect("quiesces");
    assert!(m.stats().sum(|n| n.fallbacks_resource) > 0, "resource fallback expected");
    for i in 0..80u64 {
        assert_eq!(m.final_word(Addr(0x10000 + i * 64)), 1, "line {i} written");
    }
}

#[test]
fn nesting_beyond_depth_treated_as_data() {
    // §4: "Multiple nested locks can also be elided if hardware for
    // tracking these elisions is sufficient. If some inner lock cannot
    // be elided ... the inner lock is treated as data."
    let depth = 10; // > max_elision_depth (8)
    let nest_counter: u64 = 0x2000; // clear of the nested-lock range
    let mut a = Asm::new("nested");
    let base = a.reg();
    let n = a.reg();
    let v = a.reg();
    let counter = a.reg();
    let r = TatasRegs::alloc(&mut a);
    tatas::init_regs(&mut a, &r);
    a.li(base, LOCK);
    a.li(counter, nest_counter);
    a.li(n, 6);
    let top = a.here();
    for d in 0..depth {
        tatas::acquire_off(&mut a, base, (d * 64) as i64, &r);
    }
    a.load(v, counter, 0);
    a.addi(v, v, 1);
    a.store(v, counter, 0);
    for d in (0..depth).rev() {
        tatas::release_off(&mut a, base, (d * 64) as i64, &r);
    }
    a.rand_delay(2, 10);
    a.addi(n, n, -1);
    a.bne(n, r.zero, top);
    a.done();
    let p = Arc::new(a.finish());
    let locks: HashSet<Addr> = (0..depth).map(|d| Addr(LOCK + d * 64)).collect();
    let cfg = MachineConfig::paper_default(Scheme::Tlr, 3);
    let mut m = Machine::new(cfg, vec![p.clone(), p.clone(), p], locks);
    m.run().expect("quiesces");
    assert_eq!(m.final_word(Addr(nest_counter)), 18, "mutual exclusion holds across nesting");
    for d in 0..depth {
        assert_eq!(m.final_word(Addr(LOCK + d * 64)), 0, "lock {d} free at end");
    }
}

#[test]
fn deep_nesting_within_depth_elides_fully() {
    let depth = 4; // within max_elision_depth
    let nest_counter: u64 = 0x2000;
    let mut a = Asm::new("nested-ok");
    let base = a.reg();
    let n = a.reg();
    let v = a.reg();
    let counter = a.reg();
    let r = TatasRegs::alloc(&mut a);
    tatas::init_regs(&mut a, &r);
    a.li(base, LOCK);
    a.li(counter, nest_counter);
    a.li(n, 10);
    let top = a.here();
    for d in 0..depth {
        tatas::acquire_off(&mut a, base, (d * 64) as i64, &r);
    }
    a.load(v, counter, 0);
    a.addi(v, v, 1);
    a.store(v, counter, 0);
    for d in (0..depth).rev() {
        tatas::release_off(&mut a, base, (d * 64) as i64, &r);
    }
    a.rand_delay(2, 10);
    a.addi(n, n, -1);
    a.bne(n, r.zero, top);
    a.done();
    let p = Arc::new(a.finish());
    let locks: HashSet<Addr> = (0..depth).map(|d| Addr(LOCK + d * 64)).collect();
    let cfg = MachineConfig::paper_default(Scheme::Tlr, 2);
    let mut m = Machine::new(cfg, vec![p.clone(), p], locks);
    m.run().expect("quiesces");
    assert_eq!(m.final_word(Addr(nest_counter)), 20);
    assert!(m.stats().total_commits() > 0, "nested transactions committed lock-free");
}

#[test]
fn guaranteed_footprint_never_falls_back() {
    // §4: "if the system has a 16 entry victim cache and a 4-way data
    // cache, the programmer can be sure any transaction accessing 20
    // cache lines or less is ensured a lock-free execution." We shrink
    // the hierarchy and aim every accessed line at ONE cache set (the
    // worst case) — a transaction within the guaranteed footprint must
    // never take a resource fallback.
    let mut cfg = MachineConfig::paper_default(Scheme::Tlr, 2);
    cfg.l1_sets = 4;
    cfg.l1_ways = 2;
    cfg.victim_entries = 4;
    // The guarantee is a *resource* guarantee: give each processor a
    // disjoint footprint (the lock word lives in a different set, so
    // it does not consume hot-set capacity).
    let lines = cfg.guaranteed_txn_written_lines() as u64 - 1; // data + lock line headroom
    let set_stride = cfg.l1_sets as u64 * 64; // same set every time
    let worker = |base: u64| {
        let mut a = Asm::new("footprint");
        let lock = a.reg();
        let p_reg = a.reg();
        let n = a.reg();
        let i = a.reg();
        let lim = a.reg();
        let r = TatasRegs::alloc(&mut a);
        tatas::init_regs(&mut a, &r);
        a.li(lock, LOCK + 64); // set 1, away from the data set
        a.li(n, 12);
        let top = a.here();
        tatas::acquire(&mut a, lock, &r);
        a.li(p_reg, base);
        a.li(i, 0);
        a.li(lim, lines);
        let row = a.here();
        a.store(r.one, p_reg, 0);
        a.addi(p_reg, p_reg, set_stride as i64);
        a.addi(i, i, 1);
        a.blt(i, lim, row);
        tatas::release(&mut a, lock, &r);
        a.rand_delay(2, 16);
        a.addi(n, n, -1);
        a.bne(n, r.zero, top);
        a.done();
        Arc::new(a.finish())
    };
    let mut m = Machine::new(
        cfg,
        vec![worker(0x40000), worker(0x80000)],
        HashSet::from([Addr(LOCK + 64)]),
    );
    m.run().expect("quiesces");
    let s = m.stats();
    assert_eq!(
        s.sum(|n| n.fallbacks_resource),
        0,
        "a transaction within the architectural footprint must never exhaust resources"
    );
    assert!(s.total_commits() > 0);
}

#[test]
fn footprint_beyond_guarantee_falls_back_but_stays_correct() {
    // One line past the guarantee, all in one set: the victim cache
    // overflows with transactional lines and TLR must acquire the
    // lock instead — correctness is unconditional either way (§3.3).
    let mut cfg = MachineConfig::paper_default(Scheme::Tlr, 2);
    cfg.l1_sets = 4;
    cfg.l1_ways = 2;
    cfg.victim_entries = 4;
    let lines = cfg.guaranteed_txn_lines() as u64 + 2;
    let set_stride = cfg.l1_sets as u64 * 64;
    let mut a = Asm::new("overflow");
    let lock = a.reg();
    let p_reg = a.reg();
    let n = a.reg();
    let i = a.reg();
    let lim = a.reg();
    let v = a.reg();
    let r = TatasRegs::alloc(&mut a);
    tatas::init_regs(&mut a, &r);
    a.li(lock, LOCK);
    a.li(n, 6);
    let top = a.here();
    tatas::acquire(&mut a, lock, &r);
    a.li(p_reg, 0x40000);
    a.li(i, 0);
    a.li(lim, lines);
    let row = a.here();
    a.load(v, p_reg, 0);
    a.addi(v, v, 1);
    a.store(v, p_reg, 0);
    a.addi(p_reg, p_reg, set_stride as i64);
    a.addi(i, i, 1);
    a.blt(i, lim, row);
    tatas::release(&mut a, lock, &r);
    a.rand_delay(2, 16);
    a.addi(n, n, -1);
    a.bne(n, r.zero, top);
    a.done();
    let p = Arc::new(a.finish());
    let mut m = Machine::new(cfg, vec![p.clone(), p], HashSet::from([Addr(LOCK)]));
    m.run().expect("quiesces");
    assert!(m.stats().sum(|n| n.fallbacks_resource) > 0, "overflow must force fallbacks");
    for k in 0..lines {
        assert_eq!(m.final_word(Addr(0x40000 + k * set_stride)), 12, "line {k} counted");
    }
}

#[test]
fn preemptive_scheduling_stays_correct_under_tlr() {
    // §4 / §3.3: a preempted transaction is discarded and retried;
    // frequent preemption costs time, never correctness.
    use tlr_repro::core::{run_preemptive, Preemption};
    let procs = 4;
    let iters = 40u64;
    let mut a = Asm::new("preempt-worker");
    let lock = a.reg();
    let counter = a.reg();
    let n = a.reg();
    let v = a.reg();
    let r = TatasRegs::alloc(&mut a);
    tatas::init_regs(&mut a, &r);
    a.li(lock, LOCK);
    a.li(counter, COUNTER);
    a.li(n, iters);
    let top = a.here();
    tatas::acquire(&mut a, lock, &r);
    a.load(v, counter, 0);
    a.addi(v, v, 1);
    a.delay(15);
    a.store(v, counter, 0);
    tatas::release(&mut a, lock, &r);
    a.rand_delay(2, 16);
    a.addi(n, n, -1);
    a.bne(n, r.zero, top);
    a.done();
    let p = Arc::new(a.finish());
    let cfg = MachineConfig::paper_default(Scheme::Tlr, procs);
    let mut m = Machine::new(cfg, vec![p; procs], HashSet::from([Addr(LOCK)]));
    let report = run_preemptive(&mut m, Preemption::new(500, 300)).expect("quiesces");
    assert_eq!(m.final_word(Addr(COUNTER)), procs as u64 * iters);
    assert!(report.preemptions > 10, "preemption actually happened");
    assert!(
        report.preempted_in_txn > 0,
        "some preemptions landed inside critical sections and were absorbed"
    );
    assert_eq!(m.final_word(Addr(LOCK)), 0);
}

#[test]
fn preemptive_scheduling_correct_under_every_scheme() {
    use tlr_repro::core::Preemption;
    for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
        let procs = 3;
        let mut m = {
            let cfg = MachineConfig::paper_default(scheme, procs);
            Machine::new(cfg, (0..procs).map(|i| worker(i, 10)).collect(), HashSet::from([Addr(LOCK)]))
        };
        // The endless `worker` never finishes; bound the run and check
        // invariants mid-flight instead.
        let mut preempted = 0u64;
        let p = Preemption::new(800, 400);
        let mut next_preempt = p.quantum;
        let mut paused: Option<(usize, u64)> = None;
        for _ in 0..400_000u64 {
            if let Some((v, at)) = paused {
                if m.cycle() >= at {
                    m.reschedule(v);
                    paused = None;
                }
            }
            if paused.is_none() && m.cycle() >= next_preempt {
                let v = (m.cycle() as usize) % procs;
                m.deschedule(v);
                preempted += 1;
                paused = Some((v, m.cycle() + p.pause));
                next_preempt = m.cycle() + p.quantum;
            }
            m.step();
        }
        if let Some((v, _)) = paused {
            m.reschedule(v);
        }
        // Invariant: the counter equals the number of completed
        // critical sections (+ in-flight slack). The counter line may
        // be in flight on the data network at any instant, so sample
        // over a settling window.
        let done: u64 = (0..procs).map(|i| m.reg(i, Reg(3))).sum();
        let mut counter = m.final_word(Addr(COUNTER));
        for _ in 0..5_000 {
            m.step();
            counter = counter.max(m.final_word(Addr(COUNTER)));
        }
        let done_after: u64 = (0..procs).map(|i| m.reg(i, Reg(3))).sum();
        assert!(
            counter >= done.saturating_sub(1) && counter <= done_after + procs as u64,
            "{scheme}: counter {counter} vs completed {done}..{done_after}"
        );
        assert!(preempted > 100);
    }
}

#[test]
fn pause_longer_than_the_quantum_does_not_starve_the_last_thread() {
    // With pause >= quantum, every resume lands on a due preemption.
    // Once one thread is left unfinished, the scheduler must not
    // deschedule it again at the cycle it got its processor back, or
    // it never runs and the machine never quiesces.
    use tlr_repro::core::run::build_machine;
    use tlr_repro::core::{run_preemptive, Preemption};
    use tlr_repro::prelude::{single_counter, WorkloadSpec};
    use tlr_repro::sim::config::{Engine, Interconnect};
    let procs = 64;
    let w = single_counter(procs, 256);
    for engine in [Engine::EventDriven, Engine::CycleStepped] {
        for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
            let cfg = MachineConfig::builder()
                .scheme(scheme)
                .procs(procs)
                .interconnect(Interconnect::Directory)
                .engine(engine)
                // Ten times the slowest cell (BASE, ~200k cycles), so a stalled
                // run fails fast instead of spinning to the default budget.
                .max_cycles(2_000_000)
                .build();
            let mut m = build_machine(&cfg, &w);
            run_preemptive(&mut m, Preemption::new(100, 200))
                .unwrap_or_else(|e| panic!("[{scheme} / {engine:?}] must quiesce: {e}"));
            w.validate(&m).unwrap_or_else(|e| panic!("[{scheme} / {engine:?}] {e}"));
        }
    }
}
