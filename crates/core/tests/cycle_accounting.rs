//! Cycle-accounting identity tests: every node-cycle is charged to
//! exactly one attribution category, so each node's category sum
//! equals the run's elapsed cycles
//! ([`tlr_sim::stats::MachineStats::check_cycle_accounting`]).
//!
//! The machine checks the identity itself: at quiescence in every
//! build (`Machine::finalize_stats` panics on a violation), and before
//! every node tick in debug builds. These tests audit it *explicitly*
//! — across schemes, across both
//! engines, under fault injection (where injected aborts, squeezed
//! buffers, and network jitter reshuffle the stall mix), and under
//! preemptive scheduling (where descheduled threads accrue
//! `paused_cycles`, the category no other path exercises).

use std::collections::HashSet;
use std::sync::Arc;

use tlr_core::{run_preemptive, Machine, Preemption};
use tlr_cpu::{Asm, Program};
use tlr_mem::Addr;
use tlr_sim::config::{Engine, Interconnect, MachineConfig, Scheme};
use tlr_sim::fault::FaultConfig;
use tlr_sync::tatas::{self, TatasRegs};

const LOCK: u64 = 0x100;
const COUNTER: u64 = 0x2000;

/// A TATAS-guarded counter incrementer (the single-counter microshape
/// from the paper's Figure 8, built inline because `tlr-core` cannot
/// depend on `tlr-workloads`).
fn incrementer(iters: u64) -> Arc<Program> {
    let mut a = Asm::new("incrementer");
    let lock = a.reg();
    let n = a.reg();
    let v = a.reg();
    let addr = a.reg();
    let r = TatasRegs::alloc(&mut a);
    tatas::init_regs(&mut a, &r);
    a.li(lock, LOCK);
    a.li(addr, COUNTER);
    a.li(n, iters);
    let top = a.here();
    tatas::acquire(&mut a, lock, &r);
    a.load(v, addr, 0);
    a.addi(v, v, 1);
    a.store(v, addr, 0);
    tatas::release(&mut a, lock, &r);
    a.rand_delay(2, 10);
    a.addi(n, n, -1);
    a.bne(n, r.zero, top);
    a.done();
    Arc::new(a.finish())
}

fn machine(scheme: Scheme, engine: Engine, faults: FaultConfig, procs: usize, iters: u64) -> Machine {
    machine_on(Interconnect::Snooping, scheme, engine, faults, procs, iters)
}

fn machine_on(
    interconnect: Interconnect,
    scheme: Scheme,
    engine: Engine,
    faults: FaultConfig,
    procs: usize,
    iters: u64,
) -> Machine {
    let mut cfg = MachineConfig::paper_default(scheme, procs);
    cfg.engine = engine;
    cfg.interconnect = interconnect;
    cfg.faults = faults;
    cfg.max_cycles = 50_000_000;
    Machine::new(cfg, vec![incrementer(iters); procs], HashSet::from([Addr(LOCK)]))
}

/// Runs the machine to quiescence and audits the identity plus the
/// workload's ground truth (the counter must still be exact — the
/// accounting layer must never perturb execution).
fn audit(mut m: Machine, procs: usize, iters: u64, what: &str) -> Machine {
    m.run().unwrap_or_else(|e| panic!("{what}: {e}"));
    let stats = m.stats();
    assert!(stats.elapsed_cycles > 0, "{what}: run must consume cycles");
    stats.check_cycle_accounting().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        stats.total_attributed_cycles(),
        stats.elapsed_cycles * procs as u64,
        "{what}: aggregate attribution covers every node-cycle"
    );
    assert_eq!(m.final_word(Addr(COUNTER)), procs as u64 * iters, "{what}: counter ground truth");
    m
}

#[test]
fn identity_holds_across_schemes_and_engines() {
    const PROCS: usize = 4;
    const ITERS: u64 = 32;
    for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
        for engine in [Engine::EventDriven, Engine::CycleStepped] {
            audit(
                machine(scheme, engine, FaultConfig::off(), PROCS, ITERS),
                PROCS,
                ITERS,
                &format!("{scheme} / {engine:?}"),
            );
        }
    }
}

#[test]
fn identity_holds_under_fault_injection() {
    const PROCS: usize = 4;
    const ITERS: u64 = 48;
    for engine in [Engine::EventDriven, Engine::CycleStepped] {
        let m = audit(
            machine(Scheme::Tlr, engine, FaultConfig::intensity(0xc4a05, 3), PROCS, ITERS),
            PROCS,
            ITERS,
            &format!("tlr chaos / {engine:?}"),
        );
        // Level-3 chaos on a contended counter must actually fire
        // (otherwise this test silently degrades to the clean case).
        assert!(
            m.stats().faults.spurious_aborts > 0,
            "intensity-3 chaos on a contended counter must inject aborts"
        );
    }
}

#[test]
fn identity_holds_on_directory_machines_past_the_bus_limit() {
    // 64 and 128 processors are unreachable on the snooping bus; the
    // directory cells audit the identity at machine widths where the
    // event engine's settling paths (idle charges, spin fast-forward)
    // do the bulk of the accounting. Both engines, with and without
    // chaos.
    for (procs, iters) in [(64usize, 8u64), (128, 4)] {
        for engine in [Engine::EventDriven, Engine::CycleStepped] {
            for faults in [FaultConfig::off(), FaultConfig::intensity(0xd1c7_acc7, 2)] {
                let what = format!(
                    "directory {procs}p / {engine:?} / faults={}",
                    faults.enabled
                );
                audit(
                    machine_on(Interconnect::Directory, Scheme::Tlr, engine, faults, procs, iters),
                    procs,
                    iters,
                    &what,
                );
            }
        }
    }
}

#[test]
fn identity_holds_under_preemption_and_charges_paused_cycles() {
    const PROCS: usize = 4;
    const ITERS: u64 = 64;
    for engine in [Engine::EventDriven, Engine::CycleStepped] {
        let mut m = machine(Scheme::Tlr, engine, FaultConfig::off(), PROCS, ITERS);
        let report = run_preemptive(&mut m, Preemption::new(400, 150))
            .unwrap_or_else(|e| panic!("preemptive tlr / {engine:?}: {e}"));
        assert!(report.preemptions > 0, "quantum 400 must preempt this run");
        let stats = m.stats();
        stats
            .check_cycle_accounting()
            .unwrap_or_else(|e| panic!("preemptive tlr / {engine:?}: {e}"));
        assert!(
            stats.sum(|n| n.paused_cycles) > 0,
            "descheduled threads must accrue paused_cycles"
        );
        assert_eq!(
            m.final_word(Addr(COUNTER)),
            PROCS as u64 * ITERS,
            "preemption must not lose increments"
        );
    }
}
