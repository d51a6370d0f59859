//! The engine-equivalence wall: the discrete-event engine must be
//! byte-identical to the cycle-stepped oracle — same `MachineStats`,
//! same trace events, same final cycle — on fuzzed configurations
//! (including chaos streams), on explicit fault-intensity sweeps, and
//! on the workload families behind every figure/table binary.

use std::cell::Cell;
use std::collections::HashSet;
use std::fmt::Debug;
use std::sync::Arc;

use tlr_check::diff::{check_engines, trace_digest};
use tlr_check::fuzz::arbitrary_config;
use tlr_check::oracle::OracleWorkload;
use tlr_check::{prop, Source};
use tlr_core::run::{build_machine, WorkloadSpec};
use tlr_core::{run_preemptive, Machine, Preemption};
use tlr_cpu::{Asm, Program};
use tlr_mem::Addr;
use tlr_sim::config::{Engine, Interconnect, MachineConfig, RetentionPolicy, Scheme};
use tlr_sim::fault::FaultConfig;
use tlr_sim::pool::Pool;
use tlr_sim::prof::{EngineProf, ProfConfig, WakeSource};
use tlr_sync::tatas::{self, TatasRegs};
use tlr_workloads::{apps, micro};

/// One differential case: a fuzzed configuration (geometry, latencies,
/// retention, timestamp width, jitter, faults) and a fuzzed oracle
/// workload, compared across both engines for each paper scheme.
fn diff_case(s: &mut Source) -> Result<(), String> {
    let cfg = arbitrary_config(s);
    let w = OracleWorkload::arbitrary(s, cfg.num_procs, 4);
    for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
        let mut c = cfg.clone();
        c.scheme = scheme;
        check_engines(|engine| {
            let mut c = c.clone();
            c.engine = engine;
            w.build_machine(&c)
        })
        .map_err(|e| format!("scheme {scheme}: {e}\n    config: {c:?}\n    workload: {w:?}"))?;
    }
    Ok(())
}

#[test]
fn event_engine_matches_oracle_on_fuzzed_configs() {
    // 35 fuzzed configs x BASE/SLE/TLR = 105 engine comparisons by
    // default; `TLR_CHECK_CASES` scales the sweep. Roughly a third of
    // the configs draw an active chaos stream (see
    // `fuzz::arbitrary_config`), so spurious aborts, bus reorders and
    // network delays are all exercised differentially.
    let mut cfg = prop::Config::from_env(35);
    cfg.max_shrink_checks = 48;
    prop::check_with_pool("engine_equivalence", cfg, &Pool::from_env(), diff_case);
}

#[test]
fn event_engine_matches_oracle_under_explicit_chaos() {
    // Guaranteed-chaos cells (the fuzzed sweep only reaches faults
    // probabilistically): every fault kind active, intensity cycling
    // through the full range, across the three paper schemes.
    for i in 0..4u32 {
        let fault_seed = 0x0ddc_0ffe_u64.wrapping_add(u64::from(i) * 0x9e37_79b9);
        let level = 1 + i % FaultConfig::MAX_INTENSITY;
        for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
            let mut src = Source::from_seed(fault_seed);
            let procs = src.usize_in(2..=3);
            let w = OracleWorkload::arbitrary(&mut src, procs, 3);
            let cfg = MachineConfig::builder()
                .scheme(scheme)
                .procs(procs)
                .seed(src.next_raw())
                .max_cycles(8_000_000)
                .faults(FaultConfig::intensity(fault_seed, level))
                .build();
            check_engines(|engine| {
                let mut c = cfg.clone();
                c.engine = engine;
                w.build_machine(&c)
            })
            .unwrap_or_else(|e| {
                panic!(
                    "chaos divergence (scheme {scheme}, fault seed {fault_seed:#x}, \
                     intensity {level}): {e}\n    workload: {w:?}"
                )
            });
        }
    }
}

#[test]
fn event_engine_matches_oracle_on_binary_workloads() {
    // Small-scale instances of the workload families behind the
    // figure/table/experiment binaries; `run_cell` builds the same
    // machines at full scale.
    let workloads: Vec<(&str, Box<dyn WorkloadSpec>)> = vec![
        ("multiple_counter", Box::new(micro::multiple_counter(3, 24))),
        ("single_counter", Box::new(micro::single_counter(3, 24))),
        ("doubly_linked_list", Box::new(micro::doubly_linked_list(3, 9))),
        ("mp3d", Box::new(apps::mp3d(3, 6, 16))),
        ("mp3d_coarse", Box::new(apps::mp3d_coarse(3, 6, 16))),
        ("barnes", Box::new(apps::barnes(3, 4, 3))),
        ("radiosity", Box::new(apps::radiosity(3, 4, 4))),
        ("water_nsq", Box::new(apps::water_nsq(3, 4, 4))),
        ("ocean_cont", Box::new(apps::ocean_cont(3, 2, 4))),
        ("raytrace", Box::new(apps::raytrace(3, 6))),
    ];
    for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
        for (name, w) in &workloads {
            let mut cfg = MachineConfig::paper_default(scheme, 3);
            cfg.max_cycles = 60_000_000;
            cfg.seed = 0xe4e2_5eed;
            check_engines(|engine| {
                let mut c = cfg.clone();
                c.engine = engine;
                let mut m = build_machine(&c, w.as_ref());
                m.enable_trace_with_capacity(1 << 14);
                m
            })
            .unwrap_or_else(|e| panic!("{name}/{scheme}: {e}"));
        }
    }
}

/// Drives one machine per engine through `drive` and demands byte
/// identity of the outcome, the final cycle, the full `{:?}` rendering
/// of the stats and the trace. Returns the event engine's profile
/// counters, so a cell can prove it exercised what it claims to.
fn assert_engines_identical<R: Debug>(
    label: &str,
    build: impl Fn(Engine) -> Machine,
    drive: impl Fn(&mut Machine) -> R,
) -> EngineProf {
    let mut ev = build(Engine::EventDriven);
    let mut cy = build(Engine::CycleStepped);
    let (rv, rc) = (drive(&mut ev), drive(&mut cy));
    assert_eq!(format!("{rv:?}"), format!("{rc:?}"), "{label}: run outcome differs");
    assert_eq!(ev.cycle(), cy.cycle(), "{label}: final cycle differs");
    let (sv, sc) = (format!("{:?}", ev.stats()), format!("{:?}", cy.stats()));
    if sv != sc {
        let at = sv.bytes().zip(sc.bytes()).position(|(a, b)| a != b).unwrap_or(sv.len().min(sc.len()));
        let from = at.saturating_sub(80);
        panic!(
            "{label}: stats differ at byte {at}\n    event: ..{}\n    cycle: ..{}",
            &sv[from..(at + 80).min(sv.len())],
            &sc[from..(at + 80).min(sc.len())]
        );
    }
    assert_eq!(ev.trace().len(), cy.trace().len(), "{label}: trace lengths differ");
    assert_eq!(trace_digest(&ev), trace_digest(&cy), "{label}: traces differ");
    ev.take_profile().expect("cells run with profiling on").engine
}

/// A profiled, traced directory machine for the sparse-active-set
/// cells.
fn directory_cfg(scheme: Scheme, procs: usize, seed: u64) -> MachineConfig {
    MachineConfig::builder()
        .scheme(scheme)
        .procs(procs)
        .interconnect(Interconnect::Directory)
        .seed(seed)
        .max_cycles(4_000_000)
        .profile(ProfConfig::on())
        .build()
}

fn build_traced(cfg: &MachineConfig, engine: Engine, w: &dyn WorkloadSpec) -> Machine {
    let mut c = cfg.clone();
    c.engine = engine;
    let mut m = build_machine(&c, w);
    m.enable_trace_with_capacity(1 << 16);
    m
}

fn wakes(e: &EngineProf, source: WakeSource) -> u64 {
    e.wake[WakeSource::ALL.iter().position(|&s| s == source).unwrap()]
}

#[test]
fn event_engine_matches_oracle_on_sparse_directory_machines() {
    // 64 and 256 processors on the home-node directory, where nearly
    // every node is parked at any moment: the regime in which the
    // event engine's active set and deadline heap replace full scans.
    // Two mp3d moves per processor keep the oracle's every-node-every-
    // cycle run short while the second pass still elides its locks.
    for procs in [64, 256] {
        let w = apps::mp3d(procs, 2, 4 * procs as u64);
        for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
            let cfg = directory_cfg(scheme, procs, 0x5ba2_5e7d);
            let label = format!("mp3d/{scheme}/{procs} procs");
            let e = assert_engines_identical(&label, |eng| build_traced(&cfg, eng, &w), Machine::run);
            assert!(
                e.live_ticks * 4 < (e.steps + e.skipped_cycles) * procs as u64,
                "{label}: the active set was not sparse ({} live ticks)",
                e.live_ticks
            );
        }
    }
}

#[test]
fn event_engine_matches_oracle_on_directory_chaos_with_timers() {
    // Chaos at intensity 3 with NACK retention on a contended counter:
    // restart penalties arm idle timers and NACKs arm retry timers, so
    // both kinds of deadline pin event-engine steps.
    let procs = 32;
    let w = micro::single_counter(procs, 4 * procs as u64);
    let mut cfg = directory_cfg(Scheme::Tlr, procs, 0xc4a0_5eed);
    cfg.retention = RetentionPolicy::Nack;
    cfg.faults = FaultConfig::intensity(0xc4a0_f00d, 3);
    let e = assert_engines_identical(
        "single_counter/TLR/32 procs/chaos 3",
        |eng| build_traced(&cfg, eng, &w),
        Machine::run,
    );
    assert!(wakes(&e, WakeSource::IdleTimer) > 0, "no idle-timer wake: {e:?}");
    assert!(wakes(&e, WakeSource::RetryTimer) > 0, "no retry-timer wake: {e:?}");
}

#[test]
fn event_engine_matches_oracle_under_preemption_at_64_procs() {
    // External drivers mutate nodes between steps: one thread is
    // killed mid-transaction, then `run_preemptive` deschedules and
    // reschedules the rest round-robin. Every such external touch
    // must keep the active set and the deadline heap exact. NACK
    // retention adds retry timers to the deadlines those touches
    // disarm and re-arm.
    let procs = 64;
    let w = micro::single_counter(procs, 3 * procs as u64);
    let mut cfg = directory_cfg(Scheme::Tlr, procs, 0x0905_5eed);
    cfg.retention = RetentionPolicy::Nack;
    let e = assert_engines_identical(
        "single_counter/TLR/64 procs/kill + preemptive",
        |eng| build_traced(&cfg, eng, &w),
        |m| {
            // Sample at fixed 100-cycle marks, which both engines land
            // on exactly, until some thread is inside a transaction.
            let victim = loop {
                if let Some(v) = (0..procs).find(|&i| m.in_txn(i)) {
                    break v;
                }
                assert!(!m.is_quiesced(), "no transaction ever opened");
                let mark = m.cycle() + 100;
                while m.cycle() < mark {
                    match m.config().engine {
                        Engine::EventDriven => m.advance_within(mark),
                        Engine::CycleStepped => m.step(),
                    }
                }
            };
            m.kill(victim);
            let report = run_preemptive(m, Preemption::new(150, 60)).expect("quiesces");
            assert!(report.preemptions > procs as u64, "too few preemptions: {report:?}");
            (victim, report)
        },
    );
    assert!(wakes(&e, WakeSource::Bound) > 0, "the preemption bound never pinned a step");
}

// The parked-snoop cells' lock word and data words, each on a line of
// its own; the reader's `k`-th critical section misses on
// `Y + k * 0x1000`.
const LOCK: u64 = 0x1000;
const X: u64 = 0x2000;
const Z: u64 = 0x3000;
const Y: u64 = 0x10000;

/// A traced, profiled two-processor TLR bus machine running `programs`,
/// with `LOCK` as its one lock word.
fn parked_snoop_machine(engine: Engine, programs: &[Arc<Program>]) -> Machine {
    let mut cfg = MachineConfig::paper_default(Scheme::Tlr, programs.len());
    cfg.engine = engine;
    cfg.profile = ProfConfig::on();
    cfg.max_cycles = 1_000_000;
    let mut m = Machine::new(cfg, programs.to_vec(), HashSet::from([Addr(LOCK)]));
    m.enable_trace_with_capacity(1 << 12);
    m
}

/// Three critical sections under `LOCK`, each reading `first` and
/// then a fresh line from `Y` on. The SLE predictor learns the lock on
/// the first pass, so the later passes are transactions, and each
/// one's cold miss parks the node on a fill while `first` sits in its
/// read set.
fn reader(first: u64) -> Arc<Program> {
    let mut a = Asm::new("reader");
    let (lock, addr, wait_on, n, v) = (a.reg(), a.reg(), a.reg(), a.reg(), a.reg());
    let r = TatasRegs::alloc(&mut a);
    tatas::init_regs(&mut a, &r);
    a.li(lock, LOCK);
    a.li(addr, first);
    a.li(wait_on, Y);
    a.li(n, 3);
    a.delay(20);
    let top = a.here();
    tatas::acquire(&mut a, lock, &r);
    a.load(v, addr, 0);
    a.load(v, wait_on, 0);
    tatas::release(&mut a, lock, &r);
    a.addi(wait_on, wait_on, 0x1000);
    a.addi(n, n, -1);
    a.bne(n, r.zero, top);
    a.done();
    Arc::new(a.finish())
}

/// Optionally reads `early` at once, then after `delay` cycles reads or
/// (with `store`) writes `addr` outside any critical section.
fn toucher(early: Option<u64>, delay: u32, addr: u64, store: bool) -> Arc<Program> {
    let mut a = Asm::new("toucher");
    let (p, v) = (a.reg(), a.reg());
    if let Some(e) = early {
        a.li(p, e);
        a.load(v, p, 0);
    }
    a.delay(delay);
    a.li(p, addr);
    a.li(v, 1);
    if store {
        a.store(v, p, 0);
    } else {
        a.load(v, p, 0);
    }
    a.done();
    Arc::new(a.finish())
}

#[test]
fn snoop_abort_wakes_a_node_parked_on_a_fill() {
    // Node 1 reads X first, so node 0's read of X fills Shared. In a
    // later critical section node 0 re-reads X transactionally and
    // parks on its miss to a fresh line. Node 1's store to X
    // invalidates the Shared copy: a sharer invalidation, which aborts
    // the transaction. The abort changes the parked node's schedule
    // key (transaction, wait, restart penalty), so the event engine
    // must re-classify it at that snoop instead of letting its idle
    // window run on. The delay sweep lands the store in and around
    // the fill window.
    let aborted = Cell::new(0);
    for delay in (0..=1000).step_by(25) {
        let programs = [reader(X), toucher(Some(X), delay, X, true)];
        assert_engines_identical(
            &format!("sharer invalidation of a parked reader, delay {delay}"),
            |eng| parked_snoop_machine(eng, &programs),
            |m| {
                m.run().expect("quiesces");
                aborted.set(aborted.get() + m.stats().nodes[0].restarts_sharer_invalidation);
            },
        );
    }
    assert!(aborted.get() > 0, "no delay produced a sharer-invalidation abort");
}

/// Runs `m` to quiescence one advance at a time, as [`Machine::run`]
/// does, and counts the advances in which a cache supplied a line
/// while node 0 sat in a transaction, parked and not settled: after
/// the advance node 0's charged cycles still lag the clock by more
/// than one cycle. A settle charges through `cycle - 1` and a tick
/// through `cycle`, so only a node neither settled nor ticked in that
/// advance qualifies. (Outside a transaction node 0 can also supply Z
/// from a fill delivery, which wakes it only for the next cycle.) The
/// oracle ticks every node every cycle and never counts one.
fn run_counting_parked_supplies(m: &mut Machine) -> u64 {
    let mut kept = 0;
    while !m.is_quiesced() {
        assert!(m.cycle() < m.config().max_cycles, "timed out at cycle {}", m.cycle());
        let (supplied, in_txn) = (m.stats().cache_to_cache_transfers, m.in_txn(0));
        match m.config().engine {
            Engine::EventDriven => m.advance_within(m.config().max_cycles),
            Engine::CycleStepped => m.step(),
        }
        let s = m.stats();
        if in_txn
            && m.in_txn(0)
            && s.cache_to_cache_transfers > supplied
            && s.nodes[0].attributed_cycles() + 1 < m.cycle()
        {
            kept += 1;
        }
    }
    m.settle_idle_charges();
    m.finalize_stats();
    kept
}

#[test]
fn snoop_of_an_unrelated_line_keeps_a_parked_node_asleep() {
    // Node 0 reads Z inside its transactions (Exclusive: nobody else
    // holds it) and parks on a miss to a fresh line in each. Node 1's
    // read of Z is supplied by node 0, which drops its copy to Shared.
    // Nothing the parked node's class rests on changes, so it keeps
    // its class and settle window: the event engine must not settle
    // it at that snoop, and the oracle must still agree byte for byte.
    let kept = Cell::new(0);
    for delay in (0..=1000).step_by(25) {
        let programs = [reader(Z), toucher(None, delay, Z, false)];
        assert_engines_identical(
            &format!("unrelated snoop of a parked reader, delay {delay}"),
            |eng| parked_snoop_machine(eng, &programs),
            |m| {
                let n = run_counting_parked_supplies(m);
                if m.config().engine == Engine::EventDriven {
                    kept.set(kept.get() + n);
                }
            },
        );
    }
    assert!(kept.get() > 0, "no delay had node 0 supply Z while parked and unsettled");
}
