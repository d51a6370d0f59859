//! Running cells: the end-to-end path, which calls only the public
//! harness, and the traced path, which drives the engine from outside
//! and records a span around every call into a layer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tlr_core::{build_machine, Machine, SimTimeout};
use tlr_sim::config::Engine;
use tlr_sim::prof::{ProfConfig, Profiler, WakeSource};
use tlr_sim::MachineStats;

use crate::cells::Cell;
use crate::summary::CallSample;
use crate::trace::Tracer;

/// FNV-1a-64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The byte-identity digest of a run: FNV-1a-64 of its full `{:?}`
/// statistics.
fn stats_digest(stats: &MachineStats) -> u64 {
    fnv1a64(format!("{stats:?}").as_bytes())
}

/// One finished cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Host seconds in the workload constructor and `build_machine`.
    pub setup_s: f64,
    /// Host seconds in the engine.
    pub run_s: f64,
    /// Host seconds for build + run + validate.
    pub total_s: f64,
    /// Σ elapsed cycles × processors.
    pub node_cycles: u64,
    pub instructions: u64,
    /// The stats digest, or why the cell failed (panic, timeout,
    /// validation).
    pub digest: Result<u64, String>,
}

fn secs(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64()
}

fn finish(
    m: &Machine,
    run: Result<(), SimTimeout>,
    valid: Result<(), String>,
) -> (u64, u64, Result<u64, String>) {
    let stats = m.stats();
    let node_cycles = stats.elapsed_cycles * stats.nodes.len() as u64;
    let instructions = stats.sum(|n| n.instructions);
    let digest = match (run, valid) {
        (Err(e), _) => Err(e.to_string()),
        (_, Err(e)) => Err(format!("validation: {e}")),
        _ => Ok(stats_digest(stats)),
    };
    (node_cycles, instructions, digest)
}

fn panicked(p: Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    format!("panic: {msg}")
}

/// Runs one cell through the public harness calls only:
/// constructor, `build_machine`, `Machine::run`, `validate`, `stats`.
pub fn run_cell(cell: &Cell) -> CellRun {
    let out = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let w = cell.workload();
        let mut m = build_machine(&cell.cfg, w.as_ref());
        let t1 = Instant::now();
        let run = m.run();
        let t2 = Instant::now();
        let valid = w.validate(&m);
        let t3 = Instant::now();
        let (node_cycles, instructions, digest) = finish(&m, run, valid);
        CellRun {
            setup_s: secs(t0, t1),
            run_s: secs(t1, t2),
            total_s: secs(t0, t3),
            node_cycles,
            instructions,
            digest,
        }
    }));
    out.unwrap_or_else(|p| CellRun {
        setup_s: 0.0,
        run_s: 0.0,
        total_s: 0.0,
        node_cycles: 0,
        instructions: 0,
        digest: Err(panicked(p)),
    })
}

/// What the traced passes measure beyond spans: per-call engine
/// timings and the layer counters summed over the pass's cells.
#[derive(Debug, Default)]
pub struct Tally {
    /// One sample per engine call: `advance_within` on the event
    /// engine, `step` on the cycle-stepped oracle.
    pub calls: CallSample,
    pub quiesce_s: f64,
    pub finalize_s: f64,
    /// Σ over cells of each counter below.
    pub steps: u64,
    pub live_ticks: u64,
    pub skipped_cycles: u64,
    pub burst_cycles: u64,
    pub spin_settle_cycles: u64,
    pub idle_settle_cycles: u64,
    pub wake: [u64; WakeSource::COUNT],
    pub elapsed_cycles: u64,
    pub node_cycles: u64,
    pub sim_cycles: u64,
    pub instructions: u64,
    pub elisions: u64,
    pub commits: u64,
    pub restarts: u64,
    pub fallbacks: u64,
    pub wasted_cycles: u64,
    pub deferrals: u64,
    pub nacks: u64,
    pub probes: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub bus_transactions: u64,
    pub bus_arb_wait_cycles: u64,
    pub dir_requests_ordered: u64,
    pub c2c_transfers: u64,
    pub faults_injected: u64,
    /// Σ utilization × elapsed cycles, for cycle-weighted means.
    pub bus_util_cycles: f64,
    pub dir_util_cycles: f64,
}

impl Tally {
    fn add(&mut self, s: &MachineStats, p: &Profiler) {
        let e = &p.engine;
        self.steps += e.steps;
        self.live_ticks += e.live_ticks;
        self.skipped_cycles += e.skipped_cycles;
        self.burst_cycles += e.burst_cycles;
        self.spin_settle_cycles += e.spin_settle_cycles;
        self.idle_settle_cycles += e.idle_settle_cycles;
        for (w, n) in self.wake.iter_mut().zip(e.wake) {
            *w += n;
        }
        self.elapsed_cycles += s.elapsed_cycles;
        self.node_cycles += s.elapsed_cycles * s.nodes.len() as u64;
        self.sim_cycles += s.parallel_cycles;
        self.instructions += s.sum(|n| n.instructions);
        self.elisions += s.sum(|n| n.elisions_started);
        self.commits += s.total_commits();
        self.restarts += s.total_restarts();
        self.fallbacks += s.total_fallbacks();
        self.wasted_cycles += s.total_wasted_cycles();
        self.deferrals += s.sum(|n| n.requests_deferred);
        self.nacks += s.sum(|n| n.nacks_sent);
        self.probes += s.sum(|n| n.probes_sent);
        self.l1_hits += s.sum(|n| n.l1_hits);
        self.l1_misses += s.sum(|n| n.l1_misses);
        self.bus_transactions += s.bus.total();
        self.bus_arb_wait_cycles += s.bus.arbitration_wait_cycles;
        self.dir_requests_ordered += s.dir.requests_ordered;
        self.c2c_transfers += s.cache_to_cache_transfers;
        self.faults_injected += s.faults.total_injected();
        self.bus_util_cycles += p.utilization() * s.elapsed_cycles as f64;
        self.dir_util_cycles += p.dir_utilization() * s.elapsed_cycles as f64;
    }
}

/// Drives `m` to quiescence from outside, exactly as `Machine::run`
/// does for `engine`, timing every call.
fn drive(
    m: &mut Machine,
    engine: Engine,
    max_cycles: u64,
    tally: &mut Tally,
) -> Result<(), SimTimeout> {
    let mut t0 = Instant::now();
    loop {
        let quiesced = m.is_quiesced();
        let t1 = Instant::now();
        tally.quiesce_s += secs(t0, t1);
        if quiesced {
            break;
        }
        if m.cycle() >= max_cycles {
            m.settle_idle_charges();
            return Err(SimTimeout { cycle: m.cycle() });
        }
        match engine {
            Engine::EventDriven => m.advance_within(max_cycles),
            Engine::CycleStepped => m.step(),
        }
        t0 = Instant::now();
        tally.calls.record((t0 - t1).as_nanos() as u64);
    }
    let t = Instant::now();
    if engine == Engine::EventDriven {
        m.settle_idle_charges();
    }
    m.finalize_stats();
    tally.finalize_s += secs(t, Instant::now());
    Ok(())
}

/// Runs one cell with profiling on, as one span with a child span
/// around each layer call. Returns the cell's host seconds and its
/// stats digest (which must equal the untraced one).
pub fn run_cell_traced(
    cell: &Cell,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (f64, Result<u64, String>) {
    let mut cfg = cell.cfg.clone();
    cfg.profile = ProfConfig::on();
    let label = cell.label.as_str();
    let top = tracer.open("cell", label, None);
    let out = catch_unwind(AssertUnwindSafe(|| {
        let s = tracer.open("workloads.build", label, Some(top));
        let w = cell.workload();
        let programs = w.programs(cfg.scheme);
        let image = w.memory_image();
        let locks = w.lock_addrs(cfg.scheme);
        tracer.close(s);

        let s = tracer.open("core.machine_new", label, Some(top));
        let mut m = Machine::new(cfg.clone(), programs, locks);
        for (addr, val) in image {
            m.init_word(addr, val);
        }
        tracer.close(s);

        let s = tracer.open("machine.run", label, Some(top));
        let run = drive(&mut m, cfg.engine, cfg.max_cycles, tally);
        tracer.close(s);

        let s = tracer.open("core.validate", label, Some(top));
        let valid = w.validate(&m);
        tracer.close(s);
        (m, run, valid)
    }));
    let total_s = tracer.close(top);
    let digest = match out {
        Ok((mut m, run, valid)) => {
            let digest = finish(&m, run, valid).2;
            let prof = m
                .take_profile()
                .expect("traced cells run with profiling on");
            tally.add(m.stats(), &prof);
            digest
        }
        Err(p) => Err(panicked(p)),
    };
    (total_s, digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{Size, Workload};

    #[test]
    fn fnv1a64_reference_values() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// Driving the engine from outside must reproduce `Machine::run`
    /// bit for bit on every workload's cells, on both engines;
    /// `oracle_chaos8`'s cells carry faults, the others run fault-free.
    #[test]
    fn outside_loop_matches_machine_run() {
        for w in Workload::ALL {
            for cell in w.cells(0x0dd5_eed5, Size::Small) {
                for engine in [Engine::EventDriven, Engine::CycleStepped] {
                    let mut cell = cell.clone();
                    cell.cfg.engine = engine;
                    let plain = run_cell(&cell)
                        .digest
                        .unwrap_or_else(|e| panic!("{} {engine:?}: {e}", cell.label));
                    let mut tracer = Tracer::default();
                    let mut tally = Tally::default();
                    let (_, traced) = run_cell_traced(&cell, &mut tracer, &mut tally);
                    assert_eq!(traced, Ok(plain), "{} {engine:?}", cell.label);
                    assert!(tally.calls.len() > 0 && tally.steps > 0 && tally.instructions > 0);
                    assert_eq!(
                        tally.faults_injected > 0,
                        w == Workload::OracleChaos8,
                        "{}",
                        cell.label
                    );
                    for name in [
                        "workloads.build",
                        "core.machine_new",
                        "machine.run",
                        "core.validate",
                    ] {
                        assert!(tracer.self_times().contains_key(name), "{name}");
                    }
                }
            }
        }
    }

    #[test]
    fn failures_are_reported_not_raised() {
        let mut cell = Workload::Conflict16.cells(1, Size::Small).swap_remove(0);
        cell.cfg.max_cycles = 50;
        let r = run_cell(&cell);
        assert!(r.digest.unwrap_err().contains("did not quiesce"));
        let (_, traced) = run_cell_traced(&cell, &mut Tracer::default(), &mut Tally::default());
        assert!(traced.unwrap_err().contains("did not quiesce"));
    }
}
