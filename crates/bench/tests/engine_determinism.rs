//! The determinism wall, extended to the event-driven engine.
//!
//! `parallel_determinism.rs` proves every sweep renders byte-identical
//! JSON at `jobs=1` and `jobs=4` under the default engine; this file
//! pins down the engine-specific half of that guarantee: the event
//! engine *is* the default, it stays deterministic
//! across worker counts and across repeated runs with a fixed fault
//! seed, and at the machine level it reproduces the cycle-stepped
//! oracle byte for byte even under chaos.

use tlr_bench::sweeps::{self, Report};
use tlr_bench::cli::Args;
use tlr_core::run::run_workload;
use tlr_sim::config::{Engine, MachineConfig, Scheme};
use tlr_sim::fault::FaultConfig;
use tlr_sim::pool::Pool;
use tlr_workloads::micro::single_counter;

#[test]
fn event_is_the_default_engine() {
    // Every binary runs the discrete-event engine unless `--engine
    // cycle` asks for the oracle: both the parsed options and the
    // machine they build start from it.
    assert_eq!(Args::default().engine, Engine::EventDriven);
    assert_eq!(Args::default().base().build().engine, Engine::EventDriven);
    assert_eq!(MachineConfig::builder().build().engine, Engine::EventDriven);
}

#[test]
fn fig11_event_engine_jobs1_matches_jobs4() {
    let opts = Args { procs: vec![2, 4], quick: true, seeds: 2, ..Default::default() };
    assert_eq!(opts.base().build().engine, Engine::EventDriven);
    let serial = sweeps::fig11(&opts, &Pool::new(1)).json();
    let parallel = sweeps::fig11(&opts, &Pool::new(4)).json();
    assert_eq!(serial, parallel, "event engine: jobs=4 must be byte-identical to jobs=1");
    tlr_sim::json::validate(&serial).expect("valid JSON");
}

#[test]
fn chaos_event_engine_is_a_pure_function_of_the_fault_seed() {
    let o = Args { quick: true, faults: 2, fault_seed: 0xeeee_feed, ..Default::default() };
    assert_eq!(o.base().build().engine, Engine::EventDriven);
    let serial = sweeps::robustness(&o, &Pool::new(1)).json();
    let parallel = sweeps::robustness(&o, &Pool::new(4)).json();
    assert_eq!(serial, parallel, "event engine chaos: jobs=4 must match jobs=1");
    let again = sweeps::robustness(&o, &Pool::new(4)).json();
    assert_eq!(parallel, again, "event engine chaos must reproduce run-to-run");
}

#[test]
fn event_and_cycle_chaos_runs_are_identical_at_machine_level() {
    // Machine-level engine equivalence under injected faults, driven
    // through the builder. The full fuzzed sweep lives in
    // crates/check; this is the bench wall's smoke-sized pin.
    for (i, scheme) in [Scheme::Base, Scheme::Sle, Scheme::Tlr].into_iter().enumerate() {
        let fault_seed = 0xbead_cafe_u64 + i as u64;
        let w = single_counter(4, 96);
        let run = |engine: Engine| {
            let cfg = MachineConfig::builder()
                .scheme(scheme)
                .procs(4)
                .faults(FaultConfig::intensity(fault_seed, 3))
                .engine(engine)
                .build();
            run_workload(&cfg, &w)
        };
        let event = run(Engine::EventDriven);
        let cycle = run(Engine::CycleStepped);
        assert_eq!(
            format!("{:?}", event.stats),
            format!("{:?}", cycle.stats),
            "[{scheme}] event engine must reproduce the oracle under chaos"
        );
    }
}
