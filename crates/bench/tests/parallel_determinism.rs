//! The reproducibility wall: every figure/table/exp entry point must
//! produce **byte-identical** JSON at `jobs=1` and `jobs=4`, and a
//! fuzz batch must digest identically at both worker counts.
//!
//! This is the load-bearing guarantee of the parallel execution
//! engine — parallelism may only change wall-clock time, never a
//! single output byte. The tests run at `--quick` scale with two
//! perturbation seeds so the seeded-averaging path is exercised too.

use tlr_bench::experiments::EXPERIMENTS;
use tlr_bench::sweeps::{self, Report};
use tlr_bench::cli::Args;
use tlr_sim::config::Interconnect;
use tlr_sim::pool::Pool;

#[test]
fn every_experiment_is_parallel_deterministic() {
    for exp in &EXPERIMENTS {
        let defaults = (exp.defaults)();
        // Bus-sized sweeps run at 1 and 2 processors; an experiment
        // that defaults to the directory runs past the bus limit, so
        // bank scheduling must not leak worker-count dependence.
        let procs = match defaults.interconnect {
            Interconnect::Snooping => vec![1, 2],
            Interconnect::Directory => vec![8, 32],
        };
        let opts = Args { procs, quick: true, seeds: 2, faults: 2, ..defaults };
        let serial = (exp.run)(&opts, &Pool::new(1)).json();
        let parallel = (exp.run)(&opts, &Pool::new(4)).json();
        let name = exp.name;
        assert_eq!(serial, parallel, "{name}: jobs=4 output must be byte-identical to jobs=1");
        tlr_sim::json::validate(&serial).unwrap_or_else(|e| panic!("{name}: invalid JSON: {e}"));
    }
}

#[test]
fn chaos_cells_reproduce_for_a_fixed_fault_seed() {
    // Same (config, fault seed) must yield byte-identical results
    // run-to-run, not just across worker counts.
    let o = Args { quick: true, faults: 1, fault_seed: 0xfeed_f00d, ..Default::default() };
    let pool = Pool::new(4);
    let a = sweeps::robustness(&o, &pool).json();
    let b = sweeps::robustness(&o, &pool).json();
    assert_eq!(a, b, "chaos must be a pure function of the fault seed");
}

#[test]
fn faults_off_leaves_the_machine_untouched() {
    // An explicit FaultConfig::off() must be indistinguishable from a
    // config that never mentions faults: no hook is installed, so the
    // full statistics block — not just the cycle count — is identical.
    use tlr_core::run::run_workload;
    use tlr_sim::config::{MachineConfig, Scheme};
    use tlr_sim::fault::FaultConfig;
    use tlr_workloads::micro::single_counter;

    for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
        let w = single_counter(2, 128);
        let default_cfg = MachineConfig::paper_default(scheme, 2);
        let mut off_cfg = default_cfg.clone();
        off_cfg.faults = FaultConfig::off();
        let a = run_workload(&default_cfg, &w);
        let b = run_workload(&off_cfg, &w);
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "[{scheme}] FaultConfig::off() must be the identity"
        );
    }
}

#[test]
fn fuzz_batch_digest_parallel_matches_serial() {
    let serial = tlr_check::fuzz::batch_digest(0xd1ce, 64, &Pool::new(1));
    let parallel = tlr_check::fuzz::batch_digest(0xd1ce, 64, &Pool::new(4));
    assert_eq!(serial, parallel, "64-case fuzz batch must digest identically at any worker count");
    assert_eq!(serial.len(), 16, "FNV-1a 64 digest renders as 16 hex digits: {serial}");
}
