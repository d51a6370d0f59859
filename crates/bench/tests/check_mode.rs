//! Golden-shape tests: run the same invariants the figure/table
//! binaries assert under `--check`, so `cargo test` and the binaries'
//! check mode can never drift apart.
//!
//! Each check replays its experiment at small scale and asserts the
//! paper's result *directions* (TLR ≥ SLE ≥ BASE orderings, coarse
//! locks hurting BASE but not TLR, ...) and output schemas without
//! pinning absolute cycle counts.
//!
//! The checks run through the same worker pool the binaries use
//! (`TLR_JOBS` or host parallelism), so `cargo test` also exercises
//! the parallel fan-out path.

use tlr_bench::checks;
use tlr_bench::cli::Args;
use tlr_bench::experiments::EXPERIMENTS;
use tlr_sim::pool::Pool;

#[test]
fn every_experiment_shape_holds() {
    let pool = Pool::from_env();
    for exp in &EXPERIMENTS {
        let opts = (exp.defaults)();
        (exp.check)(&opts.base(), &pool).unwrap_or_else(|e| panic!("{}: {e}", exp.name));
    }
}

#[test]
fn profile_smoke_holds() {
    checks::profile(&Args::default().base(), &Pool::from_env()).unwrap();
}
