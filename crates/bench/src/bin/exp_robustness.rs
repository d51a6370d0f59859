//! `exp_robustness`: degradation curves under the deterministic
//! fault-injection ("chaos") layer.
//!
//! Sweeps fault intensity 0 (calm baseline) through `--faults N`
//! (default: the maximum level) for BASE, SLE, and TLR on the
//! contended-counter workload, reporting cycles, restarts, fallbacks,
//! and the injected-fault counts per cell. The chaos layer's contract
//! — faults perturb timing, never correctness — is asserted on every
//! cell, so a serializability violation under chaos fails the run.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin exp_robustness -- \
//!     --faults 4 --fault-seed 0xc4a05eed --json robustness.json
//! ```
//!
//! Shares the core flag surface (`--quick`, `--check`, `--json`,
//! `--jobs`, ...) with the other binaries, plus `--faults N` and
//! `--fault-seed S`.

fn main() {
    tlr_bench::experiments::main("exp_robustness");
}
