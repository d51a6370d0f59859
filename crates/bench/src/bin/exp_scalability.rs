//! `exp_scalability`: the 32–256-processor scalability lab on the
//! home-node directory interconnect.
//!
//! Sweeps the multiple-counter microbenchmark (coarse-grain locking,
//! no data conflicts — the workload whose parallelism the fabric must
//! not squander) for BASE, SLE, and TLR at processor counts the
//! snooping bus cannot reach. Defaults to `--interconnect directory`
//! and `--procs 32,64,128,256`; the bus can be forced back on for
//! ≤16-processor comparison rows.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin exp_scalability -- \
//!     --seeds 3 --profile --json scalability.json
//! ```
//!
//! Shares the core flag surface (`--quick`, `--check`, `--csv`,
//! `--json`, `--jobs`, `--engine`, `--profile`, ...) with the other
//! binaries.

fn main() {
    tlr_bench::experiments::main("exp_scalability");
}
