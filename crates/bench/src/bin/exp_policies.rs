//! `exp_policies`: the pluggable contention-management comparison.
//!
//! Runs every conflict policy (`timestamp` — the paper's ordering —
//! plus `backoff`, `karma` and `lazysub`, see `tlr_core::policy`)
//! over a spectrum of contention regimes: independent counters (no
//! conflicts), one contended counter (maximum conflict), the
//! doubly-linked list (dynamic conflicts) and the mp3d cell-lock
//! kernel (app-like mixed footprints). All cells run the TLR scheme;
//! only the contention manager varies. Every cell is validated for
//! serializability — policies may trade cycles, never correctness.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin exp_policies -- \
//!     --procs 16 --json policies.json
//! ```
//!
//! Shares the core flag surface (`--quick`, `--check`, `--json`,
//! `--jobs`, `--engine`, `--interconnect`, ...) with the other
//! binaries. `--policy` is ignored here: this binary sweeps all
//! policies by construction.

fn main() {
    tlr_bench::experiments::main("exp_policies");
}
