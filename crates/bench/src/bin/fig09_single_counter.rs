//! Figure 9: the single-counter microbenchmark
//! (fine-grain locking / high conflict).
//!
//! Paper shape: BASE degrades badly; SLE behaves like BASE (frequent
//! conflicts turn speculation off); MCS is flat plus software
//! overhead; TLR achieves ideal queued behaviour — no restarts, each
//! transaction completing with a single cache miss. TLR-strict-ts
//! (the §3.2 relaxation disabled) sits between TLR and MCS because
//! protocol-order/timestamp-order mismatches cause restarts.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin fig09_single_counter [--quick] [--procs 1,2,4] [--jobs 4]
//! ```

fn main() {
    tlr_bench::experiments::main("fig09_single_counter");
}
