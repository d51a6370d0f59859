//! Figure 8: the multiple-counter microbenchmark
//! (coarse-grain locking / no data conflicts).
//!
//! Paper shape: BASE degrades sharply with processor count (lock
//! contention), MCS is flat with a fixed software overhead, SLE and
//! TLR behave identically (no conflicts) and scale perfectly, beating
//! both.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin fig08_multiple_counter [--quick] [--procs 1,2,4] [--jobs 4]
//! ```

fn main() {
    tlr_bench::experiments::main("fig08_multiple_counter");
}
