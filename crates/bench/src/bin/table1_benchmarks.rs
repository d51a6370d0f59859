//! Table 1: the benchmark inventory — each application, the type of
//! computation it stands for, and its critical-section structure,
//! alongside the synthetic kernel parameters this reproduction uses.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin table1_benchmarks
//! ```

fn main() {
    tlr_bench::experiments::main("table1_benchmarks");
}
