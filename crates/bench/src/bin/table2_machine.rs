//! Table 2: simulated machine parameters.
//!
//! Dumps the configuration the other benchmarks run under, next to
//! the paper's values, so deviations are visible at a glance.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin table2_machine
//! ```

fn main() {
    tlr_bench::experiments::main("table2_machine");
}
