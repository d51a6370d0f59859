//! §6.3 read-modify-write prediction effects.
//!
//! "We give speedups of BASE with the predictor ... with respect to
//! BASE without the predictor (BASE-no-opt: a more conventional base
//! case). The speedups are — ocean-cont: 1.00, water-nsq: 1.04,
//! raytrace: 1.28, radiosity: 1.05, barnes: 1.04, cholesky: 1.33, and
//! mp3d: 1.13."
//!
//! ```text
//! cargo run --release -p tlr-bench --bin exp_rmw_predictor [--quick] [--procs 16] [--jobs 4]
//! ```

fn main() {
    tlr_bench::experiments::main("exp_rmw_predictor");
}
