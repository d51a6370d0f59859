//! §6.3 coarse-grain vs fine-grain experiment.
//!
//! "We replaced the individual cell locks in mp3d with a single lock.
//! This is bad for BASE (and MCS) because now the benchmark has
//! severe contention. As expected, TLR with one lock for all cells in
//! mp3d outperforms BASE with fine-grain per-cell locks by 58%
//! (speedup 2.40) and outperforms TLR with fine-grain per-cell locks
//! by 41% (speedup 1.70)."
//!
//! The fine-grain variant's locking overhead (a packed lock array
//! larger than the L1) disappears under the coarse lock, and TLR
//! extracts the cell-level parallelism the coarse lock hides.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin exp_coarse_fine [--quick] [--procs 16] [--jobs 4]
//! ```

fn main() {
    tlr_bench::experiments::main("exp_coarse_fine");
}
