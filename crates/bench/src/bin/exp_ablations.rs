//! Ablations of TLR's design parameters (the design choices DESIGN.md
//! calls out): deferred-queue capacity, victim-cache size, speculative
//! write-buffer size, and timestamp width.
//!
//! These are not in the paper's evaluation; they probe the §3.3
//! resource-constraint discussion ("TLR like SLE can guarantee
//! correctness under all circumstances and in the presence of
//! unexpected conditions can always acquire the lock") by measuring
//! how performance degrades — never correctness — as each resource
//! shrinks.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin exp_ablations [--quick] [--procs 8] [--jobs 4]
//! ```

fn main() {
    tlr_bench::experiments::main("exp_ablations");
}
