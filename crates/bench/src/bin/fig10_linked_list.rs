//! Figure 10: the doubly-linked-list microbenchmark
//! (fine-grain locking / dynamic conflicts).
//!
//! Paper shape: BASE degrades with contention; SLE performs like BASE
//! (deciding when to speculate is hard under dynamic concurrency);
//! MCS is flat plus overhead; TLR exploits the enqueue/dequeue
//! concurrency a lock cannot and wins.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin fig10_linked_list [--quick] [--procs 1,2,4] [--jobs 4]
//! ```

fn main() {
    tlr_bench::experiments::main("fig10_linked_list");
}
