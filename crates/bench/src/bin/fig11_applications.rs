//! Figure 11: application performance at 16 processors.
//!
//! For each application kernel, prints BASE / BASE+SLE / BASE+SLE+TLR
//! execution time normalized to BASE, split into lock-variable and
//! non-lock contributions (the two-part bars of Figure 11), plus the
//! §6.3 TLR-vs-BASE and MCS-vs-BASE speedups.
//!
//! Paper shape: TLR ≥ BASE everywhere; radiosity ≈ 1.47×, mp3d ≈
//! 1.40×, raytrace ≈ 1.17×, barnes ≈ 1.16× (with MCS slightly ahead
//! of TLR there), cholesky ≈ 1.05×, ocean-cont / water-nsq ≈ 1.0×.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin fig11_applications [--quick] [--procs 16] [--jobs 4]
//! ```

fn main() {
    tlr_bench::experiments::main("fig11_applications");
}
