//! A small wall-clock benchmarking harness (the criterion
//! replacement).
//!
//! Each benchmark is auto-calibrated: the batch size doubles until one
//! batch exceeds a minimum duration, then several batches are timed
//! and the per-iteration mean/median/min are reported as a text table
//! or as JSON ([`TimingOpts::json`]). The harness deliberately has no
//! statistics beyond that — simulator benchmarks are macro-scale
//! (whole runs of thousands of simulated cycles), where
//! median-of-batches is stable enough to spot regressions.
//! `tlr-perf`'s kernel suite is its one client.

use std::time::Instant;

pub use std::hint::black_box;

/// Harness options.
#[derive(Debug, Clone)]
pub struct TimingOpts {
    /// Timed batches per benchmark.
    pub samples: u32,
    /// Calibration target: smallest acceptable batch duration.
    pub min_batch_ns: u64,
    /// Emit JSON instead of the text table.
    pub json: bool,
    /// Worker count. Wall-clock measurement must stay at 1: timed
    /// batches sharing cores with sweep workers measure scheduler
    /// contention, not the simulator. The field exists so `--jobs`
    /// from shared sweep scripts is *rejected loudly* rather than
    /// silently ignored — see [`TimingOpts::validated`].
    pub jobs: usize,
}

impl Default for TimingOpts {
    fn default() -> Self {
        TimingOpts { samples: 7, min_batch_ns: 10_000_000, json: false, jobs: 1 }
    }
}

impl TimingOpts {
    /// Checks that the options are usable for wall-clock measurement.
    ///
    /// # Errors
    ///
    /// Rejects `jobs != 1`: the parallel execution engine is for
    /// simulation sweeps (deterministic cycle counts), never for timed
    /// batches, whose numbers worker threads would pollute.
    pub fn validated(self) -> Result<Self, String> {
        if self.jobs != 1 {
            return Err(format!(
                "timing harness requires --jobs 1 (got {}): concurrent workers \
                 pollute wall-clock measurement; parallelism is for simulation \
                 sweeps, where the metric is deterministic cycle counts",
                self.jobs
            ));
        }
        Ok(self)
    }
}

/// One benchmark's result.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Iterations per timed batch after calibration.
    pub iters: u64,
    /// Mean ns per iteration across batches.
    pub mean_ns: f64,
    /// Median ns per iteration across batches.
    pub median_ns: f64,
    /// Fastest batch's ns per iteration.
    pub min_ns: f64,
}

/// A named collection of benchmarks, printed on [`Suite::finish`].
pub struct Suite {
    name: String,
    opts: TimingOpts,
    rows: Vec<Row>,
}

impl Suite {
    /// A new suite.
    ///
    /// # Panics
    ///
    /// Panics if the options fail [`TimingOpts::validated`] (e.g.
    /// `--jobs` above 1 — measurement is pinned to one worker).
    pub fn new(name: &str, opts: TimingOpts) -> Self {
        let opts = opts.validated().unwrap_or_else(|e| panic!("{e}"));
        Suite { name: name.to_string(), opts, rows: Vec::new() }
    }

    /// Times `f`, auto-calibrating the batch size first.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) {
        // One untimed call first, so first-touch costs (page faults,
        // cold caches, a descheduled thread) cannot make a one-call
        // batch look long enough and end calibration there.
        f();
        // Calibrate: double the batch until it takes long enough.
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let ns = t.elapsed().as_nanos() as u64;
            if ns >= self.opts.min_batch_ns || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        let mut per_iter: Vec<f64> = (0..self.opts.samples.max(1))
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let median = per_iter[per_iter.len() / 2];
        self.rows.push(Row {
            name: name.to_string(),
            iters,
            mean_ns: mean,
            median_ns: median,
            min_ns: per_iter[0],
        });
    }

    /// Results so far.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Renders the suite as a JSON string.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":\"{}\",\"iters\":{},\"mean_ns\":{:.1},\"median_ns\":{:.1},\"min_ns\":{:.1}}}",
                    r.name.replace('"', "'"),
                    r.iters,
                    r.mean_ns,
                    r.median_ns,
                    r.min_ns
                )
            })
            .collect();
        format!(
            "{{\"suite\":\"{}\",\"results\":[{}]}}",
            self.name.replace('"', "'"),
            rows.join(",")
        )
    }

    /// Prints the results (table or `--json`) to stdout.
    pub fn finish(self) {
        if self.opts.json {
            println!("{}", self.to_json());
            return;
        }
        println!("# {} ({} samples/bench)", self.name, self.opts.samples);
        println!("{:<44} {:>10} {:>14} {:>14} {:>14}", "benchmark", "iters", "mean ns", "median ns", "min ns");
        for r in &self.rows {
            println!(
                "{:<44} {:>10} {:>14.1} {:>14.1} {:>14.1}",
                r.name, r.iters, r.mean_ns, r.median_ns, r.min_ns
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> TimingOpts {
        TimingOpts { samples: 3, min_batch_ns: 1_000, json: false, jobs: 1 }
    }

    #[test]
    fn harness_rejects_parallel_jobs() {
        let opts = TimingOpts { jobs: 4, ..TimingOpts::default() };
        let err = opts.validated().expect_err("jobs above 1 must be rejected");
        assert!(err.contains("--jobs 1"), "{err}");
        assert!(err.contains("wall-clock"), "{err}");
        let result = std::panic::catch_unwind(|| {
            Suite::new("polluted", TimingOpts { jobs: 2, ..TimingOpts::default() })
        });
        assert!(result.is_err(), "Suite::new must refuse a parallel harness");
        assert!(TimingOpts::default().validated().is_ok(), "jobs=1 stays accepted");
    }

    #[test]
    fn bench_measures_and_orders_stats() {
        let mut s = Suite::new("unit", quick());
        s.bench("sum", || {
            black_box((0..100u64).sum::<u64>());
        });
        let r = &s.rows()[0];
        assert!(r.iters >= 1);
        assert!(r.min_ns <= r.median_ns + f64::EPSILON);
        assert!(r.min_ns <= r.mean_ns + f64::EPSILON);
        assert!(r.mean_ns.is_finite() && r.mean_ns >= 0.0);
    }

    #[test]
    fn json_output_names_every_bench() {
        let mut s = Suite::new("unit", quick());
        s.bench("alpha", || {
            black_box(1 + 1);
        });
        s.bench("beta", || {
            black_box(2 + 2);
        });
        let j = s.to_json();
        assert!(j.contains("\"suite\":\"unit\""), "{j}");
        assert!(j.contains("\"name\":\"alpha\""), "{j}");
        assert!(j.contains("\"name\":\"beta\""), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn calibration_grows_cheap_benches() {
        let mut s = Suite::new("unit", quick());
        s.bench("noop", || {
            black_box(0u64);
        });
        assert!(s.rows()[0].iters > 1, "a no-op must calibrate past one iteration");
    }
}
