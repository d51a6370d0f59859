//! One workload's measurement: an untimed warm-up of the first cell,
//! then whole passes over the cell list until the time budget is
//! spent. End-to-end metrics come from untraced passes; with tracing
//! on, each untraced pass is followed by a traced one, which gives the
//! per-layer numbers and the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::cells::{Size, Workload};
use crate::json::{num, string};
use crate::runner::{run_cell, run_cell_traced, CellRun, Tally};
use crate::summary::{median, Summary};
use crate::trace::Tracer;
use crate::{golden, host, kernels};

/// Whole passes every run makes at least, however short its budget.
const MIN_PASSES: usize = 3;

/// End-to-end metrics: `(name, unit, better)`. Each is a per-pass
/// value except `peak_rss_mb`, read once per process.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("wall_s", "s", "lower"),
    ("cell_max_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("node_mcycles_per_s", "Mcycles/s", "higher"),
    ("sim_mips", "Minstr/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics reported by `--trace 1`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("workloads.build_s", "s"),
    ("core.machine_new_s", "s"),
    ("core.validate_s", "s"),
    ("machine.run_s", "s"),
    ("machine.quiesce_check_s", "s"),
    ("machine.finalize_s", "s"),
    ("machine.calls", "count"),
    ("machine.call_ns_p50", "ns"),
    ("machine.call_ns_p99", "ns"),
    ("machine.ns_per_step", "ns"),
    ("machine.ns_per_live_tick", "ns"),
    ("machine.engine.steps", "count"),
    ("machine.engine.live_ticks", "count"),
    ("machine.engine.skipped_cycles", "count"),
    ("machine.engine.step_ratio", "ratio"),
    ("machine.engine.tick_ratio", "ratio"),
    ("machine.engine.burst_cycles", "count"),
    ("machine.engine.spin_settle_cycles", "count"),
    ("machine.engine.idle_settle_cycles", "count"),
    ("machine.engine.wake.active_floor", "count"),
    ("machine.engine.wake.bus", "count"),
    ("machine.engine.wake.network", "count"),
    ("machine.engine.wake.snoop_front", "count"),
    ("machine.engine.wake.idle_timer", "count"),
    ("machine.engine.wake.retry_timer", "count"),
    ("machine.engine.wake.directory", "count"),
    ("machine.engine.wake.bound", "count"),
    ("sle.elisions", "count"),
    ("sle.commits", "count"),
    ("sle.commit_ratio", "ratio"),
    ("sle.restarts", "count"),
    ("sle.fallbacks", "count"),
    ("sle.wasted_cycles", "count"),
    ("policy.deferrals", "count"),
    ("policy.nacks", "count"),
    ("policy.probes", "count"),
    ("cpu.instructions", "count"),
    ("kernel.cpu.core_tick_ns", "ns"),
    ("mem.l1_misses", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.bus_transactions", "count"),
    ("mem.bus_arb_wait_cycles", "count"),
    ("mem.dir_requests_ordered", "count"),
    ("mem.c2c_transfers", "count"),
    ("sim.prof.bus_utilization", "ratio"),
    ("sim.prof.dir_utilization", "ratio"),
    ("kernel.mem.cache_hit_ns", "ns"),
    ("kernel.mem.cache_insert_evict_ns", "ns"),
    ("kernel.mem.victim_insert_take_ns", "ns"),
    ("kernel.mem.write_buffer_forward_ns", "ns"),
    ("kernel.mem.store_buffer_forward_ns", "ns"),
    ("kernel.mem.mshr_alloc_remove_ns", "ns"),
    ("kernel.mem.retry_timers_take_due_ns", "ns"),
    ("kernel.mem.bus_order_ns", "ns"),
    ("kernel.mem.network_send_drain_ns", "ns"),
    ("kernel.mem.directory_order_256_ns", "ns"),
    ("kernel.mem.protocol_snoop_ns", "ns"),
    ("kernel.mem.timestamp_wins_over_ns", "ns"),
    ("kernel.core.rmw_predictor_ns", "ns"),
    ("kernel.core.sle_predictor_ns", "ns"),
    ("kernel.sim.event_queue_push_pop_ns", "ns"),
    ("sim.fault.injected", "count"),
    ("trace.overhead_frac", "ratio"),
    ("machine.sim_cycles", "count"),
    ("machine.elapsed_cycles", "count"),
];

/// How one run is measured.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Whether each cell's digest reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenCheck {
    Match,
    Mismatch,
    /// `golden.tsv` has no digests for this seed: only run-to-run
    /// identity is checked.
    NoGolden,
}

impl GoldenCheck {
    fn label(self) -> &'static str {
        match self {
            GoldenCheck::Match => "match",
            GoldenCheck::Mismatch => "mismatch",
            GoldenCheck::NoGolden => "none",
        }
    }
}

/// Counts attempted and failed cell runs and pins each cell's digest.
struct Checker {
    labels: Vec<String>,
    golden: Option<BTreeMap<String, u64>>,
    first: Vec<Option<u64>>,
    attempted: u64,
    failures: Vec<String>,
}

impl Checker {
    fn record(&mut self, cell: usize, digest: &Result<u64, String>) {
        self.attempted += 1;
        let label = &self.labels[cell];
        let problem = match digest {
            Err(e) => Some(e.clone()),
            Ok(d) => {
                let first = *self.first[cell].get_or_insert(*d);
                match self.golden.as_ref().map(|g| g.get(label)) {
                    _ if first != *d => Some(format!(
                        "digest {d:016x} differs from this run's first {first:016x}"
                    )),
                    Some(None) => Some(format!("digest {d:016x} has no golden")),
                    Some(Some(w)) if w != d => Some(format!("digest {d:016x} != golden {w:016x}")),
                    _ => None,
                }
            }
        };
        if let Some(p) = problem {
            self.failures.push(format!("{label}: {p}"));
        }
    }

    fn golden_check(&self, cell: usize) -> GoldenCheck {
        match (&self.golden, self.first[cell]) {
            (None, _) => GoldenCheck::NoGolden,
            (Some(g), Some(d)) if g.get(&self.labels[cell]) == Some(&d) => GoldenCheck::Match,
            _ => GoldenCheck::Mismatch,
        }
    }
}

/// The result of measuring one workload.
pub struct WorkloadResult {
    pub workload: Workload,
    pub passes: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `(cell label, digest, check)` in run order.
    pub digests: Vec<(String, Option<u64>, GoldenCheck)>,
    /// Per-pass samples of each [`END_TO_END`] metric, in that order.
    pub end_to_end: Vec<Vec<f64>>,
    /// Each [`PER_LAYER`] metric's value, in that order, when traced.
    pub layers: Option<Vec<f64>>,
    pub tracer: Tracer,
}

impl WorkloadResult {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self
                .digests
                .iter()
                .all(|(_, _, g)| *g != GoldenCheck::Mismatch)
    }
}

/// Per-run samples of each [`END_TO_END`] metric, in that order, from
/// the untraced passes (`passes[pass][cell]`). `cell_max_s` follows the
/// cell with the largest median time, so one slow burst in one pass
/// cannot make a different cell the "slowest".
fn end_to_end(passes: &[Vec<CellRun>], peak_rss: f64) -> Vec<Vec<f64>> {
    let per_pass =
        |f: &dyn Fn(&[CellRun]) -> f64| passes.iter().map(|p| f(p)).collect::<Vec<f64>>();
    let sum = |p: &[CellRun], f: fn(&CellRun) -> f64| p.iter().map(f).sum::<f64>();
    let slowest = (0..passes[0].len())
        .map(|i| passes.iter().map(|p| p[i].total_s).collect::<Vec<f64>>())
        .max_by(|a, b| median(a).total_cmp(&median(b)))
        .expect("a workload has cells");
    vec![
        per_pass(&|p| sum(p, |c| c.total_s)),
        slowest,
        per_pass(&|p| sum(p, |c| c.setup_s)),
        per_pass(&|p| sum(p, |c| c.node_cycles as f64) / sum(p, |c| c.run_s) / 1e6),
        per_pass(&|p| sum(p, |c| c.instructions as f64) / sum(p, |c| c.run_s) / 1e6),
        vec![peak_rss],
    ]
}

/// One traced pass's per-layer values by name (all but the kernels and
/// the overhead, which are measured once per run).
fn layer_values(
    tally: &mut Tally,
    self_s: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let t = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let run_s = t("machine.run");
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("workloads.build_s", t("workloads.build"));
    v.insert("core.machine_new_s", t("core.machine_new"));
    v.insert("core.validate_s", t("core.validate"));
    v.insert("machine.run_s", run_s);
    v.insert("machine.quiesce_check_s", tally.quiesce_s);
    v.insert("machine.finalize_s", tally.finalize_s);
    v.insert("machine.calls", tally.calls.len() as f64);
    v.insert(
        "machine.call_ns_p50",
        tally.calls.percentile(50.0).unwrap_or(0) as f64,
    );
    v.insert(
        "machine.call_ns_p99",
        tally.calls.percentile(99.0).unwrap_or(0) as f64,
    );
    v.insert(
        "machine.ns_per_step",
        run_s * 1e9 / tally.steps.max(1) as f64,
    );
    v.insert(
        "machine.ns_per_live_tick",
        run_s * 1e9 / tally.live_ticks.max(1) as f64,
    );
    v.insert("machine.engine.steps", tally.steps as f64);
    v.insert("machine.engine.live_ticks", tally.live_ticks as f64);
    v.insert("machine.engine.skipped_cycles", tally.skipped_cycles as f64);
    v.insert(
        "machine.engine.step_ratio",
        ratio(tally.steps, tally.elapsed_cycles),
    );
    v.insert(
        "machine.engine.tick_ratio",
        ratio(tally.live_ticks, tally.node_cycles),
    );
    v.insert("machine.engine.burst_cycles", tally.burst_cycles as f64);
    v.insert(
        "machine.engine.spin_settle_cycles",
        tally.spin_settle_cycles as f64,
    );
    v.insert(
        "machine.engine.idle_settle_cycles",
        tally.idle_settle_cycles as f64,
    );
    // In `WakeSource::ALL` order, which is the histogram's.
    let wake = [
        "machine.engine.wake.active_floor",
        "machine.engine.wake.bus",
        "machine.engine.wake.network",
        "machine.engine.wake.snoop_front",
        "machine.engine.wake.idle_timer",
        "machine.engine.wake.retry_timer",
        "machine.engine.wake.directory",
        "machine.engine.wake.bound",
    ];
    for (name, n) in wake.into_iter().zip(tally.wake) {
        v.insert(name, n as f64);
    }
    v.insert("sle.elisions", tally.elisions as f64);
    v.insert("sle.commits", tally.commits as f64);
    v.insert("sle.commit_ratio", ratio(tally.commits, tally.elisions));
    v.insert("sle.restarts", tally.restarts as f64);
    v.insert("sle.fallbacks", tally.fallbacks as f64);
    v.insert("sle.wasted_cycles", tally.wasted_cycles as f64);
    v.insert("policy.deferrals", tally.deferrals as f64);
    v.insert("policy.nacks", tally.nacks as f64);
    v.insert("policy.probes", tally.probes as f64);
    v.insert("cpu.instructions", tally.instructions as f64);
    v.insert("mem.l1_misses", tally.l1_misses as f64);
    v.insert(
        "mem.l1_hit_ratio",
        ratio(tally.l1_hits, tally.l1_hits + tally.l1_misses),
    );
    v.insert("mem.bus_transactions", tally.bus_transactions as f64);
    v.insert("mem.bus_arb_wait_cycles", tally.bus_arb_wait_cycles as f64);
    v.insert(
        "mem.dir_requests_ordered",
        tally.dir_requests_ordered as f64,
    );
    v.insert("mem.c2c_transfers", tally.c2c_transfers as f64);
    let cycles = tally.elapsed_cycles.max(1) as f64;
    v.insert("sim.prof.bus_utilization", tally.bus_util_cycles / cycles);
    v.insert("sim.prof.dir_utilization", tally.dir_util_cycles / cycles);
    v.insert("sim.fault.injected", tally.faults_injected as f64);
    v.insert("machine.sim_cycles", tally.sim_cycles as f64);
    v.insert("machine.elapsed_cycles", tally.elapsed_cycles as f64);
    v
}

/// Measures `workload` under `plan`.
pub fn run(workload: Workload, plan: &Plan) -> WorkloadResult {
    let cells = workload.cells(plan.seed, plan.size);
    let labels: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();
    let mut check = Checker {
        golden: golden::expected(plan.seed, workload.name()),
        first: vec![None; labels.len()],
        labels,
        attempted: 0,
        failures: Vec::new(),
    };
    check.record(0, &run_cell(&cells[0]).digest);
    let kernels = if plan.trace {
        kernels::run(5, 2_000_000)
    } else {
        Vec::new()
    };

    let mut passes: Vec<Vec<CellRun>> = Vec::new();
    let mut peak_rss = 0.0;
    let mut tracer = Tracer::default();
    let mut traced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traced_wall = Vec::new();
    let start = Instant::now();
    let mut iterations = 0;
    loop {
        let pass: Vec<CellRun> = cells.iter().map(run_cell).collect();
        for (i, r) in pass.iter().enumerate() {
            check.record(i, &r.digest);
        }
        passes.push(pass);
        // Traced passes allocate more; the untraced peak is read before
        // the first of them.
        if !plan.trace || iterations == 0 {
            peak_rss = host::peak_rss_mib().unwrap_or(0.0);
        }
        if plan.trace {
            tracer.next_pass();
            let mut tally = Tally::default();
            let mut wall = 0.0;
            for (i, c) in cells.iter().enumerate() {
                let (s, digest) = run_cell_traced(c, &mut tracer, &mut tally);
                check.record(i, &digest);
                wall += s;
            }
            traced_wall.push(wall);
            traced.push(layer_values(&mut tally, &tracer.self_times()));
        }
        iterations += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if iterations >= MIN_PASSES
            && elapsed * (iterations + 1) as f64 / iterations as f64 > plan.seconds
        {
            break;
        }
    }
    let e2e = end_to_end(&passes, peak_rss);

    let layers = plan.trace.then(|| {
        let mut by_name: BTreeMap<String, f64> = kernels.into_iter().collect();
        for (name, _) in PER_LAYER {
            if let Some(samples) = traced
                .iter()
                .map(|m| m.get(name).copied())
                .collect::<Option<Vec<f64>>>()
            {
                by_name.insert(name.to_string(), median(&samples));
            }
        }
        by_name.insert(
            "trace.overhead_frac".to_string(),
            median(&traced_wall) / median(&e2e[0]) - 1.0,
        );
        PER_LAYER
            .iter()
            .map(|(name, _)| {
                *by_name
                    .get(*name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
            })
            .collect()
    });

    WorkloadResult {
        workload,
        passes: iterations,
        attempted: check.attempted,
        digests: (0..cells.len())
            .map(|i| {
                (
                    check.labels[i].clone(),
                    check.first[i],
                    check.golden_check(i),
                )
            })
            .collect(),
        failures: check.failures,
        end_to_end: e2e,
        layers,
        tracer,
    }
}

/// The contract line: `correct`, `attempted`, `failed`, and the
/// end-to-end medians (untraced) or the per-layer values (traced).
pub fn result_line(r: &WorkloadResult) -> String {
    let metrics: Vec<String> = match &r.layers {
        Some(values) => PER_LAYER
            .iter()
            .zip(values)
            .map(|((name, unit), v)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v))
            })
            .collect(),
        None => END_TO_END
            .iter()
            .zip(&r.end_to_end)
            .map(|((name, unit, _), s)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(median(s))
                )
            })
            .collect(),
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed(),
        metrics.join(",")
    )
}

/// The full report of one workload for `--json`: every end-to-end
/// metric with its per-pass samples, each cell's digest, and the
/// per-layer values when traced.
pub fn report_json(r: &WorkloadResult) -> String {
    let metrics: Vec<String> = END_TO_END
        .iter()
        .zip(&r.end_to_end)
        .map(|((name, unit, better), samples)| {
            let s = Summary::of(samples);
            let list: Vec<String> = samples.iter().map(|v| num(*v)).collect();
            format!(
                "\"{name}\":{{\"unit\":\"{unit}\",\"better\":\"{better}\",\"median\":{},\"q1\":{},\"q3\":{},\
                 \"min\":{},\"max\":{},\"n\":{},\"samples\":[{}]}}",
                num(s.median),
                num(s.q1),
                num(s.q3),
                num(s.min),
                num(s.max),
                s.n,
                list.join(",")
            )
        })
        .collect();
    let layers: Vec<String> = r
        .layers
        .iter()
        .flat_map(|values| {
            PER_LAYER.iter().zip(values).map(|((name, unit), v)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v))
            })
        })
        .collect();
    let digests: Vec<String> = r
        .digests
        .iter()
        .map(|(cell, d, g)| {
            format!(
                "{{\"cell\":{},\"digest\":{},\"golden\":\"{}\"}}",
                string(cell),
                d.map_or("null".to_string(), |d| format!("\"{d:016x}\"")),
                g.label()
            )
        })
        .collect();
    let failures: Vec<String> = r.failures.iter().map(|f| string(f)).collect();
    format!(
        "{{\"name\":\"{}\",\"cells\":{},\"passes\":{},\"attempted\":{},\"failed\":{},\"failed_frac\":{},\
         \"correct\":{},\"metrics\":{{{}}},\"layers\":{},\"digests\":[{}],\"failures\":[{}]}}",
        r.workload.name(),
        r.digests.len(),
        r.passes,
        r.attempted,
        r.failed(),
        num(r.failed() as f64 / r.attempted.max(1) as f64),
        r.correct(),
        metrics.join(","),
        if r.layers.is_some() { format!("{{{}}}", layers.join(",")) } else { "null".to_string() },
        digests.join(","),
        failures.join(",")
    )
}

/// The human-readable report printed before the contract line.
pub fn print_text(r: &WorkloadResult, seed: u64) {
    println!(
        "tlr-perf {}: {} cells x {} passes, seed {seed:#x}, {} attempted, {} failed",
        r.workload.name(),
        r.digests.len(),
        r.passes,
        r.attempted,
        r.failed()
    );
    println!(
        "  {:<20} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>3}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "n"
    );
    for ((name, unit, _), samples) in END_TO_END.iter().zip(&r.end_to_end) {
        let s = Summary::of(samples);
        println!(
            "  {name:<20} {unit:>10} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>3}",
            s.median, s.q1, s.q3, s.min, s.max, s.n
        );
    }
    let failed_frac = r.failed() as f64 / r.attempted.max(1) as f64;
    println!(
        "  {:<20} {:>10} {failed_frac:>12} ({}/{})",
        "failed_frac",
        "ratio",
        r.failed(),
        r.attempted
    );
    let count = |g: GoldenCheck| r.digests.iter().filter(|(_, _, x)| *x == g).count();
    println!(
        "  digests: {} match golden.tsv, {} mismatch, {} without a golden at this seed",
        count(GoldenCheck::Match),
        count(GoldenCheck::Mismatch),
        count(GoldenCheck::NoGolden)
    );
    for f in r.failures.iter().take(10) {
        println!("  FAILED {f}");
    }
    if let Some(values) = &r.layers {
        for ((name, unit), v) in PER_LAYER.iter().zip(values) {
            println!("  {name:<40} {unit:>6} {v:>16.6}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the package"))
            .expect("valid JSON")
    }

    /// `BENCHMARK.json` and the metric tables here name the same
    /// metrics, with the same units and directions, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let b = benchmark_json();
        let e2e: Vec<(String, String, String)> = b
            .get("end_to_end")
            .expect("end_to_end")
            .as_arr()
            .iter()
            .map(|m| {
                let f = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (f("name"), f("unit"), f("better"))
            })
            .collect();
        let want: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String)> = b
            .get("per_layer")
            .expect("per_layer")
            .as_arr()
            .iter()
            .map(|m| {
                let f = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (f("name"), f("unit"))
            })
            .collect();
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, want);
        let workloads: Vec<&str> = b
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    /// A short traced run of the small cells: every output validates as
    /// JSON and names exactly the metrics `BENCHMARK.json` lists.
    #[test]
    fn traced_run_reports_every_metric() {
        let plan = Plan {
            seed: 3,
            seconds: 0.0,
            trace: true,
            size: Size::Small,
        };
        let r = run(Workload::Conflict16, &plan);
        assert!(r.correct(), "{:?}", r.failures);
        assert_eq!(r.passes, MIN_PASSES);
        assert_eq!(r.attempted, 1 + 2 * (MIN_PASSES as u64) * 8);
        assert!(r
            .digests
            .iter()
            .all(|(_, d, g)| d.is_some() && *g == GoldenCheck::NoGolden));
        let values = r.layers.as_ref().expect("traced");
        assert_eq!(values.len(), PER_LAYER.len());
        assert!(values.iter().all(|v| v.is_finite()));

        let names = |v: &Value| {
            v.as_obj()
                .iter()
                .map(|(k, _)| k.clone())
                .collect::<Vec<_>>()
        };
        let line = result_line(&r);
        tlr_sim::json::validate(&line).expect("result line is JSON");
        let l = parse(&line).expect("parses");
        let keys: Vec<String> = names(&l);
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            names(l.get("metrics").expect("metrics")),
            PER_LAYER.map(|(n, _)| n.to_string())
        );

        let report = report_json(&r);
        tlr_sim::json::validate(&report).expect("report is JSON");
        let rep = parse(&report).expect("parses");
        assert_eq!(
            names(rep.get("metrics").expect("metrics")),
            END_TO_END.map(|(n, _, _)| n.to_string())
        );
        assert_eq!(
            names(rep.get("layers").expect("layers")),
            PER_LAYER.map(|(n, _)| n.to_string())
        );

        let untraced = run(
            Workload::Conflict16,
            &Plan {
                trace: false,
                ..plan
            },
        );
        assert_eq!(
            untraced.digests, r.digests,
            "traced digests equal untraced ones"
        );
        let l = parse(&result_line(&untraced)).expect("parses");
        assert_eq!(
            names(l.get("metrics").expect("metrics")),
            END_TO_END.map(|(n, _, _)| n.to_string())
        );
    }
}
