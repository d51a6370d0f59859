//! Benchmark harness for regenerating every table and figure of the
//! paper's evaluation (§5, §6).
//!
//! Each figure/table has its own binary (see `src/bin/`), and every
//! binary's `main` is one call into the [`experiments`] registry,
//! which holds each experiment's defaults, golden-shape check and
//! sweep; this library holds the shared sweep and reporting
//! machinery. All binaries share the flag surface parsed by
//! [`cli::Args`]:
//!
//! * `--quick` — smaller work totals (CI-sized, ~seconds per series);
//! * `--procs 1,2,4,8,16` — override the processor counts;
//! * `--check` — skip the sweep and instead assert the binary's
//!   output schema and paper-direction invariants at small scale
//!   (see [`checks`]), exiting non-zero on violation;
//! * `--json <path>` — also write the results as machine-readable
//!   JSON (with `--check`, the check verdict instead). The committed
//!   examples live under `bench_results/`;
//! * `--jobs N` — fan the sweep's independent cells out to N worker
//!   threads (default: `TLR_JOBS` or the host parallelism). Results
//!   are merged in submission order, so every output is byte-identical
//!   to `--jobs 1` (enforced by `tests/parallel_determinism.rs`);
//! * `--engine`, `--interconnect`, `--policy`, `--profile` — the
//!   machine every cell starts from ([`cli::Args::base`]); the bus
//!   tops out at 16 processors, the home-node directory at 256
//!   (`exp_scalability` defaults to the directory);
//! * `exp_robustness` additionally takes `--faults N` (maximum chaos
//!   intensity level) and `--fault-seed S` (root seed for the fault
//!   streams) via [`cli::chaos_flags`].
//!
//! Run lengths are scaled down from the paper (2^24/2^16 iterations)
//! as documented in `DESIGN.md`; shapes, not absolute cycle counts,
//! are the reproduction target.

use tlr_core::run::{run_workload, RunReport, WorkloadSpec};
use tlr_sim::config::{MachineConfig, Scheme};
use tlr_sim::pool::{CellCoords, CellResult, Job, Pool};

pub mod checks;
pub mod cli;
pub mod experiments;
pub mod sweeps;

use cli::Args;

/// Coordinates of the cell that runs `cfg` (used in pool-error
/// messages).
pub fn cell_coords(workload: &str, cfg: &MachineConfig) -> CellCoords {
    CellCoords {
        workload: workload.to_string(),
        scheme: cfg.scheme.label().to_string(),
        procs: cfg.num_procs,
        seed: cfg.seed,
    }
}

/// Unwraps pooled cell results, panicking with the failing cell's
/// (workload, scheme, procs, seed) coordinates — sweep binaries
/// surface failures immediately, exactly as the serial loops did.
///
/// # Panics
///
/// Panics with the first failed cell's coordinates and message.
pub fn unwrap_cells<T>(results: Vec<CellResult<T>>) -> Vec<T> {
    // Workers claim cells in submission order and cancellation only
    // skips cells *after* a failure, so the first error found here is
    // always a genuinely failed cell, never a cancelled one.
    results.into_iter().map(|r| r.unwrap_or_else(|e| panic!("{e}"))).collect()
}

/// Fans one series sweep (`opts.procs` × `schemes` cells, each
/// derived from [`Args::base`] and averaged over `opts.seeds`)
/// out to `pool` and merges the per-cell reports in submission order,
/// so the returned rows — and everything serialized from them — are
/// byte-identical to a serial sweep regardless of the worker count.
pub fn sweep_series<W, F>(
    opts: &Args,
    pool: &Pool,
    workload_name: &str,
    schemes: &[Scheme],
    make_workload: F,
) -> Vec<(usize, Vec<RunReport>)>
where
    W: WorkloadSpec,
    F: Fn(usize) -> W + Sync,
{
    let (base, seeds) = (opts.base(), opts.seeds);
    let make_workload = &make_workload;
    let mut jobs = Vec::with_capacity(opts.procs.len() * schemes.len());
    for &procs in &opts.procs {
        for &scheme in schemes {
            let cfg = base.clone().scheme(scheme).procs(procs).build();
            jobs.push(Job::new(cell_coords(workload_name, &cfg), move |_| {
                run_cell_seeded(&cfg, &make_workload(procs), seeds)
            }));
        }
    }
    let mut cells = unwrap_cells(pool.scatter_indexed(jobs)).into_iter();
    opts.procs
        .iter()
        .map(|&procs| {
            (procs, (0..schemes.len()).map(|_| cells.next().expect("one cell per scheme")).collect())
        })
        .collect()
}

/// Runs one cell and asserts its serializability check passed.
pub fn run_cell(cfg: &MachineConfig, workload: &dyn WorkloadSpec) -> RunReport {
    let report = run_workload(cfg, workload);
    report.assert_valid();
    report
}

/// Runs one cell averaged over `seeds` perturbed runs of `cfg`; the
/// returned report carries the mean parallel cycle count (other
/// counters come from the first seed, which is `cfg`'s own).
pub fn run_cell_seeded(cfg: &MachineConfig, workload: &dyn WorkloadSpec, seeds: u64) -> RunReport {
    let mut first: Option<RunReport> = None;
    let mut total_cycles = 0u64;
    for s in 0..seeds {
        let mut cfg = cfg.clone();
        cfg.seed = cfg.seed.wrapping_add(s.wrapping_mul(0x9e37_79b9));
        let report = run_cell(&cfg, workload);
        total_cycles += report.stats.parallel_cycles;
        if first.is_none() {
            first = Some(report);
        }
    }
    let mut report = first.expect("at least one seed");
    report.stats.parallel_cycles = total_cycles / seeds;
    report
}

/// Prints a figure-style series table: one row per processor count,
/// one column per scheme, cells in execution cycles.
pub fn print_series(title: &str, schemes: &[Scheme], rows: &[(usize, Vec<RunReport>)]) {
    println!("\n== {title} ==");
    print!("{:>6}", "procs");
    for s in schemes {
        print!("{:>28}", s.label());
    }
    println!();
    for (procs, reports) in rows {
        print!("{procs:>6}");
        for r in reports {
            print!("{:>28}", r.stats.parallel_cycles);
        }
        println!();
    }
}

/// Prints per-scheme event diagnostics for one row (restarts,
/// commits, fallbacks, deferrals) — the quantities §6 discusses.
pub fn print_events(schemes: &[Scheme], reports: &[RunReport]) {
    print!("{:>6}", "");
    for (s, r) in schemes.iter().zip(reports) {
        print!(
            "{:>28}",
            format!(
                "c{} r{} f{} d{}",
                r.stats.total_commits(),
                r.stats.total_restarts(),
                r.stats.total_fallbacks(),
                r.stats.sum(|n| n.requests_deferred),
            )
        );
        let _ = s;
    }
    println!("   (c=commits r=restarts f=fallbacks d=deferrals)");
}

/// Writes a sweep as CSV: header `procs,<scheme>,...`, one row per
/// processor count, cells in parallel execution cycles.
///
/// # Panics
///
/// Panics if the file cannot be written (benchmark binaries surface
/// I/O problems immediately).
pub fn write_series_csv(
    path: &std::path::Path,
    schemes: &[Scheme],
    rows: &[(usize, Vec<RunReport>)],
) {
    use std::io::Write;
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    let header: Vec<String> =
        std::iter::once("procs".to_string()).chain(schemes.iter().map(|s| s.label().to_string())).collect();
    writeln!(f, "{}", header.join(",")).expect("csv write");
    for (procs, reports) in rows {
        let cells: Vec<String> = std::iter::once(procs.to_string())
            .chain(reports.iter().map(|r| r.stats.parallel_cycles.to_string()))
            .collect();
        writeln!(f, "{}", cells.join(",")).expect("csv write");
    }
    println!("(csv written to {})", path.display());
}

/// Writes the per-scheme fields of one report cell into an open JSON
/// object (shared by the series/app writers and the exp binaries).
/// Profiled cells (`--profile`) grow saturation columns; unprofiled
/// documents are byte-identical to pre-profiler output.
pub fn report_fields(j: &mut tlr_sim::json::JsonBuf, r: &RunReport) {
    j.str_field("scheme", r.scheme.label());
    j.u64_field("parallel_cycles", r.stats.parallel_cycles);
    j.u64_field("commits", r.stats.total_commits());
    j.u64_field("restarts", r.stats.total_restarts());
    j.u64_field("fallbacks", r.stats.total_fallbacks());
    j.u64_field("deferrals", r.stats.sum(|n| n.requests_deferred));
    j.u64_field("lock_cycles", r.stats.total_lock_cycles());
    j.u64_field("wasted_cycles", r.stats.total_wasted_cycles());
    if let Some(p) = &r.profile {
        j.f64_field("bus_utilization", p.utilization());
        j.u64_field("peak_spin_nodes", p.peak(|s| s.spin_nodes) as u64);
        j.str_field("saturation", &p.verdict(r.procs));
    }
}

/// Prints per-cell saturation verdicts for profiled sweep rows (one
/// line per processor count). Callers gate on profile presence, so
/// unprofiled runs print exactly what they always did.
pub fn print_saturation(rows: &[(usize, Vec<RunReport>)]) {
    println!("   saturation (--profile):");
    for (procs, reports) in rows {
        let cells: Vec<String> = reports
            .iter()
            .map(|r| match &r.profile {
                Some(p) => format!("{} {}", r.scheme.label(), p.verdict(r.procs)),
                None => format!("{} (unprofiled)", r.scheme.label()),
            })
            .collect();
        println!("{procs:>6}  {}", cells.join(" | "));
    }
}

/// Serializes a sweep (the same rows [`print_series`] prints) as a
/// JSON string. A pure function of the rows: parallel and serial
/// sweeps that merged identical reports serialize byte-identically.
pub fn series_json(title: &str, schemes: &[Scheme], rows: &[(usize, Vec<RunReport>)]) -> String {
    let mut j = tlr_sim::json::JsonBuf::new();
    j.obj();
    j.str_field("title", title);
    j.arr_key("schemes");
    for s in schemes {
        j.str_elem(s.label());
    }
    j.end_arr();
    j.arr_key("rows");
    for (procs, reports) in rows {
        j.obj();
        j.u64_field("procs", *procs as u64);
        j.arr_key("cells");
        for r in reports {
            j.obj();
            report_fields(&mut j, r);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
    j.finish()
}

/// Like [`series_json`] but for per-application rows (Figure 11):
/// rows are keyed by app name instead of processor count.
pub fn apps_json(title: &str, procs: usize, rows: &[(String, Vec<RunReport>)]) -> String {
    let mut j = tlr_sim::json::JsonBuf::new();
    j.obj();
    j.str_field("title", title);
    j.u64_field("procs", procs as u64);
    j.arr_key("apps");
    for (name, reports) in rows {
        j.obj();
        j.str_field("app", name);
        j.arr_key("cells");
        for r in reports {
            j.obj();
            report_fields(&mut j, r);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
    }
    j.end_arr();
    j.end_obj();
    j.finish()
}

/// Validates `json` with the in-repo parser, writes it to `path` and
/// announces it as `(<what> written to <path>)` (every JSON output
/// self-checks before it lands on disk).
///
/// # Panics
///
/// Panics if the JSON is malformed (a serializer bug) or the file
/// cannot be written.
pub fn write_json_file(path: &std::path::Path, json: &str, what: &str) {
    tlr_sim::json::validate(json).unwrap_or_else(|e| {
        panic!("generated {what} JSON for {} is malformed: {e}", path.display())
    });
    std::fs::write(path, json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("({what} written to {})", path.display());
}

/// Speedup of `a` over `b` as the paper defines it: cycles(b) /
/// cycles(a); > 1 means `a` is faster.
pub fn speedup(a: &RunReport, b: &RunReport) -> f64 {
    b.stats.parallel_cycles as f64 / a.stats.parallel_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_workloads::micro::single_counter;

    fn tlr2() -> MachineConfig {
        Args::default().base().scheme(Scheme::Tlr).procs(2).build()
    }

    #[test]
    fn run_cell_produces_valid_report() {
        let w = single_counter(2, 64);
        let r = run_cell(&tlr2(), &w);
        assert!(r.stats.parallel_cycles > 0);
        assert_eq!(r.procs, 2);
    }

    #[test]
    fn speedup_orientation() {
        let w = single_counter(2, 64);
        let a = run_cell(&tlr2(), &w);
        let mut b = a.clone();
        b.stats.parallel_cycles = a.stats.parallel_cycles * 2;
        assert!((speedup(&a, &b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn series_json_is_valid_and_carries_cells() {
        let w = single_counter(2, 64);
        let rows = vec![(2usize, vec![run_cell(&tlr2(), &w)])];
        let s = series_json("test series", &[Scheme::Tlr], &rows);
        tlr_sim::json::validate(&s).expect("valid JSON");
        assert!(s.contains("\"parallel_cycles\""));
        assert!(s.contains("BASE+SLE+TLR"), "{s}");
    }
}
