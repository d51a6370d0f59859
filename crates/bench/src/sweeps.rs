//! Library entry points for the figure/table/exp binaries.
//!
//! Each function runs its binary's full sweep through the
//! deterministic parallel execution engine ([`tlr_sim::pool`]),
//! deriving every cell from the invocation's base machine
//! ([`Args::base`]), and returns the collected rows as a
//! [`Report`]: the stdout table, the JSON document and, for the
//! processor sweeps, the CSV export. The [`crate::experiments`]
//! registry maps each binary to its entry point, and
//! `tests/parallel_determinism.rs` walks that registry to assert that
//! `jobs=1` and `jobs=4` produce byte-identical JSON documents.
//!
//! Determinism argument: every cell is a pure function of (workload
//! parameters, scheme, procs, seed) — the machine's RNG is seeded from
//! the config, never from the host — and cells share no state. The
//! pool merges results in submission order, so the row vectors built
//! here are independent of scheduling, and the serializers are pure
//! functions of the rows.

use std::path::Path;

use tlr_core::run::{RunReport, WorkloadSpec};
use tlr_sim::config::{MachineConfig, PolicyKind, RetentionPolicy, Scheme};
use tlr_sim::pool::{Job, Pool};
use tlr_workloads::apps::{figure11_apps, mp3d, mp3d_coarse};
use tlr_workloads::micro::{doubly_linked_list, multiple_counter, single_counter};

use crate::cli::Args;
use crate::{
    apps_json, cell_coords, print_events, print_series, run_cell, series_json, speedup,
    unwrap_cells, write_series_csv,
};

/// What an experiment's sweep returns: one result set rendered three
/// ways. Every rendering is a pure function of the collected rows.
pub trait Report {
    /// Prints the human-readable table to stdout.
    fn print(&self);

    /// The results as a JSON document (`--json`).
    fn json(&self) -> String;

    /// Writes the CSV export (`--csv`). Only the processor sweeps
    /// have one; the other experiments accept the flag and write
    /// nothing.
    fn write_csv(&self, _path: &Path) {}
}

/// A processor-count sweep (Figures 8-10): one row per processor
/// count, one report per scheme.
pub struct SeriesSweep {
    /// Title used when printing the text table.
    pub display_title: String,
    /// Title embedded in the JSON document.
    pub json_title: String,
    /// Schemes, in column order.
    pub schemes: Vec<Scheme>,
    /// Rows in `opts.procs` order.
    pub rows: Vec<(usize, Vec<RunReport>)>,
}

impl Report for SeriesSweep {
    /// Prints the figure-style table plus the last row's event
    /// diagnostics, and — on profiled sweeps — per-cell saturation
    /// verdicts.
    fn print(&self) {
        print_series(&self.display_title, &self.schemes, &self.rows);
        if let Some((_, last)) = self.rows.last() {
            print_events(&self.schemes, last);
        }
        if self.rows.iter().any(|(_, rs)| rs.iter().any(|r| r.profile.is_some())) {
            crate::print_saturation(&self.rows);
        }
    }

    fn json(&self) -> String {
        series_json(&self.json_title, &self.schemes, &self.rows)
    }

    fn write_csv(&self, path: &Path) {
        write_series_csv(path, &self.schemes, &self.rows);
    }
}

/// Figure 8: multiple-counter microbenchmark (coarse-grain locking,
/// no data conflicts).
pub fn fig08(opts: &Args, pool: &Pool) -> SeriesSweep {
    let total = opts.scale(1 << 14);
    let schemes = vec![Scheme::Base, Scheme::Mcs, Scheme::Sle, Scheme::Tlr];
    let rows = crate::sweep_series(opts, pool, "multiple_counter", &schemes, |procs| {
        multiple_counter(procs, total)
    });
    SeriesSweep {
        display_title: format!(
            "Figure 8: multiple-counter, {total} total increments (cycles, lower is better)"
        ),
        json_title: "Figure 8: multiple-counter microbenchmark".to_string(),
        schemes,
        rows,
    }
}

/// Figure 9: single-counter microbenchmark (fine-grain locking, high
/// conflict).
pub fn fig09(opts: &Args, pool: &Pool) -> SeriesSweep {
    let total = opts.scale(1 << 12);
    let schemes = vec![Scheme::Base, Scheme::Mcs, Scheme::Sle, Scheme::TlrStrictTs, Scheme::Tlr];
    let rows = crate::sweep_series(opts, pool, "single_counter", &schemes, |procs| {
        single_counter(procs, total)
    });
    SeriesSweep {
        display_title: format!(
            "Figure 9: single-counter, {total} total increments (cycles, lower is better)"
        ),
        json_title: "Figure 9: single-counter microbenchmark".to_string(),
        schemes,
        rows,
    }
}

/// Figure 10: doubly-linked-list microbenchmark (fine-grain locking,
/// dynamic conflicts).
pub fn fig10(opts: &Args, pool: &Pool) -> SeriesSweep {
    let total_pairs = opts.scale(1 << 11);
    let schemes = vec![Scheme::Base, Scheme::Mcs, Scheme::Sle, Scheme::Tlr];
    let rows = crate::sweep_series(opts, pool, "linked_list", &schemes, |procs| {
        doubly_linked_list(procs, total_pairs)
    });
    SeriesSweep {
        display_title: format!(
            "Figure 10: doubly-linked list, {total_pairs} dequeue+enqueue pairs (cycles, lower is better)"
        ),
        json_title: "Figure 10: doubly-linked-list microbenchmark".to_string(),
        schemes,
        rows,
    }
}

/// A per-application sweep (Figure 11): one row per app, reports in
/// BASE / SLE / TLR / MCS order.
pub struct AppsSweep {
    /// Title embedded in the JSON document.
    pub json_title: String,
    /// Processor count all apps ran at.
    pub procs: usize,
    /// Work scale the apps ran at.
    pub scale: u64,
    /// One row per application.
    pub rows: Vec<(String, Vec<RunReport>)>,
}

impl Report for AppsSweep {
    /// Prints each application's BASE / SLE / TLR time normalized to
    /// BASE, split into lock-variable and other cycles (the two-part
    /// bars of Figure 11), plus the TLR and MCS speedups over BASE.
    fn print(&self) {
        println!(
            "Figure 11: application performance, {} processors, scale {}",
            self.procs, self.scale
        );
        println!(
            "{:<12} {:>9} {:>22} {:>22} {:>22} {:>9} {:>9}",
            "app", "BASE(cyc)", "BASE lock/other", "SLE lock/other", "TLR lock/other", "TLR/BASE", "MCS/BASE"
        );
        for (name, reports) in &self.rows {
            let (base, sle, tlr, mcs) = (&reports[0], &reports[1], &reports[2], &reports[3]);
            let part = |r: &RunReport| {
                let total = (r.stats.parallel_cycles * self.procs as u64).max(1) as f64;
                let lock = r.stats.total_lock_cycles() as f64 / total;
                let norm = r.stats.parallel_cycles as f64 / base.stats.parallel_cycles as f64;
                format!("{:>6.3} ({:>4.1}%/{:>4.1}%)", norm, lock * 100.0, (1.0 - lock) * 100.0)
            };
            println!(
                "{:<12} {:>9} {:>22} {:>22} {:>22} {:>9.2} {:>9.2}",
                name,
                base.stats.parallel_cycles,
                part(base),
                part(sle),
                part(tlr),
                speedup(tlr, base),
                speedup(mcs, base),
            );
        }
        println!("\n(normalized execution time; lock% = cycles attributed to lock variables)");
    }

    fn json(&self) -> String {
        apps_json(&self.json_title, self.procs, &self.rows)
    }
}

/// Figure 11: application kernels at one processor count, under
/// BASE / SLE / TLR / MCS.
pub fn fig11(opts: &Args, pool: &Pool) -> AppsSweep {
    let procs = *opts.procs.last().unwrap_or(&16);
    let scale = opts.scale(512);
    let apps = figure11_apps(procs, scale);
    let schemes = [Scheme::Base, Scheme::Sle, Scheme::Tlr, Scheme::Mcs];
    let base = opts.base().procs(procs);
    let mut jobs = Vec::with_capacity(apps.len() * schemes.len());
    for w in &apps {
        for &scheme in &schemes {
            let w = w.as_ref();
            let cfg = base.clone().scheme(scheme).build();
            jobs.push(Job::new(cell_coords(w.name(), &cfg), move |_| run_cell(&cfg, w)));
        }
    }
    let mut cells = unwrap_cells(pool.scatter_indexed(jobs)).into_iter();
    let rows = apps
        .iter()
        .map(|w| {
            (
                w.name().to_string(),
                (0..schemes.len()).map(|_| cells.next().expect("cell per scheme")).collect(),
            )
        })
        .collect();
    AppsSweep {
        json_title: "Figure 11: application performance".to_string(),
        procs,
        scale,
        rows,
    }
}

/// Table 1 rows: (application, simulation type, critical-section
/// structure, kernel substitution).
pub fn table1_rows() -> [(&'static str, &'static str, &'static str, &'static str); 7] {
    [
        ("Barnes", "N-Body", "tree node locks",
         "4-ary tree insert, per-node lock+counter"),
        ("Cholesky", "Matrix factoring", "task queue & col. locks",
         "task pop + column writes; 1/32 tasks exceed the write buffer"),
        ("Mp3D", "Rarefied field flow", "cell locks",
         "4096 packed cell locks (footprint > L1), random cell updates"),
        ("Radiosity", "3-D rendering", "task queue & buffer locks",
         "one contended central queue + 4 buffer locks"),
        ("Water-nsq", "Water molecules", "global structure locks",
         "8 round-robin global accumulators, compute between"),
        ("Ocean-cont", "Hydrodynamics", "counter locks",
         "private grid sweeps + 2 convergence counter locks"),
        ("Raytrace", "Image rendering", "work list & counter locks",
         "work-list pop + ray tally under two locks"),
    ]
}

/// Table 1: the benchmark inventory, paper column next to this
/// reproduction's kernel.
pub struct Table1;

impl Report for Table1 {
    fn print(&self) {
        println!("Table 1: Benchmarks (paper column -> this reproduction's kernel)");
        println!(
            "{:<12} {:<22} {:<34} {:<40}",
            "Application", "Type of simulation", "Type of critical sections", "Kernel substitution"
        );
        for (app, sim, cs, kernel) in table1_rows() {
            println!("{app:<12} {sim:<22} {cs:<34} {kernel:<40}");
        }
        println!();
        println!("All kernels run the same binary under BASE/SLE/TLR (test&test&set locks)");
        println!("and an MCS-lock binary under the MCS configuration, as in §5.");
    }

    fn json(&self) -> String {
        let mut j = tlr_sim::json::JsonBuf::new();
        j.obj();
        j.str_field("title", "Table 1: Benchmarks");
        j.arr_key("rows");
        for (app, sim, cs, kernel) in table1_rows() {
            j.obj();
            j.str_field("application", app);
            j.str_field("simulation", sim);
            j.str_field("critical_sections", cs);
            j.str_field("kernel", kernel);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }
}

/// Table 2: the simulated machine's parameters next to the paper's.
pub struct Table2 {
    /// (parameter, this reproduction's value, paper value).
    pub rows: Vec<(&'static str, String, &'static str)>,
}

/// Table 2 for the 16-processor TLR machine the invocation's base
/// describes.
pub fn table2(opts: &Args) -> Table2 {
    let cfg = opts.base().scheme(Scheme::Tlr).procs(16).build();
    Table2 {
        rows: vec![
            ("processors", cfg.num_procs.to_string(), "16 (CMP, snooping L1s)"),
            ("core model", "in-order, 1 op/cycle, 64-entry store buffer".into(),
             "8-wide OoO, 128-entry ROB (see DESIGN.md substitution)"),
            ("L1 data cache", format!("{} KB, {}-way, {} B lines",
                cfg.l1_sets * cfg.l1_ways * 64 / 1024, cfg.l1_ways, cfg.line_bytes()),
             "128 KB, 4-way, 64 B lines, 1-cycle"),
            ("L1 hit latency", format!("{} cycle", cfg.latency.l1_hit), "1 cycle"),
            ("write buffer", format!("{} lines (speculative)", cfg.write_buffer_lines),
             "64 entries, 64 B wide"),
            ("victim cache", format!("{} entries", cfg.victim_entries), "16 (stability discussion)"),
            ("MSHRs", format!("{}", cfg.mshrs), "16 pending misses"),
            ("SLE predictor", format!("{} entries", cfg.sle_predictor_entries),
             "64-entry silent store-pair predictor"),
            ("elision depth", format!("{}", cfg.max_elision_depth), "8 store-pair elisions"),
            ("RMW predictor", format!("{} entries, enabled={}", cfg.rmw_predictor_entries,
                cfg.rmw_predictor_enabled),
             "128-entry PC-indexed, all experiments"),
            ("coherence", "MOESI broadcast snooping, split transaction".into(),
             "Sun Gigaplane-type MOESI"),
            ("snoop latency", format!("{} cycles", cfg.latency.snoop), "20 cycles"),
            ("data network", format!("{} cycles, point-to-point", cfg.latency.data_network),
             "20 cycles, pipelined"),
            ("L2 cache", format!("{} MB, {}-way, {}-cycle",
                cfg.l2_sets * cfg.l2_ways * 64 / (1024 * 1024), cfg.l2_ways, cfg.latency.l2),
             "4 MB, 12-cycle"),
            ("memory", format!("{} cycles", cfg.latency.memory), "70 cycles"),
            ("synchronization", "load-linked/store-conditional".into(), "LL/SC"),
            ("memory model", "TSO (store buffer + fences)".into(), "TSO, aggressive"),
            ("timestamps", format!("{}-bit wrapping logical clock + node id", cfg.timestamp_bits),
             "logical clock + processor id (§2.1.2)"),
        ],
    }
}

impl Report for Table2 {
    fn print(&self) {
        println!("Table 2: simulated machine parameters (this reproduction)");
        let (h1, h2, h3) = ("parameter", "this reproduction", "paper");
        println!("{h1:<18} {h2:<48} {h3}");
        for (k, v, p) in &self.rows {
            println!("{k:<18} {v:<48} {p}");
        }
    }

    fn json(&self) -> String {
        let mut j = tlr_sim::json::JsonBuf::new();
        j.obj();
        j.str_field("title", "Table 2: simulated machine parameters");
        j.arr_key("rows");
        for (k, v, p) in &self.rows {
            j.obj();
            j.str_field("parameter", k);
            j.str_field("reproduction", v);
            j.str_field("paper", p);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }
}

/// §6.3 coarse-vs-fine granularity experiment results. `configs`
/// holds, in order: BASE/MCS/TLR over fine-grain locks, then
/// BASE/MCS/TLR over the one coarse lock.
pub struct CoarseFine {
    /// Processor count.
    pub procs: usize,
    /// Moves per processor.
    pub iters: u64,
    /// Cell count of the mp3d kernel.
    pub cells: u64,
    /// Labeled reports in fixed configuration order.
    pub configs: Vec<(&'static str, RunReport)>,
}

impl CoarseFine {
    fn report(&self, i: usize) -> &RunReport {
        &self.configs[i].1
    }

    /// TLR+coarse over BASE+fine (paper: 2.40).
    pub fn tlr_coarse_over_base_fine(&self) -> f64 {
        speedup(self.report(5), self.report(0))
    }

    /// TLR+coarse over TLR+fine (paper: 1.70).
    pub fn tlr_coarse_over_tlr_fine(&self) -> f64 {
        speedup(self.report(5), self.report(2))
    }

    /// BASE+coarse over BASE+fine (< 1: the coarse lock hurts BASE).
    pub fn base_coarse_over_base_fine(&self) -> f64 {
        speedup(self.report(3), self.report(0))
    }
}

impl Report for CoarseFine {
    fn print(&self) {
        println!(
            "Coarse vs fine grain (mp3d kernel), {} processors, {} moves/proc, {} cells",
            self.procs, self.iters, self.cells
        );
        println!("{:<28} {:>14}", "configuration", "cycles");
        for (name, r) in &self.configs {
            println!("{:<28} {:>14}", name, r.stats.parallel_cycles);
        }
        println!();
        println!(
            "speedup TLR+coarse over BASE+fine: {:.2}   (paper: 2.40)",
            self.tlr_coarse_over_base_fine()
        );
        println!(
            "speedup TLR+coarse over TLR+fine:  {:.2}   (paper: 1.70)",
            self.tlr_coarse_over_tlr_fine()
        );
        println!(
            "coarse lock under BASE degrades:   {:.2}x slower than BASE+fine",
            1.0 / self.base_coarse_over_base_fine()
        );
    }

    fn json(&self) -> String {
        let mut j = tlr_sim::json::JsonBuf::new();
        j.obj();
        j.str_field("title", "Coarse vs fine grain (mp3d kernel)");
        j.u64_field("procs", self.procs as u64);
        j.arr_key("configurations");
        for (name, r) in &self.configs {
            j.obj();
            j.str_field("configuration", name);
            crate::report_fields(&mut j, r);
            j.end_obj();
        }
        j.end_arr();
        j.obj_key("speedups");
        j.f64_field("tlr_coarse_over_base_fine", self.tlr_coarse_over_base_fine());
        j.f64_field("tlr_coarse_over_tlr_fine", self.tlr_coarse_over_tlr_fine());
        j.f64_field("base_coarse_over_base_fine", self.base_coarse_over_base_fine());
        j.end_obj();
        j.end_obj();
        j.finish()
    }
}

/// §6.3 coarse-grain vs fine-grain experiment (mp3d kernel).
pub fn coarse_fine(opts: &Args, pool: &Pool) -> CoarseFine {
    let procs = *opts.procs.last().unwrap_or(&16);
    let iters = opts.scale(1024);
    let cells = 4096;
    let fine = mp3d(procs, iters, cells);
    let coarse = mp3d_coarse(procs, iters, cells);
    let plan: [(&'static str, Scheme, &dyn WorkloadSpec); 6] = [
        ("BASE  + fine-grain locks", Scheme::Base, &fine),
        ("MCS   + fine-grain locks", Scheme::Mcs, &fine),
        ("TLR   + fine-grain locks", Scheme::Tlr, &fine),
        ("BASE  + one coarse lock", Scheme::Base, &coarse),
        ("MCS   + one coarse lock", Scheme::Mcs, &coarse),
        ("TLR   + one coarse lock", Scheme::Tlr, &coarse),
    ];
    let base = opts.base().procs(procs);
    let jobs = plan
        .iter()
        .map(|&(_, scheme, w)| {
            let cfg = base.clone().scheme(scheme).build();
            Job::new(cell_coords(w.name(), &cfg), move |_| run_cell(&cfg, w))
        })
        .collect();
    let reports = unwrap_cells(pool.scatter_indexed(jobs));
    let configs = plan.iter().zip(reports).map(|(&(name, _, _), r)| (name, r)).collect();
    CoarseFine { procs, iters, cells, configs }
}

/// One application row of the RMW-predictor experiment.
pub struct RmwRow {
    /// Application name.
    pub app: String,
    /// BASE cycles with the predictor disabled.
    pub base_no_opt_cycles: u64,
    /// BASE cycles with the predictor enabled.
    pub base_cycles: u64,
    /// The paper's reported speedup for this app.
    pub paper_speedup: f64,
}

/// §6.3 read-modify-write predictor experiment results.
pub struct RmwPredictor {
    /// Processor count.
    pub procs: usize,
    /// Work scale.
    pub scale: u64,
    /// One row per Figure 11 application, in suite order.
    pub rows: Vec<RmwRow>,
}

impl Report for RmwPredictor {
    fn print(&self) {
        println!(
            "Read-modify-write predictor effect on BASE, {} processors, scale {}",
            self.procs, self.scale
        );
        println!("{:<12} {:>16} {:>16} {:>10} {:>8}", "app", "BASE-no-opt", "BASE", "speedup", "paper");
        for row in &self.rows {
            println!(
                "{:<12} {:>16} {:>16} {:>10.2} {:>8.2}",
                row.app,
                row.base_no_opt_cycles,
                row.base_cycles,
                row.base_no_opt_cycles as f64 / row.base_cycles as f64,
                row.paper_speedup,
            );
        }
    }

    fn json(&self) -> String {
        let mut j = tlr_sim::json::JsonBuf::new();
        j.obj();
        j.str_field("title", "RMW predictor effect on BASE");
        j.u64_field("procs", self.procs as u64);
        j.arr_key("apps");
        for row in &self.rows {
            j.obj();
            j.str_field("app", &row.app);
            j.u64_field("base_no_opt_cycles", row.base_no_opt_cycles);
            j.u64_field("base_cycles", row.base_cycles);
            j.f64_field("speedup", row.base_no_opt_cycles as f64 / row.base_cycles as f64);
            j.f64_field("paper_speedup", row.paper_speedup);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }
}

/// The paper's §6.3 RMW-predictor speedups, in Figure 11 suite order.
pub const RMW_PAPER_SPEEDUPS: [f64; 7] = [1.00, 1.04, 1.28, 1.05, 1.04, 1.33, 1.13];

/// §6.3 read-modify-write prediction experiment: BASE with and
/// without the predictor, across the Figure 11 suite.
pub fn rmw_predictor(opts: &Args, pool: &Pool) -> RmwPredictor {
    let procs = *opts.procs.last().unwrap_or(&16);
    let scale = opts.scale(512);
    let apps = figure11_apps(procs, scale);
    let base = opts.base().scheme(Scheme::Base).procs(procs).build();
    let mut jobs = Vec::with_capacity(apps.len() * 2);
    for w in &apps {
        for enabled in [false, true] {
            let w = w.as_ref();
            let mut cfg = base.clone();
            cfg.rmw_predictor_enabled = enabled;
            jobs.push(Job::new(cell_coords(w.name(), &cfg), move |_| run_cell(&cfg, w)));
        }
    }
    let mut cells = unwrap_cells(pool.scatter_indexed(jobs)).into_iter();
    let rows = apps
        .iter()
        .zip(RMW_PAPER_SPEEDUPS)
        .map(|(w, paper_speedup)| {
            let no_opt = cells.next().expect("predictor-off cell");
            let with = cells.next().expect("predictor-on cell");
            RmwRow {
                app: w.name().to_string(),
                base_no_opt_cycles: no_opt.stats.parallel_cycles,
                base_cycles: with.stats.parallel_cycles,
                paper_speedup,
            }
        })
        .collect();
    RmwPredictor { procs, scale, rows }
}

/// §3.3 design-parameter ablation results: one sweep per knob, rows
/// in knob-setting order.
pub struct Ablations {
    /// Processor count.
    pub procs: usize,
    /// Increment total for the counter workloads.
    pub total: u64,
    /// Pair total for the linked-list workloads.
    pub pairs: u64,
    /// (entries, cycles, restarts, deferrals) per deferred-queue size.
    pub deferred_queue: Vec<(u64, u64, u64, u64)>,
    /// (entries, cycles, restarts, fallbacks) per victim-cache size.
    pub victim_cache: Vec<(u64, u64, u64, u64)>,
    /// (lines, cycles, restarts, fallbacks) per write-buffer size.
    pub write_buffer: Vec<(u64, u64, u64, u64)>,
    /// (bits, cycles, restarts) per timestamp width.
    pub timestamp_bits: Vec<(u64, u64, u64)>,
    /// (policy, cycles, deferrals, nacks, bus txns) per retention policy.
    pub retention: Vec<(&'static str, u64, u64, u64, u64)>,
}

impl Report for Ablations {
    fn print(&self) {
        println!("TLR design-parameter ablations, {} processors\n", self.procs);

        println!("deferred-queue capacity (single-counter, {} increments):", self.total);
        println!("{:>10} {:>12} {:>10} {:>10}", "entries", "cycles", "restarts", "deferrals");
        for (entries, cycles, restarts, deferrals) in &self.deferred_queue {
            println!("{entries:>10} {cycles:>12} {restarts:>10} {deferrals:>10}");
        }

        println!("\nvictim-cache entries (doubly-linked list, {} pairs):", self.pairs);
        println!("{:>10} {:>12} {:>10} {:>10}", "entries", "cycles", "restarts", "fallbacks");
        for (entries, cycles, restarts, fallbacks) in &self.victim_cache {
            println!("{entries:>10} {cycles:>12} {restarts:>10} {fallbacks:>10}");
        }

        println!("\nwrite-buffer lines (doubly-linked list, {} pairs):", self.pairs);
        println!("{:>10} {:>12} {:>10} {:>10}", "lines", "cycles", "restarts", "fallbacks");
        for (lines, cycles, restarts, fallbacks) in &self.write_buffer {
            println!("{lines:>10} {cycles:>12} {restarts:>10} {fallbacks:>10}");
        }

        println!(
            "\ntimestamp width in bits (single-counter, {} increments; §2.1.2 rollover):",
            self.total
        );
        println!("{:>10} {:>12} {:>10}", "bits", "cycles", "restarts");
        for (bits, cycles, restarts) in &self.timestamp_bits {
            println!("{bits:>10} {cycles:>12} {restarts:>10}");
        }

        println!(
            "\nretention policy (single-counter, {} increments; §3 deferral vs NACK):",
            self.total
        );
        println!("{:>10} {:>12} {:>10} {:>10} {:>10}", "policy", "cycles", "deferrals", "nacks", "bus txns");
        for (name, cycles, deferrals, nacks, bus) in &self.retention {
            println!("{name:>10} {cycles:>12} {deferrals:>10} {nacks:>10} {bus:>10}");
        }

        println!("\nEvery configuration validated: resources shape performance, never correctness.");
    }

    fn json(&self) -> String {
        let mut j = tlr_sim::json::JsonBuf::new();
        j.obj();
        j.str_field("title", "TLR design-parameter ablations");
        j.u64_field("procs", self.procs as u64);
        let sweep =
            |j: &mut tlr_sim::json::JsonBuf, key: &str, knob: &str, rows: &[(u64, u64, u64, u64)], third: &str| {
                j.arr_key(key);
                for (v, cycles, restarts, extra) in rows {
                    j.obj();
                    j.u64_field(knob, *v);
                    j.u64_field("cycles", *cycles);
                    j.u64_field("restarts", *restarts);
                    j.u64_field(third, *extra);
                    j.end_obj();
                }
                j.end_arr();
            };
        sweep(&mut j, "deferred_queue", "entries", &self.deferred_queue, "deferrals");
        sweep(&mut j, "victim_cache", "entries", &self.victim_cache, "fallbacks");
        sweep(&mut j, "write_buffer", "lines", &self.write_buffer, "fallbacks");
        j.arr_key("timestamp_bits");
        for (bits, cycles, restarts) in &self.timestamp_bits {
            j.obj();
            j.u64_field("bits", *bits);
            j.u64_field("cycles", *cycles);
            j.u64_field("restarts", *restarts);
            j.end_obj();
        }
        j.end_arr();
        j.arr_key("retention_policy");
        for (name, cycles, deferrals, nacks, bus) in &self.retention {
            j.obj();
            j.str_field("policy", name);
            j.u64_field("cycles", *cycles);
            j.u64_field("deferrals", *deferrals);
            j.u64_field("nacks", *nacks);
            j.u64_field("bus_transactions", *bus);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }
}

/// Knob settings the ablation experiment sweeps.
pub const ABLATION_DQ_ENTRIES: [usize; 5] = [1, 2, 4, 16, 64];
/// Victim-cache sizes swept.
pub const ABLATION_VC_ENTRIES: [usize; 4] = [1, 4, 16, 64];
/// Write-buffer sizes swept.
pub const ABLATION_WB_LINES: [usize; 4] = [2, 4, 16, 64];
/// Timestamp widths swept.
pub const ABLATION_TS_BITS: [u32; 4] = [6, 8, 16, 32];

/// §3.3 design-parameter ablations: all 19 cells fanned out in one
/// scatter, decomposed into per-knob rows in submission order.
pub fn ablations(opts: &Args, pool: &Pool) -> Ablations {
    let procs = *opts.procs.last().unwrap_or(&8);
    let total = opts.scale(2048);
    let pairs = opts.scale(1024);
    let tlr = opts.base().scheme(Scheme::Tlr).procs(procs).build();
    let with = |knob: &dyn Fn(&mut MachineConfig)| {
        let mut cfg = tlr.clone();
        knob(&mut cfg);
        cfg
    };
    let counter = single_counter(procs, total);
    let deque = doubly_linked_list(procs, pairs);

    // One cell per knob setting, in the row order decoded below.
    let mut plan: Vec<(MachineConfig, &dyn WorkloadSpec)> = Vec::new();
    for e in ABLATION_DQ_ENTRIES {
        plan.push((with(&|c| c.deferred_queue_entries = e), &counter));
    }
    for e in ABLATION_VC_ENTRIES {
        plan.push((with(&|c| c.victim_entries = e), &deque));
    }
    for l in ABLATION_WB_LINES {
        plan.push((with(&|c| c.write_buffer_lines = l), &deque));
    }
    for b in ABLATION_TS_BITS {
        plan.push((with(&|c| c.timestamp_bits = b), &counter));
    }
    for retention in [RetentionPolicy::Deferral, RetentionPolicy::Nack] {
        plan.push((with(&|c| c.retention = retention), &counter));
    }

    let jobs = plan
        .iter()
        .map(|(cfg, w)| Job::new(cell_coords(w.name(), cfg), move |_| run_cell(cfg, *w)))
        .collect();
    let mut cells = unwrap_cells(pool.scatter_indexed(jobs)).into_iter();
    let mut next = || cells.next().expect("one report per planned cell");

    let deferred_queue = ABLATION_DQ_ENTRIES
        .iter()
        .map(|&e| {
            let r = next();
            (e as u64, r.stats.parallel_cycles, r.stats.total_restarts(),
             r.stats.sum(|n| n.requests_deferred))
        })
        .collect();
    let victim_cache = ABLATION_VC_ENTRIES
        .iter()
        .map(|&e| {
            let r = next();
            (e as u64, r.stats.parallel_cycles, r.stats.total_restarts(), r.stats.total_fallbacks())
        })
        .collect();
    let write_buffer = ABLATION_WB_LINES
        .iter()
        .map(|&l| {
            let r = next();
            (l as u64, r.stats.parallel_cycles, r.stats.total_restarts(), r.stats.total_fallbacks())
        })
        .collect();
    let timestamp_bits = ABLATION_TS_BITS
        .iter()
        .map(|&b| {
            let r = next();
            (b as u64, r.stats.parallel_cycles, r.stats.total_restarts())
        })
        .collect();
    let retention = ["deferral", "nack"]
        .iter()
        .map(|&name| {
            let r = next();
            (name, r.stats.parallel_cycles, r.stats.sum(|n| n.requests_deferred),
             r.stats.sum(|n| n.nacks_sent), r.stats.bus.total())
        })
        .collect();

    Ablations { procs, total, pairs, deferred_queue, victim_cache, write_buffer, timestamp_bits, retention }
}

/// Schemes the scalability experiment sweeps (the three main designs;
/// MCS and strict-TS are variants, not part of the NUMA-scale story).
pub const SCALABILITY_SCHEMES: [Scheme; 3] = [Scheme::Base, Scheme::Sle, Scheme::Tlr];

/// `exp_scalability`: the multiple-counter microbenchmark at
/// NUMA-scale processor counts on the home-node directory (the
/// snooping bus stops at 16 processors; the directory's sharer
/// vectors carry 256). One row per processor count, BASE/SLE/TLR
/// columns, same shape as the Figure 8-10 sweeps so all the series
/// tooling (CSV, JSON, `--profile` saturation columns) applies.
pub fn scalability(opts: &Args, pool: &Pool) -> SeriesSweep {
    let total = opts.scale(1 << 14);
    let schemes = SCALABILITY_SCHEMES.to_vec();
    let rows = crate::sweep_series(opts, pool, "multiple_counter", &schemes, |procs| {
        multiple_counter(procs, total)
    });
    SeriesSweep {
        display_title: format!(
            "Scalability: multiple-counter on the {} interconnect, {total} total increments \
             (cycles, lower is better)",
            opts.interconnect
        ),
        json_title: format!(
            "Scalability: multiple-counter on the {} interconnect",
            opts.interconnect
        ),
        schemes,
        rows,
    }
}

/// Schemes the robustness experiment compares (MCS and strict-TS are
/// variants; the degradation story is about the three main designs).
pub const ROBUSTNESS_SCHEMES: [Scheme; 3] = [Scheme::Base, Scheme::Sle, Scheme::Tlr];

/// Chaos degradation results: one row per fault-intensity level, one
/// report per scheme, every cell validated by the workload's
/// serializability check (faults may cost cycles, never correctness).
pub struct Robustness {
    /// Processor count.
    pub procs: usize,
    /// Increment total for the counter workload.
    pub total: u64,
    /// Root seed the per-level fault configurations derive from.
    pub fault_seed: u64,
    /// Rows in intensity order: (level, one report per
    /// [`ROBUSTNESS_SCHEMES`] entry).
    pub rows: Vec<(u32, Vec<RunReport>)>,
}

impl Report for Robustness {
    fn json(&self) -> String {
        let mut j = tlr_sim::json::JsonBuf::new();
        j.obj();
        j.str_field("title", "Degradation under injected faults");
        j.u64_field("procs", self.procs as u64);
        j.u64_field("total", self.total);
        j.u64_field("fault_seed", self.fault_seed);
        j.arr_key("schemes");
        for s in ROBUSTNESS_SCHEMES {
            j.str_elem(s.label());
        }
        j.end_arr();
        j.arr_key("levels");
        for (level, reports) in &self.rows {
            j.obj();
            j.u64_field("intensity", u64::from(*level));
            j.arr_key("cells");
            for r in reports {
                j.obj();
                crate::report_fields(&mut j, r);
                j.u64_field("net_delays", r.stats.faults.net_delays);
                j.u64_field("bus_reorders", r.stats.faults.bus_reorders);
                j.u64_field("spurious_aborts", r.stats.faults.spurious_aborts);
                j.u64_field("injected_aborts", r.stats.sum(|n| n.aborts_injected));
                j.u64_field("faults_injected", r.stats.faults.total_injected());
                // Profiled runs also report the shape of the
                // critical-section-length distribution, not just its
                // mean — fault injection moves the tail first.
                if r.profile.is_some() {
                    let h = &r.stats.obs.cs_length;
                    for (key, p) in
                        [("cs_length_p50", 50.0), ("cs_length_p95", 95.0), ("cs_length_p99", 99.0)]
                    {
                        if let Some(v) = h.percentile(p) {
                            j.u64_field(key, v);
                        }
                    }
                }
                j.end_obj();
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// Prints the degradation table: cycles per (level, scheme) plus
    /// the injected-fault counts driving each row.
    fn print(&self) {
        println!("\n== Degradation under injected faults (single_counter x{}, total {}, fault seed {:#x}) ==",
                 self.procs, self.total, self.fault_seed);
        print!("{:>9}", "intensity");
        for s in ROBUSTNESS_SCHEMES {
            print!("{:>24}", s.label());
        }
        println!("{:>30}", "injected (net/bus/abort)");
        for (level, reports) in &self.rows {
            print!("{level:>9}");
            for r in reports {
                print!("{:>24}", r.stats.parallel_cycles);
            }
            let f = &reports.last().expect("one cell per scheme").stats.faults;
            println!("{:>30}", format!("{}/{}/{}", f.net_delays, f.bus_reorders, f.spurious_aborts));
        }
        print!("{:>9}", "");
        if let Some((_, last)) = self.rows.last() {
            print_events(&ROBUSTNESS_SCHEMES, last);
            if last.iter().any(|r| r.profile.is_some()) {
                println!("   critical-section length percentiles (--profile, cycles, last row):");
                for (s, r) in ROBUSTNESS_SCHEMES.iter().zip(last) {
                    let h = &r.stats.obs.cs_length;
                    let fmt = |p: f64| {
                        h.percentile(p).map_or_else(|| "-".to_string(), |v| v.to_string())
                    };
                    println!(
                        "{:>9}  p50 {} / p95 {} / p99 {}",
                        s.label(),
                        fmt(50.0),
                        fmt(95.0),
                        fmt(99.0)
                    );
                }
            }
        }
    }
}

/// `exp_robustness`: the counter workload under increasing fault
/// intensity (level 0 = faults off, the baseline the degradation
/// curves are read against), all (level, scheme) cells in one scatter.
pub fn robustness(opts: &Args, pool: &Pool) -> Robustness {
    let procs = if opts.quick { 4 } else { 8 };
    let total = opts.scale(1 << 12);
    let levels: Vec<u32> = (0..=opts.faults.min(tlr_sim::fault::FaultConfig::MAX_INTENSITY)).collect();

    let base = opts.base().procs(procs);
    let mut jobs = Vec::with_capacity(levels.len() * ROBUSTNESS_SCHEMES.len());
    for &level in &levels {
        for scheme in ROBUSTNESS_SCHEMES {
            let cfg = base.clone().scheme(scheme).faults(opts.fault_config(level)).build();
            // The chaos layer's contract: faults perturb timing only,
            // so even the max-intensity cell must validate.
            jobs.push(Job::new(cell_coords("single_counter", &cfg), move |_| {
                run_cell(&cfg, &single_counter(procs, total))
            }));
        }
    }
    let mut cells = unwrap_cells(pool.scatter_indexed(jobs)).into_iter();
    let rows = levels
        .iter()
        .map(|&level| {
            (level,
             (0..ROBUSTNESS_SCHEMES.len()).map(|_| cells.next().expect("one cell per scheme")).collect())
        })
        .collect();
    Robustness { procs, total, fault_seed: opts.fault_seed, rows }
}

/// Contention-management comparison results: one row per contention
/// regime (workload), one TLR report per conflict policy.
pub struct Policies {
    /// Processor count every cell ran at.
    pub procs: usize,
    /// Policies, in column order ([`PolicyKind::ALL`]).
    pub policies: Vec<PolicyKind>,
    /// Rows in regime order: (regime name, one report per policy).
    pub rows: Vec<(&'static str, Vec<RunReport>)>,
}

impl Policies {
    /// The policy with the fewest parallel cycles in row `i`.
    pub fn winner(&self, i: usize) -> PolicyKind {
        let (_, reports) = &self.rows[i];
        let best = reports
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.stats.parallel_cycles)
            .expect("at least one policy column");
        self.policies[best.0]
    }

}

impl Report for Policies {
    fn json(&self) -> String {
        let mut j = tlr_sim::json::JsonBuf::new();
        j.obj();
        j.str_field("title", "Conflict-policy comparison (TLR contention management)");
        j.u64_field("procs", self.procs as u64);
        j.arr_key("policies");
        for p in &self.policies {
            j.str_elem(p.label());
        }
        j.end_arr();
        j.arr_key("regimes");
        for (i, (name, reports)) in self.rows.iter().enumerate() {
            j.obj();
            j.str_field("regime", name);
            j.str_field("winner", self.winner(i).label());
            j.arr_key("cells");
            for (p, r) in self.policies.iter().zip(reports) {
                j.obj();
                j.str_field("policy", p.label());
                j.u64_field("parallel_cycles", r.stats.parallel_cycles);
                j.u64_field("commits", r.stats.total_commits());
                j.u64_field("restarts", r.stats.total_restarts());
                j.u64_field("fallbacks", r.stats.total_fallbacks());
                j.u64_field("deferrals", r.stats.sum(|n| n.requests_deferred));
                j.u64_field("nacks", r.stats.sum(|n| n.nacks_sent));
                j.u64_field("wasted_cycles", r.stats.total_wasted_cycles());
                j.end_obj();
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// Prints the comparison table: cycles per (regime, policy) and
    /// the per-regime winner.
    fn print(&self) {
        println!("\n== Conflict-policy comparison, TLR x{} (cycles, lower is better) ==", self.procs);
        print!("{:>18}", "regime");
        for p in &self.policies {
            print!("{:>16}", p.label());
        }
        println!("{:>12}", "winner");
        for (i, (name, reports)) in self.rows.iter().enumerate() {
            print!("{name:>18}");
            for r in reports {
                print!("{:>16}", r.stats.parallel_cycles);
            }
            println!("{:>12}", self.winner(i).label());
        }
        print!("{:>18}", "");
        if let Some((_, last)) = self.rows.last() {
            for r in last {
                print!(
                    "{:>16}",
                    format!(
                        "c{} r{} f{}",
                        r.stats.total_commits(),
                        r.stats.total_restarts(),
                        r.stats.total_fallbacks()
                    )
                );
            }
            println!("   (last row: c=commits r=restarts f=fallbacks)");
        }
    }
}

/// The contention regimes `exp_policies` sweeps: name and a workload
/// factory at (procs, work scale).
fn policy_regimes(
    procs: usize,
    total: u64,
    pairs: u64,
) -> Vec<(&'static str, Box<dyn WorkloadSpec>)> {
    vec![
        ("multiple_counter", Box::new(multiple_counter(procs, total))),
        ("single_counter", Box::new(single_counter(procs, total.max(256) / 2))),
        ("linked_list", Box::new(doubly_linked_list(procs, pairs))),
        ("mp3d", Box::new(mp3d(procs, (total / 16).max(64), 512))),
    ]
}

/// `exp_policies`: every conflict policy over the contention-regime
/// spectrum, all cells fanned out in one scatter. TLR scheme
/// throughout — the policies differ only in how conflicts are
/// adjudicated, so scheme variation would blur the comparison.
pub fn policies(opts: &Args, pool: &Pool) -> Policies {
    let procs = *opts.procs.last().unwrap_or(&8);
    let total = opts.scale(1 << 12);
    let pairs = opts.scale(512);
    let regimes = policy_regimes(procs, total, pairs);
    let kinds = PolicyKind::ALL.to_vec();
    // Tighter than the sweep-wide budget: a livelocking policy keeps
    // the machine busy every cycle, so the budget must be reachable in
    // wall clock for the cell to fail instead of hanging. Legitimate
    // cells finish thousands of times below this.
    let base = opts.base().scheme(Scheme::Tlr).procs(procs).max_cycles(200_000_000);
    let mut jobs = Vec::with_capacity(regimes.len() * kinds.len());
    for (_, w) in &regimes {
        for &kind in &kinds {
            let w = w.as_ref();
            let cfg = base.clone().policy(kind).build();
            // Every policy must stay correct; only performance may
            // differ.
            jobs.push(Job::new(cell_coords(w.name(), &cfg), move |_| run_cell(&cfg, w)));
        }
    }
    let mut cells = unwrap_cells(pool.scatter_indexed(jobs)).into_iter();
    let rows = regimes
        .iter()
        .map(|(name, _)| {
            (*name, (0..kinds.len()).map(|_| cells.next().expect("one cell per policy")).collect())
        })
        .collect();
    Policies { procs, policies: kinds, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Args {
        Args { procs: vec![1, 2], quick: true, ..Default::default() }
    }

    #[test]
    fn fig08_rows_follow_opts() {
        let s = fig08(&tiny_opts(), &Pool::serial());
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[0].0, 1);
        assert_eq!(s.rows[0].1.len(), s.schemes.len());
        tlr_sim::json::validate(&s.json()).expect("valid JSON");
    }

    #[test]
    fn robustness_levels_start_fault_free_and_serialize() {
        let o = Args { quick: true, faults: 1, ..Default::default() };
        let r = robustness(&o, &Pool::serial());
        assert_eq!(r.rows.len(), 2, "levels 0..=1");
        assert_eq!(r.rows[0].0, 0);
        for cell in &r.rows[0].1 {
            assert_eq!(cell.stats.faults.total_injected(), 0, "level 0 is the calm baseline");
        }
        tlr_sim::json::validate(&r.json()).expect("valid JSON");
    }

    #[test]
    fn table_documents_are_valid_json() {
        tlr_sim::json::validate(&Table1.json()).expect("table1");
        tlr_sim::json::validate(&table2(&Args::default()).json()).expect("table2");
        assert_eq!(table1_rows().len(), 7);
    }

    #[test]
    fn scalability_runs_on_the_directory_past_the_bus_limit() {
        let o = Args {
            procs: vec![4, 32],
            interconnect: tlr_sim::config::Interconnect::Directory,
            quick: true,
            ..Default::default()
        };
        let s = scalability(&o, &Pool::serial());
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[1].0, 32, "the 32-proc row is past the snooping limit");
        assert_eq!(s.rows[1].1.len(), SCALABILITY_SCHEMES.len());
        for r in &s.rows[1].1 {
            assert!(
                r.stats.dir.requests_ordered > 0,
                "[{}] the directory, not the bus, must have ordered this cell",
                r.scheme
            );
        }
        tlr_sim::json::validate(&s.json()).expect("valid JSON");
    }
}
