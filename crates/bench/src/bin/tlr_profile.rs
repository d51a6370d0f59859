//! `tlr-profile`: run one workload cell with the profiling layer on
//! and print a human-readable bottleneck report: the machine-level
//! cycle-attribution table (audited against the accounting identity),
//! the utilization summary from the epoch-sampled timeline, the
//! event-engine wake-source breakdown and self-profile, latency
//! percentiles, the top contended lines, and a one-line saturation
//! verdict naming the resource that bounds the cell.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin tlr-profile -- \
//!     --workload single_counter --procs 16 --total 4096 \
//!     --json profile.json --out trace.json
//! ```
//!
//! `--json` writes the flat profile document
//! ([`tlr_sim::export::profile_json`]); `--out` additionally enables
//! transaction tracing and writes a Chrome/Perfetto trace with the
//! profiler's counter tracks attached
//! ([`tlr_sim::export::chrome_trace_with_profile`]). `--check` runs
//! the profiling smoke check (identity, timeline tiling, and
//! profiled-vs-unprofiled equality) on the selected engine.

use tlr_bench::cli::{parse_scheme, tool_workload, Args};
use tlr_bench::write_json_file;
use tlr_core::run::build_machine;
use tlr_sim::config::Scheme;
use tlr_sim::prof::ProfConfig;
use tlr_sim::stats::Hist;
use tlr_sim::export;

struct ProfOpts {
    workload: String,
    scheme: Scheme,
    procs: usize,
    total: u64,
    cells: u64,
    top_n: usize,
}

fn parse_args() -> (ProfOpts, Args) {
    let mut o = ProfOpts {
        workload: "single_counter".to_string(),
        scheme: Scheme::Tlr,
        procs: 16,
        total: 4096,
        cells: 4096,
        top_n: 8,
    };
    // The hook claims `--procs` because a profile follows ONE machine
    // (a single count, not the sweep's comma list).
    let shared = Args::parse_with(Args::default(), |_, mut flag| {
        match flag.name {
            "--help" | "-h" => {
                println!(
                    "tlr-profile: run one workload cell with profiling on and print a\n\
                     bottleneck-attribution report (cycle accounting, utilization timeline,\n\
                     wake sources, latency percentiles, saturation verdict)\n\
                     \n\
                     profile flags:\n\
                     \x20 --workload W    single_counter|multiple_counter|linked_list|mp3d|mp3d_coarse\n\
                     \x20 --scheme S      base|mcs|sle|tlr|tlr_strict_ts\n\
                     \x20 --procs N       processor count (single value: one machine)\n\
                     \x20 --total N       total work items\n\
                     \x20 --cells N       mp3d cell count (power of two; fig11 uses 8192)\n\
                     \x20 --top-n N       contended-line table size\n\
                     \x20 --json PATH     write the flat profile document\n\
                     \x20 --out PATH      write a Perfetto trace with counter tracks\n\
                     \x20 --check         run the profiling smoke check instead\n\
                     \n{}",
                    tlr_bench::cli::CORE_USAGE
                );
                std::process::exit(0);
            }
            "--workload" => o.workload = flag.value(),
            "--scheme" => o.scheme = parse_scheme(&flag.value()),
            "--procs" => o.procs = flag.value().parse().expect("bad --procs"),
            "--total" => o.total = flag.value().parse().expect("bad --total"),
            "--cells" => o.cells = flag.value().parse().expect("bad --cells"),
            "--top-n" => o.top_n = flag.value().parse().expect("bad --top-n"),
            _ => return false,
        }
        true
    });
    (o, shared)
}

fn percentile_line(label: &str, h: &Hist) -> String {
    let p = |q: f64| h.percentile(q).map_or_else(|| "-".to_string(), |v| v.to_string());
    format!("  {label:<18} p50 {:>8}  p95 {:>8}  p99 {:>8}", p(50.0), p(95.0), p(99.0))
}

fn main() {
    let (o, shared) = parse_args();
    let pool = shared.pool();
    if shared.check {
        tlr_bench::checks::run(
            "profile",
            tlr_bench::checks::profile,
            &shared.base(),
            &pool,
            shared.json.as_deref(),
        );
        return;
    }

    let w = tool_workload(&o.workload, o.procs, o.total, o.cells);
    let cfg = shared.base().scheme(o.scheme).procs(o.procs).profile(ProfConfig::on()).build();
    let mut m = build_machine(&cfg, w.as_ref());
    if shared.out.is_some() {
        m.enable_trace();
    }
    m.run().unwrap_or_else(|e| panic!("{} [{} x{}]: {e}", w.name(), o.scheme, o.procs));
    w.validate(&m).unwrap_or_else(|e| panic!("serializability violation: {e}"));
    let p = m.take_profile().expect("profiling was enabled");
    let stats = m.stats().clone();
    let elapsed = stats.elapsed_cycles;
    let engine = cfg.engine.label();

    println!("== tlr-profile: {} [{} x{}] ==", w.name(), o.scheme, o.procs);
    println!(
        "{} parallel cycles, {elapsed} elapsed (incl. drain), {engine} engine",
        stats.parallel_cycles
    );

    // Cycle attribution: every node-cycle charged to exactly one
    // category; the identity is re-audited here, not assumed.
    let verdict = match stats.check_cycle_accounting() {
        Ok(()) => "holds".to_string(),
        Err(e) => format!("VIOLATED: {e}"),
    };
    println!("\ncycle attribution (identity attributed == elapsed x procs: {verdict})");
    let mut totals = [("", 0u64); 9];
    for n in &stats.nodes {
        for (slot, (label, v)) in totals.iter_mut().zip(n.cycle_categories()) {
            *slot = (label, slot.1 + v);
        }
    }
    let grand: u64 = totals.iter().map(|(_, v)| v).sum();
    for (label, v) in totals {
        println!("  {label:<20} {v:>14}  {:>5.1}%", v as f64 * 100.0 / grand.max(1) as f64);
    }
    println!("  {:<20} {grand:>14}  100.0%", "total");

    println!("\nutilization (epoch {} cycles, {} samples)", p.epoch(), p.samples().len());
    let peak_util = p
        .samples()
        .iter()
        .map(|s| s.bus_utilization(p.bus_occupancy))
        .fold(0.0f64, f64::max);
    println!(
        "  address bus        {:>5.1}% occupancy (peak epoch {:>5.1}%)",
        p.utilization() * 100.0,
        peak_util * 100.0
    );
    println!("  net queue          peak {}", p.peak(|s| s.net_depth));
    println!("  snoop queue        peak {}", p.peak(|s| s.snoop_depth));
    println!("  outstanding MSHRs  peak {}", p.peak(|s| s.mshrs));
    println!("  deferred queue     peak {}", p.peak(|s| s.deferred));
    println!("  spinning nodes     peak {}", p.peak(|s| s.spin_nodes));

    let e = &p.engine;
    println!("\nengine self-profile ({engine} engine)");
    let pct = |num: u64, den: u64| num as f64 * 100.0 / den.max(1) as f64;
    println!(
        "  steps taken        {:>14}  (skipped {:>5.1}% of {elapsed} cycles)",
        e.steps,
        pct(e.skipped_cycles, elapsed)
    );
    println!(
        "  live node ticks    {:>14}  ({:>5.1}% of node-cycles)",
        e.live_ticks,
        pct(e.live_ticks, elapsed * o.procs as u64)
    );
    println!(
        "  burst mode         {} entries, {} cycles, {} ticks",
        e.burst_entries, e.burst_cycles, e.burst_ticks
    );
    println!("  spin fast-forward  {} settles, {} cycles absorbed", e.spin_settles, e.spin_settle_cycles);
    println!("  idle settles       {} settles, {} cycles absorbed", e.idle_settles, e.idle_settle_cycles);
    if e.total_wakes() > 0 {
        println!("  wake sources:");
        for (label, count) in e.wake_breakdown() {
            if count > 0 {
                println!("    {label:<26} {count:>12}  {:>5.1}%", pct(count, e.total_wakes()));
            }
        }
    }

    println!("\nlatency percentiles (cycles, log2-bucket midpoints)");
    println!("{}", percentile_line("critical section", &stats.obs.cs_length));
    println!("{}", percentile_line("commit latency", &stats.obs.commit_latency));

    let contended = stats.obs.conflicts.top_n(o.top_n);
    if !contended.is_empty() {
        println!("\ntop contended lines");
        for (line, conflicts) in contended {
            println!("  {line:#x}  {conflicts} conflicts");
        }
    }

    println!("\nverdict: {}", p.verdict(o.procs));

    if let Some(path) = &shared.json {
        let doc = export::profile_json(w.name(), o.scheme.label(), o.procs, &p, p.bus_occupancy);
        write_json_file(path, &doc, "profile");
    }
    if let Some(path) = &shared.out {
        let log = m.span_log();
        let doc = export::chrome_trace_with_profile(&log, o.procs, Some(&p), p.bus_occupancy);
        write_json_file(path, &doc, "trace");
    }
}
