//! `tlr-trace`: run one workload with transaction-lifecycle tracing
//! enabled and export the span log as a Chrome/Perfetto `trace.json`
//! plus an aggregate-metrics JSON document.
//!
//! Load the trace in <https://ui.perfetto.dev> (or
//! `chrome://tracing`): each processor is a track, each elided
//! critical section a span (begin → commit/restart/fallback), with
//! protocol events (deferrals, markers, probes, NACKs) as instants on
//! the owning span.
//!
//! ```text
//! cargo run --release -p tlr-bench --bin tlr-trace -- \
//!     --workload single_counter --procs 4 --total 256 \
//!     --out trace.json --metrics metrics.json
//! ```
//!
//! Flags: `--workload single_counter|multiple_counter|linked_list|`
//! `mp3d|mp3d_coarse`, `--scheme base|mcs|sle|tlr|tlr_strict_ts`,
//! `--procs N`, `--total N`, `--capacity N` (trace ring-buffer
//! capacity), `--top-n N` (contended-line table size), `--out PATH`,
//! `--metrics PATH`, `--dump-spans` (print the span log),
//! `--expect-defer` (exit non-zero unless the trace holds at least
//! one deferral — CI uses this to pin the protocol path down), and
//! `--jobs N` (accepted for sweep-script uniformity; a trace runs one
//! machine, so anything above 1 warns on stderr and runs serially
//! anyway — `--help` documents the restriction).

use tlr_bench::cli::{parse_scheme, tool_workload, Args};
use tlr_bench::write_json_file;
use tlr_core::run::build_machine;
use tlr_sim::config::Scheme;
use tlr_sim::trace::TraceKind;
use tlr_sim::export;

struct TraceOpts {
    workload: String,
    scheme: Scheme,
    procs: usize,
    total: u64,
    capacity: usize,
    top_n: usize,
    metrics: Option<std::path::PathBuf>,
    dump_spans: bool,
    expect_defer: bool,
}

fn parse_args() -> (TraceOpts, Args) {
    let mut o = TraceOpts {
        workload: "single_counter".to_string(),
        scheme: Scheme::Tlr,
        procs: 4,
        total: 256,
        capacity: tlr_sim::trace::DEFAULT_CAPACITY,
        top_n: 16,
        metrics: None,
        dump_spans: false,
        expect_defer: false,
    };
    // Trace-specific flags layer on the shared core surface; the hook
    // claims `--procs` too, because a trace follows ONE machine (a
    // single count, not the sweep's comma list), and `--help` so the
    // trace-specific surface (and the --jobs restriction) is shown
    // ahead of the shared flags.
    let shared = Args::parse_with(Args::default(), |_, mut flag| {
        match flag.name {
            "--help" | "-h" => {
                println!(
                    "tlr-trace: run one workload with transaction tracing and export\n\
                     a Chrome/Perfetto trace.json plus aggregate metrics\n\
                     \n\
                     trace flags:\n\
                     \x20 --workload W    single_counter|multiple_counter|linked_list|mp3d|mp3d_coarse\n\
                     \x20 --scheme S      base|mcs|sle|tlr|tlr_strict_ts\n\
                     \x20 --procs N       processor count (single value: a trace follows ONE machine)\n\
                     \x20 --total N       total work items\n\
                     \x20 --capacity N    trace ring-buffer capacity\n\
                     \x20 --top-n N       contended-line table size\n\
                     \x20 --metrics PATH  write aggregate metrics JSON\n\
                     \x20 --dump-spans    print the span log\n\
                     \x20 --expect-defer  exit non-zero unless the trace holds a deferral\n\
                     \n\
                     note: --jobs is accepted for sweep-script uniformity only; a trace\n\
                     runs one machine, so --jobs above 1 warns on stderr and runs serially.\n\
                     \n{}",
                    tlr_bench::cli::CORE_USAGE
                );
                std::process::exit(0);
            }
            "--workload" => o.workload = flag.value(),
            "--scheme" => o.scheme = parse_scheme(&flag.value()),
            "--procs" => o.procs = flag.value().parse().expect("bad --procs"),
            "--total" => o.total = flag.value().parse().expect("bad --total"),
            "--capacity" => o.capacity = flag.value().parse().expect("bad --capacity"),
            "--top-n" => o.top_n = flag.value().parse().expect("bad --top-n"),
            "--metrics" => o.metrics = Some(std::path::PathBuf::from(flag.value())),
            "--dump-spans" => o.dump_spans = true,
            "--expect-defer" => o.expect_defer = true,
            _ => return false,
        }
        true
    });
    (o, shared)
}

fn main() {
    let (o, shared) = parse_args();
    let jobs = shared.jobs.unwrap_or(1);
    if jobs > 1 {
        eprintln!("warning: a trace follows one machine; --jobs {jobs} runs it serially");
    }
    let w = tool_workload(&o.workload, o.procs, o.total, 4096);
    let cfg = shared.base().scheme(o.scheme).procs(o.procs).build();
    let mut m = build_machine(&cfg, w.as_ref());
    m.enable_trace_with_capacity(o.capacity);
    m.run().unwrap_or_else(|e| panic!("{} [{} x{}]: {e}", w.name(), o.scheme, o.procs));
    w.validate(&m).unwrap_or_else(|e| panic!("serializability violation: {e}"));

    let log = m.span_log();
    let stats = m.stats();
    let defers = m.trace().count(|e| matches!(e.kind, TraceKind::Defer { .. }));
    println!(
        "{} [{} x{}]: {} cycles, {} events ({} dropped), {} spans \
         ({} commits, {} restarts), {} deferrals",
        w.name(),
        o.scheme,
        o.procs,
        stats.parallel_cycles,
        m.trace().len(),
        m.trace().dropped(),
        log.spans.len(),
        log.commits(),
        log.restarts(),
        defers,
    );

    if o.dump_spans {
        println!("{}", log.dump());
    }
    if let Some(path) = &shared.out {
        write_json_file(path, &export::chrome_trace_json(&log, o.procs), "trace");
    }
    if let Some(path) = &o.metrics {
        let doc = export::metrics_json(w.name(), o.scheme.label(), o.procs, stats, o.top_n);
        write_json_file(path, &doc, "metrics");
    }
    if o.expect_defer && defers == 0 {
        eprintln!("EXPECT FAIL: no Defer event in the trace (wanted at least one)");
        std::process::exit(1);
    }
    if o.expect_defer {
        println!("EXPECT PASS: trace holds {defers} deferral(s)");
    }
}
