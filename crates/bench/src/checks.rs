//! `--check` mode: golden-shape assertions for every figure/table
//! binary.
//!
//! Each function replays its binary's experiment at a small, fixed
//! scale and asserts the *direction* of the paper's results (TLR beats
//! BASE under contention, the §3.2 relaxation beats strict timestamp
//! order, coarse locks hurt BASE but not TLR, ...) plus the output
//! schema (row counts, app names, configuration fields). No absolute
//! cycle counts are pinned — a margin-preserving simulator change must
//! keep passing, a direction-reversing one must fail.
//!
//! The functions are shared between the binaries (`--check` flag) and
//! the `check_mode` integration test, so `cargo test` exercises the
//! same invariants CI asserts via the binaries.
//!
//! Every check derives its cells from the invocation's base machine
//! ([`crate::cli::Args::base`]: engine, interconnect, policy and
//! profiling as the flags chose them) and fans them out through the
//! shared worker [`Pool`]; a cell that fails (panic or
//! serializability violation) cancels the rest of that check's
//! scatter and surfaces as the check's error, with the cell's
//! (workload, scheme, procs, seed) coordinates in the message.

use tlr_core::run::{run_workload, RunReport, WorkloadSpec};
use tlr_sim::config::{
    Interconnect, MachineConfig, MachineConfigBuilder, PolicyKind, RetentionPolicy, Scheme,
};
use tlr_sim::pool::{Job, Pool};
use tlr_workloads::apps::{figure11_apps, mp3d, mp3d_coarse};
use tlr_workloads::micro::{doubly_linked_list, multiple_counter, single_counter};

use crate::{cell_coords, run_cell, speedup};

/// A golden-shape check: cells derive from the base machine and fan
/// out through the pool; `Err` carries the violated invariant.
pub type Check = fn(&MachineConfigBuilder, &Pool) -> Result<(), String>;

/// Runs one named check through `pool`, printing a `CHECK
/// PASS`/`CHECK FAIL` line and exiting non-zero on failure (the
/// binaries' `--check` entry point). With `--json`, the verdict is
/// also written as `{"check": name, "pass": bool, "error"?: string}`.
pub fn run(
    name: &str,
    f: Check,
    base: &MachineConfigBuilder,
    pool: &Pool,
    json: Option<&std::path::Path>,
) {
    let outcome = f(base, pool);
    if let Some(path) = json {
        let mut j = tlr_sim::json::JsonBuf::new();
        j.obj();
        j.str_field("check", name);
        j.bool_field("pass", outcome.is_ok());
        if let Err(e) = &outcome {
            j.str_field("error", e);
        }
        j.end_obj();
        crate::write_json_file(path, &j.finish(), "json");
    }
    match outcome {
        Ok(()) => println!("CHECK PASS: {name}"),
        Err(e) => {
            eprintln!("CHECK FAIL: {name}: {e}");
            std::process::exit(1);
        }
    }
}

/// Scatters `jobs` and collects the results, turning the first failed
/// cell (a panic inside the cell, coordinates attached by the pool)
/// into the check's error. Workers claim cells in submission order, so
/// the first error seen here is a genuine failure, never a
/// cancellation echo.
fn pooled<T: Send>(pool: &Pool, jobs: Vec<Job<'_, T>>) -> Result<Vec<T>, String> {
    pool.scatter_indexed(jobs).into_iter().map(|r| r.map_err(|e| e.to_string())).collect()
}

/// Runs `w` under each scheme concurrently, returning the parallel
/// cycle counts in scheme order.
fn scheme_cycles(
    base: &MachineConfigBuilder,
    pool: &Pool,
    procs: usize,
    schemes: &[Scheme],
    w: &dyn WorkloadSpec,
) -> Result<Vec<u64>, String> {
    let jobs = schemes
        .iter()
        .map(|&s| {
            let cfg = base.clone().scheme(s).procs(procs).build();
            Job::new(cell_coords(w.name(), &cfg), move |_| run_cell(&cfg, w).stats.parallel_cycles)
        })
        .collect();
    pooled(pool, jobs)
}

fn ensure(cond: bool, msg: String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg)
    }
}

/// Figure 8 (multiple counters, no data conflicts): SLE and TLR are
/// near-identical and both decisively beat BASE at high processor
/// counts.
pub fn fig08(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    let procs = 8;
    let w = multiple_counter(procs, 1024);
    let c = scheme_cycles(base, pool, procs, &[Scheme::Base, Scheme::Sle, Scheme::Tlr], &w)?;
    let (base, sle, tlr) = (c[0], c[1], c[2]);
    ensure(
        (sle as f64 - tlr as f64).abs() / tlr as f64 <= 0.25,
        format!("SLE ({sle}) and TLR ({tlr}) must be near-identical without conflicts"),
    )?;
    ensure(tlr * 2 < base, format!("TLR must beat BASE decisively: {tlr} vs {base}"))
}

/// Figure 9 (one contended counter): TLR < strict-ts < BASE, TLR <
/// SLE, TLR < MCS — the paper's scheme ordering under high conflict.
pub fn fig09(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    let procs = 8;
    let w = single_counter(procs, 1024);
    let c = scheme_cycles(
        base,
        pool,
        procs,
        &[Scheme::Base, Scheme::Mcs, Scheme::Sle, Scheme::TlrStrictTs, Scheme::Tlr],
        &w,
    )?;
    let (base, mcs, sle, strict, tlr) = (c[0], c[1], c[2], c[3], c[4]);
    ensure(tlr < strict, format!("§3.2 relaxation must help: TLR {tlr} vs strict {strict}"))?;
    ensure(strict < base, format!("even strict TLR beats BASE: {strict} vs {base}"))?;
    ensure(tlr < sle, format!("TLR beats SLE under conflicts: {tlr} vs {sle}"))?;
    ensure(sle < base, format!("SLE lands between BASE and TLR: {sle} vs {base}"))?;
    ensure(tlr < mcs, format!("TLR avoids MCS software overhead: {tlr} vs {mcs}"))
}

/// Figure 10 (doubly-linked list): TLR extracts the head/tail
/// concurrency the single lock hides.
pub fn fig10(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    let procs = 8;
    let w = doubly_linked_list(procs, 256);
    let c = scheme_cycles(base, pool, procs, &[Scheme::Base, Scheme::Tlr], &w)?;
    let (base, tlr) = (c[0], c[1]);
    ensure(tlr < base, format!("TLR must beat BASE on the deque: {tlr} vs {base}"))
}

/// Figure 11 (application kernels): exactly seven uniquely named
/// apps; across the suite TLR is no slower than BASE and removes most
/// of the cycles attributed to lock variables.
pub fn fig11(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    let procs = 4;
    let apps = figure11_apps(procs, 64);
    ensure(apps.len() == 7, format!("figure 11 needs 7 apps, found {}", apps.len()))?;
    let names: std::collections::HashSet<&str> = apps.iter().map(|w| w.name()).collect();
    ensure(names.len() == 7, format!("app names must be unique: {names:?}"))?;
    let mut jobs = Vec::with_capacity(apps.len() * 2);
    for w in &apps {
        for scheme in [Scheme::Base, Scheme::Tlr] {
            let w = w.as_ref();
            let cfg = base.clone().scheme(scheme).procs(procs).build();
            jobs.push(Job::new(cell_coords(w.name(), &cfg), move |_| run_cell(&cfg, w)));
        }
    }
    let reports = pooled(pool, jobs)?;
    let mut base_total = 0u64;
    let mut tlr_total = 0u64;
    let mut base_lock = 0u64;
    let mut tlr_lock = 0u64;
    for pair in reports.chunks(2) {
        let (base, tlr) = (&pair[0], &pair[1]);
        base_total += base.stats.parallel_cycles;
        tlr_total += tlr.stats.parallel_cycles;
        base_lock += base.stats.total_lock_cycles();
        tlr_lock += tlr.stats.total_lock_cycles();
    }
    ensure(
        tlr_total <= base_total,
        format!("TLR must not lose to BASE across the suite: {tlr_total} vs {base_total}"),
    )?;
    ensure(
        tlr_lock * 2 < base_lock,
        format!("TLR must elide most lock-variable cycles: {tlr_lock} vs {base_lock}"),
    )
}

/// Table 1 schema: the inventory covers exactly the applications the
/// Figure 11 suite actually runs. (Schema-only — no cells to fan out.)
pub fn table1(_base: &MachineConfigBuilder, _pool: &Pool) -> Result<(), String> {
    let table = ["barnes", "cholesky", "mp3d", "radiosity", "water-nsq", "ocean-cont", "raytrace"];
    let mut have: Vec<String> =
        figure11_apps(2, 16).iter().map(|w| w.name().to_string()).collect();
    have.sort();
    let mut want: Vec<String> = table.iter().map(|s| s.to_string()).collect();
    want.sort();
    ensure(have == want, format!("table rows {want:?} != figure 11 apps {have:?}"))
}

/// Table 2 schema: the default machine configuration carries the
/// paper's parameters (Table 2) in every field the dump prints.
/// (Schema-only — no cells to fan out.)
pub fn table2(base: &MachineConfigBuilder, _pool: &Pool) -> Result<(), String> {
    let cfg = base.clone().scheme(Scheme::Tlr).procs(16).build();
    ensure(cfg.num_procs == 16, format!("16 processors, got {}", cfg.num_procs))?;
    ensure(cfg.line_bytes() == 64, format!("64 B lines, got {}", cfg.line_bytes()))?;
    let l1_kb = cfg.l1_sets * cfg.l1_ways * 64 / 1024;
    ensure(l1_kb == 128, format!("128 KB L1, got {l1_kb} KB"))?;
    let l2_mb = cfg.l2_sets * cfg.l2_ways * 64 / (1024 * 1024);
    ensure(l2_mb == 4, format!("4 MB L2, got {l2_mb} MB"))?;
    ensure(
        cfg.latency.l1_hit < cfg.latency.l2 && cfg.latency.l2 < cfg.latency.memory,
        format!(
            "latencies must rank L1 < L2 < memory: {} / {} / {}",
            cfg.latency.l1_hit, cfg.latency.l2, cfg.latency.memory
        ),
    )?;
    ensure(cfg.mshrs > 0, "MSHRs must be present".into())?;
    ensure(cfg.write_buffer_lines > 0, "speculative write buffer must be present".into())?;
    ensure(cfg.victim_entries > 0, "victim cache must be present".into())?;
    ensure(cfg.sle_predictor_entries > 0, "SLE predictor must be present".into())?;
    ensure(
        cfg.rmw_predictor_enabled && cfg.rmw_predictor_entries > 0,
        "RMW predictor must default on (all paper experiments)".into(),
    )?;
    ensure(cfg.timestamp_bits > 0, "timestamps must be present".into())
}

/// Scalability experiment: the home-node directory carries the paper's
/// schemes past the snooping bus's 16-processor ceiling. At 32
/// processors — double what the bus can order — every cell completes
/// and validates, the directory (not the bus) does the ordering with
/// conservation of requests, and the paper's no-conflict shape
/// survives the fabric change: SLE and TLR stay near-identical and
/// both decisively beat BASE.
pub fn exp_scalability(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    let total = 2048u64;
    let schemes = crate::sweeps::SCALABILITY_SCHEMES;
    let procs_list = [8usize, 32];
    let dir = base.clone().interconnect(Interconnect::Directory);
    let mut jobs = Vec::with_capacity(procs_list.len() * schemes.len());
    for &procs in &procs_list {
        for &scheme in &schemes {
            let cfg = dir.clone().scheme(scheme).procs(procs).build();
            jobs.push(Job::new(cell_coords("multiple_counter", &cfg), move |_| {
                run_cell(&cfg, &multiple_counter(procs, total))
            }));
        }
    }
    let reports = pooled(pool, jobs)?;
    for r in &reports {
        ensure(
            r.stats.dir.requests_ordered > 0,
            format!("[{} x{}] the directory must have ordered requests", r.scheme, r.procs),
        )?;
        ensure(
            r.stats.dir.requests_sent == r.stats.dir.requests_ordered,
            format!(
                "[{} x{}] request conservation: {} sent vs {} ordered",
                r.scheme, r.procs, r.stats.dir.requests_sent, r.stats.dir.requests_ordered
            ),
        )?;
        ensure(
            r.stats.dir.banks == r.procs as u64,
            format!(
                "[{} x{}] default banking is one home bank per processor, got {}",
                r.scheme, r.procs, r.stats.dir.banks
            ),
        )?;
    }
    let row32 = &reports[schemes.len()..];
    let (base, sle, tlr) = (
        row32[0].stats.parallel_cycles,
        row32[1].stats.parallel_cycles,
        row32[2].stats.parallel_cycles,
    );
    ensure(
        (sle as f64 - tlr as f64).abs() / tlr as f64 <= 0.25,
        format!("SLE ({sle}) and TLR ({tlr}) must stay near-identical without conflicts at 32 procs"),
    )?;
    ensure(
        tlr * 2 < base,
        format!("TLR must beat BASE decisively at 32 procs on the directory: {tlr} vs {base}"),
    )
}

/// Chaos degradation experiment: injected faults may cost cycles but
/// never correctness. Every cell validates, the fault bookkeeping is
/// self-consistent, level 0 is indistinguishable from a machine that
/// never heard of the fault layer, and the max-intensity cells
/// actually inject faults.
pub fn exp_robustness(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    use tlr_sim::fault::FaultConfig;
    let procs = 4;
    let total = 256u64;
    let seed = crate::cli::DEFAULT_FAULT_SEED;
    let schemes = crate::sweeps::ROBUSTNESS_SCHEMES;
    let mut jobs = Vec::with_capacity(schemes.len() * 3);
    for level in [0, FaultConfig::MAX_INTENSITY] {
        for scheme in schemes {
            let faults = FaultConfig::intensity(seed, level);
            let cfg = base.clone().scheme(scheme).procs(procs).faults(faults).build();
            jobs.push(Job::new(cell_coords("single_counter", &cfg), move |_| {
                run_workload(&cfg, &single_counter(procs, total))
            }));
        }
    }
    // Reference cells: a configuration that never mentions faults.
    for scheme in schemes {
        let cfg = base.clone().scheme(scheme).procs(procs).build();
        jobs.push(Job::new(cell_coords("single_counter", &cfg), move |_| {
            run_cell(&cfg, &single_counter(procs, total))
        }));
    }
    let reports = pooled(pool, jobs)?;
    for r in &reports {
        r.validation
            .clone()
            .map_err(|e| format!("[{} x{}] chaos broke serializability: {e}", r.scheme, r.procs))?;
        ensure(
            r.stats.faults.spurious_aborts == r.stats.sum(|n| n.aborts_injected),
            format!(
                "[{}] spurious-abort bookkeeping must agree: machine {} vs nodes {}",
                r.scheme,
                r.stats.faults.spurious_aborts,
                r.stats.sum(|n| n.aborts_injected)
            ),
        )?;
    }
    let (calm, rest) = reports.split_at(schemes.len());
    let (wild, refs) = rest.split_at(schemes.len());
    for (a, b) in calm.iter().zip(refs) {
        ensure(
            a.stats.faults.total_injected() == 0,
            format!("[{}] level 0 must inject nothing", a.scheme),
        )?;
        ensure(
            a.stats.parallel_cycles == b.stats.parallel_cycles
                && a.stats.total_commits() == b.stats.total_commits()
                && a.stats.total_restarts() == b.stats.total_restarts(),
            format!(
                "[{}] faults-off cell must match the fault-free build: {} vs {} cycles",
                a.scheme, a.stats.parallel_cycles, b.stats.parallel_cycles
            ),
        )?;
    }
    ensure(
        wild.iter().any(|r| r.stats.faults.total_injected() > 0),
        "max-intensity cells must actually inject faults".into(),
    )
}

/// Conflict-policy experiment: every policy is a correct contention
/// manager — all cells validate and commit the full workload within
/// the cycle budget (a livelocking policy would hit `max_cycles` and
/// fail validation) — and the timestamp policy is bit-identical to
/// the base machine with no policy named (under the default flags),
/// on both a contended and an uncontended regime.
pub fn exp_policies(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    let procs = 4;
    let contended = single_counter(procs, 256);
    let parallel = multiple_counter(procs, 512);
    let regimes: [&dyn WorkloadSpec; 2] = [&contended, &parallel];
    let mut jobs = Vec::with_capacity(regimes.len() * (PolicyKind::ALL.len() + 1));
    let tlr = base.clone().scheme(Scheme::Tlr).procs(procs);
    for &w in &regimes {
        for kind in PolicyKind::ALL {
            // Reachable in wall clock (unlike the sweep-wide budget),
            // so a livelocking policy fails the budget assertion below
            // instead of hanging CI.
            let cfg = tlr.clone().policy(kind).max_cycles(200_000_000).build();
            jobs.push(Job::new(cell_coords(w.name(), &cfg), move |_| run_workload(&cfg, w)));
        }
        // Reference cell: the base machine, whose policy the flags
        // chose (timestamp unless `--policy` says otherwise).
        let cfg = tlr.clone().build();
        jobs.push(Job::new(cell_coords(w.name(), &cfg), move |_| run_cell(&cfg, w)));
    }
    let reports = pooled(pool, jobs)?;
    for per_regime in reports.chunks(PolicyKind::ALL.len() + 1) {
        let reference = per_regime.last().expect("reference cell");
        for (kind, r) in PolicyKind::ALL.iter().zip(per_regime) {
            r.validation
                .clone()
                .map_err(|e| format!("[{kind} x{procs}] policy broke serializability: {e}"))?;
            ensure(
                r.stats.total_commits() > 0,
                format!("[{kind}] no transaction ever committed"),
            )?;
            ensure(
                r.stats.parallel_cycles < 200_000_000,
                format!("[{kind}] ran into the cycle budget: livelock"),
            )?;
        }
        let ts = &per_regime[0];
        ensure(
            ts.stats == reference.stats,
            format!(
                "timestamp policy must be bit-identical to the pre-policy path: \
                 {} vs {} cycles",
                ts.stats.parallel_cycles, reference.stats.parallel_cycles
            ),
        )?;
    }
    Ok(())
}

/// Profiling smoke (`tlr-profile --check`): a profiled cell must
/// carry a timeline that tiles the run exactly, satisfy the
/// cycle-accounting identity, and leave the simulated run itself
/// untouched — its statistics equal the unprofiled cell's bit for
/// bit. Runs on the engine the base machine carries (`--engine`), so
/// CI exercises both.
pub fn profile(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    use tlr_sim::prof::ProfConfig;
    let procs = 4;
    let w = single_counter(procs, 256);
    let jobs = [true, false]
        .iter()
        .map(|&on| {
            let w = &w;
            let profile = if on { ProfConfig::on() } else { ProfConfig::off() };
            let cfg = base.clone().scheme(Scheme::Tlr).procs(procs).profile(profile).build();
            Job::new(cell_coords(w.name(), &cfg), move |_| run_cell(&cfg, w))
        })
        .collect();
    let reports = pooled(pool, jobs)?;
    let (on, off) = (&reports[0], &reports[1]);
    ensure(off.profile.is_none(), "unprofiled cell must carry no profile".into())?;
    let p = on.profile.as_deref().ok_or("profiled cell must carry a profile")?;
    ensure(
        on.stats == off.stats,
        format!(
            "profiling must not change the run: {} vs {} cycles",
            on.stats.parallel_cycles, off.stats.parallel_cycles
        ),
    )?;
    on.stats.check_cycle_accounting()?;
    let covered: u64 = p.samples().iter().map(|s| s.cycles).sum();
    ensure(
        covered == on.stats.elapsed_cycles,
        format!("timeline must tile the run: {covered} vs {} cycles", on.stats.elapsed_cycles),
    )?;
    let util = p.utilization();
    ensure((0.0..=1.0).contains(&util), format!("bus utilization out of range: {util}"))?;
    let e = &p.engine;
    ensure(
        e.steps + e.skipped_cycles == on.stats.elapsed_cycles,
        format!(
            "steps ({}) + skipped ({}) must tile the {} elapsed cycles",
            e.steps,
            e.skipped_cycles,
            on.stats.elapsed_cycles
        ),
    )?;
    // The wake histogram counts event-engine scheduling decisions
    // (one per outer advance; burst-mode continuations are accounted
    // separately), so it is bounded by the step count and must be
    // populated whenever the engine actually skipped cycles. The
    // cycle engine records no wakes.
    ensure(
        e.total_wakes() <= e.steps,
        format!("wake decisions ({}) cannot exceed steps ({})", e.total_wakes(), e.steps),
    )?;
    ensure(
        e.skipped_cycles == 0 || e.total_wakes() > 0,
        format!("an engine that skipped {} cycles must record wake sources", e.skipped_cycles),
    )
}

/// §6.3 granularity experiment: the coarse lock cripples BASE but TLR
/// still extracts the cell-level parallelism it hides.
pub fn exp_coarse_fine(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    let procs = 4;
    let (iters, cells) = (96, 512);
    let fine = mp3d(procs, iters, cells);
    let coarse = mp3d_coarse(procs, iters, cells);
    let plan: [(Scheme, &dyn WorkloadSpec); 3] =
        [(Scheme::Base, &fine), (Scheme::Base, &coarse), (Scheme::Tlr, &coarse)];
    let jobs = plan
        .iter()
        .map(|&(s, w)| {
            let cfg = base.clone().scheme(s).procs(procs).build();
            Job::new(cell_coords(w.name(), &cfg), move |_| run_cell(&cfg, w))
        })
        .collect();
    let r = pooled(pool, jobs)?;
    let (base_fine, base_coarse, tlr_coarse) = (&r[0], &r[1], &r[2]);
    ensure(
        speedup(tlr_coarse, base_coarse) > 1.0,
        format!(
            "TLR must recover the parallelism the coarse lock hides: {} vs {}",
            tlr_coarse.stats.parallel_cycles, base_coarse.stats.parallel_cycles
        ),
    )?;
    ensure(
        base_coarse.stats.parallel_cycles > base_fine.stats.parallel_cycles,
        format!(
            "one lock for all cells must hurt BASE: coarse {} vs fine {}",
            base_coarse.stats.parallel_cycles, base_fine.stats.parallel_cycles
        ),
    )
}

/// §6.3 RMW-predictor experiment: enabling the predictor never slows
/// BASE down materially, and helps somewhere in the suite.
pub fn exp_rmw_predictor(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    let procs = 4;
    let apps = figure11_apps(procs, 48);
    let base = base.clone().scheme(Scheme::Base).procs(procs).build();
    let mut jobs = Vec::with_capacity(apps.len() * 2);
    for w in &apps {
        for enabled in [false, true] {
            let w = w.as_ref();
            let mut cfg = base.clone();
            cfg.rmw_predictor_enabled = enabled;
            jobs.push(Job::new(cell_coords(w.name(), &cfg), move |_| {
                run_cell(&cfg, w).stats.parallel_cycles
            }));
        }
    }
    let cycles = pooled(pool, jobs)?;
    let without: u64 = cycles.iter().step_by(2).sum();
    let with: u64 = cycles.iter().skip(1).step_by(2).sum();
    ensure(
        with as f64 <= without as f64 * 1.02,
        format!("the predictor must not slow BASE down: {with} vs {without}"),
    )?;
    ensure(with < without, format!("the predictor must help somewhere: {with} vs {without}"))
}

/// §3.3 resource ablations: starving every TLR resource shapes
/// performance but never correctness — all configurations validate.
pub fn exp_ablations(base: &MachineConfigBuilder, pool: &Pool) -> Result<(), String> {
    let procs = 4;
    let tlr = base.clone().scheme(Scheme::Tlr).procs(procs).build();
    let base = |f: fn(&mut MachineConfig)| {
        let mut c = tlr.clone();
        f(&mut c);
        c
    };
    let counter = single_counter(procs, 128);
    let deque = doubly_linked_list(procs, 64);
    let plan: [(MachineConfig, &dyn WorkloadSpec, &'static str); 5] = [
        (base(|c| c.deferred_queue_entries = 1), &counter, "deferred queue of 1"),
        (base(|c| c.victim_entries = 1), &deque, "victim cache of 1"),
        (base(|c| c.write_buffer_lines = 2), &deque, "write buffer of 2"),
        (base(|c| c.timestamp_bits = 6), &counter, "6-bit timestamps"),
        (base(|c| c.retention = RetentionPolicy::Nack), &counter, "NACK retention"),
    ];
    let jobs = plan
        .iter()
        .map(|(cfg, w, what)| {
            Job::new(cell_coords(w.name(), cfg), move |_| {
                let r: RunReport = run_workload(cfg, *w);
                r.validation.clone().map_err(|e| format!("{what}: {e}"))
            })
        })
        .collect();
    for validation in pooled(pool, jobs)? {
        validation?;
    }
    Ok(())
}
