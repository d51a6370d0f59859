//! The registry of the twelve figure/table/exp experiments.
//!
//! Each [`Experiment`] names one binary in `src/bin/` and holds what
//! that binary does: the defaults its flags start from, its extra
//! flags, its `--check` golden shape, and its sweep. Every binary's
//! `main` is one call to [`main`]; `tests/check_mode.rs` and
//! `tests/parallel_determinism.rs` walk [`EXPERIMENTS`] instead of
//! listing the experiments by hand.

use tlr_sim::config::Interconnect;
use tlr_sim::pool::Pool;

use crate::checks::{self, Check};
use crate::cli::{chaos_flags, no_extra_flags, Args, Flag};
use crate::sweeps::{self, Report};

/// One experiment binary.
pub struct Experiment {
    /// The binary's name (its file stem in `src/bin/`), also the name
    /// its `--check` verdict reports.
    pub name: &'static str,
    /// The options the flags start from.
    pub defaults: fn() -> Args,
    /// The binary's own flags, offered each token before the core
    /// parser ([`Args::parse_with`]).
    pub flags: fn(&mut Args, Flag<'_>) -> bool,
    /// The golden-shape check `--check` runs.
    pub check: Check,
    /// The sweep: runs every cell through the pool and returns the
    /// results to print and export.
    pub run: fn(&Args, &Pool) -> Box<dyn Report>,
}

/// Every experiment, in the paper's order: tables, figures, then the
/// studies beyond the paper's evaluation.
pub static EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        name: "table1_benchmarks",
        defaults: Args::default,
        flags: no_extra_flags,
        check: checks::table1,
        run: |_, _| Box::new(sweeps::Table1),
    },
    Experiment {
        name: "table2_machine",
        defaults: Args::default,
        flags: no_extra_flags,
        check: checks::table2,
        run: |opts, _| Box::new(sweeps::table2(opts)),
    },
    Experiment {
        name: "fig08_multiple_counter",
        defaults: Args::default,
        flags: no_extra_flags,
        check: checks::fig08,
        run: |opts, pool| Box::new(sweeps::fig08(opts, pool)),
    },
    Experiment {
        name: "fig09_single_counter",
        defaults: Args::default,
        flags: no_extra_flags,
        check: checks::fig09,
        run: |opts, pool| Box::new(sweeps::fig09(opts, pool)),
    },
    Experiment {
        name: "fig10_linked_list",
        defaults: Args::default,
        flags: no_extra_flags,
        check: checks::fig10,
        run: |opts, pool| Box::new(sweeps::fig10(opts, pool)),
    },
    Experiment {
        name: "fig11_applications",
        defaults: Args::default,
        flags: no_extra_flags,
        check: checks::fig11,
        run: |opts, pool| Box::new(sweeps::fig11(opts, pool)),
    },
    Experiment {
        name: "exp_coarse_fine",
        defaults: Args::default,
        flags: no_extra_flags,
        check: checks::exp_coarse_fine,
        run: |opts, pool| Box::new(sweeps::coarse_fine(opts, pool)),
    },
    Experiment {
        name: "exp_rmw_predictor",
        defaults: Args::default,
        flags: no_extra_flags,
        check: checks::exp_rmw_predictor,
        run: |opts, pool| Box::new(sweeps::rmw_predictor(opts, pool)),
    },
    Experiment {
        name: "exp_ablations",
        defaults: Args::default,
        flags: no_extra_flags,
        check: checks::exp_ablations,
        run: |opts, pool| Box::new(sweeps::ablations(opts, pool)),
    },
    Experiment {
        name: "exp_robustness",
        defaults: Args::default,
        flags: chaos_flags,
        check: checks::exp_robustness,
        run: |opts, pool| Box::new(sweeps::robustness(opts, pool)),
    },
    Experiment {
        name: "exp_scalability",
        // The 32-256-processor sweep only the directory can carry.
        defaults: || Args {
            procs: vec![32, 64, 128, 256],
            interconnect: Interconnect::Directory,
            ..Args::default()
        },
        flags: no_extra_flags,
        check: checks::exp_scalability,
        run: |opts, pool| Box::new(sweeps::scalability(opts, pool)),
    },
    Experiment {
        name: "exp_policies",
        defaults: Args::default,
        flags: no_extra_flags,
        check: checks::exp_policies,
        run: |opts, pool| Box::new(sweeps::policies(opts, pool)),
    },
];

/// The registered experiment called `name`.
///
/// # Panics
///
/// Panics if no experiment has that name.
pub fn find(name: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name:?}"))
}

/// The `main` of experiment binary `name`: parses the process
/// arguments from the experiment's defaults, then either runs its
/// golden-shape check (`--check`) or runs the sweep, prints it, and
/// writes the `--csv` and `--json` exports that were asked for.
///
/// # Panics
///
/// Panics on an unknown experiment, on malformed arguments, and on a
/// failed cell; exits non-zero on a failed check.
pub fn main(name: &str) {
    let exp = find(name);
    let opts = Args::parse_with((exp.defaults)(), exp.flags);
    let pool = opts.pool();
    if opts.check {
        checks::run(exp.name, exp.check, &opts.base(), &pool, opts.json.as_deref());
        return;
    }
    let report = (exp.run)(&opts, &pool);
    report.print();
    if let Some(path) = &opts.csv {
        report.write_csv(path);
    }
    if let Some(path) = &opts.json {
        crate::write_json_file(path, &report.json(), "json");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_exactly_the_experiment_binaries() {
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut stems: Vec<String> = std::fs::read_dir(&bin_dir)
            .expect("src/bin is readable")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .filter_map(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
            .filter(|s| ["table", "fig", "exp"].iter().any(|prefix| s.starts_with(prefix)))
            .collect();
        stems.sort();
        let mut names: Vec<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
        names.sort();
        assert_eq!(names, stems, "every table/fig/exp binary needs exactly one registry entry");
    }

    #[test]
    #[should_panic(expected = "no experiment named")]
    fn unknown_experiments_are_rejected() {
        find("fig12_missing");
    }
}
