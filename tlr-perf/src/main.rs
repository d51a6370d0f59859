//! `tlr-perf`: host-performance benchmark of the TLR simulator.
//!
//! ```text
//! tlr-perf --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//!          [--json PATH] [--chrome-trace PATH]
//! tlr-perf --compare PARENT.json CHANGE.json
//! ```
//!
//! Each workload runs as a closed loop on one thread: an untimed
//! warm-up of its first cell, then whole passes over its cells until
//! `--seconds` are spent (at least three). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The benchmark measures host time only; simulated
//! output must stay byte-identical, which `golden.tsv` guards. See
//! README.md.

mod bench;
mod cells;
mod compare;
mod golden;
mod host;
mod json;
mod kernels;
mod runner;
mod summary;
mod trace;

use std::process::ExitCode;

use bench::Plan;
use cells::{Size, Workload, DEFAULT_SEED};
use host::Host;

const USAGE: &str = "usage: tlr-perf --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] \
                     [--json PATH] [--chrome-trace PATH]\n       tlr-perf --compare PARENT.json CHANGE.json\n\
                     workloads: bus_apps16 dir_parked256 conflict16 oracle_chaos8";

/// What the command line asked for.
enum Command {
    Run {
        workloads: Vec<Workload>,
        plan: Plan,
        json: Option<String>,
        chrome: Option<String>,
    },
    Compare {
        parent: String,
        change: String,
    },
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("bad seed {s:?}"))
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workloads = None;
    let mut plan = Plan {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        size: Size::Full,
    };
    let (mut json, mut chrome, mut compare) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?]
                });
            }
            "--seed" => plan.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let v = value()?;
                plan.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                plan.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--json" => json = Some(value()?),
            "--chrome-trace" => chrome = Some(value()?),
            "--compare" => compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if chrome.is_some() && (!plan.trace || workloads.as_ref().is_some_and(|w| w.len() > 1)) {
        return Err("--chrome-trace needs --trace 1 and a single workload".to_string());
    }
    match (compare, workloads) {
        (Some((parent, change)), None) => Ok(Command::Compare { parent, change }),
        (None, Some(workloads)) => Ok(Command::Run {
            workloads,
            plan,
            json,
            chrome,
        }),
        _ => Err("give either --workload or --compare".to_string()),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn report(plan: &Plan, host: &Host, workloads: &[String]) -> String {
    format!(
        "{{\"benchmark\":\"tlr-perf\",\"host\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"workloads\":[{}]}}\n",
        host.json(),
        plan.seed,
        json::num(plan.seconds),
        plan.trace,
        workloads.join(",")
    )
}

/// Measures one workload in this process.
fn run(w: Workload, plan: &Plan, json: Option<&str>, chrome: Option<&str>) -> Result<bool, String> {
    let host = Host::probe();
    println!("{}", host.describe());
    let r = bench::run(w, plan);
    bench::print_text(&r, plan.seed);
    if let Some(path) = json {
        write(path, &report(plan, &host, &[bench::report_json(&r)]))?;
    }
    if let Some(path) = chrome {
        write(path, &r.tracer.chrome_json())?;
    }
    println!("{}", bench::result_line(&r));
    Ok(r.correct())
}

/// Measures each workload in a process of its own, so each reads its
/// own peak RSS, and merges their reports.
fn run_each(workloads: &[Workload], plan: &Plan, json: Option<&str>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut parts = Vec::new();
    for w in workloads {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &plan.seed.to_string()]);
        cmd.args([
            "--seconds",
            &plan.seconds.to_string(),
            "--trace",
            if plan.trace { "1" } else { "0" },
        ]);
        let part = json.map(|p| format!("{p}.{}", w.name()));
        if let Some(p) = &part {
            cmd.args(["--json", p]);
        }
        ok &= cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?
            .success();
        if let Some(p) = part {
            let doc = json::parse(&read(&p)?)?;
            std::fs::remove_file(&p).map_err(|e| format!("{p}: {e}"))?;
            parts.extend(
                doc.get("workloads")
                    .map_or(&[][..], json::Value::as_arr)
                    .iter()
                    .map(json::Value::write),
            );
        }
    }
    if let Some(path) = json {
        write(path, &report(plan, &Host::probe(), &parts))?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|cmd| match cmd {
        Command::Run {
            workloads,
            plan,
            json,
            chrome,
        } => match workloads.as_slice() {
            [w] => run(*w, &plan, json.as_deref(), chrome.as_deref()),
            _ => run_each(&workloads, &plan, json.as_deref()),
        },
        Command::Compare { parent, change } => {
            let (table, ok) =
                compare::compare(&read(&parent)?, &read(&change)?, &read("BENCHMARK.json")?)?;
            print!("{table}");
            Ok(ok)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tlr-perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let Ok(Command::Run {
            workloads, plan, ..
        }) = parse_args(&args(
            "--workload conflict16 --seed 7 --seconds 10 --trace 1",
        ))
        else {
            panic!("run command expected")
        };
        assert_eq!(workloads, [Workload::Conflict16]);
        assert_eq!((plan.seed, plan.seconds, plan.trace), (7, 10.0, true));
        let Ok(Command::Run {
            workloads, plan, ..
        }) = parse_args(&args("--workload all --seed 0x0dd5eed5"))
        else {
            panic!("run command expected")
        };
        assert_eq!(workloads.len(), 4);
        assert_eq!(plan.seed, cells::HELD_OUT_SEED);
        assert!(matches!(
            parse_args(&args("--compare a.json b.json")),
            Ok(Command::Compare { .. })
        ));
        for bad in [
            "--workload all --trace 1 --chrome-trace t.json",
            "--workload conflict16 --chrome-trace t.json",
            "",
            "--workload nope",
            "--workload bus_apps16 --trace 2",
            "--seed x --workload all",
            "--bogus",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
