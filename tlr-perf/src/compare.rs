//! `--compare PARENT.json CHANGE.json`: one verdict per (workload,
//! end-to-end metric) row, judged against the bounds in
//! `BENCHMARK.json`. It is a regression gate, not a combined score.

use crate::json::{parse, Value};
use crate::summary::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread between runs is wider than the bound, so the
    /// medians cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one row from the per-run samples of each side. `bound` is
/// the share of the parent's median by which the change may be worse.
/// A row whose q1–q3 spread (on either side, relative to its median)
/// is wider than the bound is unresolved, unless every run of the
/// change beats every run of the parent.
pub fn verdict(parent: &[f64], change: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (p, c) = (Summary::of(parent), Summary::of(change));
    // Positive when the change is worse.
    let worse = |a: f64, b: f64| if lower_is_better { a - b } else { b - a };
    let rel = worse(c.median, p.median) / p.median.abs().max(f64::MIN_POSITIVE);
    let all_better = change
        .iter()
        .all(|&x| parent.iter().all(|&y| worse(x, y) < 0.0));
    if !all_better && p.rel_spread().max(c.rel_spread()) > bound {
        Verdict::Unresolved
    } else if rel > bound {
        Verdict::Regressed
    } else if -rel > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads").map_or(&[], Value::as_arr)
}

fn samples(w: &Value, metric: &str) -> Option<Vec<f64>> {
    w.get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_arr()
        .iter()
        .map(Value::as_f64)
        .collect::<Option<Vec<f64>>>()
        .filter(|s| !s.is_empty())
}

/// Compares two `--json` reports. Returns the printed table and
/// whether the change passes: no row regressed and no workload's
/// `failed_frac` rose.
///
/// # Errors
///
/// Fails on unparsable input, or when a workload or metric of the
/// parent is missing from the change.
pub fn compare(parent: &str, change: &str, benchmark: &str) -> Result<(String, bool), String> {
    let (parent, change, bench) = (parse(parent)?, parse(change)?, parse(benchmark)?);
    let mut out = format!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "parent median", "change median", "delta", "bound"
    );
    let mut pass = true;
    for pw in workloads(&parent) {
        let name = pw
            .get("name")
            .and_then(Value::as_str)
            .ok_or("parent workload without a name")?;
        let cw = workloads(&change)
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("workload {name} missing from the change"))?;
        for m in bench.get("end_to_end").map_or(&[][..], Value::as_arr) {
            let metric = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let p = samples(pw, metric).ok_or_else(|| format!("{name}: parent lacks {metric}"))?;
            let c = samples(cw, metric).ok_or_else(|| format!("{name}: change lacks {metric}"))?;
            let v = verdict(&p, &c, bound, lower);
            pass &= v != Verdict::Regressed;
            let (pm, cm) = (Summary::of(&p).median, Summary::of(&c).median);
            out += &format!(
                "{name:<16} {metric:<20} {pm:>14.6} {cm:>14.6} {:>+8.2}% {:>5.0}%  {}\n",
                (cm - pm) / pm * 100.0,
                bound * 100.0,
                v.label()
            );
        }
        let frac = |w: &Value| w.get("failed_frac").and_then(Value::as_f64).unwrap_or(1.0);
        let (pf, cf) = (frac(pw), frac(cw));
        let rose = cf > pf;
        pass &= !rose;
        out += &format!(
            "{name:<16} {:<20} {pf:>14.6} {cf:>14.6} {:>9} {:>6}  {}\n",
            "failed_frac",
            "",
            "0",
            if rose { "regressed" } else { "unchanged" }
        );
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let same = [1.01, 1.00, 0.99, 1.01, 1.00];
        assert_eq!(verdict(&base, &same, 0.10, true), Verdict::Unchanged);
        let slow = base.map(|x| x * 1.2);
        assert_eq!(verdict(&base, &slow, 0.10, true), Verdict::Regressed);
        assert_eq!(
            verdict(&base, &slow, 0.10, false),
            Verdict::Improved,
            "higher is better"
        );
        let fast = base.map(|x| x * 0.8);
        assert_eq!(verdict(&base, &fast, 0.10, true), Verdict::Improved);
        // Wider than the bound: no call either way...
        let noisy = [0.7, 1.3, 0.8, 1.2, 1.0];
        assert_eq!(verdict(&noisy, &base, 0.10, true), Verdict::Unresolved);
        assert_eq!(
            verdict(&base, &noisy.map(|x| x * 1.5), 0.10, true),
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every run of the parent.
        let wide_but_clear = [0.30, 0.45, 0.35, 0.40, 0.50];
        assert_eq!(
            verdict(&noisy, &wide_but_clear, 0.10, true),
            Verdict::Improved
        );
        // A change within the bound, even if every run is better, is
        // unchanged.
        assert_eq!(
            verdict(&base, &base.map(|x| x * 0.95), 0.10, true),
            Verdict::Unchanged
        );
    }

    fn report(wall: &[f64], failed_frac: f64) -> String {
        let list: Vec<String> = wall.iter().map(|x| x.to_string()).collect();
        format!(
            "{{\"workloads\":[{{\"name\":\"w\",\"failed_frac\":{failed_frac},\
             \"metrics\":{{\"wall_s\":{{\"samples\":[{}]}}}}}}]}}",
            list.join(",")
        )
    }

    const BENCH: &str =
        "{\"end_to_end\":[{\"name\":\"wall_s\",\"unit\":\"s\",\"better\":\"lower\",\"bound\":0.1}]}";

    #[test]
    fn gate_fails_on_regression_or_more_failures() {
        let base = report(&[1.0, 1.01, 0.99], 0.0);
        let (table, ok) = compare(&base, &report(&[1.0, 1.0, 1.01], 0.0), BENCH).expect("compares");
        assert!(ok, "{table}");
        assert!(table.contains("unchanged") && !table.contains("regressed"));
        let (table, ok) = compare(&base, &report(&[1.5, 1.5, 1.5], 0.0), BENCH).expect("compares");
        assert!(!ok && table.contains("regressed"), "{table}");
        let (table, ok) = compare(&base, &report(&[1.0, 1.0, 1.0], 0.1), BENCH).expect("compares");
        assert!(!ok, "a rise in failed_frac fails the gate: {table}");
        assert!(compare(&base, "{\"workloads\":[]}", BENCH).is_err());
    }
}
