//! The byte-identity guard: the stats digest every cell must reproduce,
//! per machine seed. `golden.tsv` is compiled in; it is regenerated
//! from the `digests` of a `--json` report (see the README), never by a
//! flag of the benchmark itself.

use std::collections::BTreeMap;

const GOLDEN_TSV: &str = include_str!("../golden.tsv");

/// The golden digests of `workload`'s cells at `seed`, by cell label;
/// `None` when the file holds none for that pair.
pub fn expected(seed: u64, workload: &str) -> Option<BTreeMap<String, u64>> {
    let map: BTreeMap<String, u64> = parse(GOLDEN_TSV)
        .into_iter()
        .filter(|(s, w, _, _)| *s == seed && w == workload)
        .map(|(_, _, cell, digest)| (cell, digest))
        .collect();
    (!map.is_empty()).then_some(map)
}

/// `(seed, workload, cell, digest)` rows; `#` lines are comments.
///
/// # Panics
///
/// Panics on a malformed row: the file is part of the build.
fn parse(tsv: &str) -> Vec<(u64, String, String, u64)> {
    tsv.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16);
            match (
                f.as_slice(),
                f.first().map(|s| hex(s)),
                f.get(3).map(|s| hex(s)),
            ) {
                ([_, w, c, _], Some(Ok(seed)), Some(Ok(d))) => {
                    (seed, w.to_string(), c.to_string(), d)
                }
                _ => panic!("golden.tsv: malformed row {l:?}"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{Size, Workload, DEFAULT_SEED, HELD_OUT_SEED};

    #[test]
    fn parses_rows_and_skips_comments() {
        let rows = parse("# seed\tworkload\tcell\tdigest\n0x10\tw\tc/TLR\t00000000000000ff\n\n");
        assert_eq!(rows, vec![(16, "w".to_string(), "c/TLR".to_string(), 255)]);
    }

    /// Every cell of every workload has a golden at both the default
    /// and the held-out seed, and nothing else is in the file.
    #[test]
    fn goldens_cover_every_cell_at_both_seeds() {
        let mut n = 0;
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for w in Workload::ALL {
                let g = expected(seed, w.name())
                    .unwrap_or_else(|| panic!("no goldens for {}", w.name()));
                let labels: Vec<String> = w
                    .cells(seed, Size::Full)
                    .into_iter()
                    .map(|c| c.label)
                    .collect();
                assert_eq!(g.keys().cloned().collect::<Vec<_>>(), {
                    let mut l = labels.clone();
                    l.sort();
                    l
                });
                n += labels.len();
            }
        }
        assert_eq!(parse(GOLDEN_TSV).len(), n);
        assert!(expected(1, "bus_apps16").is_none());
    }
}
