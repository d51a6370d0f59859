//! Order statistics over host-time samples: medians and quartiles of
//! per-pass values, and percentiles of per-call durations.

/// The five-number summary of one metric's per-pass samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`, which must be non-empty.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&s);
        Summary {
            median,
            q1,
            q3,
            min: s[0],
            max: s[s.len() - 1],
            n: s.len(),
        }
    }

    /// The q1–q3 distance as a share of the median (0 when the median
    /// is 0).
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The median of `samples`, which must be non-empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Quartiles of sorted data by the "exclusive" method, the default of
/// Python's `statistics.quantiles(data, n=4)`, so spreads computed here
/// and by a script over the same values agree. The middle value is
/// the ordinary median.
fn quartiles_sorted(s: &[f64]) -> (f64, f64, f64) {
    let n = s.len();
    let mid = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), mid, q(3))
}

/// Nearest-rank percentile `p` (0 < p <= 100) of sorted data, which
/// must be non-empty: the reference [`CallSample`] is tested against.
#[cfg(test)]
fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Every sample of a per-call duration in whole nanoseconds, kept as a
/// counting sort: one counter per nanosecond below [`CallSample::DENSE`]
/// and the rare slower calls verbatim. Percentiles read from it are
/// exact, and memory stays bounded however many million calls a pass
/// makes.
#[derive(Debug, Clone)]
pub struct CallSample {
    dense: Vec<u32>,
    slow: Vec<u64>,
    n: u64,
}

impl Default for CallSample {
    fn default() -> Self {
        CallSample {
            dense: vec![0; Self::DENSE],
            slow: Vec::new(),
            n: 0,
        }
    }
}

impl CallSample {
    const DENSE: usize = 1 << 16;

    pub fn record(&mut self, ns: u64) {
        self.n += 1;
        match self.dense.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `p` in ns; `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let want = rank(p, self.n as usize) as u64;
        let mut seen = 0u64;
        for (ns, &c) in self.dense.iter().enumerate() {
            seen += u64::from(c);
            if seen >= want {
                return Some(ns as u64);
            }
        }
        self.slow.sort_unstable();
        Some(self.slow[(want - seen - 1) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 2.0, 2));
    }

    #[test]
    fn rel_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.rel_spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).rel_spread(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[9u32], 99.0), 9);
        assert_eq!(percentile_sorted(&[1u32, 2], 50.0), 1);
    }

    #[test]
    fn call_sample_percentiles_equal_sorted_ones() {
        let mut raw: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 3000).collect();
        raw.extend([70_000, 1_000_000, 65_536, 65_535]);
        let mut cs = CallSample::default();
        for &v in &raw {
            cs.record(v);
        }
        raw.sort_unstable();
        assert_eq!(cs.len(), raw.len() as u64);
        for p in [1.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(cs.percentile(p), Some(percentile_sorted(&raw, p)), "p{p}");
        }
        assert_eq!(CallSample::default().percentile(50.0), None);
    }
}
