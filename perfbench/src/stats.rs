//! Order statistics over repeated samples and exact percentiles over
//! per-job records.

/// Median and quartiles of one metric's repeated samples, computed the
/// way Python's `statistics.quantiles(values, n=4)` does (the
/// "exclusive" method), so the numbers here match what a reader
/// recomputes from the raw samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub repeats: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let median = if v.len() % 2 == 1 {
            v[v.len() / 2]
        } else {
            (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
        };
        if v.len() < 2 {
            return Summary {
                repeats: 1,
                q1: median,
                median,
                q3: median,
            };
        }
        let quantile = |i: i64| {
            // Exclusive method: 1-based position j = i * (n + 1) / 4,
            // clamped to the sample range, then interpolated (or, when
            // clamped, extrapolated) exactly as Python does.
            let m = v.len() as i64 + 1;
            let j = (i * m / 4).clamp(1, v.len() as i64 - 1);
            let delta = (i * m - j * 4) as f64 / 4.0;
            let (lo, hi) = (v[j as usize - 1], v[j as usize]);
            lo + (hi - lo) * delta
        };
        Summary {
            repeats: v.len(),
            q1: quantile(1),
            median,
            q3: quantile(3),
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"repeats\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
            self.repeats, self.q1, self.median, self.q3
        )
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geometric mean of a non-positive value"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// An exact nearest-rank percentile over every recorded sample (no
/// reservoir, no buckets), with the count of samples strictly above it
/// so a caller can refuse a tail percentile that too few samples back.
#[derive(Debug, Clone, Copy)]
pub struct Percentile<T> {
    pub value: T,
    pub samples: usize,
    pub above: usize,
}

/// Nearest-rank `p`-th percentile (0 < p <= 100) of `values`.
pub fn percentile<T: Copy + PartialOrd>(values: &[T], p: f64) -> Percentile<T> {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let value = v[rank.min(v.len()) - 1];
    let above = v.len() - v.partition_point(|&x| x <= value);
    Percentile {
        value,
        samples: v.len(),
        above,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // Clamped positions extrapolate: quantiles([1, 2], n=4) ==
        // [0.75, 1.5, 2.25]; quantiles([5, 1, 2, 9], n=4) == [1.25, 3.5, 8.0].
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[5.0, 1.0, 2.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.5, 8.0));
    }

    #[test]
    fn percentile_is_exact_and_counts_the_tail() {
        let v: Vec<u64> = (1..=1000).collect();
        let p = percentile(&v, 99.0);
        assert_eq!((p.value, p.samples, p.above), (990, 1000, 10));
        let p = percentile(&v, 50.0);
        assert_eq!(p.value, 500);
        // Alternating values: the true median is the low one.
        let alt: Vec<u64> = (0..2000)
            .map(|i| if i % 2 == 0 { 10 } else { 1000 })
            .collect();
        assert_eq!(percentile(&alt, 50.0).value, 10);
    }
}
