//! Order statistics and the verdict rule `compare` applies.

use crate::catalog::Better;

/// Linear-interpolated percentile (`p` in `[0, 100]`) of unsorted
/// samples; 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method), which is what the driver uses for its
/// spreads. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    cuts
}

/// Distance between the first and third quartile.
pub fn quartile_distance(values: &[f64]) -> f64 {
    let q = quartiles(values);
    q[2] - q[0]
}

/// Quartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    if q[1] == 0.0 {
        return 0.0;
    }
    (q[2] - q[0]) / q[1].abs()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unresolved,
    Unchanged,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Judges set B (the change) against set A (the parent) for one metric
/// on one workload. Runs pair up in order (`a[i]` with `b[i]`, the
/// alternating pairs).
///
/// - *improved*: B wins at least nine tenths of the pairs (ties count
///   for neither side) and the medians differ, in the better direction,
///   by more than the distance between A's quartiles;
/// - *REGRESSED*: B's median is worse than A's by more than `bound` of
///   A's median;
/// - *unresolved*: either side's spread exceeds `bound`, unless every B
///   run reads better than every A run;
/// - *unchanged* otherwise.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let wins = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (ma, mb) = (median(a), median(b));
    let pairs = a.len().min(b.len());
    let b_wins = (0..pairs).filter(|&i| wins(b[i], a[i])).count();
    let gap = match better {
        Better::Lower => ma - mb,
        Better::Higher => mb - ma,
    };
    if pairs >= 2 && b_wins * 10 >= pairs * 9 && gap > quartile_distance(a) {
        return Verdict::Improved;
    }
    if -gap > bound * ma.abs() {
        return Verdict::Regressed;
    }
    let noisy = (a.len() >= 2 && spread(a) > bound) || (b.len() >= 2 && spread(b) > bound);
    let all_better = a.iter().all(|&x| b.iter().all(|&y| wins(y, x)));
    if noisy && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 95.0) - 3.85).abs() < 1e-12);
    }

    /// Reference values from CPython's `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        let odd = [2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0];
        assert_eq!(quartiles(&odd), [4.0, 5.0, 9.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartile_distance(&ten), 5.5);
        assert_eq!(spread(&ten), 1.0);
    }

    #[test]
    fn verdict_follows_the_bounds() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let same: Vec<f64> = parent.iter().map(|v| v + 0.05).collect();
        assert_eq!(
            verdict(&parent, &same, Better::Lower, 0.25),
            Verdict::Unchanged
        );

        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.25),
            Verdict::Improved
        );
        // The same numbers are a regression when higher is better...
        assert_eq!(
            verdict(&parent, &faster, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // ...but within a wide enough bound they are only "unchanged".
        assert_eq!(
            verdict(&parent, &faster, Better::Higher, 0.25),
            Verdict::Unchanged
        );

        let slower: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.25),
            Verdict::Regressed
        );

        // Wins 8 of 10 pairs only: not an improvement.
        let mut mostly = faster.clone();
        mostly[0] = 150.0;
        mostly[1] = 150.0;
        assert_ne!(
            verdict(&parent, &mostly, Better::Lower, 0.25),
            Verdict::Improved
        );

        // A side noisier than the bound cannot be called unchanged.
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            verdict(&parent, &noisy, Better::Lower, 0.25),
            Verdict::Unresolved
        );
    }
}
