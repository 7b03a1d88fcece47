//! Order statistics used for every reported figure.

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of unsorted samples; 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Each operation's fastest latency across repetitions of the same
/// work: `reps[r][i]` is operation `i` of repetition `r`. A sample that
/// is not finite (a failed operation) is skipped, and an operation with
/// no finite sample is left out. On the shared host this benchmark was
/// built on, the speed of the same code varies by a factor of two from
/// one second to the next, in a mix that differs from run to run: a
/// median over a run follows that mix, while the fastest of many
/// well-spaced repetitions is the operation's cost at the host's fastest
/// speed, which nearly every run reaches. A change to the code still
/// moves it in proportion.
pub fn best_per_op(reps: &[Vec<f64>]) -> Vec<f64> {
    let n = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .filter_map(|i| {
            reps.iter()
                .filter_map(|r| r.get(i).copied())
                .filter(|x| x.is_finite())
                .min_by(f64::total_cmp)
        })
        .collect()
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method)
/// computes them — the spread the benchmark's bounds are checked with.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => (0.0, 0.0),
        1 => (d[0], d[0]),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn best_per_op_takes_each_operations_minimum() {
        let reps = vec![vec![3.0, 5.0, 9.0], vec![4.0, 2.0], vec![6.0, 7.0, 1.0]];
        assert_eq!(best_per_op(&reps), vec![3.0, 2.0, 1.0]);
        let failed = vec![vec![f64::NAN, 5.0], vec![4.0, f64::NAN]];
        assert_eq!(best_per_op(&failed), vec![4.0, 5.0]);
        assert_eq!(best_per_op(&[vec![f64::NAN, 1.0]]), vec![1.0]);
        assert!(best_per_op(&[]).is_empty());
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
