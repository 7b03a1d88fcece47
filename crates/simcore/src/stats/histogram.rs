//! A weighted histogram over fixed buckets.

/// A histogram over a fixed set of named buckets where each record carries a
/// weight (e.g. time spent at a frequency step).
///
/// ```
/// use bl_simcore::stats::WeightedHistogram;
/// let mut h = WeightedHistogram::new(3);
/// h.record(0, 2.0);
/// h.record(2, 6.0);
/// assert_eq!(h.share(2), 0.75);
/// ```
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WeightedHistogram {
    weights: Vec<f64>,
}

impl WeightedHistogram {
    /// Creates a weighted histogram with `n` buckets, all zero.
    pub fn new(n: usize) -> Self {
        WeightedHistogram {
            weights: vec![0.0; n],
        }
    }

    /// Adds `weight` to bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn record(&mut self, i: usize, weight: f64) {
        self.weights[i] += weight;
    }

    /// Total weight across buckets.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Weight in bucket `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Fraction of the total weight in bucket `i` (0 if the histogram is
    /// empty).
    pub fn share(&self, i: usize) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.weights[i] / t
        }
    }

    /// All bucket shares, in order.
    pub fn shares(&self) -> Vec<f64> {
        let t = self.total();
        if t <= 0.0 {
            vec![0.0; self.weights.len()]
        } else {
            self.weights.iter().map(|w| w / t).collect()
        }
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> usize {
        self.weights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_shares_sum_to_one() {
        let mut h = WeightedHistogram::new(4);
        h.record(0, 1.0);
        h.record(1, 2.0);
        h.record(3, 1.0);
        let s: f64 = h.shares().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(h.share(1), 0.5);
        assert_eq!(h.n_buckets(), 4);
    }

    #[test]
    fn weighted_empty_is_zero_shares() {
        let h = WeightedHistogram::new(3);
        assert_eq!(h.shares(), vec![0.0; 3]);
        assert_eq!(h.share(0), 0.0);
        assert_eq!(h.total(), 0.0);
    }
}
