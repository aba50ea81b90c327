//! Statistics used throughout the paper's evaluation.
//!
//! * [`coefficient_of_variation`] — the duration-weighted CoV of Equation 1
//!   (§3.1), used to quantify captured behavior variations (Figure 3).
//! * [`weighted_rmse`] — the duration-weighted root mean square error of
//!   Equation 7 (§5.1), used to score online predictors (Figure 11).
//! * [`percentile`] / [`Histogram`] / [`Cdf`] — the distribution tooling
//!   behind Figures 1, 4, 12 and 13.

/// Duration-weighted coefficient of variation (Equation 1).
///
/// For periods of lengths `t_i` with metric values `x_i` and overall metric
/// `x̄ = Σ t_i x_i / Σ t_i`:
///
/// ```text
/// CoV = sqrt( Σ t_i (x_i - x̄)² / Σ t_i ) / x̄
/// ```
///
/// Returns `None` when there are no periods, total length is zero, or the
/// weighted mean is zero (CoV undefined).
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Examples
///
/// ```
/// use rbv_core::stats::coefficient_of_variation;
///
/// // Constant metric: zero variation.
/// let cov = coefficient_of_variation(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
/// assert!(cov.abs() < 1e-12);
/// ```
pub fn coefficient_of_variation(lengths: &[f64], values: &[f64]) -> Option<f64> {
    assert_eq!(lengths.len(), values.len(), "mismatched slice lengths");
    let total: f64 = lengths.iter().sum();
    if lengths.is_empty() || total <= 0.0 {
        return None;
    }
    let mean: f64 = lengths
        .iter()
        .zip(values)
        .map(|(&t, &x)| t * x)
        .sum::<f64>()
        / total;
    if mean == 0.0 {
        return None;
    }
    let var: f64 = lengths
        .iter()
        .zip(values)
        .map(|(&t, &x)| t * (x - mean) * (x - mean))
        .sum::<f64>()
        / total;
    Some(var.sqrt() / mean)
}

/// Duration-weighted root mean square error (Equation 7).
///
/// Returns `None` when inputs are empty or total length is zero.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn weighted_rmse(lengths: &[f64], actual: &[f64], predicted: &[f64]) -> Option<f64> {
    assert_eq!(lengths.len(), actual.len(), "mismatched slice lengths");
    assert_eq!(lengths.len(), predicted.len(), "mismatched slice lengths");
    let total: f64 = lengths.iter().sum();
    if lengths.is_empty() || total <= 0.0 {
        return None;
    }
    let sse: f64 = lengths
        .iter()
        .zip(actual.iter().zip(predicted))
        .map(|(&t, (&x, &p))| t * (x - p) * (x - p))
        .sum();
    Some((sse / total).sqrt())
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// order statistics. Returns `None` on an empty slice.
///
/// Values are ordered by [`f64::total_cmp`]: −0.0 sorts before +0.0, a
/// NaN with the sign bit clear above `+∞` and one with it set below `−∞`.
/// If either order statistic is NaN the result is NaN. Both come from a
/// selection, not a full sort, in `O(n)` expected time.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    if values.is_empty() {
        return None;
    }
    let mut scratch: Vec<f64> = values.to_vec();
    let pos = q * (scratch.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (_, &mut at_lo, above) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
    // Order statistic `lo + 1` is the least value above position `lo`
    // (there is one whenever hi > lo); values equal under `total_cmp`
    // have equal bits.
    let at_hi = if hi == lo {
        at_lo
    } else {
        above.iter().copied().min_by(f64::total_cmp)?
    };
    Some(at_lo + (at_hi - at_lo) * frac)
}

/// Arithmetic mean; `None` on empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// A fixed-bin-width histogram over a closed range, matching the
/// probability-per-bin presentation of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    bin_width: f64,
    counts: Vec<u64>,
    total: u64,
    below: u64,
    above: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(hi > lo, "empty histogram range");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            lo,
            bin_width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            total: 0,
            below: 0,
            above: 0,
        }
    }

    /// Adds one observation. Out-of-range values are tallied separately
    /// (they count toward probabilities' denominator).
    pub fn add(&mut self, value: f64) {
        self.total += 1;
        if value < self.lo {
            self.below += 1;
            return;
        }
        let idx = ((value - self.lo) / self.bin_width) as usize;
        if idx >= self.counts.len() {
            self.above += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Adds every observation from an iterator.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.add(v);
        }
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Total observations (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterates `(bin_center, probability)` pairs.
    pub fn probabilities(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let denom = self.total.max(1) as f64;
        self.counts.iter().enumerate().map(move |(i, &c)| {
            (
                self.lo + (i as f64 + 0.5) * self.bin_width,
                c as f64 / denom,
            )
        })
    }

    /// The center of the most populated bin; `None` if empty.
    pub fn mode(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let (i, _) = self.counts.iter().enumerate().max_by_key(|&(_, &c)| c)?;
        Some(self.lo + (i as f64 + 0.5) * self.bin_width)
    }

    /// Counts local maxima with at least `min_prob` probability — used to
    /// verify the multimodal TPCC distribution of Figure 1.
    pub fn modes_above(&self, min_prob: f64) -> usize {
        let denom = self.total.max(1) as f64;
        let p: Vec<f64> = self.counts.iter().map(|&c| c as f64 / denom).collect();
        let mut n = 0;
        for i in 0..p.len() {
            let left = if i == 0 { 0.0 } else { p[i - 1] };
            let right = if i + 1 == p.len() { 0.0 } else { p[i + 1] };
            if p[i] >= min_prob && p[i] > left && p[i] >= right {
                n += 1;
            }
        }
        n
    }
}

/// An empirical CDF for the cumulative-probability plots of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds from samples.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn new(mut samples: Vec<f64>) -> Cdf {
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// P(X ≤ x). Zero for an empty CDF.
    pub fn probability_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were supplied.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates the CDF at each point of `xs` (for plotting a series).
    pub fn evaluate(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.probability_at(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cov_of_constant_is_zero() {
        let cov = coefficient_of_variation(&[1.0, 5.0, 2.0], &[3.0, 3.0, 3.0]).unwrap();
        assert!(cov.abs() < 1e-12);
    }

    #[test]
    fn cov_weighted_by_duration() {
        // A brief excursion to 2.0 during a long run at 1.0 barely moves
        // the duration-weighted CoV, unlike the unweighted one.
        let weighted = coefficient_of_variation(&[1000.0, 1.0], &[1.0, 2.0]).unwrap();
        let unweighted = coefficient_of_variation(&[1.0, 1.0], &[1.0, 2.0]).unwrap();
        assert!(
            weighted < unweighted / 3.0,
            "weighted {weighted} vs unweighted {unweighted}"
        );
    }

    #[test]
    fn cov_matches_hand_computation() {
        // t = [1, 1], x = [1, 3]: mean 2, var = (1+1)/2 = 1, cov = 0.5.
        let cov = coefficient_of_variation(&[1.0, 1.0], &[1.0, 3.0]).unwrap();
        assert!((cov - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cov_scale_invariant() {
        let a = coefficient_of_variation(&[2.0, 3.0, 4.0], &[1.0, 2.0, 5.0]).unwrap();
        let b = coefficient_of_variation(&[2.0, 3.0, 4.0], &[10.0, 20.0, 50.0]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn cov_undefined_cases() {
        assert_eq!(coefficient_of_variation(&[], &[]), None);
        assert_eq!(coefficient_of_variation(&[0.0], &[1.0]), None);
        assert_eq!(coefficient_of_variation(&[1.0, 1.0], &[1.0, -1.0]), None); // mean 0
    }

    #[test]
    fn rmse_perfect_prediction_is_zero() {
        let r = weighted_rmse(&[1.0, 2.0], &[3.0, 4.0], &[3.0, 4.0]).unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn rmse_matches_hand_computation() {
        // t=[1,3], err=[2,0]: sqrt(4*1/4) = 1.
        let r = weighted_rmse(&[1.0, 3.0], &[5.0, 1.0], &[3.0, 1.0]).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_empty_is_none() {
        assert_eq!(weighted_rmse(&[], &[], &[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert!((percentile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_order_independent() {
        let a = percentile(&[5.0, 1.0, 3.0], 0.9);
        let b = percentile(&[1.0, 3.0, 5.0], 0.9);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn histogram_probabilities_sum_to_one_in_range() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.extend((0..100).map(|i| (i % 10) as f64 + 0.5));
        let sum: f64 = h.probabilities().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(h.total(), 100);
    }

    #[test]
    fn histogram_out_of_range_dilutes() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(0.25);
        h.add(5.0); // above range
        h.add(-1.0); // below range
        let sum: f64 = h.probabilities().map(|(_, p)| p).sum();
        assert!((sum - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_mode_found() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        h.extend([0.5, 1.5, 1.6, 1.7, 2.5]);
        assert!((h.mode().unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(Histogram::new(0.0, 1.0, 1).mode(), None);
    }

    #[test]
    fn histogram_counts_multimodality() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        // Two clear modes at bins 1 and 7.
        h.extend(std::iter::repeat_n(1.5, 30));
        h.extend(std::iter::repeat_n(7.5, 30));
        h.extend([4.5, 4.6].iter().copied());
        assert_eq!(h.modes_above(0.1), 2);
    }

    #[test]
    #[should_panic(expected = "empty histogram range")]
    fn histogram_bad_range_panics() {
        Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn cdf_step_values() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.probability_at(0.5), 0.0);
        assert_eq!(c.probability_at(1.0), 0.25);
        assert_eq!(c.probability_at(2.5), 0.5);
        assert_eq!(c.probability_at(10.0), 1.0);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn cdf_empty() {
        let c = Cdf::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.probability_at(1.0), 0.0);
    }

    #[test]
    fn cdf_evaluate_is_monotone() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0, 5.0, 4.0]);
        let ys = c.evaluate(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(ys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*ys.last().unwrap(), 1.0);
    }
}
