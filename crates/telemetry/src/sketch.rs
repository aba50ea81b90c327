//! Deterministic mergeable quantile sketches.
//!
//! A [`QuantileSketch`] summarizes a stream of non-negative samples into a
//! fixed-layout log-bucket digest: every positive finite value lands in
//! the bucket `[2^(k/32) * 2^e, 2^((k+1)/32) * 2^e)` selected purely from
//! its IEEE-754 bit pattern (no `log2` call, so the layout is identical
//! on every platform and build). Quantiles are answered by rank-walking
//! the buckets and interpolating linearly inside the covering bucket,
//! which bounds the relative error by one bucket width (`2^(1/32) - 1`,
//! about 2.2%); the exact `min`/`max` clamp the tails so `q = 0` and
//! `q = 1` are exact.
//!
//! Two sketches over the same layout **merge losslessly**: merging is a
//! bucket-wise add (plus min/max/count/sum combination), so
//! `merge(a, b).quantile(q)` is bit-for-bit equal to the quantile of a
//! sketch fed the concatenated sample stream — the property that makes
//! per-shard digests composable into a run-level ledger, and the one the
//! property tests pin down.
//!
//! The JSON encoding ([`QuantileSketch::to_json`] /
//! [`QuantileSketch::from_json`]) is sparse (only occupied buckets) and
//! round-trips losslessly, so ledgers can be diffed across runs without
//! access to the raw samples.

use std::collections::BTreeMap;

use crate::json::Json;

/// Sub-buckets per power of two (the bucket width is `2^(1/32)`).
pub const SUB_BUCKETS: i32 = 32;

/// Smallest binary exponent with its own buckets; positive values below
/// `2^E_MIN` fall into the shared underflow bucket.
pub const E_MIN: i32 = -512;

/// One past the largest binary exponent with its own buckets; values at
/// `2^E_MAX` or above fall into the shared overflow bucket.
pub const E_MAX: i32 = 512;

/// Schema tag of the bucket layout, embedded in the JSON encoding so a
/// diff never silently compares incompatible digests.
pub const LAYOUT: &str = "log2x32";

/// The 32 sub-bucket thresholds `2^(k/32)` for mantissas in `[1, 2)`,
/// as exactly-rounded `f64` constants. The layout is *defined* by these
/// constants, not by a runtime `exp2`, so bucket selection never depends
/// on a platform's libm.
#[allow(clippy::approx_constant)] // 2^(16/32) IS sqrt(2); the table is uniform on purpose
const MANTISSA_THRESHOLDS: [f64; 32] = [
    1.0,
    1.0218971486541166,
    1.0442737824274138,
    1.0671404006768237,
    1.0905077326652577,
    1.1143867425958924,
    1.1387886347566916,
    1.1637248587775775,
    1.189207115002721,
    1.215247359980469,
    1.241857812073484,
    1.2690509571917332,
    1.2968395546510096,
    1.3252366431597413,
    1.3542555469368927,
    1.383909881963832,
    1.4142135623730951,
    1.4451808069770467,
    1.4768261459394993,
    1.5091644275934228,
    1.5422108254079407,
    1.5759808451078865,
    1.6104903319492543,
    1.645755478153965,
    1.681792830507429,
    1.718619298122478,
    1.7562521603732995,
    1.7947090750031072,
    1.8340080864093424,
    1.8741676341103,
    1.9152065613971474,
    1.9571441241754002,
];

/// A deterministic, mergeable log-bucket quantile digest.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantileSketch {
    /// Occupied regular buckets: index `e * 32 + k` → count.
    buckets: BTreeMap<i32, u64>,
    /// Observations that clamped to zero (non-positive or non-finite).
    zero: u64,
    /// Positive observations below `2^E_MIN`.
    low: u64,
    /// Observations at or above `2^E_MAX`.
    high: u64,
    /// Total observations.
    count: u64,
    /// Sum of clamped observations.
    sum: f64,
    /// Smallest clamped observation (meaningless when `count == 0`).
    min: f64,
    /// Largest clamped observation.
    max: f64,
}

/// `2^e` for `e` in `[-1022, 1023]`, built from bits (exact, no libm).
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Regular-bucket index of a positive finite `v` in `[2^E_MIN, 2^E_MAX)`,
/// derived from the IEEE-754 representation.
fn bucket_index(v: f64) -> i32 {
    debug_assert!(v.is_finite() && v > 0.0);
    let bits = v.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i32 - 1023;
    debug_assert!((E_MIN..E_MAX).contains(&e), "exponent {e} out of layout");
    let mantissa = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    // Largest k with threshold <= mantissa. partition_point is a binary
    // search over the 32 constants.
    let k = MANTISSA_THRESHOLDS.partition_point(|&t| t <= mantissa) as i32 - 1;
    e * SUB_BUCKETS + k
}

/// Value bounds `[lo, hi)` of regular bucket `idx`.
fn bucket_bounds(idx: i32) -> (f64, f64) {
    let e = idx.div_euclid(SUB_BUCKETS);
    let k = idx.rem_euclid(SUB_BUCKETS);
    let lo = pow2(e) * MANTISSA_THRESHOLDS[k as usize];
    let hi = if k + 1 == SUB_BUCKETS {
        pow2(e + 1)
    } else {
        pow2(e) * MANTISSA_THRESHOLDS[(k + 1) as usize]
    };
    (lo, hi)
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch::default()
    }

    /// A sketch of every value in `values` (observation order does not
    /// affect buckets, count, min, or max; it can affect `sum` in the
    /// last ulp, like any floating-point accumulation).
    pub fn of(values: impl IntoIterator<Item = f64>) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for v in values {
            s.observe(v);
        }
        s
    }

    /// Records one observation. Negative and non-finite values clamp to
    /// zero (matching [`crate::LogHistogram::observe`]).
    pub fn observe(&mut self, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        if v == 0.0 {
            self.zero += 1;
        } else if v < pow2(E_MIN) {
            self.low += 1;
        } else if v >= pow2(E_MAX - 1) * 2.0 {
            self.high += 1;
        } else {
            *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Folds `other` into `self`: bucket-wise count addition plus
    /// min/max/count/sum combination. Quantiles of the merged sketch are
    /// bit-identical to a sketch of the concatenated streams.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.low += other.low;
        self.high += other.high;
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// A new sketch holding the merge of `self` and `other`, leaving both
    /// inputs untouched (the non-mutating sibling of
    /// [`QuantileSketch::merge`]).
    pub fn merged(&self, other: &QuantileSketch) -> QuantileSketch {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Folds every sketch in `shards` into one digest, **in iteration
    /// order**.
    ///
    /// Bucket counts, `count`, `min`, and `max` are exactly associative
    /// and commutative, so every fold order yields the same quantiles.
    /// The running `sum` is a floating-point accumulation whose last ulp
    /// can depend on fold order; callers that need *byte-identical*
    /// serialized output across arbitrary shard arrival orders (the
    /// campaign warehouse) must therefore pass shards in a canonical
    /// order — sort by shard key first, then call this.
    pub fn merge_all<'a>(shards: impl IntoIterator<Item = &'a QuantileSketch>) -> QuantileSketch {
        let mut out = QuantileSketch::new();
        for s in shards {
            out.merge(s);
        }
        out
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of (clamped) observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact smallest observation, when any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest observation, when any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, when any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The `q`-quantile (`0 <= q <= 1`, clamped) by rank-walking the
    /// buckets and interpolating inside the covering bucket, clamped to
    /// the exact observed `[min, max]`. `None` on an empty sketch.
    ///
    /// Uses the *upper* nearest-rank convention on the continuous rank
    /// `q * (count - 1)` (rounding the rank up), so tail quantiles never
    /// understate: the answer sits within one bucket width of the order
    /// statistic at `ceil(q * (count - 1))` in the sorted sample vector.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The exact extremes are tracked directly; answering them from
        // min/max (rather than bucket interpolation) keeps q = 0 and
        // q = 1 exact.
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        // Zero-based rank of the requested order statistic, rounded up.
        let pos = (q * (self.count - 1) as f64).ceil();

        let mut start = 0u64; // observations before the current bucket
        let take = |c: u64, lo: f64, hi: f64, start: &mut u64| -> Option<f64> {
            if c == 0 {
                return None;
            }
            let end = *start + c;
            if pos < end as f64 || end == self.count {
                // Spread the bucket's c observations evenly across
                // [lo, hi): observation j sits at (j + 0.5) / c.
                let inside = (pos - *start as f64).max(0.0);
                let frac = ((inside + 0.5) / c as f64).min(1.0);
                return Some((lo + (hi - lo) * frac).clamp(self.min, self.max));
            }
            *start = end;
            None
        };

        if let Some(v) = take(self.zero, 0.0, 0.0, &mut start) {
            return Some(v);
        }
        if let Some(v) = take(self.low, 0.0, pow2(E_MIN), &mut start) {
            return Some(v);
        }
        for (&idx, &c) in &self.buckets {
            let (lo, hi) = bucket_bounds(idx);
            if let Some(v) = take(c, lo, hi, &mut start) {
                return Some(v);
            }
        }
        // Only the overflow bucket remains: report the clamped maximum
        // rather than interpolating toward infinity.
        Some(self.max)
    }

    /// Median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Serializes the sketch as a self-describing JSON object with sparse
    /// buckets; [`QuantileSketch::from_json`] inverts it losslessly.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("layout".into(), Json::str(LAYOUT)),
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum)),
            (
                "min".into(),
                Json::Num(if self.count > 0 { self.min } else { 0.0 }),
            ),
            (
                "max".into(),
                Json::Num(if self.count > 0 { self.max } else { 0.0 }),
            ),
            ("zero".into(), Json::Num(self.zero as f64)),
            ("low".into(), Json::Num(self.low as f64)),
            ("high".into(), Json::Num(self.high as f64)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|(&idx, &c)| {
                            Json::Arr(vec![Json::Num(idx as f64), Json::Num(c as f64)])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a sketch serialized by [`QuantileSketch::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed member, a layout
    /// mismatch, or a document no sketch serializes to: a count that is
    /// negative or not an integer, a bucket index outside the layout or
    /// listed twice, buckets and tails that do not sum to `count`, or
    /// `min > max`.
    pub fn from_json(json: &Json) -> Result<QuantileSketch, String> {
        let layout = json
            .get("layout")
            .and_then(Json::as_str)
            .ok_or("sketch: missing layout")?;
        if layout != LAYOUT {
            return Err(format!("sketch: layout {layout:?} != {LAYOUT:?}"));
        }
        let num = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("sketch: missing number {key:?}"))
        };
        let tally = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_count)
                .ok_or_else(|| format!("sketch: {key} is missing or not a count"))
        };
        let count = tally("count")?;
        let (zero, low, high) = (tally("zero")?, tally("low")?, tally("high")?);
        let mut buckets = BTreeMap::new();
        let mut listed = zero as u128 + low as u128 + high as u128;
        for item in json
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or("sketch: missing buckets")?
        {
            let pair = item.as_array().ok_or("sketch: bucket is not a pair")?;
            match pair {
                [idx, c] => {
                    let idx = idx.as_f64().ok_or("sketch: bad bucket index")?;
                    let range = f64::from(E_MIN * SUB_BUCKETS)..f64::from(E_MAX * SUB_BUCKETS);
                    if !(idx.fract() == 0.0 && range.contains(&idx)) {
                        return Err(format!("sketch: bucket index {idx} outside the layout"));
                    }
                    let c = c.as_count().ok_or("sketch: bucket count is not a count")?;
                    if buckets.insert(idx as i32, c).is_some() {
                        return Err(format!("sketch: bucket {idx} listed twice"));
                    }
                    listed += c as u128;
                }
                _ => return Err("sketch: bucket is not a pair".into()),
            }
        }
        if listed != count as u128 {
            return Err(format!(
                "sketch: buckets and tails hold {listed} observations, count is {count}"
            ));
        }
        let (min, max) = if count > 0 {
            (num("min")?, num("max")?)
        } else {
            (0.0, 0.0)
        };
        if min > max {
            return Err(format!("sketch: min {min} > max {max}"));
        }
        Ok(QuantileSketch {
            buckets,
            zero,
            low,
            high,
            count,
            sum: num("sum")?,
            min,
            max,
        })
    }
}

/// `value` as a count: a non-negative integer that `f64` holds exactly.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_answers_nothing() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_observation_is_exact_at_every_quantile() {
        let s = QuantileSketch::of([3.7]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(3.7), "q={q}");
        }
        assert_eq!(s.min(), Some(3.7));
        assert_eq!(s.max(), Some(3.7));
    }

    #[test]
    fn quantiles_track_sorted_ground_truth() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = QuantileSketch::of(values.iter().copied());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let truth = rbv_quantile_truth(&values, q);
            let got = s.quantile(q).unwrap();
            let rel = (got - truth).abs() / truth;
            // One bucket width (2.2%) plus up to one order statistic of
            // rank rounding.
            assert!(rel <= 0.033, "q={q}: sketch {got} vs truth {truth}");
        }
        // Extremes are exact thanks to the min/max clamp.
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(1000.0));
    }

    /// Same convention as `rbv_core::stats::percentile` (re-implemented
    /// here: telemetry must not depend on rbv-core).
    fn rbv_quantile_truth(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    #[test]
    fn merge_equals_concatenation() {
        let a_vals: Vec<f64> = (1..200).map(|i| (i * 7 % 97) as f64 + 0.25).collect();
        let b_vals: Vec<f64> = (1..300).map(|i| (i * 13 % 211) as f64 * 3.5).collect();
        let mut merged = QuantileSketch::of(a_vals.iter().copied());
        merged.merge(&QuantileSketch::of(b_vals.iter().copied()));
        let concat = QuantileSketch::of(a_vals.iter().chain(&b_vals).copied());
        assert_eq!(merged.buckets, concat.buckets);
        assert_eq!(merged.count(), concat.count());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), concat.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merged_and_merge_all_agree_with_merge() {
        let a = QuantileSketch::of((1..50).map(|i| i as f64 * 0.7));
        let b = QuantileSketch::of((1..80).map(|i| (i * i) as f64 * 0.01));
        let c = QuantileSketch::of([1e6, 2e6, 3.5]);
        let mut reference = a.clone();
        reference.merge(&b);
        reference.merge(&c);
        assert_eq!(a.merged(&b).merged(&c), reference);
        assert_eq!(QuantileSketch::merge_all([&a, &b, &c]), reference);
        // Inputs are untouched by the non-mutating forms.
        assert_eq!(a, QuantileSketch::of((1..50).map(|i| i as f64 * 0.7)));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = QuantileSketch::of([1.0, 2.0, 3.0]);
        let before = s.clone();
        s.merge(&QuantileSketch::new());
        assert_eq!(s, before);
        let mut empty = QuantileSketch::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn degenerate_values_clamp_to_zero_bucket() {
        let s = QuantileSketch::of([-4.0, f64::NAN, f64::INFINITY, 0.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert_eq!(s.max(), Some(0.0));
    }

    #[test]
    fn extreme_magnitudes_use_under_and_overflow_buckets() {
        let tiny = pow2(E_MIN) / 4.0;
        let huge = f64::MAX;
        let s = QuantileSketch::of([tiny, 1.0, huge]);
        assert_eq!(s.count(), 3);
        // The overflow tail reports the clamped max, never NaN/inf.
        let q = s.quantile(1.0).unwrap();
        assert_eq!(q, huge);
        assert!(s.quantile(0.0).unwrap() <= pow2(E_MIN));
    }

    #[test]
    fn bucket_bounds_are_consistent_with_indexing() {
        for v in [0.001, 0.5, 1.0, 1.5, 3.25, 1000.0, 1e9, 1e-9] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
            assert!(hi / lo < 1.0221, "bucket [{lo}, {hi}) too wide");
        }
    }

    #[test]
    fn json_round_trips_bit_for_bit() {
        let s = QuantileSketch::of((1..500).map(|i| (i as f64).powf(1.5) * 0.031));
        let text = s.to_json().to_string_compact();
        let back = QuantileSketch::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json().to_string_compact(), text);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        let s = QuantileSketch::of([1.0]);
        let mut wrong_layout = s.to_json();
        if let Json::Obj(members) = &mut wrong_layout {
            members[0].1 = Json::str("log2x16");
        }
        assert!(QuantileSketch::from_json(&wrong_layout).is_err());
        assert!(QuantileSketch::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(QuantileSketch::from_json(
            &Json::parse(
                "{\"layout\":\"log2x32\",\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\
             \"zero\":0,\"low\":0,\"high\":0,\"buckets\":[[1]]}"
            )
            .unwrap()
        )
        .is_err());
    }
}
