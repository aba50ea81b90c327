//! Bit-identity gate for the classification path's kernels: the
//! anti-diagonal penalty-DTW kernel and the selection-based percentile.
//!
//! `reference` holds, as test-only copies of code the kernel replaced:
//!
//! * the row-at-a-time DP and the prune cascade with its per-column
//!   abandon (the cascade's DP stage is a function argument, so it runs
//!   with either DP below);
//! * the column-blocked DP (`blocked`), four columns per pass;
//! * the row-at-a-time Sakoe–Chiba `dtw_banded`;
//! * the sort-based `percentile`.
//!
//! The DTW tests sweep every length pair in `0..=70` per side (every
//! residue mod 4, the 1×n and n×1 shapes, the empty conventions), draw
//! values from pools of finite numbers, `±∞`, NaN and `±1e308` (whose
//! differences overflow), use the penalties 0.0, −0.0, 0.5, 1e300 and
//! `+∞`, and require:
//!
//! * `dtw_distance_with_penalty` equal to both full references to the
//!   bit, or NaN on all sides;
//! * `dtw_distance_with_penalty_pruned` equal to the reference cascade,
//!   with either DP stage, at cutoffs at the true distance, one ulp below
//!   it and one ulp above it;
//! * `nearest_series_with_stats` returning the same nearest candidate and
//!   the same `PruneStats` as the reference scan with either DP stage;
//! * `dtw_banded` equal to the reference at bands `1..=max(m, n) + 1`.
//!
//! `percentile` must return the sort reference's bits on inputs with
//! duplicates, ±0.0, NaN of either sign and `±∞`, at q = 0, 1 and
//! interior quantiles.

use rbv_core::distance::{
    dtw_banded, dtw_distance_with_penalty, dtw_distance_with_penalty_pruned,
    nearest_series_with_stats, PruneStats,
};
use rbv_core::stats::percentile;

#[allow(clippy::all)]
mod reference {
    use rbv_core::distance::PruneStats;

    pub fn dtw_distance_with_penalty(x: &[f64], y: &[f64], penalty: f64) -> f64 {
        assert!(penalty >= 0.0, "penalty must be nonnegative");
        if x.is_empty() || y.is_empty() {
            return (x.len() + y.len()) as f64 * penalty;
        }
        // Keep the shorter series as the row for O(min) space.
        let (rows, cols) = if x.len() <= y.len() { (x, y) } else { (y, x) };
        let m = rows.len();

        // prev[i] = D[j-1][i], cur[i] = D[j][i]; D over (col index j, row i).
        let mut prev = vec![f64::INFINITY; m];
        let mut cur = vec![f64::INFINITY; m];

        for (j, &cv) in cols.iter().enumerate() {
            std::mem::swap(&mut prev, &mut cur);
            for (i, &rv) in rows.iter().enumerate() {
                let local = (cv - rv).abs();
                let best = if i == 0 && j == 0 {
                    0.0
                } else {
                    let diag = if i > 0 && j > 0 {
                        prev[i - 1]
                    } else {
                        f64::INFINITY
                    };
                    let up = if i > 0 {
                        cur[i - 1] + penalty
                    } else {
                        f64::INFINITY
                    };
                    let left = if j > 0 {
                        prev[i] + penalty
                    } else {
                        f64::INFINITY
                    };
                    diag.min(up).min(left)
                };
                cur[i] = best + local;
            }
        }
        cur[m - 1]
    }

    fn band_envelope(y: &[f64], m: usize, band: usize) -> (Vec<f64>, Vec<f64>) {
        let n = y.len();
        let mut lo = vec![0.0; m];
        let mut hi = vec![0.0; m];
        let mut minq: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut maxq: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut pushed = 0usize;
        for i in 0..m {
            let end = (i + band).min(n - 1);
            while pushed <= end {
                while minq.back().is_some_and(|&b| y[b] >= y[pushed]) {
                    minq.pop_back();
                }
                minq.push_back(pushed);
                while maxq.back().is_some_and(|&b| y[b] <= y[pushed]) {
                    maxq.pop_back();
                }
                maxq.push_back(pushed);
                pushed += 1;
            }
            let start = i.saturating_sub(band);
            while minq.front().is_some_and(|&f| f < start) {
                minq.pop_front();
            }
            while maxq.front().is_some_and(|&f| f < start) {
                maxq.pop_front();
            }
            lo[i] = minq.front().map_or(f64::INFINITY, |&f| y[f]);
            hi[i] = maxq.front().map_or(f64::NEG_INFINITY, |&f| y[f]);
        }
        (lo, hi)
    }

    pub enum Settled {
        Kim,
        Length,
        Keogh,
        Abandon,
        Full(f64),
    }

    impl Settled {
        fn charge(&self, stats: &mut PruneStats) {
            stats.candidates += 1;
            match self {
                Settled::Kim => stats.lb_kim += 1,
                Settled::Length => stats.length_penalty += 1,
                Settled::Keogh => stats.lb_keogh += 1,
                Settled::Abandon => stats.early_abandon += 1,
                Settled::Full(_) => stats.full_dp += 1,
            }
        }
    }

    pub fn dtw_pruned_staged(x: &[f64], y: &[f64], penalty: f64, cutoff: f64, dp: Dp) -> Settled {
        if x.is_empty() || y.is_empty() {
            let d = (x.len() + y.len()) as f64 * penalty;
            return if d > cutoff {
                Settled::Length
            } else {
                Settled::Full(d)
            };
        }
        let (m, n) = (x.len(), y.len());
        let lendiff = m.abs_diff(n) as f64 * penalty;
        // LB_Kim: the cells (0, 0) and (m-1, n-1) lie on every warp path.
        let kim = if m == 1 && n == 1 {
            (x[0] - y[0]).abs()
        } else {
            (x[0] - y[0]).abs() + (x[m - 1] - y[n - 1]).abs()
        };
        if kim > cutoff {
            return Settled::Kim;
        }
        if kim + lendiff > cutoff {
            return Settled::Length;
        }
        // LB_Keogh within the deviation band implied by the cutoff.
        if penalty > 0.0 && cutoff >= 0.0 {
            let ratio = cutoff / penalty;
            if ratio < (m + n) as f64 {
                let band = ratio as usize;
                if m.abs_diff(n) <= band {
                    let (lo, hi) = band_envelope(y, m, band);
                    let keogh: f64 = x
                        .iter()
                        .zip(lo.iter().zip(&hi))
                        .map(|(&v, (&l, &h))| {
                            if v > h {
                                v - h
                            } else if v < l {
                                l - v
                            } else {
                                0.0
                            }
                        })
                        .sum();
                    if keogh + lendiff > cutoff {
                        return Settled::Keogh;
                    }
                }
            }
        }
        match dp(x, y, penalty, cutoff) {
            Some(d) => Settled::Full(d),
            None => Settled::Abandon,
        }
    }

    /// A cascade DP stage: `None` once a whole column exceeds the cutoff.
    pub type Dp = fn(&[f64], &[f64], f64, f64) -> Option<f64>;

    pub fn row_dp(x: &[f64], y: &[f64], penalty: f64, cutoff: f64) -> Option<f64> {
        // Full-width DP, mirroring dtw_distance_with_penalty cell for cell so
        // a completed run returns the exact same bits.
        let (rows, cols) = if x.len() <= y.len() { (x, y) } else { (y, x) };
        let m = rows.len();
        let mut prev = vec![f64::INFINITY; m];
        let mut cur = vec![f64::INFINITY; m];

        for (j, &cv) in cols.iter().enumerate() {
            std::mem::swap(&mut prev, &mut cur);
            let mut colmin = f64::INFINITY;
            for (i, &rv) in rows.iter().enumerate() {
                let local = (cv - rv).abs();
                let best = if i == 0 && j == 0 {
                    0.0
                } else {
                    let diag = if i > 0 && j > 0 {
                        prev[i - 1]
                    } else {
                        f64::INFINITY
                    };
                    let up = if i > 0 {
                        cur[i - 1] + penalty
                    } else {
                        f64::INFINITY
                    };
                    let left = if j > 0 {
                        prev[i] + penalty
                    } else {
                        f64::INFINITY
                    };
                    diag.min(up).min(left)
                };
                cur[i] = best + local;
                colmin = colmin.min(cur[i]);
            }
            // Every warp path to the final cell crosses column j, and all later
            // additions (locals, penalties) are nonnegative, so once the whole
            // column exceeds the cutoff the final distance must too.
            if colmin > cutoff {
                return None;
            }
        }
        Some(cur[m - 1])
    }

    pub fn dtw_distance_with_penalty_pruned(
        x: &[f64],
        y: &[f64],
        penalty: f64,
        cutoff: f64,
        dp: Dp,
    ) -> Option<f64> {
        assert!(penalty >= 0.0, "penalty must be nonnegative");
        assert!(!cutoff.is_nan(), "cutoff must not be NaN");
        match dtw_pruned_staged(x, y, penalty, cutoff, dp) {
            Settled::Full(d) => Some(d),
            _ => None,
        }
    }

    pub fn nearest_series_with_stats<S: AsRef<[f64]>>(
        query: &[f64],
        candidates: &[S],
        penalty: f64,
        dp: Dp,
    ) -> (Option<(usize, f64)>, PruneStats) {
        assert!(penalty >= 0.0, "penalty must be nonnegative");
        let mut stats = PruneStats::default();
        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in candidates.iter().enumerate() {
            match best {
                None => {
                    best = Some((i, dtw_distance_with_penalty(query, cand.as_ref(), penalty)));
                    stats.candidates += 1;
                    stats.full_dp += 1;
                }
                Some((_, b)) => {
                    let settled = dtw_pruned_staged(query, cand.as_ref(), penalty, b, dp);
                    settled.charge(&mut stats);
                    if let Settled::Full(d) = settled {
                        if d < b {
                            best = Some((i, d));
                        }
                    }
                }
            }
        }
        (best, stats)
    }

    pub fn dtw_banded(x: &[f64], y: &[f64], penalty: f64, band: usize) -> f64 {
        assert!(penalty >= 0.0, "penalty must be nonnegative");
        assert!(band > 0, "band must be at least 1");
        if x.is_empty() || y.is_empty() {
            return (x.len() + y.len()) as f64 * penalty;
        }
        let (rows, cols) = if x.len() <= y.len() { (x, y) } else { (y, x) };
        let m = rows.len();
        let n = cols.len();
        // Rescaled diagonal: row index ~ j * m / n.
        let mut prev = vec![f64::INFINITY; m];
        let mut cur = vec![f64::INFINITY; m];

        for (j, &cv) in cols.iter().enumerate() {
            std::mem::swap(&mut prev, &mut cur);
            cur.fill(f64::INFINITY);
            let center = j * m / n;
            let lo = center.saturating_sub(band);
            let hi = (center + band).min(m - 1);
            for i in lo..=hi {
                let rv = rows[i];
                let local = (cv - rv).abs();
                let best = if i == 0 && j == 0 {
                    0.0
                } else {
                    let diag = if i > 0 && j > 0 {
                        prev[i - 1]
                    } else {
                        f64::INFINITY
                    };
                    let up = if i > 0 {
                        cur[i - 1] + penalty
                    } else {
                        f64::INFINITY
                    };
                    let left = if j > 0 {
                        prev[i] + penalty
                    } else {
                        f64::INFINITY
                    };
                    diag.min(up).min(left)
                };
                cur[i] = best + local;
            }
        }
        cur[m - 1]
    }

    pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
    }

    /// The column-blocked kernel: four columns per pass over the rows.
    pub mod blocked {
        pub fn dtw_dp(x: &[f64], y: &[f64], penalty: f64, cutoff: f64) -> Option<f64> {
            // Keep the shorter series as the row for O(min) space.
            let (rows, cols) = if x.len() <= y.len() { (x, y) } else { (y, x) };
            // Finite inputs keep every DP value NaN-free (and no DP value is ever
            // −0.0), so the compare-select min returns the same bits as f64::min.
            if rows.iter().chain(cols).all(|v| v.is_finite()) {
                dtw_columns(rows, cols, penalty, cutoff, select_min)
            } else {
                dtw_columns(rows, cols, penalty, cutoff, f64::min)
            }
        }

        fn select_min(a: f64, b: f64) -> f64 {
            if a < b {
                a
            } else {
                b
            }
        }

        fn dtw_columns(
            rows: &[f64],
            cols: &[f64],
            penalty: f64,
            cutoff: f64,
            min: impl Fn(f64, f64) -> f64 + Copy,
        ) -> Option<f64> {
            let mut d = vec![f64::INFINITY; rows.len() + 1];
            d[0] = 0.0;
            let mut blocks = cols.chunks_exact(4);
            for block in &mut blocks {
                let block = [block[0], block[1], block[2], block[3]];
                if sweep(block, rows, penalty, &mut d, min)
                    .iter()
                    .any(|&m| m > cutoff)
                {
                    return None;
                }
            }
            for &col in blocks.remainder() {
                if sweep([col], rows, penalty, &mut d, min)[0] > cutoff {
                    return None;
                }
            }
            Some(d[rows.len()])
        }

        #[inline(always)]
        fn sweep<const B: usize>(
            cols: [f64; B],
            rows: &[f64],
            penalty: f64,
            d: &mut [f64],
            min: impl Fn(f64, f64) -> f64,
        ) -> [f64; B] {
            let mut diag = std::mem::replace(&mut d[0], f64::INFINITY);
            let mut up = [f64::INFINITY; B];
            let mut colmin = [f64::INFINITY; B];
            for (&rv, slot) in rows.iter().zip(&mut d[1..]) {
                // Column k's left and diag are column k − 1's values at this row
                // and the row above; column 0 takes them from the buffer.
                let mut left = *slot;
                let mut diag_k = std::mem::replace(&mut diag, left);
                for k in 0..B {
                    let best = min(min(diag_k, left + penalty), up[k] + penalty);
                    let cell = best + (cols[k] - rv).abs();
                    diag_k = up[k];
                    up[k] = cell;
                    left = cell;
                    colmin[k] = min(colmin[k], cell);
                }
                *slot = left;
            }
            colmin
        }
    }
}

/// The cascade's DP stage in both reference forms.
const DPS: [(&str, reference::Dp); 2] = [
    ("row", reference::row_dp),
    ("blocked", reference::blocked::dtw_dp),
];

/// Penalties: zero, negative zero (passes the `>= 0` check), a typical
/// value, one whose sums overflow, and infinity.
const PENALTIES: [f64; 5] = [0.0, -0.0, 0.5, 1e300, f64::INFINITY];

/// Which special values a generated series may carry.
#[derive(Clone, Copy, Debug)]
enum Pool {
    /// Finite values only (the compare-select instantiation).
    Finite,
    /// Finite plus `±1e308`, so differences and sums overflow to `+∞`
    /// while every input stays finite.
    Huge,
    /// Finite plus `±∞` (`∞ − ∞` makes NaN cells).
    Infinite,
    /// Finite plus NaN.
    Nan,
    /// Any of the above.
    Mixed,
}

const POOLS: [Pool; 5] = [
    Pool::Finite,
    Pool::Huge,
    Pool::Infinite,
    Pool::Nan,
    Pool::Mixed,
];

/// Deterministic case generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn special(&mut self, pool: Pool) -> f64 {
        const HUGE: [f64; 2] = [1e308, -1e308];
        const INF: [f64; 2] = [f64::INFINITY, f64::NEG_INFINITY];
        match pool {
            Pool::Finite => self.finite(),
            Pool::Huge => HUGE[self.below(2)],
            Pool::Infinite => INF[self.below(2)],
            Pool::Nan => f64::NAN,
            Pool::Mixed => match self.below(5) {
                0 | 1 => HUGE[self.below(2)],
                2 | 3 => INF[self.below(2)],
                _ => f64::NAN,
            },
        }
    }

    /// Finite values in `[-5, 10)`, with repeats so ties occur.
    fn finite(&mut self) -> f64 {
        if self.below(8) == 0 {
            return 1.0;
        }
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 15.0 - 5.0
    }

    /// A series of `len` values from `pool`: finite values with zero to
    /// two specials at random positions.
    fn series(&mut self, len: usize, pool: Pool) -> Vec<f64> {
        let mut s: Vec<f64> = (0..len).map(|_| self.finite()).collect();
        if len > 0 {
            for _ in 0..self.below(3) {
                let at = self.below(len);
                s[at] = self.special(pool);
            }
        }
        s
    }
}

/// Equal bits, or NaN on both sides.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same_opt(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => same(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// Cutoffs at the true distance, one ulp below and one ulp above it.
fn cutoffs(d: f64) -> Vec<f64> {
    if d.is_nan() {
        return vec![0.0, f64::INFINITY];
    }
    vec![d, d.next_down(), d.next_up()]
}

/// Checks the full DP and the pruned cascade for one pair.
fn check_pair(x: &[f64], y: &[f64], penalty: f64) {
    let want = reference::dtw_distance_with_penalty(x, y, penalty);
    let got = dtw_distance_with_penalty(x, y, penalty);
    let blocked = if x.is_empty() || y.is_empty() {
        want
    } else {
        reference::blocked::dtw_dp(x, y, penalty, f64::INFINITY).unwrap()
    };
    assert!(
        same(got, want) && same(got, blocked),
        "full DP {got:e} != references {want:e} (row), {blocked:e} (blocked): \
         {}x{} penalty {penalty:e}\nx = {x:?}\ny = {y:?}",
        x.len(),
        y.len()
    );
    for cutoff in cutoffs(want) {
        let got = dtw_distance_with_penalty_pruned(x, y, penalty, cutoff);
        for (name, dp) in DPS {
            let want = reference::dtw_distance_with_penalty_pruned(x, y, penalty, cutoff, dp);
            assert!(
                same_opt(got, want),
                "pruned {got:?} != {name} reference {want:?}: {}x{} penalty {penalty:e} \
                 cutoff {cutoff:e}\nx = {x:?}\ny = {y:?}",
                x.len(),
                y.len()
            );
        }
    }
}

/// Checks the banded DP for one pair at one band.
fn check_banded(x: &[f64], y: &[f64], penalty: f64, band: usize) {
    let want = reference::dtw_banded(x, y, penalty, band);
    let got = dtw_banded(x, y, penalty, band);
    assert!(
        same(got, want),
        "banded {got:e} != reference {want:e}: {}x{} penalty {penalty:e} band {band}\n\
         x = {x:?}\ny = {y:?}",
        x.len(),
        y.len()
    );
}

/// Checks the nearest-neighbor scan, result and stage counters, against
/// the reference scan with either DP stage, and returns the counters.
fn check_scan(query: &[f64], candidates: &[Vec<f64>], penalty: f64) -> PruneStats {
    let (got, got_stats) = nearest_series_with_stats(query, candidates, penalty);
    for (name, dp) in DPS {
        let (want, want_stats): (Option<(usize, f64)>, PruneStats) =
            reference::nearest_series_with_stats(query, candidates, penalty, dp);
        let same_best = match (got, want) {
            (Some((gi, gd)), Some((wi, wd))) => gi == wi && same(gd, wd),
            (None, None) => true,
            _ => false,
        };
        assert!(
            same_best && got_stats == want_stats,
            "scan {got:?} {got_stats:?} != {name} reference {want:?} {want_stats:?}: \
             penalty {penalty:e}\nquery = {query:?}\ncandidates = {candidates:?}"
        );
    }
    got_stats
}

#[test]
fn every_length_pair_is_bit_identical_to_reference() {
    let mut gen = Gen(0x5EED_D7A1);
    for m in 0..=70 {
        for n in 0..=70 {
            let pool = POOLS[gen.below(POOLS.len())];
            let penalty = PENALTIES[gen.below(PENALTIES.len())];
            let x = gen.series(m, pool);
            let y = gen.series(n, pool);
            check_pair(&x, &y, penalty);
        }
    }
}

#[test]
fn every_pool_and_penalty_is_bit_identical_to_reference() {
    let mut gen = Gen(0xB17_1DE7);
    // Every residue mod 4 of the longer side, plus the 1×n and n×1 shapes.
    let shapes = [
        (1, 1),
        (1, 9),
        (9, 1),
        (1, 70),
        (70, 1),
        (5, 8),
        (6, 9),
        (7, 10),
        (8, 11),
        (23, 23),
        (47, 131),
    ];
    for pool in POOLS {
        for penalty in PENALTIES {
            for &(m, n) in &shapes {
                for _ in 0..4 {
                    let x = gen.series(m, pool);
                    let y = gen.series(n, pool);
                    check_pair(&x, &y, penalty);
                }
            }
        }
    }
}

#[test]
fn overflowing_finite_inputs_take_the_compare_select_path() {
    // All inputs finite, yet differences overflow to +∞: the DP must still
    // match the reference without ever seeing NaN.
    let x = [1e308, -1e308, 0.0, 1e308];
    let y = [-1e308, 1e308, 1e308, 0.0, -1e308, 2.0];
    for penalty in PENALTIES {
        check_pair(&x, &y, penalty);
        check_pair(&y, &x, penalty);
    }
}

#[test]
fn nearest_scan_matches_reference_stats() {
    let mut gen = Gen(0x5CA9);
    let mut total = PruneStats::default();
    for round in 0..400 {
        let pool = POOLS[round % POOLS.len()];
        let penalty = PENALTIES[(round / POOLS.len()) % PENALTIES.len()];
        let query_len = 1 + gen.below(40);
        let query = gen.series(query_len, pool);
        let count = 1 + gen.below(10);
        let mut candidates: Vec<Vec<f64>> = (0..count)
            .map(|_| {
                let len = gen.below(45);
                // Some candidates are the query nudged, so the running best
                // is small and the later stages get work.
                if gen.below(3) == 0 && len <= query.len() {
                    query[..len].iter().map(|v| v + 0.25).collect()
                } else {
                    gen.series(len, pool)
                }
            })
            .collect();
        // A repeat of the seed candidate meets a cutoff equal to its own
        // distance.
        let again = candidates[0].clone();
        candidates.push(again);
        total.merge(&check_scan(&query, &candidates, penalty));
    }
    // The cases reach every stage of the cascade, the abandon included.
    for (stage, count) in [
        ("lb_kim", total.lb_kim),
        ("length_penalty", total.length_penalty),
        ("lb_keogh", total.lb_keogh),
        ("early_abandon", total.early_abandon),
        ("full_dp", total.full_dp),
    ] {
        assert!(count > 0, "no candidate settled by {stage}: {total:?}");
    }
}

#[test]
fn every_length_pair_and_band_is_bit_identical_to_reference() {
    let mut gen = Gen(0xBA4D_0ED5);
    for m in 0..=70 {
        for n in 0..=70 {
            let pool = POOLS[gen.below(POOLS.len())];
            let penalty = PENALTIES[gen.below(PENALTIES.len())];
            let x = gen.series(m, pool);
            let y = gen.series(n, pool);
            // The narrowest band, one drawn at random and the first one
            // that no longer constrains either series.
            let widest = m.max(n) + 1;
            for band in [1, 1 + gen.below(widest), widest] {
                check_banded(&x, &y, penalty, band);
            }
        }
    }
}

#[test]
fn every_band_is_bit_identical_to_reference() {
    let mut gen = Gen(0xBA4D_0005);
    // Square, thin, transposed and long shapes, each at every band from 1
    // to one past the longer side.
    let shapes = [
        (1, 1),
        (1, 9),
        (9, 1),
        (2, 30),
        (5, 8),
        (8, 5),
        (12, 12),
        (13, 40),
        (23, 23),
        (47, 131),
    ];
    for pool in POOLS {
        for penalty in [0.0, 0.5, 3.0] {
            for &(m, n) in &shapes {
                let x = gen.series(m, pool);
                let y = gen.series(n, pool);
                for band in 1..=m.max(n) + 1 {
                    check_banded(&x, &y, penalty, band);
                }
            }
        }
    }
}

#[test]
fn percentile_matches_the_sort_reference() {
    let mut gen = Gen(0x9E4C_E471);
    let pick = |gen: &mut Gen| match gen.below(10) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => -f64::NAN,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        // Repeats, so order statistics tie.
        6 | 7 => [1.0, 2.5, -3.0][gen.below(3)],
        _ => gen.finite(),
    };
    for round in 0..3_000 {
        // Mostly short inputs, some past the selection's small-slice cutoff.
        let len = if round % 10 == 0 {
            1 + gen.below(3_000)
        } else {
            1 + gen.below(40)
        };
        let special = round % 3 != 0;
        let values: Vec<f64> = (0..len)
            .map(|_| {
                if special {
                    pick(&mut gen)
                } else {
                    gen.finite()
                }
            })
            .collect();
        let interior = (gen.next() >> 11) as f64 / (1u64 << 53) as f64;
        let at_rank = gen.below(len) as f64 / (len - 1).max(1) as f64;
        for q in [0.0, 1.0, 0.5, 0.99, interior, at_rank] {
            let want = reference::percentile(&values, q).map(f64::to_bits);
            let got = percentile(&values, q).map(f64::to_bits);
            assert_eq!(got, want, "q {q} values {values:?}");
        }
    }
    assert_eq!(percentile(&[], 0.5), None);
}
