//! Bit-identity gate for the column-blocked penalty-DTW kernel.
//!
//! `reference` holds the row-at-a-time DP and the prune cascade (with its
//! per-column abandon) exactly as they stood before the column-blocked
//! kernel replaced them, copied verbatim minus doc comments. The tests
//! sweep every length pair in `0..=70` per side (every residue mod 4,
//! the 1×n and n×1 shapes, the empty conventions), draw values from
//! pools of finite numbers, `±∞`, NaN and `±1e308` (whose differences
//! overflow), use the penalties 0.0, −0.0, 0.5, 1e300 and `+∞`, and
//! require:
//!
//! * `dtw_distance_with_penalty` equal to the reference to the bit, or
//!   NaN on both sides;
//! * `dtw_distance_with_penalty_pruned` equal to the reference cascade at
//!   cutoffs at the true distance, one ulp below it and one ulp above it;
//! * `nearest_series_with_stats` returning the same nearest candidate and
//!   the same `PruneStats` as the reference scan.

use rbv_core::distance::{
    dtw_distance_with_penalty, dtw_distance_with_penalty_pruned, nearest_series_with_stats,
    PruneStats,
};

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

    pub fn dtw_pruned_staged(x: &[f64], y: &[f64], penalty: f64, cutoff: f64) -> Settled {
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
                return Settled::Abandon;
            }
        }
        Settled::Full(cur[m - 1])
    }

    pub fn dtw_distance_with_penalty_pruned(
        x: &[f64],
        y: &[f64],
        penalty: f64,
        cutoff: f64,
    ) -> Option<f64> {
        assert!(penalty >= 0.0, "penalty must be nonnegative");
        assert!(!cutoff.is_nan(), "cutoff must not be NaN");
        match dtw_pruned_staged(x, y, penalty, cutoff) {
            Settled::Full(d) => Some(d),
            _ => None,
        }
    }

    pub fn nearest_series_with_stats<S: AsRef<[f64]>>(
        query: &[f64],
        candidates: &[S],
        penalty: f64,
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
                    let settled = dtw_pruned_staged(query, cand.as_ref(), penalty, b);
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
}

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
    assert!(
        same(got, want),
        "full DP {got:e} != reference {want:e}: {}x{} penalty {penalty:e}\nx = {x:?}\ny = {y:?}",
        x.len(),
        y.len()
    );
    for cutoff in cutoffs(want) {
        let want = reference::dtw_distance_with_penalty_pruned(x, y, penalty, cutoff);
        let got = dtw_distance_with_penalty_pruned(x, y, penalty, cutoff);
        assert!(
            same_opt(got, want),
            "pruned {got:?} != reference {want:?}: {}x{} penalty {penalty:e} cutoff {cutoff:e}\n\
             x = {x:?}\ny = {y:?}",
            x.len(),
            y.len()
        );
    }
}

/// Checks the nearest-neighbor scan, result and stage counters, and
/// returns the counters.
fn check_scan(query: &[f64], candidates: &[Vec<f64>], penalty: f64) -> PruneStats {
    let (want, want_stats): (Option<(usize, f64)>, PruneStats) =
        reference::nearest_series_with_stats(query, candidates, penalty);
    let (got, got_stats) = nearest_series_with_stats(query, candidates, penalty);
    let same_best = match (got, want) {
        (Some((gi, gd)), Some((wi, wd))) => gi == wi && same(gd, wd),
        (None, None) => true,
        _ => false,
    };
    assert!(
        same_best && got_stats == want_stats,
        "scan {got:?} {got_stats:?} != reference {want:?} {want_stats:?}: penalty {penalty:e}\n\
         query = {query:?}\ncandidates = {candidates:?}"
    );
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
