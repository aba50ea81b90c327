//! Request differencing measures (§4.1).
//!
//! A foundation of the paper's request modeling is quantifying the
//! difference between two requests' time-series behaviors. This module
//! implements every measure the paper compares in Figure 7:
//!
//! * [`l1_distance`] — Equation 2: element-wise L1 over the common prefix
//!   plus a per-element penalty `p` for the length difference, with `p`
//!   set to a peak-level metric difference ([`length_penalty`]);
//! * [`dtw_distance`] — classic dynamic time warping (Equation 3
//!   minimized over warp paths), which tolerates time shifting but can
//!   *under*-estimate differences through free asynchronous steps;
//! * [`dtw_distance_with_penalty`] — the paper's enhancement: each
//!   asynchronous warp step pays the same penalty `p`, fixing the
//!   under-estimation (the single most effective measure in Figure 7);
//! * [`dtw_banded`] — a Sakoe–Chiba band-constrained variant (ablation:
//!   trades warp freedom for `O(n·band)` cost);
//! * [`levenshtein`] — string edit distance over system call sequences,
//!   the software-metric-only Magpie-style baseline;
//! * [`average_metric_distance`] — the average-value signature baseline
//!   of the authors' earlier work \[27\].
//!
//! §4.2 flags the full-DTW cost as the obstacle to online use. For
//! running-best searches (nearest signature, nearest medoid) this module
//! adds exact fast paths in the classic LB_Keogh tradition:
//!
//! * [`dtw_distance_with_penalty_pruned`] — DTW that gives up early once
//!   the distance provably exceeds a cutoff: an envelope lower-bound
//!   prefilter, then the full DP with per-column early abandoning.
//!   Whenever the bound cannot prune, the full DP runs unchanged, so a
//!   returned distance is bit-identical to [`dtw_distance_with_penalty`];
//! * [`nearest_series`] — running-best nearest-neighbor scan over
//!   candidate series, property-tested equal to the naive full scan;
//! * [`nearest_series_with_stats`] — the same scan, also reporting which
//!   stage of the prune cascade (LB_Kim → length penalty → LB_Keogh →
//!   per-column abandon) settled each candidate as [`PruneStats`], the
//!   observability behind the ledger's `kernel.prune.*` counters.
//!
//! # The penalty-DTW kernel
//!
//! [`dtw_distance_with_penalty`], [`dtw_banded`] and the last stage of the
//! prune cascade share one private DP that walks the cost matrix one
//! anti-diagonal at a time. Cell `(i, j)` on diagonal `t = i + j` reads
//! only diagonal `t − 1` (its `left` and `up` neighbours) and diagonal
//! `t − 2` (its `diag` neighbour), so the cells of one diagonal do not
//! depend on each other. Each diagonal is one branch-free loop over three
//! rolling row-indexed buffers and a reversed copy of the column series,
//! which the compiler vectorizes. A Sakoe–Chiba band only narrows each
//! diagonal's row range; the cells outside it stay `+∞`. The cascade keeps
//! every column's minimum, in reversed-column order so that one diagonal
//! updates one contiguous run, and abandons once a completed column lies
//! wholly above the cutoff.
//!
//! Every signature distance, medoid, ledger and benchmark digest in the
//! repository is downstream of these bits, so the kernel follows a
//! bit-identity rule:
//!
//! * **Fixed additions.** Each cell computes `|c − r|`, one `+ p`, two
//!   `min`s and `+ local`, all on values the row-at-a-time DP also
//!   computes. No `mul_add`, no reassociation of the sums, no vectorized
//!   reduction that regroups them.
//! * **The visiting order is free.** A cell reads only final values of
//!   its three neighbours, so any order that computes those first yields
//!   the same bits; diagonal order is one such order.
//! * **The `min` order is free.** `min` is exact, no DP value is ever
//!   −0.0 (a cell is `best + |c − r|`, and `|·|` never yields −0.0), and
//!   `f64::min` ignores a NaN operand in either position, so any grouping
//!   of the three candidates gives the old `diag.min(up).min(left)` up to
//!   the payload of an all-NaN result.
//! * **One penalty addition.** Rounding is monotone, so for non-NaN
//!   values `min(left + p, up + p)` is `min(left, up) + p` bit for bit
//!   (overflow to `+∞` included); if one of them is NaN, `f64::min` picks
//!   the other on both sides. The kernel computes
//!   `min(diag, min(left, up) + p)`.
//! * **Compare-select only on all-finite input.** The kernel is generic
//!   over `min`. When an `O(m + n)` scan finds every value finite, no NaN
//!   can arise in the DP (`∞` appears only through overflow and is never
//!   subtracted), so `if a < b { a } else { b }` equals `f64::min`;
//!   otherwise the kernel runs with `f64::min`.
//! * **The abandon predicate is order-free.** The cascade returns `None`
//!   iff some column's minimum exceeds the cutoff. Which column is found
//!   first depends on the visiting order; whether one exists does not, so
//!   the distances and the [`PruneStats`] stay the same.
//!
//! `crates/core/tests/dtw_identity.rs` keeps the row-at-a-time DP, the
//! per-column cascade, the column-blocked kernel and the row-at-a-time
//! banded DP as test-only references and checks the kernel against them
//! bit-for-bit across every length pair up to 70, values including `±∞`,
//! NaN and overflowing `±1e308`, penalties including −0.0 and `+∞`, and
//! every band up to `max(m, n) + 1`.

use std::collections::VecDeque;

/// L1 distance with unequal-length penalty (Equation 2).
///
/// ```text
/// d = Σ_{i<min(m,n)} |x_i − y_i|  +  |m − n| · p
/// ```
///
/// # Panics
///
/// Panics if `penalty` is negative.
///
/// # Examples
///
/// ```
/// use rbv_core::distance::l1_distance;
///
/// let d = l1_distance(&[1.0, 2.0], &[1.5, 2.0, 9.0], 10.0);
/// assert!((d - (0.5 + 10.0)).abs() < 1e-12);
/// ```
pub fn l1_distance(x: &[f64], y: &[f64], penalty: f64) -> f64 {
    assert!(penalty >= 0.0, "penalty must be nonnegative");
    let common: f64 = x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum();
    common + (x.len().abs_diff(y.len())) as f64 * penalty
}

/// Classic dynamic time warping distance (no asynchrony penalty).
///
/// The minimum over valid warp paths of the summed point-wise metric
/// differences (Equation 3), allowing free asynchronous steps. `O(m·n)`
/// time, `O(min(m,n))` space.
///
/// Empty-series convention: if exactly one series is empty no warp path
/// exists, and a distance of `+∞` would be unhelpful for clustering, so
/// this follows the penalty variant's `(m + n)·penalty` with a zero
/// penalty and returns 0 (callers use the penalty variant in practice).
/// Both empty also gives 0.
pub fn dtw_distance(x: &[f64], y: &[f64]) -> f64 {
    dtw_distance_with_penalty(x, y, 0.0)
}

/// Dynamic time warping with a per-asynchronous-step penalty (§4.1).
///
/// Identical to [`dtw_distance`] except every asynchronous warp step (one
/// pointer advances while the other stays) adds `penalty`, preventing
/// cost-free time shifting from under-estimating request differences. The
/// paper sets `penalty` to the same value as the L1 unequal-length penalty.
///
/// # Panics
///
/// Panics if `penalty` is negative.
///
/// # Examples
///
/// ```
/// use rbv_core::distance::{dtw_distance, dtw_distance_with_penalty};
///
/// // Identical peaks shifted by one position: free DTW aligns them for
/// // nothing, the penalty charges the two asynchronous steps.
/// let x = [1.0, 1.0, 9.0, 1.0, 1.0, 1.0];
/// let y = [1.0, 1.0, 1.0, 9.0, 1.0, 1.0];
/// assert_eq!(dtw_distance(&x, &y), 0.0);
/// let d = dtw_distance_with_penalty(&x, &y, 2.0);
/// assert!((d - 4.0).abs() < 1e-12);
/// ```
pub fn dtw_distance_with_penalty(x: &[f64], y: &[f64], penalty: f64) -> f64 {
    assert!(penalty >= 0.0, "penalty must be nonnegative");
    if x.is_empty() || y.is_empty() {
        return (x.len() + y.len()) as f64 * penalty;
    }
    // Without a cutoff the DP never abandons.
    dtw_dp(x, y, penalty, usize::MAX, None).unwrap_or(f64::INFINITY)
}

/// The penalty-DTW DP behind [`dtw_distance_with_penalty`], [`dtw_banded`]
/// and the last stage of the prune cascade (see the module's bit-identity
/// rule). `band` is the Sakoe–Chiba half-width; one at least as long as
/// the shorter series leaves the DP unconstrained. With `Some(cutoff)`
/// it returns `None` once every cell of some column exceeds `cutoff`.
/// Both series must be non-empty.
fn dtw_dp(x: &[f64], y: &[f64], penalty: f64, band: usize, cutoff: Option<f64>) -> Option<f64> {
    // Keep the shorter series as the row for O(min) space.
    let (rows, cols) = if x.len() <= y.len() { (x, y) } else { (y, x) };
    let (m, n) = (rows.len(), cols.len());
    if band >= m {
        let full = move |t: usize| (t.saturating_sub(n - 1), t.min(m - 1));
        by_min(rows, cols, penalty, full, cutoff)
    } else {
        by_min(rows, cols, penalty, banded_span(m, n, band), cutoff)
    }
}

/// Picks the kernel's `min`. Finite inputs keep every DP value NaN-free
/// (and no DP value is ever −0.0), so the compare-select min returns the
/// same bits as `f64::min`.
fn by_min(
    rows: &[f64],
    cols: &[f64],
    penalty: f64,
    span: impl FnMut(usize) -> (usize, usize),
    cutoff: Option<f64>,
) -> Option<f64> {
    if rows.iter().chain(cols).all(|v| v.is_finite()) {
        by_cutoff(rows, cols, penalty, span, select_min, cutoff)
    } else {
        by_cutoff(rows, cols, penalty, span, f64::min, cutoff)
    }
}

/// Runs the kernel, with a cutoff abandoning once a completed column lies
/// wholly above it. Every warp path to the final cell crosses each column,
/// and all later additions (locals, penalties) are nonnegative, so the
/// final distance then exceeds the cutoff too.
fn by_cutoff(
    rows: &[f64],
    cols: &[f64],
    penalty: f64,
    span: impl FnMut(usize) -> (usize, usize),
    min: impl Fn(f64, f64) -> f64 + Copy,
    cutoff: Option<f64>,
) -> Option<f64> {
    let Some(cutoff) = cutoff else {
        return wavefront(rows, cols, penalty, span, min, |_, _, _| false);
    };
    let (m, n) = (rows.len(), cols.len());
    // Each column's minimum, in reversed-column order like `rev`.
    let mut colmin = vec![f64::INFINITY; n];
    wavefront(rows, cols, penalty, span, min, |t, k, cells| {
        for (cm, &cell) in colmin[k..k + cells.len()].iter_mut().zip(cells) {
            *cm = min(*cm, cell);
        }
        // Column t − (m − 1) ended with its bottom cell.
        t + 1 >= m && colmin[n - 1 - (t + 1 - m)] > cutoff
    })
}

/// `f64::min` for operands that are never NaN: a compare and a select,
/// one instruction on most targets.
fn select_min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Rows `[a, b]` of each anti-diagonal that lie inside the Sakoe–Chiba
/// band of `dtw_banded`: column `j` admits rows within `band` of its
/// rescaled diagonal `j·m/n`. The admitted columns of row `i` form one
/// interval `[first[i], last[i]]` whose ends never decrease with `i`, so
/// on diagonal `t` the admitted rows are those with
/// `i + first[i] <= t <= i + last[i]`: one interval whose ends each rise
/// by zero or one per diagonal. It is never empty, because with
/// `band >= 1` the intervals of rows `i` and `i + 1` share a column.
/// Requires `m <= n`.
fn banded_span(m: usize, n: usize, band: usize) -> impl FnMut(usize) -> (usize, usize) {
    let (mut first, mut last) = (Vec::with_capacity(m), Vec::with_capacity(m));
    // `center` is j·m/n, stepped without a division: it rises by at most
    // one per column because m <= n.
    let (mut center, mut rem) = (0, 0);
    for j in 0..n {
        // Column j admits rows center − band ..= center + band.
        while first.len() <= (center + band).min(m - 1) {
            first.push(j);
        }
        while last.len() < center.saturating_sub(band) {
            last.push(j - 1);
        }
        rem += m;
        if rem >= n {
            rem -= n;
            center += 1;
        }
    }
    last.resize(m, n - 1);
    let (mut a, mut b) = (0, 0);
    move |t| {
        while a < m && a + last[a] < t {
            a += 1;
        }
        while b + 1 < m && b + 1 + first[b + 1] <= t {
            b += 1;
        }
        (a, b)
    }
}

/// Runs the DP one anti-diagonal `t = i + j` at a time, over the rows
/// `[a, b] = span(t)`: a non-empty interval whose ends each rise by zero
/// or one per diagonal. After each diagonal, `abandon(t, k, cells)` sees
/// its cells, the first of them in column `n − 1 − k`; the DP returns
/// `None` as soon as `abandon` returns true.
///
/// `prev2`, `prev1` and `cur` hold diagonals `t − 2`, `t − 1` and `t`:
/// slot `i + 1` is row `i`, and slot 0 the virtual row above row 0.
/// Diagonals `t + 1` and `t + 2` read only rows `a − 1 ..= b + 1` of
/// diagonal `t`. A buffer's earlier diagonals never reached beyond row
/// `b`, so row `b + 1` is still `+∞`; row `a − 1` may hold an older
/// diagonal's cell and is reset to `+∞`. `prev2[0]` starts as 0.0, the
/// origin's virtual diagonal neighbour. Column `j` is `rev[n − 1 − j]`,
/// so a diagonal reads `rows` and `rev` forwards.
fn wavefront(
    rows: &[f64],
    cols: &[f64],
    penalty: f64,
    mut span: impl FnMut(usize) -> (usize, usize),
    min: impl Fn(f64, f64) -> f64,
    mut abandon: impl FnMut(usize, usize, &[f64]) -> bool,
) -> Option<f64> {
    let (m, n) = (rows.len(), cols.len());
    // One allocation: `rev`, then the three diagonals.
    let mut buf = vec![f64::INFINITY; n + 3 * (m + 1)];
    let (rev, rest) = buf.split_at_mut(n);
    for (r, &c) in rev.iter_mut().zip(cols.iter().rev()) {
        *r = c;
    }
    let (mut prev2, rest) = rest.split_at_mut(m + 1);
    let (mut prev1, mut cur) = rest.split_at_mut(m + 1);
    prev2[0] = 0.0;
    for t in 0..m + n - 1 {
        let (a, b) = span(t);
        cur[a] = f64::INFINITY;
        let len = b + 1 - a;
        let k = n - 1 - (t - a);
        let diag = &prev2[a..a + len];
        let up = &prev1[a..a + len];
        let left = &prev1[a + 1..a + 1 + len];
        let out = &mut cur[a + 1..a + 1 + len];
        let locals = rev[k..k + len].iter().zip(&rows[a..a + len]);
        for ((cell, (&d, (&u, &l))), (&c, &r)) in out
            .iter_mut()
            .zip(diag.iter().zip(up.iter().zip(left)))
            .zip(locals)
        {
            let best = min(d, min(l, u) + penalty);
            *cell = best + (c - r).abs();
        }
        if abandon(t, k, out) {
            return None;
        }
        std::mem::swap(&mut prev2, &mut prev1);
        std::mem::swap(&mut prev1, &mut cur);
    }
    Some(prev1[m])
}

/// Sakoe–Chiba band-constrained DTW with asynchrony penalty.
///
/// Warp paths may deviate at most `band` elements from the (rescaled)
/// diagonal. With `band >= max(m, n)` this equals the unconstrained
/// distance; smaller bands are cheaper and forbid extreme warps. Returns
/// the unconstrained convention for empty inputs.
///
/// # Panics
///
/// Panics if `penalty` is negative or `band` is zero.
///
/// # Examples
///
/// ```
/// use rbv_core::distance::{dtw_banded, dtw_distance_with_penalty};
///
/// let x = [1.0, 5.0, 2.0, 8.0, 3.0, 3.0];
/// let y = [2.0, 4.0, 4.0, 7.0, 2.0];
/// // A band at least as wide as the series equals unconstrained DTW;
/// // a narrow band can only forbid warps, never undercut it.
/// let full = dtw_distance_with_penalty(&x, &y, 1.0);
/// assert_eq!(dtw_banded(&x, &y, 1.0, 16), full);
/// assert!(dtw_banded(&x, &y, 1.0, 1) >= full);
/// ```
pub fn dtw_banded(x: &[f64], y: &[f64], penalty: f64, band: usize) -> f64 {
    assert!(penalty >= 0.0, "penalty must be nonnegative");
    assert!(band > 0, "band must be at least 1");
    if x.is_empty() || y.is_empty() {
        return (x.len() + y.len()) as f64 * penalty;
    }
    dtw_dp(x, y, penalty, band, None).unwrap_or(f64::INFINITY)
}

/// Levenshtein string edit distance over token sequences: the minimum
/// number of insertions, deletions, or substitutions transforming one
/// sequence into the other. Used on per-request system call name sequences
/// as the Magpie-style software-only baseline (§4.1).
pub fn levenshtein<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (j, lv) in long.iter().enumerate() {
        cur[0] = j + 1;
        for (i, sv) in short.iter().enumerate() {
            let sub = prev[i] + usize::from(sv != lv);
            cur[i + 1] = sub.min(prev[i + 1] + 1).min(cur[i] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// The average-metric-value baseline \[27\]: `|x̄ − ȳ|`.
pub fn average_metric_distance(x_avg: f64, y_avg: f64) -> f64 {
    (x_avg - y_avg).abs()
}

/// Computes the unequal-length / asynchrony penalty `p` of §4.1: "the
/// 99-percentile value of the distribution of metric differences at two
/// arbitrary points of application execution".
///
/// Scans deterministic strided point pairs across all provided series
/// (≈ `target_pairs` of them) and returns the 99th percentile of their
/// absolute differences. Returns 0 when fewer than two points exist.
pub fn length_penalty(series: &[&[f64]], target_pairs: usize) -> f64 {
    let all: Vec<f64> = series.iter().flat_map(|s| s.iter().copied()).collect();
    let n = all.len();
    if n < 2 {
        return 0.0;
    }
    let target = target_pairs.max(16);
    let mut diffs = Vec::with_capacity(target);
    diffs.extend(
        pair_walk(n, target)
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (all[a] - all[b]).abs()),
    );
    crate::stats::percentile(&diffs, 0.99).unwrap_or(0.0)
}

/// The deterministic quasi-random point pairs [`length_penalty`] draws
/// from `n >= 1` points: two pointers starting at 0 and `n / 2` take
/// `steps` prime strides (primes avoid short cycles) around the points,
/// yielding each position after its step. Each stride is reduced mod `n`
/// once, so one conditional subtraction keeps a pointer below `n`.
fn pair_walk(n: usize, steps: usize) -> impl Iterator<Item = (usize, usize)> {
    const STRIDE_A: usize = 7_919;
    const STRIDE_B: usize = 104_729;
    let (stride_a, stride_b) = (STRIDE_A % n, STRIDE_B % n);
    let (mut a, mut b) = (0, n / 2);
    (0..steps).map(move |_| {
        a += stride_a;
        if a >= n {
            a -= n;
        }
        b += stride_b;
        if b >= n {
            b -= n;
        }
        (a, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_equal_lengths() {
        let d = l1_distance(&[1.0, 2.0, 3.0], &[2.0, 2.0, 1.0], 5.0);
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn l1_length_penalty_applied() {
        let d = l1_distance(&[1.0], &[1.0, 1.0, 1.0], 2.5);
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn l1_identity_and_symmetry() {
        let x = [1.0, 4.0, 2.0];
        let y = [2.0, 1.0];
        assert_eq!(l1_distance(&x, &x, 3.0), 0.0);
        assert_eq!(l1_distance(&x, &y, 3.0), l1_distance(&y, &x, 3.0));
    }

    #[test]
    fn dtw_identity() {
        let x = [1.0, 2.0, 3.0, 2.0];
        assert_eq!(dtw_distance(&x, &x), 0.0);
        assert_eq!(dtw_distance_with_penalty(&x, &x, 5.0), 0.0);
    }

    #[test]
    fn dtw_symmetry() {
        let x = [1.0, 5.0, 2.0, 8.0];
        let y = [2.0, 4.0, 4.0];
        assert_eq!(dtw_distance(&x, &y), dtw_distance(&y, &x));
        assert_eq!(
            dtw_distance_with_penalty(&x, &y, 1.5),
            dtw_distance_with_penalty(&y, &x, 1.5)
        );
    }

    #[test]
    fn dtw_absorbs_time_shift_that_l1_overestimates() {
        // The Figure 6 scenario: identical peaks, shifted by one position.
        let x = [1.0, 1.0, 9.0, 1.0, 1.0, 1.0];
        let y = [1.0, 1.0, 1.0, 9.0, 1.0, 1.0];
        let l1 = l1_distance(&x, &y, 10.0);
        let dtw = dtw_distance(&x, &y);
        assert!((l1 - 16.0).abs() < 1e-12, "L1 counts the peak twice");
        assert!(dtw < 1e-12, "DTW aligns the peaks for free");
    }

    #[test]
    fn asynchrony_penalty_charges_shifts() {
        let x = [1.0, 1.0, 9.0, 1.0, 1.0, 1.0];
        let y = [1.0, 1.0, 1.0, 9.0, 1.0, 1.0];
        let p = 2.0;
        let d = dtw_distance_with_penalty(&x, &y, p);
        // The shift needs at least two asynchronous steps (one each way).
        assert!(d >= 2.0 * p - 1e-9, "d = {d}");
        assert!(d < l1_distance(&x, &y, p), "still cheaper than L1's 16");
    }

    #[test]
    fn plain_dtw_underestimates_shifted_spiky_series() {
        // Free warping absorbs a whole-series phase shift for nothing —
        // the paper's motivation for the penalty.
        let x = [1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0];
        let y = [9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0];
        let free = dtw_distance(&x, &y);
        let charged = dtw_distance_with_penalty(&x, &y, 3.0);
        // Free DTW pays only the two boundary cells (8 each).
        assert!((free - 16.0).abs() < 1e-12, "free {free}");
        // The penalty charges the two asynchronous shift steps.
        assert!(charged >= free + 2.0 * 3.0 - 1e-9, "charged {charged}");
        // Both stay below the fully synchronized cost of 64.
        assert!(charged < l1_distance(&x, &y, 3.0));
    }

    #[test]
    fn dtw_with_penalty_at_most_l1_for_equal_lengths() {
        // The synchronized path IS a warp path, so the DTW minimum can't
        // exceed the L1 sum on equal-length series.
        let x = [1.0, 3.0, 2.0, 5.0, 4.0];
        let y = [2.0, 2.0, 4.0, 4.0, 4.0];
        let l1 = l1_distance(&x, &y, 7.0);
        let d = dtw_distance_with_penalty(&x, &y, 7.0);
        assert!(d <= l1 + 1e-12);
    }

    #[test]
    fn dtw_unequal_lengths() {
        let d = dtw_distance_with_penalty(&[1.0], &[1.0, 1.0, 1.0], 2.0);
        // Two asynchronous steps at penalty 2 each, zero value difference.
        assert!((d - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dtw_empty_conventions() {
        assert_eq!(dtw_distance_with_penalty(&[], &[], 3.0), 0.0);
        assert_eq!(dtw_distance_with_penalty(&[], &[1.0, 2.0], 3.0), 6.0);
        assert_eq!(dtw_distance(&[], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn banded_matches_full_with_wide_band() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0, 3.0];
        let y = [2.0, 4.0, 4.0, 7.0, 2.0];
        let full = dtw_distance_with_penalty(&x, &y, 1.0);
        let banded = dtw_banded(&x, &y, 1.0, 16);
        assert!((full - banded).abs() < 1e-12);
    }

    #[test]
    fn narrow_band_never_below_full() {
        let x = [1.0, 1.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let y = [1.0, 1.0, 1.0, 1.0, 1.0, 9.0, 1.0, 1.0];
        let full = dtw_distance_with_penalty(&x, &y, 0.5);
        let narrow = dtw_banded(&x, &y, 0.5, 1);
        assert!(narrow >= full - 1e-12);
        // Band 1 cannot reach the 3-position shift: it must pay value cost.
        assert!(narrow > full + 1.0, "narrow {narrow} vs full {full}");
    }

    #[test]
    fn levenshtein_classic_cases() {
        assert_eq!(levenshtein(&b"kitten"[..], &b"sitting"[..]), 3);
        assert_eq!(levenshtein(&b"abc"[..], &b"abc"[..]), 0);
        assert_eq!(levenshtein(&b""[..], &b"abc"[..]), 3);
        assert_eq!(levenshtein(&b"abc"[..], &b""[..]), 3);
        assert_eq!(levenshtein::<u8>(&[], &[]), 0);
    }

    #[test]
    fn levenshtein_symmetry_and_triangle() {
        let a = [1u16, 2, 3, 4];
        let b = [2u16, 3, 4, 4, 5];
        let c = [1u16, 1, 1];
        let dab = levenshtein(&a, &b);
        assert_eq!(dab, levenshtein(&b, &a));
        assert!(levenshtein(&a, &c) <= dab + levenshtein(&b, &c));
    }

    #[test]
    fn average_metric_distance_is_abs_diff() {
        assert_eq!(average_metric_distance(2.0, 3.5), 1.5);
        assert_eq!(average_metric_distance(3.5, 2.0), 1.5);
    }

    #[test]
    fn length_penalty_is_peak_level() {
        // Values mostly near 1 with rare 10s: p99 of |diff| should be
        // well above the typical diff and near the extreme.
        let mut vals = vec![1.0; 990];
        vals.extend(vec![10.0; 10]);
        let p = length_penalty(&[&vals], 100_000);
        assert!(p > 4.0, "penalty {p} should reflect the peak diffs");
        assert!(p <= 9.0 + 1e-9);
    }

    #[test]
    fn length_penalty_degenerate_inputs() {
        assert_eq!(length_penalty(&[], 1000), 0.0);
        assert_eq!(length_penalty(&[&[1.0]], 1000), 0.0);
        // Constant values: all diffs zero.
        let c = vec![2.0; 100];
        assert_eq!(length_penalty(&[&c], 1000), 0.0);
    }

    #[test]
    fn pair_walk_matches_the_modulo_walk() {
        for n in [2usize, 3, 7_919, 7_920, 104_729, 200_000] {
            let (mut a, mut b) = (0, n / 2);
            let modulo = (0..250_000).map(|_| {
                a = (a + 7_919) % n;
                b = (b + 104_729) % n;
                (a, b)
            });
            assert!(pair_walk(n, 250_000).eq(modulo), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "penalty must be nonnegative")]
    fn negative_penalty_panics() {
        l1_distance(&[1.0], &[1.0], -1.0);
    }
}

/// Dynamic time warping with full path recovery: returns the distance of
/// the optimal warp path (identical to [`dtw_distance_with_penalty`]) plus
/// the path itself as `(x_index, y_index)` pointer positions, starting at
/// `(0, 0)` and ending at `(m-1, n-1)`.
///
/// Uses `O(m·n)` memory for backtracking — fine for the few-hundred-bucket
/// series request signatures use; prefer the path-free variant inside
/// clustering loops.
///
/// When either series is empty there is no path: returns the
/// distance-only convention `(m + n)·penalty` (0 when both are empty)
/// and an empty path.
///
/// # Panics
///
/// Panics if `penalty` is negative.
pub fn dtw_alignment(x: &[f64], y: &[f64], penalty: f64) -> (f64, Vec<(usize, usize)>) {
    assert!(penalty >= 0.0, "penalty must be nonnegative");
    if x.is_empty() || y.is_empty() {
        return ((x.len() + y.len()) as f64 * penalty, Vec::new());
    }
    let (m, n) = (x.len(), y.len());
    let idx = |i: usize, j: usize| i * n + j;
    let mut cost = vec![f64::INFINITY; m * n];
    // 0 = start, 1 = diagonal, 2 = from (i-1, j), 3 = from (i, j-1).
    let mut from = vec![0u8; m * n];
    for i in 0..m {
        for j in 0..n {
            let local = (x[i] - y[j]).abs();
            let (best, step) = if i == 0 && j == 0 {
                (0.0, 0u8)
            } else {
                let diag = if i > 0 && j > 0 {
                    cost[idx(i - 1, j - 1)]
                } else {
                    f64::INFINITY
                };
                let up = if i > 0 {
                    cost[idx(i - 1, j)] + penalty
                } else {
                    f64::INFINITY
                };
                let left = if j > 0 {
                    cost[idx(i, j - 1)] + penalty
                } else {
                    f64::INFINITY
                };
                if diag <= up && diag <= left {
                    (diag, 1)
                } else if up <= left {
                    (up, 2)
                } else {
                    (left, 3)
                }
            };
            cost[idx(i, j)] = best + local;
            from[idx(i, j)] = step;
        }
    }
    // Backtrack.
    let mut path = Vec::with_capacity(m + n);
    let (mut i, mut j) = (m - 1, n - 1);
    loop {
        path.push((i, j));
        match from[idx(i, j)] {
            0 => break,
            1 => {
                i -= 1;
                j -= 1;
            }
            2 => i -= 1,
            _ => j -= 1,
        }
    }
    path.reverse();
    (cost[idx(m - 1, n - 1)], path)
}

#[cfg(test)]
mod alignment_tests {
    use super::*;

    #[test]
    fn alignment_distance_matches_distance_only_variant() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0];
        let y = [2.0, 4.0, 4.0, 7.0];
        for penalty in [0.0, 1.0, 3.5] {
            let (d, path) = dtw_alignment(&x, &y, penalty);
            assert!((d - dtw_distance_with_penalty(&x, &y, penalty)).abs() < 1e-12);
            assert_eq!(*path.first().unwrap(), (0, 0));
            assert_eq!(*path.last().unwrap(), (x.len() - 1, y.len() - 1));
        }
    }

    #[test]
    fn path_steps_are_valid_warp_moves() {
        let x = [1.0, 1.0, 9.0, 1.0, 1.0, 1.0];
        let y = [1.0, 1.0, 1.0, 9.0, 1.0, 1.0];
        let (_, path) = dtw_alignment(&x, &y, 0.5);
        for w in path.windows(2) {
            let (di, dj) = (w[1].0 - w[0].0, w[1].1 - w[0].1);
            assert!(
                (di, dj) == (1, 1) || (di, dj) == (1, 0) || (di, dj) == (0, 1),
                "invalid step {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn shifted_peaks_get_aligned() {
        let x = [1.0, 1.0, 9.0, 1.0, 1.0, 1.0];
        let y = [1.0, 1.0, 1.0, 9.0, 1.0, 1.0];
        let (_, path) = dtw_alignment(&x, &y, 0.1);
        // The peak at x[2] must be matched to the peak at y[3].
        assert!(path.contains(&(2, 3)), "path {path:?}");
    }

    #[test]
    fn empty_inputs_follow_conventions() {
        let (d, path) = dtw_alignment(&[], &[1.0, 2.0], 3.0);
        assert_eq!(d, 6.0);
        assert!(path.is_empty());
        let (d, path) = dtw_alignment(&[], &[], 3.0);
        assert_eq!(d, 0.0);
        assert!(path.is_empty());
    }
}

/// Buffers of the LB_Keogh envelope: its lower and upper bounds and the
/// monotonic deques that build them. A scan keeps one and reuses it for
/// every candidate.
#[derive(Debug, Default)]
struct Envelope {
    lo: Vec<f64>,
    hi: Vec<f64>,
    minq: VecDeque<usize>,
    maxq: VecDeque<usize>,
}

impl Envelope {
    /// Min/max envelope of `y` over a sliding window of half-width
    /// `band`, evaluated at positions `0..m` into `self.lo`/`self.hi`
    /// (LB_Keogh). Slot `i` covers the `y` indices
    /// `[i - band, i + band] ∩ [0, y.len())`; callers guarantee the
    /// window is never empty (`m - y.len() <= band` when `m` is larger).
    /// Monotonic-deque sweep, `O(m + n)`.
    fn build(&mut self, y: &[f64], m: usize, band: usize) {
        let n = y.len();
        let Envelope { lo, hi, minq, maxq } = self;
        lo.clear();
        hi.clear();
        minq.clear();
        maxq.clear();
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
            lo.push(minq.front().map_or(f64::INFINITY, |&f| y[f]));
            hi.push(maxq.front().map_or(f64::NEG_INFINITY, |&f| y[f]));
        }
    }
}

/// Per-stage outcome counters of the running-best DTW prune cascade
/// (LB_Kim → length penalty → LB_Keogh → per-column abandon), one count
/// per candidate comparison. Exactly one stage settles each candidate,
/// so the stage counters always sum to [`PruneStats::candidates`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidate comparisons submitted to the cascade (including the
    /// scan-seeding first candidate, which always runs the full DP).
    pub candidates: u64,
    /// Pruned by the LB_Kim endpoint bound alone.
    pub lb_kim: u64,
    /// Pruned once the length-difference penalty joined LB_Kim.
    pub length_penalty: u64,
    /// Pruned by the band-constrained LB_Keogh envelope bound.
    pub lb_keogh: u64,
    /// Abandoned mid-DP when a whole column exceeded the cutoff.
    pub early_abandon: u64,
    /// Ran the full DP to completion.
    pub full_dp: u64,
}

impl PruneStats {
    /// Candidates settled without completing the DP.
    pub fn pruned(&self) -> u64 {
        self.lb_kim + self.length_penalty + self.lb_keogh + self.early_abandon
    }

    /// Fraction of candidates settled without completing the DP
    /// (0 when no candidates were scanned).
    pub fn pruned_frac(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.candidates as f64
        }
    }

    /// Folds another scan's counters into this one.
    pub fn merge(&mut self, other: &PruneStats) {
        self.candidates += other.candidates;
        self.lb_kim += other.lb_kim;
        self.length_penalty += other.length_penalty;
        self.lb_keogh += other.lb_keogh;
        self.early_abandon += other.early_abandon;
        self.full_dp += other.full_dp;
    }
}

/// Which cascade stage settled one candidate comparison.
enum Settled {
    Kim,
    Length,
    Keogh,
    Abandon,
    Full(f64),
}

impl Settled {
    /// Charges this outcome to its [`PruneStats`] counter.
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

/// The staged pruning cascade for [`dtw_distance_with_penalty`] against a
/// running-best `cutoff`: each stage either proves the true distance
/// exceeds `cutoff` (settling the candidate) or passes it on, ending in
/// the full DP with per-column early abandoning. The *decision* (pruned
/// vs completed, and the completed bits) is identical whichever stage
/// fires — staging exists so callers can attribute prune rates.
///
/// Note the bounds are *not* unconditional lower bounds. The LB_Keogh
/// term only bounds warp paths that stay within
/// `band = floor(cutoff / penalty)` of the synchronized diagonal — but
/// any path deviating further contains more than `band` asynchronous
/// steps and therefore already costs more than `cutoff`, so the pruning
/// decision stays exact. The unconditional stages (LB_Kim endpoints,
/// then the length-difference penalty) need no such argument.
///
/// `env` is scratch for the LB_Keogh envelope (overwritten).
fn dtw_pruned_staged(
    x: &[f64],
    y: &[f64],
    penalty: f64,
    cutoff: f64,
    env: &mut Envelope,
) -> Settled {
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
                env.build(y, m, band);
                let keogh: f64 = x
                    .iter()
                    .zip(env.lo.iter().zip(&env.hi))
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
    match dtw_dp(x, y, penalty, usize::MAX, Some(cutoff)) {
        Some(d) => Settled::Full(d),
        None => Settled::Abandon,
    }
}

/// [`dtw_distance_with_penalty`] with exact early abandoning against a
/// running-best `cutoff` (§4.2 cost note; LB_Keogh / UCR-suite style).
///
/// Returns `None` only when the true distance provably exceeds `cutoff`
/// (established by a cheap lower-bound prefilter or by abandoning the DP
/// once a whole column exceeds `cutoff`). Otherwise returns
/// `Some(distance)` where `distance` is **bit-identical** to
/// [`dtw_distance_with_penalty`]: whenever the bound cannot prune, the
/// full-width DP runs unchanged — pruning never alters computed values,
/// only skips computations whose outcome is already decided.
///
/// A returned `Some(d)` may still have `d > cutoff` (abandoning is
/// best-effort); callers compare against their running best as usual.
///
/// # Panics
///
/// Panics if `penalty` is negative or `cutoff` is NaN.
///
/// # Examples
///
/// ```
/// use rbv_core::distance::{dtw_distance_with_penalty, dtw_distance_with_penalty_pruned};
///
/// let x = [1.0, 5.0, 2.0, 8.0, 3.0];
/// let y = [2.0, 4.0, 4.0, 7.0];
/// let full = dtw_distance_with_penalty(&x, &y, 1.0);
/// // Generous cutoff: completes, bit-identical to the full DP.
/// assert_eq!(dtw_distance_with_penalty_pruned(&x, &y, 1.0, full + 1.0), Some(full));
/// // Hopeless cutoff: pruned.
/// assert_eq!(dtw_distance_with_penalty_pruned(&x, &y, 1.0, 0.1), None);
/// ```
pub fn dtw_distance_with_penalty_pruned(
    x: &[f64],
    y: &[f64],
    penalty: f64,
    cutoff: f64,
) -> Option<f64> {
    assert!(penalty >= 0.0, "penalty must be nonnegative");
    assert!(!cutoff.is_nan(), "cutoff must not be NaN");
    match dtw_pruned_staged(x, y, penalty, cutoff, &mut Envelope::default()) {
        Settled::Full(d) => Some(d),
        _ => None,
    }
}

/// Running-best nearest-neighbor search over candidate series using the
/// penalty-DTW measure, accelerated by [`dtw_distance_with_penalty_pruned`].
///
/// Returns `Some((index, distance))` of the closest candidate, or `None`
/// when `candidates` is empty. Ties keep the earliest candidate, and the
/// result is **bit-identical** to the naive scan that computes
/// [`dtw_distance_with_penalty`] for every candidate and takes the first
/// minimum — pruning only skips candidates that provably cannot improve
/// the running best.
///
/// # Panics
///
/// Panics if `penalty` is negative.
///
/// # Examples
///
/// ```
/// use rbv_core::distance::nearest_series;
///
/// let query = [1.0, 2.0, 3.0];
/// let candidates = vec![vec![9.0, 9.0, 9.0], vec![1.0, 2.0, 3.5], vec![0.0; 3]];
/// let (idx, d) = nearest_series(&query, &candidates, 1.0).unwrap();
/// assert_eq!(idx, 1);
/// assert!((d - 0.5).abs() < 1e-12);
/// ```
pub fn nearest_series<S: AsRef<[f64]>>(
    query: &[f64],
    candidates: &[S],
    penalty: f64,
) -> Option<(usize, f64)> {
    nearest_series_with_stats(query, candidates, penalty).0
}

/// [`nearest_series`] plus per-stage prune attribution: which cascade
/// stage (LB_Kim, length penalty, LB_Keogh, per-column abandon, or the
/// full DP) settled each candidate comparison. The nearest-neighbor
/// result is the same bits as [`nearest_series`]; the stats are what the
/// ledger's `kernel.prune.*` counters report.
///
/// # Panics
///
/// Panics if `penalty` is negative.
pub fn nearest_series_with_stats<S: AsRef<[f64]>>(
    query: &[f64],
    candidates: &[S],
    penalty: f64,
) -> (Option<(usize, f64)>, PruneStats) {
    assert!(penalty >= 0.0, "penalty must be nonnegative");
    let mut stats = PruneStats::default();
    let mut best: Option<(usize, f64)> = None;
    let mut env = Envelope::default();
    for (i, cand) in candidates.iter().enumerate() {
        match best {
            None => {
                best = Some((i, dtw_distance_with_penalty(query, cand.as_ref(), penalty)));
                stats.candidates += 1;
                stats.full_dp += 1;
            }
            Some((_, b)) => {
                let settled = dtw_pruned_staged(query, cand.as_ref(), penalty, b, &mut env);
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

#[cfg(test)]
mod fastpath_tests {
    use super::*;

    /// Deterministic pseudo-random series (splitmix64 bits -> [0, 10)).
    fn series(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64 * 10.0
            })
            .collect()
    }

    #[test]
    fn pruned_matches_full_bitwise_or_proves_cutoff_exceeded() {
        for (sx, sy, lx, ly) in [
            (1, 2, 40, 40),
            (3, 4, 25, 60),
            (5, 6, 1, 30),
            (7, 8, 17, 16),
        ] {
            let x = series(sx, lx);
            let y = series(sy, ly);
            for penalty in [0.0, 0.5, 2.0] {
                let full = dtw_distance_with_penalty(&x, &y, penalty);
                for cutoff in [0.0, full * 0.5, full, full * 1.5, f64::INFINITY] {
                    match dtw_distance_with_penalty_pruned(&x, &y, penalty, cutoff) {
                        Some(d) => assert_eq!(d.to_bits(), full.to_bits()),
                        None => assert!(full > cutoff, "pruned {full} at cutoff {cutoff}"),
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_at_exact_cutoff_is_not_pruned() {
        let x = series(11, 30);
        let y = series(12, 30);
        let full = dtw_distance_with_penalty(&x, &y, 1.0);
        // cutoff == distance: "provably exceeds" is strict, must complete.
        assert_eq!(
            dtw_distance_with_penalty_pruned(&x, &y, 1.0, full),
            Some(full)
        );
    }

    #[test]
    fn nearest_matches_naive_scan_bitwise() {
        let query = series(100, 35);
        let candidates: Vec<Vec<f64>> = (0..12)
            .map(|i| series(200 + i, 20 + (i as usize) * 3))
            .collect();
        for penalty in [0.0, 0.7, 3.0] {
            let naive = candidates
                .iter()
                .map(|c| dtw_distance_with_penalty(&query, c, penalty))
                .enumerate()
                .fold(None::<(usize, f64)>, |acc, (i, d)| match acc {
                    Some((_, b)) if d >= b => acc,
                    _ => Some((i, d)),
                });
            let fast = nearest_series(&query, &candidates, penalty);
            assert_eq!(
                fast.map(|(i, d)| (i, d.to_bits())),
                naive.map(|(i, d)| (i, d.to_bits()))
            );
        }
    }

    #[test]
    fn nearest_handles_edge_cases() {
        assert_eq!(nearest_series::<Vec<f64>>(&[1.0], &[], 1.0), None);
        let cands = vec![vec![], vec![1.0]];
        let (idx, d) = nearest_series(&[1.0], &cands, 2.0).unwrap();
        assert_eq!((idx, d), (1, 0.0));
    }

    #[test]
    fn stats_partition_the_candidates_and_preserve_the_result() {
        let query = series(100, 35);
        let candidates: Vec<Vec<f64>> = (0..16)
            .map(|i| series(300 + i, 15 + (i as usize) * 4))
            .collect();
        for penalty in [0.0, 0.7, 3.0] {
            let (fast, stats) = nearest_series_with_stats(&query, &candidates, penalty);
            assert_eq!(
                fast.map(|(i, d)| (i, d.to_bits())),
                nearest_series(&query, &candidates, penalty).map(|(i, d)| (i, d.to_bits()))
            );
            assert_eq!(stats.candidates, candidates.len() as u64);
            assert_eq!(stats.pruned() + stats.full_dp, stats.candidates);
            assert!(stats.full_dp >= 1, "the seed candidate always completes");
            assert!((0.0..=1.0).contains(&stats.pruned_frac()));
        }
    }

    #[test]
    fn each_cascade_stage_is_reachable() {
        // Seed candidate: a perfect match, driving the cutoff to 0.
        let query = vec![1.0, 1.0, 1.0, 1.0];
        let candidates: Vec<Vec<f64>> = vec![
            query.clone(),             // full DP (seeds the running best)
            vec![50.0, 1.0, 1.0, 1.0], // endpoint blowout: LB_Kim
            vec![1.0; 12],             // same values, longer: length penalty
            vec![1.0, 4.0, 4.0, 1.0],  // matching endpoints, off-band middle: LB_Keogh
        ];
        let (best, stats) = nearest_series_with_stats(&query, &candidates, 2.0);
        assert_eq!(best, Some((0, 0.0)));
        assert_eq!(stats.candidates, 4);
        assert_eq!(stats.full_dp, 1);
        assert_eq!(stats.lb_kim, 1, "{stats:?}");
        assert_eq!(stats.length_penalty, 1, "{stats:?}");
        assert_eq!(stats.lb_keogh, 1, "{stats:?}");
        assert_eq!(stats.early_abandon, 0, "{stats:?}");
    }

    #[test]
    fn early_abandon_fires_when_bounds_cannot() {
        // Zero penalty disables the Keogh band and the length stage; the
        // endpoints match, so only the column scan can prune.
        let query = vec![1.0, 9.0, 1.0, 9.0, 1.0];
        let candidates: Vec<Vec<f64>> = vec![
            query.clone(),                 // seeds cutoff 0
            vec![1.0, 2.0, 2.0, 2.0, 1.0], // matching endpoints, costly middle
        ];
        let (best, stats) = nearest_series_with_stats(&query, &candidates, 0.0);
        assert_eq!(best, Some((0, 0.0)));
        assert_eq!(stats.early_abandon, 1, "{stats:?}");
    }

    #[test]
    fn merge_accumulates_fieldwise() {
        let a = PruneStats {
            candidates: 4,
            lb_kim: 1,
            length_penalty: 1,
            lb_keogh: 0,
            early_abandon: 1,
            full_dp: 1,
        };
        let mut m = a;
        m.merge(&a);
        assert_eq!(m.candidates, 8);
        assert_eq!(m.pruned(), 6);
        assert_eq!(m.full_dp, 2);
        assert_eq!(PruneStats::default().pruned_frac(), 0.0);
    }

    #[test]
    fn envelope_brackets_every_windowed_value() {
        let y = series(42, 50);
        for band in [0, 1, 3, 10, 60] {
            let mut env = Envelope::default();
            env.build(&y, y.len(), band);
            let (lo, hi) = (&env.lo, &env.hi);
            for i in 0..y.len() {
                let start = i.saturating_sub(band);
                let end = (i + band).min(y.len() - 1);
                for &v in &y[start..=end] {
                    assert!(lo[i] <= v && v <= hi[i]);
                }
                assert!(lo[i] <= y[i] && y[i] <= hi[i]);
            }
        }
    }
}
