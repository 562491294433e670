//! The pipeline's discord kernels: full self-join distance profiles via
//! FFT-seeded diagonal recurrences (STOMP-style), in place of the exact
//! ladder's per-candidate distance loops.
//!
//! The exact path ([`crate::merlin::merlin`]) drives DRAG with an adaptive
//! range `r`, paying `O(n·w)` per candidate distance. This module computes,
//! for each swept length `w`, the *entire* z-normalised nearest-neighbour
//! profile in `O(n log n + n·(n/w))`-ish time: one cached-FFT sliding dot
//! product seeds row 0 ([`tsops::mass::SelfJoinPlan`]), and every diagonal of
//! the self-join matrix is walked with the O(1) dot-product update
//! `QT(i+1, j+1) = QT(i, j) − x[i]·x[j] + x[i+w]·x[j+w]`.
//!
//! Numeric contract: the recurrence reassociates float sums, so results are
//! **tolerance-equivalent** to the exact kernels (same discord indices,
//! distances within 1e-5 absolute + 1e-6 relative — gated by
//! `tests/numeric_equivalence.rs`), not bit-identical to them. They are
//! bit-identical to themselves at any thread count: each diagonal is a pure
//! function of the input, and the only cross-worker merge is an element-wise
//! `f64::max`, which is exactly associative and commutative.
//!
//! Degenerate (σ ≈ 0) windows follow the conventions of
//! [`tsops::distance::ZnormSeries`] and `tsops::mass::mass`:
//! constant-vs-constant → 0, constant-vs-varying → `√w`. Windows with no
//! admissible neighbour at all (possible whenever `n ≤ 3w − 2`) report `∞`
//! in the profile and are excluded from discord results, matching the exact
//! kernels' `is_finite()` handling.

use crate::merlin::{swept_lengths, MerlinConfig};
use crate::Discord;
use tsops::mass::SelfJoinPlan;
use tsops::stats::rolling_mean_std;

/// σ below this is treated as a constant (degenerate) window, matching
/// `ZnormSeries` and `tsops::mass`.
const DEGENERATE_SIGMA: f64 = 1e-12;

/// Number of adjacent diagonals walked together so the inner loop
/// autovectorizes: the per-diagonal dot recurrences are independent, and the
/// `j`-side best-so-far updates hit a contiguous span of the profile.
const DIAG_BLOCK: usize = 8;

/// A per-length search must report *something* ≥ this to count as a discord;
/// below it the exact ladder would have exhausted its retries and yielded
/// nothing for the length, so this kernel mirrors that with `None`.
const MIN_DISCORD_DIST: f64 = 1e-9;

// numeric-mode(fast): diagonal dot-product recurrences reassociate float sums;
// gated by the tolerance-equivalence harness, merged with exact f64::max.
/// The z-normalised Euclidean distance from every length-`w` subsequence to
/// its nearest admissible neighbour (`|i − j| ≥ w`), i.e. the full matrix
/// profile, computed via diagonal recurrences seeded from `plan`.
///
/// Requires `series.len() ≥ 2·w` (so at least one admissible *pair* exists)
/// and a plan built over this exact series with `max_query ≥ w`.
///
/// A subsequence can still be partnerless: window `m` has no admissible
/// neighbour when `n − 2w < m < w`, which is non-empty whenever
/// `n ≤ 3w − 2`. Such entries are reported as `f64::INFINITY`, exactly like
/// [`crate::matrix_profile::matrix_profile`]; the discord searches below
/// exclude them with `is_finite()`, mirroring exact DRAG's refinement.
pub fn self_join_profile(series: &[f64], w: usize, plan: &SelfJoinPlan) -> Vec<f64> {
    assert!(w >= 2, "window must be >= 2");
    let n = series.len();
    assert!(n >= 2 * w, "series must hold two non-overlapping windows");
    assert_eq!(
        plan.series_len(),
        n,
        "plan was built over a different series"
    );
    let nsub = n - w + 1;

    let (means, stds) = rolling_mean_std(series, w);
    let sqrt_w = (w as f64).sqrt();
    // corr(i, j) = (QT(i,j) − w·μ_i·μ_j) / (w·σ_i·σ_j)
    //            = (QT(i,j) − mw[i]·mw[j]) · ivw[i]·ivw[j]
    // Degenerate windows get ivw = 0, forcing their pair correlations to 0;
    // the post-pass below overwrites every affected entry with the exact
    // degenerate conventions, so the zeros never leak into the output.
    let mut mw = vec![0.0; nsub];
    let mut ivw = vec![0.0; nsub];
    let mut degenerate = vec![false; nsub];
    let mut any_degenerate = false;
    for i in 0..nsub {
        mw[i] = sqrt_w * means[i];
        if stds[i] < DEGENERATE_SIGMA {
            degenerate[i] = true;
            any_degenerate = true;
        } else {
            ivw[i] = 1.0 / (sqrt_w * stds[i]);
        }
    }

    // Row 0 of the dot-product matrix, QT(0, j), seeds every diagonal.
    let first_row = plan.sliding_dots(&series[..w]);

    // Diagonal k (j − i = k) exists for k in w..nsub; walk them in blocks.
    let diag_count = nsub - w;
    let par = parallel::ambient().for_work(diag_count * nsub / 2, 1 << 15);
    let partials = parallel::map_ranges(par, diag_count, |range| {
        let mut best = vec![f64::NEG_INFINITY; nsub];
        let mut k0 = range.start;
        // Full blocks go through the fixed-width walk (the compiler unrolls
        // and vectorizes the constant-length inner loops); the ragged tail
        // (< DIAG_BLOCK diagonals) falls back to width 1.
        while k0 + DIAG_BLOCK <= range.end {
            walk_diagonal_block::<DIAG_BLOCK>(
                series,
                w,
                nsub,
                w + k0,
                &first_row,
                &mw,
                &ivw,
                &mut best,
            );
            k0 += DIAG_BLOCK;
        }
        while k0 < range.end {
            walk_diagonal_block::<1>(series, w, nsub, w + k0, &first_row, &mw, &ivw, &mut best);
            k0 += 1;
        }
        best
    });
    let mut best = vec![f64::NEG_INFINITY; nsub];
    for part in &partials {
        for (b, &p) in best.iter_mut().zip(part) {
            *b = b.max(p);
        }
    }

    // Highest admissible correlation → smallest distance, with the exact
    // kernels' clamp and non-negativity guard. A window no diagonal ever
    // touched (no admissible neighbour; happens when n ≤ 3w − 2) still holds
    // the −∞ sentinel — map it to ∞, the exact kernels' "no neighbour"
    // value, instead of clamping it to the theoretical max distance.
    let two_w = 2.0 * w as f64;
    let mut dist_sq: Vec<f64> = best
        .iter()
        .map(|&c| {
            if c == f64::NEG_INFINITY {
                f64::INFINITY
            } else {
                (two_w * (1.0 - c.clamp(-1.0, 1.0))).max(0.0)
            }
        })
        .collect();

    if any_degenerate {
        fix_degenerate(&degenerate, w, nsub, &mut dist_sq);
    }

    dist_sq.iter().map(|&d| d.sqrt()).collect()
}

// numeric-mode(fast): the dot recurrence accumulates in diagonal order, not
// element order; reassociation gated by the tolerance-equivalence harness.
/// Walk `B` adjacent diagonals `k..k+B` together, folding each cell's
/// correlation into `best[i]` (row side) and `best[j]` (column side). `B` is
/// a compile-time constant so the inner loops unroll and vectorize.
#[allow(clippy::too_many_arguments)]
fn walk_diagonal_block<const B: usize>(
    x: &[f64],
    w: usize,
    nsub: usize,
    k: usize,
    first_row: &[f64],
    mw: &[f64],
    ivw: &[f64],
    best: &mut [f64],
) {
    let mut dots = [0.0f64; B];
    let mut corrs = [0.0f64; B];
    for t in 0..B {
        dots[t] = first_row[k + t];
    }
    // All `B` diagonals are valid while i < common_len (the shortest,
    // t = B − 1, has nsub − (k + B − 1) cells; ≥ 1 by construction).
    let common_len = nsub - (k + B - 1);
    for i in 0..common_len {
        let mwi = mw[i];
        let ivwi = ivw[i];
        let jbase = i + k;
        let mwj = &mw[jbase..jbase + B];
        let ivwj = &ivw[jbase..jbase + B];
        for t in 0..B {
            // lint-allow(index-stampede): t < B over [f64; B] arrays and
            // B-length slices taken just above — every index is in bounds.
            corrs[t] = (dots[t] - mwi * mwj[t]) * (ivwi * ivwj[t]);
        }
        // Plain compare-selects instead of `f64::max`: correlations are never
        // NaN (finite input, degenerate σ handled via ivw = 0), and `>` lowers
        // to a branch-free select the vectorizer likes.
        let mut row_best = best[i];
        for t in 0..B {
            if corrs[t] > row_best {
                row_best = corrs[t];
            }
        }
        best[i] = row_best;
        let bestj = &mut best[jbase..jbase + B];
        for t in 0..B {
            if corrs[t] > bestj[t] {
                bestj[t] = corrs[t];
            }
        }
        // Advance each diagonal's dot product to row i + 1. The longest read
        // is x[jbase + B − 1 + w] = x[i + k + B − 1 + w]; for
        // i + 1 < common_len that index is < n, so the reads stay in bounds.
        if i + 1 < common_len {
            let xi = x[i];
            let xiw = x[i + w];
            let xj = &x[jbase..jbase + B];
            let xjw = &x[jbase + w..jbase + w + B];
            for t in 0..B {
                // lint-allow(index-stampede): t < B over [f64; B] and the
                // B-length slices taken just above.
                dots[t] += xiw * xjw[t] - xi * xj[t];
            }
        }
    }
    // Drain the longer diagonals (t < B − 1) one at a time past the
    // common region, continuing each recurrence from row common_len − 1.
    for t in 0..B {
        let len_t = nsub - (k + t);
        let mut dot = dots[t];
        for i in common_len..len_t {
            let j = i + k + t;
            // lint-allow(index-stampede): i ≥ common_len ≥ 1 and
            // j − 1 + w = i + k + t − 1 + w < len_t + k + t − 1 + w = n − 1.
            dot += x[i - 1 + w] * x[j - 1 + w] - x[i - 1] * x[j - 1];
            // lint-allow(index-stampede): i < len_t ≤ nsub and j < nsub —
            // both inside the nsub-length mean/σ arrays.
            let c = (dot - mw[i] * mw[j]) * (ivw[i] * ivw[j]);
            best[i] = best[i].max(c);
            best[j] = best[j].max(c);
        }
    }
}

/// Overwrite profile entries involving degenerate (constant) windows with the
/// exact conventions: a degenerate window's NN distance is 0 if another
/// admissible degenerate window exists, else `√w`; a varying window with an
/// admissible degenerate partner caps its NN distance² at `w`.
fn fix_degenerate(degenerate: &[bool], w: usize, nsub: usize, dist_sq: &mut [f64]) {
    // prefix[i] = number of degenerate windows among 0..i (exclusive).
    let mut prefix = vec![0usize; nsub + 1];
    for i in 0..nsub {
        // lint-allow(index-stampede): i < nsub over an nsub+1-length prefix
        // array and nsub-length flags.
        prefix[i + 1] = prefix[i] + usize::from(degenerate[i]);
    }
    let wf = w as f64;
    for i in 0..nsub {
        if i < w && i + w >= nsub {
            // No admissible neighbour at all: the entry is already ∞
            // (matching the exact kernels) — the conventions don't apply.
            continue;
        }
        // Degenerate partners at admissible offsets: j ≤ i − w or j ≥ i + w.
        let left = prefix[(i + 1).saturating_sub(w)];
        let right = if i + w < nsub {
            prefix[nsub] - prefix[i + w]
        } else {
            0
        };
        let has_degenerate_partner = left + right > 0;
        if degenerate[i] {
            dist_sq[i] = if has_degenerate_partner { 0.0 } else { wf };
        } else if has_degenerate_partner {
            dist_sq[i] = dist_sq[i].min(wf);
        }
    }
}

/// Profile-kernel DRAG: every subsequence whose nearest-neighbour distance is
/// ≥ `r`, sorted by distance descending (ties broken by ascending index,
/// matching [`crate::drag::drag`]'s stable sort). Partnerless windows
/// (profile = ∞) are dropped, like exact DRAG's `is_finite()` refinement.
pub fn drag_fast(series: &[f64], w: usize, r: f64, plan: &SelfJoinPlan) -> Vec<Discord> {
    let profile = self_join_profile(series, w, plan);
    let mut out: Vec<Discord> = profile
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d.is_finite() && d >= r)
        .map(|(i, &d)| Discord {
            index: i,
            length: w,
            distance: d,
        })
        .collect();
    out.sort_by(|a, b| b.distance.total_cmp(&a.distance));
    out
}

/// Profile-kernel MERLIN: the top-1 discord at each swept length, computed from
/// the full profile instead of the adaptive-`r` ladder. Sweeps the identical
/// length list as [`crate::merlin::merlin`] (see
/// [`crate::merlin::swept_lengths`]); a length yields `None` exactly when its
/// maximum profile value is below the exact ladder's bail-out floor.
pub fn merlin_fast(series: &[f64], cfg: MerlinConfig) -> Vec<Discord> {
    let lengths = swept_lengths(series.len(), cfg);
    let mut span = obs::span("merlin-sweep-fast");
    span.add_field("n", series.len());
    span.add_field("lengths", lengths.len());
    let Some(&max_len) = lengths.last() else {
        return Vec::new();
    };
    let plan = SelfJoinPlan::new(series, max_len);
    let par = parallel::ambient().for_work(lengths.len() * series.len(), 1 << 14);
    parallel::map_indexed(par, &lengths, |_, &w| top_discord_at(series, w, &plan))
        .into_iter()
        .flatten()
        .collect()
}

/// Top-1 discord at one length: the argmax over *finite* profile entries
/// (first index on strict maxima, matching DRAG's ascending-index tie
/// break; partnerless ∞ entries are excluded like exact DRAG's
/// `is_finite()` check), or `None` when even the best distance sits below
/// the discord floor.
fn top_discord_at(series: &[f64], w: usize, plan: &SelfJoinPlan) -> Option<Discord> {
    let profile = self_join_profile(series, w, plan);
    let mut best_i = 0usize;
    let mut best_d = f64::NEG_INFINITY;
    for (i, &d) in profile.iter().enumerate() {
        if d.is_finite() && d > best_d {
            best_d = d;
            best_i = i;
        }
    }
    if best_d < MIN_DISCORD_DIST {
        return None;
    }
    Some(Discord {
        index: best_i,
        length: w,
        distance: best_d,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drag::drag;
    use crate::matrix_profile::matrix_profile;
    use crate::merlin::merlin;
    use std::f64::consts::PI;

    fn anomalous(n: usize, p: usize, at: usize, len: usize) -> Vec<f64> {
        let mut x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * i as f64 / p as f64).sin())
            .collect();
        for i in at..at + len {
            x[i] = (4.0 * PI * i as f64 / p as f64).sin();
        }
        x
    }

    #[test]
    fn profile_matches_brute_force_matrix_profile() {
        let x = anomalous(300, 25, 140, 30);
        for w in [5usize, 16, 33] {
            let plan = SelfJoinPlan::new(&x, 33);
            let fast = self_join_profile(&x, w, &plan);
            let truth = matrix_profile(&x, w);
            assert_eq!(fast.len(), truth.profile.len());
            for (i, (&f, &t)) in fast.iter().zip(&truth.profile).enumerate() {
                // Near-zero entries (self-matches) amplify FFT round-off ε
                // into √ε through the final sqrt, hence the absolute term.
                assert!(
                    (f - t).abs() <= 1e-5 + 1e-6 * t.abs(),
                    "w={w} i={i}: fast {f} vs brute {t}"
                );
            }
        }
    }

    #[test]
    fn profile_is_identical_at_any_thread_count() {
        let x = anomalous(400, 20, 180, 25);
        let plan = SelfJoinPlan::new(&x, 40);
        let serial = parallel::with_ambient(1, || self_join_profile(&x, 24, &plan));
        for t in [2usize, 4, 8] {
            let par = parallel::with_ambient(t, || self_join_profile(&x, 24, &plan));
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "profile not bit-identical at {t} threads"
            );
        }
    }

    #[test]
    fn drag_fast_matches_exact_drag_sets() {
        let x = anomalous(280, 22, 130, 28);
        let w = 18;
        let plan = SelfJoinPlan::new(&x, w);
        for r in [3.0f64, 2.0, 1.0] {
            let fast = drag_fast(&x, w, r, &plan);
            let exact = drag(&x, w, r);
            assert_eq!(
                fast.iter().map(|d| d.index).collect::<Vec<_>>(),
                exact.iter().map(|d| d.index).collect::<Vec<_>>(),
                "r={r}"
            );
            for (f, e) in fast.iter().zip(&exact) {
                assert!(
                    (f.distance - e.distance).abs() <= 1e-6 * (1.0 + e.distance),
                    "r={r} idx {}: {} vs {}",
                    f.index,
                    f.distance,
                    e.distance
                );
            }
        }
    }

    #[test]
    fn merlin_fast_matches_exact_merlin() {
        let x = anomalous(420, 30, 200, 35);
        let cfg = MerlinConfig::new(20, 30).with_step(5);
        let fast = merlin_fast(&x, cfg);
        let exact = merlin(&x, cfg);
        assert_eq!(fast.len(), exact.len());
        for (f, e) in fast.iter().zip(&exact) {
            assert_eq!((f.index, f.length), (e.index, e.length));
            assert!(
                (f.distance - e.distance).abs() <= 1e-6 * (1.0 + e.distance),
                "length {}: {} vs {}",
                f.length,
                f.distance,
                e.distance
            );
        }
    }

    #[test]
    fn merlin_fast_on_constant_series_returns_nothing() {
        let x = vec![1.0; 200];
        assert!(merlin_fast(&x, MerlinConfig::new(10, 12)).is_empty());
    }

    #[test]
    fn partnerless_windows_match_exact_kernels() {
        // 2w ≤ n ≤ 3w − 2: windows m with n − 2w < m < w have no admissible
        // neighbour. The profile must report ∞ there (exactly like
        // matrix_profile), and the discord searches must never surface them.
        let x = anomalous(60, 12, 30, 10);
        let w = 25;
        let n = x.len();
        let plan = SelfJoinPlan::new(&x, w);
        let fast = self_join_profile(&x, w, &plan);
        let truth = matrix_profile(&x, w);
        assert_eq!(fast.len(), truth.profile.len());
        let mut saw_partnerless = false;
        for (i, (&f, &t)) in fast.iter().zip(&truth.profile).enumerate() {
            if i > n - 2 * w && i < w {
                assert!(t.is_infinite(), "oracle regression: i={i} should be ∞");
                assert!(f.is_infinite(), "i={i}: partnerless window reported {f}");
                saw_partnerless = true;
            } else {
                assert!(
                    (f - t).abs() <= 1e-5 + 1e-6 * t.abs(),
                    "i={i}: fast {f} vs brute {t}"
                );
            }
        }
        assert!(saw_partnerless, "fixture must exercise the regime");

        // drag_fast drops ∞ entries exactly as exact DRAG's is_finite() does.
        for r in [0.5f64, 2.0] {
            let fast_set: Vec<usize> = drag_fast(&x, w, r, &plan).iter().map(|d| d.index).collect();
            let exact_set: Vec<usize> = drag(&x, w, r).iter().map(|d| d.index).collect();
            assert_eq!(fast_set, exact_set, "r={r}");
        }

        // merlin_fast agrees with the exact ladder across the whole regime.
        let cfg = MerlinConfig::new(20, 29).with_step(3);
        let fast = merlin_fast(&x, cfg);
        let exact = merlin(&x, cfg);
        assert_eq!(fast.len(), exact.len());
        for (f, e) in fast.iter().zip(&exact) {
            assert_eq!((f.index, f.length), (e.index, e.length));
            assert!((f.distance - e.distance).abs() <= 1e-5 + 1e-6 * e.distance.abs());
        }
    }

    #[test]
    fn degenerate_windows_follow_exact_conventions() {
        // Flat head, varying tail: windows fully inside the head are
        // degenerate and (for w = 10) have other admissible degenerate
        // windows, so their NN distance is 0; varying windows adjacent to
        // degenerate partners cap at √w.
        let mut x = vec![2.0; 60];
        for (i, v) in x[30..60].iter_mut().enumerate() {
            *v = (i as f64 * 0.9).sin();
        }
        let w = 10;
        let plan = SelfJoinPlan::new(&x, w);
        let fast = self_join_profile(&x, w, &plan);
        let truth = matrix_profile(&x, w);
        for (i, (&f, &t)) in fast.iter().zip(&truth.profile).enumerate() {
            assert!(
                (f - t).abs() <= 1e-5 + 1e-6 * t.abs(),
                "i={i}: fast {f} vs brute {t}"
            );
        }
        assert!(fast[0].abs() < 1e-9, "flat-vs-flat must be 0");
    }
}
