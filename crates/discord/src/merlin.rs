//! MERLIN — parameter-free discovery of arbitrary-length discords
//! (Nakamura, Imamura, Mercer & Keogh, ICDM 2020).
//!
//! MERLIN sweeps a range of subsequence lengths and, for each, finds the
//! top-1 discord by driving DRAG with an adaptively chosen range `r`:
//!
//! * at the first length, `r` starts at `2√w` (the theoretical maximum of a
//!   z-normalised distance is `2√w`) and halves until DRAG succeeds;
//! * at each subsequent length, the previous discord distance — rescaled by
//!   `√(w/w_prev)` since z-normalised distances grow with `√w` — seeds `r`
//!   at 99%, shrinking geometrically on failure.
//!
//! The output is one [`Discord`] per length, exactly what TriAD's voting
//! stage consumes (`s_dd` in Eq. 8).

use crate::drag::drag_prepared;
use crate::Discord;
use tsops::distance::ZnormSeries;

/// Length-sweep configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MerlinConfig {
    /// Smallest subsequence length (≥ 2).
    pub min_len: usize,
    /// Largest subsequence length (inclusive).
    pub max_len: usize,
    /// Length increment between sweeps (1 = every length, the paper's
    /// setting; larger steps trade recall for speed).
    pub step: usize,
}

impl MerlinConfig {
    pub fn new(min_len: usize, max_len: usize) -> Self {
        assert!(min_len >= 2, "min_len must be ≥ 2");
        assert!(max_len >= min_len, "max_len < min_len");
        MerlinConfig {
            min_len,
            max_len,
            step: 1,
        }
    }

    pub fn with_step(mut self, step: usize) -> Self {
        assert!(step >= 1);
        self.step = step;
        self
    }

    /// The paper's case-study sweep: lengths 3 to `min(300, limit)`.
    pub fn paper_sweep(limit: usize) -> Self {
        let max = limit.min(300).max(3);
        MerlinConfig::new(3.min(max), max)
    }
}

/// The lengths a sweep over `series_len` points actually visits: ascending
/// from `min_len` by `step`, stopping at the first length the series cannot
/// hold two non-overlapping subsequences of. Shared by the exact ladder
/// ([`merlin`]) and the fast profile kernel ([`crate::fast::merlin_fast`]) so
/// both kernels explore the identical candidate length order.
pub fn swept_lengths(series_len: usize, cfg: MerlinConfig) -> Vec<usize> {
    let mut lengths = Vec::new();
    let mut w = cfg.min_len;
    while w <= cfg.max_len && series_len >= 2 * w {
        lengths.push(w);
        w += cfg.step;
    }
    lengths
}

/// Run MERLIN over `series`. Returns the top discord found at each swept
/// length (lengths the series is too short for are skipped).
///
/// ```
/// // A periodic signal with a level-shift anomaly at 150..170.
/// let mut x: Vec<f64> = (0..400)
///     .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 25.0).sin())
///     .collect();
/// for v in &mut x[150..170] { *v += 2.0; }
///
/// let cfg = discord::merlin::MerlinConfig::new(10, 30).with_step(10);
/// let discords = discord::merlin::merlin(&x, cfg);
/// assert_eq!(discords.len(), 3); // one per swept length
/// // Every per-length discord intersects the anomaly.
/// assert!(discords.iter().all(|d| d.index < 170 && d.index + d.length > 150));
/// ```
pub fn merlin(series: &[f64], cfg: MerlinConfig) -> Vec<Discord> {
    merlin_with(series, cfg, |zs, r| drag_prepared(zs, r))
}

/// Top-`k` **non-overlapping** discords per swept length — the extension
/// needed off the UCR contract (multiple anomalous events per test split;
/// see `ucrgen::stress`). `k = 1` matches [`merlin`] exactly.
pub fn merlin_top_k(series: &[f64], cfg: MerlinConfig, k: usize) -> Vec<Vec<Discord>> {
    assert!(k >= 1, "k must be ≥ 1");
    let mut out: Vec<Vec<Discord>> = Vec::new();
    let mut prev: Option<Discord> = None;
    let mut w = cfg.min_len;
    while w <= cfg.max_len {
        if series.len() < 2 * w {
            break;
        }
        let zs = ZnormSeries::new(series, w);
        let mut r = match prev {
            Some(p) if p.distance > 1e-9 => 0.99 * p.distance * (w as f64 / p.length as f64).sqrt(),
            _ => 2.0 * (w as f64).sqrt(),
        };
        let mut found: Vec<Discord> = Vec::new();
        for attempt in 0..200 {
            let mut ds = drag_prepared(&zs, r);
            if !ds.is_empty() {
                // The adaptive r is tuned to catch the top-1; runner-up
                // discords can sit below it. Re-run once at half the top
                // distance so every discord within 2× of the best surfaces,
                // then keep the k best non-overlapping ones.
                if k > 1 {
                    let wider_r = ds[0].distance * 0.5;
                    if wider_r < r {
                        ds = drag_prepared(&zs, wider_r);
                    }
                }
                for d in ds {
                    if found.len() >= k {
                        break;
                    }
                    if found.iter().all(|f| f.index.abs_diff(d.index) >= w) {
                        found.push(d);
                    }
                }
                break;
            }
            r *= if attempt < 20 { 0.99 } else { 0.5 };
            if r < 1e-9 {
                break;
            }
        }
        if let Some(top) = found.first() {
            prev = Some(*top);
            out.push(found);
        }
        w += cfg.step;
    }
    out
}

/// Shared driver: the adaptive-`r` sweep, parameterised over the DRAG
/// implementation so MERLIN++ can swap in its indexed refinement.
///
/// The per-length searches run on the ambient worker pool. That is safe
/// because each length's *result* is independent of its `r` seed: whenever
/// DRAG succeeds it returns the exact top-1 for that length (phase 1 keeps a
/// superset of every subsequence with NN distance ≥ `r`, phase 2 computes
/// exact distances, and the stable sort breaks ties by ascending candidate
/// index), and the retry loop always shrinks `r` into the success region.
/// The seed therefore only affects *speed* — so every length after the
/// first is seeded from the first length's discord (a pure function of the
/// input, never of the thread count or of sibling lengths), and the sweep
/// is bit-identical at any worker count.
pub(crate) fn merlin_with(
    series: &[f64],
    cfg: MerlinConfig,
    run_drag: impl Fn(&ZnormSeries<'_>, f64) -> Vec<Discord> + Sync,
) -> Vec<Discord> {
    // Swept lengths the series is long enough for (at least two
    // non-overlapping subsequences); lengths ascend, so stop at the first
    // too-long one exactly as the serial loop's `break` did.
    let lengths = swept_lengths(series.len(), cfg);
    let mut span = obs::span("merlin-sweep");
    span.add_field("n", series.len());
    span.add_field("lengths", lengths.len());
    let Some((&first_len, rest_lens)) = lengths.split_first() else {
        return Vec::new();
    };

    // First length: the paper's cold start (r = 2√w, the z-norm maximum).
    let first = sweep_one(series, first_len, None, &run_drag);

    let par = parallel::ambient().for_work(rest_lens.len() * series.len(), 1 << 14);
    let rest = parallel::map_indexed(par, rest_lens, |_, &w| {
        sweep_one(series, w, first, &run_drag)
    });

    std::iter::once(first).chain(rest).flatten().collect()
}

/// The adaptive-`r` search at one length: shrink `r` geometrically from the
/// seed until DRAG yields something (`r` can always reach a success region —
/// at r→0 every subsequence is reported), gently at first (the common case
/// per the paper), then halving so pathological series terminate fast.
fn sweep_one(
    series: &[f64],
    w: usize,
    seed: Option<Discord>,
    run_drag: &(impl Fn(&ZnormSeries<'_>, f64) -> Vec<Discord> + Sync),
) -> Option<Discord> {
    let zs = ZnormSeries::new(series, w);
    let mut r = match seed {
        Some(p) if p.distance > 1e-9 => 0.99 * p.distance * (w as f64 / p.length as f64).sqrt(),
        _ => 2.0 * (w as f64).sqrt(),
    };
    for attempt in 0..200 {
        let ds = run_drag(&zs, r);
        if let Some(top) = ds.first() {
            return Some(*top);
        }
        r *= if attempt < 20 { 0.99 } else { 0.5 };
        if r < 1e-9 {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix_profile::matrix_profile;
    use std::f64::consts::PI;

    fn anomalous(n: usize, p: usize, at: usize, len: usize) -> Vec<f64> {
        let mut x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * i as f64 / p as f64).sin())
            .collect();
        // Frequency-shift anomaly: double frequency inside [at, at+len).
        for i in at..at + len {
            x[i] = (4.0 * PI * i as f64 / p as f64).sin();
        }
        x
    }

    #[test]
    fn merlin_matches_brute_force_at_every_length() {
        let x = anomalous(420, 30, 200, 35);
        let cfg = MerlinConfig::new(20, 30).with_step(5);
        let found = merlin(&x, cfg);
        assert_eq!(found.len(), 3); // lengths 20, 25, 30
        for d in &found {
            let truth = matrix_profile(&x, d.length).top_discord().unwrap();
            assert!(
                (d.distance - truth.distance).abs() < 1e-6,
                "length {}: merlin {} vs truth {}",
                d.length,
                d.distance,
                truth.distance
            );
        }
    }

    #[test]
    fn merlin_localises_the_anomaly() {
        let x = anomalous(500, 25, 300, 40);
        let found = merlin(&x, MerlinConfig::new(15, 45).with_step(10));
        assert!(!found.is_empty());
        // The majority of per-length discords should intersect the anomaly.
        let hits = found
            .iter()
            .filter(|d| d.index < 340 && d.index + d.length > 300)
            .count();
        assert!(
            hits * 2 >= found.len(),
            "only {hits}/{} discords hit the anomaly",
            found.len()
        );
    }

    #[test]
    fn merlin_skips_lengths_longer_than_half_the_series() {
        let x = anomalous(100, 10, 50, 10);
        let found = merlin(&x, MerlinConfig::new(40, 80).with_step(10));
        // lengths 60, 70, 80 need ≥ 120/140/160 points — skipped.
        assert!(found.iter().all(|d| d.length <= 50));
    }

    #[test]
    fn merlin_on_constant_series_returns_nothing_meaningful() {
        let x = vec![1.0; 200];
        let found = merlin(&x, MerlinConfig::new(10, 12));
        // All-zero distances: either empty or zero-distance reports.
        assert!(found.iter().all(|d| d.distance < 1e-9) || found.is_empty());
    }

    #[test]
    fn top_k_first_entry_matches_merlin_and_entries_do_not_overlap() {
        let mut x = anomalous(500, 25, 120, 30);
        for i in 350..380 {
            x[i] += 2.0; // second event
        }
        let cfg = MerlinConfig::new(20, 30).with_step(10);
        let top1 = merlin(&x, cfg);
        let topk = merlin_top_k(&x, cfg, 2);
        assert_eq!(top1.len(), topk.len());
        for (a, b) in top1.iter().zip(&topk) {
            assert_eq!(a.index, b[0].index);
            assert!((a.distance - b[0].distance).abs() < 1e-9);
            for pair in b.windows(2) {
                assert!(pair[0].distance >= pair[1].distance);
                assert!(pair[0].index.abs_diff(pair[1].index) >= a.length);
            }
        }
        // With two injected events, some length should yield 2 discords.
        assert!(topk.iter().any(|v| v.len() == 2));
    }

    #[test]
    fn paper_sweep_clamps() {
        let cfg = MerlinConfig::paper_sweep(1000);
        assert_eq!((cfg.min_len, cfg.max_len), (3, 300));
        let cfg = MerlinConfig::paper_sweep(50);
        assert_eq!((cfg.min_len, cfg.max_len), (3, 50));
    }
}
