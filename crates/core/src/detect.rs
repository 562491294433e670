//! Inference: window ranking → single-window selection → MERLIN → voting
//! (Sec. III-D).

use crate::config::TriadConfig;
use crate::error::DetectError;
use crate::features::FeatureExtractor;
use crate::train::Model;
use crate::Domain;
use discord::fast::merlin_fast;
use discord::merlin::MerlinConfig;
use discord::Discord;
use std::ops::Range;
use tsops::window::{Segmenter, Windows};

/// The MERLIN length sweep stage 3 runs for a selected window of `window_len`
/// points: `merlin_min_len..=min(merlin_max_len, window_len)` in steps of
/// `merlin_step`.
pub fn merlin_sweep(cfg: &TriadConfig, window_len: usize) -> MerlinConfig {
    let max_len = cfg.merlin_max_len.min(window_len.max(cfg.merlin_min_len));
    MerlinConfig::new(cfg.merlin_min_len.min(max_len).max(2), max_len).with_step(cfg.merlin_step)
}

/// Per-domain window-similarity ranking (the data behind Fig. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct DomainRanking {
    pub domain: Domain,
    /// Mean pairwise similarity of each test window to all others — low
    /// means deviant.
    pub scores: Vec<f64>,
    /// Index of the most deviant window (arg-min of `scores`).
    pub top: usize,
    /// The `Z` most deviant windows, most deviant first (`tops[0] == top`).
    pub tops: Vec<usize>,
}

/// Full detection output.
#[derive(Debug, Clone, PartialEq)]
pub struct TriadDetection {
    /// Per-test-point vote totals (Eq. 8).
    pub votes: Vec<f64>,
    /// Final point-wise labels.
    pub prediction: Vec<bool>,
    /// Voting threshold used (mean of the positive votes).
    pub threshold: f64,
    /// Similarity rankings per active domain.
    pub rankings: Vec<DomainRanking>,
    /// Candidate windows nominated per domain (deduplicated), as test-split
    /// ranges — "up to three" (Sec. III-D).
    pub candidates: Vec<Range<usize>>,
    /// The single window selected by comparison against the training split.
    pub selected_window: Range<usize>,
    /// Region (selected window + padding) handed to MERLIN.
    pub search_region: Range<usize>,
    /// Per-length discords found by MERLIN, in test-split coordinates.
    pub discords: Vec<Discord>,
    /// Whether the Sec. IV-G fallback fired (discords disagreed with the
    /// selected window).
    pub used_fallback: bool,
}

impl TriadDetection {
    /// Convenience: the predicted anomalous region as the hull of positive
    /// points (`None` if nothing was flagged).
    pub fn predicted_region(&self) -> Option<Range<usize>> {
        let first = self.prediction.iter().position(|&b| b)?;
        let last = self.prediction.iter().rposition(|&b| b)?;
        Some(first..last + 1)
    }
}

/// Mean-pairwise-similarity scores from unit-norm embedding rows.
///
/// The pairwise dots are pure, so they are computed in parallel (keyed by
/// the lower index `i`); the accumulation into per-window sums then replays
/// the historical serial order — `i` ascending, `j` ascending, `scores[i]`
/// before `scores[j]` — so the result is bit-identical at any thread count.
fn similarity_scores(rows: &[Vec<f32>]) -> Vec<f64> {
    let m = rows.len();
    if m <= 1 {
        return vec![0.0; m];
    }
    let d = rows.first().map_or(0, |r| r.len());
    let par = parallel::ambient().for_work((m * (m - 1) / 2) * d.max(1), 1 << 15);
    let dots: Vec<Vec<f64>> = parallel::map_indexed(par, rows, |i, ri| {
        ((i + 1)..m)
            .map(|j| parallel::reduce::dot_f32_in_order(ri, &rows[j]))
            .collect()
    });
    let mut scores = vec![0.0f64; m];
    for (i, drow) in dots.iter().enumerate() {
        for (off, &dot) in drow.iter().enumerate() {
            scores[i] += dot;
            scores[i + 1 + off] += dot;
        }
    }
    for s in &mut scores {
        *s /= (m - 1) as f64;
    }
    scores
}

/// Rank windows by ascending similarity score: build the [`DomainRanking`]
/// shared by the offline and streaming paths.
fn ranking_from_scores(domain: Domain, scores: Vec<f64>, z: usize) -> DomainRanking {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let tops: Vec<usize> = order.into_iter().take(z).collect();
    DomainRanking {
        domain,
        top: tops.first().copied().unwrap_or(0),
        tops,
        scores,
    }
}

/// Incremental stage-1 ranker: windows arrive one at a time (a live stream)
/// instead of all at once.
///
/// Embeds each pushed window with the trained encoders (batch of one — every
/// op in the embed path is batch-row independent, so the rows are
/// bit-identical to the offline chunked path) and folds it into running
/// pairwise-dot sums in the exact accumulation order of the offline
/// [`similarity_scores`]: the scores from [`rankings`](OnlineRanker::rankings)
/// are therefore *bit-equal* to an offline ranking over the same windows, not
/// merely close. That equality is what lets a streaming server finish with
/// [`detect_from_rankings`] and reproduce `detect` exactly.
#[derive(Debug, Clone)]
pub struct OnlineRanker {
    domains: Vec<Domain>,
    /// Per domain: one unit-norm embedding row per pushed window.
    rows: Vec<Vec<Vec<f32>>>,
    /// Per domain: running pairwise-dot sum per window (divided by `m−1`
    /// only when rankings are materialised).
    sums: Vec<Vec<f64>>,
}

impl OnlineRanker {
    /// An empty ranker over the model's active domains (in encoder order,
    /// matching the offline ranking order).
    pub fn new(model: &Model) -> Self {
        let domains: Vec<Domain> = model.encoders.iter().map(|(d, _)| *d).collect();
        let k = domains.len();
        OnlineRanker {
            domains,
            rows: vec![Vec::new(); k],
            sums: vec![Vec::new(); k],
        }
    }

    /// Number of windows pushed so far.
    pub fn window_count(&self) -> usize {
        self.rows.first().map_or(0, |r| r.len())
    }

    /// The active domains, in ranking order.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Embed one completed window in every active domain and fold it into
    /// the running similarity sums. Returns the new window's mean similarity
    /// to all previous windows, per domain (0.0 for the very first window) —
    /// the instantaneous normality signal a streaming caller thresholds.
    pub fn push_window(
        &mut self,
        model: &Model,
        fx: &FeatureExtractor,
        window: &[f64],
    ) -> Vec<(Domain, f64)> {
        let mut out = Vec::with_capacity(self.domains.len());
        for (di, d) in self.domains.iter().enumerate() {
            let row = model
                .embed_windows(fx, &[window], *d)
                .pop()
                .unwrap_or_default();
            let prior = &mut self.rows[di];
            let m = prior.len();
            let mut own = 0.0f64;
            for (i, other) in prior.iter().enumerate() {
                let dot: f64 = other
                    .iter()
                    .zip(&row)
                    .map(|(a, b)| (*a as f64) * (*b as f64))
                    .sum();
                self.sums[di][i] += dot;
                own += dot;
            }
            self.sums[di].push(own);
            prior.push(row);
            let mean = if m == 0 { 0.0 } else { own / m as f64 };
            out.push((*d, mean));
        }
        out
    }

    /// Materialise the per-domain rankings over every window pushed so far;
    /// bit-identical to the offline stage-1 rankings of the same windows.
    pub fn rankings(&self, top_z: usize) -> Vec<DomainRanking> {
        let z = top_z.max(1);
        let m = self.window_count();
        self.domains
            .iter()
            .enumerate()
            .map(|(di, d)| {
                let scores: Vec<f64> = if m <= 1 {
                    vec![0.0; m]
                } else {
                    self.sums[di].iter().map(|s| s / (m - 1) as f64).collect()
                };
                ranking_from_scores(*d, scores, z)
            })
            .collect()
    }

    /// Raw state access for checkpointing: `(embedding rows, dot sums)` per
    /// domain, aligned with [`domains`](OnlineRanker::domains).
    pub fn state(&self) -> (&[Vec<Vec<f32>>], &[Vec<f64>]) {
        (&self.rows, &self.sums)
    }

    /// Rebuild from checkpointed state; lengths must be consistent with the
    /// model's domain list and with each other.
    pub fn from_state(model: &Model, rows: Vec<Vec<Vec<f32>>>, sums: Vec<Vec<f64>>) -> Self {
        let fresh = OnlineRanker::new(model);
        assert_eq!(
            rows.len(),
            fresh.domains.len(),
            "ranker state: domain count"
        );
        assert_eq!(
            sums.len(),
            fresh.domains.len(),
            "ranker state: domain count"
        );
        for (r, s) in rows.iter().zip(&sums) {
            assert_eq!(r.len(), s.len(), "ranker state: rows vs sums length");
        }
        OnlineRanker {
            domains: fresh.domains,
            rows,
            sums,
        }
    }
}

/// Distance from a z-normalised probe window to its nearest training
/// subsequence (stride-1 traversal, Sec. III-D1).
///
/// The stride-1 scan splits into per-worker ranges whose minima fold with
/// `f64::min` — exactly associative, so the parallel fold is bit-identical
/// to the serial scan.
fn nearest_normal_distance(train: &[f64], probe: &[f64]) -> f64 {
    let l = probe.len();
    if train.len() < l {
        return f64::INFINITY;
    }
    let z = tsops::stats::znormalize(probe);
    let (means, stds) = tsops::stats::rolling_mean_std(train, l);
    let starts = means.len().min(stds.len());
    let par = parallel::ambient().for_work(starts * l, 1 << 15);
    let partials = parallel::map_ranges(par, starts, |range| {
        let mut best = f64::INFINITY;
        // The probe is zero-mean, so the training mean cancels out of the
        // cross term; only σ is needed.
        for start in range {
            let sigma = stds[start];
            let seg = &train[start..start + l];
            let d2 = if sigma < 1e-12 {
                l as f64 // constant training segment vs unit-norm probe
            } else {
                let dot = parallel::reduce::sum_in_order(z.iter().zip(seg).map(|(a, t)| a * t));
                (2.0 * l as f64 - 2.0 * dot / sigma).max(0.0)
            };
            if d2 < best {
                best = d2;
            }
        }
        best
    });
    partials.into_iter().fold(f64::INFINITY, f64::min).sqrt()
}

/// Run the full detection pipeline on a test split, validating the input
/// first: an empty test split has nothing to rank, and a single NaN/Inf
/// sample would silently poison the similarity scores and the discord
/// search rather than fail loudly.
pub fn try_detect(
    cfg: &TriadConfig,
    model: &Model,
    fx: &FeatureExtractor,
    segmenter: &Segmenter,
    train: &[f64],
    test: &[f64],
) -> Result<TriadDetection, DetectError> {
    if test.is_empty() {
        return Err(DetectError::EmptyTest);
    }
    if let Some(index) = test.iter().position(|v| !v.is_finite()) {
        return Err(DetectError::NonFiniteTest { index });
    }
    if let Some(index) = train.iter().position(|v| !v.is_finite()) {
        return Err(DetectError::NonFiniteTrain { index });
    }
    Ok(run_detect(cfg, model, fx, segmenter, train, test))
}

/// Panicking convenience wrapper over [`try_detect`] for experiment and
/// test code that constructs its own (known-finite) inputs. Server-side
/// code must use [`try_detect`] so a bad request cannot abort a worker.
pub fn detect(
    cfg: &TriadConfig,
    model: &Model,
    fx: &FeatureExtractor,
    segmenter: &Segmenter,
    train: &[f64],
    test: &[f64],
) -> TriadDetection {
    match try_detect(cfg, model, fx, segmenter, train, test) {
        Ok(det) => det,
        // lint-allow(no-panic): documented panicking convenience wrapper; the
        // fallible path is try_detect and serve/cli use it
        Err(e) => panic!("detect: {e}"),
    }
}

fn run_detect(
    cfg: &TriadConfig,
    model: &Model,
    fx: &FeatureExtractor,
    segmenter: &Segmenter,
    train: &[f64],
    test: &[f64],
) -> TriadDetection {
    // Scope the deterministic worker pool to this detection; everything
    // inside is thread-count invariant (see crates/parallel).
    parallel::with_ambient(cfg.threads, || {
        obs::enable_from_config(cfg.trace);
        let mut root = obs::span("detect");
        root.add_field("n_test", test.len());
        let n = test.len();
        // Segment the test split; a split shorter than one window becomes a
        // single clamped window.
        let windows: Windows = segmenter.segment_clamped(n);
        let slices: Vec<&[f64]> = (0..windows.count())
            .map(|i| windows.slice(test, i))
            .collect();

        // --- Stage 1: per-domain window ranking (top Z per domain; the paper
        //     uses Z = 1 since every test set holds a single event) ---
        let z = cfg.top_z.max(1);
        let mut rankings = Vec::with_capacity(model.encoders.len());
        for (d, _) in &model.encoders {
            let rows = {
                let mut s = obs::span("featurize");
                s.add_field("domain", format!("{d:?}"));
                s.add_field("windows", slices.len());
                model.embed_windows_par(cfg, fx, &slices, *d)
            };
            let ranking = {
                let mut s = obs::span("rank");
                s.add_field("domain", format!("{d:?}"));
                let scores = similarity_scores(&rows);
                ranking_from_scores(*d, scores, z)
            };
            rankings.push(ranking);
        }

        detect_from_rankings(cfg, train, test, &windows, rankings)
    })
}

/// Stages 2–4 of the pipeline, starting from already-computed stage-1
/// rankings: single-window selection against the training split, MERLIN
/// discord search, and voting.
///
/// This is the batch pipeline's back half exposed for callers that produced
/// the rankings some other way — above all the streaming engine, which ranks
/// windows incrementally with [`OnlineRanker`] and then calls this to close a
/// stream with a detection identical to the offline [`detect`].
pub fn detect_from_rankings(
    cfg: &TriadConfig,
    train: &[f64],
    test: &[f64],
    windows: &Windows,
    rankings: Vec<DomainRanking>,
) -> TriadDetection {
    // Streaming callers reach stages 2–4 directly, so the ambient worker
    // pool is (re-)scoped here as well; nesting under `run_detect` is a
    // no-op since the request is the same.
    parallel::with_ambient(cfg.threads, move || {
        obs::enable_from_config(cfg.trace);
        detect_from_rankings_inner(cfg, train, test, windows, rankings)
    })
}

fn detect_from_rankings_inner(
    cfg: &TriadConfig,
    train: &[f64],
    test: &[f64],
    windows: &Windows,
    rankings: Vec<DomainRanking>,
) -> TriadDetection {
    let n = test.len();
    let mut cand_idx: Vec<usize> = rankings
        .iter()
        .flat_map(|r| r.tops.iter().copied())
        .collect();
    cand_idx.sort_unstable();
    cand_idx.dedup();
    let candidates: Vec<Range<usize>> = cand_idx.iter().map(|&i| windows.range(i)).collect();

    // --- Stage 2: single-window selection against the training split ---
    let selected_window = {
        let mut s = obs::span("narrow");
        s.add_field("candidates", candidates.len());
        candidates
            .iter()
            .max_by(|a, b| {
                nearest_normal_distance(train, &test[(*a).clone()])
                    .total_cmp(&nearest_normal_distance(train, &test[(*b).clone()]))
            })
            .cloned()
            .unwrap_or(0..n.min(windows.len))
    };

    // --- Stage 3: MERLIN around the selected window ---
    // The sweep runs on the MASS/STOMP profile kernel; the exact ladder
    // (`discord::merlin::merlin`) is its oracle (DESIGN.md "Discord kernel").
    let l = selected_window.len();
    let pad = (cfg.merlin_pad_windows * l as f64) as usize;
    let region_start = selected_window.start.saturating_sub(pad);
    let region_end = (selected_window.end + pad).min(n);
    let search_region = region_start..region_end;
    let region = &test[search_region.clone()];

    let sweep = merlin_sweep(cfg, l);
    let discords: Vec<Discord> = {
        let mut s = obs::span("discord");
        s.add_field("region_len", region.len());
        let found: Vec<Discord> = merlin_fast(region, sweep)
            .into_iter()
            .map(|d| Discord {
                index: d.index + region_start,
                ..d
            })
            .collect();
        s.add_field("discords", found.len());
        found
    };

    let mut vote_span = obs::span("vote");
    // --- Stage 4: voting (Eq. 8) ---
    // Plain mode: every source contributes one vote, exactly Eq. 8. Weighted
    // mode (the paper's Sec. III-D3 future-work scoring): discord votes are
    // normalised by the number of swept lengths so the window vote and the
    // discord evidence are on comparable scales, and the window vote carries
    // a configurable weight.
    let discord_vote = if cfg.weighted_voting && !discords.is_empty() {
        1.0 / discords.len() as f64
    } else {
        1.0
    };
    let window_vote = if cfg.weighted_voting {
        cfg.triad_vote_weight
    } else {
        1.0
    };
    let mut votes = vec![0.0f64; n];
    for v in &mut votes[selected_window.clone()] {
        *v += window_vote; // s_TriAD
    }
    for d in &discords {
        let r = d.range();
        for v in &mut votes[r.start.min(n)..r.end.min(n)] {
            *v += discord_vote; // s_dd, one vote per length
        }
    }
    let positives: Vec<f64> = votes.iter().copied().filter(|&v| v > 0.0).collect();
    let threshold = if positives.is_empty() {
        0.0
    } else {
        positives.iter().sum::<f64>() / positives.len() as f64
    };
    let mut prediction: Vec<bool> = votes.iter().map(|&v| v > threshold).collect();

    // --- Sec. IV-G fallback: anomalous segment dominating the window ---
    // If the voting result contains no positives inside the selected window,
    // the discord search was likely inverted (normal data flagged as the
    // "odd one out"); flag the whole selected window instead.
    let any_inside = prediction[selected_window.clone()].iter().any(|&b| b);
    let used_fallback = !any_inside;
    if used_fallback {
        for p in &mut prediction {
            *p = false;
        }
        for p in &mut prediction[selected_window.clone()] {
            *p = true;
        }
    }
    vote_span.add_field("used_fallback", used_fallback);
    drop(vote_span);

    TriadDetection {
        votes,
        prediction,
        threshold,
        rankings,
        candidates,
        selected_window,
        search_region,
        discords,
        used_fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similarity_scores_flag_the_odd_row() {
        let mut rows = vec![vec![1.0f32, 0.0, 0.0]; 5];
        rows.push(vec![0.0, 1.0, 0.0]); // deviant
        let s = similarity_scores(&rows);
        let argmin = s
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(argmin, 5);
    }

    #[test]
    fn similarity_scores_degenerate_sizes() {
        assert!(similarity_scores(&[]).is_empty());
        assert_eq!(similarity_scores(&[vec![1.0, 0.0]]), vec![0.0]);
    }

    #[test]
    fn nearest_normal_distance_zero_for_training_shapes() {
        let train: Vec<f64> = (0..300)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 30.0).sin())
            .collect();
        let probe = &train[60..135]; // an exact training window
        let d = nearest_normal_distance(&train, probe);
        assert!(d < 1e-4, "distance {d}");
        // A frequency-shifted probe is far from everything.
        let odd: Vec<f64> = (0..75)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 7.0).sin())
            .collect();
        let d2 = nearest_normal_distance(&train, &odd);
        assert!(d2 > 1.0, "odd distance {d2}");
    }

    #[test]
    fn nearest_normal_distance_short_train() {
        assert!(nearest_normal_distance(&[1.0, 2.0], &[1.0, 2.0, 3.0]).is_infinite());
    }

    #[test]
    fn try_detect_rejects_degenerate_input_without_a_model() {
        // Validation happens before the model is touched, so a zero-size
        // model skeleton is enough to exercise the error paths.
        let cfg = TriadConfig::default();
        let model = Model {
            encoders: Vec::new(),
            head: crate::encoder::ProjectionHead::new(
                &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0),
                4,
            ),
        };
        let fx = FeatureExtractor {
            period: 10,
            residual_scale: 1.0,
        };
        let seg = Segmenter::new(8, 4);
        assert_eq!(
            try_detect(&cfg, &model, &fx, &seg, &[1.0, 2.0], &[]),
            Err(crate::error::DetectError::EmptyTest)
        );
        assert_eq!(
            try_detect(&cfg, &model, &fx, &seg, &[1.0], &[0.0, f64::NAN, 1.0]),
            Err(crate::error::DetectError::NonFiniteTest { index: 1 })
        );
        assert_eq!(
            try_detect(&cfg, &model, &fx, &seg, &[f64::INFINITY], &[0.0, 1.0]),
            Err(crate::error::DetectError::NonFiniteTrain { index: 0 })
        );
    }

    // End-to-end detect() behaviour is covered by the pipeline tests and the
    // integration suite (tests/), which train a real model first.
}
