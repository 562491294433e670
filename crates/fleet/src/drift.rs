//! Per-stream drift detection against the model's training residual stats.
//!
//! The online deviance of window `t` is `d_t = 1 − min(domain mean
//! similarity)` — exactly the signal `StreamEngine` thresholds for
//! hysteresis events. When the data regime a stream feeds drifts away from
//! what its model was fitted on, `d_t` rises *persistently*, not just in
//! the isolated spikes an anomaly produces. The classic detector for a
//! persistent mean shift is a one-sided CUSUM:
//!
//! ```text
//! g_t = max(0, g_{t−1} + (d_t − (μ + k·σ)))
//! ```
//!
//! where `μ, σ` are the mean/σ of the deviances the *training* series
//! itself scores under the model ([`DriftBaseline::from_model`]: replay
//! the training windows through a fresh `OnlineRanker` — the same stats
//! `detect` would compute over an anomaly-free regime, derived once per
//! model and cached). A single anomalous window bumps `g` once and decays;
//! a regime change pumps `g` every window until it crosses the threshold.
//!
//! Hysteresis mirrors the engine's event logic: drift *enters* when
//! `g ≥ threshold`, and *exits* only when `g` decays to `exit` — so a
//! stream hovering at the boundary does not emit an event per window. The
//! fold is O(1) per window, pure, and deterministic: two replicas fed the
//! same deviances agree on every signal regardless of thread count or
//! wall-clock timing.

use triad_core::FittedTriad;
use tsops::window::Segmenter;

/// Knobs for the drift test and the refit it triggers. Drift runs only on
/// a manager given a refitter.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftPolicy {
    /// `k` in the CUSUM slack `μ + k·σ`: how many training-σ above the
    /// training mean a deviance must be before it accumulates.
    pub slack_sigma: f64,
    /// Lower bound on the absolute slack above `μ`, for models whose
    /// training deviances are nearly constant (σ ≈ 0).
    pub slack_floor: f64,
    /// Accumulated excess deviance at which drift enters.
    pub threshold: f64,
    /// Statistic level at or below which an open drift episode exits.
    pub exit: f64,
    /// Windows to observe before drift may fire (warm-up: the first few
    /// windows score against very few peers and run hot).
    pub min_windows: u64,
    /// Completed windows between drift entry and the model swap: the refit
    /// runs in the background while the stream keeps scoring, and the swap
    /// lands at this deterministic window boundary.
    pub swap_horizon: u64,
    /// Most refits a single stream may trigger over its lifetime.
    pub max_refits: u64,
    /// Points from the stream tail a refit trains on (clamped to what the
    /// ring retains).
    pub refit_train_len: usize,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        DriftPolicy {
            slack_sigma: 3.0,
            slack_floor: 0.05,
            threshold: 0.75,
            exit: 0.25,
            min_windows: 4,
            swap_horizon: 8,
            max_refits: 2,
            refit_train_len: 512,
        }
    }
}

/// Training-deviance statistics of a fitted model: what "normal" scores
/// look like for the regime the model was fitted on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftBaseline {
    /// Mean training deviance (first window excluded — it has no peers).
    pub mean: f64,
    /// Population σ of the training deviances.
    pub std: f64,
}

impl DriftBaseline {
    /// Replay the model's own training series through a fresh online
    /// ranker and fold the per-window deviances into mean/σ. One O(train)
    /// pass per model; the fleet manager caches the result alongside the
    /// model itself.
    pub fn from_model(fitted: &FittedTriad) -> DriftBaseline {
        let series = fitted.train_series();
        let seg = Segmenter::new(fitted.window_len(), fitted.segmenter().stride);
        let windows = seg.segment_clamped(series.len());
        let mut ranker = fitted.online_ranker();
        let mut n = 0u64;
        let mut sum = 0.0f64;
        let mut sumsq = 0.0f64;
        for i in 0..windows.count() {
            let means = fitted.push_window(&mut ranker, windows.slice(series, i));
            if i == 0 {
                continue; // no peers yet, deviance undefined
            }
            let min_mean = means.iter().map(|&(_, m)| m).fold(f64::INFINITY, f64::min);
            let d = 1.0 - min_mean;
            n += 1;
            sum += d;
            sumsq += d * d;
        }
        if n == 0 {
            return DriftBaseline {
                mean: 0.0,
                std: 0.0,
            };
        }
        let mean = sum / n as f64;
        let var = (sumsq / n as f64 - mean * mean).max(0.0);
        DriftBaseline {
            mean,
            std: var.sqrt(),
        }
    }
}

/// What one observed window did to the drift state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftSignal {
    /// Statistic below threshold (or hysteresis held); nothing changed.
    None,
    /// The statistic crossed the enter threshold: the stream's regime has
    /// departed from the model's training distribution.
    Entered,
    /// An open drift episode decayed below the exit level.
    Exited,
}

/// One stream's CUSUM drift state. Cheap (`Copy`-sized), deterministic,
/// and O(1) per observed window.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    slack: f64,
    threshold: f64,
    exit: f64,
    min_windows: u64,
    g: f64,
    windows: u64,
    drifting: bool,
    episodes: u64,
}

impl DriftDetector {
    pub fn new(baseline: DriftBaseline, policy: &DriftPolicy) -> DriftDetector {
        DriftDetector {
            slack: baseline.mean + (policy.slack_sigma * baseline.std).max(policy.slack_floor),
            threshold: policy.threshold,
            exit: policy.exit,
            min_windows: policy.min_windows,
            g: 0.0,
            windows: 0,
            drifting: false,
            episodes: 0,
        }
    }

    /// Fold one scored window's deviance into the statistic.
    pub fn observe(&mut self, deviance: f64) -> DriftSignal {
        self.windows += 1;
        self.g = (self.g + (deviance - self.slack)).max(0.0);
        if !self.drifting {
            if self.windows >= self.min_windows && self.g >= self.threshold {
                self.drifting = true;
                self.episodes += 1;
                return DriftSignal::Entered;
            }
        } else if self.g <= self.exit {
            self.drifting = false;
            return DriftSignal::Exited;
        }
        DriftSignal::None
    }

    /// Whether a drift episode is currently open.
    pub fn drifting(&self) -> bool {
        self.drifting
    }

    /// Drift episodes entered so far.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Current value of the CUSUM statistic.
    pub fn statistic(&self) -> f64 {
        self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(mean: f64, std: f64) -> DriftDetector {
        DriftDetector::new(
            DriftBaseline { mean, std },
            &DriftPolicy {
                min_windows: 2,
                ..DriftPolicy::default()
            },
        )
    }

    #[test]
    fn stays_quiet_on_baseline_like_deviances() {
        let mut d = detector(0.1, 0.02);
        for _ in 0..200 {
            assert_eq!(d.observe(0.1), DriftSignal::None);
        }
        assert!(!d.drifting());
        assert_eq!(d.episodes(), 0);
    }

    #[test]
    fn single_spike_decays_without_drift() {
        let mut d = detector(0.1, 0.02);
        for _ in 0..10 {
            d.observe(0.1);
        }
        // One anomalous window: bumps the statistic below threshold…
        assert_eq!(d.observe(0.6), DriftSignal::None);
        // …and baseline windows decay it back to zero.
        for _ in 0..10 {
            assert_eq!(d.observe(0.1), DriftSignal::None);
        }
        assert_eq!(d.statistic(), 0.0);
    }

    #[test]
    fn sustained_shift_enters_once_then_exits_with_hysteresis() {
        let mut d = detector(0.1, 0.02);
        for _ in 0..5 {
            d.observe(0.1);
        }
        let mut entered = 0;
        for _ in 0..20 {
            match d.observe(0.5) {
                DriftSignal::Entered => entered += 1,
                DriftSignal::Exited => panic!("exit during sustained shift"),
                DriftSignal::None => {}
            }
        }
        assert_eq!(entered, 1, "hysteresis must not re-enter every window");
        assert!(d.drifting());
        let mut exited = 0;
        for _ in 0..200 {
            if d.observe(0.05) == DriftSignal::Exited {
                exited += 1;
            }
        }
        assert_eq!(exited, 1);
        assert!(!d.drifting());
        assert_eq!(d.episodes(), 1);
    }

    #[test]
    fn warmup_gate_defers_early_windows() {
        let mut d = DriftDetector::new(
            DriftBaseline {
                mean: 0.05,
                std: 0.0,
            },
            &DriftPolicy {
                min_windows: 5,
                threshold: 0.3,
                ..DriftPolicy::default()
            },
        );
        // Plenty of excess per window, but the warm-up gate holds until
        // window 5.
        let mut signals = Vec::new();
        for _ in 0..6 {
            signals.push(d.observe(0.9));
        }
        assert!(signals[..4].iter().all(|s| *s == DriftSignal::None));
        assert!(signals.contains(&DriftSignal::Entered));
    }
}
