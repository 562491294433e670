//! # TriAD — self-supervised tri-domain time-series anomaly detection
//!
//! Reproduction of *"Unraveling the 'Anomaly' in Time Series Anomaly
//! Detection: A Self-supervised Tri-domain Solution"* (Sun et al., ICDE 2024).
//!
//! TriAD detects the single anomalous event in a univariate periodic series
//! without any anomaly labels:
//!
//! 1. **Features** ([`features`]) — each window is viewed in three domains:
//!    the raw *temporal* shape, the *frequency* spectrum (amplitude / phase /
//!    power, Table I), and the *residual* left after removing the periodic
//!    component.
//! 2. **Encoders** ([`encoder`]) — one dilated-convolution residual stack per
//!    domain (6 blocks, dilation doubling, Sec. III-B) followed by a shared
//!    two-layer projection head producing one embedding `r ∈ ℝ^L` per window.
//! 3. **Contrastive training** ([`loss`], [`train`]) — windows are paired
//!    with anomaly-simulating augmentations; the intra-domain loss (Eq. 5)
//!    pulls originals together and pushes augmentations away, the
//!    inter-domain loss (Eq. 6) keeps the three domains' views distinct;
//!    total loss is their `α`-blend (Eq. 7).
//! 4. **Detection** ([`detect`]) — per-domain window-similarity ranking
//!    nominates up to three suspicious windows (`Z = 1` each); comparison
//!    against the all-normal training split narrows to one; MERLIN probes a
//!    padded neighbourhood for variable-length discords; point-wise votes
//!    (Eq. 8) thresholded at the positive-vote mean give the final labels,
//!    with the Sec. IV-G fallback when the discord search disagrees with the
//!    selected window.
//!
//! The end-to-end API lives in [`pipeline`]:
//!
//! ```
//! use triad_core::pipeline::TriAd;
//! use triad_core::config::TriadConfig;
//!
//! // A toy periodic series with a frequency-shift anomaly in the test half.
//! let n = 1200usize;
//! let mut series: Vec<f64> = (0..n)
//!     .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 40.0).sin())
//!     .collect();
//! for i in 900..960 {
//!     series[i] = (4.0 * std::f64::consts::PI * i as f64 / 40.0).sin();
//! }
//! let (train, test) = series.split_at(600);
//!
//! let mut cfg = TriadConfig::default();
//! cfg.epochs = 2; // doc-test budget; use the default 20 in experiments
//! let fitted = TriAd::new(cfg).fit(train).expect("trainable series");
//! let det = fitted.detect(test);
//! assert_eq!(det.votes.len(), test.len());
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod detect;
pub mod encoder;
pub mod error;
pub mod features;
pub mod loss;
pub mod persist;
pub mod pipeline;
pub mod train;

pub use config::TriadConfig;
pub use detect::{detect_from_rankings, merlin_sweep, DomainRanking, OnlineRanker, TriadDetection};
pub use error::{DetectError, PersistError};
pub use pipeline::{FittedTriad, TriAd};

/// The three feature domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    Temporal,
    Frequency,
    Residual,
}

impl Domain {
    pub const ALL: [Domain; 3] = [Domain::Temporal, Domain::Frequency, Domain::Residual];

    pub fn name(&self) -> &'static str {
        match self {
            Domain::Temporal => "temporal",
            Domain::Frequency => "frequency",
            Domain::Residual => "residual",
        }
    }

    /// Input channel count of this domain's encoder (Sec. III-B: one channel
    /// for temporal and residual, three for frequency).
    pub fn channels(&self) -> usize {
        match self {
            Domain::Frequency => 3,
            _ => 1,
        }
    }
}
