//! Time-series substrate for the TriAD reproduction.
//!
//! This crate implements, from scratch, every signal-processing primitive the
//! TriAD pipeline (and its baselines) depend on:
//!
//! * [`fft`] — complex FFT (iterative radix-2 plus Bluestein's algorithm for
//!   arbitrary lengths) and real-input helpers.
//! * [`spectral`] — the handcrafted frequency-domain feature set of the paper's
//!   Table I: spectral amplitude, phase, and power per harmonic.
//! * [`filter`] — Butterworth low-pass design (cascaded biquads via the
//!   bilinear transform) and zero-phase forward-backward filtering, used by the
//!   "warping" augmentation (Eq. 4).
//! * [`decompose`] — period estimation (FFT + autocorrelation refinement) and
//!   classical seasonal decomposition producing the *residual* domain input.
//! * [`window`] — segmentation of a series into fixed-length strided windows
//!   (Sec. IV-A2: window = 2.5 periods, stride = L/4).
//! * [`sliding`] — sliding DFT keeping selected spectrum bins current in O(1)
//!   per sample, the streaming counterpart of [`fft`].
//! * [`stats`] — z-normalisation, moving statistics, misc. descriptive stats.
//! * [`distance`] — Euclidean and z-normalised Euclidean subsequence distances
//!   with O(1) rolling mean/std, the core primitive of discord discovery.
//! * [`mass`] — FFT-accelerated sliding z-normalised distance profiles
//!   (Mueen's MASS), the fast path for whole-series similarity scans.
//!
//! Everything operates on `f64` slices; no external numeric dependencies.

#![forbid(unsafe_code)]

pub mod decompose;
pub mod distance;
pub mod fft;
pub mod filter;
pub mod mass;
pub mod sliding;
pub mod spectral;
pub mod stats;
pub mod window;

pub use fft::Complex;
