//! TriAD hyper-parameters and ablation switches.

use tsaug::AugmentConfig;

/// Full configuration of the TriAD pipeline. Defaults are the paper's
/// settings (Sec. IV-A3/IV-A4): 6 residual blocks, `h_d = 32`, `α = 0.4`,
/// batch 8, lr 0.001, 20 epochs, window = 2.5 periods, stride = L/4.
#[derive(Debug, Clone, PartialEq)]
pub struct TriadConfig {
    /// Contrastive-loss blend `α` (Eq. 7): weight of the inter-domain term.
    pub alpha: f64,
    /// Number of residual blocks (dilation doubles per block).
    pub depth: usize,
    /// Hidden/representation channel count `h_d`.
    pub hidden: usize,
    /// Convolution kernel size (odd).
    pub kernel: usize,
    /// Batch size.
    pub batch: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// InfoNCE temperature applied to dot products of the L2-normalised
    /// embeddings (documented deviation; see DESIGN.md).
    pub temperature: f64,
    /// Fraction of windows held out as the validation split (Sec. IV-A3).
    pub validation_frac: f64,
    /// Window length in periods (paper: 2.5).
    pub window_periods: f64,
    /// Stride as a fraction of the window (paper: 1/4).
    pub stride_frac: f64,
    /// Override the estimated period (`None` = estimate from training data).
    pub period_override: Option<usize>,
    /// Augmentation parameters (Sec. III-A).
    pub augment: AugmentConfig,
    /// Candidates per domain (`Z`; the paper uses 1).
    pub top_z: usize,
    /// Enable the normalised/weighted scoring the paper sketches as future
    /// work (Sec. III-D3): discord votes are scaled by 1/#lengths and the
    /// window vote by [`Self::triad_vote_weight`]. Off by default (Eq. 8).
    pub weighted_voting: bool,
    /// Window-vote weight when [`Self::weighted_voting`] is on.
    pub triad_vote_weight: f64,
    /// Padding around the selected window before MERLIN, in windows
    /// (case study: one window each side).
    pub merlin_pad_windows: f64,
    /// MERLIN sweep: minimum discord length.
    pub merlin_min_len: usize,
    /// MERLIN sweep: maximum discord length (clamped to the window length).
    pub merlin_max_len: usize,
    /// MERLIN sweep: length step (1 = paper; larger = faster).
    pub merlin_step: usize,
    /// RNG seed (weights, augmentation, batching).
    pub seed: u64,
    /// Worker threads for the deterministic parallel runtime
    /// (`crates/parallel`): 0 = auto (the `TRIAD_THREADS` environment
    /// variable, else the machine's parallelism). The runtime is
    /// thread-count invariant — results are bit-identical at any value —
    /// so this is a pure performance knob and is *not* persisted with the
    /// model.
    pub threads: usize,
    /// Force structured tracing on (`obs`): `fit`/`detect` open per-stage
    /// spans readable via `triad trace`. `false` defers to the
    /// `TRIAD_TRACE` environment variable. Tracing never changes detection
    /// output (bit-identical on or off), so like `threads` this is a pure
    /// observability knob and is *not* persisted with the model.
    pub trace: bool,
    /// Gradient-accumulation shards per training batch. The batch is split
    /// into this many fixed contiguous sub-batches; each shard's
    /// contrastive loss is backpropagated independently and the gradients
    /// are summed in shard order before one optimizer step. 1 (default)
    /// keeps the paper's whole-batch objective; values > 1 enable
    /// data-parallel training. The shard structure depends only on this
    /// field — never on the thread count — so results stay bit-identical
    /// across thread counts.
    pub grad_shards: usize,
    /// Ablation switches (Fig. 9): which domains participate.
    pub use_temporal: bool,
    pub use_frequency: bool,
    pub use_residual: bool,
    /// Ablation switches: which loss terms participate.
    pub use_intra: bool,
    pub use_inter: bool,
}

impl Default for TriadConfig {
    fn default() -> Self {
        TriadConfig {
            alpha: 0.4,
            depth: 6,
            hidden: 32,
            kernel: 3,
            batch: 8,
            epochs: 20,
            lr: 1e-3,
            temperature: 1.0,
            validation_frac: 0.1,
            window_periods: 2.5,
            stride_frac: 0.25,
            period_override: None,
            augment: AugmentConfig::default(),
            top_z: 1,
            weighted_voting: false,
            triad_vote_weight: 1.0,
            merlin_pad_windows: 1.0,
            merlin_min_len: 3,
            merlin_max_len: 300,
            merlin_step: 1,
            seed: 0,
            threads: 0,
            trace: false,
            grad_shards: 1,
            use_temporal: true,
            use_frequency: true,
            use_residual: true,
            use_intra: true,
            use_inter: true,
        }
    }
}

impl TriadConfig {
    /// Active domains after ablation switches.
    pub fn domains(&self) -> Vec<crate::Domain> {
        let mut d = Vec::with_capacity(3);
        if self.use_temporal {
            d.push(crate::Domain::Temporal);
        }
        if self.use_frequency {
            d.push(crate::Domain::Frequency);
        }
        if self.use_residual {
            d.push(crate::Domain::Residual);
        }
        d
    }

    /// Validate invariants the pipeline relies on.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(format!("alpha {} outside [0,1]", self.alpha));
        }
        if self.depth == 0 || self.depth > 12 {
            return Err(format!("depth {} unreasonable", self.depth));
        }
        if self.hidden == 0 {
            return Err("hidden must be positive".into());
        }
        if self.kernel % 2 == 0 {
            return Err("kernel must be odd (same padding)".into());
        }
        if self.batch < 2 {
            return Err("contrastive loss needs batch ≥ 2".into());
        }
        if self.domains().is_empty() {
            return Err("at least one domain must be enabled".into());
        }
        if !self.use_intra && !self.use_inter {
            return Err("at least one loss term must be enabled".into());
        }
        if self.use_inter && self.domains().len() < 2 {
            return Err("inter-domain loss needs ≥ 2 domains".into());
        }
        if self.temperature <= 0.0 {
            return Err("temperature must be positive".into());
        }
        if self.merlin_min_len < 2 {
            return Err("merlin_min_len must be ≥ 2".into());
        }
        if self.top_z == 0 {
            return Err("top_z must be ≥ 1".into());
        }
        if self.weighted_voting && self.triad_vote_weight <= 0.0 {
            return Err("triad_vote_weight must be positive".into());
        }
        if self.grad_shards == 0 {
            return Err("grad_shards must be ≥ 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_setting_and_valid() {
        let c = TriadConfig::default();
        assert_eq!(c.alpha, 0.4);
        assert_eq!(c.depth, 6);
        assert_eq!(c.hidden, 32);
        assert_eq!(c.batch, 8);
        assert_eq!(c.epochs, 20);
        assert_eq!(c.lr as f32, 1e-3);
        assert_eq!(c.window_periods, 2.5);
        assert!(c.validate().is_ok());
        assert_eq!(c.domains().len(), 3);
    }

    #[test]
    fn ablations_are_validated() {
        let mut c = TriadConfig::default();
        c.use_temporal = false;
        c.use_frequency = false;
        c.use_residual = false;
        assert!(c.validate().is_err());

        let mut c = TriadConfig::default();
        c.use_intra = false;
        c.use_inter = false;
        assert!(c.validate().is_err());

        // Inter-domain loss with a single domain is contradictory.
        let mut c = TriadConfig::default();
        c.use_frequency = false;
        c.use_residual = false;
        assert!(c.validate().is_err());
        c.use_inter = false;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bad_scalars_rejected() {
        let mut c = TriadConfig::default();
        c.alpha = 1.5;
        assert!(c.validate().is_err());
        let mut c = TriadConfig::default();
        c.kernel = 4;
        assert!(c.validate().is_err());
        let mut c = TriadConfig::default();
        c.batch = 1;
        assert!(c.validate().is_err());
        let mut c = TriadConfig::default();
        c.temperature = 0.0;
        assert!(c.validate().is_err());
        let mut c = TriadConfig::default();
        c.top_z = 0;
        assert!(c.validate().is_err());
        let mut c = TriadConfig::default();
        c.weighted_voting = true;
        c.triad_vote_weight = 0.0;
        assert!(c.validate().is_err());
        c.triad_vote_weight = 2.0;
        assert!(c.validate().is_ok());
        let mut c = TriadConfig::default();
        c.grad_shards = 0;
        assert!(c.validate().is_err());
        c.grad_shards = 4;
        assert!(c.validate().is_ok());
    }
}
