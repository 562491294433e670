//! The detector roster: TriAD (plus its stride variants) and every
//! `baselines::Detector`, run under one protocol.
//!
//! Baselines follow the deployment thresholding of Table II — threshold =
//! mean + 3σ of the detector's scores over its own (normal) training split,
//! no test labels consulted — and their raw test scores feed the
//! threshold-free AUC columns. TriAD emits binary predictions directly
//! (Eq. 8 voting); its vote totals serve as scores.
//!
//! Fitted TriAD models are cached through the `triad-serve` model registry:
//! the cache key encodes everything that determines the fit (config tag,
//! stride, seed, epochs, dataset), so a resumed or repeated run loads the
//! TRIAD2 file — bit-identical to the original fit by the persist
//! round-trip contract — instead of training again.

use baselines::anomaly_transformer_lite::{AnomalyTransformerConfig, AnomalyTransformerLite};
use baselines::dcdetector_lite::{DcDetectorConfig, DcDetectorLite};
use baselines::lstm_ae::{LstmAe, LstmAeConfig};
use baselines::mtgflow_lite::{MtgFlowConfig, MtgFlowLite};
use baselines::random::RandomDetector;
use baselines::ts2vec_lite::{Ts2VecConfig, Ts2VecLite};
use baselines::usad::{Usad, UsadConfig};
use baselines::Detector;
use std::sync::{Arc, RwLock};
use triad_core::{TriAd, TriadConfig};
use triad_serve::ModelRegistry;
use ucrgen::UcrDataset;

/// Every method the testbed knows, in canonical execution order (TriAD
/// first, then the Table III baselines, then the random floor).
pub const ALL_METHODS: [&str; 9] = [
    "triad",
    "lstm_ae_random",
    "lstm_ae",
    "usad",
    "ts2vec",
    "anomaly_transformer",
    "mtgflow",
    "dcdetector",
    "random",
];

/// TriAD stride variants for the windowing sweep (`--stride-sweep`): the
/// suffix is the inference/training stride as a percent of the window
/// (the paper's default grid is L/4 = 25%).
pub const STRIDE_VARIANTS: [(&str, f64); 2] = [("triad-s50", 0.50), ("triad-s100", 1.00)];

/// Is `name` a method this build can run?
pub fn is_known(name: &str) -> bool {
    ALL_METHODS.contains(&name) || STRIDE_VARIANTS.iter().any(|(n, _)| *n == name)
}

/// Validate a `--methods` list.
pub fn validate(names: &[String]) -> Result<(), String> {
    for n in names {
        if !is_known(n) {
            let variants: Vec<&str> = STRIDE_VARIANTS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown method {n:?} (expected one of {ALL_METHODS:?} or {variants:?})"
            ));
        }
    }
    Ok(())
}

/// Everything a method run yields on one dataset.
pub struct MethodOutput {
    /// One anomaly score per test point (higher = more anomalous).
    pub scores: Vec<f64>,
    /// Binarised prediction per test point.
    pub pred: Vec<bool>,
    /// Whether a cached fitted model was reused instead of training.
    pub reused_model: bool,
}

/// Shared, thread-safe handle on the model cache (same sharing discipline
/// as `triad-serve`'s server: reads clone slot `Arc`s, writes install new
/// slots).
pub type SharedRegistry = Arc<RwLock<ModelRegistry>>;

/// Per-run knobs that determine a fit (and therefore the cache key).
#[derive(Debug, Clone)]
pub struct MethodConfig {
    /// CI-scale model sizes when set (the cache key records it).
    pub smoke: bool,
    pub epochs: usize,
    pub seed: u64,
}

impl MethodConfig {
    fn triad_config(&self, stride_frac: f64) -> TriadConfig {
        let base = if self.smoke {
            TriadConfig {
                epochs: self.epochs,
                depth: 2,
                hidden: 8,
                batch: 4,
                merlin_step: 4,
                seed: self.seed,
                ..TriadConfig::default()
            }
        } else {
            TriadConfig {
                epochs: self.epochs,
                merlin_step: 2,
                seed: self.seed,
                ..TriadConfig::default()
            }
        };
        TriadConfig {
            stride_frac,
            ..base
        }
    }

    /// Registry-safe cache key: `[A-Za-z0-9_.-]`, well under 64 chars.
    fn model_name(&self, method: &str, dataset: usize) -> String {
        let tag = if self.smoke { "q" } else { "f" };
        format!(
            "eb-{tag}-{method}-e{}-s{}-d{dataset:03}",
            self.epochs, self.seed
        )
    }
}

/// Stride fraction for a TriAD method name (`None` for baselines).
fn triad_stride(method: &str) -> Option<f64> {
    if method == "triad" {
        return Some(TriadConfig::default().stride_frac);
    }
    STRIDE_VARIANTS
        .iter()
        .find(|(n, _)| *n == method)
        .map(|&(_, s)| s)
}

/// Run one method on one dataset. TriAD consults (and feeds) the model
/// cache when a registry is provided; baselines are cheap enough to always
/// run and have no persisted format.
pub fn run_method(
    method: &str,
    ds: &UcrDataset,
    cfg: &MethodConfig,
    registry: Option<&SharedRegistry>,
) -> Result<MethodOutput, String> {
    match triad_stride(method) {
        Some(stride) => run_triad(method, stride, ds, cfg, registry),
        None => run_baseline(method, ds, cfg),
    }
}

fn run_triad(
    method: &str,
    stride_frac: f64,
    ds: &UcrDataset,
    cfg: &MethodConfig,
    registry: Option<&SharedRegistry>,
) -> Result<MethodOutput, String> {
    let name = cfg.model_name(method, ds.id);

    // Cache hit: load (or reuse the live instance of) the fitted model.
    if let Some(reg) = registry {
        let slot = reg
            .read()
            .map_err(|_| "model registry poisoned")?
            .slot(&name);
        if let Some(slot) = slot {
            let det = {
                let guard = reg.read().map_err(|_| "model registry poisoned")?;
                let loaded = guard.lock_loaded(&slot)?;
                let model = loaded.as_ref().ok_or("cached model slot empty")?;
                model.detect(ds.test())
            };
            return Ok(MethodOutput {
                scores: det.votes.clone(),
                pred: det.prediction,
                reused_model: true,
            });
        }
    }

    // Cache miss: fit, detect, then persist the fit for future runs.
    let fitted = TriAd::new(cfg.triad_config(stride_frac)).fit(ds.train())?;
    let det = fitted.detect(ds.test());
    if let Some(reg) = registry {
        reg.write()
            .map_err(|_| "model registry poisoned")?
            .save_fitted(&name, fitted)?;
    }
    Ok(MethodOutput {
        scores: det.votes.clone(),
        pred: det.prediction,
        reused_model: false,
    })
}

/// Fresh detector per scoring pass so the train/test passes are independent
/// and deterministic (the Table II protocol).
fn make_baseline(method: &str, cfg: &MethodConfig) -> Result<Box<dyn Detector>, String> {
    let epochs = cfg.epochs;
    let seed = cfg.seed;
    Ok(match method {
        "lstm_ae_random" => Box::new(LstmAe::random(LstmAeConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        "lstm_ae" => Box::new(LstmAe::trained(LstmAeConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        "usad" => Box::new(Usad::new(UsadConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        "ts2vec" => Box::new(Ts2VecLite::new(Ts2VecConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        "anomaly_transformer" => Box::new(AnomalyTransformerLite::new(AnomalyTransformerConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        "mtgflow" => Box::new(MtgFlowLite::new(MtgFlowConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        "dcdetector" => Box::new(DcDetectorLite::new(DcDetectorConfig {
            epochs,
            seed,
            ..Default::default()
        })),
        "random" => Box::new(RandomDetector::new(seed)),
        other => return Err(format!("unknown baseline {other:?}")),
    })
}

fn run_baseline(method: &str, ds: &UcrDataset, cfg: &MethodConfig) -> Result<MethodOutput, String> {
    let test_scores = make_baseline(method, cfg)?.score(ds.train(), ds.test());
    let train_scores = make_baseline(method, cfg)?.score(ds.train(), ds.train());
    let n = train_scores.len().max(1) as f64;
    let mean = train_scores.iter().sum::<f64>() / n;
    let var = train_scores
        .iter()
        .map(|s| (s - mean) * (s - mean))
        .sum::<f64>()
        / n;
    let thr = mean + 3.0 * var.sqrt();
    let pred = evalkit::threshold::apply(&test_scores, thr);
    Ok(MethodOutput {
        scores: test_scores,
        pred,
        reused_model: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucrgen::archive::generate_dataset;

    #[test]
    fn method_validation() {
        assert!(validate(&["triad".into(), "usad".into(), "triad-s50".into()]).is_ok());
        assert!(validate(&["bogus".into()]).is_err());
        assert!(is_known("triad-s100"));
        assert!(!is_known("triad-s12"));
    }

    #[test]
    fn baselines_emit_full_length_scores() {
        let ds = generate_dataset(7, 2);
        let cfg = MethodConfig {
            smoke: true,
            epochs: 1,
            seed: 0,
        };
        for method in ["lstm_ae_random", "random"] {
            let out = run_method(method, &ds, &cfg, None).expect(method);
            assert_eq!(out.scores.len(), ds.test().len(), "{method}");
            assert_eq!(out.pred.len(), ds.test().len(), "{method}");
            assert!(!out.reused_model);
        }
    }

    #[test]
    fn baseline_runs_are_deterministic() {
        let ds = generate_dataset(7, 3);
        let cfg = MethodConfig {
            smoke: true,
            epochs: 1,
            seed: 1,
        };
        let a = run_baseline("random", &ds, &cfg).expect("a");
        let b = run_baseline("random", &ds, &cfg).expect("b");
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.pred, b.pred);
    }
}
