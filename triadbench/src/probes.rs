//! Calls into single public functions shared by several workloads: output
//! fingerprints, the accuracy score, the thread-count identity check and
//! the small per-layer probes of the traced run.

use crate::inputs::Dataset;
use crate::measure::{fnv1a, mean, secs_since, timed, Tally};
use crate::trace::layer;
use triad_core::{persist, FittedTriad, TriAd, TriadConfig, TriadDetection};
use triad_serve::json::{self, Value};
use triad_serve::proto::detection_fields;
use triad_stream::{StreamConfig, StreamEngine};

/// The paper's encoder (Sec. IV-A3: 6 blocks, `h_d = 32`, kernel 3,
/// batch 8) at a reduced epoch count; everything else at its default.
pub fn paper_config(epochs: usize, seed: u64) -> TriadConfig {
    TriadConfig {
        depth: 6,
        hidden: 32,
        kernel: 3,
        batch: 8,
        epochs,
        seed,
        ..TriadConfig::default()
    }
}

/// A detection's fields as the serve protocol renders them: (name, JSON)
/// pairs, without the `model` name (a stream close carries the stream's
/// name there).
pub type Fields = Vec<(String, String)>;

/// The fields of a protocol object: a detection, or a reply envelope that
/// embeds one.
pub fn fields(v: Value) -> Fields {
    match v {
        Value::Obj(f) => f
            .into_iter()
            .filter(|(k, _)| k != "model")
            .map(|(k, v)| (k, v.to_string()))
            .collect(),
        _ => Vec::new(),
    }
}

/// The detection exactly as the serve protocol renders it.
pub fn detection_json(det: &TriadDetection) -> Fields {
    fields(detection_fields("", det))
}

pub fn det_checksum(det: &TriadDetection) -> u64 {
    let text: String = detection_json(det)
        .iter()
        .map(|(k, v)| format!("{k}={v};"))
        .collect();
    fnv1a(text.as_bytes())
}

pub fn model_checksum(fitted: &FittedTriad) -> Result<u64, String> {
    let mut bytes = Vec::new();
    persist::save(&mut bytes, fitted).map_err(|e| e.to_string())?;
    Ok(fnv1a(&bytes))
}

/// PA%K F1-AUC of a detection against ground truth (the evalbed headline).
pub fn pak_f1_auc(det: &TriadDetection, labels: &[bool]) -> f64 {
    evalkit::pak::pak_auc(&det.prediction, labels).f1_auc
}

pub fn fit(cfg: &TriadConfig, train: &[f64]) -> Result<FittedTriad, String> {
    TriAd::new(cfg.clone()).fit(train)
}

/// The same fit and detect at one thread and at the default thread count:
/// the persisted models and the detections must be bit-identical. Returns
/// the two fit times, 1 thread first.
pub fn thread_identity(
    cfg: &TriadConfig,
    ds: &Dataset,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let (fitted, t_default) = timed(|| fit(cfg, &ds.train));
    let one = TriadConfig {
        threads: 1,
        ..cfg.clone()
    };
    let (fitted_one, t_one) = timed(|| fit(&one, &ds.train));
    let (fitted, mut fitted_one) = (fitted?, fitted_one?);
    tally.check(
        model_checksum(&fitted)? == model_checksum(&fitted_one)?,
        || {
            format!(
                "{}: model differs between 1 thread and default threads",
                ds.name
            )
        },
    );
    fitted_one.set_threads(1);
    let same = det_checksum(&fitted.detect(&ds.test)) == det_checksum(&fitted_one.detect(&ds.test));
    tally.check(same, || {
        format!(
            "{}: detection differs between 1 thread and default threads",
            ds.name
        )
    });
    Ok((t_one, t_default))
}

/// Period estimation on a training split, as `fit` calls it.
pub fn estimate_period(train: &[f64]) -> Option<usize> {
    layer("bench.estimate_period", || {
        tsops::decompose::estimate_period(train, train.len() / 2)
    })
}

/// The in-process calls every traced pass makes on its traced input: the
/// period estimate, `detect` and the embedding.
pub fn in_process(fitted: &FittedTriad, ds: &Dataset) -> Result<TriadDetection, String> {
    estimate_period(&ds.train)
        .ok_or_else(|| format!("{}: no period in the training split", ds.name))?;
    let det = fitted.try_detect(&ds.test).map_err(|e| e.to_string())?;
    embed(fitted, &ds.test);
    Ok(det)
}

/// Embed every window of `series` in every active domain.
pub fn embed(fitted: &FittedTriad, series: &[f64]) -> usize {
    layer("bench.embed", || {
        let windows = fitted.segmenter().segment_clamped(series.len());
        let slices: Vec<&[f64]> = (0..windows.count())
            .map(|i| windows.slice(series, i))
            .collect();
        fitted
            .model()
            .encoders
            .iter()
            .map(|(d, _)| {
                fitted
                    .model()
                    .embed_windows_par(fitted.config(), fitted.extractor(), &slices, *d)
                    .len()
            })
            .sum()
    })
}

/// In-process online scoring cost: µs per point pushed into a fresh
/// stream engine.
pub fn stream_push_us(fitted: &FittedTriad, series: &[f64]) -> Result<f64, String> {
    let mut engine = StreamEngine::new(fitted, StreamConfig::default());
    let t0 = obs::now_instant();
    for &x in series {
        engine.push(fitted, x).map_err(|e| e.to_string())?;
    }
    Ok(secs_since(t0) * 1e6 / series.len().max(1) as f64)
}

/// µs to parse one protocol line and render it back, averaged over the
/// workload's own request and reply lines.
pub fn json_us(lines: &[String]) -> Result<f64, String> {
    let mut per_line = Vec::new();
    for line in lines {
        let reps = (200_000 / line.len().max(1)).clamp(3, 2_000);
        let t0 = obs::now_instant();
        for _ in 0..reps {
            let v = json::parse(std::hint::black_box(line))?;
            std::hint::black_box(v.to_string());
        }
        per_line.push(secs_since(t0) * 1e6 / reps as f64);
    }
    Ok(mean(&per_line))
}

/// The detect request line for `series` and its reply line.
pub fn detect_lines(model: &str, series: &[f64], det: &TriadDetection) -> Vec<String> {
    let request = Value::obj(vec![
        ("verb", "detect".into()),
        ("model", model.into()),
        ("series", Value::num_arr(series)),
    ]);
    let reply = triad_serve::proto::detect_response(None, detection_fields(model, det));
    vec![request.to_string(), reply.to_string()]
}
