//! The tolerance-equivalence gate for the pipeline's discord kernel
//! (DESIGN.md "Discord kernel").
//!
//! Stage 3 of `detect` runs the MASS/STOMP profile kernel
//! (`discord::fast::merlin_fast`). The exact adaptive-`r` MERLIN ladder
//! (`discord::merlin::merlin`) stays as its oracle. The contract this file
//! gates:
//!
//! * **Same discords as the oracle.** For every archive anomaly kind, at 1
//!   and 4 threads, the exact ladder run over the detection's own
//!   `search_region` with the pipeline's sweep reports the identical
//!   discord `(index, length)` sequence as the pipeline, with distances
//!   within 1e-5 absolute + 1e-6 relative. Voting consumes only discord
//!   positions, so everything downstream is what the oracle would give.
//! * **Deterministic.** Detection is bit-identical across thread counts:
//!   the only cross-worker merge in the kernel is an element-wise `f64::max`.
//! * **Same length ladder.** Both kernels draw candidate lengths from
//!   `discord::merlin::swept_lengths`, so they explore the identical length
//!   sequence — the regression probe that keeps the two sweeps from
//!   drifting apart.

mod common;

use common::{dataset_of, quick_cfg, KINDS};
use discord::merlin::merlin;
use triad_core::{merlin_sweep, TriAd, TriadConfig, TriadDetection};

/// Kernel-vs-oracle discord distance tolerance, per the DESIGN.md contract:
/// 1e-6 relative plus a 1e-5 absolute floor for near-zero distances, where
/// the final square root amplifies FFT round-off ε into √ε.
fn close(kernel: f64, exact: f64) -> bool {
    (kernel - exact).abs() <= 1e-5 + 1e-6 * exact.abs()
}

/// Run the exact ladder over `det`'s search region with the sweep the
/// pipeline used, and check the pipeline's discords against it.
fn assert_matches_oracle(label: &str, cfg: &TriadConfig, test: &[f64], det: &TriadDetection) {
    let region = det.search_region.clone();
    let sweep = merlin_sweep(cfg, det.selected_window.len());
    let oracle = merlin(&test[region.clone()], sweep);
    assert!(!oracle.is_empty(), "{label}: no discords to compare");
    assert_eq!(
        oracle.len(),
        det.discords.len(),
        "{label}: discord counts differ"
    );
    for (e, k) in oracle.iter().zip(&det.discords) {
        assert_eq!(
            (e.index + region.start, e.length),
            (k.index, k.length),
            "{label}: discord position differs"
        );
        assert!(
            close(k.distance, e.distance),
            "{label}: length {} distance {} vs exact {}",
            e.length,
            k.distance,
            e.distance
        );
    }
}

#[test]
fn pipeline_discords_match_the_exact_oracle_for_every_kind_and_thread_count() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        let ds = dataset_of(kind);
        for threads in [1usize, 4] {
            let mut cfg = quick_cfg(i as u64);
            cfg.threads = threads;
            let fitted = TriAd::new(cfg.clone()).fit(ds.train()).expect("fit");
            let det = fitted.detect(ds.test());
            assert_matches_oracle(&format!("{kind:?}/{threads}t"), &cfg, ds.test(), &det);
        }
    }
}

#[test]
fn pipeline_detection_is_bit_identical_across_thread_counts_for_every_kind() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        let ds = dataset_of(kind);
        let mut fitted = TriAd::new(quick_cfg(i as u64))
            .fit(ds.train())
            .expect("fit");
        let mut reference: Option<TriadDetection> = None;
        for t in [1usize, 2, 4, 8] {
            fitted.set_threads(t);
            let det = fitted.detect(ds.test());
            match &reference {
                None => reference = Some(det),
                Some(r) => assert_eq!(&det, r, "{kind:?}: detection differs at {t} threads"),
            }
        }
    }
}

#[test]
fn fast_and_exact_sweep_the_identical_length_ladder() {
    use discord::fast::merlin_fast;
    use discord::merlin::{swept_lengths, MerlinConfig};

    let ds = common::easy_dataset();
    let test = ds.test();
    let sweep = MerlinConfig::new(8, 64).with_step(4);
    let ladder = swept_lengths(test.len(), sweep);
    assert!(!ladder.is_empty(), "degenerate fixture");

    let exact: Vec<usize> = merlin(test, sweep).iter().map(|d| d.length).collect();
    let fast: Vec<usize> = merlin_fast(test, sweep).iter().map(|d| d.length).collect();
    assert_eq!(exact, fast, "kernels visited different length sequences");

    // Both sequences are drawn in order from the shared ladder: each reported
    // length appears at a strictly later ladder position than the previous.
    let mut pos = 0usize;
    for len in &exact {
        let at = ladder[pos..]
            .iter()
            .position(|l| l == len)
            .unwrap_or_else(|| panic!("length {len} out of ladder order"));
        pos += at + 1;
    }
}
