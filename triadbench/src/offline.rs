//! The two in-process workloads.
//!
//! * `archive` — closed loop over fixed-shape, archive-style datasets; each
//!   one is fitted with the paper's encoder and detected. Fit dominates, so
//!   training changes show here.
//! * `paper-window` — models fitted in set-up on paper-scale series
//!   (window L = 250); only `detect` is timed, and the default discord
//!   sweep dominates it. A training change must show nothing here.

use crate::inputs::{self, Slot};
use crate::measure::{mean, median, repeated_setup, secs_since, timed, Phase, Report, Tally};
use crate::probes::{self, det_checksum, pak_f1_auc, paper_config};
use crate::trace::{self, Pass};
use crate::Opts;
use triad_core::features::FeatureExtractor;
use ucrgen::anomaly::AnomalyKind;
use ucrgen::signal::SignalFamily;

/// The archive workload's datasets, in loop order: every anomaly kind and
/// waveform family, periods across 20–60 interleaved small and large so
/// any prefix of the loop has a similar size mix.
const ARCHIVE_SLOTS: [Slot; 6] = [
    Slot::new(36, SignalFamily::Harmonic, AnomalyKind::Noise),
    Slot::new(56, SignalFamily::Sine, AnomalyKind::Seasonal),
    Slot::new(24, SignalFamily::EcgLike, AnomalyKind::LevelShift),
    Slot::new(48, SignalFamily::SquareLike, AnomalyKind::Trend),
    Slot::new(
        28,
        SignalFamily::AmplitudeModulated,
        AnomalyKind::Contextual,
    ),
    Slot::new(44, SignalFamily::Harmonic, AnomalyKind::Duration),
];
const ARCHIVE_TRAIN_PERIODS: usize = 16;
const ARCHIVE_TEST_PERIODS: usize = 20;
const ARCHIVE_EPOCHS: usize = 1;
const ARCHIVE_SETUPS: usize = 60;

/// Paper-scale series: period 100, window L = 250.
const PAPER_SLOTS: [Slot; 3] = [
    Slot::new(100, SignalFamily::Harmonic, AnomalyKind::LevelShift),
    Slot::new(100, SignalFamily::EcgLike, AnomalyKind::Seasonal),
    Slot::new(100, SignalFamily::Sine, AnomalyKind::Noise),
];
/// Test splits per paper-scale series: more content per run for the same
/// number of set-up fits.
const PAPER_TESTS: usize = 3;
const PAPER_EPOCHS: usize = 1;
const PAPER_SETUPS: usize = 5;

/// The timed loops stop at the first whole cycle over their inputs after
/// `seconds`: every input then weighs the same in the run's statistics,
/// whatever the machine's speed.
fn cycle_done(t0: std::time::Instant, seconds: f64, done: usize, inputs: usize) -> bool {
    done.is_multiple_of(inputs.max(1)) && done > 0 && secs_since(t0) >= seconds
}

/// Each repeat of one input must reproduce the first output.
struct Repeats(Vec<Option<u64>>);

impl Repeats {
    fn new(n: usize) -> Repeats {
        Repeats(vec![None; n])
    }

    fn check(&mut self, slot: usize, sum: u64, name: &str, tally: &mut Tally) {
        match self.0.get_mut(slot) {
            Some(Some(first)) => {
                let first = *first;
                tally.check(first == sum, || {
                    format!("{name}: detection changed on repeat")
                });
            }
            Some(empty) => *empty = Some(sum),
            None => {}
        }
    }
}

pub fn archive(opts: &Opts) -> Result<Report, String> {
    let (sets, setup_s) = repeated_setup(
        ARCHIVE_SETUPS,
        || {
            let sets = inputs::labelled(
                opts.seed,
                &ARCHIVE_SLOTS,
                ARCHIVE_TRAIN_PERIODS,
                ARCHIVE_TEST_PERIODS,
                1,
            );
            if sets.len() != ARCHIVE_SLOTS.len() {
                return Err(format!("generated {} archive datasets", sets.len()));
            }
            // Check each dataset the way `fit` starts on it, so set-up
            // includes program work: the period estimate and the feature
            // extractor fitted at that period.
            for ds in &sets {
                match tsops::decompose::estimate_period(&ds.train, ds.train.len() / 2) {
                    Some(p) if p >= 2 => drop(FeatureExtractor::fit(&ds.train, p)),
                    _ => return Err(format!("{}: no period in the training split", ds.name)),
                }
            }
            Ok(sets)
        },
        drop,
    )?;
    let cfg = paper_config(ARCHIVE_EPOCHS, opts.seed);
    let mut report = Report::default();
    if opts.trace {
        // One pass: the smallest dataset fitted and detected.
        let ds = sets
            .iter()
            .min_by_key(|d| d.points())
            .ok_or("no archive datasets")?;
        let model = probes::fit(&cfg, &ds.train)?;
        let pass = || -> Result<Pass, String> {
            let fitted = probes::fit(&cfg, &ds.train)?;
            Ok(Pass::in_process(probes::in_process(&fitted, ds)?, 2))
        };
        trace::traced_run(&mut report, &cfg, ds, &model, None, pass)?;
        return Ok(report);
    }

    let mut repeats = Repeats::new(sets.len());
    let (mut latencies, mut fits, mut detects, mut paks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut points = 0usize;
    let phase = Phase::start();
    let t0 = obs::now_instant();
    let mut i = 0usize;
    while !cycle_done(t0, opts.seconds, i, sets.len()) {
        let slot = i % sets.len();
        let ds = sets.get(slot).ok_or("dataset slot out of range")?;
        i += 1;
        let (fitted, fit_s) = timed(|| probes::fit(&cfg, &ds.train));
        let fitted = match fitted {
            Ok(f) => f,
            Err(e) => {
                report.tally.fail(format!("{}: fit failed: {e}", ds.name));
                continue;
            }
        };
        let (det, detect_s) = timed(|| fitted.try_detect(&ds.test));
        let det = match det {
            Ok(d) => d,
            Err(e) => {
                report
                    .tally
                    .fail(format!("{}: detect failed: {e}", ds.name));
                continue;
            }
        };
        report.tally.ok();
        repeats.check(slot, det_checksum(&det), &ds.name, &mut report.tally);
        latencies.push(fit_s + detect_s);
        fits.push(fit_s);
        detects.push(detect_s);
        paks.push(pak_f1_auc(&det, &ds.labels));
        points += ds.points();
    }
    let times = phase.stop();
    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    report.end_to_end(setup_s, times, points, &ms);
    report.note(format!(
        "datasets_per_min   {:.3} 1/min",
        latencies.len() as f64 * 60.0 / times.1
    ));
    report.note(format!(
        "fit_s              {:.4} s (median of {})",
        median(&fits),
        fits.len()
    ));
    report.note(format!("detect_s           {:.4} s", median(&detects)));
    report.note(format!("pak_f1_auc         {:.4}", mean(&paks)));
    Ok(report)
}

pub fn paper_window(opts: &Opts) -> Result<Report, String> {
    let cfg = paper_config(PAPER_EPOCHS, opts.seed);
    let ((sets, models), setup_s) = repeated_setup(
        PAPER_SETUPS,
        || {
            let sets = inputs::labelled(opts.seed, &PAPER_SLOTS, 10, 12, PAPER_TESTS);
            let models = sets
                .iter()
                .step_by(PAPER_TESTS)
                .map(|ds| probes::fit(&cfg, &ds.train))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((sets, models))
        },
        drop,
    )?;
    let model_of = |i: usize| {
        models
            .get(i / PAPER_TESTS)
            .ok_or("paper-window model out of range")
    };
    let mut report = Report::default();
    if opts.trace {
        // One pass: one detect on the first series.
        let ds = sets.first().ok_or("no paper-window series")?;
        let model = model_of(0)?;
        let pass = || Ok(Pass::in_process(probes::in_process(model, ds)?, 1));
        trace::traced_run(&mut report, &cfg, ds, model, None, pass)?;
        return Ok(report);
    }

    let (mut latencies, mut paks, mut sums) = (Vec::new(), Vec::new(), Vec::new());
    let mut points = 0usize;
    let phase = Phase::start();
    let t0 = obs::now_instant();
    let mut i = 0usize;
    while !cycle_done(t0, opts.seconds, i, sets.len()) {
        let slot = i % sets.len();
        i += 1;
        let ds = sets.get(slot).ok_or("paper-window slot out of range")?;
        let (det, detect_s) = timed(|| model_of(slot).map(|m| m.try_detect(&ds.test)));
        match det? {
            Ok(det) => {
                report.tally.ok();
                sums.push((slot, det_checksum(&det)));
                latencies.push(detect_s);
                paks.push(pak_f1_auc(&det, &ds.labels));
                points += ds.test.len();
            }
            Err(e) => report
                .tally
                .fail(format!("{}: detect failed: {e}", ds.name)),
        }
    }
    let times = phase.stop();
    // A run usually holds one cycle, so repeat the first input once more,
    // untimed, for the repeat check.
    let mut repeats = Repeats::new(sets.len());
    let first = sets.first().ok_or("no paper-window series")?;
    let again = model_of(0)?
        .try_detect(&first.test)
        .map_err(|e| e.to_string())?;
    for (slot, sum) in sums.into_iter().chain([(0, det_checksum(&again))]) {
        let name = sets.get(slot).map_or("?", |d| d.name.as_str());
        repeats.check(slot, sum, name, &mut report.tally);
    }
    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    report.end_to_end(setup_s, times, points, &ms);
    report.note(format!(
        "detect_s           {:.4} s (median of {})",
        median(&latencies),
        latencies.len()
    ));
    report.note(format!("pak_f1_auc         {:.4}", mean(&paks)));
    Ok(report)
}
