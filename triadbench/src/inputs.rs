//! Seeded input generation. The workload seed only ever reaches the program
//! as the series generated here. Each workload fixes its inputs' shapes —
//! periods, split lengths, waveform families, anomaly kinds, session
//! lengths — so two seeds present the same amount of work; the seed
//! supplies the content: noise, phase, amplitude, anomaly placement and
//! magnitude.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ucrgen::anomaly::{inject, AnomalyKind};
use ucrgen::signal::{SignalFamily, SignalSpec};

/// One labelled (train, test) pair.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: String,
    pub train: Vec<f64>,
    pub test: Vec<f64>,
    /// Point-wise ground truth over `test`.
    pub labels: Vec<bool>,
}

impl Dataset {
    pub fn points(&self) -> usize {
        self.train.len() + self.test.len()
    }
}

/// The fixed shape of one dataset slot: its period, waveform family and
/// anomaly kind. The seed supplies everything else.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub period: usize,
    pub family: SignalFamily,
    pub kind: AnomalyKind,
}

impl Slot {
    pub const fn new(period: usize, family: SignalFamily, kind: AnomalyKind) -> Slot {
        Slot {
            period,
            family,
            kind,
        }
    }
}

/// Noise floor of every generated series. The exact discord search prunes
/// by distance, so its cost follows the noise level; holding the level
/// fixed keeps the work comparable between seeds.
const NOISE: f64 = 0.05;

/// UCR-style labelled series, one training split and `tests` test splits
/// per slot, built from the archive generator's own pieces
/// (`ucrgen::signal`, `ucrgen::anomaly::inject`) at the slot's exact
/// period. Each test split holds one anomaly a period long at a seeded
/// place near its middle. Returns `tests` datasets per slot, in slot
/// order, sharing the slot's training split.
///
/// The archive generator itself draws every dataset's period at random,
/// which made a run's work depend on the seed. And the discord search
/// covers the selected window and one window either side, clipped to the
/// split: an anomaly near an edge would shrink the searched region and
/// with it the work, so it is kept central.
pub fn labelled(
    seed: u64,
    slots: &[Slot],
    train_periods: usize,
    test_periods: usize,
    tests: usize,
) -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5543_5253_4552_4945);
    let mut out = Vec::with_capacity(slots.len() * tests);
    for slot in slots {
        let period = slot.period;
        let mut spec = SignalSpec::random(&mut rng, slot.family);
        spec.period = period;
        spec.noise = NOISE;
        spec.drift = 0.0;
        let (train_len, test_len) = (period * train_periods, period * test_periods);
        let mut series = spec.generate(&mut rng, train_len + tests * test_len);
        let local_std = tsops::stats::std_dev(series.get(..train_len).unwrap_or(&[]));
        let mut anomalies = Vec::with_capacity(tests);
        for t in 0..tests {
            let mid = train_len + t * test_len + test_len / 2 - period;
            let start = rng.random_range(mid..=mid + period / 2);
            inject(
                &mut rng,
                &mut series,
                start..start + period,
                slot.kind,
                local_std,
                period,
            );
            anomalies.push(start - train_len - t * test_len);
        }
        let train = series.get(..train_len).unwrap_or(&[]).to_vec();
        for (t, a) in anomalies.into_iter().enumerate() {
            let from = train_len + t * test_len;
            out.push(Dataset {
                name: format!("{}_{}_p{period}_{t}", slot.family.name(), slot.kind.name()),
                train: train.clone(),
                test: series.get(from..from + test_len).unwrap_or(&[]).to_vec(),
                labels: (0..test_len)
                    .map(|i| (a..a + period).contains(&i))
                    .collect(),
            });
        }
    }
    out
}

/// A stationary signal source (no drift, no anomaly): the regime a model
/// is fitted on and every fleet stream session keeps feeding.
pub struct Stationary {
    spec: SignalSpec,
}

impl Stationary {
    pub fn new(seed: u64, period: usize, family: SignalFamily) -> Stationary {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x464c_4545_5400);
        let mut spec = SignalSpec::random(&mut rng, family);
        spec.period = period;
        spec.noise = NOISE;
        spec.drift = 0.0;
        spec.am_depth = 0.0;
        Stationary { spec }
    }

    /// `n` points of the regime; `stream` picks the noise realisation.
    pub fn series(&self, seed: u64, stream: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.spec.generate(&mut rng, n)
    }
}

/// Skewed popularity over `slots`: weight `1 / (rank + 1)^1.3`, so a few hot
/// slots take most touches and a long cold tail is touched rarely.
pub struct Popularity {
    cumulative: Vec<f64>,
    rng: StdRng,
}

impl Popularity {
    pub fn new(seed: u64, slots: usize) -> Popularity {
        let mut acc = 0.0;
        let cumulative = (0..slots)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(1.3);
                acc
            })
            .collect();
        Popularity {
            cumulative,
            rng: StdRng::seed_from_u64(seed ^ 0x504f_5055_4c41_5200),
        }
    }

    pub fn next(&mut self) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(1.0);
        let u = self.rng.random::<f64>() * total;
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len().saturating_sub(1))
    }
}
