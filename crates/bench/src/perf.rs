//! `triad bench` — the fixed-seed performance harness for the parallel
//! runtime.
//!
//! Runs each hot-path workload (train, detect, stream, discord) at 1/2/4/8
//! worker threads and writes one `BENCH_<stage>.json` per stage with wall
//! time, speedup relative to the serial (1-thread) run, and an FNV-1a
//! checksum of the stage's outputs. The checksum doubles as a determinism
//! probe: the parallel runtime's contract is that every thread count yields
//! bit-identical results, so the harness fails loudly if any checksum
//! disagrees (the test suite proves the same property exhaustively in
//! `tests/parallel_determinism.rs`).
//!
//! `--smoke` shrinks every workload to CI scale while keeping the JSON
//! schema identical, so `scripts/ci.sh` can validate the output shape on
//! any machine. Speedups are *measured*, never asserted here — they depend
//! on physical cores (a single-core container reports ~1.0x).

use obs::now_instant;
use std::path::PathBuf;

use discord::fast::merlin_fast;
use discord::merlin::{merlin, MerlinConfig};
use triad_core::{persist, TriAd, TriadConfig, TriadDetection};
use triad_stream::{StreamConfig, StreamEngine};
use tsops::mass::SelfJoinPlan;

/// Worker-thread counts every stage is swept over.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Options parsed from `triad bench` flags.
pub struct BenchOptions {
    /// CI scale: tiny workloads, one repetition, same JSON schema.
    pub smoke: bool,
    /// Where the `BENCH_<stage>.json` files land.
    pub out_dir: PathBuf,
    /// Subset of stages to run (empty = all of
    /// train/detect/stream/discord/kernels).
    pub stages: Vec<String>,
}

/// One timed run of a stage at a fixed thread count.
struct ThreadRun {
    threads: usize,
    wall_ms: f64,
    speedup_vs_serial: f64,
    checksum: u64,
}

/// Everything written to `BENCH_<stage>.json`.
struct StageReport {
    stage: &'static str,
    smoke: bool,
    workload: String,
    runs: Vec<ThreadRun>,
    /// Pipeline-kernel (`merlin_fast`) sweep (discord stage only; empty
    /// elsewhere). There `runs` is the exact ladder, so the file keeps
    /// timing the oracle against the kernel the pipeline runs.
    fast_runs: Vec<ThreadRun>,
    bit_identical: bool,
}

fn runs_json(runs: &[ThreadRun]) -> String {
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"wall_ms\": {:.3}, \
                 \"speedup_vs_serial\": {:.3}, \"checksum\": \"{:016x}\"}}",
                r.threads, r.wall_ms, r.speedup_vs_serial, r.checksum
            )
        })
        .collect();
    rows.join(",\n")
}

impl StageReport {
    /// Exact-ladder serial time over pipeline-kernel serial time (discord
    /// only).
    fn fast_speedup_vs_exact(&self) -> Option<f64> {
        let exact = self.runs.first()?.wall_ms;
        let fast = self.fast_runs.first()?.wall_ms;
        (fast > 0.0).then(|| exact / fast)
    }

    fn to_json(&self) -> String {
        let fast = match self.fast_speedup_vs_exact() {
            Some(s) => format!(
                "  \"fast_runs\": [\n{}\n  ],\n  \"fast_speedup_vs_exact\": {:.3},\n",
                runs_json(&self.fast_runs),
                s
            ),
            None => String::new(),
        };
        format!(
            "{{\n  \"stage\": \"{}\",\n  \"smoke\": {},\n  \"workload\": \"{}\",\n  \
             \"runs\": [\n{}\n  ],\n{}  \"bit_identical\": {}\n}}\n",
            self.stage,
            self.smoke,
            self.workload,
            runs_json(&self.runs),
            fast,
            self.bit_identical
        )
    }

    fn summary(&self) -> String {
        let serial = self.runs.first().map(|r| r.wall_ms).unwrap_or(0.0);
        let at4 = self
            .runs
            .iter()
            .find(|r| r.threads == 4)
            .map(|r| r.speedup_vs_serial)
            .unwrap_or(1.0);
        let fast = match self.fast_speedup_vs_exact() {
            Some(s) => format!(
                ", fast 1t {:.1} ms ({s:.1}x vs exact)",
                self.fast_runs[0].wall_ms
            ),
            None => String::new(),
        };
        format!(
            "{:7} : 1t {:9.1} ms, 4t speedup {:.2}x{}, bit-identical {} → BENCH_{}.json",
            self.stage, serial, at4, fast, self.bit_identical, self.stage
        )
    }
}

/// FNV-1a 64-bit, folded over the canonical byte encoding of each value.
/// Stable across runs and platforms (f64 hashed via `to_bits`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f32(&mut self, v: f32) {
        self.u64(v.to_bits() as u64);
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn done(self) -> u64 {
        self.0
    }
}

fn hash_detection(h: &mut Fnv, det: &TriadDetection) {
    for &v in &det.votes {
        h.f64(v);
    }
    for &b in &det.prediction {
        h.u64(b as u64);
    }
    h.f64(det.threshold);
    h.usize(det.selected_window.start);
    h.usize(det.selected_window.end);
    h.usize(det.search_region.start);
    h.usize(det.search_region.end);
    for c in &det.candidates {
        h.usize(c.start);
        h.usize(c.end);
    }
    for r in &det.rankings {
        for &s in &r.scores {
            h.f64(s);
        }
    }
    for d in &det.discords {
        h.usize(d.index);
        h.usize(d.length);
        h.f64(d.distance);
    }
    h.u64(det.used_fallback as u64);
}

/// The harness series: a two-harmonic periodic signal with deterministic
/// jitter and a frequency-shift anomaly inside the test split — the same
/// family the pipeline tests train on, scaled up.
fn make_series(n_train: usize, n_test: usize, period: usize) -> (Vec<f64>, Vec<f64>) {
    use std::f64::consts::PI;
    let p = period as f64;
    let mut full: Vec<f64> = (0..n_train + n_test)
        .map(|i| {
            (2.0 * PI * i as f64 / p).sin()
                + 0.3 * (4.0 * PI * i as f64 / p).sin()
                + 0.02 * (((i * 37) % 97) as f64 / 97.0 - 0.5)
        })
        .collect();
    let a0 = n_train + n_test / 2;
    for i in a0..(a0 + 2 * period).min(n_train + n_test) {
        full[i] = (8.0 * PI * i as f64 / p).sin();
    }
    (full[..n_train].to_vec(), full[n_train..].to_vec())
}

/// Sweep `run` over [`THREAD_COUNTS`], timing `reps` repetitions (best-of)
/// and demanding the checksum is stable across repetitions.
fn sweep(
    stage: &str,
    reps: usize,
    mut run: impl FnMut(usize) -> Result<u64, String>,
) -> Result<Vec<ThreadRun>, String> {
    let mut runs: Vec<ThreadRun> = Vec::new();
    let mut serial_ms = 0.0;
    for &t in &THREAD_COUNTS {
        let mut best = f64::INFINITY;
        let mut checksum = 0u64;
        for rep in 0..reps.max(1) {
            let t0 = now_instant();
            let c = run(t)?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if rep == 0 {
                checksum = c;
            } else if c != checksum {
                return Err(format!(
                    "{stage}: output changed between repetitions at {t} threads \
                     ({checksum:016x} vs {c:016x})"
                ));
            }
            best = best.min(ms);
        }
        if t == 1 {
            serial_ms = best;
        }
        runs.push(ThreadRun {
            threads: t,
            wall_ms: best,
            speedup_vs_serial: if best > 0.0 { serial_ms / best } else { 0.0 },
            checksum,
        });
    }
    Ok(runs)
}

fn report(stage: &'static str, smoke: bool, workload: String, runs: Vec<ThreadRun>) -> StageReport {
    let bit_identical = runs.windows(2).all(|w| w[0].checksum == w[1].checksum);
    StageReport {
        stage,
        smoke,
        workload,
        runs,
        fast_runs: Vec::new(),
        bit_identical,
    }
}

/// Attach the pipeline-kernel sweep to a report. Bit-identity is demanded
/// *within* each kernel (their checksums legitimately differ — that is what
/// "tolerance-equivalent" means).
fn with_fast(mut rep: StageReport, fast_runs: Vec<ThreadRun>) -> StageReport {
    rep.bit_identical =
        rep.bit_identical && fast_runs.windows(2).all(|w| w[0].checksum == w[1].checksum);
    rep.fast_runs = fast_runs;
    rep
}

/// Train stage: full `fit` with sharded gradient accumulation
/// (`grad_shards = 4`), checksummed over the persisted TRIAD2 bytes plus
/// the per-epoch loss curve — the strongest train-side identity probe.
fn stage_train(smoke: bool, reps: usize) -> Result<StageReport, String> {
    let (n_train, period) = if smoke { (512, 32) } else { (1536, 32) };
    let (train, _) = make_series(n_train, 0, period);
    let cfg = TriadConfig {
        epochs: if smoke { 1 } else { 2 },
        depth: if smoke { 2 } else { 3 },
        hidden: if smoke { 8 } else { 16 },
        batch: 8,
        grad_shards: 4,
        seed: 7,
        ..TriadConfig::default()
    };
    let runs = sweep("train", reps, |t| {
        let mut c = cfg.clone();
        c.threads = t;
        let fitted = TriAd::new(c).fit(&train)?;
        let mut bytes = Vec::new();
        persist::save(&mut bytes, &fitted).map_err(|e| e.to_string())?;
        let mut h = Fnv::new();
        h.bytes(&bytes);
        for &l in &fitted.report().epoch_losses {
            h.f64(l);
        }
        Ok(h.done())
    })?;
    Ok(report(
        "train",
        smoke,
        format!("fit n={n_train} (period {period}, grad_shards 4)"),
        runs,
    ))
}

/// Detect stage: one serial fit, then the full inference pipeline
/// (embedding, ranking, selection, MERLIN, voting) timed per thread count.
fn stage_detect(smoke: bool, reps: usize) -> Result<StageReport, String> {
    let (n_train, n_test, period) = if smoke {
        (512, 512, 32)
    } else {
        (1024, 4096, 32)
    };
    let (train, test) = make_series(n_train, n_test, period);
    let cfg = TriadConfig {
        epochs: if smoke { 1 } else { 2 },
        depth: if smoke { 2 } else { 3 },
        hidden: if smoke { 8 } else { 24 },
        batch: 8,
        merlin_step: if smoke { 8 } else { 2 },
        seed: 7,
        ..TriadConfig::default()
    };
    let mut fitted = TriAd::new(cfg).fit(&train)?;
    let runs = sweep("detect", reps, |t| {
        fitted.set_threads(t);
        let det = fitted.detect(&test);
        let mut h = Fnv::new();
        hash_detection(&mut h, &det);
        Ok(h.done())
    })?;
    Ok(report(
        "detect",
        smoke,
        format!("fit n={n_train}, detect n={n_test} (period {period})"),
        runs,
    ))
}

/// Stream stage: sample-at-a-time replay through the incremental engine
/// plus the offline-equivalent `finalize`, per thread count.
fn stage_stream(smoke: bool, reps: usize) -> Result<StageReport, String> {
    let (n_train, n_test, period) = if smoke {
        (512, 512, 32)
    } else {
        (1024, 4096, 32)
    };
    let (train, test) = make_series(n_train, n_test, period);
    let cfg = TriadConfig {
        epochs: 1,
        depth: if smoke { 2 } else { 3 },
        hidden: if smoke { 8 } else { 24 },
        batch: 8,
        merlin_step: if smoke { 8 } else { 2 },
        seed: 7,
        ..TriadConfig::default()
    };
    let mut fitted = TriAd::new(cfg).fit(&train)?;
    let scfg = StreamConfig {
        capacity: n_test + 1,
        ..StreamConfig::default()
    };
    let runs = sweep("stream", reps, |t| {
        fitted.set_threads(t);
        let mut engine = StreamEngine::new(&fitted, scfg.clone());
        for &x in &test {
            let _ = engine.push(&fitted, x);
        }
        let status = engine.status();
        let mut h = Fnv::new();
        h.u64(status.seq);
        h.usize(status.windows_scored);
        for ev in &status.events {
            h.u64(ev.start);
            h.u64(ev.end.unwrap_or(u64::MAX));
            h.f64(ev.peak_deviance);
        }
        let det = engine.finalize(&fitted).map_err(|e| e.to_string())?;
        hash_detection(&mut h, &det);
        Ok(h.done())
    })?;
    Ok(report(
        "stream",
        smoke,
        format!("replay n={n_test} + finalize (period {period})"),
        runs,
    ))
}

/// Discord stage: the MERLIN length sweep alone, at bench scale. `runs` is
/// the exact ladder (the oracle), the extra `fast_runs`/`fast_speedup_vs_exact`
/// keys are the MASS profile kernel the detect pipeline runs.
fn stage_discord(smoke: bool, reps: usize) -> Result<StageReport, String> {
    let (n, min_len, max_len, step) = if smoke {
        (300, 8, 32, 4)
    } else {
        (1200, 8, 96, 1)
    };
    let (series, _) = make_series(n, 0, 25);
    let mcfg = MerlinConfig::new(min_len, max_len).with_step(step);
    let hash_discords = |found: &[discord::Discord]| {
        let mut h = Fnv::new();
        for d in found {
            h.usize(d.index);
            h.usize(d.length);
            h.f64(d.distance);
        }
        h.done()
    };
    let runs = sweep("discord", reps, |t| {
        Ok(hash_discords(&parallel::with_ambient(t, || {
            merlin(&series, mcfg)
        })))
    })?;
    let fast_runs = sweep("discord (fast)", reps, |t| {
        Ok(hash_discords(&parallel::with_ambient(t, || {
            merlin_fast(&series, mcfg)
        })))
    })?;
    Ok(with_fast(
        report(
            "discord",
            smoke,
            format!("merlin n={n}, lengths {min_len}..={max_len} step {step}"),
            runs,
        ),
        fast_runs,
    ))
}

/// One kernel-vs-naive comparison in `BENCH_kernels.json`.
struct KernelRun {
    kernel: &'static str,
    workload: String,
    naive_ms: f64,
    fast_ms: f64,
    checksum: u64,
}

/// Everything written to `BENCH_kernels.json`. Same top-level shape as a
/// [`StageReport`] (stage/smoke/workload/runs/bit_identical, hex checksum
/// strings) so the CI schema check treats every bench file alike; the per-run
/// speedup is `speedup_vs_naive` because the reference here is the scalar
/// kernel, not a serial thread count.
struct KernelReport {
    smoke: bool,
    runs: Vec<KernelRun>,
    bit_identical: bool,
}

impl KernelReport {
    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                format!(
                    "    {{\"kernel\": \"{}\", \"workload\": \"{}\", \"naive_ms\": {:.3}, \
                     \"fast_ms\": {:.3}, \"speedup_vs_naive\": {:.3}, \"checksum\": \"{:016x}\"}}",
                    r.kernel,
                    r.workload,
                    r.naive_ms,
                    r.fast_ms,
                    if r.fast_ms > 0.0 {
                        r.naive_ms / r.fast_ms
                    } else {
                        0.0
                    },
                    r.checksum
                )
            })
            .collect();
        format!(
            "{{\n  \"stage\": \"kernels\",\n  \"smoke\": {},\n  \
             \"workload\": \"hot kernels vs scalar references\",\n  \
             \"runs\": [\n{}\n  ],\n  \"bit_identical\": {}\n}}\n",
            self.smoke,
            rows.join(",\n"),
            self.bit_identical
        )
    }

    fn summary(&self) -> String {
        let per: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{} {:.1}x",
                    r.kernel,
                    if r.fast_ms > 0.0 {
                        r.naive_ms / r.fast_ms
                    } else {
                        0.0
                    }
                )
            })
            .collect();
        format!(
            "kernels : {}, bit-identical {} → BENCH_kernels.json",
            per.join(", "),
            self.bit_identical
        )
    }
}

/// Deterministic pseudo-random fill in [-0.5, 0.5) — no RNG dependency, and
/// the pattern has no structure a kernel could shortcut on.
fn synth(i: usize, salt: usize) -> f64 {
    (((i * 37 + salt * 101) % 997) as f64) / 997.0 - 0.5
}

/// Time `run` over `reps` repetitions (best-of), demanding a stable
/// checksum, and return `(best_ms, checksum)`.
fn time_best(reps: usize, mut run: impl FnMut() -> u64, label: &str) -> Result<(f64, u64), String> {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for rep in 0..reps.max(1) {
        let t0 = now_instant();
        let c = run();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if rep == 0 {
            checksum = c;
        } else if c != checksum {
            return Err(format!(
                "kernels/{label}: output changed between repetitions"
            ));
        }
        best = best.min(ms);
    }
    Ok((best, checksum))
}

/// Kernels stage: each hot kernel against a scalar reference on the same
/// data. Speedups are informational; what is *gated* is that each kernel's
/// output is reproduction-stable and thread-count-invariant, and that it
/// agrees with its reference (bit-identically for the blocked f32 kernels,
/// which reorder nothing per output element; within FFT tolerance for the
/// sliding-dot kernel).
fn stage_kernels(smoke: bool, reps: usize) -> Result<KernelReport, String> {
    let mut runs = Vec::new();
    let mut identical = true;

    // --- sliding dot products: SelfJoinPlan (FFT) vs the naive O(n·m) loop.
    {
        let (n, m) = if smoke { (2048, 64) } else { (16384, 256) };
        let series: Vec<f64> = (0..n).map(|i| synth(i, 1)).collect();
        let query = &series[..m];
        let (naive_ms, _) = time_best(
            reps,
            || {
                let mut h = Fnv::new();
                for i in 0..=n - m {
                    let dot: f64 = series[i..i + m]
                        .iter()
                        .zip(query)
                        .map(|(&a, &b)| a * b)
                        .sum();
                    h.f64(dot);
                }
                h.done()
            },
            "sliding_dot naive",
        )?;
        let plan = SelfJoinPlan::new(&series, m);
        let (fast_ms, checksum) = time_best(
            reps,
            || {
                let dots = plan.sliding_dots(query);
                let mut h = Fnv::new();
                for &d in &dots {
                    h.f64(d);
                }
                h.done()
            },
            "sliding_dot fast",
        )?;
        // Tolerance gate: the FFT path must agree with the naive loop.
        let dots = plan.sliding_dots(query);
        for (i, &d) in dots.iter().enumerate() {
            let naive: f64 = series[i..i + m]
                .iter()
                .zip(query)
                .map(|(&a, &b)| a * b)
                .sum();
            if (d - naive).abs() > 1e-6 * (1.0 + naive.abs()) {
                return Err(format!(
                    "kernels/sliding_dot: FFT dot diverged at {i}: {d} vs {naive}"
                ));
            }
        }
        runs.push(KernelRun {
            kernel: "sliding_dot",
            workload: format!("n={n} m={m}"),
            naive_ms,
            fast_ms,
            checksum,
        });
    }

    // --- matmul: the blocked graph kernel vs the textbook scalar loop.
    {
        let d = if smoke { 48 } else { 160 };
        let a: Vec<f32> = (0..d * d).map(|i| synth(i, 2) as f32).collect();
        let b: Vec<f32> = (0..d * d).map(|i| synth(i, 3) as f32).collect();
        let (naive_ms, naive_sum) = time_best(
            reps,
            || {
                let mut h = Fnv::new();
                for i in 0..d {
                    for j in 0..d {
                        let mut acc = 0.0f32;
                        for kk in 0..d {
                            acc += a[i * d + kk] * b[kk * d + j];
                        }
                        h.f32(acc);
                    }
                }
                h.done()
            },
            "matmul naive",
        )?;
        let run_graph = |threads: usize| {
            parallel::with_ambient(threads, || {
                let mut g = neuro::Graph::new();
                let na = g.input(neuro::Tensor::from_vec(&[d, d], a.clone()));
                let nb = g.input(neuro::Tensor::from_vec(&[d, d], b.clone()));
                let out = g.matmul(na, nb);
                let mut h = Fnv::new();
                for &v in g.value(out).data() {
                    h.f32(v);
                }
                h.done()
            })
        };
        let (fast_ms, checksum) = time_best(reps, || run_graph(1), "matmul fast")?;
        // The blocked kernel accumulates each element in the same k-ascending
        // order as the scalar loop, so agreement is bit-exact — and so is the
        // parallel split (row-disjoint).
        identical &= checksum == naive_sum && run_graph(4) == checksum;
        runs.push(KernelRun {
            kernel: "matmul",
            workload: format!("{d}x{d}x{d}"),
            naive_ms,
            fast_ms,
            checksum,
        });
    }

    // --- conv1d: the zipped-slice graph kernel vs the guarded scalar loop.
    {
        let (bsz, cin, cout, l, k, dilation) = if smoke {
            (2, 4, 4, 128, 5, 2)
        } else {
            (8, 8, 8, 512, 9, 4)
        };
        let x: Vec<f32> = (0..bsz * cin * l).map(|i| synth(i, 4) as f32).collect();
        let w: Vec<f32> = (0..cout * cin * k).map(|i| synth(i, 5) as f32).collect();
        let bias: Vec<f32> = (0..cout).map(|i| synth(i, 6) as f32).collect();
        let half = (k / 2) * dilation;
        let (naive_ms, naive_sum) = time_best(
            reps,
            || {
                let mut h = Fnv::new();
                for bi in 0..bsz {
                    for co in 0..cout {
                        let mut orow = vec![bias[co]; l];
                        for ci in 0..cin {
                            for kk in 0..k {
                                let wk = w[(co * cin + ci) * k + kk];
                                for (t, o) in orow.iter_mut().enumerate() {
                                    let src = t + kk * dilation;
                                    if src >= half && src - half < l {
                                        *o += wk * x[(bi * cin + ci) * l + src - half];
                                    }
                                }
                            }
                        }
                        for &v in &orow {
                            h.f32(v);
                        }
                    }
                }
                h.done()
            },
            "conv1d naive",
        )?;
        let run_graph = |threads: usize| {
            parallel::with_ambient(threads, || {
                let mut g = neuro::Graph::new();
                let nx = g.input(neuro::Tensor::from_vec(&[bsz, cin, l], x.clone()));
                let nw = g.input(neuro::Tensor::from_vec(&[cout, cin, k], w.clone()));
                let nb = g.input(neuro::Tensor::from_vec(&[cout], bias.clone()));
                let out = g.conv1d(nx, nw, nb, dilation);
                let mut h = Fnv::new();
                for &v in g.value(out).data() {
                    h.f32(v);
                }
                h.done()
            })
        };
        let (fast_ms, checksum) = time_best(reps, || run_graph(1), "conv1d fast")?;
        identical &= checksum == naive_sum && run_graph(4) == checksum;
        runs.push(KernelRun {
            kernel: "conv1d",
            workload: format!("B={bsz} Cin={cin} Cout={cout} L={l} K={k} d={dilation}"),
            naive_ms,
            fast_ms,
            checksum,
        });
    }

    Ok(KernelReport {
        smoke,
        runs,
        bit_identical: identical,
    })
}

/// Run the harness; returns human-readable summary lines (one per stage).
/// Errors if a stage's outputs are not bit-identical across thread counts —
/// the files are still written first so the discrepancy can be inspected.
pub fn run_bench(opts: &BenchOptions) -> Result<Vec<String>, String> {
    const ALL: [&str; 5] = ["train", "detect", "stream", "discord", "kernels"];
    for s in &opts.stages {
        if !ALL.contains(&s.as_str()) {
            return Err(format!(
                "unknown bench stage {s:?} (expected one of {ALL:?})"
            ));
        }
    }
    let wanted = |s: &str| opts.stages.is_empty() || opts.stages.iter().any(|x| x == s);
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let reps = if opts.smoke { 1 } else { 2 };

    let mut out = Vec::new();
    let mut broken = Vec::new();
    for stage in ALL {
        if !wanted(stage) {
            continue;
        }
        if stage == "kernels" {
            let rep = stage_kernels(opts.smoke, reps)?;
            let path = opts.out_dir.join("BENCH_kernels.json");
            std::fs::write(&path, rep.to_json()).map_err(|e| format!("{path:?}: {e}"))?;
            if !rep.bit_identical {
                broken.push("kernels");
            }
            out.push(rep.summary());
            continue;
        }
        let rep = match stage {
            "train" => stage_train(opts.smoke, reps)?,
            "detect" => stage_detect(opts.smoke, reps)?,
            "stream" => stage_stream(opts.smoke, reps)?,
            _ => stage_discord(opts.smoke, reps)?,
        };
        let path = opts.out_dir.join(format!("BENCH_{}.json", rep.stage));
        std::fs::write(&path, rep.to_json()).map_err(|e| format!("{path:?}: {e}"))?;
        if !rep.bit_identical {
            broken.push(rep.stage);
        }
        out.push(rep.summary());
    }
    if !broken.is_empty() {
        return Err(format!(
            "stages {broken:?} were NOT bit-identical across thread counts — \
             see BENCH_<stage>.json in {:?}",
            opts.out_dir
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let mut a = Fnv::new();
        a.f64(1.0);
        a.f64(2.0);
        let mut b = Fnv::new();
        b.f64(2.0);
        b.f64(1.0);
        assert_ne!(a.done(), b.done());
        let mut c = Fnv::new();
        c.bytes(b"hello");
        // Reference FNV-1a 64 of "hello".
        assert_eq!(c.done(), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn smoke_bench_writes_schema_complete_files() {
        let dir = std::env::temp_dir().join(format!("triad_bench_{}", std::process::id()));
        let opts = BenchOptions {
            smoke: true,
            out_dir: dir.clone(),
            stages: vec!["discord".into()],
        };
        let lines = run_bench(&opts).expect("smoke bench");
        assert_eq!(lines.len(), 1);
        let text = std::fs::read_to_string(dir.join("BENCH_discord.json")).unwrap();
        for key in [
            "\"stage\"",
            "\"smoke\"",
            "\"workload\"",
            "\"runs\"",
            "\"threads\"",
            "\"wall_ms\"",
            "\"speedup_vs_serial\"",
            "\"checksum\"",
            "\"fast_runs\"",
            "\"fast_speedup_vs_exact\"",
            "\"bit_identical\": true",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn smoke_kernels_stage_writes_schema_complete_file() {
        let dir = std::env::temp_dir().join(format!("triad_bench_k_{}", std::process::id()));
        let opts = BenchOptions {
            smoke: true,
            out_dir: dir.clone(),
            stages: vec!["kernels".into()],
        };
        let lines = run_bench(&opts).expect("kernels bench");
        assert_eq!(lines.len(), 1);
        let text = std::fs::read_to_string(dir.join("BENCH_kernels.json")).unwrap();
        for key in [
            "\"stage\": \"kernels\"",
            "\"workload\"",
            "\"runs\"",
            "\"kernel\": \"sliding_dot\"",
            "\"kernel\": \"matmul\"",
            "\"kernel\": \"conv1d\"",
            "\"naive_ms\"",
            "\"fast_ms\"",
            "\"speedup_vs_naive\"",
            "\"checksum\"",
            "\"bit_identical\": true",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_stage_is_rejected() {
        let opts = BenchOptions {
            smoke: true,
            out_dir: std::env::temp_dir(),
            stages: vec!["bogus".into()],
        };
        assert!(run_bench(&opts).is_err());
    }
}
