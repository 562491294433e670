//! The traced run's machinery: harvesting spans, attributing self time to
//! layers, and the replayed training epoch that gives `fit` (which has no
//! internal spans) its breakdown.
//!
//! Self time of a layer span is its duration minus the union of its layer
//! children. The runtime's own spans (`parallel-region`, `worker`) and the
//! kernel spans below the `discord` stage are not layers: their time is
//! attributed to the nearest layer above them.

use crate::inputs::Dataset;
use crate::measure::{median, quantile, secs_since, timed, Report, Tally};
use crate::probes::{self, det_checksum};
use crate::serving;
use neuro::graph::Graph;
use neuro::optim::Adam;
use obs::SpanRecord;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use triad_core::encoder::{DomainEncoder, ProjectionHead};
use triad_core::features::FeatureExtractor;
use triad_core::loss::ContrastiveLoss;
use triad_core::{FittedTriad, TriadConfig, TriadDetection};
use tsops::window::Segmenter;

const TRANSPARENT: &[&str] = &[
    "parallel-region",
    "worker",
    "merlin-sweep",
    "merlin-sweep-fast",
];

/// Spans recorded over one traced pass, with the pass's own extent.
pub struct Traced {
    pub records: Vec<SpanRecord>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Traced {
    pub fn wall_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Run `f` with tracing on and return its value with every span recorded
/// while it ran (including spans of other threads that have flushed).
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Traced) {
    drop(obs::take_records());
    obs::set_enabled(true);
    let start_ns = obs::now_ns();
    let v = f();
    let end_ns = obs::now_ns();
    obs::set_enabled(false);
    obs::flush_thread();
    let records = obs::take_records();
    (
        v,
        Traced {
            records,
            start_ns,
            end_ns,
        },
    )
}

#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
}

/// Per-layer self time plus the runtime's parallel-region statistics.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Durations of every `parallel-region` span, in µs.
    pub region_us: Vec<f64>,
    /// Share of the traced pass's wall time covered by root layer spans
    /// (on any thread).
    pub coverage: f64,
}

impl Breakdown {
    pub fn self_ms(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6)
    }

    /// Mean inclusive duration of one call, in ms (0 when never called).
    pub fn per_call_ms(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |t| {
            if t.count == 0 {
                0.0
            } else {
                t.total_ns as f64 / 1e6 / t.count as f64
            }
        })
    }

    pub fn region_p50_us(&self) -> f64 {
        median(&self.region_us)
    }
}

fn is_transparent(name: &str) -> bool {
    TRANSPARENT.contains(&name)
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

pub fn breakdown(t: &Traced) -> Breakdown {
    let records = &t.records;
    let by_id: BTreeMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let layer_parent = |r: &SpanRecord| {
        let mut p = r.parent;
        while let Some(rec) = by_id.get(&p) {
            if !is_transparent(rec.name) {
                break;
            }
            p = rec.parent;
        }
        p
    };
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records.iter().filter(|r| !is_transparent(r.name)) {
        let p = layer_parent(r);
        if p != 0 {
            children.entry(p).or_default().push((r.start_ns, r.end_ns));
        }
    }
    let mut out = Breakdown::default();
    let mut roots = Vec::new();
    for r in records.iter() {
        let dur = r.end_ns.saturating_sub(r.start_ns);
        if r.name == "parallel-region" {
            out.region_us.push(dur as f64 / 1e3);
        }
        if is_transparent(r.name) {
            continue;
        }
        let covered = children
            .get(&r.id)
            .map_or(0, |iv| union_len(iv.clone(), r.start_ns, r.end_ns));
        let own = dur.saturating_sub(covered);
        let t = out.layers.entry(r.name).or_default();
        t.self_ns += own;
        t.total_ns += dur;
        t.count += 1;
        if layer_parent(r) == 0 {
            roots.push((r.start_ns, r.end_ns));
        }
    }
    let wall = t.end_ns.saturating_sub(t.start_ns);
    out.coverage = if wall == 0 {
        0.0
    } else {
        union_len(roots, t.start_ns, t.end_ns) as f64 / wall as f64
    };
    out
}

/// Open a layer span from the benchmark's side of a public call.
pub fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = obs::span(name);
    f()
}

/// One training epoch rebuilt from the public pieces `fit` is made of,
/// with a span around each: augment, featurize, forward, loss, backward,
/// optimizer step. Returns the epoch's wall time in seconds. Weights start
/// from the same seed as `fit`; the replay never touches a fitted model.
pub fn replay_epoch(cfg: &TriadConfig, train: &[f64], period: usize) -> f64 {
    parallel::with_ambient(cfg.threads, || {
        let window = (((period as f64) * cfg.window_periods).ceil() as usize).max(8);
        let stride = ((window as f64 * cfg.stride_frac) as usize).max(1);
        let windows = Segmenter::new(window, stride).segment(train.len());
        let fx = FeatureExtractor::fit(train, period);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let domains = cfg.domains();
        let encoders: Vec<_> = domains
            .iter()
            .map(|&d| {
                let enc =
                    DomainEncoder::new(&mut rng, d.channels(), cfg.hidden, cfg.depth, cfg.kernel);
                (d, enc)
            })
            .collect();
        let head = ProjectionHead::new(&mut rng, cfg.hidden);
        let mut params: Vec<_> = encoders.iter().flat_map(|(_, e)| e.params()).collect();
        params.extend(head.params());
        let mut opt = Adam::new(params, cfg.lr as f32);
        let loss_cfg = ContrastiveLoss {
            alpha: cfg.alpha,
            temperature: cfg.temperature,
            use_intra: cfg.use_intra,
            use_inter: cfg.use_inter && domains.len() > 1,
        };
        let mut idx: Vec<usize> = (0..windows.count()).collect();
        idx.shuffle(&mut rng);
        let n_val = (idx.len() as f64 * cfg.validation_frac) as usize;
        let train_idx = idx.get(n_val..).unwrap_or(&[]);

        let t0 = obs::now_instant();
        for chunk in train_idx.chunks(cfg.batch).filter(|c| c.len() >= 2) {
            let originals: Vec<&[f64]> = chunk.iter().map(|&i| windows.slice(train, i)).collect();
            let augmented: Vec<Vec<f64>> = layer("bench.augment", || {
                originals
                    .iter()
                    .map(|w| tsaug::augment_window(&mut rng, w, &cfg.augment).0)
                    .collect()
            });
            let aug_refs: Vec<&[f64]> = augmented.iter().map(Vec::as_slice).collect();
            let mut g = Graph::new();
            let mut rs = Vec::with_capacity(encoders.len());
            let mut ras = Vec::with_capacity(encoders.len());
            for (d, enc) in &encoders {
                let (xo, xa) = layer("bench.featurize", || {
                    (
                        fx.batch_tensor(&originals, *d),
                        fx.batch_tensor(&aug_refs, *d),
                    )
                });
                layer("bench.forward", || {
                    let xo = g.input(xo);
                    let xa = g.input(xa);
                    let ho = enc.forward(&mut g, xo);
                    let ha = enc.forward(&mut g, xa);
                    rs.push(head.forward(&mut g, ho));
                    ras.push(head.forward(&mut g, ha));
                });
            }
            let loss = layer("bench.loss", || loss_cfg.total(&mut g, &rs, &ras));
            if g.value(loss).item().is_finite() {
                layer("bench.backward", || g.backward(loss));
            }
            layer("bench.opt_step", || {
                let finite = opt
                    .params()
                    .iter()
                    .all(|p| p.value().grad.data().iter().all(|v| v.is_finite()));
                if finite {
                    opt.step();
                } else {
                    opt.zero_grad();
                }
            });
        }
        secs_since(t0)
    })
}

/// What one pass of a traced run produced.
pub struct Pass {
    /// The pass's in-process detection of the traced input. Its fingerprint
    /// must not change with tracing; its discords give the sweep's work.
    pub det: TriadDetection,
    /// Operations in the pass: the divisor of per-operation span counts.
    pub ops: usize,
    /// Protocol lines the pass sent and received (none for an in-process
    /// pass), for the JSON probe.
    pub lines: Vec<String>,
    pub tally: Tally,
    /// Client-side `detect` round trips and push → visible times, in ms.
    pub detect_ms: Vec<f64>,
    pub visible_ms: Vec<f64>,
    /// Stream pushes, and the largest fleet residency `stats` showed.
    pub touches: usize,
    pub resident_max: f64,
}

impl Pass {
    /// A pass of in-process calls only.
    pub fn in_process(det: TriadDetection, ops: usize) -> Pass {
        Pass {
            det,
            ops,
            lines: Vec::new(),
            tally: Tally::default(),
            detect_ms: Vec::new(),
            visible_ms: Vec::new(),
            touches: 0,
            resident_max: 0.0,
        }
    }
}

/// The traced run of every workload. It runs the same fixed-size `pass`
/// three times: a warm-up for caches and the allocator, then untraced, then
/// traced; the overhead ratio compares the last two. Then come the replayed
/// epoch, the in-process stream and JSON probes, the server's own figures
/// from `stats` when the workload has a server, and the thread-count
/// identity check on `ds`. `model` is fitted on `ds` with `cfg`.
pub fn traced_run(
    report: &mut Report,
    cfg: &TriadConfig,
    ds: &Dataset,
    model: &FittedTriad,
    server: Option<std::net::SocketAddr>,
    pass: impl Fn() -> Result<Pass, String>,
) -> Result<(), String> {
    let warm = pass()?;
    let (untraced, untraced_s) = timed(&pass);
    let untraced = untraced?;
    let (traced_out, spans) = traced(&pass);
    let traced_pass = traced_out?;
    report.tally.check(
        det_checksum(&untraced.det) == det_checksum(&traced_pass.det),
        || {
            format!(
                "{}: detection differs between traced and untraced passes",
                ds.name
            )
        },
    );
    let (replay_s, replay) = traced(|| replay_epoch(cfg, &ds.train, model.period()));
    let mut layers = Layers::from_spans(&breakdown(&spans), &breakdown(&replay), traced_pass.ops);
    layers.replay_epoch_ms = replay_s * 1e3;
    layers.discord_lengths = untraced.det.discords.len() as f64;
    layers.region_len = untraced.det.search_region.len() as f64;
    layers.trace_overhead = spans.wall_s() / untraced_s.max(1e-9);
    layers.visible_p50 = median(&untraced.visible_ms);
    layers.visible_p90 = quantile(&untraced.visible_ms, 0.9);
    layers.detect_p50 = median(&untraced.detect_ms);
    layers.detect_p90 = quantile(&untraced.detect_ms, 0.9);
    layers.push_us = probes::stream_push_us(model, &ds.test)?;
    layers.json_us = if untraced.lines.is_empty() {
        probes::json_us(&probes::detect_lines("m", &ds.test, &untraced.det))?
    } else {
        probes::json_us(&untraced.lines)?
    };
    let passes = [warm, untraced, traced_pass];
    if let Some(addr) = server {
        // The server's counters cover all three passes.
        serving::serve_layers(&mut layers, &serving::stats(addr)?);
        let touches: usize = passes.iter().map(|p| p.touches).sum();
        if touches > 0 {
            layers.rehydrate_ratio = layers.rehydrations / touches as f64;
        }
    }
    for p in passes {
        layers.resident_bytes_max = layers.resident_bytes_max.max(p.resident_max);
        report.tally.merge(p.tally);
    }
    layers.thread_identity(cfg, ds, &mut report.tally)?;
    layers.finish(report);
    Ok(())
}

/// Every per-layer metric of the traced run. A layer the workload does not
/// exercise reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub estimate_period_ms: f64,
    pub augment_ms: f64,
    pub featurize_ms: f64,
    pub forward_ms: f64,
    pub loss_ms: f64,
    pub backward_ms: f64,
    pub opt_step_ms: f64,
    pub replay_epoch_ms: f64,
    pub fit_epoch_ms: f64,
    pub embed_ms: f64,
    pub rank_ms: f64,
    pub narrow_ms: f64,
    pub vote_ms: f64,
    pub sweep_ms: f64,
    pub discord_lengths: f64,
    pub region_len: f64,
    pub regions: f64,
    pub region_us_p50: f64,
    pub fit_speedup: f64,
    pub push_us: f64,
    pub visible_p50: f64,
    pub visible_p90: f64,
    pub detect_p50: f64,
    pub detect_p90: f64,
    pub evictions: f64,
    pub rehydrations: f64,
    pub resident_bytes_max: f64,
    pub rehydrate_ratio: f64,
    pub rehydrate_ms: f64,
    pub evict_ms: f64,
    pub queue_wait_ms: f64,
    pub batch_size_mean: f64,
    pub cache_hit_ratio: f64,
    pub json_us: f64,
    pub trace_overhead: f64,
    pub coverage: f64,
    pub spans_dropped: f64,
}

impl Layers {
    /// Fill the span-derived layers from the traced pass (`ops` operations)
    /// and the replayed epoch.
    pub fn from_spans(pass: &Breakdown, replay: &Breakdown, ops: usize) -> Layers {
        Layers {
            estimate_period_ms: pass.self_ms("bench.estimate_period"),
            augment_ms: replay.self_ms("bench.augment"),
            featurize_ms: replay.self_ms("bench.featurize") + pass.self_ms("featurize"),
            forward_ms: replay.self_ms("bench.forward"),
            loss_ms: replay.self_ms("bench.loss"),
            backward_ms: replay.self_ms("bench.backward"),
            opt_step_ms: replay.self_ms("bench.opt_step"),
            embed_ms: pass.self_ms("bench.embed"),
            rank_ms: pass.self_ms("rank"),
            narrow_ms: pass.self_ms("narrow"),
            vote_ms: pass.self_ms("vote"),
            sweep_ms: pass.per_call_ms("discord"),
            regions: pass.region_us.len() as f64 / ops.max(1) as f64,
            region_us_p50: pass.region_p50_us(),
            rehydrate_ms: pass.per_call_ms("fleet-rehydrate"),
            evict_ms: pass.per_call_ms("fleet-evict"),
            coverage: pass.coverage,
            spans_dropped: obs::spans_dropped() as f64,
            ..Layers::default()
        }
    }

    /// The thread-count identity check on `ds`, which also gives the fit
    /// figures: the 1-thread ÷ default-threads fit time and one default
    /// fit's wall per epoch.
    pub fn thread_identity(
        &mut self,
        cfg: &TriadConfig,
        ds: &Dataset,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let (one_s, default_s) = crate::probes::thread_identity(cfg, ds, tally)?;
        self.fit_speedup = one_s / default_s.max(1e-9);
        self.fit_epoch_ms = default_s * 1e3 / cfg.epochs.max(1) as f64;
        Ok(())
    }

    /// Check the breakdown's validity (nothing dropped, the traced wall
    /// attributed) and emit every per-layer metric.
    pub fn finish(&self, report: &mut Report) {
        if self.spans_dropped > 0.0 {
            report.tally.fail(format!(
                "trace invalid: {} spans dropped",
                self.spans_dropped
            ));
        }
        if self.coverage < 0.95 {
            report.tally.fail(format!(
                "trace invalid: layer spans cover only {:.3} of the traced wall",
                self.coverage
            ));
        }
        self.emit(report);
    }

    fn emit(&self, report: &mut Report) {
        let rows: [(&'static str, f64, &'static str); 37] = [
            ("tsops.estimate_period_ms", self.estimate_period_ms, "ms"),
            ("tsaug.augment_ms", self.augment_ms, "ms"),
            ("core.featurize_ms", self.featurize_ms, "ms"),
            ("neuro.forward_ms", self.forward_ms, "ms"),
            ("core.loss_ms", self.loss_ms, "ms"),
            ("neuro.backward_ms", self.backward_ms, "ms"),
            ("neuro.opt_step_ms", self.opt_step_ms, "ms"),
            ("core.replay_epoch_ms", self.replay_epoch_ms, "ms"),
            ("core.fit_epoch_ms", self.fit_epoch_ms, "ms"),
            ("core.embed_ms", self.embed_ms, "ms"),
            ("core.rank_ms", self.rank_ms, "ms"),
            ("core.narrow_ms", self.narrow_ms, "ms"),
            ("core.vote_ms", self.vote_ms, "ms"),
            ("discord.sweep_ms", self.sweep_ms, "ms"),
            ("discord.lengths", self.discord_lengths, "count"),
            ("discord.region_len", self.region_len, "count"),
            ("parallel.regions", self.regions, "count"),
            ("parallel.region_us.p50", self.region_us_p50, "us"),
            ("parallel.fit_speedup", self.fit_speedup, "x"),
            ("stream.push_us", self.push_us, "us"),
            ("stream.visible_ms.p50", self.visible_p50, "ms"),
            ("stream.visible_ms.p90", self.visible_p90, "ms"),
            ("serve.detect_ms.p50", self.detect_p50, "ms"),
            ("serve.detect_ms.p90", self.detect_p90, "ms"),
            ("fleet.evictions", self.evictions, "count"),
            ("fleet.rehydrations", self.rehydrations, "count"),
            ("fleet.resident_bytes_max", self.resident_bytes_max, "bytes"),
            ("fleet.rehydrate_ratio", self.rehydrate_ratio, "ratio"),
            ("fleet.rehydrate_ms", self.rehydrate_ms, "ms"),
            ("fleet.evict_ms", self.evict_ms, "ms"),
            ("serve.queue_wait_ms", self.queue_wait_ms, "ms"),
            ("serve.batch_size_mean", self.batch_size_mean, "count"),
            ("serve.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            ("serve.json_us", self.json_us, "us"),
            ("obs.trace_overhead", self.trace_overhead, "ratio"),
            ("obs.coverage", self.coverage, "ratio"),
            ("obs.spans_dropped", self.spans_dropped, "count"),
        ];
        for (name, value, unit) in rows {
            report.metric(name, value, unit);
        }
    }
}
