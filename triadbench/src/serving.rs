//! The two workloads that go through the serve wire protocol, against an
//! in-process server at its default configuration.
//!
//! * `serve-mixed` — two closed-loop connections side by side, in rounds:
//!   one sends a `detect` on an archive-shaped test split, while the other
//!   replays those splits as streams, pushing 32-point `stream.push` chunks
//!   and polling each until it is scored. The flat stream tier; no fleet
//!   budget.
//! * `fleet-churn` — one closed-loop connection pushing to and polling
//!   stationary streams with skewed popularity, against a fleet budget of
//!   about half the working set, so the LRU evicts cold streams and
//!   rehydrates them on their next touch.

use crate::inputs::{self, Dataset, Popularity, Slot, Stationary};
use crate::measure::{
    mean, median, quantile, repeated_setup, secs_since, timed, Phase, Report, Tally,
};
use crate::probes::{self, detection_json, paper_config, Fields};
use crate::trace::{self, layer, Layers, Pass};
use crate::Opts;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use triad_core::{persist, FittedTriad};
use triad_serve::json::Value;
use triad_serve::{Client, ServeConfig, ServerHandle};
use triad_stream::{StreamConfig, StreamEngine};
use ucrgen::anomaly::AnomalyKind;
use ucrgen::signal::SignalFamily;

const CHUNK: usize = 32;
const SETUPS: usize = 5;
const EPOCHS: usize = 1;
/// The archive-shaped datasets `serve-mixed` detects on and streams.
const MIXED_SLOTS: [Slot; 3] = [
    Slot::new(20, SignalFamily::Sine, AnomalyKind::Noise),
    Slot::new(22, SignalFamily::Harmonic, AnomalyKind::LevelShift),
    Slot::new(24, SignalFamily::SquareLike, AnomalyKind::Seasonal),
];
const MIXED_STREAMS: usize = 3;
const FLEET_PERIOD: usize = 24;
const FLEET_SLOTS: usize = 24;
const FLEET_SESSION_CHUNKS: usize = 16;
/// Closed fleet sessions whose detection is compared with offline detect.
const FLEET_CHECKED: usize = 3;
const STATS_EVERY: usize = 50;
/// Stream chunks per `serve-mixed` round, next to one detect. The two
/// sides then take about as long: on a 2-vCPU host the median detect round
/// trip was 93 ms and the median 8 chunks 91 ms, so neither connection
/// waits long at the end of a round.
const MIXED_CHUNKS: usize = 8;
/// Size of one pass of the traced run.
const TRACE_ROUNDS: usize = 20;
const TRACE_TOUCHES: usize = 240;
const TIMEOUT: Duration = Duration::from_secs(30);
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(20);

/// Server working directory under the checkout, removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn new(workload: &str) -> Result<RunDir, String> {
        let dir =
            PathBuf::from(".triadbench_run").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(dir.join("models")).map_err(|e| e.to_string())?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".triadbench_run");
    }
}

/// Save the models under their names and start a server over them.
fn start_server(
    dir: &Path,
    models: &[(String, &FittedTriad)],
    fleet_budget: Option<u64>,
) -> Result<ServerHandle, String> {
    for (name, m) in models {
        persist::save_file(&dir.join("models").join(format!("{name}.triad")), m)
            .map_err(|e| e.to_string())?;
    }
    let handle = triad_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        models_dir: dir.join("models"),
        fleet_budget_bytes: fleet_budget,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut c = Client::connect(handle.addr(), TIMEOUT).map_err(|e| e.to_string())?;
    c.health().map_err(|e| e.to_string())?;
    Ok(handle)
}

fn ok(reply: &Value) -> bool {
    reply.get("ok").and_then(Value::as_bool) == Some(true)
}

fn num(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_f64).unwrap_or(0.0)
}

/// When a closed loop stops: after a time or after a number of operations.
#[derive(Clone, Copy)]
enum Stop {
    After(f64),
    Ops(usize),
}

impl Stop {
    fn done(self, t0: Instant, ops: usize) -> bool {
        match self {
            Stop::After(s) => secs_since(t0) >= s,
            Stop::Ops(n) => ops >= n,
        }
    }
}

/// What a client loop saw.
#[derive(Default)]
struct Loop {
    tally: Tally,
    latencies_ms: Vec<f64>,
    points: usize,
    wall_s: f64,
    /// Detection fields of replies, keyed by input.
    outputs: BTreeMap<usize, Vec<Fields>>,
    /// Sample protocol lines for the JSON probe.
    lines: Vec<String>,
    /// Wall time of this connection's share of each round, in ms.
    round_ms: Vec<f64>,
    touches: usize,
    resident_max: f64,
    /// Fleet counters from the final `stats`: drift refits started (the
    /// streams are stationary), evictions and rehydrations.
    refits: f64,
    evictions: f64,
    rehydrations: f64,
}

/// Rounds of a multi-connection workload. Each connection does its share
/// of a round, then waits for the others; the next round starts when all
/// are done. So the mix of work is the same in every run.
struct Rounds {
    barrier: Barrier,
    stop: AtomicBool,
}

impl Rounds {
    fn new(connections: usize) -> Rounds {
        Rounds {
            barrier: Barrier::new(connections),
            stop: AtomicBool::new(false),
        }
    }

    /// Run `round` until a connection asks to stop (`Ok(true)`) or fails.
    /// A failing connection still meets the others at the barrier, so no
    /// connection is left waiting.
    fn run(&self, mut round: impl FnMut(usize) -> Result<bool, String>) -> Result<(), String> {
        for r in 0.. {
            let outcome = round(r);
            if !matches!(outcome, Ok(false)) {
                self.stop.store(true, Ordering::SeqCst);
            }
            self.barrier.wait();
            outcome?;
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        Ok(())
    }
}

/// `serve-mixed`'s detect connection: one `detect` per round, cycling over
/// `sets`. It decides when the rounds stop.
fn detect_loop(
    mut c: Client,
    sets: &[Dataset],
    rounds: &Rounds,
    stop: Stop,
) -> Result<Loop, String> {
    let requests: Vec<Value> = sets
        .iter()
        .enumerate()
        .map(|(k, ds)| {
            Value::obj(vec![
                ("verb", "detect".into()),
                ("model", format!("m{k}").into()),
                ("series", Value::num_arr(&ds.test)),
            ])
        })
        .collect();
    let mut out = Loop::default();
    let t0 = obs::now_instant();
    rounds.run(|i| {
        let k = i % requests.len().max(1);
        let req = requests.get(k).ok_or("request slot out of range")?;
        let (reply, s) = timed(|| layer("bench.serve_detect", || c.call(req)));
        let reply = reply.map_err(|e| format!("detect: {e}"))?;
        out.round_ms.push(s * 1e3);
        if ok(&reply) {
            out.tally.ok();
            out.latencies_ms.push(s * 1e3);
            out.points += sets.get(k).map_or(0, |d| d.test.len());
            if out.lines.is_empty() {
                out.lines = vec![req.to_string(), reply.to_string()];
            }
            out.outputs
                .entry(k)
                .or_default()
                .push(probes::fields(reply));
        } else {
            out.tally.fail(format!("detect m{k}: {reply}"));
        }
        Ok(stop.done(t0, i + 1))
    })?;
    out.wall_s = secs_since(t0);
    Ok(out)
}

/// One open stream session replaying `series`.
struct Session {
    name: String,
    model: String,
    series: Vec<f64>,
    pushed: usize,
    open: bool,
}

/// Push the session's next chunk and poll until the server has scored it;
/// returns the push → visible time in ms.
fn push_visible(c: &mut Client, s: &mut Session, out: &mut Loop) -> Result<Option<f64>, String> {
    if !s.open {
        c.stream_open(&s.name, &s.model)
            .map_err(|e| format!("stream.open {}: {e}", s.name))?;
        s.open = true;
    }
    let end = (s.pushed + CHUNK).min(s.series.len());
    let chunk = s.series.get(s.pushed..end).ok_or("chunk out of range")?;
    let push = Value::obj(vec![
        ("verb", "stream.push".into()),
        ("stream", s.name.as_str().into()),
        ("points", Value::num_arr(chunk)),
    ]);
    let t0 = obs::now_instant();
    let visible = layer("bench.stream_visible", || -> Result<bool, String> {
        let reply = c.call(&push).map_err(|e| format!("stream.push: {e}"))?;
        if !ok(&reply)
            || num(reply.get("dropped")) > 0.0
            || reply.get("queued").and_then(Value::as_bool) != Some(true)
        {
            out.tally.fail(format!("stream.push {}: {reply}", s.name));
            return Ok(false);
        }
        if out.lines.len() < 4 {
            out.lines.push(push.to_string());
        }
        loop {
            let poll = c
                .stream_poll(&s.name)
                .map_err(|e| format!("stream.poll {}: {e}", s.name))?;
            if num(poll.get("seq")) >= end as f64 {
                if out.lines.len() < 4 {
                    out.lines.push(poll.to_string());
                }
                return Ok(true);
            }
            if t0.elapsed() > VISIBLE_TIMEOUT {
                out.tally.fail(format!(
                    "{}: chunk not scored within {VISIBLE_TIMEOUT:?}",
                    s.name
                ));
                return Ok(false);
            }
            // Polls cost CPU on both sides; 1 ms apart keeps their share of
            // the measured CPU small while resolving visibility to ~1 ms.
            std::thread::sleep(Duration::from_millis(1));
        }
    })?;
    out.touches += 1;
    if !visible {
        return Ok(None);
    }
    out.tally.ok();
    s.pushed = end;
    out.points += chunk.len();
    Ok(Some(secs_since(t0) * 1e3))
}

/// Close a session; returns the detection fields of the close reply.
fn close(c: &mut Client, s: &mut Session, out: &mut Loop) -> Result<Fields, String> {
    s.open = false;
    let reply = c
        .stream_close(&s.name)
        .map_err(|e| format!("stream.close {}: {e}", s.name))?;
    match reply.get("detection") {
        Some(det @ Value::Obj(_)) => {
            out.tally.ok();
            Ok(probes::fields(det.clone()))
        }
        _ => {
            out.tally
                .fail(format!("stream.close {}: no detection ({reply})", s.name));
            Ok(Vec::new())
        }
    }
}

/// `serve-mixed`'s stream connection: `MIXED_CHUNKS` chunks per round,
/// round-robin over a few streams, each replaying one dataset's test split.
/// A finished session is closed, its detection kept, and the next one
/// opens under a new name. Sessions still open are left to the caller.
fn mixed_stream_loop(
    mut c: Client,
    sets: &[Dataset],
    rounds: &Rounds,
) -> Result<(Loop, Client, Vec<Session>), String> {
    let mut sessions: Vec<Session> = (0..MIXED_STREAMS)
        .map(|k| Session {
            name: format!("mix{k}.0"),
            model: format!("m{}", k % sets.len().max(1)),
            series: sets
                .get(k % sets.len().max(1))
                .map(|d| d.test.clone())
                .unwrap_or_default(),
            pushed: 0,
            open: false,
        })
        .collect();
    let mut generation = vec![0usize; sessions.len()];
    let mut out = Loop::default();
    let t0 = obs::now_instant();
    let mut j = 0;
    rounds.run(|_| {
        let r0 = obs::now_instant();
        for _ in 0..MIXED_CHUNKS {
            let k = j % sessions.len();
            j += 1;
            let s = sessions.get_mut(k).ok_or("session slot out of range")?;
            if let Some(ms) = push_visible(&mut c, s, &mut out)? {
                out.latencies_ms.push(ms);
            }
            if s.pushed == s.series.len() {
                let fields = close(&mut c, s, &mut out)?;
                out.outputs
                    .entry(k % sets.len().max(1))
                    .or_default()
                    .push(fields);
                let g = generation
                    .get_mut(k)
                    .ok_or("generation slot out of range")?;
                *g += 1;
                s.name = format!("mix{k}.{g}");
                s.pushed = 0;
            }
        }
        out.round_ms.push(secs_since(r0) * 1e3);
        Ok(false)
    })?;
    out.wall_s = secs_since(t0);
    Ok((out, c, sessions))
}

/// Close every session still open; their detections are not checked (a
/// partial replay has no offline counterpart at hand).
fn close_open(c: &mut Client, sessions: &mut [Session], out: &mut Loop) -> Result<(), String> {
    for s in sessions.iter_mut().filter(|s| s.open) {
        close(c, s, out)?;
    }
    Ok(())
}

pub fn stats(addr: std::net::SocketAddr) -> Result<Value, String> {
    Client::connect(addr, TIMEOUT)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats: {e}"))
}

fn hist_mean(stats: &Value, name: &str) -> f64 {
    let h = stats.get(name);
    let count = num(h.and_then(|h| h.get("count")));
    if count > 0.0 {
        num(h.and_then(|h| h.get("sum"))) / count
    } else {
        0.0
    }
}

fn fleet_counter(stats: &Value, name: &str) -> f64 {
    num(stats
        .get("streams")
        .and_then(|s| s.get("fleet"))
        .and_then(|f| f.get(name)))
}

/// Server-side layer figures from `stats` (histogram sums and counts only:
/// its bucket quantiles are too coarse for latencies).
pub fn serve_layers(layers: &mut Layers, stats: &Value) {
    layers.queue_wait_ms = hist_mean(stats, "queue_wait_us") / 1e3;
    layers.batch_size_mean = hist_mean(stats, "batch_size");
    let (hits, misses) = (num(stats.get("cache_hits")), num(stats.get("cache_misses")));
    layers.cache_hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    layers.evictions = fleet_counter(stats, "evictions");
    layers.rehydrations = fleet_counter(stats, "rehydrations");
}

/// Compare every reply for input `k` with the in-process detection, field
/// by field over the fields the detection renders.
fn check_outputs(
    tally: &mut Tally,
    outputs: &BTreeMap<usize, Vec<Fields>>,
    expected: &[Fields],
    what: &str,
) {
    for (k, replies) in outputs {
        let Some(want) = expected.get(*k) else {
            tally.fail(format!("{what}: no in-process detection for input {k}"));
            continue;
        };
        for fields in replies {
            let same = want
                .iter()
                .all(|(name, v)| fields.iter().any(|(f, got)| f == name && got == v));
            tally.check(same, || {
                format!("{what} for input {k} differs from in-process detect")
            });
        }
    }
}

struct Mixed {
    handle: ServerHandle,
    sets: Vec<Dataset>,
    models: Vec<FittedTriad>,
}

pub fn serve_mixed(opts: &Opts) -> Result<Report, String> {
    let dir = RunDir::new("serve-mixed")?;
    let cfg = paper_config(EPOCHS, opts.seed);
    let (
        Mixed {
            handle,
            sets,
            models,
        },
        setup_s,
    ) = repeated_setup(
        SETUPS,
        || {
            let sets = inputs::labelled(opts.seed, &MIXED_SLOTS, 16, 10, 1);
            let models = sets
                .iter()
                .map(|d| probes::fit(&cfg, &d.train))
                .collect::<Result<Vec<_>, _>>()?;
            let named: Vec<(String, &FittedTriad)> = models
                .iter()
                .enumerate()
                .map(|(k, m)| (format!("m{k}"), m))
                .collect();
            let handle = start_server(&dir.0, &named, None)?;
            Ok(Mixed {
                handle,
                sets,
                models,
            })
        },
        |m: Mixed| m.handle.shutdown(),
    )?;
    let addr = handle.addr();
    let expected: Vec<Fields> = models
        .iter()
        .zip(&sets)
        .map(|(m, d)| detection_json(&m.detect(&d.test)))
        .collect();

    // Both connections in rounds; returns their loops and the phase's
    // (cpu, wall) seconds, taken before the open sessions are closed. Both
    // connect before either starts, so neither waits at the first round's
    // barrier for a side that never came.
    let run = |stop: Stop| -> Result<(Loop, Loop, (f64, f64)), String> {
        let connect = || Client::connect(addr, TIMEOUT).map_err(|e| format!("connect: {e}"));
        let (dc, sc) = (connect()?, connect()?);
        let rounds = Rounds::new(2);
        let phase = Phase::start();
        let (d, st) = std::thread::scope(|s| {
            let d = s.spawn(|| detect_loop(dc, &sets, &rounds, stop));
            let st = s.spawn(|| mixed_stream_loop(sc, &sets, &rounds));
            let d = d.join().map_err(|_| "detect client panicked".to_string());
            let st = st.join().map_err(|_| "stream client panicked".to_string());
            (d, st)
        });
        let times = phase.stop();
        let (mut st, mut c, mut sessions) = st??;
        close_open(&mut c, &mut sessions, &mut st)?;
        Ok((d??, st, times))
    };
    let mut report = Report::default();
    let result = if opts.trace {
        let (m, ds) = models.first().zip(sets.first()).ok_or("no model")?;
        let pass = || -> Result<Pass, String> {
            let (d, st, _) = run(Stop::Ops(TRACE_ROUNDS))?;
            Ok(pass_of(d, st, probes::in_process(m, ds)?))
        };
        trace::traced_run(&mut report, &cfg, ds, m, Some(addr), pass)
    } else {
        run(Stop::After(opts.seconds)).map(|(d, st, times)| {
            check_outputs(
                &mut report.tally,
                &d.outputs,
                &expected,
                "serve detect reply",
            );
            check_outputs(
                &mut report.tally,
                &st.outputs,
                &expected,
                "stream.close detection",
            );
            report.end_to_end(setup_s, times, d.points + st.points, &d.latencies_ms);
            report.note(format!(
                "serve_detect_ms    p50 {:.3} p90 {:.3} (n = {})",
                median(&d.latencies_ms),
                quantile(&d.latencies_ms, 0.9),
                d.latencies_ms.len()
            ));
            report.note(format!(
                "stream_visible_ms  p50 {:.3} p90 {:.3} (n = {})",
                median(&st.latencies_ms),
                quantile(&st.latencies_ms, 0.9),
                st.latencies_ms.len()
            ));
            report.note(format!(
                "stream_points_per_s {:.1}",
                st.points as f64 / st.wall_s.max(1e-9)
            ));
            report.note(format!(
                "round_ms           detect side p50 {:.3}, stream side ({MIXED_CHUNKS} chunks) p50 {:.3} (n = {})",
                median(&d.round_ms),
                median(&st.round_ms),
                d.round_ms.len().min(st.round_ms.len())
            ));
            let windows: Vec<String> = models.iter().map(|m| m.window_len().to_string()).collect();
            report.note(format!("model windows      {}", windows.join(" ")));
            report.tally.merge(d.tally);
            report.tally.merge(st.tally);
        })
    };
    handle.shutdown();
    result.map(|_| report)
}

/// One traced pass from its detect and stream loops and its in-process
/// detection.
fn pass_of(d: Loop, st: Loop, det: triad_core::TriadDetection) -> Pass {
    let ops = (d.tally.attempted + st.tally.attempted) as usize;
    let mut tally = d.tally;
    tally.merge(st.tally);
    Pass {
        det,
        ops,
        lines: d.lines.into_iter().chain(st.lines).collect(),
        tally,
        detect_ms: d.latencies_ms,
        visible_ms: st.latencies_ms,
        touches: d.touches + st.touches,
        resident_max: d.resident_max.max(st.resident_max),
    }
}

struct Fleet {
    handle: ServerHandle,
    source: Stationary,
    model: FittedTriad,
    train: Vec<f64>,
    budget: u64,
}

fn session_series(source: &Stationary, seed: u64, slot: usize, generation: usize) -> Vec<f64> {
    source.series(
        seed,
        (slot * 10_000 + generation + 1) as u64,
        FLEET_SESSION_CHUNKS * CHUNK,
    )
}

/// Mean resident size of one engine over a session's life, measured
/// in-process on the same model and data shape.
fn mean_engine_bytes(model: &FittedTriad, series: &[f64]) -> Result<f64, String> {
    let mut engine = StreamEngine::new(model, StreamConfig::default());
    let mut sizes = Vec::new();
    for chunk in series.chunks(CHUNK) {
        for &x in chunk {
            engine.push(model, x).map_err(|e| e.to_string())?;
        }
        sizes.push(engine.estimated_bytes() as f64);
    }
    Ok(mean(&sizes))
}

/// `fleet-churn`'s single connection and the sessions of its slots. The
/// traced run keeps one across its passes, so each pass finds the fleet as
/// the last one left it: full, and evicting.
struct FleetClient {
    c: Client,
    pop: Popularity,
    gens: [usize; FLEET_SLOTS],
    sessions: Vec<Session>,
}

impl FleetClient {
    fn connect(addr: std::net::SocketAddr, f: &Fleet, seed: u64) -> Result<FleetClient, String> {
        Ok(FleetClient {
            c: Client::connect(addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?,
            pop: Popularity::new(seed, FLEET_SLOTS),
            gens: [0; FLEET_SLOTS],
            sessions: (0..FLEET_SLOTS)
                .map(|k| Session {
                    name: format!("s{k}.0"),
                    model: "fleet".into(),
                    series: session_series(&f.source, seed, k, 0),
                    pushed: 0,
                    open: false,
                })
                .collect(),
        })
    }

    /// Touch slots by skewed popularity until `stop`; each touch pushes the
    /// slot's next chunk and polls it visible. A finished session is closed
    /// (the first few closes go to `checked`) and the slot opens a fresh
    /// one. Ends with the fleet counters from `stats`.
    fn run(
        &mut self,
        f: &Fleet,
        seed: u64,
        stop: Stop,
        checked: &mut Vec<(Vec<f64>, Fields)>,
    ) -> Result<(Loop, (f64, f64)), String> {
        let c = &mut self.c;
        let mut out = Loop::default();
        let phase = Phase::start();
        let t0 = obs::now_instant();
        let mut j = 0;
        while !stop.done(t0, j) {
            j += 1;
            let k = self.pop.next();
            let s = self.sessions.get_mut(k).ok_or("slot out of range")?;
            if let Some(ms) = push_visible(c, s, &mut out)? {
                out.latencies_ms.push(ms);
            }
            if s.pushed == s.series.len() {
                let fields = close(c, s, &mut out)?;
                if checked.len() < FLEET_CHECKED {
                    checked.push((s.series.clone(), fields));
                }
                let g = self.gens.get_mut(k).ok_or("slot out of range")?;
                *g += 1;
                s.name = format!("s{k}.{g}");
                s.series = session_series(&f.source, seed, k, *g);
                s.pushed = 0;
            }
            if j % STATS_EVERY == 0 {
                let st = c.stats().map_err(|e| format!("stats: {e}"))?;
                residency(&st, f, &mut out);
            }
        }
        let times = phase.stop();
        out.wall_s = times.1;
        let st = c.stats().map_err(|e| format!("stats: {e}"))?;
        residency(&st, f, &mut out);
        out.refits = fleet_counter(&st, "refits_requested");
        out.evictions = fleet_counter(&st, "evictions");
        out.rehydrations = fleet_counter(&st, "rehydrations");
        Ok((out, times))
    }
}

/// Check the fleet's residency in a `stats` reply against the budget.
fn residency(stats: &Value, f: &Fleet, out: &mut Loop) {
    let resident = fleet_counter(stats, "resident_bytes");
    out.resident_max = out.resident_max.max(resident);
    out.tally.check(resident <= f.budget as f64, || {
        format!("fleet resident {resident} bytes over budget {}", f.budget)
    });
}

pub fn fleet_churn(opts: &Opts) -> Result<Report, String> {
    let dir = RunDir::new("fleet-churn")?;
    let cfg = paper_config(EPOCHS, opts.seed);
    let (f, setup_s) = repeated_setup(
        SETUPS,
        || {
            let source = Stationary::new(opts.seed, FLEET_PERIOD, SignalFamily::Harmonic);
            let train = source.series(opts.seed, 0, FLEET_PERIOD * 30);
            let model = probes::fit(&cfg, &train)?;
            let per_engine = mean_engine_bytes(&model, &session_series(&source, opts.seed, 0, 0))?;
            // Half the working set: every slot holding an engine of the
            // mean size over a session. Uncapped, residency peaks near
            // twice this budget.
            let budget = (per_engine * FLEET_SLOTS as f64 / 2.0) as u64;
            let _ = std::fs::remove_dir_all(dir.0.join("models"));
            std::fs::create_dir_all(dir.0.join("models")).map_err(|e| e.to_string())?;
            let handle = start_server(&dir.0, &[("fleet".to_string(), &model)], Some(budget))?;
            Ok(Fleet {
                handle,
                source,
                model,
                train,
                budget,
            })
        },
        |f: Fleet| f.handle.shutdown(),
    )?;
    let addr = f.handle.addr();
    let mut report = Report::default();
    let mut checked = Vec::new();
    let result = if opts.trace {
        let ds = &Dataset {
            name: "fleet".into(),
            train: f.train.clone(),
            test: session_series(&f.source, opts.seed, 0, 0),
            labels: Vec::new(),
        };
        let client = RefCell::new(FleetClient::connect(addr, &f, opts.seed)?);
        let pass = || -> Result<Pass, String> {
            let mut scratch = Vec::new();
            let (l, _) =
                client
                    .borrow_mut()
                    .run(&f, opts.seed, Stop::Ops(TRACE_TOUCHES), &mut scratch)?;
            Ok(pass_of(
                Loop::default(),
                l,
                probes::in_process(&f.model, ds)?,
            ))
        };
        trace::traced_run(&mut report, &cfg, ds, &f.model, Some(addr), pass)
    } else {
        let timed_run = FleetClient::connect(addr, &f, opts.seed).and_then(|mut client| {
            let stop = Stop::After(opts.seconds);
            let (mut l, times) = client.run(&f, opts.seed, stop, &mut checked)?;
            close_open(&mut client.c, &mut client.sessions, &mut l)?;
            Ok((l, times))
        });
        timed_run.map(|(l, times)| {
            for (series, fields) in &checked {
                let want = detection_json(&f.model.detect(series));
                report.tally.check(fields == &want, || {
                    "stream.close detection differs from offline detect".into()
                });
            }
            report.tally.check(!checked.is_empty(), || {
                "no fleet session closed after a full replay".into()
            });
            // The workload exists to make the fleet evict and rehydrate.
            report
                .tally
                .check(l.evictions > 0.0 && l.rehydrations > 0.0, || {
                    format!(
                        "fleet did no churn: {} evictions, {} rehydrations",
                        l.evictions, l.rehydrations
                    )
                });
            report.end_to_end(setup_s, times, l.points, &l.latencies_ms);
            report.note(format!(
                "fleet budget       {} bytes, resident max {} bytes, refits {}",
                f.budget, l.resident_max, l.refits
            ));
            report.note(format!(
                "fleet churn        {} touches, {} evictions, {} rehydrations (ratio {:.3})",
                l.touches,
                l.evictions,
                l.rehydrations,
                l.rehydrations / (l.touches as f64).max(1.0)
            ));
            report.note(format!(
                "model window       {} (period {})",
                f.model.window_len(),
                f.model.period()
            ));
            report.tally.merge(l.tally);
        })
    };
    let Fleet { handle, .. } = f;
    handle.shutdown();
    result.map(|_| report)
}
