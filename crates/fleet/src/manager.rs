//! The [`FleetManager`]: the sharded stream manager.
//!
//! Stream names hash (FNV-1a) to worker shards; each shard is one OS thread
//! owning the engines of its streams, fed by a **bounded** ingest queue. A
//! full queue sheds load explicitly — `push` reports `queued: false` and the
//! shard's `dropped_backpressure` counter accounts for every dropped point —
//! rather than blocking the caller or buffering without bound.
//!
//! Models are loaded *on the shard thread* through the caller-supplied
//! [`ModelLoader`] and cached per shard (LRU): `FittedTriad` is deliberately
//! not `Send` (the `neuro` tape uses `Rc`), so the loader closure crosses
//! threads but the model it builds never does.
//!
//! Three knobs of [`FleetConfig`] shape the rest:
//!
//! * **Residency is the budget.** With `budget_bytes = 0` every open engine
//!   stays resident. Otherwise every command updates a [`BudgetLedger`];
//!   when a shard exceeds its slice of the budget (`budget / shards`), the
//!   least-recently touched engines are **evicted** to the
//!   [`CheckpointStore`] and dropped from RAM (the stream being served is
//!   never evicted under itself mid-command). A `push`/`poll`/`close` on an
//!   evicted stream **rehydrates** it from the newest intact generation —
//!   bit-identical, so scores and `finalize` cannot tell eviction happened.
//! * **Durability is the store.** With a `store_dir`, `checkpoint` writes
//!   generation-numbered files, shutdown persists every dirty stream, and a
//!   new manager over the same directory adopts each stored stream as
//!   evicted. Without one nothing touches disk, and a byte budget is
//!   refused (eviction would have nowhere to go).
//! * **Drift runs if and only if a [`Refitter`] is supplied.** Each
//!   completed window's deviance then feeds a per-stream [`DriftDetector`];
//!   a drift entry schedules a background refit, and the refreshed model is
//!   swapped in at a window boundary fixed at detection time
//!   (`swap_horizon` windows later), so the swap point is a property of the
//!   *stream*, not of thread timing.
//!
//! Everything per-stream that must survive eviction (drift state, refit
//! bookkeeping, checkpoint generation) lives in the shard's slot table,
//! which is never evicted — only engines are.

use crate::budget::BudgetLedger;
use crate::drift::{DriftBaseline, DriftDetector, DriftPolicy, DriftSignal};
use crate::store::CheckpointStore;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use triad_core::{FittedTriad, PersistError, TriadConfig, TriadDetection};
use triad_stream::checkpoint;
use triad_stream::engine::{StreamConfig, StreamEngine, StreamStatus};
use triad_stream::metrics::ShardMetrics;
use triad_stream::StreamError;

/// Builds a fitted model by name, on the shard thread that will own it.
/// Must be cheap to clone and callable from any thread; the returned
/// `FittedTriad` stays on the calling shard.
pub type ModelLoader = Arc<dyn Fn(&str) -> Result<FittedTriad, String> + Send + Sync>;

/// Receipt for a `push`: whether the batch made it onto the shard queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushTicket {
    /// `false` means the whole batch was shed by backpressure (and counted
    /// in the shard's `dropped_backpressure`).
    pub queued: bool,
    /// Points dropped by this call (0 when queued).
    pub dropped: usize,
    /// Queue depth observed at send time.
    pub queue_len: usize,
    /// Which shard the stream routes to.
    pub shard: usize,
}

/// Everything `close` can tell the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct CloseReport {
    /// Final status snapshot before teardown.
    pub status: StreamStatus,
    /// Offline-equivalent detection over the retained history, when the
    /// ring still held every sample and the model was never swapped.
    pub detection: Option<TriadDetection>,
    /// Why `detection` is absent (history evicted, empty stream, …).
    pub finalize_error: Option<String>,
}

/// Everything a background refit needs to produce the replacement model.
///
/// The callback must fit `config` on `train` and persist the result under
/// `new_model` so the fleet's [`ModelLoader`] can load it by that name.
/// The serve tier implements this with `ModelRegistry::save_fitted`.
#[derive(Debug, Clone)]
pub struct RefitRequest {
    /// Stream whose drift triggered the refit.
    pub stream: String,
    /// Model the stream is currently bound to.
    pub base_model: String,
    /// Name the refreshed model must be saved under.
    pub new_model: String,
    /// Deterministic training slice: the stream's retained tail at the
    /// moment drift was detected.
    pub train: Vec<f64>,
    /// Base model's config with `period_override` pinned, so the refit
    /// keeps the window/stride/period geometry the engine requires.
    pub config: TriadConfig,
}

/// Fits and persists a replacement model; runs on the fleet's single
/// background refit thread.
pub type Refitter = Arc<dyn Fn(&RefitRequest) -> Result<(), String> + Send + Sync>;

/// Manager configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker shard count (≥ 1).
    pub shards: usize,
    /// Bounded ingest-queue depth per shard, in commands.
    pub queue_capacity: usize,
    /// Where generation-numbered checkpoints live; `None` keeps every
    /// stream in memory only (and then `budget_bytes` must be 0).
    pub store_dir: Option<PathBuf>,
    /// Global resident-engine byte budget (0 = unbounded). Each shard
    /// enforces `budget / shards`.
    pub budget_bytes: usize,
    /// Per-stream engine defaults for newly opened streams.
    pub stream_defaults: StreamConfig,
    /// Most fitted models each shard keeps cached (LRU beyond that). Many
    /// streams naming distinct models must not grow shard memory without
    /// bound; an evicted model is transparently reloaded on next use.
    pub model_cache_cap: usize,
    /// Drift test and refit knobs; used only when a [`Refitter`] is given.
    pub drift: DriftPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 2,
            queue_capacity: 1024,
            store_dir: None,
            budget_bytes: 0,
            stream_defaults: StreamConfig::default(),
            model_cache_cap: 8,
            drift: DriftPolicy::default(),
        }
    }
}

/// Fleet-wide counters (shard gauges are indexed by shard id).
#[derive(Debug)]
pub struct FleetMetrics {
    pub evictions: AtomicU64,
    pub rehydrations: AtomicU64,
    pub rehydrate_failures: AtomicU64,
    pub compacted_files: AtomicU64,
    pub drift_events: AtomicU64,
    pub refits_requested: AtomicU64,
    pub refits_completed: AtomicU64,
    pub refits_failed: AtomicU64,
    resident_bytes: Vec<AtomicU64>,
    resident_streams: Vec<AtomicU64>,
    evicted_streams: Vec<AtomicU64>,
}

impl FleetMetrics {
    fn new(shards: usize) -> FleetMetrics {
        let gauges = || (0..shards).map(|_| AtomicU64::new(0)).collect();
        FleetMetrics {
            evictions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
            rehydrate_failures: AtomicU64::new(0),
            compacted_files: AtomicU64::new(0),
            drift_events: AtomicU64::new(0),
            refits_requested: AtomicU64::new(0),
            refits_completed: AtomicU64::new(0),
            refits_failed: AtomicU64::new(0),
            resident_bytes: gauges(),
            resident_streams: gauges(),
            evicted_streams: gauges(),
        }
    }
}

/// Point-in-time snapshot of the fleet counters, for `stats` and the soak
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetStats {
    pub budget_bytes: u64,
    pub resident_bytes: u64,
    pub resident_streams: u64,
    pub evicted_streams: u64,
    pub evictions: u64,
    pub rehydrations: u64,
    pub rehydrate_failures: u64,
    pub compacted_files: u64,
    pub drift_events: u64,
    pub refits_requested: u64,
    pub refits_completed: u64,
    pub refits_failed: u64,
}

/// FNV-1a over the stream name: the shard-routing hash.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stream and model names become file names and hash keys; keep them to a
/// safe registry-style charset and reject path tricks like `..`.
fn validate_name(name: &str, what: &str) -> Result<(), StreamError> {
    if name.is_empty() || name.len() > 64 {
        return Err(StreamError::BadName(format!(
            "{what} name must be 1–64 characters, got {}",
            name.len()
        )));
    }
    if name.starts_with('.') || name.starts_with('-') {
        return Err(StreamError::BadName(format!(
            "{what} name {name:?} must not start with '.' or '-'"
        )));
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')))
    {
        return Err(StreamError::BadName(format!(
            "{what} name {name:?} contains invalid character {c:?}"
        )));
    }
    Ok(())
}

// --------------------------------------------------------- refit plumbing

struct RefitJob {
    stream: String,
    request: RefitRequest,
}

/// Completion board for background refits: shard workers block on it at
/// the swap boundary, the refit thread posts results into it.
#[derive(Default)]
struct RefitLedger {
    inner: Mutex<BTreeMap<String, Option<Result<(), String>>>>,
    cv: Condvar,
}

impl RefitLedger {
    fn begin(&self, stream: &str) {
        if let Ok(mut map) = self.inner.lock() {
            map.insert(stream.to_string(), None);
        }
    }

    fn complete(&self, stream: &str, result: Result<(), String>) {
        if let Ok(mut map) = self.inner.lock() {
            map.insert(stream.to_string(), Some(result));
        }
        self.cv.notify_all();
    }

    /// Block until the stream's refit posts a result (bounded: ~600 s).
    fn wait(&self, stream: &str) -> Option<Result<(), String>> {
        let mut guard = self.inner.lock().ok()?;
        // 6000 × 100 ms: generous for a refit, but a lost refit thread
        // must surface as a failed swap, not a hung shard.
        for _ in 0..6000 {
            match guard.get(stream) {
                Some(Some(_)) => break,
                Some(None) => {}
                None => return None,
            }
            let (g, _timeout) = self
                .cv
                .wait_timeout(guard, std::time::Duration::from_millis(100))
                .ok()?;
            guard = g;
        }
        guard.get(stream).cloned().flatten()
    }

    fn clear(&self, stream: &str) {
        if let Ok(mut map) = self.inner.lock() {
            map.remove(stream);
        }
    }
}

// -------------------------------------------------------------- commands

enum Command {
    Open {
        stream: String,
        model: String,
        reply: Sender<Result<(), StreamError>>,
    },
    /// Fire-and-forget ingest; the bounded queue is the backpressure valve.
    Push {
        stream: String,
        points: Vec<f64>,
    },
    Poll {
        stream: String,
        reply: Sender<Result<StreamStatus, StreamError>>,
    },
    Close {
        stream: String,
        reply: Sender<Result<CloseReport, StreamError>>,
    },
    Checkpoint {
        stream: Option<String>,
        reply: Sender<Result<usize, StreamError>>,
    },
    List {
        reply: Sender<Vec<String>>,
    },
    Shutdown,
}

/// Hash-sharded collection of live [`StreamEngine`]s. See the module docs.
pub struct FleetManager {
    senders: Vec<Sender<Command>>,
    receivers: Vec<Receiver<Command>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    metrics: Vec<Arc<ShardMetrics>>,
    fleet: Arc<FleetMetrics>,
    refit_tx: Option<Sender<RefitJob>>,
    refit_handle: Option<std::thread::JoinHandle<()>>,
    budget_bytes: usize,
}

impl FleetManager {
    /// Spawn the shard workers (and, when a [`Refitter`] is supplied, the
    /// background refit worker). Streams with durable generations in the
    /// store are adopted as *evicted* slots before commands are accepted —
    /// a restarted manager answers `poll` for every stream it knew, paying
    /// rehydration only when one is touched; a stored stream that fails
    /// validation counts one `checkpoint_failures` and is skipped.
    ///
    /// Fails with [`StreamError::NoStore`] for a non-zero budget without a
    /// `store_dir`, and with `Checkpoint` when the store cannot be opened.
    pub fn new(
        cfg: FleetConfig,
        loader: ModelLoader,
        refitter: Option<Refitter>,
    ) -> Result<FleetManager, StreamError> {
        let shards = cfg.shards.max(1);
        let store = match &cfg.store_dir {
            Some(dir) => Some(
                CheckpointStore::open(dir)
                    .map_err(|e| StreamError::Checkpoint(PersistError::Format(e)))?,
            ),
            None if cfg.budget_bytes > 0 => return Err(StreamError::NoStore),
            None => None,
        };
        let fleet = Arc::new(FleetMetrics::new(shards));
        let metrics: Vec<Arc<ShardMetrics>> =
            (0..shards).map(|_| Arc::new(ShardMetrics::new())).collect();

        let refit_ledger = Arc::new(RefitLedger::default());
        let (refit_tx, refit_handle) = match refitter {
            Some(refitter) => {
                let (tx, rx) = bounded::<RefitJob>(1024);
                let ledger = Arc::clone(&refit_ledger);
                let handle = std::thread::Builder::new()
                    .name("triad-fleet-refit".into())
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let mut span = obs::span("fleet-refit");
                            span.add_field("stream", &job.stream);
                            span.add_field("model", &job.request.new_model);
                            let result = refitter(&job.request);
                            span.add_field("ok", result.is_ok());
                            ledger.complete(&job.stream, result);
                        }
                    })
                    // lint-allow(no-unwrap): thread-spawn failure at startup
                    // is unrecoverable resource exhaustion
                    .expect("spawn fleet refit worker");
                (Some(tx), Some(handle))
            }
            None => (None, None),
        };

        // Route every durable stream to the shard its name hashes to.
        let mut adoptions: Vec<Vec<String>> = vec![Vec::new(); shards];
        for (stream, _) in store.iter().flat_map(CheckpointStore::list) {
            adoptions[(fnv1a(&stream) % shards as u64) as usize].push(stream);
        }

        let mut senders = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let per_shard_budget = if cfg.budget_bytes == 0 {
            0
        } else {
            (cfg.budget_bytes / shards).max(1)
        };
        for (shard_id, adopt) in adoptions.into_iter().enumerate() {
            let (tx, rx) = bounded::<Command>(cfg.queue_capacity.max(1));
            let worker_rx = rx.clone();
            // FittedTriad is !Send (Rc-based tape), so the model cache —
            // and with it the whole ShardCtx — must be built on the shard
            // thread; only this Send environment crosses.
            let env = ShardEnv {
                shard_id,
                cache_cap: cfg.model_cache_cap.max(1),
                budget: per_shard_budget,
                loader: Arc::clone(&loader),
                store: store.clone(),
                metrics: Arc::clone(&metrics[shard_id]),
                fleet: Arc::clone(&fleet),
                defaults: cfg.stream_defaults.clone(),
                policy: cfg.drift.clone(),
                refit_tx: refit_tx.clone(),
                refit_ledger: Arc::clone(&refit_ledger),
            };
            let handle = std::thread::Builder::new()
                .name(format!("triad-fleet-shard-{shard_id}"))
                .spawn(move || shard_main(worker_rx, env, adopt))
                // lint-allow(no-unwrap): thread-spawn failure at startup is
                // unrecoverable resource exhaustion
                .expect("spawn fleet shard worker");
            senders.push(tx);
            receivers.push(rx);
            handles.push(handle);
        }

        Ok(FleetManager {
            senders,
            receivers,
            handles,
            metrics,
            fleet,
            refit_tx,
            refit_handle,
            budget_bytes: cfg.budget_bytes,
        })
    }

    pub fn shard_count(&self) -> usize {
        self.senders.len()
    }

    /// Which shard a stream name routes to.
    pub fn shard_of(&self, stream: &str) -> usize {
        (fnv1a(stream) % self.senders.len() as u64) as usize
    }

    /// Per-shard metrics, indexed by shard id.
    pub fn shard_metrics(&self) -> &[Arc<ShardMetrics>] {
        &self.metrics
    }

    pub fn fleet_metrics(&self) -> &FleetMetrics {
        &self.fleet
    }

    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Snapshot of the fleet counters (gauges summed over shards).
    pub fn fleet_stats(&self) -> FleetStats {
        let m = &self.fleet;
        let sum = |v: &[AtomicU64]| v.iter().map(ShardMetrics::get).sum::<u64>();
        FleetStats {
            budget_bytes: self.budget_bytes as u64,
            resident_bytes: sum(&m.resident_bytes),
            resident_streams: sum(&m.resident_streams),
            evicted_streams: sum(&m.evicted_streams),
            evictions: ShardMetrics::get(&m.evictions),
            rehydrations: ShardMetrics::get(&m.rehydrations),
            rehydrate_failures: ShardMetrics::get(&m.rehydrate_failures),
            compacted_files: ShardMetrics::get(&m.compacted_files),
            drift_events: ShardMetrics::get(&m.drift_events),
            refits_requested: ShardMetrics::get(&m.refits_requested),
            refits_completed: ShardMetrics::get(&m.refits_completed),
            refits_failed: ShardMetrics::get(&m.refits_failed),
        }
    }

    fn request<T>(
        &self,
        shard: usize,
        make: impl FnOnce(Sender<Result<T, StreamError>>) -> Command,
    ) -> Result<T, StreamError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.senders[shard]
            .send(make(reply_tx))
            .map_err(|_| StreamError::ShardUnavailable)?;
        // Workers are written to never die, but a reply that can never come
        // must surface as an error, not a hang. Generous: Open may fit a
        // model, Close may block on a refit swap.
        reply_rx
            .recv_timeout(std::time::Duration::from_secs(600))
            .map_err(|_| StreamError::ShardUnavailable)?
    }

    /// Open a stream bound to a registered model name. A stream with
    /// durable generations in the store resumes from them (the checkpoint
    /// records which model it was built with).
    pub fn open(&self, stream: &str, model: &str) -> Result<(), StreamError> {
        validate_name(stream, "stream")?;
        validate_name(model, "model")?;
        self.request(self.shard_of(stream), |reply| Command::Open {
            stream: stream.to_string(),
            model: model.to_string(),
            reply,
        })
    }

    /// Enqueue a batch of points. Never blocks: a full shard queue sheds
    /// the whole batch and accounts it in `dropped_backpressure`.
    pub fn push(&self, stream: &str, points: &[f64]) -> Result<PushTicket, StreamError> {
        validate_name(stream, "stream")?;
        let shard = self.shard_of(stream);
        let cmd = Command::Push {
            stream: stream.to_string(),
            points: points.to_vec(),
        };
        let (queued, counter) = match self.senders[shard].try_send(cmd) {
            Ok(()) => (true, &self.metrics[shard].ingested),
            Err(TrySendError::Full(_)) => (false, &self.metrics[shard].dropped_backpressure),
            Err(TrySendError::Disconnected(_)) => return Err(StreamError::ShardUnavailable),
        };
        ShardMetrics::add(counter, points.len() as u64);
        Ok(PushTicket {
            queued,
            dropped: if queued { 0 } else { points.len() },
            queue_len: self.receivers[shard].len(),
            shard,
        })
    }

    /// Status snapshot; rehydrates an evicted stream first.
    pub fn poll(&self, stream: &str) -> Result<StreamStatus, StreamError> {
        validate_name(stream, "stream")?;
        self.request(self.shard_of(stream), |reply| Command::Poll {
            stream: stream.to_string(),
            reply,
        })
    }

    /// Close a stream: final status + offline-equivalent detection (after
    /// rehydration when needed); all durable generations are removed.
    pub fn close(&self, stream: &str) -> Result<CloseReport, StreamError> {
        validate_name(stream, "stream")?;
        self.request(self.shard_of(stream), |reply| Command::Close {
            stream: stream.to_string(),
            reply,
        })
    }

    /// Write a new generation for one stream (or sweep every shard when
    /// `None`, skipping clean and already-durable streams). Returns how
    /// many generations were written.
    pub fn checkpoint(&self, stream: Option<&str>) -> Result<usize, StreamError> {
        match stream {
            Some(name) => {
                validate_name(name, "stream")?;
                self.request(self.shard_of(name), |reply| Command::Checkpoint {
                    stream: Some(name.to_string()),
                    reply,
                })
            }
            None => {
                let mut written = 0;
                for shard in 0..self.senders.len() {
                    written += self.request(shard, |reply| Command::Checkpoint {
                        stream: None,
                        reply,
                    })?;
                }
                Ok(written)
            }
        }
    }

    /// Names of every open stream (resident or evicted), across shards.
    pub fn streams(&self) -> Vec<String> {
        let mut all = Vec::new();
        for shard in 0..self.senders.len() {
            let (reply_tx, reply_rx) = bounded(1);
            if self.senders[shard]
                .send(Command::List { reply: reply_tx })
                .is_ok()
            {
                if let Ok(mut names) = reply_rx.recv_timeout(std::time::Duration::from_secs(600)) {
                    all.append(&mut names);
                }
            }
        }
        all.sort();
        all
    }
}

impl Drop for FleetManager {
    /// Graceful shutdown: every shard persists its dirty streams (when a
    /// store is configured) and exits; all workers are joined.
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Command::Shutdown);
        }
        self.senders.clear();
        self.receivers.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // All shard-held clones are gone now; dropping ours ends the refit
        // worker's receive loop.
        self.refit_tx = None;
        if let Some(handle) = self.refit_handle.take() {
            let _ = handle.join();
        }
    }
}

// ------------------------------------------------------------ shard worker

struct PendingRefit {
    new_model: String,
    /// Swap when `windows_seen` reaches this count — fixed at drift time,
    /// so the swap point is deterministic in stream coordinates.
    swap_at: u64,
}

/// Per-stream slot. Everything here survives eviction; only `engine` is
/// dropped to reclaim memory.
#[derive(Default)]
struct Slot {
    engine: Option<StreamEngine>,
    model: String,
    /// Original model name, before any `.{stream}.rN` refit suffixes.
    root_model: String,
    /// Last written checkpoint generation (0 = none yet).
    generation: u64,
    /// Engine stamp at the last written generation.
    saved: Option<(u64, u64)>,
    drift: Option<DriftDetector>,
    /// Monotone count of completed windows (the engine's own count resets
    /// on rebind; this one never does).
    windows_seen: u64,
    refits: u64,
    pending: Option<PendingRefit>,
}

struct CachedModel {
    fitted: Rc<FittedTriad>,
    /// Training-deviance baseline; computed only when drift runs.
    baseline: Option<DriftBaseline>,
    last_used: u64,
}

/// The `Send` part of a shard's state: crosses into the worker thread,
/// which builds the full [`ShardCtx`] (with its `!Send` model cache)
/// around it.
struct ShardEnv {
    shard_id: usize,
    cache_cap: usize,
    budget: usize,
    loader: ModelLoader,
    store: Option<CheckpointStore>,
    metrics: Arc<ShardMetrics>,
    fleet: Arc<FleetMetrics>,
    defaults: StreamConfig,
    policy: DriftPolicy,
    /// `Some` exactly when a [`Refitter`] was supplied, i.e. drift runs.
    refit_tx: Option<Sender<RefitJob>>,
    refit_ledger: Arc<RefitLedger>,
}

struct ShardCtx {
    env: ShardEnv,
    /// BTreeMap so sweeps and stream listings run in name order.
    streams: BTreeMap<String, Slot>,
    /// Per-shard model cache; `Rc` because several streams on this shard
    /// may share one model. Bounded to `cache_cap` entries, least recently
    /// used evicted first (logical use counter, never wall clock).
    models: BTreeMap<String, CachedModel>,
    model_clock: u64,
    ledger: BudgetLedger,
}

/// `"base.r3"` → `("base", 3)`; anything else is its own root.
fn refit_root(model: &str) -> (&str, u64) {
    if let Some((root, digits)) = model.rsplit_once(".r") {
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = digits.parse() {
                return (root, n);
            }
        }
    }
    (model, 0)
}

fn unknown(name: &str) -> StreamError {
    StreamError::UnknownStream(name.to_string())
}

impl ShardCtx {
    fn store(&self) -> Result<&CheckpointStore, StreamError> {
        self.env.store.as_ref().ok_or(StreamError::NoStore)
    }

    /// Newest intact generation of `name` and its payload.
    fn latest(&self, name: &str) -> Result<(u64, Vec<u8>), StreamError> {
        self.store()?.latest(name).ok_or_else(|| {
            StreamError::Checkpoint(PersistError::Format(format!(
                "no intact generation for {name:?}"
            )))
        })
    }

    fn detector(&self, baseline: Option<DriftBaseline>) -> Option<DriftDetector> {
        baseline.map(|b| DriftDetector::new(b, &self.env.policy))
    }

    /// Load (or fetch cached) a model plus, when drift runs, its baseline.
    fn model(
        &mut self,
        name: &str,
    ) -> Result<(Rc<FittedTriad>, Option<DriftBaseline>), StreamError> {
        self.model_clock += 1;
        if let Some(entry) = self.models.get_mut(name) {
            entry.last_used = self.model_clock;
            return Ok((Rc::clone(&entry.fitted), entry.baseline));
        }
        let fitted = Rc::new((self.env.loader)(name).map_err(StreamError::ModelLoad)?);
        // The baseline replays the whole training series: pay it only
        // when a drift detector will consume it.
        let baseline = self
            .env
            .refit_tx
            .is_some()
            .then(|| DriftBaseline::from_model(&fitted));
        self.models.insert(
            name.to_string(),
            CachedModel {
                fitted: Rc::clone(&fitted),
                baseline,
                last_used: self.model_clock,
            },
        );
        // Streams bound to an evicted model keep working: the next use
        // reloads it (use counters are unique, so the victim is
        // deterministic for a given command sequence).
        while self.models.len() > self.env.cache_cap {
            let victim = self
                .models
                .iter()
                .min_by_key(|(_, m)| m.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.models.remove(&k);
                }
                None => break,
            }
        }
        Ok((fitted, baseline))
    }

    fn open(&mut self, stream: &str, model: &str) -> Result<(), StreamError> {
        if self.streams.contains_key(stream) {
            return Err(StreamError::DuplicateStream(stream.to_string()));
        }
        if self
            .env
            .store
            .as_ref()
            .is_some_and(|s| s.latest(stream).is_some())
        {
            // Durable state exists (e.g. written after this manager's
            // startup adoption): resume it; the checkpoint knows its model.
            self.adopt(stream)?;
            return self.ensure_resident(stream);
        }
        let (fitted, baseline) = self.model(model)?;
        let engine = StreamEngine::new(&fitted, self.env.defaults.clone());
        self.ledger.touch(stream);
        self.ledger.set_bytes(stream, engine.estimated_bytes());
        let drift = self.detector(baseline);
        self.streams.insert(
            stream.to_string(),
            Slot {
                engine: Some(engine),
                model: model.to_string(),
                root_model: model.to_string(),
                drift,
                ..Slot::default()
            },
        );
        Ok(())
    }

    fn poll(&mut self, stream: &str) -> Result<StreamStatus, StreamError> {
        self.ensure_resident(stream)?;
        self.ledger.touch(stream);
        self.streams
            .get(stream)
            .and_then(|s| s.engine.as_ref())
            .map(StreamEngine::status)
            .ok_or_else(|| unknown(stream))
    }

    fn close(&mut self, stream: &str) -> Result<CloseReport, StreamError> {
        self.ensure_resident(stream)?;
        let slot = self.streams.remove(stream).ok_or_else(|| unknown(stream))?;
        self.ledger.remove(stream);
        self.env.refit_ledger.clear(stream);
        if let Some(store) = &self.env.store {
            store.remove_stream(stream);
        }
        // ensure_resident guaranteed an engine.
        let engine = slot.engine.ok_or_else(|| unknown(stream))?;
        let finalized = self
            .model(&slot.model)
            .and_then(|(fitted, _)| engine.finalize(&fitted));
        let (detection, finalize_error) = match finalized {
            Ok(det) => (Some(det), None),
            Err(e) => (None, Some(e.to_string())),
        };
        Ok(CloseReport {
            status: engine.status(),
            detection,
            finalize_error,
        })
    }

    /// Write a new generation for a resident stream when dirty (or always,
    /// when `force`), then compact superseded generations. Returns whether
    /// a file was written.
    fn write_generation(&mut self, name: &str, force: bool) -> Result<bool, StreamError> {
        let slot = self.streams.get(name).ok_or_else(|| unknown(name))?;
        let Some(engine) = slot.engine.as_ref() else {
            // Evicted streams are durable by construction.
            return Ok(false);
        };
        let stamp = engine.state_stamp();
        if !force && slot.saved == Some(stamp) {
            return Ok(false);
        }
        let store = self.store()?;
        let generation = slot.generation + 1;
        let mut payload = Vec::new();
        checkpoint::save(&mut payload, name, &slot.model, engine)?;
        store
            .put(name, generation, &payload)
            .map_err(|e| StreamError::Checkpoint(PersistError::Format(e)))?;
        let mut span = obs::span("fleet-compact");
        span.add_field("stream", name);
        let compacted = store.compact(name, generation);
        span.add_field("removed", compacted);
        drop(span);
        ShardMetrics::add(&self.env.fleet.compacted_files, compacted as u64);
        ShardMetrics::add(&self.env.metrics.checkpoints_written, 1);
        if let Some(slot) = self.streams.get_mut(name) {
            slot.generation = generation;
            slot.saved = Some(stamp);
        }
        Ok(true)
    }

    /// Write every dirty resident stream, counting clean skips and
    /// failures. Fails only when nothing could be written.
    fn sweep(&mut self) -> Result<usize, StreamError> {
        let names: Vec<String> = self.streams.keys().cloned().collect();
        let mut written = 0usize;
        let mut first_err = None;
        for name in names {
            match self.write_generation(&name, false) {
                Ok(true) => written += 1,
                Ok(false) => ShardMetrics::add(&self.env.metrics.checkpoints_skipped_clean, 1),
                Err(e) => {
                    ShardMetrics::add(&self.env.metrics.checkpoint_failures, 1);
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) if written == 0 => Err(e),
            _ => Ok(written),
        }
    }

    /// Evict one stream: persist its state (if dirty) and drop the engine.
    fn evict(&mut self, name: &str) -> Result<(), StreamError> {
        let mut span = obs::span("fleet-evict");
        span.add_field("stream", name);
        span.add_field("shard", self.env.shard_id);
        self.write_generation(name, false)?;
        if let Some(slot) = self.streams.get_mut(name) {
            slot.engine = None;
        }
        let freed = self.ledger.remove(name);
        span.add_field("freed_bytes", freed);
        ShardMetrics::add(&self.env.fleet.evictions, 1);
        Ok(())
    }

    /// Rehydrate an evicted stream from its newest intact generation.
    fn ensure_resident(&mut self, name: &str) -> Result<(), StreamError> {
        match self.streams.get(name) {
            None => return Err(unknown(name)),
            Some(slot) if slot.engine.is_some() => return Ok(()),
            Some(_) => {}
        }
        let mut span = obs::span("fleet-rehydrate");
        span.add_field("stream", name);
        span.add_field("shard", self.env.shard_id);
        let fleet = Arc::clone(&self.env.fleet);
        let fail = move |e| {
            ShardMetrics::add(&fleet.rehydrate_failures, 1);
            e
        };
        let (generation, payload) = self.latest(name).map_err(&fail)?;
        span.add_field("generation", generation);
        let state = checkpoint::load(payload.as_slice()).map_err(&fail)?;
        let model_name = state.model.clone();
        let (fitted, baseline) = self.model(&model_name).map_err(&fail)?;
        let engine = state.into_engine(&fitted).map_err(&fail)?;
        let stamp = engine.state_stamp();
        let bytes = engine.estimated_bytes();
        let drift = self.detector(baseline);
        if let Some(slot) = self.streams.get_mut(name) {
            slot.model = model_name;
            slot.generation = generation;
            slot.saved = Some(stamp);
            if slot.drift.is_none() {
                slot.drift = drift;
            }
            slot.engine = Some(engine);
        }
        self.ledger.touch(name);
        self.ledger.set_bytes(name, bytes);
        ShardMetrics::add(&self.env.fleet.rehydrations, 1);
        Ok(())
    }

    /// Evict LRU streams until this shard is back under its byte cap.
    /// `protect` is the stream being served right now: with `Some`, every
    /// *other* resident engine can go but that one stays.
    fn enforce_budget(&mut self, protect: Option<&str>) {
        while self.ledger.over_budget() {
            let Some(victim) = self.ledger.victim(protect) else {
                break;
            };
            if self.evict(&victim).is_err() {
                // Persist failed: dropping the engine would lose state, so
                // keep it resident and stop trying (the overshoot shows up
                // in the gauges rather than as silent data loss).
                break;
            }
        }
    }

    /// End of a command on `stream`: the first eviction pass spares it; if
    /// it alone exceeds the shard slice, the second takes it too, so
    /// published residency never exceeds the cap. Then publish the gauges.
    fn settle(&mut self, stream: &str) {
        self.enforce_budget(Some(stream));
        self.enforce_budget(None);
        self.publish_gauges();
    }

    fn publish_gauges(&self) {
        let resident = self.ledger.resident() as u64;
        let open = self.streams.len() as u64;
        let shard = self.env.shard_id;
        let fleet = &self.env.fleet;
        ShardMetrics::set(&fleet.resident_bytes[shard], self.ledger.total() as u64);
        ShardMetrics::set(&fleet.resident_streams[shard], resident);
        ShardMetrics::set(&fleet.evicted_streams[shard], open - resident.min(open));
        ShardMetrics::set(&self.env.metrics.open_streams, open);
    }

    /// Adopt a durable stream as an evicted slot (no engine loaded —
    /// rehydration happens on first touch).
    fn adopt(&mut self, name: &str) -> Result<(), StreamError> {
        let (generation, payload) = self.latest(name)?;
        let state = checkpoint::load(payload.as_slice())?;
        validate_name(&state.stream, "stream")?;
        validate_name(&state.model, "model")?;
        if state.stream != name {
            return Err(StreamError::Checkpoint(PersistError::Format(format!(
                "checkpoint for {name:?} names stream {:?}",
                state.stream
            ))));
        }
        let (root, refits) = refit_root(&state.model);
        // Refit names are `{root}.{stream}.rN` — recover the true base so
        // the next refit doesn't stack another stream scope on top.
        let root = root.strip_suffix(&format!(".{name}")).unwrap_or(root);
        self.streams.insert(
            name.to_string(),
            Slot {
                root_model: root.to_string(),
                model: state.model,
                generation,
                refits,
                ..Slot::default()
            },
        );
        Ok(())
    }

    /// Score one batch of points on a stream, feeding drift and applying
    /// refit swaps at their window boundaries.
    fn ingest(&mut self, stream: &str, points: &[f64]) {
        // An unknown stream's points were counted as ingested at enqueue
        // time; without an engine they can only be dropped.
        if self.ensure_resident(stream).is_err() {
            return;
        }
        let Some(model) = self.streams.get(stream).map(|s| s.model.clone()) else {
            return;
        };
        let Ok((mut fitted, _)) = self.model(&model) else {
            return;
        };
        self.ledger.touch(stream);
        let mut span = obs::span("fleet-ingest");
        span.add_field("stream", stream);
        span.add_field("points", points.len());
        let events = |st: &ShardCtx| {
            st.streams
                .get(stream)
                .and_then(|s| s.engine.as_ref())
                .map_or(0, |e| e.events().len())
        };
        let events_before = events(self);
        for &x in points {
            let Some(slot) = self.streams.get_mut(stream) else {
                break;
            };
            let Some(engine) = slot.engine.as_mut() else {
                break;
            };
            let t0 = obs::now_ns();
            let mut drifting = false;
            match engine.push(&fitted, x) {
                Ok(outcome) => {
                    if let Some(w) = outcome.completed_window {
                        let end = obs::now_ns();
                        ShardMetrics::add(&self.env.metrics.windows_scored, 1);
                        self.env
                            .metrics
                            .score_latency_us
                            .observe((end - t0) / 1_000);
                        // A completed window ran the stage-1 scorer: that
                        // interval (not every cheap buffering push) is the
                        // span worth attributing.
                        obs::record_span("fleet-score", t0, end, Vec::new());
                        slot.windows_seen += 1;
                        if let (Some(det), Some(dev)) = (slot.drift.as_mut(), w.deviance) {
                            if det.observe(dev) == DriftSignal::Entered {
                                ShardMetrics::add(&self.env.fleet.drift_events, 1);
                            }
                            drifting = det.drifting();
                        }
                    }
                }
                Err(_) => ShardMetrics::add(&self.env.metrics.dropped_nonfinite, 1),
            }
            // A refit scheduled below swaps at least one window later, so
            // only a refit scheduled earlier can be due now.
            let swap_due = slot
                .pending
                .as_ref()
                .is_some_and(|p| slot.windows_seen >= p.swap_at);
            // Schedule while the episode is open, not just at the entry
            // edge: an entry with too little retained history to refit on
            // gets retried at the next scored window.
            if drifting {
                let d0 = obs::now_ns();
                if self.schedule_refit(stream) {
                    let fields = vec![("stream", stream.to_string())];
                    obs::record_span("fleet-drift", d0, obs::now_ns(), fields);
                }
            }
            // The rest of the batch scores under the refreshed model.
            if swap_due {
                if let Some(swapped) = self.apply_pending_swap(stream) {
                    fitted = swapped;
                }
            }
        }
        let opened = events(self).saturating_sub(events_before);
        ShardMetrics::add(&self.env.metrics.events_opened, opened as u64);
        drop(span);
        if let Some(bytes) = self
            .streams
            .get(stream)
            .and_then(|s| s.engine.as_ref())
            .map(StreamEngine::estimated_bytes)
        {
            self.ledger.set_bytes(stream, bytes);
        }
    }

    /// While a drift episode is open: build the deterministic refit request
    /// and hand it to the background worker. Returns whether a refit was
    /// actually dispatched (one per episode at most — `pending` gates).
    fn schedule_refit(&mut self, stream: &str) -> bool {
        let Some(tx) = self.env.refit_tx.clone() else {
            return false;
        };
        let Some(slot) = self.streams.get(stream) else {
            return false;
        };
        if slot.pending.is_some() || slot.refits >= self.env.policy.max_refits {
            return false;
        }
        let Some(engine) = slot.engine.as_ref() else {
            return false;
        };
        // Refit models are fitted on *this stream's* recent points, so the
        // name is scoped by stream: streams sharing a base model must never
        // race to (re)define the same refit name.
        let new_model = format!("{}.{}.r{}", slot.root_model, stream, slot.refits + 1);
        if validate_name(&new_model, "model").is_err() {
            return false; // combined name too long to suffix; refit impossible
        }
        let base_model = slot.model.clone();
        let train_len = self.env.policy.refit_train_len;
        let train = engine.recent(train_len.max(engine.window_len() + 1));
        // The offline fit needs at least two full windows of training data;
        // with less retained history the refit would fail outright. Skip
        // for now — the episode is still open, so a later window retries.
        if train.len() < engine.window_len() * 2 {
            return false;
        }
        let swap_at = slot.windows_seen + self.env.policy.swap_horizon.max(1);
        let Ok((fitted, _)) = self.model(&base_model) else {
            return false;
        };
        let mut config = fitted.config().clone();
        // Pin the geometry: the engine can only rebind to a model with the
        // same window/stride/period.
        config.period_override = Some(fitted.period());
        let request = RefitRequest {
            stream: stream.to_string(),
            base_model,
            new_model: new_model.clone(),
            train,
            config,
        };
        self.env.refit_ledger.begin(stream);
        let job = RefitJob {
            stream: stream.to_string(),
            request,
        };
        if tx.send(job).is_err() {
            self.env.refit_ledger.clear(stream);
            return false;
        }
        ShardMetrics::add(&self.env.fleet.refits_requested, 1);
        if let Some(slot) = self.streams.get_mut(stream) {
            slot.pending = Some(PendingRefit { new_model, swap_at });
        }
        true
    }

    /// At the deterministic swap boundary: wait for the background refit
    /// and rebind the engine to the refreshed model. Returns the new model
    /// when the swap landed.
    fn apply_pending_swap(&mut self, stream: &str) -> Option<Rc<FittedTriad>> {
        let new_model = self.streams.get_mut(stream)?.pending.take()?.new_model;
        let mut span = obs::span("fleet-refit-swap");
        span.add_field("stream", stream);
        span.add_field("model", &new_model);
        let outcome = self.env.refit_ledger.wait(stream);
        self.env.refit_ledger.clear(stream);
        let swapped = match outcome {
            Some(Ok(())) => self.rebind(stream, &new_model).ok(),
            _ => None,
        };
        span.add_field("ok", swapped.is_some());
        let counter = if swapped.is_some() {
            &self.env.fleet.refits_completed
        } else {
            &self.env.fleet.refits_failed
        };
        ShardMetrics::add(counter, 1);
        swapped
    }

    /// Rebind a stream's engine to `new_model` and reset its drift state
    /// against the new model's training baseline.
    fn rebind(&mut self, stream: &str, new_model: &str) -> Result<Rc<FittedTriad>, StreamError> {
        let (fitted, baseline) = self.model(new_model)?;
        let drift = self.detector(baseline);
        let slot = self
            .streams
            .get_mut(stream)
            .ok_or_else(|| unknown(stream))?;
        slot.engine
            .as_mut()
            .ok_or_else(|| unknown(stream))?
            .rebind(&fitted)?;
        slot.model = new_model.to_string();
        slot.refits += 1;
        slot.drift = drift;
        // The swapped engine must reach disk under its new model name
        // eventually; mark dirty so the next sweep/evict writes it.
        slot.saved = None;
        Ok(fitted)
    }
}

fn shard_main(rx: Receiver<Command>, env: ShardEnv, adopt: Vec<String>) {
    let mut st = ShardCtx {
        ledger: BudgetLedger::new(env.budget),
        env,
        streams: BTreeMap::new(),
        models: BTreeMap::new(),
        model_clock: 0,
    };
    for name in &adopt {
        if st.adopt(name).is_err() {
            ShardMetrics::add(&st.env.metrics.checkpoint_failures, 1);
        }
    }
    st.publish_gauges();

    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Open {
                stream,
                model,
                reply,
            } => {
                let mut span = obs::span("fleet-open");
                span.add_field("stream", &stream);
                let result = st.open(&stream, &model);
                st.settle(&stream);
                let _ = reply.send(result);
            }
            Command::Push { stream, points } => {
                st.ingest(&stream, &points);
                st.settle(&stream);
            }
            Command::Poll { stream, reply } => {
                // Status is captured before settling, which may evict it.
                let result = st.poll(&stream);
                st.settle(&stream);
                let _ = reply.send(result);
            }
            Command::Close { stream, reply } => {
                let result = st.close(&stream);
                st.settle(&stream);
                let _ = reply.send(result);
            }
            Command::Checkpoint { stream, reply } => {
                let result = match stream {
                    // Evicted streams are durable already; a resident one
                    // is written unconditionally.
                    Some(name) => st.write_generation(&name, true).map(usize::from),
                    None => st.sweep(),
                };
                let _ = reply.send(result);
            }
            Command::List { reply } => {
                let _ = reply.send(st.streams.keys().cloned().collect());
            }
            Command::Shutdown => {
                // Dirty streams only: anything checkpointed since its last
                // sample is already bit-identical on disk.
                if st.env.store.is_some() {
                    let _ = st.sweep();
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;
    use triad_core::TriAd;

    fn quick_cfg() -> TriadConfig {
        TriadConfig {
            epochs: 2,
            depth: 2,
            hidden: 8,
            batch: 4,
            merlin_step: 4,
            ..Default::default()
        }
    }

    fn periodic(n: usize, p: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (2.0 * PI * i as f64 / p).sin()
                    + 0.3 * (4.0 * PI * i as f64 / p).sin()
                    + 0.02 * (((i * 37) % 97) as f64 / 97.0 - 0.5)
            })
            .collect()
    }

    fn base_fitted() -> FittedTriad {
        TriAd::new(quick_cfg())
            .fit(&periodic(560, 32.0))
            .expect("fit")
    }

    /// Refit recipes posted by the [`Refitter`], consumed by the loader:
    /// `FittedTriad` is `!Send`, so what crosses threads is (config, train),
    /// and the shard thread fits it on demand like any other model.
    type RecipeBook = Arc<Mutex<BTreeMap<String, (TriadConfig, Vec<f64>)>>>;

    fn loader_with(recipes: RecipeBook) -> ModelLoader {
        Arc::new(move |name: &str| {
            let recipe = recipes
                .lock()
                .map_err(|_| "recipe lock poisoned".to_string())?
                .get(name)
                .cloned();
            match recipe {
                Some((cfg, train)) => TriAd::new(cfg).fit(&train).map_err(|e| e.to_string()),
                None => Ok(base_fitted()),
            }
        })
    }

    fn base_loader() -> ModelLoader {
        loader_with(Arc::new(Mutex::new(BTreeMap::new())))
    }

    /// Base-model loader counting its calls; a model named `slow-*` sleeps
    /// first, to wedge a worker for backpressure tests.
    fn counting_loader(calls: Arc<AtomicUsize>) -> ModelLoader {
        Arc::new(move |name: &str| {
            calls.fetch_add(1, Ordering::SeqCst);
            if name.starts_with("slow") {
                std::thread::sleep(Duration::from_millis(400));
            }
            Ok(base_fitted())
        })
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("triad_fleet_mgr_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Push with bounded retry: lossless delivery even if a queue
    /// momentarily fills.
    fn push_all(mgr: &FleetManager, stream: &str, points: &[f64]) {
        for _ in 0..600 {
            if mgr.push(stream, points).expect("push").queued {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("queue for {stream} never drained");
    }

    fn wait_for_seq(mgr: &FleetManager, stream: &str, want: u64) -> StreamStatus {
        for _ in 0..600 {
            let status = mgr.poll(stream).expect("poll");
            if status.seq >= want {
                return status;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("stream {stream} never reached seq {want}");
    }

    #[test]
    fn storeless_unbounded_manager_matches_offline_across_shards() {
        let calls = Arc::new(AtomicUsize::new(0));
        let mgr = FleetManager::new(
            FleetConfig {
                shards: 2,
                queue_capacity: 256,
                ..FleetConfig::default()
            },
            counting_loader(Arc::clone(&calls)),
            None,
        )
        .expect("fleet");
        assert_eq!(mgr.shard_count(), 2);

        let mut test = periodic(380, 32.0);
        for (i, v) in test.iter_mut().enumerate().take(260).skip(200) {
            *v = (8.0 * PI * i as f64 / 32.0).sin();
        }
        mgr.open("alpha", "m").expect("open alpha");
        mgr.open("beta", "m").expect("open beta");
        assert!(matches!(
            mgr.open("alpha", "m"),
            Err(StreamError::DuplicateStream(_))
        ));
        assert_eq!(mgr.streams(), vec!["alpha".to_string(), "beta".to_string()]);
        for chunk in test.chunks(40) {
            push_all(&mgr, "alpha", chunk);
            push_all(&mgr, "beta", chunk);
        }
        assert!(wait_for_seq(&mgr, "alpha", test.len() as u64).windows_scored > 0);
        wait_for_seq(&mgr, "beta", test.len() as u64);
        // Cache: at most one load per shard that hosts a stream.
        assert!(calls.load(Ordering::SeqCst) <= 2);

        let stats = mgr.fleet_stats();
        assert_eq!(stats.budget_bytes, 0);
        assert_eq!((stats.evictions, stats.resident_streams), (0, 2));
        let offline = base_fitted().detect(&test);
        for name in ["alpha", "beta"] {
            let report = mgr.close(name).expect("close");
            assert_eq!(report.finalize_error, None);
            assert_eq!(report.detection.as_ref(), Some(&offline), "stream {name}");
        }
        assert!(matches!(
            mgr.poll("alpha"),
            Err(StreamError::UnknownStream(_))
        ));
        // Without a store there is nothing to checkpoint into.
        mgr.open("gamma", "m").expect("open gamma");
        assert!(matches!(mgr.checkpoint(None), Err(StreamError::NoStore)));
    }

    #[test]
    fn budget_without_a_store_is_refused() {
        let cfg = FleetConfig {
            budget_bytes: 1 << 20,
            ..FleetConfig::default()
        };
        assert!(matches!(
            FleetManager::new(cfg, base_loader(), None),
            Err(StreamError::NoStore)
        ));
    }

    #[test]
    fn invalid_names_are_rejected_before_touching_a_shard() {
        let calls = Arc::new(AtomicUsize::new(0));
        let cfg = FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        };
        let mgr = FleetManager::new(cfg, counting_loader(Arc::clone(&calls)), None).expect("fleet");
        for bad in ["", ".hidden", "-flag", "a b", "x/y", "..", &"z".repeat(65)] {
            assert!(
                matches!(mgr.open(bad, "m"), Err(StreamError::BadName(_))),
                "accepted stream {bad:?}"
            );
            assert!(
                matches!(mgr.open("ok", bad), Err(StreamError::BadName(_))),
                "accepted model {bad:?}"
            );
        }
        assert!(matches!(
            mgr.push("no/pe", &[1.0]),
            Err(StreamError::BadName(_))
        ));
        assert_eq!(calls.load(Ordering::SeqCst), 0, "a shard loaded a model");
        assert_eq!(ShardMetrics::get(&mgr.shard_metrics()[0].ingested), 0);
    }

    #[test]
    fn full_queue_sheds_load_and_accounts_drops() {
        let calls = Arc::new(AtomicUsize::new(0));
        let cfg = FleetConfig {
            shards: 1,
            queue_capacity: 1,
            ..FleetConfig::default()
        };
        let mgr = Arc::new(FleetManager::new(cfg, counting_loader(calls), None).expect("fleet"));

        // Wedge the single worker in a slow model load…
        let opener = std::thread::spawn({
            let mgr = Arc::clone(&mgr);
            move || mgr.open("wedge", "slow-m")
        });
        std::thread::sleep(Duration::from_millis(100));

        // …so pushes pile into the depth-1 queue: the first is queued, the
        // rest are shed with explicit accounting.
        let (mut queued, mut dropped) = (0usize, 0usize);
        for _ in 0..8 {
            let ticket = mgr.push("wedge", &[1.0, 2.0, 3.0]).expect("push");
            assert_eq!(ticket.shard, 0);
            if ticket.queued {
                queued += 1;
            } else {
                assert_eq!(ticket.dropped, 3);
                dropped += ticket.dropped;
            }
        }
        assert!(queued >= 1);
        assert!(dropped > 0, "queue never filled");
        assert_eq!(
            ShardMetrics::get(&mgr.shard_metrics()[0].dropped_backpressure),
            dropped as u64
        );
        opener.join().expect("join").expect("open");
    }

    #[test]
    fn corrupt_generation_counts_as_failure_and_startup_survives() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("broken.g00000001.ckpt"), b"not a checkpoint").expect("write");
        let cfg = FleetConfig {
            shards: 1,
            store_dir: Some(dir.clone()),
            ..FleetConfig::default()
        };
        let mgr = FleetManager::new(cfg, base_loader(), None).expect("fleet");
        assert!(mgr.streams().is_empty());
        assert_eq!(
            ShardMetrics::get(&mgr.shard_metrics()[0].checkpoint_failures),
            1
        );
        drop(mgr);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aggressive_budget_evicts_but_outputs_match_unlimited_run() {
        let test = periodic(420, 32.0);
        let run = |budget: usize, tag: &str| {
            let dir = tmp_dir(tag);
            let mgr = FleetManager::new(
                FleetConfig {
                    shards: 2,
                    budget_bytes: budget,
                    store_dir: Some(dir.clone()),
                    ..FleetConfig::default()
                },
                base_loader(),
                None,
            )
            .expect("fleet");
            let names = ["a0", "a1", "a2", "a3", "a4", "a5"];
            for name in names {
                mgr.open(name, "m").expect("open");
            }
            for chunk in test.chunks(48) {
                for name in names {
                    push_all(&mgr, name, chunk);
                }
            }
            let mut out = Vec::new();
            for name in names {
                let status = wait_for_seq(&mgr, name, test.len() as u64);
                out.push((name, status));
            }
            let stats = mgr.fleet_stats();
            let mut reports = Vec::new();
            for name in names {
                reports.push(mgr.close(name).expect("close"));
            }
            drop(mgr);
            let _ = std::fs::remove_dir_all(&dir);
            (out, reports, stats)
        };

        // ~6 engines of a few hundred KB each against a 64 KiB global
        // budget: every command ends with evictions.
        let (tight_status, tight_reports, tight_stats) = run(64 * 1024, "tight");
        let (loose_status, loose_reports, loose_stats) = run(0, "loose");

        assert!(
            tight_stats.evictions > 0,
            "64 KiB budget over 6 streams must evict"
        );
        assert!(tight_stats.rehydrations > 0);
        assert_eq!(loose_stats.evictions, 0, "unlimited budget must not evict");
        assert!(
            tight_stats.resident_bytes <= 64 * 1024,
            "published residency {} exceeds the budget",
            tight_stats.resident_bytes
        );

        // The gated outputs are bit-identical: eviction/rehydration is
        // invisible in statuses, events, and offline-equivalent detections.
        assert_eq!(tight_status, loose_status);
        assert_eq!(tight_reports, loose_reports);
    }

    #[test]
    fn checkpoint_sweep_skips_clean_streams_and_restart_resumes() {
        let dir = tmp_dir("restart");
        let test = periodic(400, 32.0);
        let cut = 217; // deliberately off-stride

        let cfg = FleetConfig {
            shards: 2,
            store_dir: Some(dir.clone()),
            ..FleetConfig::default()
        };
        {
            let mgr = FleetManager::new(cfg.clone(), base_loader(), None).expect("fleet");
            mgr.open("resume-me", "m").expect("open");
            push_all(&mgr, "resume-me", &test[..cut]);
            wait_for_seq(&mgr, "resume-me", cut as u64);
            assert_eq!(mgr.checkpoint(None).expect("sweep"), 1);
            // Nothing changed since: the sweep must skip, not rewrite.
            assert_eq!(mgr.checkpoint(None).expect("sweep"), 0);
            let skipped: u64 = mgr
                .shard_metrics()
                .iter()
                .map(|m| ShardMetrics::get(&m.checkpoints_skipped_clean))
                .sum();
            assert!(skipped >= 1, "clean sweep must count a skip");
            // Several explicit generations, so the restart below resumes
            // from a *compacted* store (older generations removed).
            for _ in 0..3 {
                mgr.checkpoint(Some("resume-me")).expect("explicit");
            }
        } // Drop: shutdown sweep persists dirty state.

        // A new manager over the same store adopts the stream evicted.
        let mgr = FleetManager::new(cfg, base_loader(), None).expect("fleet");
        assert_eq!(mgr.streams(), vec!["resume-me".to_string()]);
        push_all(&mgr, "resume-me", &test[cut..]);
        wait_for_seq(&mgr, "resume-me", test.len() as u64);
        let report = mgr.close("resume-me").expect("close");
        // close() removed every generation file.
        assert_eq!(std::fs::read_dir(&dir).expect("store").count(), 0);

        // Reference: the same series through one unbroken engine.
        let fitted = base_fitted();
        let mut engine = StreamEngine::new(&fitted, StreamConfig::default());
        for &x in &test {
            engine.push(&fitted, x).expect("push");
        }
        assert_eq!(report.status, engine.status());
        assert_eq!(
            report.detection.expect("detection"),
            engine.finalize(&fitted).expect("finalize")
        );
        drop(mgr);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sustained_regime_shift_triggers_refit_and_deterministic_swap() {
        let dir = tmp_dir("drift");
        let recipes: RecipeBook = Arc::new(Mutex::new(BTreeMap::new()));
        let refit_book = Arc::clone(&recipes);
        let refitter: Refitter = Arc::new(move |req: &RefitRequest| {
            // "Persist" the refreshed model as a recipe the loader fits.
            refit_book
                .lock()
                .map_err(|_| "recipe lock poisoned".to_string())?
                .insert(
                    req.new_model.clone(),
                    (req.config.clone(), req.train.clone()),
                );
            Ok(())
        });
        let mgr = FleetManager::new(
            FleetConfig {
                shards: 1,
                store_dir: Some(dir.clone()),
                drift: DriftPolicy {
                    slack_sigma: 1.0,
                    threshold: 0.3,
                    min_windows: 2,
                    swap_horizon: 2,
                    ..DriftPolicy::default()
                },
                ..FleetConfig::default()
            },
            loader_with(recipes),
            Some(refitter),
        )
        .expect("fleet");

        mgr.open("shifty", "m").expect("open");
        // In-regime prefix, then a sustained frequency shift the base model
        // was never trained on: deviance stays elevated window after
        // window, which is exactly what CUSUM accumulates.
        let mut series = periodic(300, 32.0);
        series.extend((300..800).map(|i| (2.0 * PI * i as f64 / 7.0).sin()));
        for chunk in series.chunks(50) {
            push_all(&mgr, "shifty", chunk);
        }
        wait_for_seq(&mgr, "shifty", series.len() as u64);

        let stats = mgr.fleet_stats();
        assert!(stats.drift_events >= 1, "regime shift must enter drift");
        assert!(stats.refits_requested >= 1);
        assert_eq!(stats.refits_failed, 0, "refit pipeline must succeed");
        assert!(
            stats.refits_completed >= 1,
            "swap must land at the horizon boundary"
        );

        // After a swap the offline-equivalent finalize is gone by design —
        // the close must say so, while live status and events survive.
        let report = mgr.close("shifty").expect("close");
        assert!(report.detection.is_none());
        assert!(report
            .finalize_error
            .as_deref()
            .expect("finalize error")
            .contains("swapped"));
        assert_eq!(report.status.seq, series.len() as u64);
        drop(mgr);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_refitter_means_no_drift() {
        // The same regime shift and policy as above, but without a
        // refitter: drift never runs, so nothing is detected or counted.
        let cfg = FleetConfig {
            shards: 1,
            drift: DriftPolicy {
                slack_sigma: 1.0,
                threshold: 0.3,
                min_windows: 2,
                swap_horizon: 2,
                ..DriftPolicy::default()
            },
            ..FleetConfig::default()
        };
        let mgr = FleetManager::new(cfg, base_loader(), None).expect("fleet");
        mgr.open("shifty", "m").expect("open");
        let mut series = periodic(300, 32.0);
        series.extend((300..800).map(|i| (2.0 * PI * i as f64 / 7.0).sin()));
        push_all(&mgr, "shifty", &series);
        wait_for_seq(&mgr, "shifty", series.len() as u64);
        let stats = mgr.fleet_stats();
        assert_eq!((stats.drift_events, stats.refits_requested), (0, 0));
        assert_eq!(mgr.close("shifty").expect("close").finalize_error, None);
    }
}
