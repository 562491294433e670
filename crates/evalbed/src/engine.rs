//! The batch evaluation engine: a deterministic work queue of
//! (method, dataset) tasks over `crates/parallel`, with crash-resumable
//! JSONL output and TriAD model caching through the serve registry.
//!
//! Determinism contract: every task is a pure function of the run
//! parameters (archive seed, model seed, epochs, smoke flag), so the result
//! set — and therefore the gated summary — is bit-identical at any thread
//! count. Scheduling order, append order and aggregation order are all
//! fixed by the task list, never by completion time.
//!
//! Crash resumability: tasks run in fixed-size batches; each batch's rows
//! are appended (one fsync'd write) only after the whole batch completes.
//! A kill therefore loses at most the in-flight batch, and `--resume`
//! re-runs exactly the tasks whose rows did not land intact.

use crate::methods::{self, MethodConfig, SharedRegistry};
use crate::metrics::MetricSet;
use crate::rows::{self, ResultRow};
use crate::summary::{RunMeta, Summary};
use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use triad_serve::{Metrics, ModelRegistry};
use ucrgen::archive::generate_dataset;
use ucrgen::UcrDataset;

/// Tasks per append batch. Small enough that a mid-run kill forfeits little
/// work, large enough that the fsync per batch is noise.
const BATCH: usize = 16;

/// How many fitted TriAD models the registry keeps deserialized at once.
/// Models are read once per task and the working set is bounded, so a small
/// cache suffices; evicted entries stay on disk.
const MODEL_CACHE_CAPACITY: usize = 8;

/// A full run specification, as assembled by the CLI.
#[derive(Debug, Clone)]
pub struct EvalbedOptions {
    /// Output directory (JSONL rows, summary JSON, markdown).
    pub out_dir: PathBuf,
    /// CI-scale run: small models, small default dataset/method subsets.
    pub smoke: bool,
    /// Dataset ids to evaluate (1-based archive numbering).
    pub datasets: Vec<usize>,
    /// Methods to run, execution order.
    pub methods: Vec<String>,
    /// Metric columns for the summary (empty = all).
    pub metrics: Vec<String>,
    /// Training epochs for every method.
    pub epochs: usize,
    /// Model seed (TriAD and baselines).
    pub seed: u64,
    /// Master seed for `ucrgen::archive` generation.
    pub archive_seed: u64,
    /// Worker threads (0 = auto, honouring `TRIAD_THREADS`).
    pub threads: usize,
    /// Keep existing rows and re-run only missing tasks.
    pub resume: bool,
    /// Disable the TriAD model cache (always refit).
    pub no_cache: bool,
    /// Model cache directory (default: `<out_dir>/models`).
    pub models_dir: Option<PathBuf>,
    /// Append the TriAD stride variants to the method list.
    pub stride_sweep: bool,
    /// Baseline summary to gate against; regressions fail the run.
    pub check: Option<PathBuf>,
    /// Metric-drop tolerance for `--check`.
    pub tolerance: f64,
}

impl EvalbedOptions {
    /// Defaults for a full-archive run rooted at `out_dir`.
    pub fn full(out_dir: PathBuf) -> Self {
        EvalbedOptions {
            out_dir,
            smoke: false,
            datasets: (1..=250).collect(),
            methods: methods::ALL_METHODS.iter().map(|s| s.to_string()).collect(),
            metrics: Vec::new(),
            epochs: 5,
            seed: 0,
            archive_seed: 7,
            threads: 0,
            resume: false,
            no_cache: false,
            models_dir: None,
            stride_sweep: false,
            check: None,
            tolerance: 1e-9,
        }
    }

    /// Defaults for the CI smoke run: 4 datasets (one per quadrant of the
    /// family × anomaly grid), TriAD plus a representative baseline spread,
    /// tiny models.
    pub fn smoke(out_dir: PathBuf) -> Self {
        EvalbedOptions {
            smoke: true,
            datasets: vec![1, 2, 3, 4],
            methods: ["triad", "lstm_ae_random", "usad", "ts2vec", "random"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            epochs: 2,
            ..EvalbedOptions::full(out_dir)
        }
    }

    fn method_list(&self) -> Vec<String> {
        let mut list = self.methods.clone();
        if self.stride_sweep {
            for (name, _) in methods::STRIDE_VARIANTS {
                if !list.iter().any(|m| m == name) {
                    list.push(name.to_string());
                }
            }
        }
        list
    }
}

/// What a run produced, for reporting.
#[derive(Debug)]
pub struct RunOutcome {
    pub summary: Summary,
    /// Tasks executed this run (not satisfied from existing rows).
    pub executed: usize,
    /// Tasks satisfied by intact rows from a previous run.
    pub resumed: usize,
    /// Damaged/duplicate lines skipped while loading existing rows.
    pub skipped_lines: usize,
    /// Tasks that reused a cached fitted model instead of training.
    pub models_reused: usize,
    pub rows_path: PathBuf,
    pub summary_path: PathBuf,
    pub markdown_path: PathBuf,
    /// Regressions found by `--check` (empty = gate passed).
    pub regressions: Vec<String>,
}

struct Task {
    method: String,
    dataset_idx: usize,
}

/// Run the testbed: schedule, execute, persist, aggregate, gate.
pub fn run(opts: &EvalbedOptions) -> Result<RunOutcome, String> {
    let mut span = obs::span("evalbed.run");
    let method_list = opts.method_list();
    methods::validate(&method_list)?;
    crate::metrics::validate_filter(&opts.metrics)?;
    if opts.datasets.is_empty() {
        return Err("no datasets selected".into());
    }
    if method_list.is_empty() {
        return Err("no methods selected".into());
    }
    span.add_field("methods", method_list.len());
    span.add_field("datasets", opts.datasets.len());

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let rows_path = opts.out_dir.join("results.jsonl");

    // Datasets are generated up front (cheap, pure, parallel): each task
    // needs its series and labels, and sharing one copy beats regenerating
    // per task.
    let datasets: Vec<UcrDataset> = parallel::with_ambient(opts.threads, || {
        parallel::map_indexed(parallel::ambient(), &opts.datasets, |_, &id| {
            generate_dataset(opts.archive_seed, id)
        })
    });

    // The deterministic task list: method-major, dataset order within.
    let tasks: Vec<Task> = method_list
        .iter()
        .flat_map(|m| {
            (0..datasets.len()).map(move |dataset_idx| Task {
                method: m.clone(),
                dataset_idx,
            })
        })
        .collect();

    // Resume: keep intact rows whose key belongs to this run's task set.
    let (mut completed, skipped_lines) = if opts.resume {
        let loaded = rows::load_rows(&rows_path)?;
        let wanted: std::collections::HashSet<(String, usize)> = tasks
            .iter()
            .map(|t| (t.method.clone(), datasets[t.dataset_idx].id))
            .collect();
        let rows: Vec<ResultRow> = loaded
            .rows
            .into_iter()
            .filter(|r| wanted.contains(&r.key()))
            .collect();
        (rows, loaded.skipped_lines)
    } else {
        // A fresh run starts a fresh file; stale rows must not satisfy
        // resume keys for different parameters.
        match std::fs::remove_file(&rows_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", rows_path.display())),
        }
        (Vec::new(), 0)
    };
    let done: std::collections::HashSet<(String, usize)> =
        completed.iter().map(ResultRow::key).collect();
    let resumed = completed.len();

    let pending: Vec<&Task> = tasks
        .iter()
        .filter(|t| !done.contains(&(t.method.clone(), datasets[t.dataset_idx].id)))
        .collect();

    // Model cache through the serve registry (TriAD only — baselines have
    // no persisted format and retrain in milliseconds at these scales).
    let registry: Option<SharedRegistry> = if opts.no_cache {
        None
    } else {
        let dir = opts
            .models_dir
            .clone()
            .unwrap_or_else(|| opts.out_dir.join("models"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let reg = ModelRegistry::open(&dir, MODEL_CACHE_CAPACITY, Arc::new(Metrics::new()))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        Some(Arc::new(RwLock::new(reg)))
    };

    let method_cfg = MethodConfig {
        smoke: opts.smoke,
        epochs: opts.epochs,
        seed: opts.seed,
    };

    // Execute in fixed batches; append each batch's rows in task order.
    let run_span_id = span.id();
    let mut executed = 0usize;
    let mut models_reused = 0usize;
    for batch in pending.chunks(BATCH) {
        let results: Vec<Result<(ResultRow, bool), String>> =
            parallel::with_ambient(opts.threads, || {
                parallel::map_indexed(parallel::ambient(), batch, |_, task| {
                    run_task(task, &datasets, &method_cfg, registry.as_ref(), run_span_id)
                })
            });
        let mut fresh = Vec::with_capacity(results.len());
        for (task, result) in batch.iter().zip(results) {
            let (row, reused) = result.map_err(|e| {
                format!(
                    "task ({}, {}) failed: {e}",
                    task.method, datasets[task.dataset_idx].id
                )
            })?;
            if reused {
                models_reused += 1;
            }
            fresh.push(row);
        }
        rows::append_rows(&rows_path, &fresh)?;
        executed += fresh.len();
        completed.extend(fresh);
    }

    // Aggregate in canonical task order (resume may have loaded rows in a
    // different file order).
    let meta = RunMeta {
        smoke: opts.smoke,
        archive_seed: opts.archive_seed,
        seed: opts.seed,
        epochs: opts.epochs,
    };
    let summary = Summary::from_rows(
        &completed,
        &method_list,
        &opts.datasets,
        &opts.metrics,
        &meta,
    )?;

    let summary_path = opts.out_dir.join("EVALBED_summary.json");
    let markdown_path = opts.out_dir.join("EVALBED.md");
    std::fs::write(&summary_path, summary.to_json(false) + "\n")
        .map_err(|e| format!("{}: {e}", summary_path.display()))?;
    std::fs::write(&markdown_path, summary.to_markdown())
        .map_err(|e| format!("{}: {e}", markdown_path.display()))?;

    // The regression gate, when a baseline is supplied.
    let regressions = match &opts.check {
        Some(baseline_path) => {
            let text = std::fs::read_to_string(baseline_path)
                .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
            let baseline = Summary::parse(&text)?;
            crate::summary::compare(&summary, &baseline, opts.tolerance)
        }
        None => Vec::new(),
    };

    span.add_field("executed", executed);
    span.add_field("resumed", resumed);
    Ok(RunOutcome {
        summary,
        executed,
        resumed,
        skipped_lines,
        models_reused,
        rows_path,
        summary_path,
        markdown_path,
        regressions,
    })
}

fn run_task(
    task: &Task,
    datasets: &[UcrDataset],
    cfg: &MethodConfig,
    registry: Option<&SharedRegistry>,
    parent: u64,
) -> Result<(ResultRow, bool), String> {
    let ds = &datasets[task.dataset_idx];
    let mut span = obs::span_with_parent("evalbed.task", parent);
    span.add_field("method", &task.method);
    span.add_field("dataset", ds.id);
    let started = obs::now_instant();
    let out = methods::run_method(&task.method, ds, cfg, registry)?;
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    let labels = ds.test_labels();
    let metrics = MetricSet::evaluate(&out.scores, &out.pred, &labels);
    span.add_field("reused_model", out.reused_model);
    Ok((
        ResultRow {
            method: task.method.clone(),
            dataset: ds.id,
            dataset_name: ds.name.clone(),
            anomaly_kind: ds.kind.name().to_string(),
            n_test: ds.test().len(),
            metrics,
            wall_ms,
        },
        out.reused_model,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts(dir: &str) -> EvalbedOptions {
        let out = std::env::temp_dir().join(format!("{dir}_{}", std::process::id()));
        EvalbedOptions {
            datasets: vec![1, 2],
            methods: vec!["random".to_string(), "lstm_ae_random".to_string()],
            epochs: 1,
            ..EvalbedOptions::smoke(out)
        }
    }

    #[test]
    fn tiny_run_produces_complete_summary() {
        let opts = tiny_opts("evalbed_engine_tiny");
        let outcome = run(&opts).expect("run");
        assert_eq!(outcome.executed, 4);
        assert_eq!(outcome.resumed, 0);
        assert_eq!(outcome.summary.methods.len(), 2);
        assert_eq!(outcome.summary.dataset_ids, vec![1, 2]);
        assert!(outcome.summary_path.exists());
        assert!(outcome.markdown_path.exists());
        assert!(outcome.regressions.is_empty());
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }

    #[test]
    fn resume_skips_completed_tasks() {
        let opts = tiny_opts("evalbed_engine_resume");
        let first = run(&opts).expect("first run");
        assert_eq!(first.executed, 4);
        let resumed = run(&EvalbedOptions {
            resume: true,
            ..opts.clone()
        })
        .expect("resumed run");
        assert_eq!(resumed.executed, 0);
        assert_eq!(resumed.resumed, 4);
        // Identical gated summary either way.
        assert_eq!(first.summary.to_json(true), resumed.summary.to_json(true));
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }

    #[test]
    fn check_gate_passes_against_own_output() {
        let opts = tiny_opts("evalbed_engine_gate");
        let first = run(&opts).expect("first run");
        let gated = run(&EvalbedOptions {
            resume: true,
            check: Some(first.summary_path.clone()),
            ..opts.clone()
        })
        .expect("gated run");
        assert!(gated.regressions.is_empty(), "{:?}", gated.regressions);
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
