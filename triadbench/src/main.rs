//! `triadbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path triadbench/Cargo.toml -- \
//!     --workload <archive|paper-window|serve-mixed|fleet-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that reports the per-layer breakdown. Either
//! way the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`, and the process exits
//! non-zero when an output check failed. See `triadbench/NOTES.md`.

mod inputs;
mod measure;
mod offline;
mod probes;
mod serving;
mod trace;

use std::process::ExitCode;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["archive", "paper-window", "serve-mixed", "fleet-churn"];

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            opts.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

/// The commit the checkout was taken from, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// One line recording what the run depended on besides the code.
fn environment(opts: &Opts) -> String {
    // lint-allow(shadowed-threads): the benchmark records the core count
    // next to its results; it never sizes work by it.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // lint-allow(ambient-entropy): recorded with the results only; the
    // program reads the variable itself.
    let env_threads = std::env::var(parallel::THREADS_ENV).unwrap_or_else(|_| "unset".into());
    format!(
        "# env workload={} seed={} seconds={} trace={} nproc={nproc} threads={} TRIAD_THREADS={env_threads} commit={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        parallel::ambient().workers(),
        git_commit()
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("triadbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Untraced runs measure with tracing off whatever TRIAD_TRACE says; the
    // traced run switches it on around its traced passes only.
    obs::set_enabled(false);
    println!("{}", environment(&opts));
    let result = match opts.workload.as_str() {
        "archive" => offline::archive(&opts),
        "paper-window" => offline::paper_window(&opts),
        "serve-mixed" => serving::serve_mixed(&opts),
        _ => serving::fleet_churn(&opts),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("triadbench: {}: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let t = &report.tally;
    println!(
        "# error_rate {:.6} ({} failed of {} attempted)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    for p in &t.problems {
        eprintln!("triadbench: check failed: {p}");
    }
    println!("{}", report.result_line());
    if t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
