//! Measurement plumbing shared by every workload: the wall clock, order
//! statistics, output checksums, failure accounting, peak memory and the
//! result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Seconds elapsed since `t0` on the shared trace clock.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Run `f` and return its value with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = obs::now_instant();
    let v = f();
    (v, secs_since(t0))
}

/// Set up `n` times and keep the last result, with the median CPU seconds
/// (all threads) of one set-up. CPU time, not wall time: steal from
/// neighbouring guests is not charged to the process. Each earlier result
/// goes to `retire` first: a server is shut down before the next one
/// starts.
pub fn repeated_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut retire: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        if let Some(previous) = last.take() {
            retire(previous);
        }
        let cpu0 = cpu_seconds();
        let v = setup();
        times.push(cpu_seconds() - cpu0);
        last = Some(v?);
    }
    let v = last.ok_or("set-up never ran")?;
    Ok((v, median(&times)))
}

/// Linear-interpolated quantile (`q` in 0..=1) of `xs`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (v.get(lo).copied(), v.get(hi).copied());
    match (a, b) {
        (Some(a), Some(b)) => a + (b - a) * (pos - lo as f64),
        _ => 0.0,
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// FNV-1a 64 over bytes: the output fingerprint compared across repeats
/// and thread counts. Never compared against a committed value.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, all threads (including threads
/// that have exited), user plus system, in seconds, at nanosecond
/// resolution: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
pub fn cpu_seconds() -> f64 {
    // `struct timespec` as 64-bit Linux lays it out.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the C library only writes into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    } else {
        0.0
    }
}

/// Attempted/failed operation tally plus the messages of failed checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one operation that failed.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Count one output check.
    pub fn check(&mut self, pass: bool, what: impl FnOnce() -> String) {
        if pass {
            self.ok();
        } else {
            self.fail(what());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// CPU and wall time of a timed phase, and the input points it finished.
pub struct Phase {
    cpu0: f64,
    t0: Instant,
}

impl Phase {
    pub fn start() -> Phase {
        Phase {
            cpu0: cpu_seconds(),
            t0: obs::now_instant(),
        }
    }

    /// `(cpu seconds, wall seconds)` since [`Phase::start`].
    pub fn stop(&self) -> (f64, f64) {
        (cpu_seconds() - self.cpu0, secs_since(self.t0))
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// The metrics of the result line, in catalog order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end metrics every workload reports, in catalog order,
    /// plus the phase's wall-clock figures as notes. `latencies_ms` are the
    /// workload's client-side operation times.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        (cpu_s, wall_s): (f64, f64),
        points: usize,
        latencies_ms: &[f64],
    ) {
        self.metric("setup_s", setup_s, "s");
        self.metric("cpu_us_per_point", cpu_s * 1e6 / points.max(1) as f64, "us");
        self.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        self.note(format!(
            "latency_ms         p50 {:.3} p90 {:.3} (n = {})",
            median(latencies_ms),
            quantile(latencies_ms, 0.9),
            latencies_ms.len()
        ));
        self.note(format!(
            "points_per_s       {:.2} ({points} points, {wall_s:.2} s wall, {cpu_s:.2} s cpu)",
            points as f64 / wall_s.max(1e-9)
        ));
    }

    /// The single JSON result line.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let correct = self.tally.failed == 0;
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
