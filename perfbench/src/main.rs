//! `perfbench` — the repository's benchmark: one harness for the three ways
//! the GLADIATOR reproduction is used, measured the same way.
//!
//! * `sweep-live`: a researcher's live Monte-Carlo sweep (`BatchEngine`).
//! * `replay-closed`: closed-loop cross-policy replay of an on-disk corpus.
//! * `serve-batch` / `route-batch`: two clients sending per-item
//!   `batch-eval` requests to a monolithic daemon, or through the router over
//!   a 2-replica shard.
//!
//! `--trace 0` runs the workload untraced for `--seconds` and reports the
//! end-to-end metrics ([`workloads`]). `--trace 1` runs one fixed-size traced
//! pass over every layer of the chain and reports the per-layer metrics
//! ([`layers`]). Every run checks its outputs; mismatches count as failed
//! operations. See `perfbench/README.md` for the metric map.

mod layers;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Version of the provenance line and the metric set; bump when either
/// changes shape or meaning.
const SCHEMA_VERSION: u32 = 1;

/// The benchmark's workloads, one per user path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepLive,
    ReplayClosed,
    ServeBatch,
    RouteBatch,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::SweepLive, Workload::ReplayClosed, Workload::ServeBatch, Workload::RouteBatch];

    fn label(self) -> &'static str {
        match self {
            Workload::SweepLive => "sweep-live",
            Workload::ReplayClosed => "replay-closed",
            Workload::ServeBatch => "serve-batch",
            Workload::RouteBatch => "route-batch",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.label() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} is outside (0, 120]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Attempted and failed operations. Every timed op and every correctness
/// check is attempted; an error response or a mismatch fails it.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// What a run reports: the tally, the metrics of the final JSON line, and
/// human-readable summary lines printed before it.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }
}

/// A per-run scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("current dir: {e}"))?
            .join(".bench_work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using the parent.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Linear-interpolation percentile (`q` in `[0, 1]`) of ascending samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = q * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string());
    let profile =
        if cfg!(debug_assertions) { "debug" } else { "release (lto=thin, codegen-units=1)" };
    format!(
        "{{\"schema_version\": {SCHEMA_VERSION}, \"provenance\": {{\"git_describe\": {}, \
         \"nproc\": {nproc}, \"worker_threads\": {}, \"build_profile\": {}, \"rustc\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_string(&qec_experiments::sweep::git_describe()),
        rayon::current_num_threads(),
        json_string(profile),
        json_string(&rustc),
        json_string(args.workload.label()),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
    )
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::label).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = WorkDir::create().and_then(|work| {
        println!("{}", provenance_line(&args));
        if args.trace {
            layers::run(&args, &work)
        } else {
            workloads::run(&args, &work)
        }
    });
    let report = match outcome {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite ({})", bad.name, bad.value);
        return ExitCode::FAILURE;
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}
