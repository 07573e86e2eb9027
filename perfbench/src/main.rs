//! Socket load generator for the kvmatch server: runs one named workload
//! against an in-process `kvmatch_server::Server` on loopback, checks
//! every answer, and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <analyst_mix|monitor_fanout|ingest_query>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! budget (see README.md). The process exits 1 when any answer was wrong
//! or any request failed, and 3 when the load generator fell behind its
//! schedule, so the run's figures are invalid.

mod analyst;
mod common;
mod ingest;
mod layers;
mod monitor;

use std::fmt::Write as _;

/// Data sizes: `Full` is the benchmark, `Smoke` a seconds-long check of
/// the same code paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One named metric value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metric list builder.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Gated end-to-end metrics, present on every workload.
    pub e2e: Metrics,
    /// Every end-to-end figure of the workload, gated or not, with sample
    /// counts and validity flags.
    pub report: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    pub notes: Vec<String>,
    /// Why the run's figures cannot be trusted (the load generator fell
    /// behind); the process then exits non-zero.
    pub invalid: Option<String>,
}

impl Outcome {
    /// Folds a tally's request counts and failures into the outcome.
    pub fn absorb(&mut self, t: common::Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.notes.extend(t.errors);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, scale: Scale::Full };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad.clone())? == 1,
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("unknown scale {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let fingerprint = fingerprint();
    let outcome = match args.workload.as_str() {
        "analyst_mix" => analyst::run(args.seed, args.seconds, args.trace, args.scale),
        "monitor_fanout" => monitor::run(args.seed, args.seconds, args.trace, args.scale),
        "ingest_query" => ingest::run(args.seed, args.seconds, args.trace, args.scale),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut report = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"machine\":{}",
        args.workload, args.seed, args.seconds, args.trace as u8, fingerprint
    );
    let _ = write!(
        report,
        ",\"failed_frac\":{}",
        common::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    let mut figures = Metrics::default();
    for m in outcome.report.0.iter().chain(&outcome.e2e.0) {
        figures.put(m.name, m.value, m.unit);
    }
    let _ = write!(report, ",\"figures\":{}}}", metrics_json(&figures));
    println!("{report}");
    let shown = if args.trace { &outcome.layers } else { &outcome.e2e };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(shown)
    );
    if !correct {
        std::process::exit(1);
    }
    if let Some(why) = outcome.invalid {
        eprintln!("perfbench: run invalid: {why}");
        std::process::exit(3);
    }
}

fn metrics_json(m: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, metric) in m.0.iter().enumerate() {
        let value = if metric.value.is_finite() { metric.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    out.push('}');
    out
}

/// `nproc`, CPU model, compiler, commit and load average, as a JSON
/// object.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "0".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"loadavg_1m\":{load}}}",
        escape(&cpu),
        escape(&rustc),
        escape(&git_commit())
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, nothing outside the checkout).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
