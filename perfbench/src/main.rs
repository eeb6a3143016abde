//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <mcp-n64|batch-n32> --seed N \
//!           --seconds S --trace <0|1>
//! perfbench --print-expected
//! ```
//!
//! Every run generates its inputs from `--seed`, measures for `--seconds`,
//! validates every result outside the timed region, re-checks the
//! recorded step counts in `expected.json`, and prints as its last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones. A wrong result or a step-count drift exits 1 (after
//! printing); a usage error exits 2. See README.md.

mod check;
mod kernel;
mod service;

use ppa_obs::Json;
use ppa_perfbench::inputs::{self, Workload};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Attempts that failed, were rejected, or returned a wrong result.
    pub failed: u64,
    /// Correctness problems (wrong results, step drift), one line each.
    pub problems: Vec<String>,
    /// Metrics by name: value and unit.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Sample counts and other context for the provenance line.
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// Records a context note.
    pub fn note(&mut self, name: &str, value: impl Into<Json>) {
        self.notes.push((name.to_owned(), value.into()));
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or_else(check::default_seed),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host and build facts stamped on every result.
fn provenance(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // Look for repository metadata in the working directory only.
    let git = if std::path::Path::new(".git").exists() {
        command_line(
            "git",
            &[
                "--git-dir=.git",
                "--work-tree=.",
                "describe",
                "--always",
                "--dirty",
            ],
        )
    } else {
        "none (not a git checkout)".to_owned()
    };
    let digest = inputs::digest(&inputs::input_bytes(args.workload, args.seed, 4096));
    Json::obj(vec![
        ("workload", args.workload.name().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("nproc", nproc.into()),
        ("rustc", command_line("rustc", &["-V"]).into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("git_describe", git.into()),
        ("input_digest", format!("{digest:016x}").into()),
    ])
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--print-expected") {
        return match check::print_expected() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = provenance(&args);
    let run = match (args.workload, args.trace) {
        (w, false) => kernel::run_closed(w, args.seed, args.seconds),
        (Workload::Mcp64, true) => kernel::trace_mcp(args.seed, args.seconds),
        (Workload::Batch32, true) => service::trace_batch(args.seed, args.seconds),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        kernel::fill_layer_defaults(&mut out);
    }
    let notes = Json::Object(
        out.notes
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
    );
    println!(
        "{}",
        Json::obj(vec![("provenance", prov), ("notes", notes)]).to_string_compact()
    );
    for p in &out.problems {
        eprintln!("perfbench: INCORRECT: {p}");
    }
    println!("{}", result_line(&out));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
