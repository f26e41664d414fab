//! Same-host benchmark for the Copernicus characterizer.
//!
//! ```text
//! perfbench --workload paper_grid|codec_sweep|serve_spool --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in this process (plus, for
//! `serve_spool`, one `copernicus-bench serve` daemon), checks its outputs,
//! and prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` is the separate traced
//! run that prints the per-layer metrics and writes its spans to
//! `.bench_run/`. See `README.md` for the workloads and the layer map.

mod grid;
mod host;
mod layers;
mod replay;
mod serve;
mod spans;
mod stats;

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Named metrics with units, in output order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub(crate) fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Map(vec![
                            ("value".into(), Value::Float(*value)),
                            ("unit".into(), Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; the run is correct when this stays empty.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Free-form run details printed before the result line.
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_string(), value));
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where run artifacts (spools, checkpoints, span files) go.
    pub run_dir: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload paper_grid|codec_sweep|serve_spool --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        run_dir: PathBuf::from(".bench_run"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("cannot create {}: {e}", args.run_dir.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "paper_grid" | "codec_sweep" => grid::run(&args),
        "serve_spool" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for p in &outcome.problems {
        eprintln!("perfbench {}: CHECK FAILED: {p}", args.workload);
    }
    let mut details = vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("provenance".to_string(), provenance()),
        (
            "problems".to_string(),
            Value::Seq(outcome.problems.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    details.extend(outcome.details);
    println!("{}", serde::json::to_string(&Value::Map(details)));
    let correct = outcome.problems.is_empty();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(outcome.attempted.max(1))),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), outcome.metrics.to_value()),
    ]);
    println!("{}", serde::json::to_string(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Build and host fingerprint recorded with every result.
pub(crate) fn provenance() -> Value {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = run("git", &["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| run("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let opt = |v: Option<String>| v.map_or(Value::Null, Value::Str);
    Value::Map(vec![
        ("git_rev".into(), opt(rev)),
        ("git_dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
        (
            "source_fnv".into(),
            Value::Str(format!("{:016x}", source_digest(Path::new(".")))),
        ),
        (
            "nproc".into(),
            Value::UInt(copernicus::default_jobs() as u64),
        ),
        ("cpu_model".into(), Value::Str(cpu)),
        ("rustc".into(), opt(run("rustc", &["--version"]))),
        (
            "profile".into(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}

/// Digest over the characterizer's sources (`Cargo.*`, `crates/`,
/// `third_party/`), so a result names the code it measured even in a
/// checkout without git metadata.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("third_party"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        if let Ok(content) = std::fs::read(&f) {
            bytes.extend_from_slice(f.to_string_lossy().as_bytes());
            bytes.extend_from_slice(&content);
        }
    }
    stats::fnv64(&bytes)
}

/// Committed output digests: `workload seed digest` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// The committed digest for `(workload, seed)`, if one was recorded.
fn expected_digest(workload: &str, seed: u64) -> Option<String> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| f.next().map(str::to_string))
            .flatten()
    })
}

/// Checks `digest` against the committed one for this run, recording the
/// digest in the run details either way.
pub fn check_digest(outcome: &mut Outcome, args: &Args, digest: u64) {
    let got = format!("{digest:016x}");
    outcome.detail("digest", Value::Str(got.clone()));
    if let Some(want) = expected_digest(&args.workload, args.seed) {
        outcome.check(want == got, || {
            format!(
                "output digest {got} != committed {want} for seed {}",
                args.seed
            )
        });
    }
}
