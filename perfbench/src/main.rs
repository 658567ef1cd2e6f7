//! `perfbench` — the repository's offline benchmark.
//!
//! ```text
//! perfbench --workload <batch-wide|serve-hot|ingest-follow> --seed N --seconds S --trace 0|1
//!           [--trajectory FILE]
//! perfbench compare BASE.jsonl NEW.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! A run generates its inputs from `--seed`, sets up `SETUP_REPS` times,
//! measures for `--seconds`, checks every answer, prints a human report
//! and, as its last line, one JSON object with the contract metrics:
//! end-to-end ones untraced (`--trace 0`), per-layer ones traced
//! (`--trace 1`). Each run also appends a versioned record to the
//! trajectory file (`.bench_results/trajectory.jsonl` by default), which
//! `compare` reads back. `perfbench/predictions.json` records why each
//! workload exists and what each layer metric is expected to move.
//!
//! `perfbench ppm <args>` runs the `ppm` command line; the served
//! workloads start their daemon that way, so it is the same code users
//! run as `ppm serve`.

mod batch;
mod daemon;
mod record;
mod report;
mod served;
mod stats;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ppm_observe::Json;

use crate::record::Record;
use crate::report::{Outcome, E2E, LAYERS};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 3] = ["batch-wide", "serve-hot", "ingest-follow"];

/// One run's parameters.
#[derive(Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// The generator seed derived from `seed`.
    pub data_seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for the run's files, removed afterwards.
    pub dir: PathBuf,
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("ppm") => {
            let mut stdout = std::io::stdout().lock();
            match ppm_cli::run(&argv[1..], &mut stdout) {
                Ok(()) => ExitCode::SUCCESS,
                Err(err) => {
                    eprintln!("ppm: {err}");
                    ExitCode::from(err.exit_code() as u8)
                }
            }
        }
        Some("compare") => match compare(&argv[1..]) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        },
        _ => match bench(&argv) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        },
    }
}

fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn required<T: std::str::FromStr>(argv: &[String], name: &str) -> Result<T, String> {
    flag(argv, name)
        .ok_or_else(|| format!("missing {name}"))?
        .parse()
        .map_err(|_| format!("bad value for {name}"))
}

fn compare(argv: &[String]) -> Result<String, String> {
    let files: Vec<&String> = argv
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || argv[i - 1] != "--bench"))
        .map(|(_, a)| a)
        .collect();
    let [base, new] = files[..] else {
        return Err(
            "usage: perfbench compare BASE.jsonl NEW.jsonl [--bench BENCHMARK.json]".into(),
        );
    };
    let bench = flag(argv, "--bench").unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(bench).map_err(|e| format!("read {bench}: {e}"))?;
    let specs = record::metric_specs(&text)?;
    Ok(record::compare(
        &record::read(Path::new(base))?,
        &record::read(Path::new(new))?,
        &specs,
    ))
}

fn bench(argv: &[String]) -> Result<(), String> {
    let workload: String = required(argv, "--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed: u64 = required(argv, "--seed")?;
    let seconds: u64 = required(argv, "--seconds")?;
    let trace = match flag(argv, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let trajectory =
        PathBuf::from(flag(argv, "--trajectory").unwrap_or(".bench_results/trajectory.jsonl"));
    let dir =
        PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let run = Run {
        workload,
        seed,
        data_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x00c0_ffee,
        seconds,
        trace,
        dir,
    };
    let mut out = Outcome::default();
    let result = match run.workload.as_str() {
        "batch-wide" => batch::run(&run, &mut out),
        "serve-hot" => served::run_hot(&run, &mut out),
        _ => served::run_ingest(&run, &mut out),
    };
    std::fs::remove_dir_all(&run.dir).ok();
    // Only succeeds once no other run is using it.
    std::fs::remove_dir(".bench_work").ok();
    result?;
    finish(&run, out, &trajectory)
}

/// Prints the report and the contract line, and appends the record.
fn finish(run: &Run, out: Outcome, trajectory: &Path) -> Result<(), String> {
    let catalogue = if run.trace { LAYERS } else { E2E };
    let mut metrics = record::Figures::new();
    for (name, unit) in catalogue {
        let value = match out.values.get(name) {
            Some(v) => *v,
            // Layers a workload does not exercise report 0; an end-to-end
            // metric is always measured.
            None if run.trace => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number ({value})"));
        }
        metrics.insert((*name).to_owned(), (value, (*unit).to_owned()));
    }
    let info: record::Figures = out
        .info
        .iter()
        .map(|(n, v, u)| (n.clone(), (*v, u.clone())))
        .collect();
    let correct = out.failed == 0;

    let mut stdout = std::io::stdout().lock();
    let mut say = |s: &str| writeln!(stdout, "{s}").map_err(|e| e.to_string());
    for line in &out.lines {
        say(line)?;
    }
    for why in &out.failures {
        say(&format!("FAILED: {why}"))?;
    }
    say(&format!(
        "failed_frac {:.6} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ))?;
    for (name, (v, u)) in &info {
        say(&format!("  {name:<28} {v:>14.4} {u}"))?;
    }
    for (name, (v, u)) in &metrics {
        say(&format!("* {name:<28} {v:>14.4} {u}"))?;
    }

    let record = Record {
        commit: std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        tree: source_tree_hash(),
        workload: run.workload.clone(),
        seed: run.seed,
        trace: run.trace,
        seconds: run.seconds,
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        correct,
        attempted: out.attempted,
        failed: out.failed,
        metrics,
        info,
    };
    record::append(trajectory, &record)
        .map_err(|e| format!("append to {}: {e}", trajectory.display()))?;

    let line = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::from_u64(out.attempted.max(1))),
        ("failed".to_owned(), Json::from_u64(out.failed)),
        ("metrics".to_owned(), record::figures_json(&record.metrics)),
    ]);
    say(&line.render())
}

/// FNV-1a over the benchmarked sources (path and bytes, path-sorted), so
/// trajectory records of the same code group together without git.
fn source_tree_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src", "src"] {
        walk(Path::new(root), &mut files);
    }
    files.push(PathBuf::from("Cargo.toml"));
    files.push(PathBuf::from("perfbench/Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
