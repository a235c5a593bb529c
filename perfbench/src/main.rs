//! `perfbench` — one run of one benchmark workload.
//!
//! ```text
//! perfbench --workload <kv_read|cluster_2pc> --seed <n> \
//!     --seconds <n> --trace <0|1> [--node-bin <chroma-node>] \
//!     [--work-dir <dir>]
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. An untraced run (`--trace 0`) reports the end-to-end
//! metrics, a traced one (`--trace 1`) the per-layer metrics (see
//! `report.rs`). A traced local run also writes its op and commit
//! spans to `.perfbench_spans/<workload>.jsonl` beside the work dir,
//! kept after the run and replaced by the next traced run. Exits 1 when a correctness check fails, 2 on bad
//! arguments. `perfbench/run.py` builds this binary and `chroma-node`
//! from source and runs it; see `perfbench/NOTES.md`.

#![forbid(unsafe_code)]

mod cluster;
mod local;
mod procfs;
mod report;
mod stats;
mod timed;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    node_bin: Option<PathBuf>,
    work_dir: PathBuf,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut traced = None;
        let mut node_bin = None;
        let mut work_dir = PathBuf::from(".perfbench_runs");
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {value} is outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    traced = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value}, want 0 or 1")),
                    });
                }
                "--node-bin" => node_bin = Some(PathBuf::from(value)),
                "--work-dir" => work_dir = PathBuf::from(value),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            traced: traced.ok_or("missing --trace")?,
            node_bin,
            work_dir,
        })
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <kv_read|cluster_2pc> --seed <n> \
                 --seconds <n> --trace <0|1> [--node-bin <path>] [--work-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    // A fresh directory per run, removed afterwards whatever happens.
    let work = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(&args.work_dir).ok();
    settle_disk(&args.work_dir);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "perfbench: {} seed {} for {}s, {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for problem in &outcome.problems {
        eprintln!("  INCORRECT: {problem}");
    }
    let line = match report::result_line(&outcome, args.traced) {
        Ok(line) => line,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    println!("{line}");
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Commits the file system's journal, deletions included, so the disk
/// work this run left behind is paid for by this run and not by the
/// measured window of the next one. An fsync of any directory forces
/// the commit.
pub(crate) fn settle_disk(work_dir: &std::path::Path) {
    let dir = if work_dir.exists() {
        work_dir
    } else {
        work_dir
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(std::path::Path::new("."))
    };
    if let Ok(d) = std::fs::File::open(dir) {
        d.sync_all().ok();
    }
}

fn run(args: &Args, work: &std::path::Path) -> Result<report::Outcome, String> {
    if args.workload == "cluster_2pc" {
        let bin = args
            .node_bin
            .as_deref()
            .ok_or("cluster_2pc needs --node-bin <chroma-node>")?;
        return cluster::run(bin, args.seed, args.seconds, args.traced, work);
    }
    let mix =
        local::mix(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let spans_dir = args.work_dir.with_file_name(".perfbench_spans");
    local::run(
        mix,
        args.seed,
        args.seconds,
        args.traced,
        work,
        &spans_dir.join(format!("{}.jsonl", args.workload)),
    )
}
