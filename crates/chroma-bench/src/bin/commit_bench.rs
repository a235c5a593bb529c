//! Commit-throughput benchmark for the group-committed intentions log.
//!
//! Drives the full `Runtime` → `DiskBackend` → `DiskStore` commit path
//! with 1/2/4/8 concurrent committer threads, each running top-level
//! atomic actions against its own object, and reports per thread-count:
//!
//! * `commits_per_sec` — committed top-level actions per second;
//! * `fsyncs_per_commit` — log fsyncs amortized over commits (a lone
//!   committer pays exactly 1.0: its intents and commit marker reach
//!   the log in one write and one fsync; group commit shares that
//!   fsync across a whole group);
//! * `mean_group_size` / `max_group_size` — from the
//!   `store.group_size` histogram.
//!
//! A final recovery-replay probe commits a long history through small
//! segments with periodic checkpoints, reopens the store, and gates on
//! recovery replaying no more than the manifest's live suffix — never
//! the total history.
//!
//! Results are written as JSON to `BENCH_commit.json` (override with
//! `--out <path>`). `--smoke` shrinks the workload for CI. Exits
//! non-zero if the 1-thread run pays anything but exactly 1.0 log
//! fsyncs per commit, if the 8-thread run fails to amortize fsyncs
//! below 1.0 per commit, or if the replay bound is breached, so CI
//! catches a regression in any of them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use chroma_bench::report::{Obj, Report};
use chroma_core::{DiskBackend, Runtime, RuntimeConfig};
use chroma_obs::{EventBus, Obs, Observable};
use chroma_store::{DiskStore, DiskStoreOptions, StoreBytes};

/// Committer-thread counts benchmarked, in order.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The fsyncs-per-commit ceiling the most-contended run must beat.
const FSYNC_BUDGET_AT_8: f64 = 1.0;

struct RunResult {
    threads: usize,
    commits: u64,
    elapsed: Duration,
    fsyncs: u64,
    mean_group_size: f64,
    max_group_size: f64,
}

impl RunResult {
    fn commits_per_sec(&self) -> f64 {
        self.commits as f64 / self.elapsed.as_secs_f64()
    }

    fn fsyncs_per_commit(&self) -> f64 {
        self.fsyncs as f64 / self.commits as f64
    }
}

fn bench_dir(threads: usize) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "chroma-commit-bench-{}-{}-{}",
        std::process::id(),
        threads,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One benchmark run: `threads` committers, `iters` commits each.
fn run(threads: usize, iters: u64) -> RunResult {
    let dir = bench_dir(threads);
    std::fs::remove_dir_all(&dir).ok();
    let backend = Arc::new(DiskBackend::open(&dir).expect("open disk backend"));
    let rt = Arc::new(
        Runtime::builder()
            .config(RuntimeConfig {
                lock_timeout: Some(Duration::from_secs(10)),
            })
            .backend(backend.clone())
            .build(),
    );
    let bus = Arc::new(EventBus::new());
    rt.install_obs(Obs::new(bus.clone()));

    // Distinct objects: the benchmark measures the commit path, not
    // lock contention.
    let objects: Vec<_> = (0..threads)
        .map(|_| rt.create_object(&0u64).expect("create object"))
        .collect();
    let fsyncs_before = backend.store().log_fsync_count();

    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = objects
        .into_iter()
        .map(|object| {
            let rt = Arc::clone(&rt);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..iters {
                    rt.atomic(|a| a.modify(object, |v: &mut u64| *v += 1))
                        .expect("commit");
                }
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    for h in handles {
        h.join().expect("committer thread");
    }
    let elapsed = started.elapsed();

    let fsyncs = backend.store().log_fsync_count() - fsyncs_before;
    let group = bus
        .snapshot()
        .histogram("store.group_size")
        .expect("group_size histogram populated");
    std::fs::remove_dir_all(&dir).ok();
    RunResult {
        threads,
        commits: threads as u64 * iters,
        elapsed,
        fsyncs,
        mean_group_size: group.mean_us,
        max_group_size: group.max_us,
    }
}

struct ReplayProbe {
    total_batches: u64,
    live_suffix_batches: u64,
    replayed_batches: u64,
    replayed_records: u64,
}

/// Commits `total` single-object batches through a store sealing 4 KiB
/// segments, checkpointing every 128 commits, then reopens it and
/// measures how many batches recovery actually replayed. With bounded
/// recovery that is at most the live suffix (the commits since the
/// last checkpoint); a regression to full-history replay shows up as
/// `replayed == total`.
fn replay_probe(total: u64) -> ReplayProbe {
    let dir = bench_dir(0);
    std::fs::remove_dir_all(&dir).ok();
    let opts = DiskStoreOptions {
        segment_bytes: 4096,
        auto_checkpoint: false,
    };
    let live_suffix_batches = {
        let store = DiskStore::open_with(&dir, opts).expect("open probe store");
        for i in 0..total {
            store
                .commit_batch(vec![(
                    chroma_base::ObjectId::from_raw(i % 64 + 1),
                    StoreBytes::from(vec![(i % 251) as u8; 32]),
                )])
                .expect("probe commit");
            if i % 128 == 127 {
                store.checkpoint_now().expect("probe checkpoint");
            }
        }
        store.checkpoint_backlog()
    };
    let store = DiskStore::open_with(&dir, opts).expect("reopen probe store");
    let stats = store.replay_stats();
    std::fs::remove_dir_all(&dir).ok();
    ReplayProbe {
        total_batches: total,
        live_suffix_batches,
        replayed_batches: stats.batches,
        replayed_records: stats.records,
    }
}

fn render_report(results: &[RunResult], probe: &ReplayProbe) -> Report {
    results
        .iter()
        .fold(Report::new("commit_throughput"), |report, r| {
            report.run(
                Obj::new()
                    .field("threads", r.threads)
                    .field("commits", r.commits)
                    .field("elapsed_ms", r.elapsed.as_secs_f64() * 1000.0)
                    .field("commits_per_sec", r.commits_per_sec())
                    .field("fsyncs", r.fsyncs)
                    .field("fsyncs_per_commit", r.fsyncs_per_commit())
                    .field("mean_group_size", r.mean_group_size)
                    .field("max_group_size", r.max_group_size),
            )
        })
        .run(
            Obj::new()
                .field("probe", "recovery_replay")
                .field("total_batches", probe.total_batches)
                .field("live_suffix_batches", probe.live_suffix_batches)
                .field("replayed_batches", probe.replayed_batches)
                .field("replayed_records", probe.replayed_records),
        )
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_commit.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: commit_bench [--smoke] [--out <path>]");
                std::process::exit(2);
            }
        }
    }
    let iters: u64 = if smoke { 200 } else { 2000 };

    let results: Vec<RunResult> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let r = run(threads, iters);
            println!(
                "threads={:2}  commits={:6}  {:9.1} commits/s  {:.4} fsyncs/commit  \
                 mean group {:.2} (max {:.0})",
                r.threads,
                r.commits,
                r.commits_per_sec(),
                r.fsyncs_per_commit(),
                r.mean_group_size,
                r.max_group_size,
            );
            r
        })
        .collect();

    let probe = replay_probe(if smoke { 300 } else { 1500 });
    println!(
        "recovery replay: {} of {} batches (live suffix {}) — {} records",
        probe.replayed_batches,
        probe.total_batches,
        probe.live_suffix_batches,
        probe.replayed_records,
    );

    render_report(&results, &probe)
        .write(&out_path)
        .expect("write results");
    println!("wrote {out_path}");

    let at_1 = results
        .iter()
        .find(|r| r.threads == 1)
        .expect("1-thread run present");
    // A lone committer never shares a group: every commit is one
    // write and one fsync.
    if at_1.fsyncs != at_1.commits {
        eprintln!(
            "FAIL: {:.4} fsyncs/commit at 1 thread (expected exactly 1.0) — \
             a lone commit must pay one log fsync",
            at_1.fsyncs_per_commit()
        );
        std::process::exit(1);
    }
    let at_8 = results
        .iter()
        .find(|r| r.threads == 8)
        .expect("8-thread run present");
    if at_8.fsyncs_per_commit() >= FSYNC_BUDGET_AT_8 {
        eprintln!(
            "FAIL: {:.4} fsyncs/commit at 8 threads (budget < {FSYNC_BUDGET_AT_8}) — \
             group commit is not amortizing",
            at_8.fsyncs_per_commit()
        );
        std::process::exit(1);
    }
    if probe.replayed_batches > probe.live_suffix_batches
        || probe.live_suffix_batches >= probe.total_batches
    {
        eprintln!(
            "FAIL: recovery replayed {} batches against a live suffix of {} (total history {}) — \
             replay work is not bounded by the checkpoint watermark",
            probe.replayed_batches, probe.live_suffix_batches, probe.total_batches
        );
        std::process::exit(1);
    }
}
