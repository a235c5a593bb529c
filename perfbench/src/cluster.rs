//! The `cluster_2pc` workload: a coordinator and two workers as three
//! `chroma-node` processes on loopback, each with its own data dir.
//!
//! The coordinator drives sequential single-object 2PC transactions,
//! every worker a participant: one client, two connections. A run is a
//! series of rounds, each a fresh cluster on fresh ports and fresh dirs
//! that commits [`ROUND_TXNS`] transactions and then has both worker
//! stores checked. Rounds start until the run time is used and at least
//! [`MIN_ROUNDS`] have run; each end-to-end metric is the quartile
//! across rounds of the round's own value on the side of better
//! results ([`fast_quartile`]). A transaction's latency is the time
//! between the coordinator's `begin txn` and `txn … commit` lines on
//! its stdout.
//!
//! `chroma-node` always writes its JSONL trace. A traced run also reads
//! `/proc/<pid>` CPU and I/O counters and analyses the traces, on every
//! other round. Each process's trace clock starts at its own bus
//! creation, so every trace metric is a difference of two events of
//! one process.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chroma_core::ObjectId;
use chroma_obs::{Event, EventKind, MsgKind};
use chroma_store::DiskStore;

use crate::procfs;
use crate::report::{Outcome, Values};
use crate::stats::{fast_quartile, median, Summary};
use crate::timed::nanos;

/// Transactions per round.
pub const ROUND_TXNS: u64 = 100;

/// The object `chroma-node`'s coordinator writes for transaction `i`
/// is `APP_OBJECT_BASE + i`, holding `v{i}-s{seed}`.
const APP_OBJECT_BASE: u64 = 1_000;

/// Longest wait for a process to print `ready`.
const READY_TIMEOUT: Duration = Duration::from_secs(15);

/// Longest a round may take before it is killed and the run fails.
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);

/// Rounds a run makes at least, whatever the run time.
const MIN_ROUNDS: usize = 10;

/// Rounds per run at most, whatever the run time.
const MAX_ROUNDS: usize = 50;

/// Cluster set-ups per run that only time the set-up; `setup_s` is
/// their median. They run first, on an idle disk, so every probe
/// starts alike (a round's own set-up follows the previous round's
/// teardown and is only reported).
const SETUP_PROBES: usize = 15;

/// How long a process may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(5);

/// How often peak memory of the three processes is sampled.
const RSS_EVERY: Duration = Duration::from_millis(50);

/// A child process whose stdout lines arrive, timestamped, on a channel.
struct Proc {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Proc {
    fn spawn(mut cmd: Command, stderr: &Path) -> Result<Proc, String> {
        let err = std::fs::File::create(stderr)
            .map_err(|e| format!("create {}: {e}", stderr.display()))?;
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| format!("spawn chroma-node: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Proc {
            child,
            stdin,
            lines,
            reader: Some(reader),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the `ready` line; returns when it arrived.
    fn ready(&self, name: &str) -> Result<Instant, String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok((at, line)) if line.contains(" ready on ") => return Ok(at),
                Ok(_) => {}
                Err(_) => return Err(format!("{name} never printed ready")),
            }
        }
    }

    /// Closes stdin (a worker's cue to exit) and waits up to `grace`
    /// for the exit before killing.
    fn finish(&mut self, grace: Duration) -> Option<std::process::ExitStatus> {
        self.stdin.take();
        let deadline = Instant::now() + grace;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    self.child.kill().ok();
                    self.child.wait().ok();
                    break None;
                }
            }
        };
        if let Some(reader) = self.reader.take() {
            reader.join().ok();
        }
        status
    }
}

impl Drop for Proc {
    /// No path leaves a process behind to hold a port into the next run.
    fn drop(&mut self) {
        if self.reader.is_some() {
            self.child.kill().ok();
            self.child.wait().ok();
            if let Some(reader) = self.reader.take() {
                reader.join().ok();
            }
        }
    }
}

/// Three loopback ports nobody listens on right now.
fn free_ports() -> Result<[u16; 3], String> {
    let holds = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("bind a free port: {e}"))?;
    let port = |i: usize| holds[i].local_addr().map(|a| a.port());
    let ports = [port(0), port(1), port(2)];
    match ports {
        [Ok(a), Ok(b), Ok(c)] => Ok([a, b, c]),
        _ => Err("cannot read a bound port".into()),
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    /// First `begin txn` line to the `coordinator done` line.
    active: Duration,
    /// Committed txn numbers, in order.
    committed_ids: Vec<u64>,
    aborted: u64,
    /// Latency of each committed txn in ns, in txn order.
    latencies: Vec<u64>,
    /// Sum of the three processes' peak RSS.
    peak_rss_mb: f64,
    /// Filled on traced rounds.
    layers: Option<RoundLayers>,
}

/// Per-layer numbers of one traced round.
#[derive(Default)]
struct RoundLayers {
    coord_cpu_ms: f64,
    worker_cpu_ms: f64,
    worker_wchar: f64,
    worker_prepare_ns: Vec<u64>,
    vote_collection_ns: Vec<u64>,
    resolution_ns: Vec<u64>,
    msgs: u64,
}

/// One cluster's binary, ports and scratch directory; the directory
/// is removed on every exit path.
struct Cluster<'a> {
    bin: &'a Path,
    dir: PathBuf,
    ports: [u16; 3],
}

impl Drop for Cluster<'_> {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

impl<'a> Cluster<'a> {
    /// A fresh directory and fresh ports.
    fn new(bin: &'a Path, dir: &Path) -> Result<Cluster<'a>, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Cluster {
            bin,
            dir: dir.to_path_buf(),
            ports: free_ports()?,
        })
    }

    /// Spawns both workers, then the coordinator with `txns`
    /// transactions to drive; returns once all three have printed
    /// `ready`, with the time that took.
    fn start(&self, txns: u64, seed: u64) -> Result<(Vec<Proc>, Proc, f64), String> {
        let started = Instant::now();
        let mut workers = Vec::with_capacity(2);
        for node in [2, 3] {
            let cmd = self.command("worker", node);
            workers.push(Proc::spawn(cmd, &self.stderr(node))?);
        }
        for (w, node) in workers.iter().zip([2, 3]) {
            w.ready(&format!("worker {node}"))?;
        }
        let mut cmd = self.command("coordinator", 1);
        cmd.args(["--txns", &txns.to_string()])
            .args(["--seed", &seed.to_string()])
            .args(["--linger-ms", "0"]);
        let coord = Proc::spawn(cmd, &self.stderr(1))?;
        let ready_at = coord.ready("coordinator")?;
        Ok((workers, coord, (ready_at - started).as_secs_f64()))
    }

    fn stderr(&self, node: usize) -> PathBuf {
        self.dir.join(format!("n{node}.err"))
    }

    fn addr(&self, node: usize) -> String {
        format!("127.0.0.1:{}", self.ports[node - 1])
    }

    fn data(&self, node: usize) -> PathBuf {
        self.dir.join(format!("n{node}"))
    }

    fn trace(&self, node: usize) -> PathBuf {
        self.dir.join(format!("n{node}.jsonl"))
    }

    fn command(&self, role: &str, node: usize) -> Command {
        let mut cmd = Command::new(self.bin);
        cmd.arg(role)
            .args(["--id", &node.to_string()])
            .args(["--listen", &self.addr(node)]);
        for peer in (1..=3).filter(|&p| p != node) {
            cmd.args(["--peer", &format!("{peer}={}", self.addr(peer))]);
        }
        cmd.arg("--data")
            .arg(self.data(node))
            .arg("--trace")
            .arg(self.trace(node));
        cmd
    }
}

/// Runs one round in `dir`. The returned cluster keeps the round's
/// directory until it is dropped, for the store check.
fn run_round<'a>(
    bin: &'a Path,
    dir: &Path,
    seed: u64,
    traced: bool,
) -> Result<(Round, Vec<String>, Cluster<'a>), String> {
    let cluster = Cluster::new(bin, dir)?;
    let mut round = Round::default();
    let mut problems = Vec::new();
    let (mut workers, mut coord, setup_s) = cluster.start(ROUND_TXNS, seed)?;
    round.setup_s = setup_s;
    let pids = [coord.pid(), workers[0].pid(), workers[1].pid()];
    let cpu0: Vec<f64> = pids
        .iter()
        .map(|&p| procfs::cpu_ms(p).unwrap_or(0.0))
        .collect();
    let wchar0: Vec<u64> = pids
        .iter()
        .map(|&p| procfs::wchar(p).unwrap_or(0))
        .collect();

    // -- the transactions, timed from the coordinator's own report
    let mut begun: HashMap<u64, Instant> = HashMap::new();
    let mut first_begin = None;
    let mut done = None;
    let mut rss = [0.0f64; 3];
    let mut last_rss = Instant::now() - RSS_EVERY;
    let deadline = Instant::now() + ROUND_TIMEOUT;
    loop {
        if last_rss.elapsed() >= RSS_EVERY {
            for (peak, &pid) in rss.iter_mut().zip(&pids) {
                *peak = peak.max(procfs::peak_rss_mb(pid).unwrap_or(0.0));
            }
            last_rss = Instant::now();
        }
        let (at, line) = match coord.lines.recv_timeout(RSS_EVERY) {
            Ok(got) => got,
            Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => continue,
            Err(RecvTimeoutError::Timeout) => {
                return Err(format!("round did not finish within {ROUND_TIMEOUT:?}"))
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["begin", "txn", i, ..] => {
                let i: u64 = i.parse().map_err(|_| format!("bad line {line:?}"))?;
                begun.insert(i, at);
                first_begin.get_or_insert(at);
            }
            ["txn", i, outcome, ..] => {
                let i: u64 = i.parse().map_err(|_| format!("bad line {line:?}"))?;
                let began = begun
                    .get(&i)
                    .ok_or_else(|| format!("txn {i} ended unbegun"))?;
                if *outcome == "commit" {
                    round.committed_ids.push(i);
                    round.latencies.push(nanos(at - *began));
                } else {
                    round.aborted += 1;
                }
            }
            ["coordinator", "done:", tally, ..] => {
                if *tally != format!("{ROUND_TXNS}/{ROUND_TXNS}") {
                    problems.push(format!("coordinator reported {tally} committed"));
                }
                done = Some(at);
            }
            _ => {}
        }
    }
    let Some(done) = done else {
        return Err("coordinator exited without its done line".into());
    };
    round.active = done - first_begin.unwrap_or(done);
    round.peak_rss_mb = rss.iter().sum();

    // -- /proc counters: the coordinator has exited but is not reaped
    // yet, the workers are still up
    if traced {
        let cpu = |i: usize| procfs::cpu_ms(pids[i]).unwrap_or(0.0) - cpu0[i];
        let wchar = |i: usize| {
            procfs::wchar(pids[i])
                .unwrap_or(0)
                .saturating_sub(wchar0[i])
        };
        let txns = round.committed_ids.len().max(1) as f64;
        round.layers = Some(RoundLayers {
            coord_cpu_ms: cpu(0) / txns,
            worker_cpu_ms: (cpu(1) + cpu(2)) / 2.0 / txns,
            worker_wchar: (wchar(1) + wchar(2)) as f64 / 2.0 / txns,
            ..RoundLayers::default()
        });
    }
    match coord.finish(EXIT_GRACE) {
        Some(status) if status.success() => {}
        other => problems.push(format!("coordinator exit: {other:?}")),
    }
    for (w, node) in workers.iter_mut().zip([2, 3]) {
        if !w.finish(EXIT_GRACE).is_some_and(|s| s.success()) {
            problems.push(format!("worker {node} did not exit cleanly"));
        }
    }

    if let Some(layers) = round.layers.as_mut() {
        let events = |node| read_trace(&cluster.trace(node));
        let coord_events = events(1)?;
        let (vote, resolve) = coordinator_phases(&coord_events);
        layers.vote_collection_ns = vote;
        layers.resolution_ns = resolve;
        layers.msgs = count_sends(&coord_events);
        for node in [2, 3] {
            let worker_events = events(node)?;
            layers
                .worker_prepare_ns
                .extend(worker_prepare(&worker_events));
            layers.msgs += count_sends(&worker_events);
        }
    }
    if !problems.is_empty() {
        for node in 1..=3 {
            let err = std::fs::read_to_string(cluster.stderr(node)).unwrap_or_default();
            if !err.trim().is_empty() {
                problems.push(format!("node {node} stderr: {}", err.trim()));
            }
        }
    }
    Ok((round, problems, cluster))
}

/// Checks both worker stores of a finished round, one thread each:
/// reopening replays the log with an fsync per installed record.
fn check_round(cluster: &Cluster<'_>, committed: &[u64], seed: u64) -> Result<Vec<String>, String> {
    let checks: Vec<Result<Vec<String>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [2, 3]
            .map(|node| {
                let data = cluster.data(node);
                scope.spawn(move || check_worker_store(node, &data, committed, seed))
            })
            .into_iter()
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("store check thread panicked"))
            .collect()
    });
    let mut found = Vec::new();
    for check in checks {
        found.extend(check?);
    }
    Ok(found)
}

/// Reopens a worker's store from disk and checks that every committed
/// transaction's value is there; returns the mismatches.
fn check_worker_store(
    node: usize,
    data: &Path,
    committed: &[u64],
    seed: u64,
) -> Result<Vec<String>, String> {
    let store = DiskStore::open(data).map_err(|e| format!("reopen worker {node} store: {e}"))?;
    let mut problems = Vec::new();
    for &i in committed {
        let want = format!("v{i}-s{seed}");
        match store.read(ObjectId::from_raw(APP_OBJECT_BASE + i)) {
            Ok(Some(got)) if got.as_ref() == want.as_bytes() => {}
            Ok(got) => problems.push(format!(
                "worker {node} txn {i}: stored {got:?}, want {want}"
            )),
            Err(e) => problems.push(format!("worker {node} txn {i}: read failed: {e}")),
        }
    }
    Ok(problems)
}

fn read_trace(path: &Path) -> Result<Vec<Event>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Event::from_json_line(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn count_sends(events: &[Event]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MsgSend { .. }))
        .count() as u64
}

/// From the coordinator's own trace, per transaction: vote collection
/// (first `prepare` sent → last vote delivered) and resolution
/// (`tpc_decide` → last `ack` delivered), in ns. Transactions run one
/// at a time, so a `prepare` sent after a decision opens the next.
fn coordinator_phases(events: &[Event]) -> (Vec<u64>, Vec<u64>) {
    #[derive(Default)]
    struct Txn {
        prepare: u64,
        vote: Option<u64>,
        decide: Option<u64>,
        ack: Option<u64>,
    }
    let mut vote_ns = Vec::new();
    let mut resolve_ns = Vec::new();
    let mut close = |t: &Txn| {
        if let Some(v) = t.vote {
            vote_ns.push((v - t.prepare) * 1_000);
        }
        if let (Some(d), Some(a)) = (t.decide, t.ack) {
            resolve_ns.push((a - d) * 1_000);
        }
    };
    let mut cur: Option<Txn> = None;
    for e in events {
        match e.kind {
            EventKind::MsgSend {
                kind: MsgKind::Prepare,
                ..
            } if cur.as_ref().is_none_or(|t| t.decide.is_some()) => {
                if let Some(t) = cur.take() {
                    close(&t);
                }
                cur = Some(Txn {
                    prepare: e.at_us,
                    ..Txn::default()
                });
            }
            EventKind::MsgDeliver {
                kind: MsgKind::VoteYes | MsgKind::VoteNo,
                ..
            } => {
                if let Some(t) = cur.as_mut().filter(|t| t.decide.is_none()) {
                    t.vote = Some(e.at_us);
                }
            }
            EventKind::TpcDecide { .. } => {
                if let Some(t) = cur.as_mut() {
                    t.decide = Some(e.at_us);
                }
            }
            EventKind::MsgDeliver {
                kind: MsgKind::Ack, ..
            } => {
                if let Some(t) = cur.as_mut().filter(|t| t.decide.is_some()) {
                    t.ack = Some(e.at_us);
                }
            }
            _ => {}
        }
    }
    if let Some(t) = cur {
        close(&t);
    }
    (vote_ns, resolve_ns)
}

/// From a worker's own trace: `prepare` delivered → vote sent, in ns.
/// The span covers the vote's durability barrier.
fn worker_prepare(events: &[Event]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut pending = None;
    for e in events {
        match e.kind {
            EventKind::MsgDeliver {
                kind: MsgKind::Prepare,
                ..
            } => pending = Some(e.at_us),
            EventKind::MsgSend {
                kind: MsgKind::VoteYes | MsgKind::VoteNo,
                ..
            } => {
                if let Some(p) = pending.take() {
                    out.push((e.at_us - p) * 1_000);
                }
            }
            _ => {}
        }
    }
    out
}

/// p50 of the last tenth of a round's transactions over p50 of its
/// first tenth.
fn history_growth(latencies: &[u64]) -> Option<f64> {
    let tenth = latencies.len() / 10;
    if tenth == 0 {
        return None;
    }
    let first = Summary::of(latencies[..tenth].to_vec())?.p50_us;
    let last = Summary::of(latencies[latencies.len() - tenth..].to_vec())?.p50_us;
    Some(last / first)
}

/// Times the set-up of a cluster that runs no transactions.
fn probe_setup(bin: &Path, dir: &Path, seed: u64) -> Result<f64, String> {
    let cluster = Cluster::new(bin, dir)?;
    let (mut workers, mut coord, setup_s) = cluster.start(0, seed)?;
    coord.finish(EXIT_GRACE);
    for w in &mut workers {
        w.finish(EXIT_GRACE);
    }
    Ok(setup_s)
}

/// Runs `cluster_2pc` with `bin` as the `chroma-node` executable.
///
/// # Errors
///
/// A process that cannot be started, never gets ready or hangs.
pub fn run(
    bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let setups = (0..SETUP_PROBES)
        .map(|k| probe_setup(bin, &work.join(format!("probe-{k}")), seed))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut problems = Vec::new();
    let started = Instant::now();
    let mut committed = 0;
    let mut check_s = 0.0;
    while rounds.len() < MAX_ROUNDS
        && (rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds)
    {
        let k = rounds.len();
        let tracing = traced && k % 2 == 1;
        let (round, round_problems, cluster) =
            run_round(bin, &work.join(format!("round-{k}")), seed, tracing)?;
        let checked = Instant::now();
        let found = check_round(&cluster, &round.committed_ids, seed)?;
        check_s += checked.elapsed().as_secs_f64();
        drop(cluster);
        crate::settle_disk(work);
        committed += round.committed_ids.len() as u64;
        problems.extend(
            round_problems
                .into_iter()
                .chain(found)
                .map(|p| format!("round {k}: {p}")),
        );
        rounds.push((tracing, round));
    }
    let elapsed = started.elapsed().as_secs_f64();

    let aborted: u64 = rounds.iter().map(|(_, r)| r.aborted).sum();
    // Rounds are the windows: an end-to-end metric is the fast
    // quartile across rounds of the round's own value, the tracing
    // overhead a ratio of medians across rounds.
    let round_median = |pick: &dyn Fn(&(bool, Round)) -> bool,
                        stat: &dyn Fn(&Round) -> Option<f64>| {
        median(
            &rounds
                .iter()
                .filter(|r| pick(r))
                .filter_map(|(_, r)| stat(r))
                .collect::<Vec<_>>(),
        )
    };
    let round_quartile = |higher_is_better: bool, stat: &dyn Fn(&Round) -> Option<f64>| {
        fast_quartile(
            &rounds
                .iter()
                .filter_map(|(_, r)| stat(r))
                .collect::<Vec<_>>(),
            higher_is_better,
        )
    };
    let throughput =
        |r: &Round| Some(r.committed_ids.len() as f64 / r.active.as_secs_f64().max(1e-9));
    let summary = |r: &Round| Summary::of(r.latencies.clone());
    let mut values = Values::new();
    let mut notes = vec![format!(
        "{} rounds of {ROUND_TXNS} txns in {elapsed:.1}s, {check_s:.1}s of it store checks; \
         set-ups {} (probes), {} (rounds)",
        rounds.len(),
        setups
            .iter()
            .map(|s| format!("{s:.3}s"))
            .collect::<Vec<_>>()
            .join(" "),
        rounds
            .iter()
            .map(|(_, r)| format!("{:.3}s", r.setup_s))
            .collect::<Vec<_>>()
            .join(" "),
    )];
    if traced {
        let layers: Vec<&RoundLayers> = rounds
            .iter()
            .filter_map(|(_, r)| r.layers.as_ref())
            .collect();
        let mean = |f: &dyn Fn(&RoundLayers) -> f64| {
            layers.iter().map(|l| f(l)).sum::<f64>() / layers.len().max(1) as f64
        };
        let p50 = |f: &dyn Fn(&RoundLayers) -> &Vec<u64>| {
            Summary::pair(Summary::of(
                layers.iter().flat_map(|l| f(l).iter().copied()).collect(),
            ))
            .0
        };
        let traced_txns: usize = rounds
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, r)| r.committed_ids.len())
            .sum();
        values.put("node.coord_cpu_ms_per_txn", mean(&|l| l.coord_cpu_ms));
        values.put("node.worker_cpu_ms_per_txn", mean(&|l| l.worker_cpu_ms));
        values.put("node.worker_wchar_bytes_per_txn", mean(&|l| l.worker_wchar));
        values.put("node.worker_prepare_us_p50", p50(&|l| &l.worker_prepare_ns));
        values.put(
            "tpc.vote_collection_us_p50",
            p50(&|l| &l.vote_collection_ns),
        );
        values.put("tpc.resolution_us_p50", p50(&|l| &l.resolution_ns));
        values.put(
            "tpc.msgs_per_txn",
            layers.iter().map(|l| l.msgs).sum::<u64>() as f64 / traced_txns.max(1) as f64,
        );
        let growth: Vec<f64> = rounds
            .iter()
            .filter(|(t, _)| *t)
            .filter_map(|(_, r)| history_growth(&r.latencies))
            .collect();
        values.put("tpc.history_growth", median(&growth));
        values.put(
            "bench.trace_overhead",
            round_median(&|(t, _)| !t, &throughput)
                / round_median(&|(t, _)| *t, &throughput).max(1e-9),
        );
        // The tracing adds no work inside a round, so all rounds count.
        let all: Vec<u64> = rounds
            .iter()
            .flat_map(|(_, r)| r.latencies.iter().copied())
            .collect();
        values.put("bench.write_p99_us", Summary::pair(Summary::of(all)).1);
        values.put(
            "bench.error_rate",
            aborted as f64 / (committed + aborted).max(1) as f64,
        );
    } else {
        let p50 = round_quartile(false, &|r| summary(r).map(|s| s.p50_us));
        values.put("setup_s", median(&setups));
        values.put("ops_per_s", round_quartile(true, &throughput));
        values.put("p50_us", p50);
        values.put("write_p50_us", p50);
        values.put(
            "peak_rss_mb",
            rounds
                .iter()
                .map(|(_, r)| r.peak_rss_mb)
                .fold(0.0, f64::max),
        );
        for (_, r) in &rounds {
            if let (Some(t), Some(s)) = (throughput(r), summary(r)) {
                notes.push(format!("round: {t:.1} txn/s, {}", s.describe()));
            }
        }
        let all: Vec<u64> = rounds
            .iter()
            .flat_map(|(_, r)| r.latencies.iter().copied())
            .collect();
        if let Some(s) = Summary::of(all) {
            notes.push(format!("all txns: {}", s.describe()));
        }
        let growth: Vec<f64> = rounds
            .iter()
            .filter_map(|(_, r)| history_growth(&r.latencies))
            .collect();
        notes.push(format!(
            "history growth (last/first tenth p50): {:.2}",
            median(&growth)
        ));
    }
    Ok(Outcome {
        attempted: committed + aborted,
        failed: aborted,
        problems,
        values,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chroma_core::NodeId;

    fn ev(at_us: u64, kind: EventKind) -> Event {
        Event::at(at_us, kind)
    }

    fn send(at: u64, kind: MsgKind) -> Event {
        ev(
            at,
            EventKind::MsgSend {
                from: NodeId::from_raw(1),
                to: NodeId::from_raw(2),
                kind,
            },
        )
    }

    fn deliver(at: u64, kind: MsgKind) -> Event {
        ev(
            at,
            EventKind::MsgDeliver {
                from: NodeId::from_raw(2),
                to: NodeId::from_raw(1),
                kind,
            },
        )
    }

    fn decide(at: u64, txn: u64) -> Event {
        ev(
            at,
            EventKind::TpcDecide {
                node: NodeId::from_raw(1),
                txn,
                commit: true,
                participants: 2,
            },
        )
    }

    #[test]
    fn coordinator_phases_split_by_transaction() {
        let trace = [
            send(100, MsgKind::Prepare),
            send(110, MsgKind::Prepare),
            deliver(150, MsgKind::VoteYes),
            deliver(170, MsgKind::VoteYes),
            decide(180, 1),
            send(190, MsgKind::Decision),
            send(195, MsgKind::Decision),
            deliver(220, MsgKind::Ack),
            deliver(230, MsgKind::Ack),
            send(300, MsgKind::Prepare),
            send(305, MsgKind::Prepare),
            deliver(340, MsgKind::VoteYes),
            deliver(350, MsgKind::VoteYes),
            decide(360, 2),
            deliver(400, MsgKind::Ack),
        ];
        let (vote, resolve) = coordinator_phases(&trace);
        assert_eq!(vote, vec![70_000, 50_000]);
        assert_eq!(resolve, vec![50_000, 40_000]);
        assert_eq!(count_sends(&trace), 6);
    }

    #[test]
    fn worker_prepare_spans_deliver_to_vote() {
        let trace = [
            deliver(10, MsgKind::Prepare),
            send(25, MsgKind::VoteYes),
            deliver(40, MsgKind::Decision),
            send(45, MsgKind::Ack),
            deliver(60, MsgKind::Prepare),
            send(64, MsgKind::VoteNo),
        ];
        assert_eq!(worker_prepare(&trace), vec![15_000, 4_000]);
    }

    #[test]
    fn growth_compares_first_and_last_tenth() {
        let lat: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        // first tenth 1..=10 (p50 5), last tenth 91..=100 (p50 95)
        assert_eq!(history_growth(&lat), Some(19.0));
        assert_eq!(history_growth(&lat[..9]), None);
    }
}
