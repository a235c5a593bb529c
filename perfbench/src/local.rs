//! The in-process workload, `kv_read`: closed-loop clients drive
//! `Runtime` → chroma-locks → chroma-store `DiskBackend`,
//! with the watchdog and flight recorder always on.
//!
//! Every object is an 8-byte counter. Ops come from
//! `chroma_load::MixWorkload`, one seeded stream per client, and run
//! with the same shapes as `chroma_load::KvExecutor`. A client retries
//! an op its action lost as a deadlock victim, the way a caller of
//! `Runtime::atomic_retry` would; the retries are counted.
//!
//! A run first warms up for [`WARMUP`], untimed, so the checkpointer
//! and the version layer are running before anything is measured. An
//! untraced run then measures one slice. A traced run alternates four
//! slices, untraced and traced: the traced ones record op and commit
//! spans and sample the store's and version layer's gauges, and the
//! untraced ones give the tracing overhead. A traced run writes its
//! spans out when it ends.
//!
//! Latency samples are summarised one [`WINDOW`] at a time, as soon as
//! every client has finished the window, so the harness holds the
//! samples of about two windows at once and the process's peak RSS is
//! the stack's, not a function of how many ops the run completed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use chroma_core::{ActionError, DiskBackend, ObjectId, PermanenceBackend, Runtime, RuntimeStats};
use chroma_load::{ActionClass, MixConfig, MixWorkload, Op, OpKind, Workload};
use chroma_obs::{EventBus, FlightRecorder, Watchdog};
use chroma_structures::{independent_sync, GluedChain, SerializingAction};

use crate::report::{Outcome, Values};
use crate::stats::{fast_quartile, median, Summary};
use crate::timed::{nanos, thread_commits, CommitSpan, TimedBackend};

/// Times the store is set up per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Ops run before the measured slices, whose latencies are dropped.
const WARMUP: Duration = Duration::from_secs(2);

/// Attempts per op before it counts as failed (deadlock victims only).
const MAX_ATTEMPTS: u32 = 16;

/// How often a traced slice samples the store and version gauges.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// The unit an untraced run's end-to-end metrics are taken over: each
/// is the quartile across the run's windows of the window's own value
/// on the side of better results ([`fast_quartile`]), so a disturbance
/// of the host moves at most the windows it falls in.
const WINDOW: Duration = Duration::from_secs(1);

/// How often terminated actions are pruned from the action tree, as a
/// long-running host would; the tree otherwise keeps one entry per
/// action ever run.
const PRUNE_EVERY: Duration = Duration::from_millis(100);

/// Closed-loop clients of the local workload.
const CLIENTS: usize = 2;

/// The key space, skew and op mix of a local workload, by name.
#[must_use]
pub fn mix(workload: &str) -> Option<MixConfig> {
    match workload {
        "kv_read" => Some(MixConfig {
            keys: 4096,
            theta: 0.8,
            reads: 0.95,
            writes: 0.05,
            structures: 0.0,
            serializing: 0.4,
            glued: 0.2,
            independent: 0.2,
            snapshot: 0.2,
        }),
        _ => None,
    }
}

/// Every `Op::label`, indexed by [`label_index`].
pub const LABELS: [&str; 12] = [
    "serializing_read",
    "serializing_write",
    "serializing_structure",
    "glued_read",
    "glued_write",
    "glued_structure",
    "independent_read",
    "independent_write",
    "independent_structure",
    "snapshot_read",
    "snapshot_write",
    "snapshot_structure",
];

fn label_index(op: &Op) -> usize {
    let class = match op.class {
        ActionClass::Serializing => 0,
        ActionClass::Glued => 1,
        ActionClass::Independent => 2,
        ActionClass::Snapshot => 3,
    };
    let kind = match op.kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
        OpKind::Structure => 2,
    };
    class * 3 + kind
}

/// Whether ops of a label modify state: every locked non-read op.
/// Snapshot ops of any kind only read.
fn label_writes(label: usize) -> bool {
    label < 9 && !label.is_multiple_of(3)
}

/// Whether ops of a label are single-key increments.
fn label_single_key_write(label: usize) -> bool {
    label == 1 || label == 7
}

/// A latency sample: label index in the top byte, nanoseconds below.
fn pack(label: usize, ns: u64) -> u64 {
    ((label as u64) << 56) | ns.min((1 << 56) - 1)
}

fn unpack(sample: u64) -> (usize, u64) {
    ((sample >> 56) as usize, sample & ((1 << 56) - 1))
}

/// One op as the benchmark saw it, in a traced slice.
#[derive(Clone, Copy)]
struct OpSpan {
    start_ns: u64,
    dur_ns: u64,
    /// Time inside child `commit_batch` spans on the op's thread.
    commit_ns: u64,
    label: u8,
}

/// The stack under test, with its monitors.
struct Stack {
    disk: Arc<DiskBackend>,
    timed: Arc<TimedBackend<DiskBackend>>,
    bus: Arc<EventBus>,
    watchdog: Arc<Watchdog>,
    _recorder: Arc<FlightRecorder>,
    rt: Runtime,
    objects: Vec<ObjectId>,
    /// Acknowledged single-key increments per key.
    acked: Vec<AtomicU64>,
}

impl Stack {
    /// Opens a fresh store in `dir` and creates the key table: the
    /// work `setup_s` times. Untraced runs put the plain `DiskBackend`
    /// under the runtime; traced runs put the timing wrapper there.
    fn build(dir: &Path, keys: u64, traced: bool, epoch: Instant) -> Result<Stack, String> {
        let disk = Arc::new(
            DiskBackend::open(dir).map_err(|e| format!("open store {}: {e}", dir.display()))?,
        );
        let timed = Arc::new(TimedBackend::new(Arc::clone(&disk), epoch));
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 65_536);
        recorder.set_auto_dump(Some(dir.with_extension("flight.jsonl")));
        let watchdog = Watchdog::attach(&bus);
        watchdog.on_violation(|event| {
            eprintln!("perfbench: WATCHDOG {}", event.to_json_line());
        });
        let backend: Arc<dyn PermanenceBackend> = if traced { timed.clone() } else { disk.clone() };
        let rt = Runtime::builder().backend(backend).obs(bus.clone()).build();
        let objects = (0..keys)
            .map(|_| rt.create_object(&0u64))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("create key table: {e}"))?;
        let acked = (0..keys).map(|_| AtomicU64::new(0)).collect();
        Ok(Stack {
            disk,
            timed,
            bus,
            watchdog,
            _recorder: recorder,
            rt,
            objects,
            acked,
        })
    }

    /// The two objects of an op, lock-order normalised (low index
    /// first), so the workload itself never orders locks into a cycle.
    fn pair(&self, op: &Op) -> (ObjectId, ObjectId) {
        let (lo, hi) = if op.key <= op.aux {
            (op.key, op.aux)
        } else {
            (op.aux, op.key)
        };
        (self.objects[lo as usize], self.objects[hi as usize])
    }

    /// One attempt at an op, shaped as `chroma_load::KvExecutor` runs it.
    fn attempt(&self, op: &Op) -> Result<(), ActionError> {
        let rt = &self.rt;
        let key = self.objects[op.key as usize];
        let (lo, hi) = self.pair(op);
        let bump = |v: &mut u64| *v = v.wrapping_add(1);
        match (op.class, op.kind) {
            (ActionClass::Serializing, OpKind::Read) => rt.atomic(|a| a.read::<u64>(key)).map(drop),
            (ActionClass::Serializing, OpKind::Write) => rt.atomic(|a| a.modify(key, bump)),
            (ActionClass::Serializing, OpKind::Structure) => {
                let sa = SerializingAction::begin(rt)?;
                sa.step(|s| s.modify(lo, bump))?;
                sa.step(|s| {
                    let v: u64 = s.read(lo)?;
                    s.modify(hi, |w: &mut u64| *w = w.wrapping_add(v & 1))
                })?;
                sa.end()
            }
            (ActionClass::Glued, OpKind::Read) => {
                let chain = GluedChain::begin(rt, 1)?;
                chain.step(|s| s.read::<u64>(lo).map(drop))?;
                chain.step(|s| s.read::<u64>(hi).map(drop))?;
                chain.end()
            }
            (ActionClass::Glued, OpKind::Write | OpKind::Structure) => {
                let chain = GluedChain::begin(rt, 1)?;
                chain.step(|s| {
                    s.modify(lo, bump)?;
                    s.hand_over(lo)
                })?;
                chain.step(|s| {
                    let v: u64 = s.read(lo)?;
                    s.modify(hi, |w: &mut u64| *w = w.wrapping_add(v & 1))
                })?;
                chain.end()
            }
            (ActionClass::Independent, OpKind::Read) => {
                rt.atomic(|a| independent_sync(a, |b| b.read::<u64>(key).map(drop)))
            }
            (ActionClass::Independent, OpKind::Write) => {
                rt.atomic(|a| independent_sync(a, |b| b.modify(key, bump)))
            }
            (ActionClass::Independent, OpKind::Structure) => rt.atomic(|a| {
                independent_sync(a, |b| b.modify(lo, bump))?;
                independent_sync(a, |b| b.modify(hi, bump))
            }),
            (ActionClass::Snapshot, OpKind::Read) => {
                rt.begin_read_only().read::<u64>(key).map(drop)
            }
            (ActionClass::Snapshot, OpKind::Write) => {
                let snap = rt.begin_read_only();
                snap.read::<u64>(lo)?;
                snap.read::<u64>(hi).map(drop)
            }
            (ActionClass::Snapshot, OpKind::Structure) => {
                let snap = rt.begin_read_only();
                for i in 0..8u64 {
                    let idx = (op.key + i) % self.objects.len() as u64;
                    snap.read::<u64>(self.objects[idx as usize])?;
                }
                Ok(())
            }
        }
    }

    /// Runs an op to completion, retrying deadlock victims with the
    /// backoff of `Runtime::atomic_retry`. Returns success and the
    /// retries spent.
    fn run_op(&self, op: &Op) -> (bool, u32) {
        for attempt in 0..MAX_ATTEMPTS {
            match self.attempt(op) {
                Ok(()) => return (true, attempt),
                Err(e) if e.is_deadlock_victim() => {
                    std::thread::sleep(Duration::from_micros(50 << attempt.min(8)));
                }
                Err(e) => {
                    eprintln!("perfbench: op {} ({}) failed: {e}", op.seq, op.label());
                    return (false, attempt);
                }
            }
        }
        eprintln!(
            "perfbench: op {} ({}) lost {MAX_ATTEMPTS} deadlocks",
            op.seq,
            op.label()
        );
        (false, MAX_ATTEMPTS - 1)
    }

    fn counters(&self) -> Counters {
        Counters {
            stats: self.rt.stats(),
            waits: self.rt.lock_wait_stats().waits,
            wait_us: self.rt.lock_wait_stats().total_wait_micros,
            shard_waits: self
                .rt
                .lock_shard_wait_stats()
                .iter()
                .map(|s| s.waits)
                .collect(),
            fsyncs: self.disk.store().log_fsync_count(),
            dir_fsyncs: self.disk.store().dir_fsync_count(),
            events: self.bus.snapshot().counters.iter().map(|(_, n)| n).sum(),
        }
    }
}

/// Cumulative counters read from the layers' public getters.
#[derive(Default)]
struct Counters {
    stats: RuntimeStats,
    waits: u64,
    wait_us: u64,
    shard_waits: Vec<u64>,
    fsyncs: u64,
    dir_fsyncs: u64,
    events: u64,
}

impl Counters {
    /// Adds `after - before` into `self`.
    fn add_delta(&mut self, before: &Counters, after: &Counters) {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        self.stats.begun += d(after.stats.begun, before.stats.begun);
        self.stats.committed += d(after.stats.committed, before.stats.committed);
        self.stats.aborted += d(after.stats.aborted, before.stats.aborted);
        self.stats.deadlock_victims +=
            d(after.stats.deadlock_victims, before.stats.deadlock_victims);
        self.waits += d(after.waits, before.waits);
        self.wait_us += d(after.wait_us, before.wait_us);
        self.shard_waits.resize(after.shard_waits.len(), 0);
        for (i, (a, b)) in after
            .shard_waits
            .iter()
            .zip(&before.shard_waits)
            .enumerate()
        {
            self.shard_waits[i] += d(*a, *b);
        }
        self.fsyncs += d(after.fsyncs, before.fsyncs);
        self.dir_fsyncs += d(after.dir_fsyncs, before.dir_fsyncs);
        self.events += d(after.events, before.events);
    }
}

/// Gauge samples taken during traced slices.
#[derive(Default)]
struct Gauges {
    samples: u64,
    queue_depth_sum: u64,
    ckpt_backlog_max: u64,
    versions_max: u64,
    gc_backlog_max: u64,
}

/// One [`WINDOW`]'s successful ops, summarised.
#[derive(Clone, Copy)]
struct Window {
    ops: usize,
    all: Option<Summary>,
    reads: Option<Summary>,
    writes: Option<Summary>,
}

impl Window {
    /// Summarises packed `(label, ns)` samples.
    fn of(samples: &[u64]) -> Window {
        Window {
            ops: samples.len(),
            all: summarize(samples.iter(), |_| true),
            reads: summarize(samples.iter(), |l| !label_writes(l)),
            writes: summarize(samples.iter(), label_writes),
        }
    }
}

/// A window's samples as the clients hand them in.
#[derive(Default)]
struct PendingWindow {
    handed_in: usize,
    samples: Vec<u64>,
    summary: Option<Window>,
}

/// What one slice measured.
#[derive(Default)]
struct Slice {
    wall: Duration,
    attempted: u64,
    failed: u64,
    retries: u64,
    /// The windows that lie wholly inside the slice, leaving out ops
    /// still in flight when it ended.
    windows: Vec<Window>,
    spans: Vec<OpSpan>,
}

impl Slice {
    fn merge(&mut self, other: Slice) {
        self.wall += other.wall;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.windows.extend(other.windows);
        self.spans.extend(other.spans);
    }

    fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Median across windows of a per-window statistic.
    fn window_median(&self, stat: impl Fn(&Window) -> Option<f64>) -> f64 {
        let per_window: Vec<f64> = self.windows.iter().filter_map(stat).collect();
        median(&per_window)
    }

    /// [`fast_quartile`] across windows of a per-window statistic.
    fn window_quartile(
        &self,
        higher_is_better: bool,
        stat: impl Fn(&Window) -> Option<f64>,
    ) -> f64 {
        let per_window: Vec<f64> = self.windows.iter().filter_map(stat).collect();
        fast_quartile(&per_window, higher_is_better)
    }
}

/// Latencies of the packed samples whose label passes `keep`.
fn summarize<'a>(
    samples: impl Iterator<Item = &'a u64>,
    keep: impl Fn(usize) -> bool,
) -> Option<Summary> {
    Summary::of(
        samples
            .map(|&s| unpack(s))
            .filter(|&(l, _)| keep(l))
            .map(|(_, ns)| ns)
            .collect(),
    )
}

/// Runs the closed loop for `length`: every client takes its next op
/// only when the previous one has finished.
fn run_slice(
    stack: &Stack,
    streams: &mut [MixWorkload],
    length: Duration,
    traced: bool,
    epoch: Instant,
    gauges: &mut Gauges,
) -> Slice {
    stack.timed.set_recording(traced);
    let barrier = Barrier::new(streams.len() + 1);
    let stop = AtomicBool::new(false);
    // Each client hands in every window it finishes, empty or not, and
    // its last one when the slice ends.
    let (tx, rx) = mpsc::channel::<(usize, Vec<u64>)>();
    let (slice, sampled) = std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                let barrier = &barrier;
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut out = Slice::default();
                    let mut window = 0;
                    let mut samples = Vec::new();
                    barrier.wait();
                    let begin = Instant::now();
                    let end = begin + length;
                    while Instant::now() < end {
                        let op = stream.next_op();
                        let label = label_index(&op);
                        let (commit_ns0, _) = thread_commits();
                        let started = Instant::now();
                        let (ok, retries) = stack.run_op(&op);
                        let dur_ns = nanos(started.elapsed());
                        out.attempted += 1;
                        out.retries += u64::from(retries);
                        if !ok {
                            out.failed += 1;
                            continue;
                        }
                        if label_single_key_write(label) {
                            stack.acked[op.key as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        let now = usize::try_from(begin.elapsed().as_nanos() / WINDOW.as_nanos())
                            .expect("a run lasts far fewer windows than usize holds");
                        while window < now {
                            tx.send((window, std::mem::take(&mut samples))).ok();
                            window += 1;
                        }
                        samples.push(pack(label, dur_ns));
                        if traced {
                            out.spans.push(OpSpan {
                                start_ns: nanos(started.duration_since(epoch)),
                                dur_ns,
                                commit_ns: thread_commits().0 - commit_ns0,
                                label: label as u8,
                            });
                        }
                    }
                    tx.send((window, samples)).ok();
                    (out, Instant::now())
                })
            })
            .collect();
        drop(tx);
        let sampler = traced.then(|| {
            let stop = &stop;
            scope.spawn(move || {
                let mut g = Gauges::default();
                while !stop.load(Ordering::Relaxed) {
                    g.samples += 1;
                    g.queue_depth_sum += stack.timed.queue_depth();
                    g.ckpt_backlog_max = g.ckpt_backlog_max.max(stack.timed.checkpoint_backlog());
                    g.versions_max = g.versions_max.max(stack.rt.version_count());
                    g.gc_backlog_max = g.gc_backlog_max.max(stack.rt.gc_backlog());
                    std::thread::sleep(SAMPLE_EVERY);
                }
                g
            })
        });
        barrier.wait();
        let started = Instant::now();
        let mut pending: Vec<PendingWindow> = Vec::new();
        for (window, samples) in rx {
            if pending.len() <= window {
                pending.resize_with(window + 1, PendingWindow::default);
            }
            let p = &mut pending[window];
            p.handed_in += 1;
            p.samples.extend(samples);
            if p.handed_in == CLIENTS {
                p.summary = Some(Window::of(&p.samples));
                p.samples = Vec::new();
            }
        }
        // A slice shorter than one window is one window.
        let full = usize::try_from(length.as_nanos() / WINDOW.as_nanos())
            .unwrap_or(usize::MAX)
            .max(1);
        let mut slice = Slice {
            windows: pending
                .into_iter()
                .take(full)
                .map(|p| p.summary.unwrap_or_else(|| Window::of(&p.samples)))
                .collect(),
            ..Slice::default()
        };
        let mut last = started;
        for client in clients {
            let (out, finished) = client.join().expect("client thread panicked");
            last = last.max(finished);
            slice.merge(out);
        }
        slice.wall = last - started;
        stop.store(true, Ordering::Relaxed);
        let sampled = sampler.map(|s| s.join().expect("sampler thread panicked"));
        (slice, sampled)
    });
    stack.timed.set_recording(false);
    if let Some(g) = sampled {
        gauges.samples += g.samples;
        gauges.queue_depth_sum += g.queue_depth_sum;
        gauges.ckpt_backlog_max = gauges.ckpt_backlog_max.max(g.ckpt_backlog_max);
        gauges.versions_max = gauges.versions_max.max(g.versions_max);
        gauges.gc_backlog_max = gauges.gc_backlog_max.max(g.gc_backlog_max);
    }
    slice
}

/// The seed of client `i`'s op stream.
fn client_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs a local workload in `work` (created fresh, removed after). A
/// traced run writes its spans to `spans_out`.
///
/// # Errors
///
/// Set-up failures; correctness failures are reported in the outcome.
pub fn run(
    mix: MixConfig,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    spans_out: &Path,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut stack = None;
    let mut store_dir = PathBuf::new();
    for i in 0..SETUPS {
        // Earlier stacks are dropped and their stores removed before
        // the next set-up, so every set-up starts alike.
        if let Some(old) = stack.take() {
            drop(old);
            std::fs::remove_dir_all(&store_dir).ok();
        }
        store_dir = work.join(format!("store-{i}"));
        let started = Instant::now();
        stack = Some(Stack::build(&store_dir, mix.keys, traced, epoch)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let stack = stack.expect("at least one set-up");
    // The set-ups' journal work is paid before the measurement starts.
    crate::settle_disk(work);
    let mut streams: Vec<MixWorkload> = (0..CLIENTS)
        .map(|i| MixWorkload::new(mix, client_seed(seed, i)))
        .collect();

    let total = Duration::from_secs_f64(seconds);
    let plan: Vec<(Duration, bool)> = if traced {
        [false, true, false, true]
            .into_iter()
            .map(|t| (total / 4, t))
            .collect()
    } else {
        vec![(total, false)]
    };
    let mut warmup = Slice::default();
    let mut untraced = Slice::default();
    let mut traced_slice = Slice::default();
    let mut layer = Counters::default();
    let mut gauges = Gauges::default();
    let pruner_stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !pruner_stop.load(Ordering::Relaxed) {
                std::thread::sleep(PRUNE_EVERY);
                stack.rt.prune_terminated();
            }
        });
        warmup = run_slice(&stack, &mut streams, WARMUP, false, epoch, &mut gauges);
        for &(length, tracing) in &plan {
            let before = stack.counters();
            let slice = run_slice(&stack, &mut streams, length, tracing, epoch, &mut gauges);
            if tracing {
                layer.add_delta(&before, &stack.counters());
                traced_slice.merge(slice);
            } else {
                untraced.merge(slice);
            }
        }
        pruner_stop.store(true, Ordering::Relaxed);
    });
    let peak_rss_mb = crate::procfs::peak_rss_mb(std::process::id())
        .ok_or("cannot read this process's peak RSS")?;
    let commit_spans = stack.timed.take_spans();

    // -- correctness: monitors clean, counters cover acknowledged
    // increments, and the store reopened from disk agrees with what the
    // runtime served before shutdown.
    let mut problems = Vec::new();
    if stack.watchdog.violations() > 0 {
        problems.push(format!(
            "watchdog: {} violation(s)",
            stack.watchdog.violations()
        ));
    }
    let mut served = Vec::with_capacity(stack.objects.len());
    for (i, &o) in stack.objects.iter().enumerate() {
        match stack.rt.read_committed::<u64>(o) {
            Ok(v) => {
                let acked = stack.acked[i].load(Ordering::Relaxed);
                if v < acked {
                    problems.push(format!(
                        "key {i}: counter {v} < {acked} acknowledged increments"
                    ));
                }
                served.push(v);
            }
            Err(e) => {
                problems.push(format!("key {i}: read before shutdown failed: {e}"));
                served.push(0);
            }
        }
    }
    let objects = stack.objects.clone();
    drop(stack);
    let (recovery_s, replay) = reopen_and_check(&store_dir, &objects, &served, &mut problems)?;

    if traced {
        write_spans(spans_out, &traced_slice.spans, &commit_spans)
            .map_err(|e| format!("write spans {}: {e}", spans_out.display()))?;
    }

    let mut values = Values::new();
    let mut notes = vec![format!(
        "setups: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}s"))
            .collect::<Vec<_>>()
            .join(" ")
    )];
    let attempted = warmup.attempted + untraced.attempted + traced_slice.attempted;
    let failed = warmup.failed + untraced.failed + traced_slice.failed;
    if traced {
        let ops = traced_slice.attempted.max(1) as f64;
        layer_values(
            &mut values,
            &traced_slice,
            &layer,
            &gauges,
            &commit_spans,
            ops,
        );
        values.put("store.recovery_s", recovery_s);
        values.put("store.replayed_batches", replay.batches as f64);
        values.put("store.installed_objects", replay.objects as f64);
        values.put(
            "bench.read_p50_us",
            untraced.window_median(|w| w.reads.map(|s| s.p50_us)),
        );
        values.put(
            "bench.read_p99_us",
            untraced.window_median(|w| w.reads.map(|s| s.tail_us)),
        );
        values.put(
            "bench.write_p99_us",
            untraced.window_median(|w| w.writes.map(|s| s.tail_us)),
        );
        values.put("bench.error_rate", failed as f64 / attempted.max(1) as f64);
        values.put(
            "bench.trace_overhead",
            untraced.ops_per_s() / traced_slice.ops_per_s().max(1e-9),
        );
    } else {
        values.put("setup_s", median(&setup_s));
        values.put(
            "ops_per_s",
            untraced.window_quartile(true, |w| Some(w.ops as f64 / WINDOW.as_secs_f64())),
        );
        values.put(
            "p50_us",
            untraced.window_quartile(false, |w| w.all.map(|s| s.p50_us)),
        );
        values.put(
            "write_p50_us",
            untraced.window_quartile(false, |w| w.writes.map(|s| s.p50_us)),
        );
        values.put("peak_rss_mb", peak_rss_mb);
        notes.push(format!(
            "per-window ops/s: {}",
            untraced
                .windows
                .iter()
                .map(|w| w.ops.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        ));
        let windows = &untraced.windows;
        notes.extend(window_note("all ops", windows.iter().filter_map(|w| w.all)));
        notes.extend(window_note("reads", windows.iter().filter_map(|w| w.reads)));
        notes.extend(window_note(
            "writes",
            windows.iter().filter_map(|w| w.writes),
        ));
    }
    notes.push(format!(
        "ops: {attempted} attempted ({} in warm-up), {failed} failed, {} deadlock retries",
        warmup.attempted,
        warmup.retries + untraced.retries + traced_slice.retries
    ));
    Ok(Outcome {
        attempted,
        failed,
        problems,
        values,
        notes,
    })
}

/// One report line of per-window summaries: the median across
/// windows of the sample count, the median and the tail; `None` when
/// no window has samples.
fn window_note(name: &str, per_window: impl Iterator<Item = Summary>) -> Option<String> {
    let per_window: Vec<Summary> = per_window.collect();
    let tail_pct = per_window.iter().map(|s| s.tail_pct).reduce(f64::min)?;
    let med = |f: fn(&Summary) -> f64| median(&per_window.iter().map(f).collect::<Vec<_>>());
    Some(format!(
        "{name}, median over {} windows: n={} p50={:.1}us p{tail_pct}={:.1}us",
        per_window.len(),
        med(|s| s.n as f64),
        med(|s| s.p50_us),
        med(|s| s.tail_us),
    ))
}

/// Reopens the store from disk through the timing wrapper and checks
/// every counter against what the runtime served before shutdown, and
/// that fresh objects are allocated after the stored ones.
fn reopen_and_check(
    dir: &Path,
    objects: &[ObjectId],
    served: &[u64],
    problems: &mut Vec<String>,
) -> Result<(f64, chroma_store::ReplayStats), String> {
    let started = Instant::now();
    let disk = Arc::new(DiskBackend::open(dir).map_err(|e| format!("reopen store: {e}"))?);
    let recovery_s = started.elapsed().as_secs_f64();
    let replay = disk.store().replay_stats();
    let rt = Runtime::builder()
        .backend(Arc::new(TimedBackend::new(disk, Instant::now())))
        .build();
    for (i, (&o, &want)) in objects.iter().zip(served).enumerate() {
        match rt.read_committed::<u64>(o) {
            Ok(got) if got == want => {}
            Ok(got) => problems.push(format!("key {i}: {got} on disk, {want} served")),
            Err(e) => problems.push(format!("key {i}: read after reopen failed: {e}")),
        }
    }
    let top = objects.iter().map(|o| o.as_raw()).max().unwrap_or(0);
    match rt.create_object(&0u64) {
        Ok(fresh) if fresh.as_raw() > top => {}
        Ok(fresh) => problems.push(format!("reopened runtime reused object id {fresh}")),
        Err(e) => problems.push(format!("create after reopen failed: {e}")),
    }
    Ok((recovery_s, replay))
}

/// Per-layer metrics from the traced slices.
fn layer_values(
    values: &mut Values,
    traced: &Slice,
    layer: &Counters,
    gauges: &Gauges,
    commits: &[CommitSpan],
    ops: f64,
) {
    let self_ns: Vec<u64> = traced
        .spans
        .iter()
        .map(|s| s.dur_ns.saturating_sub(s.commit_ns))
        .collect();
    values.put("core.op_self_us_p50", Summary::pair(Summary::of(self_ns)).0);
    values.put("core.aborts_per_op", layer.stats.aborted as f64 / ops);
    values.put("core.deadlock_victims", layer.stats.deadlock_victims as f64);
    values.put("core.retries_per_op", traced.retries as f64 / ops);

    values.put("locks.waits_per_op", layer.waits as f64 / ops);
    values.put("locks.wait_us_per_op", layer.wait_us as f64 / ops);
    let hot = layer.shard_waits.iter().copied().max().unwrap_or(0);
    values.put(
        "locks.hot_shard_share",
        if layer.waits == 0 {
            0.0
        } else {
            hot as f64 / layer.waits as f64
        },
    );

    let n_commits = commits.len().max(1) as f64;
    let (c50, c99) = Summary::pair(Summary::of(commits.iter().map(|c| c.dur_ns).collect()));
    values.put("store.commit_us_p50", c50);
    values.put("store.commit_us_p99", c99);
    values.put("store.commits_per_op", commits.len() as f64 / ops);
    values.put(
        "store.commit_busy_share",
        busy_ns(commits) as f64 / traced.wall.as_nanos().max(1) as f64,
    );
    values.put("store.fsyncs_per_commit", layer.fsyncs as f64 / n_commits);
    values.put(
        "store.dir_fsyncs_per_commit",
        layer.dir_fsyncs as f64 / n_commits,
    );
    values.put(
        "store.user_bytes_per_commit",
        commits.iter().map(|c| c.bytes).sum::<u64>() as f64 / n_commits,
    );
    values.put(
        "store.queue_depth_mean",
        gauges.queue_depth_sum as f64 / gauges.samples.max(1) as f64,
    );
    values.put("store.ckpt_backlog_max", gauges.ckpt_backlog_max as f64);
    values.put("versions.count_max", gauges.versions_max as f64);
    values.put("versions.gc_backlog_max", gauges.gc_backlog_max as f64);

    let mut by_label: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for s in &traced.spans {
        by_label
            .entry(usize::from(s.label))
            .or_default()
            .push(s.dur_ns);
    }
    for (label, ns) in by_label {
        let (p50, p99) = Summary::pair(Summary::of(ns));
        values.put(&format!("structures.{}.p50_us", LABELS[label]), p50);
        values.put(&format!("structures.{}.p99_us", LABELS[label]), p99);
    }
    values.put("obs.events_per_op", layer.events as f64 / ops);
}

/// Nanoseconds during which at least one commit was in progress.
fn busy_ns(commits: &[CommitSpan]) -> u64 {
    let mut spans: Vec<(u64, u64)> = commits
        .iter()
        .map(|c| (c.start_ns, c.start_ns + c.dur_ns))
        .collect();
    spans.sort_unstable();
    let mut busy = 0;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in spans {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                busy += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    busy + open.map_or(0, |(s, e)| e - s)
}

/// Writes the traced slices' spans as JSONL: one line per op, then one
/// per commit.
fn write_spans(path: &Path, ops: &[OpSpan], commits: &[CommitSpan]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in ops {
        writeln!(
            out,
            r#"{{"span":"op","label":"{}","start_ns":{},"dur_ns":{},"commit_ns":{}}}"#,
            LABELS[usize::from(s.label)],
            s.start_ns,
            s.dur_ns,
            s.commit_ns
        )?;
    }
    for c in commits {
        writeln!(
            out,
            r#"{{"span":"commit_batch","start_ns":{},"dur_ns":{},"bytes":{}}}"#,
            c.start_ns, c.dur_ns, c.bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_op_labels() {
        for class in [
            ActionClass::Serializing,
            ActionClass::Glued,
            ActionClass::Independent,
            ActionClass::Snapshot,
        ] {
            for kind in [OpKind::Read, OpKind::Write, OpKind::Structure] {
                let op = Op {
                    seq: 0,
                    class,
                    kind,
                    key: 0,
                    aux: 1,
                };
                let l = label_index(&op);
                assert_eq!(LABELS[l], op.label());
                assert_eq!(
                    label_writes(l),
                    class != ActionClass::Snapshot && kind != OpKind::Read
                );
                assert_eq!(
                    label_single_key_write(l),
                    kind == OpKind::Write
                        && matches!(class, ActionClass::Serializing | ActionClass::Independent)
                );
                assert_eq!(unpack(pack(l, 12_345)), (l, 12_345));
            }
        }
    }

    #[test]
    fn busy_time_is_the_union_of_spans() {
        let span = |start_ns, dur_ns| CommitSpan {
            start_ns,
            dur_ns,
            bytes: 0,
        };
        assert_eq!(busy_ns(&[]), 0);
        assert_eq!(busy_ns(&[span(10, 5), span(12, 10), span(40, 1)]), 13);
    }
}
