//! A timing [`PermanenceBackend`] wrapper: the store layer measured
//! from outside, at the boundary the runtime calls through.
//!
//! Every trait method is forwarded. Only `commit_batch` is timed, and
//! only while recording is switched on. A span per call is kept in
//! memory, and the calling thread's running commit total lets the
//! benchmark subtract child commit time from an op's own span.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use chroma_core::{BackendError, ObjectId, PermanenceBackend};
use chroma_obs::{Obs, Observable};
use chroma_store::StoreBytes;

/// One timed `commit_batch` call.
#[derive(Clone, Copy, Debug)]
pub struct CommitSpan {
    /// Start, in nanoseconds since the wrapper's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Bytes of object state in the batch.
    pub bytes: u64,
}

thread_local! {
    /// `(nanoseconds, calls)` of recorded commits made on this thread.
    static THREAD_COMMITS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The recorded commit time and call count of the calling thread so
/// far; the difference across an op is its child commit time.
#[must_use]
pub fn thread_commits() -> (u64, u64) {
    THREAD_COMMITS.with(Cell::get)
}

/// Forwards to `inner`, timing commits while recording.
pub struct TimedBackend<B> {
    inner: Arc<B>,
    epoch: Instant,
    recording: AtomicBool,
    spans: Mutex<Vec<CommitSpan>>,
}

impl<B: PermanenceBackend> TimedBackend<B> {
    /// Wraps `inner`; span times count from `epoch`.
    pub fn new(inner: Arc<B>, epoch: Instant) -> Self {
        TimedBackend {
            inner,
            epoch,
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches span recording on or off.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Takes the spans recorded so far.
    pub fn take_spans(&self) -> Vec<CommitSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

impl<B: PermanenceBackend> PermanenceBackend for TimedBackend<B> {
    fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) -> Result<(), BackendError> {
        if !self.recording.load(Ordering::Relaxed) {
            return self.inner.commit_batch(updates);
        }
        let bytes = updates.iter().map(|(_, s)| s.len() as u64).sum();
        let started = Instant::now();
        let result = self.inner.commit_batch(updates);
        let dur_ns = nanos(started.elapsed());
        let start_ns = nanos(started.duration_since(self.epoch));
        THREAD_COMMITS.with(|c| {
            let (ns, calls) = c.get();
            c.set((ns + dur_ns, calls + 1));
        });
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .push(CommitSpan {
                start_ns,
                dur_ns,
                bytes,
            });
        result
    }

    fn read(&self, object: ObjectId) -> Option<StoreBytes> {
        self.inner.read(object)
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.inner.contains(object)
    }

    fn recover(&self) {
        self.inner.recover();
    }

    fn max_object(&self) -> Option<ObjectId> {
        self.inner.max_object()
    }

    fn queue_depth(&self) -> u64 {
        self.inner.queue_depth()
    }

    fn checkpoint_backlog(&self) -> u64 {
        self.inner.checkpoint_backlog()
    }
}

impl<B: PermanenceBackend> Observable for TimedBackend<B> {
    fn install_obs(&self, obs: Obs) {
        self.inner.install_obs(obs);
    }
}

/// A duration in whole nanoseconds, saturating.
#[must_use]
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chroma_core::{DiskBackend, Runtime};

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-timed-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn forwards_every_method() {
        let dir = scratch("forward");
        let disk = Arc::new(DiskBackend::open(&dir).unwrap());
        let timed = TimedBackend::new(Arc::clone(&disk), Instant::now());
        let o = ObjectId::from_raw(7);
        timed
            .commit_batch(vec![(o, StoreBytes::from(vec![1, 2, 3]))])
            .unwrap();
        assert_eq!(timed.read(o).as_deref(), Some(&[1u8, 2, 3][..]));
        assert!(timed.contains(o));
        assert!(!timed.contains(ObjectId::from_raw(8)));
        assert_eq!(timed.max_object(), Some(o));
        assert_eq!(timed.max_object(), disk.max_object());
        assert_eq!(timed.queue_depth(), disk.queue_depth());
        assert_eq!(timed.checkpoint_backlog(), disk.checkpoint_backlog());
        timed.recover();

        let bus = Arc::new(chroma_obs::EventBus::new());
        timed.install_obs(Obs::new(Arc::clone(&bus)));
        timed
            .commit_batch(vec![(o, StoreBytes::from(vec![4]))])
            .unwrap();
        assert_eq!(bus.counter("disk_append"), 1, "obs must reach the store");
        drop((timed, disk));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_only_while_recording() {
        let dir = scratch("record");
        let timed = TimedBackend::new(Arc::new(DiskBackend::open(&dir).unwrap()), Instant::now());
        let batch = || vec![(ObjectId::from_raw(1), StoreBytes::from(vec![0; 8]))];
        let before = thread_commits();
        timed.commit_batch(batch()).unwrap();
        assert!(timed.take_spans().is_empty());
        timed.set_recording(true);
        timed.commit_batch(batch()).unwrap();
        let spans = timed.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].bytes, 8);
        let after = thread_commits();
        assert_eq!(after.1 - before.1, 1);
        assert_eq!(after.0 - before.0, spans[0].dur_ns);
        drop(timed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_runtime_allocates_after_stored_objects() {
        let dir = scratch("reopen");
        let stored: Vec<ObjectId> = {
            let rt = Runtime::builder()
                .backend(Arc::new(TimedBackend::new(
                    Arc::new(DiskBackend::open(&dir).unwrap()),
                    Instant::now(),
                )))
                .build();
            (0..5u64).map(|v| rt.create_object(&v).unwrap()).collect()
        };
        let rt = Runtime::builder()
            .backend(Arc::new(TimedBackend::new(
                Arc::new(DiskBackend::open(&dir).unwrap()),
                Instant::now(),
            )))
            .build();
        let fresh = rt.create_object(&99u64).unwrap();
        assert!(
            stored.iter().all(|o| o.as_raw() < fresh.as_raw()),
            "id {fresh} collides"
        );
        for (v, &o) in stored.iter().enumerate() {
            assert_eq!(rt.read_committed::<u64>(o).unwrap(), v as u64);
        }
        drop(rt);
        std::fs::remove_dir_all(&dir).ok();
    }
}
