//! The stable (crash-surviving) half of a node's storage, with
//! intentions-list commit.
//!
//! The store keeps two crash-surviving structures: the *pages* (installed
//! object states) and the *intentions log*. A batch of updates commits
//! in the classic sequence:
//!
//! 1. append an intent record per object (its new state, or a deletion);
//! 2. append a single commit record — **this is the atomic commit
//!    point**;
//! 3. install the intents into the pages;
//! 4. append an installed record, allowing the log to be truncated.
//!
//! A crash between (2) and (4) leaves a committed-but-uninstalled batch
//! in the log; [`StableStore::recover`] re-installs it (idempotently). A
//! crash before (2) leaves orphan intents, which recovery discards.
//! Fault-injection tests drive
//! [`StableStore::commit_batch_with_crash`] to stop at every possible
//! point and assert the all-or-nothing outcome.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;

use chroma_base::ObjectId;
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use parking_lot::Mutex;

use crate::{DiskError, StoreBytes};

/// One change in a stable-storage batch: the object's new state, or
/// `None` to delete it.
pub type Change = (ObjectId, Option<StoreBytes>);

/// Stable storage as a protocol node uses it: keyed reads, atomic
/// batches of writes and deletes, and listing the objects in an id
/// range.
///
/// Implemented by [`StableStore`] (the simulator's model, infallible)
/// and by [`DiskStore`](crate::DiskStore) (real files, fsynced), so the
/// same node code runs on both.
pub trait StableStorage {
    /// The committed state of `object`, if any.
    ///
    /// # Errors
    ///
    /// [`DiskError`] if the medium cannot be read.
    fn load(&self, object: ObjectId) -> Result<Option<StoreBytes>, DiskError>;

    /// Commits `changes` atomically: after a crash either all of them
    /// are visible or none. An empty batch is vacuously durable and
    /// costs nothing.
    ///
    /// # Errors
    ///
    /// [`DiskError`] on an I/O failure; the batch is then absent after
    /// recovery unless its commit point was reached.
    fn commit(&self, changes: Vec<Change>) -> Result<(), DiskError>;

    /// The committed objects whose raw id lies in `range`, ascending.
    ///
    /// # Errors
    ///
    /// [`DiskError`] if the medium cannot be listed.
    fn ids_in(&self, range: Range<u64>) -> Result<Vec<ObjectId>, DiskError>;
}

impl<T: StableStorage + ?Sized> StableStorage for &T {
    fn load(&self, object: ObjectId) -> Result<Option<StoreBytes>, DiskError> {
        (**self).load(object)
    }

    fn commit(&self, changes: Vec<Change>) -> Result<(), DiskError> {
        (**self).commit(changes)
    }

    fn ids_in(&self, range: Range<u64>) -> Result<Vec<ObjectId>, DiskError> {
        (**self).ids_in(range)
    }
}

/// Identifier of one committed (or attempted) batch of updates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BatchId(u64);

impl BatchId {
    /// Returns the raw value (for logging and tests).
    #[must_use]
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A record in the intentions log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// The new state intended for `object` under `batch`.
    Intent {
        /// The batch this intent belongs to.
        batch: BatchId,
        /// The object to be updated.
        object: ObjectId,
        /// The state to install; `None` deletes the object.
        state: Option<StoreBytes>,
    },
    /// `batch` is committed: its intents must be installed.
    Commit {
        /// The committed batch.
        batch: BatchId,
    },
    /// `batch` has been fully installed; its records may be truncated.
    Installed {
        /// The installed batch.
        batch: BatchId,
    },
}

/// Where to crash inside [`StableStore::commit_batch_with_crash`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitCrashPoint {
    /// Crash before anything is logged: the batch vanishes entirely.
    BeforeIntents,
    /// Crash after some (here: all) intents are logged but before the
    /// commit record: recovery must discard the batch.
    AfterIntents,
    /// Crash after the commit record but before installation: recovery
    /// must install the batch.
    AfterCommitRecord,
    /// Crash after installation but before the installed record:
    /// recovery must re-install (idempotently).
    AfterInstall,
}

/// Error returned by the crash-injecting commit: the simulated node died.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Crashed;

impl fmt::Display for Crashed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("simulated crash during commit")
    }
}

impl std::error::Error for Crashed {}

#[derive(Debug, Default)]
struct StableInner {
    pages: HashMap<ObjectId, StoreBytes>,
    log: Vec<LogRecord>,
    next_batch: u64,
}

/// A crash-surviving object store with intentions-list commit.
///
/// Everything inside survives
/// [`VolatileStore::crash`](crate::VolatileStore::crash) by construction — a crash simply never
/// touches this structure; what crashes *interrupt* is the multi-step
/// commit, which is what the log protects.
///
/// # Examples
///
/// ```
/// use chroma_base::ObjectId;
/// use chroma_store::{CommitCrashPoint, StableStore, StoreBytes};
///
/// let store = StableStore::new();
/// let o = ObjectId::from_raw(1);
///
/// // A crash after the commit record: recovery completes the batch.
/// let _ = store.commit_batch_with_crash(
///     vec![(o, StoreBytes::from(vec![7]))],
///     CommitCrashPoint::AfterCommitRecord,
/// );
/// assert!(store.read(o).is_none()); // not installed yet
/// store.recover();
/// assert_eq!(store.read(o).as_deref(), Some(&[7u8][..]));
/// ```
#[derive(Debug, Default)]
pub struct StableStore {
    inner: Mutex<StableInner>,
    obs: ObsCell,
}

impl StableStore {
    /// Creates an empty stable store.
    #[must_use]
    pub fn new() -> Self {
        StableStore::default()
    }

    /// Returns the installed state of `object`, if any.
    #[must_use]
    pub fn read(&self, object: ObjectId) -> Option<StoreBytes> {
        self.inner.lock().pages.get(&object).cloned()
    }

    /// Returns `true` if `object` has an installed state.
    #[must_use]
    pub fn contains(&self, object: ObjectId) -> bool {
        self.inner.lock().pages.contains_key(&object)
    }

    /// Returns the identifiers of all installed objects, unordered.
    #[must_use]
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.inner.lock().pages.keys().copied().collect()
    }

    /// Returns the number of installed objects.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.inner.lock().pages.len()
    }

    /// Returns the number of records currently in the intentions log.
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.inner.lock().log.len()
    }

    /// Commits a batch of updates atomically and returns its id.
    ///
    /// Runs the full intentions-list sequence; on return all updates are
    /// installed and the log is truncated.
    pub fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) -> BatchId {
        self.commit_batch_with_crash(updates, None)
            .expect("no crash point given")
    }

    /// Commits a batch, optionally crashing at `crash_at`.
    ///
    /// With `crash_at: None` this is [`StableStore::commit_batch`]. With
    /// a crash point the sequence stops there, the store is left exactly
    /// as a real crash would leave it, and `Err(Crashed)` is returned;
    /// call [`StableStore::recover`] to model the node coming back up.
    ///
    /// # Errors
    ///
    /// Returns [`Crashed`] iff a crash point was injected.
    pub fn commit_batch_with_crash(
        &self,
        updates: Vec<(ObjectId, StoreBytes)>,
        crash_at: impl Into<Option<CommitCrashPoint>>,
    ) -> Result<BatchId, Crashed> {
        let changes = updates
            .into_iter()
            .map(|(object, state)| (object, Some(state)))
            .collect();
        self.commit_changes(changes, crash_at.into())
    }

    /// The intentions-list sequence over writes and deletes.
    fn commit_changes(
        &self,
        updates: Vec<Change>,
        crash_at: Option<CommitCrashPoint>,
    ) -> Result<BatchId, Crashed> {
        let mut inner = self.inner.lock();
        let batch = BatchId(inner.next_batch);
        inner.next_batch += 1;

        if crash_at == Some(CommitCrashPoint::BeforeIntents) {
            return Err(Crashed);
        }
        for (object, state) in &updates {
            inner.log.push(LogRecord::Intent {
                batch,
                object: *object,
                state: state.clone(),
            });
        }
        if crash_at == Some(CommitCrashPoint::AfterIntents) {
            return Err(Crashed);
        }
        inner.log.push(LogRecord::Commit { batch });
        // intents + the commit record are now durably logged
        self.obs.get().emit(EventKind::WalAppend {
            records: updates.len() as u64 + 1,
        });
        if crash_at == Some(CommitCrashPoint::AfterCommitRecord) {
            return Err(Crashed);
        }
        let installed = updates.len() as u64;
        for (object, state) in updates {
            install(&mut inner.pages, object, state);
        }
        if crash_at == Some(CommitCrashPoint::AfterInstall) {
            return Err(Crashed);
        }
        inner.log.push(LogRecord::Installed { batch });
        Self::truncate(&mut inner);
        self.obs
            .get()
            .emit(EventKind::WalFlush { objects: installed });
        Ok(batch)
    }

    /// Recovers after a crash: installs committed-but-uninstalled
    /// batches, discards uncommitted intents, truncates the log.
    ///
    /// Idempotent — calling it any number of times (including with no
    /// crash at all) leaves the same state.
    pub fn recover(&self) {
        let mut inner = self.inner.lock();
        let committed: HashSet<BatchId> = inner
            .log
            .iter()
            .filter_map(|r| match r {
                LogRecord::Commit { batch } => Some(*batch),
                _ => None,
            })
            .collect();
        let installed: HashSet<BatchId> = inner
            .log
            .iter()
            .filter_map(|r| match r {
                LogRecord::Installed { batch } => Some(*batch),
                _ => None,
            })
            .collect();
        let to_install: Vec<(BatchId, ObjectId, Option<StoreBytes>)> = inner
            .log
            .iter()
            .filter_map(|r| match r {
                LogRecord::Intent {
                    batch,
                    object,
                    state,
                } if committed.contains(batch) && !installed.contains(batch) => {
                    Some((*batch, *object, state.clone()))
                }
                _ => None,
            })
            .collect();
        let reinstalled = to_install.len() as u64;
        let mut finished: Vec<BatchId> = Vec::new();
        for (batch, object, state) in to_install {
            install(&mut inner.pages, object, state);
            if !finished.contains(&batch) {
                finished.push(batch);
            }
        }
        for batch in finished {
            inner.log.push(LogRecord::Installed { batch });
        }
        Self::truncate(&mut inner);
        if reinstalled > 0 {
            self.obs.get().emit(EventKind::WalFlush {
                objects: reinstalled,
            });
        }
    }

    /// Drops all log records belonging to fully installed batches and
    /// all intents of uncommitted batches (only meaningful at recovery
    /// or after a complete commit; invoked internally).
    fn truncate(inner: &mut StableInner) {
        let committed: HashSet<BatchId> = inner
            .log
            .iter()
            .filter_map(|r| match r {
                LogRecord::Commit { batch } => Some(*batch),
                _ => None,
            })
            .collect();
        let installed: HashSet<BatchId> = inner
            .log
            .iter()
            .filter_map(|r| match r {
                LogRecord::Installed { batch } => Some(*batch),
                _ => None,
            })
            .collect();
        inner.log.retain(|r| {
            let batch = match r {
                LogRecord::Intent { batch, .. }
                | LogRecord::Commit { batch }
                | LogRecord::Installed { batch } => *batch,
            };
            // Keep only records of batches that are committed but not
            // yet installed (mid-flight from this store's perspective).
            committed.contains(&batch) && !installed.contains(&batch)
        });
    }
}

/// Installs one intent into the pages: a new state, or a deletion.
fn install(pages: &mut HashMap<ObjectId, StoreBytes>, object: ObjectId, state: Option<StoreBytes>) {
    match state {
        Some(state) => pages.insert(object, state),
        None => pages.remove(&object),
    };
}

impl StableStorage for StableStore {
    fn load(&self, object: ObjectId) -> Result<Option<StoreBytes>, DiskError> {
        Ok(self.read(object))
    }

    fn commit(&self, changes: Vec<Change>) -> Result<(), DiskError> {
        if !changes.is_empty() {
            self.commit_changes(changes, None)
                .expect("no crash point given");
        }
        Ok(())
    }

    fn ids_in(&self, range: Range<u64>) -> Result<Vec<ObjectId>, DiskError> {
        let mut ids: Vec<ObjectId> = self
            .inner
            .lock()
            .pages
            .keys()
            .copied()
            .filter(|object| range.contains(&object.as_raw()))
            .collect();
        ids.sort_unstable();
        Ok(ids)
    }
}

impl Observable for StableStore {
    /// Installs an observability handle; commits emit `WalAppend` and
    /// `WalFlush`.
    fn install_obs(&self, obs: Obs) {
        self.obs.set(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }
    fn bytes(v: u8) -> StoreBytes {
        StoreBytes::from(vec![v])
    }

    #[test]
    fn committed_batch_is_installed_and_log_truncated() {
        let store = StableStore::new();
        store.commit_batch(vec![(o(1), bytes(1)), (o(2), bytes(2))]);
        assert_eq!(store.read(o(1)).as_deref(), Some(&[1u8][..]));
        assert_eq!(store.read(o(2)).as_deref(), Some(&[2u8][..]));
        assert_eq!(store.log_len(), 0);
        assert_eq!(store.page_count(), 2);
    }

    #[test]
    fn crash_before_intents_loses_batch() {
        let store = StableStore::new();
        let err =
            store.commit_batch_with_crash(vec![(o(1), bytes(1))], CommitCrashPoint::BeforeIntents);
        assert_eq!(err, Err(Crashed));
        store.recover();
        assert!(store.read(o(1)).is_none());
        assert_eq!(store.log_len(), 0);
    }

    #[test]
    fn crash_after_intents_discards_batch() {
        let store = StableStore::new();
        let _ =
            store.commit_batch_with_crash(vec![(o(1), bytes(1))], CommitCrashPoint::AfterIntents);
        store.recover();
        assert!(store.read(o(1)).is_none());
        assert_eq!(store.log_len(), 0);
    }

    #[test]
    fn crash_after_commit_record_installs_on_recovery() {
        let store = StableStore::new();
        let _ = store.commit_batch_with_crash(
            vec![(o(1), bytes(1)), (o(2), bytes(2))],
            CommitCrashPoint::AfterCommitRecord,
        );
        assert!(store.read(o(1)).is_none());
        store.recover();
        assert_eq!(store.read(o(1)).as_deref(), Some(&[1u8][..]));
        assert_eq!(store.read(o(2)).as_deref(), Some(&[2u8][..]));
        assert_eq!(store.log_len(), 0);
    }

    #[test]
    fn crash_after_install_is_idempotent_on_recovery() {
        let store = StableStore::new();
        let _ =
            store.commit_batch_with_crash(vec![(o(1), bytes(9))], CommitCrashPoint::AfterInstall);
        assert_eq!(store.read(o(1)).as_deref(), Some(&[9u8][..]));
        store.recover();
        store.recover();
        assert_eq!(store.read(o(1)).as_deref(), Some(&[9u8][..]));
        assert_eq!(store.log_len(), 0);
    }

    #[test]
    fn recovery_with_mixed_batches() {
        let store = StableStore::new();
        // Batch 0: fully committed.
        store.commit_batch(vec![(o(1), bytes(1))]);
        // Batch 1: crashed after commit record.
        let _ = store
            .commit_batch_with_crash(vec![(o(2), bytes(2))], CommitCrashPoint::AfterCommitRecord);
        // A second, later store user crashes pre-commit. (New batch id.)
        let _ =
            store.commit_batch_with_crash(vec![(o(3), bytes(3))], CommitCrashPoint::AfterIntents);
        store.recover();
        assert_eq!(store.read(o(1)).as_deref(), Some(&[1u8][..]));
        assert_eq!(store.read(o(2)).as_deref(), Some(&[2u8][..]));
        assert!(store.read(o(3)).is_none());
        assert_eq!(store.log_len(), 0);
    }

    #[test]
    fn later_batch_overwrites_earlier_state() {
        let store = StableStore::new();
        store.commit_batch(vec![(o(1), bytes(1))]);
        store.commit_batch(vec![(o(1), bytes(2))]);
        assert_eq!(store.read(o(1)).as_deref(), Some(&[2u8][..]));
    }

    #[test]
    fn batch_ids_are_increasing() {
        let store = StableStore::new();
        let b1 = store.commit_batch(vec![(o(1), bytes(1))]);
        let b2 = store.commit_batch(vec![(o(2), bytes(2))]);
        assert!(b2 > b1);
        assert_eq!(b1.to_string(), format!("B{}", b1.as_raw()));
    }

    #[test]
    fn recovery_on_clean_store_is_a_no_op() {
        let store = StableStore::new();
        store.commit_batch(vec![(o(1), bytes(1))]);
        store.recover();
        assert_eq!(store.read(o(1)).as_deref(), Some(&[1u8][..]));
        assert_eq!(store.page_count(), 1);
    }

    #[test]
    fn deletes_commit_and_recover_like_writes() {
        let store = StableStore::new();
        store.commit_batch(vec![(o(1), bytes(1)), (o(2), bytes(2))]);
        StableStorage::commit(&store, vec![(o(1), None)]).unwrap();
        assert!(store.read(o(1)).is_none());
        assert_eq!(store.ids_in(0..10).unwrap(), vec![o(2)]);
        // A delete interrupted after its commit record completes on
        // recovery.
        let _ = store.commit_changes(
            vec![(o(2), None)],
            Some(CommitCrashPoint::AfterCommitRecord),
        );
        assert!(store.read(o(2)).is_some());
        store.recover();
        assert!(store.read(o(2)).is_none());
        assert_eq!(store.log_len(), 0);
    }

    #[test]
    fn empty_batch_commits_cleanly() {
        let store = StableStore::new();
        store.commit_batch(Vec::new());
        assert_eq!(store.page_count(), 0);
        assert_eq!(store.log_len(), 0);
    }
}
