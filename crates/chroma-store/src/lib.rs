//! Object stores for chroma: volatile working state, stable
//! (crash-surviving) state, and the intentions-list commit that moves
//! updates from the former to the latter atomically.
//!
//! The paper's system model (§2) gives each node volatile storage, lost
//! on a crash, and optionally *stable storage*, which survives crashes;
//! the permanence-of-effect property requires that the new states of all
//! objects updated by a committing top-level (outermost-coloured) action
//! reach stable storage atomically. This crate models that storage
//! hierarchy explicitly:
//!
//! * [`VolatileStore`] — the in-memory working states actions read and
//!   write; [`VolatileStore::crash`] wipes it, as a node crash would;
//! * [`StableStore`] — installed object states plus an intentions log;
//!   batches of updates commit via the classic intentions-list protocol
//!   (log intents → log commit record → install → truncate), and
//!   [`StableStore::recover`] replays or discards partial batches
//!   idempotently;
//! * [`DiskStore`] — the same intentions-list protocol persisted to a
//!   real directory (write-ahead log + per-object files), for
//!   deployments wanting true on-disk durability;
//! * [`StableStorage`] — the trait both stable stores implement: keyed
//!   reads, atomic batches of writes and deletes, id-range listing;
//! * [`VersionChains`] + [`StampClock`] — short per-object version
//!   chains and the published per-colour commit frontier that let
//!   declared read-only actions take consistent snapshots without
//!   touching the lock table;
//! * [`codec`] — a compact serde binary codec so applications store
//!   typed values.
//!
//! # Examples
//!
//! ```
//! use chroma_base::ObjectId;
//! use chroma_store::{StableStore, StoreBytes};
//!
//! let store = StableStore::new();
//! let o = ObjectId::from_raw(1);
//! store.commit_batch(vec![(o, StoreBytes::from(vec![1, 2, 3]))]);
//! assert_eq!(store.read(o).as_deref(), Some(&[1u8, 2, 3][..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod crc32;
mod disk;
mod stable;
mod versions;
mod volatile;

pub use disk::{DiskCrashPoint, DiskError, DiskStore, DiskStoreOptions, ReplayStats};
pub use stable::{
    BatchId, Change, CommitCrashPoint, Crashed, LogRecord, StableStorage, StableStore,
};
pub use versions::{GcStats, SnapshotStamps, StampClock, VersionChains, VisibleVersion};
pub use volatile::VolatileStore;

/// The byte-buffer type object states are stored as (cheaply clonable).
pub type StoreBytes = bytes::Bytes;
