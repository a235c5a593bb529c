//! Offline invariant auditing of captured event streams.
//!
//! The auditor replays a trace in emission order and checks the
//! properties the paper's construction is supposed to guarantee:
//!
//! * **R1 — strict 2PL.** Once an action has released or passed on any
//!   lock (its shrinking phase), or has terminated, it acquires no
//!   further locks.
//! * **R2 — Moss inheritance.** A commit-time lock transfer must go to
//!   the *closest* ancestor that holds the lock's colour, and the
//!   transferring action must actually hold the lock.
//! * **R3 — no write without a write lock.** Every before-image
//!   (`UndoRecord`) must be covered by a write-mode lock held by that
//!   action on that object in that colour at that moment.
//! * **R4 — 2PC safety.** All decision and resolution events for one
//!   transaction agree; a commit decision requires a yes-vote from
//!   every participant and no observed no-vote; a coordinator forgets
//!   its commit record only after it took an acknowledgement from
//!   every participant.
//! * **R5 — per-replica version monotonicity.** A member never
//!   installs a version of a replicated object lower than one it has
//!   already installed (a late two-phase-commit decision must not roll
//!   a caught-up copy backwards).
//! * **R6 — no read from a catching-up replica.** A read is never
//!   served from a member between its `CatchupBegin` and `CatchupEnd`
//!   for that object, and never from a copy flagged stale.
//! * **R7 — bounded staleness.** A served read, and a member rejoining
//!   after catch-up, may lag the highest version any member has
//!   installed by at most the configured window
//!   ([`with_staleness_window`](TraceAuditor::with_staleness_window),
//!   default 1 — the one write the group may have in flight).
//! * **R8 — no happens-before inversion.** Causality, as witnessed by
//!   the per-node Lamport clocks (`lc`) and send/receive correlation
//!   ids (`corr`): a delivery's merged clock must strictly exceed the
//!   matching send's, every delivery must correlate to a send the
//!   trace contains, a child action's whole span must be enclosed by
//!   its parent's (begin after the parent begins, terminate before
//!   the parent terminates), and a 2PC commit decision must causally
//!   follow every yes-vote it counts. Clock checks only apply to
//!   events that were stamped (`lc > 0`), so pre-causality traces
//!   still audit.
//! * **R9 — group-commit coverage.** Every committed batch's marker
//!   (`DiskAppend`) is covered by exactly one group fsync
//!   (`DiskGroupCommit` must declare precisely the batches appended
//!   since the previous group flush), and recovery (`DiskReplay`)
//!   replays exactly the batches whose markers were group-fsynced but
//!   never checkpointed. The rule only arms once the trace contains a
//!   `DiskGroupCommit`, so pre-group-commit traces still audit.
//! * **R10 — snapshot-read correctness.** A declared read-only action
//!   (`SnapshotOpen`) must (a) serve every `SnapshotRead` from the
//!   *newest* published version (`VersionPublish`) whose stamp is
//!   `<=` the snapshot's captured stamp for that version's colour —
//!   stamp 0 meaning the base/stable state — and (b) never appear in
//!   lock traffic (request, grant, or conflict: a waiting snapshot
//!   reader would be a waits-for edge). Version chains are volatile,
//!   so a `NodeCrash` resets the node's published history: post-crash
//!   snapshots correctly see the stable state as stamp 0.
//! * **R11 — segment lifecycle.** The segmented intentions log's
//!   maintenance never loses a committed batch: a segment is
//!   garbage-collected (`SegmentGc`) only at or below the checkpoint
//!   watermark (`CheckpointEnd`'s `upto`), and recovery (`DiskReplay`)
//!   replays exactly the manifest's live suffix — the batches sealed
//!   into uncheckpointed segments (`SegmentSeal`) plus those committed
//!   into the active segment since the last seal. The rule only arms
//!   once the trace contains a `SegmentSeal`, so pre-segment traces
//!   still audit.
//!
//! The auditor is deliberately independent of the runtime: it sees
//! only the trace, so a bug that corrupts runtime state *and* its own
//! bookkeeping is still caught as long as the emitted events disagree
//! with each other.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

use chroma_base::{ActionId, Colour, LockMode, NodeId, ObjectId};

use crate::event::{Event, EventKind, TraceParseError};

/// One invariant breach found in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// R1: a lock was granted to an action already past its shrinking
    /// point (released/inherited a lock, or terminated).
    LockAfterShrink {
        /// The offending action.
        action: ActionId,
        /// The object granted.
        object: ObjectId,
        /// The colour granted.
        colour: Colour,
    },
    /// R2: a lock was inherited by something other than the closest
    /// ancestor holding the colour.
    BadInheritTarget {
        /// The committing action.
        from: ActionId,
        /// Who actually received the lock.
        to: ActionId,
        /// Who should have (`None` = no ancestor holds the colour, so
        /// the lock should have been released instead).
        expected: Option<ActionId>,
        /// The object concerned.
        object: ObjectId,
        /// The colour concerned.
        colour: Colour,
    },
    /// R2: an action passed on a lock the trace never granted it.
    InheritWithoutLock {
        /// The committing action.
        from: ActionId,
        /// The object concerned.
        object: ObjectId,
        /// The colour concerned.
        colour: Colour,
    },
    /// An action released a lock the trace never granted it.
    ReleaseWithoutLock {
        /// The releasing action.
        action: ActionId,
        /// The object concerned.
        object: ObjectId,
        /// The colour concerned.
        colour: Colour,
    },
    /// R3: a before-image was recorded without a write-mode lock.
    WriteWithoutWriteLock {
        /// The writing action.
        action: ActionId,
        /// The object written.
        object: ObjectId,
        /// The colour of the write.
        colour: Colour,
    },
    /// R4: two decision/resolution events for one transaction disagree.
    DivergentDecision {
        /// The transaction.
        txn: u64,
        /// The node that emitted the conflicting event.
        node: NodeId,
        /// What the trace had already established.
        earlier: bool,
        /// What this event claims.
        later: bool,
    },
    /// R4: a commit decision without a yes-vote from every participant.
    CommitWithoutQuorum {
        /// The transaction.
        txn: u64,
        /// Distinct yes-voters seen before the decision.
        yes_votes: u64,
        /// Participants the decision itself declares.
        participants: u64,
    },
    /// R4: a commit decision although some participant voted no.
    CommitDespiteNoVote {
        /// The transaction.
        txn: u64,
        /// A no-voter.
        node: NodeId,
    },
    /// R4: a coordinator forgot its commit record before every
    /// participant had acknowledged the decision.
    ForgetBeforeAcks {
        /// The transaction.
        txn: u64,
        /// The forgetting coordinator.
        node: NodeId,
        /// Distinct participants whose ack it had taken.
        acked: u64,
        /// Participants the trace knows of (yes-voters, or the count
        /// the decision declared, whichever is larger).
        participants: u64,
    },
    /// R5: a member installed a lower version of a replicated object
    /// than one it had already installed.
    ReplicaVersionRegression {
        /// The regressing member.
        node: NodeId,
        /// The replicated object.
        object: ObjectId,
        /// The version previously installed.
        from: u64,
        /// The lower version installed now.
        to: u64,
    },
    /// R6: a read was served from a member still catching up (inside
    /// its `CatchupBegin`..`CatchupEnd` window, or flagged stale).
    ReadDuringCatchup {
        /// The serving member.
        node: NodeId,
        /// The replicated object.
        object: ObjectId,
    },
    /// R7: a served or rejoin version lagged the group's highest
    /// installed version by more than the staleness window.
    StalenessWindowExceeded {
        /// The lagging member.
        node: NodeId,
        /// The replicated object.
        object: ObjectId,
        /// The lagging version.
        version: u64,
        /// The highest version any member had installed by then.
        latest: u64,
        /// The configured window.
        window: u64,
    },
    /// The trace references an action never begun (truncated or
    /// corrupted trace, or a missing emission site).
    UnknownAction {
        /// The unknown action.
        action: ActionId,
        /// Which event kind referenced it.
        context: &'static str,
    },
    /// R8: a delivery's Lamport clock did not exceed the matching
    /// send's — the receive failed to merge the sender's clock, so
    /// the trace cannot order the pair causally.
    ClockInversion {
        /// The correlation id pairing the two events.
        corr: u64,
        /// The send's clock.
        send_lc: u64,
        /// The delivery's (not greater) clock.
        recv_lc: u64,
    },
    /// R8: a delivery whose correlation id matches no send in the
    /// trace — an applied message that nothing provably caused.
    ReceiveWithoutSend {
        /// The orphaned correlation id.
        corr: u64,
        /// The node that applied the delivery.
        node: NodeId,
    },
    /// R8: a child action's span escaped its parent's — it began
    /// after the parent terminated, or was still live when the parent
    /// terminated.
    ChildOutsideParent {
        /// The escaping child.
        child: ActionId,
        /// Its parent.
        parent: ActionId,
    },
    /// R8: a 2PC commit decision whose Lamport clock does not exceed
    /// a counted yes-vote's — the decision cannot have causally
    /// followed the vote it claims to be based on.
    CommitBeforeVote {
        /// The transaction.
        txn: u64,
        /// The yes-voter whose vote the decision did not follow.
        node: NodeId,
    },
    /// R9: a group fsync did not cover exactly the batches appended
    /// since the previous one — a marker was either flushed twice or
    /// reported durable without a covering fsync.
    GroupFsyncCoverage {
        /// Batches the `DiskGroupCommit` event declared.
        declared: u64,
        /// Batch appends the trace saw since the last group fsync.
        appended: u64,
    },
    /// R9: recovery did not replay exactly the batches whose markers
    /// were group-fsynced but never checkpointed.
    ReplayMarkMismatch {
        /// Batches the `DiskReplay` event replayed.
        replayed: u64,
        /// Marked-but-unchecked batches the trace had accumulated.
        marked: u64,
    },
    /// R10: a snapshot read did not observe the newest committed
    /// version visible at the snapshot's captured stamps.
    SnapshotReadNotNewest {
        /// The reading snapshot action.
        action: ActionId,
        /// The object read.
        object: ObjectId,
        /// The version stamp the read claims it served.
        served: u64,
        /// The newest published stamp visible at the snapshot's
        /// captured frontier (0 = the base / stable state).
        expected: u64,
    },
    /// R10: a snapshot (read-only) action appeared in lock traffic —
    /// it requested, was granted, or waited for a lock, so it could
    /// appear in a waits-for edge.
    SnapshotReaderLocks {
        /// The offending snapshot action.
        action: ActionId,
        /// The object it touched in the lock table.
        object: ObjectId,
    },
    /// R11: a segment was garbage-collected above the checkpoint
    /// watermark — its committed batches were never folded into the
    /// object store, so a crash after the GC would lose them.
    GcUncheckpointedSegment {
        /// The segment the GC deleted.
        segment: u64,
        /// The checkpoint watermark at the time of the GC.
        watermark: u64,
    },
    /// R11: recovery did not replay exactly the manifest's live
    /// suffix (uncheckpointed sealed segments plus the active tail).
    ReplayManifestMismatch {
        /// Batches the `DiskReplay` event replayed.
        replayed: u64,
        /// Batches the live suffix held according to the trace.
        live: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LockAfterShrink {
                action,
                object,
                colour,
            } => write!(
                f,
                "strict 2PL: {action} granted {object}/{colour} after shrinking"
            ),
            Violation::BadInheritTarget {
                from,
                to,
                expected,
                object,
                colour,
            } => match expected {
                Some(e) => write!(
                    f,
                    "inheritance: {from} passed {object}/{colour} to {to}, closest {colour} ancestor is {e}"
                ),
                None => write!(
                    f,
                    "inheritance: {from} passed {object}/{colour} to {to}, but no ancestor holds {colour} (should release)"
                ),
            },
            Violation::InheritWithoutLock {
                from,
                object,
                colour,
            } => write!(f, "inheritance: {from} passed {object}/{colour} it never held"),
            Violation::ReleaseWithoutLock {
                action,
                object,
                colour,
            } => write!(f, "release: {action} released {object}/{colour} it never held"),
            Violation::WriteWithoutWriteLock {
                action,
                object,
                colour,
            } => write!(
                f,
                "write safety: {action} recorded an undo for {object}/{colour} without a write lock"
            ),
            Violation::DivergentDecision {
                txn,
                node,
                earlier,
                later,
            } => write!(
                f,
                "2pc: T{txn} decided {} but {node} says {}",
                verdict(*earlier),
                verdict(*later)
            ),
            Violation::CommitWithoutQuorum {
                txn,
                yes_votes,
                participants,
            } => write!(
                f,
                "2pc: T{txn} committed with {yes_votes}/{participants} yes-votes"
            ),
            Violation::CommitDespiteNoVote { txn, node } => {
                write!(f, "2pc: T{txn} committed although {node} voted no")
            }
            Violation::ForgetBeforeAcks {
                txn,
                node,
                acked,
                participants,
            } => write!(
                f,
                "2pc: {node} forgot T{txn} after only {acked}/{participants} acks"
            ),
            Violation::ReplicaVersionRegression {
                node,
                object,
                from,
                to,
            } => write!(
                f,
                "replication: {node} installed {object} v{to} after already holding v{from}"
            ),
            Violation::ReadDuringCatchup { node, object } => write!(
                f,
                "replication: a read of {object} was served from {node} while it was catching up"
            ),
            Violation::StalenessWindowExceeded {
                node,
                object,
                version,
                latest,
                window,
            } => write!(
                f,
                "replication: {node} served {object} v{version} while the group held v{latest} (window {window})"
            ),
            Violation::UnknownAction { action, context } => {
                write!(f, "trace: {context} references unknown action {action}")
            }
            Violation::ClockInversion {
                corr,
                send_lc,
                recv_lc,
            } => write!(
                f,
                "causality: delivery of corr {corr} carries lc {recv_lc}, not after the send's lc {send_lc}"
            ),
            Violation::ReceiveWithoutSend { corr, node } => write!(
                f,
                "causality: {node} applied a delivery with corr {corr} that matches no send"
            ),
            Violation::ChildOutsideParent { child, parent } => write!(
                f,
                "causality: {child}'s span is not enclosed by its parent {parent}'s"
            ),
            Violation::CommitBeforeVote { txn, node } => write!(
                f,
                "causality: T{txn}'s commit decision does not causally follow {node}'s yes-vote"
            ),
            Violation::GroupFsyncCoverage { declared, appended } => write!(
                f,
                "group commit: a group fsync declared {declared} batch(es) but {appended} were appended since the last one"
            ),
            Violation::ReplayMarkMismatch { replayed, marked } => write!(
                f,
                "group commit: recovery replayed {replayed} batch(es) but {marked} were marked and never checkpointed"
            ),
            Violation::SnapshotReadNotNewest {
                action,
                object,
                served,
                expected,
            } => write!(
                f,
                "snapshot: {action} read {object} at stamp {served}, but the newest visible version is stamp {expected}"
            ),
            Violation::SnapshotReaderLocks { action, object } => write!(
                f,
                "snapshot: read-only {action} appeared in lock traffic for {object}"
            ),
            Violation::GcUncheckpointedSegment { segment, watermark } => write!(
                f,
                "segment lifecycle: segment {segment} was GC'd above checkpoint watermark {watermark}"
            ),
            Violation::ReplayManifestMismatch { replayed, live } => write!(
                f,
                "segment lifecycle: recovery replayed {replayed} batch(es) but the manifest's live suffix held {live}"
            ),
        }
    }
}

fn verdict(commit: bool) -> &'static str {
    if commit {
        "commit"
    } else {
        "abort"
    }
}

/// The outcome of auditing one trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// How many events were replayed.
    pub events: usize,
    /// Every breach found, in trace order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// `true` when no invariant was breached.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "audit: {} events, clean", self.events)
        } else {
            writeln!(
                f,
                "audit: {} events, {} violation(s):",
                self.events,
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

#[derive(Debug)]
struct ActionState {
    parent: Option<ActionId>,
    colours: u64,
    /// Entered the shrinking phase: released or passed on some lock,
    /// or terminated.
    shrunk: bool,
    /// Committed or aborted (R8: a terminated parent encloses no new
    /// children, and terminates none of its live ones).
    ended: bool,
}

#[derive(Debug, Default)]
struct TxnState {
    yes: BTreeSet<u32>,
    no: BTreeSet<u32>,
    decision: Option<bool>,
    /// Participant count the first decision declared.
    participants: u64,
    /// Participants whose ack a coordinator took.
    acked: BTreeSet<u32>,
    /// Lamport clock of each member's first stamped yes-vote (R8:
    /// the commit decision must causally follow every one).
    yes_lc: HashMap<u32, u64>,
}

/// Replays an event stream and checks the paper's invariants.
///
/// Feed events in emission order with [`observe`](TraceAuditor::observe),
/// then collect the [`AuditReport`] with
/// [`finish`](TraceAuditor::finish); or use the one-shot helpers
/// [`audit_events`](TraceAuditor::audit_events) and
/// [`audit_jsonl`](TraceAuditor::audit_jsonl).
#[derive(Debug)]
pub struct TraceAuditor {
    actions: HashMap<ActionId, ActionState>,
    /// Strongest mode currently held per (action, object, colour).
    held: HashMap<(ActionId, ObjectId, usize), LockMode>,
    txns: HashMap<u64, TxnState>,
    /// Highest version each member has installed, per (node, object).
    replica_versions: HashMap<(u32, u64), u64>,
    /// Highest version *any* member has installed, per object.
    max_installed: HashMap<u64, u64>,
    /// (node, object) pairs inside an open catch-up window.
    catching_up: HashSet<(u32, u64)>,
    /// How far a served read may lag the group's highest installed
    /// version (R7).
    staleness_window: u64,
    /// Lamport clock of the (single) send per correlation id (R8).
    sends: HashMap<u64, u64>,
    /// Live (unterminated) children per action (R8 enclosure).
    live_children: HashMap<ActionId, BTreeSet<ActionId>>,
    /// R9: batch appends since the last group fsync.
    group_appends: u64,
    /// R9: batches covered by a group fsync but not yet checkpointed.
    marked_unchecked: u64,
    /// R9 only arms once the trace proves the store group-commits.
    saw_group_commit: bool,
    /// R11: uncheckpointed sealed segments as (sequence, batches), in
    /// seal order.
    sealed_live: Vec<(u64, u64)>,
    /// R11: batches committed into the active segment since the last
    /// seal.
    active_batches: u64,
    /// R11: highest checkpointed segment sequence.
    ckpt_watermark: u64,
    /// R11 only arms once the trace proves the log is segmented.
    saw_segment: bool,
    /// R10: published versions per (node, object) in append order,
    /// as (colour index, stamp). Cleared per node on a crash: chains
    /// are volatile, so post-crash snapshots see the stable (stamp-0)
    /// state again. Node-less local emissions key as node 0.
    published: HashMap<(u32, u64), Vec<(usize, u64)>>,
    /// R10: each snapshot action's captured frontier (colour index →
    /// stamp), accumulated from its `SnapshotOpen` events.
    snapshot_stamps: HashMap<ActionId, HashMap<usize, u64>>,
    /// Actions the trace declared read-only (they must never appear
    /// in lock traffic).
    snapshot_actions: HashSet<ActionId>,
    violations: Vec<Violation>,
    events: usize,
}

impl Default for TraceAuditor {
    fn default() -> Self {
        TraceAuditor {
            actions: HashMap::new(),
            held: HashMap::new(),
            txns: HashMap::new(),
            replica_versions: HashMap::new(),
            max_installed: HashMap::new(),
            catching_up: HashSet::new(),
            // one write may be in flight: its installs land at
            // different times on different members
            staleness_window: 1,
            sends: HashMap::new(),
            live_children: HashMap::new(),
            group_appends: 0,
            marked_unchecked: 0,
            saw_group_commit: false,
            sealed_live: Vec::new(),
            active_batches: 0,
            ckpt_watermark: 0,
            saw_segment: false,
            published: HashMap::new(),
            snapshot_stamps: HashMap::new(),
            snapshot_actions: HashSet::new(),
            violations: Vec::new(),
            events: 0,
        }
    }
}

impl TraceAuditor {
    /// A fresh auditor (staleness window 1).
    #[must_use]
    pub fn new() -> Self {
        TraceAuditor::default()
    }

    /// Sets how many versions a served read may lag the group's
    /// highest installed version before R7 fires.
    #[must_use]
    pub fn with_staleness_window(mut self, window: u64) -> Self {
        self.staleness_window = window;
        self
    }

    /// Audits a complete in-memory trace.
    #[must_use]
    pub fn audit_events(events: &[Event]) -> AuditReport {
        let mut auditor = TraceAuditor::new();
        for event in events {
            auditor.observe(event);
        }
        auditor.finish()
    }

    /// Parses and audits a JSONL trace.
    ///
    /// # Errors
    ///
    /// [`TraceParseError`] (with its 1-based line number) on the first
    /// malformed line; a corrupted trace is rejected rather than
    /// partially audited.
    pub fn audit_jsonl(text: &str) -> Result<AuditReport, TraceParseError> {
        let mut auditor = TraceAuditor::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = Event::from_json_line(line).map_err(|e| e.at_line(i + 1))?;
            auditor.observe(&event);
        }
        Ok(auditor.finish())
    }

    /// Replays one event.
    pub fn observe(&mut self, event: &Event) {
        self.events += 1;
        match event.kind {
            EventKind::ActionBegin {
                action,
                parent,
                colours,
            } => {
                if let Some(p) = parent {
                    match self.actions.get(&p) {
                        None => self.violations.push(Violation::UnknownAction {
                            action: p,
                            context: "action_begin parent",
                        }),
                        Some(state) if state.ended => {
                            self.violations.push(Violation::ChildOutsideParent {
                                child: action,
                                parent: p,
                            });
                        }
                        Some(_) => {
                            self.live_children.entry(p).or_default().insert(action);
                        }
                    }
                }
                self.actions.insert(
                    action,
                    ActionState {
                        parent,
                        colours,
                        shrunk: false,
                        ended: false,
                    },
                );
            }
            EventKind::ActionCommit { action } | EventKind::ActionAbort { action } => {
                let mut parent = None;
                match self.actions.get_mut(&action) {
                    Some(state) => {
                        state.shrunk = true;
                        state.ended = true;
                        parent = state.parent;
                    }
                    None => self.violations.push(Violation::UnknownAction {
                        action,
                        context: "action termination",
                    }),
                }
                if let Some(p) = parent {
                    if let Some(siblings) = self.live_children.get_mut(&p) {
                        siblings.remove(&action);
                    }
                }
                if let Some(children) = self.live_children.remove(&action) {
                    for child in children {
                        self.violations.push(Violation::ChildOutsideParent {
                            child,
                            parent: action,
                        });
                    }
                }
            }
            EventKind::LockGrant {
                action,
                object,
                colour,
                mode,
            } => {
                if self.snapshot_actions.contains(&action) {
                    self.violations
                        .push(Violation::SnapshotReaderLocks { action, object });
                }
                match self.actions.get(&action) {
                    Some(state) if state.shrunk => {
                        self.violations.push(Violation::LockAfterShrink {
                            action,
                            object,
                            colour,
                        });
                    }
                    Some(_) => {}
                    None => self.violations.push(Violation::UnknownAction {
                        action,
                        context: "lock_grant",
                    }),
                }
                let slot = self
                    .held
                    .entry((action, object, colour.index()))
                    .or_insert(mode);
                *slot = slot.strongest(mode);
            }
            EventKind::LockRelease {
                action,
                object,
                colour,
            } => {
                if let Some(state) = self.actions.get_mut(&action) {
                    state.shrunk = true;
                }
                if self
                    .held
                    .remove(&(action, object, colour.index()))
                    .is_none()
                {
                    self.violations.push(Violation::ReleaseWithoutLock {
                        action,
                        object,
                        colour,
                    });
                }
            }
            EventKind::LockInherit {
                from,
                to,
                object,
                colour,
            } => {
                let moved = self.held.remove(&(from, object, colour.index()));
                if moved.is_none() {
                    self.violations.push(Violation::InheritWithoutLock {
                        from,
                        object,
                        colour,
                    });
                }
                if let Some(state) = self.actions.get_mut(&from) {
                    state.shrunk = true;
                }
                let expected = self.closest_ancestor_with_colour(from, colour);
                if expected != Some(to) {
                    self.violations.push(Violation::BadInheritTarget {
                        from,
                        to,
                        expected,
                        object,
                        colour,
                    });
                }
                if !self.actions.contains_key(&to) {
                    self.violations.push(Violation::UnknownAction {
                        action: to,
                        context: "lock_inherit target",
                    });
                }
                // the ancestor now holds the lock (it may escalate an
                // existing weaker hold)
                let mode = moved.unwrap_or(LockMode::Read);
                let slot = self
                    .held
                    .entry((to, object, colour.index()))
                    .or_insert(mode);
                *slot = slot.strongest(mode);
            }
            EventKind::UndoRecord {
                action,
                object,
                colour,
            } => {
                if !self.actions.contains_key(&action) {
                    self.violations.push(Violation::UnknownAction {
                        action,
                        context: "undo_record",
                    });
                }
                let covered = self
                    .held
                    .get(&(action, object, colour.index()))
                    .is_some_and(|mode| mode.permits_write());
                if !covered {
                    self.violations.push(Violation::WriteWithoutWriteLock {
                        action,
                        object,
                        colour,
                    });
                }
            }
            EventKind::TpcVote { node, txn, yes } => {
                let state = self.txns.entry(txn).or_default();
                if yes {
                    state.yes.insert(node.as_raw());
                    if event.lc > 0 {
                        state.yes_lc.entry(node.as_raw()).or_insert(event.lc);
                    }
                } else {
                    state.no.insert(node.as_raw());
                    if state.decision == Some(true) {
                        self.violations
                            .push(Violation::CommitDespiteNoVote { txn, node });
                    }
                }
            }
            EventKind::TpcDecide {
                node,
                txn,
                commit,
                participants,
            } => {
                let state = self.txns.entry(txn).or_default();
                match state.decision {
                    Some(earlier) if earlier != commit => {
                        self.violations.push(Violation::DivergentDecision {
                            txn,
                            node,
                            earlier,
                            later: commit,
                        });
                    }
                    Some(_) => {}
                    None => {
                        state.decision = Some(commit);
                        state.participants = participants;
                        if commit {
                            let yes_votes = state.yes.len() as u64;
                            if yes_votes < participants {
                                self.violations.push(Violation::CommitWithoutQuorum {
                                    txn,
                                    yes_votes,
                                    participants,
                                });
                            }
                            if let Some(&no_voter) = state.no.iter().next() {
                                self.violations.push(Violation::CommitDespiteNoVote {
                                    txn,
                                    node: NodeId::from_raw(no_voter),
                                });
                            }
                            // R8: the decision must causally follow
                            // every stamped yes-vote it counts.
                            if event.lc > 0 {
                                let mut late: Vec<u32> = state
                                    .yes_lc
                                    .iter()
                                    .filter(|(_, &vlc)| vlc >= event.lc)
                                    .map(|(&voter, _)| voter)
                                    .collect();
                                late.sort_unstable();
                                for voter in late {
                                    self.violations.push(Violation::CommitBeforeVote {
                                        txn,
                                        node: NodeId::from_raw(voter),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            EventKind::TpcResolve { node, txn, commit } => {
                let state = self.txns.entry(txn).or_default();
                match state.decision {
                    Some(earlier) if earlier != commit => {
                        self.violations.push(Violation::DivergentDecision {
                            txn,
                            node,
                            earlier,
                            later: commit,
                        });
                    }
                    Some(_) => {}
                    // presumed abort: a participant may resolve a
                    // transaction whose coordinator never logged a
                    // decision; later events must still agree with it
                    None => state.decision = Some(commit),
                }
            }
            EventKind::TpcAck { from, txn, .. } => {
                self.txns
                    .entry(txn)
                    .or_default()
                    .acked
                    .insert(from.as_raw());
            }
            EventKind::TpcForget { node, txn } => {
                let state = self.txns.entry(txn).or_default();
                let participants = (state.yes.len() as u64).max(state.participants);
                let all_acked =
                    state.yes.is_subset(&state.acked) && state.acked.len() as u64 >= participants;
                if participants == 0 || !all_acked {
                    self.violations.push(Violation::ForgetBeforeAcks {
                        txn,
                        node,
                        acked: state.acked.len() as u64,
                        participants,
                    });
                }
            }
            EventKind::ReplicaInstall {
                node,
                object,
                version,
            } => {
                let key = (node.as_raw(), object.as_raw());
                if let Some(&prev) = self.replica_versions.get(&key) {
                    if version < prev {
                        self.violations.push(Violation::ReplicaVersionRegression {
                            node,
                            object,
                            from: prev,
                            to: version,
                        });
                    }
                }
                let held = self.replica_versions.entry(key).or_insert(version);
                *held = (*held).max(version);
                let group = self.max_installed.entry(object.as_raw()).or_insert(0);
                *group = (*group).max(version);
            }
            EventKind::ReplicaRead {
                node,
                object,
                version,
                stale,
            } => {
                if stale || self.catching_up.contains(&(node.as_raw(), object.as_raw())) {
                    self.violations
                        .push(Violation::ReadDuringCatchup { node, object });
                }
                self.check_staleness(node, object, version);
            }
            EventKind::CatchupBegin { node, object } => {
                self.catching_up.insert((node.as_raw(), object.as_raw()));
            }
            EventKind::CatchupEnd {
                node,
                object,
                version,
            } => {
                self.catching_up.remove(&(node.as_raw(), object.as_raw()));
                self.check_staleness(node, object, version);
            }
            EventKind::MsgSend { .. } => {
                if let Some(corr) = event.corr {
                    // one send per correlation id; keep the first
                    self.sends.entry(corr).or_insert(event.lc);
                }
            }
            EventKind::MsgDeliver { to, .. } => {
                if let Some(corr) = event.corr {
                    match self.sends.get(&corr) {
                        None => self
                            .violations
                            .push(Violation::ReceiveWithoutSend { corr, node: to }),
                        Some(&send_lc) => {
                            if send_lc > 0 && event.lc > 0 && event.lc <= send_lc {
                                self.violations.push(Violation::ClockInversion {
                                    corr,
                                    send_lc,
                                    recv_lc: event.lc,
                                });
                            }
                        }
                    }
                }
            }
            // R9: group-commit coverage. Batch appends accumulate
            // until a group fsync declares how many it covered;
            // checkpoints retire marked batches; recovery must replay
            // exactly the marked-but-unchecked remainder.
            EventKind::DiskAppend { .. } => {
                self.group_appends += 1;
            }
            EventKind::DiskGroupCommit { batches, .. } => {
                self.saw_group_commit = true;
                if batches != self.group_appends {
                    self.violations.push(Violation::GroupFsyncCoverage {
                        declared: batches,
                        appended: self.group_appends,
                    });
                }
                self.group_appends = 0;
                self.marked_unchecked += batches;
                // R11: until the next seal these batches live in the
                // active segment.
                self.active_batches += batches;
            }
            EventKind::DiskCheckpoint { .. } => {
                if self.saw_group_commit {
                    self.marked_unchecked = self.marked_unchecked.saturating_sub(1);
                }
            }
            // R11: segment lifecycle. Seals move the active batches
            // into the sealed-live set; a checkpoint retires every
            // sealed segment up to its watermark; GC must stay at or
            // below it; recovery must replay exactly what is left.
            EventKind::SegmentSeal {
                segment, batches, ..
            } => {
                self.saw_segment = true;
                self.sealed_live.push((segment, batches));
                self.active_batches = 0;
            }
            EventKind::CheckpointEnd { upto, batches, .. } => {
                if self.saw_group_commit {
                    self.marked_unchecked = self.marked_unchecked.saturating_sub(batches);
                }
                self.ckpt_watermark = self.ckpt_watermark.max(upto);
                self.sealed_live.retain(|&(seq, _)| seq > upto);
            }
            EventKind::SegmentGc { segment, .. } => {
                if self.saw_segment && segment > self.ckpt_watermark {
                    self.violations.push(Violation::GcUncheckpointedSegment {
                        segment,
                        watermark: self.ckpt_watermark,
                    });
                }
            }
            EventKind::DiskReplay { batches, .. } => {
                if self.saw_group_commit && batches != self.marked_unchecked {
                    self.violations.push(Violation::ReplayMarkMismatch {
                        replayed: batches,
                        marked: self.marked_unchecked,
                    });
                }
                if self.saw_segment {
                    let live: u64 =
                        self.sealed_live.iter().map(|&(_, b)| b).sum::<u64>() + self.active_batches;
                    if batches != live {
                        self.violations.push(Violation::ReplayManifestMismatch {
                            replayed: batches,
                            live,
                        });
                    }
                }
                // replay installs and collapses the live suffix: no
                // batch stays marked or live (the watermark survives —
                // sequences are monotone across restarts)
                self.marked_unchecked = 0;
                self.sealed_live.clear();
                self.active_batches = 0;
            }
            // R10: a read-only action must never enter the lock table,
            // not even to request or wait — a waiting snapshot reader
            // is a waits-for edge.
            EventKind::LockRequest { action, object, .. }
            | EventKind::LockConflict { action, object, .. } => {
                if self.snapshot_actions.contains(&action) {
                    self.violations
                        .push(Violation::SnapshotReaderLocks { action, object });
                }
            }
            EventKind::SnapshotOpen {
                action,
                colour,
                stamp,
            } => {
                self.snapshot_actions.insert(action);
                self.snapshot_stamps
                    .entry(action)
                    .or_default()
                    .insert(colour.index(), stamp);
            }
            EventKind::SnapshotRead {
                action,
                object,
                stamp,
                ..
            } => {
                let caps = match self.snapshot_stamps.get(&action) {
                    Some(caps) => caps.clone(),
                    None => {
                        self.violations.push(Violation::UnknownAction {
                            action,
                            context: "snapshot_read",
                        });
                        HashMap::new()
                    }
                };
                // Newest published version of the object visible at
                // the captured frontier; publications are appended in
                // stamp order, so the last visible one is the newest.
                let key = (event.node.map_or(0, NodeId::as_raw), object.as_raw());
                let expected = self.published.get(&key).map_or(0, |versions| {
                    versions
                        .iter()
                        .rev()
                        .find(|(ci, s)| caps.get(ci).copied().unwrap_or(0) >= *s)
                        .map_or(0, |&(_, s)| s)
                });
                if stamp != expected {
                    self.violations.push(Violation::SnapshotReadNotNewest {
                        action,
                        object,
                        served: stamp,
                        expected,
                    });
                }
            }
            EventKind::VersionPublish {
                object,
                colour,
                stamp,
            } => {
                let key = (event.node.map_or(0, NodeId::as_raw), object.as_raw());
                self.published
                    .entry(key)
                    .or_default()
                    .push((colour.index(), stamp));
            }
            // Version chains are volatile: after a crash the node's
            // snapshot readers fall back to the stable (stamp-0)
            // state, which must not read as "not newest".
            EventKind::NodeCrash { node } => {
                self.published.retain(|&(n, _), _| n != node.as_raw());
            }
            // WAL activity, the fan-out announcement, recovery
            // markers, GC sweeps, in-flight network perturbations and
            // the online watchdog's own output carry no audited
            // obligations of their own
            EventKind::WalAppend { .. }
            | EventKind::WalFlush { .. }
            | EventKind::ReplicaWrite { .. }
            | EventKind::TpcPrepare { .. }
            | EventKind::NodeRecover { .. }
            | EventKind::MsgDrop { .. }
            | EventKind::MsgDup { .. }
            | EventKind::VersionGc { .. }
            | EventKind::WatchdogViolation { .. }
            | EventKind::MetricsSnapshot { .. }
            | EventKind::CheckpointBegin { .. } => {}
        }
    }

    /// R7: `version` (a served read, or a member's version at rejoin)
    /// must be within `staleness_window` of the group's highest
    /// installed version.
    fn check_staleness(&mut self, node: NodeId, object: ObjectId, version: u64) {
        let latest = self
            .max_installed
            .get(&object.as_raw())
            .copied()
            .unwrap_or(0);
        if version.saturating_add(self.staleness_window) < latest {
            self.violations.push(Violation::StalenessWindowExceeded {
                node,
                object,
                version,
                latest,
                window: self.staleness_window,
            });
        }
    }

    /// The closest proper ancestor of `from` whose colour set contains
    /// `colour`.
    fn closest_ancestor_with_colour(&self, from: ActionId, colour: Colour) -> Option<ActionId> {
        let bit = 1u64 << colour.index();
        let mut cursor = self.actions.get(&from)?.parent;
        let mut hops = 0;
        while let Some(ancestor) = cursor {
            let state = self.actions.get(&ancestor)?;
            if state.colours & bit != 0 {
                return Some(ancestor);
            }
            cursor = state.parent;
            hops += 1;
            if hops > self.actions.len() {
                return None; // cycle in a corrupted trace
            }
        }
        None
    }

    /// Finalises the audit.
    #[must_use]
    pub fn finish(self) -> AuditReport {
        AuditReport {
            events: self.events,
            violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind) -> Event {
        Event::at(0, kind)
    }

    #[test]
    fn clean_nested_lifecycle_passes() {
        let a = ActionId::from_raw(1);
        let child = ActionId::from_raw(2);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let trace = vec![
            ev(EventKind::ActionBegin {
                action: a,
                parent: None,
                colours: 0b1,
            }),
            ev(EventKind::ActionBegin {
                action: child,
                parent: Some(a),
                colours: 0b1,
            }),
            ev(EventKind::LockGrant {
                action: child,
                object: o,
                colour: c,
                mode: LockMode::Write,
            }),
            ev(EventKind::UndoRecord {
                action: child,
                object: o,
                colour: c,
            }),
            ev(EventKind::LockInherit {
                from: child,
                to: a,
                object: o,
                colour: c,
            }),
            ev(EventKind::ActionCommit { action: child }),
            ev(EventKind::LockRelease {
                action: a,
                object: o,
                colour: c,
            }),
            ev(EventKind::ActionCommit { action: a }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.events, trace.len());
    }

    #[test]
    fn clean_replication_lifecycle_passes() {
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let n3 = NodeId::from_raw(3);
        let o = ObjectId::from_raw(9);
        let trace = vec![
            ev(EventKind::ReplicaWrite {
                object: o,
                version: 1,
                fanout: 3,
            }),
            ev(EventKind::ReplicaInstall {
                node: n1,
                object: o,
                version: 1,
            }),
            ev(EventKind::ReplicaInstall {
                node: n2,
                object: o,
                version: 1,
            }),
            // n3 crashed before installing v1 and catches up on recovery
            ev(EventKind::CatchupBegin {
                node: n3,
                object: o,
            }),
            ev(EventKind::ReplicaInstall {
                node: n3,
                object: o,
                version: 1,
            }),
            ev(EventKind::CatchupEnd {
                node: n3,
                object: o,
                version: 1,
            }),
            ev(EventKind::ReplicaRead {
                node: n2,
                object: o,
                version: 1,
                stale: false,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn staleness_window_is_configurable() {
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let o = ObjectId::from_raw(9);
        let trace = [
            ev(EventKind::ReplicaInstall {
                node: n1,
                object: o,
                version: 5,
            }),
            ev(EventKind::ReplicaRead {
                node: n2,
                object: o,
                version: 2,
                stale: false,
            }),
        ];
        let mut strict = TraceAuditor::new();
        for e in &trace {
            strict.observe(e);
        }
        assert!(!strict.finish().is_clean(), "lag 3 must breach window 1");
        let mut lax = TraceAuditor::new().with_staleness_window(3);
        for e in &trace {
            lax.observe(e);
        }
        assert!(lax.finish().is_clean(), "lag 3 fits window 3");
    }

    fn stamped(lc: u64, corr: Option<u64>, kind: EventKind) -> Event {
        let mut e = Event::at(0, kind);
        e.lc = lc;
        e.corr = corr;
        e
    }

    #[test]
    fn r8_send_receive_pair_with_merged_clock_passes() {
        use crate::event::MsgKind;
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let trace = vec![
            stamped(
                3,
                Some(7),
                EventKind::MsgSend {
                    from: n1,
                    to: n2,
                    kind: MsgKind::Prepare,
                },
            ),
            stamped(
                4,
                Some(7),
                EventKind::MsgDeliver {
                    from: n1,
                    to: n2,
                    kind: MsgKind::Prepare,
                },
            ),
        ];
        assert!(TraceAuditor::audit_events(&trace).is_clean());
    }

    #[test]
    fn r8_clock_inversion_fires() {
        use crate::event::MsgKind;
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let trace = vec![
            stamped(
                5,
                Some(7),
                EventKind::MsgSend {
                    from: n1,
                    to: n2,
                    kind: MsgKind::Prepare,
                },
            ),
            // the receive failed to merge: its clock is behind the send's
            stamped(
                3,
                Some(7),
                EventKind::MsgDeliver {
                    from: n1,
                    to: n2,
                    kind: MsgKind::Prepare,
                },
            ),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ClockInversion {
                corr: 7,
                send_lc: 5,
                recv_lc: 3
            }]
        ));
    }

    #[test]
    fn r8_receive_without_send_fires() {
        use crate::event::MsgKind;
        let trace = vec![stamped(
            3,
            Some(9),
            EventKind::MsgDeliver {
                from: NodeId::from_raw(1),
                to: NodeId::from_raw(2),
                kind: MsgKind::Decision,
            },
        )];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ReceiveWithoutSend { corr: 9, .. }]
        ));
    }

    #[test]
    fn r8_child_must_be_enclosed_by_parent() {
        let a = ActionId::from_raw(1);
        let child = ActionId::from_raw(2);
        // parent terminates while the child is still live
        let trace = vec![
            ev(EventKind::ActionBegin {
                action: a,
                parent: None,
                colours: 1,
            }),
            ev(EventKind::ActionBegin {
                action: child,
                parent: Some(a),
                colours: 1,
            }),
            ev(EventKind::ActionCommit { action: a }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ChildOutsideParent { .. }]
        ));
        // child begins after the parent already terminated
        let trace = vec![
            ev(EventKind::ActionBegin {
                action: a,
                parent: None,
                colours: 1,
            }),
            ev(EventKind::ActionCommit { action: a }),
            ev(EventKind::ActionBegin {
                action: child,
                parent: Some(a),
                colours: 1,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ChildOutsideParent { .. }]
        ));
    }

    #[test]
    fn r8_commit_must_follow_votes() {
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let vote = |node, lc| {
            stamped(
                lc,
                None,
                EventKind::TpcVote {
                    node,
                    txn: 4,
                    yes: true,
                },
            )
        };
        let decide = |lc| {
            stamped(
                lc,
                None,
                EventKind::TpcDecide {
                    node: n1,
                    txn: 4,
                    commit: true,
                    participants: 2,
                },
            )
        };
        // clean: the decision's clock exceeds both votes'
        let trace = vec![vote(n1, 2), vote(n2, 5), decide(9)];
        assert!(TraceAuditor::audit_events(&trace).is_clean());
        // corrupted: n2's vote does not happen-before the decision
        let trace = vec![vote(n1, 2), vote(n2, 11), decide(9)];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::CommitBeforeVote { txn: 4, node }] if *node == n2
        ));
    }

    #[test]
    fn r9_clean_group_commit_lifecycle_passes() {
        let append = || {
            ev(EventKind::DiskAppend {
                records: 3,
                bytes: 64,
            })
        };
        let trace = vec![
            append(),
            append(),
            ev(EventKind::DiskGroupCommit {
                batches: 2,
                records: 6,
                bytes: 128,
            }),
            ev(EventKind::DiskCheckpoint { objects: 2 }),
            // second batch crashed before install: replay picks it up
            ev(EventKind::DiskReplay {
                batches: 1,
                objects: 2,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r9_fsync_coverage_mismatch_is_flagged() {
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 3,
                bytes: 64,
            }),
            ev(EventKind::DiskAppend {
                records: 3,
                bytes: 64,
            }),
            // the group fsync claims to cover only one of the two markers
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 3,
                bytes: 64,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::GroupFsyncCoverage {
                declared: 1,
                appended: 2,
            }]
        ));
    }

    #[test]
    fn r9_replay_must_match_marked_batches() {
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 3,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 3,
                bytes: 64,
            }),
            // batch never checkpointed, yet recovery replays nothing
            ev(EventKind::DiskReplay {
                batches: 0,
                objects: 0,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ReplayMarkMismatch {
                replayed: 0,
                marked: 1,
            }]
        ));
    }

    #[test]
    fn r9_stays_unarmed_on_pre_group_commit_traces() {
        // legacy traces have appends/checkpoints/replays but no group
        // fsync events; R9 must not fire on them
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 3,
                bytes: 64,
            }),
            ev(EventKind::DiskCheckpoint { objects: 1 }),
            ev(EventKind::DiskReplay {
                batches: 7,
                objects: 9,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r11_clean_segment_lifecycle_passes() {
        let group = |batches: u64| {
            ev(EventKind::DiskGroupCommit {
                batches,
                records: batches * 2,
                bytes: batches * 64,
            })
        };
        let append = |records: u64| {
            ev(EventKind::DiskAppend {
                records,
                bytes: records * 32,
            })
        };
        let trace = vec![
            append(2),
            append(2),
            group(2),
            ev(EventKind::SegmentSeal {
                segment: 1,
                batches: 2,
                bytes: 256,
            }),
            append(2),
            group(1),
            ev(EventKind::CheckpointBegin {
                segments: 1,
                batches: 2,
            }),
            ev(EventKind::CheckpointEnd {
                upto: 1,
                batches: 2,
                objects: 2,
            }),
            ev(EventKind::SegmentGc {
                segment: 1,
                bytes: 256,
            }),
            // crash + reopen: only the active segment's batch replays
            ev(EventKind::DiskReplay {
                batches: 1,
                objects: 1,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r11_gc_above_watermark_is_flagged() {
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::SegmentSeal {
                segment: 3,
                batches: 1,
                bytes: 64,
            }),
            // GC with no covering checkpoint: the batch is lost
            ev(EventKind::SegmentGc {
                segment: 3,
                bytes: 64,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::GcUncheckpointedSegment {
                segment: 3,
                watermark: 0,
            }]
        ));
    }

    #[test]
    fn r11_replay_must_match_live_suffix() {
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::SegmentSeal {
                segment: 1,
                batches: 1,
                bytes: 64,
            }),
            ev(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            }),
            // live suffix = 1 sealed batch + 1 active batch, but
            // recovery claims to have replayed only one of them
            ev(EventKind::DiskReplay {
                batches: 1,
                objects: 1,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::ReplayManifestMismatch {
                    replayed: 1,
                    live: 2,
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn r11_stays_unarmed_on_pre_segment_traces() {
        // A GC-like event stream without any seal must not arm R11.
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskReplay {
                batches: 1,
                objects: 1,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r11_watermark_survives_replay() {
        // Sequences are monotone across restarts: a post-replay GC of
        // a pre-crash segment is still checked against the watermark.
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::SegmentSeal {
                segment: 1,
                batches: 1,
                bytes: 64,
            }),
            ev(EventKind::CheckpointEnd {
                upto: 1,
                batches: 1,
                objects: 1,
            }),
            ev(EventKind::DiskReplay {
                batches: 0,
                objects: 0,
            }),
            // the old segment's deferred GC is fine: it is behind the
            // watermark even after the restart
            ev(EventKind::SegmentGc {
                segment: 1,
                bytes: 64,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r10_clean_snapshot_trace_passes() {
        let writer = ActionId::from_raw(1);
        let reader = ActionId::from_raw(2);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let trace = vec![
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 1,
            }),
            ev(EventKind::ActionCommit { action: writer }),
            ev(EventKind::SnapshotOpen {
                action: reader,
                colour: c,
                stamp: 1,
            }),
            ev(EventKind::SnapshotRead {
                action: reader,
                object: o,
                colour: c,
                stamp: 1,
            }),
            // a later publish is invisible to the open snapshot
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 2,
            }),
            ev(EventKind::SnapshotRead {
                action: reader,
                object: o,
                colour: c,
                stamp: 1,
            }),
            ev(EventKind::ActionCommit { action: reader }),
        ];
        let mut auditor = TraceAuditor::new();
        for e in &trace {
            auditor.observe(e);
        }
        // `writer` / `reader` never had ActionBegin here, so filter
        // lifecycle noise and keep only R10 verdicts.
        let r10: Vec<_> = auditor
            .finish()
            .violations
            .into_iter()
            .filter(|v| {
                matches!(
                    v,
                    Violation::SnapshotReadNotNewest { .. } | Violation::SnapshotReaderLocks { .. }
                )
            })
            .collect();
        assert!(r10.is_empty(), "{r10:?}");
    }

    #[test]
    fn r10_flags_snapshot_read_that_misses_newest_visible() {
        let reader = ActionId::from_raw(2);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let trace = vec![
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 1,
            }),
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 2,
            }),
            ev(EventKind::SnapshotOpen {
                action: reader,
                colour: c,
                stamp: 2,
            }),
            // stale: stamp 2 is visible but the read served stamp 1
            ev(EventKind::SnapshotRead {
                action: reader,
                object: o,
                colour: c,
                stamp: 1,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations[..],
            [Violation::SnapshotReadNotNewest {
                served: 1,
                expected: 2,
                ..
            }]
        ));
    }

    #[test]
    fn r10_flags_snapshot_read_beyond_its_stamp() {
        let reader = ActionId::from_raw(2);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let trace = vec![
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 1,
            }),
            ev(EventKind::SnapshotOpen {
                action: reader,
                colour: c,
                stamp: 1,
            }),
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 2,
            }),
            // dirty: served a version newer than the captured stamp
            ev(EventKind::SnapshotRead {
                action: reader,
                object: o,
                colour: c,
                stamp: 2,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations[..],
            [Violation::SnapshotReadNotNewest {
                served: 2,
                expected: 1,
                ..
            }]
        ));
    }

    #[test]
    fn r10_flags_snapshot_reader_in_lock_traffic() {
        let reader = ActionId::from_raw(3);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        for kind in [
            EventKind::LockRequest {
                action: reader,
                object: o,
                colour: c,
                mode: LockMode::Read,
            },
            EventKind::LockGrant {
                action: reader,
                object: o,
                colour: c,
                mode: LockMode::Read,
            },
            EventKind::LockConflict {
                action: reader,
                object: o,
                colour: c,
                mode: LockMode::Read,
            },
        ] {
            let trace = vec![
                ev(EventKind::SnapshotOpen {
                    action: reader,
                    colour: c,
                    stamp: 0,
                }),
                ev(kind),
            ];
            let mut auditor = TraceAuditor::new();
            for e in &trace {
                auditor.observe(e);
            }
            let report = auditor.finish();
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::SnapshotReaderLocks { action, .. } if *action == reader)),
                "lock traffic {trace:?} must flag the snapshot reader: {report}"
            );
        }
        // ...while the same traffic from a normal action stays clean
        let writer = ActionId::from_raw(9);
        let trace = vec![
            ev(EventKind::ActionBegin {
                action: writer,
                parent: None,
                colours: 0b1,
            }),
            ev(EventKind::LockRequest {
                action: writer,
                object: o,
                colour: c,
                mode: LockMode::Write,
            }),
            ev(EventKind::LockGrant {
                action: writer,
                object: o,
                colour: c,
                mode: LockMode::Write,
            }),
        ];
        assert!(TraceAuditor::audit_events(&trace).is_clean());
    }

    #[test]
    fn r10_node_crash_resets_published_history() {
        let reader = ActionId::from_raw(4);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let trace = vec![
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 3,
            }),
            // chains are volatile: node 0 is the node-less local key
            ev(EventKind::NodeCrash {
                node: NodeId::from_raw(0),
            }),
            ev(EventKind::NodeRecover {
                node: NodeId::from_raw(0),
            }),
            ev(EventKind::SnapshotOpen {
                action: reader,
                colour: c,
                stamp: 3,
            }),
            // post-crash the read falls back to stable: stamp 0 is
            // correct, not "missed stamp 3"
            ev(EventKind::SnapshotRead {
                action: reader,
                object: o,
                colour: c,
                stamp: 0,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r10_snapshot_read_without_open_is_unknown_action() {
        let report = TraceAuditor::audit_events(&[ev(EventKind::SnapshotRead {
            action: ActionId::from_raw(8),
            object: ObjectId::from_raw(1),
            colour: Colour::from_index(0),
            stamp: 0,
        })]);
        assert!(matches!(
            report.violations[..],
            [Violation::UnknownAction {
                context: "snapshot_read",
                ..
            }]
        ));
    }

    #[test]
    fn report_display_lists_violations() {
        let a = ActionId::from_raw(1);
        let o = ObjectId::from_raw(2);
        let c = Colour::from_index(0);
        let report = TraceAuditor::audit_events(&[ev(EventKind::UndoRecord {
            action: a,
            object: o,
            colour: c,
        })]);
        assert!(!report.is_clean());
        let text = report.to_string();
        assert!(text.contains("violation"), "{text}");
        assert!(text.contains("write lock"), "{text}");
    }
}
