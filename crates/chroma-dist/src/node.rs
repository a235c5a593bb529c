//! A fail-silent node: stable + volatile halves, two-phase-commit state
//! machines, at-most-once RPC server, replica state.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use chroma_base::{NodeId, ObjectId};
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use chroma_store::{codec, Change, StableStorage, StableStore, StoreBytes};
use serde::{Deserialize, Serialize};

use crate::msg::{Effect, Message, TimerTag, TxnId, Write};
use crate::wire;

/// How often (simulated µs) protocol timers re-fire.
pub const RETRY_INTERVAL: u64 = 50_000;
/// Prepare attempts before a coordinator unilaterally aborts.
pub const MAX_PREPARE_ATTEMPTS: u32 = 5;
/// Decision retransmissions before the coordinator stops pushing (the
/// durable commit record still answers queries afterwards).
pub const MAX_DECISION_ATTEMPTS: u32 = 50;

/// Durable records for the presumed-abort two-phase commit. A node
/// keeps each as one object of its stable store, at an id derived from
/// the transaction and the node's role in it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TpcRecord {
    /// Coordinator decided commit (the commit point). Deleted once
    /// every participant acknowledged the decision.
    CoordCommit {
        /// The transaction.
        txn: TxnId,
        /// The participants that must learn the decision.
        participants: Vec<NodeId>,
    },
    /// Participant prepared: it must find out the decision.
    Prepared {
        /// The transaction.
        txn: TxnId,
        /// Whom to ask.
        coordinator: NodeId,
        /// The writes to install on commit.
        writes: Vec<Write>,
    },
    /// Participant processed the decision; obligation resolved. Replaces
    /// the `Prepared` record and is kept, fixed-size, so a stale
    /// duplicate `Prepare` is recognised.
    ParticipantDone {
        /// The transaction.
        txn: TxnId,
    },
}

impl TpcRecord {
    /// The change that stores this record at its place in the node's
    /// store.
    fn stored(&self) -> Change {
        let (txn, role) = match self {
            TpcRecord::CoordCommit { txn, .. } => (*txn, Role::Coordinator),
            TpcRecord::Prepared { txn, .. } | TpcRecord::ParticipantDone { txn } => {
                (*txn, Role::Participant)
            }
        };
        (role.record(txn), Some(wire::encode_record(self).into()))
    }
}

/// A node's role in a transaction; selects where its record lives.
#[derive(Clone, Copy, Debug)]
enum Role {
    Coordinator = 0,
    Participant = 1,
}

/// 2PC records live at and above this object id, far above any object
/// an application or a co-hosted `Runtime` writes.
const RECORD_BASE: u64 = 1 << 62;
/// Each role's records span `1 << ROLE_SHIFT` ids, one per transaction.
const ROLE_SHIFT: u32 = 60;

impl Role {
    /// The ids of every record of this role.
    fn range(self) -> Range<u64> {
        let low = RECORD_BASE | (self as u64) << ROLE_SHIFT;
        low..low + (1 << ROLE_SHIFT)
    }

    /// Where this role's record for `txn` lives.
    fn record(self, txn: TxnId) -> ObjectId {
        assert!(
            txn.0 < 1 << ROLE_SHIFT,
            "{txn:?} exceeds the 2PC record range"
        );
        ObjectId::from_raw(self.range().start | txn.0)
    }
}

/// Volatile coordinator state for an in-flight transaction.
#[derive(Clone, Debug)]
struct CoordState {
    participants: Vec<NodeId>,
    writes: HashMap<NodeId, Vec<Write>>,
    votes: HashSet<NodeId>,
    decided: Option<bool>,
    acked: HashSet<NodeId>,
    prepare_attempts: u32,
    decision_attempts: u32,
    /// Simulated time the transaction began (for the decide latency
    /// histogram).
    begin_at_us: u64,
}

/// An operation of the built-in RPC key-value service (used to exercise
/// the at-most-once machinery).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RpcOp {
    /// Store `state` under `object` (non-transactional direct write).
    Put(u64, Vec<u8>),
    /// Fetch the state under `object`.
    Get(u64),
    /// Liveness probe.
    Ping,
}

/// Reply of the built-in RPC service.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RpcResult {
    /// Put installed.
    Done,
    /// Get result (`None` = no such object).
    Value(Option<Vec<u8>>),
    /// Pong.
    Pong,
}

/// Volatile client-side state of an outstanding RPC.
#[derive(Clone, Debug)]
struct RpcCall {
    to: NodeId,
    body: StoreBytes,
    reply: Option<StoreBytes>,
    attempts: u32,
}

/// A fail-silent workstation: a simulated one, or one process of a
/// real cluster.
///
/// Everything in the *stable* section survives [`Node::crash`];
/// everything volatile is lost, and [`Node::recover`] rebuilds
/// obligations from the 2PC records in the store — re-sending
/// decisions for committed-but-unacknowledged transactions and querying
/// coordinators for prepared-but-undecided ones.
///
/// The store is the simulator's [`StableStore`] by default; a process
/// host runs the node on a [`DiskStore`](chroma_store::DiskStore)
/// instead. Either way each handler commits at most one batch, holding
/// only what it changed, before it returns its effects — so the 2PC
/// commit point and a participant's prepare record are durable before
/// any message that depends on them can leave.
#[derive(Debug)]
pub struct Node<S = StableStore> {
    id: NodeId,
    /// `false` while crashed: the simulation drops deliveries.
    pub up: bool,
    // ---- stable ----
    /// Installed object states and the 2PC records.
    pub store: S,
    // ---- volatile ----
    coord: HashMap<TxnId, CoordState>,
    /// Commit records whose every participant acknowledged: deleted in
    /// the node's next batch. Presumed abort makes losing the delete
    /// harmless — recovery re-pushes a decision already acknowledged.
    forget: Vec<TxnId>,
    /// Transactions this node will refuse to prepare (fault injection).
    pub veto: HashSet<TxnId>,
    rpc_seen: HashMap<(NodeId, u64), StoreBytes>,
    rpc_calls: HashMap<u64, RpcCall>,
    next_call: u64,
    /// Replicated objects considered stale until a peer confirms.
    pub stale: HashSet<ObjectId>,
    /// Peers per replicated object (for pull-on-recover).
    pub replica_peers: HashMap<ObjectId, Vec<NodeId>>,
    /// Peers whose pull response is still outstanding, per object
    /// (volatile; populated on recovery).
    pull_pending: HashMap<ObjectId, HashSet<NodeId>>,
    /// Observability handle (survives crashes: instrumentation is not
    /// part of the simulated machine).
    obs: ObsCell,
}

impl Node {
    /// Creates an up, empty node on a fresh simulated stable store.
    #[must_use]
    pub fn new(id: NodeId) -> Self {
        Node::with_store(id, StableStore::new())
    }

    /// Starts building a node, mirroring `Runtime::builder()`: identity
    /// and observability can come from a [`Transport`], and the stable
    /// store can be a [`DiskStore`](chroma_store::DiskStore).
    ///
    /// [`Transport`]: crate::Transport
    #[must_use]
    pub fn builder() -> NodeBuilder {
        NodeBuilder {
            id: None,
            obs: None,
            store: StableStore::new(),
        }
    }
}

impl<S: StableStorage> Node<S> {
    fn with_store(id: NodeId, store: S) -> Self {
        Node {
            id,
            up: true,
            store,
            coord: HashMap::new(),
            forget: Vec::new(),
            veto: HashSet::new(),
            rpc_seen: HashMap::new(),
            rpc_calls: HashMap::new(),
            next_call: 1,
            stale: HashSet::new(),
            replica_peers: HashMap::new(),
            pull_pending: HashMap::new(),
            obs: ObsCell::new(),
        }
    }

    /// The node's current observability handle (already bound to its
    /// identity).
    fn obs(&self) -> Obs {
        self.obs.get()
    }

    /// Returns the node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    // ------------------------------------------------------------------
    // Stable storage
    // ------------------------------------------------------------------

    /// A node whose stable storage fails cannot keep its promises: it
    /// stops (fail-silent).
    fn storage_failed(&self, error: &chroma_store::DiskError) -> ! {
        panic!("node {}: stable storage failed: {error}", self.id)
    }

    fn load(&self, object: ObjectId) -> Option<StoreBytes> {
        self.store
            .load(object)
            .unwrap_or_else(|e| self.storage_failed(&e))
    }

    /// This node's 2PC record for `txn` in `role`, if any.
    fn record(&self, txn: TxnId, role: Role) -> Option<TpcRecord> {
        self.decode(role.record(txn))
    }

    fn decode(&self, object: ObjectId) -> Option<TpcRecord> {
        let bytes = self.load(object)?;
        Some(
            wire::decode_record(&bytes).unwrap_or_else(|e| {
                panic!("node {}: unreadable 2PC record {object}: {e}", self.id)
            }),
        )
    }

    /// Commits `changes` as one batch, together with the deletes of any
    /// forgotten commit records.
    fn commit(&mut self, mut changes: Vec<Change>) {
        let forgotten = std::mem::take(&mut self.forget);
        changes.extend(
            forgotten
                .iter()
                .map(|&txn| (Role::Coordinator.record(txn), None)),
        );
        if changes.is_empty() {
            return;
        }
        if let Err(e) = self.store.commit(changes) {
            self.storage_failed(&e);
        }
        for txn in forgotten {
            self.obs().emit(EventKind::TpcForget {
                node: self.id,
                txn: txn.0,
            });
        }
    }

    /// Makes pending deletes of forgotten commit records durable. A
    /// process host calls this before a clean exit; handlers otherwise
    /// carry the deletes in their own next batch.
    pub fn flush(&mut self) {
        self.commit(Vec::new());
    }

    /// Returns this node's record of the decision for `txn`, if it was
    /// the coordinator: `Some(true)` commit, `Some(false)` abort,
    /// `None` undecided/unknown — including a commit whose record the
    /// coordinator already deleted after every participant acknowledged
    /// it (presumed abort).
    #[must_use]
    pub fn coordinator_outcome(&self, txn: TxnId) -> Option<bool> {
        if let Some(decided) = self.coord.get(&txn).and_then(|state| state.decided) {
            return Some(decided);
        }
        self.committed(txn).then_some(true)
    }

    /// Whether this node, as coordinator, still holds the commit record
    /// for `txn` (durably, or with its delete not yet committed).
    fn committed(&self, txn: TxnId) -> bool {
        self.forget.contains(&txn)
            || matches!(
                self.record(txn, Role::Coordinator),
                Some(TpcRecord::CoordCommit { .. })
            )
    }

    /// Returns `true` while this node, as coordinator, still holds
    /// volatile state for `txn` — the transaction is in flight (votes
    /// or acks outstanding). Process hosts poll this to know when a
    /// transaction no longer needs driving.
    #[must_use]
    pub fn coordinator_active(&self, txn: TxnId) -> bool {
        self.coord.contains_key(&txn)
    }

    /// Returns `true` if this node, as a participant, has processed the
    /// decision for `txn` — its obligation is resolved. Whether that
    /// installed anything depends on the decision; check the store.
    #[must_use]
    pub fn installed(&self, txn: TxnId) -> bool {
        matches!(
            self.record(txn, Role::Participant),
            Some(TpcRecord::ParticipantDone { .. })
        )
    }

    /// Returns `true` if the participant has a prepared-but-unresolved
    /// obligation for `txn`.
    #[must_use]
    pub fn in_doubt(&self, txn: TxnId) -> bool {
        matches!(
            self.record(txn, Role::Participant),
            Some(TpcRecord::Prepared { .. })
        )
    }

    // ------------------------------------------------------------------
    // Two-phase commit: coordinator
    // ------------------------------------------------------------------

    /// Starts a distributed transaction with this node as coordinator.
    ///
    /// `writes` maps each participant to the writes it must install; the
    /// coordinator itself may be a participant. Returns the effects to
    /// schedule.
    pub fn begin_transaction(
        &mut self,
        txn: TxnId,
        writes: HashMap<NodeId, Vec<Write>>,
    ) -> Vec<Effect> {
        let participants: Vec<NodeId> = writes.keys().copied().collect();
        let mut effects = Vec::new();
        for (&to, w) in &writes {
            effects.push(Effect::Send {
                to,
                msg: Message::Prepare {
                    txn,
                    writes: w.clone(),
                    coordinator: self.id,
                },
            });
        }
        effects.push(Effect::SetTimer {
            delay: RETRY_INTERVAL,
            tag: TimerTag::CoordinatorRetry(txn),
        });
        self.coord.insert(
            txn,
            CoordState {
                participants,
                writes,
                votes: HashSet::new(),
                decided: None,
                acked: HashSet::new(),
                prepare_attempts: 0,
                decision_attempts: 0,
                begin_at_us: self.obs().now_us(),
            },
        );
        effects
    }

    fn decide(&mut self, txn: TxnId, commit: bool) -> Vec<Effect> {
        let Some(state) = self.coord.get_mut(&txn) else {
            return Vec::new();
        };
        if state.decided.is_some() {
            return Vec::new();
        }
        state.decided = Some(commit);
        let participants = state.participants.clone();
        let begun = state.begin_at_us;
        if commit {
            // The commit point: durable before any Decision leaves.
            let record = TpcRecord::CoordCommit {
                txn,
                participants: participants.clone(),
            };
            self.commit(vec![record.stored()]);
        }
        let mut effects: Vec<Effect> = participants
            .iter()
            .map(|&to| Effect::Send {
                to,
                msg: Message::Decision { txn, commit },
            })
            .collect();
        effects.push(Effect::SetTimer {
            delay: RETRY_INTERVAL,
            tag: TimerTag::DecisionRetry(txn),
        });
        self.obs().emit(EventKind::TpcDecide {
            node: self.id,
            txn: txn.0,
            commit,
            participants: participants.len() as u64,
        });
        self.obs()
            .observe("dist.decide_us", self.obs().now_us().saturating_sub(begun));
        effects
    }

    fn on_vote(&mut self, from: NodeId, txn: TxnId, yes: bool) -> Vec<Effect> {
        let Some(state) = self.coord.get_mut(&txn) else {
            return Vec::new();
        };
        if state.decided.is_some() {
            return Vec::new();
        }
        if !yes {
            return self.decide(txn, false);
        }
        state.votes.insert(from);
        if state.votes.len() == state.participants.len() {
            return self.decide(txn, true);
        }
        Vec::new()
    }

    fn on_ack(&mut self, from: NodeId, txn: TxnId) -> Vec<Effect> {
        let Some(state) = self.coord.get_mut(&txn) else {
            return Vec::new();
        };
        state.acked.insert(from);
        let finished = state.decided.is_some() && state.acked.len() == state.participants.len();
        self.obs().emit(EventKind::TpcAck {
            node: self.id,
            from,
            txn: txn.0,
        });
        if finished {
            let state = self.coord.remove(&txn).expect("state present");
            if state.decided == Some(true) {
                // Every participant knows: the commit record may go,
                // with whatever this node commits next.
                self.forget.push(txn);
            }
        }
        Vec::new()
    }

    fn on_decision_query(&mut self, from: NodeId, txn: TxnId) -> Vec<Effect> {
        // A live, undecided coordinator stays silent (the participant
        // will ask again); otherwise answer from volatile state or the
        // commit record — no record means presumed abort.
        if let Some(state) = self.coord.get(&txn) {
            match state.decided {
                None => return Vec::new(),
                Some(commit) => {
                    return vec![Effect::Send {
                        to: from,
                        msg: Message::Decision { txn, commit },
                    }]
                }
            }
        }
        vec![Effect::Send {
            to: from,
            msg: Message::Decision {
                txn,
                commit: self.committed(txn),
            },
        }]
    }

    // ------------------------------------------------------------------
    // Two-phase commit: participant
    // ------------------------------------------------------------------

    fn on_prepare(&mut self, txn: TxnId, writes: Vec<Write>, coordinator: NodeId) -> Vec<Effect> {
        // Deduplicate: already done → ignore; already prepared →
        // re-vote.
        match self.record(txn, Role::Participant) {
            Some(TpcRecord::ParticipantDone { .. }) => return Vec::new(),
            Some(TpcRecord::Prepared { .. }) => {
                self.obs().emit(EventKind::TpcVote {
                    node: self.id,
                    txn: txn.0,
                    yes: true,
                });
                return vec![Effect::Send {
                    to: coordinator,
                    msg: Message::VoteYes { txn },
                }];
            }
            _ => {}
        }
        if self.veto.contains(&txn) {
            self.obs().emit(EventKind::TpcVote {
                node: self.id,
                txn: txn.0,
                yes: false,
            });
            return vec![Effect::Send {
                to: coordinator,
                msg: Message::VoteNo { txn },
            }];
        }
        let record = TpcRecord::Prepared {
            txn,
            coordinator,
            writes,
        };
        self.commit(vec![record.stored()]);
        self.obs().emit(EventKind::TpcPrepare {
            node: self.id,
            txn: txn.0,
        });
        self.obs().emit(EventKind::TpcVote {
            node: self.id,
            txn: txn.0,
            yes: true,
        });
        vec![
            Effect::Send {
                to: coordinator,
                msg: Message::VoteYes { txn },
            },
            Effect::SetTimer {
                delay: 2 * RETRY_INTERVAL,
                tag: TimerTag::QueryDecision(txn),
            },
        ]
    }

    fn on_decision(&mut self, from: NodeId, txn: TxnId, commit: bool) -> Vec<Effect> {
        let record = self.record(txn, Role::Participant);
        if !matches!(record, Some(TpcRecord::ParticipantDone { .. })) {
            // One batch: the writes, and the done marker in place of
            // the prepare record.
            let mut changes: Vec<Change> = Vec::new();
            let mut installed: Vec<(ObjectId, u64)> = Vec::new();
            if let (true, Some(TpcRecord::Prepared { writes, .. })) = (commit, record) {
                for w in writes {
                    if self.replica_peers.contains_key(&w.object) {
                        if let Ok((version, _)) = codec::from_bytes::<(u64, Vec<u8>)>(&w.state) {
                            let local = self.read_versioned(w.object).map_or(0, |(v, _)| v);
                            if version < local {
                                // A decision that resolved only after
                                // this replica caught up past it:
                                // installing would roll the copy back
                                // (replica divergence).
                                continue;
                            }
                            installed.push((w.object, version));
                        }
                    }
                    changes.push((w.object, Some(w.state)));
                }
            }
            changes.push(TpcRecord::ParticipantDone { txn }.stored());
            self.commit(changes);
            self.obs().emit(EventKind::TpcResolve {
                node: self.id,
                txn: txn.0,
                commit,
            });
            for (object, version) in installed {
                self.obs().emit(EventKind::ReplicaInstall {
                    node: self.id,
                    object,
                    version,
                });
            }
        }
        vec![Effect::Send {
            to: from,
            msg: Message::Ack { txn },
        }]
    }

    // ------------------------------------------------------------------
    // RPC
    // ------------------------------------------------------------------

    /// Starts an at-most-once RPC to `to`; returns the call id and the
    /// effects to schedule. Poll [`Node::rpc_reply`] for the result.
    pub fn rpc_call(&mut self, to: NodeId, op: &RpcOp) -> (u64, Vec<Effect>) {
        let call = self.next_call;
        self.next_call += 1;
        let body = StoreBytes::from(codec::to_bytes(op).expect("rpc op encodes"));
        self.rpc_calls.insert(
            call,
            RpcCall {
                to,
                body: body.clone(),
                reply: None,
                attempts: 0,
            },
        );
        (
            call,
            vec![
                Effect::Send {
                    to,
                    msg: Message::RpcRequest { call, body },
                },
                Effect::SetTimer {
                    delay: RETRY_INTERVAL,
                    tag: TimerTag::RpcRetry(call),
                },
            ],
        )
    }

    /// Returns the decoded reply for `call`, if it has arrived.
    #[must_use]
    pub fn rpc_reply(&self, call: u64) -> Option<RpcResult> {
        let reply = self.rpc_calls.get(&call)?.reply.as_ref()?;
        codec::from_bytes(reply).ok()
    }

    fn serve_rpc(&mut self, from: NodeId, call: u64, body: &StoreBytes) -> Vec<Effect> {
        if let Some(memo) = self.rpc_seen.get(&(from, call)) {
            // Duplicate request: replay the memoised reply, do not
            // re-execute (at-most-once).
            return vec![Effect::Send {
                to: from,
                msg: Message::RpcReply {
                    call,
                    body: memo.clone(),
                },
            }];
        }
        let result = match codec::from_bytes::<RpcOp>(body) {
            Ok(RpcOp::Put(raw, state)) => {
                self.commit(vec![(
                    ObjectId::from_raw(raw),
                    Some(StoreBytes::from(state)),
                )]);
                RpcResult::Done
            }
            Ok(RpcOp::Get(raw)) => {
                RpcResult::Value(self.load(ObjectId::from_raw(raw)).map(|b| b.to_vec()))
            }
            Ok(RpcOp::Ping) | Err(_) => RpcResult::Pong,
        };
        let reply = StoreBytes::from(codec::to_bytes(&result).expect("rpc result encodes"));
        self.rpc_seen.insert((from, call), reply.clone());
        vec![Effect::Send {
            to: from,
            msg: Message::RpcReply { call, body: reply },
        }]
    }

    /// Returns how many distinct RPC requests this node has executed
    /// (duplicates excluded) — used to verify at-most-once execution.
    #[must_use]
    pub fn rpc_executed(&self) -> usize {
        self.rpc_seen.len()
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    fn on_replica_pull(&mut self, from: NodeId, object: ObjectId) -> Vec<Effect> {
        // Always answer: even a stale copy's version contributes to the
        // recovering peer's all-replicas maximum (stable storage
        // survives crashes, so the latest committed version exists at
        // some replica's store even if every replica crashed).
        match self.read_versioned(object) {
            Some((version, state)) => vec![Effect::Send {
                to: from,
                msg: Message::ReplicaState {
                    object,
                    version,
                    state,
                    holder_stale: self.stale.contains(&object),
                },
            }],
            None => vec![Effect::Send {
                to: from,
                msg: Message::ReplicaNone { object },
            }],
        }
    }

    fn on_replica_state(
        &mut self,
        from: NodeId,
        object: ObjectId,
        version: u64,
        state: StoreBytes,
        holder_stale: bool,
    ) -> Vec<Effect> {
        let local = self.read_versioned(object).map(|(v, _)| v).unwrap_or(0);
        if version > local {
            self.write_versioned(object, version, &state);
        }
        // A non-stale holder's copy is authoritative: adopt-and-trust.
        if !holder_stale {
            self.pull_pending.remove(&object);
            if self.stale.remove(&object) {
                self.emit_catchup_end(object);
            }
        } else {
            self.note_pull_response(from, object);
        }
        Vec::new()
    }

    fn on_replica_none(&mut self, from: NodeId, object: ObjectId) -> Vec<Effect> {
        self.note_pull_response(from, object);
        Vec::new()
    }

    /// Records that `from` answered our pull for `object`; once every
    /// peer has answered, the max version we have seen is the latest
    /// committed one (a committed write reached at least one replica's
    /// stable store) and the copy is fresh again.
    fn note_pull_response(&mut self, from: NodeId, object: ObjectId) {
        if let Some(pending) = self.pull_pending.get_mut(&object) {
            pending.remove(&from);
            if pending.is_empty() {
                self.pull_pending.remove(&object);
                if self.stale.remove(&object) {
                    self.emit_catchup_end(object);
                }
            }
        }
    }

    /// Closes this node's catch-up window for `object`, reporting the
    /// version it rejoined the group with.
    fn emit_catchup_end(&self, object: ObjectId) {
        let version = self.read_versioned(object).map_or(0, |(v, _)| v);
        self.obs().emit(EventKind::CatchupEnd {
            node: self.id,
            object,
            version,
        });
    }

    /// Reads a replicated object's `(version, state)` from the store.
    #[must_use]
    pub fn read_versioned(&self, object: ObjectId) -> Option<(u64, StoreBytes)> {
        let bytes = self.load(object)?;
        let (version, state): (u64, Vec<u8>) = codec::from_bytes(&bytes).ok()?;
        Some((version, StoreBytes::from(state)))
    }

    /// Writes a replicated object's `(version, state)` to the store.
    pub fn write_versioned(&mut self, object: ObjectId, version: u64, state: &[u8]) {
        let bytes = codec::to_bytes(&(version, state.to_vec())).expect("versioned encodes");
        self.commit(vec![(object, Some(StoreBytes::from(bytes)))]);
        self.obs().emit(EventKind::ReplicaInstall {
            node: self.id,
            object,
            version,
        });
    }

    // ------------------------------------------------------------------
    // Event entry points (called by the simulation)
    // ------------------------------------------------------------------

    /// Handles a delivered message. Crashed nodes never get here.
    pub fn handle_message(&mut self, from: NodeId, msg: Message) -> Vec<Effect> {
        match msg {
            Message::Prepare {
                txn,
                writes,
                coordinator,
            } => self.on_prepare(txn, writes, coordinator),
            Message::VoteYes { txn } => self.on_vote(from, txn, true),
            Message::VoteNo { txn } => self.on_vote(from, txn, false),
            Message::Decision { txn, commit } => self.on_decision(from, txn, commit),
            Message::Ack { txn } => self.on_ack(from, txn),
            Message::DecisionQuery { txn } => self.on_decision_query(from, txn),
            Message::RpcRequest { call, body } => self.serve_rpc(from, call, &body),
            Message::RpcReply { call, body } => {
                if let Some(state) = self.rpc_calls.get_mut(&call) {
                    state.reply.get_or_insert(body);
                }
                Vec::new()
            }
            Message::ReplicaPull { object } => self.on_replica_pull(from, object),
            Message::ReplicaState {
                object,
                version,
                state,
                holder_stale,
            } => self.on_replica_state(from, object, version, state, holder_stale),
            Message::ReplicaNone { object } => self.on_replica_none(from, object),
        }
    }

    /// Handles a timer firing. Crashed nodes never get here.
    pub fn handle_timer(&mut self, tag: TimerTag) -> Vec<Effect> {
        match tag {
            TimerTag::CoordinatorRetry(txn) => {
                let Some(state) = self.coord.get_mut(&txn) else {
                    return Vec::new();
                };
                if state.decided.is_some() {
                    return Vec::new();
                }
                state.prepare_attempts += 1;
                if state.prepare_attempts >= MAX_PREPARE_ATTEMPTS {
                    return self.decide(txn, false);
                }
                let coordinator = self.id;
                let mut effects: Vec<Effect> = state
                    .participants
                    .iter()
                    .filter(|p| !state.votes.contains(p))
                    .map(|&to| Effect::Send {
                        to,
                        msg: Message::Prepare {
                            txn,
                            writes: state.writes.get(&to).cloned().unwrap_or_default(),
                            coordinator,
                        },
                    })
                    .collect();
                effects.push(Effect::SetTimer {
                    delay: RETRY_INTERVAL,
                    tag: TimerTag::CoordinatorRetry(txn),
                });
                effects
            }
            TimerTag::DecisionRetry(txn) => {
                let Some(state) = self.coord.get_mut(&txn) else {
                    return Vec::new();
                };
                let Some(commit) = state.decided else {
                    return Vec::new();
                };
                state.decision_attempts += 1;
                if state.decision_attempts >= MAX_DECISION_ATTEMPTS {
                    // Stop pushing; the durable record still answers
                    // queries. Drop volatile state for aborts.
                    if !commit {
                        self.coord.remove(&txn);
                    }
                    return Vec::new();
                }
                let mut effects: Vec<Effect> = state
                    .participants
                    .iter()
                    .filter(|p| !state.acked.contains(p))
                    .map(|&to| Effect::Send {
                        to,
                        msg: Message::Decision { txn, commit },
                    })
                    .collect();
                effects.push(Effect::SetTimer {
                    delay: RETRY_INTERVAL,
                    tag: TimerTag::DecisionRetry(txn),
                });
                effects
            }
            TimerTag::QueryDecision(txn) => {
                let Some(TpcRecord::Prepared { coordinator, .. }) =
                    self.record(txn, Role::Participant)
                else {
                    return Vec::new();
                };
                vec![
                    Effect::Send {
                        to: coordinator,
                        msg: Message::DecisionQuery { txn },
                    },
                    Effect::SetTimer {
                        delay: 2 * RETRY_INTERVAL,
                        tag: TimerTag::QueryDecision(txn),
                    },
                ]
            }
            TimerTag::RpcRetry(call) => {
                let Some(state) = self.rpc_calls.get_mut(&call) else {
                    return Vec::new();
                };
                if state.reply.is_some() || state.attempts >= MAX_DECISION_ATTEMPTS {
                    return Vec::new();
                }
                state.attempts += 1;
                vec![
                    Effect::Send {
                        to: state.to,
                        msg: Message::RpcRequest {
                            call,
                            body: state.body.clone(),
                        },
                    },
                    Effect::SetTimer {
                        delay: RETRY_INTERVAL,
                        tag: TimerTag::RpcRetry(call),
                    },
                ]
            }
        }
    }

    /// Crashes the node: volatile state vanishes.
    pub fn crash(&mut self) {
        self.up = false;
        self.coord.clear();
        self.forget.clear();
        self.rpc_seen.clear();
        self.rpc_calls.clear();
        self.pull_pending.clear();
        // Replicated copies may have missed writes while down — except
        // unreplicated objects (no peers), whose only copy is ours.
        let replicated: Vec<ObjectId> = self
            .replica_peers
            .iter()
            .filter(|(_, peers)| !peers.is_empty())
            .map(|(&o, _)| o)
            .collect();
        self.stale.extend(replicated);
    }

    /// Recovers the node: rebuilds protocol obligations from the 2PC
    /// records, pulls replica state from peers. Returns the effects to
    /// schedule.
    pub fn recover(&mut self) -> Vec<Effect> {
        self.up = true;
        let mut effects = Vec::new();

        // Coordinator obligations: a commit record still present means
        // some participant may not know yet → push the decision again.
        for object in self.record_ids(Role::Coordinator) {
            let Some(TpcRecord::CoordCommit { txn, participants }) = self.decode(object) else {
                continue;
            };
            for &to in &participants {
                effects.push(Effect::Send {
                    to,
                    msg: Message::Decision { txn, commit: true },
                });
            }
            effects.push(Effect::SetTimer {
                delay: RETRY_INTERVAL,
                tag: TimerTag::DecisionRetry(txn),
            });
            self.coord.insert(
                txn,
                CoordState {
                    participants,
                    writes: HashMap::new(),
                    votes: HashSet::new(),
                    decided: Some(true),
                    acked: HashSet::new(),
                    prepare_attempts: 0,
                    decision_attempts: 0,
                    begin_at_us: self.obs().now_us(),
                },
            );
        }

        // Participant obligations: prepared but not done → query.
        for object in self.record_ids(Role::Participant) {
            if let Some(TpcRecord::Prepared {
                txn, coordinator, ..
            }) = self.decode(object)
            {
                effects.push(Effect::Send {
                    to: coordinator,
                    msg: Message::DecisionQuery { txn },
                });
                effects.push(Effect::SetTimer {
                    delay: 2 * RETRY_INTERVAL,
                    tag: TimerTag::QueryDecision(txn),
                });
            }
        }

        // Replicas: pull fresh state from peers, tracking whom we wait
        // for so staleness can end when every peer has answered.
        for (&object, peers) in &self.replica_peers {
            if peers.is_empty() {
                continue;
            }
            if self.stale.contains(&object) {
                self.obs().emit(EventKind::CatchupBegin {
                    node: self.id,
                    object,
                });
            }
            self.pull_pending
                .insert(object, peers.iter().copied().collect());
            for &peer in peers {
                effects.push(Effect::Send {
                    to: peer,
                    msg: Message::ReplicaPull { object },
                });
            }
        }
        effects
    }

    /// The ids of every 2PC record of `role` in the store.
    fn record_ids(&self, role: Role) -> Vec<ObjectId> {
        self.store
            .ids_in(role.range())
            .unwrap_or_else(|e| self.storage_failed(&e))
    }
}

impl<S> Observable for Node<S> {
    /// Installs an observability handle, rebound to this node's
    /// identity first, so every event the node emits carries a `node`
    /// field and ticks this node's Lamport clock. The store is left
    /// alone: a shared [`DiskStore`](chroma_store::DiskStore)'s segment
    /// and checkpoint events are not this node's.
    fn install_obs(&self, obs: Obs) {
        self.obs.set(obs.at_node(self.id));
    }
}

/// Builds a [`Node`], mirroring `Runtime::builder()`.
///
/// # Examples
///
/// ```
/// use chroma_base::NodeId;
/// use chroma_dist::Node;
///
/// let node = Node::builder().id(NodeId::from_raw(3)).build();
/// assert_eq!(node.id(), NodeId::from_raw(3));
/// ```
pub struct NodeBuilder<S = StableStore> {
    id: Option<NodeId>,
    obs: Option<Obs>,
    store: S,
}

impl<S: StableStorage> NodeBuilder<S> {
    /// Sets the node's identity.
    #[must_use]
    pub fn id(mut self, id: NodeId) -> Self {
        self.id = Some(id);
        self
    }

    /// Takes identity and observability from `transport` — the usual
    /// way a process host builds its node.
    #[must_use]
    pub fn transport(mut self, transport: &impl crate::Transport) -> Self {
        self.id = Some(transport.local());
        let obs = transport.obs();
        if obs.enabled() {
            self.obs = Some(obs);
        }
        self
    }

    /// Installs an observability handle on the built node.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Runs the node on `store` — e.g. a process's
    /// [`DiskStore`](chroma_store::DiskStore) — instead of a fresh
    /// simulated one.
    #[must_use]
    pub fn store<T: StableStorage>(self, store: T) -> NodeBuilder<T> {
        NodeBuilder {
            id: self.id,
            obs: self.obs,
            store,
        }
    }

    /// Builds the node. Call [`Node::recover`] on it to pick up the
    /// obligations a non-empty store records.
    ///
    /// # Panics
    ///
    /// Panics if no identity was provided via [`NodeBuilder::id`] or
    /// [`NodeBuilder::transport`].
    #[must_use]
    pub fn build(self) -> Node<S> {
        let id = self.id.expect("NodeBuilder requires an id or transport");
        let node = Node::with_store(id, self.store);
        if let Some(obs) = self.obs {
            node.install_obs(obs);
        }
        node
    }
}
