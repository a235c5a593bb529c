//! The cost of a transaction must not grow with history: a coordinator
//! and two participants, each on its own `DiskStore`, run 1,000 2PC
//! transactions, and the last hundred cost exactly as many log bytes
//! and fsyncs as the first hundred. A dispatch that changes nothing —
//! a first vote, a first ack, a stale retry timer — pays no fsync.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use chroma_base::{NodeId, ObjectId};
use chroma_dist::{Effect, Message, Node, TimerTag, TxnId, Write};
use chroma_obs::{EventBus, EventKind, MemorySink, Obs, Observable};
use chroma_store::{DiskStore, StoreBytes};

const TXNS: u64 = 1_000;
const WINDOW: u64 = 100;

struct Member {
    node: Node<DiskStore>,
    sink: Arc<MemorySink>,
    dir: PathBuf,
}

impl Member {
    fn open(tag: &str, raw: u32) -> Member {
        let dir = std::env::temp_dir().join(format!(
            "chroma-history-{tag}-{}-n{raw}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = DiskStore::open(&dir).expect("open store");
        let bus = Arc::new(EventBus::new());
        let sink = Arc::new(MemorySink::new(1 << 20));
        bus.add_sink(sink.clone());
        store.install_obs(Obs::new(bus));
        Member {
            node: Node::builder()
                .id(NodeId::from_raw(raw))
                .store(store)
                .build(),
            sink,
            dir,
        }
    }

    /// Intentions-log fsyncs and appended log bytes so far.
    fn cost(&self) -> (u64, u64) {
        let bytes = self
            .sink
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::DiskAppend { bytes, .. } => bytes,
                _ => 0,
            })
            .sum();
        (self.node.store.log_fsync_count(), bytes)
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

struct Cluster {
    members: HashMap<NodeId, Member>,
    /// Messages in flight, delivered in send order.
    wire: VecDeque<(NodeId, NodeId, Message)>,
}

impl Cluster {
    fn new(tag: &str) -> Cluster {
        Cluster {
            members: [1, 2, 3]
                .into_iter()
                .map(|raw| (NodeId::from_raw(raw), Member::open(tag, raw)))
                .collect(),
            wire: VecDeque::new(),
        }
    }

    fn node(&mut self, raw: u32) -> &mut Node<DiskStore> {
        &mut self.members.get_mut(&NodeId::from_raw(raw)).unwrap().node
    }

    fn cost(&self, raw: u32) -> (u64, u64) {
        self.members[&NodeId::from_raw(raw)].cost()
    }

    /// Queues the sends among `effects`; timers are driven by hand.
    fn post(&mut self, from: NodeId, effects: Vec<Effect>) {
        for effect in effects {
            if let Effect::Send { to, msg } = effect {
                self.wire.push_back((from, to, msg));
            }
        }
    }

    fn begin(&mut self, txn: TxnId) {
        let writes: HashMap<NodeId, Vec<Write>> = [2, 3]
            .map(|raw| {
                let write = Write {
                    object: ObjectId::from_raw(1_000 + txn.0),
                    state: StoreBytes::from(txn.0.to_le_bytes().to_vec()),
                };
                (NodeId::from_raw(raw), vec![write])
            })
            .into_iter()
            .collect();
        let effects = self.node(1).begin_transaction(txn, writes);
        self.post(NodeId::from_raw(1), effects);
    }

    /// Delivers the next message; returns its receiver.
    fn step(&mut self) -> Option<NodeId> {
        let (from, to, msg) = self.wire.pop_front()?;
        let effects = self
            .members
            .get_mut(&to)
            .unwrap()
            .node
            .handle_message(from, msg);
        self.post(to, effects);
        Some(to)
    }

    fn run(&mut self) {
        while self.step().is_some() {}
    }
}

fn per_txn(cluster: &Cluster) -> Vec<(u64, u64)> {
    [1, 2, 3].map(|raw| cluster.cost(raw)).to_vec()
}

#[test]
fn cost_per_txn_does_not_grow_with_history() {
    let mut cluster = Cluster::new("growth");
    // Txn 1 warms up: its commit record's delete rides in txn 2's
    // batch, so every measured txn carries exactly one such delete.
    cluster.begin(TxnId(1));
    cluster.run();
    let mut marks = vec![per_txn(&cluster)];
    for i in 2..=TXNS {
        cluster.begin(TxnId(i));
        cluster.run();
        if i == 1 + WINDOW || i == TXNS - WINDOW || i == TXNS {
            marks.push(per_txn(&cluster));
        }
    }
    // every commit record but the newest is gone: each delete rode in
    // the next transaction's batch
    assert_eq!(cluster.node(1).coordinator_outcome(TxnId(TXNS - 1)), None);
    assert_eq!(cluster.node(1).coordinator_outcome(TxnId(TXNS)), Some(true));
    assert!(cluster.node(3).installed(TxnId(1)));
    let delta = |from: &[(u64, u64)], to: &[(u64, u64)]| -> Vec<(u64, u64)> {
        from.iter()
            .zip(to)
            .map(|(a, b)| (b.0 - a.0, b.1 - a.1))
            .collect()
    };
    let first = delta(&marks[0], &marks[1]);
    let last = delta(&marks[2], &marks[3]);
    assert_eq!(
        first, last,
        "(fsyncs, log bytes) per node: first vs last {WINDOW} txns"
    );
    // one batch at the coordinator, two at each participant, one
    // fsync per batch
    assert_eq!(first[0].0, WINDOW);
    assert_eq!(first[1].0, 2 * WINDOW);
    assert_eq!(first[2].0, 2 * WINDOW);
}

#[test]
fn dispatches_that_change_nothing_pay_no_fsync() {
    let mut cluster = Cluster::new("idle");
    let txn = TxnId(1);
    let coordinator = NodeId::from_raw(1);
    cluster.begin(txn);
    let fsyncs = |c: &Cluster| c.cost(1).0;
    // deliver the two prepares: the participants vote
    cluster.step();
    cluster.step();
    let before = fsyncs(&cluster);
    assert_eq!(cluster.step(), Some(coordinator), "first vote");
    assert_eq!(fsyncs(&cluster), before, "a first vote must not write");
    assert_eq!(cluster.step(), Some(coordinator), "second vote");
    assert_eq!(
        fsyncs(&cluster),
        before + 1,
        "the commit record is one batch"
    );
    // deliver the two decisions: the participants ack
    cluster.step();
    cluster.step();
    let before = fsyncs(&cluster);
    assert_eq!(cluster.step(), Some(coordinator), "first ack");
    assert_eq!(fsyncs(&cluster), before, "a first ack must not write");
    assert_eq!(cluster.step(), Some(coordinator), "second ack");
    assert_eq!(fsyncs(&cluster), before, "the forget joins a later batch");
    for tag in [
        TimerTag::CoordinatorRetry(txn),
        TimerTag::DecisionRetry(txn),
    ] {
        let effects = cluster.node(1).handle_timer(tag);
        assert!(effects.is_empty(), "{tag:?} after the txn ended");
        assert_eq!(fsyncs(&cluster), before, "a stale {tag:?} must not write");
    }
    let participant = cluster.node(2).store.log_fsync_count();
    assert!(cluster
        .node(2)
        .handle_timer(TimerTag::QueryDecision(txn))
        .is_empty());
    assert_eq!(cluster.node(2).store.log_fsync_count(), participant);
    // a clean exit makes the pending delete durable
    cluster.node(1).flush();
    assert_eq!(fsyncs(&cluster), before + 1);
    assert_eq!(cluster.node(1).coordinator_outcome(txn), None);
}
