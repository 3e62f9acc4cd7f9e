//! Cluster assembly: one [`Partition`] per shared-nothing partition leader,
//! plus the simulated network, control bus and group-commit scheme shared by
//! all of them.

use crate::commit::{build_atomic_commit, AtomicCommit};
use parking_lot::Mutex;
use primo_common::config::ClusterConfig;
use primo_common::{Histogram, PartitionId, Ts, TxnId};
use primo_net::{DelayedBus, SimNetwork};
use primo_recovery::{
    compensate_survivors, CheckpointStats, Checkpointer, CrashContext, RecoveryManager,
    RecoveryReport,
};
use primo_storage::{PartitionStore, Record};
use primo_trace::{FlightRecorder, TraceEventKind};
use primo_wal::{build_group_commit, FoldScope, GroupCommit, ReplicatedLog};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One shared-nothing partition (leader).
#[derive(Debug)]
pub struct Partition {
    pub id: PartitionId,
    pub store: PartitionStore,
    /// The partition's replicated durable log: a quorum of replicas is the
    /// unit of durability, not any single copy.
    pub log: Arc<ReplicatedLog>,
    /// Local transaction counter for TID assignment (§4.1).
    next_seq: AtomicU64,
    /// Extra per-transaction execution delay, microseconds. Simulates a slow
    /// partition ("masked cores", Fig 13b).
    slowdown_us: AtomicU64,
    /// Records a commit installed a new version into, with that version's
    /// commit timestamp, in install order: what each install superseded is
    /// dead once the snapshot horizon reaches the timestamp
    /// ([`Cluster::note_installed`]).
    superseded: Mutex<VecDeque<(Arc<Record>, Ts)>>,
    /// The snapshot horizon when somebody last saw the group commit release
    /// a result ([`Cluster::horizon_moved`]): the bound the install path
    /// reclaims superseded versions against. The horizon is monotone, so a
    /// stale value is a smaller bound — it reclaims later, never wrongly —
    /// and the word publishes nothing but itself (`Relaxed`). One copy per
    /// partition, beside the queue it is read with.
    version_horizon: AtomicU64,
    /// Superseded versions reclaimed from this partition's records.
    pruned_versions: AtomicU64,
}

/// The front of a reclamation queue, if the horizon has reached it.
fn pop_due(queue: &mut VecDeque<(Arc<Record>, Ts)>, horizon: Ts) -> Option<Arc<Record>> {
    let due = queue.front().is_some_and(|(_, cts)| *cts <= horizon);
    due.then(|| queue.pop_front().expect("front was just seen").0)
}

impl Partition {
    fn new(id: PartitionId, log: Arc<ReplicatedLog>, max_versions: usize) -> Self {
        Partition {
            id,
            store: PartitionStore::with_max_versions(id, max_versions),
            log,
            next_seq: AtomicU64::new(1),
            slowdown_us: AtomicU64::new(0),
            superseded: Mutex::new(VecDeque::new()),
            version_horizon: AtomicU64::new(0),
            pruned_versions: AtomicU64::new(0),
        }
    }

    /// Assign a globally unique TID coordinated by this partition.
    pub fn next_txn_id(&self, global_seq: &AtomicU64) -> TxnId {
        // The sequence component is global so that WAIT_DIE priorities are
        // comparable across coordinators (older == smaller everywhere).
        let seq = global_seq.fetch_add(1, Ordering::Relaxed);
        let _ = self.next_seq.fetch_add(1, Ordering::Relaxed);
        TxnId::new(self.id, seq)
    }

    pub fn set_slowdown_us(&self, us: u64) {
        self.slowdown_us.store(us, Ordering::Relaxed);
    }

    pub fn slowdown_us(&self) -> u64 {
        self.slowdown_us.load(Ordering::Relaxed)
    }

    /// Number of transactions this partition has coordinated.
    pub fn coordinated_txns(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed) - 1
    }

    /// Installs on this partition whose superseded versions are still
    /// retained for snapshot readers below their commit timestamp.
    pub fn versions_awaiting_horizon(&self) -> usize {
        self.superseded.lock().len()
    }

    /// Drop from `records` every version the horizon has passed.
    fn prune(&self, records: impl IntoIterator<Item = Arc<Record>>, horizon: Ts) {
        let pruned: usize = (records.into_iter())
            .map(|r| r.prune_versions(horizon))
            .sum();
        if pruned > 0 {
            self.pruned_versions
                .fetch_add(pruned as u64, Ordering::Relaxed);
        }
    }
}

/// The whole simulated cluster.
pub struct Cluster {
    pub config: ClusterConfig,
    pub partitions: Vec<Arc<Partition>>,
    pub net: Arc<SimNetwork>,
    pub bus: Arc<DelayedBus>,
    pub group_commit: Arc<dyn GroupCommit>,
    /// The cluster flight recorder: every layer (workers, commit paths, the
    /// replicated logs, group-commit agents, recovery) emits its trace
    /// events here. Always present; recording itself is gated by
    /// `config.trace.enabled`.
    pub recorder: Arc<FlightRecorder>,
    /// The distributed atomic-commit protocol every prepare/decide path runs
    /// through (classic blocking 2PC or non-blocking Paxos Commit, per
    /// `config.commit_mode`).
    atomic_commit: Arc<dyn AtomicCommit>,
    /// One-shot coordinator-crash injection: `partition.0 + 1` when armed
    /// for that partition, 0 when disarmed. The next distributed prepare
    /// coordinated by the armed partition consumes it and "dies" between
    /// the vote round and the decision.
    coordinator_crash: AtomicU64,
    /// Transactions orphaned by a coordinator crash under classic 2PC
    /// (their locks leak; the participants block).
    orphaned_txns: AtomicU64,
    /// In-doubt transactions terminated from the durable vote set (live
    /// Paxos Commit resolution plus recovery-time sealing).
    in_doubt_resolved: AtomicU64,
    /// Prepare→decide latency of distributed commits, microseconds.
    commit_decide_us: Histogram,
    /// Global transaction sequence (see [`Partition::next_txn_id`]).
    global_seq: AtomicU64,
    /// Crash-time state of currently-crashed partitions, captured by
    /// [`Cluster::crash_partition`] and consumed by
    /// [`Cluster::recover_partition`].
    pending_crashes: Mutex<HashMap<u32, CrashContext>>,
    /// Total crash-rolled-back transactions whose surviving-partition
    /// residue was compensated (see [`Cluster::crash_partition`]).
    compensated_txns: AtomicU64,
    /// Batched remote-read fan-outs issued (one per resolved non-empty
    /// [`Footprint`](crate::prefetch::Footprint)).
    prefetch_fanouts: AtomicU64,
    /// Remote reads served from a prefetch buffer (no round trip charged).
    prefetch_hits: AtomicU64,
    /// Remote reads whose prefetched record moved underneath the buffer
    /// (fell back to a fresh round trip).
    prefetch_stale: AtomicU64,
    /// Remote reads with no prefetch entry (unplanned keys, or batching
    /// off) — the sequential path.
    prefetch_misses: AtomicU64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("partitions", &self.partitions.len())
            .field("group_commit", &self.group_commit.label())
            .finish()
    }
}

impl Cluster {
    /// Build a cluster from a configuration: partitions, network, control
    /// bus and the configured group-commit scheme.
    pub fn new(config: ClusterConfig) -> Arc<Self> {
        let n = config.num_partitions;
        let net = Arc::new(SimNetwork::new(n, config.net, config.seed));
        // Control messages (watermarks / epochs) travel one-way over the bus;
        // give them the same base latency as a data message.
        let bus = DelayedBus::new(n, config.net.one_way_us + config.net.control_msg_extra_us);
        // The replicated durable logs exist before the group-commit scheme:
        // watermark agents log their published `Wp` and COCO seals epoch
        // boundaries into them, which is what bounds recovery replay. Each
        // non-leader replica pays the one-way network hop on top of its own
        // persist delay, so replication cost shows up in quorum-ack latency
        // (and the fan-out messages are accounted on the network).
        let logs: Vec<Arc<ReplicatedLog>> = (0..n)
            .map(|p| {
                Arc::new(ReplicatedLog::new(
                    PartitionId(p as u32),
                    config.wal,
                    config.net.one_way_us,
                    Some(Arc::clone(&net)),
                ))
            })
            .collect();
        let group_commit = build_group_commit(n, config.wal, Arc::clone(&bus), logs.clone());
        // Wire the flight recorder into every layer before any transaction
        // traffic: the logs (sequencer waits, quorum acks, leader changes)
        // and the scheme's background agents (watermark / epoch / CLV
        // decisions). Workers and recovery reach it through the cluster.
        let recorder = Arc::new(FlightRecorder::new(
            config.trace.enabled,
            config.trace.ring_capacity,
        ));
        for log in &logs {
            log.set_recorder(Arc::clone(&recorder));
        }
        group_commit.set_recorder(Arc::clone(&recorder));
        // Per-hop message events are opt-in: the network's recorder stays
        // unset unless the knob is on, so the send hot path pays nothing.
        if config.trace.trace_messages {
            net.set_recorder(Arc::clone(&recorder));
        }
        let max_versions = config.primo.max_versions;
        let partitions = logs
            .into_iter()
            .enumerate()
            .map(|(p, log)| Arc::new(Partition::new(PartitionId(p as u32), log, max_versions)))
            .collect();
        let atomic_commit = build_atomic_commit(config.commit_mode);
        Arc::new(Cluster {
            config,
            partitions,
            net,
            bus,
            group_commit,
            recorder,
            atomic_commit,
            coordinator_crash: AtomicU64::new(0),
            orphaned_txns: AtomicU64::new(0),
            in_doubt_resolved: AtomicU64::new(0),
            commit_decide_us: Histogram::new(),
            global_seq: AtomicU64::new(1),
            pending_crashes: Mutex::new(HashMap::new()),
            compensated_txns: AtomicU64::new(0),
            prefetch_fanouts: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_stale: AtomicU64::new(0),
            prefetch_misses: AtomicU64::new(0),
        })
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    pub fn partition(&self, id: PartitionId) -> &Arc<Partition> {
        &self.partitions[id.idx()]
    }

    /// Assign a new TID coordinated by `coord`.
    pub fn next_txn_id(&self, coord: PartitionId) -> TxnId {
        self.partitions[coord.idx()].next_txn_id(&self.global_seq)
    }

    /// The atomic-commit protocol this cluster runs distributed commits
    /// through (see [`AtomicCommit`]).
    pub fn atomic_commit(&self) -> &Arc<dyn AtomicCommit> {
        &self.atomic_commit
    }

    /// Arm a one-shot coordinator crash: the next distributed prepare
    /// coordinated by `p` dies between its vote round and the decision.
    /// Unlike [`Cluster::crash_partition`] this fells a single worker's
    /// transaction, not the partition — the partition keeps serving, but
    /// nobody is left to finish that transaction's commit protocol.
    pub fn arm_coordinator_crash(&self, p: PartitionId) {
        self.coordinator_crash
            .store(u64::from(p.0) + 1, Ordering::SeqCst);
    }

    /// Consume an armed coordinator crash for coordinator `p`. Returns true
    /// at most once per arming (the commit layer calls this at its
    /// injection point).
    pub fn take_coordinator_crash(&self, p: PartitionId) -> bool {
        self.coordinator_crash
            .compare_exchange(u64::from(p.0) + 1, 0, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
    }

    /// Whether a coordinator crash is still armed (i.e. no distributed
    /// prepare has consumed it yet).
    pub fn coordinator_crash_armed(&self) -> bool {
        self.coordinator_crash.load(Ordering::SeqCst) != 0
    }

    /// Account one transaction orphaned by a coordinator crash under
    /// classic 2PC.
    pub fn note_orphaned_txn(&self) {
        self.orphaned_txns.fetch_add(1, Ordering::Relaxed);
    }

    /// Transactions orphaned by coordinator crashes (blocked forever —
    /// classic 2PC's failure mode; always 0 under Paxos Commit).
    pub fn orphaned_txns(&self) -> u64 {
        self.orphaned_txns.load(Ordering::Relaxed)
    }

    /// Account one in-doubt transaction terminated from the durable vote
    /// set (live resolution or recovery-time sealing).
    pub fn note_in_doubt_resolved(&self) {
        self.in_doubt_resolved.fetch_add(1, Ordering::Relaxed);
    }

    /// In-doubt transactions resolved so far (reported as
    /// `in_doubt_resolved` in
    /// [`MetricsSnapshot`](primo_common::MetricsSnapshot)).
    pub fn in_doubt_resolved(&self) -> u64 {
        self.in_doubt_resolved.load(Ordering::Relaxed)
    }

    /// Account one batched remote-read fan-out.
    pub fn note_prefetch_fanout(&self) {
        self.prefetch_fanouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Batched remote-read fan-outs issued so far.
    pub fn prefetch_fanouts(&self) -> u64 {
        self.prefetch_fanouts.load(Ordering::Relaxed)
    }

    /// Account one remote read served from a prefetch buffer.
    pub fn note_prefetch_hit(&self) {
        self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Remote reads served from prefetch buffers so far.
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits.load(Ordering::Relaxed)
    }

    /// Account one stale prefetch (entry present, record moved).
    pub fn note_prefetch_stale(&self) {
        self.prefetch_stale.fetch_add(1, Ordering::Relaxed);
    }

    /// Stale prefetches so far.
    pub fn prefetch_stale(&self) -> u64 {
        self.prefetch_stale.load(Ordering::Relaxed)
    }

    /// Account one remote read without a prefetch entry.
    pub fn note_prefetch_miss(&self) {
        self.prefetch_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Prefetch-less remote reads so far.
    pub fn prefetch_misses(&self) -> u64 {
        self.prefetch_misses.load(Ordering::Relaxed)
    }

    /// Fraction of remote reads served from a prefetch buffer (reported as
    /// `prefetch_hit_rate` in
    /// [`MetricsSnapshot`](primo_common::MetricsSnapshot); 0 when no remote
    /// read ran).
    pub fn prefetch_hit_rate(&self) -> f64 {
        let hits = self.prefetch_hits();
        let total = hits + self.prefetch_stale() + self.prefetch_misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Record one distributed commit's prepare→decide latency.
    pub fn record_commit_decision(&self, us: u64) {
        self.commit_decide_us.record_us(us);
    }

    /// Number of distributed commit decisions whose latency was recorded.
    pub fn commit_decisions(&self) -> u64 {
        self.commit_decide_us.count()
    }

    /// Mean prepare→decide latency of distributed commits, microseconds.
    pub fn commit_decide_mean_us(&self) -> f64 {
        self.commit_decide_us.mean_us()
    }

    /// p99 prepare→decide latency of distributed commits, microseconds.
    pub fn commit_decide_p99_us(&self) -> u64 {
        self.commit_decide_us.percentile_us(0.99)
    }

    /// All partition ids.
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        (0..self.partitions.len())
            .map(|p| PartitionId(p as u32))
            .collect()
    }

    /// Crash a partition leader: the partition becomes unreachable, the
    /// group commit agrees on the rollback point (§5.2), the replicated log
    /// hands leadership to the deterministic successor replica, and the
    /// crash-time **quorum** LSN is captured — entries that never reached a
    /// majority of replicas are treated as lost.
    ///
    /// Atomic commit demands all-or-nothing across every participant, so the
    /// crash-abort is then made atomic across partitions: every *surviving*
    /// partition undoes the installed writes of the transactions the
    /// agreement rolled back (restoring the before-images logged with each
    /// write-set) and seals them with `TxnRolledBack` markers — the crashed
    /// partition itself converges through bounded replay during recovery.
    /// Returns the agreed token (watermark / epoch).
    pub fn crash_partition(&self, p: PartitionId) -> Ts {
        self.crash_partition_impl(p, false)
    }

    /// [`Cluster::crash_partition`], but the dead leader's **local log
    /// replica is discarded too** (disk loss, not just memory loss). With a
    /// replication factor above one, the surviving quorum still reproduces
    /// every acknowledged transaction; with a single-copy log the history is
    /// honestly gone and recovery rebuilds an empty store.
    pub fn crash_partition_discarding_log(&self, p: PartitionId) -> Ts {
        self.crash_partition_impl(p, true)
    }

    fn crash_partition_impl(&self, p: PartitionId, discard_log: bool) -> Ts {
        self.recorder
            .emit(None, Some(p), TraceEventKind::CrashInjected);
        self.net.set_crashed(p, true);
        let token = self.group_commit.on_partition_crash(p);
        // Capture the quorum horizon — between, never inside, checkpoint
        // fold chunks, and with the partition already marked down so no
        // later chunk starts — **before** the hand-off wipes the dead
        // leader's disk: everything quorum-durable at the crash instant is
        // physically present on every replica (the capture itself brings
        // the followers up to the leader's end, and the fail-over carries
        // over whatever is appended after that), so the surviving copies can
        // reproduce it — whereas capturing after
        // the wipe would drop the dead leader's vote and, at replication
        // factor 2, misreport fully-acknowledged history as lost. The
        // fail-over then bumps the term (restarting any in-flight replay)
        // and elects the successor the recovery will read from.
        let crash = CrashContext::capture(p, token, &self.partition(p).log);
        self.partition(p).log.fail_over(discard_log);
        self.pending_crashes.lock().insert(p.0, crash);
        let survivors = self
            .partitions
            .iter()
            .filter(|q| q.id != p && !self.net.is_crashed(q.id))
            .map(|q| (q.id, &q.store, q.log.as_ref()));
        let compensated = compensate_survivors(
            survivors,
            self.group_commit.as_ref(),
            token,
            Some(&self.recorder),
        );
        self.compensated_txns
            .fetch_add(compensated as u64, Ordering::Relaxed);
        // Every rolled-back version is purged from the survivors' chains:
        // the snapshot horizon no longer needs to stay capped below the
        // agreement.
        self.group_commit.on_compensation_complete();
        token
    }

    /// Crash only the *replacement leader* of a partition that is already
    /// down or mid-recovery: leadership hands off to the next deterministic
    /// successor replica (no new cluster agreement is needed — the
    /// partition was not serving). An in-flight recovery notices the term
    /// bump and restarts its replay against the new leader's log copy.
    pub fn crash_replacement_leader(&self, p: PartitionId, discard_log: bool) -> usize {
        self.partition(p).log.fail_over(discard_log)
    }

    /// Total crash-rolled-back transactions compensated on surviving
    /// partitions so far (reported as `compensated_txns` in
    /// [`MetricsSnapshot`](primo_common::MetricsSnapshot)).
    pub fn compensated_txns(&self) -> u64 {
        self.compensated_txns.load(Ordering::Relaxed)
    }

    /// Total leader hand-offs across all partitions' replicated logs
    /// (reported as `leader_changes` in
    /// [`MetricsSnapshot`](primo_common::MetricsSnapshot)).
    pub fn leader_changes(&self) -> u64 {
        self.partitions.iter().map(|p| p.log.leader_changes()).sum()
    }

    /// Replication lag: the worst partition's quorum-ack delay — the time
    /// between appending a log record and its quorum acknowledgement
    /// (reported as `replication_lag_us`; equals the local persist delay
    /// when the log is single-copy).
    pub fn replication_lag_us(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.log.quorum_ack_delay_us())
            .max()
            .unwrap_or(0)
    }

    /// Total microseconds committers spent blocked on a partition's log
    /// sequencer — contention on the append's commit critical section
    /// (reported as `wal_append_wait_us` in
    /// [`MetricsSnapshot`](primo_common::MetricsSnapshot)).
    pub fn wal_append_wait_us(&self) -> u64 {
        self.partitions.iter().map(|p| p.log.append_wait_us()).sum()
    }

    /// Mean entries per follower catch-up across all partitions (reported
    /// as `replication_batch_len`; 0 when nothing was replicated, e.g. at
    /// replication factor 1).
    pub fn replication_batch_len(&self) -> f64 {
        let (entries, batches) = self.partitions.iter().fold((0u64, 0u64), |(e, b), p| {
            (
                e + p.log.replicated_entries(),
                b + p.log.replication_batches(),
            )
        });
        if batches == 0 {
            0.0
        } else {
            entries as f64 / batches as f64
        }
    }

    /// Recover a crashed partition for real: wipe its store and rebuild it
    /// from the latest durable checkpoint plus bounded durable-log replay
    /// (see [`RecoveryManager`]). The partition stays unreachable until the
    /// replay finishes. Returns `None` (and just clears the crash flag) if
    /// the partition was never crashed through
    /// [`Cluster::crash_partition`].
    pub fn recover_partition(&self, p: PartitionId) -> Option<RecoveryReport> {
        self.recover_partition_with_fault(p, &mut || {})
    }

    /// [`Cluster::recover_partition`] with a fault-injection hook invoked
    /// mid-replay (after each replay pass, before the leadership-term
    /// check). Tests use it to crash the replacement leader at a
    /// deterministic point and pin the hand-off to the successor replica.
    pub fn recover_partition_with_fault(
        &self,
        p: PartitionId,
        mid_replay: &mut dyn FnMut(),
    ) -> Option<RecoveryReport> {
        let Some(crash) = self.pending_crashes.lock().remove(&p.0) else {
            self.net.set_crashed(p, false);
            return None;
        };
        let partition = self.partition(p);
        // The wipe detaches every record of the store: nothing queued for
        // reclamation is reachable by a reader any more.
        partition.superseded.lock().clear();
        let report = RecoveryManager::recover_with_fault(
            &partition.store,
            &partition.log,
            self.group_commit.as_ref(),
            &self.net,
            &crash,
            Some(&self.recorder),
            mid_replay,
        );
        self.in_doubt_resolved
            .fetch_add(report.in_doubt_resolved as u64, Ordering::Relaxed);
        Some(report)
    }

    /// Fold one partition's log into its rolling checkpoint image — the one
    /// retention path, shared by the commit path's self-driven step
    /// ([`Cluster::fold_due_logs`], a bounded chunk) and explicit checkpoints
    /// ([`Cluster::checkpoint_partition`], everything foldable).
    ///
    /// Never runs on a crashed or recovering partition: a dead leader cannot
    /// checkpoint, and — more subtly — a post-crash fold would absorb the
    /// crash-volatile log tail and drain entries that the eventual recovery
    /// (which is pinned to the crash-time durable LSN) still needs. The
    /// health check runs under the image lock the crash-time capture also
    /// takes, so a crash sees the image and the log either before or after
    /// a chunk, never in between.
    fn fold_log(&self, p: PartitionId, scope: FoldScope) -> Option<CheckpointStats> {
        Checkpointer::fold(
            p,
            &self.partition(p).log,
            self.group_commit.as_ref(),
            scope,
            || !self.net.is_crashed(p),
        )
    }

    /// The commit path's retention step, called by whoever just committed a
    /// transaction once its locks are released (the worker loop,
    /// `run_single_txn` and through it every facade session): any partition
    /// whose log retains more than twice the retention target gets one
    /// bounded chunk folded into its image. The check is three relaxed
    /// loads per partition; the work, when due, is proportional to the
    /// chunk — so every log bounds itself, no commit pays more than a
    /// chunk, and no experiment has to opt into a checkpointer for memory
    /// to stop tracking throughput.
    pub fn fold_due_logs(&self) {
        for partition in &self.partitions {
            if partition.log.fold_due() && !self.net.is_crashed(partition.id) {
                self.fold_log(partition.id, FoldScope::Chunk);
            }
        }
    }

    /// Checkpoint one partition: the base image (quiescent store scan) if
    /// none exists yet, otherwise fold everything foldable right now — the
    /// whole quorum-durable prefix the group-commit scheme covers. Returns
    /// `None` for a crashed or recovering partition: a dead leader cannot
    /// checkpoint, and a post-crash fold would drain entries its recovery
    /// still needs.
    pub fn checkpoint_partition(&self, p: PartitionId) -> Option<CheckpointStats> {
        if self.net.is_crashed(p) {
            return None;
        }
        let partition = self.partition(p);
        let stats = if partition.log.latest_checkpoint().is_none() {
            Checkpointer::initial(&partition.store, &partition.log)
        } else {
            self.fold_log(p, FoldScope::Everything)?
        };
        self.reclaim_due_versions();
        Some(stats)
    }

    /// A commit at `cts` installed a new version into `record` on partition
    /// `p`: the version-chain GC. What the install superseded stays in the
    /// record's chain for snapshot readers below `cts`, and is dead once the
    /// snapshot horizon reaches `cts` — the horizon is monotone, so it can
    /// never be read again. The install queues behind the partition's earlier
    /// ones (install order is commit order but for concurrent committers; one
    /// out of order only waits behind its elders), and takes up to two whose
    /// timestamps the horizon has reached off the front and prunes their
    /// records: two out for one in, so the backlog a horizon step releases
    /// drains over the next writes instead of in one burst, a write costs
    /// O(1), and what is retained is what is younger than the horizon —
    /// however many writes a run performs. No thread, no table walk; the
    /// horizon stays capped below an open crash agreement
    /// ([`GroupCommit::snapshot_horizon`]), so nothing compensation still has
    /// to revert is touched.
    pub fn note_installed(&self, p: PartitionId, record: &Arc<Record>, cts: Ts) {
        let partition = self.partition(p);
        let horizon = partition.version_horizon.load(Ordering::Relaxed);
        let due = {
            let mut queue = partition.superseded.lock();
            queue.push_back((Arc::clone(record), cts));
            [pop_due(&mut queue, horizon), pop_due(&mut queue, horizon)]
        };
        partition.prune(due.into_iter().flatten(), horizon);
    }

    /// The group commit released a result, so its horizon has moved: re-read
    /// it for [`Cluster::note_installed`]. Called by whoever saw the release
    /// (a worker draining its acknowledgements, a session back from
    /// `wait_durable`) — once per release, not once per commit.
    pub fn horizon_moved(&self) -> Ts {
        let horizon = self.snapshot_horizon();
        for partition in &self.partitions {
            (partition.version_horizon).fetch_max(horizon, Ordering::Relaxed);
        }
        horizon
    }

    /// Reclaim every version that is due right now, on every partition:
    /// what [`Cluster::note_installed`] would get to over the next writes,
    /// for when there may be none — a worker that stops, an explicit
    /// checkpoint.
    pub fn reclaim_due_versions(&self) {
        let horizon = self.horizon_moved();
        for partition in &self.partitions {
            let due: Vec<_> = {
                let mut queue = partition.superseded.lock();
                std::iter::from_fn(|| pop_due(&mut queue, horizon)).collect()
            };
            partition.prune(due, horizon);
        }
    }

    /// Total superseded record versions reclaimed at the horizon (reported
    /// as `pruned_versions` in
    /// [`MetricsSnapshot`](primo_common::MetricsSnapshot)).
    pub fn pruned_versions(&self) -> u64 {
        let pruned = |p: &Arc<Partition>| p.pruned_versions.load(Ordering::Relaxed);
        self.partitions.iter().map(pruned).sum()
    }

    /// The cluster-wide MVCC snapshot timestamp: the minimum of every
    /// partition's group-commit horizon. A read-only transaction resolved at
    /// this horizon observes only durable, never-to-be-rolled-back state on
    /// every partition it touches (see
    /// [`GroupCommit::snapshot_horizon`] for the per-scheme rules).
    pub fn snapshot_horizon(&self) -> Ts {
        self.partition_ids()
            .into_iter()
            .map(|p| self.group_commit.snapshot_horizon(p))
            .min()
            .unwrap_or(0)
    }

    /// Checkpoint every healthy partition (the experiment driver runs this
    /// after loading, and periodically when asked to).
    pub fn checkpoint_all(&self) -> Vec<CheckpointStats> {
        self.partition_ids()
            .into_iter()
            .filter_map(|p| self.checkpoint_partition(p))
            .collect()
    }

    /// Partitions currently crashed (used by the experiment teardown to
    /// guarantee no partition is left permanently down).
    pub fn crashed_partitions(&self) -> Vec<PartitionId> {
        self.partition_ids()
            .into_iter()
            .filter(|p| self.net.is_crashed(*p))
            .collect()
    }

    /// Stop background threads (group commit agents, bus pump).
    pub fn shutdown(&self) {
        self.group_commit.shutdown();
        self.bus.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::{TableId, Value};

    #[test]
    fn cluster_builds_with_partitions_and_gc() {
        let cluster = Cluster::new(ClusterConfig::for_tests(3));
        assert_eq!(cluster.num_partitions(), 3);
        assert_eq!(cluster.partition_ids().len(), 3);
        assert_eq!(cluster.group_commit.label(), "Watermark");
        cluster.shutdown();
    }

    #[test]
    fn txn_ids_are_unique_and_ordered_globally() {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let a = cluster.next_txn_id(PartitionId(0));
        let b = cluster.next_txn_id(PartitionId(1));
        let c = cluster.next_txn_id(PartitionId(0));
        assert!(a < b && b < c);
        assert_eq!(cluster.partition(PartitionId(0)).coordinated_txns(), 2);
        cluster.shutdown();
    }

    #[test]
    fn crash_and_real_recovery_round_trip() {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let p = PartitionId(1);
        for k in 0..8u64 {
            cluster
                .partition(p)
                .store
                .insert(TableId(0), k, Value::from_u64(k));
        }
        cluster.checkpoint_all();
        // Let the checkpoint pass its persist delay: a crash before that
        // genuinely loses it (nothing durable -> nothing restorable).
        std::thread::sleep(std::time::Duration::from_millis(5));
        cluster.crash_partition(p);
        assert!(cluster.net.is_crashed(p));
        assert_eq!(cluster.crashed_partitions(), vec![p]);
        let report = cluster.recover_partition(p).expect("real recovery ran");
        assert_eq!(report.wiped_records, 8);
        assert_eq!(report.restored_records, 8);
        assert!(!cluster.net.is_crashed(p));
        assert_eq!(
            cluster
                .partition(p)
                .store
                .get(TableId(0), 3)
                .unwrap()
                .read()
                .value
                .as_u64(),
            3
        );
        // Recovering a partition that never crashed just clears the flag.
        assert!(cluster.recover_partition(PartitionId(0)).is_none());
        cluster.shutdown();
    }

    #[test]
    fn checkpoints_fold_and_truncate_the_log() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let p = PartitionId(0);
        cluster
            .partition(p)
            .store
            .insert(TableId(0), 1, Value::from_u64(1));
        let first = cluster.checkpoint_partition(p).expect("healthy partition");
        assert_eq!(first.image_records, 1);
        // A second pass goes through the log-fold path.
        std::thread::sleep(std::time::Duration::from_millis(60));
        let second = cluster.checkpoint_partition(p).expect("healthy partition");
        assert_eq!(second.image_records, 1);
        // A crashed (or recovering) partition is never checkpointed: a
        // post-crash fold could truncate entries its recovery still needs.
        cluster.crash_partition(p);
        assert!(cluster.checkpoint_partition(p).is_none());
        assert!(cluster.checkpoint_all().is_empty());
        cluster.recover_partition(p);
        assert!(cluster.checkpoint_partition(p).is_some());
        cluster.shutdown();
    }

    #[test]
    fn partition_store_is_usable() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let p = cluster.partition(PartitionId(0));
        p.store.insert(TableId(0), 5, Value::from_u64(9));
        assert_eq!(p.store.get(TableId(0), 5).unwrap().read().value.as_u64(), 9);
        p.set_slowdown_us(100);
        assert_eq!(p.slowdown_us(), 100);
        cluster.shutdown();
    }
}
