//! The replicated per-partition log — the one public log: a replica set of
//! physical copies with quorum durability and deterministic leader hand-off.
//!
//! The paper's partitions replicate their log through Raft (§5.2: "the new
//! leader retrieves the latest `Wp` in its Raft log"), where a leader
//! appends to its own log and followers are fed from it. [`ReplicatedLog`]
//! is that, at every replication factor:
//!
//! * **Replica set.** Each partition owns `replication_factor` log copies.
//!   Copy 0 is the initial leader's local disk (persist delay
//!   `persist_delay_us`); every other copy persists after the one-way
//!   replication hop plus its own disk delay. Copies are physical: each
//!   holds its own entries and loses them for real when its disk goes.
//! * **One append path.** [`ReplicatedLog::append`] takes the sequencer
//!   lock, reserves the LSN, stamps `appended_at_us` and the term and
//!   pushes the entry into the **leader's copy** — that is all a committer
//!   pays while it holds its write locks, whatever the replication factor.
//!   The leader's log *is* the replication queue: followers catch up from
//!   its tail (the entries at or past their own end) exactly where
//!   something is about to consult them — before a quorum vote or durable
//!   read, and before any wipe, election, repair or retention. Three
//!   invariants follow (see ARCHITECTURE.md, "Append pipeline"): entries
//!   keep the leader's `appended_at_us` on every copy, so durability clocks
//!   run from the append instant and the quorum math below does not depend
//!   on when a follower was fed; nothing consults a follower that has not
//!   caught up; a crash feeds the followers before it wipes. A single-copy
//!   log (RF 1) is the same log with no follower to feed.
//! * **Locks.** Order: `image` → `ship_lock` → `sequencer` → a copy's own
//!   lock. An append takes `sequencer` and the leader's copy; a catch-up
//!   takes `ship_lock` and one copy at a time, so it never stops appends;
//!   everything that changes the replica set takes `ship_lock` and
//!   `sequencer` (`with_sequencer_flushed`), so the leader cannot change
//!   under an append or a catch-up.
//! * **Quorum durability.** `append` returns an LSN immediately, but
//!   [`ReplicatedLog::durable_lsn`] is the **quorum-acked** LSN: the highest
//!   LSN persisted by a majority of replicas (the median replica for RF 3).
//!   Every durable read — watermark lookup, checkpoint restore, bounded
//!   replay, checkpoint folding — is clamped to that horizon, here and
//!   nowhere else, so nothing is ever treated as durable that a quorum could
//!   not reproduce. With RF 1 the quorum is the single copy.
//! * **Terms and leader hand-off.** The log carries a leadership term,
//!   stamped on every entry. A crash bumps the term and moves leadership to
//!   the **deterministic successor**: the first replica after the failed
//!   leader in ring order among the replicas holding the longest intact
//!   log. A crash that also discards the leader's disk first brings the
//!   followers up to the leader's end (the tail is physically on the
//!   survivors — "lost" means *not quorum-acked*, never *dropped from
//!   surviving disks*) and then wipes that replica, so the successor is
//!   always a surviving copy — and recovery rebuilds the store from it. A
//!   second crash landing mid-replay bumps the term again; the recovery
//!   loop notices and restarts from the next successor (see
//!   `RecoveryManager`).
//! * **Repair.** After recovery, lagging or wiped replicas restart at the
//!   elected leader's truncation point and catch up from there
//!   ([`ReplicatedLog::repair_replicas`]), so the replica set returns to
//!   full strength and can absorb further crashes.
//! * **Retention: the rolling checkpoint image.** The log owns the
//!   partition's [`CheckpointImage`] and bounds itself by folding into it
//!   ([`ReplicatedLog::fold`]): the quorum-durable prefix the group-commit
//!   scheme vouches for is applied to the image **in place** and drained off
//!   the front of every replica, a bounded chunk per call. The image only
//!   ever absorbs quorum-durable, never-to-be-rolled-back entries, so every
//!   intact replica could rebuild the identical image from its own copy —
//!   the simulation keeps one, exactly as it shares one payload allocation
//!   between the replicas' entries. Losing the leader's disk therefore
//!   loses nothing of the image while any replica survives; when the last
//!   intact copy is wiped the image goes with it. A fold is atomic with
//!   respect to the crash-time horizon ([`ReplicatedLog::crash_horizon`]):
//!   a crash sees the image and the log either before or after a chunk.

use crate::log::{
    CheckpointImage, ImageSummary, LogCopy, LogEntry, LogPayload, ReplayBound, ReplayedTxn,
    FOLD_CHUNK, RETENTION_TARGET,
};
use parking_lot::Mutex;
use primo_common::config::WalConfig;
use primo_common::sim_time::now_us;
use primo_common::{PartitionId, Ts, TxnId};
use primo_net::SimNetwork;
use primo_trace::{FlightRecorder, TraceEventKind};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The largest replica set: quorum votes are collected on the stack
/// ([`ReplicatedLog::durable_lsn`] runs on every watermark lookup and
/// snapshot-horizon read — it must not allocate).
const INLINE_VOTES: usize = 16;

/// How much one [`ReplicatedLog::fold`] pass may absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldScope {
    /// At most [`FOLD_CHUNK`] entries, never below [`RETENTION_TARGET`]
    /// retained, and only if no other fold is running — the self-driven
    /// step a committing worker takes when [`ReplicatedLog::fold_due`].
    Chunk,
    /// Everything foldable right now (explicit checkpoints).
    Everything,
}

/// What one [`ReplicatedLog::fold`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Committed transactions applied to the image.
    pub folded_txns: usize,
    /// Entries drained off the leader's copy (every replica drains the same
    /// prefix).
    pub truncated_entries: usize,
    /// Records in the image after the pass.
    pub image_records: usize,
    /// The image's coverage bound after the pass.
    pub up_to_ts: Ts,
}

/// Quorum-durable replicated log of one partition. See the module docs.
pub struct ReplicatedLog {
    partition: PartitionId,
    /// The partition's rolling checkpoint image (`None` until a base image
    /// is installed, and again once every replica lost its disk). The lock
    /// doubles as the fold lock: a fold holds it from choosing its chunk to
    /// draining it, and so do the crash-time horizon read and every
    /// operation that can discard a replica, which makes a chunk atomic for
    /// all of them.
    image: Mutex<Option<CheckpointImage>>,
    /// `image.base_lsn` mirrored for the lock-free [`ReplicatedLog::fold_due`]
    /// check (`u64::MAX` while there is no image, so nothing looks due).
    image_base: AtomicU64,
    /// The log's end LSN mirrored for the same check.
    end_hint: AtomicU64,
    /// After a self-driven pass that could fold nothing (the scheme's bound
    /// or the quorum stalled), the log end at which it is worth trying
    /// again; 0 otherwise.
    fold_retry_at: AtomicU64,
    /// The replica set; index 0 is the initial leader's local copy.
    replicas: Vec<LogCopy>,
    /// Majority size: `replication_factor / 2 + 1`.
    quorum: usize,
    /// Delay between appending a record and its quorum acknowledgement: the
    /// k-th smallest replica persist delay (k = quorum). This is what the
    /// group-commit schemes wait for before acknowledging anything.
    quorum_ack_delay_us: u64,
    leader: AtomicUsize,
    term: AtomicU64,
    leader_changes: AtomicU64,
    /// Appenders serialize here: whoever holds it reads the leader and the
    /// term and pushes into the leader's copy, so neither can change
    /// between the read and the push.
    sequencer: Mutex<()>,
    /// Serializes follower catch-ups, fold drains and replica-set mutations
    /// without blocking appends: the copies a quorum vote or an election
    /// reads stand still while it holds this.
    ship_lock: Mutex<()>,
    /// Message accounting for the replication traffic (latency is never
    /// charged to the appender — the cost shows up as quorum-ack delay).
    net: Option<Arc<SimNetwork>>,
    /// Total microseconds appenders spent blocked on the sequencer lock
    /// (`MetricsSnapshot::wal_append_wait_us`). Only contended acquisitions
    /// pay the two clock reads.
    append_wait_us: AtomicU64,
    /// Follower catch-ups that carried entries / the entries they carried —
    /// their ratio is the mean replication batch length
    /// (`MetricsSnapshot::replication_batch_len`).
    shipped_batches: AtomicU64,
    shipped_entries: AtomicU64,
    /// Cluster flight recorder, injected once right after construction
    /// ([`ReplicatedLog::set_recorder`]). A `OnceLock` keeps the hot paths
    /// at one relaxed atomic load when tracing is wired and avoids
    /// threading the recorder through every constructor.
    recorder: OnceLock<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for ReplicatedLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedLog")
            .field("partition", &self.partition)
            .field("replicas", &self.replicas.len())
            .field("leader", &self.leader.load(Ordering::Relaxed))
            .field("term", &self.term.load(Ordering::Relaxed))
            .finish()
    }
}

/// What one replica's copy holds, read-only (tests and white-box
/// assertions; see [`ReplicatedLog::replica`]).
pub struct ReplicaView<'a>(&'a LogCopy);

#[allow(clippy::len_without_is_empty)]
impl ReplicaView<'_> {
    /// Number of entries the copy retains.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Clone the suffix of the copy starting at `from_lsn`.
    pub fn entries_from(&self, from_lsn: u64) -> Vec<LogEntry> {
        self.0.tail_from(from_lsn).0
    }
}

/// Picks the LSN of an [`LogPayload::EpochBoundary`] with epoch at most
/// `max_epoch`.
fn epoch_boundary_up_to(max_epoch: u64) -> impl Fn(&LogEntry) -> Option<u64> {
    move |e| match *e.payload {
        LogPayload::EpochBoundary { epoch } if epoch <= max_epoch => Some(e.lsn),
        _ => None,
    }
}

impl ReplicatedLog {
    /// Build the replica set for one partition. `replication_hop_us` is the
    /// one-way network latency a record pays to reach a non-leader replica
    /// (derived from the cluster's `NetConfig`); `net` receives message
    /// accounting for the replication traffic.
    ///
    /// # Panics
    /// If `cfg.replication_factor` exceeds 16.
    pub fn new(
        partition: PartitionId,
        cfg: WalConfig,
        replication_hop_us: u64,
        net: Option<Arc<SimNetwork>>,
    ) -> Self {
        let rf = cfg.replication_factor.max(1);
        assert!(
            rf <= INLINE_VOTES,
            "replication factor {rf} exceeds the supported maximum of {INLINE_VOTES}"
        );
        let replica_delay =
            replication_hop_us + cfg.replica_persist_delay_us.unwrap_or(cfg.persist_delay_us);
        let mut delays = vec![cfg.persist_delay_us];
        delays.resize(rf, replica_delay);
        let quorum = rf / 2 + 1;
        let quorum_ack_delay_us = {
            let mut sorted = delays.clone();
            sorted.sort_unstable();
            sorted[quorum - 1]
        };
        ReplicatedLog {
            partition,
            image: Mutex::new(None),
            image_base: AtomicU64::new(u64::MAX),
            end_hint: AtomicU64::new(0),
            fold_retry_at: AtomicU64::new(0),
            replicas: delays
                .iter()
                .map(|&d| LogCopy::new(d, quorum_ack_delay_us))
                .collect(),
            quorum,
            quorum_ack_delay_us,
            leader: AtomicUsize::new(0),
            term: AtomicU64::new(0),
            leader_changes: AtomicU64::new(0),
            sequencer: Mutex::new(()),
            ship_lock: Mutex::new(()),
            net,
            append_wait_us: AtomicU64::new(0),
            shipped_batches: AtomicU64::new(0),
            shipped_entries: AtomicU64::new(0),
            recorder: OnceLock::new(),
        }
    }

    /// A single-copy log (replication factor 1, no hop), used by unit tests
    /// and RF-1 clusters.
    pub fn single(partition: PartitionId, persist_delay_us: u64) -> Self {
        ReplicatedLog::new(
            partition,
            WalConfig {
                persist_delay_us,
                ..WalConfig::default()
            },
            0,
            None,
        )
    }

    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Attach the cluster flight recorder (sequencer waits, replication
    /// quorum acks and leader changes become trace events). Idempotent;
    /// later calls are ignored.
    pub fn set_recorder(&self, recorder: Arc<FlightRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    pub fn replication_factor(&self) -> usize {
        self.replicas.len()
    }

    /// Majority size of the replica set.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Time between appending a record and its quorum acknowledgement — what
    /// the group-commit schemes wait out before acknowledging a commit, and
    /// what `MetricsSnapshot::replication_lag_us` reports.
    pub fn quorum_ack_delay_us(&self) -> u64 {
        self.quorum_ack_delay_us
    }

    /// Current leadership term (bumped on every crash / hand-off).
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    /// Index of the current leader replica.
    pub fn leader_index(&self) -> usize {
        self.leader.load(Ordering::Acquire)
    }

    /// How many times leadership moved to a different replica.
    pub fn leader_changes(&self) -> u64 {
        self.leader_changes.load(Ordering::Relaxed)
    }

    /// Total microseconds appenders spent blocked on the sequencer lock
    /// (commit-critical-section contention; 0 when every append found the
    /// sequencer free).
    pub fn append_wait_us(&self) -> u64 {
        self.append_wait_us.load(Ordering::Relaxed)
    }

    /// Follower catch-ups that carried at least one entry so far (always 0
    /// at RF 1).
    pub fn replication_batches(&self) -> u64 {
        self.shipped_batches.load(Ordering::Relaxed)
    }

    /// Log entries those catch-ups carried, counted once per catch-up (not
    /// once per follower).
    pub fn replicated_entries(&self) -> u64 {
        self.shipped_entries.load(Ordering::Relaxed)
    }

    /// What one replica's copy holds (tests and white-box assertions). The
    /// followers are brought up to the leader's end first.
    pub fn replica(&self, idx: usize) -> ReplicaView<'_> {
        self.sync_replicas();
        ReplicaView(&self.replicas[idx])
    }

    /// Append a record; returns its LSN (identical on all copies). Never
    /// blocks on I/O or the network: under the sequencer lock the entry gets
    /// its LSN, append instant and term and goes into the leader's copy;
    /// followers take it from there at their next catch-up.
    pub fn append(&self, payload: LogPayload) -> u64 {
        let payload = Arc::new(payload);
        let _seq = self.lock_sequencer();
        let lsn = self
            .leader_replica()
            .append_in_term(self.term.load(Ordering::Acquire), payload);
        self.end_hint.store(lsn + 1, Ordering::Relaxed);
        lsn
    }

    /// Append a batch of records under **one** sequencer acquisition;
    /// returns the LSN of the first (`None` for an empty batch). LSNs are
    /// dense and in payload order — equivalent to calling
    /// [`ReplicatedLog::append`] per payload with no other appender
    /// interleaving, at a fraction of the critical-section cost.
    pub fn append_batch(&self, payloads: Vec<LogPayload>) -> Option<u64> {
        let _seq = self.lock_sequencer();
        let term = self.term.load(Ordering::Acquire);
        let leader = self.leader_replica();
        let mut first = None;
        for payload in payloads {
            let lsn = leader.append_in_term(term, Arc::new(payload));
            first.get_or_insert(lsn);
            self.end_hint.store(lsn + 1, Ordering::Relaxed);
        }
        first
    }

    /// The LSN the next append will receive (the leader's end; every copy
    /// has the same end whenever the leader can change).
    pub fn end_lsn(&self) -> u64 {
        self.leader_replica().end_lsn()
    }

    pub fn len(&self) -> usize {
        self.leader_replica().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The **quorum-acked** LSN: the highest LSN durable on a majority of
    /// replicas right now (`None` until a quorum persisted anything).
    /// Replicas with a discarded, not-yet-repaired disk do not vote — their
    /// history has a hole, so their highest durable entry says nothing
    /// about the prefix below it. Allocation-free: votes are collected and
    /// sorted on the stack.
    pub fn durable_lsn(&self) -> Option<u64> {
        self.sync_replicas();
        let mut votes = [None; INLINE_VOTES];
        for (vote, replica) in votes.iter_mut().zip(&self.replicas) {
            *vote = replica.durable_lsn();
        }
        let votes = &mut votes[..self.replicas.len()];
        votes.sort_unstable_by(|a, b| b.cmp(a)); // descending; None sorts last
        votes[self.quorum - 1]
    }

    /// Whether a specific LSN is quorum-durable.
    pub fn is_durable(&self, lsn: u64) -> bool {
        self.durable_lsn().map(|d| d >= lsn).unwrap_or(false)
    }

    /// The newest quorum-durable entry at or below `cutoff_lsn` that `pick`
    /// accepts, read from the leader's copy.
    fn latest_durable<R>(
        &self,
        cutoff_lsn: Option<u64>,
        pick: impl Fn(&LogEntry) -> Option<R>,
    ) -> Option<R> {
        let cut = self.quorum_cutoff(cutoff_lsn)?;
        self.leader_replica().latest(cut, pick)
    }

    /// The latest quorum-durable watermark record (§5.2 — what the new
    /// leader retrieves from its replicated log).
    pub fn latest_durable_watermark(&self) -> Option<Ts> {
        self.latest_durable_watermark_at(None)
    }

    /// [`ReplicatedLog::latest_durable_watermark`] restricted to entries at
    /// or below `cutoff_lsn` — recovery passes the quorum LSN captured at
    /// crash time, so a `Wp` record that was still volatile when the
    /// partition died (or was appended by the dead leader's agent during
    /// the outage) is never recovered from.
    pub fn latest_durable_watermark_at(&self, cutoff_lsn: Option<u64>) -> Option<Ts> {
        self.latest_durable(cutoff_lsn, |e| match *e.payload {
            LogPayload::Watermark { wp } => Some(wp),
            _ => None,
        })
    }

    /// Install `image` as the partition's base checkpoint image, replacing
    /// any existing one: a [`LogPayload::Checkpoint`] marker is appended and
    /// the image starts covering the log from the marker on (everything
    /// logged before it is considered covered by the image). Recovery may
    /// restore the image once the marker is quorum-durable. Returns the
    /// marker's LSN.
    pub fn install_base_image(&self, mut image: CheckpointImage) -> u64 {
        let mut slot = self.image.lock();
        let lsn = self.append(LogPayload::Checkpoint {
            up_to_ts: image.up_to_ts,
        });
        image.installed_lsn = lsn;
        image.base_lsn = lsn;
        *slot = Some(image);
        self.image_base.store(lsn, Ordering::Relaxed);
        self.fold_retry_at.store(0, Ordering::Relaxed);
        lsn
    }

    /// Read the rolling image, regardless of durability (`None` while the
    /// partition has none). Waits out a fold in progress.
    pub fn with_image<R>(&self, read: impl FnOnce(&CheckpointImage) -> R) -> Option<R> {
        self.image.lock().as_ref().map(read)
    }

    /// Read the rolling image if it is restorable at `cutoff_lsn`: its
    /// install marker was quorum-durable at the cutoff (recovery passes the
    /// crash-time quorum LSN). Everything folded since was quorum-durable
    /// when it was folded, and folds are atomic with respect to
    /// [`ReplicatedLog::crash_horizon`], so the image never runs ahead of a
    /// cutoff captured there.
    pub fn with_durable_image<R>(
        &self,
        cutoff_lsn: Option<u64>,
        read: impl FnOnce(&CheckpointImage) -> R,
    ) -> Option<R> {
        let slot = self.image.lock();
        let image = slot.as_ref()?;
        let cut = self.quorum_cutoff(cutoff_lsn)?;
        (image.installed_lsn <= cut).then(|| read(image))
    }

    /// The rolling image's (install-marker LSN, coverage) regardless of
    /// durability.
    pub fn latest_checkpoint(&self) -> Option<(u64, ImageSummary)> {
        self.with_image(|image| (image.installed_lsn, image.summary()))
    }

    /// The quorum-acked LSN as a crash must capture it: read while no fold
    /// is between applying a chunk to the image and draining it from the
    /// replicas, so recovery sees the image and the log either before or
    /// after the chunk.
    pub fn crash_horizon(&self) -> Option<u64> {
        let _image = self.image.lock();
        self.durable_lsn()
    }

    /// Whether a self-driven fold step is worth taking: more than twice
    /// [`RETENTION_TARGET`] entries are retained past the image, and the
    /// last attempt did not just come back empty-handed. Three relaxed
    /// loads — cheap enough to ask after every commit.
    #[inline]
    pub fn fold_due(&self) -> bool {
        let end = self.end_hint.load(Ordering::Relaxed);
        let retained = end.saturating_sub(self.image_base.load(Ordering::Relaxed));
        retained > 2 * RETENTION_TARGET as u64 && end >= self.fold_retry_at.load(Ordering::Relaxed)
    }

    /// Fold the covered quorum-durable log prefix into the rolling image
    /// and drain it from every replica — the one retention path: the
    /// self-driven commit-path step ([`FoldScope::Chunk`]) and explicit
    /// checkpoints ([`FoldScope::Everything`]) differ only in how much they
    /// take.
    ///
    /// `bound` is what the group-commit scheme vouches will never be rolled
    /// back ([`crate::GroupCommit::checkpoint_bound`]). The fold stops at
    /// the quorum horizon, at the first write-set `bound` does not cover and
    /// at the oldest [`LogPayload::CommitVote`] whose outcome is not durably
    /// known; it skips write-sets cancelled by a rollback marker. The cost
    /// is proportional to the entries folded, not to the image or the
    /// retained log: the chunk is located by binary search, its payload
    /// handles are copied under the leader copy's lock, the writes are
    /// applied to the image in place with no log lock held, and the prefix
    /// is popped off each replica's deque. Write-sets are applied in log
    /// order — per key that *is* commit order, because a write-set is
    /// appended while its write locks are held. Reading the quorum horizon
    /// is also what feeds the followers in the steady state, when nothing
    /// else reads the log: a catch-up carries about what the leader took in
    /// since the last fold step.
    ///
    /// `leader_up` is asked once the fold holds the image lock: a crashed
    /// or recovering partition must not fold (the recovery is pinned to the
    /// crash-time horizon), and asking under the lock closes the window
    /// between the caller's own check and [`ReplicatedLog::crash_horizon`].
    ///
    /// Returns `None` when nothing ran: the leader is down, there is no
    /// base image, or (chunk scope) another fold holds the image.
    pub fn fold(
        &self,
        bound: &ReplayBound,
        scope: FoldScope,
        leader_up: impl FnOnce() -> bool,
    ) -> Option<FoldStats> {
        let mut slot = match scope {
            FoldScope::Chunk => self.image.try_lock()?,
            FoldScope::Everything => self.image.lock(),
        };
        if !leader_up() {
            return None;
        }
        let image = slot.as_mut()?;
        let (max_entries, keep) = match scope {
            FoldScope::Chunk => (FOLD_CHUNK, RETENTION_TARGET),
            FoldScope::Everything => (usize::MAX, 0),
        };
        let mut stats = FoldStats::default();
        // The applied handles and the drained entries (and with them the
        // payloads) are dropped after the image lock is released.
        let mut applied = Vec::new();
        let mut drained = Vec::new();
        let mut progressed = false;
        if let Some(durable) = self.durable_lsn() {
            let chunk =
                self.leader_replica()
                    .fold_scan(image.base_lsn, bound, durable, max_entries, keep);
            for (ts, writes) in &chunk.writes {
                image.apply(*ts, writes);
            }
            stats.folded_txns = chunk.writes.len();
            if chunk.stop_lsn > image.base_lsn {
                progressed = true;
                image.base_lsn = chunk.stop_lsn;
                self.image_base.store(chunk.stop_lsn, Ordering::Relaxed);
                drained = self.drain_replicas(chunk.stop_lsn);
                stats.truncated_entries = drained[self.leader.load(Ordering::Acquire)].len();
            }
            applied = chunk.writes;
        }
        if let ReplayBound::Ts(b) = bound {
            // The image provably covers everything below the ts bound, even
            // if the folded prefix happened to stop earlier.
            image.up_to_ts = image.up_to_ts.max(b.saturating_sub(1));
        }
        stats.image_records = image.len();
        stats.up_to_ts = image.up_to_ts;
        let retry_at = if progressed || scope == FoldScope::Everything {
            0
        } else {
            self.end_hint.load(Ordering::Relaxed) + FOLD_CHUNK as u64
        };
        self.fold_retry_at.store(retry_at, Ordering::Relaxed);
        drop(slot);
        drop((applied, drained));
        Some(stats)
    }

    /// LSN of the newest quorum-durable epoch boundary with epoch at most
    /// `max_epoch` (COCO's checkpoint bound: what a fold may absorb).
    pub fn latest_durable_epoch_boundary(&self, max_epoch: u64) -> Option<u64> {
        self.latest_durable(None, epoch_boundary_up_to(max_epoch))
    }

    /// LSN of the newest epoch boundary with epoch at most `max_epoch`,
    /// regardless of durability. A *surviving* partition's log lost nothing,
    /// so when COCO rolls back the crashed epoch the boundary of the last
    /// committed epoch separates committed write-sets from rolled-back ones
    /// even while it is still inside its persist window.
    pub fn latest_epoch_boundary(&self, max_epoch: u64) -> Option<u64> {
        self.leader_replica()
            .latest(u64::MAX, epoch_boundary_up_to(max_epoch))
    }

    /// Replay all quorum-durable transaction writes with `ts < up_to`;
    /// everything at or above `up_to` is rolled back (i.e. simply not
    /// replayed).
    pub fn replay_prefix(&self, up_to: Ts) -> Vec<ReplayedTxn> {
        self.replay_range(0, &ReplayBound::Ts(up_to), None)
    }

    /// Replay the quorum-durable transaction writes with `lsn >= from_lsn`
    /// that `bound` covers, restricted (when given) to entries at or below
    /// `cutoff_lsn` — the quorum LSN captured at crash time, so entries that
    /// were still volatile when the partition died are treated as lost, and
    /// an entry the old leader persisted locally that never reached a
    /// majority is honestly lost too.
    ///
    /// The output is commit-timestamp-sorted (ties by LSN) and deduplicated
    /// by transaction id, so replaying any prefix twice equals replaying it
    /// once; transactions cancelled by a [`LogPayload::TxnRolledBack`]
    /// marker at or below the cut are never replayed, whatever the bound
    /// says. The write-sets are shared with the log's entries, not copied.
    pub fn replay_range(
        &self,
        from_lsn: u64,
        bound: &ReplayBound,
        cutoff_lsn: Option<u64>,
    ) -> Vec<ReplayedTxn> {
        match self.quorum_cutoff(cutoff_lsn) {
            Some(cut) => self.leader_replica().replay_range(from_lsn, bound, cut),
            None => Vec::new(),
        }
    }

    /// The newest quorum-durable [`LogPayload::CommitDecision`] verdict for
    /// `txn` at or below `cutoff_lsn` (Paxos Commit verdict assembly).
    pub fn commit_decision_for(&self, txn: TxnId, cutoff_lsn: Option<u64>) -> Option<bool> {
        self.latest_durable(cutoff_lsn, |e| match *e.payload {
            LogPayload::CommitDecision { txn: t, commit } if t == txn => Some(commit),
            _ => None,
        })
    }

    /// The quorum-durable [`LogPayload::CommitVote`] for `txn` at or below
    /// `cutoff_lsn`, if any.
    pub fn commit_vote_for(&self, txn: TxnId, cutoff_lsn: Option<u64>) -> Option<bool> {
        self.latest_durable(cutoff_lsn, |e| match *e.payload {
            LogPayload::CommitVote { txn: t, commit, .. } if t == txn => Some(commit),
            _ => None,
        })
    }

    /// Transaction ids with a quorum-durable prepare vote but no resolution
    /// at or below `cutoff_lsn` — no decision, no installed write-set, no
    /// rollback marker: the in-doubt set recovery terminates with the
    /// presumed-abort verdict. In first-vote order.
    pub fn unresolved_commit_votes(&self, cutoff_lsn: Option<u64>) -> Vec<TxnId> {
        match self.quorum_cutoff(cutoff_lsn) {
            Some(cut) => self.leader_replica().unresolved_commit_votes(cut),
            None => Vec::new(),
        }
    }

    /// Transaction ids with a rollback marker anywhere in the log,
    /// regardless of durability.
    pub fn rolled_back_txns(&self) -> HashSet<TxnId> {
        self.leader_replica().rolled_back_txns()
    }

    /// The `TxnWrites` entries below `upper_cutoff` that `bound` does not
    /// cover and no marker cancels yet — survivor-side compensation input,
    /// sorted and deduplicated like [`ReplicatedLog::replay_range`]. No
    /// durability filter: this partition did not crash, so its leader's
    /// copy holds the full log.
    pub fn collect_rolled_back(
        &self,
        bound: &ReplayBound,
        upper_cutoff: Option<u64>,
    ) -> Vec<ReplayedTxn> {
        self.leader_replica()
            .collect_rolled_back(bound, upper_cutoff)
    }

    /// Clone the suffix of the (leader's) log starting at `from_lsn`.
    pub fn entries_from(&self, from_lsn: u64) -> Vec<LogEntry> {
        self.leader_replica().tail_from(from_lsn).0
    }

    /// Recovery-time log repair on **every replica**: drop the write-sets at
    /// or after `from_lsn` that replay did not apply — past `cutoff_lsn`
    /// (the crash-time quorum LSN), not covered by `bound`, or cancelled by
    /// a rollback marker at or below the cutoff — so no later fold can
    /// resurrect them. The cancelled-transaction set is computed once, from
    /// the leader, and applied uniformly — a replica must not keep entries
    /// the leader purged (it would end up *longer* than the leader,
    /// confusing the longest-log election). Returns the number of entries
    /// removed from the leader's copy.
    pub fn retain_replayable(&self, from_lsn: u64, bound: &ReplayBound, cutoff_lsn: u64) -> usize {
        self.with_sequencer_flushed(|| {
            let leader = self.leader.load(Ordering::Acquire);
            let rolled_back = self.replicas[leader].rolled_back_through(cutoff_lsn);
            let mut removed = 0;
            for (i, replica) in self.replicas.iter().enumerate() {
                let n = replica.retain_replayable(from_lsn, bound, cutoff_lsn, &rolled_back);
                if i == leader {
                    removed = n;
                }
            }
            removed
        })
    }

    /// Discard one replica's disk (entries dropped, LSN counter kept so the
    /// replica stays aligned for future appends). It stops voting on quorum
    /// durability and standing for election until repaired. The followers
    /// are brought up to the leader's end first: an appended entry was
    /// physically delivered (and is then dropped with the rest of the disk),
    /// never delivered late into the hole.
    pub fn wipe_replica(&self, idx: usize) -> usize {
        let mut image = self.image.lock();
        self.with_sequencer_flushed(|| self.wipe_copy(idx, &mut image))
    }

    /// Bump the leadership term and hand leadership to the deterministic
    /// successor: the first replica after the failed leader in ring order
    /// among the non-wiped replicas holding the longest log. The followers
    /// are brought up to the leader's end first — the not-yet-quorum-acked
    /// tail is physically present on every replica at crash time (it stays
    /// "lost" in the only sense that matters: below no quorum horizon).
    /// With `discard_leader_disk` the failed leader's replica is then wiped
    /// (the crash lost its disk, not just its memory), so the successor is
    /// always a surviving copy. Returns the new leader index.
    pub fn fail_over(&self, discard_leader_disk: bool) -> usize {
        // Image lock first: a fold in progress finishes its chunk on every
        // replica before any disk is discarded or the leader changes.
        let mut image = self.image.lock();
        self.with_sequencer_flushed(|| {
            let old = self.leader.load(Ordering::Acquire);
            if discard_leader_disk {
                self.wipe_copy(old, &mut image);
            }
            let term = self.term.fetch_add(1, Ordering::AcqRel) + 1;
            let new = self.elect_successor(old);
            if new != old {
                self.leader.store(new, Ordering::Release);
                self.leader_changes.fetch_add(1, Ordering::Relaxed);
            }
            self.trace(TraceEventKind::LeaderChange {
                term,
                leader: new as u32,
            });
            new
        })
    }

    /// Re-seed wiped or lagging replicas from the elected leader's log (the
    /// authority after an election — replicas never diverge here, they can
    /// only lose their disk wholesale): each restarts at the leader's
    /// truncation point and catches up from there like any follower.
    /// Returns how many replicas were repaired. Run at the end of recovery
    /// so the replica set is back to full strength before the partition
    /// serves again.
    pub fn repair_replicas(&self) -> usize {
        self.with_sequencer_flushed(|| {
            let leader = self.leader.load(Ordering::Acquire);
            // The elected leader's content is the authority by definition.
            // Clearing its wiped flag is only sound because repair runs at
            // the end of recovery, *after* the store and the retained log
            // were reconciled against this very copy — if the leader itself
            // was wiped (every replica lost its disk), the missing history
            // has just been adjudicated as lost, and the flag must clear or
            // the partition could never acknowledge anything again.
            self.replicas[leader].mark_intact();
            // Heal any divergence from the authority — shorter (wiped or
            // lagging) and longer (a copy that somehow kept entries the
            // leader dropped) alike.
            let repaired = self
                .followers(leader)
                .filter(|follower| follower.restart_if_diverged(&self.replicas[leader]))
                .count();
            self.feed_followers();
            repaired
        })
    }

    fn leader_replica(&self) -> &LogCopy {
        &self.replicas[self.leader.load(Ordering::Acquire)]
    }

    /// Every copy but `leader`'s.
    fn followers(&self, leader: usize) -> impl Iterator<Item = &LogCopy> {
        self.replicas
            .iter()
            .enumerate()
            .filter(move |(i, _)| *i != leader)
            .map(|(_, copy)| copy)
    }

    /// Record a partition-scoped (no transaction) trace event, if a
    /// recorder is attached.
    fn trace(&self, kind: TraceEventKind) {
        if let Some(rec) = self.recorder.get() {
            rec.emit(None, Some(self.partition), kind);
        }
    }

    /// [`ReplicatedLog::trace`] with the timestamp supplied by the caller —
    /// for hot paths that already hold a fresh clock reading.
    fn trace_at(&self, at_us: u64, kind: TraceEventKind) {
        if let Some(rec) = self.recorder.get() {
            rec.emit_at(at_us, None, Some(self.partition), kind);
        }
    }

    /// Take the sequencer lock, accounting contended waits. The uncontended
    /// fast path costs no clock reads. A contended acquisition yields and
    /// retries instead of parking outright: the critical section is a
    /// couple hundred nanoseconds, so a yield usually hands the holder the
    /// time it needs and the next try succeeds — without registering a
    /// waiter, which would also put a futex wake on the holder's unlock
    /// path (the commit critical section). After a bounded number of yields
    /// it parks for real.
    fn lock_sequencer(&self) -> parking_lot::MutexGuard<'_, ()> {
        if let Some(guard) = self.sequencer.try_lock() {
            return guard;
        }
        let blocked_at = now_us();
        let mut attempts = 0u32;
        let guard = loop {
            std::thread::yield_now();
            if let Some(guard) = self.sequencer.try_lock() {
                break guard;
            }
            attempts += 1;
            if attempts >= 64 {
                break self.sequencer.lock();
            }
        };
        let waited = now_us().saturating_sub(blocked_at);
        if waited > 0 {
            // Sub-microsecond waits truncate to zero anyway; skipping the
            // add keeps the shared counter line cold under heavy append
            // traffic.
            self.append_wait_us.fetch_add(waited, Ordering::Relaxed);
            // Stamped with `blocked_at` (when the wait began — its causal
            // time), which also spares the emit a third clock read on the
            // commit critical section.
            self.trace_at(
                blocked_at,
                TraceEventKind::SequencerWait { wait_us: waited },
            );
        }
        guard
    }

    /// Bring every follower up to the leader's end: each takes the leader's
    /// entries at or past its own end, as they are. Only these deliveries
    /// count as network messages (the leader's own push is local). Caller
    /// holds `ship_lock`, so the leader cannot change meanwhile and
    /// catch-ups reach a follower in LSN order; appends keep going, and what
    /// lands behind a follower's read of the tail waits for the next
    /// catch-up.
    fn feed_followers(&self) {
        let leader = self.leader.load(Ordering::Acquire);
        let (mut sent, mut carried, mut last_lsn) = (0, 0, 0);
        for follower in self.followers(leader) {
            let (tail, end_lsn) = self.replicas[leader].tail_from(follower.end_lsn());
            if let Some(last) = tail.last() {
                sent += tail.len() as u64;
                carried = carried.max(tail.len() as u64);
                last_lsn = last_lsn.max(last.lsn);
            }
            follower.append_entries(tail, end_lsn);
        }
        if sent == 0 {
            return;
        }
        if let Some(net) = &self.net {
            net.note_background_messages(sent);
        }
        self.shipped_batches.fetch_add(1, Ordering::Relaxed);
        self.shipped_entries.fetch_add(carried, Ordering::Relaxed);
        // The carried tail's last LSN, deliberately not `durable_lsn()`:
        // that read feeds the followers, under the `ship_lock` this very
        // caller is holding. What was carried bounds quorum durability for
        // this catch-up anyway.
        self.trace(TraceEventKind::QuorumAck {
            entries: carried,
            durable_lsn: last_lsn,
        });
    }

    /// Make every follower current before a read that consults one (quorum
    /// votes, white-box replica access).
    fn sync_replicas(&self) {
        let _ship = self.ship_lock.lock();
        self.feed_followers();
    }

    /// Bring the followers up to the leader's end and run `f` while holding
    /// both the ship lock and the sequencer: no append can interleave and no
    /// catch-up is in flight, so `f` sees (and may mutate) a replica set
    /// whose copies all end at the same LSN. Every replica-set mutation —
    /// fail-over, wipe, repair, retention — goes through here.
    fn with_sequencer_flushed<R>(&self, f: impl FnOnce() -> R) -> R {
        let _ship = self.ship_lock.lock();
        let _seq = self.sequencer.lock();
        self.feed_followers();
        f()
    }

    /// Caller holds the image lock (`image` is its content): the image is
    /// as replicated as the log, so it survives until the last intact copy
    /// is wiped and is lost with it.
    fn wipe_copy(&self, idx: usize, image: &mut Option<CheckpointImage>) -> usize {
        let dropped = self.replicas[idx].wipe();
        if self.replicas.iter().all(|r| r.intact_len().is_none()) {
            *image = None;
            self.image_base.store(u64::MAX, Ordering::Relaxed);
        }
        dropped
    }

    /// Drain the prefix below `lsn` off every replica (wiped ones included:
    /// they keep receiving entries and must not outgrow their peers).
    /// `ship_lock` keeps the replica set still meanwhile — no catch-up,
    /// election or repair observes some replicas drained and others not.
    /// Returns each replica's drained entries for the caller to drop outside
    /// its locks. Caller holds the image lock, and read the quorum horizon
    /// (which fed the followers past `lsn`) under it.
    fn drain_replicas(&self, lsn: u64) -> Vec<Vec<LogEntry>> {
        let _ship = self.ship_lock.lock();
        self.replicas.iter().map(|r| r.drain_before(lsn)).collect()
    }

    /// Clamp a caller-supplied cutoff to the quorum horizon. `None` result
    /// means nothing is quorum-durable at all. A caller-supplied cutoff is
    /// itself a quorum LSN captured earlier (recovery passes the crash-time
    /// horizon), so when the *live* quorum is broken — e.g. a second disk
    /// loss mid-recovery left only one intact replica — the cutoff is
    /// trusted as-is: every entry below it reached a majority when it was
    /// captured, and the elected leader (the longest intact replica) still
    /// holds them. Without this, a below-quorum recovery would rebuild an
    /// empty store while the intact leader's log provably contains the
    /// acknowledged history.
    fn quorum_cutoff(&self, cutoff_lsn: Option<u64>) -> Option<u64> {
        match (self.durable_lsn(), cutoff_lsn) {
            (Some(q), Some(c)) => Some(c.min(q)),
            (Some(q), None) => Some(q),
            (None, Some(c)) => Some(c),
            (None, None) => None,
        }
    }

    /// Deterministic successor rule: candidates are the non-wiped replicas
    /// with the maximum entry count ("the longest quorum-consistent
    /// replica"); the winner is the first candidate encountered walking the
    /// ring from `failed + 1`. Falls back to the failed leader itself when
    /// every replica is wiped (nothing better exists — RF 1 disk loss).
    fn elect_successor(&self, failed: usize) -> usize {
        let n = self.replicas.len();
        let standing = |i: usize| self.replicas[i].intact_len();
        let Some(longest) = (0..n).filter_map(standing).max() else {
            return failed;
        };
        (1..=n)
            .map(|step| (failed + step) % n)
            .find(|&i| standing(i) == Some(longest))
            .unwrap_or(failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::LoggingScheme;
    use primo_common::{FastRng, TableId, Value};
    use std::time::Duration;

    fn rf3(persist_us: u64, replica_us: u64, hop_us: u64) -> ReplicatedLog {
        ReplicatedLog::new(
            PartitionId(0),
            WalConfig {
                scheme: LoggingScheme::Watermark,
                interval_ms: 1,
                persist_delay_us: persist_us,
                force_update: true,
                replication_factor: 3,
                replica_persist_delay_us: Some(replica_us),
                ..WalConfig::default()
            },
            hop_us,
            None,
        )
    }

    fn txn(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
    }

    fn put(seq: u64, ts: Ts) -> LogPayload {
        LogPayload::TxnWrites {
            txn: txn(seq),
            ts,
            writes: vec![crate::LoggedWrite::put(
                TableId(0),
                seq,
                Value::from_u64(seq),
            )],
        }
    }

    #[test]
    fn appends_fan_out_with_aligned_lsns() {
        let log = rf3(0, 0, 0);
        let a = log.append(put(1, 5));
        let b = log.append(put(2, 6));
        assert_eq!((a, b), (0, 1));
        for i in 0..3 {
            assert_eq!(log.replica(i).len(), 2, "replica {i}");
            assert_eq!(log.replicas[i].end_lsn(), 2, "replica {i}");
        }
        assert_eq!(log.replication_factor(), 3);
        assert_eq!(log.quorum(), 2);
    }

    #[test]
    fn quorum_ack_delay_is_the_majority_replicas_delay() {
        // Leader persists in 100us; remotes in 300 (hop) + 500 = 800us. The
        // quorum (2 of 3) is only reached once one remote persisted.
        let log = rf3(100, 500, 300);
        assert_eq!(log.quorum_ack_delay_us(), 800);
        // RF 1: quorum ack == local persist.
        let single = ReplicatedLog::single(PartitionId(0), 100);
        assert_eq!(single.quorum_ack_delay_us(), 100);
    }

    #[test]
    fn durable_lsn_is_quorum_acked_not_leader_local() {
        let log = rf3(0, 30_000, 0); // leader durable instantly, remotes 30ms
        log.append(put(1, 5));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(log.replicas[0].durable_lsn(), Some(0), "leader persisted");
        assert_eq!(
            log.durable_lsn(),
            None,
            "no quorum until a second replica persists"
        );
        assert!(!log.is_durable(0));
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(log.durable_lsn(), Some(0), "majority reached");
        assert!(log.is_durable(0));
    }

    #[test]
    fn durable_reads_are_clamped_to_the_quorum_horizon() {
        let log = rf3(0, 30_000, 0);
        log.append(LogPayload::Watermark { wp: 7 });
        std::thread::sleep(Duration::from_millis(2));
        // Locally durable on the leader, but no quorum yet.
        assert_eq!(log.latest_durable_watermark(), None);
        assert!(log.replay_prefix(u64::MAX).is_empty());
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(log.latest_durable_watermark(), Some(7));
    }

    #[test]
    fn fail_over_elects_the_ring_successor_and_bumps_the_term() {
        let log = rf3(0, 0, 0);
        log.append(put(1, 5));
        assert_eq!(log.leader_index(), 0);
        assert_eq!(log.term(), 0);
        let new = log.fail_over(true);
        assert_eq!(new, 1, "deterministic ring successor");
        assert_eq!(log.term(), 1);
        assert_eq!(log.leader_changes(), 1);
        // A second hand-off (replacement leader dies too, memory only).
        assert_eq!(log.fail_over(false), 2);
        assert_eq!(log.term(), 2);
        // Entries appended now carry the new term.
        let lsn = log.append(put(2, 6));
        let entry = log
            .entries_from(lsn)
            .into_iter()
            .next()
            .expect("appended entry");
        assert_eq!(entry.term, 2);
    }

    #[test]
    fn disk_loss_leaves_history_readable_from_survivors() {
        let log = rf3(0, 0, 0);
        log.append(put(1, 5));
        log.append(LogPayload::Watermark { wp: 9 });
        std::thread::sleep(Duration::from_millis(2));
        log.fail_over(true); // leader disk discarded
        assert_eq!(log.replica(0).len(), 0, "the wiped copy is gone");
        assert_eq!(
            log.latest_durable_watermark(),
            Some(9),
            "the surviving quorum still serves the history"
        );
        assert_eq!(log.replay_prefix(u64::MAX).len(), 1);
        // Repair re-seeds the wiped replica from the new leader.
        assert_eq!(log.repair_replicas(), 1);
        assert_eq!(log.replica(0).len(), 2);
        // New appends continue LSN-aligned on all replicas.
        let lsn = log.append(put(2, 12));
        assert_eq!(lsn, 2);
        log.sync_replicas();
        for i in 0..3 {
            assert_eq!(log.replicas[i].end_lsn(), 3, "replica {i}");
        }
    }

    #[test]
    fn wiped_replicas_do_not_vote_on_quorum_durability() {
        let log = rf3(0, 30_000, 0);
        log.append(put(1, 5));
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(log.durable_lsn(), Some(0));
        // Wipe both remotes: the leader alone is no quorum, and the wiped
        // copies' post-wipe appends must not fake one.
        log.wipe_replica(1);
        log.wipe_replica(2);
        log.append(put(2, 6));
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(
            log.durable_lsn(),
            None,
            "a majority of intact copies is required"
        );
    }

    #[test]
    fn slow_leader_disk_does_not_hide_quorum_acked_entries() {
        // The leader's own disk is far slower than the quorum: the two fast
        // remotes acknowledge an entry long before the leader persists it
        // locally. Quorum-bounded reads go through the leader replica, so
        // the cutoff must act as the durability horizon — the leader's disk
        // delay must not filter out what the quorum acknowledged.
        let log = rf3(500_000, 50, 0);
        assert_eq!(log.quorum_ack_delay_us(), 50);
        log.append(put(1, 5));
        log.append(LogPayload::Watermark { wp: 9 });
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            log.durable_lsn(),
            Some(1),
            "the two fast replicas form the quorum"
        );
        assert_eq!(
            log.replay_prefix(u64::MAX).len(),
            1,
            "the quorum-acked write-set must be replayable through the slow leader"
        );
        assert_eq!(log.latest_durable_watermark(), Some(9));
    }

    #[test]
    fn explicit_cutoff_survives_a_broken_live_quorum() {
        let log = rf3(0, 0, 0);
        log.append(put(1, 5));
        std::thread::sleep(Duration::from_millis(2));
        let cutoff = log.durable_lsn();
        assert_eq!(cutoff, Some(0));
        // Lose two of three disks: the live quorum is gone…
        log.fail_over(true); // leader 0 wiped, leadership -> 1
        log.fail_over(true); // leader 1 wiped, leadership -> 2
        assert_eq!(log.leader_index(), 2);
        assert_eq!(log.durable_lsn(), None);
        // …but reads bounded by a cutoff captured from a real quorum still
        // serve the acknowledged history from the intact leader (recovery
        // passes the crash-time quorum LSN exactly like this).
        assert_eq!(
            log.replay_range(0, &ReplayBound::Ts(u64::MAX), cutoff)
                .len(),
            1,
            "the intact replica must serve everything below the old quorum"
        );
        // Unbounded durable reads stay honest about the broken quorum.
        assert!(log.replay_prefix(u64::MAX).is_empty());
    }

    #[test]
    fn lookups_on_a_single_copy_respect_the_cutoff_and_the_persist_delay() {
        let log = ReplicatedLog::single(PartitionId(0), 0);
        let early = log.append(LogPayload::Watermark { wp: 3 });
        let b1 = log.append(LogPayload::EpochBoundary { epoch: 1 });
        log.append(LogPayload::Watermark { wp: 8 });
        let b2 = log.append(LogPayload::EpochBoundary { epoch: 2 });
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(log.latest_durable_watermark(), Some(8));
        // A Wp appended after the crash-time durable LSN is never recovered.
        assert_eq!(log.latest_durable_watermark_at(Some(early)), Some(3));
        assert_eq!(log.latest_durable_epoch_boundary(2), Some(b2));
        assert_eq!(log.latest_durable_epoch_boundary(1), Some(b1));
        assert_eq!(log.latest_durable_epoch_boundary(0), None);
        // The durability-blind variant (survivor-side rollback bound) agrees
        // here and also sees boundaries still inside their persist window.
        assert_eq!(log.latest_epoch_boundary(2), Some(b2));
        let slow = ReplicatedLog::single(PartitionId(0), 60_000);
        let b = slow.append(LogPayload::EpochBoundary { epoch: 1 });
        assert_eq!(slow.latest_durable_epoch_boundary(1), None);
        assert_eq!(slow.latest_epoch_boundary(1), Some(b));
    }

    #[test]
    #[should_panic(expected = "replication factor 17")]
    fn a_replica_set_larger_than_the_vote_array_is_rejected() {
        ReplicatedLog::new(
            PartitionId(0),
            WalConfig {
                replication_factor: INLINE_VOTES + 1,
                ..WalConfig::default()
            },
            0,
            None,
        );
    }

    #[test]
    fn fold_applies_the_covered_prefix_in_place_and_drains_every_replica() {
        let log = rf3(0, 0, 0);
        assert!(
            log.fold(&ReplayBound::Lsn(u64::MAX), FoldScope::Everything, || true)
                .is_none(),
            "nothing to fold into before a base image exists"
        );
        let marker = log.install_base_image(CheckpointImage::default());
        log.append(put(1, 5));
        log.append(LogPayload::Watermark { wp: 6 });
        let uncovered = log.append(put(2, 50));
        std::thread::sleep(Duration::from_millis(2));
        // A down leader folds nothing.
        assert!(log
            .fold(&ReplayBound::Ts(10), FoldScope::Everything, || false)
            .is_none());
        let stats = log
            .fold(&ReplayBound::Ts(10), FoldScope::Everything, || true)
            .expect("fold ran");
        assert_eq!(stats.folded_txns, 1);
        assert_eq!(stats.truncated_entries, 3, "marker, write-set, watermark");
        assert_eq!(stats.image_records, 1);
        for i in 0..3 {
            assert_eq!(
                log.replica(i).len(),
                1,
                "replica {i} keeps the uncovered entry"
            );
        }
        let (installed, image) = log.latest_checkpoint().expect("image");
        assert_eq!(installed, marker);
        assert_eq!(image.base_lsn, uncovered);
        // The drained prefix still counts as durable, and the image is
        // restorable at any horizon at or past its install marker.
        assert_eq!(log.crash_horizon(), Some(uncovered));
        assert!(log.with_durable_image(Some(marker), |_| ()).is_some());
        // Nothing left that the bound covers: a pass that folds nothing.
        let again = log
            .fold(&ReplayBound::Ts(10), FoldScope::Everything, || true)
            .expect("fold ran");
        assert_eq!((again.folded_txns, again.truncated_entries), (0, 0));
    }

    #[test]
    fn the_image_survives_a_lost_leader_disk_and_dies_with_the_last_copy() {
        let log = rf3(0, 0, 0);
        log.install_base_image(CheckpointImage::default());
        log.append(put(1, 5));
        std::thread::sleep(Duration::from_millis(2));
        log.fold(&ReplayBound::Lsn(u64::MAX), FoldScope::Everything, || true)
            .expect("fold ran");
        let horizon = log.crash_horizon();
        log.fail_over(true); // the leader's disk is gone
        assert_eq!(
            log.with_durable_image(horizon, CheckpointImage::len),
            Some(1),
            "every intact replica holds the same image"
        );
        log.fail_over(true);
        log.fail_over(true); // ... until no copy is left
        assert!(log.latest_checkpoint().is_none());
        assert!(!log.fold_due());
    }

    #[test]
    fn chunk_folds_start_above_twice_the_target_and_back_off_when_stalled() {
        let log = ReplicatedLog::single(PartitionId(0), 0);
        log.install_base_image(CheckpointImage::default());
        // The install marker is the first retained entry.
        for seq in 1..2 * RETENTION_TARGET as u64 {
            log.append(put(seq, seq + 1));
        }
        assert!(!log.fold_due(), "at twice the target nothing is due yet");
        log.append(put(u64::MAX, 1));
        assert!(log.fold_due());
        std::thread::sleep(Duration::from_millis(2));
        // A stalled bound: the pass folds nothing and is not retried until
        // another chunk's worth of entries arrived.
        let stalled = log
            .fold(&ReplayBound::Ts(0), FoldScope::Chunk, || true)
            .expect("fold ran");
        assert_eq!(stalled.truncated_entries, 1, "only the install marker");
        let stalled = log
            .fold(&ReplayBound::Ts(0), FoldScope::Chunk, || true)
            .expect("fold ran");
        assert_eq!(stalled.truncated_entries, 0);
        assert!(!log.fold_due());
        for seq in 0..FOLD_CHUNK as u64 {
            log.append(put(1 << 40 | seq, 1));
        }
        assert!(log.fold_due());
        // The bound moves again: one chunk per pass, never below the target.
        let before = log.len();
        let stats = log
            .fold(&ReplayBound::Lsn(u64::MAX), FoldScope::Chunk, || true)
            .expect("fold ran");
        assert_eq!(stats.truncated_entries, FOLD_CHUNK);
        assert_eq!(log.len(), before - FOLD_CHUNK);
        while log.fold_due() {
            log.fold(&ReplayBound::Lsn(u64::MAX), FoldScope::Chunk, || true);
        }
        assert!(log.len() > RETENTION_TARGET && log.len() <= 2 * RETENTION_TARGET);
    }

    #[test]
    fn followers_catch_up_when_something_consults_them_and_not_before() {
        // Appends touch the leader's copy only; the first read that needs a
        // quorum vote carries the whole tail to the followers in one go.
        let log = rf3(0, 0, 0);
        log.append(put(1, 5));
        log.append(put(2, 6));
        assert_eq!(log.len(), 2, "the leader holds what it appended");
        assert_eq!((log.replicas[1].len(), log.replicas[2].len()), (0, 0));
        assert_eq!(log.replicated_entries(), 0);
        assert_eq!(log.durable_lsn(), Some(1));
        assert_eq!((log.replicas[1].len(), log.replicas[2].len()), (2, 2));
        assert_eq!(
            (log.replication_batches(), log.replicated_entries()),
            (1, 2)
        );
        // Nothing new: a read that finds the followers current carries
        // nothing and counts nothing.
        assert_eq!(log.durable_lsn(), Some(1));
        assert_eq!(log.replication_batches(), 1);
        // A single copy has nobody to feed.
        let single = ReplicatedLog::single(PartitionId(0), 0);
        single.append(put(1, 5));
        assert_eq!(single.durable_lsn(), Some(0));
        assert_eq!(single.replication_batches(), 0);
    }

    #[test]
    fn concurrent_appends_sequence_densely_and_replicate_identically() {
        // Seeded multi-threaded append property test: with T threads
        // appending concurrently (each yielding pseudo-randomly to vary the
        // interleaving), the pipeline must still produce (1) dense gap-free
        // LSNs, (2) per-key commit-ts order = log order, and (3) follower
        // copies byte-identical to the leader once caught up.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 200;
        let seed: u64 = std::env::var("PRIMO_APPEND_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(7);
        let log = Arc::new(rf3(0, 0, 0));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    let mut rng = FastRng::new(seed.wrapping_add(t));
                    for i in 0..PER_THREAD {
                        // Key = thread id, commit ts strictly increasing per
                        // key: exactly the per-key install order the
                        // durability invariant promises to preserve.
                        log.append(LogPayload::TxnWrites {
                            txn: TxnId::new(PartitionId(0), t * PER_THREAD + i + 1),
                            ts: i + 1,
                            writes: vec![crate::LoggedWrite::put(
                                TableId(0),
                                t,
                                Value::from_u64(i),
                            )],
                        });
                        if rng.next_u64().is_multiple_of(4) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = THREADS * PER_THREAD;
        assert_eq!(log.end_lsn(), total);
        let leader_entries = log.entries_from(0);
        assert_eq!(leader_entries.len(), total as usize);
        // Dense gap-free LSNs, monotone append timestamps.
        let mut last_ts_per_key = vec![0u64; THREADS as usize];
        for (i, e) in leader_entries.iter().enumerate() {
            assert_eq!(e.lsn, i as u64, "gap in the LSN sequence");
            if let LogPayload::TxnWrites { ts, writes, .. } = e.payload.as_ref() {
                let key = writes[0].key as usize;
                assert!(
                    *ts > last_ts_per_key[key],
                    "per-key commit-ts order violated at lsn {i}"
                );
                last_ts_per_key[key] = *ts;
            } else {
                panic!("unexpected payload");
            }
        }
        // Followers byte-identical to the leader once caught up (the
        // `replica` accessor feeds them): same LSN, timestamp, term, and the
        // very same shared payload allocation.
        for r in 0..3 {
            let copy = log.replica(r).entries_from(0);
            assert_eq!(copy.len(), leader_entries.len(), "replica {r} length");
            for (a, b) in copy.iter().zip(&leader_entries) {
                assert_eq!(a.lsn, b.lsn);
                assert_eq!(a.appended_at_us, b.appended_at_us);
                assert_eq!(a.term, b.term);
                assert!(
                    Arc::ptr_eq(&a.payload, &b.payload),
                    "replica {r} holds a different payload at lsn {}",
                    a.lsn
                );
            }
        }
    }

    #[test]
    fn the_unacked_tail_reaches_the_survivors_on_fail_over_and_stays_below_the_quorum_horizon() {
        // Entries appended but not yet quorum-acknowledged are rolled back
        // by a crash: physically on the survivors (so follower LSN counters
        // stay aligned and repair works), but below no quorum horizon —
        // bounded replay with the crash-time cutoff reproduces nothing.
        let log = rf3(0, 300_000, 0); // leader instant, followers 300ms out
        log.append(put(1, 5));
        log.append(put(2, 6));
        let cutoff = log.durable_lsn();
        assert_eq!(cutoff, None, "no quorum inside the replication window");
        let new_leader = log.fail_over(true); // crash + disk loss
        assert_eq!(new_leader, 1);
        // The followers were fed before the wipe: both survivors physically
        // hold the whole log…
        assert_eq!(log.replica(1).len(), 2);
        assert_eq!(log.replica(2).len(), 2);
        assert_eq!(log.replica(0).len(), 0, "the wiped disk lost everything");
        // …but the crash-time horizon says nothing was acknowledged, so
        // recovery-style bounded replay loses the tail honestly.
        assert!(log
            .replay_range(0, &ReplayBound::Ts(u64::MAX), cutoff)
            .is_empty());
        assert_eq!(log.durable_lsn(), None);
    }

    #[test]
    fn append_batch_is_one_sequencer_acquisition_with_dense_lsns() {
        let log = rf3(0, 0, 0);
        log.append(put(1, 5));
        let first = log.append_batch(vec![put(2, 6), put(3, 7), put(4, 8)]);
        assert_eq!(first, Some(1));
        assert_eq!(log.append_batch(Vec::new()), None);
        assert_eq!(log.end_lsn(), 4);
        for i in 0..3 {
            assert_eq!(log.replica(i).len(), 4, "replica {i}");
        }
        // Batch order = LSN order.
        let entries = log.entries_from(1);
        let ts: Vec<Ts> = entries
            .iter()
            .map(|e| match e.payload.as_ref() {
                LogPayload::TxnWrites { ts, .. } => *ts,
                _ => panic!("unexpected payload"),
            })
            .collect();
        assert_eq!(ts, vec![6, 7, 8]);
    }

    #[test]
    fn commit_votes_and_decisions_survive_leader_disk_loss() {
        let log = rf3(0, 0, 0);
        let t = txn(1);
        log.append(LogPayload::CommitVote {
            txn: t,
            coordinator: PartitionId(0),
            commit: true,
        });
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(log.commit_vote_for(t, None), Some(true));
        assert_eq!(log.unresolved_commit_votes(None), vec![t]);
        // The coordinator's replica loses its disk: the quorum still holds
        // the vote, so any survivor can terminate the in-doubt transaction.
        let cutoff = log.durable_lsn();
        log.fail_over(true);
        assert_eq!(log.commit_vote_for(t, cutoff), Some(true));
        assert_eq!(log.unresolved_commit_votes(cutoff), vec![t]);
        log.append(LogPayload::CommitDecision {
            txn: t,
            commit: false,
        });
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(log.commit_decision_for(t, None), Some(false));
        assert!(log.unresolved_commit_votes(None).is_empty());
    }

    #[test]
    fn append_wait_accounts_contended_sequencer_acquisitions_only() {
        let log = Arc::new(rf3(0, 0, 0));
        log.append(put(1, 5));
        assert_eq!(
            log.append_wait_us(),
            0,
            "uncontended appends never touch the clock"
        );
    }
}
