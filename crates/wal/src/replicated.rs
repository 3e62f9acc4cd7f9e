//! The replicated per-partition log: a replica set of [`PartitionWal`]s with
//! quorum durability and deterministic leader hand-off.
//!
//! The paper's partitions replicate their log through Raft (§5.2: "the new
//! leader retrieves the latest `Wp` in its Raft log"); the single-copy
//! `PartitionWal` of earlier revisions could only survive losing a leader's
//! *memory*, not its disk. [`ReplicatedLog`] closes that gap:
//!
//! * **Replica set.** Each partition owns `replication_factor` log copies.
//!   Replica 0 is the initial leader's local disk (persist delay
//!   `persist_delay_us`); every other replica persists after the one-way
//!   replication hop plus its own disk delay.
//! * **Pipelined appends.** [`ReplicatedLog::append`] is a two-stage
//!   pipeline. Stage 1 — the *sequencer*, the only part a committer pays
//!   for while still holding its write locks — reserves the LSN, stamps
//!   `appended_at_us` and pushes the entry into a staging ring, all under
//!   one short lock and without touching any replica. Stage 2 — the
//!   *replication pump*, a per-partition background thread — drains the
//!   ring and ships the staged tail to **every** replica (leader included)
//!   as one shared batch segment: O(1) delivery per replica per **batch**,
//!   one batched message charge for the follower hops. Each replica folds
//!   received segments into its own log storage lazily, on its next read.
//!   Entries keep the sequencer's `appended_at_us` on every copy, so
//!   durability clocks run from the original append instant and the
//!   quorum math below is independent of when the pump ran. Every durable
//!   read and every replica-set mutation drains the ring first, so the
//!   pipeline is invisible outside this module (see ARCHITECTURE.md,
//!   "Append pipeline"). A single-copy log (RF 1) skips the pipeline and
//!   appends synchronously, exactly like the old `PartitionWal`.
//! * **Quorum durability.** `append` returns an LSN immediately, but
//!   [`ReplicatedLog::durable_lsn`] is the **quorum-acked** LSN: the highest
//!   LSN persisted by a majority of replicas (the median replica for RF 3).
//!   Every durable read — watermark lookup, checkpoint restore, bounded
//!   replay, checkpoint folding — is clamped to that horizon,
//!   so nothing is ever treated as durable that a quorum could not
//!   reproduce. With RF 1 the quorum is the single copy and behaviour is
//!   identical to the old `PartitionWal`.
//! * **Terms and leader hand-off.** The log carries a leadership term,
//!   stamped on every entry. A crash bumps the term and moves leadership to
//!   the **deterministic successor**: the first replica after the failed
//!   leader in ring order among the replicas holding the longest intact
//!   log. A crash that also discards the leader's disk first flushes the
//!   staging ring (the tail is physically on the survivors, exactly as
//!   under the old synchronous fan-out — "lost" means *not quorum-acked*,
//!   never *dropped from surviving disks*) and then wipes that replica, so
//!   the successor is always a surviving copy — and recovery rebuilds the
//!   store from it. A second crash landing mid-replay bumps the term again;
//!   the recovery loop notices and restarts from the next successor (see
//!   `RecoveryManager`).
//! * **Repair.** After recovery, lagging or wiped replicas are re-seeded
//!   from the elected leader's log ([`ReplicatedLog::repair_replicas`]), so
//!   the replica set returns to full strength and can absorb further
//!   crashes.
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
    CheckpointImage, ImageSummary, LogEntry, LogPayload, PartitionWal, ReplayBound, ReplayedTxn,
    FOLD_CHUNK, RETENTION_TARGET,
};
use parking_lot::{Condvar, Mutex};
use primo_common::config::WalConfig;
use primo_common::sim_time::now_us;
use primo_common::{PartitionId, Ts, TxnId};
use primo_net::SimNetwork;
use primo_trace::{FlightRecorder, TraceEventKind};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// How often the replication pump polls the staging ring. Appends never
/// signal the pump — a wake-up per append would put a futex syscall back on
/// the commit critical section and shrink every batch to one entry; instead
/// the pump self-schedules on this tick and drains whatever accumulated.
/// The tick bounds pump lag, which is invisible anyway: follower durability
/// clocks run from the sequencer's `appended_at_us`, and every durable read
/// drains the ring inline. Only shutdown notifies the condvar (prompt exit).
const PUMP_TICK: Duration = Duration::from_millis(2);

/// Replica counts up to this size collect quorum votes on the stack
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
    core: Arc<LogCore>,
    /// Stage-2 drainer; `None` for single-copy logs (nothing to replicate).
    pump: Option<std::thread::JoinHandle<()>>,
}

/// Shared state of the replica set — everything both the callers (through
/// [`ReplicatedLog`]'s delegating methods) and the replication pump touch.
///
/// Lock order: `image` → `ship_lock` → `ring` → a replica's inner log lock.
/// The sequencer (stage 1) takes only `ring`; the pump and every drain-
/// before-read path take `ship_lock` first, so a drain observed by one
/// caller is complete before the next begins and batches reach the
/// followers in LSN order.
struct LogCore {
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
    /// The sequencer's next LSN mirrored for the same check.
    end_hint: AtomicU64,
    /// After a self-driven pass that could fold nothing (the scheme's bound
    /// or the quorum stalled), the log end at which it is worth trying
    /// again; 0 otherwise.
    fold_retry_at: AtomicU64,
    /// The replica set; index 0 is the initial leader's local copy.
    replicas: Vec<Arc<PartitionWal>>,
    /// Replicas whose disk was discarded and not yet repaired. A wiped
    /// replica keeps receiving new appends (LSN-aligned with its peers) but
    /// has a hole in its history, so it must not vote on quorum durability
    /// or stand for election until [`ReplicatedLog::repair_replicas`] runs.
    wiped: Vec<AtomicBool>,
    /// Majority size: `replication_factor / 2 + 1`.
    quorum: usize,
    /// Delay between appending a record and its quorum acknowledgement: the
    /// k-th smallest replica persist delay (k = quorum). This is what the
    /// group-commit schemes wait for before acknowledging anything.
    quorum_ack_delay_us: u64,
    leader: AtomicUsize,
    term: AtomicU64,
    leader_changes: AtomicU64,
    /// The stage-1 sequencer lock **and** staging ring in one: appenders
    /// serialize on this mutex, reserve the next LSN, stamp the append
    /// instant and push the sequenced entry here — touching **no replica**;
    /// the pump swaps the vector out wholesale and ships it as one shared
    /// segment. One lock covers sequencing and staging, so the commit
    /// critical section pays a single acquisition and no per-replica work.
    /// (A single-copy log skips staging and appends straight to its one
    /// replica under this same lock.)
    ring: Mutex<Sequencer>,
    /// Wakes the pump for shutdown only — appends never signal it (see
    /// [`PUMP_TICK`]).
    signal: Condvar,
    /// Serializes stage-2 ships (pump drains, drain-before-read paths,
    /// replica-set mutations) without blocking stage-1 appends.
    ship_lock: Mutex<()>,
    shutdown: AtomicBool,
    /// Message accounting for the replication fan-out (latency is never
    /// charged to the appender — the cost shows up as quorum-ack delay).
    net: Option<Arc<SimNetwork>>,
    /// Total microseconds appenders spent blocked on the sequencer lock
    /// (`MetricsSnapshot::wal_append_wait_us`). Only contended acquisitions
    /// pay the two clock reads.
    append_wait_us: AtomicU64,
    /// Stage-2 batches shipped / entries shipped — their ratio is the mean
    /// replication batch length (`MetricsSnapshot::replication_batch_len`).
    shipped_batches: AtomicU64,
    shipped_entries: AtomicU64,
    /// Cluster flight recorder, injected once right after construction
    /// ([`ReplicatedLog::set_recorder`]). A `OnceLock` keeps the hot paths
    /// at one relaxed atomic load when tracing is wired and avoids
    /// threading the recorder through every constructor.
    recorder: OnceLock<Arc<FlightRecorder>>,
}

/// Stage-1 state under the ring lock: the staged tail plus the partition's
/// LSN counter. The counter — not any replica — is the allocation
/// authority while replication runs pipelined; replica-set mutations
/// (fail-over, truncation, repair) resynchronize it from the leader's log
/// inside [`LogCore::with_sequencer_flushed`].
#[derive(Default)]
struct Sequencer {
    staged: Vec<LogEntry>,
    next_lsn: u64,
}

impl std::fmt::Debug for ReplicatedLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedLog")
            .field("partition", &self.core.partition)
            .field("replicas", &self.core.replicas.len())
            .field("leader", &self.core.leader.load(Ordering::Relaxed))
            .field("term", &self.core.term.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for ReplicatedLog {
    fn drop(&mut self) {
        if let Some(pump) = self.pump.take() {
            self.core.shutdown.store(true, Ordering::Release);
            // Lock the ring before notifying so the pump is either inside
            // the wait (and receives the notification) or past its next
            // shutdown check — never between the check and the wait.
            drop(self.core.ring.lock());
            self.core.signal.notify_all();
            let _ = pump.join();
        }
    }
}

impl ReplicatedLog {
    /// Build the replica set for one partition. `replication_hop_us` is the
    /// one-way network latency a record pays to reach a non-leader replica
    /// (derived from the cluster's `NetConfig`); `net` receives message
    /// accounting for the replication fan-out.
    pub fn new(
        partition: PartitionId,
        cfg: WalConfig,
        replication_hop_us: u64,
        net: Option<Arc<SimNetwork>>,
    ) -> Self {
        let rf = cfg.replication_factor.max(1);
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
        let replicas = delays
            .iter()
            .map(|&d| {
                Arc::new(PartitionWal::with_ack_delay(
                    partition,
                    d,
                    quorum_ack_delay_us,
                ))
            })
            .collect();
        let core = Arc::new(LogCore {
            partition,
            image: Mutex::new(None),
            image_base: AtomicU64::new(u64::MAX),
            end_hint: AtomicU64::new(0),
            fold_retry_at: AtomicU64::new(0),
            replicas,
            wiped: (0..rf).map(|_| AtomicBool::new(false)).collect(),
            quorum,
            quorum_ack_delay_us,
            leader: AtomicUsize::new(0),
            term: AtomicU64::new(0),
            leader_changes: AtomicU64::new(0),
            ring: Mutex::new(Sequencer::default()),
            signal: Condvar::new(),
            ship_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            net,
            append_wait_us: AtomicU64::new(0),
            shipped_batches: AtomicU64::new(0),
            shipped_entries: AtomicU64::new(0),
            recorder: OnceLock::new(),
        });
        let pump = (rf > 1).then(|| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("wal-pump-p{}", partition.0))
                .spawn(move || core.pump_loop())
                .expect("spawn replication pump")
        });
        ReplicatedLog { core, pump }
    }

    /// A single-copy log (replication factor 1, no hop): the old
    /// `PartitionWal` semantics, used by unit tests and RF-1 clusters.
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
        self.core.partition
    }

    /// Attach the cluster flight recorder (sequencer waits, replication
    /// quorum acks and leader changes become trace events). Idempotent;
    /// later calls are ignored.
    pub fn set_recorder(&self, recorder: Arc<FlightRecorder>) {
        let _ = self.core.recorder.set(recorder);
    }

    pub fn replication_factor(&self) -> usize {
        self.core.replicas.len()
    }

    /// Majority size of the replica set.
    pub fn quorum(&self) -> usize {
        self.core.quorum
    }

    /// Time between appending a record and its quorum acknowledgement — what
    /// the group-commit schemes wait out before acknowledging a commit, and
    /// what `MetricsSnapshot::replication_lag_us` reports.
    pub fn quorum_ack_delay_us(&self) -> u64 {
        self.core.quorum_ack_delay_us
    }

    /// Current leadership term (bumped on every crash / hand-off).
    pub fn term(&self) -> u64 {
        self.core.term.load(Ordering::Acquire)
    }

    /// Index of the current leader replica.
    pub fn leader_index(&self) -> usize {
        self.core.leader.load(Ordering::Acquire)
    }

    /// How many times leadership moved to a different replica.
    pub fn leader_changes(&self) -> u64 {
        self.core.leader_changes.load(Ordering::Relaxed)
    }

    /// Total microseconds appenders spent blocked on the stage-1 sequencer
    /// lock (commit-critical-section contention; 0 when every append found
    /// the sequencer free).
    pub fn append_wait_us(&self) -> u64 {
        self.core.append_wait_us.load(Ordering::Relaxed)
    }

    /// Stage-2 batches shipped to the follower replicas so far.
    pub fn replication_batches(&self) -> u64 {
        self.core.shipped_batches.load(Ordering::Relaxed)
    }

    /// Log entries shipped to the follower replicas so far (each batch
    /// carries one or more).
    pub fn replicated_entries(&self) -> u64 {
        self.core.shipped_entries.load(Ordering::Relaxed)
    }

    /// Direct access to one replica (tests and white-box assertions). The
    /// staging ring is drained first, so the copy observed is exactly what
    /// the old synchronous fan-out would have produced.
    pub fn replica(&self, idx: usize) -> &Arc<PartitionWal> {
        self.core.sync_replicas();
        &self.core.replicas[idx]
    }

    /// Append a record; returns its LSN (identical on all copies). Never
    /// blocks on I/O or the network — stage 1 of the pipeline reserves the
    /// LSN, stamps the append instant and stages the entry under one short
    /// lock; the background replication pump later ships the staged tail to
    /// every replica as one shared batch segment.
    pub fn append(&self, payload: LogPayload) -> u64 {
        self.core.append(payload)
    }

    /// Append a batch of records under **one** sequencer acquisition;
    /// returns the LSN of the first (`None` for an empty batch). LSNs are
    /// dense and in payload order — equivalent to calling
    /// [`ReplicatedLog::append`] per payload with no other appender
    /// interleaving, at a fraction of the critical-section cost.
    pub fn append_batch(&self, payloads: Vec<LogPayload>) -> Option<u64> {
        self.core.append_batch(payloads)
    }

    /// The LSN the next append will receive. Exact without a drain: the
    /// sequencer's counter is the allocation authority.
    pub fn end_lsn(&self) -> u64 {
        self.core.end_lsn()
    }

    pub fn len(&self) -> usize {
        self.core.sync_replicas();
        self.core.leader_replica().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The **quorum-acked** LSN: the highest LSN durable on a majority of
    /// replicas right now (`None` until a quorum persisted anything).
    /// Replicas with a discarded, not-yet-repaired disk do not vote — their
    /// history has a hole, so their highest durable entry says nothing
    /// about the prefix below it.
    pub fn durable_lsn(&self) -> Option<u64> {
        self.core.durable_lsn()
    }

    /// Whether a specific LSN is quorum-durable.
    pub fn is_durable(&self, lsn: u64) -> bool {
        self.durable_lsn().map(|d| d >= lsn).unwrap_or(false)
    }

    /// The latest quorum-durable watermark record (§5.2 — what the new
    /// leader retrieves from its replicated log).
    pub fn latest_durable_watermark(&self) -> Option<Ts> {
        self.latest_durable_watermark_at(None)
    }

    /// [`ReplicatedLog::latest_durable_watermark`] restricted to entries at
    /// or below `cutoff_lsn` (recovery passes the quorum LSN captured at
    /// crash time).
    pub fn latest_durable_watermark_at(&self, cutoff_lsn: Option<u64>) -> Option<Ts> {
        let cut = self.core.quorum_cutoff(cutoff_lsn)?;
        self.core
            .leader_replica()
            .latest_durable_watermark_at(Some(cut))
    }

    /// Install `image` as the partition's base checkpoint image, replacing
    /// any existing one: a [`LogPayload::Checkpoint`] marker is appended and
    /// the image starts covering the log from the marker on (everything
    /// logged before it is considered covered by the image). Recovery may
    /// restore the image once the marker is quorum-durable. Returns the
    /// marker's LSN.
    pub fn install_base_image(&self, mut image: CheckpointImage) -> u64 {
        let mut slot = self.core.image.lock();
        let lsn = self.append(LogPayload::Checkpoint {
            up_to_ts: image.up_to_ts,
        });
        image.installed_lsn = lsn;
        image.base_lsn = lsn;
        *slot = Some(image);
        self.core.image_base.store(lsn, Ordering::Relaxed);
        self.core.fold_retry_at.store(0, Ordering::Relaxed);
        lsn
    }

    /// Read the rolling image, regardless of durability (`None` while the
    /// partition has none). Waits out a fold in progress.
    pub fn with_image<R>(&self, read: impl FnOnce(&CheckpointImage) -> R) -> Option<R> {
        self.core.image.lock().as_ref().map(read)
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
        let slot = self.core.image.lock();
        let image = slot.as_ref()?;
        let cut = self.core.quorum_cutoff(cutoff_lsn)?;
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
        let _image = self.core.image.lock();
        self.core.durable_lsn()
    }

    /// Whether a self-driven fold step is worth taking: more than twice
    /// [`RETENTION_TARGET`] entries are retained past the image, and the
    /// last attempt did not just come back empty-handed. Three relaxed
    /// loads — cheap enough to ask after every commit.
    #[inline]
    pub fn fold_due(&self) -> bool {
        let end = self.core.end_hint.load(Ordering::Relaxed);
        let retained = end.saturating_sub(self.core.image_base.load(Ordering::Relaxed));
        retained > 2 * RETENTION_TARGET as u64
            && end >= self.core.fold_retry_at.load(Ordering::Relaxed)
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
    /// appended while its write locks are held.
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
        let core = &self.core;
        let mut slot = match scope {
            FoldScope::Chunk => core.image.try_lock()?,
            FoldScope::Everything => core.image.lock(),
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
        if let Some(durable) = core.durable_lsn() {
            let chunk =
                core.leader_replica()
                    .fold_scan(image.base_lsn, bound, durable, max_entries, keep);
            for (ts, writes) in &chunk.writes {
                image.apply(*ts, writes);
            }
            stats.folded_txns = chunk.writes.len();
            if chunk.stop_lsn > image.base_lsn {
                progressed = true;
                image.base_lsn = chunk.stop_lsn;
                core.image_base.store(chunk.stop_lsn, Ordering::Relaxed);
                drained = core.drain_replicas(chunk.stop_lsn);
                stats.truncated_entries = drained[core.leader.load(Ordering::Acquire)].len();
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
            core.end_hint.load(Ordering::Relaxed) + FOLD_CHUNK as u64
        };
        core.fold_retry_at.store(retry_at, Ordering::Relaxed);
        drop(slot);
        drop((applied, drained));
        Some(stats)
    }

    /// LSN of the newest quorum-durable epoch boundary with epoch at most
    /// `max_epoch`, at or below `cutoff_lsn` (COCO recovery / checkpoint
    /// bound — recovery passes the crash-time quorum LSN so the lookup
    /// stays valid even when the live quorum broke mid-recovery, exactly
    /// like [`ReplicatedLog::replay_range`]).
    pub fn latest_durable_epoch_boundary(
        &self,
        max_epoch: u64,
        cutoff_lsn: Option<u64>,
    ) -> Option<u64> {
        let cut = self.core.quorum_cutoff(cutoff_lsn)?;
        self.core
            .leader_replica()
            .latest_durable_epoch_boundary(max_epoch, Some(cut))
    }

    /// Durability-blind epoch-boundary lookup (survivor-side rollback
    /// bound: a surviving partition's log lost nothing).
    pub fn latest_epoch_boundary(&self, max_epoch: u64) -> Option<u64> {
        self.core.sync_replicas();
        self.core.leader_replica().latest_epoch_boundary(max_epoch)
    }

    /// Replay all quorum-durable transaction writes with `ts < up_to`.
    pub fn replay_prefix(&self, up_to: Ts) -> Vec<ReplayedTxn> {
        self.replay_range(0, &ReplayBound::Ts(up_to), None)
    }

    /// Quorum-bounded replay: like `PartitionWal::replay_range`, but only
    /// entries at or below the quorum-acked LSN count as durable — an entry
    /// the old leader persisted locally that never reached a majority is
    /// honestly lost.
    pub fn replay_range(
        &self,
        from_lsn: u64,
        bound: &ReplayBound,
        cutoff_lsn: Option<u64>,
    ) -> Vec<ReplayedTxn> {
        match self.core.quorum_cutoff(cutoff_lsn) {
            Some(cut) => self
                .core
                .leader_replica()
                .replay_range(from_lsn, bound, Some(cut)),
            None => Vec::new(),
        }
    }

    /// The newest quorum-durable [`LogPayload::CommitDecision`] verdict for
    /// `txn` at or below `cutoff_lsn` (Paxos Commit verdict assembly).
    pub fn commit_decision_for(&self, txn: TxnId, cutoff_lsn: Option<u64>) -> Option<bool> {
        let cut = self.core.quorum_cutoff(cutoff_lsn)?;
        self.core
            .leader_replica()
            .commit_decision_for(txn, Some(cut))
    }

    /// The quorum-durable [`LogPayload::CommitVote`] for `txn` at or below
    /// `cutoff_lsn`, if any.
    pub fn commit_vote_for(&self, txn: TxnId, cutoff_lsn: Option<u64>) -> Option<bool> {
        let cut = self.core.quorum_cutoff(cutoff_lsn)?;
        self.core.leader_replica().commit_vote_for(txn, Some(cut))
    }

    /// Transaction ids with a quorum-durable prepare vote but no resolution
    /// at or below `cutoff_lsn` — the in-doubt set recovery terminates (see
    /// [`PartitionWal::unresolved_commit_votes`]).
    pub fn unresolved_commit_votes(&self, cutoff_lsn: Option<u64>) -> Vec<TxnId> {
        match self.core.quorum_cutoff(cutoff_lsn) {
            Some(cut) => self
                .core
                .leader_replica()
                .unresolved_commit_votes(Some(cut)),
            None => Vec::new(),
        }
    }

    /// Transaction ids with a rollback marker anywhere in the log,
    /// regardless of durability.
    pub fn rolled_back_txns(&self) -> HashSet<TxnId> {
        self.core.sync_replicas();
        self.core.leader_replica().rolled_back_txns()
    }

    /// The `TxnWrites` entries `bound` does not cover and no marker cancels
    /// yet — survivor-side compensation input. No durability filter (this
    /// partition did not crash, so every replica holds the full log).
    pub fn collect_rolled_back(
        &self,
        bound: &ReplayBound,
        upper_cutoff: Option<u64>,
    ) -> Vec<ReplayedTxn> {
        self.core.sync_replicas();
        self.core
            .leader_replica()
            .collect_rolled_back(bound, upper_cutoff)
    }

    /// Clone the suffix of the (leader's) log starting at `from_lsn`.
    pub fn entries_from(&self, from_lsn: u64) -> Vec<LogEntry> {
        self.core.sync_replicas();
        self.core.leader_replica().entries_from(from_lsn)
    }

    /// Recovery-time log repair on **every replica**: drop the write-sets
    /// replay did not apply so no later fold can resurrect them. The
    /// cancelled-transaction set is computed once, from the leader's view
    /// of marker durability, and applied uniformly — replicas with slower
    /// disks must not keep entries the leader purged (they would end up
    /// *longer* than the leader, confusing the longest-log election and
    /// un-healable by repair). Returns the number of entries removed from
    /// the leader's copy.
    pub fn retain_replayable(
        &self,
        from_lsn: u64,
        bound: &ReplayBound,
        cutoff_lsn: Option<u64>,
    ) -> usize {
        self.core.with_sequencer_flushed(|core| {
            let leader = core.leader.load(Ordering::Acquire);
            let rolled_back = core.replicas[leader].durable_rolled_back(cutoff_lsn);
            let mut removed = 0;
            for (i, replica) in core.replicas.iter().enumerate() {
                let n = replica.retain_replayable_with(from_lsn, bound, cutoff_lsn, &rolled_back);
                if i == leader {
                    removed = n;
                }
            }
            removed
        })
    }

    /// Discard one replica's disk (entries dropped, LSN counter kept so the
    /// replica stays aligned for future appends). It stops voting on quorum
    /// durability and standing for election until repaired. The staging
    /// ring is flushed first: a staged entry was physically delivered (and
    /// is then dropped with the rest of the disk), never resurrected by a
    /// later drain.
    pub fn wipe_replica(&self, idx: usize) -> usize {
        let mut image = self.core.image.lock();
        self.core
            .with_sequencer_flushed(|core| core.wipe_replica(idx, &mut image))
    }

    /// Bump the leadership term and hand leadership to the deterministic
    /// successor: the first replica after the failed leader in ring order
    /// among the non-wiped replicas holding the longest log. The staging
    /// ring is flushed first — under the old synchronous fan-out the
    /// not-yet-quorum-acked tail was physically present on every replica at
    /// crash time, and the flush reproduces exactly that state (the tail
    /// stays "lost" in the only sense that matters: below no quorum
    /// horizon). With `discard_leader_disk` the failed leader's replica is
    /// then wiped (the crash lost its disk, not just its memory), so the
    /// successor is always a surviving copy. Returns the new leader index.
    pub fn fail_over(&self, discard_leader_disk: bool) -> usize {
        // Image lock first: a fold in progress finishes its chunk on every
        // replica before any disk is discarded or the leader changes.
        let mut image = self.core.image.lock();
        self.core.with_sequencer_flushed(|core| {
            let old = core.leader.load(Ordering::Acquire);
            if discard_leader_disk {
                core.wipe_replica(old, &mut image);
            }
            let term = core.term.fetch_add(1, Ordering::AcqRel) + 1;
            let new = core.elect_successor(old);
            if new != old {
                core.leader.store(new, Ordering::Release);
                core.leader_changes.fetch_add(1, Ordering::Relaxed);
            }
            core.trace(TraceEventKind::LeaderChange {
                term,
                leader: new as u32,
            });
            new
        })
    }

    /// Re-seed wiped or lagging replicas from the elected leader's log (the
    /// authority after an election — replicas never diverge here, they can
    /// only lose their disk wholesale). Returns how many replicas were
    /// repaired. Run at the end of recovery so the replica set is back to
    /// full strength before the partition serves again.
    pub fn repair_replicas(&self) -> usize {
        self.core.with_sequencer_flushed(|core| {
            let leader = core.leader.load(Ordering::Acquire);
            let (authority, truncated_before) = core.replicas[leader].authority();
            let next_lsn = core.replicas[leader].end_lsn();
            let mut repaired = 0;
            for (i, replica) in core.replicas.iter().enumerate() {
                if i == leader {
                    // The elected leader's content is the authority by
                    // definition. Clearing its wiped flag is only sound because
                    // repair runs at the end of recovery, *after* the store and
                    // the retained log were reconciled against this very copy —
                    // if the leader itself was wiped (every replica lost its
                    // disk), the missing history has just been adjudicated as
                    // lost, and the flag must clear or the partition could
                    // never acknowledge anything again.
                    core.wiped[i].store(false, Ordering::Release);
                    continue;
                }
                // Heal any divergence from the authority — shorter (wiped or
                // lagging) and longer (a copy that somehow kept entries the
                // leader dropped) alike.
                if core.wiped[i].load(Ordering::Acquire) || replica.len() != authority.len() {
                    replica.replace_entries(authority.clone(), truncated_before, next_lsn);
                    core.wiped[i].store(false, Ordering::Release);
                    repaired += 1;
                }
            }
            repaired
        })
    }
}

impl LogCore {
    fn leader_replica(&self) -> &Arc<PartitionWal> {
        &self.replicas[self.leader.load(Ordering::Acquire)]
    }

    /// Record a partition-scoped (no transaction) trace event, if a
    /// recorder is attached.
    fn trace(&self, kind: TraceEventKind) {
        if let Some(rec) = self.recorder.get() {
            rec.emit(None, Some(self.partition), kind);
        }
    }

    /// [`LogCore::trace`] with the timestamp supplied by the caller — for
    /// hot paths that already hold a fresh clock reading.
    fn trace_at(&self, at_us: u64, kind: TraceEventKind) {
        if let Some(rec) = self.recorder.get() {
            rec.emit_at(at_us, None, Some(self.partition), kind);
        }
    }

    /// Next LSN to be assigned. The sequencer counter is authoritative
    /// while replication runs pipelined; a single-copy log delegates to its
    /// one replica (whose appends are synchronous).
    fn end_lsn(&self) -> u64 {
        let seq = self.ring.lock();
        if self.replicas.len() == 1 {
            self.leader_replica().end_lsn()
        } else {
            seq.next_lsn
        }
    }

    /// Stage 1: sequence one payload under the ring lock — reserve the LSN,
    /// stamp `appended_at_us`, stage the entry. No replica is touched: the
    /// pump later ships the staged tail to **every** copy (leader included)
    /// as one shared segment, carrying exactly this LSN, timestamp and
    /// term, so durability clocks run from this instant regardless of when
    /// the pump ran. A single-copy log appends straight to its one replica
    /// instead (the old `PartitionWal` fast path).
    fn append(&self, payload: LogPayload) -> u64 {
        let payload = Arc::new(payload);
        let mut seq = self.lock_sequencer();
        let term = self.term.load(Ordering::Acquire);
        if self.replicas.len() == 1 {
            let leader = self.leader.load(Ordering::Acquire);
            let lsn = self.replicas[leader].append_in_term(term, payload);
            self.end_hint.store(lsn + 1, Ordering::Relaxed);
            return lsn;
        }
        let entry = LogEntry {
            lsn: seq.next_lsn,
            appended_at_us: now_us(),
            term,
            payload,
        };
        seq.next_lsn += 1;
        self.end_hint.store(seq.next_lsn, Ordering::Relaxed);
        let lsn = entry.lsn;
        // Stage only; the pump picks the entry up on its next tick. No
        // signal — a wake-up here costs a syscall on the commit path.
        seq.staged.push(entry);
        lsn
    }

    /// Stage 1, batched: sequence every payload under **one** ring-lock
    /// acquisition (dense LSNs, payload order preserved).
    fn append_batch(&self, payloads: Vec<LogPayload>) -> Option<u64> {
        if payloads.is_empty() {
            return None;
        }
        let mut seq = self.lock_sequencer();
        let term = self.term.load(Ordering::Acquire);
        let mut first = None;
        if self.replicas.len() == 1 {
            let leader = self.leader.load(Ordering::Acquire);
            for payload in payloads {
                let lsn = self.replicas[leader].append_in_term(term, Arc::new(payload));
                first.get_or_insert(lsn);
                self.end_hint.store(lsn + 1, Ordering::Relaxed);
            }
            return first;
        }
        seq.staged.reserve(payloads.len());
        for payload in payloads {
            let entry = LogEntry {
                lsn: seq.next_lsn,
                appended_at_us: now_us(),
                term,
                payload: Arc::new(payload),
            };
            seq.next_lsn += 1;
            first.get_or_insert(entry.lsn);
            seq.staged.push(entry);
        }
        self.end_hint.store(seq.next_lsn, Ordering::Relaxed);
        first
    }

    /// Take the sequencer lock, accounting contended waits (the metric the
    /// pipeline exists to shrink). The uncontended fast path costs no clock
    /// reads. A contended acquisition yields and retries instead of parking
    /// outright: the critical section is a couple hundred nanoseconds, so a
    /// yield usually hands the holder the time it needs and the next try
    /// succeeds — without registering a waiter, which would also put a
    /// futex wake on the holder's unlock path (the commit critical
    /// section). After a bounded number of yields it parks for real.
    fn lock_sequencer(&self) -> parking_lot::MutexGuard<'_, Sequencer> {
        if let Some(guard) = self.ring.try_lock() {
            return guard;
        }
        let blocked_at = now_us();
        let mut attempts = 0u32;
        let guard = loop {
            std::thread::yield_now();
            if let Some(guard) = self.ring.try_lock() {
                break guard;
            }
            attempts += 1;
            if attempts >= 64 {
                break self.ring.lock();
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

    /// Stage 2: drain the staging ring and ship the batch to the follower
    /// replicas. Called by the pump and by every drain-before-read path;
    /// `ship_lock` serializes them so batches land in LSN order.
    fn drain_staged(&self) {
        if self.replicas.len() == 1 {
            return;
        }
        let _ship = self.ship_lock.lock();
        let batch = std::mem::take(&mut self.ring.lock().staged);
        self.ship(batch);
    }

    /// Deliver a drained batch to the replica set as **one shared segment**:
    /// the batch is frozen into an `Arc<[LogEntry]>` (a move, not a clone)
    /// and handed to every replica in O(1) each — replicas fold it into
    /// their own storage lazily, on their next read. The leader's hand-off
    /// is local; only the follower deliveries count as network messages,
    /// charged once per batch. Caller holds `ship_lock` (directly or via
    /// [`LogCore::with_sequencer_flushed`]), so the leader cannot change
    /// mid-ship and segments arrive in LSN order.
    fn ship(&self, batch: Vec<LogEntry>) {
        if batch.is_empty() {
            return;
        }
        let shipped = batch.len() as u64;
        let segment: Arc<[LogEntry]> = batch.into();
        for replica in &self.replicas {
            replica.receive_segment(Arc::clone(&segment));
        }
        if let Some(net) = &self.net {
            net.note_background_messages(shipped * (self.replicas.len() as u64 - 1));
        }
        self.shipped_batches.fetch_add(1, Ordering::Relaxed);
        self.shipped_entries.fetch_add(shipped, Ordering::Relaxed);
        // The segment's own last LSN, deliberately not `durable_lsn()`:
        // that read drains the ring, which needs the `ship_lock` this very
        // caller is holding. The shipped tail bounds quorum durability for
        // this batch anyway.
        self.trace(TraceEventKind::QuorumAck {
            entries: shipped,
            durable_lsn: segment.last().map(|e| e.lsn).unwrap_or(0),
        });
    }

    /// Make every replica current before a read that consults one (quorum
    /// votes, durable scans, white-box replica access). No-op for RF 1,
    /// whose appends are synchronous.
    fn sync_replicas(&self) {
        if self.replicas.len() > 1 {
            self.drain_staged();
        }
    }

    /// Flush the staging ring and run `f` while holding both the ship lock
    /// and the ring lock: no append can interleave and no pump drain is in
    /// flight, so `f` sees (and may mutate) a fully consistent replica set.
    /// Every replica-set mutation — fail-over, wipe, repair, retention,
    /// truncation — goes through here; afterwards the sequencer's LSN
    /// counter is resynchronized from the (possibly re-elected, possibly
    /// truncated) leader's log.
    fn with_sequencer_flushed<R>(&self, f: impl FnOnce(&Self) -> R) -> R {
        let _ship = self.ship_lock.lock();
        let mut seq = self.ring.lock();
        let batch = std::mem::take(&mut seq.staged);
        self.ship(batch);
        let result = f(self);
        seq.next_lsn = self.leader_replica().end_lsn();
        self.end_hint.store(seq.next_lsn, Ordering::Relaxed);
        result
    }

    /// Caller holds the image lock (`image` is its content): the image is
    /// as replicated as the log, so it survives until the last intact copy
    /// is wiped and is lost with it.
    fn wipe_replica(&self, idx: usize, image: &mut Option<CheckpointImage>) -> usize {
        self.wiped[idx].store(true, Ordering::Release);
        if self.wiped.iter().all(|w| w.load(Ordering::Acquire)) {
            *image = None;
            self.image_base.store(u64::MAX, Ordering::Relaxed);
        }
        self.replicas[idx].wipe_log()
    }

    /// Drain the prefix below `lsn` off every replica (wiped ones included:
    /// they keep receiving appends and must not outgrow their peers).
    /// `ship_lock` keeps the replica set still meanwhile — no pump delivery,
    /// election or repair observes some replicas drained and others not.
    /// Returns each replica's drained entries for the caller to drop outside
    /// its locks. Caller holds the image lock.
    fn drain_replicas(&self, lsn: u64) -> Vec<Vec<LogEntry>> {
        let _ship = self.ship_lock.lock();
        self.replicas.iter().map(|r| r.drain_before(lsn)).collect()
    }

    /// The quorum-acked LSN (see [`ReplicatedLog::durable_lsn`]).
    /// Allocation-free for replica sets up to [`INLINE_VOTES`]: votes are
    /// collected and partially sorted on the stack — this runs on every
    /// watermark lookup, snapshot-horizon read and replay bound.
    fn durable_lsn(&self) -> Option<u64> {
        self.sync_replicas();
        let n = self.replicas.len();
        if n <= INLINE_VOTES {
            let mut votes = [None; INLINE_VOTES];
            for (i, (replica, wiped)) in self.replicas.iter().zip(&self.wiped).enumerate() {
                if !wiped.load(Ordering::Acquire) {
                    votes[i] = replica.durable_lsn();
                }
            }
            let votes = &mut votes[..n];
            votes.sort_unstable_by(|a, b| b.cmp(a)); // descending; None sorts last
            votes[self.quorum - 1]
        } else {
            let mut votes: Vec<Option<u64>> = self
                .replicas
                .iter()
                .zip(&self.wiped)
                .map(|(r, wiped)| {
                    if wiped.load(Ordering::Acquire) {
                        None
                    } else {
                        r.durable_lsn()
                    }
                })
                .collect();
            votes.sort_by(|a, b| b.cmp(a));
            votes[self.quorum - 1]
        }
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
        let longest = self
            .replicas
            .iter()
            .zip(&self.wiped)
            .filter(|(_, w)| !w.load(Ordering::Acquire))
            .map(|(r, _)| r.len())
            .max();
        let Some(longest) = longest else {
            return failed;
        };
        for step in 1..=n {
            let i = (failed + step) % n;
            if !self.wiped[i].load(Ordering::Acquire) && self.replicas[i].len() == longest {
                return i;
            }
        }
        failed
    }

    /// Stage-2 drainer: poll the ring every [`PUMP_TICK`] (appends stage
    /// silently; only shutdown signals), drain whatever accumulated — the
    /// tick is what turns a stream of appends into a batch. On shutdown the
    /// ring is drained one final
    /// time — by then the owning [`ReplicatedLog`] is being dropped, so no
    /// appender can race the flush.
    fn pump_loop(&self) {
        loop {
            {
                let mut ring = self.ring.lock();
                if !self.shutdown.load(Ordering::Acquire) {
                    // Sleep a full tick even when entries are already
                    // staged: the tick is what turns a stream of appends
                    // into a batch, and an always-ready pump would spin on
                    // the sequencer lock against the committers it exists
                    // to unburden. (The shutdown check happens under the
                    // ring lock; `Drop` stores the flag before taking it,
                    // so the pump is either warned here or already waiting
                    // when the notification fires — never in between.)
                    self.signal.wait_for(&mut ring, PUMP_TICK);
                }
            }
            self.drain_staged();
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
        }
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
            assert_eq!(log.replica(i).end_lsn(), 2, "replica {i}");
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
        assert_eq!(log.replica(0).durable_lsn(), Some(0), "leader persisted");
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
        for i in 0..3 {
            assert_eq!(log.replica(i).end_lsn(), 3, "replica {i}");
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
    fn single_replica_log_behaves_like_the_old_partition_wal() {
        let log = ReplicatedLog::single(PartitionId(3), 0);
        assert_eq!(log.partition(), PartitionId(3));
        let lsn = log.append(put(1, 5));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(log.durable_lsn(), Some(lsn));
        assert_eq!(log.replay_prefix(10).len(), 1);
        assert_eq!(log.fail_over(false), 0, "a ring of one elects itself");
        assert_eq!(log.leader_changes(), 0);
        assert!(!log.is_empty());
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
    fn pump_ships_staged_entries_without_a_reader_drain() {
        // The background pump alone must replicate — no durable read or
        // white-box accessor forcing a drain. Poll the shipped-entry
        // counter (a pure observer) until the pump has delivered.
        let log = rf3(0, 0, 0);
        log.append(put(1, 5));
        log.append(put(2, 6));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while log.replicated_entries() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "pump never drained the staging ring"
            );
            std::thread::yield_now();
        }
        assert!(log.replication_batches() >= 1);
        for i in 0..3 {
            assert_eq!(log.replica(i).len(), 2, "replica {i}");
        }
    }

    #[test]
    fn concurrent_appends_sequence_densely_and_replicate_identically() {
        // Seeded multi-threaded append property test: with T threads
        // appending concurrently (each yielding pseudo-randomly to vary the
        // interleaving), the pipeline must still produce (1) dense gap-free
        // LSNs, (2) per-key commit-ts order = log order, and (3) follower
        // copies byte-identical to the leader after a drain.
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
        // Followers byte-identical to the leader once drained (the
        // `replica` accessor drains): same LSN, timestamp, term, and the
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
    fn staged_tail_is_flushed_on_fail_over_and_stays_below_the_quorum_horizon() {
        // Entries sequenced but not yet quorum-replicated must be rolled
        // back by a crash exactly like the old volatile tail: physically
        // flushed to the survivors (so follower LSN counters stay aligned
        // and repair works), but below no quorum horizon — bounded replay
        // with the crash-time cutoff reproduces nothing.
        let log = rf3(0, 300_000, 0); // leader instant, followers 300ms out
        log.append(put(1, 5));
        log.append(put(2, 6));
        let cutoff = log.durable_lsn();
        assert_eq!(cutoff, None, "no quorum inside the replication window");
        let new_leader = log.fail_over(true); // crash + disk loss
        assert_eq!(new_leader, 1);
        // The staged tail was flushed before the wipe: both survivors
        // physically hold the whole log…
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
