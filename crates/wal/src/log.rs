//! Per-partition write-ahead log with simulated asynchronous persistence.
//!
//! The paper's partitions replicate their log through Raft and persist it to
//! local SSD; here a record appended at time `t` becomes durable at
//! `t + persist_delay`. The log is the partition's durability story end to
//! end: protocols append committed write-sets ([`LogPayload::TxnWrites`]),
//! the group-commit schemes append their control records
//! ([`LogPayload::Watermark`] / [`LogPayload::EpochBoundary`]), and the
//! recovery manager rebuilds a crashed partition's store from
//! `rolling checkpoint image + bounded replay` (see `primo-recovery`).
//!
//! **Retention is the log's own job.** A log copy keeps only a tail of
//! entries: the quorum-durable, scheme-covered prefix is *folded* into the
//! partition's rolling [`CheckpointImage`] a bounded chunk at a time
//! ([`FOLD_CHUNK`] entries, driven from the commit path once more than
//! twice [`RETENTION_TARGET`] entries are retained — see
//! [`crate::ReplicatedLog::fold`]) and drained from the front. Everything a
//! fold needs is kept up to date as entries arrive — the rollback-marker
//! set, the resolution state of Paxos-Commit votes — so a fold reads only
//! the entries it absorbs: the scan finds its start by binary search and
//! copies the chunk's shared payload handles under the log lock, and the
//! drain pops the prefix off a deque.

use parking_lot::Mutex;
use primo_common::sim_time::now_us;
use primo_common::{Key, PartitionId, TableId, Ts, TxnId, Value};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Entries a log copy keeps once folding has caught up. The self-driven
/// fold starts above twice this and never folds below it, so the tail
/// always holds something to replay and no commit pays for more than one
/// [`FOLD_CHUNK`].
pub const RETENTION_TARGET: usize = 8_192;

/// Most entries one self-driven fold pass absorbs.
pub const FOLD_CHUNK: usize = 256;

/// One operation inside a logged write-set.
#[derive(Debug, Clone)]
pub enum LoggedOp {
    /// Install this value (covers both updates and inserts — replay is
    /// create-if-absent either way, because the checkpoint image may or may
    /// not already contain the key).
    Put(Value),
    /// Remove the key.
    Delete,
}

/// One write of a committed transaction on one partition.
#[derive(Debug, Clone)]
pub struct LoggedWrite {
    pub table: TableId,
    pub key: Key,
    pub op: LoggedOp,
    /// Before-image: the committed value of the key right before this write
    /// installed, captured while the write locks were still held. `None`
    /// means the key had no committed value (the write is an insert into an
    /// absent or tombstoned slot). This is what cross-partition crash
    /// compensation restores when the group commit rolls the transaction
    /// back on a *surviving* partition (the crashed partition is instead
    /// rebuilt by bounded replay, which simply skips the transaction).
    pub prev: Option<Value>,
}

impl LoggedWrite {
    /// A put with no before-image (fresh key). Use
    /// [`LoggedWrite::with_prev`] to attach one.
    pub fn put(table: TableId, key: Key, value: Value) -> Self {
        LoggedWrite {
            table,
            key,
            op: LoggedOp::Put(value),
            prev: None,
        }
    }

    /// A delete with no before-image recorded.
    pub fn delete(table: TableId, key: Key) -> Self {
        LoggedWrite {
            table,
            key,
            op: LoggedOp::Delete,
            prev: None,
        }
    }

    /// Attach the committed before-image.
    pub fn with_prev(mut self, prev: Option<Value>) -> Self {
        self.prev = prev;
        self
    }
}

/// The partition's rolling checkpoint image: the state of one partition at
/// `base_lsn`, equivalent to replaying every committed transaction logged
/// below `base_lsn` into the base image.
///
/// The image is built *from the log*, never from the live store (except the
/// quiescent base image taken right after loading): it is advanced in place
/// by folding the covered quorum-durable log prefix into it, so it is
/// consistent by construction even while transactions keep installing
/// concurrently, and it never holds a write a crash could still roll back.
#[derive(Debug, Clone, Default)]
pub struct CheckpointImage {
    /// Every logged transaction with a commit timestamp `<= up_to_ts` that
    /// was folded is reflected in `records`.
    pub up_to_ts: Ts,
    /// First LSN **not** folded into this image: recovery replays the
    /// retained log from here.
    pub base_lsn: u64,
    /// LSN of the [`LogPayload::Checkpoint`] marker appended when the base
    /// image was installed. The image is restorable once the marker is
    /// quorum-durable — a crash before that loses it like any other
    /// volatile record.
    pub installed_lsn: u64,
    /// Committed records: `(table, key) -> (value, commit ts)`.
    pub records: BTreeMap<(TableId, Key), (Value, Ts)>,
}

impl CheckpointImage {
    /// Apply one committed transaction's writes at `ts` (delete removes the
    /// key). Applying the same transaction twice is idempotent.
    pub fn apply(&mut self, ts: Ts, writes: &[LoggedWrite]) {
        for w in writes {
            match &w.op {
                LoggedOp::Put(v) => {
                    self.records.insert((w.table, w.key), (v.clone(), ts));
                }
                LoggedOp::Delete => {
                    self.records.remove(&(w.table, w.key));
                }
            }
        }
        self.up_to_ts = self.up_to_ts.max(ts);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The image's coverage without its records.
    pub fn summary(&self) -> ImageSummary {
        ImageSummary {
            up_to_ts: self.up_to_ts,
            base_lsn: self.base_lsn,
            records: self.records.len(),
        }
    }
}

/// What a [`CheckpointImage`] covers, without its records (see
/// [`crate::ReplicatedLog::latest_checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageSummary {
    pub up_to_ts: Ts,
    /// First LSN not folded into the image.
    pub base_lsn: u64,
    /// Number of committed records in the image.
    pub records: usize,
}

impl ImageSummary {
    pub fn len(&self) -> usize {
        self.records
    }

    pub fn is_empty(&self) -> bool {
        self.records == 0
    }
}

/// What a log entry describes.
#[derive(Debug, Clone)]
pub enum LogPayload {
    /// A committed transaction's write-set on this partition, appended while
    /// the write locks are still held so per-key log order equals install
    /// order.
    TxnWrites {
        txn: TxnId,
        ts: Ts,
        writes: Vec<LoggedWrite>,
    },
    /// A persisted partition watermark (§5.1: `Wp` is logged before being
    /// broadcast so the new leader can recover it).
    Watermark { wp: Ts },
    /// A committed epoch boundary (COCO): every `TxnWrites` entry before this
    /// marker belongs to a committed epoch.
    EpochBoundary { epoch: u64 },
    /// A base checkpoint image covering commit timestamps up to `up_to_ts`
    /// was installed at this LSN (the image itself lives beside the log, see
    /// [`crate::ReplicatedLog::install_base_image`]); it is restorable once
    /// this marker is quorum-durable.
    Checkpoint { up_to_ts: Ts },
    /// The cluster rolled `txn` back after a crash (the group commit reported
    /// it `CrashAborted`) and its installed writes on this partition were
    /// compensated with their before-images. Replay, checkpoint folding and
    /// log repair all skip the transaction's `TxnWrites` entries from then
    /// on, so a *later* crash of this partition cannot resurrect it. The
    /// marker always has a higher LSN than the entries it cancels, so
    /// truncation can never drop the marker while the entries remain.
    TxnRolledBack { txn: TxnId },
    /// Paxos Commit: a prepare vote for `txn`, logged quorum-durably so the
    /// commit decision no longer depends on the coordinating worker staying
    /// alive — any replica holding a durable vote set can assemble (or, in
    /// doubt, terminate) the global verdict. `coordinator` is the home
    /// partition that ran the prepare round. A vote stays in the log until
    /// its outcome is durably known: a fold never passes a vote whose
    /// resolution is not quorum-durable.
    CommitVote {
        txn: TxnId,
        coordinator: PartitionId,
        commit: bool,
    },
    /// Paxos Commit: the global verdict for `txn`. Written by the
    /// coordinator on the normal path, or by whoever resolved the
    /// transaction after the coordinator died in the in-doubt window
    /// (crash-time resolution always decides abort, the presumed-abort
    /// rule).
    CommitDecision { txn: TxnId, commit: bool },
}

/// One record in the log. The payload sits behind an `Arc` so the
/// replicated fan-out shares one allocation across every replica's entry
/// (only the per-replica metadata — LSN, append time, term — is owned).
#[derive(Debug, Clone)]
pub struct LogEntry {
    pub lsn: u64,
    pub appended_at_us: u64,
    /// Leadership term of the replicated log at append time (0 for a
    /// standalone single-copy log). Every crash bumps the term and moves
    /// leadership to the deterministic successor replica, so entries carry
    /// which leader produced them — the replicated-log equivalent of a Raft
    /// term on each record.
    pub term: u64,
    pub payload: Arc<LogPayload>,
}

#[derive(Debug, Default)]
struct WalInner {
    /// The retained tail, ascending by LSN. LSNs are dense except where
    /// recovery-time repair ([`PartitionWal::retain_replayable`]) removed
    /// write-sets, so positions are found by binary search on the LSN.
    entries: VecDeque<LogEntry>,
    /// Replication segments received ([`PartitionWal::receive_segment`]) but
    /// not yet folded into `entries`. Delivery is O(1) per segment — the
    /// `Arc` is shared by every replica of the partition — and the copy into
    /// this replica's own `entries` happens lazily, on the first read that
    /// needs them ([`WalInner::fold_pending`]). `next_lsn` always accounts
    /// for pending segments, so appends and `end_lsn` stay exact without
    /// folding.
    pending: Vec<Arc<[LogEntry]>>,
    next_lsn: u64,
    /// Every LSN below this was drained after a fold absorbed it, so it was
    /// durable: the durable horizon never falls below `truncated_before - 1`
    /// even when the retained tail is empty.
    truncated_before: u64,
    /// Transactions cancelled by a retained [`LogPayload::TxnRolledBack`]
    /// marker, with the (first) marker's LSN. Kept current as entries arrive
    /// and leave, so no reader re-scans the log for markers.
    rolled_back: HashMap<TxnId, u64>,
    /// Transactions with a retained [`LogPayload::CommitVote`], with the LSN
    /// of the first entry resolving the vote (decision, installed write-set
    /// or rollback marker) — `None` while the outcome is unknown.
    votes: HashMap<TxnId, Option<u64>>,
}

impl WalInner {
    /// Materialise received-but-unfolded segments into `entries`. Amortised
    /// O(1) per entry over the log's lifetime; the hot no-op case is one
    /// branch.
    #[inline]
    fn fold_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let total: usize = self.pending.iter().map(|s| s.len()).sum();
        self.entries.reserve(total);
        for seg in std::mem::take(&mut self.pending) {
            for entry in seg.iter() {
                self.push(entry.clone());
            }
        }
    }

    /// Add one entry to the retained tail, keeping the marker and vote
    /// indexes current.
    #[inline]
    fn push(&mut self, entry: LogEntry) {
        self.index(&entry);
        self.entries.push_back(entry);
    }

    fn index(&mut self, entry: &LogEntry) {
        match entry.payload.as_ref() {
            LogPayload::TxnWrites { txn, .. } | LogPayload::CommitDecision { txn, .. } => {
                self.resolve_vote(*txn, entry.lsn);
            }
            LogPayload::TxnRolledBack { txn } => {
                self.rolled_back.entry(*txn).or_insert(entry.lsn);
                self.resolve_vote(*txn, entry.lsn);
            }
            LogPayload::CommitVote { txn, .. } => {
                self.votes.entry(*txn).or_insert(None);
            }
            _ => {}
        }
    }

    #[inline]
    fn resolve_vote(&mut self, txn: TxnId, lsn: u64) {
        // Empty (a lookup that does not even hash) unless Paxos Commit is
        // logging votes.
        if let Some(resolved @ None) = self.votes.get_mut(&txn) {
            *resolved = Some(lsn);
        }
    }

    /// Rebuild the marker and vote indexes from the retained entries, after
    /// an operation that rewrote them wholesale.
    fn reindex(&mut self) {
        self.rolled_back.clear();
        self.votes.clear();
        let entries = std::mem::take(&mut self.entries);
        for entry in &entries {
            self.index(entry);
        }
        self.entries = entries;
    }

    /// Index of the first retained entry with `lsn >= from_lsn`.
    #[inline]
    fn position(&self, from_lsn: u64) -> usize {
        self.entries.partition_point(|e| e.lsn < from_lsn)
    }

    /// Transactions cancelled by a marker inside the readable prefix
    /// `entries[..readable]`.
    fn rolled_back_within(&self, readable: usize) -> HashSet<TxnId> {
        let Some(horizon) = readable.checked_sub(1).map(|i| self.entries[i].lsn) else {
            return HashSet::new();
        };
        self.rolled_back
            .iter()
            .filter(|(_, marker_lsn)| **marker_lsn <= horizon)
            .map(|(txn, _)| *txn)
            .collect()
    }
}

/// The write-set of one logged transaction, shared with the log entry it
/// was read from (replay, compensation and folds never copy write-sets).
/// Dereferences to the `[LoggedWrite]` slice.
#[derive(Debug, Clone)]
pub struct LoggedWrites(Arc<LogPayload>);

impl std::ops::Deref for LoggedWrites {
    type Target = [LoggedWrite];

    fn deref(&self) -> &[LoggedWrite] {
        match self.0.as_ref() {
            LogPayload::TxnWrites { writes, .. } => writes,
            _ => &[],
        }
    }
}

/// One replayed transaction: its id, commit timestamp and write-set on this
/// partition.
pub type ReplayedTxn = (TxnId, Ts, LoggedWrites);

/// A `TxnWrites` entry picked by a log scan, before ordering.
struct Picked {
    ts: Ts,
    lsn: u64,
    txn: TxnId,
    payload: Arc<LogPayload>,
}

/// What [`PartitionWal::fold_scan`] found: the first LSN the fold may not
/// pass, and the covered write-sets below it in log order.
#[derive(Debug)]
pub(crate) struct FoldChunk {
    pub stop_lsn: u64,
    pub writes: Vec<(Ts, LoggedWrites)>,
}

/// How far a recovery (or checkpoint fold) may read into the log. Every
/// group-commit scheme translates its own agreement — recovered watermark,
/// last durable epoch boundary, durable LSN — into one of these (see
/// [`crate::GroupCommit::replay_bound`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayBound {
    /// Transactions with commit timestamp strictly below the bound (the
    /// watermark scheme's recovered `Wp`).
    Ts(Ts),
    /// Entries with LSN strictly below the bound (COCO: the LSN of the last
    /// durable committed epoch boundary; CLV / sync: one past the durable
    /// LSN).
    Lsn(u64),
    /// Entries whose persist window *spans* the given simulated instant are
    /// **not** covered (CLV's crash-rollback rule on *surviving*
    /// partitions): a transaction is acknowledged exactly when its log
    /// records are durable, so a crash rolls back precisely the commits
    /// still inside their persist window at the crash instant. Entries
    /// already durable by the instant — and entries appended *after* it,
    /// which belong to post-crash transactions the scheme reports
    /// `Committed` — are covered.
    PersistWindow(u64),
}

impl ReplayBound {
    /// Whether a `TxnWrites` entry at `(ts, lsn)`, appended at
    /// `appended_at_us` into a log with persist delay `persist_delay_us`,
    /// falls under this bound.
    #[inline]
    pub fn covers(&self, ts: Ts, lsn: u64, appended_at_us: u64, persist_delay_us: u64) -> bool {
        match self {
            ReplayBound::Ts(bound) => ts < *bound,
            ReplayBound::Lsn(bound) => lsn < *bound,
            ReplayBound::PersistWindow(instant) => {
                appended_at_us + persist_delay_us <= *instant || appended_at_us > *instant
            }
        }
    }
}

/// The write-ahead log of one partition — or, under replication, of **one
/// replica** of one partition (see [`crate::ReplicatedLog`]).
#[derive(Debug)]
pub struct PartitionWal {
    partition: PartitionId,
    persist_delay_us: u64,
    /// The delay after which an appended record counts as *acknowledged*
    /// for [`ReplayBound::PersistWindow`] coverage. Equals
    /// `persist_delay_us` for a standalone single-copy log; a replicated
    /// log sets it to the quorum-ack delay on every replica, so window
    /// checks agree with when the scheme actually acknowledged the commit.
    ack_delay_us: u64,
    inner: Mutex<WalInner>,
}

impl PartitionWal {
    pub fn new(partition: PartitionId, persist_delay_us: u64) -> Self {
        Self::with_ack_delay(partition, persist_delay_us, persist_delay_us)
    }

    /// A replica whose local persist delay and acknowledgement horizon
    /// differ (quorum replication: records are acknowledged at the quorum
    /// delay, not this replica's own).
    pub fn with_ack_delay(
        partition: PartitionId,
        persist_delay_us: u64,
        ack_delay_us: u64,
    ) -> Self {
        PartitionWal {
            partition,
            persist_delay_us,
            ack_delay_us,
            inner: Mutex::new(WalInner::default()),
        }
    }

    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Simulated persist delay of this log copy.
    pub fn persist_delay_us(&self) -> u64 {
        self.persist_delay_us
    }

    /// Append a record; returns its LSN. Appending never blocks on I/O —
    /// persistence happens in the background (that is the whole point of
    /// taking durability off the critical path).
    pub fn append(&self, payload: LogPayload) -> u64 {
        self.append_in_term(0, Arc::new(payload))
    }

    /// [`PartitionWal::append`] stamped with the replicated log's current
    /// leadership term. Takes the payload behind an `Arc` so a replicated
    /// fan-out appends the same allocation to every replica instead of
    /// deep-cloning the write-set per copy.
    pub fn append_in_term(&self, term: u64, payload: Arc<LogPayload>) -> u64 {
        self.append_entry_in_term(term, payload).lsn
    }

    /// [`PartitionWal::append_in_term`], returning the full entry (LSN,
    /// append timestamp, term) instead of just the LSN. The replicated
    /// log's sequencer stages this exact entry for the replication pump, so
    /// follower copies later receive the **same** `appended_at_us` — their
    /// durability clocks run from the original append instant, not from
    /// when the pump happened to drain.
    pub fn append_entry_in_term(&self, term: u64, payload: Arc<LogPayload>) -> LogEntry {
        let mut inner = self.folded();
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        let entry = LogEntry {
            lsn,
            appended_at_us: now_us(),
            term,
            payload,
        };
        inner.push(entry.clone());
        entry
    }

    /// Deliver a batch of already-sequenced entries to this replica under
    /// **one** lock acquisition — stage 2 of the replicated append
    /// pipeline. Entries keep the LSN, append timestamp and term the
    /// sequencer stamped, so the copy is byte-identical to the leader's and
    /// durability timing is independent of when the pump ran. The batch
    /// must continue this replica's log (`entries` are the next LSNs in
    /// order); that invariant is upheld by the replicated log, which
    /// serializes sequencing, draining and every replica-set mutation.
    pub fn append_entries(&self, entries: &[LogEntry]) {
        if entries.is_empty() {
            return;
        }
        let mut inner = self.folded();
        debug_assert_eq!(
            entries[0].lsn, inner.next_lsn,
            "replication batch must continue the replica's log"
        );
        for entry in entries {
            inner.push(entry.clone());
        }
        inner.next_lsn = entries[entries.len() - 1].lsn + 1;
    }

    /// Receive one replication segment: O(1) — the segment `Arc` is shared
    /// by every replica of the partition, and the per-entry copy into this
    /// replica's own storage is deferred to the first read that needs it.
    /// The entries keep the LSN, append timestamp and term the sequencer
    /// stamped, so the folded copy is byte-identical to every peer's and
    /// durability timing is independent of when the replication pump ran.
    /// The segment must continue this replica's log; the replicated log's
    /// sequencer upholds that by serializing sequencing, draining and every
    /// replica-set mutation.
    pub fn receive_segment(&self, segment: Arc<[LogEntry]>) {
        let Some(last) = segment.last() else { return };
        let mut inner = self.inner.lock();
        debug_assert_eq!(
            segment[0].lsn, inner.next_lsn,
            "replication segment must continue the replica's log"
        );
        inner.next_lsn = last.lsn + 1;
        inner.pending.push(segment);
    }

    /// Lock the log and fold any pending replication segments first — every
    /// path that reads or rewrites `entries` goes through here, so readers
    /// always observe the fully delivered log.
    fn folded(&self) -> parking_lot::MutexGuard<'_, WalInner> {
        let mut inner = self.inner.lock();
        inner.fold_pending();
        inner
    }

    /// The LSN the next append will receive.
    pub fn end_lsn(&self) -> u64 {
        self.inner.lock().next_lsn
    }

    /// Number of entries in the durable prefix at `now`: `appended_at_us` is
    /// monotone per log (appends are serialized under the log lock and stamp
    /// a monotonic clock), so the durable boundary is found by binary search
    /// instead of a reverse scan over the whole log.
    #[inline]
    fn durable_prefix_len(entries: &VecDeque<LogEntry>, persist_delay_us: u64, now: u64) -> usize {
        entries.partition_point(|e| e.appended_at_us + persist_delay_us <= now)
    }

    /// Length of the prefix the durable scans may read. An explicit
    /// `cutoff_lsn` **is** a durability horizon the caller already computed
    /// (this log's — or, through [`crate::ReplicatedLog`], the quorum's —
    /// durable LSN): entries at or below it are durable by construction, so
    /// this copy's own disk delay must not filter further. Otherwise an
    /// elected leader with a disk slower than the quorum-ack delay would
    /// hide quorum-acknowledged entries from recovery. Without a cutoff,
    /// the copy's local persist delay decides.
    #[inline]
    fn readable_len(&self, entries: &VecDeque<LogEntry>, cutoff_lsn: Option<u64>) -> usize {
        match cutoff_lsn {
            Some(cut) => entries.partition_point(|e| e.lsn <= cut),
            None => Self::durable_prefix_len(entries, self.persist_delay_us, now_us()),
        }
    }

    /// Highest LSN that is durable "now" (append time + persist delay has
    /// elapsed). Entries a fold already drained were durable, so the
    /// horizon never falls below the truncation point. Returns `None` if
    /// nothing is durable yet.
    pub fn durable_lsn(&self) -> Option<u64> {
        let now = now_us();
        let inner = self.folded();
        let durable = Self::durable_prefix_len(&inner.entries, self.persist_delay_us, now);
        match durable.checked_sub(1) {
            Some(last) => Some(inner.entries[last].lsn),
            None => inner.truncated_before.checked_sub(1),
        }
    }

    /// Whether a specific LSN is durable.
    pub fn is_durable(&self, lsn: u64) -> bool {
        self.durable_lsn().map(|d| d >= lsn).unwrap_or(false)
    }

    /// The latest durable watermark record, if any (recovery reads this —
    /// §5.2 "the new leader retrieves the latest Wp in its Raft log").
    pub fn latest_durable_watermark(&self) -> Option<Ts> {
        self.latest_durable_watermark_at(None)
    }

    /// [`PartitionWal::latest_durable_watermark`] restricted to entries at
    /// or below `cutoff_lsn` — recovery passes the durable LSN captured at
    /// crash time so a `Wp` record that was still volatile when the
    /// partition died (or was appended by the dead leader's agent during
    /// the outage) is never recovered from.
    pub fn latest_durable_watermark_at(&self, cutoff_lsn: Option<u64>) -> Option<Ts> {
        let inner = self.folded();
        let readable = self.readable_len(&inner.entries, cutoff_lsn);
        inner
            .entries
            .range(..readable)
            .rev()
            .find_map(|e| match *e.payload {
                LogPayload::Watermark { wp } => Some(wp),
                _ => None,
            })
    }

    /// LSN of the newest durable [`LogPayload::EpochBoundary`] whose epoch is
    /// at most `max_epoch` and whose LSN does not exceed `cutoff_lsn` (COCO
    /// recovery / checkpoint bound; the replicated log passes its quorum
    /// LSN as the cutoff).
    pub fn latest_durable_epoch_boundary(
        &self,
        max_epoch: u64,
        cutoff_lsn: Option<u64>,
    ) -> Option<u64> {
        let inner = self.folded();
        let readable = self.readable_len(&inner.entries, cutoff_lsn);
        inner
            .entries
            .range(..readable)
            .rev()
            .find_map(|e| match *e.payload {
                LogPayload::EpochBoundary { epoch } if epoch <= max_epoch => Some(e.lsn),
                _ => None,
            })
    }

    /// LSN of the newest [`LogPayload::EpochBoundary`] with epoch at most
    /// `max_epoch`, regardless of durability. A *surviving* partition's log
    /// lost nothing, so when COCO rolls back the crashed epoch the boundary
    /// of the last committed epoch separates committed write-sets from
    /// rolled-back ones even while it is still inside its persist window.
    pub fn latest_epoch_boundary(&self, max_epoch: u64) -> Option<u64> {
        let inner = self.folded();
        inner.entries.iter().rev().find_map(|e| match *e.payload {
            LogPayload::EpochBoundary { epoch } if epoch <= max_epoch => Some(e.lsn),
            _ => None,
        })
    }

    /// Replay all durable transaction writes with `ts < up_to`.
    ///
    /// The output is **commit-timestamp-sorted** (ties broken by LSN, i.e.
    /// append order) and **deduplicated by transaction id** (the entry with
    /// the highest LSN wins), so applying it left-to-right with last-writer-
    /// wins semantics is deterministic and replaying any prefix twice equals
    /// replaying it once. Everything at or above `up_to` is rolled back
    /// (i.e. simply not replayed).
    pub fn replay_prefix(&self, up_to: Ts) -> Vec<ReplayedTxn> {
        self.replay_range(0, &ReplayBound::Ts(up_to), None)
    }

    /// Replay durable transaction writes with `lsn >= from_lsn`, restricted
    /// to `bound` and (when given) to entries at or below `cutoff_lsn` — the
    /// durable LSN captured at crash time, so entries that were still
    /// volatile when the partition died are treated as lost.
    ///
    /// Transactions cancelled by a durable [`LogPayload::TxnRolledBack`]
    /// marker (a crash rolled them back and compensation undid their
    /// installed writes) are never replayed, whatever the bound says — the
    /// bound keeps advancing after the crash, the rollback decision does not.
    /// Markers cancel entries *behind* them (lower LSNs), so every marker in
    /// the readable prefix counts, with the same durability and crash-cutoff
    /// rule as the entries themselves.
    ///
    /// Sorted and deduplicated exactly like [`PartitionWal::replay_prefix`].
    /// The write-sets are shared with the log's entries, not copied.
    pub fn replay_range(
        &self,
        from_lsn: u64,
        bound: &ReplayBound,
        cutoff_lsn: Option<u64>,
    ) -> Vec<ReplayedTxn> {
        let picked: Vec<Picked> = {
            let inner = self.folded();
            let readable = self.readable_len(&inner.entries, cutoff_lsn);
            let start = inner.position(from_lsn).min(readable);
            let cancelled = inner.rolled_back_within(readable);
            inner
                .entries
                .range(start..readable)
                .filter_map(|e| match e.payload.as_ref() {
                    LogPayload::TxnWrites { txn, ts, .. }
                        if bound.covers(*ts, e.lsn, e.appended_at_us, self.ack_delay_us)
                            && !cancelled.contains(txn) =>
                    {
                        Some(Picked {
                            ts: *ts,
                            lsn: e.lsn,
                            txn: *txn,
                            payload: Arc::clone(&e.payload),
                        })
                    }
                    _ => None,
                })
                .collect()
        };
        Self::sort_dedup_by_txn(picked)
    }

    /// Deduplicate picked entries by transaction id, keeping the
    /// highest-LSN entry (a transaction logs one entry per partition, so
    /// later duplicates — if a caller ever re-appends — supersede earlier
    /// ones), then order by `(ts, lsn)`. Shared by
    /// [`PartitionWal::replay_range`] and
    /// [`PartitionWal::collect_rolled_back`] so the set of transactions
    /// replayed and the set compensated can never diverge on the
    /// ordering/dedup rule.
    fn sort_dedup_by_txn(mut picked: Vec<Picked>) -> Vec<ReplayedTxn> {
        picked.sort_unstable_by_key(|p| std::cmp::Reverse((p.txn, p.lsn)));
        picked.dedup_by_key(|p| p.txn);
        picked.sort_unstable_by_key(|p| (p.ts, p.lsn));
        picked
            .into_iter()
            .map(|p| (p.txn, p.ts, LoggedWrites(p.payload)))
            .collect()
    }

    /// All transaction ids with a rollback marker in this log, regardless of
    /// durability (exposed for compensation and tests).
    pub fn rolled_back_txns(&self) -> HashSet<TxnId> {
        self.folded().rolled_back.keys().copied().collect()
    }

    /// The `TxnWrites` entries `bound` does **not** cover and no rollback
    /// marker cancels yet: the transactions a crash just rolled back on this
    /// *surviving* partition, whose installed writes compensation must undo.
    /// No durability filter — this partition did not crash, so nothing in
    /// its log is lost. Entries at or past `upper_cutoff` (the survivor's
    /// log end captured right after the crash agreement) are excluded: they
    /// belong to transactions that committed *after* the agreement, which
    /// every scheme reports `Committed`. Sorted by `(ts, lsn)` and
    /// deduplicated by transaction exactly like
    /// [`PartitionWal::replay_range`], so undoing the result in reverse
    /// restores the pre-transaction state.
    pub fn collect_rolled_back(
        &self,
        bound: &ReplayBound,
        upper_cutoff: Option<u64>,
    ) -> Vec<ReplayedTxn> {
        let picked: Vec<Picked> = {
            let inner = self.folded();
            let end = upper_cutoff.map_or(inner.entries.len(), |cut| inner.position(cut));
            inner
                .entries
                .range(..end)
                .filter_map(|e| match e.payload.as_ref() {
                    LogPayload::TxnWrites { txn, ts, .. }
                        if !bound.covers(*ts, e.lsn, e.appended_at_us, self.ack_delay_us)
                            && !inner.rolled_back.contains_key(txn) =>
                    {
                        Some(Picked {
                            ts: *ts,
                            lsn: e.lsn,
                            txn: *txn,
                            payload: Arc::clone(&e.payload),
                        })
                    }
                    _ => None,
                })
                .collect()
        };
        Self::sort_dedup_by_txn(picked)
    }

    /// The newest durable [`LogPayload::CommitDecision`] verdict for `txn`
    /// at or below `cutoff_lsn`, if any.
    pub fn commit_decision_for(&self, txn: TxnId, cutoff_lsn: Option<u64>) -> Option<bool> {
        let inner = self.folded();
        let readable = self.readable_len(&inner.entries, cutoff_lsn);
        inner
            .entries
            .range(..readable)
            .rev()
            .find_map(|e| match *e.payload {
                LogPayload::CommitDecision { txn: t, commit } if t == txn => Some(commit),
                _ => None,
            })
    }

    /// The durable [`LogPayload::CommitVote`] for `txn` at or below
    /// `cutoff_lsn`, if any (verdict assembly and tests).
    pub fn commit_vote_for(&self, txn: TxnId, cutoff_lsn: Option<u64>) -> Option<bool> {
        let inner = self.folded();
        let readable = self.readable_len(&inner.entries, cutoff_lsn);
        inner
            .entries
            .range(..readable)
            .rev()
            .find_map(|e| match *e.payload {
                LogPayload::CommitVote { txn: t, commit, .. } if t == txn => Some(commit),
                _ => None,
            })
    }

    /// Transaction ids with a durable [`LogPayload::CommitVote`] at or below
    /// `cutoff_lsn` but no resolution: no durable [`LogPayload::CommitDecision`],
    /// no installed [`LogPayload::TxnWrites`] (evidence the commit round ran
    /// to completion on this partition) and no [`LogPayload::TxnRolledBack`]
    /// marker. These are the in-doubt transactions recovery must terminate;
    /// it seals each with a global abort decision (presumed abort). Returned
    /// in first-vote order. (A fold never drains a vote before its
    /// resolution is durable, so an in-doubt vote is always still retained.)
    pub fn unresolved_commit_votes(&self, cutoff_lsn: Option<u64>) -> Vec<TxnId> {
        let inner = self.folded();
        let readable = self.readable_len(&inner.entries, cutoff_lsn);
        let mut voted: Vec<TxnId> = Vec::new();
        // txn -> resolved? A vote is recorded (in order) the first time its
        // transaction is seen unresolved.
        let mut resolved: HashMap<TxnId, bool> = HashMap::new();
        for e in inner.entries.range(..readable) {
            match e.payload.as_ref() {
                LogPayload::CommitVote { txn, .. } => {
                    resolved.entry(*txn).or_insert_with(|| {
                        voted.push(*txn);
                        false
                    });
                }
                LogPayload::CommitDecision { txn, .. }
                | LogPayload::TxnWrites { txn, .. }
                | LogPayload::TxnRolledBack { txn } => {
                    resolved.insert(*txn, true);
                }
                _ => {}
            }
        }
        voted.retain(|t| !resolved[t]);
        voted
    }

    /// Clone the suffix of the log starting at `from_lsn`.
    pub fn entries_from(&self, from_lsn: u64) -> Vec<LogEntry> {
        let inner = self.folded();
        inner
            .entries
            .range(inner.position(from_lsn)..)
            .cloned()
            .collect()
    }

    /// One fold step over this copy: starting at `from_lsn` (found by
    /// binary search), walk at most `max_entries` entries — leaving at
    /// least `keep` retained — and stop at the first entry the fold may
    /// **not** absorb:
    ///
    /// * an entry above `durable_lsn` (the caller's quorum horizon);
    /// * a write-set `bound` does not cover;
    /// * a [`LogPayload::CommitVote`] whose outcome is not durably known —
    ///   no decision, installed write-set or rollback marker at or below
    ///   `durable_lsn` (Gray & Lamport: a resource manager's vote stays on
    ///   stable storage until the outcome is known, so a coordinator crash
    ///   in the prepare→decide window can still be terminated).
    ///
    /// Control entries are folded past, and so are write-sets cancelled by a
    /// rollback marker — any marker, durable or not: this copy did not
    /// crash, and a cancelled write-set must never reach the image. Only the
    /// covered write-sets' shared payload handles are copied under the log
    /// lock; the caller applies them outside it.
    pub(crate) fn fold_scan(
        &self,
        from_lsn: u64,
        bound: &ReplayBound,
        durable_lsn: u64,
        max_entries: usize,
        keep: usize,
    ) -> FoldChunk {
        let inner = self.folded();
        let start = inner.position(from_lsn);
        let end = inner
            .entries
            .len()
            .saturating_sub(keep)
            .min(start.saturating_add(max_entries));
        let mut chunk = FoldChunk {
            stop_lsn: from_lsn,
            writes: Vec::new(),
        };
        for e in inner.entries.range(start..end.max(start)) {
            if e.lsn > durable_lsn {
                break;
            }
            match e.payload.as_ref() {
                LogPayload::TxnWrites { txn, ts, .. } if !inner.rolled_back.contains_key(txn) => {
                    if !bound.covers(*ts, e.lsn, e.appended_at_us, self.ack_delay_us) {
                        break;
                    }
                    chunk
                        .writes
                        .push((*ts, LoggedWrites(Arc::clone(&e.payload))));
                }
                LogPayload::CommitVote { txn, .. } => {
                    let outcome_durable = matches!(
                        inner.votes.get(txn),
                        Some(Some(resolved_at)) if *resolved_at <= durable_lsn
                    );
                    if !outcome_durable {
                        break;
                    }
                }
                _ => {}
            }
            chunk.stop_lsn = e.lsn + 1;
        }
        chunk
    }

    /// Recovery-time log repair: remove every `TxnWrites` entry at or after
    /// `from_lsn` that replay did **not** apply — entries past the
    /// crash-time durable LSN (the lost volatile tail), durable entries
    /// above the rollback bound (transactions reported `CrashAborted`), and
    /// entries cancelled by a durable rollback marker (compensated after an
    /// earlier crash of *another* partition). Without this, a later
    /// checkpoint fold — whose bound keeps advancing after recovery — would
    /// resurrect rolled-back transactions. Returns the number of entries
    /// removed.
    pub fn retain_replayable(
        &self,
        from_lsn: u64,
        bound: &ReplayBound,
        cutoff_lsn: Option<u64>,
    ) -> usize {
        let rolled_back = self.durable_rolled_back(cutoff_lsn);
        self.retain_replayable_with(from_lsn, bound, cutoff_lsn, &rolled_back)
    }

    /// The transaction ids cancelled by a marker that is durable on *this*
    /// log copy right now, restricted to markers at or below `cutoff_lsn`
    /// (the cutoff is itself a durability horizon, see
    /// [`PartitionWal::readable_len`]).
    pub(crate) fn durable_rolled_back(&self, cutoff_lsn: Option<u64>) -> HashSet<TxnId> {
        let inner = self.folded();
        let readable = self.readable_len(&inner.entries, cutoff_lsn);
        inner.rolled_back_within(readable)
    }

    /// [`PartitionWal::retain_replayable`] with the cancelled-transaction
    /// set supplied by the caller. The replicated log computes the set once
    /// from the leader and applies it to every replica, so replicas with
    /// different persist delays cannot diverge on which markers count as
    /// durable (and therefore on which entries the purge drops).
    pub(crate) fn retain_replayable_with(
        &self,
        from_lsn: u64,
        bound: &ReplayBound,
        cutoff_lsn: Option<u64>,
        rolled_back: &HashSet<TxnId>,
    ) -> usize {
        let mut inner = self.folded();
        let before = inner.entries.len();
        let delay = self.ack_delay_us;
        inner.entries.retain(|e| {
            if e.lsn < from_lsn {
                return true;
            }
            match e.payload.as_ref() {
                LogPayload::TxnWrites { txn, ts, .. } => {
                    cutoff_lsn.is_some_and(|cut| e.lsn <= cut)
                        && bound.covers(*ts, e.lsn, e.appended_at_us, delay)
                        && !rolled_back.contains(txn)
                }
                _ => true,
            }
        });
        let removed = before - inner.entries.len();
        if removed > 0 && !inner.votes.is_empty() {
            // A purged write-set may have been a vote's only resolution.
            inner.reindex();
        }
        removed
    }

    /// Number of entries this copy retains (appended and not yet drained by
    /// a fold).
    pub fn len(&self) -> usize {
        self.folded().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard this log copy's entries (a lost disk). The LSN counter is
    /// preserved so the replica can keep receiving new appends aligned with
    /// its peers; the history itself is gone until a repair pass copies it
    /// back from the leader.
    pub(crate) fn wipe_log(&self) -> usize {
        let mut inner = self.inner.lock();
        let dropped = inner.entries.len() + inner.pending.iter().map(|s| s.len()).sum::<usize>();
        inner.entries.clear();
        // Pending segments are received-but-unfolded disk contents: the disk
        // is gone, so they go with it (never resurrected by a later fold).
        inner.pending.clear();
        inner.rolled_back.clear();
        inner.votes.clear();
        dropped
    }

    /// The authoritative content a repair copies to other replicas: the
    /// retained entries and the truncation point below them.
    pub(crate) fn authority(&self) -> (Vec<LogEntry>, u64) {
        let inner = self.folded();
        (
            inner.entries.iter().cloned().collect(),
            inner.truncated_before,
        )
    }

    /// Replace this replica's entries wholesale with an authoritative copy
    /// (repair after a wipe: the elected leader's log is the authority; see
    /// [`crate::ReplicatedLog::repair_replicas`]). Entries keep their
    /// original LSNs and append times, so durability checks still reflect
    /// when the record was originally written.
    pub(crate) fn replace_entries(
        &self,
        entries: Vec<LogEntry>,
        truncated_before: u64,
        next_lsn: u64,
    ) {
        let mut inner = self.inner.lock();
        inner.entries = entries.into();
        inner.truncated_before = truncated_before;
        // The authoritative copy supersedes anything still unfolded.
        inner.pending.clear();
        inner.next_lsn = next_lsn.max(inner.next_lsn);
        inner.reindex();
    }

    /// Drain every retained entry below `lsn` off the front of the log —
    /// the caller folded them into the checkpoint image, so they were
    /// durable. Returns the drained entries so the caller can drop them
    /// (and free their payloads) outside its own locks.
    pub(crate) fn drain_before(&self, lsn: u64) -> Vec<LogEntry> {
        let mut inner = self.folded();
        let n = inner.position(lsn);
        let drained: Vec<LogEntry> = inner.entries.drain(..n).collect();
        if !inner.rolled_back.is_empty() || !inner.votes.is_empty() {
            for e in &drained {
                match e.payload.as_ref() {
                    LogPayload::TxnRolledBack { txn }
                        if inner.rolled_back.get(txn) == Some(&e.lsn) =>
                    {
                        inner.rolled_back.remove(txn);
                    }
                    LogPayload::CommitVote { txn, .. } => {
                        inner.votes.remove(txn);
                    }
                    _ => {}
                }
            }
        }
        let drained_to = lsn.min(inner.next_lsn);
        inner.truncated_before = inner.truncated_before.max(drained_to);
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
    }

    fn writes(k: Key) -> Vec<LoggedWrite> {
        vec![LoggedWrite::put(TableId(0), k, Value::from_u64(k))]
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        let a = wal.append(LogPayload::Watermark { wp: 1 });
        let b = wal.append(LogPayload::Watermark { wp: 2 });
        assert!(b > a);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.end_lsn(), 2);
    }

    #[test]
    fn durability_respects_persist_delay() {
        let wal = PartitionWal::new(PartitionId(0), 20_000); // 20 ms
        let lsn = wal.append(LogPayload::Watermark { wp: 5 });
        assert!(!wal.is_durable(lsn));
        assert!(wal.latest_durable_watermark().is_none());
        std::thread::sleep(Duration::from_millis(30));
        assert!(wal.is_durable(lsn));
        assert_eq!(wal.latest_durable_watermark(), Some(5));
        assert_eq!(wal.persist_delay_us(), 20_000);
    }

    #[test]
    fn replay_prefix_excludes_rolled_back_txns() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        for (seq, ts) in [(1, 5u64), (2, 9), (3, 15)] {
            wal.append(LogPayload::TxnWrites {
                txn: txn(seq),
                ts,
                writes: writes(seq),
            });
        }
        std::thread::sleep(Duration::from_millis(1));
        let replayed = wal.replay_prefix(10);
        assert_eq!(replayed.len(), 2);
        assert!(replayed.iter().all(|(_, ts, _)| *ts < 10));
    }

    #[test]
    fn replay_is_ts_sorted_and_deduplicated() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        // Out-of-ts-order appends (two workers interleaving) plus a duplicate
        // entry for txn 1.
        wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 9,
            writes: writes(2),
        });
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 5,
            writes: writes(1),
        });
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 5,
            writes: writes(7),
        });
        std::thread::sleep(Duration::from_millis(1));
        let replayed = wal.replay_prefix(100);
        assert_eq!(replayed.len(), 2, "duplicate txn entries are merged");
        assert_eq!(replayed[0].1, 5);
        assert_eq!(replayed[1].1, 9);
        // The duplicate with the higher LSN wins.
        assert_eq!(replayed[0].2[0].key, 7);
    }

    #[test]
    fn replay_range_respects_lsn_cutoff_and_base() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        for seq in 0..6u64 {
            wal.append(LogPayload::TxnWrites {
                txn: txn(seq),
                ts: seq + 1,
                writes: writes(seq),
            });
        }
        std::thread::sleep(Duration::from_millis(1));
        // Entries with lsn in [2, 4] only.
        let replayed = wal.replay_range(2, &ReplayBound::Ts(u64::MAX), Some(4));
        assert_eq!(replayed.len(), 3);
        assert!(replayed.iter().all(|(t, _, _)| (2..=4).contains(&t.seq)));
        // Lsn bound is exclusive.
        let replayed = wal.replay_range(0, &ReplayBound::Lsn(2), None);
        assert_eq!(replayed.len(), 2);
    }

    #[test]
    fn truncate_drops_old_entries() {
        let wal = PartitionWal::new(PartitionId(1), 0);
        for i in 0..10u64 {
            wal.append(LogPayload::Watermark { wp: i });
        }
        assert_eq!(wal.drain_before(5).len(), 5);
        assert_eq!(wal.len(), 5);
        assert_eq!(wal.partition(), PartitionId(1));
    }

    #[test]
    fn latest_durable_watermark_takes_newest() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        wal.append(LogPayload::Watermark { wp: 3 });
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 4,
            writes: writes(1),
        });
        wal.append(LogPayload::Watermark { wp: 8 });
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(wal.latest_durable_watermark(), Some(8));
    }

    #[test]
    fn checkpoint_image_apply_is_idempotent() {
        let mut image = CheckpointImage::default();
        let ws = vec![
            LoggedWrite::put(TableId(0), 1, Value::from_u64(10)),
            LoggedWrite::delete(TableId(0), 2).with_prev(Some(Value::from_u64(2))),
        ];
        image
            .records
            .insert((TableId(0), 2), (Value::from_u64(2), 1));
        image.apply(5, &ws);
        let once = image.clone();
        image.apply(5, &ws);
        assert_eq!(once.records.len(), image.records.len());
        assert_eq!(image.up_to_ts, 5);
        assert!(image.records.contains_key(&(TableId(0), 1)));
        assert!(!image.records.contains_key(&(TableId(0), 2)));
        assert_eq!(image.len(), 1);
        assert!(!image.is_empty());
    }

    #[test]
    fn retain_replayable_purges_rolled_back_write_sets() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        let a = wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 5,
            writes: writes(1),
        });
        wal.append(LogPayload::Watermark { wp: 6 });
        let b = wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 9, // above the rollback bound: reported CrashAborted
            writes: writes(2),
        });
        let c = wal.append(LogPayload::TxnWrites {
            txn: txn(3),
            ts: 5, // covered, but past the durable cutoff: volatile, lost
            writes: writes(3),
        });
        std::thread::sleep(Duration::from_millis(1));
        let removed = wal.retain_replayable(0, &ReplayBound::Ts(8), Some(b));
        assert_eq!(removed, 2);
        let left = wal.replay_range(0, &ReplayBound::Ts(u64::MAX), None);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].0, txn(1));
        // Control entries survive the purge.
        assert_eq!(wal.latest_durable_watermark(), Some(6));
        let _ = (a, c);
    }

    #[test]
    fn watermark_lookup_respects_the_crash_cutoff() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        let early = wal.append(LogPayload::Watermark { wp: 3 });
        wal.append(LogPayload::Watermark { wp: 8 });
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(wal.latest_durable_watermark_at(None), Some(8));
        // A Wp appended after the crash-time durable LSN is never recovered.
        assert_eq!(wal.latest_durable_watermark_at(Some(early)), Some(3));
    }

    #[test]
    fn fold_scan_stops_at_uncovered_write_sets_and_the_durable_horizon() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 2,
            writes: writes(1),
        });
        wal.append(LogPayload::Watermark { wp: 3 });
        let uncovered = wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 50,
            writes: writes(2),
        });
        wal.append(LogPayload::Watermark { wp: 60 });
        let all =
            |bound: ReplayBound, durable: u64| wal.fold_scan(0, &bound, durable, usize::MAX, 0);
        // Stops at the first uncovered TxnWrites, folding past control
        // entries before it.
        let chunk = all(ReplayBound::Ts(10), u64::MAX);
        assert_eq!(chunk.stop_lsn, uncovered);
        assert_eq!(chunk.writes.len(), 1);
        assert_eq!(chunk.writes[0].0, 2);
        assert_eq!(all(ReplayBound::Ts(100), u64::MAX).stop_lsn, wal.end_lsn());
        // Never past the caller's durable horizon.
        assert_eq!(all(ReplayBound::Ts(100), 1).stop_lsn, 2);
        // A chunk walks at most `max_entries` entries and leaves `keep`.
        let chunk = wal.fold_scan(0, &ReplayBound::Ts(100), u64::MAX, 1, 0);
        assert_eq!(chunk.stop_lsn, 1);
        let chunk = wal.fold_scan(0, &ReplayBound::Ts(100), u64::MAX, usize::MAX, 3);
        assert_eq!(chunk.stop_lsn, 1);
        // The scan starts where the last one stopped.
        let chunk = wal.fold_scan(1, &ReplayBound::Ts(100), u64::MAX, usize::MAX, 0);
        assert_eq!(chunk.writes.len(), 1);
        assert_eq!(chunk.writes[0].0, 50);
    }

    #[test]
    fn fold_scan_keeps_a_vote_until_its_outcome_is_durable() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        let vote = |t: TxnId| LogPayload::CommitVote {
            txn: t,
            coordinator: PartitionId(0),
            commit: true,
        };
        wal.append(LogPayload::Watermark { wp: 1 });
        let resolved_vote = wal.append(vote(txn(1)));
        let decision = wal.append(LogPayload::CommitDecision {
            txn: txn(1),
            commit: true,
        });
        let in_doubt = wal.append(vote(txn(2)));
        wal.append(LogPayload::Watermark { wp: 2 });
        let scan = |durable: u64| {
            wal.fold_scan(0, &ReplayBound::Lsn(u64::MAX), durable, usize::MAX, 0)
                .stop_lsn
        };
        // The in-doubt vote (no decision, write-set or rollback) stops the
        // fold however durable it is.
        assert_eq!(scan(u64::MAX), in_doubt);
        // A vote whose decision is appended but not yet durable stays too.
        assert_eq!(scan(decision - 1), resolved_vote);
        // Resolving the in-doubt vote lets the fold pass it.
        wal.append(LogPayload::CommitDecision {
            txn: txn(2),
            commit: false,
        });
        assert_eq!(scan(u64::MAX), wal.end_lsn());
    }

    #[test]
    fn drain_keeps_the_durable_horizon_and_forgets_drained_markers() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 5,
            writes: writes(1),
        });
        wal.append(LogPayload::TxnRolledBack { txn: txn(1) });
        wal.append(LogPayload::CommitVote {
            txn: txn(2),
            coordinator: PartitionId(0),
            commit: true,
        });
        let last = wal.append(LogPayload::CommitDecision {
            txn: txn(2),
            commit: true,
        });
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(wal.drain_before(last + 1).len(), 4);
        assert!(wal.is_empty());
        assert_eq!(
            wal.durable_lsn(),
            Some(last),
            "drained entries were durable: the horizon must not fall back to None"
        );
        assert!(wal.rolled_back_txns().is_empty());
        assert_eq!(wal.end_lsn(), last + 1, "the LSN counter survives");
        // A copy with a slow disk: the drained prefix still counts.
        let slow = PartitionWal::new(PartitionId(0), 60_000);
        slow.append(LogPayload::Watermark { wp: 1 });
        slow.append(LogPayload::Watermark { wp: 2 });
        assert_eq!(slow.durable_lsn(), None);
        slow.drain_before(1);
        assert_eq!(slow.durable_lsn(), Some(0));
    }

    #[test]
    fn rollback_markers_cancel_entries_everywhere() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 5,
            writes: writes(1),
        });
        wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 6,
            writes: writes(2),
        });
        wal.append(LogPayload::TxnRolledBack { txn: txn(2) });
        std::thread::sleep(Duration::from_millis(1));
        // Replay skips the cancelled transaction whatever the bound says.
        let replayed = wal.replay_range(0, &ReplayBound::Ts(u64::MAX), None);
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].0, txn(1));
        // The fold scan advances past the cancelled entry instead of
        // stopping on it, even under a bound that does not cover it — and
        // never hands it to the image.
        let chunk = wal.fold_scan(0, &ReplayBound::Ts(6), u64::MAX, usize::MAX, 0);
        assert_eq!(chunk.stop_lsn, wal.end_lsn());
        assert_eq!(chunk.writes.len(), 1);
        // Log repair drops the cancelled entry but keeps the marker.
        let removed = wal.retain_replayable(0, &ReplayBound::Ts(u64::MAX), Some(wal.end_lsn()));
        assert_eq!(removed, 1);
        assert!(wal.rolled_back_txns().contains(&txn(2)));
    }

    #[test]
    fn collect_rolled_back_returns_uncovered_unmarked_entries() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 5,
            writes: writes(1),
        });
        wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 9,
            writes: writes(2),
        });
        wal.append(LogPayload::TxnWrites {
            txn: txn(3),
            ts: 12,
            writes: writes(3),
        });
        wal.append(LogPayload::TxnRolledBack { txn: txn(3) });
        // ts >= 8 is rolled back; txn 3 was already compensated earlier.
        let doomed = wal.collect_rolled_back(&ReplayBound::Ts(8), None);
        assert_eq!(doomed.len(), 1);
        assert_eq!(doomed[0].0, txn(2));
        // An upper cutoff (the log end captured at the crash agreement)
        // excludes entries of transactions that committed afterwards.
        assert!(wal
            .collect_rolled_back(&ReplayBound::Ts(8), Some(1))
            .is_empty());
        // No durability filter: a volatile entry on a survivor still counts.
        let wal = PartitionWal::new(PartitionId(0), 60_000);
        wal.append(LogPayload::TxnWrites {
            txn: txn(7),
            ts: 9,
            writes: writes(7),
        });
        assert_eq!(wal.collect_rolled_back(&ReplayBound::Ts(8), None).len(), 1);
    }

    #[test]
    fn persist_window_bound_rolls_back_only_window_spanning_entries() {
        let wal = PartitionWal::new(PartitionId(0), 30_000); // 30 ms persist
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 1,
            writes: writes(1),
        });
        std::thread::sleep(Duration::from_millis(40));
        // Entry 1 is durable now; entry 2 is inside its window at the crash
        // instant; entry 3 is appended after the crash (a post-crash commit
        // the scheme reports Committed).
        wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 2,
            writes: writes(2),
        });
        std::thread::sleep(Duration::from_millis(2));
        let crash_instant = now_us();
        std::thread::sleep(Duration::from_millis(2));
        wal.append(LogPayload::TxnWrites {
            txn: txn(3),
            ts: 3,
            writes: writes(3),
        });
        let doomed = wal.collect_rolled_back(&ReplayBound::PersistWindow(crash_instant), None);
        assert_eq!(doomed.len(), 1);
        assert_eq!(doomed[0].0, txn(2));
    }

    #[test]
    fn unresolved_commit_votes_track_decisions_installs_and_rollbacks() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        let vote = |t: TxnId, commit: bool| LogPayload::CommitVote {
            txn: t,
            coordinator: PartitionId(0),
            commit,
        };
        // txn 1: voted, decided — resolved.
        wal.append(vote(txn(1), true));
        wal.append(LogPayload::CommitDecision {
            txn: txn(1),
            commit: true,
        });
        // txn 2: voted, writes installed — resolved (commit completed).
        wal.append(vote(txn(2), true));
        wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 5,
            writes: writes(2),
        });
        // txn 3: voted, rolled back by compensation — resolved.
        wal.append(vote(txn(3), true));
        wal.append(LogPayload::TxnRolledBack { txn: txn(3) });
        // txn 4: voted, nothing else — in doubt.
        let in_doubt_lsn = wal.append(vote(txn(4), true));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(wal.unresolved_commit_votes(None), vec![txn(4)]);
        assert_eq!(wal.commit_vote_for(txn(4), None), Some(true));
        assert_eq!(wal.commit_decision_for(txn(4), None), None);
        assert_eq!(wal.commit_decision_for(txn(1), None), Some(true));
        // Sealing the in-doubt vote with an abort decision resolves it.
        wal.append(LogPayload::CommitDecision {
            txn: txn(4),
            commit: false,
        });
        std::thread::sleep(Duration::from_millis(1));
        assert!(wal.unresolved_commit_votes(None).is_empty());
        assert_eq!(wal.commit_decision_for(txn(4), None), Some(false));
        // A cutoff below the seal re-exposes the in-doubt vote (crash-time
        // durable horizon), and one below the vote hides it entirely.
        assert_eq!(
            wal.unresolved_commit_votes(Some(in_doubt_lsn)),
            vec![txn(4)]
        );
        assert!(wal
            .unresolved_commit_votes(Some(in_doubt_lsn - 1))
            .is_empty());
    }

    #[test]
    fn commit_votes_survive_log_repair() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        wal.append(LogPayload::CommitVote {
            txn: txn(1),
            coordinator: PartitionId(0),
            commit: true,
        });
        wal.append(LogPayload::CommitDecision {
            txn: txn(1),
            commit: false,
        });
        std::thread::sleep(Duration::from_millis(1));
        // Votes and decisions are control entries: the recovery-time purge
        // never drops them, whatever the bound.
        let removed = wal.retain_replayable(0, &ReplayBound::Ts(0), Some(wal.end_lsn()));
        assert_eq!(removed, 0);
        assert_eq!(wal.commit_decision_for(txn(1), None), Some(false));
    }

    #[test]
    fn epoch_boundary_lookup_filters_by_epoch() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        let b1 = wal.append(LogPayload::EpochBoundary { epoch: 1 });
        let b2 = wal.append(LogPayload::EpochBoundary { epoch: 2 });
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(wal.latest_durable_epoch_boundary(2, None), Some(b2));
        assert_eq!(wal.latest_durable_epoch_boundary(1, None), Some(b1));
        assert_eq!(wal.latest_durable_epoch_boundary(0, None), None);
        // A cutoff below the newer boundary falls back to the older one.
        assert_eq!(wal.latest_durable_epoch_boundary(2, Some(b1)), Some(b1));
        // The durability-blind variant (survivor-side rollback bound) agrees
        // here and also sees boundaries still inside their persist window.
        assert_eq!(wal.latest_epoch_boundary(2), Some(b2));
        let slow = PartitionWal::new(PartitionId(0), 60_000);
        let b = slow.append(LogPayload::EpochBoundary { epoch: 1 });
        assert_eq!(slow.latest_durable_epoch_boundary(1, None), None);
        assert_eq!(slow.latest_epoch_boundary(1), Some(b));
    }
}
