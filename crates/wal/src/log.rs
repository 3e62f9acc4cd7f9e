//! What a partition's log is made of: its records and one physical
//! **copy** of the log (the rolling checkpoint image they fold into is in
//! [`crate::image`]).
//!
//! The paper's partitions replicate their log through Raft and persist it to
//! local SSD; here a record appended at time `t` is on a copy's disk at
//! `t + persist delay`. The log is the partition's durability story end to
//! end: protocols append committed write-sets ([`LogPayload::TxnWrites`]),
//! the group-commit schemes append their control records
//! ([`LogPayload::Watermark`] / [`LogPayload::EpochBoundary`]), and the
//! recovery manager rebuilds a crashed partition's store from
//! `rolling checkpoint image + bounded replay` (see `primo-recovery`).
//!
//! The one public log is [`crate::ReplicatedLog`]; the copy in this module
//! (`LogCopy`) is its crate-private storage — the entries, the
//! rolled-back and vote indexes, and scans over an LSN cut the replicated
//! log hands it. A copy never decides what is durable.
//!
//! **Retention is the log's own job, and coverage is its rule.** A log copy
//! keeps what its group-commit scheme has not yet covered: once an entry is
//! quorum-durable and the scheme's checkpoint bound vouches that it can
//! never be rolled back, recovery needs it only as part of the rolling
//! [`crate::CheckpointImage`], so it is *folded* into the image and drained
//! from the front. The commit path drives this: a pass is due once
//! [`FOLD_CHUNK`] entries arrived since the last one, folds what arrived
//! before that one, and takes off at most twice [`FOLD_CHUNK`] — see
//! [`crate::ReplicatedLog::fold`]. Everything a fold needs
//! is kept up to date as entries arrive — the rollback-marker set, the
//! resolution state of Paxos-Commit votes — so a fold reads only the
//! entries it absorbs: the scan finds its start by binary search and copies
//! the chunk's shared payload handles under the log lock, and the drain
//! pops the prefix off a deque.

use parking_lot::Mutex;
use primo_common::sim_time::now_us;
use primo_common::{Key, PartitionId, TableId, Ts, TxnId, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The self-driven fold's pace: a pass is due once this many entries were
/// appended since the last one, and absorbs at most twice as many — so a
/// backlog left by a stall drains faster than entries arrive, and no commit
/// pays for more than two chunks. Nothing else sizes the log: it holds what
/// its scheme has not covered and what arrived since the pass before last.
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

/// One record in the log. The payload sits behind an `Arc` so every copy's
/// entry shares one allocation (only the metadata — LSN, append time, term —
/// is owned per copy).
#[derive(Debug, Clone)]
pub struct LogEntry {
    pub lsn: u64,
    pub appended_at_us: u64,
    /// Leadership term of the replicated log at append time. Every crash
    /// bumps the term and moves leadership to the deterministic successor
    /// replica, so entries carry which leader produced them — the
    /// replicated-log equivalent of a Raft term on each record.
    pub term: u64,
    pub payload: Arc<LogPayload>,
}

/// A retained [`LogPayload::CommitVote`]: where it sits, and the LSN of the
/// first entry after it that resolves it (decision, installed write-set or
/// rollback marker) — `None` while the outcome is unknown.
#[derive(Debug, Clone, Copy)]
struct Vote {
    lsn: u64,
    resolved_at: Option<u64>,
}

#[derive(Debug, Default)]
struct CopyInner {
    /// The retained tail, ascending by LSN. LSNs are dense except where
    /// recovery-time repair ([`LogCopy::retain_replayable`]) removed
    /// write-sets, so positions are found by binary search on the LSN.
    entries: VecDeque<LogEntry>,
    next_lsn: u64,
    /// Every LSN below this was drained after a fold absorbed it, so it was
    /// durable: the durable horizon never falls below `truncated_before - 1`
    /// even when the retained tail is empty.
    truncated_before: u64,
    /// This copy's disk was discarded and not yet repaired. It keeps
    /// receiving entries (LSN-aligned with its peers) but has a hole in its
    /// history, so it neither votes on quorum durability nor stands for
    /// election until [`LogCopy::restart_if_diverged`] re-seeds it.
    wiped: bool,
    /// Transactions cancelled by a retained [`LogPayload::TxnRolledBack`]
    /// marker, with the (first) marker's LSN. Kept current as entries arrive
    /// and leave, so no reader re-scans the log for markers.
    rolled_back: HashMap<TxnId, u64>,
    /// Transactions with a retained [`LogPayload::CommitVote`] (the first
    /// one), kept current the same way.
    votes: HashMap<TxnId, Vote>,
}

impl CopyInner {
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
                self.votes.entry(*txn).or_insert(Vote {
                    lsn: entry.lsn,
                    resolved_at: None,
                });
            }
            _ => {}
        }
    }

    #[inline]
    fn resolve_vote(&mut self, txn: TxnId, lsn: u64) {
        // Empty (a lookup that does not even hash) unless Paxos Commit is
        // logging votes.
        if let Some(vote) = self.votes.get_mut(&txn) {
            vote.resolved_at.get_or_insert(lsn);
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

    /// Transactions cancelled by a marker at or below `cut`.
    fn rolled_back_through(&self, cut: u64) -> HashSet<TxnId> {
        self.rolled_back
            .iter()
            .filter(|(_, marker_lsn)| **marker_lsn <= cut)
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

/// What [`LogCopy::fold_scan`] found: the first LSN the fold may not pass,
/// and the covered write-sets below it in log order.
#[derive(Debug)]
pub(crate) struct FoldChunk {
    pub stop_lsn: u64,
    pub writes: Vec<(Ts, LoggedWrites)>,
}

/// How far a recovery (or checkpoint fold) may read into the log. Every
/// group-commit scheme translates its own crash agreement — agreed
/// watermark, last committed epoch's boundary, crash instant — into one of
/// these (see [`crate::GroupCommit::rollback_bound`]), and what a
/// checkpoint may fold likewise (see
/// [`crate::GroupCommit::checkpoint_bound`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayBound {
    /// Transactions with commit timestamp strictly below the bound (the
    /// watermark scheme's agreed watermark, or its `Wg` view for a fold).
    Ts(Ts),
    /// Entries with LSN strictly below the bound (COCO: one past the last
    /// committed epoch's boundary; sync: `u64::MAX`, everything; a fold:
    /// one past the quorum-durable LSN or, for COCO, the last durable
    /// committed boundary).
    Lsn(u64),
    /// Entries whose persist window *spans* the given simulated instant are
    /// **not** covered (CLV's crash-rollback rule, on the crashed partition
    /// and the survivors alike): a transaction is acknowledged exactly when
    /// its log records are durable, so a crash rolls back precisely the
    /// commits still inside their persist window at the crash instant.
    /// Entries already durable by the instant — and entries appended
    /// *after* it, which belong to post-crash transactions the scheme
    /// reports `Committed` — are covered. The crashed log holds none of
    /// the latter: it was fenced before the instant.
    PersistWindow(u64),
}

impl ReplayBound {
    /// Whether a `TxnWrites` entry at `(ts, lsn)`, appended at
    /// `appended_at_us` into a log that acknowledges after `ack_delay_us`,
    /// falls under this bound.
    #[inline]
    pub fn covers(&self, ts: Ts, lsn: u64, appended_at_us: u64, ack_delay_us: u64) -> bool {
        match self {
            ReplayBound::Ts(bound) => ts < *bound,
            ReplayBound::Lsn(bound) => lsn < *bound,
            ReplayBound::PersistWindow(instant) => {
                appended_at_us + ack_delay_us <= *instant || appended_at_us > *instant
            }
        }
    }
}

/// One physical copy of a partition's log: the storage of one replica of a
/// [`crate::ReplicatedLog`]. The leader's copy takes appends; the others
/// are fed from it. A copy knows when *its own disk* persisted an entry and
/// answers scans over an explicit LSN cut — what counts as durable is the
/// replicated log's decision, made once for every replication factor.
#[derive(Debug)]
pub(crate) struct LogCopy {
    /// Delay after which an entry is on this copy's disk.
    persist_delay_us: u64,
    /// The replica set's quorum-ack delay: after it an appended record
    /// counts as *acknowledged* for [`ReplayBound::PersistWindow`] coverage,
    /// so window checks agree with when the scheme acknowledged the commit
    /// whichever copy answers.
    ack_delay_us: u64,
    inner: Mutex<CopyInner>,
}

impl LogCopy {
    pub(crate) fn new(persist_delay_us: u64, ack_delay_us: u64) -> Self {
        LogCopy {
            persist_delay_us,
            ack_delay_us,
            inner: Mutex::new(CopyInner::default()),
        }
    }

    /// The leader's append: take the next LSN, stamp the append instant and
    /// `term`, push. Never blocks on I/O — persistence happens in the
    /// background (that is the whole point of taking durability off the
    /// critical path). Stamping under the copy's lock keeps
    /// `appended_at_us` monotone along the log.
    pub(crate) fn append_in_term(&self, term: u64, payload: Arc<LogPayload>) -> u64 {
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.push(LogEntry {
            lsn,
            appended_at_us: now_us(),
            term,
            payload,
        });
        lsn
    }

    /// A follower's catch-up: take the leader's tail
    /// ([`LogCopy::tail_from`] this copy's end) as is. Entries keep the LSN,
    /// append instant and term the leader stamped, so the copy is identical
    /// to the leader's and its persist clock runs from the original append,
    /// not from when it was fed.
    pub(crate) fn append_entries(&self, entries: Vec<LogEntry>, end_lsn: u64) {
        let mut inner = self.inner.lock();
        debug_assert!(
            entries.first().is_none_or(|e| e.lsn >= inner.next_lsn),
            "a catch-up must continue the copy's log"
        );
        inner.entries.reserve(entries.len());
        for entry in entries {
            inner.push(entry);
        }
        inner.next_lsn = end_lsn;
    }

    /// The LSN the next entry will receive.
    pub(crate) fn end_lsn(&self) -> u64 {
        self.inner.lock().next_lsn
    }

    /// The retained entries with `lsn >= from_lsn`, and the copy's end LSN
    /// read under the same lock.
    pub(crate) fn tail_from(&self, from_lsn: u64) -> (Vec<LogEntry>, u64) {
        let inner = self.inner.lock();
        let tail = inner
            .entries
            .range(inner.position(from_lsn)..)
            .cloned()
            .collect();
        (tail, inner.next_lsn)
    }

    /// Highest LSN on this copy's disk now (append instant + persist delay
    /// has elapsed) — its vote on quorum durability. `appended_at_us` is
    /// monotone along the log, so the boundary is a binary search. Entries a
    /// fold already drained were durable, so the answer never falls below
    /// the truncation point. `None` if nothing is durable yet, and from a
    /// wiped copy: its newest entry says nothing about the hole below it.
    pub(crate) fn durable_lsn(&self) -> Option<u64> {
        let now = now_us();
        let inner = self.inner.lock();
        if inner.wiped {
            return None;
        }
        let durable = inner
            .entries
            .partition_point(|e| e.appended_at_us + self.persist_delay_us <= now);
        match durable.checked_sub(1) {
            Some(last) => Some(inner.entries[last].lsn),
            None => inner.truncated_before.checked_sub(1),
        }
    }

    /// The newest entry at or below `cut` that `pick` accepts. The cut **is**
    /// the durability horizon (the quorum's, computed by the caller): this
    /// copy's own disk delay must not filter further, or an elected leader
    /// with a disk slower than the quorum-ack delay would hide
    /// quorum-acknowledged entries from recovery.
    pub(crate) fn latest<R>(&self, cut: u64, pick: impl Fn(&LogEntry) -> Option<R>) -> Option<R> {
        let inner = self.inner.lock();
        let readable = inner.position(cut.saturating_add(1));
        inner.entries.range(..readable).rev().find_map(pick)
    }

    /// The transaction writes in `from_lsn..=cut` that `bound` covers.
    ///
    /// The output is **commit-timestamp-sorted** (ties broken by LSN, i.e.
    /// append order) and **deduplicated by transaction id** (the entry with
    /// the highest LSN wins), so applying it left-to-right with last-writer-
    /// wins semantics is deterministic and replaying any prefix twice equals
    /// replaying it once.
    ///
    /// Transactions cancelled by a [`LogPayload::TxnRolledBack`] marker (a
    /// crash rolled them back and compensation undid their installed
    /// writes) are never replayed, whatever the bound says — the bound keeps
    /// advancing after the crash, the rollback decision does not. Markers
    /// cancel entries *behind* them (lower LSNs), so every marker at or
    /// below `cut` counts. The write-sets are shared with the log's entries,
    /// not copied.
    pub(crate) fn replay_range(
        &self,
        from_lsn: u64,
        bound: &ReplayBound,
        cut: u64,
    ) -> Vec<ReplayedTxn> {
        let inner = self.inner.lock();
        let readable = inner.position(cut.saturating_add(1));
        let start = inner.position(from_lsn).min(readable);
        let cancelled = inner.rolled_back_through(cut);
        let picked = inner
            .entries
            .range(start..readable)
            .filter_map(|e| {
                self.pick_if(e, bound, |txn, covered| covered && !cancelled.contains(txn))
            })
            .collect();
        drop(inner);
        Self::sort_dedup_by_txn(picked)
    }

    /// `e` as a [`Picked`] write-set if `want(txn, bound covers it)`.
    #[inline]
    fn pick_if(
        &self,
        e: &LogEntry,
        bound: &ReplayBound,
        want: impl FnOnce(&TxnId, bool) -> bool,
    ) -> Option<Picked> {
        match e.payload.as_ref() {
            LogPayload::TxnWrites { txn, ts, .. }
                if want(
                    txn,
                    bound.covers(*ts, e.lsn, e.appended_at_us, self.ack_delay_us),
                ) =>
            {
                Some(Picked {
                    ts: *ts,
                    lsn: e.lsn,
                    txn: *txn,
                    payload: Arc::clone(&e.payload),
                })
            }
            _ => None,
        }
    }

    /// Deduplicate picked entries by transaction id, keeping the
    /// highest-LSN entry (a transaction logs one entry per partition, so
    /// later duplicates — if a caller ever re-appends — supersede earlier
    /// ones), then order by `(ts, lsn)`. Shared by
    /// [`LogCopy::replay_range`] and [`LogCopy::collect_rolled_back`] so the
    /// set of transactions replayed and the set compensated can never
    /// diverge on the ordering/dedup rule.
    fn sort_dedup_by_txn(mut picked: Vec<Picked>) -> Vec<ReplayedTxn> {
        picked.sort_unstable_by_key(|p| std::cmp::Reverse((p.txn, p.lsn)));
        picked.dedup_by_key(|p| p.txn);
        picked.sort_unstable_by_key(|p| (p.ts, p.lsn));
        picked
            .into_iter()
            .map(|p| (p.txn, p.ts, LoggedWrites(p.payload)))
            .collect()
    }

    /// All transaction ids with a retained rollback marker.
    pub(crate) fn rolled_back_txns(&self) -> HashSet<TxnId> {
        self.inner.lock().rolled_back.keys().copied().collect()
    }

    /// The `TxnWrites` entries `bound` does **not** cover and no rollback
    /// marker cancels yet: the transactions a crash just rolled back on this
    /// *surviving* partition, whose installed writes compensation must undo.
    /// No durability cut — this partition did not crash, so nothing in its
    /// log is lost. Entries at or past `upper_cutoff` (the survivor's log
    /// end captured right after the crash agreement) are excluded: they
    /// belong to transactions that committed *after* the agreement, which
    /// every scheme reports `Committed`. Sorted and deduplicated exactly
    /// like [`LogCopy::replay_range`], so undoing the result in reverse
    /// restores the pre-transaction state.
    pub(crate) fn collect_rolled_back(
        &self,
        bound: &ReplayBound,
        upper_cutoff: Option<u64>,
    ) -> Vec<ReplayedTxn> {
        let inner = self.inner.lock();
        let end = upper_cutoff.map_or(inner.entries.len(), |cut| inner.position(cut));
        let picked = inner
            .entries
            .range(..end)
            .filter_map(|e| {
                self.pick_if(e, bound, |txn, covered| {
                    !covered && !inner.rolled_back.contains_key(txn)
                })
            })
            .collect();
        drop(inner);
        Self::sort_dedup_by_txn(picked)
    }

    /// Transaction ids with a [`LogPayload::CommitVote`] at or below `cut`
    /// and no resolution there: no [`LogPayload::CommitDecision`], no
    /// installed [`LogPayload::TxnWrites`] (evidence the commit round ran to
    /// completion on this partition) and no [`LogPayload::TxnRolledBack`]
    /// marker. These are the in-doubt transactions recovery must terminate;
    /// it seals each with a global abort decision (presumed abort). Returned
    /// in first-vote order. (A fold never drains a vote before its
    /// resolution is durable, so an in-doubt vote is always still retained.)
    pub(crate) fn unresolved_commit_votes(&self, cut: u64) -> Vec<TxnId> {
        let inner = self.inner.lock();
        let mut open: Vec<(u64, TxnId)> = inner
            .votes
            .iter()
            .filter(|(_, v)| v.lsn <= cut && v.resolved_at.is_none_or(|at| at > cut))
            .map(|(txn, v)| (v.lsn, *txn))
            .collect();
        drop(inner);
        open.sort_unstable();
        open.into_iter().map(|(_, txn)| txn).collect()
    }

    /// One fold step over this copy: starting at `from_lsn` (found by
    /// binary search), walk at most `max_entries` entries and stop at the
    /// first entry the fold may **not** absorb:
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
    ) -> FoldChunk {
        let inner = self.inner.lock();
        let start = inner.position(from_lsn);
        let end = (inner.entries.len()).min(start.saturating_add(max_entries));
        let mut chunk = FoldChunk {
            stop_lsn: from_lsn,
            writes: Vec::new(),
        };
        for e in inner.entries.range(start..end) {
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
                    let outcome_durable = inner
                        .votes
                        .get(txn)
                        .and_then(|v| v.resolved_at)
                        .is_some_and(|at| at <= durable_lsn);
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

    /// The transaction ids cancelled by a marker at or below `cut`.
    pub(crate) fn rolled_back_through(&self, cut: u64) -> HashSet<TxnId> {
        self.inner.lock().rolled_back_through(cut)
    }

    /// Recovery-time log repair: remove every `TxnWrites` entry at or after
    /// `from_lsn` that replay did **not** apply — entries past `cut` (the
    /// lost volatile tail), entries above the rollback bound (transactions
    /// reported `CrashAborted`), and entries of a transaction in
    /// `rolled_back` (compensated after an earlier crash of *another*
    /// partition). Without this, a later checkpoint fold — whose bound keeps
    /// advancing after recovery — would resurrect rolled-back transactions.
    /// The replicated log computes `rolled_back` once, from the leader, and
    /// applies it to every copy, so the copies cannot diverge on what the
    /// purge drops. Returns the number of entries removed.
    pub(crate) fn retain_replayable(
        &self,
        from_lsn: u64,
        bound: &ReplayBound,
        cut: u64,
        rolled_back: &HashSet<TxnId>,
    ) -> usize {
        let mut inner = self.inner.lock();
        let before = inner.entries.len();
        let delay = self.ack_delay_us;
        inner.entries.retain(|e| {
            if e.lsn < from_lsn {
                return true;
            }
            match e.payload.as_ref() {
                LogPayload::TxnWrites { txn, ts, .. } => {
                    e.lsn <= cut
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
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// [`LogCopy::len`] as an election sees it: a wiped copy does not stand.
    pub(crate) fn intact_len(&self) -> Option<usize> {
        let inner = self.inner.lock();
        (!inner.wiped).then(|| inner.entries.len())
    }

    /// Discard this copy's entries (a lost disk). The LSN counter is
    /// preserved so the copy keeps receiving new entries aligned with its
    /// peers; the history itself is gone until a repair copies it back from
    /// the leader.
    pub(crate) fn wipe(&self) -> usize {
        let mut inner = self.inner.lock();
        let dropped = inner.entries.len();
        inner.entries.clear();
        inner.rolled_back.clear();
        inner.votes.clear();
        inner.wiped = true;
        dropped
    }

    /// Repair, the elected leader's half: its content is the authority by
    /// definition, so it is intact again whatever it holds.
    pub(crate) fn mark_intact(&self) {
        self.inner.lock().wiped = false;
    }

    /// Repair, a follower's half: if this copy was wiped or does not hold as
    /// many entries as `leader`, forget what it holds and restart it at the
    /// leader's truncation point — the next catch-up re-seeds it with the
    /// leader's whole retained log, original LSNs and append instants
    /// included. Returns whether it restarted.
    pub(crate) fn restart_if_diverged(&self, leader: &LogCopy) -> bool {
        let (leader_len, truncated_before) = {
            let leader = leader.inner.lock();
            (leader.entries.len(), leader.truncated_before)
        };
        let mut inner = self.inner.lock();
        if !inner.wiped && inner.entries.len() == leader_len {
            return false;
        }
        *inner = CopyInner {
            next_lsn: truncated_before,
            truncated_before,
            ..CopyInner::default()
        };
        true
    }

    /// Drain every retained entry below `lsn` off the front of the log —
    /// the caller folded them into the checkpoint image, so they were
    /// durable. Returns the drained entries so the caller can drop them
    /// (and free their payloads) outside its own locks.
    pub(crate) fn drain_before(&self, lsn: u64) -> Vec<LogEntry> {
        let mut inner = self.inner.lock();
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

    /// A copy whose disk and whose quorum both take `delay_us`.
    fn copy(delay_us: u64) -> LogCopy {
        LogCopy::new(delay_us, delay_us)
    }

    fn append(copy: &LogCopy, payload: LogPayload) -> u64 {
        copy.append_in_term(0, Arc::new(payload))
    }

    fn put(copy: &LogCopy, seq: u64, ts: Ts) -> u64 {
        append(
            copy,
            LogPayload::TxnWrites {
                txn: txn(seq),
                ts,
                writes: writes(seq),
            },
        )
    }

    const ALL: u64 = u64::MAX;

    #[test]
    fn replay_is_ts_sorted_and_deduplicated() {
        let wal = copy(0);
        // Out-of-ts-order appends (two workers interleaving) plus a duplicate
        // entry for txn 1.
        put(&wal, 2, 9);
        put(&wal, 1, 5);
        append(
            &wal,
            LogPayload::TxnWrites {
                txn: txn(1),
                ts: 5,
                writes: writes(7),
            },
        );
        let replayed = wal.replay_range(0, &ReplayBound::Ts(100), ALL);
        assert_eq!(replayed.len(), 2, "duplicate txn entries are merged");
        assert_eq!(replayed[0].1, 5);
        assert_eq!(replayed[1].1, 9);
        // The duplicate with the higher LSN wins.
        assert_eq!(replayed[0].2[0].key, 7);
        // Everything at or above a ts bound is rolled back: not replayed.
        assert_eq!(wal.replay_range(0, &ReplayBound::Ts(9), ALL).len(), 1);
    }

    #[test]
    fn replay_range_respects_lsn_cutoff_and_base() {
        let wal = copy(0);
        for seq in 0..6u64 {
            put(&wal, seq, seq + 1);
        }
        // Entries with lsn in [2, 4] only.
        let replayed = wal.replay_range(2, &ReplayBound::Ts(u64::MAX), 4);
        assert_eq!(replayed.len(), 3);
        assert!(replayed.iter().all(|(t, _, _)| (2..=4).contains(&t.seq)));
        // Lsn bound is exclusive.
        let replayed = wal.replay_range(0, &ReplayBound::Lsn(2), ALL);
        assert_eq!(replayed.len(), 2);
        // The cut is the caller's durability horizon: a copy whose own disk
        // has persisted nothing yet still answers below it.
        let slow = copy(60_000);
        put(&slow, 1, 1);
        assert_eq!(slow.durable_lsn(), None);
        assert_eq!(slow.replay_range(0, &ReplayBound::Lsn(ALL), 0).len(), 1);
    }

    #[test]
    fn latest_takes_the_newest_accepted_entry_at_or_below_the_cut() {
        let wal = copy(0);
        let watermark = |e: &LogEntry| match *e.payload {
            LogPayload::Watermark { wp } => Some(wp),
            _ => None,
        };
        let early = append(&wal, LogPayload::Watermark { wp: 3 });
        put(&wal, 1, 4);
        append(&wal, LogPayload::Watermark { wp: 8 });
        assert_eq!(wal.latest(ALL, watermark), Some(8));
        // A Wp appended after the crash-time durable LSN is never recovered.
        assert_eq!(wal.latest(early, watermark), Some(3));
        assert_eq!(wal.latest(early, |e| Some(e.lsn)), Some(early));
        assert_eq!(copy(0).latest(ALL, watermark), None);
    }

    #[test]
    fn retain_replayable_purges_rolled_back_write_sets() {
        let wal = copy(0);
        put(&wal, 1, 5);
        append(&wal, LogPayload::Watermark { wp: 6 });
        // Above the rollback bound: reported CrashAborted.
        let b = put(&wal, 2, 9);
        // Covered, but past the durable cutoff: volatile, lost.
        put(&wal, 3, 5);
        let removed = wal.retain_replayable(0, &ReplayBound::Ts(8), b, &HashSet::new());
        assert_eq!(removed, 2);
        let left = wal.replay_range(0, &ReplayBound::Ts(u64::MAX), ALL);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].0, txn(1));
        // Control entries survive the purge, and so does the LSN counter.
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.end_lsn(), 4);
    }

    #[test]
    fn fold_scan_stops_at_uncovered_write_sets_and_the_durable_horizon() {
        let wal = copy(0);
        put(&wal, 1, 2);
        append(&wal, LogPayload::Watermark { wp: 3 });
        let uncovered = put(&wal, 2, 50);
        append(&wal, LogPayload::Watermark { wp: 60 });
        let all = |bound: ReplayBound, durable: u64| wal.fold_scan(0, &bound, durable, usize::MAX);
        // Stops at the first uncovered TxnWrites, folding past control
        // entries before it.
        let chunk = all(ReplayBound::Ts(10), u64::MAX);
        assert_eq!(chunk.stop_lsn, uncovered);
        assert_eq!(chunk.writes.len(), 1);
        assert_eq!(chunk.writes[0].0, 2);
        assert_eq!(all(ReplayBound::Ts(100), u64::MAX).stop_lsn, wal.end_lsn());
        // Never past the caller's durable horizon.
        assert_eq!(all(ReplayBound::Ts(100), 1).stop_lsn, 2);
        // A chunk walks at most `max_entries` entries.
        let chunk = wal.fold_scan(0, &ReplayBound::Ts(100), u64::MAX, 1);
        assert_eq!(chunk.stop_lsn, 1);
        // The scan starts where the last one stopped.
        let chunk = wal.fold_scan(1, &ReplayBound::Ts(100), u64::MAX, usize::MAX);
        assert_eq!(chunk.writes.len(), 1);
        assert_eq!(chunk.writes[0].0, 50);
    }

    #[test]
    fn fold_scan_keeps_a_vote_until_its_outcome_is_durable() {
        let wal = copy(0);
        let vote = |t: TxnId| LogPayload::CommitVote {
            txn: t,
            coordinator: PartitionId(0),
            commit: true,
        };
        append(&wal, LogPayload::Watermark { wp: 1 });
        let resolved_vote = append(&wal, vote(txn(1)));
        let decision = append(
            &wal,
            LogPayload::CommitDecision {
                txn: txn(1),
                commit: true,
            },
        );
        let in_doubt = append(&wal, vote(txn(2)));
        append(&wal, LogPayload::Watermark { wp: 2 });
        let scan = |durable: u64| {
            wal.fold_scan(0, &ReplayBound::Lsn(u64::MAX), durable, usize::MAX)
                .stop_lsn
        };
        // The in-doubt vote (no decision, write-set or rollback) stops the
        // fold however durable it is.
        assert_eq!(scan(u64::MAX), in_doubt);
        // A vote whose decision is appended but not yet durable stays too.
        assert_eq!(scan(decision - 1), resolved_vote);
        // Resolving the in-doubt vote lets the fold pass it.
        append(
            &wal,
            LogPayload::CommitDecision {
                txn: txn(2),
                commit: false,
            },
        );
        assert_eq!(scan(u64::MAX), wal.end_lsn());
    }

    #[test]
    fn drain_keeps_the_durable_horizon_and_forgets_drained_markers() {
        let wal = copy(0);
        put(&wal, 1, 5);
        append(&wal, LogPayload::TxnRolledBack { txn: txn(1) });
        append(
            &wal,
            LogPayload::CommitVote {
                txn: txn(2),
                coordinator: PartitionId(0),
                commit: true,
            },
        );
        let last = append(
            &wal,
            LogPayload::CommitDecision {
                txn: txn(2),
                commit: true,
            },
        );
        assert_eq!(wal.drain_before(2).len(), 2);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.drain_before(last + 1).len(), 2);
        assert_eq!(wal.len(), 0);
        assert_eq!(
            wal.durable_lsn(),
            Some(last),
            "drained entries were durable: the horizon must not fall back to None"
        );
        assert!(wal.rolled_back_txns().is_empty());
        assert!(wal.unresolved_commit_votes(ALL).is_empty());
        assert_eq!(wal.end_lsn(), last + 1, "the LSN counter survives");
        // A copy with a slow disk: the drained prefix still counts.
        let slow = copy(60_000);
        append(&slow, LogPayload::Watermark { wp: 1 });
        append(&slow, LogPayload::Watermark { wp: 2 });
        assert_eq!(slow.durable_lsn(), None);
        slow.drain_before(1);
        assert_eq!(slow.durable_lsn(), Some(0));
    }

    #[test]
    fn a_copy_persists_after_its_own_delay_and_a_wiped_one_does_not_vote() {
        let wal = copy(20_000); // 20 ms
        let lsn = append(&wal, LogPayload::Watermark { wp: 5 });
        assert_eq!(wal.durable_lsn(), None);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(wal.durable_lsn(), Some(lsn));
        // A lost disk: the entries go, the LSN counter stays, and whatever
        // arrives afterwards sits above a hole — no vote, no candidacy.
        assert_eq!(wal.wipe(), 1);
        assert_eq!(wal.end_lsn(), lsn + 1);
        append(&wal, LogPayload::Watermark { wp: 6 });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(wal.durable_lsn(), None);
        assert_eq!((wal.len(), wal.intact_len()), (1, None));
        wal.mark_intact();
        assert_eq!(wal.durable_lsn(), Some(lsn + 1));
    }

    #[test]
    fn a_diverged_copy_restarts_at_the_leaders_truncation_point() {
        let leader = copy(0);
        for seq in 0..5u64 {
            put(&leader, seq, seq + 1);
        }
        leader.drain_before(2);
        let follower = copy(0);
        let (tail, end) = leader.tail_from(follower.end_lsn());
        follower.append_entries(tail, end);
        assert!(
            !follower.restart_if_diverged(&leader),
            "a copy as long as the leader's is left alone"
        );
        follower.wipe();
        assert!(follower.restart_if_diverged(&leader));
        assert_eq!((follower.end_lsn(), follower.intact_len()), (2, Some(0)));
        let (tail, end) = leader.tail_from(follower.end_lsn());
        follower.append_entries(tail, end);
        assert_eq!((follower.len(), follower.end_lsn()), (3, 5));
        assert_eq!(follower.durable_lsn(), leader.durable_lsn());
    }

    #[test]
    fn rollback_markers_cancel_entries_everywhere() {
        let wal = copy(0);
        put(&wal, 1, 5);
        put(&wal, 2, 6);
        let marker = append(&wal, LogPayload::TxnRolledBack { txn: txn(2) });
        // Replay skips the cancelled transaction whatever the bound says —
        // once the cut reaches the marker.
        let replayed = wal.replay_range(0, &ReplayBound::Ts(u64::MAX), ALL);
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].0, txn(1));
        let before_marker = wal.replay_range(0, &ReplayBound::Ts(u64::MAX), marker - 1);
        assert_eq!(before_marker.len(), 2);
        // The fold scan advances past the cancelled entry instead of
        // stopping on it, even under a bound that does not cover it — and
        // never hands it to the image.
        let chunk = wal.fold_scan(0, &ReplayBound::Ts(6), u64::MAX, usize::MAX);
        assert_eq!(chunk.stop_lsn, wal.end_lsn());
        assert_eq!(chunk.writes.len(), 1);
        // Log repair drops the cancelled entry but keeps the marker.
        let cancelled = wal.rolled_back_through(ALL);
        assert!(wal.rolled_back_through(marker - 1).is_empty());
        let removed = wal.retain_replayable(0, &ReplayBound::Ts(u64::MAX), ALL, &cancelled);
        assert_eq!(removed, 1);
        assert!(wal.rolled_back_txns().contains(&txn(2)));
    }

    #[test]
    fn collect_rolled_back_returns_uncovered_unmarked_entries() {
        let wal = copy(0);
        put(&wal, 1, 5);
        put(&wal, 2, 9);
        put(&wal, 3, 12);
        append(&wal, LogPayload::TxnRolledBack { txn: txn(3) });
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
        let wal = copy(60_000);
        put(&wal, 7, 9);
        assert_eq!(wal.collect_rolled_back(&ReplayBound::Ts(8), None).len(), 1);
    }

    #[test]
    fn persist_window_bound_rolls_back_only_window_spanning_entries() {
        let wal = copy(30_000); // acknowledged 30 ms after the append
        put(&wal, 1, 1);
        std::thread::sleep(Duration::from_millis(40));
        // Entry 1 is durable now; entry 2 is inside its window at the crash
        // instant; entry 3 is appended after the crash (a post-crash commit
        // the scheme reports Committed).
        put(&wal, 2, 2);
        std::thread::sleep(Duration::from_millis(2));
        let crash_instant = now_us();
        std::thread::sleep(Duration::from_millis(2));
        put(&wal, 3, 3);
        let doomed = wal.collect_rolled_back(&ReplayBound::PersistWindow(crash_instant), None);
        assert_eq!(doomed.len(), 1);
        assert_eq!(doomed[0].0, txn(2));
    }

    #[test]
    fn unresolved_commit_votes_track_decisions_installs_and_rollbacks() {
        let wal = copy(0);
        let vote = |t: TxnId, commit: bool| LogPayload::CommitVote {
            txn: t,
            coordinator: PartitionId(0),
            commit,
        };
        // txn 4 votes first and stays in doubt; the answer is in first-vote
        // order whatever the index's own order.
        let in_doubt_lsn = append(&wal, vote(txn(4), true));
        // txn 1: voted, decided — resolved.
        append(&wal, vote(txn(1), true));
        append(
            &wal,
            LogPayload::CommitDecision {
                txn: txn(1),
                commit: true,
            },
        );
        // txn 2: voted, writes installed — resolved (commit completed).
        append(&wal, vote(txn(2), true));
        put(&wal, 2, 5);
        // txn 3: voted, rolled back by compensation — resolved.
        append(&wal, vote(txn(3), true));
        append(&wal, LogPayload::TxnRolledBack { txn: txn(3) });
        // txn 5: voted, nothing else — in doubt as well.
        let second_lsn = append(&wal, vote(txn(5), false));
        assert_eq!(wal.unresolved_commit_votes(ALL), vec![txn(4), txn(5)]);
        // Sealing an in-doubt vote with an abort decision resolves it.
        append(
            &wal,
            LogPayload::CommitDecision {
                txn: txn(4),
                commit: false,
            },
        );
        assert_eq!(wal.unresolved_commit_votes(ALL), vec![txn(5)]);
        // A cut below a resolution re-exposes the vote (crash-time durable
        // horizon), and one below the vote hides it entirely.
        assert_eq!(
            wal.unresolved_commit_votes(second_lsn),
            vec![txn(4), txn(5)]
        );
        assert_eq!(
            wal.unresolved_commit_votes(in_doubt_lsn + 1),
            vec![txn(4), txn(1)]
        );
        assert_eq!(wal.unresolved_commit_votes(in_doubt_lsn), vec![txn(4)]);
    }

    #[test]
    fn commit_votes_survive_log_repair() {
        let wal = copy(0);
        append(
            &wal,
            LogPayload::CommitVote {
                txn: txn(1),
                coordinator: PartitionId(0),
                commit: true,
            },
        );
        append(
            &wal,
            LogPayload::CommitDecision {
                txn: txn(1),
                commit: false,
            },
        );
        // A vote resolved only by its installed write-set, which the purge
        // is about to drop: the vote is in doubt again afterwards.
        append(
            &wal,
            LogPayload::CommitVote {
                txn: txn(2),
                coordinator: PartitionId(0),
                commit: true,
            },
        );
        put(&wal, 2, 7);
        assert!(wal.unresolved_commit_votes(ALL).is_empty());
        // Votes and decisions are control entries: the recovery-time purge
        // never drops them, whatever the bound.
        let removed = wal.retain_replayable(0, &ReplayBound::Ts(0), ALL, &HashSet::new());
        assert_eq!(removed, 1);
        assert_eq!(wal.len(), 3);
        assert_eq!(wal.unresolved_commit_votes(ALL), vec![txn(2)]);
    }
}
