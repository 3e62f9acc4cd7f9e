//! The one access context every protocol's transaction body runs against.
//!
//! What differs between the nine protocols during *execution* is only how a
//! read is guarded (§4.2.2), so that is the context's one parameter, the
//! [`ReadPolicy`]. Everything else exists once, here: write buffering and
//! read-your-writes, the delete/insert merge rules, the sticky abort, the
//! [`ReadFanout`] consultation before a remote round trip is charged, the
//! post-lock lifecycle re-check and the abort cleanup.
//!
//! What differs at *commit* is the [`CommitSpec`](crate::pipeline::CommitSpec)
//! handed to [`commit_locked`](crate::pipeline::commit_locked) — or, for
//! Primo's vote-free WCF commit and Aria's deterministic commit, code of the
//! protocol's own.

use crate::access::{
    check_visible, claim_insert_slot, recheck_locked_record, AccessSet, ReadEntry, WriteEntry,
    WriteKind,
};
use crate::cluster::Cluster;
use crate::pipeline::Step;
use crate::prefetch::{PrefetchOutcome, ReadFanout};
use crate::protocol::CommittedTxn;
use crate::txn::{TxnContext, TxnProgram};
use primo_common::{AbortReason, Key, PartitionId, TableId, TxnError, TxnId, TxnResult, Value};
use primo_storage::{LockMode, LockPolicy, LockRequestResult, Record, Table};
use primo_trace::TraceEventKind;
use primo_wal::TxnTicket;
use std::sync::Arc;

/// How the execution phase guards reads — the whole difference between the
/// protocols' contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// No lock; remember the observed version / lease (Silo, Sundial, TAPIR,
    /// Aria).
    Optimistic,
    /// Every read holds a lock until the transaction ends (2PL).
    Locked { mode: LockMode, policy: LockPolicy },
    /// Primo (§4.2.2): optimistic TicToc reads until the first remote access;
    /// the switch then locks every earlier read (aborting `ModeSwitch` if
    /// one changed meanwhile) and every later one under WAIT_DIE. Remote
    /// reads register their partition with the group commit at once — the
    /// vote-free commit has no prepare round to do it in (rule R1).
    ///
    /// With `wcf` the locks are exclusive, blind writes are pre-locked
    /// through dummy reads so that write-set ⊆ read-set, and remote records
    /// are raised above the participant's watermark floor (§5.1, rule R2).
    /// Without it the locks are shared and the commit runs a vote round.
    SwitchOnRemote { wcf: bool },
}

/// The abort reason of a denied lock request, by policy.
fn lock_denied(policy: LockPolicy) -> AbortReason {
    match policy {
        LockPolicy::NoWait => AbortReason::LockConflict,
        LockPolicy::WaitDie => AbortReason::WaitDie,
    }
}

/// [`AccessCtx::record_visible`] on a table already resolved.
fn visible(slots: &Table, key: Key, txn: TxnId) -> Result<Arc<Record>, AbortReason> {
    let record = slots.get(key).ok_or(AbortReason::NotFound)?;
    check_visible(&record, txn).map(|()| record)
}

/// The context of one transaction attempt. It owns what the attempt holds —
/// its group-commit ticket, its fan-out buffer, its access set — so an
/// attempt whose commit waits for a round is a plain value
/// ([`crate::pipeline::InFlight`]) that a worker can put aside.
pub struct AccessCtx<'a> {
    pub cluster: &'a Cluster,
    pub ticket: Arc<TxnTicket>,
    pub home: PartitionId,
    pub access: AccessSet,
    policy: ReadPolicy,
    /// [`ReadPolicy::SwitchOnRemote`] only: the first remote access happened.
    switched: bool,
    /// Sticky abort: once an operation fails, every further operation fails
    /// with the same (first) reason while the program unwinds.
    dead: Option<AbortReason>,
    /// The commit layer orphaned this attempt (coordinator crash under
    /// classic 2PC): cleanup must NOT run — the locks leak and the
    /// participants stay blocked, which is the observable failure mode.
    orphaned: bool,
    /// The attempt's batched-prefetch buffer (see [`crate::prefetch`]).
    fanout: ReadFanout,
}

impl<'a> AccessCtx<'a> {
    pub fn new(
        cluster: &'a Cluster,
        ticket: Arc<TxnTicket>,
        home: PartitionId,
        policy: ReadPolicy,
        fanout: ReadFanout,
    ) -> Self {
        // The attempt begins: it carries every log's term from here on, and
        // a crash that moves one refuses the attempt's appends there.
        let mut access = AccessSet::new();
        if access.terms.len() != cluster.num_partitions() {
            access.terms = vec![0; cluster.num_partitions()].into();
        }
        for (term, now) in access.terms.iter_mut().zip(cluster.log_terms()) {
            *term = now;
        }
        AccessCtx {
            cluster,
            ticket,
            home,
            access,
            policy,
            switched: false,
            dead: None,
            orphaned: false,
            fanout,
        }
    }

    pub fn txn(&self) -> TxnId {
        self.ticket.txn
    }

    /// Whether a [`ReadPolicy::SwitchOnRemote`] attempt left local mode.
    pub fn switched(&self) -> bool {
        self.switched
    }

    /// Stamp a flight-recorder event of this attempt at its coordinator.
    pub(crate) fn trace(&self, kind: TraceEventKind) {
        self.cluster
            .recorder
            .emit(Some(self.ticket.txn), Some(self.home), kind);
    }

    pub(crate) fn mark_orphaned(&mut self) {
        self.orphaned = true;
    }

    /// Whether a read of this attempt holds a lock: such an attempt *holds
    /// something* from its body on, and nothing of its worker overlaps it.
    pub(crate) fn holds_read_locks(&self) -> bool {
        self.access.reads.iter().any(|r| r.locked.is_some())
    }

    /// Whether no read of this attempt — nor of any other under its policy —
    /// takes a lock.
    pub(crate) fn reads_lock_nothing(&self) -> bool {
        self.policy == ReadPolicy::Optimistic
    }

    /// The attempt is over, this way: hand its ticket and its fan-out
    /// buffer back with the outcome (the group commit is told how it ended,
    /// and an abort's observed footprint is the retry's plan).
    pub fn finish(self, outcome: TxnResult<CommittedTxn>) -> Step<'a> {
        Step::Done((outcome, self.ticket, self.fanout))
    }

    /// The attempt is over, aborted for `reason`:
    /// [`AccessCtx::abort_cleanup`], then [`AccessCtx::finish`].
    pub fn abort(mut self, reason: AbortReason) -> Step<'a> {
        self.abort_cleanup();
        self.finish(Err(TxnError::Aborted(reason)))
    }

    /// Execution phase shared by every protocol: run the body, and abort —
    /// with the *first* reason — if it failed or swallowed a failed
    /// operation (a body that ignores an `Err` from the context must not
    /// commit the writes it buffered before it).
    pub fn run_body(&mut self, program: &dyn TxnProgram) -> TxnResult<()> {
        // A coordinator whose own partition is down starts no body at all.
        // Checked after the terms were read (`AccessCtx::new`): a crash
        // that came later moved a term the attempt carries, so whatever it
        // appends there is refused.
        if self.cluster.net.is_crashed(self.home) {
            return Err(TxnError::Aborted(AbortReason::RemoteUnavailable));
        }
        let exec = program.execute(self);
        match self.dead.or(exec.err().map(|e| e.reason())) {
            None => Ok(()),
            Some(reason) => {
                self.abort_cleanup();
                Err(TxnError::Aborted(reason))
            }
        }
    }

    /// Abort cleanup: notify the participants (one-way — no acknowledgement
    /// is needed, §4.2.2), unwind every record this attempt materialised
    /// while its locks are still held, then release every read lock. A no-op
    /// for an orphaned attempt: nobody is left alive to clean up after it.
    pub fn abort_cleanup(&mut self) {
        if self.orphaned {
            return;
        }
        let parts = self.access.participants(self.home);
        if !parts.is_empty() {
            self.cluster.net.one_way_multi(self.home, &parts);
        }
        self.access.abort_unwind(self.ticket.txn);
    }

    /// The record backing `(table, key)`, under the lifecycle visibility
    /// rules: a missing record or a tombstone is `NotFound`, another
    /// transaction's uncommitted insert a retryable conflict.
    pub fn record_visible(
        &self,
        p: PartitionId,
        table: TableId,
        key: Key,
    ) -> Result<Arc<Record>, AbortReason> {
        let slots = self.cluster.partition(p).store.table(table);
        visible(slots, key, self.ticket.txn)
    }

    /// Request a lock; a denial is traced with its holder and becomes the
    /// policy's abort reason.
    pub(crate) fn lock(
        &self,
        record: &Record,
        p: PartitionId,
        mode: LockMode,
        policy: LockPolicy,
    ) -> Result<(), AbortReason> {
        if record.acquire(self.ticket.txn, mode, policy) == LockRequestResult::Granted {
            return Ok(());
        }
        if let Some(owner) = record.lock().holder() {
            self.cluster.recorder.emit(
                Some(self.ticket.txn),
                Some(p),
                TraceEventKind::LockWait { owner },
            );
        }
        Err(lock_denied(policy))
    }

    fn fail(&mut self, reason: AbortReason) -> TxnError {
        self.dead = Some(reason);
        TxnError::Aborted(reason)
    }

    fn alive(&self) -> TxnResult<()> {
        self.dead
            .map_or(Ok(()), |reason| Err(TxnError::Aborted(reason)))
    }

    /// The lock a read takes right now, if any.
    fn read_guard(&self) -> Option<(LockMode, LockPolicy)> {
        match self.policy {
            ReadPolicy::Optimistic => None,
            ReadPolicy::Locked { mode, policy } => Some((mode, policy)),
            ReadPolicy::SwitchOnRemote { wcf } => self.switched.then_some((
                if wcf {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                },
                LockPolicy::WaitDie,
            )),
        }
    }

    /// [`ReadPolicy::SwitchOnRemote`] before the switch: plain single-node
    /// TicToc against the home store, no lock held and no message sent.
    fn local_mode(&self) -> bool {
        !self.switched && matches!(self.policy, ReadPolicy::SwitchOnRemote { .. })
    }

    /// Whether blind writes are pre-locked through dummy reads right now.
    fn dummy_reads(&self) -> bool {
        self.switched && self.policy == ReadPolicy::SwitchOnRemote { wcf: true }
    }

    /// Pay the network cost of touching `(table, key)` on remote partition
    /// `p` — unless the attempt's batched fan-out already covers it. A
    /// *value* read hits only if the record is unchanged since the fan-out; a
    /// *dummy* read (lock-only, no value consumed) hits on presence, since
    /// the exclusive lock plus the post-lock lifecycle re-check pin the live
    /// record either way. A stale or missing entry falls back to the
    /// per-record round trip; a hit on a partition that crashed since the
    /// fan-out still fails, exactly as the round trip would.
    fn charge_remote(
        &self,
        p: PartitionId,
        table: TableId,
        key: Key,
        dummy: bool,
    ) -> Result<(), AbortReason> {
        self.fanout.observe(p, table, key);
        let outcome = if !dummy {
            self.fanout.check_value(self.cluster, p, table, key)
        } else if self.fanout.covers(p, table, key) {
            PrefetchOutcome::Hit
        } else {
            PrefetchOutcome::Miss
        };
        match outcome {
            PrefetchOutcome::Hit => {
                if self.cluster.net.is_crashed(p) {
                    return Err(AbortReason::RemoteUnavailable);
                }
                self.cluster.note_prefetch_hit();
                self.trace(TraceEventKind::PrefetchHit);
                return Ok(());
            }
            PrefetchOutcome::Stale => {
                self.cluster.note_prefetch_stale();
                self.trace(TraceEventKind::PrefetchStale);
            }
            PrefetchOutcome::Miss => self.cluster.note_prefetch_miss(),
        }
        if self.cluster.net.round_trip(self.home, p) {
            Ok(())
        } else {
            Err(AbortReason::RemoteUnavailable)
        }
    }

    /// Resolve one record, guard it as the policy demands and remember it in
    /// the read set; returns the value it holds. `dummy` is the kind of the
    /// blind write a lock-only *dummy read* covers (§4.2.2 "Blind-write
    /// Handling"): always exclusive, and only an insert may create the
    /// record it pre-locks — a plain write to a missing record aborts.
    fn guarded_read(
        &mut self,
        p: PartitionId,
        table: TableId,
        key: Key,
        dummy: Option<WriteKind>,
    ) -> Result<Value, AbortReason> {
        let remote = p != self.home;
        if remote {
            self.charge_remote(p, table, key, dummy.is_some())?;
        }
        let slots = self.cluster.partition(p).store.table(table);
        let record = if dummy == Some(WriteKind::Insert) {
            claim_insert_slot(Arc::clone(slots), key, self.ticket.txn, &self.access.undo)?
        } else {
            visible(slots, key, self.ticket.txn)?
        };
        let guard = match dummy {
            Some(_) => Some((LockMode::Exclusive, LockPolicy::WaitDie)),
            None => self.read_guard(),
        };
        if let Some((mode, policy)) = guard {
            self.lock(&record, p, mode, policy)?;
            // A delete may have committed between resolution and lock
            // acquisition; the lock pins the state, so re-check it (the
            // helper also reclaims the tombstone our lock pinned).
            let kind = dummy.unwrap_or(WriteKind::Put);
            recheck_locked_record(&record, self.ticket.txn, kind, slots, key)?;
        }
        if remote && self.dummy_reads() {
            // Rule R2 (participant side): the transaction's final timestamp
            // must exceed the participant's watermark.
            record.raise_watermark_floor(self.cluster.group_commit.ts_floor(p));
        }
        let row = record.read();
        if remote && self.switched {
            self.cluster
                .group_commit
                .add_participant(&self.ticket, p, row.wts);
        }
        self.access.reads.push(ReadEntry {
            partition: p,
            table,
            key,
            record,
            wts: row.wts,
            rts: row.rts,
            locked: guard.map(|(mode, _)| mode),
            dummy: dummy.is_some(),
        });
        Ok(row.value)
    }

    /// [`ReadPolicy::SwitchOnRemote`], first access to a partition other
    /// than home: lock every record read so far and verify it has not
    /// changed since the unlocked (TicToc) read, then give the blind writes
    /// buffered while local their dummy reads. A no-op otherwise.
    fn leave_local_mode(&mut self) -> Result<(), AbortReason> {
        if !self.local_mode() {
            return Ok(());
        }
        self.switched = true;
        let (mode, policy) = self.read_guard().expect("switched reads are locked");
        for i in 0..self.access.reads.len() {
            let r = &self.access.reads[i];
            self.lock(&r.record, r.partition, mode, policy)?;
            let changed = r.record.wts() != r.wts;
            self.access.reads[i].locked = Some(mode);
            if changed {
                return Err(AbortReason::ModeSwitch);
            }
        }
        if self.dummy_reads() {
            let blind: Vec<_> = self
                .access
                .writes
                .iter()
                .filter(|w| self.access.find_read(w.partition, w.table, w.key).is_none())
                .map(|w| (w.partition, w.table, w.key, w.kind))
                .collect();
            for (p, table, key, kind) in blind {
                self.guarded_read(p, table, key, Some(kind))?;
            }
        }
        Ok(())
    }

    /// Shared body of `write` / `insert` / `delete`: buffer the entry and,
    /// where the policy pre-locks blind writes, cover it with a dummy read.
    /// The kind *after* buffering decides whether that may create the record
    /// (insert stickiness: a put over a buffered insert still refers to the
    /// record this transaction creates).
    fn buffered_write(&mut self, entry: WriteEntry) -> TxnResult<()> {
        self.alive()?;
        let (p, table, key) = (entry.partition, entry.table, entry.key);
        // A write to a remote partition makes the transaction distributed
        // even if nothing was read remotely (blind remote write).
        if p != self.home {
            self.leave_local_mode().map_err(|r| self.fail(r))?;
        }
        self.access.buffer_write(entry);
        if self.dummy_reads() && self.access.find_read(p, table, key).is_none() {
            let i = self
                .access
                .find_write(p, table, key)
                .expect("entry was just buffered");
            let kind = self.access.writes[i].kind;
            self.guarded_read(p, table, key, Some(kind))
                .map_err(|r| self.fail(r))?;
        }
        Ok(())
    }
}

impl TxnContext for AccessCtx<'_> {
    fn read(&mut self, p: PartitionId, table: TableId, key: Key) -> TxnResult<Value> {
        self.alive()?;
        // Read-your-own-writes (and your own deletes) from the buffer.
        if let Some(i) = self.access.find_write(p, table, key) {
            if self.access.writes[i].kind == WriteKind::Delete {
                return Err(self.fail(AbortReason::NotFound));
            }
            return Ok(self.access.writes[i].value.clone());
        }
        // Repeated read of the same record.
        if let Some(i) = self.access.find_read(p, table, key) {
            let e = &self.access.reads[i];
            if !e.dummy {
                return Ok(e.record.read().value);
            }
        }
        if p != self.home {
            self.leave_local_mode().map_err(|r| self.fail(r))?;
        }
        self.guarded_read(p, table, key, None)
            .map_err(|r| self.fail(r))
    }

    fn write(&mut self, p: PartitionId, table: TableId, key: Key, value: Value) -> TxnResult<()> {
        // Sticky abort first: a dead context must keep its original (often
        // retryable) reason rather than have it overwritten below.
        self.alive()?;
        // A plain write to a key this transaction deleted sees the deletion:
        // the key no longer exists, so the update aborts like any other
        // update of a missing record.
        if let Some(i) = self.access.find_write(p, table, key) {
            if self.access.writes[i].kind == WriteKind::Delete {
                return Err(self.fail(AbortReason::NotFound));
            }
        }
        self.buffered_write(WriteEntry::put(p, table, key, value))
    }

    fn insert(&mut self, p: PartitionId, table: TableId, key: Key, value: Value) -> TxnResult<()> {
        // Create-if-absent: the record is created at commit (or by the dummy
        // read) instead of aborting `NotFound`. An insert over a buffered
        // delete recreates the key (the buffer merge turns the entry back
        // into an insert).
        self.buffered_write(WriteEntry::insert(p, table, key, value))
    }

    fn delete(&mut self, p: PartitionId, table: TableId, key: Key) -> TxnResult<()> {
        self.alive()?;
        if let Some(i) = self.access.find_write(p, table, key) {
            match self.access.writes[i].kind {
                // Deleting a key this transaction inserted cancels the
                // insert: the key never becomes visible. A record already
                // materialised for it (dummy read) is unlinked by the
                // commit epilogue's undo pass, since nothing installs it.
                WriteKind::Insert => {
                    self.access.writes.remove(i);
                    return Ok(());
                }
                // The key is already gone from this transaction's view.
                WriteKind::Delete => return Err(self.fail(AbortReason::NotFound)),
                WriteKind::Put => {
                    self.access.writes[i] = WriteEntry::delete(p, table, key);
                    return Ok(());
                }
            }
        }
        // A fresh delete is a blind write that must observe an existing
        // record: a dummy read pre-locks it (and aborts `NotFound` if it is
        // missing); otherwise the commit-time resolution enforces the same.
        self.buffered_write(WriteEntry::delete(p, table, key))
    }
}
