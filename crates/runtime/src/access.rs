//! Read/write-set bookkeeping shared by all protocol implementations.
//!
//! Every protocol needs to remember which records it read (and the TicToc /
//! version metadata it observed), which writes it buffered, which locks it
//! holds and which partitions it touched — and must be able to undo all of it
//! on abort. Keeping this in one place keeps the protocol implementations
//! focused on their actual decision logic.

use parking_lot::Mutex;
use primo_common::{AbortReason, Key, PartitionId, TableId, TxnId, Value};
use primo_storage::{InsertSlot, LifecycleState, LockMode, PartitionStore, Record, Table};
use std::cell::RefCell;
use std::sync::Arc;

/// One record read by the transaction.
#[derive(Debug, Clone)]
pub struct ReadEntry {
    pub partition: PartitionId,
    pub table: TableId,
    pub key: Key,
    pub record: Arc<Record>,
    /// Observed write timestamp (TicToc `wts`, Silo version).
    pub wts: u64,
    /// Observed read timestamp (TicToc `rts`).
    pub rts: u64,
    /// Whether the transaction holds a lock on the record, and in which mode.
    pub locked: Option<LockMode>,
    /// True if this entry is a dummy read added only to pre-lock a blind
    /// write (it adds no read-write dependency, §4.2.2).
    pub dummy: bool,
}

/// How a buffered write treats the record at install time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Update an existing record; installing against a missing record aborts
    /// the transaction (the key was never created).
    Put,
    /// Create-if-absent: the record is created at commit if it does not
    /// exist ([`TxnContext::insert`](crate::txn::TxnContext::insert)).
    Insert,
    /// Remove an existing record: install marks it a tombstone, the commit
    /// epilogue reclaims it
    /// ([`TxnContext::delete`](crate::txn::TxnContext::delete)). Deleting a
    /// missing record aborts with [`AbortReason::NotFound`].
    Delete,
}

/// One buffered write.
#[derive(Debug, Clone)]
pub struct WriteEntry {
    pub partition: PartitionId,
    pub table: TableId,
    pub key: Key,
    pub value: Value,
    pub kind: WriteKind,
}

impl WriteEntry {
    /// A plain update.
    pub fn put(partition: PartitionId, table: TableId, key: Key, value: Value) -> Self {
        WriteEntry {
            partition,
            table,
            key,
            value,
            kind: WriteKind::Put,
        }
    }

    /// A create-if-absent insert.
    pub fn insert(partition: PartitionId, table: TableId, key: Key, value: Value) -> Self {
        WriteEntry {
            partition,
            table,
            key,
            value,
            kind: WriteKind::Insert,
        }
    }

    /// A delete (the value is unused; install tombstones the record).
    pub fn delete(partition: PartitionId, table: TableId, key: Key) -> Self {
        WriteEntry {
            partition,
            table,
            key,
            value: Value::EMPTY,
            kind: WriteKind::Delete,
        }
    }
}

/// Check that `record` may be acted on by `txn`, mapping the invisible
/// lifecycle states to the abort reason every protocol shares: a tombstone is
/// a committed delete (`NotFound`, not retryable), another transaction's
/// uncommitted insert is a transient conflict (`LockConflict`, retryable).
pub fn check_visible(record: &Record, txn: TxnId) -> Result<(), AbortReason> {
    match record.state() {
        LifecycleState::Visible => Ok(()),
        LifecycleState::UncommittedInsert { owner } if owner == txn => Ok(()),
        LifecycleState::UncommittedInsert { .. } => Err(AbortReason::LockConflict),
        LifecycleState::Tombstone => Err(AbortReason::NotFound),
    }
}

/// Post-lock lifecycle re-check for a buffered write: like
/// [`check_visible`], except that an *insert* bouncing off a tombstone maps
/// to a retryable conflict rather than `NotFound` — insert is create-if-
/// absent, so it can never legitimately fail `NotFound`; the retry's
/// [`resolve_write_record`] revives or recreates the slot.
pub fn check_write_visible(
    record: &Record,
    txn: TxnId,
    kind: WriteKind,
) -> Result<(), AbortReason> {
    match check_visible(record, txn) {
        Err(AbortReason::NotFound) if kind == WriteKind::Insert => Err(AbortReason::LockConflict),
        other => other,
    }
}

/// Post-lock lifecycle re-check, shared by every path that locks a record it
/// resolved earlier (reads pass [`WriteKind::Put`]): a concurrent delete may
/// have tombstoned the record between resolution and lock acquisition. On a
/// bounce this releases `txn`'s freshly acquired lock and reclaims the
/// tombstone — our lock is exactly what made the deleter's inline reclaim
/// skip the record, so race-lost tombstones cannot accumulate.
pub fn recheck_locked_record(
    record: &Record,
    txn: TxnId,
    kind: WriteKind,
    table: &Table,
    key: Key,
) -> Result<(), AbortReason> {
    if let Err(reason) = check_write_visible(record, txn, kind) {
        record.release(txn);
        table.reclaim(key);
        return Err(reason);
    }
    Ok(())
}

/// Claim the slot an insert installs into: create or revive the record in
/// `UncommittedInsert` state (logging the undo), reuse an existing visible
/// record, or report another transaction's in-flight insert as a retryable
/// conflict. The single implementation behind both [`resolve_write_record`]
/// and Primo's dummy-read path, so insert semantics cannot drift.
pub fn claim_insert_slot(
    table: Arc<Table>,
    key: Key,
    txn: TxnId,
    undo: &UndoLog,
) -> Result<Arc<Record>, AbortReason> {
    match table.insert_slot(key, txn) {
        InsertSlot::Existing(r) => Ok(r),
        InsertSlot::Created(r) => {
            undo.record_created(table, key, Arc::clone(&r), txn);
            Ok(r)
        }
        InsertSlot::Revived(r) => {
            undo.record_revived(Arc::clone(&r), txn);
            Ok(r)
        }
        InsertSlot::Busy => Err(AbortReason::LockConflict),
    }
}

/// One reversible side effect a transaction left in a table before its
/// commit decision.
#[derive(Debug)]
enum UndoAction {
    /// An insert created this record ([`InsertSlot::Created`]); undo unlinks
    /// it from the table.
    UnlinkCreated {
        table: Arc<Table>,
        key: Key,
        record: Arc<Record>,
        owner: TxnId,
    },
    /// An insert revived this tombstoned record ([`InsertSlot::Revived`]);
    /// undo restores the tombstone.
    RestoreTombstone { record: Arc<Record>, owner: TxnId },
}

/// The undo log of one transaction attempt: every record the attempt
/// materialised (or revived) ahead of its commit decision, so an abort can
/// put the table back exactly as it was.
///
/// Uses interior mutability so install paths can append while the
/// [`AccessSet`] is borrowed immutably (the log belongs to one transaction,
/// so the mutex is uncontended).
#[derive(Debug, Default)]
pub struct UndoLog {
    actions: Mutex<Vec<UndoAction>>,
}

impl UndoLog {
    /// Record a created record (from [`InsertSlot::Created`]).
    pub fn record_created(&self, table: Arc<Table>, key: Key, record: Arc<Record>, owner: TxnId) {
        self.actions.lock().push(UndoAction::UnlinkCreated {
            table,
            key,
            record,
            owner,
        });
    }

    /// Record a revived tombstone (from [`InsertSlot::Revived`]).
    pub fn record_revived(&self, record: Arc<Record>, owner: TxnId) {
        self.actions
            .lock()
            .push(UndoAction::RestoreTombstone { record, owner });
    }

    pub fn is_empty(&self) -> bool {
        self.actions.lock().is_empty()
    }

    /// Undo every recorded effect that was never installed, newest first,
    /// and drain the log. Install flips a record `Visible`, which makes the
    /// corresponding action a no-op — so this one entry point serves both
    /// the abort path (nothing was installed: everything is unwound) and the
    /// commit epilogue (installed records survive; only inserts cancelled by
    /// a later same-transaction delete are unlinked). Idempotent.
    pub fn unwind(&self) {
        let mut actions = self.actions.lock();
        for action in actions.drain(..).rev() {
            match action {
                UndoAction::UnlinkCreated {
                    table,
                    key,
                    record,
                    owner,
                } => {
                    table.unlink_created(key, &record, owner);
                }
                UndoAction::RestoreTombstone { record, owner } => {
                    record.restore_tombstone(owner);
                }
            }
        }
    }
}

/// Resolve the record a buffered write installs into, enforcing the
/// put/insert/delete contract in one place: an insert claims the slot
/// (creating or reviving a record in `UncommittedInsert` state and logging
/// the undo), while a put or delete of a missing — or invisibly deleted —
/// record aborts with [`AbortReason::NotFound`]. Every protocol's
/// install/lock path goes through this so the semantics cannot drift between
/// protocols.
///
/// The caller must still acquire the record's exclusive lock and, for
/// records it did not just create, re-check visibility afterwards (see
/// [`check_visible`]): a record can be tombstoned between resolution and
/// lock acquisition.
pub fn resolve_write_record(
    store: &PartitionStore,
    w: &WriteEntry,
    txn: TxnId,
    undo: &UndoLog,
) -> Result<Arc<Record>, AbortReason> {
    match w.kind {
        WriteKind::Insert => claim_insert_slot(Arc::clone(store.table(w.table)), w.key, txn, undo),
        WriteKind::Put | WriteKind::Delete => match store.get(w.table, w.key) {
            Some(r) => check_visible(&r, txn).map(|()| r),
            None => Err(AbortReason::NotFound),
        },
    }
}

/// The complete access set of one transaction attempt.
///
/// Its buffers are reused: a dropped set leaves them, emptied, to the next
/// attempt its thread starts, so the access sets of a warmed-up worker never
/// grow.
#[derive(Debug)]
pub struct AccessSet {
    pub reads: Vec<ReadEntry>,
    pub writes: Vec<WriteEntry>,
    /// While the commit holds the write set locked: the record each
    /// buffered write installs into, in write order.
    pub locked: Vec<Arc<Record>>,
    /// Records materialised ahead of the commit decision; unwound on abort.
    pub undo: UndoLog,
    /// The term of every partition's log when the attempt began, indexed by
    /// partition: what its appends are fenced by
    /// ([`ReplicatedLog::append_in_term`](primo_wal::ReplicatedLog::append_in_term)).
    /// One slot per partition, reused by the thread's next attempt.
    pub terms: Box<[u64]>,
}

/// The buffers of an [`AccessSet`].
type Buffers = (
    Vec<ReadEntry>,
    Vec<WriteEntry>,
    Vec<Arc<Record>>,
    Vec<UndoAction>,
    Box<[u64]>,
);

/// A thread's emptied access-set buffers, capacity kept.
struct Spare {
    buffers: Vec<Buffers>,
    /// Sets this thread gave fresh buffers, which it does only when none
    /// are spare: the most sets it has had alive at once. It keeps no more
    /// spare than that, so the pool never holds more than the thread once
    /// used, and a thread that only drops sets made elsewhere keeps none.
    /// A Primo worker runs each attempt to its end before the next and
    /// keeps one; Sundial's overlapping vote rounds on `ycsb_hot_2pc` kept
    /// about ten.
    made: usize,
}

thread_local! {
    static SPARE: RefCell<Spare> = const {
        RefCell::new(Spare {
            buffers: Vec::new(),
            made: 0,
        })
    };
}

impl Default for AccessSet {
    fn default() -> Self {
        let spare = SPARE.try_with(|spare| {
            let mut spare = spare.try_borrow_mut().ok()?;
            let buffers = spare.buffers.pop();
            spare.made += usize::from(buffers.is_none());
            buffers
        });
        let (reads, writes, locked, undo, terms) = spare.ok().flatten().unwrap_or_default();
        AccessSet {
            reads,
            writes,
            locked,
            undo: UndoLog {
                actions: Mutex::new(undo),
            },
            terms,
        }
    }
}

impl Drop for AccessSet {
    fn drop(&mut self) {
        let mut buffers: Buffers = (
            std::mem::take(&mut self.reads),
            std::mem::take(&mut self.writes),
            std::mem::take(&mut self.locked),
            std::mem::take(self.undo.actions.get_mut()),
            std::mem::take(&mut self.terms),
        );
        buffers.0.clear();
        buffers.1.clear();
        buffers.2.clear();
        buffers.3.clear();
        let _ = SPARE.try_with(|spare| match spare.try_borrow_mut() {
            Ok(mut spare) if spare.buffers.len() < spare.made => spare.buffers.push(buffers),
            _ => {}
        });
    }
}

impl AccessSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a read entry by (partition, table, key).
    pub fn find_read(&self, partition: PartitionId, table: TableId, key: Key) -> Option<usize> {
        self.reads
            .iter()
            .position(|r| r.partition == partition && r.table == table && r.key == key)
    }

    /// Look up a buffered write by (partition, table, key).
    pub fn find_write(&self, partition: PartitionId, table: TableId, key: Key) -> Option<usize> {
        self.writes
            .iter()
            .position(|w| w.partition == partition && w.table == table && w.key == key)
    }

    /// Every key read or written (one both read and written comes twice).
    pub(crate) fn keys(&self) -> impl Iterator<Item = (PartitionId, TableId, Key)> + Clone + '_ {
        let read = self.reads.iter().map(|r| (r.partition, r.table, r.key));
        read.chain(self.writes.iter().map(|w| (w.partition, w.table, w.key)))
    }

    /// Whether the transaction read or wrote `(partition, table, key)`.
    pub(crate) fn touches(&self, (partition, table, key): (PartitionId, TableId, Key)) -> bool {
        self.find_read(partition, table, key).is_some()
            || self.find_write(partition, table, key).is_some()
    }

    /// Buffer a write, overwriting a previous buffered value for the same
    /// key. Once a key is buffered as an insert it stays create-if-absent:
    /// a later plain write to the same key still refers to the record this
    /// transaction is creating. An insert after a buffered delete recreates
    /// the key (delete + insert = replace); contexts reject a plain put
    /// after a delete before it reaches the buffer.
    pub fn buffer_write(&mut self, mut entry: WriteEntry) {
        if let Some(i) = self.find_write(entry.partition, entry.table, entry.key) {
            if self.writes[i].kind == WriteKind::Insert && entry.kind == WriteKind::Put {
                entry.kind = WriteKind::Insert;
            }
            self.writes[i] = entry;
        } else {
            self.writes.push(entry);
        }
    }

    /// Unwind every record this attempt materialised and release every lock
    /// it holds — the table-state part of an abort. Unwinding runs first so
    /// no other transaction can claim a created record's slot between its
    /// lock release and its unlink.
    pub fn abort_unwind(&mut self, txn: TxnId) {
        self.undo.unwind();
        self.release_all_locks(txn);
    }

    /// Remote partitions involved, i.e. everything other than `home`.
    pub fn participants(&self, home: PartitionId) -> Vec<PartitionId> {
        let mut out: Vec<PartitionId> = Vec::new();
        for p in self
            .reads
            .iter()
            .map(|r| r.partition)
            .chain(self.writes.iter().map(|w| w.partition))
        {
            if p != home && !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }

    /// Whether the transaction touched a partition other than `home`.
    pub fn is_distributed(&self, home: PartitionId) -> bool {
        !self.participants(home).is_empty()
    }

    /// Number of record operations performed (non-dummy reads plus writes).
    pub fn ops(&self) -> usize {
        self.reads.iter().filter(|r| !r.dummy).count() + self.writes.len()
    }

    /// Release the write locks the commit holds ([`AccessSet::locked`]).
    pub fn release_write_locks(&mut self, txn: TxnId) {
        for record in self.locked.drain(..) {
            record.release(txn);
        }
    }

    /// Release every lock recorded as held by `txn` in the read set.
    pub fn release_all_locks(&mut self, txn: TxnId) {
        for r in &mut self.reads {
            if r.locked.is_some() {
                r.record.release(txn);
                r.locked = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_storage::LockPolicy;

    fn entry(p: u32, key: Key, locked: bool) -> ReadEntry {
        ReadEntry {
            partition: PartitionId(p),
            table: TableId(0),
            key,
            record: Arc::new(Record::new(Value::from_u64(key))),
            wts: 0,
            rts: 0,
            locked: locked.then_some(LockMode::Exclusive),
            dummy: false,
        }
    }

    #[test]
    fn participants_excludes_home_and_dedups() {
        let mut a = AccessSet::new();
        a.reads.push(entry(0, 1, false));
        a.reads.push(entry(1, 2, false));
        a.reads.push(entry(1, 3, false));
        a.buffer_write(WriteEntry::put(
            PartitionId(2),
            TableId(0),
            9,
            Value::from_u64(0),
        ));
        let parts = a.participants(PartitionId(0));
        assert_eq!(parts, vec![PartitionId(1), PartitionId(2)]);
        assert!(a.is_distributed(PartitionId(0)));
        assert!(!AccessSet::new().is_distributed(PartitionId(0)));
    }

    #[test]
    fn buffer_write_overwrites_same_key() {
        let mut a = AccessSet::new();
        for v in [1u64, 2, 3] {
            a.buffer_write(WriteEntry::put(
                PartitionId(0),
                TableId(0),
                7,
                Value::from_u64(v),
            ));
        }
        assert_eq!(a.writes.len(), 1);
        assert_eq!(a.writes[0].value.as_u64(), 3);
        assert_eq!(a.find_write(PartitionId(0), TableId(0), 7), Some(0));
    }

    #[test]
    fn insert_kind_sticks_across_rebuffering() {
        let mut a = AccessSet::new();
        a.buffer_write(WriteEntry::insert(
            PartitionId(0),
            TableId(0),
            5,
            Value::from_u64(1),
        ));
        // A later plain write to the same key still creates the record: the
        // transaction inserted it, so the key may not exist outside the
        // write buffer.
        a.buffer_write(WriteEntry::put(
            PartitionId(0),
            TableId(0),
            5,
            Value::from_u64(2),
        ));
        assert_eq!(a.writes.len(), 1);
        assert_eq!(a.writes[0].kind, WriteKind::Insert);
        assert_eq!(a.writes[0].value.as_u64(), 2);
        // And an unrelated put stays a put.
        a.buffer_write(WriteEntry::put(
            PartitionId(0),
            TableId(0),
            6,
            Value::from_u64(3),
        ));
        assert_eq!(a.writes[1].kind, WriteKind::Put);
    }

    #[test]
    fn insert_after_delete_recreates_the_key() {
        let mut a = AccessSet::new();
        a.buffer_write(WriteEntry::delete(PartitionId(0), TableId(0), 4));
        assert_eq!(a.writes[0].kind, WriteKind::Delete);
        a.buffer_write(WriteEntry::insert(
            PartitionId(0),
            TableId(0),
            4,
            Value::from_u64(9),
        ));
        assert_eq!(a.writes.len(), 1);
        assert_eq!(a.writes[0].kind, WriteKind::Insert);
        assert_eq!(a.writes[0].value.as_u64(), 9);
    }

    #[test]
    fn resolve_enforces_the_lifecycle_contract() {
        let store = PartitionStore::new(PartitionId(0));
        store.insert(TableId(0), 1, Value::from_u64(1));
        let txn = TxnId::new(PartitionId(0), 1);
        let undo = UndoLog::default();

        // Put/Delete of a missing key: NotFound.
        for w in [
            WriteEntry::put(PartitionId(0), TableId(0), 404, Value::from_u64(0)),
            WriteEntry::delete(PartitionId(0), TableId(0), 404),
        ] {
            assert_eq!(
                resolve_write_record(&store, &w, txn, &undo).unwrap_err(),
                AbortReason::NotFound
            );
        }
        assert!(undo.is_empty());

        // Insert of a missing key creates an uncommitted record + undo entry.
        let ins = WriteEntry::insert(PartitionId(0), TableId(0), 7, Value::from_u64(7));
        let rec = resolve_write_record(&store, &ins, txn, &undo).unwrap();
        assert!(!rec.is_visible_to(TxnId::new(PartitionId(0), 2)));
        assert!(!undo.is_empty());

        // Another transaction's put/insert against that slot conflicts
        // (retryable), never silently succeeds.
        let other = TxnId::new(PartitionId(0), 2);
        let other_undo = UndoLog::default();
        let put = WriteEntry::put(PartitionId(0), TableId(0), 7, Value::from_u64(0));
        assert_eq!(
            resolve_write_record(&store, &put, other, &other_undo).unwrap_err(),
            AbortReason::LockConflict
        );
        assert_eq!(
            resolve_write_record(&store, &ins, other, &other_undo).unwrap_err(),
            AbortReason::LockConflict
        );

        // Unwinding the insert leaves the table as if it never happened.
        undo.unwind();
        assert!(store.get(TableId(0), 7).is_none());
        // ... and is idempotent.
        undo.unwind();
    }

    #[test]
    fn insert_bouncing_off_a_tombstone_is_retryable() {
        // An insert can never legitimately fail NotFound (it is create-if-
        // absent): when its resolved record gets tombstoned before the lock
        // lands, the post-lock re-check must yield a retryable conflict.
        let rec = Record::new(Value::from_u64(1));
        rec.install_tombstone(5);
        let txn = TxnId::new(PartitionId(0), 1);
        assert_eq!(
            check_write_visible(&rec, txn, WriteKind::Insert).unwrap_err(),
            AbortReason::LockConflict
        );
        // Puts and deletes of a deleted key genuinely fail NotFound.
        assert_eq!(
            check_write_visible(&rec, txn, WriteKind::Put).unwrap_err(),
            AbortReason::NotFound
        );
        assert_eq!(
            check_write_visible(&rec, txn, WriteKind::Delete).unwrap_err(),
            AbortReason::NotFound
        );
    }

    #[test]
    fn unwind_spares_installed_records() {
        let store = PartitionStore::new(PartitionId(0));
        let txn = TxnId::new(PartitionId(0), 1);
        let undo = UndoLog::default();
        let ins = WriteEntry::insert(PartitionId(0), TableId(0), 3, Value::from_u64(3));
        let rec = resolve_write_record(&store, &ins, txn, &undo).unwrap();
        rec.install(Value::from_u64(3), 5);
        // The commit epilogue unwinds the log; the installed record stays.
        undo.unwind();
        assert!(store.get(TableId(0), 3).is_some());
        assert!(rec.is_visible_to(TxnId::new(PartitionId(0), 99)));
    }

    #[test]
    fn resolve_revives_tombstones_and_undo_restores_them() {
        let store = PartitionStore::new(PartitionId(0));
        let rec = store.insert(TableId(0), 5, Value::from_u64(5));
        rec.install_tombstone(9);
        let txn = TxnId::new(PartitionId(0), 1);
        let undo = UndoLog::default();
        let ins = WriteEntry::insert(PartitionId(0), TableId(0), 5, Value::from_u64(6));
        let revived = resolve_write_record(&store, &ins, txn, &undo).unwrap();
        assert!(Arc::ptr_eq(&revived, &rec));
        assert!(revived.is_visible_to(txn));
        undo.unwind();
        assert!(!rec.is_visible_to(txn), "abort restores the tombstone");
        assert_eq!(check_visible(&rec, txn).unwrap_err(), AbortReason::NotFound);
    }

    #[test]
    fn release_all_locks_releases_only_held() {
        let txn = TxnId::new(PartitionId(0), 1);
        let mut a = AccessSet::new();
        a.reads.push(entry(0, 1, false));
        a.reads.push(entry(0, 2, false));
        // Actually acquire the lock for key 2 so release has something to do.
        a.reads[1]
            .record
            .acquire(txn, LockMode::Exclusive, LockPolicy::NoWait);
        a.reads[1].locked = Some(LockMode::Exclusive);
        a.release_all_locks(txn);
        assert!(a.reads.iter().all(|r| r.locked.is_none()));
        assert!(!a.reads[1].record.lock().is_locked());
    }
}
