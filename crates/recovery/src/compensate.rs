//! Cross-partition crash compensation: undo the installed writes of
//! crash-rolled-back transactions on *surviving* partitions.
//!
//! The group-commit schemes roll a crash back to an agreed token — a
//! watermark, an epoch, the crash instant — and report every transaction
//! above it `CrashAborted`. The *crashed* partition converges by
//! construction: its store is wiped and rebuilt from `checkpoint + bounded
//! replay`, which simply never applies the rolled-back transactions. A
//! *surviving* partition keeps its volatile store, so the writes those
//! transactions installed there must be actively undone or atomicity is
//! silently broken (Gray & Lamport: all-or-nothing across every
//! participant).
//!
//! [`compensate_partition`] walks the survivor's log for `TxnWrites`
//! entries the scheme's [`rollback_bound`](GroupCommit::rollback_bound) —
//! the same bound the crashed partition replays by — does not cover, and
//! undoes them newest-first under the records' exclusive
//! write locks using the before-images captured by
//! `runtime::durability::log_txn_writes`:
//!
//! * a put with `prev: Some(v)` restores `v`;
//! * a delete with `prev: Some(v)` revives the tombstone (or recreates the
//!   already-reclaimed slot) with `v`;
//! * an insert with `prev: None` tombstones and reclaims the record the
//!   transaction created — the same lifecycle machinery abort-time undo
//!   uses.
//!
//! Each undone transaction is then sealed with a
//! [`LogPayload::TxnRolledBack`] marker so replay, checkpoint folding and
//! log repair skip it forever: a *later* crash of the surviving partition
//! cannot resurrect what this pass undid. The marker is an ordinary
//! replicated-log record — it fans out to every replica together with the
//! write-sets it cancels, so the rollback decision is exactly as durable
//! as the data it rolls back.

use primo_common::{PartitionId, TxnId};
use primo_storage::{LifecycleState, LockMode, LockPolicy, LockRequestResult, PartitionStore};
use primo_trace::{FlightRecorder, TraceEventKind};
use primo_wal::{GroupCommit, LogPayload, ReplayBound, ReplicatedLog};

/// What one compensation pass over one surviving partition did.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompensationReport {
    /// Rolled-back transactions whose residue was undone (and sealed with a
    /// `TxnRolledBack` marker).
    pub compensated_txns: usize,
    /// Individual record writes undone.
    pub undone_writes: usize,
}

/// How often the compensation pass retries a contended record lock before
/// proceeding without it. The pass uses the oldest possible transaction id,
/// so under WAIT_DIE it always waits rather than dies; the cap only guards
/// against a lock leaked by a buggy protocol path.
const LOCK_ATTEMPTS: usize = 20;

/// Undo every crash-rolled-back transaction's residue on one surviving
/// partition and seal each with a rollback marker. `upper_cutoff` is the
/// survivor's log end captured right after the crash agreement — entries
/// past it belong to post-agreement transactions the scheme reports
/// `Committed` and must not be touched. Idempotent: transactions already
/// sealed are skipped, so compensating twice (or compensating again after a
/// second crash elsewhere) is safe.
pub fn compensate_partition(
    store: &PartitionStore,
    wal: &ReplicatedLog,
    bound: &ReplayBound,
    upper_cutoff: Option<u64>,
) -> CompensationReport {
    undo_rolled_back(
        store,
        wal,
        wal.collect_rolled_back(bound, upper_cutoff),
        None,
    )
}

/// The undo half of [`compensate_partition`]: restore before-images, unlink
/// inserts and revive deletes for an already-collected rolled-back set,
/// sealing each transaction with a rollback marker.
fn undo_rolled_back(
    store: &PartitionStore,
    wal: &ReplicatedLog,
    mut doomed: Vec<primo_wal::ReplayedTxn>,
    recorder: Option<&FlightRecorder>,
) -> CompensationReport {
    if doomed.is_empty() {
        return CompensationReport::default();
    }
    // Undo newest-first: if two rolled-back transactions wrote the same key,
    // the newer one's before-image is the older one's value, so unwinding in
    // reverse commit order lands on the oldest committed state. (No covered
    // transaction can be newer than a rolled-back one on the same key — the
    // bounds are monotone in commit order.)
    doomed.reverse();
    // The compensation pass locks with the oldest possible transaction id:
    // under WAIT_DIE it waits for in-flight holders instead of dying, and
    // no in-flight transaction can mistake it for a peer.
    let undo_txn = TxnId::new(store.partition(), 0);
    let mut report = CompensationReport::default();
    for (txn, ts, writes) in &doomed {
        for w in writes.iter().rev() {
            let table = store.table(w.table);
            let record = table.get(w.key);
            // Serialize against in-flight writers on the record. A missing
            // record (reclaimed delete) has nothing to lock.
            let locked = match &record {
                Some(r) => {
                    let mut attempts = 0;
                    loop {
                        if r.acquire(undo_txn, LockMode::Exclusive, LockPolicy::WaitDie)
                            == LockRequestResult::Granted
                        {
                            break true;
                        }
                        attempts += 1;
                        if attempts >= LOCK_ATTEMPTS {
                            // Leaked lock: restore anyway rather than leave
                            // the rolled-back value visible forever.
                            break false;
                        }
                    }
                }
                None => false,
            };
            match (&w.prev, &record) {
                // The key had a committed value before the transaction:
                // reinstate it. `revert` (not `install`) so the rolled-back
                // version is *purged* from the MVCC chain instead of pushed
                // into history where a snapshot could still read it (this
                // also revives a tombstoned record — a rolled-back delete —
                // since revert flips it `Visible`).
                (Some(prev), Some(r)) => r.revert(prev.clone(), *ts),
                // Rolled-back delete whose tombstone was already physically
                // reclaimed: recreate the slot.
                (Some(prev), None) => {
                    store.restore(w.table, w.key, prev.clone(), *ts);
                }
                // The key had no committed value (the transaction's insert
                // created or revived it): revert to a tombstone (purging the
                // rolled-back version from the chain) + reclaim, the same
                // net lifecycle a committed delete reaches.
                (None, Some(r)) => {
                    if r.state() == LifecycleState::Visible {
                        r.revert_to_tombstone(*ts);
                    }
                }
                (None, None) => {}
            }
            if let Some(r) = &record {
                if locked {
                    r.release(undo_txn);
                }
                if r.state() == LifecycleState::Tombstone {
                    table.reclaim(w.key);
                }
            }
            report.undone_writes += 1;
        }
        wal.append(LogPayload::TxnRolledBack { txn: *txn });
        report.compensated_txns += 1;
        if let Some(rec) = recorder {
            rec.emit(
                Some(*txn),
                Some(store.partition()),
                TraceEventKind::Compensation {
                    writes: writes.len() as u64,
                },
            );
        }
    }
    report
}

/// Compensate every *surviving* partition after a crash: translate the
/// scheme's agreement token into each survivor's rollback bound and undo
/// the residue. Returns the total number of compensated transactions.
///
/// Two ordering guarantees keep the per-waiter verdict and the store
/// consistent:
///
/// * the survivor's log end is captured as an **upper cutoff** right after
///   the agreement — every rolled-back transaction's entries are below it
///   (write-sets are logged before `txn_committed`, and a waiter registered
///   before the agreement is exactly one whose entries predate it), while
///   entries appended later belong to post-agreement transactions the
///   scheme reports `Committed` and are never touched;
/// * the scheme is told the sealed set
///   ([`GroupCommit::on_txns_rolled_back`]) **before** the first
///   before-image is restored, so a waiter that registered after the
///   agreement but logged before it is reported `CrashAborted`, never
///   `Committed`-with-undone-writes.
pub fn compensate_survivors<'a>(
    partitions: impl Iterator<Item = (PartitionId, &'a PartitionStore, &'a ReplicatedLog)>,
    gc: &dyn GroupCommit,
    crash_token: primo_common::Ts,
    recorder: Option<&FlightRecorder>,
) -> usize {
    let mut compensated = 0;
    for (_, store, wal) in partitions {
        let cutoff = wal.end_lsn();
        let bound = gc.rollback_bound(crash_token, wal);
        let doomed = wal.collect_rolled_back(&bound, Some(cutoff));
        if doomed.is_empty() {
            continue;
        }
        let ids: Vec<TxnId> = doomed.iter().map(|(txn, _, _)| *txn).collect();
        gc.on_txns_rolled_back(&ids);
        compensated += undo_rolled_back(store, wal, doomed, recorder).compensated_txns;
    }
    compensated
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::{TableId, Value};
    use primo_wal::LoggedWrite;

    fn put_entry(wal: &ReplicatedLog, seq: u64, ts: u64, key: u64, value: u64, prev: Option<u64>) {
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), seq),
            ts,
            writes: vec![LoggedWrite::put(TableId(0), key, Value::from_u64(value))
                .with_prev(prev.map(Value::from_u64))],
        });
    }

    #[test]
    fn put_residue_is_restored_to_the_before_image() {
        let store = PartitionStore::new(PartitionId(0));
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        store.insert(TableId(0), 1, Value::from_u64(10));
        // Committed (covered) write, then a rolled-back one.
        put_entry(&wal, 1, 5, 1, 20, Some(10));
        store.insert(TableId(0), 1, Value::from_u64(20));
        put_entry(&wal, 2, 9, 1, 30, Some(20));
        store.insert(TableId(0), 1, Value::from_u64(30));
        let report = compensate_partition(&store, &wal, &ReplayBound::Ts(8), None);
        assert_eq!(report.compensated_txns, 1);
        assert_eq!(report.undone_writes, 1);
        assert_eq!(store.get(TableId(0), 1).unwrap().read().value.as_u64(), 20);
        assert!(wal
            .rolled_back_txns()
            .contains(&TxnId::new(PartitionId(0), 2)));
        // Idempotent: a second pass finds nothing.
        assert_eq!(
            compensate_partition(&store, &wal, &ReplayBound::Ts(8), None).compensated_txns,
            0
        );
    }

    #[test]
    fn insert_residue_is_unlinked_and_delete_residue_revived() {
        let store = PartitionStore::new(PartitionId(0));
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        // Rolled-back insert: the record exists, Visible, no before-image.
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), 1),
            ts: 9,
            writes: vec![LoggedWrite::put(TableId(0), 7, Value::from_u64(7))],
        });
        store.insert(TableId(0), 7, Value::from_u64(7));
        // Rolled-back delete whose tombstone was already reclaimed.
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), 2),
            ts: 10,
            writes: vec![LoggedWrite::delete(TableId(0), 8).with_prev(Some(Value::from_u64(88)))],
        });
        let report = compensate_partition(&store, &wal, &ReplayBound::Ts(8), None);
        assert_eq!(report.compensated_txns, 2);
        assert!(
            store.get(TableId(0), 7).is_none(),
            "insert residue unlinked"
        );
        let revived = store.get(TableId(0), 8).expect("deleted record revived");
        assert_eq!(revived.read().value.as_u64(), 88);
        assert_eq!(revived.state(), LifecycleState::Visible);
    }

    #[test]
    fn chained_rollbacks_unwind_to_the_oldest_committed_state() {
        // T1 inserts k (prev None), T2 overwrites it (prev = T1's value),
        // both rolled back: the key must end up absent.
        let store = PartitionStore::new(PartitionId(0));
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        put_entry(&wal, 1, 9, 3, 1, None);
        store.insert(TableId(0), 3, Value::from_u64(1));
        put_entry(&wal, 2, 10, 3, 2, Some(1));
        store.insert(TableId(0), 3, Value::from_u64(2));
        let report = compensate_partition(&store, &wal, &ReplayBound::Ts(8), None);
        assert_eq!(report.compensated_txns, 2);
        assert!(
            store.get(TableId(0), 3).is_none(),
            "the chain must unwind to 'never existed'"
        );
    }
}
