//! Write-ahead logging of committed write-sets.
//!
//! Every protocol's install path funnels through [`log_txn_writes`] right
//! before it installs: the write-set is grouped by partition and appended to
//! each involved partition's [`ReplicatedLog`](primo_wal::ReplicatedLog)
//! (which fans it out to every replica) as one [`LogPayload::TxnWrites`]
//! entry.
//!
//! What is appended here leaves the log again through the commit path's
//! retention step ([`Cluster::fold_due_logs`]), which the committing thread
//! takes after the locks are released: logs fold their covered prefix into
//! the rolling checkpoint image and stay at a fixed retained size.
//!
//! Two invariants the recovery subsystem depends on:
//!
//! * **Log before results.** The append happens before the group commit is
//!   told `txn_committed`, so no scheme can cover a transaction with a
//!   watermark / epoch whose log entry does not exist yet (§5: write-sets
//!   are logged before results are returned).
//! * **Per-key log order = install order.** Callers append while still
//!   holding their exclusive write locks, and `ts` is the *finalized* commit
//!   timestamp
//!   ([`GroupCommit::finalize_commit_ts`](primo_wal::GroupCommit::finalize_commit_ts)),
//!   so replaying in commit-
//!   timestamp order reproduces exactly the installed per-key value
//!   sequence.

use crate::access::{WriteEntry, WriteKind};
use crate::cluster::Cluster;
use primo_common::{PartitionId, Ts, TxnId};
use primo_storage::{LifecycleState, Record};
use primo_trace::TraceEventKind;
use primo_wal::{LogPayload, LoggedOp, LoggedWrite};
use std::sync::Arc;

/// The committed before-image of the record a write is about to install
/// into: `Some(value)` for a `Visible` record, `None` when the key has no
/// committed value — the slot is absent (`record` is `None`), a tombstone, or
/// this transaction's own uncommitted insert (created or revived ahead of
/// the commit decision). Must be called while the write locks are held, so
/// the observed value is exactly what compensation has to restore if a crash
/// rolls the transaction back on a surviving partition.
fn before_image(record: Option<&Arc<Record>>, txn: TxnId) -> Option<primo_common::Value> {
    let record = record?;
    match record.state() {
        LifecycleState::Visible => Some(record.read().value),
        LifecycleState::UncommittedInsert { owner } => {
            debug_assert_eq!(
                owner, txn,
                "foreign uncommitted insert under our write lock"
            );
            None
        }
        LifecycleState::Tombstone => None,
    }
}

/// Append one `TxnWrites` entry per involved partition for a transaction
/// committing at `ts`. Each write comes with the record it is about to
/// install into — the one the commit path already holds locked (`None`: the
/// key has no record yet), so nothing is looked up a second time. Deletes
/// are logged as [`LoggedOp::Delete`]; puts and inserts both log the
/// installed value (replay is create-if-absent either way). Every write also
/// captures its committed before-image — the `Visible` value observed under
/// the held write lock, or `None` when the key has no committed value — so a
/// crash-abort can be compensated on surviving partitions.
///
/// The write-set is grouped by partition in a single pass (write-sets are
/// small, so group lookup is a short `Vec` scan, not a hash map), so a
/// cross-partition commit acquires each involved partition's log sequencer
/// **exactly once** — all of a partition's writes travel in one entry into
/// the leader's copy, and the follower replicas take it from there off this
/// critical section (see the append path in `primo_wal::replicated`).
pub fn log_txn_writes<'a>(
    cluster: &Cluster,
    txn: TxnId,
    ts: Ts,
    writes: impl IntoIterator<Item = (&'a WriteEntry, Option<&'a Arc<Record>>)>,
) {
    let mut groups: Vec<(PartitionId, Vec<LoggedWrite>)> = Vec::new();
    for (w, record) in writes {
        let logged = LoggedWrite {
            table: w.table,
            key: w.key,
            op: match w.kind {
                WriteKind::Delete => LoggedOp::Delete,
                WriteKind::Put | WriteKind::Insert => LoggedOp::Put(w.value.clone()),
            },
            prev: before_image(record, txn),
        };
        match groups.iter_mut().find(|(p, _)| *p == w.partition) {
            Some((_, group)) => group.push(logged),
            None => groups.push((w.partition, vec![logged])),
        }
    }
    for (partition, logged) in groups {
        let log = &cluster.partition(partition).log;
        let lsn = log.append(LogPayload::TxnWrites {
            txn,
            ts,
            writes: logged,
        });
        cluster.recorder.emit(
            Some(txn),
            Some(partition),
            TraceEventKind::WalAppend {
                lsn,
                term: log.term(),
            },
        );
    }
}

/// The crash check of a commit that spans partitions: call after
/// [`log_txn_writes`], before the first install.
///
/// A partition crash is made atomic across partitions by one compensation
/// scan of every survivor's log, taken right after the network marks the
/// partition down. A commit that already holds its locks on the dying
/// partition can still append *after* that scan: the scheme then reports it
/// `Committed`, its half on the survivor stays, its half on the crashed
/// partition is past the replay bound — half a transaction. So the commit
/// looks at its partitions' health once its write-set is in the logs. All
/// up: the append preceded the mark and therefore the scan, and compensation
/// owns the transaction from here. One down (`true`): the caller must give
/// up without installing anything; what it logged on the partitions still
/// up is sealed here with `TxnRolledBack` markers, so no replay and no fold
/// ever applies it (the crashed partition's recovery drops its own copy).
pub fn straddles_crash(
    cluster: &Cluster,
    txn: TxnId,
    home: PartitionId,
    participants: &[PartitionId],
    writes: &[WriteEntry],
) -> bool {
    let mut involved = participants.iter().chain([&home]);
    if !involved.any(|p| cluster.net.is_crashed(*p)) {
        return false;
    }
    let mut sealed: Vec<PartitionId> = Vec::new();
    for w in writes {
        if !sealed.contains(&w.partition) && !cluster.net.is_crashed(w.partition) {
            sealed.push(w.partition);
            let log = &cluster.partition(w.partition).log;
            log.append(LogPayload::TxnRolledBack { txn });
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::{PartitionId, TableId, Value};
    use primo_wal::ReplayBound;

    /// Log `writes` the way a commit path does: each with the record the
    /// store holds for its key right now.
    fn log_resolved(cluster: &Cluster, txn: TxnId, ts: Ts, writes: &[WriteEntry]) {
        let records: Vec<Option<Arc<Record>>> = writes
            .iter()
            .map(|w| cluster.partition(w.partition).store.get(w.table, w.key))
            .collect();
        let records = records.iter().map(Option::as_ref);
        log_txn_writes(cluster, txn, ts, writes.iter().zip(records));
    }

    #[test]
    fn write_sets_are_grouped_per_partition() {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let txn = cluster.next_txn_id(PartitionId(0));
        let writes = vec![
            WriteEntry::put(PartitionId(0), TableId(0), 1, Value::from_u64(1)),
            WriteEntry::delete(PartitionId(1), TableId(0), 2),
            WriteEntry::insert(PartitionId(0), TableId(1), 3, Value::from_u64(3)),
        ];
        log_resolved(&cluster, txn, 7, &writes);
        // One append per involved partition (the agents' watermark records
        // land in the same logs, so the log length cannot say it).
        let appends = cluster.recorder.merge().for_txn(txn);
        let appended_on = |p: u32| {
            let on_p = appends.for_partition(PartitionId(p));
            on_p.of_kind(|k| matches!(k, TraceEventKind::WalAppend { .. }))
                .len()
        };
        assert_eq!((appended_on(0), appended_on(1)), (1, 1));

        std::thread::sleep(std::time::Duration::from_millis(60));
        let replayed =
            cluster
                .partition(PartitionId(0))
                .log
                .replay_range(0, &ReplayBound::Ts(u64::MAX), None);
        let ours = replayed.iter().find(|(t, _, _)| *t == txn).unwrap();
        assert_eq!(ours.1, 7);
        assert_eq!(ours.2.len(), 2, "both P0 writes in one entry");
        let remote =
            cluster
                .partition(PartitionId(1))
                .log
                .replay_range(0, &ReplayBound::Ts(u64::MAX), None);
        let ours = remote.iter().find(|(t, _, _)| *t == txn).unwrap();
        assert!(matches!(ours.2[0].op, LoggedOp::Delete));
        cluster.shutdown();
    }

    #[test]
    fn before_images_capture_the_committed_value() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let p = PartitionId(0);
        cluster
            .partition(p)
            .store
            .insert(TableId(0), 1, Value::from_u64(11));
        cluster
            .partition(p)
            .store
            .insert(TableId(0), 2, Value::from_u64(22));
        let txn = cluster.next_txn_id(p);
        let writes = vec![
            WriteEntry::put(p, TableId(0), 1, Value::from_u64(100)),
            WriteEntry::delete(p, TableId(0), 2),
            WriteEntry::insert(p, TableId(0), 3, Value::from_u64(33)),
        ];
        log_resolved(&cluster, txn, 5, &writes);
        std::thread::sleep(std::time::Duration::from_millis(60));
        let replayed = cluster
            .partition(p)
            .log
            .replay_range(0, &ReplayBound::Ts(u64::MAX), None);
        let ours = &replayed.iter().find(|(t, _, _)| *t == txn).unwrap().2;
        assert_eq!(
            ours[0].prev.as_ref().unwrap().as_u64(),
            11,
            "put records the old value"
        );
        assert_eq!(
            ours[1].prev.as_ref().unwrap().as_u64(),
            22,
            "delete records the deleted value"
        );
        assert!(
            ours[2].prev.is_none(),
            "insert of a fresh key has no before-image"
        );
        cluster.shutdown();
    }

    #[test]
    fn a_commit_that_finds_a_partition_down_seals_its_survivor_entries() {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let (p0, p1) = (PartitionId(0), PartitionId(1));
        let writes = vec![
            WriteEntry::insert(p0, TableId(0), 1, Value::from_u64(1)),
            WriteEntry::insert(p1, TableId(0), 1, Value::from_u64(1)),
        ];
        let txn = cluster.next_txn_id(p0);
        log_resolved(&cluster, txn, 7, &writes);
        assert!(!straddles_crash(&cluster, txn, p0, &[p1], &writes));
        assert!(cluster.partition(p0).log.rolled_back_txns().is_empty());
        // The participant dies between the append and the install.
        cluster.net.set_crashed(p1, true);
        assert!(straddles_crash(&cluster, txn, p0, &[p1], &writes));
        assert!(cluster.partition(p0).log.rolled_back_txns().contains(&txn));
        assert!(
            cluster.partition(p1).log.rolled_back_txns().is_empty(),
            "a dead leader appends nothing; its recovery drops the entry"
        );
        cluster.shutdown();
    }

    #[test]
    fn empty_write_sets_log_nothing() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let txn = cluster.next_txn_id(PartitionId(0));
        log_resolved(&cluster, txn, 1, &[]);
        assert!(cluster.recorder.merge().for_txn(txn).is_empty());
        cluster.shutdown();
    }
}
