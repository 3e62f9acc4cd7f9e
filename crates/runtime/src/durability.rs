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
//! the rolling checkpoint image and keep what their scheme has not covered
//! yet, and a chunk or two.
//!
//! The appends are fenced: each carries the term its attempt read from the
//! log when it began (`AccessSet::terms`), and a crash that moved the term
//! since refuses it ([`Fenced`]). A refused append — or, for a commit that
//! spans partitions, a term that moved by the time its appends are done
//! ([`straddles_crash`]) — aborts the attempt before it installs anything,
//! with what it logged elsewhere sealed. Neither reads the network's
//! health, and a crash never waits for a late write-set.
//!
//! Two invariants the recovery subsystem depends on:
//!
//! * **Log before results.** The append happens before the group commit is
//!   told `txn_committed`, so no scheme can cover a transaction with a
//!   watermark / epoch whose log entry does not exist yet (§5: write-sets
//!   are logged before results are returned).
//! * **Per-key log order = install order.** Callers append while still
//!   holding their exclusive write locks, and `ts` is the *reserved* commit
//!   timestamp
//!   ([`GroupCommit::reserve_commit_ts`](primo_wal::GroupCommit::reserve_commit_ts)),
//!   so replaying in commit-timestamp order reproduces exactly the installed
//!   per-key value sequence.

use crate::access::{WriteEntry, WriteKind};
use crate::cluster::Cluster;
use primo_common::{PartitionId, Ts, TxnId};
use primo_storage::{LifecycleState, Record};
use primo_trace::TraceEventKind;
use primo_wal::{Fenced, LogPayload, LoggedOp, LoggedWrite};
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
/// committing at `ts`, each in the term the attempt carries for that log
/// (`terms`, indexed by partition). A refused append ends it: what went into
/// the other logs is sealed with `TxnRolledBack` markers, so no replay and
/// no fold ever applies it, and the caller gives up with nothing installed.
/// `records` gives, in the order of `writes`, the record
/// each write is about to install into — the one the commit path already
/// holds locked (`None`: the key has no record yet), so nothing is looked up
/// a second time. Deletes are logged as [`LoggedOp::Delete`]; puts and
/// inserts both log the installed value (replay is create-if-absent either
/// way). Every write also captures its committed before-image — the
/// `Visible` value observed under the held write lock, or `None` when the
/// key has no committed value — so a crash-abort can be compensated on
/// surviving partitions.
///
/// Each partition's entry is built at its first write, sized by counting
/// its writes (write-sets are small, and the check for an earlier write of
/// the same partition stops at that partition's first one), so a
/// cross-partition commit acquires each involved partition's log sequencer
/// **exactly once** — all of a partition's writes travel in one entry into
/// the leader's copy, and the follower replicas take it from there off this
/// critical section (see the append path in `primo_wal::replicated`).
pub fn log_txn_writes<'a>(
    cluster: &Cluster,
    terms: &[u64],
    txn: TxnId,
    ts: Ts,
    writes: &[WriteEntry],
    records: impl Iterator<Item = Option<&'a Arc<Record>>> + Clone,
) -> Result<(), Fenced> {
    for (i, partition) in writes.iter().map(|w| w.partition).enumerate() {
        if writes[..i].iter().any(|w| w.partition == partition) {
            continue;
        }
        let n = writes[i..]
            .iter()
            .filter(|w| w.partition == partition)
            .count();
        let mut logged = Vec::with_capacity(n);
        let own = writes.iter().zip(records.clone()).skip(i);
        for (w, record) in own.filter(|(w, _)| w.partition == partition) {
            logged.push(LoggedWrite {
                table: w.table,
                key: w.key,
                op: match w.kind {
                    WriteKind::Delete => LoggedOp::Delete,
                    WriteKind::Put | WriteKind::Insert => LoggedOp::Put(w.value.clone()),
                },
                prev: before_image(record, txn),
            });
        }
        let log = &cluster.partition(partition).log;
        let term = terms[partition.idx()];
        let payload = LogPayload::TxnWrites {
            txn,
            ts,
            writes: logged,
        };
        let Ok(lsn) = log.append_in_term(term, payload) else {
            seal(cluster, terms, txn, &writes[..i]);
            return Err(Fenced);
        };
        let appended = TraceEventKind::WalAppend { lsn, term };
        cluster.recorder.emit(Some(txn), Some(partition), appended);
    }
    Ok(())
}

/// The crash check of a commit that spans partitions: call after
/// [`log_txn_writes`], before the first install.
///
/// A partition crash is made atomic across partitions by one compensation
/// scan of every survivor's log, taken after the crashed log's fence. A
/// commit whose write-set reached the dying partition before the fence can
/// still append to a survivor *after* that scan: the scheme then reports it
/// `CrashAborted` while its half on the survivor stays — half a
/// transaction. So once its write-set is in the logs the commit looks at
/// the terms it carries for `home` and `participants`. None moved: every
/// append preceded every fence and therefore every scan, and compensation
/// owns the transaction from here. One moved (`true`): the caller must give
/// up without installing anything; what it logged on the partitions whose
/// term stands is sealed here (the crashed partition's recovery judges its
/// own copy by the scheme's bound).
pub fn straddles_crash(
    cluster: &Cluster,
    terms: &[u64],
    txn: TxnId,
    home: PartitionId,
    participants: &[PartitionId],
    writes: &[WriteEntry],
) -> bool {
    let mut involved = participants.iter().chain([&home]);
    if !involved.any(|p| moved(cluster, terms, *p)) {
        return false;
    }
    seal(cluster, terms, txn, writes);
    true
}

/// Whether a crash moved `p`'s term past the one `terms` carries.
fn moved(cluster: &Cluster, terms: &[u64], p: PartitionId) -> bool {
    cluster.partition(p).log.term() > terms[p.idx()]
}

/// Seal `txn`'s write-set in the logs of `writes` whose term stands: a
/// `TxnRolledBack` marker, a control record, which no fence refuses.
fn seal(cluster: &Cluster, terms: &[u64], txn: TxnId, writes: &[WriteEntry]) {
    for (i, w) in writes.iter().enumerate() {
        let first = !writes[..i].iter().any(|e| e.partition == w.partition);
        if first && !moved(cluster, terms, w.partition) {
            let log = &cluster.partition(w.partition).log;
            log.append(LogPayload::TxnRolledBack { txn });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::{PartitionId, TableId, Value};
    use primo_wal::ReplayBound;

    /// Log `writes` the way a commit path does, in `terms`: each with the
    /// record the store holds for its key right now.
    fn log_in(
        cluster: &Cluster,
        terms: &[u64],
        txn: TxnId,
        ts: Ts,
        writes: &[WriteEntry],
    ) -> Result<(), Fenced> {
        let records: Vec<Option<Arc<Record>>> = writes
            .iter()
            .map(|w| cluster.partition(w.partition).store.get(w.table, w.key))
            .collect();
        let records = records.iter().map(Option::as_ref);
        log_txn_writes(cluster, terms, txn, ts, writes, records)
    }

    /// [`log_in`] for an attempt that begins now.
    fn log_resolved(cluster: &Cluster, txn: TxnId, ts: Ts, writes: &[WriteEntry]) {
        let terms: Vec<u64> = cluster.log_terms().collect();
        log_in(cluster, &terms, txn, ts, writes).expect("no crash");
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
    fn a_commit_whose_participant_crashed_after_its_appends_seals_its_survivor_entries() {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let (p0, p1) = (PartitionId(0), PartitionId(1));
        let writes = vec![
            WriteEntry::insert(p0, TableId(0), 1, Value::from_u64(1)),
            WriteEntry::insert(p1, TableId(0), 1, Value::from_u64(1)),
        ];
        let txn = cluster.next_txn_id(p0);
        let terms: Vec<u64> = cluster.log_terms().collect();
        log_in(&cluster, &terms, txn, 7, &writes).unwrap();
        assert!(!straddles_crash(&cluster, &terms, txn, p0, &[p1], &writes));
        assert!(cluster.partition(p0).log.rolled_back_txns().is_empty());
        // The participant's log is fenced between the appends and the
        // install.
        cluster.partition(p1).log.fail_over(false);
        assert!(straddles_crash(&cluster, &terms, txn, p0, &[p1], &writes));
        assert!(cluster.partition(p0).log.rolled_back_txns().contains(&txn));
        assert!(
            cluster.partition(p1).log.rolled_back_txns().is_empty(),
            "a fenced log is not sealed; its recovery judges the entry"
        );
        cluster.shutdown();
    }

    #[test]
    fn a_fenced_log_refuses_the_write_set_and_the_others_are_sealed() {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let (p0, p1) = (PartitionId(0), PartitionId(1));
        let writes = vec![
            WriteEntry::insert(p0, TableId(0), 1, Value::from_u64(1)),
            WriteEntry::insert(p1, TableId(0), 1, Value::from_u64(1)),
        ];
        let txn = cluster.next_txn_id(p0);
        let terms: Vec<u64> = cluster.log_terms().collect();
        // p1 crashes after the attempt began, before it logs.
        cluster.partition(p1).log.fail_over(false);
        assert_eq!(log_in(&cluster, &terms, txn, 7, &writes), Err(Fenced));
        let logged = |p: PartitionId| {
            let entries = cluster.partition(p).log.entries_from(0);
            let ours = |e: &&primo_wal::LogEntry| match &*e.payload {
                LogPayload::TxnWrites { txn: t, .. } | LogPayload::TxnRolledBack { txn: t } => {
                    *t == txn
                }
                _ => false,
            };
            entries.iter().filter(ours).count()
        };
        assert_eq!(logged(p0), 2, "the write-set and its seal");
        assert!(cluster.partition(p0).log.rolled_back_txns().contains(&txn));
        assert_eq!(logged(p1), 0, "nothing lands past the fence");
        // An attempt that begins now carries the new term.
        let txn = cluster.next_txn_id(p0);
        let terms: Vec<u64> = cluster.log_terms().collect();
        assert_eq!(log_in(&cluster, &terms, txn, 8, &writes), Ok(()));
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
