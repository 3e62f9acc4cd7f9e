//! The one commit pipeline behind every protocol that certifies at commit
//! time: *vote round → lock write-set → reserve ts → validate reads → log →
//! install → decide → release → reclaim*.
//!
//! The skeleton is fixed; a [`CommitSpec`] names the four decisions the
//! protocols actually disagree on (after Chockler & Gotsman's multi-shot
//! commit: one skeleton, a per-protocol certification function). Primo's
//! vote-free WCF commit and Aria's deterministic commit are not instances of
//! it — neither locks nor validates at commit time — and keep code of their
//! own on top of the helpers exported here.

use crate::access::{recheck_locked_record, resolve_write_record, WriteEntry, WriteKind};
use crate::cluster::Cluster;
use crate::commit::{PrepareOutcome, PreparedAt};
use crate::context::AccessCtx;
use crate::durability::{log_txn_writes, straddles_crash};
use crate::protocol::CommittedTxn;
use primo_common::{AbortReason, PartitionId, Phase, PhaseTimers, Ts, TxnError, TxnId, TxnResult};
use primo_storage::{LockMode, LockPolicy, Record};
use primo_trace::TraceEventKind;
use std::sync::Arc;

/// Where the commit timestamp comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsRule {
    /// The protocol has no logical time: draw a sequence number above the
    /// coordinator's floor once validation passed, install as the record's
    /// next version (2PL, Silo, TAPIR).
    Sequence,
    /// TicToc: above every version read and every lease on a record written
    /// ([`reserve_lease_ts`]); install with `wts = rts = ts` (Sundial,
    /// Primo).
    Lease,
}

/// How the read set is certified once the write set is locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadValidation {
    /// Reads hold locks; there is nothing to certify (2PL).
    None,
    /// Every record read still carries the observed version and is not
    /// exclusively locked by another transaction (Silo, TAPIR).
    Unchanged,
    /// Every record read is valid at the commit timestamp already, or its
    /// lease can be renewed up to it: version unchanged and no foreign
    /// exclusive lock (Sundial, Primo). Needs [`TsRule::Lease`].
    RenewLease,
}

/// How the verdict reaches the participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Single-partition by construction: no vote round, nothing to tell.
    Local,
    /// A vote round before the locks and a decision round after the install,
    /// both through the cluster's [`AtomicCommit`](crate::commit::AtomicCommit)
    /// layer; locks are held across both.
    Round,
    /// One consolidated round: the vote round's response *is* the decision,
    /// which is only sealed afterwards (TAPIR).
    Sealed,
}

/// One protocol's commit, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitSpec {
    pub write_locks: LockPolicy,
    pub timestamp: TsRule,
    pub validation: ReadValidation,
    pub decision: Decision,
}

fn release_all(records: &[Arc<Record>], txn: TxnId) {
    for r in records {
        r.release(txn);
    }
}

/// Run the vote round through the cluster's atomic-commit layer (write-set
/// shipping + vote collection; under Paxos Commit the votes are additionally
/// logged quorum-durably), registering with the group-commit scheme every
/// participant the execution phase has not registered already.
fn prepare_round(ctx: &mut AccessCtx<'_>) -> Result<(Vec<PartitionId>, PreparedAt), AbortReason> {
    let parts = ctx.access.participants(ctx.home);
    if !parts.is_empty() {
        let registered = ctx.ticket.participants();
        for p in parts.iter().filter(|p| !registered.contains(p)) {
            ctx.cluster.group_commit.add_participant(ctx.ticket, *p, 0);
        }
    }
    match ctx
        .cluster
        .atomic_commit()
        .prepare(ctx.cluster, ctx.txn(), ctx.home, &parts)
    {
        PrepareOutcome::Prepared(at) => Ok((parts, at)),
        PrepareOutcome::Aborted(reason) => Err(reason),
        PrepareOutcome::Orphaned => {
            // Classic 2PC's blocking failure: the coordinator died with the
            // votes in hand and nobody can decide — `abort_cleanup` must
            // leave the attempt's locks held, the participants stay blocked.
            ctx.mark_orphaned();
            Err(AbortReason::CoordinatorCrash)
        }
    }
}

/// Lock every write record exclusively, materialising records only for
/// `insert`-kind writes (in `UncommittedInsert` state, undo-logged in the
/// access set so an abort unlinks them again). A plain write or delete whose
/// record does not exist — or was deleted — fails `NotFound`. On any
/// failure the records this phase materialised are unwound *before* its
/// locks are released, so no other transaction can claim a created record's
/// slot in between. Returns one locked record per buffered write, in order.
fn lock_write_set(
    ctx: &AccessCtx<'_>,
    policy: LockPolicy,
) -> Result<Vec<Arc<Record>>, AbortReason> {
    let txn = ctx.txn();
    let mut locked = Vec::with_capacity(ctx.access.writes.len());
    let outcome = ctx.access.writes.iter().try_for_each(|w| {
        let store = &ctx.cluster.partition(w.partition).store;
        let record = resolve_write_record(store, w, txn, &ctx.access.undo)?;
        ctx.lock(&record, w.partition, LockMode::Exclusive, policy)?;
        locked.push(Arc::clone(&record));
        // A concurrent delete may have tombstoned (or reclaimed) the record
        // between resolution and lock acquisition; re-check under the lock
        // (an insert bounces retryably; the helper reclaims the tombstone).
        recheck_locked_record(&record, txn, w.kind, &store.table(w.table), w.key)
    });
    match outcome {
        Ok(()) => Ok(locked),
        Err(reason) => {
            ctx.access.undo.unwind();
            release_all(&locked, txn);
            Err(reason)
        }
    }
}

/// The TicToc commit timestamp (Algorithm 1 line 17): above the version of
/// every record read and above the lease of every record in `written`,
/// reserved with the group-commit scheme — which applies the watermark floor
/// (rule R2, coordinator side) atomically and pins the watermark below the
/// result until `txn_committed`, so the write-set about to be logged can
/// never end up below a published (durability-claiming) `Wp`.
pub fn reserve_lease_ts<'r>(
    ctx: &AccessCtx<'_>,
    written: impl Iterator<Item = &'r Arc<Record>>,
) -> Ts {
    let mut ts = 0;
    for r in ctx.access.reads.iter().filter(|r| !r.dummy) {
        ts = ts.max(r.wts);
    }
    for record in written {
        ts = ts.max(record.timestamps().1 + 1);
    }
    let ts = ctx.cluster.group_commit.reserve_commit_ts(ctx.ticket, ts);
    ctx.trace(TraceEventKind::CommitTsReserved { ts });
    ts
}

/// Certify the read set under `rule` (`lease` is the reserved timestamp of
/// [`TsRule::Lease`]).
fn validate_reads(
    ctx: &AccessCtx<'_>,
    rule: ReadValidation,
    lease: Option<Ts>,
) -> Result<(), AbortReason> {
    let renew = (rule == ReadValidation::RenewLease)
        .then(|| lease.expect("RenewLease certifies against a Lease timestamp"));
    for r in &ctx.access.reads {
        if renew.is_some_and(|ts| r.rts >= ts) {
            continue;
        }
        let in_write_set = ctx.access.find_write(r.partition, r.table, r.key).is_some();
        if r.record.wts() != r.wts {
            return Err(AbortReason::Validation);
        }
        if !in_write_set && r.record.lock().exclusively_locked_by_other(ctx.txn()) {
            return Err(AbortReason::Validation);
        }
        if let Some(ts) = renew {
            r.record.extend_rts(ts);
        }
    }
    Ok(())
}

/// Install one buffered write into its exclusively locked record at `ts`;
/// deletes install a tombstone. The version this supersedes is left to the
/// cluster's reclamation queue.
pub fn install_write(
    cluster: &Cluster,
    record: &Arc<Record>,
    w: &WriteEntry,
    ts: Ts,
    rule: TsRule,
) {
    match (w.kind, rule) {
        (WriteKind::Delete, TsRule::Lease) => record.install_tombstone(ts),
        (WriteKind::Delete, TsRule::Sequence) => {
            record.install_tombstone_next_version_at(ts);
        }
        (_, TsRule::Lease) => record.install(w.value.clone(), ts),
        (_, TsRule::Sequence) => {
            record.install_next_version_at(w.value.clone(), ts);
        }
    }
    // (The first version of a freshly inserted record supersedes nothing.)
    if w.kind != WriteKind::Insert || record.version_chain_len() > 0 {
        cluster.note_installed(w.partition, record, ts);
    }
}

/// Post-commit pass of every commit path, once all locks are released:
/// physically reclaim the tombstones this transaction installed and unwind
/// any record that was materialised for an insert but never installed (an
/// insert cancelled by a later delete of the same key).
pub fn commit_epilogue(ctx: &AccessCtx<'_>) {
    for w in &ctx.access.writes {
        if w.kind == WriteKind::Delete {
            ctx.cluster
                .partition(w.partition)
                .store
                .table(w.table)
                .reclaim(w.key);
        }
    }
    ctx.access.undo.unwind();
}

/// Lock the write set, fix the lease timestamp and certify the reads. On
/// failure nothing this step locked or materialised is left behind.
fn certify(
    ctx: &AccessCtx<'_>,
    spec: &CommitSpec,
    timers: &mut PhaseTimers,
) -> Result<(Vec<Arc<Record>>, Option<Ts>), AbortReason> {
    let locked = timers.time(Phase::Commit, || lock_write_set(ctx, spec.write_locks))?;
    let lease = (spec.timestamp == TsRule::Lease).then(|| {
        timers.time(Phase::Timestamp, || {
            let ts = reserve_lease_ts(ctx, locked.iter());
            if spec.decision != Decision::Local {
                // The participants' group-commit entries learn the timestamp.
                ctx.cluster.group_commit.update_ts(ctx.ticket, ts);
            }
            ts
        })
    });
    if spec.validation == ReadValidation::None {
        return Ok((locked, lease));
    }
    ctx.trace(TraceEventKind::ValidationStart);
    let outcome = timers.time(Phase::Commit, || {
        validate_reads(ctx, spec.validation, lease)
    });
    ctx.trace(TraceEventKind::ValidationOutcome {
        ok: outcome.is_ok(),
        reason: outcome.err(),
    });
    if let Err(reason) = outcome {
        // Unwind materialised insert records before their locks drop so no
        // other transaction can claim the slot in between.
        ctx.access.undo.unwind();
        release_all(&locked, ctx.txn());
        return Err(reason);
    }
    Ok((locked, lease))
}

/// Commit the attempt `ctx` executed, as `spec` describes. On success the
/// write-set is logged and installed on every involved partition and every
/// lock is released; on failure every partial effect is undone, the
/// participants are told and the abort reason is returned.
pub fn commit_locked(
    ctx: &mut AccessCtx<'_>,
    spec: &CommitSpec,
    timers: &mut PhaseTimers,
) -> TxnResult<CommittedTxn> {
    let (cluster, txn, home) = (ctx.cluster, ctx.txn(), ctx.home);
    let round = match spec.decision {
        Decision::Local => None,
        Decision::Round | Decision::Sealed => {
            match timers.time(Phase::TwoPc, || prepare_round(ctx)) {
                Ok(round) => Some(round),
                Err(reason) => {
                    ctx.abort_cleanup();
                    return Err(TxnError::Aborted(reason));
                }
            }
        }
    };
    let (locked, lease) = match certify(ctx, spec, timers) {
        Ok(certified) => certified,
        Err(reason) => {
            if let Some((parts, _)) = &round {
                cluster
                    .atomic_commit()
                    .decide_abort(cluster, txn, home, parts);
            }
            ctx.abort_cleanup();
            return Err(TxnError::Aborted(reason));
        }
    };

    // Log, then install, under the locks: the log stays ahead of the store
    // and per-key log order equals install order. The sequence timestamp is
    // drawn here for the same reason; it is what the caller reports, so the
    // logged and the reported timestamp agree (recovery's replay bound
    // relies on it).
    let ops = ctx.access.ops();
    let distributed = ctx.access.is_distributed(home);
    let ts = timers.time(Phase::Commit, || {
        let ts = lease.unwrap_or_else(|| {
            let ts = cluster.group_commit.finalize_commit_ts(ctx.ticket, 0);
            ctx.trace(TraceEventKind::CommitTsReserved { ts });
            ts
        });
        let writes = ctx.access.writes.iter().zip(&locked);
        log_txn_writes(cluster, txn, ts, writes.map(|(w, r)| (w, Some(r))));
        ts
    });
    if let Some((parts, _)) = &round {
        if straddles_crash(cluster, txn, home, parts, &ctx.access.writes) {
            cluster
                .atomic_commit()
                .decide_abort(cluster, txn, home, parts);
            ctx.access.undo.unwind();
            release_all(&locked, txn);
            ctx.abort_cleanup();
            return Err(TxnError::Aborted(AbortReason::RemoteUnavailable));
        }
    }
    timers.time(Phase::Commit, || {
        for (w, record) in ctx.access.writes.iter().zip(&locked) {
            install_write(cluster, record, w, ts, spec.timestamp);
        }
    });

    if let Some((parts, prepared)) = &round {
        let commit = cluster.atomic_commit();
        timers.time(Phase::TwoPc, || match spec.decision {
            Decision::Sealed => commit.seal_commit(cluster, txn, home, parts, *prepared),
            _ => commit.decide_commit(cluster, txn, home, parts, *prepared),
        });
    }
    release_all(&locked, txn);
    ctx.access.release_all_locks(txn);
    commit_epilogue(ctx);
    Ok(CommittedTxn {
        ts,
        ops,
        distributed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ReadPolicy;
    use crate::prefetch::ReadFanout;
    use crate::txn::TxnContext;
    use primo_common::config::ClusterConfig;
    use primo_common::{TableId, Value};

    const P0: PartitionId = PartitionId(0);
    const T: TableId = TableId(0);

    fn setup() -> Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        for p in 0..2u32 {
            for k in 0..32u64 {
                cluster
                    .partition(PartitionId(p))
                    .store
                    .insert(T, k, Value::from_u64(k));
            }
        }
        cluster
    }

    /// Run `body` against an optimistic context of transaction `txn`.
    fn with_ctx<R>(cluster: &Cluster, txn: TxnId, body: impl FnOnce(&mut AccessCtx<'_>) -> R) -> R {
        let ticket = cluster.group_commit.begin_txn(P0, txn);
        let fanout = ReadFanout::empty();
        let mut ctx = AccessCtx::new(cluster, &ticket, P0, ReadPolicy::Optimistic, &fanout);
        let out = body(&mut ctx);
        cluster.group_commit.txn_aborted(&ticket);
        out
    }

    fn record(cluster: &Cluster, key: u64) -> Arc<Record> {
        cluster.partition(P0).store.get(T, key).unwrap()
    }

    #[test]
    fn lock_write_set_rolls_back_on_conflict() {
        let cluster = setup();
        let txn = cluster.next_txn_id(P0);
        let other = cluster.next_txn_id(P0);
        // `other` exclusively locks key 3.
        let rec3 = record(&cluster, 3);
        rec3.acquire(other, LockMode::Exclusive, LockPolicy::NoWait);
        with_ctx(&cluster, txn, |ctx| {
            ctx.write(P0, T, 2, Value::from_u64(1)).unwrap();
            ctx.write(P0, T, 3, Value::from_u64(1)).unwrap();
            let err = lock_write_set(ctx, LockPolicy::NoWait).unwrap_err();
            assert_eq!(err, AbortReason::LockConflict);
        });
        // Key 2's lock (acquired before the failure) was rolled back.
        assert!(!record(&cluster, 2).lock().is_locked());
        rec3.release(other);
        cluster.shutdown();
    }

    #[test]
    fn failed_lock_phase_unlinks_created_insert_records() {
        let cluster = setup();
        let txn = cluster.next_txn_id(P0);
        // An older transaction holds key 3 exclusively, so the write-set lock
        // phase fails *after* the insert's record was already materialised.
        let blocker = TxnId::new(P0, 0);
        let rec3 = record(&cluster, 3);
        rec3.acquire(blocker, LockMode::Exclusive, LockPolicy::NoWait);
        with_ctx(&cluster, txn, |ctx| {
            ctx.insert(P0, T, 5_000, Value::from_u64(1)).unwrap();
            ctx.write(P0, T, 3, Value::from_u64(1)).unwrap();
            let err = lock_write_set(ctx, LockPolicy::NoWait).unwrap_err();
            assert_eq!(err, AbortReason::LockConflict);
            // The failed lock phase unwinds its own materialised records
            // before releasing any lock — the phantom never outlives it.
            assert!(
                ctx.cluster.partition(P0).store.get(T, 5_000).is_none(),
                "aborted insert must leave no record behind"
            );
            ctx.abort_cleanup();
        });
        rec3.release(blocker);
        cluster.shutdown();
    }

    #[test]
    fn tombstone_bounce_aborts_and_reclaims_the_record() {
        // The delete-vs-writer race: a writer resolves the record while it
        // is still visible, then blocks on the deleter's lock (WAIT_DIE,
        // older waits); the delete commits its tombstone and releases; the
        // writer's lock finally lands on a tombstone. The post-lock re-check
        // must bounce the writer with NotFound, and — since the writer's
        // wait is exactly what a deleter's inline reclaim would have skipped
        // over — the writer reclaims the record after releasing.
        let cluster = setup();
        let older = TxnId::new(P0, 1);
        let deleter = TxnId::new(P0, 2);
        let rec = record(&cluster, 6);
        assert_eq!(
            rec.acquire(deleter, LockMode::Exclusive, LockPolicy::NoWait),
            primo_storage::LockRequestResult::Granted
        );
        // The deleter commits its tombstone and releases while the writer
        // is blocked waiting for the lock.
        let rec2 = Arc::clone(&rec);
        let release = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            rec2.install_tombstone(9);
            rec2.release(deleter);
        });
        with_ctx(&cluster, older, |ctx| {
            ctx.write(P0, T, 6, Value::from_u64(1)).unwrap();
            let err = lock_write_set(ctx, LockPolicy::WaitDie).unwrap_err();
            assert_eq!(err, AbortReason::NotFound);
            ctx.abort_cleanup();
        });
        release.join().unwrap();
        assert!(
            cluster.partition(P0).store.get(T, 6).is_none(),
            "the bounced tombstone must be physically reclaimed"
        );
        cluster.shutdown();
    }

    #[test]
    fn a_version_changed_since_the_read_fails_either_validation() {
        // Both certifying rules must notice that the record read was
        // overwritten before commit; nothing may be installed, logged or
        // left locked.
        let specs = [
            (TsRule::Sequence, ReadValidation::Unchanged),
            (TsRule::Lease, ReadValidation::RenewLease),
        ];
        for (timestamp, validation) in specs {
            let cluster = setup();
            let txn = cluster.next_txn_id(P0);
            let log_before = cluster.partition(P0).log.len();
            with_ctx(&cluster, txn, |ctx| {
                ctx.read(P0, T, 3).unwrap();
                ctx.write(P0, T, 4, Value::from_u64(99)).unwrap();
                // An external writer overwrites key 3 at a timestamp far
                // above any lease, so renewal cannot paper over it.
                record(ctx.cluster, 3).install(Value::from_u64(1_000), 1_000_000);
                let spec = CommitSpec {
                    write_locks: LockPolicy::NoWait,
                    timestamp,
                    validation,
                    decision: Decision::Local,
                };
                let err = commit_locked(ctx, &spec, &mut PhaseTimers::new()).unwrap_err();
                assert_eq!(err.reason(), AbortReason::Validation, "{validation:?}");
            });
            assert_eq!(
                record(&cluster, 4).read().value.as_u64(),
                4,
                "{validation:?}"
            );
            assert!(!record(&cluster, 4).lock().is_locked(), "{validation:?}");
            assert_eq!(cluster.partition(P0).log.len(), log_before);
            cluster.shutdown();
        }
    }
}
