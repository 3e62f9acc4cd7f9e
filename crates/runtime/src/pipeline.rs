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
//!
//! The pipeline never waits on the wire. It is cut at its two rounds into
//! three steps over an attempt it owns — **send the votes** → **certify, log,
//! install, send the decision** → **release** — and between two steps the
//! attempt is an [`InFlight`] value: a deadline, whether it holds locks, and
//! which keys it touched.
//! A worker puts the value aside and runs other clients; [`Step::wait_out`]
//! is the steps with the waits between them, for an attempt that holds
//! locks from its body on.

use crate::access::{
    recheck_locked_record, resolve_write_record, AccessSet, WriteEntry, WriteKind,
};
use crate::cluster::Cluster;
use crate::commit::{PrepareOutcome, PreparedAt, Round};
use crate::context::AccessCtx;
use crate::durability::{log_txn_writes, straddles_crash};
use crate::prefetch::ReadFanout;
use crate::protocol::CommittedTxn;
use primo_common::sim_time::{now_us, wait_until};
use primo_common::{AbortReason, PartitionId, Ts, TxnResult};
use primo_storage::{LockMode, LockPolicy, Record};
use primo_trace::TraceEventKind;
use primo_wal::TxnTicket;
use std::sync::Arc;
use std::time::Duration;

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
    /// A vote round before the write locks and a decision round after the
    /// install, both through the cluster's
    /// [`AtomicCommit`](crate::commit::AtomicCommit) layer; the write locks
    /// are held across the second.
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

/// How an attempt ended, and what it gives back: its ticket, to be closed,
/// and its fan-out buffer, with what the attempt observed.
pub type Ended = (TxnResult<CommittedTxn>, Arc<TxnTicket>, ReadFanout);

/// Where an attempt's commit stands, between two of its steps.
pub enum Step<'a> {
    /// The attempt is over. On success the write-set is logged and installed
    /// on every involved partition and every lock is released; on failure
    /// every partial effect is undone and the participants are told.
    Done(Ended),
    /// A round is on the wire.
    Waiting(InFlight<'a>),
}

impl Step<'_> {
    /// Sit through every wait the attempt has left — what a worker does for
    /// an attempt that holds locks from its body on.
    pub fn wait_out(mut self) -> Ended {
        loop {
            match self {
                Step::Done(ended) => return ended,
                Step::Waiting(attempt) => {
                    wait_until(attempt.ready_at_us());
                    self = attempt.resume();
                }
            }
        }
    }
}

/// An attempt whose commit waits for a round: a plain value, owning all the
/// attempt holds. [`InFlight::resume`] runs its next step once
/// [`InFlight::ready_at_us`] has passed — never before: a reply is not read
/// before it is back.
pub struct InFlight<'a> {
    ctx: AccessCtx<'a>,
    spec: CommitSpec,
    /// The participants of the rounds (home excluded).
    parts: Vec<PartitionId>,
    /// The round on the wire.
    round: Round,
    stage: Stage,
}

enum Stage {
    /// The votes are on the wire. The commit has locked nothing yet.
    Voting,
    /// Logged and installed; the decision's acknowledgements are on the
    /// wire, and the write set stays locked until they are back.
    Deciding { commit: CommittedTxn },
}

impl<'a> InFlight<'a> {
    /// When the replies of the round on the wire are back.
    pub fn ready_at_us(&self) -> u64 {
        self.round.ready_at_us()
    }

    /// Since the round on the wire was sent.
    pub fn elapsed(&self) -> Duration {
        self.round.elapsed()
    }

    /// Whether the attempt holds a lock while it waits: the write set of a
    /// deciding attempt, the locked reads of a voting one (2PL, Primo past
    /// its mode switch). An attempt that holds none can be overlapped with
    /// anything, and dropped at no cost but its ticket.
    pub fn holds_locks(&self) -> bool {
        matches!(self.stage, Stage::Deciding { .. }) || self.ctx.holds_read_locks()
    }

    /// Whether attempts like this one may hold locks side by side on one
    /// thread: the write locks are taken without waiting and no read takes
    /// one, so neither a certify nor a body can block the thread — or come
    /// out holding a lock — while another attempt's locks wait for a round.
    pub fn overlappable(&self) -> bool {
        self.spec.write_locks == LockPolicy::NoWait && self.ctx.reads_lock_nothing()
    }

    /// What the attempt read and wrote: exact, its body has run.
    pub fn access(&self) -> &AccessSet {
        &self.ctx.access
    }

    /// The replies are back: run the attempt's next step.
    pub fn resume(self) -> Step<'a> {
        let InFlight {
            mut ctx,
            spec,
            parts,
            round,
            stage,
        } = self;
        let (cluster, txn, home) = (ctx.cluster, ctx.txn(), ctx.home);
        match stage {
            Stage::Voting => {
                let layer = cluster.atomic_commit();
                match layer.votes(cluster, txn, home, &parts, round, &ctx.access.terms) {
                    PrepareOutcome::Prepared(at) => install(ctx, spec, Some((parts, at))),
                    PrepareOutcome::Aborted(reason) => ctx.abort(reason),
                    PrepareOutcome::Orphaned => {
                        // Classic 2PC's blocking failure: the coordinator died
                        // with the votes in hand and nobody can decide —
                        // `abort_cleanup` must leave the attempt's locks held,
                        // the participants stay blocked.
                        ctx.mark_orphaned();
                        ctx.abort(AbortReason::CoordinatorCrash)
                    }
                }
            }
            Stage::Deciding { commit } => {
                round.acked(cluster, txn, home);
                release(ctx, commit)
            }
        }
    }

    /// Give the attempt up while its votes fly (a stopping worker, a crashed
    /// home): nothing is locked or installed yet, so telling the participants
    /// is all there is to undo. Not for an attempt that
    /// [holds locks](InFlight::holds_locks) — that one has installed. Its
    /// ticket is the caller's to close.
    pub fn abandon(mut self) -> Arc<TxnTicket> {
        debug_assert!(matches!(self.stage, Stage::Voting), "installed");
        let (cluster, txn, home) = (self.ctx.cluster, self.ctx.txn(), self.ctx.home);
        (cluster.atomic_commit()).decide_abort(cluster, txn, home, &self.parts);
        self.ctx.abort_cleanup();
        self.ctx.ticket
    }
}

/// Send the vote round through the cluster's atomic-commit layer (write-set
/// shipping + vote collection; under Paxos Commit the votes are additionally
/// logged quorum-durably), registering with the group-commit scheme every
/// participant the execution phase has not registered already.
fn send_votes(ctx: &AccessCtx<'_>) -> (Vec<PartitionId>, Round) {
    let parts = ctx.access.participants(ctx.home);
    if !parts.is_empty() {
        let registered = ctx.ticket.participants();
        for p in parts.iter().filter(|p| !registered.contains(p)) {
            ctx.cluster.group_commit.add_participant(&ctx.ticket, *p, 0);
        }
    }
    let commit = ctx.cluster.atomic_commit();
    let round = commit.prepare(ctx.cluster, ctx.txn(), ctx.home, &parts);
    (parts, round)
}

/// Lock every write record exclusively, materialising records only for
/// `insert`-kind writes (in `UncommittedInsert` state, undo-logged in the
/// access set so an abort unlinks them again). A plain write or delete whose
/// record does not exist — or was deleted — fails `NotFound`. On any
/// failure the records this phase materialised are unwound *before* its
/// locks are released, so no other transaction can claim a created record's
/// slot in between. Leaves one locked record per buffered write, in order,
/// in [`AccessSet::locked`].
fn lock_write_set(ctx: &mut AccessCtx<'_>, policy: LockPolicy) -> Result<(), AbortReason> {
    let txn = ctx.txn();
    let mut locked = std::mem::take(&mut ctx.access.locked);
    let outcome = ctx.access.writes.iter().try_for_each(|w| {
        let store = &ctx.cluster.partition(w.partition).store;
        let record = resolve_write_record(store, w, txn, &ctx.access.undo)?;
        ctx.lock(&record, w.partition, LockMode::Exclusive, policy)?;
        locked.push(Arc::clone(&record));
        // A concurrent delete may have tombstoned (or reclaimed) the record
        // between resolution and lock acquisition; re-check under the lock
        // (an insert bounces retryably; the helper reclaims the tombstone).
        recheck_locked_record(&record, txn, w.kind, store.table(w.table), w.key)
    });
    ctx.access.locked = locked;
    if outcome.is_err() {
        ctx.access.undo.unwind();
        ctx.access.release_write_locks(txn);
    }
    outcome
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
    let began_us = now_us();
    let mut ts = 0;
    for r in ctx.access.reads.iter().filter(|r| !r.dummy) {
        ts = ts.max(r.wts);
    }
    for record in written {
        ts = ts.max(record.timestamps().1 + 1);
    }
    let ts = ctx.cluster.group_commit.reserve_commit_ts(&ctx.ticket, ts);
    let took_us = now_us() - began_us;
    ctx.trace(TraceEventKind::CommitTsReserved { ts, took_us });
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
    let superseded = match (w.kind, rule) {
        (WriteKind::Delete, TsRule::Lease) => record.install_tombstone(ts),
        (WriteKind::Delete, TsRule::Sequence) => record.install_tombstone_next_version_at(ts),
        (_, TsRule::Lease) => record.install(w.value.clone(), ts),
        (_, TsRule::Sequence) => record.install_next_version_at(w.value.clone(), ts),
    };
    // (The first version of a freshly inserted record supersedes nothing.)
    if w.kind != WriteKind::Insert || superseded {
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
fn certify(ctx: &mut AccessCtx<'_>, spec: &CommitSpec) -> Result<Option<Ts>, AbortReason> {
    lock_write_set(ctx, spec.write_locks)?;
    let lease = (spec.timestamp == TsRule::Lease).then(|| {
        let ts = reserve_lease_ts(ctx, ctx.access.locked.iter());
        if spec.decision != Decision::Local {
            // The participants' group-commit entries learn the timestamp.
            ctx.cluster.group_commit.update_ts(&ctx.ticket, ts);
        }
        ts
    });
    if spec.validation == ReadValidation::None {
        return Ok(lease);
    }
    ctx.trace(TraceEventKind::ValidationStart);
    let outcome = validate_reads(ctx, spec.validation, lease);
    ctx.trace(TraceEventKind::ValidationOutcome {
        ok: outcome.is_ok(),
        reason: outcome.err(),
    });
    if let Err(reason) = outcome {
        // Unwind materialised insert records before their locks drop so no
        // other transaction can claim the slot in between.
        let txn = ctx.txn();
        ctx.access.undo.unwind();
        ctx.access.release_write_locks(txn);
        return Err(reason);
    }
    Ok(lease)
}

/// Commit the attempt `ctx` executed, as `spec` describes: its first step.
/// A [`Decision::Local`] commit has no round and is [`Step::Done`] at once;
/// any other sends its votes and waits — also when it has nobody to ask, so
/// that whoever runs the attempt decides when it takes its first write lock.
pub fn commit_locked<'a>(ctx: AccessCtx<'a>, spec: &CommitSpec) -> Step<'a> {
    if spec.decision == Decision::Local {
        return install(ctx, *spec, None);
    }
    let (parts, round) = send_votes(&ctx);
    Step::Waiting(InFlight {
        ctx,
        spec: *spec,
        parts,
        round,
        stage: Stage::Voting,
    })
}

/// The step between the rounds: certify, log, install, send the decision.
/// `round` is the vote round this attempt went through, if it had one.
fn install<'a>(
    mut ctx: AccessCtx<'a>,
    spec: CommitSpec,
    round: Option<(Vec<PartitionId>, PreparedAt)>,
) -> Step<'a> {
    let (cluster, txn, home) = (ctx.cluster, ctx.txn(), ctx.home);
    let lease = match certify(&mut ctx, &spec) {
        Ok(lease) => lease,
        Err(reason) => {
            if let Some((parts, _)) = &round {
                cluster
                    .atomic_commit()
                    .decide_abort(cluster, txn, home, parts);
            }
            return ctx.abort(reason);
        }
    };

    // Log, then install, under the locks: the log stays ahead of the store
    // and per-key log order equals install order. The sequence timestamp is
    // drawn here for the same reason; it is what the caller reports, so the
    // logged and the reported timestamp agree (recovery's replay bound
    // relies on it).
    let ts = lease.unwrap_or_else(|| {
        let began_us = now_us();
        let ts = cluster.group_commit.reserve_commit_ts(&ctx.ticket, 0);
        let took_us = now_us() - began_us;
        ctx.trace(TraceEventKind::CommitTsReserved { ts, took_us });
        ts
    });
    let access = &ctx.access;
    let locked = access.locked.iter().map(Some);
    let logged = log_txn_writes(cluster, &access.terms, txn, ts, &access.writes, locked);
    let straddles = |(parts, _): &(Vec<PartitionId>, _)| {
        straddles_crash(cluster, &access.terms, txn, home, parts, &access.writes)
    };
    if logged.is_err() || round.as_ref().is_some_and(straddles) {
        if let Some((parts, _)) = &round {
            (cluster.atomic_commit()).decide_abort(cluster, txn, home, parts);
        }
        ctx.access.undo.unwind();
        ctx.access.release_write_locks(txn);
        return ctx.abort(AbortReason::CrashAbort);
    }
    for (w, record) in ctx.access.writes.iter().zip(&ctx.access.locked) {
        install_write(cluster, record, w, ts, spec.timestamp);
    }
    let commit = CommittedTxn {
        ts,
        ops: ctx.access.ops(),
        distributed: ctx.access.is_distributed(home),
    };

    if let Some((parts, prepared)) = round {
        let (layer, terms) = (cluster.atomic_commit(), &ctx.access.terms);
        let acks = match spec.decision {
            Decision::Sealed => {
                layer.seal_commit(cluster, txn, home, &parts, prepared, terms);
                None
            }
            _ => layer.decide_commit(cluster, txn, home, &parts, prepared, terms),
        };
        if let Some(round) = acks {
            return Step::Waiting(InFlight {
                ctx,
                spec,
                parts,
                round,
                stage: Stage::Deciding { commit },
            });
        }
    }
    release(ctx, commit)
}

/// The last step: the decision has reached everyone it must, so the locks
/// go and the attempt is committed.
fn release<'a>(mut ctx: AccessCtx<'a>, commit: CommittedTxn) -> Step<'a> {
    let txn = ctx.txn();
    ctx.access.release_write_locks(txn);
    ctx.access.release_all_locks(txn);
    commit_epilogue(&ctx);
    ctx.finish(Ok(commit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ReadPolicy;
    use crate::txn::TxnContext;
    use primo_common::config::ClusterConfig;
    use primo_common::{TableId, TxnId, Value};

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
    fn with_ctx<R>(cluster: &Cluster, txn: TxnId, body: impl FnOnce(AccessCtx<'_>) -> R) -> R {
        let ticket = cluster.group_commit.begin_txn(P0, txn);
        let (held, fanout) = (Arc::clone(&ticket), ReadFanout::empty());
        let out = body(AccessCtx::new(
            cluster,
            held,
            P0,
            ReadPolicy::Optimistic,
            fanout,
        ));
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
        with_ctx(&cluster, txn, |mut ctx| {
            ctx.write(P0, T, 2, Value::from_u64(1)).unwrap();
            ctx.write(P0, T, 3, Value::from_u64(1)).unwrap();
            let err = lock_write_set(&mut ctx, LockPolicy::NoWait).unwrap_err();
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
        with_ctx(&cluster, txn, |mut ctx| {
            ctx.insert(P0, T, 5_000, Value::from_u64(1)).unwrap();
            ctx.write(P0, T, 3, Value::from_u64(1)).unwrap();
            let err = lock_write_set(&mut ctx, LockPolicy::NoWait).unwrap_err();
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
        with_ctx(&cluster, older, |mut ctx| {
            ctx.write(P0, T, 6, Value::from_u64(1)).unwrap();
            let err = lock_write_set(&mut ctx, LockPolicy::WaitDie).unwrap_err();
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
            // (The agent's own `Wp` records land in the log every millisecond.)
            let logged = |cluster: &Cluster| {
                let entries = cluster.partition(P0).log.entries_from(0);
                let wp = |e: &&primo_wal::LogEntry| {
                    matches!(*e.payload, primo_wal::LogPayload::Watermark { .. })
                };
                entries.len() - entries.iter().filter(wp).count()
            };
            let log_before = logged(&cluster);
            with_ctx(&cluster, txn, |mut ctx| {
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
                let (outcome, ..) = commit_locked(ctx, &spec).wait_out();
                let reason = outcome.unwrap_err().reason();
                assert_eq!(reason, AbortReason::Validation, "{validation:?}");
            });
            assert_eq!(
                record(&cluster, 4).read().value.as_u64(),
                4,
                "{validation:?}"
            );
            assert!(!record(&cluster, 4).lock().is_locked(), "{validation:?}");
            assert_eq!(logged(&cluster), log_before);
            cluster.shutdown();
        }
    }
}
