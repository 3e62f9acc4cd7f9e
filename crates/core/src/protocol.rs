//! The Primo protocol: execution + commit paths (Algorithm 1 of the paper).

use crate::context::{Mode, PrimoCtx};
use primo_common::{AbortReason, Phase, PhaseTimers, Ts, TxnError, TxnId, TxnResult};
use primo_runtime::access::{recheck_locked_record, resolve_write_record, AccessSet, WriteKind};
use primo_runtime::cluster::Cluster;
use primo_runtime::commit::PrepareOutcome;
use primo_runtime::durability::log_txn_writes;
use primo_runtime::prefetch::ReadFanout;
use primo_runtime::protocol::{CommittedTxn, Protocol};
use primo_runtime::txn::TxnProgram;
use primo_storage::{LockMode, LockPolicy, LockRequestResult, Record};
use primo_trace::TraceEventKind;
use primo_wal::TxnTicket;
use std::sync::Arc;

/// Primo (optionally with WCF disabled, which is the "Primo w/o WM & WCF"
/// ablation of Fig 4b/5b: TicToc for local transactions, classic 2PL + 2PC
/// for distributed ones).
#[derive(Debug, Clone)]
pub struct PrimoProtocol {
    wcf_enabled: bool,
    label: &'static str,
    /// Distributed transactions whose declared read fraction is at or above
    /// this threshold use the 2PC fallback path (§4.3). `None` disables the
    /// fallback.
    read_heavy_fallback: Option<f64>,
}

impl PrimoProtocol {
    /// Full Primo: WCF concurrency control (pair with the watermark group
    /// commit for the complete system).
    pub fn full() -> Self {
        PrimoProtocol {
            wcf_enabled: true,
            label: "Primo",
            read_heavy_fallback: None,
        }
    }

    /// Ablation: WCF disabled — distributed transactions use shared-lock
    /// reads and a 2PC commit, local transactions still use TicToc.
    pub fn without_wcf() -> Self {
        PrimoProtocol {
            wcf_enabled: false,
            label: "Primo w/o WCF",
            read_heavy_fallback: None,
        }
    }

    /// Full Primo with the read-heavy 2PC fallback enabled at `threshold`
    /// (e.g. 0.8 per the paper's analysis).
    ///
    /// The threshold is compared against each program's declared read
    /// fraction, so it must itself be a fraction.
    ///
    /// # Panics
    /// Panics if `threshold` is NaN or outside `[0, 1]` — such a value would
    /// silently disable the fallback (or force every distributed transaction
    /// through 2PC) instead of expressing a read ratio.
    pub fn with_read_heavy_fallback(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && (0.0..=1.0).contains(&threshold),
            "read-heavy fallback threshold must be a fraction in [0, 1], got {threshold}"
        );
        PrimoProtocol {
            wcf_enabled: true,
            label: "Primo",
            read_heavy_fallback: Some(threshold),
        }
    }

    /// Override the display label (used for the ablation variants in figures).
    pub fn labeled(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    fn use_wcf_for(&self, program: &dyn TxnProgram) -> bool {
        if !self.wcf_enabled {
            return false;
        }
        match self.read_heavy_fallback {
            Some(thr) => program.read_fraction_hint() < thr,
            None => true,
        }
    }

    /// Compute the TicToc commit timestamp for the access set (Algorithm 1
    /// line 17) and reserve it with the group-commit scheme, which applies
    /// the watermark floor (rule R2, coordinator side) atomically and pins
    /// the watermark below the result until `txn_committed` — so the
    /// write-set this transaction is about to log can never end up below a
    /// published (durability-claiming) `Wp`. Assumes write records are
    /// already covered by read entries (dummy reads) in WCF mode or locked
    /// separately otherwise.
    fn compute_ts(cluster: &Cluster, ticket: &TxnTicket, access: &AccessSet) -> Ts {
        let mut ts = 0;
        for r in &access.reads {
            if !r.dummy {
                ts = ts.max(r.wts);
            }
        }
        for w in &access.writes {
            if let Some(i) = access.find_read(w.partition, w.table, w.key) {
                let (_, rts) = access.reads[i].record.timestamps();
                ts = ts.max(rts + 1);
            }
        }
        let ts = cluster.group_commit.reserve_commit_ts(ticket, ts);
        cluster.recorder.emit(
            Some(ticket.txn),
            Some(ticket.coordinator),
            TraceEventKind::CommitTsReserved { ts },
        );
        ts
    }

    /// Commit a purely local transaction with TicToc (§4.2.1).
    fn commit_local_tictoc(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        ticket: &TxnTicket,
        ctx: &mut PrimoCtx<'_>,
        timers: &mut PhaseTimers,
    ) -> TxnResult<CommittedTxn> {
        // 1. Resolve and lock the write set (abort immediately on conflict,
        //    as TicToc / Silo do). `resolved` keeps the record of every
        //    write so installation cannot race a concurrent unlink;
        //    `locked` remembers which locks this phase acquired.
        let mut resolved: Vec<Arc<Record>> = Vec::new();
        let mut locked: Vec<Arc<Record>> = Vec::new();
        let lock_result = timers.time(Phase::Commit, || {
            for w in &ctx.access.writes {
                let store = &cluster.partition(w.partition).store;
                let record = resolve_write_record(store, w, txn, &ctx.access.undo)?;
                let read = ctx.access.find_read(w.partition, w.table, w.key);
                if read.is_none_or(|i| ctx.access.reads[i].locked.is_none()) {
                    if record.acquire(txn, LockMode::Exclusive, LockPolicy::NoWait)
                        != LockRequestResult::Granted
                    {
                        if let Some(owner) = record.lock().holder() {
                            cluster.recorder.emit(
                                Some(txn),
                                Some(w.partition),
                                TraceEventKind::LockWait { owner },
                            );
                        }
                        return Err(AbortReason::Validation);
                    }
                    locked.push(Arc::clone(&record));
                    // The record may have been tombstoned between resolution
                    // and lock acquisition (an insert's bounce is retryable;
                    // the helper reclaims the tombstone our lock pinned).
                    recheck_locked_record(&record, txn, w.kind, &store.table(w.table), w.key)?;
                }
                resolved.push(record);
            }
            Ok(())
        });
        if let Err(reason) = lock_result {
            ctx.access.undo.unwind();
            for r in &locked {
                r.release(txn);
            }
            ctx.abort_cleanup();
            return Err(TxnError::Aborted(reason));
        }

        // 2. Compute and reserve the commit timestamp. The raise for
        //    blind-write records (locked above, no read entry) happens after
        //    the reservation: the watermark pin stays at the reserved
        //    (lower) value, which is conservative and therefore still sound.
        let mut ts = timers.time(Phase::Timestamp, || {
            Self::compute_ts(cluster, ticket, &ctx.access)
        });
        for r in &locked {
            let (_, rts) = r.timestamps();
            ts = ts.max(rts + 1);
        }

        // 3. Validate the read set (extend rts where needed).
        cluster
            .recorder
            .emit(Some(txn), Some(ctx.home), TraceEventKind::ValidationStart);
        let validation = timers.time(Phase::Commit, || {
            for r in &ctx.access.reads {
                if r.dummy {
                    continue;
                }
                let in_write_set = ctx.access.find_write(r.partition, r.table, r.key).is_some();
                if r.rts >= ts {
                    continue;
                }
                // Need to extend the valid interval of this record to ts.
                let (wts_now, _) = r.record.timestamps();
                if wts_now != r.wts {
                    return Err(AbortReason::Validation);
                }
                if !in_write_set && r.record.lock().exclusively_locked_by_other(txn) {
                    return Err(AbortReason::Validation);
                }
                r.record.extend_rts(ts);
            }
            Ok(())
        });
        cluster.recorder.emit(
            Some(txn),
            Some(ctx.home),
            TraceEventKind::ValidationOutcome {
                ok: validation.is_ok(),
                reason: validation.err(),
            },
        );
        if let Err(reason) = validation {
            ctx.access.undo.unwind();
            for r in &locked {
                r.release(txn);
            }
            ctx.abort_cleanup();
            return Err(TxnError::Aborted(reason));
        }

        // 4. Log the write-set (while the locks are held, so the log is
        //    ahead of the store), install the writes (deletes become
        //    tombstones) and release.
        let ops = ctx.access.ops();
        timers.time(Phase::Commit, || {
            log_txn_writes(cluster, txn, ts, &ctx.access.writes);
            for (w, record) in ctx.access.writes.iter().zip(&resolved) {
                match w.kind {
                    WriteKind::Delete => record.install_tombstone(ts),
                    _ => record.install(w.value.clone(), ts),
                }
            }
            for r in &locked {
                r.release(txn);
            }
        });
        ctx.access.release_all_locks(txn);
        Self::commit_epilogue(cluster, ctx);
        Ok(CommittedTxn {
            ts,
            ops,
            distributed: false,
        })
    }

    /// Post-commit pass shared by every commit path: physically reclaim the
    /// tombstones this transaction installed (deferred reclamation on the
    /// table shard) and unwind any record that was materialised for an
    /// insert but never installed (an insert cancelled by a later delete of
    /// the same key in this transaction).
    fn commit_epilogue(cluster: &Cluster, ctx: &mut PrimoCtx<'_>) {
        for w in &ctx.access.writes {
            if w.kind == WriteKind::Delete {
                cluster
                    .partition(w.partition)
                    .store
                    .table(w.table)
                    .reclaim(w.key);
            }
        }
        ctx.access.undo.unwind();
    }

    /// Commit a distributed transaction under WCF (Algorithm 1 commit phase):
    /// no prepare round, no possibility of conflict.
    fn commit_wcf(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        ticket: &TxnTicket,
        ctx: &mut PrimoCtx<'_>,
        timers: &mut PhaseTimers,
    ) -> TxnResult<CommittedTxn> {
        let home = ctx.home;
        let ts = timers.time(Phase::Timestamp, || {
            Self::compute_ts(cluster, ticket, &ctx.access)
        });
        cluster.group_commit.update_ts(ticket, ts);
        let ops = ctx.access.ops();
        let participants = ctx.access.participants(home);

        timers.time(Phase::Commit, || {
            // Durability first: every involved partition logs the write-set
            // while the WCF exclusive locks (taken by the dummy reads) are
            // still held. Shipping the set to the participant's log rides
            // the same one-way batch charged below.
            log_txn_writes(cluster, txn, ts, &ctx.access.writes);
            // Local part: prolong valid intervals of reads, install writes,
            // release locks — all without any communication.
            for r in &ctx.access.reads {
                if r.partition == home
                    && ctx.access.find_write(r.partition, r.table, r.key).is_none()
                {
                    r.record.extend_rts(ts);
                }
            }
            for w in &ctx.access.writes {
                if w.partition == home {
                    Self::install_write(cluster, w, ts);
                }
            }
            for r in &mut ctx.access.reads {
                if r.partition == home && r.locked.is_some() {
                    r.record.release(txn);
                    r.locked = None;
                }
            }

            // Remote part: ship the write-set (with ts) to each participant in
            // one one-way batch; no acknowledgement and no further round trip
            // is needed because the exclusive locks are already held there.
            if !participants.is_empty() {
                cluster.net.one_way_multi(home, &participants);
            }
            for p in &participants {
                for r in &ctx.access.reads {
                    if r.partition == *p
                        && ctx.access.find_write(r.partition, r.table, r.key).is_none()
                    {
                        r.record.extend_rts(ts);
                    }
                }
                for w in &ctx.access.writes {
                    if w.partition == *p {
                        Self::install_write(cluster, w, ts);
                    }
                }
                for r in &mut ctx.access.reads {
                    if r.partition == *p && r.locked.is_some() {
                        r.record.release(txn);
                        r.locked = None;
                    }
                }
            }
        });
        Self::commit_epilogue(cluster, ctx);

        Ok(CommittedTxn {
            ts,
            ops,
            distributed: true,
        })
    }

    /// Commit a distributed transaction with classic 2PC (shared-lock reads
    /// during execution): the ablation path and the read-heavy fallback.
    fn commit_2pc(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        ticket: &TxnTicket,
        ctx: &mut PrimoCtx<'_>,
        timers: &mut PhaseTimers,
    ) -> TxnResult<CommittedTxn> {
        let home = ctx.home;
        let participants = ctx.access.participants(home);

        // Prepare round through the cluster's atomic-commit layer: ship
        // write-sets, acquire exclusive locks everywhere (upgrading shared
        // read locks), wait for every participant's vote (under Paxos Commit
        // the votes are additionally logged quorum-durably).
        let prepared = match timers.time(Phase::TwoPc, || {
            cluster
                .atomic_commit()
                .prepare(cluster, txn, home, &participants)
        }) {
            PrepareOutcome::Prepared(at) => at,
            PrepareOutcome::Aborted(reason) => {
                ctx.abort_cleanup();
                return Err(TxnError::Aborted(reason));
            }
            PrepareOutcome::Orphaned => {
                // Classic 2PC's blocking failure: the coordinator died with
                // the votes in hand and nobody can decide — nothing is
                // cleaned up, the participants stay blocked on this
                // attempt's locks.
                return Err(TxnError::Aborted(AbortReason::CoordinatorCrash));
            }
        };

        let mut locked: Vec<Arc<Record>> = Vec::new();
        let lock_result = timers.time(Phase::TwoPc, || {
            for w in &ctx.access.writes {
                let store = &cluster.partition(w.partition).store;
                let record = resolve_write_record(store, w, txn, &ctx.access.undo)?;
                if record.acquire(txn, LockMode::Exclusive, LockPolicy::WaitDie)
                    != LockRequestResult::Granted
                {
                    if let Some(owner) = record.lock().holder() {
                        cluster.recorder.emit(
                            Some(txn),
                            Some(w.partition),
                            TraceEventKind::LockWait { owner },
                        );
                    }
                    return Err(AbortReason::LockConflict);
                }
                locked.push(Arc::clone(&record));
                recheck_locked_record(&record, txn, w.kind, &store.table(w.table), w.key)?;
            }
            Ok(())
        });
        if let Err(reason) = lock_result {
            ctx.access.undo.unwind();
            for r in &locked {
                r.release(txn);
            }
            // Abort decision still needs to reach the participants.
            cluster
                .atomic_commit()
                .decide_abort(cluster, txn, home, &participants);
            ctx.abort_cleanup();
            return Err(TxnError::Aborted(reason));
        }

        // Timestamp + read validation (TicToc-style, so local transactions
        // can still commit around us).
        let ts = timers.time(Phase::Timestamp, || {
            Self::compute_ts(cluster, ticket, &ctx.access)
        });
        cluster.group_commit.update_ts(ticket, ts);
        cluster
            .recorder
            .emit(Some(txn), Some(home), TraceEventKind::ValidationStart);
        let validation = timers.time(Phase::Commit, || {
            for r in &ctx.access.reads {
                if r.dummy {
                    continue;
                }
                if r.rts >= ts {
                    continue;
                }
                let (wts_now, _) = r.record.timestamps();
                if wts_now != r.wts {
                    return Err(AbortReason::Validation);
                }
                r.record.extend_rts(ts);
            }
            Ok(())
        });
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::ValidationOutcome {
                ok: validation.is_ok(),
                reason: validation.err(),
            },
        );
        if let Err(reason) = validation {
            ctx.access.undo.unwind();
            for r in &locked {
                r.release(txn);
            }
            cluster
                .atomic_commit()
                .decide_abort(cluster, txn, home, &participants);
            ctx.abort_cleanup();
            return Err(TxnError::Aborted(reason));
        }

        // Log the write-set under the locks, then install into the
        // resolved-and-locked records.
        let ops = ctx.access.ops();
        timers.time(Phase::Commit, || {
            log_txn_writes(cluster, txn, ts, &ctx.access.writes);
            for (w, record) in ctx.access.writes.iter().zip(&locked) {
                match w.kind {
                    WriteKind::Delete => record.install_tombstone(ts),
                    _ => record.install(w.value.clone(), ts),
                }
            }
        });

        // Commit round: propagate the decision, then release all locks.
        timers.time(Phase::TwoPc, || {
            cluster
                .atomic_commit()
                .decide_commit(cluster, txn, home, &participants, prepared);
        });
        for r in &locked {
            r.release(txn);
        }
        ctx.access.release_all_locks(txn);
        Self::commit_epilogue(cluster, ctx);

        Ok(CommittedTxn {
            ts,
            ops,
            distributed: true,
        })
    }

    /// WCF-mode install: the dummy read pre-locked (and, for inserts,
    /// materialised) the record, so it is fetched and written in place;
    /// deletes become tombstones.
    fn install_write(cluster: &Cluster, w: &primo_runtime::access::WriteEntry, ts: Ts) {
        let store = &cluster.partition(w.partition).store;
        let Some(record) = store.get(w.table, w.key) else {
            // Unreachable in practice: every WCF write is covered by a
            // dummy read that pinned the record under an exclusive lock.
            return;
        };
        match w.kind {
            WriteKind::Delete => record.install_tombstone(ts),
            _ => record.install(w.value.clone(), ts),
        }
    }
}

impl Protocol for PrimoProtocol {
    fn name(&self) -> &'static str {
        self.label
    }

    fn execute_once(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        program: &dyn TxnProgram,
        ticket: &TxnTicket,
        timers: &mut PhaseTimers,
        fanout: &ReadFanout,
    ) -> TxnResult<CommittedTxn> {
        let home = program.home_partition();
        let wcf = self.use_wcf_for(program);
        let mut ctx = PrimoCtx::new(cluster, ticket, txn, home, wcf).with_fanout(fanout);

        // Execution phase: run the program (reads lock per mode, writes are
        // buffered).
        let exec = timers.time(Phase::Execute, || program.execute(&mut ctx));
        if let Err(e) = exec {
            let reason = ctx.dead.unwrap_or(e.reason());
            ctx.abort_cleanup();
            return Err(TxnError::Aborted(reason));
        }
        if let Some(reason) = ctx.dead {
            ctx.abort_cleanup();
            return Err(TxnError::Aborted(reason));
        }

        match ctx.mode() {
            Mode::Local => self.commit_local_tictoc(cluster, txn, ticket, &mut ctx, timers),
            Mode::Distributed => {
                if wcf {
                    self.commit_wcf(cluster, txn, ticket, &mut ctx, timers)
                } else {
                    self.commit_2pc(cluster, txn, ticket, &mut ctx, timers)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::{PartitionId, TableId, Value};
    use primo_runtime::txn::{IncrementProgram, TxnContext};
    use primo_runtime::worker::run_single_txn;

    fn loaded_cluster(n: usize) -> Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::for_tests(n));
        for p in 0..n as u32 {
            for k in 0..64u64 {
                cluster
                    .partition(PartitionId(p))
                    .store
                    .insert(TableId(0), k, Value::from_u64(0));
            }
        }
        cluster
    }

    #[test]
    fn local_transaction_commits_and_installs() {
        let cluster = loaded_cluster(2);
        let protocol = PrimoProtocol::full();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![
                (PartitionId(0), TableId(0), 1),
                (PartitionId(0), TableId(0), 2),
            ],
        };
        run_single_txn(&cluster, &protocol, &prog).unwrap();
        assert_eq!(
            cluster
                .partition(PartitionId(0))
                .store
                .get(TableId(0), 1)
                .unwrap()
                .read()
                .value
                .as_u64(),
            1
        );
        cluster.shutdown();
    }

    #[test]
    fn distributed_transaction_commits_without_2pc_roundtrips() {
        let cluster = loaded_cluster(3);
        let protocol = PrimoProtocol::full();
        let before = cluster.net.round_trips_charged();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![
                (PartitionId(0), TableId(0), 1),
                (PartitionId(1), TableId(0), 1),
                (PartitionId(2), TableId(0), 1),
            ],
        };
        run_single_txn(&cluster, &protocol, &prog).unwrap();
        let used = cluster.net.round_trips_charged() - before;
        // One round trip per remote read; zero extra for commit.
        assert_eq!(used, 2, "WCF must not add prepare/commit round trips");
        for p in 0..3u32 {
            assert_eq!(
                cluster
                    .partition(PartitionId(p))
                    .store
                    .get(TableId(0), 1)
                    .unwrap()
                    .read()
                    .value
                    .as_u64(),
                1
            );
        }
        // All locks are released after commit.
        for p in 0..3u32 {
            assert!(!cluster
                .partition(PartitionId(p))
                .store
                .get(TableId(0), 1)
                .unwrap()
                .lock()
                .is_locked());
        }
        cluster.shutdown();
    }

    #[test]
    fn non_wcf_variant_pays_2pc_roundtrips() {
        let cluster = loaded_cluster(2);
        let protocol = PrimoProtocol::without_wcf();
        let before = cluster.net.round_trips_charged();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![
                (PartitionId(0), TableId(0), 3),
                (PartitionId(1), TableId(0), 3),
            ],
        };
        run_single_txn(&cluster, &protocol, &prog).unwrap();
        let used = cluster.net.round_trips_charged() - before;
        // 1 remote read + prepare + commit = 3 round trips.
        assert_eq!(used, 3, "2PC path must pay prepare and commit rounds");
        cluster.shutdown();
    }

    #[test]
    fn writes_carry_the_same_timestamp_on_all_partitions() {
        let cluster = loaded_cluster(2);
        let protocol = PrimoProtocol::full();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![
                (PartitionId(0), TableId(0), 7),
                (PartitionId(1), TableId(0), 7),
            ],
        };
        run_single_txn(&cluster, &protocol, &prog).unwrap();
        let (w0, r0) = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 7)
            .unwrap()
            .timestamps();
        let (w1, r1) = cluster
            .partition(PartitionId(1))
            .store
            .get(TableId(0), 7)
            .unwrap()
            .timestamps();
        assert_eq!(w0, w1);
        assert_eq!(r0, r1);
        assert!(w0 > 0);
        cluster.shutdown();
    }

    #[test]
    fn user_abort_leaves_no_effects_and_no_locks() {
        struct AbortingProgram;
        impl TxnProgram for AbortingProgram {
            fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                ctx.read(PartitionId(1), TableId(0), 9)?;
                ctx.write(PartitionId(1), TableId(0), 9, Value::from_u64(123))?;
                Err(TxnError::Aborted(AbortReason::UserAbort))
            }
            fn home_partition(&self) -> PartitionId {
                PartitionId(0)
            }
        }
        let cluster = loaded_cluster(2);
        let protocol = PrimoProtocol::full();
        let err = run_single_txn(&cluster, &protocol, &AbortingProgram).unwrap_err();
        assert_eq!(err, AbortReason::UserAbort);
        let rec = cluster
            .partition(PartitionId(1))
            .store
            .get(TableId(0), 9)
            .unwrap();
        assert_eq!(rec.read().value.as_u64(), 0, "no effects installed");
        assert!(!rec.lock().is_locked(), "locks released after user abort");
        cluster.shutdown();
    }

    #[test]
    #[should_panic(expected = "must be a fraction")]
    fn read_heavy_fallback_rejects_nan() {
        let _ = PrimoProtocol::with_read_heavy_fallback(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must be a fraction")]
    fn read_heavy_fallback_rejects_out_of_range() {
        let _ = PrimoProtocol::with_read_heavy_fallback(1.5);
    }

    #[test]
    fn read_heavy_fallback_accepts_boundary_values() {
        let _ = PrimoProtocol::with_read_heavy_fallback(0.0);
        let _ = PrimoProtocol::with_read_heavy_fallback(1.0);
        let _ = PrimoProtocol::with_read_heavy_fallback(0.8);
    }

    #[test]
    fn insert_creates_missing_record_at_commit() {
        struct InsertProgram;
        impl TxnProgram for InsertProgram {
            fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                // Key 5000 was never loaded; a distributed insert must create
                // it on the remote partition.
                ctx.read(PartitionId(1), TableId(0), 1)?;
                ctx.insert(PartitionId(1), TableId(0), 5000, Value::from_u64(42))
            }
            fn home_partition(&self) -> PartitionId {
                PartitionId(0)
            }
        }
        let cluster = loaded_cluster(2);
        run_single_txn(&cluster, &PrimoProtocol::full(), &InsertProgram).unwrap();
        assert_eq!(
            cluster
                .partition(PartitionId(1))
                .store
                .get(TableId(0), 5000)
                .unwrap()
                .read()
                .value
                .as_u64(),
            42
        );
        cluster.shutdown();
    }

    #[test]
    fn plain_write_to_missing_record_aborts_not_found() {
        struct BlindPut {
            home: PartitionId,
            target: PartitionId,
        }
        impl TxnProgram for BlindPut {
            fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                // `write` is an update: key 7777 does not exist anywhere.
                ctx.read(self.target, TableId(0), 1)?;
                ctx.write(self.target, TableId(0), 7777, Value::from_u64(1))
            }
            fn home_partition(&self) -> PartitionId {
                self.home
            }
        }
        let cluster = loaded_cluster(2);
        // Local and distributed paths must both reject the phantom update.
        for target in [PartitionId(0), PartitionId(1)] {
            let err = run_single_txn(
                &cluster,
                &PrimoProtocol::full(),
                &BlindPut {
                    home: PartitionId(0),
                    target,
                },
            )
            .unwrap_err();
            assert_eq!(err, AbortReason::NotFound, "target {target}");
            assert!(
                cluster
                    .partition(target)
                    .store
                    .get(TableId(0), 7777)
                    .is_none(),
                "phantom record must not be created on {target}"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn aborted_insert_leaves_no_phantom_record() {
        // The PR 1 correctness hole: an insert materialises its record before
        // the commit decision (dummy read in WCF mode); an abort must unlink
        // it again — locally and remotely.
        struct AbortedInsert {
            target: PartitionId,
        }
        impl TxnProgram for AbortedInsert {
            fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                ctx.read(self.target, TableId(0), 1)?;
                ctx.insert(self.target, TableId(0), 9_999, Value::from_u64(1))?;
                Err(TxnError::Aborted(AbortReason::UserAbort))
            }
            fn home_partition(&self) -> PartitionId {
                PartitionId(0)
            }
        }
        let cluster = loaded_cluster(2);
        for target in [PartitionId(0), PartitionId(1)] {
            let err = run_single_txn(&cluster, &PrimoProtocol::full(), &AbortedInsert { target })
                .unwrap_err();
            assert_eq!(err, AbortReason::UserAbort);
            assert!(
                cluster
                    .partition(target)
                    .store
                    .get(TableId(0), 9_999)
                    .is_none(),
                "aborted insert left a phantom on {target}"
            );
            // The key still does not exist: a plain put must abort NotFound.
            struct Put {
                target: PartitionId,
            }
            impl TxnProgram for Put {
                fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                    ctx.write(self.target, TableId(0), 9_999, Value::from_u64(2))
                }
                fn home_partition(&self) -> PartitionId {
                    PartitionId(0)
                }
            }
            let err =
                run_single_txn(&cluster, &PrimoProtocol::full(), &Put { target }).unwrap_err();
            assert_eq!(err, AbortReason::NotFound, "target {target}");
        }
        cluster.shutdown();
    }

    #[test]
    fn committed_delete_reclaims_the_record() {
        struct DeleteKey {
            target: PartitionId,
        }
        impl TxnProgram for DeleteKey {
            fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                // Touch a second key so the remote case is distributed.
                ctx.read(self.target, TableId(0), 1)?;
                ctx.delete(self.target, TableId(0), 7)
            }
            fn home_partition(&self) -> PartitionId {
                PartitionId(0)
            }
        }
        let cluster = loaded_cluster(2);
        for target in [PartitionId(0), PartitionId(1)] {
            run_single_txn(&cluster, &PrimoProtocol::full(), &DeleteKey { target }).unwrap();
            assert!(
                cluster.partition(target).store.get(TableId(0), 7).is_none(),
                "deleted record must be physically reclaimed on {target}"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn aborted_delete_keeps_the_record_visible() {
        struct AbortedDelete;
        impl TxnProgram for AbortedDelete {
            fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                ctx.read(PartitionId(1), TableId(0), 1)?;
                ctx.delete(PartitionId(1), TableId(0), 8)?;
                Err(TxnError::Aborted(AbortReason::UserAbort))
            }
            fn home_partition(&self) -> PartitionId {
                PartitionId(0)
            }
        }
        let cluster = loaded_cluster(2);
        let before = cluster
            .partition(PartitionId(1))
            .store
            .get(TableId(0), 8)
            .unwrap()
            .read();
        run_single_txn(&cluster, &PrimoProtocol::full(), &AbortedDelete).unwrap_err();
        let rec = cluster
            .partition(PartitionId(1))
            .store
            .get(TableId(0), 8)
            .expect("record survives the aborted delete");
        assert!(rec.is_visible_to(TxnId::new(PartitionId(0), 999_999)));
        assert_eq!(rec.read().value.as_u64(), before.value.as_u64());
        assert!(!rec.lock().is_locked());
        cluster.shutdown();
    }

    #[test]
    fn insert_then_delete_in_one_txn_is_a_no_op() {
        struct InsertDelete {
            target: PartitionId,
        }
        impl TxnProgram for InsertDelete {
            fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                // Distributed so the WCF dummy read materialises the record
                // before the delete cancels the insert.
                ctx.read(self.target, TableId(0), 1)?;
                ctx.insert(self.target, TableId(0), 8_888, Value::from_u64(1))?;
                ctx.delete(self.target, TableId(0), 8_888)
            }
            fn home_partition(&self) -> PartitionId {
                PartitionId(0)
            }
        }
        let cluster = loaded_cluster(2);
        for target in [PartitionId(0), PartitionId(1)] {
            run_single_txn(&cluster, &PrimoProtocol::full(), &InsertDelete { target }).unwrap();
            assert!(
                cluster
                    .partition(target)
                    .store
                    .get(TableId(0), 8_888)
                    .is_none(),
                "cancelled insert must leave no record behind on {target}"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn delete_then_insert_replaces_the_record() {
        struct Replace;
        impl TxnProgram for Replace {
            fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                ctx.delete(PartitionId(0), TableId(0), 3)?;
                // Reading the deleted key inside the txn sees the deletion …
                assert_eq!(
                    ctx.read(PartitionId(0), TableId(0), 3)
                        .unwrap_err()
                        .reason(),
                    AbortReason::NotFound
                );
                // … but the context must survive the buffered NotFound so the
                // insert can recreate the key.
                Err(TxnError::Aborted(AbortReason::UserAbort))
            }
            fn home_partition(&self) -> PartitionId {
                PartitionId(0)
            }
        }
        // Read-your-deletes marks the context dead; a delete+insert without
        // the probing read commits as a replace.
        struct CleanReplace;
        impl TxnProgram for CleanReplace {
            fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                ctx.delete(PartitionId(0), TableId(0), 3)?;
                ctx.insert(PartitionId(0), TableId(0), 3, Value::from_u64(777))
            }
            fn home_partition(&self) -> PartitionId {
                PartitionId(0)
            }
        }
        let cluster = loaded_cluster(1);
        run_single_txn(&cluster, &PrimoProtocol::full(), &Replace).unwrap_err();
        run_single_txn(&cluster, &PrimoProtocol::full(), &CleanReplace).unwrap();
        assert_eq!(
            cluster
                .partition(PartitionId(0))
                .store
                .get(TableId(0), 3)
                .unwrap()
                .read()
                .value
                .as_u64(),
            777
        );
        cluster.shutdown();
    }

    #[test]
    fn read_heavy_fallback_routes_to_2pc() {
        struct ReadHeavy;
        impl TxnProgram for ReadHeavy {
            fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                ctx.read(PartitionId(1), TableId(0), 1)?;
                ctx.read(PartitionId(1), TableId(0), 2)?;
                Ok(())
            }
            fn home_partition(&self) -> PartitionId {
                PartitionId(0)
            }
            fn read_fraction_hint(&self) -> f64 {
                0.95
            }
        }
        let cluster = loaded_cluster(2);
        let protocol = PrimoProtocol::with_read_heavy_fallback(0.8);
        let before = cluster.net.round_trips_charged();
        run_single_txn(&cluster, &protocol, &ReadHeavy).unwrap();
        // Fallback = 2PC path: 2 remote reads + prepare + commit = 4.
        assert_eq!(cluster.net.round_trips_charged() - before, 4);
        cluster.shutdown();
    }

    #[test]
    fn concurrent_increments_preserve_the_sum() {
        // Serializability smoke test: N concurrent transactions increment the
        // same two records (one local, one remote); the final sum must equal
        // the number of committed increments times 2.
        let cluster = loaded_cluster(2);
        let protocol = Arc::new(PrimoProtocol::full());
        let mut handles = Vec::new();
        let committed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        for w in 0..4 {
            let cluster = Arc::clone(&cluster);
            let protocol = Arc::clone(&protocol);
            let committed = Arc::clone(&committed);
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let prog = IncrementProgram {
                        home: PartitionId((w % 2) as u32),
                        accesses: vec![
                            (PartitionId(0), TableId(0), 42),
                            (PartitionId(1), TableId(0), 42),
                        ],
                    };
                    if run_single_txn(&cluster, protocol.as_ref(), &prog).is_ok() {
                        committed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                    let _ = i;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let n = committed.load(std::sync::atomic::Ordering::SeqCst);
        let v0 = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 42)
            .unwrap()
            .read()
            .value
            .as_u64();
        let v1 = cluster
            .partition(PartitionId(1))
            .store
            .get(TableId(0), 42)
            .unwrap()
            .read()
            .value
            .as_u64();
        assert_eq!(v0, n, "partition 0 counter must equal committed count");
        assert_eq!(v1, n, "partition 1 counter must equal committed count");
        cluster.shutdown();
    }
}
