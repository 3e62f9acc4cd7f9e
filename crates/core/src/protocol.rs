//! The Primo protocol: execution + commit paths (Algorithm 1 of the paper).
//!
//! Execution runs on the shared [`AccessCtx`] under
//! [`ReadPolicy::SwitchOnRemote`]. A transaction that stayed local commits
//! through the shared pipeline as plain TicToc (`LOCAL_TICTOC`); a
//! distributed one commits vote-free under WCF (`commit_wcf`, the one commit
//! routine that is Primo's own) or, with WCF off, through the pipeline with
//! a vote round (`TICTOC_2PC`).

use primo_common::{AbortReason, PartitionId, Phase, PhaseTimers, Ts, TxnError, TxnResult};
use primo_runtime::access::{AccessSet, WriteEntry};
use primo_runtime::cluster::Cluster;
use primo_runtime::context::{AccessCtx, ReadPolicy};
use primo_runtime::durability::{log_txn_writes, straddles_crash};
use primo_runtime::pipeline::{
    commit_epilogue, commit_locked, install_write, reserve_lease_ts, CommitSpec, Decision,
    ReadValidation, Step, TsRule,
};
use primo_runtime::prefetch::ReadFanout;
use primo_runtime::protocol::{CommittedTxn, Protocol};
use primo_runtime::txn::TxnProgram;
use primo_storage::{LockPolicy, Record};
use primo_wal::TxnTicket;
use std::sync::Arc;

/// A purely local transaction: TicToc (§4.2.1) — abort at once on a write
/// conflict, renew the leases of the unlocked reads.
const LOCAL_TICTOC: CommitSpec = CommitSpec {
    write_locks: LockPolicy::NoWait,
    timestamp: TsRule::Lease,
    validation: ReadValidation::RenewLease,
    decision: Decision::Local,
};

/// A distributed transaction without WCF (the ablation and the read-heavy
/// fallback): reads hold shared locks since the mode switch, the write locks
/// are taken under WAIT_DIE between a vote and a decision round, and the
/// timestamp stays TicToc so local transactions can still commit around it.
const TICTOC_2PC: CommitSpec = CommitSpec {
    write_locks: LockPolicy::WaitDie,
    decision: Decision::Round,
    ..LOCAL_TICTOC
};

/// Every buffered write with the record its (dummy) read pinned — under WCF
/// the write-set is a subset of the read-set, so that is every write.
fn pinned_writes(access: &AccessSet) -> impl Iterator<Item = (&WriteEntry, Option<&Arc<Record>>)> {
    access.writes.iter().map(|w| {
        let i = access.find_read(w.partition, w.table, w.key);
        (w, i.map(|i| &access.reads[i].record))
    })
}

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

    /// Commit a distributed transaction under WCF (Algorithm 1 commit phase):
    /// no vote round and no possibility of conflict — every record read or
    /// written is already exclusively locked, the dummy reads made
    /// write-set ⊆ read-set.
    fn commit_wcf(ctx: &mut AccessCtx<'_>, timers: &mut PhaseTimers) -> TxnResult<CommittedTxn> {
        let (cluster, txn, home) = (ctx.cluster, ctx.txn(), ctx.home);
        let access = &ctx.access;
        let ts = timers.time(Phase::Timestamp, || {
            reserve_lease_ts(ctx, pinned_writes(access).filter_map(|(_, r)| r))
        });
        cluster.group_commit.update_ts(&ctx.ticket, ts);
        let ops = access.ops();
        let participants = access.participants(home);

        // Durability first: every involved partition logs the write-set
        // while the exclusive locks are still held. Shipping the set to
        // the participant's log rides the one-way batch charged below.
        // With no vote round, this is also the only place left to notice
        // that a partition died since its records were locked.
        let straddles = timers.time(Phase::Commit, || {
            log_txn_writes(cluster, txn, ts, pinned_writes(&ctx.access));
            straddles_crash(cluster, txn, home, &participants, &ctx.access.writes)
        });
        if straddles {
            ctx.abort_cleanup();
            return Err(TxnError::Aborted(AbortReason::RemoteUnavailable));
        }
        timers.time(Phase::Commit, || {
            // Home part: prolong the valid intervals of reads, install the
            // writes, release the locks — all without any communication.
            Self::finish_partition(ctx, home, ts);
            // Remote part: ship the write-set (with ts) to each participant
            // in one one-way batch; no acknowledgement and no further round
            // trip is needed because the exclusive locks are held there.
            if !participants.is_empty() {
                cluster.net.one_way_multi(home, &participants);
            }
            for p in &participants {
                Self::finish_partition(ctx, *p, ts);
            }
        });
        commit_epilogue(ctx);
        Ok(CommittedTxn {
            ts,
            ops,
            distributed: true,
        })
    }

    /// What partition `p` does when the WCF write-set reaches it: extend the
    /// leases of the records only read, install the writes into the records
    /// their dummy reads pinned, release every lock held there.
    fn finish_partition(ctx: &mut AccessCtx<'_>, p: PartitionId, ts: Ts) {
        let (cluster, txn, access) = (ctx.cluster, ctx.txn(), &mut ctx.access);
        for r in access.reads.iter().filter(|r| r.partition == p) {
            if access.find_write(p, r.table, r.key).is_none() {
                r.record.extend_rts(ts);
            }
        }
        for w in access.writes.iter().filter(|w| w.partition == p) {
            let i = access
                .find_read(p, w.table, w.key)
                .expect("WCF: write-set is a subset of the read-set");
            install_write(cluster, &access.reads[i].record, w, ts, TsRule::Lease);
        }
        for r in access.reads.iter_mut().filter(|r| r.partition == p) {
            if r.locked.take().is_some() {
                r.record.release(txn);
            }
        }
    }
}

impl Protocol for PrimoProtocol {
    fn name(&self) -> &'static str {
        self.label
    }

    fn start<'a>(
        &self,
        cluster: &'a Cluster,
        program: &dyn TxnProgram,
        ticket: Arc<TxnTicket>,
        timers: &mut PhaseTimers,
        fanout: ReadFanout,
    ) -> Step<'a> {
        let wcf = self.use_wcf_for(program);
        let policy = ReadPolicy::SwitchOnRemote { wcf };
        let mut ctx = AccessCtx::new(cluster, ticket, program.home_partition(), policy, fanout);
        if let Err(e) = ctx.run_body(program, timers) {
            return ctx.finish(Err(e));
        }
        match (ctx.switched(), wcf) {
            (false, _) => commit_locked(ctx, &LOCAL_TICTOC, timers),
            (true, true) => {
                let outcome = Self::commit_wcf(&mut ctx, timers);
                ctx.finish(outcome)
            }
            (true, false) => commit_locked(ctx, &TICTOC_2PC, timers),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::{AbortReason, TableId, TxnError, TxnId, Value};
    use primo_runtime::txn::{IncrementProgram, TxnContext};
    use primo_runtime::worker::run_single_txn;
    use std::sync::Arc;

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
