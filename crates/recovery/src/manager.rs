//! The recovery manager: wipe a crashed partition's volatile store and
//! rebuild it from `rolling checkpoint image + bounded replay of the
//! retained replicated log` — surviving a lost leader disk, and handing off
//! to the deterministic successor replica when a second crash lands
//! mid-replay. The log bounds itself (see `primo_wal::replicated`), so the
//! replay is bounded too: a few retention targets' worth of entries,
//! however long the partition ran.

use primo_common::sim_time::now_us;
use primo_common::{PartitionId, Ts};
use primo_net::{PartitionHealth, SimNetwork};
use primo_storage::PartitionStore;
use primo_trace::{FlightRecorder, TraceEventKind};
use primo_wal::{GroupCommit, LogPayload, LoggedOp, ReplayedTxn, ReplicatedLog};
use std::time::Instant;

/// Everything captured at the instant a partition crashed. Recovery needs
/// the crash-time quorum-durable LSN (entries past it never reached a
/// majority of replicas and are lost) and the scheme's agreement token
/// (recovered watermark / aborted epoch / crash time) to bound replay.
#[derive(Debug, Clone, Copy)]
pub struct CrashContext {
    pub partition: PartitionId,
    /// What [`GroupCommit::on_partition_crash`] returned.
    pub token: Ts,
    /// Quorum-durable LSN of the partition's replicated log at the crash
    /// instant; `None` if nothing had reached a quorum yet. Capture
    /// **before** any leader-disk loss: every replica physically holds
    /// every appended entry, so anything quorum-durable at the crash is
    /// reproducible from the surviving copies — dropping the dead leader's
    /// vote first would misreport acknowledged history as lost.
    pub durable_lsn: Option<u64>,
    /// Simulated timestamp of the crash.
    pub crashed_at_us: u64,
}

impl CrashContext {
    /// Capture the crash-time state of one partition. Call *after* the
    /// network marked the partition crashed and the group commit agreed on
    /// the rollback point, but *before* the log's leader hand-off discards
    /// any disk (see [`CrashContext::durable_lsn`]). The horizon is read
    /// atomically with respect to checkpoint folds
    /// ([`ReplicatedLog::crash_horizon`]): the image and the retained log
    /// recovery later reads are either both before or both after any chunk.
    pub fn capture(partition: PartitionId, token: Ts, log: &ReplicatedLog) -> Self {
        CrashContext {
            partition,
            token,
            durable_lsn: log.crash_horizon(),
            crashed_at_us: now_us(),
        }
    }
}

/// What one recovery did.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    pub partition: PartitionId,
    /// Records dropped by the wipe (the volatile store at crash time).
    pub wiped_records: usize,
    /// Records restored from the checkpoint image.
    pub restored_records: usize,
    /// Committed transactions replayed from the retained durable log.
    pub replayed_txns: usize,
    /// The watermark the partition's state was re-seeded from.
    pub recovered_wp: Ts,
    /// Wall-clock recovery latency (wipe + restore + replay).
    pub duration_us: u64,
    /// Leader hand-offs observed *during* the replay: a further crash of
    /// the replacement leader bumps the log's term, and the recovery loop
    /// restarts from the deterministic successor replica.
    pub mid_replay_handoffs: usize,
    /// Replicas re-seeded from the elected leader after the replay (wiped
    /// or lagging copies brought back to full strength).
    pub repaired_replicas: usize,
    /// In-doubt transactions terminated during this recovery: commit votes
    /// that were quorum-durable at the crash with no durable resolution
    /// (decision, installed write-set, or rollback marker) are sealed with
    /// the presumed-abort verdict so every future reader agrees.
    pub in_doubt_resolved: usize,
}

/// Apply a replayed transaction sequence to a store, in order. The sequence
/// comes ts-sorted and deduplicated from
/// [`ReplicatedLog::replay_range`], so applying it twice equals applying it
/// once (puts overwrite in place, deletes of missing keys are no-ops). The
/// write-sets are read in place from the log's shared payloads.
pub fn apply_replay(store: &PartitionStore, txns: &[ReplayedTxn]) {
    for (_, ts, writes) in txns {
        for w in writes.iter() {
            match &w.op {
                LoggedOp::Put(v) => {
                    store.restore(w.table, w.key, v.clone(), *ts);
                }
                LoggedOp::Delete => {
                    store.table(w.table).remove(w.key);
                }
            }
        }
    }
}

/// Stateless recovery driver.
pub struct RecoveryManager;

impl RecoveryManager {
    /// Rebuild `store` after the crash described by `crash`:
    ///
    /// 1. flip the partition to [`PartitionHealth::Recovering`] — it stays
    ///    unreachable for the whole replay, not just the configured outage;
    /// 2. wipe the volatile store (every slot, whatever its lifecycle —
    ///    tombstones and uncommitted inserts must never resurrect, and they
    ///    cannot: checkpoints snapshot only `Visible` records and the log
    ///    only ever contains committed write-sets);
    /// 3. restore the rolling checkpoint image, if it was **quorum**-durable
    ///    *at the crash* — it survives a discarded leader disk as long as
    ///    any replica does;
    /// 4. replay the retained quorum-durable log from the image's base,
    ///    bounded by the scheme ([`GroupCommit::replay_bound`]) and by the
    ///    crash-time quorum LSN — honoring `TxnRolledBack` markers, so a
    ///    transaction this partition compensated as a *survivor* of an
    ///    earlier crash is never resurrected by its own recovery;
    /// 5. if the log's leadership term moved while replaying (a second
    ///    crash killed the replacement leader), restart from step 2 against
    ///    the deterministic successor replica;
    /// 6. repair wiped / lagging replicas from the elected leader and
    ///    re-seed the scheme's per-partition state from the recovered `Wp`
    ///    ([`GroupCommit::on_partition_recover`]);
    /// 7. only then mark the partition [`PartitionHealth::Up`].
    pub fn recover(
        store: &PartitionStore,
        log: &ReplicatedLog,
        gc: &dyn GroupCommit,
        net: &SimNetwork,
        crash: &CrashContext,
    ) -> RecoveryReport {
        Self::recover_with_fault(store, log, gc, net, crash, None, &mut || {})
    }

    /// [`RecoveryManager::recover`] with a flight recorder (each replay
    /// pass emits a [`TraceEventKind::RecoveryReplay`] event) and a
    /// fault-injection hook invoked after each replay pass, *before* the
    /// term check — tests use the hook to land a second crash
    /// deterministically mid-replay and pin the hand-off to the successor
    /// replica.
    pub fn recover_with_fault(
        store: &PartitionStore,
        log: &ReplicatedLog,
        gc: &dyn GroupCommit,
        net: &SimNetwork,
        crash: &CrashContext,
        recorder: Option<&FlightRecorder>,
        mid_replay: &mut dyn FnMut(),
    ) -> RecoveryReport {
        let p = crash.partition;
        let started = Instant::now();
        net.set_health(p, PartitionHealth::Recovering);

        let mut mid_replay_handoffs = 0;
        // The crash-time store size: only the *first* pass wipes the store
        // the crash left behind — a restarted pass wipes its own voided
        // restore, which is not what the report should claim was dropped.
        let mut crash_wiped: Option<usize> = None;
        let (wiped_records, restored_records, txns) = loop {
            // The replay below reads exclusively from the replica this term
            // elected; if the term moves mid-replay the pass is void and the
            // successor starts over.
            let term = log.term();
            let pass_wiped = store.wipe();
            let wiped_records = *crash_wiped.get_or_insert(pass_wiped);

            // `durable_lsn = None` means nothing at all reached a quorum
            // when the partition died: there is no image to restore and no
            // log to replay.
            let (restored, txns) = match crash.durable_lsn {
                None => {
                    // The whole log was volatile; every write-set in it is
                    // lost (a bound that covers nothing; the cut is moot).
                    log.retain_replayable(0, &primo_wal::ReplayBound::Lsn(0), 0);
                    (0, Vec::new())
                }
                Some(cutoff) => {
                    let (restored, replay_base) = log
                        .with_durable_image(Some(cutoff), |image| {
                            for ((table, key), (value, ts)) in &image.records {
                                store.restore(*table, *key, value.clone(), *ts);
                            }
                            (image.len(), image.base_lsn)
                        })
                        .unwrap_or((0, 0));
                    let bound = gc.replay_bound(crash.token, log);
                    let txns = log.replay_range(replay_base, &bound, Some(cutoff));
                    apply_replay(store, &txns);
                    // Log repair: drop every write-set replay did not apply
                    // (lost volatile tail, rolled-back durable suffix) so a
                    // later checkpoint fold — whose bound keeps advancing
                    // after recovery — cannot resurrect a transaction that
                    // was reported crash-aborted.
                    log.retain_replayable(replay_base, &bound, cutoff);
                    (restored, txns)
                }
            };

            if let Some(rec) = recorder {
                rec.emit(
                    None,
                    Some(p),
                    TraceEventKind::RecoveryReplay {
                        pass: mid_replay_handoffs as u32,
                        entries: txns.len() as u64,
                    },
                );
            }
            mid_replay();
            if log.term() == term {
                break (wiped_records, restored, txns);
            }
            // The replacement leader crashed while we were replaying its
            // log: leadership already moved to the deterministic successor —
            // void this pass and rebuild from the new leader's copy.
            mid_replay_handoffs += 1;
        };

        // Bring wiped / lagging replicas back to full strength from the
        // elected leader before the partition serves again, so the replica
        // set can absorb the *next* crash.
        let repaired_replicas = log.repair_replicas();

        // Terminate in-doubt atomic commits (Paxos Commit's non-blocking
        // guarantee): a vote that was quorum-durable at the crash but has no
        // durable resolution — no decision entry, no installed write-set, no
        // rollback marker — belongs to a transaction whose coordinator died
        // between prepare and decide. No durable decision means nobody ever
        // decided COMMIT, so the presumed-abort verdict is sealed durably;
        // a classic-2PC cluster logs no votes and resolves nothing here.
        let in_doubt = log.unresolved_commit_votes(crash.durable_lsn);
        let in_doubt_resolved = in_doubt.len();
        if !in_doubt.is_empty() {
            log.append_batch(
                in_doubt
                    .iter()
                    .map(|txn| LogPayload::CommitDecision {
                        txn: *txn,
                        commit: false,
                    })
                    .collect(),
            );
            if let Some(rec) = recorder {
                for txn in &in_doubt {
                    rec.emit(
                        Some(*txn),
                        Some(p),
                        TraceEventKind::DecisionReached {
                            commit: false,
                            in_doubt: true,
                            flight_us: 0,
                            late_us: 0,
                        },
                    );
                }
            }
        }

        // §5.2: the new leader retrieves the latest Wp from its (replicated)
        // log — only one that was quorum-durable at the crash, never one the
        // dead leader's agent appended during the outage. The cluster-wide
        // agreement token can only be larger (it already incorporates every
        // partition's view).
        let recovered_wp = crash.token.max(
            log.latest_durable_watermark_at(crash.durable_lsn)
                .unwrap_or(0),
        );
        gc.on_partition_recover(p, recovered_wp);
        net.set_health(p, PartitionHealth::Up);

        RecoveryReport {
            partition: p,
            wiped_records,
            restored_records,
            replayed_txns: txns.len(),
            recovered_wp,
            duration_us: started.elapsed().as_micros() as u64,
            mid_replay_handoffs,
            repaired_replicas,
            in_doubt_resolved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpointer;
    use primo_common::config::NetConfig;
    use primo_common::{TableId, TxnId, Value};
    use primo_wal::{CommitOutcome, CommitWaiter, LogPayload, LoggedWrite, ReplayBound, TxnTicket};
    use std::sync::Arc;

    /// Minimal scheme: everything durable at crash is committed.
    struct DurableIsCommitted;

    impl GroupCommit for DurableIsCommitted {
        fn begin_txn(&self, coord: PartitionId, txn: TxnId) -> Arc<TxnTicket> {
            TxnTicket::new(txn, coord, 0)
        }
        fn add_participant(&self, _t: &TxnTicket, _p: PartitionId, _lts: Ts) {}
        fn txn_aborted(&self, _t: &TxnTicket) {}
        fn txn_committed(&self, ticket: &TxnTicket, ts: Ts, _ops: usize) -> CommitWaiter {
            CommitWaiter {
                txn: ticket.txn,
                coordinator: ticket.coordinator,
                ts,
                epoch: 0,
                ready_at_us: None,
            }
        }
        fn wait_durable(&self, _w: &CommitWaiter) -> CommitOutcome {
            CommitOutcome::Committed
        }
        fn try_outcome(&self, _w: &CommitWaiter) -> Option<CommitOutcome> {
            Some(CommitOutcome::Committed)
        }
        fn on_partition_crash(&self, _p: PartitionId) -> Ts {
            0
        }
        fn label(&self) -> &'static str {
            "durable"
        }
        fn shutdown(&self) {}
    }

    fn net() -> SimNetwork {
        SimNetwork::new(
            2,
            NetConfig {
                one_way_us: 0,
                jitter_us: 0,
                control_msg_extra_us: 0,
            },
            1,
        )
    }

    fn log_put(wal: &ReplicatedLog, seq: u64, ts: Ts, key: u64, v: u64) {
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), seq),
            ts,
            writes: vec![LoggedWrite::put(TableId(0), key, Value::from_u64(v))],
        });
    }

    #[test]
    fn recovery_restores_checkpoint_plus_replay_and_reopens() {
        let store = PartitionStore::new(PartitionId(0));
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        let net = net();
        let gc = DurableIsCommitted;
        let p = PartitionId(0);

        // Loaded base state, checkpointed.
        for k in 0..4u64 {
            store.insert(TableId(0), k, Value::from_u64(k));
        }
        Checkpointer::initial(&store, &wal);
        // Two committed transactions after the checkpoint: an update and a
        // delete, installed in the store and logged.
        log_put(&wal, 1, 10, 0, 100);
        store.insert(TableId(0), 0, Value::from_u64(100));
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(p, 2),
            ts: 11,
            writes: vec![LoggedWrite::delete(TableId(0), 3)],
        });
        store.table(TableId(0)).remove(3);
        std::thread::sleep(std::time::Duration::from_millis(1));

        // Crash: dirty the store to prove the wipe really runs.
        net.set_crashed(p, true);
        store.insert(TableId(0), 999, Value::from_u64(999));
        let crash = CrashContext::capture(p, gc.on_partition_crash(p), &wal);

        let report = RecoveryManager::recover(&store, &wal, &gc, &net, &crash);
        assert_eq!(report.wiped_records, 4, "3 live + 1 dirty slot wiped");
        assert_eq!(report.restored_records, 4);
        assert_eq!(report.replayed_txns, 2);
        assert!(!net.is_crashed(p), "recovery clears the crash flag last");

        assert_eq!(
            store.get(TableId(0), 0).unwrap().read().value.as_u64(),
            100,
            "replayed update wins over the checkpointed value"
        );
        assert!(store.get(TableId(0), 3).is_none(), "replayed delete holds");
        assert!(store.get(TableId(0), 999).is_none(), "dirty write is gone");
        assert_eq!(store.get(TableId(0), 1).unwrap().read().value.as_u64(), 1);
    }

    #[test]
    fn entries_volatile_at_crash_are_lost() {
        let store = PartitionStore::new(PartitionId(0));
        // 50 ms persist delay: the second entry never becomes durable
        // before the crash.
        let wal = ReplicatedLog::single(PartitionId(0), 50_000);
        let net = net();
        let gc = DurableIsCommitted;
        let p = PartitionId(0);
        store.insert(TableId(0), 1, Value::from_u64(1));
        Checkpointer::initial(&store, &wal);
        std::thread::sleep(std::time::Duration::from_millis(60));
        // Durable by now; this one will survive.
        log_put(&wal, 1, 5, 1, 50);
        std::thread::sleep(std::time::Duration::from_millis(60));
        // Volatile at crash; lost.
        log_put(&wal, 2, 6, 1, 60);
        net.set_crashed(p, true);
        let crash = CrashContext::capture(p, gc.on_partition_crash(p), &wal);
        let report = RecoveryManager::recover(&store, &wal, &gc, &net, &crash);
        assert_eq!(report.replayed_txns, 1);
        assert_eq!(store.get(TableId(0), 1).unwrap().read().value.as_u64(), 50);
    }

    #[test]
    fn recovery_seals_in_doubt_votes_with_the_presumed_abort_verdict() {
        let store = PartitionStore::new(PartitionId(0));
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        let net = net();
        let gc = DurableIsCommitted;
        let p = PartitionId(0);
        store.insert(TableId(0), 1, Value::from_u64(1));
        Checkpointer::initial(&store, &wal);

        // Three transactions voted before the crash. txn_a reached its
        // decision, txn_b installed its write-set (commit evidence), txn_c
        // is genuinely in doubt: coordinator died between prepare & decide.
        let txn_a = TxnId::new(p, 10);
        let txn_b = TxnId::new(p, 11);
        let txn_c = TxnId::new(p, 12);
        for txn in [txn_a, txn_b, txn_c] {
            wal.append(LogPayload::CommitVote {
                txn,
                coordinator: p,
                commit: true,
            });
        }
        wal.append(LogPayload::CommitDecision {
            txn: txn_a,
            commit: true,
        });
        wal.append(LogPayload::TxnWrites {
            txn: txn_b,
            ts: 9,
            writes: vec![LoggedWrite::put(TableId(0), 2, Value::from_u64(2))],
        });
        std::thread::sleep(std::time::Duration::from_millis(1));

        net.set_crashed(p, true);
        let crash = CrashContext::capture(p, gc.on_partition_crash(p), &wal);
        let report = RecoveryManager::recover(&store, &wal, &gc, &net, &crash);
        assert_eq!(report.in_doubt_resolved, 1, "only txn_c was in doubt");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(
            wal.commit_decision_for(txn_c, None),
            Some(false),
            "the presumed-abort verdict is sealed durably"
        );
        assert_eq!(
            wal.commit_decision_for(txn_a, None),
            Some(true),
            "the durable COMMIT decision is never overridden"
        );
        assert!(
            wal.unresolved_commit_votes(None).is_empty(),
            "no vote stays unresolved after recovery"
        );
        // Running recovery again resolves nothing new (idempotent).
        net.set_crashed(p, true);
        let crash = CrashContext::capture(p, gc.on_partition_crash(p), &wal);
        let report = RecoveryManager::recover(&store, &wal, &gc, &net, &crash);
        assert_eq!(report.in_doubt_resolved, 0);
    }

    #[test]
    fn apply_replay_twice_equals_once() {
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        log_put(&wal, 1, 3, 7, 70);
        log_put(&wal, 2, 5, 7, 71);
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), 3),
            ts: 6,
            writes: vec![LoggedWrite::delete(TableId(0), 8)],
        });
        std::thread::sleep(std::time::Duration::from_millis(1));
        let txns = wal.replay_range(0, &ReplayBound::Ts(u64::MAX), None);
        let once = PartitionStore::new(PartitionId(0));
        apply_replay(&once, &txns);
        let twice = PartitionStore::new(PartitionId(0));
        apply_replay(&twice, &txns);
        apply_replay(&twice, &txns);
        let mut a = once.snapshot_visible();
        let mut b = twice.snapshot_visible();
        a.sort_by_key(|(t, k, _, _)| (*t, *k));
        b.sort_by_key(|(t, k, _, _)| (*t, *k));
        assert_eq!(a, b);
        assert_eq!(once.get(TableId(0), 7).unwrap().read().value.as_u64(), 71);
    }
}
