//! The per-partition checkpoint writer.
//!
//! A partition's checkpoint is one **rolling image** owned by its replicated
//! log ([`ReplicatedLog`]): the committed state as of the image's
//! `base_lsn`, *derived from the log*, not from the live store. Each fold
//! advances the image in place by the contiguous quorum-durable log prefix
//! the group-commit scheme vouches for
//! ([`GroupCommit::checkpoint_bound`]) and drains that prefix from every
//! replica. That construction is immune to the races a live-store scan
//! would have — a record overwritten by a not-yet-durable transaction never
//! leaks into the image, because the image only ever sees logged, covered
//! writes.
//!
//! The one exception is the **base image** taken right after workload
//! loading ([`Checkpointer::initial`]): loaders write straight into the
//! store without logging, so the base image is a quiescent store scan.
//! Without it a wiped partition could never get its loaded records back.
//!
//! There is one fold path, [`Checkpointer::fold`]. Explicit checkpoints
//! (`checkpoint_all`, the experiment driver's periodic hook) call it with
//! [`FoldScope::Everything`]; the commit path calls it with
//! [`FoldScope::Chunk`] whenever a log retains more than twice
//! [`RETENTION_TARGET`](primo_wal::RETENTION_TARGET) entries, which is what
//! keeps every log — and recovery's replay — bounded without anybody
//! opting in.

use primo_common::{PartitionId, Ts};
use primo_storage::PartitionStore;
use primo_wal::{CheckpointImage, FoldScope, GroupCommit, ReplicatedLog};

/// What one checkpoint pass did (for logs, metrics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    pub partition: PartitionId,
    /// Committed transactions folded into the image by this pass.
    pub folded_txns: usize,
    /// Records in the resulting image.
    pub image_records: usize,
    /// Log entries the pass drained (the folded prefix).
    pub truncated_entries: usize,
    /// The image's coverage bound.
    pub up_to_ts: Ts,
}

/// Stateless checkpoint driver: all state lives in the log and its image.
pub struct Checkpointer;

impl Checkpointer {
    /// Base image from a quiescent store scan (call after loading, before
    /// workers start). The image covers the log from its install marker on,
    /// so everything already logged is considered covered.
    pub fn initial(store: &PartitionStore, wal: &ReplicatedLog) -> CheckpointStats {
        let mut image = CheckpointImage::default();
        for (table, key, value, ts) in store.snapshot_visible() {
            image.records.insert((table, key), (value, ts));
            image.up_to_ts = image.up_to_ts.max(ts);
        }
        let stats = CheckpointStats {
            partition: store.partition(),
            folded_txns: 0,
            image_records: image.len(),
            truncated_entries: 0,
            up_to_ts: image.up_to_ts,
        };
        wal.install_base_image(image);
        stats
    }

    /// Fold the quorum-durable prefix the scheme covers into the rolling
    /// image and drain it from the log: a bounded chunk or everything
    /// foldable, per `scope` (see [`ReplicatedLog::fold`], which also says
    /// when `leader_up` is asked). Returns `None` when nothing ran — the
    /// leader is down, another fold holds the image (chunk scope), or no
    /// base image exists yet (call [`Checkpointer::initial`] first: folding
    /// from the live store mid-run would not be consistent).
    pub fn fold(
        partition: PartitionId,
        wal: &ReplicatedLog,
        gc: &dyn GroupCommit,
        scope: FoldScope,
        leader_up: impl FnOnce() -> bool,
    ) -> Option<CheckpointStats> {
        let bound = gc.checkpoint_bound(partition, wal);
        let stats = wal.fold(&bound, scope, leader_up)?;
        Some(CheckpointStats {
            partition,
            folded_txns: stats.folded_txns,
            image_records: stats.image_records,
            truncated_entries: stats.truncated_entries,
            up_to_ts: stats.up_to_ts,
        })
    }

    /// One explicit checkpoint pass: fold everything foldable now.
    pub fn tick(
        partition: PartitionId,
        wal: &ReplicatedLog,
        gc: &dyn GroupCommit,
    ) -> Option<CheckpointStats> {
        Self::fold(partition, wal, gc, FoldScope::Everything, || true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::{TableId, TxnId, Value};
    use primo_wal::{LogPayload, LoggedWrite, ReplayBound};
    use std::sync::Arc;

    struct FixedBound(ReplayBound);

    impl GroupCommit for FixedBound {
        fn begin_txn(&self, coord: PartitionId, txn: TxnId) -> Arc<primo_wal::TxnTicket> {
            primo_wal::TxnTicket::new(txn, coord, 0)
        }
        fn add_participant(&self, _t: &primo_wal::TxnTicket, _p: PartitionId, _lts: Ts) {}
        fn txn_aborted(&self, _t: &primo_wal::TxnTicket) {}
        fn txn_committed(
            &self,
            ticket: &primo_wal::TxnTicket,
            ts: Ts,
            _ops: usize,
        ) -> primo_wal::CommitWaiter {
            primo_wal::CommitWaiter {
                txn: ticket.txn,
                coordinator: ticket.coordinator,
                ts,
                epoch: 0,
                ready_at_us: None,
            }
        }
        fn wait_durable(&self, _w: &primo_wal::CommitWaiter) -> primo_wal::CommitOutcome {
            primo_wal::CommitOutcome::Committed
        }
        fn try_outcome(&self, _w: &primo_wal::CommitWaiter) -> Option<primo_wal::CommitOutcome> {
            Some(primo_wal::CommitOutcome::Committed)
        }
        fn on_partition_crash(&self, _p: PartitionId) -> Ts {
            0
        }
        fn checkpoint_bound(&self, _p: PartitionId, _log: &ReplicatedLog) -> ReplayBound {
            self.0
        }
        fn label(&self) -> &'static str {
            "fixed"
        }
        fn shutdown(&self) {}
    }

    fn image_has(wal: &ReplicatedLog, key: u64) -> bool {
        wal.with_image(|image| image.records.contains_key(&(TableId(0), key)))
            .expect("base image")
    }

    fn put(key: u64, v: u64) -> Vec<LoggedWrite> {
        vec![LoggedWrite::put(TableId(0), key, Value::from_u64(v))]
    }

    #[test]
    fn initial_checkpoint_captures_only_visible_records() {
        let store = PartitionStore::new(PartitionId(0));
        store.insert(TableId(0), 1, Value::from_u64(1));
        store
            .insert(TableId(0), 2, Value::from_u64(2))
            .install_tombstone(5);
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        let stats = Checkpointer::initial(&store, &wal);
        assert_eq!(stats.image_records, 1);
        assert!(image_has(&wal, 1));
        assert!(!image_has(&wal, 2));
    }

    #[test]
    fn tick_folds_covered_prefix_and_truncates_durably() {
        let store = PartitionStore::new(PartitionId(0));
        store.insert(TableId(0), 1, Value::from_u64(1));
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        Checkpointer::initial(&store, &wal);
        for (seq, ts) in [(1u64, 5u64), (2, 8), (3, 50)] {
            wal.append(LogPayload::TxnWrites {
                txn: TxnId::new(PartitionId(0), seq),
                ts,
                writes: put(100 + seq, ts),
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        // Bound covers ts < 10: two of the three entries fold.
        let gc = FixedBound(ReplayBound::Ts(10));
        let stats = Checkpointer::tick(PartitionId(0), &wal, &gc).expect("base image exists");
        assert_eq!(stats.folded_txns, 2);
        assert_eq!(stats.image_records, 3);
        assert_eq!(
            stats.truncated_entries, 3,
            "the install marker and the folded prefix are drained at once"
        );
        assert_eq!(wal.len(), 1, "only the uncovered entry is retained");
        assert!(image_has(&wal, 101));
        assert!(image_has(&wal, 102));
        assert!(
            !image_has(&wal, 103),
            "uncovered entry must stay in the log, not the image"
        );
        // The uncovered entry is still replayable from the image's base.
        let (_, image) = wal.latest_checkpoint().unwrap();
        let rest = wal.replay_range(image.base_lsn, &ReplayBound::Ts(u64::MAX), None);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].1, 50);
    }

    #[test]
    fn tick_without_base_image_is_a_no_op() {
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        let gc = FixedBound(ReplayBound::Ts(10));
        assert!(Checkpointer::tick(PartitionId(0), &wal, &gc).is_none());
    }

    #[test]
    fn fold_stops_at_non_durable_entries() {
        let store = PartitionStore::new(PartitionId(0));
        let wal = ReplicatedLog::single(PartitionId(0), 50_000); // 50 ms persist
        Checkpointer::initial(&store, &wal);
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), 1),
            ts: 1,
            writes: put(1, 1),
        });
        let gc = FixedBound(ReplayBound::Ts(u64::MAX));
        let stats = Checkpointer::tick(PartitionId(0), &wal, &gc).unwrap();
        assert_eq!(stats.folded_txns, 0, "volatile entries never fold");
    }
}
