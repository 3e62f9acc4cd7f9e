//! Durability layer: replicated write-ahead logging and the distributed
//! group-commit schemes compared in the paper.
//!
//! * [`replicated`] — the [`ReplicatedLog`], the one public log: a
//!   per-partition replica set of physical copies where the leader's copy
//!   takes every append, followers catch up from it, and durability means a
//!   **majority quorum** persisted the record, with leadership terms and
//!   deterministic leader hand-off (the paper replicates each partition's
//!   log through Raft, §5.2).
//! * [`log`] — what the log is made of: the records, the rolling checkpoint
//!   image, replay bounds, and the crate-private copy a replica stores.
//! * [`watermark`] — Primo's **watermark-based asynchronous group commit**
//!   (§5): partitions persist logs independently, publish partition
//!   watermarks `Wp`, and a transaction's result is returned once the global
//!   watermark `Wg = min(Wp)` passes its logical timestamp.
//! * [`coco`] — **COCO-style epoch group commit** (§2.3): a global
//!   coordinator synchronously runs GROUP-PREPARE / GROUP-READY /
//!   GROUP-COMMIT rounds per epoch.
//! * [`clv`] — **Controlled Lock Violation**: locks are released early and a
//!   commit is acknowledged once the transaction's log (and its dependencies)
//!   are durable; models CLV's fine-grained dependency-tracking overhead.
//! * [`sync`] — classic synchronous per-transaction flush (reference point).
//!
//! All schemes implement the [`GroupCommit`] trait so every protocol can be
//! paired with every durability scheme (Fig 11).

pub mod clv;
pub mod coco;
pub mod group_commit;
pub mod log;
pub mod replicated;
pub mod snapshot;
pub mod sync;
pub mod watermark;

pub use group_commit::{CommitOutcome, CommitWaiter, GroupCommit, TxnTicket};
pub use log::{
    CheckpointImage, ImageSummary, LogEntry, LogPayload, LoggedOp, LoggedWrite, LoggedWrites,
    ReplayBound, ReplayedTxn, FOLD_CHUNK, RETENTION_TARGET,
};
pub use replicated::{FoldScope, FoldStats, ReplicatedLog};
pub use watermark::WatermarkCommit;

use primo_common::config::{LoggingScheme, WalConfig};
use primo_common::PartitionId;
use primo_net::DelayedBus;
use std::sync::Arc;

/// Construct the configured group-commit scheme for a cluster of
/// `num_partitions` partitions. `logs` are the partitions' replicated
/// durable logs — the watermark scheme appends its published `Wp` records
/// and COCO appends committed epoch boundaries, which is what bounds
/// recovery replay; every scheme derives its acknowledgement delay from the
/// logs' quorum-ack delay, so replication cost shows up in commit latency.
pub fn build_group_commit(
    num_partitions: usize,
    cfg: WalConfig,
    bus: Arc<DelayedBus>,
    logs: Vec<Arc<ReplicatedLog>>,
) -> Arc<dyn GroupCommit> {
    match cfg.scheme {
        LoggingScheme::Watermark => Arc::new(WatermarkCommit::new(num_partitions, cfg, bus, logs)),
        LoggingScheme::CocoEpoch => coco::CocoCommit::new(num_partitions, cfg, bus, logs),
        LoggingScheme::Clv => Arc::new(clv::ClvCommit::new(num_partitions, cfg, logs)),
        LoggingScheme::SyncPerTxn => Arc::new(sync::SyncCommit::new(num_partitions, cfg, logs)),
    }
}

/// The worst partition's append-to-quorum-ack delay — what a scheme that
/// acknowledges cluster-wide durability must wait out. Falls back to
/// `fallback` (the configured local persist delay) for an empty set.
pub(crate) fn max_quorum_ack_delay_us(logs: &[Arc<ReplicatedLog>], fallback: u64) -> u64 {
    logs.iter()
        .map(|l| l.quorum_ack_delay_us())
        .max()
        .unwrap_or(fallback)
}

/// Convenience used by tests: build the replicated logs for every partition
/// (replication factor and delays from `cfg`, no replication hop).
pub fn build_logs(num_partitions: usize, cfg: WalConfig) -> Vec<Arc<ReplicatedLog>> {
    (0..num_partitions)
        .map(|p| Arc::new(ReplicatedLog::new(PartitionId(p as u32), cfg, 0, None)))
        .collect()
}
