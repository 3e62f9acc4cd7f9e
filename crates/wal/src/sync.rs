//! Classic synchronous per-transaction durability.
//!
//! Not used in the paper's figures (all baselines get group commit for
//! fairness, §6.1.3) but kept as a reference point and for ablation
//! experiments: it shows what the durability delay costs when it sits on the
//! transaction's critical path.

use crate::group_commit::{CommitOutcome, CommitWaiter, GroupCommit, TxnTicket};
use crate::replicated::ReplicatedLog;
use crate::snapshot::{Release, SnapshotTracker};
use primo_common::config::WalConfig;
use primo_common::sim_time::{charge_latency_us, now_us};
use primo_common::{PartitionId, Ts, TxnId};
use std::sync::Arc;
// The rollback bound is the trait default (everything covered): the
// synchronous flush makes a transaction durable on every participant before
// its commit call returns, so a crash never rolls a reported commit back.
// Recovery replays whatever was quorum-durable at the crash instant, and
// survivors have nothing to compensate.

/// Synchronous per-transaction flush.
#[derive(Debug)]
pub struct SyncCommit {
    num_partitions: usize,
    /// Synchronous flush cost: the transaction waits until its log records
    /// are *quorum*-durable (the worst partition's quorum-ack delay).
    ack_delay_us: u64,
    /// MVCC snapshot-horizon bookkeeping: a synchronously flushed commit is
    /// durable-forever the moment its commit call returns.
    tracker: SnapshotTracker,
}

impl SyncCommit {
    pub fn new(num_partitions: usize, cfg: WalConfig, logs: Vec<Arc<ReplicatedLog>>) -> Self {
        // A sync commit stalls the caller for the full quorum-ack window.
        // Followers catch up from the leader's log whenever something reads
        // it; since they inherit the leader's append timestamp, waiting out
        // this constant is exactly equivalent to waiting for the slowest
        // quorum replica's persist.
        let ack_delay_us = crate::max_quorum_ack_delay_us(&logs, cfg.persist_delay_us);
        SyncCommit {
            num_partitions,
            ack_delay_us,
            tracker: SnapshotTracker::default(),
        }
    }

    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }
}

impl GroupCommit for SyncCommit {
    fn begin_txn(&self, coord: PartitionId, txn: TxnId) -> std::sync::Arc<TxnTicket> {
        self.tracker.begin(txn);
        TxnTicket::new(txn, coord, 0)
    }

    fn txn_aborted(&self, ticket: &TxnTicket) {
        self.tracker.abort(ticket.txn);
    }

    fn txn_committed(&self, ticket: &TxnTicket, ts: Ts, _ops: usize) -> CommitWaiter {
        // The flush happens right here, synchronously, while the worker (and
        // in a 2PC protocol, the prepare/commit handling) is still pending.
        charge_latency_us(self.ack_delay_us);
        // Quorum-durable before the commit call returns: the snapshot
        // horizon may include it immediately.
        self.tracker.commit(ticket.txn, ts, Release::Now, false);
        CommitWaiter {
            txn: ticket.txn,
            coordinator: ticket.coordinator,
            ts,
            epoch: 0,
            ready_at_us: None,
        }
    }

    fn wait_durable(&self, _waiter: &CommitWaiter) -> CommitOutcome {
        CommitOutcome::Committed
    }

    fn try_outcome(&self, _waiter: &CommitWaiter) -> Option<CommitOutcome> {
        Some(CommitOutcome::Committed)
    }

    fn ts_floor(&self, _partition: PartitionId) -> Ts {
        self.tracker.ts_floor()
    }

    fn reserve_commit_ts(&self, _ticket: &TxnTicket, proposed: Ts) -> Ts {
        self.tracker.reserve(proposed)
    }

    fn snapshot_horizon(&self, _partition: PartitionId) -> Ts {
        self.tracker.horizon(now_us())
    }

    fn on_partition_crash(&self, p: PartitionId) -> Ts {
        // A synchronously flushed commit is never rolled back, so nothing is
        // doomed; only the crashed partition's in-flight registrations die.
        self.tracker.drop_actives_of(p);
        0
    }

    fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::LoggingScheme;

    #[test]
    fn sync_commit_charges_flush_on_critical_path() {
        let cfg = WalConfig {
            scheme: LoggingScheme::SyncPerTxn,
            interval_ms: 10,
            persist_delay_us: 400,
            force_update: false,
            ..WalConfig::default()
        };
        let gc = SyncCommit::new(1, cfg, crate::build_logs(1, cfg));
        let ticket = gc.begin_txn(PartitionId(0), TxnId::new(PartitionId(0), 1));
        let start = std::time::Instant::now();
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert!(start.elapsed().as_micros() >= 380);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        assert_eq!(gc.num_partitions(), 1);
    }

    #[test]
    fn snapshot_horizon_follows_the_flush() {
        let cfg = WalConfig {
            scheme: LoggingScheme::SyncPerTxn,
            interval_ms: 10,
            persist_delay_us: 10,
            force_update: false,
            ..WalConfig::default()
        };
        let gc = SyncCommit::new(1, cfg, crate::build_logs(1, cfg));
        let p = PartitionId(0);
        assert_eq!(gc.snapshot_horizon(p), 0);
        let ticket = gc.begin_txn(p, TxnId::new(p, 1));
        let ts = gc.reserve_commit_ts(&ticket, 0);
        let _ = gc.txn_committed(&ticket, ts, 1);
        assert_eq!(gc.snapshot_horizon(p), ts);
        assert!(gc.ts_floor(p) >= ts);
    }
}
