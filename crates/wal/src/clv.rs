//! Controlled Lock Violation (CLV) — Graefe et al., SIGMOD '13.
//!
//! CLV releases locks before the log is durable (like group commit) but
//! acknowledges each transaction individually as soon as *its* log records
//! and those of the transactions it depends on are durable. The price is
//! fine-grained dependency tracking on every record access, which the paper
//! finds makes CLV slower than either COCO or the watermark scheme (Fig 11).
//!
//! Model: a per-record-access tracking cost is charged on the critical path
//! at commit time; the commit is acknowledged once the per-transaction
//! persist delay has elapsed (dependencies are older, hence durable by then).
//! A crash rolls back exactly the transactions whose write-set it finds in
//! the logs appended but not yet quorum-durable at its instant — the rule
//! recovery and compensation apply to the same entries, on the crashed
//! partition and the survivors alike. The crashed log was fenced before the
//! instant (`ReplicatedLog::fail_over` moved its term), so a write-set in
//! flight there either landed before it, and the rule judges it, or is
//! refused at its append, and its attempt aborts: no verdict waits for a
//! late write-set.

use crate::group_commit::{CommitOutcome, CommitWaiter, GroupCommit, TxnTicket};
use crate::log::ReplayBound;
use crate::replicated::ReplicatedLog;
use crate::snapshot::{Release, SnapshotTracker};
use parking_lot::Mutex;
use primo_common::config::WalConfig;
use primo_common::sim_time::{charge_latency_us, now_us, wait_until};
use primo_common::{PartitionId, Ts, TxnId};
use primo_trace::{FlightRecorder, TraceEventKind};
use std::collections::HashSet;
use std::sync::Arc;

/// Cost of maintaining the dependency graph, per record accessed,
/// microseconds (charged in the transaction's critical path).
const TRACK_COST_PER_OP_US: u64 = 2;

/// Controlled-Lock-Violation durability scheme.
#[derive(Debug)]
pub struct ClvCommit {
    /// Acknowledgement delay: the time until a transaction's log records
    /// are *quorum*-durable (the worst partition's quorum-ack delay —
    /// equals the plain persist delay when the log is single-copy).
    ack_delay_us: u64,
    /// Every partition's log: a crash reads the write-sets it rolls back
    /// off them.
    logs: Vec<Arc<ReplicatedLog>>,
    /// The crash verdicts: every transaction a crash caught in its persist
    /// window. Their verdict is `CrashAborted`; a crash decides under this
    /// lock, so every verdict reads a crash whole or not at all.
    rolled_back: Mutex<HashSet<TxnId>>,
    /// MVCC snapshot-horizon bookkeeping: the quorum-acked durable horizon.
    tracker: SnapshotTracker,
    /// Cluster flight recorder: each commit's cut is traced.
    recorder: Arc<FlightRecorder>,
}

impl ClvCommit {
    pub fn new(
        cfg: WalConfig,
        logs: Vec<Arc<ReplicatedLog>>,
        recorder: Arc<FlightRecorder>,
    ) -> Self {
        // CLV acknowledges a commit when its log records (and its
        // dependencies') are quorum-durable. The delay is a property of the
        // replica set's disks and hops — followers keep the leader's append
        // instant on every entry, so this constant is exact regardless of
        // when they actually catch up.
        let ack_delay_us = crate::max_quorum_ack_delay_us(&logs, cfg.persist_delay_us);
        ClvCommit {
            ack_delay_us,
            logs,
            rolled_back: Mutex::default(),
            tracker: SnapshotTracker::default(),
            recorder,
        }
    }
}

impl GroupCommit for ClvCommit {
    fn begin_txn(&self, coord: PartitionId, txn: TxnId) -> std::sync::Arc<TxnTicket> {
        self.tracker.begin(txn);
        TxnTicket::new(txn, coord, 0)
    }

    fn txn_aborted(&self, ticket: &TxnTicket) {
        self.tracker.abort(ticket.txn);
    }

    fn txn_committed(&self, ticket: &TxnTicket, ts: Ts, ops: usize) -> CommitWaiter {
        // Dependency tracking: every accessed record's last-writer tag must be
        // recorded and checked. This happens while the transaction is still
        // on a worker, i.e. on the critical path.
        charge_latency_us(TRACK_COST_PER_OP_US * ops as u64);
        let ready_at = now_us() + self.ack_delay_us;
        // The snapshot horizon may pass this commit only once its quorum-ack
        // deadline has elapsed; a commit a crash already rolled back is
        // doomed and caps the horizon until compensation. Checked and
        // registered under the lock a crash takes to doom, so the commit is
        // doomed here or there.
        let rolled_back = self.rolled_back.lock();
        let doomed = rolled_back.contains(&ticket.txn);
        self.tracker
            .commit(ticket.txn, ts, Release::AtUs(ready_at), doomed);
        drop(rolled_back);
        // CLV's per-transaction durability decision: the cut after which this
        // commit (and its dependencies, older and hence durable first) is
        // acknowledgeable.
        self.recorder.emit(
            Some(ticket.txn),
            Some(ticket.coordinator),
            TraceEventKind::ClvCut { ts },
        );
        CommitWaiter {
            txn: ticket.txn,
            coordinator: ticket.coordinator,
            ts,
            epoch: 0,
            ready_at_us: Some(ready_at),
        }
    }

    fn try_outcome(&self, waiter: &CommitWaiter) -> Option<CommitOutcome> {
        // The clock is read under the lock a crash decides under: a commit
        // found ready before a crash's instant was durable by it, and one
        // found ready after it reads that crash's whole verdict.
        let rolled_back = self.rolled_back.lock();
        if rolled_back.contains(&waiter.txn) {
            return Some(CommitOutcome::CrashAborted);
        }
        (now_us() >= waiter.ready_at_us.unwrap_or(0)).then_some(CommitOutcome::Committed)
    }

    fn wait_durable(&self, waiter: &CommitWaiter) -> CommitOutcome {
        loop {
            if let Some(outcome) = self.try_outcome(waiter) {
                return outcome;
            }
            wait_until(waiter.ready_at_us.unwrap_or(0));
        }
    }

    fn ts_floor(&self, _partition: PartitionId) -> Ts {
        // Every new commit timestamp must exceed the highest finalized one,
        // or a straggler could install a version at or below the published
        // snapshot horizon (stability property of the horizon).
        self.tracker.ts_floor()
    }

    fn reserve_commit_ts(&self, _ticket: &TxnTicket, proposed: Ts) -> Ts {
        self.tracker.reserve(proposed)
    }

    fn snapshot_horizon(&self, _partition: PartitionId) -> Ts {
        self.tracker.horizon(now_us())
    }

    fn on_compensation_complete(&self) {
        self.tracker.compensation_complete();
    }

    fn rollback_bound(&self, crash_token: Ts, _log: &ReplicatedLog) -> ReplayBound {
        // `crash_token` is the crash instant. The commits rolled back are
        // precisely those whose write-set's persist window spans it, and the
        // crash read them off the logs by this very bound
        // (`on_partition_crash`); entries durable before the crash stay
        // committed, and so do entries appended after it — post-crash
        // commits on a survivor, and nothing on the crashed partition,
        // whose fence refused every write-set of an older term and whose
        // quorum cut is taken after the instant.
        ReplayBound::PersistWindow(crash_token)
    }

    fn on_partition_crash(&self, p: PartitionId) -> Ts {
        // The verdict is the logs': a transaction is rolled back exactly
        // when one of its write-sets was appended before the crash instant
        // but not yet quorum-durable by it, which is the bound recovery and
        // compensation apply. Reporting `txn_committed` after the instant
        // changes nothing, and `p`'s log was fenced before it: what is in
        // flight on `p` lands before the instant or not at all.
        // The tracker stamps the instant and holds the horizon until
        // compensation; doomed commits keep capping it until then, and none
        // is released in between.
        //
        // The whole decision — instant, scan, doom — is one critical
        // section, so a verdict reads it whole or not at all. The scan waits
        // for no writer: an append stamps its instant under its log's lock,
        // so once the clock has passed `t` every entry stamped by `t` is in
        // its log. Compensation needs nothing more from this scheme: it
        // applies the same `PersistWindow(t)` bound after this returns,
        // which passes only entries appended by `t`, so every transaction
        // it undoes was caught here and already reads `CrashAborted`.
        let mut rolled_back = self.rolled_back.lock();
        let t = self.tracker.open_crash();
        self.tracker.drop_actives_of(p);
        wait_until(t + 1);
        let bound = ReplayBound::PersistWindow(t);
        let caught: HashSet<TxnId> = (self.logs.iter())
            .flat_map(|log| log.collect_rolled_back(&bound, None))
            .map(|(txn, ..)| txn)
            .collect();
        self.tracker.doom(&caught);
        rolled_back.extend(caught);
        t
    }

    fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::LoggingScheme;
    use primo_common::{TableId, Value};

    fn make() -> ClvCommit {
        let cfg = WalConfig {
            scheme: LoggingScheme::Clv,
            interval_ms: 10,
            persist_delay_us: 300,
            force_update: false,
            ..WalConfig::default()
        };
        ClvCommit::new(cfg, crate::build_logs(2, cfg), crate::quiet_recorder())
    }

    fn tid(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
    }

    /// Log a write-set of `txn` on its coordinator, as a commit does
    /// before it reports.
    fn log_writes(gc: &ClvCommit, txn: TxnId) {
        let writes = vec![crate::LoggedWrite::put(TableId(0), 1, Value::from_u64(1))];
        gc.logs[0].append(crate::LogPayload::TxnWrites { txn, ts: 1, writes });
    }

    #[test]
    fn commit_waits_for_persist_delay() {
        let gc = make();
        let ticket = gc.begin_txn(PartitionId(0), tid(1));
        let start = std::time::Instant::now();
        let waiter = gc.txn_committed(&ticket, 1, 5);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        let us = start.elapsed().as_micros() as u64;
        assert!(us >= 300, "waited only {us}us");
    }

    #[test]
    fn tracking_cost_scales_with_ops() {
        let gc = make();
        let ticket = gc.begin_txn(PartitionId(0), tid(2));
        let start = std::time::Instant::now();
        let _ = gc.txn_committed(&ticket, 1, 50);
        assert!(start.elapsed().as_micros() >= 90);
    }

    #[test]
    fn replication_raises_the_acknowledgement_delay() {
        // Leader disk 100us, remote replicas 900us: CLV may only acknowledge
        // once a quorum (leader + one remote) persisted, so the wait is the
        // remote's delay, not the local disk's.
        let cfg = WalConfig {
            scheme: LoggingScheme::Clv,
            interval_ms: 10,
            persist_delay_us: 100,
            force_update: false,
            replication_factor: 3,
            replica_persist_delay_us: Some(900),
        };
        let gc = ClvCommit::new(cfg, crate::build_logs(1, cfg), crate::quiet_recorder());
        let ticket = gc.begin_txn(PartitionId(0), tid(9));
        let start = std::time::Instant::now();
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        let us = start.elapsed().as_micros() as u64;
        assert!(us >= 850, "quorum ack must gate the return, waited {us}us");
    }

    #[test]
    fn crash_before_durability_aborts() {
        let gc = make();
        let ticket = gc.begin_txn(PartitionId(0), tid(3));
        log_writes(&gc, tid(3));
        let waiter = gc.txn_committed(&ticket, 1, 1);
        // A commit that logged nothing has nothing a crash could roll back.
        let read_only = gc.begin_txn(PartitionId(0), tid(4));
        let read = gc.txn_committed(&read_only, 1, 1);
        gc.on_partition_crash(PartitionId(1));
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::CrashAborted);
        assert_eq!(gc.wait_durable(&read), CommitOutcome::Committed);
    }

    #[test]
    fn snapshot_horizon_trails_quorum_ack() {
        let gc = make();
        let p = PartitionId(0);
        let ticket = gc.begin_txn(p, tid(7));
        let ts = gc.reserve_commit_ts(&ticket, 0);
        let waiter = gc.txn_committed(&ticket, ts, 1);
        assert!(
            gc.snapshot_horizon(p) < ts,
            "an unacknowledged commit must stay above the horizon"
        );
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        assert_eq!(gc.snapshot_horizon(p), ts);
        // New transactions start above everything finalized.
        assert!(gc.ts_floor(p) >= ts);
    }

    #[test]
    fn crash_doomed_commit_never_enters_the_horizon() {
        let gc = make();
        let p = PartitionId(0);
        let ticket = gc.begin_txn(p, tid(8));
        let ts = gc.reserve_commit_ts(&ticket, 0);
        log_writes(&gc, tid(8));
        let waiter = gc.txn_committed(&ticket, ts, 1);
        gc.on_partition_crash(PartitionId(1));
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::CrashAborted);
        // Long after the ack deadline the rolled-back commit still caps the
        // horizon — until compensation reports the chains clean.
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(gc.snapshot_horizon(p) < ts);
        gc.on_compensation_complete();
        assert!(
            gc.snapshot_horizon(p) < ts,
            "rolled-back ts is never readable"
        );
    }
}
