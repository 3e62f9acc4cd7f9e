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

use crate::group_commit::{CommitOutcome, CommitWaiter, GroupCommit, SeqTsSource, TxnTicket};
use crate::replicated::ReplicatedLog;
use crate::snapshot::{Release, SnapshotTracker};
use parking_lot::Mutex;
use primo_common::config::WalConfig;
use primo_common::sim_time::{charge_latency_us, now_us, wait_until};
use primo_common::{PartitionId, Ts, TxnId};
use primo_trace::{FlightRecorder, TraceEventKind};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

// Replay under CLV is bounded purely by the quorum-durable LSN captured at
// crash time (the trait default): a transaction is acknowledged exactly when
// its log records are quorum-durable, so "quorum-durable at crash" and
// "acknowledged" coincide.

/// Cost of maintaining the dependency graph, per record accessed,
/// microseconds (charged in the transaction's critical path).
const TRACK_COST_PER_OP_US: u64 = 2;

/// Controlled-Lock-Violation durability scheme.
#[derive(Debug)]
pub struct ClvCommit {
    num_partitions: usize,
    /// Time of the last injected crash (0 = never).
    crash_at_us: AtomicU64,
    /// Commit-timestamp sequence for protocols without logical timestamps.
    seq_ts: SeqTsSource,
    /// Acknowledgement delay: the time until a transaction's log records
    /// are *quorum*-durable (the worst partition's quorum-ack delay —
    /// equals the plain persist delay when the log is single-copy).
    ack_delay_us: u64,
    /// Transactions crash compensation sealed and undid (their verdict must
    /// be `CrashAborted` even if the commit-time window check would let
    /// them through — see [`GroupCommit::on_txns_rolled_back`]).
    rolled_back_txns: Mutex<HashSet<TxnId>>,
    /// MVCC snapshot-horizon bookkeeping: the quorum-acked durable horizon.
    tracker: SnapshotTracker,
    /// Cluster flight recorder, injected after construction.
    recorder: OnceLock<Arc<FlightRecorder>>,
}

impl ClvCommit {
    pub fn new(num_partitions: usize, cfg: WalConfig, logs: Vec<Arc<ReplicatedLog>>) -> Self {
        // CLV acknowledges a commit when its log records (and its
        // dependencies') are quorum-durable. The delay is a property of the
        // replica set's disks and hops — followers keep the leader's append
        // instant on every entry, so this constant is exact regardless of
        // when they actually catch up.
        let ack_delay_us = crate::max_quorum_ack_delay_us(&logs, cfg.persist_delay_us);
        ClvCommit {
            num_partitions,
            crash_at_us: AtomicU64::new(0),
            seq_ts: SeqTsSource::new(),
            ack_delay_us,
            rolled_back_txns: Mutex::new(HashSet::new()),
            tracker: SnapshotTracker::new(cfg.unsafe_latest_commit_horizon),
            recorder: OnceLock::new(),
        }
    }

    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Whether a transaction acknowledged at `ready_at` is rolled back by
    /// the last crash: its persist window — `[ready_at - ack_delay,
    /// ready_at)`, i.e. from its commit call to its quorum-durability point
    /// — must *span* the crash instant. Commits that were durable before
    /// the crash keep their acknowledgement; commits *started* after the
    /// crash instant lose nothing (their log records live on surviving
    /// partitions and become durable normally), so they are committed, not
    /// rolled back — otherwise every commit during the whole outage would
    /// be falsely crash-aborted without ever being compensated.
    fn crash_rolled_back(&self, ready_at: u64) -> bool {
        let crash = self.crash_at_us.load(Ordering::Acquire);
        crash != 0 && crash < ready_at && ready_at.saturating_sub(self.ack_delay_us) <= crash
    }
}

impl GroupCommit for ClvCommit {
    fn begin_txn(&self, coord: PartitionId, txn: TxnId) -> std::sync::Arc<TxnTicket> {
        self.tracker.begin(txn);
        TxnTicket::new(txn, coord, 0)
    }

    fn add_participant(&self, ticket: &TxnTicket, p: PartitionId, _lts: Ts) {
        let mut st = ticket.state.lock();
        if !st.participants.contains(&p) {
            st.participants.push(p);
        }
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
        // deadline has elapsed; a commit whose persist window the crash
        // already spans is doomed and caps the horizon until compensation.
        self.tracker.commit(
            ticket.txn,
            ts,
            Release::AtUs(ready_at),
            self.crash_rolled_back(ready_at),
        );
        // CLV's per-transaction durability decision: the cut after which this
        // commit (and its dependencies, older and hence durable first) is
        // acknowledgeable.
        if let Some(rec) = self.recorder.get() {
            rec.emit(
                Some(ticket.txn),
                Some(ticket.coordinator),
                TraceEventKind::ClvCut { ts },
            );
        }
        CommitWaiter {
            txn: ticket.txn,
            coordinator: ticket.coordinator,
            ts,
            epoch: 0,
            ready_at_us: Some(ready_at),
        }
    }

    fn try_outcome(&self, waiter: &CommitWaiter) -> Option<CommitOutcome> {
        if self.rolled_back_txns.lock().contains(&waiter.txn) {
            return Some(CommitOutcome::CrashAborted);
        }
        let ready_at = waiter.ready_at_us.unwrap_or(0);
        if self.crash_rolled_back(ready_at) {
            return Some(CommitOutcome::CrashAborted);
        }
        if now_us() >= ready_at {
            Some(CommitOutcome::Committed)
        } else {
            None
        }
    }

    fn wait_durable(&self, waiter: &CommitWaiter) -> CommitOutcome {
        let ready_at = waiter.ready_at_us.unwrap_or(0);
        // A crash whose instant falls inside this transaction's persist
        // window rolls it back — checked before and after the durability
        // wait, since the crash may be injected while we sleep.
        if self.rolled_back_txns.lock().contains(&waiter.txn) || self.crash_rolled_back(ready_at) {
            return CommitOutcome::CrashAborted;
        }
        wait_until(ready_at);
        if self.rolled_back_txns.lock().contains(&waiter.txn) || self.crash_rolled_back(ready_at) {
            return CommitOutcome::CrashAborted;
        }
        CommitOutcome::Committed
    }

    fn on_txns_rolled_back(&self, txns: &[TxnId]) {
        self.rolled_back_txns.lock().extend(txns.iter().copied());
    }

    fn ts_floor(&self, _partition: PartitionId) -> Ts {
        // Every new commit timestamp must exceed the highest finalized one,
        // or a straggler could install a version at or below the published
        // snapshot horizon (stability property of the horizon).
        self.tracker.ts_floor()
    }

    fn finalize_commit_ts(&self, _ticket: &TxnTicket, hint: Ts) -> Ts {
        let ts = self.seq_ts.finalize_above(hint, self.tracker.ts_floor());
        self.tracker.note_finalized(ts);
        ts
    }

    fn snapshot_horizon(&self, _partition: PartitionId) -> Ts {
        self.tracker.horizon(now_us())
    }

    fn on_compensation_complete(&self) {
        self.tracker.compensation_complete();
    }

    fn survivor_rollback_bound(
        &self,
        crash_token: Ts,
        _log: &crate::ReplicatedLog,
    ) -> crate::ReplayBound {
        // `crash_token` is the crash instant. A transaction is acknowledged
        // exactly when its log records are durable, so the commits rolled
        // back are precisely those whose persist window spans the crash (see
        // `crash_rolled_back`) — on every partition, survivors included.
        // Entries durable before the crash, and entries appended after it
        // (post-crash commits), stay committed.
        crate::ReplayBound::PersistWindow(crash_token)
    }

    fn on_partition_crash(&self, p: PartitionId) -> Ts {
        let t = now_us();
        self.crash_at_us.store(t, Ordering::Release);
        // Pending commits whose persist window spans the crash will be
        // rolled back: keep them capping the snapshot horizon until
        // compensation has purged their versions. The crashed partition's
        // in-flight transactions will never report back.
        self.tracker.doom_window(t, self.ack_delay_us);
        self.tracker.drop_actives_of(p);
        t
    }

    fn on_partition_recover(&self, _p: PartitionId, _recovered_wp: Ts) {
        // The crash is resolved: transactions committing from now on are no
        // longer rolled back against the old crash instant. (Without this,
        // every post-recovery commit would compare its fresh `ready_at`
        // against the stale crash time and abort forever.)
        self.crash_at_us.store(0, Ordering::Release);
    }

    fn set_recorder(&self, recorder: Arc<FlightRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    fn label(&self) -> &'static str {
        "CLV"
    }

    fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::LoggingScheme;

    fn make() -> ClvCommit {
        let cfg = WalConfig {
            scheme: LoggingScheme::Clv,
            interval_ms: 10,
            persist_delay_us: 300,
            force_update: false,
            ..WalConfig::default()
        };
        ClvCommit::new(2, cfg, crate::build_logs(2, cfg))
    }

    fn tid(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
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
            ..WalConfig::default()
        };
        let gc = ClvCommit::new(1, cfg, crate::build_logs(1, cfg));
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
        let waiter = gc.txn_committed(&ticket, 1, 1);
        gc.on_partition_crash(PartitionId(1));
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::CrashAborted);
        assert_eq!(gc.num_partitions(), 2);
    }

    #[test]
    fn snapshot_horizon_trails_quorum_ack() {
        let gc = make();
        let p = PartitionId(0);
        let ticket = gc.begin_txn(p, tid(7));
        let ts = gc.finalize_commit_ts(&ticket, 0);
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
        let ts = gc.finalize_commit_ts(&ticket, 0);
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
