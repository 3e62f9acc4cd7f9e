//! COCO-style epoch-based distributed group commit (§2.3).
//!
//! A designated coordinator (partition 0) advances the cluster epoch by
//! epoch. Within an epoch, transactions execute normally and buffer their
//! log records; at the epoch boundary the coordinator synchronously runs a
//! GROUP-PREPARE / GROUP-READY / GROUP-COMMIT exchange with every partition.
//! Execution of the *next* epoch cannot start until the previous epoch has
//! been confirmed — this global synchronization is exactly what limits COCO's
//! scalability and what Primo's watermark scheme removes.
//!
//! The synchronization cost charged per epoch is:
//! `coordinator's lag + slowest other partition's lag (their bus delays,
//!  Fig 13a) + log persist delay + per-partition coordinator processing +
//!  straggler stalls`. The probability that at least one partition straggles in a given
//! epoch grows with the partition count, which reproduces COCO's throughput
//! plateau beyond ~12 partitions (Fig 14).

use crate::group_commit::{CommitOutcome, CommitWaiter, GroupCommit, TxnTicket};
use crate::log::{LogPayload, ReplayBound};
use crate::replicated::ReplicatedLog;
use crate::snapshot::{Release, SnapshotTracker};
use parking_lot::{Condvar, Mutex, MutexGuard};
use primo_common::config::WalConfig;
use primo_common::sim_time::{now_us, park_until};
use primo_common::{FastRng, PartitionId, Ts, TxnId};
use primo_net::DelayedBus;
use primo_trace::{FlightRecorder, TraceEventKind};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-partition processing cost at the coordinator per epoch, microseconds.
const PER_PARTITION_COORD_US: u64 = 30;
/// Probability that a given partition straggles in a given epoch.
const STRAGGLER_PROB: f64 = 0.05;
/// Straggler stall range, microseconds.
const STRAGGLER_MIN_US: u64 = 2_000;
const STRAGGLER_MAX_US: u64 = 10_000;

#[derive(Debug, Default)]
struct EpochState {
    /// Last epoch whose group commit completed successfully.
    committed: u64,
    /// Epochs aborted because of a crash.
    aborted: HashSet<u64>,
    /// Whether new transactions may start (the gate is closed during the
    /// synchronous group-commit exchange).
    gate_open: bool,
    /// Number of transactions still executing, per epoch.
    active: HashMap<u64, u64>,
    /// A crash was observed and the current epoch must be aborted.
    crash_pending: bool,
}

impl EpochState {
    /// The outcome of a commit of `epoch`, once its epoch is decided.
    fn verdict(&self, epoch: u64) -> Option<CommitOutcome> {
        if self.aborted.contains(&epoch) {
            Some(CommitOutcome::CrashAborted)
        } else {
            (self.committed >= epoch).then_some(CommitOutcome::Committed)
        }
    }
}

/// Epoch-based group commit (COCO).
pub struct CocoCommit {
    cfg: WalConfig,
    num_partitions: usize,
    /// The control bus: its per-sender lag slows the epoch exchange.
    bus: Arc<DelayedBus>,
    /// Current execution epoch.
    epoch: AtomicU64,
    state: Mutex<EpochState>,
    cond: Condvar,
    /// Per-partition replicated durable logs: a committed epoch appends an
    /// [`LogPayload::EpochBoundary`] marker to each of them, which is what
    /// bounds recovery replay and survivor rollback alike (everything in
    /// front of the last committed epoch's boundary belongs to a committed
    /// epoch).
    wals: Vec<Arc<ReplicatedLog>>,
    /// Cached worst-partition quorum-ack delay (immutable after
    /// construction): the floor of every epoch confirmation.
    ack_delay_us: u64,
    stop: Arc<AtomicBool>,
    coordinator: Mutex<Option<JoinHandle<()>>>,
    /// MVCC snapshot-horizon bookkeeping: commits release when their
    /// epoch's group commit seals a boundary.
    tracker: SnapshotTracker,
    /// Cluster flight recorder: the coordinator traces each sealed epoch.
    recorder: Arc<FlightRecorder>,
}

impl std::fmt::Debug for CocoCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CocoCommit")
            .field("num_partitions", &self.num_partitions)
            .finish()
    }
}

impl CocoCommit {
    pub fn new(
        num_partitions: usize,
        cfg: WalConfig,
        bus: Arc<DelayedBus>,
        wals: Vec<Arc<ReplicatedLog>>,
        recorder: Arc<FlightRecorder>,
    ) -> Arc<Self> {
        assert_eq!(wals.len(), num_partitions);
        let ack_delay_us = crate::max_quorum_ack_delay_us(&wals, cfg.persist_delay_us);
        let gc = Arc::new(CocoCommit {
            cfg,
            num_partitions,
            bus,
            wals,
            ack_delay_us,
            epoch: AtomicU64::new(1),
            state: Mutex::new(EpochState {
                committed: 0,
                aborted: HashSet::new(),
                gate_open: true,
                active: HashMap::new(),
                crash_pending: false,
            }),
            cond: Condvar::new(),
            stop: Arc::new(AtomicBool::new(false)),
            coordinator: Mutex::new(None),
            tracker: SnapshotTracker::default(),
            recorder,
        });
        let me = Arc::clone(&gc);
        let handle = std::thread::Builder::new()
            .name("coco-coordinator".into())
            .spawn(move || me.coordinator_loop())
            .expect("spawn coco coordinator");
        *gc.coordinator.lock() = Some(handle);
        gc
    }

    pub fn committed_epoch(&self) -> u64 {
        self.state.lock().committed
    }

    /// Wait, for at most 200 ms, until no transaction of `epoch` is still
    /// executing: what it will log is in the logs by then.
    fn drain(&self, st: &mut MutexGuard<'_, EpochState>, epoch: u64) {
        let deadline_us = now_us() + 200_000;
        while st.active.get(&epoch).copied().unwrap_or(0) > 0 && now_us() < deadline_us {
            self.cond.wait_for(st, Duration::from_millis(1));
        }
    }

    fn coordinator_loop(self: &Arc<Self>) {
        let mut rng = FastRng::new(0xC0C0);
        let epoch_us = self.cfg.interval_ms * 1000;
        // An epoch's window runs from the instant the gate (re)opens, so
        // whatever the coordinator does after reopening it does not
        // lengthen the next epoch.
        let mut opened_at = now_us();
        // Both waits below park until their deadline; `shutdown` unparks.
        loop {
            // 1. Epoch execution window.
            if !park_until(opened_at + epoch_us, &self.stop) {
                break;
            }
            let epoch = self.epoch.load(Ordering::Acquire);

            // 2. Close the gate: no new transactions while the epoch commits.
            self.state.lock().gate_open = false;

            // 3. Wait for in-flight transactions of this epoch to drain.
            self.drain(&mut self.state.lock(), epoch);

            // 4. Synchronous GROUP-PREPARE / GROUP-READY / GROUP-COMMIT:
            // the prepare pays the coordinator's lag on the bus, the
            // slowest GROUP-READY its sender's.
            let lag = |p: usize| self.bus.extra_delay_from(PartitionId(p as u32));
            let round_lag = lag(0) + (1..self.num_partitions).map(lag).max().unwrap_or(0);
            // The epoch's log batch must be *quorum*-durable before the
            // coordinator can confirm it: under replication the slowest
            // quorum replica, not the local disk, sets the floor. (The
            // floor is exact — entries reach the followers stamped with
            // their original append instant, so the ack delay measures
            // replication, never when a follower happened to catch up.)
            let mut sync_us =
                round_lag + self.ack_delay_us + PER_PARTITION_COORD_US * self.num_partitions as u64;
            // Straggler model: each partition independently straggles with a
            // small probability; the coordinator waits for the slowest one.
            let mut straggle = 0;
            for _ in 0..self.num_partitions {
                if rng.flip(STRAGGLER_PROB) {
                    straggle = straggle.max(rng.next_range(STRAGGLER_MIN_US, STRAGGLER_MAX_US));
                }
            }
            sync_us += straggle;
            park_until(now_us() + sync_us, &self.stop);

            // 5. Commit (or abort) the epoch and reopen the gate.
            let sealed = {
                let mut st = self.state.lock();
                // `on_partition_crash` already aborted the epoch and doomed
                // its commits; dooming it again here would reopen a crash
                // whose compensation may have completed.
                let sealed = if st.crash_pending {
                    st.aborted.insert(epoch);
                    st.crash_pending = false;
                    None
                } else {
                    st.committed = epoch;
                    // The epoch's commits are quorum-durable and sealed:
                    // the snapshot horizon may advance over them.
                    self.tracker.release_epochs_through(epoch);
                    // Seal the epoch in every partition's log: all TxnWrites
                    // entries appended before this marker belong to committed
                    // epochs, which is exactly the replay bound recovery
                    // uses. (Workers append their write-set before reporting
                    // `txn_committed`, and the drain in step 3 waited for
                    // them, so the ordering holds.)
                    for wal in &self.wals {
                        wal.append(LogPayload::EpochBoundary { epoch });
                    }
                    Some(now_us())
                };
                st.active.remove(&epoch);
                st.gate_open = true;
                self.epoch.store(epoch + 1, Ordering::Release);
                self.cond.notify_all();
                sealed
            };
            opened_at = now_us();
            // Recorded with the gate open: the coordinator thread's first
            // event allocates its trace ring, which must hold up no worker
            // and no epoch.
            if let Some(at_us) = sealed {
                self.recorder
                    .emit_at(at_us, None, None, TraceEventKind::EpochSealed { epoch });
            }
        }
        // Unblock anyone still waiting.
        let mut st = self.state.lock();
        st.gate_open = true;
        st.committed = self.epoch.load(Ordering::Acquire);
        self.cond.notify_all();
    }
}

impl GroupCommit for CocoCommit {
    fn begin_txn(&self, coord: PartitionId, txn: TxnId) -> Arc<TxnTicket> {
        let mut st = self.state.lock();
        let epoch = self.epoch.load(Ordering::Acquire);
        *st.active.entry(epoch).or_insert(0) += 1;
        drop(st);
        self.tracker.begin(txn);
        TxnTicket::new(txn, coord, epoch)
    }

    fn txn_aborted(&self, ticket: &TxnTicket) {
        let mut st = self.state.lock();
        if let Some(c) = st.active.get_mut(&ticket.epoch) {
            *c = c.saturating_sub(1);
        }
        self.cond.notify_all();
        drop(st);
        self.tracker.abort(ticket.txn);
    }

    fn txn_committed(&self, ticket: &TxnTicket, ts: Ts, _ops: usize) -> CommitWaiter {
        let mut st = self.state.lock();
        if let Some(c) = st.active.get_mut(&ticket.epoch) {
            *c = c.saturating_sub(1);
        }
        self.cond.notify_all();
        // A commit into an already-aborted epoch is doomed: it must never
        // enter the snapshot horizon.
        let doomed = st.aborted.contains(&ticket.epoch);
        drop(st);
        self.tracker
            .commit(ticket.txn, ts, Release::Epoch(ticket.epoch), doomed);
        CommitWaiter {
            txn: ticket.txn,
            coordinator: ticket.coordinator,
            ts,
            epoch: ticket.epoch,
            ready_at_us: None,
        }
    }

    fn try_outcome(&self, waiter: &CommitWaiter) -> Option<CommitOutcome> {
        self.state.lock().verdict(waiter.epoch)
    }

    fn wait_durable(&self, waiter: &CommitWaiter) -> CommitOutcome {
        let mut st = self.state.lock();
        loop {
            if let Some(outcome) = st.verdict(waiter.epoch) {
                return outcome;
            }
            self.cond.wait_for(&mut st, Duration::from_millis(5));
            if self.stop.load(Ordering::Relaxed) {
                return CommitOutcome::Committed;
            }
        }
    }

    fn execution_gate(&self, _partition: PartitionId, wait: bool) -> bool {
        let mut st = self.state.lock();
        while wait && !st.gate_open && !self.stop.load(Ordering::Relaxed) {
            self.cond.wait_for(&mut st, Duration::from_millis(1));
        }
        st.gate_open || self.stop.load(Ordering::Relaxed)
    }

    fn ts_floor(&self, _partition: PartitionId) -> Ts {
        self.tracker.ts_floor()
    }

    fn reserve_commit_ts(&self, _ticket: &TxnTicket, proposed: Ts) -> Ts {
        self.tracker.reserve(proposed)
    }

    fn snapshot_horizon(&self, _partition: PartitionId) -> Ts {
        // Commits release only when their epoch's boundary seals, so this is
        // exactly "everything up to the last sealed epoch" (minus anything a
        // crash doomed and compensation has not yet purged).
        self.tracker.horizon(0)
    }

    fn on_compensation_complete(&self) {
        self.tracker.compensation_complete();
    }

    fn on_partition_crash(&self, p: PartitionId) -> Ts {
        // The whole current epoch is aborted (§2.3): every transaction in it
        // is rolled back and the cluster moves on once the partition is
        // replaced / recovers.
        let mut st = self.state.lock();
        st.crash_pending = true;
        let epoch = self.epoch.load(Ordering::Acquire);
        st.aborted.insert(epoch);
        self.tracker.doom_epoch(epoch);
        self.tracker.drop_actives_of(p);
        // Close the gate and drain the aborted epoch's in-flight
        // transactions (bounded, like the coordinator's boundary drain): by
        // the time this returns, every write-set the epoch will ever log is
        // in the survivors' logs, so the compensation pass that follows the
        // agreement sees the complete rolled-back set. The coordinator
        // reopens the gate at the next boundary.
        st.gate_open = false;
        self.cond.notify_all();
        self.drain(&mut st, epoch);
        epoch
    }

    fn rollback_bound(&self, crash_token: Ts, log: &ReplicatedLog) -> ReplayBound {
        // `crash_token` is the aborted epoch: the write-sets in front of the
        // boundary the last committed epoch sealed stand, those after it are
        // rolled back (the boundary itself is a marker, not a write-set).
        // The boundary is looked up durable or not: an epoch is acknowledged
        // when its boundary is *appended* (its write-sets were quorum-durable
        // by then), so a partition dying within the boundary's own ack delay
        // must not fall back to the boundary before it. The crashed
        // partition's replay stays clamped to its crash-time cut, and
        // durability is a prefix of the log, so nothing behind a boundary
        // that was not durable at the crash was durable either.
        let bound = crash_token.saturating_sub(1);
        ReplayBound::Lsn(log.latest_epoch_boundary(bound).map_or(0, |l| l + 1))
    }

    fn checkpoint_bound(&self, _p: PartitionId, log: &ReplicatedLog) -> ReplayBound {
        let committed = self.committed_epoch();
        ReplayBound::Lsn(log.latest_durable_epoch_boundary(committed).unwrap_or(0))
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.cond.notify_all();
        if let Some(h) = self.coordinator.lock().take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for CocoCommit {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::LoggingScheme;

    fn make(interval_ms: u64) -> Arc<CocoCommit> {
        let bus = DelayedBus::new(2, 0);
        let cfg = WalConfig {
            scheme: LoggingScheme::CocoEpoch,
            interval_ms,
            persist_delay_us: 100,
            force_update: false,
            ..WalConfig::default()
        };
        let logs = crate::build_logs(2, cfg);
        CocoCommit::new(2, cfg, bus, logs, crate::quiet_recorder())
    }

    fn tid(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
    }

    #[test]
    fn epoch_advances_and_commits() {
        let gc = make(2);
        let ticket = gc.begin_txn(PartitionId(0), tid(1));
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        assert!(gc.committed_epoch() >= waiter.epoch);
        gc.shutdown();
    }

    #[test]
    fn crash_aborts_current_epoch() {
        let gc = make(50);
        let ticket = gc.begin_txn(PartitionId(0), tid(2));
        let epoch = ticket.epoch;
        gc.on_partition_crash(PartitionId(1));
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert_eq!(waiter.epoch, epoch);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::CrashAborted);
        gc.shutdown();
    }

    #[test]
    fn a_lagging_partition_on_the_bus_slows_every_epoch() {
        // Fig 13a: partition 1's control messages arrive 20 ms late, so its
        // GROUP-READY does, and no epoch seals sooner after a commit.
        const LAG_US: u64 = 20_000;
        let bus = DelayedBus::new(2, 0);
        bus.set_extra_delay_from(PartitionId(1), LAG_US);
        let cfg = WalConfig {
            scheme: LoggingScheme::CocoEpoch,
            interval_ms: 1,
            persist_delay_us: 100,
            force_update: false,
            ..WalConfig::default()
        };
        let logs = crate::build_logs(2, cfg);
        let gc = CocoCommit::new(2, cfg, bus, logs, crate::quiet_recorder());
        let ticket = gc.begin_txn(PartitionId(0), tid(1));
        let committed_at = now_us();
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        let waited_us = now_us() - committed_at;
        assert!(
            waited_us >= LAG_US,
            "durable {waited_us} us after the commit"
        );
        gc.shutdown();
    }

    #[test]
    fn committed_epochs_seal_a_boundary_in_every_log() {
        let bus = DelayedBus::new(2, 0);
        let cfg = WalConfig {
            scheme: LoggingScheme::CocoEpoch,
            interval_ms: 2,
            persist_delay_us: 0,
            force_update: false,
            ..WalConfig::default()
        };
        let wals = crate::build_logs(2, cfg);
        let gc = CocoCommit::new(2, cfg, bus, wals.clone(), crate::quiet_recorder());
        let ticket = gc.begin_txn(PartitionId(0), tid(1));
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        std::thread::sleep(Duration::from_millis(5));
        let committed = gc.committed_epoch();
        for wal in &wals {
            let lsn = wal
                .latest_durable_epoch_boundary(committed)
                .expect("boundary sealed");
            // The rollback bound for a crash in the next epoch covers the
            // sealed prefix.
            match gc.rollback_bound(committed + 1, wal) {
                crate::ReplayBound::Lsn(l) => assert!(l > lsn),
                other => panic!("unexpected bound {other:?}"),
            }
        }
        gc.shutdown();
    }

    #[test]
    fn snapshot_horizon_follows_sealed_epochs() {
        let gc = make(2);
        let p = PartitionId(0);
        let ticket = gc.begin_txn(p, tid(5));
        let ts = gc.reserve_commit_ts(&ticket, 0);
        let waiter = gc.txn_committed(&ticket, ts, 1);
        assert!(
            gc.snapshot_horizon(p) < ts,
            "commit of an unsealed epoch must stay above the horizon"
        );
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        // The epoch boundary sealed: the horizon covers the commit.
        assert!(gc.snapshot_horizon(p) >= ts);
        gc.shutdown();
    }

    #[test]
    fn the_horizon_moves_on_after_a_compensated_crash() {
        let gc = make(2);
        let p = PartitionId(0);
        gc.on_partition_crash(PartitionId(1));
        gc.on_compensation_complete();
        // The crash closed the gate; it reopens at the aborted epoch's
        // boundary, and a commit of the next epoch enters the horizon.
        assert!(gc.execution_gate(p, true));
        let ticket = gc.begin_txn(p, tid(6));
        let ts = gc.reserve_commit_ts(&ticket, 0);
        let waiter = gc.txn_committed(&ticket, ts, 1);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        assert!(gc.snapshot_horizon(p) >= ts);
        gc.shutdown();
    }

    #[test]
    fn gate_reopens_after_epoch_boundary() {
        let gc = make(2);
        // The gate may close briefly at the boundary but must always reopen.
        for _ in 0..5 {
            assert!(gc.execution_gate(PartitionId(0), true));
            std::thread::sleep(Duration::from_millis(2));
        }
        gc.shutdown();
    }

    #[test]
    fn active_txn_is_waited_for_before_commit() {
        let gc = make(2);
        let ticket = gc.begin_txn(PartitionId(0), tid(3));
        std::thread::sleep(Duration::from_millis(10));
        // Even though epochs ticked, our epoch cannot have committed yet
        // because the transaction is still active (the coordinator waits, up
        // to a timeout).
        let committed_before = gc.committed_epoch();
        assert!(committed_before < ticket.epoch || committed_before == 0);
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        gc.shutdown();
    }
}
