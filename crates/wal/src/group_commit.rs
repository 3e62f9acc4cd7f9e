//! The [`GroupCommit`] trait: how protocols hand transactions over to the
//! durability layer, and how they learn the final (durable) outcome.
//!
//! The life-cycle, shared by every scheme:
//!
//! 1. [`GroupCommit::begin_txn`] — the worker registers a new transaction on
//!    its coordinator partition (needed for watermark generation rule R1).
//! 2. [`GroupCommit::add_participant`] — every remote partition the
//!    transaction touches is registered too.
//! 3. [`GroupCommit::update_ts`] — as soon as a logical timestamp (or a lower
//!    bound) is known it is reported, so partition watermarks never overtake
//!    active transactions.
//! 4. [`GroupCommit::txn_committed`] / [`GroupCommit::txn_aborted`] — the
//!    protocol finished installing the write-set (or gave up).
//! 5. [`GroupCommit::wait_durable`] — the worker blocks until the group commit
//!    confirms (or crash-aborts) the transaction. This is the `return` phase
//!    of the latency breakdown (Fig 4c).

use crate::log::ReplayBound;
use crate::replicated::ReplicatedLog;
use parking_lot::Mutex;
use primo_common::{PartitionId, Ts, TxnId};
use primo_trace::FlightRecorder;
use std::sync::Arc;

/// Final, durable outcome of a transaction that finished its commit phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The transaction is durable on every involved partition; its result may
    /// be returned to the client.
    Committed,
    /// A crash forced the transaction (or its whole epoch) to be rolled back
    /// before it became durable.
    CrashAborted,
}

/// Per-transaction registration handle.
///
/// Shared (via `Arc`) between the protocol and the group-commit scheme so the
/// scheme can observe timestamp updates and participants without extra maps.
#[derive(Debug)]
pub struct TxnTicket {
    pub txn: TxnId,
    pub coordinator: PartitionId,
    /// Epoch assigned at begin (COCO); 0 for schemes without epochs.
    pub epoch: u64,
    pub(crate) state: Mutex<TicketState>,
}

#[derive(Debug, Default)]
pub(crate) struct TicketState {
    /// Latest known logical timestamp or lower bound (`lts`).
    pub ts: Ts,
    /// Remote partitions involved so far.
    pub participants: Vec<PartitionId>,
}

impl TxnTicket {
    pub fn new(txn: TxnId, coordinator: PartitionId, epoch: u64) -> Arc<Self> {
        Arc::new(TxnTicket {
            txn,
            coordinator,
            epoch,
            state: Mutex::new(TicketState::default()),
        })
    }

    pub fn current_ts(&self) -> Ts {
        self.state.lock().ts
    }

    pub fn participants(&self) -> Vec<PartitionId> {
        self.state.lock().participants.clone()
    }

    /// All partitions involved (coordinator + participants).
    pub fn involved(&self) -> Vec<PartitionId> {
        let mut v = self.participants();
        if !v.contains(&self.coordinator) {
            v.push(self.coordinator);
        }
        v
    }
}

/// Monotonic commit-timestamp source shared by the schemes whose
/// [`GroupCommit::finalize_commit_ts`] has no watermark floor to respect
/// (COCO, CLV, sync): protocol-provided timestamps pass through, everything
/// else draws from one global sequence.
#[derive(Debug)]
pub(crate) struct SeqTsSource(std::sync::atomic::AtomicU64);

impl SeqTsSource {
    pub(crate) fn new() -> Self {
        SeqTsSource(std::sync::atomic::AtomicU64::new(1))
    }

    /// Finalize a commit timestamp with a floor: protocol-provided `hint`s
    /// pass through, everything else draws from the sequence but always
    /// exceeds `floor`. The floor matters once a snapshot horizon exists — a
    /// protocol timestamp (`hint`) from a different logical domain may have
    /// ratcheted the horizon above the plain sequence, and a later
    /// sequence-drawn commit must not land at or below the published horizon.
    pub(crate) fn finalize_above(&self, hint: Ts, floor: Ts) -> Ts {
        if hint > 0 {
            return hint;
        }
        use std::sync::atomic::Ordering;
        loop {
            let cur = self.0.load(Ordering::Relaxed);
            let next = cur.max(floor + 1);
            if self
                .0
                .compare_exchange_weak(cur, next + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return next;
            }
        }
    }
}

/// Handle the worker blocks on during the `return` phase.
#[derive(Debug)]
pub struct CommitWaiter {
    pub txn: TxnId,
    pub coordinator: PartitionId,
    pub ts: Ts,
    pub epoch: u64,
    /// Set for schemes that resolve the outcome immediately (e.g. CLV / sync
    /// compute a deadline instead of waiting on a watermark).
    pub ready_at_us: Option<u64>,
}

/// A distributed group-commit / durability scheme.
pub trait GroupCommit: Send + Sync {
    /// Register a new transaction starting on `coord`.
    fn begin_txn(&self, coord: PartitionId, txn: TxnId) -> Arc<TxnTicket>;

    /// Report the transaction's logical timestamp (or a lower bound `lts`).
    fn update_ts(&self, ticket: &TxnTicket, ts: Ts) {
        let mut st = ticket.state.lock();
        st.ts = st.ts.max(ts);
    }

    /// Register a remote participant; `lts` is the lower bound of the
    /// transaction's final timestamp as known by that participant (the `wts`
    /// of its first accessed record there, §5.1 R1).
    fn add_participant(&self, ticket: &TxnTicket, p: PartitionId, lts: Ts);

    /// The transaction aborted during execution; deregister it everywhere.
    fn txn_aborted(&self, ticket: &TxnTicket);

    /// The transaction finished installing its write-set with final timestamp
    /// `ts`; `ops` is the number of records it touched (used by CLV to model
    /// dependency-tracking cost). Returns the waiter for the `return` phase.
    fn txn_committed(&self, ticket: &TxnTicket, ts: Ts, ops: usize) -> CommitWaiter;

    /// Block until the outcome of the transaction is known.
    fn wait_durable(&self, waiter: &CommitWaiter) -> CommitOutcome;

    /// Non-blocking probe of the outcome. Workers use this to keep executing
    /// new transactions while earlier ones wait for the group commit (the
    /// paper's workers likewise never idle on durability; only the *client*
    /// response is delayed).
    fn try_outcome(&self, waiter: &CommitWaiter) -> Option<CommitOutcome>;

    /// The current timestamp floor new transactions must exceed on this
    /// partition (watermark rule R2). Zero for schemes without watermarks.
    fn ts_floor(&self, _partition: PartitionId) -> Ts {
        0
    }

    /// Atomically apply the coordinator's timestamp floor to a
    /// protocol-proposed commit timestamp, entering the commit critical
    /// section: from this call until [`GroupCommit::txn_committed`] /
    /// [`GroupCommit::txn_aborted`], the scheme must not let its durability
    /// horizon overtake the returned timestamp. The watermark scheme pins
    /// `Wp` by registering the transaction in the coordinator's active table
    /// under the same lock its generator uses — without the pin, a watermark
    /// generated between timestamp assignment and the log append could
    /// publish (and expose to snapshot readers) a commit whose log entry is
    /// not durable yet. Schemes without such a horizon just apply the floor.
    fn reserve_commit_ts(&self, ticket: &TxnTicket, proposed: Ts) -> Ts {
        proposed.max(self.ts_floor(ticket.coordinator) + 1)
    }

    /// The MVCC snapshot horizon for read-only transactions coordinated on
    /// `partition`: a commit timestamp `h` such that (1) every version with
    /// `cts <= h` is durable and will never be crash-rolled-back, and (2) no
    /// in-flight or future transaction can still install a version with
    /// `cts <= h`. Reading "as of `h`" therefore needs no locks, no
    /// validation and can never abort. Zero (nothing readable yet) by
    /// default — schemes opt in.
    fn snapshot_horizon(&self, _partition: PartitionId) -> Ts {
        0
    }

    /// Crash compensation finished undoing every rolled-back write on the
    /// surviving partitions: version chains no longer contain any version a
    /// pending rollback could still purge, so the scheme may release the
    /// snapshot-horizon cap it raised at [`GroupCommit::on_partition_crash`]
    /// time. Until this is called the horizon stays conservatively capped
    /// below the crash agreement point.
    fn on_compensation_complete(&self) {}

    /// Whether a new transaction may *start* ([`GroupCommit::begin_txn`])
    /// right now: COCO closes this gate while it synchronously commits an
    /// epoch, other schemes never do. With `wait`, block until it may. The
    /// gate stops starts only — a transaction that holds a ticket must be
    /// allowed to finish behind a closed gate, or the epoch it belongs to
    /// never drains — so a caller that has such transactions in progress
    /// asks without waiting and goes on with them.
    fn execution_gate(&self, _partition: PartitionId, _wait: bool) -> bool {
        true
    }

    /// Assign the final commit timestamp of a transaction that is about to
    /// log + install its write-set. Protocols with logical timestamps pass
    /// them through (`hint > 0`); protocols without (plain 2PL, Silo, Aria)
    /// receive a monotonic sequence respecting the coordinator's watermark
    /// floor. Must be called **while the write locks are held** so that the
    /// per-key order of logged timestamps matches install order — recovery
    /// replays in commit-timestamp order and relies on this.
    fn finalize_commit_ts(&self, _ticket: &TxnTicket, hint: Ts) -> Ts {
        hint.max(1)
    }

    /// A partition crashed. The scheme agrees on a rollback point, resolves
    /// the affected pending waiters as [`CommitOutcome::CrashAborted`] and
    /// returns the agreed watermark / epoch for reporting.
    fn on_partition_crash(&self, p: PartitionId) -> Ts;

    /// Translate the token returned by [`GroupCommit::on_partition_crash`]
    /// into the bound recovery must respect when replaying `log`: the
    /// recovered watermark (Watermark), the boundary of the last committed
    /// epoch (COCO), or everything quorum-durable at crash time
    /// (CLV / sync, where the quorum-LSN cutoff captured at the crash
    /// instant is the only limit). Recovery clamps the replay to that
    /// crash-time cutoff itself; a bound never reads the live quorum, which
    /// may be broken by the time recovery (or a restarted recovery pass)
    /// runs.
    fn replay_bound(&self, _crash_token: Ts, _log: &ReplicatedLog) -> ReplayBound {
        ReplayBound::Lsn(u64::MAX)
    }

    /// The bound separating still-committed from crash-rolled-back
    /// transactions on a *surviving* partition's log, for the crash that
    /// returned `crash_token` from [`GroupCommit::on_partition_crash`]:
    /// every `TxnWrites` entry the bound does **not** cover was (or will be)
    /// reported [`CommitOutcome::CrashAborted`], so its installed writes
    /// must be compensated with their before-images. The default covers
    /// everything — correct for schemes that never crash-abort a
    /// transaction whose commit call returned (synchronous flush).
    fn survivor_rollback_bound(&self, _crash_token: Ts, _log: &ReplicatedLog) -> ReplayBound {
        ReplayBound::Lsn(u64::MAX)
    }

    /// Crash compensation sealed these transactions with `TxnRolledBack`
    /// markers and is about to undo their installed writes on surviving
    /// partitions. Schemes whose per-waiter verdict could still report one
    /// of them `Committed` (a transaction that finalized a rolled-back
    /// timestamp but registered its waiter only after the crash agreement)
    /// must remember the set and report such waiters `CrashAborted`, so the
    /// verdict a client sees always matches what happened to the store.
    /// Called *before* the first before-image is restored.
    fn on_txns_rolled_back(&self, _txns: &[TxnId]) {}

    /// A bound below which every logged transaction on `p` is committed and
    /// durable *right now* — what the checkpoint writer may safely fold into
    /// an image. Default: the quorum-durable prefix of the replicated log.
    fn checkpoint_bound(&self, _p: PartitionId, log: &ReplicatedLog) -> ReplayBound {
        ReplayBound::Lsn(log.durable_lsn().map_or(0, |l| l + 1))
    }

    /// A crashed partition finished rebuilding its store from checkpoint +
    /// log replay: re-seed whatever per-partition state the scheme keeps
    /// (the watermark scheme re-seeds `Wp` from the recovered value) before
    /// the partition becomes reachable again.
    fn on_partition_recover(&self, _p: PartitionId, _recovered_wp: Ts) {}

    /// Attach the cluster flight recorder so the scheme's background agents
    /// (watermark generators, the COCO coordinator, CLV's dependency cutter)
    /// can trace their horizon decisions. Called once by the cluster right
    /// after construction, before any transaction traffic; schemes without
    /// background decisions may ignore it.
    fn set_recorder(&self, _recorder: Arc<FlightRecorder>) {}

    /// Scheme label (for figures).
    fn label(&self) -> &'static str;

    /// Stop background threads.
    fn shutdown(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_tracks_participants_and_ts() {
        let t = TxnTicket::new(TxnId::new(PartitionId(0), 1), PartitionId(0), 0);
        assert_eq!(t.current_ts(), 0);
        {
            let mut st = t.state.lock();
            st.ts = 42;
            st.participants.push(PartitionId(2));
        }
        assert_eq!(t.current_ts(), 42);
        assert_eq!(t.participants(), vec![PartitionId(2)]);
        let mut inv = t.involved();
        inv.sort();
        assert_eq!(inv, vec![PartitionId(0), PartitionId(2)]);
    }
}
