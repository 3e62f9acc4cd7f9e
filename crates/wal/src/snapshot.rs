//! Snapshot-horizon tracking for the schemes without watermarks (CLV, sync,
//! COCO).
//!
//! The MVCC read path serves a read-only transaction "as of" a commit-time
//! horizon `h`. For `h` to need no locks, no validation and no aborts, two
//! properties must hold:
//!
//! 1. **Stability** — no in-flight or future transaction can still install a
//!    version with `cts <= h`. The tracker guarantees this by (a) feeding
//!    `GroupCommit::ts_floor` with the maximum finalized commit timestamp, so
//!    every later transaction commits strictly above it, and (b) keeping `h`
//!    at or below the floor each still-active transaction observed when it
//!    began.
//! 2. **Durability** — every version with `cts <= h` is durable and will
//!    never be crash-rolled-back. The tracker holds each committed
//!    transaction in a *pending* state (capping `h` below its `cts`) until
//!    the owning scheme's durability rule releases it: immediately for the
//!    synchronous flush, when the quorum-ack deadline passes for CLV, when
//!    the epoch's group commit seals for COCO. Transactions a crash dooms
//!    keep capping the horizon until crash compensation has purged their
//!    versions from the chains, and nothing is published while a crash is
//!    open.
//!
//! The published horizon is monotone (a `fetch_max`-updated atomic), so a
//! snapshot timestamp can be compared across partitions and over time.

use parking_lot::Mutex;
use primo_common::sim_time::now_us;
use primo_common::{PartitionId, Ts, TxnId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// When a committed-but-pending transaction becomes durable-forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// Durable before `txn_committed` returned (synchronous flush).
    Now,
    /// Durable once the simulated clock passes this instant (CLV quorum-ack
    /// deadline).
    AtUs(u64),
    /// Durable once this epoch's group commit seals (COCO).
    Epoch(u64),
}

#[derive(Debug)]
struct Pending {
    cts: Ts,
    release: Release,
    /// A crash rolled this transaction back: never release it; keep capping
    /// the horizon until compensation has purged its versions.
    doomed: bool,
}

#[derive(Debug, Default)]
struct Inner {
    /// Active transactions and the `ts_floor` each observed at begin. Their
    /// eventual commit timestamps all exceed their floor, so the horizon may
    /// not pass the smallest one.
    active: HashMap<TxnId, Ts>,
    /// Committed transactions whose durability is not yet unconditional.
    pending: HashMap<TxnId, Pending>,
    /// Largest commit timestamp among released (durable-forever) txns.
    max_released: Ts,
    /// A crash happened and compensation has not completed yet.
    crash_open: bool,
}

/// Shared horizon bookkeeping for CLV / sync / COCO (see module docs).
#[derive(Debug, Default)]
pub struct SnapshotTracker {
    inner: Mutex<Inner>,
    /// Published monotone horizon.
    horizon: AtomicU64,
    /// Maximum finalized commit timestamp — the `ts_floor` source.
    max_finalized: AtomicU64,
}

impl SnapshotTracker {
    /// The floor every new transaction's commit timestamp must exceed.
    pub fn ts_floor(&self) -> Ts {
        self.max_finalized.load(Ordering::Acquire)
    }

    /// A transaction finalized its commit timestamp (while holding its write
    /// locks).
    pub fn note_finalized(&self, cts: Ts) {
        self.max_finalized.fetch_max(cts, Ordering::AcqRel);
    }

    /// The scheme's [`crate::GroupCommit::reserve_commit_ts`]: a protocol's
    /// `proposed` timestamp lifted above the floor, or, for `proposed = 0`,
    /// the next timestamp above the floor, which becomes the new floor in
    /// the same atomic step. Drawing from the floor itself keeps a sequence
    /// commit above every timestamp finalized before it, protocol-provided
    /// ones included, so it can never land at or below a published horizon.
    pub fn reserve(&self, proposed: Ts) -> Ts {
        match proposed {
            0 => self.max_finalized.fetch_add(1, Ordering::AcqRel) + 1,
            p => p.max(self.ts_floor() + 1),
        }
    }

    /// Register a transaction at begin.
    pub fn begin(&self, txn: TxnId) {
        let floor = self.ts_floor();
        self.inner.lock().active.insert(txn, floor);
    }

    /// Deregister an aborted transaction.
    pub fn abort(&self, txn: TxnId) {
        self.inner.lock().active.remove(&txn);
        self.publish();
    }

    /// Move a committed transaction from active to pending. `doomed` marks a
    /// commit the scheme already knows a crash will roll back.
    pub fn commit(&self, txn: TxnId, cts: Ts, release: Release, doomed: bool) {
        // A proposed timestamp is not noted at reservation (Primo computes
        // it from record metadata), so the floor must learn it here: a
        // transaction beginning after this commit must record a floor at or
        // above `cts`, or it could later install below a horizon that
        // already passed `cts`.
        self.note_finalized(cts);
        let mut inner = self.inner.lock();
        inner.active.remove(&txn);
        if doomed && !inner.crash_open {
            // Straggler commit doomed by a crash whose compensation already
            // completed: nothing left to protect, drop it outright.
            drop(inner);
            self.publish();
            return;
        }
        if !doomed && release == Release::Now {
            inner.max_released = inner.max_released.max(cts);
        } else {
            inner.pending.insert(
                txn,
                Pending {
                    cts,
                    release,
                    doomed,
                },
            );
        }
        drop(inner);
        self.publish();
    }

    /// Release every pending transaction whose CLV quorum-ack deadline has
    /// passed.
    pub fn release_due(&self, now_us: u64) {
        let mut inner = self.inner.lock();
        let mut released = inner.max_released;
        inner.pending.retain(|_, p| {
            let due = !p.doomed && matches!(p.release, Release::AtUs(at) if at <= now_us);
            if due {
                released = released.max(p.cts);
            }
            !due
        });
        inner.max_released = released;
        drop(inner);
        self.publish();
    }

    /// Release every pending transaction of epochs up to and including
    /// `epoch` (its group commit sealed).
    pub fn release_epochs_through(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        let mut released = inner.max_released;
        inner.pending.retain(|_, p| {
            let due = !p.doomed && matches!(p.release, Release::Epoch(e) if e <= epoch);
            if due {
                released = released.max(p.cts);
            }
            !due
        });
        inner.max_released = released;
        drop(inner);
        self.publish();
    }

    /// A crash happened now: hold the horizon until compensation completes
    /// and return the instant. It is read under the lock
    /// [`Self::release_due`] releases under, so a commit released before it
    /// was durable by it.
    pub fn open_crash(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.crash_open = true;
        now_us()
    }

    /// A crash rolled back `txns`: doom those pending (a later commit of
    /// one of them is reported doomed).
    pub fn doom(&self, txns: &HashSet<TxnId>) {
        let mut inner = self.inner.lock();
        for (txn, p) in inner.pending.iter_mut() {
            p.doomed |= txns.contains(txn);
        }
    }

    /// A crash aborted this COCO epoch: doom its pending transactions.
    pub fn doom_epoch(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        inner.crash_open = true;
        for p in inner.pending.values_mut() {
            if p.release == Release::Epoch(epoch) {
                p.doomed = true;
            }
        }
    }

    /// The crashed partition's in-flight transactions may never report
    /// back; drop their active entries so the horizon is not pinned forever.
    pub fn drop_actives_of(&self, partition: PartitionId) {
        let mut inner = self.inner.lock();
        inner.active.retain(|txn, _| txn.coordinator() != partition);
        drop(inner);
        self.publish();
    }

    /// Crash compensation purged every rolled-back version from the chains:
    /// doomed transactions no longer need to cap the horizon.
    pub fn compensation_complete(&self) {
        let mut inner = self.inner.lock();
        inner.crash_open = false;
        inner.pending.retain(|_, p| !p.doomed);
        drop(inner);
        self.publish();
    }

    /// Recompute and publish the horizon (monotone). Frozen while a crash
    /// is open: until compensation completes it may still undo a commit
    /// reported after the crash instant (the log judges a persist window
    /// from the append, not the report), and the installed writes of the
    /// crashed partition's in-flight transactions, whose active entries the
    /// crash dropped.
    fn publish(&self) {
        let inner = self.inner.lock();
        if inner.crash_open {
            return;
        }
        let mut h = Ts::MAX;
        for floor in inner.active.values() {
            h = h.min(*floor);
        }
        for p in inner.pending.values() {
            h = h.min(p.cts.saturating_sub(1));
        }
        if h == Ts::MAX {
            h = inner.max_released;
        }
        drop(inner);
        self.horizon.fetch_max(h, Ordering::AcqRel);
    }

    /// The current snapshot horizon. `now_us` lets CLV-style deadlines
    /// release lazily on the read path.
    pub fn horizon(&self, now_us: u64) -> Ts {
        self.release_due(now_us);
        self.horizon.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
    }

    #[test]
    fn horizon_trails_active_transactions() {
        let t = SnapshotTracker::default();
        assert_eq!(t.horizon(0), 0);
        t.begin(tid(1));
        t.note_finalized(10);
        t.commit(tid(1), 10, Release::Now, false);
        assert_eq!(t.horizon(0), 10);
        // A transaction that began at floor 10 pins the horizon there even
        // after newer commits release.
        t.begin(tid(2));
        t.begin(tid(3));
        t.note_finalized(20);
        t.commit(tid(3), 20, Release::Now, false);
        assert_eq!(t.horizon(0), 10, "tid(2) began at floor 10");
        t.abort(tid(2));
        assert_eq!(t.horizon(0), 20);
    }

    #[test]
    fn reserve_draws_above_the_floor_and_lifts_proposals() {
        let t = SnapshotTracker::default();
        let a = t.reserve(0);
        assert!(a > 0);
        assert_eq!(t.ts_floor(), a, "a drawn timestamp is the new floor");
        // A protocol timestamp from another domain raises the floor; the
        // next draw lands above it.
        t.note_finalized(100);
        let b = t.reserve(0);
        assert!(b > 100);
        // A proposal is lifted above the floor, not noted.
        assert_eq!(t.reserve(5), b + 1);
        assert_eq!(t.reserve(500), 500);
        assert_eq!(t.ts_floor(), b);
    }

    #[test]
    fn pending_caps_until_released() {
        let t = SnapshotTracker::default();
        t.begin(tid(1));
        t.note_finalized(7);
        t.commit(tid(1), 7, Release::AtUs(100), false);
        assert_eq!(t.horizon(50), 6, "undurable commit caps the horizon");
        assert_eq!(t.horizon(100), 7, "released at its quorum-ack deadline");
    }

    #[test]
    fn epochs_release_in_bulk() {
        let t = SnapshotTracker::default();
        for (seq, cts) in [(1u64, 5u64), (2, 6)] {
            t.begin(tid(seq));
            t.note_finalized(cts);
            t.commit(tid(seq), cts, Release::Epoch(3), false);
        }
        assert_eq!(t.horizon(0), 4);
        t.release_epochs_through(2);
        assert_eq!(t.horizon(0), 4);
        t.release_epochs_through(3);
        assert_eq!(t.horizon(0), 6);
    }

    #[test]
    fn doomed_transactions_cap_until_compensation() {
        let t = SnapshotTracker::default();
        t.begin(tid(1));
        t.note_finalized(9);
        t.commit(tid(1), 9, Release::AtUs(now_us() + 1_000_000), false);
        t.open_crash();
        t.doom(&HashSet::from([tid(1)]));
        assert_eq!(
            t.horizon(u64::MAX),
            8,
            "doomed txn still caps after its deadline"
        );
        t.compensation_complete();
        t.begin(tid(2));
        t.note_finalized(12);
        t.commit(tid(2), 12, Release::Now, false);
        assert_eq!(t.horizon(u64::MAX), 12, "doomed txn never releases");
    }

    #[test]
    fn the_horizon_holds_while_a_crash_is_open() {
        let t = SnapshotTracker::default();
        t.begin(tid(1));
        let dead = TxnId::new(PartitionId(1), 2);
        t.begin(dead);
        t.note_finalized(9);
        let crash_us = t.open_crash();
        t.drop_actives_of(PartitionId(1));
        // Reported after the crash and not rolled back by it.
        t.commit(tid(1), 9, Release::AtUs(crash_us + 50), false);
        assert_eq!(t.horizon(u64::MAX), 0, "held while compensation runs");
        t.compensation_complete();
        assert_eq!(t.horizon(u64::MAX), 9);
    }

    #[test]
    fn crashed_partition_actives_are_dropped() {
        let t = SnapshotTracker::default();
        t.note_finalized(5);
        let dead = TxnId::new(PartitionId(1), 1);
        t.begin(dead);
        t.begin(tid(2));
        t.note_finalized(8);
        t.commit(tid(2), 8, Release::Now, false);
        assert_eq!(t.horizon(0), 5);
        t.drop_actives_of(PartitionId(1));
        assert_eq!(t.horizon(0), 8);
    }
}
