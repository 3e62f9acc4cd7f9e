//! A single record: payload + TicToc timestamps + its lock + its lifecycle
//! state.

use crate::lock::{LockMode, LockPolicy, LockRequestResult, RecordLock};
use parking_lot::Mutex;
use primo_common::{Row, TxnId, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lifecycle of a record in its table.
///
/// "Existing in the table's hash map" is *not* the same as "existing in the
/// database": an insert materialises its record before the commit decision
/// (so it can be locked and installed into), and a delete leaves a tombstone
/// behind until the deferred-reclamation pass physically unlinks it. The
/// state machine makes both intermediate states explicit so readers never
/// observe a phantom:
///
/// ```text
///              install (commit)
///   (absent) ──create──▶ UncommittedInsert{owner} ──▶ Visible
///        ▲                   │ abort: unlink             │ delete install
///        └───────────────────┘                           ▼
///   (absent) ◀──reclaim── Tombstone ◀────────────────────┘
///                            │  insert: revive (abort restores Tombstone)
///                            └────────▶ UncommittedInsert{owner}
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleState {
    /// A committed record: readable by everyone.
    Visible,
    /// Created by `owner` for an insert whose transaction has not committed.
    /// Invisible to every other transaction.
    UncommittedInsert { owner: TxnId },
    /// Deleted by a committed transaction; awaiting physical unlink by the
    /// deferred-reclamation pass. Invisible to everyone.
    Tombstone,
}

// The state is packed into one atomic word: transitions happen either under
// the record's exclusive lock (install paths) or under the table-shard lock
// (create / revive / unlink / reclaim), so a plain store/CAS word is enough.
const STATE_VISIBLE: u64 = 0;
const STATE_TOMBSTONE: u64 = 1;
const STATE_UNCOMMITTED_TAG: u64 = 2;

fn encode_state(state: LifecycleState) -> u64 {
    match state {
        LifecycleState::Visible => STATE_VISIBLE,
        LifecycleState::Tombstone => STATE_TOMBSTONE,
        LifecycleState::UncommittedInsert { owner } => (owner.pack() << 2) | STATE_UNCOMMITTED_TAG,
    }
}

fn decode_state(raw: u64) -> LifecycleState {
    match raw {
        STATE_VISIBLE => LifecycleState::Visible,
        STATE_TOMBSTONE => LifecycleState::Tombstone,
        _ => LifecycleState::UncommittedInsert {
            owner: TxnId::unpack(raw >> 2),
        },
    }
}

/// Default bound on the number of retained versions (current + history).
/// Small on purpose: snapshot readers run at the group-commit horizon, which
/// trails the newest commit only by the durability delay, so a short chain
/// almost always suffices and memory stays flat under write-heavy churn.
pub const DEFAULT_MAX_VERSIONS: usize = 4;

/// Commit timestamp of a version that was never committed (uncommitted
/// inserts before their install).
const CTS_UNCOMMITTED: u64 = u64::MAX;
/// Commit timestamp of a version installed through a legacy un-timestamped
/// path: its position on the commit-time axis is unknown, so snapshot reads
/// of the record must fall back to the normal protocol path.
const CTS_UNKNOWN: u64 = u64::MAX - 1;

/// One superseded committed version in a record's bounded history chain.
/// `value == None` records a committed deletion (the key was absent from
/// `cts` until the next version).
#[derive(Debug, Clone)]
pub struct Version {
    /// Commit timestamp at which this version became current.
    pub cts: u64,
    /// Payload, or `None` for a deletion version.
    pub value: Option<Value>,
}

impl Version {
    /// An unused slot of a record's history buffer.
    const FREE: Version = Version {
        cts: 0,
        value: None,
    };
}

/// Outcome of a snapshot read ([`Record::read_at`]) at a horizon `h`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotRead {
    /// The version current as of `h`.
    Value(Value),
    /// The key was authoritatively absent (deleted or never inserted) at `h`.
    Absent,
    /// The chain cannot answer for `h` (version evicted, or an
    /// un-timestamped install in the way): the caller must fall back to the
    /// protocol read path.
    Miss,
}

/// The versioned payload of a record together with its TicToc metadata.
///
/// `wts` is the logical time the current version was written; `rts` is the
/// end of the interval in which the version is known to be valid
/// (`rts >= wts`, §4.2.1).
#[derive(Debug, Clone)]
pub struct RecordData {
    pub value: Value,
    pub wts: u64,
    pub rts: u64,
    /// Commit timestamp of the current version — the group-commit domain
    /// (`reserve_commit_ts`), which for counter-based protocols differs
    /// from `wts`.
    cts: u64,
    /// The current version is a committed deletion. Kept inside the data
    /// mutex (unlike the lifecycle word) so snapshot reads see payload and
    /// deletion flag atomically.
    deleted: bool,
    /// Superseded committed versions, oldest first: the first
    /// `history_len` slots of `history`. The buffer is allocated at the
    /// bound, `max_versions - 1` slots, on the first superseded version and
    /// kept for the record's life; a boxed slice with a `u16` length keeps
    /// every record 8 bytes smaller than a `Vec` would.
    history: Box<[Version]>,
    history_len: u16,
    /// The chain is complete for horizons `>= floor_cts`: a miss at such a
    /// horizon means the key was absent. Below it the answer is unknown
    /// (versions evicted / restored from a checkpoint image).
    floor_cts: u64,
    /// Bound on retained versions (current + history), `>= 1`. A `u16`
    /// packs beside `deleted` and `history_len`, keeping the record's size.
    max_versions: u16,
}

impl RecordData {
    /// Push the current version into the history chain before it is
    /// overwritten by a new install committing at `new_cts`. Handles the
    /// sentinel states and the capacity bound, raising `floor_cts` whenever
    /// pre-`new_cts` history becomes unanswerable. Returns whether a
    /// superseded committed version was kept in the chain — what a
    /// reclamation pass would have to drop later.
    fn push_current_version(&mut self, new_cts: u64) -> bool {
        if self.cts == CTS_UNCOMMITTED {
            // First committed version of a runtime-created record. There is
            // no committed version to preserve, and the chain can answer from
            // this install on — but *only* from it on: a previous incarnation
            // of the key may have lived and been reclaimed before this record
            // existed, so horizons below the first commit stay unanswerable.
            self.floor_cts = new_cts;
            return false;
        }
        if self.cts == CTS_UNKNOWN || new_cts == CTS_UNKNOWN {
            // An un-timestamped version sits between the retained history
            // and the new current version: everything below the new install
            // is unanswerable. Drop the stale chain and close the gap.
            self.truncate_history(0);
            self.floor_cts = if new_cts == CTS_UNKNOWN {
                CTS_UNKNOWN
            } else {
                new_cts
            };
            return false;
        }
        if new_cts < self.cts {
            // Out-of-order commit timestamps (reachable only through direct
            // test/tooling installs — protocol installs finalize under the
            // write lock, so per-record cts is monotone): the chain's
            // ordering premise is broken. Drop it and stop answering below
            // the newer of the two.
            self.truncate_history(0);
            self.floor_cts = self.floor_cts.max(self.cts);
            return false;
        }
        if self.max_versions <= 1 {
            self.floor_cts = self.floor_cts.max(new_cts);
            return false;
        }
        let value = if self.deleted {
            None
        } else {
            Some(self.value.clone())
        };
        let bound = usize::from(self.max_versions) - 1;
        while self.history().len() >= bound {
            self.drop_oldest(1);
            // The oldest retained version now bounds what the chain can
            // answer.
            let oldest = self.history().first().map_or(self.cts, |v| v.cts);
            self.floor_cts = self.floor_cts.max(oldest);
        }
        // Evicting first keeps the chain within the bound, so its one
        // allocation, made on the first superseded version, is never
        // outgrown.
        if self.history.is_empty() {
            self.history = (0..bound).map(|_| Version::FREE).collect();
        }
        self.history[usize::from(self.history_len)] = Version {
            cts: self.cts,
            value,
        };
        self.history_len += 1;
        true
    }

    /// The retained history, oldest first.
    fn history(&self) -> &[Version] {
        &self.history[..usize::from(self.history_len)]
    }

    /// Keep the oldest `n` history versions; the freed slots let go of
    /// their values.
    fn truncate_history(&mut self, n: usize) {
        for slot in &mut self.history[n..usize::from(self.history_len)] {
            *slot = Version::FREE;
        }
        self.history_len = n as u16;
    }

    /// Drop the oldest `n` history versions.
    fn drop_oldest(&mut self, n: usize) {
        let len = usize::from(self.history_len);
        self.history[..len].rotate_left(n);
        self.truncate_history(len - n);
    }

    /// Keep the history versions `keep` holds, in order.
    fn retain_history(&mut self, keep: impl Fn(&Version) -> bool) {
        let mut kept = 0;
        for i in 0..usize::from(self.history_len) {
            if keep(&self.history[i]) {
                self.history.swap(kept, i);
                kept += 1;
            }
        }
        self.truncate_history(kept);
    }
}

/// A record stored in a partition.
///
/// The payload/timestamps are protected by a short-critical-section mutex;
/// transaction-duration ownership is expressed through the embedded
/// [`RecordLock`]. Protocols combine the two as they see fit: 2PL/WCF hold
/// the lock across the transaction, OCC schemes only lock during
/// validation/installation.
#[derive(Debug)]
pub struct Record {
    data: Mutex<RecordData>,
    lock: RecordLock,
    /// Encoded [`LifecycleState`].
    state: AtomicU64,
}

impl Record {
    /// A committed ([`LifecycleState::Visible`]) record keeping the
    /// default number of versions — loaders and commit-time creation use
    /// this.
    pub fn new(value: Value) -> Self {
        Self::with_max_versions(value, DEFAULT_MAX_VERSIONS)
    }

    /// A committed record keeping up to `max_versions` versions (current +
    /// history); `max_versions` must be `>= 1`.
    pub fn with_max_versions(value: Value, max_versions: usize) -> Self {
        Self::with_state(value, LifecycleState::Visible, max_versions)
    }

    /// A record created ahead of its commit decision by an insert, keeping
    /// up to `max_versions` versions once committed.
    pub fn new_uncommitted(value: Value, owner: TxnId, max_versions: usize) -> Self {
        Self::with_state(
            value,
            LifecycleState::UncommittedInsert { owner },
            max_versions,
        )
    }

    fn with_state(value: Value, state: LifecycleState, max_versions: usize) -> Self {
        assert!(
            max_versions >= 1,
            "a record keeps at least its current version"
        );
        let cts = match state {
            // Loader-created records are the initial database image,
            // committed "at time zero" and visible to every snapshot.
            LifecycleState::Visible => 0,
            LifecycleState::Tombstone => 0,
            LifecycleState::UncommittedInsert { .. } => CTS_UNCOMMITTED,
        };
        // A runtime-created (uncommitted) record cannot answer for *any*
        // horizon until its first commit sets the floor: the key may have
        // had a reclaimed earlier incarnation this record knows nothing
        // about. Loader records are the time-zero image and answer fully.
        let floor_cts = match state {
            LifecycleState::UncommittedInsert { .. } => CTS_UNCOMMITTED,
            _ => 0,
        };
        Record {
            data: Mutex::new(RecordData {
                value,
                wts: 0,
                rts: 0,
                cts,
                deleted: matches!(state, LifecycleState::Tombstone),
                history: Box::default(),
                history_len: 0,
                floor_cts,
                max_versions: u16::try_from(max_versions).expect("a version bound fits a u16"),
            }),
            lock: RecordLock::new(),
            state: AtomicU64::new(encode_state(state)),
        }
    }

    /// A record rebuilt during crash recovery from a checkpoint image or log
    /// replay: `Visible` with `wts = rts = ts`, and a version chain that
    /// answers only for horizons `>= ts` (the image does not carry the
    /// record's pre-`ts` history).
    pub fn restored(value: Value, ts: u64, max_versions: usize) -> Self {
        let mut rec = Self::with_max_versions(value, max_versions);
        let d = rec.data.get_mut();
        d.wts = ts;
        d.rts = ts;
        d.cts = ts;
        d.floor_cts = ts;
        rec
    }

    /// Current lifecycle state.
    pub fn state(&self) -> LifecycleState {
        decode_state(self.state.load(Ordering::Acquire))
    }

    /// True if `txn` may read this record: it is committed, or it is `txn`'s
    /// own uncommitted insert.
    pub fn is_visible_to(&self, txn: TxnId) -> bool {
        match self.state() {
            LifecycleState::Visible => true,
            LifecycleState::UncommittedInsert { owner } => owner == txn,
            LifecycleState::Tombstone => false,
        }
    }

    /// Transition `UncommittedInsert{owner}` back to `Tombstone` (abort-time
    /// undo of an insert that revived a tombstoned record). Returns false if
    /// the state changed in the meantime (the insert was installed).
    pub fn restore_tombstone(&self, owner: TxnId) -> bool {
        let expected = encode_state(LifecycleState::UncommittedInsert { owner });
        self.state
            .compare_exchange(
                expected,
                STATE_TOMBSTONE,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Force a lifecycle state. Only table-level code (shard-locked create /
    /// revive) and install paths may call this.
    pub(crate) fn set_state(&self, state: LifecycleState) {
        self.state.store(encode_state(state), Ordering::Release);
    }

    /// Atomically snapshot the payload and timestamps.
    pub fn read(&self) -> Row {
        let d = self.data.lock();
        Row::new(d.value.clone(), d.wts, d.rts)
    }

    /// Current `(wts, rts)` pair.
    pub fn timestamps(&self) -> (u64, u64) {
        let d = self.data.lock();
        (d.wts, d.rts)
    }

    /// Current write timestamp (doubles as Silo's TID word / version).
    pub fn wts(&self) -> u64 {
        self.data.lock().wts
    }

    /// Install a new version with `wts = rts = ts` (TicToc write rule).
    /// Installing commits the version, so the record becomes
    /// [`LifecycleState::Visible`] (this is the `UncommittedInsert → Visible`
    /// flip of the lifecycle, and also revives a record a delete+insert pair
    /// went through). The previous committed version is pushed onto the
    /// bounded history chain; `ts` doubles as the commit timestamp. Returns
    /// whether the chain kept it (a first install supersedes nothing).
    pub fn install(&self, value: Value, ts: u64) -> bool {
        let mut d = self.data.lock();
        let superseded = d.push_current_version(ts);
        d.value = value;
        d.wts = ts;
        d.rts = ts;
        d.cts = ts;
        d.deleted = false;
        drop(d);
        self.set_state(LifecycleState::Visible);
        superseded
    }

    /// Install a new version, bumping the version counter by one (used by
    /// protocols without logical timestamps, e.g. plain 2PL and Silo). Flips
    /// the record [`LifecycleState::Visible`] like [`Record::install`].
    ///
    /// The version carries no commit timestamp, so the record's chain stops
    /// answering snapshot reads until a timestamped install closes the gap —
    /// protocol call-sites pass their finalized group-commit timestamp via
    /// [`Record::install_next_version_at`] instead.
    pub fn install_next_version(&self, value: Value) -> u64 {
        self.next_version(Some(value), CTS_UNKNOWN).0
    }

    /// [`Record::install_next_version`] with the transaction's finalized
    /// group-commit timestamp `cts`, which orders the version on the
    /// commit-time axis for snapshot readers while `wts` keeps counting for
    /// OCC validation. Returns whether the chain kept the superseded version
    /// ([`Record::install`]).
    pub fn install_next_version_at(&self, value: Value, cts: u64) -> bool {
        self.next_version(Some(value), cts).1
    }

    /// Install a committed delete at timestamp `ts`: the record becomes a
    /// [`LifecycleState::Tombstone`] and its `wts` advances so that
    /// concurrent optimistic readers fail validation instead of resurrecting
    /// the deleted version. A deletion version (`value = None`) is what the
    /// chain records, so snapshot readers below `ts` still see the old value
    /// and readers at or above it see the key as absent. Returns whether the
    /// chain kept the superseded version ([`Record::install`]).
    pub fn install_tombstone(&self, ts: u64) -> bool {
        let mut d = self.data.lock();
        let superseded = d.push_current_version(ts);
        if d.wts < ts {
            d.wts = ts;
        } else {
            d.wts += 1;
        }
        d.rts = d.wts;
        d.cts = ts;
        d.deleted = true;
        drop(d);
        self.set_state(LifecycleState::Tombstone);
        superseded
    }

    /// [`Record::install_tombstone`] for protocols without logical
    /// timestamps: bump the version counter instead.
    pub fn install_tombstone_next_version(&self) -> u64 {
        self.next_version(None, CTS_UNKNOWN).0
    }

    /// [`Record::install_tombstone_next_version`] with the transaction's
    /// finalized group-commit timestamp (see
    /// [`Record::install_next_version_at`]).
    pub fn install_tombstone_next_version_at(&self, cts: u64) -> bool {
        self.next_version(None, cts).1
    }

    /// Install `value` (`None`: a deletion) at commit timestamp `cts`,
    /// bumping the version counter: the new `wts`, and whether the chain
    /// kept the superseded version.
    fn next_version(&self, value: Option<Value>, cts: u64) -> (u64, bool) {
        let mut d = self.data.lock();
        let superseded = d.push_current_version(cts);
        d.deleted = value.is_none();
        if let Some(value) = value {
            d.value = value;
        }
        d.wts += 1;
        d.rts = d.wts;
        d.cts = cts;
        let (wts, deleted) = (d.wts, d.deleted);
        drop(d);
        self.set_state(if deleted {
            LifecycleState::Tombstone
        } else {
            LifecycleState::Visible
        });
        (wts, superseded)
    }

    /// Resolve the version current as of commit-time horizon `h` — the MVCC
    /// snapshot read. Lock-free in the transactional sense: it takes only
    /// the record's short data mutex, never the [`RecordLock`], and needs no
    /// validation because versions at or below a group-commit horizon are
    /// immutable by construction.
    pub fn read_at(&self, h: u64) -> SnapshotRead {
        let d = self.data.lock();
        if d.cts == CTS_UNKNOWN {
            // An un-timestamped install may or may not predate `h`.
            return SnapshotRead::Miss;
        }
        if d.cts != CTS_UNCOMMITTED && d.cts <= h {
            return if d.deleted {
                SnapshotRead::Absent
            } else {
                SnapshotRead::Value(d.value.clone())
            };
        }
        for v in d.history().iter().rev() {
            if v.cts <= h {
                return match &v.value {
                    Some(value) => SnapshotRead::Value(value.clone()),
                    None => SnapshotRead::Absent,
                };
            }
        }
        if h >= d.floor_cts {
            SnapshotRead::Absent
        } else {
            SnapshotRead::Miss
        }
    }

    /// Crash compensation: reinstate the before-image `prev` in place of the
    /// rolled-back version committed at `ts`. Every version with `cts >= ts`
    /// is purged from the chain (it belongs to a crash-aborted transaction);
    /// the before-image's original history entry keeps serving snapshot
    /// horizons below `ts`. Where that entry is gone — reclaimed or evicted
    /// while the before-image was the current version, with the rolled-back
    /// install never made over it (a commit that logged, then saw the crash)
    /// or made and unmade since — nothing in the chain knows when `prev` was
    /// committed, so nothing below `ts` is answered any more: a reader there
    /// gets a *miss* and takes the protocol path, never an older version or
    /// an absence.
    pub fn revert(&self, prev: Value, ts: u64) {
        let mut d = self.data.lock();
        d.retain_history(|v| v.cts < ts);
        if d.history().last().and_then(|v| v.value.as_ref()) != Some(&prev) {
            d.truncate_history(0);
            d.floor_cts = d.floor_cts.max(ts);
        }
        d.value = prev;
        d.wts = ts;
        d.rts = ts;
        d.cts = ts;
        d.deleted = false;
        drop(d);
        self.set_state(LifecycleState::Visible);
    }

    /// Crash compensation for a rolled-back insert whose slot must revert to
    /// a deleted state: purge versions at or above `ts` and leave a
    /// tombstone. See [`Record::revert`].
    pub fn revert_to_tombstone(&self, ts: u64) {
        let mut d = self.data.lock();
        d.retain_history(|v| v.cts < ts);
        if d.wts < ts {
            d.wts = ts;
        } else {
            d.wts += 1;
        }
        d.rts = d.wts;
        d.cts = ts;
        d.deleted = true;
        drop(d);
        self.set_state(LifecycleState::Tombstone);
    }

    /// Drop every history version shadowed by a newer version committed at
    /// or below `bound` — the version-chain GC. Snapshot horizons are
    /// monotone, so once the newest version with `cts <= bound` exists,
    /// older versions can never be read again. Returns how many versions
    /// were pruned.
    pub fn prune_versions(&self, bound: u64) -> usize {
        let mut d = self.data.lock();
        if d.history().is_empty() {
            return 0;
        }
        let current_covers = d.cts != CTS_UNCOMMITTED && d.cts != CTS_UNKNOWN && d.cts <= bound;
        let cut = if current_covers {
            d.history().len()
        } else {
            // Keep the newest history version with cts <= bound (it serves
            // horizons in `[its cts, bound]`); everything older is dead.
            d.history()
                .iter()
                .rposition(|v| v.cts <= bound)
                .unwrap_or_default()
        };
        if cut == 0 {
            return 0;
        }
        d.drop_oldest(cut);
        let oldest = d.history().first().map(|v| v.cts).unwrap_or(d.cts);
        if oldest != CTS_UNCOMMITTED && oldest != CTS_UNKNOWN {
            d.floor_cts = d.floor_cts.max(oldest);
        }
        cut
    }

    /// Number of retained history versions (excluding the current one).
    pub fn version_chain_len(&self) -> usize {
        self.data.lock().history().len()
    }

    /// Extend the valid interval so that it covers `ts` (TicToc
    /// `rts = max(rts, ts)`).
    pub fn extend_rts(&self, ts: u64) {
        let mut d = self.data.lock();
        if d.rts < ts {
            d.rts = ts;
        }
    }

    /// Raise both timestamps to at least `floor`. Used by participants to
    /// enforce watermark monotonicity (R2 in §5.1): if `wts <= Wp`, set
    /// `wts = rts = Wp + 1` before returning the record to the coordinator.
    pub fn raise_watermark_floor(&self, floor: u64) {
        let mut d = self.data.lock();
        if d.wts <= floor {
            d.wts = floor + 1;
            if d.rts < d.wts {
                d.rts = d.wts;
            }
        }
    }

    /// The record's lock.
    pub fn lock(&self) -> &RecordLock {
        &self.lock
    }

    /// Convenience: acquire this record's lock.
    pub fn acquire(&self, txn: TxnId, mode: LockMode, policy: LockPolicy) -> LockRequestResult {
        self.lock.acquire(txn, mode, policy)
    }

    /// Convenience: release this record's lock.
    pub fn release(&self, txn: TxnId) {
        self.lock.release(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::PartitionId;

    fn t(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
    }

    #[test]
    fn install_sets_both_timestamps() {
        let r = Record::new(Value::from_u64(1));
        r.install(Value::from_u64(2), 7);
        let row = r.read();
        assert_eq!(row.value.as_u64(), 2);
        assert_eq!((row.wts, row.rts), (7, 7));
    }

    #[test]
    fn extend_rts_never_shrinks() {
        let r = Record::new(Value::from_u64(0));
        r.install(Value::from_u64(1), 5);
        r.extend_rts(9);
        assert_eq!(r.timestamps(), (5, 9));
        r.extend_rts(3);
        assert_eq!(r.timestamps(), (5, 9));
    }

    #[test]
    fn next_version_increments() {
        let r = Record::new(Value::from_u64(0));
        let v1 = r.install_next_version(Value::from_u64(1));
        let v2 = r.install_next_version(Value::from_u64(2));
        assert!(v2 > v1);
        assert_eq!(r.wts(), v2);
    }

    #[test]
    fn watermark_floor_raises_old_records() {
        let r = Record::new(Value::from_u64(0));
        r.install(Value::from_u64(1), 3);
        r.raise_watermark_floor(10);
        assert_eq!(r.timestamps(), (11, 11));
        // Already-new records are untouched.
        r.install(Value::from_u64(2), 20);
        r.raise_watermark_floor(10);
        assert_eq!(r.timestamps(), (20, 20));
    }

    #[test]
    fn lifecycle_roundtrips_through_the_atomic_encoding() {
        let r = Record::new(Value::from_u64(0));
        assert_eq!(r.state(), LifecycleState::Visible);
        let owner = TxnId::new(PartitionId(3), 1 << 39);
        let u = Record::new_uncommitted(Value::EMPTY, owner, DEFAULT_MAX_VERSIONS);
        assert_eq!(u.state(), LifecycleState::UncommittedInsert { owner });
        assert!(u.is_visible_to(owner));
        assert!(!u.is_visible_to(t(999)));
        u.set_state(LifecycleState::Tombstone);
        assert_eq!(u.state(), LifecycleState::Tombstone);
        assert!(!u.is_visible_to(owner));
    }

    #[test]
    fn install_commits_an_uncommitted_insert() {
        let owner = t(5);
        let r = Record::new_uncommitted(Value::EMPTY, owner, DEFAULT_MAX_VERSIONS);
        r.install(Value::from_u64(7), 3);
        assert_eq!(r.state(), LifecycleState::Visible);
        let v = Record::new_uncommitted(Value::EMPTY, owner, DEFAULT_MAX_VERSIONS);
        v.install_next_version(Value::from_u64(1));
        assert_eq!(v.state(), LifecycleState::Visible);
    }

    #[test]
    fn tombstone_install_bumps_wts_past_readers() {
        let r = Record::new(Value::from_u64(1));
        r.install(Value::from_u64(2), 10);
        r.install_tombstone(5); // ts below current wts still advances it
        assert_eq!(r.state(), LifecycleState::Tombstone);
        assert!(r.wts() > 10, "validation of concurrent readers must fail");
        let s = Record::new(Value::from_u64(1));
        let w0 = s.install_next_version(Value::from_u64(2));
        assert!(s.install_tombstone_next_version() > w0);
        assert_eq!(s.state(), LifecycleState::Tombstone);
    }

    #[test]
    fn restore_tombstone_is_a_guarded_cas() {
        let owner = t(9);
        let r = Record::new(Value::from_u64(0));
        r.set_state(LifecycleState::Tombstone);
        r.set_state(LifecycleState::UncommittedInsert { owner });
        // The revival aborts: the record returns to Tombstone.
        assert!(r.restore_tombstone(owner));
        assert_eq!(r.state(), LifecycleState::Tombstone);
        // Once installed (Visible), a stale undo must not clobber the state.
        r.set_state(LifecycleState::UncommittedInsert { owner });
        r.install(Value::from_u64(1), 4);
        assert!(!r.restore_tombstone(owner));
        assert_eq!(r.state(), LifecycleState::Visible);
    }

    #[test]
    fn snapshot_reads_walk_the_version_chain() {
        let r = Record::new(Value::from_u64(10));
        r.install(Value::from_u64(20), 5);
        r.install(Value::from_u64(30), 9);
        // Initial image at cts 0, then versions at 5 and 9.
        assert_eq!(r.read_at(0), SnapshotRead::Value(Value::from_u64(10)));
        assert_eq!(r.read_at(4), SnapshotRead::Value(Value::from_u64(10)));
        assert_eq!(r.read_at(5), SnapshotRead::Value(Value::from_u64(20)));
        assert_eq!(r.read_at(8), SnapshotRead::Value(Value::from_u64(20)));
        assert_eq!(r.read_at(9), SnapshotRead::Value(Value::from_u64(30)));
        assert_eq!(
            r.read_at(u64::MAX - 2),
            SnapshotRead::Value(Value::from_u64(30))
        );
    }

    #[test]
    fn snapshot_sees_deletions_as_absent_below_and_at_horizon() {
        let r = Record::new(Value::from_u64(1));
        r.install(Value::from_u64(2), 3);
        r.install_tombstone(7);
        assert_eq!(r.read_at(6), SnapshotRead::Value(Value::from_u64(2)));
        assert_eq!(r.read_at(7), SnapshotRead::Absent);
        // Reinsert after the delete: the deletion version stays in history.
        r.install(Value::from_u64(9), 11);
        assert_eq!(r.read_at(10), SnapshotRead::Absent);
        assert_eq!(r.read_at(11), SnapshotRead::Value(Value::from_u64(9)));
        assert_eq!(r.read_at(3), SnapshotRead::Value(Value::from_u64(2)));
    }

    #[test]
    fn uncommitted_inserts_are_invisible_to_snapshots() {
        let r = Record::new_uncommitted(Value::zeroed(8), t(1), DEFAULT_MAX_VERSIONS);
        // Unanswerable, not absent: an earlier incarnation of the key may
        // have been reclaimed before this record was created.
        assert_eq!(r.read_at(100), SnapshotRead::Miss);
        r.install(Value::from_u64(5), 50);
        assert_eq!(r.read_at(49), SnapshotRead::Miss);
        assert_eq!(r.read_at(50), SnapshotRead::Value(Value::from_u64(5)));
    }

    #[test]
    fn untimestamped_installs_force_fallback() {
        let r = Record::new(Value::from_u64(1));
        r.install_next_version(Value::from_u64(2));
        assert_eq!(r.read_at(0), SnapshotRead::Miss);
        assert_eq!(r.read_at(u64::MAX - 2), SnapshotRead::Miss);
        // A timestamped install closes the gap from its cts upward.
        r.install(Value::from_u64(3), 40);
        assert_eq!(r.read_at(40), SnapshotRead::Value(Value::from_u64(3)));
        assert_eq!(r.read_at(39), SnapshotRead::Miss);
    }

    #[test]
    fn capacity_eviction_raises_the_floor() {
        let r = Record::with_max_versions(Value::from_u64(0), 2);
        r.install(Value::from_u64(1), 10);
        r.install(Value::from_u64(2), 20);
        // Chain holds current (cts 20) + one history version (cts 10); the
        // initial image was evicted.
        assert_eq!(r.version_chain_len(), 1);
        assert_eq!(r.read_at(20), SnapshotRead::Value(Value::from_u64(2)));
        assert_eq!(r.read_at(10), SnapshotRead::Value(Value::from_u64(1)));
        assert_eq!(r.read_at(9), SnapshotRead::Miss);
    }

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn a_record_fits_a_160_byte_heap_chunk() {
        // Every table row is an `Arc<Record>`: 16 bytes of counts before the
        // record, and glibc rounds a request plus its 8-byte header up to a
        // multiple of 16, so 136 bytes is the most that stays at 160.
        assert!(size_of::<Record>() <= 136, "{}", size_of::<Record>());
    }

    #[test]
    fn the_history_is_allocated_once_at_its_bound() {
        let r = Record::new(Value::from_u64(0));
        let bound = DEFAULT_MAX_VERSIONS - 1;
        for ts in 1..=10 {
            r.install(Value::from_u64(ts), ts);
            let d = r.data.lock();
            assert_eq!(d.history().len(), bound.min(ts as usize));
            assert_eq!(d.history.len(), bound, "after the install at {ts}");
        }
        // The evictions raised the floor past what they dropped.
        assert_eq!(r.read_at(7), SnapshotRead::Value(Value::from_u64(7)));
        assert_eq!(r.read_at(6), SnapshotRead::Miss);
    }

    #[test]
    fn single_version_records_miss_below_current() {
        let r = Record::with_max_versions(Value::from_u64(0), 1);
        r.install(Value::from_u64(1), 10);
        assert_eq!(r.version_chain_len(), 0);
        assert_eq!(r.read_at(10), SnapshotRead::Value(Value::from_u64(1)));
        assert_eq!(r.read_at(9), SnapshotRead::Miss);
    }

    #[test]
    fn timestamped_counter_installs_serve_snapshots() {
        let r = Record::new(Value::from_u64(1));
        assert!(r.install_next_version_at(Value::from_u64(2), 17));
        let w1 = r.wts();
        assert!(r.install_tombstone_next_version_at(23));
        assert!(r.wts() > w1, "wts keeps counting for OCC validation");
        assert_eq!(r.read_at(16), SnapshotRead::Value(Value::from_u64(1)));
        assert_eq!(r.read_at(17), SnapshotRead::Value(Value::from_u64(2)));
        assert_eq!(r.read_at(23), SnapshotRead::Absent);
    }

    #[test]
    fn revert_purges_rolled_back_versions() {
        let r = Record::new(Value::from_u64(1));
        r.install(Value::from_u64(2), 5);
        r.install(Value::from_u64(3), 9); // crash-rolled-back
        r.revert(Value::from_u64(2), 9);
        assert_eq!(r.read_at(9), SnapshotRead::Value(Value::from_u64(2)));
        assert_eq!(r.read_at(8), SnapshotRead::Value(Value::from_u64(2)));
        assert_eq!(r.read_at(4), SnapshotRead::Value(Value::from_u64(1)));
        // The before-image's own entry was reclaimed while it was current
        // and the rolled-back version never installed over it: below `ts`
        // the chain vouches for nothing — a miss, not an absence, and not
        // the older version a longer chain would still hold.
        for reclaimed in [true, false] {
            let r = Record::new(Value::from_u64(1));
            r.install(Value::from_u64(2), 5);
            if reclaimed {
                assert_eq!(r.prune_versions(6), 1);
            }
            r.revert(Value::from_u64(2), 9);
            assert_eq!(r.read_at(9), SnapshotRead::Value(Value::from_u64(2)));
            assert_eq!(r.read_at(8), SnapshotRead::Miss);
            assert_eq!(r.read_at(4), SnapshotRead::Miss);
        }
        // Rolled-back insert reverts to a tombstone.
        let s = Record::new(Value::from_u64(7));
        s.install(Value::from_u64(8), 4); // crash-rolled-back
        s.revert_to_tombstone(4);
        assert_eq!(s.state(), LifecycleState::Tombstone);
        assert_eq!(s.read_at(4), SnapshotRead::Absent);
        assert_eq!(s.read_at(3), SnapshotRead::Value(Value::from_u64(7)));
    }

    #[test]
    fn prune_drops_only_shadowed_versions() {
        let r = Record::with_max_versions(Value::from_u64(0), 8);
        for (v, ts) in [(1u64, 10u64), (2, 20), (3, 30)] {
            r.install(Value::from_u64(v), ts);
        }
        assert_eq!(r.version_chain_len(), 3);
        // Bound 20: version at 20 still serves [20, 30), so only the initial
        // image and the version at 10 are shadowed.
        assert_eq!(r.prune_versions(20), 2);
        assert_eq!(r.read_at(20), SnapshotRead::Value(Value::from_u64(2)));
        assert_eq!(r.read_at(19), SnapshotRead::Miss);
        // Bound past the current version: all history goes.
        assert_eq!(r.prune_versions(30), 1);
        assert_eq!(r.version_chain_len(), 0);
        assert_eq!(r.read_at(30), SnapshotRead::Value(Value::from_u64(3)));
        assert_eq!(r.prune_versions(30), 0);
    }

    #[test]
    fn restored_records_answer_only_from_their_restore_point() {
        let r = Record::restored(Value::from_u64(5), 12, DEFAULT_MAX_VERSIONS);
        assert_eq!(r.read_at(12), SnapshotRead::Value(Value::from_u64(5)));
        assert_eq!(r.read_at(11), SnapshotRead::Miss);
        assert_eq!(r.timestamps(), (12, 12));
    }

    #[test]
    fn record_lock_is_usable_through_record() {
        let r = Record::new(Value::from_u64(0));
        assert_eq!(
            r.acquire(t(1), LockMode::Exclusive, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
        assert_eq!(
            r.acquire(t(2), LockMode::Exclusive, LockPolicy::NoWait),
            LockRequestResult::Abort
        );
        r.release(t(1));
        assert!(!r.lock().is_locked());
    }
}
