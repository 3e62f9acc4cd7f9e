//! A sharded hash table mapping keys to records.
//!
//! Shards reduce contention on the table structure itself (not to be confused
//! with transaction-level record locks). Inserts and deletes are supported at
//! runtime (TPC-C NewOrder inserts orders and order-lines; Delivery removes
//! NEW-ORDER rows): every membership-affecting lifecycle transition — create,
//! tombstone revival, abort-time unlink, tombstone reclamation — runs under
//! the owning shard's write lock so concurrent transitions serialize.

use crate::record::{LifecycleState, Record, DEFAULT_MAX_VERSIONS};
use parking_lot::RwLock;
use primo_common::{Key, TxnId, Value};
use std::collections::HashMap;
use std::sync::Arc;

const DEFAULT_SHARDS: usize = 64;

/// Outcome of [`Table::insert_slot`]: where the record backing an insert
/// came from.
#[derive(Debug, Clone)]
pub enum InsertSlot {
    /// The key already maps to a record the inserter may use (committed, or
    /// its own earlier uncommitted insert). The insert behaves as an update.
    Existing(Arc<Record>),
    /// A fresh record was created in `UncommittedInsert{owner}` state. Abort
    /// must unlink it via [`Table::unlink_created`].
    Created(Arc<Record>),
    /// A tombstoned record was revived into `UncommittedInsert{owner}`.
    /// Abort must restore the tombstone via
    /// [`Record::restore_tombstone`].
    Revived(Arc<Record>),
    /// Another transaction's uncommitted insert occupies the slot; the
    /// caller should abort with a retryable conflict.
    Busy,
}

/// A single table's worth of records owned by one partition.
#[derive(Debug)]
pub struct Table {
    shards: Vec<RwLock<HashMap<Key, Arc<Record>>>>,
    /// Version-chain depth applied to every record this table creates.
    max_versions: usize,
}

impl Default for Table {
    fn default() -> Self {
        Self::new()
    }
}

impl Table {
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    pub fn with_shards(n: usize) -> Self {
        Self::with_shards_and_versions(n, DEFAULT_MAX_VERSIONS)
    }

    /// A table whose records keep up to `max_versions` versions each
    /// (current + history); `max_versions` must be `>= 1`.
    pub fn with_max_versions(max_versions: usize) -> Self {
        Self::with_shards_and_versions(DEFAULT_SHARDS, max_versions)
    }

    pub fn with_shards_and_versions(n: usize, max_versions: usize) -> Self {
        assert!(n > 0);
        assert!(max_versions >= 1);
        Table {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            max_versions,
        }
    }

    fn new_record(&self, value: Value) -> Arc<Record> {
        let rec = Arc::new(Record::new(value));
        rec.set_max_versions(self.max_versions);
        rec
    }

    #[inline]
    fn shard_of(&self, key: Key) -> usize {
        // Fibonacci hashing spreads sequential keys across shards.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % self.shards.len()
    }

    /// Look up a record by key.
    pub fn get(&self, key: Key) -> Option<Arc<Record>> {
        self.shards[self.shard_of(key)].read().get(&key).cloned()
    }

    /// Insert a record, replacing any existing one. Returns the record.
    pub fn insert(&self, key: Key, value: Value) -> Arc<Record> {
        let rec = self.new_record(value);
        self.shards[self.shard_of(key)]
            .write()
            .insert(key, Arc::clone(&rec));
        rec
    }

    /// Insert only if absent; returns the (existing or new) record and whether
    /// an insert happened. Used for constraint checking (unique keys).
    pub fn insert_if_absent(&self, key: Key, value: Value) -> (Arc<Record>, bool) {
        let mut shard = self.shards[self.shard_of(key)].write();
        if let Some(existing) = shard.get(&key) {
            return (Arc::clone(existing), false);
        }
        let rec = self.new_record(value);
        shard.insert(key, Arc::clone(&rec));
        (rec, true)
    }

    /// Claim the slot for an insert by `owner`: reuse an existing record,
    /// create a fresh `UncommittedInsert` one, or revive a tombstone. Runs
    /// under the shard write lock so it cannot race reclamation or another
    /// transaction's unlink.
    pub fn insert_slot(&self, key: Key, owner: TxnId) -> InsertSlot {
        let mut shard = self.shards[self.shard_of(key)].write();
        if let Some(existing) = shard.get(&key) {
            return match existing.state() {
                LifecycleState::Visible => InsertSlot::Existing(Arc::clone(existing)),
                LifecycleState::UncommittedInsert { owner: o } if o == owner => {
                    InsertSlot::Existing(Arc::clone(existing))
                }
                LifecycleState::UncommittedInsert { .. } => InsertSlot::Busy,
                LifecycleState::Tombstone => {
                    existing.set_state(LifecycleState::UncommittedInsert { owner });
                    InsertSlot::Revived(Arc::clone(existing))
                }
            };
        }
        let rec = Arc::new(Record::new_uncommitted(Value::zeroed(0), owner));
        rec.set_max_versions(self.max_versions);
        shard.insert(key, Arc::clone(&rec));
        InsertSlot::Created(rec)
    }

    /// Abort-time undo of [`InsertSlot::Created`]: unlink the record the
    /// aborting transaction created, but only if the slot still holds that
    /// exact record and it is still `owner`'s uncommitted insert.
    pub fn unlink_created(&self, key: Key, record: &Arc<Record>, owner: TxnId) -> bool {
        let mut shard = self.shards[self.shard_of(key)].write();
        let matches = shard.get(&key).is_some_and(|r| {
            Arc::ptr_eq(r, record) && r.state() == LifecycleState::UncommittedInsert { owner }
        });
        if matches {
            shard.remove(&key);
        }
        matches
    }

    /// Deferred reclamation of one committed delete: physically unlink the
    /// record if it is still a tombstone and nobody holds its lock (a lock
    /// holder resolved the record earlier and will re-check its lifecycle).
    pub fn reclaim(&self, key: Key) -> bool {
        let mut shard = self.shards[self.shard_of(key)].write();
        let reclaimable = shard
            .get(&key)
            .is_some_and(|r| r.state() == LifecycleState::Tombstone && !r.lock().is_locked());
        if reclaimable {
            shard.remove(&key);
        }
        reclaimable
    }

    /// Sweep every shard, unlinking all reclaimable tombstones. Returns how
    /// many records were removed. Normal commits reclaim their own deletes;
    /// this pass mops up tombstones whose reclaim lost a race (e.g. a lock
    /// still held at reclaim time).
    pub fn reclaim_tombstones(&self) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.retain(|_, r| {
                let gone = r.state() == LifecycleState::Tombstone && !r.lock().is_locked();
                removed += usize::from(gone);
                !gone
            });
        }
        removed
    }

    /// Remove a record.
    pub fn remove(&self, key: Key) -> bool {
        self.shards[self.shard_of(key)]
            .write()
            .remove(&key)
            .is_some()
    }

    pub fn contains(&self, key: Key) -> bool {
        self.shards[self.shard_of(key)].read().contains_key(&key)
    }

    /// Number of physical slots, including tombstones and uncommitted inserts
    /// (O(shards), used by loaders and tests).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Number of committed ([`LifecycleState::Visible`]) records.
    pub fn live_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .filter(|r| r.state() == LifecycleState::Visible)
                    .count()
            })
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scan all *committed* keys satisfying a predicate: tombstones and
    /// uncommitted inserts are invisible to scans, like to reads. Primo
    /// handles large scans by falling back to shared predicate locks / 2PC
    /// (§4.2.2 corner cases); the scan itself is provided here.
    pub fn scan_keys(&self, mut pred: impl FnMut(Key) -> bool) -> Vec<Key> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (k, r) in shard.read().iter() {
                if r.state() == LifecycleState::Visible && pred(*k) {
                    out.push(*k);
                }
            }
        }
        out
    }

    /// Lifecycle-aware snapshot of the committed state: every `Visible`
    /// record's `(key, value, wts)`. Tombstones and uncommitted inserts are
    /// excluded — a checkpoint must never resurrect either. Each record is
    /// read atomically; for a consistent whole-table image call this while
    /// the table is quiescent (the base checkpoint taken right after
    /// loading).
    pub fn snapshot_visible(&self) -> Vec<(Key, Value, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (k, r) in shard.read().iter() {
                if r.state() == LifecycleState::Visible {
                    let row = r.read();
                    out.push((*k, row.value, row.wts));
                }
            }
        }
        out
    }

    /// Restore a record during crash recovery: the slot is (re)created
    /// `Visible` with `wts = rts = ts`, replacing whatever the wipe left
    /// behind. The restored chain answers snapshot reads only for horizons
    /// `>= ts` — the image carries no pre-crash history.
    pub fn restore(&self, key: Key, value: Value, ts: u64) -> Arc<Record> {
        let rec = Arc::new(Record::restored(value, ts));
        rec.set_max_versions(self.max_versions);
        self.shards[self.shard_of(key)]
            .write()
            .insert(key, Arc::clone(&rec));
        rec
    }

    /// Drop every record (the crashed partition's volatile state is gone).
    /// Returns how many slots were removed. Records still referenced by
    /// in-flight transactions become detached: installing into them no
    /// longer affects the table.
    pub fn clear(&self) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.write();
            removed += shard.len();
            shard.clear();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let t = Table::new();
        assert!(t.get(42).is_none());
        t.insert(42, Value::from_u64(7));
        assert_eq!(t.get(42).unwrap().read().value.as_u64(), 7);
        assert!(t.contains(42));
        assert_eq!(t.len(), 1);
        assert!(t.remove(42));
        assert!(!t.remove(42));
        assert!(t.is_empty());
    }

    #[test]
    fn insert_if_absent_respects_existing() {
        let t = Table::new();
        let (_, inserted) = t.insert_if_absent(1, Value::from_u64(10));
        assert!(inserted);
        let (rec, inserted) = t.insert_if_absent(1, Value::from_u64(20));
        assert!(!inserted);
        assert_eq!(rec.read().value.as_u64(), 10);
    }

    #[test]
    fn many_keys_distribute_over_shards() {
        let t = Table::with_shards(8);
        for k in 0..10_000u64 {
            t.insert(k, Value::from_u64(k));
        }
        assert_eq!(t.len(), 10_000);
        for k in (0..10_000u64).step_by(997) {
            assert_eq!(t.get(k).unwrap().read().value.as_u64(), k);
        }
    }

    fn t(seq: u64) -> TxnId {
        TxnId::new(primo_common::PartitionId(0), seq)
    }

    #[test]
    fn insert_slot_creates_revives_and_reports_busy() {
        let table = Table::new();
        let (a, b) = (t(1), t(2));
        // Fresh key -> Created, in the creator's uncommitted state.
        let created = match table.insert_slot(7, a) {
            InsertSlot::Created(r) => r,
            other => panic!("expected Created, got {other:?}"),
        };
        assert_eq!(
            created.state(),
            LifecycleState::UncommittedInsert { owner: a }
        );
        // The creator sees its own slot as Existing; others see Busy.
        assert!(matches!(table.insert_slot(7, a), InsertSlot::Existing(_)));
        assert!(matches!(table.insert_slot(7, b), InsertSlot::Busy));
        // Commit, delete, then a new insert revives the tombstone in place.
        created.install_next_version(Value::from_u64(1));
        assert!(matches!(table.insert_slot(7, b), InsertSlot::Existing(_)));
        created.install_tombstone_next_version();
        let revived = match table.insert_slot(7, b) {
            InsertSlot::Revived(r) => r,
            other => panic!("expected Revived, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&revived, &created));
        assert_eq!(
            revived.state(),
            LifecycleState::UncommittedInsert { owner: b }
        );
    }

    #[test]
    fn unlink_created_is_guarded_by_pointer_and_state() {
        let table = Table::new();
        let owner = t(3);
        let InsertSlot::Created(rec) = table.insert_slot(1, owner) else {
            panic!("expected Created");
        };
        // A different record (or an installed one) is never unlinked.
        let stranger = Arc::new(Record::new(Value::from_u64(0)));
        assert!(!table.unlink_created(1, &stranger, owner));
        assert!(table.contains(1));
        rec.install_next_version(Value::from_u64(9));
        assert!(!table.unlink_created(1, &rec, owner));
        assert!(table.contains(1));
        // A genuinely uncommitted create is unlinked.
        let InsertSlot::Created(fresh) = table.insert_slot(2, owner) else {
            panic!("expected Created");
        };
        assert!(table.unlink_created(2, &fresh, owner));
        assert!(!table.contains(2));
    }

    #[test]
    fn reclaim_unlinks_only_unlocked_tombstones() {
        let table = Table::new();
        let rec = table.insert(5, Value::from_u64(1));
        assert!(!table.reclaim(5), "a visible record is never reclaimed");
        rec.install_tombstone_next_version();
        rec.acquire(
            t(1),
            crate::lock::LockMode::Exclusive,
            crate::lock::LockPolicy::NoWait,
        );
        assert!(!table.reclaim(5), "a locked tombstone is skipped");
        rec.release(t(1));
        assert!(table.reclaim(5));
        assert!(!table.contains(5));
    }

    #[test]
    fn reclaim_tombstones_sweeps_all_shards() {
        let table = Table::with_shards(4);
        for k in 0..100u64 {
            let r = table.insert(k, Value::from_u64(k));
            if k % 2 == 0 {
                r.install_tombstone_next_version();
            }
        }
        assert_eq!(table.reclaim_tombstones(), 50);
        assert_eq!(table.len(), 50);
        assert_eq!(table.live_len(), 50);
    }

    #[test]
    fn scans_and_live_len_skip_invisible_records() {
        let table = Table::new();
        table.insert(1, Value::from_u64(1));
        table.insert(2, Value::from_u64(2)).install_tombstone(9);
        let InsertSlot::Created(_) = table.insert_slot(3, t(1)) else {
            panic!("expected Created");
        };
        assert_eq!(table.len(), 3);
        assert_eq!(table.live_len(), 1);
        assert_eq!(table.scan_keys(|_| true), vec![1]);
    }

    #[test]
    fn scan_keys_filters() {
        let t = Table::new();
        for k in 0..100u64 {
            t.insert(k, Value::from_u64(k));
        }
        let mut even = t.scan_keys(|k| k % 2 == 0);
        even.sort_unstable();
        assert_eq!(even.len(), 50);
        assert_eq!(even[0], 0);
        assert_eq!(even[49], 98);
    }
}
