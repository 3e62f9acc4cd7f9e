//! Per-partition store: the set of tables owned by one partition leader.

use crate::record::Record;
use crate::table::Table;
use primo_common::{Key, PartitionId, TableId, Value};
use std::sync::{Arc, OnceLock};

/// How many tables a partition can hold: table ids are `0..MAX_TABLES`
/// (TPC-C, the widest schema here, uses nine).
const MAX_TABLES: usize = 16;

/// All data owned by one partition.
///
/// Tables are created lazily on first access so workloads can define their
/// schema simply by writing to table ids. A table, once created, is never
/// removed (a crash [wipes](PartitionStore::wipe) its records, not the
/// instance), so each lives in a fixed slot and a lookup is one load: every
/// record access of every worker comes through here.
#[derive(Debug)]
pub struct PartitionStore {
    partition: PartitionId,
    tables: [OnceLock<Arc<Table>>; MAX_TABLES],
    /// Version-chain depth for records in lazily created tables.
    max_versions: usize,
}

impl PartitionStore {
    pub fn new(partition: PartitionId) -> Self {
        Self::with_max_versions(partition, crate::record::DEFAULT_MAX_VERSIONS)
    }

    /// A store whose tables keep up to `max_versions` versions per record.
    pub fn with_max_versions(partition: PartitionId, max_versions: usize) -> Self {
        assert!(max_versions >= 1);
        PartitionStore {
            partition,
            tables: Default::default(),
            max_versions,
        }
    }

    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Get (or lazily create) a table. Clone the handle only where ownership
    /// is needed (the undo log keeps one).
    ///
    /// # Panics
    /// If `id` is not below `MAX_TABLES` (16).
    pub fn table(&self, id: TableId) -> &Arc<Table> {
        let slot = (self.tables.get(id.0 as usize))
            .unwrap_or_else(|| panic!("table id {} is not below {MAX_TABLES}", id.0));
        slot.get_or_init(|| Arc::new(Table::with_max_versions(self.max_versions)))
    }

    /// Look up a record.
    pub fn get(&self, table: TableId, key: Key) -> Option<Arc<Record>> {
        self.table(table).get(key)
    }

    /// Insert (or overwrite) a record during loading or transaction install.
    pub fn insert(&self, table: TableId, key: Key, value: Value) -> Arc<Record> {
        self.table(table).insert(key, value)
    }

    /// Number of records across all tables.
    pub fn total_records(&self) -> usize {
        self.tables().iter().map(|(_, t)| t.len()).sum()
    }

    /// Every instantiated table, with its id.
    pub fn tables(&self) -> Vec<(TableId, Arc<Table>)> {
        let created = |(i, slot): (usize, &OnceLock<Arc<Table>>)| {
            (slot.get()).map(|t| (TableId(i as u32), Arc::clone(t)))
        };
        self.tables.iter().enumerate().filter_map(created).collect()
    }

    /// Lifecycle-aware snapshot of every committed record:
    /// `(table, key, value, wts)`. See [`Table::snapshot_visible`] for the
    /// quiescence requirement.
    pub fn snapshot_visible(&self) -> Vec<(TableId, Key, Value, u64)> {
        let mut out = Vec::new();
        for (id, table) in self.tables() {
            for (k, v, ts) in table.snapshot_visible() {
                out.push((id, k, v, ts));
            }
        }
        out
    }

    /// Crash recovery step 1: drop every record in every table — the
    /// partition's volatile store is gone. The [`Table`] instances survive
    /// (protocol threads may hold `Arc<Table>` handles) but end up empty.
    /// Returns the number of records wiped.
    pub fn wipe(&self) -> usize {
        self.tables().into_iter().map(|(_, t)| t.clear()).sum()
    }

    /// Crash recovery step 2: put back one committed record (from a
    /// checkpoint image or a replayed log entry).
    pub fn restore(&self, table: TableId, key: Key, value: Value, ts: u64) -> Arc<Record> {
        self.table(table).restore(key, value, ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_table_creation() {
        let s = PartitionStore::new(PartitionId(0));
        assert!(s.get(TableId(3), 1).is_none());
        s.insert(TableId(3), 1, Value::from_u64(9));
        assert_eq!(s.get(TableId(3), 1).unwrap().read().value.as_u64(), 9);
        assert_eq!(s.total_records(), 1);
        assert_eq!(s.partition(), PartitionId(0));
    }

    #[test]
    fn same_table_returns_same_instance() {
        let s = PartitionStore::new(PartitionId(1));
        let a = s.table(TableId(0));
        let b = s.table(TableId(0));
        assert!(Arc::ptr_eq(a, b));
        // Also across a wipe: handles given out before a crash stay valid.
        s.insert(TableId(0), 1, Value::from_u64(1));
        assert_eq!(s.wipe(), 1);
        assert!(Arc::ptr_eq(a, s.table(TableId(0))));
    }

    #[test]
    fn tables_are_isolated() {
        let s = PartitionStore::new(PartitionId(0));
        s.insert(TableId(0), 5, Value::from_u64(1));
        s.insert(TableId(1), 5, Value::from_u64(2));
        assert_eq!(s.get(TableId(0), 5).unwrap().read().value.as_u64(), 1);
        assert_eq!(s.get(TableId(1), 5).unwrap().read().value.as_u64(), 2);
    }

    #[test]
    fn wipe_and_restore_round_trip() {
        let s = PartitionStore::new(PartitionId(0));
        s.insert(TableId(0), 1, Value::from_u64(10));
        s.insert(TableId(2), 9, Value::from_u64(20));
        // An uncommitted insert and a tombstone never appear in the snapshot.
        let owner = primo_common::TxnId::new(PartitionId(0), 1);
        let crate::table::InsertSlot::Created(_) = s.table(TableId(0)).insert_slot(50, owner)
        else {
            panic!("expected Created");
        };
        s.insert(TableId(0), 2, Value::from_u64(2))
            .install_tombstone(5);
        let mut snap = s.snapshot_visible();
        snap.sort_by_key(|(t, k, _, _)| (*t, *k));
        assert_eq!(snap.len(), 2);
        assert_eq!(s.tables().len(), 2);

        let wiped = s.wipe();
        assert_eq!(wiped, 4, "wipe drops every slot, whatever its lifecycle");
        assert_eq!(s.total_records(), 0);
        assert!(s.get(TableId(0), 1).is_none());

        for (t, k, v, ts) in snap {
            s.restore(t, k, v, ts);
        }
        let rec = s.get(TableId(0), 1).unwrap();
        assert_eq!(rec.read().value.as_u64(), 10);
        assert_eq!(rec.state(), crate::record::LifecycleState::Visible);
        assert_eq!(s.get(TableId(2), 9).unwrap().read().value.as_u64(), 20);
        assert_eq!(s.total_records(), 2);
    }
}
