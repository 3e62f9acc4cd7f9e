//! Transactions as programs.
//!
//! The paper's central generality argument is that read/write sets cannot be
//! known before execution (transactions branch on query results, §1). We
//! therefore model a transaction as an arbitrary program over a
//! [`TxnContext`]: the engine learns about each access only when the program
//! performs it.

use primo_common::{FastRng, Key, PartitionId, TableId, TxnResult, Value};

/// The access interface a running transaction sees.
///
/// Each protocol provides its own implementation (locking reads, OCC reads,
/// buffered writes, ...). Accesses name the owning partition explicitly: the
/// workload knows its partitioning function, the engine does not.
pub trait TxnContext {
    /// Read a record. Returns the payload visible to this transaction.
    fn read(&mut self, partition: PartitionId, table: TableId, key: Key) -> TxnResult<Value>;

    /// Buffer an update to an existing record. The value is installed at
    /// commit; installing against a record that does not exist aborts with
    /// `NotFound`. Use [`TxnContext::insert`] for create-if-absent writes.
    fn write(
        &mut self,
        partition: PartitionId,
        table: TableId,
        key: Key,
        value: Value,
    ) -> TxnResult<()>;

    /// Insert a new record: buffered like a write, but the record is created
    /// at commit if it does not exist.
    ///
    /// This is a *distinct* operation, not an alias of [`TxnContext::write`]:
    /// protocol contexts record the create-if-absent intent in their write
    /// set (see `WriteKind` in the access module) so the install path knows
    /// whether a missing record is an error (plain write) or a creation
    /// (insert).
    fn insert(
        &mut self,
        partition: PartitionId,
        table: TableId,
        key: Key,
        value: Value,
    ) -> TxnResult<()>;

    /// Delete a record: buffered like a write; at commit the record is
    /// tombstoned and then physically reclaimed from its table shard.
    /// Deleting a key that does not exist aborts with `NotFound`, and later
    /// reads of a deleted key inside the same transaction see `NotFound`
    /// too. Deleting a key the same transaction inserted cancels the insert
    /// (net effect: the key never existed); a subsequent
    /// [`TxnContext::insert`] recreates a deleted key (delete + insert =
    /// replace).
    fn delete(&mut self, partition: PartitionId, table: TableId, key: Key) -> TxnResult<()>;

    /// Read-modify-write convenience: read, transform, write back.
    fn update_with(
        &mut self,
        partition: PartitionId,
        table: TableId,
        key: Key,
        f: &mut dyn FnMut(Value) -> Value,
    ) -> TxnResult<()> {
        let v = self.read(partition, table, key)?;
        self.write(partition, table, key, f(v))
    }
}

/// A transaction program, produced by a workload generator.
pub trait TxnProgram: Send + Sync {
    /// Run the transaction body against the protocol-provided context.
    /// Returning an error aborts the transaction (e.g. user rollback).
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()>;

    /// The partition the client submits the transaction to (its coordinator).
    fn home_partition(&self) -> PartitionId;

    /// Whether the transaction is declared read-only (stored procedure with
    /// no UPDATE/INSERT). Primo serves these from a snapshot without locks.
    fn is_read_only(&self) -> bool {
        false
    }

    /// Declared fraction of read operations. Only used by Primo's optional
    /// read-heavy 2PC fallback (§4.3); protocols never rely on it for
    /// correctness.
    fn read_fraction_hint(&self) -> f64 {
        0.5
    }

    /// Statically-known access set, if any: the keys the program will touch
    /// regardless of what it reads (YCSB op lists; the key-determined
    /// fraction of TPC-C). The worker prefetches the remote subset with one
    /// batched fan-out per attempt instead of a round trip per record.
    /// Include write keys too — in distributed WCF mode their dummy reads
    /// piggyback on the same batch. The worker also admits by it: a body
    /// whose hinted keys, home ones included, miss those of the 2PC
    /// attempts in hand runs beside them (`worker` module docs). Purely an
    /// optimization hint: an empty, partial or even wrong hint never affects
    /// correctness. An empty one keeps admission by kind; a partial or wrong
    /// one costs reads that fall back to per-record round trips, and aborts
    /// where a body runs beside an attempt whose keys it missed.
    fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
        Vec::new()
    }

    /// Short label for debugging ("ycsb", "new_order", ...).
    fn label(&self) -> &'static str {
        "txn"
    }
}

/// A borrowed program runs as the program itself: a session hands its
/// caller's program to a worker without taking it over.
impl<T: TxnProgram + ?Sized> TxnProgram for &T {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        (**self).execute(ctx)
    }

    fn home_partition(&self) -> PartitionId {
        (**self).home_partition()
    }

    fn is_read_only(&self) -> bool {
        (**self).is_read_only()
    }

    fn read_fraction_hint(&self) -> f64 {
        (**self).read_fraction_hint()
    }

    fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
        (**self).read_hint()
    }

    fn label(&self) -> &'static str {
        (**self).label()
    }
}

/// A workload: knows how to load the initial database and how to generate
/// transaction programs for a given home partition.
pub trait Workload: Send + Sync {
    /// Human-readable name ("YCSB", "TPC-C").
    fn name(&self) -> &'static str;

    /// Populate the given partition's share of the database.
    fn load_partition(&self, store: &primo_storage::PartitionStore, partition: PartitionId);

    /// Generate the next transaction for a worker whose home is `home`.
    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram>;
}

/// A transaction program defined by a closure — the most direct way to
/// express the paper's "transactions are arbitrary programs" model in ad-hoc
/// code (sessions, examples, tests).
pub struct ClosureProgram<F>
where
    F: Fn(&mut dyn TxnContext) -> TxnResult<()> + Send + Sync,
{
    home: PartitionId,
    read_only: bool,
    body: F,
}

impl<F> ClosureProgram<F>
where
    F: Fn(&mut dyn TxnContext) -> TxnResult<()> + Send + Sync,
{
    pub fn new(home: PartitionId, body: F) -> Self {
        ClosureProgram {
            home,
            read_only: false,
            body,
        }
    }

    /// Declare the program read-only (Primo serves it from a snapshot).
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }
}

impl<F> TxnProgram for ClosureProgram<F>
where
    F: Fn(&mut dyn TxnContext) -> TxnResult<()> + Send + Sync,
{
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        (self.body)(ctx)
    }

    fn home_partition(&self) -> PartitionId {
        self.home
    }

    fn is_read_only(&self) -> bool {
        self.read_only
    }

    fn label(&self) -> &'static str {
        "closure"
    }
}

/// A trivially simple program used by runtime-level tests: read a set of
/// keys and increment each by one.
pub struct IncrementProgram {
    pub home: PartitionId,
    pub accesses: Vec<(PartitionId, TableId, Key)>,
}

impl TxnProgram for IncrementProgram {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        for (p, t, k) in &self.accesses {
            let v = ctx.read(*p, *t, *k)?;
            ctx.write(*p, *t, *k, Value::from_u64(v.as_u64() + 1))?;
        }
        Ok(())
    }

    fn home_partition(&self) -> PartitionId {
        self.home
    }

    fn read_fraction_hint(&self) -> f64 {
        0.5
    }

    fn label(&self) -> &'static str {
        "increment"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::{AbortReason, TxnError};
    use std::collections::HashMap;

    /// A toy in-memory context for exercising program logic without a
    /// protocol.
    #[derive(Default)]
    struct MapContext {
        data: HashMap<(u32, u32, Key), u64>,
        writes: usize,
    }

    impl TxnContext for MapContext {
        fn read(&mut self, p: PartitionId, t: TableId, k: Key) -> TxnResult<Value> {
            self.data
                .get(&(p.0, t.0, k))
                .map(|v| Value::from_u64(*v))
                .ok_or(TxnError::Aborted(AbortReason::UserAbort))
        }

        fn write(&mut self, p: PartitionId, t: TableId, k: Key, v: Value) -> TxnResult<()> {
            self.data.insert((p.0, t.0, k), v.as_u64());
            self.writes += 1;
            Ok(())
        }

        fn insert(&mut self, p: PartitionId, t: TableId, k: Key, v: Value) -> TxnResult<()> {
            // The map applies writes immediately, so insert and write
            // coincide here.
            self.write(p, t, k, v)
        }

        fn delete(&mut self, p: PartitionId, t: TableId, k: Key) -> TxnResult<()> {
            self.data
                .remove(&(p.0, t.0, k))
                .map(|_| ())
                .ok_or(TxnError::Aborted(AbortReason::NotFound))
        }
    }

    #[test]
    fn increment_program_updates_every_key() {
        let mut ctx = MapContext::default();
        ctx.data.insert((0, 0, 1), 10);
        ctx.data.insert((1, 0, 2), 20);
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![
                (PartitionId(0), TableId(0), 1),
                (PartitionId(1), TableId(0), 2),
            ],
        };
        prog.execute(&mut ctx).unwrap();
        assert_eq!(ctx.data[&(0, 0, 1)], 11);
        assert_eq!(ctx.data[&(1, 0, 2)], 21);
        assert_eq!(ctx.writes, 2);
        assert_eq!(prog.home_partition(), PartitionId(0));
        assert!(!prog.is_read_only());
    }

    #[test]
    fn update_with_reads_then_writes() {
        let mut ctx = MapContext::default();
        ctx.data.insert((0, 0, 7), 5);
        ctx.update_with(PartitionId(0), TableId(0), 7, &mut |v| {
            Value::from_u64(v.as_u64() * 2)
        })
        .unwrap();
        assert_eq!(ctx.data[&(0, 0, 7)], 10);
    }

    #[test]
    fn missing_key_aborts() {
        let mut ctx = MapContext::default();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![(PartitionId(0), TableId(0), 99)],
        };
        assert!(prog.execute(&mut ctx).is_err());
    }
}
