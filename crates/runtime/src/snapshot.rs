//! MVCC snapshot execution for declared read-only transactions.
//!
//! A read-only program ([`TxnProgram::is_read_only`]) is resolved against the
//! cluster's durable group-commit horizon instead of running through the
//! concurrency-control protocol: every read walks the record's bounded
//! version chain ([`Record::read_at`](primo_storage::Record::read_at)) at a
//! snapshot timestamp no in-flight transaction can still write below and no
//! crash can ever roll back. The session therefore takes **no locks**,
//! performs **no validation** and **never aborts on conflict** — the three
//! costs Primo's watermark horizon (and the per-scheme equivalents) exist to
//! eliminate for read-dominated workloads.
//!
//! The chain is bounded, so a horizon older than the retained history cannot
//! always be answered. Every unanswerable read (evicted version, reclaimed
//! record, un-timestamped legacy install) surfaces as
//! [`SnapshotOutcome::Fallback`]: the caller re-runs the program through the
//! regular protocol, which is always correct, merely slower. Fallback is a
//! performance path, never a correctness one.

use crate::cluster::Cluster;
use crate::txn::{TxnContext, TxnProgram};
use primo_common::sim_time::now_us;
use primo_common::{AbortReason, Key, PartitionId, TableId, Ts, TxnError, TxnResult, Value};
use primo_storage::SnapshotRead;

/// How a snapshot execution attempt ended.
#[derive(Debug)]
pub enum SnapshotOutcome {
    /// The program ran to completion against the snapshot (or aborted for a
    /// program-level reason, e.g. a user rollback — carried inside).
    Done(TxnResult<()>),
    /// A read could not be answered at the snapshot horizon (version evicted
    /// or record reclaimed): re-run through the regular protocol.
    Fallback,
}

/// The [`TxnContext`] a snapshot execution runs against: version-chain reads
/// at a fixed horizon, no write support (a declared read-only program that
/// writes falls back to the protocol, which enforces real semantics).
pub struct SnapshotSession<'a> {
    cluster: &'a Cluster,
    home: PartitionId,
    /// The snapshot timestamp (cluster-wide minimum horizon at begin).
    horizon: Ts,
    /// Remote partitions this session already shipped a read batch to: the
    /// first read against each non-home partition is charged one round trip
    /// (the snapshot request carries the horizon and returns versioned
    /// payloads); subsequent reads ride the same stream.
    visited: Vec<PartitionId>,
    /// Set when a read was unanswerable at the horizon: the caller must
    /// fall back to the protocol, whatever error unwound the program.
    needs_fallback: bool,
    reads: usize,
}

impl<'a> SnapshotSession<'a> {
    /// A session at the cluster's durable horizon now.
    pub fn new(cluster: &'a Cluster, home: PartitionId) -> Self {
        Self::at(cluster, home, cluster.snapshot_horizon())
    }

    /// A session at an explicit `horizon`. Only one at or below
    /// [`Cluster::snapshot_horizon`] is sound: a later one can observe
    /// commits a crash still rolls back (the crash-consistency suite builds
    /// such a reader to show it would catch one).
    pub fn at(cluster: &'a Cluster, home: PartitionId, horizon: Ts) -> Self {
        SnapshotSession {
            cluster,
            home,
            horizon,
            visited: Vec::new(),
            needs_fallback: false,
            reads: 0,
        }
    }

    /// The horizon this session resolves reads at.
    pub fn horizon(&self) -> Ts {
        self.horizon
    }

    /// Reads the session answered from version chains.
    pub fn reads(&self) -> usize {
        self.reads
    }

    fn fallback<T>(&mut self) -> TxnResult<T> {
        self.needs_fallback = true;
        // The reason is never surfaced: the caller checks `needs_fallback`
        // before interpreting the error. Validation is the closest semantic
        // (the snapshot could not vouch for this read).
        Err(TxnError::Aborted(AbortReason::Validation))
    }

    fn charge_network(&mut self, p: PartitionId) -> TxnResult<()> {
        if p == self.home || self.visited.contains(&p) {
            return Ok(());
        }
        // One round trip ships the whole per-partition read batch; the
        // session never revisits the charge. A crashed partition cannot
        // serve snapshot reads any more than protocol reads.
        if !self.cluster.net.round_trip(self.home, p) {
            return Err(TxnError::Aborted(AbortReason::RemoteUnavailable));
        }
        self.visited.push(p);
        Ok(())
    }
}

impl TxnContext for SnapshotSession<'_> {
    fn read(&mut self, partition: PartitionId, table: TableId, key: Key) -> TxnResult<Value> {
        self.charge_network(partition)?;
        let store = &self.cluster.partition(partition).store;
        let Some(record) = store.table(table).get(key) else {
            // No record: deferred tombstone reclamation may have unlinked a
            // version whose deletion the horizon predates, so absence of a
            // record proves nothing — only the protocol can answer.
            return self.fallback();
        };
        self.reads += 1;
        match record.read_at(self.horizon) {
            SnapshotRead::Value(v) => Ok(v),
            // A committed deletion (or a pre-creation horizon) the chain can
            // vouch for: the key did not exist at the snapshot.
            SnapshotRead::Absent => Err(TxnError::Aborted(AbortReason::NotFound)),
            SnapshotRead::Miss => self.fallback(),
        }
    }

    fn write(&mut self, _p: PartitionId, _t: TableId, _k: Key, _v: Value) -> TxnResult<()> {
        // A mis-declared read-only program: hand it to the protocol rather
        // than guessing at write semantics here.
        self.fallback()
    }

    fn insert(&mut self, _p: PartitionId, _t: TableId, _k: Key, _v: Value) -> TxnResult<()> {
        self.fallback()
    }

    fn delete(&mut self, _p: PartitionId, _t: TableId, _k: Key) -> TxnResult<()> {
        self.fallback()
    }
}

/// Execute a declared read-only program against the snapshot horizon.
/// Returns [`SnapshotOutcome::Fallback`] when any read was unanswerable —
/// the caller re-runs through the protocol.
pub fn execute_snapshot(cluster: &Cluster, program: &dyn TxnProgram) -> SnapshotOutcome {
    let began_us = now_us();
    let mut session = SnapshotSession::new(cluster, program.home_partition());
    let result = program.execute(&mut session);
    if session.needs_fallback {
        SnapshotOutcome::Fallback
    } else {
        // Snapshot sessions take no ticket, so there is no TxnId to stamp —
        // the horizon itself is the interesting coordinate.
        cluster.recorder.emit(
            None,
            Some(session.home),
            primo_trace::TraceEventKind::SnapshotRead {
                horizon: session.horizon,
                exec_us: now_us() - began_us,
            },
        );
        SnapshotOutcome::Done(result)
    }
}

/// Whether this cluster serves declared read-only programs from the MVCC
/// snapshot (the `primo.read_only_snapshot` knob; off = every transaction
/// runs through the protocol, the validate-everything baseline).
pub fn snapshot_reads_enabled(cluster: &Cluster) -> bool {
    cluster.config.primo.read_only_snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::ClosureProgram;
    use primo_common::config::ClusterConfig;
    use primo_common::{TableId, Value};

    fn loaded_cluster() -> std::sync::Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        for p in cluster.partition_ids() {
            for k in 0..4u64 {
                cluster
                    .partition(p)
                    .store
                    .insert(TableId(0), k, Value::from_u64(100 + k));
            }
        }
        cluster
    }

    #[test]
    fn snapshot_session_reads_loaded_data_without_locks() {
        let cluster = loaded_cluster();
        // Loader records commit "at time zero": even horizon 0 serves them.
        let prog = ClosureProgram::new(PartitionId(0), |ctx| {
            assert_eq!(ctx.read(PartitionId(0), TableId(0), 1)?.as_u64(), 101);
            assert_eq!(ctx.read(PartitionId(1), TableId(0), 2)?.as_u64(), 102);
            Ok(())
        })
        .read_only();
        let outcome = execute_snapshot(&cluster, &prog);
        assert!(matches!(outcome, SnapshotOutcome::Done(Ok(()))));
        // No record lock was ever touched.
        let rec = cluster.partition(PartitionId(0)).store.get(TableId(0), 1);
        assert!(!rec.unwrap().lock().is_locked());
        cluster.shutdown();
    }

    #[test]
    fn missing_record_forces_protocol_fallback() {
        let cluster = loaded_cluster();
        let prog = ClosureProgram::new(PartitionId(0), |ctx| {
            ctx.read(PartitionId(0), TableId(0), 999)?;
            Ok(())
        })
        .read_only();
        let outcome = execute_snapshot(&cluster, &prog);
        assert!(matches!(outcome, SnapshotOutcome::Fallback));
        cluster.shutdown();
    }

    #[test]
    fn writes_in_a_declared_read_only_program_fall_back() {
        let cluster = loaded_cluster();
        let prog = ClosureProgram::new(PartitionId(0), |ctx| {
            ctx.write(PartitionId(0), TableId(0), 1, Value::from_u64(7))?;
            Ok(())
        })
        .read_only();
        let outcome = execute_snapshot(&cluster, &prog);
        assert!(matches!(outcome, SnapshotOutcome::Fallback));
        // Nothing was installed.
        let rec = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 1)
            .unwrap();
        assert_eq!(rec.read().value.as_u64(), 101);
        cluster.shutdown();
    }

    #[test]
    fn unanswerable_horizon_misses_fall_back_not_abort() {
        let cluster = loaded_cluster();
        // An un-timestamped install (legacy path) makes the record
        // unanswerable at any horizon.
        let rec = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 3)
            .unwrap();
        rec.install_next_version(Value::from_u64(7));
        let prog = ClosureProgram::new(PartitionId(0), |ctx| {
            ctx.read(PartitionId(0), TableId(0), 3)?;
            Ok(())
        })
        .read_only();
        let outcome = execute_snapshot(&cluster, &prog);
        assert!(matches!(outcome, SnapshotOutcome::Fallback));
        cluster.shutdown();
    }
}
