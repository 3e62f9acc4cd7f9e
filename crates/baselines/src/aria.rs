//! Aria (Lu et al., VLDB '20): a deterministic database that does **not**
//! need read/write sets in advance. Transactions are grouped into batches by
//! a sequencing layer; every partition executes the whole batch against the
//! same snapshot while recording write *reservations*; after a cluster-wide
//! barrier each transaction commits only if no smaller-sequence transaction
//! reserved a conflicting write (WAW / RAW checks). Conflicting transactions
//! are aborted deterministically and retried in a later batch.
//!
//! Durability comes from logging the *inputs* in the sequencing layer before
//! execution, so there is no group-commit wait at the end — but the batch
//! barriers (`wait_batch`) and the sequencing delay (`sequence`) sit squarely
//! on the latency path, which is what Fig 4c/5c show. Each wait — the
//! sequencing, the two barriers and the batch's cross-partition round
//! (`2PC`) — leaves what it cost in the flight recorder (`BatchSequenced`,
//! `BatchBarrier`), where the latency breakdown finds it.

use parking_lot::{Condvar, Mutex};
use primo_common::sim_time::{now_us, wait_until};
use primo_common::{AbortReason, Key, PartitionId, TableId, TxnResult};
use primo_runtime::access::WriteKind;
use primo_runtime::cluster::Cluster;
use primo_runtime::context::{AccessCtx, ReadPolicy};
use primo_runtime::durability::{log_txn_writes, straddles_crash};
use primo_runtime::pipeline::Step;
use primo_runtime::prefetch::ReadFanout;
use primo_runtime::protocol::{CommittedTxn, Protocol};
use primo_runtime::txn::TxnProgram;
use primo_trace::TraceEventKind;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Aria tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct AriaConfig {
    /// How long a batch stays open collecting transactions (the sequencing
    /// epoch; the paper's setup uses a 10 ms Calvin-style sequencer).
    pub batch_window_us: u64,
    /// Upper bound on barrier waits (safety valve only).
    pub barrier_timeout: Duration,
}

impl Default for AriaConfig {
    fn default() -> Self {
        AriaConfig {
            batch_window_us: 5_000,
            barrier_timeout: Duration::from_millis(100),
        }
    }
}

#[derive(Debug, Default)]
struct BatchState {
    joined: usize,
    executed: usize,
    decided: usize,
}

#[derive(Debug)]
struct Batch {
    open_until_us: u64,
    state: Mutex<BatchState>,
    cond: Condvar,
    /// Write reservations: key -> smallest transaction priority that wants to
    /// write it in this batch.
    reservations: Mutex<HashMap<(u32, u32, Key), u64>>,
}

impl Batch {
    fn new(open_until_us: u64) -> Self {
        Batch {
            open_until_us,
            state: Mutex::new(BatchState::default()),
            cond: Condvar::new(),
            reservations: Mutex::new(HashMap::new()),
        }
    }
}

/// The Aria protocol.
pub struct AriaProtocol {
    cfg: AriaConfig,
    current: Mutex<Option<Arc<Batch>>>,
}

impl std::fmt::Debug for AriaProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AriaProtocol")
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl AriaProtocol {
    pub fn new(cfg: AriaConfig) -> Self {
        AriaProtocol {
            cfg,
            current: Mutex::new(None),
        }
    }

    /// Join (or open) the current batch; returns the batch and this
    /// transaction's join index within it.
    fn join_batch(&self) -> (Arc<Batch>, usize) {
        let mut cur = self.current.lock();
        let now = now_us();
        let need_new = match cur.as_ref() {
            Some(b) => now >= b.open_until_us,
            None => true,
        };
        if need_new {
            *cur = Some(Arc::new(Batch::new(now + self.cfg.batch_window_us)));
        }
        let batch = Arc::clone(cur.as_ref().unwrap());
        let mut st = batch.state.lock();
        st.joined += 1;
        let idx = st.joined - 1;
        drop(st);
        (batch, idx)
    }

    /// Arrive at one of `batch`'s barriers and wait for the other members.
    fn barrier(
        &self,
        batch: &Batch,
        advance: impl FnOnce(&mut BatchState),
        reached: impl Fn(&BatchState) -> bool,
    ) {
        let mut st = batch.state.lock();
        advance(&mut st);
        batch.cond.notify_all();
        let deadline_us = now_us() + self.cfg.barrier_timeout.as_micros() as u64;
        while !reached(&st) && now_us() < deadline_us {
            batch.cond.wait_for(&mut st, Duration::from_millis(1));
        }
    }

    fn reservation_key(p: PartitionId, t: TableId, k: Key) -> (u32, u32, Key) {
        (p.0, t.0, k)
    }

    /// The deterministic decision of the member with `priority` that
    /// executed `ctx`, once every member of `batch` has reserved its writes.
    fn conflict(batch: &Batch, ctx: &AccessCtx<'_>, priority: u64) -> Result<(), AbortReason> {
        let res = batch.reservations.lock();
        // WAW: a smaller-priority transaction reserved one of our writes.
        for w in &ctx.access.writes {
            if let Some(p) = res.get(&Self::reservation_key(w.partition, w.table, w.key)) {
                if *p < priority {
                    return Err(AbortReason::DeterministicConflict);
                }
            }
        }
        // RAW: a smaller-priority transaction writes something we read.
        for r in &ctx.access.reads {
            if let Some(p) = res.get(&Self::reservation_key(r.partition, r.table, r.key)) {
                if *p < priority {
                    return Err(AbortReason::DeterministicConflict);
                }
            }
        }
        // Put/insert/delete contract (checked at the decision point — after
        // it, Aria's deterministic install cannot abort): a plain write or a
        // delete of a record that does not exist — or is an invisible
        // tombstone — is an error, matching every other protocol's NotFound
        // behaviour. Checked *after* the reservation checks so a same-batch
        // insert of the same key deterministically wins as a WAW conflict
        // (retryable) instead of racing install order into a permanent
        // NotFound.
        for w in &ctx.access.writes {
            if matches!(w.kind, WriteKind::Put | WriteKind::Delete)
                && ctx.record_visible(w.partition, w.table, w.key).is_err()
            {
                return Err(AbortReason::NotFound);
            }
        }
        Ok(())
    }
}

impl Protocol for AriaProtocol {
    fn name(&self) -> &'static str {
        "Aria"
    }

    fn manages_durability(&self) -> bool {
        // Inputs are logged by the sequencing layer before execution.
        true
    }

    /// Aria's waits are its batch barriers — on other workers, not on the
    /// wire — so an attempt never comes back [`Step::Waiting`].
    fn start<'a>(
        &self,
        cluster: &'a Cluster,
        program: &dyn TxnProgram,
        ticket: Arc<primo_wal::TxnTicket>,
        fanout: ReadFanout,
    ) -> Step<'a> {
        let home = program.home_partition();
        let txn = ticket.txn;
        let priority = txn.pack();
        let trace = |kind| cluster.recorder.emit(Some(txn), Some(home), kind);

        // ---- Sequencing: wait for the batch to close. ----
        let (batch, join_idx) = self.join_batch();
        let joined_us = now_us();
        wait_until(batch.open_until_us);
        let wait_us = now_us() - joined_us;
        trace(TraceEventKind::BatchSequenced { wait_us });

        // ---- Execution phase: run against the current snapshot, no locks. ----
        let mut ctx = AccessCtx::new(cluster, ticket, home, ReadPolicy::Optimistic, fanout);
        let exec = ctx.run_body(program);
        let ticket = &ctx.ticket;
        if exec.is_ok() {
            // Record write reservations (smallest priority wins).
            let mut res = batch.reservations.lock();
            for w in &ctx.access.writes {
                let entry = res
                    .entry(Self::reservation_key(w.partition, w.table, w.key))
                    .or_insert(priority);
                if *entry > priority {
                    *entry = priority;
                }
            }
        }

        // ---- Barrier 1: everyone finished execution & reservations. ----
        let arrived_us = now_us();
        self.barrier(&batch, |st| st.executed += 1, |st| st.executed >= st.joined);
        let passed_us = now_us();
        // One cross-partition synchronization per batch (charged by the first
        // member so the cost is per-batch, not per-transaction).
        if join_idx == 0 && cluster.num_partitions() > 1 {
            let others: Vec<PartitionId> = cluster.partition_ids().filter(|p| *p != home).collect();
            cluster.net.round_trip_multi(home, &others);
        }
        trace(TraceEventKind::BatchBarrier {
            wait_us: passed_us - arrived_us,
            round_us: now_us() - passed_us,
        });

        // ---- Commit phase: deterministic conflict checks, then install. ----
        let decision: TxnResult<CommittedTxn> = if let Err(e) = exec {
            Err(e)
        } else {
            // Aria reads nothing where it writes blind and runs no vote, so
            // nothing else asks whether such a partition is up; and an
            // attempt that began after its crash carries the new term, which
            // the fence does not refuse. A write-set for a partition that is
            // down (crashed or recovering) aborts before its timestamp, with
            // nothing logged or installed.
            let down = (ctx.access.writes.iter()).any(|w| cluster.net.is_crashed(w.partition));
            match Self::conflict(&batch, &ctx, priority) {
                Err(reason) => Err(reason.into()),
                Ok(()) if down => Err(AbortReason::RemoteUnavailable.into()),
                Ok(()) => {
                    let ops = ctx.access.ops();
                    let distributed = ctx.access.is_distributed(home);
                    // The sequencing layer logged the *inputs* before
                    // execution; the write-set is additionally appended to
                    // each partition's WAL so partition recovery can replay
                    // state without re-executing batches. Within a batch at
                    // most one transaction wins any given key (the WAW
                    // check), so log order per key matches install order.
                    //
                    // Aria has no prepare round, so remote write partitions
                    // are registered here, before the timestamp is
                    // finalized: the reservation's watermark floor must
                    // cover every log this write-set lands on, and each
                    // participant's watermark must stay pinned until
                    // `txn_committed` confirms the entries are appended.
                    let participants = ctx.access.participants(home);
                    for p in &participants {
                        cluster.group_commit.add_participant(ticket, *p, 0);
                    }
                    let ts = cluster.group_commit.reserve_commit_ts(ticket, 0);
                    // Nothing is locked at Aria's install: look each record up
                    // once, for its before-image.
                    let records: Vec<_> = (ctx.access.writes.iter())
                        .map(|w| cluster.partition(w.partition).store.get(w.table, w.key))
                        .collect();
                    let records = records.iter().map(Option::as_ref);
                    // The decision is made, but nothing is installed yet: a
                    // crash that fenced a log of the write-set since the
                    // attempt began still aborts it here.
                    let (terms, writes) = (&ctx.access.terms, &ctx.access.writes);
                    if log_txn_writes(cluster, terms, txn, ts, writes, records).is_err()
                        || straddles_crash(cluster, terms, txn, home, &participants, writes)
                    {
                        Err(AbortReason::CrashAbort.into())
                    } else {
                        for w in writes {
                            // The commit decision is already made, so inserts
                            // create their record directly (install flips it
                            // Visible) and deletes tombstone + reclaim. The slot
                            // is claimed in uncommitted state first so a
                            // concurrent snapshot reader never observes a
                            // placeholder value, and every install carries the
                            // finalized commit timestamp for the version chain.
                            let table = cluster.partition(w.partition).store.table(w.table);
                            match w.kind {
                                WriteKind::Delete => {
                                    if let Some(record) = table.get(w.key) {
                                        record.install_tombstone_next_version_at(ts);
                                        cluster.note_installed(w.partition, &record, ts);
                                        table.reclaim(w.key);
                                    }
                                }
                                _ => {
                                    let record = match table.insert_slot(w.key, txn) {
                                        primo_storage::InsertSlot::Existing(r)
                                        | primo_storage::InsertSlot::Created(r)
                                        | primo_storage::InsertSlot::Revived(r) => r,
                                        // Unreachable within Aria (the WAW check
                                        // admits one writer per key per batch),
                                        // but stay safe: replace the slot with a
                                        // record born at `ts`.
                                        primo_storage::InsertSlot::Busy => {
                                            table.restore(w.key, w.value.clone(), ts);
                                            continue;
                                        }
                                    };
                                    record.install_next_version_at(w.value.clone(), ts);
                                    cluster.note_installed(w.partition, &record, ts);
                                }
                            }
                        }
                        Ok(CommittedTxn {
                            ts,
                            ops,
                            distributed,
                        })
                    }
                }
            }
        };

        // ---- Barrier 2: everyone decided; the batch is finished. ----
        let arrived_us = now_us();
        self.barrier(&batch, |st| st.decided += 1, |st| st.decided >= st.joined);
        let wait_us = now_us() - arrived_us;
        trace(TraceEventKind::BatchBarrier {
            wait_us,
            round_us: 0,
        });
        ctx.finish(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::Value;
    use primo_runtime::txn::{IncrementProgram, TxnContext};
    use primo_runtime::worker::run_session_txn;

    fn loaded(n: usize) -> Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::for_tests(n));
        for p in 0..n as u32 {
            for k in 0..32u64 {
                cluster
                    .partition(PartitionId(p))
                    .store
                    .insert(TableId(0), k, Value::from_u64(0));
            }
        }
        cluster
    }

    fn quick_cfg() -> AriaConfig {
        AriaConfig {
            batch_window_us: 500,
            barrier_timeout: Duration::from_millis(50),
        }
    }

    #[test]
    fn single_transaction_commits_in_its_own_batch() {
        let cluster = loaded(2);
        let protocol = AriaProtocol::new(quick_cfg());
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![
                (PartitionId(0), TableId(0), 1),
                (PartitionId(1), TableId(0), 1),
            ],
        };
        run_session_txn(&cluster, &protocol, &prog).unwrap();
        assert_eq!(
            cluster
                .partition(PartitionId(1))
                .store
                .get(TableId(0), 1)
                .unwrap()
                .read()
                .value
                .as_u64(),
            1
        );
        cluster.shutdown();
    }

    #[test]
    fn conflicting_batch_members_abort_deterministically() {
        // Two transactions in the same batch writing the same key: the one
        // with the larger TID must abort with a deterministic conflict.
        let cluster = loaded(1);
        let protocol = Arc::new(AriaProtocol::new(AriaConfig {
            batch_window_us: 20_000,
            barrier_timeout: Duration::from_millis(200),
        }));
        let t_old = cluster.next_txn_id(PartitionId(0));
        let t_new = cluster.next_txn_id(PartitionId(0));
        let mut handles = Vec::new();
        for txn in [t_old, t_new] {
            let cluster = Arc::clone(&cluster);
            let protocol = Arc::clone(&protocol);
            handles.push(std::thread::spawn(move || {
                let prog = IncrementProgram {
                    home: PartitionId(0),
                    accesses: vec![(PartitionId(0), TableId(0), 7)],
                };
                let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
                protocol
                    .execute_once(&cluster, &prog, &ticket, ReadFanout::empty())
                    .map(|c| c.ops)
                    .map_err(|e| e.reason())
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let commits = results.iter().filter(|r| r.is_ok()).count();
        let det_aborts = results
            .iter()
            .filter(|r| matches!(r, Err(AbortReason::DeterministicConflict)))
            .count();
        assert_eq!(commits, 1, "exactly one of the two may commit: {results:?}");
        assert_eq!(det_aborts, 1, "the other aborts deterministically");
        cluster.shutdown();
    }

    /// Writes key 1 on both partitions, then crashes and recovers partition
    /// 1 from its own body: after the attempt began, before its decision is
    /// installed. Partition 1 is up again at the decision, so only the
    /// fence stands between the write-set and its log.
    struct CrashingWriter(Arc<Cluster>);

    impl TxnProgram for CrashingWriter {
        fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
            for p in [PartitionId(0), PartitionId(1)] {
                ctx.write(p, TableId(0), 1, Value::from_u64(1))?;
            }
            self.0.crash_partition(PartitionId(1));
            self.0.recover_partition(PartitionId(1));
            Ok(())
        }

        fn home_partition(&self) -> PartitionId {
            PartitionId(0)
        }
    }

    #[test]
    fn a_crash_after_the_attempt_began_aborts_its_install() {
        // Aria decides before it logs, and its install has no abort path of
        // its own: the fenced log of the crashed participant refuses the
        // write-set, so the decided transaction aborts with nothing
        // installed anywhere and its survivor's entry sealed.
        let cluster = loaded(2);
        cluster.checkpoint_all();
        let protocol = AriaProtocol::new(quick_cfg());
        let txn = cluster.next_txn_id(PartitionId(0));
        let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
        let prog = CrashingWriter(Arc::clone(&cluster));
        let outcome = protocol.execute_once(&cluster, &prog, &ticket, ReadFanout::empty());
        assert_eq!(
            outcome.err().map(|e| e.reason()),
            Some(AbortReason::CrashAbort)
        );
        cluster.group_commit.txn_aborted(&ticket);
        for p in [PartitionId(0), PartitionId(1)] {
            let record = cluster.partition(p).store.get(TableId(0), 1);
            assert_eq!(record.map(|r| r.read().value.as_u64()), Some(0), "{p:?}");
        }
        let sealed = cluster.partition(PartitionId(0)).log.rolled_back_txns();
        assert!(sealed.contains(&txn));
        cluster.shutdown();
    }

    /// Inserts key 1 on both partitions blind: nothing is read.
    struct BlindInserter;

    impl TxnProgram for BlindInserter {
        fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
            for p in [PartitionId(0), PartitionId(1)] {
                ctx.insert(p, TableId(0), 1, Value::from_u64(1))?;
            }
            Ok(())
        }

        fn home_partition(&self) -> PartitionId {
            PartitionId(0)
        }
    }

    #[test]
    fn a_blind_write_to_a_partition_that_is_down_aborts_before_it_logs() {
        // The crash comes before the attempt begins, so the attempt carries
        // the fenced log's new term and no append of it is refused: the
        // decision itself must see that partition 1 is down.
        let cluster = loaded(2);
        cluster.checkpoint_all();
        cluster.crash_partition(PartitionId(1));
        let protocol = AriaProtocol::new(quick_cfg());
        let txn = cluster.next_txn_id(PartitionId(0));
        let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
        let outcome = protocol.execute_once(&cluster, &BlindInserter, &ticket, ReadFanout::empty());
        assert_eq!(
            outcome.err().map(|e| e.reason()),
            Some(AbortReason::RemoteUnavailable)
        );
        cluster.group_commit.txn_aborted(&ticket);
        cluster.recover_partition(PartitionId(1));
        for p in [PartitionId(0), PartitionId(1)] {
            let record = cluster.partition(p).store.get(TableId(0), 1);
            assert_eq!(record.map(|r| r.read().value.as_u64()), Some(0), "{p:?}");
            let logged = (cluster.partition(p).log.entries_from(0).into_iter())
                .any(|e| matches!(*e.payload, primo_wal::LogPayload::TxnWrites { txn: t, .. } if t == txn));
            assert!(!logged, "{p:?} logged the aborted write-set");
        }
        cluster.shutdown();
    }

    #[test]
    fn aria_manages_its_own_durability() {
        let protocol = AriaProtocol::new(quick_cfg());
        assert!(protocol.manages_durability());
        assert_eq!(protocol.name(), "Aria");
    }
}
