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
//! on the latency path, which is what Fig 4c/5c show.

use parking_lot::{Condvar, Mutex};
use primo_common::sim_time::{now_us, wait_until};
use primo_common::{AbortReason, Key, PartitionId, Phase, PhaseTimers, TableId, TxnResult};
use primo_runtime::access::WriteKind;
use primo_runtime::cluster::Cluster;
use primo_runtime::context::{AccessCtx, ReadPolicy};
use primo_runtime::durability::log_txn_writes;
use primo_runtime::pipeline::Step;
use primo_runtime::prefetch::ReadFanout;
use primo_runtime::protocol::{CommittedTxn, Protocol};
use primo_runtime::txn::TxnProgram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
    id: u64,
    open_until_us: u64,
    state: Mutex<BatchState>,
    cond: Condvar,
    /// Write reservations: key -> smallest transaction priority that wants to
    /// write it in this batch.
    reservations: Mutex<HashMap<(u32, u32, Key), u64>>,
}

impl Batch {
    fn new(id: u64, open_until_us: u64) -> Self {
        Batch {
            id,
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
    next_batch_id: AtomicU64,
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
            next_batch_id: AtomicU64::new(1),
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
            let id = self.next_batch_id.fetch_add(1, Ordering::Relaxed);
            *cur = Some(Arc::new(Batch::new(id, now + self.cfg.batch_window_us)));
        }
        let batch = Arc::clone(cur.as_ref().unwrap());
        let mut st = batch.state.lock();
        st.joined += 1;
        let idx = st.joined - 1;
        drop(st);
        (batch, idx)
    }

    fn barrier(
        &self,
        batch: &Batch,
        advance: impl FnOnce(&mut BatchState),
        reached: impl Fn(&BatchState) -> bool,
    ) {
        let mut st = batch.state.lock();
        advance(&mut st);
        batch.cond.notify_all();
        let deadline = std::time::Instant::now() + self.cfg.barrier_timeout;
        while !reached(&st) && std::time::Instant::now() < deadline {
            batch.cond.wait_for(&mut st, Duration::from_millis(1));
        }
    }

    fn reservation_key(p: PartitionId, t: TableId, k: Key) -> (u32, u32, Key) {
        (p.0, t.0, k)
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
        timers: &mut PhaseTimers,
        fanout: ReadFanout,
    ) -> Step<'a> {
        let home = program.home_partition();
        let txn = ticket.txn;
        let priority = txn.pack();

        // ---- Sequencing: wait for the batch to close. ----
        let (batch, join_idx) = self.join_batch();
        timers.time(Phase::Sequence, || wait_until(batch.open_until_us));

        // ---- Execution phase: run against the current snapshot, no locks. ----
        let mut ctx = AccessCtx::new(cluster, ticket, home, ReadPolicy::Optimistic, fanout);
        let exec = ctx.run_body(program, timers);
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
        timers.time(Phase::WaitBatch, || {
            self.barrier(&batch, |st| st.executed += 1, |st| st.executed >= st.joined);
        });
        // One cross-partition synchronization per batch (charged by the first
        // member so the cost is per-batch, not per-transaction).
        if join_idx == 0 && cluster.num_partitions() > 1 {
            timers.time(Phase::TwoPc, || {
                let others: Vec<PartitionId> = cluster
                    .partition_ids()
                    .into_iter()
                    .filter(|p| *p != home)
                    .collect();
                cluster.net.round_trip_multi(home, &others);
            });
        }

        // ---- Commit phase: deterministic conflict checks, then install. ----
        let decision: TxnResult<CommittedTxn> = if let Err(e) = exec {
            Err(e)
        } else {
            let conflict = timers.time(Phase::Commit, || {
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
                // Put/insert/delete contract (checked at the decision point —
                // after it, Aria's deterministic install cannot abort): a
                // plain write or a delete of a record that does not exist —
                // or is an invisible tombstone — is an error, matching every
                // other protocol's NotFound behaviour. Checked *after* the
                // reservation checks so a same-batch insert of the same key
                // deterministically wins as a WAW conflict (retryable)
                // instead of racing install order into a permanent NotFound.
                for w in &ctx.access.writes {
                    if matches!(w.kind, WriteKind::Put | WriteKind::Delete)
                        && ctx.record_visible(w.partition, w.table, w.key).is_err()
                    {
                        return Err(AbortReason::NotFound);
                    }
                }
                Ok(())
            });
            match conflict {
                Err(reason) => Err(reason.into()),
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
                    for p in ctx.access.participants(home) {
                        cluster.group_commit.add_participant(ticket, p, 0);
                    }
                    let ts = cluster.group_commit.finalize_commit_ts(ticket, 0);
                    timers.time(Phase::Commit, || {
                        // Nothing is locked at Aria's install: look each
                        // record up once, for its before-image.
                        let records: Vec<_> = (ctx.access.writes.iter())
                            .map(|w| cluster.partition(w.partition).store.get(w.table, w.key))
                            .collect();
                        let records = records.iter().map(Option::as_ref);
                        log_txn_writes(cluster, txn, ts, ctx.access.writes.iter().zip(records));
                        for w in &ctx.access.writes {
                            // The commit decision is already made, so inserts
                            // create their record directly (install flips it
                            // Visible) and deletes tombstone + reclaim. The
                            // slot is claimed in uncommitted state first so a
                            // concurrent snapshot reader never observes a
                            // placeholder value, and every install carries
                            // the finalized commit timestamp for the version
                            // chain.
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
                                        // Unreachable within Aria (the WAW
                                        // check admits one writer per key per
                                        // batch), but stay safe: replace the
                                        // slot with a record born at `ts`.
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
                    });
                    Ok(CommittedTxn {
                        ts,
                        ops,
                        distributed,
                    })
                }
            }
        };

        // ---- Barrier 2: everyone decided; the batch is finished. ----
        timers.time(Phase::WaitBatch, || {
            self.barrier(&batch, |st| st.decided += 1, |st| st.decided >= st.joined);
        });
        let _ = batch.id;

        ctx.finish(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::Value;
    use primo_runtime::txn::IncrementProgram;
    use primo_runtime::worker::run_single_txn;

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
        run_single_txn(&cluster, &protocol, &prog).unwrap();
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
                let mut timers = PhaseTimers::new();
                protocol
                    .execute_once(&cluster, &prog, &ticket, &mut timers, ReadFanout::empty())
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

    #[test]
    fn aria_manages_its_own_durability() {
        let protocol = AriaProtocol::new(quick_cfg());
        assert!(protocol.manages_durability());
        assert_eq!(protocol.name(), "Aria");
    }
}
