//! The worker loop: generate → attempt → (back-off & retry) → group commit →
//! record metrics.
//!
//! Mirrors the paper's DBx1000 setup (§6.1.3): each partition leader runs a
//! fixed number of worker threads; an aborted transaction backs off
//! exponentially starting at 0.5 ms and is retried with the *same* TID (so
//! WAIT_DIE priorities age and starvation is avoided).

use crate::cluster::Cluster;
use crate::prefetch::{Footprint, ReadFanout};
use crate::protocol::{CommittedTxn, Protocol};
use crate::txn::{TxnProgram, Workload};
use primo_common::sim_time::charge_latency_us;
use primo_common::{AbortReason, FastRng, Metrics, PartitionId, Phase, PhaseTimers, TxnId};
use primo_trace::TraceEventKind;
use primo_wal::{CommitOutcome, CommitWaiter};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on attempts per transaction so a pathological configuration can
/// never wedge a worker forever.
const MAX_ATTEMPTS: usize = 1_000;

/// The closed loop's client population per worker: how many transactions may
/// be waiting for the group commit at once. The paper's DBx1000 method
/// (§6.1.3) has a worker "initiate a new transaction when the running
/// transaction is waiting" — each waiting transaction is a client whose
/// result is outstanding, and a worker that has this many outstanding blocks
/// on the oldest. By Little's law `tps <= workers x 512 / commit latency`.
const MAX_PENDING_COMMITS: usize = 512;

/// A transaction whose write-set is installed but whose result has not yet
/// been confirmed durable by the group commit.
struct PendingCommit {
    waiter: CommitWaiter,
    started: Instant,
    committed_at: Instant,
    timers: PhaseTimers,
    distributed: bool,
}

/// Everything a worker thread needs.
pub struct WorkerContext {
    pub cluster: Arc<Cluster>,
    pub protocol: Arc<dyn Protocol>,
    pub workload: Arc<dyn Workload>,
    pub metrics: Arc<Metrics>,
    pub home: PartitionId,
    pub worker_idx: u32,
    pub stop: Arc<AtomicBool>,
    pub recording: Arc<AtomicBool>,
}

/// The group commit decided `done`: close its `Return` phase, trace the
/// release and count the result.
fn resolve(ctx: &WorkerContext, mut done: PendingCommit, outcome: CommitOutcome) {
    done.timers.add(Phase::Return, done.committed_at.elapsed());
    ctx.cluster.recorder.emit(
        Some(done.waiter.txn),
        Some(done.waiter.coordinator),
        TraceEventKind::GroupCommitRelease {
            committed: matches!(outcome, CommitOutcome::Committed),
        },
    );
    if ctx.recording.load(Ordering::Relaxed) {
        match outcome {
            CommitOutcome::Committed => {
                let latency_us = done.started.elapsed().as_micros() as u64;
                ctx.metrics
                    .record_commit(latency_us, &done.timers, done.distributed);
            }
            CommitOutcome::CrashAborted => ctx.metrics.record_abort(AbortReason::CrashAbort),
        }
    }
}

/// Resolve (without blocking) every pending transaction whose group-commit
/// outcome is now known.
fn drain_pending(ctx: &WorkerContext, pending: &mut VecDeque<PendingCommit>) {
    while let Some(outcome) = pending
        .front()
        .and_then(|front| ctx.cluster.group_commit.try_outcome(&front.waiter))
    {
        let done = pending.pop_front().expect("front was just probed");
        resolve(ctx, done, outcome);
    }
}

/// Block on the oldest pending transaction: back-pressure at the client
/// ceiling, and — the wait being the group commit's demand signal — what
/// closes the group early under the watermark scheme.
fn block_on_oldest(ctx: &WorkerContext, pending: &mut VecDeque<PendingCommit>) {
    if let Some(oldest) = pending.pop_front() {
        let outcome = ctx.cluster.group_commit.wait_durable(&oldest.waiter);
        resolve(ctx, oldest, outcome);
    }
}

/// Exponential back-off (paper: 0.5 ms initial, doubling): wait a jittered
/// `[b/2, b]` so colliding retries diverge, then double `b` up to `max_us`.
fn back_off(rng: &mut FastRng, backoff_us: &mut u64, max_us: u64) {
    let jitter = rng.next_below(*backoff_us / 2 + 1);
    charge_latency_us(*backoff_us / 2 + jitter);
    *backoff_us = (*backoff_us * 2).min(max_us);
}

/// What one attempt of a transaction runs against. The per-attempt lifecycle
/// exists once, in [`Attempt::run`], for the worker loop and for
/// [`run_single_txn`] (every facade session) alike.
struct Attempt<'a> {
    cluster: &'a Cluster,
    protocol: &'a dyn Protocol,
    program: &'a dyn TxnProgram,
    home: PartitionId,
}

impl Attempt<'_> {
    /// The first attempt's prefetch plan: the program's static hint (nothing
    /// when batching is off — an empty plan never fans out and never learns).
    fn initial_plan(&self) -> Footprint {
        if self.cluster.config.batch_remote_reads {
            Footprint::from_keys(self.home, self.program.read_hint())
        } else {
            Footprint::default()
        }
    }

    /// One attempt under `txn`: open a ticket, resolve the batched read
    /// fan-out `plan` describes, run the protocol, tell the group commit how
    /// it ended and leave `Begin` + `Committed` / `Abort` in the flight
    /// recorder. A commit also takes the log-retention step (its locks are
    /// released); an abort leaves its observed remote footprint in `plan`
    /// for the retry.
    fn run(
        &self,
        txn: TxnId,
        attempt: u32,
        plan: &mut Footprint,
        timers: &mut PhaseTimers,
    ) -> Result<(CommittedTxn, CommitWaiter), AbortReason> {
        let (cluster, home) = (self.cluster, self.home);
        let trace = |kind| cluster.recorder.emit(Some(txn), Some(home), kind);
        trace(TraceEventKind::Begin { attempt });
        let ticket = cluster.group_commit.begin_txn(home, txn);
        let mut fanout = ReadFanout::empty();
        if !plan.is_empty() {
            timers.time(Phase::Execute, || fanout.resolve(cluster, home, txn, plan));
        }
        match self
            .protocol
            .execute_once(cluster, txn, self.program, &ticket, timers, &fanout)
        {
            Ok(commit) => {
                let waiter = cluster
                    .group_commit
                    .txn_committed(&ticket, commit.ts, commit.ops);
                trace(TraceEventKind::Committed { ts: commit.ts });
                cluster.fold_due_logs();
                Ok((commit, waiter))
            }
            Err(e) => {
                cluster.group_commit.txn_aborted(&ticket);
                let reason = e.reason();
                trace(TraceEventKind::Abort { reason });
                if cluster.config.batch_remote_reads {
                    let learned = fanout.learned(home);
                    if !learned.is_empty() {
                        *plan = learned;
                    }
                }
                Err(reason)
            }
        }
    }
}

/// Run the worker loop until the stop flag is raised.
pub fn worker_loop(ctx: WorkerContext) {
    let mut rng = FastRng::for_worker(ctx.home.0, ctx.worker_idx, 0xAB5);
    let backoff_initial = ctx.cluster.config.backoff_initial_us;
    let backoff_max = ctx.cluster.config.backoff_max_us;
    let mut pending: VecDeque<PendingCommit> = VecDeque::new();

    while !ctx.stop.load(Ordering::Relaxed) {
        // Report results of transactions whose group commit finished while we
        // were executing newer ones.
        drain_pending(&ctx, &mut pending);
        if pending.len() >= MAX_PENDING_COMMITS {
            block_on_oldest(&ctx, &mut pending);
        }

        // COCO-style schemes may briefly forbid starting new transactions.
        ctx.cluster.group_commit.execution_gate(ctx.home);
        if ctx.stop.load(Ordering::Relaxed) {
            break;
        }

        let program = ctx.workload.generate(&mut rng, ctx.home);
        let mut timers = PhaseTimers::new();
        let started = Instant::now();

        // Declared read-only transactions are served from the MVCC snapshot
        // at the durable group-commit horizon: no ticket, no locks, no
        // validation, no group-commit wait — the result is final the moment
        // execution ends. An unanswerable read (bounded chain outran the
        // horizon) falls back to the protocol path below.
        if program.is_read_only() && crate::snapshot::snapshot_reads_enabled(&ctx.cluster) {
            let done = timers.time(Phase::Execute, || {
                match crate::snapshot::execute_snapshot(&ctx.cluster, program.as_ref()) {
                    crate::snapshot::SnapshotOutcome::Done(result) => Some(result),
                    crate::snapshot::SnapshotOutcome::Fallback => None,
                }
            });
            if let Some(result) = done {
                if ctx.recording.load(Ordering::Relaxed) {
                    match result {
                        Ok(()) => {
                            let latency_us = started.elapsed().as_micros() as u64;
                            // Snapshot reads pay no remote round trips and
                            // never enter the protocol path, so they stay
                            // out of the distributed-latency histogram.
                            ctx.metrics.record_commit(latency_us, &timers, false);
                            ctx.metrics.record_snapshot_read();
                        }
                        Err(e) => {
                            // Program-level abort (e.g. NotFound at the
                            // snapshot): final, never retried.
                            ctx.metrics.record_abort(e.reason());
                            ctx.metrics.record_abandoned();
                        }
                    }
                }
                continue;
            }
        }

        let txn = ctx.cluster.next_txn_id(ctx.home);
        let mut backoff_us = backoff_initial;
        let slowdown = ctx.cluster.partition(ctx.home).slowdown_us();

        // The remote-read plan: the program's static hint for the first
        // attempt, then each aborted attempt's observed access set for the
        // retry (reconnaissance-style), so even hint-less programs converge
        // to one batched fan-out per attempt.
        let attempt = Attempt {
            cluster: &ctx.cluster,
            protocol: ctx.protocol.as_ref(),
            program: program.as_ref(),
            home: ctx.home,
        };
        let mut plan = attempt.initial_plan();

        let mut attempts = 0;
        while attempts < MAX_ATTEMPTS && !ctx.stop.load(Ordering::Relaxed) {
            attempts += 1;
            if slowdown > 0 {
                // Simulated slow partition (Fig 13b): extra CPU time per
                // attempt, charged as execution time.
                timers.time(Phase::Execute, || charge_latency_us(slowdown));
            }
            match attempt.run(txn, attempts as u32, &mut plan, &mut timers) {
                Ok((commit, waiter)) => {
                    if ctx.protocol.manages_durability() {
                        if ctx.recording.load(Ordering::Relaxed) {
                            let latency_us = started.elapsed().as_micros() as u64;
                            ctx.metrics
                                .record_commit(latency_us, &timers, commit.distributed);
                        }
                    } else {
                        // The client keeps waiting for the watermark / epoch;
                        // the worker moves on to the next transaction.
                        pending.push_back(PendingCommit {
                            waiter,
                            started,
                            committed_at: Instant::now(),
                            timers: std::mem::take(&mut timers),
                            distributed: commit.distributed,
                        });
                    }
                    break;
                }
                Err(reason) => {
                    if ctx.recording.load(Ordering::Relaxed) {
                        ctx.metrics.record_abort(reason);
                    }
                    if !reason.is_retryable() {
                        if ctx.recording.load(Ordering::Relaxed) {
                            ctx.metrics.record_abandoned();
                        }
                        break;
                    }
                }
            }
            timers.time(Phase::Backoff, || {
                back_off(&mut rng, &mut backoff_us, backoff_max)
            });
        }
    }

    // Resolve whatever is still in flight so late commits are counted:
    // block on one waiter after the other until the deadline.
    let deadline = Instant::now() + Duration::from_millis(200);
    while !pending.is_empty() && Instant::now() < deadline {
        block_on_oldest(&ctx, &mut pending);
    }
}

/// Spawn all worker threads for an experiment. Returns their join handles.
pub fn spawn_workers(
    cluster: &Arc<Cluster>,
    protocol: &Arc<dyn Protocol>,
    workload: &Arc<dyn Workload>,
    metrics: &Arc<Metrics>,
    stop: &Arc<AtomicBool>,
    recording: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut handles = Vec::new();
    for p in 0..cluster.num_partitions() {
        for w in 0..cluster.config.workers_per_partition {
            let ctx = WorkerContext {
                cluster: Arc::clone(cluster),
                protocol: Arc::clone(protocol),
                workload: Arc::clone(workload),
                metrics: Arc::clone(metrics),
                home: PartitionId(p as u32),
                worker_idx: w as u32,
                stop: Arc::clone(stop),
                recording: Arc::clone(recording),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("worker-{p}-{w}"))
                    .spawn(move || worker_loop(ctx))
                    .expect("spawn worker"),
            );
        }
    }
    handles
}

/// Helper used by tests and examples: run a single transaction to completion
/// (with retries) outside the throughput-measurement machinery. Returns the
/// number of attempts on success.
///
/// Every attempt runs under a **fresh** transaction id. A crash-aborted
/// attempt has already logged a `TxnWrites` entry per partition (and may
/// have been sealed with a `TxnRolledBack` marker by compensation); reusing
/// its id for the retry would let replay's dedup-by-transaction merge the
/// rolled-back and the committed attempt — and a marker would cancel both.
pub fn run_single_txn(
    cluster: &Arc<Cluster>,
    protocol: &dyn Protocol,
    program: &dyn TxnProgram,
) -> Result<usize, AbortReason> {
    let home = program.home_partition();
    // The same snapshot dispatch the worker loop uses: a declared read-only
    // program resolves at the durable horizon unless a read is unanswerable.
    if program.is_read_only() && crate::snapshot::snapshot_reads_enabled(cluster) {
        match crate::snapshot::execute_snapshot(cluster, program) {
            crate::snapshot::SnapshotOutcome::Done(Ok(())) => return Ok(1),
            crate::snapshot::SnapshotOutcome::Done(Err(e)) => return Err(e.reason()),
            crate::snapshot::SnapshotOutcome::Fallback => {}
        }
    }
    let attempt = Attempt {
        cluster,
        protocol,
        program,
        home,
    };
    let mut attempts = 0;
    let mut backoff_us = cluster.config.backoff_initial_us;
    // When MAX_ATTEMPTS runs out, report what actually aborted the last
    // attempt rather than a blanket LockConflict.
    let mut last_reason = AbortReason::LockConflict;
    let mut plan = attempt.initial_plan();
    loop {
        attempts += 1;
        if attempts > MAX_ATTEMPTS {
            return Err(last_reason);
        }
        let txn = cluster.next_txn_id(home);
        match attempt.run(txn, attempts as u32, &mut plan, &mut PhaseTimers::new()) {
            Ok(_) if protocol.manages_durability() => return Ok(attempts),
            Ok((_, waiter)) => match cluster.group_commit.wait_durable(&waiter) {
                CommitOutcome::Committed => return Ok(attempts),
                CommitOutcome::CrashAborted => last_reason = AbortReason::CrashAbort,
            },
            Err(reason) if !reason.is_retryable() => return Err(reason),
            Err(reason) => last_reason = reason,
        }
        // Jitter seeded by the failed attempt's id.
        let mut rng = FastRng::new(txn.pack());
        back_off(&mut rng, &mut backoff_us, cluster.config.backoff_max_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::WriteEntry;
    use crate::protocol::CommittedTxn;
    use crate::txn::{IncrementProgram, TxnProgram};
    use primo_common::config::{ClusterConfig, LoggingScheme};
    use primo_common::{TableId, TxnError, TxnId, Value};
    use primo_wal::{ReplayBound, TxnTicket};

    /// Stub protocol: every attempt logs one insert write-set (like a real
    /// install path would, under its write locks) and reports success.
    struct LoggingProtocol;

    impl Protocol for LoggingProtocol {
        fn name(&self) -> &'static str {
            "logging-stub"
        }
        fn execute_once(
            &self,
            cluster: &Cluster,
            txn: TxnId,
            _program: &dyn TxnProgram,
            ticket: &TxnTicket,
            _timers: &mut primo_common::PhaseTimers,
            _fanout: &ReadFanout,
        ) -> primo_common::TxnResult<CommittedTxn> {
            let ts = cluster.group_commit.finalize_commit_ts(ticket, 0);
            let writes = [WriteEntry::insert(
                PartitionId(0),
                TableId(0),
                1,
                Value::from_u64(txn.seq),
            )];
            crate::durability::log_txn_writes(cluster, txn, ts, writes.iter().map(|w| (w, None)));
            Ok(CommittedTxn {
                ts,
                ops: 1,
                distributed: false,
            })
        }
    }

    /// Regression: a crash-aborted-then-committed transaction must log its
    /// attempts under **distinct** transaction ids. With a shared id,
    /// replay's dedup-by-transaction merges the rolled-back and the
    /// committed attempt — and a `TxnRolledBack` marker for the first
    /// attempt would cancel the committed one too.
    #[test]
    fn retries_after_crash_abort_use_fresh_txn_ids() {
        let mut config = ClusterConfig::for_tests(1);
        config.wal.scheme = LoggingScheme::Clv;
        config.wal.persist_delay_us = 30_000; // 30 ms
        let cluster = Cluster::new(config);
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![],
        };
        let c2 = Arc::clone(&cluster);
        let runner = std::thread::spawn(move || run_single_txn(&c2, &LoggingProtocol, &prog));
        // Inject the scheme-level crash while the first attempt is inside
        // its persist window (the partition itself stays up): under CLV a
        // commit whose window spans the crash instant is rolled back; the
        // retry starts after the instant and commits.
        while cluster.partition(PartitionId(0)).log.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.group_commit.on_partition_crash(PartitionId(0));
        let attempts = runner.join().unwrap().expect("the retry commits");
        assert!(
            attempts >= 2,
            "at least one crash-aborted attempt, got {attempts}"
        );
        std::thread::sleep(Duration::from_millis(35));
        let replayed = cluster.partition(PartitionId(0)).log.replay_range(
            0,
            &ReplayBound::Lsn(u64::MAX),
            None,
        );
        assert_eq!(
            replayed.len(),
            attempts,
            "every attempt logged under its own id — dedup must not merge them"
        );
        cluster.shutdown();
    }

    /// Regression: exhausting MAX_ATTEMPTS reports the reason that actually
    /// aborted the last attempt, not a blanket LockConflict.
    struct AlwaysValidationAbort;

    impl Protocol for AlwaysValidationAbort {
        fn name(&self) -> &'static str {
            "always-validation"
        }
        fn execute_once(
            &self,
            _cluster: &Cluster,
            _txn: TxnId,
            _program: &dyn TxnProgram,
            _ticket: &TxnTicket,
            _timers: &mut primo_common::PhaseTimers,
            _fanout: &ReadFanout,
        ) -> primo_common::TxnResult<CommittedTxn> {
            Err(TxnError::Aborted(AbortReason::Validation))
        }
    }

    #[test]
    fn exhausted_retries_surface_the_last_real_reason() {
        let mut config = ClusterConfig::for_tests(1);
        config.backoff_initial_us = 1;
        config.backoff_max_us = 1;
        let cluster = Cluster::new(config);
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![],
        };
        let err = run_single_txn(&cluster, &AlwaysValidationAbort, &prog).unwrap_err();
        assert_eq!(err, AbortReason::Validation, "not a blanket LockConflict");
        cluster.shutdown();
    }
}
