//! The worker loop: generate → send the read fan-out → (run other clients
//! while it flies) → attempt → (park for the back-off, send again & retry) →
//! group commit → record metrics.
//!
//! Mirrors the paper's DBx1000 setup (§6.1.3): each partition leader runs a
//! fixed number of worker threads; a worker "initiates a new transaction when
//! the running transaction is waiting"; an aborted transaction backs off
//! exponentially starting at 0.5 ms and is retried with the *same* TID (so
//! WAIT_DIE priorities age and starvation is avoided) — in DBx1000 from an
//! abort queue, while the worker runs other transactions.
//!
//! A transaction can wait five times: for its read fan-out, for the 2PC vote
//! round, for the 2PC decision round, for a back-off, for the group commit.
//! Three of the waits are the client's alone. While the group commit makes a
//! result durable the client sits in `pending` (`MAX_PENDING_COMMITS`).
//! While its batched read fan-out is on the wire it sits in a FIFO of
//! `Prepared` clients — generated, sent, and holding nothing else. While it
//! backs off it is parked in a deadline-ordered set of the same `Prepared`
//! clients, holding as little; when the back-off is over the retry's
//! fan-out — the plan the aborted attempt learned — is sent and the client
//! queued like a new one. Back-off, then flight, stay sequential *for the
//! client* (its latency and the paper's schedule are what they were); neither
//! is the worker's, which runs whoever is ready: a client with nothing to
//! fetch at once, the oldest queued one when its replies are due. The two
//! 2PC rounds are still the worker's: during them the transaction holds its
//! locks, so running other clients meanwhile puts whole transactions in
//! flight side by side on one worker — emulated at 2 / 3 of them a partition
//! on `ycsb_hot_2pc` that is x 1.85 / x 2.0 `tps` for + 11.5 % / + 30 %
//! `commit_mean_ms` and 40 % / 53 % aborts: it needs an admission rule first
//! (ROADMAP). Bodies, locks and commits of one worker stay strictly
//! sequential; only the waits of one client that hold nothing overlap the
//! work of others. How many clients are kept on the wire is Little's law on
//! two measured quantities (`Pace`), not a setting: a local-only workload
//! with nothing aborting runs at depth 0 through the same loop.

use crate::cluster::Cluster;
use crate::prefetch::{Footprint, ReadFanout};
use crate::protocol::{CommittedTxn, Protocol};
use crate::txn::{TxnProgram, Workload};
use primo_common::sim_time::{charge_latency_us, now_us, wait_until};
use primo_common::{AbortReason, FastRng, Metrics, PartitionId, Phase, PhaseTimers, TxnId};
use primo_trace::TraceEventKind;
use primo_wal::{CommitOutcome, CommitWaiter};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on attempts per transaction so a pathological configuration can
/// never wedge a worker forever.
const MAX_ATTEMPTS: usize = 1_000;

/// The closed loop's client population per worker: how many transactions may
/// be outstanding at once — generated and waiting for their reads, aborted
/// and backing off, or committed and waiting for the group commit. The
/// paper's DBx1000 method
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

/// A client between two runs — taken up and not run yet, or aborted and not
/// retried yet: its transaction is generated, and the read fan-out its plan
/// describes is sent (queued) or waits for the back-off to be over (parked).
/// What it holds is its own — from its first attempt on a transaction id and
/// a place in the paper's retry schedule — and nothing on any partition: no
/// ticket, no lock, no registration, no pin on any watermark. So dropping it
/// (the stop flag, a crashed home) or making it wait (a COCO gate, a
/// recovery) costs nothing.
struct Prepared {
    program: Box<dyn TxnProgram>,
    /// Taken at generate: the client's latency pays for every microsecond it
    /// is queued or parked.
    started: Instant,
    /// The program's static hint, then the last aborted attempt's observed
    /// remote access set.
    plan: Footprint,
    fanout: ReadFanout,
    /// Given by the first attempt and kept by every retry, so WAIT_DIE
    /// priorities age.
    txn: Option<TxnId>,
    /// Attempts made so far.
    attempts: usize,
    /// The back-off level its next retryable abort waits out.
    backoff_us: u64,
    timers: PhaseTimers,
    /// Since when it waits for what it waits for now: its flight and the
    /// queue (generate, or the retry's send) are `Execute`, parked time
    /// (abort to that send) is `Backoff`.
    since: Instant,
}

/// Aborted clients whose back-off is not over, by when it is (`not_before_us`;
/// the id makes the key unique).
type Parked = BTreeMap<(u64, TxnId), Prepared>;

/// The two measured quantities that decide how many clients a worker keeps
/// on the wire.
struct Pace {
    /// Worker time one client takes, nanoseconds: from the end of one run to
    /// the end of the next — taking clients up, running one, reporting
    /// results — less the wait for its replies. An EWMA (1/8, the decay
    /// `sim_time`'s sleep overshoot uses); until the first run it is taken
    /// to last for ever, so nothing is queued on a guess.
    service_ns: u64,
    /// How long the last fan-out sent spends on the wire, nanoseconds.
    flight_ns: u64,
    /// When the last run ended.
    last_ran: Instant,
}

impl Pace {
    fn new() -> Self {
        Pace {
            service_ns: u64::MAX,
            flight_ns: 0,
            last_ran: Instant::now(),
        }
    }

    /// Little's law, asked right where it matters: would a fan-out sent now
    /// be back before the worker has run the `queued` clients ahead of it?
    /// The head is about to run either way, so it is the others whose runs
    /// must cover a flight; while they do not, the worker would end up
    /// waiting on the wire, and takes up another client instead. The rule
    /// shrinks the queue as readily as it grows it: when runs get longer
    /// (2PC rounds) fewer clients cover the same flight, and every client
    /// queued beyond need only adds its wait to its latency.
    fn wants_another(&self, queued: usize) -> bool {
        let behind_head = queued.saturating_sub(1) as u64;
        behind_head.saturating_mul(self.service_ns) < self.flight_ns
    }

    /// A run has just ended; since the one before, the worker waited
    /// `waited_us` for deadlines (replies, a back-off) with nothing to run.
    fn ran(&mut self, waited_us: u64) {
        let now = Instant::now();
        let ns = ((now - self.last_ran).as_nanos() as u64).saturating_sub(waited_us * 1_000);
        self.last_ran = now;
        self.service_ns = match self.service_ns {
            u64::MAX => ns,
            service => service - service / 8 + ns / 8,
        };
    }
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

impl WorkerContext {
    fn attempt<'a>(&'a self, program: &'a dyn TxnProgram) -> Attempt<'a> {
        Attempt {
            cluster: &self.cluster,
            protocol: self.protocol.as_ref(),
            program,
            home: self.home,
        }
    }

    fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }
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
    if ctx.recording() {
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

/// Report every pending transaction whose group-commit outcome is known —
/// after blocking on the oldest, if `block`: back-pressure at the client
/// ceiling, and (the wait being the group commit's demand signal) what
/// closes the group early under the watermark scheme. A result released is
/// the scheme saying its horizon moved, which the version-chain GC wants to
/// know: once per release, not once per commit.
fn release_pending(ctx: &WorkerContext, pending: &mut VecDeque<PendingCommit>, block: bool) {
    let outstanding = pending.len();
    if block {
        if let Some(oldest) = pending.pop_front() {
            let outcome = ctx.cluster.group_commit.wait_durable(&oldest.waiter);
            resolve(ctx, oldest, outcome);
        }
    }
    while let Some(outcome) = pending
        .front()
        .and_then(|front| ctx.cluster.group_commit.try_outcome(&front.waiter))
    {
        let done = pending.pop_front().expect("front was just probed");
        resolve(ctx, done, outcome);
    }
    if pending.len() < outstanding {
        ctx.cluster.horizon_moved();
    }
}

/// Exponential back-off (paper: 0.5 ms initial, doubling): how long to wait
/// at level `b` — a jittered `[b/2, b]`, so colliding retries diverge —
/// leaving `b` doubled, up to `max_us`. The one statement of the schedule:
/// the worker parks a client for this long, [`run_single_txn`] and a worker
/// whose home is down wait it out themselves.
fn next_backoff(rng: &mut FastRng, backoff_us: &mut u64, max_us: u64) -> u64 {
    let wait_us = *backoff_us / 2 + rng.next_below(*backoff_us / 2 + 1);
    *backoff_us = (*backoff_us * 2).min(max_us);
    wait_us
}

/// Wait for a deadline (0: there is none): how long that took, microseconds.
fn wait_out(deadline_us: u64) -> u64 {
    let left_us = match deadline_us {
        0 => 0,
        deadline_us => deadline_us.saturating_sub(now_us()),
    };
    wait_until(deadline_us);
    left_us
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

    /// Put the read fan-out `plan` describes on the wire.
    fn send(&self, plan: &Footprint) -> ReadFanout {
        let mut fanout = ReadFanout::empty();
        fanout.begin(self.cluster, self.home, plan);
        fanout
    }

    /// One attempt under `txn`: open a ticket, take up `fanout` — the batched
    /// reads `plan` describes, sent ([`Attempt::send`]) when the client was
    /// taken up or its back-off was over — run the protocol, tell the group
    /// commit how it ended and leave `Begin` + `Committed` in the flight
    /// recorder (`Abort` is [`Attempt::aborted`]'s, which the caller owes an
    /// `Err`). A commit also takes the log-retention step (its locks are
    /// released) — and, if the protocol releases results itself, tells the
    /// version GC so: nobody waits for this commit, so nobody would later.
    /// An abort leaves its observed remote footprint in `plan` for the
    /// retry.
    fn run(
        &self,
        txn: TxnId,
        attempt: u32,
        plan: &mut Footprint,
        mut fanout: ReadFanout,
        timers: &mut PhaseTimers,
    ) -> Result<(CommittedTxn, CommitWaiter), AbortReason> {
        let (cluster, home) = (self.cluster, self.home);
        let trace = |kind| cluster.recorder.emit(Some(txn), Some(home), kind);
        trace(TraceEventKind::Begin { attempt });
        let ticket = cluster.group_commit.begin_txn(home, txn);
        timers.time(Phase::Execute, || fanout.complete(cluster, home, txn));
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
                if self.protocol.manages_durability() {
                    cluster.horizon_moved();
                }
                Ok((commit, waiter))
            }
            Err(e) => {
                cluster.group_commit.txn_aborted(&ticket);
                if cluster.config.batch_remote_reads {
                    let learned = fanout.learned(home);
                    if !learned.is_empty() {
                        *plan = learned;
                    }
                }
                Err(e.reason())
            }
        }
    }

    /// Attempt number `attempts` of `txn` aborted for `reason`: how long its
    /// client backs off before the next one ([`next_backoff`]) — `None` if
    /// there is none, the reason being final or the attempts used up. Leaves
    /// `Abort` in the flight recorder, with that wait: a retry's latency is
    /// attributable from the stream.
    fn aborted(
        &self,
        txn: TxnId,
        attempts: usize,
        reason: AbortReason,
        rng: &mut FastRng,
        backoff_us: &mut u64,
    ) -> Option<u64> {
        let backoff_max_us = self.cluster.config.backoff_max_us;
        let wait_us = (reason.is_retryable() && attempts < MAX_ATTEMPTS)
            .then(|| next_backoff(rng, backoff_us, backoff_max_us));
        self.cluster.recorder.emit(
            Some(txn),
            Some(self.home),
            TraceEventKind::Abort {
                reason,
                backoff_us: wait_us.unwrap_or(0),
            },
        );
        wait_us
    }
}

/// Take up a new client: generate its transaction and put its read fan-out
/// on the wire. `None` if it was served on the spot — a declared read-only
/// transaction, from the MVCC snapshot at the durable group-commit horizon:
/// no ticket, no locks, no validation, no group-commit wait, the result is
/// final the moment execution ends. An unanswerable read (bounded chain
/// outran the horizon) falls back to the protocol path like any other
/// client.
fn take_up(ctx: &WorkerContext, rng: &mut FastRng) -> Option<Prepared> {
    let program = ctx.workload.generate(rng, ctx.home);
    let started = Instant::now();
    if program.is_read_only() && crate::snapshot::snapshot_reads_enabled(&ctx.cluster) {
        let mut timers = PhaseTimers::new();
        let done = timers.time(Phase::Execute, || {
            match crate::snapshot::execute_snapshot(&ctx.cluster, program.as_ref()) {
                crate::snapshot::SnapshotOutcome::Done(result) => Some(result),
                crate::snapshot::SnapshotOutcome::Fallback => None,
            }
        });
        if let Some(result) = done {
            if ctx.recording() {
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
            return None;
        }
    }
    // The remote-read plan: the program's static hint for the first
    // attempt, then each aborted attempt's observed access set for the
    // retry (reconnaissance-style), so even hint-less programs converge
    // to one batched fan-out per attempt.
    let attempt = ctx.attempt(program.as_ref());
    let plan = attempt.initial_plan();
    let fanout = attempt.send(&plan);
    Some(Prepared {
        program,
        started,
        plan,
        fanout,
        txn: None,
        attempts: 0,
        backoff_us: ctx.cluster.config.backoff_initial_us,
        timers: PhaseTimers::new(),
        since: started,
    })
}

/// Run one attempt of a client's transaction; the caller has waited for its
/// fan-out. A client that must retry is parked until its back-off is over —
/// holding what a queued client holds, and the footprint the attempt
/// learned. Every other client is accounted for: committed (counted here or
/// handed to `pending`), or abandoned — its abort final or its
/// `MAX_ATTEMPTS` used up.
fn run_client(
    ctx: &WorkerContext,
    rng: &mut FastRng,
    pending: &mut VecDeque<PendingCommit>,
    parked: &mut Parked,
    mut client: Prepared,
) {
    // The flight and the queue are where this client's reads were executed.
    client.timers.add(Phase::Execute, client.since.elapsed());
    let txn = *(client.txn).get_or_insert_with(|| ctx.cluster.next_txn_id(ctx.home));
    client.attempts += 1;
    let slowdown = ctx.cluster.partition(ctx.home).slowdown_us();
    if slowdown > 0 {
        // Simulated slow partition (Fig 13b): extra CPU time per attempt,
        // charged as execution time.
        (client.timers).time(Phase::Execute, || charge_latency_us(slowdown));
    }
    let attempt = ctx.attempt(client.program.as_ref());
    let sent = std::mem::take(&mut client.fanout);
    let (plan, timers) = (&mut client.plan, &mut client.timers);
    match attempt.run(txn, client.attempts as u32, plan, sent, timers) {
        Ok((commit, waiter)) => {
            let Prepared {
                started, timers, ..
            } = client;
            if ctx.protocol.manages_durability() {
                if ctx.recording() {
                    let latency_us = started.elapsed().as_micros() as u64;
                    ctx.metrics
                        .record_commit(latency_us, &timers, commit.distributed);
                }
            } else {
                // The client keeps waiting for the watermark / epoch; the
                // worker moves on to the next transaction.
                pending.push_back(PendingCommit {
                    waiter,
                    started,
                    committed_at: Instant::now(),
                    timers,
                    distributed: commit.distributed,
                });
            }
        }
        Err(reason) => {
            if ctx.recording() {
                ctx.metrics.record_abort(reason);
            }
            match attempt.aborted(txn, client.attempts, reason, rng, &mut client.backoff_us) {
                Some(wait_us) => {
                    client.since = Instant::now();
                    parked.insert((now_us() + wait_us, txn), client);
                }
                None if ctx.recording() => ctx.metrics.record_abandoned(),
                None => {}
            }
        }
    }
}

/// Run the worker loop until the stop flag is raised.
pub fn worker_loop(ctx: WorkerContext) {
    let mut rng = FastRng::for_worker(ctx.home.0, ctx.worker_idx, 0xAB5);
    let mut pending: VecDeque<PendingCommit> = VecDeque::new();
    let mut queued: VecDeque<Prepared> = VecDeque::new();
    let mut parked = Parked::new();
    let mut pace = Pace::new();
    // A client was put ahead of a head whose replies were already back: the
    // head is not passed over a second time.
    let mut passed_over = false;
    // Spent waiting for a deadline since the last run: not the worker's own.
    let mut waited_us = 0;

    while !ctx.stop.load(Ordering::Relaxed) {
        // Report results of transactions whose group commit finished while we
        // were executing newer ones.
        release_pending(&ctx, &mut pending, false);
        let population = queued.len() + parked.len() + pending.len();
        debug_assert!(population <= MAX_PENDING_COMMITS);
        let full = population >= MAX_PENDING_COMMITS;
        let retry_at = parked.first_key_value().map(|(&(at_us, _), _)| at_us);
        let due = |at_us: Option<u64>| at_us.is_some_and(|at_us| at_us <= now_us());
        // No room for a new client, none on the wire and no retry due: wait
        // for a result. A retry due *later* waits with the worker — at most
        // the release lag over its time, as behind any run — because the
        // block is what tells the group commit that clients are waiting
        // (`wait_durable` is the demand signal): a worker that hopped from
        // one parked deadline to the next would never send it, and its
        // results would come at the interval. Only when every client is
        // parked is the earliest back-off what the worker waits for.
        if full && queued.is_empty() && !due(retry_at) {
            match retry_at {
                Some(at_us) if pending.is_empty() => waited_us += wait_out(at_us),
                _ => release_pending(&ctx, &mut pending, true),
            }
        }

        // COCO-style schemes may briefly forbid starting new transactions.
        ctx.cluster.group_commit.execution_gate(ctx.home);
        if ctx.stop.load(Ordering::Relaxed) {
            break;
        }
        // A dead leader serves no clients. The queued and the parked ones
        // hold nothing and go with it; the worker waits as after a retryable
        // abort (the longest back-off: a recovery takes that long at least).
        if ctx.cluster.net.is_crashed(ctx.home) {
            queued.clear();
            parked.clear();
            let max_us = ctx.cluster.config.backoff_max_us;
            charge_latency_us(next_backoff(&mut rng, &mut { max_us }, max_us));
            continue;
        }

        // Put a client on the wire or run the oldest queued one. On the wire
        // goes a parked client whose back-off is over — the retry's fan-out,
        // from the plan the aborted attempt learned; it is one of the
        // population already — or else a new one, while the queue does not
        // cover a flight ([`Pace::wants_another`]) and the population has
        // room. But a head whose replies are back is passed over by at most
        // one client, so nothing starves behind a stream of clients that have
        // nothing to fetch.
        let head_at = queued.front().map(|head| head.fanout.ready_at_us());
        let head_due = due(head_at);
        let may_pass = !(head_due && passed_over);
        let retry_due = may_pass && due(retry_at);
        let take_new = head_at.is_none() || (may_pass && !full && pace.wants_another(queued.len()));
        let next = if retry_due || take_new {
            passed_over = head_due;
            let client = if retry_due {
                let (_, mut client) = parked.pop_first().expect("a retry is due");
                client.timers.add(Phase::Backoff, client.since.elapsed());
                client.since = Instant::now();
                client.fanout = ctx.attempt(client.program.as_ref()).send(&client.plan);
                Some(client)
            } else {
                take_up(&ctx, &mut rng)
            };
            client.and_then(|client| match client.fanout.flight_us() {
                // Nothing to wait for: run it now, never behind the wire.
                0 => Some(client),
                flight_us => {
                    pace.flight_ns = flight_us * 1_000;
                    queued.push_back(client);
                    None
                }
            })
        } else {
            match retry_at {
                // Nothing is runnable, and the earliest deadline is a
                // back-off's: that retry goes on the wire first.
                Some(at_us) if !head_due && Some(at_us) < head_at => {
                    waited_us += wait_out(at_us);
                    None
                }
                _ => {
                    passed_over = false;
                    queued.pop_front()
                }
            }
        };
        if let Some(client) = next {
            // What is left of its flight is not the worker's own time.
            waited_us += wait_out(client.fanout.ready_at_us());
            run_client(&ctx, &mut rng, &mut pending, &mut parked, client);
            pace.ran(std::mem::take(&mut waited_us));
        }
    }

    // Resolve whatever is still in flight so late commits are counted:
    // block on one waiter after the other until the deadline. Clients still
    // queued or parked are dropped: they hold nothing.
    let deadline = Instant::now() + Duration::from_millis(200);
    while !pending.is_empty() && Instant::now() < deadline {
        release_pending(&ctx, &mut pending, true);
    }
    // No write of this worker will come by to reclaim what these covered.
    ctx.cluster.reclaim_due_versions();
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
    let mut plan = attempt.initial_plan();
    loop {
        attempts += 1;
        let txn = cluster.next_txn_id(home);
        // Jitter seeded by the attempt's id.
        let mut rng = FastRng::new(txn.pack());
        let fanout = attempt.send(&plan);
        let timers = &mut PhaseTimers::new();
        // A session *is* the waiting client: it waits its back-off out here.
        // When the attempts run out it reports what actually aborted the
        // last one rather than a blanket LockConflict.
        let wait_us = match attempt.run(txn, attempts as u32, &mut plan, fanout, timers) {
            Ok(_) if protocol.manages_durability() => return Ok(attempts),
            Ok((_, waiter)) => match cluster.group_commit.wait_durable(&waiter) {
                CommitOutcome::Committed => {
                    cluster.horizon_moved();
                    return Ok(attempts);
                }
                CommitOutcome::CrashAborted if attempts < MAX_ATTEMPTS => {
                    next_backoff(&mut rng, &mut backoff_us, cluster.config.backoff_max_us)
                }
                CommitOutcome::CrashAborted => return Err(AbortReason::CrashAbort),
            },
            Err(reason) => attempt
                .aborted(txn, attempts, reason, &mut rng, &mut backoff_us)
                .ok_or(reason)?,
        };
        charge_latency_us(wait_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::WriteEntry;
    use crate::protocol::CommittedTxn;
    use crate::txn::{IncrementProgram, TxnProgram};
    use primo_common::config::{ClusterConfig, LoggingScheme};
    use primo_common::stats::ClusterStats;
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

    #[test]
    fn the_depth_rule_covers_one_flight_and_shrinks_when_runs_get_longer() {
        let mut pace = Pace::new();
        pace.flight_ns = 220_000;
        // No run measured yet: one client beside the head, no more.
        assert!(pace.wants_another(1) && !pace.wants_another(2));
        // 40 us runs: six of them behind the head cover a 220 us flight.
        pace.service_ns = 40_000;
        assert!(pace.wants_another(6) && !pace.wants_another(7));
        // Runs longer than a flight (2PC rounds): one is enough.
        pace.service_ns = 250_000;
        assert!(pace.wants_another(1) && !pace.wants_another(2));
        // The estimate follows the runs: an eighth of the way each time.
        pace.last_ran = Instant::now() - Duration::from_micros(410);
        pace.ran(0);
        assert!(
            (268_000..275_000).contains(&pace.service_ns),
            "{}",
            pace.service_ns
        );
        // Time spent waiting for replies is not the worker's.
        pace.last_ran = Instant::now() - Duration::from_micros(500);
        pace.ran(500);
        assert!(pace.service_ns < 245_000, "{}", pace.service_ns);
    }

    #[test]
    fn the_backoff_schedule_is_jittered_doubles_and_is_capped() {
        let mut rng = FastRng::new(7);
        // The paper's: 0.5 ms, doubling; capped here at 8 ms.
        let mut level_us = 500;
        for expected_us in [500, 1_000, 2_000, 4_000, 8_000, 8_000, 8_000] {
            assert_eq!(level_us, expected_us);
            let wait_us = next_backoff(&mut rng, &mut level_us, 8_000);
            assert!(
                (expected_us / 2..=expected_us).contains(&wait_us),
                "{wait_us} us at level {expected_us}"
            );
        }
        // Jittered over the whole of `[b/2, b]`, both ends included.
        let waits: Vec<u64> = (0..2_000)
            .map(|_| next_backoff(&mut rng, &mut { 8 }, 8))
            .collect();
        assert_eq!(waits.iter().min(), Some(&4));
        assert_eq!(waits.iter().max(), Some(&8));
        // A level of nothing waits nothing, and stays there.
        assert_eq!(next_backoff(&mut rng, &mut { 0 }, 8_000), 0);
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

    struct EmptyIncrements;

    impl Workload for EmptyIncrements {
        fn name(&self) -> &'static str {
            "empty-increments"
        }
        fn load_partition(&self, _store: &primo_storage::PartitionStore, _p: PartitionId) {}
        fn generate(&self, _rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
            Box::new(IncrementProgram {
                home,
                accesses: vec![],
            })
        }
    }

    /// Regression: a client whose `MAX_ATTEMPTS` ran out used to fall out of
    /// the retry loop counted neither committed nor abandoned.
    #[test]
    fn a_client_out_of_attempts_is_counted_abandoned() {
        let mut config = ClusterConfig::for_tests(1);
        config.backoff_initial_us = 1;
        config.backoff_max_us = 1;
        let cluster = Cluster::new(config);
        let ctx = WorkerContext {
            cluster: Arc::clone(&cluster),
            protocol: Arc::new(AlwaysValidationAbort),
            workload: Arc::new(EmptyIncrements),
            metrics: Arc::new(Metrics::new()),
            home: PartitionId(0),
            worker_idx: 0,
            stop: Arc::new(AtomicBool::new(false)),
            recording: Arc::new(AtomicBool::new(true)),
        };
        let (metrics, stop) = (Arc::clone(&ctx.metrics), Arc::clone(&ctx.stop));
        let worker = std::thread::spawn(move || worker_loop(ctx));
        let abandoned = || metrics.snapshot(1.0, ClusterStats::empty()).abandoned;
        let deadline = Instant::now() + Duration::from_secs(10);
        while abandoned() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        worker.join().expect("the worker panicked");
        // Every abandoned client made all its attempts first; the one cut
        // short by the stop flag is not counted.
        assert!(abandoned() > 0, "nobody ran out of attempts in 10 s");
        assert!(metrics.aborted_attempts() >= MAX_ATTEMPTS as u64 * abandoned());
        assert_eq!(metrics.committed(), 0);
        cluster.shutdown();
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
