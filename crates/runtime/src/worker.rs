//! The worker loop: generate → send the read fan-out → (run other clients
//! while it flies) → body → send the votes → (…) → certify, install, send the
//! decision → (…) → release → (park for the back-off, send again & retry) →
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
//! Every wait is the client's; none is the worker's, which is an event loop
//! over clients that are **queued** (taken up, the fan-out flying, holding
//! nothing), **voting** (body run, votes flying, holding a ticket and nothing
//! else), **deciding** (installed, acknowledgements flying, holding the write
//! locks), **parked** (backing off, holding nothing) or **pending** (waiting
//! for the group commit). Each turn it runs what is ready, oldest first,
//! under one rule: *what holds nothing may overlap, and a worker has at most
//! one lock-holding attempt at a time*. An attempt takes its first lock only
//! when no attempt of this worker holds one — the commit pipeline stops
//! before its certify step for exactly that ([`Step::Waiting`]) — so:
//!
//! * during a deciding client's round the next distributed client runs its
//!   body and sends its votes, after the decider's install, which therefore
//!   never invalidates it; one at a time, so bodies run in install order and
//!   a read-to-validate window stays one round trip long;
//! * a voting client whose votes are back waits for the release, then
//!   certifies;
//! * a client with nothing to fetch — it would lock right after its body —
//!   runs in the gap between a release and the next certify.
//!
//! An attempt that holds locks from its body on (2PL, Primo past its mode
//! switch without WCF) *holds something*: it keeps the worker to itself from
//! start to end, as every attempt used to. A commit without a round (Primo's
//! local TicToc and WCF commits, Aria) has nothing to suspend and runs the
//! same steps at depth 0. How many clients are kept on the wire is Little's
//! law on two measured quantities (`Pace`), not a setting.

use crate::cluster::Cluster;
use crate::pipeline::{Ended, InFlight, Step};
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
/// be outstanding at once — generated and waiting for their reads, in the
/// middle of their commit's rounds, aborted and backing off, or committed and
/// waiting for the group commit. The paper's DBx1000 method
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
    /// (abort to that send) is `Backoff`; its votes (their send) are timed
    /// by the attempt itself.
    since: Instant,
}

/// Aborted clients whose back-off is not over, by when it is (`not_before_us`;
/// the id makes the key unique).
type Parked = BTreeMap<(u64, TxnId), Prepared>;

/// A client in the middle of an attempt: its body has run and a round of its
/// commit is on the wire. What the attempt holds is in the value: a ticket —
/// so it is one of its epoch's transactions in progress, and must be allowed
/// to finish behind a closed gate — and, once it decides, its write locks.
struct Suspended<'a> {
    client: Prepared,
    attempt: InFlight<'a>,
}

impl Suspended<'_> {
    fn ready_at_us(&self) -> u64 {
        self.attempt.ready_at_us()
    }
}

/// The measured quantities that decide how many clients a worker keeps on
/// the wire.
struct Pace {
    /// Worker time one client takes, nanoseconds: from the end of one body
    /// to the end of the next — taking clients up, running one, the later
    /// steps of others' commits, reporting results — less every wait for a
    /// deadline. An EWMA (1/8, the decay `sim_time`'s sleep overshoot uses);
    /// until the first run it is taken to last for ever, so nothing is
    /// queued on a guess.
    service_ns: u64,
    /// How long a client that fetched something keeps the next one's body
    /// waiting beyond its own run, nanoseconds: its votes sent to its
    /// certify begun — the vote round, and the lock-holder's release if
    /// that comes later. An EWMA like `service_ns`; 0 where no attempt is
    /// ever put aside.
    voting_ns: u64,
    /// How long the last fan-out sent spends on the wire, nanoseconds.
    flight_ns: u64,
    /// When the last run ended.
    last_ran: Instant,
}

impl Pace {
    fn new() -> Self {
        Pace {
            service_ns: u64::MAX,
            voting_ns: 0,
            flight_ns: 0,
            last_ran: Instant::now(),
        }
    }

    /// Little's law, asked right where it matters: would a fan-out sent now
    /// be back before the worker has run the `queued` clients ahead of it?
    /// The head is about to run either way, so it is the others whose runs
    /// must cover a flight — and, of them, the `fetched` ones keep the body
    /// behind them waiting for their votes as well: bodies of clients that
    /// fetched run one behind the other's certify. While all that does not
    /// cover a flight the worker would end up waiting on the wire, and takes
    /// up another client instead. The rule shrinks the queue as readily as
    /// it grows it: when runs get longer (the 2PC rounds of attempts that
    /// hold locks throughout) or a vote round stands between two bodies,
    /// fewer clients cover the same flight, and every client queued beyond
    /// need only adds its wait to its latency.
    fn wants_another(&self, queued: usize, fetched: usize) -> bool {
        let behind_head = queued.saturating_sub(1) as u64;
        let runs_ns = behind_head.saturating_mul(self.service_ns);
        runs_ns.saturating_add(fetched as u64 * self.voting_ns) < self.flight_ns
    }

    /// A voting client begins its certify, `waited` after its votes were sent.
    fn voted(&mut self, waited: Duration) {
        self.voting_ns = self.voting_ns - self.voting_ns / 8 + waited.as_nanos() as u64 / 8;
    }

    /// A run has just ended; since the one before, the worker waited
    /// `waited_us` for deadlines (replies, a back-off, a round in hand) with
    /// nothing to run.
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
    fn attempt(&self) -> Attempt<'_> {
        Attempt {
            cluster: &self.cluster,
            protocol: self.protocol.as_ref(),
            home: self.home,
        }
    }

    fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
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

/// What the attempts of one worker, or of one session, run against. The
/// per-attempt lifecycle exists once, in [`Attempt::begin`] and
/// [`Attempt::ended`], for the worker loop — which runs other clients between
/// the two — and for [`run_single_txn`] (every facade session), which is
/// [`Attempt::run`]: the same steps with the waits between them.
struct Attempt<'a> {
    cluster: &'a Cluster,
    protocol: &'a dyn Protocol,
    home: PartitionId,
}

impl<'a> Attempt<'a> {
    /// The first attempt's prefetch plan: the program's static hint (nothing
    /// when batching is off — an empty plan never fans out and never learns).
    fn initial_plan(&self, program: &dyn TxnProgram) -> Footprint {
        if self.cluster.config.batch_remote_reads {
            Footprint::from_keys(self.home, program.read_hint())
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

    /// Begin one attempt under `txn`: leave `Begin` in the flight recorder,
    /// open a ticket, take up `fanout` — the batched reads sent
    /// ([`Attempt::send`]) when the client was taken up or its back-off was
    /// over — and start the protocol, which runs the attempt to its first
    /// wait on the wire or to its end. Whoever sees the attempt
    /// [`Step::Done`] owes it [`Attempt::ended`].
    fn begin(
        &self,
        program: &dyn TxnProgram,
        txn: TxnId,
        attempt: u32,
        mut fanout: ReadFanout,
        timers: &mut PhaseTimers,
    ) -> Step<'a> {
        let (cluster, home) = (self.cluster, self.home);
        (cluster.recorder).emit(Some(txn), Some(home), TraceEventKind::Begin { attempt });
        let ticket = cluster.group_commit.begin_txn(home, txn);
        timers.time(Phase::Execute, || fanout.complete(cluster, home, txn));
        (self.protocol).start(cluster, program, ticket, timers, fanout)
    }

    /// The attempt under `ticket` ended with `outcome`: tell the group commit
    /// and leave `Committed` in the flight recorder (`Abort` is
    /// [`Attempt::aborted`]'s, which the caller owes an `Err`). A commit also
    /// takes the log-retention step (its locks are released) — and, if the
    /// protocol releases results itself, tells the version GC so: nobody
    /// waits for this commit, so nobody would later. An abort leaves its
    /// observed remote footprint in `plan` for the retry.
    fn ended(
        &self,
        (outcome, ticket, fanout): Ended,
        plan: &mut Footprint,
    ) -> Result<(CommittedTxn, CommitWaiter), AbortReason> {
        let (cluster, home, ticket) = (self.cluster, self.home, &*ticket);
        match outcome {
            Ok(commit) => {
                let waiter = cluster
                    .group_commit
                    .txn_committed(ticket, commit.ts, commit.ops);
                let committed = TraceEventKind::Committed { ts: commit.ts };
                (cluster.recorder).emit(Some(ticket.txn), Some(home), committed);
                cluster.fold_due_logs();
                if self.protocol.manages_durability() {
                    cluster.horizon_moved();
                }
                Ok((commit, waiter))
            }
            Err(e) => {
                cluster.group_commit.txn_aborted(ticket);
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

    /// One attempt from [`Attempt::begin`] to [`Attempt::ended`], every wait
    /// sat out.
    fn run(
        &self,
        program: &dyn TxnProgram,
        txn: TxnId,
        attempt: u32,
        plan: &mut Footprint,
        fanout: ReadFanout,
        timers: &mut PhaseTimers,
    ) -> Result<(CommittedTxn, CommitWaiter), AbortReason> {
        let step = self.begin(program, txn, attempt, fanout, timers);
        self.ended(step.wait_out(timers), plan)
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
    let attempt = ctx.attempt();
    let plan = attempt.initial_plan(program.as_ref());
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

/// One worker's clients, wherever they wait, and what it has measured.
struct Worker<'a> {
    ctx: &'a WorkerContext,
    rng: FastRng,
    pending: VecDeque<PendingCommit>,
    queued: VecDeque<Prepared>,
    parked: Parked,
    /// Oldest first.
    voting: VecDeque<Suspended<'a>>,
    /// The one attempt of this worker that holds locks.
    deciding: Option<Suspended<'a>>,
    pace: Pace,
    /// A client was put ahead of a queued one that could have run: that one
    /// is not passed over a second time.
    passed_over: bool,
    /// Spent waiting for a deadline since the last body: not the worker's own.
    waited_us: u64,
}

impl<'a> Worker<'a> {
    fn new(ctx: &'a WorkerContext) -> Self {
        Worker {
            ctx,
            rng: FastRng::for_worker(ctx.home.0, ctx.worker_idx, 0xAB5),
            pending: VecDeque::new(),
            queued: VecDeque::new(),
            parked: Parked::new(),
            voting: VecDeque::new(),
            deciding: None,
            pace: Pace::new(),
            passed_over: false,
            waited_us: 0,
        }
    }

    /// How many of the closed loop's clients are outstanding, wherever.
    fn population(&self) -> usize {
        let suspended = self.voting.len() + self.deciding.iter().len();
        self.queued.len() + suspended + self.parked.len() + self.pending.len()
    }

    fn wait(&mut self, deadline_us: u64) {
        self.waited_us += wait_out(deadline_us);
    }

    /// Run one attempt of a client's transaction, to its end or to where it
    /// waits for its votes holding nothing; its fan-out is back. An attempt
    /// that comes out of its body holding locks keeps the worker until it is
    /// over: nothing of this worker overlaps what holds something.
    fn start(&mut self, mut client: Prepared) {
        let ctx = self.ctx;
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
        let sent = std::mem::take(&mut client.fanout);
        let (program, timers) = (client.program.as_ref(), &mut client.timers);
        match (ctx.attempt()).begin(program, txn, client.attempts as u32, sent, timers) {
            Step::Waiting(attempt) if !attempt.holds_locks() => {
                client.since = Instant::now();
                self.voting.push_back(Suspended { client, attempt });
            }
            step => {
                debug_assert!(
                    self.deciding.is_none() || matches!(step, Step::Done(..)),
                    "two attempts of one worker hold locks"
                );
                let ended = step.wait_out(&mut client.timers);
                self.ended(client, ended);
            }
        }
        self.pace.ran(std::mem::take(&mut self.waited_us));
    }

    /// The replies a suspended attempt waited for are back: run its next
    /// step. Out of its vote round an attempt certifies, installs and decides
    /// — the caller has seen to it that no other attempt of this worker holds
    /// a lock — and becomes the lock-holder while its acknowledgements fly.
    fn resume(&mut self, suspended: Suspended<'a>) {
        let Suspended {
            mut client,
            attempt,
        } = suspended;
        match attempt.resume(&mut client.timers) {
            Step::Waiting(attempt) => {
                debug_assert!(attempt.holds_locks() && self.deciding.is_none());
                self.deciding = Some(Suspended { client, attempt });
            }
            Step::Done(ended) => self.ended(client, ended),
        }
    }

    /// An attempt of `client` is over. A client that must retry is parked
    /// until its back-off is over — holding what a queued client holds, and
    /// the footprint the attempt learned. Every other client is accounted
    /// for: committed (counted here or handed to `pending`), or abandoned —
    /// its abort final or its `MAX_ATTEMPTS` used up.
    fn ended(&mut self, mut client: Prepared, ended: Ended) {
        let (ctx, txn) = (self.ctx, ended.1.txn);
        let attempt = ctx.attempt();
        match attempt.ended(ended, &mut client.plan) {
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
                    self.pending.push_back(PendingCommit {
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
                let (attempts, level) = (client.attempts, &mut client.backoff_us);
                match attempt.aborted(txn, attempts, reason, &mut self.rng, level) {
                    Some(wait_us) => {
                        client.since = Instant::now();
                        self.parked.insert((now_us() + wait_us, txn), client);
                    }
                    None if ctx.recording() => ctx.metrics.record_abandoned(),
                    None => {}
                }
            }
        }
    }

    /// The worker stops serving (the stop flag, a crashed home): what its
    /// suspended attempts hold is given back. The deciding one has installed,
    /// so its release is finished, never dropped. A voting one holds a ticket
    /// and nothing else: the participants are told, the ticket is closed and
    /// the client goes the way of the queued and the parked, which hold
    /// nothing at all.
    fn wind_down(&mut self) {
        if let Some(deciding) = self.deciding.take() {
            wait_until(deciding.ready_at_us());
            self.resume(deciding);
        }
        for Suspended { attempt, .. } in self.voting.drain(..) {
            let cluster = &self.ctx.cluster;
            let ticket = attempt.abandon();
            cluster.group_commit.txn_aborted(&ticket);
            let dropped = TraceEventKind::Abort {
                reason: AbortReason::RemoteUnavailable,
                backoff_us: 0,
            };
            (cluster.recorder).emit(Some(ticket.txn), Some(self.ctx.home), dropped);
        }
        self.queued.clear();
        self.parked.clear();
    }

    /// One turn of the loop: run the oldest thing that is ready, else put a
    /// client on the wire, else wait for the earliest deadline.
    fn turn(&mut self) {
        let ctx = self.ctx;
        // Report results of transactions whose group commit finished while we
        // were executing newer ones.
        release_pending(ctx, &mut self.pending, false);
        // A dead leader serves no clients; the worker waits as after a
        // retryable abort (the longest back-off: a recovery takes that long
        // at least).
        if ctx.cluster.net.is_crashed(ctx.home) {
            self.wind_down();
            let max_us = ctx.cluster.config.backoff_max_us;
            charge_latency_us(next_backoff(&mut self.rng, &mut { max_us }, max_us));
            return;
        }

        // The lock-holder's acknowledgements are back: it releases — others,
        // here and elsewhere, wait on those locks. With nobody holding a lock
        // the oldest voting client whose votes are back takes its first.
        let now = now_us();
        if let Some(deciding) = self.deciding.take_if(|d| d.ready_at_us() <= now) {
            return self.resume(deciding);
        }
        let votes_back = |v: &Suspended<'_>| v.ready_at_us() <= now;
        let certifying = (self.voting.iter().position(votes_back))
            .filter(|_| self.deciding.is_none())
            .and_then(|i| self.voting.remove(i));
        if let Some(certifying) = certifying {
            self.pace.voted(certifying.client.since.elapsed());
            return self.resume(certifying);
        }

        // COCO-style schemes may briefly forbid starting new transactions.
        // Starting, not finishing: a suspended attempt's ticket is what its
        // epoch waits for, so with one in hand the worker does not wait at the
        // gate, it goes on with what it has.
        // (The reply that matters next: the lock-holder's acknowledgements,
        // which every voting client waits behind, or else the first votes.)
        let next_reply_at = match &self.deciding {
            Some(deciding) => Some(deciding.ready_at_us()),
            None => self.voting.iter().map(Suspended::ready_at_us).min(),
        };
        let open = (ctx.cluster.group_commit).execution_gate(ctx.home, next_reply_at.is_none());
        if ctx.stopped() {
            return;
        }
        if !open {
            return self.wait(next_reply_at.expect("asked without waiting"));
        }

        debug_assert!(self.population() <= MAX_PENDING_COMMITS);
        let retry_at = self.parked.first_key_value().map(|(&(at_us, _), _)| at_us);
        let due = |at_us: Option<u64>| at_us.is_some_and(|at_us| at_us <= now_us());
        // No room for a new client, nothing on the wire and no retry due: wait
        // for a result. A retry due *later* waits with the worker — at most
        // the release lag over its time, as behind any run — because the
        // block is what tells the group commit that clients are waiting
        // (`wait_durable` is the demand signal): a worker that hopped from
        // one parked deadline to the next would never send it, and its
        // results would come at the interval. Only when every client is
        // parked is the earliest back-off what the worker waits for.
        let nothing_flies = self.queued.is_empty() && next_reply_at.is_none();
        if self.population() >= MAX_PENDING_COMMITS && nothing_flies && !due(retry_at) {
            match retry_at {
                Some(at_us) if self.pending.is_empty() => self.wait(at_us),
                _ => release_pending(ctx, &mut self.pending, true),
            }
        }
        let full = self.population() >= MAX_PENDING_COMMITS;

        // Which queued client may run its body now. One that fetched runs
        // body and vote round holding nothing, so a lock-holder does not
        // stand in its way — another voting client does: bodies run one
        // behind the other's install, never side by side. One with nothing to
        // fetch locks right behind its body: it runs in the gap, when nobody
        // holds a lock.
        let (gap, no_votes_fly) = (self.deciding.is_none(), self.voting.is_empty());
        let may_start = |c: &Prepared| match c.fanout.flight_us() {
            0 => gap,
            _ => no_votes_fly,
        };
        let ready =
            (self.queued.iter()).position(|c| may_start(c) && c.fanout.ready_at_us() <= now);

        // Put a client on the wire or run the oldest queued one that is
        // ready. On the wire goes a parked client whose back-off is over —
        // the retry's fan-out, from the plan the aborted attempt learned; it
        // is one of the population already — or else a new one, while the
        // queue does not cover a flight ([`Pace::wants_another`]) and the
        // population has room. But a client that is ready is passed over by
        // at most one other, so nothing starves behind a stream of clients
        // that have nothing to fetch.
        let may_pass = !(ready.is_some() && self.passed_over);
        let retry_due = may_pass && due(retry_at);
        let fetched = (self.queued.iter()).filter(|c| c.fanout.flight_us() > 0);
        let covered = !(self.pace).wants_another(self.queued.len(), fetched.count());
        let wanted = self.queued.is_empty() || (may_pass && !covered);
        let next = if retry_due || (wanted && !full) {
            self.passed_over = ready.is_some();
            let client = if retry_due {
                let (_, mut client) = self.parked.pop_first().expect("a retry is due");
                client.timers.add(Phase::Backoff, client.since.elapsed());
                client.since = Instant::now();
                client.fanout = ctx.attempt().send(&client.plan);
                Some(client)
            } else {
                take_up(ctx, &mut self.rng)
            };
            client.and_then(|client| match client.fanout.flight_us() {
                // Nothing to wait for: run it now, never behind the wire.
                0 if gap => Some(client),
                flight_us => {
                    if flight_us > 0 {
                        self.pace.flight_ns = flight_us * 1_000;
                    }
                    self.queued.push_back(client);
                    None
                }
            })
        } else if let Some(i) = ready {
            self.passed_over = false;
            self.queued.remove(i)
        } else {
            // Nothing is runnable: the earliest deadline that makes something
            // so — a reply in hand, a back-off, the replies of a queued
            // client that may start.
            let startable = self.queued.iter().filter(|c| may_start(c));
            let fetched_at = startable.map(|c| c.fanout.ready_at_us());
            let at_us = fetched_at.chain(retry_at).chain(next_reply_at).min();
            self.wait(at_us.expect("a worker with nothing to wait for takes up a client"));
            None
        };
        if let Some(client) = next {
            self.start(client);
        }
    }
}

/// Run the worker loop until the stop flag is raised.
pub fn worker_loop(ctx: WorkerContext) {
    let mut worker = Worker::new(&ctx);
    while !ctx.stopped() {
        worker.turn();
    }
    // Clients still queued or parked are dropped: they hold nothing.
    worker.wind_down();
    // Resolve whatever is still in flight so late commits are counted:
    // block on one waiter after the other until the deadline.
    let deadline = Instant::now() + Duration::from_millis(200);
    while !worker.pending.is_empty() && Instant::now() < deadline {
        release_pending(&ctx, &mut worker.pending, true);
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
        home,
    };
    let mut attempts = 0;
    let mut backoff_us = cluster.config.backoff_initial_us;
    let mut plan = attempt.initial_plan(program);
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
        let wait_us = match attempt.run(program, txn, attempts as u32, &mut plan, fanout, timers) {
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
    use primo_common::{TableId, TxnError, Value};
    use primo_wal::{ReplayBound, TxnTicket};

    /// Stub protocol: every attempt logs one insert write-set (like a real
    /// install path would, under its write locks) and reports success.
    struct LoggingProtocol;

    impl Protocol for LoggingProtocol {
        fn name(&self) -> &'static str {
            "logging-stub"
        }
        fn start<'a>(
            &self,
            cluster: &'a Cluster,
            _program: &dyn TxnProgram,
            ticket: Arc<TxnTicket>,
            _timers: &mut PhaseTimers,
            fanout: ReadFanout,
        ) -> Step<'a> {
            let txn = ticket.txn;
            let ts = cluster.group_commit.finalize_commit_ts(&ticket, 0);
            let writes = [WriteEntry::insert(
                PartitionId(0),
                TableId(0),
                1,
                Value::from_u64(txn.seq),
            )];
            crate::durability::log_txn_writes(cluster, txn, ts, writes.iter().map(|w| (w, None)));
            let commit = CommittedTxn {
                ts,
                ops: 1,
                distributed: false,
            };
            Step::Done((Ok(commit), ticket, fanout))
        }
    }

    #[test]
    fn the_depth_rule_covers_one_flight_and_shrinks_when_runs_get_longer() {
        let mut pace = Pace::new();
        pace.flight_ns = 220_000;
        // No run measured yet: one client beside the head, no more.
        assert!(pace.wants_another(1, 1) && !pace.wants_another(2, 2));
        // 40 us runs: six of them behind the head cover a 220 us flight.
        pace.service_ns = 40_000;
        assert!(pace.wants_another(6, 6) && !pace.wants_another(7, 7));
        // A vote round between two bodies: each queued client that fetched
        // covers that much more. Four rounds of 50 us: two runs are enough;
        // a whole round trip: one fetched client covers a flight by itself,
        // however short the runs — and clients with nothing to fetch do not.
        (0..64).for_each(|_| pace.voted(Duration::from_micros(50)));
        assert!(pace.wants_another(2, 2) && !pace.wants_another(2 + 1, 2 + 1));
        (0..64).for_each(|_| pace.voted(Duration::from_micros(230)));
        assert!(pace.wants_another(3, 0) && !pace.wants_another(1, 1));
        pace.voting_ns = 0;
        // Runs longer than a flight (2PC rounds): one is enough.
        pace.service_ns = 250_000;
        assert!(pace.wants_another(1, 1) && !pace.wants_another(2, 2));
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
        fn start<'a>(
            &self,
            _cluster: &'a Cluster,
            _program: &dyn TxnProgram,
            ticket: Arc<TxnTicket>,
            _timers: &mut PhaseTimers,
            fanout: ReadFanout,
        ) -> Step<'a> {
            let aborted = Err(TxnError::Aborted(AbortReason::Validation));
            Step::Done((aborted, ticket, fanout))
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
