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
//! under one rule: *what holds nothing may overlap, and the lock-holders of
//! one worker never share a key*. The commit pipeline stops before its
//! certify step ([`Step::Waiting`]) so that the worker decides when an
//! attempt takes its first lock:
//!
//! * a voting client whose votes are back certifies at once if nobody holds
//!   a lock — or beside the holders, if its certify cannot block the thread
//!   and its exact access set shares no key with theirs; else it waits for
//!   the releases;
//! * a queued client whose *declared* footprint (its program's `read_hint`)
//!   shares no key with a voting attempt runs its body — during other
//!   clients' vote rounds, and during the holders' decision rounds, whose
//!   installs it then reads; a client with nothing to fetch, which locks
//!   right after its body, must miss the holders' keys as well. A body whose
//!   keys a voting client read waits in the queue: its install would
//!   invalidate that client;
//! * a client that declared nothing keeps the rule by kind: one that fetched
//!   runs its body when no vote round flies (bodies in install order), one
//!   with nothing to fetch in the gap, when nobody holds a lock.
//!
//! A declaration is a hint: one that misses a key costs at worst an abort,
//! never correctness, because the certify check is exact. An attempt that
//! holds locks from its body on (2PL, Primo past its mode switch without
//! WCF) *holds something*: it keeps the worker to itself from start to end,
//! as every attempt used to, and where reads lock or write locks wait
//! ([`InFlight::overlappable`]) no holders overlap. A commit without a round
//! (Primo's local TicToc and WCF commits, Aria) has nothing to suspend and
//! runs the same steps at depth 0. How many clients are kept on the wire is
//! Little's law on what the worker measures (`Pace`), not a setting: the
//! runs of the queued clients behind the head, plus a vote round for each
//! one that fetched times the share of such bodies a voting client held
//! back (or that touched a key they had not declared), must cover a flight.
//!
//! Nor does a full worker wait for the group commit if it can help it. Its
//! results come when the scheme releases them, and under the watermark
//! scheme a release comes one release lag after a client demands it. A
//! worker that only blocked at its ceiling (`MAX_PENDING_COMMITS`) would
//! sit out that lag every group, so it asks ahead
//! ([`GroupCommit::demand`](primo_wal::GroupCommit::demand)) for the commit
//! it just put in `pending`, once per group, when the clients it still has
//! room for would take it no longer than the lag it last measured
//! (`Pace::wants_release`, Little's law again). The release then comes about
//! when the population fills. What it may release is the scheme's, as
//! before: only the moment of the demand moved.
//!
//! A facade session is this loop with one client ([`run_session_txn`]): a
//! worker with no workload takes up no client of its own and counts as
//! full, so its turns, run on the caller's thread, drive the caller's program
//! and block on its group commit until the program has a result.

use crate::access::AccessSet;
use crate::cluster::Cluster;
use crate::pipeline::{Ended, InFlight, Step};
use crate::prefetch::{Footprint, ReadFanout};
use crate::protocol::Protocol;
use crate::snapshot::{execute_snapshot, snapshot_reads_enabled, SnapshotOutcome};
use crate::txn::{TxnProgram, Workload};
use primo_common::sim_time::{charge_latency_us, now_us, wait_until};
use primo_common::{AbortReason, FastRng, Key, Metrics, PartitionId, TableId, TxnId};
use primo_trace::TraceEventKind;
use primo_wal::{CommitOutcome, CommitWaiter};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// A client whose write-set is installed but whose result has not yet been
/// confirmed durable by the group commit. A crash can still abort it, and
/// then it is retried, so it keeps its program and its place in the retry
/// schedule — and nothing else of its last attempt: a commit learned no
/// footprint.
struct PendingCommit<'a> {
    waiter: CommitWaiter,
    program: Box<dyn TxnProgram + 'a>,
    started_us: u64,
    attempts: usize,
    backoff_us: u64,
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
struct Prepared<'a> {
    program: Box<dyn TxnProgram + 'a>,
    /// Taken at generate: the client's latency pays for every microsecond it
    /// is queued or parked.
    started_us: u64,
    /// The program's `read_hint`, home keys included: the keys it declares
    /// it will touch, which admission holds against the attempts in hand
    /// (empty: nothing declared).
    declared: Vec<(PartitionId, TableId, Key)>,
    /// The remote part of `declared` (nothing when batching is off — an
    /// empty plan never fans out and never learns), then the last aborted
    /// attempt's observed remote access set.
    plan: Footprint,
    fanout: ReadFanout,
    /// Given by the first attempt and kept by every retry, so WAIT_DIE
    /// priorities age — but not past a crash-class abort: that attempt may
    /// have left write-sets logged (and sealed) or, orphaned, locks held
    /// under its id, so the next attempt takes a fresh one.
    txn: Option<TxnId>,
    /// Attempts made so far.
    attempts: usize,
    /// The back-off level its next retryable abort waits out.
    backoff_us: u64,
    /// Its replies were back and a voting client kept its body waiting —
    /// the only thing that refuses a client that fetched. Marked by every
    /// scan for the next body to run, taken when its body runs.
    held: Cell<bool>,
}

/// Aborted clients whose back-off is not over, by when it is (`not_before_us`;
/// the id of the attempt that aborted makes the key unique).
type Parked<'a> = BTreeMap<(u64, TxnId), Prepared<'a>>;

/// A client in the middle of an attempt: its body has run and a round of its
/// commit is on the wire. What the attempt holds is in the value: a ticket —
/// so it is one of its epoch's transactions in progress, and must be allowed
/// to finish behind a closed gate — and, once it decides, its write locks.
struct Suspended<'a> {
    client: Prepared<'a>,
    attempt: InFlight<'a>,
}

impl Suspended<'_> {
    fn ready_at_us(&self) -> u64 {
        self.attempt.ready_at_us()
    }

    fn access(&self) -> &AccessSet {
        self.attempt.access()
    }
}

/// The measured quantities that decide how many clients a worker keeps on
/// the wire — a run, a vote round, the share of bodies a vote round holds
/// back and a flight — and when it asks for a release: a run and a release
/// lag.
struct Pace {
    /// Worker time one client takes, nanoseconds: from the end of one body
    /// to the end of the next — taking clients up, running one, the later
    /// steps of others' commits, reporting results — less every wait for a
    /// deadline. An EWMA (1/8, the decay `sim_time`'s sleep overshoot uses);
    /// until the first run it is taken to last for ever, so nothing is
    /// queued on a guess.
    service_ns: u64,
    /// How long a voting client keeps a body it holds back waiting beyond
    /// its own run, nanoseconds: its votes sent to its certify begun — the
    /// vote round, and a conflicting holder's release if that comes later.
    /// An EWMA like `service_ns`; 0 where no attempt is ever put aside.
    voting_ns: u64,
    /// The share of the bodies of clients that fetched which a voting client
    /// held back, their replies in ([`Prepared::held`]), or which touched a
    /// key they had not declared — the scan could not have held those back
    /// for it, so they count as held: an EWMA like `service_ns`, one sample
    /// per such body that reaches its vote round. It starts at 1 — every one
    /// — and is not sampled while `voting_ns` is 0.
    held_share: f64,
    /// How long the last fan-out sent spends on the wire, nanoseconds.
    flight_ns: u64,
    /// When the last run ended, [`now_us`].
    last_ran_us: u64,
    /// How long the group commit takes to release a commit this worker
    /// demanded, nanoseconds: from the demand — asked ahead, or a block at
    /// the ceiling — to the release. An EWMA like `service_ns`, seeded by
    /// the first sample; 0 until then, so the first demand is a block.
    release_lag_ns: u64,
}

impl Pace {
    fn new(now_us: u64) -> Self {
        Pace {
            service_ns: u64::MAX,
            voting_ns: 0,
            held_share: 1.0,
            flight_ns: 0,
            last_ran_us: now_us,
            release_lag_ns: 0,
        }
    }

    /// Little's law, asked right where it matters: would a fan-out sent now
    /// be back before the worker has run the `queued` clients ahead of it?
    /// The head is about to run either way, so it is the others whose runs
    /// must cover a flight — and, of them, the `fetched` ones that a voting
    /// client holds back (the measured share of them) keep the body behind
    /// them waiting for a vote round as well: `(queued - 1) × service +
    /// fetched × held_share × voting`. A body whose declared keys miss the
    /// voters' runs at once and adds nothing, where the declaration covers
    /// the body's keys (YCSB's); a partial one (TPC-C's) or none keeps the
    /// share at 1, the round charged for every fetched client. While all
    /// that does not cover a flight the worker would end up waiting on the
    /// wire, and takes up another client instead. The rule shrinks the queue
    /// as readily as it grows it: when runs get longer (the 2PC rounds of
    /// attempts that hold locks throughout) or vote rounds hold more bodies
    /// back, fewer clients cover the same flight, and every client queued
    /// beyond need only adds its wait to its latency.
    fn wants_another(&self, queued: usize, fetched: usize) -> bool {
        let behind_head = queued.saturating_sub(1) as u64;
        let runs_ns = behind_head.saturating_mul(self.service_ns);
        let held_ns = match self.voting_ns {
            0 => 0,
            voting_ns => (fetched as f64 * self.held_share * voting_ns as f64) as u64,
        };
        runs_ns.saturating_add(held_ns) < self.flight_ns
    }

    /// Little's law on the group commit: would the `room` clients the
    /// population has left take the worker no longer than a release takes?
    /// Then a release demanded now comes about when the worker is full, not
    /// one release lag after it blocked there. With no lag measured only a
    /// full worker asks: the block that measures the first.
    fn wants_release(&self, room: usize) -> bool {
        (room as u64).saturating_mul(self.service_ns) <= self.release_lag_ns
    }

    /// A commit this worker demanded was released `lag_us` after the demand.
    fn released(&mut self, lag_us: u64) {
        let ns = lag_us * 1_000;
        self.release_lag_ns = match self.release_lag_ns {
            0 => ns,
            lag => lag - lag / 8 + ns / 8,
        };
    }

    /// The body of a client that fetched has run to its vote round: `held`
    /// if a voting client held it back with its replies in, or it touched a
    /// key it had not declared.
    fn started(&mut self, held: bool) {
        if self.voting_ns > 0 {
            self.held_share += (f64::from(u8::from(held)) - self.held_share) / 8.0;
        }
    }

    /// A voting client begins its certify, `waited` after its votes were sent.
    fn voted(&mut self, waited: Duration) {
        self.voting_ns = self.voting_ns - self.voting_ns / 8 + waited.as_nanos() as u64 / 8;
    }

    /// A run has ended at `now_us`; since the one before, the worker waited
    /// `waited_us` for deadlines (replies, a back-off, a round in hand) with
    /// nothing to run.
    fn ran(&mut self, now_us: u64, waited_us: u64) {
        let ns = now_us.saturating_sub(self.last_ran_us + waited_us) * 1_000;
        self.last_ran_us = now_us;
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
    fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Exponential back-off (paper: 0.5 ms initial, doubling): how long to wait
/// at level `b` — a jittered `[b/2, b]`, so colliding retries diverge —
/// leaving `b` doubled, up to `max_us`. The one statement of the schedule:
/// the worker parks a client for this long, and a worker whose home is down
/// waits it out itself.
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

/// The key half of admission: whether a client touching `keys` — declared
/// before its body runs, exact after it — shares none with the attempts
/// `held`, whose bodies have run.
fn clear_of<'s>(
    keys: impl Iterator<Item = (PartitionId, TableId, Key)> + Clone,
    mut held: impl Iterator<Item = &'s AccessSet>,
) -> bool {
    held.all(|h| !keys.clone().any(|k| h.touches(k)))
}

/// One worker's clients, wherever they wait, and what it has measured.
struct Worker<'a> {
    cluster: &'a Cluster,
    protocol: &'a dyn Protocol,
    home: PartitionId,
    /// The thread's workload, stop flag and metrics. A session's worker has
    /// none: it takes up no client but the caller's, never stops and counts
    /// nothing.
    ctx: Option<&'a WorkerContext>,
    rng: FastRng,
    pending: VecDeque<PendingCommit<'a>>,
    queued: VecDeque<Prepared<'a>>,
    parked: Parked<'a>,
    /// Oldest first.
    voting: VecDeque<Suspended<'a>>,
    /// The attempts of this worker that hold write locks: no two share a key.
    deciding: Vec<Suspended<'a>>,
    pace: Pace,
    /// A client was put ahead of a queued one that could have run: that one
    /// is not passed over a second time.
    passed_over: bool,
    /// Spent waiting for a deadline or a result since the last body: not the
    /// worker's own.
    waited_us: u64,
    /// The pending commit whose release this worker demanded, and when: one
    /// demand per group, until that commit is resolved.
    demanded: Option<(TxnId, u64)>,
    /// The result of the client that ended last: `Ok` with its attempts, or
    /// the reason its abort was final. What a session waits for.
    result: Option<Result<usize, AbortReason>>,
}

impl<'a> Worker<'a> {
    fn new(
        cluster: &'a Cluster,
        protocol: &'a dyn Protocol,
        home: PartitionId,
        ctx: Option<&'a WorkerContext>,
        rng: FastRng,
    ) -> Self {
        Worker {
            cluster,
            protocol,
            home,
            ctx,
            rng,
            pending: VecDeque::new(),
            queued: VecDeque::new(),
            parked: Parked::new(),
            voting: VecDeque::new(),
            deciding: Vec::new(),
            pace: Pace::new(now_us()),
            passed_over: false,
            waited_us: 0,
            demanded: None,
            result: None,
        }
    }

    /// Where results are counted: the thread's metrics while the window
    /// records.
    fn metrics(&self) -> Option<&'a Metrics> {
        (self.ctx.filter(|c| c.recording())).map(|c| &*c.metrics)
    }

    fn stopped(&self) -> bool {
        self.ctx.is_some_and(WorkerContext::stopped)
    }

    /// How many of the closed loop's clients are outstanding, wherever.
    fn population(&self) -> usize {
        let suspended = self.voting.len() + self.deciding.len();
        self.queued.len() + suspended + self.parked.len() + self.pending.len()
    }

    /// How many more clients the worker may take up: none if it has no
    /// workload, else what its population has left below the ceiling.
    fn room(&self) -> usize {
        match self.ctx {
            Some(_) => MAX_PENDING_COMMITS.saturating_sub(self.population()),
            None => 0,
        }
    }

    fn full(&self) -> bool {
        self.room() == 0
    }

    /// Put the read fan-out `plan` describes on the wire.
    fn send(&self, plan: &Footprint) -> ReadFanout {
        let mut fanout = ReadFanout::empty();
        fanout.begin(self.cluster, self.home, plan);
        fanout
    }

    /// Take up a new client running `program`: put its read fan-out on the
    /// wire. `None` if it was served on the spot — a declared read-only
    /// transaction, from the MVCC snapshot at the durable group-commit
    /// horizon: no ticket, no locks, no validation, no group-commit wait, the
    /// result is final the moment execution ends. An unanswerable read
    /// (bounded chain outran the horizon) falls back to the protocol path
    /// like any other client.
    fn take_up(&mut self, program: Box<dyn TxnProgram + 'a>) -> Option<Prepared<'a>> {
        let started_us = now_us();
        let served = program.is_read_only() && snapshot_reads_enabled(self.cluster);
        let snapshot = served.then(|| execute_snapshot(self.cluster, program.as_ref()));
        if let Some(SnapshotOutcome::Done(result)) = snapshot {
            let result = result.map(|()| 1).map_err(|e| e.reason());
            match (self.metrics(), result) {
                (Some(metrics), Ok(_)) => {
                    // Snapshot reads pay no remote round trips and never enter
                    // the protocol path, so they stay out of the
                    // distributed-latency histogram.
                    metrics.record_commit(now_us() - started_us, false);
                    metrics.record_snapshot_read();
                }
                (Some(metrics), Err(reason)) => {
                    // Program-level abort (e.g. NotFound at the snapshot):
                    // final, never retried.
                    metrics.record_abort(reason);
                    metrics.record_abandoned();
                }
                (None, _) => {}
            }
            self.result = Some(result);
            return None;
        }
        let mut client = self.prepare(program, started_us);
        client.fanout = self.send(&client.plan);
        Some(client)
    }

    /// A client running `program` since `started_us`, before its first
    /// attempt. The remote-read plan: the program's static hint for the
    /// first attempt, then each aborted attempt's observed access set for the
    /// retry (reconnaissance-style), so even hint-less programs converge to
    /// one batched fan-out per attempt.
    fn prepare(&self, program: Box<dyn TxnProgram + 'a>, started_us: u64) -> Prepared<'a> {
        let declared = program.read_hint();
        let plan = match self.cluster.config.batch_remote_reads {
            true => Footprint::from_keys(self.home, &declared),
            false => Footprint::default(),
        };
        Prepared {
            program,
            started_us,
            declared,
            plan,
            fanout: ReadFanout::empty(),
            txn: None,
            attempts: 0,
            backoff_us: self.cluster.config.backoff_initial_us,
            held: Cell::default(),
        }
    }

    /// Whether queued client `c` may run its body now. One that declared its
    /// keys may if none of them is a voting attempt's — that attempt read
    /// what this one's install would overwrite — nor, if it fetched nothing
    /// and so locks right behind its body, a holder's. Otherwise (nothing
    /// declared, or attempts in hand that are not
    /// [overlappable](InFlight::overlappable)) it goes by kind: one that
    /// fetched runs body and vote round holding nothing, so a holder is not
    /// in its way but another voting client is (bodies in install order);
    /// one with nothing to fetch runs in the gap, when nobody holds a lock.
    fn may_start(&self, c: &Prepared<'_>) -> bool {
        let fetched = c.fanout.flight_us() > 0;
        let mut suspended = self.voting.iter().chain(&self.deciding);
        if c.declared.is_empty() || !suspended.all(|s| s.attempt.overlappable()) {
            return (fetched && self.voting.is_empty()) || (!fetched && self.deciding.is_empty());
        }
        let declared = c.declared.iter().copied();
        clear_of(declared.clone(), self.voting.iter().map(Suspended::access))
            && (fetched || clear_of(declared, self.deciding.iter().map(Suspended::access)))
    }

    /// Whether voting client `v`, its votes back, may certify now: when
    /// nobody holds a lock, or beside the holders if its certify cannot block
    /// the thread and its exact access set shares no key with theirs.
    fn may_certify(&self, v: &Suspended<'_>) -> bool {
        let holders = self.deciding.iter().map(Suspended::access);
        self.deciding.is_empty()
            || (v.attempt.overlappable() && clear_of(v.access().keys(), holders))
    }

    fn wait(&mut self, deadline_us: u64) {
        self.waited_us += wait_out(deadline_us);
    }

    /// Run one attempt of a client's transaction, to its end or to where it
    /// waits for its votes holding nothing; its fan-out is back. The attempt
    /// leaves `Begin` in the flight recorder, pays the home's extra CPU time
    /// (a slow partition's, Fig 13b), opens a ticket and takes up the batched
    /// reads sent when the client was taken up or its back-off was over;
    /// then the protocol runs it to its first wait on the wire or to its end.
    /// An attempt that comes out of its body holding locks keeps the worker
    /// until it is over: nothing of this worker overlaps what holds
    /// something.
    fn start(&mut self, mut client: Prepared<'a>) {
        let (cluster, home) = (self.cluster, self.home);
        let txn = *(client.txn).get_or_insert_with(|| cluster.next_txn_id(home));
        client.attempts += 1;
        let mut sent = std::mem::take(&mut client.fanout);
        let (fetched, held) = (sent.flight_us() > 0, client.held.take());
        let begin = TraceEventKind::Begin {
            attempt: client.attempts as u32,
        };
        cluster.recorder.emit(Some(txn), Some(home), begin);
        charge_latency_us(cluster.partition(home).slowdown_us());
        let ticket = cluster.group_commit.begin_txn(home, txn);
        sent.complete(cluster, home, txn);
        match (self.protocol).start(cluster, client.program.as_ref(), ticket, sent) {
            Step::Waiting(attempt) if !attempt.holds_locks() => {
                // A key its declaration missed was never checked against the
                // voters': the scan could not hold it back for one, so it
                // counts as held.
                if fetched {
                    let missed = (attempt.access().keys()).any(|k| !client.declared.contains(&k));
                    self.pace.started(held || missed);
                }
                self.voting.push_back(Suspended { client, attempt });
            }
            step => {
                debug_assert!(
                    self.deciding.is_empty() || matches!(step, Step::Done(..)),
                    "an attempt holding locks throughout runs beside a lock-holder"
                );
                let ended = step.wait_out();
                self.ended(client, ended);
            }
        }
        self.pace.ran(now_us(), std::mem::take(&mut self.waited_us));
    }

    /// The replies a suspended attempt waited for are back: run its next
    /// step. Out of its vote round an attempt certifies, installs and decides
    /// — the caller has seen to it that no lock-holder of this worker shares
    /// a key with it — and holds its locks while its acknowledgements fly.
    fn resume(&mut self, suspended: Suspended<'a>) {
        let Suspended { client, attempt } = suspended;
        match attempt.resume() {
            Step::Waiting(attempt) => {
                debug_assert!(attempt.holds_locks());
                let holders = self.deciding.iter().map(Suspended::access);
                debug_assert!(
                    clear_of(attempt.access().keys(), holders),
                    "holders share a key"
                );
                self.deciding.push(Suspended { client, attempt });
            }
            Step::Done(ended) => self.ended(client, ended),
        }
    }

    /// An attempt of `client` is over: the group commit is told. A commit
    /// leaves `Committed` in the flight recorder and takes the log-retention
    /// step (its locks are released); if the protocol releases results
    /// itself, the version GC is told so — nobody waits for this commit, so
    /// nobody would later — and the result is out, else the client waits in
    /// `pending` for the group commit. An abort leaves its observed remote
    /// footprint in the client's plan for the retry ([`Worker::aborted`]).
    fn ended(&mut self, mut client: Prepared<'a>, (outcome, ticket, fanout): Ended) {
        let (cluster, home) = (self.cluster, self.home);
        match outcome {
            Ok(commit) => {
                let waiter = (cluster.group_commit).txn_committed(&ticket, commit.ts, commit.ops);
                let durable = self.protocol.manages_durability();
                let committed = TraceEventKind::Committed {
                    ts: commit.ts,
                    durable,
                };
                (cluster.recorder).emit(Some(ticket.txn), Some(home), committed);
                cluster.fold_due_logs();
                let distributed = commit.distributed;
                if durable {
                    cluster.horizon_moved();
                    self.returned(client.started_us, client.attempts, distributed);
                } else {
                    self.pending.push_back(PendingCommit {
                        waiter,
                        program: client.program,
                        started_us: client.started_us,
                        attempts: client.attempts,
                        backoff_us: client.backoff_us,
                        distributed,
                    });
                    self.ask_ahead();
                }
            }
            Err(e) => {
                cluster.group_commit.txn_aborted(&ticket);
                if cluster.config.batch_remote_reads {
                    let learned = fanout.learned(home);
                    if !learned.is_empty() {
                        client.plan = learned;
                    }
                }
                self.aborted(client, ticket.txn, e.reason(), true);
            }
        }
    }

    /// A commit just joined `pending`: demand its group's release if no
    /// demand is open and the room left would be used up within a release
    /// lag ([`Pace::wants_release`]). A session's worker never asks ahead:
    /// it blocks on its one commit.
    fn ask_ahead(&mut self) {
        let room = self.room();
        if self.ctx.is_none() || self.demanded.is_some() || !self.pace.wants_release(room) {
            return;
        }
        let waiter = &self.pending.back().expect("a commit just joined").waiter;
        self.cluster.group_commit.demand(waiter);
        self.trace_demand(waiter.ts, room, false);
        self.demanded = Some((waiter.txn, now_us()));
    }

    fn trace_demand(&self, ts: u64, room: usize, blocking: bool) {
        let room = room as u32;
        let demand = TraceEventKind::GroupCommitDemand { ts, room, blocking };
        self.cluster.recorder.emit(None, Some(self.home), demand);
    }

    /// A client taken up at `started_us` committed after `attempts`, and its
    /// result is out.
    fn returned(&mut self, started_us: u64, attempts: usize, distributed: bool) {
        if let Some(metrics) = self.metrics() {
            metrics.record_commit(now_us() - started_us, distributed);
        }
        self.result = Some(Ok(attempts));
    }

    /// `client`'s attempt under `txn` aborted for `reason`. If the reason is
    /// retryable and attempts are left, the client is parked until its
    /// back-off ([`next_backoff`]) is over — holding what a queued client
    /// holds, and the footprint the attempt learned — else it is abandoned,
    /// the reason its result. An attempt's own abort (`traced`) leaves
    /// `Abort` in the flight recorder with that wait, so a retry's latency is
    /// attributable from the stream; a crash-aborted commit has its
    /// `GroupCommitRelease` there already.
    fn aborted(&mut self, mut client: Prepared<'a>, txn: TxnId, reason: AbortReason, traced: bool) {
        if let Some(metrics) = self.metrics() {
            metrics.record_abort(reason);
        }
        let max_us = self.cluster.config.backoff_max_us;
        let wait_us = (reason.is_retryable() && client.attempts < MAX_ATTEMPTS)
            .then(|| next_backoff(&mut self.rng, &mut client.backoff_us, max_us));
        if traced {
            let backoff_us = wait_us.unwrap_or(0);
            let abort = TraceEventKind::Abort { reason, backoff_us };
            (self.cluster.recorder).emit(Some(txn), Some(self.home), abort);
        }
        match wait_us {
            Some(wait_us) => {
                // What a crash left under the id is not the retry's.
                if reason.is_crash() {
                    client.txn = None;
                }
                self.parked.insert((now_us() + wait_us, txn), client);
            }
            None => {
                if let Some(metrics) = self.metrics() {
                    metrics.record_abandoned();
                }
                self.result = Some(Err(reason));
            }
        }
    }

    /// The group commit decided `done`: trace the release and give the
    /// result — or retry the client, whose commit a crash aborted.
    fn resolve(&mut self, done: PendingCommit<'a>, outcome: CommitOutcome) {
        let PendingCommit {
            waiter,
            program,
            started_us,
            attempts,
            backoff_us,
            distributed,
        } = done;
        let committed = matches!(outcome, CommitOutcome::Committed);
        let release = TraceEventKind::GroupCommitRelease { committed };
        (self.cluster.recorder).emit(Some(waiter.txn), Some(waiter.coordinator), release);
        if let Some((_, demanded_at)) = self.demanded.take_if(|(txn, _)| *txn == waiter.txn) {
            if committed {
                self.pace.released(now_us() - demanded_at);
            }
        }
        match outcome {
            CommitOutcome::Committed => self.returned(started_us, attempts, distributed),
            CommitOutcome::CrashAborted => {
                let prepared = self.prepare(program, started_us);
                let client = Prepared {
                    attempts,
                    backoff_us,
                    ..prepared
                };
                self.aborted(client, waiter.txn, AbortReason::CrashAbort, false)
            }
        }
    }

    /// Report every pending transaction whose group-commit outcome is known —
    /// after blocking on the oldest, if `block`: back-pressure at the client
    /// ceiling. The block demands the release as it waits; with no demand of
    /// this worker's open it is the group's demand, and its wait a sample of
    /// the release lag. The wait is not the worker's own time. A result
    /// released is the scheme saying its horizon moved, which the
    /// version-chain GC wants to know: once per release, not once per commit.
    fn release_pending(&mut self, block: bool) {
        let (outstanding, group_commit) = (self.pending.len(), &self.cluster.group_commit);
        if block {
            let room = self.room();
            if let Some(oldest) = self.pending.pop_front() {
                let blocked_at = now_us();
                self.trace_demand(oldest.waiter.ts, room, true);
                self.demanded.get_or_insert((oldest.waiter.txn, blocked_at));
                let outcome = group_commit.wait_durable(&oldest.waiter);
                self.waited_us += now_us() - blocked_at;
                self.resolve(oldest, outcome);
            }
        }
        while let Some(outcome) =
            (self.pending.front()).and_then(|front| group_commit.try_outcome(&front.waiter))
        {
            let done = self.pending.pop_front().expect("front was just probed");
            self.resolve(done, outcome);
        }
        if self.pending.len() < outstanding {
            self.cluster.horizon_moved();
        }
    }

    /// The worker stops serving (the stop flag, a crashed home): what its
    /// suspended attempts hold is given back. A deciding one has installed,
    /// so its release is finished, never dropped. A voting one holds a ticket
    /// and nothing else: the participants are told, the ticket is closed and
    /// the client goes the way of the queued and the parked, which hold
    /// nothing at all — dropped, `RemoteUnavailable` its result.
    fn wind_down(&mut self) {
        for deciding in std::mem::take(&mut self.deciding) {
            wait_until(deciding.ready_at_us());
            self.resume(deciding);
        }
        let cluster = self.cluster;
        let dropped = self.voting.len() + self.queued.len() + self.parked.len();
        for Suspended { attempt, .. } in self.voting.drain(..) {
            let ticket = attempt.abandon();
            cluster.group_commit.txn_aborted(&ticket);
            let abort = TraceEventKind::Abort {
                reason: AbortReason::RemoteUnavailable,
                backoff_us: 0,
            };
            (cluster.recorder).emit(Some(ticket.txn), Some(self.home), abort);
        }
        self.queued.clear();
        self.parked.clear();
        if dropped > 0 {
            self.result = Some(Err(AbortReason::RemoteUnavailable));
        }
    }

    /// One turn of the loop: run the oldest thing that is ready, else put a
    /// client on the wire, else wait for the earliest deadline.
    fn turn(&mut self) {
        // Report results of transactions whose group commit finished while we
        // were executing newer ones.
        self.release_pending(false);
        // A dead leader serves no clients; the worker waits as after a
        // retryable abort (the longest back-off: a recovery takes that long
        // at least) — unless it is a session's and the wind-down just
        // dropped its only client, whose result is then out.
        if self.cluster.net.is_crashed(self.home) {
            self.wind_down();
            if self.ctx.is_some() || self.population() > 0 {
                let max_us = self.cluster.config.backoff_max_us;
                charge_latency_us(next_backoff(&mut self.rng, &mut { max_us }, max_us));
            }
            return;
        }

        // A lock-holder's acknowledgements are back: it releases — others,
        // here and elsewhere, wait on those locks. Then the oldest voting
        // client whose votes are back and who may take its first lock does.
        let now = now_us();
        if let Some(i) = self.deciding.iter().position(|d| d.ready_at_us() <= now) {
            let released = self.deciding.swap_remove(i);
            return self.resume(released);
        }
        let certifiable = |v: &Suspended<'_>| v.ready_at_us() <= now && self.may_certify(v);
        if let Some(i) = self.voting.iter().position(certifiable) {
            let certifying = self.voting.remove(i).expect("just found");
            self.pace.voted(certifying.attempt.elapsed());
            return self.resume(certifying);
        }

        // COCO-style schemes may briefly forbid starting new transactions.
        // Starting, not finishing: a suspended attempt's ticket is what its
        // epoch waits for, so with one in hand the worker does not wait at the
        // gate, it goes on with what it has.
        // (The replies that matter next: a holder's acknowledgements, or votes
        // still on the wire — votes that are back wait for a release.)
        let on_the_wire = self.voting.iter().map(Suspended::ready_at_us);
        let next_reply_at = (self.deciding.iter().map(Suspended::ready_at_us))
            .chain(on_the_wire.filter(|&at_us| at_us > now))
            .min();
        let open = (self.cluster.group_commit).execution_gate(self.home, next_reply_at.is_none());
        if self.stopped() {
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
        // block demands the release when nothing asked ahead (the first
        // block of a run, before a lag is measured, or a host that stalled
        // the worker): a worker that hopped from one parked deadline to the
        // next would never send it, and its results would come at the
        // interval. Only when every client is parked is the earliest
        // back-off what the worker waits for.
        let nothing_flies = self.queued.is_empty() && next_reply_at.is_none();
        if self.full() && nothing_flies && !due(retry_at) {
            match retry_at {
                Some(at_us) if self.pending.is_empty() => self.wait(at_us),
                _ => self.release_pending(true),
            }
            // The next turn looks again: a session's one client may be over.
            return;
        }
        let full = self.full();

        // The oldest queued client whose replies are back and who may run its
        // body now ([`Worker::may_start`]). Every one that fetched and is
        // refused, before that one or behind it, is held back by a voting
        // client — nothing else refuses it — and is counted as such when its
        // body runs ([`Pace::started`]).
        let mut ready = None;
        for (i, c) in self.queued.iter().enumerate() {
            let back = c.fanout.ready_at_us() <= now;
            let starts = back && self.may_start(c);
            let refused = back && !starts && c.fanout.flight_us() > 0;
            c.held.set(c.held.get() || refused);
            ready = ready.or(starts.then_some(i));
        }

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
                client.fanout = self.send(&client.plan);
                Some(client)
            } else {
                let ctx = self.ctx.expect("a worker without a workload is full");
                let program = ctx.workload.generate(&mut self.rng, self.home);
                self.take_up(program)
            };
            match client {
                // Nothing to wait for: run it now, never behind the wire.
                Some(c) if c.fanout.flight_us() == 0 && self.may_start(&c) => Some(c),
                Some(c) => {
                    if c.fanout.flight_us() > 0 {
                        self.pace.flight_ns = c.fanout.flight_us() * 1_000;
                    }
                    self.queued.push_back(c);
                    None
                }
                None => None,
            }
        } else if let Some(i) = ready {
            self.passed_over = false;
            self.queued.remove(i)
        } else {
            // Nothing is runnable: the earliest deadline that makes something
            // so — a reply in hand, a back-off, the replies of a queued
            // client that may start.
            let startable = self.queued.iter().filter(|c| self.may_start(c));
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
    let rng = FastRng::for_worker(ctx.home.0, ctx.worker_idx, 0xAB5);
    let (cluster, protocol) = (&*ctx.cluster, ctx.protocol.as_ref());
    let mut worker = Worker::new(cluster, protocol, ctx.home, Some(&ctx), rng);
    while !ctx.stopped() {
        worker.turn();
    }
    // Clients still queued or parked are dropped: they hold nothing.
    worker.wind_down();
    // Resolve whatever is still in flight so late commits are counted:
    // block on one waiter after the other until the deadline.
    let deadline_us = now_us() + 200_000;
    while !worker.pending.is_empty() && now_us() < deadline_us {
        worker.release_pending(true);
    }
    // No write of this worker will come by to reclaim what these covered.
    ctx.cluster.reclaim_due_versions();
}

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

/// Run `program` to its result, as a facade session does: as the one client
/// of a worker with no workload, whose turns run on the caller's thread
/// until that client has a result — every rule of the worker loop applies
/// to it (the slow-partition surcharge, the retry schedule and its ids, the
/// group-commit wait and its release). Returns the number of attempts on
/// success, or the reason the abort was final: the program's own, the last
/// one when the attempts ran out, or `RemoteUnavailable` when its home
/// crashed under it. A declared read-only program resolves at the durable
/// horizon unless a read is unanswerable.
pub fn run_session_txn(
    cluster: &Arc<Cluster>,
    protocol: &dyn Protocol,
    program: &dyn TxnProgram,
) -> Result<usize, AbortReason> {
    let home = program.home_partition();
    // The back-off jitter is seeded by the first transaction id, so sessions
    // that collide do not back off in lockstep.
    let txn = cluster.next_txn_id(home);
    let mut worker = Worker::new(cluster, protocol, home, None, FastRng::new(txn.pack()));
    if let Some(client) = worker.take_up(Box::new(program)) {
        let txn = Some(txn);
        worker.queued.push_back(Prepared { txn, ..client });
    }
    loop {
        match worker.result.take() {
            Some(result) => return result,
            None => worker.turn(),
        }
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
    use std::time::Instant;

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
            fanout: ReadFanout,
        ) -> Step<'a> {
            let txn = ticket.txn;
            let ts = cluster.group_commit.reserve_commit_ts(&ticket, 0);
            let writes = [WriteEntry::insert(
                PartitionId(0),
                TableId(0),
                1,
                Value::from_u64(txn.seq),
            )];
            let records = writes.iter().map(|_| None);
            let terms: Vec<u64> = cluster.log_terms().collect();
            crate::durability::log_txn_writes(cluster, &terms, txn, ts, &writes, records)
                .expect("this stub's cluster never crashes");
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
        let mut pace = Pace::new(0);
        pace.flight_ns = 220_000;
        // No run measured yet: one client beside the head, no more.
        assert!(pace.wants_another(1, 1) && !pace.wants_another(2, 2));
        // 40 us runs: six of them behind the head cover a 220 us flight.
        pace.service_ns = 40_000;
        assert!(pace.wants_another(6, 6) && !pace.wants_another(7, 7));
        // A vote round between two bodies, every body held back (the share
        // until one is measured): each queued client that fetched covers that
        // much more. Four rounds of 50 us: two runs are enough; a whole round
        // trip: one fetched client covers a flight by itself, however short
        // the runs — and clients with nothing to fetch do not.
        assert_eq!(pace.held_share, 1.0);
        (0..64).for_each(|_| pace.voted(Duration::from_micros(50)));
        assert!(pace.wants_another(2, 2) && !pace.wants_another(2 + 1, 2 + 1));
        (0..64).for_each(|_| pace.voted(Duration::from_micros(230)));
        assert!(pace.wants_another(3, 0) && !pace.wants_another(1, 1));
        // No body held back: the vote rounds add nothing, and the depth is
        // the runs' alone.
        pace.held_share = 0.0;
        assert!(pace.wants_another(6, 6) && !pace.wants_another(7, 7));
        // Half of them: a 230 us round for every other fetched client.
        pace.held_share = 0.5;
        assert!(pace.wants_another(1, 1) && !pace.wants_another(2, 2));
        pace.voting_ns = 0;
        // Runs longer than a flight (2PC rounds): one is enough.
        pace.service_ns = 250_000;
        assert!(pace.wants_another(1, 1) && !pace.wants_another(2, 2));
        // The estimate follows the runs: an eighth of the way each time.
        pace.ran(410, 0);
        assert_eq!(pace.service_ns, 250_000 - 250_000 / 8 + 410_000 / 8);
        // Time spent waiting for replies is not the worker's.
        pace.ran(910, 500);
        assert!(pace.service_ns < 245_000, "{}", pace.service_ns);

        // The held share follows the bodies, an eighth of the way each, once
        // a vote round has been measured.
        let mut pace = Pace::new(0);
        pace.started(false);
        assert_eq!(pace.held_share, 1.0);
        pace.voted(Duration::from_micros(200));
        pace.started(false);
        assert_eq!(pace.held_share, 1.0 - 1.0 / 8.0);
        pace.started(true);
        assert_eq!(pace.held_share, 0.875 + 0.125 / 8.0);
    }

    #[test]
    fn a_release_is_asked_for_when_the_room_left_lasts_one_release_lag() {
        let mut pace = Pace::new(0);
        // No lag measured: only a full worker asks, and its block seeds the
        // lag — with no run measured either, and with runs of 4 us.
        assert!(pace.wants_release(0) && !pace.wants_release(1));
        pace.service_ns = 4_000;
        assert!(pace.wants_release(0) && !pace.wants_release(1));
        pace.released(1_000);
        assert_eq!(pace.release_lag_ns, 1_000_000);
        // 250 runs of 4 us last the 1 ms lag exactly; 251 outlast it.
        assert!(pace.wants_release(250) && !pace.wants_release(251));
        // The lag follows the releases, an eighth of the way each.
        pace.released(1_800);
        assert_eq!(pace.release_lag_ns, 1_000_000 - 125_000 + 225_000);
        assert!(pace.wants_release(275) && !pace.wants_release(276));
        // Longer runs: fewer clients last the same lag.
        pace.service_ns = 11_000;
        assert!(pace.wants_release(100) && !pace.wants_release(101));
    }

    /// A hand-built access set: `reads` and `writes` of table 0.
    fn access(reads: &[(u32, Key)], writes: &[(u32, Key)]) -> AccessSet {
        let mut set = AccessSet::new();
        for &(p, key) in reads {
            set.reads.push(crate::access::ReadEntry {
                partition: PartitionId(p),
                table: TableId(0),
                key,
                record: Arc::new(primo_storage::Record::new(Value::from_u64(key))),
                wts: 0,
                rts: 0,
                locked: None,
                dummy: false,
            });
        }
        for &(p, key) in writes {
            set.buffer_write(WriteEntry::put(
                PartitionId(p),
                TableId(0),
                key,
                Value::from_u64(0),
            ));
        }
        set
    }

    #[test]
    fn admission_holds_keys_against_every_read_and_write_held() {
        let keys = |ks: &[(u32, u32, Key)]| -> Vec<(PartitionId, TableId, Key)> {
            (ks.iter())
                .map(|&(p, t, k)| (PartitionId(p), TableId(t), k))
                .collect()
        };
        // Two attempts in hand: one read 1 and 2 on P0 and wrote 2, the other
        // read 5 on P1 and blindly wrote 6 there.
        let held = [
            access(&[(0, 1), (0, 2)], &[(0, 2)]),
            access(&[(1, 5)], &[(1, 6)]),
        ];
        let clear = |ks: &[(u32, u32, Key)]| clear_of(keys(ks).into_iter(), held.iter());
        assert!(clear(&[(0, 0, 3), (1, 0, 4)]));
        // A key read, a key written, a key written blindly.
        assert!(!clear(&[(0, 0, 3), (0, 0, 1)]));
        assert!(!clear(&[(0, 0, 2)]));
        assert!(!clear(&[(1, 0, 6)]));
        // The same key on another partition or in another table is another key.
        assert!(clear(&[(1, 0, 1), (0, 1, 2), (0, 0, 6)]));
        // Nothing in hand admits anything; nothing declared clears anything,
        // which is why the worker treats it as no declaration at all.
        assert!(clear_of(keys(&[(0, 0, 1)]).into_iter(), [].iter()));
        assert!(clear(&[]));
        // Exact sets against each other, both ways: the certify check.
        let (a, b) = (&held[0], &held[1]);
        assert!(clear_of(a.keys(), [b].into_iter()) && clear_of(b.keys(), [a].into_iter()));
        let c = access(&[(1, 7)], &[(0, 1)]);
        assert!(!clear_of(c.keys(), [a].into_iter()) && !clear_of(a.keys(), [&c].into_iter()));
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
    /// [`LoggingProtocol`] whose first attempt waits at a barrier right
    /// after its append.
    struct FirstAppendBarrier(std::sync::Barrier, AtomicBool);

    impl Protocol for FirstAppendBarrier {
        fn name(&self) -> &'static str {
            "first-append-barrier"
        }
        fn start<'a>(
            &self,
            cluster: &'a Cluster,
            program: &dyn TxnProgram,
            ticket: Arc<TxnTicket>,
            fanout: ReadFanout,
        ) -> Step<'a> {
            let step = LoggingProtocol.start(cluster, program, ticket, fanout);
            if !self.1.swap(true, Ordering::Relaxed) {
                self.0.wait();
            }
            step
        }
    }

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
        let protocol = Arc::new(FirstAppendBarrier(
            std::sync::Barrier::new(2),
            AtomicBool::new(false),
        ));
        let (c2, p2) = (Arc::clone(&cluster), Arc::clone(&protocol));
        let runner = std::thread::spawn(move || run_session_txn(&c2, p2.as_ref(), &prog));
        // Inject the scheme-level crash right after the first attempt's
        // append, inside its persist window (the partition itself stays
        // up): under CLV a commit whose window spans the crash instant is
        // rolled back; the retry starts after the instant and commits.
        protocol.0.wait();
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
        let err = run_session_txn(&cluster, &AlwaysValidationAbort, &prog).unwrap_err();
        assert_eq!(err, AbortReason::Validation, "not a blanket LockConflict");
        cluster.shutdown();
    }
}
