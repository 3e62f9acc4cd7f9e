//! Primo's watermark-based asynchronous distributed group commit (§5).
//!
//! Each partition leader runs a lightweight agent that
//!
//! 1. every `t_m`, or as soon as a client waits (or asks) for it, generates a
//!    partition watermark `Wp` — the minimum logical timestamp (or lower
//!    bound `lts`) of the transactions still active on that partition
//!    (rule R1);
//! 2. publishes `Wp` only after the simulated log-persist/replication delay,
//!    so `Wp` never claims durability it does not have;
//! 3. receives other partitions' watermarks over the (delayed, asynchronous)
//!    control bus, maintains the global watermark `Wg = min(all Wp)` and wakes
//!    transactions waiting for their result to become returnable.
//!
//! The agent blocks in its bus mailbox until a peer's message, its next
//! generation or the publication in flight is due — no polling tick.
//!
//! **The group closes on demand or on time, whichever comes first.** A
//! client that has to *block* in [`GroupCommit::wait_durable`] (`Wg <= ts`),
//! or that expects to and asks ahead with [`GroupCommit::demand`], leaves
//! `ts` in its coordinator's `PartitionWm::demand` and interrupts that
//! agent's mailbox wait. The agent then runs its one generation step
//! at once instead of at the next interval and — because `Wg` is the minimum
//! over *all* `Wp` — asks every peer whose last advertised `Wp` does not
//! cover `ts` with a [`BusMessage::WatermarkDemand`], which pays the normal
//! bus delay; the peer adopts `ts` as a timestamp it has seen (a Lamport
//! step, so its next watermark can pass it) and does the same. At most one
//! generated watermark is unpublished per partition: a demand arriving
//! meanwhile is remembered by timestamp and served right after that
//! publication if still uncovered, so any number of concurrent waiters cost
//! one generation per quorum-ack delay (leader-flushes-when-someone-waits
//! group commit). A worker asks ahead once per group, one measured release
//! lag before its client population would be full (`runtime::worker`), so
//! that the release comes about when it would have blocked; clients that
//! neither block nor ask stay interval-paced.
//!
//! Soundness does not depend on *when* a watermark is generated: demand only
//! moves the moment the generation step runs, never what its candidate may
//! cover. The candidate is still capped by the active table under its lock
//! (rule R1 participants, reserved coordinator commits), new transactions
//! are still forced above it by the floor (rule R2), and it still publishes
//! one quorum-ack delay after generation — see the comment in the step.
//!
//! Lock order of the demand path: the waiter touches `demand` (an atomic)
//! and the mailbox lock (`interrupt`) *before* it takes `wg`; the agent
//! never holds the mailbox lock outside `recv_until` and takes `table`,
//! `active` and `wg` one at a time, so nothing nests.
//!
//! Rule R2 (new transactions must exceed the freshly generated `Wp`) is
//! exposed through [`GroupCommit::ts_floor`]; Primo's coordinator adds the
//! floor as a timestamp constraint and participants raise the floor of the
//! records they serve (`Record::raise_watermark_floor`).
//!
//! The force-update mechanism (§5.1) keeps a lagging partition's watermark
//! close to the cluster average so that it does not detain `Wg` (Fig 13b).

use crate::group_commit::{CommitOutcome, CommitWaiter, GroupCommit, TxnTicket};
use crate::log::{LogPayload, ReplayBound};
use crate::replicated::ReplicatedLog;
use parking_lot::{Condvar, Mutex};
use primo_common::config::WalConfig;
use primo_common::sim_time::now_us;
use primo_common::{FastMap, PartitionId, Ts, TxnId};
use primo_net::{BusMessage, DelayedBus};
use primo_trace::{FlightRecorder, TraceEventKind, WatermarkCause};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One partition's view of the global watermark and of every crash
/// agreement: everything a verdict reads, under one lock.
#[derive(Debug, Default)]
struct WgState {
    /// This partition's view of the global watermark.
    wg: Ts,
    /// Rollback thresholds of past recoveries: pending transactions with
    /// `ts >= threshold` at recovery time were crash-aborted.
    rollbacks: Vec<Ts>,
    /// Transactions crash compensation sealed and undid. A waiter that
    /// registered only *after* the crash agreement (its epoch index is past
    /// the rollback entry) but whose write-set was logged *before* it — and
    /// therefore compensated — must still be reported `CrashAborted`, or
    /// the client would be told `Committed` about undone writes.
    rolled_back: HashSet<TxnId>,
    /// Open crash agreements: each entry is the agreed rollback watermark of
    /// a crash whose survivor compensation has not completed yet. While one
    /// is open, version chains may still hold rolled-back versions with
    /// `ts >= agreed`, so the snapshot horizon stays capped below it.
    caps: Vec<Ts>,
}

impl WgState {
    /// The outcome of `waiter`, if it is decided yet: crash-aborted by a
    /// compensation or an agreement since it committed, or covered by `Wg`.
    fn verdict(&self, waiter: &CommitWaiter) -> Option<CommitOutcome> {
        let thresholds = &self.rollbacks[waiter.epoch as usize..];
        if self.rolled_back.contains(&waiter.txn) || thresholds.iter().any(|t| waiter.ts >= *t) {
            Some(CommitOutcome::CrashAborted)
        } else {
            (self.wg > waiter.ts).then_some(CommitOutcome::Committed)
        }
    }
}

#[derive(Debug)]
struct PartitionWm {
    id: PartitionId,
    /// Active transactions on this partition -> current ts (or lts); 0 means
    /// "not known yet", which pins the watermark.
    active: Mutex<FastMap<TxnId, Ts>>,
    /// Latest *generated* watermark (rule R2 floor).
    wp_generated: AtomicU64,
    /// Latest *published* (durable + broadcast) watermark.
    wp_published: AtomicU64,
    /// Additional floor pushed by the force-update mechanism.
    force_floor: AtomicU64,
    /// Highest logical timestamp this partition has seen being committed —
    /// lets an idle partition's watermark jump straight past everything it
    /// has already processed instead of creeping one tick at a time.
    max_seen_ts: AtomicU64,
    /// Highest commit timestamp a client of this partition has blocked on
    /// or asked for ahead (0: none yet). Only ever raised; it is an open
    /// demand while the watermarks do not cover it.
    demand: AtomicU64,
    /// Latest watermark received from every partition (including self).
    table: Mutex<Vec<Ts>>,
    /// Global-watermark view and crash-rollback bookkeeping.
    wg: Mutex<WgState>,
    wg_cond: Condvar,
}

impl PartitionWm {
    fn new(id: PartitionId, n: usize) -> Self {
        PartitionWm {
            id,
            active: Mutex::new(FastMap::default()),
            wp_generated: AtomicU64::new(0),
            wp_published: AtomicU64::new(0),
            force_floor: AtomicU64::new(0),
            max_seen_ts: AtomicU64::new(0),
            demand: AtomicU64::new(0),
            table: Mutex::new(vec![0; n]),
            wg: Mutex::new(WgState::default()),
            wg_cond: Condvar::new(),
        }
    }

    fn floor(&self) -> Ts {
        // New transactions must exceed (a) the latest generated watermark
        // (rule R2), (b) the force-update floor for lagging partitions and
        // (c) the highest timestamp this partition has already processed —
        // (c) keeps the logical-timestamp domain and the watermark domain
        // aligned so the watermark can track committed work closely.
        self.wp_generated
            .load(Ordering::Acquire)
            .max(self.force_floor.load(Ordering::Acquire))
            .max(self.max_seen_ts.load(Ordering::Acquire))
    }
}

/// Watermark-based group commit (the paper's WM scheme).
pub struct WatermarkCommit {
    cfg: WalConfig,
    num_partitions: usize,
    bus: Arc<DelayedBus>,
    parts: Vec<Arc<PartitionWm>>,
    /// Per-partition replicated durable logs: published watermarks are
    /// appended here (§5.1 — `Wp` is itself a log record) so a replacement
    /// leader can retrieve them from the surviving quorum.
    wals: Vec<Arc<ReplicatedLog>>,
    /// Sequence source for protocols that do not maintain logical timestamps
    /// themselves (2PL / Silo under WM in Fig 11).
    seq_ts: AtomicU64,
    stop: Arc<AtomicBool>,
    agents: Mutex<Vec<JoinHandle<()>>>,
    /// Cluster flight recorder: the agents trace their horizon decisions.
    recorder: Arc<FlightRecorder>,
}

impl std::fmt::Debug for WatermarkCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatermarkCommit")
            .field("num_partitions", &self.num_partitions)
            .finish()
    }
}

impl WatermarkCommit {
    pub fn new(
        num_partitions: usize,
        cfg: WalConfig,
        bus: Arc<DelayedBus>,
        wals: Vec<Arc<ReplicatedLog>>,
        recorder: Arc<FlightRecorder>,
    ) -> Self {
        assert_eq!(wals.len(), num_partitions);
        let parts: Vec<_> = (0..num_partitions)
            .map(|p| Arc::new(PartitionWm::new(PartitionId(p as u32), num_partitions)))
            .collect();
        let wm = WatermarkCommit {
            cfg,
            num_partitions,
            bus,
            parts,
            wals,
            seq_ts: AtomicU64::new(1),
            stop: Arc::new(AtomicBool::new(false)),
            agents: Mutex::new(Vec::new()),
            recorder,
        };
        wm.start_agents();
        wm
    }

    fn start_agents(&self) {
        let mut agents = self.agents.lock();
        for p in 0..self.num_partitions {
            let part = Arc::clone(&self.parts[p]);
            let bus = Arc::clone(&self.bus);
            let stop = Arc::clone(&self.stop);
            let cfg = self.cfg;
            let wal = Arc::clone(&self.wals[p]);
            let recorder = Arc::clone(&self.recorder);
            let handle = std::thread::Builder::new()
                .name(format!("wm-agent-{p}"))
                .spawn(move || agent_loop(part, bus, wal, cfg, stop, recorder))
                .expect("spawn watermark agent");
            agents.push(handle);
        }
    }

    /// Current partition watermark (published) — exposed for tests/benches.
    pub fn partition_watermark(&self, p: PartitionId) -> Ts {
        self.parts[p.idx()].wp_published.load(Ordering::Acquire)
    }

    /// Current global watermark as seen by a partition.
    pub fn global_watermark(&self, p: PartitionId) -> Ts {
        self.parts[p.idx()].wg.lock().wg
    }
}

/// One partition's watermark agent. It owns `me` and nothing of any other
/// partition: what it knows of its peers arrived as a [`BusMessage`].
fn agent_loop(
    me: Arc<PartitionWm>,
    bus: Arc<DelayedBus>,
    wal: Arc<ReplicatedLog>,
    cfg: WalConfig,
    stop: Arc<AtomicBool>,
    recorder: Arc<FlightRecorder>,
) {
    let interval_us = cfg.interval_ms * 1000;
    let partitions = me.table.lock().len();
    let peers: Vec<usize> = (0..partitions).filter(|i| *i != me.id.idx()).collect();
    let mut next_generate_us = now_us();
    // `max_seen_ts` at the last generation: unchanged means idle since.
    let mut seen_at_generate = 0;
    // The generated watermark waiting out the quorum-ack delay: (ready at,
    // Wp). At most one — nothing is generated while it is in flight.
    let mut in_flight: Option<(u64, Ts)> = None;
    // Highest timestamp a peer's waiting client asked this partition to
    // cover, and the highest own demand already passed on to the peers.
    let mut peer_demand: Ts = 0;
    let mut forwarded: Ts = 0;
    loop {
        // Block until a peer's message, the publication in flight or — with
        // nothing in flight — the next generation (a client's demand,
        // `shutdown` and `on_partition_recover` interrupt).
        let wake_at = in_flight.map_or(next_generate_us, |(ready_at, _)| ready_at);
        let first = bus.recv_until(me.id, wake_at);
        if stop.load(Ordering::Acquire) {
            break;
        }
        let now = now_us();

        // 1. Fold every delivered control message into the watermark table;
        //    a demanded timestamp counts as seen here from now on, so the
        //    next candidate can pass it and new transactions start above it.
        if first.is_some() {
            let mut table = me.table.lock();
            for m in first.into_iter().chain(bus.drain(me.id)) {
                match m {
                    BusMessage::PartitionWatermark { from, wp } => {
                        let slot = &mut table[from.idx()];
                        if *slot < wp {
                            *slot = wp;
                        }
                    }
                    BusMessage::WatermarkDemand { ts } => {
                        peer_demand = peer_demand.max(ts);
                        me.max_seen_ts.fetch_max(ts, Ordering::AcqRel);
                    }
                    _ => {}
                }
            }
        }

        // 2. Publish the watermark in flight once its persist delay elapsed.
        if let Some((_, wp)) = in_flight.take_if(|(ready_at, _)| *ready_at <= now) {
            if wp > me.wp_published.load(Ordering::Acquire) {
                me.wp_published.store(wp, Ordering::Release);
                me.table.lock()[me.id.idx()] = wp;
                // The watermark is itself a log record (§5.1): append it
                // so a recovering leader can retrieve the latest Wp.
                wal.append(LogPayload::Watermark { wp });
                bus.broadcast(me.id, BusMessage::PartitionWatermark { from: me.id, wp });
                recorder.emit(
                    None,
                    Some(me.id),
                    TraceEventKind::WatermarkPublish { wg: wp },
                );
            }
        }

        // 3. A client of this partition waits, or soon will, on `wanted`, and
        //    `Wg = min(all Wp)`: ask — once per timestamp — every peer whose
        //    last advertised `Wp` does not cover it. The peer learns of the
        //    demand from this message alone, one bus delay from now. What it
        //    is asked to cover is the whole group being closed here (every
        //    timestamp processed so far), not just its oldest member, so one
        //    answer releases everything the waiting client has queued.
        let wanted = me.demand.load(Ordering::Acquire);
        let max_seen = me.max_seen_ts.load(Ordering::Acquire);
        if wanted > forwarded {
            forwarded = wanted;
            let table = me.table.lock();
            let lagging: Vec<usize> = peers
                .iter()
                .copied()
                .filter(|i| table[*i] <= wanted)
                .collect();
            drop(table);
            let group_top = max_seen.max(wanted);
            for i in lagging {
                let msg = BusMessage::WatermarkDemand { ts: group_top };
                bus.send(me.id, PartitionId(i as u32), msg);
            }
        }

        // 4. Generate a new partition watermark every t_m — at once when a
        //    client (here or, by message, on a peer) demands a timestamp
        //    the last generation does not cover, or when a peer's
        //    `Wp` shows this partition lagging while it has processed nothing
        //    since (it only holds `Wg` back) — but never while one is still
        //    in flight: whatever asks meanwhile is served right after the
        //    publication, one generation for all of them.
        let prev = me.wp_generated.load(Ordering::Acquire);
        // Cluster average for the force-update rule, computed before the
        // active-table lock so the two locks never nest.
        let force_avg = (cfg.force_update && !peers.is_empty()).then(|| {
            let table = me.table.lock();
            peers.iter().map(|i| table[*i]).sum::<Ts>() / peers.len() as Ts
        });
        let due = now >= next_generate_us;
        let idle_and_lagging =
            max_seen == seen_at_generate && force_avg.is_some_and(|avg| prev < avg);
        let open_demand = wanted.max(peer_demand);
        let demanded = open_demand > 0 && open_demand >= prev;
        if in_flight.is_none() && (due || idle_and_lagging || demanded) {
            if due {
                next_generate_us = (next_generate_us + interval_us).max(now);
            }
            seen_at_generate = max_seen;
            let candidate = {
                // The watermark chases the highest timestamp this partition
                // has processed. Soundness rests on the commit critical
                // section: every transaction that will still log a write-set
                // at `ts <= candidate` is registered in the active table —
                // remote participants from `add_participant` (rule R1, their
                // timestamps are decided by another coordinator's floor) and
                // coordinator-side commits from `reserve_commit_ts` — and
                // caps the candidate. Everything else either appended its
                // log entry before this generation (durable by publication
                // time, one quorum-ack delay later) or reserves its
                // timestamp after it and is forced above the candidate by
                // the floor (rule R2). Candidate selection, the
                // `wp_generated` store and `reserve_commit_ts` all run under
                // the active-table lock, so no reservation can slip between
                // the cap check and the floor becoming visible. None of this
                // depends on what made the step run now. `+ 1` because
                // releasing needs `Wg > ts`: this generation, not the next,
                // covers the newest processed commit.
                let target = prev.max(max_seen) + 1;
                let active = me.active.lock();
                let mut candidate = match active.values().copied().min() {
                    Some(min_active) => prev.max(target.min(min_active)),
                    None => target,
                };
                // Force-update: if we lag behind the average of the other
                // partitions, push the floor so future transactions (and
                // hence the next watermark) catch up (§5.1, Fig 13b).
                if let Some(avg) = force_avg {
                    if candidate < avg {
                        let delta = avg - candidate;
                        if active.is_empty() {
                            candidate += delta;
                        } else {
                            me.force_floor
                                .fetch_max(candidate + delta, Ordering::AcqRel);
                        }
                    }
                }
                if candidate > prev {
                    me.wp_generated.store(candidate, Ordering::Release);
                }
                candidate
            };
            // The watermark becomes publishable only once its log record is
            // quorum-durable (it is itself a log record, §5.1) — under
            // replication that is the quorum-ack delay, not the leader's
            // local persist delay, so replication cost shows up directly in
            // commit latency. Follower copies inherit the leader's append
            // timestamp, so quorum durability elapses on the same clock
            // whether a follower has caught up to the record yet or not —
            // nothing reads the log here. A candidate a pin held at
            // `prev` publishes nothing, but still occupies the slot: an
            // uncovered demand is retried once per quorum-ack delay, not in
            // a loop.
            in_flight = Some((now + wal.quorum_ack_delay_us(), candidate));
            let (cause, demanded) = if demanded {
                (WatermarkCause::Demand, open_demand)
            } else if due {
                (WatermarkCause::Interval, 0)
            } else {
                (WatermarkCause::IdleLag, 0)
            };
            recorder.emit(
                None,
                Some(me.id),
                TraceEventKind::WatermarkGenerate {
                    wp: candidate,
                    cause,
                    demanded,
                },
            );
        }

        // 5. Recompute `Wg` last: a peer's `Wp` and our own take effect at once.
        let min = me.table.lock().iter().copied().min().unwrap_or(0);
        let mut wg = me.wg.lock();
        if min > wg.wg {
            wg.wg = min;
            me.wg_cond.notify_all();
        }
    }
}

impl GroupCommit for WatermarkCommit {
    fn begin_txn(&self, coord: PartitionId, txn: TxnId) -> Arc<TxnTicket> {
        // Coordinator-side transactions are not registered for their whole
        // lifetime: rule R2 (the `ts_floor` constraint applied atomically in
        // `reserve_commit_ts`) forces their final timestamp above whatever
        // watermark the coordinator generated before they reserved, so the
        // active table only has to pin them for the short commit critical
        // section — reservation to `txn_committed`. *Participants* are
        // registered for the full run (see `add_participant`), because their
        // remote transaction's timestamp is chosen by a different
        // partition's floor.
        TxnTicket::new(txn, coord, 0)
    }

    fn update_ts(&self, ticket: &TxnTicket, ts: Ts) {
        {
            let mut st = ticket.state.lock();
            st.ts = st.ts.max(ts);
        }
        let ts = ticket.current_ts();
        // Propagate to every partition where the transaction is registered.
        for p in ticket.involved() {
            let part = &self.parts[p.idx()];
            part.max_seen_ts.fetch_max(ts, Ordering::AcqRel);
            if let Some(slot) = part.active.lock().get_mut(&ticket.txn) {
                if *slot < ts {
                    *slot = ts;
                }
            }
        }
    }

    fn add_participant(&self, ticket: &TxnTicket, p: PartitionId, lts: Ts) {
        {
            let mut st = ticket.state.lock();
            if !st.participants.contains(&p) {
                st.participants.push(p);
            }
        }
        let known = ticket.current_ts().max(lts);
        self.parts[p.idx()].active.lock().insert(ticket.txn, known);
    }

    fn txn_aborted(&self, ticket: &TxnTicket) {
        for p in ticket.involved() {
            self.parts[p.idx()].active.lock().remove(&ticket.txn);
        }
    }

    fn txn_committed(&self, ticket: &TxnTicket, ts: Ts, ops: usize) -> CommitWaiter {
        let _ = ops;
        let final_ts = if ts > 0 {
            ts
        } else if ticket.current_ts() > 0 {
            ticket.current_ts()
        } else {
            let floor = self.parts[ticket.coordinator.idx()].floor();
            self.seq_ts.fetch_add(1, Ordering::Relaxed).max(floor + 1)
        };
        let crash_idx = self.parts[ticket.coordinator.idx()]
            .wg
            .lock()
            .rollbacks
            .len();
        for p in ticket.involved() {
            let part = &self.parts[p.idx()];
            part.max_seen_ts.fetch_max(final_ts, Ordering::AcqRel);
            part.active.lock().remove(&ticket.txn);
        }
        CommitWaiter {
            txn: ticket.txn,
            coordinator: ticket.coordinator,
            ts: final_ts,
            epoch: crash_idx as u64,
            ready_at_us: None,
        }
    }

    fn try_outcome(&self, waiter: &CommitWaiter) -> Option<CommitOutcome> {
        self.parts[waiter.coordinator.idx()]
            .wg
            .lock()
            .verdict(waiter)
    }

    fn wait_durable(&self, waiter: &CommitWaiter) -> CommitOutcome {
        if let Some(outcome) = self.try_outcome(waiter) {
            return outcome;
        }
        // About to block: that is the demand, so the group closes now rather
        // than at the next interval.
        self.demand(waiter);
        let part = &self.parts[waiter.coordinator.idx()];
        let mut wg = part.wg.lock();
        loop {
            if let Some(outcome) = wg.verdict(waiter) {
                return outcome;
            }
            part.wg_cond.wait_for(&mut wg, Duration::from_millis(5));
        }
    }

    fn demand(&self, waiter: &CommitWaiter) {
        // Leave the timestamp with the coordinator's agent and wake it.
        let part = &self.parts[waiter.coordinator.idx()];
        part.demand.fetch_max(waiter.ts, Ordering::AcqRel);
        self.bus.interrupt(part.id);
    }

    fn on_txns_rolled_back(&self, txns: &[TxnId]) {
        // Every partition's state learns the ids, so a verdict finds them
        // whichever partition coordinated the waiter.
        for part in &self.parts {
            part.wg.lock().rolled_back.extend(txns.iter().copied());
            part.wg_cond.notify_all();
        }
    }

    fn ts_floor(&self, partition: PartitionId) -> Ts {
        self.parts[partition.idx()].floor()
    }

    fn reserve_commit_ts(&self, ticket: &TxnTicket, proposed: Ts) -> Ts {
        // Commit critical section (see the trait docs): apply the floor and
        // register the transaction in the coordinator's active table under
        // ONE lock acquisition. The generator computes its candidate and
        // stores `wp_generated` under the same lock, so either this
        // reservation lands first and caps the candidate at `ts`, or the
        // generation lands first and `floor()` already reflects it — in both
        // cases no watermark above `ts` can publish before `txn_committed`
        // (which runs after the write-set is appended) releases the pin.
        // Without this, a thread descheduled between timestamp assignment
        // and `log_txn_writes` lets the watermark expose — to clients and to
        // MVCC snapshot readers — a commit whose log entry a crash would
        // silently drop.
        //
        // The floor is taken over EVERY involved partition, not just the
        // coordinator: a distributed write-set is appended to each
        // participant's log, and an entry timestamped below a watermark that
        // participant already published is (a) instantly snapshot-visible
        // while still inside its persist window and (b) replayed out of
        // order after a crash (replay sorts by `ts`), either of which lets a
        // reader observe a value recovery then takes back. Participants were
        // registered by `add_participant` before the commit point, so their
        // published watermarks are pinned and their floors only rise — the
        // lock-free reads below cannot race a publication past `ts`.
        //
        // A proposal of 0 (a protocol without logical timestamps) draws from
        // the scheme's sequence, and the floor lifts it like any proposal.
        //
        // `max_seen_ts` is raised on every involved partition here, at
        // reservation, rather than only at `txn_committed` (which the worker
        // runs after the protocol released its locks): the bump must be
        // visible before any conflicting transaction can read this one's
        // writes and reserve its own timestamp, so that per-key timestamp
        // order always matches install order and crash replay — which
        // applies entries in `ts` order — reconstructs exactly the state the
        // live run exposed.
        let proposed = if proposed == 0 {
            self.seq_ts.fetch_add(1, Ordering::Relaxed)
        } else {
            proposed
        };
        let part = &self.parts[ticket.coordinator.idx()];
        let mut active = part.active.lock();
        let mut ts = proposed.max(part.floor() + 1);
        for p in ticket.participants() {
            if p != ticket.coordinator {
                ts = ts.max(self.parts[p.idx()].floor() + 1);
            }
        }
        for p in ticket.involved() {
            self.parts[p.idx()]
                .max_seen_ts
                .fetch_max(ts, Ordering::AcqRel);
        }
        active.insert(ticket.txn, ts);
        ts
    }

    fn snapshot_horizon(&self, p: PartitionId) -> Ts {
        // Everything with `ts < Wg` (this partition's view) has been reported
        // `Committed` — durable on every participant and below every possible
        // future crash agreement *once compensation for open crashes is
        // done*. While a crash agreement is still compensating, survivors may
        // hold to-be-undone versions with `ts >= agreed`, so the horizon is
        // capped at `agreed - 1` until `on_compensation_complete`.
        let wg = self.parts[p.idx()].wg.lock();
        let cap = wg.caps.iter().min().map_or(Ts::MAX, |cap| *cap);
        wg.wg.min(cap).saturating_sub(1)
    }

    fn on_compensation_complete(&self) {
        // Survivor compensation for the oldest open crash finished: no
        // rolled-back version above that agreement survives in any chain.
        for part in &self.parts {
            let mut wg = part.wg.lock();
            if let Some(idx) = (0..wg.caps.len()).min_by_key(|i| wg.caps[*i]) {
                wg.caps.swap_remove(idx);
            }
        }
    }

    fn rollback_bound(&self, crash_token: Ts, _log: &ReplicatedLog) -> ReplayBound {
        // The agreed watermark from `on_partition_crash` separates durable
        // results (ts < agreed, already returned to clients) from rolled-back
        // ones (§5.2), cluster-wide: every transaction with `ts >= agreed` is
        // reported `CrashAborted`, wherever it installed.
        ReplayBound::Ts(crash_token)
    }

    fn checkpoint_bound(&self, p: PartitionId, _log: &ReplicatedLog) -> ReplayBound {
        // Fold only below this partition's view of the *global* watermark: a
        // crash rolls the cluster back to the agreed watermark, which is the
        // maximum of all `Wg` views — at least this partition's own view, but
        // possibly *below* its published `Wp`. Folding up to `Wp` could bake
        // a transaction into an image that a later crash still rolls back;
        // a transaction below our `Wg` view can never be rolled back again.
        ReplayBound::Ts(self.parts[p.idx()].wg.lock().wg)
    }

    fn on_partition_recover(&self, p: PartitionId, recovered_wp: Ts) {
        // Re-seed the recovered leader's watermark state from the recovered
        // `Wp` (§5.2): its next generated watermark continues from there
        // instead of restarting at zero and dragging `Wg` backwards.
        let part = &self.parts[p.idx()];
        part.wp_generated.fetch_max(recovered_wp, Ordering::AcqRel);
        part.wp_published.fetch_max(recovered_wp, Ordering::AcqRel);
        part.max_seen_ts.fetch_max(recovered_wp, Ordering::AcqRel);
        part.active.lock().clear();
        for other in &self.parts {
            let mut table = other.table.lock();
            table[p.idx()] = table[p.idx()].max(recovered_wp);
            drop(table);
            // Have the agent fold the reseeded table into its `Wg` now.
            self.bus.interrupt(other.id);
        }
        part.wg_cond.notify_all();
    }

    fn on_partition_crash(&self, p: PartitionId) -> Ts {
        // Agreement (§5.2): every leader publishes its current view of the
        // global watermark; the maximum of those views is adopted. It is
        // >= every view ever used to report results (safe for clients) and
        // <= every partition's durable watermark (safe for durability).
        // One atomic step under every `wg` lock: a view advancing between
        // "read the maximum" and "record the rollback, cap the horizon"
        // would let a waiter be told `Committed`, or a snapshot session pick
        // a horizon, above the agreement.
        let mut views: Vec<_> = self.parts.iter().map(|part| part.wg.lock()).collect();
        let agreed = views.iter().map(|wg| wg.wg).max().unwrap_or(0);
        for wg in &mut views {
            wg.rollbacks.push(agreed);
            // The crashed partition recovers from its durable log; the whole
            // cluster resumes from the agreed watermark.
            wg.wg = agreed;
            // Snapshot readers must not observe versions the survivor
            // compensation is about to undo (`ts >= agreed`): cap the
            // horizon until `on_compensation_complete`.
            wg.caps.push(agreed);
        }
        drop(views);
        for part in &self.parts {
            part.wg_cond.notify_all();
            let mut table = part.table.lock();
            table[p.idx()] = table[p.idx()].max(agreed);
            drop(table);
            part.wp_generated.fetch_max(agreed, Ordering::AcqRel);
            part.force_floor.fetch_max(agreed, Ordering::AcqRel);
        }
        // Abort every transaction still active on the crashed partition.
        self.parts[p.idx()].active.lock().clear();
        agreed
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        for part in &self.parts {
            self.bus.interrupt(part.id);
        }
        let mut agents = self.agents.lock();
        for h in agents.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WatermarkCommit {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(n: usize, interval_ms: u64) -> (WatermarkCommit, Arc<DelayedBus>) {
        let bus = DelayedBus::new(n, 100);
        let cfg = WalConfig {
            scheme: primo_common::config::LoggingScheme::Watermark,
            interval_ms,
            persist_delay_us: 100,
            force_update: true,
            ..WalConfig::default()
        };
        let wals = crate::build_logs(n, cfg);
        let recorder = crate::quiet_recorder();
        (
            WatermarkCommit::new(n, cfg, Arc::clone(&bus), wals, recorder),
            bus,
        )
    }

    fn tid(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
    }

    #[test]
    fn idle_cluster_watermark_advances() {
        let (wm, _bus) = make(2, 1);
        std::thread::sleep(Duration::from_millis(50));
        assert!(wm.partition_watermark(PartitionId(0)) > 0);
        assert!(wm.global_watermark(PartitionId(0)) > 0);
        wm.shutdown();
    }

    #[test]
    fn committed_txn_becomes_durable() {
        let (wm, _bus) = make(2, 1);
        let ticket = wm.begin_txn(PartitionId(0), tid(1));
        wm.update_ts(&ticket, 5);
        let waiter = wm.txn_committed(&ticket, 5, 4);
        let outcome = wm.wait_durable(&waiter);
        assert_eq!(outcome, CommitOutcome::Committed);
        wm.shutdown();
    }

    #[test]
    fn in_flight_remote_txn_pins_participant_watermark() {
        let (wm, _bus) = make(2, 1);
        // A transaction coordinated by P0 remote-reads on P1 with a lower
        // bound of 3: P1's watermark must not overtake it while it is active.
        let ticket = wm.begin_txn(PartitionId(0), tid(1));
        wm.add_participant(&ticket, PartitionId(1), 3);
        std::thread::sleep(Duration::from_millis(40));
        assert!(wm.partition_watermark(PartitionId(1)) <= 3);
        // Finishing the transaction unpins it.
        let waiter = wm.txn_committed(&ticket, 3, 1);
        assert_eq!(wm.wait_durable(&waiter), CommitOutcome::Committed);
        std::thread::sleep(Duration::from_millis(40));
        assert!(wm.partition_watermark(PartitionId(1)) > 3);
        wm.shutdown();
    }

    #[test]
    fn reserved_commit_ts_pins_the_coordinator_watermark() {
        let (wm, _bus) = make(2, 1);
        std::thread::sleep(Duration::from_millis(30));
        // Reservation = the commit critical section: the returned timestamp
        // exceeds every published watermark, and until `txn_committed` (which
        // runs after the write-set is appended) no watermark above it may be
        // generated — a published `Wp > ts` claims the entry is durable,
        // while it is still on its way to the log. Regression for the crash
        // race where a thread descheduled between timestamp assignment and
        // the log append let the watermark expose an undurable commit.
        let ticket = wm.begin_txn(PartitionId(0), tid(9));
        let ts = wm.reserve_commit_ts(&ticket, 0);
        assert!(ts > wm.partition_watermark(PartitionId(0)));
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            wm.partition_watermark(PartitionId(0)) <= ts,
            "the watermark overtook a reserved, not-yet-logged commit"
        );
        // Completing the commit releases the pin.
        let waiter = wm.txn_committed(&ticket, ts, 1);
        assert_eq!(wm.wait_durable(&waiter), CommitOutcome::Committed);
        std::thread::sleep(Duration::from_millis(40));
        assert!(wm.partition_watermark(PartitionId(0)) > ts);
        wm.shutdown();
    }

    #[test]
    fn ts_floor_grows_over_time() {
        let (wm, _bus) = make(2, 1);
        std::thread::sleep(Duration::from_millis(30));
        let f1 = wm.ts_floor(PartitionId(0));
        std::thread::sleep(Duration::from_millis(30));
        let f2 = wm.ts_floor(PartitionId(0));
        assert!(f2 >= f1);
        assert!(f2 > 0);
        wm.shutdown();
    }

    #[test]
    fn crash_aborts_pending_transaction() {
        let (wm, _bus) = make(2, 200); // long interval: Wg will not advance
        let ticket = wm.begin_txn(PartitionId(0), tid(7));
        wm.update_ts(&ticket, 1_000_000);
        let waiter = wm.txn_committed(&ticket, 1_000_000, 2);
        // Crash partition 1 before the watermark can cover ts=1_000_000.
        let agreed = wm.on_partition_crash(PartitionId(1));
        assert!(agreed < 1_000_000);
        assert_eq!(wm.wait_durable(&waiter), CommitOutcome::CrashAborted);
        wm.shutdown();
    }

    #[test]
    fn a_compensated_commit_is_crash_aborted_after_the_agreement() {
        let (wm, _bus) = make(2, 1);
        std::thread::sleep(Duration::from_millis(20));
        // Coordinated on P1 under an id minted on P0: the verdict must not
        // look for the id on the partition that minted it.
        let ticket = wm.begin_txn(PartitionId(1), tid(11));
        let ts = wm.reserve_commit_ts(&ticket, 0);
        let agreed = wm.on_partition_crash(PartitionId(0));
        assert!(agreed <= ts, "the reservation pins the agreement");
        // The waiter registers after the agreement, so no rollback threshold
        // applies to it; only compensation's report dooms it.
        let waiter = wm.txn_committed(&ticket, ts, 1);
        wm.on_txns_rolled_back(&[tid(11)]);
        assert_eq!(wm.try_outcome(&waiter), Some(CommitOutcome::CrashAborted));
        assert_eq!(wm.wait_durable(&waiter), CommitOutcome::CrashAborted);
        wm.shutdown();
    }

    #[test]
    fn published_watermarks_are_logged_and_recovery_reseeds() {
        let bus = DelayedBus::new(2, 100);
        let cfg = WalConfig {
            scheme: primo_common::config::LoggingScheme::Watermark,
            interval_ms: 1,
            persist_delay_us: 100,
            force_update: true,
            ..WalConfig::default()
        };
        let wals = crate::build_logs(2, cfg);
        let wm = WatermarkCommit::new(2, cfg, bus, wals.clone(), crate::quiet_recorder());
        std::thread::sleep(Duration::from_millis(50));
        // Published watermarks land in the partition's durable log (§5.1).
        let logged = wals[0].latest_durable_watermark().expect("Wp logged");
        assert!(logged > 0);
        assert!(logged <= wm.partition_watermark(PartitionId(0)));
        // Crash + recover: the partition watermark continues from the
        // recovered Wp instead of restarting below it.
        let agreed = wm.on_partition_crash(PartitionId(1));
        let recovered = agreed.max(1_000);
        wm.on_partition_recover(PartitionId(1), recovered);
        assert!(wm.partition_watermark(PartitionId(1)) >= recovered);
        assert_eq!(
            wm.rollback_bound(agreed, &wals[1]),
            crate::ReplayBound::Ts(agreed)
        );
        wm.shutdown();
    }

    #[test]
    fn reserve_commit_ts_sequences_a_zero_proposal() {
        let (wm, _bus) = make(2, 1);
        let ticket = wm.begin_txn(PartitionId(0), tid(1));
        let a = wm.reserve_commit_ts(&ticket, 0);
        let b = wm.reserve_commit_ts(&ticket, 0);
        assert!(a > 0 && b > 0);
        wm.shutdown();
    }

    #[test]
    fn snapshot_horizon_trails_the_global_watermark() {
        let (wm, _bus) = make(2, 1);
        std::thread::sleep(Duration::from_millis(50));
        let p = PartitionId(0);
        let h = wm.snapshot_horizon(p);
        let wg = wm.global_watermark(p);
        assert!(h > 0, "idle cluster horizon should advance");
        assert!(h < wg, "horizon must stay strictly below the Wg view");
        wm.shutdown();
    }

    #[test]
    fn crash_caps_the_horizon_until_compensation_completes() {
        let (wm, _bus) = make(2, 1);
        std::thread::sleep(Duration::from_millis(40));
        let p = PartitionId(0);
        let agreed = wm.on_partition_crash(PartitionId(1));
        // While survivors still hold to-be-compensated versions with
        // ts >= agreed, no snapshot may include them.
        assert!(wm.snapshot_horizon(p) < agreed.max(1));
        wm.on_compensation_complete();
        // Wg was bumped to at least `agreed` by the crash agreement, so the
        // uncapped horizon reaches past it again.
        std::thread::sleep(Duration::from_millis(40));
        assert!(wm.snapshot_horizon(p) >= agreed);
        wm.shutdown();
    }

    #[test]
    fn sequenced_ts_is_monotonic_and_above_floor() {
        let (wm, _bus) = make(2, 1);
        std::thread::sleep(Duration::from_millis(20));
        let p = PartitionId(0);
        let ticket = wm.begin_txn(p, tid(1));
        let floor = wm.ts_floor(p);
        let a = wm.reserve_commit_ts(&ticket, 0);
        assert!(a > floor);
        assert!(a > wm.partition_watermark(p).saturating_sub(1));
        // The reservation raised the floor, so the next draw lands above it.
        assert!(wm.ts_floor(p) >= a);
        let b = wm.reserve_commit_ts(&ticket, 0);
        assert!(b > a);
        wm.shutdown();
    }
}
