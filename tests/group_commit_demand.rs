//! The watermark group commit closes a group on demand or on time, whichever
//! comes first: a client that blocks for durability is released after one
//! quorum acknowledgement plus the message delays it takes to ask a lagging
//! peer, not after up to one interval — while the pins (R1, reserved commit
//! timestamps) hold exactly as before, concurrent waiters share one
//! generation per quorum-ack delay, and clients that never block stay
//! interval-paced.
//!
//! Intervals here are 100–200 ms so that only a demand can explain a release
//! within a few milliseconds; every budget carries 10 ms of slack for a busy
//! 2-core host.

use primo_repro::common::config::{ClusterConfig, LoggingScheme, WalConfig};
use primo_repro::common::sim_time::now_us;
use primo_repro::core::analysis::{closed_loop_ceiling_tps, release_lag_us};
use primo_repro::net::DelayedBus;
use primo_repro::runtime::txn::IncrementProgram;
use primo_repro::runtime::{run_experiment, ExperimentOptions};
use primo_repro::wal::{
    CommitOutcome, CommitWaiter, GroupCommit, LogPayload, ReplicatedLog, WatermarkCommit,
};
use primo_repro::{
    FastRng, FlightRecorder, PartitionId, Primo, PrimoProtocol, TableId, TraceEvent,
    TraceEventKind, TxnId, TxnProgram, Value, WatermarkCause, Workload,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const P0: PartitionId = PartitionId(0);
const P1: PartitionId = PartitionId(1);
const T: TableId = TableId(0);

const INTERVAL_MS: u64 = 200;
const PERSIST_US: u64 = 500;
const BUS_US: u64 = 100;
const SLACK_MS: f64 = 10.0;

/// A watermark scheme over its own bus, logs and flight recorder.
struct Scheme {
    wm: Arc<WatermarkCommit>,
    bus: Arc<DelayedBus>,
    logs: Vec<Arc<ReplicatedLog>>,
    recorder: Arc<FlightRecorder>,
}

impl Scheme {
    fn new(partitions: usize, interval_ms: u64, replication_factor: usize) -> Self {
        let cfg = WalConfig {
            scheme: LoggingScheme::Watermark,
            interval_ms,
            persist_delay_us: PERSIST_US,
            force_update: true,
            replication_factor,
            ..WalConfig::default()
        };
        let bus = DelayedBus::new(partitions, BUS_US);
        let logs: Vec<_> = (0..partitions as u32)
            .map(|p| Arc::new(ReplicatedLog::new(PartitionId(p), cfg, BUS_US, None)))
            .collect();
        let wm = Arc::new(WatermarkCommit::new(
            partitions,
            cfg,
            Arc::clone(&bus),
            logs.clone(),
        ));
        let recorder = Arc::new(FlightRecorder::new(true, 1 << 14));
        wm.set_recorder(Arc::clone(&recorder));
        // Let the start-up generations publish and the partitions align.
        std::thread::sleep(Duration::from_millis(20));
        Scheme {
            wm,
            bus,
            logs,
            recorder,
        }
    }

    fn quorum_ack_us(&self) -> u64 {
        self.logs[0].quorum_ack_delay_us()
    }

    /// Commit a transaction coordinated (and only seen) by `home`.
    fn commit(&self, home: PartitionId) -> CommitWaiter {
        static SEQ: AtomicU64 = AtomicU64::new(1);
        let txn = TxnId::new(home, SEQ.fetch_add(1, Ordering::Relaxed));
        let ticket = self.wm.begin_txn(home, txn);
        let ts = self.wm.reserve_commit_ts(&ticket, 0);
        self.wm.txn_committed(&ticket, ts, 1)
    }

    /// Milliseconds a blocked client of `home` waits for its commit.
    fn blocked_release_ms(&self, home: PartitionId) -> f64 {
        let waiter = self.commit(home);
        let start = Instant::now();
        assert_eq!(self.wm.wait_durable(&waiter), CommitOutcome::Committed);
        start.elapsed().as_secs_f64() * 1000.0
    }

    /// `WatermarkGenerate` events of partition `p`, in generation order.
    fn generations(&self, p: PartitionId) -> Vec<TraceEvent> {
        let timeline = self.recorder.merge().for_partition(p);
        let generated = timeline.of_kind(|k| matches!(k, TraceEventKind::WatermarkGenerate { .. }));
        generated.events().to_vec()
    }
}

/// Published watermarks are log records (§5.1): count them.
fn watermark_records(log: &ReplicatedLog) -> usize {
    let entries = log.entries_from(0);
    let published = entries
        .iter()
        .filter(|e| matches!(*e.payload, LogPayload::Watermark { .. }));
    published.count()
}

impl Drop for Scheme {
    fn drop(&mut self) {
        self.wm.shutdown();
        self.bus.shutdown();
    }
}

/// Every test here times something against a few milliseconds: they take
/// turns, so none of them runs beside the saturated workers of another.
fn quiet() -> MutexGuard<'static, ()> {
    static QUIET: Mutex<()> = Mutex::new(());
    QUIET.lock().unwrap_or_else(|e| e.into_inner())
}

/// The fastest of a few waits. The simulated delays are fixed, so the
/// fastest sample is the one the host disturbed least — and an interval-paced
/// release is two orders of magnitude away in every sample.
fn fastest(samples: impl Iterator<Item = f64>) -> f64 {
    samples.fold(f64::INFINITY, f64::min)
}

/// Run `wait` on a thread; the receiver yields once it returned.
fn in_background<R: Send + 'static>(
    wait: impl FnOnce() -> R + Send + 'static,
) -> mpsc::Receiver<R> {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || done.send(wait()));
    finished
}

// ---- (1) an idle cluster releases a blocked client at once ----

#[test]
fn a_blocked_client_is_released_after_one_ack_and_two_bus_delays() {
    let _quiet = quiet();
    for replication_factor in [1, 3] {
        let scheme = Scheme::new(2, INTERVAL_MS, replication_factor);
        let model = release_lag_us(0, scheme.quorum_ack_us(), BUS_US);
        let budget_ms = model.peer_asked as f64 / 1000.0 + SLACK_MS;
        // Every commit lands just after the previous one's watermark, a whole
        // interval before the next heartbeat.
        let lag = fastest((0..3).map(|_| scheme.blocked_release_ms(P0)));
        assert!(
            lag <= budget_ms,
            "RF {replication_factor}: released after {lag:.2} ms, budget {budget_ms:.2} ms \
             (interval {INTERVAL_MS} ms)"
        );
    }
}

#[test]
fn a_facade_commit_does_not_wait_for_the_interval() {
    let _quiet = quiet();
    for replication_factor in [1, 3] {
        let primo = Primo::builder()
            .partitions(2)
            .fast_local()
            .wal_interval_ms(INTERVAL_MS)
            .replication_factor(replication_factor)
            .build();
        let session = primo.session();
        for p in [P0, P1] {
            session.load(p, T, 1, Value::from_u64(0));
        }
        std::thread::sleep(Duration::from_millis(20));
        for touched in [&[P0][..], &[P0, P1][..]] {
            let commit_ms = fastest((0..3).map(|_| {
                let start = Instant::now();
                session
                    .transaction(P0, |ctx| {
                        for p in touched {
                            let v = ctx.read(*p, T, 1)?.as_u64();
                            ctx.write(*p, T, 1, Value::from_u64(v + 1))?;
                        }
                        Ok(())
                    })
                    .expect("an idle cluster commits");
                start.elapsed().as_secs_f64() * 1000.0
            }));
            assert!(
                commit_ms <= SLACK_MS,
                "RF {replication_factor}, {} partition(s): a session commit took \
                 {commit_ms:.2} ms at a {INTERVAL_MS} ms interval",
                touched.len()
            );
        }
        primo.shutdown();
    }
}

#[test]
fn the_idle_release_lag_matches_the_model() {
    let _quiet = quiet();
    // Delays large enough that thread wake-ups are noise: 2 ms to a quorum,
    // 0.5 ms per control message.
    let cfg = WalConfig {
        scheme: LoggingScheme::Watermark,
        interval_ms: INTERVAL_MS,
        persist_delay_us: 2_000,
        force_update: true,
        ..WalConfig::default()
    };
    let measure = |partitions: usize| {
        let bus = DelayedBus::new(partitions, 500);
        let logs = primo_repro::wal::build_logs(partitions, cfg);
        let wm = WatermarkCommit::new(partitions, cfg, Arc::clone(&bus), logs);
        std::thread::sleep(Duration::from_millis(20));
        let lags = (0..5u64).map(|i| {
            let ticket = wm.begin_txn(P0, TxnId::new(P0, i + 1));
            let ts = wm.reserve_commit_ts(&ticket, 0);
            let waiter = wm.txn_committed(&ticket, ts, 1);
            let start = Instant::now();
            assert_eq!(wm.wait_durable(&waiter), CommitOutcome::Committed);
            start.elapsed().as_micros() as f64
        });
        let lag = fastest(lags);
        wm.shutdown();
        lag
    };
    let model = release_lag_us(100, 2_000, 500);
    // One partition: nobody to ask. Two: the idle peer has to be asked.
    for (partitions, modelled) in [(1, model.own), (2, model.peer_asked)] {
        let modelled = modelled as f64;
        let band = 0.5 * modelled..=1.5 * modelled;
        // Re-measure up to three times: a neighbour may spoil a whole pass.
        let mut measured = Vec::new();
        let matches = (0..3).any(|_| {
            measured.push(measure(partitions));
            band.contains(measured.last().unwrap())
        });
        assert!(
            matches,
            "{partitions} partition(s): measured {measured:?} us against a model of {modelled:.0} us"
        );
    }
}

// ---- (2) a busy peer learns of the demand over the bus, and only there ----

/// Keep `home` committing work of its own without ever blocking on it.
fn commit_without_blocking(scheme: &Arc<Scheme>, home: PartitionId, stop: &Arc<AtomicBool>) {
    let (scheme, stop) = (Arc::clone(scheme), Arc::clone(stop));
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            let waiter = scheme.commit(home);
            let _ = scheme.wm.try_outcome(&waiter);
            std::thread::sleep(Duration::from_millis(1));
        }
    });
}

#[test]
fn a_busy_peer_is_asked_over_the_bus_and_only_over_the_bus() {
    let _quiet = quiet();
    const LINK_DELAY_MS: u64 = 30;
    // An interval the test never reaches: no heartbeat can release anything.
    let scheme = Arc::new(Scheme::new(2, 5_000, 1));
    let stop = Arc::new(AtomicBool::new(false));
    commit_without_blocking(&scheme, P1, &stop);
    std::thread::sleep(Duration::from_millis(20));

    let demands_at_p1 = |scheme: &Scheme| {
        let by_demand = |e: &TraceEvent| match e.kind {
            TraceEventKind::WatermarkGenerate {
                cause: WatermarkCause::Demand,
                demanded,
                ..
            } => Some(demanded),
            _ => None,
        };
        scheme.generations(P1).iter().filter_map(by_demand).max()
    };
    assert_eq!(
        demands_at_p1(&scheme),
        None,
        "partition 1 never blocks: nothing of its own raises a demand"
    );

    let budget_ms = (scheme.quorum_ack_us() + 3 * BUS_US) as f64 / 1000.0 + SLACK_MS;
    let mut waited_on = 0;
    let lag = fastest((0..3).map(|_| {
        let waiter = scheme.commit(P0);
        waited_on = waiter.ts;
        let start = Instant::now();
        assert_eq!(scheme.wm.wait_durable(&waiter), CommitOutcome::Committed);
        start.elapsed().as_secs_f64() * 1000.0
    }));
    assert!(
        lag <= budget_ms,
        "released after {lag:.2} ms beside a busy peer, budget {budget_ms:.2} ms"
    );
    // Partition 1 generated for a timestamp only partition 0's client waits
    // on: it can have learnt of it from the demand message alone.
    let asked = demands_at_p1(&scheme).expect("partition 1 generated on demand");
    assert!(
        asked >= waited_on,
        "asked for {asked}, waiter at {waited_on}"
    );

    // No shared-memory shortcut: slow the link the demand travels on and the
    // release is later by exactly that much.
    scheme.bus.set_extra_delay_from(P0, LINK_DELAY_MS * 1000);
    let lag = fastest((0..3).map(|_| scheme.blocked_release_ms(P0)));
    stop.store(true, Ordering::Relaxed);
    assert!(
        lag >= LINK_DELAY_MS as f64 && lag <= LINK_DELAY_MS as f64 + budget_ms,
        "with {LINK_DELAY_MS} ms on the link released after {lag:.2} ms"
    );
}

// ---- (3) the pins hold under demand ----

/// From the pin's release to the waiter's: one retry of the remembered
/// demand (an ack delay) plus a bus delay — and, on a busy host, whatever
/// it takes to schedule three threads. The next heartbeat is 150 ms away.
const UNPIN_TO_RELEASE: Duration = Duration::from_millis(50);

#[test]
fn a_demand_does_not_pass_an_in_flight_remote_participant() {
    let _quiet = quiet();
    let scheme = Arc::new(Scheme::new(2, INTERVAL_MS, 1));
    // Coordinated by P0, reading on P1 with a lower bound at P1's current
    // watermark: P1 must not pass it while the transaction is in flight
    // (rule R1), however urgently a client of P0 waits.
    let lts = scheme.wm.partition_watermark(P1);
    let pinned = scheme.wm.begin_txn(P0, TxnId::new(P0, 1_000_001));
    scheme.wm.add_participant(&pinned, P1, lts);
    let waiter = scheme.commit(P0);
    assert!(waiter.ts > lts);
    let ts = waiter.ts;
    let released = {
        let scheme = Arc::clone(&scheme);
        in_background(move || scheme.wm.wait_durable(&waiter))
    };
    std::thread::sleep(Duration::from_millis(30));
    assert!(scheme.wm.partition_watermark(P1) <= lts);
    assert!(scheme.wm.global_watermark(P0) <= ts);
    assert!(released.try_recv().is_err(), "released past a pinned `Wp`");
    // The pin goes; the remembered demand is served without another ask.
    scheme.wm.txn_aborted(&pinned);
    let outcome = released.recv_timeout(UNPIN_TO_RELEASE);
    assert_eq!(outcome, Ok(CommitOutcome::Committed));
    assert!(scheme.wm.partition_watermark(P1) > ts);
}

#[test]
fn a_demand_does_not_pass_a_reserved_commit_timestamp() {
    let _quiet = quiet();
    let scheme = Arc::new(Scheme::new(2, INTERVAL_MS, 1));
    // Reserved, not yet logged: the commit critical section pins `Wp`.
    let reserving = scheme.wm.begin_txn(P0, TxnId::new(P0, 1_000_002));
    let reserved = scheme.wm.reserve_commit_ts(&reserving, 0);
    let waiter = scheme.commit(P0);
    assert!(waiter.ts > reserved);
    let released = {
        let scheme = Arc::clone(&scheme);
        in_background(move || scheme.wm.wait_durable(&waiter))
    };
    std::thread::sleep(Duration::from_millis(30));
    assert!(
        scheme.wm.partition_watermark(P0) <= reserved,
        "the watermark overtook a reserved, not-yet-logged commit"
    );
    assert!(released.try_recv().is_err(), "released past a pinned `Wp`");
    let earlier = scheme.wm.txn_committed(&reserving, reserved, 1);
    let outcome = released.recv_timeout(UNPIN_TO_RELEASE);
    assert_eq!(outcome, Ok(CommitOutcome::Committed));
    assert_eq!(
        scheme.wm.try_outcome(&earlier),
        Some(CommitOutcome::Committed)
    );
}

// ---- (4) concurrent waiters share generations ----

#[test]
fn concurrent_waiters_coalesce_into_one_generation_per_ack_delay() {
    let _quiet = quiet();
    const SESSIONS: u64 = 32;
    const PERSIST_US: u64 = 2_000;
    let primo = Primo::builder()
        .partitions(2)
        .fast_local()
        .wal_interval_ms(INTERVAL_MS)
        .tweak(|c| {
            c.wal.persist_delay_us = PERSIST_US;
            c.trace.ring_capacity = 1 << 14;
        })
        .build();
    let session = primo.session();
    for p in [P0, P1] {
        for k in 0..SESSIONS {
            session.load(p, T, k, Value::from_u64(0));
        }
    }
    let cluster = primo.cluster();
    let ack_us = cluster.partition(P0).log.quorum_ack_delay_us();
    let records = |p: PartitionId| watermark_records(&cluster.partition(p).log);
    std::thread::sleep(Duration::from_millis(20));
    let before = [records(P0), records(P1)];
    let commits = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for k in 0..SESSIONS {
            let (session, commits) = (primo.session(), &commits);
            let home = PartitionId((k % 2) as u32);
            s.spawn(move || {
                while start.elapsed() < Duration::from_millis(100) {
                    let done = session.transaction(home, |ctx| {
                        let v = ctx.read(home, T, k)?.as_u64();
                        ctx.write(home, T, k, Value::from_u64(v + 1))
                    });
                    done.expect("no conflicts: one key per session");
                    commits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed_us = start.elapsed().as_micros() as u64;
    let commits = commits.load(Ordering::Relaxed);
    let bound = (elapsed_us / ack_us) as usize + 2;
    let mut published = 0;
    for (p, before) in [(P0, before[0]), (P1, before[1])] {
        let appended = records(p) - before;
        assert!(
            appended <= bound,
            "{p}: {appended} watermark records for {commits} commits in {elapsed_us} us, \
             bound {bound} (one per {ack_us} us ack delay)"
        );
        published += appended;
    }
    assert!(
        commits as usize >= 4 * published,
        "{commits} commits took {published} watermarks: the waiters did not share generations"
    );
    // Never two unpublished generations: in an agent's own event order, a
    // generation that moved `Wp` forward is published before the next one.
    for p in [P0, P1] {
        let own = cluster.recorder.merge().for_partition(p);
        let agent = own.of_kind(|k| {
            matches!(
                k,
                TraceEventKind::WatermarkGenerate { .. } | TraceEventKind::WatermarkPublish { .. }
            )
        });
        let mut unpublished = None;
        let mut published = 0;
        // (The agents start before the recorder is attached: their first
        // generation may have gone untraced.)
        let traced = agent
            .events()
            .iter()
            .skip_while(|e| matches!(e.kind, TraceEventKind::WatermarkPublish { .. }));
        for e in traced {
            match e.kind {
                TraceEventKind::WatermarkGenerate { wp, .. } => {
                    assert_eq!(
                        unpublished, None,
                        "{p}: generated {wp} over an unpublished `Wp`"
                    );
                    unpublished = (wp > published).then_some(wp);
                }
                TraceEventKind::WatermarkPublish { wg } => {
                    assert_eq!(unpublished.take(), Some(wg), "{p}: published out of turn");
                    published = wg;
                }
                _ => unreachable!(),
            }
        }
    }
    primo.shutdown();
}

// ---- (5) no demand, no change ----

#[test]
fn clients_that_never_block_stay_interval_paced() {
    let _quiet = quiet();
    const INTERVAL_MS: u64 = 20;
    const INTERVALS: u64 = 10;
    let scheme = Arc::new(Scheme::new(2, INTERVAL_MS, 1));
    let stop = Arc::new(AtomicBool::new(false));
    commit_without_blocking(&scheme, P0, &stop);
    commit_without_blocking(&scheme, P1, &stop);
    let window = now_us()..now_us() + INTERVALS * INTERVAL_MS * 1000;
    std::thread::sleep(Duration::from_micros(window.end - window.start));
    stop.store(true, Ordering::Relaxed);
    for p in [P0, P1] {
        let causes: Vec<WatermarkCause> = (scheme.generations(p).iter())
            .filter(|e| window.contains(&e.at_us))
            .map(|e| match e.kind {
                TraceEventKind::WatermarkGenerate { cause, .. } => cause,
                _ => unreachable!(),
            })
            .collect();
        let on_time = causes.iter().filter(|c| **c == WatermarkCause::Interval);
        let on_time = on_time.count() as u64;
        // At the interval's pace and no faster (a starved agent may skip).
        assert!(
            (INTERVALS / 2..=INTERVALS + 1).contains(&on_time),
            "{p}: {on_time} heartbeats in {INTERVALS} intervals"
        );
        // An idle moment may add a catch-up generation (the PR-12 rule);
        // nothing but a blocked client adds one on demand.
        assert!(
            !causes.contains(&WatermarkCause::Demand),
            "{p}: generated on demand without a blocked client: {causes:?}"
        );
    }
}

// ---- (6) the closed loop leaves the clients / interval ceiling ----

/// One local increment per transaction: as cheap as a commit gets.
struct LocalIncrements;

const KEYS: u64 = 4_096;

impl Workload for LocalIncrements {
    fn name(&self) -> &'static str {
        "local-increments"
    }
    fn load_partition(&self, store: &primo_repro::storage::PartitionStore, _p: PartitionId) {
        for k in 0..KEYS {
            store.insert(T, k, Value::from_u64(0));
        }
    }
    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        Box::new(IncrementProgram {
            home,
            accesses: vec![(home, T, rng.next_below(KEYS))],
        })
    }
}

#[test]
fn saturated_workers_commit_past_the_clients_per_interval_ceiling() {
    let _quiet = quiet();
    // 2 workers x 512 outstanding commits at a 100 ms interval: 10 240 TPS
    // if a commit is only ever released on time.
    const INTERVAL_MS: u64 = 100;
    let mut config = ClusterConfig::for_tests(2);
    config.workers_per_partition = 1;
    config.wal.interval_ms = INTERVAL_MS;
    let options = ExperimentOptions {
        warmup: Duration::from_millis(100),
        duration: Duration::from_millis(600),
        ..ExperimentOptions::default()
    };
    let snap = run_experiment(
        config,
        Arc::new(PrimoProtocol::full()),
        Arc::new(LocalIncrements),
        &options,
    );
    let ceiling_tps = closed_loop_ceiling_tps(2 * 512, INTERVAL_MS as f64 / 1000.0);
    assert!(
        snap.throughput_tps >= 2.0 * ceiling_tps,
        "{:.0} TPS against a clients / interval ceiling of {ceiling_tps:.0}",
        snap.throughput_tps
    );
}
