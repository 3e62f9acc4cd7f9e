//! A worker that never waits on the wire: it sends a client's batched read
//! fan-out, runs other clients while it flies and takes the replies up when
//! they are due — through one loop, with a queue no deeper than a flight
//! needs, and with a queued client holding nothing. Nor does it wait out a
//! back-off: an aborted client is parked, holding as little, and its retry's
//! fan-out is sent when the back-off is over (cells 9 to 12). Nor a 2PC
//! round: the next client's body and vote round fly during this one's
//! decision round, one lock-holder per worker (cells 13 to 18).
//!
//! Every cell drives the engine's own `spawn_workers` loop, 2 partitions x 1
//! worker, and reads what happened from the cluster's counters and its flight
//! recorder: `PrefetchIssued { sent_us_ago, flight_us }` is emitted when a
//! fan-out is taken up, so send time, queue wait and queue depth are folds
//! over the stream. One-way delays are 0.5–5 ms in a debug build (a fifth of
//! that optimised), so that a flight is worth ten to twenty runs either way
//! — as wire-bound as the benchmark is at 100 µs. Timing assertions are made
//! on the best of up to three samples; the cells take turns.

use primo_repro::common::sim_time::{charge_latency_us, now_us};
use primo_repro::common::Metrics;
use primo_repro::core::analysis::{overlapped_worker_tps, staged_worker_tps};
use primo_repro::runtime::worker::spawn_workers;
use primo_repro::{
    AbortReason, FastRng, Key, LoggingScheme, PartitionId, Primo, ProtocolKind, TableId, Timeline,
    TraceEventKind, TxnContext, TxnId, TxnProgram, TxnResult, Value, Workload, YcsbConfig,
    YcsbWorkload,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const P0: PartitionId = PartitionId(0);
const P1: PartitionId = PartitionId(1);
const T: TableId = TableId(0);
const WORKERS: u64 = 2;
/// `worker::MAX_PENDING_COMMITS`: the client population of one worker.
const CLIENTS_PER_WORKER: usize = 512;

/// A one-way delay given for a debug build, at this build's speed: optimised
/// runs are about five times shorter, and the cells' geometry is the ratio.
fn one_way_us(debug_us: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug_us
    } else {
        debug_us / 5
    }
}

/// Every cell times something: they take turns, so none of them runs beside
/// the saturated workers of another.
fn quiet() -> MutexGuard<'static, ()> {
    static QUIET: Mutex<()> = Mutex::new(());
    QUIET.lock().unwrap_or_else(|e| e.into_inner())
}

/// Re-measure up to three times: a neighbour on the host may spoil a sample.
fn eventually(what: &str, mut check: impl FnMut() -> Result<(), String>) {
    let mut last = String::new();
    for _ in 0..3 {
        match check() {
            Ok(()) => return,
            Err(e) => last = e,
        }
    }
    panic!("{what}: {last}");
}

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    ok.then_some(()).ok_or_else(msg)
}

/// What one cell is built from.
#[derive(Clone)]
struct Cell {
    kind: ProtocolKind,
    scheme: LoggingScheme,
    one_way_us: u64,
    interval_ms: u64,
    /// Initial and longest back-off; `None`: the test configuration's 20 us
    /// and 500 us.
    backoff_us: Option<(u64, u64)>,
    ycsb: YcsbConfig,
    window: Duration,
}

impl Cell {
    /// Primo on the watermark scheme over a uniform 10-op YCSB; the one-way
    /// delay is a debug build's ([`one_way_us`]).
    fn primo(distributed_ratio: f64, debug_one_way_us: u64, window_ms: u64) -> Self {
        Cell {
            kind: ProtocolKind::Primo,
            scheme: LoggingScheme::Watermark,
            one_way_us: one_way_us(debug_one_way_us),
            interval_ms: 2,
            backoff_us: None,
            ycsb: YcsbConfig {
                keys_per_partition: 20_000,
                zipf_theta: 0.0,
                distributed_ratio,
                remote_op_ratio: 0.5,
                ..YcsbConfig::small(2)
            },
            window: Duration::from_millis(window_ms),
        }
    }

    /// The `ycsb_hot_2pc` shape, small: Sundial on COCO epochs and classic
    /// 2PC over 1 000 keys at theta 0.9 — a distributed run takes two more
    /// round trips, every other client is local, aborts back off.
    fn hot_2pc(window_ms: u64) -> Self {
        Cell {
            kind: ProtocolKind::Sundial,
            scheme: LoggingScheme::CocoEpoch,
            one_way_us: one_way_us(500),
            interval_ms: 20,
            backoff_us: None,
            ycsb: YcsbConfig {
                keys_per_partition: 1_000,
                zipf_theta: 0.9,
                distributed_ratio: 0.5,
                remote_op_ratio: 0.5,
                ..YcsbConfig::small(2)
            },
            window: Duration::from_millis(window_ms),
        }
    }

    /// The paper's back-off at this cell's scale: 0.5 ms against a 0.1 ms
    /// one-way delay, doubling up to 8 ms.
    fn with_the_papers_backoff(mut self) -> Self {
        self.backoff_us = Some((5 * self.one_way_us, 80 * self.one_way_us));
        self
    }

    fn build(&self) -> (Primo, Arc<dyn Workload>) {
        let (one_way_us, interval_ms) = (self.one_way_us, self.interval_ms);
        let backoff_us = self.backoff_us;
        let primo = Primo::builder()
            .partitions(2)
            .workers_per_partition(1)
            .protocol(self.kind)
            .logging(self.scheme)
            .fast_local()
            .tweak(move |c| {
                c.net.one_way_us = one_way_us;
                c.wal.interval_ms = interval_ms;
                if let Some((initial_us, max_us)) = backoff_us {
                    (c.backoff_initial_us, c.backoff_max_us) = (initial_us, max_us);
                }
                c.trace.ring_capacity = 1 << 16;
            })
            .build();
        let workload: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(self.ycsb.clone()));
        for p in primo.cluster().partition_ids() {
            workload.load_partition(&primo.cluster().partition(p).store, p);
        }
        primo.checkpoint_all();
        (primo, workload)
    }
}

/// Workers of a cell, running until [`Running::stop`].
struct Running {
    stop: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Running {
    fn start(primo: &Primo, workload: &Arc<dyn Workload>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Metrics::new());
        let handles = spawn_workers(
            primo.cluster(),
            primo.protocol(),
            workload,
            &metrics,
            &stop,
            &Arc::new(AtomicBool::new(true)),
        );
        Running {
            stop,
            metrics,
            handles,
        }
    }

    /// Raise the stop flag and join: how long that took. A worker that
    /// panicked (a `debug_assert!` of the loop) fails the test here.
    fn stop(self) -> Duration {
        let raised = Instant::now();
        self.stop.store(true, Ordering::SeqCst);
        for h in self.handles {
            h.join().expect("a worker panicked");
        }
        raised.elapsed()
    }
}

/// What a cell did inside its window (a 40 ms warm-up runs before it).
struct Outcome {
    /// Results released inside the window, all / distributed only.
    committed: u64,
    dist_committed: u64,
    /// Round trips charged inside the window.
    round_trips: u64,
    /// Fan-outs ever sent.
    fanouts: u64,
    window_s: f64,
    timeline: Timeline,
}

fn run(cell: &Cell) -> Outcome {
    run_wrapped(cell, |workload| workload)
}

/// [`run`], with the cell's workload behind `wrap`.
fn run_wrapped(cell: &Cell, wrap: impl FnOnce(Arc<dyn Workload>) -> Arc<dyn Workload>) -> Outcome {
    let (primo, workload) = cell.build();
    let workload = wrap(workload);
    let running = Running::start(&primo, &workload);
    std::thread::sleep(Duration::from_millis(40));
    let net = &primo.cluster().net;
    let metrics = Arc::clone(&running.metrics);
    let before = (
        metrics.committed(),
        metrics.dist_committed(),
        net.round_trips_charged(),
    );
    let begun = Instant::now();
    std::thread::sleep(cell.window);
    let after = (
        metrics.committed(),
        metrics.dist_committed(),
        net.round_trips_charged(),
    );
    let window_s = begun.elapsed().as_secs_f64();
    running.stop();
    let outcome = Outcome {
        committed: after.0 - before.0,
        dist_committed: after.1 - before.1,
        round_trips: after.2 - before.2,
        fanouts: primo.cluster().prefetch_fanouts(),
        window_s,
        timeline: primo.cluster().recorder.merge(),
    };
    primo.shutdown();
    outcome
}

/// One fan-out, as its `PrefetchIssued` event tells it.
#[derive(Debug, Clone, Copy)]
struct Fanout {
    home: PartitionId,
    sent_at: u64,
    flight_us: u64,
    taken_at: u64,
}

impl Fanout {
    /// Send to take-up: what the client waited before its body ran.
    fn wait_us(&self) -> u64 {
        self.taken_at - self.sent_at
    }
}

fn fanouts(timeline: &Timeline) -> Vec<Fanout> {
    let taken = timeline.events().iter().filter_map(|e| match e.kind {
        TraceEventKind::PrefetchIssued {
            sent_us_ago,
            flight_us,
            ..
        } => Some(Fanout {
            home: e.partition.expect("a fan-out has a home"),
            sent_at: e.at_us - sent_us_ago,
            flight_us,
            taken_at: e.at_us,
        }),
        _ => None,
    });
    taken.collect()
}

/// How many fan-outs its worker had sent and not yet taken up when each
/// fan-out was sent (itself included): the median over all of them.
fn typical_depth(fanouts: &[Fanout]) -> usize {
    let flying_at = |home, at| {
        let flying = |f: &&Fanout| f.home == home && f.sent_at <= at && at < f.taken_at;
        fanouts.iter().filter(flying).count()
    };
    median(fanouts.iter().map(|f| flying_at(f.home, f.sent_at) as u64)) as usize
}

impl Outcome {
    /// Mean worker time one client took, microseconds: a worker of these
    /// cells is never idle but for the wire, so this is what it spent taking
    /// a client up and running it — whatever the host did to it meanwhile.
    fn service_us(&self) -> f64 {
        WORKERS as f64 * self.window_s * 1e6 / self.committed.max(1) as f64
    }
}

/// Mean time from a transaction's first `Begin` to its `Committed`: the
/// part of a client's run the recorder brackets.
fn mean_run_us(timeline: &Timeline) -> f64 {
    let mut begun: HashMap<TxnId, u64> = HashMap::new();
    let mut runs = Vec::new();
    for e in timeline.events() {
        let Some(txn) = e.txn else { continue };
        match e.kind {
            TraceEventKind::Begin { .. } => {
                begun.entry(txn).or_insert(e.at_us);
            }
            TraceEventKind::Committed { .. } => {
                runs.extend(begun.remove(&txn).map(|at| e.at_us - at));
            }
            _ => {}
        }
    }
    mean(runs.into_iter())
}

/// Medians, where a mean would be the host's: a debug-build worker that is
/// parked for a scheduler slice makes every client it has queued wait for it.
fn median(values: impl Iterator<Item = u64>) -> u64 {
    let mut values: Vec<u64> = values.collect();
    values.sort_unstable();
    values.get(values.len() / 2).copied().unwrap_or(0)
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let (sum, n) = values.fold((0u64, 0u64), |(s, n), v| (s + v, n + 1));
    sum as f64 / n.max(1) as f64
}

/// The bound of cells (2) and (3): a client waits for its flight and for the
/// few runs ahead of it, not for a queue.
fn queueing_is_bounded_by_need(out: &Outcome) -> Result<(), String> {
    let fanouts = fanouts(&out.timeline);
    ensure(fanouts.len() > 50, || {
        format!("only {} fan-outs taken up", fanouts.len())
    })?;
    let wait = median(fanouts.iter().map(Fanout::wait_us));
    let flight = median(fanouts.iter().map(|f| f.flight_us));
    let service = out.service_us();
    ensure(wait as f64 <= flight as f64 + 3.0 * service, || {
        format!(
            "clients waited {wait} us for a {flight} us flight at {service:.0} us a run \
             (typical depth {})",
            typical_depth(&fanouts)
        )
    })
}

// ---- (1) + (8): the wire no longer bounds a worker ----

#[test]
fn all_distributed_workers_commit_past_one_round_trip_per_transaction() {
    let _quiet = quiet();
    let cell = Cell::primo(1.0, 1_000, 400);
    eventually("all-distributed YCSB, a flight worth many runs", || {
        let out = run(&cell);
        // A worker that waits out every round trip commits at most one
        // transaction per 2 x one-way.
        let flight_us = 2.0 * cell.one_way_us as f64;
        let one_per_round_trip = WORKERS as f64 * out.window_s * 1e6 / flight_us;
        ensure(out.committed as f64 >= 3.0 * one_per_round_trip, || {
            format!(
                "{} commits in {:.0} ms: one per round trip is {one_per_round_trip:.0}",
                out.committed,
                out.window_s * 1e3
            )
        })?;
        // ... and sits where the model puts an overlapped worker.
        let service = mean_run_us(&out.timeline);
        let model = WORKERS as f64 * overlapped_worker_tps(service, flight_us, CLIENTS_PER_WORKER);
        let tps = out.committed as f64 / out.window_s;
        ensure((0.5 * model..=1.1 * model).contains(&tps), || {
            format!("{tps:.0} TPS against a model of {model:.0} ({service:.0} us a run)")
        })?;
        // Overlapping sends no message twice: still one round trip a commit.
        let per_dist = out.round_trips as f64 / out.dist_committed.max(1) as f64;
        // (One in 2^10 of these transactions reads only, off the snapshot.)
        let all_distributed = 100 * out.dist_committed >= 99 * out.committed;
        ensure(all_distributed && per_dist <= 1.02, || {
            format!(
                "{per_dist:.3} round trips per distributed commit ({} of {} distributed)",
                out.dist_committed, out.committed
            )
        })
    });
}

// ---- (2): the queue is as deep as a flight needs ----

#[test]
fn the_queue_covers_one_flight_and_shrinks_with_it() {
    let _quiet = quiet();
    eventually("queue depth at a one-way delay and at half of it", || {
        let slow = run(&Cell::primo(1.0, 1_000, 250));
        queueing_is_bounded_by_need(&slow)?;
        let fast = run(&Cell::primo(1.0, 500, 250));
        queueing_is_bounded_by_need(&fast)?;
        let (slow, fast) = (
            typical_depth(&fanouts(&slow.timeline)),
            typical_depth(&fanouts(&fast.timeline)),
        );
        ensure(slow >= 3 && fast < slow, || {
            format!("typical depth {slow}, and {fast} at half the one-way delay")
        })
    });
}

// ---- (3): the queue follows what a client costs the worker, both ways ----

#[test]
fn two_pc_rounds_on_hot_keys_do_not_build_a_queue() {
    let _quiet = quiet();
    // A depth that grew by one per stall and never shrank queued clients for
    // tens of runs here. Nor does a depth measured on the worker's runs
    // alone: with the rounds off the worker a client costs it little, but the
    // next body of a client that fetched waits for this one's vote round all
    // the same — six clients deep, they waited eight flights; three or four
    // deep (the worker's waits counted as its runs), four. A queued client
    // that fetched covers its vote round of the next flight by itself: the
    // queue is bounded by need, not by 1 (it was 1 while every round was the
    // worker's).
    let cell = Cell::hot_2pc(300);
    eventually("Sundial + COCO + 2PC on 1 000 hot keys", || {
        queueing_is_bounded_by_need(&run(&cell))
    });
}

// ---- (4): one loop for local and distributed clients ----

#[test]
fn a_local_only_workload_sends_and_queues_nothing() {
    let _quiet = quiet();
    let out = run(&Cell::primo(0.0, 1_000, 100));
    assert!(out.committed > 100, "only {} commits", out.committed);
    assert_eq!((out.fanouts, out.round_trips), (0, 0));
    assert!(fanouts(&out.timeline).is_empty(), "a client was queued");
}

#[test]
fn locals_run_during_a_flight_and_nothing_starves_behind_them() {
    let _quiet = quiet();
    eventually("10 % distributed, a flight worth many runs", || {
        let out = run(&Cell::primo(0.1, 1_000, 250));
        let fanouts = fanouts(&out.timeline);
        ensure(fanouts.len() > 50, || {
            format!("only {} fan-outs taken up", fanouts.len())
        })?;
        // With one client on the wire the worker always wants another; only
        // "a due head is passed over by at most one client" gets it run.
        // Starved, a reply sat until 16 more clients with something to fetch
        // had come by: 160 runs.
        let late = median((fanouts.iter()).map(|f| f.wait_us().saturating_sub(f.flight_us)));
        ensure(late <= 2_000, || {
            format!("half the fan-outs were taken up {late} us or more after they were due")
        })?;
        // Some other transaction began on the same worker while a fan-out
        // was still in flight.
        let begins: Vec<(PartitionId, u64)> = (out.timeline.events().iter())
            .filter(|e| matches!(e.kind, TraceEventKind::Begin { .. }))
            .map(|e| (e.partition.expect("begin has a home"), e.at_us))
            .collect();
        let overlapped = fanouts.iter().filter(|f| {
            let flying = f.sent_at..f.sent_at + f.flight_us;
            (begins.iter()).any(|(home, at)| *home == f.home && flying.contains(at))
        });
        let overlapped = overlapped.count();
        ensure(2 * overlapped >= fanouts.len(), || {
            format!(
                "a transaction ran during {overlapped} of {} flights",
                fanouts.len()
            )
        })
    });
}

// ---- (5): the client population does not change ----

#[test]
fn queued_and_pending_clients_share_the_population() {
    let _quiet = quiet();
    // Results are released every 200 ms (or when a worker blocks at its
    // ceiling), so both workers fill up: the loop's `debug_assert!` on
    // `queued + parked + pending` runs at the ceiling, with clients queued —
    // and, on 1 000 hot keys, with clients parked: a parked client is one of
    // the population, and its retry needs no room.
    let mut uniform = Cell::primo(0.1, 500, 300);
    uniform.interval_ms = 200;
    let mut hot = uniform.clone().with_the_papers_backoff();
    (hot.ycsb.keys_per_partition, hot.ycsb.zipf_theta) = (1_000, 0.9);
    // ... and, under Sundial with 2PC rounds, with clients voting and
    // deciding: a suspended attempt is one of the population too.
    let mut staged = hot.clone();
    (staged.kind, staged.scheme, staged.interval_ms) =
        (ProtocolKind::Sundial, LoggingScheme::CocoEpoch, 100);
    for (cell, parks) in [(uniform, false), (hot, true), (staged.clone(), true)] {
        let out = run(&cell);
        assert!(
            out.committed > WORKERS * CLIENTS_PER_WORKER as u64,
            "{} commits never reached the ceiling of {CLIENTS_PER_WORKER} a worker",
            out.committed
        );
        assert!(!fanouts(&out.timeline).is_empty());
        let attempts = attempts(&out.timeline);
        let parked = (attempts.iter())
            .filter(|a| a.backoff_us.is_some_and(|us| us > 0))
            .count();
        assert!(!parks || parked > 50, "only {parked} clients were parked");
        let suspended = attempts.iter().filter(|c| c.vote.is_some()).count();
        assert!(cell.kind != staged.kind || suspended > 50);
    }
}

// ---- (6): a crash finds the queued clients holding nothing ----

/// The same counter written to key `key` of both partitions, hinted.
struct PairWrite {
    home: PartitionId,
    key: Key,
}

impl TxnProgram for PairWrite {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let a = ctx.read(P0, T, self.key)?.as_u64();
        let _ = ctx.read(P1, T, self.key)?;
        ctx.write(P0, T, self.key, Value::from_u64(a + 1))?;
        ctx.write(P1, T, self.key, Value::from_u64(a + 1))
    }
    fn home_partition(&self) -> PartitionId {
        self.home
    }
    fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
        vec![(P0, T, self.key), (P1, T, self.key)]
    }
}

struct PairWrites;

const PAIRS: u64 = 64;

impl Workload for PairWrites {
    fn name(&self) -> &'static str {
        "pair-writes"
    }
    fn load_partition(&self, store: &primo_repro::storage::PartitionStore, _p: PartitionId) {
        for k in 0..PAIRS {
            store.insert(T, k, Value::from_u64(0));
        }
    }
    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        Box::new(PairWrite {
            home,
            key: rng.next_below(PAIRS),
        })
    }
}

fn pair_values(primo: &Primo, p: PartitionId) -> Vec<Option<u64>> {
    let store = &primo.cluster().partition(p).store;
    let value = |k| store.get(T, k).map(|r| r.read().value.as_u64());
    (0..PAIRS).map(value).collect()
}

/// `PRIMO_CRASH_ABORT_SEEDS` widens the loop, as it does in `recovery.rs`.
#[test]
fn a_crash_aborts_the_queued_clients_at_take_up_and_pairs_stay_equal() {
    let _quiet = quiet();
    let seeds: u64 = std::env::var("PRIMO_CRASH_ABORT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    for seed in 1..=seeds {
        let primo = Primo::builder()
            .partitions(2)
            .workers_per_partition(1)
            .protocol(ProtocolKind::Primo)
            .fast_local()
            .replication_factor(3)
            .seed(seed)
            .tweak(|c| {
                // A flight much longer than a run: P0's worker always has
                // clients queued for P1 when P1 goes down.
                c.net.one_way_us = 1_000;
                c.trace.ring_capacity = 1 << 15;
            })
            .build();
        let workload: Arc<dyn Workload> = Arc::new(PairWrites);
        for p in primo.cluster().partition_ids() {
            workload.load_partition(&primo.cluster().partition(p).store, p);
        }
        primo.checkpoint_all();

        let running = Running::start(&primo, &workload);
        std::thread::sleep(Duration::from_millis(40));
        // Every other seed loses the leader's log replica with it: the
        // surviving quorum must reproduce every acknowledged pair.
        if seed % 2 == 0 {
            primo.crash_partition_discarding_log(P1);
        } else {
            primo.crash_partition(P1);
        }
        let crashed_at = now_us();
        std::thread::sleep(Duration::from_millis(15));
        // The workers keep running through the recovery: P0's aborts and
        // retries, P1's serves nobody until it is back up.
        primo.recover_partition(P1).expect("recovered");
        let recovered_at = now_us();
        std::thread::sleep(Duration::from_millis(40));
        running.stop();

        let timeline = primo.cluster().recorder.merge();
        let of_p0 = timeline.for_partition(P0);
        let unavailable = of_p0.between(crashed_at, recovered_at).of_kind(|k| {
            matches!(
                k,
                TraceEventKind::Abort {
                    reason: AbortReason::RemoteUnavailable,
                    ..
                }
            )
        });
        assert!(
            !unavailable.is_empty(),
            "seed {seed}: P0's queued clients did not abort RemoteUnavailable"
        );
        let committed_after = (of_p0.between(recovered_at, u64::MAX))
            .of_kind(|k| matches!(k, TraceEventKind::Committed { .. }));
        assert!(
            !committed_after.is_empty(),
            "seed {seed}: nothing committed once P1 was back"
        );
        // Let the last commits become durable, then compare the halves.
        std::thread::sleep(Duration::from_millis(10));
        let (p0, p1) = (pair_values(&primo, P0), pair_values(&primo, P1));
        assert_eq!(
            p0, p1,
            "seed {seed}: a pair diverged — half a transaction survived the crash"
        );
        primo.shutdown();
    }
}

// ---- (7): stopping with clients queued leaves nothing behind ----

#[test]
fn stopping_with_a_full_queue_drops_clients_that_hold_nothing() {
    let _quiet = quiet();
    // A 10 ms flight: dozens of clients are on the wire whenever the stop
    // flag is raised.
    let cell = Cell::primo(1.0, 5_000, 0);
    let (primo, workload) = cell.build();
    let running = Running::start(&primo, &workload);
    std::thread::sleep(Duration::from_millis(120));
    let joined_in = running.stop();
    assert!(joined_in < Duration::from_millis(250), "{joined_in:?}");

    let cluster = primo.cluster();
    let timeline = cluster.recorder.merge();
    let sent = cluster.net.round_trips_charged();
    let taken = fanouts(&timeline).len() as u64;
    assert!(
        sent >= taken + 8,
        "{sent} fan-outs sent, {taken} taken up: no queue to drop"
    );
    assert_nothing_is_left_behind(&primo, &timeline);
    primo.shutdown();
}

/// What stopped workers must leave of the clients they dropped: nothing.
fn assert_nothing_is_left_behind(primo: &Primo, timeline: &Timeline) {
    let cluster = primo.cluster();
    // Every attempt that began has ended ...
    let mut open: HashMap<TxnId, i64> = HashMap::new();
    for e in timeline.events() {
        let step = match e.kind {
            TraceEventKind::Begin { .. } => 1,
            TraceEventKind::Committed { .. } | TraceEventKind::Abort { .. } => -1,
            _ => continue,
        };
        *open
            .entry(e.txn.expect("attempt events carry their id"))
            .or_default() += step;
    }
    open.retain(|_, balance| *balance != 0);
    assert!(open.is_empty(), "attempts without an end: {open:?}");
    // ... no record is locked ...
    for p in cluster.partition_ids() {
        for (_, table) in cluster.partition(p).store.tables() {
            let locked = table.scan_keys(|k| table.get(k).is_some_and(|r| r.lock().is_locked()));
            assert!(locked.is_empty(), "{p}: keys {locked:?} are still locked");
        }
    }
    // ... and nothing is registered with the group commit: an entry left in
    // an active table would pin its partition's watermark, and with it the
    // horizon, for ever.
    let horizon = cluster.snapshot_horizon();
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        cluster.snapshot_horizon() > horizon,
        "the horizon is stuck at {horizon}"
    );
}

// ---- (9) + (10): a back-off is the client's, not the worker's ----

/// One attempt, as its events tell it: `Begin`, `Prepare` when its votes are
/// sent, `Vote` when they are taken up — right behind it the attempt takes
/// its first write lock — `CommitTsReserved` under the locks,
/// `DecisionReached` when the acknowledgements are taken up, and the end
/// (`Committed` / `Abort`) once every lock is released.
#[derive(Debug, Clone, Copy)]
struct AttemptSpan {
    home: PartitionId,
    txn: TxnId,
    attempt: u32,
    begun_at: u64,
    participants: u32,
    prepared_at: Option<u64>,
    vote: Option<Reply>,
    certified_at: Option<u64>,
    decision: Option<Reply>,
    ended_at: u64,
    /// The back-off its abort drew (0: the abort was final); `None`: it
    /// committed.
    backoff_us: Option<u64>,
}

/// A round's replies, as taken up.
#[derive(Debug, Clone, Copy)]
struct Reply {
    at: u64,
    flight_us: u64,
    late_us: u64,
}

impl Reply {
    /// When the round was sent.
    fn sent_at(&self) -> u64 {
        self.at - self.late_us - self.flight_us
    }

    /// What its client waited for it — none of it the worker's time.
    fn waited_us(&self) -> u64 {
        self.flight_us + self.late_us
    }
}

impl AttemptSpan {
    fn committed(&self) -> bool {
        self.backoff_us.is_none()
    }

    /// The worker's own time for this attempt: its span less its rounds.
    fn own_us(&self) -> u64 {
        let rounds = self.vote.iter().chain(&self.decision);
        (self.ended_at - self.begun_at) - rounds.map(Reply::waited_us).sum::<u64>()
    }

    /// First write lock to release, less the decision round: the worker's
    /// time under the locks.
    fn certify_us(&self) -> Option<u64> {
        let locked = self.ended_at - self.vote?.at;
        Some(locked - self.decision.map_or(0, |d| d.waited_us()))
    }
}

/// Every attempt whose `Begin` the rings still hold, in the order they ended.
fn attempts(timeline: &Timeline) -> Vec<AttemptSpan> {
    let mut open: HashMap<TxnId, AttemptSpan> = HashMap::new();
    let mut spans = Vec::new();
    for e in timeline.events() {
        let (Some(txn), Some(home)) = (e.txn, e.partition) else {
            continue;
        };
        if let TraceEventKind::Begin { attempt } = e.kind {
            let begun = AttemptSpan {
                home,
                txn,
                attempt,
                begun_at: e.at_us,
                participants: 0,
                prepared_at: None,
                vote: None,
                certified_at: None,
                decision: None,
                ended_at: 0,
                backoff_us: None,
            };
            open.insert(txn, begun);
            continue;
        }
        let Some(span) = open.get_mut(&txn) else {
            continue;
        };
        let reply = |flight_us, late_us| Reply {
            at: e.at_us,
            flight_us,
            late_us,
        };
        match e.kind {
            TraceEventKind::Prepare { participants } => {
                (span.participants, span.prepared_at) = (participants, Some(e.at_us));
            }
            TraceEventKind::Vote {
                flight_us, late_us, ..
            } => span.vote = Some(reply(flight_us, late_us)),
            TraceEventKind::CommitTsReserved { .. } => span.certified_at = Some(e.at_us),
            TraceEventKind::DecisionReached {
                commit: true,
                flight_us,
                late_us,
                ..
            } => span.decision = Some(reply(flight_us, late_us)),
            TraceEventKind::Committed { .. } | TraceEventKind::Abort { .. } => {
                let mut ended = open.remove(&txn).expect("just found");
                ended.ended_at = e.at_us;
                if let TraceEventKind::Abort { backoff_us, .. } = e.kind {
                    ended.backoff_us = Some(backoff_us);
                }
                spans.push(ended);
            }
            _ => {}
        }
    }
    spans
}

/// The clients parked at `at_us`: their last attempt by then was an abort
/// whose back-off reaches past it.
fn parked_at(attempts: &[AttemptSpan], at_us: u64) -> HashMap<TxnId, AttemptSpan> {
    let mut last: HashMap<TxnId, AttemptSpan> = HashMap::new();
    for a in attempts.iter().filter(|a| a.ended_at <= at_us) {
        last.insert(a.txn, *a);
    }
    last.retain(|_, a| {
        a.backoff_us
            .is_some_and(|us| us > 0 && a.ended_at + us > at_us)
    });
    last
}

/// The back-off level after `aborts` aborts: the initial one, doubled each
/// time up to the longest.
fn level_us((initial_us, max_us): (u64, u64), aborts: u32) -> u64 {
    (initial_us << (aborts - 1).min(16)).min(max_us)
}

/// Every aborted attempt the rings hold together with the retry that
/// followed it.
fn retries(attempts: &[AttemptSpan]) -> Vec<(AttemptSpan, AttemptSpan)> {
    let mut last: HashMap<TxnId, AttemptSpan> = HashMap::new();
    let mut pairs = Vec::new();
    for a in attempts {
        pairs.extend(last.insert(a.txn, *a).map(|aborted| (aborted, *a)));
    }
    pairs
}

#[test]
fn a_backed_off_client_is_off_its_worker_and_on_the_papers_schedule() {
    let _quiet = quiet();
    let cell = Cell::hot_2pc(600).with_the_papers_backoff();
    let backoff_us = cell.backoff_us.expect("just set");
    eventually("retries on 1 000 hot keys", || {
        let out = run(&cell);
        let attempts = attempts(&out.timeline);
        let retries = retries(&attempts);
        ensure(retries.len() > 30, || {
            format!("only {} retries", retries.len())
        })?;
        // The schedule is the client's and is what it was: the same id, the
        // next attempt, not before the back-off the abort drew is over, and
        // that drawn from a level that doubles. Never early, whatever the
        // host does.
        let mut deepest = 0;
        for (aborted, retry) in &retries {
            let level_us = level_us(backoff_us, aborted.attempt);
            let drawn_us = aborted.backoff_us.expect("a retry follows an abort");
            assert_eq!(retry.attempt, aborted.attempt + 1, "{}", retry.txn);
            assert!(
                (level_us / 2..=level_us).contains(&drawn_us),
                "{}: attempt {} backs off {drawn_us} us, its level is {level_us} us",
                aborted.txn,
                aborted.attempt
            );
            assert!(
                retry.begun_at >= aborted.ended_at + drawn_us,
                "{}: retried {} us after an abort that backs off {drawn_us} us",
                retry.txn,
                retry.begun_at - aborted.ended_at
            );
            deepest = deepest.max(retry.attempt);
        }
        ensure(deepest >= 3, || "no client backed off twice".to_string())?;
        // The worker's time it is not: during most back-offs it began some
        // other transaction.
        let overlapped = retries.iter().filter(|(aborted, retry)| {
            let parked = aborted.ended_at..retry.begun_at;
            (attempts.iter()).any(|a| {
                a.home == aborted.home && a.txn != aborted.txn && parked.contains(&a.begun_at)
            })
        });
        let overlapped = overlapped.count();
        ensure(2 * overlapped >= retries.len(), || {
            format!(
                "another transaction began during {overlapped} of {} back-offs",
                retries.len()
            )
        })
    });
}

/// The worker this loop replaces, emulated from outside the engine: every
/// retry holds its worker at the start of its body — nothing locked yet —
/// for what the client had just waited parked, the mean back-off of its level
/// and a flight. That is the worker time a loop that sits through its
/// clients' back-offs and retry fan-outs spends on them.
struct HeldRetries {
    inner: Arc<dyn Workload>,
    backoff_us: (u64, u64),
    flight_us: u64,
}

struct HeldRetry {
    inner: Box<dyn TxnProgram>,
    runs: AtomicU32,
    backoff_us: (u64, u64),
    flight_us: u64,
}

impl Workload for HeldRetries {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn load_partition(&self, store: &primo_repro::storage::PartitionStore, p: PartitionId) {
        self.inner.load_partition(store, p);
    }
    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        Box::new(HeldRetry {
            inner: self.inner.generate(rng, home),
            runs: AtomicU32::new(0),
            backoff_us: self.backoff_us,
            flight_us: self.flight_us,
        })
    }
}

impl TxnProgram for HeldRetry {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let aborted = self.runs.fetch_add(1, Ordering::Relaxed);
        if aborted > 0 {
            charge_latency_us(level_us(self.backoff_us, aborted) * 3 / 4 + self.flight_us);
        }
        self.inner.execute(ctx)
    }
    fn home_partition(&self) -> PartitionId {
        self.inner.home_partition()
    }
    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }
    fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
        self.inner.read_hint()
    }
}

#[test]
fn parked_retries_commit_more_than_held_ones_and_what_the_model_says() {
    let _quiet = quiet();
    let cell = Cell::hot_2pc(800).with_the_papers_backoff();
    let backoff_us = cell.backoff_us.expect("just set");
    let flight_us = 2 * cell.one_way_us;
    eventually("1 000 hot keys, retries parked and retries held", || {
        let parked = run(&cell);
        let held = run_wrapped(&cell, |inner| {
            Arc::new(HeldRetries {
                inner,
                backoff_us,
                flight_us,
            })
        });
        ensure(10 * parked.committed >= 12 * held.committed, || {
            format!(
                "{} commits with retries parked, {} with the worker held",
                parked.committed, held.committed
            )
        })?;
        // The model, on what this run measured: so many of the worker's own
        // microseconds an attempt, so many attempts a commit, one lock-holder
        // at a time.
        within_the_staged_model(&parked, flight_us)
    });
}

// ---- (11): stopping with clients parked leaves nothing behind ----

#[test]
fn stopping_with_clients_parked_drops_clients_that_hold_nothing() {
    let _quiet = quiet();
    // Back-offs of 100 ms and more: nearly everyone who aborted is parked
    // when the stop flag is raised.
    // On the watermark scheme, where a registration left behind would show:
    // it pins the horizon.
    let mut cell = Cell::hot_2pc(0);
    cell.backoff_us = Some((200_000, 800_000));
    (cell.scheme, cell.interval_ms) = (LoggingScheme::Watermark, 2);
    let (primo, workload) = cell.build();
    let running = Running::start(&primo, &workload);
    std::thread::sleep(Duration::from_millis(150));
    let stopped_at = now_us();
    let joined_in = running.stop();
    assert!(joined_in < Duration::from_millis(250), "{joined_in:?}");

    let timeline = primo.cluster().recorder.merge();
    let parked = parked_at(&attempts(&timeline), stopped_at).len();
    assert!(parked >= 8, "{parked} clients were parked: nothing to drop");
    assert_nothing_is_left_behind(&primo, &timeline);
    primo.shutdown();
}

// ---- (12): a crashed home drops its parked clients with its queued ones ----

#[test]
fn a_crashed_home_drops_its_parked_clients() {
    let _quiet = quiet();
    // Primo on the watermark scheme, as in the crash cells above, on 1 000
    // hot keys with back-offs of 50 to 100 ms: P1's worker has clients parked
    // whenever it goes down, and had it kept them they would be retried
    // within the 150 ms it then serves again.
    let mut cell = Cell::primo(0.5, 500, 0);
    (cell.ycsb.keys_per_partition, cell.ycsb.zipf_theta) = (1_000, 0.9);
    cell.backoff_us = Some((100_000, 100_000));
    let (primo, workload) = cell.build();
    let running = Running::start(&primo, &workload);
    std::thread::sleep(Duration::from_millis(120));
    primo.crash_partition(P1);
    let crashed_at = now_us();
    std::thread::sleep(Duration::from_millis(15));
    primo.recover_partition(P1).expect("recovered");
    let up_at = now_us();
    std::thread::sleep(Duration::from_millis(150));
    running.stop();

    let timeline = primo.cluster().recorder.merge().for_partition(P1);
    let attempts = attempts(&timeline);
    let parked = parked_at(&attempts, crashed_at);
    assert!(
        parked.len() >= 8,
        "only {} clients were parked",
        parked.len()
    );
    for a in attempts.iter().filter(|a| a.begun_at > crashed_at) {
        assert!(
            !parked.contains_key(&a.txn),
            "{} was parked when P1 went down and made attempt {} after",
            a.txn,
            a.attempt
        );
    }
    // The worker was not lost with them.
    assert!(
        (attempts.iter()).any(|a| a.begun_at > up_at && a.backoff_us.is_none()),
        "nothing committed on P1 once it was back"
    );
    primo.shutdown();
}

// ---- the zombie fence ----

#[test]
fn a_crashed_home_commits_nothing_until_it_is_back_up() {
    let _quiet = quiet();
    // Local-only: before the fence, P0's worker went on committing
    // TicToc-locally into the store its recovery then wipes.
    let cell = Cell::primo(0.0, 100, 0);
    let (primo, workload) = cell.build();
    let running = Running::start(&primo, &workload);
    std::thread::sleep(Duration::from_millis(40));
    primo.crash_partition(P0);
    let crashed_at = now_us();
    std::thread::sleep(Duration::from_millis(20));
    let report = primo.recover_partition(P0).expect("recovered");
    let up_at = now_us();
    std::thread::sleep(Duration::from_millis(30));
    running.stop();

    let timeline = primo.cluster().recorder.merge().for_partition(P0);
    let is_commit = |k: &TraceEventKind| matches!(k, TraceEventKind::Committed { .. });
    // An attempt that began once the partition was down (the crash had
    // returned) and before its recovery started never committed.
    let down = crashed_at..up_at - report.duration_us;
    let mut began: HashMap<TxnId, u64> = HashMap::new();
    for e in timeline.events() {
        let Some(txn) = e.txn else { continue };
        match e.kind {
            TraceEventKind::Begin { .. } => {
                began.insert(txn, e.at_us);
            }
            TraceEventKind::Committed { .. } => {
                let began_at = began[&txn];
                assert!(
                    !down.contains(&began_at),
                    "{txn} began {} us into the outage and committed",
                    began_at - crashed_at
                );
            }
            _ => {}
        }
    }
    // Nor did anything commit at all while it was down, but for the attempt
    // in flight when the crash struck.
    let while_down = timeline.between(crashed_at, up_at).of_kind(is_commit);
    assert!(
        while_down.len() <= 1,
        "{} commits on P0 while it was down",
        while_down.len()
    );
    // The worker was not lost: it serves again after the recovery.
    assert!(!(timeline.between(up_at, u64::MAX).of_kind(is_commit)).is_empty());
    primo.shutdown();
}

// ---- (13) to (18): a 2PC round is the client's wait, not the worker's ----

// ---- (13) to (18): a 2PC round is the client's wait, not the worker's ----

#[test]
fn one_lock_holder_a_worker_and_the_next_body_flies_during_its_decision_round() {
    let _quiet = quiet();
    let cell = Cell::hot_2pc(600).with_the_papers_backoff();
    eventually("Sundial + COCO + 2PC on 1 000 hot keys", || {
        let out = run(&cell);
        let attempts = attempts(&out.timeline);
        let decided = attempts.iter().filter(|c| c.decision.is_some()).count();
        ensure(decided > 100, || format!("only {decided} decision rounds"))?;
        for home in [P0, P1] {
            // (a) From the take-up of its votes — its first write lock is
            // next — to its end, an attempt is its worker's only one.
            let mut holders: Vec<_> = attempts.iter().filter(|c| c.home == home).collect();
            holders.retain(|c| c.vote.is_some());
            holders.sort_by_key(|c| c.vote.map(|v| v.at));
            for pair in holders.windows(2) {
                let (held, next) = (pair[0], pair[1]);
                let next_locks_at = next.vote.expect("retained").at;
                assert!(
                    next_locks_at >= held.ended_at,
                    "{home}: {} took up its votes {} us before {} had released",
                    next.txn,
                    held.ended_at - next_locks_at,
                    held.txn
                );
            }
        }
        for c in &attempts {
            // (d) No reply is read before it is back, and nothing is
            // certified ahead of its own votes.
            let (Some(prepared_at), Some(vote)) = (c.prepared_at, c.vote) else {
                continue;
            };
            assert!(vote.at >= prepared_at + vote.flight_us, "{c:?}");
            assert!(c.certified_at.is_none_or(|at| at >= vote.at), "{c:?}");
            if let (Some(decision), Some(certified_at)) = (c.decision, c.certified_at) {
                assert!(decision.at >= certified_at + decision.flight_us, "{c:?}");
            }
        }
        // (c) The round is the client's: during most decision rounds some
        // other transaction began on the same worker.
        let begins: Vec<(PartitionId, TxnId, u64)> =
            (attempts.iter().map(|c| (c.home, c.txn, c.begun_at))).collect();
        let overlapped = attempts.iter().filter(|c| {
            c.decision.is_some_and(|d| {
                let round = d.sent_at()..d.at;
                (begins.iter())
                    .any(|(home, txn, at)| *home == c.home && *txn != c.txn && round.contains(at))
            })
        });
        let overlapped = overlapped.count();
        ensure(2 * overlapped >= decided, || {
            format!("another transaction began during {overlapped} of {decided} decision rounds")
        })
    });
}

// ---- (14): what holds something is overlapped with nothing ----

#[test]
fn attempts_whose_reads_hold_locks_run_from_start_to_finish() {
    let _quiet = quiet();
    // 2PL reads hold shared locks, Primo's do past the mode switch (with WCF
    // off its commit has a vote round): such an attempt sends its votes
    // holding locks, so its worker runs nothing else until it is over — as
    // every attempt used to.
    for kind in [
        ProtocolKind::TwoPlNoWait,
        ProtocolKind::TwoPlWaitDie,
        ProtocolKind::PrimoNoWcfNoWm,
    ] {
        let mut cell = Cell::hot_2pc(150);
        cell.kind = kind;
        let out = run(&cell);
        let mut rounds = 0;
        for home in [P0, P1] {
            let worker = format!("worker-{}-0", home.0);
            let mut running: Option<TxnId> = None;
            for e in (out.timeline.events().iter()).filter(|e| e.worker == worker) {
                match (e.kind, e.txn) {
                    (TraceEventKind::Begin { .. }, Some(txn)) => {
                        assert_eq!(running, None, "{kind:?}: {txn} began inside another");
                        running = Some(txn);
                    }
                    (TraceEventKind::Committed { .. } | TraceEventKind::Abort { .. }, txn) => {
                        assert_eq!(running, txn, "{kind:?}: an end without its begin");
                        running = None;
                    }
                    (TraceEventKind::Vote { .. }, txn) => {
                        assert_eq!(running, txn, "{kind:?}: votes of an attempt not running");
                        rounds += 1;
                    }
                    (_, txn) if running.is_some() && txn.is_some() => {
                        assert_eq!(running, txn, "{kind:?}: {} inside an attempt", e.kind);
                    }
                    _ => {}
                }
            }
        }
        assert!(rounds > 20, "{kind:?}: only {rounds} vote rounds");
    }
}

// ---- (15): what the overlap buys, and what the model says ----

/// Every distributed body first holds its worker for two rounds, nothing
/// locked yet: the worker time a loop that sits through the vote and the
/// decision round spends on them.
struct HeldRounds {
    inner: Arc<dyn Workload>,
    round_us: u64,
}

struct HeldRound {
    inner: Box<dyn TxnProgram>,
    round_us: u64,
}

impl Workload for HeldRounds {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn load_partition(&self, store: &primo_repro::storage::PartitionStore, p: PartitionId) {
        self.inner.load_partition(store, p);
    }
    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        Box::new(HeldRound {
            inner: self.inner.generate(rng, home),
            round_us: self.round_us,
        })
    }
}

impl TxnProgram for HeldRound {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let home = self.inner.home_partition();
        if self.inner.read_hint().iter().any(|(p, _, _)| *p != home) {
            charge_latency_us(2 * self.round_us);
        }
        self.inner.execute(ctx)
    }
    fn home_partition(&self) -> PartitionId {
        self.inner.home_partition()
    }
    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }
    fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
        self.inner.read_hint()
    }
}

/// `staged_worker_tps` on what `out` measured — the worker's own time per
/// attempt and under the locks, the share of attempts with participants and
/// of attempts that aborted — against the commits it made.
fn within_the_staged_model(out: &Outcome, round_us: u64) -> Result<(), String> {
    let attempts = attempts(&out.timeline);
    let share = |of: &dyn Fn(&&AttemptSpan) -> bool| {
        attempts.iter().filter(of).count() as f64 / attempts.len().max(1) as f64
    };
    let cpu_us = mean(attempts.iter().map(AttemptSpan::own_us));
    let certify_us = mean(attempts.iter().filter_map(AttemptSpan::certify_us));
    let (abort_rate, dist_share) = (share(&|c| !c.committed()), share(&|c| c.participants > 0));
    let model = WORKERS as f64
        * staged_worker_tps(
            cpu_us,
            abort_rate,
            dist_share,
            round_us as f64,
            certify_us,
            false,
        );
    let tps = out.committed as f64 / out.window_s;
    ensure((0.6 * model..=1.1 * model).contains(&tps), || {
        format!(
            "{tps:.0} TPS against a model of {model:.0} ({cpu_us:.0} us an attempt, \
             {certify_us:.0} under the locks, {dist_share:.2} distributed, {abort_rate:.2} aborted)"
        )
    })
}

#[test]
fn staged_rounds_commit_more_than_held_ones_and_what_the_model_says() {
    let _quiet = quiet();
    let cell = Cell::hot_2pc(800).with_the_papers_backoff();
    let round_us = 2 * cell.one_way_us;
    eventually("1 000 hot keys, rounds staged and rounds held", || {
        let staged = run(&cell);
        let held = run_wrapped(&cell, |inner| Arc::new(HeldRounds { inner, round_us }));
        ensure(10 * staged.committed >= 12 * held.committed, || {
            format!(
                "{} commits with the rounds staged, {} with the worker held",
                staged.committed, held.committed
            )
        })?;
        within_the_staged_model(&staged, round_us)
    });
}

// ---- (16): the COCO gate stops starts, not attempts in progress ----

#[test]
fn a_closed_gate_lets_suspended_attempts_finish_and_the_epoch_drain() {
    let _quiet = quiet();
    // A suspended attempt's ticket is what its epoch's drain waits for: a
    // worker that waited at the closed gate with one in hand held every
    // epoch to the drain's 200 ms deadline.
    let cell = Cell::hot_2pc(600);
    let interval_us = cell.interval_ms * 1_000;
    eventually("epoch lengths while workers pipeline", || {
        let out = run(&cell);
        let sealed: Vec<u64> = (out.timeline.events().iter())
            .filter(|e| matches!(e.kind, TraceEventKind::EpochSealed { .. }))
            .map(|e| e.at_us)
            .collect();
        ensure(sealed.len() > 10, || {
            format!("only {} epochs", sealed.len())
        })?;
        let attempts = attempts(&out.timeline);
        let suspended = attempts.iter().filter(|c| c.decision.is_some()).count();
        ensure(suspended > 100, || "nothing pipelined".to_string())?;
        let lengths = || sealed.windows(2).map(|w| w[1] - w[0]);
        // The interval, the drain (an attempt in hand is at most two rounds
        // from its end), the group commit itself — and, one epoch in ten, a
        // straggler of the scheme's own model, up to 10 ms.
        let (typical, longest) = (median(lengths()), lengths().max().unwrap_or(0));
        ensure(
            typical <= interval_us + 5_000 && longest <= interval_us + 15_000,
            || format!("epochs take {typical} us, the longest {longest} us"),
        )
    });
}

// ---- (17) + (18): stopping or crashing with attempts suspended ----

/// The hot 2PC shape on the watermark scheme — a registration left behind
/// would pin the horizon — with rounds of `2 x debug_one_way_us`: a worker
/// nearly always has one client deciding and one voting.
fn long_rounds(debug_one_way_us: u64) -> Cell {
    let mut cell = Cell::hot_2pc(0);
    (cell.scheme, cell.interval_ms) = (LoggingScheme::Watermark, 2);
    cell.one_way_us = one_way_us(debug_one_way_us);
    cell
}

/// The attempts in hand at `at_us`, as (voting, deciding): votes sent and not
/// taken up; votes taken up — the write locks follow — and not ended.
fn in_hand(commits: &[AttemptSpan], at_us: u64) -> (Vec<AttemptSpan>, Vec<AttemptSpan>) {
    let open = commits
        .iter()
        .filter(|c| c.begun_at <= at_us && at_us < c.ended_at);
    let sent = open.filter(|c| c.prepared_at.is_some_and(|at| at <= at_us));
    sent.copied()
        .partition(|c| c.vote.is_none_or(|v| v.at > at_us))
}

#[test]
fn stopping_finishes_the_deciding_client_and_abandons_the_voting_one() {
    let _quiet = quiet();
    let (primo, workload) = long_rounds(5_000).build();
    let running = Running::start(&primo, &workload);
    std::thread::sleep(Duration::from_millis(150));
    let stopped_at = now_us();
    let joined_in = running.stop();
    assert!(joined_in < Duration::from_millis(250), "{joined_in:?}");

    let timeline = primo.cluster().recorder.merge();
    let (voting, deciding) = in_hand(&attempts(&timeline), stopped_at);
    assert!(
        !voting.is_empty() && !deciding.is_empty(),
        "{} voting, {} deciding: not both kinds in flight",
        voting.len(),
        deciding.len()
    );
    // A deciding client has installed: its release is finished, it commits.
    // (One whose certify was still to come may have failed it.)
    assert!(deciding.iter().any(|c| c.committed()), "{deciding:?}");
    // A voting client is told off and its ticket closed.
    assert!(voting.iter().all(|c| !c.committed()), "{voting:?}");
    assert_nothing_is_left_behind(&primo, &timeline);
    primo.shutdown();
}

#[test]
fn a_crashed_home_finishes_its_deciding_client_and_abandons_the_voting_one() {
    let _quiet = quiet();
    let (primo, workload) = long_rounds(2_500).build();
    let running = Running::start(&primo, &workload);
    std::thread::sleep(Duration::from_millis(120));
    primo.crash_partition(P1);
    let crashed_at = now_us();
    std::thread::sleep(Duration::from_millis(20));
    primo.recover_partition(P1).expect("recovered");
    let up_at = now_us();
    std::thread::sleep(Duration::from_millis(100));
    running.stop();

    let timeline = primo.cluster().recorder.merge();
    let of_p1 = attempts(&timeline.for_partition(P1));
    let is_crash = |k: &TraceEventKind| matches!(k, TraceEventKind::CrashInjected);
    let went_down = timeline.for_partition(P1).of_kind(is_crash);
    let down_at = went_down.events().first().expect("P1 crashed").at_us;
    let (voting, deciding) = in_hand(&of_p1, down_at);
    assert!(
        !voting.is_empty() || !deciding.is_empty(),
        "P1's worker had no attempt in hand when it went down"
    );
    // None of them outlives the outage: each is over within a round of it,
    // released or abandoned, and none is retried.
    for c in voting.iter().chain(&deciding) {
        assert!(c.ended_at < up_at, "{c:?} was still in hand at recovery");
        let again = of_p1
            .iter()
            .filter(|a| a.txn == c.txn && a.begun_at > crashed_at);
        assert_eq!(again.count(), 0, "{} was retried after the crash", c.txn);
    }
    // The worker was not lost with them.
    assert!(
        of_p1.iter().any(|c| c.begun_at > up_at && c.committed()),
        "nothing committed on P1 once it was back"
    );
    assert_nothing_is_left_behind(&primo, &timeline);
    primo.shutdown();
}
