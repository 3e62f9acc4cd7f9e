//! The experiment driver: build a cluster, load the workload, run workers for
//! a fixed duration (with warm-up), optionally inject a partition crash, and
//! return aggregated metrics.

use crate::cluster::Cluster;
use crate::protocol::Protocol;
use crate::txn::Workload;
use crate::worker::spawn_workers;
use primo_common::config::ClusterConfig;
use primo_common::{
    ClusterStats, HistogramCounts, Metrics, MetricsSnapshot, PartitionId, TimelineWindow,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nominal length of one live-metrics timeline window. Actual windows carry
/// their measured `len_us`, so scheduling jitter skews a window's rate math
/// by its true length, not the nominal one.
const TIMELINE_WINDOW: Duration = Duration::from_millis(100);

/// Mutable cursor of the timeline sampler: everything needed to close the
/// current window as a delta against the live [`Metrics`].
struct TimelineCursor {
    run_start: Instant,
    win_start: Instant,
    committed: u64,
    aborted: u64,
    latency: HistogramCounts,
}

impl TimelineCursor {
    fn new(metrics: &Metrics) -> Self {
        let now = Instant::now();
        TimelineCursor {
            run_start: now,
            win_start: now,
            committed: metrics.committed(),
            aborted: metrics.aborted_attempts(),
            latency: metrics.latency_counts(),
        }
    }

    /// Close the window that started at `win_start`: diff the live counters
    /// against the cursor, emit one [`TimelineWindow`], advance the cursor.
    fn close_window(&mut self, metrics: &Metrics, out: &mut Vec<TimelineWindow>) {
        let len = self.win_start.elapsed();
        let len_us = len.as_micros() as u64;
        if len_us == 0 {
            return;
        }
        let committed_now = metrics.committed();
        let aborted_now = metrics.aborted_attempts();
        let latency_now = metrics.latency_counts();
        let committed = committed_now - self.committed;
        let aborted = aborted_now - self.aborted;
        let attempts = committed + aborted;
        out.push(TimelineWindow {
            start_us: self.win_start.duration_since(self.run_start).as_micros() as u64,
            len_us,
            committed,
            aborted,
            tps: committed as f64 / len.as_secs_f64(),
            abort_rate: if attempts > 0 {
                aborted as f64 / attempts as f64
            } else {
                0.0
            },
            p99_latency_ms: latency_now.percentile_us_since(&self.latency, 0.99) as f64 / 1000.0,
        });
        self.win_start = Instant::now();
        self.committed = committed_now;
        self.aborted = aborted_now;
        self.latency = latency_now;
    }
}

/// Sample the live metrics into ~100 ms [`TimelineWindow`]s until `stop` is
/// raised, then close the final partial window. Runs on its own thread for
/// the duration of the measurement window.
fn sample_timeline(metrics: &Metrics, stop: &AtomicBool) -> Vec<TimelineWindow> {
    let mut windows = Vec::new();
    let mut cursor = TimelineCursor::new(metrics);
    while !stop.load(Ordering::Relaxed) {
        // Sleep in short slices so the sampler notices `stop` quickly and
        // the final partial window stays short.
        let mut slept = Duration::ZERO;
        while slept < TIMELINE_WINDOW && !stop.load(Ordering::Relaxed) {
            let slice = Duration::from_millis(10);
            std::thread::sleep(slice);
            slept += slice;
        }
        cursor.close_window(metrics, &mut windows);
    }
    windows
}

/// What kind of failure a [`CrashPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// The whole partition leader fails: in-memory state is wiped, the
    /// partition is unreachable for the outage, and a replacement replays
    /// the durable log (Fig 12b; §5.2).
    PartitionLoss,
    /// Only the coordinator role fails, at worker granularity: a one-shot
    /// trap is armed on the partition, and the next distributed commit it
    /// coordinates dies *between* the vote round and the decision — the
    /// classic 2PC in-doubt window. The partition itself stays up, so no
    /// recovery step runs; what happens to the stranded transaction is
    /// entirely down to the atomic-commit layer (blocks under classic 2PC,
    /// resolves from the durable vote set under Paxos Commit).
    Coordinator,
}

/// A scheduled failure injection (Fig 12b measures the resulting crash-abort
/// rate; §5.2 describes the recovery).
///
/// Both durations are clamped to the measurement window by the driver, and
/// teardown always recovers whatever is still crashed — a plan can never
/// leave a partition permanently down at experiment end, whatever its
/// timing.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// Which partition fails (or, for [`CrashKind::Coordinator`], which
    /// partition's coordinator role is trapped).
    pub partition: PartitionId,
    /// When (after measurement starts).
    pub at: Duration,
    /// How long the leader stays down before the replacement starts its
    /// recovery (the replacement then replays the durable log, so the
    /// partition is unreachable for `recover_after` *plus* the replay time).
    /// Ignored for [`CrashKind::Coordinator`] — nothing goes down.
    pub recover_after: Duration,
    /// What fails.
    pub kind: CrashKind,
}

impl CrashPlan {
    /// A whole-partition leader crash followed by real recovery.
    pub fn partition_loss(partition: PartitionId, at: Duration, recover_after: Duration) -> Self {
        CrashPlan {
            partition,
            at,
            recover_after,
            kind: CrashKind::PartitionLoss,
        }
    }

    /// Arm a one-shot coordinator crash on `partition` at `at`: the next
    /// distributed commit that partition coordinates dies between its vote
    /// round and the decision.
    pub fn coordinator(partition: PartitionId, at: Duration) -> Self {
        CrashPlan {
            partition,
            at,
            recover_after: Duration::ZERO,
            kind: CrashKind::Coordinator,
        }
    }
}

/// Knobs for one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    pub warmup: Duration,
    pub duration: Duration,
    pub crash: Option<CrashPlan>,
    /// Extra one-way delay for control (watermark / epoch) messages sent by
    /// this partition — Fig 13a.
    pub lag_partition: Option<(PartitionId, u64)>,
    /// Extra per-transaction execution time on this partition — Fig 13b
    /// ("masked cores").
    pub slow_partition: Option<(PartitionId, u64)>,
    /// Periodic explicit-checkpoint interval. A base checkpoint is always
    /// taken after loading and the logs bound themselves from the commit
    /// path, and version chains are reclaimed from it too; `Some(iv)`
    /// additionally folds everything foldable every `iv` (a tighter bound
    /// on recovery replay).
    pub checkpoint_interval: Option<Duration>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            warmup: Duration::from_millis(200),
            duration: Duration::from_secs(1),
            crash: None,
            lag_partition: None,
            slow_partition: None,
            checkpoint_interval: None,
        }
    }
}

impl ExperimentOptions {
    pub fn quick() -> Self {
        ExperimentOptions {
            warmup: Duration::from_millis(50),
            duration: Duration::from_millis(300),
            ..Default::default()
        }
    }
}

/// Run one experiment on an existing, already-loaded cluster.
pub fn run_on_cluster(
    cluster: &Arc<Cluster>,
    protocol: Arc<dyn Protocol>,
    workload: Arc<dyn Workload>,
    options: &ExperimentOptions,
) -> MetricsSnapshot {
    let metrics = Arc::new(Metrics::new());
    let stop = Arc::new(AtomicBool::new(false));
    let recording = Arc::new(AtomicBool::new(false));

    if let Some((p, us)) = options.lag_partition {
        cluster.bus.set_extra_delay_from(p, us);
        cluster.net.set_extra_delay_us(p, us);
    }
    if let Some((p, us)) = options.slow_partition {
        cluster.partition(p).set_slowdown_us(us);
    }

    // Base checkpoints before any worker runs: the store is quiescent, and a
    // crash at any later point can always rebuild the loaded data.
    cluster.checkpoint_all();

    let handles = spawn_workers(cluster, &protocol, &workload, &metrics, &stop, &recording);

    // Optional explicit checkpoints while the measurement runs (the logs
    // fold themselves from the commit path regardless).
    let checkpointer = options.checkpoint_interval.map(|interval| {
        let cluster = Arc::clone(cluster);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("checkpointer".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    cluster.checkpoint_all();
                }
            })
            .expect("spawn checkpointer")
    });

    std::thread::sleep(options.warmup);
    recording.store(true, Ordering::SeqCst);
    let started = Instant::now();

    // The live timeline samples TPS / abort-rate / p99 in ~100 ms windows
    // for the whole measurement (crash dips and recovery ramps survive in
    // the series instead of being averaged away by the run-long totals).
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let metrics = Arc::clone(&metrics);
        let stop = Arc::clone(&sampler_stop);
        std::thread::Builder::new()
            .name("timeline".into())
            .spawn(move || sample_timeline(&metrics, &stop))
            .expect("spawn timeline sampler")
    };

    // Crash injection runs on this driver thread so the timeline is exact.
    // Both the crash point and the outage are clamped to the measurement
    // window so the recovery always happens inside this function.
    let mut post_recovery: Option<(u64, Instant)> = None;
    match options.crash {
        Some(crash) if crash.kind == CrashKind::PartitionLoss => {
            let remaining = options.duration;
            let to_crash = crash.at.min(remaining);
            std::thread::sleep(to_crash);
            cluster.crash_partition(crash.partition);
            let outage = crash.recover_after.min(remaining.saturating_sub(to_crash));
            std::thread::sleep(outage);
            // Real recovery: wipe + checkpoint restore + durable-log replay.
            // The partition stays unreachable while it runs.
            if let Some(report) = cluster.recover_partition(crash.partition) {
                metrics.record_recovery(report.duration_us, report.replayed_txns as u64);
            }
            post_recovery = Some((metrics.committed(), Instant::now()));
            let rest = remaining.saturating_sub(to_crash + outage);
            std::thread::sleep(rest);
        }
        Some(crash) => {
            // Coordinator crash: arm the one-shot trap and let the workers
            // run on. The partition never goes down, so there is nothing to
            // recover — the atomic-commit layer decides the stranded
            // transaction's fate.
            let remaining = options.duration;
            let to_crash = crash.at.min(remaining);
            std::thread::sleep(to_crash);
            cluster.arm_coordinator_crash(crash.partition);
            std::thread::sleep(remaining.saturating_sub(to_crash));
        }
        None => std::thread::sleep(options.duration),
    }

    let elapsed = started.elapsed();
    let post_recovery = post_recovery.map(|(committed_at_recovery, at)| {
        let tail = at.elapsed().as_secs_f64();
        let committed_after = metrics.committed().saturating_sub(committed_at_recovery);
        if tail > 0.0 {
            committed_after as f64 / tail
        } else {
            0.0
        }
    });
    recording.store(false, Ordering::SeqCst);
    sampler_stop.store(true, Ordering::SeqCst);
    let timeline = sampler.join().unwrap_or_default();
    stop.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }
    if let Some(h) = checkpointer {
        let _ = h.join();
    }
    // Teardown safety net: whatever is still crashed (a plan that out-lived
    // the window, a crash injected by a facade caller) is recovered now so
    // no experiment ever hands back a cluster with a dead partition.
    for p in cluster.crashed_partitions() {
        if let Some(report) = cluster.recover_partition(p) {
            metrics.record_recovery(report.duration_us, report.replayed_txns as u64);
        }
    }
    // Every cluster-level counter travels through ClusterStats (no Default):
    // adding a field there forces this literal — and therefore the figures —
    // to account for it at compile time instead of silently reporting 0.
    let mut snap = metrics.snapshot(
        elapsed.as_secs_f64(),
        ClusterStats {
            pruned_versions: cluster.pruned_versions(),
            post_recovery_tps: post_recovery.unwrap_or(0.0),
            compensated_txns: cluster.compensated_txns(),
            leader_changes: cluster.leader_changes(),
            replication_lag_us: cluster.replication_lag_us(),
            wal_append_wait_us: cluster.wal_append_wait_us(),
            replication_batch_len: cluster.replication_batch_len(),
            in_doubt_resolved: cluster.in_doubt_resolved(),
            orphaned_txns: cluster.orphaned_txns(),
            commit_decisions: cluster.commit_decisions(),
            commit_decide_mean_us: cluster.commit_decide_mean_us(),
            commit_decide_p99_us: cluster.commit_decide_p99_us(),
            remote_round_trips_per_dist_txn: {
                let dist = metrics.dist_committed();
                if dist > 0 {
                    cluster.net.round_trips_charged() as f64 / dist as f64
                } else {
                    0.0
                }
            },
            prefetch_hit_rate: cluster.prefetch_hit_rate(),
            timeline,
        },
    );
    snap.messages = cluster.net.messages_sent();
    snap
}

/// Build a fresh cluster for `config`, load `workload` into it, run the
/// experiment and shut the cluster down.
pub fn run_experiment(
    config: ClusterConfig,
    protocol: Arc<dyn Protocol>,
    workload: Arc<dyn Workload>,
    options: &ExperimentOptions,
) -> MetricsSnapshot {
    let cluster = Cluster::new(config);
    for p in cluster.partition_ids() {
        workload.load_partition(&cluster.partition(p).store, p);
    }
    let snap = run_on_cluster(&cluster, protocol, workload, options);
    cluster.shutdown();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Step;
    use crate::protocol::CommittedTxn;
    use crate::txn::{TxnContext, TxnProgram};
    use primo_common::{FastRng, Key, PhaseTimers, TableId, TxnResult, Value};
    use primo_storage::PartitionStore;
    use primo_wal::TxnTicket;

    /// A protocol that simply installs a counter increment on the home
    /// partition — enough to exercise the whole driver pipeline.
    struct CounterProtocol;

    struct CounterCtx<'a> {
        cluster: &'a Cluster,
    }

    impl TxnContext for CounterCtx<'_> {
        fn read(&mut self, p: PartitionId, t: TableId, k: Key) -> TxnResult<Value> {
            Ok(self
                .cluster
                .partition(p)
                .store
                .get(t, k)
                .map(|r| r.read().value)
                .unwrap_or_else(|| Value::from_u64(0)))
        }
        fn write(&mut self, p: PartitionId, t: TableId, k: Key, v: Value) -> TxnResult<()> {
            self.cluster.partition(p).store.insert(t, k, v);
            Ok(())
        }

        fn insert(&mut self, p: PartitionId, t: TableId, k: Key, v: Value) -> TxnResult<()> {
            self.write(p, t, k, v)
        }

        fn delete(&mut self, p: PartitionId, t: TableId, k: Key) -> TxnResult<()> {
            self.cluster.partition(p).store.table(t).remove(k);
            Ok(())
        }
    }

    impl Protocol for CounterProtocol {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn start<'a>(
            &self,
            cluster: &'a Cluster,
            program: &dyn TxnProgram,
            ticket: Arc<TxnTicket>,
            _timers: &mut PhaseTimers,
            fanout: crate::prefetch::ReadFanout,
        ) -> Step<'a> {
            let commit = CommittedTxn {
                ts: 0,
                ops: 1,
                distributed: false,
            };
            let outcome = program.execute(&mut CounterCtx { cluster });
            Step::Done((outcome.map(|()| commit), ticket, fanout))
        }
    }

    struct CounterWorkload;
    struct CounterTxn {
        home: PartitionId,
        key: Key,
    }

    impl TxnProgram for CounterTxn {
        fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
            let v = ctx.read(self.home, TableId(0), self.key)?;
            ctx.write(
                self.home,
                TableId(0),
                self.key,
                Value::from_u64(v.as_u64() + 1),
            )
        }
        fn home_partition(&self) -> PartitionId {
            self.home
        }
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn load_partition(&self, store: &PartitionStore, _p: PartitionId) {
            for k in 0..16u64 {
                store.insert(TableId(0), k, Value::from_u64(0));
            }
        }
        fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
            Box::new(CounterTxn {
                home,
                key: rng.next_below(16),
            })
        }
    }

    #[test]
    fn experiment_driver_produces_throughput() {
        let snap = run_experiment(
            ClusterConfig::for_tests(2),
            Arc::new(CounterProtocol),
            Arc::new(CounterWorkload),
            &ExperimentOptions::quick(),
        );
        assert!(snap.committed > 0, "no transactions committed");
        assert!(snap.throughput_tps > 0.0);
        assert!(snap.mean_latency_ms >= 0.0);
    }

    #[test]
    fn crash_plan_is_survivable() {
        let opts = ExperimentOptions {
            warmup: Duration::from_millis(20),
            duration: Duration::from_millis(300),
            crash: Some(CrashPlan::partition_loss(
                PartitionId(1),
                Duration::from_millis(100),
                Duration::from_millis(50),
            )),
            ..Default::default()
        };
        let snap = run_experiment(
            ClusterConfig::for_tests(2),
            Arc::new(CounterProtocol),
            Arc::new(CounterWorkload),
            &opts,
        );
        assert!(snap.committed > 0);
        assert!(snap.recovery_time_us > 0, "real recovery ran");
        assert!(snap.post_recovery_tps > 0.0, "throughput resumed after it");
    }

    #[test]
    fn overlong_recover_after_cannot_leave_the_partition_crashed() {
        // recover_after extends far past the measurement window: the driver
        // clamps it, recovery still runs, and the cluster comes back with no
        // crashed partition.
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let workload = CounterWorkload;
        for p in cluster.partition_ids() {
            crate::txn::Workload::load_partition(&workload, &cluster.partition(p).store, p);
        }
        let opts = ExperimentOptions {
            warmup: Duration::from_millis(10),
            duration: Duration::from_millis(120),
            crash: Some(CrashPlan::partition_loss(
                PartitionId(1),
                Duration::from_millis(40),
                Duration::from_secs(3600),
            )),
            ..Default::default()
        };
        let snap = run_on_cluster(
            &cluster,
            Arc::new(CounterProtocol),
            Arc::new(CounterWorkload),
            &opts,
        );
        assert!(snap.recovery_time_us > 0);
        assert!(
            cluster.crashed_partitions().is_empty(),
            "no partition may stay crashed at experiment end"
        );
        cluster.shutdown();
    }

    #[test]
    fn periodic_checkpoints_run_during_the_experiment() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let workload = CounterWorkload;
        for p in cluster.partition_ids() {
            crate::txn::Workload::load_partition(&workload, &cluster.partition(p).store, p);
        }
        let opts = ExperimentOptions {
            warmup: Duration::from_millis(10),
            duration: Duration::from_millis(150),
            checkpoint_interval: Some(Duration::from_millis(30)),
            ..Default::default()
        };
        let snap = run_on_cluster(
            &cluster,
            Arc::new(CounterProtocol),
            Arc::new(CounterWorkload),
            &opts,
        );
        assert!(snap.committed > 0);
        // Base checkpoint + at least one periodic fold.
        let (_, image) = cluster
            .partition(PartitionId(0))
            .log
            .latest_checkpoint()
            .expect("checkpoints were written");
        assert!(image.len() >= 16, "base image covers the loaded keys");
        cluster.shutdown();
    }
}
