//! Experiment metrics: throughput counters, latency histograms and abort
//! accounting.

use crate::error::AbortReason;
use crate::phase::Phase;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A log-scale latency histogram (microsecond resolution, ~4% relative error)
/// supporting percentile queries. Cheap enough to update on every commit.
#[derive(Debug)]
pub struct Histogram {
    /// buckets[i] counts samples whose value rounds into bucket i.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

const BUCKETS_PER_OCTAVE: usize = 16;
const NUM_OCTAVES: usize = 40; // covers up to ~2^40 us

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        let n = BUCKETS_PER_OCTAVE * NUM_OCTAVES;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(AtomicU64::new(0));
        }
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_index(us: u64) -> usize {
        if us < 2 {
            return us as usize;
        }
        let octave = 63 - us.leading_zeros() as usize; // floor(log2(us))
        let base = 1u64 << octave;
        let frac = ((us - base) * BUCKETS_PER_OCTAVE as u64 / base) as usize;
        (octave * BUCKETS_PER_OCTAVE + frac).min(BUCKETS_PER_OCTAVE * NUM_OCTAVES - 1)
    }

    fn bucket_value(idx: usize) -> u64 {
        if idx < 2 {
            return idx as u64;
        }
        let octave = idx / BUCKETS_PER_OCTAVE;
        let frac = idx % BUCKETS_PER_OCTAVE;
        let base = 1u64 << octave;
        base + base * frac as u64 / BUCKETS_PER_OCTAVE as u64
    }

    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean_us(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / c as f64
        }
    }

    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Latency at the given percentile (0.0–1.0).
    pub fn percentile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Clamp to >= 1 sample: ceil(total * 0.0) is 0, and "0 samples seen"
        // is satisfied by the empty bucket 0, which made percentile_us(0.0)
        // report 0 regardless of the data instead of the minimum sample.
        let target = (((total as f64) * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Self::bucket_value(i);
            }
        }
        self.max_us()
    }

    /// A point-in-time copy of the bucket counters, for windowed percentile
    /// queries over a *delta* of a live histogram (the metrics timeline
    /// samples this every window and diffs consecutive snapshots).
    pub fn counts(&self) -> HistogramCounts {
        HistogramCounts {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_us
            .fetch_add(other.sum_us.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_us
            .fetch_max(other.max_us.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Frozen bucket counters of a [`Histogram`] at one instant.
#[derive(Debug, Clone)]
pub struct HistogramCounts {
    buckets: Vec<u64>,
}

impl HistogramCounts {
    /// Number of samples recorded between `earlier` and this snapshot.
    pub fn count_since(&self, earlier: &HistogramCounts) -> u64 {
        self.buckets
            .iter()
            .zip(earlier.buckets.iter())
            .map(|(now, then)| now - then)
            .sum()
    }

    /// Percentile over only the samples recorded between `earlier` and this
    /// snapshot (both taken from the same live histogram). 0 when the delta
    /// is empty.
    pub fn percentile_us_since(&self, earlier: &HistogramCounts, q: f64) -> u64 {
        let total = self.count_since(earlier);
        if total == 0 {
            return 0;
        }
        let target = (((total as f64) * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, (now, then)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            seen += now - then;
            if seen >= target {
                return Histogram::bucket_value(i);
            }
        }
        0
    }
}

/// One ~100 ms window of the live metrics timeline the experiment driver
/// samples while the workload runs (TPS dips around crashes, recovery and —
/// eventually — elastic cutovers show up here instead of being averaged
/// away).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineWindow {
    /// Window start, microseconds since the run started.
    pub start_us: u64,
    /// Window length, microseconds.
    pub len_us: u64,
    /// Commits inside the window.
    pub committed: u64,
    /// Aborted attempts inside the window.
    pub aborted: u64,
    /// Commit throughput over the window, transactions/second.
    pub tps: f64,
    /// Aborted attempts / total attempts inside the window.
    pub abort_rate: f64,
    /// p99 commit latency over only the window's commits, milliseconds.
    pub p99_latency_ms: f64,
}

/// Cluster-level counters the experiment driver collects *after* the run
/// and hands to [`Metrics::snapshot`]. Deliberately no `Default` and
/// constructed by struct literal: adding a field here breaks the driver at
/// compile time instead of silently reporting 0 in every figure.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Superseded record versions reclaimed at the snapshot horizon.
    pub pruned_versions: u64,
    /// Throughput between recovery completion and the measurement end.
    pub post_recovery_tps: f64,
    /// Crash-rolled-back transactions compensated on surviving partitions.
    pub compensated_txns: u64,
    /// Deterministic log-leader hand-offs across all partitions.
    pub leader_changes: u64,
    /// Worst partition's append→quorum-ack delay, microseconds.
    pub replication_lag_us: u64,
    /// Total microseconds committers spent blocked on log sequencers.
    pub wal_append_wait_us: u64,
    /// Mean log entries per follower catch-up.
    pub replication_batch_len: f64,
    /// In-doubt atomic commits terminated from the durable vote set (live
    /// Paxos Commit resolution plus recovery-time sealing).
    pub in_doubt_resolved: u64,
    /// Transactions orphaned by a coordinator crash under classic 2PC
    /// (blocked forever; always 0 under Paxos Commit).
    pub orphaned_txns: u64,
    /// Distributed commit decisions whose prepare→decide latency was
    /// recorded by the atomic-commit layer.
    pub commit_decisions: u64,
    /// Mean prepare→decide latency of distributed commits, microseconds.
    pub commit_decide_mean_us: f64,
    /// p99 prepare→decide latency of distributed commits, microseconds.
    pub commit_decide_p99_us: u64,
    /// Network round trips charged per committed distributed transaction
    /// (the metric the batched remote-read fan-out improves).
    pub remote_round_trips_per_dist_txn: f64,
    /// Fraction of consulted remote reads served from the batched prefetch
    /// buffer (hits / (hits + stale + misses); 0 with batching off).
    pub prefetch_hit_rate: f64,
    /// Windowed TPS / abort-rate / p99 series sampled during the run.
    pub timeline: Vec<TimelineWindow>,
}

impl ClusterStats {
    /// All-zero stats for call sites without a cluster (unit tests,
    /// single-component micro-benchmarks). The experiment driver must build
    /// the struct literally instead, so new fields can't be forgotten there.
    pub fn empty() -> Self {
        ClusterStats {
            pruned_versions: 0,
            post_recovery_tps: 0.0,
            compensated_txns: 0,
            leader_changes: 0,
            replication_lag_us: 0,
            wal_append_wait_us: 0,
            replication_batch_len: 0.0,
            in_doubt_resolved: 0,
            orphaned_txns: 0,
            commit_decisions: 0,
            commit_decide_mean_us: 0.0,
            commit_decide_p99_us: 0,
            remote_round_trips_per_dist_txn: 0.0,
            prefetch_hit_rate: 0.0,
            timeline: Vec::new(),
        }
    }
}

/// Shared, thread-safe metric sink for one experiment run.
#[derive(Debug, Default)]
pub struct Metrics {
    committed: AtomicU64,
    aborted_attempts: AtomicU64,
    /// Transactions abandoned permanently (user aborts).
    abandoned: AtomicU64,
    latency: Histogram,
    /// Aborts by reason.
    abort_reasons: Mutex<HashMap<AbortReason, u64>>,
    /// Total time spent rebuilding crashed partitions (wipe + checkpoint
    /// restore + log replay), microseconds.
    recovery_time_us: AtomicU64,
    /// Committed transactions replayed from durable logs during recovery.
    replayed_txns: AtomicU64,
    /// Read-only transactions served lock-free from the MVCC snapshot (no
    /// locks, no validation, no group-commit wait). Also counted into
    /// `committed`.
    snapshot_reads: AtomicU64,
    /// Committed transactions that touched more than one partition (a subset
    /// of `committed`).
    dist_committed: AtomicU64,
    /// Latency histogram over only the distributed commits — dominated by
    /// remote round trips, so this is where the batched fan-out shows up.
    dist_latency: Histogram,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_commit(&self, latency_us: u64, distributed: bool) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        self.latency.record_us(latency_us);
        if distributed {
            self.dist_committed.fetch_add(1, Ordering::Relaxed);
            self.dist_latency.record_us(latency_us);
        }
    }

    pub fn record_abort(&self, reason: AbortReason) {
        self.aborted_attempts.fetch_add(1, Ordering::Relaxed);
        *self.abort_reasons.lock().entry(reason).or_insert(0) += 1;
    }

    pub fn record_abandoned(&self) {
        self.abandoned.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one read-only transaction served from the MVCC snapshot.
    /// Callers record the commit separately (`record_commit`); this counter
    /// tracks how many of the commits took the lock-free path.
    pub fn record_snapshot_read(&self) {
        self.snapshot_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot_reads(&self) -> u64 {
        self.snapshot_reads.load(Ordering::Relaxed)
    }

    /// Account one partition recovery (Fig 12b companion numbers: how long
    /// the rebuild took and how much durable log it replayed).
    pub fn record_recovery(&self, duration_us: u64, replayed_txns: u64) {
        self.recovery_time_us
            .fetch_add(duration_us, Ordering::Relaxed);
        self.replayed_txns
            .fetch_add(replayed_txns, Ordering::Relaxed);
    }

    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Committed transactions that touched more than one partition.
    pub fn dist_committed(&self) -> u64 {
        self.dist_committed.load(Ordering::Relaxed)
    }

    pub fn aborted_attempts(&self) -> u64 {
        self.aborted_attempts.load(Ordering::Relaxed)
    }

    /// A live handle on the commit-latency histogram, for windowed
    /// percentile sampling by the experiment driver's timeline thread.
    pub fn latency_counts(&self) -> HistogramCounts {
        self.latency.counts()
    }

    /// Produce an immutable snapshot with derived quantities. `cluster`
    /// carries the counters only the experiment driver can collect
    /// (post-run cluster state and the sampled timeline).
    pub fn snapshot(&self, elapsed_secs: f64, cluster: ClusterStats) -> MetricsSnapshot {
        let committed = self.committed();
        let aborted = self.aborted_attempts();
        let attempts = committed + aborted;
        let abort_reasons = self.abort_reasons.lock().clone();
        let crash_aborts: u64 = abort_reasons
            .iter()
            .filter(|(r, _)| r.is_crash())
            .map(|(_, c)| *c)
            .sum();
        MetricsSnapshot {
            elapsed_secs,
            committed,
            aborted_attempts: aborted,
            abandoned: self.abandoned.load(Ordering::Relaxed),
            throughput_tps: if elapsed_secs > 0.0 {
                committed as f64 / elapsed_secs
            } else {
                0.0
            },
            abort_rate: if attempts > 0 {
                aborted as f64 / attempts as f64
            } else {
                0.0
            },
            crash_abort_rate: if attempts > 0 {
                crash_aborts as f64 / attempts as f64
            } else {
                0.0
            },
            mean_latency_ms: self.latency.mean_us() / 1000.0,
            p50_latency_ms: self.latency.percentile_us(0.50) as f64 / 1000.0,
            p99_latency_ms: self.latency.percentile_us(0.99) as f64 / 1000.0,
            max_latency_ms: self.latency.max_us() as f64 / 1000.0,
            dist_committed: self.dist_committed(),
            dist_txn_mean_ms: self.dist_latency.mean_us() / 1000.0,
            dist_txn_p99_ms: self.dist_latency.percentile_us(0.99) as f64 / 1000.0,
            phase_ms: HashMap::new(),
            phase_covered: 0,
            phase_skipped: 0,
            abort_reasons,
            messages: 0,
            recovery_time_us: self.recovery_time_us.load(Ordering::Relaxed),
            replayed_txns: self.replayed_txns.load(Ordering::Relaxed),
            snapshot_reads: self.snapshot_reads(),
            snapshot_read_tps: if elapsed_secs > 0.0 {
                self.snapshot_reads() as f64 / elapsed_secs
            } else {
                0.0
            },
            pruned_versions: cluster.pruned_versions,
            post_recovery_tps: cluster.post_recovery_tps,
            compensated_txns: cluster.compensated_txns,
            leader_changes: cluster.leader_changes,
            replication_lag_us: cluster.replication_lag_us,
            wal_append_wait_us: cluster.wal_append_wait_us,
            replication_batch_len: cluster.replication_batch_len,
            in_doubt_resolved: cluster.in_doubt_resolved,
            orphaned_txns: cluster.orphaned_txns,
            commit_decisions: cluster.commit_decisions,
            commit_decide_mean_us: cluster.commit_decide_mean_us,
            commit_decide_p99_us: cluster.commit_decide_p99_us,
            remote_round_trips_per_dist_txn: cluster.remote_round_trips_per_dist_txn,
            prefetch_hit_rate: cluster.prefetch_hit_rate,
            timeline: cluster.timeline,
        }
    }
}

/// Immutable result of one experiment run.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub elapsed_secs: f64,
    pub committed: u64,
    pub aborted_attempts: u64,
    pub abandoned: u64,
    pub throughput_tps: f64,
    /// Aborted attempts / total attempts.
    pub abort_rate: f64,
    /// Crash-induced aborted attempts / total attempts (Fig 12b).
    pub crash_abort_rate: f64,
    pub mean_latency_ms: f64,
    pub p50_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub max_latency_ms: f64,
    /// Committed transactions that touched more than one partition (a subset
    /// of `committed`).
    pub dist_committed: u64,
    /// Mean commit latency over only the distributed commits, milliseconds.
    pub dist_txn_mean_ms: f64,
    /// p99 commit latency over only the distributed commits, milliseconds —
    /// the latency figure the batched remote-read fan-out improves.
    pub dist_txn_p99_ms: f64,
    /// Average milliseconds a committed transaction spent in each phase of
    /// the latency breakdown, over the `phase_covered` transactions (filled
    /// in by the experiment driver from the flight recorder).
    pub phase_ms: HashMap<Phase, f64>,
    /// Committed transactions the latency breakdown covers.
    pub phase_covered: u64,
    /// Committed transactions it skipped: the recorder had lost their first
    /// `Begin`.
    pub phase_skipped: u64,
    pub abort_reasons: HashMap<AbortReason, u64>,
    /// Network messages sent (filled in by the experiment driver).
    pub messages: u64,
    /// Time spent rebuilding crashed partitions from checkpoint + durable-log
    /// replay, microseconds (0 when no crash was injected).
    pub recovery_time_us: u64,
    /// Committed transactions replayed from durable logs during recovery.
    pub replayed_txns: u64,
    /// Read-only transactions served lock-free from the MVCC snapshot (a
    /// subset of `committed`).
    pub snapshot_reads: u64,
    /// Snapshot-served read-only transactions per second.
    pub snapshot_read_tps: f64,
    /// Superseded record versions reclaimed at the snapshot horizon (filled
    /// in by the experiment driver from the cluster).
    pub pruned_versions: u64,
    /// Throughput over the window between recovery completion and the end of
    /// the measurement — the post-recovery dip Fig 12b-style harnesses
    /// report (0 when no crash was injected or nothing ran afterwards).
    pub post_recovery_tps: f64,
    /// Crash-rolled-back transactions whose installed writes on *surviving*
    /// partitions were undone via before-image compensation (0 when no crash
    /// was injected; filled in by the experiment driver from the cluster).
    pub compensated_txns: u64,
    /// Deterministic log-leader hand-offs across all partitions (every crash
    /// moves leadership of the partition's replicated log to the successor
    /// replica; filled in by the experiment driver from the cluster).
    pub leader_changes: u64,
    /// Replication lag of the replicated log: the time between appending a
    /// record and its quorum acknowledgement (the worst partition's
    /// quorum-ack delay, microseconds). Equals the local persist delay when
    /// `replication_factor` is 1; filled in by the experiment driver.
    pub replication_lag_us: u64,
    /// Total microseconds committers spent blocked on a partition's log
    /// sequencer across all partitions —
    /// contention on the commit critical section itself, zero when every
    /// append found the sequencer free. Filled in by the experiment driver.
    pub wal_append_wait_us: u64,
    /// Mean number of log entries one follower catch-up carried: followers
    /// take the leader's tail whenever something is about to consult them,
    /// in the steady state once per fold step. 0 for single-copy logs (no
    /// follower to feed), 1.0 when every entry was carried alone. Filled in
    /// by the experiment driver.
    pub replication_batch_len: f64,
    /// In-doubt atomic commits terminated from the durable vote set: the
    /// coordinator died between the vote round and the decision, and the
    /// transaction was resolved (live Paxos Commit resolution or
    /// recovery-time presumed-abort sealing) instead of blocking. Filled in
    /// by the experiment driver from the cluster.
    pub in_doubt_resolved: u64,
    /// Transactions orphaned by a coordinator crash under classic 2PC —
    /// nobody can decide, their locks leak, participants block. Always 0
    /// under Paxos Commit. Filled in by the experiment driver.
    pub orphaned_txns: u64,
    /// Distributed commit decisions whose prepare→decide latency the
    /// atomic-commit layer recorded (one per distributed commit).
    pub commit_decisions: u64,
    /// Mean prepare→decide latency of distributed commits, microseconds —
    /// the cost of the decision phase itself (a full round trip under
    /// classic 2PC, durable log appends + a one-way notification under
    /// Paxos Commit).
    pub commit_decide_mean_us: f64,
    /// p99 prepare→decide latency of distributed commits, microseconds.
    pub commit_decide_p99_us: u64,
    /// Network round trips charged per committed distributed transaction
    /// (filled in by the experiment driver from the cluster's network
    /// counters; the headline number for the batched remote-read fan-out).
    pub remote_round_trips_per_dist_txn: f64,
    /// Fraction of consulted remote reads served from the batched prefetch
    /// buffer (0 with batching off; filled in by the experiment driver).
    pub prefetch_hit_rate: f64,
    /// Windowed (~100 ms) TPS / abort-rate / p99 series sampled while the
    /// run was live. Empty when the driver did not sample (short unit-test
    /// runs).
    pub timeline: Vec<TimelineWindow>,
}

impl MetricsSnapshot {
    /// Throughput in kilo-transactions per second (the unit used in figures).
    pub fn ktps(&self) -> f64 {
        self.throughput_tps / 1000.0
    }

    pub fn phase(&self, p: Phase) -> f64 {
        self.phase_ms.get(&p).copied().unwrap_or(0.0)
    }

    /// Aborted attempts for one reason.
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.abort_reasons.get(&reason).copied().unwrap_or(0)
    }

    /// Per-reason abort breakdown, largest first (ties broken by the debug
    /// name so output is deterministic). Lifecycle regressions — e.g. a
    /// phantom insert flipping later puts into `NotFound` aborts — show up
    /// here instead of being folded into the single abort total.
    pub fn abort_breakdown(&self) -> Vec<(AbortReason, u64)> {
        let mut v: Vec<(AbortReason, u64)> = self
            .abort_reasons
            .iter()
            .filter(|(_, count)| **count > 0)
            .map(|(r, count)| (*r, *count))
            .collect();
        v.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| format!("{}", a.0).cmp(&format!("{}", b.0)))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_ordered() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record_us(i);
        }
        let p50 = h.percentile_us(0.5);
        let p99 = h.percentile_us(0.99);
        assert!(p50 <= p99);
        assert!((400..700).contains(&p50), "p50={p50}");
        assert!(p99 >= 900, "p99={p99}");
        assert_eq!(h.count(), 1000);
        assert!(h.mean_us() > 400.0 && h.mean_us() < 600.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_us(10);
        b.record_us(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_us(), 1000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn percentile_zero_returns_the_minimum_sample() {
        // Regression: ceil(total * 0.0) == 0 used to satisfy `seen >= target`
        // at the first (empty) bucket, so percentile_us(0.0) was always 0.
        let h = Histogram::new();
        for us in [500u64, 900, 1_400] {
            h.record_us(us);
        }
        let p0 = h.percentile_us(0.0);
        assert!(
            (450..=560).contains(&p0),
            "p0 must be ~the smallest sample (500us), got {p0}"
        );
        assert!(h.percentile_us(0.0) <= h.percentile_us(0.5));
    }

    #[test]
    fn percentiles_monotone_under_concurrent_recording() {
        // Property check for the satellite requirement: with many threads
        // hammering record_us, any percentile query ordering stays monotone
        // and the final counts are exact (no lost updates). The mid-run
        // check queries ONE snapshot of the counters: six `percentile_us`
        // calls read the live buckets at six different instants, between
        // which other threads add samples below the earlier answers — not
        // monotone by construction.
        let h = std::sync::Arc::new(Histogram::new());
        let empty = std::sync::Arc::new(h.counts());
        let threads = 8;
        let per_thread = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                let empty = std::sync::Arc::clone(&empty);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record_us(1 + (i * 7 + t * 13) % 10_000);
                        if i % 512 == 0 {
                            let now = h.counts();
                            let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
                                .iter()
                                .map(|q| now.percentile_us_since(&empty, *q))
                                .collect();
                            assert!(
                                qs.windows(2).all(|w| w[0] <= w[1]),
                                "percentiles not monotone mid-run: {qs:?}"
                            );
                        }
                    }
                })
            })
            .collect();
        for hd in handles {
            hd.join().unwrap();
        }
        assert_eq!(h.count(), threads * per_thread);
        let qs: Vec<u64> = [0.0, 0.5, 0.99, 1.0]
            .iter()
            .map(|q| h.percentile_us(*q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(qs[0] >= 1, "p0 sees a real sample, not the empty bucket 0");
    }

    #[test]
    fn windowed_delta_percentiles_ignore_earlier_samples() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record_us(10);
        }
        let mark = h.counts();
        for _ in 0..50 {
            h.record_us(1_000);
        }
        let now = h.counts();
        assert_eq!(now.count_since(&mark), 50);
        let p50 = now.percentile_us_since(&mark, 0.5);
        assert!(
            (900..=1100).contains(&p50),
            "window p50 must reflect only the 1000us samples, got {p50}"
        );
        assert_eq!(now.percentile_us_since(&now, 0.99), 0, "empty delta");
    }

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for us in [1u64, 5, 17, 100, 999, 12345, 1_000_000] {
            let v = Histogram::bucket_value(Histogram::bucket_index(us));
            let err = (v as f64 - us as f64).abs() / us as f64;
            assert!(err < 0.07, "us={us} decoded {v} err {err}");
        }
    }

    #[test]
    fn abort_breakdown_is_sorted_and_complete() {
        let m = Metrics::new();
        for _ in 0..3 {
            m.record_abort(AbortReason::WaitDie);
        }
        m.record_abort(AbortReason::NotFound);
        for _ in 0..2 {
            m.record_abort(AbortReason::Validation);
        }
        let s = m.snapshot(1.0, ClusterStats::empty());
        assert_eq!(
            s.abort_breakdown(),
            vec![
                (AbortReason::WaitDie, 3),
                (AbortReason::Validation, 2),
                (AbortReason::NotFound, 1),
            ]
        );
        assert_eq!(s.aborts_for(AbortReason::WaitDie), 3);
        assert_eq!(s.aborts_for(AbortReason::CrashAbort), 0);
    }

    #[test]
    fn metrics_snapshot_derives_rates() {
        let m = Metrics::new();
        m.record_commit(500, false);
        m.record_commit(1500, true);
        m.record_abort(AbortReason::LockConflict);
        m.record_abort(AbortReason::CrashAbort);
        m.record_recovery(1_500, 42);
        m.record_snapshot_read();
        let s = m.snapshot(
            2.0,
            ClusterStats {
                pruned_versions: 3,
                post_recovery_tps: 1.5,
                compensated_txns: 4,
                leader_changes: 1,
                replication_lag_us: 250,
                wal_append_wait_us: 75,
                replication_batch_len: 2.5,
                in_doubt_resolved: 2,
                orphaned_txns: 1,
                commit_decisions: 7,
                commit_decide_mean_us: 340.0,
                commit_decide_p99_us: 900,
                remote_round_trips_per_dist_txn: 2.5,
                prefetch_hit_rate: 0.75,
                timeline: vec![TimelineWindow {
                    start_us: 0,
                    len_us: 100_000,
                    committed: 2,
                    aborted: 2,
                    tps: 20.0,
                    abort_rate: 0.5,
                    p99_latency_ms: 1.5,
                }],
            },
        );
        assert_eq!(s.snapshot_reads, 1);
        assert!((s.snapshot_read_tps - 0.5).abs() < 1e-9);
        assert_eq!(s.recovery_time_us, 1_500);
        assert_eq!(s.replayed_txns, 42);
        // The driver-supplied cluster stats come through verbatim.
        assert_eq!(s.pruned_versions, 3);
        assert_eq!(s.post_recovery_tps, 1.5);
        assert_eq!(s.compensated_txns, 4);
        assert_eq!(s.leader_changes, 1);
        assert_eq!(s.replication_lag_us, 250);
        assert_eq!(s.wal_append_wait_us, 75);
        assert_eq!(s.replication_batch_len, 2.5);
        assert_eq!(s.in_doubt_resolved, 2);
        assert_eq!(s.orphaned_txns, 1);
        assert_eq!(s.commit_decisions, 7);
        assert_eq!(s.commit_decide_mean_us, 340.0);
        assert_eq!(s.commit_decide_p99_us, 900);
        assert_eq!(s.remote_round_trips_per_dist_txn, 2.5);
        assert_eq!(s.prefetch_hit_rate, 0.75);
        // Only the 1500us commit was distributed.
        assert_eq!(s.dist_committed, 1);
        assert!(s.dist_txn_p99_ms > 1.0 && s.dist_txn_p99_ms < 2.0);
        assert!(s.dist_txn_mean_ms > 1.0 && s.dist_txn_mean_ms < 2.0);
        assert_eq!(s.timeline.len(), 1);
        assert_eq!(s.timeline[0].committed, 2);
        assert_eq!(s.committed, 2);
        assert_eq!(s.aborted_attempts, 2);
        assert!((s.throughput_tps - 1.0).abs() < 1e-9);
        assert!((s.abort_rate - 0.5).abs() < 1e-9);
        assert!((s.crash_abort_rate - 0.25).abs() < 1e-9);
        assert_eq!(
            s.phase(Phase::Execute),
            0.0,
            "run_on_cluster fills the breakdown in"
        );
        assert_eq!(s.ktps() * 1000.0, s.throughput_tps);
    }
}
