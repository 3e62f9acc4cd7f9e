//! The [`ExperimentBuilder`]: declare a measurement run fluently —
//! `.protocol(..).workload(..).scale(..).crash(..)` — and get a
//! [`MetricsSnapshot`] back.
//!
//! This absorbs what used to be free functions in the bench crate plus the
//! raw `ExperimentOptions` struct: the builder assembles the cluster
//! configuration (pairing each protocol with its §6.1.3 group-commit scheme
//! via the [`ProtocolRegistry`]), loads the workload, runs worker threads for
//! warm-up + measurement, optionally injects a partition crash / control-lag
//! / slowdown, and aggregates the metrics.
//!
//! ```
//! use primo_repro::{Experiment, ProtocolKind, Scale};
//!
//! let snap = Experiment::new()
//!     .protocol(ProtocolKind::Primo)
//!     .scale(Scale::test())
//!     .fast_local()
//!     .ycsb_with(|y| y.zipf_theta = 0.8)
//!     .run();
//! assert!(snap.committed > 0);
//! ```

use crate::registry::ProtocolRegistry;
use primo_common::config::{ClusterConfig, CommitMode, LoggingScheme, ProtocolKind};
use primo_common::{MetricsSnapshot, PartitionId};
use primo_runtime::experiment::{run_experiment, CrashPlan, ExperimentOptions};
use primo_runtime::protocol::Protocol;
use primo_runtime::txn::Workload;
use primo_workloads::{
    SmallbankConfig, SmallbankWorkload, TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload,
};
use std::sync::Arc;
use std::time::Duration;

/// Run-scale of an experiment: cluster size, data-set size and how long each
/// data point runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub partitions: usize,
    pub workers_per_partition: usize,
    pub ycsb_keys_per_partition: u64,
    pub duration_ms: u64,
    pub warmup_ms: u64,
}

impl Scale {
    /// Quick mode: every figure in a few minutes (used by CI and the recorded
    /// outputs in EXPERIMENTS.md).
    pub fn quick() -> Self {
        Scale {
            partitions: 4,
            workers_per_partition: 4,
            ycsb_keys_per_partition: 50_000,
            duration_ms: 400,
            warmup_ms: 100,
        }
    }

    /// Full mode: longer runs and larger tables for smoother numbers.
    pub fn full() -> Self {
        Scale {
            partitions: 4,
            workers_per_partition: 8,
            ycsb_keys_per_partition: 200_000,
            duration_ms: 2_000,
            warmup_ms: 300,
        }
    }

    /// Miniature mode for unit/integration tests: a 2-partition cluster, a
    /// tiny table and a ~150 ms measurement window.
    pub fn test() -> Self {
        Scale {
            partitions: 2,
            workers_per_partition: 2,
            ycsb_keys_per_partition: 2_000,
            duration_ms: 150,
            warmup_ms: 30,
        }
    }

    pub fn with_partitions(mut self, n: usize) -> Self {
        self.partitions = n;
        self
    }

    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers_per_partition = n;
        self
    }

    /// Default YCSB configuration at this scale (paper §6.1.2 parameters).
    pub fn ycsb_config(&self) -> YcsbConfig {
        YcsbConfig::paper_default(self.partitions, self.ycsb_keys_per_partition)
    }

    /// Default TPC-C configuration at this scale.
    pub fn tpcc_config(&self) -> TpccConfig {
        TpccConfig::paper_default(self.partitions)
    }
}

enum WorkloadSpec {
    Ycsb(YcsbConfig),
    /// Deferred: built from the *final* scale at `run()` time, then tweaked,
    /// so `.ycsb_with(..).partitions(n)` cannot desync workload and cluster.
    YcsbWith(Box<dyn FnOnce(&mut YcsbConfig)>),
    Tpcc(TpccConfig),
    /// Deferred like [`WorkloadSpec::YcsbWith`].
    TpccWith(Box<dyn FnOnce(&mut TpccConfig)>),
    Smallbank(SmallbankConfig),
    Custom(Arc<dyn Workload>),
}

/// A deferred edit to the assembled [`ClusterConfig`].
type ClusterTweak = Box<dyn FnOnce(&mut ClusterConfig)>;

/// Fluent builder for one experiment run. See the module docs for an example.
pub struct ExperimentBuilder {
    registry: ProtocolRegistry,
    kind: ProtocolKind,
    protocol_override: Option<Arc<dyn Protocol>>,
    scale: Scale,
    workload: Option<WorkloadSpec>,
    logging_override: Option<LoggingScheme>,
    commit_override: Option<CommitMode>,
    crash: Option<CrashPlan>,
    lag_partition: Option<(PartitionId, u64)>,
    slow_partition: Option<(PartitionId, u64)>,
    checkpoint_interval: Option<Duration>,
    fast_local: bool,
    cluster_tweaks: Vec<ClusterTweak>,
}

/// Short alias for [`ExperimentBuilder`], used in examples and docs.
pub type Experiment = ExperimentBuilder;

impl Default for ExperimentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ExperimentBuilder {
    pub fn new() -> Self {
        ExperimentBuilder {
            registry: ProtocolRegistry::standard(),
            kind: ProtocolKind::Primo,
            protocol_override: None,
            scale: Scale::quick(),
            workload: None,
            logging_override: None,
            commit_override: None,
            crash: None,
            lag_partition: None,
            slow_partition: None,
            checkpoint_interval: None,
            fast_local: false,
            cluster_tweaks: Vec::new(),
        }
    }

    /// Use unit-test timing: microsecond-scale network latency, a 1 ms
    /// watermark interval and short back-off, so miniature experiments finish
    /// in milliseconds. Combine with [`Scale::test`].
    pub fn fast_local(mut self) -> Self {
        self.fast_local = true;
        self
    }

    /// Select the protocol under test by kind (default Primo).
    pub fn protocol(mut self, kind: ProtocolKind) -> Self {
        self.kind = kind;
        self
    }

    /// Select the protocol by its figure-legend name (e.g. `"Sundial"`).
    ///
    /// # Panics
    /// Panics if no registered protocol has that name.
    pub fn protocol_named(mut self, name: &str) -> Self {
        let entry = self
            .registry
            .entry_by_name(name)
            .unwrap_or_else(|| panic!("no protocol named {name:?} is registered"));
        self.kind = entry.kind;
        self
    }

    /// Run a specific protocol instance (still paired with the logging scheme
    /// registered for `kind`, unless [`ExperimentBuilder::logging`] overrides it).
    pub fn protocol_impl(mut self, protocol: Arc<dyn Protocol>) -> Self {
        self.protocol_override = Some(protocol);
        self
    }

    /// Use a custom registry for construction and logging-scheme pairing.
    pub fn registry(mut self, registry: ProtocolRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Set the run scale (cluster size, data size, duration).
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    pub fn partitions(mut self, n: usize) -> Self {
        self.scale.partitions = n;
        self
    }

    pub fn workers_per_partition(mut self, n: usize) -> Self {
        self.scale.workers_per_partition = n;
        self
    }

    pub fn duration_ms(mut self, ms: u64) -> Self {
        self.scale.duration_ms = ms;
        self
    }

    pub fn warmup_ms(mut self, ms: u64) -> Self {
        self.scale.warmup_ms = ms;
        self
    }

    /// Run YCSB with an explicit configuration. The config is taken as-is —
    /// its `num_partitions` must match the experiment's scale.
    pub fn ycsb(mut self, cfg: YcsbConfig) -> Self {
        self.workload = Some(WorkloadSpec::Ycsb(cfg));
        self
    }

    /// Run YCSB with tweaks applied to the paper-default configuration
    /// (skew, distributed ratio, ...). The base config is built from the
    /// *final* scale when [`ExperimentBuilder::run`] executes, so this
    /// composes with `.scale()` / `.partitions()` in any order.
    pub fn ycsb_with(mut self, f: impl FnOnce(&mut YcsbConfig) + 'static) -> Self {
        self.workload = Some(WorkloadSpec::YcsbWith(Box::new(f)));
        self
    }

    /// Run TPC-C with an explicit configuration. The config is taken as-is —
    /// its `num_partitions` must match the experiment's scale.
    pub fn tpcc(mut self, cfg: TpccConfig) -> Self {
        self.workload = Some(WorkloadSpec::Tpcc(cfg));
        self
    }

    /// Run TPC-C with tweaks applied to the paper-default configuration,
    /// deferred to [`ExperimentBuilder::run`] like
    /// [`ExperimentBuilder::ycsb_with`].
    pub fn tpcc_with(mut self, f: impl FnOnce(&mut TpccConfig) + 'static) -> Self {
        self.workload = Some(WorkloadSpec::TpccWith(Box::new(f)));
        self
    }

    /// Run Smallbank with an explicit configuration.
    pub fn smallbank(mut self, cfg: SmallbankConfig) -> Self {
        self.workload = Some(WorkloadSpec::Smallbank(cfg));
        self
    }

    /// Run a custom workload implementation.
    pub fn workload_impl(mut self, workload: Arc<dyn Workload>) -> Self {
        self.workload = Some(WorkloadSpec::Custom(workload));
        self
    }

    /// Force a group-commit scheme instead of the §6.1.3 pairing.
    pub fn logging(mut self, scheme: LoggingScheme) -> Self {
        self.logging_override = Some(scheme);
        self
    }

    /// Force an atomic-commit mode instead of the registry's per-protocol
    /// pairing: [`CommitMode::TwoPc`] (blocking, the paper's baseline) or
    /// [`CommitMode::PaxosCommit`] (non-blocking over the replicated log).
    pub fn commit_mode(mut self, mode: CommitMode) -> Self {
        self.commit_override = Some(mode);
        self
    }

    /// Watermark interval / COCO epoch length in milliseconds (default 20 ms,
    /// the unified size of §6.2).
    pub fn wal_interval_ms(mut self, ms: u64) -> Self {
        self.cluster_tweaks
            .push(Box::new(move |c| c.wal.interval_ms = ms));
        self
    }

    /// Experiment seed: deterministic randomness derived from it (the
    /// network jitter salt) varies across seeds while each run stays
    /// reproducible.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cluster_tweaks.push(Box::new(move |c| c.seed = seed));
        self
    }

    /// Log replicas per partition (default 1 — single-copy). With `n > 1`
    /// durability means a majority quorum persisted the record, so a crash
    /// plan survives losing the leader's disk — and the quorum-ack delay
    /// (reported as `replication_lag_us`) shows up in commit latency.
    pub fn replication_factor(mut self, n: usize) -> Self {
        self.cluster_tweaks
            .push(Box::new(move |c| c.wal.replication_factor = n.max(1)));
        self
    }

    /// Persist delay of non-leader log replicas, microseconds (default: the
    /// leader's `persist_delay_us`); the one-way network hop is added on
    /// top.
    pub fn replica_persist_delay_us(mut self, us: u64) -> Self {
        self.cluster_tweaks
            .push(Box::new(move |c| c.wal.replica_persist_delay_us = Some(us)));
        self
    }

    /// Crash a partition leader mid-run (Fig 12). The driver clamps the
    /// plan to the measurement window and runs real recovery (wipe +
    /// checkpoint restore + durable-log replay); recovery latency and
    /// replayed-transaction counts land in the
    /// [`MetricsSnapshot`].
    pub fn crash(mut self, plan: CrashPlan) -> Self {
        self.crash = Some(plan);
        self
    }

    /// Run an explicit checkpoint every `ms` milliseconds during the run:
    /// fold everything foldable into the rolling images and sweep the
    /// version chains (a base checkpoint after loading is always taken, and
    /// the logs bound themselves from the commit path either way). Shorter
    /// intervals bound recovery replay more tightly than the retention
    /// target does.
    pub fn checkpoint_interval_ms(mut self, ms: u64) -> Self {
        self.checkpoint_interval = Some(Duration::from_millis(ms));
        self
    }

    /// Delay control (watermark / epoch) messages sent by one partition by
    /// `extra_us` microseconds (Fig 13a).
    pub fn lag_partition(mut self, p: PartitionId, extra_us: u64) -> Self {
        self.lag_partition = Some((p, extra_us));
        self
    }

    /// Add per-transaction execution time on one partition ("masked cores",
    /// Fig 13b).
    pub fn slow_partition(mut self, p: PartitionId, extra_us: u64) -> Self {
        self.slow_partition = Some((p, extra_us));
        self
    }

    /// Escape hatch: arbitrary cluster-configuration tweaks, applied in
    /// order after everything else.
    pub fn tweak_cluster(mut self, f: impl FnOnce(&mut ClusterConfig) + 'static) -> Self {
        self.cluster_tweaks.push(Box::new(f));
        self
    }

    /// The cluster configuration this experiment would run with.
    fn cluster_config(&mut self) -> ClusterConfig {
        let mut cfg = if self.fast_local {
            ClusterConfig::for_tests(self.scale.partitions)
        } else {
            ClusterConfig {
                num_partitions: self.scale.partitions,
                ..ClusterConfig::default()
            }
        };
        cfg.workers_per_partition = self.scale.workers_per_partition;
        cfg.wal.scheme = self
            .logging_override
            .unwrap_or_else(|| self.registry.logging_scheme_for(self.kind));
        cfg.commit_mode = self
            .commit_override
            .unwrap_or_else(|| self.registry.commit_mode_for(self.kind));
        if !self.fast_local {
            // Paper §6.2: the epoch size of COCO and the watermark interval
            // of WM are unified (20 ms) so all protocols see ~10 ms avg
            // commit latency. `fast_local` keeps the 1 ms test interval.
            cfg.wal.interval_ms = 20;
        }
        for tweak in self.cluster_tweaks.drain(..) {
            tweak(&mut cfg);
        }
        cfg
    }

    /// Build the cluster, load the workload, run the measurement and return
    /// the aggregated metrics.
    pub fn run(mut self) -> MetricsSnapshot {
        let cfg = self.cluster_config();
        let protocol = self
            .protocol_override
            .take()
            .unwrap_or_else(|| self.registry.build(self.kind));
        let workload: Arc<dyn Workload> = match self
            .workload
            .take()
            .unwrap_or(WorkloadSpec::Ycsb(self.scale.ycsb_config()))
        {
            WorkloadSpec::Ycsb(c) => Arc::new(YcsbWorkload::new(c)),
            WorkloadSpec::YcsbWith(f) => {
                let mut c = self.scale.ycsb_config();
                f(&mut c);
                Arc::new(YcsbWorkload::new(c))
            }
            WorkloadSpec::Tpcc(c) => Arc::new(TpccWorkload::new(c)),
            WorkloadSpec::TpccWith(f) => {
                let mut c = self.scale.tpcc_config();
                f(&mut c);
                Arc::new(TpccWorkload::new(c))
            }
            WorkloadSpec::Smallbank(c) => Arc::new(SmallbankWorkload::new(c)),
            WorkloadSpec::Custom(w) => w,
        };
        let options = ExperimentOptions {
            warmup: Duration::from_millis(self.scale.warmup_ms),
            duration: Duration::from_millis(self.scale.duration_ms),
            crash: self.crash,
            lag_partition: self.lag_partition,
            slow_partition: self.slow_partition,
            checkpoint_interval: self.checkpoint_interval,
        };
        run_experiment(cfg, protocol, workload, &options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_match_the_paper_setup() {
        let q = Scale::quick();
        assert_eq!(q.partitions, 4);
        assert_eq!(q.ycsb_config().zipf_theta, 0.6);
        assert_eq!(q.ycsb_config().distributed_ratio, 0.2);
        assert_eq!(Scale::full().workers_per_partition, 8);
        assert_eq!(Scale::quick().with_partitions(8).partitions, 8);
    }

    #[test]
    fn builder_pairs_protocol_with_its_logging_scheme() {
        let mut e = Experiment::new().protocol(ProtocolKind::Primo);
        assert_eq!(e.cluster_config().wal.scheme, LoggingScheme::Watermark);
        let mut e = Experiment::new().protocol(ProtocolKind::Silo);
        assert_eq!(e.cluster_config().wal.scheme, LoggingScheme::CocoEpoch);
        let mut e = Experiment::new()
            .protocol(ProtocolKind::Silo)
            .logging(LoggingScheme::Clv);
        assert_eq!(e.cluster_config().wal.scheme, LoggingScheme::Clv);
    }

    #[test]
    fn builder_routes_the_commit_mode_knob() {
        // Default: the registry pairing (classic 2PC everywhere).
        let mut e = Experiment::new().protocol(ProtocolKind::Primo);
        assert_eq!(e.cluster_config().commit_mode, CommitMode::TwoPc);
        // Explicit override wins.
        let mut e = Experiment::new().commit_mode(CommitMode::PaxosCommit);
        assert_eq!(e.cluster_config().commit_mode, CommitMode::PaxosCommit);
        // A registry knob flows through without an override.
        let mut e = Experiment::new()
            .registry(
                ProtocolRegistry::standard()
                    .with_commit_mode(ProtocolKind::Silo, CommitMode::PaxosCommit),
            )
            .protocol(ProtocolKind::Silo);
        assert_eq!(e.cluster_config().commit_mode, CommitMode::PaxosCommit);
    }

    #[test]
    fn builder_applies_scale_and_tweaks() {
        let mut e = Experiment::new()
            .scale(Scale::test())
            .partitions(3)
            .wal_interval_ms(5)
            .tweak_cluster(|c| c.backoff_initial_us = 77);
        let cfg = e.cluster_config();
        assert_eq!(cfg.num_partitions, 3);
        assert_eq!(cfg.wal.interval_ms, 5);
        assert_eq!(cfg.backoff_initial_us, 77);
    }

    #[test]
    fn replication_knobs_reach_the_cluster_config() {
        let mut e = Experiment::new()
            .replication_factor(3)
            .replica_persist_delay_us(900);
        let cfg = e.cluster_config();
        assert_eq!(cfg.wal.replication_factor, 3);
        assert_eq!(cfg.wal.replica_persist_delay_us, Some(900));
        // A zero factor is clamped to the single-copy minimum.
        let mut e = Experiment::new().replication_factor(0);
        assert_eq!(e.cluster_config().wal.replication_factor, 1);
    }

    #[test]
    fn protocol_named_resolves_legend_names() {
        let e = Experiment::new().protocol_named("2PL(WD)");
        assert_eq!(e.kind, ProtocolKind::TwoPlWaitDie);
    }

    #[test]
    #[should_panic(expected = "no protocol named")]
    fn protocol_named_rejects_unknown_names() {
        let _ = Experiment::new().protocol_named("Calvin");
    }

    #[test]
    fn quick_scale_end_to_end_smoke() {
        // A tiny end-to-end run: Primo on a shrunken YCSB must commit
        // transactions.
        let snap = Experiment::new()
            .protocol(ProtocolKind::Primo)
            .scale(Scale::test())
            .fast_local()
            .run();
        assert!(snap.committed > 0);
        assert!(snap.throughput_tps > 0.0);
    }
}
