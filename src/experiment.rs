//! The [`Experiment`]: a [`ClusterBuilder`] plus what a measurement run
//! adds — its [`Scale`], a workload and the driver's options (crash plan,
//! lagging or slow partition, checkpoint interval) — run with
//! [`Experiment::run`] to a [`MetricsSnapshot`].
//!
//! The cluster and protocol are the builder's: everything about them is set
//! before [`ClusterBuilder::experiment`], so an experiment runs exactly the
//! cluster [`ClusterBuilder::build`] would hand a session user.
//!
//! ```
//! use primo_repro::{Primo, ProtocolKind, Scale};
//!
//! let snap = Primo::builder()
//!     .protocol(ProtocolKind::Primo)
//!     .fast_local()
//!     .experiment()
//!     .scale(Scale::test())
//!     .ycsb_with(|y| y.zipf_theta = 0.8)
//!     .run();
//! assert!(snap.committed > 0);
//! ```

use crate::facade::ClusterBuilder;
use primo_common::{MetricsSnapshot, PartitionId};
use primo_runtime::experiment::{run_on_cluster, CrashPlan, ExperimentOptions};
use primo_runtime::txn::Workload;
use primo_workloads::{
    SmallbankConfig, SmallbankWorkload, TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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
    /// Quick mode: every figure in a few minutes (the `figures` binary's
    /// default, or `--quick`).
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

/// Builds the run's workload from the final [`Scale`], sized to the built
/// cluster's partition count.
type WorkloadSpec = Box<dyn FnOnce(Scale) -> Arc<dyn Workload>>;

/// Panics unless an explicit workload config was made for the cluster it is
/// about to run on.
fn check_partitions(workload: &str, configured: usize, cluster: usize) {
    assert_eq!(
        configured, cluster,
        "the {workload} config is for {configured} partitions but the cluster has {cluster}"
    );
}

/// One measurement run. See the module docs for an example.
pub struct Experiment {
    cluster: ClusterBuilder,
    scale: Scale,
    workload: WorkloadSpec,
    options: ExperimentOptions,
}

impl ClusterBuilder {
    /// Measure this cluster: load a workload, run worker threads for warm-up
    /// plus a window and aggregate the metrics. The run's [`Scale`] defaults
    /// to [`Scale::quick`]'s data size and timing on this builder's cluster.
    pub fn experiment(self) -> Experiment {
        Experiment {
            cluster: self,
            scale: Scale::quick(),
            workload: Box::new(|scale| Arc::new(YcsbWorkload::new(scale.ycsb_config()))),
            options: ExperimentOptions::default(),
        }
    }
}

impl Experiment {
    /// Set the run scale: its partitions and workers per partition replace
    /// the cluster's, and its data size and timing are the run's.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.cluster = self
            .cluster
            .partitions(scale.partitions)
            .workers_per_partition(scale.workers_per_partition);
        self.scale = scale;
        self
    }

    /// Run YCSB with an explicit configuration, taken as-is.
    ///
    /// # Panics
    /// [`Experiment::run`] panics if its `num_partitions` is not the
    /// cluster's.
    pub fn ycsb(self, cfg: YcsbConfig) -> Self {
        self.workload(move |scale| {
            check_partitions("YCSB", cfg.num_partitions, scale.partitions);
            Arc::new(YcsbWorkload::new(cfg))
        })
    }

    /// Run YCSB (the default workload) with tweaks applied to the
    /// paper-default configuration of the run's scale and cluster.
    pub fn ycsb_with(self, f: impl FnOnce(&mut YcsbConfig) + 'static) -> Self {
        self.workload(move |scale| {
            let mut cfg = scale.ycsb_config();
            f(&mut cfg);
            Arc::new(YcsbWorkload::new(cfg))
        })
    }

    /// Run TPC-C with an explicit configuration, taken as-is.
    ///
    /// # Panics
    /// [`Experiment::run`] panics if its `num_partitions` is not the
    /// cluster's.
    pub fn tpcc(self, cfg: TpccConfig) -> Self {
        self.workload(move |scale| {
            check_partitions("TPC-C", cfg.num_partitions, scale.partitions);
            Arc::new(TpccWorkload::new(cfg))
        })
    }

    /// Run TPC-C with tweaks applied to the paper-default configuration of
    /// the cluster, like [`Experiment::ycsb_with`].
    pub fn tpcc_with(self, f: impl FnOnce(&mut TpccConfig) + 'static) -> Self {
        self.workload(move |scale| {
            let mut cfg = scale.tpcc_config();
            f(&mut cfg);
            Arc::new(TpccWorkload::new(cfg))
        })
    }

    /// Run Smallbank with an explicit configuration, taken as-is.
    ///
    /// # Panics
    /// [`Experiment::run`] panics if its `num_partitions` is not the
    /// cluster's.
    pub fn smallbank(self, cfg: SmallbankConfig) -> Self {
        self.workload(move |scale| {
            check_partitions("Smallbank", cfg.num_partitions, scale.partitions);
            Arc::new(SmallbankWorkload::new(cfg))
        })
    }

    fn workload(mut self, spec: impl FnOnce(Scale) -> Arc<dyn Workload> + 'static) -> Self {
        self.workload = Box::new(spec);
        self
    }

    /// Crash a partition leader mid-run (Fig 12). The driver clamps the
    /// plan to the measurement window and runs real recovery (wipe +
    /// checkpoint restore + durable-log replay); recovery latency and
    /// replayed-transaction counts land in the
    /// [`MetricsSnapshot`].
    pub fn crash(mut self, plan: CrashPlan) -> Self {
        self.options.crash = Some(plan);
        self
    }

    /// Run an explicit checkpoint every `ms` milliseconds during the run:
    /// fold everything foldable into the rolling images and sweep the
    /// version chains (a base checkpoint after loading is always taken, and
    /// the logs bound themselves from the commit path either way). Shorter
    /// intervals bound recovery replay more tightly than the retention
    /// target does.
    pub fn checkpoint_interval_ms(mut self, ms: u64) -> Self {
        self.options.checkpoint_interval = Some(Duration::from_millis(ms));
        self
    }

    /// Delay control (watermark / epoch) messages sent by one partition by
    /// `extra_us` microseconds (Fig 13a).
    pub fn lag_partition(mut self, p: PartitionId, extra_us: u64) -> Self {
        self.options.lag_partition = Some((p, extra_us));
        self
    }

    /// Add per-transaction execution time on one partition ("masked cores",
    /// Fig 13b).
    pub fn slow_partition(mut self, p: PartitionId, extra_us: u64) -> Self {
        self.options.slow_partition = Some((p, extra_us));
        self
    }

    /// Build the cluster, load the workload, run the measurement and shut
    /// the cluster down; a panic on the way is re-raised after the shutdown.
    pub fn run(self) -> MetricsSnapshot {
        let primo = self.cluster.build();
        let scale = self.scale.with_partitions(primo.num_partitions());
        let options = ExperimentOptions {
            warmup: Duration::from_millis(scale.warmup_ms),
            duration: Duration::from_millis(scale.duration_ms),
            ..self.options
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            let workload = (self.workload)(scale);
            let cluster = primo.cluster();
            for p in cluster.partition_ids() {
                workload.load_partition(&cluster.partition(p).store, p);
            }
            run_on_cluster(cluster, Arc::clone(primo.protocol()), workload, &options)
        }));
        primo.shutdown();
        run.unwrap_or_else(|panic| resume_unwind(panic))
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

    use crate::facade::Primo;
    use primo_common::config::{
        ClusterConfig, CommitMode, LoggingScheme, NetConfig, PrimoConfig, ProtocolKind,
        TraceConfig, WalConfig,
    };

    /// The cluster and protocol name a facade chain assembles.
    fn built(b: ClusterBuilder) -> (ClusterConfig, &'static str) {
        let (config, protocol) = b.assemble();
        (config, protocol.name())
    }

    /// The cluster and protocol name an experiment chain runs with.
    fn planned(e: Experiment) -> (ClusterConfig, &'static str) {
        built(e.cluster)
    }

    /// §6.1's cluster at §6.2's unified 20 ms interval.
    fn paper() -> ClusterConfig {
        ClusterConfig {
            num_partitions: 4,
            workers_per_partition: 4,
            net: NetConfig {
                one_way_us: 100,
                jitter_us: 10,
            },
            wal: WalConfig {
                scheme: LoggingScheme::Watermark,
                interval_ms: 20,
                persist_delay_us: 500,
                force_update: true,
                replication_factor: 1,
                replica_persist_delay_us: None,
            },
            primo: PrimoConfig {
                read_only_snapshot: true,
                max_versions: 4,
            },
            trace: TraceConfig {
                enabled: true,
                ring_capacity: 4096,
            },
            commit_mode: CommitMode::TwoPc,
            backoff_initial_us: 500,
            backoff_max_us: 8_000,
            batch_remote_reads: true,
            seed: 0x5EED,
        }
    }

    /// `fast_local`'s timing on `n` partitions.
    fn local(n: usize) -> ClusterConfig {
        ClusterConfig {
            num_partitions: n,
            workers_per_partition: 2,
            net: NetConfig {
                one_way_us: 5,
                jitter_us: 0,
            },
            wal: WalConfig {
                scheme: LoggingScheme::Watermark,
                interval_ms: 1,
                persist_delay_us: 50,
                force_update: true,
                replication_factor: 1,
                replica_persist_delay_us: None,
            },
            primo: PrimoConfig {
                read_only_snapshot: true,
                max_versions: 4,
            },
            trace: TraceConfig {
                enabled: true,
                ring_capacity: 512,
            },
            commit_mode: CommitMode::TwoPc,
            backoff_initial_us: 20,
            backoff_max_us: 500,
            batch_remote_reads: true,
            seed: 0x5EED,
        }
    }

    #[test]
    fn builder_pairs_protocol_with_its_logging_scheme() {
        let (cfg, _) = planned(Primo::builder().protocol(ProtocolKind::Primo).experiment());
        assert_eq!(cfg.wal.scheme, LoggingScheme::Watermark);
        let (cfg, _) = planned(Primo::builder().protocol(ProtocolKind::Silo).experiment());
        assert_eq!(cfg.wal.scheme, LoggingScheme::CocoEpoch);
        let (cfg, _) = planned(
            Primo::builder()
                .protocol(ProtocolKind::Silo)
                .logging(LoggingScheme::Clv)
                .experiment(),
        );
        assert_eq!(cfg.wal.scheme, LoggingScheme::Clv);
    }

    #[test]
    fn builder_routes_the_commit_mode_knob() {
        // Default: classic 2PC for every protocol.
        let (cfg, _) = planned(Primo::builder().protocol(ProtocolKind::Primo).experiment());
        assert_eq!(cfg.commit_mode, CommitMode::TwoPc);
        // Explicit override wins.
        let (cfg, _) = planned(
            Primo::builder()
                .protocol(ProtocolKind::Silo)
                .commit_mode(CommitMode::PaxosCommit)
                .experiment(),
        );
        assert_eq!(cfg.commit_mode, CommitMode::PaxosCommit);
    }

    #[test]
    fn builder_applies_scale_and_tweaks() {
        let (cfg, _) = planned(
            Primo::builder()
                .wal_interval_ms(5)
                .tweak(|c| c.backoff_initial_us = 77)
                .experiment()
                .scale(Scale::test().with_partitions(3)),
        );
        assert_eq!(cfg.num_partitions, 3);
        assert_eq!(
            cfg.workers_per_partition,
            Scale::test().workers_per_partition
        );
        assert_eq!(cfg.wal.interval_ms, 5);
        assert_eq!(cfg.backoff_initial_us, 77);
    }

    #[test]
    fn replication_knobs_reach_the_cluster_config() {
        let (cfg, _) = planned(
            Primo::builder()
                .replication_factor(3)
                .replica_persist_delay_us(900)
                .experiment(),
        );
        assert_eq!(cfg.wal.replication_factor, 3);
        assert_eq!(cfg.wal.replica_persist_delay_us, Some(900));
        // A zero factor is clamped to the single-copy minimum.
        let (cfg, _) = planned(Primo::builder().replication_factor(0).experiment());
        assert_eq!(cfg.wal.replication_factor, 1);
    }

    /// Every builder chain the repository uses assembles exactly this
    /// cluster and protocol.
    #[test]
    fn every_builder_chain_assembles_a_pinned_cluster() {
        // The benchmark's `WorkloadKind::cluster`.
        let bench = |kind, rf| {
            built(
                Primo::builder()
                    .partitions(2)
                    .workers_per_partition(1)
                    .protocol(kind)
                    .wal_interval_ms(20)
                    .replication_factor(rf)
                    .seed(7),
            )
        };
        let mut want = ClusterConfig {
            num_partitions: 2,
            workers_per_partition: 1,
            seed: 7,
            ..paper()
        };
        want.wal.replication_factor = 3;
        assert_eq!(bench(ProtocolKind::Primo, 3), (want.clone(), "Primo"));
        want.wal.replication_factor = 1;
        assert_eq!(bench(ProtocolKind::Primo, 1), (want.clone(), "Primo"));
        want.wal.scheme = LoggingScheme::CocoEpoch;
        assert_eq!(bench(ProtocolKind::Sundial, 1), (want, "Sundial"));

        // Experiment defaults, and `fast_local` at the test scale.
        assert_eq!(planned(Primo::builder().experiment()), (paper(), "Primo"));
        assert_eq!(
            planned(
                Primo::builder()
                    .fast_local()
                    .experiment()
                    .scale(Scale::test())
            ),
            (local(2), "Primo")
        );

        // Each kind with its §6.1.3 group commit.
        for (kind, scheme, name) in [
            (
                ProtocolKind::TwoPlNoWait,
                LoggingScheme::CocoEpoch,
                "2PL(NW)",
            ),
            (
                ProtocolKind::TwoPlWaitDie,
                LoggingScheme::CocoEpoch,
                "2PL(WD)",
            ),
            (ProtocolKind::Silo, LoggingScheme::CocoEpoch, "Silo"),
            (ProtocolKind::Sundial, LoggingScheme::CocoEpoch, "Sundial"),
            (ProtocolKind::Aria, LoggingScheme::Watermark, "Aria"),
            (ProtocolKind::Tapir, LoggingScheme::Watermark, "TAPIR"),
            (ProtocolKind::Primo, LoggingScheme::Watermark, "Primo"),
            (
                ProtocolKind::PrimoNoWm,
                LoggingScheme::CocoEpoch,
                "Primo w/o WM",
            ),
            (
                ProtocolKind::PrimoNoWcfNoWm,
                LoggingScheme::CocoEpoch,
                "Primo w/o WM & WCF",
            ),
        ] {
            let mut want = local(4);
            want.wal.scheme = scheme;
            assert_eq!(
                built(Primo::builder().protocol(kind).fast_local()),
                (want, name)
            );
        }

        // `.logging`, `.commit_mode` and `.replication_factor`.
        let mut want = paper();
        want.wal.scheme = LoggingScheme::Clv;
        assert_eq!(
            planned(
                Primo::builder()
                    .protocol(ProtocolKind::Silo)
                    .logging(LoggingScheme::Clv)
                    .experiment()
            ),
            (want, "Silo")
        );
        let mut want = paper();
        want.wal.scheme = LoggingScheme::CocoEpoch;
        want.wal.replication_factor = 3;
        want.commit_mode = CommitMode::PaxosCommit;
        assert_eq!(
            planned(
                Primo::builder()
                    .protocol(ProtocolKind::TwoPlNoWait)
                    .commit_mode(CommitMode::PaxosCommit)
                    .replication_factor(3)
                    .experiment()
            ),
            (want, "2PL(NW)")
        );
        let mut want = local(1);
        want.wal.replication_factor = 3;
        want.wal.replica_persist_delay_us = Some(75);
        want.commit_mode = CommitMode::PaxosCommit;
        assert_eq!(
            built(
                Primo::builder()
                    .partitions(1)
                    .fast_local()
                    .commit_mode(CommitMode::PaxosCommit)
                    .replication_factor(3)
                    .replica_persist_delay_us(75)
            ),
            (want, "Primo")
        );
        // A zero factor is clamped to the single-copy minimum.
        assert_eq!(
            built(Primo::builder().fast_local().replication_factor(0)),
            (local(4), "Primo")
        );

        // `.wal_interval_ms` before and after `fast_local`.
        let mut want = local(4);
        want.wal.interval_ms = 7;
        assert_eq!(
            built(Primo::builder().wal_interval_ms(7).fast_local()),
            (want.clone(), "Primo")
        );
        assert_eq!(
            built(Primo::builder().fast_local().wal_interval_ms(7)),
            (want, "Primo")
        );

        // `.tweak` runs last.
        let mut want = local(3);
        want.workers_per_partition = 1;
        want.backoff_initial_us = 77;
        want.wal.interval_ms = 5;
        assert_eq!(
            built(
                Primo::builder()
                    .protocol(ProtocolKind::Aria)
                    .tweak(|c| c.backoff_initial_us = 77)
                    .wal_interval_ms(9)
                    .tweak(|c| c.wal.interval_ms = 5)
                    .partitions(3)
                    .workers_per_partition(1)
                    .fast_local()
            ),
            (want, "Aria")
        );
        let mut want = paper();
        want.wal.force_update = false;
        want.primo.read_only_snapshot = false;
        assert_eq!(
            planned(
                Primo::builder()
                    .logging(LoggingScheme::Watermark)
                    .tweak(|c| c.wal.force_update = false)
                    .tweak(|c| c.primo.read_only_snapshot = false)
                    .experiment()
            ),
            (want, "Primo")
        );
    }

    #[test]
    fn quick_scale_end_to_end_smoke() {
        // A tiny end-to-end run: Primo on a shrunken YCSB must commit
        // transactions.
        let snap = Primo::builder()
            .protocol(ProtocolKind::Primo)
            .fast_local()
            .experiment()
            .scale(Scale::test())
            .run();
        assert!(snap.committed > 0);
        assert!(snap.throughput_tps > 0.0);
    }

    #[test]
    #[should_panic(expected = "the YCSB config is for 4 partitions but the cluster has 2")]
    fn an_explicit_workload_config_must_fit_the_cluster() {
        Primo::builder()
            .fast_local()
            .experiment()
            .scale(Scale::test())
            .ycsb(YcsbConfig::paper_default(4, 2_000))
            .run();
    }
}
