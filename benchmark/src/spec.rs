//! The four workloads and the load shape they share.
//!
//! Every workload runs 2 partitions × 1 worker: the sandbox has 2 cores, and
//! simulated latency is charged by spinning, so a third busy thread would
//! measure the host scheduler instead of the engine. The two figures are
//! constants, not read from the machine, so that a number means the same
//! thing wherever it was taken.

use primo_repro::{
    FastRng, PartitionId, Primo, ProtocolKind, TpccConfig, TpccWorkload, TxnProgram, Workload,
    YcsbConfig, YcsbWorkload,
};
use std::sync::{Arc, Mutex};

pub const PARTITIONS: usize = 2;
pub const WORKERS_PER_PARTITION: usize = 1;
/// Watermark interval and COCO epoch length. It sets commit latency, and
/// with at most 512 unacknowledged commits per worker it also caps
/// throughput at 2 × 512 / latency ≈ 50k TPS (`ycsb_local` sits on that cap).
pub const WAL_INTERVAL_MS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    YcsbLocal,
    YcsbDist,
    TpccFull,
    YcsbHot2pc,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::YcsbLocal,
        WorkloadKind::YcsbDist,
        WorkloadKind::TpccFull,
        WorkloadKind::YcsbHot2pc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::YcsbLocal => "ycsb_local",
            WorkloadKind::YcsbDist => "ycsb_dist",
            WorkloadKind::TpccFull => "tpcc_full",
            WorkloadKind::YcsbHot2pc => "ycsb_hot_2pc",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn protocol(self) -> ProtocolKind {
        match self {
            WorkloadKind::YcsbHot2pc => ProtocolKind::Sundial,
            _ => ProtocolKind::Primo,
        }
    }

    /// Log replicas per partition. Only `ycsb_local` replicates: it is the
    /// workload where the WAL pipeline is a large share of the work.
    pub fn replication_factor(self) -> usize {
        match self {
            WorkloadKind::YcsbLocal => 3,
            _ => 1,
        }
    }

    /// The TPC-C sizing, for the workload that runs it (the correctness gate
    /// needs the key encodings).
    pub fn tpcc(self) -> Option<TpccConfig> {
        (self == WorkloadKind::TpccFull).then(|| TpccConfig::full_mix(PARTITIONS))
    }

    /// The engine's workload, wrapped so that its inputs come from `seed`.
    pub fn workload(self, seed: u64) -> Arc<SeededWorkload> {
        let base = YcsbConfig::paper_default(PARTITIONS, 50_000);
        let ycsb = |cfg| Arc::new(YcsbWorkload::new(cfg)) as Arc<dyn Workload>;
        let inner = match self {
            WorkloadKind::YcsbLocal => ycsb(YcsbConfig {
                distributed_ratio: 0.0,
                ..base
            }),
            WorkloadKind::YcsbDist => ycsb(YcsbConfig {
                distributed_ratio: 1.0,
                remote_op_ratio: 0.5,
                ..base
            }),
            WorkloadKind::YcsbHot2pc => ycsb(YcsbConfig {
                keys_per_partition: 1_000,
                zipf_theta: 0.9,
                distributed_ratio: 0.5,
                remote_op_ratio: 0.5,
                ..base
            }),
            WorkloadKind::TpccFull => Arc::new(TpccWorkload::new(TpccConfig::full_mix(PARTITIONS))),
        };
        Arc::new(SeededWorkload::new(inner, seed))
    }

    /// A fresh, empty cluster for this workload at the benchmark's timing:
    /// 100 µs one-way + 10 µs jitter and a 500 µs persist delay (the engine's
    /// defaults), flight recorder on, the protocol's own group-commit scheme
    /// (watermark for Primo, COCO epochs for Sundial) and classic 2PC.
    pub fn cluster(self, seed: u64) -> Primo {
        Primo::builder()
            .partitions(PARTITIONS)
            .workers_per_partition(WORKERS_PER_PARTITION)
            .protocol(self.protocol())
            .wal_interval_ms(WAL_INTERVAL_MS)
            .replication_factor(self.replication_factor())
            .seed(seed)
            .build()
    }
}

/// Draws a workload's transactions from the benchmark's own seeded
/// generators, one per home partition, instead of the worker's fixed one:
/// the engine only ever sees the generated programs.
pub struct SeededWorkload {
    inner: Arc<dyn Workload>,
    /// One generator per home partition. With one worker per partition the
    /// lock is never contended.
    rngs: Vec<Mutex<FastRng>>,
}

impl SeededWorkload {
    pub fn new(inner: Arc<dyn Workload>, seed: u64) -> Self {
        let rngs = (0..PARTITIONS as u64)
            .map(|p| {
                Mutex::new(FastRng::new(
                    seed ^ (p + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ))
            })
            .collect();
        SeededWorkload { inner, rngs }
    }
}

impl Workload for SeededWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn load_partition(&self, store: &primo_repro::storage::PartitionStore, p: PartitionId) {
        self.inner.load_partition(store, p);
    }

    fn generate(&self, _worker_rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        let mut rng = self.rngs[home.idx()]
            .lock()
            .expect("a generator panicked while holding its rng");
        self.inner.generate(&mut rng, home)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_name(k.name()), Some(k));
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
    }

    #[test]
    fn same_seed_gives_the_same_programs_and_another_seed_does_not() {
        let hints = |seed: u64| -> Vec<_> {
            let w = WorkloadKind::YcsbDist.workload(seed);
            let mut unused = FastRng::new(1);
            (0..50)
                .flat_map(|_| w.generate(&mut unused, PartitionId(0)).read_hint())
                .collect()
        };
        assert_eq!(hints(7), hints(7));
        assert_ne!(hints(7), hints(8));
    }
}
