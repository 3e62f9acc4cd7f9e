//! Coverage for the public facade: cluster builder defaults, a working
//! cluster handle for every protocol kind, and a smoke experiment per
//! protocol on a tiny YCSB scale.

use primo_repro::{LoggingScheme, PartitionId, Primo, ProtocolKind, Scale, TableId, Value};

#[test]
fn default_cluster_builder_is_primo_on_watermark() {
    let primo = Primo::builder().fast_local().build();
    assert_eq!(primo.num_partitions(), 4);
    assert_eq!(primo.protocol().name(), "Primo");
    assert_eq!(primo.cluster().group_commit.label(), "Watermark");
    primo.shutdown();
}

#[test]
fn cluster_builder_knobs_reach_the_cluster() {
    // Knob order must not matter: wal_interval_ms set *before* fast_local
    // still wins over fast_local's 1 ms test interval.
    let primo = Primo::builder()
        .partitions(3)
        .workers_per_partition(1)
        .protocol(ProtocolKind::Silo)
        .wal_interval_ms(7)
        .fast_local()
        .build();
    assert_eq!(primo.num_partitions(), 3);
    assert_eq!(primo.protocol().name(), "Silo");
    assert_eq!(primo.cluster().config.workers_per_partition, 1);
    assert_eq!(primo.cluster().config.wal.interval_ms, 7);
    // Silo pairs with COCO per §6.1.3.
    assert_eq!(primo.cluster().group_commit.label(), "COCO");
    primo.shutdown();

    // tweak() runs last and can override anything, including the scheme.
    let primo = Primo::builder()
        .partitions(2)
        .fast_local()
        .tweak(|c| c.wal.scheme = LoggingScheme::CocoEpoch)
        .build();
    assert_eq!(primo.cluster().group_commit.label(), "COCO");
    primo.shutdown();
}

#[test]
fn every_protocol_builds_a_working_cluster_handle() {
    for kind in ProtocolKind::ALL {
        let primo = Primo::builder()
            .partitions(2)
            .protocol(kind)
            .fast_local()
            .build();
        assert_eq!(primo.protocol().name(), kind.label());
        let session = primo.session();
        session.load(PartitionId(0), TableId(0), 1, Value::from_u64(9));
        assert_eq!(
            session.get(PartitionId(0), TableId(0), 1).unwrap().as_u64(),
            9
        );
        primo.shutdown();
    }
}

#[test]
fn smoke_experiment_per_protocol_on_tiny_ycsb() {
    for kind in ProtocolKind::ALL {
        let snap = Primo::builder()
            .protocol(kind)
            .fast_local()
            .experiment()
            .scale(Scale {
                duration_ms: 120,
                warmup_ms: 20,
                ..Scale::test()
            })
            .run();
        assert!(snap.committed > 0, "{} committed nothing", kind.label());
        assert!(
            snap.throughput_tps > 0.0,
            "{} has zero throughput",
            kind.label()
        );
    }
}

#[test]
fn workload_tweaks_follow_a_later_scale_change() {
    // ycsb_with is deferred to run(): shrinking the cluster afterwards (4
    // partitions to the test scale's 2) must shrink the workload's partition
    // space too (no out-of-bounds access).
    let snap = Primo::builder()
        .fast_local()
        .experiment()
        .ycsb_with(|y| y.zipf_theta = 0.9)
        .scale(Scale::test())
        .run();
    assert!(snap.committed > 0);
}

#[test]
fn experiment_honours_logging_override() {
    let snap = Primo::builder()
        .protocol(ProtocolKind::Primo)
        .fast_local()
        .logging(LoggingScheme::CocoEpoch)
        .experiment()
        .scale(Scale::test())
        .run();
    assert!(snap.committed > 0);
}

/// Regression: facade transactions used to run a private copy of the worker
/// loop's attempt lifecycle that emitted no lifecycle events, so nothing a
/// `Session` did could be explained from the flight recorder.
#[test]
fn facade_transactions_leave_their_lifecycle_in_the_flight_recorder() {
    use primo_repro::{AbortReason, TraceEventKind, TxnError};
    for kind in ProtocolKind::ALL {
        let primo = Primo::builder()
            .partitions(2)
            .protocol(kind)
            .fast_local()
            .build();
        let session = primo.session();
        session.load(PartitionId(0), TableId(0), 1, Value::from_u64(9));
        session
            .transaction(PartitionId(0), |ctx| {
                ctx.write(PartitionId(0), TableId(0), 1, Value::from_u64(10))
            })
            .unwrap();
        let err = session.transaction(PartitionId(0), |ctx| {
            ctx.write(PartitionId(0), TableId(0), 1, Value::from_u64(11))?;
            Err(TxnError::Aborted(AbortReason::UserAbort))
        });
        assert_eq!(err, Err(AbortReason::UserAbort));

        let timeline = primo.cluster().recorder.merge();
        let txns_with = |pred: fn(&TraceEventKind) -> bool| -> Vec<_> {
            let hits = timeline.of_kind(pred);
            hits.events().iter().filter_map(|e| e.txn).collect()
        };
        let begun = txns_with(|k| matches!(k, TraceEventKind::Begin { attempt: 1 }));
        let committed = txns_with(|k| matches!(k, TraceEventKind::Committed { .. }));
        let aborted = txns_with(|k| {
            matches!(
                k,
                TraceEventKind::Abort {
                    reason: AbortReason::UserAbort,
                    ..
                }
            )
        });
        assert_eq!(begun.len(), 2, "{kind:?}: one Begin per transaction");
        assert_eq!(committed, vec![begun[0]], "{kind:?}: the commit's outcome");
        assert_eq!(aborted, vec![begun[1]], "{kind:?}: the abort's outcome");
        primo.shutdown();
    }
}
