//! Coverage for the public facade: cluster builder defaults, registry
//! round-trips over every protocol kind, and a smoke experiment per protocol
//! on a tiny YCSB scale.

use primo_repro::{
    Experiment, LoggingScheme, PartitionId, Primo, ProtocolKind, ProtocolRegistry, Scale, TableId,
    Value,
};

const ALL_KINDS: [ProtocolKind; 9] = [
    ProtocolKind::TwoPlNoWait,
    ProtocolKind::TwoPlWaitDie,
    ProtocolKind::Silo,
    ProtocolKind::Sundial,
    ProtocolKind::Aria,
    ProtocolKind::Tapir,
    ProtocolKind::Primo,
    ProtocolKind::PrimoNoWm,
    ProtocolKind::PrimoNoWcfNoWm,
];

#[test]
fn default_cluster_builder_is_primo_on_watermark() {
    let primo = Primo::builder().fast_local().build();
    assert_eq!(primo.num_partitions(), 4);
    assert_eq!(primo.protocol().name(), "Primo");
    assert_eq!(primo.cluster().group_commit.label(), "Watermark");
    assert!(primo.crash_plan().is_none());
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
fn registry_round_trips_every_kind() {
    let registry = ProtocolRegistry::standard();
    assert_eq!(registry.kinds().len(), ALL_KINDS.len());
    for kind in ALL_KINDS {
        // kind -> entry -> protocol -> name -> entry -> kind
        let entry = registry.entry(kind).expect("kind registered");
        assert_eq!(entry.kind, kind);
        let protocol = entry.build();
        assert_eq!(protocol.name(), kind.label());
        let back = registry
            .entry_by_name(protocol.name())
            .expect("name resolves");
        assert_eq!(back.kind, kind, "name round-trip for {kind:?}");
    }
}

#[test]
fn every_protocol_builds_a_working_cluster_handle() {
    for kind in ALL_KINDS {
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
    for kind in ALL_KINDS {
        let snap = Experiment::new()
            .protocol(kind)
            .scale(Scale {
                duration_ms: 120,
                warmup_ms: 20,
                ..Scale::test()
            })
            .fast_local()
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
    // ycsb_with is deferred to run(): shrinking the cluster afterwards must
    // shrink the workload's partition space too (no out-of-bounds access).
    let snap = Experiment::new()
        .ycsb_with(|y| y.zipf_theta = 0.9)
        .scale(Scale::test())
        .partitions(2)
        .fast_local()
        .run();
    assert!(snap.committed > 0);
}

#[test]
fn crash_plan_from_builder_is_executable() {
    use primo_repro::CrashPlan;
    use std::time::Duration;
    let primo = Primo::builder()
        .partitions(2)
        .fast_local()
        .crash(CrashPlan::partition_loss(
            PartitionId(1),
            Duration::from_millis(5),
            Duration::from_millis(5),
        ))
        .build();
    assert!(primo.crash_plan().is_some());
    assert!(primo.trigger_crash_plan());
    // The plan ran to completion: the partition is recovered and usable.
    assert!(!primo.cluster().net.is_crashed(PartitionId(1)));
    let session = primo.session();
    session.load(PartitionId(1), TableId(0), 1, Value::from_u64(1));
    session
        .transaction(PartitionId(0), |ctx| {
            ctx.read(PartitionId(1), TableId(0), 1).map(|_| ())
        })
        .unwrap();
    primo.shutdown();

    // Without a plan, triggering is a no-op returning false.
    let bare = Primo::builder().partitions(1).fast_local().build();
    assert!(!bare.trigger_crash_plan());
    bare.shutdown();
}

#[test]
fn experiment_honours_logging_override() {
    let snap = Experiment::new()
        .protocol(ProtocolKind::Primo)
        .scale(Scale::test())
        .fast_local()
        .logging(LoggingScheme::CocoEpoch)
        .run();
    assert!(snap.committed > 0);
}

#[test]
fn custom_registry_flows_through_the_builders() {
    use primo_repro::PrimoProtocol;
    use std::sync::Arc;
    let mut registry = ProtocolRegistry::empty();
    registry.register(
        ProtocolKind::Primo,
        LoggingScheme::Watermark,
        Arc::new(|| Arc::new(PrimoProtocol::full().labeled("Primo(custom)"))),
    );
    let primo = Primo::builder()
        .registry(registry.clone())
        .protocol(ProtocolKind::Primo)
        .fast_local()
        .build();
    assert_eq!(primo.protocol().name(), "Primo(custom)");
    primo.shutdown();

    let snap = Experiment::new()
        .registry(registry)
        .protocol(ProtocolKind::Primo)
        .scale(Scale::test())
        .fast_local()
        .run();
    assert!(snap.committed > 0);
}

/// Regression: facade transactions used to run a private copy of the worker
/// loop's attempt lifecycle that emitted no lifecycle events, so nothing a
/// `Session` did could be explained from the flight recorder.
#[test]
fn facade_transactions_leave_their_lifecycle_in_the_flight_recorder() {
    use primo_repro::{AbortReason, TraceEventKind, TxnError};
    for kind in ALL_KINDS {
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
