//! Crash-induced aborts and checkpointed recovery (§5.2 / Fig 12b).
//!
//! Runs Primo on YCSB while a partition leader crashes mid-run. The
//! watermark-based group commit agrees on a rollback point; transactions
//! above it are crash-aborted (and retried), everything below stays
//! durable. Crash-aborted transactions that had already installed writes on
//! *surviving* partitions are undone in place from the before-images in
//! their log entries, so the abort is atomic across the whole cluster.
//! The replacement leader then *actually* rebuilds the partition:
//! its volatile store is wiped and reconstructed from the latest durable
//! checkpoint plus durable-log replay, and the partition stays unreachable
//! until the replay completes. The example prints the crash-abort rate
//! together with the recovery cost — the quantities Fig 12b sweeps against
//! the watermark interval — and finishes with a flight-recorder excerpt:
//! the merged, causally-ordered event window around an injected crash
//! (crash → compensation → leader change → recovery replay).
//!
//! Run with: `cargo run --release --example crash_recovery`

use primo_repro::{
    ClosureProgram, CommitMode, CrashPlan, Experiment, PartitionId, Primo, ProtocolKind, Scale,
    TableId, TraceEventKind, Value,
};
use std::time::Duration;

fn main() {
    let scale = Scale {
        partitions: 4,
        workers_per_partition: 4,
        ycsb_keys_per_partition: 10_000,
        duration_ms: 600,
        warmup_ms: 100,
    };

    for interval_ms in [10u64, 40, 80] {
        let snap = Experiment::new()
            .protocol(ProtocolKind::Primo)
            .scale(scale)
            .wal_interval_ms(interval_ms)
            // Three log replicas per partition: durability means a majority
            // quorum persisted the record, so the crash below survives disk
            // loss — and the quorum-ack delay shows up as replication lag.
            .replication_factor(3)
            .checkpoint_interval_ms(150)
            .crash(CrashPlan::partition_loss(
                PartitionId(1),
                Duration::from_millis(300),
                Duration::from_millis(30),
            ))
            .run();
        println!(
            "watermark interval {:>3} ms: {:>8.1} ktps, crash-abort rate {:.4}, avg latency {:.2} ms",
            interval_ms,
            snap.ktps(),
            snap.crash_abort_rate,
            snap.mean_latency_ms
        );
        println!(
            "    recovery: {:.2} ms to wipe + restore + replay {} txns; \
             {} rolled-back txns compensated on survivors; post-recovery {:>8.1} ktps",
            snap.recovery_time_us as f64 / 1000.0,
            snap.replayed_txns,
            snap.compensated_txns,
            snap.post_recovery_tps / 1000.0
        );
        println!(
            "    replicated log: {} leader hand-off(s), replication lag {} us \
             (append -> quorum ack)",
            snap.leader_changes, snap.replication_lag_us
        );
        println!(
            "    log append: committers blocked {} us on the sequencer; \
             follower catch-ups averaged {:.1} entr(ies)",
            snap.wal_append_wait_us, snap.replication_batch_len
        );
        println!(
            "    atomic commit: {} distributed decisions, prepare->decide mean {:.0} us \
             / p99 {} us; {} in-doubt resolved",
            snap.commit_decisions,
            snap.commit_decide_mean_us,
            snap.commit_decide_p99_us,
            snap.in_doubt_resolved
        );
    }
    println!();
    println!("Larger watermark intervals widen the window of transactions that a crash");
    println!("rolls back (higher crash-abort rate) and add commit latency — the trade-off");
    println!("the paper tunes in Fig 12. Checkpoints bound the replay a recovery must do;");
    println!("shorten the checkpoint interval to shrink recovery time further.");

    coordinator_crash(&scale);
    trace_excerpt();
}

/// Crash the *coordinator* instead of a partition: a one-shot trap fires
/// between the vote round and the decision of one distributed commit — the
/// classic 2PC in-doubt window. Under blocking 2PC the transaction is
/// orphaned (its locks leak); under Paxos Commit it is terminated from the
/// quorum-durable vote set.
fn coordinator_crash(scale: &Scale) {
    println!();
    for mode in [CommitMode::TwoPc, CommitMode::PaxosCommit] {
        let snap = Experiment::new()
            .protocol(ProtocolKind::TwoPlNoWait)
            .scale(*scale)
            .commit_mode(mode)
            .replication_factor(3)
            .crash(CrashPlan::coordinator(
                PartitionId(0),
                Duration::from_millis(scale.duration_ms / 2),
            ))
            .run();
        println!(
            "coordinator crash under {:<11}: {:>8.1} ktps, {} decisions \
             (mean {:.0} us, p99 {} us), {} in-doubt resolved, {} orphaned",
            mode.label(),
            snap.ktps(),
            snap.commit_decisions,
            snap.commit_decide_mean_us,
            snap.commit_decide_p99_us,
            snap.in_doubt_resolved,
            snap.orphaned_txns
        );
    }
    println!("Paxos Commit terminates the stranded transaction (in-doubt resolved, nothing");
    println!("orphaned); classic 2PC leaves it blocked with its locks held.");
}

/// Re-run the crash in miniature through the cluster facade and print what
/// the always-on flight recorder saw around it — the same merged timeline
/// the seeded crash suites dump when an assertion trips.
fn trace_excerpt() {
    const T: TableId = TableId(0);
    let primo = Primo::builder()
        .partitions(2)
        .protocol(ProtocolKind::Primo)
        .fast_local()
        .replication_factor(3)
        .seed(42)
        .build();
    let session = primo.session();
    for p in 0..2u32 {
        for k in 0..8u64 {
            session.load(PartitionId(p), T, k, Value::from_u64(k));
        }
    }
    primo.checkpoint_all();
    // Distributed increments from a worker thread, crashed mid-flight: the
    // transactions whose results are still in flight at the crash are
    // rolled back, and their survivor-side writes compensated — exactly the
    // window the recorder is built to explain.
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = primo.session();
        let stop = &stop;
        s.spawn(move || {
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let k = i % 8;
                i += 1;
                let _ = writer.run_program(&ClosureProgram::new(PartitionId(0), move |ctx| {
                    let a = ctx.read(PartitionId(0), T, k)?.as_u64();
                    ctx.write(PartitionId(0), T, k, Value::from_u64(a + 1))?;
                    let b = ctx.read(PartitionId(1), T, k)?.as_u64();
                    ctx.write(PartitionId(1), T, k, Value::from_u64(b + 1))
                }));
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        primo.crash_partition(PartitionId(1));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    primo.recover_partition(PartitionId(1));

    let timeline = primo.cluster().recorder.merge();
    let crash_at = timeline
        .of_kind(|k| matches!(k, TraceEventKind::CrashInjected))
        .events()
        .first()
        .map(|e| e.at_us)
        .unwrap_or(0);
    // Non-transaction cluster events in the crash window: the crash mark,
    // compensation on the survivor, the leader hand-off, recovery replay
    // passes and the watermark publishes resuming afterwards.
    let window = timeline
        .between(crash_at.saturating_sub(500), crash_at.saturating_add(5_000))
        .of_kind(|k| !matches!(k, TraceEventKind::MsgHop { .. }));
    const SHOW: usize = 30;
    println!();
    println!(
        "Flight-recorder excerpt around the injected crash ({} of {} events \
         in a -0.5/+5 ms window; {} recorded in total):",
        window.len().min(SHOW),
        window.len(),
        primo.cluster().recorder.events_recorded()
    );
    for e in window
        .events()
        .iter()
        .filter(|e| e.txn.is_none())
        .take(SHOW)
    {
        println!("  {e}");
    }
    // And one rolled-back transaction's lifecycle, if the crash caught any:
    // the per-txn view trace-dump-on-failure renders.
    if let Some(doomed) = timeline
        .of_kind(|k| matches!(k, TraceEventKind::Compensation { .. }))
        .events()
        .iter()
        .find_map(|e| e.txn)
    {
        println!();
        println!("Lifecycle of crash-rolled-back txn {doomed}:");
        for e in timeline.for_txn(doomed).events() {
            println!("  {e}");
        }
    }
    primo.shutdown();
}
