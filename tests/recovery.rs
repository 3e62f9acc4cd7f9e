//! Crash-recovery equivalence: after an injected crash, a partition's store
//! is wiped and rebuilt from `latest durable checkpoint + bounded
//! durable-log replay` — and the result is byte-identical to the crash-free
//! committed state, for **every** registered protocol under **every**
//! group-commit scheme (the per-scheme replay bounds all have to be right:
//! recovered watermark, last durable epoch boundary, durable LSN).
//!
//! Plus seeded property loops (the offline environment has no proptest):
//! replaying any durable prefix twice equals replaying it once, and replay
//! output is always commit-timestamp-sorted and deduplicated.

use primo_repro::storage::LifecycleState;
use primo_repro::wal::{
    CommitOutcome, CommitWaiter, LogPayload, LoggedWrite, ReplayBound, ReplicatedLog,
};
use primo_repro::{
    AbortReason, CrashPlan, FastRng, LoggingScheme, PartitionId, Primo, ProtocolKind, Scale,
    TableId, TraceEventKind, TxnContext, TxnId, TxnProgram, TxnResult, Value,
};
use std::collections::BTreeMap;
use std::time::Duration;

const T: TableId = TableId(0);
const LOADED_KEYS: u64 = 16;
const FRESH_KEY: u64 = 9_000;
const DELETED_KEY: u64 = 7;

struct Program<F: Fn(&mut dyn TxnContext) -> TxnResult<()> + Send + Sync> {
    home: PartitionId,
    body: F,
}

impl<F: Fn(&mut dyn TxnContext) -> TxnResult<()> + Send + Sync> TxnProgram for Program<F> {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        (self.body)(ctx)
    }
    fn home_partition(&self) -> PartitionId {
        self.home
    }
}

/// Trace-dump-on-failure: render the flight recorder's merged per-txn
/// lifecycle of the transactions the crash rolled back (named by their
/// `Compensation` undo events, or failing that their crash-abort
/// resolutions), so a seeded divergence is diagnosable from the panic alone.
fn crash_rollback_trace_dump(primo: &Primo) -> String {
    let timeline = primo.cluster().recorder.merge();
    let mut doomed: Vec<TxnId> = timeline
        .of_kind(|k| matches!(k, TraceEventKind::Compensation { .. }))
        .events()
        .iter()
        .filter_map(|e| e.txn)
        .collect();
    if doomed.is_empty() {
        doomed = timeline
            .of_kind(|k| {
                matches!(
                    k,
                    TraceEventKind::Abort {
                        reason: AbortReason::CrashAbort,
                        ..
                    } | TraceEventKind::GroupCommitRelease { committed: false }
                )
            })
            .events()
            .iter()
            .filter_map(|e| e.txn)
            .collect();
    }
    doomed.sort_unstable();
    doomed.dedup();
    doomed.truncate(6); // keep the panic message readable
    primo.cluster().recorder.failure_report(&doomed)
}

/// The other half of the dump: transactions that *straddle* the crash —
/// they still appended a write-set to the crashed partition's log after
/// `CrashInjected` — and were not compensated. They are the ones a one-shot
/// compensation scan cannot see.
fn straddling_commit_trace_dump(primo: &Primo) -> String {
    let timeline = primo.cluster().recorder.merge();
    let Some(crash) = timeline
        .of_kind(|k| matches!(k, TraceEventKind::CrashInjected))
        .events()
        .first()
        .cloned()
    else {
        return String::new();
    };
    let compensated = |txn: TxnId| {
        let own = timeline.for_txn(txn);
        let undone = own.of_kind(|k| matches!(k, TraceEventKind::Compensation { .. }));
        !undone.is_empty()
    };
    let mut straddlers: Vec<TxnId> = timeline
        .of_kind(|k| matches!(k, TraceEventKind::WalAppend { .. }))
        .events()
        .iter()
        .filter(|e| e.at_us >= crash.at_us && e.partition == crash.partition)
        .filter_map(|e| e.txn)
        .filter(|txn| !compensated(*txn))
        .collect();
    straddlers.sort_unstable();
    straddlers.dedup();
    straddlers.truncate(4);
    primo.cluster().recorder.failure_report(&straddlers)
}

/// Byte-level snapshot of one partition's committed keys and payloads.
/// TicToc metadata is excluded (recovery re-seeds timestamps from the log;
/// lease extensions are not logical content).
fn value_snapshot(primo: &Primo, p: PartitionId) -> BTreeMap<u64, Vec<u8>> {
    let table = primo.cluster().partition(p).store.table(T);
    let mut keys = table.scan_keys(|_| true);
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| {
            let rec = table.get(k).expect("scanned key exists");
            (k, rec.read().value.as_bytes().to_vec())
        })
        .collect()
}

/// Run the deterministic committed workload every combination replays:
/// distributed updates, an insert and a delete, all landing on `target`.
fn run_committed_prefix(primo: &Primo, target: PartitionId) {
    let session = primo.session();
    for i in 0..4u64 {
        session
            .run_program(&Program {
                home: PartitionId(0),
                body: move |ctx: &mut dyn TxnContext| {
                    ctx.read(PartitionId(0), T, i)?;
                    ctx.write(target, T, i, Value::from_u64(1_000 + i))
                },
            })
            .unwrap_or_else(|e| panic!("update {i} failed: {e:?}"));
    }
    session
        .run_program(&Program {
            home: PartitionId(0),
            body: move |ctx: &mut dyn TxnContext| {
                ctx.read(PartitionId(0), T, 1)?;
                ctx.insert(target, T, FRESH_KEY, Value::from_u64(42))
            },
        })
        .expect("insert failed");
    session
        .run_program(&Program {
            home: PartitionId(0),
            body: move |ctx: &mut dyn TxnContext| {
                ctx.read(PartitionId(0), T, 1)?;
                ctx.delete(target, T, DELETED_KEY)
            },
        })
        .expect("delete failed");
}

/// One crash/recover byte-identity case. With `discard_log` the cluster runs
/// a 3-replica log and the crash throws the leader's local replica away (disk
/// loss, not just memory loss): recovery must rebuild a byte-identical store
/// from the surviving quorum. Verified to fail when quorum durability is
/// stubbed back to the leader's single copy (e.g. by disabling the
/// deterministic successor election): the wiped replica then has nothing to
/// restore or replay.
fn byte_identical_after_crash(kind: ProtocolKind, scheme: LoggingScheme, discard_log: bool) {
    let builder = Primo::builder()
        .partitions(2)
        .protocol(kind)
        .logging(scheme)
        .fast_local()
        .seed(kind as u64 * 31 + scheme as u64 + if discard_log { 1_000 } else { 1 });
    let builder = if discard_log {
        builder.replication_factor(3)
    } else {
        builder
    };
    let primo = builder.build();
    let session = primo.session();
    for p in 0..2u32 {
        for k in 0..LOADED_KEYS {
            session.load(PartitionId(p), T, k, Value::from_u64(k + 100));
        }
    }
    // Base checkpoints: without them the wiped loader data would be
    // unrecoverable (loads bypass the WAL by design).
    primo.checkpoint_all();

    let target = PartitionId(1);
    run_committed_prefix(&primo, target);
    // Let everything become durable and covered: log entries pass
    // their (quorum) persist delay, the watermark overtakes the committed
    // timestamps / the epoch seals its boundary markers.
    std::thread::sleep(Duration::from_millis(40));

    let before_target = value_snapshot(&primo, target);
    let before_other = value_snapshot(&primo, PartitionId(0));
    let live_before = primo.cluster().partition(target).store.total_records();
    assert!(live_before > 0);

    if discard_log {
        primo.crash_partition_discarding_log(target);
        // The wipe really dropped the history. (Not `len() == 0`: the
        // replicated log *service* outlives the leader crash, so a
        // cluster-wide agent may land a watermark/epoch marker on the wiped
        // copy in the instant after the fail-over — markers are not history.)
        assert!(
            primo
                .cluster()
                .partition(target)
                .log
                .replica(0)
                .entries_from(0)
                .iter()
                .all(|e| !matches!(&*e.payload, LogPayload::TxnWrites { .. })),
            "the dead leader's local replica still holds transaction history"
        );
    } else {
        primo.crash_partition(target);
    }
    let report = primo
        .recover_partition(target)
        .expect("real recovery must run");
    let label = format!("{}/{}", kind.label(), scheme.label());
    assert_eq!(
        report.wiped_records, live_before,
        "{label}: recovery must wipe the whole volatile store"
    );
    assert!(
        report.restored_records > 0,
        "{label}: checkpoint restore ran"
    );
    assert!(report.replayed_txns > 0, "{label}: durable log replay ran");

    let after_target = value_snapshot(&primo, target);
    assert_eq!(
        before_target, after_target,
        "{label}: recovered store differs from the crash-free committed state"
    );
    assert_eq!(
        before_other,
        value_snapshot(&primo, PartitionId(0)),
        "{label}: the surviving partition must be untouched"
    );
    // Every recovered record is clean: Visible, unlocked.
    let table = primo.cluster().partition(target).store.table(T);
    for k in after_target.keys() {
        let rec = table.get(*k).unwrap();
        assert_eq!(rec.state(), LifecycleState::Visible, "{label}: key {k}");
        assert!(!rec.lock().is_locked(), "{label}: leaked lock on {k}");
    }
    // Specific effects survived: the insert exists, the delete holds.
    assert_eq!(after_target.get(&FRESH_KEY).map(Vec::len), Some(8));
    assert!(!after_target.contains_key(&DELETED_KEY), "{label}");

    if discard_log {
        let log = &primo.cluster().partition(target).log;
        assert_eq!(
            log.leader_index(),
            1,
            "{label}: leadership must move to the deterministic ring successor"
        );
        assert!(log.term() >= 1, "{label}: the crash bumps the term");
        assert!(
            report.repaired_replicas >= 1,
            "{label}: the wiped replica is re-seeded from the new leader"
        );
        // (The agents keep appending watermark markers: a single pair of
        // reads can straddle one, so look until the copies agree.)
        let copies_agree = || log.replica(0).len() == log.replica(1).len();
        assert!(
            (0..3).any(|_| copies_agree()),
            "{label}: repair restores the wiped copy"
        );
    }

    // The partition serves transactions again.
    session
        .run_program(&Program {
            home: PartitionId(0),
            body: move |ctx: &mut dyn TxnContext| {
                ctx.read(target, T, 1)?;
                ctx.write(target, T, 1, Value::from_u64(7))
            },
        })
        .unwrap_or_else(|e| panic!("{label}: post-recovery txn failed: {e:?}"));
    primo.shutdown();
}

#[test]
fn recovered_store_is_byte_identical_for_all_protocols_and_schemes() {
    for kind in ProtocolKind::ALL {
        for scheme in LoggingScheme::ALL {
            byte_identical_after_crash(kind, scheme, false);
        }
    }
}

/// Replication factor 3, crash **and discard the leader's local log
/// replica**: the surviving quorum must still rebuild a byte-identical
/// store — the acceptance bar for the replicated-WAL refactor — for every
/// protocol under every group-commit scheme.
#[test]
fn replica_loss_recovery_is_byte_identical_for_all_protocols_and_schemes() {
    for kind in ProtocolKind::ALL {
        for scheme in LoggingScheme::ALL {
            byte_identical_after_crash(kind, scheme, true);
        }
    }
}

/// Writes that were installed but never covered by the agreed watermark are
/// rolled back by recovery — the bounded replay, not just the wipe, is what
/// enforces §5.2.
#[test]
fn uncovered_writes_are_rolled_back_not_resurrected() {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(ProtocolKind::Primo)
        .fast_local()
        .build();
    let session = primo.session();
    for p in 0..2u32 {
        for k in 0..8u64 {
            session.load(PartitionId(p), T, k, Value::from_u64(k));
        }
    }
    primo.checkpoint_all();
    session
        .run_program(&Program {
            home: PartitionId(0),
            body: |ctx: &mut dyn TxnContext| {
                ctx.read(PartitionId(0), T, 0)?;
                ctx.write(PartitionId(1), T, 2, Value::from_u64(222))
            },
        })
        .expect("covered txn");
    std::thread::sleep(Duration::from_millis(30));

    // Forge a durable log entry far above any watermark the cluster will
    // agree on, with a matching rogue install: the paper's "result not yet
    // returnable" state at the instant of the crash.
    let rogue_ts = 1_u64 << 60;
    let wal = &primo.cluster().partition(PartitionId(1)).log;
    wal.append(LogPayload::TxnWrites {
        txn: TxnId::new(PartitionId(1), u64::MAX >> 20),
        ts: rogue_ts,
        writes: vec![LoggedWrite::put(T, 3, Value::from_u64(333))],
    });
    primo
        .cluster()
        .partition(PartitionId(1))
        .store
        .insert(T, 3, Value::from_u64(333));
    std::thread::sleep(Duration::from_millis(5));

    primo.crash_partition(PartitionId(1));
    primo.recover_partition(PartitionId(1)).expect("recovered");
    let snap = value_snapshot(&primo, PartitionId(1));
    assert_eq!(
        snap.get(&2),
        Some(&Value::from_u64(222).as_bytes().to_vec()),
        "covered write survives"
    );
    assert_eq!(
        snap.get(&3),
        Some(&Value::from_u64(3).as_bytes().to_vec()),
        "uncovered write is rolled back to the checkpointed value"
    );
    primo.shutdown();
}

/// A second crash after checkpoints have advanced past the first recovery
/// must not resurrect transactions the first crash rolled back: recovery
/// purges the rolled-back log suffix, so no later checkpoint fold can pick
/// it up (the double-crash hole found in review).
#[test]
fn second_crash_does_not_resurrect_rolled_back_writes() {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(ProtocolKind::Primo)
        .fast_local()
        .build();
    let session = primo.session();
    for p in 0..2u32 {
        for k in 0..8u64 {
            session.load(PartitionId(p), T, k, Value::from_u64(k));
        }
    }
    primo.checkpoint_all();
    std::thread::sleep(Duration::from_millis(20));

    // A durable-but-uncovered write: logged and installed, with a ts just
    // above where the crash agreement will land — so the first recovery
    // rolls it back, but the watermark (and with it the replay/checkpoint
    // bounds) naturally grows past it soon afterwards.
    let rogue_ts = primo
        .cluster()
        .group_commit
        .ts_floor(PartitionId(1))
        .max(primo.cluster().group_commit.ts_floor(PartitionId(0)))
        + 40;
    let wal = &primo.cluster().partition(PartitionId(1)).log;
    wal.append(LogPayload::TxnWrites {
        txn: TxnId::new(PartitionId(1), u64::MAX >> 20),
        ts: rogue_ts,
        writes: vec![LoggedWrite::put(T, 3, Value::from_u64(333))],
    });
    primo
        .cluster()
        .partition(PartitionId(1))
        .store
        .insert(T, 3, Value::from_u64(333));
    std::thread::sleep(Duration::from_millis(2));

    let token1 = primo.cluster().crash_partition(PartitionId(1));
    assert!(
        token1 < rogue_ts,
        "precondition: the rogue write must be above the first agreement"
    );
    primo
        .recover_partition(PartitionId(1))
        .expect("first recovery");
    assert_eq!(
        value_snapshot(&primo, PartitionId(1)).get(&3),
        Some(&Value::from_u64(3).as_bytes().to_vec()),
        "first recovery rolls the uncovered write back"
    );

    // Commit more work and let the watermark overtake the rogue timestamp,
    // then checkpoint — before the purge fix, the fold (or the second
    // recovery's replay) would re-admit the rogue entry once the bound
    // passed its ts.
    session
        .run_program(&Program {
            home: PartitionId(0),
            body: |ctx: &mut dyn TxnContext| {
                ctx.read(PartitionId(0), T, 0)?;
                ctx.write(PartitionId(1), T, 5, Value::from_u64(555))
            },
        })
        .expect("post-recovery txn");
    std::thread::sleep(Duration::from_millis(70));
    primo.checkpoint_all();
    std::thread::sleep(Duration::from_millis(20));

    let token2 = primo.cluster().crash_partition(PartitionId(1));
    assert!(
        token2 > rogue_ts,
        "precondition: the second agreement must have passed the rogue ts \
         (got {token2} vs {rogue_ts}) — otherwise this test proves nothing"
    );
    primo
        .recover_partition(PartitionId(1))
        .expect("second recovery");
    let snap = value_snapshot(&primo, PartitionId(1));
    assert_eq!(
        snap.get(&3),
        Some(&Value::from_u64(3).as_bytes().to_vec()),
        "the rolled-back write must stay rolled back after a second crash"
    );
    assert_eq!(
        snap.get(&5),
        Some(&Value::from_u64(555).as_bytes().to_vec()),
        "committed post-recovery work survives the second crash"
    );
    primo.shutdown();
}

/// The experiment pipeline runs real recovery and reports it: recovery
/// latency and replayed-transaction counts in the snapshot, a partition
/// that is never left crashed, and periodic checkpoints bounding replay.
#[test]
fn experiment_pipeline_reports_recovery_metrics() {
    let snap = Primo::builder()
        .protocol(ProtocolKind::Primo)
        .fast_local()
        .experiment()
        .scale(Scale {
            duration_ms: 250,
            warmup_ms: 30,
            ..Scale::test()
        })
        .checkpoint_interval_ms(50)
        .crash(CrashPlan::partition_loss(
            PartitionId(1),
            Duration::from_millis(100),
            Duration::from_millis(30),
        ))
        .run();
    assert!(snap.committed > 0);
    assert!(snap.recovery_time_us > 0, "recovery latency reported");
    assert!(snap.post_recovery_tps > 0.0, "throughput resumed");
    assert!(
        snap.replication_lag_us > 0,
        "append-to-quorum-ack lag reported (single copy: the persist delay)"
    );
}

/// Seeded property loop: for random durable logs and random bounds, replay
/// output is commit-timestamp-sorted, deduplicated by transaction, and
/// applying it twice equals applying it once.
#[test]
fn replaying_any_durable_prefix_twice_equals_once() {
    use primo_repro::recovery::apply_replay;
    use primo_repro::storage::PartitionStore;

    let mut rng = FastRng::new(0x4ECC);
    for case in 0..40 {
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        let num_txns = 1 + rng.next_below(30);
        for seq in 0..num_txns {
            let num_writes = 1 + rng.next_below(3) as usize;
            let writes: Vec<LoggedWrite> = (0..num_writes)
                .map(|_| {
                    let key = rng.next_below(12);
                    if rng.next_below(4) == 0 {
                        LoggedWrite::delete(T, key)
                    } else {
                        LoggedWrite::put(T, key, Value::from_u64(rng.next_below(1_000)))
                    }
                })
                .collect();
            wal.append(LogPayload::TxnWrites {
                txn: TxnId::new(PartitionId(0), seq),
                ts: 1 + rng.next_below(50),
                writes,
            });
        }
        std::thread::sleep(Duration::from_millis(1));
        let bound = if rng.next_below(2) == 0 {
            ReplayBound::Ts(1 + rng.next_below(60))
        } else {
            ReplayBound::Lsn(rng.next_below(num_txns + 1))
        };
        let txns = wal.replay_range(0, &bound, None);
        // Sorted by commit timestamp, deduplicated by txn.
        for pair in txns.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "case {case}: not ts-sorted");
        }
        let mut ids: Vec<TxnId> = txns.iter().map(|(t, _, _)| *t).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), txns.len(), "case {case}: duplicate txn");

        let once = PartitionStore::new(PartitionId(0));
        apply_replay(&once, &txns);
        let twice = PartitionStore::new(PartitionId(0));
        apply_replay(&twice, &txns);
        apply_replay(&twice, &txns);
        let mut a = once.snapshot_visible();
        let mut b = twice.snapshot_visible();
        a.sort_by_key(|(t, k, _, _)| (*t, *k));
        b.sort_by_key(|(t, k, _, _)| (*t, *k));
        assert_eq!(a, b, "case {case}: replay not idempotent");
    }
}

/// Checkpoints bound recovery: after a checkpoint folds the log, replay
/// starts at the image's base and the truncated log stays small.
#[test]
fn checkpoints_bound_replay_and_log_growth() {
    let primo = Primo::builder()
        .partitions(1)
        .protocol(ProtocolKind::Primo)
        .fast_local()
        .build();
    let session = primo.session();
    for k in 0..8u64 {
        session.load(PartitionId(0), T, k, Value::from_u64(k));
    }
    primo.checkpoint_all();
    for round in 0..3 {
        for k in 0..8u64 {
            session
                .transaction(PartitionId(0), move |ctx| {
                    ctx.write(PartitionId(0), T, k, Value::from_u64(round * 100 + k))
                })
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        primo.checkpoint_all();
    }
    std::thread::sleep(Duration::from_millis(20));
    // One more pass so the newest durable checkpoint truncates its prefix.
    primo.checkpoint_all();
    let wal = &primo.cluster().partition(PartitionId(0)).log;
    let image = wal.latest_checkpoint().expect("images exist").1;
    assert!(image.len() >= 8);
    // Replay needed after the last checkpoint is (close to) nothing.
    let pending = wal.replay_range(image.base_lsn, &ReplayBound::Ts(u64::MAX), None);
    assert!(
        pending.len() <= 2,
        "folded log should leave almost nothing to replay, got {}",
        pending.len()
    );
    // Crash + recover still reproduces the latest committed values.
    let before = value_snapshot(&primo, PartitionId(0));
    primo.crash_partition(PartitionId(0));
    primo.recover_partition(PartitionId(0)).expect("recovered");
    assert_eq!(before, value_snapshot(&primo, PartitionId(0)));
    primo.shutdown();
}

// ---------------------------------------------------------------------------
// Cross-partition crash-abort atomicity (before-image compensation on
// surviving partitions).
//
// Atomic commit demands all-or-nothing across every participant: a
// transaction the group commit reports `CrashAborted` must disappear from
// *surviving* partitions (compensation) exactly as it disappears from the
// crashed one (bounded replay). These tests drive a distributed transaction
// to the installed-but-not-yet-returnable state, crash a participant, and
// check that every partition's state matches the reported outcome.
// ---------------------------------------------------------------------------

/// Execute `program` once through the handle's protocol and hand it to the
/// group commit — *without* waiting for the durable outcome, so the caller
/// can inject a crash while the result is still in flight (exactly the
/// window §5.2 rolls back). Conflict aborts are retried with a fresh id.
fn execute_installed(primo: &Primo, program: &dyn TxnProgram) -> CommitWaiter {
    let cluster = primo.cluster();
    let home = program.home_partition();
    loop {
        let txn = cluster.next_txn_id(home);
        let ticket = cluster.group_commit.begin_txn(home, txn);
        match primo.protocol().execute_once(
            cluster,
            program,
            &ticket,
            primo_repro::ReadFanout::empty(),
        ) {
            Ok(c) => return cluster.group_commit.txn_committed(&ticket, c.ts, c.ops),
            Err(e) => {
                cluster.group_commit.txn_aborted(&ticket);
                assert!(
                    e.reason().is_retryable(),
                    "doomed txn aborted non-retryably: {:?}",
                    e.reason()
                );
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
}

/// Build a handle whose timing makes the crash-abort window wide and
/// deterministic: long watermark/epoch intervals so the doomed transaction
/// cannot be covered between its commit and the injected crash, and a long
/// CLV persist delay so the crash lands inside the doomed persist window.
/// Replication factor 3 so the rollback-decision-durability epilogue can
/// discard a whole local log replica and recover from the quorum.
fn build_for_crash_abort(kind: ProtocolKind, scheme: LoggingScheme, seed: u64) -> Primo {
    let b = Primo::builder()
        .partitions(3)
        .protocol(kind)
        .logging(scheme)
        .fast_local()
        .replication_factor(3)
        .seed(seed);
    match scheme {
        LoggingScheme::Watermark | LoggingScheme::CocoEpoch => b.wal_interval_ms(150),
        LoggingScheme::Clv => b.tweak(|c| c.wal.persist_delay_us = 60_000),
        LoggingScheme::SyncPerTxn => b,
    }
    .build()
}

const CRASHED: PartitionId = PartitionId(1);
const SURVIVOR: PartitionId = PartitionId(2);
const HOME: PartitionId = PartitionId(0);
const DOOMED_PUT_KEY: u64 = 2;
const DOOMED_DELETE_KEY: u64 = 5;

struct DoomedProgram;

impl TxnProgram for DoomedProgram {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        ctx.read(HOME, T, 0)?;
        ctx.write(CRASHED, T, DOOMED_PUT_KEY, Value::from_u64(999_999))?;
        ctx.write(SURVIVOR, T, DOOMED_PUT_KEY, Value::from_u64(999_999))?;
        ctx.insert(SURVIVOR, T, FRESH_KEY, Value::from_u64(4_242))?;
        ctx.delete(SURVIVOR, T, DOOMED_DELETE_KEY)
    }
    fn home_partition(&self) -> PartitionId {
        HOME
    }
}

#[test]
fn crash_abort_rolls_back_surviving_partitions_for_all_protocols_and_schemes() {
    for kind in ProtocolKind::ALL {
        for scheme in LoggingScheme::ALL {
            let label = format!("{}/{}", kind.label(), scheme.label());
            let primo = build_for_crash_abort(kind, scheme, kind as u64 * 37 + scheme as u64 + 1);
            let session = primo.session();
            for p in 0..3u32 {
                for k in 0..8u64 {
                    session.load(PartitionId(p), T, k, Value::from_u64(k + 100));
                }
            }
            primo.checkpoint_all();

            // One *committed* distributed transaction, waited until the
            // *scheme* covers it (Aria and TAPIR manage durability
            // themselves and would otherwise return before the watermark /
            // epoch does, leaving the prefix legitimately above the crash
            // agreement), so the suite also proves compensation spares
            // committed state.
            let prefix_waiter = execute_installed(
                &primo,
                &Program {
                    home: HOME,
                    body: |ctx: &mut dyn TxnContext| {
                        ctx.read(HOME, T, 0)?;
                        ctx.write(CRASHED, T, 0, Value::from_u64(7_000))?;
                        ctx.write(SURVIVOR, T, 0, Value::from_u64(7_000))
                    },
                },
            );
            assert_eq!(
                primo.cluster().group_commit.wait_durable(&prefix_waiter),
                CommitOutcome::Committed,
                "{label}: the prefix must be covered before the crash"
            );

            let before_home = value_snapshot(&primo, HOME);
            let before_survivor = value_snapshot(&primo, SURVIVOR);
            let before_crashed = value_snapshot(&primo, CRASHED);

            // The doomed transaction: installed everywhere, result in flight.
            let waiter = execute_installed(&primo, &DoomedProgram);
            let installed = value_snapshot(&primo, SURVIVOR);
            assert_ne!(
                before_survivor, installed,
                "{label}: the doomed txn must actually install on the survivor \
                 (otherwise this test cannot catch a missing compensation pass)"
            );
            assert_eq!(installed.get(&FRESH_KEY).map(Vec::len), Some(8), "{label}");
            assert!(!installed.contains_key(&DOOMED_DELETE_KEY), "{label}");

            // Crash a participant while the result is not yet returnable.
            primo.cluster().crash_partition(CRASHED);
            let outcome = primo.cluster().group_commit.wait_durable(&waiter);

            match outcome {
                CommitOutcome::CrashAborted => {
                    // All-or-nothing, "nothing" branch: every surviving
                    // partition must be byte-identical to a run where the
                    // doomed transaction never executed.
                    assert_eq!(
                        before_survivor,
                        value_snapshot(&primo, SURVIVOR),
                        "{label}: crash-aborted residue left on the survivor"
                    );
                    assert_eq!(
                        before_home,
                        value_snapshot(&primo, HOME),
                        "{label}: crash-aborted residue left on the coordinator"
                    );
                    let table = primo.cluster().partition(SURVIVOR).store.table(T);
                    assert!(
                        table.get(FRESH_KEY).is_none(),
                        "{label}: the compensated insert must be physically unlinked"
                    );
                    let revived = table
                        .get(DOOMED_DELETE_KEY)
                        .unwrap_or_else(|| panic!("{label}: compensated delete must revive"));
                    assert_eq!(revived.state(), LifecycleState::Visible, "{label}");
                    assert!(!revived.lock().is_locked(), "{label}: leaked lock");
                    // And the crashed side agrees after recovery: replay is
                    // bounded below the rollback point.
                    primo
                        .recover_partition(CRASHED)
                        .unwrap_or_else(|| panic!("{label}: recovery must run"));
                    assert_eq!(
                        before_crashed,
                        value_snapshot(&primo, CRASHED),
                        "{label}: the crashed partition must agree with the survivors"
                    );
                }
                CommitOutcome::Committed => {
                    // All-or-nothing, "all" branch (sync scheme, or a
                    // watermark/epoch that covered the txn in the tiny window
                    // before the crash): everything stays, everywhere.
                    let after = value_snapshot(&primo, SURVIVOR);
                    assert_eq!(after, installed, "{label}: committed writes must stay");
                    primo
                        .recover_partition(CRASHED)
                        .unwrap_or_else(|| panic!("{label}: recovery must run"));
                    assert_eq!(
                        value_snapshot(&primo, CRASHED).get(&DOOMED_PUT_KEY),
                        Some(&Value::from_u64(999_999).as_bytes().to_vec()),
                        "{label}: committed write must survive recovery on the crashed side"
                    );
                }
            }

            // The cluster still serves transactions afterwards.
            session
                .run_program(&Program {
                    home: HOME,
                    body: |ctx: &mut dyn TxnContext| {
                        ctx.read(SURVIVOR, T, 1)?;
                        ctx.write(SURVIVOR, T, 1, Value::from_u64(1))
                    },
                })
                .unwrap_or_else(|e| panic!("{label}: post-crash txn failed: {e:?}"));

            // Rollback-decision durability: the `TxnRolledBack` markers the
            // compensation pass sealed are replicated log records, not a
            // single disk's private state. Discard the SURVIVOR's local
            // replica wholesale and recover from the surviving quorum — the
            // rolled-back transaction must stay rolled back (and committed
            // state must stay committed). Before the replicated WAL, the
            // markers (and everything else) died with the one copy.
            std::thread::sleep(Duration::from_millis(100)); // markers reach the quorum
            primo.cluster().crash_partition_discarding_log(SURVIVOR);
            primo
                .recover_partition(SURVIVOR)
                .unwrap_or_else(|| panic!("{label}: replica-loss recovery must run"));
            let after = value_snapshot(&primo, SURVIVOR);
            assert_eq!(
                after.get(&0),
                Some(&Value::from_u64(7_000).as_bytes().to_vec()),
                "{label}: the committed prefix must survive losing the replica"
            );
            match outcome {
                CommitOutcome::CrashAborted => {
                    assert_eq!(
                        after.get(&DOOMED_PUT_KEY),
                        Some(&Value::from_u64(DOOMED_PUT_KEY + 100).as_bytes().to_vec()),
                        "{label}: the undone put must stay undone after replica loss"
                    );
                    assert!(
                        !after.contains_key(&FRESH_KEY),
                        "{label}: the undone insert must not resurrect from the quorum"
                    );
                    assert_eq!(
                        after.get(&DOOMED_DELETE_KEY),
                        Some(&Value::from_u64(DOOMED_DELETE_KEY + 100).as_bytes().to_vec()),
                        "{label}: the revived delete target must survive replica loss"
                    );
                    assert!(
                        primo
                            .cluster()
                            .partition(SURVIVOR)
                            .log
                            .rolled_back_txns()
                            .contains(&waiter.txn),
                        "{label}: the rollback marker must survive on the quorum"
                    );
                }
                CommitOutcome::Committed => {
                    assert_eq!(
                        after.get(&DOOMED_PUT_KEY),
                        Some(&Value::from_u64(999_999).as_bytes().to_vec()),
                        "{label}: committed writes must survive replica loss"
                    );
                    assert!(after.contains_key(&FRESH_KEY), "{label}");
                    assert!(!after.contains_key(&DOOMED_DELETE_KEY), "{label}");
                }
            }
            primo.shutdown();
        }
    }
}

/// Double crash, survivor edition: after compensation undoes a rolled-back
/// transaction on a surviving partition, that partition itself crashes. Its
/// recovery replay — whose bound has long overtaken the rolled-back
/// timestamps — must honor the `TxnRolledBack` markers and not resurrect
/// the undone writes (neither via replay nor via a checkpoint fold taken in
/// between).
#[test]
fn survivor_crash_after_compensation_does_not_resurrect_undone_writes() {
    let primo = build_for_crash_abort(ProtocolKind::Primo, LoggingScheme::Watermark, 0xD0B1);
    let session = primo.session();
    for p in 0..3u32 {
        for k in 0..8u64 {
            session.load(PartitionId(p), T, k, Value::from_u64(k + 100));
        }
    }
    primo.checkpoint_all();
    session
        .run_program(&Program {
            home: HOME,
            body: |ctx: &mut dyn TxnContext| {
                ctx.read(HOME, T, 0)?;
                ctx.write(CRASHED, T, 0, Value::from_u64(7_000))?;
                ctx.write(SURVIVOR, T, 0, Value::from_u64(7_000))
            },
        })
        .expect("committed prefix");
    let before_survivor = value_snapshot(&primo, SURVIVOR);

    let waiter = execute_installed(&primo, &DoomedProgram);
    let token = primo.cluster().crash_partition(CRASHED);
    assert!(
        waiter.ts >= token,
        "precondition: the doomed txn must be above the agreement ({} vs {token})",
        waiter.ts
    );
    assert_eq!(
        primo.cluster().group_commit.wait_durable(&waiter),
        CommitOutcome::CrashAborted
    );
    assert_eq!(
        before_survivor,
        value_snapshot(&primo, SURVIVOR),
        "compensation undid the survivor residue"
    );
    assert!(
        primo
            .cluster()
            .partition(SURVIVOR)
            .log
            .rolled_back_txns()
            .contains(&waiter.txn),
        "the rollback decision is sealed in the survivor's log"
    );
    primo.recover_partition(CRASHED).expect("first recovery");

    // Let the watermark overtake the rolled-back timestamps, commit more
    // work, and fold a checkpoint — before the marker-aware replay/fold,
    // either path would re-admit the doomed writes once the bound passed.
    session
        .run_program(&Program {
            home: HOME,
            body: |ctx: &mut dyn TxnContext| {
                ctx.read(HOME, T, 1)?;
                ctx.write(SURVIVOR, T, 6, Value::from_u64(6_666))
            },
        })
        .expect("post-crash committed txn");
    std::thread::sleep(Duration::from_millis(400));
    primo.checkpoint_all();
    std::thread::sleep(Duration::from_millis(20));

    let token2 = primo.cluster().crash_partition(SURVIVOR);
    assert!(
        token2 > waiter.ts,
        "precondition: the second agreement ({token2}) must have passed the \
         rolled-back ts ({}) — otherwise this proves nothing",
        waiter.ts
    );
    primo.recover_partition(SURVIVOR).expect("second recovery");

    let after = value_snapshot(&primo, SURVIVOR);
    assert_eq!(
        after.get(&DOOMED_PUT_KEY),
        Some(&Value::from_u64(DOOMED_PUT_KEY + 100).as_bytes().to_vec()),
        "the undone put must stay undone after the survivor's own crash"
    );
    assert!(
        !after.contains_key(&FRESH_KEY),
        "the undone insert must not be resurrected by replay or checkpoint fold"
    );
    assert_eq!(
        after.get(&DOOMED_DELETE_KEY),
        Some(&Value::from_u64(DOOMED_DELETE_KEY + 100).as_bytes().to_vec()),
        "the revived delete target must survive"
    );
    assert_eq!(
        after.get(&6),
        Some(&Value::from_u64(6_666).as_bytes().to_vec()),
        "committed post-crash work must survive"
    );
    primo.shutdown();
}

/// A second crash landing **mid-replay** must hand off to the deterministic
/// successor replica and still produce a byte-identical store. The first
/// crash discards the leader's disk (leadership: replica 0 → 1); while the
/// replacement leader replays, it crashes too (memory only — losing a
/// second disk of three would genuinely break the quorum), leadership moves
/// 1 → 2, and the recovery loop voids the half-done pass and rebuilds from
/// replica 2's copy.
#[test]
fn double_crash_mid_replay_hands_off_to_deterministic_successor() {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(ProtocolKind::Primo)
        .fast_local()
        .replication_factor(3)
        .seed(0xD0B2)
        .build();
    let session = primo.session();
    let target = PartitionId(1);
    for p in 0..2u32 {
        for k in 0..LOADED_KEYS {
            session.load(PartitionId(p), T, k, Value::from_u64(k + 100));
        }
    }
    primo.checkpoint_all();
    run_committed_prefix(&primo, target);
    std::thread::sleep(Duration::from_millis(40));
    let before = value_snapshot(&primo, target);

    let cluster = primo.cluster();
    cluster.crash_partition_discarding_log(target);
    let log = &cluster.partition(target).log;
    assert_eq!(log.leader_index(), 1, "first hand-off: ring successor of 0");
    let term_after_first = log.term();

    let mut fired = false;
    let report = cluster
        .recover_partition_with_fault(target, &mut || {
            if !fired {
                fired = true;
                // The replacement leader dies while replaying: term bump,
                // leadership to the next ring successor. No new cluster
                // agreement — the partition was not serving.
                cluster.crash_replacement_leader(target, false);
            }
        })
        .expect("recovery must run");
    assert!(fired, "the mid-replay fault must actually land");
    assert_eq!(
        report.mid_replay_handoffs, 1,
        "the recovery loop must notice the term bump and restart once"
    );
    assert_eq!(
        log.leader_index(),
        2,
        "second hand-off: deterministic ring successor of replica 1"
    );
    assert_eq!(log.term(), term_after_first + 1);
    assert!(
        report.repaired_replicas >= 1,
        "the wiped first leader is re-seeded from the final leader"
    );
    assert_eq!(
        before,
        value_snapshot(&primo, target),
        "the store rebuilt by the final successor must be byte-identical"
    );
    // The partition serves transactions again under the new leader.
    session
        .run_program(&Program {
            home: PartitionId(0),
            body: move |ctx: &mut dyn TxnContext| {
                ctx.read(target, T, 1)?;
                ctx.write(target, T, 1, Value::from_u64(7))
            },
        })
        .expect("post-handoff txn");
    primo.shutdown();
}

/// Seeded property loop over real concurrent interleavings: worker threads
/// hammer pair-transactions (the same value written to key `k` on both
/// partitions), a partition crashes mid-run and recovers, and afterwards
/// every pair must agree — committed transactions survive on both sides,
/// crash-aborted ones disappear from both sides. Without the compensation
/// pass the surviving partition keeps the rolled-back half of a pair.
///
/// `PRIMO_CRASH_ABORT_SEEDS` widens the loop in CI (default 5 seeds).
#[test]
fn crash_abort_keeps_cross_partition_pairs_consistent_across_seeds() {
    use primo_repro::runtime::worker::run_session_txn;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const KEYS: u64 = 64;

    struct PairWrite {
        key: u64,
    }
    impl TxnProgram for PairWrite {
        fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
            let a = ctx.read(PartitionId(0), T, self.key)?.as_u64();
            let _ = ctx.read(PartitionId(1), T, self.key)?;
            ctx.write(PartitionId(0), T, self.key, Value::from_u64(a + 1))?;
            ctx.write(PartitionId(1), T, self.key, Value::from_u64(a + 1))
        }
        fn home_partition(&self) -> PartitionId {
            PartitionId(0)
        }
    }

    let seeds: u64 = std::env::var("PRIMO_CRASH_ABORT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    for seed in 1..=seeds {
        let primo = Primo::builder()
            .partitions(2)
            .protocol(ProtocolKind::Primo)
            .fast_local()
            .seed(seed)
            // Deep rings: the failure dump wants the crash-time lifecycles,
            // not just the retries that followed them.
            .tweak(|c| c.trace.ring_capacity = 1 << 14)
            .build();
        let session = primo.session();
        for p in 0..2u32 {
            for k in 0..KEYS {
                session.load(PartitionId(p), T, k, Value::from_u64(0));
            }
        }
        primo.checkpoint_all();

        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        for w in 0..3u64 {
            let cluster = Arc::clone(primo.cluster());
            let protocol = Arc::clone(primo.protocol());
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let mut rng = FastRng::new(seed * 1_000 + w);
                while !stop.load(Ordering::Relaxed) {
                    let prog = PairWrite {
                        key: rng.next_below(KEYS),
                    };
                    // Crash-window attempts may exhaust retries; that is fine.
                    let _ = run_session_txn(&cluster, protocol.as_ref(), &prog);
                }
            }));
        }

        std::thread::sleep(Duration::from_millis(40));
        primo.cluster().crash_partition(PartitionId(1));
        std::thread::sleep(Duration::from_millis(20));
        // Quiesce before recovery so no in-flight transaction installs into
        // records detached by the recovery wipe.
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            t.join().unwrap();
        }
        primo.recover_partition(PartitionId(1)).expect("recovered");

        let p0 = value_snapshot(&primo, PartitionId(0));
        let p1 = value_snapshot(&primo, PartitionId(1));
        for k in 0..KEYS {
            if p0.get(&k) != p1.get(&k) {
                panic!(
                    "seed {seed}: pair {k} diverged ({:?} vs {:?}) — a \
                     crash-aborted transaction left half of its writes behind\n{}\n\
                     commits straddling the crash:\n{}",
                    p0.get(&k),
                    p1.get(&k),
                    crash_rollback_trace_dump(&primo),
                    straddling_commit_trace_dump(&primo)
                );
            }
        }
        primo.shutdown();
    }
}

/// Seeded replica-loss property loop (`PRIMO_REPLICA_LOSS_SEEDS` widens it
/// in CI, default 3): concurrent pair-writers, then a crash that **discards
/// the leader's local log replica**, recovery from the surviving quorum, and
/// — after quiescing — a *second* disk-loss crash of the same partition.
/// Every cross-partition pair must agree after each recovery, and the second
/// recovery must reproduce the first one's state exactly: the `TxnRolledBack`
/// decisions sealed along the way are quorum-durable, never one disk's
/// private state.
#[test]
fn replica_loss_keeps_pairs_consistent_and_rollbacks_sealed_across_seeds() {
    use primo_repro::runtime::worker::run_session_txn;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const KEYS: u64 = 64;

    struct PairWrite {
        key: u64,
    }
    impl TxnProgram for PairWrite {
        fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
            let a = ctx.read(PartitionId(0), T, self.key)?.as_u64();
            let _ = ctx.read(PartitionId(1), T, self.key)?;
            ctx.write(PartitionId(0), T, self.key, Value::from_u64(a + 1))?;
            ctx.write(PartitionId(1), T, self.key, Value::from_u64(a + 1))
        }
        fn home_partition(&self) -> PartitionId {
            PartitionId(0)
        }
    }

    let seeds: u64 = std::env::var("PRIMO_REPLICA_LOSS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    for seed in 1..=seeds {
        let primo = Primo::builder()
            .partitions(2)
            .protocol(ProtocolKind::Primo)
            .fast_local()
            .replication_factor(3)
            .seed(0xBEEF_0000 + seed)
            .build();
        let session = primo.session();
        for p in 0..2u32 {
            for k in 0..KEYS {
                session.load(PartitionId(p), T, k, Value::from_u64(0));
            }
        }
        primo.checkpoint_all();

        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        for w in 0..3u64 {
            let cluster = Arc::clone(primo.cluster());
            let protocol = Arc::clone(primo.protocol());
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let mut rng = FastRng::new(seed * 1_000 + w);
                while !stop.load(Ordering::Relaxed) {
                    let prog = PairWrite {
                        key: rng.next_below(KEYS),
                    };
                    // Crash-window attempts may exhaust retries; that is fine.
                    let _ = run_session_txn(&cluster, protocol.as_ref(), &prog);
                }
            }));
        }

        std::thread::sleep(Duration::from_millis(40));
        // Disk loss mid-run: the leader's replica is discarded with the
        // crash, yet the quorum must reproduce every acknowledged pair.
        primo
            .cluster()
            .crash_partition_discarding_log(PartitionId(1));
        std::thread::sleep(Duration::from_millis(20));
        // Quiesce before recovery so no in-flight transaction installs into
        // records detached by the recovery wipe.
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            t.join().unwrap();
        }
        primo
            .recover_partition(PartitionId(1))
            .expect("first replica-loss recovery");

        let p0 = value_snapshot(&primo, PartitionId(0));
        let p1 = value_snapshot(&primo, PartitionId(1));
        for k in 0..KEYS {
            if p0.get(&k) != p1.get(&k) {
                panic!(
                    "seed {seed}: pair {k} diverged after replica-loss \
                     recovery ({:?} vs {:?})\n{}",
                    p0.get(&k),
                    p1.get(&k),
                    crash_rollback_trace_dump(&primo)
                );
            }
        }

        // Second disk-loss crash after quiescing: everything the first
        // recovery produced — including which transactions stay rolled back
        // — must be reproducible from the (repaired) quorum again.
        std::thread::sleep(Duration::from_millis(60));
        let expected = value_snapshot(&primo, PartitionId(1));
        primo
            .cluster()
            .crash_partition_discarding_log(PartitionId(1));
        primo
            .recover_partition(PartitionId(1))
            .expect("second replica-loss recovery");
        assert_eq!(
            expected,
            value_snapshot(&primo, PartitionId(1)),
            "seed {seed}: the second replica-loss recovery must reproduce the \
             quiesced state — a rollback decision leaked back in"
        );
        for k in 0..KEYS {
            assert_eq!(
                value_snapshot(&primo, PartitionId(0)).get(&k),
                value_snapshot(&primo, PartitionId(1)).get(&k),
                "seed {seed}: pair {k} diverged after the second recovery"
            );
        }
        primo.shutdown();
    }
}
