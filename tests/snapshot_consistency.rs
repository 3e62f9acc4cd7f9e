//! Crash consistency of MVCC snapshot reads: a snapshot reader must never
//! observe a value that crash compensation (or crashed-partition recovery)
//! later undoes.
//!
//! The scenario, per protocol × group-commit scheme: monotone-counter
//! writers increment keys on a 2-partition cluster while snapshot readers
//! continuously resolve declared read-only programs through
//! [`execute_snapshot`]; partition 1 is crashed mid-run (rolling back every
//! transaction above the scheme's agreement point — undone on survivors via
//! before-image compensation, never replayed on the crashed partition) and
//! then recovered from checkpoint + durable-log replay. Writers stop at the
//! crash, so nothing can re-increment a key and mask a rollback: if any
//! reader ever observed a value above the key's final committed state, the
//! snapshot horizon let an undurable write leak.
//!
//! Counters only grow, so the invariant per key is simply
//! `final committed value >= max value any snapshot read returned`.
//!
//! A second test flips `unsafe_latest_commit_horizon` — the ablation that
//! stubs every scheme's horizon to "latest commit timestamp" — and asserts
//! the same loop DOES observe violations: the suite genuinely discriminates
//! a sound horizon from a plausible-but-wrong one, and the durability wait
//! the real horizon encodes is load-bearing. Its writers commit the way
//! workers do, without waiting for each result, so the crash lands on
//! installed-but-undurable commits however quickly the group commit releases
//! a client that does wait.

use primo_repro::common::PhaseTimers;
use primo_repro::runtime::{execute_snapshot, SnapshotOutcome};
use primo_repro::{
    AbortReason, ClosureProgram, FastRng, LoggingScheme, PartitionId, Primo, ProtocolKind,
    ReadFanout, TableId, TraceEventKind, TxnId, TxnProgram, Value,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const T: TableId = TableId(0);
const PARTITIONS: u32 = 2;
const KEYS_PER_PARTITION: u64 = 8;

const ALL_PROTOCOLS: [ProtocolKind; 9] = [
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

const ALL_SCHEMES: [LoggingScheme; 4] = [
    LoggingScheme::SyncPerTxn,
    LoggingScheme::CocoEpoch,
    LoggingScheme::Clv,
    LoggingScheme::Watermark,
];

/// One violation: a snapshot read returned `observed` for the key but the
/// final committed state (after crash, compensation and recovery) is lower.
#[derive(Debug)]
#[allow(dead_code)] // fields exist for the assertion failure's Debug output
struct Violation {
    partition: u32,
    key: u64,
    observed: u64,
    final_value: u64,
}

struct CaseOutcome {
    violations: Vec<Violation>,
    /// Snapshot reads answered across the whole case (sanity: the MVCC path
    /// actually ran, the loop is not vacuously green).
    observations: u64,
    /// Flight-recorder dump rendered on failure (empty when the case passed):
    /// the causally-ordered lifecycle of the transactions the crash rolled
    /// back, merged across every worker ring.
    trace_dump: String,
}

/// Trace-dump-on-failure: ask the flight recorder which transactions the
/// crash rolled back (their `Compensation` undo events, or failing that their
/// crash-abort resolutions) and render their merged per-txn lifecycle.
fn crash_rollback_trace_dump(primo: &Primo) -> String {
    let timeline = primo.cluster().recorder.merge();
    let mut doomed: Vec<TxnId> = timeline
        .of_kind(|k| matches!(k, TraceEventKind::Compensation { .. }))
        .events()
        .iter()
        .filter_map(|e| e.txn)
        .collect();
    if doomed.is_empty() {
        // No survivor residue was compensated — fall back to the waiters the
        // crash agreement resolved as not-committed.
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
    doomed.truncate(6); // keep the failure message readable
    primo.cluster().recorder.failure_report(&doomed)
}

/// One attempt of `program`, handed to the group commit without waiting for
/// the durable outcome — how a worker commits. Nobody blocks, so nothing asks
/// the watermark agents to hurry: commits stay undurable for up to an
/// interval.
fn commit_without_waiting(primo: &Primo, program: &dyn TxnProgram) {
    let cluster = primo.cluster();
    let home = program.home_partition();
    let txn = cluster.next_txn_id(home);
    let ticket = cluster.group_commit.begin_txn(home, txn);
    let fanout = ReadFanout::empty();
    let mut timers = PhaseTimers::new();
    match (primo.protocol()).execute_once(cluster, program, &ticket, &mut timers, fanout) {
        Ok(c) => drop(cluster.group_commit.txn_committed(&ticket, c.ts, c.ops)),
        Err(_) => cluster.group_commit.txn_aborted(&ticket),
    }
}

/// Run one seeded crash case and report what the snapshot readers saw. With
/// `unsafe_horizon` (the falsification) the writers do not wait for their
/// results.
fn run_case(
    kind: ProtocolKind,
    scheme: LoggingScheme,
    seed: u64,
    unsafe_horizon: bool,
) -> CaseOutcome {
    let primo = Primo::builder()
        .partitions(PARTITIONS as usize)
        .protocol(kind)
        .logging(scheme)
        .fast_local()
        .seed(seed)
        // Deep-ish chains so the safe horizon rarely outruns the retained
        // history (a fallback discards the batch, weakening the probe).
        .max_versions(8)
        .tweak(move |c| c.wal.unsafe_latest_commit_horizon = unsafe_horizon)
        .build();
    let session = primo.session();
    for p in 0..PARTITIONS {
        for k in 0..KEYS_PER_PARTITION {
            session.load(PartitionId(p), T, k, Value::from_u64(0));
        }
    }
    // Recovery wipes the crashed partition's volatile store for real; the
    // loaded counters must be rebuildable.
    primo.checkpoint_all();

    let stop_writers = AtomicBool::new(false);
    let stop_readers = AtomicBool::new(false);
    let observed: Mutex<HashMap<(u32, u64), u64>> = Mutex::new(HashMap::new());
    let observations = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..2u64 {
            let (primo, session) = (&primo, primo.session());
            let stop_writers = &stop_writers;
            s.spawn(move || {
                let mut rng = FastRng::new(seed.wrapping_mul(0x9E37) + w);
                while !stop_writers.load(Ordering::Relaxed) {
                    let p = PartitionId(rng.next_below(PARTITIONS as u64) as u32);
                    let k = rng.next_below(KEYS_PER_PARTITION);
                    let other = PartitionId(1 - p.0);
                    let ok = rng.next_below(KEYS_PER_PARTITION);
                    // ~30 % distributed increments, so the crash leaves
                    // residue on the survivor that compensation must undo.
                    let distributed = rng.next_below(10) < 3;
                    let increment = ClosureProgram::new(p, move |ctx| {
                        let v = ctx.read(p, T, k)?.as_u64();
                        ctx.write(p, T, k, Value::from_u64(v + 1))?;
                        if distributed {
                            let w = ctx.read(other, T, ok)?.as_u64();
                            ctx.write(other, T, ok, Value::from_u64(w + 1))?;
                        }
                        Ok(())
                    });
                    if unsafe_horizon {
                        commit_without_waiting(primo, &increment);
                    } else {
                        let _ = session.run_program(&increment);
                    }
                }
            });
        }
        for _ in 0..2 {
            let cluster = primo.cluster();
            let stop_readers = &stop_readers;
            let observed = &observed;
            let observations = &observations;
            s.spawn(move || {
                while !stop_readers.load(Ordering::Relaxed) {
                    // One declared read-only program sweeping every key;
                    // partition 0 (the survivor) first, so its observations
                    // survive a RemoteUnavailable on the crashed remote.
                    let seen: Mutex<Vec<(u32, u64, u64)>> = Mutex::new(Vec::new());
                    let prog = ClosureProgram::new(PartitionId(0), |ctx| {
                        for p in 0..PARTITIONS {
                            for k in 0..KEYS_PER_PARTITION {
                                let v = ctx.read(PartitionId(p), T, k)?;
                                seen.lock().unwrap().push((p, k, v.as_u64()));
                            }
                        }
                        Ok(())
                    })
                    .read_only();
                    let outcome = execute_snapshot(cluster, &prog);
                    if let SnapshotOutcome::Done(Err(e)) = &outcome {
                        // The snapshot path must never conflict-abort: the
                        // only legitimate error here is an unreachable
                        // (crashed) remote partition. NotFound would mean a
                        // loaded counter vanished; Validation and the lock
                        // reasons would mean the "no locks, no validation"
                        // contract broke.
                        assert_eq!(
                            e.reason(),
                            AbortReason::RemoteUnavailable,
                            "snapshot read aborted for a non-crash reason under {kind:?}/{scheme:?}: {e:?}"
                        );
                    }
                    // Every answered read was resolved at the session's
                    // fixed horizon, so it counts even if a later read in
                    // the same sweep hit the crashed partition or fell back.
                    let batch = std::mem::take(&mut *seen.lock().unwrap());
                    if !batch.is_empty() {
                        observations.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        let mut map = observed.lock().unwrap();
                        for (p, k, v) in batch {
                            let slot = map.entry((p, k)).or_insert(0);
                            *slot = (*slot).max(v);
                        }
                    }
                }
            });
        }

        // Timeline: let writers and readers race, then crash partition 1
        // mid-flight. Writers stop at the crash so post-crash increments
        // cannot re-cover a rolled-back value and mask a violation.
        std::thread::sleep(Duration::from_millis(30));
        stop_writers.store(true, Ordering::Relaxed);
        primo.crash_partition(PartitionId(1));
        // Readers keep running across the outage (horizon capped below the
        // crash agreement) and across recovery.
        std::thread::sleep(Duration::from_millis(8));
        primo.recover_partition(PartitionId(1));
        std::thread::sleep(Duration::from_millis(8));
        stop_readers.store(true, Ordering::Relaxed);
    });

    let mut violations = Vec::new();
    let observed = observed.into_inner().unwrap();
    for ((p, k), &max_seen) in observed.iter() {
        let final_value = session
            .get(PartitionId(*p), T, *k)
            .expect("loaded counters never disappear")
            .as_u64();
        if max_seen > final_value {
            violations.push(Violation {
                partition: *p,
                key: *k,
                observed: max_seen,
                final_value,
            });
        }
    }
    // Render the trace before shutdown (the recorder lives on the cluster);
    // skip the work entirely on the happy path.
    let trace_dump = if violations.is_empty() {
        String::new()
    } else {
        crash_rollback_trace_dump(&primo)
    };
    primo.shutdown();
    CaseOutcome {
        violations,
        observations: observations.load(Ordering::Relaxed),
        trace_dump,
    }
}

fn seeds_from_env(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn snapshot_reads_survive_crashes_under_all_protocols_and_schemes() {
    let seeds = seeds_from_env("PRIMO_SNAPSHOT_SEEDS", 1);
    let mut total_observations = 0u64;
    for kind in ALL_PROTOCOLS {
        for scheme in ALL_SCHEMES {
            for seed in 0..seeds {
                let outcome = run_case(kind, scheme, 0xC0DE + seed, false);
                assert!(
                    outcome.violations.is_empty(),
                    "snapshot readers observed crash-rolled-back values under \
                     {kind:?}/{scheme:?} seed {seed}: {:?}\n{}",
                    outcome.violations,
                    outcome.trace_dump
                );
                total_observations += outcome.observations;
            }
        }
    }
    assert!(
        total_observations > 0,
        "the snapshot path never answered a read — the suite is vacuous"
    );
}

#[test]
fn latest_commit_horizon_stub_is_caught_by_the_suite() {
    // Falsification: with the horizon stubbed to "latest commit timestamp"
    // (no durability wait, no crash cap) the same loop must detect readers
    // observing values the crash rolls back. The writers here commit without
    // waiting for their results, so nobody asks for a watermark and every
    // commit of the last interval is installed, snapshot-visible through the
    // stub and not yet durable when the crash lands — at any release pace.
    // If this test ever fails, the suite above has lost its teeth, not the
    // horizon its soundness.
    let mut violations = 0usize;
    let mut dumps = String::new();
    for seed in 0..8u64 {
        let outcome = run_case(ProtocolKind::Primo, LoggingScheme::Watermark, seed, true);
        violations += outcome.violations.len();
        dumps.push_str(&outcome.trace_dump);
    }
    assert!(
        violations > 0,
        "the unsound latest-commit horizon produced no observable violation; \
         the crash-consistency suite cannot discriminate it from a sound one"
    );
    // The same violating runs double as the flight recorder's falsification
    // fixture: the failure path must have rendered a merged trace dump with
    // at least one per-transaction lifecycle in it — an empty or headless
    // dump would mean the trace-dump-on-failure consumer is dead weight.
    assert!(
        dumps.contains("flight recorder"),
        "a violating case produced no trace dump"
    );
    assert!(
        dumps.contains("--- txn"),
        "the trace dump names no rolled-back transaction; dump was:\n{dumps}"
    );
}
