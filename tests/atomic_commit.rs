//! The atomic-commit acceptance suite: a coordinator crash between the vote
//! round and the decision must leave **zero blocked and zero
//! inconsistently-decided** transactions under Paxos Commit, for every
//! protocol × group-commit scheme the registry knows — and the same loop
//! must *catch* classic 2PC blocking, proving the harness can tell the two
//! modes apart (the falsification test).
//!
//! The workload is a pair increment: each transaction adds 1 to the same key
//! on both partitions, so any committed prefix keeps `(P0, k) == (P1, k)`.
//! A transaction decided inconsistently (committed on one side, aborted on
//! the other) breaks the equality; a transaction left blocked keeps its
//! locks and starves the post-storm liveness probe.
//!
//! Seeds: `PRIMO_COORD_CRASH_SEEDS=n` widens the loop to `n` seeds per cell
//! (CI runs 8 in release); the default of 1 keeps the debug tier-1 run
//! cheap.

use primo_repro::common::Metrics;
use primo_repro::runtime::worker::spawn_workers;
use primo_repro::runtime::{run_on_cluster, ExperimentOptions};
use primo_repro::{
    AbortReason, CommitMode, CrashPlan, FastRng, LoggingScheme, PartitionId, Primo, ProtocolKind,
    Scale, TableId, TraceEventKind, TxnContext, TxnProgram, TxnResult, Value, Workload,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const T: TableId = TableId(0);
const KEYS: u64 = 8;

fn seed_count() -> u64 {
    std::env::var("PRIMO_COORD_CRASH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Add 1 to the same key on both partitions — the committed state must keep
/// the two sides equal, whatever commits or aborts.
struct PairIncrement {
    home: PartitionId,
    key: u64,
}

impl TxnProgram for PairIncrement {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let a = ctx.read(PartitionId(0), T, self.key)?.as_u64();
        ctx.write(PartitionId(0), T, self.key, Value::from_u64(a + 1))?;
        let b = ctx.read(PartitionId(1), T, self.key)?.as_u64();
        ctx.write(PartitionId(1), T, self.key, Value::from_u64(b + 1))
    }
    fn home_partition(&self) -> PartitionId {
        self.home
    }
}

fn loaded(kind: ProtocolKind, scheme: LoggingScheme, mode: CommitMode, seed: u64) -> Primo {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(kind)
        .logging(scheme)
        .commit_mode(mode)
        .replication_factor(3)
        .fast_local()
        .seed(seed)
        .build();
    let session = primo.session();
    for p in 0..2u32 {
        for k in 0..KEYS {
            session.load(PartitionId(p), T, k, Value::from_u64(0));
        }
    }
    primo
}

/// Run a two-thread pair-increment storm with a one-shot coordinator crash
/// armed on partition 0 mid-run.
fn coordinator_crash_storm(primo: &Primo, per_thread: usize) {
    std::thread::scope(|scope| {
        for t in 0..2u32 {
            let session = primo.session();
            scope.spawn(move || {
                for i in 0..per_thread {
                    let _ = session.run_program(&PairIncrement {
                        home: PartitionId(t % 2),
                        key: (t as u64 + i as u64) % KEYS,
                    });
                }
            });
        }
        // Arm while the storm runs: the next distributed commit coordinated
        // by partition 0 dies between its vote round and the decision.
        std::thread::sleep(Duration::from_millis(2));
        primo.cluster().arm_coordinator_crash(PartitionId(0));
    });
}

/// Every pair must agree across partitions — the "zero inconsistently
/// decided" half of the acceptance criterion.
fn assert_pairs_consistent(primo: &Primo, label: &str) {
    let session = primo.session();
    for k in 0..KEYS {
        let a = session.get(PartitionId(0), T, k).unwrap().as_u64();
        let b = session.get(PartitionId(1), T, k).unwrap().as_u64();
        assert_eq!(
            a, b,
            "{label}: pair {k} decided inconsistently ({a} vs {b})"
        );
    }
}

/// A fresh transaction on every key must still get through — the "zero
/// blocked" half. An orphaned transaction's leaked locks would starve this
/// probe into retry exhaustion.
fn assert_no_blocked_locks(primo: &Primo, label: &str) {
    let session = primo.session();
    for k in 0..KEYS {
        session
            .run_program(&PairIncrement {
                home: PartitionId(1),
                key: k,
            })
            .unwrap_or_else(|e| panic!("{label}: key {k} still blocked after the storm: {e:?}"));
    }
}

#[test]
fn paxos_commit_terminates_coordinator_crashes_across_the_matrix() {
    for seed in 0..seed_count() {
        for kind in ProtocolKind::ALL {
            for scheme in LoggingScheme::ALL {
                let label = format!("{kind:?}/{scheme:?}/seed{seed}");
                let primo = loaded(kind, scheme, CommitMode::PaxosCommit, 0xC0DE + seed);
                coordinator_crash_storm(&primo, 20);
                // Some protocols never run a prepare round (Aria sequences
                // its batches, Primo's WCF path decides inside execution), so
                // the trap may stay armed — that is consistent termination
                // too; what may never happen is an orphan.
                assert_eq!(
                    primo.cluster().orphaned_txns(),
                    0,
                    "{label}: Paxos Commit orphaned a transaction"
                );
                assert_pairs_consistent(&primo, &label);
                assert_no_blocked_locks(&primo, &label);
                primo.shutdown();
            }
        }
    }
}

/// Falsification: the exact same loop must catch classic 2PC blocking —
/// otherwise the matrix test above proves nothing.
#[test]
fn the_loop_catches_classic_two_pc_blocking() {
    let primo = loaded(
        ProtocolKind::TwoPlNoWait,
        LoggingScheme::CocoEpoch,
        CommitMode::TwoPc,
        0xC0DE,
    );
    primo.cluster().arm_coordinator_crash(PartitionId(0));
    let session = primo.session();
    // The armed trap orphans this transaction's first distributed attempt;
    // its leaked locks then starve every retry (fresh transaction IDs die
    // against the orphan's locks) until the attempt budget runs out.
    let result = session.run_program(&PairIncrement {
        home: PartitionId(0),
        key: 0,
    });
    assert!(
        result.is_err(),
        "classic 2PC should have blocked on the orphaned transaction's locks"
    );
    assert_eq!(
        primo.cluster().orphaned_txns(),
        1,
        "the coordinator crash should have orphaned exactly the trapped transaction"
    );
    // The liveness probe the matrix test runs would flag this cell: the
    // orphan still holds key 0 on both partitions.
    assert!(
        session
            .run_program(&PairIncrement {
                home: PartitionId(1),
                key: 0,
            })
            .is_err(),
        "key 0 should still be blocked by the orphan's leaked locks"
    );
    // Untouched keys stay live — the blocking is precisely scoped to the
    // orphan's footprint, not a wedged cluster.
    session
        .run_program(&PairIncrement {
            home: PartitionId(1),
            key: 1,
        })
        .expect("keys outside the orphan's footprint must stay available");
    assert_pairs_consistent(&primo, "classic falsification");
    primo.shutdown();
}

/// The pair increments as the workers' load.
struct PairIncrements;

impl Workload for PairIncrements {
    fn name(&self) -> &'static str {
        "pair-increments"
    }
    fn load_partition(&self, _store: &primo_repro::storage::PartitionStore, _p: PartitionId) {}
    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        Box::new(PairIncrement {
            home,
            key: rng.next_below(KEYS),
        })
    }
}

/// The pairs loaded on 2PL(NW) under classic 2PC on COCO epochs, one worker
/// per partition, with rings deep enough for the workers' events of a whole
/// run.
fn classic_2pc_for_workers(seed: u64) -> Primo {
    let primo = Primo::builder()
        .partitions(2)
        .workers_per_partition(1)
        .protocol(ProtocolKind::TwoPlNoWait)
        .logging(LoggingScheme::CocoEpoch)
        .commit_mode(CommitMode::TwoPc)
        .fast_local()
        .seed(seed)
        .tweak(|c| c.trace.ring_capacity = 1 << 16)
        .build();
    let session = primo.session();
    for p in 0..2u32 {
        for k in 0..KEYS {
            session.load(PartitionId(p), T, k, Value::from_u64(0));
        }
    }
    primo
}

/// The same trap, met by the workers' event loop rather than a session. The
/// attempt dies where it does under a session — its votes taken up, nothing
/// decided — and leaks what it leaks there: the locks its reads hold (2PL),
/// its ticket closed by the worker like any abort's. Its client is retried
/// under a fresh id, as after every crash-class abort, so nothing takes the
/// orphan's locks over: they block its footprint — classic 2PC's blocking —
/// and when the loop stops nothing else is left behind.
#[test]
fn a_worker_orphans_the_trapped_attempt_and_nothing_more() {
    let primo = classic_2pc_for_workers(0x0A0F);
    let session = primo.session();
    let cluster = primo.cluster();
    let workload: Arc<dyn Workload> = Arc::new(PairIncrements);
    let stop = Arc::new(AtomicBool::new(false));
    let handles = spawn_workers(
        cluster,
        primo.protocol(),
        &workload,
        &Arc::new(Metrics::new()),
        &stop,
        &Arc::new(AtomicBool::new(true)),
    );
    std::thread::sleep(Duration::from_millis(30));
    cluster.arm_coordinator_crash(PartitionId(0));
    std::thread::sleep(Duration::from_millis(120));
    stop.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("a worker panicked");
    }

    assert_eq!(cluster.orphaned_txns(), 1, "exactly the trapped attempt");
    let timeline = cluster.recorder.merge();
    let crashed = timeline.of_kind(|k| matches!(k, TraceEventKind::CoordinatorCrashed));
    let orphan = crashed.events()[0].txn.expect("the orphan has an id");
    let of_orphan = timeline.for_txn(orphan);
    let mut kinds = of_orphan.events().iter().map(|e| e.kind);
    // Abandoned without a decision and without cleanup: the next thing the
    // stream says of it is its abort, and a back-off — it is retried.
    kinds.find(|k| matches!(k, TraceEventKind::CoordinatorCrashed));
    let kinds: Vec<TraceEventKind> = kinds.collect();
    assert!(
        matches!(
            kinds[0],
            TraceEventKind::Abort {
                reason: AbortReason::CoordinatorCrash,
                backoff_us: 1..
            }
        ),
        "{kinds:?}"
    );
    // Nothing more: every attempt that began has ended, the only locks left
    // are the orphan's, and every pair agrees.
    let mut open = std::collections::HashMap::new();
    for e in timeline.events() {
        let step = match e.kind {
            TraceEventKind::Begin { .. } => 1,
            TraceEventKind::Committed { .. } | TraceEventKind::Abort { .. } => -1,
            _ => continue,
        };
        *open.entry(e.txn).or_insert(0) += step;
    }
    open.retain(|_, balance| *balance != 0);
    assert!(open.is_empty(), "attempts without an end: {open:?}");
    let locked: Vec<Vec<u64>> = cluster
        .partition_ids()
        .map(|p| {
            let table = cluster.partition(p).store.table(T);
            table.scan_keys(|k| table.get(k).is_some_and(|r| r.lock().is_locked()))
        })
        .collect();
    assert!(
        locked[0].len() == 1 && locked[0] == locked[1],
        "the orphan's pair alone stays locked: {locked:?}"
    );
    assert_pairs_consistent(&primo, "orphan met by the workers");
    for k in (0..KEYS).filter(|&k| k != locked[0][0]) {
        session
            .run_program(&PairIncrement {
                home: PartitionId(1),
                key: k,
            })
            .unwrap_or_else(|e| panic!("key {k}, outside the orphan's footprint, blocked: {e:?}"));
    }
    primo.shutdown();
}

/// Regression: a worker used to retry an orphaned classic-2PC attempt under
/// the orphan's own id, and the retry — the locks being re-entrant — took the
/// orphan's leaked locks over, committed and released them, hiding 2PC's
/// blocking from every coordinator-crash run. The experiment driver's crash
/// plan, through the workers: after the coordinator crash, nothing begins
/// under the orphan's id again.
#[test]
fn a_coordinator_crash_run_never_retries_the_orphan_under_its_id() {
    let primo = classic_2pc_for_workers(0x0A10);
    let cluster = primo.cluster();
    let options = ExperimentOptions {
        warmup: Duration::from_millis(20),
        duration: Duration::from_millis(120),
        crash: Some(CrashPlan::coordinator(
            PartitionId(0),
            Duration::from_millis(30),
        )),
        ..ExperimentOptions::default()
    };
    let snap = run_on_cluster(
        cluster,
        Arc::clone(primo.protocol()),
        Arc::new(PairIncrements),
        &options,
    );
    assert_eq!(snap.orphaned_txns, 1, "exactly the trapped attempt");

    let timeline = cluster.recorder.merge();
    let crashed = timeline.of_kind(|k| matches!(k, TraceEventKind::CoordinatorCrashed));
    let orphan = crashed.events()[0].txn.expect("the orphan has an id");
    let of_orphan = timeline.for_txn(orphan);
    let mut kinds = of_orphan.events().iter().map(|e| e.kind);
    kinds.find(|k| matches!(k, TraceEventKind::CoordinatorCrashed));
    let after: Vec<TraceEventKind> = kinds.collect();
    assert!(
        !after.is_empty() && !(after.iter()).any(|k| matches!(k, TraceEventKind::Begin { .. })),
        "the orphan's id began again after its coordinator crashed: {after:?}"
    );
    assert_pairs_consistent(&primo, "coordinator-crash run");
    primo.shutdown();
}

/// Votes and decisions are quorum-durable log entries: losing the leader's
/// disk must not lose them.
#[test]
fn votes_and_decisions_survive_leader_disk_loss() {
    let primo = loaded(
        ProtocolKind::TwoPlNoWait,
        LoggingScheme::CocoEpoch,
        CommitMode::PaxosCommit,
        0xD15C,
    );
    let session = primo.session();
    primo.checkpoint_all();
    for k in 0..KEYS {
        session
            .run_program(&PairIncrement {
                home: PartitionId(0),
                key: k,
            })
            .unwrap();
    }
    // Every commit above reached a durable decision on partition 1's log.
    let decided: Vec<_> = primo
        .cluster()
        .recorder
        .merge()
        .of_kind(|k| matches!(k, TraceEventKind::DecisionReached { commit: true, .. }))
        .events()
        .iter()
        .filter_map(|e| e.txn)
        .collect();
    assert!(!decided.is_empty(), "no durable commit decisions recorded");

    // Disk loss: the dead leader's local log replica is discarded too; the
    // surviving quorum must still reproduce every vote and decision.
    primo.crash_partition_discarding_log(PartitionId(1));
    primo
        .recover_partition(PartitionId(1))
        .expect("recovery ran");
    let log = &primo.cluster().partition(PartitionId(1)).log;
    for txn in &decided {
        assert_eq!(
            log.commit_decision_for(*txn, None),
            Some(true),
            "decision for {txn} lost with the leader's disk"
        );
    }
    assert!(
        log.unresolved_commit_votes(None).is_empty(),
        "every logged vote must still be covered by a decision after fail-over"
    );
    assert_pairs_consistent(&primo, "disk loss");
    primo.shutdown();
}

/// COCO's coordinator acknowledges an epoch — `committed = e`, its waiters
/// released, the snapshot horizon advanced — in the very step that *appends*
/// the epoch's `EpochBoundary`, one quorum-ack delay before that boundary is
/// quorum-durable. A partition crashing inside the window must recover
/// through the acknowledged epoch, like the survivors that roll back from
/// the same boundary: recovering from the last *durable* boundary instead
/// tore every acknowledged cross-partition commit of that epoch (`P0 = 1,
/// P1 = 0`). A 10 ms replica disk makes the window wide enough to hit every
/// time.
#[test]
fn an_acknowledged_coco_epoch_survives_a_crash_before_its_boundary_is_durable() {
    for round in 0..10 {
        let primo = Primo::builder()
            .partitions(2)
            .protocol(ProtocolKind::TwoPlNoWait)
            .logging(LoggingScheme::CocoEpoch)
            .replication_factor(3)
            .replica_persist_delay_us(10_000)
            .fast_local()
            .seed(0xB0DA + round)
            .build();
        let session = primo.session();
        for p in 0..2u32 {
            session.load(PartitionId(p), T, 0, Value::from_u64(0));
        }
        primo.checkpoint_all();
        // Returns once the group commit reported `Committed`.
        session
            .run_program(&PairIncrement {
                home: PartitionId(0),
                key: 0,
            })
            .expect("the increment commits");
        primo.crash_partition_discarding_log(PartitionId(1));
        primo
            .recover_partition(PartitionId(1))
            .expect("recovery ran");
        let a = session.get(PartitionId(0), T, 0).unwrap().as_u64();
        let b = session.get(PartitionId(1), T, 0).unwrap().as_u64();
        assert_eq!(
            (a, b),
            (1, 1),
            "round {round}: the acknowledged increment was torn or lost"
        );
        primo.shutdown();
    }
}

/// The experiment driver's coordinator-crash plan end to end: the snapshot
/// reports the in-doubt resolution and the commit-decision latency
/// breakdown, and Paxos Commit orphans nothing.
#[test]
fn coordinator_crash_plan_reports_in_doubt_metrics() {
    let snap = Primo::builder()
        .protocol(ProtocolKind::TwoPlNoWait)
        .commit_mode(CommitMode::PaxosCommit)
        .replication_factor(3)
        .fast_local()
        .experiment()
        .scale(Scale {
            duration_ms: 300,
            ..Scale::test()
        })
        .crash(CrashPlan::coordinator(
            PartitionId(0),
            Duration::from_millis(100),
        ))
        .run();
    assert!(snap.committed > 0);
    assert_eq!(snap.orphaned_txns, 0, "Paxos Commit must not orphan");
    assert_eq!(
        snap.in_doubt_resolved, 1,
        "the trapped transaction resolves from the durable vote set"
    );
    assert!(snap.commit_decisions > 0);
    assert!(snap.commit_decide_mean_us > 0.0);
    assert!(snap.commit_decide_p99_us > 0);
}
