//! Cross-protocol record-lifecycle properties: under **every** registered
//! protocol, an aborted transaction leaves the store byte-identical to its
//! pre-transaction state — no phantom records from aborted inserts, no
//! resurrected tombstones from aborted deletes, no leaked locks — and the
//! put/insert/delete contract holds afterwards (a plain put to a key whose
//! insert aborted still fails `NotFound`).
//!
//! This is the acceptance test for the ROADMAP phantom-insert item: before
//! the lifecycle state machine, an insert materialised a zeroed record ahead
//! of the commit decision and never removed it on abort.

use primo_repro::storage::LifecycleState;
use primo_repro::{
    AbortReason, PartitionId, Primo, ProtocolKind, TableId, TxnContext, TxnError, TxnId,
    TxnProgram, TxnResult, Value,
};
use std::collections::BTreeMap;

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

const T: TableId = TableId(0);
const LOADED_KEYS: u64 = 32;
const FRESH_KEY: u64 = 9_000;

fn loaded(kind: ProtocolKind) -> Primo {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(kind)
        .fast_local()
        .build();
    let session = primo.session();
    for p in 0..2u32 {
        for k in 0..LOADED_KEYS {
            session.load(PartitionId(p), T, k, Value::from_u64(k + 100));
        }
    }
    primo
}

/// Byte-level snapshot of every *visible* record's key and payload. TicToc
/// metadata (`wts`/`rts`) is deliberately excluded: reads legitimately
/// extend leases and raise watermark floors even when the transaction later
/// aborts, but the logical content — which keys exist and what bytes they
/// hold — must be untouched.
type StoreSnapshot = BTreeMap<(u32, u64), Vec<u8>>;

fn snapshot(primo: &Primo) -> StoreSnapshot {
    let mut out = BTreeMap::new();
    for p in primo.cluster().partition_ids() {
        let table = primo.cluster().partition(p).store.table(T);
        let mut keys = table.scan_keys(|_| true);
        keys.sort_unstable();
        for k in keys {
            let rec = table.get(k).expect("scanned key exists");
            out.insert((p.0, k), rec.read().value.as_bytes().to_vec());
        }
    }
    out
}

/// No record anywhere is locked or left in a transient lifecycle state.
fn assert_clean_store(primo: &Primo, label: &str) {
    for p in primo.cluster().partition_ids() {
        let table = primo.cluster().partition(p).store.table(T);
        for k in 0..2 * FRESH_KEY {
            if let Some(rec) = table.get(k) {
                assert!(!rec.lock().is_locked(), "{label}: leaked lock on {p:?}/{k}");
                assert!(
                    !matches!(rec.state(), LifecycleState::UncommittedInsert { .. }),
                    "{label}: uncommitted insert left behind on {p:?}/{k}"
                );
            }
        }
    }
}

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

#[test]
fn aborted_insert_and_delete_leave_the_store_byte_identical() {
    for kind in ALL_KINDS {
        let primo = loaded(kind);
        let before = snapshot(&primo);

        // One transaction per partition target: insert a fresh key, delete a
        // loaded key, update another — then roll everything back.
        for target in [PartitionId(0), PartitionId(1)] {
            let err = primo
                .session()
                .run_program(&Program {
                    home: PartitionId(0),
                    body: move |ctx: &mut dyn TxnContext| {
                        ctx.read(target, T, 1)?;
                        ctx.insert(target, T, FRESH_KEY, Value::from_u64(1))?;
                        ctx.delete(target, T, 2)?;
                        ctx.write(target, T, 3, Value::from_u64(999))?;
                        Err(TxnError::Aborted(AbortReason::UserAbort))
                    },
                })
                .unwrap_err();
            assert_eq!(err, AbortReason::UserAbort, "{kind:?}");
        }

        let after = snapshot(&primo);
        assert_eq!(
            before, after,
            "{kind:?}: aborted insert/delete txn must leave the store byte-identical"
        );
        assert_clean_store(&primo, kind.label());

        // The insert aborted, so the key still does not exist: a plain put
        // must abort NotFound under the same protocol...
        let err = primo
            .session()
            .run_program(&Program {
                home: PartitionId(0),
                body: |ctx: &mut dyn TxnContext| {
                    ctx.write(PartitionId(0), T, FRESH_KEY, Value::from_u64(5))
                },
            })
            .unwrap_err();
        assert_eq!(err, AbortReason::NotFound, "{kind:?}: phantom survived");

        // ... and the aborted delete's target is still readable.
        primo
            .session()
            .run_program(&Program {
                home: PartitionId(0),
                body: |ctx: &mut dyn TxnContext| ctx.read(PartitionId(0), T, 2).map(|_| ()),
            })
            .unwrap();

        primo.shutdown();
    }
}

#[test]
fn committed_delete_is_reclaimed_and_stays_deleted() {
    for kind in ALL_KINDS {
        let primo = loaded(kind);
        primo
            .session()
            .run_program(&Program {
                home: PartitionId(0),
                body: |ctx: &mut dyn TxnContext| {
                    ctx.read(PartitionId(0), T, 1)?;
                    ctx.delete(PartitionId(0), T, 5)
                },
            })
            .unwrap();
        // The record is physically gone (deferred reclamation ran) and stays
        // deleted: reads and updates abort NotFound; re-insert succeeds.
        assert!(
            primo.session().get(PartitionId(0), T, 5).is_none()
                || primo
                    .cluster()
                    .partition(PartitionId(0))
                    .store
                    .get(T, 5)
                    .map(|r| r.state() == LifecycleState::Tombstone)
                    .unwrap_or(false),
            "{kind:?}: delete must tombstone (and normally reclaim) the record"
        );
        let err = primo
            .session()
            .run_program(&Program {
                home: PartitionId(0),
                body: |ctx: &mut dyn TxnContext| ctx.read(PartitionId(0), T, 5).map(|_| ()),
            })
            .unwrap_err();
        assert_eq!(err, AbortReason::NotFound, "{kind:?}");
        primo
            .session()
            .run_program(&Program {
                home: PartitionId(0),
                body: |ctx: &mut dyn TxnContext| {
                    ctx.insert(PartitionId(0), T, 5, Value::from_u64(777))
                },
            })
            .unwrap();
        assert_eq!(
            primo.session().get(PartitionId(0), T, 5).unwrap().as_u64(),
            777,
            "{kind:?}: re-insert after delete"
        );
        assert_clean_store(&primo, kind.label());
        primo.shutdown();
    }
}

/// A conflict abort *during the commit phase* — after insert records were
/// already materialised — must unwind them too. (Aria takes no locks, so its
/// lifecycle is covered by the user-abort path and its deterministic
/// decision point instead.)
#[test]
fn commit_phase_conflict_unwinds_materialised_inserts() {
    use primo_repro::common::PhaseTimers;
    use primo_repro::storage::{LockMode, LockPolicy};

    for kind in ALL_KINDS {
        if kind == ProtocolKind::Aria {
            continue;
        }
        let primo = loaded(kind);
        let cluster = primo.cluster();
        // An *older* transaction pins key 3 exclusively so the attempt under
        // test fails its write-set lock phase after creating FRESH_KEY.
        let blocker = TxnId::new(PartitionId(0), 0);
        let blocked = cluster.partition(PartitionId(0)).store.get(T, 3).unwrap();
        blocked.acquire(blocker, LockMode::Exclusive, LockPolicy::NoWait);

        let program = Program {
            home: PartitionId(0),
            body: |ctx: &mut dyn TxnContext| {
                ctx.insert(PartitionId(0), T, FRESH_KEY, Value::from_u64(1))?;
                ctx.write(PartitionId(0), T, 3, Value::from_u64(2))
            },
        };
        let txn = cluster.next_txn_id(PartitionId(0));
        let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
        let mut timers = PhaseTimers::new();
        let err = primo
            .protocol()
            .execute_once(
                cluster,
                &program,
                &ticket,
                &mut timers,
                primo_repro::ReadFanout::empty(),
            )
            .unwrap_err();
        cluster.group_commit.txn_aborted(&ticket);
        assert!(
            err.reason().is_conflict(),
            "{kind:?}: expected a conflict abort, got {err:?}"
        );
        assert!(
            cluster
                .partition(PartitionId(0))
                .store
                .get(T, FRESH_KEY)
                .is_none(),
            "{kind:?}: commit-phase abort left a phantom insert behind"
        );
        blocked.release(blocker);
        assert_clean_store(&primo, kind.label());
        primo.shutdown();
    }
}

/// The new YCSB insert/delete churn knob runs under every protocol.
#[test]
fn ycsb_churn_commits_under_every_protocol() {
    use primo_repro::{Experiment, Scale};
    for kind in ALL_KINDS {
        let snap = Experiment::new()
            .protocol(kind)
            .scale(Scale {
                duration_ms: 120,
                warmup_ms: 20,
                ..Scale::test()
            })
            .fast_local()
            .seed(kind as u64 + 1)
            .ycsb_with(|y| y.insert_delete_ratio = 0.3)
            .run();
        assert!(
            snap.committed > 0,
            "{}: churn workload committed nothing",
            kind.label()
        );
    }
}
