//! The access-context contract, stated once and checked for **every**
//! registered protocol: what a transaction body may rely on from
//! [`TxnContext`] — read-your-writes, the delete/insert merge rules, the
//! sticky abort, crash visibility — and what every abort must leave behind
//! (no locks, no transient records, a byte-identical store). The rows that
//! only make sense for one read policy (2PL's read locks, Primo's mode
//! switch and dummy reads) run for the kinds that have it.
//!
//! Every row drives exactly one attempt through the protocol the facade's
//! registry builds, so an abort is observed as such instead of being retried
//! away by [`Session::transaction`](primo_repro::Session::transaction).

use primo_repro::storage::{LifecycleState, LockMode, LockPolicy, LockRequestResult, Record};
use primo_repro::{
    AbortReason, ClosureProgram, CommittedTxn, Footprint, PartitionId, Primo, ProtocolKind,
    ReadFanout, TableId, TxnContext, TxnError, TxnId, TxnResult, Value,
};
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// The kinds whose reads switch from optimistic to locked on the first
/// remote access, with whether the switch is write-conflict-free (exclusive
/// locks + dummy reads) or not (shared locks).
const SWITCHING: [(ProtocolKind, bool); 3] = [
    (ProtocolKind::Primo, true),
    (ProtocolKind::PrimoNoWm, true),
    (ProtocolKind::PrimoNoWcfNoWm, false),
];

const OPTIMISTIC: [ProtocolKind; 4] = [
    ProtocolKind::Silo,
    ProtocolKind::Sundial,
    ProtocolKind::Aria,
    ProtocolKind::Tapir,
];

const P0: PartitionId = PartitionId(0);
const P1: PartitionId = PartitionId(1);
const BOTH: [PartitionId; 2] = [P0, P1];
const T: TableId = TableId(0);
const LOADED_KEYS: u64 = 32;
const FRESH: u64 = 9_000;
const MISSING: u64 = 7_777;

fn loaded(kind: ProtocolKind) -> Primo {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(kind)
        .fast_local()
        .build();
    let session = primo.session();
    for p in BOTH {
        for k in 0..LOADED_KEYS {
            session.load(p, T, k, Value::from_u64(k + 100));
        }
    }
    primo
}

fn record(primo: &Primo, p: PartitionId, key: u64) -> Arc<Record> {
    primo
        .cluster()
        .partition(p)
        .store
        .get(T, key)
        .unwrap_or_else(|| panic!("{p:?}/{key} exists"))
}

/// One attempt of `body` with home partition 0 through the handle's
/// protocol — no retry — with the group commit told how it ended. Returns
/// what committed or the abort reason, and the participants the attempt
/// registered.
fn attempt_with(
    primo: &Primo,
    fanout: ReadFanout,
    body: impl Fn(&mut dyn TxnContext) -> TxnResult<()> + Send + Sync,
) -> (Result<CommittedTxn, AbortReason>, Vec<PartitionId>) {
    let cluster = primo.cluster();
    let txn = cluster.next_txn_id(P0);
    let ticket = cluster.group_commit.begin_txn(P0, txn);
    let outcome =
        primo
            .protocol()
            .execute_once(cluster, &ClosureProgram::new(P0, body), &ticket, fanout);
    let outcome = match outcome {
        Ok(commit) => {
            cluster
                .group_commit
                .txn_committed(&ticket, commit.ts, commit.ops);
            Ok(commit)
        }
        Err(e) => {
            cluster.group_commit.txn_aborted(&ticket);
            Err(e.reason())
        }
    };
    (outcome, ticket.participants())
}

fn attempt(
    primo: &Primo,
    body: impl Fn(&mut dyn TxnContext) -> TxnResult<()> + Send + Sync,
) -> Result<(), AbortReason> {
    attempt_with(primo, ReadFanout::empty(), body).0.map(|_| ())
}

/// Key and payload of every *visible* record (TicToc metadata excluded:
/// reads legitimately extend leases and raise watermark floors even when
/// the transaction later aborts).
fn snapshot(primo: &Primo) -> BTreeMap<(u32, u64), Vec<u8>> {
    let mut out = BTreeMap::new();
    for p in BOTH {
        let table = primo.cluster().partition(p).store.table(T);
        for k in table.scan_keys(|_| true) {
            let rec = table.get(k).expect("scanned key exists");
            out.insert((p.0, k), rec.read().value.as_bytes().to_vec());
        }
    }
    out
}

/// No record anywhere is locked or left in a transient lifecycle state.
fn assert_no_residue(primo: &Primo, label: &str) {
    for p in BOTH {
        let table = primo.cluster().partition(p).store.table(T);
        for k in table.scan_keys(|_| true) {
            let rec = table.get(k).expect("scanned key exists");
            assert!(!rec.lock().is_locked(), "{label}: leaked lock on {p:?}/{k}");
            assert!(
                !matches!(rec.state(), LifecycleState::UncommittedInsert { .. }),
                "{label}: uncommitted insert left behind on {p:?}/{k}"
            );
        }
    }
}

/// Whether a foreign transaction could share-lock the record right now —
/// i.e. nobody holds it exclusively.
fn shareable(rec: &Record) -> bool {
    let probe = TxnId::new(P1, 999_999);
    let granted = rec.acquire(probe, LockMode::Shared, LockPolicy::NoWait);
    rec.release(probe);
    granted == LockRequestResult::Granted
}

#[test]
fn a_transaction_reads_its_own_writes_and_inserts() {
    for kind in ALL_KINDS {
        for target in BOTH {
            let primo = loaded(kind);
            attempt(&primo, |ctx| {
                ctx.write(target, T, 5, Value::from_u64(777))?;
                assert_eq!(ctx.read(target, T, 5)?.as_u64(), 777);
                ctx.insert(target, T, FRESH, Value::from_u64(5))?;
                assert_eq!(ctx.read(target, T, FRESH)?.as_u64(), 5);
                // A put over the buffered insert still creates the record.
                ctx.write(target, T, FRESH, Value::from_u64(6))?;
                assert_eq!(ctx.read(target, T, FRESH)?.as_u64(), 6);
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{kind:?}/{target:?}: {e:?}"));
            assert_eq!(record(&primo, target, 5).read().value.as_u64(), 777);
            assert_eq!(record(&primo, target, FRESH).read().value.as_u64(), 6);
            assert_no_residue(&primo, &format!("{kind:?}/{target:?}"));
            primo.shutdown();
        }
    }
}

#[test]
fn a_read_or_put_after_the_transactions_own_delete_is_not_found() {
    for kind in ALL_KINDS {
        for target in BOTH {
            let label = format!("{kind:?}/{target:?}");
            let primo = loaded(kind);
            let before = snapshot(&primo);
            let err = attempt(&primo, |ctx| {
                ctx.delete(target, T, 4)?;
                ctx.read(target, T, 4).map(|_| ())
            });
            assert_eq!(err, Err(AbortReason::NotFound), "{label}: read");
            let err = attempt(&primo, |ctx| {
                // A put turned into a delete hides the key just the same.
                ctx.write(target, T, 4, Value::from_u64(1))?;
                ctx.delete(target, T, 4)?;
                ctx.write(target, T, 4, Value::from_u64(2))
            });
            assert_eq!(err, Err(AbortReason::NotFound), "{label}: put");
            let err = attempt(&primo, |ctx| {
                ctx.delete(target, T, 4)?;
                ctx.delete(target, T, 4)
            });
            assert_eq!(err, Err(AbortReason::NotFound), "{label}: second delete");
            assert_eq!(snapshot(&primo), before, "{label}");
            assert_no_residue(&primo, &label);
            primo.shutdown();
        }
    }
}

#[test]
fn insert_then_delete_leaves_no_entry_and_no_record() {
    for kind in ALL_KINDS {
        for target in BOTH {
            let label = format!("{kind:?}/{target:?}");
            let primo = loaded(kind);
            let before = snapshot(&primo);
            let (commit, _) = attempt_with(&primo, ReadFanout::empty(), |ctx| {
                // Touch the target first, so a switching context is already
                // distributed and its dummy read materialises the record the
                // delete then has to cancel.
                ctx.read(target, T, 1)?;
                ctx.insert(target, T, FRESH, Value::from_u64(1))?;
                ctx.delete(target, T, FRESH)
            });
            let commit = commit.unwrap_or_else(|e| panic!("{label}: {e:?}"));
            // The one read is all the attempt did: no write entry survived.
            assert_eq!(commit.ops, 1, "{label}");
            let table = primo.cluster().partition(target).store.table(T);
            assert!(table.get(FRESH).is_none(), "{label}: record left behind");
            assert_eq!(snapshot(&primo), before, "{label}");
            // The key still does not exist: an update of it is NotFound.
            let err = attempt(&primo, |ctx| {
                ctx.write(target, T, FRESH, Value::from_u64(2))
            });
            assert_eq!(err, Err(AbortReason::NotFound), "{label}");
            assert_no_residue(&primo, &label);
            primo.shutdown();
        }
    }
}

#[test]
fn delete_then_insert_recreates_the_key() {
    for kind in ALL_KINDS {
        for target in BOTH {
            let label = format!("{kind:?}/{target:?}");
            let primo = loaded(kind);
            attempt(&primo, |ctx| {
                ctx.delete(target, T, 3)?;
                ctx.insert(target, T, 3, Value::from_u64(777))?;
                assert_eq!(ctx.read(target, T, 3)?.as_u64(), 777);
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label}: {e:?}"));
            assert_eq!(record(&primo, target, 3).read().value.as_u64(), 777);
            assert_no_residue(&primo, &label);
            primo.shutdown();
        }
    }
}

#[test]
fn a_dead_context_keeps_its_first_reason() {
    for kind in ALL_KINDS {
        for target in BOTH {
            let label = format!("{kind:?}/{target:?}");
            let primo = loaded(kind);
            let before = snapshot(&primo);
            let err = attempt(&primo, |ctx| {
                ctx.write(target, T, 1, Value::from_u64(1))?;
                let first = ctx.read(target, T, MISSING).unwrap_err().reason();
                assert_eq!(first, AbortReason::NotFound, "{label}");
                // Every later operation fails with that same reason …
                let ops: [TxnResult<()>; 4] = [
                    ctx.read(target, T, 2).map(|_| ()),
                    ctx.write(target, T, 2, Value::from_u64(2)),
                    ctx.insert(target, T, FRESH, Value::from_u64(3)),
                    ctx.delete(target, T, 3),
                ];
                for op in ops {
                    assert_eq!(op.unwrap_err().reason(), first, "{label}");
                }
                // … and it outranks whatever the body returns afterwards.
                Err(TxnError::Aborted(AbortReason::UserAbort))
            });
            assert_eq!(err, Err(AbortReason::NotFound), "{label}");
            assert_eq!(snapshot(&primo), before, "{label}");
            assert_no_residue(&primo, &label);
            primo.shutdown();
        }
    }
}

/// Regression: a body that swallows a failed operation and returns `Ok`
/// must abort with the sticky reason — not commit the writes it buffered
/// before the failure (2PL, Silo, Sundial and TAPIR used to).
#[test]
fn a_swallowed_context_error_commits_nothing() {
    for kind in ALL_KINDS {
        for target in BOTH {
            let label = format!("{kind:?}/{target:?}");
            let primo = loaded(kind);
            let before = snapshot(&primo);
            let err = attempt(&primo, |ctx| {
                ctx.write(target, T, 1, Value::from_u64(1))?;
                let _ = ctx.read(target, T, MISSING);
                Ok(())
            });
            assert_eq!(err, Err(AbortReason::NotFound), "{label}");
            assert_eq!(
                snapshot(&primo),
                before,
                "{label}: half a transaction committed"
            );
            assert_no_residue(&primo, &label);
            primo.shutdown();
        }
    }
}

#[test]
fn a_crashed_partition_fails_remote_access_even_on_a_fanout_hit() {
    for kind in ALL_KINDS {
        let label = format!("{kind:?}");
        let primo = loaded(kind);
        let cluster = primo.cluster();
        let before = snapshot(&primo);

        // Prefetch key 2 while the partition is still up, then crash it.
        let mut fanout = ReadFanout::empty();
        let plan = Footprint::from_keys(P0, vec![(P1, T, 2)]);
        fanout.resolve(cluster, P0, cluster.next_txn_id(P0), &plan);
        cluster.net.set_crashed(P1, true);

        let err = attempt(&primo, |ctx| ctx.read(P1, T, 1).map(|_| ()));
        assert_eq!(err, Err(AbortReason::RemoteUnavailable), "{label}: miss");
        // The buffered version would answer the read without a round trip —
        // the crash must fail it all the same.
        let (err, _) = attempt_with(&primo, fanout, |ctx| {
            ctx.read(P0, T, 1)?;
            let trips = cluster.net.round_trips_charged();
            let read = ctx.read(P1, T, 2).map(|_| ());
            assert_eq!(
                cluster.net.round_trips_charged(),
                trips,
                "{label}: a hit pays no round trip"
            );
            read
        });
        assert_eq!(
            err.err(),
            Some(AbortReason::RemoteUnavailable),
            "{label}: hit"
        );

        cluster.net.set_crashed(P1, false);
        assert_eq!(snapshot(&primo), before, "{label}");
        assert_no_residue(&primo, &label);
        primo.shutdown();
    }
}

#[test]
fn a_write_only_transaction_on_a_crashed_home_commits_nothing() {
    // Blind local writes are only buffered (no read, no dummy read before
    // the mode switch), so nothing in the body ever looks at the home
    // partition's health: the fence has to stand in front of the body.
    let blind_writes = |ctx: &mut dyn TxnContext| {
        ctx.write(P0, T, 1, Value::from_u64(1_001))?;
        ctx.write(P0, T, 2, Value::from_u64(1_002))
    };
    for kind in ALL_KINDS {
        let label = format!("{kind:?}");
        let primo = loaded(kind);
        let cluster = primo.cluster();
        let before = snapshot(&primo);

        cluster.net.set_crashed(P0, true);
        assert_eq!(
            attempt(&primo, blind_writes),
            Err(AbortReason::RemoteUnavailable),
            "{label}"
        );
        assert_eq!(snapshot(&primo), before, "{label}: nothing installed");
        assert_no_residue(&primo, &label);

        // Recovery marks the partition `Up`: the same program commits.
        cluster.net.set_crashed(P0, false);
        assert_eq!(attempt(&primo, blind_writes), Ok(()), "{label}: back up");
        assert_eq!(
            record(&primo, P0, 1).read().value.as_u64(),
            1_001,
            "{label}"
        );
        assert_no_residue(&primo, &label);
        primo.shutdown();
    }
}

#[test]
fn every_abort_frees_every_lock_and_leaves_the_store_byte_identical() {
    for kind in ALL_KINDS {
        for target in BOTH {
            let label = format!("{kind:?}/{target:?}");
            let primo = loaded(kind);
            let before = snapshot(&primo);

            // A user abort after every kind of operation.
            let err = attempt(&primo, |ctx| {
                ctx.read(target, T, 1)?;
                ctx.insert(target, T, FRESH, Value::from_u64(1))?;
                ctx.delete(target, T, 2)?;
                ctx.write(target, T, 3, Value::from_u64(999))?;
                Err(TxnError::Aborted(AbortReason::UserAbort))
            });
            assert_eq!(err, Err(AbortReason::UserAbort), "{label}");
            assert_eq!(snapshot(&primo), before, "{label}: user abort");
            assert_no_residue(&primo, &label);

            // An abort the commit path raises: the update of a key that was
            // never created fails at resolution, after the insert before it
            // may already have materialised its record.
            let err = attempt(&primo, |ctx| {
                ctx.read(P0, T, 1)?;
                ctx.insert(target, T, FRESH, Value::from_u64(1))?;
                ctx.write(target, T, MISSING, Value::from_u64(1))
            });
            assert_eq!(err, Err(AbortReason::NotFound), "{label}");
            assert_eq!(snapshot(&primo), before, "{label}: commit-time abort");
            assert_no_residue(&primo, &label);

            // A conflict abort: a foreign, older transaction holds a record
            // of the write set exclusively.
            let blocker = TxnId::new(P0, 0);
            let held = record(&primo, target, 6);
            held.acquire(blocker, LockMode::Exclusive, LockPolicy::NoWait);
            let err = attempt(&primo, |ctx| {
                ctx.insert(target, T, FRESH, Value::from_u64(1))?;
                ctx.update_with(target, T, 5, &mut |v| Value::from_u64(v.as_u64() + 1))?;
                ctx.write(target, T, 6, Value::from_u64(1))
            });
            // Aria never locks: its deterministic commit simply wins.
            if kind == ProtocolKind::Aria {
                assert_eq!(err, Ok(()), "{label}");
            } else {
                let reason = err.expect_err(&label);
                assert!(reason.is_conflict(), "{label}: {reason:?}");
                held.release(blocker);
                assert_eq!(snapshot(&primo), before, "{label}: conflict abort");
                assert_no_residue(&primo, &label);
            }
            primo.shutdown();
        }
    }
}

#[test]
fn optimistic_reads_take_no_locks() {
    for kind in OPTIMISTIC {
        let primo = loaded(kind);
        attempt(&primo, |ctx| {
            for p in BOTH {
                ctx.read(p, T, 1)?;
                assert!(!record(&primo, p, 1).lock().is_locked(), "{kind:?}/{p:?}");
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{kind:?}: {e:?}"));
        primo.shutdown();
    }
}

#[test]
fn two_pl_reads_hold_shared_locks_and_a_denied_one_aborts_by_policy() {
    let kinds = [
        (ProtocolKind::TwoPlNoWait, AbortReason::LockConflict),
        (ProtocolKind::TwoPlWaitDie, AbortReason::WaitDie),
    ];
    for (kind, denied) in kinds {
        let primo = loaded(kind);
        let before = snapshot(&primo);
        let err = attempt(&primo, |ctx| {
            for p in BOTH {
                ctx.read(p, T, 1)?;
                let rec = record(&primo, p, 1);
                assert!(rec.lock().is_locked(), "{kind:?}/{p:?}");
                assert!(shareable(&rec), "{kind:?}/{p:?}: read lock is shared");
            }
            Err(TxnError::Aborted(AbortReason::UserAbort))
        });
        assert_eq!(err, Err(AbortReason::UserAbort));
        assert_no_residue(&primo, &format!("{kind:?}"));

        // An older transaction holds the record exclusively: the younger
        // reader is denied, and stays dead.
        let older = TxnId::new(P0, 0);
        let held = record(&primo, P1, 2);
        held.acquire(older, LockMode::Exclusive, LockPolicy::NoWait);
        let err = attempt(&primo, |ctx| {
            ctx.read(P0, T, 1)?;
            let first = ctx.read(P1, T, 2).unwrap_err().reason();
            assert_eq!(ctx.read(P0, T, 3).unwrap_err().reason(), first);
            Ok(())
        });
        assert_eq!(err, Err(denied), "{kind:?}");
        held.release(older);
        assert_eq!(snapshot(&primo), before);
        assert_no_residue(&primo, &format!("{kind:?}"));
        primo.shutdown();
    }
}

#[test]
fn switching_reads_lock_nothing_until_the_first_remote_access() {
    for (kind, wcf) in SWITCHING {
        let label = format!("{kind:?}");
        let primo = loaded(kind);
        let (outcome, participants) = attempt_with(&primo, ReadFanout::empty(), |ctx| {
            ctx.read(P0, T, 1)?;
            ctx.write(P0, T, 8, Value::from_u64(1))?;
            let early = record(&primo, P0, 1);
            assert!(!early.lock().is_locked(), "{label}: local read locked");
            assert!(!record(&primo, P0, 8).lock().is_locked(), "{label}");

            // The first remote access locks the earlier read too …
            ctx.read(P1, T, 2)?;
            let remote = record(&primo, P1, 2);
            assert!(early.lock().is_locked(), "{label}: earlier read unlocked");
            assert!(remote.lock().is_locked(), "{label}: remote read unlocked");
            // … exclusively under WCF, shared without it …
            assert_eq!(shareable(&early), !wcf, "{label}");
            assert_eq!(shareable(&remote), !wcf, "{label}");
            // … and so is every later read, local ones included.
            ctx.read(P0, T, 3)?;
            assert!(record(&primo, P0, 3).lock().is_locked(), "{label}");

            // Blind writes — the one buffered while local and a new one —
            // are pre-locked by dummy reads under WCF, and only there.
            ctx.write(P1, T, 4, Value::from_u64(99))?;
            for (p, k) in [(P0, 8), (P1, 4)] {
                let rec = record(&primo, p, k);
                assert_eq!(rec.lock().is_locked(), wcf, "{label}: {p:?}/{k}");
                assert!(!wcf || !shareable(&rec), "{label}: dummy read is exclusive");
            }
            Ok(())
        });
        let commit = outcome.unwrap_or_else(|e| panic!("{label}: {e:?}"));
        assert!(commit.distributed, "{label}");
        assert_eq!(participants, vec![P1], "{label}");
        assert_eq!(record(&primo, P1, 4).read().value.as_u64(), 99, "{label}");
        assert_no_residue(&primo, &label);
        primo.shutdown();
    }
}

#[test]
fn the_mode_switch_aborts_on_a_read_that_changed_and_a_younger_reader_dies() {
    for (kind, _) in SWITCHING {
        let label = format!("{kind:?}");
        let primo = loaded(kind);

        // A record read in local mode is overwritten before the switch.
        let err = attempt(&primo, |ctx| {
            ctx.read(P0, T, 1)?;
            let rec = record(&primo, P0, 1);
            rec.install(Value::from_u64(1), rec.wts() + 10);
            ctx.read(P1, T, 2).map(|_| ())
        });
        assert_eq!(err, Err(AbortReason::ModeSwitch), "{label}");
        assert_no_residue(&primo, &label);

        // WAIT_DIE after the switch: an older transaction holds the record.
        let before = snapshot(&primo);
        let older = TxnId::new(P0, 0);
        let held = record(&primo, P1, 5);
        held.acquire(older, LockMode::Exclusive, LockPolicy::NoWait);
        let err = attempt(&primo, |ctx| {
            ctx.read(P1, T, 2)?;
            let first = ctx.read(P1, T, 5).unwrap_err().reason();
            assert_eq!(ctx.read(P0, T, 1).unwrap_err().reason(), first);
            Ok(())
        });
        assert_eq!(err, Err(AbortReason::WaitDie), "{label}");
        held.release(older);
        assert_eq!(snapshot(&primo), before, "{label}");
        assert_no_residue(&primo, &label);
        primo.shutdown();
    }
}
