//! Versions die at the horizon: the history a record retains for snapshot
//! readers is what is younger than the group commit's snapshot horizon — not
//! `max_versions - 1` entries per record ever rewritten — and it gets there
//! from the commit path, with no checkpoint and no sweep.
//!
//! * the bound, under the engine's own workers, with snapshot readers
//!   beside them that must neither see a torn state nor be pushed onto the
//!   fallback path;
//! * the crash: while a crash agreement is open nothing at or above it is
//!   reclaimed, a compensated record still answers the horizons below it,
//!   and a recovery leaves no stale entry queued;
//! * every group-commit scheme drives it with its own horizon.

use primo_repro::common::{Metrics, PhaseTimers};
use primo_repro::runtime::worker::spawn_workers;
use primo_repro::runtime::{execute_snapshot, SnapshotOutcome};
use primo_repro::storage::SnapshotRead;
use primo_repro::{
    ClosureProgram, FastRng, Key, LoggingScheme, PartitionId, Primo, ProtocolKind, ReadFanout,
    TableId, TxnContext, TxnProgram, TxnResult, Value, Workload,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const P0: PartitionId = PartitionId(0);
const P1: PartitionId = PartitionId(1);
const T: TableId = TableId(0);

/// Two hundred keys in a hundred pairs `(k, k + 100)`; a transaction moves
/// one unit between the halves of a pair, so every pair always sums to
/// `2 * INITIAL` in any state a serial history passes through.
const KEYS: u64 = 200;
const PAIRS: u64 = KEYS / 2;
const INITIAL: u64 = 1_000_000;

struct Transfer {
    home: PartitionId,
    pair: Key,
    forward: bool,
}

impl TxnProgram for Transfer {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let (from, to) = if self.forward {
            (self.pair, self.pair + PAIRS)
        } else {
            (self.pair + PAIRS, self.pair)
        };
        let a = ctx.read(self.home, T, from)?.as_u64();
        let b = ctx.read(self.home, T, to)?.as_u64();
        ctx.write(self.home, T, from, Value::from_u64(a - 1))?;
        ctx.write(self.home, T, to, Value::from_u64(b + 1))
    }
    fn home_partition(&self) -> PartitionId {
        self.home
    }
}

struct Transfers;

impl Workload for Transfers {
    fn name(&self) -> &'static str {
        "pair-transfers"
    }
    fn load_partition(&self, store: &primo_repro::storage::PartitionStore, _p: PartitionId) {
        for k in 0..KEYS {
            store.insert(T, k, Value::from_u64(INITIAL));
        }
    }
    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        Box::new(Transfer {
            home,
            pair: rng.next_below(PAIRS),
            forward: rng.next_below(2) == 0,
        })
    }
}

fn build(scheme: LoggingScheme, partitions: usize) -> (Primo, Arc<dyn Workload>) {
    let primo = Primo::builder()
        .partitions(partitions)
        .protocol(ProtocolKind::Primo)
        .logging(scheme)
        .fast_local()
        // Deep chains: a key rewritten many times inside one horizon lag
        // (200 hot keys, a debug build's starved agents) overflows a chain
        // of 4, and that fallback is not reclamation's doing. Without
        // reclamation, chains this deep fill up: 31 versions a key.
        .max_versions(32)
        .build();
    let workload: Arc<dyn Workload> = Arc::new(Transfers);
    for p in primo.cluster().partition_ids() {
        workload.load_partition(&primo.cluster().partition(p).store, p);
    }
    // The base image recovery restores from; never again in these tests.
    primo.checkpoint_all();
    (primo, workload)
}

/// History versions retained by partition `p`'s records, all of them.
fn retained_versions(primo: &Primo, p: PartitionId) -> usize {
    let store = &primo.cluster().partition(p).store;
    let chain = |k| store.get(T, k).map_or(0, |r| r.version_chain_len());
    (0..KEYS).map(chain).sum()
}

/// Run the engine's workers until `commits` results are released.
fn drive(primo: &Primo, workload: &Arc<dyn Workload>, commits: u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(Metrics::new());
    let workers = spawn_workers(
        primo.cluster(),
        primo.protocol(),
        workload,
        &metrics,
        &stop,
        &Arc::new(AtomicBool::new(true)),
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    while metrics.committed() < commits {
        assert!(Instant::now() < deadline, "the workers stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("a worker panicked");
    }
}

// ---- (1) + (2): the bound, beside snapshot readers ----

#[test]
fn chains_hold_what_the_horizon_has_not_passed_and_readers_do_not_notice() {
    let (primo, workload) = build(LoggingScheme::Watermark, 1);
    let cluster = primo.cluster();
    let stop_readers = AtomicBool::new(false);
    let (answered, fell_back) = (AtomicU64::new(0), AtomicU64::new(0));

    std::thread::scope(|s| {
        for reader in 0..2u64 {
            let (stop_readers, answered, fell_back) = (&stop_readers, &answered, &fell_back);
            s.spawn(move || {
                let mut rng = FastRng::new(0xFEED + reader);
                while !stop_readers.load(Ordering::Relaxed) {
                    // A few whole pairs at one horizon.
                    let pairs: Vec<Key> = (0..4).map(|_| rng.next_below(PAIRS)).collect();
                    let sums = std::sync::Mutex::new(Vec::new());
                    let sweep = ClosureProgram::new(P0, |ctx| {
                        for pair in &pairs {
                            let a = ctx.read(P0, T, *pair)?.as_u64();
                            let b = ctx.read(P0, T, *pair + PAIRS)?.as_u64();
                            sums.lock().unwrap().push(a + b);
                        }
                        Ok(())
                    })
                    .read_only();
                    match execute_snapshot(cluster, &sweep) {
                        SnapshotOutcome::Done(result) => {
                            result.expect("loaded keys exist at every horizon");
                            for sum in sums.into_inner().unwrap() {
                                assert_eq!(sum, 2 * INITIAL, "a torn pair at the horizon");
                            }
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        SnapshotOutcome::Fallback => {
                            fell_back.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        drive(&primo, &workload, 20_000);
        stop_readers.store(true, Ordering::Relaxed);
    });

    // Three intervals on, with no checkpoint taken: before reclamation every
    // key kept `max_versions - 1` superseded versions (600 in all at the
    // default depth of 4, 6 200 at this one).
    std::thread::sleep(Duration::from_millis(3 * cluster.config.wal.interval_ms));
    let retained = retained_versions(&primo, P0);
    assert!(retained <= KEYS as usize, "{retained} versions retained");
    assert!(cluster.pruned_versions() > 10_000);

    let (answered, fell_back) = (answered.into_inner(), fell_back.into_inner());
    assert!(answered > 100, "only {answered} snapshot sweeps answered");
    assert!(
        100 * fell_back <= answered + fell_back,
        "{fell_back} of {} sweeps fell back to the protocol path",
        answered + fell_back
    );
    primo.shutdown();
}

// ---- (3): a crash agreement ----

/// One attempt of `program`, handed to the group commit without waiting for
/// the durable outcome — how a worker commits. Returns its timestamp.
fn commit_without_waiting(primo: &Primo, program: &dyn TxnProgram) -> u64 {
    let cluster = primo.cluster();
    let home = program.home_partition();
    let txn = cluster.next_txn_id(home);
    let ticket = cluster.group_commit.begin_txn(home, txn);
    let (fanout, mut timers) = (ReadFanout::empty(), PhaseTimers::new());
    let commit = (primo.protocol())
        .execute_once(cluster, program, &ticket, &mut timers, fanout)
        .expect("nothing conflicts");
    let _waiter = (cluster.group_commit).txn_committed(&ticket, commit.ts, commit.ops);
    commit.ts
}

/// Write `value` to key 7 of both partitions.
fn write_both(value: u64) -> impl TxnProgram {
    ClosureProgram::new(P0, move |ctx| {
        for p in [P0, P1] {
            ctx.read(p, T, 7)?;
            ctx.write(p, T, 7, Value::from_u64(value))?;
        }
        Ok(())
    })
}

/// A session is told `Committed` by its coordinator's view of the watermark;
/// the cluster-wide horizon is every partition's, and follows a bus delay
/// later.
fn reclaim_once_the_horizon_reaches(primo: &Primo, ts: u64) {
    while primo.cluster().snapshot_horizon() < ts {
        std::thread::sleep(Duration::from_millis(1));
    }
    primo.cluster().reclaim_due_versions();
}

/// A cluster whose key 7 holds 1 durably (its superseded version reclaimed)
/// and 2 not yet durably: the commit a crash of P1 rolls back. Returns the
/// two commit timestamps.
fn one_durable_one_undurable_write() -> (Primo, u64, u64) {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(ProtocolKind::Primo)
        .fast_local()
        // Nothing becomes durable unless somebody waits for it.
        .wal_interval_ms(500)
        .build();
    let session = primo.session();
    for p in [P0, P1] {
        session.load(p, T, 7, Value::from_u64(0));
    }
    primo.checkpoint_all();
    session.run_program(&write_both(1)).expect("commits");
    let record = primo.cluster().partition(P0).store.get(T, 7).unwrap();
    let durable = record.timestamps().0;
    reclaim_once_the_horizon_reaches(&primo, durable);
    assert_eq!(record.version_chain_len(), 0, "the loaded version is dead");
    let undurable = commit_without_waiting(&primo, &write_both(2));
    assert_eq!(record.version_chain_len(), 1);
    (primo, durable, undurable)
}

#[test]
fn an_open_crash_agreement_holds_the_drain_below_it() {
    let (primo, _, undurable) = one_durable_one_undurable_write();
    let cluster = primo.cluster();
    let queued = |p| cluster.partition(p).versions_awaiting_horizon();
    assert_eq!((queued(P0), queued(P1)), (1, 1));
    // The agreement, without the compensation that follows it in a crash.
    let agreed = cluster.group_commit.on_partition_crash(P1);
    assert!(agreed <= undurable, "the second write is rolled back");
    assert!(cluster.snapshot_horizon() < agreed);
    let pruned = cluster.pruned_versions();
    cluster.reclaim_due_versions();
    assert_eq!((queued(P0), queued(P1)), (1, 1), "reclaimed past the cap");
    assert_eq!(cluster.pruned_versions(), pruned);
    cluster.group_commit.on_compensation_complete();
    primo.shutdown();
}

#[test]
fn a_compensated_record_answers_below_the_agreement_and_recovery_empties_the_queue() {
    let (primo, durable, undurable) = one_durable_one_undurable_write();
    let cluster = primo.cluster();
    let agreed = cluster.crash_partition(P1);
    assert!(durable < agreed && agreed <= undurable);
    // The survivor's half was reverted; the version the rolled-back install
    // superseded is still there for every horizon it was current at.
    let record = cluster.partition(P0).store.get(T, 7).unwrap();
    assert_eq!(record.read().value.as_u64(), 1);
    for horizon in [durable, agreed - 1, agreed, cluster.snapshot_horizon()] {
        assert_eq!(
            record.read_at(horizon),
            SnapshotRead::Value(Value::from_u64(1)),
            "at horizon {horizon} (agreed {agreed})"
        );
    }
    // The crashed partition's queue names records its recovery wipes.
    assert_eq!(cluster.partition(P1).versions_awaiting_horizon(), 1);
    primo.recover_partition(P1).expect("recovered");
    assert_eq!(cluster.partition(P1).versions_awaiting_horizon(), 0);
    // Reclaiming at the horizon of the healed cluster changes no answer.
    primo
        .session()
        .run_program(&write_both(3))
        .expect("commits");
    reclaim_once_the_horizon_reaches(&primo, record.timestamps().0);
    let horizon = cluster.snapshot_horizon();
    for p in [P0, P1] {
        let record = cluster.partition(p).store.get(T, 7).unwrap();
        assert_eq!(
            record.read_at(horizon),
            SnapshotRead::Value(Value::from_u64(3))
        );
    }
    primo.shutdown();
}

// ---- (4): every scheme's own horizon drives the drain ----

#[test]
fn every_scheme_reclaims_at_its_own_horizon() {
    for scheme in [
        LoggingScheme::Watermark,
        LoggingScheme::CocoEpoch,
        LoggingScheme::Clv,
        LoggingScheme::SyncPerTxn,
    ] {
        let (primo, workload) = build(scheme, 2);
        drive(&primo, &workload, 2_000);
        let cluster = primo.cluster();
        std::thread::sleep(Duration::from_millis(3 * cluster.config.wal.interval_ms));
        assert!(
            cluster.pruned_versions() > 1_000,
            "{scheme:?}: {} versions reclaimed",
            cluster.pruned_versions()
        );
        for p in [P0, P1] {
            let retained = retained_versions(&primo, p);
            assert!(
                retained <= KEYS as usize,
                "{scheme:?}: {p} retains {retained} versions"
            );
        }
        primo.shutdown();
    }
}
