//! Log retention: every partition's log bounds itself by folding its
//! covered, quorum-durable prefix into the rolling checkpoint image from
//! the commit path — for every group-commit scheme, at replication factor 1
//! and 3 — and the image plus the retained tail always recovers the exact
//! committed store.
//!
//! * the bound: while the normal worker loop drives many fold passes'
//!   worth of commits, no replica ever retains more than what its scheme
//!   can leave uncovered (every client of both workers waiting) plus the
//!   chunks that arrived since the pass before last;
//! * the safety: with a peer held crashed the horizon stalls, the survivor's
//!   log is allowed to grow, and nothing the scheme does not cover reaches
//!   the image — checked by a function that a fold ignoring
//!   `checkpoint_bound` demonstrably trips (the falsification half);
//! * the Paxos-Commit vote: a fold in the prepare→decide window keeps the
//!   in-doubt vote, so recovery can still terminate the transaction;
//! * the cost: a fold touches one image record per folded write, whatever
//!   the image's size.

use primo_repro::common::Metrics;
use primo_repro::runtime::worker::spawn_workers;
use primo_repro::wal::{
    CheckpointImage, FoldScope, LogPayload, LoggedWrite, ReplayBound, ReplicatedLog, FOLD_CHUNK,
};
use primo_repro::{
    CommitMode, FastRng, Key, LoggingScheme, PartitionId, Primo, ProtocolKind, TableId, TxnContext,
    TxnId, TxnProgram, TxnResult, Value, Workload,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: TableId = TableId(0);
const KEYS: u64 = 256;
/// Inserted-then-deleted keys live above the loaded ones.
const CHURN_BASE: u64 = 1 << 32;
/// A churned key is deleted this many inserts after it was created.
const CHURN_LAG: u64 = 8;

/// Partitions of the driven clusters, one worker each.
const PARTITIONS: u32 = 2;

/// Write-sets a scheme may leave uncovered in one log: a worker keeps at
/// most 512 clients outstanding, and a transaction stays uncovered only
/// while its client waits for the group commit — so at most every client
/// of both workers, the home's and the peer's (whose distributed
/// transactions log their remote halves here).
const UNCOVERED_LIMIT: usize = PARTITIONS as usize * 512;

/// Entries a replica may retain: what its scheme has not covered, the two
/// chunks appended since the pass before last (a pass folds everything
/// covered that arrived before the previous one), and one more for the
/// entries that arrive while a pass is due.
const RETAINED_LIMIT: usize = UNCOVERED_LIMIT + 3 * FOLD_CHUNK;

/// One transaction of the driving workload: a read-modify-write at home,
/// sometimes one on the peer partition too, and sometimes an insert of a
/// fresh key paired with the delete of an older one — so the image sees
/// updates, inserts and deletes, and both logs see remote write-sets.
struct Touch {
    home: PartitionId,
    key: Key,
    remote: Option<(PartitionId, Key)>,
    /// Sequence number of the churn insert, if this transaction churns.
    churn: Option<u64>,
}

impl TxnProgram for Touch {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let v = ctx.read(self.home, T, self.key)?.as_u64();
        ctx.write(self.home, T, self.key, Value::from_u64(v + 1))?;
        if let Some((p, k)) = self.remote {
            let r = ctx.read(p, T, k)?.as_u64();
            ctx.write(p, T, k, Value::from_u64(r + 1))?;
        }
        if let Some(n) = self.churn {
            ctx.insert(self.home, T, CHURN_BASE + n, Value::from_u64(n))?;
            if n >= CHURN_LAG {
                ctx.delete(self.home, T, CHURN_BASE + n - CHURN_LAG)?;
            }
        }
        Ok(())
    }

    fn home_partition(&self) -> PartitionId {
        self.home
    }
}

/// One worker per partition, so a partition's churn sequence is generated
/// (and therefore committed) in order.
struct TouchWorkload {
    partitions: u32,
    churned: Vec<AtomicU64>,
}

impl TouchWorkload {
    fn new(partitions: u32) -> Self {
        TouchWorkload {
            partitions,
            churned: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Workload for TouchWorkload {
    fn name(&self) -> &'static str {
        "touch"
    }

    fn load_partition(&self, store: &primo_repro::storage::PartitionStore, _p: PartitionId) {
        for k in 0..KEYS {
            store.insert(T, k, Value::from_u64(0));
        }
    }

    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        let remote = (self.partitions > 1 && rng.next_below(8) == 0).then(|| {
            let peer = PartitionId((home.0 + 1) % self.partitions);
            (peer, rng.next_below(KEYS))
        });
        let churn = (rng.next_below(4) == 0)
            .then(|| self.churned[home.idx()].fetch_add(1, Ordering::Relaxed));
        Box::new(Touch {
            home,
            key: rng.next_below(KEYS),
            remote,
            churn,
        })
    }
}

fn visible(primo: &Primo, p: PartitionId) -> BTreeMap<(TableId, Key), Value> {
    primo
        .cluster()
        .partition(p)
        .store
        .snapshot_visible()
        .into_iter()
        .map(|(t, k, v, _ts)| ((t, k), v))
        .collect()
}

/// Drive `> 50` chunks of log entries per partition through the normal
/// worker loop while sampling every replica's retained length, then crash
/// and recover each partition in turn and compare the stores.
fn retention_holds(scheme: LoggingScheme, replication_factor: usize) {
    let label = format!("{}/rf{replication_factor}", scheme.label());
    let primo = Primo::builder()
        .partitions(PARTITIONS as usize)
        .workers_per_partition(1)
        .protocol(ProtocolKind::Primo)
        .logging(scheme)
        .replication_factor(replication_factor)
        .fast_local()
        .seed(scheme as u64 * 7 + replication_factor as u64)
        .build();
    let cluster = primo.cluster();
    let workload = Arc::new(TouchWorkload::new(PARTITIONS));
    for p in cluster.partition_ids() {
        workload.load_partition(&cluster.partition(p).store, p);
    }
    primo.checkpoint_all();

    let stop = Arc::new(AtomicBool::new(false));
    let workers = spawn_workers(
        cluster,
        primo.protocol(),
        &(workload as Arc<dyn Workload>),
        &Arc::new(Metrics::new()),
        &stop,
        &Arc::new(AtomicBool::new(false)),
    );

    let goal = (50 * FOLD_CHUNK + RETAINED_LIMIT) as u64;
    let deadline = Instant::now() + Duration::from_secs(240);
    let mut worst = 0usize;
    loop {
        for p in cluster.partition_ids() {
            let log = &cluster.partition(p).log;
            for r in 0..replication_factor {
                worst = worst.max(log.replica(r).len());
            }
        }
        assert!(
            worst <= RETAINED_LIMIT,
            "{label}: a replica retained {worst} entries (limit {RETAINED_LIMIT})"
        );
        if cluster
            .partition_ids()
            .all(|p| cluster.partition(p).log.end_lsn() >= goal)
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{label}: the workers never produced {goal} entries per partition"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker panicked");
    }
    // Between passes a log holds the chunk the last pass kept and what
    // arrived since: a run whose samples never saw more than a chunk proved
    // nothing about the bound.
    assert!(
        worst > FOLD_CHUNK,
        "{label}: no sample saw more than a chunk retained ({worst}) — the run proved nothing"
    );
    for p in cluster.partition_ids() {
        let (_, image) = cluster
            .partition(p)
            .log
            .latest_checkpoint()
            .expect("base image");
        assert!(
            image.base_lsn >= goal - RETAINED_LIMIT as u64,
            "{label}: partition {} folded only up to LSN {}",
            p.0,
            image.base_lsn
        );
    }

    // One more write-set per partition, committed through a session after
    // the workers stopped. A fold pass never folds what arrived after the
    // pass before it, so every log's retained tail now holds a write-set
    // and each recovery below has one to replay.
    let session = primo.session();
    for p in cluster.partition_ids() {
        let bumped = session.transaction(p, |ctx| {
            let v = ctx.read(p, T, 0)?.as_u64();
            ctx.write(p, T, 0, Value::from_u64(v + 1))
        });
        assert!(
            bumped.is_ok(),
            "{label}: the last write-set on {p:?} commits"
        );
    }
    // Let the scheme cover the last commits, so the crashes below roll
    // nothing back.
    std::thread::sleep(Duration::from_millis(30));
    let before: Vec<_> = cluster
        .partition_ids()
        .map(|p| visible(&primo, p))
        .collect();
    for p in cluster.partition_ids() {
        primo.crash_partition(p);
        let report = primo.recover_partition(p).expect("recovery ran");
        assert!(report.restored_records > 0, "{label}: image restored");
        assert!(
            report.replayed_txns > 0 && report.replayed_txns <= RETAINED_LIMIT,
            "{label}: replay is the retained tail, got {}",
            report.replayed_txns
        );
    }
    for (p, was) in cluster.partition_ids().zip(before) {
        assert_eq!(
            was,
            visible(&primo, p),
            "{label}: partition {} recovered from image + tail differs from the committed store",
            p.0
        );
    }
    primo.shutdown();
}

#[test]
fn logs_stay_bounded_and_recoverable_under_every_scheme_at_rf1() {
    for scheme in LoggingScheme::ALL {
        retention_holds(scheme, 1);
    }
}

#[test]
fn logs_stay_bounded_and_recoverable_under_every_scheme_at_rf3() {
    for scheme in LoggingScheme::ALL {
        retention_holds(scheme, 3);
    }
}

/// Execute `program` once and hand it to the group commit without waiting
/// for the outcome (a stalled horizon never acknowledges), then take the
/// commit path's retention step exactly like the worker loop does.
fn commit_unwaited(primo: &Primo, program: &dyn TxnProgram) {
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
            Ok(c) => {
                cluster.group_commit.txn_committed(&ticket, c.ts, c.ops);
                cluster.fold_due_logs();
                return;
            }
            Err(e) => {
                cluster.group_commit.txn_aborted(&ticket);
                assert!(e.reason().is_retryable(), "{:?}", e.reason());
            }
        }
    }
}

/// What the watermark scheme vouches for on `p` right now: commit
/// timestamps strictly below this can never be rolled back.
fn covered_below(primo: &Primo, p: PartitionId) -> u64 {
    let log = &primo.cluster().partition(p).log;
    match primo.cluster().group_commit.checkpoint_bound(p, log) {
        ReplayBound::Ts(bound) => bound,
        other => panic!("the watermark scheme bounds by timestamp, got {other:?}"),
    }
}

/// Records in `log`'s image with a commit timestamp at or above
/// `covered_below` — a crash could still roll those back, so there must be
/// none.
fn uncovered_in_image(log: &ReplicatedLog, covered_below: u64) -> usize {
    log.with_image(|image| {
        image
            .records
            .iter()
            .filter(|(_, (_, ts))| *ts >= covered_below)
            .count()
    })
    .expect("base image")
}

#[test]
fn a_stalled_horizon_lets_the_log_grow_and_keeps_uncovered_writes_out_of_the_image() {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(ProtocolKind::Primo)
        .fast_local()
        .build();
    let session = primo.session();
    for p in 0..2u32 {
        for k in 0..KEYS {
            session.load(PartitionId(p), T, k, Value::from_u64(0));
        }
    }
    primo.checkpoint_all();
    let (survivor, peer) = (PartitionId(0), PartitionId(1));
    // A few covered commits first, folded into the image.
    for k in 0..8 {
        session
            .transaction(survivor, move |ctx| {
                ctx.write(survivor, T, k, Value::from_u64(1))
            })
            .expect("covered commit");
    }
    std::thread::sleep(Duration::from_millis(10));
    primo.checkpoint_all();
    let log = &primo.cluster().partition(survivor).log;
    assert_eq!(uncovered_in_image(log, covered_below(&primo, survivor)), 0);

    // The peer goes down and stays down while a distributed transaction it
    // coordinates is in flight on the survivor: nobody finishes it, so its
    // registration pins the survivor's watermark (rule R1), the global
    // watermark stalls, and nothing the survivor commits from now on is
    // covered. (The crash alone would not stall the horizon here: in this
    // simulation a partition's watermark agent outlives its leader.)
    let gc = &primo.cluster().group_commit;
    let stuck = gc.begin_txn(peer, primo.cluster().next_txn_id(peer));
    gc.add_participant(&stuck, survivor, gc.ts_floor(survivor) + 1);
    primo.crash_partition(peer);
    let folded_before = log.latest_checkpoint().expect("image").1.base_lsn;
    let mut rng = FastRng::new(9);
    // Enough for many passes to find nothing to fold, and for a backlog of
    // several times the most a pass may take.
    let commits = 8 * FOLD_CHUNK;
    for _ in 0..commits {
        commit_unwaited(
            &primo,
            &Touch {
                home: survivor,
                key: rng.next_below(KEYS),
                remote: None,
                churn: None,
            },
        );
    }
    std::thread::sleep(Duration::from_millis(5));
    primo.cluster().fold_due_logs();
    assert!(
        log.len() >= commits,
        "the survivor's log must grow while the horizon is stalled, retained {}",
        log.len()
    );
    let folded_during = log.latest_checkpoint().expect("image").1.base_lsn;
    assert!(
        folded_during <= folded_before + 64,
        "a stalled horizon folds (next to) nothing: {folded_before} -> {folded_during}"
    );
    let stalled_at = covered_below(&primo, survivor);
    assert_eq!(
        uncovered_in_image(log, stalled_at),
        0,
        "an uncovered write reached the image"
    );

    // Falsification: a fold that ignores `checkpoint_bound` (everything
    // quorum-durable counts as covered) puts uncovered writes into the
    // image, and the check above catches it. Run it on a scratch twin so
    // the real cluster stays sound: same entries, same image, wrong bound.
    let twin = ReplicatedLog::single(survivor, 0);
    twin.install_base_image(log.with_image(CheckpointImage::clone).expect("image"));
    for e in log.entries_from(0) {
        twin.append((*e.payload).clone());
    }
    std::thread::sleep(Duration::from_millis(1));
    twin.fold(&ReplayBound::Lsn(u64::MAX), FoldScope::Everything, || true)
        .expect("the rogue fold ran");
    assert!(
        uncovered_in_image(&twin, stalled_at) > 0,
        "a fold ignoring the scheme's bound must be caught by the coverage check"
    );

    // The peer recovers, the orphaned transaction is aborted, the horizon
    // moves again, and the survivor's log folds back under its bound.
    primo.recover_partition(peer).expect("peer recovered");
    gc.txn_aborted(&stuck);
    std::thread::sleep(Duration::from_millis(20));
    let backlog_end = log.end_lsn();
    // A fold that found nothing to fold is not retried before another
    // chunk's worth of entries arrived; from then on every commit folds two
    // chunks until the backlog is gone (one more for the entries that
    // arrived after the last stalled pass).
    let backlog = log.len() + FOLD_CHUNK;
    for _ in 0..(FOLD_CHUNK + backlog.div_ceil(2 * FOLD_CHUNK) + 1) {
        commit_unwaited(
            &primo,
            &Touch {
                home: survivor,
                key: rng.next_below(KEYS),
                remote: None,
                churn: None,
            },
        );
    }
    let folded_to = log.latest_checkpoint().expect("image").1.base_lsn;
    assert!(
        folded_to >= backlog_end,
        "the backlog up to LSN {backlog_end} is gone, folded to {folded_to}"
    );
    assert!(
        log.len() <= RETAINED_LIMIT,
        "after the stall the log folds back under its bound, retained {}",
        log.len()
    );
    assert_eq!(uncovered_in_image(log, covered_below(&primo, survivor)), 0);
    primo.shutdown();
}

/// Regression (Gray & Lamport, *Consensus on Transaction Commit*: a
/// resource manager's vote stays on stable storage until the outcome is
/// known): a checkpoint in the prepare→decide window must not fold past
/// the durable, in-doubt `CommitVote` — recovery needs it to terminate the
/// transaction after the coordinator died.
#[test]
fn a_fold_keeps_an_in_doubt_paxos_commit_vote() {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(ProtocolKind::Primo)
        .commit_mode(CommitMode::PaxosCommit)
        .fast_local()
        .build();
    let session = primo.session();
    for p in 0..2u32 {
        session.load(PartitionId(p), T, 1, Value::from_u64(5));
    }
    primo.checkpoint_all();
    let participant = PartitionId(1);
    let log = &primo.cluster().partition(participant).log;

    // A resolved distributed transaction: vote, decision and write-set all
    // in the participant's log.
    session
        .transaction(PartitionId(0), move |ctx| {
            let v = ctx.read(PartitionId(0), T, 1)?.as_u64();
            ctx.write(PartitionId(0), T, 1, Value::from_u64(v + 1))?;
            ctx.write(participant, T, 1, Value::from_u64(v + 1))
        })
        .expect("resolved distributed commit");
    // The participant voted for a second transaction whose coordinator
    // died between prepare and decide: the vote is durable, nothing
    // resolves it.
    let in_doubt = TxnId::new(PartitionId(0), u64::MAX >> 8);
    let vote_lsn = log.append(LogPayload::CommitVote {
        txn: in_doubt,
        coordinator: PartitionId(0),
        commit: true,
    });
    // Later traffic behind the vote.
    session
        .transaction(participant, move |ctx| {
            ctx.write(participant, T, 1, Value::from_u64(77))
        })
        .expect("local commit behind the vote");
    std::thread::sleep(Duration::from_millis(20));

    primo.checkpoint_all();
    let (_, image) = log.latest_checkpoint().expect("image");
    assert!(
        image.base_lsn > 1,
        "the fold must make progress up to the vote (base {})",
        image.base_lsn
    );
    assert_eq!(
        image.base_lsn, vote_lsn,
        "the fold must stop at the in-doubt vote, not pass it"
    );
    assert_eq!(log.unresolved_commit_votes(None), vec![in_doubt]);

    // The participant crashes: recovery still finds the vote and seals the
    // presumed-abort verdict.
    primo.crash_partition(participant);
    let report = primo.recover_partition(participant).expect("recovered");
    assert_eq!(report.in_doubt_resolved, 1);
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(log.commit_decision_for(in_doubt, None), Some(false));
    assert_eq!(
        visible(&primo, participant).get(&(T, 1)),
        Some(&Value::from_u64(77))
    );
    // With the outcome durably known the vote no longer holds the fold.
    primo.checkpoint_all();
    assert!(log.latest_checkpoint().expect("image").1.base_lsn > vote_lsn);
    primo.shutdown();
}

/// Fold `ENTRIES` five-write entries into an image of `records` records, a
/// few rounds over: every round must touch exactly one image record per
/// folded write (`FoldStats::touched_records`) — a fold that cloned,
/// scanned or swept the image would touch all of it. The writes land on
/// `HOT` keys spread evenly over the image, the same number whatever its
/// size.
fn fold_touches_what_it_folds(records: u64) {
    const ENTRIES: u64 = 1_000;
    const ROUNDS: u64 = 5;
    const HOT: u64 = 2_000;
    let log = ReplicatedLog::single(PartitionId(0), 0);
    let mut image = CheckpointImage::default();
    for k in 0..records {
        image.records.insert((T, k), (Value::zeroed(100), 1));
    }
    log.install_base_image(image);
    let mut rng = FastRng::new(records);
    for round in 0..ROUNDS {
        for i in 0..ENTRIES {
            let seq = round * ENTRIES + i;
            log.append(LogPayload::TxnWrites {
                txn: TxnId::new(PartitionId(0), seq),
                ts: seq + 2,
                writes: (0..5)
                    .map(|_| {
                        let key = rng.next_below(HOT) * (records / HOT);
                        LoggedWrite::put(T, key, Value::zeroed(100))
                    })
                    .collect(),
            });
        }
        std::thread::sleep(Duration::from_millis(1));
        let stats = log
            .fold(&ReplayBound::Lsn(u64::MAX), FoldScope::Everything, || true)
            .expect("fold ran");
        assert_eq!(stats.folded_txns, ENTRIES as usize);
        assert_eq!(stats.image_records, records as usize);
        assert_eq!(
            stats.touched_records,
            5 * ENTRIES,
            "round {round} into {records} records touched more than it folded"
        );
        assert!(log.is_empty());
    }
}

/// A fold costs what it folds: the same 1 000 entries into an image a
/// hundred times larger touch the same 5 × 1 000 records each round —
/// nothing on the path clones, scans or sweeps the image.
#[test]
fn fold_cost_does_not_scale_with_the_image() {
    fold_touches_what_it_folds(10_000);
    fold_touches_what_it_folds(1_000_000);
}
