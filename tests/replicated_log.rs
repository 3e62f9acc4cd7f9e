//! One script, every replication factor. The replicated log has one append
//! path — into the leader's copy, followers catching up from it — so what a
//! caller can observe through the public API must not depend on how many
//! copies there are, except where a copy's *disk* is what is being lost.
//! Every row runs at RF 1, 3 and 5 through [`ReplicatedLog`] only.

use primo_repro::wal::{
    CheckpointImage, FoldScope, LogEntry, LogPayload, LoggedWrite, ReplayBound, ReplayedTxn,
    ReplicatedLog,
};
use primo_repro::{PartitionId, TableId, TxnId, Value, WalConfig};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const RFS: [usize; 3] = [1, 3, 5];
const P: PartitionId = PartitionId(0);

/// A log of `rf` copies whose disks all persist after `persist_us` (no
/// replication hop), so the quorum-ack delay is `persist_us` at every RF.
fn log_of(rf: usize, persist_us: u64) -> ReplicatedLog {
    let cfg = WalConfig {
        replication_factor: rf,
        persist_delay_us: persist_us,
        ..WalConfig::default()
    };
    let log = ReplicatedLog::new(P, cfg, 0, None);
    assert_eq!(log.quorum_ack_delay_us(), persist_us, "rf {rf}");
    log
}

fn txn(seq: u64) -> TxnId {
    TxnId::new(P, seq)
}

fn put(seq: u64, ts: u64) -> LogPayload {
    LogPayload::TxnWrites {
        txn: txn(seq),
        ts,
        writes: vec![LoggedWrite::put(TableId(0), seq, Value::from_u64(seq))],
    }
}

fn vote(seq: u64) -> LogPayload {
    LogPayload::CommitVote {
        txn: txn(seq),
        coordinator: P,
        commit: true,
    }
}

/// An entry without its append instant (the one thing two runs of the same
/// script cannot share).
fn shape(entries: &[LogEntry]) -> Vec<(u64, u64, String)> {
    entries
        .iter()
        .map(|e| (e.lsn, e.term, format!("{:?}", e.payload)))
        .collect()
}

fn replayed(txns: &[ReplayedTxn]) -> Vec<(TxnId, u64, Vec<u64>)> {
    txns.iter()
        .map(|(txn, ts, writes)| (*txn, *ts, writes.iter().map(|w| w.key).collect()))
        .collect()
}

/// Every copy holds the leader's retained entries, tuple for tuple.
fn assert_copies_identical(log: &ReplicatedLog, label: &str) {
    let leader = log.entries_from(0);
    for r in 0..log.replication_factor() {
        let copy = log.replica(r).entries_from(0);
        assert_eq!(log.replica(r).len(), leader.len(), "{label}: copy {r}");
        for (a, b) in copy.iter().zip(&leader) {
            assert_eq!(
                (a.lsn, a.appended_at_us, a.term),
                (b.lsn, b.appended_at_us, b.term),
                "{label}: copy {r}"
            );
            assert!(
                Arc::ptr_eq(&a.payload, &b.payload),
                "{label}: copy {r} holds its own payload at lsn {}",
                a.lsn
            );
        }
    }
}

#[test]
fn concurrent_appenders_get_dense_lsns_and_identical_copies() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 250;
    for rf in RFS {
        let log = log_of(rf, 0);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (log, start) = (&log, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        log.append(put(t * PER_THREAD + i, i + 1));
                    }
                });
            }
        });
        let total = THREADS * PER_THREAD;
        assert_eq!(log.end_lsn(), total, "rf {rf}");
        assert_eq!(log.len() as u64, total, "rf {rf}");
        let entries = log.entries_from(0);
        for (i, pair) in entries.windows(2).enumerate() {
            assert_eq!(pair[0].lsn, i as u64, "rf {rf}: gap in the LSN sequence");
            assert!(
                pair[0].appended_at_us <= pair[1].appended_at_us,
                "rf {rf}: append instants run backwards at lsn {i}"
            );
        }
        assert_copies_identical(&log, &format!("rf {rf}"));
    }
}

/// Everything the fixed script below lets a caller read.
#[derive(Debug, PartialEq)]
struct Observed {
    entries: Vec<(u64, u64, String)>,
    tail: Vec<(u64, u64, String)>,
    replay_all: Vec<(TxnId, u64, Vec<u64>)>,
    replay_window: Vec<(TxnId, u64, Vec<u64>)>,
    replay_prefix: usize,
    decisions: [Option<bool>; 2],
    votes: [Option<bool>; 2],
    in_doubt: Vec<TxnId>,
    in_doubt_at_cut: Vec<TxnId>,
    rolled_back: Vec<TxnId>,
    to_compensate: Vec<(TxnId, u64, Vec<u64>)>,
    watermark: Option<u64>,
    fold: (usize, usize, usize),
    image: Vec<(u64, u64)>,
    image_base: u64,
    retained_after_fold: Vec<(u64, u64, String)>,
}

fn run_script(rf: usize) -> Observed {
    let log = log_of(rf, 0);
    log.install_base_image(CheckpointImage::default());
    log.append(put(1, 5));
    log.append(LogPayload::Watermark { wp: 6 });
    log.append(vote(2));
    log.append(put(2, 7)); // resolves vote 2: its commit ran to completion
    let in_doubt_vote = log.append(vote(3)); // never resolved
    log.append(put(4, 50));
    log.append(LogPayload::TxnRolledBack { txn: txn(4) });
    log.append(vote(5));
    let decision = log.append(LogPayload::CommitDecision {
        txn: txn(5),
        commit: false,
    });
    log.append(put(6, 60));
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(log.durable_lsn(), Some(log.end_lsn() - 1), "rf {rf}");

    let entries = shape(&log.entries_from(0));
    let tail = shape(&log.entries_from(in_doubt_vote));
    let replay_all = replayed(&log.replay_range(0, &ReplayBound::Ts(u64::MAX), None));
    let replay_window = replayed(&log.replay_range(2, &ReplayBound::Lsn(decision), Some(decision)));
    let replay_prefix = log.replay_prefix(10).len();
    let decisions = [
        log.commit_decision_for(txn(5), None),
        log.commit_decision_for(txn(3), None),
    ];
    let votes = [
        log.commit_vote_for(txn(3), None),
        log.commit_vote_for(txn(3), Some(in_doubt_vote - 1)),
    ];
    let in_doubt = log.unresolved_commit_votes(None);
    // Below the decision, transaction 5's vote is in doubt too.
    let in_doubt_at_cut = log.unresolved_commit_votes(Some(decision - 1));
    let mut rolled_back: Vec<TxnId> = log.rolled_back_txns().into_iter().collect();
    rolled_back.sort();
    let to_compensate = replayed(&log.collect_rolled_back(&ReplayBound::Ts(55), None));
    let watermark = log.latest_durable_watermark();

    // The fold absorbs the covered prefix and stops at the in-doubt vote, on
    // every copy alike.
    let stats = log
        .fold(&ReplayBound::Ts(10), FoldScope::Everything, || true)
        .expect("fold ran");
    let (image, image_base) = log
        .with_image(|image| {
            let records = image
                .records
                .iter()
                .map(|((_, key), (_, ts))| (*key, *ts))
                .collect();
            (records, image.base_lsn)
        })
        .expect("image");
    assert_eq!(image_base, in_doubt_vote, "rf {rf}");
    assert_copies_identical(&log, &format!("rf {rf}, folded"));

    Observed {
        entries,
        tail,
        replay_all,
        replay_window,
        replay_prefix,
        decisions,
        votes,
        in_doubt,
        in_doubt_at_cut,
        rolled_back,
        to_compensate,
        watermark,
        fold: (
            stats.folded_txns,
            stats.truncated_entries,
            stats.image_records,
        ),
        image,
        image_base,
        retained_after_fold: shape(&log.entries_from(0)),
    }
}

#[test]
fn the_same_script_reads_the_same_at_every_replication_factor() {
    let single = run_script(1);
    // What the script means, stated once against the single copy.
    assert_eq!(single.entries.len(), 11, "install marker + ten appends");
    assert_eq!(
        single.replay_all,
        vec![
            (txn(1), 5, vec![1]),
            (txn(2), 7, vec![2]),
            (txn(6), 60, vec![6])
        ],
        "the rolled-back transaction is never replayed"
    );
    assert_eq!(single.replay_window, vec![(txn(2), 7, vec![2])]);
    assert_eq!(single.replay_prefix, 2);
    assert_eq!(single.decisions, [Some(false), None]);
    assert_eq!(single.votes, [Some(true), None]);
    assert_eq!(single.in_doubt, vec![txn(3)]);
    assert_eq!(single.in_doubt_at_cut, vec![txn(3), txn(5)]);
    assert_eq!(single.rolled_back, vec![txn(4)]);
    assert_eq!(single.to_compensate, vec![(txn(6), 60, vec![6])]);
    assert_eq!(single.watermark, Some(6));
    assert_eq!(single.fold, (2, 5, 2));
    assert_eq!(single.image, vec![(1, 5), (2, 7)]);
    assert_eq!(single.retained_after_fold.len(), 6);
    for rf in [3, 5] {
        assert_eq!(run_script(rf), single, "rf {rf} differs from rf 1");
    }
}

#[test]
fn a_burst_nobody_read_survives_the_leaders_disk_and_is_unacked_until_its_delay_ran() {
    const BURST: u64 = 50;
    const PERSIST_MS: u64 = 60;
    for rf in RFS {
        let log = log_of(rf, PERSIST_MS * 1_000);
        for seq in 0..BURST {
            log.append(put(seq, seq + 1));
        }
        // No read, no white-box access since the first append: whatever the
        // followers hold now, they must hold everything before the leader's
        // disk goes.
        let successor = log.fail_over(true);
        assert_eq!(log.term(), 1, "rf {rf}");
        assert_eq!(log.end_lsn(), BURST, "rf {rf}: the LSN counter survives");
        if rf == 1 {
            // The only copy is gone, and says so.
            assert_eq!(successor, 0, "a ring of one elects itself");
            assert_eq!(log.leader_changes(), 0);
            assert!(log.is_empty());
        } else {
            assert_eq!(successor, 1, "rf {rf}: deterministic ring successor");
            assert_eq!(log.replica(0).len(), 0, "rf {rf}: the wiped disk");
            for r in 1..rf {
                assert_eq!(log.replica(r).len() as u64, BURST, "rf {rf}: copy {r}");
            }
            assert_eq!(log.len() as u64, BURST);
        }
        // Physically on the survivors is not acknowledged: inside the ack
        // delay the burst is below no quorum horizon.
        assert_eq!(log.durable_lsn(), None, "rf {rf}");
        assert!(!log.is_durable(0), "rf {rf}");
        assert!(log.replay_prefix(u64::MAX).is_empty(), "rf {rf}");
        assert_eq!(log.crash_horizon(), None, "rf {rf}");
        std::thread::sleep(Duration::from_millis(PERSIST_MS + 20));
        if rf == 1 {
            assert_eq!(log.durable_lsn(), None, "a wiped sole copy never votes");
            assert!(log
                .replay_range(0, &ReplayBound::Ts(u64::MAX), Some(BURST))
                .is_empty());
            assert_eq!(log.repair_replicas(), 0);
            // History is lost, service is not: the next append continues
            // the LSN sequence and becomes durable.
            assert_eq!(log.append(put(BURST, BURST + 1)), BURST);
        } else {
            // The delay ran on the surviving majority's own disks, from the
            // original append instants.
            assert_eq!(log.durable_lsn(), Some(BURST - 1), "rf {rf}");
            assert_eq!(log.replay_prefix(u64::MAX).len() as u64, BURST);
            assert_eq!(log.repair_replicas(), 1, "rf {rf}");
            assert_copies_identical(&log, &format!("rf {rf}, repaired"));
        }
    }
}

#[test]
fn a_follower_wiped_while_lagging_stays_aligned_does_not_vote_and_is_reseeded() {
    for rf in RFS {
        let log = log_of(rf, 0);
        for seq in 0..10 {
            log.append(put(seq, seq + 1));
        }
        // Nothing has consulted a follower yet. Wipe just enough copies,
        // from the back, to break the quorum — at RF 1 that is the leader's
        // own and only copy.
        let wiped: Vec<usize> = (log.quorum() - 1..rf).collect();
        for &r in &wiped {
            assert_eq!(
                log.wipe_replica(r),
                10,
                "rf {rf}: copy {r} was fed before its disk went"
            );
        }
        for seq in 10..15 {
            log.append(put(seq, seq + 1));
        }
        std::thread::sleep(Duration::from_millis(2));
        for &r in &wiped {
            let lsns: Vec<u64> = log
                .replica(r)
                .entries_from(0)
                .iter()
                .map(|e| e.lsn)
                .collect();
            assert_eq!(
                lsns,
                (10..15).collect::<Vec<u64>>(),
                "rf {rf}: copy {r} keeps receiving, LSN-aligned, above its hole"
            );
        }
        assert_eq!(
            log.durable_lsn(),
            None,
            "rf {rf}: what a wiped copy received since fakes no quorum"
        );
        let wiped_followers = wiped.iter().filter(|&&r| r != log.leader_index()).count();
        assert_eq!(log.repair_replicas(), wiped_followers, "rf {rf}");
        assert_eq!(log.durable_lsn(), Some(14), "rf {rf}");
        assert_copies_identical(&log, &format!("rf {rf}, repaired"));
        let history = if rf == 1 { 5 } else { 15 };
        assert_eq!(log.len(), history, "rf {rf}");
        assert_eq!(log.end_lsn(), 15, "rf {rf}");
    }
}
