//! The latency breakdown is a fold over the flight recorder
//! (`Timeline::phase_breakdown`): a hand-built timeline pins its event →
//! phase table, a lossy ring says so, a fold fed while the rings record
//! equals the fold of their merge, and seeded worker runs of Primo, Sundial
//! and Aria at the default ring capacity show that the window's breakdown
//! covers the window, that every covered transaction's phases add up to
//! exactly its traced latency — and that each protocol's own waits land in
//! its own phases.

use primo_repro::common::config::TraceConfig;
use primo_repro::runtime::experiment::{run_on_cluster, ExperimentOptions};
use primo_repro::trace::PhaseFold;
use primo_repro::{
    AbortReason, FlightRecorder, LoggingScheme, PartitionId, Phase, Primo, ProtocolKind, TableId,
    TraceEvent, TraceEventKind, TxnId, Value, Workload, YcsbConfig, YcsbWorkload,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const P0: PartitionId = PartitionId(0);
const P1: PartitionId = PartitionId(1);

fn emit_all(rec: &FlightRecorder, txn: Option<TxnId>, events: &[(u64, TraceEventKind)]) {
    for &(at_us, kind) in events {
        rec.emit_at(at_us, txn, Some(P0), kind);
    }
}

fn vote(flight_us: u64, late_us: u64) -> TraceEventKind {
    TraceEventKind::Vote {
        ok: true,
        flight_us,
        late_us,
    }
}

fn decision(commit: bool, flight_us: u64, late_us: u64) -> TraceEventKind {
    TraceEventKind::DecisionReached {
        commit,
        in_doubt: false,
        flight_us,
        late_us,
    }
}

/// A transaction through two 2PC attempts: the first fails validation after
/// its vote round and backs off 700 us, the retry (its read fan-out sent
/// before its `Begin`) votes, decides over an acknowledged round and is
/// released by the group commit 1 ms after `Committed`.
fn retried_2pc_txn() -> Vec<(u64, TraceEventKind)> {
    use TraceEventKind::*;
    let failed = ValidationOutcome {
        ok: false,
        reason: Some(AbortReason::Validation),
    };
    let passed = ValidationOutcome {
        ok: true,
        reason: None,
    };
    vec![
        (1_000, Begin { attempt: 1 }),
        (1_200, PrefetchHit),
        (1_300, Prepare { participants: 1 }),
        (1_600, vote(250, 50)),
        (1_620, ValidationStart),
        (1_640, failed),
        (1_650, decision(false, 0, 0)),
        (
            1_660,
            Abort {
                reason: AbortReason::Validation,
                backoff_us: 700,
            },
        ),
        (2_500, Begin { attempt: 2 }),
        (
            2_520,
            PrefetchIssued {
                partitions: 1,
                keys: 2,
                sent_us_ago: 300,
                flight_us: 250,
            },
        ),
        (2_700, Prepare { participants: 1 }),
        (3_000, vote(260, 40)),
        (3_030, CommitTsReserved { ts: 9, took_us: 20 }),
        (3_040, ValidationStart),
        (3_060, passed),
        (3_100, WalAppend { lsn: 4, term: 1 }),
        (3_420, decision(true, 250, 20)),
        (
            3_430,
            Committed {
                ts: 9,
                durable: false,
            },
        ),
        (4_430, GroupCommitRelease { committed: true }),
    ]
}

#[test]
fn the_table_charges_every_gap_of_a_retried_2pc_transaction() {
    let rec = FlightRecorder::new(true, 256);
    let txn = TxnId::new(P0, 1);
    let events = retried_2pc_txn();
    emit_all(&rec, Some(txn), &events);
    // Another transaction and partition-wide events interleave; they are not
    // this one's.
    let other = TxnId::new(P0, 2);
    emit_all(
        &rec,
        Some(other),
        &[(1_500, TraceEventKind::LockWait { owner: txn })],
    );
    emit_all(
        &rec,
        None,
        &[(2_000, TraceEventKind::WatermarkPublish { wg: 3 })],
    );

    let b = rec.merge().phase_breakdown(..);
    assert_eq!((b.covered, b.skipped), (1, 0), "{b:?}");
    // The back-off is the wait the abort drew, to the microsecond.
    assert_eq!(b.us(Phase::Backoff), 700);
    // 2PC is the flight + late of every round the transaction waited for.
    let rounds: u64 = (events.iter())
        .map(|(_, k)| match *k {
            TraceEventKind::Vote {
                flight_us, late_us, ..
            }
            | TraceEventKind::DecisionReached {
                flight_us, late_us, ..
            } => flight_us + late_us,
            _ => 0,
        })
        .sum();
    assert_eq!((b.us(Phase::TwoPc), rounds), (870, 870));
    // The phases sum to release - first begin.
    assert_eq!(b.phase_us.iter().sum::<u64>(), 4_430 - 1_000);
    assert_eq!(b.latency_us, 4_430 - 1_000);
    // The rest of the table: the bodies and the retry's queue and flight are
    // execution, the reservation the timestamp carries is timestamp work,
    // certify / log / install / release is commit, and the wait for the
    // group commit is return.
    let expected = [
        (Phase::Execute, 200 + 100 + 140 + 20 + 180),
        (Phase::Timestamp, 20),
        (
            Phase::Commit,
            20 + 20 + 10 + 10 + 10 + 10 + 20 + 40 + 50 + 10,
        ),
        (Phase::Return, 1_000),
        (Phase::WaitBatch, 0),
        (Phase::Sequence, 0),
    ];
    for (phase, us) in expected {
        assert_eq!(b.us(phase), us, "{}", phase.label());
    }
}

#[test]
fn only_committed_transactions_followed_from_their_first_attempt_are_covered() {
    use TraceEventKind::*;
    let rec = FlightRecorder::new(true, 256);
    let txn = |seq| Some(TxnId::new(P0, seq));
    let (committed, durable) = (
        Committed {
            ts: 1,
            durable: false,
        },
        Committed {
            ts: 1,
            durable: true,
        },
    );
    // Its first attempt is gone (attempts are numbered from 1): skipped.
    emit_all(
        &rec,
        txn(1),
        &[
            (100, Begin { attempt: 2 }),
            (150, committed),
            (400, GroupCommitRelease { committed: true }),
        ],
    );
    // Rolled back by a crash before its result was released: no commit.
    emit_all(
        &rec,
        txn(2),
        &[
            (100, Begin { attempt: 1 }),
            (150, committed),
            (400, GroupCommitRelease { committed: false }),
        ],
    );
    // Waiting for the group commit: no result yet.
    emit_all(
        &rec,
        txn(5),
        &[(100, Begin { attempt: 1 }), (150, committed)],
    );
    // Durable at `Committed` (a protocol that manages its own durability):
    // it ends there, and it began when its fan-out was sent.
    emit_all(
        &rec,
        txn(3),
        &[
            (
                200,
                PrefetchIssued {
                    partitions: 1,
                    keys: 1,
                    sent_us_ago: 120,
                    flight_us: 100,
                },
            ),
            (190, Begin { attempt: 1 }),
            (260, durable),
        ],
    );
    // Still running: nothing to say yet.
    emit_all(&rec, txn(4), &[(300, Begin { attempt: 1 })]);
    // A snapshot read has no id; its execution is its latency.
    emit_all(
        &rec,
        None,
        &[(
            500,
            SnapshotRead {
                horizon: 1,
                exec_us: 40,
            },
        )],
    );

    let tl = rec.merge();
    let b = tl.phase_breakdown(..);
    assert_eq!((b.covered, b.skipped), (2, 1), "{b:?}");
    assert_eq!(b.us(Phase::Execute), (190 - 80) + 70 + 40);
    assert_eq!(b.latency_us, (260 - 80) + 40);
    // A window counts the transactions that ended inside it.
    let early = tl.phase_breakdown(0..=300);
    assert_eq!((early.covered, early.skipped), (1, 0), "{early:?}");
    assert_eq!(tl.phase_breakdown(301..).covered, 1);
    assert_eq!(tl.phase_breakdown(301..).skipped, 1);
}

#[test]
fn a_lossy_ring_is_counted_and_skipped_not_guessed() {
    use TraceEventKind::*;
    let rec = FlightRecorder::new(true, 8);
    for seq in 0..3u64 {
        let at = 100 * seq;
        let events = [
            (at, Begin { attempt: 1 }),
            (
                at + 10,
                Committed {
                    ts: seq,
                    durable: false,
                },
            ),
            (at + 30, GroupCommitRelease { committed: true }),
        ];
        emit_all(&rec, Some(TxnId::new(P0, seq)), &events);
    }
    // Nine events into eight slots: the first transaction's `Begin` is gone.
    assert_eq!(rec.events_dropped(), 1);
    let b = rec.merge().phase_breakdown(..);
    assert_eq!((b.covered, b.skipped), (2, 1), "{b:?}");
    assert_eq!(b.us(Phase::Return), 2 * 20);
    let report = rec.failure_report(&[TxnId::new(P0, 99)]);
    assert!(report.contains("dropped 1 older event(s)"), "{report}");
}

#[test]
fn an_aria_barrier_carries_its_wait_and_the_batch_round() {
    use TraceEventKind::*;
    let rec = FlightRecorder::new(true, 64);
    let barrier = |wait_us, round_us| BatchBarrier { wait_us, round_us };
    let events = [
        (100, Begin { attempt: 1 }),
        (400, BatchSequenced { wait_us: 280 }),
        (500, barrier(40, 30)),
        (560, barrier(50, 0)),
        (
            570,
            Committed {
                ts: 1,
                durable: true,
            },
        ),
    ];
    emit_all(&rec, Some(TxnId::new(P0, 1)), &events);
    let b = rec.merge().phase_breakdown(..);
    let expected = [
        (Phase::Execute, 20 + 30),
        (Phase::Sequence, 280),
        (Phase::WaitBatch, 40 + 50),
        (Phase::TwoPc, 30),
        (Phase::Commit, 10 + 10),
    ];
    for (phase, us) in expected {
        assert_eq!(b.us(phase), us, "{}", phase.label());
    }
    assert_eq!(b.phase_us.iter().sum::<u64>(), 570 - 100);
}

#[test]
fn a_fold_fed_while_recording_equals_the_fold_of_the_merged_timeline() {
    let rec = Arc::new(FlightRecorder::new(true, 256));
    let events = retried_2pc_txn();
    let (head, tail) = events.split_at(events.len() / 2);
    let mut fed = PhaseFold::default();
    for part in [head.to_vec(), tail.to_vec()] {
        let emitter = Arc::clone(&rec);
        // Each part from a thread (and so a ring) of its own.
        std::thread::spawn(move || emit_all(&emitter, Some(TxnId::new(P0, 1)), &part))
            .join()
            .unwrap();
        rec.fold_phases(&mut fed, ..);
    }
    rec.fold_phases(&mut fed, ..);
    let merged = rec.merge().phase_breakdown(..);
    assert_eq!((merged.covered, merged.skipped), (1, 0), "{merged:?}");
    assert_eq!(fed.breakdown(), merged);
}

/// Where one transaction's traced latency starts and ends, read straight off
/// its events — independently of the fold.
fn traced_latency_us(events: &[TraceEvent]) -> Option<u64> {
    use TraceEventKind::*;
    let begin = events.iter().position(|e| e.kind == Begin { attempt: 1 })?;
    let committed = events
        .iter()
        .rposition(|e| matches!(e.kind, Committed { .. }))?;
    let end = match events[committed..]
        .iter()
        .find(|e| matches!(e.kind, GroupCommitRelease { .. }))
    {
        _ if matches!(events[committed].kind, Committed { durable: true, .. }) => {
            events[committed].at_us
        }
        Some(e) if e.kind == (GroupCommitRelease { committed: true }) => e.at_us,
        _ => return None,
    };
    let first_attempt = events[begin..]
        .iter()
        .take_while(|e| !matches!(e.kind, Abort { .. }));
    let sent = first_attempt
        .filter_map(|e| match e.kind {
            PrefetchIssued { sent_us_ago, .. } => Some(e.at_us - sent_us_ago),
            _ => None,
        })
        .next();
    let start = sent.unwrap_or(u64::MAX).min(events[begin].at_us);
    Some(end - start)
}

/// A facade session's transaction is a worker's client: its group commit's
/// release is in the stream, so the fold covers it like any other, and its
/// wait for the watermark is charged to Return.
#[test]
fn a_session_transaction_is_covered_from_its_begin_to_its_release() {
    let primo = Primo::builder().partitions(2).fast_local().build();
    assert_eq!(primo.cluster().config.wal.scheme, LoggingScheme::Watermark);
    let (session, t) = (primo.session(), TableId(0));
    session.load(P0, t, 1, Value::from_u64(1));
    session.load(P1, t, 2, Value::from_u64(2));
    session
        .transaction(P0, |ctx| {
            let (a, b) = (ctx.read(P0, t, 1)?, ctx.read(P1, t, 2)?);
            ctx.write(P0, t, 1, b)?;
            ctx.write(P1, t, 2, a)
        })
        .expect("an idle cluster commits");
    let b = primo.cluster().recorder.merge().phase_breakdown(..);
    assert_eq!((b.covered, b.skipped), (1, 0), "{b:?}");
    assert_eq!(b.phase_us.iter().sum::<u64>(), b.latency_us, "{b:?}");
    assert!(b.us(Phase::Return) > 0, "{b:?}");
    primo.shutdown();
}

#[test]
fn seeded_runs_add_up_and_each_protocol_waits_where_it_should() {
    for kind in [
        ProtocolKind::Primo,
        ProtocolKind::Sundial,
        ProtocolKind::Aria,
    ] {
        let primo = Primo::builder()
            .partitions(2)
            .workers_per_partition(1)
            .protocol(kind)
            .fast_local()
            .seed(11)
            .tweak(|c| c.trace = TraceConfig::default())
            .build();
        let cluster = primo.cluster();
        let workload: Arc<dyn Workload> = Arc::new(YcsbWorkload::new(YcsbConfig::small(2)));
        for p in cluster.partition_ids() {
            workload.load_partition(&cluster.partition(p).store, p);
        }
        let options = ExperimentOptions {
            warmup: Duration::from_millis(30),
            duration: Duration::from_millis(200),
            ..Default::default()
        };
        let snap = run_on_cluster(cluster, Arc::clone(primo.protocol()), workload, &options);
        let name = kind.label();

        // At the default ring capacity the breakdown covers the whole
        // window — it skips at most the few transactions whose first `Begin`
        // was gone from the rings when the window opened — and the mean of
        // its summed phases is the mean commit latency.
        let (covered, skipped) = (snap.phase_covered, snap.phase_skipped);
        let window = format!("{name}: {covered} covered, {skipped} skipped, {snap:?}");
        assert!(covered > 0 && skipped * 50 <= covered, "{window}");
        assert!((covered + skipped) * 20 >= snap.committed * 19, "{window}");
        let summed_ms: f64 = snap.phase_ms.values().sum();
        let off = (summed_ms - snap.mean_latency_ms).abs();
        assert!(
            off <= snap.mean_latency_ms / 20.0,
            "{summed_ms} ms: {window}"
        );

        let tl = cluster.recorder.merge();
        let all = tl.phase_breakdown(..);
        assert!(all.covered > 0, "{name}: nothing covered: {all:?}");
        assert_eq!(all.phase_us.iter().sum::<u64>(), all.latency_us, "{name}");
        let txns: HashSet<TxnId> = tl.events().iter().filter_map(|e| e.txn).collect();
        let mut checked = 0;
        for txn in txns {
            let mine = tl.for_txn(txn);
            let one = mine.phase_breakdown(..);
            if one.covered == 0 {
                continue;
            }
            let traced = traced_latency_us(mine.events()).expect("a covered txn committed");
            assert_eq!(
                one.phase_us.iter().sum::<u64>(),
                traced,
                "{name}: {txn}'s phases do not add up to its latency:\n{mine}"
            );
            checked += 1;
        }
        assert!(checked > 0, "{name}: no transaction checked");

        match kind {
            ProtocolKind::Aria => {
                assert!(
                    snap.phase(Phase::WaitBatch) > 0.0,
                    "{name}: {:?}",
                    snap.phase_ms
                );
                assert!(
                    snap.phase(Phase::Sequence) > 0.0,
                    "{name}: {:?}",
                    snap.phase_ms
                );
            }
            // Watermark (Primo) and COCO epochs (Sundial): results wait for
            // the group commit.
            _ => assert!(
                snap.phase(Phase::Return) > 0.0,
                "{name}: {:?}",
                snap.phase_ms
            ),
        }
        primo.shutdown();
    }
}
