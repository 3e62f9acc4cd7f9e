//! The trace event vocabulary and its fixed-width wire encoding.
//!
//! Every event is a `Copy` value that encodes into four `u64` words (one
//! discriminant + three payload words) so the ring buffer can store it in
//! pre-allocated atomic slots — no allocation, no pointer chasing, no Drop —
//! and decode it back losslessly at merge time.

use primo_common::{AbortReason, PartitionId, Ts, TxnId};
use std::fmt;

/// Sentinel for "no transaction" in the packed txn word ([`TxnId::pack`]
/// never produces it: the coordinator field is only 16 bits).
pub(crate) const NO_TXN: u64 = u64::MAX;
/// Sentinel for "no partition" in the packed partition half-word.
pub(crate) const NO_PARTITION: u32 = u32::MAX;

/// Why a watermark agent closed a group (generated a partition watermark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatermarkCause {
    /// The interval `t_m` elapsed (the heartbeat).
    Interval,
    /// A peer's `Wp` showed this idle partition holding `Wg` back.
    IdleLag,
    /// A client is blocked on a commit the last watermark does not cover.
    Demand,
}

/// What happened. One variant per instrumentation point in the transaction
/// lifecycle; payloads are the few words a post-mortem actually needs
/// (owners, timestamps, LSNs, horizons), not full payload dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A worker started (attempt > 0: restarted) a transaction attempt.
    Begin { attempt: u32 },
    /// A lock request was denied (WAIT_DIE / NO_WAIT): the packed owner is
    /// whoever held the record when the requester died.
    LockWait { owner: TxnId },
    /// The commit phase began validating the read set.
    ValidationStart,
    /// Validation finished: `ok`, or the abort reason on failure.
    ValidationOutcome {
        ok: bool,
        reason: Option<AbortReason>,
    },
    /// The group-commit layer reserved (or finalized) the commit timestamp.
    CommitTsReserved { ts: Ts },
    /// 2PC prepare round sent to `participants` partitions.
    Prepare { participants: u32 },
    /// 2PC vote outcome taken up by the coordinator: the round spent
    /// `flight_us` on the wire and its replies then waited `late_us` for the
    /// worker (`at - late_us` is when the votes were back).
    Vote {
        ok: bool,
        flight_us: u64,
        late_us: u64,
    },
    /// One `TxnWrites` entry appended to a partition's replicated log.
    WalAppend { lsn: u64, term: u64 },
    /// A committer blocked on the partition's log sequencer for `wait_us`
    /// before acquiring it.
    SequencerWait { wait_us: u64 },
    /// A catch-up carried `entries` entries of the leader's tail to the
    /// followers; `durable_lsn` is the last LSN it carried, which bounds
    /// what it can make quorum-durable.
    QuorumAck { entries: u64, durable_lsn: u64 },
    /// The group-commit scheme released the transaction to the client.
    GroupCommitRelease { committed: bool },
    /// The transaction committed at `ts` (results returned to the client).
    Committed { ts: Ts },
    /// The attempt aborted. `backoff_us` is how long its client backs off
    /// before the retry — the transaction's next `Begin` is at least that
    /// much later — and 0 when the abort is final.
    Abort {
        reason: AbortReason,
        backoff_us: u64,
    },
    /// A read-only transaction was served lock-free from the MVCC snapshot
    /// at the durable group-commit horizon.
    SnapshotRead { horizon: Ts },
    /// The watermark scheme published a new group watermark (Wg).
    WatermarkPublish { wg: Ts },
    /// A watermark agent generated the partition watermark `wp` (published
    /// one quorum-ack delay later). `demanded` is the highest commit
    /// timestamp a blocked client was waiting for at that moment, 0 if none.
    WatermarkGenerate {
        wp: Ts,
        cause: WatermarkCause,
        demanded: Ts,
    },
    /// The COCO-style scheme sealed an epoch.
    EpochSealed { epoch: u64 },
    /// The CLV scheme advanced its cut (committed-LSN vector decision).
    ClvCut { ts: Ts },
    /// A simulated crash was injected into a partition.
    CrashInjected,
    /// A crash-rolled-back transaction's surviving-partition writes were
    /// undone via before-image compensation.
    Compensation { writes: u64 },
    /// One recovery replay pass applied `entries` durable log entries.
    RecoveryReplay { pass: u32, entries: u64 },
    /// The partition's replicated log elected a new leader.
    LeaderChange { term: u64, leader: u32 },
    /// A simulated network hop (optional, off by default).
    MsgHop { from: u32, to: u32 },
    /// Paxos Commit: a prepare vote was appended to a partition's replicated
    /// log at `lsn` (`commit` is the vote itself).
    VoteLogged { lsn: u64, commit: bool },
    /// Paxos Commit: the vote at `lsn` became quorum-durable, so the verdict
    /// for this participant survives any single replica loss.
    VoteQuorumDurable { lsn: u64 },
    /// The atomic-commit layer reached a global verdict. `in_doubt` marks
    /// verdicts assembled *without* the coordinator (crash resolution), as
    /// opposed to the coordinator's own decision. A decision the coordinator
    /// waits to see acknowledged (classic 2PC's commit round) is stamped when
    /// the worker takes the acknowledgements up: they spent `flight_us` on
    /// the wire and then waited `late_us` for it; both are 0 for a decision
    /// announced one-way.
    DecisionReached {
        commit: bool,
        in_doubt: bool,
        flight_us: u64,
        late_us: u64,
    },
    /// The coordinating worker was killed between prepare and decision
    /// (worker-granularity crash injection, not a partition crash).
    CoordinatorCrashed,
    /// A batched remote-read fan-out was taken up: `keys` keys fetched from
    /// `partitions` remote partitions in one parallel round trip that was
    /// sent `sent_us_ago` before this event and took `flight_us` on the wire.
    /// The difference is how long the replies sat in the worker's queue, and
    /// the spans `[at - sent_us_ago, at]` of one worker's events add up to
    /// its queue depth over time.
    PrefetchIssued {
        partitions: u32,
        keys: u32,
        sent_us_ago: u64,
        flight_us: u64,
    },
    /// A remote read was served from the attempt's prefetch buffer (no
    /// round trip charged).
    PrefetchHit,
    /// A prefetched record moved underneath the buffer; the read fell back
    /// to a fresh round trip (an ordinary conflict, never an anomaly).
    PrefetchStale,
}

/// Stable wire codes for [`AbortReason`]; the trace crate owns the mapping
/// so `primo-common` stays encoding-agnostic.
fn abort_code(r: AbortReason) -> u64 {
    match r {
        AbortReason::LockConflict => 0,
        AbortReason::WaitDie => 1,
        AbortReason::Validation => 2,
        AbortReason::ModeSwitch => 3,
        AbortReason::UserAbort => 4,
        AbortReason::NotFound => 5,
        AbortReason::CrashAbort => 6,
        AbortReason::RemoteUnavailable => 7,
        AbortReason::EpochAbort => 8,
        AbortReason::DeterministicConflict => 9,
        AbortReason::CoordinatorCrash => 10,
    }
}

fn abort_from_code(c: u64) -> Option<AbortReason> {
    Some(match c {
        0 => AbortReason::LockConflict,
        1 => AbortReason::WaitDie,
        2 => AbortReason::Validation,
        3 => AbortReason::ModeSwitch,
        4 => AbortReason::UserAbort,
        5 => AbortReason::NotFound,
        6 => AbortReason::CrashAbort,
        7 => AbortReason::RemoteUnavailable,
        8 => AbortReason::EpochAbort,
        9 => AbortReason::DeterministicConflict,
        10 => AbortReason::CoordinatorCrash,
        _ => return None,
    })
}

impl TraceEventKind {
    /// Encode into `(discriminant, a, b, c)`.
    pub(crate) fn encode(self) -> (u64, u64, u64, u64) {
        use TraceEventKind::*;
        match self {
            Begin { attempt } => (0, attempt as u64, 0, 0),
            LockWait { owner } => (1, owner.pack(), 0, 0),
            ValidationStart => (2, 0, 0, 0),
            ValidationOutcome { ok, reason } => (
                3,
                ok as u64,
                reason.map(abort_code).map(|c| c + 1).unwrap_or(0),
                0,
            ),
            CommitTsReserved { ts } => (4, ts, 0, 0),
            Prepare { participants } => (5, participants as u64, 0, 0),
            Vote {
                ok,
                flight_us,
                late_us,
            } => (6, ok as u64, flight_us, late_us),
            WalAppend { lsn, term } => (7, lsn, term, 0),
            SequencerWait { wait_us } => (8, wait_us, 0, 0),
            QuorumAck {
                entries,
                durable_lsn,
            } => (9, entries, durable_lsn, 0),
            GroupCommitRelease { committed } => (10, committed as u64, 0, 0),
            Committed { ts } => (11, ts, 0, 0),
            Abort { reason, backoff_us } => (12, abort_code(reason), backoff_us, 0),
            SnapshotRead { horizon } => (13, horizon, 0, 0),
            WatermarkPublish { wg } => (14, wg, 0, 0),
            EpochSealed { epoch } => (15, epoch, 0, 0),
            ClvCut { ts } => (16, ts, 0, 0),
            CrashInjected => (17, 0, 0, 0),
            Compensation { writes } => (18, writes, 0, 0),
            RecoveryReplay { pass, entries } => (19, pass as u64, entries, 0),
            LeaderChange { term, leader } => (20, term, leader as u64, 0),
            MsgHop { from, to } => (21, from as u64, to as u64, 0),
            VoteLogged { lsn, commit } => (22, lsn, commit as u64, 0),
            VoteQuorumDurable { lsn } => (23, lsn, 0, 0),
            DecisionReached {
                commit,
                in_doubt,
                flight_us,
                late_us,
            } => (
                24,
                commit as u64 | (in_doubt as u64) << 1,
                flight_us,
                late_us,
            ),
            CoordinatorCrashed => (25, 0, 0, 0),
            PrefetchIssued {
                partitions,
                keys,
                sent_us_ago,
                flight_us,
            } => (
                26,
                u64::from(partitions) << 32 | u64::from(keys),
                sent_us_ago,
                flight_us,
            ),
            PrefetchHit => (27, 0, 0, 0),
            PrefetchStale => (28, 0, 0, 0),
            WatermarkGenerate {
                wp,
                cause,
                demanded,
            } => (29, wp, cause as u64, demanded),
        }
    }

    /// Inverse of [`TraceEventKind::encode`]. `None` for a torn / garbage
    /// slot (possible only if a reader raced a wrap, which the seqlock
    /// already filters; kept defensive anyway).
    pub(crate) fn decode(d: u64, a: u64, b: u64, c: u64) -> Option<Self> {
        use TraceEventKind::*;
        Some(match d {
            0 => Begin { attempt: a as u32 },
            1 => LockWait {
                owner: TxnId::unpack(a),
            },
            2 => ValidationStart,
            3 => ValidationOutcome {
                ok: a != 0,
                reason: if b == 0 { None } else { abort_from_code(b - 1) },
            },
            4 => CommitTsReserved { ts: a },
            5 => Prepare {
                participants: a as u32,
            },
            6 => Vote {
                ok: a != 0,
                flight_us: b,
                late_us: c,
            },
            7 => WalAppend { lsn: a, term: b },
            8 => SequencerWait { wait_us: a },
            9 => QuorumAck {
                entries: a,
                durable_lsn: b,
            },
            10 => GroupCommitRelease { committed: a != 0 },
            11 => Committed { ts: a },
            12 => Abort {
                reason: abort_from_code(a)?,
                backoff_us: b,
            },
            13 => SnapshotRead { horizon: a },
            14 => WatermarkPublish { wg: a },
            15 => EpochSealed { epoch: a },
            16 => ClvCut { ts: a },
            17 => CrashInjected,
            18 => Compensation { writes: a },
            19 => RecoveryReplay {
                pass: a as u32,
                entries: b,
            },
            20 => LeaderChange {
                term: a,
                leader: b as u32,
            },
            21 => MsgHop {
                from: a as u32,
                to: b as u32,
            },
            22 => VoteLogged {
                lsn: a,
                commit: b != 0,
            },
            23 => VoteQuorumDurable { lsn: a },
            24 => DecisionReached {
                commit: a & 1 != 0,
                in_doubt: a & 2 != 0,
                flight_us: b,
                late_us: c,
            },
            25 => CoordinatorCrashed,
            26 => PrefetchIssued {
                partitions: (a >> 32) as u32,
                keys: a as u32,
                sent_us_ago: b,
                flight_us: c,
            },
            27 => PrefetchHit,
            28 => PrefetchStale,
            29 => WatermarkGenerate {
                wp: a,
                cause: match b {
                    0 => WatermarkCause::Interval,
                    1 => WatermarkCause::IdleLag,
                    2 => WatermarkCause::Demand,
                    _ => return None,
                },
                demanded: c,
            },
            _ => return None,
        })
    }
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceEventKind::*;
        match self {
            Begin { attempt } => write!(f, "begin attempt={attempt}"),
            LockWait { owner } => write!(f, "lock-wait owner={owner}"),
            ValidationStart => write!(f, "validation-start"),
            ValidationOutcome { ok: true, .. } => write!(f, "validation-ok"),
            ValidationOutcome { ok: false, reason } => match reason {
                Some(r) => write!(f, "validation-fail reason={r}"),
                None => write!(f, "validation-fail"),
            },
            CommitTsReserved { ts } => write!(f, "commit-ts-reserved ts={ts}"),
            Prepare { participants } => write!(f, "2pc-prepare participants={participants}"),
            Vote {
                ok,
                flight_us,
                late_us,
            } => write!(f, "2pc-vote ok={ok} flight={flight_us}us late={late_us}us"),
            WalAppend { lsn, term } => write!(f, "wal-append lsn={lsn} term={term}"),
            SequencerWait { wait_us } => write!(f, "sequencer-wait {wait_us}us"),
            QuorumAck {
                entries,
                durable_lsn,
            } => write!(f, "quorum-ack entries={entries} durable-lsn={durable_lsn}"),
            GroupCommitRelease { committed } => {
                write!(f, "group-commit-release committed={committed}")
            }
            Committed { ts } => write!(f, "committed ts={ts}"),
            Abort { reason, backoff_us } => {
                write!(f, "abort reason={reason} backoff={backoff_us}us")
            }
            SnapshotRead { horizon } => write!(f, "snapshot-read horizon={horizon}"),
            WatermarkPublish { wg } => write!(f, "watermark-publish wg={wg}"),
            EpochSealed { epoch } => write!(f, "epoch-sealed epoch={epoch}"),
            ClvCut { ts } => write!(f, "clv-cut ts={ts}"),
            CrashInjected => write!(f, "crash-injected"),
            Compensation { writes } => write!(f, "compensation writes={writes}"),
            RecoveryReplay { pass, entries } => {
                write!(f, "recovery-replay pass={pass} entries={entries}")
            }
            LeaderChange { term, leader } => {
                write!(f, "leader-change term={term} leader=r{leader}")
            }
            MsgHop { from, to } => write!(f, "msg P{from}->P{to}"),
            VoteLogged { lsn, commit } => write!(f, "vote-logged lsn={lsn} commit={commit}"),
            VoteQuorumDurable { lsn } => write!(f, "vote-quorum-durable lsn={lsn}"),
            DecisionReached {
                commit,
                in_doubt,
                flight_us,
                late_us,
            } => write!(
                f,
                "decision-reached commit={commit} in-doubt={in_doubt} \
                 flight={flight_us}us late={late_us}us"
            ),
            CoordinatorCrashed => write!(f, "coordinator-crashed"),
            PrefetchIssued {
                partitions,
                keys,
                sent_us_ago,
                flight_us,
            } => write!(
                f,
                "prefetch-issued partitions={partitions} keys={keys} \
                 sent={sent_us_ago}us-ago flight={flight_us}us"
            ),
            PrefetchHit => write!(f, "prefetch-hit"),
            PrefetchStale => write!(f, "prefetch-stale"),
            WatermarkGenerate {
                wp,
                cause,
                demanded,
            } => write!(
                f,
                "watermark-generate wp={wp} cause={cause:?} demanded={demanded}"
            ),
        }
    }
}

/// One decoded event as it appears in a merged timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated-time stamp ([`primo_common::sim_time::now_us`]).
    pub at_us: u64,
    /// Push order within the originating ring (total order per worker).
    pub seq: u64,
    /// Index of the originating ring in the recorder's registry.
    pub ring: usize,
    /// Label of the originating worker thread (e.g. `worker-0-1`).
    pub worker: String,
    /// The transaction this event belongs to, if any.
    pub txn: Option<TxnId>,
    /// The partition this event concerns, if any.
    pub partition: Option<PartitionId>,
    pub kind: TraceEventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10}us] {:<14}", self.at_us, self.worker)?;
        match self.partition {
            Some(p) => write!(f, " {:<4}", p.to_string())?,
            None => write!(f, " {:<4}", "-")?,
        }
        match self.txn {
            Some(t) => write!(f, " {:<10}", t.to_string())?,
            None => write!(f, " {:<10}", "-")?,
        }
        write!(f, " {}", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_every_variant() {
        let txn = TxnId::new(PartitionId(3), 77);
        let all = [
            TraceEventKind::Begin { attempt: 2 },
            TraceEventKind::LockWait { owner: txn },
            TraceEventKind::ValidationStart,
            TraceEventKind::ValidationOutcome {
                ok: true,
                reason: None,
            },
            TraceEventKind::ValidationOutcome {
                ok: false,
                reason: Some(AbortReason::Validation),
            },
            TraceEventKind::CommitTsReserved { ts: 42 },
            TraceEventKind::Prepare { participants: 3 },
            TraceEventKind::Vote {
                ok: false,
                flight_us: 215,
                late_us: 40,
            },
            TraceEventKind::WalAppend { lsn: 9, term: 2 },
            TraceEventKind::SequencerWait { wait_us: 120 },
            TraceEventKind::QuorumAck {
                entries: 5,
                durable_lsn: 8,
            },
            TraceEventKind::GroupCommitRelease { committed: true },
            TraceEventKind::Committed { ts: 1234 },
            TraceEventKind::Abort {
                reason: AbortReason::WaitDie,
                backoff_us: 375,
            },
            TraceEventKind::SnapshotRead { horizon: 55 },
            TraceEventKind::WatermarkPublish { wg: 90 },
            TraceEventKind::EpochSealed { epoch: 7 },
            TraceEventKind::ClvCut { ts: 31 },
            TraceEventKind::CrashInjected,
            TraceEventKind::Compensation { writes: 4 },
            TraceEventKind::RecoveryReplay {
                pass: 1,
                entries: 200,
            },
            TraceEventKind::LeaderChange { term: 3, leader: 1 },
            TraceEventKind::MsgHop { from: 0, to: 2 },
            TraceEventKind::VoteLogged {
                lsn: 12,
                commit: true,
            },
            TraceEventKind::VoteQuorumDurable { lsn: 12 },
            TraceEventKind::DecisionReached {
                commit: false,
                in_doubt: true,
                flight_us: 0,
                late_us: 0,
            },
            TraceEventKind::DecisionReached {
                commit: true,
                in_doubt: false,
                flight_us: 212,
                late_us: 3,
            },
            TraceEventKind::CoordinatorCrashed,
            TraceEventKind::Abort {
                reason: AbortReason::CoordinatorCrash,
                backoff_us: 0,
            },
            TraceEventKind::PrefetchIssued {
                partitions: 2,
                keys: 7,
                sent_us_ago: 2_450,
                flight_us: 2_020,
            },
            TraceEventKind::PrefetchHit,
            TraceEventKind::PrefetchStale,
            TraceEventKind::WatermarkGenerate {
                wp: 91,
                cause: WatermarkCause::Demand,
                demanded: 90,
            },
            TraceEventKind::WatermarkGenerate {
                wp: 92,
                cause: WatermarkCause::IdleLag,
                demanded: 0,
            },
        ];
        for kind in all {
            let (d, a, b, c) = kind.encode();
            assert_eq!(TraceEventKind::decode(d, a, b, c), Some(kind), "{kind}");
        }
    }

    #[test]
    fn unknown_discriminant_decodes_to_none() {
        assert_eq!(TraceEventKind::decode(10_000, 0, 0, 0), None);
    }

    #[test]
    fn display_is_grep_friendly() {
        let e = TraceEvent {
            at_us: 150,
            seq: 0,
            ring: 0,
            worker: "worker-0-1".into(),
            txn: Some(TxnId::new(PartitionId(0), 9)),
            partition: Some(PartitionId(0)),
            kind: TraceEventKind::WalAppend { lsn: 4, term: 1 },
        };
        let line = e.to_string();
        assert!(line.contains("worker-0-1"), "{line}");
        assert!(line.contains("T0.9"), "{line}");
        assert!(line.contains("wal-append lsn=4 term=1"), "{line}");
    }
}
