//! The trace event vocabulary and its fixed-width wire encoding.
//!
//! Every event is a `Copy` value that encodes into four `u64` words (one
//! discriminant + three payload words) so the ring buffer can store it in
//! pre-allocated atomic slots — no allocation, no pointer chasing, no Drop —
//! and decode it back losslessly at merge time.

use primo_common::{AbortReason, PartitionId, Ts, TxnId};
use std::fmt::{self, Write as _};

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
    /// A client waits, or is about to, on a commit the last watermark does
    /// not cover.
    Demand,
}

/// What happened. One variant per instrumentation point in the transaction
/// lifecycle; payloads are the few words a post-mortem actually needs
/// (owners, timestamps, LSNs, horizons), not full payload dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A worker started attempt number `attempt` of a transaction; the first
    /// attempt is 1, and a retry keeps the transaction's id.
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
    /// The group-commit layer reserved (or finalized) the commit timestamp
    /// `ts`; the reservation took `took_us`, up to this event.
    CommitTsReserved { ts: Ts, took_us: u64 },
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
    /// A worker demanded the release of its commit at `ts`
    /// (`GroupCommit::demand`): `blocking`, it blocks in `wait_durable` on
    /// it, its population full; otherwise it asks ahead and goes on, with
    /// `room` more clients left to take up. Recorded without the
    /// transaction's id: the worker's, not the transaction's.
    GroupCommitDemand { ts: Ts, room: u32, blocking: bool },
    /// The transaction's attempt committed at `ts`. `durable`: its protocol
    /// made it durable itself (Aria, TAPIR), so this is where its result is
    /// returned; otherwise a `GroupCommitRelease` returns it later.
    Committed { ts: Ts, durable: bool },
    /// The attempt aborted. `backoff_us` is how long its client backs off
    /// before the retry — the transaction's next `Begin` is at least that
    /// much later — and 0 when the abort is final.
    Abort {
        reason: AbortReason,
        backoff_us: u64,
    },
    /// A read-only transaction was served lock-free from the MVCC snapshot
    /// at the durable group-commit horizon; its execution took `exec_us`.
    SnapshotRead { horizon: Ts, exec_us: u64 },
    /// The watermark scheme published a new group watermark (Wg).
    WatermarkPublish { wg: Ts },
    /// A watermark agent generated the partition watermark `wp` (published
    /// one quorum-ack delay later). `demanded` is the highest commit
    /// timestamp a client had demanded at that moment, 0 if none.
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
    /// Aria: the transaction's batch closed after it had waited `wait_us`
    /// for it in the sequencing layer.
    BatchSequenced { wait_us: u64 },
    /// Aria: the transaction passed one of its batch's two barriers (every
    /// member executed, then every member decided) after waiting `wait_us`
    /// for the others, then spent `round_us` on the batch's cross-partition
    /// synchronisation (at the first barrier, by its first member; else 0).
    BatchBarrier { wait_us: u64, round_us: u64 },
}

/// [`AbortReason`]s by their stable wire code (the index); the trace crate
/// owns the mapping so `primo-common` stays encoding-agnostic.
const ABORT_CODES: [AbortReason; 11] = [
    AbortReason::LockConflict,
    AbortReason::WaitDie,
    AbortReason::Validation,
    AbortReason::ModeSwitch,
    AbortReason::UserAbort,
    AbortReason::NotFound,
    AbortReason::CrashAbort,
    AbortReason::RemoteUnavailable,
    AbortReason::EpochAbort,
    AbortReason::DeterministicConflict,
    AbortReason::CoordinatorCrash,
];

fn abort_code(r: AbortReason) -> u64 {
    ABORT_CODES
        .iter()
        .position(|&c| c == r)
        .expect("every reason has a code") as u64
}

fn abort_from_code(c: u64) -> Option<AbortReason> {
    ABORT_CODES.get(c as usize).copied()
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
            CommitTsReserved { ts, took_us } => (4, ts, took_us, 0),
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
            GroupCommitDemand { ts, room, blocking } => (32, ts, room as u64, blocking as u64),
            Committed { ts, durable } => (11, ts, durable as u64, 0),
            Abort { reason, backoff_us } => (12, abort_code(reason), backoff_us, 0),
            SnapshotRead { horizon, exec_us } => (13, horizon, exec_us, 0),
            WatermarkPublish { wg } => (14, wg, 0, 0),
            EpochSealed { epoch } => (15, epoch, 0, 0),
            ClvCut { ts } => (16, ts, 0, 0),
            CrashInjected => (17, 0, 0, 0),
            Compensation { writes } => (18, writes, 0, 0),
            RecoveryReplay { pass, entries } => (19, pass as u64, entries, 0),
            LeaderChange { term, leader } => (20, term, leader as u64, 0),
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
            BatchSequenced { wait_us } => (30, wait_us, 0, 0),
            BatchBarrier { wait_us, round_us } => (31, wait_us, round_us, 0),
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
            4 => CommitTsReserved { ts: a, took_us: b },
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
            11 => Committed {
                ts: a,
                durable: b != 0,
            },
            12 => Abort {
                reason: abort_from_code(a)?,
                backoff_us: b,
            },
            13 => SnapshotRead {
                horizon: a,
                exec_us: b,
            },
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
            30 => BatchSequenced { wait_us: a },
            31 => BatchBarrier {
                wait_us: a,
                round_us: b,
            },
            32 => GroupCommitDemand {
                ts: a,
                room: b as u32,
                blocking: c != 0,
            },
            _ => return None,
        })
    }
}

/// `kebab-case-name field=value …`, read off the derived `Debug`: one line,
/// easy to grep (`commit-ts-reserved ts=7 took_us=2`).
impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let debug = format!("{self:?}");
        let (name, fields) = debug.split_once(" { ").unwrap_or((&debug, ""));
        for (i, c) in name.char_indices() {
            if i > 0 && c.is_uppercase() {
                f.write_char('-')?;
            }
            f.write_char(c.to_ascii_lowercase())?;
        }
        match fields.strip_suffix(" }") {
            Some(fields) => write!(f, " {}", fields.replace(": ", "=").replace(", ", " ")),
            None => Ok(()),
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
            TraceEventKind::CommitTsReserved { ts: 42, took_us: 3 },
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
            TraceEventKind::GroupCommitDemand {
                ts: 77,
                room: 12,
                blocking: false,
            },
            TraceEventKind::Committed {
                ts: 1234,
                durable: true,
            },
            TraceEventKind::Abort {
                reason: AbortReason::WaitDie,
                backoff_us: 375,
            },
            TraceEventKind::SnapshotRead {
                horizon: 55,
                exec_us: 12,
            },
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
            TraceEventKind::BatchSequenced { wait_us: 480 },
            TraceEventKind::BatchBarrier {
                wait_us: 95,
                round_us: 210,
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
        assert_eq!(TraceEventKind::CrashInjected.to_string(), "crash-injected");
        let vote = TraceEventKind::Vote {
            ok: true,
            flight_us: 250,
            late_us: 50,
        };
        assert_eq!(vote.to_string(), "vote ok=true flight_us=250 late_us=50");
    }
}
