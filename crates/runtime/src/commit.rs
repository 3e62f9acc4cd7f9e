//! The unified atomic-commit layer: every protocol's distributed
//! prepare/decide path runs behind one [`AtomicCommit`] trait instead of
//! hand-rolled round-trip calls scattered across the protocol crates.
//!
//! Two implementations ship:
//!
//! * [`ClassicTwoPc`] — the blocking textbook protocol every baseline (and
//!   Primo's read-heavy fallback) used before this layer existed. Message
//!   counts and trace events are byte-for-byte what the inlined paths
//!   charged, so it doubles as the ablation baseline.
//! * [`PaxosCommit`] — Gray & Lamport's non-blocking variant: prepare votes
//!   are logged as quorum-durable entries in each participant's replicated
//!   log, so when the coordinating worker dies between the vote round and
//!   the decision, *any* participant replica can assemble the global verdict
//!   from the durable vote set (presumed abort: no durable decision means
//!   abort). The decision itself needs no acknowledgement round trip — it is
//!   quorum-durable in the log, and a participant that misses the one-way
//!   notification recovers it from there.
//!
//! The coordinator-crash injection point lives here too: the cluster arms a
//! one-shot crash for a coordinating partition, and the next distributed
//! prepare that partition coordinates "dies" after its vote round — under
//! [`ClassicTwoPc`] the transaction is orphaned (its locks leak, the
//! participants block), under [`PaxosCommit`] it is resolved in-doubt and
//! terminates like any other abort.

use crate::cluster::Cluster;
use primo_common::config::CommitMode;
use primo_common::sim_time::{charge_latency_us, now_us};
use primo_common::{AbortReason, PartitionId, TxnId};
use primo_net::RoundTrip;
use primo_trace::TraceEventKind;
use primo_wal::LogPayload;
use std::sync::Arc;
use std::time::Duration;

/// One round of the commit protocol on the wire: sent — counted, traced, its
/// deadline fixed — and not waited for. Whoever reads the replies waits for
/// [`Round::ready_at_us`] first: a worker runs other clients meanwhile, or
/// sits the wait out for an attempt that holds locks throughout.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    sent_at_us: u64,
    trip: RoundTrip,
}

impl Round {
    fn send(cluster: &Cluster, home: PartitionId, participants: &[PartitionId]) -> Self {
        Round {
            sent_at_us: now_us(),
            trip: cluster.net.begin_round_trip_multi(home, participants),
        }
    }

    /// [`now_us`] at which the slowest reply is back.
    pub fn ready_at_us(&self) -> u64 {
        self.trip.ready_at_us
    }

    /// Since the round was sent: what its client has waited for it so far.
    pub fn elapsed(&self) -> Duration {
        Duration::from_micros(now_us().saturating_sub(self.sent_at_us))
    }

    /// The replies are read now: how long they flew, and how long they then
    /// waited for their reader.
    fn taken_up(&self) -> (u64, u64) {
        debug_assert!(now_us() >= self.trip.ready_at_us, "read before it is back");
        let flight_us = self.trip.ready_at_us - self.sent_at_us;
        (flight_us, now_us().saturating_sub(self.trip.ready_at_us))
    }

    /// The acknowledgements of a COMMIT round ([`AtomicCommit::decide_commit`])
    /// are taken up: the decision has reached everyone, the coordinator may
    /// release its locks.
    pub fn acked(self, cluster: &Cluster, txn: TxnId, home: PartitionId) {
        let (flight_us, late_us) = self.taken_up();
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::DecisionReached {
                commit: true,
                in_doubt: false,
                flight_us,
                late_us,
            },
        );
    }
}

/// Proof that the prepare phase succeeded, carrying the instant the votes
/// were taken up so the decide phase can report the prepare→decide latency.
#[derive(Debug, Clone, Copy)]
pub struct PreparedAt {
    at_us: u64,
}

impl PreparedAt {
    fn now() -> Self {
        PreparedAt { at_us: now_us() }
    }

    /// Microseconds since the prepare phase completed.
    pub fn elapsed_us(&self) -> u64 {
        now_us().saturating_sub(self.at_us)
    }
}

/// A decision announced one-way, or sealed: there is nothing to fly.
fn decided_unacknowledged(commit: bool) -> TraceEventKind {
    TraceEventKind::DecisionReached {
        commit,
        in_doubt: false,
        flight_us: 0,
        late_us: 0,
    }
}

/// The votes of `round` are taken up (`Vote` in the flight recorder):
/// whether every participant answered.
fn votes_back(cluster: &Cluster, txn: TxnId, home: PartitionId, round: Round) -> bool {
    let (flight_us, late_us) = round.taken_up();
    cluster.recorder.emit(
        Some(txn),
        Some(home),
        TraceEventKind::Vote {
            ok: round.trip.ok,
            flight_us,
            late_us,
        },
    );
    round.trip.ok
}

/// Result of the prepare phase of an atomic commit.
#[derive(Debug)]
pub enum PrepareOutcome {
    /// Every participant voted YES; the caller may proceed to its decision.
    Prepared(PreparedAt),
    /// The transaction must abort for `AbortReason`. The caller runs its
    /// normal abort path (releasing locks, notifying participants).
    Aborted(AbortReason),
    /// The coordinating worker died between the vote round and the decision
    /// and nobody can finish the protocol (classic 2PC's blocking failure):
    /// the caller must abandon the transaction **without any cleanup** —
    /// its locks stay held and the participants stay blocked.
    Orphaned,
}

/// One distributed atomic-commit protocol: a prepare phase that collects
/// votes and two decide phases that propagate the global verdict. No method
/// waits on the wire: a round is *sent* ([`Round`]) and its replies are taken
/// up by a later call, once the caller has seen its deadline pass.
///
/// Participant *registration* (group-commit bookkeeping) stays at the call
/// sites — the baselines register inside their shared prepare helper, Primo
/// during execution — because it is scheme bookkeeping, not commit protocol.
pub trait AtomicCommit: Send + Sync + std::fmt::Debug {
    /// Short name for figures and logs.
    fn label(&self) -> &'static str;

    /// The configuration knob this implementation answers to.
    fn mode(&self) -> CommitMode;

    /// Send the vote round to `participants` (already excluding `home`). An
    /// empty participant list sends nothing and is back at once, so callers
    /// can invoke this unconditionally.
    fn prepare(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
    ) -> Round {
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::Prepare {
                participants: participants.len() as u32,
            },
        );
        Round::send(cluster, home, participants)
    }

    /// Take up the votes of the round [`AtomicCommit::prepare`] sent; the
    /// caller has waited for [`Round::ready_at_us`]. `terms` are the log
    /// terms the attempt carries (`AccessSet::terms`): a logged vote is
    /// fenced by them.
    fn votes(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        round: Round,
        terms: &[u64],
    ) -> PrepareOutcome;

    /// Propagate the global COMMIT verdict. `Some`: the round of
    /// acknowledgements the coordinator holds its locks for — wait for
    /// [`Round::ready_at_us`], then [`Round::acked`]. `None`: the decision
    /// needs no acknowledgement, or there is nobody to tell. A logged
    /// decision is fenced by `terms`, like the votes.
    fn decide_commit(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        prepared: PreparedAt,
        terms: &[u64],
    ) -> Option<Round>;

    /// Propagate the global ABORT verdict (after a failed local lock /
    /// validation step that followed a successful prepare).
    fn decide_abort(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
    );

    /// Seal a commit verdict that was decided *inside* the prepare round
    /// itself (consolidated-round protocols like TAPIR fold validation and
    /// decision into one round trip). No messages are charged. Classic 2PC
    /// needs nothing — the prepare response already was the decision — so
    /// the default is a no-op; Paxos Commit overrides it to resolve its
    /// logged votes with durable decision entries.
    fn seal_commit(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        prepared: PreparedAt,
        terms: &[u64],
    ) {
        let _ = (cluster, txn, home, participants, prepared, terms);
    }
}

/// Construct the commit layer for a configuration knob.
pub fn build_atomic_commit(mode: CommitMode) -> Arc<dyn AtomicCommit> {
    match mode {
        CommitMode::TwoPc => Arc::new(ClassicTwoPc),
        CommitMode::PaxosCommit => Arc::new(PaxosCommit),
    }
}

/// Textbook blocking two-phase commit: one prepare round trip, one commit
/// round trip (locks are held across both), one-way abort notifications.
/// Exactly the messages and traces the protocol crates charged before the
/// commit layer was extracted — the ablation baseline.
#[derive(Debug)]
pub struct ClassicTwoPc;

impl AtomicCommit for ClassicTwoPc {
    fn label(&self) -> &'static str {
        "2PC"
    }

    fn mode(&self) -> CommitMode {
        CommitMode::TwoPc
    }

    fn votes(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        round: Round,
        _terms: &[u64],
    ) -> PrepareOutcome {
        if !votes_back(cluster, txn, home, round) {
            return PrepareOutcome::Aborted(AbortReason::RemoteUnavailable);
        }
        if !participants.is_empty() && cluster.take_coordinator_crash(home) {
            // The coordinator died holding everyone's YES votes. Nothing is
            // durably recorded about this transaction's outcome, so no one
            // else can decide: the participants block until the coordinator
            // "comes back" — which in this simulation it never does.
            cluster
                .recorder
                .emit(Some(txn), Some(home), TraceEventKind::CoordinatorCrashed);
            cluster.note_orphaned_txn();
            return PrepareOutcome::Orphaned;
        }
        PrepareOutcome::Prepared(PreparedAt::now())
    }

    fn decide_commit(
        &self,
        cluster: &Cluster,
        _txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        prepared: PreparedAt,
        _terms: &[u64],
    ) -> Option<Round> {
        if participants.is_empty() {
            return None;
        }
        let round = Round::send(cluster, home, participants);
        // Prepare to acknowledgements back — whenever they are taken up.
        cluster.record_commit_decision(round.ready_at_us().saturating_sub(prepared.at_us));
        Some(round)
    }

    fn decide_abort(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
    ) {
        if participants.is_empty() {
            return;
        }
        cluster.net.one_way_multi(home, participants);
        cluster
            .recorder
            .emit(Some(txn), Some(home), decided_unacknowledged(false));
    }
}

/// Non-blocking Paxos Commit over the replicated logs: YES votes are logged
/// as quorum-durable [`LogPayload::CommitVote`] entries (the vote rides the
/// prepare round already charged — logging it is local to the replica that
/// received the prepare), and the decision is a quorum-durable
/// [`LogPayload::CommitDecision`] entry propagated with a one-way
/// notification instead of an acknowledged round trip.
#[derive(Debug)]
pub struct PaxosCommit;

impl PaxosCommit {
    /// Finish the protocol of a transaction whose coordinator died after the
    /// vote round. Any participant replica can do this from durable state:
    /// wait for the votes to reach quorum durability, look for a durable
    /// decision, and — there being none (the crash fired before the decide
    /// step, and the vote set alone never commits) — seal the presumed-abort
    /// verdict into every involved log so every future reader agrees.
    fn resolve_in_doubt(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        vote_lsns: &[(PartitionId, u64)],
    ) -> PrepareOutcome {
        for (p, lsn) in vote_lsns {
            let log = &cluster.partition(*p).log;
            // The vote was appended before this instant: one quorum-ack
            // delay from now it is durable if its quorum is alive at all.
            if !log.is_durable(*lsn) {
                charge_latency_us(log.quorum_ack_delay_us());
            }
            if log.is_durable(*lsn) {
                cluster.recorder.emit(
                    Some(txn),
                    Some(*p),
                    TraceEventKind::VoteQuorumDurable { lsn: *lsn },
                );
            }
        }
        for p in std::iter::once(home).chain(participants.iter().copied()) {
            (cluster.partition(p).log).append(LogPayload::CommitDecision { txn, commit: false });
        }
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::DecisionReached {
                commit: false,
                in_doubt: true,
                flight_us: 0,
                late_us: 0,
            },
        );
        cluster.note_in_doubt_resolved();
        // The caller runs its normal abort path off this reason, which doubles
        // as the participant notification — consistent termination, no blocking.
        PrepareOutcome::Aborted(AbortReason::CoordinatorCrash)
    }
}

impl AtomicCommit for PaxosCommit {
    fn label(&self) -> &'static str {
        "PaxosCommit"
    }

    fn mode(&self) -> CommitMode {
        CommitMode::PaxosCommit
    }

    fn votes(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        round: Round,
        terms: &[u64],
    ) -> PrepareOutcome {
        if !votes_back(cluster, txn, home, round) {
            return PrepareOutcome::Aborted(AbortReason::RemoteUnavailable);
        }
        if participants.is_empty() {
            // A local transaction never reaches a distributed decision; don't
            // pollute the logs with single-partition vote entries.
            return PrepareOutcome::Prepared(PreparedAt::now());
        }
        // Log every YES vote quorum-durably: the coordinator's own vote in
        // the home log, each participant's vote in its own log. Durability
        // proceeds in the background — the commit critical path pays only
        // the appends. A log a crash fenced since the attempt began refuses
        // its vote: the votes already logged are resolved to abort, and the
        // attempt is crash-aborted.
        let mut vote_lsns = Vec::with_capacity(participants.len() + 1);
        for p in std::iter::once(home).chain(participants.iter().copied()) {
            let log = &cluster.partition(p).log;
            let vote = LogPayload::CommitVote {
                txn,
                coordinator: home,
                commit: true,
            };
            let Ok(lsn) = log.append_in_term(terms[p.idx()], vote) else {
                for (voted, _) in &vote_lsns {
                    let abort = LogPayload::CommitDecision { txn, commit: false };
                    cluster.partition(*voted).log.append(abort);
                }
                return PrepareOutcome::Aborted(AbortReason::CrashAbort);
            };
            cluster.recorder.emit(
                Some(txn),
                Some(p),
                TraceEventKind::VoteLogged { lsn, commit: true },
            );
            vote_lsns.push((p, lsn));
        }
        if cluster.take_coordinator_crash(home) {
            cluster
                .recorder
                .emit(Some(txn), Some(home), TraceEventKind::CoordinatorCrashed);
            return self.resolve_in_doubt(cluster, txn, home, participants, &vote_lsns);
        }
        PrepareOutcome::Prepared(PreparedAt::now())
    }

    fn decide_commit(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        prepared: PreparedAt,
        terms: &[u64],
    ) -> Option<Round> {
        if participants.is_empty() {
            return None;
        }
        // The verdict is the durable log entry, not the message: participants
        // are told one-way and never ack (a missed notification is recovered
        // from the durable decision). This removes classic 2PC's second
        // round trip from the commit critical path. A log a crash fenced
        // since the attempt began refuses its decision: it holds the
        // write-set from before the crash, or none, and the crash's verdict
        // decides it there — a decision past the crash cut would contradict
        // recovery's.
        for p in std::iter::once(home).chain(participants.iter().copied()) {
            let decision = LogPayload::CommitDecision { txn, commit: true };
            let _ = (cluster.partition(p).log).append_in_term(terms[p.idx()], decision);
        }
        cluster.net.one_way_multi(home, participants);
        cluster.record_commit_decision(prepared.elapsed_us());
        cluster
            .recorder
            .emit(Some(txn), Some(home), decided_unacknowledged(true));
        None
    }

    fn decide_abort(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
    ) {
        if participants.is_empty() {
            return;
        }
        for p in std::iter::once(home).chain(participants.iter().copied()) {
            (cluster.partition(p).log).append(LogPayload::CommitDecision { txn, commit: false });
        }
        cluster.net.one_way_multi(home, participants);
        cluster
            .recorder
            .emit(Some(txn), Some(home), decided_unacknowledged(false));
    }

    fn seal_commit(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        prepared: PreparedAt,
        terms: &[u64],
    ) {
        if participants.is_empty() {
            return;
        }
        // The prepare round's response already carried the decision; only
        // the durable resolution of the logged votes remains, fenced as in
        // `decide_commit`.
        for p in std::iter::once(home).chain(participants.iter().copied()) {
            let decision = LogPayload::CommitDecision { txn, commit: true };
            let _ = (cluster.partition(p).log).append_in_term(terms[p.idx()], decision);
        }
        cluster.record_commit_decision(prepared.elapsed_us());
        cluster
            .recorder
            .emit(Some(txn), Some(home), decided_unacknowledged(true));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::sim_time::wait_until;

    fn cluster_with_mode(mode: CommitMode, partitions: usize) -> Arc<Cluster> {
        let mut config = ClusterConfig::for_tests(partitions);
        config.commit_mode = mode;
        Cluster::new(config)
    }

    /// The log terms of an attempt that begins now.
    fn terms(cluster: &Cluster) -> Vec<u64> {
        cluster.log_terms().collect()
    }

    /// The vote round, waited out.
    fn prepare(
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        parts: &[PartitionId],
    ) -> PrepareOutcome {
        let layer = cluster.atomic_commit();
        let round = layer.prepare(cluster, txn, home, parts);
        wait_until(round.ready_at_us());
        layer.votes(cluster, txn, home, parts, round, &terms(cluster))
    }

    /// The decision, its acknowledgements (if it needs any) waited out.
    fn decide_commit(
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        parts: &[PartitionId],
        prepared: PreparedAt,
    ) {
        let layer = cluster.atomic_commit();
        if let Some(acks) =
            layer.decide_commit(cluster, txn, home, parts, prepared, &terms(cluster))
        {
            wait_until(acks.ready_at_us());
            acks.acked(cluster, txn, home);
        }
    }

    #[test]
    fn build_respects_the_mode_knob() {
        assert_eq!(build_atomic_commit(CommitMode::TwoPc).label(), "2PC");
        assert_eq!(
            build_atomic_commit(CommitMode::PaxosCommit).label(),
            "PaxosCommit"
        );
        assert_eq!(
            build_atomic_commit(CommitMode::PaxosCommit).mode(),
            CommitMode::PaxosCommit
        );
    }

    #[test]
    fn classic_prepare_and_commit_charge_two_round_trips() {
        let cluster = cluster_with_mode(CommitMode::TwoPc, 3);
        let txn = cluster.next_txn_id(PartitionId(0));
        let parts = [PartitionId(1), PartitionId(2)];
        let before = cluster.net.round_trips_charged();
        let prepared = match prepare(&cluster, txn, PartitionId(0), &parts) {
            PrepareOutcome::Prepared(at) => at,
            other => panic!("prepare must succeed, got {other:?}"),
        };
        decide_commit(&cluster, txn, PartitionId(0), &parts, prepared);
        assert_eq!(cluster.net.round_trips_charged() - before, 2);
        assert_eq!(cluster.commit_decisions(), 1);
        assert!(
            cluster
                .partition(PartitionId(0))
                .log
                .commit_decision_for(txn, None)
                .is_none(),
            "classic 2PC logs no decision entries"
        );
        cluster.shutdown();
    }

    #[test]
    fn paxos_commit_replaces_the_second_round_trip_with_durable_entries() {
        let cluster = cluster_with_mode(CommitMode::PaxosCommit, 3);
        let txn = cluster.next_txn_id(PartitionId(0));
        let parts = [PartitionId(1), PartitionId(2)];
        let before = cluster.net.round_trips_charged();
        let prepared = match prepare(&cluster, txn, PartitionId(0), &parts) {
            PrepareOutcome::Prepared(at) => at,
            other => panic!("prepare must succeed, got {other:?}"),
        };
        decide_commit(&cluster, txn, PartitionId(0), &parts, prepared);
        assert_eq!(
            cluster.net.round_trips_charged() - before,
            1,
            "only the prepare round blocks; the decision is one-way"
        );
        // Votes and the decision are in every involved partition's log.
        std::thread::sleep(Duration::from_millis(5));
        for p in [PartitionId(0), PartitionId(1), PartitionId(2)] {
            let log = &cluster.partition(p).log;
            assert_eq!(log.commit_vote_for(txn, None), Some(true), "vote at {p:?}");
            assert_eq!(
                log.commit_decision_for(txn, None),
                Some(true),
                "decision at {p:?}"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn classic_coordinator_crash_orphans_the_transaction() {
        let cluster = cluster_with_mode(CommitMode::TwoPc, 2);
        let txn = cluster.next_txn_id(PartitionId(0));
        cluster.arm_coordinator_crash(PartitionId(0));
        let outcome = prepare(&cluster, txn, PartitionId(0), &[PartitionId(1)]);
        assert!(matches!(outcome, PrepareOutcome::Orphaned), "{outcome:?}");
        assert_eq!(cluster.orphaned_txns(), 1);
        // The injection is one-shot: the next prepare sails through.
        let txn2 = cluster.next_txn_id(PartitionId(0));
        let outcome = prepare(&cluster, txn2, PartitionId(0), &[PartitionId(1)]);
        assert!(matches!(outcome, PrepareOutcome::Prepared(_)));
        cluster.shutdown();
    }

    #[test]
    fn paxos_coordinator_crash_resolves_in_doubt_to_a_durable_abort() {
        let cluster = cluster_with_mode(CommitMode::PaxosCommit, 2);
        let txn = cluster.next_txn_id(PartitionId(0));
        cluster.arm_coordinator_crash(PartitionId(0));
        let outcome = prepare(&cluster, txn, PartitionId(0), &[PartitionId(1)]);
        match outcome {
            PrepareOutcome::Aborted(reason) => {
                assert_eq!(reason, AbortReason::CoordinatorCrash)
            }
            other => panic!("in-doubt resolution must abort cleanly, got {other:?}"),
        }
        assert_eq!(cluster.in_doubt_resolved(), 1);
        assert_eq!(cluster.orphaned_txns(), 0, "nothing blocks under Paxos");
        std::thread::sleep(Duration::from_millis(5));
        for p in [PartitionId(0), PartitionId(1)] {
            assert_eq!(
                cluster.partition(p).log.commit_decision_for(txn, None),
                Some(false),
                "the abort verdict is sealed durably at {p:?}"
            );
            assert!(
                cluster
                    .partition(p)
                    .log
                    .unresolved_commit_votes(None)
                    .is_empty(),
                "no vote stays in doubt at {p:?}"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn empty_participant_lists_are_no_ops() {
        let cluster = cluster_with_mode(CommitMode::PaxosCommit, 1);
        let txn = cluster.next_txn_id(PartitionId(0));
        let before = cluster.net.messages_sent();
        let prepared = match prepare(&cluster, txn, PartitionId(0), &[]) {
            PrepareOutcome::Prepared(at) => at,
            other => panic!("{other:?}"),
        };
        decide_commit(&cluster, txn, PartitionId(0), &[], prepared);
        cluster
            .atomic_commit()
            .decide_abort(&cluster, txn, PartitionId(0), &[]);
        assert_eq!(cluster.net.messages_sent(), before);
        assert_eq!(cluster.commit_decisions(), 0);
        // No vote, no decision — the agent's own `Wp` record, logged every
        // millisecond here, may already be there.
        let logged = cluster.partition(PartitionId(0)).log.entries_from(0);
        assert!(
            logged
                .iter()
                .all(|e| matches!(*e.payload, LogPayload::Watermark { .. })),
            "{logged:?}"
        );
        cluster.shutdown();
    }
}
