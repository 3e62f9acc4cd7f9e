//! TAPIR-style protocol (Zhang et al., TOCS '18): transactional application
//! protocol over inconsistent replication.
//!
//! The real TAPIR co-designs OCC commit with a weak (inconsistent)
//! replication layer so that a transaction can prepare at all participant
//! replica groups in a *single* wide-area round trip and needs no separate
//! durable group commit. We keep that shape: optimistic execution, one
//! consolidated prepare round that validates and installs, no group-commit
//! wait (`manages_durability`). Under contention, OCC validation fails and
//! the client retries — which is exactly the behaviour §6.6 contrasts with
//! Primo (TAPIR has the lower latency, Primo the higher throughput).

use primo_runtime::cluster::Cluster;
use primo_runtime::context::{AccessCtx, ReadPolicy};
use primo_runtime::pipeline::{commit_locked, CommitSpec, Decision, ReadValidation, Step, TsRule};
use primo_runtime::prefetch::ReadFanout;
use primo_runtime::protocol::Protocol;
use primo_runtime::txn::TxnProgram;
use primo_storage::LockPolicy;
use primo_wal::TxnTicket;
use std::sync::Arc;

/// OCC validation at the participants inside one consolidated round to every
/// replica group (the fast path of inconsistent replication): the round's
/// response is the decision, and it covers durability too, so nothing is
/// charged afterwards — the commit layer only seals the verdict (durable
/// decision entries under Paxos Commit, a no-op under 2PC).
const TAPIR: CommitSpec = CommitSpec {
    write_locks: LockPolicy::NoWait,
    timestamp: TsRule::Sequence,
    validation: ReadValidation::Unchanged,
    decision: Decision::Sealed,
};

/// TAPIR-style OCC with inconsistent replication.
#[derive(Debug, Clone, Default)]
pub struct TapirProtocol;

impl TapirProtocol {
    pub fn new() -> Self {
        TapirProtocol
    }
}

impl Protocol for TapirProtocol {
    fn name(&self) -> &'static str {
        "TAPIR"
    }

    fn manages_durability(&self) -> bool {
        // The single prepare round already reaches a quorum of replicas.
        true
    }

    fn start<'a>(
        &self,
        cluster: &'a Cluster,
        program: &dyn TxnProgram,
        ticket: Arc<TxnTicket>,
        fanout: ReadFanout,
    ) -> Step<'a> {
        let home = program.home_partition();
        let mut ctx = AccessCtx::new(cluster, ticket, home, ReadPolicy::Optimistic, fanout);
        match ctx.run_body(program) {
            Ok(()) => commit_locked(ctx, &TAPIR),
            Err(e) => ctx.finish(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::{PartitionId, TableId, Value};
    use primo_runtime::txn::IncrementProgram;
    use primo_runtime::worker::run_session_txn;
    use std::sync::Arc;

    fn loaded(n: usize) -> Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::for_tests(n));
        for p in 0..n as u32 {
            for k in 0..32u64 {
                cluster
                    .partition(PartitionId(p))
                    .store
                    .insert(TableId(0), k, Value::from_u64(0));
            }
        }
        cluster
    }

    #[test]
    fn tapir_commits_with_a_single_extra_round() {
        let cluster = loaded(2);
        let protocol = TapirProtocol::new();
        let before = cluster.net.round_trips_charged();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![(PartitionId(1), TableId(0), 1)],
        };
        run_session_txn(&cluster, &protocol, &prog).unwrap();
        // 1 remote read + 1 consolidated prepare round (no commit round, no
        // group-commit wait).
        assert_eq!(cluster.net.round_trips_charged() - before, 2);
        assert!(protocol.manages_durability());
        cluster.shutdown();
    }

    #[test]
    fn tapir_retries_resolve_conflicts() {
        let cluster = loaded(1);
        let protocol = TapirProtocol::new();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![(PartitionId(0), TableId(0), 3)],
        };
        for _ in 0..5 {
            run_session_txn(&cluster, &protocol, &prog).unwrap();
        }
        assert_eq!(
            cluster
                .partition(PartitionId(0))
                .store
                .get(TableId(0), 3)
                .unwrap()
                .read()
                .value
                .as_u64(),
            5
        );
        cluster.shutdown();
    }
}
