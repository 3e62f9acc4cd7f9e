//! 2PL + 2PC (§2.1): shared locks for reads during execution, exclusive
//! locks + write installation during the 2PC prepare round, decision in the
//! commit round, locks held until the decision is propagated.
//!
//! Two deadlock-handling variants, as in the paper: NO_WAIT (abort on any
//! conflict) and WAIT_DIE (older transactions wait).

use primo_runtime::cluster::Cluster;
use primo_runtime::context::{AccessCtx, ReadPolicy};
use primo_runtime::pipeline::{commit_locked, CommitSpec, Decision, ReadValidation, Step, TsRule};
use primo_runtime::prefetch::ReadFanout;
use primo_runtime::protocol::Protocol;
use primo_runtime::txn::TxnProgram;
use primo_storage::{LockMode, LockPolicy};
use primo_wal::TxnTicket;
use std::sync::Arc;

/// 2PL + 2PC.
#[derive(Debug, Clone)]
pub struct TwoPlProtocol {
    policy: LockPolicy,
    label: &'static str,
}

impl TwoPlProtocol {
    pub fn no_wait() -> Self {
        TwoPlProtocol {
            policy: LockPolicy::NoWait,
            label: "2PL(NW)",
        }
    }

    pub fn wait_die() -> Self {
        TwoPlProtocol {
            policy: LockPolicy::WaitDie,
            label: "2PL(WD)",
        }
    }

    pub fn policy(&self) -> LockPolicy {
        self.policy
    }
}

impl Protocol for TwoPlProtocol {
    fn name(&self) -> &'static str {
        self.label
    }

    fn start<'a>(
        &self,
        cluster: &'a Cluster,
        program: &dyn TxnProgram,
        ticket: Arc<TxnTicket>,
        fanout: ReadFanout,
    ) -> Step<'a> {
        let policy = ReadPolicy::Locked {
            mode: LockMode::Shared,
            policy: self.policy,
        };
        let mut ctx = AccessCtx::new(cluster, ticket, program.home_partition(), policy, fanout);
        if let Err(e) = ctx.run_body(program) {
            return ctx.finish(Err(e));
        }
        // Reads hold their shared locks to the end, so the vote round only
        // has to upgrade the write set; there is nothing to validate.
        let spec = CommitSpec {
            write_locks: self.policy,
            timestamp: TsRule::Sequence,
            validation: ReadValidation::None,
            decision: Decision::Round,
        };
        commit_locked(ctx, &spec)
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
    fn two_pl_commits_local_and_distributed() {
        for protocol in [TwoPlProtocol::no_wait(), TwoPlProtocol::wait_die()] {
            let cluster = loaded(2);
            let local = IncrementProgram {
                home: PartitionId(0),
                accesses: vec![(PartitionId(0), TableId(0), 1)],
            };
            let dist = IncrementProgram {
                home: PartitionId(0),
                accesses: vec![
                    (PartitionId(0), TableId(0), 2),
                    (PartitionId(1), TableId(0), 2),
                ],
            };
            run_session_txn(&cluster, &protocol, &local).unwrap();
            run_session_txn(&cluster, &protocol, &dist).unwrap();
            assert_eq!(
                cluster
                    .partition(PartitionId(1))
                    .store
                    .get(TableId(0), 2)
                    .unwrap()
                    .read()
                    .value
                    .as_u64(),
                1
            );
            cluster.shutdown();
        }
    }

    #[test]
    fn two_pl_distributed_pays_prepare_and_commit_rounds() {
        let cluster = loaded(2);
        let protocol = TwoPlProtocol::no_wait();
        let before = cluster.net.round_trips_charged();
        let dist = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![(PartitionId(1), TableId(0), 5)],
        };
        run_session_txn(&cluster, &protocol, &dist).unwrap();
        // 1 remote read + prepare + commit.
        assert_eq!(cluster.net.round_trips_charged() - before, 3);
        cluster.shutdown();
    }

    #[test]
    fn no_wait_aborts_on_conflict_rather_than_blocking() {
        let cluster = loaded(1);
        let protocol = TwoPlProtocol::no_wait();
        // Hold an exclusive lock from a fake older transaction.
        let blocker = cluster.next_txn_id(PartitionId(0));
        let rec = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 7)
            .unwrap();
        rec.acquire(
            blocker,
            primo_storage::LockMode::Exclusive,
            LockPolicy::NoWait,
        );
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![(PartitionId(0), TableId(0), 7)],
        };
        let ticket = cluster
            .group_commit
            .begin_txn(PartitionId(0), cluster.next_txn_id(PartitionId(0)));
        let err = protocol
            .execute_once(&cluster, &prog, &ticket, ReadFanout::empty())
            .unwrap_err();
        assert!(err.reason().is_conflict());
        rec.release(blocker);
        cluster.shutdown();
    }
}
