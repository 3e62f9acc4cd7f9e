//! Silo-style OCC (Tu et al., SOSP '13) in its distributed variant from COCO:
//! reads record versions without locks; at commit the write set is locked and
//! the read set validated (unchanged versions, no foreign locks) as part of
//! the 2PC prepare round; the decision round releases the locks.

use primo_common::PhaseTimers;
use primo_runtime::cluster::Cluster;
use primo_runtime::context::{AccessCtx, ReadPolicy};
use primo_runtime::pipeline::{commit_locked, CommitSpec, Decision, ReadValidation, Step, TsRule};
use primo_runtime::prefetch::ReadFanout;
use primo_runtime::protocol::Protocol;
use primo_runtime::txn::TxnProgram;
use primo_storage::LockPolicy;
use primo_wal::TxnTicket;
use std::sync::Arc;

/// Silo's commit inside the 2PC rounds: lock the write set (abort at once on
/// a conflict), require every read version unchanged and unlocked, install
/// as a version bump.
const SILO: CommitSpec = CommitSpec {
    write_locks: LockPolicy::NoWait,
    timestamp: TsRule::Sequence,
    validation: ReadValidation::Unchanged,
    decision: Decision::Round,
};

/// Distributed Silo (OCC).
#[derive(Debug, Clone, Default)]
pub struct SiloProtocol;

impl SiloProtocol {
    pub fn new() -> Self {
        SiloProtocol
    }
}

impl Protocol for SiloProtocol {
    fn name(&self) -> &'static str {
        "Silo"
    }

    fn start<'a>(
        &self,
        cluster: &'a Cluster,
        program: &dyn TxnProgram,
        ticket: Arc<TxnTicket>,
        timers: &mut PhaseTimers,
        fanout: ReadFanout,
    ) -> Step<'a> {
        let home = program.home_partition();
        let mut ctx = AccessCtx::new(cluster, ticket, home, ReadPolicy::Optimistic, fanout);
        match ctx.run_body(program, timers) {
            Ok(()) => commit_locked(ctx, &SILO, timers),
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
    use primo_runtime::worker::run_single_txn;
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
    fn silo_commits_read_modify_writes() {
        let cluster = loaded(2);
        let protocol = SiloProtocol::new();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![
                (PartitionId(0), TableId(0), 1),
                (PartitionId(1), TableId(0), 1),
            ],
        };
        run_single_txn(&cluster, &protocol, &prog).unwrap();
        for p in 0..2u32 {
            assert_eq!(
                cluster
                    .partition(PartitionId(p))
                    .store
                    .get(TableId(0), 1)
                    .unwrap()
                    .read()
                    .value
                    .as_u64(),
                1
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn silo_distributed_txn_charges_two_commit_rounds() {
        let cluster = loaded(2);
        let protocol = SiloProtocol::new();
        let before = cluster.net.round_trips_charged();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![(PartitionId(1), TableId(0), 9)],
        };
        run_single_txn(&cluster, &protocol, &prog).unwrap();
        assert_eq!(cluster.net.round_trips_charged() - before, 3);
        cluster.shutdown();
    }
}
