//! Sundial (Yu et al., VLDB '18): TicToc-style logical leases harmonised with
//! caching, plus 2PC for distributed transactions. The paper uses it as the
//! strongest OCC baseline (it usually is the best of the five competitors).
//!
//! Compared with Silo, Sundial validates by *renewing leases* (extending a
//! record's `rts`) instead of insisting the version is unchanged, so fewer
//! read-validation aborts occur; but it still needs the 2PC prepare/commit
//! rounds that Primo eliminates.

use primo_runtime::cluster::Cluster;
use primo_runtime::context::{AccessCtx, ReadPolicy};
use primo_runtime::pipeline::{commit_locked, CommitSpec, Decision, ReadValidation, Step, TsRule};
use primo_runtime::prefetch::ReadFanout;
use primo_runtime::protocol::Protocol;
use primo_runtime::txn::TxnProgram;
use primo_storage::LockPolicy;
use primo_wal::TxnTicket;
use std::sync::Arc;

/// Sundial's commit inside the 2PC rounds: lock the write set, take the
/// TicToc timestamp from the observed leases and validate by *renewing*
/// them, install at that timestamp.
const SUNDIAL: CommitSpec = CommitSpec {
    write_locks: LockPolicy::NoWait,
    timestamp: TsRule::Lease,
    validation: ReadValidation::RenewLease,
    decision: Decision::Round,
};

/// Sundial: TicToc leases + 2PC.
#[derive(Debug, Clone, Default)]
pub struct SundialProtocol;

impl SundialProtocol {
    pub fn new() -> Self {
        SundialProtocol
    }
}

impl Protocol for SundialProtocol {
    fn name(&self) -> &'static str {
        "Sundial"
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
            Ok(()) => commit_locked(ctx, &SUNDIAL),
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
    fn sundial_commits_and_tags_timestamps() {
        let cluster = loaded(2);
        let protocol = SundialProtocol::new();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![
                (PartitionId(0), TableId(0), 1),
                (PartitionId(1), TableId(0), 2),
            ],
        };
        run_session_txn(&cluster, &protocol, &prog).unwrap();
        let (wts, rts) = cluster
            .partition(PartitionId(1))
            .store
            .get(TableId(0), 2)
            .unwrap()
            .timestamps();
        assert!(wts > 0);
        assert_eq!(wts, rts);
        cluster.shutdown();
    }

    #[test]
    fn sundial_lease_renewal_tolerates_rts_extension_by_others() {
        // A record whose rts was extended (but not overwritten) since we read
        // it must still validate — this is Sundial's advantage over Silo.
        let cluster = loaded(1);
        let protocol = SundialProtocol::new();
        let rec = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 5)
            .unwrap();
        rec.install(Value::from_u64(7), 3);
        // A reader extends the lease concurrently.
        rec.extend_rts(50);
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![(PartitionId(0), TableId(0), 5)],
        };
        run_session_txn(&cluster, &protocol, &prog).unwrap();
        assert_eq!(rec.read().value.as_u64(), 8);
        cluster.shutdown();
    }

    #[test]
    fn sundial_distributed_needs_2pc_rounds() {
        let cluster = loaded(2);
        let protocol = SundialProtocol::new();
        let before = cluster.net.round_trips_charged();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![(PartitionId(1), TableId(0), 8)],
        };
        run_session_txn(&cluster, &protocol, &prog).unwrap();
        assert_eq!(cluster.net.round_trips_charged() - before, 3);
        cluster.shutdown();
    }
}
