//! The distributed transaction protocol abstraction.
//!
//! A protocol implements exactly one *attempt* of a transaction: execute the
//! program, acquire whatever locks / validation it needs, and either install
//! the write-set (returning the commit information) or abort. Retries,
//! back-off, group commit and metrics are the worker loop's job, so every
//! protocol is measured under identical conditions — the same methodology the
//! paper uses by implementing all competitors in one framework.
//!
//! An attempt is *staged*: [`Protocol::start`] runs it up to its first wait
//! on the wire and says where it stands ([`Step`]); whoever runs it resumes
//! it when the replies are back. Who waits is the caller's business — a
//! worker runs other clients meanwhile, a probe sits the wait out
//! ([`Protocol::execute_once`]).

use crate::cluster::Cluster;
use crate::pipeline::Step;
use crate::prefetch::ReadFanout;
use crate::txn::TxnProgram;
use primo_common::{Ts, TxnResult};
use primo_wal::TxnTicket;
use std::sync::Arc;

/// Information about a successfully installed transaction attempt.
#[derive(Debug, Clone, Copy)]
pub struct CommittedTxn {
    /// Logical commit timestamp (0 if the protocol has none; the group-commit
    /// scheme will assign a sequence timestamp as needed).
    pub ts: Ts,
    /// Number of records accessed (reads + writes) — used by CLV's
    /// dependency-tracking model and by per-op accounting.
    pub ops: usize,
    /// Whether the transaction touched more than one partition.
    pub distributed: bool,
}

/// A distributed transaction protocol.
pub trait Protocol: Send + Sync {
    /// Label used in figures ("Primo", "2PL(NW)", ...).
    fn name(&self) -> &'static str;

    /// True if the protocol confirms durability itself (Aria's sequencing
    /// layer logs inputs before execution; TAPIR replicates synchronously in
    /// its prepare round). The worker then skips the group-commit wait.
    fn manages_durability(&self) -> bool {
        false
    }

    /// Start one attempt of `program` under `ticket` (its transaction id is
    /// the ticket's) and run it up to its first wait on the wire, or to its
    /// end.
    ///
    /// [`Step::Done`]: on success the write-set is fully installed on all
    /// involved partitions and all locks are released; on failure every
    /// partial effect has been undone / released. [`Step::Waiting`]: a 2PC
    /// round of the attempt's commit is on the wire, and
    /// [`InFlight::resume`](crate::pipeline::InFlight::resume) continues it
    /// once the replies are back.
    ///
    /// `fanout` is the attempt's prefetch buffer (resolved by the worker
    /// from the program's hint or the previous attempt's learned footprint;
    /// [`ReadFanout::empty`] when batching is off): the protocol's context
    /// consults it before charging per-record remote round trips, and
    /// reports the remote accesses it actually performs for footprint
    /// learning. It never changes what commits — only what the network
    /// charges — and comes back with the outcome.
    fn start<'a>(
        &self,
        cluster: &'a Cluster,
        program: &dyn TxnProgram,
        ticket: Arc<TxnTicket>,
        fanout: ReadFanout,
    ) -> Step<'a>;

    /// One attempt from start to end, waiting every round out: the staged
    /// steps with the waits between them.
    fn execute_once(
        &self,
        cluster: &Cluster,
        program: &dyn TxnProgram,
        ticket: &Arc<TxnTicket>,
        fanout: ReadFanout,
    ) -> TxnResult<CommittedTxn> {
        self.start(cluster, program, Arc::clone(ticket), fanout)
            .wait_out()
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::PartitionId;

    /// A no-op protocol used to exercise the trait object plumbing.
    struct NoopProtocol;

    impl Protocol for NoopProtocol {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn start<'a>(
            &self,
            _cluster: &'a Cluster,
            _program: &dyn TxnProgram,
            ticket: Arc<TxnTicket>,
            fanout: ReadFanout,
        ) -> Step<'a> {
            let commit = CommittedTxn {
                ts: 1,
                ops: 0,
                distributed: false,
            };
            Step::Done((Ok(commit), ticket, fanout))
        }
    }

    #[test]
    fn protocol_trait_object_works() {
        let p: Box<dyn Protocol> = Box::new(NoopProtocol);
        assert_eq!(p.name(), "noop");
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let txn = cluster.next_txn_id(PartitionId(0));
        let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
        let prog = crate::txn::IncrementProgram {
            home: PartitionId(0),
            accesses: vec![],
        };
        let out = p
            .execute_once(&cluster, &prog, &ticket, ReadFanout::empty())
            .unwrap();
        assert_eq!(out.ts, 1);
        assert!(!out.distributed);
        cluster.shutdown();
    }
}
