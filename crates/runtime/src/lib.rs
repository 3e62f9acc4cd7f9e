//! Cluster runtime: partitions, workers, the protocol abstraction and the
//! experiment driver.
//!
//! The runtime is protocol-agnostic. A [`Protocol`]
//! implements one *attempt* of a transaction — by handing the program the one
//! [`AccessCtx`] under its [`ReadPolicy`] and committing through the one
//! [`pipeline`] under its [`CommitSpec`](pipeline::CommitSpec); the
//! [`worker`] loop supplies retries with exponential back-off, ties the
//! attempt to the group-commit scheme and records metrics; the
//! [`experiment`] driver assembles a cluster, loads a workload, runs workers
//! for a fixed duration and returns a [`primo_common::MetricsSnapshot`].

pub mod access;
pub mod cluster;
pub mod commit;
pub mod context;
pub mod durability;
pub mod experiment;
pub mod pipeline;
pub mod prefetch;
pub mod protocol;
pub mod snapshot;
pub mod txn;
pub mod worker;

pub use access::{AccessSet, ReadEntry, WriteEntry, WriteKind};
pub use cluster::{Cluster, Partition};
pub use commit::{AtomicCommit, ClassicTwoPc, PaxosCommit, PrepareOutcome, PreparedAt};
pub use context::{AccessCtx, ReadPolicy};
pub use durability::log_txn_writes;
pub use experiment::{run_on_cluster, CrashPlan, ExperimentOptions};
pub use prefetch::{Footprint, PrefetchOutcome, ReadFanout};
pub use protocol::{CommittedTxn, Protocol};
pub use snapshot::{execute_snapshot, SnapshotOutcome, SnapshotSession};
pub use txn::{ClosureProgram, TxnContext, TxnProgram, Workload};
