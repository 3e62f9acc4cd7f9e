//! Reproduction of **Primo** (ICDE 2023): *Knock Out 2PC with Practicality
//! Intact — a High-performance and General Distributed Transaction Protocol*.
//!
//! This crate is the public face of the workspace. Three entry points cover
//! everything the paper's evaluation does:
//!
//! * **[`Primo`]** — build a simulated shared-nothing cluster with
//!   [`Primo::builder()`] (partitions, workers, group-commit scheme, crash
//!   plans) and run ad-hoc transactions through [`Session`]s. Transactions
//!   are arbitrary programs over [`TxnContext`]: they may branch on what they
//!   read, so the engine never needs a read/write set in advance — the
//!   generality argument of §1.
//! * **[`ExperimentBuilder`]** — declare a measurement run fluently
//!   (`.protocol(..).workload(..).scale(..).crash(..)`) and receive a
//!   [`MetricsSnapshot`]; this is what the figure harnesses in `primo-bench`
//!   are written against.
//! * **[`ProtocolRegistry`]** — Primo, its two ablations and all five
//!   baselines (2PL×2, Silo, Sundial, Aria, TAPIR) behind one
//!   [`Protocol`] constructor keyed by [`ProtocolKind`], each paired with
//!   the group-commit scheme §6.1.3 prescribes.
//!
//! ```
//! use primo_repro::{Experiment, PartitionId, Primo, ProtocolKind, Scale, TableId, Value};
//!
//! // Ad-hoc transactions through the cluster facade:
//! let primo = Primo::builder().partitions(2).fast_local().build();
//! let session = primo.session();
//! session.load(PartitionId(0), TableId(0), 1, Value::from_u64(10));
//! session
//!     .transaction(PartitionId(0), |ctx| {
//!         let v = ctx.read(PartitionId(0), TableId(0), 1)?.as_u64();
//!         // `insert` creates the record on the remote partition at commit;
//!         // a plain `write` updates an existing one.
//!         ctx.insert(PartitionId(1), TableId(0), 2, Value::from_u64(v * 2))
//!     })
//!     .unwrap();
//! primo.shutdown();
//!
//! // A measurement run:
//! let snap = Experiment::new()
//!     .protocol(ProtocolKind::Primo)
//!     .scale(Scale::test())
//!     .fast_local()
//!     .run();
//! assert!(snap.committed > 0);
//! ```
//!
//! The sub-crates remain accessible under namespaced modules ([`common`],
//! [`storage`], [`net`], [`wal`], [`runtime`], [`core`], [`baselines`],
//! [`workloads`]) for low-level integration — protocol internals, WAL
//! primitives, lock tables — but experiment and transaction entry points
//! live here.

pub mod experiment;
pub mod facade;
pub mod registry;

pub use experiment::{Experiment, ExperimentBuilder, Scale};
pub use facade::{ClusterBuilder, Primo, Session};
pub use registry::{ProtocolEntry, ProtocolRegistry};

// The shared vocabulary, re-exported flat so facade users rarely need the
// namespaced modules.
pub use primo_common::config::{
    ClusterConfig, CommitMode, LoggingScheme, NetConfig, PrimoConfig, ProtocolKind, WalConfig,
};
pub use primo_common::{
    AbortReason, FastRng, Key, MetricsSnapshot, PartitionId, Phase, TableId, TxnError, TxnId,
    TxnResult, Value, ZipfGen,
};
pub use primo_core::PrimoProtocol;
pub use primo_recovery::{CheckpointStats, Checkpointer, RecoveryManager, RecoveryReport};
pub use primo_runtime::commit::{AtomicCommit, ClassicTwoPc, PaxosCommit, PrepareOutcome};
pub use primo_runtime::experiment::{CrashKind, CrashPlan};
pub use primo_runtime::prefetch::{Footprint, PrefetchOutcome, ReadFanout};
pub use primo_runtime::protocol::{CommittedTxn, Protocol};
pub use primo_runtime::snapshot::{execute_snapshot, SnapshotOutcome, SnapshotSession};
pub use primo_runtime::txn::{ClosureProgram, TxnContext, TxnProgram, Workload};
pub use primo_trace::{FlightRecorder, Timeline, TraceEvent, TraceEventKind, WatermarkCause};
pub use primo_workloads::{
    SmallbankConfig, SmallbankWorkload, TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload,
};

// Namespaced access to the sub-crates for advanced integration.
pub use primo_baselines as baselines;
pub use primo_common as common;
pub use primo_core as core;
pub use primo_net as net;
pub use primo_recovery as recovery;
pub use primo_runtime as runtime;
pub use primo_storage as storage;
pub use primo_trace as trace;
pub use primo_wal as wal;
pub use primo_workloads as workloads;
