//! Reproduction of **Primo** (ICDE 2023): *Knock Out 2PC with Practicality
//! Intact — a High-performance and General Distributed Transaction Protocol*.
//!
//! This crate is the public face of the workspace. Two entry points cover
//! everything the paper's evaluation does:
//!
//! * **[`Primo`]** — build a simulated shared-nothing cluster with
//!   [`Primo::builder()`] (partitions, workers, protocol, group-commit
//!   scheme, timing) and run ad-hoc transactions through [`Session`]s.
//!   Transactions are arbitrary programs over [`TxnContext`]: they may
//!   branch on what they read, so the engine never needs a read/write set in
//!   advance — the generality argument of §1. A [`ProtocolKind`] selects
//!   Primo, one of its two ablations or one of the five baselines (2PL×2,
//!   Silo, Sundial, Aria, TAPIR), each paired with the group-commit scheme
//!   §6.1.3 prescribes.
//! * **[`Experiment`]** — the same builder turned into a measurement run
//!   with [`ClusterBuilder::experiment`]
//!   (`.scale(..).ycsb_with(..).crash(..).run()`), which returns a
//!   [`MetricsSnapshot`]; this is what the figure harnesses in `primo-bench`
//!   are written against.
//!
//! ```
//! use primo_repro::{PartitionId, Primo, ProtocolKind, Scale, TableId, Value};
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
//! let snap = Primo::builder()
//!     .protocol(ProtocolKind::Primo)
//!     .fast_local()
//!     .experiment()
//!     .scale(Scale::test())
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

pub use experiment::{Experiment, Scale};
pub use facade::{ClusterBuilder, Primo, Session};

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

/// The one map from a [`ProtocolKind`] to the protocol it names.
mod registry {
    use primo_baselines::{
        AriaProtocol, SiloProtocol, SundialProtocol, TapirProtocol, TwoPlProtocol,
    };
    use primo_common::config::{LoggingScheme, ProtocolKind};
    use primo_core::PrimoProtocol;
    use primo_runtime::protocol::Protocol;
    use std::sync::Arc;

    /// The protocol `kind` names and the group-commit scheme §6.1.3 pairs it
    /// with: the baselines and both ablations get COCO's epochs, full Primo its
    /// watermark. Aria logs inputs in its sequencing layer and TAPIR replicates
    /// in its prepare round, so the scheme is not on their commit path.
    pub(crate) fn protocol_for(kind: ProtocolKind) -> (Arc<dyn Protocol>, LoggingScheme) {
        use LoggingScheme::{CocoEpoch, Watermark};
        match kind {
            ProtocolKind::TwoPlNoWait => (Arc::new(TwoPlProtocol::no_wait()), CocoEpoch),
            ProtocolKind::TwoPlWaitDie => (Arc::new(TwoPlProtocol::wait_die()), CocoEpoch),
            ProtocolKind::Silo => (Arc::new(SiloProtocol::new()), CocoEpoch),
            ProtocolKind::Sundial => (Arc::new(SundialProtocol::new()), CocoEpoch),
            ProtocolKind::Aria => (Arc::new(AriaProtocol::new(Default::default())), Watermark),
            ProtocolKind::Tapir => (Arc::new(TapirProtocol::new()), Watermark),
            ProtocolKind::Primo => (Arc::new(PrimoProtocol::full()), Watermark),
            ProtocolKind::PrimoNoWm => (
                Arc::new(PrimoProtocol::full().labeled(kind.label())),
                CocoEpoch,
            ),
            ProtocolKind::PrimoNoWcfNoWm => (
                Arc::new(PrimoProtocol::without_wcf().labeled(kind.label())),
                CocoEpoch,
            ),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn standard_registry_covers_every_kind() {
            for kind in [
                ProtocolKind::TwoPlNoWait,
                ProtocolKind::TwoPlWaitDie,
                ProtocolKind::Silo,
                ProtocolKind::Sundial,
                ProtocolKind::Aria,
                ProtocolKind::Tapir,
                ProtocolKind::Primo,
                ProtocolKind::PrimoNoWm,
                ProtocolKind::PrimoNoWcfNoWm,
            ] {
                let (p, _) = protocol_for(kind);
                assert_eq!(p.name(), kind.label(), "{kind:?} label mismatch");
            }
        }

        #[test]
        fn logging_pairing_follows_the_paper() {
            assert_eq!(
                protocol_for(ProtocolKind::Primo).1,
                LoggingScheme::Watermark
            );
            assert_eq!(
                protocol_for(ProtocolKind::Sundial).1,
                LoggingScheme::CocoEpoch
            );
            assert_eq!(
                protocol_for(ProtocolKind::PrimoNoWm).1,
                LoggingScheme::CocoEpoch
            );
        }
    }
}
