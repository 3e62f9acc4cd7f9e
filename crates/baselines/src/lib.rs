//! Baseline distributed transaction protocols the paper compares against
//! (§6.1.1), all implemented on the same substrate as Primo:
//!
//! * [`twopl`]  — 2PL + 2PC with NO_WAIT or WAIT_DIE deadlock handling
//!   (Spanner-like, §2.1).
//! * [`silo`]   — Silo-style OCC with COCO's distributed commit protocol.
//! * [`sundial`] — Sundial: TicToc-based OCC with logical leases + 2PC.
//! * [`aria`]   — Aria: deterministic batched execution without read/write-set
//!   knowledge; 2PC-like barriers per batch, durability via input logging.
//! * [`tapir`]  — TAPIR-style: OCC with inconsistent replication; one
//!   consolidated prepare round, no group-commit wait.
//!
//! Each is a [`ReadPolicy`](primo_runtime::context::ReadPolicy) for the
//! shared access context plus a
//! [`CommitSpec`](primo_runtime::pipeline::CommitSpec) for the shared commit
//! pipeline — a few lines per protocol; only Aria, which neither locks nor
//! validates at commit time, brings a commit routine of its own.
//!
//! All of them pair with the group-commit schemes in `primo-wal` exactly like
//! Primo does, which is what Figs 4, 5, 11 and 14 measure.

pub mod aria;
pub mod silo;
pub mod sundial;
pub mod tapir;
pub mod twopl;

pub use aria::AriaProtocol;
pub use silo::SiloProtocol;
pub use sundial::SundialProtocol;
pub use tapir::TapirProtocol;
pub use twopl::TwoPlProtocol;
