//! **Primo** — the paper's contribution: a distributed transaction protocol
//! that eliminates two-phase commit while staying general.
//!
//! The two pillars:
//!
//! * [`protocol`] — the **write-conflict-free (WCF)** concurrency control of
//!   §4: local transactions run plain TicToc; a transaction switches to
//!   distributed mode on its first remote access and from then on acquires
//!   *exclusive* locks for every read, so that the commit phase can never
//!   hit a conflict and needs no prepare round. Blind writes are covered by
//!   dummy reads, deadlocks are prevented by WAIT_DIE, and an optional 2PC
//!   fallback handles the read-heavy corner the paper's analysis identifies
//!   (§4.3). The execution rules are the shared context's
//!   [`ReadPolicy::SwitchOnRemote`](primo_runtime::context::ReadPolicy);
//!   what lives here is the choice of commit path and the vote-free WCF
//!   commit itself.
//! * the **watermark-based group commit** of §5 lives in `primo-wal`
//!   ([`primo_wal::WatermarkCommit`]); this crate wires the protocol to it:
//!   coordinators constrain timestamps by the watermark floor, participants
//!   raise record floors on remote reads, and the worker returns a result
//!   only once the global watermark passes the transaction's timestamp.
//!
//! Downstream users and examples interact with the system through the
//! `primo_repro::Primo` facade crate, which wires this protocol into a
//! cluster handle with sessions, experiments and a protocol registry.

pub mod analysis;
pub mod protocol;

pub use protocol::PrimoProtocol;
