//! Experiment harness: regenerates every figure of the paper's evaluation
//! (§6) on the simulated cluster, written entirely against the
//! [`primo_repro`] facade: a [`primo_repro::ClusterBuilder`] turned into a
//! [`primo_repro::Experiment`].
//!
//! Use the `figures` binary:
//!
//! ```text
//! cargo run -p primo-bench --release --bin figures -- fig4
//! cargo run -p primo-bench --release --bin figures -- all --quick
//! ```
//!
//! Each harness prints the same series the paper plots (throughput in kilo
//! transactions per second, abort rates, latency breakdowns, ...), so the
//! *shape* of every figure can be compared directly with the paper's; no
//! comparison is recorded in the repository.

pub mod figures;

pub use primo_repro::Scale;
