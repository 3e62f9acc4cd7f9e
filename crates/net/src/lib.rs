//! Simulated cluster network.
//!
//! The paper runs on a real 16 Gbps Ethernet cluster; this reproduction keeps
//! every partition in one process and *charges* network latency to the calling
//! thread instead. The key property preserved is the contention footprint: a
//! transaction that performs a remote access or a 2PC round holds its locks
//! for the corresponding round-trip time.
//!
//! Two communication styles are provided:
//!
//! * [`SimNetwork`] — synchronous RPC-style charging (`round_trip`,
//!   `one_way`) plus message counting and per-partition crash flags. A
//!   fan-out can also be sent without waiting
//!   (`begin_round_trip_multi` returns the [`RoundTrip`]'s deadline), so a
//!   worker runs other clients while one's reads are on the wire.
//! * [`DelayedBus`] — asynchronous delivery of control messages (partition
//!   watermarks, epoch coordination) after a configurable delay, used by the
//!   group-commit schemes.

pub mod bus;
pub mod network;

pub use bus::{BusMessage, DelayedBus};
pub use network::{PartitionHealth, RoundTrip, SimNetwork};
