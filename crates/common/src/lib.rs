//! Common types shared by every crate in the Primo reproduction workspace.
//!
//! This crate deliberately has no dependency on the storage, network or
//! protocol crates: it defines the vocabulary (identifiers, values, abort
//! reasons, configuration, statistics) that all of them speak.

pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod phase;
pub mod rng;
pub mod sim_time;
pub mod stats;
pub mod value;

pub use config::{ClusterConfig, LoggingScheme, NetConfig, PrimoConfig, ProtocolKind, WalConfig};
pub use error::{AbortReason, TxnError, TxnResult};
pub use hash::{FastHasher, FastMap};
pub use ids::{PartitionId, TableId, ThreadId, Ts, TxnId};
pub use phase::Phase;
pub use rng::{FastRng, ZipfGen};
pub use stats::{
    ClusterStats, Histogram, HistogramCounts, Metrics, MetricsSnapshot, TimelineWindow,
};
pub use value::{Key, Row, Value};
