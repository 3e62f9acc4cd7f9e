//! `primo-trace`: the cluster flight recorder.
//!
//! An always-on, low-overhead tracing substrate for the Primo reproduction:
//! every layer (workers, commit paths, the replicated WAL, group-commit
//! schemes, recovery) emits [`TraceEventKind`] events against the cluster's
//! [`FlightRecorder`]. Events land in per-thread fixed-capacity
//! [`TraceRing`]s — overwrite-oldest, zero allocation on the hot path — and
//! can be merged at any point into a causally-ordered [`Timeline`] filtered
//! by transaction, partition or kind.
//!
//! Two consumers pay for the machinery:
//!
//! * **Trace-dump-on-failure** — the seeded crash loops in the integration
//!   suites capture the recorder and, when an assertion trips, panic with
//!   [`FlightRecorder::failure_report`] for the offending transactions: the
//!   full lifecycle (begin → locks → validation → commit-ts → WAL append →
//!   group-commit release) plus surrounding partition events.
//! * The **metrics timeline** — the experiment driver samples windowed
//!   TPS / abort-rate / p99 series for the figure harnesses.
//!
//! The overhead budget (≤ 5% on contended-append and write-heavy YCSB,
//! recording-on vs off) is enforced by `bench_matrix --trace-overhead` in
//! CI; see ARCHITECTURE.md §Observability.

mod event;
mod recorder;
mod ring;
mod timeline;

pub use event::{TraceEvent, TraceEventKind, WatermarkCause};
pub use recorder::{FlightRecorder, DEFAULT_RING_CAPACITY};
pub use ring::TraceRing;
pub use timeline::Timeline;
