//! Merged, causally-ordered view over every ring, with the filters a
//! post-mortem needs: by transaction, by partition, by event kind.

use crate::event::{TraceEvent, TraceEventKind};
use primo_common::{PartitionId, TxnId};
use std::fmt;
use std::fmt::Write as _;

/// An ordered (non-decreasing `at_us`) sequence of decoded events, and how
/// lossy the rings it was merged from were.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl Timeline {
    pub(crate) fn new(events: Vec<TraceEvent>, dropped: u64) -> Self {
        Timeline { events, dropped }
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events the rings had overwritten when this timeline was merged
    /// ([`FlightRecorder::events_dropped`](crate::FlightRecorder::events_dropped)):
    /// 0 means nothing recorded is missing from it.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every event stamped with this transaction, in causal order.
    pub fn for_txn(&self, txn: TxnId) -> Timeline {
        self.filtered(|e| e.txn == Some(txn))
    }

    /// Every event concerning this partition.
    pub fn for_partition(&self, p: PartitionId) -> Timeline {
        self.filtered(|e| e.partition == Some(p))
    }

    /// Every event matching a kind predicate (e.g. only WAL appends).
    pub fn of_kind(&self, pred: impl Fn(&TraceEventKind) -> bool) -> Timeline {
        self.filtered(|e| pred(&e.kind))
    }

    /// Events within the closed sim-time window `[from_us, to_us]`.
    pub fn between(&self, from_us: u64, to_us: u64) -> Timeline {
        self.filtered(|e| e.at_us >= from_us && e.at_us <= to_us)
    }

    fn filtered(&self, pred: impl Fn(&TraceEvent) -> bool) -> Timeline {
        Timeline {
            events: self.events.iter().filter(|e| pred(e)).cloned().collect(),
            dropped: self.dropped,
        }
    }

    /// The post-mortem rendering used by trace-dump-on-failure: each
    /// offending transaction's full lifecycle, then the non-transaction
    /// events (crashes, watermark publishes, leader changes, recovery
    /// passes) of the partitions it touched, inside its time window padded
    /// by `WINDOW_PAD_US` on both sides.
    pub fn failure_report(&self, txns: &[TxnId]) -> String {
        const WINDOW_PAD_US: u64 = 2_000;
        let mut out = String::new();
        let dropped = self.dropped;
        let _ = writeln!(out, "==== flight recorder: {dropped} event(s) dropped ====");
        if self.is_empty() {
            let _ = writeln!(out, "(recorder is empty — was recording enabled?)");
            return out;
        }
        for &txn in txns {
            let mine = self.for_txn(txn);
            let _ = writeln!(out, "--- txn {txn}: {} event(s) ---", mine.len());
            if mine.is_empty() {
                let _ = match dropped {
                    0 => writeln!(out, "(no events, and the rings dropped none)"),
                    n => writeln!(out, "(no events; the rings dropped {n} older event(s))"),
                };
                continue;
            }
            for e in mine.events() {
                let _ = writeln!(out, "{e}");
            }
            let from = mine.events.first().map(|e| e.at_us).unwrap_or(0);
            let to = mine.events.last().map(|e| e.at_us).unwrap_or(u64::MAX);
            let mut parts: Vec<PartitionId> =
                mine.events.iter().filter_map(|e| e.partition).collect();
            parts.sort_unstable();
            parts.dedup();
            for p in parts {
                let around = self
                    .for_partition(p)
                    .between(from.saturating_sub(WINDOW_PAD_US), to + WINDOW_PAD_US)
                    .filtered(|e| e.txn.is_none());
                if around.is_empty() {
                    continue;
                }
                let _ = writeln!(out, "--- {p} context around txn {txn} ---");
                for e in around.events() {
                    let _ = writeln!(out, "{e}");
                }
            }
        }
        let _ = writeln!(out, "==== end trace dump ====");
        out
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;
    use primo_common::AbortReason;

    fn sample() -> FlightRecorder {
        let rec = FlightRecorder::new(true, 128);
        let t1 = TxnId::new(PartitionId(0), 1);
        let t2 = TxnId::new(PartitionId(1), 2);
        let p0 = Some(PartitionId(0));
        let p1 = Some(PartitionId(1));
        rec.emit_at(10, Some(t1), p0, TraceEventKind::Begin { attempt: 1 });
        rec.emit_at(20, None, p0, TraceEventKind::WatermarkPublish { wg: 5 });
        let reserved = TraceEventKind::CommitTsReserved { ts: 7, took_us: 1 };
        rec.emit_at(30, Some(t1), p0, reserved);
        rec.emit_at(40, Some(t2), p1, TraceEventKind::Begin { attempt: 1 });
        rec.emit_at(
            50,
            Some(t2),
            p1,
            TraceEventKind::Abort {
                reason: AbortReason::WaitDie,
                backoff_us: 0,
            },
        );
        let committed = TraceEventKind::Committed {
            ts: 7,
            durable: false,
        };
        rec.emit_at(60, Some(t1), p0, committed);
        rec.emit_at(99_999, None, p0, TraceEventKind::CrashInjected);
        rec
    }

    #[test]
    fn filters_compose() {
        let tl = sample().merge();
        let t1 = TxnId::new(PartitionId(0), 1);
        assert_eq!(tl.len(), 7);
        assert_eq!(tl.for_txn(t1).len(), 3);
        assert_eq!(tl.for_partition(PartitionId(1)).len(), 2);
        assert_eq!(
            tl.of_kind(|k| matches!(k, TraceEventKind::Begin { .. }))
                .len(),
            2
        );
        assert_eq!(tl.for_partition(PartitionId(0)).between(15, 35).len(), 2);
    }

    #[test]
    fn failure_report_contains_lifecycle_and_context() {
        let rec = sample();
        let t1 = TxnId::new(PartitionId(0), 1);
        let report = rec.failure_report(&[t1]);
        assert!(report.contains("txn T0.1: 3 event(s)"), "{report}");
        assert!(report.contains("commit-ts-reserved ts=7"), "{report}");
        assert!(
            report.contains("watermark-publish wg=5"),
            "partition context missing: {report}"
        );
        assert!(
            !report.contains("crash-injected"),
            "far-away event leaked into the window: {report}"
        );
        assert!(!report.contains("T1.2"), "other txn leaked: {report}");
    }

    #[test]
    fn failure_report_says_whether_the_rings_lost_anything() {
        let unknown = TxnId::new(PartitionId(2), 3);
        let report = sample().failure_report(&[unknown]);
        assert!(report.contains(": 0 event(s) dropped"), "{report}");
        assert!(report.contains("the rings dropped none"), "{report}");
        let rec = FlightRecorder::new(true, 8);
        for at in 0..10 {
            rec.emit_at(at, None, None, TraceEventKind::CrashInjected);
        }
        let report = rec.failure_report(&[unknown]);
        assert!(report.contains("dropped 2 older event(s)"), "{report}");
    }

    #[test]
    fn failure_report_on_empty_recorder_says_so() {
        let rec = FlightRecorder::new(true, 64);
        let report = rec.failure_report(&[TxnId::new(PartitionId(0), 1)]);
        assert!(report.contains("recorder is empty"), "{report}");
    }
}
