//! The latency breakdown of Fig 4c / 5c, as a fold over the flight recorder
//! ([`PhaseFold`]).

use crate::event::{TraceEvent, TraceEventKind, TraceEventKind::*};
use crate::timeline::Timeline;
use primo_common::{Phase, TxnId};
use std::collections::HashMap;
use std::ops::RangeBounds;

/// Where the committed transactions of a recording spent their latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Microseconds charged to each phase, in [`Phase::ALL`] order, summed
    /// over the covered transactions.
    pub phase_us: [u64; 8],
    /// The covered transactions' traced latencies, summed: exactly what
    /// `phase_us` adds up to.
    pub latency_us: u64,
    /// Committed transactions folded.
    pub covered: u64,
    /// Committed transactions whose first `Begin` the rings no longer held.
    pub skipped: u64,
}

impl PhaseBreakdown {
    /// Microseconds charged to `phase`, summed over the covered transactions.
    pub fn us(&self, phase: Phase) -> u64 {
        self.phase_us[phase as usize]
    }

    /// Mean milliseconds a covered transaction spent in `phase`.
    pub fn mean_ms(&self, phase: Phase) -> f64 {
        match self.covered {
            0 => 0.0,
            n => self.us(phase) as f64 / n as f64 / 1000.0,
        }
    }

    fn charge(&mut self, phase: Phase, us: u64) {
        self.phase_us[phase as usize] += us;
    }

    /// Fold one transaction: `events`, in time order, run from its first
    /// `Begin` to its end.
    fn fold(&mut self, events: &[Mark]) {
        let first = events[0].at_us;
        let first_attempt = events
            .iter()
            .take_while(|m| !matches!(m.kind, Abort { .. }));
        let sent = first_attempt
            .filter_map(|m| match m.kind {
                PrefetchIssued { sent_us_ago, .. } => Some(m.at_us.saturating_sub(sent_us_ago)),
                _ => None,
            })
            .next();
        let start = sent.map_or(first, |sent| sent.min(first));
        let (mut cursor, mut doing, mut backoff_us) = (start, Phase::Execute, 0);
        for m in events {
            let at_us = m.at_us.max(cursor);
            // The waits the event carries end at it, the last one first.
            let mut end = at_us;
            for (waited, wait_us) in carried_waits(&m.kind).into_iter().rev() {
                let from = end.saturating_sub(wait_us).max(cursor);
                self.charge(waited, end - from);
                end = from;
            }
            let backed_off = (cursor + backoff_us).min(end);
            self.charge(Phase::Backoff, backed_off - cursor);
            self.charge(doing, end - backed_off);
            cursor = at_us;
            (doing, backoff_us) = match m.kind {
                Abort { backoff_us, .. } => (Phase::Execute, backoff_us),
                kind => (after(&kind), 0),
            };
        }
        self.latency_us += cursor - start;
        self.covered += 1;
    }
}

/// The table: what a transaction does after an event, until its next one.
fn after(kind: &TraceEventKind) -> Phase {
    match kind {
        Begin { .. }
        | PrefetchIssued { .. }
        | PrefetchHit
        | PrefetchStale
        | LockWait { .. }
        | BatchSequenced { .. } => Phase::Execute,
        Prepare { .. } => Phase::TwoPc,
        Committed { .. } => Phase::Return,
        _ => Phase::Commit,
    }
}

/// The waits an event carries, in the order they were waited: the second
/// ends at the event, the first where the second began.
fn carried_waits(kind: &TraceEventKind) -> [(Phase, u64); 2] {
    let none = (Phase::Execute, 0);
    match *kind {
        Vote {
            flight_us, late_us, ..
        }
        | DecisionReached {
            flight_us, late_us, ..
        } => [none, (Phase::TwoPc, flight_us + late_us)],
        PrefetchIssued { sent_us_ago, .. } => [none, (Phase::Execute, sent_us_ago)],
        CommitTsReserved { took_us, .. } => [none, (Phase::Timestamp, took_us)],
        BatchSequenced { wait_us } => [none, (Phase::Sequence, wait_us)],
        BatchBarrier { wait_us, round_us } => {
            [(Phase::WaitBatch, wait_us), (Phase::TwoPc, round_us)]
        }
        _ => [none; 2],
    }
}

/// What the fold keeps of one of a transaction's events.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at_us: u64,
    kind: TraceEventKind,
}

/// The latency breakdown, folded one event at a time: over a merged
/// [`Timeline`] ([`Timeline::phase_breakdown`]), or from the rings while
/// they record ([`FlightRecorder::fold_phases`](crate::FlightRecorder::fold_phases)),
/// which is how the experiment driver covers a whole measurement window.
///
/// A committed transaction's *traced latency* runs from its first attempt's
/// `Begin` — or, if earlier, the send of that attempt's read fan-out
/// (`PrefetchIssued` at `at - sent_us_ago`) — to its `GroupCommitRelease`,
/// or to its `Committed { durable: true }` when no group commit releases it
/// (Aria and TAPIR manage their own durability). The fold cuts that span at
/// the transaction's own events and charges every gap between two of them
/// to one phase, by what the transaction does after the event that opens
/// the gap:
///
/// | the gap after | phase |
/// |---|---|
/// | `Begin`, `PrefetchIssued`, `PrefetchHit`, `PrefetchStale`, `LockWait`, `BatchSequenced` | Execute |
/// | `Prepare` (the votes are on the wire) | TwoPc |
/// | `Abort`: its `backoff_us`, then the retry's send, queue and flight | Backoff, then Execute |
/// | `Committed` (waiting for the group commit) | Return |
/// | anything else: `Vote`, `CommitTsReserved`, validation, `WalAppend`, `DecisionReached`, `BatchBarrier`, … (certify, log, install, release) | Commit |
///
/// A gap is split only by the waits that the event closing it carries, each
/// charged to its own phase: `Vote` and `DecisionReached`
/// `flight_us + late_us` to TwoPc, `PrefetchIssued.sent_us_ago` to Execute,
/// `CommitTsReserved.took_us` to Timestamp, Aria's `BatchSequenced.wait_us`
/// to Sequence and `BatchBarrier.wait_us` / `round_us` to WaitBatch / TwoPc.
/// A snapshot-served read-only transaction has no id: its
/// `SnapshotRead.exec_us` is one transaction's Execute. So the phases of a
/// transaction sum exactly to its traced latency.
///
/// The fold follows only transactions whose `Begin { attempt: 1 }` it saw,
/// and counts the others it sees end as skipped: a lossy recording says so.
/// A transaction's events must come in time order, as one thread records
/// them; it is forgotten at its end or at a final `Abort` (no back-off).
#[derive(Debug, Default)]
pub struct PhaseFold {
    /// Per ring of the recorder feeding it: where the next feed starts.
    pub(crate) read: Vec<u64>,
    /// The events so far of each transaction whose result is not out yet.
    open: HashMap<TxnId, Vec<Mark>>,
    out: PhaseBreakdown,
}

impl PhaseFold {
    /// The breakdown of the transactions folded so far.
    pub fn breakdown(&self) -> PhaseBreakdown {
        self.out
    }

    /// Take in one event, counting a transaction if its result is returned
    /// at a time inside `ended`.
    pub(crate) fn add(&mut self, e: &TraceEvent, ended: &impl RangeBounds<u64>) {
        let (at_us, kind) = (e.at_us, e.kind);
        let Some(txn) = e.txn else {
            if let SnapshotRead { exec_us, .. } = kind {
                if ended.contains(&at_us) {
                    self.out.charge(Phase::Execute, exec_us);
                    self.out.latency_us += exec_us;
                    self.out.covered += 1;
                }
            }
            return;
        };
        let mark = Mark { at_us, kind };
        let returned = match kind {
            GroupCommitRelease { committed } => committed,
            Committed { durable: true, .. } => true,
            Abort { backoff_us: 0, .. } => false,
            _ => return self.open.entry(txn).or_default().push(mark),
        };
        let mut events = self.open.remove(&txn).unwrap_or_default();
        if !returned || !ended.contains(&at_us) {
            return;
        }
        events.push(mark);
        match events.iter().position(|m| m.kind == Begin { attempt: 1 }) {
            Some(first) => self.out.fold(&events[first..]),
            None => self.out.skipped += 1,
        }
    }
}

impl Timeline {
    /// The latency breakdown ([`PhaseFold`]) of the committed transactions
    /// whose result was returned inside `ended` (`..` for all).
    pub fn phase_breakdown(&self, ended: impl RangeBounds<u64>) -> PhaseBreakdown {
        let mut fold = PhaseFold::default();
        for e in self.events() {
            fold.add(e, &ended);
        }
        fold.breakdown()
    }
}
