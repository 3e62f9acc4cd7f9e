//! The cluster-wide flight recorder.
//!
//! One [`FlightRecorder`] per cluster owns every worker's [`TraceRing`].
//! Rings are created lazily: the first event a thread emits against a given
//! recorder allocates that thread's ring (labelled with the thread name) and
//! registers it; after that the hot path is a thread-local vector probe and
//! a direct ring push — no locks, no allocation, no refcount traffic (the
//! cache holds a strong `Arc`, so there is no `Weak::upgrade` per event).
//! The registry keeps its own `Arc`, so rings outlive their threads and a
//! post-mortem merge still sees what exited workers recorded. Cache entries
//! carry the recorder's shared liveness flag; dropping a recorder (tests
//! build thousands of short-lived clusters) flips it, and each thread prunes
//! its dead entries — releasing the rings — the next time it registers
//! against a fresh recorder, so stale rings never accumulate across runs.

use crate::event::TraceEventKind;
use crate::phase::PhaseFold;
use crate::ring::TraceRing;
use crate::timeline::Timeline;
use parking_lot::Mutex;
use primo_common::sim_time::now_us;
use primo_common::{PartitionId, TxnId};
use std::cell::RefCell;
use std::ops::RangeBounds;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default per-worker ring capacity (events). At ~56 bytes per slot this is
/// ~230 KiB per worker — minutes of tail history at typical event rates.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

struct CacheEntry {
    recorder_id: u64,
    /// The owning recorder's liveness flag — false once it drops.
    alive: Arc<AtomicBool>,
    ring: Arc<TraceRing>,
}

thread_local! {
    /// This thread's ring per recorder it has emitted against. Small linear
    /// vector: a thread talks to very few live recorders at a time.
    static RING_CACHE: RefCell<Vec<CacheEntry>> = const { RefCell::new(Vec::new()) };
}

/// Always-on, low-overhead event recorder shared by every layer of one
/// cluster. Cheap to clone via `Arc`; `emit` is safe from any thread.
pub struct FlightRecorder {
    id: u64,
    enabled: AtomicBool,
    /// Shared with thread-local cache entries; flipped false on drop so
    /// threads can prune their rings for this recorder.
    alive: Arc<AtomicBool>,
    ring_capacity: usize,
    rings: Mutex<Vec<Arc<TraceRing>>>,
}

impl FlightRecorder {
    pub fn new(enabled: bool, ring_capacity: usize) -> Self {
        FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(enabled),
            alive: Arc::new(AtomicBool::new(true)),
            ring_capacity,
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Recording toggle (the recording-off arm of the overhead benchmark).
    /// With recording off, `emit` is a single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one event, stamped with the current sim-time and the calling
    /// thread's ring. The hot path allocates nothing after a thread's first
    /// event.
    #[inline]
    pub fn emit(&self, txn: Option<TxnId>, partition: Option<PartitionId>, kind: TraceEventKind) {
        if !self.is_enabled() {
            return;
        }
        self.emit_at(now_us(), txn, partition, kind);
    }

    /// Like [`FlightRecorder::emit`] with an explicit timestamp — used when
    /// the event's causal time was sampled before some waiting happened
    /// (e.g. the start of a sequencer wait).
    pub fn emit_at(
        &self,
        at_us: u64,
        txn: Option<TxnId>,
        partition: Option<PartitionId>,
        kind: TraceEventKind,
    ) {
        if !self.is_enabled() {
            return;
        }
        RING_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(entry) = cache.iter().find(|e| e.recorder_id == self.id) {
                entry.ring.push(at_us, txn, partition, kind);
                return;
            }
            // Slow path: first event from this thread against this recorder.
            // Drop rings cached for recorders that died since, then register
            // a fresh ring.
            cache.retain(|e| e.alive.load(Ordering::Relaxed));
            let label = std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string();
            let ring = Arc::new(TraceRing::new(label, self.ring_capacity));
            self.rings.lock().push(Arc::clone(&ring));
            cache.push(CacheEntry {
                recorder_id: self.id,
                alive: Arc::clone(&self.alive),
                ring: Arc::clone(&ring),
            });
            ring.push(at_us, txn, partition, kind);
        });
    }

    /// Number of per-thread rings registered so far.
    pub fn ring_count(&self) -> usize {
        self.rings.lock().len()
    }

    /// Total events ever recorded across all rings (including overwritten
    /// ones).
    pub fn events_recorded(&self) -> u64 {
        self.rings.lock().iter().map(|r| r.pushed()).sum()
    }

    /// Events lost to the rings' overwrite-oldest policy: per ring, what was
    /// pushed beyond its capacity, summed over the rings.
    pub fn events_dropped(&self) -> u64 {
        self.rings.lock().iter().map(|r| r.dropped()).sum()
    }

    /// Merge every ring into one causally-ordered timeline (non-decreasing
    /// sim-time; ties broken by ring then per-ring push order), which
    /// remembers how many events the rings had dropped.
    pub fn merge(&self) -> Timeline {
        let rings = self.rings.lock();
        let mut events = Vec::new();
        for (i, ring) in rings.iter().enumerate() {
            events.extend(ring.snapshot(i));
        }
        events.sort_by_key(|e| (e.at_us, e.ring, e.seq));
        Timeline::new(events, rings.iter().map(|r| r.dropped()).sum())
    }

    /// Feed `fold` what the rings recorded since its last feed, counting
    /// the transactions whose result was returned inside `ended`. Fed at
    /// least once per ring's worth of events, it misses none.
    pub fn fold_phases(&self, fold: &mut PhaseFold, ended: impl RangeBounds<u64>) {
        let rings = self.rings.lock().clone();
        fold.read.resize(rings.len(), 0);
        for (i, ring) in rings.iter().enumerate() {
            let from = fold.read[i];
            fold.read[i] = ring.read_since(from, i, |e| fold.add(&e, &ended));
        }
    }

    /// Render the post-mortem for a failed assertion: the full lifecycle of
    /// each offending transaction, followed by the surrounding
    /// partition-scoped events (watermark publishes, crashes, leader
    /// changes, recovery passes) in the same time window. This string is
    /// what the crash-loop tests embed in their panic message, so the next
    /// 1-in-N flake arrives pre-diagnosed.
    pub fn failure_report(&self, txns: &[TxnId]) -> String {
        self.merge().failure_report(txns)
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        // Lets threads that cached a ring for this recorder prune it (and
        // free the ring) on their next slow-path registration.
        self.alive.store(false, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("id", &self.id)
            .field("enabled", &self.is_enabled())
            .field("rings", &self.ring_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::new(false, 64);
        rec.emit(None, None, TraceEventKind::ValidationStart);
        assert_eq!(rec.ring_count(), 0);
        assert_eq!(rec.events_recorded(), 0);
        rec.set_enabled(true);
        rec.emit(None, None, TraceEventKind::ValidationStart);
        assert_eq!(rec.events_recorded(), 1);
    }

    #[test]
    fn one_ring_per_thread_and_merge_sees_exited_threads() {
        let rec = Arc::new(FlightRecorder::new(true, 64));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let rec = Arc::clone(&rec);
                std::thread::Builder::new()
                    .name(format!("tracer-{i}"))
                    .spawn(move || {
                        for t in 0..10u64 {
                            rec.emit(
                                None,
                                None,
                                TraceEventKind::Committed {
                                    ts: t,
                                    durable: false,
                                },
                            );
                        }
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.ring_count(), 4);
        let merged = rec.merge();
        assert_eq!(merged.len(), 40, "events from exited threads survive");
        let workers: std::collections::HashSet<_> =
            merged.events().iter().map(|e| e.worker.clone()).collect();
        assert_eq!(workers.len(), 4);
    }

    #[test]
    fn merge_is_nondecreasing_in_sim_time() {
        let rec = Arc::new(FlightRecorder::new(true, 256));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for t in 0..200u64 {
                        rec.emit(
                            None,
                            None,
                            TraceEventKind::Committed {
                                ts: t,
                                durable: false,
                            },
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let merged = rec.merge();
        assert!(merged.events().windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn dropped_events_are_counted_per_ring() {
        let rec = Arc::new(FlightRecorder::new(true, 8));
        for pushes in [5u64, 20] {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for t in 0..pushes {
                    rec.emit(
                        None,
                        None,
                        TraceEventKind::Committed {
                            ts: t,
                            durable: false,
                        },
                    );
                }
            })
            .join()
            .unwrap();
        }
        // The 5-event ring kept everything, the 20-event one lost 12.
        assert_eq!(rec.events_dropped(), 12);
        assert_eq!(rec.merge().dropped(), 12);
        assert_eq!(rec.merge().len(), 5 + 8);
    }

    #[test]
    fn two_recorders_on_one_thread_stay_separate() {
        let a = FlightRecorder::new(true, 64);
        let b = FlightRecorder::new(true, 64);
        a.emit(None, None, TraceEventKind::CrashInjected);
        b.emit(None, None, TraceEventKind::ValidationStart);
        b.emit(None, None, TraceEventKind::ValidationStart);
        assert_eq!(a.events_recorded(), 1);
        assert_eq!(b.events_recorded(), 2);
    }
}
