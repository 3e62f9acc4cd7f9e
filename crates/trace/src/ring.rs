//! Per-worker fixed-capacity trace ring.
//!
//! Single producer (the owning thread), overwrite-oldest, zero allocation
//! per event. Each slot is a tiny seqlock: the writer bumps the slot's
//! version to odd, stores the event words, then bumps it to even; snapshot
//! readers accept a slot only when they observe the same even version on
//! both sides of the data loads. No `unsafe` — the words are plain atomics
//! written and read with `Relaxed` data / `Release`–`Acquire` version
//! ordering, which is all a discard-on-tear seqlock needs.

use crate::event::{TraceEvent, TraceEventKind, NO_PARTITION, NO_TXN};
use primo_common::{PartitionId, TxnId};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Words per slot: seq, at_us, txn, partition|discriminant, a, b, c.
const WORDS: usize = 7;

struct Slot {
    /// Odd while the writer is mid-store; even and stable otherwise.
    version: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            version: AtomicU64::new(0),
            words: Default::default(),
        }
    }
}

/// One worker's flight-recorder ring.
pub struct TraceRing {
    label: String,
    mask: u64,
    /// Total events ever pushed; the next event's sequence number.
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl TraceRing {
    /// `capacity` is rounded up to a power of two (min 8).
    pub fn new(label: impl Into<String>, capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        TraceRing {
            label: label.into(),
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events ever pushed (not the number currently retained).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events overwritten: whatever was pushed beyond the capacity.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// Record one event. Must only be called from the owning thread (the
    /// seqlock tolerates concurrent *readers*, not concurrent writers; the
    /// recorder's thread-local registration enforces single-writer).
    pub fn push(
        &self,
        at_us: u64,
        txn: Option<TxnId>,
        partition: Option<PartitionId>,
        kind: TraceEventKind,
    ) {
        let seq = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        let v = slot.version.load(Ordering::Relaxed);
        slot.version.store(v + 1, Ordering::Relaxed);
        // Release fence: the odd version above becomes visible to any thread
        // that observes one of the data stores below, so a reader that reads
        // a torn word is guaranteed to see a version mismatch and discard.
        fence(Ordering::Release);
        let (d, a, b, c) = kind.encode();
        let part = partition.map(|p| p.0).unwrap_or(NO_PARTITION);
        let packed = (part as u64) | (d << 32);
        for (w, val) in slot.words.iter().zip([
            seq,
            at_us,
            txn.map(|t| t.pack()).unwrap_or(NO_TXN),
            packed,
            a,
            b,
            c,
        ]) {
            w.store(val, Ordering::Relaxed);
        }
        slot.version.store(v + 2, Ordering::Release);
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Best-effort copy of the retained events, oldest first. Slots the
    /// writer is concurrently overwriting are skipped (a merge taken while
    /// workers still run loses at most the in-flight slot per ring).
    pub fn snapshot(&self, ring: usize) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        let worker = || self.label.clone();
        self.read_since(0, ring, |e| {
            out.push(TraceEvent {
                worker: worker(),
                ..e
            })
        });
        out
    }

    /// Hand `each` the events pushed from sequence number `from` on that the
    /// ring still holds, oldest first, as ring number `ring` — with `worker`
    /// left empty, which costs no allocation; returns where the next call
    /// starts. Whatever was overwritten before it could be read is missing.
    pub(crate) fn read_since(
        &self,
        from: u64,
        ring: usize,
        mut each: impl FnMut(TraceEvent),
    ) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let oldest = head.saturating_sub(self.slots.len() as u64).max(from);
        for seq in oldest..head {
            let slot = &self.slots[(seq & self.mask) as usize];
            if let Some(e) = Self::read(slot, ring).filter(|e| e.seq == seq) {
                each(e);
            }
        }
        head
    }

    /// The event in `slot`, unless it was never written, or the writer is
    /// overwriting it right now.
    fn read(slot: &Slot, ring: usize) -> Option<TraceEvent> {
        let v1 = slot.version.load(Ordering::Acquire);
        if v1 == 0 || v1 % 2 == 1 {
            return None; // never written, or a write is in flight
        }
        let mut w = [0u64; WORDS];
        for (dst, src) in w.iter_mut().zip(slot.words.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        // Acquire fence pairs with the writer's release fence: if any
        // data load above saw a mid-write value, the version re-read
        // below is guaranteed to see the odd (or advanced) version.
        fence(Ordering::Acquire);
        if slot.version.load(Ordering::Relaxed) != v1 {
            return None; // torn by a wrap-around overwrite
        }
        let [seq, at_us, txn, packed, a, b, c] = w;
        let part = (packed & 0xFFFF_FFFF) as u32;
        Some(TraceEvent {
            at_us,
            seq,
            ring,
            worker: String::new(),
            txn: (txn != NO_TXN).then(|| TxnId::unpack(txn)),
            partition: (part != NO_PARTITION).then_some(PartitionId(part)),
            kind: TraceEventKind::decode(packed >> 32, a, b, c)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(i: u64) -> TraceEventKind {
        TraceEventKind::Committed {
            ts: i,
            durable: false,
        }
    }

    #[test]
    fn retains_everything_under_capacity() {
        let r = TraceRing::new("w", 16);
        for i in 0..10 {
            r.push(i, None, None, ev(i));
        }
        let snap = r.snapshot(0);
        assert_eq!(snap.len(), 10);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, ev(i as u64));
        }
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let r = TraceRing::new("w", 8);
        for i in 0..20 {
            r.push(i, None, None, ev(i));
        }
        let snap = r.snapshot(0);
        assert_eq!(snap.len(), 8, "ring keeps exactly its capacity");
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>(), "oldest overwritten");
        assert_eq!(r.pushed(), 20);
        assert_eq!(r.dropped(), 12);
    }

    #[test]
    fn snapshot_is_ordered_by_push_even_across_wrap() {
        let r = TraceRing::new("w", 8);
        for i in 0..13 {
            r.push(100 + i, None, None, ev(i));
        }
        let snap = r.snapshot(0);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert!(snap.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(TraceRing::new("w", 100).capacity(), 128);
        assert_eq!(TraceRing::new("w", 0).capacity(), 8);
    }

    #[test]
    fn concurrent_reader_never_sees_torn_events() {
        let r = Arc::new(TraceRing::new("w", 16));
        let writer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..200_000u64 {
                    // at_us mirrors the payload so a torn slot is detectable.
                    r.push(i, None, None, ev(i));
                }
            })
        };
        let mut seen = 0u64;
        while seen < 50 {
            for e in r.snapshot(0) {
                let TraceEventKind::Committed { ts, .. } = e.kind else {
                    panic!("unexpected kind {:?}", e.kind);
                };
                assert_eq!(e.at_us, ts, "torn slot: at_us and payload disagree");
            }
            seen += 1;
        }
        writer.join().unwrap();
    }
}
