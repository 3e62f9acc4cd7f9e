//! Asynchronous control-message bus with simulated delivery delay.
//!
//! Partition watermarks (§5.1) and COCO epoch messages are *not* on the
//! transaction critical path; they are broadcast asynchronously and may be
//! delayed (Fig 13a studies exactly that). The [`DelayedBus`] makes a
//! message visible in its destination's mailbox `base_delay + per-sender
//! extra delay` after it was sent. No delivery thread, no polling: a blocked
//! receiver sleeps until the earliest in-flight deadline, its own deadline,
//! a `send` with an earlier one, or a [`DelayedBus::interrupt`].

use parking_lot::{Condvar, Mutex};
use primo_common::sim_time::now_us;
use primo_common::PartitionId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Control messages exchanged between partition leaders outside the
/// transaction critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusMessage {
    /// A partition advertises its partition-watermark `Wp` (§5.1).
    PartitionWatermark { from: PartitionId, wp: u64 },
    /// A client of the sender is blocked on a commit at `ts` and the
    /// receiver's last advertised `Wp` does not cover it: the receiver is
    /// asked to generate a watermark now instead of at its next interval.
    WatermarkDemand { ts: u64 },
    /// COCO group-prepare for an epoch (coordinator -> all).
    EpochPrepare { epoch: u64 },
    /// COCO group-ready response (partition -> coordinator).
    EpochReady { from: PartitionId, epoch: u64 },
    /// COCO group-commit / group-abort decision (coordinator -> all).
    EpochDecision { epoch: u64, commit: bool },
    /// Recovery: a partition publishes its latest persisted watermark so the
    /// cluster can agree on a rollback point (§5.2).
    RecoveryWatermark {
        from: PartitionId,
        wp: u64,
        term: u64,
    },
}

/// A per-partition mailbox: messages in flight to the owning partition,
/// keyed `(deliver_at_us, send sequence)` so the earliest delivery is first.
/// One is *delivered* once its deadline has passed.
#[derive(Debug, Default)]
struct Mailbox {
    state: Mutex<MailboxState>,
    /// Signalled when the earliest deadline moves forward or on interrupt.
    changed: Condvar,
}

#[derive(Debug, Default)]
struct MailboxState {
    in_flight: BTreeMap<(u64, u64), BusMessage>,
    /// Set by [`DelayedBus::interrupt`]; sticky until a blocking receive
    /// consumes it, so an interrupt racing ahead of the receive is not lost.
    interrupted: bool,
}

impl MailboxState {
    fn next_delivery_us(&self) -> Option<u64> {
        self.in_flight.first_key_value().map(|(key, _)| key.0)
    }

    fn pop_delivered(&mut self, now: u64) -> Option<BusMessage> {
        if self.next_delivery_us()? > now {
            return None;
        }
        self.in_flight.pop_first().map(|(_, msg)| msg)
    }
}

impl Mailbox {
    fn push(&self, deliver_at_us: u64, seq: u64, msg: BusMessage) {
        let mut st = self.state.lock();
        // Only a new earliest deadline shortens a blocked receiver's wait.
        let earliest = st.next_delivery_us().is_none_or(|at| deliver_at_us < at);
        st.in_flight.insert((deliver_at_us, seq), msg);
        if earliest {
            self.changed.notify_all();
        }
    }

    fn try_pop(&self) -> Option<BusMessage> {
        self.state.lock().pop_delivered(now_us())
    }

    fn pop_until(&self, deadline_us: u64) -> Option<BusMessage> {
        let mut st = self.state.lock();
        loop {
            let now = now_us();
            if let Some(msg) = st.pop_delivered(now) {
                return Some(msg);
            }
            if std::mem::take(&mut st.interrupted) || now >= deadline_us {
                return None;
            }
            // Nothing delivered yet, so every deadline below is in the future.
            let wake_at = st
                .next_delivery_us()
                .map_or(deadline_us, |at| at.min(deadline_us));
            self.changed
                .wait_for(&mut st, Duration::from_micros(wake_at - now));
        }
    }
}

/// Delay-injecting broadcast bus for control messages.
#[derive(Debug)]
pub struct DelayedBus {
    inboxes: Vec<Mailbox>,
    /// Base one-way delay for control messages, microseconds.
    base_delay_us: AtomicU64,
    /// Extra delay applied to messages *from* a given partition (simulates a
    /// lagging sender, Fig 13a).
    extra_from_us: Vec<AtomicU64>,
    seq: AtomicU64,
}

impl DelayedBus {
    pub fn new(num_partitions: usize, base_delay_us: u64) -> Arc<Self> {
        Arc::new(DelayedBus {
            inboxes: (0..num_partitions).map(|_| Mailbox::default()).collect(),
            base_delay_us: AtomicU64::new(base_delay_us),
            extra_from_us: (0..num_partitions).map(|_| AtomicU64::new(0)).collect(),
            seq: AtomicU64::new(0),
        })
    }

    pub fn set_base_delay_us(&self, us: u64) {
        self.base_delay_us.store(us, Ordering::Relaxed);
    }

    /// Simulate a lagging sender: all control messages originating from
    /// `from` are delayed by an additional `us`.
    pub fn set_extra_delay_from(&self, from: PartitionId, us: u64) {
        self.extra_from_us[from.idx()].store(us, Ordering::Relaxed);
    }

    fn delay_for(&self, from: PartitionId) -> u64 {
        self.base_delay_us.load(Ordering::Relaxed)
            + self.extra_from_us[from.idx()].load(Ordering::Relaxed)
    }

    /// Send a message to one partition (delivered after the configured delay).
    pub fn send(&self, from: PartitionId, to: PartitionId, msg: BusMessage) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.inboxes[to.idx()].push(now_us() + self.delay_for(from), seq, msg);
    }

    /// Broadcast to every partition except the sender.
    pub fn broadcast(&self, from: PartitionId, msg: BusMessage) {
        for p in 0..self.inboxes.len() {
            if p != from.idx() {
                self.send(from, PartitionId(p as u32), msg.clone());
            }
        }
    }

    /// Drain all messages already delivered to a partition.
    pub fn drain(&self, me: PartitionId) -> Vec<BusMessage> {
        let mut out = Vec::new();
        while let Some(m) = self.inboxes[me.idx()].try_pop() {
            out.push(m);
        }
        out
    }

    /// Blocking receive with timeout for coordinator threads.
    pub fn recv_timeout(&self, me: PartitionId, timeout: Duration) -> Option<BusMessage> {
        self.recv_until(me, now_us() + timeout.as_micros() as u64)
    }

    /// Blocking receive until `deadline_us` on the [`now_us`] clock. Returns
    /// `None` at the deadline or when [`DelayedBus::interrupt`]ed.
    pub fn recv_until(&self, me: PartitionId, deadline_us: u64) -> Option<BusMessage> {
        self.inboxes[me.idx()].pop_until(deadline_us)
    }

    /// Make `me`'s current (or next) blocking receive return `None` early, so
    /// its owner re-reads state changed outside the bus (a stop flag).
    pub fn interrupt(&self, me: PartitionId) {
        let inbox = &self.inboxes[me.idx()];
        inbox.state.lock().interrupted = true;
        inbox.changed.notify_all();
    }

    /// Release every blocked receiver. Called on cluster shutdown.
    pub fn shutdown(&self) {
        for p in 0..self.inboxes.len() {
            self.interrupt(PartitionId(p as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_is_delivered_after_delay() {
        let bus = DelayedBus::new(2, 2_000);
        bus.send(
            PartitionId(0),
            PartitionId(1),
            BusMessage::PartitionWatermark {
                from: PartitionId(0),
                wp: 42,
            },
        );
        // Immediately: nothing yet (2 ms delay).
        assert!(bus.drain(PartitionId(1)).is_empty());
        std::thread::sleep(Duration::from_millis(10));
        let got = bus.drain(PartitionId(1));
        assert_eq!(
            got,
            vec![BusMessage::PartitionWatermark {
                from: PartitionId(0),
                wp: 42
            }]
        );
        bus.shutdown();
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let bus = DelayedBus::new(3, 0);
        bus.broadcast(PartitionId(1), BusMessage::EpochPrepare { epoch: 7 });
        std::thread::sleep(Duration::from_millis(5));
        assert!(bus.drain(PartitionId(1)).is_empty());
        assert_eq!(bus.drain(PartitionId(0)).len(), 1);
        assert_eq!(bus.drain(PartitionId(2)).len(), 1);
        bus.shutdown();
    }

    #[test]
    fn lagging_sender_is_delayed_more() {
        let bus = DelayedBus::new(2, 0);
        bus.set_extra_delay_from(PartitionId(0), 50_000);
        bus.send(
            PartitionId(0),
            PartitionId(1),
            BusMessage::EpochReady {
                from: PartitionId(0),
                epoch: 1,
            },
        );
        std::thread::sleep(Duration::from_millis(5));
        assert!(
            bus.drain(PartitionId(1)).is_empty(),
            "should still be in flight"
        );
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(bus.drain(PartitionId(1)).len(), 1);
        bus.shutdown();
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let bus = DelayedBus::new(1, 0);
        assert!(bus
            .recv_timeout(PartitionId(0), Duration::from_millis(5))
            .is_none());
        bus.shutdown();
    }
}
