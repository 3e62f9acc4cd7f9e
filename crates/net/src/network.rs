//! Latency-charging simulated network with crash injection.

use primo_common::config::NetConfig;
use primo_common::sim_time::{charge_latency_us, now_us, wait_until};
use primo_common::PartitionId;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Reachability of one partition as seen by the network.
///
/// A partition is unreachable while `Crashed` **and** while `Recovering`:
/// the replacement leader only starts answering once its store is rebuilt
/// from checkpoint + log replay, not merely once the configured outage
/// elapses. The distinction is kept so operators (and tests) can observe
/// where the downtime went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionHealth {
    /// Reachable, serving requests.
    Up,
    /// The leader is down; nothing answers.
    Crashed,
    /// A replacement leader is replaying the durable log; still unreachable.
    Recovering,
}

impl PartitionHealth {
    fn encode(self) -> u8 {
        match self {
            PartitionHealth::Up => 0,
            PartitionHealth::Crashed => 1,
            PartitionHealth::Recovering => 2,
        }
    }

    fn decode(raw: u8) -> Self {
        match raw {
            0 => PartitionHealth::Up,
            1 => PartitionHealth::Crashed,
            _ => PartitionHealth::Recovering,
        }
    }
}

/// A request/response exchange that has been *sent*: counted and given its
/// deadline, but not waited for
/// ([`SimNetwork::begin_round_trip_multi`]). Whoever reads the replies waits
/// for [`RoundTrip::ready_at_us`] first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTrip {
    /// Every destination was up when the requests left.
    pub ok: bool,
    /// [`now_us`] at which the slowest reply is back.
    pub ready_at_us: u64,
}

/// The simulated network connecting all partitions.
///
/// All methods are cheap and thread-safe; latency is charged by blocking the
/// calling thread for the configured duration
/// ([`primo_common::sim_time::charge_latency_us`]) — or, for a round trip
/// that was only begun, by the deadline its caller waits for.
#[derive(Debug)]
pub struct SimNetwork {
    cfg: NetConfig,
    num_partitions: usize,
    /// Health per partition: a crashed or recovering partition does not
    /// answer (encoded [`PartitionHealth`]).
    health: Vec<AtomicU8>,
    /// Total messages "sent" (one per one-way hop).
    messages: AtomicU64,
    /// Total round trips charged.
    round_trips: AtomicU64,
    /// Jitter source (per-call cheap hash, not a shared RNG, to avoid
    /// contention). Derived from the experiment seed so different seeds
    /// sample different jitter while each run stays reproducible.
    jitter_salt: u64,
}

/// One round of splitmix64: turns correlated seeds (0, 1, 2, …) into
/// decorrelated salts.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SimNetwork {
    pub fn new(num_partitions: usize, cfg: NetConfig, seed: u64) -> Self {
        SimNetwork {
            cfg,
            num_partitions,
            health: (0..num_partitions)
                .map(|_| AtomicU8::new(PartitionHealth::Up.encode()))
                .collect(),
            messages: AtomicU64::new(0),
            round_trips: AtomicU64::new(0),
            jitter_salt: splitmix64(seed),
        }
    }

    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    pub fn config(&self) -> NetConfig {
        self.cfg
    }

    /// Mark a partition as crashed (it will not be reachable) or fully up.
    /// Shorthand over [`SimNetwork::set_health`] kept for the common
    /// crash-injection call sites.
    pub fn set_crashed(&self, p: PartitionId, crashed: bool) {
        self.set_health(
            p,
            if crashed {
                PartitionHealth::Crashed
            } else {
                PartitionHealth::Up
            },
        );
    }

    /// Set a partition's health (recovery moves it `Crashed -> Recovering ->
    /// Up`; it stays unreachable until `Up`).
    pub fn set_health(&self, p: PartitionId, health: PartitionHealth) {
        self.health[p.idx()].store(health.encode(), Ordering::SeqCst);
    }

    pub fn health(&self, p: PartitionId) -> PartitionHealth {
        PartitionHealth::decode(self.health[p.idx()].load(Ordering::SeqCst))
    }

    /// Unreachable: crashed or still replaying its log.
    pub fn is_crashed(&self, p: PartitionId) -> bool {
        self.health(p) != PartitionHealth::Up
    }

    fn one_way_latency_us(&self, from: PartitionId, to: PartitionId) -> u64 {
        if from == to {
            return 0;
        }
        let jitter = if self.cfg.jitter_us > 0 {
            // Cheap stateless jitter: hash of a counter.
            let x = self
                .messages
                .load(Ordering::Relaxed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.jitter_salt;
            x % (self.cfg.jitter_us + 1)
        } else {
            0
        };
        self.cfg.one_way_us + jitter
    }

    /// Charge a one-way message from `from` to `to`. Returns `false` if the
    /// destination is crashed (message lost).
    pub fn one_way(&self, from: PartitionId, to: PartitionId) -> bool {
        self.messages.fetch_add(1, Ordering::Relaxed);
        charge_latency_us(self.one_way_latency_us(from, to));
        !self.is_crashed(to)
    }

    /// Charge a request/response round trip. Returns `false` if the remote
    /// partition is crashed.
    pub fn round_trip(&self, from: PartitionId, to: PartitionId) -> bool {
        if from == to {
            return !self.is_crashed(to);
        }
        self.messages.fetch_add(2, Ordering::Relaxed);
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        if self.is_crashed(to) {
            // The request times out: charge only the outbound latency.
            charge_latency_us(self.one_way_latency_us(from, to));
            return false;
        }
        charge_latency_us(2 * self.one_way_latency_us(from, to));
        true
    }

    /// Send one round trip that fans out to several destinations in parallel
    /// (a batched read fan-out, a 2PC prepare to all participants) without
    /// waiting for it: messages and the round trip are counted and every
    /// destination's health sampled now, and the replies
    /// are back at `now + 2 x` the slowest destination's one-way latency —
    /// the slowest, not the sum. `ok` is `false` if any destination is
    /// crashed.
    pub fn begin_round_trip_multi(&self, from: PartitionId, to: &[PartitionId]) -> RoundTrip {
        let remote = || to.iter().copied().filter(|p| *p != from);
        let hops = 2 * remote().count() as u64;
        let (mut ok, mut max_us) = (true, 0);
        if hops > 0 {
            self.messages.fetch_add(hops, Ordering::Relaxed);
            self.round_trips.fetch_add(1, Ordering::Relaxed);
            for p in remote() {
                max_us = max_us.max(self.one_way_latency_us(from, p));
                ok &= !self.is_crashed(p);
            }
        }
        RoundTrip {
            ok,
            ready_at_us: now_us() + 2 * max_us,
        }
    }

    /// [`SimNetwork::begin_round_trip_multi`], then wait for the replies.
    /// Returns `false` if any destination is crashed.
    pub fn round_trip_multi(&self, from: PartitionId, to: &[PartitionId]) -> bool {
        let trip = self.begin_round_trip_multi(from, to);
        wait_until(trip.ready_at_us);
        trip.ok
    }

    /// One-way fan-out (e.g. Primo's write-set dissemination, which needs no
    /// acknowledgement). Returns `false` if any destination is crashed.
    pub fn one_way_multi(&self, from: PartitionId, to: &[PartitionId]) -> bool {
        let remote: Vec<_> = to.iter().copied().filter(|p| *p != from).collect();
        if remote.is_empty() {
            return true;
        }
        self.messages
            .fetch_add(remote.len() as u64, Ordering::Relaxed);
        // The sender does not wait for delivery: sending is effectively free
        // for the caller beyond a small serialization cost.
        charge_latency_us(1);
        remote.iter().all(|p| !self.is_crashed(*p))
    }

    /// Account one-way messages sent by a background subsystem (e.g. log
    /// replication fan-out) without charging latency to the calling thread:
    /// the sender does not wait for replica acknowledgements — the cost
    /// surfaces as quorum-ack delay on the durability side, not as send
    /// latency.
    pub fn note_background_messages(&self, n: u64) {
        self.messages.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of one-way messages charged so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Number of round trips charged so far.
    pub fn round_trips_charged(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn net(one_way_us: u64) -> SimNetwork {
        SimNetwork::new(
            4,
            NetConfig {
                one_way_us,
                jitter_us: 0,
            },
            0x5EED,
        )
    }

    #[test]
    fn jitter_salt_follows_the_experiment_seed() {
        let cfg = NetConfig {
            one_way_us: 0,
            jitter_us: 1_000_000,
        };
        let sample =
            |seed| SimNetwork::new(2, cfg, seed).one_way_latency_us(PartitionId(0), PartitionId(1));
        // Different seeds sample different jitter …
        let samples: Vec<u64> = (0..16u64).map(sample).collect();
        let distinct: std::collections::HashSet<_> = samples.iter().collect();
        assert!(
            distinct.len() > 8,
            "adjacent seeds must decorrelate: {samples:?}"
        );
        // … while the same seed reproduces the same jitter.
        assert_eq!(sample(7), sample(7));
    }

    #[test]
    fn local_access_is_free() {
        let n = net(1000);
        let start = Instant::now();
        assert!(n.round_trip(PartitionId(0), PartitionId(0)));
        assert!(start.elapsed().as_micros() < 500);
        assert_eq!(n.messages_sent(), 0);
    }

    #[test]
    fn round_trip_charges_twice_one_way() {
        let n = net(100);
        let start = Instant::now();
        assert!(n.round_trip(PartitionId(0), PartitionId(1)));
        let el = start.elapsed().as_micros();
        assert!(el >= 190, "elapsed {el}us");
        assert_eq!(n.messages_sent(), 2);
        assert_eq!(n.round_trips_charged(), 1);
    }

    #[test]
    fn multi_round_trip_costs_slowest_not_sum() {
        let n = net(100);
        let start = Instant::now();
        assert!(n.round_trip_multi(
            PartitionId(0),
            &[PartitionId(1), PartitionId(2), PartitionId(3)]
        ));
        let el = start.elapsed().as_micros();
        assert!(el >= 190, "elapsed {el}us");
        assert!(el < 450, "fan-out should be parallel, elapsed {el}us");
        assert_eq!(n.messages_sent(), 6);
    }

    #[test]
    fn a_begun_round_trip_is_counted_at_once_and_due_two_delays_later() {
        let n = net(5_000);
        let start = Instant::now();
        let sent_at = now_us();
        let trip = n.begin_round_trip_multi(PartitionId(0), &[PartitionId(1), PartitionId(2)]);
        assert!(start.elapsed().as_millis() < 3, "sending does not wait");
        assert!(trip.ok);
        assert!((sent_at + 10_000..sent_at + 13_000).contains(&trip.ready_at_us));
        assert_eq!((n.messages_sent(), n.round_trips_charged()), (4, 1));
        // The health sample is the send's: a later crash does not change it,
        // and a destination already down is reported without waiting.
        n.set_crashed(PartitionId(2), true);
        assert!(
            !n.begin_round_trip_multi(PartitionId(0), &[PartitionId(2)])
                .ok
        );
        // Nothing remote: nothing counted, due now.
        let local = n.begin_round_trip_multi(PartitionId(0), &[PartitionId(0)]);
        assert!(local.ok && local.ready_at_us <= now_us());
        assert_eq!(n.round_trips_charged(), 2);
    }

    #[test]
    fn crashed_partition_breaks_round_trip() {
        let n = net(10);
        n.set_crashed(PartitionId(2), true);
        assert!(!n.round_trip(PartitionId(0), PartitionId(2)));
        assert!(!n.round_trip_multi(PartitionId(0), &[PartitionId(1), PartitionId(2)]));
        n.set_crashed(PartitionId(2), false);
        assert!(n.round_trip(PartitionId(0), PartitionId(2)));
    }

    #[test]
    fn recovering_partition_stays_unreachable() {
        let n = net(10);
        n.set_health(PartitionId(1), PartitionHealth::Crashed);
        assert_eq!(n.health(PartitionId(1)), PartitionHealth::Crashed);
        // Replay in progress: the outage window is over but the partition
        // must not answer until the store is rebuilt.
        n.set_health(PartitionId(1), PartitionHealth::Recovering);
        assert!(n.is_crashed(PartitionId(1)));
        assert!(!n.round_trip(PartitionId(0), PartitionId(1)));
        n.set_health(PartitionId(1), PartitionHealth::Up);
        assert_eq!(n.health(PartitionId(1)), PartitionHealth::Up);
        assert!(n.round_trip(PartitionId(0), PartitionId(1)));
    }

    #[test]
    fn background_messages_count_without_charging_latency() {
        let n = net(5000);
        let start = Instant::now();
        n.note_background_messages(3);
        assert!(start.elapsed().as_millis() < 2);
        assert_eq!(n.messages_sent(), 3);
    }

    #[test]
    fn one_way_multi_does_not_block_sender() {
        let n = net(5000);
        let start = Instant::now();
        assert!(n.one_way_multi(PartitionId(0), &[PartitionId(1), PartitionId(2)]));
        assert!(start.elapsed().as_millis() < 3);
        assert_eq!(n.messages_sent(), 2);
    }
}
