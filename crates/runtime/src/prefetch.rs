//! Batched remote-read fan-out.
//!
//! The Appendix A model (`primo-core`'s `analysis` module) makes the remote
//! round-trip ratio `t_r/t_l ≈ 20` the dominant term in distributed
//! transaction cost — yet a naive execution path pays it once per remote
//! record, *sequentially*. This module turns the per-record round trips into
//! **one parallel fan-out per attempt**: a [`Footprint`] (the remote keys the
//! attempt expects to touch) is resolved with a single batched fetch per
//! involved partition, charged via `SimNetwork::begin_round_trip_multi`
//! (cost = slowest partition, not the sum), and the observed record versions
//! are parked in a per-attempt [`ReadFanout`] buffer.
//!
//! The fan-out has two halves. [`ReadFanout::begin`] *sends* it: the
//! requests are counted and their replies are due one round trip later, but
//! nobody waits. [`ReadFanout::complete`] *takes it up*: it waits out
//! whatever is left of the flight and only then looks at the records, so a
//! reply is never read before its deadline. [`ReadFanout::resolve`] is the
//! two in sequence — what a probe uses.
//! The worker loop puts other clients between the halves: between the two a
//! fan-out is a deadline and a key list, and holds nothing on any partition.
//!
//! Footprints come from two sources:
//!
//! * **static hints** — [`TxnProgram::read_hint`](crate::txn::TxnProgram::read_hint)
//!   lets workloads declare statically-known key sets (YCSB op lists; the
//!   key-determined fraction of TPC-C);
//! * **learned footprints** — the worker's retry loop harvests the aborted
//!   attempt's remote access set ([`ReadFanout::learned`]) as the next
//!   attempt's plan, reconnaissance-style, so even hint-less programs
//!   converge to one fan-out per attempt.
//!
//! Correctness is untouched: the buffer only decides whether a remote read
//! still owes its *network charge*. Every protocol's read machinery (TicToc
//! validation, 2PL lock acquisition, Sundial leases, Aria reservations) runs
//! unchanged against the live record, so a stale prefetch is detected exactly
//! like a conflicting read today — it merely pays the fallback round trip.

use crate::cluster::Cluster;
use parking_lot::Mutex;
use primo_common::sim_time::{now_us, wait_until};
use primo_common::{FastMap, Key, PartitionId, TableId, Ts, TxnId};
use primo_net::RoundTrip;
use primo_trace::TraceEventKind;
use std::borrow::Borrow;

/// A remote-read plan: the out-of-home keys one transaction attempt expects
/// to touch. Deduplicated; home-partition keys are dropped (local reads are
/// free).
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    keys: Vec<(PartitionId, TableId, Key)>,
}

impl Footprint {
    /// Build a plan from raw keys (a program's `read_hint()` or a previous
    /// attempt's observed access set), owned or borrowed, keeping only
    /// remote ones.
    pub fn from_keys<K: Borrow<(PartitionId, TableId, Key)>>(
        home: PartitionId,
        keys: impl IntoIterator<Item = K>,
    ) -> Self {
        // Grown as remote keys come: a footprint of home keys allocates
        // nothing.
        let mut out: Vec<(PartitionId, TableId, Key)> = Vec::new();
        for k in keys {
            let k = *k.borrow();
            if k.0 != home && !out.contains(&k) {
                out.push(k);
            }
        }
        Footprint { keys: out }
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }
}

/// What the prefetch buffer knows about a remote read that is about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The key was fetched in the fan-out and the record is unchanged since:
    /// the read is served from the batch, no round trip owed.
    Hit,
    /// The key was fetched but the record moved underneath the buffer; the
    /// read falls back to a fresh round trip (an ordinary conflict).
    Stale,
    /// The key was not part of the fan-out (or batching is off).
    Miss,
}

/// A fan-out between [`ReadFanout::begin`] and [`ReadFanout::complete`].
#[derive(Debug)]
struct Sent {
    /// How many partitions were asked (those up when the plan was read).
    partitions: u32,
    sent_at_us: u64,
    trip: RoundTrip,
}

/// Per-attempt prefetch buffer filled by [`ReadFanout::resolve`] (or its
/// halves) and consulted by the protocol contexts before paying a per-record
/// round trip.
///
/// Also the learning tap: contexts report every remote access through
/// [`ReadFanout::observe`], and the worker turns the observations of an
/// aborted attempt into the retry's [`Footprint`].
#[derive(Debug, Default)]
pub struct ReadFanout {
    /// `(partition, table, key)` → record `wts` observed at take-up
    /// (`None` = no record existed on the owner at that point). While the
    /// fan-out is on the wire: the keys asked for, nothing observed yet.
    entries: FastMap<(PartitionId, TableId, Key), Option<Ts>>,
    /// Remote keys this attempt actually touched, in access order.
    observed: Mutex<Vec<(PartitionId, TableId, Key)>>,
    /// The batch on the wire, until [`ReadFanout::complete`] takes it up.
    sent: Option<Sent>,
}

impl ReadFanout {
    /// An empty buffer: every lookup is a [`PrefetchOutcome::Miss`], so the
    /// attempt behaves exactly like the sequential path.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Send the plan: one batched fetch per involved remote partition,
    /// charged as a single round trip (the slowest partition bounds the
    /// flight, not the sum) — and do not wait for it. Crashed or
    /// out-of-range partitions are skipped — their keys simply stay Miss and
    /// the read path reports `RemoteUnavailable` exactly as it would without
    /// batching — and a crashed home sends nothing at all.
    pub fn begin(&mut self, cluster: &Cluster, home: PartitionId, plan: &Footprint) {
        let mut parts: Vec<PartitionId> = Vec::new();
        for (p, _, _) in &plan.keys {
            if *p != home
                && (p.0 as usize) < cluster.num_partitions()
                && !cluster.net.is_crashed(*p)
                && !parts.contains(p)
            {
                parts.push(*p);
            }
        }
        if parts.is_empty() || cluster.net.is_crashed(home) {
            return;
        }
        let sent_at_us = now_us();
        let trip = cluster.net.begin_round_trip_multi(home, &parts);
        let asked = plan.keys.iter().filter(|(p, _, _)| parts.contains(p));
        self.entries.extend(asked.map(|key| (*key, None)));
        self.sent = Some(Sent {
            partitions: parts.len() as u32,
            sent_at_us,
            trip,
        });
    }

    /// When the replies of a begun fan-out are back (0: nothing is on the
    /// wire).
    pub fn ready_at_us(&self) -> u64 {
        self.sent.as_ref().map_or(0, |s| s.trip.ready_at_us)
    }

    /// How long a begun fan-out spends on the wire (0: nothing is).
    pub fn flight_us(&self) -> u64 {
        (self.sent.as_ref()).map_or(0, |s| s.trip.ready_at_us - s.sent_at_us)
    }

    /// Take up what [`ReadFanout::begin`] sent: wait out the rest of the
    /// flight, then observe every asked record's version — after the
    /// deadline, never before. A no-op if nothing was sent.
    pub fn complete(&mut self, cluster: &Cluster, home: PartitionId, txn: TxnId) {
        let Some(sent) = self.sent.take() else {
            return;
        };
        wait_until(sent.trip.ready_at_us);
        if !sent.trip.ok {
            // A partition crashed between the filter and the send: the
            // fan-out was paid but nothing trustworthy came back.
            self.entries.clear();
            return;
        }
        for ((p, t, k), wts) in &mut self.entries {
            *wts = cluster.partition(*p).store.get(*t, *k).map(|r| r.wts());
        }
        cluster.note_prefetch_fanout();
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::PrefetchIssued {
                partitions: sent.partitions,
                keys: self.entries.len() as u32,
                sent_us_ago: now_us() - sent.sent_at_us,
                flight_us: sent.trip.ready_at_us - sent.sent_at_us,
            },
        );
    }

    /// Execute the plan, blocking for its round trip: [`ReadFanout::begin`],
    /// then [`ReadFanout::complete`].
    pub fn resolve(&mut self, cluster: &Cluster, home: PartitionId, txn: TxnId, plan: &Footprint) {
        self.begin(cluster, home, plan);
        self.complete(cluster, home, txn);
    }

    /// Consult the buffer for a value-carrying remote read: a hit requires
    /// the live record's `wts` to still match what the fan-out observed
    /// (both "absent then, absent now" and "same version" qualify).
    pub fn check_value(
        &self,
        cluster: &Cluster,
        p: PartitionId,
        table: TableId,
        key: Key,
    ) -> PrefetchOutcome {
        match self.entries.get(&(p, table, key)) {
            None => PrefetchOutcome::Miss,
            Some(observed) => {
                let current = cluster.partition(p).store.get(table, key).map(|r| r.wts());
                if *observed == current {
                    PrefetchOutcome::Hit
                } else {
                    PrefetchOutcome::Stale
                }
            }
        }
    }

    /// Consult the buffer for a *dummy* read (lock-only, no value consumed):
    /// key presence in the batch is enough — the exclusive lock and the
    /// post-lock lifecycle re-check pin the live record either way.
    pub fn covers(&self, p: PartitionId, table: TableId, key: Key) -> bool {
        self.entries.contains_key(&(p, table, key))
    }

    /// Record a remote access for footprint learning.
    pub fn observe(&self, p: PartitionId, table: TableId, key: Key) {
        self.observed.lock().push((p, table, key));
    }

    /// The remote access set this attempt actually touched — the retry's
    /// prefetch plan. Empty if the attempt aborted before any remote access.
    pub fn learned(&self, home: PartitionId) -> Footprint {
        Footprint::from_keys(home, self.observed.lock().iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::Value;

    const T: TableId = TableId(0);

    fn setup() -> std::sync::Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::for_tests(3));
        for p in 0..3u32 {
            for k in 0..8u64 {
                cluster
                    .partition(PartitionId(p))
                    .store
                    .insert(T, k, Value::from_u64(k));
            }
        }
        cluster
    }

    #[test]
    fn footprint_drops_home_keys_and_duplicates() {
        let fp = Footprint::from_keys(
            PartitionId(0),
            vec![
                (PartitionId(0), T, 1),
                (PartitionId(1), T, 2),
                (PartitionId(1), T, 2),
                (PartitionId(2), T, 3),
            ],
        );
        assert_eq!(fp.len(), 2);
    }

    #[test]
    fn resolve_charges_one_round_trip_for_many_partitions() {
        let cluster = setup();
        let txn = cluster.next_txn_id(PartitionId(0));
        let before = cluster.net.round_trips_charged();
        let mut fanout = ReadFanout::empty();
        let plan = Footprint::from_keys(
            PartitionId(0),
            vec![
                (PartitionId(1), T, 1),
                (PartitionId(1), T, 2),
                (PartitionId(2), T, 3),
            ],
        );
        fanout.resolve(&cluster, PartitionId(0), txn, &plan);
        assert_eq!(
            cluster.net.round_trips_charged() - before,
            1,
            "three keys on two partitions fan out as one parallel round trip"
        );
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(1), T, 1),
            PrefetchOutcome::Hit
        );
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(2), T, 3),
            PrefetchOutcome::Hit
        );
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(2), T, 7),
            PrefetchOutcome::Miss
        );
        cluster.shutdown();
    }

    #[test]
    fn a_sent_fanout_is_charged_at_once_and_read_at_its_deadline() {
        let mut config = ClusterConfig::for_tests(2);
        config.net.one_way_us = 2_000;
        let cluster = Cluster::new(config);
        let store = &cluster.partition(PartitionId(1)).store;
        let record = store.insert(T, 1, Value::from_u64(1));
        let txn = cluster.next_txn_id(PartitionId(0));
        let plan = Footprint::from_keys(PartitionId(0), vec![(PartitionId(1), T, 1)]);

        let sent_at = now_us();
        let mut fanout = ReadFanout::empty();
        fanout.begin(&cluster, PartitionId(0), &plan);
        assert!(now_us() - sent_at < 1_500, "sending does not wait");
        assert_eq!(cluster.net.round_trips_charged(), 1);
        assert!((4_000..4_500).contains(&fanout.flight_us()));
        assert!(fanout.ready_at_us() >= sent_at + 4_000);
        // What is observed is the record as it is when the replies are due —
        // a version installed during the flight included — and not before.
        record.install(Value::from_u64(2), 77);
        fanout.complete(&cluster, PartitionId(0), txn);
        assert!(now_us() >= sent_at + 4_000, "read before the deadline");
        assert_eq!(cluster.net.round_trips_charged(), 1);
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(1), T, 1),
            PrefetchOutcome::Hit
        );
        assert_eq!((fanout.ready_at_us(), fanout.flight_us()), (0, 0));
        cluster.shutdown();
    }

    #[test]
    fn version_bump_turns_a_hit_stale() {
        let cluster = setup();
        let txn = cluster.next_txn_id(PartitionId(0));
        let mut fanout = ReadFanout::empty();
        let plan = Footprint::from_keys(PartitionId(0), vec![(PartitionId(1), T, 4)]);
        fanout.resolve(&cluster, PartitionId(0), txn, &plan);
        let rec = cluster
            .partition(PartitionId(1))
            .store
            .get(T, 4)
            .expect("loaded");
        rec.install(Value::from_u64(99), 1_000);
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(1), T, 4),
            PrefetchOutcome::Stale
        );
        cluster.shutdown();
    }

    #[test]
    fn a_key_absent_at_fanout_and_at_read_is_still_a_hit() {
        let cluster = setup();
        let txn = cluster.next_txn_id(PartitionId(0));
        let mut fanout = ReadFanout::empty();
        let plan = Footprint::from_keys(PartitionId(0), vec![(PartitionId(1), T, 404)]);
        fanout.resolve(&cluster, PartitionId(0), txn, &plan);
        // The NotFound abort happens identically with or without batching —
        // the batch answered "no such record" authoritatively.
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(1), T, 404),
            PrefetchOutcome::Hit
        );
        assert!(fanout.covers(PartitionId(1), T, 404));
        cluster.shutdown();
    }

    #[test]
    fn crashed_partitions_are_skipped_not_fetched() {
        let cluster = setup();
        let txn = cluster.next_txn_id(PartitionId(0));
        cluster.net.set_crashed(PartitionId(2), true);
        let before = cluster.net.round_trips_charged();
        let mut fanout = ReadFanout::empty();
        let plan = Footprint::from_keys(
            PartitionId(0),
            vec![(PartitionId(1), T, 1), (PartitionId(2), T, 2)],
        );
        fanout.resolve(&cluster, PartitionId(0), txn, &plan);
        assert_eq!(cluster.net.round_trips_charged() - before, 1);
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(1), T, 1),
            PrefetchOutcome::Hit
        );
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(2), T, 2),
            PrefetchOutcome::Miss,
            "the crashed partition's key stays a miss so the read path aborts as today"
        );
        cluster.shutdown();
    }

    #[test]
    fn learned_footprint_reproduces_the_observed_remote_set() {
        let fanout = ReadFanout::empty();
        fanout.observe(PartitionId(1), T, 7);
        fanout.observe(PartitionId(0), T, 1); // home — dropped
        fanout.observe(PartitionId(1), T, 7); // duplicate — dropped
        fanout.observe(PartitionId(2), T, 9);
        let plan = fanout.learned(PartitionId(0));
        assert_eq!(plan.len(), 2);
    }
}
