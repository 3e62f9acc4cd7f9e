//! Appendix A of the paper: an analytical model of the conflict rate of a
//! local transaction under Primo versus a 2PC-based scheme — plus the models
//! this reproduction measures itself against: remote-read messages, the
//! group commit's release lag / closed-loop ceiling, and a worker that
//! overlaps its clients' round trips, back-offs and 2PC rounds (throughput,
//! and the message delays a distributed commit keeps it occupied for).
//!
//! The model is used by the `appendixA` harness (and by tests) to check the
//! paper's analytical conclusions: Primo wins whenever the read ratio is not
//! extreme, and the advantage grows with contention, the distributed-ratio,
//! and the relative cost of a network round trip.

/// Workload / system parameters of the analytical model (Appendix A).
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    /// Number of partitions `n`.
    pub partitions: usize,
    /// Worker threads per partition `h`.
    pub threads_per_partition: usize,
    /// Keys accessed per transaction `m`.
    pub ops_per_txn: usize,
    /// Fraction of reads `R_r` among the `m` accesses.
    pub read_ratio: f64,
    /// Fraction of distributed transactions `R_d`.
    pub distributed_ratio: f64,
    /// Probability two random operations touch the same record `P_c`
    /// (captures contention / skew).
    pub conflict_prob: f64,
    /// Fraction of read records whose `rts` must be extended `R_u`
    /// (the paper measures at most 0.6).
    pub rts_update_ratio: f64,
    /// Local execution time `t_l` (any unit).
    pub local_time: f64,
    /// Remote round-trip time `t_r` (same unit as `local_time`).
    pub remote_time: f64,
    /// Local transactions concurrent with the observed one `N_l`.
    pub concurrent_local: f64,
    /// Probability that each operation of a distributed transaction goes to
    /// a remote partition (the YCSB `remote_op_ratio`). Governs how many
    /// per-record round trips the batched fan-out can collapse.
    pub remote_op_ratio: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        // Roughly the default YCSB setting of §6.1.
        ModelParams {
            partitions: 4,
            threads_per_partition: 16,
            ops_per_txn: 10,
            read_ratio: 0.5,
            distributed_ratio: 0.2,
            conflict_prob: 1e-5,
            rts_update_ratio: 0.6,
            local_time: 10.0,
            remote_time: 200.0,
            concurrent_local: 48.0,
            remote_op_ratio: 0.3,
        }
    }
}

/// Probability that a local transaction conflicts with one given concurrent
/// transaction under a 2PC-based scheme (Appendix A, Eq. 1).
pub fn conflict_with_one_2pc(p: &ModelParams) -> f64 {
    let m = p.ops_per_txn as f64;
    let rr = p.read_ratio;
    1.0 - (1.0 - p.conflict_prob).powf(m * m * (1.0 - rr * rr))
}

/// Probability that a local transaction conflicts with one given concurrent
/// *distributed* transaction under Primo (Appendix A, Eq. 2).
pub fn conflict_with_one_primo_dist(p: &ModelParams) -> f64 {
    let m = p.ops_per_txn as f64;
    let rr = p.read_ratio;
    let ru = p.rts_update_ratio;
    1.0 - (1.0 - p.conflict_prob).powf(m * m * (1.0 - rr * rr + rr * rr * ru))
}

/// Expected number of concurrent distributed transactions under 2PC
/// (Appendix A, Eq. 3).
pub fn concurrent_distributed_2pc(p: &ModelParams) -> f64 {
    let nh = (p.partitions * p.threads_per_partition) as f64;
    p.distributed_ratio * nh * (2.0 + 2.0 * p.remote_time / p.local_time)
}

/// Expected number of concurrent distributed transactions under Primo
/// (Appendix A, Eq. 4).
pub fn concurrent_distributed_primo(p: &ModelParams) -> f64 {
    let nh = (p.partitions * p.threads_per_partition) as f64;
    p.distributed_ratio * nh * (2.0 + p.remote_time / p.local_time)
}

/// Conflict rate of a local transaction under a 2PC-based scheme
/// (Appendix A, Eq. 5).
pub fn conflict_rate_2pc(p: &ModelParams) -> f64 {
    let c = conflict_with_one_2pc(p);
    let n_dist = concurrent_distributed_2pc(p);
    1.0 - (1.0 - c).powf(n_dist + p.concurrent_local)
}

/// Conflict rate of a local transaction under Primo (Appendix A, Eq. 6).
pub fn conflict_rate_primo(p: &ModelParams) -> f64 {
    let c_local = conflict_with_one_2pc(p);
    let c_dist = conflict_with_one_primo_dist(p);
    let n_dist = concurrent_distributed_primo(p);
    1.0 - (1.0 - c_dist).powf(n_dist) * (1.0 - c_local).powf(p.concurrent_local)
}

/// Convenience: the ratio `CR_2PC / CR_Primo` (> 1 means Primo has the lower
/// conflict rate and is expected to win).
pub fn advantage_ratio(p: &ModelParams) -> f64 {
    let primo = conflict_rate_primo(p);
    let twopc = conflict_rate_2pc(p);
    if primo <= f64::EPSILON {
        f64::INFINITY
    } else {
        twopc / primo
    }
}

// ---------------------------------------------------------------------------
// Remote-read message model (batched fan-out vs per-record round trips).
//
// The conflict model above is about *what aborts*; this block is about *what
// the read phase costs on the wire*. A distributed transaction with `m`
// operations, each remote with probability `r`, performs `m·r` remote reads
// in expectation. Sequentially each read is its own round trip; the batched
// fan-out resolves the whole footprint in one parallel round per attempt
// (cost = the slowest partition, charged once), so the read phase collapses
// to a single round trip whenever the transaction is distributed at all.
// ---------------------------------------------------------------------------

/// Expected remote-read round trips per distributed transaction with
/// per-record (sequential) reads: one per remote operation.
pub fn read_round_trips_sequential(p: &ModelParams) -> f64 {
    p.ops_per_txn as f64 * p.remote_op_ratio
}

/// Expected remote-read round trips per distributed transaction with the
/// batched fan-out: one parallel round whenever at least one operation is
/// remote (the generator forces ≥ 1 remote op in a distributed transaction,
/// so this is exactly 1 for `r > 0`).
pub fn read_round_trips_batched(p: &ModelParams) -> f64 {
    if p.remote_op_ratio > 0.0 && p.ops_per_txn > 0 {
        1.0
    } else {
        0.0
    }
}

/// Read-phase latency of one distributed transaction (same unit as
/// `remote_time`) under sequential per-record reads.
pub fn read_latency_sequential(p: &ModelParams) -> f64 {
    read_round_trips_sequential(p) * p.remote_time
}

/// Read-phase latency under the batched fan-out: one round trip, because the
/// fan-out is charged at the slowest partition rather than the sum.
pub fn read_latency_batched(p: &ModelParams) -> f64 {
    read_round_trips_batched(p) * p.remote_time
}

/// The ratio `sequential / batched` of remote-read round trips (> 1 means
/// batching saves messages). Crosses 1 exactly where a distributed
/// transaction has one expected remote operation: below that the fan-out is
/// the same single round trip the sequential path would pay.
pub fn batching_advantage(p: &ModelParams) -> f64 {
    let batched = read_round_trips_batched(p);
    if batched <= f64::EPSILON {
        1.0
    } else {
        read_round_trips_sequential(p) / batched
    }
}

// ---------------------------------------------------------------------------
// Group-commit model (closed-loop ceiling, release lag in message delays).
//
// The two blocks above are about what a transaction costs *until it
// commits*; this one is about how long its client then waits for the
// watermark, and what that wait does to a closed loop's throughput.
// ---------------------------------------------------------------------------

/// Little's law for the benchmark's closed loop: `clients` outstanding
/// transactions (workers x `MAX_PENDING_COMMITS`), each occupying its slot
/// for `commit_latency_s`, complete at most `clients / commit_latency_s`
/// per second — whatever the engine's CPU capacity.
pub fn closed_loop_ceiling_tps(clients: usize, commit_latency_s: f64) -> f64 {
    clients as f64 / commit_latency_s
}

/// How long a *blocked* client waits for the watermark that covers its
/// commit, microseconds, by who has to generate one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseLag {
    /// Every peer's advertised `Wp` already covers the commit: the
    /// coordinator's agent wakes, generates and waits out one quorum
    /// acknowledgement — no message.
    pub own: u64,
    /// A peer has to be asked: the demand travels one bus delay, the peer's
    /// watermark one quorum acknowledgement later another one back.
    pub peer_asked: u64,
}

/// The demand-driven release lag in the unit Chockler & Gotsman (*Multi-Shot
/// Distributed Transaction Commit*) count in: `wake + quorum_ack` plus zero
/// or two message delays. A client that does *not* block is not modelled
/// here — it is released by the interval heartbeat, up to `t_m` later.
pub fn release_lag_us(wake_us: u64, quorum_ack_us: u64, bus_us: u64) -> ReleaseLag {
    let own = wake_us + quorum_ack_us;
    ReleaseLag {
        own,
        peer_asked: own + 2 * bus_us,
    }
}

// ---------------------------------------------------------------------------
// Overlapped-worker model (what a round trip costs a worker, and a client).
//
// Didona et al. (*Distributed Transactional Systems Cannot Be Fast*) show the
// read round trip cannot be taken out of a transaction's latency; what a
// worker can do is spend it — and a retry's back-off — on other clients.
// These functions say what that buys, and what is left on the wire per
// commit protocol.
// ---------------------------------------------------------------------------

/// Throughput of one worker that keeps up to `clients` transactions in
/// flight, each needing `flight_us` on the wire (its batched read round
/// trip) and `service_us` of the worker's own time, transactions per second:
/// the worker's CPU (`1 / service`) or Little's law on the wire
/// (`clients / (flight + service)`), whichever binds. One client is the
/// worker that waits out every round trip itself, `1 / (flight + service)`.
pub fn overlapped_worker_tps(service_us: f64, flight_us: f64, clients: usize) -> f64 {
    let cpu_bound = 1e6 / service_us;
    let wire_bound = clients as f64 * 1e6 / (flight_us + service_us);
    cpu_bound.min(wire_bound)
}

/// Throughput of one worker whose clients abort and retry, transactions per
/// second: `abort_rate` of all attempts abort (so a commit takes
/// `1 / (1 - abort_rate)` of them, each `service_us` of the worker's own
/// time: take-up, body, 2PC rounds), and every retry waits out a back-off of
/// `backoff_us` and then its read fan-out's `flight_us`. `on_worker` says
/// whose time that wait is: the worker's, which sits through both (the
/// DBx1000 loop without its abort queue), or only the client's, parked
/// while the worker runs others. The client's latency is the same either
/// way; what is left off the worker is contention itself, the `service_us`
/// of attempts that abort.
///
/// `ycsb_hot_2pc`, seed 7, before aborted clients were parked: 433 us of
/// worker per commit (2 workers, 4 613 TPS) at an abort rate of 0.122, a
/// mean back-off of ~430 us (375 at the first level, doubling) and a 215 us
/// flight — 301 us per attempt of the worker's own:
///
/// ```
/// use primo_core::analysis::retrying_worker_tps;
/// let held = retrying_worker_tps(301.0, 0.122, 430.0, 215.0, true);
/// assert!((1e6 / held - 433.0).abs() < 1.0);
/// // Parked, the same attempts cost ~343 us per commit: x 1.26 ...
/// let parked = retrying_worker_tps(301.0, 0.122, 430.0, 215.0, false);
/// assert!((1e6 / parked - 343.0).abs() < 1.0);
/// // ... and more at the abort rate the faster workers then reach (0.17:
/// // more transactions are in flight on the same hot keys), were an
/// // aborted attempt as long as a committed one — it is shorter, and the
/// // measured figure is ~335 us.
/// assert!(1e6 / retrying_worker_tps(301.0, 0.17, 430.0, 215.0, false) > 343.0);
/// ```
pub fn retrying_worker_tps(
    service_us: f64,
    abort_rate: f64,
    backoff_us: f64,
    flight_us: f64,
    on_worker: bool,
) -> f64 {
    let attempts = 1.0 / (1.0 - abort_rate);
    let held_us = if on_worker {
        (attempts - 1.0) * (backoff_us + flight_us)
    } else {
        0.0
    };
    1e6 / (attempts * service_us + held_us)
}

/// Throughput of one worker whose distributed commits take two 2PC rounds of
/// `round_us` each, transactions per second. `cpu_us` is the worker's own
/// time per attempt (take-up, body, certify, install, release — no waiting),
/// `certify_us` the part of it spent between an attempt's first write lock
/// and its release, `dist_share` the share of attempts that have
/// participants, and a commit takes `1 / (1 - abort_rate)` attempts.
///
/// `rounds_on_worker` says whose time the rounds are. The worker's, which
/// sits through both: `cpu + dist_share x 2 x round` per attempt. Or only
/// the client's — the next client's body and vote round fly during this
/// one's decision round — and then a worker's time per attempt is its CPU
/// plus whatever of the waits that does not cover, *bounded below by the
/// lock-hold chain*: an attempt that conflicts with another of its worker
/// waits through that one's round — for its release before certifying, or,
/// where the worker holds a body back from a voting client's keys, for its
/// certify before running — so attempts follow each other no faster than
/// `waiting_share x dist_share x round + certify`, where `waiting_share` is
/// the share of distributed attempts that waited so. With one lock-holder
/// per worker every distributed certify waits a decision round (`1.0`);
/// with key-disjoint holders side by side only the conflicting attempts
/// wait. The model is that bound, `max(cpu, chain)`; what a measurement
/// adds to it is the vote round sticking out of the decision round it
/// overlaps (by a body and a certify) and the gaps nothing was ready for.
///
/// `ycsb_hot_2pc`, seed 7, half the transactions distributed, 215 us a
/// round. With the rounds on the worker: 5 751 TPS on 2 workers, 348 us of
/// worker per commit at an abort rate of 0.175 — 72 us of it CPU per
/// attempt. Staged with one lock-holder a worker: 9 009 TPS, 222 us per
/// commit, at the abort rate the faster workers then reach (0.29: more
/// transactions per second on the same hot keys). Key-disjoint holders side
/// by side: 13 020 TPS (the median of ten seeds), 154 us per commit, at an
/// abort rate of 0.32; 0.62 of the distributed attempts still wait through
/// a conflicting one's round (0.57 hold their body back for a voting
/// client, 0.14 wait for a holder's release):
///
/// ```
/// use primo_core::analysis::staged_worker_tps;
/// let held = staged_worker_tps(72.0, 0.175, 0.5, 215.0, 15.0, 1.0, true);
/// assert!((1e6 / held - 348.0).abs() < 1.0);
/// // One holder a worker: the chain, 122 us an attempt, binds — not the
/// // 72 us of CPU ...
/// let one_holder = staged_worker_tps(72.0, 0.292, 0.5, 215.0, 15.0, 1.0, false);
/// assert!((1e6 / one_holder - 173.0).abs() < 1.0);
/// // ... and the measured 222 us sits above the bound, x 1.57 under the
/// // 348 us it was.
/// assert!(222.0 > 1e6 / one_holder && 348.0 / 222.0 >= 1.25);
/// // Holders side by side: the chain shrinks to 82 us an attempt and still
/// // binds; the measured 154 us sits as far above it as 222 us did above
/// // one holder's (x 1.28), x 1.44 under that.
/// let side_by_side = staged_worker_tps(72.0, 0.32, 0.5, 215.0, 15.0, 0.62, false);
/// assert!((1e6 / side_by_side - 120.0).abs() < 1.0);
/// assert!(154.0 > 1e6 / side_by_side && 222.0 / 154.0 >= 1.4);
/// ```
pub fn staged_worker_tps(
    cpu_us: f64,
    abort_rate: f64,
    dist_share: f64,
    round_us: f64,
    certify_us: f64,
    waiting_share: f64,
    rounds_on_worker: bool,
) -> f64 {
    let attempts = 1.0 / (1.0 - abort_rate);
    let per_attempt_us = if rounds_on_worker {
        cpu_us + dist_share * 2.0 * round_us
    } else {
        cpu_us.max(waiting_share * dist_share * round_us + certify_us)
    };
    1e6 / (attempts * per_attempt_us)
}

/// How a distributed transaction commits, for
/// [`dist_critical_path_delays`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistCommit {
    /// Primo's vote-free WCF commit: every record is locked by the reads.
    PrimoWcf,
    /// Classic two-phase commit: a vote round and an acknowledged decision.
    ClassicTwoPc,
    /// Paxos Commit: a vote round; the decision is a durable log entry,
    /// announced one-way.
    PaxosCommit,
}

/// Message delays between a distributed transaction's first remote access
/// and its coordinator being free of it, with batched reads and no conflict:
/// one round trip (2 delays) for the read fan-out, plus the rounds of the
/// commit protocol the coordinator waits for.
///
/// * Primo WCF: **2**. The write-set is installed by a one-way message the
///   coordinator never waits for (one more delay until the participants'
///   locks are free, off the client's path).
/// * Classic 2PC: **6** — read, prepare and decide are a round trip each,
///   because locks are held until the decision is acknowledged.
/// * Paxos Commit: **4** — the decision is announced one-way.
///
/// Gray & Lamport (*Consensus on Transaction Commit*) count the commit alone
/// at 4 delays for 2PC and 5 for Paxos Commit (4 with acceptors co-located),
/// from a resource manager's request until every participant knows; here the
/// coordinator is the requester, which takes one delay off, and only what
/// it waits for is counted. Chockler & Gotsman (*Multi-Shot Distributed
/// Transaction Commit*) count the same way from the client: a vote-collecting
/// certification cannot decide in less than the one round trip WCF's reads
/// already are. These are model figures: the benchmark's
/// `protocol.dist_critical_path_delays` holds the measured one against them.
pub fn dist_critical_path_delays(commit: DistCommit) -> u32 {
    const READ_FANOUT: u32 = 2;
    READ_FANOUT
        + match commit {
            DistCommit::PrimoWcf => 0,
            DistCommit::ClassicTwoPc => 2 + 2,
            DistCommit::PaxosCommit => 2,
        }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_reproduces_the_interval_paced_benchmark() {
        // 2 workers x 512 clients released once per 20 ms interval: the
        // 51.2k TPS `ycsb_local` sat on before releases followed demand.
        assert!((closed_loop_ceiling_tps(1_024, 0.020) - 51_200.0).abs() < 1e-6);
        // The same population at a 6 ms commit latency has room for 170k:
        // the engine's CPU, not the loop, is then the limit.
        assert!(closed_loop_ceiling_tps(1_024, 0.006) > 150_000.0);
    }

    #[test]
    fn one_client_per_worker_is_the_blocking_worker() {
        // The parent of the overlap: ~35 us of work behind a 220 us round
        // trip, one transaction at a time.
        let blocking = overlapped_worker_tps(35.0, 220.0, 1);
        assert!((blocking - 1e6 / 255.0).abs() < 1e-6);
        // A second client doubles it; the wire still binds.
        assert!((overlapped_worker_tps(35.0, 220.0, 2) - 2.0 * blocking).abs() < 1e-6);
    }

    #[test]
    fn enough_clients_leave_only_the_cpu() {
        // 220 / 35 + 1 clients cover a flight: from there on the worker is
        // CPU-bound and more clients buy nothing.
        let cpu_bound = 1e6 / 35.0;
        assert!(overlapped_worker_tps(35.0, 220.0, 7) < cpu_bound);
        assert_eq!(overlapped_worker_tps(35.0, 220.0, 8), cpu_bound);
        assert_eq!(overlapped_worker_tps(35.0, 220.0, 512), cpu_bound);
        // Nothing on the wire: one client is enough.
        assert_eq!(overlapped_worker_tps(35.0, 0.0, 1), cpu_bound);
    }

    #[test]
    fn wcf_keeps_the_coordinator_for_the_read_round_trip_only() {
        assert_eq!(dist_critical_path_delays(DistCommit::PrimoWcf), 2);
        assert_eq!(dist_critical_path_delays(DistCommit::PaxosCommit), 4);
        assert_eq!(dist_critical_path_delays(DistCommit::ClassicTwoPc), 6);
    }

    #[test]
    fn asking_a_peer_costs_two_message_delays() {
        let lag = release_lag_us(50, 600, 100);
        assert_eq!(lag.own, 650);
        assert_eq!(lag.peer_asked - lag.own, 200);
    }

    #[test]
    fn primo_wins_at_moderate_read_ratio() {
        // The paper: with Ru = 0.6, Primo shows a definite advantage when
        // Rr < 0.8.
        for rr in [0.0, 0.2, 0.5, 0.7] {
            let p = ModelParams {
                read_ratio: rr,
                conflict_prob: 1e-4,
                ..Default::default()
            };
            assert!(
                advantage_ratio(&p) > 1.0,
                "Primo should win at read ratio {rr}"
            );
        }
    }

    #[test]
    fn read_heavy_mostly_distributed_favours_2pc() {
        // The paper's exception (§4.3 / Appendix A): with the conservative
        // Ru = 0.6, a read-heavy (Rr ≈ 0.9+) and mostly-distributed workload
        // makes the extra exclusive locks outweigh the saved round trips, so
        // Primo should fall back to 2PC there.
        let read_heavy = ModelParams {
            read_ratio: 0.95,
            distributed_ratio: 0.8,
            conflict_prob: 1e-7,
            ..Default::default()
        };
        assert!(advantage_ratio(&read_heavy) < 1.0);
        let mixed = ModelParams {
            read_ratio: 0.5,
            distributed_ratio: 0.8,
            conflict_prob: 1e-7,
            ..Default::default()
        };
        assert!(advantage_ratio(&mixed) > 1.0);
        assert!(advantage_ratio(&mixed) > advantage_ratio(&read_heavy));
    }

    #[test]
    fn advantage_grows_with_contention_and_distribution() {
        let base = ModelParams {
            conflict_prob: 1e-7,
            ..Default::default()
        };
        let contended = ModelParams {
            conflict_prob: 1e-5,
            ..Default::default()
        };
        assert!(conflict_rate_2pc(&contended) > conflict_rate_2pc(&base));
        let more_dist = ModelParams {
            distributed_ratio: 0.8,
            conflict_prob: 1e-7,
            ..Default::default()
        };
        let less_dist = ModelParams {
            distributed_ratio: 0.1,
            conflict_prob: 1e-7,
            ..Default::default()
        };
        // The absolute gap between the schemes grows with the ratio of
        // distributed transactions (away from saturation).
        let gap_more = conflict_rate_2pc(&more_dist) - conflict_rate_primo(&more_dist);
        let gap_less = conflict_rate_2pc(&less_dist) - conflict_rate_primo(&less_dist);
        assert!(gap_more > gap_less);
    }

    #[test]
    fn conflict_rates_are_probabilities() {
        for rr in [0.0, 0.5, 0.9] {
            for pc in [1e-6, 1e-4, 1e-2] {
                let p = ModelParams {
                    read_ratio: rr,
                    conflict_prob: pc,
                    ..Default::default()
                };
                for v in [
                    conflict_rate_2pc(&p),
                    conflict_rate_primo(&p),
                    conflict_with_one_2pc(&p),
                    conflict_with_one_primo_dist(&p),
                ] {
                    assert!((0.0..=1.0).contains(&v), "value {v} out of range");
                }
            }
        }
    }

    #[test]
    fn primo_has_fewer_concurrent_distributed_txns() {
        let p = ModelParams::default();
        assert!(concurrent_distributed_primo(&p) < concurrent_distributed_2pc(&p));
    }

    #[test]
    fn batching_crossover_is_at_one_expected_remote_op() {
        // Below one expected remote operation per transaction the fan-out is
        // the same single round trip the sequential path pays — no advantage.
        let at_crossover = ModelParams {
            ops_per_txn: 10,
            remote_op_ratio: 0.1,
            ..Default::default()
        };
        assert!((batching_advantage(&at_crossover) - 1.0).abs() < 1e-9);
        // Above it the advantage is exactly the expected remote-read count.
        let above = ModelParams {
            ops_per_txn: 10,
            remote_op_ratio: 0.5,
            ..Default::default()
        };
        assert!((batching_advantage(&above) - 5.0).abs() < 1e-9);
        assert!(batching_advantage(&above) > batching_advantage(&at_crossover));
        // Fully remote 10-op transactions: 10× fewer read round trips — the
        // acceptance bar (≥ 2×) with a wide margin.
        let fully_remote = ModelParams {
            ops_per_txn: 10,
            remote_op_ratio: 1.0,
            ..Default::default()
        };
        assert!((batching_advantage(&fully_remote) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn batched_read_latency_is_one_round_trip() {
        let p = ModelParams {
            ops_per_txn: 10,
            remote_op_ratio: 1.0,
            remote_time: 200.0,
            ..Default::default()
        };
        assert!((read_latency_batched(&p) - 200.0).abs() < 1e-9);
        assert!((read_latency_sequential(&p) - 2000.0).abs() < 1e-9);
        // A purely local mix charges nothing either way.
        let local = ModelParams {
            remote_op_ratio: 0.0,
            ..Default::default()
        };
        assert_eq!(read_round_trips_sequential(&local), 0.0);
        assert_eq!(read_round_trips_batched(&local), 0.0);
    }
}
