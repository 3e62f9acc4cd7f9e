//! Appendix A of the paper: an analytical model of the conflict rate of a
//! local transaction under Primo versus a 2PC-based scheme — plus the two
//! models this reproduction measures itself against: remote-read messages
//! and the group commit's release lag / closed-loop ceiling.
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
