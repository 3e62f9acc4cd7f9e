//! Cluster, protocol and experiment configuration.
//!
//! Defaults mirror §6.1 of the paper: 4 partitions, simulated ~200 µs network
//! round-trip, exponential back-off starting at 0.5 ms — and §6.2's 20 ms
//! watermark interval / COCO epoch, the one size every protocol shares.

/// Which concurrency-control scheme a protocol uses for its *local* accesses
/// and validation logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcScheme {
    /// Two-phase locking, aborting immediately on conflict.
    TwoPlNoWait,
    /// Two-phase locking with the WAIT_DIE priority policy.
    TwoPlWaitDie,
    /// Silo-style OCC (epoch-less variant; TID word validation).
    Silo,
    /// TicToc timestamps (used by Sundial and by Primo's local mode).
    TicToc,
    /// Primo's write-conflict-free scheme (exclusive locks for reads of
    /// distributed transactions, TicToc for local ones).
    Wcf,
}

/// The distributed transaction protocol under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// 2PL(NO_WAIT) + 2PC (Spanner-like, §2.1).
    TwoPlNoWait,
    /// 2PL(WAIT_DIE) + 2PC.
    TwoPlWaitDie,
    /// Distributed Silo as described in COCO.
    Silo,
    /// Sundial (TicToc-based OCC with logical leases) + 2PC.
    Sundial,
    /// Aria: deterministic batched execution, no read/write-set knowledge.
    Aria,
    /// TAPIR-style: OCC with inconsistent replication, single prepare round.
    Tapir,
    /// Primo: WCF + watermark group commit (the paper's contribution).
    Primo,
    /// Ablation: Primo without WM (WCF + COCO group commit) — Fig 4b/5b.
    PrimoNoWm,
    /// Ablation: Primo without WCF and WM (TicToc local + 2PL/2PC distributed
    /// + COCO group commit) — Fig 4b/5b.
    PrimoNoWcfNoWm,
}

impl ProtocolKind {
    /// Short label used in figure output, matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::TwoPlNoWait => "2PL(NW)",
            ProtocolKind::TwoPlWaitDie => "2PL(WD)",
            ProtocolKind::Silo => "Silo",
            ProtocolKind::Sundial => "Sundial",
            ProtocolKind::Aria => "Aria",
            ProtocolKind::Tapir => "TAPIR",
            ProtocolKind::Primo => "Primo",
            ProtocolKind::PrimoNoWm => "Primo w/o WM",
            ProtocolKind::PrimoNoWcfNoWm => "Primo w/o WM & WCF",
        }
    }

    /// Every protocol, in declaration order.
    pub const ALL: [ProtocolKind; 9] = [
        ProtocolKind::TwoPlNoWait,
        ProtocolKind::TwoPlWaitDie,
        ProtocolKind::Silo,
        ProtocolKind::Sundial,
        ProtocolKind::Aria,
        ProtocolKind::Tapir,
        ProtocolKind::Primo,
        ProtocolKind::PrimoNoWm,
        ProtocolKind::PrimoNoWcfNoWm,
    ];

    /// The five competitors + Primo used in most figures.
    pub const HEADLINE: [ProtocolKind; 6] = [
        ProtocolKind::TwoPlNoWait,
        ProtocolKind::TwoPlWaitDie,
        ProtocolKind::Silo,
        ProtocolKind::Sundial,
        ProtocolKind::Aria,
        ProtocolKind::Primo,
    ];
}

/// How a distributed transaction's commit decision is made atomic across its
/// participants (the `AtomicCommit` layer in the runtime crate).
///
/// Classic 2PC blocks forever if the coordinating worker dies between the
/// prepare round and the decision; Paxos Commit (Gray & Lamport, *Consensus
/// on Transaction Commit*) makes prepare votes quorum-durable replicated-log
/// entries so any replica can assemble the global verdict and terminate
/// in-doubt transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommitMode {
    /// Classic blocking two-phase commit (the ablation baseline).
    #[default]
    TwoPc,
    /// Non-blocking Paxos Commit over the replicated log: participants log
    /// prepare votes as quorum-durable entries, the decision is itself a log
    /// record, and an in-doubt transaction is terminated from the durable
    /// vote set instead of blocking.
    PaxosCommit,
}

impl CommitMode {
    pub fn label(self) -> &'static str {
        match self {
            CommitMode::TwoPc => "2PC",
            CommitMode::PaxosCommit => "PaxosCommit",
        }
    }
}

/// How durability is confirmed (Fig 11–13 compare these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoggingScheme {
    /// Synchronous per-transaction log flush (classic, not used in figures).
    SyncPerTxn,
    /// COCO-style epoch group commit with a global coordinator (§2.3).
    CocoEpoch,
    /// Controlled-Lock-Violation: locks released early, commit acknowledged
    /// once the transaction's log and its dependencies are durable.
    Clv,
    /// Primo's watermark-based asynchronous group commit (§5).
    Watermark,
}

impl LoggingScheme {
    /// Every group-commit scheme, in declaration order.
    pub const ALL: [LoggingScheme; 4] = [
        LoggingScheme::SyncPerTxn,
        LoggingScheme::CocoEpoch,
        LoggingScheme::Clv,
        LoggingScheme::Watermark,
    ];

    pub fn label(self) -> &'static str {
        match self {
            LoggingScheme::SyncPerTxn => "Sync",
            LoggingScheme::CocoEpoch => "COCO",
            LoggingScheme::Clv => "CLV",
            LoggingScheme::Watermark => "Watermark",
        }
    }
}

/// Simulated network parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// One-way latency between any two partitions, in microseconds.
    pub one_way_us: u64,
    /// Uniform jitter added to each message, in microseconds.
    pub jitter_us: u64,
    /// Extra delay applied to *watermark/epoch* messages only (Fig 13a), in
    /// microseconds, per destination partition (applied uniformly here; the
    /// experiment driver can override per partition at runtime).
    pub control_msg_extra_us: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            // ~200 us RTT: same order as the paper's 16 Gbps Ethernet cluster.
            one_way_us: 100,
            jitter_us: 10,
            control_msg_extra_us: 0,
        }
    }
}

/// Durability / group-commit parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalConfig {
    pub scheme: LoggingScheme,
    /// Watermark interval `t_m` or COCO epoch length, in milliseconds.
    pub interval_ms: u64,
    /// Simulated local disk persist delay for a log batch on the leader
    /// replica, in microseconds.
    pub persist_delay_us: u64,
    /// Enable the force-update mechanism for lagging partitions (§5.1,
    /// evaluated in Fig 13b).
    pub force_update: bool,
    /// Log replicas per partition (the paper replicates each partition's log
    /// through Raft, §5.2). 1 keeps the single-copy log; with `n > 1` a log
    /// record is *durable* once a majority quorum of replicas persisted it,
    /// so recovery tolerates losing the leader's disk, not just its memory.
    /// At most 16: `ReplicatedLog::new` rejects a larger replica set.
    pub replication_factor: usize,
    /// Persist delay of the non-leader replicas' disks, in microseconds.
    /// `None` means same as `persist_delay_us`. The one-way network latency
    /// of the replication hop is added on top by the cluster.
    pub replica_persist_delay_us: Option<u64>,
    /// **Deliberately unsound** ablation knob for the snapshot-read
    /// subsystem: report the latest finalized commit timestamp as the
    /// snapshot horizon instead of the scheme's durable horizon. Snapshot
    /// readers may then observe state a crash later rolls back — the
    /// crash-consistency suite asserts it catches exactly that.
    pub unsafe_latest_commit_horizon: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            scheme: LoggingScheme::Watermark,
            interval_ms: 20,
            persist_delay_us: 500,
            force_update: true,
            replication_factor: 1,
            replica_persist_delay_us: None,
            unsafe_latest_commit_horizon: false,
        }
    }
}

/// Primo-specific knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimoConfig {
    /// Fall back to 2PC for read-heavy workloads (§4.3). When `Some(r)`, a
    /// distributed transaction whose declared read ratio exceeds `r` uses the
    /// 2PC path instead of WCF.
    pub read_heavy_fallback: Option<f64>,
    /// Use snapshot reads (no locks) for transactions declared read-only.
    pub read_only_snapshot: bool,
    /// Version-chain depth per record (current + history), `>= 1`. Small by
    /// default so memory stays flat under write-heavy churn.
    pub max_versions: usize,
}

impl Default for PrimoConfig {
    fn default() -> Self {
        PrimoConfig {
            read_heavy_fallback: None,
            read_only_snapshot: true,
            max_versions: 4,
        }
    }
}

/// Flight-recorder (observability) knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Record trace events. On by default — the recorder is designed to stay
    /// on in every run (the `trace_overhead` release test of `primo-bench`
    /// holds the cost under 5%); the off position exists for that ablation.
    pub enabled: bool,
    /// Per-worker ring capacity in events (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Also record one event per simulated network hop. Off by default:
    /// per-hop events are high-volume and only useful when debugging the
    /// network layer itself.
    pub trace_messages: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: true,
            ring_capacity: 4096,
            trace_messages: false,
        }
    }
}

/// Top-level cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    pub num_partitions: usize,
    /// Worker threads per partition leader.
    pub workers_per_partition: usize,
    pub net: NetConfig,
    pub wal: WalConfig,
    pub primo: PrimoConfig,
    pub trace: TraceConfig,
    /// Atomic-commit protocol for distributed transactions (default: classic
    /// blocking 2PC, the paper's baseline; [`CommitMode::PaxosCommit`] makes
    /// the decision fault-tolerant).
    pub commit_mode: CommitMode,
    /// Initial back-off after an abort, microseconds (paper: 0.5 ms, doubling).
    pub backoff_initial_us: u64,
    /// Upper bound on the exponential back-off, microseconds.
    pub backoff_max_us: u64,
    /// Aria batch size (transactions per partition per batch).
    pub aria_batch_size: usize,
    /// Batch the remote reads of an attempt into one parallel fan-out
    /// (footprint-hinted or learned from the previous attempt) instead of a
    /// round trip per record. Purely a network-accounting optimization — the
    /// commit/abort outcome of every transaction is identical either way, so
    /// it is on by default; off reproduces the sequential per-record model.
    pub batch_remote_reads: bool,
    /// Experiment seed: deterministic randomness derived from it (e.g. the
    /// network jitter salt) varies across seeds while each run stays
    /// reproducible.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_partitions: 4,
            workers_per_partition: 4,
            net: NetConfig::default(),
            wal: WalConfig::default(),
            primo: PrimoConfig::default(),
            trace: TraceConfig::default(),
            commit_mode: CommitMode::default(),
            backoff_initial_us: 500,
            backoff_max_us: 8_000,
            aria_batch_size: 32,
            batch_remote_reads: true,
            seed: 0x5EED,
        }
    }
}

impl ClusterConfig {
    /// A configuration scaled down for unit tests: tiny latencies so tests run
    /// in milliseconds instead of seconds.
    pub fn for_tests(num_partitions: usize) -> Self {
        ClusterConfig {
            num_partitions,
            workers_per_partition: 2,
            net: NetConfig {
                one_way_us: 5,
                jitter_us: 0,
                control_msg_extra_us: 0,
            },
            wal: WalConfig {
                scheme: LoggingScheme::Watermark,
                interval_ms: 1,
                persist_delay_us: 50,
                force_update: true,
                replication_factor: 1,
                replica_persist_delay_us: None,
                unsafe_latest_commit_horizon: false,
            },
            primo: PrimoConfig::default(),
            trace: TraceConfig {
                // Small rings keep the thousands of short-lived test
                // clusters cheap while still exercising the recorder.
                ring_capacity: 512,
                ..TraceConfig::default()
            },
            commit_mode: CommitMode::default(),
            backoff_initial_us: 20,
            backoff_max_us: 500,
            aria_batch_size: 8,
            batch_remote_reads: true,
            seed: 0x5EED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = ClusterConfig::default();
        assert_eq!(c.num_partitions, 4);
        assert_eq!(c.wal.interval_ms, 20, "§6.2's unified interval");
        assert_eq!(c.backoff_initial_us, 500);
        assert_eq!(c.wal.scheme, LoggingScheme::Watermark);
        assert_eq!(c.wal.replication_factor, 1, "single-copy log by default");
        assert_eq!(c.wal.replica_persist_delay_us, None);
        assert_eq!(c.commit_mode, CommitMode::TwoPc, "blocking 2PC by default");
        assert!(c.batch_remote_reads, "batched remote reads on by default");
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(ProtocolKind::TwoPlNoWait.label(), "2PL(NW)");
        assert_eq!(ProtocolKind::Primo.label(), "Primo");
        assert_eq!(LoggingScheme::CocoEpoch.label(), "COCO");
        assert_eq!(ProtocolKind::HEADLINE.len(), 6);
    }

    /// A new variant fails to compile here until it is added to `ALL`.
    #[test]
    fn all_lists_every_variant_once() {
        for (i, kind) in ProtocolKind::ALL.into_iter().enumerate() {
            let listed = match kind {
                ProtocolKind::TwoPlNoWait => 0,
                ProtocolKind::TwoPlWaitDie => 1,
                ProtocolKind::Silo => 2,
                ProtocolKind::Sundial => 3,
                ProtocolKind::Aria => 4,
                ProtocolKind::Tapir => 5,
                ProtocolKind::Primo => 6,
                ProtocolKind::PrimoNoWm => 7,
                ProtocolKind::PrimoNoWcfNoWm => 8,
            };
            assert_eq!(listed, i, "{kind:?}");
        }
        for (i, scheme) in LoggingScheme::ALL.into_iter().enumerate() {
            let listed = match scheme {
                LoggingScheme::SyncPerTxn => 0,
                LoggingScheme::CocoEpoch => 1,
                LoggingScheme::Clv => 2,
                LoggingScheme::Watermark => 3,
            };
            assert_eq!(listed, i, "{scheme:?}");
        }
    }

    #[test]
    fn config_debug_lists_every_section() {
        let s = format!("{:?}", ClusterConfig::default());
        assert!(s.contains("num_partitions"));
        assert!(s.contains("wal"));
        assert!(s.contains("primo"));
    }
}
