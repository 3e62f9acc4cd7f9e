//! The `Primo` facade: build a cluster, open a session, run transactions.
//!
//! This is the primary entry point of the workspace. A [`ClusterBuilder`]
//! assembles a simulated shared-nothing cluster (partitions, worker budget,
//! group-commit scheme, network timing); the resulting [`Primo`] handle owns
//! the cluster together with one protocol instance and hands out [`Session`]s
//! for ad-hoc transactions expressed as closures over
//! [`TxnContext`] — arbitrary programs whose
//! read/write sets emerge at runtime, exactly the generality the paper
//! targets.
//!
//! ```
//! use primo_repro::{PartitionId, Primo, TableId, Value};
//!
//! const ACCOUNTS: TableId = TableId(0);
//!
//! let primo = Primo::builder().partitions(2).fast_local().build();
//! let session = primo.session();
//! session.load(PartitionId(0), ACCOUNTS, 1, Value::from_u64(100));
//! session.load(PartitionId(1), ACCOUNTS, 2, Value::from_u64(50));
//!
//! // Transfer 10 from account 1 (partition 0) to account 2 (partition 1).
//! session
//!     .transaction(PartitionId(0), |ctx| {
//!         let a = ctx.read(PartitionId(0), ACCOUNTS, 1)?.as_u64();
//!         let b = ctx.read(PartitionId(1), ACCOUNTS, 2)?.as_u64();
//!         ctx.write(PartitionId(0), ACCOUNTS, 1, Value::from_u64(a - 10))?;
//!         ctx.write(PartitionId(1), ACCOUNTS, 2, Value::from_u64(b + 10))?;
//!         Ok(())
//!     })
//!     .unwrap();
//!
//! assert_eq!(session.get(PartitionId(0), ACCOUNTS, 1).unwrap().as_u64(), 90);
//! assert_eq!(session.get(PartitionId(1), ACCOUNTS, 2).unwrap().as_u64(), 60);
//! primo.shutdown();
//! ```

use crate::registry::protocol_for;
use primo_common::config::{ClusterConfig, CommitMode, LoggingScheme, ProtocolKind};
use primo_common::{AbortReason, Key, PartitionId, TableId, TxnResult, Value};
use primo_runtime::cluster::Cluster;
use primo_runtime::protocol::Protocol;
use primo_runtime::txn::{ClosureProgram, TxnContext, TxnProgram};
use primo_runtime::worker::run_session_txn;
use std::sync::Arc;

/// A deferred edit to the assembled [`ClusterConfig`].
type ClusterTweak = Box<dyn FnOnce(&mut ClusterConfig)>;

/// Fluent builder for a [`Primo`] cluster handle, and through
/// [`ClusterBuilder::experiment`] for a measurement run.
///
/// Knobs are recorded and applied in [`ClusterBuilder::build`], so call
/// order does not matter: `.wal_interval_ms(7).fast_local()` and
/// `.fast_local().wal_interval_ms(7)` produce the same cluster, and
/// [`ClusterBuilder::tweak`] closures run last (they win).
pub struct ClusterBuilder {
    partitions: Option<usize>,
    workers_per_partition: Option<usize>,
    wal_interval_ms: Option<u64>,
    fast_local: bool,
    kind: ProtocolKind,
    logging: Option<LoggingScheme>,
    commit_mode: CommitMode,
    tweaks: Vec<ClusterTweak>,
}

impl ClusterBuilder {
    /// Number of shared-nothing partitions (default 4, as in §6.1).
    pub fn partitions(mut self, n: usize) -> Self {
        self.partitions = Some(n);
        self
    }

    /// Worker threads per partition leader (default 4; 2 under
    /// [`ClusterBuilder::fast_local`]).
    pub fn workers_per_partition(mut self, n: usize) -> Self {
        self.workers_per_partition = Some(n);
        self
    }

    /// Force a group-commit scheme instead of the protocol's §6.1.3 pairing.
    pub fn logging(mut self, scheme: LoggingScheme) -> Self {
        self.logging = Some(scheme);
        self
    }

    /// Atomic-commit mode for distributed transactions:
    /// [`CommitMode::TwoPc`] (blocking, the default) or
    /// [`CommitMode::PaxosCommit`] (non-blocking over the replicated log).
    pub fn commit_mode(mut self, mode: CommitMode) -> Self {
        self.commit_mode = mode;
        self
    }

    /// Watermark interval / COCO epoch length in milliseconds (default 20,
    /// the unified size of §6.2; 1 under [`ClusterBuilder::fast_local`]).
    pub fn wal_interval_ms(mut self, ms: u64) -> Self {
        self.wal_interval_ms = Some(ms);
        self
    }

    /// Experiment seed (drives e.g. the network jitter salt): different
    /// seeds sample different jitter, the same seed reproduces a run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.tweaks.push(Box::new(move |c| c.seed = seed));
        self
    }

    /// Log replicas per partition (default 1 — single-copy). With `n > 1` a
    /// log record is durable once a majority quorum of replicas persisted
    /// it, so recovery survives losing the leader's *disk* (see
    /// [`Primo::crash_partition_discarding_log`]), at the cost of the
    /// quorum-ack delay on every commit acknowledgement.
    pub fn replication_factor(mut self, n: usize) -> Self {
        self.tweaks
            .push(Box::new(move |c| c.wal.replication_factor = n.max(1)));
        self
    }

    /// Persist delay of non-leader log replicas, microseconds (default: the
    /// leader's `persist_delay_us`). The one-way network hop is added on
    /// top, so slower replica disks directly stretch the quorum-ack delay.
    pub fn replica_persist_delay_us(mut self, us: u64) -> Self {
        self.tweaks
            .push(Box::new(move |c| c.wal.replica_persist_delay_us = Some(us)));
        self
    }

    /// Bound on each record's MVCC version chain: the newest `n` committed
    /// versions (current + `n - 1` history entries) stay readable by
    /// snapshot transactions; older ones are evicted on install, and a
    /// snapshot that needs one falls back to the protocol. The default (4)
    /// keeps memory flat under write-heavy churn.
    ///
    /// # Panics
    /// Panics on `0` — a record must always retain at least its current
    /// version, so zero would silently disable snapshot reads instead of
    /// expressing a chain bound.
    pub fn max_versions(mut self, n: usize) -> Self {
        assert!(
            n >= 1,
            "version-chain bound must be at least 1 (the current version), got {n}"
        );
        self.tweaks
            .push(Box::new(move |c| c.primo.max_versions = n));
        self
    }

    /// Disable MVCC snapshot reads: declared read-only transactions run
    /// through the concurrency-control protocol like everything else (the
    /// validate-everything baseline of the read-only-scaling figure).
    pub fn without_snapshot_reads(mut self) -> Self {
        self.tweaks
            .push(Box::new(|c| c.primo.read_only_snapshot = false));
        self
    }

    /// Select the protocol by kind (default [`ProtocolKind::Primo`]).
    pub fn protocol(mut self, kind: ProtocolKind) -> Self {
        self.kind = kind;
        self
    }

    /// Use unit-test timing: microsecond-scale network latency and a 1 ms
    /// watermark interval, so transactions complete in milliseconds. Other
    /// knobs are unaffected regardless of call order.
    pub fn fast_local(mut self) -> Self {
        self.fast_local = true;
        self
    }

    /// Escape hatch: arbitrary configuration tweaks, applied last (after
    /// every other knob) in registration order.
    pub fn tweak(mut self, f: impl FnOnce(&mut ClusterConfig) + 'static) -> Self {
        self.tweaks.push(Box::new(f));
        self
    }

    /// The cluster configuration and protocol instance these knobs select:
    /// the only place a [`ClusterConfig`] is assembled.
    pub(crate) fn assemble(self) -> (ClusterConfig, Arc<dyn Protocol>) {
        let paper = ClusterConfig::default();
        let mut config = if self.fast_local {
            ClusterConfig::for_tests(paper.num_partitions)
        } else {
            paper
        };
        config.num_partitions = self.partitions.unwrap_or(config.num_partitions);
        config.workers_per_partition = self
            .workers_per_partition
            .unwrap_or(config.workers_per_partition);
        config.wal.interval_ms = self.wal_interval_ms.unwrap_or(config.wal.interval_ms);
        let (protocol, paired) = protocol_for(self.kind);
        config.wal.scheme = self.logging.unwrap_or(paired);
        config.commit_mode = self.commit_mode;
        for tweak in self.tweaks {
            tweak(&mut config);
        }
        (config, protocol)
    }

    /// Assemble the cluster and return the [`Primo`] handle.
    pub fn build(self) -> Primo {
        let (config, protocol) = self.assemble();
        Primo {
            cluster: Cluster::new(config),
            protocol,
        }
    }
}

/// Handle to a running Primo cluster: one protocol instance plus the
/// simulated partitions, network and group commit.
pub struct Primo {
    cluster: Arc<Cluster>,
    protocol: Arc<dyn Protocol>,
}

impl Primo {
    /// Start building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            partitions: None,
            workers_per_partition: None,
            wal_interval_ms: None,
            fast_local: false,
            kind: ProtocolKind::Primo,
            logging: None,
            commit_mode: CommitMode::TwoPc,
            tweaks: Vec::new(),
        }
    }

    /// Open a session for ad-hoc transactions.
    pub fn session(&self) -> Session<'_> {
        Session { primo: self }
    }

    /// The underlying cluster (for advanced integration).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The protocol this handle runs transactions with.
    pub fn protocol(&self) -> &Arc<dyn Protocol> {
        &self.protocol
    }

    pub fn num_partitions(&self) -> usize {
        self.cluster.num_partitions()
    }

    /// Simulate a crash of a partition leader: remote accesses to it fail,
    /// the group commit agrees on a rollback point (§5.2), the replicated
    /// log hands leadership to the deterministic successor replica and the
    /// crash-time quorum-durable LSN is captured for the eventual recovery.
    pub fn crash_partition(&self, p: PartitionId) {
        self.cluster.crash_partition(p);
    }

    /// [`Primo::crash_partition`], but the dead leader's local log replica
    /// is **discarded** too (disk loss). With
    /// [`ClusterBuilder::replication_factor`] above one the surviving
    /// quorum still reproduces every acknowledged transaction; with a
    /// single-copy log the history is honestly gone.
    pub fn crash_partition_discarding_log(&self, p: PartitionId) {
        self.cluster.crash_partition_discarding_log(p);
    }

    /// Checkpoint every partition: a quiescent base image if none exists
    /// yet, otherwise fold everything foldable right now into the rolling
    /// image and drain it from the log. Call once after loading data through
    /// [`Session::load`] so a later crash can rebuild it; afterwards the
    /// logs bound themselves from the commit path, so calling it again is
    /// only ever an optimisation (a shorter replay).
    pub fn checkpoint_all(&self) -> Vec<primo_recovery::CheckpointStats> {
        self.cluster.checkpoint_all()
    }

    /// Bring a crashed partition back: a replacement leader wipes the
    /// volatile store and rebuilds it from the latest durable checkpoint
    /// plus durable-log replay, bounded per group-commit scheme. The
    /// partition stays unreachable until the replay finishes. Returns the
    /// [`RecoveryReport`](primo_recovery::RecoveryReport), or `None` if the
    /// partition was not crashed through [`Primo::crash_partition`].
    pub fn recover_partition(&self, p: PartitionId) -> Option<primo_recovery::RecoveryReport> {
        self.cluster.recover_partition(p)
    }

    /// Stop background threads. The handle must not be used afterwards.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}

impl std::fmt::Debug for Primo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Primo")
            .field("partitions", &self.cluster.num_partitions())
            .field("protocol", &self.protocol.name())
            .finish()
    }
}

/// A session on a [`Primo`] handle: load data, read committed state and run
/// transactions to completion. A transaction runs as the one client of a
/// worker driven on the calling thread, under the rules of the benchmark's
/// workers: retryable aborts are retried with back-off, and the call returns
/// once the group commit has released the result.
pub struct Session<'a> {
    primo: &'a Primo,
}

impl Session<'_> {
    /// Load a record directly (outside any transaction) — initial population.
    pub fn load(&self, partition: PartitionId, table: TableId, key: Key, value: Value) {
        self.primo
            .cluster
            .partition(partition)
            .store
            .insert(table, key, value);
    }

    /// Read the latest committed value of a record (outside any transaction).
    pub fn get(&self, partition: PartitionId, table: TableId, key: Key) -> Option<Value> {
        self.primo
            .cluster
            .partition(partition)
            .store
            .get(table, key)
            .map(|r| r.read().value)
    }

    /// Run a transaction expressed as a closure to completion. Returns the
    /// number of attempts it took, or the abort reason if the transaction
    /// rolled back permanently (a user abort, the attempts used up, or
    /// `RemoteUnavailable` when its home partition crashed).
    pub fn transaction<F>(&self, home: PartitionId, body: F) -> Result<usize, AbortReason>
    where
        F: Fn(&mut dyn TxnContext) -> TxnResult<()> + Send + Sync,
    {
        self.run_program(&ClosureProgram::new(home, body))
    }

    /// Run a pre-built [`TxnProgram`] to completion.
    pub fn run_program(&self, program: &dyn TxnProgram) -> Result<usize, AbortReason> {
        run_session_txn(&self.primo.cluster, self.primo.protocol.as_ref(), program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::TxnError;

    const T: TableId = TableId(0);

    fn fast(n: usize) -> Primo {
        Primo::builder().partitions(n).fast_local().build()
    }

    #[test]
    fn default_builder_builds_primo_on_watermark() {
        let primo = Primo::builder().fast_local().build();
        assert_eq!(primo.protocol().name(), "Primo");
        assert_eq!(primo.num_partitions(), 4);
        assert_eq!(primo.cluster().config.wal.scheme, LoggingScheme::Watermark);
        primo.shutdown();
    }

    #[test]
    fn builder_pairs_baselines_with_coco() {
        let primo = Primo::builder()
            .partitions(2)
            .protocol(ProtocolKind::Sundial)
            .fast_local()
            .build();
        assert_eq!(primo.protocol().name(), "Sundial");
        assert_eq!(primo.cluster().config.wal.scheme, LoggingScheme::CocoEpoch);
        primo.shutdown();
    }

    #[test]
    fn commit_mode_knob_reaches_the_cluster() {
        let primo = Primo::builder()
            .partitions(2)
            .fast_local()
            .commit_mode(CommitMode::PaxosCommit)
            .build();
        assert_eq!(primo.cluster().atomic_commit().label(), "PaxosCommit");
        primo.shutdown();
        // Default stays the blocking baseline.
        let primo = Primo::builder().partitions(1).fast_local().build();
        assert_eq!(primo.cluster().atomic_commit().label(), "2PC");
        primo.shutdown();
    }

    #[test]
    #[should_panic(expected = "version-chain bound must be at least 1")]
    fn max_versions_rejects_zero() {
        let _ = Primo::builder().max_versions(0);
    }

    #[test]
    fn max_versions_reaches_the_cluster_config() {
        let primo = Primo::builder()
            .partitions(1)
            .fast_local()
            .max_versions(9)
            .build();
        assert_eq!(primo.cluster().config.primo.max_versions, 9);
        primo.shutdown();
    }

    #[test]
    fn without_snapshot_reads_disables_the_mvcc_path() {
        let primo = Primo::builder()
            .partitions(1)
            .fast_local()
            .without_snapshot_reads()
            .build();
        assert!(!primo.cluster().config.primo.read_only_snapshot);
        primo.shutdown();
    }

    #[test]
    fn read_only_closure_commits_through_the_snapshot_path() {
        let primo = fast(2);
        let s = primo.session();
        s.load(PartitionId(0), T, 1, Value::from_u64(41));
        s.load(PartitionId(1), T, 2, Value::from_u64(58));
        let attempts = s
            .run_program(
                &ClosureProgram::new(PartitionId(0), |ctx| {
                    let a = ctx.read(PartitionId(0), T, 1)?.as_u64();
                    let b = ctx.read(PartitionId(1), T, 2)?.as_u64();
                    assert_eq!(a + b, 99);
                    Ok(())
                })
                .read_only(),
            )
            .unwrap();
        assert_eq!(attempts, 1, "a snapshot read never retries");
        primo.shutdown();
    }

    #[test]
    fn transfer_between_partitions_is_atomic() {
        let primo = fast(2);
        let s = primo.session();
        s.load(PartitionId(0), T, 1, Value::from_u64(100));
        s.load(PartitionId(1), T, 2, Value::from_u64(100));
        s.transaction(PartitionId(0), |ctx| {
            let a = ctx.read(PartitionId(0), T, 1)?.as_u64();
            let b = ctx.read(PartitionId(1), T, 2)?.as_u64();
            ctx.write(PartitionId(0), T, 1, Value::from_u64(a - 30))?;
            ctx.write(PartitionId(1), T, 2, Value::from_u64(b + 30))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(s.get(PartitionId(0), T, 1).unwrap().as_u64(), 70);
        assert_eq!(s.get(PartitionId(1), T, 2).unwrap().as_u64(), 130);
        primo.shutdown();
    }

    #[test]
    fn user_rollback_has_no_effect() {
        let primo = fast(1);
        let s = primo.session();
        s.load(PartitionId(0), T, 1, Value::from_u64(5));
        let err = s
            .transaction(PartitionId(0), |ctx| {
                ctx.write(PartitionId(0), T, 1, Value::from_u64(999))?;
                Err(TxnError::Aborted(AbortReason::UserAbort))
            })
            .unwrap_err();
        assert_eq!(err, AbortReason::UserAbort);
        assert_eq!(s.get(PartitionId(0), T, 1).unwrap().as_u64(), 5);
        primo.shutdown();
    }

    #[test]
    fn branching_on_query_results_works() {
        // The "general workload" the paper motivates: the write target depends
        // on what was read.
        let primo = fast(2);
        let s = primo.session();
        s.load(PartitionId(0), T, 1, Value::from_u64(7)); // odd -> write key 100
        s.load(PartitionId(1), T, 100, Value::from_u64(0));
        s.load(PartitionId(1), T, 200, Value::from_u64(0));
        s.transaction(PartitionId(0), |ctx| {
            let v = ctx.read(PartitionId(0), T, 1)?.as_u64();
            let target = if v % 2 == 1 { 100 } else { 200 };
            ctx.write(PartitionId(1), T, target, Value::from_u64(v))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(s.get(PartitionId(1), T, 100).unwrap().as_u64(), 7);
        assert_eq!(s.get(PartitionId(1), T, 200).unwrap().as_u64(), 0);
        primo.shutdown();
    }

    #[test]
    fn get_of_missing_key_is_none() {
        let primo = fast(1);
        assert!(primo.session().get(PartitionId(0), T, 404).is_none());
        primo.shutdown();
    }

    #[test]
    fn replication_factor_reaches_the_partition_logs() {
        let primo = Primo::builder()
            .partitions(1)
            .fast_local()
            .replication_factor(3)
            .replica_persist_delay_us(75)
            .build();
        let log = &primo.cluster().partition(PartitionId(0)).log;
        assert_eq!(log.replication_factor(), 3);
        assert_eq!(log.quorum(), 2);
        // Quorum ack = replication hop (5us in fast_local) + replica disk.
        assert_eq!(log.quorum_ack_delay_us(), 80);
        primo.shutdown();
    }

    #[test]
    fn crash_and_recover_round_trip() {
        let primo = fast(2);
        let s = primo.session();
        s.load(PartitionId(1), T, 9, Value::from_u64(1));
        // Recovery wipes the volatile store for real: without this base
        // checkpoint the loaded record would be unrecoverable.
        primo.checkpoint_all();
        std::thread::sleep(std::time::Duration::from_millis(5));
        primo.crash_partition(PartitionId(1));
        assert!(primo.cluster().net.is_crashed(PartitionId(1)));
        let report = primo
            .recover_partition(PartitionId(1))
            .expect("recovery ran");
        assert_eq!(report.restored_records, 1);
        assert!(!primo.cluster().net.is_crashed(PartitionId(1)));
        // The cluster keeps working after recovery and the record is back.
        s.transaction(PartitionId(0), |ctx| {
            ctx.read(PartitionId(1), T, 9).map(|_| ())
        })
        .unwrap();
        assert_eq!(s.get(PartitionId(1), T, 9).unwrap().as_u64(), 1);
        primo.shutdown();
    }
}
