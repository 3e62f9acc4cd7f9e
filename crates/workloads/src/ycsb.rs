//! YCSB (Cooper et al., SoCC '10) as configured in the paper (§6.1.2):
//! each transaction performs 10 key accesses drawn from a Zipf distribution;
//! by default 5 are reads and 5 are read-modify-writes, the skew is 0.6,
//! each partition holds 1 M keys and 20 % of transactions are distributed.
//! The figure harnesses sweep skew, distributed ratio, write ratio and
//! blind-write ratio through this configuration.

use primo_common::{FastRng, Key, PartitionId, TableId, TxnResult, Value, ZipfGen};
use primo_runtime::txn::{TxnContext, TxnProgram, Workload};
use primo_storage::PartitionStore;
use std::sync::atomic::{AtomicU64, Ordering};

/// The single YCSB table.
pub const YCSB_TABLE: TableId = TableId(0);

/// How many churn inserts stay live before the matching delete is issued:
/// churn op `c` inserts key `base + c` and deletes key `base + c - WINDOW`,
/// so the churn keyspace holds a rolling window of records whose tombstones
/// are continuously created and reclaimed.
///
/// The window is sized so that, at the default 10 ops/txn and full churn
/// ratio, it spans ~25 transactions — comfortably more than the number of
/// workers that can have churn transactions in flight on one partition.
/// Generation order is not commit order, so a delete whose matching insert
/// is still executing (or aborted permanently) surfaces as a `NotFound`
/// abandonment; the wide window makes that the rare tail, not the norm.
pub const CHURN_WINDOW: u64 = 256;

/// YCSB workload parameters.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    pub num_partitions: usize,
    /// Records per partition (paper: 1 M; scale down for quick runs).
    pub keys_per_partition: u64,
    /// Operations per transaction (paper: 10).
    pub ops_per_txn: usize,
    /// Fraction of the operations that are plain reads; the rest are
    /// read-modify-writes (or blind writes, see `blind_write_ratio`).
    pub read_ratio: f64,
    /// Zipf skew (paper default 0.6; Fig 6 sweeps 0–0.99).
    pub zipf_theta: f64,
    /// Fraction of transactions that access a remote partition (paper: 20 %).
    pub distributed_ratio: f64,
    /// Fraction of write operations that are blind writes (Fig 9).
    pub blind_write_ratio: f64,
    /// Fraction of operations that are insert/delete churn: each such op
    /// inserts a fresh key in a dedicated churn keyspace (above the loaded
    /// keys) and deletes the key inserted [`CHURN_WINDOW`] churn ops earlier
    /// on the same partition, exercising record creation, tombstoning and
    /// table-shard reclamation under every protocol. Disabled by default.
    pub insert_delete_ratio: f64,
    /// Probability that each individual operation of a distributed
    /// transaction goes to the remote partition.
    pub remote_op_ratio: f64,
    /// Payload size in bytes.
    pub value_size: usize,
}

impl YcsbConfig {
    /// The paper's default setting, scaled to `keys_per_partition` records.
    pub fn paper_default(num_partitions: usize, keys_per_partition: u64) -> Self {
        YcsbConfig {
            num_partitions,
            keys_per_partition,
            ops_per_txn: 10,
            read_ratio: 0.5,
            zipf_theta: 0.6,
            distributed_ratio: 0.2,
            blind_write_ratio: 0.0,
            insert_delete_ratio: 0.0,
            remote_op_ratio: 0.3,
            value_size: 100,
        }
    }

    /// A small configuration for unit/integration tests.
    pub fn small(num_partitions: usize) -> Self {
        YcsbConfig {
            keys_per_partition: 1_000,
            value_size: 16,
            ..Self::paper_default(num_partitions, 1_000)
        }
    }
}

/// One YCSB operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbOpKind {
    Read,
    ReadModifyWrite,
    BlindWrite,
    /// Create a fresh record in the churn keyspace.
    Insert,
    /// Remove a churn record inserted [`CHURN_WINDOW`] churn ops earlier.
    Delete,
}

#[derive(Debug, Clone, Copy)]
pub struct YcsbOp {
    pub partition: PartitionId,
    pub key: Key,
    pub kind: YcsbOpKind,
}

/// A YCSB transaction: a pre-drawn list of operations (keys are drawn by the
/// generator, but the *values* written depend on the values read, so the
/// engine still cannot predict the write-set contents).
#[derive(Debug, Clone)]
pub struct YcsbTxn {
    pub home: PartitionId,
    pub ops: Vec<YcsbOp>,
    pub value_size: usize,
    pub read_ratio: f64,
}

impl TxnProgram for YcsbTxn {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        for op in &self.ops {
            match op.kind {
                YcsbOpKind::Read => {
                    ctx.read(op.partition, YCSB_TABLE, op.key)?;
                }
                YcsbOpKind::ReadModifyWrite => {
                    let v = ctx.read(op.partition, YCSB_TABLE, op.key)?;
                    let len = self.value_size.max(8);
                    let kept = &v.as_bytes()[..v.len().min(len)];
                    let bumped = Value::build(len, |bytes| {
                        bytes[..kept.len()].copy_from_slice(kept);
                        let counter = u64::from_le_bytes(bytes[..8].try_into().unwrap()) + 1;
                        bytes[..8].copy_from_slice(&counter.to_le_bytes());
                    });
                    ctx.write(op.partition, YCSB_TABLE, op.key, bumped)?;
                }
                YcsbOpKind::BlindWrite => {
                    ctx.write(
                        op.partition,
                        YCSB_TABLE,
                        op.key,
                        Value::zeroed(self.value_size),
                    )?;
                }
                YcsbOpKind::Insert => {
                    ctx.insert(
                        op.partition,
                        YCSB_TABLE,
                        op.key,
                        Value::zeroed(self.value_size),
                    )?;
                }
                YcsbOpKind::Delete => {
                    // The matching insert ran CHURN_WINDOW churn ops ago; if
                    // that transaction never committed the delete aborts
                    // NotFound, which the abort breakdown surfaces.
                    ctx.delete(op.partition, YCSB_TABLE, op.key)?;
                }
            }
        }
        Ok(())
    }

    fn home_partition(&self) -> PartitionId {
        self.home
    }

    fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
        // YCSB's key list is drawn up front, so the whole access set is a
        // static footprint: reads and read-modify-writes alike can be served
        // from one batched fan-out per remote partition. (Churn inserts and
        // deletes ride on the home partition and are dropped by the
        // footprint's home filter.)
        self.ops
            .iter()
            .map(|o| (o.partition, YCSB_TABLE, o.key))
            .collect()
    }

    fn is_read_only(&self) -> bool {
        self.ops.iter().all(|o| o.kind == YcsbOpKind::Read)
    }

    fn read_fraction_hint(&self) -> f64 {
        self.read_ratio
    }

    fn label(&self) -> &'static str {
        "ycsb"
    }
}

/// The YCSB workload generator.
#[derive(Debug)]
pub struct YcsbWorkload {
    cfg: YcsbConfig,
    zipf: ZipfGen,
    /// Per-partition churn-op counters: churn keys live at
    /// `keys_per_partition + c` in each home partition's table.
    churn: Vec<AtomicU64>,
}

impl YcsbWorkload {
    pub fn new(cfg: YcsbConfig) -> Self {
        let zipf = ZipfGen::new(cfg.keys_per_partition, cfg.zipf_theta);
        let churn = (0..cfg.num_partitions).map(|_| AtomicU64::new(0)).collect();
        YcsbWorkload { cfg, zipf, churn }
    }

    pub fn config(&self) -> &YcsbConfig {
        &self.cfg
    }

    /// The first key of `home`'s churn keyspace (above the loaded keys).
    pub fn churn_base(&self) -> Key {
        self.cfg.keys_per_partition
    }

    /// Generate the operation list of one transaction.
    fn generate_ops(&self, rng: &mut FastRng, home: PartitionId) -> Vec<YcsbOp> {
        let distributed = self.cfg.num_partitions > 1 && rng.flip(self.cfg.distributed_ratio);
        let remote_partition = if distributed {
            let mut p = rng.next_below(self.cfg.num_partitions as u64) as u32;
            while p == home.0 {
                p = rng.next_below(self.cfg.num_partitions as u64) as u32;
            }
            Some(PartitionId(p))
        } else {
            None
        };
        let mut ops = Vec::with_capacity(self.cfg.ops_per_txn);
        let mut any_remote = false;
        for i in 0..self.cfg.ops_per_txn {
            // Insert/delete churn rides on the home partition so a delete
            // always targets the partition its insert ran on.
            if self.cfg.insert_delete_ratio > 0.0 && rng.flip(self.cfg.insert_delete_ratio) {
                let c = self.churn[home.idx()].fetch_add(1, Ordering::Relaxed);
                ops.push(YcsbOp {
                    partition: home,
                    key: self.churn_base() + c,
                    kind: YcsbOpKind::Insert,
                });
                if c >= CHURN_WINDOW {
                    ops.push(YcsbOp {
                        partition: home,
                        key: self.churn_base() + c - CHURN_WINDOW,
                        kind: YcsbOpKind::Delete,
                    });
                }
                continue;
            }
            let partition = match remote_partition {
                // Make sure a "distributed" transaction really has at least
                // one remote access (force the last op remote if needed).
                Some(rp)
                    if rng.flip(self.cfg.remote_op_ratio)
                        || (i + 1 == self.cfg.ops_per_txn && !any_remote) =>
                {
                    any_remote = true;
                    rp
                }
                _ => home,
            };
            let key = self.zipf.sample(rng);
            let kind = if rng.flip(self.cfg.read_ratio) {
                YcsbOpKind::Read
            } else if rng.flip(self.cfg.blind_write_ratio) {
                YcsbOpKind::BlindWrite
            } else {
                YcsbOpKind::ReadModifyWrite
            };
            ops.push(YcsbOp {
                partition,
                key,
                kind,
            });
        }
        ops
    }
}

impl Workload for YcsbWorkload {
    fn name(&self) -> &'static str {
        "YCSB"
    }

    fn load_partition(&self, store: &PartitionStore, _partition: PartitionId) {
        let table = store.table(YCSB_TABLE);
        for k in 0..self.cfg.keys_per_partition {
            table.insert(k, Value::zeroed(self.cfg.value_size));
        }
    }

    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        Box::new(YcsbTxn {
            home,
            ops: self.generate_ops(rng, home),
            value_size: self.cfg.value_size,
            read_ratio: self.cfg.read_ratio,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_many(cfg: YcsbConfig, n: usize) -> Vec<YcsbTxn> {
        let w = YcsbWorkload::new(cfg);
        let mut rng = FastRng::new(7);
        (0..n)
            .map(|_| YcsbTxn {
                home: PartitionId(0),
                ops: w.generate_ops(&mut rng, PartitionId(0)),
                value_size: 8,
                read_ratio: w.cfg.read_ratio,
            })
            .collect()
    }

    #[test]
    fn default_mix_is_half_reads() {
        let txns = gen_many(YcsbConfig::paper_default(4, 10_000), 500);
        let mut reads = 0usize;
        let mut total = 0usize;
        for t in &txns {
            assert_eq!(t.ops.len(), 10);
            reads += t.ops.iter().filter(|o| o.kind == YcsbOpKind::Read).count();
            total += t.ops.len();
        }
        let ratio = reads as f64 / total as f64;
        assert!((0.42..0.58).contains(&ratio), "read ratio {ratio}");
    }

    #[test]
    fn distributed_ratio_is_respected() {
        let txns = gen_many(YcsbConfig::paper_default(4, 10_000), 1_000);
        let dist = txns
            .iter()
            .filter(|t| t.ops.iter().any(|o| o.partition != t.home))
            .count();
        let ratio = dist as f64 / txns.len() as f64;
        assert!((0.12..0.30).contains(&ratio), "distributed ratio {ratio}");
    }

    #[test]
    fn all_distributed_when_ratio_is_one() {
        let mut cfg = YcsbConfig::paper_default(4, 1_000);
        cfg.distributed_ratio = 1.0;
        let txns = gen_many(cfg, 200);
        assert!(txns
            .iter()
            .all(|t| t.ops.iter().any(|o| o.partition != t.home)));
    }

    #[test]
    fn blind_writes_replace_rmws() {
        let mut cfg = YcsbConfig::paper_default(2, 1_000);
        cfg.blind_write_ratio = 1.0;
        let txns = gen_many(cfg, 100);
        assert!(txns
            .iter()
            .all(|t| t.ops.iter().all(|o| o.kind != YcsbOpKind::ReadModifyWrite)));
    }

    #[test]
    fn churn_mix_inserts_then_deletes_with_a_window() {
        let mut cfg = YcsbConfig::small(2);
        cfg.insert_delete_ratio = 1.0;
        let w = YcsbWorkload::new(cfg.clone());
        let mut rng = FastRng::new(13);
        let mut inserted = Vec::new();
        let mut deleted = Vec::new();
        for _ in 0..80 {
            for op in w.generate_ops(&mut rng, PartitionId(0)) {
                assert_eq!(op.partition, PartitionId(0), "churn stays on home");
                assert!(op.key >= cfg.keys_per_partition, "churn keyspace only");
                match op.kind {
                    YcsbOpKind::Insert => inserted.push(op.key),
                    YcsbOpKind::Delete => deleted.push(op.key),
                    other => panic!("unexpected op kind {other:?}"),
                }
            }
        }
        assert!(inserted.len() > CHURN_WINDOW as usize);
        assert!(!deleted.is_empty(), "the window must eventually fill");
        // Every delete targets a key some earlier op inserted, exactly
        // CHURN_WINDOW churn ops later.
        for (i, d) in deleted.iter().enumerate() {
            assert_eq!(*d, inserted[i]);
            assert_eq!(inserted[i + CHURN_WINDOW as usize], d + CHURN_WINDOW);
        }
        // Counters are per partition: another home starts its own sequence.
        let first_p1 = w
            .generate_ops(&mut rng, PartitionId(1))
            .first()
            .copied()
            .unwrap();
        assert_eq!(first_p1.key, cfg.keys_per_partition);
    }

    #[test]
    fn churn_is_off_by_default() {
        let txns = gen_many(YcsbConfig::paper_default(2, 1_000), 200);
        assert!(txns.iter().all(|t| t
            .ops
            .iter()
            .all(|o| !matches!(o.kind, YcsbOpKind::Insert | YcsbOpKind::Delete))));
    }

    #[test]
    fn keys_stay_in_domain_and_zipf_concentrates() {
        let cfg = YcsbConfig {
            zipf_theta: 0.9,
            ..YcsbConfig::paper_default(2, 1_000)
        };
        let txns = gen_many(cfg, 500);
        let mut hot = 0usize;
        let mut total = 0usize;
        for t in &txns {
            for o in &t.ops {
                assert!(o.key < 1_000);
                if o.key < 10 {
                    hot += 1;
                }
                total += 1;
            }
        }
        assert!(hot as f64 / total as f64 > 0.2, "zipf not skewed enough");
    }

    #[test]
    fn ycsb_program_runs_against_a_map_context() {
        use std::collections::HashMap;
        struct MapCtx(HashMap<(u32, u64), Value>);
        impl TxnContext for MapCtx {
            fn read(&mut self, p: PartitionId, _t: TableId, k: Key) -> TxnResult<Value> {
                Ok(self
                    .0
                    .get(&(p.0, k))
                    .cloned()
                    .unwrap_or_else(|| Value::zeroed(8)))
            }
            fn write(&mut self, p: PartitionId, _t: TableId, k: Key, v: Value) -> TxnResult<()> {
                self.0.insert((p.0, k), v);
                Ok(())
            }
            fn insert(&mut self, p: PartitionId, t: TableId, k: Key, v: Value) -> TxnResult<()> {
                self.write(p, t, k, v)
            }
            fn delete(&mut self, p: PartitionId, _t: TableId, k: Key) -> TxnResult<()> {
                self.0.remove(&(p.0, k));
                Ok(())
            }
        }
        let w = YcsbWorkload::new(YcsbConfig::small(2));
        let mut rng = FastRng::new(3);
        let prog = w.generate(&mut rng, PartitionId(0));
        let mut ctx = MapCtx(HashMap::new());
        prog.execute(&mut ctx).unwrap();
        assert!(!prog.is_read_only() || ctx.0.is_empty());
    }

    #[test]
    fn read_only_detection() {
        let txn = YcsbTxn {
            home: PartitionId(0),
            ops: vec![YcsbOp {
                partition: PartitionId(0),
                key: 1,
                kind: YcsbOpKind::Read,
            }],
            value_size: 8,
            read_ratio: 1.0,
        };
        assert!(txn.is_read_only());
        assert_eq!(txn.read_fraction_hint(), 1.0);
    }
}
