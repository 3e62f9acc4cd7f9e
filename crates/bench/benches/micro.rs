//! Micro-benchmarks of the building blocks on Primo's critical path: the
//! lock table, TicToc record operations, the Zipf generator, the WAL append
//! path, the checkpoint image's fold step and a small end-to-end
//! single-transaction comparison of Primo against a 2PC baseline (the
//! per-transaction cost that Fig 4 aggregates into throughput).
//!
//! The registry is offline in this environment, so instead of criterion this
//! uses a small built-in harness (`harness = false`): each benchmark is
//! calibrated to run for ~0.2 s and reports ns/op. Run with:
//!
//! ```text
//! cargo bench -p primo-bench
//! ```

use primo_repro::recovery::apply_replay;
use primo_repro::storage::{InsertSlot, LockMode, LockPolicy, PartitionStore, Record, Table};
use primo_repro::wal::{LogPayload, LoggedWrite, ReplayBound, ReplicatedLog};
use primo_repro::{
    ClosureProgram, FastRng, PartitionId, Primo, ProtocolKind, TableId, TxnId, Value, ZipfGen,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Measure `f` with a calibrated iteration count and print ns/op.
fn bench(name: &str, mut f: impl FnMut()) {
    use std::time::{Duration, Instant};
    // Warm-up + calibration: find an iteration count that runs ~0.2 s.
    let mut iters: u64 = 8;
    loop {
        let started = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = started.elapsed();
        if elapsed >= Duration::from_millis(50) || iters >= 1 << 28 {
            let per_op = elapsed.as_nanos() as f64 / iters as f64;
            println!("{name:<40} {per_op:>12.1} ns/op   ({iters} iters)");
            return;
        }
        iters = iters.saturating_mul(4);
    }
}

fn bench_lock_table() {
    let record = Record::new(Value::from_u64(0));
    let txn = primo_repro::TxnId::new(PartitionId(0), 1);
    bench("lock/exclusive_acquire_release", || {
        record.acquire(txn, LockMode::Exclusive, LockPolicy::NoWait);
        record.release(txn);
    });
    bench("lock/shared_acquire_release", || {
        record.acquire(txn, LockMode::Shared, LockPolicy::WaitDie);
        record.release(txn);
    });
}

fn bench_tictoc_record() {
    let record = Record::new(Value::zeroed(100));
    bench("record/read_snapshot", || {
        std::hint::black_box(record.read());
    });
    let mut ts = 1u64;
    bench("record/extend_rts", || {
        ts += 1;
        record.extend_rts(ts);
    });
    let v = Value::zeroed(100);
    let mut ts = 1u64;
    bench("record/install", || {
        ts += 1;
        record.install(v.clone(), ts);
    });
}

fn bench_zipf() {
    let zipf = ZipfGen::new(1_000_000, 0.6);
    let mut rng = FastRng::new(1);
    bench("zipf/sample_theta_0.6", || {
        std::hint::black_box(zipf.sample(&mut rng));
    });
    let uniform = ZipfGen::new(1_000_000, 0.0);
    bench("zipf/sample_uniform", || {
        std::hint::black_box(uniform.sample(&mut rng));
    });
}

fn bench_wal_append() {
    let wal = ReplicatedLog::single(PartitionId(0), 500);
    let mut wp = 0u64;
    bench("wal/append_watermark", || {
        wp += 1;
        wal.append(LogPayload::Watermark { wp });
    });
    let mut seq = 0u64;
    bench("wal/append_txn_writes", || {
        seq += 1;
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), seq),
            ts: seq,
            writes: vec![LoggedWrite::put(
                TableId(0),
                seq % 1_024,
                Value::from_u64(seq),
            )],
        });
    });
}

/// [`ReplicatedLog::append`] pushes into the leader's copy only, at every
/// replication factor; followers catch up from the leader's tail off the
/// commit critical section. The shape it replaced in PR 7 — an append to
/// every replica under the one append lock — is rebuilt here from
/// single-copy logs under one outer lock (each copy takes its own clone of
/// the payload), so the two critical sections race on the same replica
/// count (RF 3, realistic delays) at 1 / 4 / 16 appender threads.
fn bench_contended_append() {
    use std::time::Instant;

    /// The synchronous fan-out: one lock, `RF` copy appends inside it.
    struct OldFanout {
        lock: std::sync::Mutex<()>,
        replicas: Vec<ReplicatedLog>,
    }

    impl OldFanout {
        fn rf3() -> Self {
            OldFanout {
                lock: std::sync::Mutex::new(()),
                replicas: (0..3)
                    .map(|i| ReplicatedLog::single(PartitionId(0), if i == 0 { 100 } else { 700 }))
                    .collect(),
            }
        }

        fn append(&self, payload: LogPayload) -> u64 {
            let _guard = self.lock.lock().unwrap();
            for replica in &self.replicas[1..] {
                replica.append(payload.clone());
            }
            self.replicas[0].append(payload)
        }
    }

    fn pipelined_rf3() -> ReplicatedLog {
        ReplicatedLog::new(
            PartitionId(0),
            primo_repro::WalConfig {
                replication_factor: 3,
                persist_delay_us: 100,
                replica_persist_delay_us: Some(200),
                ..primo_repro::WalConfig::default()
            },
            500,
            None,
        )
    }

    fn payload(seq: u64) -> LogPayload {
        LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), seq),
            ts: seq + 1,
            writes: vec![LoggedWrite::put(
                TableId(0),
                seq % 1_024,
                Value::from_u64(seq),
            )],
        }
    }

    fn contended(name: &str, threads: u64, append: impl Fn(u64) -> u64 + Sync) {
        const TOTAL: u64 = 64_000;
        let per_thread = TOTAL / threads;
        let started = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let append = &append;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        std::hint::black_box(append(t * per_thread + i));
                    }
                });
            }
        });
        let ops = per_thread * threads;
        let per_op = started.elapsed().as_nanos() as f64 / ops as f64;
        println!("{name:<40} {per_op:>12.1} ns/op   ({ops} iters)");
    }

    for threads in [1u64, 4, 16] {
        let old = OldFanout::rf3();
        contended(
            &format!("wal/contended_append_rf3_t{threads}_old"),
            threads,
            |seq| old.append(payload(seq)),
        );
        let new = pipelined_rf3();
        contended(
            &format!("wal/contended_append_rf3_t{threads}_new"),
            threads,
            |seq| new.append(payload(seq)),
        );
    }
}

fn bench_wal_durable_boundary() {
    // Satellite of the replicated-WAL refactor: the durable-boundary
    // lookups (`durable_lsn`, `latest_durable_watermark_at`) used to
    // reverse-scan the log — O(n) per
    // call on the volatile suffix, and the quorum computation calls
    // `durable_lsn` once per replica per query. `appended_at_us` is
    // monotone per log, so the boundary is now a `partition_point` binary
    // search. The naive reverse scan is reproduced here over the same
    // 100k entries for comparison.
    use primo_repro::common::sim_time::now_us;

    const ENTRIES: u64 = 100_000;
    // A huge persist delay keeps the whole log volatile: the worst case for
    // the naive scan (it walks all 100k entries before giving up) and the
    // realistic shape of a hot log right after a burst of appends.
    let wal = ReplicatedLog::single(PartitionId(0), u64::MAX / 4);
    for seq in 0..ENTRIES {
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), seq),
            ts: seq + 1,
            writes: vec![LoggedWrite::put(
                TableId(0),
                seq % 512,
                Value::from_u64(seq),
            )],
        });
    }
    bench("wal/durable_lsn_100k_partition_point", || {
        std::hint::black_box(wal.durable_lsn());
    });
    let entries = wal.entries_from(0);
    let delay = wal.quorum_ack_delay_us();
    bench("wal/durable_lsn_100k_naive_rev_scan", || {
        let now = now_us();
        std::hint::black_box(
            entries
                .iter()
                .rev()
                .find(|e| e.appended_at_us.saturating_add(delay) <= now)
                .map(|e| e.lsn),
        );
    });
    bench("wal/latest_durable_watermark_100k", || {
        std::hint::black_box(wal.latest_durable_watermark());
    });
}

fn bench_log_txn_writes() {
    // The per-commit durability hot path: group a mixed write-set by
    // partition into exactly sized entries (two passes per partition),
    // capture before-images and append one entry per involved partition —
    // measured over a 4-partition write-set, where the passes cost most.
    use primo_repro::runtime::{log_txn_writes, Cluster, WriteEntry};
    use primo_repro::ClusterConfig;

    let cluster = Cluster::new(ClusterConfig::for_tests(4));
    for p in 0..4u32 {
        for k in 0..64u64 {
            cluster
                .partition(PartitionId(p))
                .store
                .insert(TableId(0), k, Value::from_u64(k));
        }
    }
    let writes: Vec<WriteEntry> = (0..16u64)
        .map(|i| {
            WriteEntry::put(
                PartitionId((i % 4) as u32),
                TableId(0),
                i % 64,
                Value::from_u64(i),
            )
        })
        .collect();
    // The commit path holds every written record locked; so does the bench.
    let records: Vec<_> = writes
        .iter()
        .map(|w| cluster.partition(w.partition).store.get(w.table, w.key))
        .collect();
    let terms: Vec<u64> = cluster.log_terms().collect();
    let mut seq = 1_000_000u64;
    bench("durability/log_txn_writes_16w_4p", || {
        seq += 1;
        let txn = TxnId::new(PartitionId(0), seq);
        let records = records.iter().map(Option::as_ref);
        log_txn_writes(&cluster, &terms, txn, seq, &writes, records).expect("no crash");
    });
    cluster.shutdown();
}

fn bench_checkpoint_and_replay() {
    // The recovery subsystem's two hot paths: folding a durable log into a
    // checkpoint image (checkpoint-write throughput) and replaying a durable
    // prefix into a wiped store (replay throughput).
    use primo_repro::wal::CheckpointImage;
    use primo_repro::{Checkpointer, LoggingScheme, WalConfig};

    const TXNS: u64 = 10_000;
    let fill = |wal: &ReplicatedLog| {
        let mut rng = FastRng::new(0x4ECC);
        for seq in 0..TXNS {
            wal.append(LogPayload::TxnWrites {
                txn: TxnId::new(PartitionId(0), seq),
                ts: seq + 1,
                writes: vec![LoggedWrite::put(
                    TableId(0),
                    rng.next_below(4_096),
                    Value::from_u64(seq),
                )],
            });
        }
    };
    let wal = ReplicatedLog::single(PartitionId(0), 0);
    fill(&wal);
    bench("recovery/replay_collect_10k_txns", || {
        std::hint::black_box(wal.replay_range(0, &ReplayBound::Ts(u64::MAX), None));
    });
    let txns = wal.replay_range(0, &ReplayBound::Ts(u64::MAX), None);
    bench("recovery/replay_apply_10k_txns", || {
        let store = PartitionStore::new(PartitionId(0));
        apply_replay(&store, &txns);
        std::hint::black_box(store.total_records());
    });
    // Checkpoint write: fold 10k durable entries over an empty base image.
    // CLV's bound is the durable LSN, so the whole log folds without any
    // background agent threads.
    let cfg = WalConfig {
        scheme: LoggingScheme::Clv,
        persist_delay_us: 0,
        ..Default::default()
    };
    let gc = primo_repro::wal::build_group_commit(
        1,
        cfg,
        primo_repro::net::DelayedBus::new(1, 10),
        primo_repro::wal::build_logs(1, cfg),
        Arc::new(primo_repro::FlightRecorder::new(false, 64)),
    );
    bench("recovery/checkpoint_fold_10k_txns", || {
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        wal.install_base_image(CheckpointImage::default());
        fill(&wal);
        std::hint::black_box(Checkpointer::tick(PartitionId(0), &wal, gc.as_ref()));
    });
    gc.shutdown();
}

fn bench_image_apply() {
    // The fold's inner step: one cold logged write applied to the rolling
    // checkpoint image, at a key drawn over the whole image, into a 10k- and
    // a 1M-record image. A fold costs what it folds only if these two stay
    // close.
    use primo_repro::wal::{CheckpointImage, ImageRecords};
    for (label, records) in [("10k", 10_000u64), ("1m", 1_000_000)] {
        let mut image = CheckpointImage {
            records: ImageRecords::with_capacity(records as usize),
            ..CheckpointImage::default()
        };
        for k in 0..records {
            image
                .records
                .insert((TableId(0), k), (Value::zeroed(100), 1));
        }
        let value = Value::zeroed(100);
        let mut rng = FastRng::new(records);
        let mut ts = 1;
        bench(
            &format!("recovery/image_apply_write_{label}_records"),
            || {
                ts += 1;
                let key = rng.next_below(records);
                image.apply(ts, &[LoggedWrite::put(TableId(0), key, value.clone())]);
            },
        );
    }
}

fn bench_mvcc_versions() {
    // The MVCC hot paths the snapshot-read subsystem adds: pushing a new
    // committed version onto a bounded chain (every install now shifts the
    // prior version into history and may evict the oldest) and resolving a
    // read at a horizon — both at the newest version (the common case: the
    // horizon trails the writers by one interval) and at the oldest retained
    // one (the worst case before fallback).
    let record = Record::with_max_versions(Value::zeroed(100), 4);
    let v = Value::zeroed(100);
    let mut ts = 0u64;
    bench("mvcc/version_push_bounded_4", || {
        ts += 2;
        record.install(v.clone(), ts);
    });
    bench("mvcc/snapshot_lookup_newest", || {
        std::hint::black_box(record.read_at(ts));
    });
    // ts - 6 lands on the oldest of the 4 retained versions (spaced 2 apart).
    let oldest = ts - 6;
    bench("mvcc/snapshot_lookup_oldest_retained", || {
        std::hint::black_box(record.read_at(oldest));
    });

    // End-to-end: a declared read-only two-partition transaction through the
    // snapshot path vs the same program through the protocol.
    let primo = loaded_primo(ProtocolKind::Primo);
    let session = primo.session();
    let mut rng = FastRng::new(7);
    bench("mvcc/read_only_txn_snapshot", || {
        let (a, b) = (rng.next_below(1_000), rng.next_below(1_000));
        let program = ClosureProgram::new(PartitionId(0), move |ctx| {
            ctx.read(PartitionId(0), TableId(0), a)?;
            ctx.read(PartitionId(1), TableId(0), b)?;
            Ok(())
        })
        .read_only();
        session.run_program(&program).unwrap();
    });
    bench("mvcc/read_only_txn_protocol", || {
        let (a, b) = (rng.next_below(1_000), rng.next_below(1_000));
        let program = ClosureProgram::new(PartitionId(0), move |ctx| {
            ctx.read(PartitionId(0), TableId(0), a)?;
            ctx.read(PartitionId(1), TableId(0), b)?;
            Ok(())
        });
        session.run_program(&program).unwrap();
    });
    primo.shutdown();
}

fn bench_insert_delete_churn() {
    // The record-lifecycle hot loop: claim a slot (create or revive), commit
    // the insert, tombstone it, reclaim the tombstone from the table shard —
    // with concurrent readers and a sweeper hammering the same (deliberately
    // few) shards, so the shard-lock serialization is actually exercised.
    let table = Arc::new(Table::with_shards(4));
    for k in 0..1_024u64 {
        table.insert(k, Value::from_u64(k));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut contenders = Vec::new();
    for t in 0..2 {
        let table = Arc::clone(&table);
        let stop = Arc::clone(&stop);
        contenders.push(std::thread::spawn(move || {
            let mut rng = FastRng::new(0xC0_47E0 + t);
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..64 {
                    std::hint::black_box(table.get(rng.next_below(2_048)));
                }
                // A background sweep competes with inline reclaims.
                std::hint::black_box(table.reclaim_tombstones());
            }
        }));
    }
    let mut seq = 0u64;
    bench("table/insert_delete_reclaim_churn", || {
        seq += 1;
        let txn = TxnId::new(PartitionId(0), seq);
        let key = 1_024 + (seq % 1_024);
        let record = match table.insert_slot(key, txn) {
            InsertSlot::Existing(r) | InsertSlot::Created(r) | InsertSlot::Revived(r) => r,
            InsertSlot::Busy => unreachable!("single writer"),
        };
        record.install_next_version(Value::from_u64(seq));
        record.install_tombstone_next_version();
        std::hint::black_box(table.reclaim(key));
    });
    stop.store(true, Ordering::Relaxed);
    for c in contenders {
        c.join().unwrap();
    }
}

fn bench_txn_churn() {
    // End-to-end lifecycle churn through the facade: one transaction inserts
    // a fresh key and deletes the key a previous iteration inserted.
    let primo = loaded_primo(ProtocolKind::Primo);
    let session = primo.session();
    let mut seq = 0u64;
    bench("txn/insert_delete_churn_primo", || {
        seq += 1;
        let insert_key = 10_000 + seq;
        let delete_prev = seq > 1;
        let program = ClosureProgram::new(PartitionId(0), move |ctx| {
            ctx.insert(PartitionId(0), TableId(0), insert_key, Value::from_u64(1))?;
            if delete_prev {
                ctx.delete(PartitionId(0), TableId(0), insert_key - 1)?;
            }
            Ok(())
        });
        session.run_program(&program).unwrap();
    });
    primo.shutdown();
}

fn loaded_primo(kind: ProtocolKind) -> Primo {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(kind)
        .fast_local()
        .build();
    let session = primo.session();
    for p in 0..2u32 {
        for k in 0..1_000u64 {
            session.load(PartitionId(p), TableId(0), k, Value::from_u64(0));
        }
    }
    primo
}

fn bench_single_txn() {
    // Per-transaction cost of a distributed read-modify-write pair under
    // Primo (no 2PC) vs 2PL+2PC — the microscopic version of Fig 4a.
    for (name, kind) in [
        ("distributed_txn/primo_wcf", ProtocolKind::Primo),
        ("distributed_txn/twopl_2pc", ProtocolKind::TwoPlNoWait),
    ] {
        let primo = loaded_primo(kind);
        let session = primo.session();
        let mut rng = FastRng::new(3);
        bench(name, || {
            let (a, b) = (rng.next_below(1_000), rng.next_below(1_000));
            let program = ClosureProgram::new(PartitionId(0), move |ctx| {
                for (p, k) in [(PartitionId(0), a), (PartitionId(1), b)] {
                    let v = ctx.read(p, TableId(0), k)?.as_u64();
                    ctx.write(p, TableId(0), k, Value::from_u64(v + 1))?;
                }
                Ok(())
            });
            session.run_program(&program).unwrap();
        });
        primo.shutdown();
    }
}

fn main() {
    println!("primo micro-benchmarks (ns/op, built-in harness)");
    bench_lock_table();
    bench_tictoc_record();
    bench_zipf();
    bench_wal_append();
    bench_contended_append();
    bench_wal_durable_boundary();
    bench_log_txn_writes();
    bench_checkpoint_and_replay();
    bench_image_apply();
    bench_mvcc_versions();
    bench_insert_delete_churn();
    bench_single_txn();
    bench_txn_churn();
}
