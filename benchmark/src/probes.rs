//! Layer probes: fixed amounts of work through one layer's public functions,
//! timed from outside on a workload's loaded, quiescent cluster.
//!
//! Each probe runs [`PASSES`] passes and reports the fastest: the work is
//! fixed, so the fastest pass is the one the host disturbed least. A probe's
//! number is a layer's standalone cost; the traced run says how often a
//! transaction pays it.

use crate::json::Metric;
use crate::stats::{median, min};
use primo_repro::common::sim_time::charge_latency_us;
use primo_repro::net::{BusMessage, DelayedBus};
use primo_repro::storage::{LockMode, LockPolicy, Record, SnapshotRead, Table};
use primo_repro::wal::{LogPayload, LoggedWrite, ReplicatedLog};
use primo_repro::{
    Checkpointer, FastRng, Footprint, Key, PartitionId, Primo, ReadFanout, TableId, TraceEventKind,
    TxnId, Workload,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PASSES: usize = 5;

/// Operation counts of the probes; `--quick` divides them by 100.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Nanosecond-scale operations per pass (lookups, locks, appends).
    pub fast_ops: usize,
    /// Operations that wait out a simulated delay (round trips, acks).
    pub slow_ops: usize,
    /// Whole transactions and group-commit releases (each ~one interval).
    pub txns: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        fast_ops: 100_000,
        slow_ops: 100,
        txns: 50,
    };
    pub const QUICK: Scale = Scale {
        fast_ops: 1_000,
        slow_ops: 2,
        txns: 2,
    };
}

/// Fastest of [`PASSES`] runs of `pass`, which returns its own measurement.
fn fastest(mut pass: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..PASSES).map(|_| pass()).collect();
    min(&runs)
}

/// Nanoseconds per operation of `ops` calls to `op`.
fn ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..ops {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Keys the workload reads, drawn from its own generator: the static
/// footprints (`read_hint`) of freshly generated transactions. Only keys
/// that exist in the loaded store are kept.
fn workload_keys(
    primo: &Primo,
    workload: &dyn Workload,
    want: usize,
) -> Vec<(PartitionId, TableId, Key)> {
    let mut rng = FastRng::new(1);
    let mut keys = Vec::with_capacity(want);
    // TPC-C's read-only transactions have no static footprint, so allow
    // many more draws than keys wanted.
    for i in 0..want * 4 {
        let home = PartitionId((i % primo.num_partitions()) as u32);
        for (p, t, k) in workload.generate(&mut rng, home).read_hint() {
            if primo.cluster().partition(p).store.get(t, k).is_some() {
                keys.push((p, t, k));
            }
        }
        if keys.len() >= want {
            break;
        }
    }
    assert!(!keys.is_empty(), "the workload declared no existing key");
    keys
}

/// Run every probe. `writes_per_txn` shapes the log records like the
/// workload's write-sets (taken from the traced run).
pub fn run(
    primo: &Primo,
    workload: &dyn Workload,
    writes_per_txn: usize,
    scale: Scale,
) -> Vec<Metric> {
    let cluster = primo.cluster();
    let one_way_us = cluster.config.net.one_way_us;
    let keys = workload_keys(primo, workload, scale.fast_ops);
    let records: Vec<Arc<Record>> = keys
        .iter()
        .map(|(p, t, k)| {
            cluster
                .partition(*p)
                .store
                .get(*t, *k)
                .expect("key was filtered")
        })
        .collect();
    let value = records[0].read().value;
    let mut out = Vec::new();
    let mut metric = |name, value| out.push(Metric::new(name, value));

    // ---- storage ----
    metric(
        "storage.get_ns",
        fastest(|| {
            ns_per_op(keys.len(), |i| {
                let (p, t, k) = keys[i];
                black_box(cluster.partition(p).store.get(t, k));
            })
        }),
    );
    let me = TxnId::new(PartitionId(0), 1);
    metric(
        "storage.lock_cycle_ns",
        fastest(|| {
            ns_per_op(records.len(), |i| {
                black_box(records[i].acquire(me, LockMode::Exclusive, LockPolicy::NoWait));
                records[i].release(me);
            })
        }),
    );
    // A scratch record whose chain is kept full, so every install evicts
    // the oldest version as the steady state does.
    let scratch = Record::new(value.clone());
    let mut ts = 1u64;
    for _ in 0..cluster.config.primo.max_versions {
        scratch.install(value.clone(), ts);
        ts += 1;
    }
    metric(
        "storage.install_ns",
        fastest(|| {
            ns_per_op(scale.fast_ops, |_| {
                scratch.install(black_box(value.clone()), ts);
                ts += 1;
            })
        }),
    );
    // The oldest retained version: the snapshot read walks the whole chain.
    let oldest = ts - cluster.config.primo.max_versions as u64;
    assert!(matches!(scratch.read_at(oldest), SnapshotRead::Value(_)));
    metric(
        "storage.read_at_ns",
        fastest(|| ns_per_op(scale.fast_ops, |_| drop(black_box(scratch.read_at(oldest))))),
    );
    metric(
        "storage.insert_ns",
        fastest(|| {
            let table = Table::with_max_versions(cluster.config.primo.max_versions);
            ns_per_op(scale.fast_ops, |i| {
                black_box(table.insert(i as Key, value.clone()));
            })
        }),
    );

    // ---- wal ----
    let payloads = |n: usize, salt: u64| -> Vec<LogPayload> {
        (0..n as u64)
            .map(|i| LogPayload::TxnWrites {
                txn: TxnId::new(PartitionId(0), salt + i),
                ts: salt + i,
                writes: (0..writes_per_txn as u64)
                    .map(|w| LoggedWrite::put(TableId(0), i * 16 + w, value.clone()))
                    .collect(),
            })
            .collect()
    };
    let scratch_log = || {
        Arc::new(ReplicatedLog::new(
            PartitionId(0),
            cluster.config.wal,
            one_way_us,
            None,
        ))
    };
    metric(
        "wal.append_ns",
        fastest(|| {
            let log = scratch_log();
            let mut batch = payloads(scale.fast_ops, 0).into_iter();
            ns_per_op(scale.fast_ops, |_| {
                black_box(log.append(batch.next().expect("one payload per op")));
            })
        }),
    );
    metric(
        "wal.append_2t_ns",
        fastest(|| {
            let log = scratch_log();
            let half = scale.fast_ops / 2;
            let batches = [payloads(half, 0), payloads(half, 1 << 40)];
            let start = Instant::now();
            std::thread::scope(|s| {
                for batch in batches {
                    let log = &log;
                    s.spawn(move || {
                        for payload in batch {
                            black_box(log.append(payload));
                        }
                    });
                }
            });
            start.elapsed().as_nanos() as f64 / (2 * half) as f64
        }),
    );
    metric(
        "wal.quorum_ack_us",
        fastest(|| {
            let log = scratch_log();
            let samples: Vec<f64> = payloads(scale.slow_ops.min(20), 0)
                .into_iter()
                .map(|payload| {
                    let start = Instant::now();
                    let lsn = log.append(payload);
                    while !log.is_durable(lsn) {
                        std::hint::spin_loop();
                    }
                    start.elapsed().as_nanos() as f64 / 1000.0
                })
                .collect();
            median(&samples)
        }),
    );

    // ---- net ----
    let (p0, p1) = (PartitionId(0), PartitionId(1));
    metric(
        "net.round_trip_overhead_us",
        fastest(|| {
            let wall = ns_per_op(scale.slow_ops, |_| {
                black_box(cluster.net.round_trip(p0, p1));
            });
            wall / 1000.0 - 2.0 * one_way_us as f64
        }),
    );
    metric(
        "net.bus_lag_us",
        fastest(|| {
            // A bus of its own: the cluster's is being read by the
            // group-commit agents.
            let bus = DelayedBus::new(2, one_way_us);
            let wall = ns_per_op(scale.slow_ops, |i| {
                bus.send(p0, p1, BusMessage::EpochPrepare { epoch: i as u64 });
                black_box(
                    bus.recv_timeout(p1, Duration::from_secs(1))
                        .expect("delivered"),
                );
            });
            bus.shutdown();
            wall / 1000.0 - one_way_us as f64
        }),
    );
    let remote: Vec<_> = keys
        .iter()
        .filter(|(p, _, _)| *p == p1)
        .take(5)
        .copied()
        .collect();
    let plan = Footprint::from_keys(p0, remote);
    metric(
        "runtime.fanout_overhead_us",
        fastest(|| {
            let wall = ns_per_op(scale.slow_ops, |_| {
                let mut fanout = ReadFanout::empty();
                fanout.resolve(cluster, p0, me, &plan);
                black_box(&fanout);
            });
            wall / 1000.0 - 2.0 * one_way_us as f64
        }),
    );

    // ---- trace ----
    metric(
        "trace.emit_ns",
        fastest(|| {
            ns_per_op(scale.fast_ops, |i| {
                cluster.recorder.emit(
                    Some(me),
                    Some(p0),
                    TraceEventKind::Begin { attempt: i as u32 },
                );
            })
        }),
    );

    // ---- recovery ----
    metric(
        "recovery.checkpoint_ms",
        fastest(|| {
            let log = scratch_log();
            let start = Instant::now();
            black_box(Checkpointer::initial(&cluster.partition(p0).store, &log));
            start.elapsed().as_secs_f64() * 1000.0
        }),
    );

    // ---- facade: whole transactions on the idle cluster ----
    let local = *keys
        .iter()
        .find(|(p, _, _)| *p == p0)
        .expect("a key on partition 0");
    let far = *keys
        .iter()
        .find(|(p, _, _)| *p == p1)
        .expect("a key on partition 1");
    let session = primo.session();
    let unloaded_ms = |touch: &[(PartitionId, TableId, Key)]| {
        let samples: Vec<f64> = (0..scale.txns)
            .map(|_| {
                let start = Instant::now();
                session
                    .transaction(p0, |ctx| {
                        for (p, t, k) in touch {
                            let v = ctx.read(*p, *t, *k)?;
                            ctx.write(*p, *t, *k, v)?;
                        }
                        Ok(())
                    })
                    .expect("an idle cluster commits");
                start.elapsed().as_secs_f64() * 1000.0
            })
            .collect();
        median(&samples)
    };
    let local_ms = unloaded_ms(&[local]);
    let dist_ms = unloaded_ms(&[local, far]);
    metric("facade.unloaded_local_ms", local_ms);
    metric("facade.unloaded_dist_ms", dist_ms);

    // ---- wal: the group-commit scheme itself, last because it leaves
    // unwaited tickets behind ----
    let gc = &cluster.group_commit;
    metric(
        "wal.gc_cycle_ns",
        fastest(|| {
            ns_per_op(scale.fast_ops / 10, |_| {
                let txn = cluster.next_txn_id(p0);
                let ticket = gc.begin_txn(p0, txn);
                let ts = gc.reserve_commit_ts(&ticket, 0);
                let waiter = gc.txn_committed(&ticket, ts, 1);
                black_box(gc.try_outcome(&waiter));
            })
        }),
    );
    let release: Vec<f64> = (0..scale.txns)
        .map(|_| {
            let txn = cluster.next_txn_id(p0);
            let ticket = gc.begin_txn(p0, txn);
            let ts = gc.reserve_commit_ts(&ticket, 0);
            let waiter = gc.txn_committed(&ticket, ts, 1);
            let start = Instant::now();
            black_box(gc.wait_durable(&waiter));
            start.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    metric("wal.release_lag_ms", median(&release));

    out
}

/// How far a 100 µs simulated delay overshoots, percent: the noise canary.
/// The engine charges latency by spinning, so on a quiet host the overshoot
/// is the cost of two clock reads; when something else wants the core it
/// jumps, and every timing in the run is suspect.
pub fn spin_overshoot_pct() -> f64 {
    const CHARGE_US: u64 = 100;
    let wall_ns = ns_per_op(1_000, |_| charge_latency_us(CHARGE_US));
    100.0 * (wall_ns / 1000.0 - CHARGE_US as f64) / CHARGE_US as f64
}

/// Above this overshoot a run is reported as disturbed.
pub const DISTURBED_ABOVE_PCT: f64 = 10.0;
