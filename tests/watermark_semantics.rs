//! Integration tests of the watermark-based group commit's three guarantees
//! (§5: monotonicity, durability, consistency) — the scheme-level properties
//! through the namespaced `wal` module, the end-to-end behaviour through the
//! `Primo` facade.

use primo_repro::common::config::{LoggingScheme, WalConfig};
use primo_repro::net::DelayedBus;
use primo_repro::wal::{CommitOutcome, GroupCommit, WatermarkCommit};
use primo_repro::{FlightRecorder, PartitionId, Primo, TableId, TxnId, Value};
use std::sync::Arc;
use std::time::Duration;

fn wm(n: usize, interval_ms: u64) -> WatermarkCommit {
    let bus = DelayedBus::new(n, 50);
    let cfg = WalConfig {
        scheme: LoggingScheme::Watermark,
        interval_ms,
        persist_delay_us: 100,
        force_update: true,
        ..WalConfig::default()
    };
    let logs = primo_repro::wal::build_logs(n, cfg);
    WatermarkCommit::new(n, cfg, bus, logs, Arc::new(FlightRecorder::new(false, 64)))
}

#[test]
fn global_watermark_is_monotonic_on_every_partition() {
    let wm = wm(3, 1);
    let mut last = [0u64; 3];
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(3));
        for (p, seen) in last.iter_mut().enumerate() {
            let g = wm.global_watermark(PartitionId(p as u32));
            assert!(g >= *seen, "global watermark went backwards on P{p}");
            *seen = g;
        }
    }
    assert!(last.iter().all(|g| *g > 0), "watermark never advanced");
    wm.shutdown();
}

#[test]
fn global_watermark_never_exceeds_any_partition_watermark_seen() {
    let wm = wm(3, 1);
    std::thread::sleep(Duration::from_millis(40));
    for p in 0..3u32 {
        let g = wm.global_watermark(PartitionId(p));
        for q in 0..3u32 {
            // The published watermark of q can only be >= what p has seen.
            assert!(wm.partition_watermark(PartitionId(q)) + 1 >= g.min(1));
        }
        assert!(g <= wm.partition_watermark(PartitionId(p)) + 1_000_000);
    }
    wm.shutdown();
}

#[test]
fn transactions_below_recovered_watermark_stay_committed() {
    let wm = wm(2, 1);
    // Commit a transaction and wait until it is durable.
    let t1 = TxnId::new(PartitionId(0), 1);
    let ticket = wm.begin_txn(PartitionId(0), t1);
    wm.update_ts(&ticket, 2);
    let waiter = wm.txn_committed(&ticket, 2, 1);
    assert_eq!(wm.wait_durable(&waiter), CommitOutcome::Committed);
    // A crash afterwards must not un-commit it: the agreed watermark is at
    // least as large as any watermark used to report results.
    let agreed = wm.on_partition_crash(PartitionId(1));
    assert!(
        agreed >= 2,
        "agreed watermark {agreed} would roll back a reported result"
    );
    wm.shutdown();
}

#[test]
fn committed_effects_survive_a_crash_of_another_partition() {
    // End-to-end through the facade: run a distributed transaction, let it
    // become durable, crash the other partition, recover, and check both
    // partitions still show the transaction's effects.
    let primo = Primo::builder().partitions(2).fast_local().build();
    let session = primo.session();
    for p in 0..2u32 {
        session.load(PartitionId(p), TableId(0), 1, Value::from_u64(0));
    }
    let increment = |session: &primo_repro::Session<'_>| {
        session
            .transaction(PartitionId(0), |ctx| {
                for p in 0..2u32 {
                    let v = ctx.read(PartitionId(p), TableId(0), 1)?.as_u64();
                    ctx.write(PartitionId(p), TableId(0), 1, Value::from_u64(v + 1))?;
                }
                Ok(())
            })
            .unwrap();
    };
    increment(&session);

    primo.crash_partition(PartitionId(1));
    primo.recover_partition(PartitionId(1));

    for p in 0..2u32 {
        assert_eq!(
            session.get(PartitionId(p), TableId(0), 1).unwrap().as_u64(),
            1,
            "durable effect lost on P{p}"
        );
    }
    // And the cluster keeps working after recovery.
    increment(&session);
    for p in 0..2u32 {
        assert_eq!(
            session.get(PartitionId(p), TableId(0), 1).unwrap().as_u64(),
            2
        );
    }
    primo.shutdown();
}

#[test]
fn ts_floor_prevents_new_transactions_below_the_watermark() {
    let wm = wm(2, 1);
    std::thread::sleep(Duration::from_millis(30));
    let floor = wm.ts_floor(PartitionId(0));
    assert!(floor > 0);
    // A transaction whose coordinator respects the floor commits above it and
    // therefore waits for a later watermark — never below an already
    // published one.
    let t = TxnId::new(PartitionId(0), 99);
    let ticket = wm.begin_txn(PartitionId(0), t);
    let ts = floor + 1;
    wm.update_ts(&ticket, ts);
    let waiter = wm.txn_committed(&ticket, ts, 1);
    assert_eq!(wm.wait_durable(&waiter), CommitOutcome::Committed);
    assert!(
        wm.global_watermark(PartitionId(0)) > ts || wm.partition_watermark(PartitionId(0)) > ts
    );
    wm.shutdown();
}
