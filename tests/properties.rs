//! Randomized property tests over the core data structures and protocol
//! invariants.
//!
//! The offline build environment has no proptest, so these are seeded
//! exhaustive/randomized loops over the same properties: each case draws its
//! inputs from a deterministic [`FastRng`] stream, so failures reproduce
//! exactly.

use primo_repro::storage::{LockMode, LockPolicy, LockRequestResult, Record};
use primo_repro::wal::{LogPayload, LoggedWrite, ReplicatedLog};
use primo_repro::{FastRng, PartitionId, Primo, TableId, TxnId, Value, ZipfGen};

#[test]
fn txn_id_pack_roundtrip() {
    let mut rng = FastRng::new(0xA11CE);
    for _ in 0..2_000 {
        let seq = rng.next_u64() & ((1 << 40) - 1);
        let coord = (rng.next_u64() % 1024) as u32;
        let id = TxnId::new(PartitionId(coord), seq);
        assert_eq!(TxnId::unpack(id.pack()), id, "lossy pack for {id}");
    }
}

#[test]
fn txn_id_order_is_by_sequence() {
    let mut rng = FastRng::new(0xB0B);
    for _ in 0..2_000 {
        let (a, b) = (rng.next_below(1_000_000), rng.next_below(1_000_000));
        let (ca, cb) = (rng.next_below(64) as u32, rng.next_below(64) as u32);
        let x = TxnId::new(PartitionId(ca), a);
        let y = TxnId::new(PartitionId(cb), b);
        if a < b {
            assert!(x < y);
        } else if a > b {
            assert!(x > y);
        }
    }
}

#[test]
fn zipf_stays_in_domain() {
    let mut rng = FastRng::new(0x21bf);
    for _ in 0..50 {
        let n = 1 + rng.next_below(50_000);
        let theta = (rng.next_below(99) as f64) / 100.0;
        let gen = ZipfGen::new(n, theta);
        let mut sample_rng = FastRng::new(rng.next_u64());
        for _ in 0..100 {
            assert!(gen.sample(&mut sample_rng) < n, "n={n} theta={theta}");
        }
    }
}

#[test]
fn record_interval_invariants() {
    // A record's valid interval never shrinks and installs always leave
    // `wts == rts`.
    let mut rng = FastRng::new(0x5EED);
    for _ in 0..100 {
        let record = Record::new(Value::from_u64(0));
        let mut last_wts = 0u64;
        let num_ops = 1 + rng.next_below(50) as usize;
        for _ in 0..num_ops {
            let kind = rng.next_below(3);
            let ts = 1 + rng.next_below(1_000_000);
            let (w_before, r_before) = record.timestamps();
            match kind {
                0 => {
                    record.extend_rts(ts);
                    let (w, r) = record.timestamps();
                    assert_eq!(w, w_before);
                    assert!(r >= r_before);
                }
                1 => {
                    record.install(Value::from_u64(ts), ts);
                    let (w, r) = record.timestamps();
                    assert_eq!(w, ts);
                    assert_eq!(r, ts);
                    last_wts = ts;
                }
                _ => {
                    record.raise_watermark_floor(ts);
                    let (w, r) = record.timestamps();
                    assert!(w > ts || w > last_wts || w == w_before);
                    assert!(r >= w);
                }
            }
            let (w, r) = record.timestamps();
            assert!(r >= w, "rts must never fall below wts");
        }
    }
}

#[test]
fn lock_exclusivity() {
    // Exclusive locks are mutually exclusive no matter the request order.
    let mut rng = FastRng::new(0x10CC);
    for _ in 0..200 {
        let record = Record::new(Value::from_u64(0));
        let num_holders = 2 + rng.next_below(8) as usize;
        let mut granted = Vec::new();
        for _ in 0..num_holders {
            let txn = TxnId::new(PartitionId(0), 1 + rng.next_below(100));
            if record.acquire(txn, LockMode::Exclusive, LockPolicy::NoWait)
                == LockRequestResult::Granted
            {
                granted.push(txn);
            }
        }
        // Only one distinct transaction may ever hold the exclusive lock.
        granted.dedup();
        assert_eq!(granted.len(), 1);
        record.release(granted[0]);
        assert!(!record.lock().is_locked());
    }
}

#[test]
fn wal_replay_is_a_prefix() {
    // The WAL replays exactly the prefix below the requested watermark.
    let mut rng = FastRng::new(0xA1);
    for _ in 0..40 {
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        let num_entries = 1 + rng.next_below(40) as usize;
        let ts_list: Vec<u64> = (0..num_entries)
            .map(|_| 1 + rng.next_below(1_000))
            .collect();
        let cut = 1 + rng.next_below(1_000);
        for (i, ts) in ts_list.iter().enumerate() {
            wal.append(LogPayload::TxnWrites {
                txn: TxnId::new(PartitionId(0), i as u64),
                ts: *ts,
                writes: vec![LoggedWrite::put(TableId(0), i as u64, Value::from_u64(*ts))],
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        let replayed = wal.replay_prefix(cut);
        let expected = ts_list.iter().filter(|t| **t < cut).count();
        assert_eq!(replayed.len(), expected);
        assert!(replayed.iter().all(|(_, ts, _)| *ts < cut));
    }
}

#[test]
fn primo_transfers_conserve_money() {
    // Random sequences of transfers through the full Primo facade conserve
    // the total balance.
    const T: TableId = TableId(0);
    let mut rng = FastRng::new(0xCAFE);
    for _ in 0..8 {
        let primo = Primo::builder().partitions(2).fast_local().build();
        let session = primo.session();
        for p in 0..2u32 {
            for k in 0..8u64 {
                session.load(PartitionId(p), T, k, Value::from_u64(100));
            }
        }
        let num_transfers = 1 + rng.next_below(14) as usize;
        for _ in 0..num_transfers {
            let from = rng.next_below(8);
            let to = rng.next_below(8);
            let pf = PartitionId(rng.next_below(2) as u32);
            let pt = PartitionId(rng.next_below(2) as u32);
            let amount = 1 + rng.next_below(49);
            let _ = session.transaction(pf, move |ctx| {
                let a = ctx.read(pf, T, from)?.as_u64();
                let b = ctx.read(pt, T, to)?.as_u64();
                let amt = amount.min(a);
                if (pf, from) == (pt, to) {
                    return Ok(());
                }
                ctx.write(pf, T, from, Value::from_u64(a - amt))?;
                ctx.write(pt, T, to, Value::from_u64(b + amt))?;
                Ok(())
            });
        }
        let mut total = 0;
        for p in 0..2u32 {
            for k in 0..8u64 {
                total += session.get(PartitionId(p), T, k).unwrap().as_u64();
            }
        }
        primo.shutdown();
        assert_eq!(total, 2 * 8 * 100);
    }
}
