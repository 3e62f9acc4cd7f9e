//! YCSB shoot-out: Primo vs Sundial vs 2PL(NO_WAIT) on the paper's default
//! YCSB setting (10 ops/txn, 50 % writes, Zipf 0.6, 20 % distributed), on a
//! small simulated 4-partition cluster.
//!
//! This is a miniature of Fig 4a; the full sweep lives in the bench crate
//! (`cargo run -p primo-bench --release --bin figures -- fig4`).
//!
//! Run with: `cargo run --release --example ycsb_shootout`

use primo_repro::{Primo, ProtocolKind, Scale};

fn main() {
    let scale = Scale {
        partitions: 4,
        workers_per_partition: 4,
        ycsb_keys_per_partition: 20_000,
        duration_ms: 500,
        warmup_ms: 100,
    };

    println!(
        "YCSB, {} partitions, 20k keys/partition, 500 ms measured",
        scale.partitions
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "protocol",
        "ktps",
        "abort rate",
        "avg lat ms",
        "p99 lat ms",
        "snap reads",
        "rt/dist-txn",
        "hit rate",
        "dist p99 ms"
    );
    // Each protocol runs with the group-commit scheme the cluster builder
    // pairs it with (§6.1.3): Primo on Watermark, the baselines on COCO. Fully
    // read-only transactions (all 10 ops draw "read") commit through the
    // MVCC snapshot path — the snap-reads column counts them. The last three
    // columns show the remote-read economics: round trips charged per
    // committed distributed transaction, the batched-prefetch hit rate and
    // the distributed-only p99.
    for kind in [
        ProtocolKind::Primo,
        ProtocolKind::Sundial,
        ProtocolKind::TwoPlNoWait,
    ] {
        let snap = Primo::builder()
            .protocol(kind)
            .experiment()
            .scale(scale)
            .run();
        println!(
            "{:<12} {:>12.1} {:>12.3} {:>12.2} {:>12.2} {:>12} {:>12.2} {:>9.1}% {:>12.2}",
            kind.label(),
            snap.ktps(),
            snap.abort_rate,
            snap.mean_latency_ms,
            snap.p99_latency_ms,
            snap.snapshot_reads,
            snap.remote_round_trips_per_dist_txn,
            snap.prefetch_hit_rate * 100.0,
            snap.dist_txn_p99_ms
        );
    }
}
