//! MVCC snapshot reads: declared read-only transactions at the durable
//! group-commit horizon, against the validate-everything baseline.
//!
//! A YCSB mix with a high read ratio generates many fully read-only
//! transactions (a transaction is read-only iff every one of its 10 ops is a
//! read, so read ratio 0.95 makes ~60 % of them read-only). With snapshot
//! reads enabled those commit lock-free at the horizon; with the knob off
//! they run through the protocol like any other transaction.
//!
//! Run with: `cargo run --release --example snapshot_reads`

use primo_repro::{Experiment, ProtocolKind, Scale};

fn main() {
    let scale = Scale {
        partitions: 4,
        workers_per_partition: 4,
        ycsb_keys_per_partition: 20_000,
        duration_ms: 500,
        warmup_ms: 100,
    };

    println!(
        "YCSB read ratio 0.95, {} partitions, Primo on Watermark, 500 ms measured",
        scale.partitions
    );
    println!(
        "{:<22} {:>10} {:>12} {:>14} {:>12} {:>10}",
        "mode", "ktps", "p99 lat ms", "snap reads/s", "snap reads", "pruned"
    );
    for snapshot_on in [true, false] {
        let snap = Experiment::new()
            .protocol(ProtocolKind::Primo)
            .scale(scale)
            .checkpoint_interval_ms(100)
            .ycsb_with(|y| y.read_ratio = 0.95)
            .tweak_cluster(move |c| c.primo.read_only_snapshot = snapshot_on)
            .run();
        println!(
            "{:<22} {:>10.1} {:>12.2} {:>14.0} {:>12} {:>10}",
            if snapshot_on {
                "snapshot (MVCC)"
            } else {
                "baseline (validate)"
            },
            snap.ktps(),
            snap.p99_latency_ms,
            snap.snapshot_read_tps,
            snap.snapshot_reads,
            snap.pruned_versions
        );
    }
    println!(
        "(snap reads = read-only txns served lock-free from the version chains at the\n\
         group-commit horizon; pruned = history versions reclaimed at that horizon)"
    );
}
