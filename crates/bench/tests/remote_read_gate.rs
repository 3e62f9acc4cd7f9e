//! Release-mode regression gate for the batched remote-read fan-out (PR 10).
//!
//! Runs the same fully distributed, fully remote YCSB cell with
//! `batch_remote_reads` on and off and gates on the *ratio* of remote round
//! trips per committed distributed transaction, at one-way network latencies
//! of 5 µs (the unit-test timing of `fast_local`), 50 and 200 µs.
//! Round trips are counted, not timed, so the ratio is deterministic modulo
//! abort noise — but the cell still runs end-to-end worker threads, so it
//! lives next to the other release-mode gates, which CI runs together. Alone:
//!
//! ```text
//! cargo test --release -p primo-bench --test remote_read_gate -- --ignored
//! ```

use primo_bench::Scale;
use primo_repro::{MetricsSnapshot, Primo, ProtocolKind};

const ONE_WAY_US: [u64; 3] = [5, 50, 200];

fn fully_remote_cell(kind: ProtocolKind, one_way_us: u64, batched: bool) -> MetricsSnapshot {
    Primo::builder()
        .protocol(kind)
        .fast_local()
        .seed(7)
        .tweak(move |c| {
            c.net.one_way_us = one_way_us;
            c.batch_remote_reads = batched;
        })
        .experiment()
        .scale(Scale {
            partitions: 4,
            workers_per_partition: 2,
            ycsb_keys_per_partition: 10_000,
            duration_ms: 150,
            warmup_ms: 30,
        })
        .ycsb_with(|y| {
            // 10-op transactions, all distributed, every op remote: the
            // acceptance cell from the issue.
            y.distributed_ratio = 1.0;
            y.remote_op_ratio = 1.0;
        })
        .run()
}

#[test]
#[ignore = "end-to-end worker-thread run; CI runs it in release with --ignored"]
fn batching_at_least_halves_remote_round_trips_per_dist_txn() {
    for kind in [ProtocolKind::Primo, ProtocolKind::TwoPlNoWait] {
        for one_way_us in ONE_WAY_US {
            let cell = format!("{} at {one_way_us} us one-way", kind.label());
            let seq = fully_remote_cell(kind, one_way_us, false);
            let bat = fully_remote_cell(kind, one_way_us, true);
            assert!(
                seq.dist_committed > 0 && bat.dist_committed > 0,
                "{cell}: the cell must commit distributed transactions"
            );
            let ratio = seq.remote_round_trips_per_dist_txn / bat.remote_round_trips_per_dist_txn;
            eprintln!(
                "{cell}: rt/dist-txn sequential {:.2}, batched {:.2} ({:.2}x), hit rate {:.1}%",
                seq.remote_round_trips_per_dist_txn,
                bat.remote_round_trips_per_dist_txn,
                ratio,
                bat.prefetch_hit_rate * 100.0
            );
            // A 10-op fully remote transaction pays ~10 read round trips
            // sequentially and ~1 batched; aborted attempts and commit rounds
            // dilute the ratio, so 2x is a wide floor that still catches the
            // fan-out silently degrading to per-record reads.
            assert!(
                ratio >= 2.0,
                "{cell}: batching advantage eroded below 2x ({ratio:.2}x)"
            );
            // The prefetch buffer must actually serve the reads, not just
            // charge fewer messages.
            assert!(
                bat.prefetch_hit_rate > 0.5,
                "{cell}: prefetch hit rate collapsed ({:.2})",
                bat.prefetch_hit_rate
            );
            // Batching must never *add* messages when it is off.
            assert!(bat.remote_round_trips_per_dist_txn <= seq.remote_round_trips_per_dist_txn);
        }
    }
}
