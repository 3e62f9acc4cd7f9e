//! Release-mode regression gate for the batched remote-read fan-out (PR 10).
//!
//! Runs the same fully distributed, fully remote YCSB cell with
//! `batch_remote_reads` on and off and gates on the *ratio* of remote round
//! trips per committed distributed transaction. Round trips are counted, not
//! timed, so the ratio is deterministic modulo abort noise — but the cell
//! still runs end-to-end worker threads, so it lives next to the other
//! release-mode gates and CI runs it explicitly:
//!
//! ```text
//! cargo test --release -p primo-bench --test remote_read_gate -- --ignored
//! ```

use primo_bench::Scale;
use primo_repro::{MetricsSnapshot, Primo, ProtocolKind};

fn fully_remote_cell(kind: ProtocolKind, batched: bool) -> MetricsSnapshot {
    Primo::builder()
        .protocol(kind)
        .fast_local()
        .seed(7)
        .tweak(move |c| c.batch_remote_reads = batched)
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
        let seq = fully_remote_cell(kind, false);
        let bat = fully_remote_cell(kind, true);
        assert!(
            seq.dist_committed > 0 && bat.dist_committed > 0,
            "{}: the cell must commit distributed transactions",
            kind.label()
        );
        let ratio = seq.remote_round_trips_per_dist_txn / bat.remote_round_trips_per_dist_txn;
        eprintln!(
            "{}: rt/dist-txn sequential {:.2}, batched {:.2} ({:.2}x), hit rate {:.1}%",
            kind.label(),
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
            "{}: batching advantage eroded below 2x ({ratio:.2}x)",
            kind.label()
        );
        // The prefetch buffer must actually serve the reads, not just
        // charge fewer messages.
        assert!(
            bat.prefetch_hit_rate > 0.5,
            "{}: prefetch hit rate collapsed ({:.2})",
            kind.label(),
            bat.prefetch_hit_rate
        );
        // Batching must never *add* messages when it is off.
        assert!(bat.remote_round_trips_per_dist_txn <= seq.remote_round_trips_per_dist_txn);
    }
}
