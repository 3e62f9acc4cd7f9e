//! Release-mode gate for the cost of the always-on flight recorder: the two
//! most recording-sensitive probes run with recording enabled vs disabled.
//!
//! * Contended append at RF 3 × 4 threads, ns per append; gated at the
//!   recorder's contract limit, 5 %.
//! * Write-heavy YCSB (read ratio 0.5, RF 3) under Primo / watermark on a
//!   2 × 2 cluster, committed TPS; gated at 3 × the limit, because its
//!   run-to-run scheduling noise on a small box exceeds the limit itself
//!   (a real recording bug — a per-event allocation or lock — still lands
//!   well above 15 %).
//!
//! Timing-sensitive, so `#[ignore]` by default; debug builds would measure
//! the optimizer, not the recorder. CI runs it in release:
//!
//! ```text
//! cargo test --release -p primo-bench --test trace_overhead -- --ignored --nocapture
//! ```

use primo_bench::Scale;
use primo_repro::wal::{LogPayload, LoggedWrite, ReplicatedLog};
use primo_repro::{
    FlightRecorder, LoggingScheme, PartitionId, Primo, ProtocolKind, TableId, Value, WalConfig,
};
use std::sync::Arc;
use std::time::Instant;

const OVERHEAD_LIMIT_PCT: f64 = 5.0;

/// Measurement window of each YCSB probe run.
const DURATION_MS: u64 = 300;

fn rf_log(rf: usize) -> ReplicatedLog {
    ReplicatedLog::new(
        PartitionId(0),
        WalConfig {
            replication_factor: rf,
            // Real-ish delays: local disk 100us, replicas 200us behind a
            // 500us hop. The appender never waits for any of these, so the
            // measured cost is purely the critical-section work.
            persist_delay_us: 100,
            replica_persist_delay_us: Some(200),
            ..WalConfig::default()
        },
        500,
        None,
    )
}

fn append_payload(seq: u64) -> LogPayload {
    LogPayload::TxnWrites {
        txn: primo_repro::TxnId::new(PartitionId(0), seq),
        ts: seq,
        writes: vec![LoggedWrite::put(TableId(0), seq, Value::from_u64(seq))],
    }
}

/// Wall-clock ns per append with `threads` appenders hammering one log.
/// Minimum of five passes — for a fixed-work micro the least-disturbed run
/// is the cost, everything above it is scheduler interference (this is a
/// 1-core-CI-friendly estimator; a median still carries whatever noise hit
/// the middle pass). Payloads are pre-built outside the timed window,
/// so the cell measures the append critical path itself — not payload
/// allocation, which would otherwise drown the signal. `recording` toggles
/// the attached flight recorder.
fn contended_append_ns(rf: usize, threads: usize, recording: bool) -> f64 {
    let per_thread: u64 = 200_000 / threads as u64;
    let pass = || {
        let log = Arc::new(rf_log(rf));
        log.set_recorder(Arc::new(FlightRecorder::new(recording, 4096)));
        let batches: Vec<Vec<LogPayload>> = (0..threads as u64)
            .map(|t| {
                (0..per_thread)
                    .map(|i| append_payload(t * per_thread + i))
                    .collect()
            })
            .collect();
        let start = Instant::now();
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for payload in batch {
                        log.append(payload);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        start.elapsed().as_nanos() as f64 / (per_thread * threads as u64) as f64
    };
    let mut runs = [pass(), pass(), pass(), pass(), pass()];
    runs.sort_by(|a, b| a.total_cmp(b));
    runs[0]
}

fn write_heavy_tps(scale: &Scale, recording: bool) -> f64 {
    Primo::builder()
        .protocol(ProtocolKind::Primo)
        .logging(LoggingScheme::Watermark)
        .replication_factor(3)
        .tweak(move |c| c.trace.enabled = recording)
        .experiment()
        .scale(*scale)
        .checkpoint_interval_ms(scale.duration_ms.max(4) / 4)
        .ycsb_with(|y| y.read_ratio = 0.5)
        .run()
        .throughput_tps
}

struct OverheadProbe {
    on: f64,
    off: f64,
    /// `(off - on) / off` for TPS, `(on - off) / off` for ns — always
    /// "how much recording costs", clamped at zero (noise can make the
    /// recording-on run measure *faster*).
    overhead_pct: f64,
}

/// Recording-on vs recording-off on the two most event-dense probes. Each
/// probe runs as back-to-back (on, off) **pairs**; the two halves of a pair
/// share the machine state of the moment (frequency, cache residency,
/// whatever else the box is doing), so their difference cancels drift that
/// would dominate a min-vs-min or median-vs-median comparison of the two
/// modes' separate distributions. Pairs alternate which mode runs first
/// (ABBA), so a systematic lead-position cost cannot masquerade as
/// recording overhead either. The append overhead is the median of the
/// per-pair signed differences, the YCSB one their mean; both are clamped
/// at zero (noise can make the recording-on half measure *faster*).
fn trace_overhead() -> (OverheadProbe, OverheadProbe) {
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let pct = |cost: f64, base: f64| if base > 0.0 { cost / base * 100.0 } else { 0.0 };

    let mut pairs = Vec::new();
    for i in 0..8 {
        let (first_on, second_on) = (i % 2 == 0, i % 2 != 0);
        let first = contended_append_ns(3, 4, first_on);
        let second = contended_append_ns(3, 4, second_on);
        let (on, off) = if first_on {
            (first, second)
        } else {
            (second, first)
        };
        pairs.push((on, off));
    }
    let append = OverheadProbe {
        on: median(pairs.iter().map(|p| p.0).collect()),
        off: median(pairs.iter().map(|p| p.1).collect()),
        overhead_pct: median(pairs.iter().map(|&(on, off)| pct(on - off, off)).collect()).max(0.0),
    };

    // A deliberately small cluster (2×2): the probe needs the event
    // density of a full write-heavy txn lifecycle, not a large scale —
    // and fewer worker threads means far less scheduler lottery in the
    // on-vs-off comparison on small CI boxes.
    let probe = Scale {
        partitions: 2,
        workers_per_partition: 2,
        duration_ms: DURATION_MS,
        ..Scale::quick()
    };
    let mut pairs = Vec::new();
    for i in 0..6 {
        let first_on = i % 2 == 0;
        let first = write_heavy_tps(&probe, first_on);
        let second = write_heavy_tps(&probe, !first_on);
        let (on, off) = if first_on {
            (first, second)
        } else {
            (second, first)
        };
        pairs.push((on, off));
    }
    let diffs: Vec<f64> = pairs.iter().map(|&(on, off)| pct(off - on, off)).collect();
    let ycsb = OverheadProbe {
        on: median(pairs.iter().map(|p| p.0).collect()),
        off: median(pairs.iter().map(|p| p.1).collect()),
        overhead_pct: (diffs.iter().sum::<f64>() / diffs.len() as f64).max(0.0),
    };
    (append, ycsb)
}

#[test]
#[ignore = "timing-sensitive; CI runs it in release with --ignored"]
fn flight_recorder_overhead_stays_within_the_gate() {
    let (append, ycsb) = trace_overhead();
    eprintln!(
        "contended append (rf=3, 4 threads): on={:.1} ns, off={:.1} ns, overhead={:.2}%",
        append.on, append.off, append.overhead_pct
    );
    eprintln!(
        "write-heavy YCSB (primo/watermark): on={:.0} tps, off={:.0} tps, overhead={:.2}%",
        ycsb.on, ycsb.off, ycsb.overhead_pct
    );
    assert!(
        append.overhead_pct <= OVERHEAD_LIMIT_PCT,
        "contended append: recording costs {:.2}% (limit {OVERHEAD_LIMIT_PCT}%)",
        append.overhead_pct
    );
    let ycsb_gate = 3.0 * OVERHEAD_LIMIT_PCT;
    assert!(
        ycsb.overhead_pct <= ycsb_gate,
        "write-heavy YCSB: recording costs {:.2}% (limit {ycsb_gate}%)",
        ycsb.overhead_pct
    );
}
