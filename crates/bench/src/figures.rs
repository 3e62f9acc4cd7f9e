//! One harness per figure of the paper's evaluation (§6).
//!
//! Every function prints the series the corresponding figure plots and
//! returns nothing; the `figures` binary dispatches to them. Absolute numbers
//! differ from the paper (simulated cluster vs. a real one); the shapes —
//! which protocol wins, by roughly what factor, where crossovers happen — are
//! what EXPERIMENTS.md compares.
//!
//! All runs go through [`Experiment`], so a figure is exactly "a loop over
//! protocol kinds and one swept knob".

use primo_repro::core::analysis::{self, ModelParams};
use primo_repro::{
    CommitMode, CrashPlan, Experiment, LoggingScheme, MetricsSnapshot, PartitionId, Phase,
    ProtocolKind, Scale,
};
use std::time::Duration;

const HEADLINE: [ProtocolKind; 6] = [
    ProtocolKind::TwoPlNoWait,
    ProtocolKind::TwoPlWaitDie,
    ProtocolKind::Silo,
    ProtocolKind::Sundial,
    ProtocolKind::Aria,
    ProtocolKind::Primo,
];

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

fn print_row(label: &str, snap: &MetricsSnapshot) {
    println!(
        "{label:<22} {:>10.1} ktps   abort {:>5.1}%   lat {:>7.2} ms   p99 {:>8.2} ms",
        snap.ktps(),
        snap.abort_rate * 100.0,
        snap.mean_latency_ms,
        snap.p99_latency_ms
    );
}

/// The driver's live metrics timeline: one row per ~100 ms window with the
/// window's committed TPS, abort rate and p99. Around a crash plan this
/// shows the dip-and-recovery shape a single whole-run aggregate averages
/// away.
fn print_timeline(label: &str, snap: &MetricsSnapshot) {
    if snap.timeline.is_empty() {
        return;
    }
    println!("{label} live timeline ({} windows):", snap.timeline.len());
    println!(
        "  {:>8} {:>8} {:>10} {:>9} {:>8} {:>9}",
        "t(ms)", "win(ms)", "ktps", "committed", "abort%", "p99(ms)"
    );
    for w in &snap.timeline {
        println!(
            "  {:>8.0} {:>8.0} {:>10.1} {:>9} {:>8.1} {:>9.2}",
            w.start_us as f64 / 1000.0,
            w.len_us as f64 / 1000.0,
            w.tps / 1000.0,
            w.committed,
            w.abort_rate * 100.0,
            w.p99_latency_ms
        );
    }
}

/// Per-reason abort counts (e.g. `WaitDie=123 Validation=4 NotFound=1`):
/// lifecycle regressions surface here instead of hiding in the abort total.
fn print_abort_breakdown(label: &str, snap: &MetricsSnapshot) {
    let breakdown = snap.abort_breakdown();
    if breakdown.is_empty() {
        println!("{label:<22} aborts: none");
        return;
    }
    let parts: Vec<String> = breakdown
        .iter()
        .map(|(reason, count)| format!("{reason}={count}"))
        .collect();
    println!("{label:<22} aborts: {}", parts.join(" "));
}

/// Remote-read economics of a run: round trips charged per committed
/// distributed transaction, the batched-prefetch hit rate and the
/// distributed-only tail latency. One row per protocol in fig 4/5.
fn print_remote_reads(label: &str, snap: &MetricsSnapshot) {
    println!(
        "{label:<22} {:>8.2} rt/dist-txn   hit {:>5.1}%   dist p99 {:>8.2} ms   ({} dist txns)",
        snap.remote_round_trips_per_dist_txn,
        snap.prefetch_hit_rate * 100.0,
        snap.dist_txn_p99_ms,
        snap.dist_committed
    );
}

fn print_breakdown(label: &str, snap: &MetricsSnapshot) {
    let mut parts = String::new();
    for p in Phase::ALL {
        let v = snap.phase(p);
        if v > 0.0005 {
            parts.push_str(&format!("{}={:.2}ms ", p.label(), v));
        }
    }
    println!("{label:<22} {parts}");
}

/// Default-setting YCSB run for one protocol at one scale.
fn ycsb(kind: ProtocolKind, scale: &Scale) -> MetricsSnapshot {
    Experiment::new().protocol(kind).scale(*scale).run()
}

/// Default-setting TPC-C run for one protocol at one scale.
fn tpcc(kind: ProtocolKind, scale: &Scale) -> MetricsSnapshot {
    Experiment::new()
        .protocol(kind)
        .scale(*scale)
        .tpcc_with(|_| {})
        .run()
}

/// Fig. 4: YCSB default setting — throughput, factor breakdown, latency
/// breakdown and tail latency.
pub fn fig4(scale: &Scale) {
    header("Fig 4a: YCSB throughput (default setting)");
    let mut snaps = Vec::new();
    for kind in HEADLINE {
        let snap = ycsb(kind, scale);
        print_row(kind.label(), &snap);
        snaps.push((kind, snap));
    }

    header("Fig 4a': abort breakdown by reason");
    for (kind, snap) in &snaps {
        print_abort_breakdown(kind.label(), snap);
    }

    header("Fig 4b: factor breakdown (normalised to Sundial)");
    let sundial = snaps
        .iter()
        .find(|(k, _)| *k == ProtocolKind::Sundial)
        .map(|(_, s)| s.ktps())
        .unwrap_or(1.0);
    for kind in [
        ProtocolKind::Sundial,
        ProtocolKind::PrimoNoWcfNoWm,
        ProtocolKind::PrimoNoWm,
        ProtocolKind::Primo,
    ] {
        let snap = if let Some((_, s)) = snaps.iter().find(|(k, _)| *k == kind) {
            s.clone()
        } else {
            ycsb(kind, scale)
        };
        println!(
            "{:<22} {:>10.1} ktps   {:.2}x vs Sundial",
            kind.label(),
            snap.ktps(),
            snap.ktps() / sundial.max(1e-9)
        );
    }

    header("Fig 4c: latency breakdown (ms per committed txn)");
    for (kind, snap) in &snaps {
        print_breakdown(kind.label(), snap);
    }

    header("Fig 4d: 99th-percentile latency (ms)");
    for (kind, snap) in &snaps {
        println!("{:<22} {:>8.2} ms", kind.label(), snap.p99_latency_ms);
    }

    header("Fig 4e: remote-read batching (round trips / dist txn, prefetch hits)");
    for (kind, snap) in &snaps {
        print_remote_reads(kind.label(), snap);
    }
}

/// Fig. 5: the same four panels on TPC-C.
pub fn fig5(scale: &Scale) {
    header("Fig 5a: TPC-C throughput (default setting)");
    let mut snaps = Vec::new();
    for kind in HEADLINE {
        let snap = tpcc(kind, scale);
        print_row(kind.label(), &snap);
        snaps.push((kind, snap));
    }

    header("Fig 5a': abort breakdown by reason");
    for (kind, snap) in &snaps {
        print_abort_breakdown(kind.label(), snap);
    }

    header("Fig 5b: factor breakdown (normalised to Sundial)");
    let sundial = snaps
        .iter()
        .find(|(k, _)| *k == ProtocolKind::Sundial)
        .map(|(_, s)| s.ktps())
        .unwrap_or(1.0);
    for kind in [
        ProtocolKind::Sundial,
        ProtocolKind::PrimoNoWcfNoWm,
        ProtocolKind::PrimoNoWm,
        ProtocolKind::Primo,
    ] {
        let snap = if let Some((_, s)) = snaps.iter().find(|(k, _)| *k == kind) {
            s.clone()
        } else {
            tpcc(kind, scale)
        };
        println!(
            "{:<22} {:>10.1} ktps   {:.2}x vs Sundial",
            kind.label(),
            snap.ktps(),
            snap.ktps() / sundial.max(1e-9)
        );
    }

    header("Fig 5c: latency breakdown (ms per committed txn)");
    for (kind, snap) in &snaps {
        print_breakdown(kind.label(), snap);
    }

    header("Fig 5d: 99th-percentile latency (ms)");
    for (kind, snap) in &snaps {
        println!("{:<22} {:>8.2} ms", kind.label(), snap.p99_latency_ms);
    }

    header("Fig 5e: remote-read batching (round trips / dist txn, prefetch hits)");
    for (kind, snap) in &snaps {
        print_remote_reads(kind.label(), snap);
    }
}

/// Fig. 6: impact of contention (YCSB skew 0–0.99): throughput + abort rate.
pub fn fig6(scale: &Scale) {
    header("Fig 6: impact of contention (YCSB skew sweep)");
    let skews = [0.0, 0.2, 0.4, 0.6, 0.8, 0.99];
    println!(
        "{:<22} {}",
        "protocol",
        skews.map(|s| format!("{s:>8.2}")).join(" ")
    );
    for kind in HEADLINE {
        let mut tputs = Vec::new();
        let mut aborts = Vec::new();
        for skew in skews {
            let snap = Experiment::new()
                .protocol(kind)
                .scale(*scale)
                .ycsb_with(move |y| y.zipf_theta = skew)
                .run();
            tputs.push(format!("{:>8.1}", snap.ktps()));
            aborts.push(format!("{:>8.3}", snap.abort_rate));
        }
        println!("{:<22} {}   (ktps)", kind.label(), tputs.join(" "));
        println!("{:<22} {}   (abort rate)", "", aborts.join(" "));
    }
}

/// Fig. 7: impact of the ratio of distributed transactions under low and
/// high contention.
pub fn fig7(scale: &Scale) {
    let ratios = [0.05, 0.2, 0.4, 0.6, 0.8, 1.0];
    for (title, skew) in [
        ("Fig 7a: low contention (skew 0.0)", 0.0),
        ("Fig 7b: high contention (skew 0.9)", 0.9),
    ] {
        header(title);
        println!(
            "{:<22} {}",
            "protocol",
            ratios
                .map(|r| format!("{:>8}", format!("{}%", (r * 100.0) as u32)))
                .join(" ")
        );
        for kind in HEADLINE {
            let mut row = Vec::new();
            for r in ratios {
                let snap = Experiment::new()
                    .protocol(kind)
                    .scale(*scale)
                    .ycsb_with(move |y| {
                        y.zipf_theta = skew;
                        y.distributed_ratio = r;
                    })
                    .run();
                row.push(format!("{:>8.1}", snap.ktps()));
            }
            println!("{:<22} {}", kind.label(), row.join(" "));
        }
    }
}

/// Fig. 8: impact of the read-write ratio at 20% and 80% distributed.
pub fn fig8(scale: &Scale) {
    let write_pcts = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    for (title, dist) in [
        ("Fig 8a: 20% distributed", 0.2),
        ("Fig 8b: 80% distributed", 0.8),
    ] {
        header(title);
        println!(
            "{:<22} {}",
            "protocol (% writes)",
            write_pcts
                .map(|w| format!("{:>8}", format!("{}%", (w * 100.0) as u32)))
                .join(" ")
        );
        for kind in HEADLINE {
            let mut row = Vec::new();
            for w in write_pcts {
                let snap = Experiment::new()
                    .protocol(kind)
                    .scale(*scale)
                    .ycsb_with(move |y| {
                        y.distributed_ratio = dist;
                        y.read_ratio = 1.0 - w;
                    })
                    .run();
                row.push(format!("{:>8.1}", snap.ktps()));
            }
            println!("{:<22} {}", kind.label(), row.join(" "));
        }
    }
}

/// Fig. 9: impact of the blind-write ratio (Primo vs Sundial).
pub fn fig9(scale: &Scale) {
    header("Fig 9: impact of the blind-write ratio (Primo vs Sundial)");
    let ratios = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    println!(
        "{:<22} {}",
        "protocol",
        ratios
            .map(|r| format!("{:>8}", format!("{}%", (r * 100.0) as u32)))
            .join(" ")
    );
    for kind in [ProtocolKind::Primo, ProtocolKind::Sundial] {
        let mut row = Vec::new();
        for r in ratios {
            let snap = Experiment::new()
                .protocol(kind)
                .scale(*scale)
                .ycsb_with(move |y| y.blind_write_ratio = r)
                .run();
            row.push(format!("{:>8.1}", snap.ktps()));
        }
        println!("{:<22} {}", kind.label(), row.join(" "));
    }
}

/// Fig. 10: impact of the number of warehouses per partition in TPC-C.
pub fn fig10(scale: &Scale) {
    header("Fig 10: TPC-C warehouses per partition");
    let warehouses = [1u64, 8, 16, 32, 64, 128];
    println!(
        "{:<22} {}",
        "protocol",
        warehouses.map(|w| format!("{w:>8}")).join(" ")
    );
    for kind in HEADLINE {
        let mut row = Vec::new();
        for w in warehouses {
            let snap = Experiment::new()
                .protocol(kind)
                .scale(*scale)
                .tpcc_with(move |t| t.warehouses_per_partition = w)
                .run();
            row.push(format!("{:>8.1}", snap.ktps()));
        }
        println!("{:<22} {}", kind.label(), row.join(" "));
    }
}

/// Fig. 11: logging schemes (CLV vs COCO vs Watermark) under each
/// concurrency-control protocol, YCSB and TPC-C.
pub fn fig11(scale: &Scale) {
    let protocols = [
        ProtocolKind::TwoPlNoWait,
        ProtocolKind::TwoPlWaitDie,
        ProtocolKind::Silo,
        ProtocolKind::Sundial,
        ProtocolKind::Primo,
    ];
    let schemes = [
        LoggingScheme::Clv,
        LoggingScheme::CocoEpoch,
        LoggingScheme::Watermark,
    ];
    for (title, use_tpcc) in [("Fig 11a: YCSB", false), ("Fig 11b: TPC-C", true)] {
        header(title);
        println!(
            "{:<22} {:>10} {:>10} {:>10}",
            "protocol", "CLV", "COCO", "Watermark"
        );
        for kind in protocols {
            let mut row = Vec::new();
            for scheme in schemes {
                let exp = Experiment::new()
                    .protocol(kind)
                    .scale(*scale)
                    .logging(scheme);
                let exp = if use_tpcc { exp.tpcc_with(|_| {}) } else { exp };
                row.push(format!("{:>10.1}", exp.run().ktps()));
            }
            println!("{:<22} {}", kind.label(), row.join(" "));
        }
    }
}

/// Fig. 12: watermark interval / epoch size trade-off: latency, crash-abort
/// rate (a partition is killed mid-run and rebuilt from checkpoint +
/// durable-log replay), throughput, recovery latency, replayed transactions
/// and the post-recovery throughput dip — WM vs COCO, both over Primo's WCF
/// concurrency control.
pub fn fig12(scale: &Scale) {
    header("Fig 12: watermark interval / epoch size (Primo CC under WM vs COCO)");
    let sizes_ms = [20u64, 40, 60, 80, 100];
    println!(
        "{:<12} {:>10} {:>12} {:>14} {:>12} {:>13} {:>10} {:>12} {:>14} {:>8} {:>13} {:>13} {:>7}",
        "scheme",
        "size(ms)",
        "latency(ms)",
        "crash-abort",
        "ktps",
        "recovery(ms)",
        "replayed",
        "compensated",
        "post-rec ktps",
        "ldr-chg",
        "repl-lag(us)",
        "app-wait(us)",
        "batch"
    );
    for scheme in [LoggingScheme::Watermark, LoggingScheme::CocoEpoch] {
        for size in sizes_ms {
            let duration_ms = scale.duration_ms.max(3 * size);
            let snap = Experiment::new()
                .protocol(ProtocolKind::Primo)
                .scale(*scale)
                .duration_ms(duration_ms)
                .checkpoint_interval_ms(size.max(duration_ms / 4))
                .crash(CrashPlan::partition_loss(
                    PartitionId(1),
                    Duration::from_millis(duration_ms / 2),
                    Duration::from_millis(20),
                ))
                .logging(scheme)
                .wal_interval_ms(size)
                .run();
            println!(
                "{:<12} {:>10} {:>12.2} {:>14.4} {:>12.1} {:>13.2} {:>10} {:>12} {:>14.1} {:>8} {:>13} {:>13} {:>7.1}",
                scheme.label(),
                size,
                snap.mean_latency_ms,
                snap.crash_abort_rate,
                snap.ktps(),
                snap.recovery_time_us as f64 / 1000.0,
                snap.replayed_txns,
                snap.compensated_txns,
                snap.post_recovery_tps / 1000.0,
                snap.leader_changes,
                snap.replication_lag_us,
                snap.wal_append_wait_us,
                snap.replication_batch_len
            );
            // One representative cell per scheme gets the windowed timeline:
            // the crash-dip / recovery-ramp shape is the point of the figure
            // and invisible in the whole-run aggregates above.
            if size == 60 {
                print_timeline(scheme.label(), &snap);
            }
        }
    }
    println!(
        "(recovery = wipe + checkpoint restore + durable-log replay; the partition stays\n\
         unreachable until the replay completes. compensated = crash-rolled-back txns whose\n\
         installed writes on surviving partitions were undone via before-images.\n\
         ldr-chg = replicated-log leader hand-offs; repl-lag = append-to-quorum-ack delay,\n\
         the local persist delay when the log is single-copy. app-wait = total time committers\n\
         spent blocked on a log sequencer; batch = mean entries per follower catch-up)"
    );

    header("Fig 12c: atomic-commit mode under a coordinator crash (2PL(NW), 3 log replicas)");
    println!(
        "{:<12} {:>10} {:>11} {:>16} {:>15} {:>9} {:>9}",
        "mode", "ktps", "decisions", "decide-mean(us)", "decide-p99(us)", "in-doubt", "orphaned"
    );
    for mode in [CommitMode::TwoPc, CommitMode::PaxosCommit] {
        let snap = Experiment::new()
            .protocol(ProtocolKind::TwoPlNoWait)
            .scale(*scale)
            .commit_mode(mode)
            .replication_factor(3)
            .crash(CrashPlan::coordinator(
                PartitionId(0),
                Duration::from_millis(scale.duration_ms / 2),
            ))
            .run();
        println!(
            "{:<12} {:>10.1} {:>11} {:>16.1} {:>15} {:>9} {:>9}",
            mode.label(),
            snap.ktps(),
            snap.commit_decisions,
            snap.commit_decide_mean_us,
            snap.commit_decide_p99_us,
            snap.in_doubt_resolved,
            snap.orphaned_txns
        );
    }
    println!(
        "(a one-shot coordinator crash fires between the vote round and the decision.\n\
         Classic 2PC orphans the in-doubt transaction — its locks leak and later\n\
         conflicting transactions block. Paxos Commit terminates it from the\n\
         quorum-durable vote set: in-doubt resolved, nothing orphaned. decide = the\n\
         prepare-to-decision latency the second 2PC round trip used to spend)"
    );
}

/// Fig. 13: lagging watermarks/epochs: (a) delayed control messages from one
/// partition; (b) a slow partition, with and without force-update.
pub fn fig13(scale: &Scale) {
    header("Fig 13a: control-message delay from one partition");
    let delays_ms = [0u64, 5, 10, 20, 30];
    println!(
        "{:<26} {}",
        "scheme",
        delays_ms.map(|d| format!("{d:>8}ms")).join(" ")
    );
    for (label, scheme, force) in [
        ("Watermark", LoggingScheme::Watermark, true),
        ("Watermark(no force)", LoggingScheme::Watermark, false),
        ("COCO", LoggingScheme::CocoEpoch, false),
    ] {
        let mut tput = Vec::new();
        let mut lat = Vec::new();
        for d in delays_ms {
            let snap = Experiment::new()
                .protocol(ProtocolKind::Primo)
                .scale(*scale)
                .lag_partition(PartitionId(1), d * 1000)
                .logging(scheme)
                .tweak_cluster(move |c| c.wal.force_update = force)
                .run();
            tput.push(format!("{:>9.1}", snap.ktps()));
            lat.push(format!("{:>9.2}", snap.mean_latency_ms));
        }
        println!("{label:<26} {}  (ktps)", tput.join(" "));
        println!("{:<26} {}  (latency ms)", "", lat.join(" "));
    }

    header("Fig 13b: slow partition (masked cores)");
    let slowdowns_us = [0u64, 50, 100, 200, 400];
    println!(
        "{:<26} {}",
        "scheme",
        slowdowns_us.map(|s| format!("{s:>8}us")).join(" ")
    );
    for (label, force) in [("Watermark", true), ("Watermark(no force)", false)] {
        let mut lat = Vec::new();
        let mut tput = Vec::new();
        for s in slowdowns_us {
            let snap = Experiment::new()
                .protocol(ProtocolKind::Primo)
                .scale(*scale)
                .slow_partition(PartitionId(1), s)
                .logging(LoggingScheme::Watermark)
                .tweak_cluster(move |c| c.wal.force_update = force)
                .run();
            lat.push(format!("{:>9.2}", snap.mean_latency_ms));
            tput.push(format!("{:>9.1}", snap.ktps()));
        }
        println!("{label:<26} {}  (latency ms)", lat.join(" "));
        println!("{:<26} {}  (ktps)", "", tput.join(" "));
    }
}

/// Fig. 14: scalability with the number of partitions (YCSB and TPC-C),
/// including Primo with COCO group commit ("Primo(COCO)").
pub fn fig14(scale: &Scale) {
    let partition_counts = [1usize, 2, 4, 8, 12, 16];
    for (title, use_tpcc) in [
        ("Fig 14a: YCSB scalability", false),
        ("Fig 14b: TPC-C scalability", true),
    ] {
        header(title);
        println!(
            "{:<22} {}",
            "protocol",
            partition_counts.map(|n| format!("{n:>8}")).join(" ")
        );
        let mut kinds: Vec<(String, ProtocolKind, Option<LoggingScheme>)> = HEADLINE
            .iter()
            .map(|k| (k.label().to_string(), *k, None))
            .collect();
        kinds.push((
            "Primo(COCO)".to_string(),
            ProtocolKind::Primo,
            Some(LoggingScheme::CocoEpoch),
        ));
        for (label, kind, scheme_override) in kinds {
            let mut row = Vec::new();
            for n in partition_counts {
                let mut exp = Experiment::new()
                    .protocol(kind)
                    .scale(scale.with_partitions(n));
                if let Some(scheme) = scheme_override {
                    exp = exp.logging(scheme);
                }
                if use_tpcc {
                    exp = exp.tpcc_with(|_| {});
                }
                row.push(format!("{:>8.1}", exp.run().ktps()));
            }
            println!("{label:<22} {}", row.join(" "));
        }
    }
}

/// Fig. 15: comparison with TAPIR (single worker per partition), low/high
/// contention × 20 %/80 % distributed.
pub fn fig15(scale: &Scale) {
    header("Fig 15: Primo vs TAPIR (1 worker thread per partition)");
    println!(
        "{:<10} {:<18} {:>10} {:>12} {:>12} {:>12}",
        "protocol", "setting", "ktps", "avg lat(ms)", "p99 lat(ms)", "abort rate"
    );
    for (contention, skew) in [("low", 0.0), ("high", 0.9)] {
        for dist in [0.2, 0.8] {
            for kind in [ProtocolKind::Primo, ProtocolKind::Tapir] {
                let snap = Experiment::new()
                    .protocol(kind)
                    .scale(scale.with_workers(1))
                    .ycsb_with(move |y| {
                        y.zipf_theta = skew;
                        y.distributed_ratio = dist;
                    })
                    .run();
                println!(
                    "{:<10} {:<18} {:>10.1} {:>12.2} {:>12.2} {:>12.3}",
                    kind.label(),
                    format!("{contention}, {}% dist", (dist * 100.0) as u32),
                    snap.ktps(),
                    snap.mean_latency_ms,
                    snap.p99_latency_ms,
                    snap.abort_rate
                );
            }
        }
    }
}

/// Fig. 16 (this repro's extension, not in the paper): read-only throughput
/// scaling with MVCC snapshot reads vs the validate-everything baseline.
///
/// Sweeps the YCSB read ratio upward; with 10 ops per transaction a read
/// ratio `r` makes a fraction `r^10` of the generated transactions fully
/// read-only, so the right end of the sweep is dominated by declared
/// read-only transactions. Each point runs twice — snapshot reads enabled
/// (declared read-only transactions resolve lock-free at the durable
/// group-commit horizon) and disabled (every transaction validates through
/// the protocol) — and reports the MVCC bookkeeping the run produced:
/// `snap-tps` (committed snapshot reads per second) and `pruned` (history
/// versions GC'd by the checkpointer at the horizon bound).
pub fn fig16(scale: &Scale) {
    header("Fig 16: read-only scaling (MVCC snapshot reads vs validate-everything)");
    let read_ratios = [0.5, 0.8, 0.9, 0.95, 1.0];
    println!(
        "{:<30} {:>8} {:>10} {:>10} {:>12} {:>10} {:>10} {:>13} {:>7}",
        "protocol / mode",
        "reads",
        "ktps",
        "p99(ms)",
        "snap-tps",
        "snaps",
        "pruned",
        "app-wait(us)",
        "batch"
    );
    for kind in [
        ProtocolKind::Primo,
        ProtocolKind::Sundial,
        ProtocolKind::Silo,
    ] {
        for snapshot_on in [true, false] {
            for r in read_ratios {
                let snap = Experiment::new()
                    .protocol(kind)
                    .scale(*scale)
                    .checkpoint_interval_ms(scale.duration_ms.max(4) / 4)
                    .ycsb_with(move |y| y.read_ratio = r)
                    .tweak_cluster(move |c| c.primo.read_only_snapshot = snapshot_on)
                    .run();
                println!(
                    "{:<30} {:>8.2} {:>10.1} {:>10.2} {:>12.0} {:>10} {:>10} {:>13} {:>7.1}",
                    format!(
                        "{} ({})",
                        kind.label(),
                        if snapshot_on { "snapshot" } else { "baseline" }
                    ),
                    r,
                    snap.ktps(),
                    snap.p99_latency_ms,
                    snap.snapshot_read_tps,
                    snap.snapshot_reads,
                    snap.pruned_versions,
                    snap.wal_append_wait_us,
                    snap.replication_batch_len
                );
            }
        }
    }
    println!(
        "(snapshot = declared read-only txns resolve at the durable group-commit horizon,\n\
         zero locks / zero validation / zero conflict aborts; baseline = the same txns run\n\
         through the protocol. pruned = history versions GC'd at the horizon bound.)"
    );
}

/// Appendix A: the analytical conflict-rate model.
pub fn appendix_a() {
    header("Appendix A: analytical conflict rates (CR_2PC vs CR_Primo)");
    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>10}",
        "Rr", "Rd", "CR_2PC", "CR_Primo", "advantage"
    );
    for rr in [0.0, 0.2, 0.5, 0.8, 0.9] {
        for rd in [0.2, 0.8] {
            let p = ModelParams {
                read_ratio: rr,
                distributed_ratio: rd,
                conflict_prob: 1e-6,
                ..Default::default()
            };
            println!(
                "{:>8.1} {:>8.1} {:>14.5} {:>14.5} {:>10.2}x",
                rr,
                rd,
                analysis::conflict_rate_2pc(&p),
                analysis::conflict_rate_primo(&p),
                analysis::advantage_ratio(&p)
            );
        }
    }

    header("Appendix A': remote-read round trips (sequential vs batched fan-out)");
    println!(
        "{:>8} {:>12} {:>10} {:>12}",
        "r_op", "seq rt/txn", "batched", "advantage"
    );
    for r_op in [0.05, 0.1, 0.3, 0.5, 1.0] {
        let p = ModelParams {
            remote_op_ratio: r_op,
            ..Default::default()
        };
        println!(
            "{:>8.2} {:>12.2} {:>10.2} {:>12.2}x",
            r_op,
            analysis::read_round_trips_sequential(&p),
            analysis::read_round_trips_batched(&p),
            analysis::batching_advantage(&p)
        );
    }
    println!(
        "(crossover at one expected remote op per txn: below it the batched fan-out is\n\
         the same single round trip the sequential path pays; above it the advantage is\n\
         exactly m·r, the per-record round trips the footprint collapses into one)"
    );
}

/// Run every figure.
pub fn all(scale: &Scale) {
    fig4(scale);
    fig5(scale);
    fig6(scale);
    fig7(scale);
    fig8(scale);
    fig9(scale);
    fig10(scale);
    fig11(scale);
    fig12(scale);
    fig13(scale);
    fig14(scale);
    fig15(scale);
    fig16(scale);
    appendix_a();
}
