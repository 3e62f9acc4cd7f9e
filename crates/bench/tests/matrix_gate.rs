//! Release-mode sweep of the evaluation's protocol × group-commit matrix
//! (§6, Fig 11): every protocol kind commits under every scheme, and the
//! lock-based and the OCC-ish protocol commit under both atomic-commit modes
//! (the 2PC vs Paxos Commit ablation of Gray & Lamport, *Consensus on
//! Transaction Commit*).
//!
//! Every cell is write-heavy YCSB (read ratio 0.5, so nearly every
//! transaction logs a write-set) at replication factor 3, checkpointing every
//! quarter window. A cell commits when it commits a transaction through the
//! protocol and the group commit: the rare all-read transaction resolves as
//! a snapshot read, which neither of them sees, so those do not count.
//! Windows are at least 200 ms: at 60 ms the watermark cell of Primo without
//! WCF and WM can end before any watermark acknowledges its waiters.
//!
//! End-to-end worker-thread runs, so `#[ignore]` by default; CI runs it in
//! release with the other gates:
//!
//! ```text
//! cargo test --release -p primo-bench --test matrix_gate -- --ignored --nocapture
//! ```

use primo_bench::Scale;
use primo_repro::{
    ClusterBuilder, CommitMode, LoggingScheme, MetricsSnapshot, Primo, ProtocolKind,
};

const WINDOW_MS: u64 = 200;

fn write_heavy(cluster: ClusterBuilder) -> MetricsSnapshot {
    let scale = Scale {
        duration_ms: WINDOW_MS,
        ..Scale::quick()
    };
    cluster
        .replication_factor(3)
        .experiment()
        .scale(scale)
        .checkpoint_interval_ms(WINDOW_MS / 4)
        .ycsb_with(|y| y.read_ratio = 0.5)
        .run()
}

#[test]
#[ignore = "end-to-end worker-thread runs; CI runs it in release with --ignored"]
fn every_protocol_commits_under_every_scheme_and_commit_mode() {
    let mut idle = Vec::new();
    for kind in ProtocolKind::ALL {
        for scheme in LoggingScheme::ALL {
            let snap = write_heavy(Primo::builder().protocol(kind).logging(scheme));
            eprintln!(
                "{:<20} {:<10} committed {:>7} ({} snapshot reads)  tps {:>9.0}  p99 {:>7.2} ms  abort {:.3}",
                kind.label(),
                scheme.label(),
                snap.committed,
                snap.snapshot_reads,
                snap.throughput_tps,
                snap.p99_latency_ms,
                snap.abort_rate
            );
            if snap.committed <= snap.snapshot_reads {
                idle.push(format!("{} / {}", kind.label(), scheme.label()));
            }
        }
    }
    for kind in [ProtocolKind::TwoPlNoWait, ProtocolKind::Primo] {
        for mode in [CommitMode::TwoPc, CommitMode::PaxosCommit] {
            let snap = write_heavy(Primo::builder().protocol(kind).commit_mode(mode));
            eprintln!(
                "{:<20} {:<12} committed {:>7} ({} snapshot reads)  decisions {:>6}  decide mean {:>7.1} us",
                kind.label(),
                mode.label(),
                snap.committed,
                snap.snapshot_reads,
                snap.commit_decisions,
                snap.commit_decide_mean_us
            );
            if snap.committed <= snap.snapshot_reads {
                idle.push(format!("{} / {}", kind.label(), mode.label()));
            }
        }
    }
    assert!(idle.is_empty(), "cells that committed nothing: {idle:?}");
}
