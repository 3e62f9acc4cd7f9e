//! Batched remote-read fan-out: message accounting and outcome equivalence.
//!
//! The batching layer must change exactly one thing — how many network round
//! trips the read phase charges — and nothing else. These tests pin both
//! sides of that contract:
//!
//! * per-protocol round-trip accounting (in the style of the `twopl.rs`
//!   round-trip tests): a hinted transaction with `m` remote reads pays
//!   `m - 1` fewer round trips batched than sequential, with exact totals for
//!   the protocols whose commit rounds are pinned elsewhere;
//! * a seeded 9-protocol × 4-scheme equivalence suite: the same deterministic
//!   workload, run batched (the default) and sequential
//!   (`batch_remote_reads = false`), produces identical commit/abort
//!   outcomes and byte-identical stores — including across an injected
//!   partition crash and real recovery.

use primo_repro::{
    AbortReason, FastRng, Key, LoggingScheme, PartitionId, Primo, ProtocolKind, TableId,
    TraceEventKind, TxnContext, TxnProgram, TxnResult, Value,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const T: TableId = TableId(0);
const LOADED_KEYS: u64 = 32;
const FRESH_KEY: u64 = 5_000;
const DELETE_KEY: u64 = 9_999;

/// A read-modify-write over an explicit key list that advertises the whole
/// list as its static footprint — the YCSB shape, minimized.
#[derive(Clone)]
struct HintedRmw {
    home: PartitionId,
    keys: Vec<(PartitionId, Key)>,
}

impl TxnProgram for HintedRmw {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        for (p, k) in &self.keys {
            let v = ctx.read(*p, T, *k)?;
            ctx.write(*p, T, *k, Value::from_u64(v.as_u64() + 1))?;
        }
        Ok(())
    }
    fn home_partition(&self) -> PartitionId {
        self.home
    }
    fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
        self.keys.iter().map(|(p, k)| (*p, T, *k)).collect()
    }
}

fn build(kind: ProtocolKind, scheme: LoggingScheme, batched: bool, seed: u64) -> Primo {
    let b = Primo::builder()
        .partitions(3)
        .protocol(kind)
        .logging(scheme)
        .fast_local()
        .seed(seed);
    let b = if batched {
        b
    } else {
        b.tweak(|c| c.batch_remote_reads = false)
    };
    let primo = b.build();
    let session = primo.session();
    for p in 0..3u32 {
        for k in 0..LOADED_KEYS {
            session.load(PartitionId(p), T, k, Value::from_u64(k));
        }
        // Dedicated victim for the transactional delete in the workload.
        session.load(PartitionId(p), T, DELETE_KEY, Value::from_u64(99));
    }
    primo
}

/// Round trips charged by one run of `program` on a fresh cluster.
fn round_trips_for(kind: ProtocolKind, batched: bool, program: &dyn TxnProgram) -> u64 {
    let primo = build(kind, LoggingScheme::Watermark, batched, 7);
    let before = primo.cluster().net.round_trips_charged();
    primo.session().run_program(program).unwrap();
    let charged = primo.cluster().net.round_trips_charged() - before;
    primo.shutdown();
    charged
}

// ---------------------------------------------------------------------------
// Per-protocol round-trip accounting.
// ---------------------------------------------------------------------------

/// A hinted transaction with `m` remote reads on one partition collapses its
/// read phase to a single fan-out: `m - 1` round trips saved, under every
/// protocol, whatever its commit rounds cost.
#[test]
fn batching_saves_m_minus_one_round_trips_for_every_protocol() {
    let program = HintedRmw {
        home: PartitionId(0),
        keys: vec![
            (PartitionId(1), 3),
            (PartitionId(1), 4),
            (PartitionId(1), 5),
        ],
    };
    for kind in ProtocolKind::ALL {
        let seq = round_trips_for(kind, false, &program);
        let bat = round_trips_for(kind, true, &program);
        assert_eq!(
            seq - bat,
            2,
            "{}: 3 remote reads must batch into 1 fan-out (seq {seq}, batched {bat})",
            kind.label()
        );
    }
}

/// Exact totals for the protocols whose commit rounds are pinned by their own
/// round-trip tests: reads collapse to one fan-out, commit rounds unchanged.
#[test]
fn exact_round_trip_totals_with_batching() {
    let program = HintedRmw {
        home: PartitionId(0),
        keys: vec![
            (PartitionId(1), 3),
            (PartitionId(1), 4),
            (PartitionId(1), 5),
        ],
    };
    // (kind, sequential, batched): sequential = m reads + commit rounds;
    // batched replaces the m reads with one fan-out.
    let cases = [
        // WCF Primo: exclusive-locked remote reads, no 2PC.
        (ProtocolKind::Primo, 3, 1),
        (ProtocolKind::PrimoNoWm, 3, 1),
        // Non-WCF ablation: shared reads + prepare + commit.
        (ProtocolKind::PrimoNoWcfNoWm, 5, 3),
        // 2PL and the OCC baselines: reads + prepare + commit.
        (ProtocolKind::TwoPlNoWait, 5, 3),
        (ProtocolKind::TwoPlWaitDie, 5, 3),
        (ProtocolKind::Silo, 5, 3),
        (ProtocolKind::Sundial, 5, 3),
        // TAPIR: reads + one consolidated prepare round.
        (ProtocolKind::Tapir, 4, 2),
    ];
    for (kind, want_seq, want_bat) in cases {
        assert_eq!(
            round_trips_for(kind, false, &program),
            want_seq,
            "{}: sequential round trips",
            kind.label()
        );
        assert_eq!(
            round_trips_for(kind, true, &program),
            want_bat,
            "{}: batched round trips",
            kind.label()
        );
    }
}

/// A footprint spanning two remote partitions still resolves in ONE round
/// trip — the fan-out is charged at the slowest partition, not the sum.
#[test]
fn fan_out_across_partitions_is_one_round_trip() {
    let program = HintedRmw {
        home: PartitionId(0),
        keys: vec![(PartitionId(1), 3), (PartitionId(2), 4)],
    };
    assert_eq!(round_trips_for(ProtocolKind::Primo, false, &program), 2);
    assert_eq!(round_trips_for(ProtocolKind::Primo, true, &program), 1);
}

/// WCF dummy reads (pre-locking blind writes) piggyback on the batch: two
/// remote blind writes cost one fan-out instead of two dummy-read rounds.
#[test]
fn wcf_dummy_reads_piggyback_on_the_batch() {
    #[derive(Clone)]
    struct BlindWrites;
    impl TxnProgram for BlindWrites {
        fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
            ctx.write(PartitionId(1), T, 3, Value::from_u64(77))?;
            ctx.write(PartitionId(1), T, 4, Value::from_u64(78))
        }
        fn home_partition(&self) -> PartitionId {
            PartitionId(0)
        }
        fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
            vec![(PartitionId(1), T, 3), (PartitionId(1), T, 4)]
        }
    }
    let seq = round_trips_for(ProtocolKind::Primo, false, &BlindWrites);
    let bat = round_trips_for(ProtocolKind::Primo, true, &BlindWrites);
    assert_eq!(seq, 2, "each dummy read pays its own round trip");
    assert_eq!(bat, 1, "both dummy reads are covered by the fan-out");
}

/// The cluster-level prefetch counters and the flight recorder both see the
/// fan-out: one issue event, a hit per covered read, a live hit rate.
#[test]
fn prefetch_counters_and_trace_events_record_the_fan_out() {
    let primo = build(ProtocolKind::Primo, LoggingScheme::Watermark, true, 7);
    let program = HintedRmw {
        home: PartitionId(0),
        keys: vec![
            (PartitionId(1), 3),
            (PartitionId(1), 4),
            (PartitionId(1), 5),
        ],
    };
    primo.session().run_program(&program).unwrap();
    let cluster = primo.cluster();
    assert_eq!(cluster.prefetch_fanouts(), 1);
    assert_eq!(cluster.prefetch_hits(), 3);
    assert_eq!(cluster.prefetch_stale(), 0);
    assert!((cluster.prefetch_hit_rate() - 1.0).abs() < 1e-9);

    let timeline = cluster.recorder.merge();
    let issued = timeline
        .of_kind(|k| matches!(k, TraceEventKind::PrefetchIssued { .. }))
        .events()
        .len();
    let hits = timeline
        .of_kind(|k| matches!(k, TraceEventKind::PrefetchHit))
        .events()
        .len();
    assert_eq!(issued, 1, "one PrefetchIssued event per fan-out");
    assert_eq!(hits, 3, "one PrefetchHit event per covered read");
    primo.shutdown();
}

/// A prefetched version that is overwritten between the fan-out and the read
/// is detected as stale: the read pays its round trip, returns the live
/// value, and the transaction still commits correctly.
#[test]
fn stale_prefetch_falls_back_to_a_live_read() {
    #[derive(Clone)]
    struct StaleSecondRead {
        cluster: Arc<primo_repro::runtime::cluster::Cluster>,
    }
    impl TxnProgram for StaleSecondRead {
        fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
            // First read hits the prefetch buffer.
            ctx.read(PartitionId(1), T, 3)?;
            // An external writer bumps key 4 *after* the fan-out observed it.
            self.cluster
                .partition(PartitionId(1))
                .store
                .get(T, 4)
                .unwrap()
                .install_next_version(Value::from_u64(4_000));
            // The prefetched wts no longer matches: stale, live round trip.
            let v = ctx.read(PartitionId(1), T, 4)?;
            assert_eq!(v.as_u64(), 4_000, "a stale hit must read the live value");
            Ok(())
        }
        fn home_partition(&self) -> PartitionId {
            PartitionId(0)
        }
        fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
            vec![(PartitionId(1), T, 3), (PartitionId(1), T, 4)]
        }
    }
    let primo = build(ProtocolKind::TwoPlNoWait, LoggingScheme::CocoEpoch, true, 7);
    let program = StaleSecondRead {
        cluster: Arc::clone(primo.cluster()),
    };
    primo.session().run_program(&program).unwrap();
    let cluster = primo.cluster();
    assert!(
        cluster.prefetch_stale() >= 1,
        "the bumped key must be stale"
    );
    assert!(cluster.prefetch_hits() >= 1, "the untouched key still hits");
    let stale_events = cluster
        .recorder
        .merge()
        .of_kind(|k| matches!(k, TraceEventKind::PrefetchStale))
        .events()
        .len();
    assert!(stale_events >= 1, "PrefetchStale must be traced");
    primo.shutdown();
}

/// Hint-less programs with a conflict abort learn their footprint: the retry
/// resolves the aborted attempt's observed remote set in one fan-out.
#[test]
fn learned_footprint_batches_the_retry() {
    use std::sync::atomic::{AtomicBool, Ordering};

    struct FailsOnce {
        cluster: Arc<primo_repro::runtime::cluster::Cluster>,
        failed: AtomicBool,
    }
    impl TxnProgram for FailsOnce {
        fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
            // No hint: the first attempt pays one round trip per remote read.
            for k in [3u64, 4, 5] {
                ctx.read(PartitionId(1), T, k)?;
            }
            if !self.failed.swap(true, Ordering::SeqCst) {
                // First attempt: bail out with a retryable conflict so the
                // worker captures the observed remote set as the next plan.
                return Err(primo_repro::TxnError::Aborted(AbortReason::LockConflict));
            }
            ctx.write(PartitionId(0), T, 1, Value::from_u64(9))
        }
        fn home_partition(&self) -> PartitionId {
            PartitionId(0)
        }
    }
    let primo = build(ProtocolKind::TwoPlNoWait, LoggingScheme::CocoEpoch, true, 7);
    let program = FailsOnce {
        cluster: Arc::clone(primo.cluster()),
        failed: AtomicBool::new(false),
    };
    let _ = &program.cluster; // cluster handle kept for symmetry with the stale test
    let attempts = primo.session().run_program(&program).unwrap();
    assert_eq!(attempts, 2, "exactly one retry");
    let cluster = primo.cluster();
    // Attempt 1: no plan -> 3 misses. Attempt 2: learned plan -> 3 hits.
    assert_eq!(cluster.prefetch_fanouts(), 1, "only the retry fans out");
    assert_eq!(cluster.prefetch_hits(), 3);
    assert_eq!(cluster.prefetch_misses(), 3);
    primo.shutdown();
}

// ---------------------------------------------------------------------------
// 9-protocol × 4-scheme equivalence: batched vs sequential.
// ---------------------------------------------------------------------------

/// Byte-level snapshot of one partition's committed keys and payloads.
fn value_snapshot(primo: &Primo, p: PartitionId) -> BTreeMap<u64, Vec<u8>> {
    let table = primo.cluster().partition(p).store.table(T);
    let mut keys = table.scan_keys(|_| true);
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| {
            let rec = table.get(k).expect("scanned key exists");
            (k, rec.read().value.as_bytes().to_vec())
        })
        .collect()
}

/// The deterministic seeded workload both modes run: a mix of distributed
/// RMWs (hinted), an insert and a delete, plus a hint-less closure program so
/// the empty-footprint path is exercised in the same run.
fn run_workload(primo: &Primo, seed: u64) -> Vec<Result<usize, AbortReason>> {
    let mut rng = FastRng::new(seed);
    let session = primo.session();
    let mut outcomes = Vec::new();
    for i in 0..10u64 {
        let home = PartitionId((rng.next_below(3)) as u32);
        let mut keys = Vec::new();
        for _ in 0..4 {
            let p = PartitionId(rng.next_below(3) as u32);
            keys.push((p, rng.next_below(LOADED_KEYS)));
        }
        // Force at least one remote access so every transaction can batch.
        let remote = PartitionId((home.0 + 1) % 3);
        keys.push((remote, rng.next_below(LOADED_KEYS)));
        keys.sort_unstable();
        keys.dedup();
        outcomes.push(session.run_program(&HintedRmw { home, keys }));
        if i == 4 {
            // Lifecycle ops mid-stream, through a hint-less program (so the
            // empty-footprint path runs in the same workload): a remote
            // insert of a fresh key and a remote delete of a loaded one.
            #[derive(Clone)]
            struct InsertDelete;
            impl TxnProgram for InsertDelete {
                fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
                    ctx.insert(PartitionId(1), T, FRESH_KEY, Value::from_u64(1))?;
                    ctx.delete(PartitionId(1), T, DELETE_KEY)
                }
                fn home_partition(&self) -> PartitionId {
                    PartitionId(0)
                }
            }
            outcomes.push(session.run_program(&InsertDelete));
        }
    }
    outcomes
}

/// One combo of the equivalence matrix: run the seeded workload batched and
/// sequential, then crash + recover a partition in both, and require
/// identical outcomes and byte-identical stores throughout.
fn equivalent_with_and_without_batching(kind: ProtocolKind, scheme: LoggingScheme) {
    let seed = kind as u64 * 101 + scheme as u64 * 13 + 5;
    let label = format!("{}/{}", kind.label(), scheme.label());

    let run = |batched: bool| {
        let primo = build(kind, scheme, batched, seed);
        primo.checkpoint_all();
        let outcomes = run_workload(&primo, seed);
        // Let the committed work become durable, then crash and recover the
        // partition most of the remote traffic hit.
        std::thread::sleep(Duration::from_millis(40));
        let target = PartitionId(1);
        let before = value_snapshot(&primo, target);
        primo.crash_partition(target);
        primo.recover_partition(target).expect("recovery must run");
        assert_eq!(
            before,
            value_snapshot(&primo, target),
            "{label}: recovery diverged from the crash-free state (batched={batched})"
        );
        let snaps: Vec<_> = (0..3u32)
            .map(|p| value_snapshot(&primo, PartitionId(p)))
            .collect();
        primo.shutdown();
        (outcomes, snaps)
    };

    let (outcomes_batched, stores_batched) = run(true);
    let (outcomes_seq, stores_seq) = run(false);
    assert_eq!(
        outcomes_batched, outcomes_seq,
        "{label}: commit/abort outcomes must not depend on batching"
    );
    assert_eq!(
        stores_batched, stores_seq,
        "{label}: stores must be byte-identical with and without batching"
    );
}

#[test]
fn batched_and_sequential_runs_are_equivalent_for_all_protocols_and_schemes() {
    for kind in ProtocolKind::ALL {
        for scheme in LoggingScheme::ALL {
            equivalent_with_and_without_batching(kind, scheme);
        }
    }
}

/// Batching defaults on, and the sequential tweak really reaches the config.
#[test]
fn batching_is_on_by_default_and_tweakable() {
    let on = Primo::builder().partitions(1).fast_local().build();
    assert!(on.cluster().config.batch_remote_reads);
    on.shutdown();
    let off = Primo::builder()
        .partitions(1)
        .fast_local()
        .tweak(|c| c.batch_remote_reads = false)
        .build();
    assert!(!off.cluster().config.batch_remote_reads);
    off.shutdown();
}
