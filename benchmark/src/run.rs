//! One measured repeat: a fresh cluster, the loaded workload, a closed-loop
//! window driven by the engine's own worker loop, then the correctness gate.

use crate::check::{self, Gate};
use crate::spec::{SeededWorkload, WorkloadKind, PARTITIONS, WAL_INTERVAL_MS};
use crate::traced::TracedWorkload;
use primo_repro::runtime::experiment::{run_on_cluster, ExperimentOptions};
use primo_repro::{MetricsSnapshot, Primo, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run inside the window before recording starts: long enough for the first
/// watermarks to circulate and the allocator to reach its working set.
pub const WARMUP: Duration = Duration::from_millis(300);

/// A loaded cluster after its window and gate. Still usable (every partition
/// was recovered); the holder shuts it down.
pub struct Repeat {
    pub primo: Primo,
    /// The seeded workload the cluster was loaded from.
    pub workload: Arc<SeededWorkload>,
    /// Cluster build + load + base checkpoint, seconds.
    pub setup_s: f64,
    pub snap: MetricsSnapshot,
    /// Processor time the whole process used per committed transaction, µs.
    pub cpu_us_per_txn: f64,
    /// Flight-recorder events emitted up to the end of the window (the gate
    /// and the probes emit more).
    pub trace_events: u64,
    pub gate: Gate,
    /// The wrapper that recorded the window, when it was a traced one.
    pub traced: Option<Arc<TracedWorkload>>,
    /// Everything from the first line of set-up to the end of the gate.
    pub wall_s: f64,
}

/// Set-up as `setup_s` reports it: build the cluster, load the workload's
/// database and take the base checkpoint recovery restores from.
pub fn setup(kind: WorkloadKind, seed: u64) -> (Primo, Arc<SeededWorkload>, f64) {
    let begun = Instant::now();
    let primo = kind.cluster(seed);
    let seeded = kind.workload(seed);
    for p in primo.cluster().partition_ids() {
        seeded.load_partition(&primo.cluster().partition(p).store, p);
    }
    primo.checkpoint_all();
    let setup_s = begun.elapsed().as_secs_f64();
    (primo, seeded, setup_s)
}

/// Processor time this process has used so far, user and system, all
/// threads, microseconds.
fn process_cpu_us() -> f64 {
    // Linux reports these in USER_HZ ticks, which is 100 per second on every
    // architecture's user-space ABI.
    const US_PER_TICK: f64 = 10_000.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) may hold spaces; fields 3.. follow its ')'.
    let (_, rest) = stat.rsplit_once(')').expect("stat has a command field");
    let field = |n: usize| -> f64 {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|f| f.parse().ok())
            .expect("utime and stime are numbers")
    };
    (field(14) + field(15)) * US_PER_TICK
}

/// Drive the loaded cluster for [`WARMUP`] + `duration` with the engine's own
/// closed-loop workers. Returns what they recorded in the last `duration`,
/// and the processor time per committed transaction: the process's use over
/// the whole call, against the commits recorded scaled up to the whole call
/// (the in-window warm-up runs at the same rate).
fn window(
    primo: &Primo,
    workload: Arc<dyn Workload>,
    duration: Duration,
) -> (MetricsSnapshot, f64) {
    let options = ExperimentOptions {
        warmup: WARMUP,
        duration,
        ..ExperimentOptions::default()
    };
    let cpu_before = process_cpu_us();
    let snap = run_on_cluster(
        primo.cluster(),
        Arc::clone(primo.protocol()),
        workload,
        &options,
    );
    let cpu_us = process_cpu_us() - cpu_before;
    let commits =
        snap.committed as f64 * (WARMUP + duration).as_secs_f64() / duration.as_secs_f64();
    (snap, cpu_us / commits.max(1.0))
}

/// A discarded window on a cluster of its own, before the measured ones: the
/// process's heap grows to its working size here, not inside a measurement.
/// First-touch page faults are the largest disturbance in this sandbox; a
/// window that has to grow the heap ran `tpcc_full` 15–35 % slow.
pub fn warm_up(kind: WorkloadKind, seed: u64, duration: Duration) {
    let (primo, seeded, _) = setup(kind, seed);
    window(&primo, seeded, duration);
    primo.shutdown();
}

/// Build a cluster for `kind`, load it, run one window and gate it.
pub fn repeat(kind: WorkloadKind, seed: u64, duration: Duration, trace: bool) -> Repeat {
    let begun = Instant::now();
    let (primo, seeded, setup_s) = setup(kind, seed);

    let traced = trace.then(|| Arc::new(TracedWorkload::new(seeded.clone(), PARTITIONS)));
    let workload: Arc<dyn Workload> = match &traced {
        Some(t) => t.clone(),
        None => seeded.clone(),
    };
    let (snap, cpu_us_per_txn) = window(&primo, workload, duration);
    let trace_events = primo.cluster().recorder.events_recorded();

    // Workers have stopped and drained their acknowledgements. A few more
    // group-commit intervals let the last watermark / epoch cover every
    // commit, so the crash the gate injects rolls nothing back.
    std::thread::sleep(Duration::from_millis(5 * WAL_INTERVAL_MS));
    let gate = check::run(&primo, kind.tpcc().as_ref());

    Repeat {
        primo,
        workload: seeded,
        setup_s,
        snap,
        cpu_us_per_txn,
        trace_events,
        gate,
        traced,
        wall_s: begun.elapsed().as_secs_f64(),
    }
}
