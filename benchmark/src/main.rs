//! The repository's benchmark. One invocation measures one workload:
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! With `--trace 0` it runs the measured repeats with no wrapper in the way
//! and prints the end-to-end metrics; with `--trace 1` it runs one plain and
//! one traced window plus the layer probes and prints the per-layer metrics.
//! Either way the correctness gate runs after every window, a log goes to
//! standard error, and the last line of standard output is one JSON object.
//! `README.md` beside this package is the glossary.

mod check;
mod json;
mod probes;
mod run;
mod spec;
mod stats;
mod traced;

use json::Metric;
use primo_repro::AbortReason;
use run::Repeat;
use spec::WorkloadKind;
use stats::median;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Every end-to-end metric (`--trace 0`), as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("tps", "1/s"),
    ("commit_mean_ms", "ms"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Every per-layer metric (`--trace 1`), as `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str)] = &[
    // Spans of the traced run, per transaction unless the name says per call.
    ("workloads.generate_ns", "ns"),
    ("runtime.pre_body_us", "us"),
    ("protocol.body_us", "us"),
    ("protocol.post_body_us", "us"),
    ("protocol.ctx_read_local_ns", "ns"),
    ("protocol.ctx_write_ns", "ns"),
    ("protocol.ctx_read_remote_pct", "%"),
    ("protocol.ctx_insert_delete_pct", "%"),
    ("runtime.retry_gap_pct", "%"),
    ("protocol.attempts_per_txn", "count"),
    ("protocol.dist_critical_path_delays", "delays"),
    ("runtime.span_coverage_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    // Counts at the same boundaries, from the traced run's cluster.
    ("net.msgs_per_txn", "count"),
    ("net.round_trips_per_txn", "count"),
    ("net.round_trips_per_dist_txn", "count"),
    ("runtime.prefetch_hit_rate", "ratio"),
    ("runtime.commit_decide_delays", "delays"),
    ("runtime.snapshot_read_share", "ratio"),
    ("protocol.abort_rate", "ratio"),
    ("wal.replication_batch_len", "count"),
    ("trace.events_per_txn", "count"),
    ("runtime.commit_p50_intervals", "intervals"),
    ("runtime.commit_p99_intervals", "intervals"),
    ("runtime.dist_commit_p99_intervals", "intervals"),
    ("runtime.commit_max_ms", "ms"),
    ("runtime.cpu_us_per_txn", "us"),
    ("recovery.recover_us_per_txn", "us"),
    ("recovery.recover_ms", "ms"),
    ("recovery.replayed_txns", "count"),
    // Layer probes on the quiescent cluster.
    ("storage.get_ns", "ns"),
    ("storage.lock_cycle_ns", "ns"),
    ("storage.install_ns", "ns"),
    ("storage.read_at_ns", "ns"),
    ("storage.insert_ns", "ns"),
    ("wal.append_ns", "ns"),
    ("wal.append_2t_ns", "ns"),
    ("wal.quorum_ack_us", "us"),
    ("wal.gc_cycle_ns", "ns"),
    ("wal.release_lag_ms", "ms"),
    ("net.round_trip_overhead_us", "us"),
    ("net.bus_lag_us", "us"),
    ("runtime.fanout_overhead_us", "us"),
    ("trace.emit_ns", "ns"),
    ("recovery.checkpoint_ms", "ms"),
    ("facade.unloaded_local_ms", "ms"),
    ("facade.unloaded_dist_ms", "ms"),
    ("common.spin_overshoot_pct", "%"),
    ("bench.disturbed", "count"),
];

const USAGE: &str = "usage: benchmark --workload <ycsb_local|ycsb_dist|tpcc_full|ycsb_hot_2pc> \
                     [--seed N] [--seconds S] [--trace 0|1] [--quick]";

/// Measured repeats of an end-to-end run; each gets `seconds / REPEATS`.
const REPEATS: u32 = 3;
/// Set-ups timed on their own, beside the one each repeat does: at least
/// this many, and more until they have taken `SETUP_SAMPLING` together, so
/// that a sub-millisecond set-up (`ycsb_hot_2pc`) is a median of hundreds.
const MIN_EXTRA_SETUPS: u32 = 6;
const MAX_EXTRA_SETUPS: u32 = 400;
const SETUP_SAMPLING: Duration = Duration::from_millis(300);
/// `--quick`: one short window, for smoke tests.
const QUICK_WINDOW: Duration = Duration::from_millis(300);

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let mut opts = Options {
            workload: WorkloadKind::YcsbLocal,
            seed: 0x5EED,
            seconds: 12,
            trace: false,
            quick: false,
        };
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    workload = Some(
                        WorkloadKind::from_name(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => opts.seed = parse_u64(&value("a number")?)?,
                "--seconds" => {
                    opts.seconds = parse_u64(&value("a number of seconds")?)?;
                    if !(1..=60).contains(&opts.seconds) {
                        return Err(format!("--seconds {} is outside 1..=60", opts.seconds));
                    }
                }
                "--trace" => {
                    opts.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--quick" => opts.quick = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        opts.workload = workload.ok_or("--workload is required")?;
        Ok(opts)
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("{s:?} is not a number: {e}"))
}

/// The seed of one window of a run: distinct for every (run seed, window).
fn window_seed(seed: u64, window: u32) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(u64::from(window))
}

/// What one invocation reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Transactions a window ran to an end, and how many of those did not commit.
fn attempted_and_failed(r: &Repeat) -> (u64, u64) {
    let failed = r.snap.abandoned + r.snap.aborts_for(AbortReason::CrashAbort);
    (r.snap.committed + failed, failed)
}

fn log_repeat(label: &str, r: &Repeat) {
    let s = &r.snap;
    eprintln!(
        "  {label}: tps {:.0}  mean {:.2} ms  p50 {:.2}  p99 {:.2}  max {:.1}  committed {}  \
         aborts {:.2} %  cpu {:.1} us/txn  setup {:.3} s  recover {:.2} us/txn ({} txns)  wall {:.1} s",
        s.throughput_tps,
        s.mean_latency_ms,
        s.p50_latency_ms,
        s.p99_latency_ms,
        s.max_latency_ms,
        s.committed,
        100.0 * s.abort_rate,
        r.cpu_us_per_txn,
        r.setup_s,
        r.gate.recover_us_per_txn,
        r.gate.replayed_txns,
        r.wall_s,
    );
    for v in &r.gate.violations {
        eprintln!("  {label}: VIOLATION {v}");
    }
}

fn min_max(values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("min {lo:.4} max {hi:.4} of {}", values.len())
}

fn end_to_end(opts: &Options) -> Outcome {
    let kind = opts.workload;
    let (repeats, window, setup_sampling) = if opts.quick {
        (1, QUICK_WINDOW, Duration::ZERO)
    } else {
        (
            REPEATS,
            Duration::from_secs_f64(opts.seconds as f64 / f64::from(REPEATS)),
            SETUP_SAMPLING,
        )
    };

    run::warm_up(kind, window_seed(opts.seed, 99), window);
    let mut setups = Vec::new();
    let sampling = Instant::now();
    for i in 0..MAX_EXTRA_SETUPS {
        if i >= MIN_EXTRA_SETUPS && sampling.elapsed() >= setup_sampling {
            break;
        }
        let (primo, _, setup_s) = run::setup(kind, window_seed(opts.seed, 100 + i));
        primo.shutdown();
        setups.push(setup_s);
    }

    let (mut tps, mut mean_ms) = (Vec::new(), Vec::new());
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for i in 0..repeats {
        let r = run::repeat(kind, window_seed(opts.seed, i), window, false);
        r.primo.shutdown();
        log_repeat(&format!("repeat {}", i + 1), &r);
        let (a, f) = attempted_and_failed(&r);
        attempted += a;
        failed += f;
        correct &= r.gate.violations.is_empty();
        tps.push(r.snap.throughput_tps);
        mean_ms.push(r.snap.mean_latency_ms);
        setups.push(r.setup_s);
    }
    eprintln!("  tps {}", min_max(&tps));
    eprintln!("  commit_mean_ms {}", min_max(&mean_ms));
    eprintln!("  setup_s {}", min_max(&setups));

    Outcome {
        correct,
        attempted,
        failed,
        metrics: vec![
            Metric::new("tps", median(&tps)),
            Metric::new("commit_mean_ms", median(&mean_ms)),
            Metric::new("rss_peak_mb", rss_peak_mb()),
            Metric::new("setup_s", median(&setups)),
        ],
    }
}

/// Peak resident set of this process (`VmHWM`), megabytes.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(opts: &Options) -> Outcome {
    let kind = opts.workload;
    // A plain window, a traced window, and the probes share the run's time.
    let window = if opts.quick {
        QUICK_WINDOW
    } else {
        Duration::from_secs_f64(opts.seconds as f64 / 3.0)
    };
    let seed = window_seed(opts.seed, 0);

    run::warm_up(kind, window_seed(opts.seed, 99), window);
    // The plain window's cluster is dropped before the traced one is built:
    // a second live cluster would make the traced window grow the heap, and
    // the page faults would be booked as tracing overhead.
    let (plain_tps, plain_cpu_us_per_txn, plain_correct, (a1, f1)) = {
        let plain = run::repeat(kind, seed, window, false);
        plain.primo.shutdown();
        log_repeat("plain ", &plain);
        (
            plain.snap.throughput_tps,
            plain.cpu_us_per_txn,
            plain.gate.violations.is_empty(),
            attempted_and_failed(&plain),
        )
    };
    let traced = run::repeat(kind, seed, window, true);
    log_repeat("traced", &traced);

    let events = traced
        .traced
        .as_ref()
        .expect("the second window was traced")
        .take_events();
    // Spans of the recorded window only; counters the cluster kept since it
    // was built are divided by every transaction it ran, warm-up included.
    let win = traced::fold(&events, run::WARMUP.as_nanos() as u64);
    let all = traced::fold(&events, 0);
    let per_txn_us = |ns: u64| ratio(ns as f64 / 1000.0, win.txns as f64);
    let per_call_ns = |c: traced::Calls| ratio(c.ns as f64, f64::from(c.count));
    let pct_of_wall = |ns: u64| 100.0 * ratio(ns as f64, win.wall_ns as f64);
    let snap = &traced.snap;
    let cfg = &traced.primo.cluster().config;
    let one_way_us = cfg.net.one_way_us as f64;
    let interval_ms = cfg.wal.interval_ms as f64;
    let round_trips = snap.remote_round_trips_per_dist_txn * snap.dist_committed as f64;

    let mut metrics = vec![
        Metric::new(
            "workloads.generate_ns",
            ratio(win.generate_ns as f64, win.txns as f64),
        ),
        Metric::new("runtime.pre_body_us", per_txn_us(win.pre_body_ns)),
        Metric::new("protocol.body_us", per_txn_us(win.body_ns)),
        Metric::new("protocol.post_body_us", per_txn_us(win.post_body_ns)),
        Metric::new(
            "protocol.ctx_read_local_ns",
            per_call_ns(win.calls.read_local),
        ),
        Metric::new("protocol.ctx_write_ns", per_call_ns(win.calls.write)),
        Metric::new(
            "protocol.ctx_read_remote_pct",
            pct_of_wall(win.calls.read_remote.ns),
        ),
        Metric::new(
            "protocol.ctx_insert_delete_pct",
            pct_of_wall(win.calls.insert.ns + win.calls.delete.ns),
        ),
        Metric::new("runtime.retry_gap_pct", pct_of_wall(win.retry_gap_ns)),
        Metric::new(
            "protocol.attempts_per_txn",
            ratio(win.bodies as f64, win.txns as f64),
        ),
        Metric::new(
            "protocol.dist_critical_path_delays",
            ratio(win.dist_path_ns as f64 / 1000.0, win.dist_txns as f64) / one_way_us,
        ),
        Metric::new("runtime.span_coverage_pct", win.coverage_pct()),
        Metric::new(
            "bench.trace_overhead_pct",
            100.0 * (plain_tps - snap.throughput_tps) / plain_tps,
        ),
        Metric::new(
            "net.msgs_per_txn",
            ratio(snap.messages as f64, all.txns as f64),
        ),
        Metric::new(
            "net.round_trips_per_txn",
            ratio(round_trips, all.txns as f64),
        ),
        Metric::new(
            "net.round_trips_per_dist_txn",
            ratio(round_trips, all.dist_txns as f64),
        ),
        Metric::new("runtime.prefetch_hit_rate", snap.prefetch_hit_rate),
        Metric::new(
            "runtime.commit_decide_delays",
            snap.commit_decide_mean_us / one_way_us,
        ),
        Metric::new(
            "runtime.snapshot_read_share",
            ratio(snap.snapshot_reads as f64, snap.committed as f64),
        ),
        Metric::new("protocol.abort_rate", snap.abort_rate),
        Metric::new("wal.replication_batch_len", snap.replication_batch_len),
        Metric::new(
            "trace.events_per_txn",
            ratio(traced.trace_events as f64, all.txns as f64),
        ),
        Metric::new(
            "runtime.commit_p50_intervals",
            snap.p50_latency_ms / interval_ms,
        ),
        Metric::new(
            "runtime.commit_p99_intervals",
            snap.p99_latency_ms / interval_ms,
        ),
        Metric::new(
            "runtime.dist_commit_p99_intervals",
            snap.dist_txn_p99_ms / interval_ms,
        ),
        Metric::new("runtime.commit_max_ms", snap.max_latency_ms),
        Metric::new("runtime.cpu_us_per_txn", plain_cpu_us_per_txn),
        Metric::new(
            "recovery.recover_us_per_txn",
            traced.gate.recover_us_per_txn,
        ),
        Metric::new("recovery.recover_ms", traced.gate.recover_ms),
        Metric::new("recovery.replayed_txns", traced.gate.replayed_txns as f64),
    ];

    let writes = win.calls.write.count + win.calls.insert.count + win.calls.delete.count;
    let writes_per_txn = (ratio(f64::from(writes), win.txns as f64).round() as usize).max(1);
    let scale = if opts.quick {
        probes::Scale::QUICK
    } else {
        probes::Scale::FULL
    };
    metrics.extend(probes::run(
        &traced.primo,
        traced.workload.as_ref(),
        writes_per_txn,
        scale,
    ));
    traced.primo.shutdown();

    let (a2, f2) = attempted_and_failed(&traced);
    let coverage_ok = (98.0..=102.0).contains(&win.coverage_pct());
    if !coverage_ok {
        eprintln!(
            "  VIOLATION span coverage {:.2} % is outside 98..102",
            win.coverage_pct()
        );
    }
    Outcome {
        correct: plain_correct && traced.gate.violations.is_empty() && coverage_ok,
        attempted: a1 + a2,
        failed: f1 + f2,
        metrics,
    }
}

/// Run the mode `opts` asks for, then the noise canary.
fn measure(opts: &Options) -> Outcome {
    let mut outcome = if opts.trace {
        per_layer(opts)
    } else {
        end_to_end(opts)
    };
    let overshoot = probes::spin_overshoot_pct();
    let disturbed = overshoot > probes::DISTURBED_ABOVE_PCT;
    if disturbed {
        eprintln!("  disturbed: a 100 us spin overshot by {overshoot:.1} % — timings are suspect");
    }
    if opts.trace {
        outcome
            .metrics
            .push(Metric::new("common.spin_overshoot_pct", overshoot));
        outcome.metrics.push(Metric::new(
            "bench.disturbed",
            f64::from(u8::from(disturbed)),
        ));
    }
    outcome
}

/// The registry `opts` reports against.
fn registry(opts: &Options) -> &'static [(&'static str, &'static str)] {
    if opts.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The first line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn header(opts: &Options) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "benchmark {}: seed {:#x}, {} s, trace {}, {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.quick { "quick" } else { "full" },
    );
    eprintln!(
        "  machine: {cores} cores; load: {} partitions x {} worker, closed loop",
        spec::PARTITIONS,
        spec::WORKERS_PER_PARTITION
    );
    eprintln!(
        "  build: {} profile, {}, commit {}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// Pair every registered metric with its measured value, in the registry's
/// order. The two sets must be the same: a name `BENCHMARK.json` does not
/// list, or lists and does not get, is refused by the driver.
fn with_units<'a>(
    metrics: &[Metric],
    registry: &'a [(&'a str, &'a str)],
) -> Vec<(&'a str, f64, &'a str)> {
    for m in metrics {
        assert!(
            registry.iter().any(|(name, _)| *name == m.name),
            "metric {} is not registered",
            m.name
        );
    }
    registry
        .iter()
        .map(|&(name, unit)| {
            let mut measured = metrics.iter().filter(|m| m.name == name);
            let value = measured
                .next()
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .value;
            assert!(
                measured.next().is_none(),
                "metric {name} was measured twice"
            );
            (name, value, unit)
        })
        .collect()
}

/// glibc malloc settings every run is made under: freed memory stays in the
/// process (no trimming, no separate mappings for large blocks) and the heap
/// grows in large steps. In this sandbox a first-touch page fault costs
/// 2–14 µs depending on what the virtual machine did before, and a workload
/// that allocates 200 MB/s (`tpcc_full`) spent a fifth of its time there;
/// with these settings the discarded warm-up window grows the heap once and
/// the measured windows reuse it.
const MALLOC_TUNABLES: &str = "glibc.malloc.trim_threshold=17179869184:\
                               glibc.malloc.mmap_threshold=33554432:\
                               glibc.malloc.top_pad=268435456";

/// Replace this process by itself with [`MALLOC_TUNABLES`] in force: glibc
/// reads them once, when a process starts. Other C libraries ignore them.
fn with_malloc_tunables() {
    use std::os::unix::process::CommandExt;
    if std::env::var_os("GLIBC_TUNABLES").is_some_and(|v| v == MALLOC_TUNABLES) {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    // `exec` returns only if it failed; the run then goes on as it is.
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
        .exec();
    eprintln!("could not re-execute with GLIBC_TUNABLES ({err}); malloc keeps its defaults");
}

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    with_malloc_tunables();
    let started = Instant::now();
    header(&opts);
    let outcome = measure(&opts);
    let metrics = with_units(&outcome.metrics, registry(&opts));
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<40} {value:>16.4} {unit}");
    }
    eprintln!(
        "  {} of {} transactions failed; correct: {}; total {:.1} s",
        outcome.failed,
        outcome.attempted,
        outcome.correct,
        started.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        json::result_line(
            outcome.correct,
            outcome.attempted.max(1),
            outcome.failed,
            &metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o =
            Options::parse(args("--workload tpcc_full --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(
            o,
            Options {
                workload: WorkloadKind::TpccFull,
                seed: 7,
                seconds: 15,
                trace: true,
                quick: false
            }
        );
        let o = Options::parse(args("--quick --workload ycsb_dist --seed 0x5EED")).unwrap();
        assert!(o.quick && !o.trace);
        assert_eq!(o.seed, 0x5EED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload ycsb_dist --trace 2",
            "--workload ycsb_dist --seconds 0",
            "--workload ycsb_dist --seconds 61",
            "--workload ycsb_dist --seed",
            "--workload ycsb_dist --frobnicate",
        ] {
            assert!(Options::parse(args(bad)).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn window_seeds_do_not_collide_across_neighbouring_run_seeds() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..50 {
            for window in (0..REPEATS).chain(99..100 + MAX_EXTRA_SETUPS) {
                assert!(seen.insert(window_seed(seed, window)));
            }
        }
    }

    /// The committed `BENCHMARK.json`, which the package must agree with.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_metric_is_well_formed_unique_and_listed_in_benchmark_json() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(seen.insert(*name), "{name} is listed twice");
            let listed = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                BENCHMARK_JSON.contains(&listed),
                "{listed} is not in BENCHMARK.json"
            );
        }
        // And nothing more: each entry of the file has one "better" key.
        assert_eq!(
            BENCHMARK_JSON.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn every_workload_is_listed_in_benchmark_json() {
        for kind in WorkloadKind::ALL {
            assert!(well_formed(kind.name()));
            let listed = format!("{{\"name\": \"{}\", \"why\":", kind.name());
            assert!(BENCHMARK_JSON.contains(&listed), "{listed}");
        }
        assert_eq!(
            BENCHMARK_JSON.matches("\"why\":").count(),
            WorkloadKind::ALL.len()
        );
    }

    #[test]
    fn only_the_exact_registered_set_gets_units() {
        let exact: Vec<Metric> = END_TO_END
            .iter()
            .map(|(n, _)| Metric::new(n, 1.0))
            .collect();
        let rows = with_units(&exact, END_TO_END);
        assert_eq!(rows[0], ("tps", 1.0, "1/s"));
        assert_eq!(rows.len(), END_TO_END.len());
        for bad in [
            exact[1..].to_vec(),
            [exact.clone(), vec![Metric::new("tps", 2.0)]].concat(),
            [exact.clone(), vec![Metric::new("nope", 2.0)]].concat(),
        ] {
            assert!(std::panic::catch_unwind(|| with_units(&bad, END_TO_END)).is_err());
        }
    }

    /// `--quick` end to end, both modes, on the cheapest workload: the
    /// gate passes, every registered metric comes out, and it is fast.
    #[test]
    fn quick_runs_produce_every_metric_and_pass_the_gate() {
        let started = Instant::now();
        for trace in [false, true] {
            let opts = Options {
                workload: WorkloadKind::YcsbHot2pc,
                seed: 1,
                seconds: 1,
                trace,
                quick: true,
            };
            let outcome = measure(&opts);
            with_units(&outcome.metrics, registry(&opts));
            assert!(outcome.correct);
            assert!(outcome.attempted > 0);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
        }
        assert!(started.elapsed() < Duration::from_secs(20));
    }
}
