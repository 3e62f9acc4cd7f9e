//! Simulated time, end to end: a charged wait costs what it says at every
//! size, the control bus and the watermark agents are event-driven (no tick
//! shows up in their latency), and no engine code grows a private timing loop
//! again. Timing assertions use medians over many samples, a generous band
//! and a few re-measurements, so a busy host slows them down but does not
//! fail them.

use primo_repro::common::config::{LoggingScheme, NetConfig, WalConfig};
use primo_repro::common::sim_time::{charge_latency_us, now_us};
use primo_repro::net::{BusMessage, DelayedBus, SimNetwork};
use primo_repro::wal::{CommitOutcome, GroupCommit, WatermarkCommit};
use primo_repro::{FlightRecorder, PartitionId, TxnId};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const P0: PartitionId = PartitionId(0);
const P1: PartitionId = PartitionId(1);
const P2: PartitionId = PartitionId(2);

/// The two busy-waiting tests take turns: each wants a core to itself.
static SPINNERS: Mutex<()> = Mutex::new(());

fn median_us(samples: usize, mut op: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[samples / 2]
}

/// Re-measure up to three times: a neighbour on the host may spoil one pass.
fn eventually(what: &str, mut check: impl FnMut() -> Result<(), String>) {
    let mut last = String::new();
    for _ in 0..3 {
        match check() {
            Ok(()) => return,
            Err(e) => last = e,
        }
    }
    panic!("{what}: {last}");
}

// ---- (a) timing fidelity ----

#[test]
fn charged_waits_cost_what_they_say_at_every_size() {
    let _turn = SPINNERS.lock().unwrap_or_else(|e| e.into_inner());
    eventually("charged wait medians", || {
        let mut previous = 0.0;
        for nominal in [50u64, 100, 250, 400, 1_000] {
            let median = median_us(200, || charge_latency_us(nominal));
            let n = nominal as f64;
            if median < n - 2.0 || median > n * 1.15 {
                return Err(format!("{nominal} us charged, median {median:.1} us"));
            }
            if median <= previous {
                return Err(format!(
                    "{nominal} us took {median:.1} us, a shorter wait took {previous:.1} us"
                ));
            }
            previous = median;
        }
        Ok(())
    });
}

#[test]
fn a_faster_network_is_not_slower() {
    // The ROADMAP inversion: sequential commits ran 3.5x *faster* at 200 us
    // one-way than at 50 us, because a 400 us round trip slept while a
    // 100 us one spun against the other spinners.
    let _turn = SPINNERS.lock().unwrap_or_else(|e| e.into_inner());
    let round_trip_median = |one_way_us: u64| {
        let net = SimNetwork::new(
            2,
            NetConfig {
                one_way_us,
                jitter_us: 0,
            },
            7,
        );
        median_us(200, || assert!(net.round_trip(P0, P1)))
    };
    eventually("round trips at 50 vs 200 us one-way", || {
        let (fast, slow) = (round_trip_median(50), round_trip_median(200));
        if fast > slow {
            return Err(format!("50 us: {fast:.1} us, 200 us: {slow:.1} us"));
        }
        if fast > 100.0 * 1.15 || slow > 400.0 * 1.15 {
            return Err(format!(
                "overhead: {fast:.1} us for 100, {slow:.1} us for 400"
            ));
        }
        Ok(())
    });
}

// ---- (b) the control bus ----

fn epoch(n: u64) -> BusMessage {
    BusMessage::EpochPrepare { epoch: n }
}

#[test]
fn bus_delivers_in_deadline_order_not_send_order() {
    let bus = DelayedBus::new(3, 2_000);
    bus.set_extra_delay_from(P0, 28_000);
    let start = Instant::now();
    bus.send(P0, P1, epoch(1)); // due at 30 ms
    bus.send(P2, P1, epoch(2)); // sent later, due at 2 ms
    assert!(bus.drain(P1).is_empty(), "nothing is due yet");
    // The receiver is already waiting out the 30 ms message when the 2 ms
    // one arrives behind it: it must not sleep through it.
    let first = bus.recv_timeout(P1, Duration::from_secs(5));
    let first_after = start.elapsed();
    assert_eq!(first, Some(epoch(2)));
    assert!(first_after >= Duration::from_millis(2), "{first_after:?}");
    assert!(first_after < Duration::from_millis(20), "{first_after:?}");
    assert_eq!(bus.recv_timeout(P1, Duration::from_secs(5)), Some(epoch(1)));
    assert!(start.elapsed() >= Duration::from_millis(30));
    bus.shutdown();
}

#[test]
fn an_earlier_deadline_wakes_a_receiver_blocked_on_a_later_one() {
    let bus = DelayedBus::new(3, 0);
    bus.set_extra_delay_from(P0, 5_000_000);
    bus.send(P0, P1, epoch(1)); // due in 5 s
    let (blocking, blocked) = mpsc::channel();
    let receiver = {
        let bus = Arc::clone(&bus);
        std::thread::spawn(move || {
            blocking.send(()).unwrap();
            let start = Instant::now();
            (
                bus.recv_timeout(P1, Duration::from_secs(10)),
                start.elapsed(),
            )
        })
    };
    blocked.recv().unwrap();
    bus.send(P2, P1, epoch(2)); // due now
    let (msg, waited) = receiver.join().unwrap();
    assert_eq!(msg, Some(epoch(2)));
    assert!(waited < Duration::from_secs(1), "slept {waited:?}");
    bus.shutdown();
}

#[test]
fn bus_shutdown_releases_blocked_receivers_promptly() {
    let bus = DelayedBus::new(2, 5_000_000);
    bus.send(P0, P1, epoch(1)); // in flight for 5 s
    let (blocking, blocked) = mpsc::channel();
    let receiver = {
        let bus = Arc::clone(&bus);
        std::thread::spawn(move || {
            blocking.send(()).unwrap();
            bus.recv_timeout(P1, Duration::from_secs(10))
        })
    };
    blocked.recv().unwrap();
    let start = Instant::now();
    bus.shutdown();
    assert_eq!(receiver.join().unwrap(), None);
    assert!(start.elapsed() < Duration::from_millis(500));
}

#[test]
fn bus_delay_knobs_apply_to_later_sends() {
    // The fastest of a few deliveries: a delivery is never early, so the
    // lower bounds hold for each, and a host that delays one (the binary's
    // other timing tests run beside this one) rarely delays all five.
    let delivery_us = |bus: &DelayedBus, from: PartitionId, to: PartitionId| {
        let once = || {
            let start = now_us();
            bus.send(from, to, epoch(0));
            bus.recv_timeout(to, Duration::from_secs(5))
                .expect("delivered");
            now_us() - start
        };
        (0..5).map(|_| once()).min().expect("five deliveries")
    };
    let undelayed = DelayedBus::new(2, 0);
    assert!(delivery_us(&undelayed, P0, P1) < 3_000);
    undelayed.shutdown();
    let bus = DelayedBus::new(2, 4_000);
    let base = delivery_us(&bus, P0, P1);
    assert!((4_000..12_000).contains(&base), "base delay: {base} us");
    bus.set_extra_delay_from(P0, 6_000);
    let lagging = delivery_us(&bus, P0, P1);
    assert!(
        (10_000..20_000).contains(&lagging),
        "base + extra: {lagging} us"
    );
    // The extra delay is per sender.
    assert!(delivery_us(&bus, P1, P0) < 9_000);
    bus.shutdown();
}

// ---- (c) the watermark agents ----

const INTERVAL_MS: u64 = 20;
const PERSIST_US: u64 = 500;
const BUS_US: u64 = 100;

fn watermark(interval_ms: u64) -> WatermarkCommit {
    let cfg = WalConfig {
        scheme: LoggingScheme::Watermark,
        interval_ms,
        persist_delay_us: PERSIST_US,
        force_update: true,
        ..WalConfig::default()
    };
    let bus = DelayedBus::new(2, BUS_US);
    let logs = primo_repro::wal::build_logs(2, cfg);
    WatermarkCommit::new(2, cfg, bus, logs, Arc::new(FlightRecorder::new(false, 64)))
}

/// Median release lag of three commits on an otherwise idle cluster, ms.
fn idle_release_lag_ms(wm: &WatermarkCommit, distributed: bool) -> f64 {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let mut lags: Vec<f64> = (0..3)
        .map(|_| {
            let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let ticket = wm.begin_txn(P0, TxnId::new(P0, seq));
            if distributed {
                wm.add_participant(&ticket, P1, 0);
            }
            let ts = wm.reserve_commit_ts(&ticket, 0);
            let waiter = wm.txn_committed(&ticket, ts, 1);
            let start = Instant::now();
            assert_eq!(wm.wait_durable(&waiter), CommitOutcome::Committed);
            start.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    lags.sort_by(f64::total_cmp);
    lags[1]
}

#[test]
fn idle_cluster_releases_a_commit_within_one_interval() {
    // A commit both partitions took part in: each generates a watermark
    // above it at its next generation (at most one interval away), publishes
    // it one quorum-ack delay later and hears the other's one bus delay
    // after that. A watermark that only covers `ts - 1`, or an agent that
    // notices its peer's `Wp` on a tick, adds whole intervals to this.
    let wm = watermark(INTERVAL_MS);
    let budget_ms = INTERVAL_MS as f64 + (PERSIST_US + BUS_US) as f64 / 1000.0 + 6.0;
    eventually("distributed commit on an idle cluster", || {
        let lag = idle_release_lag_ms(&wm, true);
        (lag <= budget_ms).then_some(()).ok_or(format!(
            "released after {lag:.1} ms, budget {budget_ms:.1} ms"
        ))
    });
    // A commit the idle peer never saw: the peer learns of it from the
    // coordinator's `Wp` and — having nothing of its own to pace — catches
    // up at once instead of at its next generation. One more ack + bus hop.
    let budget_ms = budget_ms + (PERSIST_US + BUS_US) as f64 / 1000.0;
    eventually("local commit beside an idle peer", || {
        let lag = idle_release_lag_ms(&wm, false);
        (lag <= budget_ms).then_some(()).ok_or(format!(
            "released after {lag:.1} ms, budget {budget_ms:.1} ms"
        ))
    });
    wm.shutdown();
}

#[test]
fn in_flight_remote_txn_pins_participant_watermark() {
    let wm = watermark(1);
    // A transaction coordinated by P0 remote-reads on P1 with a lower bound
    // of 3: P1's watermark must not overtake it while it is active, however
    // many peer watermarks arrive and trigger the agent meanwhile.
    let ticket = wm.begin_txn(P0, TxnId::new(P0, 1));
    wm.add_participant(&ticket, P1, 3);
    std::thread::sleep(Duration::from_millis(40));
    assert!(wm.partition_watermark(P1) <= 3);
    let waiter = wm.txn_committed(&ticket, 3, 1);
    assert_eq!(wm.wait_durable(&waiter), CommitOutcome::Committed);
    assert!(wm.global_watermark(P0) > 3);
    std::thread::sleep(Duration::from_millis(40));
    assert!(wm.partition_watermark(P1) > 3);
    wm.shutdown();
}

#[test]
fn reserved_commit_ts_pins_the_coordinator_watermark() {
    let wm = watermark(1);
    std::thread::sleep(Duration::from_millis(30));
    // Reservation opens the commit critical section: no watermark above the
    // reserved timestamp may publish until `txn_committed` — with the
    // generation target now `max_seen_ts + 1`, the active-table pin is the
    // only thing holding it back.
    let ticket = wm.begin_txn(P0, TxnId::new(P0, 9));
    let ts = wm.reserve_commit_ts(&ticket, 0);
    assert!(ts > wm.partition_watermark(P0));
    std::thread::sleep(Duration::from_millis(40));
    assert!(
        wm.partition_watermark(P0) <= ts,
        "the watermark overtook a reserved, not-yet-logged commit"
    );
    assert!(wm.try_outcome(&wm.txn_committed(&ticket, ts, 1)).is_none());
    std::thread::sleep(Duration::from_millis(40));
    assert!(wm.partition_watermark(P0) > ts);
    wm.shutdown();
}

// ---- no private timing loops ----

/// Engine crates whose waits must all go through `common::sim_time`.
const ENGINE_CRATES: [&str; 6] = ["common", "net", "wal", "runtime", "core", "baselines"];

/// The log owns no thread: nothing in these may spawn one.
const THREADLESS: [&str; 2] = ["wal/src/log.rs", "wal/src/replicated.rs"];

/// Timing-loop smells in one file's non-test source: a sub-millisecond raw
/// sleep, a `*_TICK*` polling constant — no exceptions — or, in the log, a
/// spawned thread.
fn timing_smells(path: &str, source: &str) -> Vec<String> {
    let engine = source.split("#[cfg(test)]").next().unwrap_or(source);
    let threadless = THREADLESS.iter().any(|file| path.ends_with(file));
    let mut smells = Vec::new();
    for (i, line) in engine.lines().enumerate() {
        let code = line.split("//").next().unwrap_or(line);
        let fine_sleep = code.contains("sleep(")
            && (code.contains("from_micros") || code.contains("from_nanos"));
        let tick = code
            .split_once("const ")
            .and_then(|(_, rest)| rest.split(':').next())
            .filter(|name| name.contains("_TICK") || name.starts_with("TICK"));
        if fine_sleep {
            smells.push(format!("{path}:{}: sub-millisecond sleep", i + 1));
        }
        if threadless && (code.contains("thread::Builder") || code.contains("thread::spawn")) {
            smells.push(format!("{path}:{}: the log spawns a thread", i + 1));
        }
        if let Some(name) = tick {
            smells.push(format!(
                "{path}:{}: polling constant {}",
                i + 1,
                name.trim()
            ));
        }
    }
    smells
}

/// Every engine source file, with its non-test code: everything before the
/// first `#[cfg(test)]`.
fn engine_sources() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut sources = Vec::new();
    for krate in ENGINE_CRATES {
        let dir = root.join(krate).join("src");
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                let source = std::fs::read_to_string(&path).expect("readable source");
                let engine = source.split("#[cfg(test)]").next().unwrap_or_default();
                let name = path.strip_prefix(&root).expect("under crates/");
                sources.push((name.to_string_lossy().into_owned(), engine.to_string()));
            }
        }
    }
    assert!(
        sources.len() > 30,
        "only {} files scanned: wrong directory?",
        sources.len()
    );
    sources
}

/// The wall clock read outside the seam, per engine file: the `Instant::now`
/// uses a virtual clock will have to route through `common::sim_time`. A
/// count may shrink — lower it here — and never grow; a file not listed has
/// none.
const WALL_CLOCK_READS: [(&str, usize); 2] = [
    ("common/src/sim_time.rs", 1),
    ("runtime/src/experiment.rs", 4),
];

/// `Instant::now` in one file's non-test source, comments excluded.
fn wall_clock_reads(engine: &str) -> usize {
    let code = engine.lines().map(|l| l.split("//").next().unwrap_or(l));
    code.map(|l| l.matches("Instant::now").count()).sum()
}

#[test]
fn the_wall_clock_census_only_shrinks() {
    // The scanner counts calls and passed-on functions, not comments.
    let sample = "let t = Instant::now(); // not Instant::now()\n\
                  static O: OnceLock<Instant> = OnceLock::new(); O.get_or_init(Instant::now);";
    assert_eq!(wall_clock_reads(sample), 2);

    let mut grown = Vec::new();
    for (file, engine) in engine_sources() {
        let reads = wall_clock_reads(&engine);
        let allowed = WALL_CLOCK_READS.iter().find(|(f, _)| file.ends_with(f));
        let allowed = allowed.map_or(0, |&(_, n)| n);
        if reads > allowed {
            grown.push(format!("{file}: {reads} Instant::now, allowed {allowed}"));
        }
    }
    assert!(
        grown.is_empty(),
        "engine code reads the wall clock beside common::sim_time::now_us:\n{}",
        grown.join("\n")
    );
}

/// The wall clock read or slept on by the tests themselves, per file under
/// `tests/`: the timings a host's load can blur. Each stands for an assert
/// that a count or the trace could state exactly, or for a wait virtual time
/// will make free. A count may shrink — lower it here — and never grow; a
/// file not listed has none.
const TEST_WALL_CLOCK: [(&str, usize); 13] = [
    ("atomic_commit.rs", 3),
    ("batched_reads.rs", 1),
    ("group_commit_demand.rs", 20),
    ("log_retention.rs", 11),
    ("properties.rs", 1),
    ("recovery.rs", 20),
    ("replicated_log.rs", 3),
    ("serializability.rs", 1),
    ("sim_time.rs", 21),
    ("snapshot_consistency.rs", 3),
    ("version_reclamation.rs", 6),
    ("watermark_semantics.rs", 3),
    ("worker_overlap.rs", 22),
];

/// What the tests' census counts, spelled in halves so that this file does
/// not count its own list.
const TEST_CLOCK_CALLS: [&str; 3] = [
    concat!("Instant::", "now"),
    concat!(".elapsed", "()"),
    concat!("thread::", "sleep"),
];

/// Wall-clock calls in one test file, comments excluded.
fn test_clock_calls(source: &str) -> usize {
    let code = source.lines().map(|l| l.split("//").next().unwrap_or(l));
    let calls = |l: &str| {
        TEST_CLOCK_CALLS
            .iter()
            .map(|c| l.matches(c).count())
            .sum::<usize>()
    };
    code.map(calls).sum()
}

#[test]
fn the_tests_wall_clock_census_only_shrinks() {
    // The scanner counts calls, not comments.
    let [now, elapsed, sleep] = TEST_CLOCK_CALLS;
    let sample = format!("let t = {now}(); t{elapsed};\n// {sleep}(d)\n{sleep}(d); // {now}()");
    assert_eq!(test_clock_calls(&sample), 3);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let (mut grown, mut scanned) = (Vec::new(), 0);
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
        let path = entry.expect("dir entry").path();
        let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
            continue;
        };
        if !file.ends_with(".rs") {
            continue;
        }
        scanned += 1;
        let calls = test_clock_calls(&std::fs::read_to_string(&path).expect("readable test"));
        let allowed = TEST_WALL_CLOCK.iter().find(|(f, _)| *f == file);
        let allowed = allowed.map_or(0, |&(_, n)| n);
        if calls > allowed {
            grown.push(format!(
                "{file}: {calls} wall-clock calls, allowed {allowed}"
            ));
        }
    }
    assert!(
        scanned > 15,
        "only {scanned} test files scanned: wrong directory?"
    );
    assert!(
        grown.is_empty(),
        "a test reads or sleeps on the wall clock where a count or the trace could say it:\n{}",
        grown.join("\n")
    );
}

#[test]
fn engine_code_waits_only_through_sim_time() {
    // The scanner can fail: it flags what this PR removed.
    let old_bus = "if !delivered_any {\n    std::thread::sleep(Duration::from_micros(200));\n}";
    assert_eq!(timing_smells("net/src/bus.rs", old_bus).len(), 1);
    let old_agent = "const AGENT_TICK_US: u64 = 500;";
    assert_eq!(timing_smells("wal/src/watermark.rs", old_agent).len(), 1);
    let old_pump = "const PUMP_TICK: Duration = Duration::from_millis(2);\n\
                    std::thread::Builder::new().spawn(move || core.pump_loop())";
    assert_eq!(
        timing_smells("crates/wal/src/replicated.rs", old_pump).len(),
        2
    );
    assert_eq!(
        timing_smells("crates/wal/src/watermark.rs", old_pump).len(),
        1
    );

    let mut smells = Vec::new();
    for (file, engine) in engine_sources() {
        if !file.ends_with("sim_time.rs") {
            smells.extend(timing_smells(&file, &engine));
        }
    }
    assert!(
        smells.is_empty(),
        "engine code must wait through common::sim_time (wait_until / \
         charge_latency_us / park_until) or block on an event:\n{}",
        smells.join("\n")
    );
}
