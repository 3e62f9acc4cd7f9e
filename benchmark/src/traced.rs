//! Outside-in tracing: spans recorded from the benchmark's own files, around
//! the calls the engine makes into the workload and the calls the workload
//! makes into the engine.
//!
//! A worker is one sequential loop — generate, (resolve the read fan-out,
//! build a context), run the body, (validate, commit, log, install, drain
//! acknowledgements), generate again — so the two calls we can wrap,
//! `Workload::generate` and `TxnProgram::execute`, cut its timeline into
//! named pieces with nothing left over:
//!
//! ```text
//! |generate|pre_body|  body  |retry_gap|  body  |post_body|generate|...
//! ```
//!
//! Inside a body, a wrapped `TxnContext` times every access. Events go to a
//! per-thread in-memory buffer and are folded after the run.

use primo_repro::storage::PartitionStore;
use primo_repro::{
    FastRng, Key, PartitionId, TableId, TxnContext, TxnProgram, TxnResult, Value, Workload,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls and total time of one kind of context access inside one body.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Calls {
    pub count: u32,
    pub ns: u64,
}

impl Calls {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
    }
}

/// The accesses of one body, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BodyCalls {
    pub read_local: Calls,
    pub read_remote: Calls,
    pub write: Calls,
    pub insert: Calls,
    pub delete: Calls,
}

/// One recorded span. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    Generate {
        start: u64,
        end: u64,
    },
    Body {
        start: u64,
        end: u64,
        /// Whether the body touched a partition other than its home.
        distributed: bool,
        calls: BodyCalls,
    },
}

/// One worker thread's events, in the order they happened.
type ThreadTrace = Arc<Mutex<Vec<Event>>>;

fn push(trace: &ThreadTrace, event: Event) {
    trace
        .lock()
        .expect("a traced call panicked while recording")
        .push(event);
}

/// Wraps a workload so that every generate call and every body is recorded.
pub struct TracedWorkload {
    inner: Arc<dyn Workload>,
    epoch: Instant,
    /// One buffer per home partition: with one worker per partition that is
    /// one buffer per thread, and the lock is never contended.
    threads: Vec<ThreadTrace>,
}

impl TracedWorkload {
    pub fn new(inner: Arc<dyn Workload>, partitions: usize) -> Self {
        TracedWorkload {
            inner,
            epoch: Instant::now(),
            threads: (0..partitions)
                // Reserved up front so the recording never stalls on a
                // reallocation in the middle of a window.
                .map(|_| Arc::new(Mutex::new(Vec::with_capacity(1 << 19))))
                .collect(),
        }
    }

    /// Take the recorded events of every thread, leaving the buffers empty.
    pub fn take_events(&self) -> Vec<Vec<Event>> {
        self.threads
            .iter()
            .map(|t| std::mem::take(&mut *t.lock().expect("recording finished cleanly")))
            .collect()
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

impl Workload for TracedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn load_partition(&self, store: &PartitionStore, p: PartitionId) {
        self.inner.load_partition(store, p);
    }

    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        let trace = &self.threads[home.idx()];
        let start = ns_since(self.epoch);
        let inner = self.inner.generate(rng, home);
        let program = Box::new(TracedProgram {
            inner,
            epoch: self.epoch,
            trace: Arc::clone(trace),
        });
        let end = ns_since(self.epoch);
        push(trace, Event::Generate { start, end });
        program
    }
}

struct TracedProgram {
    inner: Box<dyn TxnProgram>,
    epoch: Instant,
    trace: ThreadTrace,
}

impl TxnProgram for TracedProgram {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let start = ns_since(self.epoch);
        let mut traced = TracedCtx {
            inner: ctx,
            home: self.inner.home_partition(),
            distributed: false,
            calls: BodyCalls::default(),
        };
        let result = self.inner.execute(&mut traced);
        let (distributed, calls) = (traced.distributed, traced.calls);
        let end = ns_since(self.epoch);
        push(
            &self.trace,
            Event::Body {
                start,
                end,
                distributed,
                calls,
            },
        );
        result
    }

    fn home_partition(&self) -> PartitionId {
        self.inner.home_partition()
    }

    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }

    fn read_fraction_hint(&self) -> f64 {
        self.inner.read_fraction_hint()
    }

    fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
        self.inner.read_hint()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

struct TracedCtx<'a> {
    inner: &'a mut dyn TxnContext,
    home: PartitionId,
    distributed: bool,
    calls: BodyCalls,
}

impl TracedCtx<'_> {
    fn timed<R>(
        &mut self,
        p: PartitionId,
        call: impl FnOnce(&mut dyn TxnContext) -> R,
    ) -> (R, u64) {
        self.distributed |= p != self.home;
        let start = Instant::now();
        let r = call(&mut *self.inner);
        (r, start.elapsed().as_nanos() as u64)
    }
}

impl TxnContext for TracedCtx<'_> {
    fn read(&mut self, p: PartitionId, t: TableId, k: Key) -> TxnResult<Value> {
        let (r, ns) = self.timed(p, |c| c.read(p, t, k));
        if p == self.home {
            self.calls.read_local.add(ns);
        } else {
            self.calls.read_remote.add(ns);
        }
        r
    }

    fn write(&mut self, p: PartitionId, t: TableId, k: Key, v: Value) -> TxnResult<()> {
        let (r, ns) = self.timed(p, |c| c.write(p, t, k, v));
        self.calls.write.add(ns);
        r
    }

    fn insert(&mut self, p: PartitionId, t: TableId, k: Key, v: Value) -> TxnResult<()> {
        let (r, ns) = self.timed(p, |c| c.insert(p, t, k, v));
        self.calls.insert.add(ns);
        r
    }

    fn delete(&mut self, p: PartitionId, t: TableId, k: Key) -> TxnResult<()> {
        let (r, ns) = self.timed(p, |c| c.delete(p, t, k));
        self.calls.delete.add(ns);
        r
    }
}

/// Totals of one or more threads' timelines, in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fold {
    /// Transactions folded: generate calls that were followed by another.
    pub txns: u64,
    /// Transactions whose bodies touched a remote partition.
    pub dist_txns: u64,
    /// Bodies run (attempts; a snapshot fallback counts as a second one).
    pub bodies: u64,
    pub generate_ns: u64,
    pub pre_body_ns: u64,
    pub body_ns: u64,
    pub post_body_ns: u64,
    pub retry_gap_ns: u64,
    /// pre_body + bodies + retry gaps + post_body of the distributed
    /// transactions only: their pre-durability critical path.
    pub dist_path_ns: u64,
    pub calls: BodyCalls,
    /// Time between the first folded generate call and the last, summed over
    /// threads: what the named spans above must add up to.
    pub wall_ns: u64,
}

impl Fold {
    /// Named spans as a percentage of the threads' wall time.
    pub fn coverage_pct(&self) -> f64 {
        let named = self.generate_ns
            + self.pre_body_ns
            + self.body_ns
            + self.post_body_ns
            + self.retry_gap_ns;
        100.0 * named as f64 / self.wall_ns.max(1) as f64
    }
}

/// Fold every thread's events into totals, skipping transactions generated
/// in the first `skip_ns` of each thread's recording (the warm-up).
///
/// A transaction runs from the start of its generate call to the start of
/// the next one, so the last, unfinished transaction of a thread is dropped.
/// An event sequence the worker loop cannot produce (two generate calls with
/// no body between them happens only when the run is being stopped) adds to
/// no named span, and so shows up as coverage below 100 %.
pub fn fold(threads: &[Vec<Event>], skip_ns: u64) -> Fold {
    let mut total = Fold::default();
    for events in threads {
        fold_thread(events, skip_ns, &mut total);
    }
    total
}

fn fold_thread(events: &[Event], skip_ns: u64, total: &mut Fold) {
    let origin = match events.first() {
        Some(Event::Generate { start, .. }) | Some(Event::Body { start, .. }) => *start,
        None => return,
    };
    // Indices of generate events: each opens a transaction.
    let opens: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::Generate { start, .. } if *start >= origin + skip_ns))
        .map(|(i, _)| i)
        .collect();
    let (Some(&first), Some(&last)) = (opens.first(), opens.last()) else {
        return;
    };
    let start_of = |i: usize| match events[i] {
        Event::Generate { start, .. } | Event::Body { start, .. } => start,
    };
    total.wall_ns += start_of(last) - start_of(first);

    for pair in opens.windows(2) {
        let (open, next) = (pair[0], pair[1]);
        let Event::Generate {
            start: opened,
            end: generated,
        } = events[open]
        else {
            unreachable!("`opens` indexes generate events only");
        };
        total.txns += 1;
        total.generate_ns += generated - opened;
        let mut cursor = generated;
        let mut bodies = 0;
        let mut distributed = false;
        for event in &events[open + 1..next] {
            let Event::Body {
                start,
                end,
                distributed: d,
                calls,
            } = *event
            else {
                unreachable!("only bodies lie between two generate events");
            };
            if bodies == 0 {
                total.pre_body_ns += start - cursor;
            } else {
                total.retry_gap_ns += start - cursor;
            }
            bodies += 1;
            total.body_ns += end - start;
            add_calls(&mut total.calls, &calls);
            distributed |= d;
            cursor = end;
        }
        total.bodies += bodies;
        if bodies > 0 {
            total.post_body_ns += start_of(next) - cursor;
        }
        if distributed {
            total.dist_txns += 1;
            total.dist_path_ns += start_of(next) - generated;
        }
    }
}

fn add_calls(into: &mut BodyCalls, from: &BodyCalls) {
    for (a, b) in [
        (&mut into.read_local, &from.read_local),
        (&mut into.read_remote, &from.read_remote),
        (&mut into.write, &from.write),
        (&mut into.insert, &from.insert),
        (&mut into.delete, &from.delete),
    ] {
        a.count += b.count;
        a.ns += b.ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(start: u64, end: u64, distributed: bool) -> Event {
        Event::Body {
            start,
            end,
            distributed,
            calls: BodyCalls {
                read_local: Calls { count: 2, ns: 10 },
                ..BodyCalls::default()
            },
        }
    }

    /// Three transactions on one thread: a clean one, one that retries once
    /// and touches a remote partition, and the unfinished last one.
    fn synthetic() -> Vec<Event> {
        vec![
            Event::Generate { start: 0, end: 10 },
            body(15, 40, false),
            Event::Generate {
                start: 100,
                end: 120,
            },
            body(130, 150, true),
            body(400, 430, true),
            Event::Generate {
                start: 500,
                end: 505,
            },
            body(510, 520, false),
        ]
    }

    #[test]
    fn the_fold_partitions_a_synthetic_timeline_exactly() {
        let f = fold(&[synthetic()], 0);
        assert_eq!(f.txns, 2);
        assert_eq!(f.bodies, 3);
        assert_eq!(f.generate_ns, 10 + 20);
        assert_eq!(f.pre_body_ns, 5 + 10);
        assert_eq!(f.body_ns, 25 + 20 + 30);
        assert_eq!(f.retry_gap_ns, 250);
        assert_eq!(f.post_body_ns, 60 + 70);
        assert_eq!(f.wall_ns, 500);
        assert_eq!(f.coverage_pct(), 100.0);
        assert_eq!(f.calls.read_local, Calls { count: 6, ns: 30 });
    }

    #[test]
    fn the_critical_path_counts_distributed_transactions_only() {
        let f = fold(&[synthetic()], 0);
        assert_eq!(f.dist_txns, 1);
        assert_eq!(f.dist_path_ns, 380);
    }

    #[test]
    fn warm_up_transactions_are_skipped() {
        let f = fold(&[synthetic()], 50);
        assert_eq!(f.txns, 1);
        assert_eq!(f.wall_ns, 400);
        assert_eq!(f.coverage_pct(), 100.0);
    }

    #[test]
    fn threads_add_up() {
        let f = fold(&[synthetic(), synthetic()], 0);
        assert_eq!(f.txns, 4);
        assert_eq!(f.wall_ns, 1000);
        assert_eq!(f.coverage_pct(), 100.0);
    }

    #[test]
    fn a_generate_with_no_body_lowers_coverage() {
        let events = vec![
            Event::Generate { start: 0, end: 10 },
            Event::Generate {
                start: 100,
                end: 110,
            },
            Event::Generate {
                start: 200,
                end: 210,
            },
        ];
        let f = fold(&[events], 0);
        assert_eq!(f.txns, 2);
        assert!(f.coverage_pct() < 50.0);
    }

    #[test]
    fn empty_and_single_event_threads_fold_to_nothing() {
        assert_eq!(fold(&[vec![]], 0), Fold::default());
        assert_eq!(
            fold(&[vec![Event::Generate { start: 0, end: 1 }]], 0),
            Fold::default()
        );
    }

    struct NullCtx;
    impl TxnContext for NullCtx {
        fn read(&mut self, _: PartitionId, _: TableId, _: Key) -> TxnResult<Value> {
            Ok(Value::from_u64(0))
        }
        fn write(&mut self, _: PartitionId, _: TableId, _: Key, _: Value) -> TxnResult<()> {
            Ok(())
        }
        fn insert(&mut self, _: PartitionId, _: TableId, _: Key, _: Value) -> TxnResult<()> {
            Ok(())
        }
        fn delete(&mut self, _: PartitionId, _: TableId, _: Key) -> TxnResult<()> {
            Ok(())
        }
    }

    #[test]
    fn wrappers_record_one_generate_and_one_body_per_call_and_delegate() {
        let inner = crate::spec::WorkloadKind::YcsbDist.workload(3);
        let traced = TracedWorkload::new(inner, 2);
        let mut rng = FastRng::new(1);
        let program = traced.generate(&mut rng, PartitionId(1));
        assert_eq!(program.home_partition(), PartitionId(1));
        assert_eq!(program.label(), "ycsb");
        assert!(!program.read_hint().is_empty());
        program.execute(&mut NullCtx).unwrap();
        let events = traced.take_events();
        assert!(events[0].is_empty());
        assert_eq!(events[1].len(), 2);
        assert!(matches!(events[1][0], Event::Generate { .. }));
        let Event::Body {
            distributed, calls, ..
        } = events[1][1]
        else {
            panic!("second event is the body");
        };
        assert!(distributed, "every ycsb_dist transaction has a remote op");
        assert_eq!(
            calls.read_local.count + calls.read_remote.count + calls.write.count,
            calls.write.count * 2 + (10 - calls.write.count),
            "10 ops: each is a read, and the read-modify-writes add a write"
        );
    }
}
