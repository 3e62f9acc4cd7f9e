//! Cross-protocol serializability checks: concurrent transfer transactions
//! must conserve the total amount of money regardless of the protocol, and
//! every per-transaction effect must be all-or-nothing across partitions.
//!
//! All protocols are selected through the facade's `ClusterBuilder` — the
//! same constructor path the figure harnesses use.

use primo_repro::common::Metrics;
use primo_repro::runtime::worker::spawn_workers;
use primo_repro::storage::PartitionStore;
use primo_repro::{
    FastRng, PartitionId, Primo, ProtocolKind, TableId, TraceEventKind, TxnContext, TxnId,
    TxnProgram, TxnResult, Value, Workload,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const ACCOUNTS: TableId = TableId(0);
const NUM_ACCOUNTS: u64 = 8;
const INITIAL: u64 = 1_000;

struct TransferTxn {
    home: PartitionId,
    from: (PartitionId, u64),
    to: (PartitionId, u64),
    amount: u64,
}

impl TxnProgram for TransferTxn {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        if self.from == self.to {
            // Transferring to the same account is a no-op.
            let _ = ctx.read(self.from.0, ACCOUNTS, self.from.1)?;
            return Ok(());
        }
        let a = ctx.read(self.from.0, ACCOUNTS, self.from.1)?.as_u64();
        let b = ctx.read(self.to.0, ACCOUNTS, self.to.1)?.as_u64();
        // Branch on the read: never overdraw.
        let amount = self.amount.min(a);
        ctx.write(
            self.from.0,
            ACCOUNTS,
            self.from.1,
            Value::from_u64(a - amount),
        )?;
        ctx.write(self.to.0, ACCOUNTS, self.to.1, Value::from_u64(b + amount))?;
        Ok(())
    }

    fn home_partition(&self) -> PartitionId {
        self.home
    }

    fn read_hint(&self) -> Vec<(PartitionId, TableId, u64)> {
        vec![
            (self.from.0, ACCOUNTS, self.from.1),
            (self.to.0, ACCOUNTS, self.to.1),
        ]
    }
}

fn loaded_primo(kind: ProtocolKind, partitions: usize) -> Primo {
    let primo = Primo::builder()
        .protocol(kind)
        .partitions(partitions)
        .fast_local()
        .build();
    let session = primo.session();
    for p in 0..partitions as u32 {
        for k in 0..NUM_ACCOUNTS {
            session.load(PartitionId(p), ACCOUNTS, k, Value::from_u64(INITIAL));
        }
    }
    primo
}

fn total_money(primo: &Primo, partitions: usize) -> u64 {
    total_money_in(primo, partitions, NUM_ACCOUNTS)
}

fn total_money_in(primo: &Primo, partitions: usize, accounts: u64) -> u64 {
    let session = primo.session();
    let mut total = 0;
    for p in 0..partitions as u32 {
        for k in 0..accounts {
            total += session.get(PartitionId(p), ACCOUNTS, k).unwrap().as_u64();
        }
    }
    total
}

/// The storms take turns: the worker storms below count attempts, and a
/// worker descheduled with a lock in hand costs everyone else theirs.
static TURN: Mutex<()> = Mutex::new(());

fn run_transfer_storm(kind: ProtocolKind, partitions: usize, threads: usize, per_thread: usize) {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let primo = loaded_primo(kind, partitions);
    let expected_total = partitions as u64 * NUM_ACCOUNTS * INITIAL;
    let committed = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let session = primo.session();
            let committed = &committed;
            scope.spawn(move || {
                let mut seed = 0x1234_5678u64 ^ (t as u64) << 17;
                for i in 0..per_thread {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let home = PartitionId((t % partitions) as u32);
                    let from_p = PartitionId((seed % partitions as u64) as u32);
                    let to_p = PartitionId(((seed >> 8) % partitions as u64) as u32);
                    let txn = TransferTxn {
                        home,
                        from: (from_p, seed % NUM_ACCOUNTS),
                        to: (to_p, (seed >> 16) % NUM_ACCOUNTS),
                        amount: 1 + (i as u64 % 17),
                    };
                    if session.run_program(&txn).is_ok() {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let name = primo.protocol().name();
    assert!(
        committed.load(Ordering::Relaxed) > 0,
        "{name}: no transaction committed"
    );
    assert_eq!(
        total_money(&primo, partitions),
        expected_total,
        "{name}: money not conserved"
    );
    primo.shutdown();
}

#[test]
fn primo_conserves_money_under_concurrency() {
    run_transfer_storm(ProtocolKind::Primo, 2, 4, 30);
}

#[test]
fn primo_without_wcf_conserves_money() {
    run_transfer_storm(ProtocolKind::PrimoNoWcfNoWm, 2, 4, 20);
}

#[test]
fn two_pl_no_wait_conserves_money() {
    run_transfer_storm(ProtocolKind::TwoPlNoWait, 2, 4, 20);
}

#[test]
fn two_pl_wait_die_conserves_money() {
    run_transfer_storm(ProtocolKind::TwoPlWaitDie, 2, 4, 20);
}

#[test]
fn silo_conserves_money() {
    run_transfer_storm(ProtocolKind::Silo, 2, 4, 20);
}

#[test]
fn sundial_conserves_money() {
    run_transfer_storm(ProtocolKind::Sundial, 2, 4, 20);
}

#[test]
fn tapir_conserves_money() {
    run_transfer_storm(ProtocolKind::Tapir, 2, 4, 20);
}

#[test]
fn primo_conserves_money_on_three_partitions() {
    run_transfer_storm(ProtocolKind::Primo, 3, 6, 20);
}

// ---- the same storm through the worker loop ----
//
// Sessions retry one after the other; a worker parks an aborted client and
// runs others until its back-off is over, so retries interleave with other
// clients' bodies on the same worker.

/// Accounts per partition of the worker storm.
const HOT_ACCOUNTS: u64 = 32;

struct Transfers {
    partitions: u64,
}

impl Workload for Transfers {
    fn name(&self) -> &'static str {
        "transfers"
    }
    fn load_partition(&self, store: &PartitionStore, _p: PartitionId) {
        for k in 0..HOT_ACCOUNTS {
            store.insert(ACCOUNTS, k, Value::from_u64(INITIAL));
        }
    }
    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        let mut account = || {
            let p = PartitionId(rng.next_below(self.partitions) as u32);
            (p, rng.next_below(HOT_ACCOUNTS))
        };
        Box::new(TransferTxn {
            home,
            from: account(),
            to: account(),
            amount: 1 + rng.next_below(17),
        })
    }
}

/// 2 partitions x 2 workers on 64 accounts for 300 ms: money is conserved,
/// and no committed transaction needed more than `max_attempts` attempts —
/// twice the most that a worker which sat through its clients' back-offs was
/// seen to need here in 10 runs — so same-id retries still age under WAIT_DIE
/// and nothing starves parked. Returns how many pairs of attempts of one
/// worker held write locks at once: each holds them from the take-up of its
/// votes to its end.
fn run_worker_storm(kind: ProtocolKind, max_attempts: u32) -> usize {
    const PARTITIONS: usize = 2;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let primo = Primo::builder()
        .protocol(kind)
        .partitions(PARTITIONS)
        .workers_per_partition(2)
        .fast_local()
        .tweak(|c| {
            // The paper's back-off, not the test configuration's 20 us: at
            // microseconds a scheduler stall on this host is worth dozens of
            // attempts, at 0.5 ms doubling it is worth one.
            (c.backoff_initial_us, c.backoff_max_us) = (500, 8_000);
            c.trace.ring_capacity = 1 << 17;
        })
        .build();
    let workload: Arc<dyn Workload> = Arc::new(Transfers {
        partitions: PARTITIONS as u64,
    });
    for p in primo.cluster().partition_ids() {
        workload.load_partition(&primo.cluster().partition(p).store, p);
    }
    let (stop, metrics) = (Arc::new(AtomicBool::new(false)), Arc::new(Metrics::new()));
    let workers = spawn_workers(
        primo.cluster(),
        primo.protocol(),
        &workload,
        &metrics,
        &stop,
        &Arc::new(AtomicBool::new(true)),
    );
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::SeqCst);
    for worker in workers {
        worker.join().expect("a worker panicked");
    }

    let name = primo.protocol().name();
    assert!(metrics.committed() > 100, "{name}: {}", metrics.committed());
    assert!(metrics.aborted_attempts() > 0, "{name}: nothing retried");
    assert_eq!(
        total_money_in(&primo, PARTITIONS, HOT_ACCOUNTS),
        PARTITIONS as u64 * HOT_ACCOUNTS * INITIAL,
        "{name}: money not conserved"
    );
    let mut attempt_of: HashMap<TxnId, u32> = HashMap::new();
    let mut needed = 0;
    // (worker ring, votes taken up, ended) of every attempt that held locks.
    let mut holding: HashMap<TxnId, (usize, u64)> = HashMap::new();
    let mut held = Vec::new();
    for e in primo.cluster().recorder.merge().events() {
        let Some(txn) = e.txn else { continue };
        match e.kind {
            TraceEventKind::Begin { attempt } => {
                attempt_of.insert(txn, attempt);
            }
            TraceEventKind::Vote { .. } => {
                holding.insert(txn, (e.ring, e.at_us));
            }
            TraceEventKind::Committed { .. } | TraceEventKind::Abort { .. } => {
                if matches!(e.kind, TraceEventKind::Committed { .. }) {
                    needed = needed.max(attempt_of.remove(&txn).unwrap_or(0));
                }
                held.extend(holding.remove(&txn).map(|(ring, at)| (ring, at, e.at_us)));
            }
            _ => {}
        }
    }
    assert!(
        needed <= max_attempts,
        "{name}: a transaction committed at attempt {needed}"
    );
    primo.shutdown();
    held.sort_unstable();
    let beside = |(i, &(ring, _, ended)): (usize, &(usize, u64, u64))| {
        let later = held[i + 1..].iter();
        later
            .take_while(|&&(r, at, _)| r == ring && at < ended)
            .count()
    };
    held.iter().enumerate().map(beside).sum()
}

#[test]
fn sundial_workers_conserve_money_on_hot_keys() {
    // Seen at most 5 with blocking back-offs (and 7 with parked ones).
    let beside = run_worker_storm(ProtocolKind::Sundial, 10);
    assert!(
        beside > 0,
        "no two transfers of one worker held locks at once"
    );
}

#[test]
fn silo_workers_conserve_money_on_hot_keys() {
    let beside = run_worker_storm(ProtocolKind::Silo, 10);
    assert!(
        beside > 0,
        "no two transfers of one worker held locks at once"
    );
}

#[test]
fn two_pl_wait_die_workers_conserve_money_on_hot_keys() {
    // Seen at most 5 with blocking back-offs (and 7 with parked ones).
    // Reads hold locks: every attempt keeps its worker to itself.
    assert_eq!(run_worker_storm(ProtocolKind::TwoPlWaitDie, 10), 0);
}
