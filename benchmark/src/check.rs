//! The correctness gate run after every measured window, on the stopped,
//! quiescent cluster.
//!
//! 1. Durability: snapshot every partition's visible store, crash and
//!    recover each partition in turn from its checkpoint and durable log,
//!    and require the recovered cluster to hold the identical
//!    `(table, key, value)` set. No crash happened during the window, so
//!    every acknowledged transaction must survive and nothing else appear.
//! 2. On TPC-C, the money and order-count invariants that only hold if
//!    every transaction was atomic, across tables and across partitions.

use primo_repro::workloads::codec::field;
use primo_repro::workloads::tpcc;
use primo_repro::{Key, Primo, RecoveryReport, TableId, TpccConfig, Value};
use std::collections::{BTreeMap, HashMap};

type Store = BTreeMap<(TableId, Key), Value>;

/// What the gate found, and what recovery cost while it looked.
#[derive(Debug, Default)]
pub struct Gate {
    /// One line per violated property; empty when the run was correct.
    pub violations: Vec<String>,
    /// Mean over partitions of recovery time per replayed transaction.
    pub recover_us_per_txn: f64,
    /// Mean over partitions of the whole recovery (wipe, restore, replay).
    pub recover_ms: f64,
    /// Transactions replayed from the durable logs, all partitions.
    pub replayed_txns: u64,
}

fn snapshot(primo: &Primo) -> Vec<Store> {
    primo
        .cluster()
        .partition_ids()
        .into_iter()
        .map(|p| {
            primo
                .cluster()
                .partition(p)
                .store
                .snapshot_visible()
                .into_iter()
                .map(|(t, k, v, _ts)| ((t, k), v))
                .collect()
        })
        .collect()
}

/// Run the gate. The cluster's workers must have stopped and its pending
/// acknowledgements drained (the caller waits out a few group-commit
/// intervals first).
pub fn run(primo: &Primo, tpcc: Option<&TpccConfig>) -> Gate {
    let mut gate = Gate::default();
    let before = snapshot(primo);
    if let Some(cfg) = tpcc {
        tpcc_invariants(cfg, &before, &mut gate.violations);
    }

    let mut reports: Vec<RecoveryReport> = Vec::new();
    for p in primo.cluster().partition_ids() {
        primo.crash_partition(p);
        match primo.recover_partition(p) {
            Some(report) => reports.push(report),
            None => gate
                .violations
                .push(format!("partition {} did not recover", p.0)),
        }
    }
    for (p, (was, now)) in before.iter().zip(snapshot(primo)).enumerate() {
        compare_stores(p, was, &now, &mut gate.violations);
    }

    for report in &reports {
        if report.replayed_txns == 0 {
            gate.violations.push(format!(
                "partition {} replayed nothing: the window left no durable log",
                report.partition.0
            ));
        }
        gate.recover_us_per_txn += report.duration_us as f64 / report.replayed_txns.max(1) as f64;
        gate.recover_ms += report.duration_us as f64 / 1000.0;
        gate.replayed_txns += report.replayed_txns as u64;
    }
    let n = reports.len().max(1) as f64;
    gate.recover_us_per_txn /= n;
    gate.recover_ms /= n;
    gate
}

fn compare_stores(p: usize, was: &Store, now: &Store, violations: &mut Vec<String>) {
    let lost = was.keys().filter(|k| !now.contains_key(k)).count();
    let appeared = now.keys().filter(|k| !was.contains_key(k)).count();
    let changed = was
        .iter()
        .filter(|(k, v)| now.get(k).is_some_and(|n| n != *v))
        .count();
    if lost + appeared + changed > 0 {
        violations.push(format!(
            "partition {p}: recovery lost {lost} records, resurrected {appeared}, changed {changed} \
             (of {})",
            was.len()
        ));
    }
}

/// TPC-C consistency conditions, on counters that all start at zero (YTD
/// fields) or one (`D_NEXT_O_ID`):
/// per warehouse `W_YTD = Σ D_YTD`; cluster-wide `Σ W_YTD = Σ C_YTD_PAYMENT`
/// (a remote Payment credits a warehouse on one partition and a customer on
/// another, so this is cross-partition atomicity); per district
/// `D_NEXT_O_ID − 1` = number of ORDER rows.
fn tpcc_invariants(cfg: &TpccConfig, stores: &[Store], violations: &mut Vec<String>) {
    let mut w_ytd: HashMap<u64, u64> = HashMap::new();
    let mut d_ytd_by_w: HashMap<u64, u64> = HashMap::new();
    let mut next_o_id: HashMap<u64, u64> = HashMap::new();
    let mut orders: HashMap<u64, u64> = HashMap::new();
    let mut c_ytd_payment = 0u64;
    for store in stores {
        for ((table, key), value) in store {
            match *table {
                tpcc::WAREHOUSE => {
                    w_ytd.insert(*key, field(value, tpcc::W_YTD));
                }
                tpcc::DISTRICT => {
                    *d_ytd_by_w
                        .entry(key / cfg.districts_per_warehouse)
                        .or_default() += field(value, tpcc::D_YTD);
                    next_o_id.insert(*key, field(value, tpcc::D_NEXT_O_ID));
                }
                tpcc::CUSTOMER => c_ytd_payment += field(value, tpcc::C_YTD_PAYMENT),
                // `order_key` = district_key × 10^7 + o_id.
                tpcc::ORDER => *orders.entry(key / 10_000_000).or_default() += 1,
                _ => {}
            }
        }
    }
    let bad_warehouses = w_ytd
        .iter()
        .filter(|(w, ytd)| d_ytd_by_w.get(w).copied().unwrap_or(0) != **ytd)
        .count();
    if bad_warehouses > 0 {
        violations.push(format!(
            "tpcc: W_YTD != sum of D_YTD on {bad_warehouses} of {} warehouses",
            w_ytd.len()
        ));
    }
    let total_w_ytd: u64 = w_ytd.values().sum();
    if total_w_ytd != c_ytd_payment {
        violations.push(format!(
            "tpcc: sum W_YTD {total_w_ytd} != sum C_YTD_PAYMENT {c_ytd_payment}"
        ));
    }
    if total_w_ytd == 0 {
        violations.push("tpcc: no payment committed, the invariants checked nothing".into());
    }
    let bad_districts = next_o_id
        .iter()
        .filter(|(d, next)| orders.get(d).copied().unwrap_or(0) != **next - 1)
        .count();
    if bad_districts > 0 {
        violations.push(format!(
            "tpcc: D_NEXT_O_ID - 1 != ORDER rows on {bad_districts} of {} districts",
            next_o_id.len()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_repro::workloads::codec::encode_fields;

    fn tiny_tpcc() -> (TpccConfig, Vec<Store>) {
        let cfg = TpccConfig::small(2);
        let mut s = Store::new();
        // Warehouse 0: YTD 30 = districts 10 + 20.
        s.insert((tpcc::WAREHOUSE, 0), encode_fields(&[30, 5], 0));
        s.insert(
            (tpcc::DISTRICT, cfg.district_key(0, 0)),
            encode_fields(&[2, 10, 1, 1], 0),
        );
        s.insert(
            (tpcc::DISTRICT, cfg.district_key(0, 1)),
            encode_fields(&[1, 20, 1, 1], 0),
        );
        s.insert(
            (tpcc::ORDER, cfg.order_key(0, 0, 1)),
            encode_fields(&[0, 5, 0], 0),
        );
        // The paying customers live on the other partition.
        let mut other = Store::new();
        other.insert((tpcc::CUSTOMER, 7), encode_fields(&[0, 30, 1, 0, 0], 0));
        (cfg, vec![s, other])
    }

    #[test]
    fn consistent_tpcc_state_passes() {
        let (cfg, stores) = tiny_tpcc();
        let mut v = Vec::new();
        tpcc_invariants(&cfg, &stores, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn each_tpcc_invariant_can_fail() {
        let (cfg, stores) = tiny_tpcc();

        let mut torn = stores.clone();
        torn[0].insert((tpcc::WAREHOUSE, 0), encode_fields(&[31, 5], 0));
        let mut v = Vec::new();
        tpcc_invariants(&cfg, &torn, &mut v);
        assert!(
            v.iter().any(|m| m.contains("W_YTD != sum of D_YTD")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("C_YTD_PAYMENT")), "{v:?}");

        let mut missing_order = stores.clone();
        missing_order[0].remove(&(tpcc::ORDER, cfg.order_key(0, 0, 1)));
        let mut v = Vec::new();
        tpcc_invariants(&cfg, &missing_order, &mut v);
        assert!(v.iter().any(|m| m.contains("ORDER rows")), "{v:?}");
    }

    #[test]
    fn store_comparison_reports_every_kind_of_difference() {
        let was: Store = [
            ((TableId(0), 1), Value::from_u64(1)),
            ((TableId(0), 2), Value::from_u64(2)),
        ]
        .into_iter()
        .collect();
        let mut v = Vec::new();
        compare_stores(0, &was, &was.clone(), &mut v);
        assert!(v.is_empty());

        let now: Store = [
            ((TableId(0), 2), Value::from_u64(9)),
            ((TableId(0), 3), Value::from_u64(3)),
        ]
        .into_iter()
        .collect();
        compare_stores(1, &was, &now, &mut v);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].contains("lost 1") && v[0].contains("resurrected 1") && v[0].contains("changed 1")
        );
    }

    #[test]
    fn gate_passes_on_an_idle_loaded_cluster_except_for_the_empty_log() {
        let primo = Primo::builder().partitions(2).fast_local().build();
        for p in primo.cluster().partition_ids() {
            primo.session().load(p, TableId(0), 1, Value::from_u64(5));
        }
        primo.checkpoint_all();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let gate = run(&primo, None);
        primo.shutdown();
        // Stores identical; the only complaint is that nothing was replayed.
        assert_eq!(gate.violations.len(), 2, "{:?}", gate.violations);
        assert!(gate
            .violations
            .iter()
            .all(|m| m.contains("replayed nothing")));
    }
}
