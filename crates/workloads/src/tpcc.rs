//! TPC-C (revision 5.11) as used in the paper (§6.1.2): warehouses are
//! horizontally partitioned (16 per partition by default); 10 % of NewOrder
//! order-lines are supplied by a remote warehouse (≈1 % per item, per the
//! spec) and 15 % of Payments pay through a remote warehouse.
//!
//! The implementation covers the full five-transaction mix (NewOrder,
//! Payment, OrderStatus, Delivery, StockLevel) but defaults to the
//! NewOrder + Payment mix the paper (and DBx1000) evaluates. The schema is
//! stored as numeric rows through [`crate::codec`]; the scale (customers per
//! district, items) is configurable so tests and simulations stay tractable —
//! contention behaviour is governed by warehouses/districts, which follow the
//! spec exactly.

use crate::codec::{encode_fields, field, with_field, with_fields};
use primo_common::{FastRng, Key, PartitionId, TableId, TxnResult};
use primo_runtime::txn::{TxnContext, TxnProgram, Workload};
use primo_storage::PartitionStore;
use std::sync::atomic::{AtomicU64, Ordering};

// Table ids.
pub const WAREHOUSE: TableId = TableId(0);
pub const DISTRICT: TableId = TableId(1);
pub const CUSTOMER: TableId = TableId(2);
pub const HISTORY: TableId = TableId(3);
pub const NEW_ORDER: TableId = TableId(4);
pub const ORDER: TableId = TableId(5);
pub const ORDER_LINE: TableId = TableId(6);
pub const ITEM: TableId = TableId(7);
pub const STOCK: TableId = TableId(8);

// Row field indices (subset of the spec's columns that the transactions
// actually read or update).
pub const W_YTD: usize = 0;
pub const W_TAX: usize = 1;
pub const D_NEXT_O_ID: usize = 0;
pub const D_YTD: usize = 1;
pub const D_TAX: usize = 2;
/// Oldest undelivered order id of the district: the delivery cursor. Orders
/// in `[D_DELIV_O_ID, D_NEXT_O_ID)` still have their NEW-ORDER row.
pub const D_DELIV_O_ID: usize = 3;
pub const C_BALANCE: usize = 0;
pub const C_YTD_PAYMENT: usize = 1;
pub const C_PAYMENT_CNT: usize = 2;
pub const C_DISCOUNT: usize = 3;
pub const C_DELIVERY_CNT: usize = 4;
pub const S_QUANTITY: usize = 0;
pub const S_YTD: usize = 1;
pub const S_ORDER_CNT: usize = 2;
pub const S_REMOTE_CNT: usize = 3;
pub const I_PRICE: usize = 0;
pub const O_CARRIER_ID: usize = 2;

/// TPC-C sizing and mix parameters.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    pub num_partitions: usize,
    /// Warehouses per partition (paper default: 16; Fig 10 sweeps 1–128).
    pub warehouses_per_partition: u64,
    pub districts_per_warehouse: u64,
    /// Customers per district (spec: 3000; scaled down for simulation).
    pub customers_per_district: u64,
    /// Items / stock entries per warehouse (spec: 100 000; scaled down).
    pub items: u64,
    /// Probability that a NewOrder order-line is supplied by a remote
    /// warehouse (spec: 1 %, which yields ≈10 % remote transactions).
    pub remote_item_prob: f64,
    /// Probability that a Payment pays through a remote warehouse (15 %).
    pub remote_payment_prob: f64,
    /// Transaction mix (weights): NewOrder, Payment, OrderStatus, Delivery,
    /// StockLevel.
    pub mix: [u32; 5],
    /// Filler bytes appended to every row (models realistic row widths).
    pub row_filler: usize,
}

impl TpccConfig {
    /// The paper's configuration with a reduced per-warehouse scale so that a
    /// simulated cluster loads in milliseconds rather than minutes.
    pub fn paper_default(num_partitions: usize) -> Self {
        TpccConfig {
            num_partitions,
            warehouses_per_partition: 16,
            districts_per_warehouse: 10,
            customers_per_district: 60,
            items: 1_000,
            remote_item_prob: 0.01,
            remote_payment_prob: 0.15,
            mix: [50, 50, 0, 0, 0],
            row_filler: 64,
        }
    }

    /// Full five-transaction mix (NewOrder 45, Payment 43, OrderStatus 4,
    /// Delivery 4, StockLevel 4).
    pub fn full_mix(num_partitions: usize) -> Self {
        TpccConfig {
            mix: [45, 43, 4, 4, 4],
            ..Self::paper_default(num_partitions)
        }
    }

    /// A tiny configuration for unit tests.
    pub fn small(num_partitions: usize) -> Self {
        TpccConfig {
            warehouses_per_partition: 2,
            customers_per_district: 10,
            items: 100,
            row_filler: 8,
            ..Self::paper_default(num_partitions)
        }
    }

    pub fn total_warehouses(&self) -> u64 {
        self.warehouses_per_partition * self.num_partitions as u64
    }

    pub fn partition_of_warehouse(&self, w: u64) -> PartitionId {
        PartitionId((w / self.warehouses_per_partition) as u32)
    }

    // ---- key encodings ----
    pub fn district_key(&self, w: u64, d: u64) -> Key {
        w * self.districts_per_warehouse + d
    }
    pub fn customer_key(&self, w: u64, d: u64, c: u64) -> Key {
        self.district_key(w, d) * self.customers_per_district + c
    }
    pub fn stock_key(&self, w: u64, i: u64) -> Key {
        w * self.items + i
    }
    pub fn order_key(&self, w: u64, d: u64, o: u64) -> Key {
        self.district_key(w, d) * 10_000_000 + o
    }
    pub fn order_line_key(&self, w: u64, d: u64, o: u64, line: u64) -> Key {
        self.order_key(w, d, o) * 16 + line
    }
}

/// The five TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccTxnKind {
    NewOrder,
    Payment,
    OrderStatus,
    Delivery,
    StockLevel,
}

/// One generated TPC-C transaction (inputs only — all logic runs inside
/// `execute`, branching on what it reads).
#[derive(Debug, Clone)]
pub struct TpccTxn {
    pub cfg: TpccConfig,
    pub kind: TpccTxnKind,
    pub home: PartitionId,
    pub w_id: u64,
    pub d_id: u64,
    pub c_id: u64,
    /// NewOrder: (item id, supply warehouse, quantity).
    pub items: Vec<(u64, u64, u64)>,
    /// Payment amount (cents).
    pub amount: u64,
    /// Payment: the customer's warehouse/district (may be remote).
    pub c_w_id: u64,
    pub c_d_id: u64,
    /// Unique id for history / order rows.
    pub unique: u64,
}

impl TpccTxn {
    fn part(&self, w: u64) -> PartitionId {
        self.cfg.partition_of_warehouse(w)
    }

    fn new_order(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let cfg = &self.cfg;
        let home = self.part(self.w_id);
        // Warehouse tax (read).
        let wh = ctx.read(home, WAREHOUSE, self.w_id)?;
        let w_tax = field(&wh, W_TAX);
        // District: read next order id, increment it (RMW on a hot record).
        let dk = cfg.district_key(self.w_id, self.d_id);
        let district = ctx.read(home, DISTRICT, dk)?;
        let o_id = field(&district, D_NEXT_O_ID);
        ctx.write(
            home,
            DISTRICT,
            dk,
            with_field(&district, D_NEXT_O_ID, o_id + 1),
        )?;
        // Customer discount (read).
        let ck = cfg.customer_key(self.w_id, self.d_id, self.c_id);
        let customer = ctx.read(home, CUSTOMER, ck)?;
        let c_discount = field(&customer, C_DISCOUNT);
        // Insert ORDER and NEW-ORDER rows.
        let ok = cfg.order_key(self.w_id, self.d_id, o_id);
        ctx.insert(
            home,
            ORDER,
            ok,
            encode_fields(&[self.c_id, self.items.len() as u64, 0], cfg.row_filler),
        )?;
        ctx.insert(home, NEW_ORDER, ok, encode_fields(&[o_id], 8))?;
        // Order lines.
        let mut total: u64 = 0;
        for (line, (i_id, supply_w, qty)) in self.items.iter().enumerate() {
            // Item price (read-only, replicated per partition).
            let item = ctx.read(home, ITEM, *i_id)?;
            let price = field(&item, I_PRICE);
            // Stock at the supplying warehouse (may be remote).
            let sp = self.part(*supply_w);
            let sk = cfg.stock_key(*supply_w, *i_id);
            let stock = ctx.read(sp, STOCK, sk)?;
            let s_qty = field(&stock, S_QUANTITY);
            let new_qty = if s_qty > *qty + 10 {
                s_qty - qty
            } else {
                s_qty + 91 - qty
            };
            let remote = u64::from(*supply_w != self.w_id);
            let updated = with_fields(
                &stock,
                &[
                    (S_QUANTITY, new_qty),
                    (S_YTD, field(&stock, S_YTD) + qty),
                    (S_ORDER_CNT, field(&stock, S_ORDER_CNT) + 1),
                    (S_REMOTE_CNT, field(&stock, S_REMOTE_CNT) + remote),
                ],
            );
            ctx.write(sp, STOCK, sk, updated)?;
            let amount = price * qty;
            total += amount;
            ctx.insert(
                home,
                ORDER_LINE,
                cfg.order_line_key(self.w_id, self.d_id, o_id, line as u64),
                encode_fields(&[*i_id, *supply_w, *qty, amount], cfg.row_filler),
            )?;
        }
        // The total is a function of reads (tax, discount, prices): the
        // write-set contents genuinely depend on query results.
        let _ = total * (100 + w_tax) * (100 - c_discount);
        Ok(())
    }

    fn payment(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let cfg = &self.cfg;
        let home = self.part(self.w_id);
        // Warehouse YTD (RMW).
        let wh = ctx.read(home, WAREHOUSE, self.w_id)?;
        ctx.write(
            home,
            WAREHOUSE,
            self.w_id,
            with_field(&wh, W_YTD, field(&wh, W_YTD) + self.amount),
        )?;
        // District YTD (RMW).
        let dk = cfg.district_key(self.w_id, self.d_id);
        let district = ctx.read(home, DISTRICT, dk)?;
        ctx.write(
            home,
            DISTRICT,
            dk,
            with_field(&district, D_YTD, field(&district, D_YTD) + self.amount),
        )?;
        // Customer balance (RMW) — possibly at a remote warehouse (15 %).
        let cp = self.part(self.c_w_id);
        let ck = cfg.customer_key(self.c_w_id, self.c_d_id, self.c_id);
        let customer = ctx.read(cp, CUSTOMER, ck)?;
        let updated = with_fields(
            &customer,
            &[
                (
                    C_BALANCE,
                    field(&customer, C_BALANCE).wrapping_sub(self.amount),
                ),
                (C_YTD_PAYMENT, field(&customer, C_YTD_PAYMENT) + self.amount),
                (C_PAYMENT_CNT, field(&customer, C_PAYMENT_CNT) + 1),
            ],
        );
        ctx.write(cp, CUSTOMER, ck, updated)?;
        // History insert (blind insert, unique key).
        ctx.insert(
            home,
            HISTORY,
            self.unique,
            encode_fields(
                &[self.w_id, self.d_id, self.c_id, self.amount],
                cfg.row_filler,
            ),
        )?;
        Ok(())
    }

    fn order_status(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let cfg = &self.cfg;
        let home = self.part(self.w_id);
        let ck = cfg.customer_key(self.w_id, self.d_id, self.c_id);
        let _customer = ctx.read(home, CUSTOMER, ck)?;
        // Read the district's latest order id and, if an order exists, its
        // order row (branching on query results).
        let dk = cfg.district_key(self.w_id, self.d_id);
        let district = ctx.read(home, DISTRICT, dk)?;
        let next_o = field(&district, D_NEXT_O_ID);
        if next_o > 1 {
            let ok = cfg.order_key(self.w_id, self.d_id, next_o - 1);
            let _ = ctx.read(home, ORDER, ok);
        }
        Ok(())
    }

    fn delivery(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let cfg = &self.cfg;
        let home = self.part(self.w_id);
        // Deliver the oldest undelivered order of each district: advance the
        // delivery cursor, stamp the carrier on the ORDER row, bump the
        // customer's delivery count and — the part that needs real `delete`
        // support — remove the NEW-ORDER row instead of faking its removal.
        // A committed NewOrder advances D_NEXT_O_ID atomically with its
        // NEW-ORDER insert, so every order in [oldest, next_o) has its row;
        // a concurrent Delivery racing us on the same district conflicts on
        // the cursor RMW (or, if it already reclaimed the row, surfaces as a
        // NotFound abort — the spec's "skipped delivery").
        for d in 0..cfg.districts_per_warehouse {
            let dk = cfg.district_key(self.w_id, d);
            let district = ctx.read(home, DISTRICT, dk)?;
            let next_o = field(&district, D_NEXT_O_ID);
            let oldest = field(&district, D_DELIV_O_ID);
            if oldest >= next_o {
                continue; // nothing undelivered in this district
            }
            let ok = cfg.order_key(self.w_id, d, oldest);
            ctx.delete(home, NEW_ORDER, ok)?;
            ctx.write(
                home,
                DISTRICT,
                dk,
                with_field(&district, D_DELIV_O_ID, oldest + 1),
            )?;
            let order = ctx.read(home, ORDER, ok)?;
            let c_id = field(&order, 0);
            ctx.write(home, ORDER, ok, with_field(&order, O_CARRIER_ID, 7))?;
            let ck = cfg.customer_key(self.w_id, d, c_id % cfg.customers_per_district);
            let customer = ctx.read(home, CUSTOMER, ck)?;
            ctx.write(
                home,
                CUSTOMER,
                ck,
                with_field(
                    &customer,
                    C_DELIVERY_CNT,
                    field(&customer, C_DELIVERY_CNT) + 1,
                ),
            )?;
        }
        Ok(())
    }

    fn stock_level(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let cfg = &self.cfg;
        let home = self.part(self.w_id);
        let dk = cfg.district_key(self.w_id, self.d_id);
        let _district = ctx.read(home, DISTRICT, dk)?;
        // Check stock of a handful of recently used items (simplified scan).
        for i in 0..10u64 {
            let item = (self.unique + i) % cfg.items;
            let _ = ctx.read(home, STOCK, cfg.stock_key(self.w_id, item))?;
        }
        Ok(())
    }
}

impl TxnProgram for TpccTxn {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        match self.kind {
            TpccTxnKind::NewOrder => self.new_order(ctx),
            TpccTxnKind::Payment => self.payment(ctx),
            TpccTxnKind::OrderStatus => self.order_status(ctx),
            TpccTxnKind::Delivery => self.delivery(ctx),
            TpccTxnKind::StockLevel => self.stock_level(ctx),
        }
    }

    fn home_partition(&self) -> PartitionId {
        self.home
    }

    fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
        // Only the key-determined accesses that can leave the home partition
        // are worth hinting: NewOrder's stock rows at the supplying
        // warehouses and Payment's customer row at the paying warehouse.
        // Everything else (district cursors, order rows) is home-resident or
        // depends on values read inside the transaction. The hint is thus
        // partial for the worker's admission too: it may run two bodies that
        // meet on a district or warehouse row side by side under a 2PC
        // baseline, and one of them aborts.
        match self.kind {
            TpccTxnKind::NewOrder => self
                .items
                .iter()
                .map(|(i_id, supply_w, _)| {
                    (
                        self.part(*supply_w),
                        STOCK,
                        self.cfg.stock_key(*supply_w, *i_id),
                    )
                })
                .collect(),
            TpccTxnKind::Payment => vec![(
                self.part(self.c_w_id),
                CUSTOMER,
                self.cfg.customer_key(self.c_w_id, self.c_d_id, self.c_id),
            )],
            _ => Vec::new(),
        }
    }

    fn is_read_only(&self) -> bool {
        matches!(
            self.kind,
            TpccTxnKind::OrderStatus | TpccTxnKind::StockLevel
        )
    }

    fn read_fraction_hint(&self) -> f64 {
        match self.kind {
            TpccTxnKind::NewOrder => 0.4,
            TpccTxnKind::Payment => 0.45,
            TpccTxnKind::OrderStatus | TpccTxnKind::StockLevel => 1.0,
            TpccTxnKind::Delivery => 0.5,
        }
    }

    fn label(&self) -> &'static str {
        match self.kind {
            TpccTxnKind::NewOrder => "new_order",
            TpccTxnKind::Payment => "payment",
            TpccTxnKind::OrderStatus => "order_status",
            TpccTxnKind::Delivery => "delivery",
            TpccTxnKind::StockLevel => "stock_level",
        }
    }
}

/// The TPC-C workload generator / loader.
#[derive(Debug)]
pub struct TpccWorkload {
    cfg: TpccConfig,
    unique: AtomicU64,
}

impl TpccWorkload {
    pub fn new(cfg: TpccConfig) -> Self {
        TpccWorkload {
            cfg,
            unique: AtomicU64::new(1),
        }
    }

    pub fn config(&self) -> &TpccConfig {
        &self.cfg
    }

    fn pick_kind(&self, rng: &mut FastRng) -> TpccTxnKind {
        let total: u32 = self.cfg.mix.iter().sum();
        let mut roll = rng.next_below(total as u64) as u32;
        for (i, w) in self.cfg.mix.iter().enumerate() {
            if roll < *w {
                return match i {
                    0 => TpccTxnKind::NewOrder,
                    1 => TpccTxnKind::Payment,
                    2 => TpccTxnKind::OrderStatus,
                    3 => TpccTxnKind::Delivery,
                    _ => TpccTxnKind::StockLevel,
                };
            }
            roll -= w;
        }
        TpccTxnKind::NewOrder
    }
}

impl Workload for TpccWorkload {
    fn name(&self) -> &'static str {
        "TPC-C"
    }

    fn load_partition(&self, store: &PartitionStore, partition: PartitionId) {
        let cfg = &self.cfg;
        let w_lo = partition.0 as u64 * cfg.warehouses_per_partition;
        let w_hi = w_lo + cfg.warehouses_per_partition;
        // Items are a read-only table replicated on every partition.
        let items = store.table(ITEM);
        for i in 0..cfg.items {
            items.insert(i, encode_fields(&[100 + i % 900], cfg.row_filler));
        }
        for w in w_lo..w_hi {
            store
                .table(WAREHOUSE)
                .insert(w, encode_fields(&[0, 10 + w % 10], cfg.row_filler));
            for d in 0..cfg.districts_per_warehouse {
                // next_o_id = 1, ytd = 0, tax, delivery cursor = 1.
                store.table(DISTRICT).insert(
                    cfg.district_key(w, d),
                    encode_fields(&[1, 0, 10 + d, 1], cfg.row_filler),
                );
                for c in 0..cfg.customers_per_district {
                    store.table(CUSTOMER).insert(
                        cfg.customer_key(w, d, c),
                        encode_fields(&[1_000, 0, 0, c % 50, 0], cfg.row_filler),
                    );
                }
            }
            let stock = store.table(STOCK);
            for i in 0..cfg.items {
                stock.insert(
                    cfg.stock_key(w, i),
                    encode_fields(&[50 + (i % 50), 0, 0, 0], cfg.row_filler),
                );
            }
        }
    }

    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        Box::new(self.generate_txn(rng, home))
    }
}

impl TpccWorkload {
    /// Generate a concrete [`TpccTxn`] (the [`Workload::generate`] impl boxes
    /// this; tests and benches use it directly to inspect the inputs).
    pub fn generate_txn(&self, rng: &mut FastRng, home: PartitionId) -> TpccTxn {
        let cfg = self.cfg.clone();
        let w_lo = home.0 as u64 * cfg.warehouses_per_partition;
        let w_id = w_lo + rng.next_below(cfg.warehouses_per_partition);
        let d_id = rng.next_below(cfg.districts_per_warehouse);
        let c_id =
            rng.nurand(1023, 0, cfg.customers_per_district - 1, 259) % cfg.customers_per_district;
        let kind = self.pick_kind(rng);
        let unique = self.unique.fetch_add(1, Ordering::Relaxed)
            + (home.0 as u64) * 1_000_000_000
            + rng.next_below(1_000) * 1_000_000_000_000;

        let mut items = Vec::new();
        let mut c_w_id = w_id;
        let mut c_d_id = d_id;
        match kind {
            TpccTxnKind::NewOrder => {
                let ol_cnt = rng.next_range(5, 15);
                for _ in 0..ol_cnt {
                    let i_id = rng.nurand(8191, 0, cfg.items - 1, 7911) % cfg.items;
                    let supply_w = if cfg.total_warehouses() > 1 && rng.flip(cfg.remote_item_prob) {
                        let mut other = rng.next_below(cfg.total_warehouses());
                        while other == w_id {
                            other = rng.next_below(cfg.total_warehouses());
                        }
                        other
                    } else {
                        w_id
                    };
                    items.push((i_id, supply_w, rng.next_range(1, 10)));
                }
            }
            TpccTxnKind::Payment
                if cfg.total_warehouses() > 1 && rng.flip(cfg.remote_payment_prob) =>
            {
                let mut other = rng.next_below(cfg.total_warehouses());
                while other == w_id {
                    other = rng.next_below(cfg.total_warehouses());
                }
                c_w_id = other;
                c_d_id = rng.next_below(cfg.districts_per_warehouse);
            }
            _ => {}
        }

        TpccTxn {
            cfg,
            kind,
            home,
            w_id,
            d_id,
            c_id,
            items,
            amount: rng.next_range(1, 5_000),
            c_w_id,
            c_d_id,
            unique,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_core::PrimoProtocol;
    use primo_runtime::cluster::Cluster;
    use primo_runtime::worker::run_session_txn;

    #[test]
    fn loader_populates_all_tables() {
        let cfg = TpccConfig::small(2);
        let w = TpccWorkload::new(cfg.clone());
        let store = PartitionStore::new(PartitionId(0));
        w.load_partition(&store, PartitionId(0));
        assert_eq!(
            store.table(WAREHOUSE).len() as u64,
            cfg.warehouses_per_partition
        );
        assert_eq!(
            store.table(DISTRICT).len() as u64,
            cfg.warehouses_per_partition * cfg.districts_per_warehouse
        );
        assert_eq!(
            store.table(CUSTOMER).len() as u64,
            cfg.warehouses_per_partition * cfg.districts_per_warehouse * cfg.customers_per_district
        );
        assert_eq!(store.table(ITEM).len() as u64, cfg.items);
        assert_eq!(
            store.table(STOCK).len() as u64,
            cfg.warehouses_per_partition * cfg.items
        );
    }

    #[test]
    fn remote_ratios_follow_the_spec() {
        let cfg = TpccConfig::paper_default(4);
        let w = TpccWorkload::new(cfg.clone());
        let mut rng = FastRng::new(11);
        let mut neworder_remote = 0;
        let mut neworder_total = 0;
        let mut payment_remote = 0;
        let mut payment_total = 0;
        for _ in 0..4_000 {
            let t = w.generate_txn(&mut rng, PartitionId(0));
            match t.kind {
                TpccTxnKind::NewOrder => {
                    neworder_total += 1;
                    if t.items.iter().any(|(_, sw, _)| *sw != t.w_id) {
                        neworder_remote += 1;
                    }
                }
                TpccTxnKind::Payment => {
                    payment_total += 1;
                    if t.c_w_id != t.w_id {
                        payment_remote += 1;
                    }
                }
                _ => {}
            }
        }
        let no_ratio = neworder_remote as f64 / neworder_total as f64;
        let pay_ratio = payment_remote as f64 / payment_total as f64;
        assert!(
            (0.05..0.18).contains(&no_ratio),
            "NewOrder remote {no_ratio}"
        );
        assert!(
            (0.10..0.20).contains(&pay_ratio),
            "Payment remote {pay_ratio}"
        );
    }

    #[test]
    fn new_order_and_payment_run_under_primo() {
        let cfg = TpccConfig::small(2);
        let workload = TpccWorkload::new(cfg.clone());
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        for p in cluster.partition_ids() {
            workload.load_partition(&cluster.partition(p).store, p);
        }
        let protocol = PrimoProtocol::full();
        let mut rng = FastRng::new(5);
        let mut neworders = 0;
        for _ in 0..40 {
            let prog = workload.generate(&mut rng, PartitionId(0));
            run_session_txn(&cluster, &protocol, prog.as_ref()).unwrap();
            if prog.label() == "new_order" {
                neworders += 1;
            }
        }
        assert!(neworders > 0, "mix should contain NewOrder transactions");
        // The district next-order-id of at least one district advanced.
        let cfg2 = cfg;
        let advanced =
            (0..cfg2.warehouses_per_partition * cfg2.districts_per_warehouse).any(|dk| {
                cluster
                    .partition(PartitionId(0))
                    .store
                    .get(DISTRICT, dk)
                    .map(|r| field(&r.read().value, D_NEXT_O_ID) > 1)
                    .unwrap_or(false)
            });
        assert!(advanced, "NewOrder must advance some district's next_o_id");
        cluster.shutdown();
    }

    #[test]
    fn payment_conserves_money_flow() {
        let cfg = TpccConfig::small(1);
        let workload = TpccWorkload::new(cfg.clone());
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        for p in cluster.partition_ids() {
            workload.load_partition(&cluster.partition(p).store, p);
        }
        let protocol = PrimoProtocol::full();
        let txn = TpccTxn {
            cfg: cfg.clone(),
            kind: TpccTxnKind::Payment,
            home: PartitionId(0),
            w_id: 0,
            d_id: 0,
            c_id: 1,
            items: vec![],
            amount: 250,
            c_w_id: 0,
            c_d_id: 0,
            unique: 42,
        };
        run_session_txn(&cluster, &protocol, &txn).unwrap();
        let wh = cluster
            .partition(PartitionId(0))
            .store
            .get(WAREHOUSE, 0)
            .unwrap()
            .read()
            .value;
        assert_eq!(field(&wh, W_YTD), 250);
        let cust = cluster
            .partition(PartitionId(0))
            .store
            .get(CUSTOMER, cfg.customer_key(0, 0, 1))
            .unwrap()
            .read()
            .value;
        assert_eq!(field(&cust, C_PAYMENT_CNT), 1);
        assert_eq!(field(&cust, C_BALANCE), 1_000 - 250);
        cluster.shutdown();
    }

    #[test]
    fn delivery_deletes_the_new_order_row() {
        let cfg = TpccConfig::small(1);
        let workload = TpccWorkload::new(cfg.clone());
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        for p in cluster.partition_ids() {
            workload.load_partition(&cluster.partition(p).store, p);
        }
        let protocol = PrimoProtocol::full();
        let base = TpccTxn {
            cfg: cfg.clone(),
            kind: TpccTxnKind::NewOrder,
            home: PartitionId(0),
            w_id: 0,
            d_id: 0,
            c_id: 1,
            items: vec![(1, 0, 2), (2, 0, 1)],
            amount: 0,
            c_w_id: 0,
            c_d_id: 0,
            unique: 1,
        };
        run_session_txn(&cluster, &protocol, &base).unwrap();
        let store = &cluster.partition(PartitionId(0)).store;
        let ok = cfg.order_key(0, 0, 1);
        assert!(
            store.get(NEW_ORDER, ok).is_some(),
            "NewOrder must insert the NEW-ORDER row"
        );

        let delivery = TpccTxn {
            kind: TpccTxnKind::Delivery,
            ..base.clone()
        };
        run_session_txn(&cluster, &protocol, &delivery).unwrap();
        assert!(
            store.get(NEW_ORDER, ok).is_none(),
            "Delivery must remove the NEW-ORDER row via a real delete"
        );
        // The delivery cursor advanced and the ORDER row carries the carrier.
        let district = store.get(DISTRICT, cfg.district_key(0, 0)).unwrap().read();
        assert_eq!(field(&district.value, D_DELIV_O_ID), 2);
        let order = store.get(ORDER, ok).unwrap().read();
        assert_eq!(field(&order.value, O_CARRIER_ID), 7);
        // Running Delivery again finds nothing undelivered and commits as a
        // no-op for district 0.
        run_session_txn(&cluster, &protocol, &delivery).unwrap();
        assert_eq!(
            field(
                &store
                    .get(DISTRICT, cfg.district_key(0, 0))
                    .unwrap()
                    .read()
                    .value,
                D_DELIV_O_ID
            ),
            2
        );
        cluster.shutdown();
    }

    #[test]
    fn full_mix_generates_all_five_kinds() {
        let w = TpccWorkload::new(TpccConfig::full_mix(2));
        let mut rng = FastRng::new(21);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            seen.insert(w.generate_txn(&mut rng, PartitionId(1)).label());
        }
        for label in [
            "new_order",
            "payment",
            "order_status",
            "delivery",
            "stock_level",
        ] {
            assert!(seen.contains(label), "mix never produced {label}");
        }
    }

    #[test]
    fn key_encodings_do_not_collide_across_districts() {
        let cfg = TpccConfig::paper_default(2);
        let mut keys = std::collections::HashSet::new();
        for w in 0..cfg.total_warehouses() {
            for d in 0..cfg.districts_per_warehouse {
                assert!(keys.insert(cfg.district_key(w, d)));
            }
        }
        let mut ckeys = std::collections::HashSet::new();
        for w in 0..2 {
            for d in 0..cfg.districts_per_warehouse {
                for c in 0..cfg.customers_per_district {
                    assert!(ckeys.insert(cfg.customer_key(w, d, c)));
                }
            }
        }
    }
}
