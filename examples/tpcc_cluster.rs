//! TPC-C on a simulated shared-nothing cluster: the wholesale-business
//! workload the paper's introduction motivates (NewOrder chooses how much
//! stock to deduct based on what it reads; 10 % of order lines are supplied
//! by a remote warehouse; 15 % of payments cross warehouses).
//!
//! Runs Primo on a 4-partition cluster (16 warehouses per partition) and
//! prints throughput plus the per-phase latency breakdown.
//!
//! Run with: `cargo run --release --example tpcc_cluster`

use primo_repro::{Phase, Primo, ProtocolKind, Scale};

fn main() {
    let scale = Scale {
        partitions: 4,
        workers_per_partition: 4,
        duration_ms: 600,
        warmup_ms: 100,
        ..Scale::quick()
    };
    let tpcc = scale.tpcc_config();

    println!(
        "TPC-C: {} partitions x {} warehouses, NewOrder/Payment mix",
        scale.partitions, tpcc.warehouses_per_partition
    );
    let snap = Primo::builder()
        .protocol(ProtocolKind::Primo)
        .experiment()
        .scale(scale)
        .tpcc(tpcc)
        .run();

    println!("committed:     {}", snap.committed);
    println!("throughput:    {:.1} ktps", snap.ktps());
    println!("abort rate:    {:.3}", snap.abort_rate);
    println!("avg latency:   {:.2} ms", snap.mean_latency_ms);
    println!("p99 latency:   {:.2} ms", snap.p99_latency_ms);
    println!("latency breakdown per committed transaction:");
    for phase in Phase::ALL {
        let ms = snap.phase(phase);
        if ms > 0.0005 {
            println!("  {:<12} {:.3} ms", phase.label(), ms);
        }
    }
}
