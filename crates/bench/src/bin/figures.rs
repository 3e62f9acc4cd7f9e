//! Regenerate the paper's figures on the simulated cluster.
//!
//! ```text
//! figures <fig4|fig5|...|fig16|appendixA|all> [--quick|--full]
//!         [--duration-ms N] [--partitions N] [--workers N]
//! ```

use primo_bench::figures;
use primo_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_error("no figure given");
    }
    let which = args[0].to_lowercase();
    let mut scale = if args.iter().any(|a| a == "--full") {
        Scale::full()
    } else {
        Scale::quick()
    };
    let mut flags = args[1..].iter();
    while let Some(flag) = flags.next() {
        let set: fn(&mut Scale, usize) = match flag.as_str() {
            "--quick" | "--full" => continue,
            "--duration-ms" => |s, n| s.duration_ms = n as u64,
            "--partitions" => |s, n| s.partitions = n,
            "--workers" => |s, n| s.workers_per_partition = n,
            _ => usage_error(&format!("unknown flag: {flag}")),
        };
        match flags.next().map(|v| v.parse()) {
            Some(Ok(n)) => set(&mut scale, n),
            _ => usage_error(&format!("{flag} needs a number")),
        }
    }

    println!(
        "# scale: {} partitions x {} workers, {} ms per data point, {} YCSB keys/partition",
        scale.partitions,
        scale.workers_per_partition,
        scale.duration_ms,
        scale.ycsb_keys_per_partition
    );

    match which.as_str() {
        "fig4" => figures::fig4(&scale),
        "fig5" => figures::fig5(&scale),
        "fig6" => figures::fig6(&scale),
        "fig7" => figures::fig7(&scale),
        "fig8" => figures::fig8(&scale),
        "fig9" => figures::fig9(&scale),
        "fig10" => figures::fig10(&scale),
        "fig11" => figures::fig11(&scale),
        "fig12" => figures::fig12(&scale),
        "fig13" => figures::fig13(&scale),
        "fig14" => figures::fig14(&scale),
        "fig15" => figures::fig15(&scale),
        "fig16" => figures::fig16(&scale),
        "appendixa" => figures::appendix_a(),
        "all" => figures::all(&scale),
        other => usage_error(&format!("unknown figure: {other}")),
    }
}

fn usage_error(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: figures <fig4..fig16|appendixA|all> [--quick|--full] [--duration-ms N] [--partitions N] [--workers N]");
    std::process::exit(2);
}
