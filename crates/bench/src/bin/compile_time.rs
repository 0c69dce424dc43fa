//! Regenerates the **§4.2 compilation-time analysis**: wall-clock
//! compilation time of autobraid-full compared with the physical circuit
//! execution time it produces (the paper reports ~1–2% for most
//! benchmarks).
//!
//! Run with `cargo run --release -p autobraid-bench --bin compile_time`
//! (`--telemetry <path>` writes the `autobraid.telemetry/v1` JSON
//! snapshot of the whole run).

use autobraid::report::Table;
use autobraid::{AutoBraid, Strategy};
use autobraid_bench::{eval_config, full_run_requested, BenchEntry, TABLE2};

fn main() {
    autobraid_bench::enforce_flags(&["--full", "--telemetry", "--trace"]);
    let _telemetry = autobraid_bench::telemetry_sink();
    let _trace = autobraid_bench::trace_sink();
    let full = full_run_requested();
    let labels: &[&str] = if full {
        &[
            "urf2_277", "QFT-200", "QFT-400", "BV-200", "CC-300", "IM-500", "QAOA-200", "Shor-471",
        ]
    } else {
        &[
            "urf2_277", "QFT-200", "BV-200", "CC-300", "IM-500", "QAOA-200",
        ]
    };
    let entries: Vec<&BenchEntry> = TABLE2
        .iter()
        .filter(|e| labels.contains(&e.label))
        .collect();

    let compiler = AutoBraid::new(eval_config());
    let mut table = Table::new([
        "Benchmark",
        "compile (s)",
        "execution (s)",
        "compile/execution (%)",
    ]);
    for entry in entries {
        let circuit = entry.build().expect("registry entries build");
        // Wall-clock over the whole compilation, including every candidate
        // strategy autobraid-full evaluates internally.
        let started = std::time::Instant::now();
        let outcome = compiler.schedule(Strategy::Full, &circuit);
        let compile = started.elapsed().as_secs_f64();
        let execution = outcome.result.time_seconds();
        table.add_row([
            entry.label.to_string(),
            format!("{compile:.3}"),
            format!("{execution:.3}"),
            format!("{:.1}", 100.0 * compile / execution.max(1e-12)),
        ]);
        eprintln!("done: {}", entry.label);
    }
    println!("\nCompilation time vs physical execution time (autobraid-full)\n");
    println!("{}", table.render());
}
