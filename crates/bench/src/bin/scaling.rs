//! Scaling benchmark for the parallel batch-compilation runtime: times
//! `Pipeline::compile_batch` at one thread and at `--threads N`, checks
//! the outputs are byte-identical (the determinism contract of
//! `docs/RUNTIME.md`), and reports the wall-clock speedup. A second
//! table does the same for intra-circuit parallelism on one large
//! circuit.
//!
//! Run with `cargo run --release -p autobraid-bench --bin scaling`.
//! Flags: `--threads N` (default 4), `--batch N` circuits (default 8),
//! `--tiny` (CI smoke run: small circuits, one timing pass),
//! `--telemetry <path>` (dump the merged `autobraid.telemetry/v1`
//! snapshot).

use autobraid::config::ScheduleConfig;
use autobraid::pipeline::Pipeline;
use autobraid::report::Table;
use autobraid::runtime::CompileJob;
use autobraid_bench::{flag_requested, usize_flag};
use autobraid_circuit::generators::{ising::ising, qaoa::qaoa, qft::qft};
use std::time::Instant;

fn pipeline(threads: usize) -> Pipeline {
    Pipeline::new().with_config(ScheduleConfig::default().with_threads(threads))
}

/// Wall-clock seconds for one batch compile, panicking on any job error.
fn time_batch(threads: usize, jobs: &[CompileJob]) -> (f64, Vec<String>) {
    let p = pipeline(threads);
    let started = Instant::now();
    let reports = p.compile_batch(jobs);
    let seconds = started.elapsed().as_secs_f64();
    let canonical: Vec<String> = reports
        .iter()
        .map(|r| r.as_ref().expect("scaling jobs compile").canonical_json())
        .collect();
    (seconds, canonical)
}

fn main() {
    autobraid_bench::enforce_flags(&["--threads", "--tiny", "--batch", "--telemetry", "--trace"]);
    let _telemetry = autobraid_bench::telemetry_sink();
    let _trace = autobraid_bench::trace_sink();
    let threads = usize_flag("--threads", 4);
    let tiny = flag_requested("--tiny");
    let batch = usize_flag("--batch", if tiny { 4 } else { 8 });

    // A mixed batch: all-to-all, nearest-neighbor, and 3-regular
    // workloads, so the pool sees uneven job sizes.
    let jobs: Vec<CompileJob> = (0..batch)
        .map(|i| {
            let circuit = match i % 3 {
                0 if tiny => qft(8).unwrap(),
                0 => qft(20 + (i as u32 / 3) * 2).unwrap(),
                1 if tiny => ising(10, 1).unwrap(),
                1 => ising(30, 2).unwrap(),
                _ if tiny => qaoa(8, 2, 2, 7).unwrap(),
                _ => qaoa(24, 2, 3, 11).unwrap(),
            };
            CompileJob::circuit(circuit).with_label(format!("job-{i}"))
        })
        .collect();

    println!("batch of {batch} circuits, 1 vs {threads} thread(s):\n");
    let (serial_s, serial_out) = time_batch(1, &jobs);
    let (parallel_s, parallel_out) = time_batch(threads, &jobs);
    assert_eq!(
        serial_out, parallel_out,
        "determinism violation: parallel batch output differs from serial"
    );

    let mut table = Table::new(["threads", "wall (s)", "speedup"]);
    table.add_row(["1".to_string(), format!("{serial_s:.3}"), "1.00".into()]);
    table.add_row([
        threads.to_string(),
        format!("{parallel_s:.3}"),
        format!("{:.2}", serial_s / parallel_s.max(1e-9)),
    ]);
    println!("{}", table.render());
    println!("outputs byte-identical across thread counts ✓\n");

    // Intra-circuit parallelism: one circuit, the same thread budget
    // spent inside the compile (LLG routing + annealing portfolio).
    let big = if tiny {
        qft(12).unwrap()
    } else {
        qft(40).unwrap()
    };
    println!("single {} compile, 1 vs {threads} thread(s):\n", big.name());
    let started = Instant::now();
    let serial_report = pipeline(1).compile(&big).expect("compiles");
    let intra_serial_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let parallel_report = pipeline(threads).compile(&big).expect("compiles");
    let intra_parallel_s = started.elapsed().as_secs_f64();
    assert_eq!(
        serial_report.canonical_json(),
        parallel_report.canonical_json(),
        "determinism violation: intra-circuit parallel compile differs"
    );

    let mut table = Table::new(["threads", "wall (s)", "speedup"]);
    table.add_row([
        "1".to_string(),
        format!("{intra_serial_s:.3}"),
        "1.00".into(),
    ]);
    table.add_row([
        threads.to_string(),
        format!("{intra_parallel_s:.3}"),
        format!("{:.2}", intra_serial_s / intra_parallel_s.max(1e-9)),
    ]);
    println!("{}", table.render());
    println!("outputs byte-identical across thread counts ✓");
}
