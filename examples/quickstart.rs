//! Quickstart: build a logical circuit, schedule its braiding paths with
//! AutoBraid, and inspect the result — including the observability layer
//! (`docs/METRICS.md` uses this example's output as its worked example).
//!
//! Run with `cargo run --release --example quickstart`.

use autobraid::prelude::*;

fn main() {
    // A small entangling circuit: GHZ preparation plus a mixing layer.
    let mut circuit = Circuit::named(6, "quickstart-ghz");
    circuit.h(0);
    for q in 0..5 {
        circuit.cx(q, q + 1);
    }
    for q in 0..6 {
        circuit.t(q);
    }
    circuit.cx(0, 3).cx(1, 4).cx(2, 5); // three long-range CX gates
    println!("{}", CircuitStats::of(&circuit));

    // Compile with the paper's defaults: d = 33, one cycle = 2.2 µs.
    let compiler = AutoBraid::new(ScheduleConfig::default());
    let outcome = compiler.schedule(Strategy::Full, &circuit);
    let result = &outcome.result;

    println!(
        "\nscheduled by {}: {} braid steps, {} local layers, {} swaps",
        result.scheduler, result.braid_steps, result.local_steps, result.swap_count
    );
    println!(
        "total: {} cycles = {:.1} µs (critical path {} cycles)",
        result.total_cycles,
        result.time_us(),
        critical_path_cycles(&circuit, result.timing()),
    );
    println!(
        "peak routing-vertex utilization: {:.0}%",
        100.0 * result.peak_utilization
    );

    // The full schedule is recorded as intervals; a lock-step step's
    // intervals share their start slot (one slot is d cycles).
    println!("\nschedule:");
    for step in result.steps.chunk_by(|a, b| a.start_slot == b.start_slot) {
        let paths: Vec<String> = step
            .iter()
            .filter_map(|i| Some(format!("g{} ({} vertices)", i.gate()?, i.path()?.len())))
            .collect();
        let locals = step.iter().filter(|i| i.path().is_none()).count();
        let swaps = step.len() - paths.len() - locals;
        print!(
            "  slot {}: braids [{}] + {locals} local(s)",
            step[0].start_slot,
            paths.join(", "),
        );
        if swaps > 0 {
            print!(" + {swaps} swap(s)");
        }
        println!();
    }

    // Every schedule is machine-checkable.
    verify_schedule(&circuit, &outcome.grid, &outcome.initial_placement, result)
        .expect("schedule verifies");
    println!("\nschedule verified: disjoint paths, dependence order, full coverage ✓");

    // The pipeline façade adds per-stage timing and, with telemetry on,
    // counters/histograms/spans from every subsystem it drives.
    let report = Pipeline::new()
        .with_options(CompileOptions {
            telemetry: true,
            ..CompileOptions::default()
        })
        .compile(&circuit)
        .expect("quickstart circuit compiles");
    let snapshot = report.telemetry.as_ref().expect("telemetry was enabled");
    println!("\ntelemetry ({} metrics):\n", snapshot.metric_names().len());
    println!("{}", render_telemetry(snapshot));
    println!("machine-readable report (autobraid.telemetry/v1 inside `telemetry`):\n");
    println!("{}", compile_report_json(&report).render_pretty());
}
