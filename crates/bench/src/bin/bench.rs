//! The benchmark regression gate (see `crates/bench/src/regression.rs`
//! and `docs/METRICS.md`).
//!
//! Subcommands:
//!
//! - `baseline` — measure the fixed suite and write
//!   `BENCH_baseline.json` (`--out <path>`, `--repeats N` interleaved
//!   rounds). Run on a quiet machine and commit the file.
//! - `regress` — re-measure the suite and compare machine-normalized
//!   scores against the checked-in baseline (`--baseline <path>`,
//!   `--repeats N`); exits nonzero when an entry slows down past its
//!   noise-aware threshold. Each regressing entry — and each
//!   *near-threshold* entry, past 90% of its allowed ratio without
//!   firing — is re-run under a `TraceRecorder` and its Perfetto trace
//!   written to `--trace-dir` (default `target/regress-traces`) so the
//!   slow run can be inspected, not just flagged.
//!   `--inject-slowdown <factor>` multiplies the fresh scores — a
//!   self-test hook proving the gate fires (used by CI). Every run also
//!   prints `observe/ambient_events` over `compile/qft` and fails past
//!   2%, the daemon recorder stack's budget (see `ambient_overhead`).
//! - `serve` — throughput/latency bench of the `autobraidd` compile
//!   service: starts an in-process daemon, hammers it with `--clients`
//!   concurrent connections issuing `--requests` compiles each, and
//!   reports compiles/sec with p50/p99 latency. `--threads N` sizes the
//!   daemon's worker pool; `--no-cache` makes every request pay a full
//!   compile instead of hitting the content-addressed cache. The same
//!   round-trips join the regression suite as `serve/roundtrip_hit` /
//!   `serve/roundtrip_miss`. Protocol details: `docs/SERVICE.md`.
//!
//! `baseline` and `regress` hold the process to one CPU
//! (`pin_to_one_cpu`).
//!
//! Run with `cargo run --release -p autobraid-bench --bin bench -- regress`.

use autobraid_bench::regression::{
    ambient_overhead, classify, measure, suite, Baseline, BenchCase, AMBIENT_BUDGET,
    DEFAULT_BASELINE_PATH, DEFAULT_ROUNDS,
};
use autobraid_bench::{enforce_flags, flag_requested, string_flag, usize_flag};
use autobraid_service::{Client, CompileRequest, Server, ServiceConfig};
use autobraid_telemetry::{install, TraceRecorder};
use std::sync::Arc;
use std::time::Instant;

const VALID_FLAGS: &[&str] = &[
    "--out",
    "--baseline",
    "--repeats",
    "--inject-slowdown",
    "--trace-dir",
    "--clients",
    "--requests",
    "--threads",
    "--no-cache",
];

fn usage() -> ! {
    eprintln!(
        "usage: bench <baseline|regress|serve> [flags]\n\
         \x20 baseline  --out <path> --repeats <n>\n\
         \x20 regress   --baseline <path> --repeats <n> --trace-dir <dir> --inject-slowdown <f>\n\
         \x20 serve     --clients <n> --requests <n> --threads <n> [--no-cache]"
    );
    std::process::exit(2);
}

fn main() {
    enforce_flags(VALID_FLAGS);
    let subcommand = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| usage());
    let rounds = usize_flag("--repeats", DEFAULT_ROUNDS);
    if matches!(subcommand.as_str(), "baseline" | "regress") {
        pin_to_one_cpu();
    }
    match subcommand.as_str() {
        "baseline" => run_baseline_cmd(rounds),
        "regress" => run_regress_cmd(rounds),
        "serve" => run_serve_cmd(),
        _ => usage(),
    }
}

/// Holds this thread, and every thread it spawns from here on, to the
/// highest-numbered CPU it may use (interrupts favour CPU 0). Unpinned,
/// the `serve/*` client and daemon threads share a core in some
/// processes and not in others, and a cross-core wake-up doubles the
/// round trip; on one core each hand-off is a context switch, so the
/// minimum times the code. Called before the suite starts its daemon,
/// whose threads inherit the mask.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const [u64; 16]) -> i32;
    }
    // The kernel refuses a mask outside the allowed set, so the first
    // CPU it accepts, counting down, is the highest allowed one.
    let pinned = (0..1024usize).rev().any(|cpu| {
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the call reads exactly `size_of_val(&mask)` bytes of
        // a live array; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), &mask) == 0 }
    });
    if !pinned {
        eprintln!("warning: cannot pin to one CPU; measuring unpinned");
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

/// Load-tests an in-process daemon: `--clients` concurrent connections
/// issuing `--requests` compiles of the same circuit each, then reports
/// compiles/sec and latency percentiles.
fn run_serve_cmd() {
    let clients = usize_flag("--clients", 4);
    let requests = usize_flag("--requests", 64);
    let threads = usize_flag("--threads", 2);
    let use_cache = !flag_requested("--no-cache");
    let server = Server::start(ServiceConfig {
        threads,
        ..ServiceConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("serve bench: daemon failed to start: {e}");
        std::process::exit(1);
    });
    let addr = server.addr();
    eprintln!(
        "serve bench: {clients} clients x {requests} requests, {threads} workers, cache {}",
        if use_cache { "on" } else { "off" }
    );
    let qasm = "qreg q[4]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3];";
    let start = Instant::now();
    let workers: Vec<std::thread::JoinHandle<Vec<f64>>> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect to daemon");
                let request = CompileRequest::qasm(qasm).with_cache(use_cache);
                (0..requests)
                    .map(|_| {
                        let sent = Instant::now();
                        client.compile(&request).expect("compile round-trip");
                        sent.elapsed().as_secs_f64() * 1e3
                    })
                    .collect()
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let percentile = |p: f64| -> f64 {
        let idx = ((latencies_ms.len() as f64 - 1.0) * p).round() as usize;
        latencies_ms[idx]
    };
    let total = latencies_ms.len();
    let cache = server.cache_stats();
    println!(
        "serve: {total} compiles in {elapsed:.2} s -> {:.1} compiles/sec",
        total as f64 / elapsed
    );
    // The daemon's own windowed view of the same run, from the
    // `autobraid.metrics/v1` frame — client-side numbers include the
    // socket round-trip, the daemon's only the request handling, so
    // the gap between the rows is wire + framing cost.
    let window = Client::connect(addr)
        .ok()
        .and_then(|mut c| c.metrics().ok())
        .map(|frame| {
            let at = |key: &str| {
                frame
                    .get("window")
                    .and_then(|w| w.get("histograms"))
                    .and_then(|h| h.get("service.latency_ms"))
                    .and_then(|s| s.get(key))
                    .and_then(autobraid_telemetry::JsonValue::as_f64)
                    .unwrap_or(0.0)
            };
            (at("p50"), at("p99"), at("count"))
        });
    println!("latency                 p50 ms      p99 ms");
    println!(
        "  client round-trip   {:>8.3}    {:>8.3}   (max {:.3} ms)",
        percentile(0.50),
        percentile(0.99),
        latencies_ms.last().copied().unwrap_or(0.0)
    );
    match window {
        Some((p50, p99, n)) => println!(
            "  daemon window       {p50:>8.3}    {p99:>8.3}   (n {n:.0}, autobraid.metrics/v1)"
        ),
        None => println!("  daemon window       (metrics frame unavailable)"),
    }
    println!(
        "cache: {} hits, {} misses, {} entries",
        cache.hits, cache.misses, cache.entries
    );
}

/// Prints each measured entry's minimum on stderr.
fn report(measured: &Baseline) {
    for entry in &measured.entries {
        eprintln!("  {:<26} {:>10.1} us/iter", entry.name, entry.min_ns / 1e3);
    }
}

fn run_baseline_cmd(rounds: usize) {
    let out = string_flag("--out").unwrap_or_else(|| DEFAULT_BASELINE_PATH.to_string());
    eprintln!("recording baseline ({rounds} interleaved rounds)...");
    let baseline = measure(&suite(), rounds);
    report(&baseline);
    if let Err(e) = baseline.save(&out) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    eprintln!(
        "baseline written to {out} (calibration {:.1} us)",
        baseline.calibration_ns / 1e3
    );
}

fn run_regress_cmd(rounds: usize) {
    let path = string_flag("--baseline").unwrap_or_else(|| DEFAULT_BASELINE_PATH.to_string());
    let base = match Baseline::load(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}\nrecord one first: bench baseline --out {path}");
            std::process::exit(2);
        }
    };
    eprintln!("measuring against {path} ({rounds} interleaved rounds)...");
    let cases = suite();
    let mut fresh = measure(&cases, rounds);
    report(&fresh);
    if let Some(factor) = string_flag("--inject-slowdown").and_then(|v| v.parse::<f64>().ok()) {
        eprintln!("injecting synthetic x{factor} slowdown (self-test mode)");
        for entry in &mut fresh.entries {
            entry.normalized *= factor;
        }
    }
    let comparisons = classify(&base, &fresh);
    let trace_dir =
        string_flag("--trace-dir").unwrap_or_else(|| "target/regress-traces".to_string());
    let write_trace = |name: &str| write_trace_for(&cases, name, &trace_dir);

    // Entries inside the "watch" band (past NEAR_THRESHOLD of their
    // allowed ratio but not over it) don't fail the gate, but they ship
    // with a Perfetto trace so the run that eventually crosses the line
    // arrives with its profile already attached.
    let near: Vec<_> = comparisons
        .iter()
        .filter(|c| c.is_near_threshold())
        .collect();
    if !near.is_empty() {
        eprintln!("near-threshold ({}):", near.len());
        for c in &near {
            eprintln!(
                "  {:<26} x{:.2} of allowed x{:.2} (normalized {:.3} -> {:.3})",
                c.name, c.ratio, c.allowed, c.base_normalized, c.fresh_normalized
            );
            write_trace(&c.name);
        }
    }

    let regressions: Vec<_> = comparisons.iter().filter(|c| c.regressed()).collect();
    if regressions.is_empty() {
        eprintln!("OK: no entry regressed past its noise-aware threshold");
    } else {
        eprintln!("REGRESSIONS ({}):", regressions.len());
    }
    for r in &regressions {
        eprintln!(
            "  {:<26} x{:.2} slower (allowed x{:.2}; normalized {:.3} -> {:.3})",
            r.name, r.ratio, r.allowed, r.base_normalized, r.fresh_normalized
        );
        write_trace(&r.name);
    }

    let ambient = ambient_overhead(&fresh).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let over_budget = ambient > AMBIENT_BUDGET;
    eprintln!(
        "ambient stack: {:.2}% of compile/qft, {} its {:.0}% budget",
        100.0 * ambient,
        if over_budget { "OVER" } else { "within" },
        100.0 * AMBIENT_BUDGET
    );
    if over_budget {
        write_trace("observe/ambient_events");
    }
    if over_budget || !regressions.is_empty() {
        std::process::exit(1);
    }
}

/// Runs the suite case `name` once more under a `TraceRecorder` and
/// writes the Chrome trace JSON next to the others in `trace_dir`, so
/// the regression report ships with an inspectable Perfetto trace. A
/// case that installs its own recorder does so alongside this one.
fn write_trace_for(cases: &[BenchCase], name: &str, trace_dir: &str) {
    let case = cases
        .iter()
        .find(|c| c.name == name)
        .expect("traced entries come from the suite");
    let recorder = Arc::new(TraceRecorder::new());
    {
        let _guard = install(recorder.clone());
        (case.run)();
    }
    let file = format!("{trace_dir}/{}.trace.json", name.replace('/', "_"));
    if let Err(e) = std::fs::create_dir_all(trace_dir)
        .and_then(|()| std::fs::write(&file, recorder.snapshot().to_chrome_json() + "\n"))
    {
        eprintln!("  (could not write trace for {name}: {e})");
    } else {
        eprintln!("  trace: {file} (open in https://ui.perfetto.dev)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_telemetry::JsonValue;

    #[test]
    fn traces_of_ambient_entries_are_not_empty() {
        let dir = std::env::temp_dir().join(format!("bench-traces-{}", std::process::id()));
        let dir = dir.to_str().expect("temp dir is UTF-8");
        let cases = suite();
        for case in cases.iter().filter(|c| c.name.starts_with("observe/")) {
            write_trace_for(&cases, case.name, dir);
            let file = format!("{dir}/{}.trace.json", case.name.replace('/', "_"));
            let json = JsonValue::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
            let recorded = json
                .as_array()
                .unwrap()
                .iter()
                .filter(|e| e.get("ph").and_then(JsonValue::as_str) != Some("M"))
                .count();
            assert!(recorded > 0, "{} traced no events", case.name);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}
