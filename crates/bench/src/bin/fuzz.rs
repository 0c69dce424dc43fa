//! Differential fuzzing driver for the conformance harness.
//!
//! Draws seeded cases from `autobraid_conformance::generate_case`, runs
//! the full differential oracle on each, and on the first divergence
//! shrinks the case and writes a self-contained repro file.
//!
//! ```text
//! cargo run --release -p autobraid-bench --bin fuzz -- --seed 7 --iters 500
//! ```
//!
//! Flags:
//!
//! * `--seed <n>` — first generator seed (default 1); iteration `i`
//!   fuzzes seed `n + i`, so runs are reproducible and shardable.
//! * `--iters <n>` — stop after `n` cases (default 500 when no budget
//!   given).
//! * `--seconds <n>` — stop after roughly `n` seconds of wall clock;
//!   combined with `--iters`, whichever budget runs out first wins.
//! * `--repro-dir <dir>` — where to write the minimized repro on
//!   failure (default `target/fuzz-repros`).
//! * `--write-corpus <dir>` — instead of fuzzing, regenerate the
//!   committed regression corpus into `<dir>` and exit (see
//!   `docs/TESTING.md`).
//! * `--telemetry <path>` — write an `autobraid.telemetry/v1` snapshot
//!   on exit (`-` for stdout).
//! * `--trace <path>` — write an `autobraid.trace/v1` Chrome trace of
//!   the whole run on exit (`-` for stdout). Independently of this
//!   flag, a failing case's own trace is always written next to the
//!   shrunk repro as `<repro>.trace.json`.
//!
//! Exit status: 0 when every case conforms, 1 on a divergence.

use autobraid_bench::{string_flag, telemetry_sink, usize_flag};
use autobraid_conformance::{
    check_case, generate_case, shrink, ConformanceCase, Family, OracleConfig,
};
use std::path::Path;
use std::time::Instant;

/// Counts heap allocations per thread so the zero-alloc guard
/// ([`autobraid_conformance::alloc_guard`]) can observe the steady-state
/// A* loop on every fuzzed case. Lives here rather than in a library
/// because every workspace crate is `#![forbid(unsafe_code)]` and a
/// `GlobalAlloc` impl cannot avoid `unsafe`; binaries that want the
/// guard each install their own copy of this thin wrapper.
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Heap allocations performed by the current thread so far (reads 0
    /// during thread teardown rather than panicking).
    pub fn thread_allocs() -> u64 {
        ALLOCS.try_with(Cell::get).unwrap_or(0)
    }

    #[inline]
    fn bump() {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }

    /// [`System`] plus a per-thread allocation counter. Only `alloc`,
    /// `alloc_zeroed`, and `realloc` count — frees are not heap
    /// *acquisition*, and a zero-alloc region may legitimately drop
    /// values allocated earlier.
    pub struct CountingAllocator;

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }
}

#[global_allocator]
static ALLOC: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;

fn main() {
    autobraid_bench::enforce_flags(&[
        "--seed",
        "--iters",
        "--seconds",
        "--repro-dir",
        "--write-corpus",
        "--telemetry",
        "--trace",
    ]);
    let _telemetry = telemetry_sink();
    let _trace = autobraid_bench::trace_sink();
    if let Some(dir) = string_flag("--write-corpus") {
        write_corpus(Path::new(&dir));
        return;
    }

    let seed = usize_flag("--seed", 1) as u64;
    let seconds = usize_flag("--seconds", 0);
    let mut iters = usize_flag("--iters", 0);
    if iters == 0 && seconds == 0 {
        iters = 500;
    }
    let cfg = OracleConfig::default();
    let started = Instant::now();
    let mut ran = 0usize;

    println!("fuzzing from seed {seed} (iters {iters}, seconds {seconds})");
    loop {
        if iters > 0 && ran >= iters {
            break;
        }
        if seconds > 0 && started.elapsed().as_secs() >= seconds as u64 {
            break;
        }
        let case_seed = seed + ran as u64;
        let case = generate_case(case_seed);
        let divergences = check_case(&case, &cfg);
        if let Some(first) = divergences.first() {
            report_failure(&case, first, &cfg);
            std::process::exit(1);
        }
        // Differential conformance passed; now hold the router to its
        // zero-allocation claim on the same grid/defect overlay. (A
        // no-op when `--telemetry` instruments the searches.)
        if let Some(alloc) = autobraid_conformance::alloc_guard::check_search_allocs(
            &case,
            counting_alloc::thread_allocs,
        ) {
            eprintln!("ALLOC GUARD on seed {case_seed}: {alloc}");
            std::process::exit(1);
        }
        ran += 1;
        if ran.is_multiple_of(100) {
            println!(
                "  {ran} cases conform ({:.1}s elapsed)",
                started.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "done: {ran} cases, zero divergences ({:.1}s)",
        started.elapsed().as_secs_f64()
    );
}

fn report_failure(
    case: &ConformanceCase,
    first: &autobraid_conformance::Divergence,
    cfg: &OracleConfig,
) {
    eprintln!("DIVERGENCE on seed {}: {first}", case.seed);
    eprintln!("shrinking...");
    let small = shrink(case, |c| !check_case(c, cfg).is_empty());
    let dir = string_flag("--repro-dir").unwrap_or_else(|| "target/fuzz-repros".into());
    match small.save_to_dir(Path::new(&dir)) {
        Ok(path) => {
            eprintln!(
                "minimized to {} gates / {} qubits; repro written to {}",
                small.circuit.len(),
                small.circuit.num_qubits(),
                path.display()
            );
            write_failure_trace(&small, cfg, &path);
        }
        Err(e) => eprintln!("could not write repro to {dir}: {e}"),
    }
    for d in check_case(&small, cfg) {
        eprintln!("  shrunk case still diverges: {d}");
    }
}

/// Re-runs the shrunk failing case under a fresh `TraceRecorder` and
/// writes its `autobraid.trace/v1` Chrome trace next to the repro file,
/// so the divergence ships with an event-level account of the compile
/// that produced it (open in Perfetto, or pipe through
/// `autobraid_telemetry::explain::explain_trace`).
fn write_failure_trace(small: &ConformanceCase, cfg: &OracleConfig, repro_path: &Path) {
    let recorder = std::sync::Arc::new(autobraid_telemetry::TraceRecorder::new());
    {
        let _guard = autobraid_telemetry::install(recorder.clone());
        let _ = check_case(small, cfg);
    }
    let trace_path = repro_path.with_extension("trace.json");
    match std::fs::write(&trace_path, recorder.snapshot().to_chrome_json() + "\n") {
        Ok(()) => eprintln!("failure trace written to {}", trace_path.display()),
        Err(e) => eprintln!("could not write failure trace: {e}"),
    }
}

/// Regenerates the committed corpus: the first fuzz case of every
/// family, the first few defective-lattice cases, plus hand-picked
/// degenerate shapes. Deterministic, so re-running it over an unchanged
/// generator is a no-op diff.
fn write_corpus(dir: &Path) {
    let mut picked: Vec<ConformanceCase> = Vec::new();
    let mut families_seen = std::collections::BTreeSet::new();
    let mut defective = 0;
    for seed in 0..10_000u64 {
        let case = generate_case(seed);
        let family = case
            .circuit
            .name()
            .rsplit('-')
            .next()
            .unwrap_or_default()
            .to_string();
        let fresh_family = families_seen.insert(family);
        let fresh_defect = !case.defects.is_empty() && defective < 3;
        if fresh_family || fresh_defect {
            if !case.defects.is_empty() {
                defective += 1;
            }
            picked.push(case);
        }
        if families_seen.len() == Family::ALL.len() && defective >= 3 {
            break;
        }
    }
    // Degenerate shapes the fuzzer only hits rarely: an empty circuit,
    // a lone CX, and a two-qubit register (the smallest grid).
    let empty = autobraid_circuit::Circuit::named(2, "corpus-empty");
    picked.push(ConformanceCase::new(empty, 0));
    let mut lone = autobraid_circuit::Circuit::named(2, "corpus-lone-cx");
    lone.cx(0, 1);
    picked.push(ConformanceCase::new(lone, 0));
    let mut walled = autobraid_circuit::Circuit::named(4, "corpus-walled-qubit");
    walled.cx(0, 3).cx(1, 2);
    let mut walled = ConformanceCase::new(walled, 0);
    // Defects ringing cell (0,0): qubit 0 may become unroutable — the
    // oracle then demands the failure be consistent, not absent.
    walled.defects = vec![(0, 1), (1, 0), (1, 1)];
    picked.push(walled);

    for case in &picked {
        let path = case.save_to_dir(dir).expect("corpus dir must be writable");
        println!("wrote {}", path.display());
    }
    println!("{} corpus entries in {}", picked.len(), dir.display());
}
