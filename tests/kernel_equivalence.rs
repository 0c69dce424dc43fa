//! Differential proof that the optimized hot-path kernels are
//! observationally identical to their reference implementations.
//!
//! The performance work (arena-allocated bucket-queue A*, bitset
//! occupancy overlap tests, incremental annealing objective) must never
//! change a single byte of compiler output. This suite compiles conformance generator families
//! and the named paper benchmarks twice — once on the optimized kernels,
//! once with `autobraid_telemetry::reference_mode` routing every call to
//! the original allocating implementations — and demands byte-identical
//! [`canonical_json`](autobraid::pipeline::CompileReport::canonical_json)
//! reports at 1, 2, and 8 threads.
//!
//! Reference mode is a process-global flag, so every section that
//! toggles it serializes on [`reference_lock`]. This file is its own
//! test binary; other test binaries run in separate processes and are
//! unaffected.

use autobraid::pipeline::{CompileOptions, Pipeline, Strategy};
use autobraid::ScheduleConfig;
use autobraid_circuit::generators::{
    bv::bv_all_ones, cc::counterfeit_coin, ising::ising, qft::qft,
};
use autobraid_circuit::Circuit;
use autobraid_conformance::dsl::generate_case;
use autobraid_telemetry as telemetry;
use std::sync::{Mutex, MutexGuard, OnceLock};

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// Serializes every test section that flips the global reference-mode
/// flag, so concurrent tests in this binary cannot interleave modes.
fn reference_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .expect("reference lock never poisoned")
}

/// Compiles `circuit` under `strategy`/`threads` and returns the
/// canonical (timing-stripped) report rendering.
fn canonical(circuit: &Circuit, strategy: Strategy, threads: usize) -> String {
    let pipeline = Pipeline::new()
        .with_config(ScheduleConfig::default().with_threads(threads))
        .with_options(CompileOptions {
            strategy,
            optimize: true,
            verify: true,
            telemetry: false,
            trace: false,
        });
    pipeline
        .compile(circuit)
        .expect("conformance circuits compile")
        .canonical_json()
}

/// The heart of the suite: optimized vs reference compiles of one
/// circuit must render byte-identically at every thread count, and the
/// renderings must also agree across thread counts.
fn assert_kernels_equivalent(label: &str, circuit: &Circuit, strategy: Strategy) {
    let _guard = reference_lock();
    assert!(
        !telemetry::reference_mode(),
        "reference mode leaked into {label}"
    );
    let mut first: Option<String> = None;
    for &threads in &THREAD_SWEEP {
        let optimized = canonical(circuit, strategy, threads);
        let was = telemetry::set_reference_mode(true);
        let reference = canonical(circuit, strategy, threads);
        telemetry::set_reference_mode(was);
        assert_eq!(
            optimized, reference,
            "{label}: optimized kernels diverge from reference \
             (strategy={strategy:?} threads={threads})"
        );
        match &first {
            None => first = Some(optimized),
            Some(reference) => assert_eq!(
                *reference, optimized,
                "{label}: report differs between threads=1 and threads={threads}"
            ),
        }
    }
}

#[test]
fn conformance_family_sweep_is_byte_identical() {
    // Random circuit/defect/shape families from the conformance DSL.
    for seed in 0..10u64 {
        let case = generate_case(seed);
        assert_kernels_equivalent(&case.label(), &case.circuit, Strategy::Full);
    }
}

#[test]
fn paper_benchmarks_are_byte_identical_under_full() {
    for (label, circuit) in [
        ("qft10", qft(10).unwrap()),
        ("ising16", ising(16, 2).unwrap()),
        ("bv12", bv_all_ones(12).unwrap()),
        ("cc13", counterfeit_coin(13).unwrap()),
    ] {
        assert_kernels_equivalent(label, &circuit, Strategy::Full);
    }
}

#[test]
fn every_strategy_is_byte_identical_on_a_shared_case() {
    // The arena A* core is shared by the stack finder, the plain router,
    // and the PathFinder — sweep all public strategies over one circuit.
    let circuit = qft(8).unwrap();
    for strategy in [
        Strategy::Full,
        Strategy::Stack,
        Strategy::PathFinder,
        Strategy::Portfolio,
        Strategy::Baseline,
        Strategy::Maslov,
    ] {
        assert_kernels_equivalent("qft8", &circuit, strategy);
    }
}

#[test]
fn reference_mode_flag_restores_cleanly() {
    let _guard = reference_lock();
    assert!(!telemetry::reference_mode());
    let was = telemetry::set_reference_mode(true);
    assert!(!was, "tests must start with reference mode off");
    assert!(telemetry::reference_mode());
    telemetry::set_reference_mode(was);
    assert!(!telemetry::reference_mode());
}
