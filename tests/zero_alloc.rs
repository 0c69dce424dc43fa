//! Holds the arena A* core to its zero-allocation claim, and a whole
//! compile to its allocation budget.
//!
//! This test binary installs a counting `System` wrapper as its global
//! allocator, so [`check_search_allocs`] can watch the heap while it
//! re-runs warm searches over conformance-case grids, and the budget test
//! can count what one compile allocates. The allocator is
//! defined here (not in a library) because every workspace crate is
//! `#![forbid(unsafe_code)]` and a `GlobalAlloc` impl cannot avoid
//! `unsafe`; the fuzz driver carries its own copy and performs the same
//! check on every fuzzed case — this test keeps the property in plain
//! `cargo test` CI runs.
//!
//! [`check_search_allocs`]: autobraid_conformance::alloc_guard::check_search_allocs

use autobraid::pipeline::Pipeline;
use autobraid_circuit::generators::revlib;
use autobraid_circuit::qasm;
use autobraid_conformance::alloc_guard;
use autobraid_conformance::dsl::generate_case;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations performed by the current thread so far.
fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// [`System`] plus a per-thread allocation counter; frees don't count.
struct CountingAllocator;

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

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_search_never_allocates() {
    for seed in 0..20u64 {
        let case = generate_case(seed);
        if let Some(divergence) = alloc_guard::check_search_allocs(&case, thread_allocs) {
            panic!("{divergence}");
        }
    }
}

#[test]
fn counting_allocator_observes_this_binary() {
    let before = thread_allocs();
    std::hint::black_box(vec![0u8; 4096]);
    assert!(
        thread_allocs() > before,
        "the counting allocator must be live in this test binary"
    );
}

/// Heap allocations of one default compile, per input gate: buffers are
/// sized per circuit or reused from layer to layer, so only the schedule
/// itself (about one path per routed gate) grows with the gate count.
const ALLOCS_PER_GATE: u64 = 6;

#[test]
fn a_default_compile_allocates_per_circuit_not_per_gate() {
    for name in ["urf2_277", "sqrt8_260"] {
        let circuit = revlib::build(name).expect("a registry circuit");
        let source = qasm::emit(&circuit);
        let pipeline = Pipeline::new();
        // Warm up first: per-thread search arenas and routing buffers
        // grow once per thread, not once per compile.
        let warm = pipeline.compile_qasm(&source).expect("compiles");
        std::hint::black_box(warm.canonical_json());
        let before = thread_allocs();
        let report = pipeline.compile_qasm(&source).expect("compiles");
        let canonical = report.canonical_json();
        let allocs = thread_allocs() - before;
        std::hint::black_box(canonical);
        let gates = circuit.len() as u64;
        assert!(
            allocs <= ALLOCS_PER_GATE * gates,
            "{name}: {allocs} allocations for {gates} gates ({:.1} per gate, budget {ALLOCS_PER_GATE})",
            allocs as f64 / gates as f64
        );
    }
}
