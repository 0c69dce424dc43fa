//! Holds the arena A* core and PathFinder's negotiated searches to
//! their zero-allocation claims, and a whole compile to its allocation
//! budget.
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
use autobraid_circuit::generators::qft::qft;
use autobraid_circuit::generators::random::layered_cx;
use autobraid_circuit::generators::revlib;
use autobraid_circuit::qasm;
use autobraid_conformance::alloc_guard;
use autobraid_conformance::dsl::generate_case;
use autobraid_lattice::{Grid, Occupancy};
use autobraid_router::pathfinder::route_negotiated;
use autobraid_router::CxRequest;
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

#[test]
fn a_warm_negotiation_allocates_only_its_outcome() {
    // A full matching of 40 qubits on a 7x7 grid, row-major: more
    // demand than the lattice carries, so negotiation runs round after
    // round and searches far more often than it has requests.
    let grid = Grid::new(7).expect("a 7x7 grid");
    let circuit = layered_cx(40, 1, 0.0, 3).expect("a layered circuit");
    let cell = |q: u32| autobraid_lattice::Cell::new(q / 7, q % 7);
    let requests: Vec<CxRequest> = circuit
        .gates()
        .iter()
        .enumerate()
        .filter_map(|(id, gate)| {
            gate.pair()
                .map(|(a, b)| CxRequest::new(id, cell(a), cell(b)))
        })
        .collect();
    assert_eq!(requests.len(), 20);
    let base = Occupancy::new(&grid);
    // Warm up: the thread's negotiation buffers grow once.
    let (_, warm) = route_negotiated(&grid, &mut base.clone(), &requests);
    let mut occupancy = base.clone();
    let before = thread_allocs();
    let (outcome, stats) = route_negotiated(&grid, &mut occupancy, &requests);
    let allocs = thread_allocs() - before;
    assert_eq!(stats, warm);
    assert!(stats.iterations > 2, "{stats:?}");
    // One buffer for the routed list, one path per routed gate (debug
    // builds validate each path on a sorted copy: two more), and the
    // failed list's growth; searches that allocated even once each
    // would add at least one allocation per request.
    let per_path = if cfg!(debug_assertions) { 3 } else { 1 };
    let budget = 1 + per_path * outcome.routed.len() as u64 + 4;
    assert!(
        allocs <= budget,
        "{allocs} allocations for {} routed and {} failed gates over {} rounds (budget {budget})",
        outcome.routed.len(),
        outcome.failed.len(),
        stats.iterations
    );
}

/// Heap allocations of one default compile, per input gate: buffers are
/// sized per circuit or reused from layer to layer, so only the schedule
/// itself (about one path per routed gate) grows with the gate count.
/// Debug builds validate every search's path on a sorted copy, which
/// costs two more allocations per path.
const ALLOCS_PER_GATE: u64 = if cfg!(debug_assertions) { 4 } else { 2 };

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

/// Heap allocations of one `qasm::parse`, whatever the gate count: the
/// gate vector's doublings and the circuit itself, nothing per
/// statement.
const ALLOCS_PER_PARSE: u64 = 32;

#[test]
fn parsing_allocates_per_circuit_not_per_statement() {
    let circuits = [
        revlib::build("urf2_277").expect("a registry circuit"),
        qft(50).expect("qft50"),
    ];
    for circuit in circuits {
        let source = qasm::emit(&circuit);
        let before = thread_allocs();
        let parsed = qasm::parse(&source).expect("parses");
        let allocs = thread_allocs() - before;
        assert_eq!(parsed.len(), circuit.len());
        assert!(
            allocs <= ALLOCS_PER_PARSE,
            "{}: {allocs} allocations to parse {} gates (budget {ALLOCS_PER_PARSE})",
            circuit.name(),
            circuit.len()
        );
    }
}
