//! Counting-allocator guard for the router's zero-allocation claim.
//!
//! The arena-backed A* core ([`autobraid_router::astar::search_in`])
//! promises **zero heap allocations** in its steady state: once a
//! thread's [`SearchArena`] has grown to the grid's size, every
//! subsequent search runs entirely in reused scratch.
//! [`check_search_allocs`] turns that promise into a checkable
//! property: it warms the calling thread's arena on a conformance
//! case's grid, re-runs the same searches, and reports a [`Divergence`]
//! if the warm pass moved the caller's allocation counter.
//!
//! This crate is `#![forbid(unsafe_code)]`, and a counting
//! `GlobalAlloc` cannot be written without `unsafe` — so the allocator
//! itself lives in the *binaries* that use the guard (the fuzz driver
//! and the `zero_alloc` integration test each install a thread-local
//! counting wrapper around `System` with `#[global_allocator]`) and
//! reaches this module as a plain `fn() -> u64` probe reading the
//! current thread's allocation count.
//!
//! The guard is deliberately surgical: it wraps only the search loop
//! (`search_in`), not path reconstruction — reconstruction hands the
//! caller a fresh `Vec` by design — and it refuses to "pass" when the
//! probe cannot actually see the heap (a sentinel `Box` must be
//! observed, otherwise the whole check would be vacuous).
//!
//! [`SearchArena`]: autobraid_router::SearchArena

use crate::case::ConformanceCase;
use crate::oracle::Divergence;
use autobraid_lattice::Cell;
use autobraid_router::astar::search_in;
use autobraid_router::with_search_arena;

/// Proves the steady-state A* loop allocates nothing on this case's
/// grid, or explains how it failed to.
///
/// `thread_allocs` must report the number of heap allocations the
/// *current thread* has performed so far (see the module docs for the
/// `#[global_allocator]` contract). The guard runs a spread of
/// corner-to-corner searches over the case's grid and defect overlay
/// twice on this thread — a cold pass that may grow the arena, then a
/// counted warm pass — and returns a [`Divergence`] if the warm pass
/// allocated. Routable and unroutable queries are both exercised (a
/// failed search walks the entire reachable region, the worst case for
/// scratch reuse).
///
/// Returns `None` without checking when a telemetry recorder is
/// installed: instrumented searches legitimately allocate (histogram
/// samples, event buffers), and the zero-alloc contract is about the
/// search itself.
///
/// # Panics
///
/// Panics if `thread_allocs` does not observe a deliberate sentinel
/// allocation — i.e. the calling binary forgot to install its counting
/// allocator — because a blind guard would pass vacuously.
pub fn check_search_allocs(
    case: &ConformanceCase,
    thread_allocs: fn() -> u64,
) -> Option<Divergence> {
    if autobraid_telemetry::is_enabled() {
        return None;
    }
    let sentinel = thread_allocs();
    std::hint::black_box(Box::new(0u64));
    assert!(
        thread_allocs() > sentinel,
        "alloc_guard::check_search_allocs needs a counting #[global_allocator] \
         installed in the calling binary (the probe saw no allocations)"
    );

    let grid = case.grid();
    let occupancy = case.base_occupancy();
    let far = grid.cells_per_side() - 1;
    let mid = far / 2;
    // Corner sweeps, a center crossing, and a near-adjacent pair; on
    // defective grids some of these become unroutable, which is exactly
    // the exhaustive-exploration path worth guarding.
    let pairs = [
        (Cell::new(0, 0), Cell::new(far, far)),
        (Cell::new(0, far), Cell::new(far, 0)),
        (Cell::new(mid, 0), Cell::new(mid, far)),
        (Cell::new(0, mid), Cell::new(far, mid)),
        (Cell::new(mid, mid), Cell::new(mid, mid.saturating_sub(1))),
    ];
    let run_all = || {
        with_search_arena(|arena| {
            for &(a, b) in &pairs {
                std::hint::black_box(search_in(arena, &grid, &occupancy, a, b, None));
            }
        });
    };

    run_all(); // cold: the arena may grow to this grid's size
    let before = thread_allocs();
    run_all(); // warm: must not touch the heap
    let after = thread_allocs();
    (after != before).then(|| Divergence {
        case: case.label(),
        setting: "alloc_guard".to_string(),
        detail: format!(
            "steady-state A* performed {} heap allocation(s) across {} warm \
             searches on a {}x{} grid (expected 0)",
            after - before,
            pairs.len(),
            grid.cells_per_side(),
            grid.cells_per_side(),
        ),
    })
}
