//! Reusable search scratch: the allocation-free core under every router.
//!
//! Profiling (docs/PERF.md) showed the routers spending more time in the
//! allocator than in the search: every `find_path` call built fresh
//! `g_cost`/`parent` vectors (O(vertices) to allocate *and* zero) plus a
//! `BinaryHeap`. [`SearchArena`] keeps that scratch alive across
//! searches (PathFinder's weighted searches keep theirs, the same way,
//! in its per-thread negotiation state):
//!
//! - **Generation-stamped cost arrays.** `g_cost[i]` is valid only when
//!   `stamp[i]` equals the current generation, so "reset" is a single
//!   counter increment instead of an O(n) fill. The arrays grow to the
//!   largest grid seen and are then reused forever.
//! - **A bucket queue for the unweighted search.** Edge weights are all
//!   1 and the heuristic (min Manhattan distance over target corners) is
//!   consistent, so the f-value of popped nodes never decreases. The
//!   open set is therefore an array of buckets indexed by f with a
//!   forward-moving cursor — O(1) push, no comparison-heap overhead.
//!
//! Each thread owns one arena through [`with_search_arena`], so the
//! parallel small-LLG router and multi-chain annealing get warm scratch
//! without any signature changes or locking. Acquire the arena only
//! around a single search (never across a call that may itself search)
//! to keep the `RefCell` borrow non-reentrant.
//!
//! # Pop order contract
//!
//! [`SearchArena::pop`] returns open entries ordered by
//! **(f ascending, g descending, vertex index ascending)**. Preferring
//! the *deepest* node on f-ties keeps the search marching toward the
//! target through the plateau of equal-f vertices that an open grid
//! produces (the old g-ascending order expanded that entire plateau,
//! which is why `astar/open` benched 4× slower than `astar/congested`).
//! The reference implementation in `astar.rs` realizes the same order
//! with a plain `BinaryHeap`; `tests/kernel_equivalence.rs` proves the
//! two byte-identical end to end.

use std::cell::RefCell;

/// Sentinel for "no parent" in the predecessor arrays.
pub const NO_PARENT: u32 = u32::MAX;

/// Reusable scratch for grid searches; see the module docs.
#[derive(Debug, Default)]
pub struct SearchArena {
    generation: u32,
    stamp: Vec<u32>,
    g_cost: Vec<u32>,
    parent: Vec<u32>,
    /// `buckets[f]` holds the open entries `(g, vertex index)` with that
    /// f-value. Never shrunk; cleared lazily via `touched`.
    buckets: Vec<Vec<(u32, u32)>>,
    /// Bucket indices dirtied by the previous search, cleared on `begin`.
    touched: Vec<u32>,
    cursor: usize,
    live: usize,
}

impl SearchArena {
    /// Creates an empty arena; scratch grows on first use.
    pub fn new() -> Self {
        SearchArena::default()
    }

    /// Pre-sizes the scratch for a grid with `vertices` vertices and
    /// f-values up to `max_f`, so the first timed search allocates
    /// nothing. Benches call this (via `warm_thread_arena`) before the
    /// measurement loop.
    pub fn warm(&mut self, vertices: usize, max_f: u32) {
        self.begin(vertices);
        if self.buckets.len() <= max_f as usize {
            self.buckets.resize_with(max_f as usize + 1, Vec::new);
        }
    }

    /// Starts a new unweighted search over `n` vertices: invalidates all
    /// cost entries (O(1) generation bump) and empties the open queue.
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.g_cost.resize(n, 0);
            self.parent.resize(n, NO_PARENT);
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        for f in self.touched.drain(..) {
            self.buckets[f as usize].clear();
        }
        self.cursor = 0;
        self.live = 0;
    }

    /// Current best-known cost of vertex `i` (`u32::MAX` if unvisited
    /// this search).
    #[inline]
    pub fn g(&self, i: usize) -> u32 {
        if self.stamp[i] == self.generation {
            self.g_cost[i]
        } else {
            u32::MAX
        }
    }

    /// Records an improved cost and predecessor for vertex `i`.
    #[inline]
    pub fn improve(&mut self, i: usize, g: u32, parent: u32) {
        self.stamp[i] = self.generation;
        self.g_cost[i] = g;
        self.parent[i] = parent;
    }

    /// Predecessor of vertex `i` ([`NO_PARENT`] for search roots). Only
    /// meaningful for vertices visited this search.
    #[inline]
    pub fn parent(&self, i: usize) -> u32 {
        self.parent[i]
    }

    /// Pushes an open entry. `f` must be ≥ the f-value of every entry
    /// popped so far (guaranteed by a consistent heuristic).
    #[inline]
    pub fn push(&mut self, f: u32, g: u32, i: u32) {
        debug_assert!(
            f as usize >= self.cursor || self.live == 0,
            "non-monotone f: push {f} behind cursor {}",
            self.cursor
        );
        let f = f as usize;
        if f >= self.buckets.len() {
            self.buckets.resize_with(f + 1, Vec::new);
        }
        if self.buckets[f].is_empty() {
            self.touched.push(f as u32);
        }
        self.buckets[f].push((g, i));
        self.live += 1;
    }

    /// Pops the best open entry as `(g, vertex index)` under the
    /// (f asc, g desc, index asc) contract, discarding stale entries
    /// (those whose `g` exceeds the vertex's current cost) on the way —
    /// exactly the `if g > g_cost[idx] { continue }` skip a heap-based
    /// search performs.
    pub fn pop(&mut self) -> Option<(u32, u32)> {
        while self.live > 0 {
            while self.buckets[self.cursor].is_empty() {
                self.cursor += 1;
            }
            // Split borrows: bucket is in `buckets`, staleness check
            // reads `stamp`/`g_cost`.
            let generation = self.generation;
            let (stamp, g_cost) = (&self.stamp, &self.g_cost);
            let bucket = &mut self.buckets[self.cursor];
            let mut best: Option<(u32, u32)> = None;
            let mut best_pos = 0usize;
            let mut w = 0usize;
            for r in 0..bucket.len() {
                let (g, i) = bucket[r];
                let current = stamp[i as usize] == generation && g_cost[i as usize] == g;
                if !current {
                    self.live -= 1; // stale: drop it
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bg, bi)) => g > bg || (g == bg && i < bi),
                };
                if better {
                    best = Some((g, i));
                    best_pos = w;
                }
                bucket[w] = (g, i);
                w += 1;
            }
            bucket.truncate(w);
            if let Some(entry) = best {
                bucket.swap_remove(best_pos);
                self.live -= 1;
                return Some(entry);
            }
        }
        None
    }
}

thread_local! {
    static ARENA: RefCell<SearchArena> = RefCell::new(SearchArena::new());
}

/// Runs `f` with this thread's [`SearchArena`].
///
/// # Panics
///
/// Panics if called re-entrantly (the arena is a `RefCell`); acquire it
/// only around a single search.
pub fn with_search_arena<R>(f: impl FnOnce(&mut SearchArena) -> R) -> R {
    ARENA.with(|arena| f(&mut arena.borrow_mut()))
}

/// Pre-sizes this thread's arena for a `vertices`-vertex grid with
/// f-values up to `max_f`. Bench harnesses call this before timing so
/// the first measured iteration does not pay the arena's one-time
/// growth.
pub fn warm_thread_arena(vertices: usize, max_f: u32) {
    with_search_arena(|arena| arena.warm(vertices, max_f));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_orders_f_asc_g_desc_index_asc() {
        let mut a = SearchArena::new();
        a.begin(16);
        // Three entries at f=5 with distinct g, one at f=3.
        a.improve(1, 2, NO_PARENT);
        a.push(5, 2, 1);
        a.improve(2, 4, NO_PARENT);
        a.push(5, 4, 2);
        a.improve(3, 4, NO_PARENT);
        a.push(5, 4, 3);
        a.improve(4, 1, NO_PARENT);
        a.push(3, 1, 4);
        assert_eq!(a.pop(), Some((1, 4)), "lowest f first");
        assert_eq!(a.pop(), Some((4, 2)), "max g, then min index");
        assert_eq!(a.pop(), Some((4, 3)));
        assert_eq!(a.pop(), Some((2, 1)));
        assert_eq!(a.pop(), None);
    }

    #[test]
    fn stale_entries_are_skipped() {
        let mut a = SearchArena::new();
        a.begin(8);
        a.improve(1, 3, NO_PARENT);
        a.push(6, 3, 1);
        // Vertex 1 improves to g=2: the (6,3,1) entry is now stale.
        a.improve(1, 2, NO_PARENT);
        a.push(5, 2, 1);
        assert_eq!(a.pop(), Some((2, 1)));
        assert_eq!(a.pop(), None, "stale entry must not resurface");
    }

    #[test]
    fn generations_isolate_searches() {
        let mut a = SearchArena::new();
        a.begin(4);
        a.improve(0, 7, NO_PARENT);
        assert_eq!(a.g(0), 7);
        a.begin(4);
        assert_eq!(a.g(0), u32::MAX, "previous search must not leak");
        assert_eq!(a.pop(), None);
    }

    #[test]
    fn warm_presizes_buckets() {
        let mut a = SearchArena::new();
        a.warm(64, 32);
        assert!(a.buckets.len() > 32);
        assert_eq!(a.pop(), None);
    }
}
