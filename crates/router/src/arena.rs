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
//!   forward-moving cursor, no comparison heap. The cursor's bucket is
//!   sorted once when the cursor reaches it; a child lands in it only
//!   as its deepest entry, so keeping it sorted costs an insertion at
//!   or next to its end, and a pop takes the last entry.
//!
//! Each thread owns one arena through [`with_search_arena`], so the
//! parallel small-LLG router and multi-chain annealing get warm scratch
//! without any signature changes or locking. Acquire the arena only
//! around a single search (never across a call that may itself search)
//! to keep the `RefCell` borrow non-reentrant.
//!
//! # Pop order contract
//!
//! `SearchArena::pop` returns open entries ordered by
//! **(f ascending, g descending, vertex index ascending)**. Preferring
//! the *deepest* node on f-ties keeps the search marching toward the
//! target through the plateau of equal-f vertices that an open grid
//! produces (the old g-ascending order expanded that entire plateau,
//! which is why `astar/open` benched 4× slower than `astar/congested`).
//! The reference implementation in `astar.rs` realizes the same order
//! with a plain `BinaryHeap`; `tests/kernel_equivalence.rs` proves the
//! two byte-identical end to end.

use crate::walk;
use std::cell::RefCell;
use std::cmp::Reverse;

/// Sentinel for "no parent" in the predecessor arrays.
pub const NO_PARENT: u32 = u32::MAX;

/// Reusable scratch for grid searches; see the module docs.
#[derive(Debug, Default)]
pub struct SearchArena {
    generation: u32,
    stamp: Vec<u32>,
    g_cost: Vec<u32>,
    parent: Vec<u32>,
    /// Vertices per side of the current search's grid: an open entry's
    /// index is `row * side + col`.
    side: usize,
    /// `buckets[f]` holds the open entries `(g, packed row and column)`
    /// ([`walk::pack`]) with that f-value. Never shrunk; cleared lazily
    /// via `touched`.
    buckets: Vec<Vec<(u32, u32)>>,
    /// Bucket indices dirtied by the previous search, cleared on `begin`.
    touched: Vec<u32>,
    cursor: usize,
    /// Whether `buckets[cursor]` is sorted for [`pop`](Self::pop).
    ordered: bool,
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
        self.grow(vertices);
        if self.buckets.len() <= max_f as usize {
            self.buckets.resize_with(max_f as usize + 1, Vec::new);
        }
    }

    fn grow(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.g_cost.resize(n, 0);
            self.parent.resize(n, NO_PARENT);
        }
    }

    /// Starts a new unweighted search over a grid with `side` vertices
    /// per side: invalidates all cost entries (O(1) generation bump) and
    /// empties the open queue.
    ///
    /// # Panics
    ///
    /// Panics if `side` exceeds 2^16, beyond which rows and columns do
    /// not pack into an open entry.
    pub fn begin(&mut self, side: usize) {
        assert!(side <= walk::MAX_SIDE, "{side} vertices per side");
        self.side = side;
        self.grow(side * side);
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        for f in self.touched.drain(..) {
            self.buckets[f as usize].clear();
        }
        self.cursor = 0;
        self.ordered = false;
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

    /// Pushes an open entry for the vertex at `at` ([`walk::pack`]ed row
    /// and column). `f` must be ≥ the f-value of every entry popped so
    /// far (guaranteed by a consistent heuristic).
    #[inline]
    pub(crate) fn push(&mut self, f: u32, g: u32, at: u32) {
        debug_assert!(
            f as usize >= self.cursor || self.live == 0,
            "non-monotone f: push {f} behind cursor {}",
            self.cursor
        );
        let f = f as usize;
        if f >= self.buckets.len() {
            self.buckets.resize_with(f + 1, Vec::new);
        }
        let bucket = &mut self.buckets[f];
        if bucket.is_empty() {
            self.touched.push(f as u32);
        }
        if f == self.cursor && self.ordered {
            // A consistent heuristic puts a child here only at one more
            // than the g just popped, the bucket's largest, so the
            // insertion lands at or next to the end.
            let slot = bucket.partition_point(|&entry| pop_key(entry) < pop_key((g, at)));
            bucket.insert(slot, (g, at));
        } else {
            bucket.push((g, at));
        }
        self.live += 1;
    }

    /// Pops the best open entry as `(g, packed row and column)` under
    /// the (f asc, g desc, index asc) contract, discarding stale entries
    /// (those whose `g` exceeds the vertex's current cost) on the way —
    /// exactly the `if g > g_cost[idx] { continue }` skip a heap-based
    /// search performs. Packed entries order like their indices.
    ///
    /// The cursor's bucket is sorted when the cursor reaches it, best
    /// entry last, and [`push`](Self::push) keeps it sorted, so a pop
    /// takes its last entry.
    pub(crate) fn pop(&mut self) -> Option<(u32, u32)> {
        while self.live > 0 {
            while self.buckets[self.cursor].is_empty() {
                self.cursor += 1;
                self.ordered = false;
            }
            let bucket = &mut self.buckets[self.cursor];
            if !self.ordered {
                bucket.sort_unstable_by_key(|&entry| pop_key(entry));
                self.ordered = true;
            }
            let (g, at) = bucket.pop().expect("the cursor's bucket is not empty");
            self.live -= 1;
            let (row, col) = walk::unpack(at);
            let i = row as usize * self.side + col as usize;
            if self.stamp[i] == self.generation && self.g_cost[i] == g {
                return Some((g, at));
            }
            // Stale: a cheaper entry for the vertex was pushed since.
        }
        None
    }
}

/// Order of the open entries of one f-value: the entry that pops first
/// (deepest, then lowest index) has the largest key. Entries of one
/// search are distinct, because a vertex is pushed again only at a
/// smaller g.
#[inline]
fn pop_key((g, at): (u32, u32)) -> (u32, Reverse<u32>) {
    (g, Reverse(at))
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

    /// The packed open entry of vertex `i` on a `side`-wide grid.
    fn at(i: usize, side: usize) -> u32 {
        walk::pack((i / side) as u32, (i % side) as u32)
    }

    #[test]
    fn pop_orders_f_asc_g_desc_index_asc() {
        let mut a = SearchArena::new();
        a.begin(4);
        // Four entries at f=5, three of them tied at g=4 across a row
        // end; one at f=3.
        for (i, g, f) in [(1, 2, 5), (3, 4, 5), (4, 4, 5), (2, 4, 5), (6, 1, 3)] {
            a.improve(i, g, NO_PARENT);
            a.push(f, g, at(i, 4));
        }
        assert_eq!(a.pop(), Some((1, at(6, 4))), "lowest f first");
        assert_eq!(a.pop(), Some((4, at(2, 4))), "max g, then min index");
        assert_eq!(a.pop(), Some((4, at(3, 4))));
        assert_eq!(a.pop(), Some((4, at(4, 4))));
        assert_eq!(a.pop(), Some((2, at(1, 4))));
        assert_eq!(a.pop(), None);
    }

    #[test]
    fn stale_entries_are_skipped() {
        let mut a = SearchArena::new();
        a.begin(3);
        a.improve(5, 3, NO_PARENT);
        a.push(6, 3, at(5, 3));
        // Vertex 5 improves to g=2: the (6,3,5) entry is now stale.
        a.improve(5, 2, NO_PARENT);
        a.push(5, 2, at(5, 3));
        assert_eq!(a.pop(), Some((2, at(5, 3))));
        assert_eq!(a.pop(), None, "stale entry must not resurface");
    }

    #[test]
    fn pushes_into_the_bucket_being_popped_keep_the_order() {
        let mut a = SearchArena::new();
        a.begin(4);
        for (i, g) in [(5, 1), (3, 1)] {
            a.improve(i, g, NO_PARENT);
            a.push(5, g, at(i, 4));
        }
        assert_eq!(a.pop(), Some((1, at(3, 4))));
        // Children of the popped entry join its bucket one deeper, in
        // either index order; vertex 9 improves from g=3 to g=2, which
        // leaves its first entry stale at the deep end.
        for (i, g) in [(7, 2), (6, 2), (9, 3), (9, 2)] {
            a.improve(i, g, NO_PARENT);
            a.push(5, g, at(i, 4));
        }
        assert_eq!(a.pop(), Some((2, at(6, 4))));
        assert_eq!(a.pop(), Some((2, at(7, 4))));
        assert_eq!(a.pop(), Some((2, at(9, 4))));
        assert_eq!(a.pop(), Some((1, at(5, 4))));
        assert_eq!(a.pop(), None);
    }

    #[test]
    fn generations_isolate_searches() {
        let mut a = SearchArena::new();
        a.begin(2);
        a.improve(0, 7, NO_PARENT);
        assert_eq!(a.g(0), 7);
        a.begin(2);
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
