//! Index arithmetic shared by the grid walks.
//!
//! The arena A* ([`crate::astar::search_in`]), PathFinder's weighted
//! search and the free-space labels ([`crate::astar::Connectivity`])
//! walk row-major vertex indices, stepping `±side` and `±1` through
//! [`neighbours`], instead of [`Vertex`](autobraid_lattice::Vertex)
//! values. Open entries and traversal stacks carry a vertex's row and
//! column packed into one `u32`, so recovering the index takes one
//! multiply instead of a divide, and the searches' heuristic is a fixed
//! four-way minimum over the target tile's free corners.

use autobraid_lattice::{BBox, Cell};

/// Largest vertices-per-side [`pack`] can hold: every row and column
/// must fit in 16 bits.
pub(crate) const MAX_SIDE: usize = 1 << 16;

/// Packs a vertex's row and column as `row << 16 | col`, which orders
/// like the row-major index while every column is below 2^16.
#[inline]
pub(crate) fn pack(row: u32, col: u32) -> u32 {
    row << 16 | col
}

/// The `(row, col)` that [`pack`] packed into `at`.
#[inline]
pub(crate) fn unpack(at: u32) -> (u32, u32) {
    (at >> 16, at & 0xFFFF)
}

/// Row-major indices of `cell`'s four corners on a grid with `side`
/// vertices per side.
#[inline]
pub(crate) fn corner_indices(cell: Cell, side: usize) -> [usize; 4] {
    cell.corners()
        .map(|v| v.row as usize * side + v.col as usize)
}

/// The corners of `cell` that `free(row, col)` admits, as `(row, col)`,
/// with the unused slots filled by the first of them: repeating a corner
/// keeps the minimum, so [`nearest`] can be a fixed four-way one. `None`
/// when no corner is admitted.
#[inline]
pub(crate) fn free_corners(cell: Cell, free: impl Fn(u32, u32) -> bool) -> Option<[(u32, u32); 4]> {
    let mut targets = [(0, 0); 4];
    let mut count = 0;
    for v in cell.corners() {
        if free(v.row, v.col) {
            targets[count] = (v.row, v.col);
            count += 1;
        }
    }
    let first = *targets[..count].first()?;
    targets[count..].fill(first);
    Some(targets)
}

/// Manhattan distance from `(row, col)` to the nearest of `targets`.
#[inline]
pub(crate) fn nearest(targets: &[(u32, u32); 4], row: u32, col: u32) -> u32 {
    targets
        .iter()
        .map(|&(r, c)| row.abs_diff(r) + col.abs_diff(c))
        .fold(u32::MAX, u32::min)
}

/// Calls `visit(index, row, col)` for each 4-neighbour of the vertex at
/// `(row, col)`, index `i`, that lies in `limits`, in the order up,
/// down, left, right. The vertex itself must lie in `limits`, so one
/// comparison per direction keeps the step inside them; `limits` must
/// lie in the grid of `side` vertices per side.
#[inline(always)]
pub(crate) fn neighbours(
    side: usize,
    i: usize,
    (row, col): (u32, u32),
    limits: BBox,
    mut visit: impl FnMut(usize, u32, u32),
) {
    if row > limits.min_row {
        visit(i - side, row - 1, col);
    }
    if row < limits.max_row {
        visit(i + side, row + 1, col);
    }
    if col > limits.min_col {
        visit(i - 1, row, col - 1);
    }
    if col < limits.max_col {
        visit(i + 1, row, col + 1);
    }
}

/// The whole grid of `side` vertices per side as neighbour limits.
#[inline]
pub(crate) fn whole(side: usize) -> BBox {
    let last = side as u32 - 1;
    BBox::new(0, 0, last, last)
}
