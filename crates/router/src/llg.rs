//! Local parallel group (LLG) decomposition — the paper's key analysis.
//!
//! An LLG is a *minimal* set of concurrent CX gates whose joint bounding
//! box does not overlap any other LLG's joint bounding box (§3.3.1).
//! Theorem 1 guarantees any LLG of ≤ 3 gates schedules simultaneously
//! inside its box; Theorem 2 extends this to strictly-nested LLGs of any
//! size. The initial-placement optimizer minimizes the number of LLGs
//! that satisfy neither condition.

use crate::path::CxRequest;
use autobraid_lattice::BBox;

/// One local parallel group: member requests and their joint bounding box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Llg {
    /// Indices into the request slice the decomposition was built from.
    pub members: Vec<usize>,
    /// Joint bounding box of all members.
    pub bbox: BBox,
}

impl Llg {
    /// Number of CX gates in the group.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether Theorem 1 applies: at most 3 gates (such groups always
    /// schedule simultaneously inside their box).
    pub fn satisfies_theorem1(&self) -> bool {
        self.size() <= 3
    }

    /// Whether Theorem 2 applies: the members' outer bounding boxes form a
    /// strictly nested chain (each box strictly inside the next).
    pub fn is_strictly_nested(&self, requests: &[CxRequest]) -> bool {
        let mut boxes: Vec<BBox> = self
            .members
            .iter()
            .map(|&i| requests[i].outer_bbox())
            .collect();
        is_nested_chain(&mut boxes)
    }

    /// Whether the group is guaranteed schedulable by Theorem 1 or 2.
    pub fn guaranteed_schedulable(&self, requests: &[CxRequest]) -> bool {
        self.satisfies_theorem1() || self.is_strictly_nested(requests)
    }
}

/// Whether `boxes` form a strictly nested chain: sorted smallest first,
/// each box lies strictly inside the next. May reorder `boxes`.
///
/// A chain's outermost box is the union of them all, so when no box
/// equals the union the boxes cannot nest and the sort is skipped.
fn is_nested_chain(boxes: &mut [BBox]) -> bool {
    let Some(union) = boxes.iter().copied().reduce(|a, b| a.union(&b)) else {
        return true;
    };
    if !boxes.contains(&union) {
        return false;
    }
    // Unstable sort is safe: equal keys imply identical boxes (area and
    // width fix the dimensions, the min corner fixes the position), so
    // every permutation of ties chains identically.
    boxes.sort_unstable_by_key(|b| (b.area(), b.width(), b.min_row, b.min_col));
    boxes.windows(2).all(|w| w[1].strictly_nests(&w[0]))
}

/// Decomposes a set of concurrent CX requests into LLGs: the finest
/// partition whose parts have pairwise-disjoint joint bounding boxes.
///
/// Implemented as overlap-merging to a fixpoint with union-find; the
/// result is unique (it is the transitive closure of bounding-box
/// overlap under box joining), so iteration order does not matter.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::Cell;
/// use autobraid_router::llg::decompose;
/// use autobraid_router::path::CxRequest;
///
/// let requests = vec![
///     CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 1)), // top-left pair
///     CxRequest::new(1, Cell::new(0, 1), Cell::new(1, 1)), // overlaps it
///     CxRequest::new(2, Cell::new(5, 5), Cell::new(5, 6)), // far away
/// ];
/// let llgs = decompose(&requests);
/// assert_eq!(llgs.len(), 2);
/// assert_eq!(llgs.iter().map(|g| g.size()).max(), Some(2));
/// ```
pub fn decompose(requests: &[CxRequest]) -> Vec<Llg> {
    let mut set = LlgSet::default();
    set.decompose(requests);
    set.iter()
        .map(|(members, bbox)| Llg {
            members: members.to_vec(),
            bbox,
        })
        .collect()
}

/// An LLG decomposition in reusable flat storage: [`decompose`]'s
/// groups, in the same order, as ranges of one member array. A router
/// that keeps one across layers decomposes each layer without
/// allocating once the buffers have grown to the layer size.
#[derive(Debug, Default)]
pub(crate) struct LlgSet {
    /// Every request index, grouped: ascending within a group.
    members: Vec<usize>,
    /// Per group: its range of `members` and its joint bounding box,
    /// in order of the group's union-find root.
    groups: Vec<(usize, usize, BBox)>,
    parent: Vec<usize>,
    boxes: Vec<Option<BBox>>,
    roots: Vec<usize>,
    /// Per root: its member count, then its group index.
    slot: Vec<usize>,
}

impl LlgSet {
    /// Replaces the held decomposition with that of `requests`.
    pub(crate) fn decompose(&mut self, requests: &[CxRequest]) {
        let n = requests.len();
        self.members.clear();
        self.groups.clear();
        if n == 0 {
            return;
        }
        let LlgSet {
            members,
            groups,
            parent,
            boxes,
            roots,
            slot,
        } = self;
        parent.clear();
        parent.extend(0..n);
        fn find(parent: &mut [usize], x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        boxes.clear();
        boxes.extend(requests.iter().map(|r| Some(r.outer_bbox())));

        // Merge any two groups whose joint boxes overlap, until stable. The
        // box of a merged group grows, which can create new overlaps, hence
        // the fixpoint loop; each round merges every overlapping pair it sees,
        // so the number of rounds is small in practice.
        let mut changed = true;
        while changed {
            changed = false;
            roots.clear();
            roots.extend((0..n).filter(|&i| find(parent, i) == i && boxes[i].is_some()));
            for i in 0..roots.len() {
                let ri = find(parent, roots[i]);
                for &root_j in &roots[i + 1..] {
                    let rj = find(parent, root_j);
                    if ri == rj {
                        continue;
                    }
                    let (bi, bj) = (
                        boxes[ri].expect("root has box"),
                        boxes[rj].expect("root has box"),
                    );
                    if bi.overlaps_open(&bj) {
                        parent[rj] = ri;
                        boxes[ri] = Some(bi.union(&bj));
                        boxes[rj] = None;
                        changed = true;
                    }
                }
            }
        }

        // Counting sort by root: groups in root order, members ascending.
        slot.clear();
        slot.resize(n, 0);
        for i in 0..n {
            let root = find(parent, i);
            slot[root] += 1;
        }
        let mut start = 0;
        for root in 0..n {
            let size = slot[root];
            if size > 0 {
                slot[root] = groups.len();
                groups.push((start, start, boxes[root].expect("root has box")));
                start += size;
            }
        }
        members.resize(n, 0);
        for i in 0..n {
            let group = &mut groups[slot[parent[i]]];
            members[group.1] = i;
            group.1 += 1;
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// Group `i`'s members (indices into the decomposed requests) and
    /// joint bounding box.
    pub(crate) fn group(&self, i: usize) -> (&[usize], BBox) {
        let (start, end, bbox) = self.groups[i];
        (&self.members[start..end], bbox)
    }

    /// Every group, in [`decompose`]'s order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[usize], BBox)> + '_ {
        (0..self.len()).map(|i| self.group(i))
    }
}

/// Reusable scratch for [`score_layer`]. The annealer evaluates the LLG
/// objective thousands of times per run; routing the union-find state,
/// box tables, and nesting buffers through this struct makes repeated
/// scoring allocation-free once the buffers have grown to the layer
/// size.
#[derive(Debug, Default)]
pub struct LlgScratch {
    parent: Vec<usize>,
    boxes: Vec<Option<BBox>>,
    roots: Vec<usize>,
    sizes: Vec<usize>,
    input_boxes: Vec<BBox>,
    comp_boxes: Vec<BBox>,
    comp_masks: Vec<u64>,
    nest: Vec<BBox>,
}

#[inline]
fn find_halving(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// The annealing score of one concurrent layer: Σ over LLGs of size
/// `k > 3` of `(k - 3)`, plus 1 per such group that is not guaranteed
/// schedulable by Theorem 1/2 — exactly the per-layer term of the
/// placement optimizer's `llg_objective`, computed without building the
/// [`Llg`] vector. Equality with the [`decompose`]-based computation is
/// proven by `score_layer_matches_decompose` and by the annealer's own
/// debug cross-check.
pub fn score_layer(scratch: &mut LlgScratch, requests: &[CxRequest]) -> u64 {
    // Every LLG is a subset of the layer, so a layer of ≤ 3 gates cannot
    // contain an oversized group.
    if requests.len() <= 3 {
        return 0;
    }
    let mut boxes = std::mem::take(&mut scratch.input_boxes);
    boxes.clear();
    boxes.extend(requests.iter().map(|r| r.outer_bbox()));
    let total = score_boxes(scratch, &boxes);
    scratch.input_boxes = boxes;
    total
}

/// [`score_layer`] on precomputed outer bounding boxes — callers that
/// cache the per-gate boxes (the annealer's incremental objective) skip
/// the box recomputation entirely.
pub fn score_boxes(scratch: &mut LlgScratch, boxes: &[BBox]) -> u64 {
    let n = boxes.len();
    if n <= 3 {
        return 0;
    }
    if n <= 64 {
        score_boxes_small(scratch, boxes)
    } else {
        score_boxes_large(scratch, boxes)
    }
}

/// [`score_boxes`] for layers of ≤ 64 gates: the union-find is replaced
/// by a shrinking component list with `u64` membership masks, so the
/// common sparse case (no overlaps at all) costs one quadratic sweep of
/// plain box comparisons and nothing else. The partition computed is the
/// same unique overlap-closure as `decompose`'s.
fn score_boxes_small(scratch: &mut LlgScratch, boxes: &[BBox]) -> u64 {
    let LlgScratch {
        comp_boxes,
        comp_masks,
        nest,
        ..
    } = scratch;
    let n = boxes.len();
    comp_boxes.clear();
    comp_boxes.extend_from_slice(boxes);
    comp_masks.clear();
    comp_masks.extend((0..n).map(|i| 1u64 << i));

    // Merge overlapping components until stable; a merged box grows, so
    // pairs skipped earlier in the sweep are revisited by the outer loop.
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < comp_boxes.len() {
            let mut j = i + 1;
            while j < comp_boxes.len() {
                if comp_boxes[i].overlaps_open(&comp_boxes[j]) {
                    let merged = comp_boxes[i].union(&comp_boxes[j]);
                    comp_boxes[i] = merged;
                    comp_masks[i] |= comp_masks[j];
                    comp_boxes.swap_remove(j);
                    comp_masks.swap_remove(j);
                    changed = true;
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
    }

    let mut total = 0u64;
    for &mask in comp_masks.iter() {
        let k = mask.count_ones() as u64;
        if k <= 3 {
            continue;
        }
        total += k - 3;
        nest.clear();
        let mut m = mask;
        while m != 0 {
            nest.push(boxes[m.trailing_zeros() as usize]);
            m &= m - 1;
        }
        if !is_nested_chain(nest) {
            total += 1;
        }
    }
    total
}

/// [`score_boxes`] beyond 64 gates: the same overlap-merge fixpoint as
/// `decompose`, run through scratch-allocated union-find state.
fn score_boxes_large(scratch: &mut LlgScratch, input: &[BBox]) -> u64 {
    let n = input.len();
    scratch.parent.clear();
    scratch.parent.extend(0..n);
    scratch.boxes.clear();
    scratch.boxes.extend(input.iter().map(|b| Some(*b)));

    let mut changed = true;
    while changed {
        changed = false;
        scratch.roots.clear();
        for i in 0..n {
            if find_halving(&mut scratch.parent, i) == i && scratch.boxes[i].is_some() {
                scratch.roots.push(i);
            }
        }
        for i in 0..scratch.roots.len() {
            let ri = find_halving(&mut scratch.parent, scratch.roots[i]);
            for j in i + 1..scratch.roots.len() {
                let rj = find_halving(&mut scratch.parent, scratch.roots[j]);
                if ri == rj {
                    continue;
                }
                let bi = scratch.boxes[ri].expect("root has box");
                let bj = scratch.boxes[rj].expect("root has box");
                if bi.overlaps_open(&bj) {
                    scratch.parent[rj] = ri;
                    scratch.boxes[ri] = Some(bi.union(&bj));
                    scratch.boxes[rj] = None;
                    changed = true;
                }
            }
        }
    }

    scratch.sizes.clear();
    scratch.sizes.resize(n, 0);
    for i in 0..n {
        let root = find_halving(&mut scratch.parent, i);
        scratch.sizes[root] += 1;
    }

    let mut total = 0u64;
    for root in 0..n {
        let k = scratch.sizes[root];
        if k <= 3 {
            continue;
        }
        total += k as u64 - 3;
        scratch.nest.clear();
        for (i, bbox) in input.iter().enumerate() {
            if find_halving(&mut scratch.parent, i) == root {
                scratch.nest.push(*bbox);
            }
        }
        if !is_nested_chain(&mut scratch.nest) {
            total += 1;
        }
    }
    total
}

/// Number of LLGs with size > 3 (the raw "# of LLG's (size > 3)" column of
/// Table 1).
pub fn count_oversized(requests: &[CxRequest]) -> usize {
    decompose(requests).iter().filter(|g| g.size() > 3).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_lattice::Cell;

    fn req(id: usize, a: (u32, u32), b: (u32, u32)) -> CxRequest {
        CxRequest::new(id, Cell::new(a.0, a.1), Cell::new(b.0, b.1))
    }

    #[test]
    fn disjoint_gates_are_singleton_llgs() {
        let rs = vec![
            req(0, (0, 0), (0, 1)),
            req(1, (4, 4), (4, 5)),
            req(2, (8, 0), (8, 1)),
        ];
        let llgs = decompose(&rs);
        assert_eq!(llgs.len(), 3);
        assert!(llgs.iter().all(|g| g.size() == 1));
        assert!(llgs.iter().all(|g| g.satisfies_theorem1()));
    }

    #[test]
    fn overlapping_gates_merge() {
        let rs = vec![req(0, (0, 0), (2, 2)), req(1, (1, 1), (3, 3))];
        let llgs = decompose(&rs);
        assert_eq!(llgs.len(), 1);
        assert_eq!(llgs[0].size(), 2);
        assert_eq!(llgs[0].bbox, BBox::new(0, 0, 4, 4));
    }

    #[test]
    fn transitive_merge_via_grown_box() {
        // A (box (0,0)-(2,2)) overlaps B (box (1,1)-(4,4)), merging into
        // the joint box (0,0)-(4,4). C's box (0,3)-(1,5) overlaps neither A
        // nor B individually, but does overlap the joint box — the
        // fixpoint loop must pull it in (LLG minimality).
        let rs = vec![
            req(0, (0, 0), (1, 1)),
            req(1, (1, 1), (3, 3)),
            req(2, (0, 3), (0, 4)),
        ];
        assert!(!rs[0].outer_bbox().overlaps_open(&rs[2].outer_bbox()));
        assert!(!rs[1].outer_bbox().overlaps_open(&rs[2].outer_bbox()));
        let llgs = decompose(&rs);
        assert_eq!(llgs.len(), 1, "fixpoint merging pulls C in");
        assert_eq!(llgs[0].size(), 3);
    }

    #[test]
    fn touching_boxes_stay_separate() {
        // Chained neighbour pairs (Ising row): boxes share a boundary line
        // only — each pair routes inside its own box, so they must remain
        // independent singleton LLGs (cf. paper Fig. 7).
        let rs: Vec<CxRequest> = (0..4)
            .map(|i| req(i, (0, 2 * i as u32), (0, 2 * i as u32 + 1)))
            .collect();
        let llgs = decompose(&rs);
        assert_eq!(llgs.len(), 4);
        assert!(llgs.iter().all(|g| g.size() == 1));
    }

    #[test]
    fn empty_input() {
        assert!(decompose(&[]).is_empty());
        assert_eq!(count_oversized(&[]), 0);
    }

    #[test]
    fn members_partition_input() {
        let rs: Vec<CxRequest> = (0..10)
            .map(|i| req(i, (i as u32, 0), (i as u32, 3)))
            .collect();
        let llgs = decompose(&rs);
        let mut all: Vec<usize> = llgs.iter().flat_map(|g| g.members.clone()).collect();
        all.sort();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_llg_detected() {
        // Paper Fig. 12 LLG1: A inside B inside C (strictly nested).
        let rs = vec![
            req(0, (4, 4), (4, 5)), // A: box (4,4)-(5,6)
            req(1, (3, 3), (6, 6)), // B: box (3,3)-(7,7) strictly nests A
            req(2, (1, 1), (8, 8)), // C: box (1,1)-(9,9) strictly nests B
            req(3, (0, 0), (10, 10)),
        ];
        let llgs = decompose(&rs);
        assert_eq!(llgs.len(), 1);
        assert_eq!(llgs[0].size(), 4);
        assert!(!llgs[0].satisfies_theorem1());
        assert!(llgs[0].is_strictly_nested(&rs));
        assert!(llgs[0].guaranteed_schedulable(&rs));
        assert_eq!(count_oversized(&rs), 1);
    }

    #[test]
    fn non_nested_large_llg_is_unguaranteed() {
        // Four mutually overlapping same-size boxes (Fig. 9 pattern).
        let rs = vec![
            req(0, (0, 0), (0, 5)),
            req(1, (0, 0), (5, 0)),
            req(2, (5, 0), (5, 5)),
            req(3, (0, 5), (5, 5)),
        ];
        assert_eq!(count_oversized(&rs), 1);
        let llgs = decompose(&rs);
        assert!(!llgs[0].guaranteed_schedulable(&rs));
        assert!(!llgs[0].is_strictly_nested(&rs));
    }

    #[test]
    fn score_layer_matches_decompose() {
        // The scratch-based score must equal the per-layer objective term
        // computed from `decompose` on random layers, including the
        // oversized-and-unnested +1.
        use autobraid_telemetry::Rng64;
        let mut rng = Rng64::seed_from_u64(23);
        let mut scratch = LlgScratch::default();
        for trial in 0..64 {
            // The last trials exceed 64 gates to also exercise the
            // union-find fallback path.
            let count = if trial >= 60 {
                rng.gen_range(65usize..80)
            } else {
                rng.gen_range(0usize..12)
            };
            let mut rs = Vec::new();
            while rs.len() < count {
                let a = Cell::new(rng.gen_range(0u32..8), rng.gen_range(0u32..8));
                let b = Cell::new(rng.gen_range(0u32..8), rng.gen_range(0u32..8));
                if a == b {
                    continue;
                }
                rs.push(CxRequest::new(rs.len(), a, b));
            }
            let expected: u64 = decompose(&rs)
                .iter()
                .filter(|g| g.size() > 3)
                .map(|g| g.size() as u64 - 3 + u64::from(!g.guaranteed_schedulable(&rs)))
                .sum();
            assert_eq!(score_layer(&mut scratch, &rs), expected, "layer {rs:?}");
        }
    }

    #[test]
    fn singletons_and_pairs_always_guaranteed() {
        let rs = vec![req(0, (0, 0), (3, 3))];
        let llgs = decompose(&rs);
        assert!(
            llgs[0].is_strictly_nested(&rs),
            "singleton is trivially nested"
        );
        assert!(llgs[0].guaranteed_schedulable(&rs));
    }
}
