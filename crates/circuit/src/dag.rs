//! Gate dependence DAG, frontier tracking, and critical-path analysis.
//!
//! Two gates depend on each other iff they share an operand qubit; the DAG
//! keeps only the immediate (per-qubit last-writer) edges. The *frontier*
//! of ready gates drives every scheduler in the workspace, and the weighted
//! critical path is the paper's "CP" ideal execution time.

use crate::circuit::{Circuit, GateId};
use crate::gate::Gate;
use std::borrow::Cow;
use std::collections::VecDeque;

/// Immediate-dependence DAG of a circuit.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::circuit::Circuit;
/// use autobraid_circuit::dag::DependenceDag;
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2).h(2);
/// let dag = DependenceDag::new(&c);
/// assert_eq!(dag.predecessors(0), &[] as &[usize]);
/// assert_eq!(dag.predecessors(1), &[0]);       // cx(0,1) waits on h(0)
/// assert_eq!(dag.predecessors(2), &[1]);       // cx(1,2) waits on cx(0,1)
/// assert_eq!(dag.depth(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DependenceDag {
    /// Predecessors of gate `g`: `preds[pred_start[g]..pred_start[g + 1]]`.
    pred_start: Vec<usize>,
    preds: Vec<GateId>,
    /// Successors of gate `g`: the first `succ_len[g]` of its slots
    /// `succs[succ_start[g]..succ_start[g + 1]]`. A plain DAG gives each
    /// gate one slot per operand (a later gate attaches through an
    /// operand whose last writer it is, so at most one per operand),
    /// filled as [`push`](Self::push) appends; a relaxed DAG sizes the
    /// slots exactly.
    succ_start: Vec<usize>,
    succ_len: Vec<u32>,
    succs: Vec<GateId>,
    /// Last gate on each qubit: where [`DependenceDag::push`] attaches
    /// the next gate. Empty for a commutation-relaxed DAG, which cannot
    /// be appended to.
    last_on_qubit: Vec<Option<GateId>>,
}

impl DependenceDag {
    /// Builds the DAG in `O(gates × operands)`: one [`push`](Self::push)
    /// per gate.
    pub fn new(circuit: &Circuit) -> Self {
        let mut dag = DependenceDag::with_qubits(circuit.num_qubits());
        let n = circuit.len();
        dag.pred_start.reserve(n);
        dag.preds.reserve(2 * n);
        dag.succ_start.reserve(n);
        dag.succ_len.reserve(n);
        dag.succs.reserve(2 * n);
        for (_, gate) in circuit.iter() {
            dag.push(gate);
        }
        dag
    }

    /// An empty plain DAG over `num_qubits` qubits, grown gate by gate
    /// with [`push`](Self::push).
    pub fn with_qubits(num_qubits: u32) -> Self {
        DependenceDag {
            pred_start: vec![0],
            preds: Vec::new(),
            succ_start: vec![0],
            succ_len: Vec::new(),
            succs: Vec::new(),
            last_on_qubit: vec![None; num_qubits as usize],
        }
    }

    /// Appends `gate` as the next gate id, with an edge from the last
    /// gate on each of its operands, and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an operand is beyond the DAG's qubit count — always the
    /// case for a [`with_commutation`](Self::with_commutation) DAG, whose
    /// commuting sets a plain last-writer edge cannot extend.
    pub fn push(&mut self, gate: &Gate) -> GateId {
        let id = self.len();
        let first = self.preds.len();
        let operands = gate.qubits();
        for &q in operands.iter() {
            let last = self
                .last_on_qubit
                .get_mut(q as usize)
                .expect("push needs a plain DAG covering the gate's qubits");
            if let Some(prev) = last.replace(id) {
                // A two-qubit gate may repeat a predecessor if both
                // operands last touched the same gate; dedupe.
                if !self.preds[first..].contains(&prev) {
                    self.preds.push(prev);
                    let slot = self.succ_start[prev] + self.succ_len[prev] as usize;
                    self.succs[slot] = id;
                    self.succ_len[prev] += 1;
                }
            }
        }
        self.pred_start.push(self.preds.len());
        self.succs.extend(operands.iter().map(|_| 0));
        self.succ_start.push(self.succs.len());
        self.succ_len.push(0);
        id
    }

    /// Builds the *commutation-relaxed* DAG: gates acting in the same
    /// basis on every shared qubit (see [`crate::commutation::commutes`])
    /// are unordered, so e.g. all controlled-phase gates of a QFT become
    /// mutually concurrent. Edges are a subset of what topological
    /// ordering requires: per qubit, maximal runs of mutually commuting
    /// gates form unordered sets, and each set fully depends on the
    /// previous one.
    ///
    /// ```
    /// use autobraid_circuit::circuit::Circuit;
    /// use autobraid_circuit::dag::DependenceDag;
    ///
    /// let mut c = Circuit::new(3);
    /// c.cx(0, 1).cx(0, 2); // shared control: commute
    /// assert_eq!(DependenceDag::new(&c).depth(), 2);
    /// assert_eq!(DependenceDag::with_commutation(&c).depth(), 1);
    /// ```
    pub fn with_commutation(circuit: &Circuit) -> Self {
        use crate::commutation::commutes;
        let n = circuit.len();
        let mut pred_start = Vec::with_capacity(n + 1);
        pred_start.push(0);
        let mut preds: Vec<GateId> = Vec::new();
        // Per qubit: the previous (closed) commuting set and the current
        // (open) one. A new gate joining the current set depends on all of
        // the previous set; a non-commuting gate closes the current set.
        let qubits = circuit.num_qubits() as usize;
        let mut prev_set: Vec<Vec<GateId>> = vec![Vec::new(); qubits];
        let mut cur_set: Vec<Vec<GateId>> = vec![Vec::new(); qubits];

        for (id, gate) in circuit.iter() {
            let first = preds.len();
            for q in gate.qubits() {
                let qi = q as usize;
                let joins = cur_set[qi].iter().all(|&g| commutes(circuit.gate(g), gate));
                if !joins {
                    prev_set[qi] = std::mem::take(&mut cur_set[qi]);
                }
                for &p in &prev_set[qi] {
                    if !preds[first..].contains(&p) {
                        preds.push(p);
                    }
                }
                cur_set[qi].push(id);
            }
            preds[first..].sort_unstable();
            pred_start.push(preds.len());
        }

        // Successor lists by counting sort over the edges; filling in
        // increasing `to` order leaves each list sorted.
        let mut succ_len = vec![0u32; n];
        for &p in &preds {
            succ_len[p] += 1;
        }
        let mut succ_start = Vec::with_capacity(n + 1);
        succ_start.push(0);
        for &len in &succ_len {
            succ_start.push(succ_start[succ_start.len() - 1] + len as usize);
        }
        let mut fill = succ_start[..n].to_vec();
        let mut succs = vec![0; preds.len()];
        for to in 0..n {
            for &from in &preds[pred_start[to]..pred_start[to + 1]] {
                succs[fill[from]] = to;
                fill[from] += 1;
            }
        }
        DependenceDag {
            pred_start,
            preds,
            succ_start,
            succ_len,
            succs,
            last_on_qubit: Vec::new(),
        }
    }

    /// Number of gates (nodes).
    pub fn len(&self) -> usize {
        self.succ_len.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.succ_len.is_empty()
    }

    /// Immediate predecessors of `gate`.
    pub fn predecessors(&self, gate: GateId) -> &[GateId] {
        &self.preds[self.pred_start[gate]..self.pred_start[gate + 1]]
    }

    /// Immediate successors of `gate`.
    pub fn successors(&self, gate: GateId) -> &[GateId] {
        let start = self.succ_start[gate];
        &self.succs[start..start + self.succ_len[gate] as usize]
    }

    /// Gates with no predecessors.
    pub fn roots(&self) -> Vec<GateId> {
        (0..self.len())
            .filter(|&g| self.predecessors(g).is_empty())
            .collect()
    }

    /// Unweighted DAG depth: the number of dependence levels (0 for an
    /// empty circuit).
    pub fn depth(&self) -> usize {
        self.asap_levels().into_iter().max().map_or(0, |d| d + 1)
    }

    /// As-soon-as-possible level of every gate (roots are level 0).
    pub fn asap_levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.len()];
        // Program order is a topological order by construction.
        for g in 0..self.len() {
            for &p in self.predecessors(g) {
                level[g] = level[g].max(level[p] + 1);
            }
        }
        level
    }

    /// Weighted critical-path length: the maximum, over all dependence
    /// chains, of the summed gate weights. This is the paper's ideal "CP"
    /// execution time when `weight` maps each gate to its latency.
    ///
    /// ```
    /// # use autobraid_circuit::circuit::Circuit;
    /// # use autobraid_circuit::dag::DependenceDag;
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1);
    /// let dag = DependenceDag::new(&c);
    /// let cp = dag.critical_path_weight(&c, |g| if g.is_two_qubit() { 2 } else { 1 });
    /// assert_eq!(cp, 3);
    /// ```
    pub fn critical_path_weight(&self, circuit: &Circuit, weight: impl Fn(&Gate) -> u64) -> u64 {
        let mut finish = vec![0u64; self.len()];
        let mut best = 0;
        for g in 0..self.len() {
            let start = self
                .predecessors(g)
                .iter()
                .map(|&p| finish[p])
                .max()
                .unwrap_or(0);
            finish[g] = start + weight(circuit.gate(g));
            best = best.max(finish[g]);
        }
        best
    }
}

/// Incremental frontier over a [`DependenceDag`]: tracks which gates are
/// ready (all predecessors completed), lets a scheduler complete them in
/// any order, and surfaces newly released gates.
///
/// The frontier borrows a pre-built DAG ([`Frontier::new`]) or owns one
/// that grows while it drains ([`Frontier::appendable`] and
/// [`Frontier::push`]): a gate appended after the frontier was created
/// waits only on predecessors not yet completed. Appending every gate
/// up front releases gates in exactly the order of a frontier over the
/// finished DAG.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::circuit::Circuit;
/// use autobraid_circuit::dag::{DependenceDag, Frontier};
///
/// let mut c = Circuit::new(2);
/// c.h(0).h(1).cx(0, 1);
/// let dag = DependenceDag::new(&c);
/// let mut frontier = Frontier::new(&dag);
/// let mut ready = frontier.ready().to_vec();
/// ready.sort();
/// assert_eq!(ready, vec![0, 1]);
/// frontier.complete(0);
/// frontier.complete(1);
/// assert_eq!(frontier.ready(), &[2]);
/// frontier.complete(2);
/// assert!(frontier.is_drained());
/// ```
#[derive(Debug, Clone)]
pub struct Frontier<'a> {
    dag: Cow<'a, DependenceDag>,
    remaining_preds: Vec<usize>,
    ready: Vec<GateId>,
    completed: Vec<bool>,
    outstanding: usize,
}

impl<'a> Frontier<'a> {
    /// Starts a frontier over `dag` with every root gate ready.
    pub fn new(dag: &'a DependenceDag) -> Self {
        Frontier::over(Cow::Borrowed(dag))
    }

    /// An empty frontier owning an empty plain DAG over `num_qubits`
    /// qubits; gates arrive through [`push`](Self::push).
    pub fn appendable(num_qubits: u32) -> Self {
        Frontier::over(Cow::Owned(DependenceDag::with_qubits(num_qubits)))
    }

    fn over(dag: Cow<'a, DependenceDag>) -> Self {
        let mut frontier = Frontier {
            dag,
            remaining_preds: Vec::new(),
            ready: Vec::new(),
            completed: Vec::new(),
            outstanding: 0,
        };
        frontier.admit_new_gates();
        frontier
    }

    /// Appends `gate` to the DAG ([`DependenceDag::push`]) and admits
    /// it: it is ready at once if every predecessor has completed.
    /// Returns its id. A frontier over a borrowed DAG copies it first.
    pub fn push(&mut self, gate: &Gate) -> GateId {
        let id = self.dag.to_mut().push(gate);
        self.admit_new_gates();
        id
    }

    /// Admits the DAG's gates the frontier has not seen yet, in id
    /// order, counting only predecessors not yet completed.
    fn admit_new_gates(&mut self) {
        let seen = self.remaining_preds.len();
        let total = self.dag.len();
        self.remaining_preds.reserve(total - seen);
        self.completed.reserve(total - seen);
        for g in seen..total {
            let waiting = self
                .dag
                .predecessors(g)
                .iter()
                .filter(|&&p| !self.completed[p])
                .count();
            self.remaining_preds.push(waiting);
            self.completed.push(false);
            self.outstanding += 1;
            if waiting == 0 {
                self.ready.push(g);
            }
        }
    }

    /// The DAG the frontier drains.
    pub fn dag(&self) -> &DependenceDag {
        &self.dag
    }

    /// The currently ready gates, in release order.
    pub fn ready(&self) -> &[GateId] {
        &self.ready
    }

    /// Whether every gate has been completed.
    pub fn is_drained(&self) -> bool {
        self.outstanding == 0
    }

    /// Number of gates not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Marks `gate` complete, releasing any successors whose predecessors
    /// are all done.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not currently ready (still has unmet
    /// dependencies, or already completed).
    pub fn complete(&mut self, gate: GateId) {
        assert!(!self.completed[gate], "gate {gate} completed twice");
        assert_eq!(
            self.remaining_preds[gate], 0,
            "gate {gate} completed before its {} remaining dependencies",
            self.remaining_preds[gate]
        );
        self.completed[gate] = true;
        self.outstanding -= 1;
        if let Some(pos) = self.ready.iter().position(|&g| g == gate) {
            self.ready.swap_remove(pos);
        }
        for &s in self.dag.successors(gate) {
            self.remaining_preds[s] -= 1;
            if self.remaining_preds[s] == 0 {
                self.ready.push(s);
            }
        }
    }

    /// A breadth-first topological drain used for validation: repeatedly
    /// completes all ready gates, returning the layer structure.
    pub fn drain_layers(mut self) -> Vec<Vec<GateId>> {
        let mut layers = Vec::new();
        while !self.is_drained() {
            let layer: Vec<GateId> = self.ready.to_vec();
            assert!(
                !layer.is_empty(),
                "frontier stuck with {} outstanding",
                self.outstanding
            );
            for &g in &layer {
                self.complete(g);
            }
            layers.push(layer);
        }
        layers
    }
}

/// Validates that `order` is a topological execution of `circuit`: every
/// gate appears exactly once and after all of its dependence predecessors.
pub fn is_valid_execution_order(circuit: &Circuit, order: &[GateId]) -> bool {
    if order.len() != circuit.len() {
        return false;
    }
    let dag = DependenceDag::new(circuit);
    let mut position = vec![usize::MAX; circuit.len()];
    for (i, &g) in order.iter().enumerate() {
        if g >= circuit.len() || position[g] != usize::MAX {
            return false;
        }
        position[g] = i;
    }
    for g in 0..circuit.len() {
        for &p in dag.predecessors(g) {
            if position[p] >= position[g] {
                return false;
            }
        }
    }
    true
}

/// [`DependenceDag::asap_levels`] of `circuit`'s plain DAG
/// ([`DependenceDag::new`]) without building it: one sweep that keeps,
/// per qubit, the level just past the last gate on it.
pub fn plain_asap_levels(circuit: &Circuit) -> Vec<usize> {
    let mut next_free = vec![0usize; circuit.num_qubits() as usize];
    circuit
        .gates()
        .iter()
        .map(|gate| match *gate {
            Gate::Single { qubit, .. } => {
                let level = next_free[qubit as usize];
                next_free[qubit as usize] = level + 1;
                level
            }
            Gate::Two {
                control, target, ..
            } => {
                let (c, t) = (control as usize, target as usize);
                let level = next_free[c].max(next_free[t]);
                next_free[c] = level + 1;
                next_free[t] = level + 1;
                level
            }
        })
        .collect()
}

/// Longest-path layering by breadth-first traversal — an independent
/// implementation the tests use to cross-check
/// [`DependenceDag::asap_levels`]. The parallelism analysis
/// ([`crate::layers::ParallelismProfile`]) uses [`plain_asap_levels`].
pub fn bfs_levels(dag: &DependenceDag) -> Vec<usize> {
    let mut indeg: Vec<usize> = (0..dag.len()).map(|g| dag.predecessors(g).len()).collect();
    let mut level = vec![0usize; dag.len()];
    let mut queue: VecDeque<GateId> = dag.roots().into();
    while let Some(g) = queue.pop_front() {
        for &s in dag.successors(g) {
            level[s] = level[s].max(level[g] + 1);
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push_back(s);
            }
        }
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Circuit {
        // Serial chain: every CX shares qubit 0.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(0, 2).cx(0, 3);
        c
    }

    fn diamond() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0); // 0
        c.cx(0, 1); // 1 depends on 0
        c.cx(0, 2); // 2 depends on 1 (shares qubit 0)
        c.cx(1, 3); // 3 depends on 1
        c
    }

    #[test]
    fn chain_is_fully_serial() {
        let c = chain();
        let dag = DependenceDag::new(&c);
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.roots(), vec![0]);
        assert_eq!(dag.asap_levels(), vec![0, 1, 2]);
    }

    #[test]
    fn diamond_structure() {
        let c = diamond();
        let dag = DependenceDag::new(&c);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[1]);
        assert_eq!(dag.predecessors(3), &[1]);
        assert_eq!(dag.successors(1), &[2, 3]);
        assert_eq!(dag.depth(), 3);
    }

    #[test]
    fn duplicate_predecessor_deduped() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0);
        let dag = DependenceDag::new(&c);
        assert_eq!(
            dag.predecessors(1),
            &[0],
            "single edge despite two shared qubits"
        );
        assert_eq!(dag.successors(0), &[1]);
    }

    #[test]
    fn independent_gates_parallel() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3);
        let dag = DependenceDag::new(&c);
        assert_eq!(dag.depth(), 1);
        assert_eq!(dag.roots().len(), 2);
    }

    #[test]
    fn critical_path_weighted() {
        let c = diamond();
        let dag = DependenceDag::new(&c);
        // h=1, cx=2: path h→cx→cx = 1+2+2 = 5.
        assert_eq!(
            dag.critical_path_weight(&c, |g| if g.is_two_qubit() { 2 } else { 1 }),
            5
        );
        // Uniform weights: equals depth.
        assert_eq!(dag.critical_path_weight(&c, |_| 1), 3);
    }

    #[test]
    fn empty_circuit_dag() {
        let c = Circuit::new(3);
        let dag = DependenceDag::new(&c);
        assert!(dag.is_empty());
        assert_eq!(dag.depth(), 0);
        assert_eq!(dag.critical_path_weight(&c, |_| 1), 0);
    }

    #[test]
    fn frontier_releases_in_dependence_order() {
        let c = diamond();
        let dag = DependenceDag::new(&c);
        let mut f = Frontier::new(&dag);
        assert_eq!(f.ready(), &[0]);
        f.complete(0);
        assert_eq!(f.ready(), &[1]);
        f.complete(1);
        let mut r = f.ready().to_vec();
        r.sort();
        assert_eq!(r, vec![2, 3]);
        f.complete(3);
        f.complete(2);
        assert!(f.is_drained());
    }

    #[test]
    #[should_panic(expected = "before its")]
    fn frontier_rejects_early_completion() {
        let c = chain();
        let dag = DependenceDag::new(&c);
        let mut f = Frontier::new(&dag);
        f.complete(2);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn frontier_rejects_double_completion() {
        let c = chain();
        let dag = DependenceDag::new(&c);
        let mut f = Frontier::new(&dag);
        f.complete(0);
        // Re-completing a done gate: remaining_preds is 0 but completed.
        f.complete(0);
    }

    #[test]
    fn drain_layers_matches_asap() {
        let c = diamond();
        let dag = DependenceDag::new(&c);
        let layers = Frontier::new(&dag).drain_layers();
        assert_eq!(layers.len(), dag.depth());
        let asap = dag.asap_levels();
        for (level, layer) in layers.iter().enumerate() {
            for &g in layer {
                assert_eq!(asap[g], level);
            }
        }
    }

    #[test]
    fn bfs_levels_agree_with_asap() {
        let c = diamond();
        let dag = DependenceDag::new(&c);
        assert_eq!(bfs_levels(&dag), dag.asap_levels());
    }

    #[test]
    fn the_plain_sweep_matches_the_dag_levels() {
        let mut circuits: Vec<Circuit> = random_circuits().map(|(_, c)| c).collect();
        circuits.push(diamond());
        circuits.push(Circuit::new(3));
        circuits.push(crate::generators::by_name("urf2_277", 0).unwrap());
        for c in &circuits {
            assert_eq!(plain_asap_levels(c), DependenceDag::new(c).asap_levels());
        }
    }

    #[test]
    fn commutation_dag_flattens_shared_control_fanout() {
        // BV-style fan-in: all CXs share the target — X-basis on the
        // shared qubit, so they all commute.
        let mut c = Circuit::new(5);
        for q in 0..4 {
            c.cx(q, 4);
        }
        assert_eq!(DependenceDag::new(&c).depth(), 4);
        assert_eq!(DependenceDag::with_commutation(&c).depth(), 1);
    }

    #[test]
    fn commutation_dag_respects_barriers() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).h(1).cx(2, 1);
        let dag = DependenceDag::with_commutation(&c);
        // H on qubit 1 separates the two CXs.
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[1]);
    }

    #[test]
    fn commutation_dag_widens_qft_layers() {
        // QFT depth is pinned by the H gates (2n - 1 alternating sets),
        // but commuting controlled-phase cascades concentrate into much
        // wider layers — more routing freedom per step.
        let c = crate::generators::qft::qft(16).unwrap();
        let plain = DependenceDag::new(&c);
        let relaxed = DependenceDag::with_commutation(&c);
        assert!(relaxed.depth() <= plain.depth());
        let max_width = |dag: &DependenceDag| {
            let levels = dag.asap_levels();
            let mut counts = vec![0usize; dag.depth()];
            for &l in &levels {
                counts[l] += 1;
            }
            counts.into_iter().max().unwrap_or(0)
        };
        assert!(
            max_width(&relaxed) >= 2 * max_width(&plain) - 2,
            "commutation should widen layers: {} vs {}",
            max_width(&relaxed),
            max_width(&plain)
        );
    }

    #[test]
    fn commutation_dag_is_executable() {
        let c = crate::generators::qft::qft(10).unwrap();
        let dag = DependenceDag::with_commutation(&c);
        let layers = Frontier::new(&dag).drain_layers();
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, c.len(), "frontier drains every gate");
    }

    #[test]
    fn commutation_set_boundaries_are_transitive() {
        // z(0), x(0), z(0): the two Z gates do NOT commute past the X, so
        // depth must be 3 even though z-z commute pairwise.
        let mut c = Circuit::new(1);
        c.z(0).x(0).z(0);
        assert_eq!(DependenceDag::with_commutation(&c).depth(), 3);
    }

    /// Seeded random circuits of assorted widths and gate mixes.
    fn random_circuits() -> impl Iterator<Item = (u64, Circuit)> {
        (0..24u64).map(|seed| {
            let n = 2 + (seed % 7) as u32;
            let fraction = [0.0, 0.3, 0.7, 1.0][(seed % 4) as usize];
            let c = crate::generators::random::random_circuit(n, 60, fraction, seed).unwrap();
            (seed, c)
        })
    }

    #[test]
    fn fully_appended_frontier_matches_a_prebuilt_one() {
        for (seed, c) in random_circuits() {
            let dag = DependenceDag::new(&c);
            let mut prebuilt = Frontier::new(&dag);
            let mut appended = Frontier::appendable(c.num_qubits());
            for (id, gate) in c.iter() {
                assert_eq!(appended.push(gate), id);
            }
            let mut rng = autobraid_telemetry::Rng64::seed_from_u64(seed);
            while !prebuilt.is_drained() {
                assert_eq!(appended.ready(), prebuilt.ready(), "seed {seed}");
                let g = prebuilt.ready()[rng.gen_range(0..prebuilt.ready().len())];
                prebuilt.complete(g);
                appended.complete(g);
            }
            assert!(appended.is_drained(), "seed {seed}");
            assert_eq!(appended.dag().len(), c.len());
        }
    }

    #[test]
    fn chunked_appends_interleaved_with_completions_respect_dependences() {
        for (seed, c) in random_circuits() {
            let dag = DependenceDag::new(&c);
            let gates: Vec<Gate> = c.iter().map(|(_, g)| *g).collect();
            let mut rng = autobraid_telemetry::Rng64::seed_from_u64(seed ^ 0x5eed);
            let mut frontier = Frontier::appendable(c.num_qubits());
            let mut done = vec![false; c.len()];
            let mut pushed = 0;
            while pushed < gates.len() || !frontier.is_drained() {
                assert!(
                    pushed < gates.len() || !frontier.ready().is_empty(),
                    "seed {seed}: frontier stuck with {} outstanding",
                    frontier.outstanding()
                );
                let chunk = rng.gen_range(0..8usize).min(gates.len() - pushed);
                for gate in &gates[pushed..pushed + chunk] {
                    frontier.push(gate);
                }
                pushed += chunk;
                for _ in 0..rng.gen_range(0..4usize) {
                    let ready = frontier.ready();
                    if ready.is_empty() {
                        break;
                    }
                    let g = ready[rng.gen_range(0..ready.len())];
                    assert!(
                        dag.predecessors(g).iter().all(|&p| done[p]),
                        "seed {seed}: gate {g} released before its predecessors"
                    );
                    frontier.complete(g);
                    done[g] = true;
                }
            }
            assert!(done.iter().all(|&d| d), "seed {seed}: every gate drains");
        }
    }

    #[test]
    fn execution_order_validation() {
        let c = diamond();
        assert!(is_valid_execution_order(&c, &[0, 1, 2, 3]));
        assert!(is_valid_execution_order(&c, &[0, 1, 3, 2]));
        assert!(
            !is_valid_execution_order(&c, &[1, 0, 2, 3]),
            "dependency violated"
        );
        assert!(!is_valid_execution_order(&c, &[0, 1, 2]), "missing gate");
        assert!(
            !is_valid_execution_order(&c, &[0, 0, 2, 3]),
            "duplicate gate"
        );
    }
}
