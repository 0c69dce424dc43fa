//! Simulated-annealing refinement of the initial placement on the LLG
//! objective (paper §3.3.1: "keep swapping qubits until the number of
//! k-LLG (k > 3) cannot be reduced anymore").

use crate::place::Placement;
use autobraid_circuit::dag::plain_asap_levels;
use autobraid_circuit::{Circuit, GateId, ParallelismProfile, QubitId};
use autobraid_lattice::Grid;
use autobraid_router::llg;
use autobraid_router::path::CxRequest;
use autobraid_telemetry::{self as telemetry, Rng64};

/// Initial annealing temperature, in objective units.
const INITIAL_TEMPERATURE: f64 = 2.0;
/// Geometric cooling factor per proposal.
const COOLING: f64 = 0.995;
/// Widest CX layers sampled for the objective.
const MAX_SAMPLED_LAYERS: usize = 8;

/// Annealing parameters. The defaults are tuned so Table 1 regenerates in
/// seconds; scale `iterations` with available time. The temperature
/// schedule and the objective's layer sample are fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Swap proposals to evaluate.
    pub iterations: usize,
    /// RNG seed (the optimizer is fully deterministic).
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 600,
            seed: 0xB81D,
        }
    }
}

/// Outcome of an annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealOutcome {
    /// The refined placement.
    pub placement: Placement,
    /// Objective before refinement (Σ oversized + non-guaranteed LLGs over
    /// the sampled layers).
    pub initial_objective: u64,
    /// Objective after refinement.
    pub final_objective: u64,
    /// Number of accepted swaps.
    pub accepted_moves: usize,
}

/// The [`MAX_SAMPLED_LAYERS`] widest CX layers of the circuit — where
/// oversized LLGs can occur: the CX gates of each ASAP level with at
/// least 4 of them, widest first (ties in level order), in gate order.
/// Only the sampled layers are collected.
fn sample_layers(circuit: &Circuit) -> Vec<Vec<GateId>> {
    let levels = plain_asap_levels(circuit);
    let depth = levels.iter().max().map_or(0, |d| d + 1);
    let mut width = vec![0usize; depth];
    for (g, &level) in levels.iter().enumerate() {
        if circuit.gate(g).is_two_qubit() {
            width[level] += 1;
        }
    }
    // LLGs of size > 3 need ≥ 4 CXs.
    let mut sampled: Vec<usize> = (0..depth).filter(|&l| width[l] >= 4).collect();
    sampled.sort_by_key(|&l| std::cmp::Reverse(width[l]));
    sampled.truncate(MAX_SAMPLED_LAYERS);
    // `slot[level]`: the level's position in `sampled`, if any.
    let mut slot = vec![usize::MAX; depth];
    for (k, &l) in sampled.iter().enumerate() {
        slot[l] = k;
    }
    let mut layers: Vec<Vec<GateId>> = sampled
        .iter()
        .map(|&l| Vec::with_capacity(width[l]))
        .collect();
    for (g, &level) in levels.iter().enumerate() {
        if slot[level] != usize::MAX && circuit.gate(g).is_two_qubit() {
            layers[slot[level]].push(g);
        }
    }
    layers
}

/// Annealing objective for one placement: over the sampled layers, each
/// LLG of size `k > 3` contributes `k - 3` (so shrinking a large group is
/// rewarded even before it drops under the Theorem 1 bound), plus 1 more
/// if it is not guaranteed schedulable by Theorem 1/2 — preferring nested
/// structures among the oversized. Zero iff every sampled layer is fully
/// covered by the theorems.
pub fn llg_objective(circuit: &Circuit, layers: &[Vec<GateId>], placement: &Placement) -> u64 {
    let mut total = 0u64;
    for layer in layers {
        let requests: Vec<CxRequest> = layer
            .iter()
            .map(|&g| {
                let (a, b) = circuit.gate(g).pair().expect("layers hold CX gates only");
                CxRequest::new(g, placement.cell_of(a), placement.cell_of(b))
            })
            .collect();
        for group in llg::decompose(&requests) {
            if group.size() > 3 {
                total += group.size() as u64 - 3;
                if !group.guaranteed_schedulable(&requests) {
                    total += 1;
                }
            }
        }
    }
    total
}

/// Incremental evaluation of [`llg_objective`] across swap proposals.
///
/// The objective is a sum of independent per-layer scores, and a swap of
/// qubits `a` and `b` can only change the layers containing a gate that
/// touches `a` or `b`. The cache keeps every layer's score plus a
/// qubit → layers index, so a proposal re-scores only the affected
/// layers (through the allocation-free [`llg::score_layer`]) and a
/// rejection costs nothing. The annealer cross-checks every proposal
/// against the full recompute in debug builds, and reference mode
/// (`autobraid_telemetry::reference_mode`) bypasses the cache entirely.
struct ObjectiveCache {
    /// Per layer: the routing requests under the *current* placement
    /// (committed state plus any pending proposal's patches).
    layer_requests: Vec<Vec<CxRequest>>,
    /// Per layer: each gate's outer bounding box, kept in lockstep with
    /// `layer_requests` so scoring skips the box recomputation.
    layer_boxes: Vec<Vec<autobraid_lattice::BBox>>,
    /// Per qubit: its `(layer, gate index, operand side)` occurrences,
    /// ascending by layer. Gates within one parallelism layer act on
    /// disjoint qubits, so a qubit appears at most once per layer and the
    /// lists come out sorted for free.
    qubit_positions: Vec<Vec<(u32, u32, bool)>>,
    /// Current score of each layer under the committed placement.
    layer_obj: Vec<u64>,
    /// Σ `layer_obj` — the committed objective.
    total: u64,
    scratch: llg::LlgScratch,
    affected: Vec<u32>,
    /// `(layer, gate index, side, previous cell, previous box)` undo log
    /// of the pending proposal's request patches.
    patches: Vec<(
        u32,
        u32,
        bool,
        autobraid_lattice::Cell,
        autobraid_lattice::BBox,
    )>,
    /// `(layer, new score)` of the pending proposal.
    proposed: Vec<(u32, u64)>,
    proposed_total: u64,
}

impl ObjectiveCache {
    fn new(
        circuit: &Circuit,
        layers: &[Vec<GateId>],
        placement: &Placement,
        num_qubits: usize,
    ) -> Self {
        let mut qubit_positions: Vec<Vec<(u32, u32, bool)>> = vec![Vec::new(); num_qubits];
        let layer_requests: Vec<Vec<CxRequest>> = layers
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                layer
                    .iter()
                    .enumerate()
                    .map(|(gi, &g)| {
                        let (a, b) = circuit.gate(g).pair().expect("layers hold CX gates only");
                        qubit_positions[a as usize].push((l as u32, gi as u32, false));
                        qubit_positions[b as usize].push((l as u32, gi as u32, true));
                        CxRequest::new(g, placement.cell_of(a), placement.cell_of(b))
                    })
                    .collect()
            })
            .collect();
        let layer_boxes: Vec<Vec<autobraid_lattice::BBox>> = layer_requests
            .iter()
            .map(|reqs| reqs.iter().map(|r| r.outer_bbox()).collect())
            .collect();
        let mut cache = ObjectiveCache {
            layer_requests,
            layer_boxes,
            qubit_positions,
            layer_obj: vec![0; layers.len()],
            total: 0,
            scratch: llg::LlgScratch::default(),
            affected: Vec::new(),
            patches: Vec::new(),
            proposed: Vec::new(),
            proposed_total: 0,
        };
        for l in 0..cache.layer_boxes.len() {
            let score = llg::score_boxes(&mut cache.scratch, &cache.layer_boxes[l]);
            cache.layer_obj[l] = score;
            cache.total += score;
        }
        cache
    }

    /// Overwrites `q`'s operand slots with its current cell, logging the
    /// previous cells for [`Self::revert`].
    fn patch_qubit(&mut self, q: QubitId, placement: &Placement) {
        let cell = placement.cell_of(q);
        for &(l, gi, side) in &self.qubit_positions[q as usize] {
            let req = &mut self.layer_requests[l as usize][gi as usize];
            let bbox = &mut self.layer_boxes[l as usize][gi as usize];
            let slot = if side { &mut req.b } else { &mut req.a };
            self.patches.push((l, gi, side, *slot, *bbox));
            *slot = cell;
            *bbox = autobraid_lattice::BBox::of_gate(req.a, req.b);
        }
    }

    /// Objective of `placement` (which already has `a` and `b` swapped):
    /// patches the cached requests in place and re-scores only the layers
    /// touching either qubit. The new scores are staged; [`Self::commit`]
    /// keeps them on acceptance, [`Self::revert`] undoes the patches on
    /// rejection.
    fn propose(&mut self, a: QubitId, b: QubitId, placement: &Placement) -> u64 {
        self.affected.clear();
        {
            let (pa, pb) = (
                &self.qubit_positions[a as usize],
                &self.qubit_positions[b as usize],
            );
            let (mut i, mut j) = (0usize, 0usize);
            while i < pa.len() || j < pb.len() {
                let next = match (pa.get(i), pb.get(j)) {
                    (Some(&(x, _, _)), Some(&(y, _, _))) if x == y => {
                        i += 1;
                        j += 1;
                        x
                    }
                    (Some(&(x, _, _)), Some(&(y, _, _))) if x < y => {
                        i += 1;
                        x
                    }
                    (Some(_), Some(&(y, _, _))) => {
                        j += 1;
                        y
                    }
                    (Some(&(x, _, _)), None) => {
                        i += 1;
                        x
                    }
                    (None, Some(&(y, _, _))) => {
                        j += 1;
                        y
                    }
                    (None, None) => unreachable!("loop condition"),
                };
                self.affected.push(next);
            }
        }
        self.patches.clear();
        self.patch_qubit(a, placement);
        self.patch_qubit(b, placement);

        self.proposed.clear();
        let mut total = self.total;
        for k in 0..self.affected.len() {
            let l = self.affected[k] as usize;
            let new = llg::score_boxes(&mut self.scratch, &self.layer_boxes[l]);
            total = total - self.layer_obj[l] + new;
            self.proposed.push((l as u32, new));
        }
        self.proposed_total = total;
        total
    }

    /// Keeps the staged proposal (the swap was accepted).
    fn commit(&mut self) {
        for &(l, score) in &self.proposed {
            self.layer_obj[l as usize] = score;
        }
        self.total = self.proposed_total;
    }

    /// Restores the cached requests to the committed placement (the swap
    /// was rejected).
    fn revert(&mut self) {
        for &(l, gi, side, old_cell, old_box) in self.patches.iter().rev() {
            let req = &mut self.layer_requests[l as usize][gi as usize];
            if side {
                req.b = old_cell;
            } else {
                req.a = old_cell;
            }
            self.layer_boxes[l as usize][gi as usize] = old_box;
        }
        self.patches.clear();
    }
}

/// Counts oversized LLGs (the raw Table 1 "# of LLG's (size > 3)" number)
/// across *all* CX layers of the circuit under `placement`.
pub fn count_oversized_llgs(circuit: &Circuit, placement: &Placement) -> u64 {
    let profile = ParallelismProfile::analyze(circuit);
    let mut total = 0u64;
    for layer in profile.layers() {
        let requests: Vec<CxRequest> = layer
            .iter()
            .filter(|&&g| circuit.gate(g).is_two_qubit())
            .map(|&g| {
                let (a, b) = circuit.gate(g).pair().expect("filtered to CX");
                CxRequest::new(g, placement.cell_of(a), placement.cell_of(b))
            })
            .collect();
        total += llg::count_oversized(&requests) as u64;
    }
    total
}

/// Refines `initial` by simulated annealing on the LLG objective. Swap
/// proposals exchange two random qubits' tiles; acceptance follows the
/// Metropolis rule with geometric cooling. Deterministic for a fixed
/// config.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::generators::ising::ising;
/// use autobraid_lattice::Grid;
/// use autobraid_placement::annealing::{anneal, AnnealConfig};
/// use autobraid_placement::place::Placement;
///
/// let c = ising(9, 2)?;
/// let grid = Grid::with_capacity_for(9);
/// let start = Placement::row_major(&grid, 9);
/// let outcome = anneal(&c, &grid, start, &AnnealConfig { iterations: 100, ..Default::default() });
/// assert!(outcome.final_objective <= outcome.initial_objective);
/// # Ok::<(), autobraid_circuit::CircuitError>(())
/// ```
pub fn anneal(
    circuit: &Circuit,
    grid: &Grid,
    initial: Placement,
    config: &AnnealConfig,
) -> AnnealOutcome {
    debug_assert!(
        initial.is_consistent(grid),
        "inconsistent starting placement"
    );
    let _span = telemetry::fine_span("anneal");
    let layers = sample_layers(circuit);
    let initial_objective = llg_objective(circuit, &layers, &initial);
    let n = circuit.num_qubits();

    // Nothing to optimize: no layer can host an oversized LLG.
    if layers.is_empty() || n < 2 {
        return AnnealOutcome {
            placement: initial,
            initial_objective,
            final_objective: initial_objective,
            accepted_moves: 0,
        };
    }

    let mut rng = Rng64::seed_from_u64(config.seed);
    let mut current = initial.clone();
    let mut current_obj = initial_objective;
    // Incremental objective: re-score only the layers a swap touches.
    // Reference mode falls back to the full recompute each proposal; the
    // two agree exactly (debug-asserted below), so the RNG stream — and
    // therefore the whole anneal — is identical either way.
    let use_incremental = !telemetry::reference_mode();
    let mut cache = ObjectiveCache::new(circuit, &layers, &current, n as usize);
    debug_assert_eq!(
        cache.total, initial_objective,
        "cached objective diverged from llg_objective at start"
    );
    let mut best = initial;
    let mut best_obj = initial_objective;
    let mut temperature = INITIAL_TEMPERATURE;
    let mut accepted = 0usize;

    // Effort auto-scaling: one objective evaluation costs roughly
    // Σ layer_len² box tests; cap the total work so huge circuits don't
    // spend minutes annealing (compilation stays a small fraction of
    // execution, §4.2).
    let cost_per_iteration: u64 = layers
        .iter()
        .map(|l| (l.len() * l.len()) as u64)
        .sum::<u64>()
        .max(1);
    let budget: u64 = 20_000_000;
    let iterations = config
        .iterations
        .min(((budget / cost_per_iteration) as usize).max(50));

    let mut proposals = 0usize;
    for _ in 0..iterations {
        if best_obj == 0 {
            break; // cannot be reduced anymore
        }
        proposals += 1;
        let a: QubitId = rng.gen_range(0..n);
        let mut b: QubitId = rng.gen_range(0..n);
        while b == a {
            b = rng.gen_range(0..n);
        }
        current.swap_qubits(a, b);
        let obj = if use_incremental {
            let incremental = cache.propose(a, b, &current);
            debug_assert_eq!(
                incremental,
                llg_objective(circuit, &layers, &current),
                "incremental objective diverged on swap ({a}, {b})"
            );
            incremental
        } else {
            llg_objective(circuit, &layers, &current)
        };
        let delta = obj as f64 - current_obj as f64;
        let accept = delta <= 0.0
            || (temperature > 1e-12 && rng.gen_bool((-delta / temperature).exp().min(1.0)));
        if accept {
            if use_incremental {
                cache.commit();
            }
            current_obj = obj;
            accepted += 1;
            if obj < best_obj {
                best_obj = obj;
                best = current.clone();
            }
            if telemetry::fine_metrics_enabled() {
                telemetry::observe("placement.anneal.objective", obj as f64);
            }
            if telemetry::fine_decisions_enabled() {
                telemetry::decision(&telemetry::Decision::AnnealAccept {
                    delta,
                    temp: temperature,
                });
            }
        } else {
            current.swap_qubits(a, b); // undo
            if use_incremental {
                cache.revert();
            }
        }
        temperature *= COOLING;
    }

    // Per-anneal profiling detail: skipped for always-on ambient
    // recorders (see `telemetry::fine_metrics_enabled`).
    if telemetry::fine_metrics_enabled() {
        telemetry::counter("placement.anneal.proposals", proposals as u64);
        telemetry::counter("placement.anneal.accepted", accepted as u64);
        telemetry::counter("placement.anneal.initial_objective", initial_objective);
        telemetry::counter("placement.anneal.final_objective", best_obj);
        if proposals > 0 {
            telemetry::observe(
                "placement.anneal.acceptance_rate",
                accepted as f64 / proposals as f64,
            );
        }
    }

    AnnealOutcome {
        placement: best,
        initial_objective,
        final_objective: best_obj,
        accepted_moves: accepted,
    }
}

/// [`anneal`]; the thread count is ignored. A thread-count shim with the
/// signature perfbench's traced compile calls, kept with the two in
/// `autobraid::scheduler::shims` and removed with them.
pub fn anneal_portfolio(
    circuit: &Circuit,
    grid: &Grid,
    initial: Placement,
    config: &AnnealConfig,
    _threads: usize,
) -> AnnealOutcome {
    anneal(circuit, grid, initial, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_circuit::generators::{ising::ising, qft::qft};

    #[test]
    fn sampled_layers_are_the_widest_profile_layers() {
        // The sampler must return what filtering every parallelism
        // layer to its CX gates and keeping the widest would: widest
        // first, ties in level order, gates in id order.
        use autobraid_circuit::generators::{qaoa::qaoa, random::random_circuit, revlib};
        let circuits = [
            ising(16, 2).unwrap(),
            qft(12).unwrap(),
            qaoa(24, 2, 3, 5).unwrap(),
            random_circuit(20, 400, 0.7, 9).unwrap(),
            revlib::build("sqrt8_260").unwrap(),
        ];
        let mut truncated = 0;
        for c in &circuits {
            let profile = ParallelismProfile::analyze(c);
            let mut expected: Vec<Vec<GateId>> = profile
                .layers()
                .iter()
                .map(|layer| {
                    let cx = layer.iter().copied();
                    cx.filter(|&g| c.gate(g).is_two_qubit()).collect::<Vec<_>>()
                })
                .filter(|layer| layer.len() >= 4)
                .collect();
            expected.sort_by_key(|layer| std::cmp::Reverse(layer.len()));
            truncated += usize::from(expected.len() > MAX_SAMPLED_LAYERS);
            expected.truncate(MAX_SAMPLED_LAYERS);
            assert_eq!(sample_layers(c), expected, "{}", c.name());
        }
        assert!(
            truncated >= 2,
            "only {truncated} circuits had layers to drop"
        );
    }

    #[test]
    fn never_worsens_objective() {
        let c = qft(16).unwrap();
        let grid = Grid::with_capacity_for(16);
        let start = Placement::row_major(&grid, 16);
        let out = anneal(&c, &grid, start, &AnnealConfig::default());
        assert!(out.final_objective <= out.initial_objective);
        assert!(out.placement.is_consistent(&grid));
    }

    #[test]
    fn reduces_oversized_llgs_for_perturbed_ising() {
        // Start from a near-perfect serpentine layout with two qubits
        // exchanged: SA should repair the damage (or at least part of it).
        let c = ising(16, 1).unwrap();
        let grid = Grid::with_capacity_for(16);
        let mut start = crate::linear::place_along_serpentine(&grid, &(0..16).collect::<Vec<_>>());
        start.swap_qubits(2, 13);
        let layers = sample_layers(&c);
        let damaged = llg_objective(&c, &layers, &start);
        assert!(damaged > 0, "the perturbation must create oversized LLGs");
        let out = anneal(
            &c,
            &grid,
            start,
            &AnnealConfig {
                iterations: 1500,
                ..Default::default()
            },
        );
        assert!(
            out.final_objective < out.initial_objective,
            "SA should repair a perturbed chain: {} -> {}",
            out.initial_objective,
            out.final_objective
        );
    }

    #[test]
    fn serial_circuit_is_a_noop() {
        // BV-like circuit: no layer has ≥ 4 CXs, nothing to sample.
        let mut c = Circuit::new(6);
        for q in 0..5 {
            c.cx(q, 5);
        }
        let grid = Grid::with_capacity_for(6);
        let start = Placement::row_major(&grid, 6);
        let out = anneal(&c, &grid, start.clone(), &AnnealConfig::default());
        assert_eq!(out.placement, start);
        assert_eq!(out.accepted_moves, 0);
        assert_eq!(out.initial_objective, 0);
    }

    #[test]
    fn deterministic_for_seed() {
        let c = qft(12).unwrap();
        let grid = Grid::with_capacity_for(12);
        let cfg = AnnealConfig {
            iterations: 200,
            ..Default::default()
        };
        let o1 = anneal(&c, &grid, Placement::row_major(&grid, 12), &cfg);
        let o2 = anneal(&c, &grid, Placement::row_major(&grid, 12), &cfg);
        assert_eq!(o1.placement, o2.placement);
        assert_eq!(o1.final_objective, o2.final_objective);
    }

    #[test]
    fn portfolio_with_one_chain_is_anneal() {
        let c = qft(12).unwrap();
        let grid = Grid::with_capacity_for(12);
        let cfg = AnnealConfig {
            iterations: 150,
            ..Default::default()
        };
        let plain = anneal(&c, &grid, Placement::row_major(&grid, 12), &cfg);
        let portfolio = anneal_portfolio(&c, &grid, Placement::row_major(&grid, 12), &cfg, 4);
        assert_eq!(plain, portfolio);
    }

    #[test]
    fn incremental_anneal_is_byte_identical_to_reference() {
        // The cached-delta objective must leave the whole anneal — RNG
        // stream, accepted moves, final placement — bit-identical to the
        // recompute-every-proposal reference.
        for circuit in [qft(14).unwrap(), ising(16, 2).unwrap()] {
            let grid = Grid::with_capacity_for(16);
            let n = circuit.num_qubits();
            let cfg = AnnealConfig {
                iterations: 300,
                ..Default::default()
            };
            let fast = anneal(&circuit, &grid, Placement::row_major(&grid, n), &cfg);
            let was = telemetry::set_reference_mode(true);
            let reference = anneal(&circuit, &grid, Placement::row_major(&grid, n), &cfg);
            telemetry::set_reference_mode(was);
            assert_eq!(fast, reference);
        }
    }

    #[test]
    fn count_oversized_matches_objective_direction() {
        let c = qft(16).unwrap();
        let grid = Grid::with_capacity_for(16);
        let start = Placement::row_major(&grid, 16);
        let before = count_oversized_llgs(&c, &start);
        let out = anneal(&c, &grid, start, &AnnealConfig::default());
        let after = count_oversized_llgs(&c, &out.placement);
        // The full-circuit count generally tracks the sampled objective.
        assert!(after <= before + 2, "{after} vs {before}");
    }
}
