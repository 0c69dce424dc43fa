//! The shared scheduling engine.
//!
//! Every scheduler in this crate — AutoBraid-sp, AutoBraid-full, the
//! greedy baseline, the Maslov swap network, and the event-driven engine
//! — drains the dependence DAG through the same engine and is charged by
//! the same gate-cost function ([`gate_cycles`]); they differ only in
//! routing policy, initial placement, the layout move (none, swap
//! insertion below `p`, or Maslov's transposition layers), and the
//! engine's clock. This makes every reported speedup a pure algorithm
//! comparison.

use crate::async_engine::Assignment;
use crate::config::{Recording, ScheduleConfig};
use crate::critical_path::gate_cycles;
use crate::maslov::SwapNetwork;
use crate::metrics::{LayerPolicy, ScheduleResult, Step};
use crate::strategy::Strategy;
use crate::swap::plan_swap_layer;
use autobraid_circuit::{Circuit, DependenceDag, Frontier, Gate, GateId};
use autobraid_lattice::{Grid, Occupancy};
use autobraid_placement::Placement;
use autobraid_router::pathfinder::route_negotiated;
use autobraid_router::stack_finder::{route_concurrent_with, route_greedy, RouteOutcome};
use autobraid_router::{BraidPath, CxRequest, InterferenceGraph};
use autobraid_telemetry as telemetry;
use std::borrow::Cow;
use std::time::Instant;

/// Errors the scheduling engine can report.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A ready two-qubit gate can never be routed: the defective channel
    /// vertices disconnect its operand tiles even on an otherwise empty
    /// grid.
    UnroutableGate {
        /// The stuck gate's id.
        gate: GateId,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::UnroutableGate { gate } => write!(
                f,
                "gate {gate} is permanently unroutable under the defective channel map"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// What a policy reports about one routed layer: the outcome plus
/// which finder actually handled it and why — the per-layer strategy
/// attribution recorded in [`ScheduleResult::layer_policies`] and
/// emitted as a `strategy.chosen` trace event.
#[derive(Debug, Clone)]
pub struct LayerRoute {
    /// The routing outcome, paths reserved in the engine's occupancy.
    pub outcome: RouteOutcome,
    /// Name of the finder that routed the layer (a fixed policy reports
    /// its own [`RoutePolicy::name`]; the portfolio reports its pick).
    pub chosen: &'static str,
    /// Short justification (`"fixed"` for single-finder policies;
    /// feature-based reasons like `"dense-interference"` from the
    /// portfolio chooser).
    pub reason: &'static str,
}

/// A routing-order policy for one concurrent batch of CX gates.
pub trait RoutePolicy {
    /// Policy name used in result labels.
    fn name(&self) -> &'static str;

    /// Routes the batch, reserving paths in `occupancy`.
    fn route(&self, grid: &Grid, occupancy: &mut Occupancy, requests: &[CxRequest])
        -> RouteOutcome;

    /// Routes one whole braiding layer — every concurrent request at
    /// once, so a policy can compute layer features before routing —
    /// reporting which finder handled it and why. The engine calls
    /// this; the default defers to [`route`](RoutePolicy::route) with a
    /// `"fixed"` attribution. Override to make per-layer decisions, like
    /// [`PortfolioPolicy`].
    fn route_layer(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> LayerRoute {
        LayerRoute {
            outcome: self.route(grid, occupancy, requests),
            chosen: self.name(),
            reason: "fixed",
        }
    }
}

/// The paper's stack-based path finder (Fig. 13): a serial
/// [`ParallelStackPolicy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StackPolicy;

impl RoutePolicy for StackPolicy {
    fn name(&self) -> &'static str {
        "stack"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        ParallelStackPolicy::new(1).route(grid, occupancy, requests)
    }
}

/// [`StackPolicy`] with a worker-thread budget: independent small LLGs
/// of each batch route concurrently
/// ([`autobraid_router::stack_finder::route_concurrent_with`]). The
/// routed outcome is bit-identical to [`StackPolicy`] for every thread
/// count — parallelism is a wall-clock optimization only (the
/// determinism contract of `docs/RUNTIME.md`).
#[derive(Debug, Clone, Copy)]
pub struct ParallelStackPolicy {
    /// Worker threads per routing pass (0 and 1 both mean serial).
    pub threads: usize,
}

impl ParallelStackPolicy {
    /// A policy routing each batch with up to `threads` workers.
    pub fn new(threads: usize) -> Self {
        ParallelStackPolicy { threads }
    }
}

impl RoutePolicy for ParallelStackPolicy {
    fn name(&self) -> &'static str {
        "stack"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        route_concurrent_with(grid, occupancy, requests, self.threads.max(1))
    }
}

/// The greedy shortest-distance-first policy of the baseline \[10\].
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyPolicy;

impl RoutePolicy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        route_greedy(grid, occupancy, requests)
    }
}

/// The negotiated-congestion PathFinder policy
/// ([`autobraid_router::pathfinder`]): route every gate of the layer
/// optimistically, then rip up and reroute under rising present +
/// history congestion costs until the paths are disjoint (or a stall
/// or the iteration cap forces a deterministic serial commit).
#[derive(Debug, Clone, Copy, Default)]
pub struct PathFinderPolicy;

impl RoutePolicy for PathFinderPolicy {
    fn name(&self) -> &'static str {
        "pathfinder"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        route_negotiated(grid, occupancy, requests).0
    }
}

/// Per-layer chooser between the stack finder and PathFinder.
///
/// Cheap layer features decide most layers outright:
///
/// * ≤ 3 gates — the stack finder's small-LLG stage is already optimal
///   (`"tiny-layer"`);
/// * sparse interference (density ≤ 0.25) with no oversized LLG — the
///   Theorem 1 regime the stack finder was built for
///   (`"sparse-interference"`);
/// * dense interference (density ≥ 0.6) — the peeling relaxation
///   degrades and negotiation shines (`"dense-interference"`).
///
/// In between the chooser is uncertain and *races* both finders on
/// clones of the layer's occupancy, keeping whichever routes more
/// gates (ties broken toward fewer total path vertices, then toward
/// the stack finder). Every input to the decision is deterministic, so
/// the per-layer picks — and therefore the schedule — are too.
#[derive(Debug, Clone, Copy)]
pub struct PortfolioPolicy {
    /// Worker threads handed to the stack finder (the PathFinder side
    /// is single-threaded by construction).
    pub threads: usize,
}

impl PortfolioPolicy {
    /// A portfolio over `threads` stack-finder workers.
    pub fn new(threads: usize) -> Self {
        PortfolioPolicy { threads }
    }

    /// Interference-graph edge density in `[0, 1]` (1 = every pair of
    /// gates interferes).
    fn interference_density(requests: &[CxRequest]) -> f64 {
        let n = requests.len();
        if n < 2 {
            return 0.0;
        }
        let graph = InterferenceGraph::build(requests);
        let edge_ends: usize = (0..n).map(|i| graph.degree(i)).sum();
        edge_ends as f64 / (n * (n - 1)) as f64
    }
}

impl RoutePolicy for PortfolioPolicy {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        self.route_layer(grid, occupancy, requests).outcome
    }

    fn route_layer(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> LayerRoute {
        let stack = |occ: &mut Occupancy| route_concurrent_with(grid, occ, requests, self.threads);
        let negotiate = |occ: &mut Occupancy| route_negotiated(grid, occ, requests).0;

        if requests.len() <= 3 {
            telemetry::fine_counter("scheduler.portfolio.stack_picks", 1);
            return LayerRoute {
                outcome: stack(occupancy),
                chosen: "stack",
                reason: "tiny-layer",
            };
        }
        let density = Self::interference_density(requests);
        telemetry::fine_observe("scheduler.portfolio.density", density);
        if density <= 0.25 {
            let oversized = autobraid_router::llg::decompose(requests)
                .iter()
                .any(|g| g.size() > 3);
            if !oversized {
                telemetry::fine_counter("scheduler.portfolio.stack_picks", 1);
                return LayerRoute {
                    outcome: stack(occupancy),
                    chosen: "stack",
                    reason: "sparse-interference",
                };
            }
        }
        if density >= 0.6 {
            telemetry::fine_counter("scheduler.portfolio.pathfinder_picks", 1);
            return LayerRoute {
                outcome: negotiate(occupancy),
                chosen: "pathfinder",
                reason: "dense-interference",
            };
        }

        // Uncertain band: race both finders on clones of the base
        // occupancy and keep the better step.
        telemetry::fine_counter("scheduler.portfolio.races", 1);
        let mut stack_occ = occupancy.clone();
        let stack_out = stack(&mut stack_occ);
        let mut nego_occ = occupancy.clone();
        let nego_out = negotiate(&mut nego_occ);
        let path_vertices = |o: &RouteOutcome| o.routed.iter().map(|r| r.path.len()).sum::<usize>();
        let pathfinder_wins = nego_out.routed.len() > stack_out.routed.len()
            || (nego_out.routed.len() == stack_out.routed.len()
                && path_vertices(&nego_out) < path_vertices(&stack_out));
        if pathfinder_wins {
            *occupancy = nego_occ;
            LayerRoute {
                outcome: nego_out,
                chosen: "pathfinder",
                reason: "race-pathfinder-won",
            }
        } else {
            *occupancy = stack_occ;
            LayerRoute {
                outcome: stack_out,
                chosen: "stack",
                reason: "race-stack-won",
            }
        }
    }
}

/// The [`RoutePolicy`] a strategy drives the braiding engine with on its
/// own, or `None` for the Maslov swap network: its adjacency policy makes
/// progress only together with the swap-network layout move and the
/// serpentine placement, so a stream degrades it to the stack finder.
/// [`crate::AutoBraid::schedule_with_dag`] and the streaming pipeline
/// both take their policy from here, as do sweeps like the conformance
/// oracle's defective-lattice pass over every
/// [`crate::strategy::StrategyInfo::supports_defects`] row.
pub fn policy_for(strategy: Strategy, threads: usize) -> Option<Box<dyn RoutePolicy>> {
    match strategy {
        Strategy::Full | Strategy::Stack => Some(Box::new(ParallelStackPolicy::new(threads))),
        Strategy::PathFinder => Some(Box::new(PathFinderPolicy)),
        Strategy::Portfolio => Some(Box::new(PortfolioPolicy::new(threads))),
        Strategy::Baseline => Some(Box::new(GreedyPolicy)),
        Strategy::Maslov => None,
    }
}

/// Runs the engine: drains `circuit` on `grid` starting from `placement`,
/// using `policy` for path search; when `allow_layout_optimizer` is set,
/// steps whose scheduled ratio falls below the configured `p` trigger
/// swap-insertion layout changes.
///
/// Returns the result and the final placement.
pub fn run(
    scheduler_name: &str,
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    policy: &dyn RoutePolicy,
    allow_layout_optimizer: bool,
    config: &ScheduleConfig,
) -> (ScheduleResult, Placement) {
    let dag = config.dag(circuit);
    run_with_dag(
        scheduler_name,
        circuit,
        grid,
        placement,
        policy,
        allow_layout_optimizer,
        config,
        &dag,
    )
}

/// [`run`] against a caller-supplied dependence DAG, so one DAG build can
/// be shared across several engine drives (and the verifier) of the same
/// circuit. `dag` must have been built from `circuit` consistently with
/// `config.commutation_aware`.
#[allow(clippy::too_many_arguments)]
pub fn run_with_dag(
    scheduler_name: &str,
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    policy: &dyn RoutePolicy,
    allow_layout_optimizer: bool,
    config: &ScheduleConfig,
    dag: &DependenceDag,
) -> (ScheduleResult, Placement) {
    run_below(
        scheduler_name,
        circuit,
        grid,
        placement,
        policy,
        LayoutMove::swap_insertion_if(allow_layout_optimizer),
        config,
        dag,
        u64::MAX,
    )
    .expect("an unbounded drain completes")
}

/// [`run_with_dag`] with any layout move, racing an incumbent of `bound`
/// cycles: `None` once the schedule reaches `bound`, so only a strictly
/// better schedule comes back.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_below(
    scheduler_name: &str,
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    policy: &dyn RoutePolicy,
    layout: LayoutMove,
    config: &ScheduleConfig,
    dag: &DependenceDag,
    bound: u64,
) -> Option<(ScheduleResult, Placement)> {
    let engine = Engine::new(
        scheduler_name,
        Cow::Borrowed(circuit),
        Frontier::new(dag),
        grid,
        placement,
        layout,
        config,
        Cow::Owned(Occupancy::new(grid)),
    )
    .drain(policy, bound)
    .expect("an empty base occupancy never makes a gate unroutable");
    (engine.result.total_cycles < bound).then_some((engine.result, engine.placement))
}

/// [`run`] on a lattice with *defective channels*: every vertex reserved
/// in `base` is permanently unavailable (broken measurement hardware, a
/// region reserved for magic-state distillation, …). Each braiding step
/// starts from a copy of `base` instead of an empty map.
///
/// # Errors
///
/// Returns [`ScheduleError::UnroutableGate`] when a ready gate cannot be
/// routed even alone on the defective lattice and the layout optimizer
/// cannot move its operands together — progress is impossible.
#[allow(clippy::too_many_arguments)]
pub fn run_with_base_occupancy(
    scheduler_name: &str,
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    policy: &dyn RoutePolicy,
    allow_layout_optimizer: bool,
    config: &ScheduleConfig,
    base: &Occupancy,
) -> Result<(ScheduleResult, Placement), ScheduleError> {
    let dag = config.dag(circuit);
    let engine = Engine::new(
        scheduler_name,
        Cow::Borrowed(circuit),
        Frontier::new(&dag),
        grid,
        placement,
        LayoutMove::swap_insertion_if(allow_layout_optimizer),
        config,
        Cow::Borrowed(base),
    )
    .drain(policy, u64::MAX)?;
    Ok((engine.result, engine.placement))
}

/// How the engine may change the layout instead of committing a routed
/// braiding layer: the paper's dynamic qubit placement (§3.3), in both
/// its forms.
pub(crate) enum LayoutMove {
    /// Never: every routed layer commits.
    None,
    /// Swap insertion below `p` (AutoBraid-full): when a layer routes
    /// less than [`ScheduleConfig::layout_threshold`] of its gates, spend
    /// a [`plan_swap_layer`] layer instead. Holds the swap layers in a
    /// row so far.
    SwapInsertion(usize),
    /// Maslov's swap network: a transposition layer whenever no ready CX
    /// routed.
    SwapNetwork(SwapNetwork),
}

impl LayoutMove {
    /// The move behind the public entry points' `allow_layout_optimizer`.
    pub(crate) fn swap_insertion_if(allow: bool) -> Self {
        if allow {
            LayoutMove::SwapInsertion(0)
        } else {
            LayoutMove::None
        }
    }
}

/// What [`Engine::route`] did with the ready gates.
pub(crate) enum Routing {
    /// Nothing is ready: every gate has completed.
    Drained,
    /// A local-only step executed this many gates (already committed).
    Local(usize),
    /// The layout move spent a swap layer (already committed).
    Swapped,
    /// A braiding layer is routed and waits for [`Engine::commit`].
    Braid(RoutedLayer),
}

/// A routed braiding layer, not yet committed: its paths are reserved in
/// the engine's scratch occupancy and its gates are still in the
/// frontier.
pub(crate) struct RoutedLayer {
    /// The layer's requests, in the order the policy saw them.
    pub(crate) requests: Vec<CxRequest>,
    /// The policy's routing outcome.
    pub(crate) outcome: RouteOutcome,
    /// Ready two-qubit gates the budget trim kept out of the layer.
    pub(crate) trimmed: usize,
    /// Ready local gates, executed alongside the braids.
    locals: Vec<GateId>,
    chosen: &'static str,
    reason: &'static str,
}

/// When engine time advances. Both clocks count `d`-cycle slots and
/// charge every gate [`gate_cycles`]; they decide only which ready gates
/// the next step takes, when a committed gate releases its successors,
/// and what is recorded.
pub(crate) enum Clock {
    /// The paper's engine: a step takes every ready gate in frontier
    /// order and lasts as long as its longest gate; successors are
    /// released when the step ends. Records [`Step`]s.
    LockStep,
    /// Event-driven: a step takes the ready gates released earliest, in
    /// release order; a gate releases its successors at its own finish
    /// slot, and a deferred braid retries one slot later. Records
    /// [`Assignment`]s.
    PerQubit(SlotClock),
}

/// The per-qubit clock's state.
pub(crate) struct SlotClock {
    /// The slot the current step starts in.
    now: u64,
    /// Per gate: its release slot (when its last predecessor finishes)
    /// and a sequence number ordering releases.
    release: Vec<(u64, u64)>,
    next_seq: u64,
    /// Indices into `assignments` of braids that may still hold their
    /// path.
    active: Vec<usize>,
    pub(crate) assignments: Vec<Assignment>,
}

impl SlotClock {
    /// Every root is released at slot 0, in id order.
    pub(crate) fn new(gates: usize) -> Self {
        SlotClock {
            now: 0,
            release: (0..gates as u64).map(|g| (0, g)).collect(),
            next_seq: gates as u64,
            active: Vec::new(),
            assignments: Vec::with_capacity(gates),
        }
    }

    /// The ready gates released earliest, in release order; moves `now`
    /// to their release slot.
    fn next_batch(&mut self, ready: &[GateId]) -> Vec<GateId> {
        let release = &self.release;
        let mut batch = ready.to_vec();
        batch.sort_unstable_by_key(|&g| release[g]);
        self.now = release[batch[0]].0;
        batch.retain(|&g| release[g].0 == self.now);
        batch
    }

    /// Releases `g` no earlier than `slot`, after every release so far.
    fn release_at(&mut self, g: GateId, slot: u64) {
        let release = &mut self.release[g];
        *release = (release.0.max(slot), self.next_seq);
        self.next_seq += 1;
    }

    /// Reserves in `occupancy` the path of every braid still running at
    /// `now`, forgetting those that have finished.
    fn reserve_active(&mut self, grid: &Grid, occupancy: &mut Occupancy) {
        let (now, assignments) = (self.now, &self.assignments);
        self.active
            .retain(|&i| assignments[i].start_slot + assignments[i].slots > now);
        for &i in &self.active {
            let path = assignments[i].path.iter().flat_map(BraidPath::vertices);
            occupancy.try_reserve(grid, path.copied());
        }
    }
}

/// The braiding engine: AutoBraid's scheduling loop (paper §3, Fig. 13)
/// as a stepper. Each step takes ready gates off the dependence frontier
/// (which ones is the [`Clock`]'s call) and either executes a local-only
/// step, or routes the ready CX layer and then commits it or spends a
/// swap layer instead.
///
/// Batch compiles ([`run`] and friends, [`crate::maslov`]) drain it
/// over a whole circuit. A stream ([`crate::streaming`]) starts it
/// empty, appends gates between steps, and checks each routed layer
/// before committing it. The event-driven engine
/// ([`crate::async_engine`]) drains it on the per-qubit clock.
pub(crate) struct Engine<'a> {
    /// The gates scheduled so far; a stream appends to it.
    pub(crate) circuit: Cow<'a, Circuit>,
    pub(crate) grid: Grid,
    /// Defective channel vertices; every layer routes on a copy.
    pub(crate) base: Cow<'a, Occupancy>,
    pub(crate) placement: Placement,
    pub(crate) result: ScheduleResult,
    frontier: Frontier<'a>,
    config: ScheduleConfig,
    layout: LayoutMove,
    record: bool,
    /// Lock-step unless the entry point sets another clock.
    pub(crate) clock: Clock,
    /// Per-layer scratch occupancy.
    occupancy: Occupancy,
    /// Remaining critical-path weight of each gate (itself included), in
    /// engine cycles: the routing priority, so congestion defers
    /// slack-rich gates instead of dependence-critical ones. Rebuilt
    /// whenever gates have been appended since the last build.
    remaining_cp: Vec<u64>,
    utilization_sum: f64,
    /// Committed braiding layers: the utilization samples.
    layers: u64,
    step_index: u64,
    started: Instant,
}

impl<'a> Engine<'a> {
    /// An engine about to drain `frontier` (over `circuit`'s DAG) from
    /// `placement`, every layer routing on a copy of `base`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        scheduler_name: &str,
        circuit: Cow<'a, Circuit>,
        frontier: Frontier<'a>,
        grid: &Grid,
        placement: Placement,
        layout: LayoutMove,
        config: &ScheduleConfig,
        base: Cow<'a, Occupancy>,
    ) -> Self {
        Engine {
            result: ScheduleResult::new(scheduler_name, circuit.name(), config.timing),
            circuit,
            grid: grid.clone(),
            occupancy: Occupancy::new(grid),
            base,
            placement,
            frontier,
            config: config.clone(),
            layout,
            record: config.recording == Recording::Full,
            clock: Clock::LockStep,
            remaining_cp: Vec::new(),
            utilization_sum: 0.0,
            layers: 0,
            step_index: 0,
            started: Instant::now(),
        }
    }

    /// Appends `gate` to the circuit and the frontier, returning its id.
    pub(crate) fn push(&mut self, gate: Gate) -> GateId {
        self.circuit.to_mut().push(gate);
        self.frontier.push(&gate)
    }

    /// Gates not yet executed.
    pub(crate) fn outstanding(&self) -> usize {
        self.frontier.outstanding()
    }

    /// Steps taken so far (local, braid and swap layers).
    pub(crate) fn steps_taken(&self) -> u64 {
        self.step_index
    }

    /// Drains the frontier, committing every routed layer, until the
    /// schedule reaches `bound` cycles: cycles only grow as steps commit,
    /// so a candidate racing an incumbent of `bound` cycles stops as soon
    /// as it can no longer beat it.
    pub(crate) fn drain(
        mut self,
        policy: &dyn RoutePolicy,
        bound: u64,
    ) -> Result<Self, ScheduleError> {
        let _span = telemetry::span("engine");
        if telemetry::decisions_enabled() {
            telemetry::decision(&telemetry::Decision::EngineBegin {
                scheduler: self.result.scheduler.clone(),
                circuit: self.circuit.name().to_string(),
                grid_side: self.grid.cells_per_side(),
            });
        }
        while self.result.total_cycles < bound {
            match self.route(policy, false)? {
                Routing::Drained => break,
                Routing::Braid(layer) => self.commit(layer),
                Routing::Local(_) | Routing::Swapped => {}
            }
        }
        self.finish();
        Ok(self)
    }

    /// Closes the result: mean utilization over committed braiding
    /// layers and the wall-clock compile time.
    pub(crate) fn finish(&mut self) {
        if self.layers > 0 {
            self.result.mean_utilization = self.utilization_sum / self.layers as f64;
        }
        self.result.compile_seconds = self.started.elapsed().as_secs_f64();
    }

    /// Takes the next step up to its commit. Local-only steps and swap
    /// layers commit at once; a braiding layer is routed with `policy`
    /// and handed back for [`commit`](Self::commit). With
    /// `trim_to_critical_half`, only the most critical half of the ready
    /// CX gates is offered to the router (ties broken by gate id).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnroutableGate`] when not one gate of the layer
    /// routes and the layout move cannot help.
    pub(crate) fn route(
        &mut self,
        policy: &dyn RoutePolicy,
        trim_to_critical_half: bool,
    ) -> Result<Routing, ScheduleError> {
        if self.frontier.is_drained() {
            return Ok(Routing::Drained);
        }
        let is_braid = |&g: &GateId| self.circuit.gate(g).is_two_qubit();
        let (mut braids, mut locals): (Vec<GateId>, Vec<GateId>) = match &mut self.clock {
            Clock::LockStep => self.frontier.ready().iter().partition(|g| is_braid(g)),
            Clock::PerQubit(clock) => clock
                .next_batch(self.frontier.ready())
                .into_iter()
                .partition(is_braid),
        };
        if telemetry::fine_decisions_enabled() {
            telemetry::decision(&telemetry::Decision::StepBegin {
                step: self.step_index,
                braids: braids.len(),
                locals: locals.len(),
            });
        }
        self.step_index += 1;

        if matches!(self.clock, Clock::PerQubit(_)) {
            // Local gates start at once, ahead of their batch's braids.
            let executed = locals.len();
            for g in std::mem::take(&mut locals) {
                self.start(g, None);
            }
            if braids.is_empty() {
                return Ok(Routing::Local(executed));
            }
        } else if braids.is_empty() {
            debug_assert!(!locals.is_empty(), "frontier non-empty but nothing ready");
            for &g in &locals {
                self.frontier.complete(g);
            }
            self.result.local_steps += 1;
            telemetry::fine_counter("scheduler.steps.local", 1);
            self.result.total_cycles += self.config.timing.local_step_cycles();
            let executed = locals.len();
            if self.record {
                self.result.steps.push(Step::Local { gates: locals });
            }
            return Ok(Routing::Local(executed));
        }

        self.refresh_critical_path();
        let remaining_cp = &self.remaining_cp;
        let mut trimmed = 0;
        if trim_to_critical_half && braids.len() > 1 {
            braids.sort_by_key(|&g| (std::cmp::Reverse(remaining_cp[g]), g));
            let keep = braids.len().div_ceil(2);
            trimmed = braids.len() - keep;
            braids.truncate(keep);
            telemetry::fine_counter("streaming.budget.trimmed_gates", trimmed as u64);
        }
        let requests: Vec<CxRequest> = braids
            .iter()
            .map(|&g| {
                let (a, b) = self
                    .circuit
                    .gate(g)
                    .pair()
                    .expect("braid gates are two-qubit");
                CxRequest::new(g, self.placement.cell_of(a), self.placement.cell_of(b))
                    .with_priority(remaining_cp[g] as i64)
            })
            .collect();

        self.occupancy.clone_from(&self.base);
        if let Clock::PerQubit(clock) = &mut self.clock {
            clock.reserve_active(&self.grid, &mut self.occupancy);
        }
        let LayerRoute {
            outcome,
            chosen,
            reason,
        } = policy.route_layer(&self.grid, &mut self.occupancy, &requests);
        if telemetry::fine_metrics_enabled() {
            telemetry::counter("scheduler.gates.routed", outcome.routed.len() as u64);
            telemetry::counter("scheduler.gates.deferred", outcome.failed.len() as u64);
            telemetry::observe("scheduler.step.batch_size", requests.len() as f64);
            telemetry::observe("scheduler.step.ratio", outcome.ratio());
        }

        if self.spend_swap_layer(&requests, &outcome) {
            return Ok(Routing::Swapped);
        }

        let in_flight = matches!(&self.clock, Clock::PerQubit(c) if !c.active.is_empty());
        if outcome.routed.is_empty() && !in_flight {
            // On a defect-free lattice with no braid in flight at least
            // one gate always routes; a defective channel map can
            // disconnect operand tiles for good.
            return Err(ScheduleError::UnroutableGate {
                gate: requests.first().map(|r| r.id).unwrap_or_default(),
            });
        }
        Ok(Routing::Braid(RoutedLayer {
            requests,
            outcome,
            trimmed,
            locals,
            chosen,
            reason,
        }))
    }

    /// Dynamic qubit placement: spends a swap layer instead of committing
    /// the routed layer when the layout move asks for one, and reports
    /// whether it did.
    fn spend_swap_layer(&mut self, requests: &[CxRequest], outcome: &RouteOutcome) -> bool {
        let swaps = match &mut self.layout {
            LayoutMove::None => return false,
            LayoutMove::SwapInsertion(rounds) => {
                // At most 64 swap pairs per layer, and two swap layers in
                // a row before a routed layer must commit (guards against
                // oscillation).
                const MAX_SWAPS: usize = 64;
                const MAX_ROUNDS: usize = 2;
                let swaps = if outcome.ratio() < self.config.layout_threshold
                    && *rounds < MAX_ROUNDS
                {
                    plan_swap_layer(&self.grid, &self.placement, requests, MAX_SWAPS, &self.base)
                } else {
                    Vec::new()
                };
                *rounds = if swaps.is_empty() { 0 } else { *rounds + 1 };
                swaps
            }
            LayoutMove::SwapNetwork(network) if outcome.routed.is_empty() => {
                network.transpose(&self.grid, &self.placement, requests)
            }
            LayoutMove::SwapNetwork(_) => return false,
        };
        if swaps.is_empty() {
            return false;
        }
        for (a, b) in swaps.iter().map(|swap| (swap.a, swap.b)) {
            self.placement.swap_qubits(a, b);
            if telemetry::fine_decisions_enabled() {
                telemetry::decision(&telemetry::Decision::SwapInserted { a, b });
            }
        }
        self.result.swap_layers += 1;
        self.result.swap_count += swaps.len() as u64;
        telemetry::fine_counter("scheduler.steps.swap", 1);
        telemetry::fine_counter("scheduler.swaps.inserted", swaps.len() as u64);
        self.result.total_cycles += 3 * self.config.timing.braid_step_cycles();
        if self.record {
            self.result.steps.push(Step::SwapLayer { swaps });
        }
        true
    }

    /// Commits a layer [`route`](Self::route) just returned. On the
    /// lock-step clock its routed gates and the ready local gates execute
    /// as one braiding step, as long as its longest gate; on the
    /// per-qubit clock each routed braid starts now and each failed one
    /// retries next slot.
    pub(crate) fn commit(&mut self, layer: RoutedLayer) {
        let step = self.step_index - 1;
        let utilization = self.occupancy.utilization();
        self.result.peak_utilization = self.result.peak_utilization.max(utilization);
        self.utilization_sum += utilization;
        self.layers += 1;
        // Strategy attribution describes *committed* layers only — a
        // routing pass discarded in favour of a swap layer never shows
        // up here or in the trace.
        if telemetry::fine_decisions_enabled() {
            telemetry::decision(&telemetry::Decision::StrategyChosen {
                step,
                policy: layer.chosen.to_string(),
                reason: layer.reason.to_string(),
            });
        }
        if let Clock::PerQubit(clock) = &mut self.clock {
            // Congested braids retry next slot; the routed ones finish
            // later, so the order of the two releases never matters.
            for &g in &layer.outcome.failed {
                clock.release_at(g, clock.now + 1);
            }
            for routed in layer.outcome.routed {
                self.start(routed.request.id, Some(routed.path));
            }
            return;
        }

        let mut cycles = 0;
        for routed in &layer.outcome.routed {
            self.frontier.complete(routed.request.id);
            let gate = self.circuit.gate(routed.request.id);
            cycles = cycles.max(gate_cycles(gate, &self.config.timing));
        }
        for &g in &layer.locals {
            self.frontier.complete(g);
        }
        self.result.braid_steps += 1;
        telemetry::fine_counter("scheduler.steps.braid", 1);
        self.result.total_cycles += cycles;
        if self.record {
            self.result.layer_policies.push(LayerPolicy {
                step,
                policy: layer.chosen.to_string(),
                reason: layer.reason.to_string(),
            });
            self.result.steps.push(Step::Braid {
                braids: layer
                    .outcome
                    .routed
                    .into_iter()
                    .map(|r| (r.request.id, r.path))
                    .collect(),
                locals: layer.locals,
            });
        }
    }

    /// Per-qubit clock: runs `g` from the current slot on `path` (`None`
    /// for a local gate) and releases its successors at its finish slot.
    fn start(&mut self, g: GateId, path: Option<BraidPath>) {
        let Clock::PerQubit(clock) = &mut self.clock else {
            unreachable!("only the per-qubit clock starts gates one by one")
        };
        let slot_cycles = self.config.timing.local_step_cycles();
        let slots = gate_cycles(self.circuit.gate(g), &self.config.timing) / slot_cycles;
        let finish = clock.now + slots;
        for &s in self.frontier.dag().successors(g) {
            clock.release_at(s, finish);
        }
        self.frontier.complete(g);
        if path.is_some() {
            clock.active.push(clock.assignments.len());
            self.result.braid_steps += 1;
        } else {
            self.result.local_steps += 1;
        }
        clock.assignments.push(Assignment {
            gate: g,
            start_slot: clock.now,
            slots,
            path,
        });
        self.result.total_cycles = self.result.total_cycles.max(finish * slot_cycles);
    }

    /// Rebuilds [`Self::remaining_cp`] if gates were appended since the
    /// last build. Gate ids are topologically ordered, so one reverse
    /// sweep suffices; appends only ever add successors, so a stream
    /// pays one sweep per push batch, not one per step.
    fn refresh_critical_path(&mut self) {
        let dag = self.frontier.dag();
        if self.remaining_cp.len() == dag.len() {
            return;
        }
        self.remaining_cp.clear();
        self.remaining_cp.resize(dag.len(), 0);
        for g in (0..dag.len()).rev() {
            let tail = dag
                .successors(g)
                .iter()
                .map(|&s| self.remaining_cp[s])
                .max()
                .unwrap_or(0);
            self.remaining_cp[g] = tail + gate_cycles(self.circuit.gate(g), &self.config.timing);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_schedule;
    use autobraid_circuit::generators::{bv::bv_all_ones, ising::ising, qft::qft};

    fn schedule(circuit: &Circuit, policy: &dyn RoutePolicy, layout: bool) -> ScheduleResult {
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let placement = Placement::row_major(&grid, circuit.num_qubits());
        let config = ScheduleConfig::default();
        let (result, _) = run(
            "test",
            circuit,
            &grid,
            placement.clone(),
            policy,
            layout,
            &config,
        );
        verify_schedule(circuit, &grid, &placement, &result).expect("schedule verifies");
        result
    }

    #[test]
    fn drains_bv_at_critical_path() {
        let c = bv_all_ones(20).unwrap();
        let r = schedule(&c, &StackPolicy, false);
        let cp = crate::critical_path::critical_path_cycles(&c, r.timing());
        assert_eq!(
            r.total_cycles, cp,
            "BV has no congestion: engine must hit CP"
        );
    }

    #[test]
    fn drains_qft_correctly_with_both_policies() {
        let c = qft(12).unwrap();
        let stack = schedule(&c, &StackPolicy, false);
        let greedy = schedule(&c, &GreedyPolicy, false);
        let cp = crate::critical_path::critical_path_cycles(&c, stack.timing());
        assert!(stack.total_cycles >= cp);
        assert!(greedy.total_cycles >= cp);
    }

    #[test]
    fn ising_parallel_layers_get_packed() {
        let c = ising(16, 1).unwrap();
        let r = schedule(&c, &StackPolicy, false);
        // 16-qubit Ising on a 4×4 row-major grid: coupled pairs are near
        // each other, braids pack densely; the step count must be far
        // below the serial count of 30 CXs.
        assert!(r.braid_steps <= 12, "got {} braid steps", r.braid_steps);
    }

    #[test]
    fn layout_optimizer_does_not_break_verification() {
        let c = qft(16).unwrap();
        let r = schedule(&c, &StackPolicy, true);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn stats_only_recording_skips_steps() {
        let c = qft(8).unwrap();
        let grid = Grid::with_capacity_for(8);
        let placement = Placement::row_major(&grid, 8);
        let config = ScheduleConfig::default().with_recording(Recording::StatsOnly);
        let (r, _) = run("t", &c, &grid, placement, &StackPolicy, false, &config);
        assert!(r.steps.is_empty());
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn commutation_aware_mode_schedules_faster_or_equal() {
        use crate::metrics::verify_schedule_with_dag;
        let c = bv_all_ones(24).unwrap();
        let grid = Grid::with_capacity_for(24);
        let placement = Placement::row_major(&grid, 24);
        let plain_cfg = ScheduleConfig::default();
        let relaxed_cfg = ScheduleConfig::default().with_commutation_aware(true);
        let (plain, _) = run(
            "t",
            &c,
            &grid,
            placement.clone(),
            &StackPolicy,
            false,
            &plain_cfg,
        );
        let (relaxed, _) = run(
            "t",
            &c,
            &grid,
            placement.clone(),
            &StackPolicy,
            false,
            &relaxed_cfg,
        );
        // BV's CX fan-in fully commutes: massive win.
        assert!(relaxed.total_cycles * 2 < plain.total_cycles);
        let dag = autobraid_circuit::DependenceDag::with_commutation(&c);
        verify_schedule_with_dag(&c, &dag, &grid, &placement, &relaxed).unwrap();
        let cp = crate::critical_path::critical_path_cycles_relaxed(&c, relaxed.timing());
        assert!(relaxed.total_cycles >= cp);
    }

    #[test]
    fn utilization_is_within_bounds() {
        let c = ising(25, 2).unwrap();
        let r = schedule(&c, &StackPolicy, false);
        assert!(r.peak_utilization > 0.0 && r.peak_utilization <= 1.0);
        assert!(r.mean_utilization > 0.0 && r.mean_utilization <= r.peak_utilization + 1e-12);
    }
}
