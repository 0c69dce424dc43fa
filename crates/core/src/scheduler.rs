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
use autobraid_router::stack_finder::{route_concurrent, route_greedy, RouteOutcome};
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

/// The paper's stack-based path finder (Fig. 13):
/// [`autobraid_router::stack_finder::route_concurrent`].
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
        route_concurrent(grid, occupancy, requests)
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
#[derive(Debug, Clone, Copy, Default)]
pub struct PortfolioPolicy;

impl PortfolioPolicy {
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
        let stack = |occ: &mut Occupancy| route_concurrent(grid, occ, requests);
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
pub fn route_policy(strategy: Strategy) -> Option<Box<dyn RoutePolicy>> {
    match strategy {
        Strategy::Full | Strategy::Stack => Some(Box::new(StackPolicy)),
        Strategy::PathFinder => Some(Box::new(PathFinderPolicy)),
        Strategy::Portfolio => Some(Box::new(PortfolioPolicy)),
        Strategy::Baseline => Some(Box::new(GreedyPolicy)),
        Strategy::Maslov => None,
    }
}

pub use shims::{policy_for, ParallelStackPolicy};

/// Thread-count shims with the signatures that perfbench's traced
/// compile and stream checks call (`perfbench/src/compile.rs` and
/// `perfbench/src/stream.rs`). Every compile and every stream is serial,
/// so each one forwards and ignores its count, as does the third,
/// `autobraid_placement::anneal_portfolio`. All three go once perfbench
/// reads the program's own phase spans instead of re-running the
/// compile stages (ROADMAP.md, item 2).
pub mod shims {
    use super::{route_policy, RoutePolicy, StackPolicy};
    use crate::strategy::Strategy;

    /// [`StackPolicy`] under its old name.
    pub type ParallelStackPolicy = StackPolicy;

    impl StackPolicy {
        /// [`StackPolicy`]; the thread count is ignored.
        pub fn new(_threads: usize) -> Self {
            StackPolicy
        }
    }

    /// [`route_policy`]; the thread count is ignored.
    pub fn policy_for(strategy: Strategy, _threads: usize) -> Option<Box<dyn RoutePolicy>> {
        route_policy(strategy)
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
/// cycles: `None` once the schedule provably cannot finish below `bound`
/// ([`Engine::cycles_lower_bound`]), so only a strictly better schedule
/// comes back.
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
    (engine.outstanding() == 0 && engine.result.total_cycles < bound)
        .then_some((engine.result, engine.placement))
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
    /// The layer's requests, reused from step to step: lent to each
    /// [`RoutedLayer`] and returned by [`commit`](Self::commit).
    request_buf: Vec<CxRequest>,
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
            request_buf: Vec::new(),
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

    /// Drains the frontier, committing every routed layer, until it is
    /// drained or [`cycles_lower_bound`](Self::cycles_lower_bound)
    /// reaches `bound`: a candidate racing an incumbent of `bound` cycles
    /// stops as soon as it provably cannot beat it. A stopped drain
    /// leaves gates outstanding.
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
        // An unbounded drain skips the bound: no total can reach it.
        while bound == u64::MAX || self.cycles_lower_bound() < bound {
            match self.route(policy, false)? {
                Routing::Drained => break,
                Routing::Braid(layer) => self.commit(layer),
                Routing::Local(_) | Routing::Swapped => {}
            }
        }
        self.finish();
        Ok(self)
    }

    /// A lower bound `B` on the cycles of the finished schedule: on the
    /// lock-step clock, the cycles so far plus the largest remaining
    /// critical path among ready gates; on the per-qubit clock, the
    /// cycles so far. Every gate of that critical chain runs in a later
    /// step than its predecessor, and a step lasts at least the
    /// [`gate_cycles`] of each gate in it (a local step `d`, a braid
    /// step `2d` or more, a swap layer adds cycles and runs no gate), so
    /// the final total is at least `B`. `B` starts at the DAG's critical
    /// path, never falls, and ends at `total_cycles`.
    pub(crate) fn cycles_lower_bound(&mut self) -> u64 {
        let cycles = self.result.total_cycles;
        if !matches!(self.clock, Clock::LockStep) {
            return cycles;
        }
        self.refresh_critical_path();
        let remaining_cp = &self.remaining_cp;
        let tail = self.frontier.ready().iter().map(|&g| remaining_cp[g]).max();
        cycles + tail.unwrap_or(0)
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
        // The ready braids become the layer's requests at once; they get
        // their priorities once the step turns out to braid.
        let mut requests = std::mem::take(&mut self.request_buf);
        requests.clear();
        let mut locals = Vec::new();
        let (circuit, placement) = (&self.circuit, &self.placement);
        let mut sort = |g: GateId| match circuit.gate(g).pair() {
            Some((a, b)) => requests.push(CxRequest::new(
                g,
                placement.cell_of(a),
                placement.cell_of(b),
            )),
            None => locals.push(g),
        };
        match &mut self.clock {
            Clock::LockStep => self.frontier.ready().iter().for_each(|&g| sort(g)),
            Clock::PerQubit(clock) => clock
                .next_batch(self.frontier.ready())
                .into_iter()
                .for_each(sort),
        }
        if telemetry::fine_decisions_enabled() {
            telemetry::decision(&telemetry::Decision::StepBegin {
                step: self.step_index,
                braids: requests.len(),
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
            if requests.is_empty() {
                self.request_buf = requests;
                return Ok(Routing::Local(executed));
            }
        } else if requests.is_empty() {
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
            self.request_buf = requests;
            return Ok(Routing::Local(executed));
        }

        self.refresh_critical_path();
        for r in &mut requests {
            r.priority = self.remaining_cp[r.id] as i64;
        }
        let mut trimmed = 0;
        if trim_to_critical_half && requests.len() > 1 {
            requests.sort_unstable_by_key(|r| (std::cmp::Reverse(r.priority), r.id));
            let keep = requests.len().div_ceil(2);
            trimmed = requests.len() - keep;
            requests.truncate(keep);
            telemetry::fine_counter("streaming.budget.trimmed_gates", trimmed as u64);
        }

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
            self.request_buf = requests;
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
        let RoutedLayer {
            requests,
            outcome,
            locals,
            chosen,
            reason,
            ..
        } = layer;
        self.request_buf = requests;
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
                policy: chosen.to_string(),
                reason: reason.to_string(),
            });
        }
        if let Clock::PerQubit(clock) = &mut self.clock {
            // Congested braids retry next slot; the routed ones finish
            // later, so the order of the two releases never matters.
            for &g in &outcome.failed {
                clock.release_at(g, clock.now + 1);
            }
            for routed in outcome.routed {
                self.start(routed.request.id, Some(routed.path));
            }
            return;
        }

        let mut cycles = 0;
        for routed in &outcome.routed {
            self.frontier.complete(routed.request.id);
            let gate = self.circuit.gate(routed.request.id);
            cycles = cycles.max(gate_cycles(gate, &self.config.timing));
        }
        for &g in &locals {
            self.frontier.complete(g);
        }
        self.result.braid_steps += 1;
        telemetry::fine_counter("scheduler.steps.braid", 1);
        self.result.total_cycles += cycles;
        if self.record {
            self.result.layer_policies.push(LayerPolicy {
                step,
                policy: chosen,
                reason,
            });
            self.result.steps.push(Step::Braid {
                braids: outcome
                    .routed
                    .into_iter()
                    .map(|r| (r.request.id, r.path))
                    .collect(),
                locals,
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
    /// pays one sweep per push batch, not one per step. The sweep stops
    /// at the smallest ready id: an outstanding gate that is not ready
    /// has an outstanding predecessor with a smaller id, so every
    /// outstanding gate and all of its successors lie at or above it,
    /// and only ready gates' entries are ever read. The entries below
    /// are stale.
    fn refresh_critical_path(&mut self) {
        let dag = self.frontier.dag();
        if self.remaining_cp.len() == dag.len() {
            return;
        }
        let lowest = self.frontier.ready().iter().min().map_or(dag.len(), |&g| g);
        self.remaining_cp.resize(dag.len(), 0);
        for g in (lowest..dag.len()).rev() {
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
    use autobraid_router::stack_finder::route_greedy;

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

    /// The golden corpus (`tests/corpus`) and the five duel families,
    /// each as written and optimized.
    fn race_inputs() -> Vec<Circuit> {
        use autobraid_circuit::generators::random;
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("tests/corpus exists")
            .map(|entry| entry.expect("readable corpus dir").path())
            .filter(|path| path.extension().is_some_and(|e| e == "qasm"))
            .collect();
        files.sort();
        let mut circuits: Vec<Circuit> = files
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path).expect("readable corpus file");
                autobraid_circuit::qasm::parse(&text).expect("corpus files parse")
            })
            .collect();
        circuits.extend([
            random::layered_cx(16, 6, 0.3, 7).unwrap(),
            random::all_to_all_burst(16, 5, 6, 7).unwrap(),
            random::neighbor_chain(16, 6, 7).unwrap(),
            qft(16).unwrap(),
            ising(16, 2).unwrap(),
        ]);
        let optimized: Vec<Circuit> = circuits
            .iter()
            .map(|c| autobraid_circuit::transform::optimize(c, 1e-12).0)
            .collect();
        circuits.extend(optimized);
        circuits
    }

    /// Every engine drive `strategy` races on `circuit`: its grid, start
    /// placement, policy and layout move.
    fn candidates(
        strategy: Strategy,
        circuit: &Circuit,
        config: &ScheduleConfig,
    ) -> Vec<(Grid, Placement, Box<dyn RoutePolicy>, LayoutMove)> {
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let annealed = || crate::AutoBraid::new(config.clone()).initial_placement(circuit, &grid);
        let policy = || route_policy(strategy).expect("an engine strategy");
        match strategy {
            Strategy::Full => vec![
                (
                    grid.clone(),
                    annealed(),
                    policy(),
                    LayoutMove::SwapInsertion(0),
                ),
                (grid.clone(), annealed(), policy(), LayoutMove::None),
            ],
            Strategy::Stack | Strategy::PathFinder | Strategy::Portfolio => {
                vec![(grid.clone(), annealed(), policy(), LayoutMove::None)]
            }
            Strategy::Baseline => {
                let seed = autobraid_placement::initial::partition_placement(circuit, &grid);
                vec![(grid, seed, policy(), LayoutMove::None)]
            }
            Strategy::Maslov => {
                let (start, layout) =
                    crate::maslov::swap_network_start(&grid, circuit.num_qubits());
                vec![(grid, start, Box::new(crate::maslov::AdjacentPolicy), layout)]
            }
        }
    }

    /// Drains `engine` step by step: the race bound `B` before the first
    /// step and after each one, and the result.
    fn bound_trace(mut engine: Engine<'_>, policy: &dyn RoutePolicy) -> (Vec<u64>, ScheduleResult) {
        let mut trace = vec![engine.cycles_lower_bound()];
        loop {
            match engine
                .route(policy, false)
                .expect("an empty lattice routes")
            {
                Routing::Drained => break,
                Routing::Braid(layer) => engine.commit(layer),
                Routing::Local(_) | Routing::Swapped => {}
            }
            trace.push(engine.cycles_lower_bound());
        }
        (trace, engine.result)
    }

    #[test]
    fn the_race_bound_starts_at_cp_never_falls_and_ends_at_the_total() {
        let (mut drives, mut swap_layers) = (0, 0);
        // The default `p`, and a high one that makes swap insertion fire.
        for p in [0.5, 0.9] {
            let config = ScheduleConfig::default().with_layout_threshold(p);
            for circuit in race_inputs() {
                let dag = config.dag(&circuit);
                let cp = dag.critical_path_weight(&circuit, |g| gate_cycles(g, &config.timing));
                for strategy in Strategy::ALL {
                    for (grid, placement, policy, layout) in candidates(strategy, &circuit, &config)
                    {
                        let engine = Engine::new(
                            "t",
                            Cow::Borrowed(&circuit),
                            Frontier::new(&dag),
                            &grid,
                            placement,
                            layout,
                            &config,
                            Cow::Owned(Occupancy::new(&grid)),
                        );
                        let (trace, result) = bound_trace(engine, policy.as_ref());
                        let name = format!("{} {} p={p}", circuit.name(), strategy.name());
                        assert_eq!(trace[0], cp, "{name}: B starts at the critical path");
                        assert!(
                            trace.windows(2).all(|w| w[0] <= w[1]),
                            "{name}: B fell: {trace:?}"
                        );
                        let total = result.total_cycles;
                        assert_eq!(trace.last(), Some(&total), "{name}: B ends at the total");
                        drives += 1;
                        swap_layers += result.swap_layers;
                    }
                }
            }
        }
        assert!(drives > 200, "only {drives} drives");
        assert!(swap_layers > 0, "no drive inserted a swap layer");
    }

    /// A result with its wall-clock field zeroed, for comparison.
    fn timeless(mut result: ScheduleResult) -> ScheduleResult {
        result.compile_seconds = 0.0;
        result
    }

    #[test]
    fn a_bounded_drain_returns_the_unbounded_result_only_below_the_bound() {
        // A high `p` makes swap insertion fire on the 16-qubit inputs.
        let config = ScheduleConfig::default().with_layout_threshold(0.9);
        let (mut swap_layers, mut network_swaps) = (0, 0);
        for circuit in race_inputs() {
            let dag = config.dag(&circuit);
            let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
            let annealed = crate::AutoBraid::new(config.clone()).initial_placement(&circuit, &grid);
            let row_major = Placement::row_major(&grid, circuit.num_qubits());
            for placement in [annealed, row_major] {
                let drive = |bound| {
                    let layout = LayoutMove::SwapInsertion(0);
                    run_below(
                        "t",
                        &circuit,
                        &grid,
                        placement.clone(),
                        &StackPolicy,
                        layout,
                        &config,
                        &dag,
                        bound,
                    )
                };
                let (full, at) = drive(u64::MAX).expect("an unbounded drain completes");
                swap_layers += full.swap_layers;
                let (again, again_at) = drive(full.total_cycles + 1).expect("it finishes below");
                assert_eq!(
                    timeless(again),
                    timeless(full.clone()),
                    "{}",
                    circuit.name()
                );
                assert_eq!(again_at, at);
                assert!(drive(full.total_cycles).is_none(), "{}", circuit.name());
            }

            let maslov =
                |bound| crate::maslov::schedule_maslov_below(&circuit, &config, &dag, bound);
            let (network, start) = maslov(u64::MAX).expect("an unbounded drain completes");
            network_swaps += network.swap_layers;
            let (again, again_start) = maslov(network.total_cycles + 1).expect("it finishes below");
            assert_eq!(
                timeless(again),
                timeless(network.clone()),
                "{}",
                circuit.name()
            );
            assert_eq!(again_start, start);
            assert!(maslov(network.total_cycles).is_none(), "{}", circuit.name());
        }
        assert!(swap_layers > 0, "some input inserts swaps");
        assert!(network_swaps > 0, "some input advances the swap network");
    }

    /// The stack policy, checking every layer it leaves incomplete
    /// against the whole greedy order from the same occupancy: the
    /// greedy fallback, stopped once it cannot win, must still pick the
    /// greedy order whenever it routes more.
    struct CheckedStack {
        incomplete: std::cell::Cell<usize>,
    }

    impl RoutePolicy for CheckedStack {
        fn name(&self) -> &'static str {
            "stack"
        }

        fn route(
            &self,
            grid: &Grid,
            occupancy: &mut Occupancy,
            requests: &[CxRequest],
        ) -> RouteOutcome {
            let greedy = route_greedy(grid, &mut occupancy.clone(), requests);
            let outcome = route_concurrent(grid, occupancy, requests);
            if !outcome.is_complete() {
                self.incomplete.set(self.incomplete.get() + 1);
                assert!(outcome.routed.len() >= greedy.routed.len());
            }
            outcome
        }
    }

    #[test]
    fn the_stopped_greedy_fallback_keeps_the_layer_outcome() {
        use autobraid_circuit::generators::random;
        let config = ScheduleConfig::default();
        let policy = CheckedStack {
            incomplete: Default::default(),
        };
        let dense = [
            random::all_to_all_burst(16, 5, 6, 7).unwrap(),
            random::all_to_all_burst(25, 6, 8, 3).unwrap(),
            random::layered_cx(25, 8, 0.9, 5).unwrap(),
            qft(16).unwrap(),
        ];
        for circuit in dense {
            let dag = config.dag(&circuit);
            let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
            let placement = Placement::row_major(&grid, circuit.num_qubits());
            let checked = run_with_dag(
                "t",
                &circuit,
                &grid,
                placement.clone(),
                &policy,
                false,
                &config,
                &dag,
            );
            let plain = run_with_dag(
                "t",
                &circuit,
                &grid,
                placement,
                &StackPolicy,
                false,
                &config,
                &dag,
            );
            assert_eq!(timeless(checked.0), timeless(plain.0));
        }
        assert!(policy.incomplete.get() > 0, "no layer reached the fallback");
    }

    #[test]
    fn the_partial_critical_path_sweep_agrees_with_a_full_sweep() {
        // Feed circuits in chunks with one step per chunk, as a stream
        // does, then drain: whenever the engine has refreshed its
        // critical paths, every ready gate's entry must equal a full
        // reverse sweep over everything pushed so far.
        use autobraid_circuit::generators::random::layered_cx;
        fn check_ready(engine: &Engine<'_>) -> usize {
            let dag = engine.frontier.dag();
            let mut full = vec![0u64; dag.len()];
            for g in (0..dag.len()).rev() {
                let tail = dag.successors(g).iter().map(|&s| full[s]).max();
                full[g] =
                    tail.unwrap_or(0) + gate_cycles(engine.circuit.gate(g), &engine.config.timing);
            }
            for &g in engine.frontier.ready() {
                assert_eq!(
                    engine.remaining_cp[g],
                    full[g],
                    "ready gate {g} of {}",
                    dag.len()
                );
            }
            engine.frontier.ready().len()
        }
        let circuits = [
            layered_cx(16, 12, 0.3, 5).unwrap(),
            qft(10).unwrap(),
            ising(9, 2).unwrap(),
        ];
        for circuit in &circuits {
            let n = circuit.num_qubits();
            let grid = Grid::with_capacity_for(n as usize);
            let mut engine = Engine::new(
                "stream",
                Cow::Owned(Circuit::new(n)),
                Frontier::appendable(n),
                &grid,
                Placement::row_major(&grid, n),
                LayoutMove::None,
                &ScheduleConfig::default(),
                Cow::Owned(Occupancy::new(&grid)),
            );
            let step = |engine: &mut Engine<'_>| {
                if let Routing::Braid(layer) = engine.route(&PathFinderPolicy, false).unwrap() {
                    engine.commit(layer);
                }
                check_ready(engine)
            };
            let mut checked = 0;
            for chunk in circuit.gates().chunks(7) {
                for &gate in chunk {
                    engine.push(gate);
                }
                engine.cycles_lower_bound();
                checked += check_ready(&engine) + step(&mut engine);
            }
            while engine.outstanding() > 0 {
                checked += step(&mut engine);
            }
            assert!(
                checked > circuit.len(),
                "{}: {checked} checks",
                circuit.name()
            );
        }
    }

    #[test]
    fn utilization_is_within_bounds() {
        let c = ising(25, 2).unwrap();
        let r = schedule(&c, &StackPolicy, false);
        assert!(r.peak_utilization > 0.0 && r.peak_utilization <= 1.0);
        assert!(r.mean_utilization > 0.0 && r.mean_utilization <= r.peak_utilization + 1e-12);
    }
}
