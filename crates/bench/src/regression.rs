//! The workspace's one micro-benchmark harness: recorded baselines,
//! the interleaved-minimum estimator, and noise-aware comparison.
//!
//! `bench baseline` measures a fixed suite — micro-benchmarks of the
//! routing/placement/partitioning hot paths plus end-to-end compiles of
//! the conformance generator families — and writes
//! `BENCH_baseline.json` (`autobraid.bench/v2`): per-entry minimum ns
//! over interleaved rounds, the estimator's own dispersion, and a
//! *machine-normalized* score (minimum divided by a calibration loop's
//! minimum, so a baseline recorded on one machine remains comparable
//! on another). `bench regress` re-measures the same suite and exits
//! nonzero when an entry's normalized score grew past a noise-aware
//! threshold, or when the daemon's always-on recorder stack costs more
//! than [`AMBIENT_BUDGET`] of a compile ([`ambient_overhead`]).
//!
//! The suite deliberately reuses the conformance generator families
//! (`layered`, `burst`, `chain`, `qft`, `ising` — see
//! `crates/conformance`) so the perf trajectory tracks the same
//! workloads the differential oracle checks for correctness.

use autobraid::pipeline::{CompileOptions, Pipeline, Strategy};
use autobraid::streaming::{StreamingOptions, StreamingPipeline};
use autobraid_circuit::generators::{cc::counterfeit_coin, ising::ising, qft::qft, random, revlib};
use autobraid_circuit::{qasm, Circuit, DependenceDag};
use autobraid_lattice::{Cell, Grid, Occupancy};
use autobraid_placement::partition::bisect::Balance;
use autobraid_placement::partition::graph::PartGraph;
use autobraid_placement::partition::recursive::bisect_multilevel;
use autobraid_placement::{anneal, partition_placement, AnnealConfig, Placement};
use autobraid_router::astar::find_path;
use autobraid_router::path::CxRequest;
use autobraid_router::route_negotiated;
use autobraid_router::stack_finder::{route_concurrent, route_greedy};
use autobraid_service::{Client, CompileRequest, Server, ServiceConfig};
use autobraid_telemetry::{self as telemetry, AmbientStack, Decision, JsonValue, Rng64};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of the baseline JSON layout, emitted as the `schema`
/// field. Bump only with a matching update to `docs/METRICS.md`.
pub const BENCH_SCHEMA: &str = "autobraid.bench/v2";

/// Default number of interleaved rounds (`--repeats`): enough that a
/// full `bench regress` still finishes in a few seconds on 2 vCPUs.
pub const DEFAULT_ROUNDS: usize = 60;

/// Default baseline path, relative to the repository root.
pub const DEFAULT_BASELINE_PATH: &str = "BENCH_baseline.json";

/// Target wall-clock per sample; each case's iteration count is grown
/// until one sample fills it, amortizing timer overhead.
const SAMPLE_TARGET_NS: f64 = 1_000_000.0;

/// Base slack every comparison gets before dispersion widening: an
/// entry must slow down by >35% (beyond measured noise) to fire. Perf
/// gates that cry wolf get deleted; this one is deliberately deaf to
/// anything a code review would call "within noise".
const BASE_SLACK: f64 = 1.35;

/// Upper bound on the per-entry allowed ratio, however noisy the
/// measurements claim to be.
const MAX_ALLOWED: f64 = 3.0;

/// One measured benchmark entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Suite entry name, e.g. `astar/open` or `compile/qft`.
    pub name: String,
    /// Minimum nanoseconds per iteration across rounds.
    pub min_ns: f64,
    /// How far the minimum moves, relative to it, when the round that
    /// holds it is dropped — the estimator's own noise, used to widen
    /// the entry's regression threshold.
    pub dispersion: f64,
    /// `min_ns / calibration_ns`: the machine-normalized score
    /// compared across runs.
    pub normalized: f64,
}

/// A recorded benchmark baseline (`autobraid.bench/v2`).
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Minimum ns of the calibration loop on the recording machine.
    pub calibration_ns: f64,
    /// Interleaved rounds used for the recording.
    pub rounds: usize,
    /// The measured entries, in suite order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Looks up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&BaselineEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Renders the baseline as pretty-printed `autobraid.bench/v2` JSON.
    pub fn to_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                JsonValue::object([
                    ("name", JsonValue::from(e.name.as_str())),
                    ("min_ns", JsonValue::from(e.min_ns)),
                    ("dispersion", JsonValue::from(e.dispersion)),
                    ("normalized", JsonValue::from(e.normalized)),
                ])
            })
            .collect::<Vec<_>>();
        JsonValue::object([
            ("schema", JsonValue::from(BENCH_SCHEMA)),
            ("calibration_ns", JsonValue::from(self.calibration_ns)),
            ("rounds", JsonValue::from(self.rounds as u64)),
            ("entries", JsonValue::Array(entries)),
        ])
        .render_pretty()
    }

    /// Parses an `autobraid.bench/v2` document.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a wrong/missing `schema` field, or
    /// missing entry fields.
    pub fn parse(json: &str) -> Result<Baseline, String> {
        let doc = JsonValue::parse(json)?;
        let schema = doc.get("schema").and_then(JsonValue::as_str);
        if schema != Some(BENCH_SCHEMA) {
            return Err(format!(
                "expected schema {BENCH_SCHEMA:?}, found {schema:?}"
            ));
        }
        let num = |v: &JsonValue, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        };
        let entries = doc
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or("missing `entries` array")?
            .iter()
            .map(|e| {
                Ok(BaselineEntry {
                    name: e
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("entry missing `name`")?
                        .to_string(),
                    min_ns: num(e, "min_ns")?,
                    dispersion: num(e, "dispersion")?,
                    normalized: num(e, "normalized")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Baseline {
            calibration_ns: num(&doc, "calibration_ns")?,
            rounds: doc
                .get("rounds")
                .and_then(JsonValue::as_u64)
                .ok_or("missing `rounds`")? as usize,
            entries,
        })
    }

    /// Reads and parses a baseline file.
    ///
    /// # Errors
    ///
    /// I/O errors and [`Baseline::parse`] errors, as a message.
    pub fn load(path: &str) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Baseline::parse(&text)
    }

    /// Writes the baseline as JSON to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors, as a message.
    pub fn save(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json() + "\n").map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// One suite member: a name and a repeatable workload.
pub struct BenchCase {
    /// Stable entry name (`group/case`).
    pub name: &'static str,
    /// The workload; one call = one measured iteration.
    pub run: Box<dyn Fn()>,
}

impl BenchCase {
    /// A case named `name` whose one iteration is a call of `run`.
    pub fn new(name: &'static str, run: impl Fn() + 'static) -> BenchCase {
        BenchCase {
            name,
            run: Box::new(run),
        }
    }
}

/// The fixed regression suite: micro-benchmarks of the A*/router
/// /annealing/partitioner hot paths plus end-to-end [`Pipeline`]
/// compiles of the conformance generator families.
pub fn suite() -> Vec<BenchCase> {
    let mut cases: Vec<BenchCase> = Vec::new();

    // --- micro: A* on an open lattice ---
    let grid = Grid::new(16).expect("valid grid");
    let occ = Occupancy::new(&grid);
    cases.push(BenchCase::new("astar/open", move || {
        black_box(find_path(
            &grid,
            &occ,
            Cell::new(0, 0),
            Cell::new(15, 15),
            None,
        ));
    }));

    // --- micro: A* through seeded congestion ---
    let grid = Grid::new(12).expect("valid grid");
    let mut occ = Occupancy::new(&grid);
    let mut rng = Rng64::seed_from_u64(7);
    let side = grid.vertices_per_side();
    for _ in 0..(u64::from(side * side) / 4) {
        let v = autobraid_lattice::Vertex::new(rng.gen_range(0..side), rng.gen_range(0..side));
        occ.reserve(&grid, v);
    }
    cases.push(BenchCase::new("astar/congested", move || {
        black_box(find_path(
            &grid,
            &occ,
            Cell::new(0, 0),
            Cell::new(11, 11),
            None,
        ));
    }));

    // --- micro: stack finder on a Fig. 8-style batch ---
    let grid = Grid::new(10).expect("valid grid");
    let base = Occupancy::new(&grid);
    let requests: Vec<CxRequest> = vec![
        CxRequest::new(0, Cell::new(1, 0), Cell::new(1, 9)),
        CxRequest::new(1, Cell::new(1, 1), Cell::new(1, 2)),
        CxRequest::new(2, Cell::new(1, 4), Cell::new(1, 5)),
        CxRequest::new(3, Cell::new(1, 7), Cell::new(1, 8)),
        CxRequest::new(4, Cell::new(4, 0), Cell::new(8, 9)),
        CxRequest::new(5, Cell::new(5, 2), Cell::new(6, 3)),
        CxRequest::new(6, Cell::new(7, 5), Cell::new(4, 6)),
        CxRequest::new(7, Cell::new(9, 0), Cell::new(9, 9)),
    ];
    cases.push(BenchCase::new("router/stack_batch", move || {
        let mut occ = base.clone();
        black_box(route_concurrent(&grid, &mut occ, &requests));
    }));

    // --- micro: the greedy router on a random 100-pair batch ---
    let grid = Grid::new(22).expect("valid grid");
    let requests = random_batch(22, 100, 42);
    cases.push(BenchCase::new("route/greedy_batch", move || {
        let mut occ = Occupancy::new(&grid);
        black_box(route_greedy(&grid, &mut occ, &requests));
    }));

    // --- micro: negotiated congestion (PathFinder) on a feasible but
    // contended layered batch — nested spans that must spread across
    // row corridors to become disjoint ---
    let grid = Grid::new(10).expect("valid grid");
    let base = Occupancy::new(&grid);
    let requests: Vec<CxRequest> = (0..5)
        .map(|r| CxRequest::new(r as usize, Cell::new(4, r), Cell::new(4, 9 - r)))
        .collect();
    cases.push(BenchCase::new("route/pathfinder_layered", move || {
        let mut occ = base.clone();
        black_box(route_negotiated(&grid, &mut occ, &requests));
    }));

    // --- micro: negotiated congestion on an oversubscribed all-to-all
    // burst (most gates cannot route; measures rip-up churn up to the
    // stall exit plus the serial commit) ---
    let grid = Grid::new(8).expect("valid grid");
    let base = Occupancy::new(&grid);
    let corners = [
        Cell::new(0, 0),
        Cell::new(0, 7),
        Cell::new(7, 0),
        Cell::new(7, 7),
        Cell::new(4, 4),
        Cell::new(4, 1),
    ];
    let mut requests = Vec::new();
    for (i, &a) in corners.iter().enumerate() {
        for &b in &corners[i + 1..] {
            requests.push(CxRequest::new(requests.len(), a, b));
        }
    }
    cases.push(BenchCase::new("route/pathfinder_burst", move || {
        let mut occ = base.clone();
        black_box(route_negotiated(&grid, &mut occ, &requests));
    }));

    // --- micro: placement annealing ---
    let circuit = qft(12).expect("qft builds");
    let grid = Grid::with_capacity_for(12);
    cases.push(BenchCase::new("placement/anneal", move || {
        let start = Placement::row_major(&grid, 12);
        black_box(anneal(
            &circuit,
            &grid,
            start,
            &AnnealConfig {
                iterations: 200,
                ..AnnealConfig::default()
            },
        ));
    }));

    // --- micro: the placement seed on a star coupling graph (one hub,
    // 300 leaves), where the partitioner must stop coarsening early ---
    let circuit = counterfeit_coin(300).expect("cc builds");
    let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
    cases.push(BenchCase::new("placement/seed_star", move || {
        black_box(partition_placement(&circuit, &grid));
    }));

    // --- micro: multilevel bisection of a 1000-vertex random graph,
    // the one size where FM refinement dominates ---
    let graph = random_graph(1000, 4, 3);
    cases.push(BenchCase::new("partition/bisect_1000", move || {
        black_box(bisect_multilevel(
            &graph,
            Balance::even(graph.total_vertex_weight(), 2),
        ));
    }));

    // --- micro: bisection of a 1000-leaf star, which cannot coarsen ---
    let edges: Vec<(usize, usize, u64)> = (1..=1000).map(|v| (0, v, 1)).collect();
    let star = PartGraph::from_edges(1001, &edges);
    cases.push(BenchCase::new("partition/bisect_star1000", move || {
        black_box(bisect_multilevel(
            &star,
            Balance::even(star.total_vertex_weight(), 0),
        ));
    }));

    // --- micro: the dependence DAG of a 200-qubit QFT ---
    let circuit = qft(200).expect("qft builds");
    cases.push(BenchCase::new("circuit/dag_qft200", move || {
        black_box(DependenceDag::new(&circuit));
    }));

    // --- end-to-end compiles of the conformance generator families ---
    for (name, circuit) in compile_families() {
        cases.push(BenchCase::new(name, move || {
            black_box(Pipeline::new().compile(&circuit).expect("compiles"));
        }));
    }

    // --- the daemon's always-on recorder stack: its own work for one
    // `compile/qft` (see `ambient_overhead`), and the compile under it,
    // whose gap to `compile/qft` is noise, not a measurement (docs/PERF.md) ---
    let ambient = AmbientStack::new();
    cases.push(BenchCase::new("observe/ambient_events", move || {
        let _ambient = telemetry::install_alongside(ambient.recorder());
        ambient_events();
    }));
    let circuit = qft(10).expect("qft builds");
    let ambient = AmbientStack::new();
    cases.push(BenchCase::new("observe/overhead", move || {
        let _ambient = telemetry::install_alongside(ambient.recorder());
        black_box(Pipeline::new().compile(&circuit).expect("compiles"));
    }));

    // --- streaming compiles: the same families pushed gate-at-a-time
    // through the online engine (frontier maintenance + per-step
    // routing; the online-penalty companion of the compile/* entries,
    // see `bench stream` and docs/STREAMING.md) ---
    let stream_families = [
        (
            "stream/layered",
            random::layered_cx(10, 4, 0.3, 7).expect("layered builds"),
        ),
        (
            "stream/burst",
            random::all_to_all_burst(10, 3, 4, 7).expect("burst builds"),
        ),
        ("stream/qft", qft(10).expect("qft builds")),
    ];
    for (name, circuit) in stream_families {
        cases.push(BenchCase::new(name, move || {
            let mut stream = StreamingPipeline::open(
                circuit.num_qubits().max(1),
                StreamingOptions::default().with_label(circuit.name()),
            );
            for (_, gate) in circuit.iter() {
                stream.push_gate(*gate).expect("gate streams");
            }
            black_box(stream.finish().expect("stream finishes"));
        }));
    }

    // --- end-to-end compile under the per-layer strategy portfolio
    // (feature chooser + finder races on top of the plain compile) ---
    let circuit = qft(10).expect("qft builds");
    let portfolio = Pipeline::new().with_options(CompileOptions {
        strategy: Strategy::Portfolio,
        ..CompileOptions::default()
    });
    cases.push(BenchCase::new("compile/portfolio_qft", move || {
        black_box(portfolio.compile(&circuit).expect("compiles"));
    }));

    // --- service round-trips over loopback TCP (daemon + protocol +
    // cache overhead; see `crates/service` and docs/SERVICE.md). The
    // `bench` binary holds the client and daemon threads to one CPU, so
    // each hand-off is a context switch, not a cross-core wake-up ---
    let serve_qasm = "qreg q[4]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3];";
    let server = Arc::new(
        Server::start(ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        })
        .expect("service binds loopback"),
    );
    let addr = server.addr();

    // Hit round-trip: cache primed once, every iteration is answered
    // from the content-addressed cache — measures pure service overhead
    // (framing, parsing, lookup), no compile.
    let hit_request = CompileRequest::qasm(serve_qasm);
    let mut primer = Client::connect(addr).expect("service connect");
    primer.compile(&hit_request).expect("cache priming compile");
    let hit_client = Mutex::new(primer);
    {
        let server = Arc::clone(&server);
        cases.push(BenchCase::new("serve/roundtrip_hit", move || {
            let _keepalive = &server;
            let outcome = hit_client
                .lock()
                .expect("client usable")
                .compile(&hit_request)
                .expect("hit round-trip");
            black_box(outcome.elapsed_ms);
        }));
    }

    // Hit round-trip on a paper circuit (sqrt8_260: about 40 KB of
    // QASM, 900 braiding steps): request size and report size, which
    // the 4-qubit hit above cannot see, scale its decode, key, frame
    // and client parse.
    let large = revlib::build("sqrt8_260").expect("a registry circuit");
    let large_request = CompileRequest::qasm(qasm::emit(&large)).with_label(large.name());
    let mut primer = Client::connect(addr).expect("service connect");
    primer
        .compile(&large_request)
        .expect("cache priming compile");
    let large_client = Mutex::new(primer);
    {
        let server = Arc::clone(&server);
        cases.push(BenchCase::new("serve/roundtrip_hit_large", move || {
            let _keepalive = &server;
            let outcome = large_client
                .lock()
                .expect("client usable")
                .compile(&large_request)
                .expect("hit round-trip");
            black_box(outcome.elapsed_ms);
        }));
    }

    // Uncached round-trip: the cache is skipped, so every iteration
    // pays the full compile — service overhead plus scheduling.
    let miss_request = CompileRequest::qasm(serve_qasm).with_cache(false);
    let miss_client = Mutex::new(Client::connect(addr).expect("service connect"));
    cases.push(BenchCase::new("serve/roundtrip_miss", move || {
        let _keepalive = &server;
        let outcome = miss_client
            .lock()
            .expect("client usable")
            .compile(&miss_request)
            .expect("uncached round-trip");
        black_box(outcome.elapsed_ms);
    }));

    cases
}

/// The `compile/*` entries' circuits: the conformance generator
/// families and `qft(10)`.
fn compile_families() -> Vec<(&'static str, Circuit)> {
    vec![
        (
            "compile/layered",
            random::layered_cx(10, 4, 0.3, 7).expect("layered builds"),
        ),
        (
            "compile/burst",
            random::all_to_all_burst(10, 3, 4, 7).expect("burst builds"),
        ),
        (
            "compile/chain",
            random::neighbor_chain(10, 5, 7).expect("chain builds"),
        ),
        ("compile/ising", ising(10, 2).expect("ising builds")),
        ("compile/qft", qft(10).expect("qft builds")),
    ]
}

/// `pairs` requests between distinct random cells of a `side`-cell grid.
fn random_batch(side: u32, pairs: usize, seed: u64) -> Vec<CxRequest> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut cells: Vec<Cell> = (0..side)
        .flat_map(|r| (0..side).map(move |c| Cell::new(r, c)))
        .collect();
    rng.shuffle(&mut cells);
    cells
        .chunks(2)
        .take(pairs)
        .enumerate()
        .map(|(i, pair)| CxRequest::new(i, pair[0], pair[1]))
        .collect()
}

/// A random graph of `n` vertices, each with up to `degree` weighted
/// edges to random others.
fn random_graph(n: usize, degree: usize, seed: u64) -> PartGraph {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut edges = Vec::new();
    for v in 0..n {
        for _ in 0..degree {
            let u = rng.gen_range(0..n);
            if u != v {
                edges.push((v, u, rng.gen_range(1..10u64)));
            }
        }
    }
    PartGraph::from_edges(n, &edges)
}

/// The most [`ambient_overhead`] may read (docs/PERF.md).
pub const AMBIENT_BUDGET: f64 = 0.02;

/// Makes, through the public telemetry API, the sink calls one
/// autobraid-full `qft(10)` compile makes under an [`AmbientStack`];
/// the rest of what it emits is in the fine class the stack declines.
fn ambient_events() {
    drop(telemetry::span("optimize"));
    telemetry::counter("pipeline.gates_removed", 0);
    let schedule = telemetry::span("schedule");
    drop(telemetry::span("placement"));
    for scheduler in ["autobraid-full", "maslov"] {
        let _engine = telemetry::span("engine");
        telemetry::decision(&Decision::EngineBegin {
            scheduler: scheduler.to_string(),
            circuit: "qft10".to_string(),
            grid_side: 4,
        });
    }
    drop(schedule);
    drop(telemetry::span("verify"));
}

/// `observe/ambient_events`' minimum over `compile/qft`'s in one run:
/// the fraction of a compile the daemon's recorder stack costs. Errs
/// when either entry is missing.
pub fn ambient_overhead(measured: &Baseline) -> Result<f64, String> {
    let min_ns = |name: &str| measured.entry(name).map(|e| e.min_ns);
    match (min_ns("observe/ambient_events"), min_ns("compile/qft")) {
        (Some(ambient), Some(compile)) => Ok(ambient / compile),
        _ => Err("the ambient budget needs `observe/ambient_events` and `compile/qft`".into()),
    }
}

/// The machine-calibration workload: sorting 8192 PRNG values, which
/// spends its time on memory traffic, data-dependent branches and one
/// allocation like the suite's entries do, yet runs no program code,
/// so no change to the program moves it. [`measure`] runs it as one
/// more case in every round and divides each entry's minimum by its
/// minimum, so baselines survive a machine change — and a slow host
/// phase. (A register-only PRNG loop, used before, moved ×1.1–1.2 in
/// phases that slowed the suite ×1.4–1.6.)
fn calibration_case() -> BenchCase {
    BenchCase::new("calibration", || {
        let mut rng = Rng64::seed_from_u64(0xC0FFEE);
        let mut values: Vec<u64> = (0..8192).map(|_| rng.next_u64()).collect();
        values.sort_unstable();
        black_box(values);
    })
}

/// Vertex capacity the measurement thread's [`SearchArena`] is
/// pre-sized for — comfortably above the largest grid any suite entry
/// touches (`Grid::new(22)`), so no timed iteration pays the arena's
/// one-time growth.
///
/// [`SearchArena`]: autobraid_router::arena::SearchArena
const WARM_VERTICES: usize = 4096;

/// Bucket-queue f-value ceiling matching [`WARM_VERTICES`].
const WARM_MAX_F: u32 = 1024;

/// Iteration-count ceiling for one sample of a near-free case.
const MAX_ITERS: u64 = 1 << 20;

/// Measures `cases` with the interleaved-minimum estimator and returns
/// them as a [`Baseline`] normalized by the calibration loop.
///
/// The thread's search arena is warmed once; each case (the
/// calibration loop included) is then sized so one sample lasts about
/// 1 ms, and `rounds` rounds each sample every case once, starting one
/// case later than the round before, so slow host phases and cache
/// state spread evenly over all cases. Each case keeps its minimum:
/// nothing in the program can run faster than the machine allows, so
/// the minimum depends least on how much of the run the slow phases
/// covered.
pub fn measure(cases: &[BenchCase], rounds: usize) -> Baseline {
    autobraid_router::arena::warm_thread_arena(WARM_VERTICES, WARM_MAX_F);
    let calibration = calibration_case();
    let all: Vec<&BenchCase> = std::iter::once(&calibration).chain(cases).collect();
    let iters: Vec<u64> = all.iter().map(|case| sample_size(case)).collect();
    let rounds = rounds.max(1);
    let mut samples = vec![Vec::with_capacity(rounds); all.len()];
    for round in 0..rounds {
        for k in 0..all.len() {
            let i = (round + k) % all.len();
            samples[i].push(sample(all[i], iters[i]));
        }
    }
    let (calibration_ns, _) = summarize(&samples[0]);
    let entries = cases
        .iter()
        .zip(&samples[1..])
        .map(|(case, samples)| {
            let (min_ns, dispersion) = summarize(samples);
            BaselineEntry {
                name: case.name.to_string(),
                min_ns,
                dispersion,
                normalized: min_ns / calibration_ns.max(1.0),
            }
        })
        .collect();
    Baseline {
        calibration_ns,
        rounds,
        entries,
    }
}

/// Times `iters` back-to-back calls of `case`, in ns per call.
fn sample(case: &BenchCase, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        (case.run)();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Grows the iteration count until one sample lasts
/// [`SAMPLE_TARGET_NS`]; the last sample, taken at the returned count,
/// is the case's discarded warm-up sample.
fn sample_size(case: &BenchCase) -> u64 {
    let mut iters = 1;
    loop {
        let ns = sample(case, iters) * iters as f64;
        if ns >= SAMPLE_TARGET_NS || iters >= MAX_ITERS {
            return iters;
        }
        // Aim 10% past the target so the next sample usually reaches it.
        let want = (iters as f64 * 1.1 * SAMPLE_TARGET_NS / ns.max(1.0)).ceil() as u64;
        iters = want.clamp(iters + 1, MAX_ITERS);
    }
}

/// Summarizes one case's samples (ns per call, in round order, at least
/// one) as `(minimum, dispersion)`. The dispersion is the gap between
/// the two smallest samples over the smallest: how far the minimum
/// moves when the round that holds it is dropped, the one
/// leave-one-round-out estimate of the minimum that differs from it.
/// Slow rounds, however many, leave both untouched while two rounds
/// still reach the floor.
fn summarize(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let min = sorted[0];
    let dispersion = match sorted.get(1) {
        Some(&second) if min > 0.0 => (second - min) / min,
        _ => 0.0,
    };
    (min, dispersion)
}

/// Fraction of its allowed threshold an entry must consume to count as
/// *near-threshold* in [`Comparison::is_near_threshold`]: close enough
/// that the next bit of drift would fire the gate.
pub const NEAR_THRESHOLD: f64 = 0.9;

/// One suite entry's comparison against the baseline — regressed or
/// not. The gate fails on [`Comparison::regressed`] entries; perf-gate
/// tooling that also wants the *near misses* (for proactive tracing)
/// reads [`Comparison::is_near_threshold`].
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Suite entry name.
    pub name: String,
    /// Recorded normalized score.
    pub base_normalized: f64,
    /// Fresh normalized score.
    pub fresh_normalized: f64,
    /// `fresh / base`.
    pub ratio: f64,
    /// The noise-aware threshold the ratio is judged against.
    pub allowed: f64,
}

impl Comparison {
    /// Whether this entry slowed down past its threshold.
    pub fn regressed(&self) -> bool {
        self.ratio > self.allowed
    }

    /// Whether this entry is within [`NEAR_THRESHOLD`] of firing
    /// without having fired — the "watch this one" band.
    pub fn is_near_threshold(&self) -> bool {
        !self.regressed() && self.ratio > NEAR_THRESHOLD * self.allowed
    }
}

/// Compares every shared suite entry against the baseline, regressed
/// or not.
///
/// The per-entry threshold is `BASE_SLACK` widened by both runs'
/// measured dispersion (and capped): an entry regresses only when its
/// machine-normalized score grows beyond what the noise of either
/// measurement can explain. Entries present in only one of the two
/// baselines are skipped — the gate compares, it does not enforce
/// suite membership.
pub fn classify(base: &Baseline, fresh: &Baseline) -> Vec<Comparison> {
    let mut out = Vec::new();
    for b in &base.entries {
        let Some(f) = fresh.entry(&b.name) else {
            continue;
        };
        if b.normalized <= 0.0 {
            continue;
        }
        let ratio = f.normalized / b.normalized;
        let allowed = (BASE_SLACK + 2.0 * (b.dispersion + f.dispersion)).min(MAX_ALLOWED);
        out.push(Comparison {
            name: b.name.clone(),
            base_normalized: b.normalized,
            fresh_normalized: f.normalized,
            ratio,
            allowed,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_conformance::ConformanceCase;

    fn entry(name: &str, normalized: f64, dispersion: f64) -> BaselineEntry {
        BaselineEntry {
            name: name.to_string(),
            min_ns: normalized * 100.0,
            dispersion,
            normalized,
        }
    }

    fn baseline(entries: Vec<BaselineEntry>) -> Baseline {
        Baseline {
            calibration_ns: 100.0,
            rounds: 60,
            entries,
        }
    }

    /// The entries the gate fails on.
    fn regressed(base: &Baseline, fresh: &Baseline) -> Vec<Comparison> {
        classify(base, fresh)
            .into_iter()
            .filter(Comparison::regressed)
            .collect()
    }

    #[test]
    fn json_round_trips() {
        let b = baseline(vec![
            entry("astar/open", 1.5, 0.02),
            entry("compile/qft", 220.0, 0.1),
        ]);
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_shapes() {
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse(r#"{"schema":"other/v9"}"#).is_err());
        assert!(
            Baseline::parse(r#"{"schema":"autobraid.bench/v2","calibration_ns":1,"rounds":3}"#)
                .is_err(),
            "entries array is required"
        );
        assert!(
            Baseline::parse(
                r#"{"schema":"autobraid.bench/v1","calibration_ns":1,"repeats":3,"entries":[]}"#
            )
            .is_err(),
            "v1 baselines are rejected"
        );
    }

    #[test]
    fn identical_runs_pass() {
        let b = baseline(vec![entry("a", 10.0, 0.05), entry("b", 2.0, 0.01)]);
        assert!(regressed(&b, &b).is_empty());
    }

    #[test]
    fn small_drift_within_slack_passes() {
        let base = baseline(vec![entry("a", 10.0, 0.05)]);
        let fresh = baseline(vec![entry("a", 12.0, 0.05)]); // +20% < 35% slack
        assert!(regressed(&base, &fresh).is_empty());
    }

    #[test]
    fn large_slowdown_fires() {
        let base = baseline(vec![entry("a", 10.0, 0.02), entry("b", 5.0, 0.02)]);
        let fresh = baseline(vec![entry("a", 25.0, 0.02), entry("b", 5.1, 0.02)]);
        let regressions = regressed(&base, &fresh);
        assert_eq!(regressions.len(), 1);
        let r = &regressions[0];
        assert_eq!(r.name, "a");
        assert!((r.ratio - 2.5).abs() < 1e-9);
        assert!(r.ratio > r.allowed);
    }

    #[test]
    fn noisy_entries_get_wider_thresholds() {
        // Same +60% slowdown: fires for the quiet entry, tolerated for
        // the noisy one whose dispersion explains it.
        let base = baseline(vec![entry("quiet", 10.0, 0.0), entry("noisy", 10.0, 0.4)]);
        let fresh = baseline(vec![entry("quiet", 16.0, 0.0), entry("noisy", 16.0, 0.4)]);
        let regressions = regressed(&base, &fresh);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "quiet");
    }

    #[test]
    fn near_threshold_band_sits_between_ok_and_regressed() {
        // dispersion 0 → allowed = 1.35, watch band starts at 1.215.
        let base = baseline(vec![
            entry("ok", 10.0, 0.0),
            entry("near", 10.0, 0.0),
            entry("fired", 10.0, 0.0),
        ]);
        let fresh = baseline(vec![
            entry("ok", 11.0, 0.0),    // x1.10: quiet
            entry("near", 13.0, 0.0),  // x1.30: watch band
            entry("fired", 15.0, 0.0), // x1.50: regressed
        ]);
        let by_name = |name: &str| {
            classify(&base, &fresh)
                .into_iter()
                .find(|c| c.name == name)
                .unwrap()
        };
        assert!(!by_name("ok").regressed() && !by_name("ok").is_near_threshold());
        assert!(!by_name("near").regressed() && by_name("near").is_near_threshold());
        assert!(by_name("fired").regressed() && !by_name("fired").is_near_threshold());
        // The gate fails on exactly the regressed subset.
        let regressions = regressed(&base, &fresh);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "fired");
    }

    #[test]
    fn missing_entries_are_skipped_not_errors() {
        let base = baseline(vec![entry("gone", 10.0, 0.0)]);
        let fresh = baseline(vec![entry("new", 10.0, 0.0)]);
        assert!(regressed(&base, &fresh).is_empty());
    }

    #[test]
    fn suite_names_are_unique_and_stable() {
        let cases = suite();
        let mut names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        assert!(names.contains(&"astar/open"));
        assert!(names.contains(&"compile/layered"));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len(), "duplicate suite names");
    }

    #[test]
    fn committed_baseline_covers_the_suite() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let text = std::fs::read_to_string(path).expect("baseline is committed");
        let base = Baseline::parse(&text).expect("baseline parses as the current schema");
        for case in suite() {
            assert!(
                base.entry(case.name).is_some(),
                "{} is not in BENCH_baseline.json; re-record it with `bench baseline`",
                case.name
            );
        }
    }

    #[test]
    fn measure_returns_positive_minima() {
        let case = BenchCase::new("trivial", || {
            black_box((0..64u64).sum::<u64>());
        });
        let measured = measure(&[case], 3);
        assert_eq!(measured.rounds, 3);
        assert!(measured.calibration_ns > 0.0);
        let entry = measured.entry("trivial").expect("case is measured");
        assert!(entry.min_ns > 0.0);
        assert!(entry.dispersion >= 0.0);
        assert!((entry.normalized - entry.min_ns / measured.calibration_ns).abs() < 1e-12);
    }

    #[test]
    fn ambient_budget_fires_past_two_percent_of_a_compile() {
        let with_ambient = |ambient: f64| {
            baseline(vec![
                entry("compile/qft", 1000.0, 0.0),
                entry("observe/ambient_events", ambient, 0.0),
            ])
        };
        let under = ambient_overhead(&with_ambient(19.0)).unwrap();
        assert!((under - 0.019).abs() < 1e-12 && under <= AMBIENT_BUDGET);
        let over = ambient_overhead(&with_ambient(21.0)).unwrap();
        assert!((over - 0.021).abs() < 1e-12 && over > AMBIENT_BUDGET);
        for only in ["compile/qft", "observe/ambient_events"] {
            let missing = baseline(vec![entry(only, 10.0, 0.0)]);
            assert!(ambient_overhead(&missing).is_err(), "only {only}");
        }
    }

    /// Most sink calls one compile may make under an [`AmbientStack`].
    const MAX_AMBIENT_CALLS: usize = 9;

    /// Logs every sink call, by kind and name, and answers the capability
    /// questions as an [`AmbientStack`] does.
    #[derive(Default)]
    struct SinkCalls(Mutex<Vec<String>>);

    impl telemetry::Recorder for SinkCalls {
        fn record_span(&self, path: &str, _wall: std::time::Duration) {
            self.0.lock().unwrap().push(format!("span {path}"));
        }
        fn add(&self, name: &str, _delta: u64) {
            self.0.lock().unwrap().push(format!("counter {name}"));
        }
        fn observe(&self, name: &str, _value: f64) {
            self.0.lock().unwrap().push(format!("observe {name}"));
        }
        fn record_decision(&self, decision: &Decision) {
            self.0
                .lock()
                .unwrap()
                .push(format!("decision {}", decision.name()));
        }
        fn wants_decisions(&self) -> bool {
            true
        }
        fn wants_fine_decisions(&self) -> bool {
            false
        }
        fn wants_fine_metrics(&self) -> bool {
            false
        }
    }

    /// The sink calls `run` makes under [`SinkCalls`], sorted.
    fn sink_calls(run: impl FnOnce()) -> Vec<String> {
        let sink = Arc::new(SinkCalls::default());
        {
            let _guard = telemetry::install(sink.clone());
            run();
        }
        let mut calls = sink.0.lock().unwrap().clone();
        calls.sort();
        calls
    }

    fn compile_calls(strategy: Strategy, circuit: &Circuit) -> Vec<String> {
        let pipeline = Pipeline::new().with_options(CompileOptions {
            strategy,
            ..CompileOptions::default()
        });
        sink_calls(|| {
            pipeline.compile(circuit).expect("compiles");
        })
    }

    #[test]
    fn sink_calls_answer_capabilities_as_the_ambient_stack() {
        let caps = || {
            [
                telemetry::decisions_enabled(),
                telemetry::fine_decisions_enabled(),
                telemetry::fine_metrics_enabled(),
            ]
        };
        let stack = AmbientStack::new();
        let stack_caps = {
            let _guard = stack.install();
            caps()
        };
        let sink_caps = {
            let _guard = telemetry::install(Arc::new(SinkCalls::default()));
            caps()
        };
        assert_eq!(sink_caps, stack_caps);
    }

    #[test]
    fn ambient_events_are_the_calls_of_one_qft_compile() {
        let compile = compile_calls(Strategy::default(), &qft(10).unwrap());
        assert_eq!(compile, sink_calls(ambient_events));
        assert!(compile.len() <= MAX_AMBIENT_CALLS);
    }

    #[test]
    fn ambient_calls_do_not_grow_with_the_circuit() {
        let (small, large) = (qft(10).unwrap(), qft(40).unwrap());
        for strategy in Strategy::ALL {
            let (small, large) = (
                compile_calls(strategy, &small),
                compile_calls(strategy, &large),
            );
            assert_eq!(
                small.len(),
                large.len(),
                "{}: qft(10) makes {small:?} under the ambient stack, qft(40) makes {large:?}",
                strategy.name()
            );
        }
    }

    #[test]
    fn ambient_calls_stay_bounded_on_the_corpus_and_suite_families() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let mut circuits: Vec<(String, Circuit)> = std::fs::read_dir(dir)
            .expect("tests/corpus exists")
            .map(|entry| entry.expect("readable corpus dir").path())
            .filter(|path| path.extension().is_some_and(|e| e == "qasm"))
            .map(|path| {
                let text = std::fs::read_to_string(&path).expect("readable corpus file");
                let case = ConformanceCase::from_repro(&text).expect("corpus file parses");
                let name = path.file_name().expect("corpus file name");
                (name.to_string_lossy().into_owned(), case.circuit)
            })
            .collect();
        circuits.extend(
            compile_families()
                .into_iter()
                .map(|(name, circuit)| (name.to_string(), circuit)),
        );
        assert!(circuits.len() > 12, "corpus and suite families are present");
        for (name, circuit) in &circuits {
            for strategy in Strategy::ALL {
                let calls = compile_calls(strategy, circuit);
                assert!(
                    calls.len() <= MAX_AMBIENT_CALLS,
                    "{name} under {}: {calls:?}",
                    strategy.name()
                );
            }
        }
    }

    /// Twenty rounds: five identical blocks of four, each reaching 100.
    fn quiet_rounds() -> Vec<f64> {
        (0..20).map(|r| 100.0 + f64::from(r % 4)).collect()
    }

    #[test]
    fn summary_picks_the_minimum() {
        let mut rounds = quiet_rounds();
        rounds[13] = 97.5;
        assert_eq!(summarize(&rounds).0, 97.5);
    }

    #[test]
    fn a_slow_block_does_not_move_the_minimum() {
        // Rounds 8..12 — one whole block — run x1.4 slower, as in a slow
        // host phase.
        let mut rounds = quiet_rounds();
        for s in &mut rounds[8..12] {
            *s *= 1.4;
        }
        assert_eq!(summarize(&rounds), (100.0, 0.0));
    }

    #[test]
    fn dispersion_is_the_shift_from_dropping_the_best_round() {
        assert_eq!(summarize(&quiet_rounds()).1, 0.0, "identical blocks");
        // Dropping the round that holds 100 leaves 110.
        assert_eq!(summarize(&[130.0, 100.0, 140.0, 110.0]), (100.0, 0.1));
        assert_eq!(summarize(&[42.0]), (42.0, 0.0), "one round");
    }
}
