//! The benchmark regression gate: recorded baselines and noise-aware
//! comparison.
//!
//! `bench baseline` measures a fixed suite — micro-benchmarks of the
//! routing/placement hot paths plus end-to-end compiles of the
//! conformance generator families — and writes `BENCH_baseline.json`
//! (`autobraid.bench/v1`): per-entry median ns over repeats, a
//! relative-dispersion estimate, and a *machine-normalized* score
//! (median divided by a calibration loop's median, so a baseline
//! recorded on one machine remains comparable on another). `bench
//! regress` re-measures the same suite and exits nonzero when an
//! entry's normalized score grew past a noise-aware threshold.
//!
//! The suite deliberately reuses the conformance generator families
//! (`layered`, `burst`, `chain`, `qft`, `ising` — see
//! `crates/conformance`) so the perf trajectory tracks the same
//! workloads the differential oracle checks for correctness.

use autobraid::pipeline::{CompileOptions, Pipeline, Strategy};
use autobraid::streaming::{StreamingOptions, StreamingPipeline};
use autobraid_circuit::generators::{cc::counterfeit_coin, ising::ising, qft::qft, random};
use autobraid_circuit::Circuit;
use autobraid_lattice::{Cell, Grid, Occupancy};
use autobraid_placement::{anneal, partition_placement, AnnealConfig, Placement};
use autobraid_router::astar::find_path;
use autobraid_router::path::CxRequest;
use autobraid_router::route_negotiated;
use autobraid_router::stack_finder::route_concurrent;
use autobraid_service::{Client, CompileRequest, Server, ServiceConfig};
use autobraid_telemetry::bench::black_box;
use autobraid_telemetry::{AmbientStack, JsonValue, Rng64};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of the baseline JSON layout, emitted as the `schema`
/// field. Bump only with a matching update to `docs/METRICS.md`.
pub const BENCH_SCHEMA: &str = "autobraid.bench/v1";

/// Default sample count per benchmark entry.
pub const DEFAULT_REPEATS: usize = 7;

/// Default baseline path, relative to the repository root.
pub const DEFAULT_BASELINE_PATH: &str = "BENCH_baseline.json";

/// Minimum wall-clock per measured sample; iteration counts are grown
/// until one sample fills this, amortizing timer overhead.
const SAMPLE_BUDGET_NS: f64 = 2_000_000.0;

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
    /// Median nanoseconds per iteration across repeats.
    pub median_ns: f64,
    /// Relative inter-quartile range of the repeats — the entry's own
    /// noise estimate, used to widen its regression threshold.
    pub dispersion: f64,
    /// `median_ns / calibration_ns`: the machine-normalized score
    /// compared across runs.
    pub normalized: f64,
}

/// A recorded benchmark baseline (`autobraid.bench/v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Median ns of the calibration loop on the recording machine.
    pub calibration_ns: f64,
    /// Samples per entry used for the recording.
    pub repeats: usize,
    /// The measured entries, in suite order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Looks up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&BaselineEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Builds the `autobraid.bench/v1` JSON tree.
    pub fn to_json_value(&self) -> JsonValue {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                JsonValue::object([
                    ("name", JsonValue::from(e.name.as_str())),
                    ("median_ns", JsonValue::from(e.median_ns)),
                    ("dispersion", JsonValue::from(e.dispersion)),
                    ("normalized", JsonValue::from(e.normalized)),
                ])
            })
            .collect::<Vec<_>>();
        JsonValue::object([
            ("schema", JsonValue::from(BENCH_SCHEMA)),
            ("calibration_ns", JsonValue::from(self.calibration_ns)),
            ("repeats", JsonValue::from(self.repeats as u64)),
            ("entries", JsonValue::Array(entries)),
        ])
    }

    /// Renders the baseline as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }

    /// Parses an `autobraid.bench/v1` document.
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
                    median_ns: num(e, "median_ns")?,
                    dispersion: num(e, "dispersion")?,
                    normalized: num(e, "normalized")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Baseline {
            calibration_ns: num(&doc, "calibration_ns")?,
            repeats: doc
                .get("repeats")
                .and_then(JsonValue::as_u64)
                .ok_or("missing `repeats`")? as usize,
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

/// The fixed regression suite: micro-benchmarks of the A*/stack-finder
/// /annealing hot paths plus end-to-end [`Pipeline`] compiles of the
/// conformance generator families.
pub fn suite() -> Vec<BenchCase> {
    let mut cases: Vec<BenchCase> = Vec::new();

    // --- micro: A* on an open lattice ---
    let grid = Grid::new(16).expect("valid grid");
    let occ = Occupancy::new(&grid);
    cases.push(BenchCase {
        name: "astar/open",
        run: Box::new(move || {
            black_box(find_path(
                &grid,
                &occ,
                Cell::new(0, 0),
                Cell::new(15, 15),
                None,
            ));
        }),
    });

    // --- micro: A* through seeded congestion ---
    let grid = Grid::new(12).expect("valid grid");
    let mut occ = Occupancy::new(&grid);
    let mut rng = Rng64::seed_from_u64(7);
    let side = grid.vertices_per_side();
    for _ in 0..(u64::from(side * side) / 4) {
        let v = autobraid_lattice::Vertex::new(rng.gen_range(0..side), rng.gen_range(0..side));
        occ.reserve(&grid, v);
    }
    cases.push(BenchCase {
        name: "astar/congested",
        run: Box::new(move || {
            black_box(find_path(
                &grid,
                &occ,
                Cell::new(0, 0),
                Cell::new(11, 11),
                None,
            ));
        }),
    });

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
    cases.push(BenchCase {
        name: "router/stack_batch",
        run: Box::new(move || {
            let mut occ = base.clone();
            black_box(route_concurrent(&grid, &mut occ, &requests));
        }),
    });

    // --- micro: negotiated congestion (PathFinder) on a feasible but
    // contended layered batch — nested spans that must spread across
    // row corridors to become disjoint ---
    let grid = Grid::new(10).expect("valid grid");
    let base = Occupancy::new(&grid);
    let requests: Vec<CxRequest> = (0..5)
        .map(|r| CxRequest::new(r as usize, Cell::new(4, r), Cell::new(4, 9 - r)))
        .collect();
    cases.push(BenchCase {
        name: "route/pathfinder_layered",
        run: Box::new(move || {
            let mut occ = base.clone();
            black_box(route_negotiated(&grid, &mut occ, &requests));
        }),
    });

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
    cases.push(BenchCase {
        name: "route/pathfinder_burst",
        run: Box::new(move || {
            let mut occ = base.clone();
            black_box(route_negotiated(&grid, &mut occ, &requests));
        }),
    });

    // --- micro: placement annealing ---
    let circuit = qft(12).expect("qft builds");
    let grid = Grid::with_capacity_for(12);
    cases.push(BenchCase {
        name: "placement/anneal",
        run: Box::new(move || {
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
        }),
    });

    // --- micro: the placement seed on a star coupling graph (one hub,
    // 300 leaves), where the partitioner must stop coarsening early ---
    let circuit = counterfeit_coin(300).expect("cc builds");
    let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
    cases.push(BenchCase {
        name: "placement/seed_star",
        run: Box::new(move || {
            black_box(partition_placement(&circuit, &grid));
        }),
    });

    // --- end-to-end compiles of the conformance generator families ---
    let families: Vec<(&'static str, Circuit)> = vec![
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
        ("compile/qft", qft(10).expect("qft builds")),
        ("compile/ising", ising(10, 2).expect("ising builds")),
    ];
    for (name, circuit) in families {
        cases.push(BenchCase {
            name,
            run: Box::new(move || {
                black_box(Pipeline::new().compile(&circuit).expect("compiles"));
            }),
        });
    }

    // --- observability overhead: the on-half of `bench observe`,
    // tracked in the regression gate so the always-on recorder stack
    // cannot quietly grow past its budget ---
    let (_, observed) = observe_cases();
    cases.push(observed);

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
        cases.push(BenchCase {
            name,
            run: Box::new(move || {
                let mut stream = StreamingPipeline::open(
                    circuit.num_qubits().max(1),
                    StreamingOptions::default().with_label(circuit.name()),
                );
                for (_, gate) in circuit.iter() {
                    stream.push_gate(*gate).expect("gate streams");
                }
                black_box(stream.finish().expect("stream finishes"));
            }),
        });
    }

    // --- end-to-end compile under the per-layer strategy portfolio
    // (feature chooser + finder races on top of the plain compile) ---
    let circuit = qft(10).expect("qft builds");
    let portfolio = Pipeline::new().with_options(CompileOptions {
        strategy: Strategy::Portfolio,
        ..CompileOptions::default()
    });
    cases.push(BenchCase {
        name: "compile/portfolio_qft",
        run: Box::new(move || {
            black_box(portfolio.compile(&circuit).expect("compiles"));
        }),
    });

    // --- service round-trips over loopback TCP (daemon + protocol +
    // cache overhead; see `crates/service` and docs/SERVICE.md) ---
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
        cases.push(BenchCase {
            name: "serve/roundtrip_hit",
            run: Box::new(move || {
                let _keepalive = &server;
                let outcome = hit_client
                    .lock()
                    .expect("client usable")
                    .compile(&hit_request)
                    .expect("hit round-trip");
                black_box(outcome.elapsed_ms);
            }),
        });
    }

    // Uncached round-trip: the cache is skipped, so every iteration
    // pays the full compile — service overhead plus scheduling.
    let miss_request = CompileRequest::qasm(serve_qasm).with_cache(false);
    let miss_client = Mutex::new(Client::connect(addr).expect("service connect"));
    cases.push(BenchCase {
        name: "serve/roundtrip_miss",
        run: Box::new(move || {
            let _keepalive = &server;
            let outcome = miss_client
                .lock()
                .expect("client usable")
                .compile(&miss_request)
                .expect("uncached round-trip");
            black_box(outcome.elapsed_ms);
        }),
    });

    cases
}

/// The `bench observe` pair: the same `qft(10)` end-to-end compile
/// measured bare (`compile/qft`, the suite's reference entry) and under
/// the service's always-on [`AmbientStack`] — the type `autobraidd`
/// installs. The "on" case doubles as the
/// suite's `observe/overhead` entry; the delta between the two is the
/// cost of observability, which `docs/METRICS.md` budgets at <2% of
/// the bare median.
pub fn observe_cases() -> (BenchCase, BenchCase) {
    let circuit = qft(10).expect("qft builds");
    let off = BenchCase {
        name: "compile/qft",
        run: Box::new(move || {
            black_box(Pipeline::new().compile(&circuit).expect("compiles"));
        }),
    };
    let circuit = qft(10).expect("qft builds");
    let ambient = AmbientStack::new();
    let on = BenchCase {
        name: "observe/overhead",
        run: Box::new(move || {
            let _ambient = ambient.install();
            black_box(Pipeline::new().compile(&circuit).expect("compiles"));
        }),
    };
    (off, on)
}

/// The machine-calibration workload: a fixed PRNG churn whose cost
/// tracks scalar/branch throughput the same way the suite's hot loops
/// do. Scores are stored as `median_ns / calibrate()` so baselines
/// survive a machine change.
pub fn calibrate() -> f64 {
    let one = || {
        let mut rng = Rng64::seed_from_u64(0xC0FFEE);
        let mut acc = 0u64;
        for _ in 0..200_000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        black_box(acc);
    };
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            one();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Vertex capacity the measurement thread's [`SearchArena`] is
/// pre-sized for — comfortably above the largest grid any suite entry
/// touches (`Grid::new(16)`), so no timed iteration pays the arena's
/// one-time growth.
///
/// [`SearchArena`]: autobraid_router::arena::SearchArena
const WARM_VERTICES: usize = 4096;

/// Bucket-queue f-value ceiling matching [`WARM_VERTICES`].
const WARM_MAX_F: u32 = 1024;

/// Measures one case: pre-warms the thread's search arena, grows the
/// iteration count until a sample fills the sample budget (~2 ms),
/// takes `repeats` samples, and returns `(median ns/iter, relative
/// IQR)`.
pub fn measure(case: &BenchCase, repeats: usize) -> (f64, f64) {
    autobraid_router::arena::warm_thread_arena(WARM_VERTICES, WARM_MAX_F);
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            (case.run)();
        }
        let ns = start.elapsed().as_nanos() as f64;
        if ns >= SAMPLE_BUDGET_NS || iters >= 1 << 20 {
            break;
        }
        iters = iters.saturating_mul(if ns < SAMPLE_BUDGET_NS / 16.0 { 8 } else { 2 });
    }
    let mut samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                (case.run)();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let med = median(&samples);
    let q1 = samples[samples.len() / 4];
    let q3 = samples[(samples.len() * 3) / 4];
    let dispersion = if med > 0.0 { (q3 - q1) / med } else { 0.0 };
    (med, dispersion)
}

fn median(sorted_or_not: &[f64]) -> f64 {
    let mut v = sorted_or_not.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Runs the whole suite and assembles a [`Baseline`].
pub fn run_baseline(repeats: usize, mut progress: impl FnMut(&str, f64)) -> Baseline {
    let calibration_ns = calibrate();
    let entries = suite()
        .iter()
        .map(|case| {
            let (median_ns, dispersion) = measure(case, repeats);
            progress(case.name, median_ns);
            BaselineEntry {
                name: case.name.to_string(),
                median_ns,
                dispersion,
                normalized: median_ns / calibration_ns.max(1.0),
            }
        })
        .collect();
    Baseline {
        calibration_ns,
        repeats,
        entries,
    }
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

    fn entry(name: &str, normalized: f64, dispersion: f64) -> BaselineEntry {
        BaselineEntry {
            name: name.to_string(),
            median_ns: normalized * 100.0,
            dispersion,
            normalized,
        }
    }

    fn baseline(entries: Vec<BaselineEntry>) -> Baseline {
        Baseline {
            calibration_ns: 100.0,
            repeats: 7,
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
            Baseline::parse(r#"{"schema":"autobraid.bench/v1","calibration_ns":1,"repeats":3}"#)
                .is_err(),
            "entries array is required"
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
    fn measure_returns_positive_medians() {
        let case = BenchCase {
            name: "trivial",
            run: Box::new(|| {
                black_box((0..64u64).sum::<u64>());
            }),
        };
        let (median_ns, dispersion) = measure(&case, 3);
        assert!(median_ns > 0.0);
        assert!(dispersion >= 0.0);
    }
}
