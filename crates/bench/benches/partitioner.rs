//! Micro-benchmarks for the multilevel partitioner (the METIS
//! substitute) and the placement pipeline.

use autobraid_circuit::generators::{cc::counterfeit_coin, qaoa::qaoa, qft::qft};
use autobraid_lattice::Grid;
use autobraid_placement::initial::partition_placement;
use autobraid_placement::partition::bisect::Balance;
use autobraid_placement::partition::graph::PartGraph;
use autobraid_placement::partition::recursive::bisect_multilevel;
use autobraid_telemetry::bench::BenchGroup;
use autobraid_telemetry::Rng64;

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

fn bench_bisection() {
    let mut group = BenchGroup::new("bisect_multilevel");
    for n in [200usize, 1000, 4000] {
        let g = random_graph(n, 4, 3);
        group.bench(&n.to_string(), || {
            bisect_multilevel(&g, Balance::even(g.total_vertex_weight(), 2))
        });
    }
    let edges: Vec<(usize, usize, u64)> = (1..=1000).map(|v| (0, v, 1)).collect();
    let star = PartGraph::from_edges(1001, &edges);
    group.bench("star1000", || {
        bisect_multilevel(&star, Balance::even(star.total_vertex_weight(), 0))
    });
    group.finish();
}

fn bench_placement() {
    let mut group = BenchGroup::new("partition_placement");
    let qft_c = qft(200).unwrap();
    let qft_grid = Grid::with_capacity_for(200);
    group.bench("qft200", || partition_placement(&qft_c, &qft_grid));
    let qaoa_c = qaoa(300, 4, 3, 9).unwrap();
    let qaoa_grid = Grid::with_capacity_for(300);
    group.bench("qaoa300", || partition_placement(&qaoa_c, &qaoa_grid));
    // A star coupling graph: one hub, 300 leaves.
    let cc_c = counterfeit_coin(300).unwrap();
    let cc_grid = Grid::with_capacity_for(cc_c.num_qubits() as usize);
    group.bench("cc300_star", || partition_placement(&cc_c, &cc_grid));
    group.finish();
}

fn main() {
    bench_bisection();
    bench_placement();
}
