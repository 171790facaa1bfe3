//! Micro-benchmark of the combinatorial flow substrate: successive-shortest-
//! paths min-cost flow on layered random graphs.

use criterion::{BenchmarkId, Criterion};
use postcard_flow::{min_cost_flow, FlowNetwork, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A layered graph: source → L layers of `width` nodes → sink, dense
/// between consecutive layers.
fn layered(seed: u64, layers: usize, width: usize) -> (FlowNetwork, NodeId, NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + layers * width;
    let mut g = FlowNetwork::new(n);
    let node = |l: usize, w: usize| NodeId(1 + l * width + w);
    let (s, t) = (NodeId(0), NodeId(n - 1));
    for w in 0..width {
        g.add_edge(s, node(0, w), rng.gen_range(5.0..20.0), rng.gen_range(1.0..5.0));
        g.add_edge(node(layers - 1, w), t, rng.gen_range(5.0..20.0), rng.gen_range(1.0..5.0));
    }
    for l in 0..layers - 1 {
        for a in 0..width {
            for b in 0..width {
                if rng.gen_bool(0.7) {
                    g.add_edge(
                        node(l, a),
                        node(l + 1, b),
                        rng.gen_range(1.0..10.0),
                        rng.gen_range(1.0..8.0),
                    );
                }
            }
        }
    }
    (g, s, t)
}

fn main() {
    let mut c = Criterion::default().configure_from_args();

    let mut g = c.benchmark_group("ssp_min_cost_flow");
    for &(layers, width) in &[(3usize, 5usize), (5, 10), (8, 15)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{layers}layers_x{width}")),
            &(layers, width),
            |b, &(layers, width)| {
                b.iter_batched(
                    || layered(layers as u64, layers, width),
                    |(mut net, s, t)| min_cost_flow(&mut net, s, t, f64::INFINITY),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    g.finish();

    c.final_summary();
}
