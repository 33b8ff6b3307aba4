//! Benchmarks of the Medical Support graph kernels (Algorithm 1): truss
//! decomposition, Steiner trees and the closest truss community query.
//!
//! * On the paper-sized DDI graph (86 drugs, 97 + 243 interactions). Its
//!   `closest_truss_community_*` benches call `closest_truss_community`,
//!   so each iteration also decomposes the whole graph (line 1).
//! * On seeded synthetic graphs of 1k and 5k nodes at the DDI graph's mean
//!   degree of about 8: one truss decomposition, and one k = 3 search
//!   against a precomputed decomposition, as the serving path runs it. The
//!   search's candidate stays near 30 nodes, so time that grows from 1k to
//!   5k is per-query work proportional to the whole graph.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dssddi_bench::BenchWorld;
use dssddi_graph::{
    closest_truss_community, closest_truss_community_with, steiner_tree, truss_decomposition,
    CtcConfig, UnGraph,
};

fn bench_graph(c: &mut Criterion) {
    let world = BenchWorld::new(50, 1);
    let structural = world.ddi.structural_graph();
    let decomposition = truss_decomposition(&structural);

    let mut group = c.benchmark_group("ms_module_graph_kernels");
    group.sample_size(20);

    group.bench_function("truss_decomposition_ddi_graph", |b| {
        b.iter(|| truss_decomposition(&structural))
    });

    // Query sets typical of the experiments: the Fig. 8 suggestion and a
    // larger k = 6 suggestion.
    let fig8_query = vec![46usize, 47, 59];
    let k6_query = vec![46usize, 47, 25, 8, 10, 5];

    group.bench_function("steiner_tree_k3", |b| {
        b.iter(|| steiner_tree(&structural, &fig8_query, &decomposition).unwrap())
    });
    group.bench_function("steiner_tree_k6", |b| {
        b.iter(|| steiner_tree(&structural, &k6_query, &decomposition).unwrap())
    });
    group.bench_function("closest_truss_community_k3", |b| {
        b.iter_batched(
            || fig8_query.clone(),
            |q| closest_truss_community(&structural, &q, &CtcConfig::default()).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("closest_truss_community_k6", |b| {
        b.iter_batched(
            || k6_query.clone(),
            |q| closest_truss_community(&structural, &q, &CtcConfig::default()).unwrap(),
            BatchSize::SmallInput,
        )
    });

    for (label, n) in [("1k", 1_000), ("5k", 5_000)] {
        let graph = synthetic_graph(n, 7);
        let decomposition = truss_decomposition(&graph);
        let mut rng = StdRng::seed_from_u64(11);
        let query: Vec<usize> = (0..3).map(|_| rng.gen_range(0..n)).collect();
        group.bench_function(format!("truss_decomposition_{label}"), |b| {
            b.iter(|| truss_decomposition(&graph))
        });
        group.bench_function(format!("closest_truss_community_k3_{label}"), |b| {
            b.iter(|| {
                closest_truss_community_with(&graph, &decomposition, &query, &CtcConfig::default())
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// A seeded small-world graph on `n` nodes: each node links to the next
/// four around a ring (mean degree 8, like the DDI graph's 340 interactions
/// on 86 drugs), and a fifth of the links go to a random node instead, so
/// the graph has dense local trusses and short paths across it.
fn synthetic_graph(n: usize, seed: u64) -> UnGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = UnGraph::new(n);
    for u in 0..n {
        for step in 1..=4 {
            let v = if rng.gen_bool(0.2) {
                rng.gen_range(0..n)
            } else {
                (u + step) % n
            };
            if v != u {
                graph.add_edge(u, v).unwrap();
            }
        }
    }
    graph
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
