//! Criterion benchmarks of the SCC kernels: in-memory Tarjan vs Kosaraju,
//! and the two semi-external algorithms (the Ext-SCC base-case ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use ce_extmem::{DiskEnv, IoConfig};
use ce_graph::csr::CsrGraph;
use ce_graph::gen;
use ce_graph::kosaraju::kosaraju_scc;
use ce_graph::tarjan::tarjan_scc;
use ce_semi_scc::{semi_scc, NodeSet, SemiSccKind};

fn env() -> DiskEnv {
    DiskEnv::new_temp(IoConfig::new(8 << 10, 1 << 20)).expect("env")
}

fn bench_inmemory(c: &mut Criterion) {
    let mut g = c.benchmark_group("inmemory_scc");
    g.sample_size(10);
    let envx = env();
    for &n in &[10_000u32, 50_000] {
        let graph = gen::web_like(&envx, n, 4.0, 5).unwrap();
        let edges = graph.edges_in_memory().unwrap();
        g.throughput(Throughput::Elements(edges.len() as u64));
        g.bench_with_input(BenchmarkId::new("tarjan", n), &n, |b, _| {
            let csr = CsrGraph::from_edges(n as u64, &edges);
            b.iter(|| std::hint::black_box(tarjan_scc(&csr).count));
        });
        g.bench_with_input(BenchmarkId::new("kosaraju", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(kosaraju_scc(n as u64, &edges).count));
        });
    }
    g.finish();
}

fn bench_semi_external(c: &mut Criterion) {
    let mut g = c.benchmark_group("semi_external_scc");
    g.sample_size(10);
    let envx = env();
    let n = 20_000u32;
    let graph = gen::web_like(&envx, n, 4.0, 5).unwrap();
    for kind in [SemiSccKind::Coloring, SemiSccKind::SpanningTree] {
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                let (labels, _) =
                    semi_scc(&envx, kind, graph.edges(), NodeSet::Dense(n as u64)).unwrap();
                std::hint::black_box(labels.len())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_inmemory, bench_semi_external);
criterion_main!(benches);
