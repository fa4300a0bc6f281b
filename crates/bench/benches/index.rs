//! Criterion benches for the persistent `SccIndex`: artifact build
//! (labels -> checksummed block-aligned artifact, including the external
//! sort for the size table) and the point-query path (`component_of`,
//! `same_component`, `component_size`) that a serving workload hammers.

use criterion::{criterion_group, criterion_main, Criterion};

use ce_extmem::{DiskEnv, EnvOptions, IoConfig};
use ce_graph::algo::SccAlgorithm;
use ce_graph::{gen, SccIndex, TarjanOracle};

const N: u32 = 50_000;

fn bench_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("index");
    g.sample_size(10);

    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let env = DiskEnv::new_temp_with(cfg, EnvOptions::pooled(&cfg)).expect("env");
    let graph = gen::web_like(&env, N, 4.0, 7).expect("graph");
    // Labels from the in-memory oracle: the bench isolates index cost from
    // engine cost.
    let run = TarjanOracle.run(&env, &graph).expect("oracle");
    let path = std::env::temp_dir().join(format!("ce-bench-idx-{}.sccidx", std::process::id()));

    g.bench_function("build_50k", |b| {
        b.iter(|| {
            let n_sccs =
                SccIndex::build(&env, &path, &run.labels, graph.n_nodes(), None).expect("build");
            std::hint::black_box(n_sccs)
        });
    });

    let idx = SccIndex::open(&env, &path).expect("open");
    let io0 = env.stats().snapshot();
    let mut u: u32 = 1;
    let mut queries = 0u64;
    g.bench_function("component_of", |b| {
        b.iter(|| {
            u = u.wrapping_mul(2_654_435_761) % N;
            queries += 1;
            std::hint::black_box(idx.component_of(u).expect("query"))
        });
    });
    g.bench_function("same_component", |b| {
        b.iter(|| {
            u = u.wrapping_mul(2_654_435_761) % N;
            queries += 2;
            std::hint::black_box(idx.same_component(u, (u + 1) % N).expect("query"))
        });
    });
    g.bench_function("component_size", |b| {
        b.iter(|| {
            u = u.wrapping_mul(2_654_435_761) % N;
            std::hint::black_box(idx.component_size(u).expect("query"))
        });
    });
    g.finish();

    let spent = env.stats().snapshot().since(&io0);
    println!(
        "index/point-queries: {} logical I/Os over {} component_of lookups \
         (plus size-table probes); artifact {} bytes for {} nodes / {} SCCs",
        spent.total_ios(),
        queries,
        idx.len_bytes(),
        idx.n_nodes(),
        idx.n_sccs()
    );
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
