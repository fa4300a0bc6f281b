//! Criterion micro-benchmarks of the external-memory substrate: external
//! sort throughput, merge joins, and buffered-repository-tree operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{Rng, SeedableRng};

use ce_extmem::brt::Brt;
use ce_extmem::{semi_join, sort_by_key, DiskEnv, ExtFile, IoConfig};

fn env_small() -> DiskEnv {
    // Small budget so sorts take multiple merge passes, as in the real runs.
    DiskEnv::new_temp(IoConfig::new(4 << 10, 64 << 10)).expect("env")
}

fn random_pairs(env: &DiskEnv, n: usize, seed: u64) -> ExtFile<(u32, u32)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut w = env.writer::<(u32, u32)>("bench-in").unwrap();
    for _ in 0..n {
        w.push((rng.gen(), rng.gen())).unwrap();
    }
    w.finish().unwrap()
}

fn bench_external_sort(c: &mut Criterion) {
    let mut g = c.benchmark_group("external_sort");
    g.sample_size(10);
    for &n in &[10_000usize, 50_000, 200_000] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let env = env_small();
            let input = random_pairs(&env, n, 7);
            b.iter(|| {
                let sorted = sort_by_key(&env, &input, "bench-out", |r| *r).unwrap();
                std::hint::black_box(sorted.len())
            });
        });
    }
    g.finish();
}

fn bench_merge_fanin(c: &mut Criterion) {
    // Pins the MergeStream hot loop at its two fan-in regimes. Under
    // env_small's geometry (64 KiB budget / 8 B records = 8192-record
    // runs), 16384 records form exactly two runs — the dedicated two-run
    // merge loop — while 65536 records form eight and go through the
    // monomorphized k-way heap. A regression in either inner loop shows up
    // here as a per-element throughput delta.
    let mut g = c.benchmark_group("merge_fanin");
    g.sample_size(10);
    for (label, n) in [("2_runs", 16_384usize), ("8_runs", 65_536)] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(label), &n, |b, &n| {
            let env = env_small();
            let input = random_pairs(&env, n, 11);
            b.iter(|| {
                let sorted = sort_by_key(&env, &input, "bench-merge", |r| *r).unwrap();
                std::hint::black_box(sorted.len())
            });
        });
    }
    g.finish();
}

fn bench_semi_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("semi_join");
    g.sample_size(10);
    let n = 100_000usize;
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("100k_probe_10k", |b| {
        let env = env_small();
        let left = sort_by_key(&env, &random_pairs(&env, n, 3), "l", |r| r.0).unwrap();
        let keys: Vec<u32> = (0..10_000u32).map(|i| i * 391).collect();
        let right = env.file_from_slice("r", &keys).unwrap();
        let right = sort_by_key(&env, &right, "rs", |&k| k).unwrap();
        b.iter(|| {
            let out = semi_join(&env, "o", &left, |r| r.0, &right, |&k| k).unwrap();
            std::hint::black_box(out.len())
        });
    });
    g.finish();
}

fn bench_brt(c: &mut Criterion) {
    let mut g = c.benchmark_group("brt");
    g.sample_size(10);
    g.bench_function("insert_100k", |b| {
        b.iter(|| {
            let env = env_small();
            let mut brt = Brt::new(&env, "b");
            for i in 0..100_000u32 {
                brt.insert(i % 4096, i).unwrap();
            }
            std::hint::black_box(brt.disk_items())
        });
    });
    g.bench_function("extract_after_100k", |b| {
        let env = env_small();
        let mut brt = Brt::new(&env, "b");
        for i in 0..100_000u32 {
            brt.insert(i % 4096, i).unwrap();
        }
        let mut out = Vec::new();
        let mut key = 0u32;
        b.iter(|| {
            out.clear();
            key = (key + 1) % 4096;
            brt.extract(key, &mut out).unwrap();
            std::hint::black_box(out.len())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_external_sort,
    bench_merge_fanin,
    bench_semi_join,
    bench_brt
);
criterion_main!(benches);
