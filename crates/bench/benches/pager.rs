//! Criterion comparison of storage settings on the end-to-end Ext-SCC-Op
//! workload: the unpooled seed-faithful path vs. the buffer pool vs. the
//! buffer pool over a scratch directory on a tmpfs (`/dev/shm` where it
//! exists: scratch in RAM). Logical model I/Os are identical across all
//! three by construction (asserted here); what changes is physical traffic
//! and wall-clock.

use std::path::Path;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use ce_core::{ExtScc, ExtSccConfig};
use ce_extmem::{DiskEnv, EnvOptions, IoConfig, IoSnapshot};
use ce_graph::gen::{self, Dataset, SyntheticSpec};

fn bench_pager(c: &mut Criterion) {
    let mut g = c.benchmark_group("pager");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    let n = 20_000u32;
    let budget = ce_semi_scc::mem_required(
        ce_semi_scc::SemiSccKind::Coloring,
        n as u64 / 2,
        &IoConfig::new(8 << 10, 64 << 10),
    ) as usize;
    let cfg = IoConfig::new(8 << 10, budget);
    let shm = Path::new("/dev/shm");
    let tmpfs = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let tmpfs_dir = tmpfs.join(format!("ce-bench-pager-{}", std::process::id()));

    let mut logical: Vec<(&str, IoSnapshot)> = Vec::new();
    for (name, scratch, opts) in [
        ("ext_scc_op_unpooled", None, EnvOptions::unpooled()),
        ("ext_scc_op_pooled", None, EnvOptions::pooled(&cfg)),
        (
            "ext_scc_op_tmpfs",
            Some(&tmpfs_dir),
            EnvOptions::pooled(&cfg),
        ),
    ] {
        let env = match scratch {
            Some(dir) => DiskEnv::new_in_with(dir, cfg, opts),
            None => DiskEnv::new_temp_with(cfg, opts),
        }
        .expect("env");
        let spec = SyntheticSpec::table1(Dataset::Large, n, 4.0, 88);
        let graph = gen::planted_scc_graph(&env, &spec).unwrap();
        let io0 = env.stats().snapshot();
        let phys0 = env.phys();
        let mut runs = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&graph).unwrap();
                runs += 1;
                std::hint::black_box(out.report.n_sccs)
            });
        });
        let per_run_logical = div_snapshot(env.stats().snapshot().since(&io0), runs);
        let phys = env.phys().since(&phys0);
        println!(
            "pager/{name}: logical {} I/Os per run; physical over {runs} runs: {}",
            per_run_logical.total_ios(),
            phys
        );
        logical.push((name, per_run_logical));
    }
    std::fs::remove_dir_all(&tmpfs_dir).ok();
    for (name, snap) in &logical[1..] {
        assert_eq!(
            snap, &logical[0].1,
            "{name}: logical I/Os diverged from the unpooled baseline"
        );
    }
    g.finish();
}

fn div_snapshot(s: IoSnapshot, by: u64) -> IoSnapshot {
    let by = by.max(1);
    IoSnapshot {
        seq_reads: s.seq_reads / by,
        rand_reads: s.rand_reads / by,
        seq_writes: s.seq_writes / by,
        rand_writes: s.rand_writes / by,
        bytes_read: s.bytes_read / by,
        bytes_written: s.bytes_written / by,
    }
}

criterion_group!(benches, bench_pager);
criterion_main!(benches);
