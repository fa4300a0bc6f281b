//! End-to-end acceptance of the `ce-pager` subsystem: the buffer pool must
//! leave the paper's logical I/O accounting bit-for-bit unchanged while
//! actually moving fewer blocks.

use contract_expand::prelude::*;

/// One fixed contraction-forcing workload, mirroring the `end_to_end` bench
/// shape at integration-test scale.
fn workload(env: &DiskEnv) -> contract_expand::graph::EdgeListGraph {
    contract_expand::graph::gen::web_like(env, 8_000, 4.0, 88).unwrap()
}

fn cfg() -> IoConfig {
    // Budget fits under half the nodes' 8-byte base-case state (3,584 of
    // 8,000): contraction genuinely runs.
    IoConfig::new(4 << 10, 36 << 10)
}

/// The ISSUE's acceptance criterion: a pooled Ext-SCC-Op run reports
/// strictly fewer physical transfers than logical model I/Os (with cache
/// hits), while the logical `IoStats` are identical to an unpooled run.
#[test]
fn pooled_run_same_logical_ios_fewer_physical_transfers() {
    let run = |opts: EnvOptions| {
        let env = DiskEnv::new_temp_with(cfg(), opts).unwrap();
        let g = workload(&env);
        let io0 = env.stats().snapshot();
        let phys0 = env.phys();
        let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
        assert!(out.report.iterations() >= 1, "the workload must contract");
        (
            out.report.n_sccs,
            env.stats().snapshot().since(&io0),
            env.phys().since(&phys0),
        )
    };

    let (sccs_plain, logical_plain, phys_plain) = run(EnvOptions::unpooled());
    let (sccs_pooled, logical_pooled, phys_pooled) = run(EnvOptions::pooled(&cfg()));

    assert_eq!(sccs_plain, sccs_pooled);
    assert_eq!(
        logical_plain, logical_pooled,
        "the pool must not change the paper's logical I/O accounting"
    );
    assert!(phys_pooled.hits > 0, "pool never hit: {phys_pooled}");
    assert!(
        phys_pooled.transfers() < logical_pooled.total_ios(),
        "pooled physical transfers ({}) must undercut logical I/Os ({}); {phys_pooled}",
        phys_pooled.transfers(),
        logical_pooled.total_ios()
    );
    assert!(
        phys_pooled.transfers() < phys_plain.transfers(),
        "pooling must reduce physical traffic: {} vs {}",
        phys_pooled.transfers(),
        phys_plain.transfers()
    );
    // Unpooled mode is pass-through: it serves nothing from a cache.
    assert_eq!(phys_plain.hits, 0);
}

/// Injected faults propagate through the buffer pool: they fire on physical
/// transfers (miss fills, write-backs), so a pooled algorithm run still
/// surfaces them as I/O errors instead of completing from cache.
#[test]
fn faults_propagate_through_the_pool() {
    let env = DiskEnv::new_temp_with(cfg(), EnvOptions::pooled(&cfg())).unwrap();
    let g = workload(&env);
    // Calibrate against a clean pooled run's physical volume.
    let phys0 = env.phys();
    ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
    let clean = env.phys().since(&phys0).transfers();
    assert!(clean > 100, "calibration run too small: {clean}");

    for after in [1u64, clean / 2] {
        env.inject_fault_after(after);
        let r = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g);
        env.clear_fault();
        match r {
            Err(ExtSccError::Io(e)) => assert!(e.to_string().contains("injected")),
            Ok(_) => panic!("pooled run must fail with injected fault at {after}"),
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
}
