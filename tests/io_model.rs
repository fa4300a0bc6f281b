//! Tests of the I/O *character* the paper's argument rests on: Ext-SCC must
//! be scan/sort-dominated, external DFS random-access-dominated, and more
//! memory must mean fewer I/Os. Plus fault-injection coverage across the
//! whole stack.

use contract_expand::dfs_scc::{dfs_scc, DfsSccConfig};
use contract_expand::prelude::*;

#[test]
fn ext_scc_is_sequential_io_dominated() {
    let env = DiskEnv::new_temp(IoConfig::new(1 << 10, 32 << 10)).unwrap();
    let g = gen::web_like(&env, 4000, 4.0, 3).unwrap();
    let before = env.stats().snapshot();
    let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
    let d = env.stats().snapshot().since(&before);
    assert!(out.report.iterations() >= 1);
    assert!(
        d.random_ios() * 20 <= d.total_ios(),
        "Ext-SCC must use only scans and sorts: {d}"
    );
}

#[test]
fn dfs_scc_is_random_io_heavy() {
    let env = DiskEnv::new_temp(IoConfig::new(1 << 10, 32 << 10)).unwrap();
    let g = gen::permuted_cycle(&env, 4000, 17).unwrap();
    let cfg = DfsSccConfig::default();
    let before = env.stats().snapshot();
    let _ = dfs_scc(&env, &g, &cfg).unwrap();
    let d = env.stats().snapshot().since(&before);
    assert!(
        d.random_ios() * 3 > d.total_ios(),
        "external DFS should be random-dominated: {d}"
    );
}

#[test]
fn more_memory_means_fewer_ios_and_iterations() {
    // The paper's Figure 7/8 monotonicity, asserted end to end.
    let mut results = Vec::new();
    for budget in [24usize << 10, 32 << 10, 128 << 10] {
        let env = DiskEnv::new_temp(IoConfig::new(1 << 10, budget)).unwrap();
        let g = gen::web_like(&env, 5000, 4.0, 3).unwrap();
        let before = env.stats().snapshot();
        let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
        let d = env.stats().snapshot().since(&before);
        results.push((budget, out.report.iterations(), d.total_ios()));
    }
    assert!(
        results[0].1 >= results[1].1 && results[1].1 >= results[2].1,
        "iterations must not grow with memory: {results:?}"
    );
    assert!(
        results[0].2 > results[2].2,
        "I/Os must shrink with memory: {results:?}"
    );
    assert!(results[1].1 >= 1, "the middle budget must still contract: {results:?}");
    assert_eq!(results[2].1, 0, "largest budget should skip contraction");
}

#[test]
fn streaming_pipeline_beats_pr4_baseline_by_15_percent() {
    // Before the streaming sorted-run pipeline (every sort materialized its
    // final merge, every join re-read it), Ext-SCC-Op spent **3608** logical
    // I/Os on this exact scenario — the conformance matrix's smoke `web`
    // workload under the tight budget. Last-merge-pass elision plus fused
    // sort→join chains must keep at least a 15% logical-I/O win over that
    // baseline; the exact count today, 1638, is pinned by the golden
    // `tests/golden/verify_smoke.txt`. The scenario is
    // `ce_harness::smoke_workloads` under `ce_harness::tight_budget` — the
    // exact environment the conformance matrix runs — so the golden and this
    // test cannot drift apart.
    use contract_expand::harness;
    const PR4_BASELINE_IOS: u64 = 3608;
    let (_, n, build) = harness::smoke_workloads()
        .into_iter()
        .find(|w| w.0 == "web")
        .expect("web workload in the smoke set");
    let budget = harness::tight_budget(n);
    let env = DiskEnv::new_temp(IoConfig::new(harness::MATRIX_BLOCK, budget)).unwrap();
    let g = build(&env).unwrap();
    let before = env.stats().snapshot();
    let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
    let ios = env.stats().snapshot().since(&before).total_ios();
    assert_eq!(out.labels.len(), g.n_nodes(), "labeling must stay complete");
    assert!(out.report.iterations() >= 1, "tight budget must contract");
    assert!(
        ios * 100 <= PR4_BASELINE_IOS * 85,
        "Ext-SCC-Op used {ios} logical I/Os on the smoke web workload; the \
         streaming pipeline promises <= 85% of the PR 4 baseline ({PR4_BASELINE_IOS})"
    );
}

#[test]
fn edge_growth_is_bounded_by_arboricity_bound() {
    // Theorem 5.4: new edges per iteration <= alpha_i * |E_i| and
    // alpha_i <= ceil(sqrt(|E_i|)). Assert the per-iteration bound on a real
    // run's report.
    let env = DiskEnv::new_temp(IoConfig::new(1 << 10, 32 << 10)).unwrap();
    let g = gen::web_like(&env, 4000, 4.0, 9).unwrap();
    let out = ExtScc::new(&env, ExtSccConfig::baseline()).run(&g).unwrap();
    assert!(out.report.iterations() >= 1, "the bound needs a contraction");
    for it in &out.report.contraction {
        let alpha_bound = (it.n_edges as f64).sqrt().ceil() as u64;
        assert!(
            it.edges_add <= alpha_bound * it.n_edges.max(1),
            "level {}: E_add = {} exceeds bound",
            it.level,
            it.edges_add
        );
    }
}

#[test]
fn faults_surface_everywhere() {
    // Inject failures at several points of each algorithm's life; every one
    // must return an error (never panic, never fabricate labels).
    // 16 KiB fits the base case of 1,792 nodes, so Ext-SCC contracts.
    let env = DiskEnv::new_temp(IoConfig::new(1 << 10, 16 << 10)).unwrap();
    let g = gen::web_like(&env, 3000, 4.0, 5).unwrap();

    // Calibrate: fault points at the start, middle, and near the end of a
    // clean run's actual I/O volume.
    let before = env.stats().snapshot();
    let out = ExtScc::new(&env, ExtSccConfig::optimized())
        .run(&g)
        .unwrap();
    assert!(out.report.iterations() >= 1, "faults must hit a contraction");
    let clean_ios = env.stats().snapshot().since(&before).total_ios();
    assert!(clean_ios > 100, "calibration run too small: {clean_ios}");

    for after in [10u64, clean_ios / 2, clean_ios * 9 / 10] {
        env.inject_fault_after(after);
        let r = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g);
        env.clear_fault();
        match r {
            Err(contract_expand::core::ExtSccError::Io(e)) => {
                assert!(e.to_string().contains("injected"))
            }
            Ok(_) => panic!("run must fail with injected fault at {after}"),
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }

    env.inject_fault_after(500);
    let r = dfs_scc(&env, &g, &DfsSccConfig::default());
    env.clear_fault();
    assert!(matches!(
        r,
        Err(contract_expand::dfs_scc::DfsSccError::Io(_))
    ));

    env.inject_fault_after(500);
    let r = contract_expand::em_scc::em_scc(
        &env,
        &g,
        &contract_expand::em_scc::EmSccConfig::default(),
    );
    env.clear_fault();
    assert!(matches!(r, Err(contract_expand::em_scc::EmSccError::Io(_))));
}

#[test]
fn label_files_are_complete_and_sorted() {
    let env = DiskEnv::new_temp(IoConfig::new(1 << 10, 16 << 10)).unwrap();
    let g = gen::web_like(&env, 3000, 4.0, 7).unwrap();
    let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
    assert!(out.report.iterations() >= 1, "labels must come out of expansion");
    assert_eq!(out.labels.len(), g.n_nodes());
    let all = out.labels.read_all().unwrap();
    for (i, l) in all.iter().enumerate() {
        assert_eq!(l.node as usize, i, "dense and sorted by node");
    }
}

#[test]
fn scratch_space_is_reclaimed() {
    // All intermediate files of a run must be deleted once results drop.
    let env = DiskEnv::new_temp(IoConfig::new(1 << 10, 16 << 10)).unwrap();
    let g = gen::web_like(&env, 2000, 4.0, 7).unwrap();
    let files_before = std::fs::read_dir(env.root()).unwrap().count();
    {
        let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
        assert!(out.report.iterations() >= 1, "level files must be written");
        drop(out);
    }
    let files_after = std::fs::read_dir(env.root()).unwrap().count();
    assert_eq!(
        files_before, files_after,
        "run must not leak scratch files"
    );
}
