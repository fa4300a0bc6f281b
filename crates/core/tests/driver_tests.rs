//! End-to-end tests of the Ext-SCC driver against in-memory Tarjan, across
//! opt levels, memory budgets, and graph families — plus error-path and
//! invariant coverage.

use std::time::Duration;

use ce_core::invariants::check_contraction;
use ce_core::{build_orders, get_e, get_v, ExtScc, ExtSccConfig, ExtSccError, GetEOptions, GetVOptions};
use ce_extmem::{DiskEnv, IoConfig};
use ce_graph::csr::CsrGraph;
use ce_graph::gen;
use ce_graph::labels::{same_partition, SccLabeling};
use ce_graph::tarjan::tarjan_scc;
use ce_graph::EdgeListGraph;

/// Budget small enough that graphs above 1,280 nodes need contraction.
fn tight_env() -> DiskEnv {
    DiskEnv::new_temp(IoConfig::new(1 << 10, 12 << 10)).unwrap()
}

/// Budget that fits everything: the driver must skip contraction entirely.
fn roomy_env() -> DiskEnv {
    DiskEnv::new_temp(IoConfig::new(1 << 12, 8 << 20)).unwrap()
}

fn check_matches_tarjan(env: &DiskEnv, g: &EdgeListGraph, cfg: ExtSccConfig) -> ce_core::RunReport {
    let out = ExtScc::new(env, cfg).run(g).expect("run succeeds");
    let labeling = SccLabeling::from_file(&out.labels, g.n_nodes()).expect("dense labels");
    assert!(labeling.reps_are_members(), "labels must point at members");
    let edges = g.edges_in_memory().unwrap();
    let truth = tarjan_scc(&CsrGraph::from_edges(g.n_nodes(), &edges));
    assert!(
        same_partition(&labeling.rep, &truth.comp),
        "partition mismatch (n={}, m={})",
        g.n_nodes(),
        g.n_edges()
    );
    assert_eq!(out.report.n_sccs, truth.count as u64);
    out.report
}

/// [`check_matches_tarjan`] for a `tight_env` run: those runs exist to cover
/// contraction, so at least one iteration must have run.
fn check_contracted(env: &DiskEnv, g: &EdgeListGraph, cfg: ExtSccConfig) -> ce_core::RunReport {
    let report = check_matches_tarjan(env, g, cfg);
    assert!(
        report.iterations() >= 1,
        "tight budget must force contraction (n={})",
        g.n_nodes()
    );
    report
}

#[test]
fn cycle_needs_contraction_and_matches() {
    let env = tight_env();
    let g = gen::permuted_cycle(&env, 4000, 3).unwrap();
    check_contracted(&env, &g, ExtSccConfig::baseline());
}

#[test]
fn sequential_cycle_is_not_adversarial_anymore() {
    // Historical regression: with the raw-id tie-break, sequential ids made
    // every cycle node except the global minimum win some `>` comparison,
    // so the baseline cover shrank by ~1 node per iteration and this exact
    // configuration hit the 24-iteration cap. The spread tie-break
    // (`ce_core::spread`) removes the id/topology correlation, so baseline
    // mode must now converge comfortably — and still agree with Tarjan.
    let env = tight_env();
    let g = gen::cycle(&env, 4000).unwrap();
    let mut cfg = ExtSccConfig::baseline();
    cfg.max_iterations = 24;
    let report = check_contracted(&env, &g, cfg);
    assert!(
        report.iterations() <= 24,
        "baseline must no longer stall on sequential cycles, took {}",
        report.iterations()
    );
    let report = check_contracted(&env, &g, ExtSccConfig::optimized());
    assert!(report.iterations() <= 24);
}

#[test]
fn optimized_matches_on_cycle() {
    let env = tight_env();
    let g = gen::cycle(&env, 4000).unwrap();
    check_contracted(&env, &g, ExtSccConfig::optimized());
}

#[test]
fn roomy_budget_skips_contraction() {
    let env = roomy_env();
    let g = gen::cycle(&env, 2000).unwrap();
    let report = check_matches_tarjan(&env, &g, ExtSccConfig::optimized());
    assert_eq!(report.iterations(), 0);
}

#[test]
fn path_graph_all_singletons() {
    let env = tight_env();
    let g = gen::path(&env, 3000).unwrap();
    let report = check_contracted(&env, &g, ExtSccConfig::optimized());
    assert_eq!(report.n_sccs, 3000);
}

#[test]
fn disjoint_cycles_both_modes() {
    // Planted (randomly-permuted) cycles with no filler edges: 4 cycles plus
    // one leftover singleton node.
    let spec = gen::SyntheticSpec {
        n_nodes: 2501,
        avg_degree: 0.0,
        planted: vec![
            gen::PlantedScc { count: 1, size: 1000 },
            gen::PlantedScc { count: 1, size: 700 },
            gen::PlantedScc { count: 1, size: 500 },
            gen::PlantedScc { count: 1, size: 300 },
        ],
        acyclic_filler: true,
        seed: 8,
    };
    for cfg in [ExtSccConfig::baseline(), ExtSccConfig::optimized()] {
        let env = tight_env();
        let g = gen::planted_scc_graph(&env, &spec).unwrap();
        let report = check_contracted(&env, &g, cfg);
        assert_eq!(report.n_sccs, 5);
    }
}

#[test]
fn planted_sccs_with_random_filler() {
    let spec = gen::SyntheticSpec {
        n_nodes: 3000,
        avg_degree: 3.0,
        planted: vec![gen::PlantedScc { count: 3, size: 120 }],
        acyclic_filler: false,
        seed: 17,
    };
    for cfg in [ExtSccConfig::baseline(), ExtSccConfig::optimized()] {
        let env = tight_env();
        let g = gen::planted_scc_graph(&env, &spec).unwrap();
        check_contracted(&env, &g, cfg);
    }
}

#[test]
fn web_like_graph_both_modes() {
    for cfg in [ExtSccConfig::baseline(), ExtSccConfig::optimized()] {
        let env = tight_env();
        let g = gen::web_like(&env, 2500, 4.0, 23).unwrap();
        check_contracted(&env, &g, cfg);
    }
}

#[test]
fn dag_layered_all_singletons() {
    let env = tight_env();
    let g = gen::dag_layered(&env, 2400, 8, 7200, 5).unwrap();
    let report = check_contracted(&env, &g, ExtSccConfig::optimized());
    assert_eq!(report.n_sccs, 2400);
}

#[test]
fn random_gnm_matrix() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    for case in 0..6 {
        let n = rng.gen_range(1500..3500u32);
        let m = n as u64 * rng.gen_range(1..5u64);
        let env = tight_env();
        let g = gen::random_gnm(&env, n, m, case).unwrap();
        let cfg = if case % 2 == 0 {
            ExtSccConfig::baseline()
        } else {
            ExtSccConfig::optimized()
        };
        check_contracted(&env, &g, cfg);
    }
}

#[test]
fn isolated_nodes_are_singletons() {
    // Universe of 2000 nodes, edges touch only the first 100.
    let env = tight_env();
    let edges: Vec<(u32, u32)> = (0..100).map(|i| (i, (i + 1) % 100)).collect();
    let g = EdgeListGraph::from_slice(&env, 2000, &edges).unwrap();
    let report = check_contracted(&env, &g, ExtSccConfig::optimized());
    assert_eq!(report.n_sccs, 1901); // one 100-cycle + 1900 isolated singletons
}

#[test]
fn empty_graph_and_single_node() {
    let env = roomy_env();
    let g = EdgeListGraph::from_slice(&env, 1, &[]).unwrap();
    let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
    assert_eq!(out.report.n_sccs, 1);

    let g0 = EdgeListGraph::from_slice(&env, 0, &[]).unwrap();
    let out0 = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g0).unwrap();
    assert_eq!(out0.report.n_sccs, 0);
    assert!(out0.labels.is_empty());
}

#[test]
fn self_loops_and_parallel_edges_survive() {
    let env = tight_env();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..2000u32 {
        edges.push((i, (i + 1) % 2000));
        if i % 7 == 0 {
            edges.push((i, i)); // self-loops
            edges.push((i, (i + 1) % 2000)); // parallels
        }
    }
    let g = EdgeListGraph::from_slice(&env, 2000, &edges).unwrap();
    for cfg in [ExtSccConfig::baseline(), ExtSccConfig::optimized()] {
        check_contracted(&env, &g, cfg.clone());
    }
}

#[test]
fn deadline_zero_reports_inf() {
    let env = tight_env();
    let g = gen::cycle(&env, 4000).unwrap();
    let mut cfg = ExtSccConfig::optimized();
    cfg.deadline = Some(Duration::ZERO);
    match ExtScc::new(&env, cfg).run(&g) {
        Err(ExtSccError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn io_limit_reports_inf() {
    let env = tight_env();
    let g = gen::cycle(&env, 4000).unwrap();
    let mut cfg = ExtSccConfig::optimized();
    cfg.io_limit = Some(1);
    match ExtScc::new(&env, cfg).run(&g) {
        Err(ExtSccError::IoLimitExceeded { .. }) => {}
        other => panic!("expected IoLimitExceeded, got {other:?}"),
    }
}

#[test]
fn baseline_contracts_uniform_cycles_fast() {
    // Regression for the ROADMAP open item: with the raw-id tie-break,
    // baseline-mode Get-V on a uniform cycle removed ~1 node per iteration
    // (node i+1 dominated node i along every edge) and a 50k-node cycle
    // aborted at the 256-iteration cap. The spread tie-break must remove a
    // constant fraction of nodes per iteration instead.
    let env = DiskEnv::new_temp(IoConfig::new(4 << 10, 64 << 10)).unwrap();
    let g = gen::cycle(&env, 50_000).unwrap();
    let out = ExtScc::new(&env, ExtSccConfig::baseline())
        .run(&g)
        .expect("baseline must converge on a 50k cycle under a 64K budget");
    assert_eq!(out.report.n_sccs, 1, "a cycle is one SCC");
    assert!(
        out.report.iterations() <= 40,
        "contraction too slow: {} iterations",
        out.report.iterations()
    );
    for it in &out.report.contraction {
        assert!(
            it.removed * 8 >= it.n_nodes,
            "level {}: removed only {} of {} nodes",
            it.level,
            it.removed,
            it.n_nodes
        );
    }
}

#[test]
fn iteration_limit_surfaces() {
    let env = tight_env();
    let g = gen::cycle(&env, 4000).unwrap();
    let mut cfg = ExtSccConfig::optimized();
    cfg.max_iterations = 0;
    match ExtScc::new(&env, cfg).run(&g) {
        Err(ExtSccError::IterationLimit { .. }) => {}
        other => panic!("expected IterationLimit, got {other:?}"),
    }
}

#[test]
fn injected_fault_propagates_as_io_error() {
    let env = tight_env();
    let g = gen::cycle(&env, 4000).unwrap();
    env.inject_fault_after(500);
    let result = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g);
    env.clear_fault();
    match result {
        Err(ExtSccError::Io(e)) => assert!(e.to_string().contains("injected")),
        other => panic!("expected Io error, got {other:?}"),
    }
}

#[test]
fn report_trajectory_is_consistent() {
    let env = tight_env();
    let g = gen::web_like(&env, 3000, 4.0, 9).unwrap();
    let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
    let r = &out.report;
    assert!(r.iterations() >= 1);
    for (k, it) in r.contraction.iter().enumerate() {
        assert_eq!(it.level, k + 1);
        assert_eq!(it.n_nodes - it.cover_size, it.removed);
        assert!(it.cover_size < it.n_nodes, "strict contraction");
        if k + 1 < r.contraction.len() {
            assert_eq!(r.contraction[k + 1].n_nodes, it.cover_size);
        }
    }
    assert_eq!(
        r.base_nodes,
        r.contraction.last().unwrap().cover_size,
        "base case gets the last cover"
    );
    assert_eq!(r.expansion.len(), r.iterations());
    // Expansion walks levels in reverse.
    let levels: Vec<usize> = r.expansion.iter().map(|e| e.level).collect();
    let mut sorted = levels.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(levels, sorted);
    // Total removed over all expansions = |V| - base nodes.
    let removed_total: u64 = r.expansion.iter().map(|e| e.removed).sum();
    assert_eq!(removed_total, g.n_nodes() - r.base_nodes);
    // The display form renders without panicking and mentions iterations.
    let text = format!("{r}");
    assert!(text.contains("iterations"));
}

#[test]
fn per_level_invariants_hold_on_real_contractions() {
    // Run Get-V/Get-E manually for three levels on a web-like graph and
    // check the Section-V invariants at every level, in both modes.
    for (type1, order) in [
        (false, ce_core::OrderKind::Degree),
        (true, ce_core::OrderKind::DegreeProduct),
    ] {
        let env = roomy_env();
        let g = gen::web_like(&env, 800, 3.0, 77).unwrap();
        let mut edges = g.edges().clone();
        for _level in 0..3 {
            let orders = build_orders(&env, &edges, true).unwrap();
            let (cover, _) = get_v(
                &env,
                &orders,
                &GetVOptions {
                    order,
                    type1,
                    type2_capacity: 128,
                },
            )
            .unwrap();
            let ge = get_e(
                &env,
                &orders,
                &cover,
                &GetEOptions {
                    filter_endpoints: type1,
                    drop_self_loops: type1,
                },
            )
            .unwrap();
            let violations =
                check_contraction(g.n_nodes(), &orders.ein, &cover, &ge.edges, type1).unwrap();
            assert!(violations.is_empty(), "type1={type1}: {violations:?}");
            edges = ge.edges;
        }
    }
}

#[test]
fn blowup_guard_forces_dedup_and_reports_it() {
    // Baseline without lazy dedup and a guard of 0: the very first iteration
    // exceeds `0 × |E_1|`, so the valve must kick in and be reported.
    let env = tight_env();
    let g = gen::web_like(&env, 3000, 4.0, 9).unwrap();
    let mut cfg = ExtSccConfig::baseline();
    cfg.lazy_dedup = false;
    cfg.edge_blowup_guard = Some(0.0);
    let out = ExtScc::new(&env, cfg).run(&g).unwrap();
    assert!(out.report.forced_dedup, "valve must report itself");

    // With the valve disabled and dedup off, the run still completes here
    // (web graphs at this scale don't blow up) and must not set the flag.
    let mut cfg = ExtSccConfig::baseline();
    cfg.lazy_dedup = false;
    cfg.edge_blowup_guard = None;
    let out = ExtScc::new(&env, cfg).run(&g).unwrap();
    assert!(!out.report.forced_dedup);
    check_contracted(&env, &g, {
        let mut c = ExtSccConfig::baseline();
        c.lazy_dedup = false;
        c.edge_blowup_guard = None;
        c
    });
}

#[test]
fn permuted_cycle_contracts_geometrically() {
    // Shuffled ids give ~n/3 local minima per round, so baseline contraction
    // converges in O(log n) iterations — the regime real graphs live in.
    let env = tight_env();
    let g = gen::permuted_cycle(&env, 4000, 5).unwrap();
    let report = check_contracted(&env, &g, ExtSccConfig::baseline());
    assert!(
        report.iterations() <= 12,
        "geometric convergence expected, took {}",
        report.iterations()
    );
    for it in &report.contraction {
        assert!(
            it.removed * 5 >= it.n_nodes,
            "level {} removed only {} of {}",
            it.level,
            it.removed,
            it.n_nodes
        );
    }
}

#[test]
fn semi_scc_variants_agree_end_to_end() {
    let env = tight_env();
    let g = gen::web_like(&env, 2500, 4.0, 31).unwrap();
    let mut cfg_sp = ExtSccConfig::optimized();
    cfg_sp.semi = ce_semi_scc::SemiSccKind::SpanningTree;
    check_contracted(&env, &g, cfg_sp);
}
