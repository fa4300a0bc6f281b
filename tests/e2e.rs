//! Cross-crate end-to-end tests: every algorithm in the workspace must agree
//! with in-memory Tarjan — and therefore with each other — on shared
//! workloads. All dispatch goes through the unified `SccAlgorithm` trait.

use contract_expand::em_scc::{em_scc, EmSccConfig};
use contract_expand::graph::csr::CsrGraph;
use contract_expand::graph::labels::same_partition;
use contract_expand::graph::tarjan::tarjan_scc;
use contract_expand::harness::full_registry;
use contract_expand::prelude::*;

/// Budget whose base case fits at most 1,792 nodes: the Ext-SCC runs below
/// (2,000 nodes and up) must contract.
fn tight_env() -> DiskEnv {
    DiskEnv::new_temp(IoConfig::new(1 << 10, 16 << 10)).unwrap()
}

fn truth(g: &EdgeListGraph) -> Vec<u32> {
    let edges = g.edges_in_memory().unwrap();
    tarjan_scc(&CsrGraph::from_edges(g.n_nodes(), &edges)).comp
}

#[test]
fn all_algorithms_agree_on_web_graph() {
    let env = tight_env();
    let g = gen::web_like(&env, 3000, 4.0, 11).unwrap();

    // The extended registry — oracles, both Ext-SCC variants, both semi
    // variants, both DFS variants, EM-SCC — graded by the harness itself
    // (partition equivalence, invariants; EM-SCC may DNF).
    let verdicts =
        contract_expand::harness::verify_graph_with(&env, &g, &full_registry()).unwrap();
    assert_eq!(verdicts.len(), full_registry().len());
    for v in &verdicts {
        assert!(v.ok(), "{}: {:?}", v.algo, v.detail);
    }
}

#[test]
fn all_semi_variants_agree_inside_ext_scc() {
    let env = tight_env();
    let g = gen::web_like(&env, 2500, 4.0, 13).unwrap();
    let t = truth(&g);
    for semi in [SemiSccKind::Coloring, SemiSccKind::SpanningTree] {
        let mut cfg = ExtSccConfig::optimized();
        cfg.semi = semi;
        let out = ExtScc::new(&env, cfg).run(&g).unwrap();
        assert!(out.report.iterations() >= 1, "semi {semi:?} must contract");
        let lab = SccLabeling::from_file(&out.labels, g.n_nodes()).unwrap();
        assert!(same_partition(&lab.rep, &t), "semi {semi:?}");
    }
}

#[test]
fn em_scc_agrees_when_it_terminates() {
    // Sequential-id disjoint cycles: high chunk locality, EM-SCC succeeds.
    let env = tight_env();
    let g = gen::disjoint_cycles(&env, &[64; 50]).unwrap();
    let t = truth(&g);
    let (labels, report) = em_scc(&env, &g, &EmSccConfig::default()).unwrap();
    let lab = SccLabeling::from_file(&labels, g.n_nodes()).unwrap();
    assert!(same_partition(&lab.rep, &t));
    assert_eq!(report.n_sccs, 50);

    let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
    assert!(out.report.iterations() >= 1);
    assert_eq!(out.report.n_sccs, 50);
}

#[test]
fn table1_datasets_recover_planted_components() {
    for dataset in gen::Dataset::ALL {
        let env = tight_env();
        let spec = gen::SyntheticSpec::table1(dataset, 4000, 4.0, 21);
        let g = gen::planted_scc_graph(&env, &spec).unwrap();
        let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
        assert!(out.report.iterations() >= 1, "{dataset:?} must contract");
        let lab = SccLabeling::from_file(&out.labels, g.n_nodes()).unwrap();
        assert!(same_partition(&lab.rep, &truth(&g)), "{dataset:?}");
        // Acyclic filler: the planted components are exactly the non-trivial
        // SCCs.
        let expected: u64 = spec.planted.iter().map(|p| p.count as u64).sum();
        let nontrivial = lab
            .size_histogram()
            .into_iter()
            .filter(|&s| s > 1)
            .count() as u64;
        assert_eq!(nontrivial, expected, "{dataset:?}");
    }
}

#[test]
fn text_roundtrip_pipeline() {
    // Text file -> EdgeListGraph -> Ext-SCC -> labels.
    let env = tight_env();
    let path = env.root().join("input.txt");
    std::fs::write(&path, "# demo\n0 1\n1 2\n2 0\n2 3\n3 4\n4 3\n").unwrap();
    let g = EdgeListGraph::from_text(&env, &path, None).unwrap();
    let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
    assert_eq!(out.report.n_sccs, 2);
    let lab = SccLabeling::from_file(&out.labels, g.n_nodes()).unwrap();
    assert_eq!(lab.rep[0], lab.rep[1]);
    assert_eq!(lab.rep[3], lab.rep[4]);
    assert_ne!(lab.rep[0], lab.rep[3]);
}

#[test]
fn condensation_of_ext_scc_output_is_acyclic() {
    let env = tight_env();
    let g = gen::web_like(&env, 2000, 5.0, 3).unwrap();
    let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
    assert!(out.report.iterations() >= 1);
    let lab = SccLabeling::from_file(&out.labels, g.n_nodes()).unwrap();
    let edges = g.edges_in_memory().unwrap();
    let (n, _, dag_edges) = lab.condense(&edges);
    // The condensation must have no cycles: all its SCCs are singletons.
    let dag = CsrGraph::from_edges(n as u64, &dag_edges);
    assert_eq!(tarjan_scc(&dag).count as usize, n);
}
