//! Differential conformance suite: the full `ce-harness` scenario matrix —
//! {workload family × memory budget × buffer pool (off / on) ×
//! fault-injection point} × every registered `SccAlgorithm` — must pass.
//!
//! Scale is controlled by the `HARNESS_SCALE` env var (`smoke` default,
//! `full` for the extended registry, larger workloads and the roomy-memory
//! regime), so tier-1 `cargo test` stays fast while CI or a developer can
//! opt into the big sweep.

use contract_expand::harness::{
    full_registry, normalize_partition, registry, run_matrix, verify_graph, CellOutcome,
    HarnessScale,
};
use contract_expand::prelude::*;

#[test]
fn full_matrix_is_green() {
    let scale = HarnessScale::from_env();
    let report = run_matrix(scale).expect("matrix runs");
    assert!(
        report.all_ok(),
        "conformance failures:\n{}\n{report}",
        report.failures().join("\n")
    );

    // The acceptance shape of the sweep: >= 6 workload families, 2 cache
    // settings, and the 5 external engines + 2 oracles.
    let families: std::collections::BTreeSet<&str> =
        report.rows.iter().map(|r| r.family).collect();
    assert!(families.len() >= 6, "families: {families:?}");
    let storages: std::collections::BTreeSet<&str> =
        report.rows.iter().map(|r| r.storage).collect();
    assert_eq!(
        storages.len(),
        3,
        "2 cache settings + the strict-budget scenario expected: {storages:?}"
    );
    assert!(storages.contains("strict"), "strict M-total scenario present");
    assert!(report.algos.len() >= 7, "5 engines + 2 oracles: {:?}", report.algos);
    let (runs, pass, dnf, fail) = report.tally();
    assert_eq!(runs, pass + dnf + fail);
    assert!(pass > 0 && fail == 0);
    assert!(
        report.determinism_groups > 0,
        "the logical-I/O determinism check must actually compare groups"
    );

    // The planner layer: one plan per (family x budget), the planned engine
    // passed everywhere, and every scenario round-tripped an index.
    assert_eq!(report.planner_rows.len(), families.len() * {
        let budgets: std::collections::BTreeSet<&str> =
            report.rows.iter().map(|r| r.budget).collect();
        budgets.len()
    });
    assert!(report.planner_violations.is_empty(), "{:?}", report.planner_violations);
    assert_eq!(report.index_scenarios, report.rows.len());
    assert!(report.index_violations.is_empty(), "{:?}", report.index_violations);
    assert!(report.strict_note.contains("pool"), "{}", report.strict_note);
}

#[test]
fn registry_covers_the_papers_evaluation() {
    let names: Vec<&str> = registry().iter().map(|a| a.name()).collect();
    for required in ["Ext-SCC", "Ext-SCC-Op", "Semi-SCC", "DFS-SCC", "EM-SCC", "Tarjan", "Kosaraju"]
    {
        assert!(names.contains(&required), "{required} missing from {names:?}");
    }
    // Only EM-SCC is allowed to stall by design.
    for algo in full_registry() {
        assert_eq!(algo.may_stall(), algo.name() == "EM-SCC", "{}", algo.name());
    }
}

#[test]
fn verify_graph_flags_a_wrong_partition() {
    // A sanity check *of the harness itself*: a corrupted labeling must be
    // caught. We fake a broken algorithm by comparing two different graphs'
    // partitions through the public normalization helper.
    let a = normalize_partition(&[0, 0, 2, 2]);
    let b = normalize_partition(&[0, 0, 0, 3]);
    assert_ne!(a, b, "different partitions must not normalize equal");

    // And the end-to-end entry point still accepts a correct one.
    let env = DiskEnv::new_temp(IoConfig::new(512, 8 << 10)).unwrap();
    let g = gen::nested_cycles(&env, 2, 2, 3).unwrap();
    let verdicts = verify_graph(&env, &g).unwrap();
    assert!(verdicts.iter().all(|v| v.ok()), "{verdicts:?}");
    let tarjan = &verdicts[0];
    match tarjan.outcome {
        CellOutcome::Pass { n_sccs, .. } => assert_eq!(n_sccs, 2),
        ref other => panic!("oracle should pass, got {other:?}"),
    }
}

#[test]
fn matrix_runs_are_reproducible() {
    // Two sweeps of the same scenario produce identical summaries (no RNG
    // leakage, no wall-clock in the report, no hash-map ordering).
    let env = DiskEnv::new_temp(IoConfig::new(512, 8 << 10)).unwrap();
    let g = gen::rmat(&env, &gen::RmatSpec::graph500(6, 4, 3)).unwrap();
    let a: Vec<String> = verify_graph(&env, &g)
        .unwrap()
        .iter()
        .map(|v| format!("{} {}", v.algo, v.outcome))
        .collect();
    let b: Vec<String> = verify_graph(&env, &g)
        .unwrap()
        .iter()
        .map(|v| format!("{} {}", v.algo, v.outcome))
        .collect();
    assert_eq!(a, b);
}
