//! Property-based tests (proptest) on the paper's core invariants.
//!
//! Graph strategy: arbitrary directed multigraphs with up to 64 nodes and
//! 250 edges (duplicates and self-loops included — the external pipeline must
//! tolerate both). Each property is checked in both Ext-SCC modes.

use proptest::prelude::*;

use contract_expand::core::invariants::check_contraction;
use contract_expand::core::{
    build_orders, get_e, get_v, ExtScc, ExtSccConfig, GetEOptions, GetVOptions, OrderKind,
};
use contract_expand::extmem::{sort_by_key, sort_dedup_by_key};
use contract_expand::graph::csr::CsrGraph;
use contract_expand::graph::labels::same_partition;
use contract_expand::graph::tarjan::tarjan_scc;
use contract_expand::prelude::*;

fn tiny_env() -> DiskEnv {
    // 256-byte blocks: even 60-node graphs span multiple blocks.
    DiskEnv::new_temp(IoConfig::new(256, 4 << 10)).unwrap()
}

fn arb_graph() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2u32..64).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..250);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, .. ProptestConfig::default()
    })]

    /// End to end: Ext-SCC equals Tarjan in both modes, on any multigraph.
    #[test]
    fn ext_scc_matches_tarjan((n, edge_list) in arb_graph()) {
        let env = tiny_env();
        let g = EdgeListGraph::from_slice(&env, n as u64, &edge_list).unwrap();
        let edges = g.edges_in_memory().unwrap();
        let t = tarjan_scc(&CsrGraph::from_edges(n as u64, &edges));
        for cfg in [ExtSccConfig::baseline(), ExtSccConfig::optimized()] {
            let out = ExtScc::new(&env, cfg).run(&g).unwrap();
            let lab = SccLabeling::from_file(&out.labels, n as u64).unwrap();
            prop_assert!(same_partition(&lab.rep, &t.comp));
            prop_assert_eq!(out.report.n_sccs, t.count as u64);
            prop_assert!(lab.reps_are_members());
        }
    }

    /// Differential property, via the harness entry point: on any multigraph
    /// and under any storage `EnvOptions` (backend × pool size), every
    /// registered `SccAlgorithm` yields the same normalized partition as the
    /// Tarjan oracle (EM-SCC may report a structured DNF instead).
    #[test]
    fn all_algorithms_match_tarjan_under_any_storage(
        (n, edge_list) in arb_graph(),
        mem_backend in any::<bool>(),
        cache_blocks in 0usize..8,
    ) {
        let opts = EnvOptions::default()
            .with_backend(if mem_backend { BackendKind::Mem } else { BackendKind::File })
            .with_cache_blocks(cache_blocks);
        let env = DiskEnv::new_temp_with(IoConfig::new(256, 4 << 10), opts).unwrap();
        let g = EdgeListGraph::from_slice(&env, n as u64, &edge_list).unwrap();
        let verdicts = contract_expand::harness::verify_graph(&env, &g).unwrap();
        for v in &verdicts {
            prop_assert!(v.ok(), "{} under {:?}: {:?}", v.algo, opts, v.detail);
        }
    }

    /// One contraction round satisfies contractible/recoverable/preservable
    /// (Lemmas 5.1-5.3) in baseline mode, and the relaxed variants with
    /// Type-1 enabled.
    #[test]
    fn contraction_invariants_hold((n, edge_list) in arb_graph()) {
        let env = tiny_env();
        let g = EdgeListGraph::from_slice(&env, n as u64, &edge_list).unwrap();
        for (type1, order) in [
            (false, OrderKind::Degree),
            (true, OrderKind::DegreeProduct),
        ] {
            let orders = build_orders(&env, g.edges(), true).unwrap();
            let (cover, _) = get_v(&env, &orders, &GetVOptions {
                order,
                type1,
                type2_capacity: 16,
            }).unwrap();
            let ge = get_e(&env, &orders, &cover, &GetEOptions {
                filter_endpoints: type1,
                drop_self_loops: true,
            }).unwrap();
            let violations =
                check_contraction(n as u64, &orders.ein, &cover, &ge.edges, type1).unwrap();
            prop_assert!(violations.is_empty(), "type1={}: {:?}", type1, violations);
        }
    }

    /// The cover never contains the `>`-smallest incident node (Lemma 5.2's
    /// witness), so contraction always makes progress.
    #[test]
    fn cover_is_strictly_smaller((n, edge_list) in arb_graph()) {
        prop_assume!(!edge_list.is_empty());
        let env = tiny_env();
        let g = EdgeListGraph::from_slice(&env, n as u64, &edge_list).unwrap();
        let orders = build_orders(&env, g.edges(), true).unwrap();
        let (cover, _) = get_v(&env, &orders, &GetVOptions::default()).unwrap();
        let incident: std::collections::HashSet<u32> = edge_list
            .iter()
            .flat_map(|&(u, v)| [u, v])
            .collect();
        prop_assert!((cover.len() as usize) < incident.len().max(1));
    }

    /// External sort sorts, preserves multiplicity; sort+dedup yields the set.
    #[test]
    fn sort_laws(mut items in prop::collection::vec(any::<u32>(), 0..400)) {
        let env = tiny_env();
        let f = env.file_from_slice("in", &items).unwrap();
        let sorted = sort_by_key(&env, &f, "s", |&x| x).unwrap().read_all().unwrap();
        let deduped = sort_dedup_by_key(&env, &f, "d", |&x| x).unwrap().read_all().unwrap();
        items.sort_unstable();
        prop_assert_eq!(&sorted, &items);
        items.dedup();
        prop_assert_eq!(&deduped, &items);
    }

    /// The persistent `SccIndex` round-trips: build from any multigraph's
    /// Tarjan labeling, close, reopen in a fresh environment, and every
    /// `component_of` / `component_size` / `same_component` answer matches
    /// the oracle.
    #[test]
    fn scc_index_roundtrips_against_tarjan((n, edge_list) in arb_graph()) {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let env = tiny_env();
        let g = EdgeListGraph::from_slice(&env, n as u64, &edge_list).unwrap();
        let edges = g.edges_in_memory().unwrap();
        let truth = tarjan_scc(&CsrGraph::from_edges(n as u64, &edges));
        let reps = truth.canonical_reps();

        let run = TarjanOracle.run(&env, &g).unwrap();
        let path = std::env::temp_dir().join(format!(
            "ce-prop-idx-{}-{}.sccidx",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let n_sccs = SccIndex::build(&env, &path, &run.labels, n as u64, None).unwrap();
        prop_assert_eq!(n_sccs, truth.count as u64);

        // Reopen in a fresh environment: nothing cached from the build.
        let fresh = tiny_env();
        let mut idx = SccIndex::open(&fresh, &path).unwrap();
        prop_assert_eq!(idx.n_nodes(), n as u64);
        prop_assert_eq!(idx.n_sccs(), truth.count as u64);
        let mut size_of: std::collections::HashMap<u32, u64> = Default::default();
        for &r in &reps {
            *size_of.entry(r).or_insert(0) += 1;
        }
        for v in 0..n {
            prop_assert_eq!(idx.component_of(v).unwrap(), reps[v as usize], "node {}", v);
            prop_assert_eq!(
                idx.component_size(v).unwrap(),
                size_of[&reps[v as usize]],
                "size of node {}'s component", v
            );
        }
        for (u, v) in [(0, n - 1), (n / 2, n / 2), (1 % n, n / 3)] {
            prop_assert_eq!(
                idx.same_component(u, v).unwrap(),
                reps[u as usize] == reps[v as usize]
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Observability is free: running Ext-SCC with tracing enabled (an
    /// in-memory span sink) and with the disabled-path [`NullSink`]
    /// installed yields bit-identical logical `IoSnapshot`s and identical
    /// partitions on any multigraph. Spans only *read* the counters.
    #[test]
    fn tracing_is_io_transparent((n, edge_list) in arb_graph()) {
        use std::rc::Rc;
        use contract_expand::obs;

        let mut outputs = Vec::new();
        for traced in [false, true] {
            let env = tiny_env();
            let g = EdgeListGraph::from_slice(&env, n as u64, &edge_list).unwrap();
            let sink: Rc<dyn obs::Sink> = if traced {
                Rc::new(obs::MemSink::new())
            } else {
                Rc::new(obs::NullSink)
            };
            let guard = obs::install(sink);
            let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&g).unwrap();
            drop(guard);
            let lab = SccLabeling::from_file(&out.labels, n as u64).unwrap();
            outputs.push((out.report.total_ios, out.report.n_sccs, lab.rep));
        }
        let (null_ios, null_sccs, null_rep) = &outputs[0];
        let (mem_ios, mem_sccs, mem_rep) = &outputs[1];
        prop_assert_eq!(null_ios, mem_ios, "logical I/O must be sink-independent");
        prop_assert_eq!(null_sccs, mem_sccs);
        prop_assert!(same_partition(null_rep, mem_rep));
    }

    /// BRT behaves like a multimap under insert/extract/retire.
    #[test]
    fn brt_model(ops in prop::collection::vec((0u8..3, 0u32..16, any::<u32>()), 1..300)) {
        use std::collections::HashMap;
        let env = tiny_env();
        let mut brt = contract_expand::extmem::brt::Brt::new(&env, "m");
        let mut model: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut retired: std::collections::HashSet<u32> = Default::default();
        for (op, key, value) in ops {
            match op {
                0 => {
                    brt.insert(key, value).unwrap();
                    if !retired.contains(&key) {
                        model.entry(key).or_default().push(value);
                    }
                    // Items inserted after retirement may be dropped at any
                    // merge; the DFS client never does this, so the model
                    // skips them too.
                }
                1 => {
                    let mut got = Vec::new();
                    brt.extract(key, &mut got).unwrap();
                    got.sort_unstable();
                    let mut want = if retired.contains(&key) {
                        Vec::new()
                    } else {
                        model.get(&key).cloned().unwrap_or_default()
                    };
                    want.sort_unstable();
                    if !retired.contains(&key) {
                        prop_assert_eq!(got, want, "extract({})", key);
                    }
                }
                _ => {
                    brt.retire(key);
                    retired.insert(key);
                    model.remove(&key);
                }
            }
        }
    }
}
