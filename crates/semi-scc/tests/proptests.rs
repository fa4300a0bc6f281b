//! Property tests: both semi-external algorithms equal in-memory Tarjan on
//! arbitrary multigraphs (self-loops and duplicate edges included), over
//! both node sets (the dense universe and a node file), and on sparse node
//! universes.

use proptest::prelude::*;

use ce_extmem::{DiskEnv, IoConfig};
use ce_graph::csr::CsrGraph;
use ce_graph::labels::same_partition;
use ce_graph::tarjan::tarjan_scc;
use ce_graph::types::Edge;
use ce_semi_scc::{semi_scc, NodeSet, SemiSccKind};

fn tiny_env() -> DiskEnv {
    DiskEnv::new_temp(IoConfig::new(256, 4096)).unwrap()
}

fn arb_graph() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (1u32..48).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..200);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn both_variants_match_tarjan((n, edge_list) in arb_graph()) {
        let env = tiny_env();
        let edges: Vec<Edge> = edge_list.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let file = env.file_from_slice("e", &edges).unwrap();
        let node_file = env.file_from_slice("v", &(0..n).collect::<Vec<u32>>()).unwrap();
        let truth = tarjan_scc(&CsrGraph::from_edges(n as u64, &edges));
        for kind in [SemiSccKind::Coloring, SemiSccKind::SpanningTree] {
            let mut by_set = Vec::new();
            for nodes in [NodeSet::Dense(n as u64), NodeSet::Sorted(&node_file)] {
                let (labels, report) = semi_scc(&env, kind, &file, nodes).unwrap();
                let mut rep = vec![0u32; n as usize];
                let mut r = labels.reader().unwrap();
                while let Some(l) = r.next().unwrap() {
                    rep[l.node as usize] = l.scc;
                }
                prop_assert!(
                    same_partition(&rep, &truth.comp),
                    "{} over {:?}: {:?} on {:?}", kind.name(), nodes, rep, edge_list
                );
                prop_assert_eq!(report.n_sccs, truth.count as u64);
                by_set.push((rep, report.edge_passes));
            }
            // The same dense indices and the same scan file: the node set
            // changes nothing but where the ids come from.
            prop_assert_eq!(&by_set[0], &by_set[1], "{}", kind.name());
        }
    }

    #[test]
    fn sparse_universe_round_trips(
        offsets in prop::collection::btree_set(0u32..1000, 2..20),
        ring in any::<bool>(),
    ) {
        // Nodes are an arbitrary sparse id set; edges form a ring (one SCC)
        // or a chain (all singletons) over them.
        let env = tiny_env();
        let nodes: Vec<u32> = offsets.into_iter().collect();
        let mut edges: Vec<Edge> = nodes
            .windows(2)
            .map(|w| Edge::new(w[0], w[1]))
            .collect();
        if ring {
            edges.push(Edge::new(*nodes.last().unwrap(), nodes[0]));
        }
        let file = env.file_from_slice("e", &edges).unwrap();
        let node_file = env.file_from_slice("v", &nodes).unwrap();
        for kind in [SemiSccKind::Coloring, SemiSccKind::SpanningTree] {
            let (labels, report) = semi_scc(&env, kind, &file, NodeSet::Sorted(&node_file)).unwrap();
            let all = labels.read_all().unwrap();
            prop_assert_eq!(all.len(), nodes.len());
            // Output is sorted by node and covers exactly `nodes`.
            for (l, &v) in all.iter().zip(nodes.iter()) {
                prop_assert_eq!(l.node, v);
            }
            if ring {
                prop_assert_eq!(report.n_sccs, 1);
                prop_assert!(all.iter().all(|l| l.scc == nodes[0]));
            } else {
                prop_assert_eq!(report.n_sccs, nodes.len() as u64);
            }
        }
    }
}
