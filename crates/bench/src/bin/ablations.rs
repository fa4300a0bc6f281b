//! Ablation studies for six design choices of this implementation:
//!
//! 1. `>` operator: Definition 5.1 vs 7.1 — bypass-edge volume per level;
//! 2. Type-1/Type-2 node reductions on/off — iterations and total I/Os;
//! 3. lazy parallel-edge dedup off — the `|E_i|` blow-up it prevents;
//! 4. semi-external base case: coloring vs spanning tree;
//! 5. DFS-SCC: naive visited bitmap vs BRT notifications;
//! 6. Type-2 dictionary capacity sweep.
//!
//! `--quick` shrinks the workloads.

use std::time::Duration;

use ce_bench::figures::{budget_for, BLOCK};
use ce_bench::runner::{bench_env, human_count, run_algo, RunBudget};
use ce_bench::Scale;
use ce_core::{build_orders, get_e, get_v, ExtSccAlgo, ExtSccConfig, GetEOptions, GetVOptions, OrderKind};
use ce_dfs_scc::{DfsMode, DfsSccAlgo};
use ce_graph::gen::{self, Dataset, SyntheticSpec};
use ce_semi_scc::{semi_scc, NodeSet, SemiSccKind};

fn main() {
    let scale = Scale::from_args();
    let n = scale.pick(30_000u32, 120_000u32);
    let spec = SyntheticSpec::table1(Dataset::Large, n, 4.0, 88);

    println!("=== Ablation 1: `>` operator (one contraction level, Large-SCC |V|={}) ===", human_count(n as u64));
    {
        let env = bench_env(BLOCK, budget_for(0.5, n as u64));
        let g = gen::planted_scc_graph(&env, &spec).expect("gen");
        let orders = build_orders(&env, g.edges(), true).expect("orders");
        for (name, order) in [("Definition 5.1", OrderKind::Degree), ("Definition 7.1", OrderKind::DegreeProduct)] {
            let (cover, _) = get_v(
                &env,
                &orders,
                &GetVOptions {
                    order,
                    type1: false,
                    type2_capacity: 0,
                },
            )
            .expect("get_v");
            let ge = get_e(&env, &orders, &cover, &GetEOptions { filter_endpoints: false, drop_self_loops: true })
                .expect("get_e");
            println!(
                "  {name:<16} cover={:>8} E_pre={:>9} E_add={:>9} max bypass group={}",
                cover.len(),
                ge.n_pre,
                ge.n_add,
                ge.max_group
            );
        }
    }

    println!("\n=== Ablation 2: node reductions (full runs, M = 0.5|V|) ===");
    {
        let variants: Vec<(&str, ExtSccConfig)> = vec![
            ("none (baseline)", ExtSccConfig::baseline()),
            ("Type-1 only", {
                let mut c = ExtSccConfig::baseline();
                c.type1 = true;
                c
            }),
            ("Type-2 only", {
                let mut c = ExtSccConfig::baseline();
                c.type2_capacity = None; // derived capacity
                c
            }),
            ("Type-1+2+Def7.1 (Op)", ExtSccConfig::optimized()),
        ];
        for (name, cfg) in variants {
            let env = bench_env(BLOCK, budget_for(0.5, n as u64));
            let g = gen::planted_scc_graph(&env, &spec).expect("gen");
            let m = run_algo(&env, &g, &ExtSccAlgo::with_config("x", cfg), &RunBudget::unlimited());
            println!(
                "  {name:<22} iters={:>3} I/Os={:>9} time={:>8.2?}",
                m.iterations.unwrap_or(0),
                m.ios,
                m.wall
            );
        }
    }

    println!("\n=== Ablation 3: parallel-edge dedup (|E_i| trajectory, 8 levels) ===");
    {
        for (name, lazy) in [("dedup on ", true), ("dedup off", false)] {
            let env = bench_env(BLOCK, budget_for(0.3, n as u64));
            let g = gen::planted_scc_graph(&env, &spec).expect("gen");
            let mut edges = g.edges().clone();
            let mut sizes: Vec<String> = vec![human_count(edges.len())];
            for _ in 0..8 {
                let orders = build_orders(&env, &edges, lazy).expect("orders");
                let (cover, _) = get_v(&env, &orders, &GetVOptions::default()).expect("get_v");
                if cover.len() >= orders.n_edges {
                    break;
                }
                let ge = get_e(
                    &env,
                    &orders,
                    &cover,
                    &GetEOptions {
                        filter_endpoints: false,
                        drop_self_loops: true,
                    },
                )
                .expect("get_e");
                edges = ge.edges;
                sizes.push(human_count(edges.len()));
            }
            println!("  {name}: |E_i| = {}", sizes.join(" -> "));
        }
    }

    println!("\n=== Ablation 4: semi-external base case (coloring vs sptree) ===");
    {
        // Contract once to get a realistic base-case graph, then run both.
        let env = bench_env(BLOCK, budget_for(0.5, n as u64));
        let g = gen::planted_scc_graph(&env, &spec).expect("gen");
        let orders = build_orders(&env, g.edges(), true).expect("orders");
        let (cover, _) = get_v(
            &env,
            &orders,
            &GetVOptions {
                order: OrderKind::DegreeProduct,
                type1: true,
                type2_capacity: 4096,
            },
        )
        .expect("get_v");
        let ge = get_e(
            &env,
            &orders,
            &cover,
            &GetEOptions {
                filter_endpoints: true,
                drop_self_loops: true,
            },
        )
        .expect("get_e");
        for kind in [SemiSccKind::Coloring, SemiSccKind::SpanningTree] {
            let before = env.stats().snapshot();
            let t = std::time::Instant::now();
            let (_, rep) = semi_scc(&env, kind, &ge.edges, NodeSet::Sorted(&cover)).expect("semi");
            let d = env.stats().snapshot().since(&before);
            println!(
                "  {:<9} edge passes={:>4} sccs={:>7} I/Os={:>8} time={:>8.2?}",
                kind.name(),
                rep.edge_passes,
                rep.n_sccs,
                d.total_ios(),
                t.elapsed()
            );
        }
    }

    println!("\n=== Ablation 5: DFS-SCC naive vs BRT (small graph) ===");
    {
        let dn = scale.pick(3_000u32, 10_000u32);
        let env = bench_env(BLOCK, budget_for(0.5, dn as u64));
        let g = gen::web_like(&env, dn, 4.0, 17).expect("gen");
        for mode in [DfsMode::Naive, DfsMode::Brt] {
            let m = run_algo(
                &env,
                &g,
                &DfsSccAlgo::new(mode),
                &RunBudget::capped(50_000_000, Duration::from_secs(180)),
            );
            println!(
                "  {:<6} outcome={:?} I/Os={:>9} random={:>9} time={:>8.2?}",
                mode.name(),
                m.outcome,
                m.ios,
                m.rand_ios,
                m.wall
            );
        }
    }

    println!("\n=== Ablation 6: Type-2 dictionary capacity sweep ===");
    {
        for cap in [0usize, 256, 4096, 65536] {
            let env = bench_env(BLOCK, budget_for(0.5, n as u64));
            let g = gen::planted_scc_graph(&env, &spec).expect("gen");
            let mut cfg = ExtSccConfig::optimized();
            cfg.type2_capacity = Some(cap);
            let m = run_algo(&env, &g, &ExtSccAlgo::with_config("x", cfg), &RunBudget::unlimited());
            println!(
                "  capacity {cap:>6}: iters={:>3} I/Os={:>9} time={:>8.2?}",
                m.iterations.unwrap_or(0),
                m.ios,
                m.wall
            );
        }
    }
}
