//! Reachability indexing — the paper's motivating application #2.
//!
//! ```text
//! cargo run --release --example reachability
//! ```
//!
//! Almost every reachability index for general directed graphs (GRAIL, etc.)
//! first contracts each SCC to a node, because `u → v` holds iff
//! `SCC(u) → SCC(v)` in the condensation DAG. This example builds a
//! persistent `SccIndex` *with the condensation embedded* on a web-like
//! graph, then answers reachability queries from the artifact alone: the
//! endpoints are resolved with block-budgeted `component_of` queries and
//! the BFS runs over the stored DAG — the session that computed the SCCs is
//! long gone by the time the queries run.

use std::collections::{HashMap, VecDeque};

use contract_expand::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = IoConfig::new(4 << 10, 256 << 10);
    let idx_path =
        std::env::temp_dir().join(format!("reachability-{}.sccidx", std::process::id()));

    println!("generating a web-like bow-tie graph (40k pages, degree 5)...");
    let n: u32 = 40_000;
    {
        // 1. The indexing session: SCCs + condensation, persisted and closed.
        let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))?
            .source(GraphSource::generator(move |env| {
                gen::web_like(env, n, 5.0, 99)
            }))?
            .condensation(true);
        {
            let g = session.graph().expect("sourced");
            println!("graph: |V| = {}, |E| = {}", g.n_nodes(), g.n_edges());
        }
        let plan = session.plan()?;
        println!("plan: {} ({})", plan.engine, plan.reason);
        let built = session.build_index(&idx_path)?;
        println!(
            "{}: {} SCCs, {} condensation edges, {} I/Os",
            plan.engine,
            built.index.n_sccs(),
            built.index.n_dag_edges(),
            built.run.ios.total_ios()
        );
        println!(
            "condensation: {} nodes, {} edges ({}x node compression)",
            built.index.n_sccs(),
            built.index.n_dag_edges(),
            n as u64 / built.index.n_sccs()
        );
    } // session dropped: scratch gone, only the artifact remains.

    // 2. The serving side: reopen the artifact in a tiny environment.
    let env = DiskEnv::new_temp(IoConfig::new(4 << 10, 8 << 10))?;
    let idx = SccIndex::open(&env, &idx_path)?;

    // Load the (small) condensation into memory, densely renumbered — that
    // is the point of the preprocessing step.
    let mut dense: HashMap<u32, u32> = HashMap::new();
    for entry in idx.components() {
        let (rep, _) = entry?;
        let next = dense.len() as u32;
        dense.insert(rep, next);
    }
    let n_comp = dense.len();
    let mut dag_edges = Vec::new();
    for e in idx.condensation_edges().collect::<Vec<_>>() {
        let e = e?;
        dag_edges.push(Edge::new(dense[&e.src], dense[&e.dst]));
    }
    let dag = CsrGraph::from_edges(n_comp as u64, &dag_edges);

    // 3. Reachability: resolve endpoints with point queries against the
    //    index, BFS on the DAG (a production index would precompute labels;
    //    BFS keeps the example self-contained).
    let reach = |from: u32, to: u32| -> Result<bool, Box<dyn std::error::Error>> {
        let (s, t) = (
            dense[&idx.component_of(from)?],
            dense[&idx.component_of(to)?],
        );
        if s == t {
            return Ok(true);
        }
        let mut seen = vec![false; n_comp];
        let mut q = VecDeque::from([s]);
        seen[s as usize] = true;
        while let Some(x) = q.pop_front() {
            for &y in dag.neighbors(x) {
                if y == t {
                    return Ok(true);
                }
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    q.push_back(y);
                }
            }
        }
        Ok(false)
    };

    // Sample queries: IN-region nodes reach the core; the core reaches the
    // OUT region; OUT never reaches IN.
    let core = n / 8; // middle of the core region
    let in_node = n / 4 + n / 10; // middle of IN
    let out_node = n / 4 + n / 5 + n / 10; // middle of OUT
    let queries = [
        ("IN   -> core", in_node, core),
        ("core -> OUT ", core, out_node),
        ("OUT  -> IN  ", out_node, in_node),
        ("core -> core", core, core + 1),
    ];
    println!("\nsample queries (answered from the artifact):");
    let mut answers = Vec::new();
    for (label, u, v) in queries {
        let r = reach(u, v)?;
        println!("  {label}: {u} -> {v}: {r}");
        answers.push(r);
    }
    assert_eq!(answers[..3], [true, true, false], "bow-tie structure");

    std::fs::remove_file(&idx_path)?;
    Ok(())
}
