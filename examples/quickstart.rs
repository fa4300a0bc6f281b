//! Quickstart: compute the SCCs of a graph whose nodes do not fit in memory
//! and keep the answers in a persistent, queryable index.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Opens an `SccSession` under a deliberately tight memory budget, lets the
//! planner explain which engine the regime calls for, builds the persistent
//! `SccIndex`, and answers point queries from the artifact — then reopens
//! it from a completely fresh environment to show the answers survive the
//! session that computed them.

use contract_expand::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The I/O model: 4 KiB blocks and 256 KiB of "main memory" (shared
    // `parse_size` accepts the same spellings as the `scc` CLI).
    let cfg = IoConfig::new(parse_size("4K")?, parse_size("256K")?);

    println!("generating a synthetic graph (60k nodes, degree 4, planted SCCs)...");
    let spec = gen::SyntheticSpec {
        n_nodes: 60_000,
        avg_degree: 4.0,
        planted: vec![
            gen::PlantedScc { count: 4, size: 3000 },
            gen::PlantedScc { count: 30, size: 100 },
        ],
        acyclic_filler: true,
        seed: 7,
    };
    let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))?
        .source(GraphSource::generator(move |env| {
            gen::planted_scc_graph(env, &spec)
        }))?;
    {
        let graph = session.graph().expect("sourced");
        println!("graph: |V| = {}, |E| = {}\n", graph.n_nodes(), graph.n_edges());
    }

    // The planner explains the regime before any I/O is spent: 60k nodes
    // need ~480 KB of node state, so contraction must run.
    let plan = session.plan()?;
    println!("{plan}\n");
    assert_eq!(plan.engine, Engine::ExtSccOp);

    // Build the persistent index (runs the planned engine, writes the
    // artifact, reopens it through its checksum validation).
    let idx_path = std::env::temp_dir().join(format!("quickstart-{}.sccidx", std::process::id()));
    let built = session.build_index(&idx_path)?;
    println!(
        "built {} components in {} engine I/Os + {} index I/Os ({} bytes on disk)\n",
        built.index.n_sccs(),
        built.run.ios.total_ios(),
        built.build_ios.total_ios(),
        built.index.len_bytes()
    );

    // Component sizes straight from the artifact: the four planted
    // 3000-node SCCs dominate.
    let mut sizes: Vec<u64> = built
        .index
        .components()
        .map(|c| c.map(|(_, size)| size))
        .collect::<Result<_, _>>()?;
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes.truncate(8);
    println!("largest SCCs: {sizes:?}");
    println!("total SCCs: {}", built.index.n_sccs());
    assert_eq!(&sizes[..4], &[3000, 3000, 3000, 3000]);

    // Point queries cost at most two block reads each.
    let before = session.env().stats().snapshot();
    let rep = built.index.component_of(0)?;
    let same = built.index.same_component(0, rep)?;
    let spent = session.env().stats().snapshot().since(&before);
    println!(
        "component_of(0) = {rep}, same_component(0, {rep}) = {same}  [{} logical I/Os]",
        spent.total_ios()
    );
    assert!(same);

    // The artifact outlives the session: reopen it from a fresh minimal
    // environment and ask again.
    drop(built);
    let query_env = DiskEnv::new_temp(IoConfig::new(4 << 10, 8 << 10))?;
    let idx = SccIndex::open(&query_env, &idx_path)?;
    assert_eq!(idx.component_of(0)?, rep);
    println!("reopened {} and got the same answer", idx_path.display());

    std::fs::remove_file(&idx_path)?;
    Ok(())
}
