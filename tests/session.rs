//! Integration tests of the user-facing session layer: `SccSession` →
//! planner → `build_index` → persistent `SccIndex` queries.

use contract_expand::prelude::*;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scc-session-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two 3-cycles bridged by one edge: components {0,1,2} and {3,4,5}.
fn two_triangles() -> Vec<(u32, u32)> {
    vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
}

#[test]
fn planner_picks_the_regime_and_the_override_wins() {
    // Roomy: 6 nodes always fit 1 MiB.
    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
        .unwrap()
        .source(GraphSource::in_memory(6, two_triangles()))
        .unwrap();
    let plan = session.plan().unwrap();
    assert_eq!(plan.engine, Engine::SemiScc);
    assert!(plan.reason.contains("fits"), "{}", plan.reason);
    assert_eq!(plan.predicted_passes, 0);

    // Tight: a 5000-node cycle's node state (~40 KB) exceeds 16 KiB.
    let cfg = IoConfig::new(1 << 10, 16 << 10);
    let session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
        .unwrap()
        .source(GraphSource::generator(|env| gen::cycle(env, 5000)))
        .unwrap();
    let plan = session.plan().unwrap();
    assert_eq!(plan.engine, Engine::ExtSccOp);
    assert!(plan.reason.contains("exceeds"), "{}", plan.reason);
    assert!(plan.predicted_passes >= 1);

    // The exact fit boundary: the planner agrees with `mem_required`.
    let n = 1000u64;
    for slack in [0i64, -1, 1] {
        let need = planner_for(IoConfig::new(512, 2 << 20))
            .semi_bytes_needed(n) as i64;
        let cfg = IoConfig::new(512, (need + slack) as usize);
        let plan = planner_for(cfg).plan(n);
        let expect_semi = slack >= 0;
        assert_eq!(
            plan.engine == Engine::SemiScc,
            expect_semi,
            "slack {slack}: {}",
            plan.reason
        );
    }

    // Forced engine: the planner records the override.
    let session = SccSession::open(
        IoConfig::new(4 << 10, 1 << 20),
        EnvOptions::unpooled(),
    )
    .unwrap()
    .source(GraphSource::in_memory(6, two_triangles()))
    .unwrap()
    .engine(Engine::ExtScc);
    let plan = session.plan().unwrap();
    assert_eq!(plan.engine, Engine::ExtScc);
    assert!(plan.reason.contains("override"), "{}", plan.reason);
}

#[test]
fn plan_and_run_without_a_source_fail_cleanly() {
    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let session = SccSession::open(cfg, EnvOptions::unpooled()).unwrap();
    assert!(session.plan().is_err());
    assert!(session.graph().is_none());
    let err = session.run().unwrap_err();
    assert!(err.to_string().contains("no source"), "{err}");
}

#[test]
fn build_index_runs_the_planned_engine_and_round_trips() {
    let dir = scratch_dir("build");
    let idx_path = dir.join("g.sccidx");

    let cfg = IoConfig::new(1 << 10, 16 << 10);
    let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
        .unwrap()
        .source(GraphSource::generator(|env| {
            gen::web_like(env, 3000, 4.0, 17)
        }))
        .unwrap();
    let plan = session.plan().unwrap();
    assert_eq!(plan.engine, Engine::ExtSccOp, "3000 nodes exceed 16 KiB");

    let built = session.build_index(&idx_path).unwrap();
    assert_eq!(built.plan.engine, Engine::ExtSccOp);
    assert!(built.run.ios.total_ios() > 0);
    assert!(built.build_ios.total_ios() > 0, "index writing is counted");
    assert_eq!(built.index.n_sccs(), built.run.n_sccs);

    // The planned engine's partition equals the Tarjan oracle's.
    let g = session.graph().unwrap();
    let oracle = TarjanOracle.run(session.env(), g).unwrap();
    let lab = oracle.labeling(g.n_nodes()).unwrap();
    assert_eq!(built.run.n_sccs, oracle.n_sccs);
    for v in 0..g.n_nodes() as u32 {
        let same_as_oracle = built.index.component_of(v).unwrap();
        // Representatives are canonical (min member) in both labelings.
        assert_eq!(same_as_oracle, lab.rep[v as usize], "node {v}");
    }

    // Reopen the artifact from a completely fresh environment: queries are
    // answered without recomputing anything, and their I/O is counted.
    drop(built);
    let query_env = DiskEnv::new_temp(IoConfig::new(4 << 10, 8 << 10)).unwrap();
    let idx = SccIndex::open(&query_env, &idx_path).unwrap();
    let after_open = query_env.stats().snapshot();
    assert_eq!(idx.n_nodes(), 3000);
    let rep = idx.component_of(42).unwrap();
    assert!(idx.same_component(42, rep).unwrap());
    let spent = query_env.stats().snapshot().since(&after_open);
    assert!(
        (1..=4).contains(&spent.total_ios()),
        "three point lookups cost {} logical I/Os",
        spent.total_ios()
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn condensation_dag_is_embedded_on_request() {
    let dir = scratch_dir("dag");
    let idx_path = dir.join("g.sccidx");
    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
        .unwrap()
        .source(GraphSource::in_memory(6, two_triangles()))
        .unwrap()
        .condensation(true);
    let built = session.build_index(&idx_path).unwrap();
    assert!(built.index.has_condensation());
    assert_eq!(built.index.n_sccs(), 2);
    let edges: Vec<Edge> = built
        .index
        .condensation_edges()
        .map(|e| e.unwrap())
        .collect();
    assert_eq!(edges, vec![Edge::new(0, 3)], "one quotient edge, rep ids");

    // Without the flag the section is absent.
    let plain = SccSession::open(cfg, EnvOptions::unpooled())
        .unwrap()
        .source(GraphSource::in_memory(6, two_triangles()))
        .unwrap()
        .build_index(&dir.join("plain.sccidx"))
        .unwrap();
    assert!(!plain.index.has_condensation());
    assert_eq!(plain.index.condensation_edges().count(), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn built_index_clones_answer_from_other_threads() {
    let dir = scratch_dir("thread");
    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
        .unwrap()
        .source(GraphSource::in_memory(6, two_triangles()))
        .unwrap();
    let built = session.build_index(&dir.join("g.sccidx")).unwrap();
    let before = session.env().stats().snapshot();
    let handle = built.index.clone();
    let (reps, ios) = std::thread::spawn(move || {
        let reps: Vec<u32> = (0..6).map(|v| handle.component_of(v).unwrap()).collect();
        (reps, handle.stats().total_ios())
    })
    .join()
    .unwrap();
    assert_eq!(reps, vec![0, 0, 0, 3, 3, 3]);
    assert_eq!(
        ios, 6,
        "one block read per component_of, on the clone's own counters"
    );
    assert_eq!(
        session.env().stats().snapshot(),
        before,
        "the session's ledger is untouched"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_and_binary_sources_agree() {
    let dir = scratch_dir("src");
    let text = dir.join("g.txt");
    std::fs::write(&text, "0 1\n1 0\n1 2\n2 1\n").unwrap();

    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let session = SccSession::open(cfg, EnvOptions::unpooled())
        .unwrap()
        .source(GraphSource::text(&text))
        .unwrap();
    let ceg = dir.join("g.ceg");
    session.graph().unwrap().save_binary(&ceg).unwrap();
    let run_text = session.run().unwrap();

    let run_bin = SccSession::open(cfg, EnvOptions::unpooled())
        .unwrap()
        .source(GraphSource::binary(&ceg))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(run_text.n_sccs, 1);
    assert_eq!(run_bin.n_sccs, 1);

    // `from_path` picks the format from the extension.
    assert!(matches!(GraphSource::from_path(&ceg), GraphSource::Binary(_)));
    assert!(matches!(GraphSource::from_path(&text), GraphSource::Text(_)));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_artifact_corruption_is_a_checksum_error_not_garbage() {
    let dir = scratch_dir("corrupt");
    let idx_path = dir.join("g.sccidx");
    let cfg = IoConfig::new(4 << 10, 1 << 20);
    SccSession::open(cfg, EnvOptions::unpooled())
        .unwrap()
        .source(GraphSource::in_memory(6, two_triangles()))
        .unwrap()
        .build_index(&idx_path)
        .unwrap();

    let mut bytes = std::fs::read(&idx_path).unwrap();
    // Flip a byte inside the labels section (first payload page).
    let at = 4096 + 3;
    bytes[at] ^= 0x01;
    std::fs::write(&idx_path, &bytes).unwrap();

    let fresh = DiskEnv::new_temp(IoConfig::new(4 << 10, 8 << 10)).unwrap();
    let err = SccIndex::open(&fresh, &idx_path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("checksum"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strict_budget_session_still_matches_the_oracle() {
    // The satellite regime: pool frames come out of M, not on top of it.
    let (cfg, opts) = EnvOptions::strict(64 << 10, 1 << 10);
    assert_eq!(opts.cache_blocks * cfg.block_size + cfg.mem_budget, 64 << 10);
    let session = SccSession::open(cfg, opts)
        .unwrap()
        .source(GraphSource::generator(|env| {
            gen::permuted_cycle(env, 8000, 3)
        }))
        .unwrap();
    assert_eq!(session.plan().unwrap().engine, Engine::ExtSccOp);
    let run = session.run().unwrap();
    assert_eq!(run.n_sccs, 1, "one 8000-cycle");
    assert_eq!(
        session.env().options().cache_blocks,
        opts.cache_blocks,
        "the environment honours the split"
    );
}
