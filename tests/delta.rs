//! Integration gates for incremental index maintenance: the session-level
//! `apply_delta` / `compact_index` surface, the ce-harness delta-stream
//! differential matrix, the O(1)-page cost pins, a merge's bookkeeping
//! (its report and the counts its members share with outside components),
//! fault sweeps over a checkpointing and a journal-only apply under
//! injected I/O faults, and a byte comparison of a checkpoint with a fresh
//! build of the same state.

use contract_expand::prelude::*;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scc-delta-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two 3-cycles bridged by one edge: components {0,1,2} and {3,4,5}.
fn two_triangles() -> Vec<(u32, u32)> {
    vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
}

/// A session over `edges` (nodes `0..n`) with a condensation-bearing index
/// built at `path`.
fn session_over(path: &std::path::Path, n: u64, edges: Vec<(u32, u32)>) -> SccSession {
    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
        .unwrap()
        .source(GraphSource::in_memory(n, edges))
        .unwrap()
        .condensation(true);
    session.build_index(path).unwrap();
    session
}

/// A session over `two_triangles` with a condensation-bearing index built
/// at `path`.
fn session_with_index(path: &std::path::Path) -> SccSession {
    session_over(path, 6, two_triangles())
}

#[test]
fn session_applies_deltas_and_compacts() {
    let dir = scratch_dir("session");
    let idx_path = dir.join("g.sccidx");
    let session = session_with_index(&idx_path);

    // Cycle-creating insert: 5 -> 0 closes {0,1,2} <-> {3,4,5}.
    let report = session
        .apply_delta(&DeltaBatch::new().add(5, 0))
        .unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.merges, 1);
    assert_eq!(report.merged_components, 2);
    assert_eq!(report.merged_nodes, 6);

    let mut eng = session.delta_engine().unwrap();
    assert_eq!(eng.n_sccs(), 1);
    assert!(eng.same_component(0, 5).unwrap());

    // Intra-component delete dirties; compact re-verifies. 2 -> 3 was the
    // only path from {0,1,2} into {3,4,5}, so removing it splits the
    // merged component back apart.
    let report = session
        .apply_delta(&DeltaBatch::new().remove(2, 3))
        .unwrap();
    assert_eq!(report.dirty_marked, 1);
    let compacted = session.compact_index().unwrap();
    assert_eq!(compacted.components_reverified, 1);
    assert_eq!(compacted.components_after, 2);

    let mut eng = session.delta_engine().unwrap();
    assert!(!eng.same_component(0, 5).unwrap());
    assert_eq!(eng.component_of(4).unwrap(), 3);
    assert_eq!(eng.n_dirty(), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delta_without_index_or_dag_fails_cleanly() {
    let cfg = IoConfig::new(4 << 10, 1 << 20);

    // No index attached at all.
    let session = SccSession::open(cfg, EnvOptions::unpooled())
        .unwrap()
        .source(GraphSource::in_memory(6, two_triangles()))
        .unwrap();
    let err = session.apply_delta(&DeltaBatch::new().add(0, 3)).unwrap_err();
    assert!(err.to_string().contains("no index"), "{err}");

    // Index built without the condensation DAG section: the error names
    // the CLI flag that fixes it.
    let dir = scratch_dir("nodag");
    let mut session = SccSession::open(cfg, EnvOptions::unpooled())
        .unwrap()
        .source(GraphSource::in_memory(6, two_triangles()))
        .unwrap();
    session.build_index(&dir.join("plain.sccidx")).unwrap();
    let err = session.apply_delta(&DeltaBatch::new().add(0, 3)).unwrap_err();
    assert!(err.to_string().contains("--with-condensation"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn differential_matrix_200_steps_across_three_families() {
    let rows = contract_expand::harness::run_delta_matrix(200, 0x9e37).unwrap();
    assert_eq!(rows.len(), 3, "three workload families");
    for row in &rows {
        assert!(row.ok(), "{row}");
        assert_eq!(row.steps, 200);
        assert!(row.adds > 0 && row.removes > 0, "{row}");
        // Sublinear maintenance: non-merge steps commit to the journal
        // alone — one block for a single-edge batch and its commit record.
        assert!(
            row.max_metadata_write_ios <= 1,
            "metadata step wrote {} pages: {row}",
            row.max_metadata_write_ios
        );
    }
    // The taxonomy is exercised: the streams performed real merges and
    // real dirty-marking deletions somewhere in the matrix.
    assert!(rows.iter().map(|r| r.merges).sum::<u64>() > 0);
    assert!(rows.iter().map(|r| r.dirty_marked).sum::<u64>() > 0);
}

#[test]
fn metadata_only_insert_cost_is_independent_of_graph_size() {
    // The same intra-component insert against a 12-node and a 6000-node
    // graph must cost the same page writes: the artifact sizes differ by
    // three orders of magnitude, the maintenance cost must not.
    let mut write_costs = Vec::new();
    for n in [12u64, 6000] {
        let dir = scratch_dir(&format!("o1-{n}"));
        let idx_path = dir.join("g.sccidx");
        let cfg = IoConfig::new(4 << 10, 1 << 20);
        // A triangle 0->1->2->0 plus n-3 isolated nodes.
        let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
            .unwrap()
            .source(GraphSource::in_memory(n, vec![(0, 1), (1, 2), (2, 0)]))
            .unwrap()
            .condensation(true);
        session.build_index(&idx_path).unwrap();
        let report = session
            .apply_delta(&DeltaBatch::new().add(0, 2))
            .unwrap();
        assert_eq!(report.intra_added, 1);
        assert_eq!(report.merges, 0);
        assert_eq!(report.label_pages_rewritten, 0);
        write_costs.push(report.ios.seq_writes + report.ios.rand_writes);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        write_costs[0], write_costs[1],
        "metadata-only insert cost grew with graph size: {write_costs:?}"
    );
}

#[test]
fn merge_rewrites_only_label_pages_owning_affected_nodes() {
    // 4096-byte pages hold 1024 labels. 3000 nodes -> 3 label pages; a
    // merge of two components living entirely in page 0 must rewrite
    // exactly one label page.
    let dir = scratch_dir("pages");
    let idx_path = dir.join("g.sccidx");
    let cfg = IoConfig::new(4 << 10, 1 << 20);
    let mut edges = vec![(0u32, 1u32), (1, 0), (2, 3), (3, 2), (1, 2)];
    // Anchor components on the later pages so the artifact genuinely has
    // multi-page label state that a correct merge must NOT touch.
    edges.extend([(2000, 2001), (2001, 2000), (2900, 2901), (2901, 2900)]);
    let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
        .unwrap()
        .source(GraphSource::in_memory(3000, edges))
        .unwrap()
        .condensation(true);
    session.build_index(&idx_path).unwrap();

    let report = session
        .apply_delta(&DeltaBatch::new().add(3, 0))
        .unwrap();
    assert_eq!(report.merges, 1);
    assert_eq!(
        report.label_pages_rewritten, 1,
        "only the page owning nodes 0..3 changes"
    );

    let mut eng = session.delta_engine().unwrap();
    assert!(eng.same_component(0, 3).unwrap());
    assert!(!eng.same_component(0, 2000).unwrap());
    assert_eq!(eng.component_of(2900).unwrap(), 2900);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_component_grown_by_three_merges_of_one_batch_is_counted_once() {
    // A chain of 2-cycles {0,1} -> {2,3} -> {4,5} -> {6,7}. Each insert
    // closes a cycle back into {0,1}, which grows three times in one batch.
    let dir = scratch_dir("grow");
    let idx_path = dir.join("g.sccidx");
    let mut edges = vec![(1, 2), (3, 4), (5, 6)];
    for c in 0..4u32 {
        edges.extend([(2 * c, 2 * c + 1), (2 * c + 1, 2 * c)]);
    }
    let session = session_over(&idx_path, 8, edges);
    let report = session
        .apply_delta(&DeltaBatch::new().add(3, 0).add(5, 0).add(7, 0))
        .unwrap();
    assert_eq!(report.merges, 3);

    // The report describes the grown component: its four stored members
    // and its nodes, each counted once.
    let mut eng = session.delta_engine().unwrap();
    assert_eq!(eng.n_sccs(), 1);
    assert_eq!(report.merged_components, 4);
    assert_eq!(report.merged_nodes, eng.component_size(0).unwrap());
    assert_eq!(report.merged_nodes, 8);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_merge_sums_the_counts_its_members_share_with_outside_neighbours() {
    // {0,1} -> {2,3} through 1 -> 2; both components have an edge to
    // x = 4 and one from y = 5. Inserting 3 -> 0 merges {2,3} into {0,1}.
    let dir = scratch_dir("shared");
    let idx_path = dir.join("g.sccidx");
    let mut edges = vec![(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)];
    edges.extend([(0, 4), (2, 4), (5, 0), (5, 3)]);
    let session = session_over(&idx_path, 6, edges);
    let mut eng = session.delta_engine().unwrap();
    assert_eq!(eng.apply(&DeltaBatch::new().add(3, 0)).unwrap().merges, 1);
    assert_eq!(
        eng.condensation_edges(),
        vec![CountedEdge::new(0, 4, 2), CountedEdge::new(5, 0, 2)]
    );

    // Deleting the shared edges one at a time weakens the condensation
    // edge, then drops it; the next delete is rejected and changes nothing.
    let remove = |eng: &mut DeltaEngine<'_>, u, v| eng.apply(&DeltaBatch::new().remove(u, v));
    assert_eq!(remove(&mut eng, 0, 4).unwrap().dag_weakened, 1);
    assert_eq!(
        eng.condensation_edges(),
        vec![CountedEdge::new(0, 4, 1), CountedEdge::new(5, 0, 2)]
    );
    assert_eq!(remove(&mut eng, 2, 4).unwrap().dag_dropped, 1);
    assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(5, 0, 2)]);
    let generation = eng.generation();
    let err = remove(&mut eng, 0, 4).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(eng.generation(), generation);
    assert_eq!(remove(&mut eng, 5, 3).unwrap().dag_weakened, 1);
    assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(5, 0, 1)]);

    // The deletes committed to the journal alone; a reopened engine
    // replays them onto the merge's checkpoint and reaches the same DAG.
    let live = engine_state(&eng);
    drop(eng);
    let mut eng = session.delta_engine().unwrap();
    assert_eq!(engine_state(&eng), live);
    assert_eq!(remove(&mut eng, 5, 0).unwrap().dag_dropped, 1);
    assert_eq!(eng.condensation_edges(), vec![]);
    let err = remove(&mut eng, 5, 3).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_mid_apply_leaves_the_previous_generation_queryable() {
    // Crash-safety smoke: inject a physical-transfer fault at several
    // points inside a merging apply. Whenever the apply errors, the
    // artifact on disk must still open through full validation at the old
    // generation and answer queries; a retry on a fresh engine must
    // succeed and land the new generation.
    let dir = scratch_dir("fault");
    for k in [1u64, 2, 4, 8] {
        let idx_path = dir.join(format!("g{k}.sccidx"));
        let session = session_with_index(&idx_path);
        let env = session.env();

        env.inject_fault_after(k);
        let attempt = session.apply_delta(&DeltaBatch::new().add(5, 0));
        env.clear_fault();

        match attempt {
            Err(_) => {
                // Old generation intact and queryable.
                let mut eng = session.delta_engine().unwrap();
                assert_eq!(eng.generation(), 0, "fault point {k}");
                assert!(!eng.same_component(0, 5).unwrap());
                drop(eng);
                // Retry goes through.
                let report = session.apply_delta(&DeltaBatch::new().add(5, 0)).unwrap();
                assert_eq!(report.generation, 1);
            }
            Ok(report) => {
                assert_eq!(report.generation, 1, "fault point {k}");
            }
        }
        let mut eng = session.delta_engine().unwrap();
        assert!(eng.same_component(0, 5).unwrap(), "fault point {k}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_writes_the_bytes_a_build_of_the_same_state_writes() {
    // A random single-edge stream through one engine, then a compact: the
    // artifact must equal, from the labels to the end, a fresh build of the
    // engine's labels and the counted condensation of the current edge
    // multiset. Only the header differs (generation and journal prefix).
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    let n = 300u64;
    for page in [64usize, 256, 4096] {
        let dir = scratch_dir(&format!("same-bytes-{page}"));
        let path = dir.join("g.sccidx");
        let mut current: Vec<(u32, u32)> =
            (0..700).map(|_| (next(n) as u32, next(n) as u32)).collect();
        let cfg = IoConfig::new(page, 1 << 20);
        let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg))
            .unwrap()
            .source(GraphSource::in_memory(n, current.clone()))
            .unwrap()
            .condensation(true);
        session.build_index(&path).unwrap();

        let mut eng = session.delta_engine().unwrap();
        let (mut merges, mut dirty_marked) = (0, 0);
        for _ in 0..150 {
            let batch = if next(100) < 60 {
                let (u, v) = (next(n) as u32, next(n) as u32);
                current.push((u, v));
                DeltaBatch::new().add(u, v)
            } else {
                let (u, v) = current.swap_remove(next(current.len() as u64) as usize);
                DeltaBatch::new().remove(u, v)
            };
            let report = eng.apply(&batch).unwrap();
            merges += report.merges;
            dirty_marked += report.dirty_marked;
        }
        assert!(
            merges > 0 && dirty_marked > 0,
            "page {page}: {merges} merges, {dirty_marked} dirty marks"
        );
        eng.compact().unwrap();
        let reps = eng.labels_snapshot().unwrap();
        drop(eng);

        let env = session.env();
        let edges: Vec<Edge> = current.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let g = EdgeListGraph::new(env.file_from_slice("now-edges", &edges).unwrap(), n);
        let labels: Vec<SccLabel> = (0..)
            .zip(&reps)
            .map(|(u, &r)| SccLabel::new(u, r))
            .collect();
        let labels = env.file_from_slice("now-labels", &labels).unwrap();
        let dag = contract_expand::graph::labels::condense_counted(env, &g, &labels).unwrap();
        let fresh = dir.join("fresh.sccidx");
        SccIndex::build(env, &fresh, &labels, n, Some(&dag)).unwrap();

        let kept = std::fs::read(&path).unwrap();
        let built = std::fs::read(&fresh).unwrap();
        // The labels start on the first page boundary past the 144-byte
        // header.
        let labels_off = 144usize.div_ceil(page) * page;
        assert_eq!(kept.len(), built.len(), "page {page}");
        assert!(
            kept[labels_off..] == built[labels_off..],
            "page {page}: the sections differ"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// What a failed apply must leave exactly as it found it.
fn engine_state(eng: &DeltaEngine<'_>) -> (u64, Vec<CountedEdge>, Vec<NodeId>, u64) {
    (
        eng.generation(),
        eng.condensation_edges(),
        eng.dirty_components(),
        eng.n_sccs(),
    )
}

/// Four triangles A = {0,1,2}, B = {3,4,5}, C = {6,7,8}, D = {9,10,11},
/// with A -> B (2 -> 3) and C -> D (8 -> 9).
fn four_triangles() -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for t in 0..4u32 {
        let b = 3 * t;
        edges.extend([(b, b + 1), (b + 1, b + 2), (b + 2, b)]);
    }
    edges.extend([(2, 3), (8, 9)]);
    edges
}

/// The journal sidecar of the artifact at `path`.
fn sidecar(path: &std::path::Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap().to_os_string();
    name.push(".dlog");
    path.with_file_name(name)
}

#[test]
fn a_failed_apply_rolls_the_engine_back_exactly() {
    // Four triangles A = {0,1,2}, B = {3,4,5}, C = {6,7,8}, D = {9,10,11},
    // with A -> B (2 -> 3) and C -> D (8 -> 9). Before the batch, D is
    // dirty. The batch merges A and B (5 -> 0), appends A -> C (0 -> 6),
    // reinforces it (1 -> 7), dirties the merged component (2 -> 3 is
    // intra-component by then) and drops C -> D (8 -> 9).
    let dir = scratch_dir("rollback");
    let edges = four_triangles();
    let dirty_d = DeltaBatch::new().remove(9, 10);
    let batch = DeltaBatch::new()
        .add(5, 0)
        .add(0, 6)
        .add(1, 7)
        .remove(2, 3)
        .remove(8, 9);

    // The fault-free reference. Both sides open a fresh engine after the
    // same history, so their journal handles price the batch's append
    // alike (a long-lived handle would see it continue its last write).
    let reference = session_over(&dir.join("ref.sccidx"), 12, edges.clone());
    reference.apply_delta(&dirty_d).unwrap();
    let mut eng = reference.delta_engine().unwrap();
    let want = eng.apply(&batch).unwrap();
    assert_eq!(
        (
            want.merges,
            want.dag_appended,
            want.dag_reinforced,
            want.dirty_marked,
            want.dag_dropped
        ),
        (1, 1, 1, 1, 1),
        "{want:?}"
    );
    let want_state = engine_state(&eng);
    drop(eng);
    // The merge wrote a checkpoint that folds in D's journal-only dirty
    // mark: a fresh reader agrees with the engine.
    let idx = SccIndex::open(reference.env(), &dir.join("ref.sccidx")).unwrap();
    assert_eq!(idx.generation(), want_state.0);
    let stored: Vec<Edge> = idx.condensation_edges().map(|e| e.unwrap()).collect();
    let live: Vec<Edge> = want_state
        .1
        .iter()
        .map(|e| Edge::new(e.src, e.dst))
        .collect();
    assert_eq!(stored, live);
    let dirty: Vec<NodeId> = idx.dirty_components().map(|r| r.unwrap()).collect();
    assert_eq!(dirty, want_state.2);
    assert_eq!(dirty, vec![0, 9]);
    drop(idx);

    // Fault after k physical transfers, for every k until the apply
    // succeeds.
    let mut faulted = 0u64;
    for k in 1u64.. {
        assert!(k <= 1000, "the apply never outran the fault");
        let path = dir.join(format!("k{k}.sccidx"));
        let session = session_over(&path, 12, edges.clone());
        session.apply_delta(&dirty_d).unwrap();
        let mut eng = session.delta_engine().unwrap();
        let before = engine_state(&eng);
        assert_eq!(before.2, vec![9], "D is dirty before the batch");

        session.env().inject_fault_after(k);
        let attempt = eng.apply(&batch);
        session.env().clear_fault();
        let done = match attempt {
            Ok(report) => {
                assert_eq!(report, want, "k = {k}");
                true
            }
            Err(err) => {
                faulted += 1;
                assert_ne!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "k = {k}: {err}"
                );
                assert_eq!(
                    engine_state(&eng),
                    before,
                    "rolled back after a fault at {k}"
                );
                assert_eq!(
                    eng.apply(&batch).unwrap(),
                    want,
                    "retry after a fault at {k}"
                );
                false
            }
        };
        assert_eq!(engine_state(&eng), want_state, "k = {k}");
        if done {
            break;
        }
    }
    assert!(
        faulted >= 3,
        "the sweep must hit mid-apply faults ({faulted})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_journal_only_apply_leaves_nothing_a_later_open_can_see() {
    // On the four triangles, a batch that appends A -> C (0 -> 6),
    // reinforces it (1 -> 7), drops C -> D (8 -> 9) and dirties A
    // (0 -> 1) merges nothing, so it commits to the journal alone.
    let dir = scratch_dir("journal-fault");
    let batch = DeltaBatch::new()
        .add(0, 6)
        .add(1, 7)
        .remove(8, 9)
        .remove(0, 1);

    // The fault-free reference, on a fresh engine like every retry below.
    let reference = session_over(&dir.join("ref.sccidx"), 12, four_triangles());
    let mut eng = reference.delta_engine().unwrap();
    let want = eng.apply(&batch).unwrap();
    assert_eq!(
        (
            want.merges,
            want.dag_appended,
            want.dag_reinforced,
            want.dag_dropped,
            want.dirty_marked
        ),
        (0, 1, 1, 1, 1),
        "{want:?}"
    );
    let want_state = engine_state(&eng);
    drop(eng);

    // Fault after k physical transfers, for every k until the apply
    // succeeds. Evicting the sidecar drops its unflushed pager frames: the
    // analogue of a crash.
    let mut faulted = 0u64;
    for k in 1u64.. {
        assert!(k <= 1000, "the apply never outran the fault");
        let path = dir.join(format!("k{k}.sccidx"));
        let session = session_over(&path, 12, four_triangles());
        let crash_reopen = || {
            session.env().evict(&sidecar(&path));
            session.delta_engine().unwrap()
        };
        let mut eng = session.delta_engine().unwrap();
        let before = engine_state(&eng);

        session.env().inject_fault_after(k);
        let attempt = eng.apply(&batch);
        session.env().clear_fault();
        match attempt {
            Ok(report) => {
                assert_eq!(report, want, "k = {k}");
                assert_eq!(engine_state(&eng), want_state, "k = {k}");
                drop(eng);
                // An acknowledged commit survives the crash analogue.
                assert_eq!(engine_state(&crash_reopen()), want_state, "k = {k}");
                break;
            }
            Err(err) => {
                faulted += 1;
                assert_ne!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "k = {k}: {err}"
                );
                assert_eq!(engine_state(&eng), before, "failed engine, k = {k}");
                drop(eng);
                let fresh = session.delta_engine().unwrap();
                assert_eq!(engine_state(&fresh), before, "fresh engine, k = {k}");
                drop(fresh);
                let mut eng = crash_reopen();
                assert_eq!(
                    engine_state(&eng),
                    before,
                    "after the crash analogue, k = {k}"
                );
                assert_eq!(
                    eng.apply(&batch).unwrap(),
                    want,
                    "retry after a fault at {k}"
                );
                assert_eq!(engine_state(&eng), want_state, "k = {k}");
            }
        }
    }
    assert!(
        faulted >= 2,
        "the sweep must hit the journal's write-back and its fsync"
    );
    std::fs::remove_dir_all(&dir).ok();
}
