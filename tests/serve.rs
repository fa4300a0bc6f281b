//! Concurrent-serving stress tests: N reader threads hammer one shared
//! index with deterministic mixed workloads and every answer is checked
//! against the in-memory Tarjan oracle — *and* every query's logical I/O
//! delta is checked bit-for-bit against a single-threaded replay.
//!
//! The logical-parity assertion is the load-bearing one: a
//! [`SccIndexReader`] clone must price each query in the paper's I/O model
//! the same no matter how many threads share the pool, or the model's
//! numbers would stop being reproducible the moment serving went
//! concurrent.

use contract_expand::harness::{build_query_index, check_serve};
use contract_expand::prelude::*;

/// Small blocks so the label section spans many pages and batches
/// genuinely straddle page boundaries.
const BLOCK: usize = 512;
const N_NODES: u32 = 2000;
const THREADS: usize = 4;
const QUERIES: usize = 800;

/// Builds the scratch index + oracle the tests share.
fn fixture(env: &DiskEnv) -> (std::path::PathBuf, Vec<u32>) {
    let path = env.root().join("serve-stress.sccidx");
    let reps = build_query_index(env, &path, N_NODES, 0xCE11).expect("index build");
    (path, reps)
}

/// Every thread replays the same mixed workload (all four query kinds) on
/// its own clone concurrently. Logical counters are per-handle, so each
/// thread must observe exactly the single-threaded replay's per-query
/// deltas even while the physical pool is shared and contended by the
/// others.
#[test]
fn concurrent_readers_match_oracle_and_single_threaded_logical_costs() {
    let env = DiskEnv::new_temp(IoConfig::new(BLOCK, 4 << 20)).unwrap();
    let (path, reps) = fixture(&env);
    check_serve(&path, &reps, 0xCE11, QUERIES, THREADS).unwrap();
}

#[test]
fn batched_queries_dedupe_same_page_probes_under_concurrency() {
    let env = DiskEnv::new_temp(IoConfig::new(BLOCK, 4 << 20)).unwrap();
    let (path, reps) = fixture(&env);
    let reader = SccIndex::open_shared(&path, 64).unwrap();
    let per_page = BLOCK as u32 / 4; // u32 labels

    // All on one label page (nodes 0..per_page) vs spread across pages:
    // the one-page batch must cost exactly one block read on every
    // thread, regardless of pool contention.
    let one_page: Vec<u32> = (0..16).map(|i| i * (per_page / 16)).collect();
    let spread: Vec<u32> = (0..4).map(|i| i * per_page).filter(|&u| u < N_NODES).collect();
    let spread_pages = spread.len() as u64;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let handle = reader.clone();
            let (one_page, spread, reps) = (&one_page, &spread, &reps);
            s.spawn(move || {
                for _ in 0..50 {
                    let before = handle.stats();
                    let got = handle.component_of_many(one_page).unwrap();
                    let delta = handle.stats().since(&before);
                    assert_eq!(
                        got,
                        one_page.iter().map(|&u| reps[u as usize]).collect::<Vec<_>>()
                    );
                    assert_eq!(
                        delta.total_ios(),
                        1,
                        "16 same-page lookups must collapse to one block read"
                    );

                    let before = handle.stats();
                    handle.component_of_many(spread).unwrap();
                    let delta = handle.stats().since(&before);
                    assert_eq!(
                        delta.total_ios(),
                        spread_pages,
                        "distinct-page lookups pay one read per page"
                    );
                }
            });
        }
    });
}

#[test]
fn clones_share_physical_pool_but_not_logical_counters() {
    let env = DiskEnv::new_temp(IoConfig::new(BLOCK, 4 << 20)).unwrap();
    let (path, _) = fixture(&env);
    let reader = SccIndex::open_shared(&path, 64).unwrap();
    let opened = reader.stats();

    // Prime every page the workload will touch through clone A...
    let a = reader.clone();
    assert_eq!(a.stats(), IoSnapshot::default(), "clones start with zeroed counters");
    for u in (0..N_NODES).step_by(16) {
        a.component_of(u).unwrap();
    }
    let a_after = a.stats();
    assert!(a_after.total_ios() > 0);

    // ...then clone B pays the same *logical* price but zero *physical*
    // reads: the pool is shared, the model's counters are not.
    let phys_before = reader.phys();
    let b = reader.clone();
    for u in (0..N_NODES).step_by(16) {
        b.component_of(u).unwrap();
    }
    assert_eq!(b.stats(), a_after, "same workload, same logical bill");
    let phys = reader.phys().since(&phys_before);
    assert_eq!(phys.reads, 0, "warm pool: clone B must be served from cache");
    assert!(phys.hits > 0);
    // The original handle never ran a query; its counters still show only
    // the open-time validation scan.
    assert_eq!(reader.stats(), opened);
}
