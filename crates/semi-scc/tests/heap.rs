//! The memory bound holds on the heap, not only in the I/O model.
//!
//! A peak-tracking `#[global_allocator]` (live bytes plus a running
//! maximum) wraps two operations:
//!
//! * the Semi-SCC base case at `M = mem_required(kind, n)`, over both node
//!   sets: its peak may exceed `M` only by block buffers, one per merged
//!   run of the fused sort → join chain plus five;
//! * external-sort run formation over a file and over a stream without a
//!   length hint: its peak is the `M`-byte chunk, the input's and the run
//!   writer's block buffers, at most one batch of the input stream, and a
//!   few hundred bytes of bookkeeping per run.
//!
//! Tests share the global counters, so each measurement holds one lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ce_extmem::{sort_streaming_by_key, DiskEnv, IoConfig, Record, SortedStream, DEFAULT_BATCH};
use ce_graph::types::Edge;
use ce_semi_scc::{mem_required, semi_scc, NodeSet, SemiSccKind};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static A: PeakAlloc = PeakAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its result with the peak heap growth above the
/// live bytes at the start.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = f();
    (r, PEAK.load(Ordering::Relaxed) - base)
}

const BLOCK: usize = 4 << 10;

/// Heap allowance per formed run for its name, file handle and pager entry.
const RUN_BOOKKEEPING: usize = 512;

/// Deterministic pseudo-random edges over `ids`, endpoints uniform.
fn random_edges(ids: &[u32], m: usize) -> Vec<Edge> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ids[(x % ids.len() as u64) as usize]
    };
    (0..m).map(|_| Edge::new(next(), next())).collect()
}

#[test]
fn base_case_peak_heap_is_m_plus_block_buffers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 20_000usize;
    let m = 8 * n;
    // A sparse universe for the node file; `0..n` for the dense set.
    let sparse: Vec<u32> = (0..n as u32).map(|i| 3 * i + 1).collect();
    let dense: Vec<u32> = (0..n as u32).collect();
    for kind in [SemiSccKind::Coloring, SemiSccKind::SpanningTree] {
        let mem = mem_required(kind, n as u64, &IoConfig::new(BLOCK, 2 * BLOCK)) as usize;
        let env = DiskEnv::new_temp(IoConfig::new(BLOCK, mem)).unwrap();
        // Each by-destination run of the node-file path is merged inside
        // the fused join, one block buffer per run.
        let merged_runs = m.div_ceil(mem / Edge::SIZE);
        assert!(merged_runs >= 4, "want a real multi-run merge");
        let bound = mem + (merged_runs + 5) * BLOCK;

        let edges = env.file_from_slice("e", &random_edges(&dense, m)).unwrap();
        let (run, peak) = peak_during(|| semi_scc(&env, kind, &edges, NodeSet::Dense(n as u64)));
        let (labels, report) = run.unwrap();
        assert_eq!(labels.len(), n as u64);
        assert!(report.n_sccs >= 1);
        assert!(
            peak <= bound,
            "{} over the dense set: peak heap {peak} B > M {mem} B + {} blocks",
            kind.name(),
            merged_runs + 5
        );
        drop(labels);

        let edges = env.file_from_slice("e", &random_edges(&sparse, m)).unwrap();
        let nodes = env.file_from_slice("v", &sparse).unwrap();
        let (run, peak) = peak_during(|| semi_scc(&env, kind, &edges, NodeSet::Sorted(&nodes)));
        let (labels, sparse_report) = run.unwrap();
        assert_eq!(labels.len(), n as u64);
        assert_eq!(
            sparse_report.n_sccs, report.n_sccs,
            "same graph up to renaming"
        );
        assert!(
            peak <= bound,
            "{} over a node file: peak heap {peak} B > M {mem} B + {} blocks",
            kind.name(),
            merged_runs + 5
        );
    }
}

#[test]
fn run_formation_peak_heap_is_m_plus_two_blocks_and_a_batch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mem = 64 << 10;
    let env = DiskEnv::new_temp(IoConfig::new(BLOCK, mem)).unwrap();
    let m = 100_000usize;
    let ids: Vec<u32> = (0..50_000).collect();
    let file = env.file_from_slice("in", &random_edges(&ids, m)).unwrap();
    let key = |e: &Edge| (e.src, e.dst);
    let runs = m.div_ceil(mem / Edge::SIZE);
    // Each run is a named file: its path, handle and pager entry take a
    // few hundred bytes, however large `M` is.
    let bound = mem + 2 * BLOCK + DEFAULT_BATCH * Edge::SIZE + runs * RUN_BOOKKEEPING;

    // A file carries its length; the chunk is sized to the run length.
    let (sorted, peak) = peak_during(|| sort_streaming_by_key(&env, &file, "heap-file", key));
    let sorted = sorted.unwrap();
    assert_eq!(sorted.n_runs(), runs, "no merge pass");
    assert!(
        peak <= bound,
        "run formation over a file: peak heap {peak} B > {bound} B"
    );
    drop(sorted);

    // A filter has no length hint; the chunk must not outgrow `M` anyway.
    let unsized_input = file.stream().unwrap().filter(|_| true);
    assert_eq!(unsized_input.len_hint(), None);
    let (sorted, peak) =
        peak_during(|| sort_streaming_by_key(&env, unsized_input, "heap-stream", key));
    let sorted = sorted
        .unwrap()
        .materialize("heap-sorted")
        .unwrap()
        .read_all()
        .unwrap();
    assert!(
        peak <= bound,
        "run formation over a stream: peak heap {peak} B > {bound} B"
    );
    assert_eq!(sorted.len(), m);
    assert!(sorted.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
}
