//! Steady-state batched pulls must not allocate.
//!
//! The point of `next_batch` plus buffer reuse is that the per-record work
//! of the merge hot path is a key comparison and a copy — not a `Vec`
//! growth or a fresh block buffer. This test pins that with a counting
//! `#[global_allocator]` shim that counts the measuring thread only: after a
//! warm-up pull (which is allowed to size every internal buffer), draining
//! the rest of a merge through a pre-reserved batch buffer must perform
//! **zero** heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use std::rc::Rc;

use ce_extmem::{io_span, obs, sort_streaming_by_key, DiskEnv, IoConfig, SortedStream};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only around the measured window, on the measuring thread: other
    /// threads of the test binary (libtest's among them) may allocate at
    /// any time without failing the test.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` with this thread's allocations counted; returns how many it made.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. `count` only reads a `const`-initialised
// thread-local without a destructor, which neither allocates nor registers
// anything, so the allocator never re-enters itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn merge_batch_pulls_are_allocation_free_after_warmup() {
    // Small blocks and budget so the sort genuinely forms several runs and
    // the drain crosses many block refills.
    let env = DiskEnv::new_temp(IoConfig::new(256, 2048)).unwrap();
    let items: Vec<(u32, u32)> = (0..4000u32).rev().map(|i| (i, i.wrapping_mul(31))).collect();
    let f = env.file_from_slice("in", &items).unwrap();

    let runs = sort_streaming_by_key(&env, &f, "s", |r: &(u32, u32)| r.0).unwrap();
    assert!(runs.n_runs() >= 2, "want a real multi-run merge");
    let mut s = runs.into_stream().unwrap();

    // Batch buffer reserved up front; the stream may size its own internals
    // during the warm-up pull.
    let mut batch: Vec<(u32, u32)> = Vec::with_capacity(4096);
    let warm = s.next_batch(&mut batch, 64).unwrap();
    assert_eq!(warm, 64);

    // The disabled observability path must be equally allocation-free: with
    // `NullSink` installed (== tracing disabled), opening a span around the
    // steady-state drain may not snapshot, box, or grow anything.
    let _obs = obs::install(Rc::new(obs::NullSink));

    let mut total = warm;
    let allocs = allocations_in(|| {
        let sp = io_span!(&env, "drain");
        assert!(!sp.is_active(), "NullSink must keep tracing disabled");
        loop {
            let got = s.next_batch(&mut batch, 64).unwrap();
            total += got;
            if got < 64 {
                break;
            }
        }
    });
    assert_eq!(total, items.len());
    assert_eq!(
        allocs, 0,
        "steady-state batched merge pulls must not allocate"
    );
}
