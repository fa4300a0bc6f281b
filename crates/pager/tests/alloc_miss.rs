//! Misses on a full shared pool must not allocate.
//!
//! A burst of queries on a freshly opened reader generation misses on most
//! of its pages. Once the pool is full, each miss reuses the evicted
//! frame's buffer instead of allocating a new frame and freeing the old
//! one. This test pins that with a counting `#[global_allocator]` shim that
//! counts the measuring thread only: after the pool has filled, a long run
//! of reads that all miss performs **zero** heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ce_pager::SharedPager;

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
fn misses_on_a_full_pool_are_allocation_free() {
    const BLOCK: usize = 64;
    const BLOCKS: u64 = 16;
    let dir = std::env::temp_dir().join(format!("ce-alloc-miss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.bin");
    let bytes: Vec<u8> = (0..BLOCK * BLOCKS as usize)
        .map(|i| (i % 251) as u8)
        .collect();
    std::fs::write(&path, &bytes).unwrap();

    // Four shards of one frame each. Cycling through all sixteen blocks
    // sends four blocks to every shard in turn, so every read misses.
    let pool = SharedPager::open(&path, BLOCK, 4).unwrap();
    assert_eq!(pool.capacity(), 4);
    let mut buf = [0u8; 8];
    for b in 0..BLOCKS {
        pool.read_at(b * BLOCK as u64, &mut buf).unwrap();
    }
    assert_eq!(pool.resident_blocks(), 4, "the pool is full");

    let misses = pool.phys().misses;
    let allocs = allocations_in(|| {
        for i in 0..1000u64 {
            let off = (i % BLOCKS) * BLOCK as u64 + i % 50;
            pool.read_at(off, &mut buf).unwrap();
            assert_eq!(buf[..], bytes[off as usize..off as usize + 8]);
        }
    });
    assert_eq!(pool.phys().misses - misses, 1000, "every read missed");
    assert_eq!(allocs, 0, "a miss on a full pool must not allocate");
    std::fs::remove_dir_all(&dir).ok();
}
