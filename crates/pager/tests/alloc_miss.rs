//! Misses on a full shared pool must not allocate.
//!
//! A burst of queries on a freshly opened reader generation misses on most
//! of its pages. Once the pool is full, each miss reuses the evicted
//! frame's buffer instead of allocating a new frame and freeing the old
//! one. This test pins that with a counting `#[global_allocator]` shim:
//! after the pool has filled, a long run of reads that all miss performs
//! **zero** heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ce_pager::SharedPager;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..1000u64 {
        let off = (i % BLOCKS) * BLOCK as u64 + i % 50;
        pool.read_at(off, &mut buf).unwrap();
        assert_eq!(buf[..], bytes[off as usize..off as usize + 8]);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(pool.phys().misses - misses, 1000, "every read missed");
    assert_eq!(after - before, 0, "a miss on a full pool must not allocate");
    std::fs::remove_dir_all(&dir).ok();
}
