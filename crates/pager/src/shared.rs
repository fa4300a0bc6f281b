//! `SharedPager` — a concurrent read-only buffer pool over one file.
//!
//! The owned [`Pager`](crate::Pager) serializes every access through a
//! single mutex because it multiplexes many mutable scratch files with
//! dirty frames and write-back. A query server needs none of that:
//! it reads one immutable artifact from many threads at once, and the only
//! thing worth sharing is the cache itself — a hot node→rep page faulted
//! in by one reader should be a hit for every other reader.
//!
//! This type is that read path. Frames live in `N` independently locked
//! shards (`shard = block & (N-1)`), so readers touching different blocks
//! proceed in parallel and two readers of the *same* hot block contend
//! only on that block's shard. Misses fill a frame with `pread` while the
//! shard lock is held — concurrent misses on the same shard serialize, but
//! cross-shard misses overlap. Once a shard is full, a miss unmaps its
//! least-recently-used frame and reads the new block into that frame's
//! buffer: misses on a full pool allocate and free nothing.
//!
//! A request that covers two or more whole blocks — a pass over a section,
//! such as an index open's checksum validation — bypasses the pool: one
//! `pread` straight into the caller's buffer, taking no lock and neither
//! filling nor evicting a frame, so a scan leaves the hot pages resident.
//! Any other request, every point query among them, takes the pool path
//! above. With `cache_blocks == 0` the pool degenerates to a lock-free
//! pass-through in which every request is one `pread`. Either way a
//! `pread` counts one physical read per block it touches, mirroring the
//! owned pager's contract.
//!
//! Physical counters ([`PhysStats`]) are shared atomics aggregated across
//! all readers; the **logical** model counters stay one layer up (in
//! `ce-extmem`'s per-handle accounting) so they remain deterministic per
//! query no matter how many threads share the pool.
//!
//! The file is required to be immutable while the pool is open (it is an
//! on-disk artifact, not a scratch file): the length is captured once at
//! open and cached frames are never invalidated. Fault injection is not
//! wired here — it exists to test failure paths of the *write-capable*
//! engine pager, while this pool serves finished artifacts.

use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::stats::{PhysSnapshot, PhysStats};

/// Most shards a pool will use; beyond this, added parallelism is noise.
const MAX_SHARDS: usize = 64;

/// [`Frame::block`] of a frame that holds no block (its last fill failed).
const UNMAPPED: u64 = u64::MAX;

/// One resident block.
struct Frame {
    block: u64,
    data: Box<[u8]>,
    last_used: u64,
}

/// One lock's worth of the pool: a block→frame map plus an LRU clock.
#[derive(Default)]
struct Shard {
    map: HashMap<u64, usize>,
    frames: Vec<Frame>,
    tick: u64,
}

/// A concurrent, read-only, striped-lock LRU block pool over one file.
pub struct SharedPager {
    file: File,
    len: u64,
    block_size: usize,
    shards: Box<[Mutex<Shard>]>,
    shard_cap: usize,
    stats: Arc<PhysStats>,
}

impl std::fmt::Debug for SharedPager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPager")
            .field("len", &self.len)
            .field("block_size", &self.block_size)
            .field("shards", &self.shards.len())
            .field("shard_cap", &self.shard_cap)
            .finish()
    }
}

/// Largest power of two `<= x` (for `x >= 1`).
fn floor_pow2(x: usize) -> usize {
    let mut p = 1usize;
    while p * 2 <= x {
        p *= 2;
    }
    p
}

impl SharedPager {
    /// Opens `path` read-only behind a pool of (at least) `cache_blocks`
    /// frames of `block_size` bytes each. `cache_blocks == 0` selects the
    /// pass-through mode. The frame budget is rounded up to fill every
    /// shard evenly, so the effective capacity may slightly exceed the
    /// request; see [`SharedPager::capacity`] for the real figure.
    pub fn open(path: &Path, block_size: usize, cache_blocks: usize) -> io::Result<SharedPager> {
        if block_size == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shared pager: block size must be positive",
            ));
        }
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let n_shards = if cache_blocks == 0 {
            1
        } else {
            floor_pow2(cache_blocks.min(MAX_SHARDS))
        };
        let shard_cap = if cache_blocks == 0 {
            0
        } else {
            cache_blocks.div_ceil(n_shards)
        };
        let shards = (0..n_shards).map(|_| Mutex::new(Shard::default())).collect();
        Ok(SharedPager {
            file,
            len,
            block_size,
            shards,
            shard_cap,
            stats: Arc::new(PhysStats::new()),
        })
    }

    /// Block size the pool was opened with.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Effective frame capacity across all shards (0 = pass-through).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shard_cap
    }

    /// File length in bytes, captured at open (the file is immutable by
    /// contract).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Point-in-time copy of the pool's physical counters (aggregated
    /// across every reader).
    pub fn phys(&self) -> PhysSnapshot {
        self.stats.snapshot()
    }

    /// Number of blocks currently resident across all shards.
    pub fn resident_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// Reads up to `buf.len()` bytes at `offset` (short at end of file);
    /// returns the number of bytes read. Takes `&self`: any number of
    /// threads may call this concurrently.
    ///
    /// A request that covers two or more whole blocks, and every request in
    /// pass-through mode, is one `pread` past the pool: it neither fills
    /// nor evicts a frame and counts one physical read per block it
    /// touches. Any other request goes through the pool block by block.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() || offset >= self.len {
            return Ok(0);
        }
        let n = (buf.len() as u64).min(self.len - offset) as usize;
        let bs = self.block_size as u64;
        let end = offset + n as u64;
        if self.shard_cap == 0 || end / bs >= offset.div_ceil(bs) + 2 {
            self.pread_full(offset, &mut buf[..n])?;
            self.stats.record_reads((end - 1) / bs - offset / bs + 1);
            return Ok(n);
        }
        let mut done = 0usize;
        while done < n {
            let pos = offset + done as u64;
            let intra = (pos % bs) as usize;
            let take = (bs as usize - intra).min(n - done);
            self.copy_from_pool(pos / bs, intra, &mut buf[done..done + take])?;
            done += take;
        }
        Ok(n)
    }

    /// Copies `dst.len()` bytes starting `intra` bytes into `block` out of
    /// the pool, faulting the block in on a miss.
    fn copy_from_pool(&self, block: u64, intra: usize, dst: &mut [u8]) -> io::Result<()> {
        let shard = &self.shards[(block as usize) & (self.shards.len() - 1)];
        let mut s = shard.lock().unwrap();
        s.tick += 1;
        let tick = s.tick;
        if let Some(&fi) = s.map.get(&block) {
            self.stats.record_hit();
            let f = &mut s.frames[fi];
            f.last_used = tick;
            dst.copy_from_slice(&f.data[intra..intra + dst.len()]);
            return Ok(());
        }
        self.stats.record_miss();
        let fi = if s.frames.len() < self.shard_cap {
            s.frames.push(Frame {
                block: UNMAPPED,
                data: vec![0u8; self.block_size].into_boxed_slice(),
                last_used: 0,
            });
            s.frames.len() - 1
        } else {
            // Reuse the least-recently-used frame of this shard: unmap it
            // and refill its buffer in place, so a miss on a full pool
            // allocates nothing.
            let fi = s
                .frames
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(i, _)| i)
                .expect("shard_cap > 0 implies at least one frame");
            let old = std::mem::replace(&mut s.frames[fi].block, UNMAPPED);
            if old != UNMAPPED {
                s.map.remove(&old);
                self.stats.record_eviction();
            }
            fi
        };
        let start = block * self.block_size as u64;
        let live = (self.len - start).min(self.block_size as u64) as usize;
        let f = &mut s.frames[fi];
        // The frame is mapped only once it holds the block's bytes: a failed
        // read leaves it unmapped and first in line for reuse.
        f.last_used = 0;
        self.pread_full(start, &mut f.data[..live])?;
        f.block = block;
        f.last_used = tick;
        self.stats.record_read();
        dst.copy_from_slice(&f.data[intra..intra + dst.len()]);
        s.map.insert(block, fi);
        Ok(())
    }

    /// `pread` until `buf` is full (offsets are pre-clamped to the file
    /// length, so EOF mid-fill is corruption, not a short read).
    fn pread_full(&self, mut offset: u64, mut buf: &mut [u8]) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        let want = buf.len();
        while !buf.is_empty() {
            match self.file.read_at(buf, offset) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "shared pager: file shrank underneath the pool",
                    ))
                }
                Ok(k) => {
                    buf = &mut buf[k..];
                    offset += k as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-test data file in a scratch directory of its own, which is
    /// removed on drop.
    struct TestFile(std::path::PathBuf);

    impl TestFile {
        fn new(name: &str, bytes: &[u8]) -> TestFile {
            let dir =
                std::env::temp_dir().join(format!("ce-shared-pager-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("data.bin");
            std::fs::write(&path, bytes).unwrap();
            TestFile(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestFile {
        fn drop(&mut self) {
            if let Some(dir) = self.0.parent() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn reads_match_the_file_at_every_alignment() {
        let bytes = pattern(1000); // not block-aligned: tail block is short
        let file = TestFile::new("align", &bytes);
        let p = SharedPager::open(file.path(), 64, 8).unwrap();
        assert_eq!(p.len_bytes(), 1000);
        let mut buf = vec![0u8; 300];
        for &(off, want) in &[(0u64, 300usize), (1, 300), (63, 300), (64, 300), (900, 100), (999, 1), (1000, 0)] {
            buf.iter_mut().for_each(|b| *b = 0xAA);
            let n = p.read_at(off, &mut buf).unwrap();
            assert_eq!(n, want.min(300), "offset {off}");
            assert_eq!(&buf[..n], &bytes[off as usize..off as usize + n], "offset {off}");
        }
    }

    #[test]
    fn hits_misses_and_evictions_are_counted() {
        let bytes = pattern(64 * 6);
        let file = TestFile::new("counts", &bytes);
        // capacity 2 -> 2 shards of 1 frame; even blocks share shard 0.
        let p = SharedPager::open(file.path(), 64, 2).unwrap();
        assert_eq!(p.capacity(), 2);
        let mut b = [0u8; 8];
        p.read_at(0, &mut b).unwrap(); // block 0: miss
        p.read_at(8, &mut b).unwrap(); // block 0: hit
        p.read_at(64, &mut b).unwrap(); // block 1: miss (shard 1)
        let s = p.phys();
        assert_eq!((s.misses, s.hits, s.reads, s.evictions), (2, 1, 2, 0));
        p.read_at(128, &mut b).unwrap(); // block 2: miss, evicts block 0
        let s = p.phys();
        assert_eq!((s.misses, s.evictions), (3, 1));
        p.read_at(0, &mut b).unwrap(); // block 0 again: miss (was evicted)
        assert_eq!(p.phys().misses, 4);
        assert_eq!(p.resident_blocks(), 2);
        assert_eq!(p.phys().writes, 0, "read-only pool never writes");
    }

    #[test]
    fn a_failed_fill_leaves_the_reused_frame_unmapped() {
        let bytes = pattern(64 * 4);
        let file = TestFile::new("shrink", &bytes);
        // One shard of one frame.
        let p = SharedPager::open(file.path(), 64, 1).unwrap();
        let mut b = [0u8; 8];
        p.read_at(0, &mut b).unwrap(); // block 0: miss, fills the frame
        // Break the immutability contract: the file loses blocks 1..4.
        std::fs::OpenOptions::new()
            .write(true)
            .open(file.path())
            .unwrap()
            .set_len(64)
            .unwrap();
        let err = p.read_at(128, &mut b).unwrap_err(); // evicts block 0
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(p.resident_blocks(), 0, "the failed fill mapped nothing");
        p.read_at(0, &mut b).unwrap(); // block 0 again: a miss into the frame
        assert_eq!(&b, &bytes[..8]);
        let s = p.phys();
        assert_eq!((s.misses, s.reads, s.evictions), (3, 2, 1));
        assert_eq!(p.resident_blocks(), 1);
    }

    #[test]
    fn zero_capacity_is_a_pass_through() {
        let bytes = pattern(256);
        let file = TestFile::new("passthrough", &bytes);
        let p = SharedPager::open(file.path(), 64, 0).unwrap();
        assert_eq!(p.capacity(), 0);
        let mut b = [0u8; 4];
        p.read_at(0, &mut b).unwrap();
        p.read_at(0, &mut b).unwrap(); // same block: still a physical read
        let s = p.phys();
        assert_eq!(s.reads, 2);
        assert_eq!((s.hits, s.misses), (0, 0), "no pool, no hit accounting");
        let mut span = vec![0u8; 130]; // crosses three blocks
        assert_eq!(p.read_at(60, &mut span).unwrap(), 130);
        assert_eq!(&span, &bytes[60..190]);
        assert_eq!(p.phys().reads, 2 + 3);
    }

    #[test]
    fn multi_block_reads_bypass_the_pool() {
        let bytes = pattern(64 * 10 + 20); // eleven blocks, the last short
        let file = TestFile::new("bulk", &bytes);
        let pooled = SharedPager::open(file.path(), 64, 8).unwrap();
        let direct = SharedPager::open(file.path(), 64, 0).unwrap();
        let mut b = [0u8; 8];
        pooled.read_at(70, &mut b).unwrap(); // block 1: a miss that fills a frame
        assert_eq!((pooled.resident_blocks(), pooled.phys().misses), (1, 1));
        // (offset, length, blocks touched): [60, 330) covers blocks 1..5
        // whole and touches 0..=5; [64, 192) is exactly two whole blocks;
        // the whole file ends in its short tail block.
        for &(off, len, touched) in &[(60u64, 270usize, 6u64), (64, 128, 2), (0, 660, 11)] {
            for p in [&pooled, &direct] {
                let before = p.phys();
                let mut span = vec![0u8; len];
                assert_eq!(p.read_at(off, &mut span).unwrap(), len);
                assert_eq!(span, &bytes[off as usize..off as usize + len]);
                let d = p.phys().since(&before);
                assert_eq!(
                    d.reads, touched,
                    "one physical read per block at {off}+{len}"
                );
                assert_eq!((d.hits, d.misses, d.evictions), (0, 0, 0), "past the pool");
            }
            assert_eq!(pooled.resident_blocks(), 1, "nothing filled or evicted");
        }
        // One whole block plus the edges of its neighbours stays pooled: a
        // hit on block 1, misses on blocks 0 and 2.
        let before = pooled.phys();
        let mut span = [0u8; 128];
        pooled.read_at(32, &mut span).unwrap();
        assert_eq!(&span[..], &bytes[32..160]);
        let d = pooled.phys().since(&before);
        assert_eq!((d.hits, d.misses, d.reads), (1, 2, 2));
        assert_eq!(pooled.resident_blocks(), 3);
    }

    #[test]
    fn concurrent_readers_see_consistent_bytes() {
        let bytes = pattern(64 * 40);
        let file = TestFile::new("threads", &bytes);
        let p = Arc::new(SharedPager::open(file.path(), 64, 8).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let p = Arc::clone(&p);
                let bytes = &bytes;
                scope.spawn(move || {
                    // Deterministic per-thread xorshift offsets.
                    let mut x = 0x9e37_79b9 ^ (t + 1);
                    let mut buf = [0u8; 48];
                    for _ in 0..500 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let off = x % (bytes.len() as u64 - 48);
                        let n = p.read_at(off, &mut buf).unwrap();
                        assert_eq!(n, 48);
                        assert_eq!(&buf, &bytes[off as usize..off as usize + 48]);
                    }
                });
            }
        });
        let s = p.phys();
        assert_eq!(s.reads, s.misses, "every miss is exactly one fill");
        assert!(s.hits + s.misses >= 4 * 500, "every block touch is accounted");
    }

    #[test]
    fn zero_block_size_is_rejected() {
        let file = TestFile::new("badbs", &[0u8; 16]);
        assert!(SharedPager::open(file.path(), 0, 4).is_err());
    }
}
