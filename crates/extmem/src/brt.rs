//! Buffered Repository Tree (BRT).
//!
//! The external-DFS baseline of the paper (DFS-SCC, after Buchsbaum et al.,
//! SODA'00) maintains "node `v` has been visited" notifications keyed by the
//! vertices that still point at `v`. The original structure is an external
//! (2,4)-tree with a buffer of `B` items per internal node; an insert costs
//! `O((1/B)·log₂(N/B))` amortized I/Os and an extract-all(k) costs
//! `O(log₂(N/B))` I/Os plus the output scan.
//!
//! We implement the same interface and bounds with a **log-structured**
//! organisation in place of the (2,4)-tree:
//!
//! * inserts go to a block-sized in-memory buffer; full buffers are sorted and
//!   written as a level-0 run; equal-sized runs merge into the next level —
//!   every item is rewritten `O(log(N/B))` times, i.e. `O((1/B)·log(N/B))`
//!   amortized I/Os per insert;
//! * `extract(k)` probes each of the `O(log(N/B))` levels with one
//!   fence-pointer-guided random block read — `O(log(N/B))` I/Os plus the
//!   output scan, just like a root-to-leaf walk of the (2,4)-tree;
//! * extraction is non-destructive; callers that are done with a key forever
//!   call [`Brt::retire`] and the key's items are dropped on the next merge
//!   that touches them. (DFS only extracts for the node currently on top of
//!   its stack, so re-reported items are idempotent for it — see
//!   `ce-dfs-scc`.)
//!
//! Like every other structure in this crate, the tree performs its I/O
//! through [`CountedFile`], so its runs live in the environment's pager and
//! its random probes are natural beneficiaries of the buffer pool: a probe
//! of a recently merged (and therefore recently written) block is a cache
//! hit — one *logical* random read, zero *physical* transfers.

use std::io;

use crate::env::DiskEnv;
use crate::file::CountedFile;
use crate::record::Record;
use crate::sorted::SortedStream;
use crate::stream::ExtFile;

type Item = (u32, u32);

/// One sorted run with in-memory fence pointers (first key of each block),
/// mirroring the cached internal nodes of the original tree.
struct Run {
    file: ExtFile<Item>,
    fences: Vec<u32>,
}

impl Run {
    /// Writes a sorted slice as a run, collecting fence keys on the way.
    fn build(env: &DiskEnv, label: &str, items: &[Item]) -> io::Result<Run> {
        let rpb = records_per_block(env);
        let mut w = env.writer::<Item>(label)?;
        let mut fences = Vec::with_capacity(items.len().div_ceil(rpb));
        for (i, &it) in items.iter().enumerate() {
            if i % rpb == 0 {
                fences.push(it.0);
            }
            w.push(it)?;
        }
        Ok(Run {
            file: w.finish()?,
            fences,
        })
    }

    fn len(&self) -> u64 {
        self.file.len()
    }

    /// Collects all values with key `k` into `out`.
    fn probe(&self, env: &DiskEnv, k: u32, out: &mut Vec<u32>) -> io::Result<usize> {
        if self.fences.is_empty() {
            return Ok(0);
        }
        let rpb = records_per_block(env);
        let block_bytes = rpb * <Item as Record>::SIZE;
        let start_block = self.fences.partition_point(|&f| f < k).saturating_sub(1);
        let mut file = CountedFile::open_read(env, self.file.path())?;
        let mut buf = vec![0u8; block_bytes];
        let total = self.file.len() as usize;
        let mut found = 0usize;
        'blocks: for b in start_block..self.fences.len() {
            if self.fences[b] > k {
                break;
            }
            let first = b * rpb;
            let count = rpb.min(total - first);
            let want = count * <Item as Record>::SIZE;
            let n = file.read_at((first * <Item as Record>::SIZE) as u64, &mut buf[..want])?;
            debug_assert_eq!(n, want, "run file truncated");
            for i in 0..count {
                let (key, val) =
                    <Item as Record>::decode(&buf[i * <Item as Record>::SIZE..(i + 1) * <Item as Record>::SIZE]);
                if key < k {
                    continue;
                }
                if key > k {
                    break 'blocks;
                }
                out.push(val);
                found += 1;
            }
        }
        Ok(found)
    }
}

fn records_per_block(env: &DiskEnv) -> usize {
    (env.config().block_size / <Item as Record>::SIZE).max(1)
}

/// Counters exposed for the benchmarks of the DFS baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrtStats {
    /// Items inserted.
    pub inserts: u64,
    /// Extract operations performed.
    pub extracts: u64,
    /// Run probes performed across all extracts.
    pub probes: u64,
    /// Items currently resident (including retired-but-unmerged ones).
    pub resident: u64,
}

/// Log-structured buffered repository tree over `(u32 key, u32 value)` items.
pub struct Brt {
    env: DiskEnv,
    label: String,
    mem: Vec<Item>,
    mem_cap: usize,
    levels: Vec<Option<Run>>,
    /// Sorted, deduplicated retired keys.
    retired: Vec<u32>,
    retired_pending: Vec<u32>,
    stats: BrtStats,
    seq: u64,
}

impl Brt {
    /// Creates an empty tree whose scratch runs carry `label` in their names.
    pub fn new(env: &DiskEnv, label: &str) -> Brt {
        let mem_cap = records_per_block(env).max(16);
        Brt {
            env: env.clone(),
            label: label.to_string(),
            mem: Vec::with_capacity(mem_cap),
            mem_cap,
            levels: Vec::new(),
            retired: Vec::new(),
            retired_pending: Vec::new(),
            stats: BrtStats::default(),
            seq: 0,
        }
    }

    /// Inserts one `(key, value)` item.
    pub fn insert(&mut self, key: u32, value: u32) -> io::Result<()> {
        self.stats.inserts += 1;
        self.stats.resident += 1;
        self.mem.push((key, value));
        if self.mem.len() >= self.mem_cap {
            self.flush_mem()?;
        }
        Ok(())
    }

    /// Collects all currently-stored values for `key` into `out` (appended).
    /// Items are *not* removed; see [`Brt::retire`].
    pub fn extract(&mut self, key: u32, out: &mut Vec<u32>) -> io::Result<usize> {
        self.stats.extracts += 1;
        let before = out.len();
        if self.is_retired(key) {
            return Ok(0);
        }
        for &(k, v) in &self.mem {
            if k == key {
                out.push(v);
            }
        }
        for run in self.levels.iter().flatten() {
            self.stats.probes += 1;
            run.probe(&self.env, key, out)?;
        }
        Ok(out.len() - before)
    }

    /// Declares that `key` will never be extracted again; its items are
    /// dropped from memory now and from disk runs as merges touch them.
    pub fn retire(&mut self, key: u32) {
        let dropped = self.mem.iter().filter(|&&(k, _)| k == key).count() as u64;
        self.mem.retain(|&(k, _)| k != key);
        self.stats.resident = self.stats.resident.saturating_sub(dropped);
        self.retired_pending.push(key);
        if self.retired_pending.len() >= self.mem_cap {
            self.compact_retired();
        }
    }

    fn compact_retired(&mut self) {
        self.retired.append(&mut self.retired_pending);
        self.retired.sort_unstable();
        self.retired.dedup();
    }

    fn is_retired(&self, key: u32) -> bool {
        self.retired.binary_search(&key).is_ok() || self.retired_pending.contains(&key)
    }

    /// Operation counters.
    pub fn stats(&self) -> BrtStats {
        self.stats
    }

    /// Number of on-disk levels currently occupied.
    pub fn occupied_levels(&self) -> usize {
        self.levels.iter().filter(|l| l.is_some()).count()
    }

    fn flush_mem(&mut self) -> io::Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        self.mem.sort_unstable();
        self.seq += 1;
        let label = format!("{}-l0-{}", self.label, self.seq);
        let mut run = Run::build(&self.env, &label, &self.mem)?;
        self.mem.clear();
        // Carry: merge into successive levels while occupied.
        let mut level = 0usize;
        loop {
            if self.levels.len() <= level {
                self.levels.push(None);
            }
            match self.levels[level].take() {
                None => {
                    self.levels[level] = Some(run);
                    break;
                }
                Some(existing) => {
                    run = self.merge_runs(existing, run, level)?;
                    level += 1;
                }
            }
        }
        Ok(())
    }

    fn merge_runs(&mut self, a: Run, b: Run, level: usize) -> io::Result<Run> {
        self.compact_retired();
        self.seq += 1;
        let rpb = records_per_block(&self.env);
        let label = format!("{}-l{}-{}", self.label, level + 1, self.seq);
        let mut ra = a.file.peek_reader()?;
        let mut rb = b.file.peek_reader()?;
        let mut w = self.env.writer::<Item>(&label)?;
        let mut fences = Vec::new();
        let mut written = 0usize;
        let mut dropped = 0u64;
        loop {
            let take_a = match (ra.peek()?, rb.peek()?) {
                (Some(x), Some(y)) => x <= y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (k, v) = if take_a {
                ra.next()?.expect("peeked")
            } else {
                rb.next()?.expect("peeked")
            };
            if self.retired.binary_search(&k).is_ok() {
                dropped += 1;
            } else {
                if written.is_multiple_of(rpb) {
                    fences.push(k);
                }
                w.push((k, v))?;
                written += 1;
            }
        }
        self.stats.resident = self.stats.resident.saturating_sub(dropped);
        Ok(Run {
            file: w.finish()?,
            fences,
        })
    }

    /// Total items on disk (excluding the in-memory buffer).
    pub fn disk_items(&self) -> u64 {
        self.levels.iter().flatten().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IoConfig;

    fn env() -> DiskEnv {
        // 64-byte blocks => 8 items per block => tiny runs, many levels.
        DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap()
    }

    #[test]
    fn insert_extract_roundtrip() {
        let env = env();
        let mut brt = Brt::new(&env, "t");
        for i in 0..100u32 {
            brt.insert(i % 10, i).unwrap();
        }
        let mut out = Vec::new();
        brt.extract(3, &mut out).unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![3, 13, 23, 33, 43, 53, 63, 73, 83, 93]);
    }

    #[test]
    fn extract_missing_key_is_empty() {
        let env = env();
        let mut brt = Brt::new(&env, "t");
        for i in 0..50u32 {
            brt.insert(i * 2, i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(brt.extract(999, &mut out).unwrap(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn extract_is_repeatable_until_retired() {
        let env = env();
        let mut brt = Brt::new(&env, "t");
        for i in 0..64u32 {
            brt.insert(5, i).unwrap();
        }
        let mut a = Vec::new();
        brt.extract(5, &mut a).unwrap();
        assert_eq!(a.len(), 64);
        let mut b = Vec::new();
        brt.extract(5, &mut b).unwrap();
        assert_eq!(b.len(), 64, "non-destructive extract");
        brt.retire(5);
        let mut c = Vec::new();
        assert_eq!(brt.extract(5, &mut c).unwrap(), 0);
    }

    #[test]
    fn retired_items_dropped_by_merges() {
        let env = env();
        let mut brt = Brt::new(&env, "t");
        for i in 0..256u32 {
            brt.insert(i % 16, i).unwrap();
        }
        let before = brt.disk_items();
        assert!(before > 0);
        for k in 0..8u32 {
            brt.retire(k);
        }
        // Force merges by inserting more.
        for i in 0..256u32 {
            brt.insert(16 + (i % 16), i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(brt.extract(3, &mut out).unwrap(), 0);
        brt.extract(17, &mut out).unwrap();
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn levels_grow_logarithmically() {
        let env = env();
        let mut brt = Brt::new(&env, "t");
        for i in 0..1024u32 {
            brt.insert(i, i).unwrap();
        }
        // 1024 items / 8 per level-0 run = 128 runs => ~7-8 levels.
        assert!(brt.occupied_levels() <= 10);
        assert!(brt.disk_items() >= 1000);
    }

    #[test]
    fn probes_cost_random_reads() {
        let env = env();
        let mut brt = Brt::new(&env, "t");
        for i in 0..512u32 {
            brt.insert(i, i).unwrap();
        }
        let before = env.stats().snapshot();
        let mut out = Vec::new();
        brt.extract(100, &mut out).unwrap();
        let d = env.stats().snapshot().since(&before);
        assert!(d.rand_reads > 0, "extract should issue random probes");
        assert_eq!(out, vec![100]);
    }
}
