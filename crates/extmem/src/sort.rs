//! External merge sort — the `sort(m)` primitive of the I/O model.
//!
//! Two phases, exactly as in the textbook algorithm the paper charges
//! `Θ((m/B)·log_{M/B}(m/B))` I/Os for:
//!
//! 1. **Run formation**: read the input in chunks of `M` bytes, sort each
//!    chunk in place, write it back as a sorted run.
//! 2. **Multi-way merge**: repeatedly merge up to `fan_in = M/B − 1` runs with
//!    a binary heap, one block buffer per run plus one output buffer, until a
//!    single run remains. A run file is deleted the moment its last record
//!    has been merged, so the peak temporary footprint stays `O(input)`
//!    bytes however many passes run.
//!
//! # Last-merge-pass elision
//!
//! [`sort_streaming_by_key`] / [`sort_dedup_streaming_by_key`] stop as soon
//! as at most `fan_in` runs remain and return the formed runs as a
//! [`SortedRuns`] value; the consumer pulls the final merge through a
//! [`MergeStream`] instead of paying `write(m) + read(m)` for a merged file
//! it would only scan once (see [`crate::sorted`] for the pass accounting).
//! [`sort_by_key`] / [`sort_dedup_by_key`] are the materializing wrappers:
//! identical result, plus the final merge written to a file — use them when
//! the sorted output is read more than once.
//!
//! Keys are extracted by a caller-supplied function so one record type can be
//! sorted in several orders (the paper sorts its edge lists by source, by
//! destination, and by composite keys in Algorithms 3–5).
//!
//! # Batched pull & buffer reuse
//!
//! Run formation fills its chunk through [`SortedStream::next_batch`]
//! (block-sized pulls straight into the chunk), and [`MergeStream`]
//! overrides `next_batch` itself: heap repair
//! happens in place via `peek_mut` (one sift per record instead of a
//! pop + push pair), keys are computed once per record when it enters the
//! heap — never per comparison — and once a single run remains (and no
//! dedup is active) the heap is bypassed entirely with bulk block reads.
//! Logical I/O counts are identical to the per-record path by construction:
//! both go through the same one-block-buffer refills. A second fast path
//! kicks in while exactly **two** runs remain: the heap is bypassed in favor
//! of a direct comparison of the two cached `(key, run)` pairs, which
//! monomorphizes to a tight branch instead of a sift (see
//! [`MergeStream::next_batch`]); yield order — including the run-index
//! tie-break on equal keys — and refill schedule are unchanged.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::io;

use crate::env::DiskEnv;
use crate::record::Record;
use crate::sorted::{stream_is_source, SortedSource, SortedStream, DEFAULT_BATCH};
use crate::stream::{ExtFile, RecordReader};

/// Sorts `input` by `key`, producing a new file. Stable order between equal
/// keys is *not* guaranteed (runs are sorted with an unstable in-memory sort).
///
/// Accepts any [`SortedSource`] — a `&ExtFile` or an upstream stream whose
/// records are consumed directly into run formation without ever being
/// materialized.
pub fn sort_by_key<T, K, F, S>(env: &DiskEnv, input: S, label: &str, key: F) -> io::Result<ExtFile<T>>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K + Copy,
    S: SortedSource<T>,
{
    sort_streaming_by_key(env, input, label, key)?.materialize(label)
}

/// Sorts `input` by `key` and drops records whose key equals the previous
/// record's key (external sort + dedup fused into the merge).
///
/// Used for the paper's parallel-edge elimination (Section VII) and for
/// deduplicating the vertex cover produced by Algorithm 3 line 10.
pub fn sort_dedup_by_key<T, K, F, S>(
    env: &DiskEnv,
    input: S,
    label: &str,
    key: F,
) -> io::Result<ExtFile<T>>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K + Copy,
    S: SortedSource<T>,
{
    sort_dedup_streaming_by_key(env, input, label, key)?.materialize(label)
}

/// Sorts `input` by `key`, stopping after run formation (plus any merge
/// passes needed to get at most `fan_in` runs). The returned [`SortedRuns`]
/// hands the final merge to its consumer, eliding one `write(m) + read(m)`.
pub fn sort_streaming_by_key<T, K, F, S>(
    env: &DiskEnv,
    input: S,
    label: &str,
    key: F,
) -> io::Result<SortedRuns<T, K, F>>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K + Copy,
    S: SortedSource<T>,
{
    sort_runs(env, input, label, key, false)
}

/// Like [`sort_streaming_by_key`], additionally eliminating records with
/// duplicate keys. Runs are deduplicated as they form, so intermediate runs
/// shrink too; the final [`MergeStream`] removes the cross-run duplicates.
pub fn sort_dedup_streaming_by_key<T, K, F, S>(
    env: &DiskEnv,
    input: S,
    label: &str,
    key: F,
) -> io::Result<SortedRuns<T, K, F>>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K + Copy,
    S: SortedSource<T>,
{
    sort_runs(env, input, label, key, true)
}

/// The formed (and partially merged) runs of an elided external sort: at
/// most `fan_in` sorted run files plus the key that orders them.
///
/// Consume it either as a stream ([`SortedRuns::into_stream`], or pass it
/// directly to any operator taking `impl SortedSource` — the final merge
/// happens inside the consumer's scan) or as a file
/// ([`SortedRuns::materialize`] — the classical final merge pass; free when
/// a single run remains).
pub struct SortedRuns<T: Record, K: Ord, F: Fn(&T) -> K + Copy> {
    env: DiskEnv,
    runs: Vec<ExtFile<T>>,
    key: F,
    dedup: bool,
    _marker: std::marker::PhantomData<K>,
}

impl<T, K, F> SortedRuns<T, K, F>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K + Copy,
{
    /// Number of runs awaiting the final merge (≤ the sort fan-in; 0 for an
    /// empty input).
    pub fn n_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total records across the runs (an upper bound on the stream's yield
    /// when deduplicating: cross-run duplicates are still present).
    pub fn run_records(&self) -> u64 {
        self.runs.iter().map(|r| r.len()).sum()
    }

    /// Opens the final merge as a stream (one block buffer per run).
    pub fn into_stream(self) -> io::Result<MergeStream<T, K, F>> {
        MergeStream::new(self.runs, self.key, self.dedup)
    }

    /// Drains the final merge, returning the number of records (with dedup:
    /// the number of distinct keys) without writing anything.
    pub fn count(self) -> io::Result<u64> {
        self.into_stream()?.count()
    }

    /// Performs the final merge into a file — the classical materializing
    /// sort. A single remaining run is returned as-is (runs are always
    /// individually sorted and deduplicated, so no extra pass is needed).
    pub fn materialize(mut self, label: &str) -> io::Result<ExtFile<T>> {
        match self.runs.len() {
            0 => ExtFile::empty(&self.env, label),
            1 => Ok(self.runs.pop().expect("one run")),
            _ => {
                let env = self.env.clone();
                self.into_stream()?.materialize(&env, label)
            }
        }
    }
}

impl<T, K, F> SortedSource<T> for SortedRuns<T, K, F>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K + Copy,
{
    type Stream = MergeStream<T, K, F>;

    fn open_sorted(self) -> io::Result<MergeStream<T, K, F>> {
        self.into_stream()
    }
}

fn sort_runs<T, K, F, S>(
    env: &DiskEnv,
    input: S,
    label: &str,
    key: F,
    dedup: bool,
) -> io::Result<SortedRuns<T, K, F>>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K + Copy,
    S: SortedSource<T>,
{
    let mut runs = form_runs(env, input.open_sorted()?, label, key, dedup)?;

    // Merge passes until the remaining runs fit one merge — the consumer's.
    let fan_in = env.config().sort_fan_in().max(2);
    let mut pass = 0usize;
    while runs.len() > fan_in {
        let _sp = crate::io_span!(env, "merge_pass", pass = pass, runs_in = runs.len());
        // Taking the groups by value lets MergeStream delete each run the
        // moment it is exhausted, keeping peak scratch space O(input).
        let mut next = Vec::with_capacity(runs.len().div_ceil(fan_in));
        let mut it = runs.into_iter();
        loop {
            let group: Vec<ExtFile<T>> = it.by_ref().take(fan_in).collect();
            if group.is_empty() {
                break;
            }
            let gi = next.len();
            next.push(
                MergeStream::new(group, key, dedup)?
                    .materialize(env, &format!("{label}-p{pass}g{gi}"))?,
            );
        }
        runs = next;
        pass += 1;
    }

    Ok(SortedRuns {
        env: env.clone(),
        runs,
        key,
        dedup,
        _marker: std::marker::PhantomData,
    })
}

/// Phase 1: read `M`-byte chunks, sort each in place, spill sorted (and,
/// with `dedup`, per-run deduplicated) runs.
///
/// The chunk holds the records themselves, `M / record` of them, so run
/// formation's heap is `M` plus the input's and the run writer's block
/// buffers. It is sized once: to the input's length when that is known and
/// smaller, else to the full run length, so an unsized stream never grows it
/// past `M`. The sort recomputes the key per comparison; every key in the
/// workspace is a field projection, so that is cheaper than storing a key
/// beside each record.
///
/// Run length is `M / record`, the quantity the I/O model's `M` budgets.
/// Changing it moves run boundaries, and with them the order of
/// *equal-keyed* records (the in-run sort is unstable), which consumers that
/// sort by a partial key can observe.
fn form_runs<T, K, F, S>(
    env: &DiskEnv,
    mut input: S,
    label: &str,
    key: F,
    dedup: bool,
) -> io::Result<Vec<ExtFile<T>>>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K + Copy,
    S: SortedStream<T>,
{
    let _sp = crate::io_span!(env, "run_formation");
    let run_records = (env.config().mem_budget / T::SIZE).max(1);
    let mut runs: Vec<ExtFile<T>> = Vec::new();
    let cap = match input.len_hint() {
        Some(n) => (n as usize).saturating_add(1).min(run_records),
        None => run_records,
    };
    let mut chunk: Vec<T> = Vec::with_capacity(cap);
    let mut done = false;
    while !done {
        chunk.clear();
        while chunk.len() < run_records {
            let want = (run_records - chunk.len()).min(DEFAULT_BATCH);
            if input.next_batch(&mut chunk, want)? < want {
                done = true;
                break;
            }
        }
        if chunk.is_empty() {
            break;
        }
        ce_obs::metrics::observe("sort.run_records", chunk.len() as u64);
        chunk.sort_unstable_by_key(key);
        if dedup {
            chunk.dedup_by(|a, b| key(a) == key(b));
        }
        let mut w = env.writer::<T>(&format!("{label}-run{}", runs.len()))?;
        w.push_slice(&chunk)?;
        runs.push(w.finish()?);
    }
    Ok(runs)
}

/// K-way merge over sorted run files, streamed record by record: the elided
/// final merge pass of the external sort, executed inside the consumer.
///
/// Holds one block buffer per run. Each run file is **deleted as soon as its
/// last record has been pulled**, so scratch space shrinks while the merge
/// progresses. With `dedup`, records whose key equals the previously yielded
/// record's key are skipped (runs merge equal keys adjacently, so this is a
/// full deduplication).
pub struct MergeStream<T: Record, K: Ord, F: Fn(&T) -> K> {
    /// One reader per run; `None` once exhausted. A reader keeps its run
    /// file alive (unlink-while-open semantics), so dropping it here is
    /// what deletes the run eagerly.
    readers: Vec<Option<RecordReader<T>>>,
    heap: BinaryHeap<Reverse<(K, usize)>>,
    pending: Vec<Option<T>>,
    key: F,
    dedup: bool,
    /// Key of the last yielded record (tracked only when deduplicating) —
    /// reused from the popped heap entry, so dedup costs no extra key
    /// computations.
    last_key: Option<K>,
}

impl<T, K, F> MergeStream<T, K, F>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K,
{
    /// Opens a merge over `runs`, each individually sorted by `key`.
    pub fn new(runs: Vec<ExtFile<T>>, key: F, dedup: bool) -> io::Result<MergeStream<T, K, F>> {
        // Heap and pending are sized once, up front.
        let mut readers = Vec::with_capacity(runs.len());
        let mut pending = Vec::with_capacity(runs.len());
        let mut heap = BinaryHeap::with_capacity(runs.len());
        for (i, run) in runs.into_iter().enumerate() {
            let mut reader = run.reader()?;
            match reader.next()? {
                Some(v) => {
                    heap.push(Reverse((key(&v), i)));
                    pending.push(Some(v));
                    readers.push(Some(reader));
                }
                None => {
                    // Empty run: nothing to merge, delete it right away.
                    pending.push(None);
                    readers.push(None);
                }
            }
        }
        Ok(MergeStream {
            readers,
            heap,
            pending,
            key,
            dedup,
            last_key: None,
        })
    }

    /// Takes the least-keyed pending record and refills its heap entry **in
    /// place** (`peek_mut` sifts on drop), so advancing the merge costs one
    /// sift instead of the pop + push pair of the naive loop. The key
    /// returned is the one cached in the popped entry — never recomputed.
    #[inline]
    fn pull_top(&mut self) -> io::Result<Option<(K, T)>> {
        let Some(&Reverse((_, i))) = self.heap.peek() else {
            return Ok(None);
        };
        let v = self.pending[i].take().expect("heap entry implies pending value");
        let reader = self.readers[i].as_mut().expect("pending value without a reader");
        let old = match reader.next()? {
            Some(nv) => {
                let nk = (self.key)(&nv);
                self.pending[i] = Some(nv);
                let mut top = self.heap.peek_mut().expect("heap peeked above");
                std::mem::replace(&mut *top, Reverse((nk, i)))
            }
            None => {
                // Run exhausted: drop the reader, deleting the file now.
                self.readers[i] = None;
                let top = self.heap.peek_mut().expect("heap peeked above");
                PeekMut::pop(top)
            }
        };
        let Reverse((k, _)) = old;
        Ok(Some((k, v)))
    }

    /// Two-run fast path: with exactly two live runs and no dedup, the heap
    /// degenerates to a single comparison of the two cached `(key, run)`
    /// pairs, which the compiler monomorphizes into a tight branch — no
    /// sift, no `PeekMut` bookkeeping. Yield order (including the run-index
    /// tie-break on equal keys) and the refill schedule are exactly those
    /// of the heap path. Returns the number of records appended; on exit
    /// the heap invariant is fully restored, so the caller's general loop
    /// (and a later `next()`) can take over seamlessly.
    fn merge_two(&mut self, buf: &mut Vec<T>, n: usize) -> io::Result<usize> {
        debug_assert_eq!(self.heap.len(), 2);
        let Reverse((mut ka, ia)) = self.heap.pop().expect("two heap entries");
        let Reverse((mut kb, ib)) = self.heap.pop().expect("two heap entries");
        let mut got = 0usize;
        let mut res = Ok(());
        while got < n {
            let i = if (&ka, ia) <= (&kb, ib) { ia } else { ib };
            let v = self.pending[i].take().expect("heap entry implies pending value");
            let reader = self.readers[i].as_mut().expect("pending value without a reader");
            match reader.next() {
                Ok(Some(nv)) => {
                    let nk = (self.key)(&nv);
                    self.pending[i] = Some(nv);
                    if i == ia {
                        ka = nk;
                    } else {
                        kb = nk;
                    }
                    buf.push(v);
                    got += 1;
                }
                Ok(None) => {
                    // One side exhausted: delete its run now, keep only the
                    // survivor's entry, and let the single-run bulk path
                    // finish the job.
                    self.readers[i] = None;
                    buf.push(v);
                    got += 1;
                    let survivor = if i == ia { (kb, ib) } else { (ka, ia) };
                    self.heap.push(Reverse(survivor));
                    return Ok(got);
                }
                Err(e) => {
                    // Undo the take so the stream state is exactly as it
                    // was before this record.
                    self.pending[i] = Some(v);
                    res = Err(e);
                    break;
                }
            }
        }
        self.heap.push(Reverse((ka, ia)));
        self.heap.push(Reverse((kb, ib)));
        res.map(|()| got)
    }
}

impl<T, K, F> SortedStream<T> for MergeStream<T, K, F>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K,
{
    fn next(&mut self) -> io::Result<Option<T>> {
        while let Some((k, v)) = self.pull_top()? {
            if self.dedup {
                if self.last_key.as_ref() == Some(&k) {
                    continue;
                }
                self.last_key = Some(k);
            }
            return Ok(Some(v));
        }
        Ok(None)
    }

    fn next_batch(&mut self, buf: &mut Vec<T>, n: usize) -> io::Result<usize> {
        let mut got = 0usize;
        while got < n {
            // Single-run fast path: with one run left and no dedup the heap
            // is pure overhead — yield the buffered record, then bulk-read
            // whole blocks from the sole reader. (With dedup the runs fed to
            // a pub `MergeStream::new` may still carry within-run duplicate
            // keys, so dedup always goes record by record.)
            if !self.dedup && self.heap.len() == 1 {
                let &Reverse((_, i)) = self.heap.peek().expect("heap len checked");
                if let Some(v) = self.pending[i].take() {
                    buf.push(v);
                    got += 1;
                }
                let reader = self.readers[i].as_mut().expect("live heap entry");
                got += reader.next_batch(buf, n - got)?;
                // Restore the invariant: the heap top carries a live pending
                // record (one record of readahead), or the run is finished
                // and leaves the merge.
                match reader.next()? {
                    Some(nv) => {
                        let nk = (self.key)(&nv);
                        self.pending[i] = Some(nv);
                        let mut top = self.heap.peek_mut().expect("heap len checked");
                        *top = Reverse((nk, i));
                    }
                    None => {
                        self.readers[i] = None;
                        let top = self.heap.peek_mut().expect("heap len checked");
                        PeekMut::pop(top);
                    }
                }
                if self.heap.is_empty() {
                    break;
                }
                continue;
            }
            // Two-run fast path: direct comparison of the cached keys. May
            // leave one run behind, handing over to the single-run path.
            if !self.dedup && self.heap.len() == 2 {
                got += self.merge_two(buf, n - got)?;
                continue;
            }
            match self.pull_top()? {
                Some((k, v)) => {
                    if self.dedup {
                        if self.last_key.as_ref() == Some(&k) {
                            continue;
                        }
                        self.last_key = Some(k);
                    }
                    buf.push(v);
                    got += 1;
                }
                None => break,
            }
        }
        Ok(got)
    }

    fn len_hint(&self) -> Option<u64> {
        if self.dedup {
            return None; // cross-run duplicates are dropped lazily
        }
        let buffered = self.pending.iter().flatten().count() as u64;
        let remaining: u64 = self.readers.iter().flatten().map(|r| r.remaining()).sum();
        Some(buffered + remaining)
    }
}

stream_is_source!(impl[T: Record, K: Ord, F: Fn(&T) -> K] MergeStream<T, K, F> => T);

/// Checks that a file is sorted (non-decreasing) under `key`. Test helper.
pub fn is_sorted_by_key<T, K, F>(input: &ExtFile<T>, key: F) -> io::Result<bool>
where
    T: Record,
    K: Ord,
    F: Fn(&T) -> K,
{
    let mut r = input.reader()?;
    let mut last: Option<K> = None;
    while let Some(v) = r.next()? {
        let k = key(&v);
        if let Some(l) = &last {
            if *l > k {
                return Ok(false);
            }
        }
        last = Some(k);
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IoConfig;

    fn env() -> DiskEnv {
        // Tiny memory: 64-byte blocks, 256-byte budget => 16 u32s per run,
        // fan-in 3. Forces multi-pass merges on small inputs.
        DiskEnv::new_temp(IoConfig::new(64, 256)).unwrap()
    }

    #[test]
    fn sorts_multi_pass() {
        let env = env();
        let items: Vec<u32> = (0..500).rev().collect();
        let f = env.file_from_slice("in", &items).unwrap();
        let sorted = sort_by_key(&env, &f, "out", |&x| x).unwrap();
        assert_eq!(sorted.len(), 500);
        let all = sorted.read_all().unwrap();
        assert_eq!(all, (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn sorts_empty_and_single() {
        let env = env();
        let f = ExtFile::<u32>::empty(&env, "e").unwrap();
        let s = sort_by_key(&env, &f, "se", |&x| x).unwrap();
        assert!(s.is_empty());

        let f1 = env.file_from_slice("one", &[42u32]).unwrap();
        let s1 = sort_by_key(&env, &f1, "sone", |&x| x).unwrap();
        assert_eq!(s1.read_all().unwrap(), vec![42]);
    }

    #[test]
    fn sorts_by_composite_key() {
        let env = env();
        let items: Vec<(u32, u32)> = vec![(2, 1), (1, 9), (2, 0), (1, 1), (0, 5)];
        let f = env.file_from_slice("in", &items).unwrap();
        let sorted = sort_by_key(&env, &f, "out", |r| (r.0, r.1)).unwrap();
        assert_eq!(
            sorted.read_all().unwrap(),
            vec![(0, 5), (1, 1), (1, 9), (2, 0), (2, 1)]
        );
    }

    #[test]
    fn dedup_across_runs() {
        let env = env();
        // 100 copies of 10 distinct keys, scattered so duplicates span runs.
        let mut items = Vec::new();
        for i in 0..1000u32 {
            items.push(i % 10);
        }
        let f = env.file_from_slice("in", &items).unwrap();
        let sorted = sort_dedup_by_key(&env, &f, "out", |&x| x).unwrap();
        assert_eq!(sorted.read_all().unwrap(), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn dedup_single_run_input() {
        let env = DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap();
        let f = env.file_from_slice("in", &[3u32, 1, 3, 2, 1]).unwrap();
        let sorted = sort_dedup_by_key(&env, &f, "out", |&x| x).unwrap();
        assert_eq!(sorted.read_all().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn streaming_sort_yields_same_records_in_same_order() {
        let env = env();
        let items: Vec<u32> = (0..777u64).map(|i| (i * 2654435761 % 1000) as u32).collect();
        let f = env.file_from_slice("in", &items).unwrap();
        let materialized = sort_by_key(&env, &f, "mat", |&x| x).unwrap().read_all().unwrap();
        let mut streamed = Vec::new();
        let mut s = sort_streaming_by_key(&env, &f, "st", |&x| x)
            .unwrap()
            .into_stream()
            .unwrap();
        while let Some(v) = s.next().unwrap() {
            streamed.push(v);
        }
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn streaming_elides_exactly_the_last_pass_on_three_runs() {
        // B = 64, M = 256: 64 u32s per run (runs are sized by record
        // bytes), fan-in 3. 192 records form
        // exactly 3 runs = 12 blocks, so no intermediate merge pass runs and
        // the only difference between the materializing and the streaming
        // sort is the final pass: write(12) + read(12) = 24 logical I/Os.
        let env = env();
        let items: Vec<u32> = (0..192).rev().collect();
        let f = env.file_from_slice("in", &items).unwrap();
        let blocks = (192 * 4) / 64; // 12

        let before = env.stats().snapshot();
        let sorted = sort_by_key(&env, &f, "mat", |&x| x).unwrap();
        let mut r = sorted.reader().unwrap();
        let mut n_mat = 0u64;
        while r.next().unwrap().is_some() {
            n_mat += 1;
        }
        let cost_materialized = env.stats().snapshot().since(&before).total_ios();

        let before = env.stats().snapshot();
        let runs = sort_streaming_by_key(&env, &f, "st", |&x| x).unwrap();
        assert_eq!(runs.n_runs(), 3);
        let n_stream = runs.count().unwrap();
        let cost_streamed = env.stats().snapshot().since(&before).total_ios();

        assert_eq!(n_mat, 192);
        assert_eq!(n_stream, 192);
        assert_eq!(
            cost_materialized - cost_streamed,
            2 * blocks,
            "elision must save exactly write({blocks}) + read({blocks})"
        );
        // And the absolute counts: read input (12) + write runs (12) +
        // [materializing only: read runs (12) + write out (12)] + consumer
        // read (12).
        assert_eq!(cost_streamed, 3 * blocks);
        assert_eq!(cost_materialized, 5 * blocks);
    }

    #[test]
    fn merge_passes_delete_consumed_runs_eagerly() {
        // B = 64, M = 256 => 64 u32s per run. 4096
        // records -> 64 runs, fan-in 3 -> several
        // passes. Track the peak number of live scratch files and bytes
        // during the merge via the key function, which runs constantly.
        use std::cell::Cell;
        let env = env();
        let items: Vec<u32> = (0..4096).rev().collect();
        let f = env.file_from_slice("in", &items).unwrap();
        let input_bytes = f.bytes();
        let root = env.root().to_path_buf();
        let peak_bytes = Cell::new(0u64);
        let calls = Cell::new(0u64);
        let live_bytes = |root: &std::path::Path| -> u64 {
            std::fs::read_dir(root)
                .unwrap()
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        };
        let sorted = sort_by_key(&env, &f, "out", |&x| {
            // Sample occasionally; a full dir listing per comparison is slow.
            if calls.replace(calls.get() + 1).is_multiple_of(512) {
                peak_bytes.set(peak_bytes.get().max(live_bytes(&root)));
            }
            x
        })
        .unwrap();
        assert_eq!(sorted.len(), 4096);
        assert!(peak_bytes.get() > 0, "sampling never fired");
        // Any single merge inherently holds its input runs plus its output
        // plus the source file (≈ 3× input at the final merge); eager
        // per-run deletion guarantees nothing *beyond* that accumulates.
        // If consumed runs outlived their pass, the five merge passes of
        // this sort would stack up to ≈ 6× input — the regression this
        // bound catches.
        assert!(
            peak_bytes.get() <= input_bytes * 17 / 5,
            "peak scratch {} B exceeds ~3.4x input {} B — eager run deletion broken?",
            peak_bytes.get(),
            input_bytes
        );
    }

    #[test]
    fn streaming_dedup_counts_distinct_keys_without_writing() {
        let env = env();
        let mut items = Vec::new();
        for i in 0..900u32 {
            items.push(i % 30);
        }
        let f = env.file_from_slice("in", &items).unwrap();
        let n = sort_dedup_streaming_by_key(&env, &f, "d", |&x| x)
            .unwrap()
            .count()
            .unwrap();
        assert_eq!(n, 30);
    }

    #[test]
    fn sort_consumes_an_upstream_stream_without_materializing() {
        let env = env();
        let items: Vec<u32> = (0..300).collect();
        let f = env.file_from_slice("in", &items).unwrap();
        // Sort descending straight out of a filter stream.
        let odd = f.stream().unwrap().filter(|&x| x % 2 == 1);
        let sorted = sort_by_key(&env, odd, "odd-desc", |&x| Reverse(x)).unwrap();
        let all = sorted.read_all().unwrap();
        assert_eq!(all.len(), 150);
        assert_eq!(all[0], 299);
        assert!(all.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn sort_io_cost_is_near_linear_per_pass() {
        let env = env(); // B=64, M=256
        let items: Vec<u32> = (0..4096).rev().collect();
        let f = env.file_from_slice("in", &items).unwrap();
        let before = env.stats().snapshot();
        let _sorted = sort_by_key(&env, &f, "out", |&x| x).unwrap();
        let d = env.stats().snapshot().since(&before);
        // 4096 u32 = 16 KiB = 256 blocks. Runs: 4096/64 = 64 runs; fan-in 3
        // => merge passes down to <= 3 runs + elided-last-pass materialize.
        // Assert the right order of magnitude, not the exact figure.
        assert!(d.total_ios() > 2 * 256, "too few I/Os: {}", d.total_ios());
        assert!(
            d.total_ios() < 16 * 2 * 256,
            "sort used too many I/Os: {}",
            d.total_ios()
        );
    }

    #[test]
    fn is_sorted_detects_disorder() {
        let env = env();
        let f = env.file_from_slice("a", &[1u32, 2, 2, 3]).unwrap();
        assert!(is_sorted_by_key(&f, |&x| x).unwrap());
        let g = env.file_from_slice("b", &[1u32, 3, 2]).unwrap();
        assert!(!is_sorted_by_key(&g, |&x| x).unwrap());
    }
}
